//! `7z-lite`: an LZMA-class codec — deep lazy LZ77 over a 1 MiB window with
//! all tokens entropy-coded by the adaptive binary range coder.
//!
//! Mirrors the paper's 7z/LZMA entry in Table I: the best compression ratio
//! of the four codecs, paid for with the slowest compression.

use crate::crc32::crc32;
use crate::lz77::{self, Lz77Config, Token, MIN_MATCH};
use crate::range_coder::{BitModel, BitTree, RangeDecoder, RangeEncoder};
use crate::slots::{base_of, slot_of};
use crate::{Codec, CodecError};
use obs::bytes::varint;

const MAGIC: &[u8; 4] = b"SP7Z";
/// Literal coding context: top 3 bits of the previous byte.
const LIT_CONTEXTS: usize = 8;

/// LZMA-class codec. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct SevenzLite {
    config: Lz77Config,
}

impl Default for SevenzLite {
    fn default() -> Self {
        Self {
            config: Lz77Config::lzma_class(),
        }
    }
}

impl SevenzLite {
    pub fn with_config(config: Lz77Config) -> Self {
        assert!(config.window_log <= 20);
        assert!(config.max_match <= MIN_MATCH as u32 + 255);
        Self { config }
    }
}

/// The adaptive model set, identical on both coder sides.
struct Models {
    is_match: BitModel,
    literal: [BitTree<256>; LIT_CONTEXTS],
    length: BitTree<256>,
    dist_slot: BitTree<64>,
}

impl Models {
    fn new() -> Self {
        Self {
            is_match: BitModel::default(),
            literal: std::array::from_fn(|_| BitTree::new()),
            length: BitTree::new(),
            dist_slot: BitTree::new(),
        }
    }

    #[inline]
    fn lit_ctx(prev: u8) -> usize {
        usize::from(prev >> 5)
    }
}

impl Codec for SevenzLite {
    fn name(&self) -> &'static str {
        "7z-lite"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let tokens = lz77::parse(input, self.config);
        let mut out = Vec::with_capacity(input.len() / 6 + 64);
        out.extend_from_slice(MAGIC);
        varint::write_u64(&mut out, input.len() as u64);
        out.extend_from_slice(&crc32(input).to_le_bytes());
        varint::write_u64(&mut out, tokens.len() as u64);

        let mut models = Models::new();
        let mut enc = RangeEncoder::new();
        let mut prev_byte = 0u8;
        let mut produced = 0usize;
        for t in &tokens {
            match *t {
                Token::Literal(b) => {
                    enc.encode_bit(&mut models.is_match, 0);
                    let ctx = Models::lit_ctx(prev_byte);
                    models.literal[ctx].encode(&mut enc, u32::from(b));
                    prev_byte = b;
                    produced += 1;
                }
                Token::Match { len, dist } => {
                    enc.encode_bit(&mut models.is_match, 1);
                    models.length.encode(&mut enc, len - MIN_MATCH as u32);
                    let (slot, extra_bits, extra_val) = slot_of(dist - 1);
                    models.dist_slot.encode(&mut enc, slot);
                    if extra_bits > 0 {
                        enc.encode_direct(extra_val, extra_bits);
                    }
                    produced += len as usize;
                    // Track the final byte of the match for literal context.
                    prev_byte = input[produced - 1];
                }
            }
        }
        out.extend_from_slice(&enc.finish());
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        if input.len() < 4 || &input[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let mut pos = 4;
        let declared_len = varint::read_u64(input, &mut pos)? as usize;
        if pos + 4 > input.len() {
            return Err(CodecError::Truncated);
        }
        let stored_crc = u32::from_le_bytes(input[pos..pos + 4].try_into().unwrap());
        pos += 4;
        let n_tokens = varint::read_u64(input, &mut pos)? as usize;
        // Every token emits at least one output byte, so more tokens than
        // declared bytes is structurally impossible.
        if n_tokens > declared_len {
            return Err(CodecError::Corrupt("token count exceeds declared length"));
        }

        let mut models = Models::new();
        let mut dec = RangeDecoder::new(&input[pos..]);
        let mut out = Vec::with_capacity(crate::bounded_capacity(declared_len) + lz77::COPY_SLACK);
        let mut prev_byte = 0u8;
        for _ in 0..n_tokens {
            // The range decoder yields zero bytes past the end of input; a
            // well-formed stream never needs them (the encoder's 5-byte
            // flush covers the decoder's lookahead), so an overrun means the
            // stream was truncated and the remaining tokens are fiction.
            if dec.is_overrun() {
                return Err(CodecError::Truncated);
            }
            if dec.decode_bit(&mut models.is_match) == 0 {
                let ctx = Models::lit_ctx(prev_byte);
                let b = models.literal[ctx].decode(&mut dec) as u8;
                out.push(b);
                prev_byte = b;
            } else {
                let len = models.length.decode(&mut dec) as usize + MIN_MATCH;
                let slot = models.dist_slot.decode(&mut dec);
                let (base, extra_bits) = base_of(slot);
                let extra = if extra_bits > 0 {
                    dec.decode_direct(extra_bits)
                } else {
                    0
                };
                let dist = (base + extra) as usize + 1;
                if dist > out.len() {
                    return Err(CodecError::Corrupt("match distance exceeds history"));
                }
                if out.len() + len > declared_len {
                    return Err(CodecError::Corrupt("output exceeds declared length"));
                }
                lz77::copy_match(&mut out, dist, len);
                prev_byte = *out.last().unwrap();
            }
            if out.len() > declared_len {
                return Err(CodecError::Corrupt("output exceeds declared length"));
            }
        }
        if out.len() != declared_len {
            return Err(CodecError::Corrupt("decoded length mismatch"));
        }
        let actual = crc32(&out);
        if actual != stored_crc {
            return Err(CodecError::ChecksumMismatch {
                expected: stored_crc,
                actual,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GzipLite;

    fn round_trip(data: &[u8]) -> Vec<u8> {
        let codec = SevenzLite::default();
        let packed = codec.compress(data);
        assert_eq!(
            codec.decompress(&packed).unwrap(),
            data,
            "len {}",
            data.len()
        );
        packed
    }

    #[test]
    fn empty_and_small_inputs() {
        round_trip(b"");
        round_trip(b"x");
        round_trip(b"abcd");
        round_trip(b"the quick brown fox");
    }

    #[test]
    fn repetitive_data_beats_gzip_lite() {
        let row = b"cell=000123,attempts=17,drops=0,tput=3.5,rssi=-92;";
        let data: Vec<u8> = row.iter().copied().cycle().take(200_000).collect();
        let seven = round_trip(&data);
        let gzip = GzipLite::default().compress(&data);
        assert!(
            seven.len() < gzip.len(),
            "7z-lite ({}) should out-compress gzip-lite ({}) on redundant data",
            seven.len(),
            gzip.len()
        );
    }

    #[test]
    fn structured_text_round_trip() {
        let mut data = Vec::new();
        for i in 0..5000u32 {
            data.extend_from_slice(
                format!(
                    "82100000{:04},LTE,2016-01-{:02}T{:02}:30,{},0\n",
                    i % 500,
                    i % 28 + 1,
                    i % 24,
                    i % 7
                )
                .as_bytes(),
            );
        }
        round_trip(&data);
    }

    #[test]
    fn incompressible_data_round_trip() {
        let mut state = 99u64;
        let data: Vec<u8> = (0..60_000)
            .map(|_| {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                (state >> 33) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn long_range_matches_use_the_big_window() {
        // A block repeated 600 KiB apart: inside 7z-lite's 1 MiB window but
        // outside gzip-lite's 32 KiB one.
        let unique: Vec<u8> = (0..4096u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut state = 1u64;
        let filler: Vec<u8> = (0..600_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 40) as u8
            })
            .collect();
        let mut data = unique.clone();
        data.extend_from_slice(&filler);
        data.extend_from_slice(&unique);
        let seven = round_trip(&data);
        let gzip = GzipLite::default().compress(&data);
        assert!(seven.len() < gzip.len());
    }

    #[test]
    fn rejects_bad_magic_and_corruption() {
        let codec = SevenzLite::default();
        assert_eq!(codec.decompress(b"NOPE"), Err(CodecError::BadMagic));
        let data = b"corrupt me, plenty of redundancy here ".repeat(100);
        let mut packed = codec.compress(&data);
        let mid = packed.len() / 2;
        packed[mid] ^= 0x40;
        assert!(codec.decompress(&packed).is_err());
    }
}
