//! `snappy-lite`: a byte-oriented LZ codec with no entropy stage,
//! Snappy-class — maximum speed, roughly half the compression ratio of the
//! entropy-coded codecs (exactly the trade-off Table I reports for SNAPPY).
//!
//! The wire format follows Snappy's tag-byte design: the low two bits of
//! each tag select literal-run vs copy, the high six bits carry the length.

use crate::crc32::crc32;
use crate::lz77::{self, Lz77Config, Token, MIN_MATCH};
use crate::{Codec, CodecError};
use obs::bytes::varint;

const MAGIC: &[u8; 4] = b"SPSN";
const TAG_LITERAL: u8 = 0b00;
const TAG_COPY: u8 = 0b10;

/// Snappy-class codec. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct SnappyLite {
    config: Lz77Config,
}

impl Default for SnappyLite {
    fn default() -> Self {
        Self {
            config: Lz77Config::snappy_class(),
        }
    }
}

impl SnappyLite {
    pub fn with_config(config: Lz77Config) -> Self {
        assert!(config.window_log <= 16, "copies carry 16-bit offsets");
        assert!(config.max_match <= MIN_MATCH as u32 + 63);
        Self { config }
    }
}

fn emit_literal_run(out: &mut Vec<u8>, run: &[u8]) {
    let mut rest = run;
    while !rest.is_empty() {
        // Up to 60 literal bytes fit the tag; longer runs use extension bytes.
        let take = rest.len().min(1 << 16);
        let n = take - 1;
        if n < 60 {
            out.push(TAG_LITERAL | ((n as u8) << 2));
        } else if n < 256 {
            out.push(TAG_LITERAL | (60 << 2));
            out.push(n as u8);
        } else {
            out.push(TAG_LITERAL | (61 << 2));
            out.extend_from_slice(&(n as u16).to_le_bytes());
        }
        out.extend_from_slice(&rest[..take]);
        rest = &rest[take..];
    }
}

impl Codec for SnappyLite {
    fn name(&self) -> &'static str {
        "snappy-lite"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let tokens = lz77::parse(input, self.config);
        let mut out = Vec::with_capacity(input.len() / 2 + 64);
        out.extend_from_slice(MAGIC);
        varint::write_u64(&mut out, input.len() as u64);
        out.extend_from_slice(&crc32(input).to_le_bytes());

        // Batch consecutive literals into runs.
        let mut run_start = 0usize; // position in input of the pending run
        let mut pos = 0usize;
        for t in &tokens {
            match *t {
                Token::Literal(_) => pos += 1,
                // A copy carries a 16-bit offset and the window is 64 KiB:
                // a match exactly one window back goes out as literals.
                Token::Match { len, dist } if dist > u32::from(u16::MAX) => pos += len as usize,
                Token::Match { len, dist } => {
                    if pos > run_start {
                        emit_literal_run(&mut out, &input[run_start..pos]);
                    }
                    debug_assert!(len >= MIN_MATCH as u32 && len <= MIN_MATCH as u32 + 63);
                    out.push(TAG_COPY | (((len - MIN_MATCH as u32) as u8) << 2));
                    out.extend_from_slice(&(dist as u16).to_le_bytes());
                    pos += len as usize;
                    run_start = pos;
                }
            }
        }
        if pos > run_start {
            emit_literal_run(&mut out, &input[run_start..pos]);
        }
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

        let mut out = Vec::with_capacity(crate::bounded_capacity(declared_len) + lz77::COPY_SLACK);
        while out.len() < declared_len {
            let tag = *input.get(pos).ok_or(CodecError::Truncated)?;
            pos += 1;
            match tag & 0b11 {
                TAG_LITERAL => {
                    let code = usize::from(tag >> 2);
                    let n = match code {
                        0..=59 => code + 1,
                        60 => {
                            let b = *input.get(pos).ok_or(CodecError::Truncated)?;
                            pos += 1;
                            usize::from(b) + 1
                        }
                        61 => {
                            if pos + 2 > input.len() {
                                return Err(CodecError::Truncated);
                            }
                            let v = u16::from_le_bytes(input[pos..pos + 2].try_into().unwrap());
                            pos += 2;
                            usize::from(v) + 1
                        }
                        _ => return Err(CodecError::Corrupt("reserved literal tag")),
                    };
                    if pos + n > input.len() {
                        return Err(CodecError::Truncated);
                    }
                    out.extend_from_slice(&input[pos..pos + n]);
                    pos += n;
                }
                TAG_COPY => {
                    let len = usize::from(tag >> 2) + MIN_MATCH;
                    if pos + 2 > input.len() {
                        return Err(CodecError::Truncated);
                    }
                    let dist =
                        usize::from(u16::from_le_bytes(input[pos..pos + 2].try_into().unwrap()));
                    pos += 2;
                    if dist == 0 || dist > out.len() {
                        return Err(CodecError::Corrupt("copy distance exceeds history"));
                    }
                    lz77::copy_match(&mut out, dist, len);
                }
                _ => return Err(CodecError::Corrupt("unknown tag type")),
            }
            if out.len() > declared_len {
                return Err(CodecError::Corrupt("output exceeds declared length"));
            }
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
        let codec = SnappyLite::default();
        let packed = codec.compress(data);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
        packed
    }

    #[test]
    fn empty_and_small() {
        round_trip(b"");
        round_trip(b"q");
        round_trip(b"snappy");
    }

    #[test]
    fn long_literal_runs() {
        // Incompressible: exercises 1-byte and 2-byte literal extensions.
        let mut state = 5u64;
        for n in [1usize, 59, 60, 61, 255, 256, 257, 70_000] {
            let data: Vec<u8> = (0..n)
                .map(|_| {
                    state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
                    (state >> 48) as u8
                })
                .collect();
            round_trip(&data);
        }
    }

    #[test]
    fn repetitive_data_compresses_but_less_than_gzip() {
        let row = b"ts=201601221530,cell=1234,up=500,down=32000\n";
        let data: Vec<u8> = row.iter().copied().cycle().take(150_000).collect();
        let snappy = round_trip(&data);
        let gzip = GzipLite::default().compress(&data);
        assert!(
            snappy.len() < data.len() / 2,
            "must compress repetitive data"
        );
        assert!(
            gzip.len() < snappy.len(),
            "entropy coding should beat tag bytes: gzip {} vs snappy {}",
            gzip.len(),
            snappy.len()
        );
    }

    /// The window is 64 KiB, so the match finder offers a copy exactly
    /// 65 536 bytes back, one more than a copy's offset holds.
    #[test]
    fn a_match_one_whole_window_back() {
        let mut state = 9u64;
        let mut noise = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
                    (state >> 48) as u8
                })
                .collect()
        };
        let block = noise(100);
        let data = [&block[..], &noise((1 << 16) - 100), &block].concat();
        let tokens = lz77::parse(&data, Lz77Config::snappy_class());
        let whole_window = |t: &Token| matches!(t, Token::Match { dist, .. } if *dist == 1 << 16);
        assert!(tokens.iter().any(whole_window));
        round_trip(&data);
    }

    #[test]
    fn overlapping_copies() {
        round_trip(&vec![b'z'; 4096]);
    }

    #[test]
    fn rejects_corruption() {
        let codec = SnappyLite::default();
        let data = b"hello hello hello hello hello".repeat(50);
        let mut packed = codec.compress(&data);
        let mid = packed.len() / 2;
        packed[mid] = packed[mid].wrapping_add(1);
        assert!(codec.decompress(&packed).is_err());
        assert_eq!(codec.decompress(b"BAD!"), Err(CodecError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let codec = SnappyLite::default();
        let data = b"some data to truncate ".repeat(30);
        let packed = codec.compress(&data);
        assert!(codec.decompress(&packed[..packed.len() - 2]).is_err());
    }
}
