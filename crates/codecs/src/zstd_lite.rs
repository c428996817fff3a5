//! `zstd-lite`: a Zstd-class codec — LZ77 over a 128 KiB window with the
//! token stream split into literal / literal-length / match-length /
//! distance streams, each entropy-coded with tANS ([`crate::fse`]), plus
//! optional trained dictionaries ([`crate::dict`]).
//!
//! Mirrors the paper's ZSTD entry: "new generation entropy coders ... of the
//! Asymmetric Numeral Systems family" with "domain-specific training
//! dictionaries" (§IV-B).

use crate::bitio::{BitReader, BitWriter};
use crate::crc32::crc32;
use crate::dict::Dictionary;
use crate::fse::{normalize, read_norm, write_norm, FseDecoder, FseEncoder};
use crate::lz77::{self, Lz77Config, Token, MIN_MATCH};
use crate::slots::{base_of, slot_of};
use crate::{Codec, CodecError};
use obs::bytes::varint;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"SPZS";
const FLAG_DICT: u8 = 0b0000_0001;
const LIT_TABLE_LOG: u32 = 11;
const SLOT_TABLE_LOG: u32 = 8;
const SLOT_ALPHABET: usize = 64;

/// Zstd-class codec, optionally armed with a trained dictionary.
#[derive(Debug, Clone)]
pub struct ZstdLite {
    config: Lz77Config,
    dict: Option<Arc<Dictionary>>,
}

impl Default for ZstdLite {
    fn default() -> Self {
        Self {
            config: Lz77Config::zstd_class(),
            dict: None,
        }
    }
}

impl ZstdLite {
    pub fn with_config(config: Lz77Config) -> Self {
        // Distance slots cover values below 2^31 within the 64-symbol
        // alphabet; 26 bits (64 MiB window) keeps extra-bit counts sane.
        assert!(
            config.window_log <= 26,
            "window too large for distance slots"
        );
        Self { config, dict: None }
    }

    /// Attach a trained dictionary. Compressed output records the
    /// dictionary id; decompression verifies it.
    pub fn with_dictionary(mut self, dict: Arc<Dictionary>) -> Self {
        // A dictionary longer than the window would produce unreachable
        // distances; clamp by construction.
        assert!(dict.len() <= self.config.window_size());
        self.dict = Some(dict);
        self
    }

    pub fn dictionary(&self) -> Option<&Arc<Dictionary>> {
        self.dict.as_ref()
    }
}

/// A decomposed token stream: zstd-style sequences.
struct Sequences {
    literals: Vec<u8>,
    /// (literal run length, match length, distance) triples.
    seqs: Vec<(u32, u32, u32)>,
    /// Literals after the final match.
    trailing: u32,
}

fn tokens_to_sequences(tokens: &[Token]) -> Sequences {
    let mut literals = Vec::new();
    let mut seqs = Vec::new();
    let mut run = 0u32;
    for t in tokens {
        match *t {
            Token::Literal(b) => {
                literals.push(b);
                run += 1;
            }
            Token::Match { len, dist } => {
                seqs.push((run, len, dist));
                run = 0;
            }
        }
    }
    Sequences {
        literals,
        seqs,
        trailing: run,
    }
}

/// Stream encoding modes.
const MODE_EMPTY: u8 = 0;
const MODE_RLE: u8 = 1;
const MODE_FSE: u8 = 2;

fn write_stream(out: &mut Vec<u8>, symbols: &[u16], alphabet: usize, table_log: u32) {
    if symbols.is_empty() {
        out.push(MODE_EMPTY);
        return;
    }
    let mut counts = vec![0u64; alphabet];
    for &s in symbols {
        counts[usize::from(s)] += 1;
    }
    let distinct = counts.iter().filter(|&&c| c > 0).count();
    if distinct == 1 {
        out.push(MODE_RLE);
        varint::write_u64(out, symbols[0].into());
        varint::write_len(out, "zstd rle symbols", symbols.len());
        return;
    }
    let norm = normalize(&counts, table_log).expect("nonempty stream");
    let enc = FseEncoder::new(&norm, table_log);
    let (bits, state) = enc.encode_all(symbols);
    out.push(MODE_FSE);
    write_norm(out, &norm);
    varint::write_len(out, "zstd fse symbols", symbols.len());
    varint::write_u64(out, state.into());
    varint::write_len(out, "zstd fse bits", bits.len());
    out.extend_from_slice(&bits);
}

fn read_stream(
    input: &[u8],
    pos: &mut usize,
    alphabet: usize,
    table_log: u32,
) -> Result<Vec<u16>, CodecError> {
    let mode = *input.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    match mode {
        MODE_EMPTY => Ok(Vec::new()),
        MODE_RLE => {
            let sym = varint::read_u32(input, pos)?;
            if sym as usize >= alphabet {
                return Err(CodecError::Corrupt("rle symbol out of range"));
            }
            let count = varint::read_u32(input, pos)? as usize;
            if count > 1 << 28 {
                return Err(CodecError::Corrupt("rle count implausible"));
            }
            Ok(vec![sym as u16; count])
        }
        MODE_FSE => {
            let norm = read_norm(input, pos)?;
            if norm.len() != alphabet {
                return Err(CodecError::Corrupt("stream alphabet mismatch"));
            }
            let count = varint::read_u32(input, pos)? as usize;
            if count > 1 << 28 {
                return Err(CodecError::Corrupt("stream count implausible"));
            }
            let state = varint::read_u32(input, pos)?;
            let bits_len = varint::read_u32(input, pos)? as usize;
            if *pos + bits_len > input.len() {
                return Err(CodecError::Truncated);
            }
            let dec = FseDecoder::new(&norm, table_log)?;
            let symbols = dec.decode_all(&input[*pos..*pos + bits_len], state, count)?;
            *pos += bits_len;
            Ok(symbols)
        }
        _ => Err(CodecError::Corrupt("unknown stream mode")),
    }
}

impl Codec for ZstdLite {
    fn name(&self) -> &'static str {
        "zstd-lite"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let dict_bytes = self
            .dict
            .as_deref()
            .map(Dictionary::as_bytes)
            .unwrap_or(&[]);
        let tokens = if dict_bytes.is_empty() {
            lz77::parse(input, self.config)
        } else {
            lz77::parse_with_dict(dict_bytes, input, self.config)
        };
        let s = tokens_to_sequences(&tokens);

        let mut out = Vec::with_capacity(input.len() / 4 + 64);
        out.extend_from_slice(MAGIC);
        out.push(if dict_bytes.is_empty() { 0 } else { FLAG_DICT });
        varint::write_u64(&mut out, input.len() as u64);
        out.extend_from_slice(&crc32(input).to_le_bytes());
        if !dict_bytes.is_empty() {
            // Only flagged streams carry the id (an attached-but-empty
            // dictionary behaves exactly like no dictionary).
            let dict = self.dict.as_ref().expect("non-empty dict bytes");
            out.extend_from_slice(&dict.id().to_le_bytes());
        }

        // Literal bytes: one FSE stream over the byte alphabet.
        let lit_syms: Vec<u16> = s.literals.iter().map(|&b| u16::from(b)).collect();
        write_stream(&mut out, &lit_syms, 256, LIT_TABLE_LOG);

        // Sequence slots: three streams plus a shared raw extra-bit stream.
        let mut ll = Vec::with_capacity(s.seqs.len());
        let mut ml = Vec::with_capacity(s.seqs.len());
        let mut dd = Vec::with_capacity(s.seqs.len());
        let mut extras = BitWriter::new();
        for &(lit_len, match_len, dist) in &s.seqs {
            let (ls, leb, lev) = slot_of(lit_len);
            let (ms, meb, mev) = slot_of(match_len - MIN_MATCH as u32);
            let (ds, deb, dev) = slot_of(dist - 1);
            ll.push(ls as u16);
            ml.push(ms as u16);
            dd.push(ds as u16);
            extras.write_bits(lev, leb);
            extras.write_bits(mev, meb);
            extras.write_bits(dev, deb);
        }
        write_stream(&mut out, &ll, SLOT_ALPHABET, SLOT_TABLE_LOG);
        write_stream(&mut out, &ml, SLOT_ALPHABET, SLOT_TABLE_LOG);
        write_stream(&mut out, &dd, SLOT_ALPHABET, SLOT_TABLE_LOG);
        varint::write_u64(&mut out, s.trailing.into());
        let extra_bytes = extras.finish();
        varint::write_len(&mut out, "zstd extra bits", extra_bytes.len());
        out.extend_from_slice(&extra_bytes);
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        if input.len() < 5 || &input[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let flags = input[4];
        let mut pos = 5;
        let declared_len = varint::read_u64(input, &mut pos)? as usize;
        if pos + 4 > input.len() {
            return Err(CodecError::Truncated);
        }
        let stored_crc = u32::from_le_bytes(input[pos..pos + 4].try_into().unwrap());
        pos += 4;

        let dict_bytes: &[u8] = if flags & FLAG_DICT != 0 {
            if pos + 4 > input.len() {
                return Err(CodecError::Truncated);
            }
            let dict_id = u32::from_le_bytes(input[pos..pos + 4].try_into().unwrap());
            pos += 4;
            let dict = self
                .dict
                .as_deref()
                .ok_or(CodecError::Corrupt("stream needs a dictionary"))?;
            if dict.id() != dict_id {
                return Err(CodecError::Corrupt("dictionary id mismatch"));
            }
            dict.as_bytes()
        } else {
            &[]
        };

        let lit_syms = read_stream(input, &mut pos, 256, LIT_TABLE_LOG)?;
        let ll = read_stream(input, &mut pos, SLOT_ALPHABET, SLOT_TABLE_LOG)?;
        let ml = read_stream(input, &mut pos, SLOT_ALPHABET, SLOT_TABLE_LOG)?;
        let dd = read_stream(input, &mut pos, SLOT_ALPHABET, SLOT_TABLE_LOG)?;
        if ll.len() != ml.len() || ll.len() != dd.len() {
            return Err(CodecError::Corrupt("sequence stream length mismatch"));
        }
        let trailing = varint::read_u32(input, &mut pos)? as usize;
        let extras_len = varint::read_u32(input, &mut pos)? as usize;
        if pos + extras_len > input.len() {
            return Err(CodecError::Truncated);
        }
        let mut extras = BitReader::new(&input[pos..pos + extras_len]);

        let mut buf = Vec::with_capacity(
            crate::bounded_capacity(dict_bytes.len() + declared_len) + lz77::COPY_SLACK,
        );
        buf.extend_from_slice(dict_bytes);
        let mut lit_pos = 0usize;
        let take_literals =
            |buf: &mut Vec<u8>, lit_pos: &mut usize, n: usize| -> Result<(), CodecError> {
                if *lit_pos + n > lit_syms.len() {
                    return Err(CodecError::Corrupt("literal stream exhausted"));
                }
                buf.extend(lit_syms[*lit_pos..*lit_pos + n].iter().map(|&s| s as u8));
                *lit_pos += n;
                Ok(())
            };

        for i in 0..ll.len() {
            let (lbase, leb) = base_of(u32::from(ll[i]));
            let (mbase, meb) = base_of(u32::from(ml[i]));
            let (dbase, deb) = base_of(u32::from(dd[i]));
            let lit_len = (lbase + extras.read_bits(leb)) as usize;
            let match_len = (mbase + extras.read_bits(meb)) as usize + MIN_MATCH;
            let dist = (dbase + extras.read_bits(deb)) as usize + 1;
            take_literals(&mut buf, &mut lit_pos, lit_len)?;
            if dist > buf.len() {
                return Err(CodecError::Corrupt("match distance exceeds history"));
            }
            if buf.len() + match_len > dict_bytes.len() + declared_len {
                return Err(CodecError::Corrupt("output exceeds declared length"));
            }
            lz77::copy_match(&mut buf, dist, match_len);
        }
        take_literals(&mut buf, &mut lit_pos, trailing)?;
        if lit_pos != lit_syms.len() {
            return Err(CodecError::Corrupt("unconsumed literals"));
        }

        let out = buf.split_off(dict_bytes.len());
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
    use crate::SnappyLite;

    fn round_trip(data: &[u8]) -> Vec<u8> {
        let codec = ZstdLite::default();
        let packed = codec.compress(data);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
        packed
    }

    #[test]
    fn empty_and_small() {
        round_trip(b"");
        round_trip(b"z");
        round_trip(b"zstd-lite");
    }

    #[test]
    fn repetitive_data_beats_snappy() {
        let row = b"nms,cell=0042,drops=0,attempts=25,tput=11.5,rssi=-87\n";
        let data: Vec<u8> = row.iter().copied().cycle().take(200_000).collect();
        let zstd = round_trip(&data);
        let snappy = SnappyLite::default().compress(&data);
        assert!(
            zstd.len() < snappy.len() / 2,
            "entropy coding should roughly double the ratio: zstd {} vs snappy {}",
            zstd.len(),
            snappy.len()
        );
    }

    #[test]
    fn incompressible_data_round_trips() {
        let mut state = 0xFEED_FACEu64;
        let data: Vec<u8> = (0..80_000)
            .map(|_| {
                state = state.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xB5);
                (state >> 45) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn pure_literal_input() {
        // All-distinct short input: no matches, exercises trailing literals.
        let data: Vec<u8> = (0..=255u8).collect();
        round_trip(&data);
    }

    #[test]
    fn all_same_byte() {
        round_trip(&vec![b'q'; 100_000]);
    }

    #[test]
    fn dictionary_improves_small_snapshot_compression() {
        // Small payloads with shared vocabulary: the dictionary lets the
        // very first bytes match, which a cold window cannot.
        let make_doc = |seed: u32| -> Vec<u8> {
            let mut s = Vec::new();
            for j in 0..20u32 {
                s.extend_from_slice(
                    format!(
                        "callrecord,8210000{:03},LTE,result=success,duration={}\n",
                        (seed + j) % 50,
                        j * 7
                    )
                    .as_bytes(),
                );
            }
            s
        };
        let corpus: Vec<Vec<u8>> = (0..16).map(make_doc).collect();
        let refs: Vec<&[u8]> = corpus.iter().map(|v| v.as_slice()).collect();
        let dict = Arc::new(Dictionary::train(&refs, 4096));

        let plain = ZstdLite::default();
        let trained = ZstdLite::default().with_dictionary(dict);

        let doc = make_doc(99);
        let packed_plain = plain.compress(&doc);
        let packed_trained = trained.compress(&doc);
        assert_eq!(trained.decompress(&packed_trained).unwrap(), doc);
        assert!(
            packed_trained.len() < packed_plain.len(),
            "trained {} vs plain {}",
            packed_trained.len(),
            packed_plain.len()
        );
    }

    #[test]
    fn dictionary_id_is_verified() {
        let d1 = Arc::new(Dictionary::from_bytes(b"shared vocabulary one".to_vec()));
        let d2 = Arc::new(Dictionary::from_bytes(b"shared vocabulary two".to_vec()));
        let enc = ZstdLite::default().with_dictionary(d1);
        let dec_wrong = ZstdLite::default().with_dictionary(d2);
        let dec_none = ZstdLite::default();

        let data = b"shared vocabulary one plus payload".repeat(5);
        let packed = enc.compress(&data);
        assert_eq!(enc.decompress(&packed).unwrap(), data);
        assert!(dec_wrong.decompress(&packed).is_err());
        assert!(dec_none.decompress(&packed).is_err());
    }

    #[test]
    fn rejects_corruption_and_truncation() {
        let codec = ZstdLite::default();
        let data = b"corrupt and truncate ".repeat(200);
        let mut packed = codec.compress(&data);
        assert!(codec.decompress(&packed[..packed.len() / 3]).is_err());
        let mid = packed.len() * 2 / 3;
        packed[mid] ^= 0x55;
        assert!(codec.decompress(&packed).is_err());
        assert_eq!(codec.decompress(b"JUNK?"), Err(CodecError::BadMagic));
    }
}
