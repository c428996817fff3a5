//! `gzip-lite`: a DEFLATE-class codec — LZ77 over a 32 KiB window with
//! per-block canonical Huffman coding of literals, length slots and distance
//! slots — wrapped in a CRC-checked container.
//!
//! This is the codec SPATE's storage layer uses by default, mirroring the
//! paper's choice of GZIP (§IV-C: "we chose the GZIP library, which was
//! readily available").

use crate::bitio::{BitReader, BitWriter};
use crate::crc32::crc32;
use crate::huffman::{
    read_lengths, write_lengths, Entry, HuffmanDecoder, HuffmanEncoder, INVALID_CODE,
    MAX_DECODE_LEN,
};
use crate::lz77::{self, Lz77Config, Token, MIN_MATCH};
use crate::slots::{base_of, slot_of};
use crate::{Codec, CodecError};
use obs::bytes::varint;

const MAGIC: &[u8; 4] = b"SPZ1";
/// Literals 0–255 plus length slots starting at 256.
const LEN_SLOT_BASE: usize = 256;
const LITLEN_ALPHABET: usize = 256 + 16;
const DIST_ALPHABET: usize = 30;
const MAX_CODE_LEN: u8 = 13;
/// Tokens per block; each block carries its own Huffman tables.
const BLOCK_TOKENS: usize = 1 << 16;

/// DEFLATE-class codec. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct GzipLite {
    config: Lz77Config,
}

impl Default for GzipLite {
    fn default() -> Self {
        Self {
            config: Lz77Config::deflate_class(),
        }
    }
}

impl GzipLite {
    /// Override the match-finder configuration (window must stay ≤ 32 KiB
    /// so distances fit the 30-slot alphabet).
    pub fn with_config(config: Lz77Config) -> Self {
        assert!(config.window_log <= 15);
        assert!(config.max_match <= 258 + MIN_MATCH as u32);
        Self { config }
    }
}

fn encode_block(out: &mut Vec<u8>, tokens: &[Token]) {
    // Gather per-block symbol statistics.
    let mut litlen_freq = vec![0u64; LITLEN_ALPHABET];
    let mut dist_freq = vec![0u64; DIST_ALPHABET];
    for t in tokens {
        match *t {
            Token::Literal(b) => litlen_freq[usize::from(b)] += 1,
            Token::Match { len, dist } => {
                let (ls, _, _) = slot_of(len - MIN_MATCH as u32);
                litlen_freq[LEN_SLOT_BASE + ls as usize] += 1;
                let (ds, _, _) = slot_of(dist - 1);
                dist_freq[ds as usize] += 1;
            }
        }
    }
    let litlen_enc = HuffmanEncoder::from_frequencies(&litlen_freq, MAX_CODE_LEN);
    let has_matches = dist_freq.iter().any(|&f| f > 0);
    let dist_enc = HuffmanEncoder::from_frequencies(&dist_freq, MAX_CODE_LEN);

    write_lengths(out, litlen_enc.lengths());
    write_lengths(out, dist_enc.lengths());
    varint::write_len(out, "gzip block tokens", tokens.len());

    let mut w = BitWriter::with_capacity(tokens.len());
    for t in tokens {
        match *t {
            Token::Literal(b) => litlen_enc.encode(&mut w, usize::from(b)),
            Token::Match { len, dist } => {
                let (ls, leb, lev) = slot_of(len - MIN_MATCH as u32);
                litlen_enc.encode(&mut w, LEN_SLOT_BASE + ls as usize);
                if leb > 0 {
                    w.write_bits(lev, leb);
                }
                debug_assert!(has_matches);
                let (ds, deb, dev) = slot_of(dist - 1);
                dist_enc.encode(&mut w, ds as usize);
                if deb > 0 {
                    w.write_bits(dev, deb);
                }
            }
        }
    }
    let bits = w.finish();
    varint::write_len(out, "gzip block bits", bits.len());
    out.extend_from_slice(&bits);
}

/// Index width of the decoders' primary tables: 2 KiB of entries that
/// stay in L1 and cost 512 writes per block to fill.
const PRIMARY_BITS: u32 = 9;

/// Bits one token can take from the stream: a length code and the 6 extra
/// bits of length slot 15, a distance code and the 13 extra bits of
/// distance slot 29.
const MAX_TOKEN_BITS: u32 = MAX_DECODE_LEN + 6 + MAX_DECODE_LEN + 13;
/// Bits the fast loop's refill guarantees.
const REFILL_BITS: u32 = 56;
const _: () = assert!(MAX_TOKEN_BITS <= REFILL_BITS);

/// Literal entries carry the byte; length-slot entries carry the slot's
/// base with `MIN_MATCH` already added.
fn litlen_entry(sym: usize) -> Entry {
    if sym < LEN_SLOT_BASE {
        Entry::literal(sym as u8)
    } else {
        let (base, extra_bits) = base_of((sym - LEN_SLOT_BASE) as u32);
        Entry::base(base as u16 + MIN_MATCH as u16, extra_bits)
    }
}

/// Distance-slot entries carry the slot's base with the `+ 1` added.
fn dist_entry(sym: usize) -> Entry {
    let (base, extra_bits) = base_of(sym as u32);
    Entry::base(base as u16 + 1, extra_bits)
}

/// Append one literal, bounded by the declared length.
#[inline(always)]
fn emit_literal(out: &mut Vec<u8>, byte: u8, declared_len: usize) -> Result<(), CodecError> {
    if out.len() >= declared_len {
        return Err(CodecError::Corrupt("output exceeds declared length"));
    }
    out.push(byte);
    Ok(())
}

/// Append one match, bounded by the history and the declared length.
#[inline(always)]
fn emit_match(
    out: &mut Vec<u8>,
    dist: usize,
    len: usize,
    declared_len: usize,
) -> Result<(), CodecError> {
    if dist > out.len() {
        return Err(CodecError::Corrupt("match distance exceeds history"));
    }
    if out.len() + len > declared_len {
        return Err(CodecError::Corrupt("output exceeds declared length"));
    }
    lz77::copy_match(out, dist, len);
    Ok(())
}

const NO_DIST_TABLE: CodecError = CodecError::Corrupt("match token without distance table");

fn decode_block(
    input: &[u8],
    pos: &mut usize,
    out: &mut Vec<u8>,
    declared_len: usize,
) -> Result<(), CodecError> {
    let litlen_lengths = read_lengths(input, pos)?;
    if litlen_lengths.len() != LITLEN_ALPHABET {
        return Err(CodecError::Corrupt("bad litlen alphabet size"));
    }
    let dist_lengths = read_lengths(input, pos)?;
    if dist_lengths.len() != DIST_ALPHABET {
        return Err(CodecError::Corrupt("bad distance alphabet size"));
    }
    let litlen_dec = HuffmanDecoder::build(&litlen_lengths, PRIMARY_BITS, litlen_entry)?;
    // A block of pure literals has an all-zero distance table; any other
    // table the decoder cannot build is corrupt.
    let dist_dec = if dist_lengths.iter().all(|&l| l == 0) {
        None
    } else {
        Some(HuffmanDecoder::build(
            &dist_lengths,
            PRIMARY_BITS,
            dist_entry,
        )?)
    };

    let n_tokens = varint::read_u32(input, pos)? as usize;
    let bit_bytes = varint::read_u32(input, pos)? as usize;
    if *pos + bit_bytes > input.len() {
        return Err(CodecError::Truncated);
    }
    let bits = &input[*pos..*pos + bit_bytes];
    *pos += bit_bytes;

    // Fast loop, while a whole 8-byte load is left. The refill ORs the
    // next word in above the `nbits` buffered bits and counts only the
    // whole bytes of it that fit; what it loaded above `nbits` are true
    // stream bits that the next refill ORs in again, unchanged. It leaves
    // `nbits >= REFILL_BITS >= MAX_TOKEN_BITS`, so a token never reads
    // past what is loaded and no subtraction below can underflow.
    let (mut acc, mut nbits, mut ip) = (0u64, 0u32, 0usize);
    let mut tokens_left = n_tokens;
    while tokens_left > 0 {
        let Some(word) = bits.get(ip..ip + 8) else {
            break;
        };
        acc |= u64::from_le_bytes(word.try_into().expect("an 8-byte slice")) << nbits;
        ip += ((63 - nbits) >> 3) as usize;
        nbits |= REFILL_BITS;

        let entry = litlen_dec.lookup(acc);
        if entry.code_len() == 0 {
            return Err(INVALID_CODE);
        }
        acc >>= entry.code_len();
        nbits -= entry.code_len();
        if entry.is_literal() {
            emit_literal(out, entry.payload() as u8, declared_len)?;
        } else {
            let len = entry.payload() as usize + (acc & ((1 << entry.extra_bits()) - 1)) as usize;
            acc >>= entry.extra_bits();
            nbits -= entry.extra_bits();
            let entry = dist_dec.as_ref().ok_or(NO_DIST_TABLE)?.lookup(acc);
            if entry.code_len() == 0 {
                return Err(INVALID_CODE);
            }
            acc >>= entry.code_len();
            nbits -= entry.code_len();
            let dist = entry.payload() as usize + (acc & ((1 << entry.extra_bits()) - 1)) as usize;
            acc >>= entry.extra_bits();
            nbits -= entry.extra_bits();
            emit_match(out, dist, len, declared_len)?;
        }
        tokens_left -= 1;
    }

    // The last < 8 bytes go through the checked reader.
    let mut r = BitReader::resume(bits, ip, acc, nbits);
    for _ in 0..tokens_left {
        // Past the end of the bit buffer the reader yields zero bits, which
        // a zero-valued Huffman code would happily decode forever; a token
        // count larger than the bits can support is a truncated stream.
        if r.is_overrun() {
            return Err(CodecError::Truncated);
        }
        let entry = litlen_dec.decode(&mut r)?;
        if entry.is_literal() {
            emit_literal(out, entry.payload() as u8, declared_len)?;
        } else {
            let len = (entry.payload() + r.read_bits(entry.extra_bits())) as usize;
            let entry = dist_dec.as_ref().ok_or(NO_DIST_TABLE)?.decode(&mut r)?;
            let dist = (entry.payload() + r.read_bits(entry.extra_bits())) as usize;
            emit_match(out, dist, len, declared_len)?;
        }
    }
    Ok(())
}

/// Append one member holding `input`, parsed as `tokens`: the header
/// (magic, length, CRC-32) and its blocks.
fn encode_member(out: &mut Vec<u8>, input: &[u8], tokens: &[Token]) {
    out.extend_from_slice(MAGIC);
    varint::write_u64(out, input.len() as u64);
    out.extend_from_slice(&crc32(input).to_le_bytes());
    let blocks: Vec<&[Token]> = tokens.chunks(BLOCK_TOKENS).collect();
    varint::write_len(out, "gzip blocks", blocks.len());
    for block in blocks {
        encode_block(out, block);
    }
}

/// Decode the member at `*pos` and append its output to `out`, verified
/// against its own length and CRC-32; `*pos` moves past it.
fn decode_member(input: &[u8], pos: &mut usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
    let member = &input[*pos..];
    if member.len() < 4 || &member[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    *pos += 4;
    let declared_len = varint::read_u64(input, pos)? as usize;
    if *pos + 4 > input.len() {
        return Err(CodecError::Truncated);
    }
    let stored_crc = u32::from_le_bytes(input[*pos..*pos + 4].try_into().unwrap());
    *pos += 4;
    let n_blocks = varint::read_u32(input, pos)? as usize;
    let start = out.len();
    out.reserve(crate::bounded_capacity(declared_len) + lz77::COPY_SLACK);
    let end = start.saturating_add(declared_len);
    for _ in 0..n_blocks {
        decode_block(input, pos, out, end)?;
    }
    if out.len() != end {
        return Err(CodecError::Corrupt("decoded length mismatch"));
    }
    let actual = crc32(&out[start..]);
    if actual != stored_crc {
        return Err(CodecError::ChecksumMismatch {
            expected: stored_crc,
            actual,
        });
    }
    Ok(())
}

/// The length of the member `input` opens with, read from its header and
/// its blocks' headers alone; `None` where they do not hold together.
fn member_len(input: &[u8]) -> Option<usize> {
    let walk = || -> Result<usize, CodecError> {
        if input.get(..4) != Some(MAGIC.as_slice()) {
            return Err(CodecError::BadMagic);
        }
        let mut pos = 4;
        varint::read_u64(input, &mut pos)?;
        pos += 4;
        let n_blocks = varint::read_u32(input, &mut pos)?;
        for _ in 0..n_blocks {
            read_lengths(input, &mut pos)?;
            read_lengths(input, &mut pos)?;
            varint::read_u32(input, &mut pos)?;
            pos += varint::read_u32(input, &mut pos)? as usize;
            if pos > input.len() {
                return Err(CodecError::Truncated);
            }
        }
        Ok(pos)
    };
    walk().ok()
}

impl Codec for GzipLite {
    fn name(&self) -> &'static str {
        "gzip-lite"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let tokens = lz77::parse(input, self.config);
        let mut out = Vec::with_capacity(input.len() / 4 + 64);
        encode_member(&mut out, input, &tokens);
        out
    }

    /// One member a part, concatenated as RFC 1952 §2.2 concatenates gzip
    /// members. Each part is parsed whole and encoded on its own, two
    /// threads between them ([`lz77::parse_each`]). One part is
    /// [`Codec::compress`] of it.
    fn compress_members(&self, parts: &[&[u8]]) -> Vec<u8> {
        if let [one] = parts {
            return self.compress(one);
        }
        let members = lz77::parse_each(parts, self.config, |part, tokens| {
            let mut out = Vec::with_capacity(part.len() / 4 + 64);
            encode_member(&mut out, part, &tokens);
            out
        });
        members.concat()
    }

    /// A span that does not walk as a member ends the list with the rest
    /// of `input`, which [`Codec::decompress`] then refuses.
    fn members<'a>(&self, input: &'a [u8]) -> Vec<&'a [u8]> {
        let mut members = Vec::new();
        let mut rest = input;
        while let Some(len) = member_len(rest).filter(|&len| len < rest.len()) {
            let (member, after) = rest.split_at(len);
            members.push(member);
            rest = after;
        }
        members.push(rest);
        members
    }

    /// Every member in turn, their outputs concatenated: bytes after the
    /// last block of a member must open another whole member.
    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        let mut pos = 0;
        loop {
            decode_member(input, &mut pos, &mut out)?;
            if pos == input.len() {
                return Ok(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> Vec<u8> {
        let codec = GzipLite::default();
        let packed = codec.compress(data);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
        packed
    }

    #[test]
    fn empty_input() {
        round_trip(b"");
    }

    #[test]
    fn short_inputs() {
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abcd");
        round_trip(b"hello, telco world");
    }

    #[test]
    fn repetitive_csv_compresses_well() {
        let row = b"8210000017,8210000453,LTE,2016-01-22T15:30:00,42,0,0,0,1500,72000\n";
        let data: Vec<u8> = row.iter().copied().cycle().take(100_000).collect();
        let packed = round_trip(&data);
        let ratio = data.len() as f64 / packed.len() as f64;
        assert!(
            ratio > 20.0,
            "highly repetitive data should compress >20x, got {ratio:.1}"
        );
    }

    #[test]
    fn incompressible_data_grows_only_slightly() {
        let mut state = 0xABCD_EF01u64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        let packed = round_trip(&data);
        assert!(packed.len() < data.len() + data.len() / 8 + 512);
    }

    #[test]
    fn multi_block_input() {
        // Enough tokens to span several 64Ki-token blocks.
        let mut data = Vec::new();
        let mut state = 7u32;
        for i in 0..200_000u32 {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            data.push((state >> 24) as u8);
            if i % 17 == 0 {
                data.extend_from_slice(b"repeat-me-");
            }
        }
        round_trip(&data);
    }

    #[test]
    fn rejects_bad_magic() {
        let codec = GzipLite::default();
        assert_eq!(codec.decompress(b"XXXX1234"), Err(CodecError::BadMagic));
        assert_eq!(codec.decompress(b"SP"), Err(CodecError::BadMagic));
    }

    #[test]
    fn rejects_corrupted_payload() {
        let codec = GzipLite::default();
        let data = b"some moderately long payload with repeats repeats repeats".repeat(50);
        let mut packed = codec.compress(&data);
        // Flip a byte in the middle of the encoded stream.
        let mid = packed.len() / 2;
        packed[mid] ^= 0xFF;
        assert!(codec.decompress(&packed).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let codec = GzipLite::default();
        let data = b"truncate me please, many bytes of content here".repeat(20);
        let packed = codec.compress(&data);
        for cut in [packed.len() - 1, packed.len() / 2, 6] {
            assert!(codec.decompress(&packed[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn crc_mismatch_is_detected() {
        let codec = GzipLite::default();
        let data = b"payload".repeat(100);
        let mut packed = codec.compress(&data);
        // Corrupt the stored CRC (bytes right after magic + varint length).
        let mut pos = 4;
        varint::read_u64(&packed, &mut pos).unwrap();
        packed[pos] ^= 0x01;
        assert!(matches!(
            codec.decompress(&packed),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        round_trip(&data);
    }

    /// A CDR-like and an NMS-like part, long enough together to be
    /// compressed on two threads.
    fn two_parts() -> (Vec<u8>, Vec<u8>) {
        let cdr = b"#SNAPSHOT epoch=7\n#TABLE CDR\n8210000017,LTE,42,0,1500\n".repeat(400);
        let nms = b"#TABLE NMS\n17,2016-01-22T15:30:00,0,3,0\n".repeat(300);
        assert!(cdr.len() + nms.len() >= Lz77Config::deflate_class().split_min);
        (cdr, nms)
    }

    /// Two parts are two members however short they are; one part is
    /// `compress` of it, split parse and all.
    #[test]
    fn members_decompress_to_their_concatenation_and_each_alone() {
        let codec = GzipLite::default();
        let (cdr, nms) = two_parts();
        let packed = codec.compress_members(&[&cdr, &nms]);
        assert_eq!(
            codec.decompress(&packed).unwrap(),
            [cdr.clone(), nms.clone()].concat()
        );
        let members = codec.members(&packed);
        assert_eq!(members.len(), 2);
        assert_eq!(members.concat(), packed);
        assert_eq!(codec.decompress(members[0]).unwrap(), cdr);
        assert_eq!(codec.decompress(members[1]).unwrap(), nms);
        let whole = [cdr, nms].concat();
        assert_eq!(codec.compress_members(&[&whole]), codec.compress(&whole));
        let short = codec.compress_members(&[&whole[..100], &whole[100..200]]);
        assert_eq!(codec.members(&short).len(), 2);
        assert_eq!(codec.decompress(&short).unwrap(), &whole[..200]);
    }

    #[test]
    fn members_of_a_one_member_stream_is_the_stream() {
        let codec = GzipLite::default();
        let packed = codec.compress(&b"one member, one span".repeat(40));
        assert_eq!(codec.members(&packed), [packed.as_slice()]);
        assert_eq!(codec.members(b""), [b"".as_slice()]);
        assert_eq!(codec.members(b"junk"), [b"junk".as_slice()]);
    }

    #[test]
    fn bytes_after_a_member_must_be_whole_members() {
        let codec = GzipLite::default();
        let packed = codec.compress(b"payload payload payload");
        for trailing in [&b"x"[..], b"SPZ1", &packed[..packed.len() - 1]] {
            let stream = [packed.as_slice(), trailing].concat();
            assert!(codec.decompress(&stream).is_err(), "{trailing:?}");
        }
        let twice = [packed.clone(), packed].concat();
        assert_eq!(
            codec.decompress(&twice).unwrap(),
            b"payload payload payload".repeat(2)
        );
    }

    /// Every cut and every bit flip of a two-member stream, read whole
    /// and member by member: refused, or the text — or, cut where a
    /// member ends, the members before the cut, which are a whole stream.
    #[test]
    fn every_cut_and_flip_of_two_members_is_refused_or_reads_back() {
        let codec = GzipLite::default();
        let (cdr, nms) = (
            b"#TABLE CDR\n1,2,3\n4,5,6\n".repeat(3),
            b"#TABLE NMS\n7,8\n".repeat(3),
        );
        let packed = codec.compress_members(&[&cdr, &nms]);
        let text = [cdr.clone(), nms].concat();
        let first = codec.members(&packed)[0].len();
        assert!(first < packed.len());
        obs::bytes::sweep(&packed, |damage, bytes| {
            let read_back = |out: &[u8]| match damage {
                obs::bytes::Damage::Cut(n) if n == first => out == cdr.as_slice(),
                _ => out == text.as_slice(),
            };
            if let Ok(out) = codec.decompress(bytes) {
                assert!(read_back(&out), "{damage:?}");
            }
            let members = codec.members(bytes);
            assert_eq!(members.concat(), bytes, "{damage:?}");
            let each: Result<Vec<Vec<u8>>, _> =
                members.iter().map(|m| codec.decompress(m)).collect();
            if let Ok(each) = each {
                assert!(read_back(&each.concat()), "{damage:?}");
            }
        });
    }
}
