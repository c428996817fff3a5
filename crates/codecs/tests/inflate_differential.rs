//! Differential test of the `gzip-lite` inflate kernel.
//!
//! `src/` decodes with a two-level packed-entry Huffman table, a fast loop
//! with an unchecked-by-construction refill, and chunked match copies. The
//! decoder it replaced — one flat `(symbol, length)` table indexed by
//! `max_len` peeked bits, the checked bit reader for every token, matches
//! pushed one byte at a time — lives on here as the reference. For every
//! input the two must agree: the same bytes, or both an `Err`.
//!
//! Besides what `compress` produces, the streams are built by hand to reach
//! what the encoder never emits: 14- and 15-bit codes (the sub-table path),
//! Kraft-deficient tables, forged token counts and bit-stream lengths, bit
//! streams cut at every byte of their tail (fast loop -> checked tail
//! hand-over), and matches that end exactly at or one past the declared
//! length.

use codecs::bitio::BitWriter;
use codecs::crc32::crc32;
use codecs::huffman::{write_lengths, HuffmanEncoder};
use codecs::lz77::{Token, MIN_MATCH};
use codecs::slots::{base_of, slot_of};
use codecs::{Codec, CodecError, GzipLite};
use obs::bytes::varint;
use proptest::prelude::*;

const LEN_SLOT_BASE: usize = 256;
const LITLEN_ALPHABET: usize = 256 + 16;
const DIST_ALPHABET: usize = 30;

/// The inflate the repo shipped before the fast kernel, kept verbatim in
/// shape: flat table, checked reader, byte-push copies. One deliberate
/// difference from that code: a distance table that is not all-zero and
/// does not build is an error (it used to be treated as absent).
mod reference {
    use super::{DIST_ALPHABET, LEN_SLOT_BASE, LITLEN_ALPHABET};
    use codecs::bitio::BitReader;
    use codecs::crc32::crc32;
    use codecs::huffman::read_lengths;
    use codecs::lz77::MIN_MATCH;
    use codecs::slots::base_of;
    use codecs::CodecError;
    use obs::bytes::varint;

    struct FlatDecoder {
        table: Vec<(u16, u8)>,
        max_len: u8,
    }

    fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        let mut bl_count = vec![0u32; usize::from(max_len) + 1];
        for &l in lengths {
            if l > 0 {
                bl_count[usize::from(l)] += 1;
            }
        }
        let mut next_code = vec![0u32; usize::from(max_len) + 2];
        let mut code = 0u32;
        for bits in 1..=usize::from(max_len) {
            code = (code + bl_count[bits - 1]) << 1;
            next_code[bits] = code;
        }
        lengths
            .iter()
            .map(|&l| {
                if l == 0 {
                    0
                } else {
                    let c = next_code[usize::from(l)];
                    next_code[usize::from(l)] += 1;
                    c
                }
            })
            .collect()
    }

    impl FlatDecoder {
        fn from_lengths(lengths: &[u8]) -> Result<Self, CodecError> {
            let max_len = lengths.iter().copied().max().unwrap_or(0);
            if max_len == 0 {
                return Err(CodecError::Corrupt("huffman table with no codes"));
            }
            if max_len > 15 {
                return Err(CodecError::Corrupt("huffman code length > 15"));
            }
            let kraft: u64 = lengths
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| 1u64 << (max_len - l))
                .sum();
            if kraft > 1u64 << max_len {
                return Err(CodecError::Corrupt("huffman lengths violate Kraft"));
            }
            let codes = canonical_codes(lengths);
            let mut table = vec![(u16::MAX, 0u8); 1usize << max_len];
            for (sym, (&len, code)) in lengths.iter().zip(codes).enumerate() {
                if len == 0 {
                    continue;
                }
                let rev = code.reverse_bits() >> (32 - u32::from(len));
                let mut idx = rev as usize;
                while idx < table.len() {
                    table[idx] = (sym as u16, len);
                    idx += 1usize << len;
                }
            }
            Ok(Self { table, max_len })
        }

        fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, CodecError> {
            let peek = r.peek_bits(u32::from(self.max_len));
            let (sym, len) = self.table[peek as usize];
            if len == 0 {
                return Err(CodecError::Corrupt("invalid huffman code"));
            }
            r.consume(u32::from(len));
            Ok(sym)
        }
    }

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
        let litlen_dec = FlatDecoder::from_lengths(&litlen_lengths)?;
        let dist_dec = if dist_lengths.iter().all(|&l| l == 0) {
            None
        } else {
            Some(FlatDecoder::from_lengths(&dist_lengths)?)
        };

        let n_tokens = varint::read_u32(input, pos)? as usize;
        let bit_bytes = varint::read_u32(input, pos)? as usize;
        if *pos + bit_bytes > input.len() {
            return Err(CodecError::Truncated);
        }
        let mut r = BitReader::new(&input[*pos..*pos + bit_bytes]);
        *pos += bit_bytes;

        for _ in 0..n_tokens {
            if r.is_overrun() {
                return Err(CodecError::Truncated);
            }
            let sym = litlen_dec.decode(&mut r)? as usize;
            if sym < LEN_SLOT_BASE {
                out.push(sym as u8);
            } else {
                let (base, leb) = base_of((sym - LEN_SLOT_BASE) as u32);
                let len = (base + if leb > 0 { r.read_bits(leb) } else { 0 }) as usize + MIN_MATCH;
                let dist_dec = dist_dec
                    .as_ref()
                    .ok_or(CodecError::Corrupt("match token without distance table"))?;
                let ds = u32::from(dist_dec.decode(&mut r)?);
                let (dbase, deb) = base_of(ds);
                let dist = (dbase + if deb > 0 { r.read_bits(deb) } else { 0 }) as usize + 1;
                if dist > out.len() {
                    return Err(CodecError::Corrupt("match distance exceeds history"));
                }
                if out.len() + len > declared_len {
                    return Err(CodecError::Corrupt("output exceeds declared length"));
                }
                let start = out.len() - dist;
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            }
            if out.len() > declared_len {
                return Err(CodecError::Corrupt("output exceeds declared length"));
            }
        }
        Ok(())
    }

    /// Every member of `input` in turn, their outputs concatenated: the
    /// bytes after a member's last block must open another member.
    pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let (mut out, mut pos) = (Vec::new(), 0);
        loop {
            out.extend(member(input, &mut pos)?);
            if pos == input.len() {
                return Ok(out);
            }
        }
    }

    fn member(input: &[u8], pos: &mut usize) -> Result<Vec<u8>, CodecError> {
        if input.len() < *pos + 4 || &input[*pos..*pos + 4] != b"SPZ1" {
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
        let mut out = Vec::with_capacity(declared_len.min(16 << 20));
        for _ in 0..n_blocks {
            decode_block(input, pos, &mut out, declared_len)?;
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

/// New and reference agree on `stream`; returns what they agreed on.
fn assert_agree(stream: &[u8], what: &str) -> Result<Vec<u8>, CodecError> {
    let new = GzipLite::default().decompress(stream);
    let old = reference::decompress(stream);
    match (&new, &old) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: different bytes"),
        (Err(_), Err(_)) => {}
        _ => panic!(
            "{what}: new {:?}, reference {:?}",
            new.as_ref().map(Vec::len),
            old.as_ref().map(Vec::len)
        ),
    }
    new
}

/// One hand-built block. `n_tokens` and `bit_bytes` default to the truth
/// and can be forged.
struct Block {
    litlen_lengths: Vec<u8>,
    dist_lengths: Vec<u8>,
    n_tokens: u32,
    bits: Vec<u8>,
    bit_bytes: u32,
}

impl Block {
    /// Encode `tokens` with the canonical codes of the given lengths.
    fn encode(litlen_lengths: &[u8], dist_lengths: &[u8], tokens: &[Token]) -> Self {
        assert_eq!(litlen_lengths.len(), LITLEN_ALPHABET);
        assert_eq!(dist_lengths.len(), DIST_ALPHABET);
        let litlen = HuffmanEncoder::from_lengths(litlen_lengths);
        let dist_enc = HuffmanEncoder::from_lengths(dist_lengths);
        let mut w = BitWriter::new();
        for t in tokens {
            match *t {
                Token::Literal(b) => {
                    assert!(
                        litlen_lengths[usize::from(b)] > 0,
                        "literal {b} has no code"
                    );
                    litlen.encode(&mut w, usize::from(b));
                }
                Token::Match { len, dist } => {
                    let (ls, leb, lev) = slot_of(len - MIN_MATCH as u32);
                    assert!(litlen_lengths[LEN_SLOT_BASE + ls as usize] > 0);
                    litlen.encode(&mut w, LEN_SLOT_BASE + ls as usize);
                    w.write_bits(lev, leb);
                    let (ds, deb, dev) = slot_of(dist - 1);
                    assert!(dist_lengths[ds as usize] > 0);
                    dist_enc.encode(&mut w, ds as usize);
                    w.write_bits(dev, deb);
                }
            }
        }
        let bits = w.finish();
        Self {
            litlen_lengths: litlen_lengths.to_vec(),
            dist_lengths: dist_lengths.to_vec(),
            n_tokens: tokens.len() as u32,
            bit_bytes: bits.len() as u32,
            bits,
        }
    }
}

/// Wrap blocks in the `SPZ1` container.
fn container(declared_len: usize, crc: u32, blocks: &[Block]) -> Vec<u8> {
    let mut out = b"SPZ1".to_vec();
    varint::write_u64(&mut out, declared_len as u64);
    out.extend_from_slice(&crc.to_le_bytes());
    varint::write_u64(&mut out, blocks.len() as u64);
    for b in blocks {
        write_lengths(&mut out, &b.litlen_lengths);
        write_lengths(&mut out, &b.dist_lengths);
        varint::write_u64(&mut out, b.n_tokens.into());
        varint::write_u64(&mut out, b.bit_bytes.into());
        out.extend_from_slice(&b.bits);
    }
    out
}

/// What `tokens` decode to, by the plainest loop there is.
fn expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                for _ in 0..len {
                    out.push(out[out.len() - dist as usize]);
                }
            }
        }
    }
    out
}

/// A complete code with lengths 1, 2, ..., `max_len - 1`, `max_len`,
/// `max_len` over the given symbols (`max_len + 1` of them), zero elsewhere.
fn staircase(alphabet: usize, symbols: &[usize], max_len: u8) -> Vec<u8> {
    assert_eq!(symbols.len(), usize::from(max_len) + 1);
    let mut lengths = vec![0u8; alphabet];
    for (i, &sym) in symbols.iter().enumerate() {
        lengths[sym] = (i as u8 + 1).min(max_len);
    }
    lengths
}

/// Literals `a`..`n` and length slots 0 and 5 on a staircase up to
/// `max_len` bits: with 15 the two longest codes are a literal and a
/// length slot, both behind a sub-table.
fn long_litlen_lengths(max_len: u8) -> Vec<u8> {
    let mut symbols: Vec<usize> = (0..usize::from(max_len) - 1)
        .map(|i| usize::from(b'a') + i)
        .collect();
    symbols.insert(2, LEN_SLOT_BASE); // a short length code too
    symbols.push(LEN_SLOT_BASE + 5);
    staircase(LITLEN_ALPHABET, &symbols, max_len)
}

fn long_dist_lengths(max_len: u8) -> Vec<u8> {
    let symbols: Vec<usize> = (0..=usize::from(max_len)).collect();
    staircase(DIST_ALPHABET, &symbols, max_len)
}

/// A token stream over the symbols `long_*_lengths(max_len)` code: every
/// literal, then matches whose slots carry the longest codes, repeated.
fn long_code_tokens(max_len: u8, repeats: usize) -> Vec<Token> {
    let n_literals = usize::from(max_len) - 1;
    let mut tokens = Vec::new();
    let mut produced = 0u32;
    for round in 0..repeats {
        for i in 0..n_literals {
            tokens.push(Token::Literal(b'a' + ((i + round) % n_literals) as u8));
            produced += 1;
        }
        // Length slot 0 (len 4) and slot 5 (len 10..=11); distance slots
        // up to `max_len` (slot 14 covers 129..=192, slot 15 193..=256).
        for slot in [0u32, 3, max_len.into()] {
            let dist = base_of(slot).0 + 1;
            for len in [4, 10 + (round as u32 & 1)] {
                if dist <= produced {
                    tokens.push(Token::Match { len, dist });
                    produced += len;
                }
            }
        }
    }
    tokens
}

fn telco_text(rows: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut out = Vec::new();
    for i in 0..rows {
        out.extend_from_slice(
            format!(
                "82100{:05},82100{:05},LTE,2016-01-22T15:{:02}:00,{},0,0,0,{},{}\n",
                next(4000),
                next(4000),
                i % 60,
                next(161),
                next(3) * 1500,
                next(90000)
            )
            .as_bytes(),
        );
    }
    out
}

#[test]
fn compressed_inputs_decode_identically() {
    let codec = GzipLite::default();
    let mut inputs: Vec<Vec<u8>> = vec![
        Vec::new(),
        b"a".to_vec(),
        vec![b'x'; 3000],
        (0..=255u8).cycle().take(5000).collect(),
        telco_text(2000, 7),
    ];
    // Every short length: bit streams from 0 to a few dozen bytes, so the
    // fast loop runs zero, one or several times before the hand-over.
    let text = telco_text(8, 3);
    inputs.extend((0..200).map(|n| text[..n].to_vec()));
    for data in &inputs {
        let packed = codec.compress(data);
        let out = assert_agree(&packed, "compress output").expect("valid stream");
        assert_eq!(&out, data);
    }
}

#[test]
fn fourteen_and_fifteen_bit_codes_decode_identically() {
    for max_len in [9u8, 10, 13, 14, 15] {
        for repeats in [1usize, 3, 40] {
            let tokens = long_code_tokens(max_len, repeats);
            let data = expand(&tokens);
            let block = Block::encode(
                &long_litlen_lengths(max_len),
                &long_dist_lengths(max_len),
                &tokens,
            );
            let stream = container(data.len(), crc32(&data), &[block]);
            let out = assert_agree(&stream, "long codes").expect("valid stream");
            assert_eq!(out, data, "max_len {max_len} repeats {repeats}");

            // Every single-bit flip of the shorter streams: same verdict.
            let flips = if repeats > 3 { 0 } else { stream.len() * 8 };
            for bit in 0..flips {
                let mut forged = stream.clone();
                forged[bit / 8] ^= 1 << (bit % 8);
                let _ = assert_agree(&forged, "long codes, bit flip");
            }
        }
    }
}

/// Bits that select the unassigned pattern of a Kraft-deficient code: the
/// canonical code leaves the all-ones patterns free.
#[test]
fn kraft_deficient_tables_reject_unassigned_patterns() {
    for max_len in [3u8, 9, 10, 14, 15] {
        // Drop the second longest-code symbol: all-ones of `max_len` bits
        // is then nobody's code. For max_len <= 9 that slot is in the
        // primary table, beyond it in a sub-table.
        let mut litlen_lengths = long_litlen_lengths(max_len);
        litlen_lengths[LEN_SLOT_BASE + 5] = 0;
        let mut dist_lengths = long_dist_lengths(max_len);
        dist_lengths[usize::from(max_len)] = 0;

        // Still decodes what it can code.
        let tokens: Vec<Token> = (0..20u8)
            .map(|i| Token::Literal(b'a' + i % (max_len - 1)))
            .chain([Token::Match { len: 4, dist: 3 }])
            .collect();
        let data = expand(&tokens);
        let good = Block::encode(&litlen_lengths, &dist_lengths, &tokens);
        let stream = container(data.len(), crc32(&data), &[good]);
        assert_eq!(assert_agree(&stream, "deficient, valid").unwrap(), data);

        // Unassigned litlen pattern after 0, 1 and 12 valid tokens (in
        // the tail loop and in the fast loop), then an unassigned
        // distance pattern.
        let litlen = HuffmanEncoder::from_lengths(&litlen_lengths);
        for valid in [0usize, 1, 12, 300] {
            let mut w = BitWriter::new();
            for i in 0..valid {
                litlen.encode(&mut w, usize::from(b'a') + i % 2);
            }
            w.write_bits((1 << max_len) - 1, u32::from(max_len));
            w.write_bits(0, 32);
            w.write_bits(0, 32);
            let bits = w.finish();
            let block = Block {
                litlen_lengths: litlen_lengths.clone(),
                dist_lengths: dist_lengths.clone(),
                n_tokens: valid as u32 + 1,
                bit_bytes: bits.len() as u32,
                bits,
            };
            let stream = container(valid + 1, 0, &[block]);
            assert!(
                assert_agree(&stream, "unassigned litlen pattern").is_err(),
                "max_len {max_len} after {valid} tokens"
            );
        }
        for valid in [4usize, 300] {
            let mut w = BitWriter::new();
            for i in 0..valid {
                litlen.encode(&mut w, usize::from(b'a') + i % 2);
            }
            litlen.encode(&mut w, LEN_SLOT_BASE);
            w.write_bits((1 << max_len) - 1, u32::from(max_len));
            w.write_bits(0, 32);
            w.write_bits(0, 32);
            let bits = w.finish();
            let block = Block {
                litlen_lengths: litlen_lengths.clone(),
                dist_lengths: dist_lengths.clone(),
                n_tokens: valid as u32 + 1,
                bit_bytes: bits.len() as u32,
                bits,
            };
            let stream = container(valid + 4, 0, &[block]);
            assert!(
                assert_agree(&stream, "unassigned distance pattern").is_err(),
                "max_len {max_len} after {valid} tokens"
            );
        }
    }
}

/// Regression: a distance table that violates Kraft used to be swallowed
/// as "no distance table", so a block of pure literals behind it decoded.
#[test]
fn corrupt_distance_table_is_corrupt_not_absent() {
    let tokens: Vec<Token> = b"abcabcabc".iter().map(|&b| Token::Literal(b)).collect();
    let data = expand(&tokens);
    let litlen_lengths = long_litlen_lengths(9);
    let mut block = Block::encode(&litlen_lengths, &long_dist_lengths(9), &tokens);

    // The all-zero table is the one legitimate "absent".
    block.dist_lengths = vec![0; DIST_ALPHABET];
    let stream = container(data.len(), crc32(&data), &[block]);
    assert_eq!(assert_agree(&stream, "no distance table").unwrap(), data);

    // Three 1-bit codes: over-subscribed.
    let mut forged = vec![0u8; DIST_ALPHABET];
    forged[..3].fill(1);
    let mut block = Block::encode(&litlen_lengths, &long_dist_lengths(9), &tokens);
    block.dist_lengths = forged;
    let stream = container(data.len(), crc32(&data), &[block]);
    assert_eq!(
        assert_agree(&stream, "over-subscribed distance table"),
        Err(CodecError::Corrupt("huffman lengths violate Kraft"))
    );
}

#[test]
fn forged_token_counts_and_bit_lengths_agree() {
    let tokens = long_code_tokens(15, 6);
    let data = expand(&tokens);
    let lit = long_litlen_lengths(15);
    let dist = long_dist_lengths(15);
    let honest = Block::encode(&lit, &dist, &tokens);
    let (n, bytes) = (honest.n_tokens, honest.bit_bytes);
    for n_tokens in [0, 1, n - 1, n + 1, n + 7, n * 2, 1 << 20, u32::MAX] {
        let block = Block {
            n_tokens,
            ..Block::encode(&lit, &dist, &tokens)
        };
        let verdict = assert_agree(
            &container(data.len(), crc32(&data), &[block]),
            "forged n_tokens",
        );
        assert_eq!(verdict.is_ok(), n_tokens == n, "n_tokens {n_tokens}");
    }
    // One byte short can still decode: the last byte may hold nothing but
    // zero extra bits, which the reader's padding replaces. Agreement is
    // what is asserted there.
    for bit_bytes in [0, 1, bytes - 9, bytes - 1, bytes + 1, bytes + 100, u32::MAX] {
        let block = Block {
            bit_bytes,
            ..Block::encode(&lit, &dist, &tokens)
        };
        let verdict = assert_agree(
            &container(data.len(), crc32(&data), &[block]),
            "forged bit_bytes",
        );
        if bit_bytes != bytes - 1 {
            assert!(verdict.is_err(), "bit_bytes {bit_bytes} of {bytes}");
        }
    }
}

/// The fast loop hands over to the checked reader once fewer than 8 bytes
/// remain; cut the bit stream (and the container) at every byte of the
/// last 24 so the hand-over happens at every alignment with tokens still
/// owed.
#[test]
fn every_truncation_of_the_tail_agrees() {
    let data = telco_text(40, 11);
    let packed = GzipLite::default().compress(&data);
    for cut in packed.len() - 24..packed.len() {
        assert!(assert_agree(&packed[..cut], "container cut").is_err());
    }

    for max_len in [9u8, 15] {
        let tokens = long_code_tokens(max_len, 8);
        let data = expand(&tokens);
        let lit = long_litlen_lengths(max_len);
        let dist = long_dist_lengths(max_len);
        let full = Block::encode(&lit, &dist, &tokens).bits;
        let mut refused = 0;
        for keep in full.len().saturating_sub(24)..full.len() {
            let block = Block {
                bits: full[..keep].to_vec(),
                bit_bytes: keep as u32,
                ..Block::encode(&lit, &dist, &tokens)
            };
            let stream = container(data.len(), crc32(&data), &[block]);
            // The tokens that no longer fit decode from zero padding or
            // are refused; either way the two decoders say the same, and
            // only losing nothing but zero bits can still succeed.
            match assert_agree(&stream, "bit stream cut") {
                Ok(out) => assert_eq!(out, data, "max_len {max_len} keep {keep}"),
                Err(_) => refused += 1,
            }
        }
        assert!(
            refused >= 22,
            "max_len {max_len}: only {refused} cuts refused"
        );
    }
}

#[test]
fn matches_ending_at_and_past_the_declared_length() {
    // 20 literals, then one match: every distance around the 16-byte
    // chunk boundary with every length across one, two and three chunks.
    let prefix: Vec<Token> = (0..20u8).map(|i| Token::Literal(b'a' + i % 8)).collect();
    let litlen_lengths = {
        // Literals a..h and length slots 0..=11 (lengths 4..=51).
        let symbols: Vec<usize> = (0..8)
            .map(|i| usize::from(b'a') + i)
            .chain((0..12).map(|s| LEN_SLOT_BASE + s))
            .collect();
        let mut lengths = vec![0u8; LITLEN_ALPHABET];
        for &s in &symbols {
            lengths[s] = 5; // 20 symbols of 5 bits: Kraft-deficient, fine
        }
        lengths
    };
    let dist_lengths = {
        let mut lengths = vec![0u8; DIST_ALPHABET];
        lengths[..10].fill(4); // distances 1..=24
        lengths
    };
    for dist in 1..=17u32 {
        for len in MIN_MATCH as u32..=40 {
            let mut tokens = prefix.clone();
            tokens.push(Token::Match { len, dist });
            let data = expand(&tokens);
            let exact = container(
                data.len(),
                crc32(&data),
                &[Block::encode(&litlen_lengths, &dist_lengths, &tokens)],
            );
            assert_eq!(
                assert_agree(&exact, "match ends at declared_len").unwrap(),
                data,
                "dist {dist} len {len}"
            );
            let short = container(
                data.len() - 1,
                crc32(&data[..data.len() - 1]),
                &[Block::encode(&litlen_lengths, &dist_lengths, &tokens)],
            );
            assert_eq!(
                assert_agree(&short, "match ends one past declared_len"),
                Err(CodecError::Corrupt("output exceeds declared length")),
                "dist {dist} len {len}"
            );
            // And as the last token of a stream long enough for the fast
            // loop to be the one that decodes it.
            let mut long = tokens.clone();
            long.extend((0..64u8).map(|i| Token::Literal(b'a' + i % 8)));
            long.push(Token::Match { len, dist });
            long.extend((0..64u8).map(|i| Token::Literal(b'a' + i % 8)));
            let data = expand(&long);
            let stream = container(
                data.len(),
                crc32(&data),
                &[Block::encode(&litlen_lengths, &dist_lengths, &long)],
            );
            assert_eq!(assert_agree(&stream, "match in fast loop").unwrap(), data);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_inputs_decode_identically(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let packed = GzipLite::default().compress(&data);
        prop_assert_eq!(assert_agree(&packed, "random input").unwrap(), data);
    }

    #[test]
    fn repetitive_inputs_decode_identically(
        seed in proptest::collection::vec(any::<u8>(), 1..40),
        reps in 1usize..400,
    ) {
        let data: Vec<u8> = seed.iter().copied().cycle().take(seed.len() * reps).collect();
        let packed = GzipLite::default().compress(&data);
        prop_assert_eq!(assert_agree(&packed, "repetitive input").unwrap(), data);
    }

    #[test]
    fn mutated_streams_get_the_same_verdict(
        rows in 1usize..60,
        seed in any::<u64>(),
        flips in proptest::collection::vec((0.0f64..1.0, any::<u8>()), 1..4),
    ) {
        let mut packed = GzipLite::default().compress(&telco_text(rows, seed));
        for (at, xor) in flips {
            let i = ((packed.len() as f64) * at) as usize;
            packed[i] ^= xor | 1;
        }
        let _ = assert_agree(&packed, "mutated stream");
    }

    #[test]
    fn garbage_behind_the_magic_gets_the_same_verdict(
        body in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let mut input = b"SPZ1".to_vec();
        input.extend_from_slice(&body);
        let _ = assert_agree(&input, "garbage");
    }
}
