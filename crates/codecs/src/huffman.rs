//! Canonical, length-limited Huffman coding with a table-driven decoder.
//!
//! Code lengths are derived from symbol frequencies with a classic
//! heap-built Huffman tree, then clamped to the requested maximum length
//! with a Kraft-sum repair pass (the zlib approach). Codes are assigned
//! canonically — sorted by (length, symbol) — so only the length array needs
//! to be transmitted. Encoded bits are stored reversed so the LSB-first
//! [`crate::bitio`] stream can be decoded with a single table lookup.

use crate::bitio::{BitReader, BitWriter};
use crate::CodecError;
use obs::bytes::varint;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Compute length-limited code lengths from frequencies.
///
/// Returns one length per symbol; zero means the symbol is absent. If no
/// symbol has a nonzero frequency the result is all zeros. A single-symbol
/// alphabet gets a 1-bit code.
pub fn build_lengths(freqs: &[u64], max_len: u8) -> Vec<u8> {
    assert!((1..=15).contains(&max_len));
    let n = freqs.len();
    let live: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    let mut lengths = vec![0u8; n];
    match live.len() {
        0 => return lengths,
        1 => {
            lengths[live[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Standard heap-built Huffman tree over the live symbols.
    // Node ids: 0..live.len() are leaves, the rest internal.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = live
        .iter()
        .enumerate()
        .map(|(leaf, &sym)| Reverse((freqs[sym], leaf)))
        .collect();
    let mut parent = vec![usize::MAX; live.len() * 2 - 1];
    let mut next_id = live.len();
    while heap.len() > 1 {
        let Reverse((f1, a)) = heap.pop().unwrap();
        let Reverse((f2, b)) = heap.pop().unwrap();
        parent[a] = next_id;
        parent[b] = next_id;
        heap.push(Reverse((f1 + f2, next_id)));
        next_id += 1;
    }
    let root = next_id - 1;

    // Depth of each leaf = chain length to the root.
    for (leaf, &sym) in live.iter().enumerate() {
        let mut depth = 0u32;
        let mut node = leaf;
        while node != root {
            node = parent[node];
            depth += 1;
        }
        lengths[sym] = depth.min(u32::from(max_len)) as u8;
    }

    enforce_kraft(&mut lengths, freqs, max_len);
    lengths
}

/// Repair a clamped length assignment so the Kraft sum does not exceed 1.
///
/// Clamping long codes to `max_len` can push the Kraft sum over 1 (an
/// unrealizable code). Lengthening the cheapest (lowest-frequency) short
/// codes restores feasibility with minimal cost.
fn enforce_kraft(lengths: &mut [u8], freqs: &[u64], max_len: u8) {
    let budget: u64 = 1 << max_len;
    let kraft = |lengths: &[u8]| -> u64 {
        lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (max_len - l))
            .sum()
    };
    let mut k = kraft(lengths);
    if k <= budget {
        return;
    }
    // Symbols ordered by ascending frequency: lengthen the cheapest first.
    let mut order: Vec<usize> = (0..lengths.len()).filter(|&i| lengths[i] > 0).collect();
    order.sort_by_key(|&i| freqs[i]);
    'outer: while k > budget {
        for &i in &order {
            if lengths[i] < max_len {
                k -= 1 << (max_len - lengths[i]);
                lengths[i] += 1;
                k += 1 << (max_len - lengths[i]);
                continue 'outer;
            }
        }
        unreachable!("Kraft repair failed: alphabet larger than 2^max_len");
    }
}

/// Assign canonical codes (MSB-first numbering) from lengths.
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

#[inline]
fn reverse_bits(code: u32, len: u8) -> u32 {
    code.reverse_bits() >> (32 - u32::from(len))
}

/// Canonical Huffman encoder.
#[derive(Debug, Clone)]
pub struct HuffmanEncoder {
    /// Bit-reversed codes ready for LSB-first emission.
    codes: Vec<u32>,
    lengths: Vec<u8>,
}

impl HuffmanEncoder {
    /// Build an encoder directly from symbol frequencies.
    pub fn from_frequencies(freqs: &[u64], max_len: u8) -> Self {
        Self::from_lengths(&build_lengths(freqs, max_len))
    }

    /// Build an encoder from an existing (transmitted) length array.
    pub fn from_lengths(lengths: &[u8]) -> Self {
        let codes = canonical_codes(lengths)
            .into_iter()
            .zip(lengths)
            .map(|(c, &l)| if l == 0 { 0 } else { reverse_bits(c, l) })
            .collect();
        Self {
            codes,
            lengths: lengths.to_vec(),
        }
    }

    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// Emit the code for `sym`. Panics (debug) if `sym` has no code.
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, sym: usize) {
        let len = self.lengths[sym];
        debug_assert!(len > 0, "encoding symbol {sym} with no assigned code");
        w.write_bits(self.codes[sym], u32::from(len));
    }

    /// Cost in bits of encoding `sym` (for size estimation).
    #[inline]
    pub fn cost(&self, sym: usize) -> u32 {
        u32::from(self.lengths[sym])
    }
}

/// One decoder table entry, packed so a token costs one load.
///
/// | bits  | field                                                        |
/// |-------|--------------------------------------------------------------|
/// | 0–3   | code length in bits; 0 = no code is a prefix of the input    |
/// | 4–7   | raw extra bits that follow the code (match slots)            |
/// | 8     | literal flag                                                 |
/// | 9     | sub-table pointer (decoder-internal, never seen by callers)  |
/// | 16–31 | payload: the literal byte, or the slot's pre-resolved base   |
///
/// The caller of [`HuffmanDecoder::build`] chooses flag, extra-bit count
/// and payload per symbol; the decoder adds the code length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry(u32);

const ENTRY_LITERAL: u32 = 1 << 8;
const ENTRY_SUBTABLE: u32 = 1 << 9;

impl Entry {
    const NO_CODE: Entry = Entry(0);

    /// Entry of a symbol that stands for the byte `byte`.
    #[inline]
    pub fn literal(byte: u8) -> Self {
        Entry(ENTRY_LITERAL | u32::from(byte) << 16)
    }

    /// Entry of a slot symbol: its value is `base` plus `extra_bits` raw
    /// bits read after the code.
    #[inline]
    pub fn base(base: u16, extra_bits: u32) -> Self {
        debug_assert!(extra_bits <= 15);
        Entry(extra_bits << 4 | u32::from(base) << 16)
    }

    /// Bits the code occupies; 0 when the input matches no code.
    #[inline(always)]
    pub fn code_len(self) -> u32 {
        self.0 & 15
    }

    #[inline(always)]
    pub fn extra_bits(self) -> u32 {
        (self.0 >> 4) & 15
    }

    #[inline(always)]
    pub fn is_literal(self) -> bool {
        self.0 & ENTRY_LITERAL != 0
    }

    #[inline(always)]
    pub fn payload(self) -> u32 {
        self.0 >> 16
    }
}

/// Longest code the decoder accepts (a length travels as one nibble).
pub const MAX_DECODE_LEN: u32 = 15;

/// What bits that match no code decode to.
pub const INVALID_CODE: CodecError = CodecError::Corrupt("invalid huffman code");

/// Two-level table-driven canonical Huffman decoder.
///
/// The low `primary_bits` of the input index the primary table. A code
/// no longer than that fills every slot it is a prefix of; codes longer
/// than that share a sub-table, appended to the same vector, that the
/// primary slot of their common prefix points to and the following bits
/// index. The primary table stays in L1 and costs `1 << primary_bits`
/// writes to build, whatever the longest code is.
#[derive(Debug)]
pub struct HuffmanDecoder {
    table: Vec<Entry>,
    primary_bits: u32,
}

impl HuffmanDecoder {
    /// Build the table for the canonical code over `lengths`, asking
    /// `meta` for the flag, extra-bit count and payload of each coded
    /// symbol. Fails on an empty code, a length above 15 or lengths that
    /// violate the Kraft inequality; a Kraft-deficient code is accepted
    /// and its unassigned bit patterns decode to "no code".
    pub fn build(
        lengths: &[u8],
        primary_bits: u32,
        meta: impl Fn(usize) -> Entry,
    ) -> Result<Self, CodecError> {
        let mut count = [0u32; MAX_DECODE_LEN as usize + 1];
        for &l in lengths {
            if u32::from(l) > MAX_DECODE_LEN {
                return Err(CodecError::Corrupt("huffman code length > 15"));
            }
            count[usize::from(l)] += 1;
        }
        count[0] = 0;
        let max_len = (1..=MAX_DECODE_LEN)
            .rev()
            .find(|&l| count[l as usize] > 0)
            .ok_or(CodecError::Corrupt("huffman table with no codes"))?;
        let kraft: u64 = (1..=max_len)
            .map(|l| u64::from(count[l as usize]) << (max_len - l))
            .sum();
        if kraft > 1u64 << max_len {
            return Err(CodecError::Corrupt("huffman lengths violate Kraft"));
        }
        // First canonical code (MSB-first numbering) of each length.
        let mut first = [0u32; MAX_DECODE_LEN as usize + 1];
        let mut code = 0u32;
        for l in 1..=max_len as usize {
            code = (code + count[l - 1]) << 1;
            first[l] = code;
        }

        let primary_bits = primary_bits.clamp(1, max_len);
        let primary_size = 1usize << primary_bits;
        let primary_mask = primary_size - 1;
        let mut table = vec![Entry::NO_CODE; primary_size];

        // A symbol's entry: what the caller chose plus the whole code
        // length, in the primary table and in a sub-table alike, so a
        // caller consumes both kinds of hit the same way.
        let coded = |sym: usize, len: u32| {
            let m = meta(sym);
            debug_assert_eq!(m.0 & (15 | ENTRY_SUBTABLE), 0);
            Entry(m.0 | len)
        };

        // Short codes fill the primary table. A long code leaves, in the
        // extra-bits field of its prefix's primary slot (code length still
        // 0), the index width its sub-table needs.
        let mut next = first;
        for (sym, &len) in lengths.iter().enumerate() {
            if len == 0 {
                continue;
            }
            let len = u32::from(len);
            let rev = reverse_bits(next[len as usize], len as u8) as usize;
            next[len as usize] += 1;
            if len <= primary_bits {
                let entry = coded(sym, len);
                for slot in table[rev..].iter_mut().step_by(1 << len) {
                    *slot = entry;
                }
            } else {
                let slot = &mut table[rev & primary_mask];
                slot.0 = slot.0.max((len - primary_bits) << 4);
            }
        }

        if max_len > primary_bits {
            // Turn the recorded widths into pointers and append the
            // sub-tables. At most `1 << primary_bits` of them with
            // `1 << (15 - primary_bits)` entries each, so an offset always
            // fits the 16-bit payload.
            for prefix in 0..primary_size {
                let slot = table[prefix];
                if slot.code_len() == 0 && slot.extra_bits() != 0 {
                    let offset = table.len() as u32;
                    debug_assert!(offset < 1 << 16);
                    table[prefix] = Entry(ENTRY_SUBTABLE | slot.0 | offset << 16);
                    table.resize(table.len() + (1 << slot.extra_bits()), Entry::NO_CODE);
                }
            }
            let mut next = first;
            for (sym, &len) in lengths.iter().enumerate() {
                let len = u32::from(len);
                if len <= primary_bits {
                    next[len as usize] += 1;
                    continue;
                }
                let rev = reverse_bits(next[len as usize], len as u8) as usize;
                next[len as usize] += 1;
                let pointer = table[rev & primary_mask];
                let start = pointer.payload() as usize;
                let end = start + (1 << pointer.extra_bits());
                let entry = coded(sym, len);
                for slot in table[start + (rev >> primary_bits)..end]
                    .iter_mut()
                    .step_by(1 << (len - primary_bits))
                {
                    *slot = entry;
                }
            }
        }
        Ok(Self {
            table,
            primary_bits,
        })
    }

    /// The entry of the code at the low end of `bits`, of which the low
    /// 15 must be stream bits (zero padding past the end of the stream).
    /// Nothing is consumed: the caller drops [`Entry::code_len`] bits.
    #[inline(always)]
    pub fn lookup(&self, bits: u64) -> Entry {
        let primary_mask = (1u64 << self.primary_bits) - 1;
        let mut entry = self.table[(bits & primary_mask) as usize];
        if entry.0 & ENTRY_SUBTABLE != 0 {
            let sub = (bits >> self.primary_bits) & ((1u64 << entry.extra_bits()) - 1);
            entry = self.table[entry.payload() as usize + sub as usize];
        }
        entry
    }

    /// Decode one symbol's entry from a checked bit reader.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<Entry, CodecError> {
        let entry = self.lookup(u64::from(r.peek_bits(MAX_DECODE_LEN)));
        if entry.code_len() == 0 {
            return Err(INVALID_CODE);
        }
        r.consume(entry.code_len());
        Ok(entry)
    }
}

/// Serialize a length array as 4-bit nibbles (lengths ≤ 15).
pub fn write_lengths(out: &mut Vec<u8>, lengths: &[u8]) {
    varint::write_len(out, "huffman code lengths", lengths.len());
    let mut nibble_hi = false;
    let mut cur = 0u8;
    for &l in lengths {
        debug_assert!(l <= 15);
        if nibble_hi {
            out.push(cur | (l << 4));
        } else {
            cur = l;
        }
        nibble_hi = !nibble_hi;
    }
    if nibble_hi {
        out.push(cur);
    }
}

/// Inverse of [`write_lengths`].
pub fn read_lengths(input: &[u8], pos: &mut usize) -> Result<Vec<u8>, CodecError> {
    let n = varint::read_u32(input, pos)? as usize;
    if n > 1 << 20 {
        return Err(CodecError::Corrupt("huffman alphabet too large"));
    }
    let bytes = n.div_ceil(2);
    if *pos + bytes > input.len() {
        return Err(CodecError::Truncated);
    }
    let mut lengths = Vec::with_capacity(n);
    for i in 0..n {
        let byte = input[*pos + i / 2];
        lengths.push(if i % 2 == 0 { byte & 0x0F } else { byte >> 4 });
    }
    *pos += bytes;
    Ok(lengths)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A decoder whose payload is the symbol itself.
    fn symbol_decoder(lengths: &[u8], primary_bits: u32) -> Result<HuffmanDecoder, CodecError> {
        HuffmanDecoder::build(lengths, primary_bits, |sym| Entry::base(sym as u16, 0))
    }

    /// Encode `stream` with `lengths` and decode it back through tables of
    /// several primary widths: one level, two levels, nearly all sub-tables.
    fn round_trip_lengths(lengths: &[u8], stream: &[usize]) {
        let enc = HuffmanEncoder::from_lengths(lengths);
        let mut w = BitWriter::new();
        for &s in stream {
            enc.encode(&mut w, s);
        }
        let bytes = w.finish();
        for primary_bits in [1, 3, 9, 10, 15] {
            let dec = symbol_decoder(lengths, primary_bits).unwrap();
            let mut r = BitReader::new(&bytes);
            for &s in stream {
                let entry = dec.decode(&mut r).unwrap();
                assert_eq!(entry.payload() as usize, s, "primary_bits {primary_bits}");
                assert_eq!(entry.code_len(), u32::from(lengths[s]));
            }
        }
    }

    fn round_trip_symbols(freqs: &[u64], stream: &[usize], max_len: u8) {
        round_trip_lengths(&build_lengths(freqs, max_len), stream);
    }

    #[test]
    fn skewed_distribution_round_trip() {
        let freqs = [1000u64, 500, 100, 10, 1, 1, 0, 3];
        let stream: Vec<usize> = (0..200)
            .map(|i| [0, 0, 1, 2, 0, 3, 7, 4, 5, 1][i % 10])
            .collect();
        round_trip_symbols(&freqs, &stream, 13);
    }

    #[test]
    fn single_symbol_alphabet() {
        let freqs = [0u64, 42, 0];
        let stream = vec![1usize; 50];
        round_trip_symbols(&freqs, &stream, 13);
        let lengths = build_lengths(&freqs, 13);
        assert_eq!(lengths, vec![0, 1, 0]);
    }

    #[test]
    fn empty_alphabet_yields_zero_lengths() {
        assert_eq!(build_lengths(&[0, 0, 0], 13), vec![0, 0, 0]);
        assert!(symbol_decoder(&[0, 0], 10).is_err());
    }

    #[test]
    fn skewed_codes_are_shorter_for_frequent_symbols() {
        let freqs = [10_000u64, 100, 100, 100, 1];
        let lengths = build_lengths(&freqs, 13);
        assert!(lengths[0] <= lengths[1]);
        assert!(lengths[1] <= lengths[4]);
    }

    #[test]
    fn length_limit_is_respected_under_extreme_skew() {
        // Fibonacci-like frequencies force very deep unrestricted trees.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let next = a + b;
            a = b;
            b = next;
        }
        for max_len in [8u8, 10, 13, 15] {
            let lengths = build_lengths(&freqs, max_len);
            assert!(lengths.iter().all(|&l| l <= max_len));
            // Kraft inequality must hold.
            let kraft: f64 = lengths
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| 2f64.powi(-i32::from(l)))
                .sum();
            assert!(kraft <= 1.0 + 1e-9, "kraft {kraft} for max_len {max_len}");
            // And it must still decode.
            let stream: Vec<usize> = (0..freqs.len()).collect();
            round_trip_lengths(&lengths, &stream);
        }
    }

    #[test]
    fn full_byte_alphabet() {
        let mut freqs = vec![1u64; 256];
        freqs[b' ' as usize] = 5000;
        freqs[b'e' as usize] = 3000;
        freqs[b'0' as usize] = 2500;
        let stream: Vec<usize> = (0..=255usize).chain((0..=255).rev()).collect();
        round_trip_symbols(&freqs, &stream, 13);
    }

    #[test]
    fn lengths_serialization_round_trip() {
        let lengths = vec![0u8, 3, 5, 15, 1, 0, 0, 7, 2];
        let mut buf = Vec::new();
        write_lengths(&mut buf, &lengths);
        let mut pos = 0;
        assert_eq!(read_lengths(&buf, &mut pos).unwrap(), lengths);
        assert_eq!(pos, buf.len());

        // Odd and even counts both round-trip.
        let even = vec![4u8, 4, 4, 4];
        let mut buf = Vec::new();
        write_lengths(&mut buf, &even);
        let mut pos = 0;
        assert_eq!(read_lengths(&buf, &mut pos).unwrap(), even);
    }

    #[test]
    fn decoder_rejects_invalid_kraft() {
        // Three 1-bit codes cannot coexist.
        assert!(symbol_decoder(&[1, 1, 1], 10).is_err());
        assert!(symbol_decoder(&[1, 16], 10).is_err());
    }

    #[test]
    fn decoder_rejects_garbage_bits() {
        // Kraft-deficient code: two 2-bit codes (00 and 01); bits selecting
        // an unassigned slot error, in the primary table and in a sub-table.
        let lengths = [2u8, 2, 0, 0];
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2); // reversed pattern not covered by any code
        let bytes = w.finish();
        for primary_bits in [1, 2, 10] {
            let dec = symbol_decoder(&lengths, primary_bits).unwrap();
            let mut r = BitReader::new(&bytes);
            assert!(dec.decode(&mut r).is_err(), "primary_bits {primary_bits}");
        }
    }

    #[test]
    fn entries_carry_the_callers_metadata() {
        // 1-bit literal, 2-bit slot with 5 extra bits, 15-bit literal and
        // slot behind a sub-table.
        let mut lengths = vec![1u8, 2, 15, 15];
        lengths.resize(6, 0);
        let dec = HuffmanDecoder::build(&lengths, 9, |sym| match sym {
            0 => Entry::literal(b'x'),
            1 => Entry::base(24_577, 5),
            2 => Entry::literal(0xFF),
            _ => Entry::base(7, 13),
        })
        .unwrap();
        let enc = HuffmanEncoder::from_lengths(&lengths);
        let mut w = BitWriter::new();
        for sym in 0..4 {
            enc.encode(&mut w, sym);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let e = dec.decode(&mut r).unwrap();
        assert!(e.is_literal() && e.payload() == u32::from(b'x') && e.code_len() == 1);
        let e = dec.decode(&mut r).unwrap();
        assert!(!e.is_literal() && e.payload() == 24_577 && e.extra_bits() == 5);
        let e = dec.decode(&mut r).unwrap();
        assert!(e.is_literal() && e.payload() == 0xFF && e.code_len() == 15);
        let e = dec.decode(&mut r).unwrap();
        assert!(!e.is_literal() && e.payload() == 7 && e.extra_bits() == 13);
    }
}
