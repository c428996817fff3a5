//! Finite State Entropy (tANS) coding — the entropy stage of `zstd-lite`.
//!
//! A table-based asymmetric numeral system: symbol frequencies are
//! normalized to a power-of-two table, symbols are spread across the table
//! with the standard FSE stride, and coding walks a state machine emitting /
//! consuming a variable number of raw bits per symbol. Matches the classic
//! FSE construction (encode back-to-front, decode front-to-back).

use crate::bitio::{BitReader, BitWriter};
use crate::CodecError;
use obs::bytes::varint;

/// Maximum supported table log (keeps all intermediate math in `u32`).
pub const MAX_TABLE_LOG: u32 = 12;

#[inline]
fn highbit(v: u32) -> u32 {
    debug_assert!(v > 0);
    31 - v.leading_zeros()
}

/// Normalize raw counts so they sum to `1 << table_log`, keeping every
/// present symbol at frequency ≥ 1. Returns `None` if no symbol is present.
pub fn normalize(counts: &[u64], table_log: u32) -> Option<Vec<u32>> {
    assert!((5..=MAX_TABLE_LOG).contains(&table_log));
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let size = 1u64 << table_log;
    let mut norm: Vec<u32> = counts
        .iter()
        .map(|&c| {
            if c == 0 {
                0
            } else {
                (((c * size) + total / 2) / total).max(1) as u32
            }
        })
        .collect();
    let mut sum: i64 = norm.iter().map(|&n| i64::from(n)).sum();
    // Steal from / give to the largest symbols until the sum is exact.
    while sum != i64::from(size as u32) {
        if sum > i64::from(size as u32) {
            let i = (0..norm.len())
                .filter(|&i| norm[i] > 1)
                .max_by_key(|&i| norm[i])
                .expect("normalization cannot shrink: alphabet larger than table");
            norm[i] -= 1;
            sum -= 1;
        } else {
            let i = (0..norm.len())
                .filter(|&i| norm[i] > 0)
                .max_by_key(|&i| norm[i])
                .unwrap();
            norm[i] += 1;
            sum += 1;
        }
    }
    Some(norm)
}

/// The standard FSE symbol spread order.
fn spread_symbols(norm: &[u32], table_log: u32) -> Vec<u16> {
    let size = 1usize << table_log;
    let mask = size - 1;
    let step = (size >> 1) + (size >> 3) + 3;
    let mut table = vec![0u16; size];
    let mut pos = 0usize;
    for (sym, &freq) in norm.iter().enumerate() {
        for _ in 0..freq {
            table[pos] = sym as u16;
            pos = (pos + step) & mask;
        }
    }
    debug_assert_eq!(pos, 0);
    table
}

/// Per-symbol encoding parameters (classic `FSE_symbolCompressionTransform`).
#[derive(Debug, Clone, Copy, Default)]
struct SymbolTT {
    delta_nb_bits: u32,
    delta_find_state: i32,
}

/// FSE encoder table for one alphabet.
#[derive(Debug, Clone)]
pub struct FseEncoder {
    table_log: u32,
    /// next-state table indexed by cumulative symbol rank.
    state_table: Vec<u16>,
    symbol_tt: Vec<SymbolTT>,
}

impl FseEncoder {
    pub fn new(norm: &[u32], table_log: u32) -> Self {
        let size = 1usize << table_log;
        debug_assert_eq!(norm.iter().map(|&f| f as usize).sum::<usize>(), size);
        let spread = spread_symbols(norm, table_log);

        let mut cumul = vec![0u32; norm.len() + 1];
        for s in 0..norm.len() {
            cumul[s + 1] = cumul[s] + norm[s];
        }
        let mut state_table = vec![0u16; size];
        let mut fill = cumul.clone();
        for (u, &sym) in spread.iter().enumerate() {
            let s = usize::from(sym);
            state_table[fill[s] as usize] = (size + u) as u16;
            fill[s] += 1;
        }

        let mut symbol_tt = vec![SymbolTT::default(); norm.len()];
        for (s, &freq) in norm.iter().enumerate() {
            if freq == 0 {
                continue;
            }
            let max_bits_out = table_log - highbit(freq);
            let min_state_plus = freq << max_bits_out;
            // A symbol owning the whole table (freq == size) always flushes
            // zero bits; the generic formula would underflow.
            let delta_nb_bits = if max_bits_out == 0 {
                0
            } else {
                (max_bits_out << 16) - min_state_plus
            };
            symbol_tt[s] = SymbolTT {
                delta_nb_bits,
                delta_find_state: cumul[s] as i32 - freq as i32,
            };
        }
        Self {
            table_log,
            state_table,
            symbol_tt,
        }
    }

    /// Encode `symbols` and return `(bitstream bytes, final state)`.
    ///
    /// FSE encodes back-to-front; this method handles the reversal so the
    /// produced stream decodes front-to-back with [`FseDecoder::decode_all`].
    pub fn encode_all(&self, symbols: &[u16]) -> (Vec<u8>, u32) {
        let size = 1u32 << self.table_log;
        let mut state = size; // any state in [size, 2*size) is valid
        let mut ops: Vec<(u32, u32)> = Vec::with_capacity(symbols.len());
        for &sym in symbols.iter().rev() {
            let tt = self.symbol_tt[usize::from(sym)];
            let nb_bits = (state + tt.delta_nb_bits) >> 16;
            ops.push((state & ((1 << nb_bits) - 1), nb_bits));
            let idx = (state >> nb_bits) as i32 + tt.delta_find_state;
            state = u32::from(self.state_table[idx as usize]);
        }
        let mut w = BitWriter::with_capacity(symbols.len() / 4 + 8);
        for &(value, nb_bits) in ops.iter().rev() {
            w.write_bits(value, nb_bits);
        }
        (w.finish(), state - size)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct DecodeEntry {
    symbol: u16,
    nb_bits: u8,
    new_state_base: u16,
}

/// FSE decoder table for one alphabet.
#[derive(Debug, Clone)]
pub struct FseDecoder {
    table: Vec<DecodeEntry>,
}

impl FseDecoder {
    pub fn new(norm: &[u32], table_log: u32) -> Result<Self, CodecError> {
        let size = 1usize << table_log;
        let total: usize = norm.iter().map(|&f| f as usize).sum();
        if total != size {
            return Err(CodecError::Corrupt("fse norm does not sum to table size"));
        }
        let spread = spread_symbols(norm, table_log);
        let mut symbol_next: Vec<u32> = norm.to_vec();
        let mut table = vec![DecodeEntry::default(); size];
        for (u, &sym) in spread.iter().enumerate() {
            let s = usize::from(sym);
            let next_state = symbol_next[s];
            symbol_next[s] += 1;
            let nb_bits = table_log - highbit(next_state);
            table[u] = DecodeEntry {
                symbol: sym,
                nb_bits: nb_bits as u8,
                new_state_base: ((next_state << nb_bits) - size as u32) as u16,
            };
        }
        Ok(Self { table })
    }

    /// Decode exactly `count` symbols starting from `initial_state` (the
    /// value returned by [`FseEncoder::encode_all`]).
    pub fn decode_all(
        &self,
        bits: &[u8],
        initial_state: u32,
        count: usize,
    ) -> Result<Vec<u16>, CodecError> {
        if initial_state as usize >= self.table.len() {
            return Err(CodecError::Corrupt("fse initial state out of range"));
        }
        let mut r = BitReader::new(bits);
        let mut state = initial_state as usize;
        let mut out = Vec::with_capacity(crate::bounded_capacity(count));
        for _ in 0..count {
            let e = self.table[state];
            out.push(e.symbol);
            state = usize::from(e.new_state_base) + r.read_bits(u32::from(e.nb_bits)) as usize;
            if state >= self.table.len() {
                return Err(CodecError::Corrupt("fse state out of range"));
            }
        }
        Ok(out)
    }
}

/// Serialize normalized frequencies (nonzero count, then varint pairs).
pub fn write_norm(out: &mut Vec<u8>, norm: &[u32]) {
    varint::write_len(out, "fse alphabet", norm.len());
    let present = norm.iter().filter(|&&f| f > 0).count();
    varint::write_u64(out, present as u64);
    for (sym, &freq) in norm.iter().enumerate() {
        if freq > 0 {
            varint::write_u64(out, sym as u64);
            varint::write_u64(out, freq.into());
        }
    }
}

/// Inverse of [`write_norm`].
pub fn read_norm(input: &[u8], pos: &mut usize) -> Result<Vec<u32>, CodecError> {
    let len = varint::read_u32(input, pos)? as usize;
    if len > 1 << 20 {
        return Err(CodecError::Corrupt("fse alphabet too large"));
    }
    let present = varint::read_u32(input, pos)? as usize;
    if present > len {
        return Err(CodecError::Corrupt("fse present count exceeds alphabet"));
    }
    let mut norm = vec![0u32; len];
    for _ in 0..present {
        let sym = varint::read_u32(input, pos)? as usize;
        let freq = varint::read_u32(input, pos)?;
        if sym >= len {
            return Err(CodecError::Corrupt("fse symbol out of range"));
        }
        norm[sym] = freq;
    }
    Ok(norm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(symbols: &[u16], alphabet: usize, table_log: u32) -> usize {
        let mut counts = vec![0u64; alphabet];
        for &s in symbols {
            counts[usize::from(s)] += 1;
        }
        let norm = normalize(&counts, table_log).unwrap();
        let enc = FseEncoder::new(&norm, table_log);
        let dec = FseDecoder::new(&norm, table_log).unwrap();
        let (bits, state) = enc.encode_all(symbols);
        let decoded = dec.decode_all(&bits, state, symbols.len()).unwrap();
        assert_eq!(decoded, symbols);
        bits.len()
    }

    #[test]
    fn normalize_sums_to_table_size() {
        let counts = vec![100u64, 50, 25, 12, 6, 3, 1, 1, 0, 900];
        for log in [5u32, 8, 11, 12] {
            let norm = normalize(&counts, log).unwrap();
            assert_eq!(norm.iter().sum::<u32>(), 1 << log);
            for (i, &c) in counts.iter().enumerate() {
                assert_eq!(c > 0, norm[i] > 0, "presence preserved at {i}");
            }
        }
    }

    #[test]
    fn normalize_empty_returns_none() {
        assert!(normalize(&[0, 0, 0], 8).is_none());
    }

    #[test]
    fn skewed_byte_stream_round_trips_and_compresses() {
        // 90% zeros: tANS must get well under 8 bits/byte.
        let symbols: Vec<u16> = (0..20_000u32)
            .map(|i| if i % 10 == 0 { (i % 7) as u16 + 1 } else { 0 })
            .collect();
        let bytes = round_trip(&symbols, 8, 11);
        assert!(bytes < symbols.len() / 4, "compressed to {bytes} bytes");
    }

    #[test]
    fn uniform_stream_round_trips() {
        let symbols: Vec<u16> = (0..10_000u32).map(|i| (i % 256) as u16).collect();
        round_trip(&symbols, 256, 11);
    }

    #[test]
    fn two_symbol_alphabet() {
        let symbols: Vec<u16> = (0..5_000u32).map(|i| u16::from(i % 17 == 0)).collect();
        round_trip(&symbols, 2, 6);
    }

    #[test]
    fn short_streams() {
        round_trip(&[3], 5, 5);
        round_trip(&[1, 2], 4, 5);
        round_trip(&[0, 0, 1], 2, 5);
    }

    #[test]
    fn extreme_skew_with_rare_symbol() {
        let mut symbols = vec![0u16; 9_999];
        symbols.push(255);
        round_trip(&symbols, 256, 12);
    }

    #[test]
    fn single_symbol_alphabet_round_trips() {
        let symbols = vec![7u16; 1000];
        round_trip(&symbols, 8, 5);
    }

    #[test]
    fn norm_serialization_round_trip() {
        let counts = vec![5u64, 0, 0, 900, 1, 33, 0];
        let norm = normalize(&counts, 9).unwrap();
        let mut buf = Vec::new();
        write_norm(&mut buf, &norm);
        let mut pos = 0;
        assert_eq!(read_norm(&buf, &mut pos).unwrap(), norm);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn decoder_rejects_bad_norm() {
        // Frequencies not summing to the table size must be rejected.
        assert!(FseDecoder::new(&[3, 3], 5).is_err());
    }

    #[test]
    fn decoder_rejects_out_of_range_state() {
        let norm = normalize(&[10, 20], 6).unwrap();
        let dec = FseDecoder::new(&norm, 6).unwrap();
        assert!(dec.decode_all(&[], 1 << 6, 1).is_err());
    }
}
