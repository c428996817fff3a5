//! LZMA-style adaptive binary range coder.
//!
//! This is the entropy stage of the `7z-lite` codec: an arithmetic coder
//! over single bits, each predicted by an adaptive 11-bit probability model.
//! Also provides unmodeled "direct bits" and bit-tree contexts, the building
//! blocks LZMA composes its literal/length/distance coders from.

const PROB_BITS: u32 = 11;
const PROB_INIT: u16 = (1 << PROB_BITS) / 2;
const MOVE_BITS: u32 = 5;
const TOP: u32 = 1 << 24;

/// Adaptive probability of a zero bit (11-bit fixed point).
#[derive(Debug, Clone, Copy)]
pub struct BitModel(u16);

impl Default for BitModel {
    fn default() -> Self {
        BitModel(PROB_INIT)
    }
}

impl BitModel {
    #[inline]
    fn update(&mut self, bit: u32) {
        if bit == 0 {
            self.0 += ((1 << PROB_BITS) - self.0) >> MOVE_BITS;
        } else {
            self.0 -= self.0 >> MOVE_BITS;
        }
    }
}

/// Range encoder producing a byte stream.
#[derive(Debug)]
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeEncoder {
    pub fn new() -> Self {
        Self {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    #[inline]
    fn shift_low(&mut self) {
        if (self.low as u32) < 0xFF00_0000 || (self.low >> 32) != 0 {
            let carry = (self.low >> 32) as u8;
            self.out.push(self.cache.wrapping_add(carry));
            for _ in 1..self.cache_size {
                self.out.push(0xFFu8.wrapping_add(carry));
            }
            self.cache = (self.low >> 24) as u8;
            self.cache_size = 0;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    /// Encode one bit under an adaptive model.
    #[inline]
    pub fn encode_bit(&mut self, model: &mut BitModel, bit: u32) {
        let bound = (self.range >> PROB_BITS) * u32::from(model.0);
        if bit == 0 {
            self.range = bound;
        } else {
            self.low += u64::from(bound);
            self.range -= bound;
        }
        model.update(bit);
        while self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
    }

    /// Encode `n` unmodeled bits of `value`, MSB first.
    pub fn encode_direct(&mut self, value: u32, n: u32) {
        for i in (0..n).rev() {
            self.range >>= 1;
            if (value >> i) & 1 != 0 {
                self.low += u64::from(self.range);
            }
            while self.range < TOP {
                self.range <<= 8;
                self.shift_low();
            }
        }
    }

    /// Flush and return the encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// Range decoder over a byte slice. Reads past the end yield zero bytes
/// (the encoder's flush guarantees well-formed streams never need them);
/// [`RangeDecoder::is_overrun`] reports whether any such read happened, so
/// callers decoding untrusted token counts can stop instead of synthesizing
/// output from the implicit zero padding forever.
///
/// Every method is forced inline: a caller that keeps the decoder in a
/// local then holds `range`, `code` and `pos` in registers across a whole
/// token instead of reloading them around each call.
#[derive(Debug)]
pub struct RangeDecoder<'a> {
    input: &'a [u8],
    pos: usize,
    code: u32,
    range: u32,
}

impl<'a> RangeDecoder<'a> {
    pub fn new(input: &'a [u8]) -> Self {
        let mut d = Self {
            input,
            pos: 1, // skip the encoder's initial zero cache byte
            code: 0,
            range: u32::MAX,
        };
        for _ in 0..4 {
            d.code = (d.code << 8) | u32::from(d.next_byte());
        }
        d
    }

    /// The next input byte; past the end, zero. `pos` counts every read,
    /// so it moves past `input.len()` exactly when one of them missed.
    #[inline(always)]
    fn next_byte(&mut self) -> u8 {
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// Bring `range` back to at least [`TOP`]. One byte is always enough:
    /// a decision enters with `range >= TOP` and leaves at least
    /// `(range >> 11) * 31` of it (a [`BitModel`] stays inside
    /// `[31, 2017]`) or, for a direct bit, half of it, so `range` never
    /// falls below `1 << 16` and one shift by 8 restores the invariant.
    #[inline(always)]
    fn normalize(&mut self) {
        if self.range < TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | u32::from(self.next_byte());
        }
    }

    /// True once any read has gone past the end of the input. Well-formed
    /// streams never overrun: the decoder's byte consumption mirrors the
    /// encoder's normalization schedule, and the encoder flushes five
    /// trailing bytes to cover the decoder's initial lookahead.
    #[inline(always)]
    pub fn is_overrun(&self) -> bool {
        self.pos > self.input.len()
    }

    /// Decode one bit under an adaptive model. The compare stays a branch:
    /// a modelled bit is mostly predictable (that is what the model is
    /// for), and both branch-free forms (mask arithmetic, `cmov`) measured
    /// slower on pack streams because they put the model update on the
    /// `range`/`code` dependency chain.
    #[inline(always)]
    pub fn decode_bit(&mut self, model: &mut BitModel) -> u32 {
        let bound = (self.range >> PROB_BITS) * u32::from(model.0);
        let bit = if self.code < bound {
            self.range = bound;
            0
        } else {
            self.code -= bound;
            self.range -= bound;
            1
        };
        model.update(bit);
        self.normalize();
        bit
    }

    /// Decode `n` unmodeled bits, MSB first. Direct bits are coin flips,
    /// so the compare is turned into a mask rather than a branch that
    /// would mispredict every other bit.
    #[inline(always)]
    pub fn decode_direct(&mut self, n: u32) -> u32 {
        let mut value = 0u32;
        for _ in 0..n {
            self.range >>= 1;
            let bit = u32::from(self.code >= self.range);
            self.code -= self.range & bit.wrapping_neg();
            value = (value << 1) | bit;
            self.normalize();
        }
        value
    }
}

/// A complete binary tree of `N` bit models (slot 0 unused) coding symbols
/// of `log2(N)` bits, MSB first. The models live inline, so a set of trees
/// in a local is addressed off the stack pointer and the walk is a loop of
/// constant trip count over an array of constant size.
#[derive(Debug, Clone)]
pub struct BitTree<const N: usize> {
    models: [BitModel; N],
}

impl<const N: usize> Default for BitTree<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> BitTree<N> {
    /// Symbol width in bits.
    pub const BITS: u32 = {
        assert!(N.is_power_of_two() && N >= 2);
        N.trailing_zeros()
    };

    pub fn new() -> Self {
        Self {
            models: [BitModel::default(); N],
        }
    }

    /// Encode a symbol below `N`.
    pub fn encode(&mut self, enc: &mut RangeEncoder, symbol: u32) {
        debug_assert!((symbol as usize) < N);
        let mut m = 1usize;
        for i in (0..Self::BITS).rev() {
            let bit = (symbol >> i) & 1;
            enc.encode_bit(&mut self.models[m], bit);
            m = (m << 1) | bit as usize;
        }
    }

    /// Decode a symbol.
    #[inline(always)]
    pub fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> u32 {
        let mut m = 1usize;
        for _ in 0..Self::BITS {
            // `m < N` before every step; the mask only tells the compiler.
            let bit = dec.decode_bit(&mut self.models[m & (N - 1)]);
            m = (m << 1) | bit as usize;
        }
        (m - N) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_model_bit_sequence_round_trips() {
        let bits: Vec<u32> = (0..5000).map(|i| u32::from(i % 10 == 0)).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::default();
        for &b in &bits {
            enc.encode_bit(&mut m, b);
        }
        let bytes = enc.finish();
        // Skewed bits (90% zeros) must compress well below 1 bit/symbol.
        assert!(bytes.len() < bits.len() / 8);

        let mut dec = RangeDecoder::new(&bytes);
        let mut m = BitModel::default();
        for &b in &bits {
            assert_eq!(dec.decode_bit(&mut m), b);
        }
    }

    #[test]
    fn direct_bits_round_trip() {
        let values = [
            (0u32, 1u32),
            (1, 1),
            (0xABCD, 16),
            (0, 5),
            (31, 5),
            (0xFFFF_FFFF, 32),
        ];
        let mut enc = RangeEncoder::new();
        for &(v, n) in &values {
            enc.encode_direct(v, n);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(dec.decode_direct(n), v, "value {v:#x} width {n}");
        }
    }

    #[test]
    fn bit_tree_round_trips_all_symbols() {
        let mut tree_enc = BitTree::<256>::new();
        let symbols: Vec<u32> = (0..256)
            .chain((0..256).rev())
            .chain([0, 255, 128, 1])
            .collect();
        let mut enc = RangeEncoder::new();
        for &s in &symbols {
            tree_enc.encode(&mut enc, s);
        }
        let bytes = enc.finish();
        let mut tree_dec = BitTree::<256>::new();
        let mut dec = RangeDecoder::new(&bytes);
        for &s in &symbols {
            assert_eq!(tree_dec.decode(&mut dec), s);
        }
    }

    #[test]
    fn mixed_modeled_and_direct_round_trip() {
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::default();
        let mut tree = BitTree::<16>::new();
        for i in 0..1000u32 {
            enc.encode_bit(&mut m, i & 1);
            tree.encode(&mut enc, i % 16);
            enc.encode_direct(i % 128, 7);
        }
        let bytes = enc.finish();

        let mut dec = RangeDecoder::new(&bytes);
        let mut m = BitModel::default();
        let mut tree = BitTree::<16>::new();
        for i in 0..1000u32 {
            assert_eq!(dec.decode_bit(&mut m), i & 1);
            assert_eq!(tree.decode(&mut dec), i % 16);
            assert_eq!(dec.decode_direct(7), i % 128);
        }
    }

    #[test]
    fn carry_propagation_is_handled() {
        // Long runs of highly-probable bits stress the carry/cache path.
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::default();
        let pattern: Vec<u32> = (0..20_000).map(|i| u32::from(i % 1000 == 999)).collect();
        for &b in &pattern {
            enc.encode_bit(&mut m, b);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes);
        let mut m = BitModel::default();
        for &b in &pattern {
            assert_eq!(dec.decode_bit(&mut m), b);
        }
    }
}
