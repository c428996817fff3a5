//! LSB-first bit-level I/O used by the DEFLATE-class and tANS codecs.
//!
//! Bits are packed least-significant-bit first within each byte, matching
//! the convention of DEFLATE: the first bit written becomes bit 0 of the
//! first output byte.

use crate::CodecError;

/// Accumulates bits LSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Bits not yet flushed to `out`, right-aligned.
    acc: u64,
    /// Number of valid bits in `acc` (always < 8 after `flush_acc`).
    nbits: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            out: Vec::with_capacity(bytes),
            acc: 0,
            nbits: 0,
        }
    }

    /// Write the low `n` bits of `value` (n ≤ 32).
    #[inline]
    pub fn write_bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(n == 32 || u64::from(value) < (1u64 << n));
        self.acc |= u64::from(value) << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Number of whole bits written so far.
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.nbits as usize
    }

    /// Pad with zero bits to a byte boundary and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xFF) as u8);
        }
        self.out
    }
}

/// Reads bits LSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    input: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(input: &'a [u8]) -> Self {
        Self {
            input,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Continue a stream another reader has partly consumed: `pos` is the
    /// index of the first byte of `input` not yet loaded and the low `nbits`
    /// (≤ 63) of `acc` are the loaded bits not yet consumed. Whatever `acc`
    /// holds above them is dropped.
    pub fn resume(input: &'a [u8], pos: usize, acc: u64, nbits: u32) -> Self {
        debug_assert!(pos <= input.len() && nbits < 64);
        Self {
            input,
            pos,
            acc: acc & ((1u64 << nbits) - 1),
            nbits,
        }
    }

    /// Top up `acc`. Bits at and above `nbits` stay zero, so reads past
    /// the end of input see the zero padding.
    #[inline]
    fn refill(&mut self) {
        // While 8 input bytes remain: one load, then keep as many whole
        // bytes of it as fit above the buffered bits.
        if let Some(word) = self.input.get(self.pos..self.pos + 8) {
            if self.nbits <= 56 {
                let word = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
                let bytes = (63 - self.nbits) / 8;
                self.acc |= (word & ((1 << (bytes * 8)) - 1)) << self.nbits;
                self.pos += bytes as usize;
                self.nbits += bytes * 8;
            }
            return;
        }
        while self.nbits <= 56 && self.pos < self.input.len() {
            self.acc |= u64::from(self.input[self.pos]) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Read `n` bits (n ≤ 32). Reading past the end of input yields zero
    /// bits, mirroring the zero padding `BitWriter::finish` applies; callers
    /// that need strict bounds should check [`BitReader::is_overrun`].
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> u32 {
        debug_assert!(n <= 32);
        if self.nbits < n {
            self.refill();
        }
        let mask = if n == 32 { u64::MAX } else { (1u64 << n) - 1 };
        let v = (self.acc & mask) as u32;
        self.acc >>= n;
        self.nbits = self.nbits.saturating_sub(n);
        v
    }

    /// Peek at the next `n` bits without consuming them.
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u32 {
        debug_assert!(n <= 32);
        if self.nbits < n {
            self.refill();
        }
        let mask = if n == 32 { u64::MAX } else { (1u64 << n) - 1 };
        (self.acc & mask) as u32
    }

    /// Consume `n` bits previously inspected with [`BitReader::peek_bits`].
    ///
    /// Like [`BitReader::read_bits`], consuming past the end of input eats
    /// the implicit zero padding (possible when decoding corrupt streams);
    /// callers detect overruns via structural checks or checksums.
    #[inline]
    pub fn consume(&mut self, n: u32) {
        self.acc >>= n;
        self.nbits = self.nbits.saturating_sub(n);
    }

    /// True once a read has requested bits beyond the input (including the
    /// implicit zero padding of the final byte).
    pub fn is_overrun(&self) -> bool {
        self.pos >= self.input.len() && self.nbits == 0
    }

    /// Error helper for callers that detect truncation.
    pub fn truncated() -> CodecError {
        CodecError::Truncated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b1010, 4);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(0x7F, 7);
        w.write_bits(0, 0);
        w.write_bits(0x3FFFF, 18);
        let bytes = w.finish();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1), 0b1);
        assert_eq!(r.read_bits(4), 0b1010);
        assert_eq!(r.read_bits(32), 0xDEADBEEF);
        assert_eq!(r.read_bits(7), 0x7F);
        assert_eq!(r.read_bits(0), 0);
        assert_eq!(r.read_bits(18), 0x3FFFF);
    }

    #[test]
    fn lsb_first_layout() {
        let mut w = BitWriter::new();
        // Writing 1,0,1,1 as single bits must produce 0b0000_1101.
        for bit in [1u32, 0, 1, 1] {
            w.write_bits(bit, 1);
        }
        assert_eq!(w.finish(), vec![0b0000_1101]);
    }

    #[test]
    fn peek_then_consume_matches_read() {
        let mut w = BitWriter::new();
        w.write_bits(0b110101, 6);
        w.write_bits(0xAB, 8);
        let bytes = w.finish();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(6), 0b110101);
        r.consume(6);
        assert_eq!(r.read_bits(8), 0xAB);
    }

    #[test]
    fn reading_past_end_yields_zeros() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8), 0xFF);
        assert_eq!(r.read_bits(16), 0);
        assert!(r.is_overrun());
    }

    #[test]
    fn resume_continues_mid_stream() {
        let bytes: Vec<u8> = (0..40u32).map(|i| (i * 37 + 11) as u8).collect();
        let mut whole = BitReader::new(&bytes);
        let head = (whole.read_bits(13), whole.read_bits(7));
        // The hand-over state of a reader that took 7 bytes of an 8-byte
        // load, consumed 20 bits, and still has byte 7 above the 36 bits
        // it owns.
        let word = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        assert_eq!(head, ((word & 0x1FFF) as u32, ((word >> 13) & 0x7F) as u32));
        let mut resumed = BitReader::resume(&bytes, 7, word >> 20, 36);
        while !whole.is_overrun() {
            assert_eq!(resumed.read_bits(11), whole.read_bits(11));
        }
        assert!(resumed.is_overrun());
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b101, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0xFF, 8);
        assert_eq!(w.bit_len(), 11);
    }

    #[test]
    fn many_single_bits_round_trip() {
        let bits: Vec<u32> = (0..1000).map(|i| (i * 7 % 3 == 0) as u32).collect();
        let mut w = BitWriter::new();
        for &b in &bits {
            w.write_bits(b, 1);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &b in &bits {
            assert_eq!(r.read_bits(1), b);
        }
    }
}
