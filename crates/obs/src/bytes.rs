//! One checked byte layer for every format SPATE reads back: the index
//! image, CAS manifests and packs, recorder images, serve frames and the
//! codec containers' headers.
//!
//! A format writes through a [`Writer`] and reads through a [`Reader`], or,
//! where a codec keeps its own cursor, through the free [`varint`]
//! functions. What a read gives back is refused or well-formed, never a
//! panic:
//!
//! - every read checks the bytes left before it looks at them;
//! - a declared count is refused before anything is reserved for it when
//!   the bytes left cannot hold that many entries ([`Reader::count`]);
//! - [`Reader::finish`] refuses bytes after a well-formed image.
//!
//! A length is written only if it fits the field the format gives it
//! ([`fit`]), so a frame never says one thing and carries another. Each
//! format turns a [`ByteError`] into the public error it reports. [`sweep`]
//! is the adversarial check every format's tests run its decoder through.
//!
//! This module imports nothing from the rest of `obs`.

use std::fmt;

/// Why a [`Reader`] refused its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteError {
    /// The bytes end before what they declare.
    Truncated,
    /// A well-formed image followed by this many more bytes.
    Trailing(usize),
    /// The bytes do not start with the format's magic.
    BadMagic,
    /// A string field that is not UTF-8.
    BadUtf8,
    /// A value its field cannot take: a count the bytes left cannot hold,
    /// a varint past 64 bits or past a `u32`, or a value the format
    /// refuses.
    OutOfRange { field: &'static str },
}

impl fmt::Display for ByteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ByteError::Truncated => write!(f, "truncated"),
            ByteError::Trailing(n) => write!(f, "{n} trailing bytes"),
            ByteError::BadMagic => write!(f, "bad magic"),
            ByteError::BadUtf8 => write!(f, "invalid utf-8"),
            ByteError::OutOfRange { field } => write!(f, "{field} out of range"),
        }
    }
}

impl std::error::Error for ByteError {}

/// `n`, the length of `field`, as the `T` its format stores it as.
///
/// # Panics
/// If `n` does not fit in `T`, naming `field`: a wrapped length would
/// frame the bytes behind it as something else.
#[inline]
pub fn fit<T: TryFrom<usize>>(field: &str, n: usize) -> T {
    match T::try_from(n) {
        Ok(fits) => fits,
        Err(_) => too_long(field, n, std::any::type_name::<T>()),
    }
}

/// [`fit`]'s panic, kept out of the line of every length written.
#[cold]
#[inline(never)]
fn too_long(field: &str, n: usize, ty: &str) -> ! {
    panic!("{field}: length {n} does not fit a {ty}");
}

/// The one LEB128 varint: seven bits a byte, least significant first, the
/// high bit set on every byte but the last.
pub mod varint {
    use super::{fit, ByteError};

    /// Append `value`.
    #[inline]
    pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
        loop {
            let byte = (value & 0x7F) as u8;
            value >>= 7;
            if value == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    /// Append `n`, the length of `field`, as the `u32` varint
    /// [`read_u32`] reads back.
    ///
    /// # Panics
    /// As [`fit`].
    #[inline]
    pub fn write_len(out: &mut Vec<u8>, field: &str, n: usize) {
        write_u64(out, fit::<u32>(field, n).into());
    }

    /// Decode the varint at `input[*pos]`, advancing `*pos` past it. A
    /// tenth byte may carry only the 64th bit.
    // Out of line: a container reads a few varints, and inlined into
    // gzip-lite's block decoder this loop slowed its inflate loop by ~9 %.
    #[inline(never)]
    pub fn read_u64(input: &[u8], pos: &mut usize) -> Result<u64, ByteError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *input.get(*pos).ok_or(ByteError::Truncated)?;
            *pos += 1;
            if shift == 63 && byte > 1 {
                return Err(ByteError::OutOfRange { field: "varint" });
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Decode a varint that must fit in a `u32`.
    #[inline]
    pub fn read_u32(input: &[u8], pos: &mut usize) -> Result<u32, ByteError> {
        let v = read_u64(input, pos)?;
        u32::try_from(v).map_err(|_| ByteError::OutOfRange {
            field: "u32 varint",
        })
    }
}

/// Appends a format's fields to a caller-owned buffer: little-endian
/// integers and floats, varints and checked lengths.
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    #[inline]
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Self { buf }
    }

    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }

    #[inline]
    pub fn varint(&mut self, v: u64) {
        varint::write_u64(self.buf, v);
    }

    /// Write `n`, the length of `field`, as the little-endian `T` the
    /// format gives it; [`Reader::len`] reads it back.
    ///
    /// # Panics
    /// As [`fit`].
    #[inline]
    pub fn len<T: TryFrom<usize> + Into<u64>>(&mut self, field: &str, n: usize) {
        let width = std::mem::size_of::<T>();
        self.bytes(&fit::<T>(field, n).into().to_le_bytes()[..width]);
    }
}

/// A cursor over bytes read back, every read checked against the bytes
/// left.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes read so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ByteError> {
        if self.remaining() < n {
            return Err(ByteError::Truncated);
        }
        let taken = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(taken)
    }

    /// The next `N` bytes, by value.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], ByteError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Refuse bytes that do not start with `magic`, too short ones
    /// included.
    #[inline]
    pub fn magic(&mut self, magic: &[u8]) -> Result<(), ByteError> {
        match self.take(magic.len()) {
            Ok(found) if found == magic => Ok(()),
            _ => Err(ByteError::BadMagic),
        }
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, ByteError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16, ByteError> {
        self.array().map(u16::from_le_bytes)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, ByteError> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, ByteError> {
        self.array().map(u64::from_le_bytes)
    }

    #[inline]
    pub fn i64(&mut self) -> Result<i64, ByteError> {
        self.array().map(i64::from_le_bytes)
    }

    #[inline]
    pub fn f64(&mut self) -> Result<f64, ByteError> {
        self.array().map(f64::from_le_bytes)
    }

    #[inline]
    pub fn varint(&mut self) -> Result<u64, ByteError> {
        varint::read_u64(self.bytes, &mut self.pos)
    }

    #[inline]
    pub fn varint_u32(&mut self) -> Result<u32, ByteError> {
        varint::read_u32(self.bytes, &mut self.pos)
    }

    /// A varint count of entries of `field` that take `min_entry_len`
    /// bytes (at least 1) apiece, refused when the bytes left cannot hold
    /// that many: before the caller reserves anything for them.
    #[inline]
    pub fn count(&mut self, min_entry_len: usize, field: &'static str) -> Result<usize, ByteError> {
        let n = self.varint()?;
        self.fits(n, min_entry_len, field)
    }

    /// A count written by [`Writer::len`] as a little-endian `T`, under
    /// [`Self::count`]'s rule.
    #[inline]
    pub fn len<T: Into<u64>>(
        &mut self,
        min_entry_len: usize,
        field: &'static str,
    ) -> Result<usize, ByteError> {
        let width = std::mem::size_of::<T>();
        let mut le = [0; 8];
        le[..width].copy_from_slice(self.take(width)?);
        self.fits(u64::from_le_bytes(le), min_entry_len, field)
    }

    #[inline]
    fn fits(&self, n: u64, min_entry_len: usize, field: &'static str) -> Result<usize, ByteError> {
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() / min_entry_len => Ok(n),
            _ => Err(ByteError::OutOfRange { field }),
        }
    }

    /// The next `n` bytes as UTF-8.
    #[inline]
    pub fn str(&mut self, n: usize) -> Result<&'a str, ByteError> {
        std::str::from_utf8(self.take(n)?).map_err(|_| ByteError::BadUtf8)
    }

    /// End the read, refusing any byte left over.
    #[inline]
    pub fn finish(&self) -> Result<(), ByteError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(ByteError::Trailing(n)),
        }
    }
}

/// One damaged copy of an image, as [`sweep`] hands it to its check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// The image cut to its first `n` bytes.
    Cut(usize),
    /// The image with bit `b % 8` of byte `b / 8` flipped.
    Flip(usize),
}

/// Run `check` on every proper prefix of `bytes`, then on every copy of
/// `bytes` with one bit flipped. A decoder's test asserts in `check` that
/// each damaged copy is refused or read back well-formed: whatever it
/// returns, it must return.
pub fn sweep(bytes: &[u8], mut check: impl FnMut(Damage, &[u8])) {
    for cut in 0..bytes.len() {
        check(Damage::Cut(cut), &bytes[..cut]);
    }
    let mut flipped = bytes.to_vec();
    for bit in 0..bytes.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        check(Damage::Flip(bit), &flipped);
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, v);
        out
    }

    #[test]
    fn varints_round_trip_at_their_lengths() {
        for (v, len) in [
            (0u64, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u32::MAX), 5),
            (u64::MAX / 2, 9),
            (u64::MAX, 10),
        ] {
            let bytes = encoded(v);
            assert_eq!(bytes.len(), len, "{v}");
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint(), Ok(v));
            assert_eq!(r.finish(), Ok(()));
        }
        let mut seq = Vec::new();
        let values = [5u64, 300, 0, 70_000, 2];
        for &v in &values {
            varint::write_u64(&mut seq, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(varint::read_u64(&seq, &mut pos), Ok(v));
        }
        assert_eq!(pos, seq.len());
    }

    #[test]
    fn a_varint_past_64_bits_or_its_u32_is_refused() {
        let overflow = ByteError::OutOfRange { field: "varint" };
        let mut cut = encoded(1 << 20);
        cut.pop();
        let cases: [(&[u8], ByteError); 4] = [
            (&cut, ByteError::Truncated),
            (&[0x80; 11], overflow),
            // A tenth byte that carries more than the 64th bit.
            (
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F],
                overflow,
            ),
            (
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
                overflow,
            ),
        ];
        for (bytes, refused) in cases {
            assert_eq!(Reader::new(bytes).varint(), Err(refused), "{bytes:x?}");
        }
        let past_u32 = encoded(u64::from(u32::MAX) + 1);
        assert_eq!(
            Reader::new(&past_u32).varint_u32(),
            Err(ByteError::OutOfRange {
                field: "u32 varint"
            })
        );
    }

    /// Every width a format gives a length: the longest that fits is
    /// written at that width, one more panics naming its field.
    #[test]
    fn a_length_is_written_at_its_width_or_panics_naming_its_field() {
        type Write = fn(&mut Vec<u8>, &str, usize);
        let cases: [(&str, u64, Write, &[u8]); 4] = [
            (
                "header tables",
                u8::MAX.into(),
                |out, f, n| Writer::new(out).len::<u8>(f, n),
                &[0xFF],
            ),
            (
                "explore attributes",
                u16::MAX.into(),
                |out, f, n| Writer::new(out).len::<u16>(f, n),
                &[0xFF; 2],
            ),
            (
                "stats counters",
                u32::MAX.into(),
                |out, f, n| Writer::new(out).len::<u32>(f, n),
                &[0xFF; 4],
            ),
            (
                "gzip block bits",
                u32::MAX.into(),
                varint::write_len,
                &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F],
            ),
        ];
        for (field, max, write, bytes) in cases {
            let (max, mut out) = (max as usize, Vec::new());
            write(&mut out, field, max);
            assert_eq!(out, bytes, "{field}");
            let panicked = std::panic::catch_unwind(|| write(&mut Vec::new(), field, max + 1));
            let message = panicked.expect_err(field);
            let message = message.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                message.starts_with(&format!("{field}: length {}", max + 1)),
                "{message}"
            );
        }
    }

    #[test]
    fn a_count_the_bytes_left_cannot_hold_is_refused_naming_its_field() {
        // Three entries of two bytes fit in six bytes left; four do not.
        for (n, fits) in [(3u8, true), (4, false)] {
            let bytes = [&[n][..], &[0; 6]].concat();
            let counted = Reader::new(&bytes).count(2, "cells");
            let le = Reader::new(&bytes).len::<u8>(2, "cells");
            for got in [counted, le] {
                match fits {
                    true => assert_eq!(got, Ok(usize::from(n))),
                    false => assert_eq!(got, Err(ByteError::OutOfRange { field: "cells" })),
                }
            }
        }
    }

    #[test]
    fn reads_stop_at_the_end_and_finish_refuses_what_is_left() {
        let mut out = Vec::new();
        let mut w = Writer::new(&mut out);
        w.bytes(b"MAG");
        w.u16(0xBEEF);
        w.i64(-2);
        w.f64(1.5);
        w.varint(300);
        w.bytes("é".as_bytes());
        let mut r = Reader::new(&out);
        assert_eq!(r.magic(b"MAG"), Ok(()));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.i64(), Ok(-2));
        assert_eq!(r.f64(), Ok(1.5));
        assert_eq!(r.varint(), Ok(300));
        assert_eq!(r.remaining(), 2);
        assert_eq!(Reader::new(&out[r.pos()..]).str(1), Err(ByteError::BadUtf8));
        assert_eq!(r.str(2), Ok("é"));
        assert_eq!(r.u8(), Err(ByteError::Truncated));
        assert_eq!(Reader::new(b"MA").magic(b"MAG"), Err(ByteError::BadMagic));
        let mut left = Reader::new(&out);
        left.take(3).unwrap();
        assert_eq!(left.finish(), Err(ByteError::Trailing(out.len() - 3)));
    }

    #[test]
    fn the_sweep_cuts_every_prefix_and_flips_every_bit() {
        let mut seen = Vec::new();
        sweep(&[0b10, 0], |damage, bytes| {
            seen.push((damage, bytes.to_vec()))
        });
        assert_eq!(seen.len(), 2 + 16);
        assert_eq!(seen[1], (Damage::Cut(1), vec![0b10]));
        assert_eq!(seen[2], (Damage::Flip(0), vec![0b11, 0]));
        assert_eq!(seen[3], (Damage::Flip(1), vec![0, 0]));
        assert_eq!(seen[17], (Damage::Flip(15), vec![0b10, 0x80]));
    }
}
