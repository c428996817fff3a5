//! LEB128-style variable-length integers used by container headers and the
//! byte-oriented Snappy-class format.

use crate::CodecError;

/// Append `value` as a little-endian base-128 varint.
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

/// Append a `u32` varint.
#[inline]
pub fn write_u32(out: &mut Vec<u8>, value: u32) {
    write_u64(out, u64::from(value));
}

/// Append `n`, the length of `field`, as a `u32` varint.
///
/// # Panics
/// If `n` does not fit in a `u32`, naming `field`: a truncated length
/// would frame the bytes behind it as something else.
#[inline]
pub fn write_len(out: &mut Vec<u8>, field: &str, n: usize) {
    write_u32(out, len_u32(field, n));
}

/// `n`, the length of `field`, as the `u32` a container stores it as.
///
/// # Panics
/// As [`write_len`].
#[inline]
pub fn len_u32(field: &str, n: usize) -> u32 {
    match u32::try_from(n) {
        Ok(fits) => fits,
        Err(_) => too_long(field, n),
    }
}

/// [`len_u32`]'s panic, kept out of the line of every length written.
#[cold]
#[inline(never)]
fn too_long(field: &str, n: usize) -> ! {
    panic!("{field}: length {n} does not fit a u32 varint");
}

/// Decode a varint starting at `input[*pos]`, advancing `*pos`.
#[inline]
pub fn read_u64(input: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *input.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(CodecError::Corrupt("varint overflow"));
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::Corrupt("varint too long"));
        }
    }
}

/// Decode a `u32` varint, rejecting values that do not fit.
#[inline]
pub fn read_u32(input: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
    let v = read_u64(input, pos)?;
    u32::try_from(v).map_err(|_| CodecError::Corrupt("varint exceeds u32"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX / 2,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn encoding_lengths() {
        let len = |v: u64| {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            buf.len()
        };
        assert_eq!(len(0), 1);
        assert_eq!(len(127), 1);
        assert_eq!(len(128), 2);
        assert_eq!(len(16_383), 2);
        assert_eq!(len(16_384), 3);
        assert_eq!(len(u64::MAX), 10);
    }

    #[test]
    fn a_length_that_fits_is_written_as_its_u32() {
        let (mut checked, mut plain) = (Vec::new(), Vec::new());
        write_len(&mut checked, "field", u32::MAX as usize);
        write_u32(&mut plain, u32::MAX);
        assert_eq!(checked, plain);
    }

    #[test]
    #[should_panic(expected = "gzip block bits: length 4294967296 does not fit a u32 varint")]
    fn a_length_past_u32_is_not_written() {
        write_len(&mut Vec::new(), "gzip block bits", 1 << 32);
    }

    #[test]
    #[should_panic(expected = "cas constant index: length 4294967297")]
    fn a_length_past_u32_is_not_truncated() {
        len_u32("cas constant index", (1 << 32) + 1);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 1 << 20);
        buf.pop();
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), Err(CodecError::Truncated));
    }

    #[test]
    fn overlong_input_is_rejected() {
        let buf = vec![0x80u8; 11];
        let mut pos = 0;
        assert!(matches!(
            read_u64(&buf, &mut pos),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn u32_range_check() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::from(u32::MAX) + 1);
        let mut pos = 0;
        assert!(matches!(
            read_u32(&buf, &mut pos),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn sequence_of_varints() {
        let values = [5u64, 300, 0, 70_000, 2];
        let mut buf = Vec::new();
        for &v in &values {
            write_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }
}
