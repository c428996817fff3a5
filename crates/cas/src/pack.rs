//! The pack container: independently compressed *units* in one file.
//!
//! ```text
//! "CASPK1" · n_units · stored_len of each unit (varints) · the unit streams
//! ```
//!
//! A unit is an ordinary [`codecs::Codec`] stream — its own length and
//! CRC-32 — holding one table's run, so a reader inflates the unit of the
//! table it wants and no other. The file as a whole is what the address
//! its manifest records hashes and what every read verifies. Unit `u` is
//! the `u`-th table that has one, and the manifest addresses its inflated
//! bytes by hash: a unit smaller than a table needs a new manifest format.

use crate::CasError;
use codecs::varint;
use std::ops::Range;

/// Magic prefix of a pack file.
pub const PACK_MAGIC: &[u8; 6] = b"CASPK1";

/// Lay the unit streams out as one pack file.
pub fn encode(units: &[Vec<u8>]) -> Vec<u8> {
    let streams: usize = units.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(PACK_MAGIC.len() + 3 * (units.len() + 1) + streams);
    out.extend_from_slice(PACK_MAGIC);
    varint::write_u64(&mut out, units.len() as u64);
    for unit in units {
        varint::write_u64(&mut out, unit.len() as u64);
    }
    for unit in units {
        out.extend_from_slice(unit);
    }
    out
}

/// Where each unit's stream lies in the pack file `stored`. Every count
/// and length comes off the disk: the directory must account for the file
/// to its last byte, and nothing is sized beyond the bytes present.
pub fn unit_ranges(stored: &[u8]) -> Result<Vec<Range<usize>>, CasError> {
    let corrupt = |what: &str| CasError::Corrupt(format!("pack: {what}"));
    if !stored.starts_with(PACK_MAGIC) {
        return Err(corrupt("bad magic"));
    }
    let mut pos = PACK_MAGIC.len();
    let n_units = varint::read_u64(stored, &mut pos).map_err(|_| corrupt("unit count"))?;
    // A unit takes a directory byte at least.
    let n_units = usize::try_from(n_units)
        .ok()
        .filter(|&n| n <= stored.len() - pos)
        .ok_or_else(|| corrupt("more units than bytes"))?;
    let mut lens = Vec::with_capacity(n_units);
    for _ in 0..n_units {
        let len = varint::read_u64(stored, &mut pos).map_err(|_| corrupt("unit length"))?;
        lens.push(usize::try_from(len).map_err(|_| corrupt("unit length"))?);
    }
    let mut ranges = Vec::with_capacity(n_units);
    for len in lens {
        let end = pos
            .checked_add(len)
            .filter(|&end| end <= stored.len())
            .ok_or_else(|| corrupt("unit past the end of the file"))?;
        ranges.push(pos..end);
        pos = end;
    }
    if pos != stored.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(ranges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_directory_finds_every_unit() {
        let units = vec![b"first unit".to_vec(), Vec::new(), vec![7u8; 300]];
        let stored = encode(&units);
        let ranges = unit_ranges(&stored).unwrap();
        assert_eq!(ranges.len(), 3);
        for (range, unit) in ranges.into_iter().zip(&units) {
            assert_eq!(&stored[range], unit.as_slice());
        }
        assert_eq!(unit_ranges(&encode(&[])).unwrap(), []);
    }

    /// No prefix of a pack file has a directory, nor has the file with a
    /// byte appended; a changed directory byte is refused or describes
    /// ranges inside the file (the unit's own CRC is the next check).
    #[test]
    fn every_prefix_and_directory_flip_is_refused_or_in_bounds() {
        let stored = encode(&[vec![1u8; 200], vec![2u8; 3], vec![3u8; 70_000]]);
        for cut in 0..stored.len() {
            assert!(unit_ranges(&stored[..cut]).is_err(), "cut={cut}");
        }
        let mut longer = stored.clone();
        longer.push(0);
        assert!(unit_ranges(&longer).is_err());
        for at in 0..16 {
            for bit in 0..8 {
                let mut flipped = stored.clone();
                flipped[at] ^= 1 << bit;
                if let Ok(ranges) = unit_ranges(&flipped) {
                    assert!(ranges.iter().all(|r| r.end <= flipped.len()), "at {at}");
                }
            }
        }
    }

    #[test]
    fn declared_sizes_past_the_file_are_corrupt_not_an_allocation() {
        // 2^63 units; then one unit of 2^64 - 1 bytes.
        let mut huge_count = PACK_MAGIC.to_vec();
        varint::write_u64(&mut huge_count, 1 << 63);
        assert!(unit_ranges(&huge_count).is_err());
        let mut huge_unit = PACK_MAGIC.to_vec();
        varint::write_u64(&mut huge_unit, 1);
        varint::write_u64(&mut huge_unit, u64::MAX);
        huge_unit.push(0);
        assert!(unit_ranges(&huge_unit).is_err());
    }
}
