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
use obs::bytes::{ByteError, Reader, Writer};
use std::ops::Range;

/// Magic prefix of a pack file.
pub const PACK_MAGIC: &[u8; 6] = b"CASPK1";

/// Lay the unit streams out as one pack file.
pub fn encode(units: &[Vec<u8>]) -> Vec<u8> {
    let streams: usize = units.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(PACK_MAGIC.len() + 3 * (units.len() + 1) + streams);
    let mut w = Writer::new(&mut out);
    w.bytes(PACK_MAGIC);
    w.varint(units.len() as u64);
    for unit in units {
        w.varint(unit.len() as u64);
    }
    for unit in units {
        w.bytes(unit);
    }
    out
}

/// Where each unit's stream lies in the pack file `stored`. Every count
/// and length comes off the disk: the directory must account for the file
/// to its last byte, and nothing is sized beyond the bytes present.
pub fn unit_ranges(stored: &[u8]) -> Result<Vec<Range<usize>>, CasError> {
    read_directory(stored).map_err(|e| CasError::Corrupt(format!("pack: {e}")))
}

fn read_directory(stored: &[u8]) -> Result<Vec<Range<usize>>, ByteError> {
    let mut r = Reader::new(stored);
    r.magic(PACK_MAGIC)?;
    // A unit takes a directory byte at least.
    let n_units = r.count(1, "unit count")?;
    let lens = (0..n_units).map(|_| r.count(1, "unit length"));
    let lens = lens.collect::<Result<Vec<_>, _>>()?;
    let mut ranges = Vec::with_capacity(n_units);
    for len in lens {
        let start = r.pos();
        r.take(len)?;
        ranges.push(start..r.pos());
    }
    r.finish()?;
    Ok(ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::bytes::{sweep, varint, Damage};

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
    /// byte appended; a changed byte is refused or describes ranges inside
    /// the file (the unit's own CRC is the next check).
    #[test]
    fn every_prefix_and_directory_flip_is_refused_or_in_bounds() {
        let stored = encode(&[vec![1u8; 200], vec![2u8; 3], vec![3u8; 70_000]]);
        sweep(&stored, |damage, bytes| {
            match (damage, unit_ranges(bytes)) {
                (Damage::Cut(_), ranges) => assert!(ranges.is_err(), "{damage:?}"),
                (Damage::Flip(_), Ok(ranges)) => {
                    assert!(ranges.iter().all(|r| r.end <= bytes.len()), "{damage:?}")
                }
                (Damage::Flip(_), Err(_)) => {}
            }
        });
        let mut longer = stored.clone();
        longer.push(0);
        assert!(unit_ranges(&longer).is_err());
    }

    #[test]
    fn declared_sizes_past_the_file_are_corrupt_not_an_allocation() {
        let refused = |stored: &[u8]| match unit_ranges(stored) {
            Err(CasError::Corrupt(why)) => why,
            other => panic!("expected Corrupt, got {other:?}"),
        };
        // 2^63 units; then one unit of 2^64 - 1 bytes.
        let mut huge_count = PACK_MAGIC.to_vec();
        varint::write_u64(&mut huge_count, 1 << 63);
        assert_eq!(refused(&huge_count), "pack: unit count out of range");
        let mut huge_unit = PACK_MAGIC.to_vec();
        varint::write_u64(&mut huge_unit, 1);
        varint::write_u64(&mut huge_unit, u64::MAX);
        huge_unit.push(0);
        assert_eq!(refused(&huge_unit), "pack: unit length out of range");
        // One unit more than the bytes after the count hold.
        let mut one_past = encode(&[vec![7u8; 2]]);
        one_past[PACK_MAGIC.len()] = 4;
        assert_eq!(refused(&one_past), "pack: unit count out of range");
    }
}
