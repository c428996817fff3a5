//! Binary persistence of the temporal index.
//!
//! The paper's warehouse is long-running: highlights accumulate over
//! months and years and must survive restarts. This module serializes the
//! whole [`TemporalIndex`] — node structure, leaf metadata, highlights —
//! into a compact varint-based binary image; [`crate::SpateFramework`]
//! stores it (compressed) beside the snapshots.

use crate::index::highlights::{CellSummary, FreqTable, HighlightConfig, Highlights};
use crate::index::{DayNode, EpochLeaf, MonthNode, TemporalIndex, YearNode};
use codecs::CodecError;
use obs::bytes::{ByteError, Reader, Writer};
use shahed::AggStats;
use std::fmt;
use telco_trace::time::EpochId;

const MAGIC: &[u8; 4] = b"SPIX";
/// Version 3 is the structural tree alone: what was ingested and what
/// decayed, nothing about what was queried. Versions 1 and 2 are refused
/// like any other unknown version.
const VERSION: u8 = 3;

/// Errors restoring a persisted index image.
#[derive(Debug)]
pub enum PersistError {
    BadMagic,
    BadVersion(u8),
    Corrupt(CodecError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not an index image"),
            PersistError::BadVersion(v) => write!(f, "unsupported index image version {v}"),
            PersistError::Corrupt(e) => write!(f, "corrupt index image: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<ByteError> for PersistError {
    #[inline]
    fn from(e: ByteError) -> Self {
        match e {
            ByteError::BadMagic => PersistError::BadMagic,
            other => PersistError::Corrupt(other.into()),
        }
    }
}

// ------------------------------------------------------------- writers

fn write_agg(w: &mut Writer, a: &AggStats) {
    w.varint(a.count);
    w.f64(a.sum);
    w.f64(a.min);
    w.f64(a.max);
}

fn write_cell_summary(w: &mut Writer, c: &CellSummary) {
    w.varint(c.cdr_records);
    w.varint(c.cdr_drops);
    write_agg(w, &c.upflux);
    write_agg(w, &c.downflux);
    write_agg(w, &c.duration_s);
    w.varint(c.nms_reports);
    write_agg(w, &c.attempts);
    write_agg(w, &c.drops);
    write_agg(w, &c.throughput);
}

fn write_highlights(w: &mut Writer, h: &Highlights) {
    w.varint(u64::from(h.first_epoch.0));
    w.varint(u64::from(h.last_epoch.0));
    w.varint(h.cdr_records);
    w.varint(h.nms_records);
    // Cells sorted for deterministic images.
    let mut cells: Vec<(&u32, &CellSummary)> = h.per_cell.iter().collect();
    cells.sort_by_key(|(id, _)| **id);
    w.varint(cells.len() as u64);
    for (id, summary) in cells {
        w.varint(u64::from(*id));
        write_cell_summary(w, summary);
    }
    w.varint(h.attr_freqs.len() as u64);
    for table in &h.attr_freqs {
        w.varint(table.total);
        let mut entries: Vec<(&String, &u64)> = table.counts.iter().collect();
        entries.sort();
        w.varint(entries.len() as u64);
        for (value, count) in entries {
            w.varint(value.len() as u64);
            w.bytes(value.as_bytes());
            w.varint(*count);
        }
    }
}

fn write_leaf(w: &mut Writer, l: &EpochLeaf) {
    w.varint(u64::from(l.epoch.0));
    w.varint(l.path.len() as u64);
    w.bytes(l.path.as_bytes());
    w.varint(l.raw_bytes);
    w.varint(l.stored_bytes);
    w.u8(u8::from(l.present));
}

/// Serialize the whole index.
pub fn to_bytes(index: &TemporalIndex) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 << 10);
    let w = &mut Writer::new(&mut out);
    w.bytes(MAGIC);
    w.u8(VERSION);

    // Config.
    let config = &index.config;
    w.varint(config.categorical_attrs.len() as u64);
    for &a in &config.categorical_attrs {
        w.varint(a as u64);
    }
    w.f64(config.theta_day);
    w.f64(config.theta_month);
    w.f64(config.theta_year);

    // Last epoch.
    match index.last_epoch {
        Some(e) => {
            w.u8(1);
            w.varint(u64::from(e.0));
        }
        None => w.u8(0),
    }

    write_highlights(w, &index.root_highlights);

    w.varint(index.years.len() as u64);
    for y in &index.years {
        w.varint(u64::from(y.year));
        w.u8(u8::from(y.decayed));
        write_highlights(w, &y.highlights);
        w.varint(y.months.len() as u64);
        for m in &y.months {
            w.varint(u64::from(m.month));
            w.u8(u8::from(m.decayed));
            write_highlights(w, &m.highlights);
            w.varint(m.days.len() as u64);
            for d in &m.days {
                w.varint(u64::from(d.day_index));
                w.u8(u8::from(d.decayed));
                write_highlights(w, &d.highlights);
                w.varint(d.leaves.len() as u64);
                for l in &d.leaves {
                    write_leaf(w, l);
                }
            }
        }
    }
    out
}

// ------------------------------------------------------------- readers

// The fewest bytes one entry of each counted list can take (a varint is at
// least one byte, an `f64` eight): what `Reader::count` divides by.
const MIN_AGG_LEN: usize = 1 + 3 * 8;
const MIN_CELL_LEN: usize = 1 + 3 + 6 * MIN_AGG_LEN;
const MIN_VALUE_LEN: usize = 1 + 1;
const MIN_TABLE_LEN: usize = 1 + 1;
/// Year, decayed flag, empty highlights (six varints), month count.
const MIN_YEAR_LEN: usize = 1 + 1 + 6 + 1;

fn read_string(r: &mut Reader) -> Result<String, PersistError> {
    let len = r.count(1, "string length exceeds image")?;
    Ok(r.str(len)?.to_string())
}

fn read_agg(r: &mut Reader) -> Result<AggStats, PersistError> {
    Ok(AggStats {
        count: r.varint()?,
        sum: r.f64()?,
        min: r.f64()?,
        max: r.f64()?,
    })
}

fn read_cell_summary(r: &mut Reader) -> Result<CellSummary, PersistError> {
    Ok(CellSummary {
        cdr_records: r.varint()?,
        cdr_drops: r.varint()?,
        upflux: read_agg(r)?,
        downflux: read_agg(r)?,
        duration_s: read_agg(r)?,
        nms_reports: r.varint()?,
        attempts: read_agg(r)?,
        drops: read_agg(r)?,
        throughput: read_agg(r)?,
    })
}

fn read_highlights(r: &mut Reader) -> Result<Highlights, PersistError> {
    let first_epoch = EpochId(r.varint_u32()?);
    let last_epoch = EpochId(r.varint_u32()?);
    let cdr_records = r.varint()?;
    let nms_records = r.varint()?;
    let n_cells = r.count(MIN_CELL_LEN, "cell count exceeds image")?;
    let mut per_cell = std::collections::HashMap::with_capacity(n_cells);
    for _ in 0..n_cells {
        let id = r.varint_u32()?;
        per_cell.insert(id, read_cell_summary(r)?);
    }
    let n_tables = r.count(MIN_TABLE_LEN, "table count exceeds image")?;
    let mut attr_freqs = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let total = r.varint()?;
        let n = r.count(MIN_VALUE_LEN, "value count exceeds image")?;
        let mut counts = std::collections::HashMap::with_capacity(n);
        for _ in 0..n {
            let value = read_string(r)?;
            let count = r.varint()?;
            counts.insert(value, count);
        }
        attr_freqs.push(FreqTable { counts, total });
    }
    Ok(Highlights {
        first_epoch,
        last_epoch,
        cdr_records,
        nms_records,
        per_cell,
        attr_freqs,
    })
}

fn read_leaf(r: &mut Reader) -> Result<EpochLeaf, PersistError> {
    Ok(EpochLeaf {
        epoch: EpochId(r.varint_u32()?),
        path: read_string(r)?,
        raw_bytes: r.varint()?,
        stored_bytes: r.varint()?,
        present: r.u8()? != 0,
    })
}

/// Restore an index from a serialized image.
pub fn from_bytes(input: &[u8]) -> Result<TemporalIndex, PersistError> {
    let r = &mut Reader::new(input);
    r.magic(MAGIC)?;
    match r.u8() {
        Ok(VERSION) => {}
        Ok(other) => return Err(PersistError::BadVersion(other)),
        Err(_) => return Err(PersistError::BadMagic),
    }

    let n_attrs = r.count(1, "attr count exceeds image")?;
    let mut categorical_attrs = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        categorical_attrs.push(r.varint()? as usize);
    }
    let config = HighlightConfig {
        categorical_attrs,
        theta_day: r.f64()?,
        theta_month: r.f64()?,
        theta_year: r.f64()?,
    };

    let last_epoch = if r.u8()? != 0 {
        Some(EpochId(r.varint_u32()?))
    } else {
        None
    };
    let root_highlights = read_highlights(r)?;

    let n_years = r.count(MIN_YEAR_LEN, "year count exceeds image")?;
    let mut years = Vec::with_capacity(n_years);
    for _ in 0..n_years {
        let year = r.varint_u32()?;
        let decayed = r.u8()? != 0;
        let highlights = read_highlights(r)?;
        let n_months = r.varint()? as usize;
        if n_months > 12 {
            return Err(PersistError::Corrupt(CodecError::Corrupt(
                "more than 12 months in a year",
            )));
        }
        let mut months = Vec::with_capacity(n_months);
        for _ in 0..n_months {
            let month = r.varint_u32()?;
            let m_decayed = r.u8()? != 0;
            let m_highlights = read_highlights(r)?;
            let n_days = r.varint()? as usize;
            if n_days > 31 {
                return Err(PersistError::Corrupt(CodecError::Corrupt(
                    "more than 31 days in a month",
                )));
            }
            let mut days = Vec::with_capacity(n_days);
            for _ in 0..n_days {
                let day_index = r.varint_u32()?;
                let d_decayed = r.u8()? != 0;
                let d_highlights = read_highlights(r)?;
                let n_leaves = r.varint()? as usize;
                if n_leaves > 48 {
                    return Err(PersistError::Corrupt(CodecError::Corrupt(
                        "more than 48 epochs in a day",
                    )));
                }
                let mut leaves = Vec::with_capacity(n_leaves);
                for _ in 0..n_leaves {
                    leaves.push(read_leaf(r)?);
                }
                days.push(DayNode {
                    day_index,
                    highlights: d_highlights,
                    leaves,
                    decayed: d_decayed,
                });
            }
            months.push(MonthNode {
                year,
                month,
                highlights: m_highlights,
                days,
                decayed: m_decayed,
            });
        }
        years.push(YearNode {
            year,
            highlights,
            months,
            decayed,
        });
    }
    r.finish()?;

    Ok(TemporalIndex {
        config,
        years,
        root_highlights,
        last_epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SnapshotStore;
    use codecs::GzipLite;
    use dfs::Dfs;
    use obs::bytes::{sweep, varint, Damage};
    use std::sync::Arc;
    use telco_trace::{TraceConfig, TraceGenerator};

    fn build_index(n: usize) -> TemporalIndex {
        let store = SnapshotStore::new(Dfs::in_memory(), Arc::new(GzipLite::default()));
        let mut index = TemporalIndex::new(HighlightConfig::default());
        let mut config = TraceConfig::scaled(1.0 / 1024.0);
        config.days = (n as u32 / 48) + 1;
        for snap in TraceGenerator::new(config).take(n) {
            let stored = store.store(&snap).unwrap();
            index.incremence(&snap, &stored);
        }
        index
    }

    #[test]
    fn round_trip_preserves_everything() {
        let index = build_index(60); // spans two days
        let image = to_bytes(&index);
        let restored = from_bytes(&image).unwrap();

        assert_eq!(restored.last_epoch(), index.last_epoch());
        assert_eq!(
            restored.root_highlights().cdr_records,
            index.root_highlights().cdr_records
        );
        assert_eq!(restored.years().len(), index.years().len());
        let (y0, y1) = (&index.years()[0], &restored.years()[0]);
        assert_eq!(y0.year, y1.year);
        assert_eq!(y0.months.len(), y1.months.len());
        let (m0, m1) = (&y0.months[0], &y1.months[0]);
        assert_eq!(m0.days.len(), m1.days.len());
        assert_eq!(m0.highlights, m1.highlights);
        for (d0, d1) in m0.days.iter().zip(&m1.days) {
            assert_eq!(d0.day_index, d1.day_index);
            assert_eq!(d0.highlights, d1.highlights);
            assert_eq!(d0.leaves.len(), d1.leaves.len());
            for (l0, l1) in d0.leaves.iter().zip(&d1.leaves) {
                assert_eq!(l0.epoch, l1.epoch);
                assert_eq!(l0.path, l1.path);
                assert_eq!(l0.present, l1.present);
            }
        }
        // Covering decisions identical after restore.
        let c0 = format!("{:?}", index.find_covering(EpochId(3), EpochId(9)));
        let c1 = format!("{:?}", restored.find_covering(EpochId(3), EpochId(9)));
        assert_eq!(c0, c1);
    }

    #[test]
    fn serialization_is_deterministic() {
        let index = build_index(20);
        assert_eq!(to_bytes(&index), to_bytes(&index));
        // And stable across an extra round trip.
        let again = to_bytes(&from_bytes(&to_bytes(&index)).unwrap());
        assert_eq!(again, to_bytes(&index));
    }

    #[test]
    fn empty_index_round_trips() {
        let index = TemporalIndex::new(HighlightConfig::default());
        let restored = from_bytes(&to_bytes(&index)).unwrap();
        assert_eq!(restored.last_epoch(), None);
        assert!(restored.years().is_empty());
    }

    #[test]
    fn rejects_garbage_and_wrong_versions() {
        assert!(matches!(from_bytes(b""), Err(PersistError::BadMagic)));
        assert!(matches!(from_bytes(b"NOPE!"), Err(PersistError::BadMagic)));
        let mut image = to_bytes(&build_index(4));
        image[4] = 99;
        assert!(matches!(
            from_bytes(&image),
            Err(PersistError::BadVersion(99))
        ));
    }

    #[test]
    fn truncated_and_flipped_images_never_panic() {
        let image = to_bytes(&build_index(3));
        sweep(&image, |damage, bytes| match damage {
            Damage::Cut(_) => assert!(from_bytes(bytes).is_err(), "{damage:?}"),
            // Ok or Err, either is fine: it must return.
            Damage::Flip(_) => drop(from_bytes(bytes)),
        });
    }

    #[test]
    fn an_image_with_a_byte_appended_is_refused() {
        let mut image = to_bytes(&build_index(3));
        image.push(0);
        assert!(matches!(
            from_bytes(&image),
            Err(PersistError::Corrupt(CodecError::Corrupt("trailing bytes")))
        ));
    }

    fn assert_exceeds_image(forged: &[u8], site: &str) {
        match from_bytes(forged) {
            Err(PersistError::Corrupt(CodecError::Corrupt(why)))
                if why.ends_with("count exceeds image") => {}
            Err(other) => panic!("{site}: refused, but by the read loop: {other}"),
            Ok(_) => panic!("{site}: accepted"),
        }
    }

    #[test]
    fn a_forged_count_is_refused_before_anything_is_reserved() {
        // Each count below, 1 << 24, is one `Reader::count` must refuse:
        // the bytes left cannot hold that many entries, and an entry is
        // hundreds of bytes in memory, so reserving for it would take
        // gigabytes. The error must come from the count, not from the
        // read loop running off the end (`Truncated`).
        let image = to_bytes(&build_index(3));
        // Walk the valid image to where each count sits.
        let mut r = Reader::new(&image[5..]);
        for _ in 0..r.varint().unwrap() {
            r.varint().unwrap();
        }
        r.take(3 * 8).unwrap();
        if r.u8().unwrap() != 0 {
            r.varint_u32().unwrap();
        }
        for _ in 0..4 {
            r.varint().unwrap();
        }
        let cells_at = 5 + r.pos();
        for _ in 0..r.varint().unwrap() {
            r.varint_u32().unwrap();
            read_cell_summary(&mut r).unwrap();
        }
        assert!(r.varint().unwrap() > 0, "the root has frequency tables");
        r.varint().unwrap();
        let values_at = 5 + r.pos();

        for (site, at) in [("cells", cells_at), ("values", values_at)] {
            let mut r = Reader::new(&image[at..]);
            assert!(r.varint().unwrap() < 1 << 24);
            let mut forged = image[..at].to_vec();
            varint::write_u64(&mut forged, 1 << 24);
            forged.extend_from_slice(&image[at + r.pos()..]);
            assert_exceeds_image(&forged, site);
        }

        // The same forgery in 39 bytes: an empty config, no last epoch and
        // a root that declares 1 << 24 cells.
        let mut tiny = b"SPIX\x03\x00".to_vec();
        tiny.extend_from_slice(&[0; 3 * 8 + 1 + 4]);
        varint::write_u64(&mut tiny, 1 << 24);
        assert_eq!(tiny.len(), 39);
        assert_exceeds_image(&tiny, "39-byte image");
    }

    #[test]
    fn version_2_images_are_refused() {
        // A v2 image was today's structural payload followed by a section
        // of query history; the version byte alone turns it away.
        let mut image = to_bytes(&build_index(6));
        assert_eq!(image[4], 3, "current images are v3");
        image[4] = 2;
        assert!(matches!(
            from_bytes(&image),
            Err(PersistError::BadVersion(2))
        ));
    }

    #[test]
    fn the_image_depends_only_on_what_was_ingested() {
        use crate::framework::{ExplorationFramework, SpateFramework};
        use crate::query::{Query, QueryResult};
        use telco_trace::cells::BoundingBox;

        let mut generator = TraceGenerator::new(TraceConfig::tiny());
        let mut fw = SpateFramework::in_memory(generator.layout().clone());
        for snap in (&mut generator).take(6) {
            fw.ingest(&snap);
        }
        let before = to_bytes(fw.index());
        let q =
            Query::new(&["upflux", "downflux"], BoundingBox::everything()).with_epoch_range(1, 4);
        for _ in 0..3 {
            assert!(matches!(fw.query(&q), QueryResult::Exact(_)));
        }
        assert_eq!(to_bytes(fw.index()), before, "queries left a mark");
    }
}
