//! Binary persistence of the temporal index.
//!
//! The paper's warehouse is long-running: highlights accumulate over
//! months and years and must survive restarts. This module serializes the
//! whole [`TemporalIndex`] — node structure, leaf metadata, highlights —
//! into a compact varint-based binary image; [`crate::SpateFramework`]
//! stores it (compressed) beside the snapshots.

use crate::index::highlights::{CellSummary, FreqTable, HighlightConfig, Highlights};
use crate::index::{DayNode, EpochLeaf, MonthNode, TemporalIndex, YearNode};
use codecs::varint;
use codecs::CodecError;
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

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        PersistError::Corrupt(e)
    }
}

// ------------------------------------------------------------- writers

fn write_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_string(out: &mut Vec<u8>, s: &str) {
    varint::write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn write_agg(out: &mut Vec<u8>, a: &AggStats) {
    varint::write_u64(out, a.count);
    write_f64(out, a.sum);
    write_f64(out, a.min);
    write_f64(out, a.max);
}

fn write_cell_summary(out: &mut Vec<u8>, c: &CellSummary) {
    varint::write_u64(out, c.cdr_records);
    varint::write_u64(out, c.cdr_drops);
    write_agg(out, &c.upflux);
    write_agg(out, &c.downflux);
    write_agg(out, &c.duration_s);
    varint::write_u64(out, c.nms_reports);
    write_agg(out, &c.attempts);
    write_agg(out, &c.drops);
    write_agg(out, &c.throughput);
}

fn write_highlights(out: &mut Vec<u8>, h: &Highlights) {
    varint::write_u64(out, u64::from(h.first_epoch.0));
    varint::write_u64(out, u64::from(h.last_epoch.0));
    varint::write_u64(out, h.cdr_records);
    varint::write_u64(out, h.nms_records);
    // Cells sorted for deterministic images.
    let mut cells: Vec<(&u32, &CellSummary)> = h.per_cell.iter().collect();
    cells.sort_by_key(|(id, _)| **id);
    varint::write_u64(out, cells.len() as u64);
    for (id, summary) in cells {
        varint::write_u64(out, u64::from(*id));
        write_cell_summary(out, summary);
    }
    varint::write_u64(out, h.attr_freqs.len() as u64);
    for table in &h.attr_freqs {
        varint::write_u64(out, table.total);
        let mut entries: Vec<(&String, &u64)> = table.counts.iter().collect();
        entries.sort();
        varint::write_u64(out, entries.len() as u64);
        for (value, count) in entries {
            write_string(out, value);
            varint::write_u64(out, *count);
        }
    }
}

fn write_leaf(out: &mut Vec<u8>, l: &EpochLeaf) {
    varint::write_u64(out, u64::from(l.epoch.0));
    write_string(out, &l.path);
    varint::write_u64(out, l.raw_bytes);
    varint::write_u64(out, l.stored_bytes);
    out.push(u8::from(l.present));
}

/// Serialize the whole index.
pub fn to_bytes(index: &TemporalIndex) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 << 10);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);

    // Config.
    let config = &index.config;
    varint::write_u64(&mut out, config.categorical_attrs.len() as u64);
    for &a in &config.categorical_attrs {
        varint::write_u64(&mut out, a as u64);
    }
    write_f64(&mut out, config.theta_day);
    write_f64(&mut out, config.theta_month);
    write_f64(&mut out, config.theta_year);

    // Last epoch.
    match index.last_epoch {
        Some(e) => {
            out.push(1);
            varint::write_u64(&mut out, u64::from(e.0));
        }
        None => out.push(0),
    }

    write_highlights(&mut out, &index.root_highlights);

    varint::write_u64(&mut out, index.years.len() as u64);
    for y in &index.years {
        varint::write_u64(&mut out, u64::from(y.year));
        out.push(u8::from(y.decayed));
        write_highlights(&mut out, &y.highlights);
        varint::write_u64(&mut out, y.months.len() as u64);
        for m in &y.months {
            varint::write_u64(&mut out, u64::from(m.month));
            out.push(u8::from(m.decayed));
            write_highlights(&mut out, &m.highlights);
            varint::write_u64(&mut out, m.days.len() as u64);
            for d in &m.days {
                varint::write_u64(&mut out, u64::from(d.day_index));
                out.push(u8::from(d.decayed));
                write_highlights(&mut out, &d.highlights);
                varint::write_u64(&mut out, d.leaves.len() as u64);
                for l in &d.leaves {
                    write_leaf(&mut out, l);
                }
            }
        }
    }
    out
}

// ------------------------------------------------------------- readers

struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
}

// The fewest bytes one entry of each counted list can take (a varint is at
// least one byte, an `f64` eight): what `Reader::count` divides by.
const MIN_AGG_LEN: usize = 1 + 3 * 8;
const MIN_CELL_LEN: usize = 1 + 3 + 6 * MIN_AGG_LEN;
const MIN_VALUE_LEN: usize = 1 + 1;
const MIN_TABLE_LEN: usize = 1 + 1;
/// Year, decayed flag, empty highlights (six varints), month count.
const MIN_YEAR_LEN: usize = 1 + 1 + 6 + 1;

impl<'a> Reader<'a> {
    /// A declared entry count, refused *before* anything is reserved for
    /// it when the bytes left could not hold that many entries of at
    /// least `min_entry_len` each — the rule `codecs::bounded_capacity`
    /// applies to declared lengths. Without it a few forged bytes reserve
    /// gigabytes ahead of the read loop that would report `Truncated`.
    fn count(
        &mut self,
        min_entry_len: usize,
        exceeds: &'static str,
    ) -> Result<usize, PersistError> {
        let n = self.u64()?;
        let fits = (self.input.len() - self.pos) / min_entry_len;
        if n > fits as u64 {
            return Err(PersistError::Corrupt(CodecError::Corrupt(exceeds)));
        }
        Ok(n as usize)
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(varint::read_u64(self.input, &mut self.pos)?)
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(varint::read_u32(self.input, &mut self.pos)?)
    }

    fn byte(&mut self) -> Result<u8, PersistError> {
        let b = *self
            .input
            .get(self.pos)
            .ok_or(PersistError::Corrupt(CodecError::Truncated))?;
        self.pos += 1;
        Ok(b)
    }

    fn f64(&mut self) -> Result<f64, PersistError> {
        if self.pos + 8 > self.input.len() {
            return Err(PersistError::Corrupt(CodecError::Truncated));
        }
        let v = f64::from_le_bytes(self.input[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, PersistError> {
        let len = self.u64()? as usize;
        if len > 1 << 20 || self.pos + len > self.input.len() {
            return Err(PersistError::Corrupt(CodecError::Truncated));
        }
        let s = std::str::from_utf8(&self.input[self.pos..self.pos + len])
            .map_err(|_| PersistError::Corrupt(CodecError::Corrupt("bad utf-8 in image")))?
            .to_string();
        self.pos += len;
        Ok(s)
    }

    fn agg(&mut self) -> Result<AggStats, PersistError> {
        Ok(AggStats {
            count: self.u64()?,
            sum: self.f64()?,
            min: self.f64()?,
            max: self.f64()?,
        })
    }

    fn cell_summary(&mut self) -> Result<CellSummary, PersistError> {
        Ok(CellSummary {
            cdr_records: self.u64()?,
            cdr_drops: self.u64()?,
            upflux: self.agg()?,
            downflux: self.agg()?,
            duration_s: self.agg()?,
            nms_reports: self.u64()?,
            attempts: self.agg()?,
            drops: self.agg()?,
            throughput: self.agg()?,
        })
    }

    fn highlights(&mut self) -> Result<Highlights, PersistError> {
        let first_epoch = EpochId(self.u32()?);
        let last_epoch = EpochId(self.u32()?);
        let cdr_records = self.u64()?;
        let nms_records = self.u64()?;
        let n_cells = self.count(MIN_CELL_LEN, "cell count exceeds image")?;
        if n_cells > 1 << 24 {
            return Err(PersistError::Corrupt(CodecError::Corrupt(
                "implausible cell count",
            )));
        }
        let mut per_cell = std::collections::HashMap::with_capacity(n_cells);
        for _ in 0..n_cells {
            let id = self.u32()?;
            per_cell.insert(id, self.cell_summary()?);
        }
        let n_tables = self.count(MIN_TABLE_LEN, "table count exceeds image")?;
        if n_tables > 1 << 16 {
            return Err(PersistError::Corrupt(CodecError::Corrupt(
                "implausible table count",
            )));
        }
        let mut attr_freqs = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let total = self.u64()?;
            let n = self.count(MIN_VALUE_LEN, "value count exceeds image")?;
            if n > 1 << 24 {
                return Err(PersistError::Corrupt(CodecError::Corrupt(
                    "implausible value count",
                )));
            }
            let mut counts = std::collections::HashMap::with_capacity(n);
            for _ in 0..n {
                let value = self.string()?;
                let count = self.u64()?;
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

    fn leaf(&mut self) -> Result<EpochLeaf, PersistError> {
        Ok(EpochLeaf {
            epoch: EpochId(self.u32()?),
            path: self.string()?,
            raw_bytes: self.u64()?,
            stored_bytes: self.u64()?,
            present: self.byte()? != 0,
        })
    }
}

/// Restore an index from a serialized image.
pub fn from_bytes(input: &[u8]) -> Result<TemporalIndex, PersistError> {
    if input.len() < 5 || &input[..4] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    if input[4] != VERSION {
        return Err(PersistError::BadVersion(input[4]));
    }
    let mut r = Reader { input, pos: 5 };

    let n_attrs = r.count(1, "attr count exceeds image")?;
    if n_attrs > 1 << 10 {
        return Err(PersistError::Corrupt(CodecError::Corrupt(
            "implausible attr count",
        )));
    }
    let mut categorical_attrs = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        categorical_attrs.push(r.u64()? as usize);
    }
    let config = HighlightConfig {
        categorical_attrs,
        theta_day: r.f64()?,
        theta_month: r.f64()?,
        theta_year: r.f64()?,
    };

    let last_epoch = if r.byte()? != 0 {
        Some(EpochId(r.u32()?))
    } else {
        None
    };
    let root_highlights = r.highlights()?;

    let n_years = r.count(MIN_YEAR_LEN, "year count exceeds image")?;
    if n_years > 1 << 12 {
        return Err(PersistError::Corrupt(CodecError::Corrupt(
            "implausible year count",
        )));
    }
    let mut years = Vec::with_capacity(n_years);
    for _ in 0..n_years {
        let year = r.u32()?;
        let decayed = r.byte()? != 0;
        let highlights = r.highlights()?;
        let n_months = r.u64()? as usize;
        if n_months > 12 {
            return Err(PersistError::Corrupt(CodecError::Corrupt(
                "more than 12 months in a year",
            )));
        }
        let mut months = Vec::with_capacity(n_months);
        for _ in 0..n_months {
            let month = r.u32()?;
            let m_decayed = r.byte()? != 0;
            let m_highlights = r.highlights()?;
            let n_days = r.u64()? as usize;
            if n_days > 31 {
                return Err(PersistError::Corrupt(CodecError::Corrupt(
                    "more than 31 days in a month",
                )));
            }
            let mut days = Vec::with_capacity(n_days);
            for _ in 0..n_days {
                let day_index = r.u32()?;
                let d_decayed = r.byte()? != 0;
                let d_highlights = r.highlights()?;
                let n_leaves = r.u64()? as usize;
                if n_leaves > 48 {
                    return Err(PersistError::Corrupt(CodecError::Corrupt(
                        "more than 48 epochs in a day",
                    )));
                }
                let mut leaves = Vec::with_capacity(n_leaves);
                for _ in 0..n_leaves {
                    leaves.push(r.leaf()?);
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
        for cut in 0..image.len() {
            assert!(from_bytes(&image[..cut]).is_err(), "cut {cut}");
        }
        let mut flipped = image.clone();
        for at in 0..image.len() {
            for mask in [0x01, 0x80, 0xff] {
                flipped[at] = image[at] ^ mask;
                // Ok or Err, either is fine: it must return.
                let _ = from_bytes(&flipped);
            }
            flipped[at] = image[at];
        }
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
        // Each count below passes its 1 << 24 ceiling, and an entry is
        // hundreds of bytes in memory: reserving for it would take
        // gigabytes. The error must come from the count, not from the
        // read loop running off the end (`Truncated`).
        let image = to_bytes(&build_index(3));
        // Walk the valid image to where each count sits.
        let mut r = Reader {
            input: &image,
            pos: 5,
        };
        for _ in 0..r.u64().unwrap() {
            r.u64().unwrap();
        }
        r.pos += 3 * 8;
        if r.byte().unwrap() != 0 {
            r.u32().unwrap();
        }
        for _ in 0..4 {
            r.u64().unwrap();
        }
        let cells_at = r.pos;
        for _ in 0..r.u64().unwrap() {
            r.u32().unwrap();
            r.cell_summary().unwrap();
        }
        assert!(r.u64().unwrap() > 0, "the root has frequency tables");
        r.u64().unwrap();
        let values_at = r.pos;

        for (site, at) in [("cells", cells_at), ("values", values_at)] {
            r.pos = at;
            assert!(r.u64().unwrap() < 1 << 24);
            let mut forged = image[..at].to_vec();
            varint::write_u64(&mut forged, 1 << 24);
            forged.extend_from_slice(&image[r.pos..]);
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
