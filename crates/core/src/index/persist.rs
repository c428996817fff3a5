//! Binary persistence of the temporal index.
//!
//! The paper's warehouse is long-running: highlights accumulate over
//! months and years and must survive restarts. This module serializes the
//! whole [`TemporalIndex`] — node structure, leaf metadata, highlights —
//! into a compact varint-based binary image; [`crate::SpateFramework`]
//! stores it (compressed) beside the snapshots.

use crate::index::highlights::{CellSummary, FreqTable, HighlightConfig, Highlights, Resolution};
use crate::index::{EpochLeaf, Node, TemporalIndex};
use codecs::CodecError;
use obs::bytes::{ByteError, Reader, Writer};
use shahed::AggStats;
use std::fmt;
use std::ops::{Range, RangeBounds};
use telco_trace::time::{EpochId, EPOCHS_PER_DAY};

const MAGIC: &[u8; 4] = b"SPIX";
/// Version 4 is the structural tree alone: what was ingested and what
/// decayed, nothing about what was queried, and no leaf's file path (a
/// store names it from the epoch). Versions 1 to 3 are refused like any
/// other unknown version.
const VERSION: u8 = 4;

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

    write_nodes(w, index, Resolution::Year, ..);
    out
}

/// Write the nodes of `level` whose keys lie in `keys`, each followed by
/// what its period holds: a year its months, a month its days, a day its
/// leaves.
fn write_nodes(
    w: &mut Writer,
    index: &TemporalIndex,
    level: Resolution,
    keys: impl RangeBounds<u32>,
) {
    let nodes = index.nodes(level).range(keys);
    w.varint(nodes.clone().count() as u64);
    for (&key, node) in nodes {
        // A month is written as its number in its year.
        w.varint(u64::from(if level == Resolution::Month {
            key % 12 + 1
        } else {
            key
        }));
        w.u8(u8::from(node.decayed));
        write_highlights(w, &node.highlights);
        match level {
            Resolution::Year => write_nodes(w, index, Resolution::Month, key * 12..key * 12 + 12),
            Resolution::Month => {
                write_nodes(w, index, Resolution::Day, Resolution::Month.days(key))
            }
            _ => {
                let first = key * EPOCHS_PER_DAY;
                let last = first.saturating_add(EPOCHS_PER_DAY - 1);
                let leaves = index.leaves_in(EpochId(first), EpochId(last));
                w.varint(leaves.len() as u64);
                leaves.into_iter().for_each(|leaf| write_leaf(w, leaf));
            }
        }
    }
}

// ------------------------------------------------------------- readers

// The fewest bytes one entry of each counted list can take (a varint is at
// least one byte, an `f64` eight): what `Reader::count` divides by.
const MIN_AGG_LEN: usize = 1 + 3 * 8;
const MIN_CELL_LEN: usize = 1 + 3 + 6 * MIN_AGG_LEN;
const MIN_VALUE_LEN: usize = 1 + 1;
const MIN_TABLE_LEN: usize = 1 + 1;
/// Key, decayed flag, empty highlights (six varints), count of what it holds.
const MIN_NODE_LEN: usize = 1 + 1 + 6 + 1;
/// Epoch, raw and stored bytes, present flag.
const MIN_LEAF_LEN: usize = 4;

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

/// Highlights of an index whose config names `n_attrs` categorical
/// attributes: a frequency table each, no more and no fewer.
fn read_highlights(r: &mut Reader, n_attrs: usize) -> Result<Highlights, PersistError> {
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
    if n_tables != n_attrs {
        return Err(PersistError::Corrupt(CodecError::Corrupt(
            "frequency tables other than the configured attributes",
        )));
    }
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
    let root_highlights = read_highlights(r, config.categorical_attrs.len())?;

    let mut index = TemporalIndex {
        config,
        levels: Default::default(),
        root_highlights,
        leaves: Vec::new(),
        last_epoch,
    };
    read_nodes(r, &mut index, Resolution::Year, 0..u32::MAX)?;
    r.finish()?;
    Ok(index)
}

/// Read the nodes of `level` that a period whose keys are `keys` holds,
/// and what each of them holds. Each must lie in the period's calendar
/// and after the one before it: an image the keys cannot hold is refused.
fn read_nodes(
    r: &mut Reader,
    index: &mut TemporalIndex,
    level: Resolution,
    keys: Range<u32>,
) -> Result<(), PersistError> {
    let (most, misplaced) = match level {
        Resolution::Year => (usize::MAX, "year outside the calendar or out of order"),
        Resolution::Month => (12, "month outside its year or out of order"),
        _ => (31, "day outside its month or out of order"),
    };
    for _ in 0..read_count(r, MIN_NODE_LEN, most)? {
        let last = index.levels[level as usize]
            .last_key_value()
            .map(|(&k, _)| k);
        let label = r.varint_u32()?;
        // A month is stored as its number in its year.
        let key = match level {
            Resolution::Month => (label.wrapping_sub(1) < 12).then(|| keys.start + label - 1),
            _ => Some(label),
        }
        .filter(|&k| keys.contains(&k) && last < Some(k) && !level.days(k).is_empty())
        .ok_or(PersistError::Corrupt(CodecError::Corrupt(misplaced)))?;
        let node = Node {
            decayed: r.u8()? != 0,
            highlights: read_highlights(r, index.config.categorical_attrs.len())?,
        };
        index.levels[level as usize].insert(key, node);
        match level {
            Resolution::Year => read_nodes(r, index, Resolution::Month, key * 12..key * 12 + 12)?,
            Resolution::Month => {
                read_nodes(r, index, Resolution::Day, Resolution::Month.days(key))?
            }
            _ => {
                for _ in 0..read_count(r, MIN_LEAF_LEN, EPOCHS_PER_DAY as usize)? {
                    let leaf = read_leaf(r)?;
                    let last = index.leaves.last().map(|l| l.epoch);
                    if leaf.epoch.day_index() != key || last >= Some(leaf.epoch) {
                        return Err(PersistError::Corrupt(CodecError::Corrupt(
                            "leaf outside its day or out of order",
                        )));
                    }
                    index.leaves.push(leaf);
                }
            }
        }
    }
    Ok(())
}

/// A count of entries at least `min_len` bytes long, of which a period
/// holds at most `most`.
fn read_count(r: &mut Reader, min_len: usize, most: usize) -> Result<usize, PersistError> {
    match r.count(min_len, "count exceeds image")? {
        n if n > most => Err(PersistError::Corrupt(CodecError::Corrupt(
            "more entries than their period holds",
        ))),
        n => Ok(n),
    }
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
        build_index_with(HighlightConfig::default(), n)
    }

    fn build_index_with(config: HighlightConfig, n: usize) -> TemporalIndex {
        let store = SnapshotStore::new(Dfs::in_memory(), Arc::new(GzipLite::default()));
        let mut index = TemporalIndex::new(config);
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
        for level in Resolution::LEVELS {
            let (n0, n1) = (index.nodes(level), restored.nodes(level));
            assert!(n0.keys().eq(n1.keys()), "{level:?}");
            for (d0, d1) in n0.values().zip(n1.values()) {
                assert_eq!(d0.highlights, d1.highlights);
                assert_eq!(d0.decayed, d1.decayed);
            }
        }
        assert_eq!(index.all_leaves().count(), restored.all_leaves().count());
        for (l0, l1) in index.all_leaves().zip(restored.all_leaves()) {
            assert_eq!(l0.epoch, l1.epoch);
            assert_eq!(l0.present, l1.present);
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
        assert!(restored.nodes(Resolution::Year).is_empty());
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
        let mut tiny = b"SPIX\x04\x00".to_vec();
        tiny.extend_from_slice(&[0; 3 * 8 + 1 + 4]);
        varint::write_u64(&mut tiny, 1 << 24);
        assert_eq!(tiny.len(), 39);
        assert_exceeds_image(&tiny, "39-byte image");
    }

    /// Highlights hold one frequency table per configured attribute, and
    /// `incremence` counts into each by position: an image whose tables
    /// are fewer (or more) than its config's attributes is refused. Here
    /// the image of a zero-attribute index, its header patched to one
    /// attribute.
    #[test]
    fn highlights_of_another_attribute_count_are_refused() {
        let config = HighlightConfig {
            categorical_attrs: Vec::new(),
            ..HighlightConfig::default()
        };
        let image = to_bytes(&build_index_with(config, 3));
        assert!(from_bytes(&image).is_ok());
        assert_eq!(image[..6], *b"SPIX\x04\x00", "no attributes");
        let mut patched = b"SPIX\x04\x01\x00".to_vec();
        patched.extend_from_slice(&image[6..]);
        match from_bytes(&patched) {
            Err(PersistError::Corrupt(CodecError::Corrupt(why))) => {
                assert!(why.contains("configured attributes"), "{why}")
            }
            other => panic!(
                "loaded: {:?}",
                other.map(|index| index.config.categorical_attrs)
            ),
        }
    }

    #[test]
    fn version_2_and_3_images_are_refused() {
        // A v2 image was the v3 payload followed by a section of query
        // history, and a v3 leaf held its file's path: the version byte
        // alone turns either away.
        let image = to_bytes(&build_index(6));
        assert_eq!(image[4], 4, "current images are v4");
        for old in [2, 3] {
            let mut image = image.clone();
            image[4] = old;
            assert!(matches!(
                from_bytes(&image),
                Err(PersistError::BadVersion(v)) if v == old
            ));
        }
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

    /// Nodes as they are written (a year, a month by its number, a day
    /// index), each with what it holds; a day holds leaf epochs.
    type Years<'a> = &'a [(u32, &'a [(u32, &'a [(u32, &'a [u32])])])];

    /// An image of `years` of empty nodes and leaves.
    fn craft(years: Years) -> Vec<u8> {
        let mut out = Vec::new();
        let w = &mut Writer::new(&mut out);
        w.bytes(MAGIC);
        w.u8(VERSION);
        w.bytes(&[0; 1 + 3 * 8 + 1]); // no attributes, θs of 0, no last epoch
        let empty = Highlights::empty(EpochId(0), 0);
        write_highlights(w, &empty);
        w.varint(years.len() as u64);
        let node = |w: &mut Writer, key: u32, n: usize| {
            w.varint(key.into());
            w.u8(0);
            write_highlights(w, &empty);
            w.varint(n as u64);
        };
        for &(year, months) in years {
            node(w, year, months.len());
            for &(month, days) in months {
                node(w, month, days.len());
                for &(day, leaves) in days {
                    node(w, day, leaves.len());
                    for &epoch in leaves {
                        write_leaf(
                            w,
                            &EpochLeaf {
                                epoch: EpochId(epoch),
                                raw_bytes: 1,
                                stored_bytes: 1,
                                present: true,
                            },
                        );
                    }
                }
            }
        }
        out
    }

    /// `good` loads and `bad`, which its calendar cannot hold, does not.
    fn refused(good: Years, bad: Years) {
        from_bytes(&craft(good)).unwrap();
        match from_bytes(&craft(bad)) {
            Err(PersistError::Corrupt(CodecError::Corrupt(_))) => {}
            other => panic!("{bad:?} loaded as {other:?}"),
        }
    }

    #[test]
    fn a_month_outside_1_to_12_is_refused() {
        refused(&[(2016, &[(12, &[])])], &[(2016, &[(13, &[])])]);
        refused(&[(2016, &[(1, &[])])], &[(2016, &[(0, &[])])]);
    }

    #[test]
    fn months_out_of_order_are_refused() {
        refused(
            &[(2016, &[(2, &[]), (3, &[])])],
            &[(2016, &[(3, &[]), (2, &[])])],
        );
        refused(&[(2017, &[(5, &[])])], &[(2017, &[(5, &[]), (5, &[])])]);
    }

    #[test]
    fn a_day_outside_its_month_is_refused() {
        // The trace starts on 18 January 2016: day 13 is the 31st, day 14
        // the first of February.
        refused(
            &[(2016, &[(1, &[(13, &[])])])],
            &[(2016, &[(1, &[(14, &[])])])],
        );
        refused(
            &[(2016, &[(2, &[(14, &[])])])],
            &[(2016, &[(2, &[(13, &[])])])],
        );
    }

    #[test]
    fn days_out_of_order_are_refused() {
        refused(
            &[(2016, &[(1, &[(3, &[]), (4, &[])])])],
            &[(2016, &[(1, &[(4, &[]), (3, &[])])])],
        );
        refused(
            &[(2016, &[(1, &[(3, &[])])])],
            &[(2016, &[(1, &[(3, &[]), (3, &[])])])],
        );
    }

    #[test]
    fn a_leaf_outside_its_day_is_refused() {
        refused(
            &[(2016, &[(1, &[(0, &[47])])])],
            &[(2016, &[(1, &[(0, &[48])])])],
        );
        refused(
            &[(2016, &[(1, &[(1, &[48])])])],
            &[(2016, &[(1, &[(1, &[47])])])],
        );
    }

    #[test]
    fn leaves_out_of_order_are_refused() {
        refused(
            &[(2016, &[(1, &[(0, &[4, 5])])])],
            &[(2016, &[(1, &[(0, &[5, 4])])])],
        );
        refused(
            &[(2016, &[(1, &[(0, &[5])])])],
            &[(2016, &[(1, &[(0, &[5, 5])])])],
        );
    }
}
