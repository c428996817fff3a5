//! The SHAHED baseline framework: raw storage + the isolated
//! spatio-temporal aggregate index.

use crate::framework::{ExplorationFramework, IngestStats, RawFramework, SpaceReport};
use crate::query::{Query, QueryResult};
use crate::storage::SnapshotStore;
use dfs::Dfs;
use shahed::{AggStats, Point, ShahedIndex};
use telco_trace::cells::{BoundingBox, CellLayout};
use telco_trace::schema::{cdr, TableKind};
use telco_trace::snapshot::{Row, Snapshot};
use telco_trace::time::EpochId;

/// Measures tracked by the aggregate index, in order.
pub const SHAHED_MEASURES: [&str; 4] = ["records", "drops", "upflux", "downflux"];

/// RAW's snapshot files (under `/shahed`) plus SHAHED's aggregate
/// quad-tree hierarchy: fast spatio-temporal aggregates, full storage
/// cost, no decay. Reads are RAW's.
pub struct ShahedFramework {
    raw: RawFramework,
    index: ShahedIndex,
}

impl ShahedFramework {
    pub fn new(dfs: Dfs, layout: CellLayout) -> Self {
        Self {
            raw: RawFramework::rooted(dfs, layout, "/shahed"),
            index: ShahedIndex::new(BoundingBox::everything(), SHAHED_MEASURES.len()),
        }
    }

    pub fn in_memory(layout: CellLayout) -> Self {
        Self::new(Dfs::in_memory(), layout)
    }

    pub fn store(&self) -> &SnapshotStore {
        self.raw.store()
    }

    /// One index point per CDR record, at the record's cell site.
    fn points_of(&self, snapshot: &Snapshot) -> Vec<Point> {
        let layout = self.raw.layout();
        snapshot
            .cdr
            .iter()
            .filter_map(|r| {
                let cell_id = r.get(cdr::CELL_ID).as_i64()?;
                if cell_id < 0 || cell_id as usize >= layout.len() {
                    return None;
                }
                let cell = layout.get(cell_id as u32);
                let drop = f64::from(r.get(cdr::CALL_RESULT).text() == "DROP");
                Some(Point {
                    x: cell.x_m,
                    y: cell.y_m,
                    values: vec![
                        1.0,
                        drop,
                        r.get(cdr::UPFLUX).as_f64().unwrap_or(0.0),
                        r.get(cdr::DOWNFLUX).as_f64().unwrap_or(0.0),
                    ],
                })
            })
            .collect()
    }

    /// Direct access to the aggregate index (for aggregate-query benches).
    pub fn agg_query(&self, bbox: &BoundingBox, start: EpochId, end: EpochId) -> Vec<AggStats> {
        self.index.query_agg(bbox, start, end)
    }

    /// Flush open rollup buffers (call after the last snapshot of a run).
    pub fn finalize(&mut self) {
        self.index.finalize();
    }
}

impl ExplorationFramework for ShahedFramework {
    fn name(&self) -> &'static str {
        "SHAHED"
    }

    fn layout(&self) -> &CellLayout {
        self.raw.layout()
    }

    fn ingest(&mut self, snapshot: &Snapshot) -> IngestStats {
        let span = obs::span("shahed.ingest");
        let stored = self.raw.put(snapshot);
        let points = {
            let _s = obs::span("index_points");
            self.points_of(snapshot)
        };
        {
            let _s = obs::span("index_insert");
            self.index.insert_epoch(snapshot.epoch, points);
        }
        let seconds = span.finish_secs();
        IngestStats {
            epoch: snapshot.epoch,
            seconds,
            raw_bytes: stored.raw_bytes,
            stored_bytes: stored.stored_bytes,
        }
    }

    fn space(&self) -> SpaceReport {
        SpaceReport {
            index_bytes: self.index.memory_bytes() as u64,
            ..self.raw.space()
        }
    }

    fn load_epoch(&self, epoch: EpochId) -> Option<Snapshot> {
        self.raw.load_epoch(epoch)
    }

    fn scan_rows(
        &self,
        start: EpochId,
        end: EpochId,
        table: TableKind,
        visit: &mut dyn FnMut(EpochId, &[Row<'_>]),
    ) {
        self.raw.scan_rows(start, end, table, visit);
    }

    fn version(&self) -> u64 {
        self.raw.version()
    }

    fn query(&self, q: &Query) -> QueryResult {
        self.raw.query(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::testutil::tiny_trace;

    fn ingested(n: usize) -> (ShahedFramework, Vec<Snapshot>) {
        let (layout, snaps) = tiny_trace(n);
        let mut fw = ShahedFramework::in_memory(layout);
        for s in &snaps {
            fw.ingest(s);
        }
        fw.finalize();
        (fw, snaps)
    }

    #[test]
    fn aggregate_index_counts_cdr_records() {
        let (fw, snaps) = ingested(4);
        let stats = fw.agg_query(&BoundingBox::everything(), EpochId(0), EpochId(3));
        let expected: u64 = snaps.iter().map(|s| s.cdr.len() as u64).sum();
        assert_eq!(stats[0].count, expected);
        assert_eq!(stats[0].sum, expected as f64);
        // Drop measure is a subset of records.
        assert!(stats[1].sum <= stats[0].sum);
        // Flux sums are nonnegative.
        assert!(stats[2].sum >= 0.0 && stats[3].sum >= 0.0);
    }

    #[test]
    fn spatial_aggregates_narrow_with_bbox() {
        let (fw, _) = ingested(6);
        let all = fw.agg_query(&BoundingBox::everything(), EpochId(0), EpochId(5));
        let quadrant = BoundingBox::new(0.0, 0.0, 38_000.0, 38_000.0);
        let some = fw.agg_query(&quadrant, EpochId(0), EpochId(5));
        assert!(some[0].count <= all[0].count);
    }

    #[test]
    fn space_includes_index_overhead() {
        let (fw, _) = ingested(3);
        let space = fw.space();
        assert!(space.data_bytes > 0);
        assert!(space.index_bytes > 0, "the aggregate index occupies space");
        assert_eq!(space.total(), space.data_bytes + space.index_bytes);
    }

    #[test]
    fn exact_query_matches_raw_semantics() {
        let (fw, snaps) = ingested(3);
        let q = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(0, 2);
        let result = fw.query(&q);
        assert!(result.is_exact());
        let expected: usize = snaps.iter().map(|s| s.cdr.len()).sum();
        assert_eq!(result.row_count(), expected);
    }
}
