//! The RAW baseline: plain uncompressed files, no index, no decay.

use crate::framework::{ExplorationFramework, IngestStats, SpaceReport};
use crate::query::{project_snapshots, Query, QueryResult};
use crate::storage::{SnapshotStore, StoredSnapshot};
use codecs::Identity;
use dfs::Dfs;
use std::collections::BTreeSet;
use std::sync::Arc;
use telco_trace::cells::CellLayout;
use telco_trace::schema::TableKind;
use telco_trace::snapshot::{Row, Snapshot};
use telco_trace::time::EpochId;

/// "The default solution that stores the telco snapshots as data files on
/// the HDFS file system without any compression, indexing or decaying."
pub struct RawFramework {
    store: SnapshotStore,
    layout: CellLayout,
    ingested: BTreeSet<u32>,
    version: u64,
}

impl RawFramework {
    pub fn new(dfs: Dfs, layout: CellLayout) -> Self {
        Self::rooted(dfs, layout, "/raw")
    }

    /// Plain files under `root`: SHAHED's data files are RAW's.
    pub(crate) fn rooted(dfs: Dfs, layout: CellLayout, root: &str) -> Self {
        Self {
            store: SnapshotStore::new(dfs, Arc::new(Identity)).with_root(root),
            layout,
            ingested: BTreeSet::new(),
            version: 0,
        }
    }

    pub fn in_memory(layout: CellLayout) -> Self {
        Self::new(Dfs::in_memory(), layout)
    }

    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// Store one snapshot as a plain file and count it as ingested: the
    /// part of an ingest that RAW and SHAHED share.
    pub(crate) fn put(&mut self, snapshot: &Snapshot) -> StoredSnapshot {
        let stored = self.store.store(snapshot).expect("raw store");
        self.ingested.insert(snapshot.epoch.0);
        self.version += 1;
        stored
    }
}

impl ExplorationFramework for RawFramework {
    fn name(&self) -> &'static str {
        "RAW"
    }

    fn layout(&self) -> &CellLayout {
        &self.layout
    }

    fn ingest(&mut self, snapshot: &Snapshot) -> IngestStats {
        let span = obs::span("raw.ingest");
        let stored = self.put(snapshot);
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
            data_bytes: self.store.stored_bytes(),
            index_bytes: 0,
        }
    }

    fn load_epoch(&self, epoch: EpochId) -> Option<Snapshot> {
        if !self.ingested.contains(&epoch.0) {
            return None;
        }
        self.store.load(epoch).ok()
    }

    fn scan_rows(
        &self,
        start: EpochId,
        end: EpochId,
        table: TableKind,
        visit: &mut dyn FnMut(EpochId, &[Row<'_>]),
    ) {
        let ingested = (start.0..=end.0).filter(|e| self.ingested.contains(e));
        self.store.scan_rows(ingested.map(EpochId), table, visit);
    }

    fn version(&self) -> u64 {
        self.version
    }

    fn query(&self, q: &Query) -> QueryResult {
        // No index: a full scan of the window, then filter + project.
        let snaps = self.scan(q.window.0, q.window.1);
        if snaps.is_empty() {
            return QueryResult::Unavailable;
        }
        QueryResult::Exact(project_snapshots(&snaps, q, &self.layout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::testutil::tiny_trace;
    use telco_trace::cells::BoundingBox;

    #[test]
    fn ingests_and_scans() {
        let (layout, snaps) = tiny_trace(3);
        let mut fw = RawFramework::in_memory(layout);
        for s in &snaps {
            let stats = fw.ingest(s);
            // Identity codec: stored == raw.
            assert_eq!(stats.raw_bytes, stats.stored_bytes);
        }
        let loaded = fw.scan(EpochId(0), EpochId(2));
        assert_eq!(loaded.len(), 3);
        // Schema-on-read: compare canonical wire forms.
        assert_eq!(loaded[1].to_bytes(), snaps[1].to_bytes());
        assert!(fw.load_epoch(EpochId(99)).is_none());
    }

    #[test]
    fn space_equals_raw_bytes() {
        let (layout, snaps) = tiny_trace(2);
        let mut fw = RawFramework::in_memory(layout);
        let mut total = 0;
        for s in &snaps {
            total += fw.ingest(s).raw_bytes;
        }
        let space = fw.space();
        assert_eq!(space.data_bytes, total);
        assert_eq!(space.index_bytes, 0);
        assert_eq!(space.total(), total);
    }

    #[test]
    fn query_is_always_exact_scan() {
        let (layout, snaps) = tiny_trace(4);
        let mut fw = RawFramework::in_memory(layout);
        for s in &snaps {
            fw.ingest(s);
        }
        let q = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(0, 3);
        let result = fw.query(&q);
        assert!(result.is_exact());
        let expected: usize = snaps.iter().map(|s| s.cdr.len()).sum();
        assert_eq!(result.row_count(), expected);

        let empty = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(50, 60);
        assert!(matches!(fw.query(&empty), QueryResult::Unavailable));
    }
}
