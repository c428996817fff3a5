//! The three compared frameworks of the paper's evaluation (§VII-A),
//! behind one trait:
//!
//! * [`RawFramework`] — "the default solution that stores the telco
//!   snapshots as data files on the HDFS file system without any
//!   compression, indexing or decaying."
//! * [`ShahedFramework`] — raw storage plus the isolated spatio-temporal
//!   aggregate index of SHAHED; "appropriate for online querying and
//!   visualization, but does not deploy compression or decaying."
//! * [`SpateFramework`] — this paper: compression + multi-resolution
//!   index + highlights + decay.

mod raw;
mod shahed_fw;
mod spate;

pub use raw::RawFramework;
pub use shahed_fw::ShahedFramework;
pub use spate::{RecoveryReport, SpateFramework};

use crate::query::{Query, QueryResult};
use telco_trace::cells::CellLayout;
use telco_trace::record::Record;
use telco_trace::schema::TableKind;
use telco_trace::snapshot::{Row, Snapshot};
use telco_trace::time::EpochId;

/// Cost of ingesting one snapshot (paper metric: "Ingestion Time ...
/// includes the compression time needed to compress d and the time needed
/// to run the Incremence module").
#[derive(Debug, Clone, Copy)]
pub struct IngestStats {
    pub epoch: EpochId,
    pub seconds: f64,
    pub raw_bytes: u64,
    pub stored_bytes: u64,
}

/// Disk usage (paper metric: "Space ... the total space S′ that data and
/// index occupy").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceReport {
    /// Logical bytes of stored snapshot files (pre-replication).
    pub data_bytes: u64,
    /// Bytes of index structures (highlights / aggregate trees).
    pub index_bytes: u64,
}

impl SpaceReport {
    pub fn total(&self) -> u64 {
        self.data_bytes + self.index_bytes
    }
}

/// A telco data exploration framework under evaluation.
pub trait ExplorationFramework {
    fn name(&self) -> &'static str;

    /// The static cell inventory shared by all frameworks.
    fn layout(&self) -> &CellLayout;

    /// Ingest one arriving snapshot, measuring the cost.
    fn ingest(&mut self, snapshot: &Snapshot) -> IngestStats;

    /// Current disk usage of data + index.
    fn space(&self) -> SpaceReport;

    /// Load one epoch's snapshot at full resolution, if retained.
    fn load_epoch(&self, epoch: EpochId) -> Option<Snapshot>;

    /// Load every retained snapshot in the inclusive window, decoded: what
    /// a caller that must *hold* the window wants (RAW and SHAHED's oracle
    /// `query`). Whatever only reads the window goes through
    /// [`Self::scan_rows`].
    fn scan(&self, start: EpochId, end: EpochId) -> Vec<Snapshot> {
        (start.0..=end.0)
            .filter_map(|e| self.load_epoch(EpochId(e)))
            .collect()
    }

    /// The scan path of the tasks T1–T8 and of SPATE-SQL: lend `visit` the
    /// rows of `table` (CDR or NMS) of every retained epoch of the
    /// inclusive window, in epoch order, one epoch per call, in stored
    /// order. Nothing outlives the call: no epoch stays loaded once it
    /// has been visited.
    ///
    /// An epoch contributes all of its rows or none. One that is not
    /// retained, cannot be read, does not parse — a bad row anywhere in
    /// either table — or carries another epoch's header is not visited,
    /// exactly as [`Self::load_epoch`] answers `None` for it.
    ///
    /// This default decodes each epoch ([`Self::load_epoch`]) and lends
    /// its [`Record`]s. RAW, SHAHED and SPATE lend the rows of the stored
    /// text instead ([`SnapshotStore::scan_rows`]) and build no `Value`;
    /// a visitor cannot tell the two apart. There a long window's epochs
    /// may be read ahead on a second thread, but `visit` is only ever
    /// called on the caller's thread, in epoch order.
    ///
    /// [`SnapshotStore::scan_rows`]: crate::storage::SnapshotStore::scan_rows
    fn scan_rows(
        &self,
        start: EpochId,
        end: EpochId,
        table: TableKind,
        visit: &mut dyn FnMut(EpochId, &[Row<'_>]),
    ) {
        for epoch in (start.0..=end.0).map(EpochId) {
            if let Some(snapshot) = self.load_epoch(epoch) {
                lend_records(epoch, snapshot.table(table), visit);
            }
        }
    }

    /// Evaluate a data exploration query `Q(a, b, w)`.
    fn query(&self, q: &Query) -> QueryResult;

    /// Staleness epoch counter: bumped on every mutation that can change
    /// what a window query answers (ingest, decay eviction, recovery
    /// repairs). Caches key their entries by this value and treat any
    /// change as an invalidation signal.
    fn version(&self) -> u64;
}

/// Lend one decoded epoch's records to a [`ExplorationFramework::scan_rows`]
/// visitor, accounted as scanned rows of the active cost profile.
pub fn lend_records(
    epoch: EpochId,
    records: &[Record],
    visit: &mut dyn FnMut(EpochId, &[Row<'_>]),
) {
    let rows: Vec<Row<'_>> = records.iter().map(Row::Record).collect();
    obs::cost::add_rows(rows.len() as u64, 0);
    visit(epoch, &rows);
}

/// Observer of warehouse mutations, for cache layers that must drop
/// entries exactly when the tree changes. Hooks fire synchronously while
/// the mutation still holds exclusive access to the framework, so an
/// observer never races a reader that could re-populate a stale entry
/// (readers run strictly before or strictly after the whole mutation).
pub trait StoreObserver: Send + Sync {
    /// A new snapshot was committed and indexed.
    fn snapshot_ingested(&self, _epoch: EpochId) {}
    /// These epochs lost their full-resolution leaf (decay eviction or a
    /// recovery scan marking unreadable leaves absent).
    fn epochs_evicted(&self, _epochs: &[EpochId]) {}
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use telco_trace::{TraceConfig, TraceGenerator};

    /// A tiny ingested trace for framework tests: returns (layout,
    /// snapshots).
    pub fn tiny_trace(n: usize) -> (CellLayout, Vec<Snapshot>) {
        let mut generator = TraceGenerator::new(TraceConfig::scaled(1.0 / 256.0));
        let layout = generator.layout().clone();
        let snaps: Vec<Snapshot> = (&mut generator).take(n).collect();
        (layout, snaps)
    }
}
