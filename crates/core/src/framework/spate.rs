//! The SPATE framework: compression + multi-resolution index + highlights
//! + decay, assembled from the storage and indexing layers.

use crate::framework::{ExplorationFramework, IngestStats, SpaceReport, StoreObserver};
use crate::index::decay::{decay_with_fungus_traced, DecayPolicy, DecayReport, Fungus};
use crate::index::highlights::HighlightConfig;
use crate::index::persist::{self, PersistError};
use crate::index::TemporalIndex;
use crate::query::{Coverage, Plan, Query, QueryResult, RowPlan};
use crate::storage::{SnapshotStore, StorageError, StoredSnapshot};
use codecs::{Codec, GzipLite};
use dfs::Dfs;
use std::collections::HashSet;
use std::sync::Arc;
use telco_trace::cells::CellLayout;
use telco_trace::schema::TableKind;
use telco_trace::snapshot::{Row, Snapshot};
use telco_trace::time::EpochId;

/// The framework proposed by the paper. Defaults to the GZIP-class codec,
/// matching §IV-C: "In our implementation and evaluation, we chose the
/// GZIP library".
pub struct SpateFramework {
    store: SnapshotStore,
    layout: CellLayout,
    index: TemporalIndex,
    policy: DecayPolicy,
    decay_log: DecayReport,
    /// Staleness epoch counter, bumped on every mutation (see
    /// [`ExplorationFramework::version`]).
    version: u64,
    /// Cache layers notified synchronously on every mutation.
    observers: Vec<Arc<dyn StoreObserver>>,
}

impl SpateFramework {
    pub fn new(dfs: Dfs, layout: CellLayout) -> Self {
        Self::with_codec(dfs, layout, Arc::new(GzipLite::default()))
    }

    pub fn with_codec(dfs: Dfs, layout: CellLayout, codec: Arc<dyn Codec>) -> Self {
        Self::with_store(SnapshotStore::new(dfs, codec).with_root("/spate"), layout)
    }

    /// SPATE over the content-addressed store: columnar packs, one per
    /// epoch, hash-verified reads, Merkle manifests, and decay that
    /// deletes an epoch's manifest and pack. Same
    /// index/query/decay behavior as [`Self::new`]; only the storage
    /// backend changes.
    pub fn with_cas(dfs: Dfs, layout: CellLayout) -> Self {
        Self::with_store(
            SnapshotStore::new_cas(dfs, cas::CasConfig::default()),
            layout,
        )
    }

    fn with_store(store: SnapshotStore, layout: CellLayout) -> Self {
        Self {
            store,
            layout,
            index: TemporalIndex::new(HighlightConfig::default()),
            policy: DecayPolicy::never(),
            decay_log: DecayReport::default(),
            version: 0,
            observers: Vec::new(),
        }
    }

    pub fn in_memory(layout: CellLayout) -> Self {
        Self::new(Dfs::in_memory(), layout)
    }

    /// Install a decay policy; a pass runs automatically after every
    /// ingested snapshot ("a continuous decaying process ... purged from
    /// replicated storage in a sliding window manner").
    pub fn with_decay(mut self, policy: DecayPolicy) -> Self {
        self.policy = policy;
        self
    }

    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    pub fn index(&self) -> &TemporalIndex {
        &self.index
    }

    /// Cumulative effects of all decay passes so far.
    pub fn decay_log(&self) -> DecayReport {
        self.decay_log
    }

    /// Register a mutation observer (e.g. the serving tier's shared
    /// epoch cache). Hooks fire synchronously inside every mutation.
    pub fn add_observer(&mut self, observer: Arc<dyn StoreObserver>) {
        self.observers.push(observer);
    }

    fn bump_version(&mut self) {
        self.version += 1;
    }

    fn notify_ingested(&self, epoch: EpochId) {
        for o in &self.observers {
            o.snapshot_ingested(epoch);
        }
    }

    fn notify_evicted(&self, epochs: &[EpochId]) {
        if epochs.is_empty() {
            return;
        }
        for o in &self.observers {
            o.epochs_evicted(epochs);
        }
    }

    /// Fallible ingest: the storage write can fail under injected faults
    /// (retries exhausted, no live datanodes). On error nothing is
    /// indexed and no partial leaf is visible — the caller may simply
    /// retry the same snapshot. The infallible trait method
    /// [`ExplorationFramework::ingest`] delegates here and panics on
    /// error, which is fine for fault-free benchmarks.
    pub fn try_ingest(&mut self, snapshot: &Snapshot) -> Result<IngestStats, StorageError> {
        // The ingest span is also the reported-seconds clock: stage spans
        // (segment/compress/dfs.write from the storage layer, incremence
        // with nested highlights, decay) nest under it, so the flame
        // table's per-stage self-times add up to the figure-7 numbers.
        let span = obs::span("spate.ingest");
        // Storage layer: compress + persist (staged + atomic commit).
        let stored = self.store.store(snapshot)?;
        // Indexing layer: incremence + highlights.
        {
            let _s = obs::span("incremence");
            self.index.incremence(snapshot, &stored);
        }
        self.bump_version();
        self.notify_ingested(snapshot.epoch);
        // Decaying: continuous sliding-window eviction.
        if self.policy != DecayPolicy::never() {
            self.run_decay(snapshot.epoch);
        }
        let seconds = span.finish_secs();
        Ok(IngestStats {
            epoch: snapshot.epoch,
            seconds,
            raw_bytes: stored.raw_bytes,
            stored_bytes: stored.stored_bytes,
        })
    }

    /// Run a decay pass explicitly at a given "now".
    pub fn run_decay(&mut self, now: EpochId) -> DecayReport {
        let (report, evicted) = decay_with_fungus_traced(
            &mut self.index,
            now,
            &self.policy,
            Fungus::EvictOldestIndividuals,
            &self.store,
        )
        .expect("decay eviction failed");
        self.decay_log.merge(&report);
        if report.did_anything() {
            self.bump_version();
        }
        self.notify_evicted(&evicted);
        report
    }

    /// DFS path of the persisted index image of the warehouse in `store`:
    /// `<store root>/_index.img`, beside the leaves and not one of them.
    fn index_path(store: &SnapshotStore) -> String {
        format!("{}/_index.img", store.root())
    }

    /// Persist the temporal index (compressed) to the filesystem so the
    /// warehouse survives restarts. Returns the stored image size.
    pub fn persist_index(&self) -> Result<u64, crate::storage::StorageError> {
        let image = persist::to_bytes(&self.index);
        let packed = GzipLite::default().compress(&image);
        let (dfs, path) = (self.store.dfs(), Self::index_path(&self.store));
        if dfs.exists(&path) {
            dfs.delete(&path)?;
        }
        dfs.write(&path, &packed)?;
        Ok(packed.len() as u64)
    }

    /// Rebuild a framework from a filesystem holding both the persisted
    /// index image and the (not yet decayed) snapshot files. Runs the
    /// recovery scan (see [`Self::recover`]) before returning, so the
    /// restored warehouse is always self-consistent.
    pub fn restore(dfs: Dfs, layout: CellLayout) -> Result<Self, RestoreError> {
        Self::restore_with_recovery(dfs, layout).map(|(fw, _)| fw)
    }

    /// [`Self::restore`] that also returns what the recovery scan did.
    pub fn restore_with_recovery(
        dfs: Dfs,
        layout: CellLayout,
    ) -> Result<(Self, RecoveryReport), RestoreError> {
        let store = SnapshotStore::new(dfs, Arc::new(GzipLite::default())).with_root("/spate");
        Self::restore_from(store, layout)
    }

    /// Restore over `store`, whichever backend wrote the warehouse: a
    /// content-addressed store gets its retained epochs re-read from the
    /// on-disk manifests before the index is reconciled (see
    /// [`Self::recover`]).
    pub fn restore_from(
        store: SnapshotStore,
        layout: CellLayout,
    ) -> Result<(Self, RecoveryReport), RestoreError> {
        let packed = store
            .dfs()
            .read(&Self::index_path(&store))
            .map_err(RestoreError::Dfs)?;
        let image = GzipLite::default()
            .decompress(&packed)
            .map_err(RestoreError::Codec)?;
        let index = persist::from_bytes(&image).map_err(RestoreError::Image)?;
        let mut fw = Self {
            store,
            layout,
            index,
            policy: DecayPolicy::never(),
            decay_log: DecayReport::default(),
            version: 0,
            observers: Vec::new(),
        };
        let report = fw.recover();
        if !report.is_clean() {
            // Make the reconciliation durable, otherwise every restart
            // re-discovers (and re-fixes) the same inconsistencies.
            let _ = fw.persist_index();
        }
        Ok((fw, report))
    }

    /// Startup recovery scan: reconcile the persisted index against the
    /// files actually committed on the filesystem.
    ///
    /// 1. **Orphans** — `.tmp` staging files from crashed ingests are
    ///    deleted (their epoch either committed on retry or never will).
    /// 2. **Missing leaves** — index leaves claiming presence whose file
    ///    is gone are marked absent, so queries degrade to summaries or
    ///    partial coverage instead of erroring epoch by epoch.
    /// 3. **Strays** — committed leaves the index doesn't know:
    ///    those *newer* than the index's last epoch are re-indexed in
    ///    epoch order (crash after commit, before index persist); older
    ///    ones are stale (decay evicted the leaf but the delete crashed)
    ///    and are reaped.
    pub fn recover(&mut self) -> RecoveryReport {
        let _span = obs::span("spate.recover");
        let mut report = RecoveryReport::default();
        // Content-addressed backend first: index the committed manifests
        // whose pack is there (a fresh process knows none) and sweep
        // orphan packs and temps; only then is `contains` truthful.
        if let Some(cas_report) = self.store.recover_backend() {
            report.orphans_deleted += cas_report.orphan_tmp_deleted;
        }
        for tmp in self.store.orphan_tmp_paths() {
            if self.store.dfs().delete(&tmp).is_ok() {
                report.orphans_deleted += 1;
                obs::inc("spate.recover.orphans_deleted");
            }
        }
        let missing: Vec<EpochId> = self
            .index
            .all_leaves()
            .filter(|l| l.present && !self.store.contains(l.epoch))
            .map(|l| l.epoch)
            .collect();
        let mut newly_absent: Vec<EpochId> = Vec::new();
        for epoch in missing {
            self.index.mark_absent(epoch);
            report.leaves_marked_absent += 1;
            newly_absent.push(epoch);
            obs::inc("spate.recover.leaves_marked_absent");
        }
        let known: HashSet<u32> = self.index.all_leaves().map(|l| l.epoch.0).collect();
        let strays = self.store.committed_epochs();
        for epoch in strays.into_iter().filter(|e| !known.contains(&e.0)) {
            if self.index.last_epoch().is_none_or(|last| epoch > last) {
                match self.store.load(epoch) {
                    Ok(snap) => {
                        let stored = StoredSnapshot {
                            epoch,
                            path: self.store.path_for(epoch),
                            raw_bytes: snap.to_bytes().len() as u64,
                            stored_bytes: self.store.stored_len(epoch),
                        };
                        self.index.incremence(&snap, &stored);
                        report.strays_reindexed += 1;
                        self.notify_ingested(epoch);
                        obs::inc("spate.recover.strays_reindexed");
                    }
                    Err(_) => {
                        // Unreadable right now (lost/corrupt replicas):
                        // leave the file for a later repair + recovery.
                        report.strays_unreadable += 1;
                        obs::inc("spate.recover.strays_unreadable");
                    }
                }
            } else if self.store.evict(epoch).is_ok_and(|freed| freed > 0) {
                // Evict through the store so the content-addressed backend
                // deletes the epoch's pack, not just the leaf file.
                report.stale_strays_deleted += 1;
                obs::inc("spate.recover.stale_strays_deleted");
            }
        }
        self.notify_evicted(&newly_absent);
        if !report.is_clean() {
            self.bump_version();
        }
        report
    }

    /// Decide how `q` is answered, before any leaf is read: probe the
    /// index for a covering of `w`.
    pub fn plan(&self, q: &Query) -> Plan {
        let covering = {
            let _s = obs::span("index_probe");
            let start = std::time::Instant::now();
            let covering = self.index.find_covering(q.window.0, q.window.1);
            obs::cost::add_stage_ns("index_probe", start.elapsed().as_nanos() as u64);
            covering
        };
        Plan::of(covering, &self.layout, &q.bbox)
    }

    /// Classify every epoch of an inclusive window by what the warehouse
    /// can serve *right now*: full-resolution leaf readable (served),
    /// evicted by decay (decayed), or stored-but-unreadable / never
    /// ingested (unavailable). Actually attempts each load, so the answer
    /// reflects real replica health, not just metadata.
    ///
    /// Only the index's leaves in the window are visited, in ascending
    /// epoch order; every other epoch is unavailable. The window of every
    /// epoch, `(0, u32::MAX)`, holds 2^32 of them: `requested` (and so
    /// `unavailable`) saturates at `u32::MAX`.
    pub fn probe_coverage(&self, start: EpochId, end: EpochId) -> Coverage {
        assert!(start <= end);
        let requested = u32::try_from(u64::from(end.0 - start.0) + 1).unwrap_or(u32::MAX);
        let mut cov = Coverage {
            requested,
            ..Coverage::default()
        };
        // Incremence takes epochs in strictly increasing order, so these
        // are distinct and ascending.
        for leaf in self.index.leaves_in(start, end) {
            if !leaf.present {
                cov.decayed += 1;
            } else if self.store.load(leaf.epoch).is_ok() {
                cov.served += 1;
            }
        }
        cov.unavailable = requested - cov.served - cov.decayed;
        cov
    }
}

/// What the startup recovery scan found and fixed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Orphaned `.tmp` staging files deleted.
    pub orphans_deleted: u64,
    /// Present-claiming index leaves whose file is gone, marked absent.
    pub leaves_marked_absent: u64,
    /// Committed files newer than the index, re-ingested into it.
    pub strays_reindexed: u64,
    /// Stale committed files older than the index's frontier, deleted.
    pub stale_strays_deleted: u64,
    /// Stray files that could not be read (left in place for repair).
    pub strays_unreadable: u64,
}

impl RecoveryReport {
    /// Did recovery find a perfectly consistent warehouse?
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

/// Errors rebuilding a framework from persisted state.
#[derive(Debug)]
pub enum RestoreError {
    Dfs(dfs::DfsError),
    Codec(codecs::CodecError),
    Image(PersistError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Dfs(e) => write!(f, "reading index image: {e}"),
            RestoreError::Codec(e) => write!(f, "decompressing index image: {e}"),
            RestoreError::Image(e) => write!(f, "decoding index image: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl ExplorationFramework for SpateFramework {
    fn name(&self) -> &'static str {
        "SPATE"
    }

    fn layout(&self) -> &CellLayout {
        &self.layout
    }

    fn ingest(&mut self, snapshot: &Snapshot) -> IngestStats {
        self.try_ingest(snapshot).expect("spate store")
    }

    fn space(&self) -> SpaceReport {
        SpaceReport {
            data_bytes: self.store.stored_bytes(),
            index_bytes: self.index.index_bytes(),
        }
    }

    fn load_epoch(&self, epoch: EpochId) -> Option<Snapshot> {
        self.store.load(epoch).ok()
    }

    fn scan_rows(
        &self,
        start: EpochId,
        end: EpochId,
        table: TableKind,
        visit: &mut dyn FnMut(EpochId, &[Row<'_>]),
    ) {
        let window = (start.0..=end.0).map(EpochId);
        self.store.scan_rows(window, table, visit);
    }

    fn version(&self) -> u64 {
        self.version
    }

    /// `Q(a, b, w)` over this warehouse. The exact branch is
    /// [`crate::query::run_exact`] over the store's reads of the window
    /// (`SnapshotStore::read_ahead`): a long window's epochs may be read
    /// ahead on a second thread, but each is scanned in epoch order, on
    /// this thread, straight over what the store holds of it — serialized
    /// text, or the columns of a CAS epoch.
    fn query(&self, q: &Query) -> QueryResult {
        let _span = obs::span("spate.query");
        let plan = self.plan(q);
        let _s = matches!(plan, Plan::Exact(_)).then(|| obs::span("scan"));
        let rows = RowPlan::new(q, &self.layout);
        let window = match &plan {
            Plan::Exact(epochs) => epochs.clone(),
            _ => Vec::new(),
        };
        let result = self.store.read_ahead(&window, rows.tables(), |reads| {
            plan.evaluate(&rows, |epoch, out| {
                let (read_epoch, read) = reads.next().expect("a read for every epoch of the plan");
                debug_assert_eq!(read_epoch, epoch);
                rows.scan_read(epoch, read, out).is_ok()
            })
        });
        if let QueryResult::Partial { coverage, .. } = &result {
            obs::inc("spate.query.partial");
            let unavailable = u64::from(coverage.unavailable);
            obs::add("spate.query.unavailable_epochs", unavailable);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::testutil::tiny_trace;
    use telco_trace::cells::BoundingBox;
    use telco_trace::time::EPOCHS_PER_DAY;
    use telco_trace::{TraceConfig, TraceGenerator};

    #[test]
    fn compresses_telco_snapshots_well() {
        let (layout, snaps) = tiny_trace(8);
        let mut spate = SpateFramework::in_memory(layout.clone());
        let mut raw_total = 0u64;
        let mut stored_total = 0u64;
        for s in &snaps {
            let st = spate.ingest(s);
            raw_total += st.raw_bytes;
            stored_total += st.stored_bytes;
        }
        // Night epochs at unit-test scale are small files, so the ratio is
        // below the ~7-9x seen on realistic snapshot sizes (see the Table I
        // bench); 4x is the conservative floor here.
        let ratio = raw_total as f64 / stored_total as f64;
        assert!(
            ratio > 3.5,
            "telco snapshots should compress well, got {ratio:.2}x"
        );
    }

    #[test]
    fn exact_queries_over_recent_data() {
        let (layout, snaps) = tiny_trace(4);
        let mut spate = SpateFramework::in_memory(layout);
        for s in &snaps {
            spate.ingest(s);
        }
        let q =
            Query::new(&["upflux", "downflux"], BoundingBox::everything()).with_epoch_range(1, 2);
        let result = spate.query(&q);
        assert!(result.is_exact());
        let expected: usize = snaps[1..=2].iter().map(|s| s.cdr.len()).sum();
        assert_eq!(result.row_count(), expected);
    }

    #[test]
    fn decayed_windows_answer_with_summaries() {
        let mut config = TraceConfig::scaled(1.0 / 2048.0);
        config.days = 4;
        let generator = TraceGenerator::new(config);
        let layout = generator.layout().clone();
        let policy = DecayPolicy {
            full_resolution_days: 1,
            day_highlight_days: 100,
            month_highlight_days: 100,
            year_highlight_days: 100,
        };
        let mut spate = SpateFramework::in_memory(layout).with_decay(policy);
        for s in generator {
            spate.ingest(&s);
        }
        assert!(spate.decay_log().leaves_evicted > 0);

        // Day 0 decayed: summary at day resolution.
        let q = Query::new(&["upflux"], BoundingBox::everything())
            .with_epoch_range(0, EPOCHS_PER_DAY - 1);
        match spate.query(&q) {
            QueryResult::Summary {
                resolution,
                highlights,
            } => {
                assert_eq!(resolution.label(), "day");
                assert!(highlights.cdr_records > 0);
            }
            other => panic!("expected summary, got {other:?}"),
        }

        // The most recent day stays exact.
        let last = spate.index().last_epoch().unwrap();
        let q = Query::new(&["upflux"], BoundingBox::everything())
            .with_window(EpochId(last.0 - 5), last);
        assert!(spate.query(&q).is_exact());
    }

    #[test]
    fn space_is_much_smaller_than_raw() {
        // Enough epochs that highlight overhead amortizes against data.
        let (layout, snaps) = tiny_trace(24);
        let mut spate = SpateFramework::in_memory(layout.clone());
        let mut raw = crate::framework::RawFramework::in_memory(layout);
        for s in &snaps {
            spate.ingest(s);
            raw.ingest(s);
        }
        let spate_space = spate.space().total();
        let raw_space = raw.space().total();
        // At unit-test scale the per-day highlight overhead is still large
        // relative to one day of data; the full-trace benches show the
        // paper's ~order-of-magnitude gap.
        assert!(
            (spate_space as f64) < raw_space as f64 / 2.0,
            "spate {spate_space} vs raw {raw_space}"
        );
    }

    #[test]
    fn summary_respects_bbox() {
        let mut config = TraceConfig::scaled(1.0 / 2048.0);
        config.days = 2;
        let generator = TraceGenerator::new(config);
        let layout = generator.layout().clone();
        let policy = DecayPolicy {
            full_resolution_days: 0,
            day_highlight_days: 100,
            month_highlight_days: 100,
            year_highlight_days: 100,
        };
        let mut spate = SpateFramework::in_memory(layout.clone()).with_decay(policy);
        for s in generator {
            spate.ingest(&s);
        }
        let q_all = Query::new(&["upflux"], BoundingBox::everything())
            .with_epoch_range(0, EPOCHS_PER_DAY - 1);
        let q_some = Query::new(&["upflux"], BoundingBox::new(0.0, 0.0, 38_000.0, 38_000.0))
            .with_epoch_range(0, EPOCHS_PER_DAY - 1);
        let (
            QueryResult::Summary {
                highlights: all, ..
            },
            QueryResult::Summary {
                highlights: some, ..
            },
        ) = (spate.query(&q_all), spate.query(&q_some))
        else {
            panic!("expected summaries");
        };
        assert!(some.per_cell.len() < all.per_cell.len());
    }

    #[test]
    fn persist_and_restore_round_trip() {
        let (layout, snaps) = tiny_trace(6);
        let shared_dfs = dfs::Dfs::in_memory();
        let mut spate = SpateFramework::new(shared_dfs.clone(), layout.clone());
        for s in &snaps {
            spate.ingest(s);
        }
        let image_bytes = spate.persist_index().unwrap();
        assert!(image_bytes > 0);

        // "Restart": rebuild from the same filesystem.
        let restored = SpateFramework::restore(shared_dfs, layout).unwrap();
        assert_eq!(restored.index().last_epoch(), spate.index().last_epoch());
        assert_eq!(
            restored.index().root_highlights().cdr_records,
            spate.index().root_highlights().cdr_records
        );
        // Queries work identically after restore.
        let q = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(1, 4);
        assert_eq!(restored.query(&q).row_count(), spate.query(&q).row_count());
        // Re-persisting overwrites cleanly.
        spate.persist_index().unwrap();
    }

    #[test]
    fn cas_backend_answers_identically_and_decays_to_zero() {
        let (layout, snaps) = tiny_trace(8);
        let mut path_fw = SpateFramework::in_memory(layout.clone());
        let mut cas_fw = SpateFramework::with_cas(dfs::Dfs::in_memory(), layout);
        for s in &snaps {
            path_fw.ingest(s);
            cas_fw.ingest(s);
        }
        // Same query layer, byte-identical reassembled snapshots: results
        // must agree in shape and content.
        let q =
            Query::new(&["upflux", "downflux"], BoundingBox::everything()).with_epoch_range(1, 6);
        assert_eq!(
            format!("{:?}", cas_fw.query(&q)),
            format!("{:?}", path_fw.query(&q))
        );
        let cas = cas_fw.store().cas().expect("cas backend");
        assert!(cas.stats().dedup_hits > 0, "repeated inline values");
        // Full decay through the store surface leaves zero stored bytes
        // and no file behind.
        for s in &snaps {
            cas_fw.store().evict(s.epoch).unwrap();
        }
        assert_eq!(cas_fw.store().stored_bytes(), 0);
        assert_eq!(cas.bytes_stored(), 0);
    }

    /// Four epochs persisted in the index, two strays past its frontier
    /// as after a crash: the restored warehouse re-indexes the strays and
    /// holds, leaf for leaf, the index an uninterrupted ingest built.
    fn persists_and_restores(store: impl Fn(dfs::Dfs) -> SnapshotStore) {
        let (layout, snaps) = tiny_trace(6);
        let fs = dfs::Dfs::in_memory();
        let mut spate = SpateFramework::with_store(store(fs.clone()), layout.clone());
        for s in &snaps[..4] {
            spate.ingest(s);
        }
        spate.persist_index().unwrap();
        for s in &snaps[4..] {
            spate.ingest(s);
        }
        let (restored, report) = SpateFramework::restore_from(store(fs), layout).unwrap();
        assert_eq!(report.strays_reindexed, 2);
        assert_eq!(restored.index().last_epoch(), Some(snaps[5].epoch));
        let leaves = |fw: &SpateFramework| -> Vec<(EpochId, String, u64, u64)> {
            let leaves = fw.index().all_leaves();
            leaves
                .map(|l| (l.epoch, l.path.clone(), l.raw_bytes, l.stored_bytes))
                .collect()
        };
        assert_eq!(leaves(&restored), leaves(&spate));
        let q = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(0, 5);
        assert!(restored.query(&q).is_exact());
        let root = |fw: &SpateFramework| fw.store().cas().map(|cas| cas.root_hash());
        assert_eq!(
            root(&restored),
            root(&spate),
            "merkle root survives restart"
        );
    }

    #[test]
    fn cas_backend_persists_and_restores() {
        persists_and_restores(|fs| SnapshotStore::new_cas(fs, cas::CasConfig::default()));
    }

    #[test]
    fn path_backend_persists_and_restores() {
        persists_and_restores(|fs| {
            SnapshotStore::new(fs, Arc::new(GzipLite::default())).with_root("/spate")
        });
    }

    /// The index image is not snapshot data: persisting it moves neither
    /// backend's `data_bytes`.
    #[test]
    fn persisting_the_index_leaves_space_as_it_was() {
        let (layout, snaps) = tiny_trace(4);
        let path = SpateFramework::new(dfs::Dfs::in_memory(), layout.clone());
        let cas = SpateFramework::with_cas(dfs::Dfs::in_memory(), layout);
        for mut fw in [path, cas] {
            for s in &snaps {
                fw.ingest(s);
            }
            let before = fw.space();
            assert!(fw.persist_index().unwrap() > 0);
            assert_eq!(fw.space(), before);
        }
    }

    /// Two warehouses on one filesystem, each under its own root, each
    /// restore their own index.
    #[test]
    fn warehouses_under_two_roots_restore_their_own_index() {
        let (layout, snaps) = tiny_trace(6);
        let fs = dfs::Dfs::in_memory();
        let store =
            |root| SnapshotStore::new(fs.clone(), Arc::new(GzipLite::default())).with_root(root);
        let mut a = SpateFramework::with_store(store("/a"), layout.clone());
        let mut b = SpateFramework::with_store(store("/b"), layout.clone());
        for s in &snaps[..2] {
            a.ingest(s);
        }
        for s in &snaps {
            b.ingest(s);
        }
        a.persist_index().unwrap();
        b.persist_index().unwrap();
        for (root, fw) in [("/a", &a), ("/b", &b)] {
            assert!(fs.exists(&format!("{root}/_index.img")));
            let (restored, report) =
                SpateFramework::restore_from(store(root), layout.clone()).unwrap();
            assert!(report.is_clean(), "{root}: {report:?}");
            assert_eq!(
                restored.index().last_epoch(),
                fw.index().last_epoch(),
                "{root}"
            );
        }
    }

    #[test]
    fn restore_without_image_fails_cleanly() {
        let (layout, _) = tiny_trace(1);
        match SpateFramework::restore(dfs::Dfs::in_memory(), layout) {
            Err(RestoreError::Dfs(_)) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("restore should fail without an image"),
        }
    }

    #[test]
    fn unreadable_epochs_degrade_to_partial_with_coverage() {
        let (layout, snaps) = tiny_trace(6);
        let fs = dfs::Dfs::new(dfs::DfsConfig {
            replication: 2,
            n_datanodes: 4,
            ..dfs::DfsConfig::default()
        });
        let mut spate = SpateFramework::new(fs.clone(), layout);
        for s in &snaps {
            spate.ingest(s);
        }
        // Destroy both replicas of epoch 2's leaf (bit rot on every copy).
        let path = spate.store().path_for(EpochId(2));
        for dn in 0..4 {
            fs.corrupt_replica_for_test(&path, dn);
        }
        fs.drop_caches();
        let q = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(0, 5);
        match spate.query(&q) {
            QueryResult::Partial { result, coverage } => {
                assert_eq!(coverage.requested, 6);
                assert_eq!(coverage.served, 5);
                assert_eq!(coverage.unavailable, 1);
                assert_eq!(coverage.decayed, 0);
                assert!(!coverage.is_complete());
                let expected: usize = snaps
                    .iter()
                    .filter(|s| s.epoch != EpochId(2))
                    .map(|s| s.cdr.len())
                    .sum();
                assert_eq!(result.cdr.rows.len(), expected, "other epochs served");
            }
            other => panic!("expected partial, got {other:?}"),
        }
        // A window avoiding the bad epoch stays exact.
        let q = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(3, 5);
        assert!(spate.query(&q).is_exact());
        // probe_coverage agrees with the query path.
        let cov = spate.probe_coverage(EpochId(0), EpochId(5));
        assert_eq!(cov.served, 5);
        assert_eq!(cov.unavailable, 1);
    }

    #[test]
    fn a_misfiled_leaf_is_neither_served_nor_reindexed() {
        let (layout, snaps) = tiny_trace(6);
        let fs = dfs::Dfs::in_memory();
        let mut spate = SpateFramework::new(fs.clone(), layout.clone());
        for s in &snaps {
            spate.ingest(s);
        }
        spate.persist_index().unwrap();
        // Epoch 2's leaf now holds epoch 4's snapshot, and a copy of it
        // turns up past the index's frontier, as epoch 9.
        let leaf = fs.read(&spate.store().path_for(EpochId(4))).unwrap();
        fs.delete(&spate.store().path_for(EpochId(2))).unwrap();
        for misfiled in [EpochId(2), EpochId(9)] {
            fs.write(&spate.store().path_for(misfiled), &leaf).unwrap();
        }

        let q = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(1, 3);
        let QueryResult::Partial { result, coverage } = spate.query(&q) else {
            panic!("expected a partial answer");
        };
        assert_eq!((coverage.served, coverage.unavailable), (2, 1));
        assert_eq!(
            result.cdr.rows.len(),
            snaps[1].cdr.len() + snaps[3].cdr.len()
        );
        assert!(spate.load_epoch(EpochId(2)).is_none());

        let (restored, report) = SpateFramework::restore_with_recovery(fs, layout).unwrap();
        assert_eq!(report.strays_reindexed, 0);
        assert_eq!(report.strays_unreadable, 1);
        assert_eq!(restored.index().last_epoch(), Some(EpochId(5)));
    }

    #[test]
    fn recovery_scan_reconciles_index_and_store() {
        let (layout, snaps) = tiny_trace(8);
        let fs = dfs::Dfs::in_memory();
        let mut spate = SpateFramework::new(fs.clone(), layout.clone());
        // Ingest 6 epochs, persist the index, then ingest 2 more WITHOUT
        // re-persisting: those files are "strays" after a crash.
        for s in &snaps[..6] {
            spate.ingest(s);
        }
        spate.persist_index().unwrap();
        for s in &snaps[6..] {
            spate.ingest(s);
        }
        // A crashed ingest leaves an orphaned staging file...
        fs.write(&spate.store().tmp_path_for(EpochId(99)), b"torn")
            .unwrap();
        // ...and epoch 1's committed file vanished (all replicas wiped).
        fs.delete(&spate.store().path_for(EpochId(1))).unwrap();

        let (restored, report) = SpateFramework::restore_with_recovery(fs.clone(), layout).unwrap();
        assert_eq!(report.orphans_deleted, 1);
        assert_eq!(report.leaves_marked_absent, 1, "epoch 1 gone");
        assert_eq!(report.strays_reindexed, 2, "epochs 6..8 recovered");
        assert_eq!(report.stale_strays_deleted, 0);
        assert!(!report.is_clean());
        assert_eq!(restored.index().last_epoch(), Some(EpochId(7)));
        assert!(!fs.exists(&restored.store().tmp_path_for(EpochId(99))));
        // Re-indexed strays answer exact queries again.
        let q = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(6, 7);
        assert!(restored.query(&q).is_exact());
        // The lost epoch shows up in coverage as decayed-class absence
        // (marked absent in the index), not a query error.
        let cov = restored.probe_coverage(EpochId(0), EpochId(7));
        assert_eq!(cov.requested, 8);
        assert_eq!(cov.served, 7);
        assert_eq!(cov.decayed, 1, "marked-absent leaf");
        // A second recovery is a no-op.
        let (_, second) = SpateFramework::restore_with_recovery(fs, layout_of(&restored)).unwrap();
        assert!(second.is_clean(), "{second:?}");
    }

    fn layout_of(fw: &SpateFramework) -> CellLayout {
        fw.layout.clone()
    }

    #[test]
    fn probe_coverage_counts_decayed_epochs() {
        let mut config = TraceConfig::scaled(1.0 / 2048.0);
        config.days = 3;
        let generator = TraceGenerator::new(config);
        let layout = generator.layout().clone();
        let policy = DecayPolicy {
            full_resolution_days: 1,
            day_highlight_days: 100,
            month_highlight_days: 100,
            year_highlight_days: 100,
        };
        let mut spate = SpateFramework::in_memory(layout).with_decay(policy);
        for s in generator {
            spate.ingest(&s);
        }
        let last = spate.index().last_epoch().unwrap();
        let cov = spate.probe_coverage(EpochId(0), last);
        assert_eq!(cov.requested, last.0 + 1);
        assert!(cov.decayed > 0, "{cov:?}");
        assert!(cov.served > 0, "{cov:?}");
        assert_eq!(cov.unavailable, 0);
        assert_eq!(cov.served + cov.decayed, cov.requested);
        assert_eq!(cov.decayed, 48, "one day decayed: {cov:?}");
        // The window of every epoch: the leaves are probed, not 2^32
        // epochs, and `requested` saturates.
        let all = spate.probe_coverage(EpochId(0), EpochId(u32::MAX));
        assert_eq!((all.served, all.decayed), (cov.served, cov.decayed));
        assert_eq!(all.requested, u32::MAX);
        assert_eq!(all.unavailable, all.requested - all.served - all.decayed);
        // A window past the last epoch is all unavailable.
        let after = spate.probe_coverage(EpochId(last.0 + 1), EpochId(last.0 + 10));
        assert_eq!((after.requested, after.unavailable), (10, 10));
    }

    #[test]
    fn unavailable_for_future_windows() {
        let (layout, snaps) = tiny_trace(2);
        let mut spate = SpateFramework::in_memory(layout);
        for s in &snaps {
            spate.ingest(s);
        }
        // A window inside a period that has an index node (January 2016)
        // answers with that node's summary — the paper's "node whose
        // period completely covers w" semantics.
        let q = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(500, 600);
        assert!(matches!(spate.query(&q), QueryResult::Summary { .. }));
        // A window wholly outside any node's period is unavailable.
        let q = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(20_000, 20_100);
        assert!(matches!(spate.query(&q), QueryResult::Unavailable));
    }
}
