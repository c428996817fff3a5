//! The exploration session cache of the application layer.
//!
//! "SPATE might retrieve records for a larger period than the one
//! requested ... our decision to retrieve a larger period serves as an
//! implicit prefetching mechanism. When users decide to focus on a smaller
//! window within w, it is considered as a data exploration query
//! Q(a,b,w′) with |w′| < |w|, which can be served directly from the cache
//! of the user interface" (§VI-A).
//!
//! An [`ExplorerSession`] keeps the snapshots of the last explored window.
//! Zooming into a sub-window (the dominant interaction pattern of the map
//! UI) re-projects from the cached snapshots without touching storage;
//! widening or moving the window refills the cache.
//!
//! The cached window is stamped with the framework's staleness epoch
//! counter ([`ExplorationFramework::version`]). Any warehouse mutation
//! between two `explore` calls — new snapshots ingested, leaves evicted
//! by decay — bumps that counter, and the next containment hit is
//! demoted to a miss instead of serving rows the warehouse no longer
//! holds. This is the same invalidation contract the serving tier's
//! shared epoch cache follows (`spate-serve`), so a single-user session
//! and a thousand-user server never disagree about freshness.

use crate::framework::ExplorationFramework;
use crate::query::{project_snapshot_refs, Query, QueryResult};
use telco_trace::snapshot::Snapshot;
use telco_trace::time::EpochId;

/// Cached state: the snapshots of one contiguous window, stamped with the
/// framework version they were read at.
struct CachedWindow {
    start: EpochId,
    end: EpochId,
    version: u64,
    snapshots: Vec<Snapshot>,
}

/// Session statistics (to observe prefetching and invalidation working).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries answered purely from the session cache.
    pub cache_hits: u64,
    /// Queries that had to go to the framework.
    pub cache_misses: u64,
    /// Queries answered as summaries (never cached: already cheap).
    pub summaries: u64,
    /// Containment hits demoted to misses because the warehouse mutated
    /// (ingest or decay) since the window was cached.
    pub stale_invalidations: u64,
}

/// An interactive exploration session. The framework is passed to every
/// [`ExplorerSession::explore`] call rather than borrowed for the session
/// lifetime, so ingest and decay can run between queries — exactly the
/// serving-tier situation where one warehouse mutates under many live
/// sessions.
#[derive(Default)]
pub struct ExplorerSession {
    cached: Option<CachedWindow>,
    stats: SessionStats,
}

impl ExplorerSession {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Evaluate a query, serving sub-windows of the cached window locally.
    ///
    /// Cache hits re-project and re-filter from the cached snapshots, so
    /// *any* attribute selection and bounding box works against them — the
    /// cache key is only the temporal window. A hit is honored only if the
    /// framework's version still matches the stamp taken when the window
    /// was cached; otherwise the entry is dropped and the query re-reads.
    pub fn explore(&mut self, fw: &dyn ExplorationFramework, q: &Query) -> QueryResult {
        if let Some(c) = &self.cached {
            if q.window.0 >= c.start && q.window.1 <= c.end {
                if c.version == fw.version() {
                    self.stats.cache_hits += 1;
                    let slice = c
                        .snapshots
                        .iter()
                        .filter(|s| s.epoch >= q.window.0 && s.epoch <= q.window.1);
                    return QueryResult::Exact(project_snapshot_refs(slice, q, fw.layout()));
                }
                // The warehouse changed under the cached window: the rows
                // may be decayed or superseded. Never serve them.
                self.stats.stale_invalidations += 1;
                obs::inc("core.session.stale_invalidations");
                self.cached = None;
            }
        }

        self.stats.cache_misses += 1;
        // Full evaluation; exact answers refill the cache.
        match fw.query(q) {
            QueryResult::Exact(result) => {
                // Stamp the version *before* re-loading, so a mutation
                // racing the refill invalidates rather than lingers.
                let version = fw.version();
                // Re-load the window's snapshots for the cache (the
                // framework result is already projected). This is the
                // "retrieve a larger period" prefetch: keep raw snapshots
                // so the next zoom-in needs no storage access.
                let snapshots = fw.scan(q.window.0, q.window.1);
                self.cached = Some(CachedWindow {
                    start: q.window.0,
                    end: q.window.1,
                    version,
                    snapshots,
                });
                QueryResult::Exact(result)
            }
            summary @ QueryResult::Summary { .. } => {
                self.stats.summaries += 1;
                self.stats.cache_misses -= 1;
                summary
            }
            other => other,
        }
    }

    /// Drop the cached window explicitly.
    pub fn invalidate(&mut self) {
        self.cached = None;
    }

    /// The currently cached window, if any.
    pub fn cached_window(&self) -> Option<(EpochId, EpochId)> {
        self.cached.as_ref().map(|c| (c.start, c.end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::testutil::tiny_trace;
    use crate::framework::SpateFramework;
    use crate::index::decay::DecayPolicy;
    use telco_trace::cells::BoundingBox;

    fn session_fixture() -> SpateFramework {
        let (layout, snaps) = tiny_trace(8);
        let mut fw = SpateFramework::in_memory(layout);
        for s in &snaps {
            fw.ingest(s);
        }
        fw
    }

    #[test]
    fn zooming_in_hits_the_cache_and_skips_storage() {
        let fw = session_fixture();
        let mut session = ExplorerSession::new();

        // Broad query: cold, reads storage.
        let broad = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(0, 7);
        let broad_result = session.explore(&fw, &broad);
        assert!(broad_result.is_exact());
        assert_eq!(session.stats().cache_misses, 1);
        assert_eq!(session.cached_window(), Some((EpochId(0), EpochId(7))));

        let reads_before = fw.store().dfs().metrics().reads;
        // Zoom into a sub-window: served from the session cache.
        let narrow = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(2, 4);
        let narrow_result = session.explore(&fw, &narrow);
        assert!(narrow_result.is_exact());
        assert_eq!(session.stats().cache_hits, 1);
        assert_eq!(
            fw.store().dfs().metrics().reads,
            reads_before,
            "zoom-in must not touch storage"
        );
    }

    #[test]
    fn cached_answers_match_direct_answers() {
        let fw = session_fixture();
        let mut session = ExplorerSession::new();
        let broad =
            Query::new(&["upflux", "downflux"], BoundingBox::everything()).with_epoch_range(0, 7);
        session.explore(&fw, &broad);

        // Different attributes AND different bbox on the cached window.
        let focus_box = BoundingBox::new(0.0, 0.0, 40_000.0, 40_000.0);
        let narrow = Query::new(&["duration_s", "call_type"], focus_box).with_epoch_range(1, 5);
        let via_cache = session.explore(&fw, &narrow);
        let direct = fw.query(&narrow);
        let (QueryResult::Exact(a), QueryResult::Exact(b)) = (via_cache, direct) else {
            panic!("expected exact results");
        };
        assert_eq!(a.cdr.rows, b.cdr.rows);
        assert_eq!(a.cdr.column_names, b.cdr.column_names);
    }

    #[test]
    fn widening_refills_the_cache() {
        let fw = session_fixture();
        let mut session = ExplorerSession::new();
        session.explore(
            &fw,
            &Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(2, 4),
        );
        // A wider window misses and replaces the cache.
        session.explore(
            &fw,
            &Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(0, 6),
        );
        assert_eq!(session.stats().cache_misses, 2);
        assert_eq!(session.cached_window(), Some((EpochId(0), EpochId(6))));
        // Now the original window is a cache hit.
        session.explore(
            &fw,
            &Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(2, 4),
        );
        assert_eq!(session.stats().cache_hits, 1);
    }

    #[test]
    fn invalidate_forces_a_reload() {
        let fw = session_fixture();
        let mut session = ExplorerSession::new();
        let q = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(0, 3);
        session.explore(&fw, &q);
        session.invalidate();
        assert_eq!(session.cached_window(), None);
        session.explore(&fw, &q);
        assert_eq!(session.stats().cache_misses, 2);
    }

    #[test]
    fn decay_between_queries_invalidates_the_cached_window() {
        // Regression: the session used to keep serving full-resolution
        // rows for windows the decay fungus had already evicted.
        let (layout, snaps) = tiny_trace(8);
        let mut fw = SpateFramework::in_memory(layout);
        for s in &snaps {
            fw.ingest(s);
        }
        let mut session = ExplorerSession::new();
        let q = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(0, 5);
        assert!(session.explore(&fw, &q).is_exact());
        assert_eq!(session.stats().cache_hits, 0);

        // The warehouse mutates between queries: decay evicts the whole
        // trace's full resolution (policy horizon 0 days, "now" far out).
        fw = fw.with_decay(DecayPolicy {
            full_resolution_days: 0,
            day_highlight_days: 1000,
            month_highlight_days: 1000,
            year_highlight_days: 1000,
        });
        let report = fw.run_decay(EpochId(5 * telco_trace::time::EPOCHS_PER_DAY));
        assert!(report.leaves_evicted > 0);

        // Same sub-window again: containment holds, but the version
        // changed — the stale rows must NOT be served.
        let narrow = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(1, 3);
        match session.explore(&fw, &narrow) {
            QueryResult::Summary { .. } => {}
            other => panic!("stale session cache served {other:?}"),
        }
        assert_eq!(session.stats().cache_hits, 0, "no stale hit");
        assert_eq!(session.stats().stale_invalidations, 1);
        assert_eq!(session.cached_window(), None, "stale entry dropped");
    }

    #[test]
    fn ingest_between_queries_invalidates_too() {
        let (layout, snaps) = tiny_trace(8);
        let mut fw = SpateFramework::in_memory(layout);
        for s in &snaps[..6] {
            fw.ingest(s);
        }
        let mut session = ExplorerSession::new();
        let q = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(0, 5);
        assert!(session.explore(&fw, &q).is_exact());

        fw.ingest(&snaps[6]);

        // The old window re-reads (version changed), then caches fresh.
        assert!(session.explore(&fw, &q).is_exact());
        assert_eq!(session.stats().stale_invalidations, 1);
        assert_eq!(session.stats().cache_misses, 2);
        // Stable warehouse again: hits resume.
        assert!(session.explore(&fw, &q).is_exact());
        assert_eq!(session.stats().cache_hits, 1);
    }
}
