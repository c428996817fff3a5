//! The Decaying module: the "Evict Oldest Individuals" data fungus.
//!
//! "Decaying refers to the progressive loss of detail in information as
//! data ages with time until it has completely disappeared ... we chose a
//! data fungus we coin 'Evict Oldest Individuals' as it helps us to deal
//! more pragmatically with telco network signals, where more recent
//! signals contain more important operational value that needs to be
//! retained fully" (§V-C).
//!
//! A [`DecayPolicy`] sets the retention horizon of each resolution:
//! full-resolution leaves decay first (their compressed files are purged
//! from replicated storage in a sliding-window manner), then day
//! highlights, then month highlights, then whole year subtrees. The schema
//! never decays — only data does.

use crate::index::TemporalIndex;
use crate::storage::{SnapshotStore, StorageError};
use telco_trace::time::EpochId;

/// Retention horizons, in days of age relative to the newest ingested
/// epoch. Each horizon must not shrink as resolution coarsens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecayPolicy {
    /// Leaves (compressed snapshots) older than this are evicted.
    pub full_resolution_days: u32,
    /// Day highlights older than this are dropped.
    pub day_highlight_days: u32,
    /// Month highlights older than this are dropped.
    pub month_highlight_days: u32,
    /// Year subtrees older than this disappear entirely.
    pub year_highlight_days: u32,
}

impl DecayPolicy {
    /// The paper's hypothetical red-line policy (Fig. 5): "retain up to one
    /// year of data exploration with full resolution along with yearly
    /// progressive decay".
    pub fn paper_default() -> Self {
        Self {
            full_resolution_days: 365,
            day_highlight_days: 2 * 365,
            month_highlight_days: 3 * 365,
            year_highlight_days: 5 * 365,
        }
    }

    /// A policy that never decays anything (control runs).
    pub fn never() -> Self {
        Self {
            full_resolution_days: u32::MAX,
            day_highlight_days: u32::MAX,
            month_highlight_days: u32::MAX,
            year_highlight_days: u32::MAX,
        }
    }

    fn validate(&self) {
        assert!(self.full_resolution_days <= self.day_highlight_days);
        assert!(self.day_highlight_days <= self.month_highlight_days);
        assert!(self.month_highlight_days <= self.year_highlight_days);
    }
}

/// What one decay pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecayReport {
    pub leaves_evicted: usize,
    /// Logical compressed bytes freed from the filesystem.
    pub bytes_freed: u64,
    pub day_highlights_dropped: usize,
    pub month_highlights_dropped: usize,
    pub years_pruned: usize,
}

impl DecayReport {
    pub fn merge(&mut self, other: &DecayReport) {
        self.leaves_evicted += other.leaves_evicted;
        self.bytes_freed += other.bytes_freed;
        self.day_highlights_dropped += other.day_highlights_dropped;
        self.month_highlights_dropped += other.month_highlights_dropped;
        self.years_pruned += other.years_pruned;
    }

    pub fn did_anything(&self) -> bool {
        *self != DecayReport::default()
    }
}

/// The decay fungus: which individuals go first once the full-resolution
/// horizon is reached. Kersten's data-fungus catalog \[16\] names several;
/// the paper picks "Evict Oldest Individuals" as the pragmatic choice for
/// telco signals, and it is the one implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fungus {
    /// The paper's fungus: every leaf older than the horizon is evicted,
    /// strictly by age.
    EvictOldestIndividuals,
}

/// Run one decay pass with the paper's fungus ("Evict Oldest Individuals").
pub fn decay(
    index: &mut TemporalIndex,
    now: EpochId,
    policy: &DecayPolicy,
    store: &SnapshotStore,
) -> Result<DecayReport, StorageError> {
    decay_with_fungus(index, now, policy, Fungus::EvictOldestIndividuals, store)
}

/// Run one decay pass: evict everything whose age (relative to `now`)
/// exceeds its resolution's horizon, with leaf selection delegated to the
/// chosen fungus.
pub fn decay_with_fungus(
    index: &mut TemporalIndex,
    now: EpochId,
    policy: &DecayPolicy,
    fungus: Fungus,
    store: &SnapshotStore,
) -> Result<DecayReport, StorageError> {
    decay_with_fungus_traced(index, now, policy, fungus, store).map(|(report, _)| report)
}

/// [`decay_with_fungus`] that also returns exactly which epochs lost
/// their full-resolution leaf. Cache layers (the serving tier's shared
/// decompressed-epoch cache, session caches) subscribe to this list so
/// cached entries are dropped precisely when the tree changes.
pub fn decay_with_fungus_traced(
    index: &mut TemporalIndex,
    now: EpochId,
    policy: &DecayPolicy,
    fungus: Fungus,
    store: &SnapshotStore,
) -> Result<(DecayReport, Vec<EpochId>), StorageError> {
    policy.validate();
    // The one fungus: a day past the horizon loses every leaf it has left.
    let Fungus::EvictOldestIndividuals = fungus;
    let _span = obs::span("decay.pass");
    let today = now.day_index();
    let mut report = DecayReport::default();
    let mut evicted_epochs: Vec<EpochId> = Vec::new();

    for year in index.years_mut().iter_mut() {
        for month in &mut year.months {
            for day in &mut month.days {
                let age_days = today.saturating_sub(day.day_index);
                if age_days > policy.full_resolution_days {
                    for leaf in day.leaves.iter_mut().filter(|l| l.present) {
                        report.bytes_freed += store.evict(leaf.epoch)?;
                        leaf.present = false;
                        report.leaves_evicted += 1;
                        evicted_epochs.push(leaf.epoch);
                    }
                }
                if age_days > policy.day_highlight_days && !day.decayed {
                    day.decayed = true;
                    day.highlights.per_cell.clear();
                    day.highlights.per_cell.shrink_to_fit();
                    report.day_highlights_dropped += 1;
                }
            }
            let month_age = month
                .days
                .last()
                .map(|d| today.saturating_sub(d.day_index))
                .unwrap_or(0);
            if month_age > policy.month_highlight_days && !month.decayed {
                month.decayed = true;
                month.highlights.per_cell.clear();
                month.highlights.per_cell.shrink_to_fit();
                report.month_highlights_dropped += 1;
            }
        }
        let year_age = year
            .months
            .last()
            .and_then(|m| m.days.last())
            .map(|d| today.saturating_sub(d.day_index))
            .unwrap_or(0);
        if year_age > policy.year_highlight_days {
            year.decayed = true;
        }
    }

    // Prune fully-decayed years off the tree.
    let before = index.years_mut().len();
    index.years_mut().retain(|y| !y.decayed);
    report.years_pruned = before - index.years_mut().len();

    obs::add("core.decay.leaves_evicted", report.leaves_evicted as u64);
    obs::add("core.decay.bytes_freed", report.bytes_freed);
    obs::add(
        "core.decay.day_highlights_dropped",
        report.day_highlights_dropped as u64,
    );
    obs::add(
        "core.decay.month_highlights_dropped",
        report.month_highlights_dropped as u64,
    );
    obs::add("core.decay.years_pruned", report.years_pruned as u64);
    Ok((report, evicted_epochs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::highlights::HighlightConfig;
    use crate::index::Covering;
    use crate::storage::SnapshotStore;
    use codecs::GzipLite;
    use dfs::Dfs;
    use std::sync::Arc;
    use telco_trace::time::EPOCHS_PER_DAY;
    use telco_trace::{TraceConfig, TraceGenerator};

    fn build(days: u32) -> (TemporalIndex, SnapshotStore) {
        let store = SnapshotStore::new(Dfs::in_memory(), Arc::new(GzipLite::default()));
        let mut index = TemporalIndex::new(HighlightConfig::default());
        let mut config = TraceConfig::scaled(1.0 / 2048.0);
        config.days = days;
        let generator = TraceGenerator::new(config);
        for snap in generator {
            let stored = store.store(&snap).unwrap();
            index.incremence(&snap, &stored);
        }
        (index, store)
    }

    #[test]
    fn never_policy_is_a_no_op() {
        let (mut index, store) = build(3);
        let now = index.last_epoch().unwrap();
        let report = decay(&mut index, now, &DecayPolicy::never(), &store).unwrap();
        assert!(!report.did_anything());
        assert_eq!(index.present_leaves(), 3 * EPOCHS_PER_DAY as usize);
    }

    #[test]
    fn old_leaves_are_evicted_but_highlights_survive() {
        let (mut index, store) = build(5);
        let now = index.last_epoch().unwrap();
        let policy = DecayPolicy {
            full_resolution_days: 2,
            day_highlight_days: 100,
            month_highlight_days: 100,
            year_highlight_days: 100,
        };
        let before_bytes = store.stored_bytes();
        let report = decay(&mut index, now, &policy, &store).unwrap();
        // Days 0 and 1 have age 4 and 3 > 2; days 2,3,4 survive.
        assert_eq!(report.leaves_evicted, 2 * EPOCHS_PER_DAY as usize);
        assert!(report.bytes_freed > 0);
        assert!(store.stored_bytes() < before_bytes);
        assert_eq!(index.present_leaves(), 3 * EPOCHS_PER_DAY as usize);

        // Queries over the decayed range degrade to day summaries.
        match index.find_covering(EpochId(0), EpochId(5)) {
            Covering::Summary { highlights, .. } => assert!(highlights.cdr_records > 0),
            other => panic!("expected summary, got {other:?}"),
        }
        // Recent range stays exact.
        let recent = now.0 - 3;
        assert!(matches!(
            index.find_covering(EpochId(recent), now),
            Covering::Exact(_)
        ));
    }

    #[test]
    fn progressive_decay_drops_day_then_month() {
        let (mut index, store) = build(6);
        let now = index.last_epoch().unwrap();
        let policy = DecayPolicy {
            full_resolution_days: 1,
            day_highlight_days: 3,
            month_highlight_days: 100,
            year_highlight_days: 100,
        };
        let report = decay(&mut index, now, &policy, &store).unwrap();
        assert!(report.leaves_evicted > 0);
        assert_eq!(report.day_highlights_dropped, 2); // days 0,1 (ages 5,4)
        assert_eq!(report.month_highlights_dropped, 0);

        // A decayed day now answers via its month node.
        match index.find_covering(EpochId(0), EpochId(3)) {
            Covering::Summary { resolution, .. } => {
                assert_eq!(resolution.label(), "month");
            }
            other => panic!("expected month summary, got {other:?}"),
        }
    }

    #[test]
    fn ancient_years_vanish_entirely() {
        let (mut index, store) = build(4);
        // Pretend "now" is 10 years after the trace.
        let now = EpochId(3650 * EPOCHS_PER_DAY);
        let policy = DecayPolicy {
            full_resolution_days: 10,
            day_highlight_days: 20,
            month_highlight_days: 30,
            year_highlight_days: 40,
        };
        let report = decay(&mut index, now, &policy, &store).unwrap();
        assert_eq!(report.years_pruned, 1);
        assert!(index.years().is_empty());
        assert!(matches!(
            index.find_covering(EpochId(0), EpochId(10)),
            Covering::Unavailable
        ));
        // All files are gone from storage.
        assert_eq!(store.stored_bytes(), 0);
    }

    #[test]
    fn decay_is_idempotent() {
        let (mut index, store) = build(4);
        let now = index.last_epoch().unwrap();
        let policy = DecayPolicy {
            full_resolution_days: 1,
            day_highlight_days: 2,
            month_highlight_days: 50,
            year_highlight_days: 50,
        };
        let first = decay(&mut index, now, &policy, &store).unwrap();
        assert!(first.did_anything());
        let second = decay(&mut index, now, &policy, &store).unwrap();
        assert!(!second.did_anything(), "{second:?}");
    }

    #[test]
    fn policy_validation_catches_inverted_horizons() {
        let (mut index, store) = build(1);
        let bad = DecayPolicy {
            full_resolution_days: 100,
            day_highlight_days: 10,
            month_highlight_days: 200,
            year_highlight_days: 300,
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            decay(&mut index, EpochId(0), &bad, &store)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn traced_decay_names_every_evicted_epoch() {
        let (mut index, store) = build(4);
        let now = index.last_epoch().unwrap();
        let policy = DecayPolicy {
            full_resolution_days: 1,
            day_highlight_days: 100,
            month_highlight_days: 100,
            year_highlight_days: 100,
        };
        let (report, evicted) = decay_with_fungus_traced(
            &mut index,
            now,
            &policy,
            Fungus::EvictOldestIndividuals,
            &store,
        )
        .unwrap();
        assert_eq!(evicted.len(), report.leaves_evicted);
        assert!(!evicted.is_empty());
        for e in &evicted {
            assert!(!store.contains(*e), "evicted epoch {} still stored", e.0);
        }
        // An idempotent second pass evicts nothing new.
        let (_, again) = decay_with_fungus_traced(
            &mut index,
            now,
            &policy,
            Fungus::EvictOldestIndividuals,
            &store,
        )
        .unwrap();
        assert!(again.is_empty(), "{again:?}");
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = DecayReport {
            leaves_evicted: 1,
            bytes_freed: 10,
            day_highlights_dropped: 1,
            month_highlights_dropped: 0,
            years_pruned: 0,
        };
        let b = DecayReport {
            leaves_evicted: 2,
            bytes_freed: 5,
            day_highlights_dropped: 0,
            month_highlights_dropped: 1,
            years_pruned: 1,
        };
        a.merge(&b);
        assert_eq!(a.leaves_evicted, 3);
        assert_eq!(a.bytes_freed, 15);
        assert_eq!(a.years_pruned, 1);
        assert!(a.did_anything());
    }
}
