//! The SPATE indexing layer: a multi-resolution temporal index with
//! incremence, highlights and decaying (paper §V, Fig. 5).
//!
//! "Our index has 4 levels of temporal resolutions (i.e., epoch (30
//! minutes), day, month, year) ... the root node points to year-nodes ...
//! each year node points to 12 month-nodes ... the month nodes point to
//! their corresponding day-nodes, and each day node points to its
//! corresponding 48 snapshot leaves."
//!
//! The tree is one rule at every level: a [`Node`] per period of each
//! [`Resolution`], keyed by [`Resolution::periods`], and a leaf per
//! epoch. A node's children are the nodes (or leaves) whose periods lie
//! in its own ([`Resolution::days`]), so the nesting is read off the keys.

pub mod decay;
pub mod highlights;
pub mod persist;

use crate::storage::StoredSnapshot;
use highlights::{HighlightConfig, Highlights, Resolution};
use std::collections::BTreeMap;
use telco_trace::snapshot::Snapshot;
use telco_trace::time::EpochId;

/// A leaf of the index: one stored (compressed) snapshot.
#[derive(Debug, Clone)]
pub struct EpochLeaf {
    pub epoch: EpochId,
    pub raw_bytes: u64,
    pub stored_bytes: u64,
    /// False once the decay fungus evicted the file.
    pub present: bool,
}

/// A day, month or year node: the highlights of its period.
#[derive(Debug)]
pub struct Node {
    pub highlights: Highlights,
    /// True once the node's highlights were decayed away.
    pub decayed: bool,
}

/// What the index can offer for a query window `w` (paper §VI-A: "the
/// index is accessed to find the temporal node whose period completely
/// covers w").
#[derive(Debug)]
pub enum Covering<'a> {
    /// Every epoch of the window is present at full resolution.
    Exact(Vec<&'a EpochLeaf>),
    /// The lowest single node covering the window, with its resolution.
    Summary {
        resolution: Resolution,
        highlights: &'a Highlights,
    },
    /// The window's data has fully decayed (or never existed).
    Unavailable,
}

/// The multi-resolution temporal index.
#[derive(Debug)]
pub struct TemporalIndex {
    pub(crate) config: HighlightConfig,
    /// The nodes of each of [`Resolution::LEVELS`], keyed by period.
    pub(crate) levels: [BTreeMap<u32, Node>; 3],
    /// Root highlights over all completed data ("the root will store the
    /// highlights of all the completed years").
    pub(crate) root_highlights: Highlights,
    /// Every leaf, present or decayed, in epoch order: incremence only
    /// appends, and a lookup by epoch is a binary search.
    pub(crate) leaves: Vec<EpochLeaf>,
    pub(crate) last_epoch: Option<EpochId>,
}

impl TemporalIndex {
    pub fn new(config: HighlightConfig) -> Self {
        let n_attrs = config.categorical_attrs.len();
        Self {
            config,
            levels: Default::default(),
            root_highlights: Highlights::empty(EpochId(0), n_attrs),
            leaves: Vec::new(),
            last_epoch: None,
        }
    }

    pub fn config(&self) -> &HighlightConfig {
        &self.config
    }

    /// The nodes of one level, keyed by [`Resolution::periods`].
    ///
    /// # Panics
    ///
    /// For [`Resolution::Root`], which is one summary
    /// ([`Self::root_highlights`]), not a level of nodes.
    pub fn nodes(&self, level: Resolution) -> &BTreeMap<u32, Node> {
        &self.levels[level as usize]
    }

    pub fn root_highlights(&self) -> &Highlights {
        &self.root_highlights
    }

    pub fn last_epoch(&self) -> Option<EpochId> {
        self.last_epoch
    }

    /// The Incremence module: "Every time a new snapshot arrives, it is
    /// compressed by the storage layer and then the temporal index is
    /// incremented on its right-most path. If the new snapshot belongs to
    /// an incomplete day, it is just added as a leaf under the existing
    /// right-most day-node. Else, we first need to add a new dummy
    /// day-node [... month-node ... year-node]."
    ///
    /// Highlights are accumulated incrementally on the whole right-most
    /// path (leaf summary merged into day, month, year and root), which is
    /// equivalent to the paper's compute-at-period-end formulation but
    /// keeps every node current at all times.
    pub fn incremence(&mut self, snapshot: &Snapshot, stored: &StoredSnapshot) {
        let epoch = snapshot.epoch;
        assert!(
            self.last_epoch.is_none_or(|last| epoch > last),
            "snapshots must arrive in epoch order"
        );
        self.last_epoch = Some(epoch);
        let n_attrs = self.config.categorical_attrs.len();
        {
            let _s = obs::span("highlights");
            let leaf_highlights = Highlights::from_snapshot(snapshot, &self.config);
            // The right-most path: each level's node of the epoch's period,
            // a new (dummy) one on rollover, then the root.
            for (nodes, key) in self.levels.iter_mut().zip(Resolution::periods(epoch)) {
                let node = nodes.entry(key).or_insert_with(|| Node {
                    highlights: Highlights::empty(epoch, n_attrs),
                    decayed: false,
                });
                node.highlights.merge(&leaf_highlights);
            }
            self.root_highlights.merge(&leaf_highlights);
        }
        let leaf = EpochLeaf {
            epoch,
            raw_bytes: stored.raw_bytes,
            stored_bytes: stored.stored_bytes,
            present: true,
        };
        self.leaves.push(leaf);
    }

    /// All leaves intersecting the inclusive window, present or decayed.
    pub fn leaves_in(&self, start: EpochId, end: EpochId) -> Vec<&EpochLeaf> {
        let first = self.leaves.partition_point(|l| l.epoch < start);
        let after = self.leaves.partition_point(|l| l.epoch <= end);
        self.leaves[first..after.max(first)].iter().collect()
    }

    /// Answer planning for `Q(a, b, w)`: exact if every epoch of `w` is
    /// present, otherwise the lowest single node whose period covers `w`.
    pub fn find_covering(&self, start: EpochId, end: EpochId) -> Covering<'_> {
        assert!(start <= end);
        let leaves = self.leaves_in(start, end);
        // In u64: the window of every epoch holds 2^32 of them.
        let expected = u64::from(end.0 - start.0) + 1;
        if leaves.len() as u64 == expected && leaves.iter().all(|l| l.present) {
            return Covering::Exact(leaves);
        }
        // The day, month or year holding the whole window, unless decayed.
        let periods = Resolution::periods(start)
            .into_iter()
            .zip(Resolution::periods(end));
        for ((resolution, nodes), (first, last)) in Resolution::LEVELS
            .into_iter()
            .zip(&self.levels)
            .zip(periods)
        {
            if let Some(node) = nodes.get(&first).filter(|n| first == last && !n.decayed) {
                return Covering::Summary {
                    resolution,
                    highlights: &node.highlights,
                };
            }
        }
        // Root: any overlap with the retained corpus at all?
        let years = self.nodes(Resolution::Year);
        if self
            .last_epoch
            .is_some_and(|last| start <= last && !years.is_empty())
        {
            return Covering::Summary {
                resolution: Resolution::Root,
                highlights: &self.root_highlights,
            };
        }
        Covering::Unavailable
    }

    /// Index space `S_i`: approximate bytes of all retained highlights.
    pub fn index_bytes(&self) -> u64 {
        let nodes: u64 = self
            .levels
            .iter()
            .flat_map(BTreeMap::values)
            .filter(|n| !n.decayed)
            .map(|n| n.highlights.approx_bytes())
            .sum();
        self.root_highlights.approx_bytes() + nodes + self.leaves.len() as u64 * 64
    }

    /// Count of present (not yet decayed) leaves.
    pub fn present_leaves(&self) -> usize {
        self.leaves.iter().filter(|l| l.present).count()
    }

    /// All leaves in epoch order, present or decayed.
    pub fn all_leaves(&self) -> impl Iterator<Item = &EpochLeaf> {
        self.leaves.iter()
    }

    /// Mark one leaf absent (its stored file is gone or unreadable —
    /// recovery-scan reconciliation, not decay: highlights stay intact).
    /// Returns whether the leaf existed and was present.
    pub fn mark_absent(&mut self, epoch: EpochId) -> bool {
        match self.leaves.binary_search_by_key(&epoch, |l| l.epoch) {
            Ok(at) => std::mem::replace(&mut self.leaves[at].present, false),
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SnapshotStore;
    use codecs::GzipLite;
    use dfs::Dfs;
    use std::sync::Arc;
    use telco_trace::time::EPOCHS_PER_DAY;
    use telco_trace::{TraceConfig, TraceGenerator};

    fn build_index(n_epochs: usize) -> (TemporalIndex, SnapshotStore) {
        let store = SnapshotStore::new(Dfs::in_memory(), Arc::new(GzipLite::default()));
        let mut index = TemporalIndex::new(HighlightConfig::default());
        let mut config = TraceConfig::tiny();
        config.days = n_epochs as u32 / EPOCHS_PER_DAY + 1;
        let mut generator = TraceGenerator::new(config);
        for _ in 0..n_epochs {
            let snap = generator.next_snapshot().unwrap();
            let stored = store.store(&snap).unwrap();
            index.incremence(&snap, &stored);
        }
        (index, store)
    }

    #[test]
    fn rightmost_path_structure() {
        let (index, _) = build_index((2 * EPOCHS_PER_DAY + 5) as usize);
        let keys = |level| index.nodes(level).keys().copied().collect::<Vec<_>>();
        assert_eq!(keys(Resolution::Year), [2016]);
        assert_eq!(keys(Resolution::Month), [2016 * 12]);
        assert_eq!(keys(Resolution::Day), [0, 1, 2]);
        let day = |d: u32| {
            index.leaves_in(
                EpochId(d * EPOCHS_PER_DAY),
                EpochId((d + 1) * EPOCHS_PER_DAY - 1),
            )
        };
        assert_eq!(day(0).len(), EPOCHS_PER_DAY as usize);
        assert_eq!(day(1).len(), EPOCHS_PER_DAY as usize);
        assert_eq!(day(2).len(), 5);
        assert_eq!(index.present_leaves(), (2 * EPOCHS_PER_DAY + 5) as usize);
    }

    #[test]
    fn highlights_roll_up_consistently() {
        let (index, _) = build_index((EPOCHS_PER_DAY + 10) as usize);
        let only = |level| &index.nodes(level).values().next().unwrap().highlights;
        let (year, month) = (only(Resolution::Year), only(Resolution::Month));
        let days = index.nodes(Resolution::Day).values();
        let day_total: u64 = days.map(|d| d.highlights.cdr_records).sum();
        assert_eq!(month.cdr_records, day_total);
        assert_eq!(year.cdr_records, day_total);
        assert_eq!(index.root_highlights().cdr_records, day_total);
        assert!(day_total > 0);
    }

    #[test]
    fn exact_covering_when_all_leaves_present() {
        let (index, _) = build_index(10);
        match index.find_covering(EpochId(2), EpochId(7)) {
            Covering::Exact(leaves) => {
                assert_eq!(leaves.len(), 6);
                assert!(leaves.iter().all(|l| l.present));
            }
            other => panic!("expected exact, got {other:?}"),
        }
    }

    #[test]
    fn missing_epochs_fall_back_to_summary() {
        let (index, _) = build_index(10);
        // Window extends past ingested data within the same day.
        match index.find_covering(EpochId(5), EpochId(20)) {
            Covering::Summary {
                resolution,
                highlights,
            } => {
                assert_eq!(resolution, Resolution::Day);
                assert!(highlights.cdr_records > 0);
            }
            other => panic!("expected day summary, got {other:?}"),
        }
        // Window spanning multiple days of the same month → month node.
        match index.find_covering(EpochId(5), EpochId(EPOCHS_PER_DAY * 3)) {
            Covering::Summary { resolution, .. } => assert_eq!(resolution, Resolution::Month),
            other => panic!("expected month summary, got {other:?}"),
        }
    }

    #[test]
    fn incremence_rejects_out_of_order() {
        let (mut index, store) = build_index(3);
        let mut generator = TraceGenerator::new(TraceConfig::tiny());
        let snap = generator.next_snapshot().unwrap(); // epoch 0 again
        let stored = crate::storage::StoredSnapshot {
            epoch: snap.epoch,
            path: store.path_for(snap.epoch),
            raw_bytes: 1,
            stored_bytes: 1,
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            index.incremence(&snap, &stored)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn leaves_in_respects_window() {
        let (index, _) = build_index((EPOCHS_PER_DAY + 6) as usize);
        let leaves = index.leaves_in(EpochId(EPOCHS_PER_DAY - 2), EpochId(EPOCHS_PER_DAY + 2));
        assert_eq!(leaves.len(), 5);
        assert!(leaves.windows(2).all(|w| w[0].epoch < w[1].epoch));
    }

    #[test]
    fn index_bytes_accounts_highlights() {
        let (small, _) = build_index(4);
        let (large, _) = build_index((EPOCHS_PER_DAY * 2) as usize);
        assert!(large.index_bytes() > small.index_bytes());
    }

    #[test]
    fn empty_index_is_unavailable() {
        let index = TemporalIndex::new(HighlightConfig::default());
        assert!(matches!(
            index.find_covering(EpochId(0), EpochId(5)),
            Covering::Unavailable
        ));
        assert_eq!(index.present_leaves(), 0);
        assert_eq!(index.last_epoch(), None);
    }

    /// The window of every epoch holds 2^32 of them, one more than a
    /// `u32` counts: an empty index answers `Unavailable` for it, not an
    /// exact answer over no leaves, and a retained day is summarised.
    #[test]
    fn the_window_of_every_epoch_is_counted_without_wrapping() {
        let all = (EpochId(0), EpochId(u32::MAX));
        let empty = TemporalIndex::new(HighlightConfig::default());
        assert!(matches!(
            empty.find_covering(all.0, all.1),
            Covering::Unavailable
        ));
        let (index, _) = build_index(6);
        match index.find_covering(all.0, all.1) {
            Covering::Summary { resolution, .. } => assert_eq!(resolution, Resolution::Root),
            other => panic!("expected the root summary, got {other:?}"),
        }
    }
}
