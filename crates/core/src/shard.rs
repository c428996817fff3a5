//! Shard-per-core scale-out: N independent [`SpateFramework`]s behind one
//! facade.
//!
//! The paper's workload is a full telco province; a single framework
//! instance serializes every ingest and decay pass behind one lock. This
//! module partitions the store, temporal index and decay schedule
//! **by cell** (`cell_id % n_shards`): each shard is a complete
//! `SpateFramework` with its own epochs, highlights and simulated
//! cluster, so ingest compresses and writes N sub-snapshots in parallel
//! and decay/repair run per shard without blocking queries on unrelated
//! shards.
//!
//! # Routing
//!
//! A query `Q(a, b, w)` touches exactly the shards owning cells inside
//! `b` ([`ShardedSpate::shards_for`]); the *primary* shard (lowest
//! touched index) owns the covering decision for the request. A bounding
//! box matching no cells routes to every shard, so the degenerate case
//! behaves exactly like the unsharded framework.
//!
//! # One read
//!
//! A sharded read is [`ShardedSpate::plan`], then each epoch of an exact
//! plan loaded from its shards and merged by
//! [`ShardedSpate::load_epoch_merged_with`] — the serving tier's cache
//! fill over every shard, [`ShardedSpate::query`] over the shards `b`
//! routes to. An epoch one of them cannot load is unavailable as a whole:
//! no shard's part of it reaches the answer. The per-shard telemetry
//! lives on this one path: `plan` counts `spate.shard.queries{shard}`,
//! the merged load times each shard's part into
//! `spate.shard.query_us{shard}`.
//!
//! # Canonical merge (shard-count invariance)
//!
//! Rows gathered from different shards arrive in shard order, which
//! depends on N. Every merge therefore re-sorts rows by *content* under
//! a total order on [`Value`] ([`cmp_rows`]) — including the N=1 path —
//! so the bytes a client sees are identical for any shard count. This
//! is sound because stored snapshots round-trip through the line format,
//! which types every field as `Str`/`Null`: content order is type-stable
//! and total. Summaries merge through `Highlights::merge`.

use crate::framework::{
    ExplorationFramework, IngestStats, SpaceReport, SpateFramework, StoreObserver,
};
use crate::index::decay::DecayReport;
use crate::query::{Plan, Query, QueryResult, RowPlan};
use std::cmp::Ordering as CmpOrdering;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::Instant;
use telco_trace::cells::{BoundingBox, CellLayout};
use telco_trace::record::{Record, Value};
use telco_trace::schema::{cdr, nms};
use telco_trace::snapshot::Snapshot;
use telco_trace::time::EpochId;

/// The partitioning key: which shard owns `cell_id`'s rows.
pub fn shard_of_cell(cell_id: u32, n_shards: usize) -> usize {
    (cell_id as usize) % n_shards.max(1)
}

/// Partition one arriving snapshot into per-shard sub-snapshots by cell.
/// Every shard receives a sub-snapshot for **every** epoch — possibly
/// empty — so per-shard incremence order, leaf alignment and coverage
/// classification stay identical across shards. Rows keep their arrival
/// order within each shard; rows without a parseable cell id go to
/// shard 0.
pub fn split_snapshot(snapshot: &Snapshot, n_shards: usize) -> Vec<Snapshot> {
    let n = n_shards.max(1);
    let mut cdr_parts: Vec<Vec<Record>> = vec![Vec::new(); n];
    let mut nms_parts: Vec<Vec<Record>> = vec![Vec::new(); n];
    for r in &snapshot.cdr {
        let cell = r.get(cdr::CELL_ID).as_i64().unwrap_or(0).max(0) as u32;
        cdr_parts[shard_of_cell(cell, n)].push(r.clone());
    }
    for r in &snapshot.nms {
        let cell = r.get(nms::CELL_ID).as_i64().unwrap_or(0).max(0) as u32;
        nms_parts[shard_of_cell(cell, n)].push(r.clone());
    }
    cdr_parts
        .into_iter()
        .zip(nms_parts)
        .map(|(c, m)| Snapshot::new(snapshot.epoch, c, m))
        .collect()
}

fn value_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Str(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
    }
}

/// Total order on [`Value`] (`Null < Str < Int < Float`, `total_cmp` on
/// floats) — the tie-breaker-free comparator canonical row order rests
/// on.
pub fn cmp_values(a: &Value, b: &Value) -> CmpOrdering {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.total_cmp(y),
        _ => value_rank(a).cmp(&value_rank(b)),
    }
}

/// Lexicographic total order on rows (shorter rows first on a shared
/// prefix).
pub fn cmp_rows(a: &[Value], b: &[Value]) -> CmpOrdering {
    for (x, y) in a.iter().zip(b.iter()) {
        match cmp_values(x, y) {
            CmpOrdering::Equal => continue,
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

/// Sort projected rows into canonical (content) order.
pub fn canonical_sort(rows: &mut [Vec<Value>]) {
    rows.sort_by(|a, b| cmp_rows(a, b));
}

/// Reassemble one epoch from per-shard sub-snapshots into canonical
/// order. Applied on the N=1 path too, so the result is a pure function
/// of the epoch's content, never of the shard count.
pub fn merge_snapshots(epoch: EpochId, parts: Vec<Snapshot>) -> Snapshot {
    let mut cdr: Vec<Record> = Vec::with_capacity(parts.iter().map(|p| p.cdr.len()).sum());
    let mut nms: Vec<Record> = Vec::with_capacity(parts.iter().map(|p| p.nms.len()).sum());
    for p in parts {
        debug_assert_eq!(p.epoch, epoch);
        cdr.extend(p.cdr);
        nms.extend(p.nms);
    }
    cdr.sort_by(|a, b| cmp_rows(&a.values, &b.values));
    nms.sort_by(|a, b| cmp_rows(&a.values, &b.values));
    Snapshot::new(epoch, cdr, nms)
}

/// Where a shard lock's poison recoveries are counted
/// ([`obs::unpoisoned`]).
const POISONED: &str = "shard.lock.poison_recovered";

/// N independent `SpateFramework` shards plus the router over them.
/// Each shard sits behind its own `RwLock`, so ingest/decay on one
/// shard never blocks queries on another; lock acquisition is always in
/// ascending shard order, which makes multi-shard read paths
/// deadlock-free against single-shard writers.
pub struct ShardedSpate {
    shards: Vec<RwLock<SpateFramework>>,
    /// Queries routed to each shard ([`Self::plan`]), by this facade and
    /// as `spate.shard.queries{shard}`.
    queries: Vec<obs::Tally>,
    layout: CellLayout,
}

impl ShardedSpate {
    /// Wrap pre-built frameworks (all sharing one cell layout) as shards.
    pub fn new(frameworks: Vec<SpateFramework>) -> Self {
        assert!(!frameworks.is_empty(), "at least one shard");
        let layout = frameworks[0].layout().clone();
        Self {
            queries: (0..frameworks.len() as u32)
                .map(|i| obs::Tally::labeled("spate.shard.queries", "shard", obs::shard::label(i)))
                .collect(),
            shards: frameworks.into_iter().map(RwLock::new).collect(),
            layout,
        }
    }

    /// `n_shards` in-memory shards over one layout (tests, demos).
    pub fn in_memory(layout: CellLayout, n_shards: usize) -> Self {
        Self::new(
            (0..n_shards.max(1))
                .map(|_| SpateFramework::in_memory(layout.clone()))
                .collect(),
        )
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn layout(&self) -> &CellLayout {
        &self.layout
    }

    /// Register a mutation observer on every shard (cache invalidation).
    /// Requires exclusive access — call before the facade is shared.
    pub fn add_observer(&mut self, observer: Arc<dyn StoreObserver>) {
        for s in &mut self.shards {
            s.get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .add_observer(observer.clone());
        }
    }

    /// Poison-tolerant read guard on shard `i`.
    pub fn read(&self, i: usize) -> RwLockReadGuard<'_, SpateFramework> {
        obs::unpoisoned(self.shards[i].read(), POISONED)
    }

    /// Poison-tolerant read guard on shard `i` if it can be had without
    /// waiting: `None` while a writer holds the shard.
    pub fn try_read(&self, i: usize) -> Option<RwLockReadGuard<'_, SpateFramework>> {
        match self.shards[i].try_read() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(e)) => Some(obs::unpoisoned(Err(e), POISONED)),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Poison-tolerant write guard on shard `i`.
    pub fn write(&self, i: usize) -> RwLockWriteGuard<'_, SpateFramework> {
        obs::unpoisoned(self.shards[i].write(), POISONED)
    }

    /// The distinct shards owning cells inside `bbox`, ascending. A box
    /// matching no cells routes to every shard (same answer shape as the
    /// unsharded framework: zero rows, full coverage accounting).
    pub fn shards_for(&self, bbox: &BoundingBox) -> Vec<usize> {
        let n = self.shards.len();
        let mut hit = vec![false; n];
        for cell in self.layout.cells_in(bbox) {
            hit[shard_of_cell(cell, n)] = true;
        }
        let touched: Vec<usize> = (0..n).filter(|&i| hit[i]).collect();
        if touched.is_empty() {
            (0..n).collect()
        } else {
            touched
        }
    }

    /// The shard owning a query's covering decision: the lowest-numbered
    /// shard its box touches.
    pub fn primary_for(&self, bbox: &BoundingBox) -> usize {
        self.shards_for(bbox)[0]
    }

    /// Scatter one arriving snapshot: split by cell, then ingest every
    /// sub-snapshot in parallel, one thread per shard — each shard
    /// compresses and writes to *its own* cluster, which is the whole
    /// point of the partitioning. Returns the aggregate stats (bytes
    /// summed, wall-clock seconds of the scatter).
    pub fn ingest(&self, snapshot: &Snapshot) -> IngestStats {
        let parts = split_snapshot(snapshot, self.shards.len());
        let t0 = Instant::now();
        let (mut raw_bytes, mut stored_bytes) = (0u64, 0u64);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .zip(&parts)
                .enumerate()
                .map(|(i, (lock, part))| {
                    scope.spawn(move || {
                        // The scope labels every metric the shard's
                        // ingest records (dfs writes, codec bytes) with
                        // `shard="i"`, and the span makes each shard's
                        // ingest its own tree on the worker thread.
                        let _scope = obs::shard::enter(i as u32);
                        let _span = obs::span("shard.ingest");
                        let stats = obs::unpoisoned(lock.write(), POISONED).ingest(part);
                        obs::shard::add_sharded("spate.shard.ingest.bytes", stats.stored_bytes);
                        stats
                    })
                })
                .collect();
            for h in handles {
                let stats = h.join().expect("shard ingest panicked");
                raw_bytes += stats.raw_bytes;
                stored_bytes += stats.stored_bytes;
            }
        });
        IngestStats {
            epoch: snapshot.epoch,
            seconds: t0.elapsed().as_secs_f64(),
            raw_bytes,
            stored_bytes,
        }
    }

    /// Run the decay fungus on every shard in parallel; each shard's
    /// pass holds only its own lock, so queries against other shards
    /// proceed concurrently. Reports are merged.
    pub fn run_decay(&self, now: EpochId) -> DecayReport {
        let mut merged = DecayReport::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|lock| {
                    scope.spawn(move || obs::unpoisoned(lock.write(), POISONED).run_decay(now))
                })
                .collect();
            for h in handles {
                merged.merge(&h.join().expect("shard decay panicked"));
            }
        });
        merged
    }

    /// Staleness version of the whole facade: the sum of per-shard
    /// versions (any shard mutation changes it).
    pub fn version(&self) -> u64 {
        (0..self.shards.len()).map(|i| self.read(i).version()).sum()
    }

    /// Aggregate disk usage across shards.
    pub fn space(&self) -> SpaceReport {
        let mut total = SpaceReport {
            data_bytes: 0,
            index_bytes: 0,
        };
        for i in 0..self.shards.len() {
            let s = self.read(i).space();
            total.data_bytes += s.data_bytes;
            total.index_bytes += s.index_bytes;
        }
        total
    }

    /// [`Self::load_epoch_merged_with`] over every shard, publishing
    /// nothing.
    pub fn load_epoch_merged(&self, epoch: EpochId) -> Option<Snapshot> {
        self.load_epoch_merged_with(0..self.shards.len(), epoch, |snapshot| snapshot)
    }

    /// The one merged load. Take the read guards of `shards` (ascending)
    /// together, load each one's part of `epoch` inside its
    /// [`obs::shard`] scope and a `shard.load` span, timed into
    /// `spate.shard.query_us{shard}`, merge the parts canonically and hand
    /// the epoch to `publish` before any guard drops: a cache insert there
    /// cannot race a per-shard eviction. `None`, and nothing published,
    /// when a shard cannot load its part (a transient a cache must never
    /// capture, and an epoch no answer may take part of).
    pub fn load_epoch_merged_with<T>(
        &self,
        shards: impl IntoIterator<Item = usize>,
        epoch: EpochId,
        publish: impl FnOnce(Snapshot) -> T,
    ) -> Option<T> {
        let guards: Vec<(usize, RwLockReadGuard<'_, SpateFramework>)> =
            shards.into_iter().map(|i| (i, self.read(i))).collect();
        let mut parts = Vec::with_capacity(guards.len());
        for (i, guard) in &guards {
            let _scope = obs::shard::enter(*i as u32);
            let span = obs::span("shard.load");
            let part = guard.load_epoch(epoch);
            let us = (span.finish_secs() * 1e6) as u64;
            let label = obs::shard::label(*i as u32);
            obs::observe_labeled("spate.shard.query_us", &[("shard", &label)], us);
            parts.push(part?);
        }
        Some(publish(merge_snapshots(epoch, parts)))
    }

    /// Decide how `q` is answered across the shards: route the bounding
    /// box to its shards, counting one query on each, and let the
    /// *primary* (lowest touched) shard classify the window; when it has
    /// decayed there, the touched shards' highlights are gathered and
    /// merged. Shards are read one guard at a time, ascending, and none
    /// is held on return: running the plan re-acquires guards per epoch,
    /// so a slow client never blocks ingest/decay.
    pub fn plan(&self, q: &Query) -> Plan {
        let routed = self.shards_for(&q.bbox);
        for &i in &routed {
            self.queries[i].inc();
        }
        let mut summaries = Vec::new();
        for (nth, i) in routed.into_iter().enumerate() {
            let g = self.read(i);
            let covering = g.index().find_covering(q.window.0, q.window.1);
            match Plan::of(covering, &self.layout, &q.bbox) {
                Plan::Summary {
                    resolution,
                    highlights,
                } => summaries.push((resolution, highlights)),
                decided if nth == 0 => return decided,
                // Exact where the primary summarizes (transient
                // mid-mutation disagreement): nothing to add.
                _ => {}
            }
        }
        // Each shard's highlights summarize only its own cells, so their
        // merge is the digest of the union; the resolution is the primary's.
        let (resolution, highlights) = summaries
            .into_iter()
            .reduce(|(resolution, mut acc), (_, highlights)| {
                acc.merge(&highlights);
                (resolution, acc)
            })
            .expect("the primary shard's summary");
        Plan::Summary {
            resolution,
            highlights,
        }
    }

    /// `Q(a, b, w)` as the serving tier answers it, without the cache:
    /// [`Self::plan`], then each epoch of an exact plan loaded across the
    /// shards `b` routes to ([`Self::load_epoch_merged_with`]) and
    /// projected, then each table's rows put in canonical order. An epoch
    /// one of those shards cannot load adds no rows and is counted
    /// unavailable, and an installed [`obs::budget`] stops the scan at its
    /// next epoch boundary, the rest of the window unavailable.
    pub fn query(&self, q: &Query) -> QueryResult {
        let routed = self.shards_for(&q.bbox);
        let rows = RowPlan::new(q, &self.layout);
        let mut answer = self.plan(q).evaluate(&rows, |epoch, out| {
            let snapshot = self.load_epoch_merged_with(routed.iter().copied(), epoch, |s| s);
            snapshot.map(|s| rows.project(&s, out)).is_some()
        });
        if let QueryResult::Exact(result) | QueryResult::Partial { result, .. } = &mut answer {
            canonical_sort(&mut result.cdr.rows);
            canonical_sort(&mut result.nms.rows);
        }
        answer
    }

    /// The per-shard Stats breakdown — the serve tier's Stats frame
    /// payload — read from each shard under its own guard, and published
    /// as the `spate.shard.{bytes,leaves,version}` gauges the
    /// `shard.skew` meta-stream reads, so a Stats request (and every
    /// monitor tick that calls this) keeps the skew monitor's inputs
    /// fresh.
    pub fn shard_stats(&self) -> Vec<ShardStat> {
        (0..self.shards.len() as u32)
            .map(|i| {
                let label = obs::shard::label(i);
                let labels = [("shard", label.as_ref())];
                let stat = {
                    let s = self.read(i as usize);
                    let space = s.space();
                    ShardStat {
                        shard: i,
                        bytes: space.data_bytes + space.index_bytes,
                        leaves: s.index().all_leaves().filter(|l| l.present).count() as u32,
                        queries: self.queries[i as usize].get(),
                        version: s.version(),
                    }
                };
                obs::gauge_set_labeled("spate.shard.bytes", &labels, stat.bytes as i64);
                obs::gauge_set_labeled("spate.shard.leaves", &labels, i64::from(stat.leaves));
                obs::gauge_set_labeled("spate.shard.version", &labels, stat.version as i64);
                stat
            })
            .collect()
    }
}

/// One shard's row in the Stats breakdown; see
/// [`ShardedSpate::shard_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStat {
    pub shard: u32,
    pub bytes: u64,
    pub leaves: u32,
    pub queries: u64,
    pub version: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use telco_trace::{TraceConfig, TraceGenerator};

    fn trace(n: usize) -> (CellLayout, Vec<Snapshot>) {
        let mut generator = TraceGenerator::new(TraceConfig::tiny());
        let layout = generator.layout().clone();
        let snaps: Vec<Snapshot> = (&mut generator).take(n).collect();
        (layout, snaps)
    }

    #[test]
    fn strings_sort_as_plain_strings_inline_or_not() {
        // Either side of the 22-byte inline bound, sharing prefixes.
        let base = "abcdefghijklmnopqrstuvwxyz";
        let mut texts: Vec<String> = [0, 1, 21, 22, 23, 26]
            .iter()
            .map(|&n| base[..n].to_string())
            .collect();
        texts.extend(["abcdefghijklmnopqrstuvZ", "b", "B", "é", "10", "9"].map(String::from));
        let mut rows: Vec<Vec<Value>> = texts
            .iter()
            .map(|t| vec![Value::Str(t.as_str().into())])
            .collect();
        rows.push(vec![Value::Null]);
        rows.push(vec![Value::Int(0)]);
        canonical_sort(&mut rows);

        texts.sort();
        let mut want = vec![vec![Value::Null]];
        want.extend(texts.iter().map(|t| vec![Value::Str(t.as_str().into())]));
        want.push(vec![Value::Int(0)]);
        assert_eq!(rows, want);
        for (a, b) in texts.iter().zip(&texts[1..]) {
            let (va, vb) = (Value::Str(a.as_str().into()), Value::Str(b.as_str().into()));
            assert_eq!(cmp_values(&va, &vb), a.cmp(b));
            assert_eq!(cmp_values(&vb, &va), b.cmp(a));
        }
    }

    #[test]
    fn split_preserves_rows_and_orders_by_cell() {
        let (_, snaps) = trace(1);
        let parts = split_snapshot(&snaps[0], 4);
        assert_eq!(parts.len(), 4);
        let cdr_total: usize = parts.iter().map(|p| p.cdr.len()).sum();
        let nms_total: usize = parts.iter().map(|p| p.nms.len()).sum();
        assert_eq!(cdr_total, snaps[0].cdr.len());
        assert_eq!(nms_total, snaps[0].nms.len());
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(p.epoch, snaps[0].epoch);
            for r in &p.cdr {
                let cell = r.get(cdr::CELL_ID).as_i64().unwrap() as u32;
                assert_eq!(shard_of_cell(cell, 4), i);
            }
        }
    }

    #[test]
    fn merge_snapshots_is_shard_count_invariant() {
        let (_, snaps) = trace(1);
        let one = merge_snapshots(snaps[0].epoch, split_snapshot(&snaps[0], 1));
        let four = merge_snapshots(snaps[0].epoch, split_snapshot(&snaps[0], 4));
        let seven = merge_snapshots(snaps[0].epoch, split_snapshot(&snaps[0], 7));
        assert_eq!(one.to_bytes(), four.to_bytes());
        assert_eq!(one.to_bytes(), seven.to_bytes());
    }

    #[test]
    fn a_merged_load_publishes_under_every_guard_or_not_at_all() {
        let (layout, snaps) = trace(2);
        let sharded = ShardedSpate::in_memory(layout, 3);
        for s in &snaps {
            sharded.ingest(s);
        }
        let epoch = snaps[1].epoch;
        let published = sharded.load_epoch_merged_with(0..3, epoch, |snapshot| {
            let writable = sharded.shards.iter().filter(|s| s.try_write().is_ok());
            (snapshot, writable.count())
        });
        let (snapshot, writable) = published.expect("every shard retains the epoch");
        assert_eq!(writable, 0, "every guard is held while publishing");
        // As stored: every field reads back as text.
        let stored = Snapshot::from_bytes(&snaps[1].to_bytes()).unwrap();
        assert_eq!(snapshot, merge_snapshots(epoch, vec![stored]));
        assert_eq!(sharded.load_epoch_merged(epoch), Some(snapshot));

        // One shard lost the epoch: nothing is published.
        assert!(sharded.read(1).store().evict(epoch).unwrap() > 0);
        let mut called = false;
        assert!(sharded
            .load_epoch_merged_with(0..3, epoch, |_| called = true)
            .is_none());
        assert!(!called);
    }

    #[test]
    fn sharded_query_matches_single_shard_byte_for_byte() {
        let (layout, snaps) = trace(6);
        let one = ShardedSpate::in_memory(layout.clone(), 1);
        let four = ShardedSpate::in_memory(layout.clone(), 4);
        for s in &snaps {
            one.ingest(s);
            four.ingest(s);
        }
        let boxes = [
            BoundingBox::everything(),
            BoundingBox::new(0.0, 0.0, 38_000.0, 38_000.0),
            BoundingBox::new(20_000.0, 10_000.0, 60_000.0, 55_000.0),
        ];
        for bbox in boxes {
            let q = Query::new(&["record_id", "upflux", "cell_id", "call_drops"], bbox)
                .with_epoch_range(0, 5);
            let (a, b) = (one.query(&q), four.query(&q));
            match (a, b) {
                (QueryResult::Exact(x), QueryResult::Exact(y)) => {
                    assert_eq!(x.cdr.rows, y.cdr.rows);
                    assert_eq!(x.nms.rows, y.nms.rows);
                    assert_eq!(x.cdr.column_names, y.cdr.column_names);
                }
                other => panic!("expected exact/exact, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_spent_budget_stops_every_scan_before_its_first_read() {
        let (layout, snaps) = trace(4);
        let mut single = SpateFramework::in_memory(layout.clone());
        let sharded = ShardedSpate::in_memory(layout, 2);
        for s in &snaps {
            single.ingest(s);
            sharded.ingest(s);
        }
        let reads = |single: &SpateFramework| {
            let of = |fw: &SpateFramework| fw.store().dfs().metrics().reads;
            of(single) + of(&sharded.read(0)) + of(&sharded.read(1))
        };
        let before = reads(&single);
        let q =
            Query::new(&["upflux", "call_drops"], BoundingBox::everything()).with_epoch_range(0, 3);
        {
            let cancel = obs::CancelFlag::new();
            cancel.cancel();
            let _budget = obs::budget::begin(None, cancel);
            for answer in [single.query(&q), sharded.query(&q)] {
                let QueryResult::Partial { result, coverage } = answer else {
                    panic!("expected a partial answer, got {answer:?}");
                };
                assert_eq!(result.row_count(), 0);
                assert_eq!((coverage.requested, coverage.served), (4, 0));
                assert_eq!(coverage.unavailable, 4);
            }
            assert_eq!(reads(&single), before, "no leaf was read");
        }
        // Without a budget installed nothing changes.
        assert!(single.query(&q).is_exact() && sharded.query(&q).is_exact());
        assert!(reads(&single) > before);
    }

    #[test]
    fn sharded_ingest_sums_bytes_and_version() {
        let (layout, snaps) = trace(3);
        let sharded = ShardedSpate::in_memory(layout.clone(), 3);
        let single = ShardedSpate::in_memory(layout, 1);
        let v0 = sharded.version();
        let mut raw_sharded = 0;
        let mut raw_single = 0;
        for s in &snaps {
            raw_sharded += sharded.ingest(s).raw_bytes;
            raw_single += single.ingest(s).raw_bytes;
        }
        // Each sub-snapshot carries its own framing, so the sharded sum
        // can only exceed the unsplit size — it must never lose bytes.
        assert!(raw_sharded >= raw_single, "split loses no bytes");
        assert!(sharded.version() > v0);
        assert_eq!(single.version(), 3, "one bump per ingest on one shard");
    }

    #[test]
    fn per_shard_decay_merges_reports_and_stays_invariant() {
        let (layout, snaps) = trace(4);
        let aggressive = crate::DecayPolicy {
            full_resolution_days: 1,
            day_highlight_days: 2,
            month_highlight_days: 3,
            year_highlight_days: 4,
        };
        let build = |layout: CellLayout, n: usize| {
            ShardedSpate::new(
                (0..n)
                    .map(|_| SpateFramework::in_memory(layout.clone()).with_decay(aggressive))
                    .collect(),
            )
        };
        let one = build(layout.clone(), 1);
        let four = build(layout, 4);
        for s in &snaps {
            one.ingest(s);
            four.ingest(s);
        }
        // Day 2 relative to the data: age (2 days) exceeds the 1-day
        // full-resolution horizon so leaves decay, while day highlights
        // (2-day retention, strict comparison) survive to answer
        // summaries.
        let now = EpochId(100);
        let (r1, r4) = (one.run_decay(now), four.run_decay(now));
        // Every shard holds a leaf per epoch, so a full decay evicts one
        // leaf per (epoch, shard).
        assert!(r1.leaves_evicted > 0);
        assert_eq!(r4.leaves_evicted, 4 * r1.leaves_evicted);
        // Post-decay answers agree too (summary path).
        let q = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(0, 3);
        let (a, b) = (one.query(&q), four.query(&q));
        match (&a, &b) {
            (
                QueryResult::Summary { highlights: x, .. },
                QueryResult::Summary { highlights: y, .. },
            ) => {
                assert_eq!(x.cdr_records, y.cdr_records);
                assert_eq!(x.nms_records, y.nms_records);
            }
            other => panic!("expected summaries after full decay, got {other:?}"),
        }
    }

    #[test]
    fn routing_touches_only_owning_shards() {
        let (layout, _) = trace(1);
        let sharded = ShardedSpate::in_memory(layout.clone(), 4);
        let all = sharded.shards_for(&BoundingBox::everything());
        assert_eq!(all, vec![0, 1, 2, 3]);
        // A box around a single cell touches exactly that cell's shard.
        let cell0 = layout.cells_in(&BoundingBox::everything())[0];
        let site = layout.get(cell0);
        let (x, y) = (site.x_m, site.y_m);
        let tight = BoundingBox::new(x - 1.0, y - 1.0, x + 1.0, y + 1.0);
        let touched = sharded.shards_for(&tight);
        assert!(touched.contains(&shard_of_cell(cell0, 4)));
        assert!(touched.len() < 4, "tight box must prune shards");
        assert_eq!(sharded.primary_for(&tight), touched[0]);
    }

    #[test]
    fn shard_stats_publish_per_shard_gauges_and_count_queries() {
        let (layout, snaps) = trace(3);
        let sharded = ShardedSpate::in_memory(layout, 4);
        for s in &snaps {
            sharded.ingest(s);
        }
        let q = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(0, 2);
        sharded.query(&q);
        sharded.query(&q);
        let stats = sharded.shard_stats();
        assert_eq!(stats.len(), 4);
        for (i, st) in stats.iter().enumerate() {
            assert_eq!(st.shard, i as u32);
            assert!(st.bytes > 0, "shard {i} stores bytes");
            assert!(st.leaves > 0, "shard {i} has leaves");
            // The everything-box touches every shard on both queries.
            assert_eq!(st.queries, 2, "shard {i}");
            assert!(st.version > 0);
        }
        // The rows are this facade's own shards, whatever another facade
        // in the process last published under the same gauge names.
        let space = sharded.space();
        let total: u64 = stats.iter().map(|st| st.bytes).sum();
        assert_eq!(total, space.data_bytes + space.index_bytes);
        // The same values are in the global registry, where the skew
        // monitor reads them.
        assert!(obs::gauge_labeled("spate.shard.bytes", &[("shard", "0")]).get() > 0);
        // And per-shard load-time histograms recorded one sample per
        // epoch read.
        assert!(
            obs::global()
                .histogram_labeled("spate.shard.query_us", &[("shard", "1")])
                .count()
                >= 6
        );
    }

    #[test]
    fn a_facade_counts_only_its_own_queries() {
        let (layout, snaps) = trace(2);
        let (a, b) = (
            ShardedSpate::in_memory(layout.clone(), 2),
            ShardedSpate::in_memory(layout, 2),
        );
        for s in &snaps {
            a.ingest(s);
            b.ingest(s);
        }
        let q = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(0, 1);
        b.query(&q);
        let queries = |f: &ShardedSpate| f.shard_stats().iter().map(|st| st.queries).collect();
        let before: Vec<u64> = queries(&b);
        a.query(&q);
        a.query(&q);
        assert_eq!(queries(&b), before);
        assert_eq!(queries(&a), vec![2, 2]);
    }

    #[test]
    fn an_epoch_a_shard_lost_is_unavailable_on_every_shard() {
        let (layout, snaps) = trace(4);
        let mut oracle = crate::framework::RawFramework::in_memory(layout.clone());
        let sharded = ShardedSpate::in_memory(layout, 2);
        for s in &snaps {
            sharded.ingest(s);
            if s.epoch != snaps[2].epoch {
                oracle.ingest(s);
            }
        }
        assert!(sharded.read(1).store().evict(snaps[2].epoch).unwrap() > 0);
        let q = Query::new(&["record_id", "call_drops"], BoundingBox::everything())
            .with_epoch_range(0, 3);
        let QueryResult::Partial { result, coverage } = sharded.query(&q) else {
            panic!("expected a partial answer");
        };
        assert_eq!((coverage.served, coverage.unavailable), (3, 1));
        let QueryResult::Exact(mut want) = oracle.query(&q) else {
            panic!("the oracle answers every retained epoch");
        };
        canonical_sort(&mut want.cdr.rows);
        canonical_sort(&mut want.nms.rows);
        assert_eq!(
            (result.cdr.rows, result.nms.rows),
            (want.cdr.rows, want.nms.rows)
        );
    }
}
