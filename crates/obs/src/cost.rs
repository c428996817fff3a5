//! Per-query resource accounting: the [`CostProfile`].
//!
//! Spans and traces answer *"where did the time go"*; the
//! cost profile answers *"what did this query cost"* — epochs touched,
//! bytes read from each storage source, bytes decompressed per codec,
//! rows scanned vs rows returned, cache hits/misses, and time split by
//! stage. It is the only record of where queries go: every profile,
//! `EXPLAIN ANALYZE`, the Profile frame and the zero-leak gate read it.
//!
//! The active profile is a field of the thread's request context
//! ([`crate::context`]), installed by [`begin`] and restored by the
//! returned [`CostGuard`]. Library crates (codecs, dfs, cas, core
//! storage) call the free mutator functions unconditionally; when no
//! profile is active they are no-ops, so instrumentation never needs to
//! be threaded through call signatures.
//!
//! A helper thread working for the query collects into a profile of its
//! own ([`crate::context`]), which is [`absorb`]ed into the query's when
//! the helper is joined. Counts and bytes then read as if one thread had
//! done all the work; `stage_ns` is summed over the threads, so with a
//! helper the stages may add up to more than `total_ns`.
//!
//! # Reconciliation
//!
//! Every byte mutator updates both a per-key breakdown *and* an
//! independent running total. [`CostProfile::unattributed_bytes`] is the
//! difference between the two — it must be zero on every profile (the
//! "zero cost leak" invariant gated in CI). Keeping the total as its own
//! accumulator rather than deriving it from the map means a future
//! instrumentation bug (a call site that bumps one but not the other)
//! is *detectable* instead of silently self-consistent.

use crate::context::{self, Field, Guard};
use crate::trace::now_ns;
use std::collections::{BTreeMap, BTreeSet};

/// Resource accounting for one query, assembled while a [`CostGuard`] is
/// installed on the executing thread.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostProfile {
    /// The request-scoped trace this profile belongs to (0 outside serve).
    pub trace_id: u64,
    /// Distinct epoch ids whose data the query touched (loaded, probed or
    /// served from cache).
    pub epochs_touched: BTreeSet<u64>,
    /// Bytes read, by storage source (`"dfs"`, `"cas"`).
    pub bytes_read: BTreeMap<String, u64>,
    /// Total bytes read — maintained independently of the breakdown.
    pub bytes_read_total: u64,
    /// Bytes produced by decompression, by codec name.
    pub bytes_decompressed: BTreeMap<String, u64>,
    /// Total decompressed bytes — maintained independently.
    pub bytes_decompressed_total: u64,
    /// Rows iterated while evaluating predicates/projections.
    pub rows_scanned: u64,
    /// Rows actually produced to the caller.
    pub rows_returned: u64,
    /// Epoch-cache hits observed while serving this query.
    pub cache_hits: u64,
    /// Epoch-cache misses observed while serving this query.
    pub cache_misses: u64,
    /// Time per pipeline stage (`"read"`, `"decompress"`, `"parse"`,
    /// `"index_probe"`, ...), nanoseconds, summed over the threads that
    /// worked for the query: the [`crate::stage`] spans of that name.
    pub stage_ns: BTreeMap<String, u64>,
    /// Wall time from [`begin`] to [`CostGuard::finish`], nanoseconds.
    pub total_ns: u64,
}

impl CostProfile {
    pub fn new(trace_id: u64) -> Self {
        Self {
            trace_id,
            ..Self::default()
        }
    }

    /// Bytes in the total accumulator not explained by the per-source
    /// breakdown (and likewise for decompression). Zero on a healthy
    /// profile; non-zero means an instrumentation leak.
    pub fn unattributed_bytes(&self) -> u64 {
        let read: u64 = self.bytes_read.values().sum();
        let dec: u64 = self.bytes_decompressed.values().sum();
        self.bytes_read_total.abs_diff(read) + self.bytes_decompressed_total.abs_diff(dec)
    }

    /// Does every per-key byte breakdown sum exactly to its total?
    pub fn reconciles(&self) -> bool {
        self.unattributed_bytes() == 0
    }

    /// Add what `other` collected for the same query: every map and both
    /// byte totals summed, `epochs_touched` the union. `trace_id` and
    /// `total_ns` stay this profile's.
    pub fn merge(&mut self, other: &CostProfile) {
        fn add<K: Ord + Clone>(into: &mut BTreeMap<K, u64>, from: &BTreeMap<K, u64>) {
            for (k, n) in from {
                *into.entry(k.clone()).or_insert(0) += n;
            }
        }
        self.epochs_touched.extend(&other.epochs_touched);
        add(&mut self.bytes_read, &other.bytes_read);
        self.bytes_read_total += other.bytes_read_total;
        add(&mut self.bytes_decompressed, &other.bytes_decompressed);
        self.bytes_decompressed_total += other.bytes_decompressed_total;
        self.rows_scanned += other.rows_scanned;
        self.rows_returned += other.rows_returned;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        add(&mut self.stage_ns, &other.stage_ns);
    }

    /// The profile as ordered `(metric, value)` rows — the body of an
    /// `EXPLAIN ANALYZE` result and of the Profile wire frame. Byte and
    /// row metrics are deterministic for a seeded run; the trailing
    /// `time.*` rows are wall-clock and must never be diffed.
    pub fn rows(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        out.push((
            "epochs_touched".into(),
            self.epochs_touched.len().to_string(),
        ));
        for (source, n) in &self.bytes_read {
            out.push((format!("bytes_read.{source}"), n.to_string()));
        }
        out.push(("bytes_read.total".into(), self.bytes_read_total.to_string()));
        for (codec, n) in &self.bytes_decompressed {
            out.push((format!("bytes_decompressed.{codec}"), n.to_string()));
        }
        out.push((
            "bytes_decompressed.total".into(),
            self.bytes_decompressed_total.to_string(),
        ));
        out.push(("rows_scanned".into(), self.rows_scanned.to_string()));
        out.push(("rows_returned".into(), self.rows_returned.to_string()));
        out.push(("cache_hits".into(), self.cache_hits.to_string()));
        out.push(("cache_misses".into(), self.cache_misses.to_string()));
        out.push((
            "unattributed_bytes".into(),
            self.unattributed_bytes().to_string(),
        ));
        for (stage, ns) in &self.stage_ns {
            out.push((format!("time.{stage}_us"), (ns / 1_000).to_string()));
        }
        out.push(("time.total_us".into(), (self.total_ns / 1_000).to_string()));
        out
    }
}

/// A profile collecting on a thread, and when it began.
pub(crate) struct Collecting {
    profile: CostProfile,
    start_ns: u64,
}

impl Collecting {
    pub(crate) fn new(trace_id: u64) -> Self {
        Self {
            profile: CostProfile::new(trace_id),
            start_ns: now_ns(),
        }
    }

    pub(crate) fn trace_id(&self) -> u64 {
        self.profile.trace_id
    }

    /// Attribute `ns` nanoseconds of wall time to `stage` (a closing
    /// [`crate::stage`] span).
    pub(crate) fn add_stage(&mut self, stage: &str, ns: u64) {
        *self.profile.stage_ns.entry(stage.to_string()).or_insert(0) += ns;
    }

    /// The profile, its `total_ns` stamped.
    pub(crate) fn finish(self) -> CostProfile {
        let mut p = self.profile;
        p.total_ns = now_ns().saturating_sub(self.start_ns);
        p
    }
}

/// RAII guard for an installed cost profile. Dropping it without
/// [`CostGuard::finish`] discards the profile; either way the previously
/// installed profile (if any) is restored, so profiled sections nest.
pub struct CostGuard {
    /// The profile to put back; `None` once put back.
    prev: Option<Option<Collecting>>,
}

impl CostGuard {
    /// Put the previous profile back, returning this guard's.
    fn restore(&mut self) -> Option<Collecting> {
        let prev = self.prev.take()?;
        context::with(|r| std::mem::replace(&mut r.cost, prev))
    }

    /// Detach the collected profile, stamping `total_ns`, and restore the
    /// previous context.
    pub fn finish(mut self) -> CostProfile {
        // `None` is unreachable in practice: only `finish`/`drop` remove it.
        self.restore()
            .map_or_else(CostProfile::default, Collecting::finish)
    }
}

impl Drop for CostGuard {
    fn drop(&mut self) {
        self.restore();
    }
}

/// Install a fresh profile for `trace_id` on this thread. The profile
/// collects until the guard is finished or dropped.
pub fn begin(trace_id: u64) -> CostGuard {
    let prev = context::with(|r| r.cost.replace(Collecting::new(trace_id)));
    CostGuard { prev: Some(prev) }
}

/// Merge `other` — what a helper thread collected for this thread's query
/// — into the active profile ([`CostProfile::merge`]); a no-op without
/// one.
pub fn absorb(other: &CostProfile) {
    with_active(|p| p.merge(other));
}

fn with_active(f: impl FnOnce(&mut CostProfile)) {
    context::with(|r| {
        if let Some(active) = r.cost.as_mut() {
            f(&mut active.profile);
        }
    });
}

/// Attribute `n` bytes read from `source` (`"dfs"`, `"cas"`). Under
/// [`attribute_reads_to`] its source wins: a store built *on top* of dfs
/// (the CAS) claims the physical reads it initiates, so every byte is
/// attributed exactly once, to the store that asked for it.
pub fn add_bytes_read(source: &str, n: u64) {
    context::with(|r| {
        let Some(active) = r.cost.as_mut() else {
            return;
        };
        let key = r.source.as_deref().unwrap_or(source);
        let p = &mut active.profile;
        *p.bytes_read.entry(key.to_string()).or_insert(0) += n;
        p.bytes_read_total += n;
    });
}

/// Attribute all [`add_bytes_read`] calls on this thread to `source`
/// until the returned guard drops. Used by layered stores (CAS over dfs)
/// so the underlying reads count toward the initiating store instead of
/// being double-attributed.
pub fn attribute_reads_to(source: &str) -> Guard {
    context::set(Field::Source(Some(source.to_string())))
}

/// Attribute `n` decompressed output bytes to `codec`.
pub fn add_decompressed(codec: &str, n: u64) {
    with_active(|p| {
        *p.bytes_decompressed.entry(codec.to_string()).or_insert(0) += n;
        p.bytes_decompressed_total += n;
    });
}

/// Record rows iterated and rows produced.
pub fn add_rows(scanned: u64, returned: u64) {
    with_active(|p| {
        p.rows_scanned += scanned;
        p.rows_returned += returned;
    });
}

/// Record that the query touched `epoch`'s data.
pub fn touch_epoch(epoch: u64) {
    with_active(|p| {
        p.epochs_touched.insert(epoch);
    });
}

/// Record an epoch-cache hit.
pub fn cache_hit() {
    with_active(|p| p.cache_hits += 1);
}

/// Record an epoch-cache miss.
pub fn cache_miss() {
    with_active(|p| p.cache_misses += 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutators_are_noops_without_an_active_profile() {
        add_bytes_read("dfs", 100);
        add_rows(5, 1);
        touch_epoch(7);
        // Nothing panics, nothing sticks: a fresh profile starts empty.
        let g = begin(1);
        let p = g.finish();
        assert_eq!(p.bytes_read_total, 0);
        assert_eq!(p.rows_scanned, 0);
        assert!(p.epochs_touched.is_empty());
    }

    #[test]
    fn profile_collects_and_reconciles() {
        let g = begin(42);
        add_bytes_read("dfs", 100);
        add_bytes_read("dfs", 50);
        add_bytes_read("cas", 30);
        add_decompressed("gzip-lite", 400);
        add_rows(1000, 10);
        touch_epoch(3);
        touch_epoch(3);
        touch_epoch(5);
        cache_hit();
        cache_miss();
        let p = g.finish();
        assert_eq!(p.trace_id, 42);
        assert_eq!(p.bytes_read_total, 180);
        assert_eq!(p.bytes_read["dfs"], 150);
        assert_eq!(p.bytes_read["cas"], 30);
        assert_eq!(p.bytes_decompressed_total, 400);
        assert_eq!(p.rows_scanned, 1000);
        assert_eq!(p.rows_returned, 10);
        assert_eq!(
            p.epochs_touched.iter().copied().collect::<Vec<_>>(),
            vec![3, 5]
        );
        assert_eq!(p.cache_hits, 1);
        assert_eq!(p.cache_misses, 1);
        assert!(p.reconciles());
        assert_eq!(p.unattributed_bytes(), 0);
    }

    #[test]
    fn source_override_reattributes_nested_reads() {
        let g = begin(3);
        add_bytes_read("dfs", 10);
        {
            let _cas = attribute_reads_to("cas");
            // A layered store's internal dfs reads count as "cas".
            add_bytes_read("dfs", 90);
        }
        add_bytes_read("dfs", 5);
        let p = g.finish();
        assert_eq!(p.bytes_read["dfs"], 15);
        assert_eq!(p.bytes_read["cas"], 90);
        assert_eq!(p.bytes_read_total, 105);
        assert!(p.reconciles());
    }

    #[test]
    fn unattributed_bytes_detects_a_leak() {
        let mut p = CostProfile::new(1);
        p.bytes_read.insert("dfs".into(), 100);
        p.bytes_read_total = 120; // 20 bytes nobody attributed
        assert!(!p.reconciles());
        assert_eq!(p.unattributed_bytes(), 20);
    }

    #[test]
    fn guards_nest_and_restore_the_outer_profile() {
        let outer = begin(1);
        add_bytes_read("dfs", 10);
        {
            let inner = begin(2);
            add_bytes_read("dfs", 999);
            let p = inner.finish();
            assert_eq!(p.trace_id, 2);
            assert_eq!(p.bytes_read_total, 999);
        }
        // Back on the outer profile.
        add_bytes_read("dfs", 5);
        let p = outer.finish();
        assert_eq!(p.trace_id, 1);
        assert_eq!(p.bytes_read_total, 15);
    }

    #[test]
    fn dropping_a_guard_discards_and_restores() {
        let outer = begin(1);
        {
            let _inner = begin(2);
            add_rows(100, 100);
            // dropped unfinished: profile 2 is discarded
        }
        add_rows(1, 1);
        let p = outer.finish();
        assert_eq!(p.rows_scanned, 1);
    }

    #[test]
    fn rows_render_breakdowns_and_totals() {
        let g = begin(9);
        add_bytes_read("dfs", 64);
        add_decompressed("zstd-lite", 256);
        add_rows(8, 2);
        let p = g.finish();
        let rows = p.rows();
        let get = |k: &str| {
            rows.iter()
                .find(|(m, _)| m == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing row {k}"))
        };
        assert_eq!(get("bytes_read.dfs"), "64");
        assert_eq!(get("bytes_read.total"), "64");
        assert_eq!(get("bytes_decompressed.zstd-lite"), "256");
        assert_eq!(get("rows_scanned"), "8");
        assert_eq!(get("rows_returned"), "2");
        assert_eq!(get("unattributed_bytes"), "0");
        assert!(rows.iter().any(|(m, _)| m == "time.total_us"));
    }
}
