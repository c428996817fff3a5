//! Meta-highlights: SPATE's θ-rarity detection turned on the system's
//! own telemetry.
//!
//! The paper's core rule — "values with an occurrence frequency below
//! threshold θ are considered highlights" — is attribute-agnostic; it
//! only needs a value-frequency table. This module feeds *system metric
//! regimes* through the very same [`FreqTable`] the index layer uses on
//! CDR attributes: each monitor tick reads windowed deltas of the metric
//! registry for every row of a stream table (sheds, fault retries,
//! corruption events, request errors, windowed p99, cache hit ratio,
//! survivability events, interruptions, breaker trips, shard skew),
//! grades every stream into a small ordered category alphabet ("none" /
//! "some" / "storm", ...), and counts the category into the stream's
//! frequency table. A tick's category is an **anomaly** when it is
//!
//! 1. *rare*: its relative frequency across all ticks so far is below θ
//!    (the paper's highlight rule, as [`FreqTable::rare_values`] applies
//!    it), and
//! 2. *worse than normal*: strictly more severe than the stream's modal
//!    category — rarity alone would also flag an unusually *good* tick.
//!
//! Streams are split by determinism. **Deterministic** streams (fault
//! retries, replica corruption, request/protocol errors, survivability,
//! shard skew) are identically "none" on every tick of a fault-free run
//! regardless of thread timing, so a calm seeded run reports exactly
//! zero deterministic anomalies — the CI gate. **Timing** streams (shed
//! pressure, windowed latency, cache hit ratio, interruptions, breaker
//! trips) depend on scheduling; their anomalies are surfaced as advisory
//! records but never gate.

use crate::index::highlights::FreqTable;
use obs::{metrics, Histogram, Registry};
use std::collections::{HashMap, VecDeque};
use Grade::{CacheBand, Count, P99Regime, ShardSkew, ShedShare};
use StreamKind::{Deterministic, Timing};

/// Rarity threshold θ applied to every stream's category table. System
/// streams have a handful of ticks, not millions of records, so θ here is
/// much larger than the index layer's per-day θ.
const THETA: f64 = 0.3;

/// Ticks of history required before detection arms (a one-tick "history"
/// would make every first observation rare).
const MIN_TICKS: u64 = 4;

/// Bound on retained [`AnomalyRecord`]s (oldest dropped first).
const HISTORY: usize = 64;

/// Whether a stream's category is a pure function of the workload or
/// depends on thread timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    Deterministic,
    Timing,
}

/// One θ-rarity detection on a telemetry stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyRecord {
    /// Monitor tick (1-based) the anomaly fired on.
    pub tick: u64,
    /// Stream name (`"dfs.retry"`, `"serve.shed"`, ...).
    pub stream: &'static str,
    /// The rare category observed this tick.
    pub category: String,
    /// Its relative frequency (< θ).
    pub share: f64,
    /// The stream's modal (normal) category.
    pub modal: String,
    pub kind: StreamKind,
}

/// How a stream grades its window: a category plus a severity (0 is
/// normal, higher is worse).
#[derive(Clone, Copy)]
enum Grade {
    /// The stream's one group against a ladder of `(at least, category)`
    /// steps: a delta of zero is "none", one reaching the `i`-th step is
    /// that step's category, severity `i + 1`.
    Count(&'static [(u64, &'static str)]),
    /// Sheds (group 0) as a share of sheds plus served queries (group 1).
    ShedShare,
    /// Cache hits (group 0) as a share of hits plus misses (group 1).
    CacheBand,
    /// The windowed p99 of `serve.latency_us{class="interactive"}`,
    /// bucketed into power-of-4 regimes.
    P99Regime,
    /// The worst max/mean ratio across per-shard bytes and windowed query
    /// counts (the `spate.shard.*` series `ShardedSpate::shard_stats`
    /// publishes): a normally balanced run that develops a hot spot fires.
    ShardSkew,
}

/// One row of [`STREAMS`]: the stream's name, its kind, the counter
/// groups whose windowed sums it grades, and its grade.
type Stream = (&'static str, StreamKind, Groups, Grade);

/// Counter groups, each summed into one windowed value.
type Groups = &'static [&'static [&'static str]];

/// Every stream, in sampling order.
#[rustfmt::skip]
const STREAMS: [Stream; 10] = [
    ("serve.shed", Timing, &[&["serve.queue.shed", "serve.shed.deadline"], &["serve.queries"]], ShedShare),
    // Replica retry attempts, then replica corruption.
    ("dfs.retry", Deterministic, &[&["dfs.retry.attempts"]], Count(&[(1, "some"), (8, "burst")])),
    ("dfs.corruption", Deterministic,
        &[&["dfs.fault.checksum_mismatches", "dfs.fault.read_failovers"]], Count(&[(1, "burst")])),
    ("serve.errors", Deterministic,
        &[&["serve.request_errors", "serve.protocol_errors"]], Count(&[(1, "some")])),
    ("serve.latency", Timing, &[], P99Regime),
    ("serve.cache", Timing, &[&["serve.cache.hit"], &["serve.cache.miss"]], CacheBand),
    // Worker panic isolations, worker respawns and poisoned-lock
    // recoveries: the serve tier absorbing damage that would otherwise
    // have been fatal. They are driven purely by the workload (a poison
    // query always panics, a calm run never does), so the stream gates CI
    // like the other deterministic ones.
    ("serve.survive", Deterministic,
        &[&["serve.panics", "serve.worker.respawns", "serve.lock.poison_recovered"]],
        Count(&[(1, "isolated")])),
    // Budget interruptions. Whether a Cancel frame or a deadline lands
    // before the request finishes is a race against evaluation: timing.
    ("serve.interrupt", Timing,
        &[&["serve.cancelled", "serve.deadline.expired"]], Count(&[(1, "some")])),
    // Breaker trips and half-open reopens follow the dfs fault plan's op
    // clock; under concurrent workers the interleaving can shift which
    // tick a trip lands on, never whether a calm run stays at "none".
    ("dfs.breaker", Timing,
        &[&["dfs.breaker.trips", "dfs.breaker.reopens"]], Count(&[(1, "tripping")])),
    // Per-shard bytes are a pure function of the ingested cells; windowed
    // query counts follow the seeded workload. A skewed layout therefore
    // fires this stream identically on every run: deterministic, CI-gated.
    ("shard.skew", Deterministic, &[], ShardSkew),
];

impl Grade {
    /// Grade a window as [`MetaMonitor::window_of`] reads it.
    fn apply(self, d: &[u64]) -> (String, u32) {
        let (category, severity) = match self {
            Count(ladder) => match ladder.iter().rposition(|&(at, _)| d[0] >= at) {
                Some(i) => (ladder[i].1, i as u32 + 1),
                None => ("none", 0),
            },
            ShedShare => match (d[0], d[1]) {
                (0, _) => ("none", 0),
                (shed, ops) if shed * 10 < (shed + ops).max(1) => ("minor", 1),
                _ => ("storm", 2),
            },
            CacheBand => match (d[0], d[1]) {
                (0, 0) => ("idle", 0),
                (hits, misses) => match hits as f64 / (hits + misses) as f64 {
                    r if r >= 0.5 => ("high", 0),
                    r if r >= 0.1 => ("mid", 1),
                    _ => ("low", 2),
                },
            },
            P99Regime => match Histogram::quantile_of_counts(d, 0.99) {
                // No interactive traffic this window.
                0 => ("idle", 0),
                // Power-of-4 regime: p99 must quadruple to change
                // category, so ordinary jitter stays in one bucket.
                p99 => {
                    let regime = (64 - p99.leading_zeros()).div_ceil(2);
                    return (format!("p99~4^{regime}us"), regime);
                }
            },
            ShardSkew if d.is_empty() => ("idle", 0),
            ShardSkew => {
                let (bytes, queries) = d.split_at(d.len() / 2);
                let worst = [bytes, queries]
                    .iter()
                    .filter(|dim| dim.iter().sum::<u64>() > 0)
                    .map(|dim| {
                        let mean = dim.iter().sum::<u64>() as f64 / dim.len() as f64;
                        *dim.iter().max().unwrap() as f64 / mean
                    })
                    .fold(0.0f64, f64::max);
                match worst {
                    w if w < 2.0 => ("balanced", 0),
                    w if w < 3.5 => ("tilted", 1),
                    _ => ("hot-spot", 2),
                }
            }
        };
        (category.to_string(), severity)
    }
}

/// Counts summary for introspection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetaSummary {
    pub ticks: u64,
    pub anomalies_total: u64,
    /// Anomalies on deterministic streams only — the CI gate value.
    pub anomalies_deterministic: u64,
}

/// The periodic self-monitor. Drive it with [`MetaMonitor::tick`] —
/// manually at workload boundaries (deterministic benchmarks) or from an
/// interval thread (a live server).
pub struct MetaMonitor {
    ticks: u64,
    /// Per row of [`STREAMS`]: category counts and each one's severity.
    freqs: Vec<(FreqTable, HashMap<String, u32>)>,
    /// What each windowed read returned at the previous tick, keyed by its
    /// stream (and shard).
    prev: HashMap<String, Vec<u64>>,
    anomalies: VecDeque<AnomalyRecord>,
    total: u64,
    deterministic: u64,
}

impl Default for MetaMonitor {
    fn default() -> Self {
        Self {
            ticks: 0,
            freqs: STREAMS.iter().map(|_| Default::default()).collect(),
            prev: HashMap::new(),
            anomalies: VecDeque::new(),
            total: 0,
            deterministic: 0,
        }
    }
}

impl MetaMonitor {
    /// The windowing step: `now` minus what `key` read at the previous
    /// tick, element by element and saturating at zero.
    fn since(&mut self, key: String, now: Vec<u64>) -> Vec<u64> {
        metrics::counts_since(now, self.prev.entry(key).or_default())
    }

    /// Stream `s`'s window this tick: one windowed sum per counter group,
    /// the latency histogram's windowed bucket counts, or each shard's
    /// bytes followed by each shard's windowed query count.
    fn window_of(&mut self, &(name, _, groups, grade): &Stream, reg: &Registry) -> Vec<u64> {
        match grade {
            P99Regime => {
                let h = reg.histogram_labeled("serve.latency_us", &[("class", "interactive")]);
                self.since(name.to_string(), h.bucket_counts())
            }
            ShardSkew => {
                // Shards are enumerated from the published per-shard byte
                // gauges; a run that never publishes them (single-shard
                // serve, unit tests) reads as "idle" on every tick.
                let mut shards: Vec<u32> = reg
                    .gauges_snapshot()
                    .iter()
                    .filter(|(id, _)| id.name() == "spate.shard.bytes")
                    .filter_map(|(id, _)| {
                        let shard = id.labels().iter().find(|(k, _)| k == "shard");
                        shard.and_then(|(_, v)| v.parse().ok())
                    })
                    .collect();
                shards.sort_unstable();
                shards.dedup();
                if shards.len() < 2 {
                    return Vec::new();
                }
                let shards: Vec<String> = shards.iter().map(u32::to_string).collect();
                let bytes = |s: &String| reg.gauge_labeled("spate.shard.bytes", &[("shard", s)]);
                let mut window: Vec<u64> = shards
                    .iter()
                    .map(|s| bytes(s).get().max(0) as u64)
                    .collect();
                for s in &shards {
                    let now = reg
                        .counter_labeled("spate.shard.queries", &[("shard", s)])
                        .get();
                    window.extend(self.since(format!("{name}/{s}"), vec![now]));
                }
                window
            }
            _ => {
                let sum = |g: &&[&str]| g.iter().map(|n| reg.counter(n).get()).sum();
                self.since(name.to_string(), groups.iter().map(sum).collect())
            }
        }
    }

    /// Sample every stream once and run θ-rarity detection; returns the
    /// anomalies that fired *this* tick. Also maintains the
    /// `meta.ticks` / `meta.anomalies*` counters in `reg` so the monitor
    /// shows up in its own exports.
    pub fn tick(&mut self, reg: &Registry) -> Vec<AnomalyRecord> {
        self.ticks += 1;
        reg.counter("meta.ticks").inc();
        let mut fired = Vec::new();
        for (i, stream @ &(name, kind, _, grade)) in STREAMS.iter().enumerate() {
            let (category, severity) = grade.apply(&self.window_of(stream, reg));
            let (freq, severities) = &mut self.freqs[i];
            severities.insert(category.clone(), severity);
            freq.add(&category);
            if self.ticks < MIN_TICKS {
                continue;
            }
            let Some(modal) = freq.modal().map(|(modal, _)| modal.to_string()) else {
                continue;
            };
            let modal_severity = severities.get(&modal).copied().unwrap_or(0);
            let share = freq.share(&category);
            if share < THETA && severity > modal_severity {
                reg.counter("meta.anomalies").inc();
                self.total += 1;
                if kind == Deterministic {
                    reg.counter("meta.anomalies.deterministic").inc();
                    self.deterministic += 1;
                }
                fired.push(AnomalyRecord {
                    tick: self.ticks,
                    stream: name,
                    category,
                    share,
                    modal,
                    kind,
                });
            }
        }
        self.anomalies.extend(fired.iter().cloned());
        let excess = self.anomalies.len().saturating_sub(HISTORY);
        self.anomalies.drain(..excess);
        fired
    }

    pub fn summary(&self) -> MetaSummary {
        MetaSummary {
            ticks: self.ticks,
            anomalies_total: self.total,
            anomalies_deterministic: self.deterministic,
        }
    }

    /// Retained anomaly records, oldest first: at most the 64 most recent.
    pub fn recent(&self) -> Vec<AnomalyRecord> {
        self.anomalies.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calm_ticks(m: &mut MetaMonitor, reg: &Registry, n: usize) {
        for _ in 0..n {
            reg.counter("serve.queries").add(10);
            reg.counter("serve.cache.hit").add(8);
            reg.counter("serve.cache.miss").add(2);
            reg.histogram_labeled("serve.latency_us", &[("class", "interactive")])
                .record(900);
            let fired = m.tick(reg);
            assert!(fired.is_empty(), "calm tick fired {fired:?}");
        }
    }

    #[test]
    fn calm_runs_report_zero_anomalies() {
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        calm_ticks(&mut m, &reg, 10);
        let s = m.summary();
        assert_eq!(s.ticks, 10);
        assert_eq!(s.anomalies_total, 0);
        assert_eq!(s.anomalies_deterministic, 0);
        assert_eq!(reg.counter("meta.ticks").get(), 10);
        assert_eq!(reg.counter("meta.anomalies").get(), 0);
    }

    #[test]
    fn fault_retry_burst_fires_a_deterministic_anomaly() {
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        calm_ticks(&mut m, &reg, 8);
        // Injected fault storm: a burst of replica retries in one window.
        reg.counter("dfs.retry.attempts").add(40);
        assert_eq!(fire(&mut m, &reg), ["9 dfs.retry burst 0.1111 none D"]);
        assert_eq!(m.summary().anomalies_deterministic, 1);
        assert_eq!(reg.counter("meta.anomalies.deterministic").get(), 1);
    }

    #[test]
    fn corruption_and_error_bursts_fire() {
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        calm_ticks(&mut m, &reg, 6);
        reg.counter("dfs.fault.checksum_mismatches").add(3);
        reg.counter("serve.request_errors").add(2);
        let fired = [
            "7 dfs.corruption burst 0.1429 none D",
            "7 serve.errors some 0.1429 none D",
        ];
        assert_eq!(fire(&mut m, &reg), fired);
    }

    #[test]
    fn shed_storm_fires_as_timing_advisory() {
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        calm_ticks(&mut m, &reg, 8);
        // Storm: sheds dominate the window.
        reg.counter("serve.queue.shed").add(50);
        reg.counter("serve.queries").add(5);
        assert_eq!(fire(&mut m, &reg), ["9 serve.shed storm 0.1111 none T"]);
        // Timing anomalies never count toward the deterministic gate.
        assert_eq!(m.summary().anomalies_deterministic, 0);
        assert!(m.summary().anomalies_total >= 1);
    }

    #[test]
    fn p99_inflation_fires_and_jitter_does_not() {
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        let h = reg.histogram_labeled("serve.latency_us", &[("class", "interactive")]);
        // 8 calm ticks around ~1ms with ±30% jitter: same power-of-4
        // regime, no anomaly.
        for i in 0..8u64 {
            reg.counter("serve.queries").add(10);
            for _ in 0..20 {
                h.record(900 + (i % 3) * 250);
            }
            assert!(m.tick(&reg).is_empty());
        }
        // p99 inflates 40×.
        for _ in 0..20 {
            h.record(40_000);
        }
        let fired = ["9 serve.latency p99~4^8us 0.1111 p99~4^6us T"];
        assert_eq!(fire(&mut m, &reg), fired);
    }

    /// Publish four shards' `(bytes, new queries)` as `shard_stats` does.
    fn publish_shards(reg: &Registry, layout: [(i64, u64); 4]) {
        for (s, (bytes, queries)) in layout.into_iter().enumerate() {
            let shard = s.to_string();
            let labels = [("shard", shard.as_str())];
            reg.gauge_labeled("spate.shard.bytes", &labels).set(bytes);
            reg.counter_labeled("spate.shard.queries", &labels)
                .add(queries);
        }
    }

    #[test]
    fn shard_skew_is_idle_without_published_shards_and_silent_when_balanced() {
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        // No shard gauges at all: idle, never fires.
        calm_ticks(&mut m, &reg, 6);
        // Balanced 4-shard layout: every tick stays "balanced".
        for _ in 0..8 {
            publish_shards(&reg, [(1_000, 25); 4]);
            let fired = m.tick(&reg);
            assert!(!fired.iter().any(|a| a.stream == "shard.skew"), "{fired:?}");
        }
        assert_eq!(m.summary().anomalies_deterministic, 0);
    }

    #[test]
    fn shard_hot_spot_fires_a_deterministic_anomaly() {
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        // Balanced history first, so "balanced" is modal.
        for _ in 0..8 {
            publish_shards(&reg, [(1_000, 25); 4]);
            assert!(m.tick(&reg).iter().all(|a| a.stream != "shard.skew"));
        }
        // One shard takes all the new queries this window: max/mean = 4.
        publish_shards(&reg, [(1_000, 400), (1_000, 0), (1_000, 0), (1_000, 0)]);
        let hot = ["9 shard.skew hot-spot 0.1111 balanced D"];
        assert_eq!(fire(&mut m, &reg), hot);
        assert_eq!(m.summary().anomalies_deterministic, 1);
    }

    #[test]
    fn shard_byte_imbalance_alone_fires() {
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        for _ in 0..8 {
            publish_shards(&reg, [(1_000, 10); 4]);
            m.tick(&reg);
        }
        // One shard now holds ~64x the bytes of the others
        // (max/mean = 64000/16750 ≈ 3.8, past the hot-spot threshold).
        publish_shards(&reg, [(64_000, 10), (1_000, 10), (1_000, 10), (1_000, 10)]);
        let hot = ["9 shard.skew hot-spot 0.1111 balanced D"];
        assert_eq!(fire(&mut m, &reg), hot);
    }

    #[test]
    fn detection_is_armed_only_after_min_ticks() {
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        // A burst on the very first tick is "normal" — no history says
        // otherwise yet.
        reg.counter("dfs.retry.attempts").add(100);
        assert!(m.tick(&reg).is_empty());
        assert_eq!(m.summary().anomalies_total, 0);
    }

    #[test]
    fn history_is_bounded() {
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        // Four calm ticks, then a burst on three deterministic streams: a
        // burst stays rare (a fifth of the ticks), so every one fires.
        for _ in 0..40 {
            calm_ticks(&mut m, &reg, 4);
            reg.counter("dfs.fault.checksum_mismatches").add(1);
            reg.counter("serve.request_errors").add(1);
            reg.counter("dfs.retry.attempts").add(20);
            m.tick(&reg);
        }
        assert!(m.summary().anomalies_total > HISTORY as u64);
        let recent = m.recent();
        assert_eq!(recent.len(), HISTORY);
        assert_eq!(recent.last().map(|a| a.tick), Some(200));
    }

    /// This tick's anomalies, each as `tick stream category share modal
    /// kind`, kind `D` or `T` (its first letter).
    fn fire(m: &mut MetaMonitor, reg: &Registry) -> Vec<String> {
        let render = |a: &AnomalyRecord| {
            let (tick, stream, category, modal) = (a.tick, a.stream, &a.category, &a.modal);
            let kind = &format!("{:?}", a.kind)[..1];
            format!("{tick} {stream} {category} {:.4} {modal} {kind}", a.share)
        };
        m.tick(reg).iter().map(render).collect()
    }

    #[test]
    fn retry_grades_seven_attempts_some_and_eight_a_burst() {
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        calm_ticks(&mut m, &reg, 8);
        reg.counter("dfs.retry.attempts").add(7);
        assert_eq!(fire(&mut m, &reg), ["9 dfs.retry some 0.1111 none D"]);
        reg.counter("dfs.retry.attempts").add(8);
        assert_eq!(fire(&mut m, &reg), ["10 dfs.retry burst 0.1000 none D"]);
    }

    #[test]
    fn cache_bands_fire_mid_then_low() {
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        calm_ticks(&mut m, &reg, 8);
        reg.counter("serve.cache.hit").add(3);
        reg.counter("serve.cache.miss").add(7);
        assert_eq!(fire(&mut m, &reg), ["9 serve.cache mid 0.1111 high T"]);
        reg.counter("serve.cache.miss").add(10);
        assert_eq!(fire(&mut m, &reg), ["10 serve.cache low 0.1000 high T"]);
    }

    #[test]
    fn survive_interrupt_and_breaker_events_fire() {
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        calm_ticks(&mut m, &reg, 8);
        for row in [
            "serve.panics: 9 serve.survive isolated 0.1111 none D",
            "serve.worker.respawns: 11 serve.survive isolated 0.1818 none D",
            "serve.lock.poison_recovered: 13 serve.survive isolated 0.2308 none D",
            "serve.cancelled: 15 serve.interrupt some 0.0667 none T",
            "serve.deadline.expired: 17 serve.interrupt some 0.1176 none T",
            "dfs.breaker.trips: 19 dfs.breaker tripping 0.0526 none T",
            "dfs.breaker.reopens: 21 dfs.breaker tripping 0.0952 none T",
        ] {
            let (counter, expected) = row.split_once(": ").unwrap();
            reg.counter(counter).inc();
            assert_eq!(fire(&mut m, &reg), [expected]);
            // The window moved on: the next calm tick is quiet again.
            calm_ticks(&mut m, &reg, 1);
        }
    }

    fn ids<T>(snapshot: Vec<(obs::MetricId, T)>) -> String {
        let ids: Vec<String> = snapshot.iter().map(|(id, _)| id.to_string()).collect();
        ids.join(" ")
    }

    #[test]
    fn a_tick_creates_exactly_these_series() {
        let counters = "dfs.breaker.reopens dfs.breaker.trips dfs.fault.checksum_mismatches \
            dfs.fault.read_failovers dfs.retry.attempts meta.ticks serve.cache.hit serve.cache.miss \
            serve.cancelled serve.deadline.expired serve.lock.poison_recovered serve.panics \
            serve.protocol_errors serve.queries serve.queue.shed serve.request_errors \
            serve.shed.deadline serve.worker.respawns";
        let queries = r#" spate.shard.queries{shard="0"} spate.shard.queries{shard="1"}"#;
        // A fresh registry, then one holding two published shard byte gauges.
        for (shards, queries) in [(0, ""), (2, queries)] {
            let reg = Registry::new();
            for s in 0..shards {
                let s = s.to_string();
                reg.gauge_labeled("spate.shard.bytes", &[("shard", &s)])
                    .set(1);
            }
            MetaMonitor::default().tick(&reg);
            assert_eq!(ids(reg.counters_snapshot()), format!("{counters}{queries}"));
            let histogram = r#"serve.latency_us{class="interactive"}"#;
            assert_eq!(ids(reg.histograms_snapshot()), histogram);
            assert_eq!(reg.gauges_snapshot().len(), shards);
        }
    }

    /// Per counter stream, the `(counter, amount)` a roll of 0, 1, ... adds.
    #[rustfmt::skip]
    const EVENTS: [&[(&str, u64)]; 7] = [
        &[("serve.queue.shed", 50), ("serve.shed.deadline", 1)],
        &[("dfs.retry.attempts", 20), ("dfs.retry.attempts", 3)],
        &[("dfs.fault.checksum_mismatches", 1), ("dfs.fault.read_failovers", 2)],
        &[("serve.request_errors", 1), ("serve.protocol_errors", 1)],
        &[("serve.panics", 1), ("serve.worker.respawns", 1), ("serve.lock.poison_recovered", 1)],
        &[("serve.cancelled", 1), ("serve.deadline.expired", 1)],
        &[("dfs.breaker.trips", 1), ("dfs.breaker.reopens", 1)],
    ];

    /// 240 seeded ticks of calm traffic in which each stream, on a roll of
    /// its own, leaves its normal category for each of the others.
    fn scripted_run(seed: u64) -> Vec<String> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let lat = reg.histogram_labeled("serve.latency_us", &[("class", "interactive")]);
        let mut fired = Vec::new();
        for t in 0..240u64 {
            let mut roll = || rng.gen_range(0..100usize);
            reg.counter("serve.queries").add(10);
            for events in EVENTS {
                if let Some((counter, n)) = events.get(roll()) {
                    reg.counter(counter).add(*n);
                }
            }
            // No traffic ("idle"), regimes 4^7 and 4^8, a better one, or calm.
            let value = [0, 5_000, 40_000, 100].get(roll()).copied();
            for _ in 0..if value == Some(0) { 0 } else { 20 } {
                lat.record(value.unwrap_or(900 + (t % 3) * 250));
            }
            let cache = [(0, 0), (3, 7), (0, 10)].get(roll());
            let (hits, misses) = cache.copied().unwrap_or((8, 2));
            reg.counter("serve.cache.hit").add(hits);
            reg.counter("serve.cache.miss").add(misses);
            // Shards publish from tick 4 on: "idle" before, then balanced,
            // a hot spot (max/mean 4.0) or tilted (2.0).
            let shards = [(100, 0), (60, 20)].get(roll());
            let (hot, cold) = shards.copied().unwrap_or((25, 25));
            if t >= 4 {
                publish_shards(&reg, [hot, cold, cold, cold].map(|q| (1_000, q)));
            }
            fired.extend(fire(&mut m, &reg));
        }
        fired
    }

    /// Every anomaly of `scripted_run(SEED)`, in order.
    const SEED: u64 = 169;
    const SCRIPTED: &str = "\
        7 serve.errors some 0.1429 none D | 14 serve.shed minor 0.0714 none T | 17 serve.cache low \
        0.0588 high T | 32 serve.shed storm 0.0312 none T | 35 serve.survive isolated 0.0286 none \
        D | 40 dfs.retry some 0.0250 none D | 40 dfs.breaker tripping 0.0250 none T | 48 \
        dfs.breaker tripping 0.0417 none T | 49 serve.cache mid 0.0204 high T | 54 serve.survive \
        isolated 0.0370 none D | 55 serve.survive isolated 0.0545 none D | 67 serve.latency \
        p99~4^7us 0.0149 p99~4^6us T | 73 serve.latency p99~4^7us 0.0274 p99~4^6us T | 95 \
        serve.errors some 0.0211 none D | 113 shard.skew hot-spot 0.0088 balanced D | 115 \
        serve.interrupt some 0.0087 none T | 122 serve.errors some 0.0246 none D | 124 \
        serve.errors some 0.0323 none D | 129 dfs.breaker tripping 0.0233 none T | 135 shard.skew \
        tilted 0.0074 balanced D | 142 dfs.retry burst 0.0070 none D | 142 serve.latency p99~4^7us \
        0.0211 p99~4^6us T | 142 shard.skew tilted 0.0141 balanced D | 152 serve.latency p99~4^8us \
        0.0066 p99~4^6us T | 159 serve.latency p99~4^7us 0.0252 p99~4^6us T | 160 serve.latency \
        p99~4^8us 0.0125 p99~4^6us T | 170 dfs.corruption burst 0.0059 none D | 177 serve.shed \
        storm 0.0113 none T | 178 dfs.corruption burst 0.0112 none D | 185 serve.interrupt some \
        0.0108 none T | 186 serve.interrupt some 0.0161 none T | 196 serve.cache mid 0.0102 high T \
        | 228 serve.survive isolated 0.0175 none D | 240 serve.latency p99~4^8us 0.0125 p99~4^6us \
        T | 240 shard.skew hot-spot 0.0083 balanced D";

    #[test]
    fn scripted_run_reproduces_its_anomaly_list() {
        assert_eq!(scripted_run(SEED).join(" | "), SCRIPTED);
        // Every stream visits every category worse than its normal one:
        // 15 distinct `stream category` pairs.
        let pair = |a: &'static str| a.split(' ').skip(1).take(2).collect::<Vec<_>>();
        let mut visits: Vec<_> = SCRIPTED.split(" | ").map(pair).collect();
        visits.sort_unstable();
        visits.dedup();
        assert_eq!(visits.len(), 15, "{visits:?}");
    }
}
