//! Meta-highlights: SPATE's θ-rarity detection turned on the system's
//! own telemetry.
//!
//! The paper's core rule — "values with an occurrence frequency below
//! threshold θ are considered highlights" — is attribute-agnostic; it
//! only needs a value-frequency table. This module feeds *system metric
//! regimes* through the very same [`FreqTable`] the index layer uses on
//! CDR attributes: each monitor tick samples windowed deltas of the
//! metric registry (shed counts, fault retries, corruption events,
//! request errors, windowed p99, cache hit ratio), quantizes every
//! stream into a small ordered category alphabet ("none" / "some" /
//! "storm", ...), and counts the category into the stream's frequency
//! table. A tick's category is an **anomaly** when it is
//!
//! 1. *rare*: its relative frequency across all ticks so far is below θ
//!    (the paper's highlight rule, via [`FreqTable::rare_values`]), and
//! 2. *worse than normal*: strictly more severe than the stream's modal
//!    category — rarity alone would also flag an unusually *good* tick.
//!
//! Streams are split by determinism. **Deterministic** streams (shed
//! storms aside: fault retries, replica corruption, request/protocol
//! errors) are identically "none" on every tick of a fault-free run
//! regardless of thread timing, so a calm seeded run reports exactly
//! zero deterministic anomalies — the CI gate. **Timing** streams
//! (shed pressure, windowed latency, cache hit ratio) depend on
//! scheduling; their anomalies are surfaced as advisory records but
//! never gate.

use crate::index::highlights::FreqTable;
use obs::{Histogram, Registry};
use std::collections::VecDeque;

/// Tuning of the meta-highlights monitor.
#[derive(Debug, Clone, Copy)]
pub struct MetaConfig {
    /// Rarity threshold θ applied to every stream's category table.
    /// System streams have a handful of ticks, not millions of records,
    /// so θ here is much larger than the index layer's per-day θ.
    pub theta: f64,
    /// Ticks of history required before detection arms (a one-tick
    /// "history" would make every first observation rare).
    pub min_ticks: u64,
    /// Bound on retained [`AnomalyRecord`]s (oldest dropped first).
    pub history: usize,
}

impl Default for MetaConfig {
    fn default() -> Self {
        Self {
            theta: 0.3,
            min_ticks: 4,
            history: 64,
        }
    }
}

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

/// Windowed-delta samplers over the registry, one per stream. Each keeps
/// the previous raw counter values so a tick sees only what happened
/// since the last tick.
enum Sampler {
    /// Shed pressure relative to served queries in the window.
    Shed { prev_shed: u64, prev_ops: u64 },
    /// dfs replica retry attempts.
    FaultRetry { prev: u64 },
    /// dfs checksum mismatches + read failovers (replica corruption).
    Corruption { prev: u64 },
    /// Request + protocol errors.
    Errors { prev: u64 },
    /// Windowed p99 of `serve.latency_us{class="interactive"}`, bucketed
    /// into power-of-4 regimes.
    Latency { prev: Vec<u64> },
    /// Windowed epoch-cache hit ratio.
    CacheHit { prev_hits: u64, prev_misses: u64 },
    /// Worker panic isolations, poisoned-lock recoveries and worker
    /// respawns — the serve tier absorbing damage that would otherwise
    /// have been fatal.
    Survive { prev: u64 },
    /// Budget interruptions: client cancellations + expired end-to-end
    /// deadlines.
    Interrupt { prev: u64 },
    /// Replica circuit-breaker trips and half-open reopens.
    Breaker { prev: u64 },
    /// Shard imbalance: worst max/mean ratio across per-shard bytes and
    /// windowed query counts (the `spate.shard.*` series published by
    /// `ShardedSpate::shard_stats`). The paper's rarity rule then fires
    /// when a run that is normally balanced develops a hot spot.
    ShardSkew {
        prev_queries: std::collections::BTreeMap<u32, u64>,
    },
}

struct Stream {
    name: &'static str,
    kind: StreamKind,
    freq: FreqTable,
    sampler: Sampler,
}

fn delta(reg: &Registry, name: &str, prev: &mut u64) -> u64 {
    let cur = reg.counter(name).get();
    let d = cur.saturating_sub(*prev);
    *prev = cur;
    d
}

impl Stream {
    /// Quantize this tick's window into a category. Returns the category
    /// plus its severity rank (0 = normal, higher = worse).
    fn sample(&mut self, reg: &Registry) -> (String, u32) {
        match &mut self.sampler {
            Sampler::Shed {
                prev_shed,
                prev_ops,
            } => {
                let cur_shed = reg.counter("serve.queue.shed").get()
                    + reg.counter("serve.shed.deadline").get();
                let shed = cur_shed.saturating_sub(*prev_shed);
                *prev_shed = cur_shed;
                let ops = delta(reg, "serve.queries", prev_ops);
                if shed == 0 {
                    ("none".into(), 0)
                } else if shed * 10 < (shed + ops).max(1) {
                    ("minor".into(), 1)
                } else {
                    ("storm".into(), 2)
                }
            }
            Sampler::FaultRetry { prev } => {
                let d = delta(reg, "dfs.retry.attempts", prev);
                if d == 0 {
                    ("none".into(), 0)
                } else if d < 8 {
                    ("some".into(), 1)
                } else {
                    ("burst".into(), 2)
                }
            }
            Sampler::Corruption { prev } => {
                let cur = reg.counter("dfs.fault.checksum_mismatches").get()
                    + reg.counter("dfs.fault.read_failovers").get();
                let d = cur.saturating_sub(*prev);
                *prev = cur;
                if d == 0 {
                    ("none".into(), 0)
                } else {
                    ("burst".into(), 1)
                }
            }
            Sampler::Errors { prev } => {
                let cur = reg.counter("serve.request_errors").get()
                    + reg.counter("serve.protocol_errors").get();
                let d = cur.saturating_sub(*prev);
                *prev = cur;
                if d == 0 {
                    ("none".into(), 0)
                } else {
                    ("some".into(), 1)
                }
            }
            Sampler::Latency { prev } => {
                let h = reg.histogram_labeled("serve.latency_us", &[("class", "interactive")]);
                let cur = h.bucket_counts();
                let window: Vec<u64> = cur
                    .iter()
                    .zip(prev.iter().chain(std::iter::repeat(&0)))
                    .map(|(c, p)| c.saturating_sub(*p))
                    .collect();
                *prev = cur;
                let p99 = Histogram::quantile_of_counts(&window, 0.99);
                if p99 == 0 {
                    // No interactive traffic this window.
                    return ("idle".into(), 0);
                }
                // Power-of-4 regime: p99 must quadruple to change
                // category, so ordinary jitter stays in one bucket.
                let regime = (64 - p99.leading_zeros()).div_ceil(2);
                (format!("p99~4^{regime}us"), regime)
            }
            Sampler::CacheHit {
                prev_hits,
                prev_misses,
            } => {
                let hits = delta(reg, "serve.cache.hit", prev_hits);
                let misses = delta(reg, "serve.cache.miss", prev_misses);
                if hits + misses == 0 {
                    ("idle".into(), 0)
                } else {
                    let ratio = hits as f64 / (hits + misses) as f64;
                    if ratio >= 0.5 {
                        ("high".into(), 0)
                    } else if ratio >= 0.1 {
                        ("mid".into(), 1)
                    } else {
                        ("low".into(), 2)
                    }
                }
            }
            Sampler::Survive { prev } => {
                let cur = reg.counter("serve.panics").get()
                    + reg.counter("serve.worker.respawns").get()
                    + reg.counter("serve.lock.poison_recovered").get();
                let d = cur.saturating_sub(*prev);
                *prev = cur;
                if d == 0 {
                    ("none".into(), 0)
                } else {
                    ("isolated".into(), 1)
                }
            }
            Sampler::Interrupt { prev } => {
                let cur = reg.counter("serve.cancelled").get()
                    + reg.counter("serve.deadline.expired").get();
                let d = cur.saturating_sub(*prev);
                *prev = cur;
                if d == 0 {
                    ("none".into(), 0)
                } else {
                    ("some".into(), 1)
                }
            }
            Sampler::Breaker { prev } => {
                let cur = reg.counter("dfs.breaker.trips").get()
                    + reg.counter("dfs.breaker.reopens").get();
                let d = cur.saturating_sub(*prev);
                *prev = cur;
                if d == 0 {
                    ("none".into(), 0)
                } else {
                    ("tripping".into(), 1)
                }
            }
            Sampler::ShardSkew { prev_queries } => {
                // Shards are enumerated from the published per-shard byte
                // gauges; a run that never publishes them (single-shard
                // serve, unit tests) samples as "idle" on every tick.
                let mut shards: Vec<u32> = reg
                    .gauges_snapshot()
                    .iter()
                    .filter(|(id, _)| id.name() == "spate.shard.bytes")
                    .filter_map(|(id, _)| {
                        id.labels()
                            .iter()
                            .find(|(k, _)| k == "shard")
                            .and_then(|(_, v)| v.parse().ok())
                    })
                    .collect();
                shards.sort_unstable();
                shards.dedup();
                if shards.len() < 2 {
                    return ("idle".into(), 0);
                }
                let shard_label = |i: u32| [("shard".to_string(), i.to_string())];
                let bytes: Vec<u64> = shards
                    .iter()
                    .map(|&i| {
                        let l = shard_label(i);
                        let labels = [(l[0].0.as_str(), l[0].1.as_str())];
                        let gauge = reg.gauge_labeled("spate.shard.bytes", &labels);
                        gauge.get().max(0) as u64
                    })
                    .collect();
                let queries: Vec<u64> = shards
                    .iter()
                    .map(|&i| {
                        let l = shard_label(i);
                        let labels = [(l[0].0.as_str(), l[0].1.as_str())];
                        let cur = reg.counter_labeled("spate.shard.queries", &labels).get();
                        let d = cur.saturating_sub(*prev_queries.get(&i).unwrap_or(&0));
                        prev_queries.insert(i, cur);
                        d
                    })
                    .collect();
                let mut worst = 0.0f64;
                for dim in [&bytes, &queries] {
                    let sum: u64 = dim.iter().sum();
                    if sum == 0 {
                        continue;
                    }
                    let mean = sum as f64 / dim.len() as f64;
                    let max = *dim.iter().max().unwrap() as f64;
                    worst = worst.max(max / mean);
                }
                if worst < 2.0 {
                    ("balanced".into(), 0)
                } else if worst < 3.5 {
                    ("tilted".into(), 1)
                } else {
                    ("hot-spot".into(), 2)
                }
            }
        }
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
    config: MetaConfig,
    ticks: u64,
    streams: Vec<Stream>,
    severities: Vec<std::collections::HashMap<String, u32>>,
    anomalies: VecDeque<AnomalyRecord>,
    total: u64,
    deterministic: u64,
}

impl Default for MetaMonitor {
    fn default() -> Self {
        Self::new(MetaConfig::default())
    }
}

impl MetaMonitor {
    pub fn new(config: MetaConfig) -> Self {
        let streams = vec![
            Stream {
                name: "serve.shed",
                kind: StreamKind::Timing,
                freq: FreqTable::default(),
                sampler: Sampler::Shed {
                    prev_shed: 0,
                    prev_ops: 0,
                },
            },
            Stream {
                name: "dfs.retry",
                kind: StreamKind::Deterministic,
                freq: FreqTable::default(),
                sampler: Sampler::FaultRetry { prev: 0 },
            },
            Stream {
                name: "dfs.corruption",
                kind: StreamKind::Deterministic,
                freq: FreqTable::default(),
                sampler: Sampler::Corruption { prev: 0 },
            },
            Stream {
                name: "serve.errors",
                kind: StreamKind::Deterministic,
                freq: FreqTable::default(),
                sampler: Sampler::Errors { prev: 0 },
            },
            Stream {
                name: "serve.latency",
                kind: StreamKind::Timing,
                freq: FreqTable::default(),
                sampler: Sampler::Latency { prev: Vec::new() },
            },
            Stream {
                name: "serve.cache",
                kind: StreamKind::Timing,
                freq: FreqTable::default(),
                sampler: Sampler::CacheHit {
                    prev_hits: 0,
                    prev_misses: 0,
                },
            },
            // Survivability events are driven purely by the workload (a
            // poison query always panics, a calm run never does), so the
            // stream gates CI like the other deterministic ones.
            Stream {
                name: "serve.survive",
                kind: StreamKind::Deterministic,
                freq: FreqTable::default(),
                sampler: Sampler::Survive { prev: 0 },
            },
            // Whether a Cancel frame or a deadline lands before the
            // request finishes is a race against evaluation: timing.
            Stream {
                name: "serve.interrupt",
                kind: StreamKind::Timing,
                freq: FreqTable::default(),
                sampler: Sampler::Interrupt { prev: 0 },
            },
            // Breaker trips follow the dfs fault plan's op clock; under
            // concurrent workers the interleaving can shift which tick a
            // trip lands on, never whether a calm run stays at "none".
            Stream {
                name: "dfs.breaker",
                kind: StreamKind::Timing,
                freq: FreqTable::default(),
                sampler: Sampler::Breaker { prev: 0 },
            },
            // Per-shard bytes are a pure function of the ingested cells;
            // windowed query counts follow the seeded workload. A skewed
            // layout therefore fires this stream identically on every
            // run: deterministic, CI-gated.
            Stream {
                name: "shard.skew",
                kind: StreamKind::Deterministic,
                freq: FreqTable::default(),
                sampler: Sampler::ShardSkew {
                    prev_queries: Default::default(),
                },
            },
        ];
        let severities = streams.iter().map(|_| Default::default()).collect();
        Self {
            config,
            ticks: 0,
            streams,
            severities,
            anomalies: VecDeque::new(),
            total: 0,
            deterministic: 0,
        }
    }

    pub fn config(&self) -> MetaConfig {
        self.config
    }

    /// Sample every stream once and run θ-rarity detection; returns the
    /// anomalies that fired *this* tick. Also maintains the
    /// `meta.ticks` / `meta.anomalies*` counters in `reg` so the monitor
    /// shows up in its own exports.
    pub fn tick(&mut self, reg: &Registry) -> Vec<AnomalyRecord> {
        self.ticks += 1;
        reg.counter("meta.ticks").inc();
        let mut fired = Vec::new();
        for (stream, severities) in self.streams.iter_mut().zip(&mut self.severities) {
            let (category, severity) = stream.sample(reg);
            severities.insert(category.clone(), severity);
            stream.freq.add(&category);
            if self.ticks < self.config.min_ticks {
                continue;
            }
            let Some((modal, _)) = stream.freq.modal() else {
                continue;
            };
            let modal = modal.to_string();
            let modal_severity = severities.get(&modal).copied().unwrap_or(0);
            let is_rare = stream
                .freq
                .rare_values(self.config.theta)
                .iter()
                .any(|(v, _, _)| *v == category);
            if is_rare && severity > modal_severity {
                let record = AnomalyRecord {
                    tick: self.ticks,
                    stream: stream.name,
                    category: category.clone(),
                    share: stream.freq.share(&category),
                    modal,
                    kind: stream.kind,
                };
                reg.counter("meta.anomalies").inc();
                self.total += 1;
                if stream.kind == StreamKind::Deterministic {
                    reg.counter("meta.anomalies.deterministic").inc();
                    self.deterministic += 1;
                }
                fired.push(record.clone());
                self.anomalies.push_back(record);
                while self.anomalies.len() > self.config.history {
                    self.anomalies.pop_front();
                }
            }
        }
        fired
    }

    pub fn summary(&self) -> MetaSummary {
        MetaSummary {
            ticks: self.ticks,
            anomalies_total: self.total,
            anomalies_deterministic: self.deterministic,
        }
    }

    /// Retained anomaly records, oldest first (bounded by
    /// [`MetaConfig::history`]).
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
        let fired = m.tick(&reg);
        let retry: Vec<_> = fired.iter().filter(|a| a.stream == "dfs.retry").collect();
        assert_eq!(retry.len(), 1, "{fired:?}");
        assert_eq!(retry[0].category, "burst");
        assert_eq!(retry[0].modal, "none");
        assert_eq!(retry[0].kind, StreamKind::Deterministic);
        assert!(retry[0].share < m.config().theta);
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
        let fired = m.tick(&reg);
        let streams: Vec<&str> = fired.iter().map(|a| a.stream).collect();
        assert!(streams.contains(&"dfs.corruption"), "{fired:?}");
        assert!(streams.contains(&"serve.errors"), "{fired:?}");
    }

    #[test]
    fn shed_storm_fires_as_timing_advisory() {
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        calm_ticks(&mut m, &reg, 8);
        // Storm: sheds dominate the window.
        reg.counter("serve.queue.shed").add(50);
        reg.counter("serve.queries").add(5);
        let fired = m.tick(&reg);
        let shed: Vec<_> = fired.iter().filter(|a| a.stream == "serve.shed").collect();
        assert_eq!(shed.len(), 1, "{fired:?}");
        assert_eq!(shed[0].category, "storm");
        assert_eq!(shed[0].kind, StreamKind::Timing);
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
        let fired = m.tick(&reg);
        let lat: Vec<_> = fired
            .iter()
            .filter(|a| a.stream == "serve.latency")
            .collect();
        assert_eq!(lat.len(), 1, "{fired:?}");
        assert!(lat[0].category.starts_with("p99~4^"), "{:?}", lat[0]);
    }

    fn publish_shard(reg: &Registry, shard: u32, bytes: i64, queries: u64) {
        let s = shard.to_string();
        reg.gauge_labeled("spate.shard.bytes", &[("shard", &s)])
            .set(bytes);
        reg.counter_labeled("spate.shard.queries", &[("shard", &s)])
            .add(queries);
    }

    #[test]
    fn shard_skew_is_idle_without_published_shards_and_silent_when_balanced() {
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        // No shard gauges at all: idle, never fires.
        calm_ticks(&mut m, &reg, 6);
        // Balanced 4-shard layout: every tick stays "balanced".
        for _ in 0..8 {
            for s in 0..4 {
                publish_shard(&reg, s, 1_000, 25);
            }
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
            for s in 0..4 {
                publish_shard(&reg, s, 1_000, 25);
            }
            assert!(m.tick(&reg).iter().all(|a| a.stream != "shard.skew"));
        }
        // One shard takes all the new queries this window: max/mean = 4.
        publish_shard(&reg, 0, 1_000, 400);
        for s in 1..4 {
            publish_shard(&reg, s, 1_000, 0);
        }
        let fired = m.tick(&reg);
        let skew: Vec<_> = fired.iter().filter(|a| a.stream == "shard.skew").collect();
        assert_eq!(skew.len(), 1, "{fired:?}");
        assert_eq!(skew[0].category, "hot-spot");
        assert_eq!(skew[0].modal, "balanced");
        assert_eq!(skew[0].kind, StreamKind::Deterministic);
        assert_eq!(m.summary().anomalies_deterministic, 1);
    }

    #[test]
    fn shard_byte_imbalance_alone_fires() {
        let reg = Registry::new();
        let mut m = MetaMonitor::default();
        for _ in 0..8 {
            for s in 0..4 {
                publish_shard(&reg, s, 1_000, 10);
            }
            m.tick(&reg);
        }
        // One shard now holds ~64x the bytes of the others
        // (max/mean = 64000/16750 ≈ 3.8, past the hot-spot threshold).
        publish_shard(&reg, 0, 64_000, 10);
        for s in 1..4 {
            publish_shard(&reg, s, 1_000, 10);
        }
        let fired = m.tick(&reg);
        let skew: Vec<_> = fired.iter().filter(|a| a.stream == "shard.skew").collect();
        assert_eq!(skew.len(), 1, "{fired:?}");
        assert_eq!(skew[0].category, "hot-spot");
    }

    #[test]
    fn detection_is_armed_only_after_min_ticks() {
        let reg = Registry::new();
        let mut m = MetaMonitor::new(MetaConfig {
            min_ticks: 4,
            ..MetaConfig::default()
        });
        // A burst on the very first tick is "normal" — no history says
        // otherwise yet.
        reg.counter("dfs.retry.attempts").add(100);
        assert!(m.tick(&reg).is_empty());
        assert_eq!(m.summary().anomalies_total, 0);
    }

    #[test]
    fn history_is_bounded() {
        let reg = Registry::new();
        let mut m = MetaMonitor::new(MetaConfig {
            history: 3,
            ..MetaConfig::default()
        });
        calm_ticks(&mut m, &reg, 8);
        for _ in 0..6 {
            // Alternate bursts so the category stays rare-ish... simply
            // drive distinct deterministic streams repeatedly.
            reg.counter("dfs.fault.checksum_mismatches").add(1);
            reg.counter("serve.request_errors").add(1);
            reg.counter("dfs.retry.attempts").add(20);
            m.tick(&reg);
        }
        assert!(m.recent().len() <= 3);
    }
}
