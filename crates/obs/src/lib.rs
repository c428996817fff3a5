//! `obs` — workspace-wide observability for the SPATE reproduction.
//!
//! Every reported number of the paper (Table I codec timings, Fig. 7/9
//! ingestion, Fig. 11/12 task response times) flows through hot paths
//! spread over seven crates. This crate is the shared substrate that
//! answers "where did the time go": a global, thread-safe **metric
//! registry** (named counters, gauges and log-bucketed histograms), a
//! lightweight **span API** (RAII guards forming a parent/child tree per
//! thread, separating self-time from child time), and **exporters** (a
//! sorted flame table, JSON, and Chrome `trace_event` JSON).
//!
//! What a thread knows about the request it works for — its trace, open
//! spans, shard, budget and cost profile — is one thread-local owned by
//! [`context`], which also carries it to a helper thread.
//!
//! [`bytes`] is the one checked byte layer: every format the workspace
//! reads back (index image, CAS manifest and pack, recorder image, serve
//! frames, codec headers) writes and reads through it. It lives here
//! because every crate that owns such a format already depends on `obs`.
//!
//! Metric names follow the `crate.component.event` convention, e.g.
//! `dfs.read.bytes` or `codecs.gzip-lite.compress.bytes_in`. Span *names*
//! are stage labels (`"compress"`, `"dfs.write"`); span *paths* are the
//! `;`-joined nesting chain (`"spate.ingest;compress"`).
//!
//! # Example
//!
//! ```
//! {
//!     let _ingest = obs::span("spate.ingest");
//!     {
//!         let _c = obs::span("compress");
//!         obs::add("codecs.gzip-lite.compress.bytes_in", 1024);
//!     } // compress closes: its time is the child time of spate.ingest
//! }
//! let table = obs::export::flame_table(obs::global());
//! assert!(table.contains("spate.ingest"));
//! ```

#![deny(unsafe_code)]

pub mod budget;
pub mod bytes;
pub mod context;
pub mod cost;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod registry;
pub mod shard;
pub mod slo;
pub mod span;
pub mod tally;
pub mod trace;

pub use budget::{CancelFlag, Interrupt};
pub use cost::CostProfile;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use recorder::{Recorder, RecorderConfig};
pub use registry::{MetricId, Registry};
pub use slo::SloTracker;
pub use span::{span, stage, SpanGuard, SpanStats};
pub use tally::Tally;
pub use trace::{EventKind, SpanEvent, TraceGuard};

use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry every instrumented crate records into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Get-or-create a named counter in the global registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Add `delta` to the named global counter.
pub fn add(name: &str, delta: u64) {
    global().counter(name).add(delta);
}

/// Get-or-create a labeled counter series in the global registry.
pub fn counter_labeled(name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
    global().counter_labeled(name, labels)
}

/// Add `delta` to the named labeled global counter.
pub fn add_labeled(name: &str, labels: &[(&str, &str)], delta: u64) {
    global().counter_labeled(name, labels).add(delta);
}

/// Increment the named global counter by one.
pub fn inc(name: &str) {
    add(name, 1);
}

/// The guard `locked` holds, recovered if a holder of the lock panicked,
/// each recovery counted under the global counter `counter`. For state
/// that is updated in single small steps, so that it is still coherent
/// under a poisoned lock: a panic in one user must not take every later
/// user of the lock down with it.
pub fn unpoisoned<G>(locked: std::sync::LockResult<G>, counter: &str) -> G {
    locked.unwrap_or_else(|poisoned| {
        inc(counter);
        poisoned.into_inner()
    })
}

/// Get-or-create a named gauge in the global registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Set the named global gauge.
pub fn gauge_set(name: &str, value: i64) {
    global().gauge(name).set(value);
}

/// Get-or-create a labeled gauge series in the global registry.
pub fn gauge_labeled(name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
    global().gauge_labeled(name, labels)
}

/// Set the named labeled global gauge.
pub fn gauge_set_labeled(name: &str, labels: &[(&str, &str)], value: i64) {
    global().gauge_labeled(name, labels).set(value);
}

/// Get-or-create a named histogram in the global registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Record one observation into the named global histogram.
pub fn observe(name: &str, value: u64) {
    global().histogram(name).record(value);
}

/// Get-or-create a labeled histogram series in the global registry. Hot
/// paths should resolve the `Arc` once and reuse it.
pub fn histogram_labeled(name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
    global().histogram_labeled(name, labels)
}

/// Record one observation into the named labeled global histogram.
pub fn observe_labeled(name: &str, labels: &[(&str, &str)], value: u64) {
    global().histogram_labeled(name, labels).record(value);
}

/// Clear the global registry, the telemetry recorder and the SLO tracker
/// (measurement boundary between experiments). A request's trace is no
/// global: it belongs to whoever began it ([`trace::TraceGuard::finish`]),
/// so a reset leaves every trace, finished or not, as it is.
///
/// # Concurrency semantics
///
/// `reset` is safe to call while other threads record: it only swaps the
/// registry's maps empty under their write locks, never blocking on or
/// touching the metric atomics themselves. Racing recorders fall into
/// exactly one of two outcomes, both benign:
///
/// * a recorder that already resolved its `Arc` keeps incrementing the
///   now-detached metric — the update is lost from future exports but
///   never panics, deadlocks or corrupts;
/// * a recorder that resolves *after* the clear re-interns a fresh metric
///   that starts from zero.
///
/// Open spans behave the same way: a span closing after a reset re-interns
/// its path and records into the fresh `SpanStats`. The boundary is
/// therefore *eventually clean* rather than instantaneous — callers that
/// need an exact cut (benchmark harnesses) should quiesce workers first,
/// which is what `repro` does between experiments.
pub fn reset() {
    global().reset();
    recorder::global().reset();
    slo::global().reset();
}

/// The process-global registry is shared by every unit test of this
/// crate, and one of them — the reset race below — clears it 200 times.
/// It holds this lock for writing; a test that asserts what the globals
/// *contain* holds it for reading, so the two never overlap and the race
/// keeps its full strength.
#[cfg(test)]
static GLOBALS: std::sync::RwLock<()> = std::sync::RwLock::new(());

/// Held by a test for as long as no `reset()` may clear the globals.
#[cfg(test)]
pub(crate) fn globals_stay() -> std::sync::RwLockReadGuard<'static, ()> {
    GLOBALS.read().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    /// Satellite of the documented [`crate::reset`] contract: reset racing
    /// with recorders (counter `inc`, histogram `observe`, labeled
    /// observes, spans opening/closing, shard scopes, SLO records, and
    /// telemetry-recorder samples) must never panic or deadlock, and the
    /// registry must stay usable afterwards. Run on an independent
    /// [`crate::Registry`] where possible plus the global helpers, since
    /// the global registry is what serve workers actually share.
    #[test]
    fn reset_racing_with_recorders_is_safe() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let _alone = super::GLOBALS.write().unwrap_or_else(|e| e.into_inner());
        let stop = AtomicBool::new(false);
        let local = crate::Registry::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let local = &local;
                let stop = &stop;
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        super::inc("test.reset.race.counter");
                        super::observe("test.reset.race.hist", i);
                        super::observe_labeled(
                            "test.reset.race.lat",
                            &[("class", if t % 2 == 0 { "a" } else { "b" })],
                            i,
                        );
                        local.counter("c").inc();
                        local.histogram_labeled("h", &[("t", "x")]).record(i);
                        {
                            let _outer = super::span("test.reset.race.outer");
                            let _inner = super::span("inner");
                        }
                        {
                            let _scope = super::shard::enter(t as u32);
                            super::shard::add_sharded("test.reset.race.sharded", 1);
                        }
                        super::slo::global().record(i % 1000);
                        if i.is_multiple_of(16) {
                            super::recorder::global().sample(super::global());
                        }
                        i += 1;
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..200 {
                    super::reset();
                    local.reset();
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Relaxed);
            });
        });
        // Still usable: fresh metrics start clean and record.
        local.reset();
        local.counter("after").add(3);
        assert_eq!(local.counter("after").get(), 3);
        super::inc("test.reset.race.after");
        assert!(super::counter("test.reset.race.after").get() >= 1);
        // The reset thread observed a clean boundary for the new state
        // too: after one final reset everything reads empty.
        super::reset();
        assert_eq!(super::slo::global().total(), 0);
        assert_eq!(super::recorder::global().window_count(), 0);
    }

    #[test]
    fn module_level_helpers_hit_the_global_registry() {
        let _no_reset = super::globals_stay();
        super::add("test.lib.counter", 7);
        super::inc("test.lib.counter");
        assert_eq!(super::counter("test.lib.counter").get(), 8);
        super::gauge_set("test.lib.gauge", -4);
        assert_eq!(super::gauge("test.lib.gauge").get(), -4);
        super::observe("test.lib.hist", 123);
        assert_eq!(super::histogram("test.lib.hist").count(), 1);
    }
}
