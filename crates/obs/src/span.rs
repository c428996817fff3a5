//! RAII tracing spans with thread-local parent/child nesting.
//!
//! [`span`] opens a timed region; dropping the returned guard (or calling
//! [`SpanGuard::finish_secs`]) closes it and records the elapsed time into
//! the global registry under the span's *path* — the `;`-joined chain of
//! enclosing span names on this thread, flamegraph folded-stack style. A
//! child's elapsed time is subtracted from the parent's *self* time, so
//! the flame table can separate "time spent here" from "time spent in
//! callees".
//!
//! Guards must close in LIFO order on their thread (the natural order of
//! nested scopes); interleaved lifetimes would swap attribution. The open
//! spans are part of the thread's request context ([`crate::context`]).

use crate::metrics::Histogram;
use crate::trace::{ActiveTrace, EventKind, SpanEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Aggregated statistics of one span path.
#[derive(Debug, Default)]
pub struct SpanStats {
    pub calls: AtomicU64,
    /// Total wall time inside the span, nanoseconds.
    pub total_ns: AtomicU64,
    /// Total minus time attributed to child spans, nanoseconds.
    pub self_ns: AtomicU64,
    /// Per-call duration distribution, nanoseconds.
    pub durations: Histogram,
}

/// An open span.
#[derive(Clone)]
pub(crate) struct Frame {
    path: String,
    child_ns: u64,
    /// Trace identity, present while a trace is active (see
    /// [`crate::trace`]); closing the span then also files a
    /// [`crate::SpanEvent`] into that trace.
    trace: Option<TraceSpan>,
    /// Opened by [`stage`]: closing the span also adds its time to the
    /// active cost profile's stage of the span's name.
    stage: bool,
}

impl Frame {
    /// The span's own name: the last element of its path.
    fn name(&self) -> &str {
        self.path.rsplit(';').next().unwrap_or(&self.path)
    }
}

#[derive(Clone)]
struct TraceSpan {
    /// The trace the span opened under, which its event files into.
    trace: ActiveTrace,
    span_id: u64,
    parent_id: u64,
    start_ns: u64,
}

/// The span id a span or instant event of `trace` opened over `stack`
/// now hangs under: the innermost traced frame's, if it belongs to
/// `trace` (frames opened before the trace began, another trace's
/// included, stay outside it), 0 for none.
pub(crate) fn parent_id(stack: &[Frame], trace: &ActiveTrace) -> u64 {
    traced(stack)
        .filter(|t| t.trace.is(trace))
        .map_or(0, |t| t.span_id)
}

fn traced(stack: &[Frame]) -> Option<&TraceSpan> {
    stack.iter().rev().find_map(|f| f.trace.as_ref())
}

/// A frame standing for where a span opened over `stack` now would hang,
/// `None` outside every span: spans a helper thread opens over it nest
/// under the same path and traced span ([`crate::context`]). It is never
/// closed, so never recorded: its span belongs to the capturing thread.
pub(crate) fn parent_frame(stack: &[Frame]) -> Option<Frame> {
    Some(Frame {
        path: stack.last()?.path.clone(),
        child_ns: 0,
        trace: traced(stack).cloned(),
        stage: false,
    })
}

/// Open a span named `name` nested under this thread's innermost open
/// span. Closes (and records) when the guard drops.
pub fn span(name: &str) -> SpanGuard {
    open(name, false)
}

/// Open a span named after a pipeline stage (`"read"`, `"decompress"`,
/// `"parse"`, `"index_probe"`): when it closes, its elapsed time is also
/// added to the active [`crate::CostProfile`]'s `stage_ns[name]`, so the
/// flame table and the cost profile time a stage by one clock.
pub fn stage(name: &str) -> SpanGuard {
    open(name, true)
}

fn open(name: &str, stage: bool) -> SpanGuard {
    crate::context::with(|r| {
        let path = match r.spans.last() {
            Some(parent) => format!("{};{}", parent.path, name),
            None => name.to_string(),
        };
        // Under an active trace the span also gets a trace identity.
        let trace = r.trace.as_ref().map(|t| TraceSpan {
            trace: t.clone(),
            span_id: t.alloc_span_id(),
            parent_id: parent_id(&r.spans, t),
            start_ns: crate::trace::now_ns(),
        });
        r.spans.push(Frame {
            path,
            child_ns: 0,
            trace,
            stage,
        });
    });
    SpanGuard {
        // Started after the bookkeeping so path construction is not billed
        // to the measured region.
        start: Instant::now(),
        open: true,
    }
}

/// Guard of an open span; see [`span`].
#[must_use = "dropping the guard immediately records a ~0ns span"]
pub struct SpanGuard {
    start: Instant,
    open: bool,
}

impl SpanGuard {
    fn close(&mut self) -> f64 {
        // Clock read first: registry bookkeeping below is not measured.
        let elapsed = self.start.elapsed();
        self.open = false;
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let (frame, shard) = crate::context::with(|r| {
            let frame = r.spans.pop().expect("span stack underflow");
            if let Some(parent) = r.spans.last_mut() {
                parent.child_ns += ns;
            }
            if let (true, Some(cost)) = (frame.stage, r.cost.as_mut()) {
                cost.add_stage(frame.name(), ns);
            }
            (frame, r.shard)
        });
        let stats = crate::global().span_stats(&frame.path);
        stats.calls.fetch_add(1, Ordering::Relaxed);
        stats.total_ns.fetch_add(ns, Ordering::Relaxed);
        stats
            .self_ns
            .fetch_add(ns.saturating_sub(frame.child_ns), Ordering::Relaxed);
        stats.durations.record(ns);
        if let Some(t) = &frame.trace {
            // A span closed inside a shard scope carries the shard as an
            // event arg, so per-shard child trees are reconstructible from
            // the trace alone.
            let args = match shard {
                Some(i) => vec![("shard".to_string(), i.to_string())],
                None => Vec::new(),
            };
            t.trace.record(SpanEvent {
                trace_id: t.trace.trace_id,
                span_id: t.span_id,
                parent_id: t.parent_id,
                name: frame.name().to_string(),
                start_ns: t.start_ns,
                dur_ns: ns,
                kind: EventKind::Span,
                args,
            });
        }
        elapsed.as_secs_f64()
    }

    /// Close the span now and return its elapsed seconds, measured by the
    /// same `Instant` the span opened with — a drop-in replacement for the
    /// `let t0 = Instant::now(); ... t0.elapsed().as_secs_f64()` pattern.
    pub fn finish_secs(mut self) -> f64 {
        self.close()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.open {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn paths_nest_and_self_time_excludes_children() {
        let _no_reset = crate::globals_stay();
        {
            let _outer = span("test.span.outer");
            std::thread::sleep(Duration::from_millis(10));
            {
                let _inner = span("child");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        let outer = crate::global().span_stats("test.span.outer");
        let inner = crate::global().span_stats("test.span.outer;child");
        assert_eq!(outer.calls.load(Ordering::Relaxed), 1);
        assert_eq!(inner.calls.load(Ordering::Relaxed), 1);
        let outer_total = outer.total_ns.load(Ordering::Relaxed);
        let outer_self = outer.self_ns.load(Ordering::Relaxed);
        let inner_total = inner.total_ns.load(Ordering::Relaxed);
        assert!(outer_total >= outer_self + inner_total - 1_000);
        assert!(outer_self < outer_total);
        assert!(inner_total >= 19_000_000, "{inner_total}");
    }

    #[test]
    fn finish_secs_matches_the_recorded_total() {
        let _no_reset = crate::globals_stay();
        let g = span("test.span.finish");
        std::thread::sleep(Duration::from_millis(5));
        let secs = g.finish_secs();
        assert!(secs >= 0.004, "{secs}");
        let stats = crate::global().span_stats("test.span.finish");
        let total = stats.total_ns.load(Ordering::Relaxed) as f64 / 1e9;
        assert!((total - secs).abs() < 1e-6);
    }

    #[test]
    fn a_stage_adds_its_span_time_to_the_active_profile() {
        let _no_reset = crate::globals_stay();
        drop(stage("test.span.stage"));
        let cost = crate::cost::begin(1);
        for _ in 0..2 {
            let _outer = span("test.span.staged");
            let _read = stage("read");
            std::thread::sleep(Duration::from_millis(2));
        }
        let profile = cost.finish();
        let read = crate::global().span_stats("test.span.staged;read");
        assert_eq!(read.calls.load(Ordering::Relaxed), 2);
        assert_eq!(
            profile.stage_ns["read"],
            read.total_ns.load(Ordering::Relaxed)
        );
        assert_eq!(profile.stage_ns.len(), 1, "a plain span is no stage");
    }
}
