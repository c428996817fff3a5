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
//! nested scopes); interleaved lifetimes would swap attribution.

use crate::metrics::Histogram;
use std::cell::RefCell;
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

struct Frame {
    path: String,
    child_ns: u64,
    /// Flight-recorder identity, present while a trace context is active
    /// (see [`crate::trace`]); closing the span then also records a
    /// [`crate::flight::SpanEvent`].
    trace: Option<TraceSpan>,
}

#[derive(Clone, Copy)]
struct TraceSpan {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    start_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// The innermost open span that belongs to a trace, as
/// `(trace_id, span_id)` — the parent for instant events.
pub(crate) fn current_trace_span() -> Option<(u64, u64)> {
    STACK.with(|stack| {
        stack
            .borrow()
            .iter()
            .rev()
            .find_map(|f| f.trace.map(|t| (t.trace_id, t.span_id)))
    })
}

/// Where a span opened now would hang: the innermost open span's path
/// and the innermost traced span. See [`crate::context`].
#[derive(Clone)]
pub(crate) struct Parent {
    path: String,
    trace: Option<TraceSpan>,
}

/// This thread's [`Parent`], `None` outside every span.
pub(crate) fn capture() -> Option<Parent> {
    STACK.with_borrow(|stack| {
        let path = stack.last()?.path.clone();
        let trace = stack.iter().rev().find_map(|f| f.trace);
        Some(Parent { path, trace })
    })
}

/// Open a frame standing for `parent` on this thread, so that spans
/// opened until the guard drops nest under it. The frame itself is never
/// recorded: its span belongs to the thread that captured it.
pub(crate) fn enter(parent: Parent) -> ParentGuard {
    STACK.with_borrow_mut(|stack| {
        stack.push(Frame {
            path: parent.path,
            child_ns: 0,
            trace: parent.trace,
        })
    });
    ParentGuard
}

/// Guard of an entered [`Parent`]; see [`enter`].
pub(crate) struct ParentGuard;

impl Drop for ParentGuard {
    fn drop(&mut self) {
        STACK.with_borrow_mut(|stack| stack.pop());
    }
}

/// Open a span named `name` nested under this thread's innermost open
/// span. Closes (and records) when the guard drops.
pub fn span(name: &str) -> SpanGuard {
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{};{}", parent.path, name),
            None => name.to_string(),
        };
        // Under an active trace context the span also gets a flight
        // recorder identity, parented under the innermost traced frame
        // (frames opened before the context began stay outside the trace).
        let trace = crate::trace::alloc_span_id().map(|(trace_id, span_id)| TraceSpan {
            trace_id,
            span_id,
            parent_id: stack
                .iter()
                .rev()
                .find_map(|f| f.trace.map(|t| t.span_id))
                .unwrap_or(0),
            start_ns: crate::flight::now_ns(),
        });
        stack.push(Frame {
            path,
            child_ns: 0,
            trace,
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
        let frame = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack.pop().expect("span stack underflow");
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += ns;
            }
            frame
        });
        let stats = crate::global().span_stats(&frame.path);
        stats.calls.fetch_add(1, Ordering::Relaxed);
        stats.total_ns.fetch_add(ns, Ordering::Relaxed);
        stats
            .self_ns
            .fetch_add(ns.saturating_sub(frame.child_ns), Ordering::Relaxed);
        stats.durations.record(ns);
        if let Some(t) = frame.trace {
            let name = frame.path.rsplit(';').next().unwrap_or(&frame.path);
            // A span closed inside a shard scope carries the shard as an
            // event arg, so per-shard child trees are reconstructible from
            // the flight recorder alone.
            let args = match crate::shard::current() {
                Some(i) => vec![("shard".to_string(), i.to_string())],
                None => Vec::new(),
            };
            crate::flight().record(crate::flight::SpanEvent {
                trace_id: t.trace_id,
                span_id: t.span_id,
                parent_id: t.parent_id,
                name: name.to_string(),
                start_ns: t.start_ns,
                dur_ns: ns,
                kind: crate::flight::EventKind::Span,
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
}
