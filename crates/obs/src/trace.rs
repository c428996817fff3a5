//! Per-request traces.
//!
//! A **trace** is one request's record of what it did: a trace id and
//! the [`SpanEvent`]s every thread working for the request files into one
//! shared log. [`begin`] installs a fresh trace in the current thread's
//! request context ([`crate::context`]); while it is installed, every
//! [`crate::span()`] opened on the thread also files a span event when it
//! closes — parented under the enclosing traced span — and [`event`]
//! files instant annotations. [`TraceGuard::finish`] returns the events,
//! the way [`crate::cost::CostGuard::finish`] returns the cost profile:
//! a trace is kept by whoever began it (serve settles it in its request
//! table beside the profile) and by nothing process-wide.
//! With no trace installed all of this is a no-op, so library code in
//! `core`/`dfs` stays unconditionally instrumented while non-request work
//! (ingest, benchmarks) pays nothing.
//!
//! Span ids are allocated sequentially per trace starting at 1. A request
//! runs on one worker thread, so allocation order equals start order and
//! the reconstructed tree shape is deterministic for a deterministic
//! workload. A helper thread that enters the request's context
//! ([`crate::context`]) draws from the same allocator and files into the
//! same log: ids stay unique within the trace, while their order between
//! the two threads follows the interleaving.

use crate::context::{self, Field, Guard};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What a recorded event represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A timed region (has a meaningful `dur_ns`).
    Span,
    /// A point-in-time annotation (`dur_ns == 0`).
    Instant,
}

/// One recorded span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// The request-scoped trace this event belongs to.
    pub trace_id: u64,
    /// Id unique within the trace, allocated when the span opens or the
    /// instant is filed.
    pub span_id: u64,
    /// Enclosing span's id, or 0 for roots.
    pub parent_id: u64,
    /// Stage label (`"serve.request"`, `"dfs.read"`, ...).
    pub name: String,
    /// Start, nanoseconds since the process trace epoch ([`now_ns`]).
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    pub kind: EventKind,
    /// Structured annotations (`("class", "interactive")`, ...).
    pub args: Vec<(String, String)>,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process trace epoch (first call wins). All
/// trace timestamps share this origin so events from different threads
/// order correctly on one timeline.
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The events one trace keeps at most: span ids 1 to `MAX_EVENTS`. A
/// parent opens before its children, so every kept event's parent is
/// kept. This bounds a trace's memory and its serve `Trace` frame.
pub const MAX_EVENTS: u64 = 16_384;

/// What every thread working for one trace shares.
struct Log {
    next_span_id: AtomicU64,
    events: Mutex<Vec<SpanEvent>>,
}

/// An installed trace: its id, and the log every thread working for the
/// request files into.
#[derive(Clone)]
pub(crate) struct ActiveTrace {
    pub(crate) trace_id: u64,
    log: Arc<Log>,
}

impl ActiveTrace {
    /// A new span id of this trace. The counter publishes nothing else,
    /// hence `Relaxed`.
    pub(crate) fn alloc_span_id(&self) -> u64 {
        self.log.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    /// File one event of this trace, unless it is past [`MAX_EVENTS`].
    pub(crate) fn record(&self, event: SpanEvent) {
        if event.span_id <= MAX_EVENTS {
            self.log.events.lock().push(event);
        }
    }

    /// Whether `other` is this same trace.
    pub(crate) fn is(&self, other: &ActiveTrace) -> bool {
        Arc::ptr_eq(&self.log, &other.log)
    }
}

/// The trace [`begin`] installed. Dropping it puts back the thread's
/// previous trace (usually none) and discards the events;
/// [`TraceGuard::finish`] does the same but returns them.
#[must_use = "dropping the guard immediately ends the trace"]
pub struct TraceGuard {
    trace: ActiveTrace,
    _installed: Guard,
}

impl TraceGuard {
    /// End the trace: restore the previous one and return every event
    /// filed so far, by any thread, in span-id order. Past [`MAX_EVENTS`]
    /// a root instant `trace.dropped` ends them, counting the ids drawn
    /// past the cap in its `events` arg.
    pub fn finish(self) -> Vec<SpanEvent> {
        let TraceGuard { trace, _installed } = self;
        drop(_installed);
        let mut events = std::mem::take(&mut *trace.log.events.lock());
        events.sort_by_key(|e| e.span_id);
        let span_id = trace.alloc_span_id();
        if span_id > MAX_EVENTS + 1 {
            let dropped = (span_id - 1 - MAX_EVENTS).to_string();
            events.push(SpanEvent {
                trace_id: trace.trace_id,
                span_id,
                parent_id: 0,
                name: "trace.dropped".to_string(),
                start_ns: now_ns(),
                dur_ns: 0,
                kind: EventKind::Instant,
                args: vec![("events".to_string(), dropped)],
            });
        }
        events
    }
}

/// Install a fresh trace `trace_id` as this thread's active trace until
/// the returned guard is finished or dropped.
pub fn begin(trace_id: u64) -> TraceGuard {
    let trace = ActiveTrace {
        trace_id,
        log: Arc::new(Log {
            next_span_id: AtomicU64::new(1),
            events: Mutex::default(),
        }),
    };
    TraceGuard {
        _installed: context::set(Field::Trace(Some(trace.clone()))),
        trace,
    }
}

/// The active trace id on this thread, if any.
pub fn current() -> Option<u64> {
    context::with(|r| r.trace.as_ref().map(|t| t.trace_id))
}

/// File an event into the active trace, if any. One measured elsewhere
/// (`at`: its start and duration) hangs at the root; one happening now
/// hangs under the innermost open span.
fn file(name: &str, kind: EventKind, at: Option<(u64, u64)>, args: &[(&str, &str)]) {
    context::with(|r| {
        let Some(trace) = r.trace.as_ref() else {
            return;
        };
        let (parent_id, start_ns, dur_ns) = match at {
            Some((start_ns, dur_ns)) => (0, start_ns, dur_ns),
            None => (crate::span::parent_id(&r.spans, trace), now_ns(), 0),
        };
        trace.record(SpanEvent {
            trace_id: trace.trace_id,
            span_id: trace.alloc_span_id(),
            parent_id,
            name: name.to_string(),
            start_ns,
            dur_ns,
            kind,
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    });
}

/// Record an instant annotation into the active trace, parented under the
/// innermost open span. No-op without an active trace.
pub fn event(name: &str, args: &[(&str, &str)]) {
    file(name, EventKind::Instant, None, args);
}

/// Record an already-measured timed region (e.g. queue wait measured by
/// timestamps, not a guard) into the active trace as a root-level span.
pub fn span_event(name: &str, start_ns: u64, dur_ns: u64, args: &[(&str, &str)]) {
    file(name, EventKind::Span, Some((start_ns, dur_ns)), args);
}

/// Record an instant that happened at `at_ns` ([`now_ns`]) into the
/// active trace as a root-level event: something decided about the
/// request as a whole, such as its admission, rather than inside a span.
pub fn instant_event(name: &str, at_ns: u64, args: &[(&str, &str)]) {
    file(name, EventKind::Instant, Some((at_ns, 0)), args);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_events_record_into_the_active_trace() {
        let trace_id = 0xF00D_0001;
        let trace = begin(trace_id);
        assert_eq!(current(), Some(trace_id));
        {
            let _outer = crate::span("test.trace.outer");
            event("test.trace.mark", &[("k", "v")]);
            {
                let _inner = crate::span("test.trace.inner");
            }
        }
        let events = trace.finish();
        assert_eq!(current(), None);
        assert_eq!(events.len(), 3, "{events:?}");
        assert!(events.iter().all(|e| e.trace_id == trace_id));
        // Allocation order: outer=1, mark=2, inner=3; closes record later
        // but span ids order the tree.
        assert_eq!(events[0].name, "test.trace.outer");
        assert_eq!(events[0].parent_id, 0);
        assert_eq!(events[1].name, "test.trace.mark");
        assert_eq!(events[1].kind, EventKind::Instant);
        assert_eq!(events[1].parent_id, events[0].span_id);
        assert_eq!(events[1].args, vec![("k".to_string(), "v".to_string())]);
        assert_eq!(events[2].name, "test.trace.inner");
        assert_eq!(events[2].parent_id, events[0].span_id);
    }

    #[test]
    fn no_trace_means_no_events() {
        // Spans and events before the trace began stay outside it; a span
        // opened under it is a root of it.
        let _s = crate::span("test.trace.untraced");
        event("test.trace.ignored", &[]);
        span_event("test.trace.ignored", 0, 1, &[]);
        let trace = begin(7);
        drop(crate::span("test.trace.traced"));
        let events = trace.finish();
        assert!(events
            .iter()
            .all(|e| e.name != "test.trace.untraced" && e.name != "test.trace.ignored"));
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!((events[0].span_id, events[0].parent_id), (1, 0));
    }

    #[test]
    fn root_events_hang_at_the_root_at_their_own_time() {
        let trace = begin(9);
        let _open = crate::span("test.trace.open");
        instant_event("test.trace.decided", 5, &[("why", "test")]);
        span_event("test.trace.waited", 5, 10, &[]);
        drop(_open);
        let events = trace.finish();
        let names: Vec<_> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            ["test.trace.open", "test.trace.decided", "test.trace.waited"]
        );
        assert!(events.iter().all(|e| e.parent_id == 0));
        assert_eq!(
            (events[1].kind, events[1].start_ns),
            (EventKind::Instant, 5)
        );
        assert_eq!((events[2].kind, events[2].dur_ns), (EventKind::Span, 10));
    }

    #[test]
    fn a_trace_past_the_cap_keeps_its_first_events_and_counts_the_rest() {
        let trace = begin(11);
        let outer = crate::span("test.trace.outer");
        for _ in 0..MAX_EVENTS + 99 {
            event("test.trace.mark", &[]);
        }
        drop(outer);
        let events = trace.finish();
        // The outer span (id 1) closed last, past the cap, and is kept.
        assert_eq!(events.len() as u64, MAX_EVENTS + 1);
        assert_eq!(
            (events[0].name.as_str(), events[0].span_id),
            ("test.trace.outer", 1)
        );
        assert!(events[1..MAX_EVENTS as usize]
            .iter()
            .all(|e| e.name == "test.trace.mark" && e.parent_id == 1));
        let last = events.last().unwrap();
        assert_eq!(
            (last.name.as_str(), last.kind),
            ("trace.dropped", EventKind::Instant)
        );
        assert_eq!((last.trace_id, last.parent_id), (11, 0));
        assert_eq!(last.span_id, MAX_EVENTS + 101);
        assert_eq!(last.args, [("events".to_string(), "100".to_string())]);
    }

    #[test]
    fn nested_begin_restores_the_outer_context() {
        let a = begin(1);
        let outer = crate::span("test.trace.outer_span");
        {
            let b = begin(2);
            assert_eq!(current(), Some(2));
            drop(crate::span("test.trace.inner_trace"));
            event("test.trace.inner_mark", &[]);
            let inner = b.finish();
            // The outer trace's open span is no parent in the inner one.
            let ids: Vec<_> = inner.iter().map(|e| (e.span_id, e.parent_id)).collect();
            assert_eq!(ids, [(1, 0), (2, 0)]);
        }
        assert_eq!(current(), Some(1));
        drop(outer);
        let outer = a.finish();
        assert_eq!(outer.len(), 1, "the inner trace kept its events");
        assert_eq!(outer[0].name, "test.trace.outer_span");
        assert_eq!(current(), None);
    }
}
