//! Per-request trace propagation.
//!
//! A **trace context** is a trace id plus a per-trace span-id allocator,
//! installed in the current thread's request context ([`crate::context`])
//! for the duration of one request by [`begin`]. While a context is
//! active, every [`crate::span()`] opened on the thread additionally records
//! a [`crate::flight::SpanEvent`] into the global flight recorder when it
//! closes — parented under the enclosing span — and [`event`] drops
//! instant annotations into the same trace.
//! With no context installed all of this is a no-op, so library code in
//! `core`/`dfs` stays unconditionally instrumented while non-request work
//! (ingest, benchmarks) pays nothing.
//!
//! Span ids are allocated sequentially per trace starting at 1. A request
//! runs on one worker thread, so allocation order equals start order and
//! the reconstructed tree shape is deterministic for a deterministic
//! workload. A helper thread that enters the request's context
//! ([`crate::context`]) draws from the same allocator: ids stay unique
//! within the trace, while their order between the two threads follows
//! the interleaving.

use crate::context::{self, Field, Guard};
use crate::flight::{EventKind, SpanEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A trace context: the id, and the span-id allocator every thread
/// working for the request shares.
#[derive(Clone)]
pub(crate) struct ActiveTrace {
    trace_id: u64,
    next_span_id: Arc<AtomicU64>,
}

impl ActiveTrace {
    /// `(trace_id, span_id)` of a new span of this trace. The counter
    /// publishes nothing else, hence `Relaxed`.
    pub(crate) fn alloc_span_id(&self) -> (u64, u64) {
        let span_id = self.next_span_id.fetch_add(1, Ordering::Relaxed);
        (self.trace_id, span_id)
    }
}

/// Install `trace_id` as this thread's active trace context. The returned
/// guard restores the previous context (usually none) when dropped; spans
/// and [`event`]s in between are recorded into the flight recorder.
pub fn begin(trace_id: u64) -> Guard {
    context::set(Field::Trace(Some(ActiveTrace {
        trace_id,
        next_span_id: Arc::new(AtomicU64::new(1)),
    })))
}

/// The active trace id on this thread, if any.
pub fn current() -> Option<u64> {
    context::with(|r| r.trace.as_ref().map(|t| t.trace_id))
}

fn owned_args(args: &[(&str, &str)]) -> Vec<(String, String)> {
    args.iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Record an instant annotation into the active trace, parented under the
/// innermost open span. No-op without an active context.
pub fn event(name: &str, args: &[(&str, &str)]) {
    let ids = context::with(|r| {
        let (trace_id, span_id) = r.trace.as_ref()?.alloc_span_id();
        Some((trace_id, span_id, crate::span::parent_id(&r.spans)))
    });
    let Some((trace_id, span_id, parent_id)) = ids else {
        return;
    };
    crate::flight().record(SpanEvent {
        trace_id,
        span_id,
        parent_id,
        name: name.to_string(),
        start_ns: crate::flight::now_ns(),
        dur_ns: 0,
        kind: EventKind::Instant,
        args: owned_args(args),
    });
}

/// Record an already-measured timed region (e.g. queue wait measured by
/// timestamps, not a guard) into the active trace as a root-level span.
pub fn span_event(name: &str, start_ns: u64, dur_ns: u64, args: &[(&str, &str)]) {
    let ids = context::with(|r| r.trace.as_ref().map(ActiveTrace::alloc_span_id));
    let Some((trace_id, span_id)) = ids else {
        return;
    };
    crate::flight().record(SpanEvent {
        trace_id,
        span_id,
        parent_id: 0,
        name: name.to_string(),
        start_ns,
        dur_ns,
        kind: EventKind::Span,
        args: owned_args(args),
    });
}

/// Record an instant for an explicit trace id, from any thread, without
/// installing a context — used where the request is *known* but not yet
/// (or no longer) running, e.g. at admission on the connection's intake. The
/// event carries span id 0 (not part of the per-trace allocation).
pub fn instant_for(trace_id: u64, name: &str, args: &[(&str, &str)]) {
    crate::flight().record(SpanEvent {
        trace_id,
        span_id: 0,
        parent_id: 0,
        name: name.to_string(),
        start_ns: crate::flight::now_ns(),
        dur_ns: 0,
        kind: EventKind::Instant,
        args: owned_args(args),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::EventKind;

    #[test]
    fn spans_and_events_record_into_the_active_trace() {
        let _no_reset = crate::globals_stay();
        let trace_id = 0xF00D_0001;
        {
            let _t = begin(trace_id);
            assert_eq!(current(), Some(trace_id));
            let _outer = crate::span("test.trace.outer");
            event("test.trace.mark", &[("k", "v")]);
            {
                let _inner = crate::span("test.trace.inner");
            }
        }
        assert_eq!(current(), None);
        let events = crate::flight().trace(trace_id);
        assert_eq!(events.len(), 3, "{events:?}");
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
    fn no_context_means_no_flight_events() {
        // Other tests share the global recorder, so assert by name, not
        // by count.
        {
            let _s = crate::span("test.trace.untraced");
            event("test.trace.ignored", &[]);
        }
        assert!(crate::flight()
            .dump()
            .iter()
            .all(|e| e.name != "test.trace.untraced" && e.name != "test.trace.ignored"));
    }

    #[test]
    fn nested_begin_restores_the_outer_context() {
        let _a = begin(1);
        {
            let _b = begin(2);
            assert_eq!(current(), Some(2));
        }
        assert_eq!(current(), Some(1));
    }
}
