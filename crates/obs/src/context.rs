//! A thread's request context, and carrying it to a helper thread.
//!
//! One thread-local request struct describes whom a thread is working for:
//! the trace context ([`crate::trace`]), the open spans ([`crate::span`](mod@crate::span):
//! their folded paths and the traced span new ones hang under), the shard
//! ([`crate::shard`]), the budget ([`crate::budget`]), the cost profile
//! ([`crate::cost`]) and the source reads are filed under
//! ([`crate::cost::attribute_reads_to`]). Those modules read and set its
//! fields; each installer returns a [`Guard`] that puts back the one field
//! it set, except [`crate::cost::begin`], whose guard returns the profile,
//! and [`crate::trace::begin`], whose guard returns the trace's events.
//!
//! A thread spawned to do part of the request's work starts with an empty
//! request. [`capture`] it on the request's thread, [`Context::enter`] it
//! on the helper, and hand what the helper collected back with
//! [`Entered::leave`] and [`crate::cost::absorb`]:
//!
//! ```
//! let _s = obs::span("scan");
//! let cost = obs::cost::begin(7);
//! let context = obs::context::capture();
//! let profile = std::thread::scope(|s| {
//!     s.spawn(|| {
//!         let entered = context.enter();
//!         let _read = obs::span("read"); // files under "scan;read"
//!         obs::cost::add_rows(10, 0);
//!         drop(_read);
//!         entered.leave()
//!     })
//!     .join()
//!     .expect("the helper ran")
//! });
//! obs::cost::absorb(&profile.expect("the request collects a profile"));
//! assert_eq!(cost.finish().rows_scanned, 10);
//! ```
//!
//! On the helper, spans nest under the captured path with the captured
//! traced span as their parent and the same shard label, and file into
//! the request's own trace (one log for every thread); the budget is
//! the same deadline and cancel flag; the cost profile is the helper's
//! own, under the same trace id, until it is absorbed. The read source is
//! not carried: it belongs to the store call that set it.

use crate::budget::ActiveBudget;
use crate::cost::Collecting;
use crate::span::Frame;
use crate::trace::ActiveTrace;
use crate::CostProfile;
use std::cell::RefCell;
use std::mem;

/// What a thread knows about the request it is working for.
pub(crate) struct Request {
    pub(crate) trace: Option<ActiveTrace>,
    /// The open spans, innermost last.
    pub(crate) spans: Vec<Frame>,
    pub(crate) shard: Option<u32>,
    pub(crate) budget: Option<ActiveBudget>,
    pub(crate) cost: Option<Collecting>,
    /// The source [`crate::cost::add_bytes_read`] files reads under,
    /// whatever source its caller names.
    pub(crate) source: Option<String>,
}

thread_local! {
    static REQUEST: RefCell<Request> = const {
        RefCell::new(Request {
            trace: None,
            spans: Vec::new(),
            shard: None,
            budget: None,
            cost: None,
            source: None,
        })
    };
}

/// Run `f` on this thread's request, which stays borrowed until it
/// returns.
pub(crate) fn with<R>(f: impl FnOnce(&mut Request) -> R) -> R {
    REQUEST.with_borrow_mut(f)
}

/// One field of a [`Request`]: the value to set, and once set, the value
/// it replaced.
pub(crate) enum Field {
    Trace(Option<ActiveTrace>),
    Shard(Option<u32>),
    Budget(Option<ActiveBudget>),
    Source(Option<String>),
}

impl Field {
    fn swap(&mut self, request: &mut Request) {
        match self {
            Field::Trace(v) => mem::swap(v, &mut request.trace),
            Field::Shard(v) => mem::swap(v, &mut request.shard),
            Field::Budget(v) => mem::swap(v, &mut request.budget),
            Field::Source(v) => mem::swap(v, &mut request.source),
        }
    }
}

/// Set one field of this thread's request until the guard drops.
pub(crate) fn set(mut field: Field) -> Guard {
    with(|r| field.swap(r));
    Guard(field)
}

/// Puts back, when dropped, panic or not, the one field of this thread's
/// request that [`crate::trace::begin`], [`crate::shard::enter`],
/// [`crate::budget::begin`] or [`crate::cost::attribute_reads_to`] set,
/// so they nest.
#[must_use = "dropping the guard immediately restores what it set"]
pub struct Guard(Field);

impl Drop for Guard {
    fn drop(&mut self) {
        with(|r| self.0.swap(r));
    }
}

/// The request context of the thread that [`capture`]d it. The default
/// is the empty one, a thread's before any request: entering it runs work
/// apart from whatever request the thread is serving meanwhile.
#[derive(Clone, Default)]
pub struct Context {
    trace: Option<ActiveTrace>,
    parent: Option<Frame>,
    shard: Option<u32>,
    budget: Option<ActiveBudget>,
    /// The trace id of the active cost profile, when one is collecting.
    profile: Option<u64>,
}

/// This thread's request context.
pub fn capture() -> Context {
    with(|r| Context {
        trace: r.trace.clone(),
        parent: crate::span::parent_frame(&r.spans),
        shard: r.shard,
        budget: r.budget.clone(),
        profile: r.cost.as_ref().map(Collecting::trace_id),
    })
}

impl Context {
    /// Install the context on this thread until [`Entered::leave`] (or a
    /// drop, which discards the collected profile). Spans opened in
    /// between must close before it.
    pub fn enter(&self) -> Entered {
        let mut request = Request {
            trace: self.trace.clone(),
            spans: self.parent.iter().cloned().collect(),
            shard: self.shard,
            budget: self.budget.clone(),
            cost: self.profile.map(Collecting::new),
            source: None,
        };
        swap_carried(&mut request);
        Entered(Some(request))
    }
}

/// Trade every field of this thread's request but the read source with
/// `other`'s.
fn swap_carried(other: &mut Request) {
    with(|r| {
        mem::swap(&mut r.source, &mut other.source);
        mem::swap(r, other);
    });
}

/// An entered [`Context`]; dropping it restores what the thread had.
pub struct Entered(Option<Request>);

impl Entered {
    /// Put the thread's own request back, returning the entered one.
    fn restore(&mut self) -> Option<Request> {
        let mut entered = self.0.take()?;
        swap_carried(&mut entered);
        Some(entered)
    }

    /// Leave the context, returning the cost profile collected on this
    /// thread for [`crate::cost::absorb`] on the capturing one (`None`
    /// when the request collects none).
    pub fn leave(mut self) -> Option<CostProfile> {
        self.restore()?.cost.map(Collecting::finish)
    }
}

impl Drop for Entered {
    fn drop(&mut self) {
        self.restore();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CancelFlag;
    use crate::SpanEvent;

    /// One request's work: a `scan` span whose `read`s each add a row
    /// and bytes, touch an epoch and open a child span. On two threads
    /// the second half runs on a helper that entered the context.
    fn request(trace_id: u64, helper: bool) -> (CostProfile, Vec<SpanEvent>) {
        let read = |epoch: u64| {
            let _read = crate::stage("test.context.read");
            crate::cost::touch_epoch(epoch);
            crate::cost::add_bytes_read("dfs", 100 + epoch);
            crate::cost::add_decompressed("gzip-lite", 1000 + epoch);
            crate::cost::add_rows(epoch, 1);
            let _inflate = crate::span("inflate");
            crate::trace::event("test.context.mark", &[]);
        };
        let trace = crate::trace::begin(trace_id);
        let profile = {
            let _budget = crate::budget::begin(None, CancelFlag::new());
            let _shard = crate::shard::enter(3);
            let cost = crate::cost::begin(trace_id);
            let _request = crate::span("test.context.request");
            {
                let _scan = crate::span("scan");
                if helper {
                    let context = capture();
                    let collected = std::thread::scope(|s| {
                        let half = s.spawn(|| {
                            let entered = context.enter();
                            (2..4).for_each(read);
                            entered.leave()
                        });
                        (0..2).for_each(read);
                        half.join().expect("the helper ran")
                    });
                    crate::cost::absorb(&collected.expect("a profile"));
                } else {
                    (0..4).for_each(read);
                }
            }
            drop(_request);
            cost.finish()
        };
        (profile, trace.finish())
    }

    /// Every event as `(names from the root down to it, shard label)`,
    /// sorted: what a tree rendering shows, whatever the span ids.
    fn shape(events: &[SpanEvent]) -> Vec<(String, Option<String>)> {
        let by_id: std::collections::HashMap<u64, &SpanEvent> =
            events.iter().map(|e| (e.span_id, e)).collect();
        let mut shape: Vec<_> = events
            .iter()
            .map(|e| {
                let mut names = vec![e.name.as_str()];
                let mut up = e;
                while let Some(parent) = by_id.get(&up.parent_id) {
                    names.push(&parent.name);
                    up = parent;
                }
                names.reverse();
                let shard = e.args.iter().find(|(k, _)| k == "shard");
                (names.join(";"), shard.map(|(_, v)| v.clone()))
            })
            .collect();
        shape.sort();
        shape
    }

    #[test]
    fn a_helper_collects_what_the_request_thread_would() {
        let _no_reset = crate::globals_stay();
        // Only this test opens the read path, and a stage adds the same
        // time to its span's total and to the profile, so each request's
        // stage time is exactly what its reads added to that total.
        let read_ns = || {
            let stats = crate::global().span_stats("test.context.request;scan;test.context.read");
            stats.total_ns.load(std::sync::atomic::Ordering::Relaxed)
        };
        let before = read_ns();
        let (one, one_events) = request(0xC0_0001, false);
        let between = read_ns();
        let (two, two_events) = request(0xC0_0002, true);
        let after = read_ns();
        // Every field but the clock ones.
        let untimed = |p: &CostProfile| {
            let mut p = p.clone();
            p.trace_id = 0;
            p.total_ns = 0;
            p.stage_ns.clear();
            p
        };
        assert_eq!(untimed(&two), untimed(&one));
        // The same stages, timed on whichever thread did the work: the
        // helper's half reaches the request's profile.
        let stages = |p: &CostProfile| p.stage_ns.keys().cloned().collect::<Vec<_>>();
        assert_eq!(stages(&two), ["test.context.read"]);
        assert_eq!(stages(&one), stages(&two));
        assert_eq!(one.stage_ns["test.context.read"], between - before);
        assert_eq!(two.stage_ns["test.context.read"], after - between);
        assert!(two.reconciles() && one.reconciles());

        // Same tree, same shard labels; span ids unique within the trace.
        assert_eq!(shape(&two_events), shape(&one_events));
        let mut ids: Vec<u64> = two_events.iter().map(|e| e.span_id).collect();
        ids.dedup();
        assert_eq!(ids.len(), two_events.len());
        let mut reads = shape(&two_events)
            .into_iter()
            .filter(|(path, _)| path.ends_with("test.context.read"));
        assert!(reads.all(|(path, shard)| {
            path == "test.context.request;scan;test.context.read" && shard.as_deref() == Some("3")
        }));

        // The flame table files the helper's spans under the same path.
        let read = crate::global().span_stats("test.context.request;scan;test.context.read");
        assert!(read.calls.load(std::sync::atomic::Ordering::Relaxed) >= 8);
    }

    #[test]
    fn the_helper_sees_the_budget_and_restores_an_empty_thread() {
        let _no_reset = crate::globals_stay();
        let cancel = CancelFlag::new();
        let _budget = crate::budget::begin(None, cancel.clone());
        let _outer = crate::span("test.context.outer");
        let context = capture();
        std::thread::scope(|s| {
            s.spawn(|| {
                let entered = context.enter();
                assert_eq!(crate::budget::interrupted(), None);
                cancel.cancel();
                assert!(crate::budget::interrupted().is_some());
                assert!(entered.leave().is_none(), "no profile was collecting");
                assert_eq!(crate::budget::interrupted(), None);
                assert_eq!(crate::trace::current(), None);
                // Outside every span again: a new one is a root.
                drop(crate::span("test.context.after"));
            });
        });
        let after = crate::global().span_stats("test.context.after");
        assert_eq!(after.calls.load(std::sync::atomic::Ordering::Relaxed), 1);
    }
}
