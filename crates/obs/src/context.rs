//! Carrying a request's context to a helper thread.
//!
//! Five thread-local slots describe whom a thread is working for: the
//! trace context ([`crate::trace`]), the innermost open span
//! ([`crate::span`]: its folded path and the traced span new ones hang
//! under), the shard scope ([`crate::shard`]), the budget
//! ([`crate::budget`]) and the cost profile ([`crate::cost`]). A thread
//! spawned to do part of the request's work starts with all five empty.
//! [`capture`] them on the request's thread, [`Context::enter`] them on
//! the helper, and hand what the helper collected back with
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
//! traced span as their parent and the same shard label; the budget is
//! the same deadline and cancel flag; the cost profile is the helper's
//! own, under the same trace id, until it is absorbed.

use crate::budget::{self, ActiveBudget, BudgetGuard};
use crate::cost::{self, CostGuard};
use crate::shard::{self, ShardScope};
use crate::span::{self, Parent, ParentGuard};
use crate::trace::{self, ActiveTrace, TraceGuard};
use crate::CostProfile;

/// The request context of the thread that [`capture`]d it.
#[derive(Clone)]
pub struct Context {
    trace: Option<ActiveTrace>,
    parent: Option<Parent>,
    shard: Option<u32>,
    budget: Option<ActiveBudget>,
    /// The trace id of the active cost profile, when one is collecting.
    profile: Option<u64>,
}

/// This thread's request context.
pub fn capture() -> Context {
    Context {
        trace: trace::capture(),
        parent: span::capture(),
        shard: shard::current(),
        budget: budget::capture(),
        profile: cost::capture(),
    }
}

impl Context {
    /// Install the context on this thread until [`Entered::leave`] (or a
    /// drop, which discards the collected profile). Spans opened in
    /// between must close before it.
    pub fn enter(&self) -> Entered {
        Entered {
            _trace: self.trace.clone().map(trace::enter),
            _parent: self.parent.clone().map(span::enter),
            _shard: self.shard.map(shard::enter),
            _budget: self.budget.clone().map(budget::enter),
            profile: self.profile.map(cost::begin),
        }
    }
}

/// An entered [`Context`]; dropping it restores what the thread had.
pub struct Entered {
    // Restored in declaration order, the reverse of `enter`'s.
    profile: Option<CostGuard>,
    _budget: Option<BudgetGuard>,
    _shard: Option<ShardScope>,
    _parent: Option<ParentGuard>,
    _trace: Option<TraceGuard>,
}

impl Entered {
    /// Leave the context, returning the cost profile collected on this
    /// thread for [`crate::cost::absorb`] on the capturing one (`None`
    /// when the request collects none).
    pub fn leave(mut self) -> Option<CostProfile> {
        self.profile.take().map(CostGuard::finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::SpanEvent;
    use crate::CancelFlag;

    /// One request's work: a `scan` span whose `read`s each add a row
    /// and bytes, touch an epoch and open a child span. On two threads
    /// the second half runs on a helper that entered the context.
    fn request(trace_id: u64, helper: bool) -> (CostProfile, Vec<SpanEvent>) {
        let read = |epoch: u64| {
            let _read = crate::span("test.context.read");
            crate::cost::touch_epoch(epoch);
            crate::cost::add_bytes_read("dfs", 100 + epoch);
            crate::cost::add_decompressed("gzip-lite", 1000 + epoch);
            crate::cost::add_rows(epoch, 1);
            crate::cost::add_stage_ns("read", 5);
            let _inflate = crate::span("inflate");
            crate::trace::event("test.context.mark", &[]);
        };
        let profile = {
            let _trace = crate::trace::begin(trace_id);
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
        (profile, crate::flight().trace(trace_id))
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
        let (one, one_events) = request(0xC0_0001, false);
        let (two, two_events) = request(0xC0_0002, true);
        // Every field but the clock ones.
        let untimed = |p: &CostProfile| {
            let mut p = p.clone();
            p.trace_id = 0;
            p.total_ns = 0;
            p.stage_ns.clear();
            p
        };
        assert_eq!(untimed(&two), untimed(&one));
        assert_eq!(two.stage_ns["read"], one.stage_ns["read"]);
        assert!(two.reconciles() && one.reconciles());
        assert_eq!(two.rows_by_shard[&3], 6);

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
        let cancel = CancelFlag::new();
        let _budget = crate::budget::begin(None, cancel.clone());
        let context = capture();
        std::thread::scope(|s| {
            s.spawn(|| {
                let entered = context.enter();
                assert_eq!(crate::budget::interrupted(), None);
                cancel.cancel();
                assert!(crate::budget::interrupted().is_some());
                assert!(entered.leave().is_none(), "no profile was collecting");
                assert!(!crate::budget::is_active());
                assert!(crate::span::capture().is_none());
                assert_eq!(crate::trace::current(), None);
            });
        });
    }
}
