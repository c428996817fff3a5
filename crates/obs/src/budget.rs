//! Cooperative cancellation and per-request deadline budgets.
//!
//! A request admitted by the serve tier may carry a wall-clock deadline
//! and may be cancelled by the client mid-flight (the `Cancel` control
//! frame). Neither concern belongs in library call signatures: the dfs
//! retry loop and the per-epoch scan boundary in the core query loop
//! should be able to ask *"should I keep going?"* without every caller
//! threading a token through.
//!
//! The budget is a field of the thread's request context
//! ([`crate::context`]), installed by [`begin`] on the worker thread that
//! evaluates the request and restored by the returned guard, panic or
//! not. Library crates call [`interrupted`] at natural checkpoint boundaries
//! (between epochs, before a retry sleep); when no budget is installed
//! the check is `None` — a no-op — so batch pipelines, ingest and tests
//! pay nothing.
//!
//! Interruption is **cooperative and monotonic**: once a budget reports
//! [`Interrupt::Cancelled`] or [`Interrupt::DeadlineExceeded`] it will
//! keep reporting it, so callers may act on the first observation
//! (stop scanning, mark remaining epochs unavailable, return
//! `Partial`) without re-checking semantics.

use crate::context::{self, Field, Guard};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a checkpoint decided to stop. Ordered by precedence: an explicit
/// client cancel is reported even if the deadline has also passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The client sent a `Cancel` frame (or the server is shutting down).
    Cancelled,
    /// The request's wall-clock deadline has passed.
    DeadlineExceeded,
}

/// Shared cancel flag: the serve intake flips it, the worker observes
/// it at the next checkpoint. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; visible at the next checkpoint.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

#[derive(Clone)]
pub(crate) struct ActiveBudget {
    deadline: Option<Instant>,
    cancel: CancelFlag,
}

/// Install a request budget on this thread until the guard drops, which
/// restores the previous one (usually none). `deadline` is the absolute
/// instant the request expires (`None` = no time budget); `cancel` is
/// the shared flag the serve intake flips on a client `Cancel`.
pub fn begin(deadline: Option<Instant>, cancel: CancelFlag) -> Guard {
    context::set(Field::Budget(Some(ActiveBudget { deadline, cancel })))
}

/// Checkpoint: should the work in progress stop? `None` means carry on
/// (including when no budget is installed at all — library code calls
/// this unconditionally). Cancellation takes precedence over deadline
/// expiry so a cancelled request is reported as cancelled even when
/// its deadline has also passed.
pub fn interrupted() -> Option<Interrupt> {
    context::with(|r| {
        let b = r.budget.as_ref()?;
        if b.cancel.is_cancelled() {
            return Some(Interrupt::Cancelled);
        }
        match b.deadline {
            Some(d) if Instant::now() >= d => Some(Interrupt::DeadlineExceeded),
            _ => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn no_budget_means_no_interrupt() {
        assert_eq!(interrupted(), None);
    }

    #[test]
    fn guard_installs_and_restores() {
        let cancelled = CancelFlag::new();
        cancelled.cancel();
        {
            let _g = begin(None, cancelled);
            assert_eq!(interrupted(), Some(Interrupt::Cancelled));
        }
        assert_eq!(interrupted(), None);
    }

    #[test]
    fn cancel_flag_trips_checkpoints() {
        let flag = CancelFlag::new();
        let _g = begin(None, flag.clone());
        assert_eq!(interrupted(), None);
        flag.cancel();
        assert_eq!(interrupted(), Some(Interrupt::Cancelled));
        // Monotonic: still interrupted on re-check.
        assert_eq!(interrupted(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn expired_deadline_trips_checkpoints() {
        let past = Instant::now() - Duration::from_millis(1);
        let _g = begin(Some(past), CancelFlag::new());
        assert_eq!(interrupted(), Some(Interrupt::DeadlineExceeded));
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let far = Instant::now() + Duration::from_secs(3600);
        let _g = begin(Some(far), CancelFlag::new());
        assert_eq!(interrupted(), None);
    }

    #[test]
    fn cancel_takes_precedence_over_deadline() {
        let flag = CancelFlag::new();
        flag.cancel();
        let past = Instant::now() - Duration::from_millis(1);
        let _g = begin(Some(past), flag);
        assert_eq!(interrupted(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn nested_budgets_restore_the_outer_one() {
        let outer = CancelFlag::new();
        let _g1 = begin(None, outer.clone());
        {
            let inner = CancelFlag::new();
            let _g2 = begin(None, inner);
            outer.cancel();
            // Inner budget is the active one; outer's flag is invisible.
            assert_eq!(interrupted(), None);
        }
        assert_eq!(interrupted(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn guard_restores_on_panic() {
        let res = std::panic::catch_unwind(|| {
            let cancelled = CancelFlag::new();
            cancelled.cancel();
            let _g = begin(None, cancelled);
            panic!("boom");
        });
        assert!(res.is_err());
        assert_eq!(interrupted(), None);
    }
}
