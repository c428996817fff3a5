//! The read-ahead's parked helpers: threads of the process, each started
//! by a read that found no helper idle and parked on a condvar between
//! reads.
//!
//! A read hands a helper its work in a condvar wake instead of a thread
//! start. On a 2-vCPU host a scoped spawn and join of a thread that does
//! nothing took 78 µs p50, and running two 80 µs halves of a job on a
//! freshly spawned thread beside the caller took 120–180 µs p50; handed to
//! a parked thread they took 81–106 µs, against 160 µs one after the
//! other. A Path epoch's two members inflate in about 80 µs each, so only
//! the parked hand-over makes one epoch's read shorter on two cores.
//!
//! A helper runs one read's work at a time. A read takes an idle helper,
//! or parks a new one when every helper is held — by another thread's
//! read, or by the read a nested read runs in (T4's join) — and puts it
//! back once it has finished the read's work. So there are never more
//! helpers than reads that wanted one at the same time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A read's helper work, borrowed from the read's stack frame.
pub(super) type Job<'a> = dyn Fn() + Sync + 'a;

/// The job a helper has been handed: set by the read that holds the
/// helper, cleared by the helper once it has finished it.
type Handed = Option<&'static Job<'static>>;

/// One parked helper thread.
struct Helper {
    handed: Mutex<Handed>,
    /// Signalled when a job is handed over and when one finishes.
    changed: Condvar,
}

impl Helper {
    /// No update of the job can panic half-way, so it is whole even
    /// after a poisoning.
    fn handed(&self) -> MutexGuard<'_, Handed> {
        self.handed.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'g>(&self, handed: MutexGuard<'g, Handed>) -> MutexGuard<'g, Handed> {
        self.changed
            .wait(handed)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The helper thread: run each job handed over, then clear it. A job
    /// catches its own panics; the `catch_unwind` here only keeps the
    /// helper alive, so that no reader waits for a job whose thread is
    /// gone.
    fn serve(&self) -> ! {
        let mut handed = self.handed();
        loop {
            let Some(job) = *handed else {
                handed = self.wait(handed);
                continue;
            };
            drop(handed);
            let _ = catch_unwind(AssertUnwindSafe(job));
            handed = self.handed();
            *handed = None;
            self.changed.notify_one();
        }
    }
}

/// A set of parked helpers: the idle ones, on a list.
pub(super) struct Helpers {
    idle: Mutex<Vec<Arc<Helper>>>,
}

/// The process's helpers.
pub(super) static HELPERS: Helpers = Helpers::new();

impl Helpers {
    pub(super) const fn new() -> Self {
        Self {
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The list of idle helpers; a push or a pop is whole even after a
    /// poisoning.
    fn idle(&self) -> MutexGuard<'_, Vec<Arc<Helper>>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An idle helper, or a new one parked; `None` when its thread could
    /// not be spawned.
    fn take(&self) -> Option<Arc<Helper>> {
        if let Some(idle) = self.idle().pop() {
            return Some(idle);
        }
        let helper = Arc::new(Helper {
            handed: Mutex::new(None),
            changed: Condvar::new(),
        });
        let parked = Arc::clone(&helper);
        std::thread::Builder::new()
            .name("read-ahead".into())
            .spawn(move || parked.serve())
            .ok()?;
        Some(helper)
    }

    /// Run `body` on this thread and `job` on a helper beside it, or
    /// `body` alone when no helper thread can be spawned. Returns once
    /// `body` has returned and the helper has finished `job`, and, if
    /// `body` unwinds, unwinds only after that.
    pub(super) fn beside<R>(&self, job: &Job<'_>, body: impl FnOnce() -> R) -> R {
        let Some(helper) = self.take() else {
            return body();
        };
        // SAFETY: the two types differ in their lifetimes alone. The
        // helper uses the job only until it clears it, and `Finished`
        // below keeps this function from returning or unwinding before
        // then, so no use of `job` outlives its borrow.
        #[allow(unsafe_code)]
        let job = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
        *helper.handed() = Some(job);
        helper.changed.notify_one();
        /// Waits, on return and on unwind alike, until the helper has
        /// finished the job — what makes the lifetime cast above sound —
        /// then puts the helper back on the idle list.
        struct Finished<'h>(&'h Helpers, Arc<Helper>);
        impl Drop for Finished<'_> {
            fn drop(&mut self) {
                let mut handed = self.1.handed();
                while handed.is_some() {
                    handed = self.1.wait(handed);
                }
                drop(handed);
                self.0.idle().push(Arc::clone(&self.1));
            }
        }
        let _finished = Finished(self, helper);
        body()
    }

    /// How many helpers are parked idle: every one started, when no read
    /// holds one.
    #[cfg(test)]
    pub(super) fn parked(&self) -> usize {
        self.idle().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// While a read holds a helper, a second read gets a second one, and
    /// `beside` returns only once its helper has finished the job, even
    /// when its body returned first. A job that panics leaves its helper
    /// serving the next, and every helper started is parked again.
    #[test]
    fn a_held_helper_makes_way_for_a_second_and_finishes_before_beside_returns() {
        let helpers = Helpers::new();
        let (release, done) = (AtomicBool::new(false), AtomicBool::new(false));
        let job = || {
            while !release.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            done.store(true, Ordering::SeqCst);
        };
        helpers.beside(&job, || {
            let second = std::thread::scope(|s| {
                let read = s.spawn(|| {
                    let reader = std::thread::current().id();
                    let elsewhere = AtomicBool::new(false);
                    let job = || {
                        let here = std::thread::current().id();
                        elsewhere.store(here != reader, Ordering::SeqCst);
                    };
                    helpers.beside(&job, || {});
                    elsewhere.into_inner()
                });
                read.join().expect("the second read returns")
            });
            assert!(second, "the second read's job ran on a helper");
            release.store(true, Ordering::SeqCst);
        });
        assert!(done.load(Ordering::SeqCst), "the job finished first");
        assert_eq!(helpers.parked(), 2);

        helpers.beside(&|| panic!("a job panics on the helper"), || {});
        let ran = AtomicBool::new(false);
        helpers.beside(&|| ran.store(true, Ordering::SeqCst), || {});
        assert!(ran.load(Ordering::SeqCst), "the helper outlived the panic");
        assert_eq!(helpers.parked(), 2);
    }
}
