//! The read-ahead's parked helper: one thread a process, started by the
//! first read that wants a helper and parked on a condvar between reads.
//!
//! A read hands it its helper work in a condvar wake instead of a thread
//! start. On a 2-vCPU host a scoped spawn and join of a thread that does
//! nothing took 78 µs p50, and running two 80 µs halves of a job on a
//! freshly spawned thread beside the caller took 120–180 µs p50; handed to
//! a parked thread they took 81–106 µs, against 160 µs one after the
//! other. A Path epoch's two members inflate in about 80 µs each, so only
//! the parked hand-over makes one epoch's read shorter on two cores.
//!
//! The helper runs one read's work at a time. A read that finds it busy
//! (another thread's read, or a read nested in a scan) starts a scoped
//! thread of its own.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A read's helper work, borrowed from the read's stack frame.
pub(super) type Job<'a> = dyn Fn() + Sync + 'a;

/// The one parked helper and what it has been handed.
struct Parked {
    state: Mutex<Handed>,
    /// Signalled when a job is handed over and when one finishes.
    changed: Condvar,
}

/// The jobs handed over and finished, counted: the helper is free when
/// the two are equal.
struct Handed {
    job: Option<&'static Job<'static>>,
    handed: u64,
    finished: u64,
}

static PARKED: Parked = Parked {
    state: Mutex::new(Handed {
        job: None,
        handed: 0,
        finished: 0,
    }),
    changed: Condvar::new(),
};

impl Parked {
    /// No update of the state can panic half-way, so it is whole even
    /// after a poisoning.
    fn state(&self) -> MutexGuard<'_, Handed> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'g>(&self, state: MutexGuard<'g, Handed>) -> MutexGuard<'g, Handed> {
        self.changed
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The helper thread: run each job handed over, then count it
    /// finished. A job catches its own panics; the `catch_unwind` here
    /// only keeps the helper alive, so that no reader waits for a job
    /// whose thread is gone.
    fn serve(&self) -> ! {
        let mut state = self.state();
        loop {
            while state.handed == state.finished {
                state = self.wait(state);
            }
            let job = state.job.expect("a job handed over");
            drop(state);
            let _ = catch_unwind(AssertUnwindSafe(job));
            state = self.state();
            state.job = None;
            state.finished += 1;
            self.changed.notify_all();
        }
    }
}

/// The parked helper, started on the first call; `None` when its thread
/// could not be spawned.
fn helper() -> Option<&'static Parked> {
    static STARTED: OnceLock<bool> = OnceLock::new();
    let started = STARTED.get_or_init(|| {
        std::thread::Builder::new()
            .name("read-ahead".into())
            .spawn(|| PARKED.serve())
            .is_ok()
    });
    started.then_some(&PARKED)
}

/// Run `body` on this thread and, when `wanted` and the parked helper is
/// free, `job` on the helper beside it; `body` is told whether the helper
/// took the job. Returns once `body` has returned and the helper has
/// finished `job`, and, if `body` unwinds, unwinds only after that.
pub(super) fn beside<R>(wanted: bool, job: &Job<'_>, body: impl FnOnce(bool) -> R) -> R {
    let Some(parked) = wanted.then(helper).flatten() else {
        return body(false);
    };
    let ticket = {
        let mut state = parked.state();
        if state.handed != state.finished {
            drop(state);
            return body(false);
        }
        // SAFETY: the two types differ in their lifetimes alone. The
        // helper uses the job only until it counts it finished, and
        // `Finished` below keeps this function from returning or
        // unwinding before then, so no use of `job` outlives its borrow.
        #[allow(unsafe_code)]
        let job = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
        state.job = Some(job);
        state.handed += 1;
        parked.changed.notify_all();
        state.handed
    };
    /// Waits, on return and on unwind alike, until the helper has
    /// finished the job: what makes the lifetime cast above sound.
    struct Finished(&'static Parked, u64);
    impl Drop for Finished {
        fn drop(&mut self) {
            let mut state = self.0.state();
            while state.finished < self.1 {
                state = self.0.wait(state);
            }
        }
    }
    let _finished = Finished(parked, ticket);
    body(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// Hand `job` to the helper beside `body`, retrying while another
    /// test's read holds it; `body` runs once the helper took the job.
    fn handed(job: &Job<'_>, body: impl Fn()) {
        while !beside(true, job, |parked| {
            if parked {
                body();
            }
            parked
        }) {
            std::thread::yield_now();
        }
    }

    /// While a read holds the helper, another is told to read alone, and
    /// `beside` returns only once the helper has finished the job, even
    /// when its body returned first. A job that panics leaves the helper
    /// serving the next.
    #[test]
    fn the_helper_takes_one_job_at_a_time_and_finishes_it_before_beside_returns() {
        let (release, done) = (AtomicBool::new(false), AtomicBool::new(false));
        let job = || {
            while !release.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            done.store(true, Ordering::SeqCst);
        };
        handed(&job, || {
            let second = std::thread::scope(|s| {
                let read = s.spawn(|| beside(true, &|| {}, |parked| parked));
                read.join().expect("the second read returns")
            });
            assert!(!second, "a second read while the helper is held");
            release.store(true, Ordering::SeqCst);
        });
        assert!(done.load(Ordering::SeqCst), "the job finished first");

        handed(&|| panic!("a job panics on the helper"), || {});
        let ran = AtomicBool::new(false);
        handed(&|| ran.store(true, Ordering::SeqCst), || {});
        assert!(ran.load(Ordering::SeqCst), "the helper outlived the panic");
        assert!(!beside(false, &|| {}, |parked| parked), "not wanted");
    }
}
