//! Two-priority admission control with per-client fairness.
//!
//! Interactive exploration queries (short windows, a human waiting) and
//! bulk scans (long windows, SQL over days) share one worker pool. The
//! admission queue keeps the pool from inverting their priorities:
//!
//! * **Two classes, strict priority** — [`Class::Interactive`] is always
//!   served before [`Class::Scan`]; a pile of day-long scans can never
//!   starve a zooming explorer.
//! * **Bounded depth, shed on overflow** — each class has its own depth
//!   bound; a push over the bound is rejected *immediately* with the
//!   current depth, which the server counts and turns into a `Shed`
//!   frame the client can retry on. Queueing unboundedly would just convert
//!   overload into latency.
//! * **Per-client round-robin** — within a class, each client has its
//!   own FIFO lane and lanes are drained round-robin, so one client
//!   pipelining hundreds of requests cannot monopolize the pool.
//!
//! Deadline-based shedding is the *worker's* job (the queue cannot know
//! how long an item sat after pop); items carry their enqueue sequence
//! and the server compares wall-clock age on pop.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Scheduling class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Short-window, latency-sensitive exploration.
    Interactive,
    /// Long-window bulk work (SQL aggregations, wide scans).
    Scan,
}

impl Class {
    pub fn label(&self) -> &'static str {
        match self {
            Class::Interactive => "interactive",
            Class::Scan => "scan",
        }
    }
}

/// Why a push was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shed {
    /// Depth of the rejected class's queue at rejection time.
    pub queue_depth: u32,
}

struct Lane<T> {
    // Client id → that client's FIFO. BTreeMap gives a deterministic
    // round-robin order.
    per_client: BTreeMap<u64, VecDeque<T>>,
    // Last client id served; the next pop starts strictly after it.
    cursor: u64,
    len: usize,
    depth: usize,
}

impl<T> Lane<T> {
    fn new(depth: usize) -> Self {
        Self {
            per_client: BTreeMap::new(),
            cursor: 0,
            len: 0,
            depth,
        }
    }

    fn push(&mut self, client: u64, item: T) -> Result<(), Shed> {
        if self.len >= self.depth {
            return Err(Shed {
                queue_depth: self.len as u32,
            });
        }
        self.per_client.entry(client).or_default().push_back(item);
        self.len += 1;
        Ok(())
    }

    /// Pop from the first non-empty client lane strictly after the
    /// cursor, wrapping — classic round-robin.
    fn pop(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        let next = self
            .per_client
            .range((
                std::ops::Bound::Excluded(self.cursor),
                std::ops::Bound::Unbounded,
            ))
            .next()
            .map(|(&c, _)| c)
            .or_else(|| self.per_client.keys().next().copied())?;
        let lane = self.per_client.get_mut(&next)?;
        let item = lane.pop_front()?;
        if lane.is_empty() {
            self.per_client.remove(&next);
        }
        self.len -= 1;
        self.cursor = next;
        Some((next, item))
    }
}

/// The two-class bounded admission queue.
pub struct AdmissionQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    admitted: AtomicU64,
}

struct State<T> {
    interactive: Lane<T>,
    scan: Lane<T>,
    closed: bool,
}

impl<T> AdmissionQueue<T> {
    /// A queue holding at most `interactive_depth` interactive and
    /// `scan_depth` scan items.
    pub fn new(interactive_depth: usize, scan_depth: usize) -> Self {
        Self {
            state: Mutex::new(State {
                interactive: Lane::new(interactive_depth.max(1)),
                scan: Lane::new(scan_depth.max(1)),
                closed: false,
            }),
            available: Condvar::new(),
            admitted: AtomicU64::new(0),
        }
    }

    /// Try to admit an item. Rejects immediately (never blocks) when the
    /// class is at depth or the queue is shut down; the caller counts the
    /// refusal.
    pub fn push(&self, client: u64, class: Class, item: T) -> Result<(), Shed> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(Shed { queue_depth: 0 });
        }
        let lane = match class {
            Class::Interactive => &mut st.interactive,
            Class::Scan => &mut st.scan,
        };
        lane.push(client, item)?;
        self.admitted.fetch_add(1, Ordering::Relaxed);
        let depth = (st.interactive.len + st.scan.len) as i64;
        obs::gauge_set("serve.queue.depth", depth);
        self.available.notify_one();
        Ok(())
    }

    /// Admit an item the caller serves at once itself instead of queueing
    /// it: only while no item of `class` waits, so it overtakes no one,
    /// and never once the queue is closed. Counted with the admitted
    /// items of [`AdmissionQueue::admitted`].
    pub fn admit_inline(&self, class: Class) -> bool {
        let st = self.state.lock().unwrap();
        let waiting = match class {
            Class::Interactive => st.interactive.len,
            Class::Scan => st.scan.len,
        };
        if st.closed || waiting > 0 {
            return false;
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Blocking pop: interactive first, then scan, round-robin over
    /// clients within the class. `None` once the queue is closed *and*
    /// drained (graceful shutdown finishes admitted work).
    pub fn pop(&self) -> Option<(u64, Class, T)> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some((client, item)) = st.interactive.pop() {
                obs::gauge_set(
                    "serve.queue.depth",
                    (st.interactive.len + st.scan.len) as i64,
                );
                return Some((client, Class::Interactive, item));
            }
            if let Some((client, item)) = st.scan.pop() {
                obs::gauge_set(
                    "serve.queue.depth",
                    (st.interactive.len + st.scan.len) as i64,
                );
                return Some((client, Class::Scan, item));
            }
            if st.closed {
                return None;
            }
            st = self.available.wait(st).unwrap();
        }
    }

    /// Current combined depth (for `Shed` frames and gauges).
    pub fn depth(&self) -> usize {
        let st = self.state.lock().unwrap();
        st.interactive.len + st.scan.len
    }

    /// Per-class depths `(interactive, scan)` for introspection frames.
    pub fn depths(&self) -> (usize, usize) {
        let st = self.state.lock().unwrap();
        (st.interactive.len, st.scan.len)
    }

    /// Stop admitting; wake all poppers so workers can drain and exit.
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        self.available.notify_all();
    }

    /// Items admitted so far, queued or served inline.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interactive_preempts_scan() {
        let q = AdmissionQueue::new(64, 16);
        q.push(1, Class::Scan, "s1").unwrap();
        q.push(1, Class::Scan, "s2").unwrap();
        q.push(2, Class::Interactive, "i1").unwrap();
        let (_, class, item) = q.pop().unwrap();
        assert_eq!((class, item), (Class::Interactive, "i1"));
        let (_, class, _) = q.pop().unwrap();
        assert_eq!(class, Class::Scan);
    }

    #[test]
    fn round_robin_across_clients_within_a_class() {
        let q = AdmissionQueue::new(64, 16);
        // Client 1 floods; client 2 submits one item.
        for i in 0..5 {
            q.push(1, Class::Interactive, format!("c1-{i}")).unwrap();
        }
        q.push(2, Class::Interactive, "c2-0".to_string()).unwrap();
        let order: Vec<u64> = (0..6).map(|_| q.pop().unwrap().0).collect();
        // Client 2 is served second, not sixth.
        assert_eq!(order[..3], [1, 2, 1], "{order:?}");
    }

    #[test]
    fn overflow_sheds_immediately_with_depth() {
        let q = AdmissionQueue::new(2, 1);
        q.push(1, Class::Interactive, 0).unwrap();
        q.push(1, Class::Interactive, 1).unwrap();
        assert_eq!(
            q.push(1, Class::Interactive, 2),
            Err(Shed { queue_depth: 2 })
        );
        // Scan class has its own independent bound.
        q.push(1, Class::Scan, 3).unwrap();
        assert_eq!(q.push(1, Class::Scan, 4), Err(Shed { queue_depth: 1 }));
        assert_eq!(q.admitted(), 3);
    }

    #[test]
    fn an_inline_admission_overtakes_no_one_and_is_counted() {
        let q = AdmissionQueue::new(64, 16);
        assert!(q.admit_inline(Class::Interactive));
        q.push(1, Class::Scan, "s").unwrap();
        // A waiting scan does not hold up an interactive request.
        assert!(q.admit_inline(Class::Interactive));
        assert!(!q.admit_inline(Class::Scan));
        q.push(2, Class::Interactive, "i").unwrap();
        assert!(!q.admit_inline(Class::Interactive));
        assert_eq!(q.admitted(), 4);
        assert_eq!(q.depth(), 2, "nothing inline is queued");
        q.close();
        while q.pop().is_some() {}
        assert!(!q.admit_inline(Class::Interactive), "closed");
        assert_eq!(q.admitted(), 4);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = AdmissionQueue::new(64, 16);
        q.push(1, Class::Scan, "tail").unwrap();
        q.close();
        assert!(q.push(1, Class::Scan, "late").is_err());
        assert_eq!(q.pop().map(|(_, _, i)| i), Some("tail"));
        assert_eq!(q.pop().map(|(_, _, i)| i), None);
    }

    #[test]
    fn blocked_poppers_wake_on_push_and_close() {
        let q = std::sync::Arc::new(AdmissionQueue::new(64, 16));
        let popper = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some((_, _, item)) = q.pop() {
                    got.push(item);
                }
                got
            })
        };
        q.push(7, Class::Interactive, 1).unwrap();
        q.push(7, Class::Scan, 2).unwrap();
        // Give the popper a moment to drain, then close.
        while q.depth() > 0 {
            std::thread::yield_now();
        }
        q.close();
        assert_eq!(popper.join().unwrap(), vec![1, 2]);
    }
}
