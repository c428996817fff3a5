//! Per-datanode circuit breakers for the replica read path.
//!
//! The retry policy absorbs *transient* faults one block operation at a
//! time; it has no memory across operations, so a datanode that fails
//! every verified read (flapping NIC, sick disk, long GC pause) is
//! still consulted — and paid for — by every subsequent read. The
//! breaker adds that memory: each datanode carries a small state
//! machine
//!
//! ```text
//! Closed ──K consecutive verified-read failures──▶ Open
//!   ▲                                               │
//!   │ probe succeeds                     cooldown of `open_ops`
//!   │                                    read operations elapses
//!   └────────── HalfOpen ◀───────────────────────────┘
//!                  │ probe fails
//!                  └─────────▶ Open (fresh cooldown)
//! ```
//!
//! While a node's breaker is open, `Breaker::admits` steers reads to
//! the remaining replicas without touching the sick node. When *every*
//! replica of a block is open the read reports the block unavailable —
//! upstream that degrades to a `Partial` answer with honest coverage,
//! never an error (the same contract crashes and corruption already
//! follow).
//!
//! Like [`crate::fault::FaultPlan`], the breaker measures time in
//! **operation counts**, never wall clock: the cooldown is "`open_ops`
//! subsequent read operations", so a seeded single-threaded drill
//! observes identical transitions on every run.
//!
//! Each transition and skip is counted once, as an [`obs::Tally`] of
//! [`BreakerStats`]: on the bank and under its `dfs.breaker.*` registry
//! name.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Breaker tuning. [`BreakerConfig::disabled`] (the [`Default`]) keeps
/// every breaker permanently closed, preserving the exact pre-breaker
/// read path for existing workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive verified-read failures that open a node's breaker;
    /// `0` disables breakers entirely.
    pub failure_threshold: u32,
    /// Read operations the breaker stays open before admitting a
    /// half-open probe.
    pub open_ops: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl BreakerConfig {
    pub fn disabled() -> Self {
        Self {
            failure_threshold: 0,
            open_ops: 0,
        }
    }

    /// Trip after `failure_threshold` consecutive failures; probe again
    /// after `open_ops` read operations.
    pub fn new(failure_threshold: u32, open_ops: u64) -> Self {
        Self {
            failure_threshold,
            open_ops,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.failure_threshold > 0
    }
}

/// Observable breaker state of one datanode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed,
    /// Open until the read-op clock reaches `probe_at`.
    Open {
        probe_at: u64,
    },
    HalfOpen,
}

#[derive(Debug)]
struct NodeState {
    state: State,
    consecutive_failures: u32,
}

obs::tallies! {
    /// Transition and steering counts, each also counted under its
    /// `dfs.breaker.*` registry name as it happens.
    pub struct BreakerStats {
        /// Closed → Open transitions.
        trips: Tally("dfs.breaker.trips"),
        /// Open → HalfOpen probe admissions.
        probes: Tally("dfs.breaker.probes"),
        /// HalfOpen → Closed transitions (probe succeeded).
        recoveries: Tally("dfs.breaker.recoveries"),
        /// HalfOpen → Open transitions (probe failed).
        reopens: Tally("dfs.breaker.reopens"),
        /// Replica consultations skipped because the node's breaker was open.
        skipped: Tally("dfs.breaker.skipped"),
    }
    /// Point-in-time copy of [`BreakerStats`], comparable across runs.
    pub struct BreakerStatsSnapshot;
}

/// The per-cluster breaker bank: one state machine per datanode, layered
/// *under* the [`crate::retry::RetryPolicy`] in the block read path.
#[derive(Debug)]
pub struct Breaker {
    config: BreakerConfig,
    /// Read-operation clock; advanced once per block read.
    ops: AtomicU64,
    nodes: Mutex<Vec<NodeState>>,
    pub(crate) stats: BreakerStats,
}

impl Breaker {
    pub fn new(config: BreakerConfig, n_datanodes: usize) -> Self {
        let nodes = (0..n_datanodes)
            .map(|_| NodeState {
                state: State::Closed,
                consecutive_failures: 0,
            })
            .collect();
        Self {
            config,
            ops: AtomicU64::new(0),
            nodes: Mutex::new(nodes),
            stats: BreakerStats::default(),
        }
    }

    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    pub fn stats(&self) -> BreakerStatsSnapshot {
        self.stats.snapshot()
    }

    /// Advance the read-operation clock (once per block read).
    pub(crate) fn tick(&self) {
        if self.config.is_enabled() {
            self.ops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The observable state of one datanode's breaker. An open breaker
    /// whose cooldown has elapsed reports `HalfOpen` (the next read will
    /// be admitted as the probe).
    pub fn state(&self, dn: usize) -> BreakerState {
        if !self.config.is_enabled() {
            return BreakerState::Closed;
        }
        let nodes = self.nodes.lock().unwrap_or_else(|e| e.into_inner());
        match nodes[dn].state {
            State::Closed => BreakerState::Closed,
            State::Open { probe_at } => {
                if self.ops.load(Ordering::Relaxed) >= probe_at {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
            State::HalfOpen => BreakerState::HalfOpen,
        }
    }

    /// May a read consult this datanode right now? An open breaker whose
    /// cooldown has elapsed transitions to half-open and admits exactly
    /// this consultation as its probe.
    pub(crate) fn admits(&self, dn: usize) -> bool {
        if !self.config.is_enabled() {
            return true;
        }
        let mut nodes = self.nodes.lock().unwrap_or_else(|e| e.into_inner());
        match nodes[dn].state {
            State::Closed | State::HalfOpen => true,
            State::Open { probe_at } => {
                if self.ops.load(Ordering::Relaxed) >= probe_at {
                    nodes[dn].state = State::HalfOpen;
                    self.stats.probes.inc();
                    true
                } else {
                    self.stats.skipped.inc();
                    false
                }
            }
        }
    }

    /// A verified read from `dn` succeeded: close a half-open breaker,
    /// clear the failure streak.
    pub(crate) fn record_success(&self, dn: usize) {
        if !self.config.is_enabled() {
            return;
        }
        let mut nodes = self.nodes.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(nodes[dn].state, State::HalfOpen) {
            self.stats.recoveries.inc();
        }
        nodes[dn].state = State::Closed;
        nodes[dn].consecutive_failures = 0;
    }

    /// A verified read from `dn` failed (transient fault, missing block
    /// or checksum mismatch): extend the streak; trip or re-open.
    pub(crate) fn record_failure(&self, dn: usize) {
        if !self.config.is_enabled() {
            return;
        }
        let now = self.ops.load(Ordering::Relaxed);
        let mut nodes = self.nodes.lock().unwrap_or_else(|e| e.into_inner());
        let node = &mut nodes[dn];
        match node.state {
            State::HalfOpen => {
                node.state = State::Open {
                    probe_at: now + self.config.open_ops,
                };
                self.stats.reopens.inc();
            }
            State::Closed => {
                node.consecutive_failures += 1;
                if node.consecutive_failures >= self.config.failure_threshold {
                    node.state = State::Open {
                        probe_at: now + self.config.open_ops,
                    };
                    node.consecutive_failures = 0;
                    self.stats.trips.inc();
                }
            }
            State::Open { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticks(b: &Breaker, n: u64) {
        for _ in 0..n {
            b.tick();
        }
    }

    #[test]
    fn disabled_breaker_admits_everything_forever() {
        let b = Breaker::new(BreakerConfig::disabled(), 2);
        for _ in 0..100 {
            b.tick();
            assert!(b.admits(0));
            b.record_failure(0);
        }
        assert_eq!(b.state(0), BreakerState::Closed);
        assert_eq!(b.stats(), BreakerStatsSnapshot::default());
    }

    #[test]
    fn trips_after_k_consecutive_failures_and_not_before() {
        let b = Breaker::new(BreakerConfig::new(3, 10), 2);
        b.tick();
        b.record_failure(0);
        b.record_failure(0);
        assert_eq!(b.state(0), BreakerState::Closed);
        assert!(b.admits(0));
        b.record_failure(0);
        assert_eq!(b.state(0), BreakerState::Open);
        assert!(!b.admits(0));
        assert_eq!(b.stats().trips, 1);
        assert!(b.stats().skipped >= 1);
        // The other node is untouched.
        assert_eq!(b.state(1), BreakerState::Closed);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = Breaker::new(BreakerConfig::new(3, 10), 1);
        b.tick();
        b.record_failure(0);
        b.record_failure(0);
        b.record_success(0);
        b.record_failure(0);
        b.record_failure(0);
        assert_eq!(b.state(0), BreakerState::Closed);
        assert_eq!(b.stats().trips, 0);
    }

    #[test]
    fn half_open_probe_success_closes() {
        let b = Breaker::new(BreakerConfig::new(2, 5), 1);
        b.tick();
        b.record_failure(0);
        b.record_failure(0);
        assert!(!b.admits(0));
        // Cooldown measured in read ops, not wall clock.
        ticks(&b, 5);
        assert_eq!(b.state(0), BreakerState::HalfOpen);
        assert!(b.admits(0), "cooldown elapsed: probe admitted");
        assert_eq!(b.stats().probes, 1);
        b.record_success(0);
        assert_eq!(b.state(0), BreakerState::Closed);
        assert_eq!(b.stats().recoveries, 1);
        assert!(b.admits(0));
    }

    #[test]
    fn half_open_probe_failure_reopens_with_fresh_cooldown() {
        let b = Breaker::new(BreakerConfig::new(2, 5), 1);
        b.tick();
        b.record_failure(0);
        b.record_failure(0);
        ticks(&b, 5);
        assert!(b.admits(0));
        b.record_failure(0);
        assert_eq!(b.state(0), BreakerState::Open);
        assert!(!b.admits(0));
        assert_eq!(b.stats().reopens, 1);
        // A fresh cooldown admits another probe.
        ticks(&b, 5);
        assert!(b.admits(0));
        b.record_success(0);
        assert_eq!(b.state(0), BreakerState::Closed);
    }

    #[test]
    fn failures_while_open_do_not_extend_the_cooldown() {
        let b = Breaker::new(BreakerConfig::new(1, 4), 1);
        b.tick();
        b.record_failure(0);
        assert_eq!(b.state(0), BreakerState::Open);
        b.record_failure(0); // no-op while open
        ticks(&b, 4);
        assert_eq!(b.state(0), BreakerState::HalfOpen);
    }

    #[test]
    fn op_clock_determinism_same_sequence_same_transitions() {
        let run = || {
            let b = Breaker::new(BreakerConfig::new(2, 3), 2);
            for i in 0..40u64 {
                b.tick();
                for dn in 0..2 {
                    if b.admits(dn) {
                        // Node 0 fails on a fixed pattern; node 1 is healthy.
                        if dn == 0 && i % 3 != 0 {
                            b.record_failure(dn);
                        } else {
                            b.record_success(dn);
                        }
                    }
                }
            }
            b.stats()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.trips >= 1);
    }
}
