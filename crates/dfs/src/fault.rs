//! Seeded, deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] models the failure modes an HDFS-class deployment
//! actually sees: transient read/write RPC errors, slow ("straggler")
//! replicas, silent at-rest block corruption (bit rot), and periodic
//! datanode crash/restart cycles. Every probabilistic decision is a pure
//! hash of `(seed, kind, block, datanode, attempt)`, so a chaos run with
//! a fixed seed injects *exactly* the same faults on every execution —
//! the property the `repro chaos` harness and its CI job rely on.
//!
//! The plan also owns a [`FaultStats`] block of counts covering both the
//! faults it injects and the defenses the filesystem mounts against them
//! (checksum mismatches detected, replica failovers, retries, repairs).
//! Each is an [`obs::Tally`]: one add counts the event on the plan and in
//! the global registry under `dfs.fault.*` / `dfs.retry.*`, so it shows up
//! in `--metrics-json` dumps next to the other metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Fault-injection configuration. All probabilities are per-decision
/// (per replica read attempt, per replica write, per block).
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Seed of the deterministic decision stream.
    pub seed: u64,
    /// Probability a replica read attempt fails transiently (RPC timeout).
    pub transient_read: f64,
    /// Probability a replica write attempt fails transiently.
    pub transient_write: f64,
    /// Probability a block suffers silent corruption of one replica at
    /// write time (models bit rot on one disk; independent disks rarely
    /// rot the same block, so at most one replica per block is hit).
    pub corrupt_block: f64,
    /// Probability a replica read is served by a straggler.
    pub slow_replica: f64,
    /// Straggler service delay, microseconds.
    pub slow_us: u64,
    /// Kill one datanode every this many filesystem operations
    /// (0 disables the crash cycle).
    pub crash_period_ops: u64,
    /// Revive a killed datanode after this many further operations.
    pub crash_down_ops: u64,
}

impl FaultConfig {
    /// No faults at all (the plan becomes a pure counter block).
    pub fn none() -> Self {
        Self {
            seed: 0,
            transient_read: 0.0,
            transient_write: 0.0,
            corrupt_block: 0.0,
            slow_replica: 0.0,
            slow_us: 0,
            crash_period_ops: 0,
            crash_down_ops: 0,
        }
    }

    /// The `repro chaos` profile: ≥1% transient faults on both paths,
    /// 2% of blocks silently corrupted, occasional stragglers, and a
    /// rolling crash/restart cycle.
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            transient_read: 0.02,
            transient_write: 0.01,
            corrupt_block: 0.02,
            slow_replica: 0.01,
            slow_us: 200,
            crash_period_ops: 400,
            crash_down_ops: 150,
        }
    }
}

/// Kind tags keeping the decision streams independent.
const TAG_READ: u64 = 0x9E37_79B9_0000_0001;
const TAG_WRITE: u64 = 0x9E37_79B9_0000_0002;
const TAG_CORRUPT: u64 = 0x9E37_79B9_0000_0003;
const TAG_SLOW: u64 = 0x9E37_79B9_0000_0004;
const TAG_CRASH: u64 = 0x9E37_79B9_0000_0005;

/// SplitMix64 finalizer: a strong 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash(seed: u64, tag: u64, a: u64, b: u64, c: u64) -> u64 {
    mix(mix(mix(mix(seed ^ tag) ^ a) ^ b) ^ c)
}

/// `hash < p` with 53-bit precision.
fn decide(seed: u64, tag: u64, a: u64, b: u64, c: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    let u = (hash(seed, tag, a, b, c) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    u < p
}

obs::tallies! {
    /// Counts of injected faults and the recovery machinery's reactions.
    /// Lives on the [`FaultPlan`] so chaos runs can snapshot per-run
    /// numbers without resetting the process-global `obs` registry.
    pub struct FaultStats {
        transient_reads_injected: Tally("dfs.fault.transient_reads"),
        transient_writes_injected: Tally("dfs.fault.transient_writes"),
        corrupt_replicas_injected: Tally("dfs.fault.corrupt_replicas_injected"),
        slow_reads_injected: Tally("dfs.fault.slow_reads"),
        crashes_injected: Tally("dfs.fault.crashes"),
        revivals: Tally("dfs.fault.revivals"),
        /// Block reads whose CRC-32 did not match the namenode checksum.
        checksum_mismatches: Tally("dfs.fault.checksum_mismatches"),
        /// Reads served by a non-primary replica after an earlier one failed.
        read_failovers: Tally("dfs.fault.read_failovers"),
        /// Backoff-then-retry rounds taken (read + write paths).
        retry_attempts: Tally("dfs.retry.attempts"),
        /// Operations that succeeded only after at least one retry round.
        retry_successes: Tally("dfs.retry.successes"),
        /// Operations that ran out of retry budget.
        retries_exhausted: Tally("dfs.retry.exhausted"),
        /// Completed [`crate::Dfs::repair`] passes.
        repair_passes: Tally("dfs.repair.passes"),
    }
    /// Point-in-time copy of [`FaultStats`], comparable across runs.
    pub struct FaultStatsSnapshot;
}

/// A crash currently in effect: (datanode, op count at which it revives).
#[derive(Debug, Clone, Copy)]
struct ActiveCrash {
    node: usize,
    revive_at: u64,
}

/// What a fault-plan tick asks the cluster to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CrashAction {
    Kill(usize),
    Revive(usize),
}

/// The seeded fault plan attached to a [`crate::Dfs`].
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    ops: AtomicU64,
    active_crash: Mutex<Option<ActiveCrash>>,
    pub(crate) stats: FaultStats,
}

impl FaultPlan {
    pub fn new(config: FaultConfig) -> Self {
        Self {
            config,
            ops: AtomicU64::new(0),
            active_crash: Mutex::new(None),
            stats: FaultStats::default(),
        }
    }

    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    pub fn stats(&self) -> FaultStatsSnapshot {
        self.stats.snapshot()
    }

    /// One filesystem operation elapsed: emit due crash/revive actions.
    /// Deterministic for a fixed seed and operation sequence (the chaos
    /// harness issues its operations in one order: a scan that reads
    /// ahead on a second thread still fetches its epochs in epoch order).
    pub(crate) fn tick(&self, n_datanodes: usize) -> Vec<CrashAction> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if self.config.crash_period_ops == 0 || n_datanodes < 2 {
            return Vec::new();
        }
        let mut actions = Vec::new();
        let mut active = self.active_crash.lock().unwrap();
        if let Some(crash) = *active {
            if op >= crash.revive_at {
                actions.push(CrashAction::Revive(crash.node));
                self.stats.revivals.inc();
                *active = None;
            }
        }
        if active.is_none() && op.is_multiple_of(self.config.crash_period_ops) {
            let node = (hash(self.config.seed, TAG_CRASH, op, 0, 0) % n_datanodes as u64) as usize;
            actions.push(CrashAction::Kill(node));
            self.stats.crashes_injected.inc();
            *active = Some(ActiveCrash {
                node,
                revive_at: op + self.config.crash_down_ops.max(1),
            });
        }
        actions
    }

    /// Does this replica read attempt fail transiently?
    pub(crate) fn transient_read(&self, block: u64, dn: usize, attempt: u32) -> bool {
        let hit = decide(
            self.config.seed,
            TAG_READ,
            block,
            dn as u64,
            u64::from(attempt),
            self.config.transient_read,
        );
        if hit {
            self.stats.transient_reads_injected.inc();
        }
        hit
    }

    /// Does this replica write attempt fail transiently?
    pub(crate) fn transient_write(&self, block: u64, dn: usize, attempt: u32) -> bool {
        let hit = decide(
            self.config.seed,
            TAG_WRITE,
            block,
            dn as u64,
            u64::from(attempt),
            self.config.transient_write,
        );
        if hit {
            self.stats.transient_writes_injected.inc();
        }
        hit
    }

    /// Which replica slot of this block (if any) is silently corrupted at
    /// write time. At most one replica per block rots, modelling
    /// independent per-disk bit rot.
    pub(crate) fn corrupt_replica_slot(&self, block: u64, replication: usize) -> Option<usize> {
        if replication == 0
            || !decide(
                self.config.seed,
                TAG_CORRUPT,
                block,
                0,
                0,
                self.config.corrupt_block,
            )
        {
            return None;
        }
        Some((hash(self.config.seed, TAG_CORRUPT, block, 1, 0) % replication as u64) as usize)
    }

    pub(crate) fn note_corruption_injected(&self) {
        self.stats.corrupt_replicas_injected.inc();
    }

    /// Is this replica read served by a straggler? Returns the stall.
    pub(crate) fn slow_read(&self, block: u64, dn: usize) -> Option<std::time::Duration> {
        if decide(
            self.config.seed,
            TAG_SLOW,
            block,
            dn as u64,
            0,
            self.config.slow_replica,
        ) {
            self.stats.slow_reads_injected.inc();
            Some(std::time::Duration::from_micros(self.config.slow_us))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultPlan::new(FaultConfig::chaos(7));
        let b = FaultPlan::new(FaultConfig::chaos(7));
        for block in 0..200u64 {
            for dn in 0..4 {
                for attempt in 0..3 {
                    assert_eq!(
                        a.transient_read(block, dn, attempt),
                        b.transient_read(block, dn, attempt)
                    );
                    assert_eq!(
                        a.transient_write(block, dn, attempt),
                        b.transient_write(block, dn, attempt)
                    );
                }
            }
            assert_eq!(
                a.corrupt_replica_slot(block, 3),
                b.corrupt_replica_slot(block, 3)
            );
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(FaultConfig::chaos(1));
        let b = FaultPlan::new(FaultConfig::chaos(2));
        let hits = |p: &FaultPlan| {
            (0..2000u64)
                .filter(|&blk| p.transient_read(blk, 0, 0))
                .count()
        };
        let (ha, hb) = (hits(&a), hits(&b));
        // Both near 2% of 2000 = 40, but not the identical set.
        assert!(ha > 10 && ha < 100, "{ha}");
        assert!(hb > 10 && hb < 100, "{hb}");
        let set = |p: &FaultPlan| -> Vec<u64> {
            (0..2000u64)
                .filter(|&blk| p.transient_read(blk, 0, 0))
                .collect()
        };
        assert_ne!(set(&a), set(&b));
    }

    #[test]
    fn zero_probabilities_never_fire() {
        let plan = FaultPlan::new(FaultConfig::none());
        for block in 0..500u64 {
            assert!(!plan.transient_read(block, 0, 0));
            assert!(!plan.transient_write(block, 0, 0));
            assert!(plan.corrupt_replica_slot(block, 3).is_none());
            assert!(plan.slow_read(block, 0).is_none());
        }
        assert!(plan.tick(4).is_empty());
        assert_eq!(plan.stats(), FaultStatsSnapshot::default());
    }

    #[test]
    fn crash_cycle_kills_then_revives() {
        let mut config = FaultConfig::none();
        config.seed = 11;
        config.crash_period_ops = 10;
        config.crash_down_ops = 5;
        let plan = FaultPlan::new(config);
        let mut kills = 0;
        let mut revives = 0;
        let mut down: Option<usize> = None;
        for _ in 0..100 {
            for action in plan.tick(4) {
                match action {
                    CrashAction::Kill(n) => {
                        assert!(down.is_none(), "only one node down at a time");
                        down = Some(n);
                        kills += 1;
                    }
                    CrashAction::Revive(n) => {
                        assert_eq!(down, Some(n));
                        down = None;
                        revives += 1;
                    }
                }
            }
        }
        assert!(kills >= 5, "{kills}");
        assert!(revives >= kills - 1);
        let s = plan.stats();
        assert_eq!(s.crashes_injected, kills);
        assert_eq!(s.revivals, revives);
    }

    #[test]
    fn transient_faults_clear_with_attempts() {
        // For any block with a fault at attempt 0, some later attempt is
        // clean (probability of 6 consecutive independent 2% hits ~ 6e-11).
        let plan = FaultPlan::new(FaultConfig::chaos(3));
        for block in 0..2000u64 {
            if plan.transient_read(block, 0, 0) {
                assert!(
                    (1..6).any(|a| !plan.transient_read(block, 0, a)),
                    "block {block} faulted on all attempts"
                );
            }
        }
    }
}
