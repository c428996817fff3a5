//! Serve-tier SLO tracking: an error budget over request latency and the
//! burn rate the telemetry recorder samples per window.
//!
//! An SLO here is "at most `budget` of requests may exceed `target_us`".
//! [`SloTracker::burn_rate_milli`] is the classic multiplicative form: the
//! observed violation share divided by the allowed share, scaled by 1000
//! to stay in integers (1000 = burning exactly the budget; 2000 = twice
//! as fast; 0 = clean). The recorder samples it as the `slo.burn_rate`
//! series so a replayed run shows *when* the budget started burning, not
//! just whether it was blown at the end.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Lock-free latency-SLO tracker; all methods are safe under concurrent
/// recording from serve workers.
pub struct SloTracker {
    /// Latency threshold in microseconds.
    target_us: AtomicU64,
    /// Allowed violation share in milli-units (5 = 0.5%).
    budget_milli: AtomicU64,
    total: AtomicU64,
    violations: AtomicU64,
}

/// Default: 50ms target, 5% violation budget — matches the interactive
/// deadline class in `crates/serve`.
pub const DEFAULT_TARGET_US: u64 = 50_000;
pub const DEFAULT_BUDGET_MILLI: u64 = 50;

impl Default for SloTracker {
    fn default() -> Self {
        Self {
            target_us: AtomicU64::new(DEFAULT_TARGET_US),
            budget_milli: AtomicU64::new(DEFAULT_BUDGET_MILLI),
            total: AtomicU64::new(0),
            violations: AtomicU64::new(0),
        }
    }
}

impl SloTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconfigure the objective (also used by benches to make violation
    /// patterns deterministic). Does not clear observed counts.
    pub fn configure(&self, target_us: u64, budget_milli: u64) {
        self.target_us.store(target_us, Ordering::Relaxed);
        self.budget_milli
            .store(budget_milli.max(1), Ordering::Relaxed);
    }

    pub fn target_us(&self) -> u64 {
        self.target_us.load(Ordering::Relaxed)
    }

    /// Record one request latency against the objective.
    pub fn record(&self, latency_us: u64) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if latency_us > self.target_us.load(Ordering::Relaxed) {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Burn rate ×1000: `(violations/total) / (budget_milli/1000) × 1000`,
    /// i.e. `violations × 1_000_000 / (total × budget_milli)`. Zero when
    /// nothing was recorded.
    pub fn burn_rate_milli(&self) -> u64 {
        let total = self.total.load(Ordering::Relaxed);
        if total == 0 {
            return 0;
        }
        let violations = self.violations.load(Ordering::Relaxed);
        let budget = self.budget_milli.load(Ordering::Relaxed).max(1);
        violations.saturating_mul(1_000_000) / total.saturating_mul(budget).max(1)
    }

    /// Clear observed counts, keeping the configured objective.
    pub fn reset(&self) {
        self.total.store(0, Ordering::Relaxed);
        self.violations.store(0, Ordering::Relaxed);
    }
}

static GLOBAL: OnceLock<SloTracker> = OnceLock::new();

/// The process-global SLO tracker serve workers record into.
pub fn global() -> &'static SloTracker {
    GLOBAL.get_or_init(SloTracker::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_rate_is_zero_when_clean_and_scales_with_violations() {
        let s = SloTracker::new();
        s.configure(1_000, 50); // 1ms target, 5% budget
        assert_eq!(s.burn_rate_milli(), 0);
        for _ in 0..95 {
            s.record(500);
        }
        for _ in 0..5 {
            s.record(2_000);
        }
        // 5% violations against a 5% budget: burning at exactly 1×.
        assert_eq!(s.total(), 100);
        assert_eq!(s.violations(), 5);
        assert_eq!(s.burn_rate_milli(), 1_000);
        for _ in 0..5 {
            s.record(2_000);
        }
        // ~9.5% violations: just under 2×.
        assert!(s.burn_rate_milli() > 1_800, "{}", s.burn_rate_milli());
    }

    #[test]
    fn reset_clears_counts_but_keeps_objective() {
        let s = SloTracker::new();
        s.configure(7, 3);
        s.record(100);
        s.reset();
        assert_eq!(s.total(), 0);
        assert_eq!(s.violations(), 0);
        assert_eq!(s.target_us(), 7);
    }
}
