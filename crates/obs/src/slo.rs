//! Serve-tier SLO tracking: an error budget over request latency and the
//! burn rate the telemetry recorder samples per window.
//!
//! An SLO here is "at most [`BUDGET_MILLI`] of requests may exceed
//! [`TARGET_US`]".
//! [`SloTracker::burn_rate_milli`] is the classic multiplicative form: the
//! observed violation share divided by the allowed share, scaled by 1000
//! to stay in integers (1000 = burning exactly the budget; 2000 = twice
//! as fast; 0 = clean). The recorder samples it as the `slo.burn_rate`
//! series so a replayed run shows *when* the budget started burning, not
//! just whether it was blown at the end.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The objective: at most 5 % of requests may take longer than 50 ms,
/// the interactive deadline class in `crates/serve`.
pub const TARGET_US: u64 = 50_000;
/// The allowed violation share in milli-units (50 = 5 %).
pub const BUDGET_MILLI: u64 = 50;

/// Lock-free latency-SLO tracker; all methods are safe under concurrent
/// recording from serve workers.
#[derive(Default)]
pub struct SloTracker {
    total: AtomicU64,
    violations: AtomicU64,
}

impl SloTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one request latency against the objective.
    pub fn record(&self, latency_us: u64) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if latency_us > TARGET_US {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Burn rate ×1000: `(violations/total) / (BUDGET_MILLI/1000) × 1000`,
    /// i.e. `violations × 1_000_000 / (total × BUDGET_MILLI)`. Zero when
    /// nothing was recorded.
    pub fn burn_rate_milli(&self) -> u64 {
        let total = self.total.load(Ordering::Relaxed);
        if total == 0 {
            return 0;
        }
        let violations = self.violations.load(Ordering::Relaxed);
        violations.saturating_mul(1_000_000) / total.saturating_mul(BUDGET_MILLI)
    }

    /// Clear observed counts.
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
        assert_eq!(s.burn_rate_milli(), 0);
        for _ in 0..95 {
            s.record(TARGET_US);
        }
        for _ in 0..5 {
            s.record(TARGET_US + 1);
        }
        // 5% violations against a 5% budget: burning at exactly 1×.
        assert_eq!(s.total(), 100);
        assert_eq!(s.violations(), 5);
        assert_eq!(s.burn_rate_milli(), 1_000);
        for _ in 0..5 {
            s.record(2 * TARGET_US);
        }
        // ~9.5% violations: just under 2×.
        assert!(s.burn_rate_milli() > 1_800, "{}", s.burn_rate_milli());
    }

    #[test]
    fn reset_clears_counts() {
        let s = SloTracker::new();
        s.record(TARGET_US + 1);
        s.reset();
        assert_eq!(s.total(), 0);
        assert_eq!(s.violations(), 0);
        assert_eq!(s.burn_rate_milli(), 0);
        // One violation in one request against a 5% budget: 20×.
        s.record(TARGET_US + 1);
        assert_eq!(s.burn_rate_milli(), 20_000);
    }
}
