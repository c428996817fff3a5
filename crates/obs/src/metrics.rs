//! Metric primitives: counters, gauges and log-bucketed histograms.
//!
//! All three are lock-free on the record path (plain atomics) so that a
//! single metric value can be hammered from every worker thread of the
//! engine without serializing them. Histograms use HDR-style buckets:
//! power-of-two ranges refined by `SUB` linear sub-buckets, which bounds
//! the relative quantile error to `1 / SUB` while keeping the whole
//! structure a fixed-size array of atomics.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event/byte counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed value (queue depths, cache occupancy, ...).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Linear sub-buckets per power-of-two range (log2).
const SUB_BITS: u32 = 5;
/// Linear sub-buckets per power-of-two range.
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count: one group of `SUB` exact buckets for values
/// `0..SUB`, then one group of `SUB` sub-buckets per exponent
/// `SUB_BITS..=63` — `(1 + 64 - SUB_BITS) * SUB` in all.
const N_BUCKETS: usize = (1 + 64 - SUB_BITS as usize) * SUB;

/// Map a value to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUB - 1);
    ((msb - SUB_BITS) as usize + 1) * SUB + sub
}

/// Inclusive lower bound of a bucket. Computed in `u128` because the
/// bound one past the final bucket is `2^64`, then saturated: callers
/// only use it for widths and monotonicity checks.
fn bucket_low(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let msb = (i / SUB - 1) as u32 + SUB_BITS;
    let sub = (i % SUB) as u128;
    let low = ((1u128 << SUB_BITS) | sub) << (msb - SUB_BITS);
    u64::try_from(low).unwrap_or(u64::MAX)
}

/// Representative (midpoint) value of a bucket, used for quantiles.
fn bucket_mid(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let low = bucket_low(i);
    let width = bucket_low(i + 1).saturating_sub(low);
    low + width / 2
}

/// A fixed-size log-bucketed histogram of `u64` observations
/// (nanoseconds, bytes, row counts...).
///
/// Power-of-two buckets with `SUB` linear sub-buckets each bound the
/// relative error of any reported quantile to `1/SUB` (~3%); `count`,
/// `sum`, `min` and `max` are exact.
pub struct Histogram {
    buckets: Box<[AtomicU64; N_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(f, "Histogram({s:?})")
    }
}

impl Histogram {
    pub fn new() -> Self {
        // Box the bucket array directly; a Vec round-trip would allocate
        // the same storage but without the fixed-size type.
        let buckets: Box<[AtomicU64; N_BUCKETS]> = (0..N_BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice()
            .try_into()
            .expect("bucket count is fixed");
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`); 0 on an empty histogram.
    /// The estimate is the recording bucket's midpoint, clamped to the
    /// exact observed min/max.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                let min = self.min.load(Ordering::Relaxed);
                let max = self.max.load(Ordering::Relaxed);
                return bucket_mid(i).clamp(min, max);
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Raw bucket occupancy counts. Two snapshots taken over time give a
    /// *windowed* view: subtract element-wise and feed the deltas to
    /// [`Histogram::quantile_of_counts`] for the quantile of just that
    /// window — how the meta-highlights monitor watches p99 drift without
    /// resetting the histogram.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimate the `q`-quantile of an explicit bucket-count vector (as
    /// produced by [`Histogram::bucket_counts`], or a delta of two such
    /// vectors); 0 when empty.
    pub fn quantile_of_counts(counts: &[u64], q: f64) -> u64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_mid(i);
            }
        }
        0
    }

    /// A consistent-enough point-in-time view (each field individually
    /// exact; fields may straddle concurrent records).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let c = Counter::default();
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
        let g = Gauge::default();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_mapping_is_monotone_and_consistent() {
        let mut last = 0usize;
        for v in (0u64..100_000).step_by(7) {
            let i = bucket_index(v);
            assert!(i >= last || bucket_low(i) == bucket_low(last));
            assert!(bucket_low(i) <= v, "low {} > v {}", bucket_low(i), v);
            assert!(
                v < bucket_low(i + 1),
                "v {} >= next {}",
                v,
                bucket_low(i + 1)
            );
            last = i;
        }
        // Extremes stay in range.
        assert!(bucket_index(u64::MAX) < N_BUCKETS);
        assert_eq!(bucket_index(0), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..SUB as u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), SUB as u64 - 1);
        assert_eq!(h.count(), SUB as u64);
        assert_eq!(h.sum(), (SUB as u64 * (SUB as u64 - 1)) / 2);
    }

    #[test]
    fn windowed_quantiles_from_bucket_deltas() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(100);
        }
        let before = h.bucket_counts();
        for _ in 0..100 {
            h.record(100_000);
        }
        let after = h.bucket_counts();
        let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        // The whole histogram's p50 straddles both bursts, but the
        // window saw only the slow one.
        let p50 = Histogram::quantile_of_counts(&delta, 0.50);
        assert!(p50 > 90_000, "{p50}");
        // Unclamped bucket midpoint: within 1/SUB relative error of 100.
        let p100 = Histogram::quantile_of_counts(&before, 1.0);
        assert!((97..=104).contains(&p100), "{p100}");
        assert_eq!(Histogram::quantile_of_counts(&[], 0.5), 0);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p99: 0
            }
        );
        assert_eq!(s.mean(), 0.0);
    }
}
