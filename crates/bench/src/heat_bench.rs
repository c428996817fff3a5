//! `repro heat` — per-query cost accounting and the system-wide heat
//! ledger over a seeded exploration workload.
//!
//! The experiment answers the two operator questions the observability
//! layer exists for, end to end and deterministically:
//!
//! * **"What did query R cost?"** — every query runs under an
//!   [`obs::cost`] guard ([`spate_core::profile_query`] for explorations,
//!   [`spate_sql::query_profiled`] for the paper's T1/T4 as SQL) and the
//!   experiment gates on every profile *reconciling*: bytes per source
//!   sum to the total, nothing unattributed.
//! * **"Which epochs are hot?"** — the skewed workload (half the queries
//!   land on the most recent epochs) must separate the temporal index's
//!   heat ledger into non-trivial hot/warm/cold bands, and those bands
//!   must survive a persist + restore round-trip byte-identically.
//!
//! Everything but the wall time is a pure function of `(seed, scale,
//! days)`, so `BENCH_HEAT.json` is timing-free.

use crate::report::{Report, Value};
use crate::setup::BenchConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spate_core::framework::{ExplorationFramework, SpateFramework};
use spate_core::{profile_query, Query};
use spate_sql::{parser, query_profiled, SqlContext};
use std::collections::BTreeSet;
use telco_trace::cells::BoundingBox;
use telco_trace::time::{EpochId, EPOCHS_PER_DAY};

/// Everything `repro heat` prints. All fields except [`wall_secs`] and
/// [`index_image_bytes`]'s storage timing are pure functions of the seed
/// and the bench config.
///
/// [`wall_secs`]: HeatBenchReport::wall_secs
/// [`index_image_bytes`]: HeatBenchReport::index_image_bytes
pub struct HeatBenchReport {
    pub seed: u64,
    pub epochs_ingested: u32,
    /// Explore queries profiled (excludes the two SQL tasks).
    pub queries_run: usize,
    /// Summed over every profile (explores + T1 + T4).
    pub bytes_read_total: u64,
    pub bytes_decompressed_total: u64,
    pub rows_scanned: u64,
    pub rows_returned: u64,
    /// Union of epochs touched across all profiles.
    pub epochs_touched: usize,
    /// Σ `unattributed_bytes()` — the zero-cost-leak gate.
    pub leak_bytes: u64,
    /// Every profile passed `CostProfile::reconciles()`.
    pub profiles_reconcile: bool,
    /// T1's deterministic profile rows (`time.*` entries dropped).
    pub t1_metrics: Vec<(String, String)>,
    pub t1_rows: usize,
    /// T4's deterministic profile rows (`time.*` entries dropped).
    pub t4_metrics: Vec<(String, String)>,
    pub t4_rows: usize,
    /// Heat-band census after the workload.
    pub hot: usize,
    pub warm: usize,
    pub cold: usize,
    pub tracked_epochs: usize,
    pub ledger_tick: u64,
    /// `(epoch, heat_milli, accesses)` of the five hottest epochs. Heat is
    /// reported in thousandths so the diffable line never prints a float.
    pub top_epochs: Vec<(u32, u64, u64)>,
    /// `(attribute, accesses)` of the three hottest attributes.
    pub top_attributes: Vec<(String, u64)>,
    /// JSON + Prometheus exports render and carry the band census.
    pub exports_consistent: bool,
    /// Gzip'd index image size from `persist_index` (content-deterministic).
    pub index_image_bytes: u64,
    /// `HeatReport::bands()` identical before persist and after restore.
    pub restart_bands_identical: bool,
    pub restart_tracked_epochs: usize,
    /// Timing-dependent.
    pub wall_secs: f64,
}

impl HeatBenchReport {
    pub fn report(&self) -> Report {
        let mut r = Report::new("heat", Some("BENCH_HEAT.json"));
        r.det("seed", self.seed);
        r.det("epochs_ingested", self.epochs_ingested);
        r.det("queries_run", self.queries_run);
        r.det("bytes_read_total", self.bytes_read_total).at_least(1);
        r.det("bytes_decompressed_total", self.bytes_decompressed_total);
        r.det("rows_scanned", self.rows_scanned).at_least(1);
        r.det("rows_returned", self.rows_returned);
        r.det("epochs_touched", self.epochs_touched).at_least(1);
        // The zero-cost-leak gate: a sum over every profile, T1 and T4
        // included, so zero here is zero `unattributed_bytes` in each.
        r.det("leak_bytes", self.leak_bytes).eq(0);
        r.det("profiles_reconcile", self.profiles_reconcile)
            .eq(true);
        // The skewed workload must separate the bands.
        r.det("hot", self.hot).at_least(1);
        r.det("warm", self.warm);
        r.det("cold", self.cold);
        r.det("tracked_epochs", self.tracked_epochs)
            .holds(">= hot + warm", self.tracked_epochs >= self.hot + self.warm);
        r.det("ledger_tick", self.ledger_tick);
        r.det("top_epoch", self.top_epochs.first().map_or(0, |e| e.0));
        let top = self.top_attributes.first();
        r.det("top_attribute", top.map_or("", |(a, _)| a.as_str()));
        r.det("t1_result_rows", self.t1_rows);
        r.det("t4_result_rows", self.t4_rows);
        r.det("exports_consistent", self.exports_consistent)
            .eq(true);
        r.det("restart_bands_identical", self.restart_bands_identical)
            .eq(true);
        r.det_console("restart_tracked_epochs", self.restart_tracked_epochs)
            .eq_field("tracked_epochs");
        r.det("index_image_bytes", self.index_image_bytes)
            .at_least(1);
        let top = self.top_epochs.iter();
        let top = top.map(|(e, heat, n)| format!("epoch={e} heat_milli={heat} accesses={n}"));
        r.det_console("top_epochs", Value::Lines(top.collect()));
        let top = self.top_attributes.iter();
        let top = top.map(|(a, n)| format!("attribute={a} accesses={n}"));
        r.det_console("top_attributes", Value::Lines(top.collect()));
        // The rows EXPLAIN ANALYZE would print for the paper's T1 and T4.
        let rows = |m: &[(String, String)]| {
            Value::Lines(
                m.iter()
                    .map(|(metric, v)| format!("{metric}={v}"))
                    .collect(),
            )
        };
        r.det_console("t1", rows(&self.t1_metrics));
        r.det_console("t4", rows(&self.t4_metrics));
        r.perf("wall_secs", Value::Float(self.wall_secs, 3));
        r
    }
}

/// The attribute pool the skewed workload draws from, hottest-first by
/// construction (upflux is in every query).
const ATTRIBUTES: [&str; 3] = ["upflux", "downflux", "call_drops"];

/// Number of explore queries in the seeded workload.
const EXPLORE_QUERIES: usize = 64;

/// Run the cost-accounting / heat-ledger experiment. Panics on storage
/// errors (the bench DFS is fault-free here).
pub fn heat_experiment(config: &BenchConfig, seed: u64) -> HeatBenchReport {
    let t0 = std::time::Instant::now();
    let total_epochs = config.days * EPOCHS_PER_DAY;
    assert!(config.days >= 2, "heat experiment needs at least 2 days");

    // One SPATE warehouse; the dfs handle is shared so the restored
    // framework later reads the same simulated cluster.
    let dfs = config.dfs();
    let mut generator = config.generator();
    let layout = generator.layout().clone();
    let mut fw = SpateFramework::new(dfs.clone(), layout.clone());
    let mut ingested = 0u32;
    for _ in 0..total_epochs {
        let Some(snapshot) = generator.next_snapshot() else {
            break;
        };
        fw.ingest(&snapshot);
        ingested += 1;
    }

    // Seeded, recency-skewed exploration workload: half the queries land
    // on the hot zone (the 12 newest epochs), a third on the newest day,
    // the rest anywhere — the shape that separates the heat bands.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut profiles = Vec::with_capacity(EXPLORE_QUERIES + 2);
    let last = ingested.saturating_sub(1);
    for _ in 0..EXPLORE_QUERIES {
        let len = rng.gen_range(1..=4u32);
        let zone = rng.gen_range(0..100u32);
        let hi_start = last.saturating_sub(len - 1);
        let start = if zone < 50 {
            rng.gen_range(last.saturating_sub(11)..=hi_start)
        } else if zone < 83 {
            rng.gen_range(last.saturating_sub(EPOCHS_PER_DAY - 1)..=hi_start)
        } else {
            rng.gen_range(0..=hi_start)
        };
        let mut attrs: Vec<&str> = vec![ATTRIBUTES[0]];
        if rng.gen_range(0..2u32) == 0 {
            attrs.push(ATTRIBUTES[1]);
        }
        if rng.gen_range(0..4u32) == 0 {
            attrs.push(ATTRIBUTES[2]);
        }
        let q = Query::new(&attrs, BoundingBox::everything())
            .with_epoch_range(start, (start + len - 1).min(last));
        let (_result, profile) = profile_query(&fw, &q);
        profiles.push(profile);
    }

    // The paper's T1 (equality) and T4 (self-join) as SQL, profiled by
    // the same machinery `EXPLAIN ANALYZE` uses. Windows follow the
    // response experiment's convention, clamped to short traces.
    let base = (config.days.min(5) - 1) * EPOCHS_PER_DAY;
    let t1_epoch = EpochId(base + 24);
    let t4_window = (EpochId(base + 14), EpochId(base + 21));

    let t1_stmt = parser::parse("SELECT upflux, downflux FROM CDR").expect("t1 sql");
    let t1_ctx = SqlContext::new(&fw, t1_epoch, t1_epoch);
    let (t1_result, t1_profile) = query_profiled(&t1_ctx, &t1_stmt).expect("t1 run");

    let t4_stmt = parser::parse(
        "SELECT a.caller_id, a.cell_id, b.cell_id FROM CDR a, CDR b \
         WHERE a.caller_id = b.caller_id AND a.cell_id != b.cell_id",
    )
    .expect("t4 sql");
    let t4_ctx = SqlContext::new(&fw, t4_window.0, t4_window.1);
    let (t4_result, t4_profile) = query_profiled(&t4_ctx, &t4_stmt).expect("t4 run");

    // Aggregate cost accounting across every profile; the acceptance
    // gates are leak_bytes == 0 and profiles_reconcile == true.
    profiles.push(t1_profile.clone());
    profiles.push(t4_profile.clone());
    let mut bytes_read_total = 0u64;
    let mut bytes_decompressed_total = 0u64;
    let mut rows_scanned = 0u64;
    let mut rows_returned = 0u64;
    let mut leak_bytes = 0u64;
    let mut touched: BTreeSet<u64> = BTreeSet::new();
    let mut profiles_reconcile = true;
    for p in &profiles {
        bytes_read_total += p.bytes_read_total;
        bytes_decompressed_total += p.bytes_decompressed_total;
        rows_scanned += p.rows_scanned;
        rows_returned += p.rows_returned;
        leak_bytes += p.unattributed_bytes();
        touched.extend(p.epochs_touched.iter().copied());
        profiles_reconcile &= p.reconciles();
    }

    // Heat census, exports, and the restart round-trip.
    let heat = fw.index().heat();
    heat.publish_gauges();
    let report = heat.report();
    let json = report.to_json();
    let prom = report.to_prometheus();
    let exports_consistent = json.contains("\"tick\"")
        && json.contains("\"bands\"")
        && prom.contains("spate_heat_band_total")
        && prom.contains(&format!("{}", report.hot));

    let top_epochs = report
        .epochs
        .iter()
        .take(5)
        .map(|e| (e.epoch.0, (e.heat * 1000.0).round() as u64, e.accesses))
        .collect();
    let top_attributes = report
        .attributes
        .iter()
        .take(3)
        .map(|(name, _, accesses)| (name.clone(), *accesses))
        .collect();

    let index_image_bytes = fw.persist_index().expect("persist index image");
    let restored = SpateFramework::restore(dfs, layout).expect("restore warehouse");
    let restored_report = restored.index().heat().report();
    let restart_bands_identical = restored_report.bands() == report.bands();

    let strip_timings = |p: &obs::CostProfile| {
        p.rows()
            .into_iter()
            .filter(|(metric, _)| !metric.starts_with("time."))
            .collect::<Vec<_>>()
    };

    HeatBenchReport {
        seed,
        epochs_ingested: ingested,
        queries_run: EXPLORE_QUERIES,
        bytes_read_total,
        bytes_decompressed_total,
        rows_scanned,
        rows_returned,
        epochs_touched: touched.len(),
        leak_bytes,
        profiles_reconcile,
        t1_metrics: strip_timings(&t1_profile),
        t1_rows: t1_result.len(),
        t4_metrics: strip_timings(&t4_profile),
        t4_rows: t4_result.len(),
        hot: report.hot,
        warm: report.warm,
        cold: report.cold,
        tracked_epochs: report.epochs.len(),
        ledger_tick: report.tick,
        top_epochs,
        top_attributes,
        exports_consistent,
        index_image_bytes,
        restart_bands_identical,
        restart_tracked_epochs: restored_report.epochs.len(),
        wall_secs: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        BenchConfig {
            scale: 1.0 / 4096.0,
            days: 2,
            throttled: false,
        }
    }

    #[test]
    fn different_seeds_shift_the_workload() {
        let (a, b) = (heat_experiment(&tiny(), 1), heat_experiment(&tiny(), 2));
        // Same trace, different queries: totals may coincide but the
        // per-epoch access pattern should not be identical.
        assert!(
            a.top_epochs != b.top_epochs || a.bytes_read_total != b.bytes_read_total,
            "two seeds produced an identical workload"
        );
        // The SQL profiles carry the rows EXPLAIN ANALYZE would print,
        // minus the timing entries.
        let names: Vec<&str> = a.t1_metrics.iter().map(|(m, _)| m.as_str()).collect();
        assert!(names.contains(&"rows_scanned"));
        assert!(names.contains(&"unattributed_bytes"));
        assert!(!names.iter().any(|m| m.starts_with("time.")));
    }
}
