//! `repro cost` — per-query cost accounting over a seeded exploration
//! workload.
//!
//! The drill answers the operator question the cost profile exists for,
//! end to end and deterministically: **"what did query R cost?"** Every
//! query runs under an [`obs::cost`] guard ([`spate_core::profile_query`]
//! for explorations, [`spate_sql::query_profiled`] for the paper's T1/T4
//! as SQL) and the drill gates on every profile *reconciling*: bytes per
//! source sum to the total, nothing unattributed. Where the workload
//! went is read back from the same profiles (`epochs_touched`); nothing
//! else records an access.
//!
//! Everything but the wall time is a pure function of `(seed, scale,
//! days)`, so `BENCH_COST.json` is timing-free.

use crate::report::{Report, Value};
use crate::setup::{warehouse, BenchConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spate_core::{profile_query, DecayPolicy, Query};
use spate_sql::{parser, query_profiled, SqlContext};
use std::collections::BTreeMap;
use telco_trace::cells::BoundingBox;
use telco_trace::time::{EpochId, EPOCHS_PER_DAY};

/// The attribute pool the skewed workload draws from (upflux is in every
/// query).
const ATTRIBUTES: [&str; 3] = ["upflux", "downflux", "call_drops"];

/// Number of explore queries in the seeded workload.
const EXPLORE_QUERIES: usize = 64;

/// Run the cost-accounting drill. Panics on storage errors (the bench
/// DFS is fault-free here).
pub fn cost_experiment(config: &BenchConfig, seed: u64) -> Report {
    let t0 = std::time::Instant::now();
    let total_epochs = config.days * EPOCHS_PER_DAY;
    assert!(config.days >= 2, "cost experiment needs at least 2 days");

    let (fw, _) = warehouse(
        config.trace_config(),
        config.dfs(),
        DecayPolicy::never(),
        total_epochs as usize,
    );
    let ingested = fw.index().last_epoch().map_or(0, |e| e.0 + 1);

    // Seeded, recency-skewed exploration workload: half the queries land
    // on the 12 newest epochs, a third on the newest day, the rest
    // anywhere.
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

    // The rows EXPLAIN ANALYZE would print for the paper's T1 and T4,
    // minus the timing entries.
    let rows = |p: &obs::CostProfile| {
        let rows = p.rows().into_iter();
        let rows = rows.filter(|(metric, _)| !metric.starts_with("time."));
        Value::Lines(rows.map(|(metric, v)| format!("{metric}={v}")).collect())
    };
    let (t1_rows, t4_rows) = (rows(&t1_profile), rows(&t4_profile));

    // Aggregate cost accounting across every profile, T1 and T4
    // included, so a zero leak here is zero `unattributed_bytes` in each.
    profiles.extend([t1_profile, t4_profile]);
    let sum = |f: fn(&obs::CostProfile) -> u64| profiles.iter().map(f).sum::<u64>();
    // Profiles that touched each epoch: where the workload went.
    let mut touches: BTreeMap<u64, usize> = BTreeMap::new();
    for epoch in profiles.iter().flat_map(|p| &p.epochs_touched) {
        *touches.entry(*epoch).or_default() += 1;
    }
    // Most-touched first, the older epoch first among equals.
    let mut top: Vec<(u64, usize)> = touches.iter().map(|(e, n)| (*e, *n)).collect();
    top.sort_by_key(|&(e, n)| (std::cmp::Reverse(n), e));
    top.truncate(5);

    let index_image_bytes = fw.persist_index().expect("persist index image");

    let mut r = Report::new("cost", Some("BENCH_COST.json"));
    r.det("seed", seed);
    r.det("epochs_ingested", ingested);
    r.det("queries_run", EXPLORE_QUERIES);
    r.det("bytes_read_total", sum(|p| p.bytes_read_total))
        .at_least(1);
    r.det(
        "bytes_decompressed_total",
        sum(|p| p.bytes_decompressed_total),
    );
    r.det("rows_scanned", sum(|p| p.rows_scanned)).at_least(1);
    r.det("rows_returned", sum(|p| p.rows_returned));
    r.det("epochs_touched", touches.len()).at_least(1);
    r.det("leak_bytes", sum(|p| p.unattributed_bytes())).eq(0);
    r.det(
        "profiles_reconcile",
        profiles.iter().all(|p| p.reconciles()),
    )
    .eq(true);
    r.det("top_epoch", top.first().map_or(0, |t| t.0));
    r.det("t1_result_rows", t1_result.len());
    r.det("t4_result_rows", t4_result.len());
    // Gzip'd image size from `persist_index`: content-deterministic, and
    // the content is what was ingested.
    r.det("index_image_bytes", index_image_bytes).at_least(1);
    let top = top.iter().map(|(e, n)| format!("epoch={e} profiles={n}"));
    r.det_console("top_epochs", Value::Lines(top.collect()));
    r.det_console("t1", t1_rows);
    r.det_console("t4", t4_rows);
    r.perf("wall_secs", Value::Float(t0.elapsed().as_secs_f64(), 3));
    r
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
        let (a, b) = (cost_experiment(&tiny(), 1), cost_experiment(&tiny(), 2));
        // Same trace, different queries: the reports differ in more than
        // the seed they print.
        let workload = |r: &Report, seed: u64| {
            let lines = r.lines(false).join("\n");
            lines.replacen(&format!(" seed={seed}"), "", 1)
        };
        assert_ne!(workload(&a, 1), workload(&b, 2));
        assert_eq!(a.failed_gates(true), [""; 0]);
        // The SQL profiles carry the rows EXPLAIN ANALYZE would print,
        // minus the timing entries.
        let lines = a.lines(false);
        let t1: Vec<&str> = lines
            .iter()
            .filter_map(|l| l.strip_prefix("cost: t1 "))
            .collect();
        assert!(t1.iter().any(|l| l.starts_with("rows_scanned=")));
        assert!(t1.iter().any(|l| l.starts_with("unattributed_bytes=")));
        assert!(!t1.iter().any(|l| l.starts_with("time.")));
    }
}
