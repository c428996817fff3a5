//! The eight telco-specific workloads of the paper's evaluation (§VII-E):
//! T1 equality, T2 range, T3 aggregate, T4 join, T5 privacy — "basic
//! operational and analytical queries ... executed without Spark
//! parallelization" — and T6 statistics, T7 clustering, T8 regression —
//! "heavier computational tasks ... executed with Spark parallelization"
//! (here, the `engine` crate).
//!
//! Every task runs against an [`ExplorationFramework`], so RAW, SHAHED and
//! SPATE execute identical logic over their own storage paths — the
//! response-time comparison of Figs. 11–12.

use crate::framework::ExplorationFramework;
use engine::{
    colstats, correlation_matrix, kmeans, linreg_ridge, ColStats, Dataset, KMeansModel, LinearModel,
};
use privacy::{Anonymizer, Hierarchy};
use std::borrow::Cow;
use std::collections::HashMap;
use telco_trace::schema::{cdr, nms, TableKind};
use telco_trace::snapshot::Row;
use telco_trace::time::EpochId;

/// A task's measured wall-clock cost in seconds.
pub type Seconds = f64;

/// The T1/T2 projection of one CDR row.
fn flux(r: &Row<'_>) -> (i64, i64) {
    (
        r.i64(cdr::UPFLUX).unwrap_or(0),
        r.i64(cdr::DOWNFLUX).unwrap_or(0),
    )
}

/// T1 — Equality: "retrieve the download and upload bytes for a requested
/// snapshot, e.g. `SELECT upflux, downflux FROM CDR WHERE
/// ts='201601221530'`".
pub fn t1_equality(fw: &dyn ExplorationFramework, epoch: EpochId) -> (Vec<(i64, i64)>, Seconds) {
    let span = obs::span("core.task.t1_equality");
    let ts = epoch.civil().compact();
    let mut rows = Vec::new();
    fw.scan_rows(epoch, epoch, TableKind::Cdr, &mut |_, cdr_rows| {
        let matching = cdr_rows.iter().filter(|r| r.text(cdr::TS_START) == ts);
        rows.extend(matching.map(flux));
    });
    (rows, span.finish_secs())
}

/// T2 — Range: the same projection over a time window
/// (`WHERE ts >= … AND ts <= …`).
pub fn t2_range(
    fw: &dyn ExplorationFramework,
    start: EpochId,
    end: EpochId,
) -> (Vec<(i64, i64)>, Seconds) {
    let span = obs::span("core.task.t2_range");
    let mut rows = Vec::new();
    fw.scan_rows(start, end, TableKind::Cdr, &mut |_, cdr_rows| {
        rows.extend(cdr_rows.iter().map(flux));
    });
    (rows, span.finish_secs())
}

/// Output of T3: drop counters per cell and drop-call rate per cluster of
/// cells (grouped by controller).
#[derive(Debug, Clone)]
pub struct AggregateResult {
    pub drops_per_cell: HashMap<u32, i64>,
    pub drop_rate_per_cluster: HashMap<u32, f64>,
}

/// T3 — Aggregate: "retrieve the NMS counters for the drop calls of each
/// cell tower and calculate the drop call rate for each cluster of cells
/// (`SELECT cellid, SUM(val) FROM NMS WHERE … GROUP BY cellid`)".
pub fn t3_aggregate(
    fw: &dyn ExplorationFramework,
    start: EpochId,
    end: EpochId,
) -> (AggregateResult, Seconds) {
    let span = obs::span("core.task.t3_aggregate");
    let mut drops_per_cell: HashMap<u32, i64> = HashMap::new();
    let mut cluster_counts: HashMap<u32, (i64, i64)> = HashMap::new(); // (drops, attempts)
    let layout = fw.layout();
    fw.scan_rows(start, end, TableKind::Nms, &mut |_, nms_rows| {
        for r in nms_rows {
            let Some(cell_id) = r.i64(nms::CELL_ID) else {
                continue;
            };
            if cell_id < 0 || cell_id as usize >= layout.len() {
                continue;
            }
            let drops = r.i64(nms::CALL_DROPS).unwrap_or(0);
            let attempts = r.i64(nms::CALL_ATTEMPTS).unwrap_or(0);
            *drops_per_cell.entry(cell_id as u32).or_insert(0) += drops;
            let cluster = layout.get(cell_id as u32).controller_id;
            let entry = cluster_counts.entry(cluster).or_insert((0, 0));
            entry.0 += drops;
            entry.1 += attempts;
        }
    });
    let drop_rate_per_cluster = cluster_counts
        .into_iter()
        .map(|(cluster, (drops, attempts))| {
            (
                cluster,
                if attempts > 0 {
                    drops as f64 / attempts as f64
                } else {
                    0.0
                },
            )
        })
        .collect();
    (
        AggregateResult {
            drops_per_cell,
            drop_rate_per_cluster,
        },
        span.finish_secs(),
    )
}

/// A detected relocation: a subscriber observed at two different cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relocation {
    pub caller_id: String,
    pub from_cell: u32,
    pub to_cell: u32,
    pub from_epoch: EpochId,
    pub to_epoch: EpochId,
}

/// T4 — Join: "a self-join among two CDR tables ... identify the products
/// that have changed their location (as identified by the cell towers)".
///
/// Implemented as the paper describes it behaves: a nested loop whose
/// inner side re-reads the stored snapshots once per outer epoch — this is
/// the task where SPATE's compressed input streams win 4–5× over
/// uncompressed storage, because the repeated I/O dominates.
pub fn t4_join(
    fw: &dyn ExplorationFramework,
    start: EpochId,
    end: EpochId,
) -> (Vec<Relocation>, Seconds) {
    let span = obs::span("core.task.t4_join");
    let mut out = Vec::new();
    fw.scan_rows(start, end, TableKind::Cdr, &mut |from_epoch, outer| {
        if from_epoch == end {
            return; // no later epoch to have moved to
        }
        // Caller → cell in the outer epoch, keyed by the lent rows' text.
        let mut outer_cells: HashMap<Cow<'_, str>, u32> = HashMap::new();
        for r in outer {
            if let Some(cell) = r.i64(cdr::CELL_ID) {
                if cell >= 0 {
                    outer_cells.insert(r.text(cdr::CALLER_ID), cell as u32);
                }
            }
        }
        // Inner side: re-read every later epoch from storage.
        let later = EpochId(from_epoch.0 + 1);
        fw.scan_rows(later, end, TableKind::Cdr, &mut |to_epoch, inner| {
            for r in inner {
                let caller = r.text(cdr::CALLER_ID);
                let Some(&from_cell) = outer_cells.get(caller.as_ref()) else {
                    continue;
                };
                let Some(to_cell) = r.i64(cdr::CELL_ID) else {
                    continue;
                };
                if to_cell >= 0 && to_cell as u32 != from_cell {
                    out.push(Relocation {
                        caller_id: caller.into_owned(),
                        from_cell,
                        to_cell: to_cell as u32,
                        from_epoch,
                        to_epoch,
                    });
                }
            }
        });
    });
    (out, span.finish_secs())
}

/// T5 — Privacy: "retrieves and anonymizes the result set based on the
/// k-anonymity model ... generalizing, substituting ... and removing
/// information as appropriate to make the quasi-identifiers
/// indistinguishable among k rows."
///
/// Quasi-identifiers: caller MSISDN (digit masking), call duration
/// (widening ranges) and cell id (masking).
///
/// The one task that hands whole records on (the anonymized table keeps
/// every column): it scans the window's CDR rows, builds each row's
/// record in one pass ([`Row::record`]) and hands the records to the
/// anonymizer, which generalizes the kept ones in place.
pub fn t5_privacy(
    fw: &dyn ExplorationFramework,
    start: EpochId,
    end: EpochId,
    k: usize,
) -> (Option<privacy::AnonymizedTable>, Seconds) {
    let span = obs::span("core.task.t5_privacy");
    let mut records = Vec::new();
    fw.scan_rows(start, end, TableKind::Cdr, &mut |_, cdr_rows| {
        records.extend(cdr_rows.iter().map(|r| r.record(cdr::WIDTH)));
    });
    let result = t5_anonymizer(k).anonymize_owned(records);
    (result, span.finish_secs())
}

/// T5's anonymizer over CDR records: its three quasi-identifiers, `k`,
/// and up to 5 % of the records suppressed.
pub fn t5_anonymizer(k: usize) -> Anonymizer {
    Anonymizer::new(
        vec![
            (cdr::CALLER_ID, Hierarchy::MaskSuffix { levels: 10 }),
            (
                cdr::DURATION_S,
                Hierarchy::NumericRange {
                    base_width: 60.0,
                    levels: 6,
                },
            ),
            (cdr::CELL_ID, Hierarchy::MaskSuffix { levels: 4 }),
        ],
        k,
    )
    .with_suppression_limit(0.05)
}

/// Numeric CDR columns analyzed by T6/T8.
const T6_COLUMNS: [usize; 4] = [
    cdr::DURATION_S,
    cdr::UPFLUX,
    cdr::DOWNFLUX,
    cdr::BILLING_CLASS,
];

/// Output of T6: column statistics plus the Pearson correlation matrix
/// over the analyzed columns.
#[derive(Debug, Clone)]
pub struct StatisticsResult {
    pub col_stats: ColStats,
    /// `T6_COLUMNS.len()`-square Pearson correlation matrix.
    pub correlation: Vec<Vec<f64>>,
}

/// T6 — Statistics: "generate a variety of multivariate statistics ...
/// column-wise max, min, mean, variance, number of non-zeros and the total
/// count" (Spark's `Statistics.colStats`), plus the column correlation
/// matrix (`Statistics.corr`) — engine-parallelized.
pub fn t6_statistics(
    fw: &dyn ExplorationFramework,
    start: EpochId,
    end: EpochId,
) -> (Option<StatisticsResult>, Seconds) {
    let span = obs::span("core.task.t6_statistics");
    let mut rows: Vec<Vec<f64>> = Vec::new();
    fw.scan_rows(start, end, TableKind::Cdr, &mut |_, cdr_rows| {
        rows.extend(cdr_rows.iter().map(|r| {
            let column = |&c| r.f64(c).unwrap_or(0.0);
            T6_COLUMNS.iter().map(column).collect()
        }));
    });
    let dataset = Dataset::parallelize(rows);
    let result = match (
        colstats(dataset.clone(), T6_COLUMNS.len()),
        correlation_matrix(dataset, T6_COLUMNS.len()),
    ) {
        (Some(col_stats), Some(correlation)) => Some(StatisticsResult {
            col_stats,
            correlation,
        }),
        _ => None,
    };
    (result, span.finish_secs())
}

/// T7 — Clustering: "cluster a specific range of snapshots using the
/// k-means algorithm ... based on the CDR and NMS data."
///
/// Features per NMS report: cell site coordinates plus load counters.
pub fn t7_clustering(
    fw: &dyn ExplorationFramework,
    start: EpochId,
    end: EpochId,
    k: usize,
) -> (KMeansModel, Seconds) {
    let span = obs::span("core.task.t7_clustering");
    let layout = fw.layout();
    let mut points: Vec<Vec<f64>> = Vec::new();
    fw.scan_rows(start, end, TableKind::Nms, &mut |_, nms_rows| {
        for r in nms_rows {
            let Some(cell_id) = r.i64(nms::CELL_ID) else {
                continue;
            };
            if cell_id < 0 || cell_id as usize >= layout.len() {
                continue;
            }
            let cell = layout.get(cell_id as u32);
            points.push(vec![
                cell.x_m / 1000.0,
                cell.y_m / 1000.0,
                r.f64(nms::CALL_DROPS).unwrap_or(0.0),
                r.f64(nms::CALL_ATTEMPTS).unwrap_or(0.0),
            ]);
        }
    });
    let model = kmeans(&Dataset::parallelize(points), k, 20);
    (model, span.finish_secs())
}

/// T8 — Regression: "estimates relationships among the attributes ...
/// using linear regression over a specific temporal window" (Spark's
/// `regression.LinearRegression`).
///
/// Model: NMS `total_duration_s ~ attempts + drops + throughput`.
pub fn t8_regression(
    fw: &dyn ExplorationFramework,
    start: EpochId,
    end: EpochId,
) -> (Option<LinearModel>, Seconds) {
    let span = obs::span("core.task.t8_regression");
    let mut samples: Vec<(Vec<f64>, f64)> = Vec::new();
    fw.scan_rows(start, end, TableKind::Nms, &mut |_, nms_rows| {
        samples.extend(nms_rows.iter().map(|r| {
            let y = r.f64(nms::TOTAL_DURATION_S).unwrap_or(0.0);
            (
                vec![
                    r.f64(nms::CALL_ATTEMPTS).unwrap_or(0.0),
                    r.f64(nms::CALL_DROPS).unwrap_or(0.0),
                    r.f64(nms::THROUGHPUT_KBPS).unwrap_or(0.0) / 1000.0,
                ],
                y,
            )
        }));
    });
    // A whisper of ridge keeps quiet windows (all-zero drop columns)
    // solvable without meaningfully biasing the fit.
    let model = linreg_ridge(Dataset::parallelize(samples), 3, 1e-6);
    (model, span.finish_secs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::testutil::tiny_trace;
    use crate::framework::{RawFramework, SpateFramework};

    fn frameworks(n: usize) -> (RawFramework, SpateFramework, Vec<telco_trace::Snapshot>) {
        let (layout, snaps) = tiny_trace(n);
        let mut raw = RawFramework::in_memory(layout.clone());
        let mut spate = SpateFramework::in_memory(layout);
        for s in &snaps {
            raw.ingest(s);
            spate.ingest(s);
        }
        (raw, spate, snaps)
    }

    #[test]
    fn t1_returns_all_rows_of_the_epoch() {
        let (raw, spate, snaps) = frameworks(3);
        // Generated CDR all share the epoch's compact ts.
        let (rows_raw, _) = t1_equality(&raw, EpochId(1));
        let (rows_spate, _) = t1_equality(&spate, EpochId(1));
        assert_eq!(rows_raw.len(), snaps[1].cdr.len());
        assert_eq!(rows_raw, rows_spate, "frameworks must agree");
        // Missing epoch → empty.
        assert!(t1_equality(&raw, EpochId(77)).0.is_empty());
    }

    #[test]
    fn t2_concatenates_the_window() {
        let (raw, spate, snaps) = frameworks(4);
        let expected: usize = snaps[1..=3].iter().map(|s| s.cdr.len()).sum();
        let (rows_raw, _) = t2_range(&raw, EpochId(1), EpochId(3));
        let (rows_spate, _) = t2_range(&spate, EpochId(1), EpochId(3));
        assert_eq!(rows_raw.len(), expected);
        assert_eq!(rows_raw, rows_spate);
    }

    #[test]
    fn t3_aggregates_drop_counters() {
        let (raw, spate, snaps) = frameworks(3);
        let (agg_raw, _) = t3_aggregate(&raw, EpochId(0), EpochId(2));
        let (agg_spate, _) = t3_aggregate(&spate, EpochId(0), EpochId(2));
        assert_eq!(agg_raw.drops_per_cell, agg_spate.drops_per_cell);
        // Cross-check the total against a direct count.
        let direct: i64 = snaps
            .iter()
            .flat_map(|s| s.nms.iter())
            .filter_map(|r| r.get(nms::CALL_DROPS).as_i64())
            .sum();
        let total: i64 = agg_raw.drops_per_cell.values().sum();
        assert_eq!(total, direct);
        for rate in agg_raw.drop_rate_per_cluster.values() {
            assert!((0.0..=1.0).contains(rate), "rate {rate}");
        }
    }

    #[test]
    fn t4_finds_relocations_identically() {
        // Morning epochs carry enough traffic for repeat callers.
        let (raw, spate, _) = frameworks(20);
        let (r1, _) = t4_join(&raw, EpochId(12), EpochId(19));
        let (r2, _) = t4_join(&spate, EpochId(12), EpochId(19));
        assert_eq!(r1, r2);
        for rel in &r1 {
            assert_ne!(rel.from_cell, rel.to_cell);
            assert!(rel.from_epoch < rel.to_epoch);
        }
        // The mobility model (~10% movers) should produce some relocations.
        assert!(!r1.is_empty(), "expected at least one relocation");
    }

    #[test]
    fn t5_produces_k_anonymous_output() {
        let (raw, _, _) = frameworks(2);
        let k = 3;
        let (result, _) = t5_privacy(&raw, EpochId(0), EpochId(1), k);
        let table = result.expect("anonymization feasible");
        assert!(privacy::is_k_anonymous(
            &table.records,
            &[cdr::CALLER_ID, cdr::DURATION_S, cdr::CELL_ID],
            k
        ));
    }

    #[test]
    fn t6_statistics_match_between_frameworks() {
        let (raw, spate, _) = frameworks(3);
        let (s1, _) = t6_statistics(&raw, EpochId(0), EpochId(2));
        let (s2, _) = t6_statistics(&spate, EpochId(0), EpochId(2));
        let (s1, s2) = (s1.unwrap(), s2.unwrap());
        assert_eq!(s1.col_stats.count, s2.col_stats.count);
        assert_eq!(s1.col_stats.max, s2.col_stats.max);
        assert_eq!(s1.col_stats.mean, s2.col_stats.mean);
        assert!(s1.col_stats.count > 0);
        // upflux non-zeros only on DATA calls.
        assert!(s1.col_stats.non_zeros[1] < s1.col_stats.count);
        // upflux and downflux are strongly correlated by construction
        // (downflux is a multiple of upflux on DATA calls).
        assert!(s1.correlation[1][2] > 0.5, "{:?}", s1.correlation);
        assert_eq!(s1.correlation.len(), 4);
    }

    #[test]
    fn t7_clusters_nms_reports() {
        let (_, spate, _) = frameworks(3);
        let (model, _) = t7_clustering(&spate, EpochId(0), EpochId(2), 4);
        assert_eq!(model.centroids.len(), 4);
        assert!(model.inertia.is_finite());
        assert!(model.iterations >= 1);
    }

    #[test]
    fn t8_recovers_the_duration_attempts_relation() {
        let (_, spate, _) = frameworks(6);
        let (model, _) = t8_regression(&spate, EpochId(0), EpochId(5));
        let model = model.expect("regression feasible");
        // total_duration = attempts * U(20,120): slope on attempts ≈ 70.
        assert!(
            (30.0..120.0).contains(&model.weights[0]),
            "attempts weight {}",
            model.weights[0]
        );
        assert!(model.r2 > 0.5, "r2 {}", model.r2);
    }
}
