//! Semantic invariants of `Q(a, b, w)` across the SPATE stack: results
//! must be monotone in both the window and the box, summaries must agree
//! with exact counts, and the three frameworks must agree with each other.

use spate_core::framework::{ExplorationFramework, RawFramework, SpateFramework};
use spate_core::index::highlights::Resolution;
use spate_core::query::{Query, QueryResult};
use telco_trace::cells::BoundingBox;
use telco_trace::time::EpochId;
use telco_trace::{Snapshot, TraceConfig, TraceGenerator};

fn fixtures(n: usize) -> (RawFramework, SpateFramework, Vec<Snapshot>) {
    let mut generator = TraceGenerator::new(TraceConfig::scaled(1.0 / 256.0));
    let layout = generator.layout().clone();
    let mut raw = RawFramework::in_memory(layout.clone());
    let mut spate = SpateFramework::in_memory(layout);
    let snaps: Vec<Snapshot> = (&mut generator).take(n).collect();
    for s in &snaps {
        raw.ingest(s);
        spate.ingest(s);
    }
    (raw, spate, snaps)
}

fn rows(fw: &dyn ExplorationFramework, q: &Query) -> usize {
    match fw.query(q) {
        QueryResult::Exact(e) => e.cdr.rows.len(),
        other => panic!("expected exact result, got {other:?}"),
    }
}

#[test]
fn row_counts_are_monotone_in_the_window() {
    let (raw, spate, _) = fixtures(10);
    let bbox = BoundingBox::everything();
    let mut prev = 0usize;
    for end in 0..10u32 {
        let q = Query::new(&["upflux"], bbox).with_epoch_range(0, end);
        let n_raw = rows(&raw, &q);
        let n_spate = rows(&spate, &q);
        assert_eq!(n_raw, n_spate, "frameworks agree at end={end}");
        assert!(n_spate >= prev, "wider window can't lose rows");
        prev = n_spate;
    }
}

#[test]
fn row_counts_are_monotone_in_the_box() {
    let (_, spate, _) = fixtures(6);
    let side = telco_trace::cells::REGION_SIDE_M;
    let mut prev = 0usize;
    for frac in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let bbox = BoundingBox::new(0.0, 0.0, side * frac, side * frac);
        let q = Query::new(&["upflux"], bbox).with_epoch_range(0, 5);
        let n = rows(&spate, &q);
        assert!(n >= prev, "larger box can't lose rows: {n} < {prev}");
        prev = n;
    }
    // The full box equals an unfiltered scan.
    let all: usize = spate
        .scan(EpochId(0), EpochId(5))
        .iter()
        .map(|s| s.cdr.len())
        .sum();
    assert_eq!(prev, all);
}

#[test]
fn summary_counters_match_exact_row_counts() {
    // Before decay, a day node's highlight counters must equal what a full
    // scan of that day returns — the OLAP cube is consistent with its base.
    let (_, spate, snaps) = fixtures(12);
    let day = &spate.index().nodes(Resolution::Day)[&0];
    let direct_cdr: u64 = snaps.iter().map(|s| s.cdr.len() as u64).sum();
    let direct_nms: u64 = snaps.iter().map(|s| s.nms.len() as u64).sum();
    assert_eq!(day.highlights.cdr_records, direct_cdr);
    assert_eq!(day.highlights.nms_records, direct_nms);

    // Per-cell drill-down agrees with a manual group-by.
    let mut per_cell: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for s in &snaps {
        for r in &s.cdr {
            let cell = r.get(telco_trace::schema::cdr::CELL_ID).as_i64().unwrap() as u32;
            *per_cell.entry(cell).or_insert(0) += 1;
        }
    }
    for (cell, count) in per_cell {
        assert_eq!(
            day.highlights.per_cell[&cell].cdr_records, count,
            "cell {cell}"
        );
    }
}

#[test]
fn projection_column_order_follows_the_query() {
    let (_, spate, _) = fixtures(2);
    let q = Query::new(
        &["downflux", "caller_id", "upflux"],
        BoundingBox::everything(),
    )
    .with_epoch_range(0, 1);
    let QueryResult::Exact(e) = spate.query(&q) else {
        panic!("expected exact");
    };
    assert_eq!(e.cdr.column_names, vec!["downflux", "caller_id", "upflux"]);
    for row in &e.cdr.rows {
        assert_eq!(row.len(), 3);
    }
}

#[test]
fn empty_boxes_and_windows_return_empty_exact_results() {
    let (_, spate, _) = fixtures(3);
    // A zero-area box in an empty corner.
    let q = Query::new(&["upflux"], BoundingBox::new(0.0, 0.0, 0.0, 0.0)).with_epoch_range(0, 2);
    let QueryResult::Exact(e) = spate.query(&q) else {
        panic!("expected exact");
    };
    // Only cells exactly at the origin could match; certainly far fewer
    // rows than the full region, usually zero.
    assert!(e.cdr.rows.len() <= 3);
}
