//! Shard-count invariance through the public facade: the same trace
//! partitioned any number of ways answers every query alike, and
//! partitioning loses no row.

use spate_core::query::{Query, QueryResult};
use spate_core::shard::{split_snapshot, ShardedSpate};
use telco_trace::cells::BoundingBox;
use telco_trace::{TraceConfig, TraceGenerator};

/// End-to-end shard-count invariance through the public facade: the same
/// trace partitioned 1, 2 and 5 ways answers every probe identically.
#[test]
fn query_answers_invariant_across_shard_counts() {
    let mut generator = TraceGenerator::new(TraceConfig::tiny());
    let layout = generator.layout().clone();
    let snaps: Vec<_> = (&mut generator).take(8).collect();

    let facades: Vec<ShardedSpate> = [1usize, 2, 5]
        .iter()
        .map(|&n| {
            let f = ShardedSpate::in_memory(layout.clone(), n);
            for s in &snaps {
                f.ingest(s);
            }
            f
        })
        .collect();

    let probes = [
        Query::new(&["record_id", "upflux"], BoundingBox::everything()).with_epoch_range(0, 7),
        Query::new(
            &["cell_id", "call_drops"],
            BoundingBox::new(0.0, 0.0, 40_000.0, 77_500.0),
        )
        .with_epoch_range(2, 5),
        Query::new(
            &["duration"],
            BoundingBox::new(70_000.0, 70_000.0, 77_000.0, 77_000.0),
        )
        .with_epoch_range(0, 3),
    ];
    for q in &probes {
        let mut answers = facades.iter().map(|f| f.query(q));
        let baseline = answers.next().unwrap();
        for other in answers {
            match (&baseline, &other) {
                (QueryResult::Exact(x), QueryResult::Exact(y)) => {
                    assert_eq!(x.cdr.rows, y.cdr.rows);
                    assert_eq!(x.nms.rows, y.nms.rows);
                    assert_eq!(x.cdr.column_names, y.cdr.column_names);
                    assert_eq!(x.nms.column_names, y.nms.column_names);
                }
                (QueryResult::Unavailable, QueryResult::Unavailable) => {}
                (a, b) => panic!("shard counts disagree: {a:?} vs {b:?}"),
            }
        }
    }
}

/// Splitting an epoch loses no rows.
#[test]
fn split_row_conservation() {
    let mut generator = TraceGenerator::new(TraceConfig::tiny());
    let snap = generator.next().unwrap();
    for n in [1usize, 3, 4, 9] {
        let parts = split_snapshot(&snap, n);
        assert_eq!(parts.len(), n);
        let cdr: usize = parts.iter().map(|p| p.cdr.len()).sum();
        let nms: usize = parts.iter().map(|p| p.nms.len()).sum();
        assert_eq!(cdr, snap.cdr.len());
        assert_eq!(nms, snap.nms.len());
    }
}
