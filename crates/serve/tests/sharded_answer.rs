//! One sharded read: a served explore, `ShardedSpate::query` and the RAW
//! oracle give the same answer, on Path and CAS warehouses of 1, 2 and 4
//! shards, healthy or with one shard's leaf of one epoch deleted — that
//! epoch then counts as unavailable and none of its rows, from any
//! shard, reach either answer.

use dfs::Dfs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spate_core::framework::{ExplorationFramework, RawFramework, SpateFramework};
use spate_core::query::{ExactResult, Query, QueryResult};
use spate_core::shard::{canonical_sort, ShardedSpate};
use spate_serve::{Reply, ServeConfig, Server};
use telco_trace::cells::{BoundingBox, CellLayout};
use telco_trace::time::EpochId;
use telco_trace::{Snapshot, TraceConfig, TraceGenerator};

const EPOCHS: u32 = 8;

#[derive(Clone, Copy, Debug)]
enum Backend {
    Path,
    Cas,
}

/// A warehouse of `n` shards holding `snaps`, with shard `lost.0`'s leaf
/// of epoch `lost.1` deleted when `lost` is set.
fn facade(
    backend: Backend,
    layout: &CellLayout,
    n: usize,
    snaps: &[Snapshot],
    lost: Option<(usize, EpochId)>,
) -> ShardedSpate {
    let shard = || match backend {
        Backend::Path => SpateFramework::in_memory(layout.clone()),
        Backend::Cas => SpateFramework::with_cas(Dfs::in_memory(), layout.clone()),
    };
    let facade = ShardedSpate::new((0..n).map(|_| shard()).collect());
    for s in snaps {
        facade.ingest(s);
    }
    if let Some((shard, epoch)) = lost {
        assert!(facade.read(shard).store().evict(epoch).unwrap() > 0);
    }
    facade
}

/// Random boxes and windows over the trace, led by the whole region.
fn queries(layout: &CellLayout, seed: u64) -> Vec<Query> {
    const ATTRIBUTES: [&str; 6] = [
        "record_id",
        "upflux",
        "cell_id",
        "call_drops",
        "duration",
        "rssi_dbm",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries =
        vec![Query::new(&ATTRIBUTES, BoundingBox::everything()).with_epoch_range(0, EPOCHS - 1)];
    for _ in 0..10 {
        let attributes: Vec<&str> = ATTRIBUTES
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        let cell = layout.get(rng.gen_range(0..layout.len() as u32));
        let half = rng.gen_range(500.0..40_000.0);
        let bbox = BoundingBox::new(
            cell.x_m - half,
            cell.y_m - half,
            cell.x_m + half,
            cell.y_m + half,
        );
        let start = rng.gen_range(0..EPOCHS);
        let end = rng.gen_range(start..EPOCHS);
        queries.push(Query::new(&attributes, bbox).with_epoch_range(start, end));
    }
    queries
}

fn sorted(mut result: ExactResult) -> [Vec<Vec<telco_trace::record::Value>>; 2] {
    canonical_sort(&mut result.cdr.rows);
    canonical_sort(&mut result.nms.rows);
    [result.cdr.rows, result.nms.rows]
}

#[test]
fn served_facade_and_oracle_answers_are_one_answer() {
    let mut generator = TraceGenerator::new(TraceConfig::tiny());
    let layout = generator.layout().clone();
    let snaps: Vec<Snapshot> = (&mut generator).take(EPOCHS as usize).collect();
    let lost_epoch = snaps[2].epoch;
    let oracle = |lost: bool| {
        let mut raw = RawFramework::in_memory(layout.clone());
        for s in snaps.iter().filter(|s| !lost || s.epoch != lost_epoch) {
            raw.ingest(s);
        }
        raw
    };
    let (whole, degraded) = (oracle(false), oracle(true));

    let mut cases = Vec::new();
    for backend in [Backend::Path, Backend::Cas] {
        for n in [1, 2, 4] {
            cases.push((backend, n, None));
        }
        cases.push((backend, 2, Some((1, lost_epoch))));
    }
    for (nth, (backend, n, lost)) in cases.into_iter().enumerate() {
        let case = format!("{backend:?}, {n} shards, lost {lost:?}");
        let direct = facade(backend, &layout, n, &snaps, lost);
        let server = Server::start_sharded(
            facade(backend, &layout, n, &snaps, lost),
            ServeConfig::default(),
        );
        let mut client = server.connect();
        let (mut rows_seen, mut degraded_answers) = (0, 0);
        for q in queries(&layout, 0x5a4d + nth as u64) {
            let routed = direct.shards_for(&q.bbox);
            // A serve miss loads every shard, the facade the routed ones:
            // they agree on the lost epoch where `b` reaches its shard.
            if lost.is_some_and(|(shard, _)| !routed.contains(&shard)) {
                continue;
            }
            let hit = lost.is_some() && q.window.0 <= lost_epoch && lost_epoch <= q.window.1;
            let oracle = if hit { &degraded } else { &whole };
            let attributes: Vec<&str> = q.attributes.iter().map(String::as_str).collect();
            let window = (q.window.0 .0, q.window.1 .0);
            let served = client.explore(&attributes, q.bbox, window).unwrap();
            let Reply::Rows {
                mut rows, coverage, ..
            } = served
            else {
                panic!("{case}, {q:?}: {served:?}");
            };
            rows.iter_mut().for_each(|table| canonical_sort(table));
            let (answer, want_coverage) = match direct.query(&q) {
                QueryResult::Exact(result) => (result, None),
                QueryResult::Partial { result, coverage } => (result, Some(coverage)),
                other => panic!("{case}, {q:?}: {other:?}"),
            };
            assert_eq!(coverage, want_coverage, "{case}, {q:?}");
            let answer = sorted(answer);
            assert_eq!(rows, answer, "{case}, {q:?}: served vs facade");
            let want = match oracle.query(&q) {
                QueryResult::Exact(want) => sorted(want),
                // A window of the lost epoch alone: the oracle holds none.
                QueryResult::Unavailable => [vec![], vec![]],
                other => panic!("{case}, {q:?}: the oracle answered {other:?}"),
            };
            assert_eq!(answer, want, "{case}, {q:?}: facade vs oracle");
            rows_seen += answer[0].len() + answer[1].len();
            if hit {
                let c = coverage.expect("a degraded answer reports its coverage");
                assert_eq!((c.requested - c.served, c.unavailable), (1, 1), "{case}");
                degraded_answers += 1;
            } else {
                assert_eq!(coverage, None, "{case}, {q:?}");
            }
        }
        assert!(rows_seen > 100, "{case}: the queries select something");
        if lost.is_some() {
            assert!(degraded_answers > 1, "{case}: no query read the lost epoch");
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.shard_stats.len(), n);
        for st in &stats.shard_stats {
            assert!(st.queries > 0, "{case}: shard {} counted none", st.shard);
        }
        assert_eq!(server.shutdown().protocol_errors, 0);
    }
}
