//! `Q(a, b, w)` answered three ways must be one answer: by SPATE scanning
//! the serialized snapshot text (`SpateFramework::query`, over the Path
//! and the CAS backend, unsharded and at 1 / 2 / 4 shards), by projecting
//! whole decoded snapshots (`project_snapshots` over `load_epoch`), and
//! by the RAW row-store oracle, which shares none of the scan code.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spate::core::framework::{ExplorationFramework, RawFramework, SpateFramework};
use spate::core::query::{project_snapshots, ExactResult, Query, QueryResult};
use spate::core::shard::{canonical_sort, ShardedSpate};
use spate::trace::cells::BoundingBox;
use spate::trace::schema::{Schema, TableKind};
use spate::trace::time::EpochId;
use spate::trace::{CellLayout, Snapshot, TraceConfig, TraceGenerator};

const EPOCHS: u32 = 40;

fn trace() -> (CellLayout, Vec<Snapshot>) {
    let mut generator = TraceGenerator::new(TraceConfig::scaled(1.0 / 1024.0));
    let layout = generator.layout().clone();
    let snaps = (&mut generator).take(EPOCHS as usize).collect();
    (layout, snaps)
}

/// Seeded random queries: 0–5 attributes drawn from both schemas (so
/// duplicates, `cell_id`, single-table and empty selections all occur)
/// with an unknown name now and then; boxes from one cell's surroundings
/// to everything, and one holding no cell; windows of 1 to 24 epochs.
fn random_queries(layout: &CellLayout, seed: u64, n: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cdr = Schema::shared(TableKind::Cdr);
    let nms = Schema::shared(TableKind::Nms);
    (0..n)
        .map(|i| {
            let mut attributes: Vec<&str> = (0..rng.gen_range(0..=5usize))
                .map(|_| match rng.gen_range(0..10u32) {
                    0 => "cell_id",
                    1 => "no_such_attribute",
                    2..=5 => nms.column_name(rng.gen_range(0..nms.width())),
                    // The core columns and a stretch of the filler ones.
                    _ => cdr.column_name(rng.gen_range(0..40usize) * 5 % cdr.width()),
                })
                .collect();
            if i % 7 == 0 {
                // One table unselected.
                attributes.retain(|a| nms.column_index(a).is_none());
            }
            let bbox = match rng.gen_range(0..6u32) {
                0 => BoundingBox::everything(),
                1 => BoundingBox::new(-9.0, -9.0, -1.0, -1.0),
                _ => {
                    let cell = layout.get(rng.gen_range(0..layout.len() as u32));
                    let half = rng.gen_range(500.0..30_000.0);
                    BoundingBox::new(
                        cell.x_m - half,
                        cell.y_m - half,
                        cell.x_m + half,
                        cell.y_m + half,
                    )
                }
            };
            let len = if i % 8 == 0 {
                24
            } else {
                rng.gen_range(1..=6u32)
            };
            let start = rng.gen_range(0..=EPOCHS - len);
            Query::new(&attributes, bbox).with_epoch_range(start, start + len - 1)
        })
        .collect()
}

fn exact(result: QueryResult) -> ExactResult {
    match result {
        QueryResult::Exact(e) => e,
        other => panic!("expected an exact answer, got {other:?}"),
    }
}

fn sorted(mut e: ExactResult) -> ExactResult {
    canonical_sort(&mut e.cdr.rows);
    canonical_sort(&mut e.nms.rows);
    e
}

#[test]
fn scan_projection_and_oracle_agree_on_random_queries() {
    let (layout, snaps) = trace();
    let mut oracle = RawFramework::in_memory(layout.clone());
    let mut path = SpateFramework::in_memory(layout.clone());
    let mut cas = SpateFramework::with_cas(spate::dfs::Dfs::in_memory(), layout.clone());
    for s in &snaps {
        oracle.ingest(s);
        path.ingest(s);
        cas.ingest(s);
    }
    let sharded: Vec<ShardedSpate> = [1usize, 2, 4]
        .into_iter()
        .flat_map(|n| {
            let path_shards = ShardedSpate::in_memory(layout.clone(), n);
            let cas_shards = ShardedSpate::new(
                (0..n)
                    .map(|_| SpateFramework::with_cas(spate::dfs::Dfs::in_memory(), layout.clone()))
                    .collect(),
            );
            [path_shards, cas_shards]
        })
        .collect();
    for fw in &sharded {
        for s in &snaps {
            fw.ingest(s);
        }
    }

    let queries = random_queries(&layout, 0x5ca7, 40);
    let mut rows = 0;
    for q in &queries {
        let want = exact(oracle.query(q));
        rows += want.cdr.rows.len() + want.nms.rows.len();
        for fw in [&path, &cas] {
            assert_eq!(exact(fw.query(q)), want, "{} scan of {q:?}", fw.name());
            let loaded: Vec<Snapshot> = (q.window.0 .0..=q.window.1 .0)
                .map(|e| fw.load_epoch(EpochId(e)).expect("stored epoch"))
                .collect();
            assert_eq!(project_snapshots(&loaded, q, &layout), want, "{q:?}");
        }
        let want = sorted(want);
        for fw in &sharded {
            assert_eq!(exact(fw.query(q)), want, "{} shards, {q:?}", fw.n_shards());
        }
    }
    assert!(rows > 1_000, "the queries select something: {rows} rows");
}

#[test]
fn a_leaf_with_a_bad_row_costs_exactly_its_epoch() {
    let (layout, snaps) = trace();
    let fs = spate::dfs::Dfs::in_memory();
    let mut spate = SpateFramework::new(fs.clone(), layout.clone());
    let mut oracle = RawFramework::in_memory(layout);
    for s in &snaps {
        spate.ingest(s);
    }
    // Epoch 30's leaf: valid rows, then one with a field too many.
    let bad = EpochId(30);
    assert!(snaps[30].nms.len() > 1);
    let mut text = snaps[30].to_bytes();
    text.truncate(text.len() - 1);
    text.extend_from_slice(b",1\n");
    let path = spate.store().path_for(bad);
    fs.delete(&path).unwrap();
    let codec = spate::codecs::by_name(spate.store().codec_name()).expect("the store's codec");
    fs.write(&path, &codec.compress(&text)).unwrap();
    for s in snaps.iter().filter(|s| s.epoch != bad) {
        oracle.ingest(s);
    }

    let q =
        Query::new(&["upflux", "call_drops"], BoundingBox::everything()).with_epoch_range(24, 35);
    let QueryResult::Partial { result, coverage } = spate.query(&q) else {
        panic!("expected a partial answer");
    };
    assert_eq!(coverage.requested, 12);
    assert_eq!(coverage.served, 11);
    assert_eq!(coverage.unavailable, 1);
    // The oracle never saw epoch 30: what SPATE returns is exactly the
    // other eleven epochs, although it had emitted epoch 30's leading
    // rows before it met the bad one.
    assert_eq!(result, exact(oracle.query(&q)));
}
