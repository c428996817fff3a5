//! `Q(a, b, w)` answered four ways must be one answer: by SPATE scanning
//! what its store holds (`SpateFramework::query`: the serialized text of
//! the Path backend, the column pieces of the CAS backend, unsharded and
//! at 1 / 2 / 4 shards), by projecting whole decoded snapshots
//! (`project_snapshots` over `load_epoch`), by the RAW row-store oracle,
//! which shares none of the scan code, and by the serving tier streaming
//! it to a client over 1 and 2 shards.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spate::core::framework::{ExplorationFramework, RawFramework, SpateFramework};
use spate::core::query::{project_snapshots, ExactResult, Query, QueryResult};
use spate::core::shard::{canonical_sort, ShardedSpate};
use spate::core::DecayPolicy;
use spate::serve::{Reply, ServeConfig, Server};
use spate::trace::cells::BoundingBox;
use spate::trace::schema::{Schema, TableKind};
use spate::trace::time::{EpochId, EPOCHS_PER_DAY};
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
    // The CAS answers came off columns, and never off more tables than
    // `a` selects from: at most two an epoch opened.
    let stats = cas.store().cas().expect("the CAS backend").stats();
    assert!(
        stats.tables_read > 0 && stats.tables_read < 2 * stats.gets,
        "{stats:?}"
    );
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

#[test]
fn the_served_answer_is_the_frameworks_answer() {
    // Three days under a one-day retention: day 0 has decayed into its
    // highlights, days 1 and 2 are at full resolution.
    let generator = TraceGenerator::new(TraceConfig::scaled(1.0 / 2048.0).with_days(3));
    let layout = generator.layout().clone();
    let snaps: Vec<Snapshot> = generator.collect();
    let warehouse = || {
        SpateFramework::in_memory(layout.clone()).with_decay(DecayPolicy {
            full_resolution_days: 1,
            day_highlight_days: 100,
            month_highlight_days: 100,
            year_highlight_days: 100,
        })
    };
    let mut direct = warehouse();
    for s in &snaps {
        direct.ingest(s);
    }

    // The random queries moved into the retained days, then day 0 and a
    // window of next year.
    let retained = 2 * EPOCHS_PER_DAY;
    let mut queries: Vec<Query> = random_queries(&layout, 0x5ca7, 40)
        .into_iter()
        .map(|q| {
            let (start, end) = (q.window.0 .0, q.window.1 .0);
            q.with_epoch_range(retained + start, retained + end)
        })
        .collect();
    let anywhere = Query::new(&["upflux", "call_drops"], BoundingBox::everything());
    queries.push(anywhere.clone().with_epoch_range(0, EPOCHS_PER_DAY - 1));
    queries.push(anywhere.with_epoch_range(20_000, 20_003));

    for n_shards in [1, 2] {
        let shards = ShardedSpate::new((0..n_shards).map(|_| warehouse()).collect());
        for s in &snaps {
            shards.ingest(s);
        }
        let server = Server::start_sharded(shards, ServeConfig::default());
        let mut client = server.connect();
        let (mut rows_seen, mut summaries, mut unavailable) = (0, 0, 0);
        for q in &queries {
            let attributes: Vec<&str> = q.attributes.iter().map(String::as_str).collect();
            let window = (q.window.0 .0, q.window.1 .0);
            let served = client.explore(&attributes, q.bbox, window).unwrap();
            match (direct.query(q), served) {
                (
                    QueryResult::Exact(want),
                    Reply::Rows {
                        tables,
                        mut rows,
                        coverage,
                        total_rows,
                    },
                ) => {
                    let want = sorted(want);
                    assert_eq!(coverage, None, "a healthy warehouse, {q:?}");
                    assert_eq!(tables[0].columns, want.cdr.column_names, "{q:?}");
                    assert_eq!(tables[1].columns, want.nms.column_names, "{q:?}");
                    rows.iter_mut().for_each(|table| canonical_sort(table));
                    assert_eq!(rows, [want.cdr.rows, want.nms.rows], "{q:?}");
                    assert_eq!(total_rows as usize, rows[0].len() + rows[1].len());
                    rows_seen += total_rows;
                }
                (
                    QueryResult::Summary {
                        resolution,
                        highlights,
                    },
                    served,
                ) => {
                    let want = Reply::Summary {
                        resolution: resolution.label().to_string(),
                        cdr_records: highlights.cdr_records,
                        nms_records: highlights.nms_records,
                        cells: highlights.per_cell.len() as u32,
                    };
                    assert_eq!(served, want, "{q:?}");
                    summaries += 1;
                }
                (QueryResult::Unavailable, Reply::Unavailable) => unavailable += 1,
                (want, served) => panic!("{n_shards} shards, {q:?}: {served:?} for {want:?}"),
            }
        }
        assert!(rows_seen > 300, "the queries select something: {rows_seen}");
        assert_eq!((summaries, unavailable), (1, 1));
        assert_eq!(server.shutdown().protocol_errors, 0);
    }
}
