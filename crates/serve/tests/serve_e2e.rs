//! End-to-end serving tests: many concurrent seeded clients over one
//! warehouse, with ingest and decay striking mid-run.
//!
//! The load-bearing assertions mirror the CI smoke gate:
//!
//! * zero protocol errors under concurrency,
//! * zero stale reads after a mid-run decay (queries over the evicted
//!   day must answer with summaries, never with cached rows),
//! * per-client row totals are byte-identical across two runs with the
//!   same seed (the whole pipeline — classification, admission,
//!   caching, evaluation — is deterministic in its answers even though
//!   thread interleavings are not).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spate_core::framework::{ExplorationFramework, SpateFramework};
use spate_core::query::Query;
use spate_core::DecayPolicy;
use spate_serve::{Reply, ServeConfig, Server};
use std::sync::{Arc, Barrier};
use telco_trace::cells::BoundingBox;
use telco_trace::time::{EpochId, EPOCHS_PER_DAY};
use telco_trace::{Snapshot, TraceConfig, TraceGenerator};

const SCALE: f64 = 1.0 / 2048.0;

fn trace(days: u32, take: usize) -> (telco_trace::cells::CellLayout, Vec<Snapshot>) {
    let mut config = TraceConfig::scaled(SCALE);
    config.days = days;
    let mut generator = TraceGenerator::new(config);
    let layout = generator.layout().clone();
    let snaps: Vec<Snapshot> = (&mut generator).take(take).collect();
    (layout, snaps)
}

#[test]
fn explore_and_sql_match_the_direct_framework_paths() {
    let (layout, snaps) = trace(1, 6);
    let mut fw = SpateFramework::in_memory(layout.clone());
    for s in &snaps {
        fw.ingest(s);
    }
    // Ground truth from the framework before the server takes ownership.
    let q = Query::new(&["upflux", "downflux"], BoundingBox::everything()).with_epoch_range(1, 4);
    let direct_rows = fw.query(&q).row_count();
    let direct_count: usize = snaps[0..=3].iter().map(|s| s.cdr.len()).sum();

    let server = Server::start(fw, ServeConfig::default());
    let mut client = server.connect();

    match client
        .explore(&["upflux", "downflux"], BoundingBox::everything(), (1, 4))
        .unwrap()
    {
        Reply::Rows {
            tables,
            rows,
            coverage,
            total_rows,
        } => {
            assert_eq!(total_rows as usize, direct_rows);
            assert_eq!(tables[0].name, "CDR");
            assert_eq!(tables[0].columns, vec!["upflux", "downflux"]);
            assert_eq!(rows[0].len(), direct_rows, "all chunks reassembled");
            assert!(coverage.is_none(), "complete window has no coverage frame");
        }
        other => panic!("expected rows, got {other:?}"),
    }

    match client.sql((0, 3), "SELECT COUNT(*) FROM CDR").unwrap() {
        Reply::Rows { rows, .. } => {
            assert_eq!(
                rows[0][0][0],
                telco_trace::record::Value::Int(direct_count as i64)
            );
        }
        other => panic!("expected rows, got {other:?}"),
    }

    // A malformed SQL statement is an error frame, not a dead connection.
    match client.sql((0, 3), "SELEKT nonsense").unwrap() {
        Reply::ServerError { code, .. } => assert_eq!(code, spate_serve::proto::errcode::SQL),
        other => panic!("expected error, got {other:?}"),
    }
    // The connection still serves after the error.
    assert!(matches!(
        client.sql((0, 3), "SELECT COUNT(*) FROM NMS").unwrap(),
        Reply::Rows { .. }
    ));

    client.close();
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.queries, 4);
    assert!(stats.rows_streamed >= direct_rows as u64);
}

#[test]
fn cache_is_shared_across_clients_and_invalidated_by_ingest() {
    let (layout, snaps) = trace(1, 8);
    let mut fw = SpateFramework::in_memory(layout);
    for s in &snaps[..6] {
        fw.ingest(s);
    }
    let server = Server::start(fw, ServeConfig::default());

    let mut a = server.connect();
    let mut b = server.connect();
    let v0 = server.version();
    a.explore(&["upflux"], BoundingBox::everything(), (0, 3))
        .unwrap();
    // 4 window epochs + prefetch capped at the last ingested epoch (5).
    // The worker prefetches after flushing the Done frame, so give the
    // asynchronous part a bounded moment to land.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    let mut warm = server.cache_stats();
    while warm.inserts < 4 + 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
        warm = server.cache_stats();
    }
    assert_eq!(warm.inserts, 4 + 2);
    // Client b hits what client a warmed (plus the prefetch of 4..5).
    b.explore(&["upflux"], BoundingBox::everything(), (0, 5))
        .unwrap();
    let shared = server.cache_stats();
    assert!(shared.hits >= 6, "{shared:?}");

    // Ingest bumps the version and invalidates exactly that epoch.
    server.ingest(&snaps[6]);
    assert_eq!(server.version(), v0 + 1);
    let after = server.cache_stats();
    assert_eq!(after.invalidations, 0, "epoch 6 was never cached");

    a.close();
    b.close();
    server.shutdown();
}

#[test]
fn zooming_inside_a_served_window_is_answered_from_the_cache() {
    // Exactly 10 epochs, so look-ahead past epoch 9 has nothing to load
    // and every cache miss below belongs to a query.
    let (layout, snaps) = trace(1, 10);
    let mut fw = SpateFramework::in_memory(layout.clone());
    let mut twin = SpateFramework::in_memory(layout);
    for s in &snaps {
        fw.ingest(s);
        twin.ingest(s);
    }
    let server = Server::start(fw, ServeConfig::default());
    let mut client = server.connect();

    let side = telco_trace::cells::REGION_SIDE_M;
    let half = BoundingBox::new(0.0, 0.0, side / 2.0, side / 2.0);
    // Broad → narrow time → narrow space → re-broaden.
    let zooms = [
        (BoundingBox::everything(), (0, 9)),
        (BoundingBox::everything(), (3, 6)),
        (half, (4, 5)),
        (BoundingBox::everything(), (0, 9)),
    ];
    let mut before = server.cache_stats();
    for (bbox, window) in zooms {
        let q = Query::new(&["upflux"], bbox).with_epoch_range(window.0, window.1);
        match client.explore(&["upflux"], bbox, window).unwrap() {
            Reply::Rows { total_rows, .. } => {
                assert_eq!(total_rows as usize, twin.query(&q).row_count());
            }
            other => panic!("expected rows, got {other:?}"),
        }
        let now = server.cache_stats();
        if before.inserts == 0 {
            assert_eq!(now.misses, 10, "the first window loads each epoch once");
        } else {
            assert_eq!(now.misses, before.misses, "{window:?} re-read an epoch");
            assert!(now.hits > before.hits, "{window:?} missed the cache");
        }
        before = now;
    }

    client.close();
    server.shutdown();
}

#[test]
fn jobs_past_their_deadline_are_shed_not_served() {
    let (layout, snaps) = trace(1, 3);
    let mut fw = SpateFramework::in_memory(layout);
    for s in &snaps {
        fw.ingest(s);
    }
    let server = Server::start(
        fw,
        ServeConfig {
            queue_deadline: std::time::Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    let mut client = server.connect();
    let reply = client
        .explore(&["upflux"], BoundingBox::everything(), (0, 2))
        .unwrap();
    assert!(reply.is_shed(), "{reply:?}");
    client.close();
    let stats = server.shutdown();
    assert_eq!(stats.shed_deadline, 1);
    assert_eq!(stats.queries, 0);
}

#[test]
fn partial_coverage_propagates_through_the_wire() {
    let (layout, snaps) = trace(1, 6);
    let fs = dfs::Dfs::new(dfs::DfsConfig {
        replication: 2,
        n_datanodes: 4,
        ..dfs::DfsConfig::default()
    });
    let mut fw = SpateFramework::new(fs.clone(), layout);
    for s in &snaps {
        fw.ingest(s);
    }
    // Rot every replica of epoch 2.
    let path = fw.store().path_for(EpochId(2));
    for dn in 0..4 {
        fs.corrupt_replica_for_test(&path, dn);
    }
    fs.drop_caches();

    let server = Server::start(fw, ServeConfig::default());
    let mut client = server.connect();
    match client
        .explore(&["upflux"], BoundingBox::everything(), (0, 5))
        .unwrap()
    {
        Reply::Rows { coverage, .. } => {
            let c = coverage.expect("partial answers carry coverage");
            assert_eq!(c.requested, 6);
            assert_eq!(c.served, 5);
            assert_eq!(c.unavailable, 1);
        }
        other => panic!("expected partial rows, got {other:?}"),
    }
    client.close();
    server.shutdown();
}

/// The CI smoke scenario, as a library test: 8 seeded closed-loop
/// clients, a mid-run ingest that triggers decay of the whole day they
/// were reading, strict zero-stale-read and determinism gates.
#[derive(Debug, PartialEq, Eq)]
struct RunOutcome {
    /// Phase-1 exact rows, per client.
    phase1_rows: Vec<u64>,
    /// Phase-1 SQL aggregate value, per client.
    phase1_counts: Vec<i64>,
    /// Phase-2 replies that were anything but a summary (stale reads).
    stale_reads: u64,
    protocol_errors: u64,
}

fn run_concurrent_decay_scenario(seed: u64, clients: usize) -> RunOutcome {
    let day = EPOCHS_PER_DAY;
    // Two full days ingested; day 0 decays when day 2's first snapshot
    // arrives (age 2 > full_resolution_days 1).
    let (layout, snaps) = trace(3, 2 * day as usize + 1);
    let policy = DecayPolicy {
        full_resolution_days: 1,
        day_highlight_days: 100,
        month_highlight_days: 100,
        year_highlight_days: 100,
    };
    let mut fw = SpateFramework::in_memory(layout).with_decay(policy);
    for s in &snaps[..2 * day as usize] {
        fw.ingest(s);
    }
    assert_eq!(fw.decay_log().leaves_evicted, 0, "nothing decays in setup");

    let server = Arc::new(Server::start(fw, ServeConfig::default()));
    let barrier = Arc::new(Barrier::new(clients + 1));
    let queries_each = 8u32;

    let mut handles = Vec::new();
    for c in 0..clients {
        let server = server.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let mut conn = server.connect();
            let mut rng = StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9E37));
            // Deterministic per-client workload: short windows inside
            // day 0. Recomputed identically in both phases.
            let windows: Vec<(u32, u32)> = (0..queries_each)
                .map(|_| {
                    let start = rng.gen_range(0..day - 6);
                    let len = rng.gen_range(1..=6);
                    (start, start + len - 1)
                })
                .collect();
            let sql_window = (0u32, day - 1);

            // Phase 1: day 0 is fully retained; every explore is exact.
            let mut phase1_rows = 0u64;
            for &w in &windows {
                loop {
                    match conn
                        .explore(&["upflux", "downflux"], BoundingBox::everything(), w)
                        .unwrap()
                    {
                        Reply::Shed { .. } => continue, // retry: keep totals deterministic
                        Reply::Rows {
                            coverage,
                            total_rows,
                            ..
                        } => {
                            assert!(coverage.is_none(), "phase 1 is fully retained");
                            phase1_rows += total_rows;
                            break;
                        }
                        other => panic!("phase 1 expected rows, got {other:?}"),
                    }
                }
            }
            let phase1_count = loop {
                match conn.sql(sql_window, "SELECT COUNT(*) FROM CDR").unwrap() {
                    Reply::Shed { .. } => continue,
                    Reply::Rows { rows, .. } => match rows[0][0][0] {
                        telco_trace::record::Value::Int(n) => break n,
                        ref v => panic!("unexpected count value {v:?}"),
                    },
                    other => panic!("phase 1 sql expected rows, got {other:?}"),
                }
            };

            barrier.wait(); // phase 1 done
            barrier.wait(); // mutation (ingest + decay) committed

            // Phase 2: day 0 decayed while we were at the barrier. Any
            // reply still carrying rows is a stale read.
            let mut stale = 0u64;
            for &w in &windows {
                loop {
                    match conn
                        .explore(&["upflux", "downflux"], BoundingBox::everything(), w)
                        .unwrap()
                    {
                        Reply::Shed { .. } => continue,
                        Reply::Summary { resolution, .. } => {
                            assert_eq!(resolution, "day");
                            break;
                        }
                        Reply::Rows { .. } => {
                            stale += 1;
                            break;
                        }
                        other => panic!("phase 2 unexpected reply {other:?}"),
                    }
                }
            }
            // SQL over the evicted day scans nothing: count must be 0,
            // anything else means the cache leaked evicted snapshots.
            loop {
                match conn.sql(sql_window, "SELECT COUNT(*) FROM CDR").unwrap() {
                    Reply::Shed { .. } => continue,
                    Reply::Rows { rows, .. } => {
                        if rows[0][0][0] != telco_trace::record::Value::Int(0) {
                            stale += 1;
                        }
                        break;
                    }
                    other => panic!("phase 2 sql unexpected reply {other:?}"),
                }
            }
            conn.close();
            (phase1_rows, phase1_count, stale)
        }));
    }

    barrier.wait(); // all clients finished phase 1
    let before = server.version();
    // Day 2 arrives: ingest runs the decay pass inside the write lock,
    // evicting day 0's 48 leaves and invalidating them from the shared
    // cache before any phase-2 read can run.
    server.ingest(&snaps[2 * day as usize]);
    assert!(server.version() > before);
    let inval = server.cache_stats().invalidations;
    assert!(inval > 0, "decay must invalidate cached day-0 epochs");
    barrier.wait(); // release phase 2

    let mut outcome = RunOutcome {
        phase1_rows: Vec::new(),
        phase1_counts: Vec::new(),
        stale_reads: 0,
        protocol_errors: 0,
    };
    for h in handles {
        let (rows, count, stale) = h.join().expect("client panicked");
        outcome.phase1_rows.push(rows);
        outcome.phase1_counts.push(count);
        outcome.stale_reads += stale;
    }
    let server = Arc::into_inner(server).expect("all clients dropped their handles");
    let stats = server.shutdown();
    outcome.protocol_errors = stats.protocol_errors;
    outcome
}

#[test]
fn concurrent_clients_see_zero_stale_reads_after_midrun_decay() {
    let outcome = run_concurrent_decay_scenario(42, 8);
    assert_eq!(outcome.stale_reads, 0, "{outcome:?}");
    assert_eq!(outcome.protocol_errors, 0, "{outcome:?}");
    assert!(outcome.phase1_rows.iter().all(|&r| r > 0), "{outcome:?}");
    // All clients agree on the full-day aggregate.
    assert!(
        outcome.phase1_counts.windows(2).all(|w| w[0] == w[1]),
        "{outcome:?}"
    );
}

#[test]
fn seeded_runs_are_answer_deterministic() {
    // Thread interleavings differ; answers must not.
    let a = run_concurrent_decay_scenario(7, 4);
    let b = run_concurrent_decay_scenario(7, 4);
    assert_eq!(a, b);
    assert_eq!(a.stale_reads, 0);
}
