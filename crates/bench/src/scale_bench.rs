//! Scale-out drill (`repro scale`): shard-per-core vs. one big shard.
//!
//! A million-subscriber, multi-week trace profile is partitioned by cell
//! across N [`ShardedSpate`] shards, each with its own simulated datanode
//! cluster, and compared against the identical trace on a single shard:
//!
//! 1. **Parallel ingest** — the same epoch stream is ingested into both
//!    facades; per-shard splits write to independent disks concurrently,
//!    so the N-shard wall-clock approaches `seek + raw/(N·bandwidth)`
//!    while the single shard pays the full serial transfer.
//! 2. **Scatter-gather equality** — both facades are wrapped in a
//!    [`Server`] and a seeded probe set (mixed bounding boxes, windows
//!    and SQL) is fired at each; every reply must be **byte-identical**,
//!    and every coverage report internally consistent.
//! 3. **Concurrent storm** — C clients hammer the sharded server;
//!    client-side latencies give the p50/p95/p99 lines.
//! 4. **Decay drill** — both facades decay the oldest day, equality is
//!    re-checked over the now-degraded windows.
//!
//! The report splits like the other drills: the deterministic fields are
//! a pure function of `(seed, shards, clients)` — the answer digests
//! double as a 1-vs-N cross-check fingerprint — and `BENCH_SCALE.json`
//! holds only them; wall-clock, throughput and latency are perf fields.

use crate::report::{Report, Value};
use crate::setup::until_served;
use codecs::Identity;
use dfs::{Dfs, DfsConfig, IoModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spate_core::framework::SpateFramework;
use spate_core::shard::ShardedSpate;
use spate_core::DecayPolicy;
use spate_serve::{ClientConn, Reply, ServeConfig, Server};
use std::sync::{Arc, Barrier};
use telco_trace::cells::{BoundingBox, CellLayout};
use telco_trace::time::{EpochId, EPOCHS_PER_DAY};
use telco_trace::{Snapshot, TraceConfig, TraceGenerator};

/// Epochs of the million-user profile ingested per facade (1¼ days —
/// enough that the decay drill degrades day 0 while day 1 stays exact).
const INGEST_EPOCHS: usize = 60;
/// Record-volume fraction of the full million-user profile (keeps the
/// two timed ingest loops inside a CI-friendly wall-clock budget).
const VOLUME: f64 = 0.25;
/// Probe queries per equality sweep.
const EQUALITY_PROBES: usize = 12;
/// Queries per storm client.
const STORM_QUERIES: usize = 16;

/// Per-shard datanode disk: one commodity spindle per shard instead of
/// the paper testbed's shared RAID array — the regime shard-per-core
/// scale-out targets, where ingest is bound by per-node write bandwidth
/// and sharding buys back exactly that. Write throughput is the
/// *effective* post-replication rate: a 3-replica pipeline funneled
/// through one ~20 MB/s throttled spindle that is simultaneously
/// serving reads. Deliberately slow so ingest stays write-bound on any
/// host — the speedup gate measures overlap of simulated I/O, not
/// the runner's compression throughput.
fn shard_node_disk() -> IoModel {
    IoModel {
        read_mbps: 120.0,
        write_mbps: 6.0,
        seek_us: 8_000,
    }
}

/// One shard = one framework on its own datanode disk, identity codec
/// (compression CPU would serialize on one core and mask the I/O overlap
/// this drill measures), aggressive decay so the drill can degrade day 0.
fn shard_framework(layout: &CellLayout) -> SpateFramework {
    let dfs = Dfs::new(DfsConfig::default().with_io(shard_node_disk()));
    SpateFramework::with_codec(dfs, layout.clone(), Arc::new(Identity)).with_decay(DecayPolicy {
        full_resolution_days: 1,
        day_highlight_days: 100,
        month_highlight_days: 100,
        year_highlight_days: 100,
    })
}

fn build_facade(layout: &CellLayout, n: usize) -> ShardedSpate {
    ShardedSpate::new((0..n).map(|_| shard_framework(layout)).collect())
}

/// Allocation-free FNV-1a sink: replies are fingerprinted by streaming
/// their debug rendering straight into the hash (a heavy probe carries
/// hundreds of thousands of rows — materializing the string would cost
/// more than the queries themselves).
struct FnvSink(u64);

impl std::fmt::Write for FnvSink {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

/// Fold one reply into the running digest: a stable fingerprint of rows,
/// headers, coverage and summary fields.
fn digest_reply(acc: u64, reply: &Reply) -> u64 {
    use std::fmt::Write;
    let mut sink = FnvSink(if acc == 0 { 0xcbf2_9ce4_8422_2325 } else { acc });
    write!(sink, "{reply:?}").expect("fnv sink never fails");
    sink.0
}

/// The seeded probe set both servers must answer identically: bounding
/// boxes rotate through region-wide, half-region and tight single-site
/// shapes so probes touch all shards, a strict subset, and exactly one.
fn probe_set(layout: &CellLayout, seed: u64) -> Vec<(BoundingBox, (u32, u32))> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA1_AB1E);
    let side = 77_500.0;
    (0..EQUALITY_PROBES)
        .map(|i| {
            let bbox = match i % 4 {
                0 => BoundingBox::everything(),
                1 => BoundingBox::new(0.0, 0.0, side / 2.0, side),
                2 => BoundingBox::new(side / 2.0, 0.0, side, side),
                _ => {
                    let site = layout.get(rng.gen_range(0..layout.len() as u32));
                    BoundingBox::new(
                        (site.x_m - 3_000.0).max(0.0),
                        (site.y_m - 3_000.0).max(0.0),
                        (site.x_m + 3_000.0).min(side),
                        (site.y_m + 3_000.0).min(side),
                    )
                }
            };
            let start = rng.gen_range(0..INGEST_EPOCHS as u32 - 4);
            let len = rng.gen_range(1..=4u32);
            (bbox, (start, start + len - 1))
        })
        .collect()
}

/// One probe, served exactly once.
fn explore_once(conn: &mut ClientConn, bbox: BoundingBox, window: (u32, u32)) -> Reply {
    until_served(|| conn.explore(&["upflux", "downflux"], bbox, window)).0
}

struct EqualitySweep {
    queries: u64,
    identical: bool,
    digest: u64,
    inconsistent: u64,
}

/// Fire the probe set plus a fixed SQL tail at both servers and compare
/// every reply for byte-identity; count internally-inconsistent coverage
/// reports on the sharded side (the fan-out's honesty gate).
fn equality_sweep(
    single: &Server,
    sharded: &Server,
    layout: &CellLayout,
    seed: u64,
) -> EqualitySweep {
    let mut c1 = single.connect();
    let mut cn = sharded.connect();
    let mut sweep = EqualitySweep {
        queries: 0,
        identical: true,
        digest: 0,
        inconsistent: 0,
    };
    let day = EPOCHS_PER_DAY;
    for (bbox, window) in probe_set(layout, seed) {
        let a = explore_once(&mut c1, bbox, window);
        let b = explore_once(&mut cn, bbox, window);
        sweep.queries += 1;
        sweep.identical &= a == b;
        sweep.digest = digest_reply(sweep.digest, &b);
        if let Reply::Rows {
            coverage: Some(c), ..
        } = &b
        {
            if c.served + c.decayed + c.unavailable != c.requested {
                sweep.inconsistent += 1;
            }
        }
    }
    for (window, sql) in [
        ((0, day - 1), "SELECT COUNT(*) FROM CDR"),
        ((day, INGEST_EPOCHS as u32 - 1), "SELECT COUNT(*) FROM CDR"),
        ((day, INGEST_EPOCHS as u32 - 1), "SELECT COUNT(*) FROM NMS"),
    ] {
        let a = until_served(|| c1.sql(window, sql)).0;
        let b = until_served(|| cn.sql(window, sql)).0;
        sweep.queries += 1;
        sweep.identical &= a == b;
        sweep.digest = digest_reply(sweep.digest, &b);
    }
    c1.close();
    cn.close();
    sweep
}

/// Drive the full drill and build the report.
pub fn scale_experiment(shards: usize, clients: usize, seed: u64) -> Report {
    assert!(shards >= 1 && clients >= 1);
    obs::reset();
    let started = std::time::Instant::now();

    let config = TraceConfig::million_user(VOLUME).with_seed(seed);
    let mut generator = TraceGenerator::new(config);
    let layout = generator.layout().clone();
    let snaps: Vec<Snapshot> = (&mut generator).take(INGEST_EPOCHS).collect();
    let cdr_rows: u64 = snaps.iter().map(|s| s.cdr.len() as u64).sum();
    let nms_rows: u64 = snaps.iter().map(|s| s.nms.len() as u64).sum();

    // Timed ingest: the same epoch stream into one shard, then N.
    let single = build_facade(&layout, 1);
    let sharded = build_facade(&layout, shards);
    let mut raw_bytes = 0u64;
    let t0 = std::time::Instant::now();
    for s in &snaps {
        raw_bytes += single.ingest(s).raw_bytes;
    }
    let ingest_single_secs = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    for s in &snaps {
        sharded.ingest(s);
    }
    let ingest_sharded_secs = t0.elapsed().as_secs_f64();

    let single_version = single.version();
    let sharded_version = sharded.version();

    // Prefetch off: background epoch loads would double the sweep's I/O
    // without changing any answer the drill gates on.
    let serve_config = ServeConfig {
        prefetch: false,
        ..ServeConfig::default()
    };
    let server1 = Arc::new(Server::start_sharded(single, serve_config.clone()));
    let servern = Arc::new(Server::start_sharded(sharded, serve_config));

    // Phase 2: scatter-gather equality, everything retained.
    let sweep = equality_sweep(&server1, &servern, &layout, seed);

    // Phase 3: concurrent storm against the sharded server.
    let barrier = Arc::new(Barrier::new(clients + 1));
    let mut handles = Vec::new();
    for c in 0..clients {
        let server = servern.clone();
        let barrier = barrier.clone();
        let layout = layout.clone();
        let storm_seed = seed ^ (c as u64).wrapping_mul(0x9E37_79B9);
        handles.push(std::thread::spawn(move || {
            let mut conn = server.connect();
            let mut rng = StdRng::seed_from_u64(storm_seed);
            let probes: Vec<(BoundingBox, (u32, u32))> = (0..STORM_QUERIES)
                .map(|i| {
                    let bbox = if i % 2 == 0 {
                        BoundingBox::everything()
                    } else {
                        let site = layout.get(rng.gen_range(0..layout.len() as u32));
                        BoundingBox::new(
                            (site.x_m - 5_000.0).max(0.0),
                            (site.y_m - 5_000.0).max(0.0),
                            site.x_m + 5_000.0,
                            site.y_m + 5_000.0,
                        )
                    };
                    let start = rng.gen_range(0..INGEST_EPOCHS as u32 - 4);
                    (bbox, (start, start + rng.gen_range(0..=3u32)))
                })
                .collect();
            barrier.wait();
            let mut latencies_us = Vec::with_capacity(probes.len());
            for (bbox, window) in probes {
                let t = std::time::Instant::now();
                explore_once(&mut conn, bbox, window);
                latencies_us.push(t.elapsed().as_micros() as u64);
            }
            conn.close();
            latencies_us
        }));
    }
    barrier.wait();
    let storm_t0 = std::time::Instant::now();
    let mut latencies: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("storm client panicked"))
        .collect();
    let storm_wall_secs = storm_t0.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let pct = |q: f64| latencies[((latencies.len() - 1) as f64 * q).round() as usize];
    let (p50, p95, p99) = (pct(0.50), pct(0.95), pct(0.99));

    // Phase 4: decay day 0 on both facades, re-check equality degraded.
    let now = EpochId(2 * EPOCHS_PER_DAY);
    let d1 = server1.run_decay(now);
    let dn = servern.run_decay(now);
    let post = equality_sweep(&server1, &servern, &layout, seed.wrapping_add(1));

    let storm_queries = (clients * STORM_QUERIES) as u64;
    let wall_secs = started.elapsed().as_secs_f64();
    let mut traces = Vec::new();
    for server in [server1, servern] {
        let server = Arc::into_inner(server).expect("clients still hold server handles");
        traces.extend(server.traces());
        server.shutdown();
    }

    let n = shards as u64;
    let raw_mb = raw_bytes as f64 / 1e6;
    let mut r = Report::new("scale", Some("BENCH_SCALE.json"));
    r.traces = traces;
    r.det("seed", seed);
    r.det("shards", shards);
    r.det("clients", clients);
    r.det("epochs", INGEST_EPOCHS);
    // Total trace rows generated (pure function of the seed).
    r.det("cdr_rows", cdr_rows);
    r.det("nms_rows", nms_rows);
    // Scatter-gather: every reply byte-identical 1-vs-N, before …
    r.det("queries_run", sweep.queries);
    r.det("answers_identical", sweep.identical).eq(true);
    r.det("answer_digest", Value::Hex(sweep.digest));
    r.det("inconsistent_coverage", sweep.inconsistent).eq(0);
    // Store versions after ingest (sharded sums per-shard versions).
    r.det("single_version", single_version).at_least(1);
    r.det("sharded_version", sharded_version).holds(
        "== shards * single_version",
        sharded_version == n * single_version,
    );
    // … and after every shard decayed the same day.
    let (single_evicted, sharded_evicted) = (d1.leaves_evicted as u64, dn.leaves_evicted as u64);
    r.det("single_leaves_evicted", single_evicted).at_least(1);
    r.det("sharded_leaves_evicted", sharded_evicted).holds(
        "== shards * single_leaves_evicted",
        sharded_evicted == n * single_evicted,
    );
    r.det("post_decay_identical", post.identical).eq(true);
    r.det("post_decay_digest", Value::Hex(post.digest));
    r.det("post_decay_inconsistent", post.inconsistent).eq(0);
    r.perf("raw_mb", Value::Float(raw_mb, 1));
    r.perf("ingest_single_secs", Value::Float(ingest_single_secs, 3));
    let single_mbps = raw_mb / ingest_single_secs.max(1e-9);
    r.perf("single_mbps", Value::Float(single_mbps, 1));
    r.perf("ingest_sharded_secs", Value::Float(ingest_sharded_secs, 3));
    let sharded_mbps = raw_mb / ingest_sharded_secs.max(1e-9);
    r.perf("sharded_mbps", Value::Float(sharded_mbps, 1));
    // Per-shard disks overlap their (simulated) writes: four of them
    // must at least halve the ingest wall-clock.
    let speedup = ingest_single_secs / ingest_sharded_secs.max(1e-9);
    let speedup = r.perf("speedup", Value::Float(speedup, 2));
    if shards >= 4 {
        speedup.at_least(2.0);
    }
    r.perf("storm_queries", storm_queries);
    let storm_qps = storm_queries as f64 / storm_wall_secs.max(1e-9);
    r.perf("storm_qps", Value::Float(storm_qps, 0));
    r.perf("storm_p50_us", p50);
    r.perf("storm_p95_us", p95);
    r.perf("storm_p99_us", p99);
    r.perf("storm_wall_secs", Value::Float(storm_wall_secs, 3));
    r.perf("wall_secs", Value::Float(wall_secs, 3));
    r
}
