//! Adversarial serving-tier chaos drill (`repro chaos-serve`).
//!
//! Three seeded phases, each designed so its outcome is a pure function
//! of `(seed, clients, scale)`:
//!
//! 1. **Survivability storm** — seeded clients hammer one in-memory
//!    server with a shuffled mix of healthy explorations, poison queries
//!    (worker panics), deadline storms (1 ms deadlines behind a 5 ms
//!    chaos stall) and cancel races; meanwhile the main thread injects a
//!    malformed frame, a mid-stream disconnect and a slow client. The
//!    server runs one worker, so every job serializes: once the final
//!    health probe answers, every earlier request — including the one
//!    whose client vanished — has fully settled, and panic/cancel/
//!    deadline counters are exact.
//! 2. **Degraded dfs-backed serving** — the same serving tier mounted
//!    over a DFS with a seeded [`FaultConfig::chaos`] plan and circuit
//!    breakers enabled. One client, one worker, no prefetch: the dfs op
//!    sequence (and therefore the op-indexed fault schedule, failovers
//!    and breaker transitions) is deterministic, so the exact/partial/
//!    unavailable split diffs byte-for-byte across runs.
//! 3. **Breaker state-machine drill** — a direct, placement-pinned
//!    walk of the per-datanode breaker: trip on consecutive verified
//!    read failures, cool down on the op clock, probe half-open,
//!    recover closed after repair, and degrade to `BlockUnavailable`
//!    (never a hang) when every replica sits behind an open breaker.
//!
//! Wall time and the timing-stream anomaly advisories are the only perf
//! fields of its [`Report`]; everything else is deterministic.

use crate::report::{Report, Value};
use crate::setup::{ingest_resubmitting, warehouse, BenchConfig};
use dfs::{BreakerConfig, BreakerState, Dfs, DfsConfig, DfsError, FaultConfig, IoModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spate_core::framework::SpateFramework;
use spate_core::DecayPolicy;
use spate_serve::proto::{errcode, MAGIC, VERSION};
use spate_serve::{
    Reply, RequestBody, ServeConfig, Server, CHAOS_PANIC_ATTRIBUTE, CHAOS_STALL_ATTRIBUTE,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telco_trace::cells::BoundingBox;
use telco_trace::time::EPOCHS_PER_DAY;
use telco_trace::{TraceConfig, TraceGenerator};

/// Epochs ingested for the storm phase (all retained, no decay).
const STORM_EPOCHS: usize = 12;
/// Calm monitor ticks before the storm, arming θ-rarity detection.
const CALM_TICKS: usize = 6;
/// Per-client storm workload mix.
const HEALTHY_PER_CLIENT: usize = 8;
const POISON_PER_CLIENT: usize = 2;
const STORMS_PER_CLIENT: usize = 2;
const CANCELS_PER_CLIENT: usize = 2;

/// Swallow the intentional poison-query panics (they would spam stderr
/// once per injection); every other panic still reaches the previous
/// hook. Installed once per process — the filter is transparent for
/// everything but the drill's own marker message.
fn install_quiet_poison_hook() {
    use std::sync::Once;
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let poison = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains("poison query"));
            if !poison {
                previous(info);
            }
        }));
    });
}

#[derive(Default)]
struct StormOutcome {
    awaited: u64,
    terminal: u64,
    healthy: u64,
    rows: u64,
    poison_ok: u64,
    storm_ok: u64,
    cancel_ok: u64,
    sheds: u64,
}

impl StormOutcome {
    fn merge(&mut self, other: StormOutcome) {
        self.awaited += other.awaited;
        self.terminal += other.terminal;
        self.healthy += other.healthy;
        self.rows += other.rows;
        self.poison_ok += other.poison_ok;
        self.storm_ok += other.storm_ok;
        self.cancel_ok += other.cancel_ok;
        self.sheds += other.sheds;
    }
}

#[derive(Clone, Copy)]
enum Op {
    Healthy,
    Poison,
    DeadlineStorm,
    CancelRace,
}

/// One storm client: a seeded, shuffled mix of healthy and adversarial
/// requests over a single connection. Every op waits for its terminal
/// frame, so the per-op outcome classification is exact.
fn storm_client(server: &Server, seed: u64, id: u64) -> StormOutcome {
    let mut conn = server.connect();
    let mut rng = StdRng::seed_from_u64(seed ^ id.wrapping_mul(0x9E37_79B9));
    let mut out = StormOutcome::default();

    let mut ops = Vec::new();
    ops.extend(std::iter::repeat_n(Op::Healthy, HEALTHY_PER_CLIENT));
    ops.extend(std::iter::repeat_n(Op::Poison, POISON_PER_CLIENT));
    ops.extend(std::iter::repeat_n(Op::DeadlineStorm, STORMS_PER_CLIENT));
    ops.extend(std::iter::repeat_n(Op::CancelRace, CANCELS_PER_CLIENT));
    // Fisher–Yates off the client's seeded rng (the rand shim carries no
    // shuffle helper): adversarial ops interleave with healthy ones in a
    // per-client deterministic order.
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.gen_range(0..=i));
    }

    for op in ops {
        out.awaited += 1;
        let reply = match op {
            Op::Healthy => {
                let start = rng.gen_range(0..STORM_EPOCHS as u32 - 4);
                let len = rng.gen_range(1..=4);
                conn.explore(
                    &["upflux", "downflux"],
                    BoundingBox::everything(),
                    (start, start + len - 1),
                )
            }
            Op::Poison => conn.explore(&[CHAOS_PANIC_ATTRIBUTE], BoundingBox::everything(), (0, 1)),
            Op::DeadlineStorm => conn.explore_with_deadline(
                &["upflux", CHAOS_STALL_ATTRIBUTE],
                BoundingBox::everything(),
                (0, 5),
                1,
            ),
            Op::CancelRace => conn
                .send(RequestBody::Explore {
                    attributes: vec!["upflux".into(), CHAOS_STALL_ATTRIBUTE.into()],
                    bbox: (f64::MIN, f64::MIN, f64::MAX, f64::MAX),
                    window: (0, 5),
                    deadline_ms: 0,
                })
                .and_then(|id| {
                    conn.cancel(id)?;
                    conn.await_reply(id)
                }),
        };
        let Ok(reply) = reply else {
            continue; // no terminal frame — the all_terminal gate fails
        };
        out.terminal += 1;
        match (op, &reply) {
            (_, Reply::Shed { .. }) => out.sheds += 1,
            (
                Op::Healthy,
                Reply::Rows {
                    coverage: None,
                    total_rows,
                    ..
                },
            ) => {
                out.healthy += 1;
                out.rows += total_rows;
            }
            (Op::Poison, Reply::ServerError { code, .. }) if *code == errcode::INTERNAL => {
                out.poison_ok += 1;
            }
            (
                Op::DeadlineStorm,
                Reply::Rows {
                    coverage: Some(c), ..
                },
            ) if c.served == 0 && c.unavailable == c.requested => out.storm_ok += 1,
            (
                Op::CancelRace,
                Reply::Rows {
                    coverage: Some(c), ..
                },
            ) if c.served == 0 => out.cancel_ok += 1,
            _ => {} // terminal but unexpected: the diffable counts expose it
        }
    }
    conn.close();
    out
}

/// Deterministic walk of the breaker state machine over pinned replica
/// placement (3 replicas on exactly 3 nodes: block `b`'s first replica
/// sits on node `b % 3`), mirroring the end-to-end breaker suite so the
/// drill proves trip → cool-down → half-open probe → recovery on every
/// seed, independent of the chaos plan.
struct BreakerDrill {
    trips: u64,
    probes: u64,
    recoveries: u64,
    reopens: u64,
    skipped: u64,
    recovered_closed: bool,
    degraded_unavailable: bool,
}

fn breaker_drill() -> BreakerDrill {
    let base = DfsConfig {
        replication: 3,
        n_datanodes: 3,
        ..DfsConfig::default()
    }
    .with_block_size(64);
    let fs = Dfs::new(base.with_breaker(BreakerConfig::new(2, 3)));
    for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
        fs.write(name, &[i as u8; 48]).expect("drill write");
    }
    // Blocks 1 ("a") and 4 ("d") both place their first replica on node
    // 1: two consecutive verified-read failures there trip its breaker.
    fs.corrupt_replica_for_test("a", 1);
    fs.corrupt_replica_for_test("d", 1);
    let _ = fs.read("a");
    let _ = fs.read("d");
    let tripped = fs.breaker_state(1) == BreakerState::Open;

    // Repair replaces the corrupt copies, then the op-clock cooldown
    // burns down on reads that never consult node 1 first.
    fs.repair();
    fs.drop_caches();
    for _ in 0..3 {
        let _ = fs.read("b");
        fs.drop_caches();
    }
    // Force the half-open probe onto node 1 (repair re-appended its
    // fresh copy at the end of the replica list): with the other nodes
    // down, the probe read verifies and the breaker closes.
    fs.kill_datanode(0);
    fs.kill_datanode(2);
    let _ = fs.read("a");
    let recovered_closed = tripped && fs.breaker_state(1) == BreakerState::Closed;
    fs.revive_datanode(0);
    fs.revive_datanode(2);
    let s = fs.breaker_stats();

    // Every-replica-open degradation: a single-replica block behind the
    // one tripped node reports BlockUnavailable instead of spinning.
    let lone = Dfs::new(
        DfsConfig {
            replication: 1,
            n_datanodes: 1,
            ..base
        }
        .with_breaker(BreakerConfig::new(1, 1_000)),
    );
    lone.write("a", &[0u8; 48]).expect("drill write");
    lone.write("b", &[1u8; 48]).expect("drill write");
    lone.corrupt_replica_for_test("a", 0);
    let _ = lone.read("a"); // trips (K = 1)
    let degraded_unavailable = matches!(lone.read("b"), Err(DfsError::BlockUnavailable { .. }));

    BreakerDrill {
        trips: s.trips,
        probes: s.probes,
        recoveries: s.recoveries,
        reopens: s.reopens,
        skipped: s.skipped + lone.breaker_stats().skipped,
        recovered_closed,
        degraded_unavailable,
    }
}

/// Run the full three-phase drill and build the report. Everything but
/// the wall time and the timing-stream advisories is deterministic, so
/// `BENCH_CHAOS_SERVE.json` is timing-free.
pub fn chaos_serve_experiment(config: &BenchConfig, clients: usize, seed: u64) -> Report {
    obs::reset();
    install_quiet_poison_hook();
    let started = Instant::now();

    // ---------------- phase 1: survivability storm ----------------
    let trace = TraceConfig::scaled(config.scale).with_days(1);
    let (fw, _) = warehouse(
        trace.clone(),
        Dfs::in_memory(),
        DecayPolicy::never(),
        STORM_EPOCHS,
    );

    // One worker serializes every job, which is what makes the counters
    // exact: the post-storm health probe cannot answer before every
    // earlier request (including the vanished client's) settled. The
    // queue deadline is lifted far above any plausible backlog so the
    // only sheds a run can see are real bugs.
    let server = Arc::new(Server::start(
        fw,
        ServeConfig {
            workers: 1,
            prefetch: false,
            queue_deadline: Duration::from_secs(60),
            chaos_poison: true,
            ..ServeConfig::default()
        },
    ));
    for _ in 0..CALM_TICKS {
        server.monitor_tick();
    }

    let mut handles = Vec::new();
    for c in 0..clients {
        let server = server.clone();
        handles.push(std::thread::spawn(move || {
            storm_client(&server, seed, c as u64)
        }));
    }

    // Malformed frame: valid header magic/version, unknown kind byte.
    // The server answers BAD_REQUEST (request id 0 — there is no frame
    // to attribute it to) and drops the connection: past garbage the
    // next frame boundary is unknowable.
    let mut malformed = server.connect();
    let mut bad = Vec::new();
    bad.extend_from_slice(&MAGIC);
    bad.push(VERSION);
    bad.push(0xEE);
    bad.extend_from_slice(&0u32.to_le_bytes());
    let malformed_frames = u64::from(malformed.send_raw(&bad).is_ok());
    let rejected = matches!(
        malformed.await_reply(0),
        Ok(Reply::ServerError { code, .. }) if code == errcode::BAD_REQUEST
    );
    let malformed_rejected = u64::from(rejected && malformed.stats().is_err());

    // Mid-stream disconnect: admit a stalled request, vanish before the
    // answer. The worker streams into the closed pipe and must shrug.
    let vanisher = server.connect();
    let mut vanisher = vanisher;
    let disconnects = u64::from(
        vanisher
            .send(RequestBody::Explore {
                attributes: vec!["upflux".into(), CHAOS_STALL_ATTRIBUTE.into()],
                bbox: (f64::MIN, f64::MIN, f64::MAX, f64::MAX),
                window: (0, 5),
                deadline_ms: 0,
            })
            .is_ok(),
    );
    vanisher.close();

    // Slow client: admit, nap past the stall, then drain. Exercises the
    // reply sitting in transport backpressure until the reader wakes.
    let mut slow = server.connect();
    let slow_rows = match slow.send(RequestBody::Explore {
        attributes: vec!["upflux".into(), "downflux".into()],
        bbox: (f64::MIN, f64::MIN, f64::MAX, f64::MAX),
        window: (0, 1),
        deadline_ms: 0,
    }) {
        Ok(id) => {
            std::thread::sleep(Duration::from_millis(10));
            match slow.await_reply(id) {
                Ok(Reply::Rows { total_rows, .. }) => total_rows,
                _ => 0,
            }
        }
        Err(_) => 0,
    };
    slow.close();

    let mut storm = StormOutcome::default();
    for h in handles {
        storm.merge(h.join().expect("storm client panicked"));
    }

    // Health probe on a fresh connection: with a single worker this
    // reply doubles as a settle fence for the whole storm.
    let mut probe = server.connect();
    let survived_storm = matches!(
        probe.explore(&["upflux"], BoundingBox::everything(), (0, 2)),
        Ok(Reply::Rows { .. })
    );
    probe.close();

    // Storm tick (the survive stream flags the panic burst against its
    // calm history), then one more calm tick to show it re-arms.
    server.monitor_tick();
    server.monitor_tick();
    let meta = server.meta_summary();

    let server = Arc::into_inner(server).expect("storm clients still hold server handles");
    let mut traces = server.traces();
    let stats = server.shutdown();

    // ------------- phase 2: dfs-backed serving under chaos -------------
    let mut generator = TraceGenerator::new(trace);
    let layout = generator.layout().clone();
    // Small blocks so leaf files span several blocks; replication 2 over
    // 4 nodes keeps blocks findable with one node down but lets the
    // chaos plan create real unavailability. Breakers on top.
    let dfs_config = DfsConfig {
        block_size: 4 * 1024,
        replication: 2,
        n_datanodes: 4,
        io: IoModel::unthrottled(),
        cache_bytes: 0,
        ..DfsConfig::default()
    }
    .with_breaker(BreakerConfig::new(3, 64));
    let fs = Dfs::with_faults(dfs_config, FaultConfig::chaos(seed));
    let mut fw = SpateFramework::new(fs.clone(), layout);

    let day = EPOCHS_PER_DAY as usize;
    let mut dfs_epochs_ingested = 0usize;
    let mut dfs_ingest_retries = 0u64;
    let mut dfs_ingest_failures = 0u64;
    for snapshot in (&mut generator).take(day) {
        let (ingested, retries) = ingest_resubmitting(&mut fw, &snapshot);
        dfs_epochs_ingested += usize::from(ingested);
        dfs_ingest_failures += u64::from(!ingested);
        dfs_ingest_retries += retries;
    }
    // Heal the ingest-time damage so serving-time degradation is the
    // chaos plan's live work, not leftovers.
    for node in 0..4 {
        fs.revive_datanode(node);
    }
    fs.repair();
    fs.repair();

    let dfs_server = Server::start(
        fw,
        ServeConfig {
            workers: 1,
            prefetch: false,
            queue_deadline: Duration::from_secs(60),
            ..ServeConfig::default()
        },
    );
    let mut conn = dfs_server.connect();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0xD1F5));
    let mut windows: Vec<(u32, u32)> = (0..12)
        .map(|_| {
            let start = rng.gen_range(0..day as u32 - 8);
            let len = rng.gen_range(1..=6);
            (start, start + len - 1)
        })
        .collect();
    windows.extend((0..4).map(|_| {
        let start = rng.gen_range(0..day as u32 - 30);
        let len = rng.gen_range(16..=24);
        (start, start + len - 1)
    }));

    let mut dfs_queries = 0u64;
    let mut dfs_exact = 0u64;
    let mut dfs_partial = 0u64;
    let mut dfs_unavailable = 0u64;
    let mut dfs_inconsistent_coverage = 0u64;
    for &(a, b) in &windows {
        dfs_queries += 1;
        match conn.explore(&["upflux", "downflux"], BoundingBox::everything(), (a, b)) {
            Ok(Reply::Rows { coverage: None, .. }) => dfs_exact += 1,
            Ok(Reply::Rows {
                coverage: Some(c), ..
            }) => {
                dfs_partial += 1;
                if c.requested != b - a + 1 || c.served + c.decayed + c.unavailable != c.requested {
                    dfs_inconsistent_coverage += 1;
                }
            }
            Ok(Reply::Unavailable) => dfs_unavailable += 1,
            Ok(_) | Err(_) => dfs_inconsistent_coverage += 1,
        }
    }
    conn.close();
    traces.extend(dfs_server.traces());
    dfs_server.shutdown();
    let faults = fs.fault_stats();
    let dfs_breaker = fs.breaker_stats();

    // ------------- phase 3: breaker state-machine drill -------------
    let drill = breaker_drill();

    let mut r = Report::new("chaos-serve", Some("BENCH_CHAOS_SERVE.json"));
    r.traces = traces;
    r.det("seed", seed);
    r.det("clients", clients);
    // Nobody hung, nobody died, the server answered afterwards: every
    // storm request a client waited on (poison/deadline/cancel/healthy)
    // received a terminal frame (rows, summary, shed, or error — anything
    // that lets the client move on).
    r.det("requests_awaited", storm.awaited).at_least(1);
    r.det("terminal_frames", storm.terminal)
        .eq_field("requests_awaited");
    let all_terminal = storm.awaited > 0 && storm.terminal == storm.awaited;
    r.det("all_terminal", all_terminal).eq(true);
    r.det("survived_storm", survived_storm).eq(true);
    r.det("healthy_queries", storm.healthy);
    r.det("healthy_rows", storm.rows);
    r.det_console("slow_rows", slow_rows);
    // Every poison query became an INTERNAL error frame and a counted
    // worker panic; none killed the pool.
    r.det("poison_queries", clients * POISON_PER_CLIENT)
        .at_least(1);
    r.det("poison_isolated", storm.poison_ok)
        .eq_field("poison_queries");
    r.det("worker_panics", stats.panics)
        .eq_field("poison_queries");
    r.det("worker_respawns", stats.worker_respawns);
    // Deadline storms and cancel races degrade to zero-served Partial
    // (the 5 ms stall guarantees the 1 ms deadline is spent before the
    // first checkpoint) instead of hanging or erroring.
    r.det("deadline_storms", clients * STORMS_PER_CLIENT)
        .at_least(1);
    r.det("deadline_partials", storm.storm_ok)
        .eq_field("deadline_storms");
    r.det_console("deadline_expired_counted", stats.deadline_expired);
    r.det("cancels_sent", clients * CANCELS_PER_CLIENT)
        .at_least(1);
    r.det("cancel_partials", storm.cancel_ok)
        .eq_field("cancels_sent");
    r.det_console("cancelled_counted", stats.cancelled);
    // The one malformed frame: BAD_REQUEST, then the connection is cut
    // (the byte stream is unrecoverable past garbage).
    r.det("malformed_frames", malformed_frames).eq(1);
    r.det("malformed_rejected", malformed_rejected).eq(1);
    r.det("protocol_errors", stats.protocol_errors).eq(1);
    r.det("disconnects", disconnects).eq(1);
    // The drill's queue is deeper than its maximum outstanding load.
    r.det("sheds_seen", storm.sheds).eq(0);
    r.det_console("server_queries", stats.queries);
    r.det("meta_ticks", meta.ticks);
    // Deterministic-stream meta anomalies: the `serve.survive` stream
    // flagging the panic burst.
    r.det("survive_anomalies", meta.anomalies_deterministic)
        .at_least(1);
    // Phase 2: chaos never lost an ingest, degradation stayed honest
    // (its coverage arithmetic adds up, or it is a bug).
    r.det_console("dfs_epochs_ingested", dfs_epochs_ingested);
    r.det_console("dfs_ingest_retries", dfs_ingest_retries);
    r.det("dfs_ingest_failures", dfs_ingest_failures).eq(0);
    r.det("dfs_queries", dfs_queries).at_least(1);
    r.det("dfs_exact", dfs_exact);
    r.det("dfs_partial", dfs_partial);
    r.det("dfs_unavailable", dfs_unavailable);
    r.det("dfs_inconsistent_coverage", dfs_inconsistent_coverage)
        .eq(0);
    r.det_console("dfs_checksum_mismatches", faults.checksum_mismatches);
    r.det_console("dfs_read_failovers", faults.read_failovers);
    r.det("dfs_breaker_trips", dfs_breaker.trips);
    r.det_console("dfs_breaker_recoveries", dfs_breaker.recoveries);
    r.det_console("dfs_breaker_skipped", dfs_breaker.skipped);
    // Phase 3: trip, cool down, half-open probe, recovery; and an
    // all-replicas-open read degrades instead of hanging.
    r.det_console("drill_trips", drill.trips).at_least(1);
    r.det_console("drill_probes", drill.probes);
    r.det_console("drill_recoveries", drill.recoveries);
    r.det_console("drill_reopens", drill.reopens);
    r.det_console("drill_skipped", drill.skipped);
    r.det("drill_recovered_closed", drill.recovered_closed)
        .eq(true);
    r.det("drill_degraded_unavailable", drill.degraded_unavailable)
        .eq(true);
    r.perf(
        "wall_secs",
        Value::Float(started.elapsed().as_secs_f64(), 3),
    );
    // All meta anomalies, timing-stream advisories included (shed
    // pressure, latency inflation, cancel/deadline races).
    r.perf("anomalies_total", meta.anomalies_total);
    r
}
