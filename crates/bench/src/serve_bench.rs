//! Closed-loop load generator for the serving tier (`repro serve`).
//!
//! N seeded clients hammer one [`Server`] through the frame protocol in
//! two barrier-separated phases. Between the phases the main thread
//! ingests the first snapshot of day 2, which triggers the decay pass
//! and evicts every day-0 epoch the clients were just reading — the
//! mid-run mutation that proves the shared cache never serves stale rows
//! (the `stale_reads == 0` gate).
//!
//! The report splits cleanly into two halves:
//!
//! * **answer-deterministic** — query counts, per-client row totals,
//!   the day-0 SQL aggregate, stale reads, protocol errors. These are a
//!   pure function of `(seed, clients, scale)` regardless of thread
//!   interleaving: the deterministic fields of the [`Report`].
//! * **timing-dependent** — latency percentiles, throughput, shed and
//!   cache-hit counts: its perf fields, ten of them persisted, so only
//!   `BENCH_SERVE.json`'s other seven compare against the committed file.

use crate::report::{Report, Value};
use crate::setup::{until_served, warehouse, BenchConfig};
use dfs::Dfs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spate_core::DecayPolicy;
use spate_serve::{ClientConn, Reply, ServeConfig, Server, StatsFrame, TraceFrame};
use std::sync::{Arc, Barrier};
use telco_trace::cells::BoundingBox;
use telco_trace::time::EPOCHS_PER_DAY;
use telco_trace::TraceConfig;

/// Per-client workload volume (per phase where applicable).
const INTERACTIVE_QUERIES: usize = 24;
const SCAN_QUERIES: usize = 6;

/// Latency percentiles in microseconds for one admission class, read
/// back from the labeled `serve.latency_us{class="..."}` histogram the
/// server populates (one metric name, one label — not a mangled name
/// per class).
fn latency_us(class: &str) -> (u64, u64, u64) {
    let h = obs::global().histogram_labeled("serve.latency_us", &[("class", class)]);
    (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99))
}

/// Drive the full two-phase scenario and build the report; `introspect`
/// appends the live Stats/Trace frames (`--introspect`).
pub fn serve_experiment(
    config: &BenchConfig,
    clients: usize,
    seed: u64,
    introspect: bool,
) -> Report {
    // One experiment = one measurement window. Clearing the registry up
    // front makes every metric-derived report field (prefetch count,
    // latency quantiles, the meta monitor's sampling windows) describe
    // this run only.
    obs::reset();
    let day = EPOCHS_PER_DAY as usize;
    let policy = DecayPolicy {
        full_resolution_days: 1,
        day_highlight_days: 100,
        month_highlight_days: 100,
        year_highlight_days: 100,
    };
    let trace = TraceConfig::scaled(config.scale).with_days(3);
    let (fw, mut generator) = warehouse(trace, Dfs::in_memory(), policy, 2 * day);
    let day2 = generator.next_snapshot().expect("a third day");

    let server = Arc::new(Server::start(fw, ServeConfig::default()));
    let barrier = Arc::new(Barrier::new(clients + 1));
    let started = std::time::Instant::now();

    let mut handles = Vec::new();
    for c in 0..clients {
        let server = server.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            client_loop(&server, &barrier, seed, c as u64)
        }));
    }

    barrier.wait(); // all clients finished phase 1
                    // Meta-monitor ticks happen at workload boundaries (the clients are
                    // parked on barriers), so the tick count is a constant of the
                    // scenario: 2 after phase 1, 1 after the decay ingest, 2 after
                    // phase 2 — five per run, diffable.
    server.monitor_tick();
    server.monitor_tick();
    let invalidated_before = server.cache_stats().invalidations;
    server.ingest(&day2); // day 2 arrives → day 0 decays
    let decay_invalidations = server.cache_stats().invalidations - invalidated_before;
    server.monitor_tick();
    barrier.wait(); // release phase 2

    let mut per_client_rows = Vec::with_capacity(clients);
    // The day-0 `SELECT COUNT(*) FROM CDR` every client computed in
    // phase 1 — identical across clients or the run is broken.
    let mut day0_count = -1i64;
    let mut counts_agree = true;
    let (mut stale_reads, mut shed_retries) = (0u64, 0u64);
    for h in handles {
        let c = h.join().expect("serve client panicked");
        per_client_rows.push(c.rows);
        stale_reads += c.stale_reads;
        shed_retries += c.shed_retries;
        if day0_count < 0 {
            day0_count = c.day0_count;
        } else if day0_count != c.day0_count {
            counts_agree = false;
        }
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let cache = server.cache_stats();
    let prefetches = obs::global().counter("serve.prefetch").get();
    let (interactive_us, scan_us) = (latency_us("interactive"), latency_us("scan"));

    server.monitor_tick();
    server.monitor_tick();
    let meta = server.meta_summary();

    // Live introspection over the wire — the same control frames any
    // client could send mid-run. Stats and Trace are answered on the
    // connection's intake, so this works even while workers are saturated.
    let mut probe = server.connect();
    let live_stats = probe.stats().expect("stats frame");
    let live_trace = probe.trace(0).expect("trace frame");
    probe.close();

    let server = Arc::into_inner(server).expect("clients still hold server handles");
    let traces = server.traces();
    let stats = server.shutdown();
    let shed = stats.shed_overflow + stats.shed_deadline;

    let mut r = Report::new("serve", Some("BENCH_SERVE.json"));
    r.traces = traces;
    r.det("seed", seed);
    r.det("clients", clients);
    // Queries actually served: shed submissions retried by clients are
    // admitted exactly once each, so this is workload-deterministic.
    r.det("queries", stats.queries);
    r.det("rows_streamed", stats.rows_streamed);
    // Sum over clients of phase-1 exact row totals.
    r.det_console("phase1_rows", per_client_rows.iter().sum::<u64>());
    r.det_console("per_client_rows", per_client_rows);
    r.det_console("day0_count", day0_count);
    r.det_console("counts_agree", counts_agree).eq(true);
    let throughput = stats.queries as f64 / wall_secs.max(1e-9);
    r.perf_json("throughput_qps", Value::Float(throughput, 1));
    r.perf_json("wall_secs", Value::Float(wall_secs, 3));
    r.perf_json("interactive_p50_us", interactive_us.0);
    r.perf_json("interactive_p95_us", interactive_us.1);
    r.perf_json("interactive_p99_us", interactive_us.2);
    r.perf_json("scan_p50_us", scan_us.0);
    r.perf_json("scan_p95_us", scan_us.1);
    r.perf_json("scan_p99_us", scan_us.2);
    r.perf("shed_overflow", stats.shed_overflow);
    r.perf("shed_deadline", stats.shed_deadline);
    let shed_rate = shed as f64 / (stats.queries + shed).max(1) as f64;
    r.perf_json("shed_rate", Value::Float(shed_rate, 4));
    // Client-side resubmissions after a shed reply.
    r.perf("shed_retries", shed_retries);
    r.perf("prefetches", prefetches);
    r.perf_json("cache_hit_ratio", Value::Float(cache.hit_ratio(), 3));
    r.perf("cache_hits", cache.hits);
    r.perf("cache_misses", cache.misses);
    r.perf("cache_inserts", cache.inserts);
    r.perf("cache_evictions", cache.evictions);
    r.perf("cache_invalidations", cache.invalidations);
    // The mid-run decay evicted epochs the clients had just cached …
    r.perf("decay_invalidations", decay_invalidations)
        .at_least(1);
    // … and no phase-2 answer over the decayed day still carried rows.
    r.det("stale_reads", stale_reads).eq(0);
    r.det("protocol_errors", stats.protocol_errors).eq(0);
    // Meta-highlights self-monitoring: ticks happen at the scenario's
    // five barriers and the run injects no fault, so a calm run reports
    // no deterministic anomaly.
    r.det_console("meta_ticks", meta.ticks).eq(5);
    r.det_console("anomalies_deterministic", meta.anomalies_deterministic)
        .eq(0);
    // Timing-stream advisories; shed storms are expected under this load.
    r.perf("anomalies_total", meta.anomalies_total);
    if introspect {
        introspection(&mut r, &live_stats, &live_trace);
    }
    r
}

/// The live Stats and Trace frames fetched over the wire just before
/// shutdown, as further perf fields: which request happens to be the
/// latest trace and the current counter values depend on timing.
fn introspection(r: &mut Report, stats: &StatsFrame, trace: &TraceFrame) {
    r.perf("live_queries", stats.queries);
    r.perf("live_rows_streamed", stats.rows_streamed);
    r.perf("live_shed_overflow", stats.shed_overflow);
    r.perf("live_shed_deadline", stats.shed_deadline);
    r.perf("live_protocol_errors", stats.protocol_errors);
    r.perf("live_queue_interactive", stats.queue_interactive);
    r.perf("live_queue_scan", stats.queue_scan);
    r.perf("live_cache_hits", stats.cache_hits);
    r.perf("live_cache_misses", stats.cache_misses);
    r.perf("live_cache_evictions", stats.cache_evictions);
    r.perf("live_cache_invalidations", stats.cache_invalidations);
    r.perf("live_meta_ticks", stats.meta_ticks);
    r.perf("live_anomalies_total", stats.anomalies_total);
    r.perf(
        "live_anomalies_deterministic",
        stats.anomalies_deterministic,
    );
    r.perf("live_registry_counters", stats.counters.len());
    let anomalies = stats.anomalies.iter().map(|a| {
        let share = a.share_milli as f64 / 1000.0;
        format!(
            "tick={} stream={} category={} share={share:.3} deterministic={}",
            a.tick, a.stream, a.category, a.deterministic
        )
    });
    r.perf("live_anomaly", Value::Lines(anomalies.collect()));
    let top = stats.counters.iter().take(4);
    let top = top.map(|(name, v)| format!("{name}={v}"));
    r.perf("live_top_counter", Value::Lines(top.collect()));
    r.perf("live_trace_id", Value::Hex(trace.trace_id));
    r.perf("live_trace", Value::Lines(trace_lines(trace)));
}

/// Render one wire trace as deterministic, diffable lines: span ids are
/// rewritten to their index inside the trace (absolute ids come from a
/// process-global counter) and durations are omitted. Structure, names
/// and args are a pure function of the seeded workload.
pub fn trace_lines(frame: &TraceFrame) -> Vec<String> {
    let mut index = std::collections::HashMap::new();
    for s in &frame.spans {
        if s.span_id != 0 && !index.contains_key(&s.span_id) {
            index.insert(s.span_id, index.len() + 1);
        }
    }
    frame
        .spans
        .iter()
        .map(|s| {
            let own = index.get(&s.span_id).copied().unwrap_or(0);
            let parent = index.get(&s.parent_id).copied().unwrap_or(0);
            let kind = if s.instant { "instant" } else { "span" };
            let args: String = s.args.iter().map(|(k, v)| format!(" {k}={v}")).collect();
            format!("{kind} #{own} parent=#{parent} {}{args}", s.name)
        })
        .collect()
}

/// Deterministic single-request tracing scenario (`repro trace`): one
/// worker, prefetch off, a seeded window explored cold then warm. The
/// resulting span trees answer "why was request R slow" — the cold
/// trace shows one `cache.miss` per window epoch with the decompress /
/// parse / index work under it, the warm trace shows only hits. Span
/// structure, names, args and the cold/warm cache split never depend on
/// timing; the durations are not rendered.
pub fn trace_experiment(config: &BenchConfig, seed: u64) -> Report {
    obs::reset();
    let trace = TraceConfig::scaled(config.scale).with_days(1);
    let (fw, _) = warehouse(trace, Dfs::in_memory(), DecayPolicy::never(), 6);

    let started = std::time::Instant::now();
    let server = Server::start(
        fw,
        ServeConfig {
            workers: 1,
            prefetch: false, // keep the cold span tree minimal and exact
            ..ServeConfig::default()
        },
    );
    let mut conn = server.connect();

    let mut rng = StdRng::seed_from_u64(seed);
    let start = rng.gen_range(0..3u32);
    let window = (start, start + 3);

    let explore = |conn: &mut ClientConn| match conn
        .explore(&["upflux", "downflux"], BoundingBox::everything(), window)
        .expect("transport failed")
    {
        Reply::Rows { .. } => {}
        other => panic!("trace scenario expected rows, got {other:?}"),
    };
    explore(&mut conn);
    let cold_id = conn.last_trace_id().expect("request sent");
    explore(&mut conn);
    let warm_id = conn.last_trace_id().expect("request sent");

    server.monitor_tick();
    let cold = conn.trace(cold_id).expect("cold trace");
    let warm = conn.trace(warm_id).expect("warm trace");
    conn.close();
    let traces = server.traces();
    server.shutdown();
    // Chrome `trace_event` JSON for the cold request (open in
    // `chrome://tracing` / Perfetto).
    let cold_events: Vec<_> = traces
        .iter()
        .filter(|e| e.trace_id == cold_id)
        .cloned()
        .collect();
    let chrome_json = obs::export::chrome_trace(&cold_events);

    let named =
        |frame: &TraceFrame, name: &str| frame.spans.iter().filter(|s| s.name == name).count();
    let epochs = window.1 - window.0 + 1;
    let mut r = Report::new("trace", None);
    r.traces = traces;
    r.det("seed", seed);
    r.det("window_start", window.0);
    r.det("window_end", window.1);
    r.det("cold_spans", cold.spans.len());
    r.det("warm_spans", warm.spans.len());
    // Cold misses once per window epoch, warm hits every epoch.
    r.det("cold_evaluate_spans", named(&cold, "serve.evaluate"))
        .eq(1);
    r.det("cold_cache_misses", named(&cold, "cache.miss"))
        .eq(epochs);
    r.det("warm_cache_hits", named(&warm, "cache.hit"))
        .eq(epochs);
    r.det("warm_cache_misses", named(&warm, "cache.miss")).eq(0);
    // The cold tree answers "why was this slow": the wait for a worker,
    // the request, and the storage read each miss caused are all in it.
    r.det("cold_admission_waits", named(&cold, "admission.wait"))
        .eq(1);
    r.det("cold_request_spans", named(&cold, "serve.request"))
        .eq(1);
    r.det("cold_dfs_reads", named(&cold, "dfs.read"))
        .at_least(epochs);
    r.det("cold", Value::Lines(trace_lines(&cold)));
    r.det("warm", Value::Lines(trace_lines(&warm)));
    r.perf(
        "wall_secs",
        Value::Float(started.elapsed().as_secs_f64(), 3),
    );
    // The cold trace's; --trace-json writes every trace the server held.
    r.perf("chrome_json_bytes", chrome_json.len());
    r
}

struct ClientOutcome {
    rows: u64,
    day0_count: i64,
    stale_reads: u64,
    shed_retries: u64,
}

fn client_loop(server: &Server, barrier: &Barrier, seed: u64, id: u64) -> ClientOutcome {
    let day = EPOCHS_PER_DAY;
    let mut conn = server.connect();
    let mut rng = StdRng::seed_from_u64(seed ^ id.wrapping_mul(0x9E37_79B9));
    let mut retries = 0u64;

    // Deterministic workload, fixed before any racing begins.
    let interactive: Vec<(u32, u32)> = (0..INTERACTIVE_QUERIES)
        .map(|_| {
            let start = rng.gen_range(0..day - 6);
            let len = rng.gen_range(1..=6);
            (start, start + len - 1)
        })
        .collect();
    // Long windows over both retained days: classified as scans, queued
    // on the low-priority lane, and deliberately deep enough to overflow
    // it now and then so the shed/retry path sees real traffic.
    let scans: Vec<(u32, u32)> = (0..SCAN_QUERIES)
        .map(|_| {
            let start = rng.gen_range(0..2 * day - 25);
            let len = rng.gen_range(12..=24);
            (start, start + len - 1)
        })
        .collect();
    let day0 = (0u32, day - 1);

    let attributes = ["upflux", "downflux"];
    let everything = BoundingBox::everything();
    let count_day0 = "SELECT COUNT(*) FROM CDR";

    // Phase 1: everything retained; exact rows everywhere.
    let mut rows = 0u64;
    for &w in interactive.iter().chain(&scans) {
        let (reply, sheds) = until_served(|| conn.explore(&attributes, everything, w));
        retries += sheds;
        match reply {
            Reply::Rows { total_rows, .. } => rows += total_rows,
            other => panic!("phase 1 expected rows, got {other:?}"),
        }
    }
    let (reply, sheds) = until_served(|| conn.sql(day0, count_day0));
    retries += sheds;
    let day0_count = match reply {
        Reply::Rows { rows, .. } => match rows[0][0][0] {
            telco_trace::Value::Int(n) => n,
            ref v => panic!("unexpected count value {v:?}"),
        },
        other => panic!("phase 1 sql expected rows, got {other:?}"),
    };

    barrier.wait(); // phase 1 done
    barrier.wait(); // day 0 decayed

    // Phase 2: the same day-0 windows must all answer with summaries.
    let mut stale_reads = 0u64;
    for &w in &interactive {
        let (reply, sheds) = until_served(|| conn.explore(&attributes, everything, w));
        retries += sheds;
        match reply {
            Reply::Summary { .. } => {}
            Reply::Rows { .. } => stale_reads += 1,
            other => panic!("phase 2 unexpected reply {other:?}"),
        }
    }
    let (reply, sheds) = until_served(|| conn.sql(day0, count_day0));
    retries += sheds;
    match reply {
        Reply::Rows { rows, .. } => {
            stale_reads += u64::from(rows[0][0][0] != telco_trace::Value::Int(0));
        }
        other => panic!("phase 2 sql unexpected reply {other:?}"),
    }

    conn.close();
    ClientOutcome {
        rows,
        day0_count,
        stale_reads,
        shed_retries: retries,
    }
}
