//! Telemetry replay drill (`repro obs-replay`): record a sharded run's
//! own metrics into the decay-compressed [`obs::recorder`], persist the
//! image, reload it after a simulated restart, and re-render the
//! per-shard story **from the file alone**.
//!
//! The drill runs one 4-shard facade through two seeded phases:
//!
//! 1. **Balanced** — every tick fires a region-wide query, so all shards
//!    see identical work and the `shard.skew` meta-stream must stay
//!    silent (its category never becomes rare).
//! 2. **Skewed** — every tick fires a tight single-site query owned by
//!    shard 0; the windowed per-shard query deltas hit a max/mean ratio
//!    of `shards`, the stream flips to `hot-spot`, and θ-rarity fires a
//!    **deterministic** anomaly.
//!
//! Every tick publishes the `spate.shard.*` gauges, advances the meta
//! monitor and takes one recorder sample; `window_samples` ticks close a
//! window, old windows decay to coarser resolution, and the final image
//! is Sprintz-packed. The report splits like the other drills: the
//! deterministic fields are a pure function of `(seed, shards)` and
//! `BENCH_OBS.json` holds only them; latencies and byte sizes are perf
//! fields. The image itself records latencies, so `OBS_TELEMETRY.bin`
//! differs from run to run.

use crate::report::{Report, Value};
use obs::recorder::{pack_series, Recorder, RecorderConfig};
use spate_core::query::Query;
use spate_core::shard::{shard_of_cell, ShardedSpate};
use spate_core::{MetaMonitor, StreamKind};
use telco_trace::cells::BoundingBox;
use telco_trace::{Snapshot, TraceConfig, TraceGenerator};

/// Epochs ingested before any telemetry tick.
const INGEST_EPOCHS: usize = 8;
/// Record-volume fraction of the million-user profile (telemetry cadence
/// is the subject here, not ingest volume).
const VOLUME: f64 = 0.02;
/// Sample ticks per phase; two phases at `WINDOW_SAMPLES` samples per
/// window yield 32 closed windows — above the ≥30 replay gate.
const PHASE_TICKS: usize = 128;
/// Recorder samples per window for this drill.
const WINDOW_SAMPLES: usize = 8;

/// A 1-meter box around the first site owned by shard 0 — a query shape
/// whose scatter touches exactly one shard.
fn shard0_box(shards: &ShardedSpate) -> BoundingBox {
    let layout = shards.layout();
    let n = shards.n_shards();
    for cell in 0..layout.len() as u32 {
        if shard_of_cell(cell, n) == 0 {
            let site = layout.get(cell);
            return BoundingBox::new(
                (site.x_m - 1.0).max(0.0),
                (site.y_m - 1.0).max(0.0),
                site.x_m + 1.0,
                site.y_m + 1.0,
            );
        }
    }
    unreachable!("modulo sharding always owns a cell on shard 0");
}

/// Last value of `series` in the newest closed window that carries it.
fn last_recorded(rec: &Recorder, series: &str) -> u64 {
    rec.windows()
        .iter()
        .rev()
        .find_map(|w| w.series.get(series).and_then(|v| v.last().copied()))
        .unwrap_or(0)
}

/// Drive the full drill and build the report.
pub fn obs_replay_experiment(shards: usize, seed: u64) -> Report {
    assert!(shards >= 2, "the skew drill needs at least two shards");
    obs::reset();
    obs::recorder::global().configure(RecorderConfig {
        window_samples: WINDOW_SAMPLES,
        fresh_windows: 8,
        max_windows: 64,
    });
    let started = std::time::Instant::now();

    let config = TraceConfig::million_user(VOLUME).with_seed(seed);
    let mut generator = TraceGenerator::new(config);
    let layout = generator.layout().clone();
    let snaps: Vec<Snapshot> = (&mut generator).take(INGEST_EPOCHS).collect();
    let facade = ShardedSpate::in_memory(layout, shards);
    for s in &snaps {
        facade.ingest(s);
    }

    let mut monitor = MetaMonitor::default();
    let everything = BoundingBox::everything();
    let hot_box = shard0_box(&facade);
    let mut skew_balanced = 0u64;
    let mut skew_skewed = 0u64;

    for tick in 0..2 * PHASE_TICKS {
        let balanced = tick < PHASE_TICKS;
        let bbox = if balanced { everything } else { hot_box };
        let epoch = (tick % INGEST_EPOCHS) as u32;
        let q = Query::new(&["upflux", "downflux"], bbox).with_epoch_range(epoch, epoch);
        let t0 = std::time::Instant::now();
        facade.query(&q);
        obs::slo::global().record(t0.elapsed().as_micros() as u64);
        // Gauges first, then the monitor, then the recorder: every tick
        // samples the same freshly-published per-shard state.
        facade.shard_stats();
        let fired = monitor.tick(obs::global());
        let skew = fired
            .iter()
            .filter(|a| a.stream == "shard.skew" && a.kind == StreamKind::Deterministic)
            .count() as u64;
        if balanced {
            skew_balanced += skew;
        } else {
            skew_skewed += skew;
        }
        obs::recorder::global().sample(obs::global());
    }

    // Persist, "restart", reload, and prove the round-trip is exact.
    obs::recorder::global().flush();
    let image = obs::recorder::global().to_bytes();
    let loaded = Recorder::from_bytes(&image).expect("recorded image loads");
    let reload_identical = loaded.to_bytes() == image;

    // Codec honesty: re-pack every loaded series and compare against the
    // 8-bytes-per-sample raw footprint the ring would otherwise hold.
    let windows = loaded.windows();
    let raw_bytes = loaded.raw_size();
    let packed_value_bytes: usize = windows
        .iter()
        .flat_map(|w| w.series.values())
        .map(|v| pack_series(v).len())
        .sum();

    // Re-render the per-shard story from the loaded image alone: the
    // last recorded value of each `spate.shard.*` series.
    let column = |series: &str| -> Vec<u64> {
        let of = |i| {
            last_recorded(
                &loaded,
                &series.replacen("{}", &format!("{{shard=\"{i}\"}}"), 1),
            )
        };
        (0..shards).map(of).collect()
    };
    let queries = column("spate.shard.queries{}");
    let leaves = column("spate.shard.leaves{}");

    let summary = monitor.summary();
    let mut r = Report::new("obs-replay", Some("BENCH_OBS.json"));
    r.det("seed", seed);
    r.det("shards", shards);
    r.det("epochs", INGEST_EPOCHS);
    // Recorder ticks taken (= meta monitor ticks).
    r.det("ticks", loaded.tick());
    r.det("meta_ticks", summary.ticks);
    r.det("windows_recorded", windows.len()).at_least(30);
    // Series in the newest closed window.
    r.det(
        "series_recorded",
        windows.last().map_or(0, |w| w.series.len()),
    );
    // Samples across all closed windows, after resolution decay.
    let samples_total: usize = windows.iter().map(|w| w.samples()).sum();
    r.det("samples_total", samples_total);
    // save → load → save is byte-identical (the restart gate).
    r.det("reload_identical", reload_identical).eq(true);
    // Sprintz codec beats raw `u64` samples by ≥ 3×.
    let compression_ok = raw_bytes as f64 >= 3.0 * packed_value_bytes as f64;
    r.det("compression_ok", compression_ok).eq(true);
    // Balanced phase silent, skewed phase fires.
    r.det("skew_anomalies_balanced", skew_balanced).eq(0);
    r.det("skew_anomalies_skewed", skew_skewed).at_least(1);
    // Re-rendered from the loaded image, not the live registry — the
    // replay proof. The skewed phase sent every extra query to shard 0.
    r.det("shard_queries", queries.clone()).holds(
        "has one entry per shard, the first above every other",
        queries.len() == shards && queries[1..].iter().all(|&q| q < queries[0]),
    );
    r.det("shard_bytes", column("spate.shard.bytes{}"));
    let rows = leaves.iter().enumerate();
    let rows = rows.map(|(shard, leaves)| format!("shard={shard} leaves={leaves}"));
    r.det_console("shard_rows", Value::Lines(rows.collect()));
    // Last recorded windowed p95 of `spate.shard.query_us` per shard.
    r.perf("windowed_p95_us", column("spate.shard.query_us{}/p95"));
    r.perf("raw_bytes", raw_bytes);
    r.perf("packed_value_bytes", packed_value_bytes);
    let compression_ratio = raw_bytes as f64 / packed_value_bytes.max(1) as f64;
    r.perf("compression_ratio", Value::Float(compression_ratio, 1));
    r.perf("image_bytes", image.len());
    r.perf(
        "wall_secs",
        Value::Float(started.elapsed().as_secs_f64(), 3),
    );
    // The persisted recorder image (CI uploads it as an artifact).
    r.artifact = Some(("OBS_TELEMETRY.bin", image));
    r
}
