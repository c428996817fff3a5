//! The paper's artifacts (Fig. 4, Table I, Figs. 7–12, the decay run) and
//! the two storage drills (`chaos`, `cas`), each building its [`Report`].
//!
//! A paper artifact's tables are [`Value::Lines`] rows and the paper's
//! shapes are its gates: deterministic ones (entropy column counts, ratio
//! and space orderings, decay bookkeeping), which `tests/drills.rs` holds
//! at a quick config, and perf-tagged ones (wall-clock orderings and
//! factors), which CI's `paper` step holds on the release build.

use crate::report::{Report, Value};
use crate::setup::{build_frameworks, ingest_all, ingest_resubmitting, warehouse, BenchConfig};
use codecs::table1_codecs as codec_list;
use dfs::{Dfs, DfsConfig, FaultConfig, IoModel, RepairReport};
use spate_core::framework::{ExplorationFramework, SpateFramework};
use spate_core::index::decay::DecayPolicy;
use spate_core::query::{Query, QueryResult};
use spate_core::tasks;
use std::time::Instant;
use telco_trace::cells::BoundingBox;
use telco_trace::entropy::EntropyProfile;
use telco_trace::schema::{cdr, cell, nms};
use telco_trace::time::{DayPeriod, EpochId, Weekday, EPOCHS_PER_DAY};
use telco_trace::TraceGenerator;

/// Names of the compared frameworks, in paper order.
pub const FRAMEWORK_NAMES: [&str; 3] = ["RAW", "SHAHED", "SPATE"];

/// Wall-clock orderings are read off the best of this many passes: one
/// pass beside a busy neighbour has bent Table I's.
const TIMED_PASSES: usize = 3;

/// One table row: a label and a value per framework, `RAW=… SHAHED=… SPATE=…`.
fn framework_row(label: &str, values: [f64; 3], digits: usize) -> String {
    let cells = FRAMEWORK_NAMES.iter().zip(values);
    let cells: Vec<String> = cells.map(|(n, v)| format!("{n}={v:.digits$}")).collect();
    format!("{label} {}", cells.join(" "))
}

// ---------------------------------------------------------------- Fig. 4

/// A profile as the figure draws it: one bar per attribute.
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(f64::MIN, f64::max).max(1e-12);
    values
        .iter()
        .map(|v| BARS[((v / max) * 7.0).round() as usize])
        .collect()
}

/// Fig. 4: "the entropy of each attribute in CDR data, NMS data, and CELL
/// data", bits per symbol over one generated day.
pub fn fig4_experiment(config: &BenchConfig) -> Report {
    let mut generator = config.generator();
    let layout = generator.layout().clone();
    let mut cdr_rows = Vec::new();
    let mut nms_rows = Vec::new();
    for snap in (&mut generator).take(EPOCHS_PER_DAY as usize) {
        cdr_rows.extend(snap.cdr);
        nms_rows.extend(snap.nms);
    }
    let cdr = EntropyProfile::of(&cdr_rows, cdr::WIDTH);
    let nms = EntropyProfile::of(&nms_rows, nms::WIDTH);
    let cell = EntropyProfile::of(&layout.to_records(), cell::WIDTH);

    let mut r = Report::new("fig4", None);
    // CDR: "most attributes have an entropy smaller than 1 and some even
    // have an entropy of 0"; a few id/volume attributes carry many bits.
    r.det("cdr_attrs", cdr.per_column.len()).eq(cdr::WIDTH);
    r.det("cdr_zero_entropy", cdr.zero_columns()).at_least(30);
    r.det("cdr_below_1_bit", cdr.below(1.0))
        .at_least((cdr::WIDTH / 2 + 1) as u32);
    r.det("cdr_max_bits", Value::Float(cdr.max(), 2))
        .at_least(4.0);
    r.det("cdr_mean_bits", Value::Float(cdr.mean(), 2));
    // NMS: counters carry a few bits each.
    r.det("nms_attrs", nms.per_column.len()).eq(nms::WIDTH);
    r.det("nms_max_bits", Value::Float(nms.max(), 2))
        .at_least(2.0);
    r.det("nms_mean_bits", Value::Float(nms.mean(), 2));
    // CELL: a low-entropy inventory (the paper's tops out near 3.5 bits).
    r.det("cell_attrs", cell.per_column.len()).eq(cell::WIDTH);
    r.det("cell_max_bits", Value::Float(cell.max(), 2))
        .at_least(1.0);
    r.det("cell_mean_bits", Value::Float(cell.mean(), 2));
    let bars = [("CDR", &cdr), ("NMS", &nms), ("CELL", &cell)];
    let bars = bars.map(|(name, p)| format!("{name} {}", sparkline(&p.per_column)));
    r.det_console("bars", Value::Lines(bars.to_vec()));
    r
}

// --------------------------------------------------------------- Table I

/// Table I: the lossless codecs over 32 mid-trace snapshots (the paper
/// used 200 of its real trace) — ratio `r_c = S / S_c`, and mean
/// compression and decompression time per snapshot.
pub fn table1_experiment(config: &BenchConfig) -> Report {
    // Skip the first quiet night so snapshots carry daytime volume.
    let snaps: Vec<Vec<u8>> = config
        .generator()
        .skip(16)
        .take(32)
        .map(|s| s.to_bytes())
        .collect();
    let raw_total: usize = snaps.iter().map(Vec::len).sum();

    // `(name, ratio, T_c1 ms, T_c2 ms)` per codec.
    let mut rows: Vec<(&'static str, f64, f64, f64)> = Vec::new();
    for codec in codec_list() {
        let mut packed_total = 0usize;
        let (mut tc1, mut tc2) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..TIMED_PASSES {
            packed_total = 0;
            let (mut compress, mut decompress) = (0.0, 0.0);
            for raw in &snaps {
                let t0 = Instant::now();
                let packed = codec.compress(raw);
                compress += t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let unpacked = codec.decompress(&packed).expect("round trip");
                decompress += t0.elapsed().as_secs_f64();
                assert_eq!(unpacked.len(), raw.len());
                packed_total += packed.len();
            }
            tc1 = tc1.min(compress);
            tc2 = tc2.min(decompress);
        }
        let per_snapshot_ms = 1e3 / snaps.len() as f64;
        rows.push((
            codec.name(),
            raw_total as f64 / packed_total as f64,
            tc1 * per_snapshot_ms,
            tc2 * per_snapshot_ms,
        ));
    }
    let of = |name: &str| *rows.iter().find(|r| r.0 == name).expect("a Table I codec");
    let (gzip, seven, snappy, zstd) = (
        of("gzip-lite"),
        of("7z-lite"),
        of("snappy-lite"),
        of("zstd-lite"),
    );
    let column = |f: fn(&(&'static str, f64, f64, f64)) -> String| {
        Value::Lines(rows.iter().map(f).collect())
    };

    let mut r = Report::new("table1", None);
    r.det("snapshots", snaps.len());
    r.det("raw_bytes", raw_total);
    // Paper: 9.06 / 11.75 / 4.94 / 9.72 for GZIP / 7z / SNAPPY / ZSTD.
    r.det_console("ratio", column(|c| format!("{} {:.2}", c.0, c.1)))
        .holds(
            "7z > gzip > snappy, zstd > snappy, snappy < 0.75 x gzip",
            seven.1 > gzip.1 && gzip.1 > snappy.1 && zstd.1 > snappy.1 && snappy.1 < 0.75 * gzip.1,
        );
    r.perf("tc1_ms", column(|c| format!("{} {:.3}", c.0, c.2)))
        .holds(
            "snappy compresses fastest",
            rows.iter().all(|c| c.0 == snappy.0 || snappy.2 < c.2),
        );
    r.perf("tc2_ms", column(|c| format!("{} {:.3}", c.0, c.3)))
        .holds(
            "T_c1 > T_c2 for every codec",
            rows.iter().all(|c| c.2 > c.3),
        );
    r
}

// ------------------------------------------------------------ Figs. 7-10

/// Figs. 7–10: ingest the whole configured trace into all three
/// frameworks — mean ingestion time per snapshot and stored space, by day
/// period and by weekday — and §VIII's whole-trace space comparison.
pub fn ingest_experiment(config: &BenchConfig) -> Report {
    ingest_report("fig7", config)
}

/// §VIII's total-space comparison alone: the same run as
/// [`ingest_experiment`], its per-partition tables left out.
pub fn space_summary_experiment(config: &BenchConfig) -> Report {
    ingest_report("space-summary", config)
}

fn ingest_report(name: &'static str, config: &BenchConfig) -> Report {
    let (mut fws, mut generator) = build_frameworks(config);

    #[derive(Default)]
    struct Acc {
        secs: [f64; 3],
        stored: [u64; 3],
        raw: u64,
        n: u64,
    }
    // Four day periods, seven weekdays, the whole trace.
    let mut parts: Vec<(&'static str, Acc)> = DayPeriod::ALL
        .iter()
        .map(|p| p.label())
        .chain(Weekday::ALL.iter().map(|w| w.label()))
        .chain(["total"])
        .map(|label| (label, Acc::default()))
        .collect();
    let total = parts.len() - 1;

    while let Some(snapshot) = generator.next_snapshot() {
        let stats = [
            fws.raw.ingest(&snapshot),
            fws.shahed.ingest(&snapshot),
            fws.spate.ingest(&snapshot),
        ];
        let period = DayPeriod::ALL
            .iter()
            .position(|p| *p == snapshot.epoch.day_period());
        let weekday = Weekday::ALL
            .iter()
            .position(|w| *w == snapshot.epoch.weekday());
        let weekday = DayPeriod::ALL.len() + weekday.expect("a weekday");
        for part in [period.expect("a day period"), weekday, total] {
            let acc = &mut parts[part].1;
            for (i, st) in stats.iter().enumerate() {
                acc.secs[i] += st.seconds;
                acc.stored[i] += st.stored_bytes;
            }
            acc.raw += stats[0].raw_bytes;
            acc.n += 1;
        }
    }
    fws.shahed.finalize();

    let spaces = fws.iter().map(|f| f.space());
    let raw_total = parts[total].1.raw;
    // Stored bytes of a partition plus its raw share of the index.
    let space_mb = |acc: &Acc| -> [f64; 3] {
        let share = acc.raw as f64 / raw_total.max(1) as f64;
        [0, 1, 2]
            .map(|i| (acc.stored[i] + (spaces[i].index_bytes as f64 * share) as u64) as f64 / 1e6)
    };
    let mean_secs = |acc: &Acc| -> [f64; 3] { acc.secs.map(|s| s / acc.n.max(1) as f64) };
    let rows = |range: std::ops::Range<usize>, digits: usize, f: &dyn Fn(&Acc) -> [f64; 3]| {
        let rows = parts[range].iter();
        Value::Lines(rows.map(|(l, a)| framework_row(l, f(a), digits)).collect())
    };
    let (periods, weekdays) = (0..DayPeriod::ALL.len(), DayPeriod::ALL.len()..total);

    let mut r = Report::new(name, None);
    r.det("epochs", parts[total].1.n);
    r.det("raw_mb", Value::Float(raw_total as f64 / 1e6, 2));
    if name == "fig7" {
        // Paper: SPATE an order of magnitude smaller, stable across
        // partitions; SHAHED is RAW plus its index.
        let ordered = parts[..total].iter().all(|(_, acc)| {
            let [raw, shahed, spate] = space_mb(acc);
            spate < raw && raw <= shahed
        });
        r.det_console("fig8", rows(periods.clone(), 2, &space_mb));
        r.det_console("fig10", rows(weekdays.clone(), 2, &space_mb));
        r.det_console("partitions", total)
            .holds("each store SPATE < RAW <= SHAHED MB", ordered);
        r.perf("fig7", rows(periods, 4, &mean_secs));
        r.perf("fig9", rows(weekdays, 4, &mean_secs));
        // Paper: SPATE the slowest ingester, by at most ~1.25x.
        let [raw, _, spate] = mean_secs(&parts[total].1);
        let overhead = r.perf("spate_over_raw_ingest", Value::Float(spate / raw, 2));
        if config.throttled {
            overhead.holds("<= 1.35", spate / raw <= 1.35);
        }
    }
    // §VIII: 5.32 GB | 5.37 GB | 0.49 GB, RAW/SPATE 10.9x.
    let [raw, shahed, spate] = [0, 1, 2].map(|i| spaces[i].total() as f64 / 1e6);
    r.det("raw_total_mb", Value::Float(raw, 2));
    r.det("shahed_total_mb", Value::Float(shahed, 2));
    r.det("spate_total_mb", Value::Float(spate, 2)).holds(
        "< raw_total_mb <= shahed_total_mb",
        spate < raw && raw <= shahed,
    );
    let ratio = r.det("raw_over_spate_space", Value::Float(raw / spate, 1));
    // The ratio grows with snapshot size (Table I); below the default
    // scale an epoch is a few KB and it sits under 5.
    if config.scale >= 1.0 / 128.0 {
        ratio.at_least(5.0);
    }
    r
}

// ------------------------------------------------------------- Decay run

/// Continuous decay (the paper's Fig. 5): a SPATE instance ingesting the
/// whole trace under an aggressive sliding-window policy — one day at
/// full resolution, two days of day highlights, four of month highlights
/// — so with the default 7-day trace every eviction path fires.
pub fn decay_experiment(config: &BenchConfig) -> Report {
    let policy = DecayPolicy {
        full_resolution_days: 1,
        day_highlight_days: 2,
        month_highlight_days: 4,
        year_highlight_days: 1000,
    };
    let (spate, _) = warehouse(config.trace_config(), config.dfs(), policy, usize::MAX);
    let log = spate.decay_log();
    let m = spate.store().dfs().metrics();

    let mut r = Report::new("decay", None);
    let epochs = spate.index().last_epoch().map_or(0, |e| e.0 + 1);
    r.det("epochs_ingested", epochs);
    r.det("leaves_evicted", log.leaves_evicted).at_least(1);
    // Logical compressed bytes purged from the filesystem.
    r.det("bytes_freed", log.bytes_freed).at_least(1);
    r.det("day_highlights_dropped", log.day_highlights_dropped)
        .at_least(1);
    r.det("month_highlights_dropped", log.month_highlights_dropped);
    // Every evicted leaf is one DFS delete, and the metrics layer must
    // not drop them.
    r.det("dfs_deletes", m.deletes).eq_field("leaves_evicted");
    r.det("dfs_bytes_deleted", m.bytes_deleted)
        .eq_field("bytes_freed");
    // The newest day survives.
    r.det("present_leaves", spate.index().present_leaves())
        .at_least(1);
    r.det("stored_bytes", spate.store().stored_bytes());
    r
}

// ------------------------------------------------------------- Chaos run

/// Check a query result's coverage arithmetic against the leaf count of
/// its window. Returns false only for genuinely inconsistent reports.
fn coverage_is_consistent(result: &QueryResult, requested: u32) -> bool {
    match result.coverage() {
        Some(c) => c.requested == requested && c.served + c.decayed + c.unavailable == c.requested,
        // Summary / Unavailable results carry no epoch coverage.
        None => true,
    }
}

/// The `repro chaos` experiment: ingest a scaled week through a DFS with a
/// seeded [`FaultConfig::chaos`] plan — transient read/write faults,
/// silent replica corruption, stragglers and a rolling datanode
/// crash/restart cycle — while running T1–T4 and a data-exploration query
/// every simulated day, repairing daily, then staging a blackout of the
/// datanodes that hold one drill-day block (two, at replication 2) and
/// verifying zero data loss once the cluster heals.
///
/// `cas = true` runs the identical fault schedule over the
/// content-addressed store, which is held to the same zero-data-loss bar
/// as the per-epoch path layout. Every field is a pure function of the
/// seed and the [`BenchConfig`]; `BENCH_CHAOS.json` records the
/// CAS-backend run: the path run passes the same gates and writes no
/// file, so one run never overwrites the other's report.
pub fn chaos_experiment(config: &BenchConfig, seed: u64, cas: bool) -> Report {
    let mut generator = config.generator();
    let layout = generator.layout().clone();

    // Small blocks so leaf files span several blocks and the per-block
    // fault machinery (CRC verify, failover, repair) sees real traffic.
    // Replication 2 over 4 nodes keeps blocks findable with one node down
    // (the crash cycle's regime) but vulnerable during the 2-node drill.
    let dfs_config = DfsConfig {
        block_size: 4 * 1024,
        replication: 2,
        n_datanodes: 4,
        io: IoModel::unthrottled(),
        cache_bytes: 0,
        ..DfsConfig::default()
    };
    let replication = dfs_config.replication;
    let dfs = Dfs::with_faults(dfs_config, FaultConfig::chaos(seed));
    // Decay the two oldest days of a week so the coverage report's
    // `decayed` bucket is exercised alongside `unavailable`.
    let policy = DecayPolicy {
        full_resolution_days: 5,
        day_highlight_days: 30,
        month_highlight_days: 365,
        year_highlight_days: 1000,
    };
    let mut spate = if cas {
        SpateFramework::with_cas(dfs, layout).with_decay(policy)
    } else {
        SpateFramework::new(dfs, layout).with_decay(policy)
    };

    let mut epochs_ingested = 0usize;
    let mut ingest_retries = 0u64;
    let mut ingest_failures = 0u64;
    let mut queries_run = 0usize;
    let mut exact_results = 0usize;
    let mut partial_results = 0usize;
    let mut unavailable_results = 0usize;
    let mut inconsistent_coverage = 0usize;
    let mut repair = RepairReport::default();

    while let Some(snapshot) = generator.next_snapshot() {
        let (ingested, retries) = ingest_resubmitting(&mut spate, &snapshot);
        epochs_ingested += usize::from(ingested);
        ingest_failures += u64::from(!ingested);
        ingest_retries += retries;

        // End of each simulated day: a repair pass, the first four paper
        // tasks over the finished day, and one coverage-checked query.
        if snapshot.epoch.epoch_in_day() == EPOCHS_PER_DAY - 1 {
            repair.merge(&spate.store().dfs().repair());

            let day_start = EpochId(snapshot.epoch.day_index() * EPOCHS_PER_DAY);
            let day_end = snapshot.epoch;
            let fw: &dyn ExplorationFramework = &spate;
            let _ = tasks::t1_equality(fw, EpochId(day_start.0 + EPOCHS_PER_DAY / 2));
            let _ = tasks::t2_range(fw, day_start, day_end);
            let _ = tasks::t3_aggregate(fw, day_start, day_end);
            let _ = tasks::t4_join(fw, EpochId(day_end.0 - 3), day_end);

            let q = Query::new(&["upflux", "downflux"], BoundingBox::everything())
                .with_epoch_range(day_start.0, day_end.0);
            let result = spate.query(&q);
            queries_run += 1;
            match &result {
                QueryResult::Exact(_) | QueryResult::Summary { .. } => exact_results += 1,
                QueryResult::Partial { .. } => partial_results += 1,
                QueryResult::Unavailable => unavailable_results += 1,
            }
            if !coverage_is_consistent(&result, EPOCHS_PER_DAY) {
                inconsistent_coverage += 1;
            }
        }
    }

    let last_epoch = config.days * EPOCHS_PER_DAY - 1;
    let dfs = spate.store().dfs().clone();

    // Blackout drill: take down every datanode holding one block the drill
    // day's reads fetch (of a Path leaf or a CAS pack), the first of those
    // with the fewest replicas, so at least its epoch becomes unreadable
    // and queries must degrade to partial results instead of erroring.
    let drill_day = config.days - 2; // well inside the full-resolution window
    let drill_start = EpochId(drill_day * EPOCHS_PER_DAY);
    let drill_end = EpochId(drill_day * EPOCHS_PER_DAY + EPOCHS_PER_DAY - 1);
    let store = spate.store();
    let read_file = |e| match store.cas() {
        Some(cas) => cas.pack_path(e),
        None => store.path_for(EpochId(e)),
    };
    let blocks = (drill_start.0..=drill_end.0).flat_map(|e| dfs.block_replicas(&read_file(e)));
    for dn in blocks.min_by_key(Vec::len).unwrap_or_default() {
        dfs.kill_datanode(dn);
    }
    let probe = spate.probe_coverage(drill_start, drill_end);
    let blackout_unavailable = probe.unavailable;
    let q = Query::new(&["upflux"], BoundingBox::everything())
        .with_epoch_range(drill_start.0, drill_end.0);
    let drill_result = spate.query(&q);
    // A block with no live replica surfaces as degradation, never as a
    // clean answer.
    let blackout_degraded_cleanly = match &drill_result {
        QueryResult::Partial { .. } | QueryResult::Unavailable => {
            coverage_is_consistent(&drill_result, EPOCHS_PER_DAY)
        }
        QueryResult::Exact(_) | QueryResult::Summary { .. } => false,
    };

    // Heal: bring the nodes back (a crash is a restart — the disks
    // survive), then repair until replication is restored.
    for id in 0..4 {
        dfs.revive_datanode(id);
    }
    repair.merge(&dfs.repair());
    repair.merge(&dfs.repair());
    // Blocks still holding more copies than the replication factor once
    // every node is back: a revived node's copies must have been trimmed.
    let over_replicated_blocks = dfs
        .list("/")
        .iter()
        .flat_map(|path| dfs.block_replicas(path))
        .filter(|holders| holders.len() > replication)
        .count();

    // Zero-data-loss verification: every epoch of the whole trace must be
    // served or decayed — nothing unavailable after the cluster healed.
    let final_coverage = spate.probe_coverage(EpochId(0), EpochId(last_epoch));

    let faults = spate.store().dfs().fault_stats();
    let mut r = Report::new("chaos", cas.then_some("BENCH_CHAOS.json"));
    r.det("seed", seed);
    r.det("backend", if cas { "cas" } else { "path" });
    r.det("epochs_ingested", epochs_ingested);
    r.det("ingest_retries", ingest_retries);
    // Epochs that never ingested even after re-submission.
    r.det("ingest_failures", ingest_failures).eq(0);
    // The fault plan did damage …
    r.det_console("transient_reads_injected", faults.transient_reads_injected)
        .at_least(1);
    r.det_console(
        "transient_writes_injected",
        faults.transient_writes_injected,
    );
    r.det_console(
        "corrupt_replicas_injected",
        faults.corrupt_replicas_injected,
    )
    .at_least(1);
    r.det_console("slow_reads_injected", faults.slow_reads_injected);
    r.det_console("crashes_injected", faults.crashes_injected)
        .at_least(1);
    r.det_console("revivals", faults.revivals);
    r.det_console("checksum_mismatches", faults.checksum_mismatches);
    r.det_console("read_failovers", faults.read_failovers);
    r.det_console("retry_attempts", faults.retry_attempts);
    r.det_console("retry_successes", faults.retry_successes);
    r.det_console("retries_exhausted", faults.retries_exhausted);
    // … and repair (all passes merged: one per simulated day + final)
    // healed all of it: the zero-data-loss gate.
    r.det("data_loss_epochs", final_coverage.unavailable).eq(0);
    r.det("repair_passes", faults.repair_passes);
    r.det_console("blocks_scanned", repair.blocks_scanned);
    r.det_console("under_replicated", repair.under_replicated);
    r.det("replicas_added", repair.replicas_added).at_least(1);
    r.det("corrupt_replicas_dropped", repair.corrupt_replicas_dropped);
    r.det_console("replicas_trimmed", repair.replicas_trimmed);
    r.det("over_replicated_blocks", over_replicated_blocks)
        .eq(0);
    r.det_console("unrecoverable", repair.unrecoverable).eq(0);
    // Exploration queries issued while faults were active.
    r.det("queries_run", queries_run);
    r.det_console("exact_results", exact_results);
    r.det_console("partial_results", partial_results);
    r.det_console("unavailable_results", unavailable_results);
    // Partial results whose coverage report did not add up (served +
    // decayed + unavailable ≠ requested).
    r.det("inconsistent_coverage", inconsistent_coverage).eq(0);
    // Epochs unreadable while the holders of a drill-day block were down.
    r.det_console("blackout_unavailable", blackout_unavailable)
        .at_least(1);
    r.det_console("blackout_degraded_cleanly", blackout_degraded_cleanly)
        .eq(true);
    // Decay ran, so the final probe exercises both healthy buckets.
    r.det_console("coverage_requested", final_coverage.requested)
        .holds(
            "== coverage_served + coverage_decayed",
            final_coverage.requested == final_coverage.served + final_coverage.decayed,
        );
    r.det("coverage_served", final_coverage.served);
    r.det("coverage_decayed", final_coverage.decayed)
        .at_least(1);
    r.det("coverage_unavailable", final_coverage.unavailable)
        .eq(0);
    r.det_console("present_leaves", spate.index().present_leaves());
    r
}

// --------------------------------------------------------------- CAS run

fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// The `repro cas` experiment: ingest one seeded week into the path
/// backend and the content-addressed backend on separate clusters, verify
/// both answer identical queries, measure the footprint of each, then
/// decay everything and verify the GC reclaims every byte. Everything but
/// the read latencies and the wall time is a pure function of `(seed,
/// scale, days)`; `BENCH_CAS.json` ends in three timing fields, so only
/// its deterministic fields compare against the committed file.
pub fn cas_experiment(config: &BenchConfig, seed: u64) -> Report {
    let wall = Instant::now();
    let mut trace_config = config.trace_config();
    trace_config.seed = seed;
    let mut generator = TraceGenerator::new(trace_config);
    let layout = generator.layout().clone();

    let mut path_fw = SpateFramework::new(config.dfs(), layout.clone());
    let mut cas_fw = SpateFramework::with_cas(config.dfs(), layout);

    let mut raw_bytes = 0u64;
    let mut epochs: Vec<EpochId> = Vec::new();
    while let Some(snapshot) = generator.next_snapshot() {
        raw_bytes += path_fw.ingest(&snapshot).raw_bytes;
        cas_fw.ingest(&snapshot);
        epochs.push(snapshot.epoch);
    }

    // Query equivalence: a full-day range scan and a midday point lookup
    // per simulated day, answered by both backends.
    let mut queries_run = 0usize;
    let mut results_equal = true;
    let last = epochs.last().copied().unwrap_or(EpochId(0));
    for day in 0..config.days {
        let start = EpochId(day * EPOCHS_PER_DAY);
        let end = EpochId(day * EPOCHS_PER_DAY + EPOCHS_PER_DAY - 1);
        if end > last {
            break;
        }
        let mid = EpochId(start.0 + EPOCHS_PER_DAY / 2);
        for q in [
            Query::new(&["upflux", "downflux"], BoundingBox::everything())
                .with_epoch_range(start.0, end.0),
            Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(mid.0, mid.0),
        ] {
            let a = path_fw.query(&q);
            let b = cas_fw.query(&q);
            queries_run += 1;
            if format!("{a:?}") != format!("{b:?}") {
                results_equal = false;
            }
        }
    }

    // Read-path latency: one cold-ish full-snapshot load per epoch per
    // backend (timing only: perf fields of the report).
    let mut path_us: Vec<u64> = Vec::with_capacity(epochs.len());
    let mut cas_us: Vec<u64> = Vec::with_capacity(epochs.len());
    for &e in &epochs {
        let t = Instant::now();
        path_fw.store().load(e).expect("path load");
        path_us.push(t.elapsed().as_micros() as u64);
        let t = Instant::now();
        cas_fw.store().load(e).expect("cas load");
        cas_us.push(t.elapsed().as_micros() as u64);
    }
    path_us.sort_unstable();
    cas_us.sort_unstable();

    let cas_store = cas_fw.store().cas().expect("cas backend").clone();
    let stats = cas_store.stats();
    let path_bytes = path_fw.store().stored_bytes();
    let cas_bytes = cas_store.listed_bytes();
    let pack_bytes = cas_store.pack_bytes();
    let manifest_bytes = cas_store.manifest_bytes();
    let manifest_root = cas_store.root_hash();

    // Full decay: evict every epoch, newest first, then sweep deferred
    // garbage. Decay is the GC — after this the store must hold zero bytes.
    let mut decay_freed = 0u64;
    for &e in epochs.iter().rev() {
        decay_freed += cas_fw.store().evict(e).expect("cas evict");
    }
    let gc_swept = cas_store.gc();
    let leak_bytes = cas_store.listed_bytes();

    // Storage reduction of the CAS backend vs. the path backend; as
    // integer permille too, so the 24 % acceptance bar compares integers.
    let reduction_pct = 100.0 * (1.0 - cas_bytes as f64 / path_bytes as f64);
    let saved = i128::from(path_bytes) - i128::from(cas_bytes);
    let reduction_permille = (saved * 1000 / i128::from(path_bytes.max(1))) as i64;

    let mut r = Report::new("cas", Some("BENCH_CAS.json"));
    r.det("seed", seed);
    r.det("epochs", epochs.len());
    r.det("raw_bytes", raw_bytes);
    // One compressed file per epoch …
    r.det("path_bytes", path_bytes);
    // … against packs (compressed units) + manifests (layouts, hashes and
    // constant values).
    r.det("cas_bytes", cas_bytes);
    r.det("pack_bytes", pack_bytes);
    r.det("manifest_bytes", manifest_bytes);
    r.det("reduction_pct", Value::Float(reduction_pct, 2));
    r.det("reduction_permille", reduction_permille)
        .at_least(240);
    r.det("dedup_hits", stats.dedup_hits).at_least(1);
    // Raw bytes the dedup hits avoided re-storing.
    r.det("dedup_bytes_saved", stats.dedup_bytes_saved)
        .at_least(1);
    // Merkle root over every retained epoch manifest: doubles as a
    // whole-store content fingerprint across runs.
    r.det("manifest_root", manifest_root.as_str());
    r.det_console("queries_run", queries_run).at_least(1);
    r.det("results_equal", results_equal).eq(true);
    // Bytes released by evicting every epoch (decay-as-GC), then the
    // deferred garbage the final sweep reclaimed.
    r.det_console("decay_freed", decay_freed).at_least(1);
    r.det_console("gc_swept", gc_swept);
    r.det("gc_reclaimed_bytes", decay_freed + gc_swept);
    // On-disk bytes under the CAS root after full decay + GC: the GC-leak
    // gate.
    r.det("leak_bytes", leak_bytes).eq(0);
    // Per-epoch full-snapshot read latency (µs); CAS pays the pack read
    // plus hash verification.
    r.perf("path_read_p50_us", percentile_us(&path_us, 0.50));
    r.perf_json("path_read_p95_us", percentile_us(&path_us, 0.95));
    r.perf("cas_read_p50_us", percentile_us(&cas_us, 0.50));
    r.perf_json("cas_read_p95_us", percentile_us(&cas_us, 0.95));
    r.perf_json("wall_secs", Value::Float(wall.elapsed().as_secs_f64(), 3));
    r
}

// ----------------------------------------------------------- Figs. 11-12

/// Figs. 11–12: T1–T8 on all three frameworks over the ingested trace.
///
/// Windows follow the paper's usage: point lookups and scans over a
/// mid-trace business day, the quadratic join over a morning window, the
/// heavy analytics over two days.
pub fn response_experiment(config: &BenchConfig) -> Report {
    assert!(
        config.days >= 5,
        "response windows need at least 5 trace days"
    );
    let (mut fws, mut generator) = build_frameworks(config);
    let epochs = (config.days * EPOCHS_PER_DAY) as usize;
    ingest_all(&mut fws, &mut generator, epochs);

    let day4 = 4 * EPOCHS_PER_DAY; // Friday
    let t1_epoch = EpochId(day4 + 24); // Friday 12:00
    let day_window = (EpochId(day4), EpochId(day4 + EPOCHS_PER_DAY - 1));
    let join_window = (EpochId(day4 + 14), EpochId(day4 + 35)); // Friday 07:00-18:00
    let heavy_window = (
        EpochId(3 * EPOCHS_PER_DAY),
        EpochId(day4 + EPOCHS_PER_DAY - 1),
    );

    // Each task behaves like a fresh analytics job: the page cache is
    // dropped before it starts (in-task re-reads still benefit — that is
    // T4's mechanism). Best of `TIMED_PASSES` rounds over the three
    // frameworks: the first also warms the process allocator, so
    // first-touch page faults don't bias whichever framework runs first.
    let run = |f: &dyn Fn(&dyn ExplorationFramework) -> f64| -> [f64; 3] {
        let mut best = [f64::INFINITY; 3];
        for _ in 0..TIMED_PASSES {
            for (best, fw) in best.iter_mut().zip(fws.iter()) {
                fws.raw.store().dfs().drop_caches();
                fws.shahed.store().dfs().drop_caches();
                fws.spate.store().dfs().drop_caches();
                *best = best.min(f(fw));
            }
        }
        best
    };
    type Task<'a> = (&'static str, &'a dyn Fn(&dyn ExplorationFramework) -> f64);
    let tasks: [Task; 8] = [
        ("T1 equality", &|fw| tasks::t1_equality(fw, t1_epoch).1),
        ("T2 range", &|fw| {
            tasks::t2_range(fw, day_window.0, day_window.1).1
        }),
        ("T3 aggregate", &|fw| {
            tasks::t3_aggregate(fw, day_window.0, day_window.1).1
        }),
        ("T4 join", &|fw| {
            tasks::t4_join(fw, join_window.0, join_window.1).1
        }),
        ("T5 privacy", &|fw| {
            tasks::t5_privacy(fw, day_window.0, day_window.1, 5).1
        }),
        ("T6 statistics", &|fw| {
            tasks::t6_statistics(fw, heavy_window.0, heavy_window.1).1
        }),
        ("T7 clustering", &|fw| {
            tasks::t7_clustering(fw, heavy_window.0, heavy_window.1, 8).1
        }),
        ("T8 regression", &|fw| {
            tasks::t8_regression(fw, heavy_window.0, heavy_window.1).1
        }),
    ];
    let secs: Vec<[f64; 3]> = tasks.iter().map(|(_, f)| run(f)).collect();
    let rows = |range: std::ops::Range<usize>| {
        let rows = tasks[range.clone()].iter().zip(&secs[range]);
        Value::Lines(
            rows.map(|((name, _), t)| framework_row(name, *t, 4))
                .collect(),
        )
    };

    let mut r = Report::new("fig11", None);
    r.det("epochs_ingested", epochs);
    // Seconds. Paper: on T1–T3 and T5 SPATE within 0.1–3 s of SHAHED …
    r.perf("fig11", rows(0..5));
    // … and T6–T8 CPU-bound, all three comparable.
    r.perf("fig12", rows(5..8));
    // Paper: SPATE 4–5x faster — the nested loop re-reads its inner
    // epochs, and only the compressed working set stays page-cached. A
    // shape of the modelled disks: at memory speed there is no re-read
    // to save.
    let [raw, _, spate] = secs[3];
    let t4 = r.perf("t4_raw_over_spate", Value::Float(raw / spate, 1));
    if config.throttled {
        t4.at_least(4.0);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    // The gates of both drills, their same-seed determinism and the
    // committed files are `tests/drills.rs`'s; what is left here is what
    // a second seed shows.
    #[test]
    fn another_seed_draws_another_fault_schedule_and_another_merkle_root() {
        let config = BenchConfig {
            scale: 1.0 / 2048.0,
            days: 7,
            throttled: false,
        };
        let (a, b) = (
            chaos_experiment(&config, 7, false),
            chaos_experiment(&config, 8, false),
        );
        let faults = |r: &Report| {
            let keys = [
                "transient_reads_injected",
                "transient_writes_injected",
                "corrupt_replicas_injected",
                "crashes_injected",
                "read_failovers",
                "retry_attempts",
            ];
            keys.map(|key| r.get(key).expect(key).clone())
        };
        assert_ne!(faults(&a), faults(&b));
        let day = BenchConfig { days: 1, ..config };
        let (a, b) = (cas_experiment(&day, 7), cas_experiment(&day, 8));
        assert!(matches!(a.get("manifest_root"), Some(Value::Str(_))));
        assert_ne!(a.get("manifest_root"), b.get("manifest_root"));
    }
}
