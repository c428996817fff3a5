//! `repro` — regenerate every table and figure of the SPATE paper.
//!
//! ```text
//! repro [EXPERIMENT] [--scale 1/N] [--days D] [--unthrottled]
//!       [--seed N] [--clients N] [--shards N] [--cas] [--profile]
//!       [--metrics-json PATH] [--introspect] [--trace-json PATH]
//!
//! EXPERIMENT: table1 | fig4 | fig7 | fig8 | fig9 | fig10 | fig11 | fig12
//!             | decay | chaos | serve | chaos-serve | trace | cas | cost
//!             | scale | obs-replay | space-summary | all (default)
//!
//! --seed N             workload/fault-plan seed for the chaos, serve,
//!                      chaos-serve, trace, cas, cost, scale and obs-replay
//!                      drills (default 7); two runs with the same flags
//!                      print identical `<drill>:` lines
//! --clients N          concurrent clients for the serve, chaos-serve and
//!                      scale experiments (default 8)
//! --shards N           shard count for the scale experiment (default 4)
//! --cas                run the chaos experiment over the content-addressed
//!                      storage backend instead of the path backend
//!
//! --profile            print the span flame table (per-stage wall time)
//!                      after the experiment finishes
//! --metrics-json PATH  dump the whole metric registry (counters, gauges,
//!                      histograms, spans) as JSON to PATH
//! --introspect         after a serve run, print the live Stats/Trace
//!                      introspection frames fetched over the wire
//! --trace-json PATH    dump the flight recorder as Chrome trace_event JSON
//!                      to PATH (open in chrome://tracing or Perfetto)
//! ```
//!
//! Absolute numbers will differ from the paper (its testbed was a 4-VM
//! Hadoop/Spark cluster over a 5 GB real trace); the *shapes* — orderings,
//! rough factors, crossovers — are the reproduction target.

use spate_bench::experiments::{self, FRAMEWORK_NAMES};
use spate_bench::{report, Args, BenchConfig, DRILLS};
use std::path::Path;

/// A paper artifact: `repro` names (figures that share a printer are
/// `|`-joined), `--help` text, printer.
type Figure = (&'static str, &'static str, fn(&BenchConfig));

/// `all` runs every row but the last.
const FIGURES: &[Figure] = &[
    (
        "fig4",
        "Fig. 4  — per-attribute entropy of CDR/NMS/CELL",
        fig4,
    ),
    (
        "table1",
        "Table I — lossless codec ratio and compress/decompress times",
        table1,
    ),
    (
        "fig7|fig8|fig9|fig10",
        "Figs. 7-10 — ingestion time & disk space by day period / weekday",
        ingest_figs,
    ),
    (
        "fig11|fig12",
        "Figs. 11-12 — task response time on RAW/SHAHED/SPATE",
        response_figs,
    ),
    (
        "decay",
        "continuous decay: sliding-window eviction under ingestion",
        decay_run,
    ),
    (
        "space-summary",
        "one-line total-space comparison",
        space_summary,
    ),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    if args.help {
        print_help();
        return;
    }
    let figures: Vec<_> = FIGURES
        .iter()
        .filter(|(names, ..)| match args.experiment.as_str() {
            "all" => *names != "space-summary",
            name => names.split('|').any(|n| n == name),
        })
        .collect();
    let drill = DRILLS.iter().find(|(name, ..)| *name == args.experiment);
    if figures.is_empty() && drill.is_none() {
        eprintln!(
            "unknown experiment {} (try `repro --help`)",
            args.experiment
        );
        std::process::exit(2);
    }

    let config = &args.config;
    println!(
        "SPATE reproduction — scale 1/{:.0} of the paper's 5GB trace, {} days, I/O model: {}",
        1.0 / config.scale,
        config.days,
        if config.throttled {
            "cluster disks + page cache"
        } else {
            "unthrottled"
        }
    );
    println!("{}", "=".repeat(76));

    for (_, _, print) in figures {
        print(config);
    }
    // A drill's exit code is its gates: the report is printed and
    // persisted either way, the artifacts below are still written, and a
    // gate that does not hold is then named on stderr.
    let failed_gates = drill.and_then(|(name, about, run)| {
        println!("\n## {name} — {}\n", about.lines().next().unwrap_or(""));
        report::emit(&run(&args), Path::new(".")).err()
    });

    if args.profile {
        println!("\n## Profile — span flame table\n");
        print!("{}", obs::export::flame_table(obs::global()));
    }
    if let Some(path) = &args.metrics_json {
        std::fs::write(path, obs::export::json(obs::global())).expect("writing --metrics-json");
        println!("\nmetrics written to {path}");
    }
    if let Some(path) = &args.trace_json {
        let events = obs::flight().dump();
        std::fs::write(path, obs::export::chrome_trace(&events)).expect("writing --trace-json");
        println!(
            "\nflight recorder ({} events) written to {path}",
            events.len()
        );
    }
    if let Some(failed) = failed_gates {
        eprintln!("{failed}");
        std::process::exit(1);
    }
}

fn print_help() {
    println!(
        "\
repro — regenerate the SPATE paper's tables and figures, plus repo-grown experiments

USAGE:
    repro [EXPERIMENT] [FLAGS]

EXPERIMENTS:
    all              every paper artifact below up to `decay`, in order (default)"
    );
    let paper = FIGURES.iter().map(|(name, about, _)| (name, about));
    for (name, about) in paper.chain(DRILLS.iter().map(|(name, about, _)| (name, about))) {
        let mut column = name.to_string();
        if column.len() > 16 {
            println!("    {column}");
            column.clear();
        }
        for line in about.lines() {
            println!("    {column:<16} {line}");
            column.clear();
        }
    }
    println!(
        "
FLAGS:
    --scale 1/N          trace scale relative to the paper's 5 GB (default 1/128)
    --days D             days of trace to generate
    --unthrottled        disable the cluster-disk I/O model
    --seed N             seed for chaos/serve/chaos-serve/trace/cas/cost/
                         scale/obs-replay workloads (default 7)
    --clients N          concurrent clients for serve, chaos-serve and scale
                         (default 8)
    --shards N           shard count for the scale and obs-replay
                         experiments (default 4)
    --cas                run chaos over the content-addressed backend
    --profile            print the span flame table after the experiment
    --metrics-json PATH  dump the metric registry (counters, gauges,
                         histograms, spans) as JSON
    --introspect         print live Stats/Trace frames after a serve run
    --trace-json PATH    dump the flight recorder as Chrome trace_event JSON
                         (open in chrome://tracing or Perfetto)
    -h, --help           this text

Every drill from `chaos` down prints its deterministic fields as `<drill>:`
lines (same flags, same lines), its timings as `<drill>-perf:` lines, and
exits 1 naming the gate if one of its gates does not hold. chaos --cas,
serve, chaos-serve, cas, cost, scale and obs-replay also write
BENCH_CHAOS.json, BENCH_SERVE.json, BENCH_CHAOS_SERVE.json, BENCH_CAS.json,
BENCH_COST.json, BENCH_SCALE.json and BENCH_OBS.json into the working
directory (EXPERIMENTS.md has the command that regenerates each committed
file and says which are timing-free)."
    );
}

fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(f64::MIN, f64::max).max(1e-12);
    values
        .iter()
        .map(|v| BARS[((v / max) * 7.0).round() as usize])
        .collect()
}

fn fig4(config: &BenchConfig) {
    println!("\n## Figure 4 — entropy of attributes (bits/symbol)\n");
    let r = experiments::fig4_entropy(config);
    for (name, profile, paper_note) in [
        ("CDR", &r.cdr, "paper: most < 1, several 0, peaks ~5"),
        ("NMS", &r.nms, "paper: counters carry a few bits each"),
        ("CELL", &r.cell, "paper: ≤ ~3.5"),
    ] {
        println!(
            "{name:>5}: {} attrs | zero-entropy {} | below 1 bit {} | max {:.2} | mean {:.2}   ({paper_note})",
            profile.per_column.len(),
            profile.zero_columns(),
            profile.below(1.0),
            profile.max(),
            profile.mean()
        );
        println!("       {}", sparkline(&profile.per_column));
    }
}

fn table1(config: &BenchConfig) {
    println!("\n## Table I — lossless compression per 30-min snapshot\n");
    let rows = experiments::table1_codecs(config, 32);
    println!("codec         ratio r_c   T_c1 (s)   T_c2 (s)   (paper: 9.06/11.75/4.94/9.72; T_c1 ≫ T_c2)");
    println!("{}", "-".repeat(88));
    for r in rows {
        println!(
            "{:<12} {:>9.2} {:>10.4} {:>10.5}",
            r.name, r.ratio, r.tc1_s, r.tc2_s
        );
    }
}

fn ingest_figs(config: &BenchConfig) {
    println!("\n## Figures 7-10 — ingestion time & disk space\n");
    let r = experiments::ingest_experiment(config);

    println!("Fig. 7 — mean ingestion time per snapshot (s), by day period:");
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "", FRAMEWORK_NAMES[0], FRAMEWORK_NAMES[1], FRAMEWORK_NAMES[2]
    );
    for (p, t) in &r.time_per_period {
        println!(
            "{:<10} {:>10.4} {:>10.4} {:>10.4}",
            p.label(),
            t[0],
            t[1],
            t[2]
        );
    }
    println!("(paper: SPATE slowest but ≤ ~1.25x, stable across periods)\n");

    println!("Fig. 8 — disk space (MB) attributed to each day period:");
    for (p, s) in &r.space_per_period {
        println!(
            "{:<10} {:>10.2} {:>10.2} {:>10.2}",
            p.label(),
            s[0] as f64 / 1e6,
            s[1] as f64 / 1e6,
            s[2] as f64 / 1e6
        );
    }
    println!("(paper: SPATE an order of magnitude smaller, stable)\n");

    println!("Fig. 9 — mean ingestion time per snapshot (s), by weekday:");
    for (w, t) in &r.time_per_weekday {
        println!(
            "{:<10} {:>10.4} {:>10.4} {:>10.4}",
            w.label(),
            t[0],
            t[1],
            t[2]
        );
    }
    println!();

    println!("Fig. 10 — disk space (MB) attributed to each weekday:");
    for (w, s) in &r.space_per_weekday {
        println!(
            "{:<10} {:>10.2} {:>10.2} {:>10.2}",
            w.label(),
            s[0] as f64 / 1e6,
            s[1] as f64 / 1e6,
            s[2] as f64 / 1e6
        );
    }

    summary_line(&r);
}

fn summary_line(r: &experiments::IngestReport) {
    let [raw, shahed, spate] = r.total_space;
    println!(
        "\nTotal space: RAW {:.2} MB | SHAHED {:.2} MB | SPATE {:.2} MB  → SPATE {:.1}x smaller",
        raw as f64 / 1e6,
        shahed as f64 / 1e6,
        spate as f64 / 1e6,
        raw as f64 / spate as f64
    );
    println!("(paper §VIII: 5.32 GB | 5.37 GB | 0.49 GB → 10.9x)");
}

fn space_summary(config: &BenchConfig) {
    let r = experiments::ingest_experiment(config);
    summary_line(&r);
}

fn decay_run(config: &BenchConfig) {
    println!("\n## Continuous decay — sliding-window eviction under ingestion\n");
    let r = experiments::decay_experiment(config);
    println!(
        "ingested {} epochs | evicted {} leaves ({:.2} MB) | dropped {} day + {} month highlights",
        r.epochs_ingested,
        r.leaves_evicted,
        r.bytes_freed as f64 / 1e6,
        r.day_highlights_dropped,
        r.month_highlights_dropped
    );
    println!(
        "DFS saw {} deletes ({:.2} MB logical) | {} leaves remain present | {:.2} MB stored",
        r.dfs_deletes,
        r.dfs_bytes_deleted as f64 / 1e6,
        r.present_leaves,
        r.stored_bytes as f64 / 1e6
    );
    println!("(paper Fig. 5: full resolution decays first, then day/month highlights)");
}

fn response_figs(config: &BenchConfig) {
    println!("\n## Figures 11-12 — task response time (s)\n");
    println!(
        "Ingesting {} days at scale 1/{:.0}...",
        config.days,
        1.0 / config.scale
    );
    let r = experiments::response_experiment_from_scratch(config);

    println!(
        "\n{:<16} {:>10} {:>10} {:>10}   note",
        "task", FRAMEWORK_NAMES[0], FRAMEWORK_NAMES[1], FRAMEWORK_NAMES[2]
    );
    println!("{}", "-".repeat(72));
    for (i, (name, t)) in r.tasks.iter().enumerate() {
        let note = match i {
            0..=2 => "paper: SPATE within 0.1-3s of SHAHED",
            3 => "paper: SPATE 4-5x faster (nested loop re-reads)",
            4 => "paper: comparable",
            _ => "paper: CPU-bound, all comparable (Fig. 12)",
        };
        println!(
            "{:<16} {:>10.4} {:>10.4} {:>10.4}   {note}",
            name, t[0], t[1], t[2]
        );
    }
}
