//! `repro` — regenerate every table and figure of the SPATE paper, and run
//! the repo-grown drills: `repro [EXPERIMENT] [FLAGS]` runs the rows of
//! `spate_bench::EXPERIMENTS` the name selects (`all`, the default: the
//! paper's artifacts); `repro --help` lists the rows and the flags.
//!
//! Absolute numbers will differ from the paper (its testbed was a 4-VM
//! Hadoop/Spark cluster over a 5 GB real trace); the *shapes* — orderings,
//! rough factors, crossovers — are the reproduction target, and each is a
//! gate of its row's report.

use spate_bench::{report, select, Args, EXPERIMENTS};
use std::path::Path;

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
    let rows = select(&args.experiment);
    if rows.is_empty() {
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

    // An experiment's exit code is its gates: the report is printed and
    // persisted either way, the artifacts below are still written, and a
    // gate that does not hold is then named on stderr.
    let mut failed_gates = Vec::new();
    let mut traces = Vec::new();
    for (names, about, run) in rows {
        let name = names.split('|').next().unwrap_or(names);
        println!("\n## {name} — {}\n", about.lines().next().unwrap_or(""));
        let report = run(&args);
        failed_gates.extend(report::emit(&report, Path::new(".")).err());
        traces.extend(report.traces);
    }

    if args.profile {
        println!("\n## Profile — span flame table\n");
        print!("{}", obs::export::flame_table(obs::global()));
    }
    if let Some(path) = &args.metrics_json {
        std::fs::write(path, obs::export::json(obs::global())).expect("writing --metrics-json");
        println!("\nmetrics written to {path}");
    }
    if let Some(path) = &args.trace_json {
        std::fs::write(path, obs::export::chrome_trace(&traces)).expect("writing --trace-json");
        println!("\ntraces ({} events) written to {path}", traces.len());
    }
    if !failed_gates.is_empty() {
        eprintln!("{}", failed_gates.join("\n"));
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
    for (name, about, _) in EXPERIMENTS {
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
    --trace-json PATH    write the traces of the requests a serve, trace,
                         chaos-serve or scale run's servers still held
                         (the last 64 served, 64 shed or panicked) as
                         Chrome trace_event JSON (open in chrome://tracing
                         or Perfetto)
    -h, --help           this text

Every experiment prints its deterministic fields as `<name>:` lines (same
flags, same lines) and its timings as `<name>-perf:` lines, and `repro`
exits 1 naming the gate if one of its gates — a drill's acceptance bar, a
paper artifact's shape — does not hold. chaos --cas,
serve, chaos-serve, cas, cost, scale and obs-replay also write
BENCH_CHAOS.json, BENCH_SERVE.json, BENCH_CHAOS_SERVE.json, BENCH_CAS.json,
BENCH_COST.json, BENCH_SCALE.json and BENCH_OBS.json into the working
directory (EXPERIMENTS.md has the command that regenerates each committed
file and says which are timing-free)."
    );
}
