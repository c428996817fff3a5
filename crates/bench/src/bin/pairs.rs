//! `pairs` — paired evidence for a performance claim. Runs two prebuilt
//! builds of the benchmark (`benchmark/`'s `spate-benchmark`: one of the
//! parent commit, one of the change), each in its own working directory,
//! in N alternating pairs per workload, the side that goes first
//! alternating from pair to pair. Any run that is not `correct`, counts
//! failed ops or exits non-zero stops the tool (exit 1) before it records
//! anything. Before each run it times a fixed calibration kernel in its
//! own process (`spate_bench::pairs::calibrate`) and prints the times
//! beside the pair. Per workload it prints, per metric, each side's median
//! [q1-q3], the median pair ratio (change / base) and the pairs the
//! change won, and appends one row to `BENCH_PERF.json`, naming the
//! commit each side's directory is checked out at (`"unknown"` outside a
//! checkout).
//!
//! ```text
//! pairs --base BIN --change BIN [--base-dir DIR] [--change-dir DIR]
//!       [--workloads W,W] [--pairs N] [--seed S] [--trace 0|1]
//!       [--one-cpu] [--label TEXT] [--benchmark-json PATH] [--out PATH]
//! ```
//!
//! Defaults: `serve_mixed`, 10 pairs, seed 1, trace 0, each side run in
//! its binary's directory, `BENCHMARK.json` and `BENCH_PERF.json` in the
//! current directory. Every run lasts `BENCHMARK.json`'s `run_seconds`,
//! the length a change is judged at. `--one-cpu` runs every benchmark
//! process under `taskset -c 0`; nothing else is pinned.

use spate_bench::pairs::{
    append_row, calibrate, commit_of, directions, parse_run, row_json, run_seconds, summarise,
    table, RowHead, Run, Summary,
};
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

const USAGE: &str = "usage: pairs --base BIN --change BIN [--base-dir DIR] [--change-dir DIR] \
[--workloads W,W] [--pairs N] [--seed S] [--trace 0|1] [--one-cpu] [--label TEXT] \
[--benchmark-json PATH] [--out PATH]";

/// One build of the benchmark and where it runs.
struct Side {
    name: &'static str,
    bin: PathBuf,
    dir: PathBuf,
}

struct Opts {
    base: Side,
    change: Side,
    workloads: Vec<String>,
    pairs: usize,
    seed: u64,
    trace: String,
    one_cpu: bool,
    label: String,
    benchmark_json: PathBuf,
    out: PathBuf,
}

fn parse(argv: &[String]) -> Result<Opts, String> {
    let mut flags = std::collections::HashMap::new();
    let mut one_cpu = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--one-cpu" => one_cpu = true,
            "--base" | "--change" | "--base-dir" | "--change-dir" | "--workloads" | "--pairs"
            | "--seed" | "--trace" | "--label" | "--benchmark-json" | "--out" => {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                flags.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let side = |name: &'static str, dir_flag: &str| -> Result<Side, String> {
        let bin = PathBuf::from(flags.get(name).ok_or(format!("{name} is required"))?);
        let dir = match flags.get(dir_flag) {
            Some(dir) => PathBuf::from(dir),
            None => bin.parent().map_or(PathBuf::from("."), Path::to_path_buf),
        };
        // A relative binary names a file under the current directory,
        // not under the side's.
        let bin = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(bin);
        Ok(Side {
            name: &name[2..],
            bin,
            dir,
        })
    };
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        flags.get(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        })
    };
    let pairs = number("--pairs", 10)? as usize;
    if pairs < 2 {
        return Err("--pairs: quartiles need at least 2 pairs".into());
    }
    let text = |flag: &str, default: &str| flags.get(flag).unwrap_or(&default).to_string();
    let trace = text("--trace", "0");
    if trace != "0" && trace != "1" {
        return Err(format!("--trace: `{trace}` is not 0 or 1"));
    }
    Ok(Opts {
        base: side("--base", "--base-dir")?,
        change: side("--change", "--change-dir")?,
        workloads: text("--workloads", "serve_mixed")
            .split(',')
            .map(str::to_string)
            .collect(),
        pairs,
        seed: number("--seed", 1)?,
        trace,
        one_cpu,
        label: text("--label", ""),
        benchmark_json: text("--benchmark-json", "BENCHMARK.json").into(),
        out: text("--out", "BENCH_PERF.json").into(),
    })
}

/// One run of `side` on `workload`, refused unless it is correct with no
/// failed op.
fn run_once(opts: &Opts, seconds: &str, side: &Side, workload: &str) -> Result<Run, String> {
    let mut command = if opts.one_cpu {
        let mut taskset = Command::new("taskset");
        taskset.args(["-c", "0"]).arg(&side.bin);
        taskset
    } else {
        Command::new(&side.bin)
    };
    let seed = opts.seed.to_string();
    let out = command
        .args(["--workload", workload, "--seed", &seed])
        .args(["--seconds", seconds, "--trace", &opts.trace])
        .current_dir(&side.dir)
        .output()
        .map_err(|e| format!("{}: {e}", side.bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!(
            "{} {workload}: {}\n{stderr}",
            side.name, out.status
        ));
    }
    let run = parse_run(&stdout).map_err(|e| format!("{} {workload}: {e}", side.name))?;
    if !run.correct || run.failed > 0 {
        return Err(format!(
            "{} {workload}: correct={} failed={}",
            side.name, run.correct, run.failed
        ));
    }
    Ok(run)
}

/// Every metric both sides reported in every pair, summarised; one that
/// reads 0 in every run measured nothing on this workload and is left
/// out.
fn summaries(base: &[Run], change: &[Run], lower_better: &[(String, bool)]) -> Vec<Summary> {
    let values = |runs: &[Run], metric: &str| -> Option<Vec<f64>> {
        let value = |run: &Run| run.metrics.iter().find(|(m, _)| m == metric).map(|m| m.1);
        runs.iter().map(value).collect()
    };
    base[0]
        .metrics
        .iter()
        .filter_map(|(metric, _)| {
            let direction = lower_better.iter().find(|(m, _)| m == metric).map(|d| d.1);
            let (b, c) = (values(base, metric)?, values(change, metric)?);
            if b.iter().chain(&c).all(|&v| v == 0.0) {
                return None;
            }
            Some(summarise(metric, &b, &c, direction))
        })
        .collect()
}

fn run(opts: &Opts) -> Result<(), String> {
    let declared = std::fs::read_to_string(&opts.benchmark_json)
        .map_err(|e| format!("{}: {e}", opts.benchmark_json.display()))?;
    let lower_better = directions(&declared);
    let seconds =
        run_seconds(&declared).map_err(|e| format!("{}: {e}", opts.benchmark_json.display()))?;
    let (base_commit, change_commit) = (commit_of(&opts.base.dir), commit_of(&opts.change.dir));
    let cpus = if opts.one_cpu {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    for workload in &opts.workloads {
        let (mut base, mut change, mut calibration_us) = (Vec::new(), Vec::new(), Vec::new());
        for pair in 0..opts.pairs {
            let base_first = pair % 2 == 0;
            let first = if base_first { &opts.base } else { &opts.change };
            let second = if base_first { &opts.change } else { &opts.base };
            let (cal_a, a) = (calibrate(), run_once(opts, &seconds, first, workload)?);
            let (cal_b, b) = (calibrate(), run_once(opts, &seconds, second, workload)?);
            eprintln!(
                "{workload}: pair {}/{}, {} first, calibration {cal_a:.1} µs then {cal_b:.1} µs",
                pair + 1,
                opts.pairs,
                first.name
            );
            let (to_base, to_change) = if base_first { (a, b) } else { (b, a) };
            calibration_us.push(if base_first {
                [cal_a, cal_b]
            } else {
                [cal_b, cal_a]
            });
            base.push(to_base);
            change.push(to_change);
        }
        let summaries = summaries(&base, &change, &lower_better);
        let heading = format!(
            "{workload}: {} pairs, {cpus} CPU(s), seed {}, --seconds {} --trace {}",
            opts.pairs, opts.seed, seconds, opts.trace
        );
        println!("{}", table(&heading, &summaries));
        let head = RowHead {
            label: &opts.label,
            base_commit: &base_commit,
            change_commit: &change_commit,
            workload,
            cpus,
            seed: opts.seed,
            seconds: &seconds,
            trace: &opts.trace,
            calibration_us: &calibration_us,
        };
        let out = |e: String| format!("{}: {e}", opts.out.display());
        let held = match std::fs::read_to_string(&opts.out) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            held => held.map_err(|e| out(e.to_string()))?,
        };
        let file = append_row(&held, &row_json(&head, &summaries)).map_err(out)?;
        std::fs::write(&opts.out, file).map_err(|e| out(e.to_string()))?;
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&argv).unwrap_or_else(|message| {
        eprintln!("{message}\n{USAGE}");
        exit(2);
    });
    if let Err(message) = run(&opts) {
        eprintln!("pairs: {message}");
        exit(1);
    }
}
