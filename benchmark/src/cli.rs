//! Command line: one workload or all four, and the `--repeat`
//! self-check that measures the benchmark's own run-to-run spread.

use crate::driver::{self, Mode, RunConfig};
use crate::harness::iqr_share;
use crate::report::{
    parse_field, parse_metric, MetricDef, Report, END_TO_END, PER_LAYER, WORKLOADS,
};
use crate::spans::Tracer;
use crate::workloads::explore::Explore;
use crate::workloads::ingest::IngestDecay;
use crate::workloads::serve::ServeMixed;
use crate::workloads::Sizing;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: spate-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--quick] [--repeat N]
  --workload  ingest_decay | explore_path | explore_cas | serve_mixed (default: all four)
  --seed      seeds the trace and the op list (default 1)
  --seconds   how long the measured rounds run (default 10, with --quick 0;
              never fewer than 5 rounds, with --quick 2)
  --trace     0: end-to-end metrics only; 1: per-layer metrics only (default: both)
  --quick     smoke size (scale 1/512, 2 rounds); still verifies every answer
  --repeat    run everything N times in fresh processes, one seed each, and
              print each end-to-end metric's spread against its bound";

/// `--seconds` of `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;

impl Args {
    /// The named workload, or all four.
    fn workloads(&self) -> Vec<&'static str> {
        self.workload.map_or(WORKLOADS.to_vec(), |w| vec![w])
    }

    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.quick { 0.0 } else { DEFAULT_SECONDS })
    }
}

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    repeat: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        repeat: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload = Some(
                    WORKLOADS
                        .iter()
                        .copied()
                        .find(|w| *w == name)
                        .ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = Some(
                    value("a number")?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds needs a number of seconds")?,
                );
            }
            "--trace" => {
                parsed.trace = Some(match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                });
            }
            "--quick" => parsed.quick = true,
            "--repeat" => {
                parsed.repeat = Some(
                    value("a count")?
                        .parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or("--repeat needs a count of at least 2")?,
                );
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn run_one(name: &'static str, config: &RunConfig) -> (Report, Tracer) {
    match name {
        "ingest_decay" => driver::run::<IngestDecay>(name, config),
        "explore_path" => driver::run::<Explore<false>>(name, config),
        "explore_cas" => driver::run::<Explore<true>>(name, config),
        "serve_mixed" => driver::run::<ServeMixed>(name, config),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Where the traced round's spans are written.
fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.json"))
}

fn metric_defs(mode: Mode) -> Vec<MetricDef> {
    let mut defs = Vec::new();
    if mode.end_to_end {
        defs.extend(END_TO_END);
    }
    if mode.per_layer {
        defs.extend(PER_LAYER);
    }
    defs
}

fn run_workloads(args: &Args) -> ExitCode {
    let mode = match args.trace {
        None => Mode {
            end_to_end: true,
            per_layer: true,
        },
        Some(traced) => Mode {
            end_to_end: !traced,
            per_layer: traced,
        },
    };
    let config = RunConfig {
        seed: args.seed,
        seconds: args.seconds(),
        mode,
        sizing: if args.quick {
            Sizing::quick()
        } else {
            Sizing::full()
        },
    };
    let defs = metric_defs(mode);
    for name in args.workloads() {
        let (report, tracer) = run_one(name, &config);
        println!(
            "# {name}: seed {}, scale 1/{:.0}, L = {} ops per round, R = {} measured rounds, {} attempted, {} failed",
            args.seed,
            1.0 / config.sizing.scale,
            report.ops_per_round,
            report.rounds,
            report.attempted,
            report.failed
        );
        for failure in &report.failures {
            println!("# FAILED {failure}");
        }
        print!("{}", report.table(&defs));
        if mode.per_layer {
            let path = trace_path(name);
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, tracer.to_chrome_json()));
            match written {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => println!("# spans not written to {}: {e}", path.display()),
            }
        }
        println!("{}", report.json(&defs));
    }
    ExitCode::SUCCESS
}

/// Run the whole benchmark `n` times in fresh processes, a different
/// seed each time, and judge every end-to-end metric's spread (distance
/// between the quartiles over the median) against its bound. `setup_s`
/// is printed but, as in the acceptance rule, not judged.
fn repeat(args: &Args, n: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut breached = false;
    for name in args.workloads() {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..n {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name, "--trace", "0"])
                .args(["--seed", &(args.seed + i as u64).to_string()])
                .args(["--seconds", &args.seconds().to_string()]);
            if args.quick {
                child.arg("--quick");
            }
            let output = match child.output() {
                Ok(output) if output.status.success() => output,
                Ok(output) => {
                    eprintln!("{name} run {i} exited with {}", output.status);
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("{name} run {i} did not start: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout.lines().last().unwrap_or_default();
            if parse_field(result, "correct").as_deref() != Some("true") {
                eprintln!("{name} run {i} was not correct: {result}");
                breached = true;
            }
            for (slot, metric) in samples.iter_mut().zip(&END_TO_END) {
                match parse_metric(result, metric.name) {
                    Some(v) => slot.push(v),
                    None => {
                        eprintln!("{name} run {i} printed no {}", metric.name);
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for (values, metric) in samples.iter().zip(&END_TO_END) {
            let spread = iqr_share(values);
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let judged = metric.name != "setup_s";
            let verdict = match (judged, spread <= bound) {
                (false, _) => "not judged",
                (true, true) => "ok",
                (true, false) => {
                    breached = true;
                    "BREACH"
                }
            };
            println!(
                "{name:<14} {:<14} median {:>14.6} {:<4} spread {:>7.3} %  bound {:>5.1} %  {verdict}",
                metric.name,
                crate::harness::median(values),
                metric.unit,
                spread * 100.0,
                bound * 100.0
            );
            let listed: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
            println!("{name:<14} {:<14} runs   {}", metric.name, listed.join(" "));
        }
    }
    if breached {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_args(&args) {
        Ok(args) => match args.repeat {
            Some(n) => repeat(&args, n),
            None => run_workloads(&args),
        },
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
