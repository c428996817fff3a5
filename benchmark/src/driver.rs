//! Replays a workload under the noise protocol: warm-up, set-up several
//! times, `R` identical measured rounds with tracing off, then one
//! traced + verified round; turns the samples into named metrics.

use crate::harness::{self, best_of_rounds, median, of_class, percentile, tail_pct, Class};
use crate::ops::classes;
use crate::report::{Report, Values};
use crate::spans::Tracer;
use crate::workloads::{warm_up, Sizing, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Which metric sets a run reports. The traced pass (spans on, every op
/// also replayed layer by layer) runs only when per-layer metrics are
/// wanted; answers are verified against the oracle either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    pub end_to_end: bool,
    pub per_layer: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Measure for this long: rounds repeat while another one fits (and
    /// until `Sizing::min_rounds` have run).
    pub seconds: f64,
    pub mode: Mode,
    pub sizing: Sizing,
}

/// Failures are counted, and the first few kept for the operator.
#[derive(Default)]
struct Failures {
    count: u64,
    messages: Vec<String>,
}

impl Failures {
    fn push(&mut self, message: String) {
        self.count += 1;
        if self.messages.len() < 5 {
            self.messages.push(message);
        }
    }
}

/// An op fails on `Err` (which the workloads also return for shed,
/// unavailable and server-error replies) or on a panic.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(_) => Err("panicked".into()),
    }
}

/// Time of `obs::span` open + close, the program's own instrumentation
/// cost (baseline for measuring obs overhead).
fn obs_span_ns() -> f64 {
    const SPANS: u32 = 20_000;
    let start = Instant::now();
    for _ in 0..SPANS {
        drop(std::hint::black_box(obs::span("benchmark.probe")));
    }
    start.elapsed().as_nanos() as f64 / f64::from(SPANS)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc`
/// has no such line.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run<W: Workload>(name: &'static str, config: &RunConfig) -> (Report, Tracer) {
    let sizing = &config.sizing;
    let run_start = Instant::now();
    let mut failures = Failures::default();
    let mut values = Values::default();
    warm_up(config.seed, sizing.scale, sizing.warmup_secs);

    // Set-up, several times over: the median is what `setup_s` reports.
    // The traced pass does not report it, so it sets up once.
    let setups = if config.mode.end_to_end {
        sizing.setups
    } else {
        1
    };
    let mut setup_secs = Vec::with_capacity(setups);
    let mut built: Option<W> = None;
    // A set-up of a tenth of a second is mostly page faults and reads
    // +-20 %; such short ones repeat until a second and a half is timed.
    while setup_secs.len() < setups
        || (config.mode.end_to_end
            && setup_secs.len() < 3 * setups
            && setup_secs.iter().sum::<f64>() < 1.5)
    {
        let start = Instant::now();
        let next = W::setup(config.seed, sizing);
        setup_secs.push(start.elapsed().as_secs_f64());
        // The previous state is dropped only now, so every set-up builds
        // into fresh memory rather than into whatever the allocator kept
        // of the last one.
        if let Some(previous) = built.replace(next) {
            previous.teardown();
        }
    }
    let mut workload = built.expect("at least one set-up");
    let n_ops = workload.ops().len();
    let op_classes = classes(workload.ops());
    if let Err(e) = harness::check_floors(&op_classes, sizing.floors) {
        failures.push(e);
    }

    // Measured rounds: identical op list, identical start state, tracing
    // off, one load thread. Work is fixed by op count; `--seconds` decides
    // only how many rounds the best-of estimator gets.
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let mut io_ms = Vec::new();
    let measuring = Instant::now();
    loop {
        let round_start = Instant::now();
        workload.begin_round();
        let io_before = workload.io();
        let mut times = Vec::with_capacity(n_ops);
        for i in 0..n_ops {
            let start = Instant::now();
            let out = guarded(|| workload.exec(i));
            times.push(start.elapsed().as_secs_f64());
            match out {
                Ok(out) => drop(std::hint::black_box(out)),
                Err(e) => failures.push(format!("round {} op {i}: {e}", rounds.len())),
            }
        }
        io_ms.push(workload.io().since(&io_before).modelled_ms());
        rounds.push(times);
        let elapsed = measuring.elapsed().as_secs_f64();
        let another_fits = elapsed + round_start.elapsed().as_secs_f64() <= config.seconds;
        if rounds.len() >= sizing.min_rounds && !another_fits {
            break;
        }
    }
    let space_ratio = workload.space_ratio();
    let measured_secs = measuring.elapsed().as_secs_f64();

    let best = best_of_rounds(&rounds);
    let best_total: f64 = best.iter().sum();
    values.set("setup_s", median(&setup_secs));
    values.set("ops_per_s", n_ops as f64 / best_total);
    values.set(
        "light_p50_ms",
        median(&of_class(&best, &op_classes, Class::Light)) * 1e3,
    );
    values.set(
        "heavy_p50_ms",
        median(&of_class(&best, &op_classes, Class::Heavy)) * 1e3,
    );
    values.set("space_ratio", space_ratio);
    // A count, equal in every round on the single-threaded workloads.
    values.set("io_ms_per_op", median(&io_ms) / n_ops as f64);

    // Verified round: each op run whole (under a span when tracing) and
    // checked against the oracle.
    let tracing = config.mode.per_layer;
    let tracer = Tracer::new(tracing);
    workload.prepare_verify();
    workload.begin_round();
    let io_before = workload.io();
    let mut traced_total = 0.0;
    let mut outs: Vec<Option<W::Out>> = Vec::with_capacity(n_ops);
    for (i, &class) in op_classes.iter().enumerate() {
        tracer.set_op(i);
        let start = Instant::now();
        let out = {
            let _whole = tracer.span(workload.span_name(i));
            guarded(|| workload.exec(i))
        };
        let whole = start.elapsed();
        traced_total += whole.as_secs_f64();
        if class == Class::Light {
            tracer.count("light.whole_ns", whole.as_nanos() as u64);
            tracer.count("light.ops", 1);
        }
        let checked = out.and_then(|out| {
            guarded(|| workload.verify(i, &out))?;
            Ok(out)
        });
        match checked {
            // Kept for the decomposition pass to compare against.
            Ok(out) => outs.push(tracing.then_some(out)),
            Err(e) => {
                failures.push(format!("verified round: {e}"));
                outs.push(None);
            }
        }
    }
    let traced_io = workload.io().since(&io_before);
    if let Err(e) = guarded(|| workload.verify_end()) {
        failures.push(format!("verified round, final state: {e}"));
    }

    // Decomposition pass: each op replayed through the public layer
    // calls, one span per call. A pass of its own, so that an op meets
    // the same cold caches here as in its whole run.
    if tracing {
        workload.begin_decompose();
        for (i, out) in outs.iter().enumerate() {
            let Some(out) = out else { continue };
            tracer.set_op(i);
            workload.probe(i, &tracer);
            let span = tracer.span("op.decomposed");
            if let Err(e) = guarded(|| workload.decompose(i, out, &tracer)) {
                failures.push(format!("decomposition: {e}"));
            }
            if op_classes[i] == Class::Light {
                tracer.count("light.attributed_ns", tracer.children_ns(&span));
            }
        }
        if let Err(e) = guarded(|| workload.decompose_end()) {
            failures.push(format!("decomposition, final state: {e}"));
        }
    }
    drop(outs);

    if config.mode.per_layer {
        workload.layer_metrics(&tracer, &mut values);
        let ops = n_ops as f64;
        values.set("dfs.reads_per_op", traced_io.reads as f64 / ops);
        values.set("dfs.bytes_read_per_op", traced_io.bytes_read as f64 / ops);
        values.set("dfs.writes_per_op", traced_io.writes as f64 / ops);
        values.set(
            "dfs.bytes_written_per_op",
            traced_io.bytes_written as f64 / ops,
        );
        values.set("obs.span_ns", obs_span_ns());
        // Tails from the pooled raw samples (not the per-op best): the
        // highest percentile that still has ten samples beyond it.
        for (class, ms, pct) in [
            (
                Class::Light,
                "harness.light_tail_ms",
                "harness.light_tail_pct",
            ),
            (
                Class::Heavy,
                "harness.heavy_tail_ms",
                "harness.heavy_tail_pct",
            ),
        ] {
            let pooled: Vec<f64> = rounds
                .iter()
                .flat_map(|r| of_class(r, &op_classes, class))
                .collect();
            let p = tail_pct(pooled.len());
            values.set(ms, percentile(&pooled, p) * 1e3);
            values.set(pct, p);
        }
        let totals: Vec<f64> = rounds.iter().map(|r| r.iter().sum()).collect();
        let (fastest, slowest) = totals
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), t| (lo.min(*t), hi.max(*t)));
        values.set("harness.round_spread", slowest / fastest);
        let (whole, attributed) = (
            tracer.counted("light.whole_ns") as f64,
            tracer.counted("light.attributed_ns") as f64,
        );
        values.set(
            "harness.unattributed_share",
            if whole > 0.0 {
                // Either way off is a gap: spans that miss work the op
                // does, or a replay slower than the op.
                (1.0 - attributed / whole).abs()
            } else {
                0.0
            },
        );
        values.set(
            "harness.trace_overhead_share",
            traced_total / median(&totals) - 1.0,
        );
        values.set("harness.peak_rss_mb", peak_rss_mb());
        values.set("harness.rounds", rounds.len() as f64);
    }
    workload.teardown();
    eprintln!(
        "# {name}: set-ups {setup_secs:.3?} s, measured rounds {measured_secs:.1} s, whole run {:.1} s",
        run_start.elapsed().as_secs_f64()
    );

    let report = Report {
        workload: name,
        correct: failures.count == 0,
        attempted: (n_ops * (rounds.len() + 1)) as u64,
        failed: failures.count,
        ops_per_round: n_ops,
        rounds: rounds.len(),
        values,
        failures: failures.messages,
    };
    (report, tracer)
}
