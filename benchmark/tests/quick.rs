//! `--quick` runs all four workloads, both metric sets, in seconds and
//! still verifies every answer. Alone in its file: test files run one
//! after another, so nothing else competes for the two cores it times.

use spate_benchmark::report::{parse_field, parse_metric, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Command;
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_spate-benchmark");

#[test]
fn quick_mode_is_fast_and_verified() {
    let start = Instant::now();
    let output = Command::new(EXE)
        .args(["--quick", "--seed", "11"])
        .output()
        .expect("benchmark runs");
    let took = start.elapsed();
    assert!(output.status.success(), "exit {}", output.status);
    assert!(took < Duration::from_secs(10), "--quick took {took:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(results.len(), WORKLOADS.len());
    assert_eq!(stdout.lines().last(), results.last().copied());
    for (result, workload) in results.iter().zip(WORKLOADS) {
        assert_eq!(
            parse_field(result, "correct").as_deref(),
            Some("true"),
            "{workload}"
        );
        assert_eq!(parse_field(result, "failed").as_deref(), Some("0"));
        let attempted: u64 = parse_field(result, "attempted")
            .and_then(|a| a.parse().ok())
            .expect("attempted");
        assert!(attempted >= 1);
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            let value = parse_metric(result, metric.name)
                .unwrap_or_else(|| panic!("{workload} prints no {}", metric.name));
            if metric.bound.is_some() {
                assert!(value > 0.0, "{workload} {} is {value}", metric.name);
            }
        }
    }
    // The traced round's spans, as Chrome trace_event JSON.
    let trace = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/out/trace-explore_path.json"
    ))
    .expect("trace file");
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.contains("\"name\":\"trace.from_bytes\""));
}
