//! The command line's contract: `--trace` selects the metric set, bad
//! arguments print no result, and `BENCHMARK.json` lists exactly the
//! metrics and workloads the code reports.

use spate_benchmark::report::{parse_metric, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_spate-benchmark");

#[test]
fn trace_flag_selects_the_metric_set() {
    for (flag, present, absent) in [
        ("0", "ops_per_s", "obs.span_ns"),
        ("1", "obs.span_ns", "ops_per_s"),
    ] {
        let output = Command::new(EXE)
            .args(["--quick", "--workload", "ingest_decay", "--trace", flag])
            .output()
            .expect("benchmark runs");
        assert!(output.status.success());
        let stdout = String::from_utf8(output.stdout).expect("utf-8");
        let result = stdout.lines().last().expect("a result line");
        assert!(parse_metric(result, present).is_some());
        assert!(parse_metric(result, absent).is_none());
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed"],
        &["--trace", "2"],
        &["--frobnicate"],
    ] {
        let output = Command::new(EXE).args(args).output().expect("runs");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn benchmark_json_mirrors_the_code() {
    let json = include_str!("../../BENCHMARK.json");
    for workload in WORKLOADS {
        assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
    }
    for m in &END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound.expect("bound")
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for m in &PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.label()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let count = |needle: &str| json.matches(needle).count();
    assert_eq!(
        count("\"unit\": "),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists a metric the code does not report"
    );
    assert_eq!(count("\"why\": "), WORKLOADS.len());
}
