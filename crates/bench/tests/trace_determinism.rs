//! Deterministic trace-tree reconstruction from a seeded run — the
//! bench-level half of the flight-recorder coverage. Lives in its own
//! integration binary (own process) because `trace_experiment` calls
//! `obs::reset()`, which would race tests sharing the global registry.

use spate_bench::serve_bench::{trace_experiment, trace_lines};
use spate_bench::BenchConfig;

fn tiny() -> BenchConfig {
    BenchConfig {
        scale: 1.0 / 2048.0,
        throttled: false,
        ..BenchConfig::default()
    }
}

/// Same seed → byte-identical diffable lines, across repeated runs in
/// one process (the flight recorder and conn-id counters are global and
/// keep advancing; the normalized rendering must not care).
#[test]
fn seeded_trace_reconstruction_is_deterministic() {
    let a = trace_experiment(&tiny(), 9);
    let b = trace_experiment(&tiny(), 9);
    assert_eq!(a.window, b.window);
    assert_eq!(trace_lines(&a.cold), trace_lines(&b.cold));
    assert_eq!(trace_lines(&a.warm), trace_lines(&b.warm));

    // The cold tree answers "why was this slow": one cache.miss per
    // window epoch, each followed by the storage work it caused.
    // " cache.miss " with delimiters: the epoch-cache event, not the
    // separate dfs.cache.miss page-cache instants.
    let lines = trace_lines(&a.cold);
    let misses = lines.iter().filter(|l| l.contains(" cache.miss ")).count();
    assert_eq!(misses, 4, "{lines:#?}");
    assert!(lines.iter().any(|l| l.contains("admission.wait")));
    assert!(lines.iter().any(|l| l.contains("serve.request")));
    assert!(lines.iter().any(|l| l.ends_with(" serve.evaluate")));
    assert!(lines.iter().any(|l| l.contains("dfs.read")));
    // Warm re-read of the same window: hits only.
    let warm = trace_lines(&a.warm);
    assert_eq!(warm.iter().filter(|l| l.contains(" cache.hit ")).count(), 4);
    assert!(!warm.iter().any(|l| l.contains(" cache.miss ")));

    // The Chrome trace_event dump is structurally valid: balanced, not
    // empty, complete-span and instant phases only, the request in it.
    assert!(a.chrome_json.starts_with("{\"traceEvents\": ["));
    assert_eq!(
        a.chrome_json.matches('{').count(),
        a.chrome_json.matches('}').count()
    );
    let phases = a.chrome_json.split("\"ph\": \"").skip(1);
    let mut phases: Vec<&str> = phases.map(|p| &p[..1]).collect();
    phases.sort_unstable();
    phases.dedup();
    assert_eq!(phases, ["X", "i"]);
    assert!(a.chrome_json.contains("\"name\": \"serve.request\""));
}
