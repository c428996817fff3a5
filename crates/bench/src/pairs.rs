//! Paired evidence for a performance claim. Two prebuilt builds of the
//! benchmark (`benchmark/`, see `BENCHMARK.json`) run in alternating
//! pairs, the side that goes first alternating from pair to pair, so
//! that a host whose speed drifts favours neither. This module is the
//! arithmetic and the formats; `src/bin/pairs.rs` runs the processes.
//!
//! Per metric it reports each side's median and quartiles (the exclusive
//! method, as the benchmark's own `quartiles`), the median over pairs of
//! change / base, and how many pairs the change won (ties count for
//! neither side). One row per workload and CPU count is appended to
//! `BENCH_PERF.json`, a JSON array with one row a line.

/// The last line a benchmark run prints:
/// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub correct: bool,
    pub failed: u64,
    /// Every metric's value, in the order the run printed them.
    pub metrics: Vec<(String, f64)>,
}

/// The value after `"key": ` in `json`, up to the next `,` or `}` or
/// the end.
fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let key = format!("\"{key}\": ");
    let rest = &json[json.find(&key)? + key.len()..];
    Some(rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim())
}

/// The run a benchmark's standard output reports on its last JSON line.
pub fn parse_run(stdout: &str) -> Result<Run, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or("no JSON line in the run's output")?;
    let correct = match field(line, "correct") {
        Some("true") => true,
        Some("false") => false,
        _ => return Err(format!("no `correct` in {line}")),
    };
    let failed = field(line, "failed")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no `failed` count in {line}"))?;
    // Each metric is `"name": {"value": v, "unit": "u"}`.
    let marker = ": {\"value\": ";
    let mut metrics = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find(marker) {
        let name = rest[..at].rsplit('"').nth(1).unwrap_or_default();
        let value = field(&rest[at + 2..], "value").unwrap_or_default();
        let value = value
            .parse()
            .map_err(|_| format!("metric {name}: `{value}` is not a number"))?;
        metrics.push((name.to_string(), value));
        rest = &rest[at + marker.len()..];
    }
    Ok(Run {
        correct,
        failed,
        metrics,
    })
}

/// Whether a lower value is better, per metric `BENCHMARK.json` declares
/// with a `"better"` direction.
pub fn directions(benchmark_json: &str) -> Vec<(String, bool)> {
    benchmark_json
        .split("{\"name\": \"")
        .skip(1)
        .filter_map(|entry| {
            let entry = &entry[..entry.find('}').unwrap_or(entry.len())];
            let name = &entry[..entry.find('"')?];
            let better = field(entry, "better")?.trim_matches('"');
            Some((name.to_string(), better == "lower"))
        })
        .collect()
}

/// `BENCHMARK.json`'s `run_seconds`: how long each run's measured rounds
/// last, as the benchmark is run to judge a change.
pub fn run_seconds(benchmark_json: &str) -> Result<String, String> {
    let value = field(benchmark_json, "run_seconds").ok_or("no `run_seconds` declared")?;
    match value.parse::<f64>() {
        Ok(s) if s.is_finite() && s >= 0.0 => Ok(value.to_string()),
        _ => Err(format!("`run_seconds` {value} is not a number of seconds")),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), which is how the benchmark computes its own spread.
///
/// # Panics
/// With fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// One metric over the pairs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub metric: String,
    /// q1, median, q3 of the parent's runs.
    pub base: [f64; 3],
    /// q1, median, q3 of the change's runs.
    pub change: [f64; 3],
    /// The median over pairs of change / base.
    pub ratio: f64,
    /// Pairs the change won, when the metric has a direction.
    pub won: Option<usize>,
    pub pairs: usize,
}

/// Summarise `base[i]` against `change[i]`, pair by pair; `lower_better`
/// is the metric's direction, if known.
pub fn summarise(
    metric: &str,
    base: &[f64],
    change: &[f64],
    lower_better: Option<bool>,
) -> Summary {
    assert_eq!(base.len(), change.len(), "one value a side a pair");
    let ratios: Vec<f64> = base.iter().zip(change).map(|(b, c)| c / b).collect();
    let won = lower_better.map(|lower| {
        let wins = |(b, c): (&f64, &f64)| if lower { c < b } else { c > b };
        base.iter().zip(change).filter(|&pair| wins(pair)).count()
    });
    Summary {
        metric: metric.to_string(),
        base: quartiles(base),
        change: quartiles(change),
        ratio: median(&ratios),
        won,
        pairs: base.len(),
    }
}

/// A value with the digits a reader can use; `null` for one that is not
/// finite (a ratio over a zero).
pub fn num(v: f64) -> String {
    match v.abs() {
        a if !a.is_finite() => "null".into(),
        a if a < 100.0 => format!("{v:.4}"),
        a if a < 10_000.0 => format!("{v:.2}"),
        _ => format!("{v:.0}"),
    }
}

/// The table the tool prints for one workload and CPU count.
pub fn table(heading: &str, summaries: &[Summary]) -> String {
    let mut out = format!("{heading}\n");
    out += &format!(
        "{:<34} {:>30} {:>30} {:>7} {:>6}\n",
        "metric", "base median [q1-q3]", "change median [q1-q3]", "ratio", "won"
    );
    let side = |[q1, m, q3]: [f64; 3]| format!("{} [{}-{}]", num(m), num(q1), num(q3));
    for s in summaries {
        let won = s.won.map_or("-".into(), |w| format!("{w}/{}", s.pairs));
        out += &format!(
            "{:<34} {:>30} {:>30} {:>7.3} {:>6}\n",
            s.metric,
            side(s.base),
            side(s.change),
            s.ratio,
            won
        );
    }
    out
}

/// The short commit id of the checkout `dir` lies in, `"unknown"`
/// outside a checkout (or without `git`).
pub fn commit_of(dir: &std::path::Path) -> String {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["rev-parse", "--short", "HEAD"])
        .output();
    match out {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().into(),
        _ => "unknown".into(),
    }
}

/// What one row of `BENCH_PERF.json` records besides its metrics.
#[derive(Debug, Clone)]
pub struct RowHead<'a> {
    pub label: &'a str,
    /// The commits the two sides were built from ([`commit_of`] their
    /// directories).
    pub base_commit: &'a str,
    pub change_commit: &'a str,
    pub workload: &'a str,
    pub cpus: usize,
    pub seed: u64,
    pub seconds: &'a str,
    pub trace: &'a str,
}

fn quoted(text: &str) -> String {
    format!("\"{}\"", obs::export::json_escape(text))
}

/// One row of `BENCH_PERF.json`, on one line.
pub fn row_json(head: &RowHead, summaries: &[Summary]) -> String {
    let side = |[q1, m, q3]: [f64; 3]| format!("[{}, {}, {}]", num(q1), num(m), num(q3));
    let metrics: Vec<String> = summaries
        .iter()
        .map(|s| {
            let won = s.won.map_or("null".into(), |w| w.to_string());
            format!(
                "{}: {{\"base\": {}, \"change\": {}, \"ratio\": {}, \"won\": {won}}}",
                quoted(&s.metric),
                side(s.base),
                side(s.change),
                num(s.ratio)
            )
        })
        .collect();
    let pairs = summaries.first().map_or(0, |s| s.pairs);
    format!(
        "{{\"label\": {}, \"base_commit\": {}, \"change_commit\": {}, \"workload\": {}, \
         \"cpus\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"pairs\": {pairs}, \
         \"metrics\": {{{}}}}}",
        quoted(head.label),
        quoted(head.base_commit),
        quoted(head.change_commit),
        quoted(head.workload),
        head.cpus,
        head.seed,
        head.seconds,
        head.trace,
        metrics.join(", ")
    )
}

/// `file` (a JSON array, one row a line, or nothing yet) with `row`
/// appended. A file that holds anything but an array is refused, not
/// replaced: it is the record of every earlier row.
pub fn append_row(file: &str, row: &str) -> Result<String, String> {
    let held = file.trim();
    if held.is_empty() {
        return Ok(format!("[\n{row}\n]\n"));
    }
    let rows = held
        .strip_prefix('[')
        .and_then(|h| h.strip_suffix(']'))
        .ok_or("not a JSON array `[...]`")?
        .trim();
    Ok(match rows {
        "" => format!("[\n{row}\n]\n"),
        rows => format!("[\n{rows},\n{row}\n]\n"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_are_the_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([4.0, 1.0], n=4): two values extrapolate.
        assert_eq!(quartiles(&[4.0, 1.0]), [0.25, 2.5, 4.75]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4)
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0]), 3.0);
    }

    #[test]
    fn pairs_are_won_in_the_metrics_direction_and_ties_count_for_neither() {
        let base = [6.0, 5.0, 7.0, 6.0, 4.0];
        let change = [4.0, 5.0, 3.5, 4.5, 4.4];
        let s = summarise("heavy_p50_ms", &base, &change, Some(true));
        assert_eq!(s.won, Some(3));
        assert_eq!(s.pairs, 5);
        assert_eq!(s.base, [4.5, 6.0, 6.5]);
        // Ratios 0.667, 1.0, 0.5, 0.75, 1.1: the median is 0.75.
        assert_eq!(s.ratio, 0.75);
        let higher = summarise("ops_per_s", &base, &change, Some(false));
        assert_eq!(higher.won, Some(1));
        assert_eq!(summarise("x", &base, &change, None).won, None);
    }

    #[test]
    fn a_run_is_read_from_its_last_json_line() {
        let out = "| table |\n# serve_mixed: set-ups [0.3] s\n\
            {\"correct\": true, \"attempted\": 5600, \"failed\": 0, \"metrics\": \
            {\"setup_s\": {\"value\": 0.305, \"unit\": \"s\"}, \
            \"heavy_p50_ms\": {\"value\": 5.346013, \"unit\": \"ms\"}}}\n";
        let run = parse_run(out).unwrap();
        assert!(run.correct);
        assert_eq!(run.failed, 0);
        assert_eq!(
            run.metrics,
            [("setup_s".into(), 0.305), ("heavy_p50_ms".into(), 5.346013)]
        );
        let bad = "{\"correct\": false, \"attempted\": 9, \"failed\": 2, \"metrics\": {}}";
        let run = parse_run(bad).unwrap();
        assert_eq!((run.correct, run.failed, run.metrics.len()), (false, 2, 0));
        assert!(parse_run("no json here").is_err());
    }

    #[test]
    fn directions_come_from_the_benchmark_declaration() {
        let declared = r#"{"workloads": [{"name": "serve_mixed", "why": "reads"}],
            "end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
            {"name": "heavy_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}],
            "per_layer": [{"name": "codecs.ratio", "unit": "x", "better": "higher"}]}"#;
        assert_eq!(
            directions(declared),
            [
                ("ops_per_s".into(), false),
                ("heavy_p50_ms".into(), true),
                ("codecs.ratio".into(), false)
            ]
        );
    }

    #[test]
    fn rows_append_to_a_json_array_one_a_line() {
        let s = summarise("heavy_p50_ms", &[6.0, 5.0], &[4.0, 4.5], Some(true));
        let head = RowHead {
            label: "a \"b\"",
            base_commit: "3f891f7",
            change_commit: "unknown",
            workload: "serve_mixed",
            cpus: 2,
            seed: 1,
            seconds: "10",
            trace: "0",
        };
        let row = row_json(&head, &[s]);
        assert_eq!(
            row,
            "{\"label\": \"a \\\"b\\\"\", \"base_commit\": \"3f891f7\", \
             \"change_commit\": \"unknown\", \"workload\": \"serve_mixed\", \"cpus\": 2, \
             \"seed\": 1, \"seconds\": 10, \"trace\": 0, \"pairs\": 2, \"metrics\": \
             {\"heavy_p50_ms\": {\"base\": [4.7500, 5.5000, 6.2500], \
             \"change\": [3.8750, 4.2500, 4.6250], \"ratio\": 0.7833, \"won\": 2}}}"
        );
        let one = append_row("", &row).unwrap();
        assert_eq!(one, format!("[\n{row}\n]\n"));
        assert_eq!(append_row("[\n]\n", &row).unwrap(), one);
        assert_eq!(
            append_row(&one, "{}").unwrap(),
            format!("[\n{row},\n{{}}\n]\n")
        );
        // A hand-edited or truncated file is refused, never overwritten.
        let truncated = &one[..one.len() - 3];
        for malformed in [truncated, "{}", "[\n{\"a\": 1}", "x]"] {
            assert!(append_row(malformed, "{}").is_err(), "{malformed:?}");
        }
    }

    #[test]
    fn a_directory_outside_a_checkout_is_unknown() {
        let nowhere = std::env::temp_dir().join("pairs-test-no-such-directory");
        assert_eq!(commit_of(&nowhere), "unknown");
    }

    #[test]
    fn the_run_length_is_the_benchmarks_own() {
        let declared = r#"{"command": ["cargo"], "paths": ["benchmark"], "run_seconds": 10,
            "workloads": []}"#;
        assert_eq!(run_seconds(declared), Ok("10".into()));
        assert!(run_seconds(r#"{"run_seconds": "ten"}"#).is_err());
        assert!(run_seconds(r#"{"workloads": []}"#).is_err());
    }
}
