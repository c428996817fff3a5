//! Metric names, units, directions and regression bounds (mirrored by
//! `BENCHMARK.json`; a test keeps the two in step), and the result
//! printing: a readable table, then one JSON object on the last line.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric the benchmark reports. `bound` (end-to-end metrics only) is
/// the share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const WORKLOADS: [&str; 4] = ["ingest_decay", "explore_path", "explore_cas", "serve_mixed"];

/// What a user of the system sees, reported for every workload.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("light_p50_ms", "ms", Better::Lower, 0.25),
    e2e("heavy_p50_ms", "ms", Better::Lower, 0.25),
    e2e("space_ratio", "x", Better::Higher, 0.01),
    e2e("io_ms_per_op", "ms", Better::Lower, 0.08),
];

use Better::{Higher, Lower};

/// Single layers, from the harness's spans in the traced round and the
/// counters the program exposes through public getters. A layer the
/// workload never enters reads 0.
pub const PER_LAYER: [MetricDef; 60] = [
    layer("trace.to_bytes_ns_per_byte", "ns/byte", Lower),
    layer("trace.from_bytes_ns_per_byte", "ns/byte", Lower),
    layer("trace.drop_ns_per_byte", "ns/byte", Lower),
    layer("codecs.compress_ns_per_byte", "ns/byte", Lower),
    layer("codecs.decompress_ns_per_byte", "ns/byte", Lower),
    layer("codecs.ratio", "x", Higher),
    layer("dfs.read_us_per_call", "us", Lower),
    layer("dfs.write_us_per_call", "us", Lower),
    layer("dfs.reads_per_op", "count", Lower),
    layer("dfs.bytes_read_per_op", "bytes", Lower),
    layer("dfs.writes_per_op", "count", Lower),
    layer("dfs.bytes_written_per_op", "bytes", Lower),
    layer("cas.put_epoch_ms", "ms", Lower),
    layer("cas.get_epoch_ms", "ms", Lower),
    layer("cas.split_ns_per_byte", "ns/byte", Lower),
    layer("cas.assemble_ns_per_byte", "ns/byte", Lower),
    layer("cas.drop_gc_ms_per_evict", "ms", Lower),
    layer("cas.dedup_share", "share", Higher),
    layer("cas.space_ratio", "x", Higher),
    layer("storage.store_ms", "ms", Lower),
    layer("storage.load_ms", "ms", Lower),
    layer("index.incremence_ms", "ms", Lower),
    layer("index.decay_ms_per_evict", "ms", Lower),
    layer("index.find_covering_us", "us", Lower),
    layer("index.bytes_per_epoch", "bytes", Lower),
    layer("query.project_ns_per_row_scanned", "ns/row", Lower),
    layer("query.rows_scanned_per_row_returned", "x", Lower),
    layer("query.bytes_decoded_per_row_returned", "bytes", Lower),
    layer("tasks.t1_ms", "ms", Lower),
    layer("tasks.t2_ms", "ms", Lower),
    layer("tasks.t3_ms", "ms", Lower),
    layer("tasks.t4_ms", "ms", Lower),
    layer("tasks.t5_ms", "ms", Lower),
    layer("tasks.t6_ms", "ms", Lower),
    layer("tasks.t7_ms", "ms", Lower),
    layer("tasks.t8_ms", "ms", Lower),
    layer("sql.parse_us", "us", Lower),
    layer("sql.exec_ms", "ms", Lower),
    layer("engine.kmeans_ms", "ms", Lower),
    layer("engine.colstats_ms", "ms", Lower),
    layer("privacy.anonymize_ms", "ms", Lower),
    layer("shard.split_ms", "ms", Lower),
    layer("shard.merged_load_ms", "ms", Lower),
    layer("shard.canonical_sort_ns_per_row", "ns/row", Lower),
    layer("serve.roundtrip_overhead_us", "us", Lower),
    layer("serve.frame_encode_ns_per_row", "ns/row", Lower),
    layer("serve.ingest_ms", "ms", Lower),
    layer("serve.cache_hit_ratio", "share", Higher),
    layer("serve.cache_invalidations", "count", Lower),
    layer("serve.shed_share", "share", Lower),
    layer("obs.span_ns", "ns", Lower),
    layer("harness.light_tail_ms", "ms", Lower),
    layer("harness.light_tail_pct", "%", Higher),
    layer("harness.heavy_tail_ms", "ms", Lower),
    layer("harness.heavy_tail_pct", "%", Higher),
    layer("harness.round_spread", "x", Lower),
    layer("harness.unattributed_share", "share", Lower),
    layer("harness.trace_overhead_share", "share", Lower),
    layer("harness.peak_rss_mb", "mb", Lower),
    layer("harness.rounds", "count", Higher),
];

/// Measured values, by metric name. Setting a name no table lists is a
/// bug in the harness, so it panics.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "unknown metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is {value}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Outcome of one workload run.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Ops per round (`L`) and measured rounds (`R`).
    pub ops_per_round: usize,
    pub rounds: usize,
    pub values: Values,
    /// First few failure messages, for the operator.
    pub failures: Vec<String>,
}

impl Report {
    /// Every metric of `defs` by name with its value and unit, one per
    /// line. Metrics the workload did not set read 0.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for m in defs {
            let value = self.values.get(m.name).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{:<14} {:<38} {:>16.6} {:<8} ({} is better)",
                self.workload,
                m.name,
                value,
                m.unit,
                m.better.label()
            );
        }
        out
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of `defs`. `{}` on an
    /// f64 prints the shortest text that parses back to the same value,
    /// so values keep all their digits.
    pub fn json(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in defs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = self.values.get(m.name).unwrap_or(0.0);
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Read one metric's value back out of a result line (the `--repeat`
/// self-check parses its children's output; the format is ours).
pub fn parse_metric(json: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &json[json.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

pub fn parse_field(json: &str, name: &str) -> Option<String> {
    let key = format!("\"{name}\": ");
    let rest = &json[json.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().to_string())
}
