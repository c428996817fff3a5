//! Exporters: sorted flame table, registry JSON, and traces as Chrome
//! `trace_event` JSON.

use crate::registry::Registry;
use crate::span::SpanStats;
use crate::trace::{EventKind, SpanEvent};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One resolved row of the flame table.
struct SpanRow {
    path: String,
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    p99_ns: u64,
}

fn span_rows(registry: &Registry) -> Vec<SpanRow> {
    registry
        .spans_snapshot()
        .into_iter()
        .map(|(path, st): (String, Arc<SpanStats>)| SpanRow {
            path,
            calls: st.calls.load(Ordering::Relaxed),
            total_ns: st.total_ns.load(Ordering::Relaxed),
            self_ns: st.self_ns.load(Ordering::Relaxed),
            p99_ns: st.durations.quantile(0.99),
        })
        .collect()
}

/// The flame table: every span path as an indented tree, siblings sorted
/// by total time (descending), with calls / total / self / p99 columns.
pub fn flame_table(registry: &Registry) -> String {
    let rows = span_rows(registry);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<44} {:>9} {:>11} {:>11} {:>10}",
        "span", "calls", "total(s)", "self(s)", "p99(ms)"
    );
    let _ = writeln!(out, "{}", "-".repeat(89));
    // Tree order: recurse from the roots, children sorted by total desc.
    fn emit(out: &mut String, rows: &[SpanRow], parent: Option<&str>, depth: usize) {
        let mut children: Vec<&SpanRow> = rows
            .iter()
            .filter(|r| match parent {
                None => !r.path.contains(';'),
                Some(p) => r
                    .path
                    .strip_prefix(p)
                    .is_some_and(|rest| rest.starts_with(';') && !rest[1..].contains(';')),
            })
            .collect();
        children.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
        for row in children {
            let name = row.path.rsplit(';').next().unwrap_or(&row.path);
            let _ = writeln!(
                out,
                "{:<44} {:>9} {:>11.4} {:>11.4} {:>10.3}",
                format!("{}{}", "  ".repeat(depth), name),
                row.calls,
                row.total_ns as f64 / 1e9,
                row.self_ns as f64 / 1e9,
                row.p99_ns as f64 / 1e6
            );
            emit(out, rows, Some(&row.path), depth + 1);
        }
    }
    emit(&mut out, &rows, None, 0);
    out
}

/// Escape a string for the inside of a JSON string literal: quotes,
/// backslashes and control characters (`\n` as `\n`, the rest as `\u`).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The whole registry as a JSON document (machine consumption: BENCH_*
/// trajectories, dashboards). Self-contained — no serde.
pub fn json(registry: &Registry) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    let counters = registry.counters_snapshot();
    for (i, (id, c)) in counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {}",
            json_escape(&id.to_string()),
            c.get()
        );
    }
    out.push_str("\n  },\n  \"gauges\": {");
    let gauges = registry.gauges_snapshot();
    for (i, (id, g)) in gauges.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {}",
            json_escape(&id.to_string()),
            g.get()
        );
    }
    out.push_str("\n  },\n  \"histograms\": {");
    let hists = registry.histograms_snapshot();
    for (i, (id, h)) in hists.iter().enumerate() {
        let s = h.snapshot();
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
            json_escape(&id.to_string()),
            s.count,
            s.sum,
            s.min,
            s.max,
            s.p50,
            s.p90,
            s.p99
        );
    }
    out.push_str("\n  },\n  \"spans\": {");
    let spans = span_rows(registry);
    for (i, r) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{\"calls\": {}, \"total_ns\": {}, \"self_ns\": {}, \"p99_ns\": {}}}",
            json_escape(&r.path),
            r.calls,
            r.total_ns,
            r.self_ns,
            r.p99_ns
        );
    }
    out.push_str("\n  }\n}\n");
    out
}

fn json_args(ev: &SpanEvent) -> String {
    let mut out = format!(
        "{{\"span_id\": {}, \"parent_id\": {}",
        ev.span_id, ev.parent_id
    );
    for (k, v) in &ev.args {
        let _ = write!(out, ", \"{}\": \"{}\"", json_escape(k), json_escape(v));
    }
    out.push('}');
    out
}

/// Trace events as Chrome `trace_event` JSON (the object form:
/// `{"traceEvents": [...]}`), loadable in `chrome://tracing` / Perfetto.
/// Spans become complete (`"ph": "X"`) events, instants become
/// thread-scoped instant (`"ph": "i"`) events; the trace id is mapped to
/// the `tid` so each request renders as its own track.
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    let mut out = String::from("{\"traceEvents\": [");
    for (i, ev) in events.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let ts = ev.start_ns as f64 / 1e3;
        let common = format!(
            "\"name\": \"{}\", \"cat\": \"spate\", \"ts\": {ts:.3}, \"pid\": 1, \"tid\": {}, \"args\": {}",
            json_escape(&ev.name),
            ev.trace_id,
            json_args(ev)
        );
        match ev.kind {
            EventKind::Span => {
                let dur = ev.dur_ns as f64 / 1e3;
                let _ = write!(
                    out,
                    "{sep}\n  {{\"ph\": \"X\", \"dur\": {dur:.3}, {common}}}"
                );
            }
            EventKind::Instant => {
                let _ = write!(out, "{sep}\n  {{\"ph\": \"i\", \"s\": \"t\", {common}}}");
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("dfs.read.ops").add(3);
        r.counter("codecs.gzip-lite.compress.bytes_in").add(1000);
        r.gauge("cache.bytes").set(42);
        let h = r.histogram("dfs.write.pipeline_ns");
        for v in [100, 200, 300] {
            h.record(v);
        }
        let s = r.span_stats("spate.ingest");
        s.calls.fetch_add(2, Ordering::Relaxed);
        s.total_ns.fetch_add(2_000_000, Ordering::Relaxed);
        s.self_ns.fetch_add(500_000, Ordering::Relaxed);
        s.durations.record(1_000_000);
        let c = r.span_stats("spate.ingest;compress");
        c.calls.fetch_add(2, Ordering::Relaxed);
        c.total_ns.fetch_add(1_500_000, Ordering::Relaxed);
        c.self_ns.fetch_add(1_500_000, Ordering::Relaxed);
        c.durations.record(750_000);
        r
    }

    #[test]
    fn json_export_escapes_labeled_series_keys() {
        // The JSON exporter keys histograms by the MetricId display form,
        // which embeds quotes around label values — those must be escaped
        // into valid JSON, including backslashes in the value itself.
        let r = Registry::new();
        r.histogram_labeled("h", &[("q", "a\"b\\c")]).record(5);
        let doc = json(&r);
        assert!(doc.contains("\"h{q=\\\"a\\\"b\\\\c\\\"}\""), "{doc}");
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn json_escape_escapes_every_control_character() {
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\u0009c");
        assert_eq!(json_escape("\u{7f}\u{85}é"), "\\u007f\\u0085é");
    }

    #[test]
    fn flame_table_nests_children_under_parents() {
        let table = flame_table(&sample_registry());
        let parent_line = table.lines().position(|l| l.starts_with("spate.ingest"));
        let child_line = table.lines().position(|l| l.starts_with("  compress"));
        assert!(parent_line.is_some() && child_line.is_some(), "{table}");
        assert!(child_line > parent_line);
    }

    #[test]
    fn json_is_well_formed() {
        let doc = json(&sample_registry());
        // Structural sanity without a JSON parser: balanced braces, the
        // four sections, and no trailing commas before closers.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        for section in ["\"counters\"", "\"gauges\"", "\"histograms\"", "\"spans\""] {
            assert!(doc.contains(section), "{doc}");
        }
        assert!(!doc.contains(",\n  }"));
        assert!(doc.contains("\"spate.ingest;compress\""));
    }

    fn sample_events() -> Vec<SpanEvent> {
        let span = |span_id, parent_id, name: &str, start_ns, dur_ns| SpanEvent {
            trace_id: 7,
            span_id,
            parent_id,
            name: name.to_string(),
            start_ns,
            dur_ns,
            kind: EventKind::Span,
            args: Vec::new(),
        };
        vec![
            span(1, 0, "serve.request", 1_000, 9_000_000),
            span(2, 1, "serve.evaluate", 2_000, 8_000_000),
            span(3, 2, "dfs.read", 3_000, 4_000_000),
            SpanEvent {
                trace_id: 7,
                span_id: 4,
                parent_id: 2,
                name: "cache".to_string(),
                start_ns: 8_000_000,
                dur_ns: 0,
                kind: EventKind::Instant,
                args: vec![("hits".to_string(), "2".to_string())],
            },
        ]
    }

    #[test]
    fn chrome_trace_is_structurally_valid() {
        let doc = chrome_trace(&sample_events());
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        assert!(doc.starts_with("{\"traceEvents\": ["));
        assert_eq!(doc.matches("\"ph\": \"X\"").count(), 3);
        assert_eq!(doc.matches("\"ph\": \"i\"").count(), 1);
        assert!(doc.contains("\"name\": \"dfs.read\""));
        assert!(doc.contains("\"dur\": 4000.000"));
        assert!(doc.contains("\"tid\": 7"));
        assert!(doc.contains("\"hits\": \"2\""));
        assert!(!doc.contains(",]") && !doc.contains(",}"));
    }
}
