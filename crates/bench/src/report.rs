//! One [`Report`] per experiment, paper figure or drill: the ordered list
//! of its result fields, each declared once with its tag — deterministic
//! or perf, persisted to `BENCH_<X>.json` or console-only — and, where the
//! experiment has an acceptance bar or the paper a shape, its [`Gate`].
//!
//! [`emit`] is the only renderer. Deterministic fields print as `<drill>:`
//! lines, a pure function of the experiment's arguments (the twice-run
//! test in `tests/drills.rs` compares them); perf fields print as
//! `<drill>-perf:` lines and are never compared. The JSON keeps
//! declaration order, so a file whose report persists no perf field
//! regenerates byte-identically.

use std::path::Path;

/// Console lines wrap before this many bytes.
const WIDTH: usize = 100;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i128),
    /// A measurement printed with a fixed number of decimals.
    Float(f64, usize),
    Bool(bool),
    Str(String),
    /// A 64-bit digest, `{:#018x}`; a quoted string in JSON.
    Hex(u64),
    List(Vec<u64>),
    /// Free-form rows (span trees, per-shard tables), console-only: each
    /// prints on its own line as `<drill>: <key> <row>`.
    Lines(Vec<String>),
}

macro_rules! value_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Int(n as i128)
            }
        }
    )*};
}
value_from_int!(i32, u32, i64, u64, usize);

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<Vec<u64>> for Value {
    fn from(items: Vec<u64>) -> Self {
        Value::List(items)
    }
}

impl Value {
    fn render(&self, json: bool) -> String {
        match self {
            Value::Int(n) => n.to_string(),
            // JSON has no literal for NaN or an infinity.
            Value::Float(x, _) if json && !x.is_finite() => "null".to_string(),
            Value::Float(x, digits) => format!("{x:.digits$}"),
            Value::Bool(b) => b.to_string(),
            Value::Str(s) if json => json_string(s),
            Value::Str(s) => s.clone(),
            Value::Hex(d) if json => format!("\"{d:#018x}\""),
            Value::Hex(d) => format!("{d:#018x}"),
            Value::List(items) => format!("{items:?}"),
            Value::Lines(rows) => rows.join("; "),
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(x, _) => Some(*x),
            _ => None,
        }
    }
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", obs::export::json_escape(s))
}

/// The acceptance bar a field carries. [`emit`] fails the run, naming the
/// field, when one does not hold.
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    Eq(Value),
    AtLeast(f64),
    /// Equal to another field of the same report.
    EqField(&'static str),
    /// A relation among several fields, evaluated by the drill that
    /// declared it; the text says which.
    Holds(&'static str, bool),
}

#[derive(Debug, Clone)]
pub struct Field {
    key: &'static str,
    value: Value,
    perf: bool,
    persisted: bool,
    gate: Option<Gate>,
}

impl Field {
    pub fn eq(&mut self, v: impl Into<Value>) {
        self.gate = Some(Gate::Eq(v.into()));
    }

    pub fn at_least(&mut self, min: impl Into<f64>) {
        self.gate = Some(Gate::AtLeast(min.into()));
    }

    pub fn eq_field(&mut self, other: &'static str) {
        self.gate = Some(Gate::EqField(other));
    }

    pub fn holds(&mut self, relation: &'static str, ok: bool) {
        self.gate = Some(Gate::Holds(relation, ok));
    }
}

#[derive(Debug, Clone)]
pub struct Report {
    /// The drill's name: the console line prefix and the JSON's
    /// `"experiment"`.
    pub drill: &'static str,
    /// `BENCH_<X>.json`, for a drill that persists its report.
    pub file: Option<&'static str>,
    /// A binary side output written next to the JSON (`OBS_TELEMETRY.bin`).
    pub artifact: Option<(&'static str, Vec<u8>)>,
    /// The traces of the requests the experiment's server still held when
    /// it shut down ([`spate_serve::Server::traces`]), for `--trace-json`.
    pub traces: Vec<obs::SpanEvent>,
    fields: Vec<Field>,
}

impl Report {
    pub fn new(drill: &'static str, file: Option<&'static str>) -> Self {
        Report {
            drill,
            file,
            artifact: None,
            traces: Vec::new(),
            fields: Vec::new(),
        }
    }

    fn push(&mut self, key: &'static str, value: Value, perf: bool, persisted: bool) -> &mut Field {
        let persisted = persisted && !matches!(value, Value::Lines(_));
        self.fields.push(Field {
            key,
            value,
            perf,
            persisted,
            gate: None,
        });
        self.fields.last_mut().expect("just pushed")
    }

    /// A deterministic field, printed and persisted.
    pub fn det(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Field {
        self.push(key, value.into(), false, true)
    }

    /// A deterministic field that only the console shows.
    pub fn det_console(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Field {
        self.push(key, value.into(), false, false)
    }

    /// A timing-dependent field that only the console shows.
    pub fn perf(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Field {
        self.push(key, value.into(), true, false)
    }

    /// A timing-dependent field that is persisted too; its file is then
    /// not byte-reproducible.
    pub fn perf_json(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Field {
        self.push(key, value.into(), true, true)
    }

    /// The console rendering of the deterministic (`perf = false`) or the
    /// perf fields: `key=value` pairs in declaration order.
    pub fn lines(&self, perf: bool) -> Vec<String> {
        let prefix = format!("{}{}:", self.drill, if perf { "-perf" } else { "" });
        let mut out = Vec::new();
        let mut line = prefix.clone();
        for f in self.fields.iter().filter(|f| f.perf == perf) {
            let (pair, rows) = match &f.value {
                Value::Lines(rows) => (String::new(), rows.as_slice()),
                value => (format!(" {}={}", f.key, value.render(false)), &[][..]),
            };
            let full = !rows.is_empty() || line.len() + pair.len() > WIDTH;
            if full && line.len() > prefix.len() {
                out.push(std::mem::replace(&mut line, prefix.clone()));
            }
            line.push_str(&pair);
            out.extend(rows.iter().map(|r| format!("{prefix} {} {r}", f.key)));
        }
        if line.len() > prefix.len() {
            out.push(line);
        }
        out
    }

    /// The persisted fields as `(key, JSON literal, perf)`, `"experiment"`
    /// first.
    pub fn persisted(&self) -> Vec<(&'static str, String, bool)> {
        let fields = self.fields.iter().filter(|f| f.persisted);
        std::iter::once(("experiment", json_string(self.drill), false))
            .chain(fields.map(|f| (f.key, f.value.render(true), f.perf)))
            .collect()
    }

    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .persisted()
            .iter()
            .map(|(key, literal, _)| format!("  \"{key}\": {literal}"))
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    /// The value declared under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|f| f.key == key).map(|f| &f.value)
    }

    /// Every declared gate as `(predicate, holds, the value it saw)`;
    /// `timing: false` leaves out the gates on perf fields, which a debug
    /// build on a busy machine cannot be held to.
    pub fn gates(&self, timing: bool) -> Vec<(String, bool, String)> {
        self.fields
            .iter()
            .filter(|f| timing || !f.perf)
            .filter_map(|f| {
                let (bar, ok) = match f.gate.as_ref()? {
                    Gate::Eq(v) => (format!("== {}", v.render(false)), f.value == *v),
                    Gate::AtLeast(min) => (
                        format!(">= {min}"),
                        f.value.as_f64().is_some_and(|x| x >= *min),
                    ),
                    Gate::EqField(other) => {
                        (format!("== {other}"), self.get(other) == Some(&f.value))
                    }
                    Gate::Holds(relation, ok) => (relation.to_string(), *ok),
                };
                // A ratio over zero bends every shape: `inf >= min` holds.
                let finite = !matches!(f.value, Value::Float(x, _) if !x.is_finite());
                let got = f.value.render(false);
                Some((format!("{} {bar}", f.key), ok && finite, got))
            })
            .collect()
    }

    pub fn failed_gates(&self, timing: bool) -> Vec<String> {
        self.gates(timing)
            .into_iter()
            .filter(|(_, ok, _)| !ok)
            .map(|(gate, _, got)| format!("{}: gate failed: {gate} (got {got})", self.drill))
            .collect()
    }
}

/// The shared runner: print the report, persist its JSON and artifact
/// into `dir`, evaluate every gate. `Err` names each gate that failed.
pub fn emit(report: &Report, dir: &Path) -> Result<(), String> {
    for line in report.lines(false).into_iter().chain(report.lines(true)) {
        println!("{line}");
    }
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(dir.join(name), bytes).map_err(|e| format!("writing {name}: {e}"))
    };
    if let Some(name) = report.file {
        write(name, report.json().as_bytes())?;
        println!("bench report written to {name}");
    }
    if let Some((name, bytes)) = &report.artifact {
        write(name, bytes)?;
        println!("artifact written to {name}");
    }
    let failed = report.failed_gates(true);
    if !failed.is_empty() {
        return Err(failed.join("\n"));
    }
    let held: Vec<String> = report.gates(true).into_iter().map(|gate| gate.0).collect();
    println!("(gates hold: {})", held.join(", "));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> Report {
        let mut r = Report::new("synthetic", Some("BENCH_SYNTHETIC.json"));
        r.det("seed", 7);
        r.det("leak_bytes", 3).eq(0);
        r.det("top_attribute", "up\"flux\\\n");
        r.det("shard_queries", Value::List(vec![256, 128, 128, 128]));
        r.det("answer_digest", Value::Hex(0x6dfa_afae_35b4_757c));
        r.det_console("rows", Value::Lines(vec!["shard=0 bytes=1".into()]));
        r.perf("wall_secs", Value::Float(1.18749, 3));
        r.perf_json("p95_us", 1275).at_least(1);
        r
    }

    #[test]
    fn a_failed_gate_is_named_and_fails_the_run() {
        let dir = std::env::temp_dir().join(format!("spate-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut report = synthetic();
        let err = emit(&report, &dir).expect_err("leak_bytes == 0 does not hold");
        assert_eq!(err, "synthetic: gate failed: leak_bytes == 0 (got 3)");
        // The report is still written: a failing run leaves its evidence.
        let written = std::fs::read_to_string(dir.join("BENCH_SYNTHETIC.json")).unwrap();
        assert_eq!(written, report.json());

        report.fields[1].value = Value::Int(0);
        assert_eq!(emit(&report, &dir), Ok(()));
        report.det("poison_isolated", 8).eq_field("seed");
        report.det("tracked", 5).holds(">= hot + warm", false);
        report.perf("speedup", Value::Float(1.5, 2)).at_least(2.0);
        let err = emit(&report, &dir).unwrap_err();
        assert!(err.contains("poison_isolated == seed (got 8)"), "{err}");
        assert!(err.contains("tracked >= hot + warm (got 5)"), "{err}");
        assert!(err.contains("speedup >= 2 (got 1.50)"), "{err}");
        assert_eq!(report.failed_gates(false).len(), 2, "speedup is perf");

        // A non-finite measurement fails its gate, prints as text and
        // persists as `null`.
        let mut report = synthetic();
        report.fields[1].value = Value::Int(0);
        let ratio = report.perf_json("ratio", Value::Float(1.0 / 0.0, 1));
        ratio.at_least(5.0);
        report.perf_json("share", Value::Float(f64::NAN, 2));
        let err = emit(&report, &dir).unwrap_err();
        assert_eq!(err, "synthetic: gate failed: ratio >= 5 (got inf)");
        assert!(report
            .json()
            .ends_with("  \"ratio\": null,\n  \"share\": null\n}\n"));
        assert!(report.lines(true)[0].ends_with(" ratio=inf share=NaN"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn perf_fields_stay_out_of_the_deterministic_rendering() {
        let report = synthetic();
        let det = report.lines(false).join("\n");
        assert!(
            !det.contains("wall_secs") && !det.contains("p95_us"),
            "{det}"
        );
        assert_eq!(
            report.lines(true),
            ["synthetic-perf: wall_secs=1.187 p95_us=1275"]
        );
        // Console-only perf never reaches the file; a persisted one is
        // flagged, so a timing-free comparison can skip exactly it.
        let json = report.json();
        assert!(
            !json.contains("wall_secs") && !json.contains("rows"),
            "{json}"
        );
        let perf: Vec<_> = report.persisted().into_iter().filter(|f| f.2).collect();
        assert_eq!(perf, [("p95_us", "1275".to_string(), true)]);
    }

    #[test]
    fn json_escapes_strings_and_matches_the_committed_formats() {
        let report = synthetic();
        let json = report.json();
        assert!(json.starts_with("{\n  \"experiment\": \"synthetic\",\n  \"seed\": 7,\n"));
        assert!(
            json.contains("  \"top_attribute\": \"up\\\"flux\\\\\\n\",\n"),
            "{json}"
        );
        assert!(json.ends_with("  \"p95_us\": 1275\n}\n"), "{json}");
        // Arrays and digests, byte for byte as the committed files have them.
        let line = |key: &str| {
            let start = json.find(&format!("  \"{key}\"")).unwrap();
            &json[start..start + json[start..].find('\n').unwrap()]
        };
        assert!(include_str!("../../../BENCH_OBS.json").contains(line("shard_queries")));
        assert!(include_str!("../../../BENCH_SCALE.json").contains(line("answer_digest")));
        // The console shows the same values unquoted, rows on their own lines.
        let det = report.lines(false);
        let digest = "answer_digest=0x6dfaafae35b4757c";
        assert!(det.iter().any(|l| l.contains(digest)), "{det:?}");
        assert_eq!(det.last().unwrap(), "synthetic: rows shard=0 bytes=1");
    }
}
