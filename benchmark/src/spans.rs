//! The harness's own span recorder for the traced round.
//!
//! Spans are opened from the benchmark's files around calls into each
//! layer (spans inside the program are a later change), kept in memory,
//! and written out as Chrome `trace_event` JSON when the run ends. A
//! disabled tracer records nothing, so measured rounds pay no tracing
//! cost.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: `{name, start, end, parent, op}`.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the op being replayed (spans of one op share it).
    pub op: usize,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    op: usize,
    counts: BTreeMap<&'static str, u64>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to op `op`.
    pub fn set_op(&self, op: usize) {
        self.inner.borrow_mut().op = op;
    }

    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let index = inner.spans.len();
        let parent = inner.stack.last().copied();
        let op = inner.op;
        inner.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        inner.stack.push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(name);
        f()
    }

    /// Add to a named count taken at a layer boundary (bytes, rows).
    pub fn count(&self, name: &'static str, delta: u64) {
        if self.enabled {
            *self.inner.borrow_mut().counts.entry(name).or_insert(0) += delta;
        }
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.inner.borrow().counts.get(name).copied().unwrap_or(0)
    }

    /// Total duration and number of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        let inner = self.inner.borrow();
        let mut total = (0, 0);
        for s in inner.spans.iter().filter(|s| s.name == name) {
            total.0 += s.dur_ns();
            total.1 += 1;
        }
        total
    }

    /// Mean duration in nanoseconds of the spans called `name`, 0 when
    /// the workload never entered that layer.
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.total(name) {
            (_, 0) => 0.0,
            (ns, n) => ns as f64 / n as f64,
        }
    }

    /// Time covered by the closed spans directly inside `parent`: what
    /// the decomposition attributes to layers.
    pub fn children_ns(&self, parent: &SpanGuard<'_>) -> u64 {
        let inner = self.inner.borrow();
        inner
            .spans
            .iter()
            .filter(|s| s.parent.is_some() && s.parent == parent.index)
            .map(SpanRec::dur_ns)
            .sum()
    }

    /// Chrome `trace_event` JSON (load in `chrome://tracing` or Perfetto):
    /// one complete ("X") event per span, `args` carrying the span's own
    /// index, its parent's and its op's.
    pub fn to_chrome_json(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in inner.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                parent,
                s.op
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end_ns = self.tracer.now_ns();
        let mut inner = self.tracer.inner.borrow_mut();
        inner.spans[index].end_ns = end_ns;
        let top = inner.stack.pop();
        debug_assert_eq!(top, Some(index), "spans close innermost first");
    }
}
