//! The length-prefixed binary frame protocol of the serving layer.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! +------+------+---------+----------+--- ... ---+
//! | 0x53 | 0x56 | version |   kind   |  len: u32 |  payload (len bytes)
//! | 'S'  | 'V'  |  0x01   |  u8      |  LE       |
//! +------+------+---------+----------+-----------+
//! ```
//!
//! Requests are a data exploration query `Q(a, b, w)` or a SPATE-SQL
//! string scoped to a window; responses stream back in bounded chunks
//! (header, row chunks of at most [`CHUNK_ROWS`] rows, then a terminal
//! frame), so one multi-million-row scan never materializes as a single
//! frame and slow consumers exert backpressure through the transport.
//! Every payload leads with the request id it answers, so a client can
//! pipeline requests over one connection.
//!
//! Decoding is adversarial-input-hardened in the same spirit as the
//! codec containers: a forged length field beyond [`MAX_PAYLOAD`] is
//! rejected *before* any allocation, truncated frames report
//! [`ProtoError::Truncated`] rather than panicking, and trailing bytes
//! after a well-formed payload are an error (no smuggling).

use std::fmt;
use telco_trace::record::{Record, Value};

/// Protocol magic: "SV" (SPATE serVe).
pub const MAGIC: [u8; 2] = [0x53, 0x56];
/// Protocol version byte.
pub const VERSION: u8 = 0x01;
/// Frame header length: magic (2) + version (1) + kind (1) + len (4).
pub const HEADER_LEN: usize = 8;
/// Hard payload bound, enforced before allocating.
pub const MAX_PAYLOAD: usize = 4 << 20;
/// Rows per streamed response chunk.
pub const CHUNK_ROWS: usize = 256;

/// Frame kind bytes. Requests use the low range, responses the high.
pub mod kind {
    pub const EXPLORE: u8 = 0x01;
    pub const SQL: u8 = 0x02;
    /// Introspection: metric/cache/queue/anomaly snapshot.
    pub const STATS: u8 = 0x03;
    /// Introspection: one trace's span tree from the flight recorder.
    pub const TRACE: u8 = 0x04;
    /// Introspection: one request's cost profile (EXPLAIN ANALYZE over
    /// the wire).
    pub const PROFILE: u8 = 0x05;
    /// Control: cooperatively cancel an in-flight request by id.
    pub const CANCEL: u8 = 0x06;

    pub const HEADER: u8 = 0x81;
    pub const ROW_CHUNK: u8 = 0x82;
    pub const SUMMARY: u8 = 0x83;
    pub const COVERAGE: u8 = 0x84;
    pub const DONE: u8 = 0x85;
    pub const ERROR: u8 = 0x86;
    pub const SHED: u8 = 0x87;
    pub const UNAVAILABLE: u8 = 0x88;
    pub const STATS_REPLY: u8 = 0x89;
    pub const TRACE_REPLY: u8 = 0x8A;
    pub const PROFILE_REPLY: u8 = 0x8B;
}

/// Errors decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Fewer bytes than the header/payload claims (incomplete read).
    Truncated,
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(usize),
    BadMagic([u8; 2]),
    BadVersion(u8),
    BadKind(u8),
    BadUtf8,
    /// Unknown value/field tag inside a payload.
    BadTag(u8),
    /// Well-formed payload followed by junk bytes.
    Trailing(usize),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::Oversized(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            ProtoError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            ProtoError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            ProtoError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            ProtoError::Trailing(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// A request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id echoed on every response frame.
    pub id: u64,
    pub body: RequestBody,
}

#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// `Q(a, b, w)`: attribute selection, bounding box, epoch window.
    Explore {
        attributes: Vec<String>,
        /// `(min_x, min_y, max_x, max_y)` in meters.
        bbox: (f64, f64, f64, f64),
        /// Inclusive epoch window.
        window: (u32, u32),
        /// End-to-end deadline in milliseconds, measured from admission;
        /// `0` = no deadline. On expiry the answer degrades to `Partial`
        /// with un-scanned epochs reported as unavailable.
        deadline_ms: u64,
    },
    /// A SPATE-SQL statement scoped to an epoch window.
    Sql {
        window: (u32, u32),
        sql: String,
        /// End-to-end deadline in milliseconds (`0` = no deadline).
        deadline_ms: u64,
    },
    /// Introspection: ask for the server's live stats snapshot. Answered
    /// on the connection's intake (never queued), so it works mid-shed-storm.
    Stats,
    /// Introspection: ask for one trace's span tree; `trace_id == 0`
    /// means "the most recent trace in the flight recorder".
    Trace { trace_id: u64 },
    /// Introspection: ask for the cost profile of a served request;
    /// `trace_id == 0` means "the most recently profiled request".
    Profile { trace_id: u64 },
    /// Control: cooperatively cancel the in-flight request whose
    /// client-chosen id is `target`. Handled on the connection's intake and
    /// fire-and-forget: no reply frame of its own — the cancelled
    /// request still terminates normally with `Partial` coverage (or
    /// whatever frame it was about to send). Cancelling an unknown or
    /// already-finished id is a harmless no-op.
    Cancel { target: u64 },
}

impl RequestBody {
    /// The requested epoch window (data-plane request forms carry one;
    /// introspection frames do not).
    pub fn window(&self) -> Option<(u32, u32)> {
        match self {
            RequestBody::Explore { window, .. } | RequestBody::Sql { window, .. } => Some(*window),
            RequestBody::Stats
            | RequestBody::Trace { .. }
            | RequestBody::Profile { .. }
            | RequestBody::Cancel { .. } => None,
        }
    }

    /// End-to-end deadline carried by data-plane request forms (`None`
    /// for introspection/control frames, `Some(0)` = explicitly no
    /// deadline).
    pub fn deadline_ms(&self) -> Option<u64> {
        match self {
            RequestBody::Explore { deadline_ms, .. } | RequestBody::Sql { deadline_ms, .. } => {
                Some(*deadline_ms)
            }
            _ => None,
        }
    }

    /// Window length in epochs (0 for introspection frames): `2^32` for
    /// the window of every epoch, so it is counted in `u64`.
    pub fn window_len(&self) -> u64 {
        self.window()
            .map_or(0, |(a, b)| u64::from(b.saturating_sub(a)) + 1)
    }

    /// Control-plane frames bypass admission and the worker pool.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            RequestBody::Stats
                | RequestBody::Trace { .. }
                | RequestBody::Profile { .. }
                | RequestBody::Cancel { .. }
        )
    }
}

/// One table announced by a [`ResponseBody::Header`] frame.
#[derive(Debug, Clone, PartialEq)]
pub struct TableHeader {
    pub name: String,
    pub columns: Vec<String>,
}

/// One meta-highlights anomaly carried by a [`ResponseBody::Stats`]
/// frame.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyWire {
    /// Monitor tick the anomaly fired on.
    pub tick: u64,
    pub stream: String,
    /// The rare category observed (`"burst"`, `"storm"`, ...).
    pub category: String,
    /// Relative frequency that put it under θ, in milli-units
    /// (`share * 1000`, saturated) — keeps the frame integer-only.
    pub share_milli: u32,
    /// True for deterministic-stream anomalies (the CI gate counts).
    pub deterministic: bool,
}

/// One flight-recorder event carried by a [`ResponseBody::Trace`] frame.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanWire {
    /// Id within the trace (0 for out-of-band instants).
    pub span_id: u64,
    /// Enclosing span's id (0 = root).
    pub parent_id: u64,
    pub name: String,
    /// Microseconds since the server's trace epoch.
    pub start_us: u64,
    /// Microseconds (0 for instants).
    pub dur_us: u64,
    /// True for point-in-time annotations.
    pub instant: bool,
    /// Structured annotations (`("class", "interactive")`, ...).
    pub args: Vec<(String, String)>,
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request id this answers.
    pub id: u64,
    pub body: ResponseBody,
}

#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Announces the result tables; row chunks reference them by index.
    Header { tables: Vec<TableHeader> },
    /// Up to [`CHUNK_ROWS`] rows of one table.
    RowChunk { table: u8, rows: Vec<Vec<Value>> },
    /// The window decayed past full resolution: a highlights digest.
    Summary {
        resolution: String,
        cdr_records: u64,
        nms_records: u64,
        cells: u32,
    },
    /// Epoch-level accounting when the answer is partial.
    Coverage {
        requested: u32,
        served: u32,
        decayed: u32,
        unavailable: u32,
    },
    /// Terminal frame of a successful answer.
    Done { rows: u64 },
    /// Admission control rejected the request; retry later.
    Shed { queue_depth: u32 },
    /// Terminal failure frame.
    Error { code: u8, message: String },
    /// Nothing retained covers the window.
    Unavailable,
    /// Live introspection snapshot (answers [`RequestBody::Stats`]).
    Stats(StatsFrame),
    /// One trace's events (answers [`RequestBody::Trace`]); empty when
    /// the trace id is unknown or already overwritten in the ring.
    Trace(TraceFrame),
    /// One request's cost profile (answers [`RequestBody::Profile`]);
    /// empty when the trace id is unknown or already evicted.
    Profile(ProfileFrame),
}

/// Payload of a [`ResponseBody::Stats`] introspection answer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsFrame {
    /// Requests served over the server's lifetime.
    pub queries: u64,
    pub rows_streamed: u64,
    pub shed_overflow: u64,
    pub shed_deadline: u64,
    pub protocol_errors: u64,
    /// Current admission queue depths per class.
    pub queue_interactive: u32,
    pub queue_scan: u32,
    /// Epoch-cache counters.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_invalidations: u64,
    /// Meta-highlights monitor counters.
    pub meta_ticks: u64,
    pub anomalies_total: u64,
    /// Deterministic-stream anomalies only — the CI gate value.
    pub anomalies_deterministic: u64,
    /// Most recent anomaly records (bounded by the monitor history).
    pub anomalies: Vec<AnomalyWire>,
    /// Registry counter snapshot (name, value), sorted by name.
    pub counters: Vec<(String, u64)>,
    /// DFS circuit-breaker lifecycle counters, aggregated across shards.
    pub breaker_trips: u64,
    pub breaker_probes: u64,
    pub breaker_recoveries: u64,
    pub breaker_reopens: u64,
    pub breaker_skipped: u64,
    /// Per `(shard, datanode)` breaker state: 0 closed, 1 half-open,
    /// 2 open — so operators see which replicas a shard is routing
    /// around without attaching a debugger.
    pub breaker_nodes: Vec<(u32, u32, u8)>,
    /// Per-shard size/query breakdown — the serve-tier view of
    /// `ShardedSpate::shard_stats`, so "which shard is busy?" is one
    /// Stats round-trip instead of a gauge-scrape.
    pub shard_stats: Vec<ShardStatWire>,
}

/// One shard's row in [`StatsFrame::shard_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStatWire {
    pub shard: u32,
    /// Stored bytes (data + index) on this shard.
    pub bytes: u64,
    /// Present epoch leaves.
    pub leaves: u32,
    /// Queries routed to this shard since startup.
    pub queries: u64,
    /// Shard-local snapshot version (ingest counter).
    pub version: u64,
}

/// Payload of a [`ResponseBody::Trace`] introspection answer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceFrame {
    /// The resolved trace id (the latest one when 0 was asked for).
    pub trace_id: u64,
    pub spans: Vec<SpanWire>,
}

/// Payload of a [`ResponseBody::Profile`] introspection answer: one
/// request's cost profile as ordered `(metric, value)` pairs — the same
/// rows `EXPLAIN ANALYZE` prints, so clients render it identically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileFrame {
    /// The resolved trace id (the latest profiled one when 0 was asked
    /// for). Zero with empty metrics means "nothing profiled yet".
    pub trace_id: u64,
    pub metrics: Vec<(String, String)>,
}

impl ResponseBody {
    /// Is this the last frame of an answer?
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            ResponseBody::Done { .. }
                | ResponseBody::Shed { .. }
                | ResponseBody::Error { .. }
                | ResponseBody::Unavailable
                | ResponseBody::Stats(_)
                | ResponseBody::Trace(_)
                | ResponseBody::Profile(_)
        )
    }
}

/// Error codes carried by [`ResponseBody::Error`].
pub mod errcode {
    pub const BAD_REQUEST: u8 = 1;
    pub const SQL: u8 = 2;
    pub const INTERNAL: u8 = 3;
    pub const SHUTTING_DOWN: u8 = 4;
}

// ---------------------------------------------------------------- writing

/// [`Writer::len`]'s panic, kept out of the line of every string written.
#[cold]
#[inline(never)]
fn too_long(field: &str, n: usize, width: usize) -> ! {
    panic!("{field}: length {n} does not fit the wire's {width}-byte field");
}

/// Writes one frame at the end of a caller-owned buffer: the header goes
/// in first with its kind and length still open, the payload is written
/// straight behind it, and [`Writer::finish`] closes the header — no
/// payload buffer of its own, no copy into a frame afterwards.
struct Writer<'a> {
    buf: &'a mut Vec<u8>,
    /// Where this frame's header starts in `buf`.
    start: usize,
}

impl<'a> Writer<'a> {
    fn new(buf: &'a mut Vec<u8>) -> Self {
        let start = buf.len();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&[VERSION, 0, 0, 0, 0, 0]);
        Self { buf, start }
    }

    /// Close the frame: fill in the kind byte and the payload length.
    fn finish(self, kind: u8) {
        let payload_len = self.buf.len() - self.start - HEADER_LEN;
        assert!(payload_len <= MAX_PAYLOAD, "frame payload over bound");
        self.buf[self.start + 3] = kind;
        self.buf[self.start + 4..self.start + HEADER_LEN]
            .copy_from_slice(&(payload_len as u32).to_le_bytes());
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write `n`, the length of `field`, as the `T` the wire gives it.
    ///
    /// # Panics
    /// If `n` does not fit in `T`, naming `field`: a wrapped length would
    /// frame the bytes behind it as something else.
    #[inline]
    fn len<T: TryFrom<usize> + Into<u64>>(&mut self, field: &str, n: usize) {
        let width = std::mem::size_of::<T>();
        match T::try_from(n) {
            Ok(fits) => self
                .buf
                .extend_from_slice(&fits.into().to_le_bytes()[..width]),
            Err(_) => too_long(field, n, width),
        }
    }

    fn str(&mut self, s: &str) {
        self.len::<u32>("string", s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Str(s) => {
                self.u8(1);
                self.str(s);
            }
            Value::Int(i) => {
                self.u8(2);
                self.i64(*i);
            }
            Value::Float(f) => {
                self.u8(3);
                self.f64(*f);
            }
        }
    }
}

/// How a row of a [`ResponseBody::RowChunk`] yields its values to
/// [`encode_row_chunk_into`]: an owned `Vec<Value>` (a SQL result row),
/// or a cached record seen through a column list ([`Projected`]).
pub trait WireRow {
    /// How many values the row carries.
    fn width(&self) -> usize;
    /// Value `i` of the row, for `i < self.width()`.
    fn value(&self, i: usize) -> &Value;
}

impl WireRow for Vec<Value> {
    fn width(&self) -> usize {
        self.len()
    }

    fn value(&self, i: usize) -> &Value {
        &self[i]
    }
}

impl<R: WireRow + ?Sized> WireRow for &R {
    fn width(&self) -> usize {
        (**self).width()
    }

    fn value(&self, i: usize) -> &Value {
        (**self).value(i)
    }
}

/// A record seen through a column list: value `i` is the record's
/// column `columns[i]`. This is how a cached epoch's selected rows reach
/// the wire without a value being cloned.
#[derive(Debug, Clone, Copy)]
pub struct Projected<'a> {
    pub record: &'a Record,
    pub columns: &'a [usize],
}

impl WireRow for Projected<'_> {
    fn width(&self) -> usize {
        self.columns.len()
    }

    fn value(&self, i: usize) -> &Value {
        self.record.get(self.columns[i])
    }
}

/// Append one [`ResponseBody::RowChunk`] frame holding `rows` and return
/// how many it holds: the bytes [`Response::encode`] gives for the owned
/// chunk of the same values, with no row copied into one. The row count
/// leads the rows, so it is written last, over a placeholder.
///
/// # Panics
/// If `rows` yields more than `u16::MAX` rows, a row wider than
/// `u16::MAX` values, or a frame over [`MAX_PAYLOAD`].
pub fn encode_row_chunk_into<R: WireRow>(
    out: &mut Vec<u8>,
    id: u64,
    table: u8,
    rows: impl IntoIterator<Item = R>,
) -> usize {
    let mut w = Writer::new(out);
    w.u64(id);
    w.u8(table);
    let count_at = w.buf.len();
    w.u16(0);
    let mut count = 0;
    for row in rows {
        w.len::<u16>("row width", row.width());
        for i in 0..row.width() {
            w.value(row.value(i));
        }
        count += 1;
    }
    let count16 = u16::try_from(count).expect("a row chunk holds at most u16::MAX rows");
    w.buf[count_at..count_at + 2].copy_from_slice(&count16.to_le_bytes());
    w.finish(kind::ROW_CHUNK);
    count
}

impl Request {
    /// Encode as one complete frame.
    ///
    /// # Panics
    /// If a list or string is longer than its length field holds (more
    /// than `u16::MAX` attributes, a string over `u32::MAX` bytes), naming
    /// the field, or if the frame is over [`MAX_PAYLOAD`]: a request the
    /// wire cannot carry is never sent as another one.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = Writer::new(&mut out);
        w.u64(self.id);
        let kind = match &self.body {
            RequestBody::Explore {
                attributes,
                bbox,
                window,
                deadline_ms,
            } => {
                w.len::<u16>("explore attributes", attributes.len());
                for a in attributes {
                    w.str(a);
                }
                w.f64(bbox.0);
                w.f64(bbox.1);
                w.f64(bbox.2);
                w.f64(bbox.3);
                w.u32(window.0);
                w.u32(window.1);
                w.u64(*deadline_ms);
                kind::EXPLORE
            }
            RequestBody::Sql {
                window,
                sql,
                deadline_ms,
            } => {
                w.u32(window.0);
                w.u32(window.1);
                w.str(sql);
                w.u64(*deadline_ms);
                kind::SQL
            }
            RequestBody::Stats => kind::STATS,
            RequestBody::Trace { trace_id } => {
                w.u64(*trace_id);
                kind::TRACE
            }
            RequestBody::Profile { trace_id } => {
                w.u64(*trace_id);
                kind::PROFILE
            }
            RequestBody::Cancel { target } => {
                w.u64(*target);
                kind::CANCEL
            }
        };
        w.finish(kind);
        out
    }

    /// Decode a payload of the given kind.
    pub fn decode(kind_byte: u8, payload: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(payload);
        let id = r.u64()?;
        let body = match kind_byte {
            kind::EXPLORE => {
                let n = r.u16()? as usize;
                let mut attributes = Vec::new();
                for _ in 0..n {
                    attributes.push(r.str()?);
                }
                let bbox = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
                let window = (r.u32()?, r.u32()?);
                let deadline_ms = r.u64()?;
                RequestBody::Explore {
                    attributes,
                    bbox,
                    window,
                    deadline_ms,
                }
            }
            kind::SQL => {
                let window = (r.u32()?, r.u32()?);
                let sql = r.str()?;
                let deadline_ms = r.u64()?;
                RequestBody::Sql {
                    window,
                    sql,
                    deadline_ms,
                }
            }
            kind::STATS => RequestBody::Stats,
            kind::TRACE => RequestBody::Trace { trace_id: r.u64()? },
            kind::PROFILE => RequestBody::Profile { trace_id: r.u64()? },
            kind::CANCEL => RequestBody::Cancel { target: r.u64()? },
            other => return Err(ProtoError::BadKind(other)),
        };
        r.finish()?;
        Ok(Request { id, body })
    }
}

impl Response {
    /// Encode as one complete frame.
    ///
    /// # Panics
    /// If a list or string is longer than its length field holds (more
    /// than `u8::MAX` header tables, `u16::MAX` columns, rows, row values
    /// or Stats rows), naming the field, or if the frame is over
    /// [`MAX_PAYLOAD`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append this response to `out` as one complete frame.
    ///
    /// # Panics
    /// As [`Self::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        if let ResponseBody::RowChunk { table, rows } = &self.body {
            encode_row_chunk_into(out, self.id, *table, rows);
            return;
        }
        let mut w = Writer::new(out);
        w.u64(self.id);
        let kind = match &self.body {
            ResponseBody::Header { tables } => {
                w.len::<u8>("header tables", tables.len());
                for t in tables {
                    w.str(&t.name);
                    w.len::<u16>("header columns", t.columns.len());
                    for c in &t.columns {
                        w.str(c);
                    }
                }
                kind::HEADER
            }
            ResponseBody::RowChunk { .. } => unreachable!("encoded above"),
            ResponseBody::Summary {
                resolution,
                cdr_records,
                nms_records,
                cells,
            } => {
                w.str(resolution);
                w.u64(*cdr_records);
                w.u64(*nms_records);
                w.u32(*cells);
                kind::SUMMARY
            }
            ResponseBody::Coverage {
                requested,
                served,
                decayed,
                unavailable,
            } => {
                w.u32(*requested);
                w.u32(*served);
                w.u32(*decayed);
                w.u32(*unavailable);
                kind::COVERAGE
            }
            ResponseBody::Done { rows } => {
                w.u64(*rows);
                kind::DONE
            }
            ResponseBody::Shed { queue_depth } => {
                w.u32(*queue_depth);
                kind::SHED
            }
            ResponseBody::Error { code, message } => {
                w.u8(*code);
                w.str(message);
                kind::ERROR
            }
            ResponseBody::Unavailable => kind::UNAVAILABLE,
            ResponseBody::Stats(s) => {
                w.u64(s.queries);
                w.u64(s.rows_streamed);
                w.u64(s.shed_overflow);
                w.u64(s.shed_deadline);
                w.u64(s.protocol_errors);
                w.u32(s.queue_interactive);
                w.u32(s.queue_scan);
                w.u64(s.cache_hits);
                w.u64(s.cache_misses);
                w.u64(s.cache_evictions);
                w.u64(s.cache_invalidations);
                w.u64(s.meta_ticks);
                w.u64(s.anomalies_total);
                w.u64(s.anomalies_deterministic);
                w.len::<u16>("stats anomalies", s.anomalies.len());
                for a in &s.anomalies {
                    w.u64(a.tick);
                    w.str(&a.stream);
                    w.str(&a.category);
                    w.u32(a.share_milli);
                    w.u8(a.deterministic as u8);
                }
                w.len::<u32>("stats counters", s.counters.len());
                for (name, value) in &s.counters {
                    w.str(name);
                    w.u64(*value);
                }
                w.u64(s.breaker_trips);
                w.u64(s.breaker_probes);
                w.u64(s.breaker_recoveries);
                w.u64(s.breaker_reopens);
                w.u64(s.breaker_skipped);
                w.len::<u16>("stats breaker nodes", s.breaker_nodes.len());
                for (shard, dn, state) in &s.breaker_nodes {
                    w.u32(*shard);
                    w.u32(*dn);
                    w.u8(*state);
                }
                w.len::<u16>("stats shard rows", s.shard_stats.len());
                for st in &s.shard_stats {
                    w.u32(st.shard);
                    w.u64(st.bytes);
                    w.u32(st.leaves);
                    w.u64(st.queries);
                    w.u64(st.version);
                }
                kind::STATS_REPLY
            }
            ResponseBody::Trace(t) => {
                w.u64(t.trace_id);
                w.len::<u32>("trace spans", t.spans.len());
                for s in &t.spans {
                    w.u64(s.span_id);
                    w.u64(s.parent_id);
                    w.str(&s.name);
                    w.u64(s.start_us);
                    w.u64(s.dur_us);
                    w.u8(s.instant as u8);
                    w.len::<u16>("span args", s.args.len());
                    for (k, v) in &s.args {
                        w.str(k);
                        w.str(v);
                    }
                }
                kind::TRACE_REPLY
            }
            ResponseBody::Profile(p) => {
                w.u64(p.trace_id);
                w.len::<u32>("profile metrics", p.metrics.len());
                for (metric, value) in &p.metrics {
                    w.str(metric);
                    w.str(value);
                }
                kind::PROFILE_REPLY
            }
        };
        w.finish(kind);
    }

    /// Decode a payload of the given kind.
    pub fn decode(kind_byte: u8, payload: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(payload);
        let id = r.u64()?;
        let body = match kind_byte {
            kind::HEADER => {
                let n = r.u8()? as usize;
                let mut tables = Vec::new();
                for _ in 0..n {
                    let name = r.str()?;
                    let ncols = r.u16()? as usize;
                    let mut columns = Vec::new();
                    for _ in 0..ncols {
                        columns.push(r.str()?);
                    }
                    tables.push(TableHeader { name, columns });
                }
                ResponseBody::Header { tables }
            }
            kind::ROW_CHUNK => {
                let table = r.u8()?;
                let nrows = r.u16()? as usize;
                // One allocation per row and one for the chunk, sized by
                // the counts in the frame; a forged count reserves no
                // more than the payload behind it could fill (a row
                // takes two bytes at least, a value one).
                let mut rows = Vec::with_capacity(nrows.min(r.remaining() / 2));
                for _ in 0..nrows {
                    let ncols = r.u16()? as usize;
                    let mut row = Vec::with_capacity(ncols.min(r.remaining()));
                    for _ in 0..ncols {
                        row.push(r.value()?);
                    }
                    rows.push(row);
                }
                ResponseBody::RowChunk { table, rows }
            }
            kind::SUMMARY => ResponseBody::Summary {
                resolution: r.str()?,
                cdr_records: r.u64()?,
                nms_records: r.u64()?,
                cells: r.u32()?,
            },
            kind::COVERAGE => ResponseBody::Coverage {
                requested: r.u32()?,
                served: r.u32()?,
                decayed: r.u32()?,
                unavailable: r.u32()?,
            },
            kind::DONE => ResponseBody::Done { rows: r.u64()? },
            kind::SHED => ResponseBody::Shed {
                queue_depth: r.u32()?,
            },
            kind::ERROR => ResponseBody::Error {
                code: r.u8()?,
                message: r.str()?,
            },
            kind::UNAVAILABLE => ResponseBody::Unavailable,
            kind::STATS_REPLY => {
                let queries = r.u64()?;
                let rows_streamed = r.u64()?;
                let shed_overflow = r.u64()?;
                let shed_deadline = r.u64()?;
                let protocol_errors = r.u64()?;
                let queue_interactive = r.u32()?;
                let queue_scan = r.u32()?;
                let cache_hits = r.u64()?;
                let cache_misses = r.u64()?;
                let cache_evictions = r.u64()?;
                let cache_invalidations = r.u64()?;
                let meta_ticks = r.u64()?;
                let anomalies_total = r.u64()?;
                let anomalies_deterministic = r.u64()?;
                let n_anoms = r.u16()? as usize;
                let mut anomalies = Vec::new();
                for _ in 0..n_anoms {
                    anomalies.push(AnomalyWire {
                        tick: r.u64()?,
                        stream: r.str()?,
                        category: r.str()?,
                        share_milli: r.u32()?,
                        deterministic: r.u8()? != 0,
                    });
                }
                let n_counters = r.u32()? as usize;
                let mut counters = Vec::new();
                for _ in 0..n_counters {
                    let name = r.str()?;
                    let value = r.u64()?;
                    counters.push((name, value));
                }
                let breaker_trips = r.u64()?;
                let breaker_probes = r.u64()?;
                let breaker_recoveries = r.u64()?;
                let breaker_reopens = r.u64()?;
                let breaker_skipped = r.u64()?;
                let n_breaker_nodes = r.u16()? as usize;
                let mut breaker_nodes = Vec::new();
                for _ in 0..n_breaker_nodes {
                    let shard = r.u32()?;
                    let dn = r.u32()?;
                    let state = r.u8()?;
                    breaker_nodes.push((shard, dn, state));
                }
                let n_shard_stats = r.u16()? as usize;
                let mut shard_stats = Vec::new();
                for _ in 0..n_shard_stats {
                    shard_stats.push(ShardStatWire {
                        shard: r.u32()?,
                        bytes: r.u64()?,
                        leaves: r.u32()?,
                        queries: r.u64()?,
                        version: r.u64()?,
                    });
                }
                ResponseBody::Stats(StatsFrame {
                    queries,
                    rows_streamed,
                    shed_overflow,
                    shed_deadline,
                    protocol_errors,
                    queue_interactive,
                    queue_scan,
                    cache_hits,
                    cache_misses,
                    cache_evictions,
                    cache_invalidations,
                    meta_ticks,
                    anomalies_total,
                    anomalies_deterministic,
                    anomalies,
                    counters,
                    breaker_trips,
                    breaker_probes,
                    breaker_recoveries,
                    breaker_reopens,
                    breaker_skipped,
                    breaker_nodes,
                    shard_stats,
                })
            }
            kind::TRACE_REPLY => {
                let trace_id = r.u64()?;
                let nspans = r.u32()? as usize;
                let mut spans = Vec::new();
                for _ in 0..nspans {
                    let span_id = r.u64()?;
                    let parent_id = r.u64()?;
                    let name = r.str()?;
                    let start_us = r.u64()?;
                    let dur_us = r.u64()?;
                    let instant = r.u8()? != 0;
                    let nargs = r.u16()? as usize;
                    let mut args = Vec::new();
                    for _ in 0..nargs {
                        let k = r.str()?;
                        let v = r.str()?;
                        args.push((k, v));
                    }
                    spans.push(SpanWire {
                        span_id,
                        parent_id,
                        name,
                        start_us,
                        dur_us,
                        instant,
                        args,
                    });
                }
                ResponseBody::Trace(TraceFrame { trace_id, spans })
            }
            kind::PROFILE_REPLY => {
                let trace_id = r.u64()?;
                let n = r.u32()? as usize;
                let mut metrics = Vec::new();
                for _ in 0..n {
                    let metric = r.str()?;
                    let value = r.str()?;
                    metrics.push((metric, value));
                }
                ResponseBody::Profile(ProfileFrame { trace_id, metrics })
            }
            other => return Err(ProtoError::BadKind(other)),
        };
        r.finish()?;
        Ok(Response { id, body })
    }
}

// ---------------------------------------------------------------- reading

/// A parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    pub kind: u8,
    pub payload_len: usize,
}

impl FrameHeader {
    /// Validate the fixed 8-byte header. The length bound is enforced
    /// here, before the caller allocates a payload buffer.
    pub fn parse(bytes: &[u8; HEADER_LEN]) -> Result<Self, ProtoError> {
        if bytes[0..2] != MAGIC {
            return Err(ProtoError::BadMagic([bytes[0], bytes[1]]));
        }
        if bytes[2] != VERSION {
            return Err(ProtoError::BadVersion(bytes[2]));
        }
        let kind = bytes[3];
        if !matches!(kind, 0x01..=0x06 | 0x81..=0x8B) {
            return Err(ProtoError::BadKind(kind));
        }
        let payload_len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
        if payload_len > MAX_PAYLOAD {
            return Err(ProtoError::Oversized(payload_len));
        }
        Ok(Self { kind, payload_len })
    }
}

/// Parse one frame out of a byte slice (header + payload). Returns the
/// frame kind, its payload slice and the total bytes consumed.
pub fn parse_frame(buf: &[u8]) -> Result<(u8, &[u8], usize), ProtoError> {
    if buf.len() < HEADER_LEN {
        return Err(ProtoError::Truncated);
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&buf[..HEADER_LEN]);
    let h = FrameHeader::parse(&header)?;
    let total = HEADER_LEN + h.payload_len;
    if buf.len() < total {
        return Err(ProtoError::Truncated);
    }
    Ok((h.kind, &buf[HEADER_LEN..total], total))
}

/// Cursor over a payload with bounds-checked reads.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, ProtoError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str_ref(&mut self) -> Result<&'a str, ProtoError> {
        let len = self.u32()? as usize;
        // A forged string length can't reach past the (already bounded)
        // payload, so `take` is the only guard needed — no prealloc.
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| ProtoError::BadUtf8)
    }

    fn str(&mut self) -> Result<String, ProtoError> {
        self.str_ref().map(str::to_string)
    }

    fn value(&mut self) -> Result<Value, ProtoError> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Str(self.str_ref()?.into())),
            2 => Ok(Value::Int(self.i64()?)),
            3 => Ok(Value::Float(self.f64()?)),
            t => Err(ProtoError::BadTag(t)),
        }
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos != self.buf.len() {
            return Err(ProtoError::Trailing(self.buf.len() - self.pos));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = req.encode();
        let (k, payload, used) = parse_frame(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(Request::decode(k, payload).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let bytes = resp.encode();
        let (k, payload, used) = parse_frame(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(Response::decode(k, payload).unwrap(), resp);
    }

    #[test]
    fn request_frames_round_trip() {
        roundtrip_request(Request {
            id: 7,
            body: RequestBody::Explore {
                attributes: vec!["upflux".into(), "downflux".into()],
                bbox: (0.0, -1.5, 38_000.0, f64::MAX),
                window: (3, 9),
                deadline_ms: 0,
            },
        });
        roundtrip_request(Request {
            id: u64::MAX,
            body: RequestBody::Sql {
                window: (0, 47),
                sql: "SELECT cell_id, SUM(call_drops) FROM NMS GROUP BY cell_id".into(),
                deadline_ms: 0,
            },
        });
    }

    #[test]
    fn the_longest_lists_the_wire_holds_round_trip() {
        roundtrip_request(Request {
            id: 1,
            body: RequestBody::Explore {
                attributes: vec![String::new(); usize::from(u16::MAX)],
                bbox: (0.0, 0.0, 1.0, 1.0),
                window: (0, 0),
                deadline_ms: 0,
            },
        });
        let table = TableHeader {
            name: "t".into(),
            columns: vec![],
        };
        roundtrip_response(Response {
            id: 2,
            body: ResponseBody::Header {
                tables: vec![table; usize::from(u8::MAX)],
            },
        });
    }

    #[test]
    #[should_panic(expected = "explore attributes: length 65536")]
    fn an_explore_with_more_attributes_than_the_wire_holds_is_not_sent() {
        Request {
            id: 1,
            body: RequestBody::Explore {
                attributes: vec![String::new(); 1 << 16],
                bbox: (0.0, 0.0, 1.0, 1.0),
                window: (0, 0),
                deadline_ms: 0,
            },
        }
        .encode();
    }

    #[test]
    #[should_panic(expected = "header tables: length 256")]
    fn a_header_with_more_tables_than_the_wire_holds_is_not_sent() {
        let table = TableHeader {
            name: "t".into(),
            columns: vec![],
        };
        Response {
            id: 2,
            body: ResponseBody::Header {
                tables: vec![table; 256],
            },
        }
        .encode();
    }

    #[test]
    fn deadlines_ride_the_data_plane_frames() {
        let explore = RequestBody::Explore {
            attributes: vec!["upflux".into()],
            bbox: (0.0, 0.0, 1.0, 1.0),
            window: (0, 3),
            deadline_ms: 250,
        };
        assert_eq!(explore.deadline_ms(), Some(250));
        assert!(!explore.is_control());
        roundtrip_request(Request {
            id: 20,
            body: explore,
        });
        let sql = RequestBody::Sql {
            window: (1, 2),
            sql: "SELECT 1".into(),
            deadline_ms: u64::MAX,
        };
        assert_eq!(sql.deadline_ms(), Some(u64::MAX));
        roundtrip_request(Request { id: 21, body: sql });
        assert_eq!(RequestBody::Stats.deadline_ms(), None);
    }

    #[test]
    fn cancel_frames_round_trip_and_are_control_plane() {
        let cancel = RequestBody::Cancel { target: 42 };
        assert!(cancel.is_control());
        assert_eq!(cancel.window(), None);
        assert_eq!(cancel.window_len(), 0);
        assert_eq!(cancel.deadline_ms(), None);
        roundtrip_request(Request {
            id: 30,
            body: cancel,
        });
        // The 0x06 kind byte passes header validation.
        let bytes = Request {
            id: 30,
            body: RequestBody::Cancel { target: 42 },
        }
        .encode();
        assert_eq!(bytes[3], kind::CANCEL);
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&bytes[..HEADER_LEN]);
        assert!(FrameHeader::parse(&header).is_ok());
        // 0x07 is still rejected: the widened range stops at Cancel.
        let mut bad = bytes;
        bad[3] = 0x07;
        assert!(matches!(parse_frame(&bad), Err(ProtoError::BadKind(0x07))));
    }

    #[test]
    fn introspection_request_frames_round_trip() {
        roundtrip_request(Request {
            id: 9,
            body: RequestBody::Stats,
        });
        roundtrip_request(Request {
            id: 10,
            body: RequestBody::Trace {
                trace_id: (3 << 32) | 7,
            },
        });
        roundtrip_request(Request {
            id: 11,
            body: RequestBody::Trace { trace_id: 0 },
        });
        roundtrip_request(Request {
            id: 12,
            body: RequestBody::Profile {
                trace_id: (5 << 32) | 2,
            },
        });
        roundtrip_request(Request {
            id: 13,
            body: RequestBody::Profile { trace_id: 0 },
        });
        assert!(RequestBody::Profile { trace_id: 0 }.is_control());
        assert_eq!(RequestBody::Profile { trace_id: 0 }.window(), None);
        assert!(RequestBody::Stats.is_control());
        assert_eq!(RequestBody::Stats.window(), None);
        assert_eq!(RequestBody::Stats.window_len(), 0);
    }

    #[test]
    fn the_window_of_every_epoch_is_counted_without_wrapping() {
        let sql = |window| RequestBody::Sql {
            window,
            sql: String::new(),
            deadline_ms: 0,
        };
        assert_eq!(sql((0, u32::MAX)).window_len(), 1 << 32);
        assert_eq!(sql((u32::MAX, u32::MAX)).window_len(), 1);
        assert_eq!(sql((3, 9)).window_len(), 7);
        // An inverted window is refused by the worker; it counts as one.
        assert_eq!(sql((9, 3)).window_len(), 1);
    }

    #[test]
    fn stats_reply_round_trips() {
        let full = Response {
            id: 9,
            body: ResponseBody::Stats(StatsFrame {
                queries: 120,
                rows_streamed: 9_000,
                shed_overflow: 3,
                shed_deadline: 1,
                protocol_errors: 0,
                queue_interactive: 5,
                queue_scan: 2,
                cache_hits: 80,
                cache_misses: 40,
                cache_evictions: 12,
                cache_invalidations: 4,
                meta_ticks: 16,
                anomalies_total: 2,
                anomalies_deterministic: 1,
                anomalies: vec![
                    AnomalyWire {
                        tick: 12,
                        stream: "dfs.retry".into(),
                        category: "burst".into(),
                        share_milli: 62,
                        deterministic: true,
                    },
                    AnomalyWire {
                        tick: 14,
                        stream: "serve.shed".into(),
                        category: "storm".into(),
                        share_milli: 125,
                        deterministic: false,
                    },
                ],
                counters: vec![
                    ("serve.queries".into(), 120),
                    ("dfs.read.bytes".into(), 1 << 40),
                ],
                breaker_trips: 4,
                breaker_probes: 3,
                breaker_recoveries: 2,
                breaker_reopens: 1,
                breaker_skipped: 17,
                breaker_nodes: vec![(0, 0, 0), (0, 1, 2), (1, 3, 1)],
                shard_stats: vec![
                    ShardStatWire {
                        shard: 0,
                        bytes: 1 << 33,
                        leaves: 48,
                        queries: 90,
                        version: 7,
                    },
                    ShardStatWire {
                        shard: 3,
                        bytes: 512,
                        leaves: 1,
                        queries: 0,
                        version: 1,
                    },
                ],
            }),
        };
        let bytes = full.encode();
        roundtrip_response(full);
        // Every proper prefix of the payload is a truncation, wherever it
        // falls in the per-shard rows.
        let (k, payload, _) = parse_frame(&bytes).unwrap();
        for cut in 0..payload.len() {
            assert_eq!(
                Response::decode(k, &payload[..cut]),
                Err(ProtoError::Truncated),
                "cut {cut}"
            );
        }
        // Empty snapshot (fresh server) is valid too.
        roundtrip_response(Response {
            id: 1,
            body: ResponseBody::Stats(StatsFrame::default()),
        });
    }

    #[test]
    fn trace_reply_round_trips() {
        roundtrip_response(Response {
            id: 10,
            body: ResponseBody::Trace(TraceFrame {
                trace_id: (1 << 32) | 3,
                spans: vec![
                    SpanWire {
                        span_id: 0,
                        parent_id: 0,
                        name: "admission.enqueue".into(),
                        start_us: 10,
                        dur_us: 0,
                        instant: true,
                        args: vec![("class".into(), "interactive".into())],
                    },
                    SpanWire {
                        span_id: 1,
                        parent_id: 0,
                        name: "admission.wait".into(),
                        start_us: 10,
                        dur_us: 420,
                        instant: false,
                        args: vec![],
                    },
                    SpanWire {
                        span_id: 2,
                        parent_id: 0,
                        name: "serve.request".into(),
                        start_us: 430,
                        dur_us: 1_800,
                        instant: false,
                        args: vec![],
                    },
                ],
            }),
        });
        // Unknown trace id answers with an empty frame.
        roundtrip_response(Response {
            id: 11,
            body: ResponseBody::Trace(TraceFrame {
                trace_id: 0,
                spans: vec![],
            }),
        });
    }

    #[test]
    fn profile_reply_round_trips() {
        let frame = ProfileFrame {
            trace_id: (2 << 32) | 9,
            metrics: vec![
                ("epochs_touched".into(), "3".into()),
                ("bytes_read.dfs".into(), "18874".into()),
                ("bytes_read.total".into(), "18874".into()),
                ("rows_scanned".into(), "4200".into()),
                ("time.total_us".into(), "512".into()),
            ],
        };
        let body = ResponseBody::Profile(frame);
        assert!(body.is_terminal());
        roundtrip_response(Response { id: 12, body });
        // Unknown / evicted trace id answers with an empty frame.
        roundtrip_response(Response {
            id: 13,
            body: ResponseBody::Profile(ProfileFrame::default()),
        });
    }

    #[test]
    fn response_frames_round_trip() {
        roundtrip_response(Response {
            id: 1,
            body: ResponseBody::Header {
                tables: vec![TableHeader {
                    name: "CDR".into(),
                    columns: vec!["upflux".into(), "downflux".into()],
                }],
            },
        });
        roundtrip_response(Response {
            id: 2,
            body: ResponseBody::RowChunk {
                table: 0,
                rows: vec![
                    vec![Value::Int(-4), Value::Null],
                    vec![Value::Str("DROP".into()), Value::Float(2.5)],
                ],
            },
        });
        roundtrip_response(Response {
            id: 3,
            body: ResponseBody::Coverage {
                requested: 10,
                served: 7,
                decayed: 2,
                unavailable: 1,
            },
        });
        roundtrip_response(Response {
            id: 4,
            body: ResponseBody::Done { rows: 12345 },
        });
        roundtrip_response(Response {
            id: 5,
            body: ResponseBody::Unavailable,
        });
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = Request {
            id: 0,
            body: RequestBody::Sql {
                window: (0, 0),
                sql: "SELECT 1".into(),
                deadline_ms: 0,
            },
        }
        .encode();
        bytes[4..8].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            parse_frame(&bytes),
            Err(ProtoError::Oversized(u32::MAX as usize))
        );
    }

    #[test]
    fn truncated_and_trailing_frames_error_cleanly() {
        let bytes = Response {
            id: 9,
            body: ResponseBody::Done { rows: 1 },
        }
        .encode();
        for cut in 0..bytes.len() {
            assert_eq!(parse_frame(&bytes[..cut]), Err(ProtoError::Truncated));
        }
        // Payload longer than the body decodes to Trailing.
        let (k, payload, _) = parse_frame(&bytes).unwrap();
        let mut padded = payload.to_vec();
        padded.push(0xFF);
        assert_eq!(Response::decode(k, &padded), Err(ProtoError::Trailing(1)));
    }

    #[test]
    fn frames_append_to_a_shared_buffer_and_forged_counts_reserve_nothing() {
        // `encode_into` appends whole frames; each equals its `encode`.
        let rows = vec![
            vec![Value::Int(1), Value::Null],
            vec![Value::Str("a".into())],
        ];
        let chunk = Response {
            id: 5,
            body: ResponseBody::RowChunk {
                table: 1,
                rows: rows.clone(),
            },
        };
        let done = Response {
            id: 5,
            body: ResponseBody::Done { rows: 2 },
        };
        let mut buf = vec![0xEE];
        chunk.encode_into(&mut buf);
        encode_row_chunk_into(&mut buf, 5, 1, &rows);
        done.encode_into(&mut buf);
        let expected = [
            &[0xEE][..],
            &chunk.encode(),
            &chunk.encode(),
            &done.encode(),
        ]
        .concat();
        assert_eq!(buf, expected);
        // Records seen through a column list encode as the owned rows of
        // the values at those columns.
        let records = [
            Record::new(vec![Value::Str("a".into()), Value::Null, Value::Int(1)]),
            Record::new(vec![Value::Int(9), Value::Null, Value::Str("a".into())]),
        ];
        let columns = [2, 1];
        let lent = records.iter().map(|record| Projected {
            record,
            columns: &columns,
        });
        let mut buf = Vec::new();
        assert_eq!(encode_row_chunk_into(&mut buf, 5, 1, lent), 2);
        let owned = Response {
            id: 5,
            body: ResponseBody::RowChunk {
                table: 1,
                rows: vec![
                    vec![Value::Int(1), Value::Null],
                    vec![Value::Str("a".into()), Value::Null],
                ],
            },
        };
        assert_eq!(buf, owned.encode());
        // A chunk that claims 65535 rows of 65535 values but carries
        // none is a truncation, found without reserving room for them.
        let mut payload = 5u64.to_le_bytes().to_vec();
        payload.push(0);
        payload.extend_from_slice(&u16::MAX.to_le_bytes());
        payload.extend_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(
            Response::decode(kind::ROW_CHUNK, &payload),
            Err(ProtoError::Truncated)
        );
    }

    #[test]
    fn bad_magic_version_kind_are_rejected() {
        let good = Request {
            id: 0,
            body: RequestBody::Sql {
                window: (0, 0),
                sql: String::new(),
                deadline_ms: 0,
            },
        }
        .encode();
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(parse_frame(&bad), Err(ProtoError::BadMagic(_))));
        let mut bad = good.clone();
        bad[2] = 0x7F;
        assert!(matches!(parse_frame(&bad), Err(ProtoError::BadVersion(_))));
        let mut bad = good;
        bad[3] = 0x40;
        assert!(matches!(parse_frame(&bad), Err(ProtoError::BadKind(0x40))));
    }
}
