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
//! A payload is written and read through [`obs::bytes`]; this module
//! keeps the frame header and the [`Value`] tags. A forged length field
//! beyond [`MAX_PAYLOAD`] is rejected *before* any allocation, a truncated
//! frame or a count its payload cannot hold reports
//! [`ProtoError::Truncated`] rather than panicking or reserving, and
//! trailing bytes after a well-formed payload are an error (no smuggling).

use obs::bytes::{ByteError, Reader, Writer};
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

impl From<ByteError> for ProtoError {
    #[inline]
    fn from(e: ByteError) -> Self {
        match e {
            ByteError::Trailing(n) => ProtoError::Trailing(n),
            ByteError::BadUtf8 => ProtoError::BadUtf8,
            // A count the payload cannot hold is cut short, as the read
            // loop would find (a frame's magic is its header's to check).
            ByteError::Truncated | ByteError::OutOfRange { .. } | ByteError::BadMagic => {
                ProtoError::Truncated
            }
        }
    }
}

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

/// Open a frame at the end of `buf`: its header goes in first with its
/// kind and length still open, and the payload is written straight behind
/// it — no payload buffer of its own, no copy into a frame afterwards.
/// Returns where the frame starts, for [`close`].
fn open(buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&[VERSION, 0, 0, 0, 0, 0]);
    start
}

/// Close the frame opened at `start`: fill in the kind byte and the
/// payload length.
fn close(buf: &mut [u8], start: usize, kind: u8) {
    let payload_len = buf.len() - start - HEADER_LEN;
    assert!(payload_len <= MAX_PAYLOAD, "frame payload over bound");
    buf[start + 3] = kind;
    buf[start + 4..start + HEADER_LEN].copy_from_slice(&(payload_len as u32).to_le_bytes());
}

#[inline]
fn write_str(w: &mut Writer, s: &str) {
    w.len::<u32>("string", s.len());
    w.bytes(s.as_bytes());
}

#[inline]
fn write_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.u8(0),
        Value::Str(s) => {
            w.u8(1);
            write_str(w, s);
        }
        Value::Int(i) => {
            w.u8(2);
            w.i64(*i);
        }
        Value::Float(f) => {
            w.u8(3);
            w.f64(*f);
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
    let start = open(out);
    let mut w = Writer::new(out);
    w.u64(id);
    w.u8(table);
    w.u16(0);
    let mut count = 0;
    for row in rows {
        w.len::<u16>("row width", row.width());
        for i in 0..row.width() {
            write_value(&mut w, row.value(i));
        }
        count += 1;
    }
    let count16 = u16::try_from(count).expect("a row chunk holds at most u16::MAX rows");
    // The row count follows the id and the table byte.
    let count_at = start + HEADER_LEN + 8 + 1;
    out[count_at..count_at + 2].copy_from_slice(&count16.to_le_bytes());
    close(out, start, kind::ROW_CHUNK);
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
        let start = open(&mut out);
        let w = &mut Writer::new(&mut out);
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
                    write_str(w, a);
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
                write_str(w, sql);
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
        close(&mut out, start, kind);
        out
    }

    /// Decode a payload of the given kind.
    pub fn decode(kind_byte: u8, payload: &[u8]) -> Result<Self, ProtoError> {
        let r = &mut Reader::new(payload);
        let id = r.u64()?;
        let body = match kind_byte {
            kind::EXPLORE => RequestBody::Explore {
                attributes: list::<u16, _>(r, 4, "explore attributes", read_string)?,
                bbox: (r.f64()?, r.f64()?, r.f64()?, r.f64()?),
                window: (r.u32()?, r.u32()?),
                deadline_ms: r.u64()?,
            },
            kind::SQL => RequestBody::Sql {
                window: (r.u32()?, r.u32()?),
                sql: read_string(r)?,
                deadline_ms: r.u64()?,
            },
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
        let start = open(out);
        let w = &mut Writer::new(out);
        w.u64(self.id);
        let kind = match &self.body {
            ResponseBody::Header { tables } => {
                w.len::<u8>("header tables", tables.len());
                for t in tables {
                    write_str(w, &t.name);
                    w.len::<u16>("header columns", t.columns.len());
                    for c in &t.columns {
                        write_str(w, c);
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
                write_str(w, resolution);
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
                write_str(w, message);
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
                    write_str(w, &a.stream);
                    write_str(w, &a.category);
                    w.u32(a.share_milli);
                    w.u8(a.deterministic as u8);
                }
                w.len::<u32>("stats counters", s.counters.len());
                for (name, value) in &s.counters {
                    write_str(w, name);
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
                    write_str(w, &s.name);
                    w.u64(s.start_us);
                    w.u64(s.dur_us);
                    w.u8(s.instant as u8);
                    w.len::<u16>("span args", s.args.len());
                    for (k, v) in &s.args {
                        write_str(w, k);
                        write_str(w, v);
                    }
                }
                kind::TRACE_REPLY
            }
            ResponseBody::Profile(p) => {
                w.u64(p.trace_id);
                w.len::<u32>("profile metrics", p.metrics.len());
                for (metric, value) in &p.metrics {
                    write_str(w, metric);
                    write_str(w, value);
                }
                kind::PROFILE_REPLY
            }
        };
        close(out, start, kind);
    }

    /// Decode a payload of the given kind.
    pub fn decode(kind_byte: u8, payload: &[u8]) -> Result<Self, ProtoError> {
        let r = &mut Reader::new(payload);
        let id = r.u64()?;
        let body = match kind_byte {
            kind::HEADER => ResponseBody::Header {
                // A table is a name and a column count at least.
                tables: list::<u8, _>(r, 4 + 2, "header tables", |r| {
                    Ok(TableHeader {
                        name: read_string(r)?,
                        columns: list::<u16, _>(r, 4, "header columns", read_string)?,
                    })
                })?,
            },
            // A row takes two bytes at least, a value one.
            kind::ROW_CHUNK => ResponseBody::RowChunk {
                table: r.u8()?,
                rows: list::<u16, _>(r, 2, "chunk rows", |r| {
                    list::<u16, _>(r, 1, "row width", read_value)
                })?,
            },
            kind::SUMMARY => ResponseBody::Summary {
                resolution: read_string(r)?,
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
                message: read_string(r)?,
            },
            kind::UNAVAILABLE => ResponseBody::Unavailable,
            kind::STATS_REPLY => ResponseBody::Stats(StatsFrame {
                queries: r.u64()?,
                rows_streamed: r.u64()?,
                shed_overflow: r.u64()?,
                shed_deadline: r.u64()?,
                protocol_errors: r.u64()?,
                queue_interactive: r.u32()?,
                queue_scan: r.u32()?,
                cache_hits: r.u64()?,
                cache_misses: r.u64()?,
                cache_evictions: r.u64()?,
                cache_invalidations: r.u64()?,
                meta_ticks: r.u64()?,
                anomalies_total: r.u64()?,
                anomalies_deterministic: r.u64()?,
                anomalies: list::<u16, _>(r, 8 + 4 + 4 + 4 + 1, "stats anomalies", |r| {
                    Ok(AnomalyWire {
                        tick: r.u64()?,
                        stream: read_string(r)?,
                        category: read_string(r)?,
                        share_milli: r.u32()?,
                        deterministic: r.u8()? != 0,
                    })
                })?,
                counters: list::<u32, _>(r, 4 + 8, "stats counters", |r| {
                    Ok((read_string(r)?, r.u64()?))
                })?,
                breaker_trips: r.u64()?,
                breaker_probes: r.u64()?,
                breaker_recoveries: r.u64()?,
                breaker_reopens: r.u64()?,
                breaker_skipped: r.u64()?,
                breaker_nodes: list::<u16, _>(r, 4 + 4 + 1, "stats breaker nodes", |r| {
                    Ok((r.u32()?, r.u32()?, r.u8()?))
                })?,
                shard_stats: list::<u16, _>(r, 4 + 8 + 4 + 8 + 8, "stats shard rows", |r| {
                    Ok(ShardStatWire {
                        shard: r.u32()?,
                        bytes: r.u64()?,
                        leaves: r.u32()?,
                        queries: r.u64()?,
                        version: r.u64()?,
                    })
                })?,
            }),
            kind::TRACE_REPLY => ResponseBody::Trace(TraceFrame {
                trace_id: r.u64()?,
                spans: list::<u32, _>(r, 8 + 8 + 4 + 8 + 8 + 1 + 2, "trace spans", |r| {
                    Ok(SpanWire {
                        span_id: r.u64()?,
                        parent_id: r.u64()?,
                        name: read_string(r)?,
                        start_us: r.u64()?,
                        dur_us: r.u64()?,
                        instant: r.u8()? != 0,
                        args: list::<u16, _>(r, 4 + 4, "span args", read_pair)?,
                    })
                })?,
            }),
            kind::PROFILE_REPLY => ResponseBody::Profile(ProfileFrame {
                trace_id: r.u64()?,
                metrics: list::<u32, _>(r, 4 + 4, "profile metrics", read_pair)?,
            }),
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

#[inline]
fn read_str<'a>(r: &mut Reader<'a>) -> Result<&'a str, ProtoError> {
    let len = r.len::<u32>(1, "string")?;
    Ok(r.str(len)?)
}

fn read_string(r: &mut Reader) -> Result<String, ProtoError> {
    read_str(r).map(str::to_string)
}

fn read_pair(r: &mut Reader) -> Result<(String, String), ProtoError> {
    Ok((read_string(r)?, read_string(r)?))
}

/// A list behind a little-endian `W` count, each entry read by `entry`:
/// reserved for once the count passes [`Reader::len`]'s rule.
fn list<'a, W: Into<u64>, T>(
    r: &mut Reader<'a>,
    min_entry_len: usize,
    field: &'static str,
    mut entry: impl FnMut(&mut Reader<'a>) -> Result<T, ProtoError>,
) -> Result<Vec<T>, ProtoError> {
    let n = r.len::<W>(min_entry_len, field)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(entry(r)?);
    }
    Ok(out)
}

#[inline]
fn read_value(r: &mut Reader) -> Result<Value, ProtoError> {
    match r.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Str(read_str(r)?.into())),
        2 => Ok(Value::Int(r.i64()?)),
        3 => Ok(Value::Float(r.f64()?)),
        t => Err(ProtoError::BadTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::bytes::{sweep, Damage};

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
        sweep(&bytes, |damage, frame| match damage {
            Damage::Cut(_) => assert_eq!(parse_frame(frame), Err(ProtoError::Truncated)),
            // Refused or read back: it must return.
            Damage::Flip(_) => {
                if let Ok((k, payload, _)) = parse_frame(frame) {
                    let _ = Response::decode(k, payload);
                }
            }
        });
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

    fn generated_chunk(rng: &mut rand::rngs::StdRng) -> Response {
        use rand::Rng;
        let rows = (0..rng.gen_range(0..30))
            .map(|_| {
                (0..rng.gen_range(0..6))
                    .map(|_| match rng.gen_range(0..4) {
                        0 => Value::Null,
                        1 => Value::Str("s".repeat(rng.gen_range(0..9)).into()),
                        2 => Value::Int(rng.gen_range(-1_000_000i64..1_000_000)),
                        _ => Value::Float(rng.gen_range(-1e6..1e6)),
                    })
                    .collect()
            })
            .collect();
        Response {
            id: rng.gen_range(0..u64::MAX),
            body: ResponseBody::RowChunk {
                table: rng.gen_range(0..3),
                rows,
            },
        }
    }

    #[test]
    fn a_row_chunk_reads_back_whole_and_refuses_every_cut() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(52);
        for _ in 0..24 {
            let chunk = generated_chunk(&mut rng);
            let bytes = chunk.encode();
            let (k, payload, _) = parse_frame(&bytes).unwrap();
            assert_eq!(k, kind::ROW_CHUNK);
            let back = Response::decode(k, payload).unwrap();
            assert_eq!(back.encode(), bytes);
            sweep(payload, |damage, damaged| match damage {
                Damage::Cut(_) => assert!(Response::decode(k, damaged).is_err(), "{damage:?}"),
                // Refused or read back: it must return.
                Damage::Flip(_) => {
                    let _ = Response::decode(k, damaged);
                }
            });
        }
    }
}
