//! In-process duplex byte transport.
//!
//! The serving tier is hermetic: instead of TCP sockets it speaks the
//! frame protocol over a pair of bounded in-memory byte pipes (one per
//! direction), built from `std::sync` primitives only. The essential
//! socket-like properties are preserved:
//!
//! * **Byte stream, not message queue** — frames are flattened to bytes
//!   and reassembled by header parsing, so the protocol's truncation and
//!   length-bound handling is actually exercised.
//! * **Backpressure** — each direction holds at most [`PIPE_CAPACITY`]
//!   buffered bytes; a writer outrunning a slow reader blocks, which is
//!   what bounds the memory of streaming a huge result.
//! * **Frame-atomic writes** — one frame is appended under one lock
//!   acquisition, so several server workers may answer pipelined
//!   requests over the same connection without interleaving bytes
//!   *within* a frame (frames of different request ids may interleave;
//!   ids disambiguate).
//! * **Loopback delivery** — a direction whose receiver registered a
//!   [`ByteSink`] has no blocked reader to wake: the bytes are handed to
//!   the sink on the writer's own thread, the way a loopback socket runs
//!   its receive path in the sender's context. The server takes request
//!   bytes this way, so a request crosses at most one thread boundary
//!   (client to worker) on its way in, not two; a warm interactive one,
//!   answered by the sink itself with writes that never wait for room
//!   ([`Endpoint::never_waiting`]), crosses none at all.

use crate::proto::{
    encode_row_chunk_into, FrameHeader, ProtoError, Request, Response, WireRow, CHUNK_ROWS,
    HEADER_LEN,
};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Per-direction buffer bound in bytes.
pub const PIPE_CAPACITY: usize = 1 << 20;
/// Pending bytes at which a [`FrameBatch`] makes an answer's first
/// write. Nearly every interactive answer still leaves in one write and
/// one wake-up: the benchmark's `serve_mixed` light answers carry a
/// median of 22 KB of frames and a 95th percentile of 44 KB, and 8 in
/// 2 800 (its largest, 66 KB) pass 64 KiB and leave in two. A scan's
/// first frames leave after 64 KiB instead of [`BATCH_BYTES`], so the
/// client decodes them while the worker encodes the rest.
pub const FIRST_BATCH_BYTES: usize = 64 << 10;
/// The most pending bytes a [`FrameBatch`] waits for: each write's
/// threshold is twice the write before, from [`FIRST_BATCH_BYTES`] up to
/// this. A 1 MB scan streams in writes of 64, 128, then 256 KiB.
/// This schedule supersedes a fixed threshold, which had to trade a
/// scan's overlap of encoding with decoding (on 2 vCPUs a 24-epoch scan
/// took 4.5 ms at 64 KiB against 6.5 ms at 256 KiB) against the
/// wake-ups, the part of a request's cost that differs most from one
/// run to the next: the schedule starts early and wakes a long answer's
/// client a few times only.
pub const BATCH_BYTES: usize = 256 << 10;

/// Transport failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer closed; no further bytes will arrive (clean at a frame
    /// boundary) — or the send side found the pipe closed.
    Closed,
    /// The peer closed mid-frame, or a malformed frame arrived.
    Proto(ProtoError),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed => write!(f, "connection closed"),
            TransportError::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<ProtoError> for TransportError {
    fn from(e: ProtoError) -> Self {
        TransportError::Proto(e)
    }
}

/// The receiving side of a direction that takes its bytes as they are
/// written, on the writer's thread, instead of reading them from a
/// thread of its own (see the module docs, *loopback delivery*). Each
/// write is delivered whole by the thread that made it; two writers may
/// call at once, so a sink serialises itself.
pub trait ByteSink: Send + Sync {
    /// The next bytes of the stream, in order. Frames may arrive split
    /// or several at once: this is a byte stream.
    fn on_bytes(&self, bytes: &[u8]);
    /// The writer hung up; no more bytes follow.
    fn on_close(&self);
}

struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

impl PipeState {
    /// Hand up to `want` bytes from the front of the buffer to `put`, a
    /// slice at a time (the ring holds them in one or two), and drop
    /// them; returns how many.
    fn take(&mut self, want: usize, mut put: impl FnMut(&[u8])) -> usize {
        let k = want.min(self.buf.len());
        let (front, back) = self.buf.as_slices();
        let from_front = k.min(front.len());
        put(&front[..from_front]);
        put(&back[..k - from_front]);
        self.buf.drain(..k);
        k
    }
}

/// One direction of the duplex channel.
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
    writable: Condvar,
    /// Set once, before the first byte, by a receiver that wants
    /// loopback delivery; such a pipe never buffers.
    sink: OnceLock<Box<dyn ByteSink>>,
}

impl Pipe {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(PipeState {
                buf: VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            sink: OnceLock::new(),
        })
    }

    /// Append `bytes` atomically. With `wait_for_room` the call blocks
    /// while the pipe is over capacity; oversize single frames are still
    /// written whole once the buffer drains below capacity (capacity is
    /// a soft high-water mark, not a hard bound, so a frame is never
    /// split across lock drops).
    fn write_all(&self, bytes: &[u8], wait_for_room: bool) -> Result<(), TransportError> {
        let mut st = self.state.lock().unwrap();
        while wait_for_room && st.buf.len() >= PIPE_CAPACITY && !st.closed {
            st = self.writable.wait(st).unwrap();
        }
        if st.closed {
            return Err(TransportError::Closed);
        }
        match self.sink.get() {
            Some(sink) => {
                drop(st);
                sink.on_bytes(bytes);
            }
            None => {
                st.buf.extend(bytes);
                self.readable.notify_all();
            }
        }
        Ok(())
    }

    /// Hand the next `n` bytes to `put`, a slice at a time, waiting, the
    /// lock let go, while none are buffered. Returns the lock and how
    /// many bytes came: fewer than `n` means the pipe closed first.
    fn read_exact<'a>(
        &'a self,
        mut st: MutexGuard<'a, PipeState>,
        n: usize,
        mut put: impl FnMut(&[u8]),
    ) -> (MutexGuard<'a, PipeState>, usize) {
        let mut read = 0;
        while read < n {
            while st.buf.is_empty() && !st.closed {
                st = self.readable.wait(st).unwrap();
            }
            if st.buf.is_empty() {
                break;
            }
            read += st.take(n - read, &mut put);
            self.writable.notify_all();
        }
        (st, read)
    }

    /// Read one frame under one lock: its header (validated, bounding the
    /// payload length before allocation), then its payload into one
    /// allocation. `Ok(None)` means the pipe closed cleanly at a frame
    /// boundary; a close inside a frame is a truncation.
    fn read_frame(&self) -> Result<Option<(u8, Vec<u8>)>, TransportError> {
        let truncated = TransportError::Proto(ProtoError::Truncated);
        let mut header = [0; HEADER_LEN];
        let mut at = 0;
        let (st, read) = self.read_exact(self.state.lock().unwrap(), HEADER_LEN, |bytes| {
            header[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        });
        match read {
            0 => return Ok(None),
            HEADER_LEN => {}
            _ => return Err(truncated),
        }
        let h = FrameHeader::parse(&header)?;
        let mut payload = Vec::with_capacity(h.payload_len);
        let (st, read) = self.read_exact(st, h.payload_len, |bytes| {
            payload.extend_from_slice(bytes);
        });
        drop(st);
        if read < h.payload_len {
            return Err(truncated);
        }
        Ok(Some((h.kind, payload)))
    }

    fn close(&self) {
        let mut st = self.state.lock().unwrap();
        if std::mem::replace(&mut st.closed, true) {
            return;
        }
        self.readable.notify_all();
        self.writable.notify_all();
        drop(st);
        if let Some(sink) = self.sink.get() {
            sink.on_close();
        }
    }
}

/// One end of a duplex connection. Cloning shares the same two pipes, so
/// multiple worker threads can send over one connection safely.
#[derive(Clone)]
pub struct Endpoint {
    tx: Arc<Pipe>,
    rx: Arc<Pipe>,
    /// Whether a send waits while the outbound pipe is over capacity.
    wait_for_room: bool,
    /// Where this end notes its answers' places ([`Endpoint::stamping`]).
    answered: Option<Arc<AtomicU64>>,
}

/// The answer order every stamping endpoint shares: a terminal frame's
/// place in it is taken before the frame is written.
static ANSWERS: AtomicU64 = AtomicU64::new(1);

/// Create a connected pair of endpoints.
pub fn duplex() -> (Endpoint, Endpoint) {
    let a_to_b = Pipe::new();
    let b_to_a = Pipe::new();
    (
        Endpoint {
            tx: a_to_b.clone(),
            rx: b_to_a.clone(),
            wait_for_room: true,
            answered: None,
        },
        Endpoint {
            tx: b_to_a,
            rx: a_to_b,
            wait_for_room: true,
            answered: None,
        },
    )
}

impl Endpoint {
    /// Send one already-encoded frame.
    pub fn send_bytes(&self, frame: &[u8]) -> Result<(), TransportError> {
        self.tx.write_all(frame, self.wait_for_room)
    }

    /// This end, with every send made as [`Endpoint::send_response_now`]
    /// makes its one: for a whole answer written on the thread that will
    /// read it, which would wait for itself.
    pub fn never_waiting(&self) -> Endpoint {
        Endpoint {
            wait_for_room: false,
            ..self.clone()
        }
    }

    /// This end, noting the place in answer order of each terminal frame
    /// it writes ([`Endpoint::answered`]). The place is taken before the
    /// frame leaves, so an answer written after the peer read another is
    /// placed after it, whichever thread wrote either.
    pub fn stamping(&self) -> Endpoint {
        Endpoint {
            answered: Some(Arc::default()),
            ..self.clone()
        }
    }

    /// The place of the last terminal frame this stamping end wrote; 0
    /// if none.
    pub fn answered(&self) -> u64 {
        self.answered
            .as_ref()
            .map_or(0, |a| a.load(Ordering::Relaxed))
    }

    fn note(&self, resp: &Response) {
        if let (Some(answered), true) = (&self.answered, resp.body.is_terminal()) {
            answered.store(ANSWERS.fetch_add(1, Ordering::SeqCst), Ordering::Relaxed);
        }
    }

    /// Bytes this end has sent that the peer has not read yet (always 0
    /// towards a peer that takes them by loopback delivery).
    pub fn unread_sent(&self) -> usize {
        self.tx.state.lock().unwrap().buf.len()
    }

    /// Send a response without waiting for room in the pipe. For the
    /// short answers a [`ByteSink`] writes while it handles a request
    /// (shed, protocol error, control replies): it runs on the thread
    /// of the peer that would have to drain the pipe, so waiting for
    /// room there could wait forever.
    pub fn send_response_now(&self, resp: &Response) -> Result<(), TransportError> {
        self.note(resp);
        self.tx.write_all(&resp.encode(), false)
    }

    /// Have this end's inbound bytes delivered to `sink` as they are
    /// written (loopback delivery) instead of buffered for
    /// [`Endpoint::recv_frame`]. Call before the peer writes anything;
    /// a direction takes one sink for its lifetime.
    pub fn deliver_to(&self, sink: Box<dyn ByteSink>) {
        let installed = self.rx.sink.set(sink).is_ok();
        assert!(installed, "a direction takes one sink");
    }

    pub fn send_request(&self, req: &Request) -> Result<(), TransportError> {
        self.send_bytes(&req.encode())
    }

    pub fn send_response(&self, resp: &Response) -> Result<(), TransportError> {
        self.note(resp);
        self.send_bytes(&resp.encode())
    }

    /// Receive one raw frame: header first (validated, bounding the
    /// payload length before allocation), then the payload. `Ok(None)`
    /// on clean close.
    pub fn recv_frame(&self) -> Result<Option<(u8, Vec<u8>)>, TransportError> {
        self.rx.read_frame()
    }

    /// Receive and decode one request frame; `Ok(None)` on clean close.
    pub fn recv_request(&self) -> Result<Option<Request>, TransportError> {
        match self.recv_frame()? {
            Some((kind, payload)) => Ok(Some(Request::decode(kind, &payload)?)),
            None => Ok(None),
        }
    }

    /// Receive and decode one response frame; `Ok(None)` on clean close.
    pub fn recv_response(&self) -> Result<Option<Response>, TransportError> {
        match self.recv_frame()? {
            Some((kind, payload)) => Ok(Some(Response::decode(kind, &payload)?)),
            None => Ok(None),
        }
    }

    /// Close the outbound direction; the peer's reads drain then end.
    /// Also wakes our own blocked reads via the peer's close when both
    /// sides call it.
    pub fn close(&self) {
        self.tx.close();
    }

    /// Close both directions (abort).
    pub fn close_both(&self) {
        self.tx.close();
        self.rx.close();
    }
}

/// The frames of one answer, written to the pipe a batch at a time.
///
/// Every pipe write wakes the reading thread if it sleeps. A client
/// that is sent an answer frame by frame reads each 256-row frame faster
/// than the next one is produced, so it sleeps and is woken once per
/// frame, and every one of those wake-ups costs whatever the scheduler
/// (under a hypervisor: the host) takes to run a halted CPU again. Frames
/// therefore collect here until the batch's threshold is pending or the
/// answer ends. The first threshold is [`FIRST_BATCH_BYTES`], each later
/// one twice the write before, up to [`BATCH_BYTES`]: a small answer
/// reaches its client in one write and one wake-up, a large one starts
/// early, then streams in ever larger writes against the pipe's
/// backpressure. A write holds at most twice the bytes of the one before
/// (where the frame that reaches the threshold would pass that, the
/// frames before it leave without it), unless it is one frame alone.
/// Whole frames only, so the pipe's frame atomicity holds. Dropping a
/// batch discards what it has not written.
pub struct FrameBatch<'a> {
    ep: &'a Endpoint,
    buf: Vec<u8>,
    /// Pending bytes at which the next write leaves.
    threshold: usize,
    /// Bytes of the last write; 0 before the first.
    last: usize,
}

impl<'a> FrameBatch<'a> {
    pub fn new(ep: &'a Endpoint) -> Self {
        Self {
            ep,
            buf: Vec::new(),
            threshold: FIRST_BATCH_BYTES,
            last: 0,
        }
    }

    pub fn push(&mut self, resp: &Response) -> Result<(), TransportError> {
        self.ep.note(resp);
        let start = self.buf.len();
        resp.encode_into(&mut self.buf);
        self.frame_added(start)
    }

    /// Push `rows` as `RowChunk` frames of at most [`CHUNK_ROWS`] rows,
    /// each row encoded where it lies (owned, or lent out of a cached
    /// epoch: [`WireRow`]); returns how many rows were pushed.
    pub fn push_rows<R: WireRow>(
        &mut self,
        id: u64,
        table: u8,
        rows: impl IntoIterator<Item = R>,
    ) -> Result<u64, TransportError> {
        let mut rows = rows.into_iter().peekable();
        let mut pushed = 0;
        while rows.peek().is_some() {
            let chunk = rows.by_ref().take(CHUNK_ROWS);
            let start = self.buf.len();
            pushed += encode_row_chunk_into(&mut self.buf, id, table, chunk) as u64;
            self.frame_added(start)?;
        }
        Ok(pushed)
    }

    /// A frame was pushed at `start`: write once the threshold is
    /// pending. Where that frame would take the write past twice the
    /// last one, the frames before it are written first, without it.
    fn frame_added(&mut self, start: usize) -> Result<(), TransportError> {
        if self.buf.len() < self.threshold {
            return Ok(());
        }
        if start > 0 && self.last > 0 && self.buf.len() > 2 * self.last {
            self.write(start)?;
            if self.buf.len() < self.threshold {
                return Ok(());
            }
        }
        self.write(self.buf.len())
    }

    /// Write out what is pending; the answer's last frame needs this.
    pub fn flush(&mut self) -> Result<(), TransportError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.write(self.buf.len())
    }

    /// Write the first `n` pending bytes, which end a frame, and double
    /// the threshold from them.
    fn write(&mut self, n: usize) -> Result<(), TransportError> {
        let sent = self.ep.send_bytes(&self.buf[..n]);
        self.buf.drain(..n);
        self.last = n;
        self.threshold = (2 * n).min(BATCH_BYTES);
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{RequestBody, ResponseBody, TableHeader};
    use telco_trace::record::Value;

    #[test]
    fn frames_cross_the_duplex_channel() {
        let (client, server) = duplex();
        let req = Request {
            id: 42,
            body: RequestBody::Sql {
                window: (0, 3),
                sql: "SELECT COUNT(*) FROM CDR".into(),
                deadline_ms: 0,
            },
        };
        client.send_request(&req).unwrap();
        assert_eq!(server.recv_request().unwrap().unwrap(), req);

        let resp = Response {
            id: 42,
            body: ResponseBody::Done { rows: 7 },
        };
        server.send_response(&resp).unwrap();
        assert_eq!(client.recv_response().unwrap().unwrap(), resp);
    }

    #[test]
    fn clean_close_yields_none_midframe_close_errors() {
        let (client, server) = duplex();
        client.close();
        assert_eq!(server.recv_request().unwrap(), None);

        let (client, server) = duplex();
        let frame = Request {
            id: 1,
            body: RequestBody::Sql {
                window: (0, 0),
                sql: "SELECT 1".into(),
                deadline_ms: 0,
            },
        }
        .encode();
        // Half a frame, then hang up.
        client.send_bytes(&frame[..frame.len() / 2]).unwrap();
        client.close();
        assert!(matches!(
            server.recv_request(),
            Err(TransportError::Proto(ProtoError::Truncated))
        ));
    }

    #[test]
    fn concurrent_senders_never_interleave_within_a_frame() {
        let (client, server) = duplex();
        let n_threads = 4;
        let frames_each = 50;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let server = server.clone();
                s.spawn(move || {
                    for i in 0..frames_each {
                        let resp = Response {
                            id: (t * 1000 + i) as u64,
                            body: ResponseBody::Done { rows: i as u64 },
                        };
                        server.send_response(&resp).unwrap();
                    }
                });
            }
            s.spawn(|| {
                // Every frame must decode — any byte-level interleaving
                // would corrupt the stream immediately.
                let mut seen = 0;
                while seen < n_threads * frames_each {
                    let resp = client.recv_response().unwrap().expect("early close");
                    assert!(matches!(resp.body, ResponseBody::Done { .. }));
                    seen += 1;
                }
            });
        });
    }

    #[test]
    fn backpressure_blocks_then_drains() {
        let (client, server) = duplex();
        let big = vec![0xAB; 100_000];
        let writer = std::thread::spawn(move || {
            for _ in 0..20 {
                // 2 MB total, twice the pipe capacity: must block until
                // the reader drains.
                server
                    .send_response(&Response {
                        id: 0,
                        body: ResponseBody::Error {
                            code: 0,
                            message: String::from_utf8(big.iter().map(|_| b'x').collect()).unwrap(),
                        },
                    })
                    .unwrap();
            }
            server.close();
        });
        let mut n = 0;
        while let Some(resp) = client.recv_response().unwrap() {
            assert!(matches!(resp.body, ResponseBody::Error { .. }));
            n += 1;
        }
        assert_eq!(n, 20);
        writer.join().unwrap();
    }

    #[test]
    fn a_never_waiting_end_writes_past_the_capacity_and_counts_what_is_unread() {
        let (client, server) = duplex();
        let frame = Response {
            id: 3,
            body: ResponseBody::Error {
                code: 0,
                message: "x".repeat(PIPE_CAPACITY / 3),
            },
        }
        .encode();
        let now = server.never_waiting();
        // Four writes past a full pipe, on the thread that reads it.
        for _ in 0..4 {
            now.send_bytes(&frame).unwrap();
        }
        assert_eq!(server.unread_sent(), 4 * frame.len());
        assert_eq!(client.unread_sent(), 0);
        for _ in 0..4 {
            assert_eq!(client.recv_response().unwrap().unwrap().id, 3);
        }
        assert_eq!(server.unread_sent(), 0);
    }

    /// Records every delivery: the bytes of each write and the thread it
    /// arrived on.
    #[derive(Default)]
    struct Recorder {
        writes: Mutex<Vec<(std::thread::ThreadId, Vec<u8>)>>,
        closed: Mutex<bool>,
    }

    impl ByteSink for Arc<Recorder> {
        fn on_bytes(&self, bytes: &[u8]) {
            self.writes
                .lock()
                .unwrap()
                .push((std::thread::current().id(), bytes.to_vec()));
        }
        fn on_close(&self) {
            *self.closed.lock().unwrap() = true;
        }
    }

    /// Every frame in `bytes`, which must hold whole frames only.
    fn frames_in(mut bytes: &[u8]) -> Vec<Response> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let (kind, payload, used) = crate::proto::parse_frame(bytes).expect("whole frames");
            out.push(Response::decode(kind, payload).unwrap());
            bytes = &bytes[used..];
        }
        out
    }

    #[test]
    fn a_sink_takes_the_bytes_on_the_writers_thread_and_hears_the_close() {
        let (client, server) = duplex();
        let recorder = Arc::new(Recorder::default());
        server.deliver_to(Box::new(recorder.clone()));
        let writer = std::thread::spawn(move || {
            client.send_bytes(b"abc").unwrap();
            client.send_bytes(b"de").unwrap();
            client.close();
            // Closing twice tells the sink once.
            client.close();
            assert_eq!(client.send_bytes(b"f"), Err(TransportError::Closed));
            std::thread::current().id()
        });
        let writer_id = writer.join().unwrap();
        let writes = recorder.writes.lock().unwrap();
        assert_eq!(
            *writes,
            vec![(writer_id, b"abc".to_vec()), (writer_id, b"de".to_vec())]
        );
        assert!(*recorder.closed.lock().unwrap());
    }

    #[test]
    fn a_batch_sends_a_small_answer_in_one_write_and_streams_a_large_one() {
        let (client, server) = duplex();
        let recorder = Arc::new(Recorder::default());
        client.deliver_to(Box::new(recorder.clone()));

        // Small: nothing leaves before the flush, then everything at once.
        let mut batch = FrameBatch::new(&server);
        let rows = vec![vec![Value::Int(7), Value::Str("x".into())]; 3];
        batch
            .push(&Response {
                id: 1,
                body: ResponseBody::Unavailable,
            })
            .unwrap();
        batch.push_rows(1, 0, &rows).unwrap();
        batch
            .push(&Response {
                id: 1,
                body: ResponseBody::Done { rows: 3 },
            })
            .unwrap();
        assert!(recorder.writes.lock().unwrap().is_empty());
        batch.flush().unwrap();
        batch.flush().unwrap();
        {
            let writes = recorder.writes.lock().unwrap();
            assert_eq!(writes.len(), 1, "one write, one wake-up");
            let frames = frames_in(&writes[0].1);
            assert_eq!(frames.len(), 3);
            // Borrowed rows encode exactly as an owned chunk does.
            assert_eq!(
                frames[1],
                Response {
                    id: 1,
                    body: ResponseBody::RowChunk { table: 0, rows }
                }
            );
        }
        recorder.writes.lock().unwrap().clear();

        // Large: frames of CHUNK_ROWS rows, a write whenever BATCH_BYTES
        // are pending, whole frames in each, nothing held back at the end.
        let n_rows = 3 * BATCH_BYTES / (8 * 21) + 100;
        let rows = vec![vec![Value::Str("0123456789abcdef".into()); 8]; n_rows];
        let mut batch = FrameBatch::new(&server);
        batch.push_rows(2, 1, &rows).unwrap();
        batch.flush().unwrap();
        let writes = recorder.writes.lock().unwrap();
        assert!(writes.len() >= 3, "{} writes", writes.len());
        let mut rows_seen = 0;
        for (_, bytes) in writes.iter() {
            assert!(bytes.len() < 2 * BATCH_BYTES);
            for frame in frames_in(bytes) {
                let ResponseBody::RowChunk { table: 1, rows } = frame.body else {
                    panic!("expected a row chunk of table 1");
                };
                assert!(!rows.is_empty() && rows.len() <= CHUNK_ROWS);
                rows_seen += rows.len();
            }
        }
        assert_eq!(rows_seen, n_rows);
    }

    /// The write sizes of one answer pushed through a batch, and its rows
    /// as they arrive, in order; each write must hold whole frames.
    fn batched(push: impl FnOnce(&mut FrameBatch)) -> (Vec<usize>, Vec<Vec<Value>>) {
        let (client, server) = duplex();
        let recorder = Arc::new(Recorder::default());
        client.deliver_to(Box::new(recorder.clone()));
        let mut batch = FrameBatch::new(&server);
        push(&mut batch);
        batch.flush().unwrap();
        let writes = recorder.writes.lock().unwrap();
        let mut rows = Vec::new();
        for (_, bytes) in writes.iter() {
            for frame in frames_in(bytes) {
                if let ResponseBody::RowChunk { rows: chunk, .. } = frame.body {
                    rows.extend(chunk);
                }
            }
        }
        (writes.iter().map(|(_, bytes)| bytes.len()).collect(), rows)
    }

    #[test]
    fn a_batch_writes_64_kib_first_then_at_most_twice_the_write_before() {
        let header = Response {
            id: 4,
            body: ResponseBody::Header {
                tables: vec![TableHeader {
                    name: "CDR".into(),
                    columns: vec!["a".into(), "b".into(), "c".into()],
                }],
            },
        };
        // Rows of uneven widths, pushed an epoch at a time as a scan
        // pushes them: chunks of every size, about 1.3 MB in all.
        let row = |i: usize| {
            let text = "x".repeat(i % 23);
            vec![Value::Int(i as i64), Value::Str(text.into()), Value::Null]
        };
        let epochs: Vec<Vec<Vec<Value>>> = (0..40)
            .map(|e| (0..700 + 37 * e).map(|i| row(e * 10_000 + i)).collect())
            .collect();
        let (writes, rows) = batched(|batch| {
            batch.push(&header).unwrap();
            for epoch in &epochs {
                batch.push_rows(4, 0, epoch).unwrap();
            }
            batch
                .push(&Response {
                    id: 4,
                    body: ResponseBody::Done { rows: 0 },
                })
                .unwrap();
        });
        assert_eq!(rows, epochs.concat(), "the rows in order");
        let first = FIRST_BATCH_BYTES..2 * FIRST_BATCH_BYTES;
        assert!(first.contains(&writes[0]), "{writes:?}");
        for pair in writes.windows(2) {
            assert!(pair[1] <= 2 * pair[0], "{writes:?}");
            assert!(pair[1] < 2 * BATCH_BYTES, "{writes:?}");
        }
        assert!(writes.iter().any(|&w| w >= BATCH_BYTES), "{writes:?}");
        assert!(writes.len() <= 9, "{writes:?}");

        // An answer that ends before 64 KiB leaves in one write.
        let short: Vec<Vec<Value>> = (0..2_000).map(row).collect();
        let (writes, rows) = batched(|batch| {
            batch.push_rows(5, 1, &short).unwrap();
        });
        assert_eq!(rows, short);
        assert_eq!(writes.len(), 1);
        assert!(writes[0] < FIRST_BATCH_BYTES, "{writes:?}");
    }

    #[test]
    fn a_read_copies_both_slices_of_a_wrapped_buffer() {
        let (client, server) = duplex();
        let bytes: Vec<u8> = (0..=255).cycle().take(1 << 16).collect();
        server.send_bytes(&bytes[..100]).unwrap();
        let pipe = &client.rx;
        let mut out = Vec::new();
        let mut read = |n| {
            let put = |bytes: &[u8]| out.extend_from_slice(bytes);
            pipe.read_exact(pipe.state.lock().unwrap(), n, put).1
        };
        assert_eq!(read(60), 60);
        // The next write fits behind the 40 unread bytes only by wrapping
        // round the ring's end.
        let room = pipe.state.lock().unwrap().buf.capacity() - 40;
        server.send_bytes(&bytes[100..100 + room]).unwrap();
        assert!(!pipe.state.lock().unwrap().buf.as_slices().1.is_empty());
        assert_eq!(read(40 + room), 40 + room);
        assert!(pipe.state.lock().unwrap().buf.is_empty());
        assert_eq!(out, bytes[..100 + room]);
    }
}
