//! The multi-client query server.
//!
//! One [`Server`] owns a [`ShardedSpate`]: N cell-partitioned
//! [`SpateFramework`] shards, each behind its own `RwLock`. Query
//! workers plan under the *primary* shard's read guard (the lowest
//! shard the bounding box touches), then stream the answer epoch by
//! epoch — each epoch is resolved through the shared cache or loaded
//! from **all** shards under simultaneously-held read guards and merged
//! into canonical row order, so the bytes on the wire are identical for
//! any shard count. Operator mutations — [`Server::ingest`] and
//! [`Server::run_decay`] — fan out per shard in parallel, each holding
//! only its own write lock. Cache coherence falls out of the lock
//! order: every shard's [`StoreObserver`](spate_core::StoreObserver) hooks invalidate the shared
//! [`EpochCache`] *synchronously inside the mutation* (exclusive
//! access), and workers only insert cache entries while holding read
//! guards on every shard, so a reader can never re-populate an entry
//! concurrently with the eviction that dropped it. Zero stale reads, by
//! construction rather than by TTL.
//!
//! Request flow:
//!
//! ```text
//! client ──frame──▶ intake ──classify──▶ admission queue
//!                    │  │                      │ pop
//!         (overflow) │  │ (warm explore)       ▼
//!                    ▼  └─────────────▶ serve_one ──frames──▶ client
//!                Shed frame          on the intake or a worker
//! ```
//!
//! A per-connection `Intake` reassembles request frames, on the thread
//! of the client that wrote them (loopback delivery, see
//! [`crate::transport`]), answers cancels and control frames in place
//! and classifies the rest by window length (short = interactive, long
//! = scan); the two-priority [`AdmissionQueue`] bounds each class and
//! keeps clients fair; workers pop, shed anything that out-waited its
//! deadline, evaluate through the cache and stream the answer back in
//! bounded chunks, written to the connection a [`FrameBatch`] at a time.
//! A queued request therefore crosses two thread boundaries, client to
//! worker and back, and each one is a wake-up of a sleeping thread. A
//! warm interactive explore crosses none: when its window is cached (see
//! `warm`) the intake evaluates it itself, through the worker's own
//! `serve_one`, and the answer is in the reply pipe when the client's
//! send returns.

use crate::admission::{AdmissionQueue, Class};
use crate::cache::{CacheInvalidator, CacheStats, EpochCache};
use crate::proto::{
    errcode, parse_frame, AnomalyWire, ProfileFrame, Projected, ProtoError, Request, RequestBody,
    Response, ResponseBody, SpanWire, StatsFrame, TableHeader, TraceFrame,
};
use crate::transport::{duplex, ByteSink, Endpoint, FrameBatch, TransportError};
use dfs::breaker::BreakerState;
use obs::trace::{now_ns, TraceGuard};
use obs::{CancelFlag, CostProfile, EventKind, Histogram, Interrupt, SpanEvent};
use spate_core::framework::{lend_records, IngestStats};
use spate_core::index::highlights::Resolution;
use spate_core::query::{run_exact, Coverage, Plan, Query, RowPlan};
use spate_core::shard::ShardedSpate;
use spate_core::{
    AnomalyRecord, DecayReport, Highlights, MetaMonitor, MetaSummary, SpateFramework,
};
use spate_sql::SqlContext;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telco_trace::cells::BoundingBox;
use telco_trace::schema::TableKind;
use telco_trace::snapshot::Snapshot;
use telco_trace::time::EpochId;

/// Windows of at most this many epochs classify as interactive.
const INTERACTIVE_MAX_WINDOW: u64 = 8;

/// Admission depth of the interactive class.
const INTERACTIVE_DEPTH: usize = 64;

/// Admission depth of the scan class.
const SCAN_DEPTH: usize = 16;

/// Max epochs prefetched ahead of a served window.
const PREFETCH_LOOKAHEAD: u32 = 4;

/// Settled requests the request table keeps of each kind, with a cost
/// profile and without (shed, or panicked), so that sheds evict no
/// profile; oldest answer evicted first. Their profiles answer the
/// `Profile` frame and their traces the `Trace` frame; an older request
/// has neither, whole: its one record is gone.
const PROFILE_HISTORY: usize = 64;

/// How long a `Trace` or `Profile` frame waits for the request it names
/// to settle (see [`Requests::fence`]).
const FENCE: Duration = Duration::from_millis(50);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker pool size.
    pub workers: usize,
    /// Jobs older than this on pop are shed instead of served.
    pub queue_deadline: Duration,
    /// Decoded epochs the shared cache holds at most: its memory budget
    /// ([`EpochCache::new`]).
    pub cache_epochs: usize,
    /// Warm the cache ahead of each session's window (see `prefetch`).
    pub prefetch: bool,
    /// Chaos drills only: honor the reserved [`CHAOS_PANIC_ATTRIBUTE`]
    /// and [`CHAOS_STALL_ATTRIBUTE`] explore attributes (panic inside
    /// evaluation; stall before the first budget checkpoint), exercising
    /// panic isolation and deadline expiry deterministically. Off by
    /// default — production configurations never trip either.
    pub chaos_poison: bool,
}

/// Reserved explore attribute that, under [`ServeConfig::chaos_poison`],
/// makes the worker panic mid-evaluation (poison-query injection).
pub const CHAOS_PANIC_ATTRIBUTE: &str = "__chaos_panic";

/// Reserved explore attribute that, under [`ServeConfig::chaos_poison`],
/// stalls the worker for [`CHAOS_STALL`] before evaluation — long enough
/// that a small nonzero deadline is *certainly* spent by the first
/// checkpoint, making deadline-storm drills deterministic.
pub const CHAOS_STALL_ATTRIBUTE: &str = "__chaos_stall";

/// How long [`CHAOS_STALL_ATTRIBUTE`] stalls evaluation.
pub const CHAOS_STALL: Duration = Duration::from_millis(5);

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_deadline: Duration::from_secs(2),
            cache_epochs: 128,
            prefetch: true,
            chaos_poison: false,
        }
    }
}

/// Where a server lock's poison recoveries are counted
/// ([`obs::unpoisoned`]): a worker that panicked while holding a server
/// lock must never take the whole server down with it. Every shared
/// structure here is updated in single small steps (insert/remove a key,
/// push a profile, bump a counter), so the state under a poisoned lock is
/// still coherent.
const POISONED: &str = "serve.lock.poison_recovered";

/// [`obs::unpoisoned`] of a server `Mutex`, for the frame-identity tests.
#[cfg(test)]
fn lock_sane<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    obs::unpoisoned(m.lock(), POISONED)
}

obs::tallies! {
    /// What the server counts, each under its registry name too.
    struct ServeCounts {
        /// Requests answered (any terminal frame except shed).
        queries: Tally("serve.queries"),
        /// Exact/SQL rows streamed in row chunks.
        rows_streamed: Tally("serve.rows_streamed"),
        /// Requests refused at admission (a full class, or a closed queue).
        shed_overflow: Tally("serve.queue.shed"),
        /// Requests shed by workers after out-waiting the deadline.
        shed_deadline: Tally("serve.shed.deadline"),
        /// Malformed frames received from clients.
        protocol_errors: Tally("serve.protocol_errors"),
        /// Requests interrupted by a client `Cancel` frame.
        cancelled: Tally("serve.cancelled"),
        /// Requests whose end-to-end deadline expired mid-evaluation.
        deadline_expired: Tally("serve.deadline.expired"),
        /// Worker panics isolated into `Error` terminal frames.
        panics: Tally("serve.panics"),
        /// Worker loops restarted after a panic escaped request isolation.
        worker_respawns: Tally("serve.worker.respawns"),
    }
    /// Counter snapshot of server behaviour.
    pub struct ServeStats;
}

/// The request table: every request the server is answering, and the
/// last [`PROFILE_HISTORY`] of each kind it answered, by trace id. It
/// serves `Cancel` (the flag of a request not yet settled), the
/// `Trace`/`Profile` fence, and `Trace` and `Profile` (a settled
/// request's trace and cost).
#[derive(Default)]
struct Requests {
    table: Mutex<RequestTable>,
    /// Woken whenever an entry settles.
    settled: Condvar,
}

#[derive(Default)]
struct RequestTable {
    entries: HashMap<u64, Entry>,
    /// The settled entries as (place of their answer in answer order
    /// ([`Endpoint::answered`]), trace id, whether they have a profile),
    /// oldest first: the order a client read them in, not the order their
    /// workers settled them in.
    history: VecDeque<(u64, u64, bool)>,
}

/// What the table holds of one request.
enum Entry {
    /// Admitted, not yet popped by a worker.
    Queued(CancelFlag),
    /// In `serve_one`, on a worker or on the intake.
    Serving(CancelFlag),
    /// Answered, or shed.
    Settled(Settled),
}

/// What a request settles with: one record of it.
#[derive(Default)]
struct Settled {
    /// Its cost profile; none if it was shed or its evaluation panicked.
    profile: Option<CostProfile>,
    /// Its trace, in span-id order ([`TraceGuard::finish`]).
    events: Vec<SpanEvent>,
}

impl Requests {
    fn lock(&self) -> MutexGuard<'_, RequestTable> {
        obs::unpoisoned(self.table.lock(), POISONED)
    }

    /// Cancel a request that has not settled; whether there was one.
    fn cancel(&self, trace_id: u64) -> bool {
        match self.lock().entries.get(&trace_id) {
            Some(Entry::Queued(flag) | Entry::Serving(flag)) => {
                flag.cancel();
                true
            }
            _ => false,
        }
    }

    /// Mark a request as being served until the returned guard drops;
    /// it answers through `endpoint`.
    fn serve(&self, trace_id: u64, cancel: CancelFlag, endpoint: Endpoint) -> Serving<'_> {
        self.lock().entries.insert(trace_id, Entry::Serving(cancel));
        Serving {
            requests: self,
            trace_id,
            endpoint,
            settled: Settled::default(),
        }
    }

    /// The table once `trace_id` is not being served, so that a
    /// `Trace`/`Profile` reply holds the request's whole span tree and its
    /// profile. A client that has read the terminal frame waits
    /// microseconds; `bound` keeps a worker stalled on a slow client from
    /// wedging the intake (and with it the client's sending thread).
    fn fence(&self, trace_id: u64, bound: Duration) -> MutexGuard<'_, RequestTable> {
        let deadline = Instant::now() + bound;
        let mut table = self.lock();
        while let Some(Entry::Serving(_)) = table.entries.get(&trace_id) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            table = obs::unpoisoned(self.settled.wait_timeout(table, deadline - now), POISONED).0;
        }
        table
    }
}

impl RequestTable {
    fn settle(&mut self, trace_id: u64, answered: u64, settled: Settled) {
        let profiled = settled.profile.is_some();
        self.entries.insert(trace_id, Entry::Settled(settled));
        let at = self.history.partition_point(|h| h.0 < answered);
        self.history.insert(at, (answered, trace_id, profiled));
        let mut alike = (0..self.history.len()).filter(|&i| self.history[i].2 == profiled);
        let oldest = alike.next().expect("the entry just settled");
        if alike.count() >= PROFILE_HISTORY {
            let (_, oldest, _) = self.history.remove(oldest).expect("in the history");
            // A live entry under the oldest id is a reused request id.
            if let Some(Entry::Settled(_)) = self.entries.get(&oldest) {
                self.entries.remove(&oldest);
            }
        }
    }

    /// The settled request `trace_id` names, with its id; 0 names the
    /// profiled request answered last, for `Trace` and `Profile` alike.
    fn settled(&self, trace_id: u64) -> Option<(u64, &Settled)> {
        let settled = |id| match self.entries.get(&id) {
            Some(Entry::Settled(settled)) => Some((id, settled)),
            _ => None,
        };
        match trace_id {
            0 => self
                .history
                .iter()
                .rev()
                .filter_map(|&(_, id, _)| settled(id))
                .find(|(_, s)| s.profile.is_some()),
            id => settled(id),
        }
    }
}

/// A request being answered (in `serve_one`, or shed): entered before any
/// answer frame leaves, and `settled` at its answer's place when the
/// guard drops, after the request's trace and latency sample —
/// **including** when the evaluation panics, so a poison query never
/// leaves a stuck fence or a live cancel flag.
struct Serving<'a> {
    requests: &'a Requests,
    trace_id: u64,
    /// What answers the request: it notes the answer's place.
    endpoint: Endpoint,
    settled: Settled,
}

impl Drop for Serving<'_> {
    fn drop(&mut self) {
        let answered = self.endpoint.answered();
        let settled = std::mem::take(&mut self.settled);
        self.requests
            .lock()
            .settle(self.trace_id, answered, settled);
        self.requests.settled.notify_all();
    }
}

struct Job {
    conn: u64,
    endpoint: Endpoint,
    request: Request,
    admitted: Admitted,
    /// Flipped by a later `Cancel` frame on the same connection; the
    /// worker observes it at every evaluation checkpoint.
    cancel: CancelFlag,
}

/// How the intake admitted a request: where its trace begins.
#[derive(Clone, Copy)]
struct Admitted {
    /// End-to-end trace id minted at admission: `(conn << 32) | request_id`.
    trace_id: u64,
    class: Class,
    at: Instant,
    /// Requests queued when it was admitted.
    queue_depth: usize,
}

impl Admitted {
    /// Begin the request's trace on this thread with the
    /// `admission.enqueue` instant, at the time of the admission. Returns
    /// the trace, that time ([`now_ns`]) and how long ago it was, in ns.
    fn begin_trace(&self) -> (TraceGuard, u64, u64) {
        let trace = obs::trace::begin(self.trace_id);
        let waited = self.at.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let at = now_ns().saturating_sub(waited);
        obs::trace::instant_event(
            "admission.enqueue",
            at,
            &[
                ("class", self.class.label()),
                ("queue_depth", &self.queue_depth.to_string()),
            ],
        );
        (trace, at, waited)
    }

    /// Refuse request `id`: answer `Shed { queue_depth }` on `ep` and
    /// settle the request without a profile, its trace holding its
    /// admission and the instant `why` with `args`.
    fn shed(
        &self,
        shared: &Shared,
        ep: &Endpoint,
        id: u64,
        queue_depth: u32,
        why: &str,
        args: &[(&str, &str)],
    ) {
        let ep = ep.stamping();
        let mut serving = shared
            .requests
            .serve(self.trace_id, CancelFlag::new(), ep.clone());
        let (trace, _, _) = self.begin_trace();
        obs::trace::instant_event(why, now_ns(), args);
        let _ = ep.send_response(&Response {
            id,
            body: ResponseBody::Shed { queue_depth },
        });
        serving.settled.events = trace.finish();
    }
}

/// The trace id a request's spans are filed under — stable across the
/// intake that admits it and the worker that serves it, and
/// computable client-side for "why was request R slow" lookups.
pub fn trace_id_for(conn: u64, request_id: u64) -> u64 {
    (conn << 32) | (request_id & 0xFFFF_FFFF)
}

struct Shared {
    /// The cell-partitioned framework shards plus the scatter-gather
    /// router over them (per-shard `RwLock`s live inside).
    shards: ShardedSpate,
    cache: Arc<EpochCache>,
    queue: AdmissionQueue<Job>,
    config: ServeConfig,
    stats: ServeCounts,
    /// Every open connection, from `connect` until its intake ends.
    sessions: Mutex<HashMap<u64, Session>>,
    /// Pre-resolved labeled latency series — workers record without
    /// re-interning (`serve.latency_us{class="..."}`).
    lat_interactive: Arc<Histogram>,
    lat_scan: Arc<Histogram>,
    /// θ-rarity self-monitoring over the metric registry.
    monitor: Mutex<MetaMonitor>,
    /// Every request queued or being served, and the last ones settled.
    requests: Requests,
}

/// What the server keeps of one open connection.
struct Session {
    /// The server's end, closed on shutdown to hang up on the client.
    endpoint: Endpoint,
    /// The last window served, for prefetch containment.
    window: Option<(u32, u32)>,
}

impl Shared {
    /// The last window connection `conn` was served, if any.
    fn session_window(&self, conn: u64) -> Option<(u32, u32)> {
        obs::unpoisoned(self.sessions.lock(), POISONED)
            .get(&conn)?
            .window
    }

    /// Make `window` connection `conn`'s last served window and return
    /// the one before. A connection that has ended keeps no session.
    fn swap_session_window(&self, conn: u64, window: (u32, u32)) -> Option<(u32, u32)> {
        obs::unpoisoned(self.sessions.lock(), POISONED)
            .get_mut(&conn)?
            .window
            .replace(window)
    }
}

/// The serving tier: worker pool + admission queue + shared cache around
/// one `SpateFramework`.
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Connection ids are allocated process-wide, not per server: trace ids
/// embed the conn id, so no two servers in one process (tests) mint the
/// same trace id, and a trace id names one request of the process.
static NEXT_CONN: AtomicU64 = AtomicU64::new(0);

impl Server {
    /// Take ownership of a framework and start serving. Equivalent to
    /// [`Server::start_sharded`] with a single shard — every test and
    /// caller written against the unsharded server behaves identically.
    pub fn start(fw: SpateFramework, config: ServeConfig) -> Self {
        Self::start_sharded(ShardedSpate::new(vec![fw]), config)
    }

    /// Take ownership of a sharded framework and start serving. The
    /// cache invalidator is registered on every shard before the facade
    /// becomes shared, so no mutation can ever slip past the cache.
    pub fn start_sharded(mut shards: ShardedSpate, config: ServeConfig) -> Self {
        let cache = Arc::new(EpochCache::new(config.cache_epochs));
        shards.add_observer(Arc::new(CacheInvalidator(cache.clone())));
        let shared = Arc::new(Shared {
            shards,
            cache,
            queue: AdmissionQueue::new(INTERACTIVE_DEPTH, SCAN_DEPTH),
            stats: ServeCounts::default(),
            sessions: Mutex::new(HashMap::new()),
            lat_interactive: obs::histogram_labeled(
                "serve.latency_us",
                &[("class", "interactive")],
            ),
            lat_scan: obs::histogram_labeled("serve.latency_us", &[("class", "scan")]),
            monitor: Mutex::new(MetaMonitor::default()),
            requests: Requests::default(),
            config: config.clone(),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                // Self-healing worker: request evaluation is individually
                // panic-isolated inside `serve_one`, and anything that
                // still escapes (pool plumbing itself) lands here, where
                // the loop restarts instead of silently shrinking the
                // pool one panic at a time.
                std::thread::spawn(move || loop {
                    match catch_unwind(AssertUnwindSafe(|| worker_loop(&shared))) {
                        Ok(()) => break, // queue closed: clean shutdown
                        Err(_) => {
                            shared.stats.worker_respawns.inc();
                        }
                    }
                })
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Accept a new client connection; returns the client's endpoint
    /// wrapper. The connection's `Intake` takes its request bytes by
    /// loopback delivery: no thread per connection.
    pub fn connect(&self) -> ClientConn {
        let (client_ep, server_ep) = duplex();
        let conn = NEXT_CONN.fetch_add(1, Ordering::Relaxed) + 1;
        obs::unpoisoned(self.shared.sessions.lock(), POISONED).insert(
            conn,
            Session {
                endpoint: server_ep.clone(),
                window: None,
            },
        );
        server_ep.deliver_to(Box::new(Intake {
            conn,
            state: Mutex::new(IntakeState {
                pending: Vec::new(),
                live: Some((self.shared.clone(), server_ep.clone())),
            }),
        }));
        ClientConn {
            ep: client_ep,
            conn_id: conn,
            next_id: 0,
        }
    }

    /// Operator-side ingest: the snapshot is split by cell and ingested
    /// into every shard in parallel, each shard exclusively locked for
    /// its own sub-snapshot; the cache invalidation hooks fire inside.
    pub fn ingest(&self, snapshot: &Snapshot) -> IngestStats {
        self.shared.shards.ingest(snapshot)
    }

    /// Operator-side decay pass at a given "now", run on every shard in
    /// parallel; evicted epochs drop out of the shared cache before any
    /// reader can run again.
    pub fn run_decay(&self, now: EpochId) -> DecayReport {
        self.shared.shards.run_decay(now)
    }

    /// Current staleness version of the owned framework facade (the sum
    /// of per-shard versions: any shard mutation changes it).
    pub fn version(&self) -> u64 {
        self.shared.shards.version()
    }

    /// Number of framework shards behind this server.
    pub fn n_shards(&self) -> usize {
        self.shared.shards.n_shards()
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    pub fn stats(&self) -> ServeStats {
        self.shared.stats.snapshot()
    }

    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Requests admitted so far (queued or answered on the intake,
    /// [`AdmissionQueue::admitted`]) and requests refused at admission
    /// ([`ServeStats::shed_overflow`]).
    pub fn admission_totals(&self) -> (u64, u64) {
        (
            self.shared.queue.admitted(),
            self.shared.stats.shed_overflow.get(),
        )
    }

    /// Advance the meta-highlights monitor one window: sample every
    /// telemetry stream, feed the θ-rarity tables, return what fired.
    /// The operator drives the monitor; deterministic harnesses call this
    /// at barrier points.
    pub fn monitor_tick(&self) -> Vec<AnomalyRecord> {
        obs::unpoisoned(self.shared.monitor.lock(), POISONED).tick(obs::global())
    }

    /// Monitor counters so far (ticks, anomalies, deterministic subset).
    pub fn meta_summary(&self) -> MetaSummary {
        obs::unpoisoned(self.shared.monitor.lock(), POISONED).summary()
    }

    /// Recent anomaly records, oldest first (bounded history).
    pub fn anomalies(&self) -> Vec<AnomalyRecord> {
        obs::unpoisoned(self.shared.monitor.lock(), POISONED).recent()
    }

    /// The traces of the requests the server still holds settled (the
    /// last 64 answered with a cost profile, and the last 64 without), in
    /// answer order, each in span-id order.
    pub fn traces(&self) -> Vec<SpanEvent> {
        let table = self.shared.requests.lock();
        let settled = table.history.iter().filter_map(|h| table.settled(h.1));
        settled.flat_map(|(_, s)| s.events.clone()).collect()
    }

    /// Graceful shutdown: stop admitting, drain queued work, join the
    /// pool, hang up every connection. Returns the final stats.
    pub fn shutdown(self) -> ServeStats {
        self.shared.queue.close();
        for w in obs::unpoisoned(self.workers.lock(), POISONED).drain(..) {
            let _ = w.join();
        }
        // Closing ends each intake, which forgets its session: the lock
        // is not held meanwhile.
        let open: Vec<Session> = obs::unpoisoned(self.shared.sessions.lock(), POISONED)
            .drain()
            .map(|(_, session)| session)
            .collect();
        for session in open {
            session.endpoint.close_both();
        }
        self.stats()
    }
}

// ------------------------------------------------------------- intake side

fn classify(body: &RequestBody) -> Class {
    if body.window_len() > INTERACTIVE_MAX_WINDOW {
        Class::Scan
    } else {
        Class::Interactive
    }
}

/// The server's end of one connection's request stream: reassembles
/// frames from the bytes the client writes and admits each request.
///
/// It runs by loopback delivery ([`ByteSink`]), on the thread of the
/// client that wrote the bytes, so a queued request reaches its worker
/// across one thread boundary and a warm one it answers itself crosses
/// none. It never waits on a worker or on room in a pipe (its own
/// answers are written with [`Endpoint::send_response_now`] or through
/// [`Endpoint::never_waiting`]), which is what keeps control frames and
/// cancels working while the pool is saturated and lets it run on a
/// thread that is not the server's. A warm explore holds the intake for
/// as long as it evaluates, a bounded time (see `warm`): a frame another
/// thread sends on the same connection meanwhile waits that long.
struct Intake {
    conn: u64,
    state: Mutex<IntakeState>,
}

struct IntakeState {
    /// Bytes of a frame that has not arrived whole yet.
    pending: Vec<u8>,
    /// The server and the reply endpoint, until the stream ends (hang-up
    /// or a malformed frame); dropping them then also undoes the cycle
    /// pipe -> intake -> endpoint -> pipe.
    live: Option<(Arc<Shared>, Endpoint)>,
}

impl IntakeState {
    /// End the stream: the server forgets the connection's session, and
    /// the intake its handles. Returns them for a last word.
    fn end(&mut self, conn: u64) -> Option<(Arc<Shared>, Endpoint)> {
        let live = self.live.take()?;
        obs::unpoisoned(live.0.sessions.lock(), POISONED).remove(&conn);
        Some(live)
    }
}

impl ByteSink for Intake {
    fn on_bytes(&self, bytes: &[u8]) {
        let mut st = obs::unpoisoned(self.state.lock(), POISONED);
        let IntakeState { pending, live } = &mut *st;
        let Some((shared, ep)) = live.as_ref() else {
            return;
        };
        // The common case is whole frames in one write: parse them where
        // they lie, and keep only what is left over.
        let direct = pending.is_empty();
        if !direct {
            pending.extend_from_slice(bytes);
        }
        let stream: &[u8] = if direct { bytes } else { pending };
        let mut used = 0;
        let outcome = loop {
            match parse_frame(&stream[used..]) {
                Ok((kind, payload, len)) => {
                    used += len;
                    match Request::decode(kind, payload) {
                        Ok(request) => admit(shared, self.conn, ep, request),
                        Err(e) => break Err(e),
                    }
                }
                // Not a whole frame yet: the rest comes with a later write.
                Err(ProtoError::Truncated) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        match outcome {
            Ok(()) if direct => pending.extend_from_slice(&bytes[used..]),
            Ok(()) => drop(pending.drain(..used)),
            Err(e) => {
                reject_stream(shared, ep, &e);
                st.end(self.conn);
            }
        }
    }

    fn on_close(&self) {
        let mut st = obs::unpoisoned(self.state.lock(), POISONED);
        if let Some((shared, ep)) = st.end(self.conn) {
            // A hang-up inside a frame is a truncation; at a frame
            // boundary it is a clean goodbye.
            if !st.pending.is_empty() {
                reject_stream(&shared, &ep, &ProtoError::Truncated);
            }
        }
    }
}

/// A malformed frame poisons the byte stream (the next frame boundary
/// can no longer be found): report it and drop the connection rather
/// than guessing.
fn reject_stream(shared: &Shared, ep: &Endpoint, e: &ProtoError) {
    shared.stats.protocol_errors.inc();
    let _ = ep.send_response_now(&Response {
        id: 0,
        body: ResponseBody::Error {
            code: errcode::BAD_REQUEST,
            message: e.to_string(),
        },
    });
    ep.close();
}

/// Route one decoded request: cancels, control frames and warm
/// interactive explores are answered in place, everything else queues
/// for a worker.
fn admit(shared: &Shared, conn: u64, ep: &Endpoint, request: Request) {
    // Cancellation is fire-and-forget: flip the target's flag if it is
    // still pending on this connection and move on — no reply frame, and
    // the cancelled request itself still terminates normally (typically
    // with a Partial answer).
    if let RequestBody::Cancel { target } = &request.body {
        if shared.requests.cancel(trace_id_for(conn, *target)) {
            obs::inc("serve.cancel.delivered");
        } else {
            obs::inc("serve.cancel.unknown");
        }
        return;
    }
    // Control-plane frames are answered right here: they never queue, so
    // introspection works even while the admission queue is shedding.
    if request.body.is_control() {
        let _ = answer_control(shared, ep, &request);
        return;
    }
    let id = request.id;
    let admitted = Admitted {
        trace_id: trace_id_for(conn, id),
        class: classify(&request.body),
        at: Instant::now(),
        queue_depth: shared.queue.depth(),
    };
    if admitted.class == Class::Interactive
        && warm(shared, conn, ep, &request.body)
        && shared.queue.admit_inline(admitted.class)
    {
        // No Cancel can reach it: the intake is busy with it until the
        // answer is written. `serve_one` enters it in the table.
        let job = Job {
            conn,
            endpoint: ep.never_waiting(),
            request,
            admitted,
            cancel: CancelFlag::new(),
        };
        serve_inline(shared, job);
        return;
    }
    // Entered before the job can be popped, so a Cancel racing the
    // worker still lands.
    let cancel = CancelFlag::new();
    let queued = Entry::Queued(cancel.clone());
    shared
        .requests
        .lock()
        .entries
        .insert(admitted.trace_id, queued);
    let job = Job {
        conn,
        endpoint: ep.clone(),
        request,
        admitted,
        cancel,
    };
    if let Err(shed) = shared.queue.push(conn, admitted.class, job) {
        shared.stats.shed_overflow.inc();
        let depth = shed.queue_depth.to_string();
        let why = "admission.shed_overflow";
        let ep = ep.never_waiting();
        admitted.shed(
            shared,
            &ep,
            id,
            shed.queue_depth,
            why,
            &[("queue_depth", &depth)],
        );
    }
}

/// Whether the intake may answer an interactive request itself, now:
/// the request is an explore, its window and the epochs [`prefetch`]
/// would load after it ([`lookahead`]) are all cached, and no answer on
/// this connection waits to be read. The caller then also needs the
/// interactive class's queue to be empty
/// ([`AdmissionQueue::admit_inline`]), so the request overtakes no one.
///
/// Such a request costs what a worker's evaluation of it costs: at most
/// [`INTERACTIVE_MAX_WINDOW`] cached epochs filtered and framed, with no
/// read. Everything else queues: SQL (a join's cost is not bounded by
/// its window's rows), scans, and cold or decayed windows. A chaos stall
/// stands for slow storage, so it is never warm, and the chaos drills'
/// cancels need it in flight. The empty reply pipe bounds what an answer
/// written without waiting for room can add to it: one interactive
/// answer. An epoch an ingest invalidates after this check is loaded in
/// place, as a worker would; the answer stays exact.
fn warm(shared: &Shared, conn: u64, ep: &Endpoint, body: &RequestBody) -> bool {
    let RequestBody::Explore {
        attributes, window, ..
    } = body
    else {
        return false;
    };
    if shared.config.chaos_poison && attributes.iter().any(|a| a == CHAOS_STALL_ATTRIBUTE) {
        return false;
    }
    if window.0 > window.1 || ep.unread_sent() > 0 {
        return false;
    }
    let cached = |e| shared.cache.contains(EpochId(e));
    if !(window.0..=window.1).all(cached) {
        return false;
    }
    if !shared.config.prefetch || zoom_in(shared.session_window(conn), *window) {
        return true;
    }
    // While an ingest holds shard 0, the request queues rather than wait
    // for it here: on a worker, only its prefetch would wait.
    match shared
        .shards
        .try_read(0)
        .map(|shard| shard.index().last_epoch())
    {
        Some(Some(last)) => lookahead(*window, last).all(cached),
        Some(None) => true,
        None => false,
    }
}

/// Serve a warm request on the intake's thread (see [`warm`]). It is the
/// worker's [`serve_one`], run inside an empty request context: the
/// sending thread's spans, trace, budget and cost profile neither wrap
/// the request nor absorb it, and are back when it returns, panic or not.
fn serve_inline(shared: &Shared, job: Job) {
    obs::inc("serve.inline");
    let _apart = obs::context::Context::default().enter();
    serve_one(shared, job);
}

// ------------------------------------------------------------- worker side

fn worker_loop(shared: &Shared) {
    while let Some((_client, _class, job)) = shared.queue.pop() {
        if job.admitted.at.elapsed() > shared.config.queue_deadline {
            shared.stats.shed_deadline.inc();
            let depth = shared.queue.depth() as u32;
            let why = "admission.shed_deadline";
            job.admitted
                .shed(shared, &job.endpoint, job.request.id, depth, why, &[]);
            continue;
        }
        serve_one(shared, job);
    }
}

fn serve_one(shared: &Shared, job: Job) {
    // Mark the request as being served before any frame leaves. The
    // terminal frame is sent inside dispatch, *before* the span guard
    // drops; the entry settles after it, so the intake's `Trace`/`Profile`
    // fence (`Requests::fence`) gives clients a real guarantee instead of
    // a race.
    let Admitted {
        trace_id,
        class,
        at,
        ..
    } = job.admitted;
    let ep = job.endpoint.stamping();
    let mut serving = shared
        .requests
        .serve(trace_id, job.cancel.clone(), ep.clone());
    let t0 = Instant::now();
    // Begin the trace minted at admission: every span and event on this
    // thread until it finishes files under the request. A request
    // answered on the intake files its admission and its (empty)
    // `admission.wait` too: a trace has one shape whichever thread served
    // it.
    let (trace, admitted_ns, waited_ns) = job.admitted.begin_trace();
    // The queue wait was measured by timestamps; file it as an
    // already-closed root span so the tree answers "how long did R sit in
    // admission" next to "how long did R evaluate".
    obs::trace::span_event(
        "admission.wait",
        admitted_ns,
        waited_ns,
        &[("class", class.label())],
    );
    {
        let _span = obs::span("serve.request");
        let id = job.request.id;
        // Counted before the answer streams so a client that saw its
        // reply and immediately asks for Stats reads its own request in
        // the count.
        shared.stats.queries.inc();
        // The end-to-end budget runs from *admission*, not from pop:
        // queue wait spends a request's deadline exactly like evaluation
        // does. `deadline_ms == 0` means no deadline.
        let deadline = job
            .request
            .body
            .deadline_ms()
            .filter(|&ms| ms > 0)
            .map(|ms| at + Duration::from_millis(ms));
        let _budget = obs::budget::begin(deadline, job.cancel.clone());
        // Evaluation is panic-isolated: a poison query ends as an Error
        // terminal frame on its own connection; the worker, the shared
        // locks and every other request keep going.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Account every byte/row/epoch this request costs; the
            // finished profile settles in the table for the Profile frame.
            let cost = obs::cost::begin(trace_id);
            let sent = match &job.request.body {
                RequestBody::Explore {
                    attributes,
                    bbox,
                    window,
                    ..
                } => serve_explore(shared, &ep, id, job.conn, attributes, *bbox, *window),
                RequestBody::Sql { window, sql, .. } => serve_sql(shared, &ep, id, *window, sql),
                RequestBody::Stats
                | RequestBody::Trace { .. }
                | RequestBody::Profile { .. }
                | RequestBody::Cancel { .. } => {
                    unreachable!("control frames are answered on the intake")
                }
            };
            // A send error means the client vanished mid-answer; nothing
            // to do.
            let _ = sent;
            cost.finish()
        }));
        if let Ok(profile) = outcome {
            serving.settled.profile = Some(profile);
        } else {
            shared.stats.panics.inc();
            obs::trace::instant_event("serve.panic_isolated", now_ns(), &[]);
            let _ = ep.send_response(&Response {
                id,
                body: ResponseBody::Error {
                    code: errcode::INTERNAL,
                    message: "internal error: query evaluation panicked (isolated)".into(),
                },
            });
        }
        // File how the budget ended while the guard is still installed.
        match obs::budget::interrupted() {
            Some(Interrupt::Cancelled) => shared.stats.cancelled.inc(),
            Some(Interrupt::DeadlineExceeded) => shared.stats.deadline_expired.inc(),
            None => {}
        }
        // `_span` closes here, before the trace finishes.
    }
    serving.settled.events = trace.finish();
    let micros = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    match class {
        Class::Interactive => shared.lat_interactive.record(micros),
        Class::Scan => shared.lat_scan.record(micros),
    }
    // Every served request counts against the latency SLO budget; the
    // telemetry recorder samples the resulting burn rate per window.
    obs::slo::global().record(micros);
    // `serving` drops last: the fence releases only after the trace, the
    // profile and the latency sample have all landed.
}

/// Answer an introspection frame in place (on the intake, no admission).
fn answer_control(shared: &Shared, ep: &Endpoint, request: &Request) -> Result<(), TransportError> {
    let body = match &request.body {
        RequestBody::Stats => {
            let (qi, qs) = shared.queue.depths();
            let cache = shared.cache.stats();
            let (summary, recent) = {
                let m = obs::unpoisoned(shared.monitor.lock(), POISONED);
                (m.summary(), m.recent())
            };
            let anomalies = recent
                .into_iter()
                .map(|a| AnomalyWire {
                    tick: a.tick,
                    stream: a.stream.to_string(),
                    category: a.category,
                    share_milli: (a.share * 1000.0).round().min(f64::from(u32::MAX)) as u32,
                    deterministic: a.kind == spate_core::StreamKind::Deterministic,
                })
                .collect();
            let counters = obs::global()
                .counters_snapshot()
                .into_iter()
                .map(|(id, c)| (id.to_string(), c.get()))
                .collect();
            // Per-shard DFS breaker telemetry, aggregated for the frame
            // and published as gauges so the metrics export shows
            // open breakers without a debugger attached.
            let mut breaker = dfs::breaker::BreakerStatsSnapshot::default();
            let mut breaker_nodes: Vec<(u32, u32, u8)> = Vec::new();
            let mut open_nodes = 0u32;
            for shard in 0..shared.shards.n_shards() {
                let g = shared.shards.read(shard);
                let d = g.store().dfs();
                let s = d.breaker_stats();
                breaker.trips += s.trips;
                breaker.probes += s.probes;
                breaker.recoveries += s.recoveries;
                breaker.reopens += s.reopens;
                breaker.skipped += s.skipped;
                for dn in 0..d.config().n_datanodes {
                    let state = match d.breaker_state(dn) {
                        BreakerState::Closed => 0u8,
                        BreakerState::HalfOpen => 1,
                        BreakerState::Open => 2,
                    };
                    if state == 2 {
                        open_nodes += 1;
                    }
                    breaker_nodes.push((shard as u32, dn as u32, state));
                }
            }
            obs::gauge_set("dfs.breaker.open_nodes", i64::from(open_nodes));
            // Per-shard breakdown: `shard_stats` also refreshes the
            // `spate.shard.*` gauges the skew monitor and the recorder
            // read, so a Stats poll keeps the shard telemetry fresh.
            let shard_stats = shared
                .shards
                .shard_stats()
                .into_iter()
                .map(|st| crate::proto::ShardStatWire {
                    shard: st.shard,
                    bytes: st.bytes,
                    leaves: st.leaves,
                    queries: st.queries,
                    version: st.version,
                })
                .collect();
            let s = shared.stats.snapshot();
            ResponseBody::Stats(StatsFrame {
                queries: s.queries,
                rows_streamed: s.rows_streamed,
                shed_overflow: s.shed_overflow,
                shed_deadline: s.shed_deadline,
                protocol_errors: s.protocol_errors,
                queue_interactive: qi as u32,
                queue_scan: qs as u32,
                cache_hits: cache.hits,
                cache_misses: cache.misses,
                cache_evictions: cache.evictions,
                cache_invalidations: cache.invalidations,
                meta_ticks: summary.ticks,
                anomalies_total: summary.anomalies_total,
                anomalies_deterministic: summary.anomalies_deterministic,
                anomalies,
                counters,
                breaker_trips: breaker.trips,
                breaker_probes: breaker.probes,
                breaker_recoveries: breaker.recoveries,
                breaker_reopens: breaker.reopens,
                breaker_skipped: breaker.skipped,
                breaker_nodes,
                shard_stats,
            })
        }
        // Both answer from the request's one record. Id 0 resolves to the
        // profiled request answered last, settled and so consistent by
        // definition (and no request has trace id 0, so the fence does not
        // wait for it); a specific id fences first. A request not (or no
        // longer) settled answers with its own id and nothing else;
        // nothing settled yet answers 0.
        RequestBody::Trace { trace_id } => {
            let table = shared.requests.fence(*trace_id, FENCE);
            let settled = table.settled(*trace_id);
            let events = settled.map_or(&[][..], |(_, s)| &s.events);
            ResponseBody::Trace(TraceFrame {
                trace_id: settled.map_or(*trace_id, |(id, _)| id),
                spans: events.iter().map(span_wire).collect(),
            })
        }
        RequestBody::Profile { trace_id } => {
            let table = shared.requests.fence(*trace_id, FENCE);
            let profile = table
                .settled(*trace_id)
                .and_then(|(_, s)| s.profile.as_ref());
            ResponseBody::Profile(ProfileFrame {
                trace_id: profile.map_or(*trace_id, |p| p.trace_id),
                metrics: profile.map(CostProfile::rows).unwrap_or_default(),
            })
        }
        _ => unreachable!("answer_control is only called for control frames"),
    };
    ep.send_response_now(&Response {
        id: request.id,
        body,
    })
}

/// One trace event as a `Trace` frame carries it.
fn span_wire(e: &SpanEvent) -> SpanWire {
    SpanWire {
        span_id: e.span_id,
        parent_id: e.parent_id,
        name: e.name.clone(),
        start_us: e.start_ns / 1_000,
        dur_us: e.dur_ns / 1_000,
        instant: e.kind == EventKind::Instant,
        args: e.args.clone(),
    }
}

fn serve_explore(
    shared: &Shared,
    ep: &Endpoint,
    id: u64,
    conn: u64,
    attributes: &[String],
    bbox: (f64, f64, f64, f64),
    window: (u32, u32),
) -> Result<(), TransportError> {
    if window.0 > window.1 || bbox.0 > bbox.2 || bbox.1 > bbox.3 {
        return send_error(ep, id, errcode::BAD_REQUEST, "inverted window or bbox");
    }
    // Chaos-drill poison query: panic inside evaluation, on purpose,
    // to prove the worker's isolation boundary holds. Gated off by
    // default; `CHAOS_PANIC_ATTRIBUTE` is otherwise an ordinary
    // (unknown, hence empty) attribute name.
    if shared.config.chaos_poison && attributes.iter().any(|a| a == CHAOS_PANIC_ATTRIBUTE) {
        panic!("chaos drill: poison query requested a worker panic");
    }
    // Chaos-drill stall: model a slow storage tier under the evaluation,
    // so a small nonzero deadline has deterministically expired by the
    // first per-epoch checkpoint.
    if shared.config.chaos_poison && attributes.iter().any(|a| a == CHAOS_STALL_ATTRIBUTE) {
        std::thread::sleep(CHAOS_STALL);
    }
    let attrs: Vec<&str> = attributes.iter().map(String::as_str).collect();
    let q = Query::new(&attrs, BoundingBox::new(bbox.0, bbox.1, bbox.2, bbox.3))
        .with_epoch_range(window.0, window.1);
    // Recorded before the answer leaves: the client's next request, sent
    // as soon as this answer is read, must find it (see `warm`).
    let previous = if shared.config.prefetch {
        shared.swap_session_window(conn, window)
    } else {
        None
    };
    // Plan under the primary shard's read guard only; the guard drops
    // before any row leaves, and each epoch re-acquires guards for just
    // its own load — a slow client never blocks ingest/decay, and a
    // scan never pins a shard it isn't reading this instant.
    let _eval_span = obs::span("serve.evaluate");
    let traced = obs::trace::current().is_some();
    let sent = match shared.shards.plan(&q) {
        Plan::Exact(epochs) => stream_epochs(shared, ep, id, &q, &epochs, |epoch| {
            resolve_epoch(shared, epoch, traced)
        }),
        Plan::Summary {
            resolution,
            highlights,
        } => send_summary(ep, id, resolution, &highlights),
        Plan::Unavailable => ep.send_response(&Response {
            id,
            body: ResponseBody::Unavailable,
        }),
    };
    if shared.config.prefetch {
        prefetch(shared, previous, window);
    }
    sent
}

/// A decayed window's answer: the digest and the terminal frame, in
/// one write.
fn send_summary(
    ep: &Endpoint,
    id: u64,
    resolution: Resolution,
    highlights: &Highlights,
) -> Result<(), TransportError> {
    let mut out = FrameBatch::new(ep);
    out.push(&Response {
        id,
        body: ResponseBody::Summary {
            resolution: resolution.label().to_string(),
            cdr_records: highlights.cdr_records,
            nms_records: highlights.nms_records,
            cells: highlights.per_cell.len() as u32,
        },
    })?;
    out.push(&Response {
        id,
        body: ResponseBody::Done { rows: 0 },
    })?;
    out.flush()
}

fn serve_sql(
    shared: &Shared,
    ep: &Endpoint,
    id: u64,
    window: (u32, u32),
    sql: &str,
) -> Result<(), TransportError> {
    if window.0 > window.1 {
        return send_error(ep, id, errcode::BAD_REQUEST, "inverted window");
    }
    // The statement reads the shared cache directly: each epoch of a scan
    // is resolved behind the budget checkpoint, and its rows are lent from
    // the cached `Arc<Snapshot>`. An interrupted request sees the epochs
    // left as unavailable, the same degraded (never wrong, only narrower)
    // answer the explore path gives, and is counted once.
    let cut_off = Cell::new(false);
    let (start, end) = (EpochId(window.0), EpochId(window.1));
    let traced = obs::trace::current().is_some();
    let context = SqlContext::over(
        shared.shards.layout(),
        start,
        end,
        |start, end, table, visit| {
            for epoch in (start.0..=end.0).map(EpochId) {
                if obs::budget::interrupted().is_some() {
                    cut_off.set(true);
                    return;
                }
                if let Some(snapshot) = resolve_epoch(shared, epoch, traced) {
                    lend_records(epoch, snapshot.table(table), visit);
                }
            }
        },
    );
    let outcome = {
        let _eval_span = obs::span("serve.evaluate");
        context.query(sql)
    };
    if cut_off.get() {
        obs::inc("serve.scan.interrupted");
    }
    match outcome {
        Ok(rs) => {
            let mut out = FrameBatch::new(ep);
            out.push(&Response {
                id,
                body: ResponseBody::Header {
                    tables: vec![TableHeader {
                        name: "RESULT".into(),
                        columns: rs.columns.clone(),
                    }],
                },
            })?;
            let total = out.push_rows(id, 0, &rs.rows)?;
            shared.stats.rows_streamed.add(total);
            out.push(&Response {
                id,
                body: ResponseBody::Done { rows: total },
            })?;
            out.flush()
        }
        Err(e) => send_error(ep, id, errcode::SQL, &e.to_string()),
    }
}

fn send_error(ep: &Endpoint, id: u64, code: u8, message: &str) -> Result<(), TransportError> {
    obs::inc("serve.request_errors");
    ep.send_response(&Response {
        id,
        body: ResponseBody::Error {
            code,
            message: message.to_string(),
        },
    })
}

/// Stream an exact window Volcano-style: header first, then the shared
/// exact-branch loop ([`run_exact`]) one epoch at a time. Reaching an
/// epoch is resolving its snapshot (`resolve`: [`resolve_epoch`], the
/// shared cache); emitting it is lending the snapshot's selected rows
/// ([`RowPlan::lend`]), CDR then NMS in record order, straight into row
/// chunk frames: no row is built, cloned or freed, and the serve tier
/// never holds more than one resolved epoch plus a [`FrameBatch`] of
/// encoded frames. Ends with an optional coverage report (only when
/// degraded) and the terminal `Done`.
fn stream_epochs(
    shared: &Shared,
    ep: &Endpoint,
    id: u64,
    q: &Query,
    epochs: &[EpochId],
    mut resolve: impl FnMut(EpochId) -> Option<Arc<Snapshot>>,
) -> Result<(), TransportError> {
    // Resolved once per request: the column names (known before any
    // epoch is read) and the row test every epoch goes through.
    let rows = RowPlan::new(q, shared.shards.layout());
    let mut out = FrameBatch::new(ep);
    let header = |table| TableHeader {
        name: TableKind::name(table).into(),
        columns: rows.column_names(table).to_vec(),
    };
    out.push(&Response {
        id,
        body: ResponseBody::Header {
            tables: vec![header(TableKind::Cdr), header(TableKind::Nms)],
        },
    })?;
    let mut total = 0u64;
    let reach = |epoch, cached: &mut Option<Arc<Snapshot>>| {
        *cached = resolve(epoch);
        cached.is_some()
    };
    let run = run_exact(epochs, &mut None, reach, |cached| {
        let snapshot = cached.take().expect("reach leaves the epoch it resolved");
        rows.lend(&snapshot, |table, lent| {
            let columns = rows.columns(table);
            let lent = lent.map(|record| Projected { record, columns });
            total += out.push_rows(id, wire_table(table), lent)?;
            Ok::<(), TransportError>(())
        })
    })?;
    if run.cut_off > 0 {
        obs::inc("serve.scan.interrupted");
        if obs::trace::current().is_some() {
            obs::trace::event(
                "budget.interrupted",
                &[("epochs_left", &run.cut_off.to_string())],
            );
        }
    }
    if !run.coverage.is_complete() {
        out.push(&Response {
            id,
            body: ResponseBody::Coverage {
                requested: run.coverage.requested,
                served: run.coverage.served,
                decayed: run.coverage.decayed,
                unavailable: run.coverage.unavailable,
            },
        })?;
    }
    shared.stats.rows_streamed.add(total);
    out.push(&Response {
        id,
        body: ResponseBody::Done { rows: total },
    })?;
    out.flush()
}

/// Warm the cache ahead of this session's window. The shared cache
/// already gives *containment* (a zoom-in re-uses the epochs its wider
/// window loaded); this adds *look-ahead*: after serving `[a, b]`, the
/// epochs just past `b` ([`lookahead`]) are decompressed into the shared
/// cache, betting on the pan-forward exploration pattern. Skipped when
/// the window is contained in the session's `previous` one ([`zoom_in`]:
/// the cache is already warm there).
fn prefetch(shared: &Shared, previous: Option<(u32, u32)>, window: (u32, u32)) {
    // Speculation never spends a request's remaining budget: a request
    // that was cancelled or ran out of deadline skips the warm-up.
    if obs::budget::interrupted().is_some() {
        return;
    }
    let _span = obs::span("serve.prefetch");
    // Speculative work: collect its cost into a throwaway profile so the
    // triggering request's EXPLAIN ANALYZE shows only its own bytes.
    let _cost = obs::cost::begin(0);
    if zoom_in(previous, window) {
        return;
    }
    // Every shard ingests every epoch, so shard 0's last epoch is the
    // facade's last epoch.
    let Some(last) = shared.shards.read(0).index().last_epoch() else {
        return;
    };
    for e in lookahead(window, last) {
        let epoch = EpochId(e);
        if shared.cache.get(epoch).is_none() && load_into_cache(shared, epoch).is_some() {
            obs::inc("serve.prefetch");
        }
    }
}

/// Whether `window` lies inside the session's `previous` one.
fn zoom_in(previous: Option<(u32, u32)>, window: (u32, u32)) -> bool {
    previous.is_some_and(|(a, b)| a <= window.0 && window.1 <= b)
}

/// The epochs [`prefetch`] visits after serving `window`, `last` being
/// the last ingested epoch: up to [`PREFETCH_LOOKAHEAD`] past the
/// window's end, no more than it holds, none past `last`. [`warm`] asks
/// for the same epochs.
fn lookahead(window: (u32, u32), last: EpochId) -> RangeInclusive<u32> {
    let len = u64::from(window.1.saturating_sub(window.0)) + 1;
    let ahead = u64::from(PREFETCH_LOOKAHEAD).min(len) as u32;
    window.1.saturating_add(1)..=window.1.saturating_add(ahead).min(last.0)
}

// -------------------------------------------------------------- evaluation

/// Load one epoch from every shard and cache it before any shard's guard
/// drops ([`ShardedSpate::load_epoch_merged_with`]): no decay pass evicts
/// it in between, the zero-stale-reads contract. `None`, and nothing
/// cached, when a shard no longer retains it. One load an epoch at a
/// time ([`EpochCache::load_once`]): a resolver or a prefetch that finds
/// the epoch being loaded waits for that load, holding no guard, instead
/// of reading its leaves again.
fn load_into_cache(shared: &Shared, epoch: EpochId) -> Option<Arc<Snapshot>> {
    let every_shard = 0..shared.shards.n_shards();
    shared.cache.load_once(epoch, || {
        shared
            .shards
            .load_epoch_merged_with(every_shard, epoch, |snapshot| {
                let arc = Arc::new(snapshot);
                shared.cache.insert(epoch, arc.clone());
                arc
            })
    })
}

/// Resolve one epoch for serving: shared cache first, guard-all shard
/// load on a miss. A hit takes no shard lock — the cache counts it
/// ([`EpochCache::get`]) and the request's cost profile records the
/// epoch — so a cached read never waits on an ingest or a decay pass.
fn resolve_epoch(shared: &Shared, epoch: EpochId, traced: bool) -> Option<Arc<Snapshot>> {
    if let Some(hit) = shared.cache.get(epoch) {
        obs::cost::touch_epoch(u64::from(epoch.0));
        if traced {
            obs::trace::event("cache.hit", &[("epoch", &epoch.0.to_string())]);
        }
        return Some(hit);
    }
    if traced {
        obs::trace::event("cache.miss", &[("epoch", &epoch.0.to_string())]);
    }
    load_into_cache(shared, epoch)
}

/// A table's index in an explore answer's header: CDR 0, NMS 1.
fn wire_table(table: TableKind) -> u8 {
    match table {
        TableKind::Cdr => 0,
        _ => 1,
    }
}

// ------------------------------------------------------------- client side

/// Client-side terminal outcome of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Exact (or partial, when `coverage` is set) rows, per table.
    Rows {
        tables: Vec<TableHeader>,
        /// Row chunks reassembled, indexed like `tables`.
        rows: Vec<Vec<Vec<telco_trace::record::Value>>>,
        coverage: Option<Coverage>,
        total_rows: u64,
    },
    /// Highlights digest of a decayed window.
    Summary {
        resolution: String,
        cdr_records: u64,
        nms_records: u64,
        cells: u32,
    },
    /// Load-shed; retry later.
    Shed {
        queue_depth: u32,
    },
    Unavailable,
    /// Server-side failure.
    ServerError {
        code: u8,
        message: String,
    },
    /// Live introspection snapshot (stats + meta-highlights anomalies).
    Stats(StatsFrame),
    /// One settled request's trace.
    Trace(TraceFrame),
    /// One request's cost profile (EXPLAIN ANALYZE over the wire).
    Profile(ProfileFrame),
}

impl Reply {
    pub fn is_shed(&self) -> bool {
        matches!(self, Reply::Shed { .. })
    }

    /// Exact rows carried (0 for summaries/sheds).
    pub fn total_rows(&self) -> u64 {
        match self {
            Reply::Rows { total_rows, .. } => *total_rows,
            _ => 0,
        }
    }
}

/// A client connection: synchronous request/reply over the duplex
/// channel. One request in flight at a time (the protocol supports
/// pipelining; this convenience wrapper doesn't need it).
pub struct ClientConn {
    ep: Endpoint,
    conn_id: u64,
    next_id: u64,
}

impl ClientConn {
    /// The server-assigned connection id (the high half of trace ids).
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// The trace id the server filed our most recent request under, or
    /// `None` before the first request. Feed it to [`ClientConn::trace`]
    /// to ask "why was that request slow".
    pub fn last_trace_id(&self) -> Option<u64> {
        (self.next_id > 0).then(|| trace_id_for(self.conn_id, self.next_id))
    }

    /// Fetch the server's live stats snapshot (answered on the reader
    /// thread — works even while the admission queue sheds).
    pub fn stats(&mut self) -> Result<StatsFrame, TransportError> {
        match self.roundtrip(RequestBody::Stats)? {
            Reply::Stats(frame) => Ok(frame),
            _ => Err(UNEXPECTED),
        }
    }

    /// Fetch one request's trace; `trace_id == 0` means "the most recently
    /// profiled request", the request [`ClientConn::profile`] names by 0.
    /// Unknown, unsettled and evicted ids answer with no events.
    pub fn trace(&mut self, trace_id: u64) -> Result<TraceFrame, TransportError> {
        match self.roundtrip(RequestBody::Trace { trace_id })? {
            Reply::Trace(frame) => Ok(frame),
            _ => Err(UNEXPECTED),
        }
    }

    /// Fetch one request's cost profile; `trace_id == 0` means "the most
    /// recently profiled request". Unknown/evicted ids answer with an
    /// empty metrics list.
    pub fn profile(&mut self, trace_id: u64) -> Result<ProfileFrame, TransportError> {
        match self.roundtrip(RequestBody::Profile { trace_id })? {
            Reply::Profile(frame) => Ok(frame),
            _ => Err(UNEXPECTED),
        }
    }

    /// Run an exploration query `Q(a, b, w)` with no deadline.
    pub fn explore(
        &mut self,
        attributes: &[&str],
        bbox: BoundingBox,
        window: (u32, u32),
    ) -> Result<Reply, TransportError> {
        self.explore_with_deadline(attributes, bbox, window, 0)
    }

    /// Run an exploration query under an end-to-end deadline measured
    /// from admission; `deadline_ms == 0` means no deadline. An expired
    /// deadline degrades the answer to a `Partial` with honest coverage
    /// rather than an error.
    pub fn explore_with_deadline(
        &mut self,
        attributes: &[&str],
        bbox: BoundingBox,
        window: (u32, u32),
        deadline_ms: u64,
    ) -> Result<Reply, TransportError> {
        let body = RequestBody::Explore {
            attributes: attributes.iter().map(|s| s.to_string()).collect(),
            bbox: (bbox.min_x, bbox.min_y, bbox.max_x, bbox.max_y),
            window,
            deadline_ms,
        };
        self.roundtrip(body)
    }

    /// Run a SPATE-SQL statement over a window, with no deadline.
    pub fn sql(&mut self, window: (u32, u32), sql: &str) -> Result<Reply, TransportError> {
        self.sql_with_deadline(window, sql, 0)
    }

    /// Run a SPATE-SQL statement under an end-to-end deadline (see
    /// [`ClientConn::explore_with_deadline`]).
    pub fn sql_with_deadline(
        &mut self,
        window: (u32, u32),
        sql: &str,
        deadline_ms: u64,
    ) -> Result<Reply, TransportError> {
        self.roundtrip(RequestBody::Sql {
            window,
            sql: sql.to_string(),
            deadline_ms,
        })
    }

    /// Send a request without waiting for its answer; returns the
    /// request id to pass to [`ClientConn::await_reply`]. This is how a
    /// caller gets a request in flight so that a [`ClientConn::cancel`]
    /// has something to interrupt. A warm interactive explore may already
    /// be answered when `send` returns: the server evaluated it on this
    /// thread, and a cancel then finds nothing left to interrupt.
    pub fn send(&mut self, body: RequestBody) -> Result<u64, TransportError> {
        self.next_id += 1;
        let id = self.next_id;
        self.ep.send_request(&Request { id, body })?;
        Ok(id)
    }

    /// Fire-and-forget cancellation of an earlier request by its id.
    /// There is no reply: the cancelled request still terminates through
    /// its ordinary terminal frame (typically `Partial` coverage). A
    /// target that already finished (or never existed) is a no-op.
    pub fn cancel(&mut self, target: u64) -> Result<(), TransportError> {
        self.next_id += 1;
        let id = self.next_id;
        self.ep.send_request(&Request {
            id,
            body: RequestBody::Cancel { target },
        })
    }

    /// Inject raw bytes into the server-bound stream (chaos drills:
    /// malformed frames, half-frames, garbage).
    pub fn send_raw(&self, bytes: &[u8]) -> Result<(), TransportError> {
        self.ep.send_bytes(bytes)
    }

    fn roundtrip(&mut self, body: RequestBody) -> Result<Reply, TransportError> {
        let id = self.send(body)?;
        self.await_reply(id)
    }

    /// The next response frame, of whichever request it answers, for a
    /// caller with several requests in flight. `Ok(None)` once the server
    /// hung up.
    pub fn recv_response(&self) -> Result<Option<Response>, TransportError> {
        self.ep.recv_response()
    }

    /// Collect frames until request `id`'s terminal frame arrives.
    pub fn await_reply(&mut self, id: u64) -> Result<Reply, TransportError> {
        let mut tables: Vec<TableHeader> = Vec::new();
        let mut rows: Vec<Vec<Vec<telco_trace::record::Value>>> = Vec::new();
        let mut coverage: Option<Coverage> = None;
        loop {
            let resp = self.ep.recv_response()?.ok_or(TransportError::Closed)?;
            if resp.id != id {
                // Not ours (stale frame from an aborted request); the
                // synchronous wrapper never has two in flight, so this
                // is a protocol violation.
                return Err(UNEXPECTED);
            }
            match resp.body {
                ResponseBody::Header { tables: t } => {
                    rows = t.iter().map(|_| Vec::new()).collect();
                    tables = t;
                }
                ResponseBody::RowChunk { table, rows: chunk } => {
                    if let Some(bucket) = rows.get_mut(table as usize) {
                        bucket.extend(chunk);
                    }
                }
                ResponseBody::Coverage {
                    requested,
                    served,
                    decayed,
                    unavailable,
                } => {
                    coverage = Some(Coverage {
                        requested,
                        served,
                        decayed,
                        unavailable,
                    });
                }
                ResponseBody::Summary {
                    resolution,
                    cdr_records,
                    nms_records,
                    cells,
                } => {
                    // This request's `Done` must follow: a close before it
                    // leaves the answer unfinished, any other frame breaks
                    // the protocol.
                    let done = self.ep.recv_response()?.ok_or(TransportError::Closed)?;
                    if done.id != id || !matches!(done.body, ResponseBody::Done { .. }) {
                        return Err(UNEXPECTED);
                    }
                    return Ok(Reply::Summary {
                        resolution,
                        cdr_records,
                        nms_records,
                        cells,
                    });
                }
                ResponseBody::Done { rows: total_rows } => {
                    return Ok(Reply::Rows {
                        tables,
                        rows,
                        coverage,
                        total_rows,
                    });
                }
                ResponseBody::Shed { queue_depth } => return Ok(Reply::Shed { queue_depth }),
                ResponseBody::Error { code, message } => {
                    return Ok(Reply::ServerError { code, message })
                }
                ResponseBody::Unavailable => return Ok(Reply::Unavailable),
                ResponseBody::Stats(frame) => return Ok(Reply::Stats(frame)),
                ResponseBody::Trace(frame) => return Ok(Reply::Trace(frame)),
                ResponseBody::Profile(frame) => return Ok(Reply::Profile(frame)),
            }
        }
    }

    /// Hang up. The server's intake for this connection ends.
    pub fn close(self) {
        self.ep.close();
    }
}

/// A frame the protocol does not allow where the client received it.
const UNEXPECTED: TransportError = TransportError::Proto(ProtoError::BadTag(0));

#[cfg(test)]
mod frame_cuts;
#[cfg(test)]
mod frame_identity;
#[cfg(test)]
mod frame_splits;

#[cfg(test)]
mod tests {
    use super::*;
    use spate_core::framework::ExplorationFramework;
    use std::collections::HashSet;
    use std::sync::mpsc;
    use telco_trace::schema::{Schema, TableKind};
    use telco_trace::{TraceConfig, TraceGenerator};

    fn server_over(scale: f64, epochs: usize, config: ServeConfig) -> Server {
        let mut generator = TraceGenerator::new(TraceConfig::scaled(scale).with_days(1));
        let mut fw = SpateFramework::in_memory(generator.layout().clone());
        for snapshot in generator.by_ref().take(epochs) {
            fw.ingest(&snapshot);
        }
        Server::start(fw, config)
    }

    fn stats_request(id: u64) -> Vec<u8> {
        Request {
            id,
            body: RequestBody::Stats,
        }
        .encode()
    }

    /// Two resolvers that miss one epoch at once read its leaf once, as
    /// one resolver alone does: held at the shard by an ingest's write
    /// guard until both have missed, the second waits for the first one's
    /// load and serves what it cached.
    #[test]
    fn two_resolvers_of_one_missing_epoch_read_its_leaf_once() {
        let server = server_over(1.0 / 2048.0, 4, ServeConfig::default());
        let shared = &*server.shared;
        let reads = |resolve: &dyn Fn() -> Vec<Option<Arc<Snapshot>>>| {
            let before = shared.shards.read(0).store().dfs().metrics().reads;
            let resolved = resolve();
            let after = shared.shards.read(0).store().dfs().metrics().reads;
            (after - before, resolved)
        };
        let (alone, _) = reads(&|| vec![resolve_epoch(shared, EpochId(1), false)]);
        assert!(alone > 0);
        let (twice, resolved) = reads(&|| {
            std::thread::scope(|s| {
                let misses = shared.cache.stats().misses;
                let held = shared.shards.write(0);
                let resolvers: Vec<_> = (0..2)
                    .map(|_| s.spawn(|| resolve_epoch(shared, EpochId(2), false)))
                    .collect();
                while shared.cache.stats().misses < misses + 2 {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(20));
                drop(held);
                resolvers.into_iter().map(|r| r.join().unwrap()).collect()
            })
        });
        assert_eq!(twice, alone, "the leaf read once");
        let [Some(a), Some(b)] = &resolved[..] else {
            panic!("both resolvers serve the epoch");
        };
        assert!(Arc::ptr_eq(a, b));
        server.shutdown();
    }

    /// The intake sees a byte stream: a frame may come in pieces, two may
    /// come in one write, and a hang-up inside a frame is a protocol
    /// error while one at a frame boundary is not.
    #[test]
    fn frames_are_reassembled_from_any_split_of_the_byte_stream() {
        let server = server_over(1.0 / 2048.0, 2, ServeConfig::default());
        let mut client = server.connect();
        let (a, b, c) = (stats_request(1), stats_request(2), stats_request(3));
        // One byte at a time, then the tail of `b` glued to the whole of
        // `c` and the head of a frame that never completes.
        for byte in &a {
            client.send_raw(&[*byte]).unwrap();
        }
        assert!(matches!(client.await_reply(1), Ok(Reply::Stats(_))));
        client.send_raw(&b[..5]).unwrap();
        let mut rest = b[5..].to_vec();
        rest.extend_from_slice(&c);
        rest.extend_from_slice(&stats_request(4)[..6]);
        client.send_raw(&rest).unwrap();
        assert!(matches!(client.await_reply(2), Ok(Reply::Stats(_))));
        assert!(matches!(client.await_reply(3), Ok(Reply::Stats(_))));
        client.ep.close();
        // The server reports the truncation and hangs up.
        match client.await_reply(0) {
            Ok(Reply::ServerError { code, .. }) => assert_eq!(code, errcode::BAD_REQUEST),
            other => panic!("expected the truncation report, got {other:?}"),
        }

        let clean = server.connect();
        clean.send_raw(&stats_request(1)).unwrap();
        clean.close();
        assert_eq!(server.shutdown().protocol_errors, 1);
    }

    /// The window of every epoch holds 2^32 of them: it is filed as a
    /// scan, an empty warehouse has nothing to answer it with, a filled
    /// one answers it, and the connection serves its next request as
    /// usual.
    #[test]
    fn the_window_of_every_epoch_is_a_scan_and_the_connection_goes_on() {
        let all = (0, u32::MAX);
        let everything = BoundingBox::everything();
        let explore = RequestBody::Explore {
            attributes: vec!["upflux".into()],
            bbox: (f64::MIN, f64::MIN, f64::MAX, f64::MAX),
            window: all,
            deadline_ms: 0,
        };
        assert_eq!(classify(&explore), Class::Scan);

        let empty = server_over(1.0 / 2048.0, 0, ServeConfig::default());
        let mut client = empty.connect();
        let reply = client.explore(&["upflux"], everything, all).unwrap();
        assert_eq!(reply, Reply::Unavailable);
        client.close();
        empty.shutdown();

        let server = server_over(1.0 / 2048.0, 4, ServeConfig::default());
        let mut client = server.connect();
        let reply = client.explore(&["upflux"], everything, all).unwrap();
        assert!(matches!(reply, Reply::Summary { .. }), "{reply:?}");
        let next = client.explore(&["upflux"], everything, (0, 3)).unwrap();
        let Reply::Rows { coverage, .. } = &next else {
            panic!("expected rows, got {next:?}");
        };
        assert_eq!(*coverage, None);
        assert!(next.total_rows() > 0);
        client.close();
        assert_eq!(server.shutdown().protocol_errors, 0);
    }

    /// The intake runs on the sending client's thread, so it must never
    /// wait for room in that client's reply pipe: a client that pipelines
    /// requests without reading them back keeps being answered (and can
    /// read everything afterwards).
    #[test]
    fn a_client_with_a_full_reply_pipe_is_still_answered_without_blocking() {
        let cdr = Schema::shared(TableKind::Cdr);
        let attributes: Vec<String> = (0..60).map(|i| cdr.column_name(i).to_string()).collect();
        let config = ServeConfig {
            workers: 1,
            prefetch: false,
            ..ServeConfig::default()
        };
        let server = server_over(1.0 / 64.0, 40, config);
        let mut client = server.connect();
        let scans: Vec<u64> = (0..4)
            .map(|_| {
                client
                    .send(RequestBody::Explore {
                        attributes: attributes.clone(),
                        bbox: (f64::MIN, f64::MIN, f64::MAX, f64::MAX),
                        window: (20, 39),
                        deadline_ms: 0,
                    })
                    .unwrap()
            })
            .collect();
        // The one worker answers until the unread replies pass the pipe's
        // capacity, then waits for room with the rest still queued.
        let mut depth = (usize::MAX, Instant::now());
        while depth.1.elapsed() < Duration::from_millis(200) {
            let now = server.queue_depth();
            if now != depth.0 {
                depth = (now, Instant::now());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(depth.0 >= 1, "the replies did not fill the pipe");

        // A control frame is answered in place, on this thread.
        let (done_tx, done_rx) = mpsc::channel();
        let sender = std::thread::spawn(move || {
            let id = client.send(RequestBody::Stats).unwrap();
            done_tx.send(()).unwrap();
            (client, id)
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the intake waited for room in the sender's own reply pipe");
        let (client, stats_id) = sender.join().unwrap();

        // Everything is answered once the client reads.
        let mut terminals = HashSet::new();
        while terminals.len() < scans.len() + 1 {
            let resp = client.ep.recv_response().unwrap().expect("early hang-up");
            if resp.body.is_terminal() {
                assert!(matches!(
                    resp.body,
                    ResponseBody::Done { .. } | ResponseBody::Stats(_)
                ));
                terminals.insert(resp.id);
            }
        }
        assert!(terminals.contains(&stats_id));
        client.close();
        server.shutdown();
    }

    /// A cache hit records its access in the request's cost profile and
    /// the cache's own counters, nowhere that needs a shard: an ingest
    /// holding shard 0 for writing (it compresses under that lock) must
    /// not delay an explore whose box lives on shard 1 and whose epochs
    /// are all cached.
    #[test]
    fn a_cached_explore_is_answered_while_another_shard_is_locked_for_writing() {
        let mut generator = TraceGenerator::new(TraceConfig::scaled(1.0 / 1024.0).with_days(1));
        let layout = generator.layout().clone();
        let server = Server::start_sharded(
            ShardedSpate::in_memory(layout.clone(), 2),
            ServeConfig::default(),
        );
        for snapshot in generator.by_ref().take(4) {
            server.ingest(&snapshot);
        }
        let cell = layout
            .cells_in(&BoundingBox::everything())
            .into_iter()
            .find(|&c| spate_core::shard_of_cell(c, 2) == 1)
            .expect("a cell on shard 1");
        let site = layout.get(cell);
        let (x, y) = (site.x_m, site.y_m);
        let tight = BoundingBox::new(x - 1.0, y - 1.0, x + 1.0, y + 1.0);
        assert_eq!(server.shared.shards.shards_for(&tight), vec![1]);

        // Warm the cache; the repeat of the same window on the same
        // connection is a zoom-in, so it prefetches nothing either.
        let mut client = server.connect();
        let warm = client.explore(&["upflux"], tight, (0, 3)).unwrap();
        let misses = server.cache_stats().misses;

        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let shards = &server.shared.shards;
            scope.spawn(move || {
                let _ingesting = shards.write(0);
                held_tx.send(()).unwrap();
                let _ = release_rx.recv();
            });
            held_rx.recv().unwrap();
            let client = &mut client;
            scope.spawn(move || {
                let _ = done_tx.send(client.explore(&["upflux"], tight, (0, 3)));
            });
            let answered = done_rx.recv_timeout(Duration::from_secs(10));
            drop(release_tx);
            let cached = answered
                .expect("a cached read waited on shard 0's write lock")
                .unwrap();
            assert_eq!(cached.total_rows(), warm.total_rows());
        });
        assert_eq!(server.cache_stats().misses, misses, "fully cached");
        client.close();
        server.shutdown();
    }

    /// A warm explore that is not a zoom-in needs shard 0's last epoch
    /// for its look-ahead. While an ingest holds shard 0 the intake does
    /// not wait for it: the request queues, and a worker answers it from
    /// shard 1 and the cache before its own prefetch waits.
    #[test]
    fn a_warm_explore_queues_rather_than_wait_for_a_written_shard() {
        let mut generator = TraceGenerator::new(TraceConfig::scaled(1.0 / 1024.0).with_days(1));
        let layout = generator.layout().clone();
        let server = Server::start_sharded(
            ShardedSpate::in_memory(layout.clone(), 2),
            ServeConfig::default(),
        );
        for snapshot in generator.by_ref().take(8) {
            server.ingest(&snapshot);
        }
        let cell = layout
            .cells_in(&BoundingBox::everything())
            .into_iter()
            .find(|&c| spate_core::shard_of_cell(c, 2) == 1)
            .expect("a cell on shard 1");
        let site = layout.get(cell);
        let tight = BoundingBox::new(
            site.x_m - 1.0,
            site.y_m - 1.0,
            site.x_m + 1.0,
            site.y_m + 1.0,
        );

        // The first window is cold; its prefetch caches the next one.
        let mut client = server.connect();
        client.explore(&["upflux"], tight, (0, 3)).unwrap();
        let cache = &server.shared.cache;
        while !(4..=7).all(|e| cache.contains(EpochId(e))) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let ingesting = server.shared.shards.write(0);
            let client = &mut client;
            scope.spawn(move || {
                let _ = done_tx.send(client.explore(&["upflux"], tight, (4, 7)));
            });
            let answered = done_rx.recv_timeout(Duration::from_secs(10));
            drop(ingesting);
            let reply = answered
                .expect("the intake waited on shard 0's write lock")
                .unwrap();
            assert!(
                matches!(reply, Reply::Rows { coverage: None, .. }),
                "{reply:?}"
            );
        });
        client.close();
        server.shutdown();
    }

    /// A connection's session and reply endpoint live exactly as long as
    /// the connection: closing it drops both, and with them the intake's
    /// hold on the server.
    #[test]
    fn closed_connections_leave_no_session_and_no_endpoint_behind() {
        let server = server_over(1.0 / 2048.0, 4, ServeConfig::default());
        let everything = BoundingBox::everything();
        for round in 0..200u32 {
            let mut client = server.connect();
            let reply = client
                .explore(&["upflux"], everything, (round % 3, 3))
                .unwrap();
            assert!(matches!(reply, Reply::Rows { .. }), "{reply:?}");
            client.close();
        }
        assert_eq!(
            obs::unpoisoned(server.shared.sessions.lock(), POISONED).len(),
            0
        );
        // The workers hold the server, and nothing else but this handle.
        let workers = obs::unpoisoned(server.workers.lock(), POISONED).len();
        assert_eq!(Arc::strong_count(&server.shared), 1 + workers);

        // Shutdown hangs up on a connection that is still open.
        let open = server.connect();
        assert_eq!(
            obs::unpoisoned(server.shared.sessions.lock(), POISONED).len(),
            1
        );
        server.shutdown();
        assert!(open.recv_response().unwrap().is_none());
    }

    /// A trace past [`obs::trace::MAX_EVENTS`] settles capped, and its
    /// `Trace` frame is well inside the payload bound: the kept events,
    /// then the `trace.dropped` instant that counts the rest.
    #[test]
    fn a_trace_past_the_cap_answers_a_frame_that_decodes() {
        let server = server_over(1.0 / 2048.0, 1, ServeConfig::default());
        let mut client = server.connect();
        let trace_id = trace_id_for(client.conn_id, 1);
        let trace = obs::trace::begin(trace_id);
        // Shaped like a cold read's instants: a stage label, a leaf path.
        let path = "spate/epochs/00000123/shard-00/leaf-000000.snap";
        for _ in 0..obs::trace::MAX_EVENTS + 1_000 {
            obs::trace::event("dfs.cache.miss", &[("path", path)]);
        }
        let settled = Settled {
            profile: None,
            events: trace.finish(),
        };
        server.shared.requests.lock().settle(trace_id, 0, settled);

        let frame = client.trace(trace_id).unwrap();
        assert_eq!(frame.trace_id, trace_id);
        let (last, kept) = frame.spans.split_last().unwrap();
        assert_eq!(kept.len() as u64, obs::trace::MAX_EVENTS);
        assert!(kept.iter().all(|s| s.name == "dfs.cache.miss"));
        assert_eq!((last.name.as_str(), last.instant), ("trace.dropped", true));
        assert_eq!(last.args, [("events".to_string(), "1000".to_string())]);
        let bytes = Response {
            id: 0,
            body: ResponseBody::Trace(frame),
        }
        .encode();
        assert!(
            bytes.len() < crate::proto::MAX_PAYLOAD / 2,
            "{} bytes",
            bytes.len()
        );
        client.close();
        server.shutdown();
    }
}
