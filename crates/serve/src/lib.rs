//! `spate-serve`: the concurrent serving tier over a SPATE warehouse.
//!
//! The paper's framework is a library: one process, one caller, direct
//! method calls. A telco operations floor is not like that — many
//! analysts and dashboards explore the same warehouse at once while
//! snapshots keep arriving every 30 minutes and the decay process keeps
//! evicting old epochs. This crate adds that multi-client layer without
//! leaving the hermetic, dependency-free workspace:
//!
//! * [`proto`] — a length-prefixed binary frame protocol (requests are
//!   `Q(a, b, w)` explorations or SPATE-SQL strings; responses stream in
//!   bounded chunks with explicit coverage/summary/shed outcomes).
//! * [`transport`] — an in-process duplex byte channel with socket-like
//!   semantics: backpressure, frame-atomic writes, truncation on
//!   mid-frame hangup, loopback delivery of request bytes on the
//!   sender's thread, answers coalesced into few writes.
//! * [`admission`] — two-priority bounded admission (interactive before
//!   scan, per-client round-robin, shed on overflow or deadline).
//! * [`cache`] — a sharded LRU cache of decompressed epochs shared by
//!   every client, kept coherent by `spate-core`'s [`StoreObserver`]
//!   mutation hooks (zero stale reads by lock order, not by TTL).
//! * [`server`] — the worker pool that ties it together, plus the
//!   synchronous [`ClientConn`] wrapper.
//!
//! Every request is traced end-to-end: admission mints a trace id
//! (`(conn << 32) | request_id`), the worker (or the intake, for a warm
//! explore it answers itself) installs it as an `obs::trace` context,
//! and every span down through the framework and `dfs` files into that
//! request's trace, which settles in the server's request table beside
//! its cost profile. Two control
//! frames expose it live — [`RequestBody::Stats`] (counters, queue
//! depths, cache ratios, meta-highlights anomalies) and
//! [`RequestBody::Trace`] (one settled request's trace) — both answered on
//! the connection's intake so they work even mid-shed-storm. A third,
//! [`RequestBody::Profile`], returns a served request's [`obs::cost`]
//! profile (epochs touched, bytes per source/codec, rows, cache
//! outcomes, per-stage time) — `EXPLAIN ANALYZE` over the wire.
//!
//! # Quickstart
//!
//! ```
//! use spate_core::framework::{ExplorationFramework, SpateFramework};
//! use spate_serve::{Reply, ServeConfig, Server};
//! use telco_trace::cells::BoundingBox;
//! use telco_trace::{TraceConfig, TraceGenerator};
//!
//! let mut generator = TraceGenerator::new(TraceConfig::tiny());
//! let layout = generator.layout().clone();
//! let mut fw = SpateFramework::in_memory(layout);
//! for snapshot in generator.by_ref().take(4) {
//!     fw.ingest(&snapshot);
//! }
//!
//! let server = Server::start(fw, ServeConfig::default());
//! let mut client = server.connect();
//! let reply = client
//!     .explore(&["upflux"], BoundingBox::everything(), (0, 3))
//!     .unwrap();
//! assert!(matches!(reply, Reply::Rows { .. }));
//! client.close();
//! server.shutdown();
//! ```

#![deny(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod proto;
pub mod server;
pub mod transport;

pub use admission::{AdmissionQueue, Class};
pub use cache::{CacheInvalidator, CacheStats, EpochCache};
pub use proto::{
    AnomalyWire, ProfileFrame, ProtoError, Request, RequestBody, Response, ResponseBody,
    ShardStatWire, SpanWire, StatsFrame, TableHeader, TraceFrame,
};
pub use server::{
    trace_id_for, ClientConn, Reply, ServeConfig, ServeStats, Server, CHAOS_PANIC_ATTRIBUTE,
    CHAOS_STALL_ATTRIBUTE,
};
pub use transport::{duplex, Endpoint, TransportError};

// Re-exported so the doc examples and downstream users see the hook the
// cache coherence contract is built on.
pub use spate_core::StoreObserver;
