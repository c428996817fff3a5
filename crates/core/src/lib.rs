//! SPATE: a telco big-data exploration framework with compression and
//! decaying — the primary contribution of Costa et al., ICDE 2017.
//!
//! SPATE minimizes (i) the storage space needed to incrementally retain
//! telco data over time and (ii) the response time of spatio-temporal data
//! exploration queries over recent data. It is layered exactly as the paper
//! describes:
//!
//! * **Storage layer** ([`storage`]) — every 30-minute snapshot is passed
//!   through a lossless codec ([`codecs`]) and stored on a replicated
//!   filesystem ([`dfs`]).
//! * **Indexing layer** ([`index`]) — a multi-resolution temporal tree
//!   (year → month → day → epoch) maintained by the *incremence* module
//!   (right-most-path insertion), enriched by the *highlights* module
//!   (θ-threshold event summaries rolled up day → month → year like an
//!   OLAP cube), and pruned by the *decay* module ("Evict Oldest
//!   Individuals" data fungus).
//! * **Application layer** ([`query`]) — data exploration queries
//!   `Q(a, b, w)` with attribute selection `a`, spatial bounding box `b`
//!   and temporal window `w`; plus the SQL interface in the `spate-sql`
//!   crate.
//!
//! The [`framework`] module hosts the three comparable systems of the
//! paper's evaluation — RAW, SHAHED and SPATE — behind one trait, and
//! [`tasks`] implements the eight workloads T1–T8 used in Figs. 11–12.
//!
//! # Quickstart
//!
//! ```
//! use spate_core::framework::{ExplorationFramework, SpateFramework};
//! use spate_core::query::Query;
//! use telco_trace::{TraceConfig, TraceGenerator};
//! use telco_trace::cells::BoundingBox;
//!
//! // Generate a tiny deterministic trace and ingest it into SPATE.
//! let mut generator = TraceGenerator::new(TraceConfig::tiny());
//! let layout = generator.layout().clone();
//! let mut spate = SpateFramework::in_memory(layout);
//! for snapshot in generator.by_ref().take(4) {
//!     spate.ingest(&snapshot);
//! }
//!
//! // Explore: upflux/downflux in the whole region over the first hour.
//! let q = Query::new(&["upflux", "downflux"], BoundingBox::everything())
//!     .with_epoch_range(0, 1);
//! let result = spate.query(&q);
//! assert!(result.is_exact());
//! ```

#![deny(unsafe_code)]

pub mod framework;
pub mod index;
pub mod meta;
pub mod query;
pub mod shard;
pub mod storage;
pub mod tasks;

pub use framework::{
    ExplorationFramework, RawFramework, RecoveryReport, ShahedFramework, SpateFramework,
    StoreObserver,
};
pub use index::decay::{DecayPolicy, DecayReport};
pub use index::highlights::{HighlightConfig, Highlights};
pub use index::TemporalIndex;
pub use meta::{AnomalyRecord, MetaMonitor, MetaSummary, StreamKind};
pub use query::{profile_query, Coverage, Query, QueryResult};
pub use shard::{merge_snapshots, shard_of_cell, split_snapshot, ShardStat, ShardedSpate};
pub use storage::SnapshotStore;
