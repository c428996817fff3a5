//! # SPATE — Efficient Exploration of Telco Big Data with Compression and Decaying
//!
//! A full Rust reproduction of Costa, Chatzimilioudis, Zeinalipour-Yazti
//! and Mokbel, *"Efficient Exploration of Telco Big Data with Compression
//! and Decaying"*, ICDE 2017.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`core`] | `spate-core` | The SPATE framework: storage + indexing (incremence, highlights, decay) + query layers, the RAW/SHAHED baselines, tasks T1–T8 |
//! | [`codecs`] | `codecs` | From-scratch GZIP-/7z-/Snappy-/Zstd-class lossless codecs (Table I) |
//! | [`trace`] | `telco-trace` | Synthetic telco trace with the paper's schema/entropy/arrival shape |
//! | [`dfs`] | `dfs` | Simulated replicated distributed filesystem (HDFS-class) |
//! | [`engine`] | `engine` | Partitioned parallel compute + k-means / OLS / colStats (Spark-class) |
//! | [`shahed`] | `shahed` | The SHAHED spatio-temporal aggregate index baseline |
//! | [`sql`] | `spate-sql` | SPATE-SQL: SELECT-FROM-WHERE over the compressed store |
//! | [`serve`] | `spate-serve` | Multi-client serving tier: frame protocol, admission, shared epoch cache |
//! | [`privacy`] | `privacy` | k-anonymity with generalization lattices (ARX-class) |
//!
//! # Quickstart
//!
//! ```
//! use spate::core::framework::{ExplorationFramework, SpateFramework};
//! use spate::core::query::Query;
//! use spate::trace::cells::BoundingBox;
//! use spate::trace::{TraceConfig, TraceGenerator};
//!
//! let mut generator = TraceGenerator::new(TraceConfig::tiny());
//! let layout = generator.layout().clone();
//! let mut spate = SpateFramework::in_memory(layout);
//! for snapshot in generator.by_ref().take(2) {
//!     spate.ingest(&snapshot);
//! }
//! let q = Query::new(&["upflux", "downflux"], BoundingBox::everything())
//!     .with_epoch_range(0, 1);
//! assert!(spate.query(&q).is_exact());
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

#![deny(unsafe_code)]

pub use codecs;
pub use dfs;
pub use engine;
pub use privacy;
pub use shahed;
pub use spate_core as core;
pub use spate_serve as serve;
pub use spate_sql as sql;
pub use telco_trace as trace;
