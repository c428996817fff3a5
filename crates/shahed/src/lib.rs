//! SHAHED-class baseline: a multi-resolution spatio-temporal *aggregate*
//! index, isolated the way the SPATE paper isolated it.
//!
//! "SHAHED is a MapReduce-based system for querying and visualizing
//! spatio-temporal satellite data ... To allow fair comparison, we isolated
//! the spatio-temporal aggregate index of SHAHED" (§VII-A). The structure
//! is a temporal hierarchy (epoch → day → month → year); each temporal node
//! carries a spatial quad-tree whose nodes hold `count/sum/min/max`
//! aggregates per tracked measure. Epoch-level trees retain the raw points
//! so exact queries are possible; coarser levels keep aggregates only.
//!
//! No compression, no decay — exactly the baseline's trade-off: fast
//! aggregate queries at full storage cost.

#![deny(unsafe_code)]

pub mod quadtree;
pub mod temporal;

pub use quadtree::{AggStats, Point, QuadConfig, QuadTree};
pub use temporal::ShahedIndex;
