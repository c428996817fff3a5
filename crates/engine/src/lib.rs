//! A partitioned data-parallel compute engine (Spark-class substrate).
//!
//! The paper runs its heavy tasks — multivariate statistics (T6), k-means
//! clustering (T7) and linear regression (T8) — "with Spark
//! parallelization" over snapshots loaded from HDFS. This crate provides
//! the equivalent: an in-process [`Dataset`] of partitions executed across
//! threads ([`dataset`]), plus the three ML algorithms the tasks use
//! ([`ml`]), implemented from scratch.
//!
//! Those tasks are CPU-bound; the experimental point (Fig. 12) is that
//! compressed input neither helps nor hurts much once decompression has
//! happened in the first pass. Any data-parallel executor with the same
//! algorithms reproduces that, which is why an in-process engine is a
//! faithful substitute.

#![deny(unsafe_code)]

pub mod dataset;
pub mod linalg;
pub mod ml;

pub use dataset::Dataset;
pub use ml::{
    colstats, correlation_matrix, kmeans, linreg, linreg_ridge, ColStats, KMeansModel, LinearModel,
};
