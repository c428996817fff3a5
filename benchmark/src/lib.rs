//! The repo's performance benchmark: four fixed-work workloads replayed
//! for identical rounds, per-op best-of-rounds timing, and one traced +
//! verified round that splits each op over the layers it crosses. Every
//! layer is measured from outside, through public functions only. See
//! `README.md` beside this crate for the protocol and the metric names.

pub mod cli;
pub mod driver;
pub mod harness;
pub mod ops;
pub mod report;
pub mod spans;
pub mod workloads;
