//! k-anonymity for privacy-aware telco data sharing (paper task T5).
//!
//! "This task retrieves and anonymizes the result set based on the
//! k-anonymity model [Sweeney 2002] through the ARX Java library.
//! Particularly, it generates a k-anonymized dataset by generalizing,
//! substituting, inserting, and removing information as appropriate in
//! order to make the quasi-identifiers indistinguishable among k rows."
//!
//! This crate substitutes ARX with a from-scratch implementation of the
//! same model: full-domain generalization over per-attribute
//! [`Hierarchy`]s, a bottom-up lattice search for the minimal
//! generalization ([`Anonymizer::anonymize`], OLA/Flash-style with
//! monotonicity pruning), and bounded record suppression.

#![deny(unsafe_code)]

pub mod hierarchy;
pub mod lattice;

pub use hierarchy::Hierarchy;
pub use lattice::{is_k_anonymous, AnonymizedTable, Anonymizer};
