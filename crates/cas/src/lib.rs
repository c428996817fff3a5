//! Content-addressed block store for SPATE snapshots.
//!
//! Sits between `core` storage and the replicated filesystem. What an
//! epoch stores is its snapshot's column image, written straight from its
//! records ([`CasStore::put_snapshot`]; [`CasStore::put_epoch`] takes
//! the snapshot's text, exactly as `Snapshot::to_bytes` writes it, and
//! nothing else): each table's varying columns become one run, its
//! *unit*, and each constant column one value. The
//! units are compressed, one stream each, into the epoch's own *pack*
//! file; the epoch is then represented by a *manifest* recording each
//! table's rows and constant columns, the pack's hash, every unit's hash
//! and the constant values, and every scan reads back the unit of the
//! table it wants, as columns. Manifests roll up into day and month
//! manifests and a single root hash mirroring the temporal index tree, so
//! one hash authenticates an entire retained subtree.
//!
//! Consequences the rest of the system gets for free:
//!
//! - **Constant columns cost a few bytes**: a constant column's single
//!   value is carried inline by the manifest, once however many columns of
//!   the epoch repeat it. Nothing is shared between epochs, and no unit is
//!   cut finer than a table: measured, no piece ever repeated.
//! - **Decay is garbage collection**: an epoch owns its manifest and its
//!   pack, and dropping it deletes both.
//! - **End-to-end verification**: every read re-hashes manifest, pack and
//!   the units it lends against their addresses, and a mismatch triggers a
//!   targeted replica repair + re-fetch before the error surfaces.

pub mod chunker;
pub mod hash;
pub mod manifest;
pub mod pack;
pub mod reader;
pub mod store;

pub use chunker::{Chunking, Layout};
pub use hash::{sha256, ChunkHash};
pub use manifest::{build_merkle, EpochManifest, Merkle};
pub use reader::{stored_tables, EpochReader, SnapshotColumns};
pub use store::{CasConfig, CasRecoverReport, CasStats, CasStore, PutReceipt};

use codecs::CodecError;
use dfs::DfsError;
use std::fmt;

/// Errors from the content-addressed store.
#[derive(Debug)]
pub enum CasError {
    /// Filesystem-level failure.
    Dfs(DfsError),
    /// Pack compression or decompression failure.
    Codec(CodecError),
    /// The epoch is not in the store.
    Missing(u32),
    /// The epoch is already in the store (manifests are write-once).
    AlreadyStored(u32),
    /// Content failed hash verification or structural validation, or a
    /// put was not a snapshot that `Snapshot::to_bytes` text carries.
    Corrupt(String),
}

impl fmt::Display for CasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CasError::Dfs(e) => write!(f, "cas: dfs: {e}"),
            CasError::Codec(e) => write!(f, "cas: codec: {e}"),
            CasError::Missing(e) => write!(f, "cas: epoch {e} not stored"),
            CasError::AlreadyStored(e) => write!(f, "cas: epoch {e} already stored"),
            CasError::Corrupt(msg) => write!(f, "cas: corrupt: {msg}"),
        }
    }
}

impl std::error::Error for CasError {}

impl From<DfsError> for CasError {
    fn from(e: DfsError) -> Self {
        CasError::Dfs(e)
    }
}

impl From<CodecError> for CasError {
    fn from(e: CodecError) -> Self {
        CasError::Codec(e)
    }
}
