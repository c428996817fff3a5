//! Differential snapshot storage — the paper's future-work extension
//! (§IX-B) built on [`codecs::DeltaCodec`].
//!
//! Every `anchor_interval`-th epoch is stored self-contained ("anchor",
//! compressed with the regular codec); the epochs in between are stored as
//! deltas against their group's anchor. Loading a delta costs one extra
//! anchor read, so the interval trades storage against read amplification
//! — exactly "the trade-off between compression ratio and decompression
//! times for incremental archival data" the paper cites from the
//! differential-compression literature.

use crate::storage::{StorageError, StoredSnapshot};
use cas::{CasConfig, CasError, CasStore};
use codecs::{Codec, DeltaCodec};
use dfs::{Dfs, DfsError};
use parking_lot::Mutex;
use std::sync::Arc;
use telco_trace::snapshot::Snapshot;
use telco_trace::time::EpochId;

/// Where anchor and delta payloads land.
enum DeltaBackend {
    /// One write-once file per epoch (`.anchor` / `.delta`).
    Dfs,
    /// Content-addressed: anchors go in *raw* (the chunker's columnar
    /// split + pack compression replaces the anchor codec, and identical
    /// columns dedup across anchors); delta payloads go in as opaque
    /// blobs. Eviction inherits decay-as-GC.
    Cas(CasStore),
}

/// Anchor + delta snapshot store.
pub struct DeltaSnapshotStore {
    dfs: Dfs,
    backend: DeltaBackend,
    /// Codec for self-contained anchors (path backend only).
    anchor_codec: Arc<dyn Codec>,
    delta: DeltaCodec,
    /// Every `anchor_interval`-th epoch is an anchor. Must divide 48 so
    /// whole days decay as complete groups.
    anchor_interval: u32,
    root: String,
    /// Raw bytes of the most recent anchor (hot path: sequential ingest).
    last_anchor: Mutex<Option<(EpochId, Arc<Vec<u8>>)>>,
}

impl DeltaSnapshotStore {
    pub fn new(dfs: Dfs, anchor_codec: Arc<dyn Codec>, anchor_interval: u32) -> Self {
        Self::with_backend(dfs, DeltaBackend::Dfs, anchor_codec, anchor_interval)
    }

    /// Delta store over the content-addressed backend.
    pub fn new_cas(dfs: Dfs, anchor_codec: Arc<dyn Codec>, anchor_interval: u32) -> Self {
        let cas = CasStore::new(dfs.clone(), CasConfig::default().with_root("/spate-delta"));
        Self::with_backend(dfs, DeltaBackend::Cas(cas), anchor_codec, anchor_interval)
    }

    fn with_backend(
        dfs: Dfs,
        backend: DeltaBackend,
        anchor_codec: Arc<dyn Codec>,
        anchor_interval: u32,
    ) -> Self {
        assert!(anchor_interval >= 1);
        assert_eq!(
            48 % anchor_interval,
            0,
            "anchor interval must divide the 48 epochs of a day"
        );
        Self {
            dfs,
            backend,
            anchor_codec,
            delta: DeltaCodec::default(),
            anchor_interval,
            root: "/spate-delta".to_string(),
            last_anchor: Mutex::new(None),
        }
    }

    fn is_anchor(&self, epoch: EpochId) -> bool {
        epoch.0.is_multiple_of(self.anchor_interval)
    }

    fn anchor_of(&self, epoch: EpochId) -> EpochId {
        EpochId(epoch.0 - epoch.0 % self.anchor_interval)
    }

    fn path_for(&self, epoch: EpochId) -> String {
        let kind = if self.is_anchor(epoch) {
            "anchor"
        } else {
            "delta"
        };
        let c = epoch.civil();
        format!(
            "{}/{:04}/{:02}/{:02}/{:010}.{kind}",
            self.root, c.year, c.month, c.day, epoch.0
        )
    }

    /// Stored payload of an epoch: compressed file bytes on the path
    /// backend, reassembled (hash-verified) cas bytes otherwise.
    fn read_payload(&self, epoch: EpochId) -> Result<Vec<u8>, StorageError> {
        match &self.backend {
            DeltaBackend::Dfs => match self.dfs.read(&self.path_for(epoch)) {
                Ok(p) => Ok(p),
                Err(DfsError::NotFound(_)) => Err(StorageError::Missing(epoch)),
                Err(e) => Err(e.into()),
            },
            DeltaBackend::Cas(cas) => Ok(cas.get_epoch(epoch.0)?),
        }
    }

    /// Persist an epoch payload; returns (leaf path, stored bytes).
    fn write_payload(&self, epoch: EpochId, payload: &[u8]) -> Result<(String, u64), StorageError> {
        match &self.backend {
            DeltaBackend::Dfs => {
                let path = self.path_for(epoch);
                self.dfs.write(&path, payload)?;
                Ok((path, payload.len() as u64))
            }
            DeltaBackend::Cas(cas) => match cas.put_epoch(epoch.0, payload) {
                Ok(r) => Ok((r.path, r.new_bytes)),
                Err(CasError::AlreadyStored(_)) => Err(StorageError::Dfs(DfsError::AlreadyExists(
                    self.path_for(epoch),
                ))),
                Err(e) => Err(e.into()),
            },
        }
    }

    /// Raw (uncompressed) bytes of an anchor epoch.
    fn load_anchor_raw(&self, anchor: EpochId) -> Result<Arc<Vec<u8>>, StorageError> {
        if let Some((e, raw)) = self.last_anchor.lock().as_ref() {
            if *e == anchor {
                return Ok(Arc::clone(raw));
            }
        }
        let payload = self.read_payload(anchor)?;
        let raw = match &self.backend {
            DeltaBackend::Dfs => self.anchor_codec.decompress(&payload)?,
            // The cas backend stores anchors raw.
            DeltaBackend::Cas(_) => payload,
        };
        Ok(Arc::new(raw))
    }

    /// Store a snapshot: anchors self-contained, the rest as deltas.
    pub fn store(&self, snapshot: &Snapshot) -> Result<StoredSnapshot, StorageError> {
        let epoch = snapshot.epoch;
        let raw = snapshot.to_bytes();
        let buf: Vec<u8>;
        let payload: &[u8] = if self.is_anchor(epoch) {
            match &self.backend {
                DeltaBackend::Dfs => {
                    buf = self.anchor_codec.compress(&raw);
                    &buf
                }
                // The cas chunker compresses (and dedups) anchors itself.
                DeltaBackend::Cas(_) => &raw,
            }
        } else {
            let anchor_raw = self.load_anchor_raw(self.anchor_of(epoch))?;
            buf = self.delta.compress(&anchor_raw, &raw);
            &buf
        };
        let (path, stored_bytes) = self.write_payload(epoch, payload)?;
        let raw_bytes = raw.len() as u64;
        if self.is_anchor(epoch) {
            *self.last_anchor.lock() = Some((epoch, Arc::new(raw)));
        }
        Ok(StoredSnapshot {
            epoch,
            path,
            raw_bytes,
            stored_bytes,
        })
    }

    /// Load a snapshot (deltas cost one extra anchor read).
    pub fn load(&self, epoch: EpochId) -> Result<Snapshot, StorageError> {
        let payload = self.read_payload(epoch)?;
        let raw = if self.is_anchor(epoch) {
            match &self.backend {
                DeltaBackend::Dfs => self.anchor_codec.decompress(&payload)?,
                DeltaBackend::Cas(_) => payload,
            }
        } else {
            let anchor_raw = self.load_anchor_raw(self.anchor_of(epoch))?;
            self.delta.decompress(&anchor_raw, &payload)?
        };
        Ok(Snapshot::from_bytes(&raw)?)
    }

    /// Evict one epoch. Anchors refuse to go while any of their dependent
    /// deltas is still stored (the decay fungus evicts oldest-first in
    /// whole days, which always satisfies this).
    pub fn evict(&self, epoch: EpochId) -> Result<u64, StorageError> {
        if self.is_anchor(epoch) {
            for e in epoch.0 + 1..epoch.0 + self.anchor_interval {
                if self.contains(EpochId(e)) {
                    return Err(StorageError::Dfs(DfsError::AlreadyExists(format!(
                        "anchor {} still has dependent delta {}",
                        epoch.0, e
                    ))));
                }
            }
        }
        let freed = match &self.backend {
            DeltaBackend::Dfs => match self.dfs.delete(&self.path_for(epoch)) {
                Ok(n) => n,
                Err(DfsError::NotFound(_)) => 0,
                Err(e) => return Err(e.into()),
            },
            DeltaBackend::Cas(cas) => cas.drop_epoch(epoch.0)?,
        };
        // The evicted epoch may be the cached ingest anchor; a later delta
        // write must not base itself on (or a load resolve through) an
        // anchor that no longer exists on the filesystem.
        if self.is_anchor(epoch) {
            let mut la = self.last_anchor.lock();
            if la.as_ref().is_some_and(|(e, _)| *e == epoch) {
                *la = None;
            }
        }
        Ok(freed)
    }

    pub fn contains(&self, epoch: EpochId) -> bool {
        match &self.backend {
            DeltaBackend::Dfs => self.dfs.exists(&self.path_for(epoch)),
            DeltaBackend::Cas(cas) => cas.contains(epoch.0),
        }
    }

    /// Total stored bytes under this root.
    pub fn stored_bytes(&self) -> u64 {
        match &self.backend {
            DeltaBackend::Dfs => self
                .dfs
                .list(&format!("{}/", self.root))
                .iter()
                .filter_map(|p| self.dfs.file_len(p).ok())
                .sum(),
            DeltaBackend::Cas(cas) => cas.listed_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SnapshotStore;
    use codecs::GzipLite;
    use telco_trace::{TraceConfig, TraceGenerator};

    fn stores() -> (DeltaSnapshotStore, SnapshotStore) {
        (
            DeltaSnapshotStore::new(Dfs::in_memory(), Arc::new(GzipLite::default()), 8),
            SnapshotStore::new(Dfs::in_memory(), Arc::new(GzipLite::default())),
        )
    }

    fn snapshots(n: usize) -> Vec<Snapshot> {
        TraceGenerator::new(TraceConfig::scaled(1.0 / 256.0))
            .skip(16)
            .take(n)
            .collect()
    }

    #[test]
    fn round_trip_across_anchor_groups() {
        let (store, _) = stores();
        let snaps = snapshots(18); // spans three anchor groups (K=8)
        for s in &snaps {
            store.store(s).unwrap();
        }
        for s in &snaps {
            let loaded = store.load(s.epoch).unwrap();
            assert_eq!(loaded.to_bytes(), s.to_bytes());
        }
    }

    #[test]
    fn cold_loads_work_without_the_ingest_cache() {
        let (store, _) = stores();
        let snaps = snapshots(10);
        for s in &snaps {
            store.store(s).unwrap();
        }
        // Invalidate the in-memory anchor (as after a restart).
        *store.last_anchor.lock() = None;
        let mid = &snaps[5];
        assert_eq!(store.load(mid.epoch).unwrap().to_bytes(), mid.to_bytes());
    }

    #[test]
    fn deltas_reduce_storage_versus_plain_compression() {
        let (delta_store, plain_store) = stores();
        for s in snapshots(16) {
            delta_store.store(&s).unwrap();
            plain_store.store(&s).unwrap();
        }
        let d = delta_store.stored_bytes();
        let p = plain_store.stored_bytes();
        assert!(
            (d as f64) < p as f64 * 0.95,
            "delta {d} should undercut plain {p}"
        );
    }

    #[test]
    fn anchors_refuse_eviction_while_deltas_depend_on_them() {
        let (store, _) = stores();
        let snaps = snapshots(10);
        for s in &snaps {
            store.store(s).unwrap();
        }
        let anchor = store.anchor_of(snaps[0].epoch);
        assert!(store.evict(anchor).is_err(), "dependents still present");
        // Evict the group oldest-first: deltas, then the anchor.
        for e in anchor.0 + 1..anchor.0 + 8 {
            store.evict(EpochId(e)).unwrap();
        }
        assert!(store.evict(anchor).unwrap() > 0);
        assert!(!store.contains(anchor));
        // Later groups unaffected.
        assert!(store.load(snaps[9].epoch).is_ok());
    }

    #[test]
    fn evicting_the_cached_anchor_invalidates_the_ingest_cache() {
        let (store, _) = stores();
        let snaps = snapshots(9); // epochs 16..=24, anchors at 16 and 24
        for s in &snaps[..8] {
            store.store(s).unwrap();
        }
        // Decay the whole group oldest-first: deltas, then the anchor.
        for e in 17..24 {
            store.evict(EpochId(e)).unwrap();
        }
        assert!(store.evict(EpochId(16)).unwrap() > 0);
        // A delta write for the decayed group must fail loudly — before
        // the cache was invalidated on eviction, the stale `last_anchor`
        // let this silently commit a delta against a deleted anchor.
        assert!(matches!(
            store.store(&snaps[1]),
            Err(StorageError::Missing(EpochId(16)))
        ));
        // Loads must agree that the group is gone.
        assert!(matches!(
            store.load(snaps[1].epoch),
            Err(StorageError::Missing(_))
        ));
    }

    #[test]
    fn cas_backend_round_trips_dedups_and_decays_to_zero() {
        let store = DeltaSnapshotStore::new_cas(Dfs::in_memory(), Arc::new(GzipLite::default()), 8);
        let snaps = snapshots(16); // two full anchor groups
        for s in &snaps {
            store.store(s).unwrap();
        }
        for s in &snaps {
            assert_eq!(store.load(s.epoch).unwrap().to_bytes(), s.to_bytes());
        }
        assert!(store.stored_bytes() > 0);
        // Anchors still refuse eviction while dependents exist.
        assert!(store.evict(EpochId(16)).is_err());
        // Full decay, oldest-first per group, reaches an empty store: the
        // content-addressed backend garbage-collects every shared chunk.
        for group in [16u32, 24] {
            for e in group + 1..group + 8 {
                store.evict(EpochId(e)).unwrap();
            }
            store.evict(EpochId(group)).unwrap();
        }
        assert_eq!(store.stored_bytes(), 0);
    }

    #[test]
    fn missing_epochs_are_reported() {
        let (store, _) = stores();
        assert!(matches!(
            store.load(EpochId(999)),
            Err(StorageError::Missing(_))
        ));
        assert_eq!(store.evict(EpochId(999)).unwrap(), 0);
    }
}
