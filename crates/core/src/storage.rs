//! The SPATE storage (compression) layer.
//!
//! "The Storage layer passes newly arrived network snapshots through a
//! lossless compression process storing the results on a replicated big
//! data file system" (§IV). The layer owns only the *leaf pages* of the
//! SPATE index, organized in a `/spate/<year>/<month>/<day>/<epoch>`
//! directory hierarchy, through one of two backends:
//!
//! - **Path-addressed** (the default): one compressed `.snap` file per
//!   30-minute snapshot.
//! - **Content-addressed** ([`SnapshotStore::new_cas`]): snapshots are
//!   transposed into columns, each table's varying columns one unit
//!   named by its content hash and packed into the epoch's own `.pk`
//!   file, and each epoch's leaf is a `.mf` manifest of those units and
//!   of the constant columns' values (see the `cas` crate).
//!   Eviction deletes the manifest, then the pack. A scan reads
//!   such an epoch column by column, one table at a time
//!   ([`SnapshotStore::read_rows`]); the Path backend, `load` and any
//!   layout that is not plainly a snapshot's read the serialized text.
//!
//! Either way the index, decay and query layers above see the same
//! store/load/evict surface.

use cas::{CasConfig, CasError, CasRecoverReport, CasStore, SnapshotColumns};
use codecs::{Codec, CodecError};
use dfs::{Dfs, DfsError};
use std::fmt;
use std::sync::Arc;
use telco_trace::schema::TableKind;
use telco_trace::snapshot::{Row, Snapshot, SnapshotParseError};
use telco_trace::time::EpochId;

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StorageError {
    Dfs(DfsError),
    Codec(CodecError),
    Parse(SnapshotParseError),
    /// The requested snapshot was decayed or never ingested.
    Missing(EpochId),
    /// Content-addressed backend failure (verification, structure).
    Cas(CasError),
    /// The leaf stored for `asked` holds another epoch's snapshot.
    WrongEpoch {
        asked: EpochId,
        found: EpochId,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Dfs(e) => write!(f, "dfs: {e}"),
            StorageError::Codec(e) => write!(f, "codec: {e}"),
            StorageError::Parse(e) => write!(f, "parse: {e}"),
            StorageError::Missing(e) => write!(f, "snapshot for epoch {} not stored", e.0),
            StorageError::Cas(e) => write!(f, "{e}"),
            StorageError::WrongEpoch { asked, found } => write!(
                f,
                "the leaf of epoch {} holds the snapshot of epoch {}",
                asked.0, found.0
            ),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<DfsError> for StorageError {
    fn from(e: DfsError) -> Self {
        StorageError::Dfs(e)
    }
}

impl From<CodecError> for StorageError {
    fn from(e: CodecError) -> Self {
        StorageError::Codec(e)
    }
}

impl From<SnapshotParseError> for StorageError {
    fn from(e: SnapshotParseError) -> Self {
        StorageError::Parse(e)
    }
}

impl From<CasError> for StorageError {
    fn from(e: CasError) -> Self {
        match e {
            CasError::Dfs(d) => StorageError::Dfs(d),
            CasError::Codec(c) => StorageError::Codec(c),
            CasError::Missing(epoch) => StorageError::Missing(EpochId(epoch)),
            other => StorageError::Cas(other),
        }
    }
}

/// A leaf is trusted only as far as its own header: text whose
/// `#SNAPSHOT epoch=` is not the epoch it was filed under (a misplaced or
/// overwritten leaf) must not be served as that epoch.
pub(crate) fn check_epoch(asked: EpochId, found: EpochId) -> Result<(), StorageError> {
    if found == asked {
        Ok(())
    } else {
        Err(StorageError::WrongEpoch { asked, found })
    }
}

/// Run `parse` under the `parse` span and cost stage.
pub(crate) fn parse_stage<T>(parse: impl FnOnce() -> T) -> T {
    let _s = obs::span("parse");
    let start = std::time::Instant::now();
    let parsed = parse();
    obs::cost::add_stage_ns("parse", start.elapsed().as_nanos() as u64);
    parsed
}

/// One stored epoch as a scan reads it ([`SnapshotStore::read_rows`]).
pub(crate) enum EpochRows {
    /// The serialized snapshot ([`Snapshot::to_bytes`] text): a Path
    /// leaf, or a CAS epoch the column arm does not read.
    Text(Vec<u8>),
    /// A CAS epoch, the tables the scan asked for held as columns.
    Columns(SnapshotColumns),
}

/// Outcome of storing one snapshot.
#[derive(Debug, Clone)]
pub struct StoredSnapshot {
    pub epoch: EpochId,
    pub path: String,
    pub raw_bytes: u64,
    pub stored_bytes: u64,
}

impl StoredSnapshot {
    /// Compression ratio `r_c = S / S_c` for this snapshot.
    pub fn ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            0.0
        } else {
            self.raw_bytes as f64 / self.stored_bytes as f64
        }
    }
}

/// Staging suffix for crash-consistent writes: `<leaf>.snap.tmp`.
pub const TMP_SUFFIX: &str = ".tmp";

/// How snapshot bytes land on the filesystem.
#[derive(Clone)]
enum Backend {
    /// One compressed file per epoch at its leaf path.
    Path { codec: Arc<dyn Codec> },
    /// Chunked, one manifest and one pack per epoch (see the `cas` crate).
    Cas(CasStore),
}

/// The snapshot store: a compression backend in front of the replicated
/// filesystem.
#[derive(Clone)]
pub struct SnapshotStore {
    dfs: Dfs,
    backend: Backend,
    root: String,
}

impl SnapshotStore {
    /// Path-addressed store (the paper's storage layer).
    pub fn new(dfs: Dfs, codec: Arc<dyn Codec>) -> Self {
        Self {
            dfs,
            backend: Backend::Path { codec },
            root: "/spate".to_string(),
        }
    }

    /// Content-addressed store: verified packs, Merkle manifests,
    /// decay-as-GC.
    pub fn new_cas(dfs: Dfs, cfg: CasConfig) -> Self {
        Self {
            dfs: dfs.clone(),
            backend: Backend::Cas(CasStore::new(dfs, cfg.with_root("/spate"))),
            root: "/spate".to_string(),
        }
    }

    /// Namespace the store under a different root (for side-by-side
    /// frameworks on one filesystem).
    pub fn with_root(mut self, root: &str) -> Self {
        self.root = root.trim_end_matches('/').to_string();
        if let Backend::Cas(cas) = self.backend {
            self.backend = Backend::Cas(cas.with_root(&self.root));
        }
        self
    }

    pub fn codec_name(&self) -> &'static str {
        match &self.backend {
            Backend::Path { codec } => codec.name(),
            Backend::Cas(cas) => cas.codec_name(),
        }
    }

    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The content-addressed backend, when this store uses one.
    pub fn cas(&self) -> Option<&CasStore> {
        match &self.backend {
            Backend::Cas(cas) => Some(cas),
            Backend::Path { .. } => None,
        }
    }

    /// Leaf filename suffix of this backend (`.snap` or `.mf`).
    fn leaf_suffix(&self) -> &'static str {
        match &self.backend {
            Backend::Path { .. } => ".snap",
            Backend::Cas(_) => ".mf",
        }
    }

    /// Rebuild backend state from the filesystem (the retained epochs and
    /// their Merkle leaves) and sweep orphans. No-op for the path backend,
    /// whose only state *is* the filesystem.
    pub fn recover_backend(&self) -> Option<CasRecoverReport> {
        self.cas().map(|cas| cas.recover())
    }

    /// The leaf path of an epoch: `/spate/<y>/<m>/<d>/<epoch>.snap` (or
    /// `.mf` for the content-addressed backend).
    pub fn path_for(&self, epoch: EpochId) -> String {
        let c = epoch.civil();
        format!(
            "{}/{:04}/{:02}/{:02}/{:010}{}",
            self.root,
            c.year,
            c.month,
            c.day,
            epoch.0,
            self.leaf_suffix()
        )
    }

    /// The staging path a snapshot is written to before commit.
    pub fn tmp_path_for(&self, epoch: EpochId) -> String {
        format!("{}{}", self.path_for(epoch), TMP_SUFFIX)
    }

    /// Serialize, compress and persist one snapshot.
    ///
    /// Crash-consistent: bytes land at `<leaf>.snap.tmp` first, then an
    /// atomic [`Dfs::rename`] commits them to the final leaf path. A crash
    /// mid-write leaves either nothing or an orphaned `.tmp` that the
    /// recovery scan ([`crate::framework::SpateFramework::restore`])
    /// deletes — readers can never observe a torn leaf.
    ///
    /// Each stage opens a tracing span ("segment" → "compress" →
    /// "dfs.write", the last inside the dfs crate) so the flame table
    /// attributes ingestion wall time per stage.
    pub fn store(&self, snapshot: &Snapshot) -> Result<StoredSnapshot, StorageError> {
        let raw = {
            let _s = obs::span("segment");
            snapshot.to_bytes()
        };
        match &self.backend {
            Backend::Path { codec } => {
                let packed = {
                    let _s = obs::span("compress");
                    codec.compress_metered(&raw)
                };
                let path = self.path_for(snapshot.epoch);
                let tmp = self.tmp_path_for(snapshot.epoch);
                // A stale orphan from a crashed earlier attempt would block
                // the staging write; clear it first (write-once files).
                match self.dfs.delete(&tmp) {
                    Ok(_) | Err(DfsError::NotFound(_)) => {}
                    Err(e) => return Err(e.into()),
                }
                self.dfs.write(&tmp, &packed)?;
                if let Err(e) = self.dfs.rename(&tmp, &path) {
                    // Commit failed (e.g. the leaf already exists): don't
                    // leave the staging file behind.
                    let _ = self.dfs.delete(&tmp);
                    return Err(e.into());
                }
                Ok(StoredSnapshot {
                    epoch: snapshot.epoch,
                    path,
                    raw_bytes: raw.len() as u64,
                    stored_bytes: packed.len() as u64,
                })
            }
            Backend::Cas(cas) => {
                // Chunk, pack and commit; `stored_bytes` is this epoch's
                // pack + manifest.
                let receipt = match cas.put_epoch(snapshot.epoch.0, &raw) {
                    Ok(r) => r,
                    Err(CasError::AlreadyStored(_)) => {
                        return Err(StorageError::Dfs(DfsError::AlreadyExists(
                            self.path_for(snapshot.epoch),
                        )))
                    }
                    Err(e) => return Err(e.into()),
                };
                Ok(StoredSnapshot {
                    epoch: snapshot.epoch,
                    path: receipt.path,
                    raw_bytes: raw.len() as u64,
                    stored_bytes: receipt.new_bytes,
                })
            }
        }
    }

    /// Load and decode the snapshot of an epoch.
    pub fn load(&self, epoch: EpochId) -> Result<Snapshot, StorageError> {
        let text = self.load_text(epoch)?;
        let snap = parse_stage(|| Snapshot::from_bytes(&text))?;
        check_epoch(epoch, snap.epoch)?;
        Ok(snap)
    }

    /// Read the stored bytes of an epoch as they lie. For the path
    /// backend these are the compressed leaf bytes; the content-addressed
    /// backend reassembles and hash-verifies the raw payload, so what it
    /// returns is already decompressed.
    fn read_stored(&self, epoch: EpochId) -> Result<Vec<u8>, StorageError> {
        let start = std::time::Instant::now();
        obs::cost::touch_epoch(u64::from(epoch.0));
        let result = match &self.backend {
            Backend::Path { .. } => {
                let path = self.path_for(epoch);
                match self.dfs.read(&path) {
                    Ok(p) => Ok(p),
                    Err(DfsError::NotFound(_)) => Err(StorageError::Missing(epoch)),
                    Err(e) => Err(e.into()),
                }
            }
            Backend::Cas(cas) => Ok(cas.get_epoch(epoch.0)?),
        };
        obs::cost::add_stage_ns("read", start.elapsed().as_nanos() as u64);
        result
    }

    /// The serialized snapshot of an epoch ([`Snapshot::to_bytes`] text):
    /// read and decompressed, not parsed — [`Self::load`] parses all of
    /// it, an exploration query scans it for the rows and columns it
    /// selects (`RowPlan::scan_epoch`).
    pub fn load_text(&self, epoch: EpochId) -> Result<Vec<u8>, StorageError> {
        let stored = self.read_stored(epoch)?;
        match &self.backend {
            Backend::Path { codec } => {
                let _s = obs::span("decompress");
                let start = std::time::Instant::now();
                let text = codec.decompress_metered(&stored);
                obs::cost::add_stage_ns("decompress", start.elapsed().as_nanos() as u64);
                Ok(text?)
            }
            // The cas backend verified and decompressed on read.
            Backend::Cas(_) => Ok(stored),
        }
    }

    /// What a scan of `tables` reads of an epoch. The Path backend hands
    /// out the text ([`Self::load_text`]). The CAS backend opens the
    /// epoch and inflates, verifies and indexes the sections of `tables`
    /// and no other, under the `read` stage
    /// ([`cas::EpochReader::snapshot_columns`]: checked as the parser
    /// checks the same tables of the text, nothing lent before every table
    /// asked for has passed); what that does not read as columns it
    /// reassembles and hands out as text.
    pub(crate) fn read_rows(
        &self,
        epoch: EpochId,
        tables: &[TableKind],
    ) -> Result<EpochRows, StorageError> {
        let Backend::Cas(cas) = &self.backend else {
            return self.load_text(epoch).map(EpochRows::Text);
        };
        let start = std::time::Instant::now();
        obs::cost::touch_epoch(u64::from(epoch.0));
        let read = cas.open_epoch(epoch.0).and_then(|reader| {
            Ok(match reader.snapshot_columns(tables)? {
                Some(columns) => EpochRows::Columns(columns),
                None => EpochRows::Text(reader.assemble()?),
            })
        });
        obs::cost::add_stage_ns("read", start.elapsed().as_nanos() as u64);
        Ok(read?)
    }

    /// `ExplorationFramework::scan_rows` over this store, for RAW, SHAHED
    /// and SPATE alike: each of `epochs` is read ([`Self::read_rows`]) and
    /// its `table` rows lent to `visit`. Text is walked once
    /// ([`Snapshot::scan`], under the `parse` stage) and the rows lent as
    /// they lie in it, held back until the walk has accepted the whole
    /// snapshot and its header names `epoch`; a CAS epoch lends the rows
    /// of the one table it inflated. Either way an epoch that fails a
    /// check is skipped with none of its rows seen.
    pub fn scan_rows(
        &self,
        epochs: impl Iterator<Item = EpochId>,
        table: TableKind,
        visit: &mut dyn FnMut(EpochId, &[Row<'_>]),
    ) {
        let mut lend = |epoch, rows: &[Row<'_>]| {
            obs::cost::add_rows(rows.len() as u64, 0);
            visit(epoch, rows);
        };
        for epoch in epochs {
            match self.read_rows(epoch, &[table]) {
                Ok(EpochRows::Text(text)) => {
                    let walked = parse_stage(|| {
                        let mut rows = Vec::new();
                        let found = Snapshot::scan(&text, |kind, row| {
                            if kind == table {
                                rows.push(Row::Text(row));
                            }
                        })?;
                        check_epoch(epoch, found).map(|()| rows)
                    });
                    if let Ok(rows) = walked {
                        lend(epoch, &rows);
                    }
                }
                Ok(EpochRows::Columns(columns)) => {
                    let rows: Vec<Row<'_>> = parse_stage(|| {
                        let tables = columns.tables.iter();
                        let rows = tables.flat_map(|(_, t)| (0..t.rows()).map(|r| t.row(r)));
                        rows.collect()
                    });
                    lend(epoch, &rows);
                }
                Err(_) => {}
            }
        }
    }

    /// Evict the stored snapshot of an epoch (the decay fungus's file
    /// deletion). Returns freed logical bytes; 0 if it was already gone.
    /// Under the content-addressed backend this deletes the epoch's
    /// manifest, then its pack — decay *is* GC.
    pub fn evict(&self, epoch: EpochId) -> Result<u64, StorageError> {
        match &self.backend {
            Backend::Path { .. } => match self.dfs.delete(&self.path_for(epoch)) {
                Ok(n) => Ok(n),
                Err(DfsError::NotFound(_)) => Ok(0),
                Err(e) => Err(e.into()),
            },
            Backend::Cas(cas) => Ok(cas.drop_epoch(epoch.0)?),
        }
    }

    pub fn contains(&self, epoch: EpochId) -> bool {
        match &self.backend {
            Backend::Path { .. } => self.dfs.exists(&self.path_for(epoch)),
            Backend::Cas(cas) => cas.contains(epoch.0),
        }
    }

    /// Total stored (compressed, pre-replication) bytes under this root.
    /// Uncommitted `.tmp` staging files don't count — they are invisible
    /// to queries and reaped by recovery. The content-addressed backend
    /// counts packs + manifests (Merkle metadata excluded).
    pub fn stored_bytes(&self) -> u64 {
        match &self.backend {
            Backend::Path { .. } => self
                .dfs
                .list(&format!("{}/", self.root))
                .iter()
                .filter(|p| !p.ends_with(TMP_SUFFIX))
                .filter_map(|p| self.dfs.file_len(p).ok())
                .sum(),
            Backend::Cas(cas) => cas.listed_bytes(),
        }
    }

    /// The epochs with a committed leaf under this root, ascending: the
    /// inverse of [`Self::path_for`] over what the filesystem lists. For
    /// the content-addressed backend the leaves are the epoch manifests
    /// (packs and Merkle rollups are not leaves).
    pub fn committed_epochs(&self) -> Vec<EpochId> {
        let suffix = self.leaf_suffix();
        let skip_merkle = format!("{}/merkle/", self.root);
        let mut epochs: Vec<EpochId> = self
            .dfs
            .list(&format!("{}/", self.root))
            .iter()
            .filter(|p| !p.starts_with(&skip_merkle))
            .filter_map(|p| parse_leaf_epoch(p, suffix))
            .collect();
        epochs.sort_unstable();
        epochs
    }

    /// Orphaned staging files under this root (crashed ingests).
    pub fn orphan_tmp_paths(&self) -> Vec<String> {
        self.dfs
            .list(&format!("{}/", self.root))
            .into_iter()
            .filter(|p| p.ends_with(TMP_SUFFIX))
            .collect()
    }
}

/// Epoch encoded in a leaf path `<root>/<y>/<m>/<d>/<epoch:010><suffix>`.
fn parse_leaf_epoch(path: &str, suffix: &str) -> Option<EpochId> {
    let name = path.rsplit('/').next()?;
    let digits = name.strip_suffix(suffix)?;
    digits.parse::<u32>().ok().map(EpochId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use codecs::{GzipLite, Identity};
    use telco_trace::{TraceConfig, TraceGenerator};

    fn store_with(codec: Arc<dyn Codec>) -> SnapshotStore {
        SnapshotStore::new(Dfs::in_memory(), codec)
    }

    #[test]
    fn store_and_load_round_trip() {
        let store = store_with(Arc::new(GzipLite::default()));
        let mut generator = TraceGenerator::new(TraceConfig::tiny());
        let snap = generator.next_snapshot().unwrap();
        let stored = store.store(&snap).unwrap();
        assert_eq!(stored.epoch, snap.epoch);
        assert!(
            stored.stored_bytes < stored.raw_bytes,
            "telco text must compress"
        );
        assert!(stored.ratio() > 2.0);

        let loaded = store.load(snap.epoch).unwrap();
        // Loading is schema-on-read: numeric fields come back as text, so
        // compare the canonical wire forms.
        assert_eq!(loaded.to_bytes(), snap.to_bytes());
        assert_eq!(loaded.epoch, snap.epoch);
        assert!(store.contains(snap.epoch));
    }

    #[test]
    fn paths_follow_the_temporal_hierarchy() {
        let store = store_with(Arc::new(Identity));
        // Epoch 31 on day 0 → 2016-01-18.
        assert_eq!(
            store.path_for(EpochId(31)),
            "/spate/2016/01/18/0000000031.snap"
        );
        // Day 14 → 2016-02-01.
        assert_eq!(
            store.path_for(EpochId(14 * 48)),
            "/spate/2016/02/01/0000000672.snap"
        );
    }

    #[test]
    fn missing_snapshots_are_reported() {
        let store = store_with(Arc::new(Identity));
        assert!(matches!(
            store.load(EpochId(99)),
            Err(StorageError::Missing(EpochId(99)))
        ));
        assert!(!store.contains(EpochId(99)));
        // Evicting something never stored is a no-op.
        assert_eq!(store.evict(EpochId(99)).unwrap(), 0);
    }

    #[test]
    fn eviction_frees_space() {
        let store = store_with(Arc::new(GzipLite::default()));
        let mut generator = TraceGenerator::new(TraceConfig::tiny());
        let s0 = generator.next_snapshot().unwrap();
        let s1 = generator.next_snapshot().unwrap();
        store.store(&s0).unwrap();
        store.store(&s1).unwrap();
        let before = store.stored_bytes();
        let freed = store.evict(s0.epoch).unwrap();
        assert!(freed > 0);
        assert_eq!(store.stored_bytes(), before - freed);
        assert!(matches!(
            store.load(s0.epoch),
            Err(StorageError::Missing(_))
        ));
        assert!(store.load(s1.epoch).is_ok());
    }

    #[test]
    fn separate_roots_do_not_collide() {
        let fs = Dfs::in_memory();
        let a = SnapshotStore::new(fs.clone(), Arc::new(Identity)).with_root("/raw");
        let b = SnapshotStore::new(fs, Arc::new(GzipLite::default())).with_root("/spate");
        let mut generator = TraceGenerator::new(TraceConfig::tiny());
        let snap = generator.next_snapshot().unwrap();
        a.store(&snap).unwrap();
        b.store(&snap).unwrap();
        assert!(a.contains(snap.epoch) && b.contains(snap.epoch));
        assert!(a.stored_bytes() > b.stored_bytes(), "identity vs gzip");
    }

    #[test]
    fn store_commits_atomically_over_stale_orphans() {
        let store = store_with(Arc::new(GzipLite::default()));
        let mut generator = TraceGenerator::new(TraceConfig::tiny());
        let snap = generator.next_snapshot().unwrap();
        // Simulate a crashed earlier ingest: an orphaned staging file.
        let tmp = store.tmp_path_for(snap.epoch);
        store.dfs().write(&tmp, b"torn partial write").unwrap();
        // A retried store must replace the orphan and commit cleanly.
        store.store(&snap).unwrap();
        assert!(!store.dfs().exists(&tmp), "staging file must not survive");
        assert!(store.contains(snap.epoch));
        assert_eq!(store.load(snap.epoch).unwrap().to_bytes(), snap.to_bytes());
        assert!(store.orphan_tmp_paths().is_empty());
        assert_eq!(store.committed_epochs(), [snap.epoch]);
    }

    #[test]
    fn load_text_is_the_serialized_snapshot_on_both_backends() {
        let mut generator = TraceGenerator::new(TraceConfig::tiny());
        let snap = generator.next_snapshot().unwrap();
        for store in [
            store_with(Arc::new(GzipLite::default())),
            SnapshotStore::new_cas(Dfs::in_memory(), CasConfig::default()),
        ] {
            store.store(&snap).unwrap();
            assert_eq!(store.load_text(snap.epoch).unwrap(), snap.to_bytes());
        }
    }

    #[test]
    fn a_leaf_filed_under_another_epoch_is_not_served() {
        let store = store_with(Arc::new(GzipLite::default()));
        let mut generator = TraceGenerator::new(TraceConfig::tiny());
        let snap = generator.next_snapshot().unwrap();
        store.store(&snap).unwrap();
        // The committed leaf of epoch 0 turns up under epoch 5's path.
        let misfiled = EpochId(snap.epoch.0 + 5);
        let leaf = store.dfs().read(&store.path_for(snap.epoch)).unwrap();
        store.dfs().write(&store.path_for(misfiled), &leaf).unwrap();
        assert!(store.contains(misfiled));
        match store.load(misfiled) {
            Err(StorageError::WrongEpoch { asked, found }) => {
                assert_eq!((asked, found), (misfiled, snap.epoch));
            }
            other => panic!("served a misfiled leaf: {other:?}"),
        }
        assert!(store.load(snap.epoch).is_ok());
    }
}
