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
//!   Eviction deletes the manifest, then the pack.
//!
//! Either way the index, decay and query layers above see the same
//! store/load/evict surface, and a scan and [`SnapshotStore::load`] read
//! an epoch alike: `SnapshotStore::fetch` (every dfs read), then
//! `SnapshotStore::decode` (a Path leaf inflated into its text, a CAS
//! epoch's tables read as columns).
//!
//! A scan of a window — `Q(a, b, w)`'s exact branch, T1–T8 and SPATE-SQL —
//! reads its epochs through [`read_ahead`]: from four epochs on, a helper
//! thread reads, inflates and verifies epochs ahead while the caller scans
//! them, one at a time and in epoch order.

use cas::{CasConfig, CasError, CasRecoverReport, CasStore, SnapshotColumns};
use codecs::{Codec, CodecError};
use dfs::{Dfs, DfsError};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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

/// What a read of one epoch takes from the filesystem
/// ([`SnapshotStore::fetch`]): every dfs operation of the read is done,
/// what is left is CPU work ([`SnapshotStore::decode`]).
pub(crate) enum Fetched<'s> {
    /// A Path leaf as stored, and the codec that inflates it.
    Packed(&'s dyn Codec, Vec<u8>),
    /// A CAS epoch, opened: manifest and pack read and verified.
    Open(Box<cas::EpochReader<'s>>),
}

/// One stored epoch as a scan ([`SnapshotStore::read_ahead`]) or
/// [`SnapshotStore::load`] reads it.
pub(crate) enum EpochRows {
    /// A Path leaf: the serialized snapshot ([`Snapshot::to_bytes`] text).
    Text(Vec<u8>),
    /// A CAS epoch: the tables the scan asked for, held as columns.
    Columns(SnapshotColumns),
}

/// A scan's read of one epoch: its rows, or why it cannot be served.
pub(crate) type EpochRead = Result<EpochRows, StorageError>;

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
    /// decay-as-GC. It stores snapshots only, each as
    /// [`Snapshot::to_bytes`] writes it.
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

    /// The namespace root every file of this store lies under.
    pub(crate) fn root(&self) -> &str {
        &self.root
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

    /// Load and decode the snapshot of an epoch: the read a scan of both
    /// tables makes, then, under the `parse` stage, a Path leaf's text
    /// parsed (its header must name `epoch`) or a CAS epoch's records built
    /// from its verified columns — refused exactly when a scan of both its
    /// tables is.
    pub fn load(&self, epoch: EpochId) -> Result<Snapshot, StorageError> {
        let read = Self::decode(self.fetch(epoch)?, &[TableKind::Cdr, TableKind::Nms])?;
        parse_stage(|| match read {
            EpochRows::Text(text) => {
                let snap = Snapshot::from_bytes(&text)?;
                check_epoch(epoch, snap.epoch).map(|()| snap)
            }
            EpochRows::Columns(columns) => {
                let records = |i: usize| columns.tables[i].1.records();
                Ok(Snapshot::new(epoch, records(0), records(1)))
            }
        })
    }

    /// The first half of a read of an epoch, every filesystem operation
    /// of it: the Path leaf's bytes, or the CAS epoch opened (manifest and
    /// pack read and hash-verified), under the `read` stage.
    pub(crate) fn fetch(&self, epoch: EpochId) -> Result<Fetched<'_>, StorageError> {
        let start = std::time::Instant::now();
        obs::cost::touch_epoch(u64::from(epoch.0));
        let fetched = match &self.backend {
            Backend::Path { codec } => match self.dfs.read(&self.path_for(epoch)) {
                Ok(bytes) => Ok(Fetched::Packed(codec.as_ref(), bytes)),
                Err(DfsError::NotFound(_)) => Err(StorageError::Missing(epoch)),
                Err(e) => Err(e.into()),
            },
            Backend::Cas(cas) => match cas.open_epoch(epoch.0) {
                Ok(reader) => Ok(Fetched::Open(Box::new(reader))),
                Err(e) => Err(e.into()),
            },
        };
        obs::cost::add_stage_ns("read", start.elapsed().as_nanos() as u64);
        fetched
    }

    /// The second half: what a read of `tables` takes of the fetched
    /// epoch. A Path leaf is inflated into its text, under the `decompress`
    /// span and cost stage. A CAS epoch has the tables of `tables` and no
    /// other inflated, verified and indexed, under the `read` stage
    /// ([`cas::EpochReader::snapshot_columns`]: checked as the parser
    /// checks the same tables of the text, nothing lent before every table
    /// asked for has passed).
    pub(crate) fn decode(
        fetched: Fetched<'_>,
        tables: &[TableKind],
    ) -> Result<EpochRows, StorageError> {
        let reader = match fetched {
            Fetched::Packed(codec, bytes) => {
                let _s = obs::span("decompress");
                let start = std::time::Instant::now();
                let text = codec.decompress_metered(&bytes);
                obs::cost::add_stage_ns("decompress", start.elapsed().as_nanos() as u64);
                return Ok(EpochRows::Text(text?));
            }
            Fetched::Open(reader) => reader,
        };
        let start = std::time::Instant::now();
        let columns = reader.snapshot_columns(tables);
        obs::cost::add_stage_ns("read", start.elapsed().as_nanos() as u64);
        Ok(EpochRows::Columns(columns?))
    }

    /// Read `epochs` for a scan of `tables` and lend `scan` each epoch's
    /// read, in order, on this thread ([`read_ahead`] of [`Self::fetch`]
    /// and [`Self::decode`]): a long window is read ahead on a second
    /// thread while the caller scans.
    pub(crate) fn read_ahead<R>(
        &self,
        epochs: &[EpochId],
        tables: &[TableKind],
        scan: impl FnOnce(&mut dyn Iterator<Item = (EpochId, EpochRead)>) -> R,
    ) -> R {
        let fetch = |epoch| self.fetch(epoch);
        let decode = |_, fetched: Result<Fetched<'_>, _>| Self::decode(fetched?, tables);
        read_ahead(epochs, fetch, decode, scan)
    }

    /// `ExplorationFramework::scan_rows` over this store, for RAW, SHAHED
    /// and SPATE alike: each of `epochs` is read (`Self::read_ahead`:
    /// possibly ahead, on a second thread) and its `table` rows lent to
    /// `visit`, in epoch order on the caller's thread. Text is walked once
    /// ([`Snapshot::scan`], under the `parse` stage) and the rows lent as
    /// they lie in it, held back until the walk has accepted the whole
    /// snapshot and its header names `epoch`; a CAS epoch lends the rows
    /// of the one table it inflated. Either way an epoch that fails a
    /// check is skipped with none of its rows seen. Before each epoch an
    /// [`obs::budget`] checkpoint: once the request is cancelled or past
    /// its deadline, the rest of the window is not visited.
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
        let epochs: Vec<EpochId> = epochs.collect();
        self.read_ahead(&epochs, &[table], |reads| {
            while obs::budget::interrupted().is_none() {
                let Some((epoch, read)) = reads.next() else {
                    break;
                };
                match read {
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
        });
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

    /// The `stored_bytes` [`Self::store`] reported for a committed epoch,
    /// read back from the filesystem: its leaf, and a CAS epoch's pack.
    pub(crate) fn stored_len(&self, epoch: EpochId) -> u64 {
        let len = |path: &str| self.dfs.file_len(path).unwrap_or(0);
        let pack = self.cas().map_or(0, |cas| len(&cas.pack_path(epoch.0)));
        len(&self.path_for(epoch)) + pack
    }

    pub fn contains(&self, epoch: EpochId) -> bool {
        match &self.backend {
            Backend::Path { .. } => self.dfs.exists(&self.path_for(epoch)),
            Backend::Cas(cas) => cas.contains(epoch.0),
        }
    }

    /// Total stored (compressed, pre-replication) snapshot bytes under
    /// this root: the `.snap` leaves, or the packs and manifests of the
    /// content-addressed backend. Uncommitted `.tmp` staging files and
    /// anything else under the root, such as the framework's index image,
    /// don't count.
    pub fn stored_bytes(&self) -> u64 {
        match &self.backend {
            Backend::Path { .. } => self
                .dfs
                .list(&format!("{}/", self.root))
                .iter()
                .filter(|p| p.ends_with(self.leaf_suffix()))
                .filter_map(|p| self.dfs.file_len(p).ok())
                .sum(),
            Backend::Cas(cas) => cas.listed_bytes(),
        }
    }

    /// The epochs with a committed leaf under this root, ascending: the
    /// inverse of [`Self::path_for`] over what the filesystem lists. For
    /// the content-addressed backend the leaves are the epoch manifests
    /// (packs are not leaves).
    pub fn committed_epochs(&self) -> Vec<EpochId> {
        let suffix = self.leaf_suffix();
        let mut epochs: Vec<EpochId> = self
            .dfs
            .list(&format!("{}/", self.root))
            .iter()
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

// ------------------------------------------------------------- read-ahead

/// Windows of fewer epochs are read on the caller's thread alone: a
/// helper costs more to start than it could save on them.
pub const READ_AHEAD_MIN: usize = 4;

/// The most epochs a read-ahead holds, read or being read, the one the
/// scan holds included: what bounds the decoded bytes a long window keeps
/// in memory.
pub const READ_AHEAD_SLOTS: usize = 4;

/// Read each of `epochs` and lend it to `scan`, in epoch order, on this
/// thread. Reading an epoch is two steps: `fetch`, which does every
/// filesystem operation of the read, then `decode` of what it fetched
/// (inflate, verify, index).
///
/// A window of [`READ_AHEAD_MIN`] epochs or more is read by this thread
/// and one scoped helper thread, each claiming the next unread epoch from
/// one shared cursor:
///
/// - **Order.** `scan` gets every epoch once, in window order, on this
///   thread. The fetches run in window order too, whichever thread runs
///   them, so the filesystem sees the operations a one-thread scan
///   issues, in the same order.
/// - **No waiting on a late helper.** When the epoch `scan` asks for next
///   is unclaimed, this thread reads it itself. While the helper is
///   reading it, this thread reads the next unclaimed epoch ahead into
///   its slot, as the helper would; it waits only when the slots are
///   full.
/// - **Bounded.** The helper claims an epoch only while fewer than
///   [`READ_AHEAD_SLOTS`] epochs from the one the scan holds on are read
///   or being read.
/// - **Budget.** The helper runs in the caller's [`obs::context`] and
///   claims nothing once [`obs::budget::interrupted`] says stop; the
///   caller's checkpoint is its own loop's, before it asks for the next
///   epoch. When `scan` returns, the helper finishes at most the epoch it
///   is reading and is joined, and its cost profile joins the caller's.
/// - **Panics.** A read that panics on the helper panics on this thread
///   when `scan` reaches its epoch, as if it had been read here.
/// - **Nothing persistent.** The helper lives for one call; when it
///   cannot be spawned, this thread reads the whole window alone.
pub fn read_ahead<F, T: Send, R>(
    epochs: &[EpochId],
    fetch: impl Fn(EpochId) -> F + Sync,
    decode: impl Fn(EpochId, F) -> T + Sync,
    scan: impl FnOnce(&mut dyn Iterator<Item = (EpochId, T)>) -> R,
) -> R {
    if epochs.len() < READ_AHEAD_MIN {
        return scan(&mut epochs.iter().map(|&e| (e, decode(e, fetch(e)))));
    }
    let ahead = Ahead {
        epochs,
        fetch: &fetch,
        decode: &decode,
        state: Mutex::new(Claims {
            claimed: 0,
            fetched: 0,
            held: 0,
            slots: epochs.iter().map(|_| None).collect(),
            ended: false,
            sleepers: 0,
        }),
        changed: Condvar::new(),
    };
    let context = obs::context::capture();
    std::thread::scope(|s| {
        let helper = std::thread::Builder::new()
            .name("read-ahead".into())
            .spawn_scoped(s, || {
                let entered = context.enter();
                ahead.help();
                entered.leave()
            });
        let mut lender = Lender {
            ahead: &ahead,
            next: 0,
        };
        let scanned = scan(&mut lender);
        drop(lender);
        if let Ok(helper) = helper {
            match helper.join() {
                Ok(Some(profile)) => obs::cost::absorb(&profile),
                Ok(None) => {}
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        scanned
    })
}

/// The state a [`read_ahead`]'s two threads share.
struct Ahead<'a, FF, DF, T> {
    epochs: &'a [EpochId],
    fetch: &'a FF,
    decode: &'a DF,
    state: Mutex<Claims<T>>,
    /// Signalled when `state` changes while a thread waits on it: each
    /// thread waits only for the other.
    changed: Condvar,
}

/// Who has read what, by index into the window.
struct Claims<T> {
    /// Epochs claimed: the next unclaimed index.
    claimed: usize,
    /// Epochs fetched: the index whose fetch may start.
    fetched: usize,
    /// The epoch the scan holds, or asked for last: it is done with every
    /// one before.
    held: usize,
    /// What the helper read, until it is lent: the decoded epoch, or the
    /// panic its read raised.
    slots: Vec<Option<std::thread::Result<T>>>,
    /// The scan is over: nothing more is claimed or waited for.
    ended: bool,
    /// Threads waiting on `changed`.
    sleepers: u8,
}

impl<FF, DF, T> Ahead<'_, FF, DF, T> {
    /// Every update of the claims is one field assigned, so they are
    /// whole even after a panic elsewhere poisoned the lock.
    fn claims(&self) -> MutexGuard<'_, Claims<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'g>(&self, mut claims: MutexGuard<'g, Claims<T>>) -> MutexGuard<'g, Claims<T>> {
        claims.sleepers += 1;
        let mut claims = self
            .changed
            .wait(claims)
            .unwrap_or_else(PoisonError::into_inner);
        claims.sleepers -= 1;
        claims
    }

    /// Wake the other thread, if it waits, after `claims` changed.
    fn wake(&self, claims: &Claims<T>) {
        if claims.sleepers > 0 {
            self.changed.notify_all();
        }
    }
}

impl<F, T, FF, DF> Ahead<'_, FF, DF, T>
where
    FF: Fn(EpochId) -> F,
    DF: Fn(EpochId, F) -> T,
{
    /// Read epoch `i`, which this thread claimed: its fetch once every
    /// earlier epoch's fetch is done, then its decode, each catching a
    /// panic. `None` when the scan ended before the fetch's turn came.
    fn read(&self, i: usize) -> Option<std::thread::Result<T>> {
        let mut claims = self.claims();
        while claims.fetched < i {
            if claims.ended {
                return None;
            }
            claims = self.wait(claims);
        }
        drop(claims);
        let epoch = self.epochs[i];
        let fetched = catch_unwind(AssertUnwindSafe(|| (self.fetch)(epoch)));
        let mut claims = self.claims();
        claims.fetched = i + 1;
        self.wake(&claims);
        drop(claims);
        Some(fetched.and_then(|f| catch_unwind(AssertUnwindSafe(|| (self.decode)(epoch, f)))))
    }

    /// Claim the next unclaimed epoch to read ahead of the scan, if the
    /// slots and the budget allow.
    fn claim_ahead(&self, claims: &mut Claims<T>) -> Option<usize> {
        let allowed = claims.claimed < self.epochs.len()
            && claims.claimed < claims.held + READ_AHEAD_SLOTS
            && obs::budget::interrupted().is_none();
        allowed.then(|| {
            claims.claimed += 1;
            claims.claimed - 1
        })
    }

    /// Read epoch `j`, claimed ahead, into its slot. `false` when the scan
    /// ended first.
    fn read_into_slot(&self, j: usize) -> bool {
        let Some(read) = self.read(j) else {
            return false;
        };
        let mut claims = self.claims();
        claims.slots[j] = Some(read);
        // The scan waits for no other slot than the one of the epoch it
        // holds.
        if j == claims.held {
            self.wake(&claims);
        }
        true
    }

    /// The helper: read ahead while the slots and the budget allow, until
    /// the window is claimed or the scan is over. Every claim is filled
    /// (the read catches its panic) unless the scan is over.
    fn help(&self) {
        loop {
            let j = {
                let mut claims = self.claims();
                loop {
                    if claims.ended || claims.claimed == self.epochs.len() {
                        return;
                    }
                    if let Some(j) = self.claim_ahead(&mut claims) {
                        break j;
                    }
                    if obs::budget::interrupted().is_some() {
                        return;
                    }
                    claims = self.wait(claims);
                }
            };
            if !self.read_into_slot(j) {
                return;
            }
        }
    }
}

/// The scan's side of a [`read_ahead`]: the window's reads, in order.
/// Dropping it ends the read-ahead.
struct Lender<'l, 'a, FF, DF, T> {
    ahead: &'l Ahead<'a, FF, DF, T>,
    next: usize,
}

impl<F, T, FF, DF> Iterator for Lender<'_, '_, FF, DF, T>
where
    FF: Fn(EpochId) -> F,
    DF: Fn(EpochId, F) -> T,
{
    type Item = (EpochId, T);

    /// Epoch `i`: from its slot; read here if it is unclaimed; while the
    /// helper is reading it, this thread reads a later epoch ahead rather
    /// than wait, when it may.
    fn next(&mut self) -> Option<(EpochId, T)> {
        const OWN_TURN: &str =
            "the scan's own fetch has its turn: only the scan ends the read-ahead";
        let i = self.next;
        let epoch = *self.ahead.epochs.get(i)?;
        self.next += 1;
        let mut claims = self.ahead.claims();
        claims.held = i;
        self.ahead.wake(&claims);
        let read = loop {
            if let Some(read) = claims.slots[i].take() {
                break read;
            }
            if claims.claimed == i {
                claims.claimed += 1;
                drop(claims);
                break self.ahead.read(i).expect(OWN_TURN);
            }
            if let Some(j) = self.ahead.claim_ahead(&mut claims) {
                drop(claims);
                assert!(self.ahead.read_into_slot(j), "{OWN_TURN}");
                claims = self.ahead.claims();
                continue;
            }
            claims = self.ahead.wait(claims);
        };
        match read {
            Ok(read) => Some((epoch, read)),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl<FF, DF, T> Drop for Lender<'_, '_, FF, DF, T> {
    fn drop(&mut self) {
        let mut claims = self.ahead.claims();
        claims.ended = true;
        self.ahead.wake(&claims);
    }
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

    /// `load` on Path equals `load` on CAS equals the ingested snapshot
    /// (as its text reads back: every field `Str` or `Null`), night and
    /// busy epochs alike.
    #[test]
    fn load_reads_the_ingested_snapshot_on_both_backends() {
        let path = store_with(Arc::new(GzipLite::default()));
        let cas = SnapshotStore::new_cas(Dfs::in_memory(), CasConfig::default());
        for snap in TraceGenerator::new(TraceConfig::tiny()).step_by(11).take(5) {
            let ingested = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
            path.store(&snap).unwrap();
            cas.store(&snap).unwrap();
            let from_path = path.load(snap.epoch).unwrap();
            assert_eq!(from_path, ingested, "epoch {}", snap.epoch.0);
            assert_eq!(cas.load(snap.epoch).unwrap(), from_path);
        }
    }

    /// A CAS epoch `load` refuses is one a scan of both its tables
    /// refuses: here an NMS value that is not UTF-8.
    #[test]
    fn load_refuses_a_cas_epoch_a_scan_of_both_tables_refuses() {
        let store = SnapshotStore::new_cas(Dfs::in_memory(), CasConfig::default());
        let snap = TraceGenerator::new(TraceConfig::tiny()).next().unwrap();
        let mut raw = snap.to_bytes();
        let nms = raw.windows(10).position(|w| w == b"#TABLE NMS").unwrap();
        let line = nms + raw[nms..].iter().position(|&b| b == b'\n').unwrap() + 1;
        let value = line + raw[line..].iter().position(u8::is_ascii_digit).unwrap();
        raw[value] = 0xFF;
        store.cas().unwrap().put_epoch(snap.epoch.0, &raw).unwrap();
        let both = [TableKind::Cdr, TableKind::Nms];
        let scanned = SnapshotStore::decode(store.fetch(snap.epoch).unwrap(), &both);
        assert!(matches!(
            scanned,
            Err(StorageError::Cas(CasError::Corrupt(_)))
        ));
        assert!(matches!(
            store.load(snap.epoch),
            Err(StorageError::Cas(CasError::Corrupt(_)))
        ));
        let cdr = SnapshotStore::decode(store.fetch(snap.epoch).unwrap(), &both[..1]);
        assert!(cdr.is_ok(), "the CDR table alone reads");
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
