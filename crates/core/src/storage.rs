//! The SPATE storage (compression) layer.
//!
//! "The Storage layer passes newly arrived network snapshots through a
//! lossless compression process storing the results on a replicated big
//! data file system" (§IV). The layer owns only the *leaf pages* of the
//! SPATE index, organized in a `/spate/<year>/<month>/<day>/<epoch>`
//! directory hierarchy, through one of two backends:
//!
//! - **Path-addressed** (the default): one compressed `.snap` file per
//!   30-minute snapshot, a text of 72 KiB or more in two members of a
//!   codec that has members ([`codecs::table_parts`]): the header line
//!   and the CDR table, then the NMS table. The leaf still decompresses
//!   whole to the text.
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
//! `SnapshotStore::decode` of each of its pieces, one a table asked for:
//! a Path leaf's member inflated (the first member, which holds the
//! header that names the epoch, always), or a CAS table read as columns.
//! The read keeps the pieces as they came (`StoredRows`), and one walk
//! lends their rows.
//!
//! Every read of stored epochs — `Q(a, b, w)`'s exact branch, T1–T8,
//! SPATE-SQL and [`SnapshotStore::load`] — goes through [`read_ahead`]:
//! from two pieces on, and where a second core exists, a parked helper
//! thread fetches, inflates and verifies pieces beside the caller (a
//! window of two epochs or more, or one epoch's two tables), while the
//! caller scans whole epochs, one at a time and in epoch order.

use cas::{CasConfig, CasError, CasRecoverReport, CasStore};
use codecs::{Codec, CodecError};
use dfs::{Dfs, DfsError};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use telco_trace::schema::{cdr, nms, TableKind};
use telco_trace::snapshot::{ColumnTable, Row, Snapshot, SnapshotParseError, TextPart};
use telco_trace::time::EpochId;
use telco_trace::Record;

mod parked;

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
fn check_epoch(asked: EpochId, found: EpochId) -> Result<(), StorageError> {
    if found == asked {
        Ok(())
    } else {
        Err(StorageError::WrongEpoch { asked, found })
    }
}

/// Run `parse` under the `parse` stage.
fn parse_stage<T>(parse: impl FnOnce() -> T) -> T {
    let _s = obs::stage("parse");
    parse()
}

/// What a read of one epoch takes from the filesystem
/// ([`SnapshotStore::fetch`]): every dfs operation of the read is done,
/// what is left is CPU work, piece by piece ([`SnapshotStore::decode`]).
enum Fetched<'s> {
    /// A Path leaf as stored, the codec that inflates it and the length
    /// of its first member ([`Codec::members`]).
    Packed(&'s dyn Codec, Vec<u8>, usize),
    /// A CAS epoch, opened: its pack read and verified against the
    /// manifest the store holds.
    Open(Box<cas::EpochReader<'s>>),
}

/// A scan's read of one epoch: its rows, or why it cannot be served.
type EpochRead = Result<StoredRows, StorageError>;

/// What a scan read of one stored epoch ([`SnapshotStore::read_ahead`]),
/// whichever way it is stored: its pieces as they were decoded, in order
/// ([`SnapshotStore::decode`]), whose rows are reached through
/// [`Self::walk`] alone.
pub(crate) struct StoredRows(Vec<Piece>);

impl StoredRows {
    /// Lend `visit` every row of the tables read, CDR before NMS and in
    /// stored order, under the `parse` stage, and return how many: the
    /// rows of the tables read, whichever way the epoch is stored. A Path
    /// leaf's members are scanned one by one ([`TextPart::scan`]) once the
    /// first one's header names `epoch`; a CAS epoch's columns are whole
    /// and checked. On an `Err` the rows lent belong to text that is
    /// refused, and the caller discards them.
    pub(crate) fn walk<'s>(
        &'s self,
        epoch: EpochId,
        mut visit: impl FnMut(TableKind, Row<'s>),
    ) -> Result<u64, StorageError> {
        parse_stage(|| {
            self.check(epoch)?;
            self.0.iter().map(|piece| piece.walk(&mut visit)).sum()
        })
    }

    /// The records of both tables, CDR then NMS, under the `parse` stage,
    /// as `Snapshot::from_bytes` builds them of the text: a member's rows
    /// as [`Self::walk`] lends them, a CAS table's column by column
    /// ([`ColumnTable::records`]; a record of each lent row loaded 48 CAS
    /// epochs at 1/64 ~20 % slower).
    fn records(&self, epoch: EpochId) -> Result<[Vec<Record>; 2], StorageError> {
        let at = |table| usize::from(table == TableKind::Nms);
        parse_stage(|| {
            self.check(epoch)?;
            let mut tables = [Vec::new(), Vec::new()];
            for piece in &self.0 {
                if let Piece::Table(table, columns) = piece {
                    tables[at(*table)] = columns.records();
                    continue;
                }
                piece.walk(&mut |table, row| {
                    let width = [cdr::WIDTH, nms::WIDTH][at(table)];
                    tables[at(table)].push(row.record(width));
                })?;
            }
            Ok(tables)
        })
    }

    /// A Path leaf's text is served only as the epoch its first member's
    /// header names.
    fn check(&self, epoch: EpochId) -> Result<(), StorageError> {
        let Some(Piece::Text(head)) = self.0.first() else {
            return Ok(());
        };
        let named = head
            .epoch()
            .expect("a leaf's first member holds its header");
        check_epoch(epoch, named)
    }

    /// A Path leaf's read of `tables` when its one member is `text`.
    #[cfg(test)]
    pub(crate) fn text(text: Vec<u8>, tables: &[TableKind]) -> EpochRead {
        let part = TextPart::new(text, true, &SECTIONS, tables)?;
        Ok(StoredRows(vec![Piece::Text(part)]))
    }
}

/// The table sections of a snapshot's text, in order.
static SECTIONS: [TableKind; 2] = [TableKind::Cdr, TableKind::Nms];

/// One piece of an epoch's read ([`SnapshotStore::decode`]).
enum Piece {
    /// A member of a Path leaf, inflated.
    Text(TextPart),
    /// One table of a CAS epoch, as columns.
    Table(TableKind, ColumnTable),
}

impl Piece {
    /// Lend `visit` the piece's rows, in stored order, and return how
    /// many.
    fn walk<'s>(&'s self, visit: &mut impl FnMut(TableKind, Row<'s>)) -> Result<u64, StorageError> {
        match self {
            Piece::Text(part) => Ok(part.scan(|table, row| visit(table, Row::Text(row)))?),
            Piece::Table(table, rows) => {
                (0..rows.rows()).for_each(|r| visit(*table, rows.row(r)));
                Ok(rows.rows() as u64)
            }
        }
    }
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

/// How snapshot bytes land on the filesystem.
#[derive(Clone)]
enum Backend {
    /// One compressed file per epoch at its leaf path, written one member
    /// a table where the codec has a per-table form, `tables` its name
    /// ([`codecs::by_name`]).
    Path {
        codec: Arc<dyn Codec>,
        tables: Option<&'static str>,
    },
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
        let tables = codecs::by_name(&format!("{}/tables", codec.name())).map(|c| c.name());
        Self {
            dfs,
            backend: Backend::Path { codec, tables },
            root: "/spate".to_string(),
        }
    }

    /// Content-addressed store under `/spate`: verified packs, Merkle
    /// manifests, decay-as-GC. It stores snapshots only, each as
    /// [`Snapshot::to_bytes`] writes it.
    pub fn new_cas(dfs: Dfs, mut cfg: CasConfig) -> Self {
        cfg.root = "/spate".to_string();
        Self {
            dfs: dfs.clone(),
            backend: Backend::Cas(CasStore::new(dfs, cfg)),
            root: "/spate".to_string(),
        }
    }

    /// Namespace a Path store under a different root (for side-by-side
    /// frameworks on one filesystem).
    pub fn with_root(mut self, root: &str) -> Self {
        assert!(self.cas().is_none(), "a CAS store's root is set by new_cas");
        self.root = root.trim_end_matches('/').to_string();
        self
    }

    /// The name [`codecs::by_name`] knows the codec under that writes
    /// this store's leaves: its `compress` of [`Snapshot::to_bytes`] is a
    /// Path leaf (`gzip-lite/tables` for gzip-lite).
    pub fn codec_name(&self) -> &'static str {
        match &self.backend {
            Backend::Path { codec, tables } => tables.unwrap_or(codec.name()),
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

    /// The leaf path of an epoch, [`EpochId::leaf_path`] under this root:
    /// `/spate/<y>/<m>/<d>/<epoch>.snap` (`.mf` on the CAS backend).
    pub fn path_for(&self, epoch: EpochId) -> String {
        epoch.leaf_path(&self.root, self.leaf_suffix())
    }

    /// The staging path a snapshot is written to before commit.
    pub fn tmp_path_for(&self, epoch: EpochId) -> String {
        dfs::staging_path(&self.path_for(epoch))
    }

    /// Serialize, compress and persist one snapshot: a Path leaf is its
    /// [`Snapshot::to_bytes`] text compressed, from
    /// [`codecs::TABLE_MEMBERS_FROM`] bytes on as two members where the
    /// codec has members: the header and CDR table, then the NMS table
    /// ([`codecs::table_parts`]); a CAS epoch its column image
    /// ([`CasStore::put_snapshot`]), written with no text at all.
    ///
    /// Crash-consistent: a Path leaf is committed by [`Dfs::write_staged`]
    /// (a CAS epoch's manifest likewise). A crash mid-write leaves either
    /// nothing or an orphaned staging file that the recovery scan
    /// ([`crate::framework::SpateFramework::restore`]) deletes — readers
    /// can never observe a torn leaf.
    ///
    /// Each stage opens a tracing span ("segment" → "compress" →
    /// "dfs.write", the last inside the dfs crate; `cas.put` and its
    /// stages on the CAS backend) so the flame table attributes ingestion
    /// wall time per stage.
    pub fn store(&self, snapshot: &Snapshot) -> Result<StoredSnapshot, StorageError> {
        match &self.backend {
            Backend::Path { codec, tables } => {
                let raw = {
                    let _s = obs::span("segment");
                    snapshot.to_bytes()
                };
                let packed = {
                    let _s = obs::span("compress");
                    match tables {
                        Some(_) => codec.compress_metered(&codecs::table_parts(&raw)),
                        None => codec.compress_metered(&[&raw]),
                    }
                };
                let path = self.path_for(snapshot.epoch);
                self.dfs.write_staged(&path, &packed)?;
                Ok(StoredSnapshot {
                    epoch: snapshot.epoch,
                    path,
                    raw_bytes: raw.len() as u64,
                    stored_bytes: packed.len() as u64,
                })
            }
            Backend::Cas(cas) => {
                // The column image, written from the records (no text),
                // packed and committed; `stored_bytes` is this epoch's
                // pack + manifest.
                let receipt = match cas.put_snapshot(snapshot) {
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
                    raw_bytes: receipt.raw_len,
                    stored_bytes: receipt.new_bytes,
                })
            }
        }
    }

    /// Load and decode the snapshot of an epoch: the read a scan of both
    /// tables makes ([`read_ahead`] of the one epoch), made records
    /// (`StoredRows::records`) — refused exactly when a scan of both its
    /// tables is.
    ///
    /// A Path leaf is loaded on the calling thread alone, so that a traced
    /// request's spans come in the same order from run to run (with a
    /// helper, `repro trace`'s twice-run span order differed).
    pub fn load(&self, epoch: EpochId) -> Result<Snapshot, StorageError> {
        let helpers = helpers().filter(|_| self.cas().is_some());
        let read = self.read_on(helpers, &[epoch], &SECTIONS, |reads| {
            reads.next().expect("a read of the one epoch").1
        })?;
        let [cdr, nms] = read.records(epoch)?;
        Ok(Snapshot::new(epoch, cdr, nms))
    }

    /// The first half of a read of an epoch, every filesystem operation
    /// of it: the Path leaf's bytes, or the CAS epoch opened (its pack
    /// read and hash-verified), under the `read` stage.
    fn fetch(&self, epoch: EpochId) -> Result<Fetched<'_>, StorageError> {
        let _s = obs::stage("read");
        obs::cost::touch_epoch(u64::from(epoch.0));
        match &self.backend {
            Backend::Path { codec, .. } => match self.dfs.read(&self.path_for(epoch)) {
                Ok(bytes) => {
                    let first = codec.members(&bytes)[0].len();
                    Ok(Fetched::Packed(codec.as_ref(), bytes, first))
                }
                Err(DfsError::NotFound(_)) => Err(StorageError::Missing(epoch)),
                Err(e) => Err(e.into()),
            },
            Backend::Cas(cas) => match cas.open_epoch(epoch.0) {
                Ok(reader) => Ok(Fetched::Open(Box::new(reader))),
                Err(e) => Err(e.into()),
            },
        }
    }

    /// How many pieces a read of `tables` decodes of an epoch: a CAS
    /// epoch one per table asked for; a Path leaf its first member, which
    /// holds the header, and its second when NMS is asked for and the
    /// codec writes members (a leaf of one member is read whole by the
    /// first piece, and the second finds nothing to read).
    fn pieces(&self, tables: &[TableKind]) -> usize {
        match &self.backend {
            Backend::Path {
                tables: per_table, ..
            } => 1 + usize::from(per_table.is_some() && tables.contains(&TableKind::Nms)),
            Backend::Cas(_) => cas::stored_tables(tables).count(),
        }
    }

    /// The second half, one piece at a time: piece `piece` of what a read
    /// of `tables` takes of the fetched epoch. A Path leaf's piece 0 is its
    /// first member, piece 1 the members after it ([`Codec::members`]),
    /// each inflated under the `decompress` stage and taken as a
    /// [`TextPart`] (UTF-8 and header checked) under the `parse` stage,
    /// to be scanned by [`StoredRows::walk`]; a leaf of one member is read
    /// whole by piece 0, and its piece 1 is `None`. A CAS epoch's piece
    /// `i` is the `i`-th table of `tables` in stored order inflated,
    /// verified and indexed, under the `read` stage
    /// ([`cas::EpochReader::table`]: checked as the parser checks the same
    /// table of the text).
    fn decode(
        fetched: &Fetched<'_>,
        tables: &[TableKind],
        piece: usize,
    ) -> Result<Option<Piece>, StorageError> {
        match fetched {
            Fetched::Packed(codec, bytes, first) => {
                let (first, rest) = bytes.split_at(*first);
                let (member, head, sections) = match piece {
                    0 if rest.is_empty() => (first, true, &SECTIONS[..]),
                    0 => (first, true, &SECTIONS[..1]),
                    _ if rest.is_empty() => return Ok(None),
                    _ => (rest, false, &SECTIONS[1..]),
                };
                let text = {
                    let _s = obs::stage("decompress");
                    codec.decompress_metered(member)?
                };
                let part = parse_stage(|| TextPart::new(text, head, sections, tables))?;
                Ok(Some(Piece::Text(part)))
            }
            Fetched::Open(reader) => {
                let _s = obs::stage("read");
                let (at, kind) = cas::stored_tables(tables)
                    .nth(piece)
                    .expect("a piece per table asked for");
                Ok(Some(Piece::Table(kind, reader.table(at)?)))
            }
        }
    }

    /// Read `epochs` for a scan of `tables` and lend `scan` each epoch's
    /// read, in order, on this thread ([`read_ahead`] of [`Self::fetch`]
    /// and the pieces of [`Self::decode`]): a window of two pieces or more
    /// — two epochs, or one epoch's two tables — is read on two threads
    /// while the caller scans.
    pub(crate) fn read_ahead<R>(
        &self,
        epochs: &[EpochId],
        tables: &[TableKind],
        scan: impl FnOnce(&mut dyn Iterator<Item = (EpochId, EpochRead)>) -> R,
    ) -> R {
        self.read_on(helpers(), epochs, tables, scan)
    }

    /// [`Self::read_ahead`], with a helper only from `helpers`. Each epoch's
    /// read is its pieces as they were decoded; the first that failed
    /// refuses the whole epoch, so nothing of an epoch is lent before
    /// every piece of it has passed. A window of one Path epoch fetches
    /// its leaf first: a leaf of one member, or a missing one, is then one
    /// piece, which takes no helper.
    fn read_on<R>(
        &self,
        helpers: Option<&parked::Helpers>,
        epochs: &[EpochId],
        tables: &[TableKind],
        scan: impl FnOnce(&mut dyn Iterator<Item = (EpochId, EpochRead)>) -> R,
    ) -> R {
        let mut pieces = self.pieces(tables);
        let first = match epochs {
            [epoch] if pieces > 1 && self.cas().is_none() => Some(self.fetch(*epoch)),
            _ => None,
        };
        if let Some(fetched) = &first {
            if !matches!(fetched, Ok(Fetched::Packed(_, bytes, first)) if *first < bytes.len()) {
                pieces = 1;
            }
        }
        let first = Mutex::new(first);
        let fetch = |epoch| {
            let fetched = first.lock().unwrap_or_else(PoisonError::into_inner).take();
            fetched.unwrap_or_else(|| self.fetch(epoch))
        };
        let decode = |fetched: &Result<Fetched<'_>, StorageError>, piece| {
            let fetched = fetched.as_ref().ok()?;
            Self::decode(fetched, tables, piece).transpose()
        };
        read_ahead_on(helpers, epochs, pieces, fetch, decode, |reads| {
            scan(&mut reads.map(|(epoch, fetched, pieces)| {
                let pieces = pieces.into_iter().flatten();
                let read = fetched.and_then(|_| pieces.collect::<Result<_, _>>().map(StoredRows));
                (epoch, read)
            }))
        })
    }

    /// `ExplorationFramework::scan_rows` over this store, for RAW, SHAHED
    /// and SPATE alike: each of `epochs` is read (`Self::read_ahead`:
    /// possibly ahead, on a second thread) and its `table` rows lent to
    /// `visit`, in epoch order on the caller's thread. The rows are those
    /// `StoredRows::walk` lends, as they lie in the text or the columns,
    /// held back until the walk has accepted the whole epoch: an epoch
    /// that fails a check is skipped with none of its rows seen. Before
    /// each epoch an [`obs::budget`] checkpoint: once the request is
    /// cancelled or past its deadline, the rest of the window is not
    /// visited.
    pub fn scan_rows(
        &self,
        epochs: impl Iterator<Item = EpochId>,
        table: TableKind,
        visit: &mut dyn FnMut(EpochId, &[Row<'_>]),
    ) {
        let epochs: Vec<EpochId> = epochs.collect();
        self.read_ahead(&epochs, &[table], |reads| {
            while obs::budget::interrupted().is_none() {
                let Some((epoch, read)) = reads.next() else {
                    break;
                };
                let Ok(stored) = read else { continue };
                let mut rows = Vec::new();
                let walked = stored.walk(epoch, |kind, row| {
                    if kind == table {
                        rows.push(row);
                    }
                });
                if walked.is_ok() {
                    obs::cost::add_rows(rows.len() as u64, 0);
                    visit(epoch, &rows);
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
            .filter_map(|p| EpochId::of_leaf_path(p, suffix))
            .collect();
        epochs.sort_unstable();
        epochs
    }
}

// ------------------------------------------------------------- read-ahead

/// The most epochs a read-ahead holds, read or being read, the one the
/// scan holds included: what bounds the decoded bytes a long window keeps
/// in memory.
pub const READ_AHEAD_SLOTS: usize = 4;

/// Read each of `epochs` and lend it to `scan`, in epoch order, on this
/// thread, as `(epoch, what fetch returned, every piece decoded)`. Reading
/// an epoch is `fetch`, which does every filesystem operation of the read,
/// then `pieces` pieces of CPU work on what it fetched, `decode(&fetched,
/// p)` for each `p` in `0..pieces`: one table of a CAS epoch (inflate,
/// verify, index) or one member of a Path leaf (inflate, check). The unit
/// of work is a piece, and an epoch's first piece does its fetch before it
/// decodes.
///
/// Where the process has a second core (`helpers`), a window of two
/// pieces or more is read by this thread and one helper thread,
/// each claiming the next unclaimed piece from one shared cursor, in
/// window order:
///
/// - **Order.** `scan` gets every epoch once, whole, in window order, on
///   this thread. The fetches run once per epoch and in window order,
///   whichever thread runs them, so the filesystem sees the operations a
///   one-thread scan issues, in the same order; both threads decode the
///   pieces of a fetched epoch from the one fetched value, by reference.
/// - **No waiting on a late helper.** When the epoch `scan` asks for next
///   has an unclaimed piece, this thread decodes it itself. While the
///   helper decodes one, this thread decodes the next unclaimed piece
///   ahead, as the helper would; it waits only when the slots are full.
/// - **Bounded.** A piece is claimed only while its epoch is one of the
///   [`READ_AHEAD_SLOTS`] from the one the scan holds on.
/// - **Budget.** The helper runs in the caller's [`obs::context`] and
///   claims nothing once [`obs::budget::interrupted`] says stop; this
///   thread's checkpoint is `scan`'s own, before it asks for the next
///   epoch, and once it has asked, the epoch is read whole. When `scan`
///   returns, the helper finishes at most the piece it is decoding and
///   this thread waits for it, and its cost profile joins the caller's.
/// - **Panics.** A fetch or a piece that panics, on either thread, panics
///   on this thread when `scan` reaches its epoch, as if it had been read
///   here.
/// - **No nesting.** `fetch` and `decode` start no thread: the pieces are
///   the only parallelism of a read, which takes two threads at most.
/// - **Parked helpers.** The helper is one of the process's parked
///   threads, an idle one or one parked anew when every other is held (a
///   read nested in this one's scan takes a second); when none can be
///   spawned, or there is no second core for it, this thread reads the
///   whole window alone, in the same order.
pub fn read_ahead<F: Send + Sync, P: Send, R>(
    epochs: &[EpochId],
    pieces: usize,
    fetch: impl Fn(EpochId) -> F + Sync,
    decode: impl Fn(&F, usize) -> P + Sync,
    scan: impl FnOnce(&mut dyn Iterator<Item = (EpochId, F, Vec<P>)>) -> R,
) -> R {
    read_ahead_on(helpers(), epochs, pieces, fetch, decode, scan)
}

/// The helpers a read may take: the process's parked ones, where it has a
/// second core for them to run on. The cores are
/// [`std::thread::available_parallelism`], which honours the affinity
/// mask (`taskset -c 0` reads 1), read once per process. On one core a
/// helper would only add a hand-over to the read.
fn helpers() -> Option<&'static parked::Helpers> {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    (*cores >= 2).then_some(&parked::HELPERS)
}

/// [`read_ahead`], with a helper only from `helpers`.
fn read_ahead_on<F: Send + Sync, P: Send, R>(
    helpers: Option<&parked::Helpers>,
    epochs: &[EpochId],
    pieces: usize,
    fetch: impl Fn(EpochId) -> F + Sync,
    decode: impl Fn(&F, usize) -> P + Sync,
    scan: impl FnOnce(&mut dyn Iterator<Item = (EpochId, F, Vec<P>)>) -> R,
) -> R {
    let ahead = Ahead {
        epochs,
        pieces,
        per_epoch: pieces.max(1),
        fetch: &fetch,
        decode: &decode,
        state: Mutex::new(Claims {
            claimed: 0,
            fetched: 0,
            held: 0,
            slots: epochs
                .iter()
                .map(|_| Slot {
                    fetched: None,
                    pieces: (0..pieces).map(|_| None).collect(),
                })
                .collect(),
            ended: false,
            sleepers: 0,
        }),
        changed: Condvar::new(),
    };
    let ahead = &ahead;
    let scan = || {
        let mut lender = Lender { ahead, next: 0 };
        let scanned = scan(&mut lender);
        drop(lender);
        scanned
    };
    let Some(helpers) = helpers.filter(|_| epochs.len() * pieces >= 2) else {
        return scan();
    };
    let context = obs::context::capture();
    // What the helper left: its cost profile, or the panic it raised.
    let helped_out = Mutex::new(None);
    let help: &parked::Job = &|| {
        let out = catch_unwind(AssertUnwindSafe(|| {
            let entered = context.enter();
            obs::trace::event("read-ahead", &[]);
            ahead.help();
            entered.leave()
        }));
        *helped_out.lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
    };
    let scanned = helpers.beside(help, scan);
    match helped_out
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        Some(Ok(Some(profile))) => obs::cost::absorb(&profile),
        Some(Ok(None)) | None => {}
        Some(Err(panic)) => std::panic::resume_unwind(panic),
    }
    scanned
}

/// The state a [`read_ahead`]'s two threads share.
struct Ahead<'a, FF, DF, F, P> {
    epochs: &'a [EpochId],
    /// Pieces of each epoch's decode.
    pieces: usize,
    /// Work items of each epoch: its pieces, or its fetch alone.
    per_epoch: usize,
    fetch: &'a FF,
    decode: &'a DF,
    state: Mutex<Claims<F, P>>,
    /// Signalled when `state` changes while a thread waits on it: each
    /// thread waits only for the other.
    changed: Condvar,
}

/// Who has read what. Work item `k` is piece `k % per_epoch` of epoch
/// `k / per_epoch`, and epochs are indices into the window.
struct Claims<F, P> {
    /// Work items claimed: the next unclaimed one.
    claimed: usize,
    /// Epochs fetched: the index whose fetch may start.
    fetched: usize,
    /// The epoch the scan holds, or asked for last: it is done with every
    /// one before.
    held: usize,
    /// What each epoch's work left, until it is lent.
    slots: Vec<Slot<F, P>>,
    /// The scan is over: nothing more is claimed or waited for.
    ended: bool,
    /// Threads waiting on `changed`.
    sleepers: u8,
}

/// One epoch's read, as far as it has come.
struct Slot<F, P> {
    /// What its fetch returned, shared with the pieces decoding it, or the
    /// panic the fetch raised.
    fetched: Option<std::thread::Result<Arc<F>>>,
    /// Each piece decoded, or the panic it raised.
    pieces: Vec<Option<std::thread::Result<P>>>,
}

impl<F, P> Slot<F, P> {
    /// The whole read, once it is done: what was fetched and every piece
    /// decoded, or the first panic of the fetch and the pieces.
    fn take(&mut self) -> Option<std::thread::Result<(F, Vec<P>)>> {
        let done = match self.fetched.as_ref()? {
            Ok(_) => self.pieces.iter().all(Option::is_some),
            Err(_) => true,
        };
        if !done {
            return None;
        }
        let read = self.fetched.take()?.and_then(|fetched| {
            let pieces = self.pieces.drain(..).flatten();
            let pieces = pieces.collect::<std::thread::Result<Vec<P>>>()?;
            let fetched = Arc::into_inner(fetched);
            Ok((fetched.expect("every piece let go of its fetch"), pieces))
        });
        Some(read)
    }
}

impl<FF, DF, F, P> Ahead<'_, FF, DF, F, P> {
    /// Every update of the claims is one field assigned, so they are
    /// whole even after a panic elsewhere poisoned the lock.
    fn claims(&self) -> MutexGuard<'_, Claims<F, P>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'g>(&self, mut claims: MutexGuard<'g, Claims<F, P>>) -> MutexGuard<'g, Claims<F, P>> {
        claims.sleepers += 1;
        let mut claims = self
            .changed
            .wait(claims)
            .unwrap_or_else(PoisonError::into_inner);
        claims.sleepers -= 1;
        claims
    }

    /// Wake the other thread, if it waits, after `claims` changed.
    fn wake(&self, claims: &Claims<F, P>) {
        if claims.sleepers > 0 {
            self.changed.notify_all();
        }
    }

    /// Claim the next unclaimed work item to do ahead of the scan, if the
    /// slots and the budget allow.
    fn claim_ahead(&self, claims: &mut Claims<F, P>) -> Option<usize> {
        let allowed = claims.claimed < self.epochs.len() * self.per_epoch
            && claims.claimed / self.per_epoch < claims.held + READ_AHEAD_SLOTS
            && obs::budget::interrupted().is_none();
        allowed.then(|| {
            claims.claimed += 1;
            claims.claimed - 1
        })
    }
}

impl<FF, DF, F, P> Ahead<'_, FF, DF, F, P>
where
    FF: Fn(EpochId) -> F,
    DF: Fn(&F, usize) -> P,
{
    /// Do work item `k`, which this thread claimed, into its epoch's slot:
    /// the epoch's fetch first if `k` is its first item, once every earlier
    /// epoch's fetch is done, then piece `p` of what was fetched, each
    /// catching a panic. `false` when the scan ended before the item could
    /// start.
    fn work(&self, k: usize) -> bool {
        let (i, p) = (k / self.per_epoch, k % self.per_epoch);
        let mut claims = self.claims();
        if p == 0 {
            while claims.fetched < i {
                if claims.ended {
                    return false;
                }
                claims = self.wait(claims);
            }
            drop(claims);
            let fetched = catch_unwind(AssertUnwindSafe(|| (self.fetch)(self.epochs[i])));
            claims = self.claims();
            claims.slots[i].fetched = Some(fetched.map(Arc::new));
            claims.fetched = i + 1;
            self.wake(&claims);
            if self.pieces == 0 {
                return true;
            }
        }
        let fetched = loop {
            match &claims.slots[i].fetched {
                Some(Ok(fetched)) => break Arc::clone(fetched),
                // The fetch panicked: there is nothing to decode.
                Some(Err(_)) => return true,
                None if claims.ended => return false,
                None => claims = self.wait(claims),
            }
        };
        drop(claims);
        let decoded = catch_unwind(AssertUnwindSafe(|| (self.decode)(&fetched, p)));
        drop(fetched);
        let mut claims = self.claims();
        claims.slots[i].pieces[p] = Some(decoded);
        // The scan waits for no other epoch than the one it holds.
        if i == claims.held {
            self.wake(&claims);
        }
        true
    }

    /// The helper: work ahead while the slots and the budget allow, until
    /// the window is claimed or the scan is over. Every claim is done
    /// (the work catches its panics) unless the scan is over.
    fn help(&self) {
        loop {
            let k = {
                let mut claims = self.claims();
                loop {
                    if claims.ended || claims.claimed == self.epochs.len() * self.per_epoch {
                        return;
                    }
                    if let Some(k) = self.claim_ahead(&mut claims) {
                        break k;
                    }
                    if obs::budget::interrupted().is_some() {
                        return;
                    }
                    claims = self.wait(claims);
                }
            };
            if !self.work(k) {
                return;
            }
        }
    }
}

/// The scan's side of a [`read_ahead`]: the window's reads, in order.
/// Dropping it ends the read-ahead.
struct Lender<'l, 'a, FF, DF, F, P> {
    ahead: &'l Ahead<'a, FF, DF, F, P>,
    next: usize,
}

impl<FF, DF, F, P> Iterator for Lender<'_, '_, FF, DF, F, P>
where
    FF: Fn(EpochId) -> F,
    DF: Fn(&F, usize) -> P,
{
    type Item = (EpochId, F, Vec<P>);

    /// Epoch `i`, once its slot holds the whole read: this thread does
    /// each of its unclaimed items itself, and while the helper does one,
    /// it works ahead rather than wait, when it may.
    fn next(&mut self) -> Option<(EpochId, F, Vec<P>)> {
        const OWN_TURN: &str =
            "the scan's own fetch has its turn: only the scan ends the read-ahead";
        let i = self.next;
        let epoch = *self.ahead.epochs.get(i)?;
        self.next += 1;
        let own_items = (i + 1) * self.ahead.per_epoch;
        let mut claims = self.ahead.claims();
        claims.held = i;
        self.ahead.wake(&claims);
        let read = loop {
            if let Some(read) = claims.slots[i].take() {
                break read;
            }
            let k = if claims.claimed < own_items {
                claims.claimed += 1;
                claims.claimed - 1
            } else if let Some(k) = self.ahead.claim_ahead(&mut claims) {
                k
            } else {
                claims = self.ahead.wait(claims);
                continue;
            };
            drop(claims);
            assert!(self.ahead.work(k), "{OWN_TURN}");
            claims = self.ahead.claims();
        };
        match read {
            Ok((fetched, pieces)) => Some((epoch, fetched, pieces)),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl<FF, DF, F, P> Drop for Lender<'_, '_, FF, DF, F, P> {
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
        assert_eq!(store.dfs().sweep_staging("/spate/"), 0);
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
    /// refuses: here one whose stored manifest gives the NMS table a row
    /// more than its run holds (the manifest is trusted by its own hash on
    /// recovery).
    #[test]
    fn load_refuses_a_cas_epoch_a_scan_of_both_tables_refuses() {
        let store = SnapshotStore::new_cas(Dfs::in_memory(), CasConfig::default());
        let snap = TraceGenerator::new(TraceConfig::tiny()).next().unwrap();
        store.store(&snap).unwrap();
        let cas = store.cas().unwrap();
        let path = cas.manifest_path(snap.epoch.0);
        let codec = codecs::by_name(cas.codec_name()).unwrap();
        let stored = codec.decompress(&store.dfs().read(&path).unwrap()).unwrap();
        let mut manifest = cas::EpochManifest::decode(&stored).unwrap();
        assert!(manifest.tables[1].has_run());
        manifest.tables[1].rows += 1;
        store.dfs().delete(&path).unwrap();
        store
            .dfs()
            .write(&path, &codec.compress(&manifest.encode()))
            .unwrap();
        assert_eq!(cas.recover().manifests_indexed, 1);
        let both = [TableKind::Cdr, TableKind::Nms];
        let scan = |tables: &[TableKind]| {
            store.read_ahead(&[snap.epoch], tables, |reads| reads.next().unwrap().1)
        };
        assert!(matches!(
            scan(&both),
            Err(StorageError::Cas(CasError::Corrupt(_)))
        ));
        assert!(matches!(
            store.load(snap.epoch),
            Err(StorageError::Cas(CasError::Corrupt(_)))
        ));
        assert!(scan(&both[..1]).is_ok(), "the CDR table alone reads");
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

    /// A busy epoch's leaf is two members: the header and CDR table, then
    /// the NMS table. It decompresses whole to the text; a read of CDR
    /// inflates the first member alone, a read of NMS both, a read of both
    /// tables takes a helper for the second member where it may, as a
    /// quiet epoch's one-member leaf does not, and `load` reads back the
    /// ingested snapshot, on the calling thread alone.
    #[test]
    fn a_busy_leaf_is_read_member_by_member() {
        let store = store_with(Arc::new(GzipLite::default()));
        let snap = TraceGenerator::new(TraceConfig::scaled(1.0 / 64.0))
            .nth(20)
            .unwrap();
        store.store(&snap).unwrap();
        let codec = GzipLite::default();
        let leaf = store.dfs().read(&store.path_for(snap.epoch)).unwrap();
        let members = codec.members(&leaf);
        assert_eq!(members.len(), 2);
        assert_eq!(codec.decompress(&leaf).unwrap(), snap.to_bytes());
        let text = snap.to_bytes();
        let nms_at = members[0].len();
        let nms_at = codec.decompress(&leaf[..nms_at]).unwrap().len();
        let inflated = |tables: &[TableKind]| {
            let cost = obs::cost::begin(1);
            let rows = store.read_ahead(&[snap.epoch], tables, |reads| {
                let (epoch, read) = reads.next().unwrap();
                read.unwrap().walk(epoch, |_, _| {}).unwrap()
            });
            (rows, cost.finish().bytes_decompressed["gzip-lite"])
        };
        let (cdr_rows, cdr_bytes) = inflated(&SECTIONS[..1]);
        assert_eq!(
            (cdr_rows, cdr_bytes),
            (snap.cdr.len() as u64, nms_at as u64)
        );
        let (nms_rows, nms_bytes) = inflated(&SECTIONS[1..]);
        assert_eq!(
            (nms_rows, nms_bytes),
            (snap.nms.len() as u64, text.len() as u64)
        );
        let helpers = |read: &dyn Fn()| {
            let trace = obs::trace::begin(0x0B05_0001);
            read();
            let events = trace.finish();
            events.iter().filter(|e| e.name == "read-ahead").count()
        };
        let store = &store;
        let both = |epoch: EpochId| {
            move || {
                store.read_on(Some(&parked::HELPERS), &[epoch], &SECTIONS, |reads| {
                    let (epoch, read) = reads.next().unwrap();
                    assert!(read.unwrap().walk(epoch, |_, _| {}).is_ok());
                });
            }
        };
        let quiet = TraceGenerator::new(TraceConfig::scaled(1.0 / 64.0))
            .next()
            .unwrap();
        assert!(quiet.to_bytes().len() < codecs::TABLE_MEMBERS_FROM);
        store.store(&quiet).unwrap();
        assert_eq!(helpers(&both(quiet.epoch)), 0, "a one-member leaf");
        assert_eq!(helpers(&both(snap.epoch)), 1, "a two-member leaf");
        let ingested = Snapshot::from_bytes(&text).unwrap();
        assert_eq!(
            helpers(&|| assert_eq!(store.load(snap.epoch).unwrap(), ingested)),
            0,
            "a Path epoch is loaded on the calling thread"
        );
    }

    /// `codecs::by_name(codec_name())` names the codec whose `compress`
    /// of a snapshot's text is its Path leaf, byte for byte: gzip-lite's
    /// per-table form, one member below `TABLE_MEMBERS_FROM` bytes of text
    /// and two from there on, and any other codec itself.
    #[test]
    fn the_named_codec_rebuilds_every_leaf() {
        let snaps: Vec<Snapshot> = TraceGenerator::new(TraceConfig::scaled(1.0 / 64.0))
            .take(24)
            .collect();
        let sizes = snaps.iter().map(|s| s.to_bytes().len());
        assert!(sizes.clone().any(|n| n < codecs::TABLE_MEMBERS_FROM));
        assert!(sizes.clone().any(|n| n >= codecs::TABLE_MEMBERS_FROM));
        let codecs: [Arc<dyn Codec>; 3] = [
            Arc::new(GzipLite::default()),
            Arc::new(codecs::Identity),
            Arc::new(codecs::ZstdLite::default()),
        ];
        for codec in codecs {
            let store = store_with(codec);
            let named = codecs::by_name(store.codec_name()).unwrap();
            for snap in &snaps[..] {
                store.store(snap).unwrap();
                let leaf = store.dfs().read(&store.path_for(snap.epoch)).unwrap();
                let text = snap.to_bytes();
                assert_eq!(named.compress(&text), leaf, "{}", store.codec_name());
                let members = named.members(&leaf).len();
                let two = store.codec_name() == "gzip-lite/tables"
                    && text.len() >= codecs::TABLE_MEMBERS_FROM;
                assert_eq!(members, 1 + usize::from(two), "{}", store.codec_name());
            }
        }
    }

    /// With no second core, a read of many pieces starts no helper: every
    /// fetch and piece runs on the calling thread, in the order the helper
    /// would have taken them, and the scan sees what it sees on two.
    #[test]
    fn one_core_reads_every_piece_on_the_calling_thread() {
        let epochs: Vec<EpochId> = (0..6).map(EpochId).collect();
        let caller = std::thread::current().id();
        let read = |second_core: bool| {
            let trace = obs::trace::begin(0x0C0E_0001 + u64::from(second_core));
            let work = Mutex::new(Vec::new());
            let lent = read_ahead_on(
                second_core.then_some(&parked::HELPERS),
                &epochs,
                2,
                |epoch: EpochId| {
                    work.lock()
                        .unwrap()
                        .push((epoch.0, None, std::thread::current().id()));
                    epoch.0
                },
                |&n, p| {
                    work.lock()
                        .unwrap()
                        .push((n, Some(p), std::thread::current().id()));
                    (n, p)
                },
                |reads| reads.collect::<Vec<_>>(),
            );
            let helpers = trace
                .finish()
                .iter()
                .filter(|e| e.name == "read-ahead")
                .count();
            (lent, work.into_inner().unwrap(), helpers)
        };
        let (lent, work, helpers) = read(false);
        assert_eq!(helpers, 0);
        assert!(work.iter().all(|&(.., thread)| thread == caller));
        let order: Vec<(u32, Option<usize>)> = work.iter().map(|&(n, p, _)| (n, p)).collect();
        let want: Vec<(u32, Option<usize>)> = (0..6)
            .flat_map(|n| [(n, None), (n, Some(0)), (n, Some(1))])
            .collect();
        assert_eq!(order, want);
        let (on_two, _, helpers) = read(true);
        assert_eq!(helpers, 1);
        assert_eq!(lent, on_two);
    }

    /// A read nested in a scan's visit, as T4's join nests its inner scan
    /// in the outer one's: each read takes a helper of its own and records
    /// one `read-ahead` instant, and however often the nested read is
    /// repeated, it never holds more than the two helpers it needed first.
    #[test]
    fn a_nested_read_takes_a_second_helper_and_gives_both_back() {
        let helpers = parked::Helpers::new();
        let epochs: Vec<EpochId> = (0..3).map(EpochId).collect();
        let read = |visit: &mut dyn FnMut(u32)| {
            read_ahead_on(
                Some(&helpers),
                &epochs,
                1,
                |epoch: EpochId| epoch.0,
                |&n, _| n,
                |reads| reads.for_each(|(_, n, _)| visit(n)),
            )
        };
        for round in 0..20 {
            let trace = obs::trace::begin(0x4E57_0000 + round);
            let (mut outer, mut inner) = (Vec::new(), Vec::new());
            read(&mut |n| {
                if n == 0 {
                    let idle = usize::from(round > 0);
                    assert_eq!(
                        helpers.parked(),
                        idle,
                        "round {round}: the outer read holds one"
                    );
                    read(&mut |m| inner.push(m));
                }
                outer.push(n);
            });
            let events = trace.finish();
            let instants = events.iter().filter(|e| e.name == "read-ahead").count();
            assert_eq!((outer, inner), (vec![0, 1, 2], vec![0, 1, 2]));
            assert_eq!(instants, 2, "round {round}: one helper a read");
            assert_eq!(helpers.parked(), 2, "round {round}");
        }
    }
}
