//! The content-addressed store over the replicated filesystem.
//!
//! Layout under the configured root:
//!
//! ```text
//! <root>/<y>/<m>/<d>/<epoch>.mf      epoch manifest (committed by Dfs::write_staged)
//! <root>/<y>/<m>/<d>/<epoch>.pk      the epoch's pack: one compressed unit per
//!                                    table with a run (see [`crate::pack`]);
//!                                    the manifest records its hash
//! ```
//!
//! What an epoch holds is a snapshot whose text reads back as it: a put
//! refuses any other, once, so no read decides it again. The Merkle
//! rollup over the retained manifests is computed in memory
//! ([`CasStore::merkle`]), never stored.
//!
//! An epoch is one manifest and at most one pack, and it owns both:
//! nothing is shared with another epoch, so two epochs with byte-identical
//! tables hold two packs. A constant column's value is neither hashed
//! nor packed: the manifest carries its bytes, once however often the
//! epoch uses it. The durable state is exactly {manifests, packs}; the
//! in-memory index of retained epochs — each one's Merkle leaf, byte
//! counts and decoded manifest — is rebuilt from the manifests by
//! [`CasStore::recover`], and a read fetches the pack alone. Dropping an
//! epoch deletes its manifest, then its pack — decay *is* garbage
//! collection, and all byte accounting flows through [`Dfs::delete`] like
//! the path-addressed store.

use crate::chunker::{self, Image, Section};
use crate::hash::ChunkHash;
use crate::manifest::{build_merkle, EpochManifest, Merkle};
use crate::reader::EpochReader;
use crate::{pack, CasError};
use codecs::{Codec, SevenzLite};
use dfs::{Dfs, DfsError};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use telco_trace::time::EpochId;
use telco_trace::Snapshot;

/// Store configuration.
#[derive(Clone)]
pub struct CasConfig {
    /// Namespace root on the filesystem.
    pub root: String,
    /// Pack and manifest compression codec. A pack is written once per
    /// epoch, one stream per table with a run, and a read inflates the
    /// streams of the tables it scans, so the default is the strongest
    /// Table-I codec (`7z-lite`) rather than the path store's `gzip-lite`:
    /// it buys the smallest warehouse, and pays for it on every read — its
    /// range decoder is about seven times slower per output byte than
    /// `gzip-lite`'s inflate.
    pub codec: Arc<dyn Codec>,
}

impl Default for CasConfig {
    fn default() -> Self {
        Self {
            root: "/cas".to_string(),
            codec: Arc::new(SevenzLite::default()),
        }
    }
}

obs::tallies! {
    /// What one store counts over its lifetime. A count with a registry
    /// name is an [`obs::Tally`]: one add counts it here and there.
    struct CasCounts {
        puts: Counter,
        /// Epochs opened for reading.
        gets: Counter,
        /// Tables read column by column ([`EpochReader::table`]).
        tables_read: Counter,
        /// Constant columns that added no bytes: a value this epoch's
        /// manifest already carries.
        dedup_hits: Tally("cas.dedup.hits"),
        /// Uncompressed bytes those columns would have added.
        dedup_bytes_saved: Counter,
        /// Units stored: one per table with a run.
        new_chunks: Tally("cas.put.new_chunks"),
        gc_packs_deleted: Tally("cas.gc.packs_deleted"),
        gc_bytes_reclaimed: Tally("cas.gc.bytes_reclaimed"),
        verify_mismatches: Tally("cas.verify.mismatch"),
        repair_refetches: Tally("cas.repair.refetch"),
    }
    /// Lifetime counters (monotonic), as [`CasStore::stats`] reads them.
    pub struct CasStats;
}

/// What [`CasStore::put_epoch`] did.
#[derive(Debug, Clone)]
pub struct PutReceipt {
    /// Committed manifest path (the epoch's "leaf" on the filesystem).
    pub path: String,
    pub raw_len: u64,
    /// Bytes this epoch added: its pack + manifest.
    pub new_bytes: u64,
    /// Constant columns that added no bytes (see [`CasStats::dedup_hits`]).
    pub dedup_hits: u64,
    pub manifest_hash: ChunkHash,
}

/// What [`CasStore::recover`] rebuilt and swept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CasRecoverReport {
    pub manifests_indexed: u64,
    pub corrupt_manifests_dropped: u64,
    pub orphan_tmp_deleted: u64,
    pub orphan_packs_deleted: u64,
    pub orphan_bytes_reclaimed: u64,
}

struct EpochRec {
    manifest_hash: ChunkHash,
    manifest_len: u64,
    /// Stored length of the epoch's pack; `None` when the layout has no
    /// unit and there is none.
    pack_len: Option<u64>,
    /// The manifest whose stored bytes hash to `manifest_hash`, decoded
    /// once by the put that wrote it or the recovery that read it: a read
    /// lends it and fetches the pack alone.
    manifest: Arc<HeldManifest>,
}

/// A retained epoch's decoded manifest, as the store holds it, and what
/// each of its tables owns.
pub(crate) struct HeldManifest {
    pub(crate) manifest: EpochManifest,
    pub(crate) sections: Vec<Section>,
}

impl HeldManifest {
    fn new(manifest: EpochManifest) -> Arc<Self> {
        let sections = manifest.sections();
        Arc::new(Self { manifest, sections })
    }
}

#[derive(Default)]
struct State {
    epochs: BTreeMap<u32, EpochRec>,
}

impl State {
    /// Whether `epoch` is retained with a pack: a pack file of any other
    /// epoch is garbage.
    fn owns_pack(&self, epoch: u32) -> bool {
        self.epochs
            .get(&epoch)
            .is_some_and(|r| r.pack_len.is_some())
    }
}

/// The content-addressed store. Cheap to clone (shared state).
#[derive(Clone)]
pub struct CasStore {
    dfs: Dfs,
    pub(crate) cfg: Arc<CasConfig>,
    state: Arc<Mutex<State>>,
    counts: Arc<CasCounts>,
}

impl CasStore {
    pub fn new(dfs: Dfs, cfg: CasConfig) -> Self {
        Self {
            dfs,
            cfg: Arc::new(cfg),
            state: Arc::new(Mutex::new(State::default())),
            counts: Arc::default(),
        }
    }

    /// [`Self::new`] plus a recovery scan of whatever the filesystem holds.
    pub fn open(dfs: Dfs, cfg: CasConfig) -> (Self, CasRecoverReport) {
        let store = Self::new(dfs, cfg);
        let report = store.recover();
        (store, report)
    }

    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    pub fn root(&self) -> &str {
        &self.cfg.root
    }

    pub fn codec_name(&self) -> &'static str {
        self.cfg.codec.name()
    }

    /// Manifest path of an epoch, mirroring the temporal hierarchy
    /// ([`EpochId::leaf_path`]): `<root>/<y>/<m>/<d>/<epoch>.mf`.
    pub fn manifest_path(&self, epoch: u32) -> String {
        EpochId(epoch).leaf_path(&self.cfg.root, ".mf")
    }

    /// Pack path of an epoch, beside its manifest:
    /// `<root>/<y>/<m>/<d>/<epoch>.pk`.
    pub fn pack_path(&self, epoch: u32) -> String {
        EpochId(epoch).leaf_path(&self.cfg.root, ".pk")
    }

    /// Chunk, pack and persist `snapshot`: its column image, written
    /// straight from its records.
    ///
    /// A snapshot no text could carry — a record not as wide as its table,
    /// a value holding a `,`, `\n` or `\r` — is refused as
    /// [`CasError::Corrupt`] before anything is written: what is stored
    /// always reads back as columns, and as the text `Snapshot::to_bytes`
    /// writes.
    ///
    /// Commit order: any crash leftover at the pack path is cleared, the
    /// pack is written, then the manifest by [`Dfs::write_staged`].
    /// Nothing is served until the manifest commits, so a failed put
    /// leaves at most an orphan pack that [`Self::gc`] / [`Self::recover`]
    /// sweep.
    ///
    /// The child spans split the cost: `cas.put.split` is the column
    /// image and the unit hashes, `cas.put.pack` the compression of the
    /// pack's units, `cas.put.manifest` the manifest's encoding and
    /// compression, `cas.put.commit` the filesystem writes. All but the
    /// commit are a pure function of the snapshot and run before the
    /// store's lock is taken, so that a read of another epoch does not wait
    /// behind them.
    pub fn put_snapshot(&self, snapshot: &Snapshot) -> Result<PutReceipt, CasError> {
        let _span = obs::span("cas.put");
        self.put(snapshot)
    }

    /// [`Self::put_snapshot`] of the snapshot `raw` holds. `raw` must be the
    /// snapshot of `epoch` exactly as `Snapshot::to_bytes` writes it:
    /// parsed, then written again to the very same bytes. Anything else —
    /// another header line, other tables, `\r\n` lines, bytes after the
    /// NMS table, a field that is not UTF-8 — is refused as
    /// [`CasError::Corrupt`] before anything is written.
    pub fn put_epoch(&self, epoch: u32, raw: &[u8]) -> Result<PutReceipt, CasError> {
        let _span = obs::span("cas.put");
        let snapshot = {
            let _parse = obs::span("cas.put.parse");
            chunker::canonical(raw).filter(|s| s.epoch.0 == epoch)
        };
        self.put(&snapshot.ok_or_else(|| not_a_snapshot(epoch, "the bytes are not its text"))?)
    }

    fn put(&self, snapshot: &Snapshot) -> Result<PutReceipt, CasError> {
        let epoch = snapshot.epoch.0;
        let (image, units) = {
            let _split = obs::span("cas.put.split");
            let image = Image::of(snapshot).map_err(|e| not_a_snapshot(epoch, e.reason()))?;
            let units = image.units.iter().map(|unit| ChunkHash::of(unit));
            let units: Vec<ChunkHash> = units.collect();
            (image, units)
        };

        // Every unit compressed on its own: a scan of one table inflates
        // that table alone.
        let pack_bytes = {
            let _pack = obs::span("cas.put.pack");
            let streams: Vec<Vec<u8>> = image
                .units
                .iter()
                .map(|unit| self.cfg.codec.compress_metered(unit))
                .collect();
            (!streams.is_empty()).then(|| pack::encode(&streams))
        };

        let manifest_span = obs::span("cas.put.manifest");
        // The constant values, each carried once: a value the manifest
        // already carries is a dedup hit.
        let mut inline: Vec<Vec<u8>> = Vec::new();
        let mut inline_index_of: HashMap<&[u8], u32> = HashMap::new();
        let mut constants: Vec<u32> = Vec::new();
        let mut dedup_hits = 0u64;
        let mut dedup_saved = 0u64;
        for value in image.constant_values() {
            let fresh = obs::bytes::fit::<u32>("cas constant index", inline.len());
            let i = *inline_index_of.entry(value).or_insert(fresh);
            if i == fresh {
                inline.push(value.to_vec());
            } else {
                dedup_hits += 1;
                dedup_saved += value.len() as u64;
            }
            constants.push(i);
        }
        let n_units = units.len() as u64;
        let raw_len = image.raw_len;
        let manifest = EpochManifest {
            epoch,
            raw_len,
            tables: image.tables,
            pack: pack_bytes.as_deref().map(ChunkHash::of),
            units,
            inline,
            constants,
        };
        // Manifests are compressed on disk like packs; their content
        // address (and the Merkle leaf) is the hash of the stored bytes.
        let mbytes = self.cfg.codec.compress_metered(&manifest.encode());
        let manifest_hash = ChunkHash::of(&mbytes);
        let manifest = HeldManifest::new(manifest);
        let path = self.manifest_path(epoch);
        drop(manifest_span);

        let mut st = self.state.lock();
        if st.epochs.contains_key(&epoch) {
            return Err(CasError::AlreadyStored(epoch));
        }
        let _commit = obs::span("cas.put.commit");
        // Durable commit: pack, then manifest (staged + atomic rename). A
        // pack file already at the path is a crashed put's: no manifest
        // was committed with it.
        let pack_path = self.pack_path(epoch);
        if self.dfs.exists(&pack_path) {
            self.dfs.delete(&pack_path)?;
        }
        let pack_len = pack_bytes.as_ref().map(|b| b.len() as u64);
        if let Some(bytes) = &pack_bytes {
            self.dfs.write(&pack_path, bytes)?;
        }
        if let Err(e) = self.dfs.write_staged(&path, &mbytes) {
            if pack_bytes.is_some() {
                let _ = self.dfs.delete(&pack_path);
            }
            return Err(e.into());
        }

        st.epochs.insert(
            epoch,
            EpochRec {
                manifest_hash,
                manifest_len: mbytes.len() as u64,
                pack_len,
                manifest,
            },
        );
        let counts = &self.counts;
        counts.puts.inc();
        counts.dedup_hits.add(dedup_hits);
        counts.dedup_bytes_saved.add(dedup_saved);
        counts.new_chunks.add(n_units);
        obs::shard::add_sharded("cas.dedup.bytes_saved", dedup_saved);
        let new_bytes = pack_len.unwrap_or(0) + mbytes.len() as u64;
        obs::shard::add_sharded("cas.put.bytes_written", new_bytes);

        Ok(PutReceipt {
            path,
            raw_len,
            new_bytes,
            dedup_hits,
            manifest_hash,
        })
    }

    /// Open an epoch for reading: one dfs read, its pack, verified
    /// against the hash the held manifest records (a verification failure
    /// triggers one targeted [`Dfs::repair_file`] + re-read before giving
    /// up), and checked to hold as many units as the tables have. The
    /// manifest is not read: the store holds it from the put or
    /// [`Self::recover`], the one whose stored bytes hash to the
    /// epoch's Merkle leaf. Nothing is inflated.
    ///
    /// The child spans of `cas.get` split the cost of a read: `.verify` is
    /// every SHA-256, `.inflate.<table>` the codec on one unit, `.index` a
    /// table's newline index (`.assemble` the reference's text); the dfs
    /// read and the pack directory stay in `cas.get`'s self time.
    pub fn open_epoch(&self, epoch: u32) -> Result<EpochReader<'_>, CasError> {
        let _span = obs::span("cas.get");
        // Per-query cost accounting: the pack read below was initiated by
        // the CAS, so it bills to "cas".
        let _src = obs::cost::attribute_reads_to("cas");
        self.counts.gets.inc();
        let held = {
            let st = self.state.lock();
            st.epochs
                .get(&epoch)
                .map(|r| Arc::clone(&r.manifest))
                .ok_or(CasError::Missing(epoch))?
        };
        let pack = match &held.manifest.pack {
            Some(hash) => Some(self.read_verified(&self.pack_path(epoch), hash)?),
            None => None,
        };
        EpochReader::new(self, held, pack)
    }

    /// Reassemble an epoch's snapshot text: [`Self::open_epoch`], then
    /// [`EpochReader::assemble`]. The reference reading the tests and
    /// benches compare the column reads against; the warehouse itself
    /// reads columns.
    pub fn get_epoch(&self, epoch: u32) -> Result<Vec<u8>, CasError> {
        self.open_epoch(epoch)?.assemble()
    }

    /// Read a content-addressed file, re-fetching by hash through a
    /// targeted repair pass when the first read fails or the bytes don't
    /// match the address.
    fn read_verified(&self, path: &str, expect: &ChunkHash) -> Result<Vec<u8>, CasError> {
        let bytes = match self.dfs.read(path) {
            Ok(b) => b,
            Err(DfsError::NotFound(p)) => return Err(CasError::Dfs(DfsError::NotFound(p))),
            Err(_) => {
                // Replica trouble: repair just this file and retry once.
                self.note_refetch();
                let _ = self.dfs.repair_file(path);
                self.dfs.read(path)?
            }
        };
        if Self::matches(&bytes, expect) {
            return Ok(bytes);
        }
        // Bytes came back readable but wrong: corruption below the
        // filesystem checksums. Repair from a good replica and re-fetch.
        self.note_mismatch();
        self.note_refetch();
        let _ = self.dfs.repair_file(path);
        let again = self.dfs.read(path)?;
        if Self::matches(&again, expect) {
            return Ok(again);
        }
        Err(CasError::Corrupt(format!(
            "{path} does not match its content address"
        )))
    }

    fn matches(bytes: &[u8], expect: &ChunkHash) -> bool {
        let _span = obs::span("cas.get.verify");
        ChunkHash::of(bytes) == *expect
    }

    pub(crate) fn note_table_read(&self) {
        self.counts.tables_read.inc();
    }

    pub(crate) fn note_mismatch(&self) {
        self.counts.verify_mismatches.inc();
    }

    fn note_refetch(&self) {
        self.counts.repair_refetches.inc();
    }

    /// Drop an epoch: delete its manifest, then its pack. A crash in
    /// between leaves an orphan pack, never a manifest without its pack;
    /// a delete that fails is left to [`Self::gc`] / [`Self::recover`].
    /// Returns freed logical bytes ([`Dfs::delete`] accounting); 0 if the
    /// epoch was never stored.
    pub fn drop_epoch(&self, epoch: u32) -> Result<u64, CasError> {
        let _span = obs::span("cas.drop");
        let mut st = self.state.lock();
        let Some(rec) = st.epochs.remove(&epoch) else {
            return Ok(0);
        };
        let mut freed = match self.dfs.delete(&self.manifest_path(epoch)) {
            Ok(n) => n,
            Err(DfsError::NotFound(_)) => 0,
            // The manifest is still there: its pack stays beside it.
            Err(_) => {
                obs::inc("cas.gc.deferred");
                return Ok(0);
            }
        };
        if rec.pack_len.is_some() {
            match self.dfs.delete(&self.pack_path(epoch)) {
                Ok(n) => {
                    freed += n;
                    self.counts.gc_packs_deleted.inc();
                    self.counts.gc_bytes_reclaimed.add(n);
                }
                Err(_) => obs::inc("cas.gc.deferred"),
            }
        }
        Ok(freed)
    }

    pub fn contains(&self, epoch: u32) -> bool {
        self.state.lock().epochs.contains_key(&epoch)
    }

    /// Retained epochs, ascending.
    pub fn epochs(&self) -> Vec<u32> {
        self.state.lock().epochs.keys().copied().collect()
    }

    /// Stored bytes the state accounts for: packs + manifests.
    pub fn bytes_stored(&self) -> u64 {
        self.pack_bytes() + self.manifest_bytes()
    }

    /// On-disk pack bytes (compressed units) the state accounts for.
    pub fn pack_bytes(&self) -> u64 {
        let st = self.state.lock();
        st.epochs.values().filter_map(|e| e.pack_len).sum()
    }

    /// On-disk manifest bytes (compressed layouts, hashes and constant
    /// values) the state accounts for.
    pub fn manifest_bytes(&self) -> u64 {
        self.state
            .lock()
            .epochs
            .values()
            .map(|e| e.manifest_len)
            .sum()
    }

    /// Stored bytes by filesystem listing (packs + manifests actually on
    /// the dfs; staging temps and unrelated files sharing the root are
    /// excluded). Equal to [`Self::bytes_stored`] whenever no garbage is
    /// pending.
    pub fn listed_bytes(&self) -> u64 {
        self.dfs
            .list(&format!("{}/", self.cfg.root))
            .iter()
            .filter(|p| p.ends_with(".pk") || p.ends_with(".mf"))
            .filter_map(|p| self.dfs.file_len(p).ok())
            .sum()
    }

    pub fn stats(&self) -> CasStats {
        self.counts.snapshot()
    }

    /// Sweep garbage the eager path could not delete: staging temps, and
    /// manifests and packs of epochs the state does not retain (or a pack
    /// beside an epoch that has none). Returns reclaimed logical bytes.
    pub fn gc(&self) -> u64 {
        let _span = obs::span("cas.gc");
        let st = self.state.lock();
        let mut reclaimed = 0u64;
        for path in self.dfs.list(&format!("{}/", self.cfg.root)) {
            let is_pack = path.ends_with(".pk");
            let orphan = if path.ends_with(dfs::STAGING_SUFFIX) {
                true
            } else if let Some(epoch) = epoch_of(&path, ".mf") {
                !st.epochs.contains_key(&epoch)
            } else if let Some(epoch) = epoch_of(&path, ".pk") {
                !st.owns_pack(epoch)
            } else {
                false
            };
            if orphan {
                if let Ok(n) = self.dfs.delete(&path) {
                    reclaimed += n;
                    // Staging temps and stray manifests are reclaimed
                    // bytes, not packs.
                    if is_pack {
                        self.counts.gc_packs_deleted.inc();
                    }
                    self.counts.gc_bytes_reclaimed.add(n);
                }
            }
        }
        reclaimed
    }

    /// Rebuild the in-memory index of retained epochs from the committed
    /// manifests, each held decoded for the reads to come, then sweep
    /// staging temps, manifests that do not decode or whose pack is gone,
    /// and packs no indexed manifest owns. The durable truth is on the
    /// filesystem; this makes the process state match it.
    pub fn recover(&self) -> CasRecoverReport {
        let _span = obs::span("cas.recover");
        let mut report = CasRecoverReport::default();
        let mut st = self.state.lock();
        *st = State::default();

        let prefix = format!("{}/", self.cfg.root);
        report.orphan_tmp_deleted = self.dfs.sweep_staging(&prefix);
        let listing = self.dfs.list(&prefix);
        for path in &listing {
            let Some(epoch) = epoch_of(path, ".mf") else {
                continue;
            };
            let replayed = self.dfs.read(path).ok().and_then(|bytes| {
                let m = {
                    let _inflate = obs::span("cas.get.inflate.manifest");
                    self.cfg.codec.decompress_metered(&bytes).ok()?
                };
                let m = EpochManifest::decode(&m)
                    .ok()
                    .filter(|m| m.epoch == epoch)?;
                let pack_len = match m.pack {
                    Some(_) => Some(self.dfs.file_len(&self.pack_path(epoch)).ok()?),
                    None => None,
                };
                Some((bytes, m, pack_len))
            });
            let Some((bytes, manifest, pack_len)) = replayed else {
                // Unreadable, undecodable or missing its pack: the epoch
                // is lost, don't serve it.
                if self.dfs.delete(path).is_ok() {
                    report.corrupt_manifests_dropped += 1;
                }
                continue;
            };
            st.epochs.insert(
                epoch,
                EpochRec {
                    manifest_hash: ChunkHash::of(&bytes),
                    manifest_len: bytes.len() as u64,
                    pack_len,
                    manifest: HeldManifest::new(manifest),
                },
            );
            report.manifests_indexed += 1;
        }
        for path in &listing {
            let orphan = epoch_of(path, ".pk").is_some_and(|epoch| !st.owns_pack(epoch));
            if orphan {
                if let Ok(n) = self.dfs.delete(path) {
                    report.orphan_packs_deleted += 1;
                    report.orphan_bytes_reclaimed += n;
                }
            }
        }
        obs::add("cas.recover.manifests", report.manifests_indexed);
        obs::add("cas.recover.orphan_packs", report.orphan_packs_deleted);
        report
    }

    /// The current Merkle rollup (days, months, root) over retained epochs.
    pub fn merkle(&self) -> Merkle {
        let leaves: BTreeMap<u32, ChunkHash> = self
            .state
            .lock()
            .epochs
            .iter()
            .map(|(&e, r)| (e, r.manifest_hash))
            .collect();
        build_merkle(&leaves)
    }

    /// Hex root hash authenticating every retained epoch. Deterministic
    /// for a given retained set.
    pub fn root_hash(&self) -> String {
        self.merkle().root_hash.hex()
    }
}

/// A put refused, and `why`.
fn not_a_snapshot(epoch: u32, why: &str) -> CasError {
    CasError::Corrupt(format!(
        "put: not the snapshot of epoch {epoch} as `Snapshot::to_bytes` writes it: {why}"
    ))
}

/// The epoch whose `suffix` file `path` is ([`EpochId::of_leaf_path`]).
fn epoch_of(path: &str, suffix: &str) -> Option<u32> {
    EpochId::of_leaf_path(path, suffix).map(|e| e.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs::DfsConfig;
    use std::sync::mpsc;
    use telco_trace::generator::{TraceConfig, TraceGenerator};
    use telco_trace::schema::TableKind;
    use telco_trace::snapshot::Snapshot;

    fn store() -> CasStore {
        CasStore::new(Dfs::new(DfsConfig::default()), CasConfig::default())
    }

    fn snapshots(n: usize) -> Vec<Snapshot> {
        TraceGenerator::new(TraceConfig::scaled(1.0 / 256.0))
            .take(n)
            .collect()
    }

    #[test]
    fn put_get_roundtrip_and_verified_reads() {
        let cas = store();
        let snaps = snapshots(3);
        for s in &snaps {
            let raw = s.to_bytes();
            let r = cas.put_epoch(s.epoch.0, &raw).unwrap();
            assert_eq!(r.raw_len, raw.len() as u64);
            assert!(cas.contains(s.epoch.0));
        }
        for s in &snaps {
            let raw = cas.get_epoch(s.epoch.0).unwrap();
            assert_eq!(raw, s.to_bytes());
            let parsed = Snapshot::from_bytes(&raw).unwrap();
            assert_eq!(parsed.epoch, s.epoch);
        }
        assert!(matches!(cas.get_epoch(999_999), Err(CasError::Missing(_))));
        assert!(matches!(
            cas.put_epoch(snaps[0].epoch.0, &snaps[0].to_bytes()),
            Err(CasError::AlreadyStored(_))
        ));
    }

    /// A put says where its time went: one child span per stage.
    #[test]
    fn a_put_records_its_four_stages() {
        use std::sync::atomic::Ordering::Relaxed;
        let stage = |name: &str| obs::global().span_stats(&format!("cas.put;cas.put.{name}"));
        let stages = ["split", "pack", "manifest", "commit"].map(stage);
        let before = stages.each_ref().map(|s| s.calls.load(Relaxed));
        let cas = store();
        for s in &snapshots(2) {
            cas.put_epoch(s.epoch.0, &s.to_bytes()).unwrap();
        }
        for (stage, before) in stages.iter().zip(before) {
            assert!(stage.calls.load(Relaxed) >= before + 2);
        }
    }

    #[test]
    fn repeated_constant_columns_count_as_dedup_hits() {
        let cas = store();
        for s in snapshots(4) {
            cas.put_epoch(s.epoch.0, &s.to_bytes()).unwrap();
        }
        let stats = cas.stats();
        assert!(
            stats.dedup_hits > 0,
            "a repeated constant value must count as a hit: {stats:?}"
        );
        assert!(stats.dedup_bytes_saved > 0);
    }

    #[test]
    fn drop_releases_everything_and_accounting_matches() {
        let cas = store();
        let snaps = snapshots(3);
        for s in &snaps {
            cas.put_epoch(s.epoch.0, &s.to_bytes()).unwrap();
        }
        assert_eq!(cas.bytes_stored(), cas.listed_bytes());
        let before = cas.bytes_stored();
        assert!(before > 0);
        let mut freed = 0;
        for s in &snaps {
            freed += cas.drop_epoch(s.epoch.0).unwrap();
        }
        assert!(freed > 0);
        assert_eq!(cas.bytes_stored(), 0, "full decay leaves nothing stored");
        assert_eq!(cas.listed_bytes(), 0, "no files left on the dfs");
        assert_eq!(cas.drop_epoch(snaps[0].epoch.0).unwrap(), 0, "idempotent");
    }

    /// Two epochs holding byte-identical tables hold two packs: each epoch
    /// owns its files, and dropping one leaves the other readable.
    #[test]
    fn epochs_with_the_same_tables_each_own_a_pack() {
        let cas = store();
        let snap = &snapshots(1)[0];
        let twin = Snapshot::new(
            EpochId(snap.epoch.0 + 1),
            snap.cdr.clone(),
            snap.nms.clone(),
        );
        for s in [snap, &twin] {
            cas.put_epoch(s.epoch.0, &s.to_bytes()).unwrap();
            assert!(cas.dfs().exists(&cas.pack_path(s.epoch.0)));
        }
        let pack = |s: &Snapshot| cas.dfs().read(&cas.pack_path(s.epoch.0)).unwrap();
        assert_eq!(pack(snap), pack(&twin), "the same bytes, twice");
        assert_eq!(cas.bytes_stored(), cas.listed_bytes());
        cas.drop_epoch(snap.epoch.0).unwrap();
        assert!(!cas.dfs().exists(&cas.pack_path(snap.epoch.0)));
        assert_eq!(cas.get_epoch(twin.epoch.0).unwrap(), twin.to_bytes());
        assert_eq!(cas.bytes_stored(), cas.listed_bytes());
        cas.drop_epoch(twin.epoch.0).unwrap();
        assert_eq!(cas.listed_bytes(), 0);
    }

    #[test]
    fn merkle_root_tracks_retained_set_deterministically() {
        let cas1 = store();
        let cas2 = store();
        let snaps = snapshots(3);
        for s in &snaps {
            cas1.put_epoch(s.epoch.0, &s.to_bytes()).unwrap();
            cas2.put_epoch(s.epoch.0, &s.to_bytes()).unwrap();
        }
        assert_eq!(cas1.root_hash(), cas2.root_hash());
        let full = cas1.root_hash();
        cas1.drop_epoch(snaps[0].epoch.0).unwrap();
        assert_ne!(cas1.root_hash(), full, "root moves when the set changes");
        cas2.drop_epoch(snaps[0].epoch.0).unwrap();
        assert_eq!(cas1.root_hash(), cas2.root_hash());
    }

    /// Every address in a real store — packs, Merkle leaves, day, month
    /// and root manifests — is the same on the portable SHA-256 path as
    /// on the one the CPU picked, so the root does not depend on the CPU.
    #[test]
    fn every_address_is_the_same_on_both_sha_paths() {
        let cas = store();
        for s in snapshots(3) {
            cas.put_epoch(s.epoch.0, &s.to_bytes()).unwrap();
        }
        let portable = |bytes: &[u8]| {
            let mut h = [0u8; 16];
            h.copy_from_slice(&crate::hash::sha256_portable(bytes)[..16]);
            ChunkHash(h)
        };
        for path in cas.dfs().list("/cas/") {
            let bytes = cas.dfs().read(&path).unwrap();
            assert_eq!(ChunkHash::of(&bytes), portable(&bytes), "{path}");
            if let Some(epoch) = epoch_of(&path, ".pk") {
                let stored = cas.dfs().read(&cas.manifest_path(epoch)).unwrap();
                let manifest = cas.cfg.codec.decompress(&stored).unwrap();
                let manifest = EpochManifest::decode(&manifest).unwrap();
                assert_eq!(manifest.pack, Some(portable(&bytes)), "{path}");
            }
        }
        let merkle = cas.merkle();
        for text in merkle.days.values().chain(merkle.months.values()) {
            assert_eq!(ChunkHash::of(text), portable(text));
        }
        assert_eq!(merkle.root_hash, portable(&merkle.root));
    }

    #[test]
    fn recover_rebuilds_state_from_manifests() {
        let dfs = Dfs::new(DfsConfig::default());
        let cas = CasStore::new(dfs.clone(), CasConfig::default());
        let snaps = snapshots(3);
        for s in &snaps {
            cas.put_epoch(s.epoch.0, &s.to_bytes()).unwrap();
        }
        let root = cas.root_hash();
        let bytes = cas.bytes_stored();
        // Fresh process over the same filesystem.
        let (again, report) = CasStore::open(dfs, CasConfig::default());
        assert_eq!(report.manifests_indexed, 3);
        assert_eq!(report.corrupt_manifests_dropped, 0);
        assert_eq!(again.root_hash(), root);
        assert_eq!(again.bytes_stored(), bytes);
        for s in &snaps {
            assert_eq!(again.get_epoch(s.epoch.0).unwrap(), s.to_bytes());
        }
        // Full decay after recovery still reaches zero.
        for s in &snaps {
            again.drop_epoch(s.epoch.0).unwrap();
        }
        assert_eq!(again.listed_bytes(), 0);
    }

    #[test]
    fn recover_sweeps_orphan_packs_and_tmps() {
        let dfs = Dfs::new(DfsConfig::default());
        let cas = CasStore::new(dfs.clone(), CasConfig::default());
        let snap = &snapshots(1)[0];
        cas.put_epoch(snap.epoch.0, &snap.to_bytes()).unwrap();
        // Simulate a crashed put: an orphan pack and a staging temp.
        dfs.write(&cas.pack_path(99), b"orphan pack bytes").unwrap();
        dfs.write(&dfs::staging_path(&cas.manifest_path(99)), b"x")
            .unwrap();
        let (again, report) = CasStore::open(dfs, CasConfig::default());
        assert_eq!(report.orphan_packs_deleted, 1);
        assert_eq!(report.orphan_tmp_deleted, 1);
        assert!(report.orphan_bytes_reclaimed > 0);
        assert_eq!(again.get_epoch(snap.epoch.0).unwrap(), snap.to_bytes());
    }

    /// `put_epoch` takes a snapshot as `Snapshot::to_bytes` writes it and
    /// nothing else, and refuses before it writes a byte.
    #[test]
    fn a_put_refuses_anything_but_a_snapshot_as_to_bytes_writes_it() {
        let cas = store();
        let snaps = snapshots(2);
        let epoch = snaps[0].epoch.0;
        let text = String::from_utf8(snaps[0].to_bytes()).unwrap();
        let (cdr_at, nms_at) = (
            text.find("#TABLE CDR").unwrap(),
            text.find("#TABLE NMS").unwrap(),
        );
        let (header, cdr, nms) = (&text[..cdr_at], &text[cdr_at..nms_at], &text[nms_at..]);
        let mut cr_in_a_value = text.clone();
        cr_in_a_value.insert(nms_at + nms.find(',').unwrap() + 1, '\r');
        let refused: [(&str, Vec<u8>); 11] = [
            ("nothing", Vec::new()),
            ("a blob", b"\x00\x01 opaque".to_vec()),
            ("another epoch's snapshot", snaps[1].to_bytes()),
            (
                "a header spelt otherwise",
                text.replacen("#SNAPSHOT ", "#SNAPSHOT  ", 1).into(),
            ),
            ("no NMS table", format!("{header}{cdr}").into()),
            ("NMS before CDR", format!("{header}{nms}{cdr}").into()),
            (
                "a third table",
                format!("{text}#TABLE CELL rows=1 cols=2\na,b\n").into(),
            ),
            (
                "a table line spelt otherwise",
                text.replacen("NMS rows", "NMS  rows", 1).into(),
            ),
            (
                "a CDR of 8 columns",
                format!("{header}{}{nms}", nms.replacen("NMS", "CDR", 1)).into(),
            ),
            ("\\r\\n lines", text.replace('\n', "\r\n").into()),
            ("a \\r in a value", cr_in_a_value.into()),
        ];
        for (what, raw) in refused {
            match cas.put_epoch(epoch, &raw) {
                Err(CasError::Corrupt(why)) => assert!(why.contains("not the snapshot"), "{what}"),
                other => panic!("{what}: {other:?}"),
            }
            assert!(cas.dfs().list("/cas/").is_empty(), "{what}");
        }
        cas.put_epoch(epoch, text.as_bytes()).unwrap();
        assert_eq!(cas.get_epoch(epoch).unwrap(), text.as_bytes());
    }

    /// A snapshot of `epoch` whose every column is constant: three copies
    /// of one CDR and one NMS record.
    fn constant_snapshot(epoch: u32) -> Snapshot {
        let s = &snapshots(1)[0];
        Snapshot::new(
            EpochId(epoch),
            vec![s.cdr[0].clone(); 3],
            vec![s.nms[0].clone(); 3],
        )
    }

    /// What `open_epoch(epoch)` takes from the filesystem: the files it
    /// reads, and the bytes it bills to `"cas"`.
    fn disk_access_of_an_open(cas: &CasStore, epoch: u32) -> (u64, u64) {
        let reads = cas.dfs().metrics().reads;
        let profile = obs::cost::begin(0);
        cas.open_epoch(epoch).unwrap();
        let billed = profile.finish().bytes_read.get("cas").copied();
        (cas.dfs().metrics().reads - reads, billed.unwrap_or(0))
    }

    /// A read of an epoch is one disk access, its pack, whether the
    /// manifest was decoded by the put or by a recovery.
    #[test]
    fn an_epoch_read_fetches_its_pack_alone() {
        let (cas, epoch, _) = one_daytime_epoch();
        let pack = cas.dfs().file_len(&cas.pack_path(epoch)).unwrap();
        assert_eq!(disk_access_of_an_open(&cas, epoch), (1, pack));
        cas.recover();
        assert_eq!(disk_access_of_an_open(&cas, epoch), (1, pack));
    }

    /// For every epoch, after the put and again after a recovery, the
    /// manifest a read lends is the one the stored `.mf` decodes to, and
    /// the stored bytes hash to the epoch's Merkle leaf: a restart serves
    /// the manifest the running store served.
    #[test]
    fn the_held_manifest_is_the_stored_one() {
        let cas = store();
        for s in snapshots(3).into_iter().chain([constant_snapshot(9)]) {
            cas.put_epoch(s.epoch.0, &s.to_bytes()).unwrap();
        }
        let held_is_stored = |cas: &CasStore| {
            let merkle = cas.merkle();
            let st = cas.state.lock();
            assert_eq!(st.epochs.len(), 4);
            for (&epoch, rec) in &st.epochs {
                let stored = cas.dfs().read(&cas.manifest_path(epoch)).unwrap();
                let encoded = cas.cfg.codec.decompress(&stored).unwrap();
                let decoded = EpochManifest::decode(&encoded).unwrap();
                assert_eq!(rec.manifest.sections, decoded.sections(), "{epoch}");
                assert_eq!(rec.manifest.manifest, decoded, "{epoch}");
                let leaf = format!("epoch {epoch} {}\n", ChunkHash::of(&stored).hex());
                let days = merkle.days.values().map(|day| String::from_utf8_lossy(day));
                assert_eq!(days.filter(|day| day.contains(&leaf)).count(), 1, "{epoch}");
            }
        };
        held_is_stored(&cas);
        cas.recover();
        held_is_stored(&cas);
        let (reopened, _) = CasStore::open(cas.dfs().clone(), CasConfig::default());
        held_is_stored(&reopened);
    }

    #[test]
    fn a_snapshot_of_constant_columns_is_its_manifest_alone() {
        let cas = store();
        // Constant columns only: inline values, no unit, no pack.
        let raw = constant_snapshot(3).to_bytes();
        let receipt = cas.put_epoch(3, &raw).unwrap();
        assert_eq!((cas.pack_bytes(), cas.stats().new_chunks), (0, 0));
        assert!(!cas.dfs().exists(&cas.pack_path(3)));
        assert_eq!(receipt.new_bytes, cas.manifest_bytes());
        assert_eq!(disk_access_of_an_open(&cas, 3), (0, 0));
        assert_eq!(cas.get_epoch(3).unwrap(), raw);
        // The same values again in a second epoch are carried again, not
        // shared: each epoch counts the repeats within itself alone.
        let hits = cas.stats().dedup_hits;
        let next = constant_snapshot(4).to_bytes();
        cas.put_epoch(4, &next).unwrap();
        assert_eq!(cas.stats().dedup_hits, 2 * hits);
        cas.drop_epoch(3).unwrap();
        assert_eq!(cas.get_epoch(4).unwrap(), next);
        assert_eq!(cas.bytes_stored(), cas.listed_bytes());
    }

    /// A disk that hands back a manifest other than the one written: the
    /// stored manifest of `epoch` is replaced by an edited, well-formed
    /// one, and `recover` (which trusts a manifest by its own hash) files
    /// it as the epoch's leaf.
    fn tamper_manifest(cas: &CasStore, epoch: u32, edit: impl FnOnce(&mut EpochManifest)) {
        let path = cas.manifest_path(epoch);
        let stored = cas.dfs().read(&path).unwrap();
        let encoded = cas.cfg.codec.decompress(&stored).unwrap();
        let mut manifest = EpochManifest::decode(&encoded).unwrap();
        edit(&mut manifest);
        cas.dfs().delete(&path).unwrap();
        let stored = cas.cfg.codec.compress(&manifest.encode());
        cas.dfs().write(&path, &stored).unwrap();
        let report = cas.recover();
        assert_eq!(report.manifests_indexed, 1);
        assert_eq!(report.corrupt_manifests_dropped, 0);
    }

    /// The fields of both tables of `raw`, as the parser lends them.
    fn fields_of(raw: &[u8]) -> [Vec<Vec<String>>; 2] {
        let mut tables = [Vec::new(), Vec::new()];
        Snapshot::scan(raw, |kind, row| {
            let fields = row.fields().map(str::to_string).collect();
            tables[usize::from(kind == TableKind::Nms)].push(fields);
        })
        .unwrap();
        tables
    }

    /// Every read of `epoch` is refused for a reason a damaged store may
    /// give, or returns what was stored: `get_epoch` the bytes of `raw`,
    /// `table(i)` the fields of its table `i`. Never a panic, never
    /// anything else.
    fn assert_refused_or_right(cas: &CasStore, epoch: u32, raw: &[u8]) {
        let refused = |e: &CasError| {
            matches!(
                e,
                CasError::Missing(_) | CasError::Corrupt(_) | CasError::Codec(_)
            )
        };
        match cas.get_epoch(epoch) {
            Ok(got) => assert_eq!(got, raw),
            Err(e) => assert!(refused(&e), "unexpected error class: {e}"),
        }
        let reader = match cas.open_epoch(epoch) {
            Ok(reader) => reader,
            Err(e) => return assert!(refused(&e), "unexpected error class: {e}"),
        };
        for (i, want) in fields_of(raw).iter().enumerate() {
            match reader.table(i) {
                Ok(table) => {
                    assert_eq!(table.rows(), want.len());
                    for (r, fields) in want.iter().enumerate() {
                        let got = (0..table.width()).map(|c| table.row(r).text(c));
                        assert!(got.eq(fields.iter().map(String::as_str)), "row {r}");
                    }
                }
                Err(e) => assert!(refused(&e), "unexpected error class: {e}"),
            }
        }
    }

    /// Every prefix and every single-bit flip of a stored `CASMF6`
    /// manifest and of a stored `CASPK1` pack. The running store reads its
    /// manifest never again: it serves the right bytes past a damaged
    /// `.mf`, and refuses a damaged pack against the hash the manifest
    /// records. A store reopened over the damage — which files a manifest
    /// under its own hash, and for a damaged pack finds a manifest that
    /// records it, so that only the container directory, the codec,
    /// `decode` and the unit checks stand in the way — still never panics
    /// and never lends other bytes, from `get_epoch`, `open_epoch` and
    /// `table(i)` alike.
    #[test]
    fn every_prefix_and_bit_flip_of_a_stored_manifest_and_pack_is_refused() {
        let dfs = Dfs::new(DfsConfig::default());
        let cas = CasStore::new(dfs.clone(), CasConfig::default());
        // The smallest epoch there is: the sweep is quadratic in its size.
        let snap = TraceGenerator::new(TraceConfig::tiny()).next().unwrap();
        let (epoch, raw) = (snap.epoch.0, snap.to_bytes());
        cas.put_epoch(epoch, &raw).unwrap();
        assert_refused_or_right(&cas, epoch, &raw);
        let files: Vec<(String, Vec<u8>)> = dfs
            .list("/cas/")
            .into_iter()
            .map(|p| (p.clone(), dfs.read(&p).unwrap()))
            .collect();
        assert_eq!(files.len(), 2, "one manifest, one pack");
        let restore = || {
            for path in dfs.list("/cas/") {
                dfs.delete(&path).unwrap();
            }
            for (path, bytes) in &files {
                dfs.write(path, bytes).unwrap();
            }
        };
        let (mut cases, mut still_right) = (0, 0);
        for (path, stored) in &files {
            let is_pack = path.ends_with(".pk");
            obs::bytes::sweep(stored, |_, damaged| {
                dfs.delete(path).unwrap();
                dfs.write(path, damaged).unwrap();
                if is_pack {
                    assert!(cas.get_epoch(epoch).is_err(), "address check");
                    assert!(cas.open_epoch(epoch).is_err(), "address check");
                    // A manifest that records the damaged pack's hash.
                    let manifest = cas.manifest_path(epoch);
                    let stored = cas.cfg.codec.decompress(&dfs.read(&manifest).unwrap());
                    let mut edited = EpochManifest::decode(&stored.unwrap()).unwrap();
                    edited.pack = Some(ChunkHash::of(damaged));
                    dfs.delete(&manifest).unwrap();
                    let stored = cas.cfg.codec.compress(&edited.encode());
                    dfs.write(&manifest, &stored).unwrap();
                } else {
                    assert_eq!(cas.get_epoch(epoch).unwrap(), raw, "the held manifest");
                }
                let (reopened, _) = CasStore::open(dfs.clone(), CasConfig::default());
                assert_refused_or_right(&reopened, epoch, &raw);
                cases += 1;
                still_right += usize::from(reopened.get_epoch(epoch).is_ok());
                restore();
            });
        }
        // What still reads, reads right: a `7z-lite` stream carries a
        // header byte and a range-coder flush tail its decoder does not
        // look at. Every other bit of both files is covered by a check.
        assert!(still_right * 50 < cases, "{still_right} of {cases}");
        cas.recover();
        assert_eq!(cas.get_epoch(epoch).unwrap(), raw);
    }

    /// A store holding one daytime epoch (both tables have rows, and the
    /// pack a unit for each), and what was stored.
    fn one_daytime_epoch() -> (CasStore, u32, Vec<u8>) {
        let cas = store();
        let snap = TraceGenerator::new(TraceConfig::scaled(1.0 / 256.0))
            .nth(20)
            .unwrap();
        let raw = snap.to_bytes();
        cas.put_epoch(snap.epoch.0, &raw).unwrap();
        (cas, snap.epoch.0, raw)
    }

    /// `get_epoch` and `table(i)` for each of `tables` answer `Corrupt`.
    fn assert_corrupt(cas: &CasStore, epoch: u32, tables: &[usize]) {
        assert!(matches!(cas.get_epoch(epoch), Err(CasError::Corrupt(_))));
        let reader = cas.open_epoch(epoch).unwrap();
        for &i in tables {
            let read = reader.table(i).map(|table| table.rows());
            assert!(matches!(read, Err(CasError::Corrupt(_))), "{i}: {read:?}");
        }
    }

    #[test]
    fn swapped_unit_hashes_are_corrupt() {
        let (cas, epoch, raw) = one_daytime_epoch();
        tamper_manifest(&cas, epoch, |m| {
            assert_eq!(m.units.len(), 2, "a CDR and an NMS unit");
            m.units.swap(0, 1);
        });
        assert_corrupt(&cas, epoch, &[0, 1]);
        tamper_manifest(&cas, epoch, |m| m.units.swap(0, 1));
        assert_eq!(cas.get_epoch(epoch).unwrap(), raw);
    }

    /// A layout that needs another number of units than the pack holds is
    /// refused when the epoch is opened, before anything is inflated.
    #[test]
    fn a_layout_and_a_pack_of_different_unit_counts_are_corrupt() {
        let refused = |cas: &CasStore, epoch| {
            let opened = cas.open_epoch(epoch).map(|_| ());
            assert!(matches!(opened, Err(CasError::Corrupt(why)) if why.contains("units")));
            assert!(matches!(cas.get_epoch(epoch), Err(CasError::Corrupt(_))));
        };
        // Two units against a pack of one: the NMS table of an epoch whose
        // NMS has no rows is given rows, and a unit.
        let cas = store();
        let mut snap = TraceGenerator::new(TraceConfig::scaled(1.0 / 256.0))
            .nth(20)
            .unwrap();
        snap.nms.clear();
        cas.put_epoch(snap.epoch.0, &snap.to_bytes()).unwrap();
        tamper_manifest(&cas, snap.epoch.0, |m| {
            assert_eq!(m.units.len(), 1);
            m.tables[1].rows = 3;
            m.units.push(m.units[0]);
        });
        refused(&cas, snap.epoch.0);
        // One unit against a pack of two: the NMS table loses its rows.
        let (cas, epoch, _) = one_daytime_epoch();
        tamper_manifest(&cas, epoch, |m| {
            m.tables[1].rows = 0;
            m.units.pop();
        });
        refused(&cas, epoch);
    }

    #[test]
    fn a_constant_ref_past_the_inline_values_is_dropped_at_recovery() {
        let (cas, epoch, _) = one_daytime_epoch();
        let path = cas.manifest_path(epoch);
        let stored = cas.dfs().read(&path).unwrap();
        let mut manifest =
            EpochManifest::decode(&cas.cfg.codec.decompress(&stored).unwrap()).unwrap();
        manifest.constants[0] = manifest.inline.len() as u32;
        cas.dfs().delete(&path).unwrap();
        let stored = cas.cfg.codec.compress(&manifest.encode());
        cas.dfs().write(&path, &stored).unwrap();
        let report = cas.recover();
        assert_eq!(report.corrupt_manifests_dropped, 1);
        assert!(matches!(cas.get_epoch(epoch), Err(CasError::Missing(_))));
    }

    #[test]
    fn a_run_a_value_short_or_long_and_a_constant_of_two_values_are_corrupt() {
        let (cas, epoch, raw) = one_daytime_epoch();
        let rows = fields_of(&raw)[1].len() as u32;
        for claimed in [rows - 1, rows + 1] {
            tamper_manifest(&cas, epoch, |m| m.tables[1].rows = claimed);
            assert_corrupt(&cas, epoch, &[1]);
        }
        tamper_manifest(&cas, epoch, |m| {
            m.tables[1].rows = rows;
            // The first constant column, CDR's, re-pointed at two values.
            assert!(m.tables[0].constant.contains(&true));
            m.constants[0] = m.inline.len() as u32;
            m.inline.push(b"0\n0\n".to_vec());
        });
        assert_corrupt(&cas, epoch, &[0]);
    }

    #[test]
    fn gc_counts_packs_as_packs_and_bytes_for_every_orphan() {
        let (cas, epoch, raw) = one_daytime_epoch();
        let dfs = cas.dfs();
        dfs.write(&cas.pack_path(97), b"orphan pack bytes").unwrap();
        let staging = dfs::staging_path(&cas.manifest_path(98));
        dfs.write(&staging, b"half a manifest").unwrap();
        dfs.write(&cas.manifest_path(99), b"a stray manifest")
            .unwrap();
        let before = cas.stats();
        let reclaimed = cas.gc();
        assert_eq!(reclaimed, 17 + 15 + 16);
        let after = cas.stats();
        assert_eq!(after.gc_packs_deleted - before.gc_packs_deleted, 1);
        assert_eq!(
            after.gc_bytes_reclaimed - before.gc_bytes_reclaimed,
            reclaimed
        );
        assert_eq!(cas.gc(), 0, "nothing left to sweep");
        assert_eq!(cas.bytes_stored(), cas.listed_bytes());
        assert_eq!(cas.get_epoch(epoch).unwrap(), raw);
    }

    #[test]
    fn an_empty_constant_piece_is_corrupt_not_a_panic() {
        let cas = store();
        let snap = &snapshots(1)[0];
        cas.put_epoch(snap.epoch.0, &snap.to_bytes()).unwrap();
        // The first constant column, re-pointed at an empty value.
        tamper_manifest(&cas, snap.epoch.0, |m| {
            m.constants[0] = m.inline.len() as u32;
            m.inline.push(Vec::new());
        });
        match cas.get_epoch(snap.epoch.0) {
            Err(CasError::Corrupt(why)) => assert!(why.contains("one value a row"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_corrupt(&cas, snap.epoch.0, &[0]);
    }

    /// A codec whose first `compress` once armed says so, then waits for
    /// the go.
    struct Gated {
        inner: SevenzLite,
        armed: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
    }

    impl Codec for Gated {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn compress(&self, input: &[u8]) -> Vec<u8> {
            let armed = self.armed.lock().take();
            if let Some((entered, go)) = armed {
                entered.send(()).unwrap();
                go.recv().unwrap();
            }
            self.inner.compress(input)
        }

        fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, codecs::CodecError> {
            self.inner.decompress(input)
        }
    }

    /// A put compresses before it takes the store's lock: a read of
    /// another epoch finishes while the put is inside its codec.
    #[test]
    fn a_read_of_another_epoch_does_not_wait_behind_a_put() {
        let gated = Arc::new(Gated {
            inner: SevenzLite::default(),
            armed: Mutex::new(None),
        });
        let config = CasConfig {
            codec: gated.clone(),
            ..CasConfig::default()
        };
        let cas = CasStore::new(Dfs::in_memory(), config);
        let snaps = snapshots(2);
        let (read, put) = (&snaps[0], &snaps[1]);
        cas.put_epoch(read.epoch.0, &read.to_bytes()).unwrap();
        let (entered, inside) = mpsc::channel();
        let (go, wait) = mpsc::channel();
        *gated.armed.lock() = Some((entered, wait));
        std::thread::scope(|scope| {
            let putting = scope.spawn(|| cas.put_epoch(put.epoch.0, &put.to_bytes()));
            inside.recv().unwrap();
            let (done, got) = mpsc::channel();
            let cas = &cas;
            scope.spawn(move || done.send(cas.get_epoch(read.epoch.0)).unwrap());
            let got = got.recv_timeout(std::time::Duration::from_secs(5));
            go.send(()).unwrap();
            assert_eq!(got.expect("the read waited").unwrap(), read.to_bytes());
            putting.join().unwrap().unwrap();
        });
        assert_eq!(cas.get_epoch(put.epoch.0).unwrap(), put.to_bytes());
    }
}
