//! A simulated replicated distributed filesystem (HDFS-class).
//!
//! SPATE stores compressed snapshots "on a replicated big data file system
//! for availability and performance" — the paper's testbed is HDFS with
//! 64 MB blocks and replication 3 on 7.2K-RPM disks (§VII-B). This crate
//! substitutes an in-process simulation that preserves the two properties
//! the experiments depend on:
//!
//! 1. **Accounting** — files are split into blocks, each replicated across
//!    datanodes; [`Dfs::metrics`] reports logical and physical bytes, which
//!    is what the disk-space experiments (Figs. 8/10) measure.
//! 2. **Bandwidth** — reads and writes can be throttled to a configurable
//!    MB/s plus per-file seek latency ([`IoModel`]), reproducing the
//!    I/O-bound vs CPU-bound trade-off that decides when compression wins
//!    (T4's nested-loop join re-reads files; at disk bandwidth the 10×
//!    smaller compressed stream wins despite decompression CPU).
//!
//! The namespace is flat path → file; datanodes hold in-memory block
//! stores. Datanode failure can be injected ([`Dfs::kill_datanode`]);
//! reads fall over to surviving replicas.
//!
//! The fault-tolerant storage path layers four defenses on top:
//!
//! * **Block checksums** — the namenode records a CRC-32 per block at
//!   write time; every replica read is verified and silently-corrupted
//!   replicas trigger failover to the next replica ([`fault`]).
//! * **Retry with backoff** — transient faults injected by a seeded
//!   [`fault::FaultPlan`] are absorbed by a bounded-exponential
//!   [`retry::RetryPolicy`] before any error escapes.
//! * **Repair** — [`Dfs::repair`] re-replicates under-replicated blocks
//!   after crashes and drops (then replaces) corrupt replicas ([`repair`]).
//! * **Atomic visibility** — paths are reserved in the namespace under a
//!   single write lock before any block lands, partially-written files
//!   are rolled back, and [`Dfs::write_staged`] (a staging file, then an
//!   atomic [`Dfs::rename`]) is every store's one crash-consistent commit.

#![deny(unsafe_code)]

pub mod breaker;
pub mod cache;
pub mod fault;
pub mod metrics;
pub mod node;
pub mod repair;
pub mod retry;

pub use breaker::{BreakerConfig, BreakerState, BreakerStatsSnapshot};
pub use cache::PageCache;
pub use fault::{FaultConfig, FaultPlan, FaultStatsSnapshot};
pub use metrics::DfsMetrics;
pub use repair::RepairReport;
pub use retry::RetryPolicy;

use codecs::crc32::crc32;
use fault::CrashAction;
use metrics::MetricsInner;
use node::DataNode;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Errors from filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    NotFound(String),
    AlreadyExists(String),
    /// Every replica of a needed block is on dead datanodes.
    BlockUnavailable {
        path: String,
        block: u64,
    },
    /// Every reachable replica of a block failed its checksum.
    BlockCorrupt {
        path: String,
        block: u64,
    },
    NoLiveDatanodes,
    /// A transient fault persisted past the retry policy's budget.
    RetriesExhausted {
        path: String,
        op: &'static str,
    },
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::NotFound(p) => write!(f, "no such file: {p}"),
            DfsError::AlreadyExists(p) => write!(f, "file exists: {p}"),
            DfsError::BlockUnavailable { path, block } => {
                write!(f, "all replicas lost for block {block} of {path}")
            }
            DfsError::BlockCorrupt { path, block } => {
                write!(
                    f,
                    "all reachable replicas corrupt for block {block} of {path}"
                )
            }
            DfsError::NoLiveDatanodes => write!(f, "no live datanodes"),
            DfsError::RetriesExhausted { path, op } => {
                write!(f, "retries exhausted during {op} of {path}")
            }
        }
    }
}

impl std::error::Error for DfsError {}

/// Disk/network bandwidth model applied to reads and writes.
#[derive(Debug, Clone, Copy)]
pub struct IoModel {
    /// Sequential read bandwidth in MB/s; `f64::INFINITY` disables.
    pub read_mbps: f64,
    /// Write bandwidth in MB/s (per replica pipeline).
    pub write_mbps: f64,
    /// Fixed per-file access latency (head seek / RPC), in microseconds.
    pub seek_us: u64,
}

impl IoModel {
    /// No throttling: pure in-memory speed (for unit tests).
    pub fn unthrottled() -> Self {
        Self {
            read_mbps: f64::INFINITY,
            write_mbps: f64::INFINITY,
            seek_us: 0,
        }
    }

    /// Cluster-disk model resembling the paper's 7.2K RPM RAID-5 SAS
    /// testbed behind VMFS: 300 MB/s sequential streaming, 150 MB/s
    /// writes, 8 ms per-file access latency (a 7.2K-RPM head seek plus
    /// rotational latency and the HDFS open RPC).
    pub fn cluster_disks() -> Self {
        Self {
            read_mbps: 300.0,
            write_mbps: 150.0,
            seek_us: 8_000,
        }
    }

    fn throttle(&self, bytes: usize, mbps: f64) {
        self.seek();
        self.charge(bytes, mbps);
    }

    /// Pay the fixed per-file access latency only.
    fn seek(&self) {
        if self.seek_us > 0 {
            spin_sleep(Duration::from_micros(self.seek_us));
        }
    }

    /// Pay bandwidth for `bytes` only. The read path charges per block as
    /// each block is actually fetched, so a read that fails mid-file pays
    /// (and accounts) only for the bytes it truly transferred.
    fn charge(&self, bytes: usize, mbps: f64) {
        if mbps.is_finite() && mbps > 0.0 && bytes > 0 {
            let secs = bytes as f64 / (mbps * 1_000_000.0);
            spin_sleep(Duration::from_secs_f64(secs));
        }
    }
}

/// Sleep that stays accurate for sub-millisecond durations (thread::sleep
/// alone over-shoots badly at microsecond scale).
fn spin_sleep(d: Duration) {
    let start = std::time::Instant::now();
    if d > Duration::from_millis(2) {
        std::thread::sleep(d - Duration::from_millis(1));
    }
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Filesystem configuration.
#[derive(Debug, Clone, Copy)]
pub struct DfsConfig {
    /// Block size in bytes (the paper's testbed: 64 MB).
    pub block_size: usize,
    /// Replication factor (the paper's testbed: 3).
    pub replication: usize,
    pub n_datanodes: usize,
    pub io: IoModel,
    /// Page-cache capacity in bytes (0 disables). Reads served from cache
    /// skip the disk cost entirely — see [`cache::PageCache`].
    pub cache_bytes: usize,
    /// Retry budget wrapped around transient block-level faults.
    pub retry: RetryPolicy,
    /// Per-datanode circuit breakers under the retry policy (disabled by
    /// default — see [`breaker::BreakerConfig`]).
    pub breaker: BreakerConfig,
}

impl Default for DfsConfig {
    fn default() -> Self {
        Self {
            block_size: 64 * 1024 * 1024,
            replication: 3,
            n_datanodes: 4, // the paper's 4-VM cluster
            io: IoModel::unthrottled(),
            cache_bytes: 0,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::disabled(),
        }
    }
}

impl DfsConfig {
    pub fn with_io(mut self, io: IoModel) -> Self {
        self.io = io;
        self
    }

    pub fn with_cache(mut self, cache_bytes: usize) -> Self {
        self.cache_bytes = cache_bytes;
        self
    }

    pub fn with_block_size(mut self, block_size: usize) -> Self {
        assert!(block_size > 0);
        self.block_size = block_size;
        self
    }

    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }
}

/// File metadata held by the namenode.
#[derive(Debug, Clone)]
pub(crate) struct FileMeta {
    pub(crate) len: u64,
    pub(crate) blocks: Vec<u64>,
    /// Reserved by an in-flight write; invisible to readers until commit.
    pub(crate) pending: bool,
}

/// Block metadata: which datanodes hold replicas, plus the CRC-32 the
/// namenode recorded at write time (HDFS keeps per-block checksums in
/// sidecar `.meta` files; here the namenode holds them directly).
#[derive(Debug, Clone)]
pub(crate) struct BlockMeta {
    pub(crate) replicas: Vec<usize>,
    pub(crate) crc: u32,
}

pub(crate) struct Namespace {
    pub(crate) files: BTreeMap<String, FileMeta>,
    pub(crate) blocks: BTreeMap<u64, BlockMeta>,
    /// Replica copies `(block, datanode)` known to be corrupt — recorded
    /// when a read detects a checksum mismatch so later reads skip the bad
    /// copy and the repair pass drops and replaces it.
    pub(crate) corrupt: HashSet<(u64, usize)>,
}

/// Suffix of a staging file: `<path>.tmp` holds a file's bytes until
/// [`Dfs::write_staged`] commits them to `<path>`.
pub const STAGING_SUFFIX: &str = ".tmp";

/// The staging path of `path`.
pub fn staging_path(path: &str) -> String {
    format!("{path}{STAGING_SUFFIX}")
}

/// The simulated cluster. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Dfs {
    inner: Arc<DfsInner>,
}

pub(crate) struct DfsInner {
    pub(crate) config: DfsConfig,
    pub(crate) namespace: RwLock<Namespace>,
    pub(crate) datanodes: Vec<DataNode>,
    next_block_id: AtomicU64,
    pub(crate) metrics: MetricsInner,
    cache: cache::PageCache,
    pub(crate) fault: FaultPlan,
    pub(crate) breaker: breaker::Breaker,
}

impl Dfs {
    pub fn new(config: DfsConfig) -> Self {
        Self::with_faults(config, FaultConfig::none())
    }

    /// Build a cluster with a seeded fault plan attached. Every block-level
    /// operation consults the plan; `FaultConfig::none()` makes it a pure
    /// counter block with no injected faults.
    pub fn with_faults(config: DfsConfig, faults: FaultConfig) -> Self {
        assert!(config.n_datanodes >= config.replication.max(1));
        let datanodes = (0..config.n_datanodes).map(DataNode::new).collect();
        Self {
            inner: Arc::new(DfsInner {
                config,
                namespace: RwLock::new(Namespace {
                    files: BTreeMap::new(),
                    blocks: BTreeMap::new(),
                    corrupt: HashSet::new(),
                }),
                datanodes,
                next_block_id: AtomicU64::new(1),
                metrics: MetricsInner::default(),
                cache: cache::PageCache::new(config.cache_bytes),
                fault: FaultPlan::new(faults),
                breaker: breaker::Breaker::new(config.breaker, config.n_datanodes),
            }),
        }
    }

    /// Default in-memory cluster, unthrottled.
    pub fn in_memory() -> Self {
        Self::new(DfsConfig::default())
    }

    pub fn config(&self) -> &DfsConfig {
        &self.inner.config
    }

    /// Injected-fault and recovery counters for this cluster instance.
    pub fn fault_stats(&self) -> FaultStatsSnapshot {
        self.inner.fault.stats()
    }

    /// Circuit-breaker transition counters for this cluster instance.
    pub fn breaker_stats(&self) -> BreakerStatsSnapshot {
        self.inner.breaker.stats()
    }

    /// Observable breaker state of one datanode.
    pub fn breaker_state(&self, dn: usize) -> BreakerState {
        self.inner.breaker.state(dn)
    }

    /// Advance the fault plan's operation clock and apply any due
    /// crash/revive actions to the datanodes.
    fn tick_faults(&self) {
        for action in self.inner.fault.tick(self.inner.config.n_datanodes) {
            match action {
                CrashAction::Kill(n) => self.inner.datanodes[n].kill(),
                CrashAction::Revive(n) => self.inner.datanodes[n].revive(),
            }
        }
    }

    /// Write a new file. Fails if the path exists (HDFS files are
    /// write-once, matching snapshot immutability).
    ///
    /// The path is **reserved** in the namespace under a single write lock
    /// before any block is placed, so two concurrent writers to the same
    /// path race on the reservation and exactly one proceeds — the loser
    /// gets [`DfsError::AlreadyExists`] without leaking blocks. On any
    /// failure after reservation, blocks already placed are rolled back
    /// and the reservation is released.
    pub fn write(&self, path: &str, data: &[u8]) -> Result<(), DfsError> {
        let _span = obs::span("dfs.write");
        self.tick_faults();
        let inner = &self.inner;
        {
            // Reserve under ONE write lock: the exists-check and the insert
            // are atomic (the old read-check/write-insert pair let two
            // concurrent writers both pass the check).
            let mut ns = inner.namespace.write();
            if ns.files.contains_key(path) {
                return Err(DfsError::AlreadyExists(path.to_string()));
            }
            ns.files.insert(
                path.to_string(),
                FileMeta {
                    len: 0,
                    blocks: Vec::new(),
                    pending: true,
                },
            );
        }
        match self.write_blocks(path, data) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.rollback_write(path);
                Err(e)
            }
        }
    }

    /// Block placement for a path already reserved as pending.
    fn write_blocks(&self, path: &str, data: &[u8]) -> Result<(), DfsError> {
        let inner = &self.inner;
        let live: Vec<usize> = inner
            .datanodes
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_alive())
            .map(|(i, _)| i)
            .collect();
        if live.is_empty() {
            return Err(DfsError::NoLiveDatanodes);
        }

        // Replication pipeline: the client pays one pass of write bandwidth
        // (replica forwarding overlaps in HDFS). The pipeline histogram
        // covers the bandwidth charge plus replica placement.
        let pipeline_start = std::time::Instant::now();
        inner
            .config
            .io
            .throttle(data.len(), inner.config.io.write_mbps);

        let replication = inner.config.replication.min(live.len());
        let retry = inner.config.retry;
        let mut blocks = Vec::new();
        let chunks: Vec<&[u8]> = if data.is_empty() {
            vec![]
        } else {
            data.chunks(inner.config.block_size).collect()
        };
        for chunk in chunks {
            let block_id = inner.next_block_id.fetch_add(1, Ordering::Relaxed);
            let crc = crc32(chunk);
            let mut replicas = Vec::with_capacity(replication);
            for r in 0..replication {
                let dn = live[(block_id as usize + r) % live.len()];
                // Absorb transient per-replica faults with bounded retries.
                // A replica that stays faulty past the budget is skipped —
                // the block lands under-replicated and the repair pass tops
                // it back up — but losing *every* replica fails the write.
                let mut attempt = 0u32;
                let start = std::time::Instant::now();
                let placed = loop {
                    if !inner.fault.transient_write(block_id, dn, attempt) {
                        inner.datanodes[dn].put_block(block_id, chunk.to_vec());
                        if attempt > 0 {
                            inner.fault.stats.retry_successes.inc();
                        }
                        break true;
                    }
                    if !retry.allows(attempt + 1, start.elapsed()) {
                        inner.fault.stats.retries_exhausted.inc();
                        break false;
                    }
                    inner.fault.stats.retry_attempts.inc();
                    spin_sleep(retry.backoff(attempt));
                    attempt += 1;
                };
                if placed {
                    replicas.push(dn);
                }
            }
            if replicas.is_empty() {
                // Record the partial block list on the pending entry so
                // rollback_write can free blocks placed for earlier chunks.
                if let Some(f) = inner.namespace.write().files.get_mut(path) {
                    f.blocks = blocks.clone();
                }
                return Err(DfsError::RetriesExhausted {
                    path: path.to_string(),
                    op: "write",
                });
            }
            // Silent at-rest corruption: one replica of an unlucky block
            // rots right after the pipeline acks (the writer cannot see it;
            // only a checksummed read or the repair pass can).
            if let Some(slot) = inner.fault.corrupt_replica_slot(block_id, replicas.len()) {
                if inner.datanodes[replicas[slot]].corrupt_block(block_id) {
                    inner.fault.note_corruption_injected();
                }
            }
            blocks.push(block_id);
            inner
                .namespace
                .write()
                .blocks
                .insert(block_id, BlockMeta { replicas, crc });
        }
        obs::observe(
            "dfs.write.pipeline_ns",
            pipeline_start.elapsed().as_nanos() as u64,
        );
        {
            // Commit: fill in the metadata and flip the pending bit.
            let mut ns = inner.namespace.write();
            let meta = ns.files.get_mut(path).expect("reserved entry");
            meta.len = data.len() as u64;
            meta.blocks = blocks;
            meta.pending = false;
        }
        inner.metrics.record_write(data.len() as u64);
        obs::shard::add_sharded("dfs.write.bytes", data.len() as u64);
        Ok(())
    }

    /// Undo a failed write: free any blocks it placed, release the
    /// reservation.
    fn rollback_write(&self, path: &str) {
        let inner = &self.inner;
        let blocks = {
            let mut ns = inner.namespace.write();
            let Some(meta) = ns.files.remove(path) else {
                return;
            };
            let mut placed = meta.blocks;
            // Blocks may be registered in `ns.blocks` but not yet recorded
            // on the file (failure between chunk loop iterations): the
            // chunk loop stores the partial list on error before returning.
            for b in &placed {
                ns.blocks.remove(b);
            }
            ns.corrupt.retain(|(b, _)| !placed.contains(b));
            placed.sort_unstable();
            placed
        };
        for block_id in blocks {
            for dn in &inner.datanodes {
                dn.remove_block(block_id);
            }
        }
    }

    /// Read a whole file. Recently read files are served from the page
    /// cache (if configured) without paying the disk cost.
    ///
    /// Each fetched replica is verified against the block's CRC-32; a
    /// mismatch marks that copy corrupt (so later reads and the repair
    /// pass skip it) and fails over to the next replica. Transient faults
    /// are retried under the configured [`RetryPolicy`]. Bandwidth is
    /// charged per block *as it is fetched*, so a read that fails mid-file
    /// pays — and records in metrics — only the bytes actually moved.
    pub fn read(&self, path: &str) -> Result<Vec<u8>, DfsError> {
        let _span = obs::span("dfs.read");
        self.tick_faults();
        let inner = &self.inner;
        if let Some(cached) = inner.cache.get(path) {
            inner.metrics.cache_hits.inc();
            obs::trace::event("dfs.cache.hit", &[("path", path)]);
            obs::shard::add_sharded("dfs.read.bytes", cached.len() as u64);
            obs::cost::add_bytes_read("dfs", cached.len() as u64);
            inner.metrics.record_read(cached.len() as u64);
            return Ok(cached.as_ref().clone());
        }
        inner.metrics.cache_misses.inc();
        obs::trace::event("dfs.cache.miss", &[("path", path)]);
        let (len, blocks) = {
            let ns = inner.namespace.read();
            let meta = ns
                .files
                .get(path)
                .filter(|m| !m.pending)
                .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
            (meta.len, meta.blocks.clone())
        };
        // One head seek per file; bandwidth is charged per block below,
        // only for blocks that are actually served.
        inner.config.io.seek();
        let mut out = Vec::with_capacity(len as usize);
        for block_id in blocks {
            match self.read_block(path, block_id) {
                Ok(bytes) => {
                    inner
                        .config
                        .io
                        .charge(bytes.len(), inner.config.io.read_mbps);
                    out.extend_from_slice(&bytes);
                }
                Err(e) => {
                    // Truthful accounting for the partial transfer.
                    inner.metrics.record_partial_read(out.len() as u64);
                    return Err(e);
                }
            }
        }
        inner.metrics.record_read(out.len() as u64);
        obs::shard::add_sharded("dfs.read.bytes", out.len() as u64);
        obs::cost::add_bytes_read("dfs", out.len() as u64);
        let shared = std::sync::Arc::new(out);
        inner.cache.put(path, std::sync::Arc::clone(&shared));
        Ok(std::sync::Arc::try_unwrap(shared).unwrap_or_else(|arc| arc.as_ref().clone()))
    }

    /// Fetch and checksum-verify one block, failing over across replicas
    /// and retrying transient faults under the retry policy. Replicas on
    /// datanodes whose circuit breaker is open are skipped; when open
    /// breakers are the only reason nothing served the block, the block
    /// is reported unavailable (degrading to partial coverage upstream)
    /// rather than spending the retry budget on a node known to be sick.
    fn read_block(&self, path: &str, block_id: u64) -> Result<Vec<u8>, DfsError> {
        let inner = &self.inner;
        inner.breaker.tick();
        let (replicas, crc) = {
            let ns = inner.namespace.read();
            match ns.blocks.get(&block_id) {
                Some(b) => (b.replicas.clone(), b.crc),
                None => (Vec::new(), 0),
            }
        };
        let retry = inner.config.retry;
        let mut attempt = 0u32;
        let start = std::time::Instant::now();
        loop {
            let mut saw_transient = false;
            let mut saw_corrupt = false;
            for (slot, &dn) in replicas.iter().enumerate() {
                if !inner.datanodes[dn].is_alive() {
                    continue;
                }
                if inner.namespace.read().corrupt.contains(&(block_id, dn)) {
                    saw_corrupt = true; // known-bad copy from an earlier read
                    continue;
                }
                if !inner.breaker.admits(dn) {
                    continue;
                }
                if inner.fault.transient_read(block_id, dn, attempt) {
                    inner.breaker.record_failure(dn);
                    saw_transient = true;
                    continue;
                }
                if let Some(stall) = inner.fault.slow_read(block_id, dn) {
                    spin_sleep(stall);
                }
                let Some(bytes) = inner.datanodes[dn].get_block(block_id) else {
                    inner.breaker.record_failure(dn);
                    continue;
                };
                if crc32(&bytes) != crc {
                    inner.breaker.record_failure(dn);
                    inner.fault.stats.checksum_mismatches.inc();
                    if obs::trace::current().is_some() {
                        obs::trace::event(
                            "dfs.checksum_mismatch",
                            &[
                                ("block", &block_id.to_string()),
                                ("replica", &dn.to_string()),
                            ],
                        );
                    }
                    inner.namespace.write().corrupt.insert((block_id, dn));
                    saw_corrupt = true;
                    continue;
                }
                if slot > 0 || attempt > 0 {
                    inner.fault.stats.read_failovers.inc();
                    if obs::trace::current().is_some() {
                        obs::trace::event(
                            "dfs.read_failover",
                            &[
                                ("block", &block_id.to_string()),
                                ("replica", &dn.to_string()),
                            ],
                        );
                    }
                }
                if attempt > 0 {
                    inner.fault.stats.retry_successes.inc();
                }
                inner.breaker.record_success(dn);
                return Ok(bytes);
            }
            // No replica served the block this round. Retry only helps if
            // at least one failure was transient — and only while the
            // request's cancellation/deadline budget (if any) still
            // allows more work. An interrupted request skips the backoff
            // sleep and fails fast instead, degrading to partial
            // coverage upstream.
            let mut wants_retry = saw_transient && retry.allows(attempt + 1, start.elapsed());
            if wants_retry && obs::budget::interrupted().is_some() {
                obs::inc("dfs.budget.interrupts");
                wants_retry = false;
            }
            if wants_retry {
                inner.fault.stats.retry_attempts.inc();
                if obs::trace::current().is_some() {
                    obs::trace::event(
                        "dfs.retry",
                        &[
                            ("block", &block_id.to_string()),
                            ("attempt", &(attempt + 1).to_string()),
                        ],
                    );
                }
                spin_sleep(retry.backoff(attempt));
                attempt += 1;
                continue;
            }
            if saw_transient {
                inner.fault.stats.retries_exhausted.inc();
                return Err(DfsError::RetriesExhausted {
                    path: path.to_string(),
                    op: "read",
                });
            }
            // Permanent failure: corrupt if any live replica failed its
            // checksum (now or on an earlier read), lost otherwise.
            return Err(if saw_corrupt {
                DfsError::BlockCorrupt {
                    path: path.to_string(),
                    block: block_id,
                }
            } else {
                DfsError::BlockUnavailable {
                    path: path.to_string(),
                    block: block_id,
                }
            });
        }
    }

    /// Atomically move a committed file to a new path (the commit step of
    /// crash-consistent ingest: write `x.tmp`, then `rename(x.tmp, x)`).
    pub fn rename(&self, from: &str, to: &str) -> Result<(), DfsError> {
        let _span = obs::span("dfs.rename");
        let inner = &self.inner;
        {
            let mut ns = inner.namespace.write();
            if ns.files.get(from).is_none_or(|m| m.pending) {
                return Err(DfsError::NotFound(from.to_string()));
            }
            if ns.files.contains_key(to) {
                return Err(DfsError::AlreadyExists(to.to_string()));
            }
            let meta = ns.files.remove(from).expect("checked above");
            ns.files.insert(to.to_string(), meta);
        }
        inner.cache.invalidate(from);
        inner.cache.invalidate(to);
        obs::inc("dfs.rename.ops");
        Ok(())
    }

    /// Write a new file at `path` through its staging file: clear a stale
    /// [`staging_path`] a crashed attempt left, write it, then rename it
    /// onto `path`, deleting it if the rename fails (`path` exists). A
    /// crash leaves at most a staging file, never a torn file at `path`.
    pub fn write_staged(&self, path: &str, data: &[u8]) -> Result<(), DfsError> {
        self.staged(path, data, false)
    }

    /// [`Self::write_staged`] over a file that may exist: the old file is
    /// deleted only once the new one is whole at its staging path, so a
    /// write that fails keeps it.
    pub fn replace_staged(&self, path: &str, data: &[u8]) -> Result<(), DfsError> {
        self.staged(path, data, true)
    }

    fn staged(&self, path: &str, data: &[u8], replace: bool) -> Result<(), DfsError> {
        let tmp = staging_path(path);
        match self.delete(&tmp) {
            Ok(_) | Err(DfsError::NotFound(_)) => {}
            Err(e) => return Err(e),
        }
        self.write(&tmp, data)?;
        if replace && self.exists(path) {
            self.delete(path)?;
        }
        self.rename(&tmp, path).inspect_err(|_| {
            let _ = self.delete(&tmp);
        })
    }

    /// Delete every staging file under `prefix`, each a crashed write's.
    /// Returns how many were deleted.
    pub fn sweep_staging(&self, prefix: &str) -> u64 {
        let mut staged = self.list(prefix);
        staged.retain(|p| p.ends_with(STAGING_SUFFIX) && self.delete(p).is_ok());
        staged.len() as u64
    }

    /// Delete a file, freeing its blocks. Returns the logical bytes freed.
    pub fn delete(&self, path: &str) -> Result<u64, DfsError> {
        let _span = obs::span("dfs.delete");
        self.tick_faults();
        let inner = &self.inner;
        inner.cache.invalidate(path);
        let meta = {
            let mut ns = inner.namespace.write();
            if ns.files.get(path).is_some_and(|m| m.pending) {
                return Err(DfsError::NotFound(path.to_string()));
            }
            let meta = ns
                .files
                .remove(path)
                .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
            for b in &meta.blocks {
                ns.blocks.remove(b);
                ns.corrupt.retain(|(blk, _)| blk != b);
            }
            meta
        };
        let mut replicas_freed = 0u64;
        for block_id in &meta.blocks {
            for dn in &inner.datanodes {
                if dn.remove_block(*block_id) {
                    replicas_freed += 1;
                }
            }
        }
        inner.metrics.record_delete(meta.len, replicas_freed);
        Ok(meta.len)
    }

    pub fn exists(&self, path: &str) -> bool {
        self.inner
            .namespace
            .read()
            .files
            .get(path)
            .is_some_and(|m| !m.pending)
    }

    pub fn file_len(&self, path: &str) -> Result<u64, DfsError> {
        self.inner
            .namespace
            .read()
            .files
            .get(path)
            .filter(|m| !m.pending)
            .map(|m| m.len)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))
    }

    /// Paths under a prefix, in lexicographic order. In-flight (pending)
    /// writes are invisible.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.inner
            .namespace
            .read()
            .files
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter(|(_, m)| !m.pending)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Simulate a datanode crash. Blocks with surviving replicas stay
    /// readable; fully-lost blocks error on read.
    pub fn kill_datanode(&self, id: usize) {
        self.inner.datanodes[id].kill();
    }

    pub fn revive_datanode(&self, id: usize) {
        self.inner.datanodes[id].revive();
    }

    /// Test/chaos hook: flip one bit of the replica of `path`'s first
    /// block stored on datanode `dn`, if that node holds one. Returns
    /// whether anything was corrupted. The namenode checksum is untouched,
    /// so subsequent reads detect the damage.
    pub fn corrupt_replica_for_test(&self, path: &str, dn: usize) -> bool {
        let block = {
            let ns = self.inner.namespace.read();
            match ns.files.get(path).and_then(|m| m.blocks.first()) {
                Some(&b) => b,
                None => return false,
            }
        };
        self.inner.cache.invalidate(path);
        self.inner.datanodes[dn].corrupt_block(block)
    }

    /// Test/chaos probe, read-only: the datanodes holding a replica of
    /// each block of `path`, in block order; empty for no such file.
    pub fn block_replicas(&self, path: &str) -> Vec<Vec<usize>> {
        let ns = self.inner.namespace.read();
        let file = ns.files.get(path).filter(|m| !m.pending);
        let blocks = file.map_or(&[][..], |m| &m.blocks);
        blocks
            .iter()
            .map(|b| ns.blocks[b].replicas.clone())
            .collect()
    }

    /// Page-cache `(hits, misses)`: every read is one or the other, so a
    /// cluster without a cache counts each read a miss.
    pub fn cache_stats(&self) -> (u64, u64) {
        let m = &self.inner.metrics;
        (m.cache_hits.get(), m.cache_misses.get())
    }

    /// Drop all cached file contents (cold-cache measurement boundary).
    pub fn drop_caches(&self) {
        self.inner.cache.clear();
    }

    /// Current usage and traffic counters.
    pub fn metrics(&self) -> DfsMetrics {
        let inner = &self.inner;
        let ns = inner.namespace.read();
        let physical: u64 = inner.datanodes.iter().map(|d| d.bytes_stored()).sum();
        inner.metrics.snapshot().with_sizes(
            ns.files.values().filter(|f| !f.pending).count() as u64,
            ns.blocks.len() as u64,
            ns.files
                .values()
                .filter(|f| !f.pending)
                .map(|f| f.len)
                .sum(),
            physical,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip() {
        let fs = Dfs::in_memory();
        let data = b"hello distributed world".repeat(100);
        fs.write("/traces/day0/snap0", &data).unwrap();
        assert_eq!(fs.read("/traces/day0/snap0").unwrap(), data);
        assert_eq!(
            fs.file_len("/traces/day0/snap0").unwrap(),
            data.len() as u64
        );
        assert!(fs.exists("/traces/day0/snap0"));
        assert!(!fs.exists("/traces/day0/snap1"));
    }

    #[test]
    fn files_are_write_once() {
        let fs = Dfs::in_memory();
        fs.write("/a", b"1").unwrap();
        assert_eq!(
            fs.write("/a", b"2"),
            Err(DfsError::AlreadyExists("/a".into()))
        );
    }

    #[test]
    fn missing_files_error() {
        let fs = Dfs::in_memory();
        assert_eq!(fs.read("/nope"), Err(DfsError::NotFound("/nope".into())));
        assert_eq!(fs.delete("/nope"), Err(DfsError::NotFound("/nope".into())));
        assert!(fs.file_len("/nope").is_err());
    }

    #[test]
    fn multi_block_files_split_and_rejoin() {
        let config = DfsConfig {
            block_size: 1024,
            ..DfsConfig::default()
        };
        let fs = Dfs::new(config);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        fs.write("/big", &data).unwrap();
        assert_eq!(fs.read("/big").unwrap(), data);
        let m = fs.metrics();
        assert_eq!(m.n_blocks, 10); // ceil(10000/1024)
        assert_eq!(m.logical_bytes, 10_000);
        assert_eq!(m.physical_bytes, 30_000); // replication 3
    }

    #[test]
    fn replication_survives_single_failure() {
        let config = DfsConfig {
            block_size: 512,
            ..DfsConfig::default()
        };
        let fs = Dfs::new(config);
        let data = vec![7u8; 4096];
        fs.write("/resilient", &data).unwrap();
        fs.kill_datanode(0);
        assert_eq!(fs.read("/resilient").unwrap(), data);
        fs.kill_datanode(1);
        assert_eq!(fs.read("/resilient").unwrap(), data);
    }

    #[test]
    fn losing_all_replicas_is_detected() {
        let config = DfsConfig {
            replication: 2,
            n_datanodes: 2,
            ..DfsConfig::default()
        };
        let fs = Dfs::new(config);
        fs.write("/fragile", b"data").unwrap();
        fs.kill_datanode(0);
        fs.kill_datanode(1);
        assert!(matches!(
            fs.read("/fragile"),
            Err(DfsError::BlockUnavailable { .. })
        ));
        // Revival restores access (blocks were retained).
        fs.revive_datanode(0);
        fs.revive_datanode(1);
        assert_eq!(fs.read("/fragile").unwrap(), b"data");
    }

    #[test]
    fn writes_with_no_live_datanodes_fail() {
        let fs = Dfs::in_memory();
        for i in 0..4 {
            fs.kill_datanode(i);
        }
        assert_eq!(fs.write("/x", b"y"), Err(DfsError::NoLiveDatanodes));
    }

    #[test]
    fn delete_frees_space() {
        let fs = Dfs::in_memory();
        fs.write("/tmp/a", &vec![1u8; 1000]).unwrap();
        fs.write("/tmp/b", &vec![2u8; 500]).unwrap();
        assert_eq!(fs.metrics().logical_bytes, 1500);
        assert_eq!(fs.delete("/tmp/a").unwrap(), 1000);
        let m = fs.metrics();
        assert_eq!(m.logical_bytes, 500);
        assert_eq!(m.physical_bytes, 1500);
        assert_eq!(m.n_files, 1);
        assert!(!fs.exists("/tmp/a"));
        // The delete itself is metered, not silently dropped.
        assert_eq!(m.deletes, 1);
        assert_eq!(m.bytes_deleted, 1000);
        assert_eq!(m.replicas_freed, 3); // one block × replication 3
    }

    #[test]
    fn list_by_prefix_is_sorted() {
        let fs = Dfs::in_memory();
        for p in ["/z/1", "/a/2", "/a/1", "/a/10", "/b/1"] {
            fs.write(p, b"x").unwrap();
        }
        assert_eq!(fs.list("/a/"), vec!["/a/1", "/a/10", "/a/2"]);
        assert_eq!(fs.list("/"), vec!["/a/1", "/a/10", "/a/2", "/b/1", "/z/1"]);
        assert!(fs.list("/none").is_empty());
    }

    #[test]
    fn empty_files_are_legal() {
        let fs = Dfs::in_memory();
        fs.write("/empty", b"").unwrap();
        assert_eq!(fs.read("/empty").unwrap(), Vec::<u8>::new());
        assert_eq!(fs.metrics().n_blocks, 0);
    }

    #[test]
    fn metrics_track_traffic() {
        let fs = Dfs::in_memory();
        fs.write("/t", &vec![0u8; 2048]).unwrap();
        fs.read("/t").unwrap();
        fs.read("/t").unwrap();
        let m = fs.metrics();
        assert_eq!(m.writes, 1);
        assert_eq!(m.reads, 2);
        assert_eq!(m.bytes_written, 2048);
        assert_eq!(m.bytes_read, 4096);
    }

    #[test]
    fn throttled_reads_take_proportional_time() {
        let io = IoModel {
            read_mbps: 50.0,
            write_mbps: 50.0,
            seek_us: 0,
        };
        let fs = Dfs::new(DfsConfig::default().with_io(io));
        let data = vec![0u8; 1_000_000]; // 1 MB at 50 MB/s → 20 ms
        let t0 = std::time::Instant::now();
        fs.write("/throttled", &data).unwrap();
        let write_time = t0.elapsed();
        let t1 = std::time::Instant::now();
        fs.read("/throttled").unwrap();
        let read_time = t1.elapsed();
        assert!(write_time >= Duration::from_millis(18), "{write_time:?}");
        assert!(read_time >= Duration::from_millis(18), "{read_time:?}");
        assert!(read_time < Duration::from_millis(200), "{read_time:?}");
    }

    #[test]
    fn cached_rereads_skip_the_disk_cost() {
        let io = IoModel {
            read_mbps: 20.0,
            write_mbps: f64::INFINITY,
            seek_us: 0,
        };
        let fs = Dfs::new(DfsConfig::default().with_io(io).with_cache(10 << 20));
        let data = vec![3u8; 2_000_000]; // 2 MB at 20 MB/s → 100 ms cold
        fs.write("/hot", &data).unwrap();
        let t0 = std::time::Instant::now();
        fs.read("/hot").unwrap();
        let cold = t0.elapsed();
        let t1 = std::time::Instant::now();
        for _ in 0..5 {
            assert_eq!(fs.read("/hot").unwrap().len(), data.len());
        }
        let warm = t1.elapsed() / 5;
        assert!(cold >= Duration::from_millis(90), "{cold:?}");
        assert!(warm < cold / 10, "warm {warm:?} vs cold {cold:?}");
        let (hits, misses) = fs.cache_stats();
        assert_eq!(hits, 5);
        assert_eq!(misses, 1);
        // Deleting invalidates.
        fs.delete("/hot").unwrap();
        assert!(fs.read("/hot").is_err());
    }

    #[test]
    fn small_cache_thrashes_on_large_working_set() {
        let fs = Dfs::new(DfsConfig::default().with_cache(1000));
        for i in 0..10 {
            fs.write(&format!("/f{i}"), &vec![i as u8; 400]).unwrap();
        }
        // Cycle through all files twice: working set 4000 B > 1000 B cache.
        for _ in 0..2 {
            for i in 0..10 {
                fs.read(&format!("/f{i}")).unwrap();
            }
        }
        let (hits, misses) = fs.cache_stats();
        assert_eq!(hits, 0, "LRU cycling over an oversized set never hits");
        assert_eq!(misses, 20);
    }

    #[test]
    fn a_cluster_without_a_cache_counts_every_read_a_miss() {
        let fs = Dfs::in_memory();
        fs.write("/uncached", b"payload").unwrap();
        for _ in 0..3 {
            fs.read("/uncached").unwrap();
        }
        assert_eq!(fs.cache_stats(), (0, 3));
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let fs = Dfs::in_memory();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let fs = fs.clone();
                scope.spawn(move || {
                    for i in 0..20 {
                        let path = format!("/t{t}/f{i}");
                        let data = vec![t as u8; 100 + i];
                        fs.write(&path, &data).unwrap();
                        assert_eq!(fs.read(&path).unwrap(), data);
                    }
                });
            }
        });
        assert_eq!(fs.metrics().n_files, 160);
    }

    /// Regression for the TOCTOU race: with the old read-lock exists-check
    /// followed by a separate write-lock insert, two concurrent writers to
    /// the same path could both succeed and the loser's blocks leaked on
    /// datanodes forever. Now exactly one wins and accounting stays exact.
    #[test]
    fn concurrent_writers_to_same_path_race_cleanly() {
        for round in 0..20 {
            let fs = Dfs::new(DfsConfig {
                block_size: 64,
                ..DfsConfig::default()
            });
            let barrier = std::sync::Barrier::new(2);
            let winners: Vec<bool> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|t| {
                        let fs = fs.clone();
                        let barrier = &barrier;
                        scope.spawn(move || {
                            barrier.wait();
                            fs.write("/contended", &vec![t as u8 + 1; 640]).is_ok()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(
                winners.iter().filter(|&&w| w).count(),
                1,
                "round {round}: exactly one writer must win, got {winners:?}"
            );
            let m = fs.metrics();
            assert_eq!(m.n_files, 1);
            assert_eq!(m.n_blocks, 10, "round {round}: loser leaked blocks");
            assert_eq!(m.logical_bytes, 640);
            assert_eq!(m.physical_bytes, 3 * 640, "round {round}: replica leak");
            let data = fs.read("/contended").unwrap();
            assert_eq!(data.len(), 640);
            assert!(data.iter().all(|&b| b == data[0]), "torn file");
        }
    }

    #[test]
    fn checksum_mismatch_fails_over_to_clean_replica() {
        let fs = Dfs::new(DfsConfig {
            block_size: 512,
            ..DfsConfig::default()
        });
        let data = vec![5u8; 512];
        fs.write("/checked", &data).unwrap();
        let dn = (0..4)
            .find(|&i| fs.corrupt_replica_for_test("/checked", i))
            .unwrap();
        assert_eq!(fs.read("/checked").unwrap(), data, "failover hides rot");
        let s = fs.fault_stats();
        assert_eq!(s.checksum_mismatches, 1);
        assert!(s.read_failovers >= 1);
        // The bad copy is remembered: a re-read doesn't re-verify it.
        fs.drop_caches();
        assert_eq!(fs.read("/checked").unwrap(), data);
        assert_eq!(fs.fault_stats().checksum_mismatches, 1);
        let _ = dn;
    }

    #[test]
    fn all_replicas_corrupt_is_distinguished_from_lost() {
        let fs = Dfs::new(DfsConfig {
            block_size: 512,
            ..DfsConfig::default()
        });
        fs.write("/doomed", &[1u8; 256]).unwrap();
        for i in 0..4 {
            fs.corrupt_replica_for_test("/doomed", i);
        }
        assert!(matches!(
            fs.read("/doomed"),
            Err(DfsError::BlockCorrupt { .. })
        ));
    }

    #[test]
    fn failed_reads_record_partial_bytes() {
        let fs = Dfs::new(DfsConfig {
            block_size: 1000,
            replication: 2,
            n_datanodes: 2,
            ..DfsConfig::default()
        });
        fs.write("/partial", &vec![8u8; 5000]).unwrap();
        // Corrupt both replicas of the LAST block only: the read serves
        // four blocks then fails, and must account exactly those bytes.
        let last_block = {
            let ns = fs.inner.namespace.read();
            *ns.files.get("/partial").unwrap().blocks.last().unwrap()
        };
        for dn in &fs.inner.datanodes {
            dn.corrupt_block(last_block);
        }
        assert!(fs.read("/partial").is_err());
        let m = fs.metrics();
        assert_eq!(m.partial_reads, 1);
        assert_eq!(m.bytes_read_partial, 4000);
        assert_eq!(m.bytes_read, 0, "failed read is not a completed read");
    }

    #[test]
    fn rename_commits_atomically() {
        let fs = Dfs::in_memory();
        fs.write("/stage/a.tmp", b"payload").unwrap();
        fs.rename("/stage/a.tmp", "/final/a").unwrap();
        assert!(!fs.exists("/stage/a.tmp"));
        assert_eq!(fs.read("/final/a").unwrap(), b"payload");
        assert_eq!(
            fs.rename("/stage/a.tmp", "/x"),
            Err(DfsError::NotFound("/stage/a.tmp".into()))
        );
        fs.write("/other", b"z").unwrap();
        assert_eq!(
            fs.rename("/other", "/final/a"),
            Err(DfsError::AlreadyExists("/final/a".into()))
        );
    }

    #[test]
    fn a_staged_write_clears_a_stale_staging_file_and_never_overwrites() {
        let fs = Dfs::in_memory();
        fs.write(&staging_path("/w/a"), b"torn").unwrap();
        fs.write_staged("/w/a", b"whole").unwrap();
        assert_eq!(fs.list("/w/"), ["/w/a"]);
        assert_eq!(fs.read("/w/a").unwrap(), b"whole");
        assert_eq!(
            fs.write_staged("/w/a", b"again"),
            Err(DfsError::AlreadyExists("/w/a".into()))
        );
        assert_eq!(
            fs.list("/w/"),
            ["/w/a"],
            "the failed commit's staging file is gone"
        );
        assert_eq!(fs.read("/w/a").unwrap(), b"whole");
    }

    #[test]
    fn a_staged_replace_keeps_the_old_file_until_the_new_one_is_whole() {
        let fs = Dfs::in_memory();
        fs.replace_staged("/r/img", b"first").unwrap();
        fs.replace_staged("/r/img", b"second").unwrap();
        assert_eq!(fs.read("/r/img").unwrap(), b"second");
        let nodes = fs.config().n_datanodes;
        (0..nodes).for_each(|dn| fs.kill_datanode(dn));
        assert_eq!(
            fs.replace_staged("/r/img", b"third"),
            Err(DfsError::NoLiveDatanodes)
        );
        (0..nodes).for_each(|dn| fs.revive_datanode(dn));
        assert_eq!(fs.list("/r/"), ["/r/img"]);
        assert_eq!(fs.read("/r/img").unwrap(), b"second");
    }

    #[test]
    fn the_sweep_deletes_staging_files_under_its_prefix_alone() {
        let fs = Dfs::in_memory();
        for path in ["/s/a.tmp", "/s/x/b.snap.tmp", "/s/c", "/t/d.tmp", "/s/tmp"] {
            fs.write(path, b"x").unwrap();
        }
        assert_eq!(fs.sweep_staging("/s/"), 2);
        assert_eq!(fs.list("/"), ["/s/c", "/s/tmp", "/t/d.tmp"]);
        assert_eq!(fs.sweep_staging("/s/"), 0);
    }

    #[test]
    fn block_replicas_names_each_blocks_holders() {
        let fs = Dfs::new(DfsConfig {
            block_size: 100,
            replication: 2,
            n_datanodes: 4,
            ..DfsConfig::default()
        });
        fs.write("/f", &[1; 250]).unwrap();
        let replicas = fs.block_replicas("/f");
        assert_eq!(replicas.len(), 3);
        assert!(replicas.iter().all(|r| r.len() == 2));
        assert!(fs.block_replicas("/none").is_empty());
        for &dn in &replicas[1] {
            fs.kill_datanode(dn);
        }
        assert!(fs.read("/f").is_err(), "every holder of block 1 is down");
    }

    /// End-to-end determinism: the same seed must produce identical fault
    /// and recovery counters across two full write/read/repair cycles.
    #[test]
    fn fault_plan_runs_are_reproducible() {
        let run = |seed: u64| {
            let fs = Dfs::with_faults(
                DfsConfig {
                    block_size: 256,
                    replication: 2,
                    ..DfsConfig::default()
                },
                FaultConfig::chaos(seed),
            );
            for i in 0..40 {
                fs.write(&format!("/f{i:02}"), &vec![i as u8; 700]).unwrap();
            }
            let mut served = 0;
            for i in 0..40 {
                if fs.read(&format!("/f{i:02}")).is_ok() {
                    served += 1;
                }
            }
            let repair = fs.repair();
            (fs.fault_stats(), repair, served)
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must reproduce identical runs");
        let c = run(43);
        assert_ne!(a.0, c.0, "different seeds should differ");
        // Chaos actually happened and was survived.
        assert!(a.0.transient_reads_injected + a.0.transient_writes_injected > 0);
        assert!(a.2 >= 38, "most files stay readable under chaos: {}", a.2);
    }

    #[test]
    fn pending_writes_are_invisible_midflight() {
        // A no-live-datanodes failure exercises rollback: the reservation
        // must be released so the path is writable again.
        let fs = Dfs::in_memory();
        for i in 0..4 {
            fs.kill_datanode(i);
        }
        assert_eq!(fs.write("/x", b"y"), Err(DfsError::NoLiveDatanodes));
        assert!(!fs.exists("/x"));
        for i in 0..4 {
            fs.revive_datanode(i);
        }
        fs.write("/x", b"y").unwrap();
        assert_eq!(fs.read("/x").unwrap(), b"y");
    }
}
