//! Shared testbed assembly: generated trace + the three frameworks on
//! their own simulated clusters, mirroring §VII of the paper, and the
//! set-up steps the SPATE-only drills have in common.

use dfs::{Dfs, DfsConfig, IoModel};
use spate_core::framework::{ExplorationFramework, RawFramework, ShahedFramework, SpateFramework};
use spate_core::DecayPolicy;
use spate_serve::{Reply, TransportError};
use telco_trace::{Snapshot, TraceConfig, TraceGenerator};

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Trace volume as a fraction of the paper's 5 GB (see
    /// `TraceConfig::scaled`).
    pub scale: f64,
    /// Trace length in days (the paper: 7).
    pub days: u32,
    /// Apply the cluster-disk I/O model (bandwidth + seek + page cache).
    /// Unthrottled runs measure pure CPU shapes.
    pub throttled: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            scale: 1.0 / 128.0,
            days: 7,
            throttled: true,
        }
    }
}

impl BenchConfig {
    /// Rough raw bytes of one average snapshot (for cache sizing).
    pub fn approx_snapshot_bytes(&self) -> usize {
        let c = self.trace_config();
        // CDR lines ≈ 330 B, NMS lines ≈ 40 B.
        (c.cdr_base_per_epoch * 330.0 + f64::from(c.n_cells) * c.nms_reports_per_cell * 40.0)
            as usize
    }

    pub fn trace_config(&self) -> TraceConfig {
        TraceConfig::scaled(self.scale).with_days(self.days)
    }

    pub(crate) fn dfs(&self) -> Dfs {
        let mut config = DfsConfig::default();
        if self.throttled {
            config = config.with_io(IoModel::cluster_disks());
            // Page cache sized between the compressed and raw working set
            // of a one-day window: the compressed day fits, the raw one
            // does not — the regime the paper's testbed ran in (15 MB raw
            // snapshots vs. gigabytes of RAM across 4 VMs).
            let day_raw = self.approx_snapshot_bytes() * 48;
            config = config.with_cache(day_raw / 4);
        }
        Dfs::new(config)
    }

    /// The generator for this configuration.
    pub fn generator(&self) -> TraceGenerator {
        TraceGenerator::new(self.trace_config())
    }
}

/// The three systems under evaluation, each on its own cluster.
pub struct Frameworks {
    pub raw: RawFramework,
    pub shahed: ShahedFramework,
    pub spate: SpateFramework,
}

impl Frameworks {
    pub fn iter_mut(&mut self) -> [&mut dyn ExplorationFramework; 3] {
        [&mut self.raw, &mut self.shahed, &mut self.spate]
    }

    pub fn iter(&self) -> [&dyn ExplorationFramework; 3] {
        [&self.raw, &self.shahed, &self.spate]
    }
}

/// Build the three frameworks over a fresh trace; returns the frameworks
/// and the generator positioned at epoch 0.
pub fn build_frameworks(config: &BenchConfig) -> (Frameworks, TraceGenerator) {
    let generator = config.generator();
    let layout = generator.layout().clone();
    let fws = Frameworks {
        raw: RawFramework::new(config.dfs(), layout.clone()),
        shahed: ShahedFramework::new(config.dfs(), layout.clone()),
        spate: SpateFramework::new(config.dfs(), layout),
    };
    (fws, generator)
}

/// Generate and ingest `epochs` snapshots into all three frameworks,
/// discarding per-snapshot stats (setup helper for response benches).
pub fn ingest_all(fws: &mut Frameworks, generator: &mut TraceGenerator, epochs: usize) {
    for _ in 0..epochs {
        let Some(snapshot) = generator.next_snapshot() else {
            break;
        };
        fws.raw.ingest(&snapshot);
        fws.shahed.ingest(&snapshot);
        fws.spate.ingest(&snapshot);
    }
    fws.shahed.finalize();
}

/// One SPATE warehouse: a generator over `trace`, a framework on `dfs`
/// decaying under `policy`, the first `epochs` snapshots ingested. The
/// generator comes back positioned after them, for a drill that ingests
/// more mid-run.
pub fn warehouse(
    trace: TraceConfig,
    dfs: Dfs,
    policy: DecayPolicy,
    epochs: usize,
) -> (SpateFramework, TraceGenerator) {
    let mut generator = TraceGenerator::new(trace);
    let mut fw = SpateFramework::new(dfs, generator.layout().clone()).with_decay(policy);
    for snapshot in (&mut generator).take(epochs) {
        fw.ingest(&snapshot);
    }
    (fw, generator)
}

/// Ingest over a faulty DFS, re-submitting after a storage error (write
/// retries exhausted inside the DFS, a crashed datanode, …) up to 50
/// times: crash-consistent ingest guarantees a failed attempt leaves
/// nothing behind, so re-submitting is always safe. Returns whether the
/// epoch ingested and the re-submissions it took.
pub fn ingest_resubmitting(fw: &mut SpateFramework, snapshot: &Snapshot) -> (bool, u64) {
    let mut retries = 0u64;
    while fw.try_ingest(snapshot).is_err() {
        if retries == 50 {
            return (false, retries);
        }
        retries += 1;
    }
    (true, retries)
}

/// Submit a request until the reply is not a shed, so every workload item
/// is served exactly once. Returns the reply and the sheds before it.
pub fn until_served(mut submit: impl FnMut() -> Result<Reply, TransportError>) -> (Reply, u64) {
    let mut sheds = 0u64;
    loop {
        let reply = submit().expect("transport failed");
        if !reply.is_shed() {
            return (reply, sheds);
        }
        sheds += 1;
    }
}
