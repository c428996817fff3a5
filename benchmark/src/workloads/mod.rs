//! The four workloads and what they share: sizing, trace generation,
//! the disk-cost model and the interface the driver replays them
//! through.

pub mod explore;
pub mod ingest;
pub mod serve;

use crate::harness::Floors;
use crate::ops::{Op, ServeMix};
use crate::report::Values;
use crate::spans::Tracer;
use dfs::{Dfs, DfsConfig, IoModel};
use spate_core::framework::{ExplorationFramework, RawFramework};
use spate_core::DecayPolicy;
use telco_trace::cells::CellLayout;
use telco_trace::time::EPOCHS_PER_DAY;
use telco_trace::{Snapshot, TraceConfig, TraceGenerator};

/// How big a run is. `full` is what `BENCHMARK.json` measures; `quick`
/// is a smoke-sized replay that still verifies every answer.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// `TraceConfig::scaled` factor (1/64: ~72 KB raw per snapshot).
    pub scale: f64,
    /// Days of snapshots in `ingest_decay` and both explore workloads.
    pub days: u32,
    /// Measured rounds never drop below this, whatever `--seconds` says.
    pub min_rounds: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    pub floors: Floors,
    pub explore_heavy_ops: u32,
    pub explore_other_instances: u32,
    pub serve: ServeMix,
    /// Untimed warm-up before the first set-up.
    pub warmup_secs: f64,
}

impl Sizing {
    pub fn full() -> Self {
        Self {
            scale: 1.0 / 64.0,
            days: 4,
            min_rounds: 5,
            setups: 5,
            floors: Floors {
                light: 150,
                heavy: 12,
            },
            explore_heavy_ops: 12,
            explore_other_instances: 1,
            serve: ServeMix {
                base_epochs: 3 * EPOCHS_PER_DAY,
                light: 350,
                heavy: 20,
                sql: 12,
                decayed: 14,
                ingests: 4,
            },
            warmup_secs: 0.5,
        }
    }

    pub fn quick() -> Self {
        Self {
            scale: 1.0 / 512.0,
            days: 3,
            min_rounds: 2,
            setups: 1,
            floors: Floors {
                light: 48,
                heavy: 4,
            },
            explore_heavy_ops: 6,
            explore_other_instances: 1,
            serve: ServeMix {
                base_epochs: 3 * EPOCHS_PER_DAY,
                light: 160,
                heavy: 12,
                sql: 6,
                decayed: 6,
                ingests: 4,
            },
            warmup_secs: 0.05,
        }
    }

    pub fn epochs(&self) -> u32 {
        self.days * EPOCHS_PER_DAY
    }
}

/// Generate the first `n_epochs` snapshots of the seeded trace.
pub fn generate(seed: u64, scale: f64, n_epochs: u32) -> (CellLayout, Vec<Snapshot>) {
    let config = TraceConfig::scaled(scale)
        .with_seed(seed)
        .with_days(n_epochs.div_ceil(EPOCHS_PER_DAY));
    let mut generator = TraceGenerator::new(config);
    let layout = generator.layout().clone();
    let snapshots = generator.by_ref().take(n_epochs as usize).collect();
    (layout, snapshots)
}

/// Generate and drop snapshots for `secs`: brings the clock speed and
/// the allocator to a steady state before anything is timed.
pub fn warm_up(seed: u64, scale: f64, secs: f64) {
    let start = std::time::Instant::now();
    let mut generator = TraceGenerator::new(TraceConfig::scaled(scale).with_seed(seed));
    while start.elapsed().as_secs_f64() < secs {
        match generator.next_snapshot() {
            Some(s) => drop(std::hint::black_box(s.to_bytes())),
            None => generator = TraceGenerator::new(TraceConfig::scaled(scale).with_seed(seed)),
        }
    }
}

/// The oracle: the plain row store of the paper's evaluation, fed the
/// same snapshots and asked the same questions.
pub fn build_oracle(layout: &CellLayout, snapshots: &[Snapshot]) -> RawFramework {
    let mut oracle = RawFramework::in_memory(layout.clone());
    for s in snapshots {
        oracle.ingest(s);
    }
    oracle
}

/// Unthrottled cluster: the modelled disk cost is reported from counts
/// (`io_ms_per_op`) instead of being slept, which would only add noise.
pub fn new_dfs() -> Dfs {
    Dfs::new(DfsConfig::default())
}

/// Full resolution for the newest day and the one before; highlights
/// kept far beyond any run.
pub fn decay_policy() -> DecayPolicy {
    DecayPolicy {
        full_resolution_days: 1,
        day_highlight_days: 100,
        month_highlight_days: 100,
        year_highlight_days: 100,
    }
}

/// Traffic counters of the filesystems under a workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoCounters {
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl IoCounters {
    pub fn of(filesystems: &[&Dfs]) -> Self {
        let mut sum = Self::default();
        for fs in filesystems {
            let m = fs.metrics();
            sum.reads += m.reads;
            sum.writes += m.writes;
            sum.bytes_read += m.bytes_read;
            sum.bytes_written += m.bytes_written;
        }
        sum
    }

    pub fn since(&self, earlier: &IoCounters) -> IoCounters {
        IoCounters {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }

    /// Time the paper's cluster disks would have spent on this traffic:
    /// a seek per file access plus streaming at the modelled bandwidths.
    pub fn modelled_ms(&self) -> f64 {
        let disks = IoModel::cluster_disks();
        (self.reads + self.writes) as f64 * disks.seek_us as f64 / 1e3
            + self.bytes_read as f64 / (disks.read_mbps * 1e3)
            + self.bytes_written as f64 / (disks.write_mbps * 1e3)
    }
}

/// What the driver needs from a workload. Everything a method calls in
/// the program under test is a public function of its crates.
pub trait Workload: Sized {
    /// Result of one op, kept so that dropping it is not timed.
    type Out;

    /// Generate the snapshots and build the state under test. Timed as
    /// `setup_s`.
    fn setup(seed: u64, sizing: &Sizing) -> Self;

    /// Stop every thread the state owns.
    fn teardown(self) {}

    fn ops(&self) -> &[Op];

    /// Untimed: return mutable state to what `setup` left, so every
    /// round replays the op list against identical state. Read-only
    /// workloads have nothing to do.
    fn begin_round(&mut self) {}

    /// Run op `i`. Timed.
    fn exec(&mut self, i: usize) -> Result<Self::Out, String>;

    /// Name of the span the traced round files op `i`'s whole run under.
    fn span_name(&self, i: usize) -> &'static str;

    /// Untimed, once before the verified round: build the oracle.
    fn prepare_verify(&mut self);

    /// Check op `i`'s result against the oracle.
    fn verify(&mut self, i: usize, out: &Self::Out) -> Result<(), String>;

    /// Checks on the final state of the verified round.
    fn verify_end(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Untimed, once before the decomposition pass (tracing only): build
    /// the shadow state the layer-by-layer replay runs against.
    fn begin_decompose(&mut self) {}

    /// Layer work the op stream cannot isolate from outside (the chunker
    /// on an epoch's bytes, filling a cache), run before op `i`'s
    /// decomposition and not attributed to it.
    fn probe(&mut self, _i: usize, _tracer: &Tracer) {}

    /// Replay op `i` through the public layer calls the framework makes,
    /// one span per call, and check the result equals `out`, the answer
    /// of the whole run that the oracle already confirmed.
    fn decompose(&mut self, i: usize, out: &Self::Out, tracer: &Tracer) -> Result<(), String>;

    /// Checks on the final state of the decomposition pass.
    fn decompose_end(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Traffic counters of every filesystem under the workload.
    fn io(&self) -> IoCounters;

    /// Raw bytes ingested over `space().total()` of the warehouse under
    /// test, as of now.
    fn space_ratio(&self) -> f64;

    /// Per-layer metrics from the traced round's spans and the program's
    /// own counters.
    fn layer_metrics(&self, tracer: &Tracer, values: &mut Values);
}

/// `ns` per `units`, 0 when the layer saw no work.
pub fn per(ns: u64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        ns as f64 / units as f64
    }
}
