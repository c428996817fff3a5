//! `ingest_decay`: the write path and its background work. Per round a
//! fresh Path warehouse and a fresh CAS warehouse, both decaying, ingest
//! the same snapshots alternately. Compress, incremence/highlights,
//! `put_epoch` and decay do nearly all the work here and none in the read
//! workloads; the two backends side by side show a codec gain (Path
//! only) apart from a chunker/pack gain (CAS only).

use super::{build_oracle, decay_policy, generate, new_dfs, per, IoCounters, Sizing, Workload};
use crate::ops::{ingest_ops, Backend, Op, OpKind};
use crate::report::Values;
use crate::spans::Tracer;
use dfs::Dfs;
use spate_core::framework::{ExplorationFramework, IngestStats, RawFramework, SpateFramework};
use spate_core::index::decay::{decay_with_fungus_traced, Fungus};
use spate_core::index::highlights::HighlightConfig;
use spate_core::query::{Query, QueryResult};
use spate_core::storage::{SnapshotStore, StoredSnapshot};
use spate_core::TemporalIndex;
use std::sync::Arc;
use telco_trace::cells::{BoundingBox, CellLayout};
use telco_trace::time::{EpochId, EPOCHS_PER_DAY};
use telco_trace::Snapshot;

/// One warehouse under test and the filesystem it writes to.
struct Warehouse {
    fw: SpateFramework,
    dfs: Dfs,
}

impl Warehouse {
    fn fresh(backend: Backend, layout: &CellLayout) -> Self {
        let dfs = new_dfs();
        let fw = match backend {
            Backend::Path => SpateFramework::new(dfs.clone(), layout.clone()),
            Backend::Cas => SpateFramework::with_cas(dfs.clone(), layout.clone()),
        };
        Self {
            fw: fw.with_decay(decay_policy()),
            dfs,
        }
    }
}

/// The storage and index layers of one warehouse, held apart so the
/// traced round can call them one by one the way `try_ingest` does.
struct Shadow {
    store: SnapshotStore,
    index: TemporalIndex,
}

impl Shadow {
    fn fresh(backend: Backend) -> Self {
        let store = match backend {
            Backend::Path => SnapshotStore::new(new_dfs(), Arc::new(codecs::GzipLite::default())),
            Backend::Cas => SnapshotStore::new_cas(new_dfs(), cas::CasConfig::default()),
        };
        Self {
            store,
            index: TemporalIndex::new(HighlightConfig::default()),
        }
    }

    /// `SpateFramework::try_ingest`, layer by layer: serialise, compress
    /// and write (or `put_epoch`), incremence, decay.
    fn ingest(&mut self, snapshot: &Snapshot, tracer: &Tracer) -> Result<(), String> {
        let epoch = snapshot.epoch;
        let stored = {
            let _store = tracer.span("storage.store");
            let raw = tracer.time("trace.to_bytes", || snapshot.to_bytes());
            tracer.count("bytes.raw", raw.len() as u64);
            match self.store.cas() {
                None => {
                    let codec = codecs::by_name(self.store.codec_name()).ok_or("unknown codec")?;
                    let packed = tracer.time("codecs.compress", || codec.compress(&raw));
                    tracer.count("bytes.compress_in", raw.len() as u64);
                    tracer.count("bytes.compress_out", packed.len() as u64);
                    let (path, tmp) = (self.store.path_for(epoch), self.store.tmp_path_for(epoch));
                    let dfs = self.store.dfs();
                    tracer
                        .time("dfs.write", || dfs.write(&tmp, &packed))
                        .map_err(|e| format!("dfs write: {e}"))?;
                    tracer
                        .time("dfs.rename", || dfs.rename(&tmp, &path))
                        .map_err(|e| format!("dfs rename: {e}"))?;
                    StoredSnapshot {
                        epoch,
                        path,
                        raw_bytes: raw.len() as u64,
                        stored_bytes: packed.len() as u64,
                    }
                }
                Some(cas) => {
                    let receipt = tracer
                        .time("cas.put_epoch", || cas.put_epoch(epoch.0, &raw))
                        .map_err(|e| format!("cas put: {e}"))?;
                    StoredSnapshot {
                        epoch,
                        path: receipt.path,
                        raw_bytes: raw.len() as u64,
                        stored_bytes: receipt.new_bytes,
                    }
                }
            }
        };
        tracer.time("index.incremence", || {
            self.index.incremence(snapshot, &stored)
        });
        let (decay_span, evicted_count) = match self.store.cas() {
            None => ("index.decay", "evicted.path"),
            Some(_) => ("cas.drop_gc", "evicted.cas"),
        };
        let (report, _) = tracer
            .time(decay_span, || {
                decay_with_fungus_traced(
                    &mut self.index,
                    epoch,
                    &decay_policy(),
                    Fungus::EvictOldestIndividuals,
                    &self.store,
                )
            })
            .map_err(|e| format!("decay: {e}"))?;
        tracer.count(evicted_count, report.leaves_evicted as u64);
        Ok(())
    }
}

pub struct IngestDecay {
    layout: CellLayout,
    snapshots: Vec<Snapshot>,
    ops: Vec<Op>,
    path: Warehouse,
    cas: Warehouse,
    /// Raw bytes the Path warehouse ingested this round.
    raw_bytes: u64,
    /// True once a round wrote to the warehouses.
    dirty: bool,
    oracle: Option<RawFramework>,
    /// `(Path, CAS)` layers for the decomposition pass.
    shadows: Option<(Shadow, Shadow)>,
}

impl IngestDecay {
    fn warehouse(&self, backend: Backend) -> &Warehouse {
        match backend {
            Backend::Path => &self.path,
            Backend::Cas => &self.cas,
        }
    }

    fn backend_of(op: &Op) -> Backend {
        match op.kind {
            OpKind::Ingest(backend) => backend,
            _ => unreachable!("ingest_decay holds only ingest ops"),
        }
    }
}

impl Workload for IngestDecay {
    type Out = IngestStats;

    fn setup(seed: u64, sizing: &Sizing) -> Self {
        let (layout, snapshots) = generate(seed, sizing.scale, sizing.epochs());
        Self {
            path: Warehouse::fresh(Backend::Path, &layout),
            cas: Warehouse::fresh(Backend::Cas, &layout),
            ops: ingest_ops(sizing.epochs()),
            layout,
            snapshots,
            raw_bytes: 0,
            dirty: false,
            oracle: None,
            shadows: None,
        }
    }

    fn ops(&self) -> &[Op] {
        &self.ops
    }

    fn begin_round(&mut self) {
        if self.dirty {
            self.path = Warehouse::fresh(Backend::Path, &self.layout);
            self.cas = Warehouse::fresh(Backend::Cas, &self.layout);
            self.raw_bytes = 0;
            self.dirty = false;
        }
    }

    fn exec(&mut self, i: usize) -> Result<IngestStats, String> {
        self.dirty = true;
        let backend = Self::backend_of(&self.ops[i]);
        let snapshot = &self.snapshots[self.ops[i].window.0 as usize];
        let stats = match backend {
            Backend::Path => self.path.fw.try_ingest(snapshot),
            Backend::Cas => self.cas.fw.try_ingest(snapshot),
        }
        .map_err(|e| format!("ingest: {e}"))?;
        if backend == Backend::Path {
            self.raw_bytes += stats.raw_bytes;
        }
        Ok(stats)
    }

    fn span_name(&self, i: usize) -> &'static str {
        match Self::backend_of(&self.ops[i]) {
            Backend::Path => "ingest.path",
            Backend::Cas => "ingest.cas",
        }
    }

    fn prepare_verify(&mut self) {
        self.oracle = Some(build_oracle(&self.layout, &self.snapshots));
    }

    /// An ingest's answer is the warehouse's new state: the epoch reads
    /// back byte-identical to what was ingested.
    fn verify(&mut self, i: usize, out: &IngestStats) -> Result<(), String> {
        let backend = Self::backend_of(&self.ops[i]);
        let epoch = EpochId(self.ops[i].window.0);
        let snapshot = &self.snapshots[epoch.0 as usize];
        let wire = snapshot.to_bytes();
        if out.raw_bytes != wire.len() as u64 {
            return Err(format!(
                "op {i}: ingest reported {} raw bytes",
                out.raw_bytes
            ));
        }
        let stored = match backend {
            Backend::Path => self.path.fw.load_epoch(epoch),
            Backend::Cas => self.cas.fw.load_epoch(epoch),
        };
        if stored.map(|s| s.to_bytes()) != Some(wire) {
            return Err(format!("op {i}: epoch {} does not read back", epoch.0));
        }
        Ok(())
    }

    /// After the last ingest: both warehouses kept exactly the newest two
    /// days, answer retained windows like the oracle and decayed windows
    /// from highlights.
    fn verify_end(&mut self) -> Result<(), String> {
        let n = self.snapshots.len() as u32;
        let retained = 2 * EPOCHS_PER_DAY;
        let oracle = self.oracle.as_ref().expect("prepare_verify ran");
        let probe = |start: u32, end: u32| {
            Query::new(&["upflux", "call_drops"], BoundingBox::everything())
                .with_epoch_range(start, end)
        };
        for backend in [Backend::Path, Backend::Cas] {
            let fw = &self.warehouse(backend).fw;
            if fw.index().present_leaves() != retained as usize
                || fw.decay_log().leaves_evicted != (n - retained) as usize
            {
                return Err(format!(
                    "{backend:?}: {} leaves present, {} evicted",
                    fw.index().present_leaves(),
                    fw.decay_log().leaves_evicted
                ));
            }
            let q = probe(n - retained, n - 1);
            match (fw.query(&q), oracle.query(&q)) {
                (QueryResult::Exact(a), QueryResult::Exact(b)) if a == b => {}
                _ => {
                    return Err(format!(
                        "{backend:?}: retained window differs from the oracle"
                    ))
                }
            }
            if !fw.query(&probe(0, 3)).is_summary() {
                return Err(format!("{backend:?}: decayed window is not a summary"));
            }
        }
        Ok(())
    }

    fn begin_decompose(&mut self) {
        self.shadows = Some((Shadow::fresh(Backend::Path), Shadow::fresh(Backend::Cas)));
    }

    /// The chunker on its own (`put_epoch` runs it inside).
    fn probe(&mut self, i: usize, tracer: &Tracer) {
        if Self::backend_of(&self.ops[i]) == Backend::Cas {
            let raw = self.snapshots[self.ops[i].window.0 as usize].to_bytes();
            let _probe = tracer.span("probe");
            let chunking = cas::Chunking::default();
            tracer.time("cas.split", || cas::chunker::split(&raw, &chunking));
            tracer.count("bytes.chunked", raw.len() as u64);
        }
    }

    fn decompose(&mut self, i: usize, _out: &IngestStats, tracer: &Tracer) -> Result<(), String> {
        let snapshot = &self.snapshots[self.ops[i].window.0 as usize];
        let (path, cas) = self.shadows.as_mut().expect("begin_decompose ran");
        match Self::backend_of(&self.ops[i]) {
            Backend::Path => path.ingest(snapshot, tracer),
            Backend::Cas => cas.ingest(snapshot, tracer),
        }
    }

    /// The layer-by-layer replay ended in the same state as the
    /// frameworks' own ingests.
    fn decompose_end(&mut self) -> Result<(), String> {
        let (path, cas) = self.shadows.as_ref().expect("begin_decompose ran");
        for (shadow, backend) in [(path, Backend::Path), (cas, Backend::Cas)] {
            let space = self.warehouse(backend).fw.space();
            if shadow.store.stored_bytes() != space.data_bytes
                || shadow.index.index_bytes() != space.index_bytes
            {
                return Err(format!(
                    "{backend:?}: decomposed ingest ended in another state"
                ));
            }
        }
        Ok(())
    }

    fn io(&self) -> IoCounters {
        IoCounters::of(&[&self.path.dfs, &self.cas.dfs])
    }

    fn space_ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.path.fw.space().total() as f64
    }

    fn layer_metrics(&self, tracer: &Tracer, values: &mut Values) {
        let ns = |name: &str| tracer.total(name).0;
        values.set(
            "trace.to_bytes_ns_per_byte",
            per(ns("trace.to_bytes"), tracer.counted("bytes.raw")),
        );
        let (compress_in, compress_out) = (
            tracer.counted("bytes.compress_in"),
            tracer.counted("bytes.compress_out"),
        );
        values.set(
            "codecs.compress_ns_per_byte",
            per(ns("codecs.compress"), compress_in),
        );
        values.set("codecs.ratio", per(compress_in, compress_out));
        values.set("dfs.write_us_per_call", tracer.mean_ns("dfs.write") / 1e3);
        values.set("cas.put_epoch_ms", tracer.mean_ns("cas.put_epoch") / 1e6);
        values.set(
            "cas.split_ns_per_byte",
            per(ns("cas.split"), tracer.counted("bytes.chunked")),
        );
        values.set(
            "cas.drop_gc_ms_per_evict",
            per(ns("cas.drop_gc"), tracer.counted("evicted.cas")) / 1e6,
        );
        values.set(
            "index.decay_ms_per_evict",
            per(ns("index.decay"), tracer.counted("evicted.path")) / 1e6,
        );
        values.set("storage.store_ms", tracer.mean_ns("storage.store") / 1e6);
        values.set(
            "index.incremence_ms",
            tracer.mean_ns("index.incremence") / 1e6,
        );
        values.set(
            "index.bytes_per_epoch",
            self.path.fw.space().index_bytes as f64 / self.snapshots.len() as f64,
        );
        if let Some(cas) = self.cas.fw.store().cas() {
            let stats = cas.stats();
            values.set(
                "cas.dedup_share",
                per(stats.dedup_hits, stats.dedup_hits + stats.new_chunks),
            );
            values.set(
                "cas.space_ratio",
                self.raw_bytes as f64 / cas.listed_bytes() as f64,
            );
        }
    }
}
