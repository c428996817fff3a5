//! `explore_path` and `explore_cas`: the cold read path. One op list,
//! replayed over a Path warehouse and over a CAS warehouse built from
//! the same snapshots; no cache exists below `SpateFramework::query`, so
//! every op pays dfs read -> decompress -> parse -> filter/project.

use super::{build_oracle, generate, new_dfs, per, IoCounters, Sizing, Workload};
use crate::harness::Class;
use crate::ops::{explore_ops, Op, OpKind};
use crate::report::Values;
use crate::spans::Tracer;
use dfs::Dfs;
use engine::Dataset;
use privacy::{Anonymizer, Hierarchy};
use spate_core::framework::{ExplorationFramework, RawFramework, SpateFramework};
use spate_core::index::Covering;
use spate_core::query::{project_snapshots, Query, QueryResult};
use spate_core::tasks;
use spate_sql::{ResultSet, SqlContext};
use telco_trace::schema::{cdr, nms};
use telco_trace::time::EpochId;
use telco_trace::Snapshot;

/// Result of one op, in the program's own types.
pub enum Out {
    Query(QueryResult),
    Flux(Vec<(i64, i64)>),
    Aggregate(tasks::AggregateResult),
    Join(Vec<tasks::Relocation>),
    Privacy(Option<privacy::AnonymizedTable>),
    Statistics(Option<tasks::StatisticsResult>),
    Clustering(engine::KMeansModel),
    Regression(Option<engine::LinearModel>),
    Sql(ResultSet),
}

/// Build the `Q(a, b, w)` of an explore op.
pub fn query_of(op: &Op) -> Option<Query> {
    match &op.kind {
        OpKind::Explore { attributes, bbox } => {
            Some(Query::new(attributes, *bbox).with_epoch_range(op.window.0, op.window.1))
        }
        _ => None,
    }
}

/// Run one op against a framework: the warehouse under test and the RAW
/// oracle execute the same public entry points.
pub fn run_op(fw: &dyn ExplorationFramework, op: &Op) -> Result<Out, String> {
    let (start, end) = (EpochId(op.window.0), EpochId(op.window.1));
    Ok(match &op.kind {
        OpKind::Explore { .. } => Out::Query(fw.query(&query_of(op).expect("explore op"))),
        OpKind::T1 => Out::Flux(tasks::t1_equality(fw, start).0),
        OpKind::T2 => Out::Flux(tasks::t2_range(fw, start, end).0),
        OpKind::T3 => Out::Aggregate(tasks::t3_aggregate(fw, start, end).0),
        OpKind::T4 => Out::Join(tasks::t4_join(fw, start, end).0),
        OpKind::T5 { k } => Out::Privacy(tasks::t5_privacy(fw, start, end, *k).0),
        OpKind::T6 => Out::Statistics(tasks::t6_statistics(fw, start, end).0),
        OpKind::T7 { k } => Out::Clustering(tasks::t7_clustering(fw, start, end, *k).0),
        OpKind::T8 => Out::Regression(tasks::t8_regression(fw, start, end).0),
        OpKind::Sql(sql) => Out::Sql(
            SqlContext::new(fw, start, end)
                .query(sql)
                .map_err(|e| format!("sql: {e}"))?,
        ),
        OpKind::Ingest(_) => return Err("explore workloads do not ingest".into()),
    })
}

/// SQL rows in canonical order (GROUP BY output order is hash order).
fn sorted_rows(rs: &ResultSet) -> Vec<Vec<telco_trace::Value>> {
    let mut rows = rs.rows.clone();
    spate_core::shard::canonical_sort(&mut rows);
    rows
}

/// Do two results carry the same answer? Exact rows compare in arrival
/// order (both sides read the same snapshots in epoch order); types
/// without `PartialEq` compare by their `Debug` text, which prints
/// floats with every digit.
pub fn same_answer(a: &Out, b: &Out) -> bool {
    match (a, b) {
        (Out::Query(QueryResult::Exact(x)), Out::Query(QueryResult::Exact(y))) => x == y,
        (Out::Flux(x), Out::Flux(y)) => x == y,
        (Out::Aggregate(x), Out::Aggregate(y)) => {
            x.drops_per_cell == y.drops_per_cell
                && x.drop_rate_per_cluster == y.drop_rate_per_cluster
        }
        (Out::Join(x), Out::Join(y)) => x == y,
        (Out::Privacy(x), Out::Privacy(y)) => format!("{x:?}") == format!("{y:?}"),
        (Out::Statistics(x), Out::Statistics(y)) => format!("{x:?}") == format!("{y:?}"),
        (Out::Clustering(x), Out::Clustering(y)) => format!("{x:?}") == format!("{y:?}"),
        (Out::Regression(x), Out::Regression(y)) => format!("{x:?}") == format!("{y:?}"),
        (Out::Sql(x), Out::Sql(y)) => x.columns == y.columns && sorted_rows(x) == sorted_rows(y),
        _ => false,
    }
}

/// Span name a non-query op's whole run is filed under.
fn whole_span(kind: &OpKind) -> &'static str {
    match kind {
        OpKind::Explore { .. } => "query.whole",
        OpKind::T1 => "tasks.t1",
        OpKind::T2 => "tasks.t2",
        OpKind::T3 => "tasks.t3",
        OpKind::T4 => "tasks.t4",
        OpKind::T5 { .. } => "tasks.t5",
        OpKind::T6 => "tasks.t6",
        OpKind::T7 { .. } => "tasks.t7",
        OpKind::T8 => "tasks.t8",
        OpKind::Sql(_) => "sql.whole",
        OpKind::Ingest(_) => "ingest.whole",
    }
}

/// The cold read path over one backend (`CAS = false`: `explore_path`).
pub struct Explore<const CAS: bool> {
    fw: SpateFramework,
    dfs: Dfs,
    snapshots: Vec<Snapshot>,
    ops: Vec<Op>,
    raw_bytes: u64,
    oracle: Option<RawFramework>,
}

impl<const CAS: bool> Explore<CAS> {
    /// What `SnapshotStore::load` does, through the public calls it
    /// makes: read -> (decompress) -> parse, one span per layer.
    fn load_decomposed(&self, epoch: EpochId, tracer: &Tracer) -> Result<Snapshot, String> {
        let _load = tracer.span("storage.load");
        let store = self.fw.store();
        let raw = match store.cas() {
            None => {
                let packed = tracer
                    .time("dfs.read", || store.dfs().read(&store.path_for(epoch)))
                    .map_err(|e| format!("dfs read: {e}"))?;
                let codec = codecs::by_name(store.codec_name()).ok_or("unknown codec")?;
                let raw = tracer
                    .time("codecs.decompress", || codec.decompress(&packed))
                    .map_err(|e| format!("decompress: {e}"))?;
                tracer.count("bytes.packed", packed.len() as u64);
                raw
            }
            Some(cas) => tracer
                .time("cas.get_epoch", || cas.get_epoch(epoch.0))
                .map_err(|e| format!("cas get: {e}"))?,
        };
        tracer.count("bytes.decoded", raw.len() as u64);
        tracer
            .time("trace.from_bytes", || Snapshot::from_bytes(&raw))
            .map_err(|e| format!("parse: {e}"))
    }

    fn scan_decomposed(
        &self,
        window: (u32, u32),
        tracer: &Tracer,
    ) -> Result<Vec<Snapshot>, String> {
        (window.0..=window.1)
            .map(|e| self.load_decomposed(EpochId(e), tracer))
            .collect()
    }

    /// Replay an op through the layer calls the framework makes. Ops
    /// whose fold is private to `tasks` are not decomposed (`None`).
    fn decompose_op(&self, op: &Op, tracer: &Tracer) -> Result<Option<Out>, String> {
        let (start, end) = (EpochId(op.window.0), EpochId(op.window.1));
        Ok(Some(match &op.kind {
            OpKind::Explore { .. } => {
                let q = query_of(op).expect("explore op");
                let epochs: Vec<EpochId> = match tracer.time("index.find_covering", || {
                    self.fw.index().find_covering(start, end)
                }) {
                    Covering::Exact(leaves) => leaves.iter().map(|l| l.epoch).collect(),
                    _ => return Err("window not at full resolution".into()),
                };
                let decoded_before = tracer.counted("bytes.decoded");
                let snaps = epochs
                    .iter()
                    .map(|&e| self.load_decomposed(e, tracer))
                    .collect::<Result<Vec<_>, _>>()?;
                tracer.count(
                    "bytes.decoded.query",
                    tracer.counted("bytes.decoded") - decoded_before,
                );
                let scanned: usize = snaps.iter().map(Snapshot::total_records).sum();
                let result = tracer.time("query.project", || {
                    project_snapshots(&snaps, &q, self.fw.layout())
                });
                tracer.count("rows.scanned", scanned as u64);
                tracer.count(
                    "rows.returned",
                    (result.cdr.rows.len() + result.nms.rows.len()) as u64,
                );
                // Freeing the parsed rows (a heap value per field) is part
                // of every query's time.
                tracer.time("trace.drop", || drop(snaps));
                Out::Query(QueryResult::Exact(result))
            }
            // T5-T7 as `tasks` runs them: scan, build the engine/privacy
            // input, one public call. The whole-vs-decomposed check
            // keeps this copy of the input building honest.
            OpKind::T5 { k } => {
                let records: Vec<_> = self
                    .scan_decomposed(op.window, tracer)?
                    .into_iter()
                    .flat_map(|s| s.cdr)
                    .collect();
                let anonymizer = Anonymizer::new(
                    vec![
                        (cdr::CALLER_ID, Hierarchy::MaskSuffix { levels: 10 }),
                        (
                            cdr::DURATION_S,
                            Hierarchy::NumericRange {
                                base_width: 60.0,
                                levels: 6,
                            },
                        ),
                        (cdr::CELL_ID, Hierarchy::MaskSuffix { levels: 4 }),
                    ],
                    *k,
                )
                .with_suppression_limit(0.05);
                Out::Privacy(tracer.time("privacy.anonymize", || anonymizer.anonymize(&records)))
            }
            OpKind::T6 => {
                const COLUMNS: [usize; 4] = [
                    cdr::DURATION_S,
                    cdr::UPFLUX,
                    cdr::DOWNFLUX,
                    cdr::BILLING_CLASS,
                ];
                let rows: Vec<Vec<f64>> = self
                    .scan_decomposed(op.window, tracer)?
                    .iter()
                    .flat_map(|s| &s.cdr)
                    .map(|r| {
                        COLUMNS
                            .iter()
                            .map(|&c| r.get(c).as_f64().unwrap_or(0.0))
                            .collect()
                    })
                    .collect();
                let dataset = Dataset::parallelize(rows);
                let col_stats = tracer.time("engine.colstats", || {
                    engine::colstats(dataset.clone(), COLUMNS.len())
                });
                let correlation = tracer.time("engine.correlation", || {
                    engine::correlation_matrix(dataset, COLUMNS.len())
                });
                Out::Statistics(match (col_stats, correlation) {
                    (Some(col_stats), Some(correlation)) => Some(tasks::StatisticsResult {
                        col_stats,
                        correlation,
                    }),
                    _ => None,
                })
            }
            OpKind::T7 { k } => {
                let layout = self.fw.layout();
                let mut points: Vec<Vec<f64>> = Vec::new();
                for snap in self.scan_decomposed(op.window, tracer)? {
                    for r in &snap.nms {
                        let Some(cell_id) = r.get(nms::CELL_ID).as_i64() else {
                            continue;
                        };
                        if cell_id < 0 || cell_id as usize >= layout.len() {
                            continue;
                        }
                        let cell = layout.get(cell_id as u32);
                        points.push(vec![
                            cell.x_m / 1000.0,
                            cell.y_m / 1000.0,
                            r.get(nms::CALL_DROPS).as_f64().unwrap_or(0.0),
                            r.get(nms::CALL_ATTEMPTS).as_f64().unwrap_or(0.0),
                        ]);
                    }
                }
                let dataset = Dataset::parallelize(points);
                Out::Clustering(tracer.time("engine.kmeans", || engine::kmeans(&dataset, *k, 20)))
            }
            OpKind::Sql(sql) => {
                let statement = tracer
                    .time("sql.parse", || spate_sql::parser::parse_statement(sql))
                    .map_err(|e| format!("sql parse: {e}"))?;
                let ctx = SqlContext::new(&self.fw, start, end);
                Out::Sql(
                    tracer
                        .time("sql.exec", || {
                            spate_sql::exec::execute(&ctx, &statement.select)
                        })
                        .map_err(|e| format!("sql exec: {e}"))?,
                )
            }
            _ => return Ok(None),
        }))
    }

    /// Layer probes the op stream cannot isolate from outside: one dfs
    /// read of a CAS manifest, and the chunker on one epoch's raw bytes.
    fn probe_cas(&self, epoch: EpochId, tracer: &Tracer) {
        let Some(cas) = self.fw.store().cas() else {
            return;
        };
        let _probe = tracer.span("probe");
        let _ = tracer.time("dfs.read", || cas.dfs().read(&cas.manifest_path(epoch.0)));
        let Ok(raw) = cas.get_epoch(epoch.0) else {
            return;
        };
        let chunking = cas::Chunking::default();
        let (layout, pieces) = tracer.time("cas.split", || cas::chunker::split(&raw, &chunking));
        let rebuilt = tracer.time("cas.assemble", || cas::chunker::assemble(&layout, &pieces));
        debug_assert_eq!(rebuilt.ok().as_deref(), Some(raw.as_slice()));
        tracer.count("bytes.chunked", raw.len() as u64);
    }
}

impl<const CAS: bool> Workload for Explore<CAS> {
    type Out = Out;

    fn setup(seed: u64, sizing: &Sizing) -> Self {
        let (layout, snapshots) = generate(seed, sizing.scale, sizing.epochs());
        let dfs = new_dfs();
        let mut fw = if CAS {
            SpateFramework::with_cas(dfs.clone(), layout.clone())
        } else {
            SpateFramework::new(dfs.clone(), layout.clone())
        };
        let mut raw_bytes = 0;
        for s in &snapshots {
            raw_bytes += fw.ingest(s).raw_bytes;
        }
        let ops = explore_ops(
            seed,
            &layout,
            sizing.epochs(),
            sizing.explore_heavy_ops,
            sizing.explore_other_instances,
        );
        Self {
            fw,
            dfs,
            snapshots,
            ops,
            raw_bytes,
            oracle: None,
        }
    }

    fn ops(&self) -> &[Op] {
        &self.ops
    }

    fn exec(&mut self, i: usize) -> Result<Out, String> {
        run_op(&self.fw, &self.ops[i])
    }

    fn prepare_verify(&mut self) {
        self.oracle = Some(build_oracle(self.fw.layout(), &self.snapshots));
    }

    fn span_name(&self, i: usize) -> &'static str {
        whole_span(&self.ops[i].kind)
    }

    fn verify(&mut self, i: usize, out: &Out) -> Result<(), String> {
        let op = &self.ops[i];
        let oracle = self.oracle.as_ref().expect("prepare_verify ran");
        if same_answer(out, &run_op(oracle, op)?) {
            Ok(())
        } else {
            Err(format!(
                "op {i} {:?}: answer differs from the oracle",
                op.kind
            ))
        }
    }

    fn probe(&mut self, i: usize, tracer: &Tracer) {
        if self.ops[i].class == Class::Light {
            self.probe_cas(EpochId(self.ops[i].window.0), tracer);
        }
    }

    fn decompose(&mut self, i: usize, out: &Out, tracer: &Tracer) -> Result<(), String> {
        let op = &self.ops[i];
        match self.decompose_op(op, tracer)? {
            Some(decomposed) if !same_answer(&decomposed, out) => Err(format!(
                "op {i} {:?}: decomposed answer differs from the whole run's",
                op.kind
            )),
            _ => Ok(()),
        }
    }

    fn io(&self) -> IoCounters {
        IoCounters::of(&[&self.dfs])
    }

    fn space_ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.fw.space().total() as f64
    }

    fn layer_metrics(&self, tracer: &Tracer, values: &mut Values) {
        let ns = |name: &str| tracer.total(name).0;
        let decoded = tracer.counted("bytes.decoded");
        values.set(
            "trace.from_bytes_ns_per_byte",
            per(ns("trace.from_bytes"), decoded),
        );
        values.set(
            "trace.drop_ns_per_byte",
            per(ns("trace.drop"), tracer.counted("bytes.decoded.query")),
        );
        values.set(
            "codecs.decompress_ns_per_byte",
            per(ns("codecs.decompress"), decoded),
        );
        let packed = tracer.counted("bytes.packed");
        if packed > 0 {
            values.set("codecs.ratio", decoded as f64 / packed as f64);
        }
        values.set("dfs.read_us_per_call", tracer.mean_ns("dfs.read") / 1e3);
        values.set("storage.load_ms", tracer.mean_ns("storage.load") / 1e6);
        values.set(
            "index.find_covering_us",
            tracer.mean_ns("index.find_covering") / 1e3,
        );
        values.set(
            "index.bytes_per_epoch",
            self.fw.space().index_bytes as f64 / self.snapshots.len() as f64,
        );
        let (scanned, returned) = (
            tracer.counted("rows.scanned"),
            tracer.counted("rows.returned"),
        );
        values.set(
            "query.project_ns_per_row_scanned",
            per(ns("query.project"), scanned),
        );
        values.set(
            "query.rows_scanned_per_row_returned",
            per(scanned, returned),
        );
        // Bytes decoded by query ops alone: every decoded byte is parsed,
        // so the from_bytes spans under explore ops carry the count.
        values.set(
            "query.bytes_decoded_per_row_returned",
            per(tracer.counted("bytes.decoded.query"), returned),
        );
        for (metric, span) in [
            ("tasks.t1_ms", "tasks.t1"),
            ("tasks.t2_ms", "tasks.t2"),
            ("tasks.t3_ms", "tasks.t3"),
            ("tasks.t4_ms", "tasks.t4"),
            ("tasks.t5_ms", "tasks.t5"),
            ("tasks.t6_ms", "tasks.t6"),
            ("tasks.t7_ms", "tasks.t7"),
            ("tasks.t8_ms", "tasks.t8"),
            ("sql.exec_ms", "sql.exec"),
            ("engine.kmeans_ms", "engine.kmeans"),
            ("engine.colstats_ms", "engine.colstats"),
            ("privacy.anonymize_ms", "privacy.anonymize"),
            ("cas.get_epoch_ms", "cas.get_epoch"),
        ] {
            values.set(metric, tracer.mean_ns(span) / 1e6);
        }
        values.set("sql.parse_us", tracer.mean_ns("sql.parse") / 1e3);
        let chunked = tracer.counted("bytes.chunked");
        values.set("cas.split_ns_per_byte", per(ns("cas.split"), chunked));
        values.set("cas.assemble_ns_per_byte", per(ns("cas.assemble"), chunked));
        if let Some(cas) = self.fw.store().cas() {
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
