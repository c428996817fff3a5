//! `serve_mixed`: the same layers used differently. Cache-resident reads
//! through the serving tier (2 Path shards, 2 workers, a cache larger
//! than the data) from one client on the load thread, with writes beside
//! them: evenly spaced `Server::ingest` calls, the first of which decays
//! a day and invalidates its cached epochs. Once warm, store, codec and
//! parse do little; shard merge + canonical sort, filter/project, serve
//! admission, cache, frame encode and thread hand-off do most.

use super::{build_oracle, decay_policy, generate, new_dfs, per, IoCounters, Sizing, Workload};
use crate::harness::Class;
use crate::ops::{serve_ops, Op, OpKind};
use crate::report::Values;
use crate::spans::Tracer;
use crate::workloads::explore::query_of;
use dfs::Dfs;
use spate_core::framework::{ExplorationFramework, IngestStats, RawFramework, SpateFramework};
use spate_core::index::Covering;
use spate_core::query::{project_snapshot_refs, QueryResult};
use spate_core::shard::{canonical_sort, merge_snapshots, split_snapshot, ShardedSpate};
use spate_serve::proto::CHUNK_ROWS;
use spate_serve::{
    CacheStats, ClientConn, Reply, Response, ResponseBody, ServeConfig, ServeStats, Server,
    TableHeader,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use telco_trace::cells::CellLayout;
use telco_trace::schema::{cdr, nms};
use telco_trace::time::{EpochId, EPOCHS_PER_DAY};
use telco_trace::{Snapshot, Value};

const SHARDS: usize = 2;
const WORKERS: usize = 2;

pub enum Out {
    Reply(Box<Reply>),
    Ingested(IngestStats),
}

/// A sharded warehouse holding the base epochs, and its filesystems.
fn build_shards(layout: &CellLayout, base: &[Snapshot]) -> (ShardedSpate, Vec<Dfs>, u64) {
    let filesystems: Vec<Dfs> = (0..SHARDS).map(|_| new_dfs()).collect();
    let shards = ShardedSpate::new(
        filesystems
            .iter()
            .map(|fs| SpateFramework::new(fs.clone(), layout.clone()).with_decay(decay_policy()))
            .collect(),
    );
    let raw_bytes = base.iter().map(|s| shards.ingest(s).raw_bytes).sum();
    (shards, filesystems, raw_bytes)
}

/// The server under test with its one client.
struct Tier {
    server: Server,
    client: ClientConn,
    filesystems: Vec<Dfs>,
    raw_bytes: u64,
}

impl Tier {
    fn start(layout: &CellLayout, base: &[Snapshot]) -> Self {
        let (shards, filesystems, raw_bytes) = build_shards(layout, base);
        let server = Server::start_sharded(
            shards,
            ServeConfig {
                workers: WORKERS,
                ..ServeConfig::default()
            },
        );
        let client = server.connect();
        Self {
            server,
            client,
            filesystems,
            raw_bytes,
        }
    }

    fn stop(self) -> ServeStats {
        self.client.close();
        self.server.shutdown()
    }
}

/// An in-process copy of the warehouse for the traced round: the server
/// owns its shards, so the decomposition runs the same public calls on
/// a twin that receives the same ingests.
struct Twin {
    shards: ShardedSpate,
    /// Merged epochs the decomposition has already loaded (what the
    /// server's cache holds for it).
    merged: HashMap<u32, Snapshot>,
}

pub struct ServeMixed {
    layout: CellLayout,
    snapshots: Vec<Snapshot>,
    base_epochs: usize,
    ops: Vec<Op>,
    tier: Option<Tier>,
    dirty: bool,
    oracle: Option<RawFramework>,
    /// Per day, per cell: `(CDR rows, NMS rows)`, what a day's highlights
    /// count.
    day_counts: Vec<BTreeMap<u32, (u64, u64)>>,
    twin: Option<Twin>,
    /// Server counters read when the traced round's tier stops.
    final_stats: Option<(CacheStats, ServeStats)>,
}

impl ServeMixed {
    fn tier(&mut self) -> &mut Tier {
        self.tier
            .as_mut()
            .expect("tier runs between setup and teardown")
    }

    /// The `Reply::Summary` the oracle's data implies for a window inside
    /// one decayed day: that day's records in the box's cells.
    fn expected_summary(&self, op: &Op) -> Reply {
        let q = query_of(op).expect("explore op");
        let cells: HashSet<u32> = self.layout.cells_in(&q.bbox).into_iter().collect();
        let day = &self.day_counts[(op.window.0 / EPOCHS_PER_DAY) as usize];
        let (mut cdr_records, mut nms_records, mut n_cells) = (0, 0, 0);
        for (cell, (c, n)) in day {
            if cells.contains(cell) {
                cdr_records += c;
                nms_records += n;
                n_cells += 1;
            }
        }
        Reply::Summary {
            resolution: "day".into(),
            cdr_records,
            nms_records,
            cells: n_cells,
        }
    }

    /// Check a reply against the oracle, rows in canonical order.
    fn check_reply(&self, op: &Op, reply: &Reply) -> Result<(), String> {
        let oracle = self.oracle.as_ref().expect("prepare_verify ran");
        let (start, end) = (EpochId(op.window.0), EpochId(op.window.1));
        let expected: Vec<(Vec<String>, Vec<Vec<Value>>)> = match &op.kind {
            OpKind::Explore { .. } if op.class == Class::Other => {
                return if *reply == self.expected_summary(op) {
                    Ok(())
                } else {
                    Err(format!("decayed window answered {reply:?}"))
                };
            }
            OpKind::Explore { .. } => match oracle.query(&query_of(op).expect("explore op")) {
                QueryResult::Exact(r) => vec![
                    (r.cdr.column_names, r.cdr.rows),
                    (r.nms.column_names, r.nms.rows),
                ],
                _ => return Err("oracle has no exact answer".into()),
            },
            OpKind::Sql(sql) => {
                let rs = spate_sql::execute_over(oracle, start, end, sql)
                    .map_err(|e| format!("oracle sql: {e}"))?;
                vec![(rs.columns, rs.rows)]
            }
            _ => return Err("not a served op".into()),
        };
        let Reply::Rows {
            tables,
            rows,
            coverage: None,
            ..
        } = reply
        else {
            return Err(format!("expected complete rows, got {}", reply_kind(reply)));
        };
        if tables.len() != expected.len() || rows.len() != expected.len() {
            return Err("wrong number of tables".into());
        }
        for ((header, got), (columns, mut want)) in tables.iter().zip(rows).zip(expected) {
            let mut got = got.clone();
            canonical_sort(&mut got);
            canonical_sort(&mut want);
            if header.columns != columns || got != want {
                return Err(format!("table {} differs from the oracle", header.name));
            }
        }
        Ok(())
    }

    /// One epoch as the server resolves it on a cache miss: every shard's
    /// part, merged into canonical order.
    fn merged_epoch(twin: &mut Twin, epoch: u32, tracer: &Tracer) -> Result<(), String> {
        if twin.merged.contains_key(&epoch) {
            return Ok(());
        }
        // The whole public call, then the same work in its two halves.
        let whole = tracer
            .time("shard.merged_load", || {
                twin.shards.load_epoch_merged(EpochId(epoch))
            })
            .ok_or("epoch not retained")?;
        let parts: Vec<Snapshot> = tracer
            .time("shard.load_parts", || {
                (0..SHARDS)
                    .map(|i| twin.shards.read(i).load_epoch(EpochId(epoch)))
                    .collect::<Option<Vec<_>>>()
            })
            .ok_or("epoch not retained")?;
        let merged = tracer.time("shard.merge_sort", || {
            merge_snapshots(EpochId(epoch), parts)
        });
        tracer.count("rows.sorted", merged.total_records() as u64);
        if merged != whole {
            return Err("merge of shard parts differs from load_epoch_merged".into());
        }
        twin.merged.insert(epoch, merged);
        Ok(())
    }

    /// An explore op as the server evaluates it once its epochs are in
    /// the cache (`merged`): plan, project each epoch, encode the frames.
    fn decompose_explore(&self, op: &Op, reply: &Reply, tracer: &Tracer) -> Result<(), String> {
        let q = query_of(op).expect("explore op");
        let twin = self.twin.as_ref().expect("tracing builds the twin");
        let exact = {
            let primary = twin.shards.primary_for(&q.bbox);
            let guard = twin.shards.read(primary);
            let covering = tracer.time("index.find_covering", || {
                guard.index().find_covering(q.window.0, q.window.1)
            });
            matches!(covering, Covering::Exact(_))
        };
        if !exact {
            // Decayed window: the plan is the whole answer.
            return Ok(());
        }
        let epochs: Vec<&Snapshot> = (op.window.0..=op.window.1)
            .map(|e| {
                twin.merged
                    .get(&e)
                    .ok_or("the twin does not retain the epoch")
            })
            .collect::<Result<_, _>>()?;
        let scanned: usize = epochs.iter().map(|s| s.total_records()).sum();
        let result = tracer.time("query.project", || {
            project_snapshot_refs(epochs.iter().copied(), &q, &self.layout)
        });
        tracer.count("rows.scanned", scanned as u64);
        let frames = tracer.time("serve.frame_encode", || {
            let mut bytes = Response {
                id: 0,
                body: ResponseBody::Header {
                    tables: vec![
                        TableHeader {
                            name: "CDR".into(),
                            columns: result.cdr.column_names.clone(),
                        },
                        TableHeader {
                            name: "NMS".into(),
                            columns: result.nms.column_names.clone(),
                        },
                    ],
                },
            }
            .encode()
            .len();
            for (table, slice) in [(0u8, &result.cdr), (1u8, &result.nms)] {
                for chunk in slice.rows.chunks(CHUNK_ROWS) {
                    bytes += Response {
                        id: 0,
                        body: ResponseBody::RowChunk {
                            table,
                            rows: chunk.to_vec(),
                        },
                    }
                    .encode()
                    .len();
                }
            }
            bytes
        });
        std::hint::black_box(frames);
        tracer.count(
            "rows.encoded",
            (result.cdr.rows.len() + result.nms.rows.len()) as u64,
        );
        // Whole = decomposed (and whole = oracle was checked before).
        let Reply::Rows { rows, .. } = reply else {
            return Err("the whole run answered without rows".into());
        };
        for (mut got, want) in [result.cdr.rows, result.nms.rows].into_iter().zip(rows) {
            let mut want = want.clone();
            canonical_sort(&mut got);
            canonical_sort(&mut want);
            if got != want {
                return Err("decomposed answer differs from the reply".into());
            }
        }
        Ok(())
    }
}

fn reply_kind(reply: &Reply) -> &'static str {
    match reply {
        Reply::Rows { .. } => "rows",
        Reply::Summary { .. } => "summary",
        Reply::Shed { .. } => "shed",
        Reply::Unavailable => "unavailable",
        Reply::ServerError { .. } => "server error",
        _ => "control frame",
    }
}

impl Workload for ServeMixed {
    type Out = Out;

    fn setup(seed: u64, sizing: &Sizing) -> Self {
        let mix = sizing.serve;
        let (layout, snapshots) = generate(seed, sizing.scale, mix.total_epochs());
        let base_epochs = mix.base_epochs as usize;
        let tier = Tier::start(&layout, &snapshots[..base_epochs]);
        Self {
            ops: serve_ops(seed, &layout, mix),
            layout,
            snapshots,
            base_epochs,
            tier: Some(tier),
            dirty: false,
            oracle: None,
            day_counts: Vec::new(),
            twin: None,
            final_stats: None,
        }
    }

    fn teardown(mut self) {
        if let Some(tier) = self.tier.take() {
            tier.stop();
        }
    }

    fn ops(&self) -> &[Op] {
        &self.ops
    }

    fn begin_round(&mut self) {
        if self.dirty {
            if let Some(tier) = self.tier.take() {
                tier.stop();
            }
            self.tier = Some(Tier::start(
                &self.layout,
                &self.snapshots[..self.base_epochs],
            ));
            self.dirty = false;
        }
    }

    fn exec(&mut self, i: usize) -> Result<Out, String> {
        self.dirty = true;
        let op = self.ops[i].clone();
        let reply = match &op.kind {
            OpKind::Explore { attributes, bbox } => self
                .tier()
                .client
                .explore(attributes, *bbox, op.window)
                .map_err(|e| format!("transport: {e:?}"))?,
            OpKind::Sql(sql) => self
                .tier()
                .client
                .sql(op.window, sql)
                .map_err(|e| format!("transport: {e:?}"))?,
            OpKind::Ingest(_) => {
                let snapshot = &self.snapshots[op.window.0 as usize];
                let tier = self.tier.as_mut().expect("tier runs");
                let stats = tier.server.ingest(snapshot);
                tier.raw_bytes += stats.raw_bytes;
                return Ok(Out::Ingested(stats));
            }
            _ => return Err("not a served op".into()),
        };
        match reply {
            Reply::Rows { .. } | Reply::Summary { .. } => Ok(Out::Reply(Box::new(reply))),
            other => Err(format!("op {i}: {}", reply_kind(&other))),
        }
    }

    fn span_name(&self, i: usize) -> &'static str {
        match (&self.ops[i].kind, self.ops[i].class) {
            (OpKind::Ingest(_), _) => "serve.ingest",
            (OpKind::Sql(_), _) => "serve.sql",
            (_, Class::Light) => "serve.explore.light",
            (_, Class::Heavy) => "serve.explore.heavy",
            (_, Class::Other) => "serve.explore.decayed",
        }
    }

    fn prepare_verify(&mut self) {
        self.oracle = Some(build_oracle(&self.layout, &self.snapshots));
        let days = self.snapshots.len().div_ceil(EPOCHS_PER_DAY as usize);
        self.day_counts = vec![BTreeMap::new(); days];
        for s in &self.snapshots {
            let day = &mut self.day_counts[(s.epoch.0 / EPOCHS_PER_DAY) as usize];
            for r in &s.cdr {
                if let Some(cell) = r.get(cdr::CELL_ID).as_i64().filter(|c| *c >= 0) {
                    day.entry(cell as u32).or_default().0 += 1;
                }
            }
            for r in &s.nms {
                if let Some(cell) = r.get(nms::CELL_ID).as_i64().filter(|c| *c >= 0) {
                    day.entry(cell as u32).or_default().1 += 1;
                }
            }
        }
    }

    fn verify(&mut self, i: usize, out: &Out) -> Result<(), String> {
        let op = &self.ops[i];
        match out {
            Out::Reply(reply) => self
                .check_reply(op, reply)
                .map_err(|e| format!("op {i} {:?}: {e}", op.kind)),
            Out::Ingested(stats) if stats.epoch.0 != op.window.0 || stats.raw_bytes == 0 => {
                Err(format!("op {i}: ingest reported {stats:?}"))
            }
            Out::Ingested(_) => Ok(()),
        }
    }

    fn begin_decompose(&mut self) {
        let (shards, _, _) = build_shards(&self.layout, &self.snapshots[..self.base_epochs]);
        self.twin = Some(Twin {
            shards,
            merged: HashMap::new(),
        });
    }

    /// Filling the cache is not part of a warm op.
    fn probe(&mut self, i: usize, tracer: &Tracer) {
        let op = &self.ops[i];
        if matches!(op.kind, OpKind::Explore { .. }) && op.class != Class::Other {
            let twin = self.twin.as_mut().expect("begin_decompose ran");
            let _probe = tracer.span("probe");
            for e in op.window.0..=op.window.1 {
                // A miss surfaces as the decomposition's failure.
                let _ = Self::merged_epoch(twin, e, tracer);
            }
        }
    }

    fn decompose(&mut self, i: usize, out: &Out, tracer: &Tracer) -> Result<(), String> {
        let op = &self.ops[i];
        match (&op.kind, out) {
            (OpKind::Explore { .. }, Out::Reply(reply)) => {
                self.decompose_explore(op, reply, tracer)
            }
            (OpKind::Ingest(_), _) => {
                let snapshot = &self.snapshots[op.window.0 as usize];
                let parts = tracer.time("shard.split", || split_snapshot(snapshot, SHARDS));
                std::hint::black_box(parts);
                // Keep the twin in step with the server; epochs it had
                // merged may have decayed.
                let twin = self.twin.as_mut().expect("begin_decompose ran");
                let _probe = tracer.span("probe");
                twin.shards.ingest(snapshot);
                twin.merged.clear();
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn verify_end(&mut self) -> Result<(), String> {
        // The tier's final counters are read as it stops.
        let tier = self.tier.take().expect("tier runs");
        let cache = tier.server.cache_stats();
        let stats = tier.stop();
        self.final_stats = Some((cache, stats));
        if stats.shed_overflow + stats.shed_deadline + stats.protocol_errors + stats.panics > 0 {
            return Err(format!("server shed or failed requests: {stats:?}"));
        }
        Ok(())
    }

    fn io(&self) -> IoCounters {
        match &self.tier {
            Some(tier) => IoCounters::of(&tier.filesystems.iter().collect::<Vec<_>>()),
            None => IoCounters::default(),
        }
    }

    /// Stored bytes come over the wire: the Stats frame's per-shard
    /// `bytes` is each shard's data + index.
    fn space_ratio(&self) -> f64 {
        let Some(tier) = &self.tier else { return 0.0 };
        let mut probe = tier.server.connect();
        let stored: u64 = probe
            .stats()
            .map(|frame| frame.shard_stats.iter().map(|s| s.bytes).sum())
            .unwrap_or(0);
        probe.close();
        if stored == 0 {
            0.0
        } else {
            tier.raw_bytes as f64 / stored as f64
        }
    }

    fn layer_metrics(&self, tracer: &Tracer, values: &mut Values) {
        let ns = |name: &str| tracer.total(name).0;
        values.set(
            "index.find_covering_us",
            tracer.mean_ns("index.find_covering") / 1e3,
        );
        values.set(
            "query.project_ns_per_row_scanned",
            per(ns("query.project"), tracer.counted("rows.scanned")),
        );
        values.set(
            "query.rows_scanned_per_row_returned",
            per(
                tracer.counted("rows.scanned"),
                tracer.counted("rows.encoded"),
            ),
        );
        values.set("shard.split_ms", tracer.mean_ns("shard.split") / 1e6);
        values.set(
            "shard.merged_load_ms",
            tracer.mean_ns("shard.merged_load") / 1e6,
        );
        values.set(
            "shard.canonical_sort_ns_per_row",
            per(ns("shard.merge_sort"), tracer.counted("rows.sorted")),
        );
        values.set(
            "serve.frame_encode_ns_per_row",
            per(ns("serve.frame_encode"), tracer.counted("rows.encoded")),
        );
        values.set("serve.ingest_ms", tracer.mean_ns("serve.ingest") / 1e6);
        // What the round trip adds to the evaluation of a warm light op:
        // admission, queueing, thread hand-off, transport, decode.
        let light_ops = tracer.counted("light.ops");
        values.set(
            "serve.roundtrip_overhead_us",
            (tracer.counted("light.whole_ns") as f64
                - tracer.counted("light.attributed_ns") as f64)
                / light_ops.max(1) as f64
                / 1e3,
        );
        if let Some((cache, stats)) = &self.final_stats {
            values.set("serve.cache_hit_ratio", cache.hit_ratio());
            values.set("serve.cache_invalidations", cache.invalidations as f64);
            let shed = stats.shed_overflow + stats.shed_deadline;
            values.set("serve.shed_share", per(shed, stats.queries + shed));
        }
    }
}
