//! Experiment drivers regenerating every table and figure of the SPATE
//! paper's evaluation, plus the repo-grown drills. Each driver returns
//! structured rows. The paper artifacts are printed by the `repro` binary
//! in the paper's layout, and the criterion benches wrap the same code
//! paths:
//!
//! | Driver | Paper artifact |
//! |---|---|
//! | [`fig4_entropy`] | Fig. 4 — per-attribute entropy of CDR/NMS/CELL |
//! | [`table1_codecs`] | Table I — codec ratio / T_c1 / T_c2 per snapshot |
//! | [`ingest_experiment`] | Figs. 7–10 — ingestion time & disk space by day period and weekday |
//! | [`response_experiment`] | Figs. 11–12 — response time of tasks T1–T8 on RAW/SHAHED/SPATE |
//!
//! The drills (no paper counterpart) are the rows of [`DRILLS`]. Each
//! builds one [`Report`] — its result fields and their gates, declared
//! once — and [`report::emit`] prints it, persists `BENCH_<X>.json` and
//! fails the run on a gate that does not hold; `tests/drills.rs` runs the
//! same table.

pub mod args;
pub mod chaos_serve;
pub mod cost_bench;
pub mod experiments;
pub mod obs_replay;
pub mod report;
pub mod scale_bench;
pub mod serve_bench;
pub mod setup;

pub use args::Args;
pub use chaos_serve::{chaos_serve_experiment, ChaosServeReport};
pub use cost_bench::cost_experiment;
pub use experiments::{
    cas_experiment, chaos_experiment, fig4_entropy, ingest_experiment, response_experiment,
    table1_codecs, CasPerf, CasReport, ChaosReport, CodecRow, EntropyReport, IngestReport,
    ResponseReport,
};
pub use obs_replay::{obs_replay_experiment, ObsReplayReport};
pub use report::Report;
pub use scale_bench::{scale_experiment, ScaleReport};
pub use serve_bench::{serve_experiment, trace_experiment, ServeReport, TraceReport};
pub use setup::{build_frameworks, BenchConfig, Frameworks};

/// One seeded drill: its `repro` name, its `--help` text (the first line
/// is also its heading) and the run that builds its report.
pub type Drill = (&'static str, &'static str, fn(&Args) -> Report);

pub const DRILLS: &[Drill] = &[
    (
        "chaos",
        "seeded faults, repair, and degraded-coverage queries\n\
         (--cas: over the content-addressed backend)",
        |a| chaos_experiment(&a.config, a.seed, a.cas).report(),
    ),
    (
        "serve",
        "serving tier: seeded concurrent clients under mid-run decay\n\
         latency percentiles, shed rate, cache hit ratio,\n\
         meta-highlights self-monitoring",
        |a| serve_experiment(&a.config, a.clients, a.seed).report(a.introspect),
    ),
    (
        "chaos-serve",
        "adversarial serving-tier survivability drill\n\
         poison queries, deadline storms, cancel races, malformed\n\
         frames, mid-stream disconnects, then serving over a\n\
         chaos-faulted DFS with replica circuit breakers",
        |a| chaos_serve_experiment(&a.config, a.clients, a.seed).report(),
    ),
    (
        "trace",
        "one seeded request end-to-end, cold vs warm\n\
         prints its span tree: \"why was request R slow\"",
        |a| trace_experiment(&a.config, a.seed).report(),
    ),
    (
        "cas",
        "content-addressed store vs. path store, same seeded week\n\
         dedup ratio, query equality, Merkle root, decay-as-GC\n\
         leak gate",
        |a| {
            let (r, perf) = cas_experiment(&a.config, a.seed);
            r.report(&perf)
        },
    ),
    (
        "cost",
        "per-query cost accounting\n\
         seeded skewed workload, EXPLAIN ANALYZE rows of T1/T4,\n\
         most-touched epochs, zero-cost-leak gate",
        |a| cost_experiment(&a.config, a.seed),
    ),
    (
        "scale",
        "shard-per-core scale-out drill, 1 shard vs N\n\
         million-user trace, parallel per-shard ingest,\n\
         scatter-gather byte-identity, concurrent client storm,\n\
         per-shard decay",
        |a| scale_experiment(a.shards, a.clients, a.seed).report(),
    ),
    (
        "obs-replay",
        "the telemetry recorder, dogfooding compress-and-decay\n\
         per-shard metrics sampled into decay-compressed windows\n\
         (Sprintz-packed), persisted to OBS_TELEMETRY.bin,\n\
         reloaded byte-identically, re-rendered from the file\n\
         alone; balanced phase keeps shard.skew silent, skewed\n\
         phase fires it",
        |a| obs_replay_experiment(a.shards, a.seed).report(),
    ),
];
