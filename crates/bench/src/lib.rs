//! The SPATE paper's evaluation and the repo-grown drills, one table:
//! every row of [`EXPERIMENTS`] builds one [`Report`] — its result fields
//! and their gates, declared once — and [`report::emit`] prints it,
//! persists `BENCH_<X>.json` where the row has one, and fails the run on a
//! gate that does not hold. The `repro` binary dispatches on the table and
//! `tests/drills.rs` runs it: this table is the harness's only entry point.

#![deny(unsafe_code)]

pub mod args;
pub mod chaos_serve;
pub mod cost_bench;
pub mod experiments;
pub mod obs_replay;
pub mod pairs;
pub mod report;
pub mod scale_bench;
pub mod serve_bench;
pub mod setup;

pub use args::Args;
pub use report::Report;
pub use setup::{build_frameworks, BenchConfig, Frameworks};

/// One experiment: its `repro` names (`|`-joined where figures share a
/// run), its `--help` text (the first line is also its heading) and the
/// run that builds its report.
pub type Experiment = (&'static str, &'static str, fn(&Args) -> Report);

/// `repro all` runs the paper's artifacts: this many rows from the top.
const PAPER_ARTIFACTS: usize = 5;

pub const EXPERIMENTS: &[Experiment] = &[
    (
        "fig4",
        "Fig. 4 — per-attribute entropy of CDR/NMS/CELL",
        |a| experiments::fig4_experiment(&a.config),
    ),
    (
        "table1",
        "Table I — lossless codec ratio and compress/decompress times",
        |a| experiments::table1_experiment(&a.config),
    ),
    (
        "fig7|fig8|fig9|fig10",
        "Figs. 7-10 — ingestion time & disk space by day period / weekday",
        |a| experiments::ingest_experiment(&a.config),
    ),
    (
        "fig11|fig12",
        "Figs. 11-12 — task response time on RAW/SHAHED/SPATE",
        |a| experiments::response_experiment(&a.config),
    ),
    (
        "decay",
        "continuous decay: sliding-window eviction under ingestion",
        |a| experiments::decay_experiment(&a.config),
    ),
    (
        "space-summary",
        "total-space comparison of the three frameworks (paper §VIII)",
        |a| experiments::space_summary_experiment(&a.config),
    ),
    (
        "ablations",
        "ablations of the design choices (DESIGN §5)\n\
         codec inside SPATE, trained dictionary, highlight\n\
         threshold, decayed vs full-resolution answers",
        |a| experiments::ablations_experiment(&a.config),
    ),
    (
        "chaos",
        "seeded faults, repair, and degraded-coverage queries\n\
         (--cas: over the content-addressed backend)",
        |a| experiments::chaos_experiment(&a.config, a.seed, a.cas),
    ),
    (
        "serve",
        "serving tier: seeded concurrent clients under mid-run decay\n\
         latency percentiles, shed rate, cache hit ratio,\n\
         meta-highlights self-monitoring",
        |a| serve_bench::serve_experiment(&a.config, a.clients, a.seed, a.introspect),
    ),
    (
        "chaos-serve",
        "adversarial serving-tier survivability drill\n\
         poison queries, deadline storms, cancel races, malformed\n\
         frames, mid-stream disconnects, then serving over a\n\
         chaos-faulted DFS with replica circuit breakers",
        |a| chaos_serve::chaos_serve_experiment(&a.config, a.clients, a.seed),
    ),
    (
        "trace",
        "one seeded request end-to-end, cold vs warm\n\
         prints its span tree: \"why was request R slow\"",
        |a| serve_bench::trace_experiment(&a.config, a.seed),
    ),
    (
        "cas",
        "content-addressed store vs. path store, same seeded week\n\
         dedup ratio, query equality, Merkle root, decay-as-GC\n\
         leak gate",
        |a| experiments::cas_experiment(&a.config, a.seed),
    ),
    (
        "cost",
        "per-query cost accounting\n\
         seeded skewed workload, EXPLAIN ANALYZE rows of T1/T4,\n\
         most-touched epochs, zero-cost-leak gate",
        |a| cost_bench::cost_experiment(&a.config, a.seed),
    ),
    (
        "scale",
        "shard-per-core scale-out drill, 1 shard vs N\n\
         million-user trace, parallel per-shard ingest,\n\
         scatter-gather byte-identity, concurrent client storm,\n\
         per-shard decay",
        |a| scale_bench::scale_experiment(a.shards, a.clients, a.seed),
    ),
    (
        "obs-replay",
        "the telemetry recorder, dogfooding compress-and-decay\n\
         per-shard metrics sampled into decay-compressed windows\n\
         (Sprintz-packed), persisted to OBS_TELEMETRY.bin,\n\
         reloaded byte-identically, re-rendered from the file\n\
         alone; balanced phase keeps shard.skew silent, skewed\n\
         phase fires it",
        |a| obs_replay::obs_replay_experiment(a.shards, a.seed),
    ),
];

/// The rows `repro <experiment>` runs: the paper's artifacts for `all`,
/// else the one row carrying the name; empty for a name no row carries.
pub fn select(experiment: &str) -> &'static [Experiment] {
    if experiment == "all" {
        return &EXPERIMENTS[..PAPER_ARTIFACTS];
    }
    let named = |row: &Experiment| row.0.split('|').any(|name| name == experiment);
    let row = EXPERIMENTS.iter().position(named);
    row.map_or(&[], |i| &EXPERIMENTS[i..=i])
}
