//! Every row of `spate_bench::EXPERIMENTS`, run in-process — a drill from
//! the flag string CI and EXPERIMENTS.md give for it, a paper artifact at
//! a quick config — twice: the deterministic rendering must repeat, every
//! gate must hold (of a paper artifact, the deterministic ones: its
//! wall-clock shapes are CI's `paper` step, on the release build), and
//! where the repository commits the `BENCH_<X>.json` of that
//! configuration, the regenerated report must have the file's keys in the
//! file's order and the file's value in every deterministic field (the
//! whole file, byte for byte, when it persists no timing).

use spate_bench::{select, Args, Report, EXPERIMENTS};
use std::path::Path;
use std::sync::Mutex;

const COMMANDS: &[&str] = &[
    "cost --seed 11 --scale 1/1024 --days 5",
    "chaos-serve --clients 4 --seed 7 --scale 1/2048",
    "obs-replay --shards 4 --seed 7",
    "chaos --cas --seed 7 --scale 1/2048 --days 7 --unthrottled",
    // Same gates over the path backend; writes no file.
    "chaos --seed 7 --scale 1/2048 --days 7 --unthrottled",
    "serve --clients 8 --seed 42",
    // Not a smaller scale: the per-epoch manifest floor is fixed-size, so
    // the >= 24 % reduction only shows once epochs carry real data.
    "cas --seed 7 --scale 1/128 --days 7 --unthrottled",
    "trace --seed 42 --scale 1/2048 --unthrottled",
];
const SCALE: &str = "scale --shards 4 --clients 8 --seed 7";
/// The paper's artifacts at the quick config: an eighth of the default
/// volume, memory speed.
const PAPER: &[&str] = &[
    "fig4 --scale 1/1024 --unthrottled",
    "table1 --scale 1/1024 --unthrottled",
    "fig7 --scale 1/1024 --unthrottled",
    "fig11 --scale 1/1024 --unthrottled",
    "decay --scale 1/1024 --unthrottled",
    // The run of `fig7` again, reported in brief.
    "space-summary --scale 1/2048 --unthrottled",
    // Four or eight snapshots after the first sixteen, and two days for
    // the decayed warehouse: a quick config already.
    "ablations --scale 1/256 --days 2 --unthrottled",
];

/// A drill `obs::reset()`s the process-global registry, so one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn run(command: &str) -> Report {
    let argv: Vec<&str> = command.split_whitespace().collect();
    let args = Args::parse(&argv).expect(command);
    let [(_, _, experiment)] = select(&args.experiment) else {
        panic!("`{command}` names one row");
    };
    experiment(&args)
}

fn check(command: &str, timing_gates: bool) {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (report, again) = (run(command), run(command));
    assert_eq!(
        report.lines(false),
        again.lines(false),
        "`repro {command}` twice"
    );
    let failed = report.failed_gates(timing_gates);
    assert_eq!(failed, [""; 0], "`repro {command}`");

    let Some(file) = report.file else { return };
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed = std::fs::read_to_string(root.join(file)).expect(file);
    let fresh = report.persisted();
    if fresh.iter().all(|(_, _, perf)| !perf) {
        assert_eq!(report.json(), committed, "{file} from `repro {command}`");
    }
    let fields: Vec<&str> = committed
        .lines()
        .filter(|l| l.starts_with("  \""))
        .collect();
    assert_eq!(fields.len(), fresh.len(), "{file}: field count");
    for (line, (key, literal, perf)) in fields.iter().zip(&fresh) {
        let line = line.trim_end_matches(',');
        if *perf {
            assert!(
                line.starts_with(&format!("  \"{key}\": ")),
                "{file}: {line}"
            );
        } else {
            assert_eq!(line, format!("  \"{key}\": {literal}"), "{file}");
        }
    }
}

#[test]
fn every_drill_repeats_holds_its_gates_and_matches_its_committed_report() {
    for (names, ..) in EXPERIMENTS {
        let mut rows = COMMANDS.iter().chain([&SCALE]).chain(PAPER);
        let covered = rows.any(|c| names.split('|').any(|n| c.split(' ').next() == Some(n)));
        assert!(covered, "experiment `{names}` has no row in this test");
    }
    for command in COMMANDS {
        check(command, true);
    }
}

#[test]
fn every_paper_artifact_repeats_and_holds_its_deterministic_shapes() {
    for command in PAPER {
        check(command, false);
    }
}

#[test]
#[ignore = "two runs of 100 s of simulated disk time; CI runs it on the release build"]
fn the_scale_drill_repeats_holds_its_gates_and_matches_its_committed_report() {
    check(SCALE, true);
}
