//! Every drill of `spate_bench::DRILLS`, run in-process from the flag
//! string CI and EXPERIMENTS.md give for it — twice: the deterministic
//! rendering must repeat, every gate must hold, and where the repository
//! commits the `BENCH_<X>.json` of that configuration, the regenerated
//! report must have the file's keys in the file's order and the file's
//! value in every deterministic field (the whole file, byte for byte,
//! when it persists no timing).

use spate_bench::{Args, Report, DRILLS};
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
    // the >= 20 % reduction only shows once epochs carry real data.
    "cas --seed 7 --scale 1/128 --days 7 --unthrottled",
    "trace --seed 42 --scale 1/2048 --unthrottled",
];
const SCALE: &str = "scale --shards 4 --clients 8 --seed 7";

/// A drill `obs::reset()`s the process-global registry, so one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn run(command: &str) -> Report {
    let argv: Vec<&str> = command.split_whitespace().collect();
    let args = Args::parse(&argv).expect(command);
    let drill = DRILLS.iter().find(|(name, ..)| *name == args.experiment);
    (drill.expect(command).2)(&args)
}

fn check(command: &str) {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (report, again) = (run(command), run(command));
    assert_eq!(
        report.lines(false),
        again.lines(false),
        "`repro {command}` twice"
    );
    assert_eq!(report.failed_gates(), [""; 0], "`repro {command}`");

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
    for (name, ..) in DRILLS {
        let mut rows = COMMANDS.iter().chain([&SCALE]);
        let covered = rows.any(|c| c.split(' ').next() == Some(name));
        assert!(covered, "drill `{name}` has no row in this test");
    }
    for command in COMMANDS {
        check(command);
    }
}

#[test]
#[ignore = "two runs of 100 s of simulated disk time; CI runs it on the release build"]
fn the_scale_drill_repeats_holds_its_gates_and_matches_its_committed_report() {
    check(SCALE);
}
