//! The built `repro` binary's exit codes: 2 with a one-line message for a
//! command line it cannot parse, 1 naming the gate when a gate — a drill's
//! bar or a paper artifact's shape — does not hold.

use std::path::Path;
use std::process::{Command, Output};

/// Runs in a scratch directory: drills write `BENCH_<X>.json` into the
/// working directory.
fn repro(args: &[&str]) -> Output {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-cli");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("repro starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_flag_without_its_value_or_with_an_unparsable_one_exits_2() {
    let valued = [
        "--scale",
        "--days",
        "--seed",
        "--clients",
        "--shards",
        "--metrics-json",
        "--trace-json",
    ];
    for flag in valued {
        let out = repro(&["chaos", flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {}", stderr(&out));
        assert_eq!(stderr(&out), format!("{flag} needs a value\n"));
        assert!(out.stdout.is_empty(), "{flag}: nothing ran");
    }
    for (flag, text) in [
        ("--seed", "seven"),
        ("--scale", "1/x"),
        ("--scale", "tiny"),
        ("--scale", "0"),
        ("--scale", "1/0"),
        ("--scale", "2"),
        ("--scale", "-1"),
        ("--scale", "nan"),
        ("--days", "-1"),
        ("--days", "1"),
        ("--days", "0"),
        ("--clients", "1.5"),
        ("--shards", ""),
    ] {
        let out = repro(&["chaos", flag, text]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {text}: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).starts_with(&format!("{flag}: `{text}`")),
            "{}",
            stderr(&out)
        );
    }
    // A trace too short for the experiment it names.
    for (experiment, days) in [("fig11", "2"), ("fig12", "4"), ("all", "3"), ("cost", "1")] {
        let out = repro(&[experiment, "--days", days, "--scale", "1/2048"]);
        assert_eq!(out.status.code(), Some(2), "{experiment}: {}", stderr(&out));
        assert_eq!(
            stderr(&out),
            format!("--days: `{days}` is not a number it accepts\n")
        );
        assert!(out.stdout.is_empty(), "{experiment}: nothing ran");
    }
    let out = repro(&["chaos", "--check"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(stderr(&out), "unknown flag --check\n");
}

#[test]
fn a_gate_that_does_not_hold_exits_1_naming_it() {
    // One day at 1/2048: an epoch compresses to ~1.4 KB, the fixed-size
    // manifests eat the columnar win, and `cas` misses its 24 % bar.
    let out = repro(&["cas", "--scale", "1/2048", "--days", "1", "--unthrottled"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let failed = stderr(&out);
    assert!(
        failed.contains("cas: gate failed: reduction_permille >= 240 (got "),
        "{failed}"
    );
    // The evidence is printed and persisted all the same.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\ncas: seed=7 epochs=48 "), "{stdout}");
    assert!(stdout.contains("bench report written to BENCH_CAS.json"));
    assert!(!stdout.contains("gates hold"), "{stdout}");
}

#[test]
fn a_paper_shape_that_does_not_hold_exits_1_naming_it() {
    // A one-day trace never leaves the one-day full-resolution window:
    // nothing decays, and the decay run's shapes are bent.
    let out = repro(&["decay", "--scale", "1/2048", "--days", "1", "--unthrottled"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let failed = stderr(&out);
    assert!(
        failed.contains("decay: gate failed: leaves_evicted >= 1 (got 0)"),
        "{failed}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\ndecay: epochs_ingested=48 "), "{stdout}");

    // The same table row with its shapes intact, under one of its names.
    let out = repro(&["fig8", "--scale", "1/2048", "--unthrottled"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\nfig7: fig8 Morning RAW="), "{stdout}");
    assert!(stdout.contains("\nfig7-perf: fig9 Mon RAW="), "{stdout}");
    assert!(stdout.contains("\n(gates hold: "), "{stdout}");
}
