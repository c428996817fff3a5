//! Fig. 11 bench: the simple tasks T1–T5 on RAW, SHAHED and SPATE, and
//! T5's anonymizer alone.
//!
//! Uses the throttled cluster-disk + page-cache I/O model, which is where
//! T4's nested loop shows SPATE's compressed re-read advantage.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spate_bench::setup::ingest_all;
use spate_bench::{build_frameworks, BenchConfig, Frameworks};
use spate_core::framework::ExplorationFramework;
use spate_core::tasks;
use telco_trace::schema::{cdr, TableKind};
use telco_trace::time::EpochId;

fn config() -> BenchConfig {
    BenchConfig {
        scale: 1.0 / 256.0,
        days: 1,
        throttled: true,
    }
}

fn setup() -> Frameworks {
    let cfg = config();
    let (mut fws, mut generator) = build_frameworks(&cfg);
    ingest_all(&mut fws, &mut generator, 36);
    fws
}

fn for_each_framework(
    c: &mut Criterion,
    group_name: &str,
    fws: &Frameworks,
    mut task: impl FnMut(&dyn ExplorationFramework),
) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    for (name, fw) in ["RAW", "SHAHED", "SPATE"].iter().zip(fws.iter()) {
        group.bench_with_input(BenchmarkId::from_parameter(name), &fw, |b, fw| {
            b.iter(|| task(*fw))
        });
    }
    group.finish();
}

fn bench_tasks(c: &mut Criterion) {
    let fws = setup();
    // Windows inside the ingested 36 epochs, in the busy morning.
    let epoch = EpochId(24);
    let (w0, w1) = (EpochId(20), EpochId(31));
    let (j0, j1) = (EpochId(22), EpochId(29));

    for_each_framework(c, "fig11/t1_equality", &fws, |fw| {
        tasks::t1_equality(fw, epoch);
    });
    for_each_framework(c, "fig11/t2_range", &fws, |fw| {
        tasks::t2_range(fw, w0, w1);
    });
    for_each_framework(c, "fig11/t3_aggregate", &fws, |fw| {
        tasks::t3_aggregate(fw, w0, w1);
    });
    for_each_framework(c, "fig11/t4_join", &fws, |fw| {
        tasks::t4_join(fw, j0, j1);
    });
    for_each_framework(c, "fig11/t5_privacy", &fws, |fw| {
        tasks::t5_privacy(fw, w0, w1, 5);
    });

    // T5's kernel without its read: the anonymizer alone over the records
    // of the same window.
    let mut records = Vec::new();
    fws.spate.scan_rows(w0, w1, TableKind::Cdr, &mut |_, rows| {
        records.extend(rows.iter().map(|r| r.record(cdr::WIDTH)));
    });
    let anonymizer = tasks::t5_anonymizer(5);
    let mut group = c.benchmark_group("privacy/anonymize");
    group.sample_size(10);
    group.bench_function(format!("{}_records", records.len()), |b| {
        b.iter(|| anonymizer.anonymize(&records))
    });
    group.finish();
}

criterion_group!(benches, bench_tasks);
criterion_main!(benches);
