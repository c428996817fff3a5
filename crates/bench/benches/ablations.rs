//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * codec choice inside SPATE's storage layer (end-to-end ingest),
//! * trained vs untrained zstd-lite dictionaries on small snapshots,
//! * highlight threshold θ (event extraction cost),
//! * decayed vs full-resolution query answering.

use codecs::{Codec, Dictionary, GzipLite, SevenzLite, SnappyLite, ZstdLite};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dfs::Dfs;
use spate_bench::BenchConfig;
use spate_core::framework::{ExplorationFramework, SpateFramework};
use spate_core::index::highlights::{HighlightConfig, Highlights, Resolution};
use spate_core::query::Query;
use spate_core::DecayPolicy;
use std::sync::Arc;
use telco_trace::cells::BoundingBox;
use telco_trace::time::EPOCHS_PER_DAY;
use telco_trace::Snapshot;

fn config() -> BenchConfig {
    BenchConfig {
        scale: 1.0 / 256.0,
        days: 2,
        throttled: false,
    }
}

fn snapshots(n: usize) -> (telco_trace::CellLayout, Vec<Snapshot>) {
    let mut generator = config().generator();
    let layout = generator.layout().clone();
    let snaps = (&mut generator).skip(16).take(n).collect();
    (layout, snaps)
}

/// Which codec should SPATE's storage layer use? (The paper picked GZIP
/// for ecosystem compatibility; this measures the end-to-end ingest cost
/// of each choice.)
fn bench_codec_choice(c: &mut Criterion) {
    let (layout, snaps) = snapshots(4);
    let mut group = c.benchmark_group("ablation/spate_codec_ingest");
    group.sample_size(10);
    let codecs: Vec<Arc<dyn Codec>> = vec![
        Arc::new(GzipLite::default()),
        Arc::new(SevenzLite::default()),
        Arc::new(SnappyLite::default()),
        Arc::new(ZstdLite::default()),
    ];
    for codec in codecs {
        group.bench_with_input(
            BenchmarkId::from_parameter(codec.name()),
            &snaps,
            |b, snaps| {
                b.iter_with_setup(
                    || {
                        SpateFramework::with_codec(
                            Dfs::in_memory(),
                            layout.clone(),
                            Arc::clone(&codec),
                        )
                    },
                    |mut fw| {
                        for s in snaps {
                            fw.ingest(s);
                        }
                    },
                )
            },
        );
    }
    group.finish();
}

/// Trained dictionary vs none, on individually-compressed small payloads
/// (the regime where dictionaries pay off).
fn bench_dictionary(c: &mut Criterion) {
    let (_, snaps) = snapshots(8);
    // Train on the first half, compress the second.
    let corpus: Vec<Vec<u8>> = snaps[..4].iter().map(Snapshot::to_bytes).collect();
    let refs: Vec<&[u8]> = corpus.iter().map(Vec::as_slice).collect();
    let dict = Arc::new(Dictionary::train(&refs, 16 << 10));
    let payloads: Vec<Vec<u8>> = snaps[4..].iter().map(Snapshot::to_bytes).collect();

    let plain = ZstdLite::default();
    let trained = ZstdLite::default().with_dictionary(dict);
    let mut group = c.benchmark_group("ablation/zstd_dictionary");
    group.sample_size(10);
    group.bench_function("untrained", |b| {
        b.iter(|| {
            payloads
                .iter()
                .map(|p| plain.compress(p).len())
                .sum::<usize>()
        })
    });
    group.bench_function("trained", |b| {
        b.iter(|| {
            payloads
                .iter()
                .map(|p| trained.compress(p).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

/// Highlight event extraction across θ settings.
fn bench_theta(c: &mut Criterion) {
    let (_, snaps) = snapshots(8);
    let base = HighlightConfig::default();
    let mut h = Highlights::empty(snaps[0].epoch, base.categorical_attrs.len());
    for s in &snaps {
        h.merge(&Highlights::from_snapshot(s, &base));
    }
    let mut group = c.benchmark_group("ablation/theta_events");
    for theta in [0.001, 0.01, 0.05] {
        let cfg = HighlightConfig {
            theta_day: theta,
            ..base.clone()
        };
        group.bench_with_input(BenchmarkId::from_parameter(theta), &cfg, |b, cfg| {
            b.iter(|| h.events(cfg, Resolution::Day))
        });
    }
    group.finish();
}

/// Query latency: exact (full resolution) vs summary (decayed) answering.
fn bench_decay_query(c: &mut Criterion) {
    let mut generator = config().generator();
    let layout = generator.layout().clone();
    let mut full = SpateFramework::in_memory(layout.clone());
    let mut decayed = SpateFramework::in_memory(layout).with_decay(DecayPolicy {
        full_resolution_days: 0,
        day_highlight_days: 1000,
        month_highlight_days: 1000,
        year_highlight_days: 1000,
    });
    for s in (&mut generator).take(2 * EPOCHS_PER_DAY as usize) {
        full.ingest(&s);
        decayed.ingest(&s);
    }
    let q = Query::new(&["upflux", "downflux"], BoundingBox::everything())
        .with_epoch_range(0, EPOCHS_PER_DAY - 1);

    let mut group = c.benchmark_group("ablation/decay_query");
    group.sample_size(10);
    group.bench_function("full_resolution", |b| b.iter(|| full.query(&q)));
    group.bench_function("decayed_summary", |b| b.iter(|| decayed.query(&q)));
    group.finish();
}

criterion_group!(
    benches,
    bench_codec_choice,
    bench_dictionary,
    bench_theta,
    bench_decay_query
);
criterion_main!(benches);
