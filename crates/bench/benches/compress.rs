//! The cost of one ingest, by part: the LZ77 parse per codec class on
//! snapshot text (what the Path store compresses) and on pack-shaped
//! column text (what a CAS pack holds), `compress` per Table I codec, the
//! parse of a manifest-sized input (where sizing the tables dominated),
//! `Snapshot::to_bytes`, `chunker::split` and a whole `CasStore::put_epoch`.

use cas::chunker::{split, Chunking};
use cas::{CasConfig, CasStore};
use codecs::lz77::{self, Lz77Config};
use codecs::table1_codecs;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dfs::Dfs;
use spate_bench::{setup::generate_snapshots, BenchConfig};
use telco_trace::Snapshot;

/// Four mid-day snapshots of the trace the repo's benchmark ingests (scale
/// 1/64, ~72 KB of text each).
fn snapshots() -> Vec<Snapshot> {
    let config = BenchConfig {
        scale: 1.0 / 64.0,
        days: 1,
        throttled: false,
    };
    generate_snapshots(&config, 28).split_off(24)
}

fn classes() -> [(&'static str, Lz77Config); 4] {
    [
        ("deflate", Lz77Config::deflate_class()),
        ("lzma", Lz77Config::lzma_class()),
        ("snappy", Lz77Config::snappy_class()),
        ("zstd", Lz77Config::zstd_class()),
    ]
}

fn bench_parse(c: &mut Criterion) {
    let raw = snapshots().pop().unwrap().to_bytes();
    // What `put_epoch` packs: the pieces end to end, column by column.
    let pack = split(&raw, &Chunking::default()).1.concat();
    // A manifest is ~3 KB: the tables, not the chain walks, were its cost.
    let small = &raw[..3072];
    for (shape, text) in [("snapshot", &raw[..]), ("pack", &pack[..]), ("3KB", small)] {
        let mut group = c.benchmark_group(format!("compress/parse/{shape}"));
        group.sample_size(20);
        group.throughput(Throughput::Bytes(text.len() as u64));
        for (name, config) in classes() {
            group.bench_with_input(BenchmarkId::from_parameter(name), text, |b, text| {
                b.iter(|| lz77::parse(text, config))
            });
        }
        group.finish();
    }
}

fn bench_codecs(c: &mut Criterion) {
    let raw = snapshots().pop().unwrap().to_bytes();
    let mut group = c.benchmark_group("compress/codec");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(raw.len() as u64));
    for codec in table1_codecs() {
        group.bench_with_input(BenchmarkId::from_parameter(codec.name()), &raw, |b, raw| {
            b.iter(|| codec.compress(raw))
        });
    }
    group.finish();
}

fn bench_to_bytes_and_split(c: &mut Criterion) {
    let snap = snapshots().pop().unwrap();
    let raw = snap.to_bytes();
    let mut group = c.benchmark_group("compress");
    group.throughput(Throughput::Bytes(raw.len() as u64));
    group.bench_function("to_bytes", |b| b.iter(|| snap.to_bytes()));
    let chunking = Chunking::default();
    group.bench_function("split", |b| b.iter(|| split(&raw, &chunking)));
    group.finish();
}

fn bench_put_epoch(c: &mut Criterion) {
    let raws: Vec<Vec<u8>> = snapshots().iter().map(Snapshot::to_bytes).collect();
    let (last, earlier) = raws.split_last().unwrap();
    let mut group = c.benchmark_group("compress");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(last.len() as u64));
    // The fourth put of a store: some pieces dedup against the first three.
    group.bench_function("put_epoch", |b| {
        b.iter_with_setup(
            || {
                let cas = CasStore::new(Dfs::in_memory(), CasConfig::default());
                for (epoch, raw) in earlier.iter().enumerate() {
                    cas.put_epoch(epoch as u32, raw).unwrap();
                }
                cas
            },
            |cas| cas.put_epoch(earlier.len() as u32, last).unwrap(),
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_parse,
    bench_codecs,
    bench_to_bytes_and_split,
    bench_put_epoch
);
criterion_main!(benches);
