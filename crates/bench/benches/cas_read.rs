//! The cost of one cold CAS epoch read, whole and by part: `get_epoch`
//! (its `cas.get.verify` / `.inflate` / `.assemble` spans carry the same
//! split at run time), SHA-256 on the portable and the accelerated path,
//! `7z-lite` decode of a pack-shaped stream and `chunker::assemble`.

use cas::chunker::{assemble, split, Chunking};
use cas::{CasConfig, CasStore};
use codecs::{Codec, SevenzLite};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dfs::Dfs;
use spate_bench::{setup::generate_snapshots, BenchConfig};

/// A mid-day snapshot of the trace the repo's benchmark reads (scale 1/64,
/// ~72 KB of text).
fn snapshot_bytes() -> Vec<Vec<u8>> {
    let config = BenchConfig {
        scale: 1.0 / 64.0,
        days: 1,
        throttled: false,
    };
    generate_snapshots(&config, 28)
        .iter()
        .skip(24)
        .map(|s| s.to_bytes())
        .collect()
}

fn bench_get_epoch(c: &mut Criterion) {
    let raws = snapshot_bytes();
    let cas = CasStore::new(Dfs::in_memory(), CasConfig::default());
    for (epoch, raw) in raws.iter().enumerate() {
        cas.put_epoch(epoch as u32, raw).unwrap();
    }
    let last = raws.len() - 1;
    let mut group = c.benchmark_group("cas_read");
    group.throughput(Throughput::Bytes(raws[last].len() as u64));
    group.bench_function("get_epoch", |b| {
        b.iter(|| cas.get_epoch(last as u32).unwrap())
    });
    group.finish();
}

fn bench_sha256(c: &mut Criterion) {
    let data = snapshot_bytes().pop().unwrap();
    let mut group = c.benchmark_group("cas_read/sha256");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("portable", |b| b.iter(|| cas::hash::sha256_portable(&data)));
    if cas::hash::sha256_accelerated(&data).is_some() {
        group.bench_function("accelerated", |b| {
            b.iter(|| cas::hash::sha256_accelerated(&data))
        });
    }
    group.finish();
}

fn bench_pack_inflate_and_assemble(c: &mut Criterion) {
    let raw = snapshot_bytes().pop().unwrap();
    let (layout, pieces) = split(&raw, &Chunking::default());
    // What `put_epoch` packs: the pieces end to end, column by column.
    let pack = pieces.concat();
    let codec = SevenzLite::default();
    let stored = codec.compress(&pack);

    let mut group = c.benchmark_group("cas_read");
    group.throughput(Throughput::Bytes(pack.len() as u64));
    group.bench_function("7z-lite_pack_inflate", |b| {
        b.iter(|| codec.decompress(&stored).unwrap())
    });
    group.throughput(Throughput::Bytes(raw.len() as u64));
    group.bench_function("assemble", |b| {
        b.iter(|| assemble(&layout, &pieces).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_get_epoch,
    bench_sha256,
    bench_pack_inflate_and_assemble
);
criterion_main!(benches);
