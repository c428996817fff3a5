//! The cost of one cold CAS epoch read, whole and by part, on a night-time
//! and a busy-hour epoch: `SnapshotStore::load` on the CAS and, beside it,
//! on the Path backend (both tables read, records built), `get_epoch` (the
//! reference: inflate every unit, verify, `assemble`), `open_epoch` alone
//! (manifest and pack files read and verified, nothing inflated), one table
//! read as columns, the one-epoch scans a T2 (CDR only), a T3 (NMS only)
//! and a light `Q(a,b,w)` (both tables, two columns each) make of it — the
//! `cas.get.verify` / `.inflate.<table>` / `.index` / `.assemble` spans
//! carry the same split at run time — then SHA-256 on the portable and the
//! accelerated path, `7z-lite` decode of a pack-shaped stream and
//! `chunker::assemble`.

use cas::chunker::{assemble, split, Chunking};
use codecs::{Codec, SevenzLite};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dfs::Dfs;
use spate_bench::{setup::generate_snapshots, BenchConfig};
use spate_core::framework::{ExplorationFramework, SpateFramework};
use spate_core::query::Query;
use spate_core::tasks;
use telco_trace::cells::BoundingBox;
use telco_trace::time::EpochId;

/// The trace the repo's benchmark reads: scale 1/64, a mid-day snapshot
/// is ~72 KB of text.
fn config() -> BenchConfig {
    BenchConfig {
        scale: 1.0 / 64.0,
        days: 1,
        throttled: false,
    }
}

fn snapshot_bytes() -> Vec<Vec<u8>> {
    let day = generate_snapshots(&config(), 28);
    day.iter().skip(24).map(|s| s.to_bytes()).collect()
}

fn bench_epoch_reads(c: &mut Criterion) {
    let day = generate_snapshots(&config(), 28);
    let layout = config().generator().layout().clone();
    let mut fw = SpateFramework::with_cas(Dfs::in_memory(), layout.clone());
    let mut path = SpateFramework::new(Dfs::in_memory(), layout);
    for snap in &day {
        fw.ingest(snap);
        path.ingest(snap);
    }
    let cas = fw.store().cas().expect("the CAS backend").clone();
    let half = BoundingBox::new(0.0, 0.0, 38_000.0, 38_000.0);
    for (hour, epoch) in [("night", 3u32), ("busy", 24)] {
        let mut group = c.benchmark_group(format!("cas_read/{hour}"));
        group.throughput(Throughput::Bytes(
            day[epoch as usize].to_bytes().len() as u64
        ));
        let at = EpochId(epoch);
        group.bench_function("load_cas", |b| b.iter(|| fw.store().load(at).unwrap()));
        group.bench_function("load_path", |b| b.iter(|| path.store().load(at).unwrap()));
        group.bench_function("get_epoch", |b| b.iter(|| cas.get_epoch(epoch).unwrap()));
        group.bench_function("open_epoch", |b| b.iter(|| cas.open_epoch(epoch).is_ok()));
        for (name, table) in [("table_cdr", 0), ("table_nms", 1)] {
            group.bench_function(name, |b| {
                b.iter(|| cas.open_epoch(epoch).unwrap().table(table).unwrap())
            });
        }
        group.bench_function("t2_epoch", |b| b.iter(|| tasks::t2_range(&fw, at, at)));
        group.bench_function("t3_epoch", |b| b.iter(|| tasks::t3_aggregate(&fw, at, at)));
        let light = Query::new(&["upflux", "call_drops"], half).with_window(at, at);
        group.bench_function("light_query", |b| b.iter(|| fw.query(&light)));
        group.finish();
    }
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
    let (layout, pieces) = split(&raw, &Chunking);
    // What `put_epoch` packs: the units end to end.
    let pack = pieces[..layout.unit_count()].concat();
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
    bench_epoch_reads,
    bench_sha256,
    bench_pack_inflate_and_assemble
);
criterion_main!(benches);
