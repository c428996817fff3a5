//! The cost of one ingest, by part: the LZ77 parse per codec class on
//! snapshot text (what the Path store compresses), on a CAS unit (one
//! table's pieces end to end, what a pack stream holds) and on a
//! manifest-sized input (where sizing the tables dominated) — each on one
//! thread, split across a scoped thread as `lz77::parse` does it, and split
//! across a helper thread kept between calls — then `compress` per Table I
//! codec, `Snapshot::to_bytes`, `chunker::split` and a whole
//! `CasStore::put_epoch`.

use cas::chunker::{split, Chunking};
use cas::{CasConfig, CasStore};
use codecs::lz77::{self, Lz77Config, MatchFinder, Token};
use codecs::table1_codecs;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dfs::Dfs;
use spate_bench::{setup::generate_snapshots, BenchConfig};
use std::sync::mpsc;
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

/// The alternative to a scoped thread per call that was measured and not
/// shipped: one helper thread, alive between calls, that parses second
/// halves sent to it (copied: it cannot borrow the caller's input).
struct Helper {
    jobs: mpsc::Sender<(Vec<u8>, usize, Lz77Config)>,
    tokens: mpsc::Receiver<Vec<Token>>,
}

impl Helper {
    fn spawn() -> Self {
        let (jobs, inbox) = mpsc::channel::<(Vec<u8>, usize, Lz77Config)>();
        let (outbox, tokens) = mpsc::channel();
        std::thread::spawn(move || {
            for (data, prefix_len, config) in inbox {
                let _ = outbox.send(MatchFinder::new(&data, config).parse(prefix_len));
            }
        });
        Self { jobs, tokens }
    }

    /// `lz77::parse` with the second half on the helper: the same tokens.
    fn parse(&self, input: &[u8], config: Lz77Config) -> Vec<Token> {
        if input.len() < config.split_min {
            return MatchFinder::new(input, config).parse(0);
        }
        let mid = input.len() / 2;
        let from = mid.saturating_sub(config.window_size());
        let job = (input[from..].to_vec(), mid - from, config);
        self.jobs.send(job).expect("the helper is alive");
        let mut tokens = MatchFinder::new(&input[..mid], config).parse(0);
        tokens.extend(self.tokens.recv().expect("the helper answers"));
        tokens
    }
}

fn bench_parse(c: &mut Criterion) {
    let raw = snapshots().pop().unwrap().to_bytes();
    // What `put_epoch` compresses as one stream: the CDR table's run.
    let (layout, pieces) = split(&raw, &Chunking);
    let unit = &pieces[layout.sections()[0].unit.expect("the CDR table has a run")];
    // The smallest input split (`split_min` of every class but snappy's),
    // where a split has the least to gain; and a manifest (~3 KB), where
    // sizing the tables, not the walks, was the cost.
    let at_threshold = &raw[..Lz77Config::deflate_class().split_min];
    let small = &raw[..3072];
    let helper = Helper::spawn();
    let shapes = [
        ("snapshot", &raw[..]),
        ("unit", &unit[..]),
        ("16KiB", at_threshold),
        ("3KB", small),
    ];
    for (shape, text) in shapes {
        let mut group = c.benchmark_group(format!("compress/parse/{shape}"));
        group.sample_size(20);
        group.throughput(Throughput::Bytes(text.len() as u64));
        for (name, config) in classes() {
            group.bench_with_input(BenchmarkId::new(name, "one-thread"), text, |b, text| {
                b.iter(|| MatchFinder::new(text, config).parse(0))
            });
            group.bench_with_input(BenchmarkId::new(name, "split"), text, |b, text| {
                b.iter(|| lz77::parse(text, config))
            });
            group.bench_with_input(BenchmarkId::new(name, "helper"), text, |b, text| {
                b.iter(|| helper.parse(text, config))
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
    group.bench_function("split", |b| b.iter(|| split(&raw, &Chunking)));
    group.finish();
}

fn bench_put_epoch(c: &mut Criterion) {
    let raws: Vec<(u32, Vec<u8>)> = snapshots()
        .iter()
        .map(|s| (s.epoch.0, s.to_bytes()))
        .collect();
    let ((epoch, last), earlier) = raws.split_last().unwrap();
    let mut group = c.benchmark_group("compress");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(last.len() as u64));
    // The fourth put of a store.
    group.bench_function("put_epoch", |b| {
        b.iter_with_setup(
            || {
                let cas = CasStore::new(Dfs::in_memory(), CasConfig::default());
                for (epoch, raw) in earlier {
                    cas.put_epoch(*epoch, raw).unwrap();
                }
                cas
            },
            |cas| cas.put_epoch(*epoch, last).unwrap(),
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
