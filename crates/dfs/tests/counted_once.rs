//! Each count a cluster keeps of its own is the registry's count of the
//! same event, because one statement counts both. The registry is
//! process-global, so this binary holds a single test and a single
//! cluster: the registry sees nothing else.

use dfs::{BreakerConfig, Dfs, DfsConfig, FaultConfig, RetryPolicy};

#[test]
fn every_count_of_the_cluster_is_the_registrys() {
    // The chaos profile with every fault made common enough that a few
    // hundred operations meet each one, and a fast crash cycle.
    let faults = FaultConfig {
        transient_read: 0.25,
        transient_write: 0.2,
        corrupt_block: 0.1,
        slow_replica: 0.05,
        slow_us: 1,
        crash_period_ops: 50,
        crash_down_ops: 20,
        ..FaultConfig::chaos(7)
    };
    let config = DfsConfig {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff_us: 0,
            max_backoff_us: 0,
            deadline_us: 0,
        },
        ..DfsConfig::default()
    }
    .with_block_size(64)
    .with_cache(1024)
    .with_breaker(BreakerConfig::new(2, 4));
    let fs = Dfs::with_faults(config, faults);
    let paths: Vec<String> = (0..40).map(|i| format!("/f{i}")).collect();
    for (i, path) in paths.iter().enumerate() {
        let _ = fs.write(path, &vec![i as u8; 64 * (1 + i % 4)]);
    }
    for _ in 0..3 {
        for path in &paths {
            // The second read of a whole file is a page-cache hit.
            let _ = fs.read(path);
            let _ = fs.read(path);
        }
        fs.repair();
    }
    for path in paths.iter().step_by(2) {
        let _ = fs.delete(path);
    }

    let (hits, misses) = fs.cache_stats();
    let m = fs.metrics();
    let mut counts = fs.fault_stats().tallied();
    counts.extend(fs.breaker_stats().tallied());
    counts.extend([
        ("dfs.cache.hits", hits),
        ("dfs.cache.misses", misses),
        ("dfs.read.partial", m.partial_reads),
        ("dfs.read.partial_bytes", m.bytes_read_partial),
        ("dfs.delete.ops", m.deletes),
        ("dfs.delete.bytes", m.bytes_deleted),
    ]);
    assert_eq!(counts.len(), 23);
    for (name, count) in counts {
        assert!(count > 0, "{name} was never counted");
        assert_eq!(count, obs::global().counter(name).get(), "{name}");
    }
}
