//! Stress and fault-injection tests for the simulated cluster.

use dfs::{Dfs, DfsConfig, IoModel};

#[test]
fn concurrent_cached_readers_see_consistent_data() {
    let fs = Dfs::new(DfsConfig::default().with_cache(1 << 20));
    for i in 0..16 {
        fs.write(&format!("/hot/{i}"), &vec![i as u8; 4096])
            .unwrap();
    }
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let fs = fs.clone();
            scope.spawn(move || {
                for round in 0..50 {
                    let i = round % 16;
                    let data = fs.read(&format!("/hot/{i}")).unwrap();
                    assert_eq!(data.len(), 4096);
                    assert!(data.iter().all(|&b| b == i as u8));
                }
            });
        }
    });
    let (hits, misses) = fs.cache_stats();
    assert_eq!(hits + misses, 8 * 50);
    assert!(
        hits > misses,
        "working set fits: hits {hits} misses {misses}"
    );
}

#[test]
fn reads_race_with_datanode_failures() {
    let fs = Dfs::in_memory(); // replication 3 over 4 nodes
    for i in 0..32 {
        fs.write(&format!("/f{i}"), &vec![0xAB; 1000]).unwrap();
    }
    std::thread::scope(|scope| {
        // Reader threads.
        for _ in 0..4 {
            let fs = fs.clone();
            scope.spawn(move || {
                for round in 0..200 {
                    let i = round % 32;
                    // With at most one node down, every read must succeed.
                    let data = fs.read(&format!("/f{i}")).unwrap();
                    assert_eq!(data.len(), 1000);
                }
            });
        }
        // A flapping datanode.
        let fs2 = fs.clone();
        scope.spawn(move || {
            for _ in 0..50 {
                fs2.kill_datanode(0);
                std::thread::yield_now();
                fs2.revive_datanode(0);
            }
        });
    });
}

#[test]
fn many_small_files_account_correctly() {
    let fs = Dfs::new(DfsConfig::default().with_block_size(256));
    let mut logical = 0u64;
    for i in 0..500usize {
        let data = vec![(i % 251) as u8; 100 + i];
        logical += data.len() as u64;
        fs.write(&format!("/many/{i:04}"), &data).unwrap();
    }
    let m = fs.metrics();
    assert_eq!(m.n_files, 500);
    assert_eq!(m.logical_bytes, logical);
    assert_eq!(m.physical_bytes, logical * 3);
    // Multi-block files: ceil(len/256) blocks each.
    let expected_blocks: u64 = (0..500usize)
        .map(|i| ((100 + i) as u64).div_ceil(256))
        .sum();
    assert_eq!(m.n_blocks, expected_blocks);

    // Delete half, verify accounting shrinks exactly.
    let mut freed = 0u64;
    for i in (0..500usize).step_by(2) {
        freed += fs.delete(&format!("/many/{i:04}")).unwrap();
    }
    assert_eq!(fs.metrics().logical_bytes, logical - freed);
    assert_eq!(fs.metrics().n_files, 250);
}

#[test]
fn throttled_writes_scale_with_replication_free_bandwidth() {
    // The client pays one pass of write bandwidth regardless of
    // replication (pipelined), so doubling data doubles time.
    let io = IoModel {
        read_mbps: f64::INFINITY,
        write_mbps: 100.0,
        seek_us: 0,
    };
    let fs = Dfs::new(DfsConfig::default().with_io(io));
    // The fastest of five writes of each size, each to a fresh path: one
    // write timed alone also times whatever else the host was doing.
    let fastest = |name: &str, len: usize| {
        (0..5)
            .map(|i| {
                let t0 = std::time::Instant::now();
                fs.write(&format!("/{name}/{i}"), &vec![0; len]).unwrap();
                t0.elapsed()
            })
            .min()
            .expect("five writes")
    };
    let small = fastest("small", 500_000);
    let large = fastest("large", 2_000_000);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!((2.0..8.0).contains(&ratio), "expected ~4x, got {ratio:.1}x");
}

#[test]
fn listing_scales_and_stays_ordered() {
    let fs = Dfs::in_memory();
    for i in (0..300).rev() {
        fs.write(&format!("/spate/2016/01/{:02}/{i:06}", i % 28 + 1), b"x")
            .unwrap();
    }
    let all = fs.list("/spate/");
    assert_eq!(all.len(), 300);
    assert!(all.windows(2).all(|w| w[0] < w[1]), "lexicographic order");
    let day_one = fs.list("/spate/2016/01/05/");
    for p in &day_one {
        assert!(p.starts_with("/spate/2016/01/05/"));
    }
}
