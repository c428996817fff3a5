//! Each count a store keeps of its own is the registry's count of the same
//! event, because one statement counts both. The registry is
//! process-global, so this binary holds a single test and a single store:
//! the registry sees nothing else.

use cas::{CasConfig, CasStore};
use dfs::Dfs;
use telco_trace::{TraceConfig, TraceGenerator};

#[test]
fn every_count_of_the_store_is_the_registrys() {
    let cas = CasStore::new(Dfs::in_memory(), CasConfig::default());
    let dfs = cas.dfs();
    let epochs: Vec<u32> = TraceGenerator::new(TraceConfig::scaled(1.0 / 256.0))
        .take(4)
        .map(|s| {
            cas.put_epoch(s.epoch.0, &s.to_bytes()).unwrap();
            s.epoch.0
        })
        .collect();
    cas.open_epoch(epochs[0]).unwrap().table(0).unwrap();
    // A pack that reads back whole but is not the one its manifest names:
    // one mismatch, one targeted repair and re-fetch, then refused.
    let pack = cas.pack_path(epochs[1]);
    dfs.delete(&pack).unwrap();
    dfs.write(&pack, b"not the pack the manifest names")
        .unwrap();
    assert!(cas.get_epoch(epochs[1]).is_err());
    // Decay deletes a pack; gc sweeps a stray one.
    cas.drop_epoch(epochs[2]).unwrap();
    dfs.write(&cas.pack_path(97), b"a pack no epoch owns")
        .unwrap();
    assert!(cas.gc() > 0);

    let stats = cas.stats();
    let counts = stats.tallied();
    assert_eq!(counts.len(), 6, "{stats:?}");
    for (name, count) in counts {
        assert!(count > 0, "{name} was never counted");
        assert_eq!(count, obs::global().counter(name).get(), "{name}");
    }
    assert_eq!(
        stats.gc_packs_deleted, 2,
        "the dropped epoch's and the stray"
    );
}
