//! The shared, sharded decompressed-epoch cache of the serving tier.
//!
//! A cache of decompressed windows per client would, with many
//! concurrent clients zooming over the same recent epochs, waste both
//! memory (N copies) and decompression work (N cold starts). The
//! serving tier instead shares one cache of `Arc<Snapshot>` entries,
//! keyed by epoch, across all clients:
//!
//! * **Sharded** — the epoch id picks a shard; each shard is an
//!   independent mutex so concurrent workers rarely contend.
//! * **LRU per shard** — a monotone tick stamps every touch; on overflow
//!   the stalest entry of that shard is evicted.
//! * **Coherent by construction** — a [`CacheInvalidator`] registered as
//!   a [`StoreObserver`] on the framework drops entries synchronously
//!   inside every mutation (ingest / decay / recovery), while that
//!   mutation still holds exclusive access to the framework. Workers
//!   only insert while holding the framework read lock, so a stale entry
//!   can never be re-populated concurrently with the eviction that
//!   removed it.
//! * **Accounting split** — the cache keeps *lifetime* hit/miss totals
//!   (the Stats frame); per-query outcomes, and which epochs a query
//!   touched, flow into the active [`obs::cost`] profile. Nothing else
//!   records an access, so a hit takes this cache's shard mutex and no
//!   framework lock.

use spate_core::StoreObserver;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use telco_trace::snapshot::Snapshot;
use telco_trace::time::EpochId;

struct Entry {
    snap: Arc<Snapshot>,
    last_used: u64,
}

struct Shard {
    map: HashMap<u32, Entry>,
    tick: u64,
}

/// Sharded LRU cache of decompressed epochs.
pub struct EpochCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    counts: CacheCounts,
}

obs::tallies! {
    /// Lifetime totals of one cache.
    struct CacheCounts {
        hits: Tally("serve.cache.hit"),
        misses: Tally("serve.cache.miss"),
        inserts: Counter,
        evictions: Tally("serve.cache.evict"),
        invalidations: Tally("serve.cache.invalidate"),
    }
    /// Counter snapshot of cache behaviour.
    pub struct CacheStats;
}

impl CacheStats {
    /// Hit fraction of all lookups in `[0, 1]` (1 when idle).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl EpochCache {
    /// A cache of at most `epochs` decoded epochs. It has one shard per 16
    /// epochs, from 1 to 8, and an equal share of the epochs per shard:
    /// 8 shards of 16 for 128 epochs, 1 shard of 2 for 2.
    pub fn new(epochs: usize) -> Self {
        let shards = (epochs / 16).clamp(1, 8);
        Self {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            capacity_per_shard: (epochs / shards).max(1),
            counts: CacheCounts::default(),
        }
    }

    fn shard(&self, epoch: EpochId) -> &Mutex<Shard> {
        &self.shards[epoch.0 as usize % self.shards.len()]
    }

    /// Look an epoch up, refreshing its recency on hit. Outcomes feed the
    /// active [`obs::cost`] profile (per-query accounting); the cache
    /// itself keeps only lifetime totals.
    pub fn get(&self, epoch: EpochId) -> Option<Arc<Snapshot>> {
        let mut sh = self.shard(epoch).lock().unwrap();
        sh.tick += 1;
        let tick = sh.tick;
        match sh.map.get_mut(&epoch.0) {
            Some(e) => {
                e.last_used = tick;
                self.counts.hits.inc();
                obs::cost::cache_hit();
                Some(e.snap.clone())
            }
            None => {
                self.counts.misses.inc();
                obs::cost::cache_miss();
                None
            }
        }
    }

    /// Whether an epoch is cached, without counting a lookup or touching
    /// its recency: asking leaves the statistics and the eviction order
    /// what the reads alone make them.
    pub fn contains(&self, epoch: EpochId) -> bool {
        self.shard(epoch).lock().unwrap().map.contains_key(&epoch.0)
    }

    /// Insert (or refresh) an epoch, evicting the shard's LRU entry on
    /// overflow. Callers must hold the framework read lock — see the
    /// coherence contract in the module docs.
    pub fn insert(&self, epoch: EpochId, snap: Arc<Snapshot>) {
        let mut sh = self.shard(epoch).lock().unwrap();
        sh.tick += 1;
        let tick = sh.tick;
        if sh.map.len() >= self.capacity_per_shard && !sh.map.contains_key(&epoch.0) {
            if let Some(&lru) = sh
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                sh.map.remove(&lru);
                self.counts.evictions.inc();
            }
        }
        sh.map.insert(
            epoch.0,
            Entry {
                snap,
                last_used: tick,
            },
        );
        self.counts.inserts.inc();
    }

    /// Drop one epoch (mutation hook).
    pub fn invalidate(&self, epoch: EpochId) {
        let mut sh = self.shard(epoch).lock().unwrap();
        if sh.map.remove(&epoch.0).is_some() {
            self.counts.invalidations.inc();
        }
    }

    /// Drop many epochs (decay / recovery hook).
    pub fn invalidate_many(&self, epochs: &[EpochId]) {
        for &e in epochs {
            self.invalidate(e);
        }
    }

    /// Number of cached epochs across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CacheStats {
        self.counts.snapshot()
    }
}

/// [`StoreObserver`] adapter dropping cache entries on every framework
/// mutation. Register on the framework *before* sharing it with workers.
pub struct CacheInvalidator(pub Arc<EpochCache>);

impl StoreObserver for CacheInvalidator {
    fn snapshot_ingested(&self, epoch: EpochId) {
        // A (re-)ingested epoch may shadow an entry cached from an
        // earlier life of that epoch id; drop defensively.
        self.0.invalidate(epoch);
    }

    fn epochs_evicted(&self, epochs: &[EpochId]) {
        self.0.invalidate_many(epochs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telco_trace::{TraceConfig, TraceGenerator};

    fn snaps(n: usize) -> Vec<Arc<Snapshot>> {
        TraceGenerator::new(TraceConfig::scaled(1.0 / 4096.0))
            .take(n)
            .map(Arc::new)
            .collect()
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let cache = EpochCache::new(2);
        let s = snaps(3);
        cache.insert(EpochId(0), s[0].clone());
        cache.insert(EpochId(1), s[1].clone());
        assert!(cache.get(EpochId(0)).is_some());
        // Epoch 1 is now the LRU entry; inserting epoch 2 evicts it.
        cache.insert(EpochId(2), s[2].clone());
        assert!(cache.get(EpochId(1)).is_none());
        assert!(cache.get(EpochId(0)).is_some());
        assert!(cache.get(EpochId(2)).is_some());
        let st = cache.stats();
        assert_eq!(st.evictions, 1);
        assert_eq!(st.hits, 3);
        assert_eq!(st.misses, 1);
    }

    #[test]
    fn asking_whether_an_epoch_is_cached_counts_nothing_and_keeps_the_lru_order() {
        let cache = EpochCache::new(2);
        let s = snaps(3);
        cache.insert(EpochId(0), s[0].clone());
        cache.insert(EpochId(1), s[1].clone());
        assert!(cache.contains(EpochId(0)));
        assert!(!cache.contains(EpochId(2)));
        assert_eq!(
            cache.stats(),
            CacheStats {
                inserts: 2,
                ..CacheStats::default()
            }
        );
        // Epoch 0 is still the LRU entry: asking did not touch it.
        cache.insert(EpochId(2), s[2].clone());
        assert!(!cache.contains(EpochId(0)));
        assert!(cache.contains(EpochId(1)));
    }

    #[test]
    fn invalidation_drops_exactly_the_named_epochs() {
        let cache = EpochCache::new(128);
        let s = snaps(4);
        for (i, snap) in s.iter().enumerate() {
            cache.insert(EpochId(i as u32), snap.clone());
        }
        cache.invalidate_many(&[EpochId(1), EpochId(3), EpochId(99)]);
        assert!(cache.get(EpochId(0)).is_some());
        assert!(cache.get(EpochId(1)).is_none());
        assert!(cache.get(EpochId(2)).is_some());
        assert!(cache.get(EpochId(3)).is_none());
        assert_eq!(cache.stats().invalidations, 2, "missing epoch not counted");
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = Arc::new(EpochCache::new(128));
        let s = snaps(8);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = cache.clone();
                let s = s.clone();
                scope.spawn(move || {
                    for round in 0..50 {
                        let e = EpochId(((t + round) % 8) as u32);
                        match cache.get(e) {
                            Some(hit) => assert_eq!(hit.epoch, e),
                            None => cache.insert(e, s[e.0 as usize].clone()),
                        }
                    }
                });
            }
        });
        let st = cache.stats();
        assert_eq!(st.hits + st.misses, 200);
    }
}
