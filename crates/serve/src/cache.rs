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
//! * **One load an epoch** — a resolver that misses loads through
//!   [`EpochCache::load_once`]: while one thread loads an epoch, another
//!   that misses it waits for that load, holding no framework guard, and
//!   takes what it cached, so a leaf is not read twice because two
//!   requests (or a request and a prefetch) missed it at once.
//! * **Accounting split** — the cache keeps *lifetime* hit/miss totals
//!   (the Stats frame); per-query outcomes, and which epochs a query
//!   touched, flow into the active [`obs::cost`] profile. Nothing else
//!   records an access, so a hit takes this cache's shard mutex and no
//!   framework lock.

use spate_core::StoreObserver;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
    /// The epochs being loaded ([`Self::load_once`]).
    loading: Mutex<HashSet<u32>>,
    /// Signalled when a load ends.
    loaded: Condvar,
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
            loading: Mutex::new(HashSet::new()),
            loaded: Condvar::new(),
        }
    }

    fn shard(&self, epoch: EpochId) -> &Mutex<Shard> {
        &self.shards[epoch.0 as usize % self.shards.len()]
    }

    /// Look an epoch up, refreshing its recency on hit. Outcomes feed the
    /// active [`obs::cost`] profile (per-query accounting); the cache
    /// itself keeps only lifetime totals.
    pub fn get(&self, epoch: EpochId) -> Option<Arc<Snapshot>> {
        let found = self.touch(epoch);
        if found.is_some() {
            self.counts.hits.inc();
            obs::cost::cache_hit();
        } else {
            self.counts.misses.inc();
            obs::cost::cache_miss();
        }
        found
    }

    /// An epoch's entry, its recency refreshed, counting no lookup.
    fn touch(&self, epoch: EpochId) -> Option<Arc<Snapshot>> {
        let mut sh = self.shard(epoch).lock().unwrap();
        sh.tick += 1;
        let tick = sh.tick;
        let entry = sh.map.get_mut(&epoch.0)?;
        entry.last_used = tick;
        Some(entry.snap.clone())
    }

    /// Load an epoch that missed with `load`, which caches what it loads
    /// ([`Self::insert`]), one load an epoch at a time: while another
    /// thread loads it, wait for that load to end, holding no lock but
    /// this cache's set of loads; then take the entry the last load
    /// cached, as the request's cost profile records a touched epoch, or,
    /// when there is none (the epoch not loaded yet, not retained, or
    /// invalidated since), load it here.
    pub fn load_once(
        &self,
        epoch: EpochId,
        load: impl FnOnce() -> Option<Arc<Snapshot>>,
    ) -> Option<Arc<Snapshot>> {
        let mut loading = self.loading();
        while loading.contains(&epoch.0) {
            loading = self
                .loaded
                .wait(loading)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(loaded) = self.touch(epoch) {
            obs::cost::touch_epoch(u64::from(epoch.0));
            return Some(loaded);
        }
        loading.insert(epoch.0);
        drop(loading);
        /// Ends the load, on return and on unwind alike.
        struct Loading<'c>(&'c EpochCache, u32);
        impl Drop for Loading<'_> {
            fn drop(&mut self) {
                self.0.loading().remove(&self.1);
                self.0.loaded.notify_all();
            }
        }
        let _loading = Loading(self, epoch.0);
        load()
    }

    /// The epochs being loaded; every update is one insert or remove, so
    /// the set is whole even after a poisoning.
    fn loading(&self) -> MutexGuard<'_, HashSet<u32>> {
        self.loading.lock().unwrap_or_else(PoisonError::into_inner)
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;
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

    /// Two threads that miss one epoch at once load it once: the second
    /// waits for the first one's load and takes what it cached, and a
    /// load that cached nothing leaves the next miss to load again.
    #[test]
    fn one_epoch_missed_twice_at_once_is_loaded_once() {
        let cache = EpochCache::new(16);
        let snap = snaps(1).remove(0);
        let loads = AtomicUsize::new(0);
        let load = || {
            loads.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(30));
            cache.insert(EpochId(0), snap.clone());
            Some(snap.clone())
        };
        let got: Vec<_> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|_| s.spawn(|| cache.load_once(EpochId(0), load)))
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(loads.load(Ordering::SeqCst), 1);
        assert!(got.iter().all(|g| Arc::ptr_eq(g.as_ref().unwrap(), &snap)));

        let missing = || {
            loads.fetch_add(1, Ordering::SeqCst);
            None
        };
        assert!(cache.load_once(EpochId(1), missing).is_none());
        assert!(cache.load_once(EpochId(1), missing).is_none());
        assert_eq!(loads.load(Ordering::SeqCst), 3);
    }
}
