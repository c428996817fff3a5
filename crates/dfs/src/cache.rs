//! A page-cache model: recently read files are served from memory without
//! paying the disk's bandwidth/seek cost.
//!
//! This is the mechanism behind the paper's T4 result (a nested-loop join
//! that re-reads its input per outer block is "much faster in SPATE where
//! the HDFS input streams are already compressed"): the compressed working
//! set fits in the page cache while the raw one keeps missing.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

struct CacheInner {
    map: HashMap<String, (Arc<Vec<u8>>, u64)>,
    bytes: usize,
    clock: u64,
}

/// LRU cache over whole files, bounded by total bytes.
pub struct PageCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl PageCache {
    /// `capacity == 0` disables caching entirely.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                bytes: 0,
                clock: 0,
            }),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look a file up, refreshing its recency. The caller counts the hit
    /// or miss.
    pub fn get(&self, path: &str) -> Option<Arc<Vec<u8>>> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let (data, used) = inner.map.get_mut(path)?;
        *used = clock;
        Some(Arc::clone(data))
    }

    /// Insert a file read from disk, evicting least-recently-used entries
    /// until it fits. Files larger than the whole cache are not cached.
    pub fn put(&self, path: &str, data: Arc<Vec<u8>>) {
        if self.capacity == 0 || data.len() > self.capacity {
            return;
        }
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some((old, _)) = inner.map.remove(path) {
            inner.bytes -= old.len();
        }
        while inner.bytes + data.len() > self.capacity {
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let (evicted, _) = inner.map.remove(&victim).expect("victim exists");
            inner.bytes -= evicted.len();
        }
        inner.bytes += data.len();
        inner.map.insert(path.to_string(), (data, clock));
    }

    /// Drop a file (after delete/overwrite).
    pub fn invalidate(&self, path: &str) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some((old, _)) = inner.map.remove(path) {
            inner.bytes -= old.len();
        }
    }

    /// Empty the cache (like `echo 3 > /proc/sys/vm/drop_caches`).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.bytes = 0;
    }

    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![0xAB; n])
    }

    #[test]
    fn hit_after_put() {
        let c = PageCache::new(100);
        assert!(c.get("/a").is_none());
        c.put("/a", data(10));
        assert_eq!(c.get("/a").unwrap().len(), 10);
    }

    #[test]
    fn lru_eviction_order() {
        let c = PageCache::new(30);
        c.put("/a", data(10));
        c.put("/b", data(10));
        c.put("/c", data(10));
        // Touch /a so /b becomes the LRU victim.
        assert!(c.get("/a").is_some());
        c.put("/d", data(10));
        assert!(c.get("/b").is_none(), "/b should be evicted");
        assert!(c.get("/a").is_some());
        assert!(c.get("/c").is_some());
        assert!(c.get("/d").is_some());
        assert_eq!(c.resident_bytes(), 30);
    }

    #[test]
    fn oversized_files_bypass() {
        let c = PageCache::new(20);
        c.put("/big", data(21));
        assert!(c.get("/big").is_none());
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn zero_capacity_disables() {
        let c = PageCache::new(0);
        c.put("/a", data(1));
        assert!(c.get("/a").is_none());
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn invalidate_and_replace() {
        let c = PageCache::new(100);
        c.put("/a", data(10));
        c.invalidate("/a");
        assert!(c.get("/a").is_none());
        c.put("/a", data(20));
        c.put("/a", data(5)); // replace shrinks accounting
        assert_eq!(c.resident_bytes(), 5);
    }
}
