//! `Dataset<T>`: a partitioned collection with one data-parallel
//! operator, [`Dataset::aggregate`] — the fold-then-combine every
//! algorithm in [`crate::ml`] is written over. It runs one worker thread
//! per partition via crossbeam scoped threads.

/// Number of partitions to use by default: one per available core.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// A partitioned in-memory collection.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset<T> {
    partitions: Vec<Vec<T>>,
}

impl<T: Send + Sync> Dataset<T> {
    /// Distribute `data` round-robin-by-chunk over `n_partitions`.
    pub fn from_vec(data: Vec<T>, n_partitions: usize) -> Self {
        let n_partitions = n_partitions.max(1);
        let chunk = data.len().div_ceil(n_partitions).max(1);
        let mut partitions: Vec<Vec<T>> = Vec::with_capacity(n_partitions);
        let mut rest = data;
        while rest.len() > chunk {
            let tail = rest.split_off(chunk);
            partitions.push(rest);
            rest = tail;
        }
        partitions.push(rest);
        Self { partitions }
    }

    /// Use the machine's core count for partitioning.
    pub fn parallelize(data: Vec<T>) -> Self {
        let p = default_parallelism();
        Self::from_vec(data, p)
    }

    pub fn n_partitions(&self) -> usize {
        self.partitions.len()
    }

    pub fn len(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.partitions.iter().all(Vec::is_empty)
    }

    /// Every element, partition order preserved: k-means seeding walks
    /// the points in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.partitions.iter().flatten()
    }

    /// Parallel fold-then-combine (Spark's `aggregate`).
    pub fn aggregate<A: Send + Clone>(
        &self,
        zero: A,
        seq: impl Fn(A, &T) -> A + Sync,
        comb: impl Fn(A, A) -> A,
    ) -> A {
        let _s = obs::span("engine.aggregate");
        let partials = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = self
                .partitions
                .iter()
                .map(|part| {
                    let zero = zero.clone();
                    let seq = &seq;
                    scope.spawn(move |_| part.iter().fold(zero, seq))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect::<Vec<_>>()
        })
        .expect("scope panicked");
        partials.into_iter().fold(zero, comb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_covers_all_elements() {
        let d = Dataset::from_vec((0..100).collect(), 7);
        assert_eq!(d.len(), 100);
        assert!(d.n_partitions() <= 7);
        let mut all: Vec<i32> = d.iter().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_element_datasets() {
        let d: Dataset<i32> = Dataset::from_vec(vec![], 4);
        assert!(d.is_empty());
        assert_eq!(d.aggregate(0, |acc, &x| acc + x, |a, b| a + b), 0);

        let d = Dataset::from_vec(vec![42], 4);
        assert_eq!(d.len(), 1);
        assert_eq!(d.aggregate(0, |acc, &x| acc + x, |a, b| a + b), 42);
    }

    #[test]
    fn aggregate_sums_across_partitions() {
        let d = Dataset::from_vec((1..=1000u64).collect(), 8);
        let sum = d.aggregate(0u64, |acc, &x| acc + x, |a, b| a + b);
        assert_eq!(sum, 500_500);
    }

    #[test]
    fn parallelize_uses_machine_parallelism() {
        let d = Dataset::parallelize((0..64).collect::<Vec<i32>>());
        assert!(d.n_partitions() >= 1);
        assert_eq!(d.len(), 64);
    }
}
