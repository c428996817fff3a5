//! Usage and traffic counters for the simulated filesystem.

/// Point-in-time filesystem statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfsMetrics {
    /// Number of files in the namespace.
    pub n_files: u64,
    /// Number of live blocks.
    pub n_blocks: u64,
    /// Sum of file lengths (what `du` on HDFS reports pre-replication).
    pub logical_bytes: u64,
    /// Bytes across all datanode replicas (logical × replication).
    pub physical_bytes: u64,
    /// Completed read operations.
    pub reads: u64,
    /// Completed write operations.
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Completed delete operations.
    pub deletes: u64,
    /// Logical bytes freed by deletes.
    pub bytes_deleted: u64,
    /// Replica blocks reclaimed from datanodes by deletes.
    pub replicas_freed: u64,
    /// Reads that failed mid-file after transferring some blocks.
    pub partial_reads: u64,
    /// Bytes actually transferred by failed reads before the error. Kept
    /// separate from `bytes_read` so complete-read accounting stays exact
    /// while chaos runs still see every byte that crossed the wire.
    pub bytes_read_partial: u64,
}

obs::tallies! {
    /// The traffic counts of one cluster instance.
    pub(crate) struct MetricsInner {
        reads: Counter,
        writes: Counter,
        bytes_read: Counter,
        bytes_written: Counter,
        deletes: Tally("dfs.delete.ops"),
        bytes_deleted: Tally("dfs.delete.bytes"),
        replicas_freed: Counter,
        partial_reads: Tally("dfs.read.partial"),
        bytes_read_partial: Tally("dfs.read.partial_bytes"),
        /// Reads answered from the page cache.
        cache_hits: Tally("dfs.cache.hits"),
        /// Reads that went to the datanodes, counted with or without a
        /// page cache.
        cache_misses: Tally("dfs.cache.misses"),
    }
    /// Point-in-time copy of [`MetricsInner`].
    pub(crate) struct Traffic;
}

impl MetricsInner {
    pub(crate) fn record_read(&self, bytes: u64) {
        self.reads.inc();
        self.bytes_read.add(bytes);
    }

    /// A read failed mid-file after moving `bytes` of block data.
    pub(crate) fn record_partial_read(&self, bytes: u64) {
        self.partial_reads.inc();
        self.bytes_read_partial.add(bytes);
    }

    pub(crate) fn record_write(&self, bytes: u64) {
        self.writes.inc();
        self.bytes_written.add(bytes);
    }

    pub(crate) fn record_delete(&self, logical: u64, replicas: u64) {
        self.deletes.inc();
        self.bytes_deleted.add(logical);
        self.replicas_freed.add(replicas);
    }
}

impl Traffic {
    /// The counts with the namespace's sizes.
    pub(crate) fn with_sizes(
        self,
        n_files: u64,
        n_blocks: u64,
        logical_bytes: u64,
        physical_bytes: u64,
    ) -> DfsMetrics {
        DfsMetrics {
            n_files,
            n_blocks,
            logical_bytes,
            physical_bytes,
            reads: self.reads,
            writes: self.writes,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
            deletes: self.deletes,
            bytes_deleted: self.bytes_deleted,
            replicas_freed: self.replicas_freed,
            partial_reads: self.partial_reads,
            bytes_read_partial: self.bytes_read_partial,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsInner::default();
        m.record_read(10);
        m.record_read(20);
        m.record_write(5);
        let s = m.snapshot().with_sizes(1, 2, 5, 15);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_read, 30);
        assert_eq!(s.bytes_written, 5);
        assert_eq!(s.n_files, 1);
        assert_eq!(s.physical_bytes, 15);
    }

    #[test]
    fn partial_reads_count_separately() {
        let m = MetricsInner::default();
        m.record_read(100);
        m.record_partial_read(40);
        let s = m.snapshot().with_sizes(0, 0, 0, 0);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_read, 100);
        assert_eq!(s.partial_reads, 1);
        assert_eq!(s.bytes_read_partial, 40);
    }

    #[test]
    fn deletes_are_counted_not_dropped() {
        let m = MetricsInner::default();
        m.record_delete(1000, 3);
        m.record_delete(500, 2);
        let s = m.snapshot().with_sizes(0, 0, 0, 0);
        assert_eq!(s.deletes, 2);
        assert_eq!(s.bytes_deleted, 1500);
        assert_eq!(s.replicas_freed, 5);
    }
}
