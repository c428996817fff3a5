//! Namenode repair pass: re-replication and corrupt-replica replacement.
//!
//! HDFS's namenode continuously compares each block's replica count
//! against the target and schedules re-replication on under-replication
//! (crashed datanode) or corruption reports. The simulation runs the same
//! reconciliation as an explicit pass — [`crate::Dfs::repair`] — which the
//! chaos harness invokes between ingest days, after blackouts, and before
//! final verification.
//!
//! Semantics per block, in deterministic (block-id) order:
//!
//! 1. Every replica on a **live** node is fetched and verified against the
//!    namenode CRC-32. Corrupt copies are dropped from the datanode and
//!    the replica list (`corrupt_replicas_dropped`).
//! 2. Replicas recorded on **dead** nodes are kept — the data may return
//!    when the node revives, exactly like HDFS's grace handling.
//! 3. If fewer verified copies exist on live nodes than
//!    `min(replication, live_nodes)`, the block is re-replicated from a
//!    verified source to live nodes that lack a copy (`replicas_added`).
//!    If more exist — a revived node's copies came back beside the ones
//!    written while it was down — the first `target` verified live copies
//!    in replica-list order are kept and the others deleted, as HDFS
//!    deletes excess replicas (`replicas_trimmed`).
//! 4. A block with no verified live copy and no copy held by a dead node
//!    is `unrecoverable` — actual data loss, which the chaos acceptance
//!    gate requires to be zero.

use crate::node::DataNode;
use crate::{Dfs, Namespace};
use codecs::crc32::crc32;

/// Outcome of one [`Dfs::repair`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Blocks examined (all blocks in the namespace).
    pub blocks_scanned: u64,
    /// Blocks found with fewer live verified replicas than target.
    pub under_replicated: u64,
    /// New replicas written to live datanodes.
    pub replicas_added: u64,
    /// Checksum-failing copies removed from datanodes.
    pub corrupt_replicas_dropped: u64,
    /// Verified live copies deleted past the target.
    pub replicas_trimmed: u64,
    /// Blocks with no intact copy anywhere (live or crashed): data loss.
    pub unrecoverable: u64,
}

impl RepairReport {
    pub fn merge(&mut self, other: &RepairReport) {
        self.blocks_scanned += other.blocks_scanned;
        self.under_replicated += other.under_replicated;
        self.replicas_added += other.replicas_added;
        self.corrupt_replicas_dropped += other.corrupt_replicas_dropped;
        self.replicas_trimmed += other.replicas_trimmed;
        self.unrecoverable += other.unrecoverable;
    }
}

impl Dfs {
    /// Run one repair pass over every block (see module docs). Safe to run
    /// at any time; deterministic given the cluster state.
    pub fn repair(&self) -> RepairReport {
        let _span = obs::span("dfs.repair");
        let block_ids: Vec<u64> = self.inner.namespace.read().blocks.keys().copied().collect();
        let report = self.repair_blocks(&block_ids);
        self.inner.fault.stats.repair_passes.inc();
        report
    }

    /// Repair only the blocks of one file — the targeted path the
    /// content-addressed store uses when a read fails hash verification,
    /// far cheaper than a full-namespace pass. Same per-block semantics as
    /// [`Dfs::repair`]. Errors with [`crate::DfsError::NotFound`] when the
    /// path has no committed file.
    pub fn repair_file(&self, path: &str) -> Result<RepairReport, crate::DfsError> {
        let _span = obs::span("dfs.repair_file");
        let block_ids: Vec<u64> = {
            let ns = self.inner.namespace.read();
            let meta = ns
                .files
                .get(path)
                .filter(|m| !m.pending)
                .ok_or_else(|| crate::DfsError::NotFound(path.to_string()))?;
            meta.blocks.clone()
        };
        obs::inc("dfs.repair.file_passes");
        Ok(self.repair_blocks(&block_ids))
    }

    /// The reconciliation core shared by [`Dfs::repair`] (all blocks) and
    /// [`Dfs::repair_file`] (one file's blocks).
    fn repair_blocks(&self, block_ids: &[u64]) -> RepairReport {
        let inner = &self.inner;
        let mut report = RepairReport::default();
        let live: Vec<usize> = inner
            .datanodes
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_alive())
            .map(|(i, _)| i)
            .collect();
        let target = inner.config.replication.min(live.len().max(1));

        for &block_id in block_ids {
            let Some((replicas, crc)) = inner
                .namespace
                .read()
                .blocks
                .get(&block_id)
                .map(|b| (b.replicas.clone(), b.crc))
            else {
                continue; // deleted while we scanned
            };
            report.blocks_scanned += 1;

            // Verify live copies; partition the replica list.
            let mut kept: Vec<usize> = Vec::with_capacity(replicas.len());
            let mut verified_live: Vec<usize> = Vec::new();
            let mut source: Option<Vec<u8>> = None;
            let mut dead_holding = 0usize;
            for dn in replicas {
                let node: &DataNode = &inner.datanodes[dn];
                if !node.is_alive() {
                    if node.has_block(block_id) {
                        dead_holding += 1;
                        kept.push(dn); // may come back on revival
                    }
                    continue;
                }
                match node.get_block(block_id) {
                    Some(bytes) if crc32(&bytes) == crc => {
                        if source.is_none() {
                            source = Some(bytes);
                        }
                        verified_live.push(dn);
                        kept.push(dn);
                    }
                    Some(_) => {
                        node.remove_block(block_id);
                        forget_corrupt(&mut inner.namespace.write(), block_id, dn);
                        report.corrupt_replicas_dropped += 1;
                        obs::inc("dfs.repair.corrupt_dropped");
                    }
                    None => {
                        // Live node lost the copy (should not happen in the
                        // simulation, but stay conservative): drop it.
                    }
                }
            }

            if verified_live.len() < target {
                report.under_replicated += 1;
                obs::inc("dfs.repair.under_replicated");
            }

            match source {
                Some(data) => {
                    // Re-replicate to live nodes lacking a copy, lowest
                    // index first, up to the target.
                    for &dn in &live {
                        if verified_live.len() >= target {
                            break;
                        }
                        if kept.contains(&dn) {
                            continue;
                        }
                        inner.datanodes[dn].put_block(block_id, data.clone());
                        forget_corrupt(&mut inner.namespace.write(), block_id, dn);
                        kept.push(dn);
                        verified_live.push(dn);
                        report.replicas_added += 1;
                        obs::inc("dfs.repair.replicas_added");
                    }
                }
                None if dead_holding == 0 => {
                    report.unrecoverable += 1;
                    obs::inc("dfs.repair.unrecoverable");
                }
                None => {
                    // Only crashed nodes hold copies: wait for revival.
                }
            }

            // Excess copies: keep the first `target` verified live ones.
            for &dn in verified_live.iter().skip(target) {
                inner.datanodes[dn].remove_block(block_id);
                forget_corrupt(&mut inner.namespace.write(), block_id, dn);
                kept.retain(|&k| k != dn);
                report.replicas_trimmed += 1;
                obs::inc("dfs.repair.replicas_trimmed");
            }

            if let Some(meta) = inner.namespace.write().blocks.get_mut(&block_id) {
                meta.replicas = kept;
            }
        }

        report
    }
}

/// A replica was dropped or freshly rewritten: clear its corrupt mark.
fn forget_corrupt(ns: &mut Namespace, block_id: u64, dn: usize) {
    ns.corrupt.remove(&(block_id, dn));
}

#[cfg(test)]
mod tests {
    use super::RepairReport;
    use crate::{Dfs, DfsConfig};

    fn small_cluster() -> Dfs {
        Dfs::new(DfsConfig {
            block_size: 256,
            replication: 3,
            n_datanodes: 4,
            ..DfsConfig::default()
        })
    }

    #[test]
    fn clean_cluster_needs_no_repair() {
        let fs = small_cluster();
        fs.write("/a", &[1u8; 1000]).unwrap();
        let r = fs.repair();
        assert_eq!(r.blocks_scanned, 4);
        assert_eq!(r.under_replicated, 0);
        assert_eq!(r.replicas_added, 0);
        assert_eq!(r.corrupt_replicas_dropped, 0);
        assert_eq!(r.unrecoverable, 0);
    }

    #[test]
    fn crash_then_repair_restores_replication() {
        let fs = small_cluster();
        fs.write("/a", &[7u8; 2048]).unwrap(); // 8 blocks × 3 replicas
        let before = fs.metrics().physical_bytes;
        fs.kill_datanode(1);
        let r = fs.repair();
        assert!(r.under_replicated > 0, "{r:?}");
        assert_eq!(r.replicas_added, r.under_replicated);
        assert_eq!(r.unrecoverable, 0);
        // Node 1's copies survive on its disk AND fresh replicas exist, so
        // physical usage grew; the file reads back fine without node 1.
        assert!(fs.metrics().physical_bytes > before);
        assert_eq!(fs.read("/a").unwrap(), vec![7u8; 2048]);
        // A second pass finds nothing left to do.
        let r2 = fs.repair();
        assert_eq!(r2.replicas_added, 0);
        assert_eq!(r2.under_replicated, 0);
    }

    #[test]
    fn a_revived_nodes_copies_are_trimmed_to_the_replication_factor() {
        let fs = small_cluster();
        fs.write("/a", &[4u8; 2048]).unwrap(); // 8 blocks × 3 replicas
        let before = fs.metrics().physical_bytes;
        fs.kill_datanode(1);
        let added = fs.repair().replicas_added;
        assert!(added > 0);
        fs.revive_datanode(1);
        let r = fs.repair();
        assert_eq!((r.replicas_trimmed, r.replicas_added), (added, 0), "{r:?}");
        for (block, holders) in fs.block_replicas("/a").iter().enumerate() {
            assert_eq!(holders.len(), 3, "block {block}: {holders:?}");
        }
        assert_eq!(fs.metrics().physical_bytes, before);
        assert_eq!(fs.read("/a").unwrap(), vec![4u8; 2048]);
        assert_eq!(
            fs.repair(),
            RepairReport {
                blocks_scanned: 8,
                ..RepairReport::default()
            }
        );
    }

    #[test]
    fn corrupt_replicas_are_dropped_and_replaced() {
        let fs = small_cluster();
        fs.write("/a", &[9u8; 256]).unwrap(); // exactly one block
                                              // Corrupt one replica at rest on whichever node holds it first.
        let dn = (0..4)
            .find(|&i| fs.corrupt_replica_for_test("/a", i))
            .expect("some node holds the block");
        let r = fs.repair();
        assert_eq!(r.corrupt_replicas_dropped, 1);
        assert_eq!(r.replicas_added, 1);
        assert_eq!(r.unrecoverable, 0);
        let _ = dn;
        assert_eq!(fs.read("/a").unwrap(), vec![9u8; 256]);
        assert_eq!(fs.repair().corrupt_replicas_dropped, 0);
    }

    #[test]
    fn repair_file_fixes_only_that_file() {
        let fs = small_cluster();
        fs.write("/a", &[5u8; 512]).unwrap(); // 2 blocks
        fs.write("/b", &[6u8; 512]).unwrap();
        // Corrupt one replica of each file; a targeted pass on /a must fix
        // /a and leave /b's corruption for a later full pass.
        let _ = (0..4).find(|&i| fs.corrupt_replica_for_test("/a", i));
        let _ = (0..4).find(|&i| fs.corrupt_replica_for_test("/b", i));
        let r = fs.repair_file("/a").unwrap();
        assert_eq!(r.blocks_scanned, 2);
        assert_eq!(r.corrupt_replicas_dropped, 1);
        assert_eq!(r.replicas_added, 1);
        assert_eq!(fs.read("/a").unwrap(), vec![5u8; 512]);
        let full = fs.repair();
        assert_eq!(full.corrupt_replicas_dropped, 1, "only /b was left");
        assert!(fs.repair_file("/nope").is_err());
    }

    #[test]
    fn total_loss_is_reported_unrecoverable() {
        let fs = small_cluster();
        fs.write("/a", &[3u8; 100]).unwrap();
        // Corrupt every replica of the single block.
        for i in 0..4 {
            fs.corrupt_replica_for_test("/a", i);
        }
        let r = fs.repair();
        assert_eq!(r.corrupt_replicas_dropped, 3);
        assert_eq!(r.unrecoverable, 1);
        assert!(fs.read("/a").is_err());
    }
}
