//! Property tests for the content-addressed store invariants:
//!
//! 1. split → hash → assemble: splitting any payload and reassembling
//!    its pieces reproduces the payload byte-for-byte, and piece hashes
//!    are stable.
//! 2. every epoch owns what it stored under arbitrary interleavings of
//!    ingest and decay: byte-identical tables under different epochs are
//!    two epochs' files, each reads back its own snapshot, and nothing is
//!    left behind.
//! 3. a flipped bit anywhere in a stored pack or manifest is caught by
//!    content verification before bytes reach the query layer.

use cas::chunker::{assemble, split, Chunking};
use cas::{CasConfig, CasError, CasStore, ChunkHash};
use dfs::{Dfs, DfsConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use telco_trace::{EpochId, Record, Snapshot, TraceConfig, TraceGenerator};

fn store() -> (Dfs, CasStore) {
    let dfs = Dfs::new(DfsConfig::default());
    let cas = CasStore::new(dfs.clone(), CasConfig::default());
    (dfs, cas)
}

/// A payload that exercises the chunker's columnar path when
/// `snapshotish` and its blob path otherwise.
fn payload(data: &[u8], rows: usize, snapshotish: bool) -> Vec<u8> {
    if !snapshotish {
        return data.to_vec();
    }
    let mut out =
        format!("#SNAPSHOT ts=2016-01-18T00:00\n#TABLE CDR rows={rows} cols=3\n").into_bytes();
    for r in 0..rows {
        let a = data.get(r % data.len().max(1)).copied().unwrap_or(0);
        out.extend_from_slice(format!("{a},280-01,{}\n", r % 7).as_bytes());
    }
    out
}

/// Three small generated snapshots, whose tables are put under any epoch.
fn templates() -> &'static [Snapshot] {
    static TEMPLATES: OnceLock<Vec<Snapshot>> = OnceLock::new();
    TEMPLATES.get_or_init(|| TraceGenerator::new(TraceConfig::tiny()).take(3).collect())
}

/// The snapshot of `epoch` holding at most `rows` rows of each table of
/// template `t`, as `Snapshot::to_bytes` writes it.
fn snapshot(epoch: u32, t: usize, rows: usize) -> Vec<u8> {
    let t = &templates()[t];
    let take = |records: &[Record]| records[..rows.min(records.len())].to_vec();
    Snapshot::new(EpochId(epoch), take(&t.cdr), take(&t.nms)).to_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn split_hash_assemble_roundtrips(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        rows in 0usize..300,
        snapshotish in any::<bool>(),
    ) {
        let raw = payload(&data, rows, snapshotish);
        let (layout, pieces) = split(&raw, &Chunking);
        // Hashes are stable and identify content.
        for p in &pieces {
            prop_assert_eq!(ChunkHash::of(p), ChunkHash::of(p));
        }
        let back = assemble(&layout, &pieces).expect("own split must assemble");
        prop_assert_eq!(back, raw);
    }

    #[test]
    fn every_epoch_owns_its_payload_through_interleaved_ingest_and_decay(
        ops in proptest::collection::vec((0u32..12, any::<bool>(), 0u8..3), 1..40),
    ) {
        let (_dfs, cas) = store();
        let mut live: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        for (epoch, ingest, fill) in ops {
            if ingest {
                // Three templates in all: the same tables land under many
                // epochs, and each is stored again.
                let raw = snapshot(epoch, usize::from(fill), usize::MAX);
                match cas.put_epoch(epoch, &raw) {
                    Ok(_) => prop_assert!(live.insert(epoch, raw).is_none()),
                    Err(CasError::AlreadyStored(_)) => prop_assert!(live.contains_key(&epoch)),
                    Err(e) => panic!("put failed: {e}"),
                }
            } else {
                // Decay: dropping a missing epoch is a no-op.
                let freed = cas.drop_epoch(epoch).expect("drop must not fail");
                if live.remove(&epoch).is_none() {
                    prop_assert_eq!(freed, 0);
                }
            }
            // After every step: state accounting matches the filesystem
            // listing, and every live epoch reads back its own payload.
            prop_assert_eq!(cas.bytes_stored(), cas.listed_bytes());
            prop_assert_eq!(cas.epochs(), live.keys().copied().collect::<Vec<_>>());
            for (&e, raw) in &live {
                prop_assert_eq!(&cas.get_epoch(e).unwrap(), raw);
            }
        }
        // Full decay always reaches an empty store.
        for &e in live.keys() {
            cas.drop_epoch(e).unwrap();
        }
        prop_assert_eq!(cas.bytes_stored(), 0);
        prop_assert_eq!(cas.listed_bytes(), 0);
    }

    #[test]
    fn any_flipped_bit_is_caught_before_the_query_layer(
        template in 0usize..3,
        rows in 1usize..200,
        victim in any::<u16>(),
        bit in 0u8..8,
    ) {
        let (dfs, cas) = store();
        let raw = snapshot(5, template, rows);
        cas.put_epoch(5, &raw).unwrap();
        prop_assert_eq!(cas.get_epoch(5).unwrap(), raw.clone());

        // Flip one bit in one stored file (pack or manifest alike). The
        // dfs is write-once, so model at-rest corruption by replacing the
        // file with tampered bytes — the namenode checksums then match the
        // tampered content, leaving content-hash verification as the only
        // line of defence.
        let files: Vec<String> = dfs.list("/cas/");
        prop_assert!(!files.is_empty());
        let path = &files[victim as usize % files.len()];
        let mut bytes = dfs.read(path).unwrap();
        let idx = victim as usize % bytes.len();
        bytes[idx] ^= 1 << bit;
        dfs.delete(path).unwrap();
        dfs.write(path, &bytes).unwrap();

        match cas.get_epoch(5) {
            Err(CasError::Corrupt(_)) | Err(CasError::Codec(_)) | Err(CasError::Dfs(_)) => {}
            Err(e) => panic!("unexpected error class: {e}"),
            Ok(got) => {
                // The only acceptable success is the byte-identical snapshot
                // (never silently wrong data past the verifier).
                prop_assert_eq!(got, raw);
            }
        }
    }
}
