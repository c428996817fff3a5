//! Property tests for the content-addressed store invariants:
//!
//! 1. chunk → hash → chunk: splitting any payload and reassembling the
//!    addressed pieces reproduces the payload byte-for-byte, and piece
//!    hashes are stable.
//! 2. refcounts never underflow (and never leak) under arbitrary
//!    interleavings of ingest and decay.
//! 3. a flipped bit anywhere in a stored pack or manifest is caught by
//!    content verification before bytes reach the query layer.

use cas::chunker::{assemble, split, Chunking};
use cas::{CasConfig, CasError, CasStore, ChunkHash};
use dfs::{Dfs, DfsConfig};
use proptest::prelude::*;

fn store() -> (Dfs, CasStore) {
    let dfs = Dfs::new(DfsConfig::default());
    let cas = CasStore::new(dfs.clone(), CasConfig::default());
    (dfs, cas)
}

/// A payload that exercises the columnar path when `snapshotish` and the
/// blob path otherwise. Its header names no epoch: the store files it
/// under whichever it is put as.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn split_hash_assemble_roundtrips(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        rows in 0usize..300,
        snapshotish in any::<bool>(),
    ) {
        let raw = payload(&data, rows, snapshotish);
        let cfg = Chunking::default();
        let (layout, pieces) = split(&raw, &cfg);
        // Hashes are stable and identify content.
        for p in &pieces {
            prop_assert_eq!(ChunkHash::of(p), ChunkHash::of(p));
        }
        let back = assemble(&layout, &pieces).expect("own split must assemble");
        prop_assert_eq!(back, raw);
    }

    #[test]
    fn refcounts_survive_interleaved_ingest_and_decay(
        ops in proptest::collection::vec((0u32..12, any::<bool>(), any::<u8>()), 1..40),
    ) {
        let (_dfs, cas) = store();
        let mut live: Vec<u32> = Vec::new();
        for (epoch, ingest, fill) in ops {
            if ingest {
                // Repetitive payloads force cross-epoch chunk sharing.
                let raw = payload(&[fill, fill / 2, 7], 100 + epoch as usize, true);
                match cas.put_epoch(epoch, &raw) {
                    Ok(_) => live.push(epoch),
                    Err(CasError::AlreadyStored(_)) => {}
                    Err(e) => panic!("put failed: {e}"),
                }
            } else {
                // Decay: dropping a missing epoch is a no-op, never an
                // underflow (drop_epoch debug_asserts refcounts inside).
                let freed = cas.drop_epoch(epoch).expect("drop must not fail");
                let was_live = live.iter().position(|&e| e == epoch);
                if let Some(i) = was_live {
                    live.swap_remove(i);
                } else {
                    prop_assert_eq!(freed, 0);
                }
            }
            // Invariants after every step: no zero-ref chunk is retained,
            // state accounting matches the filesystem listing.
            prop_assert_eq!(cas.unreferenced_chunks(), 0);
            prop_assert_eq!(cas.bytes_stored(), cas.listed_bytes());
        }
        // Full decay always reaches an empty store.
        for e in live {
            cas.drop_epoch(e).unwrap();
        }
        prop_assert_eq!(cas.bytes_stored(), 0);
        prop_assert_eq!(cas.listed_bytes(), 0);
        prop_assert_eq!(cas.chunk_count(), 0);
        prop_assert_eq!(cas.pack_count(), 0);
    }

    #[test]
    fn any_flipped_bit_is_caught_before_the_query_layer(
        data in proptest::collection::vec(any::<u8>(), 64..2048),
        rows in 10usize..200,
        snapshotish in any::<bool>(),
        victim in any::<u16>(),
        bit in 0u8..8,
    ) {
        let (dfs, cas) = store();
        let raw = payload(&data, rows, snapshotish);
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
                // The only acceptable success is byte-identical payload
                // (never silently wrong data past the verifier).
                prop_assert_eq!(got, raw);
            }
        }
    }
}
