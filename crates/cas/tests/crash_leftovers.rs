//! Crash leftovers of the write and decay order. `put_epoch` writes the
//! epoch's pack, then its manifest by `Dfs::write_staged`; `drop_epoch`
//! deletes the manifest, then the pack. For every state a crash between
//! two of those filesystem calls can leave, built here by hand beside
//! other epochs, a fresh process's `recover()` must find the epoch whole
//! or absent, account for every byte it lists, let the operation be
//! retried, and agree on the Merkle root with a store where the operation
//! never ran or finished.

use cas::{CasConfig, CasError, CasRecoverReport, CasStore};
use dfs::Dfs;
use telco_trace::{EpochId, Snapshot, TraceConfig, TraceGenerator};

/// The operation a crash cut short, retried after recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Put,
    Drop,
}

/// A file of the epoch, as `put_epoch` writes it, left on the disk.
#[derive(Debug, Clone, Copy)]
enum File {
    Pack,
    ManifestTmp,
    Manifest,
}

struct Epoch {
    epoch: u32,
    raw: Vec<u8>,
}

fn cas(dfs: &Dfs) -> CasStore {
    CasStore::new(dfs.clone(), CasConfig::default())
}

/// A filesystem holding `epochs`, put by a process that is gone since.
fn disk_with<'a>(epochs: impl IntoIterator<Item = &'a Epoch>) -> Dfs {
    let dfs = Dfs::in_memory();
    let store = cas(&dfs);
    for e in epochs {
        store.put_epoch(e.epoch, &e.raw).unwrap();
    }
    dfs
}

/// The Merkle root a fresh process finds on `dfs`.
fn root_of(dfs: &Dfs) -> String {
    CasStore::open(dfs.clone(), CasConfig::default())
        .0
        .root_hash()
}

/// Lay the `left` files of `victim` beside `others`, recover, check, retry
/// `op` and check again. Whether recovery found the victim whole.
fn crash_leftover(victim: &Epoch, others: &[Epoch], left: &[File], op: Op) -> bool {
    let e = victim.epoch;
    let never = disk_with(others);
    let done = disk_with(others.iter().chain([victim]));
    let (root_never, root_done) = (root_of(&never), root_of(&done));
    assert_ne!(root_never, root_done);

    let dfs = disk_with(others);
    let paths = cas(&dfs);
    for file in left {
        let (path, from) = match file {
            File::Pack => (paths.pack_path(e), paths.pack_path(e)),
            File::ManifestTmp => (
                dfs::staging_path(&paths.manifest_path(e)),
                paths.manifest_path(e),
            ),
            File::Manifest => (paths.manifest_path(e), paths.manifest_path(e)),
        };
        dfs.write(&path, &done.read(&from).unwrap()).unwrap();
    }

    let (store, _) = CasStore::open(dfs.clone(), CasConfig::default());
    let whole = store.contains(e);
    if whole {
        assert_eq!(store.get_epoch(e).unwrap(), victim.raw, "{left:?}");
        assert_eq!(store.root_hash(), root_done, "{left:?}");
        assert_eq!(dfs.list("/cas/"), done.list("/cas/"), "{left:?}");
    } else {
        assert!(matches!(store.get_epoch(e), Err(CasError::Missing(_))));
        assert_eq!(store.root_hash(), root_never, "{left:?}");
        assert_eq!(dfs.list("/cas/"), never.list("/cas/"), "{left:?}");
    }
    assert_eq!(store.listed_bytes(), store.bytes_stored(), "{left:?}");
    for other in others {
        assert_eq!(store.get_epoch(other.epoch).unwrap(), other.raw);
    }

    match op {
        Op::Put => match store.put_epoch(e, &victim.raw) {
            Ok(_) => assert!(!whole, "{left:?}: put twice"),
            Err(CasError::AlreadyStored(_)) => assert!(whole, "{left:?}"),
            Err(err) => panic!("{left:?}: retried put failed: {err}"),
        },
        Op::Drop => {
            store.drop_epoch(e).unwrap();
        }
    }
    let finished = if op == Op::Put { &done } else { &never };
    assert_eq!(store.contains(e), op == Op::Put, "{left:?}");
    assert_eq!(store.root_hash(), root_of(finished), "{left:?} {op:?}");
    assert_eq!(dfs.list("/cas/"), finished.list("/cas/"), "{left:?} {op:?}");
    assert_eq!(
        store.listed_bytes(),
        store.bytes_stored(),
        "{left:?} {op:?}"
    );
    if op == Op::Put {
        assert_eq!(store.get_epoch(e).unwrap(), victim.raw);
    }

    // Nothing is left for the next process to sweep.
    let (again, report) = CasStore::open(dfs, CasConfig::default());
    let indexed = (others.len() + usize::from(op == Op::Put)) as u64;
    let clean = CasRecoverReport {
        manifests_indexed: indexed,
        ..CasRecoverReport::default()
    };
    assert_eq!(report, clean, "{left:?} {op:?}");
    assert_eq!(again.root_hash(), store.root_hash());
    whole
}

/// Two epochs to stay beside the one a crash hits, and that one: three
/// snapshots of the smallest trace, each with a pack.
fn snapshots() -> (Epoch, Vec<Epoch>) {
    let mut epochs: Vec<Epoch> = TraceGenerator::new(TraceConfig::tiny())
        .take(3)
        .map(|s| Epoch {
            epoch: s.epoch.0,
            raw: s.to_bytes(),
        })
        .collect();
    let victim = epochs.pop().unwrap();
    (victim, epochs)
}

#[test]
fn a_crash_inside_put_epoch_leaves_the_epoch_whole_or_absent() {
    let (victim, others) = snapshots();
    let done = disk_with([&victim]);
    assert!(done.exists(&cas(&done).pack_path(victim.epoch)), "a pack");
    let crash = |left: &[File]| crash_leftover(&victim, &others, left, Op::Put);
    // Pack written; then also the staged manifest: no manifest committed,
    // the pack is an orphan. Then the rename: the epoch is stored.
    assert!(!crash(&[File::Pack]));
    assert!(!crash(&[File::Pack, File::ManifestTmp]));
    assert!(crash(&[File::Pack, File::Manifest]));
}

#[test]
fn a_crash_inside_drop_epoch_leaves_an_orphan_pack_never_a_lone_manifest() {
    let (victim, others) = snapshots();
    let crash = |left: &[File]| crash_leftover(&victim, &others, left, Op::Drop);
    // Before the first delete; then with the manifest deleted, the pack
    // left; then both gone.
    assert!(crash(&[File::Pack, File::Manifest]));
    assert!(!crash(&[File::Pack]));
    assert!(!crash(&[]));
}

/// An epoch of constant columns is its manifest alone: no pack to write
/// or delete, and a pack file at its path is a crashed put's.
#[test]
fn an_epoch_without_a_pack_is_whole_or_absent_too() {
    let (_, others) = snapshots();
    // Three copies of one CDR and one NMS record: every column constant.
    let s = TraceGenerator::new(TraceConfig::tiny()).next().unwrap();
    let (cdr, nms) = (s.cdr[0].clone(), s.nms[0].clone());
    let raw = Snapshot::new(EpochId(3), vec![cdr; 3], vec![nms; 3]).to_bytes();
    let raw = raw.as_slice();
    let victim = Epoch {
        epoch: 3,
        raw: raw.to_vec(),
    };
    let done = disk_with([&victim]);
    assert!(!done.exists(&cas(&done).pack_path(3)), "no pack");
    let crash = |left: &[File], op| crash_leftover(&victim, &others, left, op);
    assert!(!crash(&[File::ManifestTmp], Op::Put));
    assert!(crash(&[File::Manifest], Op::Put));
    assert!(crash(&[File::Manifest], Op::Drop));
    assert!(!crash(&[], Op::Drop));

    // A pack left at the path by a crashed put of other bytes: swept, and
    // a put clears it too.
    let dfs = disk_with(&others);
    let store = cas(&dfs);
    dfs.write(&store.pack_path(3), b"a crashed put's pack")
        .unwrap();
    store.put_epoch(3, raw).unwrap();
    assert!(!dfs.exists(&store.pack_path(3)));
    dfs.write(&store.pack_path(3), b"a crashed put's pack")
        .unwrap();
    let (again, report) = CasStore::open(dfs, CasConfig::default());
    assert_eq!(report.orphan_packs_deleted, 1);
    assert_eq!(again.get_epoch(3).unwrap(), raw);
    assert_eq!(again.listed_bytes(), again.bytes_stored());
}
