//! The read-ahead contract (`core::storage::read_ahead`). Its unit of
//! work is a piece: a Path epoch is one, a CAS epoch one per table read.
//! A window of two pieces or more is read by the caller and a helper
//! thread claiming pieces from one cursor, and scanned whole epoch by
//! whole epoch, in epoch order, on the caller's thread; the answers must
//! be the ones a scan of one epoch at a time gives, whichever thread read
//! which piece — also when a leaf or one table's unit is missing or
//! damaged, when the budget runs out mid-window or between an epoch's
//! pieces, or when a piece panics. Every warehouse case runs on the Path
//! and the CAS backend; a CAS store refuses to put damaged text, so its
//! epochs are damaged at rest.

use cas::{CasStore, ChunkHash, EpochManifest};
use obs::{EventKind, SpanEvent};
use spate::core::framework::{ExplorationFramework, IngestStats, SpaceReport, SpateFramework};
use spate::core::query::{profile_query, run_exact, Coverage, ExactResult, Query, QueryResult};
use spate::core::storage::{read_ahead, SnapshotStore, READ_AHEAD_SLOTS};
use spate::core::tasks;
use spate::dfs::Dfs;
use spate::serve::{Reply, ServeConfig, Server, CHAOS_PANIC_ATTRIBUTE};
use spate::sql::SqlContext;
use spate::trace::cells::BoundingBox;
use spate::trace::schema::TableKind;
use spate::trace::time::EpochId;
use spate::trace::{CellLayout, Snapshot, TraceConfig, TraceGenerator};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

/// Eight morning epochs: busy enough for T4 to find movers.
const FIRST: u32 = 16;
const LAST: u32 = 23;

/// How long a scan that must end may take before the test calls it hung.
const HANG: Duration = Duration::from_secs(5);

fn trace() -> (CellLayout, Vec<Snapshot>) {
    let mut generator = TraceGenerator::new(TraceConfig::scaled(1.0 / 2048.0));
    let layout = generator.layout().clone();
    let snaps = (&mut generator)
        .skip(FIRST as usize)
        .take((LAST - FIRST + 1) as usize)
        .collect();
    (layout, snaps)
}

/// The Path and the CAS warehouse, each holding `snaps`.
fn warehouses(layout: &CellLayout, snaps: &[Snapshot]) -> [(&'static str, SpateFramework); 2] {
    let mut path = SpateFramework::in_memory(layout.clone());
    let mut cas = SpateFramework::with_cas(Dfs::in_memory(), layout.clone());
    for s in snaps {
        path.ingest(s);
        cas.ingest(s);
    }
    [("Path", path), ("CAS", cas)]
}

/// `fw` scanning one epoch at a time: no piece of another epoch is read
/// beside the one it scans, and a one-table scan has one piece an epoch,
/// read on the calling thread.
struct OneEpochAtATime<'a>(&'a SpateFramework);

impl ExplorationFramework for OneEpochAtATime<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn layout(&self) -> &CellLayout {
        self.0.layout()
    }
    fn ingest(&mut self, _: &Snapshot) -> IngestStats {
        unreachable!("a read-only view")
    }
    fn space(&self) -> SpaceReport {
        self.0.space()
    }
    fn load_epoch(&self, epoch: EpochId) -> Option<Snapshot> {
        self.0.load_epoch(epoch)
    }
    fn scan_rows(
        &self,
        start: EpochId,
        end: EpochId,
        table: TableKind,
        visit: &mut dyn FnMut(EpochId, &[spate::trace::snapshot::Row<'_>]),
    ) {
        for epoch in (start.0..=end.0).map(EpochId) {
            self.0.scan_rows(epoch, epoch, table, visit);
        }
    }
    /// The window's exact answer pieced together from one query per
    /// epoch: rows in epoch order, coverage summed.
    fn query(&self, q: &Query) -> QueryResult {
        let mut whole: Option<ExactResult> = None;
        let mut coverage = Coverage::default();
        for epoch in (q.window.0 .0..=q.window.1 .0).map(EpochId) {
            let (part, served) = match self.0.query(&q.clone().with_window(epoch, epoch)) {
                QueryResult::Exact(part) => (part, 1),
                QueryResult::Partial { result, .. } => (result, 0),
                other => panic!("one epoch of an exact window answered {other:?}"),
            };
            coverage.requested += 1;
            coverage.served += served;
            coverage.unavailable += 1 - served;
            match &mut whole {
                None => whole = Some(part),
                Some(w) => {
                    w.cdr.rows.extend(part.cdr.rows);
                    w.nms.rows.extend(part.nms.rows);
                    w.epochs_read += part.epochs_read;
                }
            }
        }
        let result = whole.expect("a window of one epoch or more");
        if coverage.is_complete() {
            QueryResult::Exact(result)
        } else {
            QueryResult::Partial { result, coverage }
        }
    }
    fn version(&self) -> u64 {
        self.0.version()
    }
}

const STATEMENTS: [&str; 7] = [
    "SELECT upflux, downflux FROM CDR",
    "SELECT caller_id, duration_s FROM CDR WHERE call_result = 'DROP' OR duration_s > 100",
    "SELECT cell_id, SUM(call_drops), COUNT(*) FROM NMS GROUP BY cell_id \
     HAVING SUM(call_attempts) > 0 ORDER BY 2 DESC",
    "SELECT a.caller_id FROM CDR a, CDR b \
     WHERE a.caller_id = b.caller_id AND a.cell_id != b.cell_id",
    "SELECT * FROM NMS",
    "SELECT * FROM CDR WHERE tech LIKE '_G' LIMIT 40",
    "SELECT cell_id FROM CELL WHERE cell_id IN (SELECT cell_id FROM NMS WHERE call_drops > 0)",
];

/// `Q(a, b, w)`, T1–T8 and every statement over `[start, end]`, each in a
/// printed form that compares exactly (hash maps sorted first).
fn answers(fw: &dyn ExplorationFramework, start: u32, end: u32) -> Vec<(&'static str, String)> {
    let (start, end) = (EpochId(start), EpochId(end));
    let q = Query::new(
        &["upflux", "call_drops", "cell_id"],
        BoundingBox::everything(),
    )
    .with_window(start, end);
    let t3 = tasks::t3_aggregate(fw, start, end).0;
    let t3: (BTreeMap<_, _>, BTreeMap<_, _>) = (
        t3.drops_per_cell.into_iter().collect(),
        t3.drop_rate_per_cluster.into_iter().collect(),
    );
    let mut out = vec![
        ("query", format!("{:?}", fw.query(&q))),
        ("T1", format!("{:?}", tasks::t1_equality(fw, start).0)),
        ("T2", format!("{:?}", tasks::t2_range(fw, start, end).0)),
        ("T3", format!("{t3:?}")),
        ("T4", format!("{:?}", tasks::t4_join(fw, start, end).0)),
        (
            "T5",
            format!("{:?}", tasks::t5_privacy(fw, start, end, 3).0),
        ),
        (
            "T6",
            format!("{:?}", tasks::t6_statistics(fw, start, end).0),
        ),
        (
            "T7",
            format!("{:?}", tasks::t7_clustering(fw, start, end, 3).0),
        ),
        (
            "T8",
            format!("{:?}", tasks::t8_regression(fw, start, end).0),
        ),
    ];
    let ctx = SqlContext::new(fw, start, end);
    out.extend(STATEMENTS.map(|sql| (sql, format!("{:?}", ctx.query(sql)))));
    out
}

fn assert_same(what: &str, got: &[(&str, String)], want: &[(&str, String)]) {
    assert_eq!(got.len(), want.len());
    for ((label, got), (_, want)) in got.iter().zip(want) {
        assert!(got == want, "{what}: {label}\n got {got}\nwant {want}");
    }
}

/// Put `text` where the leaf of `epoch` was (`None`: leave it missing),
/// behind the back of the framework that owns the store.
fn replace_leaf(store: &SnapshotStore, epoch: EpochId, text: Option<&[u8]>) {
    store.evict(epoch).expect("evict the leaf");
    let Some(text) = text else { return };
    match store.cas() {
        Some(cas) => {
            cas.put_epoch(epoch.0, text).expect("put the leaf");
        }
        None => {
            let codec = spate::codecs::by_name(store.codec_name()).expect("a known codec");
            store
                .dfs()
                .write(&store.path_for(epoch), &codec.compress(text))
                .expect("write the leaf");
        }
    }
}

/// Damage one table of CAS epoch `epoch` at rest: the address its
/// manifest gives the unit of table `unit` (0 CDR, 1 NMS) is not its
/// bytes' any more. The pack and the other table stay whole, and the
/// store, recovered, serves the edited manifest.
fn damage_unit(cas: &CasStore, epoch: EpochId, unit: usize) {
    let dfs = cas.dfs();
    let codec = spate::codecs::by_name(cas.codec_name()).expect("a known codec");
    let path = cas.manifest_path(epoch.0);
    let stored = dfs.read(&path).expect("a manifest");
    let mut manifest = EpochManifest::decode(&codec.decompress(&stored).expect("inflates"))
        .expect("a manifest decodes");
    assert_eq!(
        manifest.units.len(),
        2,
        "a daytime epoch has a unit a table"
    );
    manifest.units[unit] = ChunkHash::of(b"not the unit");
    dfs.delete(&path).expect("delete the manifest");
    dfs.write(&path, &codec.compress(&manifest.encode()))
        .expect("write the manifest");
    assert_eq!(cas.recover().corrupt_manifests_dropped, 0);
}

/// Damage the committed files of CAS epoch `epoch` at rest: its pack cut
/// to half (`from: None`), or the manifest and pack of epoch `from`
/// copied over its own.
fn damage_at_rest(cas: &CasStore, epoch: EpochId, from: Option<EpochId>) {
    let dfs = cas.dfs();
    let overwrite = |path: &str, bytes: &[u8]| {
        dfs.delete(path).expect("delete the file");
        dfs.write(path, bytes).expect("write the damaged file");
    };
    let Some(from) = from else {
        let pack = dfs.read(&cas.pack_path(epoch.0)).expect("a pack");
        return overwrite(&cas.pack_path(epoch.0), &pack[..pack.len() / 2]);
    };
    for path in [CasStore::manifest_path, CasStore::pack_path] {
        let theirs = dfs
            .read(&path(cas, from.0))
            .expect("the other epoch's file");
        overwrite(&path(cas, epoch.0), &theirs);
    }
}

/// A missing, truncated or misfiled leaf, or one bad table, at every
/// position of windows of 1 to 8 epochs: wherever it falls — first, last,
/// read by the caller or by the helper — every answer equals the
/// one-epoch-at-a-time answer. On CAS a truncated leaf is a truncated
/// pack, a misfiled one holds the neighbour's manifest and pack, and a bad
/// table is one unit whose bytes are not its address, beside a sound one:
/// the epoch is lost to a read of that table and served to a read of the
/// other alone (T2 reads CDR alone, `Q(a, b, w)` both). On Path a bad
/// table is a row with a field too many, and the whole leaf is lost.
fn damage_every_position(backend: &str) {
    assert_eq!(READ_AHEAD_SLOTS, 4);
    let (layout, snaps) = trace();
    let warehouses = warehouses(&layout, &snaps);
    let (_, fw) = warehouses
        .iter()
        .find(|(name, _)| *name == backend)
        .unwrap();
    for len in 1..=snaps.len() {
        let end = FIRST + len as u32 - 1;
        let healthy = answers(fw, FIRST, end);
        assert_same(
            &format!("{backend}, {len} epochs, healthy"),
            &healthy,
            &answers(&OneEpochAtATime(fw), FIRST, end),
        );
        for (at, snap) in snaps[..len].iter().enumerate() {
            let text = snap.to_bytes();
            let nms = std::str::from_utf8(&text)
                .unwrap()
                .find("#TABLE NMS")
                .unwrap();
            // Cut inside the last CDR row; a whole snapshot, of a
            // neighbour; the last NMS row given a field too many.
            let truncated = &text[..nms - 10];
            let neighbour = &snaps[(at + 1) % snaps.len()];
            let misfiled = neighbour.to_bytes();
            let mut bad_nms = text.clone();
            bad_nms.truncate(text.len() - 1);
            bad_nms.extend_from_slice(b",1\n");
            // The leaf's text; whose files a CAS epoch takes instead, or
            // which of its units is bad.
            let damages = [
                ("missing", None, Damage::Cut),
                ("truncated", Some(truncated), Damage::Cut),
                (
                    "misfiled",
                    Some(misfiled.as_slice()),
                    Damage::From(neighbour.epoch),
                ),
                ("bad CDR table", Some(text.as_slice()), Damage::Unit(0)),
                ("bad NMS table", Some(bad_nms.as_slice()), Damage::Unit(1)),
            ];
            for (damage, leaf, at_rest) in damages {
                match (fw.store().cas(), leaf, at_rest) {
                    (Some(cas), _, Damage::Unit(unit)) => damage_unit(cas, snap.epoch, unit),
                    // A bad CDR table of a Path leaf is the truncated one.
                    (None, _, Damage::Unit(0)) => continue,
                    (Some(cas), Some(leaf), _) => {
                        assert!(cas.put_epoch(snap.epoch.0, leaf).is_err(), "{damage}");
                        let from = match at_rest {
                            Damage::From(from) => Some(from),
                            _ => None,
                        };
                        damage_at_rest(cas, snap.epoch, from);
                    }
                    _ => replace_leaf(fw.store(), snap.epoch, leaf),
                }
                let what = format!("{backend}, {len} epochs, epoch {at} {damage}");
                let got = answers(fw, FIRST, end);
                assert_same(&what, &got, &answers(&OneEpochAtATime(fw), FIRST, end));
                assert!(got[0].1.contains("served: "), "{what}: {}", got[0].1);
                replace_leaf(fw.store(), snap.epoch, Some(&text));
            }
        }
        assert_same(
            &format!("{backend}, {len} epochs, restored"),
            &answers(fw, FIRST, end),
            &healthy,
        );
    }
}

/// How a CAS epoch is damaged at rest, beside the text it is refused.
#[derive(Clone, Copy)]
enum Damage {
    /// Its pack cut in half; with no leaf text, nothing left.
    Cut,
    /// The manifest and pack of another epoch.
    From(EpochId),
    /// One table's unit ([`damage_unit`]).
    Unit(usize),
}

#[test]
fn a_damaged_path_leaf_anywhere_costs_what_it_costs_one_epoch_at_a_time() {
    damage_every_position("Path");
}

#[test]
fn a_damaged_cas_epoch_anywhere_costs_what_it_costs_one_epoch_at_a_time() {
    damage_every_position("CAS");
}

#[test]
fn visits_come_in_epoch_order_on_the_calling_thread() {
    let (layout, snaps) = trace();
    for (backend, fw) in warehouses(&layout, &snaps) {
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        fw.scan_rows(
            EpochId(FIRST),
            EpochId(LAST),
            TableKind::Cdr,
            &mut |epoch, _| {
                assert_eq!(std::thread::current().id(), caller, "{backend}");
                seen.push(epoch.0);
            },
        );
        assert_eq!(seen, (FIRST..=LAST).collect::<Vec<_>>(), "{backend}");
    }
}

#[test]
fn a_cancel_before_epoch_k_serves_exactly_the_first_k() {
    let (layout, snaps) = trace();
    let n = snaps.len();
    for (backend, fw) in warehouses(&layout, &snaps) {
        for k in 0..=n {
            let cancel = obs::CancelFlag::new();
            let _budget = obs::budget::begin(None, cancel.clone());
            if k == 0 {
                cancel.cancel();
            }
            let mut visited = Vec::new();
            fw.scan_rows(
                EpochId(FIRST),
                EpochId(LAST),
                TableKind::Nms,
                &mut |epoch, _| {
                    visited.push(epoch.0);
                    if visited.len() == k {
                        cancel.cancel();
                    }
                },
            );
            let first_k: Vec<u32> = (FIRST..FIRST + k as u32).collect();
            assert_eq!(visited, first_k, "{backend}, cancel before epoch {k}");
        }
        // A query under a spent budget reads nothing and serves nothing.
        let q = Query::new(&["upflux"], BoundingBox::everything())
            .with_window(EpochId(FIRST), EpochId(LAST));
        let cancel = obs::CancelFlag::new();
        cancel.cancel();
        let _budget = obs::budget::begin(None, cancel);
        let reads = fw.store().dfs().metrics().reads;
        let QueryResult::Partial { coverage, .. } = fw.query(&q) else {
            panic!("{backend}: expected a partial answer");
        };
        assert_eq!((coverage.served, coverage.unavailable), (0, n as u32));
        assert_eq!(fw.store().dfs().metrics().reads, reads, "{backend}");
    }

    // The exact branch's loop over read-ahead reads of one and of two
    // pieces an epoch: a cancel armed before epoch `k` cuts the window off
    // there, whatever the helper had read ahead.
    let epochs: Vec<EpochId> = (0..8).map(EpochId).collect();
    for pieces in [1, 2] {
        for k in 0..=epochs.len() {
            let cancel = obs::CancelFlag::new();
            let _budget = obs::budget::begin(None, cancel.clone());
            if k == 0 {
                cancel.cancel();
            }
            let mut out = empty_result();
            let run = read_ahead(
                &epochs,
                pieces,
                |epoch| epoch.0,
                |&n, p| n * 10 + p as u32,
                |reads| {
                    let mut served = 0;
                    let reach = |epoch: EpochId, out: &mut ExactResult| {
                        let (read_epoch, n, decoded) = reads.next().expect("a read per epoch");
                        assert_eq!((read_epoch, n), (epoch, epoch.0));
                        let want: Vec<u32> = (0..pieces as u32).map(|p| n * 10 + p).collect();
                        assert_eq!(decoded, want);
                        out.epochs_read += 1;
                        served += 1;
                        if served == k {
                            cancel.cancel();
                        }
                        true
                    };
                    run_exact(&epochs, &mut out, reach, |_| Ok::<(), ()>(())).unwrap()
                },
            );
            let c = run.coverage;
            let what = format!("{pieces} pieces, cancel before {k}");
            assert_eq!((c.served, out.epochs_read), (k as u32, k), "{what}");
            assert_eq!(c.served + c.unavailable, c.requested);
            assert_eq!(run.cut_off, (epochs.len() - k) as u32);
        }
    }
}

/// A cancel between an epoch's two pieces: the helper decodes the first
/// piece of epoch `k` and, while it does, the scan — done with the `k`
/// epochs before — cancels and stops at its checkpoint. The scan serves
/// exactly those `k`, and the helper claims nothing more, so the second
/// piece of epoch `k` is never decoded on it.
#[test]
fn a_cancel_between_an_epochs_pieces_serves_exactly_the_earlier_epochs() {
    let epochs: Vec<EpochId> = (0..8).map(EpochId).collect();
    for k in 0..epochs.len() as u32 {
        let cancel = obs::CancelFlag::new();
        let _budget = obs::budget::begin(None, cancel.clone());
        let caller = std::thread::current().id();
        let on_helper = Mutex::new(Vec::new());
        let served = read_ahead(
            &epochs,
            2,
            |epoch| epoch.0,
            |&n, p| {
                if std::thread::current().id() != caller {
                    on_helper.lock().unwrap().push((n, p));
                    if (n, p) == (k, 0) {
                        wait_until(|| cancel.is_cancelled(), "the scan cancels");
                    }
                }
                n
            },
            |reads| {
                let mut served = Vec::new();
                while served.len() < k as usize {
                    let (epoch, ..) = reads.next().expect("an epoch before the cancel");
                    served.push(epoch.0);
                }
                cancel.cancel();
                assert!(obs::budget::interrupted().is_some());
                // Time for the helper to finish the piece it holds and,
                // were it not to check the budget, to claim the next.
                std::thread::sleep(Duration::from_millis(10));
                served
            },
        );
        assert_eq!(served, (0..k).collect::<Vec<_>>(), "cancel before {k}");
        let on_helper = on_helper.into_inner().unwrap();
        if on_helper.contains(&(k, 0)) {
            assert!(
                !on_helper.contains(&(k, 1)),
                "cancel before {k}: {on_helper:?}"
            );
        }
    }
}

/// Poll `done` until it holds, or panic naming `what` after [`HANG`].
fn wait_until(done: impl Fn() -> bool, what: &str) {
    let start = std::time::Instant::now();
    while !done() {
        assert!(start.elapsed() < HANG, "{what}: not within the hang bound");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn empty_result() -> ExactResult {
    let q = Query::new(&[], BoundingBox::everything());
    let layout = TraceGenerator::new(TraceConfig::tiny()).layout().clone();
    spate::core::query::RowPlan::new(&q, &layout).empty_result()
}

/// Run `scan` on a thread of its own and wait at most [`HANG`] for it.
fn within_hang_bound<R: Send + 'static>(
    scan: impl FnOnce() -> R + Send + 'static,
) -> std::thread::Result<R> {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(scan)));
    });
    finished.recv_timeout(HANG).expect("the scan hung")
}

/// A window of eight epochs whose fetch reports, from the helper, every
/// epoch it fetches on `helped`, and panics on the helper's fetch of
/// `panic_at`. The scan takes nothing until the helper has fetched the
/// first [`READ_AHEAD_SLOTS`] epochs, then everything.
fn helper_first(panic_at: Option<u32>) -> std::thread::Result<Vec<(EpochId, u32)>> {
    within_hang_bound(move || {
        let epochs: Vec<EpochId> = (0..8).map(EpochId).collect();
        let caller = std::thread::current().id();
        let (helped, fetched) = mpsc::channel::<u32>();
        let helped = Mutex::new(helped);
        read_ahead(
            &epochs,
            1,
            |epoch| {
                if std::thread::current().id() != caller {
                    helped.lock().unwrap().send(epoch.0).unwrap();
                    assert_ne!(Some(epoch.0), panic_at, "a read panics on the helper");
                }
                epoch.0
            },
            |&n, _| n * 10,
            |reads| {
                for _ in 0..READ_AHEAD_SLOTS {
                    fetched.recv_timeout(HANG).expect("the helper reads ahead");
                }
                reads
                    .map(|(epoch, _, decoded)| (epoch, decoded[0]))
                    .collect()
            },
        )
    })
}

#[test]
fn what_the_helper_read_is_lent_in_order_and_its_panic_reaches_the_caller() {
    let lent = helper_first(None).expect("no read panics");
    let want: Vec<(EpochId, u32)> = (0..8).map(|e| (EpochId(e), e * 10)).collect();
    assert_eq!(lent, want);

    // The helper's read of epoch 2 panics: the scan sees 0 and 1, then
    // the panic, on its own thread, within the hang bound.
    let panic = helper_first(Some(2)).expect_err("the helper's panic reaches the scan");
    let message = panic.downcast_ref::<String>().expect("a formatted panic");
    assert!(message.contains("a read panics on the helper"), "{message}");

    // A decode that panics, on whichever thread reads its epoch: the
    // scan has every epoch before it, then the panic.
    let scanned = Arc::new(Mutex::new(Vec::new()));
    let seen = scanned.clone();
    let panic = within_hang_bound(move || {
        let epochs: Vec<EpochId> = (0..8).map(EpochId).collect();
        read_ahead(
            &epochs,
            1,
            |epoch| epoch.0,
            |&n, _| {
                assert_ne!(n, 5, "a decode panics");
                n
            },
            |reads| reads.for_each(|(epoch, ..)| seen.lock().unwrap().push(epoch.0)),
        )
    });
    assert!(panic.is_err());
    assert_eq!(*scanned.lock().unwrap(), [0, 1, 2, 3, 4]);
}

/// The thread a schedule forces a piece onto.
#[derive(Clone, Copy, Debug, PartialEq)]
enum On {
    /// The scan takes nothing until the helper has decoded the piece.
    Helper,
    /// The helper's first piece, one of the window's first two, waits
    /// until this thread has decoded it, and this thread decodes nothing
    /// before the helper holds that first piece.
    Caller,
}

/// Read a window of eight epochs of two pieces each whose piece `piece`
/// of epoch `at` panics, decoded where `on` forces it: the epochs the
/// scan was lent, and the panic it met.
fn piece_panics(at: u32, piece: usize, on: On) -> (Vec<u32>, String) {
    let scanned = Arc::new(Mutex::new(Vec::new()));
    let seen = scanned.clone();
    let outcome = within_hang_bound(move || {
        let epochs: Vec<EpochId> = (0..8).map(EpochId).collect();
        let caller = std::thread::current().id();
        let (started, reached) = (AtomicBool::new(false), AtomicBool::new(false));
        read_ahead(
            &epochs,
            2,
            |epoch| epoch.0,
            |&n, p| {
                let on_helper = std::thread::current().id() != caller;
                started.fetch_or(on_helper, Ordering::SeqCst);
                if (n, p) == (at, piece) {
                    assert_eq!(
                        on_helper,
                        on == On::Helper,
                        "the piece is decoded where forced"
                    );
                    reached.store(true, Ordering::SeqCst);
                    panic!("piece {p} of epoch {n} panics");
                }
                if on == On::Caller && on_helper {
                    wait_until(|| reached.load(Ordering::SeqCst), "the caller's piece");
                } else if on == On::Caller {
                    wait_until(
                        || started.load(Ordering::SeqCst),
                        "the helper's first piece",
                    );
                }
                n * 10 + p as u32
            },
            |reads| {
                if on == On::Helper {
                    wait_until(|| reached.load(Ordering::SeqCst), "the helper's piece");
                }
                for (epoch, n, decoded) in reads {
                    assert_eq!(decoded, [n * 10, n * 10 + 1]);
                    seen.lock().unwrap().push(epoch.0);
                }
            },
        )
    });
    let panic = outcome.expect_err("the piece's panic reaches the scan");
    let message = panic.downcast_ref::<String>().expect("a formatted panic");
    let seen = scanned.lock().unwrap().clone();
    (seen, message.clone())
}

/// A panic in either table's piece, forced onto either thread, reaches
/// the scan at its epoch, on the scan's thread: every epoch before it is
/// lent whole, none after. The helper reads ahead of a scan that waits
/// from the window's first piece; the caller, while the helper's first
/// piece is held back, decodes ahead through the slots' last epoch.
#[test]
fn a_panic_in_either_piece_on_either_thread_reaches_the_scan_at_its_epoch() {
    let last = READ_AHEAD_SLOTS as u32 - 1;
    let schedules = [
        (0, On::Helper),
        (1, On::Helper),
        (last, On::Helper),
        (1, On::Caller),
        (last, On::Caller),
    ];
    for piece in 0..2 {
        for (at, on) in schedules {
            let (seen, message) = piece_panics(at, piece, on);
            let what = format!("piece {piece} of epoch {at} on the {on:?}");
            assert_eq!(seen, (0..at).collect::<Vec<_>>(), "{what}");
            let want = format!("piece {piece} of epoch {at} panics");
            assert!(message.contains(&want), "{what}: {message}");
        }
    }
}

#[test]
fn a_served_request_that_panics_is_still_isolated() {
    let (layout, snaps) = trace();
    let mut fw = SpateFramework::in_memory(layout);
    for s in &snaps {
        fw.ingest(s);
    }
    let config = ServeConfig {
        chaos_poison: true,
        ..ServeConfig::default()
    };
    let server = Server::start(fw, config);
    let mut client = server.connect();
    let window = (FIRST, LAST);
    let poison = client.explore(&[CHAOS_PANIC_ATTRIBUTE], BoundingBox::everything(), window);
    assert!(
        matches!(poison, Ok(Reply::ServerError { .. })),
        "{poison:?}"
    );
    let healthy = client.explore(&["upflux"], BoundingBox::everything(), window);
    assert!(matches!(healthy, Ok(Reply::Rows { .. })), "{healthy:?}");
    assert_eq!(server.shutdown().panics, 1);
}

#[test]
fn no_more_than_the_slots_are_read_and_not_yet_lent() {
    let epochs: Vec<EpochId> = (0..40).map(EpochId).collect();
    // A patient scan lets the helper read as far ahead as it may first.
    // Epochs of no piece (a CAS scan of no table) are fetched alone.
    for (pieces, patient) in [(0, false), (1, false), (1, true), (2, false), (2, true)] {
        let (started, lent, most) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        let caller: ThreadId = std::thread::current().id();
        let (helped, decoded) = mpsc::channel::<()>();
        let helped = Mutex::new(helped);
        let scanned = read_ahead(
            &epochs,
            pieces,
            |epoch| {
                let started = started.fetch_add(1, Ordering::SeqCst) + 1;
                most.fetch_max(started - lent.load(Ordering::SeqCst), Ordering::SeqCst);
                epoch
            },
            |&epoch, p| {
                if std::thread::current().id() != caller && p + 1 == pieces {
                    let _ = helped.lock().unwrap().send(());
                }
                (epoch, p)
            },
            |reads| {
                if patient {
                    for _ in 0..READ_AHEAD_SLOTS {
                        decoded.recv_timeout(HANG).expect("the helper reads ahead");
                    }
                }
                let mut scanned = Vec::new();
                for (epoch, fetched, read) in reads {
                    assert_eq!(epoch, fetched);
                    assert_eq!(read, (0..pieces).map(|p| (epoch, p)).collect::<Vec<_>>());
                    lent.fetch_add(1, Ordering::SeqCst);
                    scanned.push(epoch);
                }
                scanned
            },
        );
        let what = format!("{pieces} pieces, patient: {patient}");
        assert_eq!(scanned, epochs, "{what}");
        assert_eq!(
            started.into_inner(),
            epochs.len(),
            "{what}: every epoch fetched once"
        );
        let most = most.into_inner();
        assert!(
            most <= READ_AHEAD_SLOTS,
            "{what}: {most} read and not yet lent"
        );
        if patient {
            assert_eq!(most, READ_AHEAD_SLOTS, "{what}");
        }
    }
}

/// Fetches run once an epoch, in window order, whichever thread claims
/// them: over every window of 1 to 8 epochs, a query over both tables and
/// T2 over CDR alone issue the dfs reads the window read one epoch at a
/// time issues.
#[test]
fn a_window_reads_the_dfs_as_one_epoch_at_a_time_does() {
    let (layout, snaps) = trace();
    let q = Query::new(&["upflux", "call_drops"], BoundingBox::everything());
    for (backend, fw) in warehouses(&layout, &snaps) {
        let one_at_a_time = OneEpochAtATime(&fw);
        let reads = |read: &dyn Fn()| {
            let before = fw.store().dfs().metrics().reads;
            read();
            fw.store().dfs().metrics().reads - before
        };
        for len in 1..=snaps.len() as u32 {
            let (start, end) = (EpochId(FIRST), EpochId(FIRST + len - 1));
            let q = q.clone().with_window(start, end);
            let what = format!("{backend}, {len} epochs");
            let whole = reads(&|| assert!(fw.query(&q).is_exact()));
            assert!(whole >= u64::from(len), "{what}");
            assert_eq!(whole, reads(&|| drop(one_at_a_time.query(&q))), "{what}");
            let whole = reads(&|| drop(tasks::t2_range(&fw, start, end)));
            let pieced = reads(&|| drop(tasks::t2_range(&one_at_a_time, start, end)));
            assert_eq!(whole, pieced, "{what}, T2");
        }
    }
}

/// The helper joins a read from its second piece on, once: a one-epoch
/// Path window is one piece and spawns none, a one-epoch CAS query over
/// both tables is two and spawns exactly one. Each spawn is the helper's
/// `read-ahead` event in the caller's trace.
#[test]
fn a_read_spawns_its_helper_from_the_second_piece_on() {
    let (layout, snaps) = trace();
    let both = Query::new(&["upflux", "call_drops"], BoundingBox::everything());
    let cdr = Query::new(&["upflux"], BoundingBox::everything());
    let mut trace_id = 0x0E90_C400u64;
    for (backend, fw) in warehouses(&layout, &snaps) {
        let cas = fw.store().cas().is_some();
        let fw = &fw;
        let mut helpers = |read: &dyn Fn()| {
            trace_id += 1;
            let trace = obs::trace::begin(trace_id);
            read();
            named(&trace.finish(), "read-ahead")
        };
        let query = |q: &Query, len: u32| {
            let window = q
                .clone()
                .with_window(EpochId(FIRST), EpochId(FIRST + len - 1));
            move || assert!(fw.query(&window).is_exact())
        };
        // (what, the read, helpers on Path, helpers on CAS)
        let cases: [(&str, &dyn Fn(), usize, usize); 6] = [
            ("one epoch, both tables", &query(&both, 1), 0, 1),
            ("one epoch, CDR", &query(&cdr, 1), 0, 0),
            ("two epochs, CDR", &query(&cdr, 2), 1, 1),
            ("eight epochs, both tables", &query(&both, 8), 1, 1),
            (
                "load",
                &|| assert!(fw.load_epoch(EpochId(FIRST)).is_some()),
                0,
                1,
            ),
            (
                "T2 of one epoch",
                &|| drop(tasks::t2_range(fw, EpochId(FIRST), EpochId(FIRST))),
                0,
                0,
            ),
        ];
        for (what, read, path, on_cas) in cases {
            let want = if cas { on_cas } else { path };
            assert_eq!(helpers(read), want, "{backend}: {what}");
        }
    }
}

/// How many events of `events` are named `name`.
fn named(events: &[SpanEvent], name: &str) -> usize {
    events.iter().filter(|e| e.name == name).count()
}

/// The whole request context reaches the helper: a query over a day of
/// epochs, run under a trace, a shard scope and a cost profile, records
/// every span and event in the caller's trace, hanging under the caller's
/// span through parents inside the trace, every span labelled with the
/// caller's shard (an instant under a labelled span) and filed in the
/// flame table under the caller's path; and it records as many `dfs.read`
/// and `decompress` spans as the day queried one epoch at a time, which
/// no helper reads.
#[test]
fn a_read_ahead_query_is_traced_as_one_epoch_at_a_time_is() {
    let mut generator = TraceGenerator::new(TraceConfig::scaled(1.0 / 2048.0));
    let layout = generator.layout().clone();
    let snaps: Vec<Snapshot> = generator.by_ref().take(24).collect();
    let last = snaps.len() as u32 - 1;
    let q = Query::new(&["upflux", "call_drops"], BoundingBox::everything());
    for (trace_id, (backend, fw)) in (0x5EAD_0000u64..)
        .step_by(2)
        .zip(warehouses(&layout, &snaps))
    {
        let caller = format!("test.read_ahead.caller.{backend}");
        let traced = |trace_id: u64, windows: &[(u32, u32)]| {
            let trace = obs::trace::begin(trace_id);
            let _shard = obs::shard::enter(3);
            let _cost = obs::cost::begin(trace_id);
            let span = obs::span(&caller);
            for &(start, end) in windows {
                let window = q.clone().with_window(EpochId(start), EpochId(end));
                assert!(fw.query(&window).is_exact(), "{backend}");
            }
            drop(span);
            trace.finish()
        };
        let whole = traced(trace_id, &[(0, last)]);
        let one_at_a_time: Vec<(u32, u32)> = (0..=last).map(|e| (e, e)).collect();
        let pieced = traced(trace_id + 1, &one_at_a_time);

        let by_id: BTreeMap<u64, &SpanEvent> = whole.iter().map(|e| (e.span_id, e)).collect();
        let root = whole
            .iter()
            .find(|e| e.name == caller)
            .expect("the caller's span");
        let shard = ("shard".to_string(), "3".to_string());
        for event in &whole {
            let mut up = event;
            while up.span_id != root.span_id {
                up = by_id
                    .get(&up.parent_id)
                    .unwrap_or_else(|| panic!("{backend}: {} hangs outside the trace", event.name));
            }
            let span = match event.kind {
                EventKind::Span => event,
                EventKind::Instant => by_id[&event.parent_id],
            };
            assert!(span.args.contains(&shard), "{backend}: {}", event.name);
        }
        let filed: u64 = obs::global()
            .spans_snapshot()
            .iter()
            .filter(|(path, _)| path.starts_with(&format!("{caller};")))
            .filter(|(path, _)| path.ends_with(";dfs.read"))
            .map(|(_, stats)| stats.calls.load(Ordering::Relaxed))
            .sum();
        assert_eq!(
            filed as usize,
            named(&whole, "dfs.read") + named(&pieced, "dfs.read")
        );

        assert!(named(&whole, "dfs.read") > last as usize, "{backend}");
        for name in ["dfs.read", "decompress"] {
            assert_eq!(
                named(&whole, name),
                named(&pieced, name),
                "{backend}: {name}"
            );
        }
    }
}

#[test]
fn a_profiled_query_costs_what_it_costs_one_epoch_at_a_time() {
    let (layout, snaps) = trace();
    for (backend, fw) in warehouses(&layout, &snaps) {
        let q = Query::new(&["upflux", "call_drops"], BoundingBox::everything())
            .with_window(EpochId(FIRST), EpochId(LAST));
        let (result, whole) = profile_query(&fw, &q);
        let mut pieced = obs::CostProfile::new(whole.trace_id);
        for epoch in (FIRST..=LAST).map(EpochId) {
            pieced.merge(&profile_query(&fw, &q.clone().with_window(epoch, epoch)).1);
        }
        // Every field but the clock ones.
        let untimed = |p: &obs::CostProfile| {
            let mut p = p.clone();
            p.stage_ns.clear();
            p.total_ns = 0;
            p
        };
        assert!(result.is_exact(), "{backend}");
        assert_eq!(untimed(&whole), untimed(&pieced), "{backend}");
        assert!(whole.reconciles(), "{backend}");
        assert_eq!(whole.epochs_touched.len(), snaps.len(), "{backend}");
        assert!(whole.stage_ns.contains_key("read"), "{backend}");
    }
}
