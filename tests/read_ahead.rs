//! The read-ahead contract (`core::storage::read_ahead`). A window of
//! `READ_AHEAD_MIN` epochs or more is read by the caller and a helper
//! thread claiming from one cursor, and scanned in epoch order on the
//! caller's thread; the answers must be the ones a scan of one epoch at a
//! time gives, whichever thread read which epoch — also when a leaf is
//! missing or damaged, when the budget runs out mid-window, or when a read
//! panics. Every warehouse case runs on the Path and the CAS backend; a
//! CAS store refuses to put damaged text, so its epochs are damaged at
//! rest.

use cas::CasStore;
use obs::{EventKind, SpanEvent};
use spate::core::framework::{ExplorationFramework, IngestStats, SpaceReport, SpateFramework};
use spate::core::query::{profile_query, run_exact, Coverage, ExactResult, Query, QueryResult};
use spate::core::storage::{read_ahead, SnapshotStore, READ_AHEAD_MIN, READ_AHEAD_SLOTS};
use spate::core::tasks;
use spate::dfs::Dfs;
use spate::serve::{Reply, ServeConfig, Server, CHAOS_PANIC_ATTRIBUTE};
use spate::sql::SqlContext;
use spate::trace::cells::BoundingBox;
use spate::trace::schema::TableKind;
use spate::trace::time::EpochId;
use spate::trace::{CellLayout, Snapshot, TraceConfig, TraceGenerator};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
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

/// `fw` scanning one epoch at a time: no window it reads is long enough
/// for a helper, so every read happens on the calling thread.
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

/// A missing, truncated or misfiled leaf at every position of windows of
/// 3 to 8 epochs: wherever it falls — first, last, read by the caller or
/// by the helper — every answer equals the one-epoch-at-a-time answer.
/// On CAS a truncated leaf is a truncated pack, and a misfiled one holds
/// the neighbour's manifest and pack.
fn damage_every_position(backend: &str) {
    assert_eq!((READ_AHEAD_MIN, READ_AHEAD_SLOTS), (4, 4));
    let (layout, snaps) = trace();
    let warehouses = warehouses(&layout, &snaps);
    let (_, fw) = warehouses
        .iter()
        .find(|(name, _)| *name == backend)
        .unwrap();
    // Windows from one short of the read-ahead to the whole warehouse.
    for len in 3..=snaps.len() {
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
            // neighbour.
            let truncated = &text[..nms - 10];
            let neighbour = &snaps[(at + 1) % snaps.len()];
            let misfiled = neighbour.to_bytes();
            // The leaf's text, and whose files a CAS epoch takes instead.
            let damages = [
                ("missing", None, None),
                ("truncated", Some(truncated), None),
                ("misfiled", Some(misfiled.as_slice()), Some(neighbour.epoch)),
            ];
            for (damage, leaf, from) in damages {
                match (fw.store().cas(), leaf) {
                    (Some(cas), Some(leaf)) => {
                        assert!(cas.put_epoch(snap.epoch.0, leaf).is_err(), "{damage}");
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

    // The exact branch's loop over read-ahead reads: a cancel armed
    // before epoch `k` cuts the window off there, whatever the helper
    // had read ahead.
    let epochs: Vec<EpochId> = (0..8).map(EpochId).collect();
    for k in 0..=epochs.len() {
        let cancel = obs::CancelFlag::new();
        let _budget = obs::budget::begin(None, cancel.clone());
        if k == 0 {
            cancel.cancel();
        }
        let mut out = empty_result();
        let run = read_ahead(
            &epochs,
            |epoch| epoch.0,
            |_, n| n,
            |reads| {
                let mut served = 0;
                let reach = |epoch: EpochId, out: &mut ExactResult| {
                    let (read_epoch, n) = reads.next().expect("a read per epoch");
                    assert_eq!((read_epoch, n), (epoch, epoch.0));
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
        assert_eq!(
            (c.served, out.epochs_read),
            (k as u32, k),
            "cancel before {k}"
        );
        assert_eq!(c.served + c.unavailable, c.requested);
        assert_eq!(run.cut_off, (epochs.len() - k) as u32);
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
        let helped = std::sync::Mutex::new(helped);
        read_ahead(
            &epochs,
            |epoch| {
                if std::thread::current().id() != caller {
                    helped.lock().unwrap().send(epoch.0).unwrap();
                    assert_ne!(Some(epoch.0), panic_at, "a read panics on the helper");
                }
                epoch.0
            },
            |_, n| n * 10,
            |reads| {
                for _ in 0..READ_AHEAD_SLOTS {
                    fetched.recv_timeout(HANG).expect("the helper reads ahead");
                }
                reads.collect()
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
    let scanned = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let seen = scanned.clone();
    let panic = within_hang_bound(move || {
        let epochs: Vec<EpochId> = (0..8).map(EpochId).collect();
        read_ahead(
            &epochs,
            |epoch| epoch.0,
            |epoch, n| {
                assert_ne!(epoch.0, 5, "a decode panics");
                n
            },
            |reads| reads.for_each(|(epoch, _)| seen.lock().unwrap().push(epoch.0)),
        )
    });
    assert!(panic.is_err());
    assert_eq!(*scanned.lock().unwrap(), [0, 1, 2, 3, 4]);
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
    for patient in [false, true] {
        let (started, lent, most) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        let caller: ThreadId = std::thread::current().id();
        let (helped, fetched) = mpsc::channel::<()>();
        let helped = std::sync::Mutex::new(helped);
        let scanned = read_ahead(
            &epochs,
            |epoch| {
                let started = started.fetch_add(1, Ordering::SeqCst) + 1;
                most.fetch_max(started - lent.load(Ordering::SeqCst), Ordering::SeqCst);
                if std::thread::current().id() != caller {
                    let _ = helped.lock().unwrap().send(());
                }
                epoch
            },
            |_, epoch| epoch,
            |reads| {
                if patient {
                    for _ in 0..READ_AHEAD_SLOTS {
                        fetched.recv_timeout(HANG).expect("the helper reads ahead");
                    }
                }
                let mut scanned = Vec::new();
                for (epoch, read) in reads {
                    assert_eq!(epoch, read);
                    lent.fetch_add(1, Ordering::SeqCst);
                    scanned.push(epoch);
                }
                scanned
            },
        );
        assert_eq!(scanned, epochs);
        assert_eq!(started.into_inner(), epochs.len(), "every epoch read once");
        let most = most.into_inner();
        assert!(most <= READ_AHEAD_SLOTS, "{most} read and not yet lent");
        if patient {
            assert_eq!(most, READ_AHEAD_SLOTS);
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
            let _trace = obs::trace::begin(trace_id);
            let _shard = obs::shard::enter(3);
            let _cost = obs::cost::begin(trace_id);
            let _caller = obs::span(&caller);
            for &(start, end) in windows {
                let window = q.clone().with_window(EpochId(start), EpochId(end));
                assert!(fw.query(&window).is_exact(), "{backend}");
            }
        };
        traced(trace_id, &[(0, last)]);
        let whole = obs::flight().trace(trace_id);
        let one_at_a_time: Vec<(u32, u32)> = (0..=last).map(|e| (e, e)).collect();
        traced(trace_id + 1, &one_at_a_time);
        let pieced = obs::flight().trace(trace_id + 1);

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
