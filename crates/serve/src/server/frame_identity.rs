//! Frame identity of the explore stream. [`stream_epochs`] lends each
//! cached epoch's selected rows straight into row chunk frames; the path
//! it replaced — project the epoch into owned rows
//! ([`RowPlan::project`]), encode those, clear them — stays here as its
//! oracle. For one request the two must write the same bytes in the same
//! writes, stream the same row count and cost the same.

use super::*;
use crate::proto::CHUNK_ROWS;
use spate_core::query::ExactResult;
use telco_trace::{TraceConfig, TraceGenerator};

/// One write: the thread that made it, and its bytes.
type Write = (std::thread::ThreadId, Vec<u8>);

/// An endpoint's inbound bytes as they were written, one entry a write.
#[derive(Clone, Default)]
pub(super) struct Tap(Arc<Mutex<Vec<Write>>>);

impl Tap {
    /// Take `ep`'s inbound bytes from now on; call before the peer writes.
    pub(super) fn on(ep: &Endpoint) -> Self {
        let tap = Tap::default();
        ep.deliver_to(Box::new(tap.clone()));
        tap
    }

    pub(super) fn writes(&self) -> Vec<Vec<u8>> {
        lock_sane(&self.0).iter().map(|(_, w)| w.clone()).collect()
    }

    /// Whether every write so far came from the calling thread.
    fn written_here(&self) -> bool {
        let here = std::thread::current().id();
        lock_sane(&self.0).iter().all(|(writer, _)| *writer == here)
    }
}

impl ByteSink for Tap {
    fn on_bytes(&self, bytes: &[u8]) {
        lock_sane(&self.0).push((std::thread::current().id(), bytes.to_vec()));
    }

    fn on_close(&self) {}
}

/// The frames in `bytes`, which must hold whole frames only.
pub(super) fn frames_in(mut bytes: &[u8]) -> Vec<Response> {
    let mut frames = Vec::new();
    while !bytes.is_empty() {
        let (kind, payload, used) = parse_frame(bytes).expect("whole frames");
        frames.push(Response::decode(kind, payload).expect("a well-formed frame"));
        bytes = &bytes[used..];
    }
    frames
}

/// The stream path before rows were lent, kept as the oracle: each
/// epoch's selected rows projected into owned rows, pushed, cleared.
fn stream_materialised(
    shared: &Shared,
    ep: &Endpoint,
    id: u64,
    q: &Query,
    epochs: &[EpochId],
    mut resolve: impl FnMut(EpochId) -> Option<Arc<Snapshot>>,
) -> Result<(), TransportError> {
    let rows = RowPlan::new(q, shared.shards.layout());
    let mut part = rows.empty_result();
    let mut out = FrameBatch::new(ep);
    out.push(&Response {
        id,
        body: ResponseBody::Header {
            tables: vec![
                TableHeader {
                    name: "CDR".into(),
                    columns: std::mem::take(&mut part.cdr.column_names),
                },
                TableHeader {
                    name: "NMS".into(),
                    columns: std::mem::take(&mut part.nms.column_names),
                },
            ],
        },
    })?;
    let mut total = 0u64;
    let reach = |epoch, part: &mut ExactResult| {
        let snapshot = resolve(epoch);
        snapshot.map(|s| rows.project(&s, part)).is_some()
    };
    let run = run_exact(epochs, &mut part, reach, |part| {
        total += part.row_count() as u64;
        for (table, slice) in [(0u8, &mut part.cdr), (1u8, &mut part.nms)] {
            out.push_rows(id, table, &slice.rows)?;
            slice.rows.clear();
        }
        Ok::<(), TransportError>(())
    })?;
    if !run.coverage.is_complete() {
        out.push(&Response {
            id,
            body: ResponseBody::Coverage {
                requested: run.coverage.requested,
                served: run.coverage.served,
                decayed: run.coverage.decayed,
                unavailable: run.coverage.unavailable,
            },
        })?;
    }
    shared.stats.rows_streamed.add(total);
    out.push(&Response {
        id,
        body: ResponseBody::Done { rows: total },
    })?;
    out.flush()
}

/// What one stream path did for one request.
#[derive(Debug, PartialEq)]
struct Answer {
    writes: Vec<Vec<u8>>,
    rows_streamed: u64,
    /// The request's cost profile, its wall-clock fields zeroed.
    cost: CostProfile,
}

/// Stream `q` over `epochs` with the lending path or the oracle, under a
/// budget that is cancelled while the `cancel_at`-th epoch (1-based) is
/// reached: the checkpoint before the next epoch stops the scan.
fn answer(
    shared: &Shared,
    q: &Query,
    epochs: &[EpochId],
    cancel_at: Option<usize>,
    lend: bool,
) -> Answer {
    let (client, server) = duplex();
    let tap = Tap::on(&client);
    let cancel = CancelFlag::new();
    let _budget = obs::budget::begin(None, cancel.clone());
    let cost = obs::cost::begin(0);
    let before = shared.stats.rows_streamed.get();
    let mut reached = 0;
    let resolve = |epoch| {
        reached += 1;
        if cancel_at == Some(reached) {
            cancel.cancel();
        }
        resolve_epoch(shared, epoch, false)
    };
    let sent = if lend {
        stream_epochs(shared, &server, 7, q, epochs, resolve)
    } else {
        stream_materialised(shared, &server, 7, q, epochs, resolve)
    };
    sent.expect("a tapped endpoint takes every write");
    let mut cost = cost.finish();
    cost.total_ns = 0;
    cost.stage_ns.clear();
    Answer {
        writes: tap.writes(),
        rows_streamed: shared.stats.rows_streamed.get() - before,
        cost,
    }
}

/// Epochs ingested by the fixture; the last one is the gap.
const EPOCHS: u32 = 28;
/// The epoch shard 1 no longer holds.
const GAP: u32 = EPOCHS - 1;

/// A two-shard server over the first [`EPOCHS`] epochs of a 1/128 trace,
/// with [`GAP`] evicted from shard 1 alone.
fn fixture() -> Server {
    let mut generator = TraceGenerator::new(TraceConfig::scaled(1.0 / 128.0).with_days(1));
    let shards = ShardedSpate::in_memory(generator.layout().clone(), 2);
    let server = Server::start_sharded(shards, ServeConfig::default());
    for snapshot in generator.by_ref().take(EPOCHS as usize) {
        server.ingest(&snapshot);
    }
    let freed = server.shared.shards.read(1).store().evict(EpochId(GAP));
    assert!(freed.unwrap() > 0, "shard 1 held its part of the gap");
    server
}

#[test]
fn a_lent_stream_writes_what_the_materialising_stream_wrote() {
    let server = fixture();
    let shared = &server.shared;
    let everything = BoundingBox::everything();
    let layout = shared.shards.layout();
    let site = layout.get(layout.cells_in(&everything)[0]);
    let near = BoundingBox::new(
        site.x_m - 3_000.0,
        site.y_m - 3_000.0,
        site.x_m + 3_000.0,
        site.y_m + 3_000.0,
    );
    let empty = BoundingBox::new(-2e9, -2e9, -1e9, -1e9);
    let both: &[&str] = &["upflux", "call_drops", "cell_id"];
    let wide: &[&str] = &["record_id", "ts_start", "tech", "ts", "rssi_dbm"];
    // What, attributes, box, window, cancelled while reaching epoch k.
    type Case<'a> = (
        &'a str,
        &'a [&'a str],
        BoundingBox,
        (u32, u32),
        Option<usize>,
    );
    #[rustfmt::skip]
    let cases: [Case; 10] = [
        ("one epoch", both, near, (5, 5), None),
        ("three epochs", both, near, (9, 11), None),
        ("24 epochs", both, everything, (0, 23), None),
        ("the empty box", both, empty, (2, 4), None),
        ("the everything box", wide, everything, (16, 18), None),
        ("no attribute of NMS", &["upflux"], everything, (3, 5), None),
        ("no attribute of CDR", &["call_drops"], everything, (3, 5), None),
        ("no attribute at all", &[], everything, (3, 5), None),
        ("an epoch one shard no longer holds", both, everything, (GAP - 2, GAP), None),
        ("a cancel before epoch 2", both, everything, (16, 21), Some(2)),
    ];
    for (what, attributes, bbox, window, cancel_at) in cases {
        let q = Query::new(attributes, bbox).with_epoch_range(window.0, window.1);
        let Plan::Exact(epochs) = shared.shards.plan(&q) else {
            panic!("{what}: an exact plan");
        };
        // Warm the cache, so both paths resolve every epoch alike.
        answer(shared, &q, &epochs, cancel_at, false);
        let want = answer(shared, &q, &epochs, cancel_at, false);
        let got = answer(shared, &q, &epochs, cancel_at, true);
        assert_eq!(got, want, "{what}");

        let frames = frames_in(&got.writes.concat());
        let coverage = frames.iter().find_map(|f| match f.body {
            ResponseBody::Coverage { served, .. } => Some(served),
            _ => None,
        });
        let partial = matches!(
            what,
            "an epoch one shard no longer holds" | "a cancel before epoch 2"
        );
        assert_eq!(coverage, partial.then_some(2), "{what}");
        let Some(ResponseBody::Done { rows }) = frames.last().map(|f| &f.body) else {
            panic!("{what}: the answer ends in Done");
        };
        assert_eq!(got.rows_streamed, *rows, "{what}");
        assert_eq!(got.cost.rows_returned, *rows, "{what}");
        let empty_answer = matches!(what, "the empty box" | "no attribute at all");
        assert_eq!(*rows == 0, empty_answer, "{what}: {rows} rows");
    }

    // The everything box selects more than a frame's rows of one table
    // in one epoch, so an epoch's table spans several frames.
    let busy = resolve_epoch(shared, EpochId(16), false).expect("cached");
    assert!(busy.table(TableKind::Nms).len() > CHUNK_ROWS);
    server.shutdown();
}

/// Send `request` on `client`, straight to a worker when `queue` (past
/// the intake and its warm check), and wait until it has settled.
/// Returns what it wrote and cost, and whether the answer was written on
/// the sending thread: by the intake.
fn settled(
    server: &Server,
    client: &ClientConn,
    tap: &Tap,
    request: &Request,
    queue: bool,
) -> (Answer, bool) {
    let shared = &server.shared;
    let trace_id = trace_id_for(client.conn_id, request.id);
    let before = shared.stats.rows_streamed.get();
    lock_sane(&tap.0).clear();
    let done = || {
        let frames = frames_in(&tap.writes().concat());
        matches!(frames.last(), Some(f) if f.body.is_terminal())
    };
    if queue {
        let job = Job {
            conn: client.conn_id,
            endpoint: lock_sane(&shared.sessions)[&client.conn_id]
                .endpoint
                .clone(),
            request: request.clone(),
            queued_at: Instant::now(),
            trace_id,
            cancel: CancelFlag::new(),
        };
        assert!(shared
            .queue
            .push(client.conn_id, Class::Interactive, job)
            .is_ok());
    } else {
        client.ep.send_request(request).unwrap();
    }
    let waited = Instant::now();
    while !done() {
        assert!(waited.elapsed() < Duration::from_secs(10), "no answer");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut cost = shared
        .requests
        .fence(trace_id, Duration::from_secs(10))
        .profile(trace_id)
        .cloned()
        .expect("a served request leaves its profile");
    cost.total_ns = 0;
    cost.stage_ns.clear();
    let answer = Answer {
        writes: tap.writes(),
        rows_streamed: shared.stats.rows_streamed.get() - before,
        cost,
    };
    (answer, tap.written_here())
}

/// A warm explore answered on the intake is the answer a worker gives
/// it: the same bytes in the same writes, the same rows, the same cost.
#[test]
fn an_inline_answer_is_the_queued_answer() {
    let server = fixture();
    let client = server.connect();
    let tap = Tap::on(&client.ep);
    let request = Request {
        id: 7,
        body: RequestBody::Explore {
            attributes: vec!["upflux".into(), "call_drops".into(), "cell_id".into()],
            bbox: (f64::MIN, f64::MIN, f64::MAX, f64::MAX),
            window: (16, 19),
            deadline_ms: 0,
        },
    };
    // Cold: queued, and its prefetch warms the epochs after the window.
    let (cold, inline) = settled(&server, &client, &tap, &request, false);
    assert!(!inline, "a cold window queues");
    assert_eq!(cold.cost.cache_misses, 4);

    let (on_intake, inline) = settled(&server, &client, &tap, &request, false);
    assert!(inline, "a warm window is answered by the intake");
    let (on_worker, inline) = settled(&server, &client, &tap, &request, true);
    assert!(!inline);
    assert_eq!(on_intake, on_worker);
    assert_eq!(on_intake.cost.rows(), on_worker.cost.rows());
    assert_eq!(on_intake.cost.cache_hits, 4);
    assert!(on_intake.rows_streamed > 0);
    client.close();
    server.shutdown();
}
