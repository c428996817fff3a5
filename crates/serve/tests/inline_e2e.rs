//! A warm interactive explore is answered on the connection's intake, on
//! the sending thread, and stays inside the bounds that make that safe:
//! it never waits for room in its own reply pipe, overtakes nothing that
//! is queued, keeps panic isolation, leaves the sender's request context
//! alone, and lets another thread's frames on the same connection
//! through.
//!
//! `serve.inline` is process-global, so the tests here take turns.

use spate_core::framework::{ExplorationFramework, SpateFramework};
use spate_serve::proto::errcode;
use spate_serve::transport::PIPE_CAPACITY;
use spate_serve::{
    ClientConn, Reply, Request, RequestBody, ResponseBody, ServeConfig, Server,
    CHAOS_PANIC_ATTRIBUTE,
};
use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex};
use std::time::Duration;
use telco_trace::cells::BoundingBox;
use telco_trace::schema::{Schema, TableKind};
use telco_trace::{TraceConfig, TraceGenerator};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn server_over(scale: f64, epochs: usize, config: ServeConfig) -> Server {
    let mut generator = TraceGenerator::new(TraceConfig::scaled(scale).with_days(1));
    let mut fw = SpateFramework::in_memory(generator.layout().clone());
    for snapshot in generator.by_ref().take(epochs) {
        fw.ingest(&snapshot);
    }
    Server::start(fw, config)
}

fn inline_count() -> u64 {
    obs::counter("serve.inline").get()
}

fn explore(attributes: &[String], window: (u32, u32)) -> RequestBody {
    RequestBody::Explore {
        attributes: attributes.to_vec(),
        bbox: (f64::MIN, f64::MIN, f64::MAX, f64::MAX),
        window,
        deadline_ms: 0,
    }
}

/// Read frames until `n` requests have ended; returns each request's
/// terminal frame and encoded answer bytes, by id.
fn read_answers(client: &ClientConn, n: usize) -> BTreeMap<u64, (ResponseBody, usize)> {
    let mut bytes: BTreeMap<u64, usize> = BTreeMap::new();
    let mut ended = BTreeMap::new();
    while ended.len() < n {
        let frame = client.recv_response().unwrap().expect("early hang-up");
        *bytes.entry(frame.id).or_default() += frame.encode().len();
        if frame.body.is_terminal() {
            ended.insert(frame.id, (frame.body, bytes[&frame.id]));
        }
    }
    ended
}

/// Eight warm explores pipelined without reading, each answer more than
/// the reply pipe holds. The first is answered on the intake, written
/// without waiting for room: the thread that would drain the pipe is the
/// one writing. The rest find its answer unread and queue. So the sends
/// return, and every answer then reads back whole.
#[test]
fn pipelined_warm_explores_past_the_pipe_capacity() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Every column of both tables.
    let attributes: Vec<String> = [TableKind::Cdr, TableKind::Nms]
        .into_iter()
        .map(Schema::shared)
        .flat_map(|schema| (0..schema.width()).map(|i| schema.column_name(i).to_string()))
        .collect();
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = server_over(1.0 / 64.0, 32, config);
    let mut client = server.connect();
    // Eight daytime epochs. Cold: queued. The same window again is a
    // zoom-in, with nothing to prefetch, so it is warm from here on.
    let window = (20, 27);
    let id = client.send(explore(&attributes, window)).unwrap();
    let rows = client.await_reply(id).unwrap().total_rows();
    assert!(rows > 0);

    let (inline, (admitted, shed)) = (inline_count(), server.admission_totals());
    let (sent_tx, sent_rx) = mpsc::channel();
    let sender = std::thread::spawn(move || {
        let ids: Vec<u64> = (0..8)
            .map(|_| client.send(explore(&attributes, window)).unwrap())
            .collect();
        let _ = sent_tx.send(());
        (client, ids)
    });
    sent_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a send waited for room in its own reply pipe");
    let (client, ids) = sender.join().unwrap();
    assert_eq!(
        inline_count() - inline,
        1,
        "only the first is answered inline"
    );
    assert_eq!(server.admission_totals(), (admitted + 8, shed));

    let answers = read_answers(&client, ids.len());
    assert_eq!(answers.keys().copied().collect::<Vec<_>>(), ids);
    for (body, bytes) in answers.values() {
        assert_eq!(*body, ResponseBody::Done { rows });
        assert!(*bytes > PIPE_CAPACITY, "{bytes} answer bytes");
    }
    client.close();
    let stats = server.shutdown();
    assert_eq!(stats.queries, 9);
    assert_eq!(stats.shed_overflow + stats.shed_deadline, 0);
}

/// A poison explore over a warm window panics on the intake, on the
/// sending thread. It is isolated there as on a worker: an `Error`
/// terminal frame, one more panic counted, and the next request
/// answered. The sender's own request context is neither the inline
/// request's nor touched by it: its open span closes under its own path,
/// its cost profile sees nothing of the request, and its cancelled
/// budget does not cut the request short.
#[test]
fn a_panic_on_the_intake_is_isolated_and_leaves_the_senders_context_alone() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let config = ServeConfig {
        chaos_poison: true,
        ..ServeConfig::default()
    };
    let server = server_over(1.0 / 2048.0, 6, config);
    let mut client = server.connect();
    let everything = BoundingBox::everything();
    let cold = client.explore(&["upflux"], everything, (0, 3)).unwrap();

    let inline = inline_count();
    let caller = obs::span("test.inline.caller");
    let cost = obs::cost::begin(0);
    let cancelled = obs::CancelFlag::new();
    cancelled.cancel();
    let budget = obs::budget::begin(None, cancelled);
    let poison = client
        .explore(&[CHAOS_PANIC_ATTRIBUTE], everything, (0, 3))
        .unwrap();
    let Reply::ServerError { code, message } = poison else {
        panic!("expected an internal error, got {poison:?}");
    };
    assert_eq!(code, errcode::INTERNAL);
    assert!(message.contains("panicked"), "{message}");
    let warm = client.explore(&["upflux"], everything, (0, 3)).unwrap();
    assert_eq!(
        warm, cold,
        "the sender's cancelled budget is not the request's"
    );
    drop(budget);
    let seen = cost.finish();
    drop(caller);
    assert_eq!(inline_count() - inline, 2);
    assert_eq!(server.stats().panics, 1);
    assert_eq!((seen.cache_hits, seen.rows_returned), (0, 0));
    let spans = obs::global().spans_snapshot();
    let nested: Vec<&String> = spans
        .iter()
        .map(|(path, _)| path)
        .filter(|path| path.starts_with("test.inline.caller;"))
        .collect();
    assert!(nested.is_empty(), "{nested:?}");
    let closed = spans
        .iter()
        .find(|(path, _)| path == "test.inline.caller")
        .expect("the caller's span closed");
    assert_eq!(closed.1.calls.load(std::sync::atomic::Ordering::Relaxed), 1);

    let next = client.explore(&["upflux"], everything, (1, 2)).unwrap();
    assert!(next.total_rows() > 0, "{next:?}");
    client.close();
    assert_eq!(server.shutdown().panics, 1);
}

/// While one thread's warm explores are answered on the intake, a
/// `Stats` frame that another thread sends on the same connection waits
/// its turn there and is answered. Its counters show `serve.inline`.
#[test]
fn a_stats_frame_from_a_second_thread_is_answered() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = server_over(1.0 / 2048.0, 6, ServeConfig::default());
    let mut client = server.connect();
    let attributes = vec!["upflux".to_string(), "call_drops".to_string()];
    let cold = client
        .explore(&["upflux", "call_drops"], BoundingBox::everything(), (0, 3))
        .unwrap();
    let inline = inline_count();
    let explores = 20u64;
    const STATS: u64 = 1_000;
    let (rows, stats) = std::thread::scope(|scope| {
        let client = &client;
        let attributes = &attributes;
        // One explore at a time, each read back before the next: the
        // reply pipe is empty at every send, so each is warm.
        let explorer = scope.spawn(move || {
            let (mut rows, mut stats) = (Vec::new(), None);
            let next = |stats: &mut Option<_>| {
                let frame = client.recv_response().unwrap().expect("early hang-up");
                match frame.body {
                    ResponseBody::Stats(s) if frame.id == STATS => *stats = Some(s),
                    body => return Some((frame.id, body)),
                }
                None
            };
            for id in 100..100 + explores {
                let request = Request {
                    id,
                    body: explore(attributes, (0, 3)),
                };
                client.send_raw(&request.encode()).unwrap();
                loop {
                    match next(&mut stats) {
                        Some((got, ResponseBody::Done { rows: n })) if got == id => {
                            rows.push(n);
                            break;
                        }
                        _ => {}
                    }
                }
            }
            while stats.is_none() {
                next(&mut stats);
            }
            (rows, stats.expect("read above"))
        });
        // Sent while the explorer is under way.
        while inline_count() < inline + 5 {
            std::thread::yield_now();
        }
        let request = Request {
            id: STATS,
            body: RequestBody::Stats,
        };
        client.send_raw(&request.encode()).unwrap();
        explorer.join().unwrap()
    });
    assert_eq!(rows, vec![cold.total_rows(); explores as usize]);
    // Each explore but one that found the Stats answer unread.
    assert!(inline_count() - inline >= explores - 1);
    let counted = stats
        .counters
        .iter()
        .find(|(name, _)| name == "serve.inline")
        .map(|(_, n)| *n);
    assert!(counted.is_some_and(|n| n >= inline + 5), "{counted:?}");
    client.close();
    server.shutdown();
}
