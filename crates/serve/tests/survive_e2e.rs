//! Serve-tier survivability, end to end: a poison query that panics the
//! worker is isolated into an `Error` terminal frame and the server
//! keeps answering on the *same* connection and the same locks; expired
//! end-to-end deadlines degrade to honest `Partial` coverage; `Cancel`
//! frames interrupt admitted requests without wedging anything.

use spate_core::framework::{ExplorationFramework, SpateFramework};
use spate_serve::proto::errcode;
use spate_serve::{
    Reply, RequestBody, ServeConfig, Server, CHAOS_PANIC_ATTRIBUTE, CHAOS_STALL_ATTRIBUTE,
};
use telco_trace::cells::BoundingBox;
use telco_trace::{Snapshot, TraceConfig, TraceGenerator};

const SCALE: f64 = 1.0 / 2048.0;

fn trace_snaps(take: usize) -> (telco_trace::cells::CellLayout, Vec<Snapshot>) {
    let mut config = TraceConfig::scaled(SCALE);
    config.days = 1;
    let mut generator = TraceGenerator::new(config);
    let layout = generator.layout().clone();
    let snaps: Vec<Snapshot> = (&mut generator).take(take).collect();
    (layout, snaps)
}

fn poison_server(workers: usize) -> Server {
    let (layout, snaps) = trace_snaps(6);
    let mut fw = SpateFramework::in_memory(layout);
    for s in &snaps {
        fw.ingest(s);
    }
    Server::start(
        fw,
        ServeConfig {
            workers,
            chaos_poison: true,
            ..ServeConfig::default()
        },
    )
}

/// The poison-recovery satellite: a panicking query must end in an
/// `Error` terminal frame, and the *next* request on the same connection
/// — served by the same worker pool over the same shared locks — must
/// answer normally. No stuck in-flight marks, no poisoned mutexes, no
/// dead workers.
#[test]
fn a_panicking_query_is_isolated_and_the_server_answers_the_next_request() {
    let server = poison_server(1); // one worker: it must survive, there is no spare
    let mut client = server.connect();

    let reply = client
        .explore(&[CHAOS_PANIC_ATTRIBUTE], BoundingBox::everything(), (1, 3))
        .unwrap();
    match reply {
        Reply::ServerError { code, ref message } => {
            assert_eq!(code, errcode::INTERNAL);
            assert!(message.contains("panicked"), "{message}");
        }
        other => panic!("expected an internal error terminal frame, got {other:?}"),
    }
    let poison_id = client.last_trace_id().unwrap();

    // Same connection, same (sole) worker: a normal query still answers.
    let reply = client
        .explore(&["upflux"], BoundingBox::everything(), (1, 3))
        .unwrap();
    assert!(matches!(reply, Reply::Rows { .. }), "{reply:?}");

    // Introspection still works too (Stats crosses the monitor lock the
    // panicking request might have poisoned).
    let stats = client.stats().unwrap();
    assert_eq!(stats.queries, 2);

    // The poison query settled without a profile: its trace holds the
    // isolation instant, and its Profile answers its own id, empty.
    let trace = client.trace(poison_id).unwrap();
    assert!(
        trace
            .spans
            .iter()
            .any(|s| s.instant && s.name == "serve.panic_isolated"),
        "{:?}",
        trace.spans
    );
    let profile = client.profile(poison_id).unwrap();
    assert_eq!(profile.trace_id, poison_id);
    assert!(profile.metrics.is_empty(), "{:?}", profile.metrics);

    let final_stats = server.shutdown();
    assert_eq!(final_stats.panics, 1);
    assert_eq!(final_stats.queries, 2);
}

/// Every worker in the pool can eat a poison query and the pool still
/// drains a healthy workload afterwards.
#[test]
fn repeated_panics_never_shrink_the_worker_pool() {
    let server = poison_server(2);
    let mut client = server.connect();
    for _ in 0..6 {
        let reply = client
            .explore(&[CHAOS_PANIC_ATTRIBUTE], BoundingBox::everything(), (1, 2))
            .unwrap();
        assert!(matches!(reply, Reply::ServerError { .. }), "{reply:?}");
    }
    for _ in 0..4 {
        let reply = client
            .explore(&["upflux"], BoundingBox::everything(), (1, 3))
            .unwrap();
        assert!(matches!(reply, Reply::Rows { .. }), "{reply:?}");
    }
    let stats = server.shutdown();
    assert_eq!(stats.panics, 6);
    assert_eq!(stats.queries, 10);
}

/// An expired end-to-end deadline returns `Partial` with every epoch
/// honestly reported, never a hang and never an error. The chaos stall
/// attribute holds evaluation for 5 ms, so a 1 ms deadline (measured
/// from admission) is *certainly* spent at the first per-epoch
/// checkpoint — fully deterministic, no timing luck.
#[test]
fn an_expired_deadline_degrades_to_partial_with_honest_coverage() {
    let server = poison_server(1);
    let mut client = server.connect();

    let reply = client
        .explore_with_deadline(
            &["upflux", CHAOS_STALL_ATTRIBUTE],
            BoundingBox::everything(),
            (0, 5),
            1,
        )
        .unwrap();
    match reply {
        Reply::Rows {
            coverage,
            total_rows,
            ..
        } => {
            let c = coverage.expect("an interrupted scan reports coverage");
            assert_eq!(c.requested, 6);
            assert_eq!(c.served, 0, "the scan stopped at the first checkpoint");
            assert_eq!(c.unavailable, 6);
            assert_eq!(total_rows, 0);
        }
        other => panic!("expected partial rows, got {other:?}"),
    }

    // The same query without a deadline is whole.
    let reply = client
        .explore(&["upflux"], BoundingBox::everything(), (0, 5))
        .unwrap();
    match reply {
        Reply::Rows { coverage, .. } => {
            assert!(coverage.is_none(), "full answers carry no coverage")
        }
        other => panic!("expected rows, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.deadline_expired, 1);
}

/// A `Cancel` aimed at an in-flight request interrupts it at the next
/// checkpoint (Partial, zero rows served past the interrupt) — and a
/// cancel for an unknown id is a harmless no-op. The 5 ms chaos stall
/// guarantees the cancel frame (processed on the connection's intake,
/// which never waits behind workers) lands before the first checkpoint.
#[test]
fn cancel_frames_interrupt_inflight_requests_and_ignore_unknown_targets() {
    let server = poison_server(1);
    let mut client = server.connect();

    // Unknown target: nothing to cancel, nothing breaks.
    client.cancel(999).unwrap();

    // Send without awaiting, cancel it, then read the terminal frame.
    let id = client
        .send(RequestBody::Explore {
            attributes: vec!["upflux".into(), CHAOS_STALL_ATTRIBUTE.into()],
            bbox: (f64::MIN, f64::MIN, f64::MAX, f64::MAX),
            window: (0, 5),
            deadline_ms: 0,
        })
        .unwrap();
    client.cancel(id).unwrap();
    let reply = client.await_reply(id).unwrap();
    match reply {
        Reply::Rows { coverage, .. } => {
            let c = coverage.expect("a cancelled scan reports coverage");
            assert_eq!(c.served, 0, "cancel landed before the first checkpoint");
            assert_eq!(c.unavailable, c.requested);
        }
        other => panic!("expected partial rows, got {other:?}"),
    }

    // The connection is still perfectly usable afterwards.
    let reply = client
        .explore(&["upflux"], BoundingBox::everything(), (0, 2))
        .unwrap();
    assert!(matches!(reply, Reply::Rows { .. }), "{reply:?}");

    // The one worker served that explore after the cancelled request
    // settled: a Cancel of the answered request finds nothing to cancel.
    let unknown = obs::counter("serve.cancel.unknown");
    let delivered = obs::counter("serve.cancel.delivered");
    let (unknown_before, delivered_before) = (unknown.get(), delivered.get());
    client.cancel(id).unwrap();
    assert_eq!(unknown.get(), unknown_before + 1);
    assert_eq!(delivered.get(), delivered_before);
    let stats = server.shutdown();
    assert_eq!(stats.cancelled, 1);
}
