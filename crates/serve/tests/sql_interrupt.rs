//! An interrupted SQL request is counted once. A statement scans each
//! table it reads over the whole window, and the budget checkpoint runs
//! before every epoch of every scan; `serve.scan.interrupted` counts the
//! request, as the explore path does, not the epochs it left unread.
//!
//! The counter is process-global, so this binary holds this one test and
//! nothing else increments it meanwhile.

use spate_core::framework::{ExplorationFramework, SpateFramework};
use spate_serve::{ClientConn, Reply, RequestBody, ServeConfig, Server, CHAOS_STALL_ATTRIBUTE};
use telco_trace::{TraceConfig, TraceGenerator};

/// Queue a self-join of CDR behind four chaos-stalled explores on the one
/// worker, `Cancel` it at once when `cancel`, and return its answer's row
/// count. The worker spends 20 ms on the stalls before it can pop the
/// join, so a 1 ms deadline is spent and a `Cancel` (read by the intake
/// right after the join) has landed before the join's first checkpoint:
/// both of its scans are cut at every epoch.
fn join_behind_stalls(conn: &mut ClientConn, deadline_ms: u64, cancel: bool) -> u64 {
    let stalls: Vec<u64> = (0..4)
        .map(|_| {
            conn.send(RequestBody::Explore {
                attributes: vec![CHAOS_STALL_ATTRIBUTE.to_string()],
                bbox: (f64::MIN, f64::MIN, f64::MAX, f64::MAX),
                window: (0, 0),
                deadline_ms: 0,
            })
            .unwrap()
        })
        .collect();
    let join = conn
        .send(RequestBody::Sql {
            window: (0, 7),
            sql: "SELECT a.caller_id FROM CDR a, CDR b WHERE a.caller_id = b.caller_id".into(),
            deadline_ms,
        })
        .unwrap();
    if cancel {
        conn.cancel(join).unwrap();
    }
    for stall in stalls {
        assert!(matches!(conn.await_reply(stall), Ok(Reply::Rows { .. })));
    }
    match conn.await_reply(join).unwrap() {
        Reply::Rows { total_rows, .. } => total_rows,
        other => panic!("the interrupted join answered {other:?}"),
    }
}

#[test]
fn an_interrupted_join_is_counted_as_one_interrupted_scan() {
    let mut generator = TraceGenerator::new(TraceConfig::scaled(1.0 / 1024.0).with_days(1));
    let mut fw = SpateFramework::in_memory(generator.layout().clone());
    for snapshot in generator.by_ref().take(8) {
        fw.ingest(&snapshot);
    }
    let server = Server::start(
        fw,
        ServeConfig {
            workers: 1,
            prefetch: false,
            chaos_poison: true,
            ..ServeConfig::default()
        },
    );
    let mut conn = server.connect();
    let interrupted = obs::counter("serve.scan.interrupted");

    let before = interrupted.get();
    assert_eq!(join_behind_stalls(&mut conn, 1, false), 0);
    assert_eq!(interrupted.get() - before, 1, "a spent deadline");

    let before = interrupted.get();
    assert_eq!(join_behind_stalls(&mut conn, 0, true), 0);
    assert_eq!(interrupted.get() - before, 1, "a cancel");

    conn.close();
    let stats = server.shutdown();
    assert_eq!((stats.deadline_expired, stats.cancelled), (1, 1));
}
