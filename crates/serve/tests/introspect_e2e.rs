//! End-to-end introspection tests: answering "why was request R slow"
//! over the wire, and the meta-highlights monitor flagging injected
//! fault bursts while staying silent on calm runs.
//!
//! These live in their own integration binary (own process) because the
//! meta monitor samples the *global* metric registry: the calm-phase
//! assertions below require that no concurrently running test injects
//! dfs faults or server errors, which `serve_e2e.rs` does.

use spate_core::framework::{ExplorationFramework, SpateFramework};
use spate_serve::{
    ClientConn, Reply, RequestBody, ResponseBody, ServeConfig, Server, CHAOS_STALL_ATTRIBUTE,
};
use std::time::{Duration, Instant};
use telco_trace::cells::BoundingBox;
use telco_trace::time::EpochId;
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

/// One worker, one client, a cold then a warm query: the trace of the
/// cold request must tell the whole story — admission wait, the request
/// span, the evaluate span, and a cache miss per window epoch — and the
/// warm request's trace must show hits instead.
#[test]
fn trace_frame_answers_why_was_request_r_slow() {
    let (layout, snaps) = trace_snaps(6);
    let mut fw = SpateFramework::in_memory(layout);
    for s in &snaps {
        fw.ingest(s);
    }
    let server = Server::start(
        fw,
        ServeConfig {
            workers: 1,
            prefetch: false, // keep the span tree minimal and exact
            ..ServeConfig::default()
        },
    );
    let mut client = server.connect();

    // Request 1: cold cache.
    assert!(matches!(
        client
            .explore(&["upflux"], BoundingBox::everything(), (1, 3))
            .unwrap(),
        Reply::Rows { .. }
    ));
    let cold_id = client.last_trace_id().expect("a request was sent");
    assert_eq!(cold_id, spate_serve::trace_id_for(client.conn_id(), 1));

    // Request 2: same window, fully warm.
    assert!(matches!(
        client
            .explore(&["upflux"], BoundingBox::everything(), (1, 3))
            .unwrap(),
        Reply::Rows { .. }
    ));
    let warm_id = client.last_trace_id().unwrap();

    let cold = client.trace(cold_id).unwrap();
    assert_eq!(cold.trace_id, cold_id);
    let names: Vec<&str> = cold.spans.iter().map(|s| s.name.as_str()).collect();
    // Admission instant, at the time the intake admitted the request.
    assert!(names.contains(&"admission.enqueue"), "{names:?}");
    // Queue wait measured by timestamps, filed as a closed span.
    let wait = cold
        .spans
        .iter()
        .find(|s| s.name == "admission.wait")
        .expect("admission wait span");
    assert!(!wait.instant);
    assert_eq!(
        wait.args,
        vec![("class".to_string(), "interactive".to_string())]
    );
    // The worker-side spans, parented request → evaluate.
    let request = cold
        .spans
        .iter()
        .find(|s| s.name == "serve.request")
        .expect("request span");
    let evaluate = cold
        .spans
        .iter()
        .find(|s| s.name == "serve.evaluate")
        .expect("evaluate span");
    assert_eq!(evaluate.parent_id, request.span_id);
    assert!(request.dur_us >= evaluate.dur_us);
    // Cold run: one cache miss per epoch of the (1, 3) window, each
    // parented under the evaluate span.
    let misses: Vec<_> = cold
        .spans
        .iter()
        .filter(|s| s.name == "cache.miss")
        .collect();
    assert_eq!(misses.len(), 3, "{names:?}");
    assert!(misses
        .iter()
        .all(|m| m.instant && m.parent_id == evaluate.span_id));
    assert!(!cold.spans.iter().any(|s| s.name == "cache.hit"));

    // Warm run: hits, no misses.
    let warm = client.trace(warm_id).unwrap();
    let hits = warm.spans.iter().filter(|s| s.name == "cache.hit").count();
    assert_eq!(hits, 3);
    assert!(!warm.spans.iter().any(|s| s.name == "cache.miss"));

    // Span ids order the tree deterministically: sorted and unique for
    // every allocated (non-zero) id.
    let ids: Vec<u64> = cold.spans.iter().map(|s| s.span_id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup_by(|a, b| *a == *b && *a != 0);
    assert_eq!(ids, sorted);

    // The same events export as structurally valid Chrome trace JSON.
    let cold_events: Vec<_> = server
        .traces()
        .into_iter()
        .filter(|e| e.trace_id == cold_id)
        .collect();
    assert_eq!(cold_events.len(), cold.spans.len());
    let chrome = obs::export::chrome_trace(&cold_events);
    assert!(chrome.starts_with("{\"traceEvents\": ["));
    assert!(chrome.ends_with("]}\n") || chrome.ends_with("]}"));
    assert!(chrome.contains("\"ph\": \"X\"") && chrome.contains("\"ph\": \"i\""));
    assert!(chrome.contains("\"name\": \"serve.evaluate\""));
    assert_eq!(
        chrome.matches('{').count(),
        chrome.matches('}').count(),
        "balanced JSON objects"
    );

    // Asking for trace 0 resolves to the request answered last.
    let latest = client.trace(0).unwrap();
    assert_ne!(latest.trace_id, 0);

    client.close();
    server.shutdown();
}

/// An SQL request's trace says which epochs of its window came from the
/// cache: one `cache.miss` instant per epoch cold, one `cache.hit` warm,
/// each under the request's `serve.evaluate` span.
#[test]
fn an_sql_trace_names_each_epochs_cache_outcome() {
    let (layout, snaps) = trace_snaps(6);
    let mut fw = SpateFramework::in_memory(layout);
    for s in &snaps {
        fw.ingest(s);
    }
    let server = Server::start(
        fw,
        ServeConfig {
            workers: 1,
            prefetch: false,
            ..ServeConfig::default()
        },
    );
    let mut client = server.connect();
    let statement = "SELECT cell_id, call_drops FROM NMS";
    for want in ["cache.miss", "cache.hit"] {
        assert!(matches!(
            client.sql((1, 4), statement).unwrap(),
            Reply::Rows { .. }
        ));
        let trace = client.trace(client.last_trace_id().unwrap()).unwrap();
        let evaluate = trace
            .spans
            .iter()
            .find(|s| s.name == "serve.evaluate")
            .expect("an evaluate span");
        let outcomes: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "cache.hit" || s.name == "cache.miss")
            .collect();
        assert_eq!(outcomes.len(), 4, "{want}: {outcomes:?}");
        for (outcome, epoch) in outcomes.iter().zip(1..=4) {
            assert_eq!(outcome.name, want);
            assert!(outcome.instant && outcome.parent_id == evaluate.span_id);
            assert_eq!(outcome.args, [("epoch".to_string(), epoch.to_string())]);
        }
    }
    client.close();
    server.shutdown();
}

/// The Profile frame answers "what did request R cost" over the wire:
/// a cold explore pays storage reads and cache misses, the warm repeat
/// pays neither, and both reconcile byte-exactly.
#[test]
fn profile_frame_reports_request_cost() {
    let (layout, snaps) = trace_snaps(6);
    let fs = dfs::Dfs::new(dfs::DfsConfig::default());
    let mut fw = SpateFramework::new(fs, layout);
    for s in &snaps {
        fw.ingest(s);
    }
    // One worker so requests are served in order: by the time request
    // N+1 answers, request N's profile is guaranteed recorded.
    let server = Server::start(
        fw,
        ServeConfig {
            workers: 1,
            prefetch: false,
            ..ServeConfig::default()
        },
    );
    let mut client = server.connect();

    client
        .explore(&["upflux"], BoundingBox::everything(), (1, 3))
        .unwrap();
    let cold_id = client.last_trace_id().unwrap();
    client
        .explore(&["upflux"], BoundingBox::everything(), (1, 3))
        .unwrap();
    let warm_id = client.last_trace_id().unwrap();
    // A third request fences the warm profile into the store.
    client
        .explore(&["upflux"], BoundingBox::everything(), (5, 5))
        .unwrap();

    let get = |f: &spate_serve::ProfileFrame, k: &str| -> String {
        f.metrics
            .iter()
            .find(|(m, _)| m == k)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing metric {k} in {:?}", f.metrics))
    };

    // Cold: 3 epochs loaded through dfs, one miss each, zero leak.
    let cold = client.profile(cold_id).unwrap();
    assert_eq!(cold.trace_id, cold_id);
    assert_eq!(get(&cold, "epochs_touched"), "3");
    assert_eq!(get(&cold, "cache_misses"), "3");
    assert_eq!(get(&cold, "cache_hits"), "0");
    assert_eq!(get(&cold, "unattributed_bytes"), "0");
    assert!(get(&cold, "bytes_read.total").parse::<u64>().unwrap() > 0);
    assert!(get(&cold, "rows_scanned").parse::<u64>().unwrap() > 0);

    // Warm: all hits, not one byte read from storage.
    let warm = client.profile(warm_id).unwrap();
    assert_eq!(get(&warm, "epochs_touched"), "3");
    assert_eq!(get(&warm, "cache_hits"), "3");
    assert_eq!(get(&warm, "cache_misses"), "0");
    assert_eq!(get(&warm, "bytes_read.total"), "0");

    // trace_id 0 resolves to the latest profiled request; an unknown id
    // answers with an empty frame instead of an error.
    let latest = client.profile(0).unwrap();
    assert_ne!(latest.trace_id, 0);
    assert!(!latest.metrics.is_empty());
    let unknown = client.profile(u64::MAX).unwrap();
    assert!(unknown.metrics.is_empty());

    // EXPLAIN ANALYZE travels the SQL path as ordinary result rows.
    match client
        .sql((1, 3), "EXPLAIN ANALYZE SELECT caller_id FROM CDR")
        .unwrap()
    {
        Reply::Rows { tables, rows, .. } => {
            assert_eq!(tables[0].columns, vec!["metric", "value"]);
            use telco_trace::record::Value;
            let metrics: Vec<&str> = rows[0]
                .iter()
                .filter_map(|r| match &r[0] {
                    Value::Str(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect();
            assert!(metrics.contains(&"unattributed_bytes"), "{metrics:?}");
            assert!(metrics.contains(&"rows_scanned"), "{metrics:?}");
        }
        other => panic!("expected rows, got {other:?}"),
    }

    client.close();
    server.shutdown();
}

/// The server keeps the profiles of the last 64 profiled requests: after
/// 65 on one worker, the first one's Profile answers its own id with no
/// metrics, and the second one's still has them. SQL always queues (an
/// explore may be answered on the intake while the worker is still
/// settling the one before), so the one worker settles them in order.
#[test]
fn profiles_of_the_last_64_settled_requests_are_kept() {
    let (layout, snaps) = trace_snaps(2);
    let mut fw = SpateFramework::in_memory(layout);
    for s in &snaps {
        fw.ingest(s);
    }
    let server = Server::start(
        fw,
        ServeConfig {
            workers: 1,
            prefetch: false,
            ..ServeConfig::default()
        },
    );
    let mut client = server.connect();
    let ids: Vec<u64> = (0..65)
        .map(|_| {
            let reply = client.sql((1, 1), "SELECT cell_id FROM NMS").unwrap();
            assert!(matches!(reply, Reply::Rows { .. }), "{reply:?}");
            client.last_trace_id().unwrap()
        })
        .collect();

    // Once the last one's profile is in, all 65 have settled (the fence
    // waits 50 ms at most, so ask until it is).
    let waited = std::time::Instant::now();
    while client.profile(ids[64]).unwrap().metrics.is_empty() {
        assert!(waited.elapsed() < std::time::Duration::from_secs(10));
    }
    let first = client.profile(ids[0]).unwrap();
    assert_eq!(first.trace_id, ids[0]);
    assert!(first.metrics.is_empty(), "{:?}", first.metrics);
    let second = client.profile(ids[1]).unwrap();
    assert_eq!(second.trace_id, ids[1]);
    assert!(!second.metrics.is_empty());

    client.close();
    server.shutdown();
}

/// `Profile{0}` names the request the client read last, not the one
/// settled last. The intake answers a warm explore and settles it at once,
/// while the worker that answered the request before it is still
/// prefetching past its window, each epoch read paying a modelled disk
/// access, so that request settles after the warm one.
#[test]
fn profile_0_names_the_request_answered_last() {
    let (layout, snaps) = trace_snaps(10);
    let dfs = dfs::Dfs::new(dfs::DfsConfig {
        io: dfs::IoModel::cluster_disks(),
        ..dfs::DfsConfig::default()
    });
    let mut fw = SpateFramework::new(dfs, layout);
    for s in &snaps {
        fw.ingest(s);
    }
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(fw, config);
    let mut client = server.connect();
    let mut explore = || {
        let reply = client.explore(&["upflux"], BoundingBox::everything(), (1, 4));
        assert!(matches!(reply.unwrap(), Reply::Rows { .. }));
        client.last_trace_id().unwrap()
    };
    let on_worker = explore();
    let on_intake = explore();

    // Once the worker's request has settled too (the fence waits 50 ms at
    // most, so ask until it has), both profiles are in.
    let waited = std::time::Instant::now();
    while client.profile(on_worker).unwrap().metrics.is_empty() {
        assert!(waited.elapsed() < std::time::Duration::from_secs(10));
    }
    assert_eq!(client.profile(0).unwrap().trace_id, on_intake);

    client.close();
    server.shutdown();
}

/// An explore of `window` over every cell, `attributes` projected.
fn explore(attributes: &[&str], window: (u32, u32)) -> RequestBody {
    RequestBody::Explore {
        attributes: attributes.iter().map(|a| a.to_string()).collect(),
        bbox: (f64::MIN, f64::MIN, f64::MAX, f64::MAX),
        window,
        deadline_ms: 0,
    }
}

/// Ask for request `id`'s profile until it has settled (the fence waits
/// 50 ms at most); its metrics.
fn settled_profile(client: &mut ClientConn, id: u64) -> Vec<(String, String)> {
    let waited = Instant::now();
    loop {
        let profile = client.profile(id).unwrap();
        if !profile.metrics.is_empty() {
            return profile.metrics;
        }
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "{id:#x} never settled"
        );
    }
}

/// `Trace{0}` and `Profile{0}` name one request: the one the client read
/// last. A stalled explore is admitted first and popped by the one
/// worker; a warm explore admitted after it is answered on the intake
/// while the worker stalls, so the stalled one is answered last though
/// its trace started first.
#[test]
fn trace_0_and_profile_0_name_the_request_answered_last() {
    let (layout, snaps) = trace_snaps(6);
    let mut fw = SpateFramework::in_memory(layout);
    for s in &snaps {
        fw.ingest(s);
    }
    let config = ServeConfig {
        workers: 1,
        prefetch: false,
        chaos_poison: true,
        ..ServeConfig::default()
    };
    let server = Server::start(fw, config);
    let mut client = server.connect();
    let cold = client.explore(&["upflux"], BoundingBox::everything(), (1, 3));
    assert!(matches!(cold.unwrap(), Reply::Rows { .. }));

    // The stall lasts milliseconds: should the worker answer before the
    // warm explore is sent, the attempt does not count and is run again.
    for _attempt in 0..50 {
        let stalled = client
            .send(explore(&["upflux", CHAOS_STALL_ATTRIBUTE], (1, 3)))
            .unwrap();
        while server.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let warm = client.send(explore(&["upflux"], (1, 3))).unwrap();
        let mut answered = Vec::new();
        while answered.len() < 2 {
            let frame = client.recv_response().unwrap().expect("an answer");
            if frame.body.is_terminal() {
                assert!(matches!(frame.body, ResponseBody::Done { .. }));
                answered.push(frame.id);
            }
        }
        if answered != [warm, stalled] {
            continue;
        }
        let stalled = spate_serve::trace_id_for(client.conn_id(), stalled);
        settled_profile(&mut client, stalled);
        assert_eq!(client.profile(0).unwrap().trace_id, stalled);
        let latest = client.trace(0).unwrap();
        assert_eq!(latest.trace_id, stalled);
        assert_eq!(latest.spans, client.trace(stalled).unwrap().spans);
        client.close();
        server.shutdown();
        return;
    }
    panic!("the worker answered every stalled explore before the warm one was sent");
}

/// A request whose profile the server still answers for keeps its whole
/// trace, however many events later requests record: after a settled
/// explore, fewer than 64 cold scans record more than 16 384 events
/// between them, and the explore's `Trace` frame is the one it was.
#[test]
fn a_request_profile_answers_for_keeps_its_whole_trace() {
    let (layout, snaps) = trace_snaps(48);
    let mut fw = SpateFramework::in_memory(layout);
    for s in &snaps {
        fw.ingest(s);
    }
    let config = ServeConfig {
        workers: 1,
        cache_epochs: 1,
        prefetch: false,
        ..ServeConfig::default()
    };
    let server = Server::start(fw, config);
    let mut client = server.connect();
    let reply = client.explore(&["upflux"], BoundingBox::everything(), (1, 3));
    assert!(matches!(reply.unwrap(), Reply::Rows { .. }));
    let request = client.last_trace_id().unwrap();
    let metrics = settled_profile(&mut client, request);
    let before = client.trace(request).unwrap();
    assert!(before.spans.len() > 5, "{:?}", before.spans);

    let mut scans = 0;
    let mut recorded = 0;
    while recorded <= 16_384 {
        let reply = client.explore(&["upflux"], BoundingBox::everything(), (0, 47));
        assert!(matches!(reply.unwrap(), Reply::Rows { .. }));
        let scan = client.last_trace_id().unwrap();
        settled_profile(&mut client, scan);
        recorded += client.trace(scan).unwrap().spans.len();
        scans += 1;
    }
    assert!(scans < 64, "{scans} scans recorded {recorded} events");

    assert_eq!(settled_profile(&mut client, request), metrics);
    assert_eq!(client.trace(request).unwrap(), before);
    client.close();
    server.shutdown();
}

/// Shed requests settle apart from served ones: more than 64 sheds
/// leave a served request's profile and trace, and `Profile{0}` and
/// `Trace{0}` still name a served request.
#[test]
fn a_shed_storm_evicts_no_served_request() {
    let (layout, snaps) = trace_snaps(10);
    let mut fw = SpateFramework::in_memory(layout);
    for s in &snaps {
        fw.ingest(s);
    }
    let config = ServeConfig {
        workers: 1,
        chaos_poison: true,
        ..ServeConfig::default()
    };
    let server = Server::start(fw, config);
    let mut client = server.connect();
    let reply = client.explore(&["upflux"], BoundingBox::everything(), (1, 3));
    assert!(matches!(reply.unwrap(), Reply::Rows { .. }));
    let request = client.last_trace_id().unwrap();
    let metrics = settled_profile(&mut client, request);
    let before = client.trace(request).unwrap();

    // One worker stalls on each scan and the scan lane holds 16, so most
    // of 48 scans sent at once are shed.
    let scan = explore(&["upflux", CHAOS_STALL_ATTRIBUTE], (0, 9));
    let (mut shed, mut served) = (0, 0);
    while shed <= 64 {
        for _ in 0..48 {
            client.send(scan.clone()).unwrap();
        }
        let mut answered = 0;
        while answered < 48 {
            let frame = client.recv_response().unwrap().expect("an answer");
            shed += usize::from(matches!(frame.body, ResponseBody::Shed { .. }));
            served += usize::from(matches!(frame.body, ResponseBody::Done { .. }));
            answered += usize::from(frame.body.is_terminal());
        }
    }
    assert!(
        served < 64,
        "{served} served scans would evict the first request"
    );

    assert_eq!(settled_profile(&mut client, request), metrics);
    assert_eq!(client.trace(request).unwrap(), before);
    let latest = client.profile(0).unwrap();
    assert!(!latest.metrics.is_empty());
    let trace = client.trace(0).unwrap();
    assert_eq!(trace.trace_id, latest.trace_id);
    assert!(trace.spans.iter().any(|s| s.name == "serve.request"));
    client.close();
    server.shutdown();
}

/// A request shed at admission, or by the worker for out-waiting its
/// deadline, settles with its trace: the admission instant, then the
/// shed one. It has no profile.
#[test]
fn a_shed_request_settles_with_its_admission_and_shed_instants() {
    let instants = |client: &mut ClientConn, id: u64| {
        let trace = client.trace(id).unwrap();
        assert_eq!(trace.trace_id, id);
        assert!(trace.spans.iter().all(|s| s.instant && s.parent_id == 0));
        let names: Vec<String> = trace.spans.iter().map(|s| s.name.clone()).collect();
        (names, trace.spans)
    };

    // Overflow: one worker stalls on each scan, and the scan lane holds
    // 16, so of 24 scans sent at once some are refused.
    let (layout, snaps) = trace_snaps(10);
    let mut fw = SpateFramework::in_memory(layout);
    for s in &snaps {
        fw.ingest(s);
    }
    let config = ServeConfig {
        workers: 1,
        chaos_poison: true,
        ..ServeConfig::default()
    };
    let server = Server::start(fw, config);
    let mut client = server.connect();
    let scan = explore(&["upflux", CHAOS_STALL_ATTRIBUTE], (0, 9));
    for _ in 0..24 {
        client.send(scan.clone()).unwrap();
    }
    let mut shed = None;
    let mut answered = 0;
    while answered < 24 {
        let frame = client.recv_response().unwrap().expect("an answer");
        if let ResponseBody::Shed { queue_depth } = frame.body {
            shed.get_or_insert((frame.id, queue_depth));
        }
        answered += usize::from(frame.body.is_terminal());
    }
    let (id, queue_depth) = shed.expect("the scan lane overflowed");
    let id = spate_serve::trace_id_for(client.conn_id(), id);
    let (names, spans) = instants(&mut client, id);
    assert_eq!(names, ["admission.enqueue", "admission.shed_overflow"]);
    let class = ("class".to_string(), "scan".to_string());
    assert!(spans[0].args.contains(&class), "{:?}", spans[0].args);
    let depth = ("queue_depth".to_string(), queue_depth.to_string());
    assert_eq!(spans[1].args, [depth]);
    let profile = client.profile(id).unwrap();
    assert_eq!(profile.trace_id, id);
    assert!(profile.metrics.is_empty(), "{:?}", profile.metrics);
    client.close();
    server.shutdown();

    // Deadline: every job has out-waited a zero deadline when popped.
    let (layout, snaps) = trace_snaps(3);
    let mut fw = SpateFramework::in_memory(layout);
    for s in &snaps {
        fw.ingest(s);
    }
    let config = ServeConfig {
        queue_deadline: Duration::ZERO,
        ..ServeConfig::default()
    };
    let server = Server::start(fw, config);
    let mut client = server.connect();
    let reply = client.explore(&["upflux"], BoundingBox::everything(), (0, 2));
    assert!(reply.unwrap().is_shed());
    let id = client.last_trace_id().unwrap();
    let (names, spans) = instants(&mut client, id);
    assert_eq!(names, ["admission.enqueue", "admission.shed_deadline"]);
    assert!(spans[1].args.is_empty());
    assert!(client.profile(id).unwrap().metrics.is_empty());
    client.close();
    server.shutdown();
}

/// The stats frame reflects server state live, including mid-run values
/// a shutdown-time report can't give you.
#[test]
fn stats_frame_snapshots_live_server_state() {
    let (layout, snaps) = trace_snaps(4);
    let mut fw = SpateFramework::in_memory(layout);
    for s in &snaps {
        fw.ingest(s);
    }
    let server = Server::start(fw, ServeConfig::default());
    let mut client = server.connect();

    let before = client.stats().unwrap();
    for _ in 0..3 {
        client
            .explore(&["upflux"], BoundingBox::everything(), (0, 3))
            .unwrap();
    }
    server.monitor_tick();
    // A breaker that ever tripped has counted under these names: the Stats
    // answer must not publish gauges of the same names beside them.
    for name in ["trips", "recoveries", "reopens"] {
        obs::global().counter(&format!("dfs.breaker.{name}"));
    }
    let after = client.stats().unwrap();
    let counters = obs::global().counters_snapshot();
    let twins: Vec<_> = obs::global()
        .gauges_snapshot()
        .into_iter()
        .filter(|(id, _)| counters.iter().any(|(c, _)| c.name() == id.name()))
        .collect();
    assert!(twins.is_empty(), "counter and gauge of one name: {twins:?}");

    assert_eq!(after.queries - before.queries, 3);
    assert!(after.cache_hits + after.cache_misses > before.cache_hits + before.cache_misses);
    assert_eq!(after.meta_ticks - before.meta_ticks, 1);
    assert_eq!(after.protocol_errors, before.protocol_errors);
    // The registry counter snapshot rides along, name-sorted.
    assert!(after
        .counters
        .iter()
        .any(|(name, v)| name == "serve.queries" && *v > 0));
    assert!(after.counters.windows(2).all(|w| w[0].0 <= w[1].0));

    client.close();
    server.shutdown();
}

/// Meta-highlights acceptance: a fault-free run reports zero
/// deterministic anomalies over many ticks, then an injected replica
/// corruption burst fires `dfs.corruption` on the very next tick.
/// Sequential phases in one test: the calm assertion depends on no
/// parallel test disturbing the deterministic global counters.
#[test]
fn meta_highlights_flag_fault_bursts_and_stay_silent_when_calm() {
    let (layout, snaps) = trace_snaps(6);
    let fs = dfs::Dfs::new(dfs::DfsConfig {
        replication: 2,
        n_datanodes: 4,
        ..dfs::DfsConfig::default()
    });
    let mut fw = SpateFramework::new(fs.clone(), layout);
    for s in &snaps {
        fw.ingest(s);
    }
    let corrupt_path = fw.store().path_for(EpochId(2));

    // An epoch cache too small for the window, so every round re-reads
    // through dfs (served by its page cache while healthy) and the burst
    // phase can reach the rotten replica by dropping that page cache.
    let server = Server::start(
        fw,
        ServeConfig {
            cache_epochs: 2,
            ..ServeConfig::default()
        },
    );
    let mut client = server.connect();

    // Calm phase: steady traffic, a monitor tick per round. Far past the
    // arming threshold, every *deterministic* stream must stay quiet
    // (timing streams may fire advisories — other tests in this process
    // share the global registry's latency/cache series).
    for _ in 0..8 {
        for _ in 0..3 {
            assert!(matches!(
                client
                    .explore(&["upflux"], BoundingBox::everything(), (0, 4))
                    .unwrap(),
                Reply::Rows { .. }
            ));
        }
        let fired = server.monitor_tick();
        assert!(
            fired
                .iter()
                .all(|a| a.kind != spate_core::StreamKind::Deterministic),
            "calm run fired {fired:?}"
        );
    }
    let calm = client.stats().unwrap();
    assert_eq!(calm.anomalies_deterministic, 0, "{calm:?}");
    assert_eq!(calm.meta_ticks, 8);

    // Burst: rot every copy of epoch 2 and drop the dfs page cache. The
    // next explore re-fetches blocks, trips the checksums and degrades
    // to a partial answer — landing in the next tick's window.
    for dn in 0..4 {
        fs.corrupt_replica_for_test(&corrupt_path, dn);
    }
    fs.drop_caches();
    assert!(matches!(
        client
            .explore(&["upflux"], BoundingBox::everything(), (0, 4))
            .unwrap(),
        Reply::Rows { .. }
    ));
    let fired = server.monitor_tick();
    assert!(
        fired.iter().any(
            |a| a.stream == "dfs.corruption" && a.kind == spate_core::StreamKind::Deterministic
        ),
        "burst tick fired {fired:?}"
    );

    // The anomaly travels the wire with its deterministic marking.
    let stats = client.stats().unwrap();
    assert!(stats.anomalies_deterministic >= 1, "{stats:?}");
    assert!(stats
        .anomalies
        .iter()
        .any(|a| a.stream == "dfs.corruption" && a.deterministic));

    client.close();
    server.shutdown();
}
