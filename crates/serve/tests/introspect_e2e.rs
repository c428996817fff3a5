//! End-to-end introspection tests: answering "why was request R slow"
//! over the wire, and the meta-highlights monitor flagging injected
//! fault bursts while staying silent on calm runs.
//!
//! These live in their own integration binary (own process) because the
//! meta monitor samples the *global* metric registry: the calm-phase
//! assertions below require that no concurrently running test injects
//! dfs faults or server errors, which `serve_e2e.rs` does.

use spate_core::framework::{ExplorationFramework, SpateFramework};
use spate_serve::{Reply, ServeConfig, Server};
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
    // Admission instant (span id 0, from the intake).
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
    let chrome = obs::export::chrome_trace(&obs::flight().trace(cold_id));
    assert!(chrome.starts_with("{\"traceEvents\": ["));
    assert!(chrome.ends_with("]}\n") || chrome.ends_with("]}"));
    assert!(chrome.contains("\"ph\": \"X\"") && chrome.contains("\"ph\": \"i\""));
    assert!(chrome.contains("\"name\": \"serve.evaluate\""));
    assert_eq!(
        chrome.matches('{').count(),
        chrome.matches('}').count(),
        "balanced JSON objects"
    );

    // Asking for trace 0 resolves to the most recent trace.
    let latest = client.trace(0).unwrap();
    assert_ne!(latest.trace_id, 0);

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

/// The server keeps the profiles of the last 64 settled requests: after
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
