//! Each count the server and its cache keep of their own is the
//! registry's count of the same event, because one statement counts both.
//! The registry is process-global, so this binary holds a single test and
//! a single server: the registry sees nothing else.

use spate_core::framework::{ExplorationFramework, SpateFramework};
use spate_core::DecayPolicy;
use spate_serve::proto::{MAGIC, VERSION};
use spate_serve::{
    ClientConn, Reply, RequestBody, ResponseBody, ServeConfig, Server, CHAOS_PANIC_ATTRIBUTE,
    CHAOS_STALL_ATTRIBUTE,
};
use std::time::Duration;
use telco_trace::cells::BoundingBox;
use telco_trace::{EpochId, TraceConfig, TraceGenerator};

/// Read frames until `n` requests have ended (rows, shed or error).
fn drain(client: &ClientConn, mut n: usize) {
    while n > 0 {
        let frame = client.recv_response().unwrap().expect("early hang-up");
        if matches!(
            frame.body,
            ResponseBody::Done { .. } | ResponseBody::Shed { .. } | ResponseBody::Error { .. }
        ) {
            n -= 1;
        }
    }
}

fn stalled(window: (u32, u32)) -> RequestBody {
    RequestBody::Explore {
        attributes: vec!["upflux".into(), CHAOS_STALL_ATTRIBUTE.into()],
        bbox: (f64::MIN, f64::MIN, f64::MAX, f64::MAX),
        window,
        deadline_ms: 0,
    }
}

#[test]
fn every_count_of_the_server_and_its_cache_is_the_registrys() {
    let mut generator = TraceGenerator::new(TraceConfig::scaled(1.0 / 2048.0).with_days(1));
    let mut fw = SpateFramework::in_memory(generator.layout().clone()).with_decay(DecayPolicy {
        full_resolution_days: 1,
        day_highlight_days: 100,
        month_highlight_days: 100,
        year_highlight_days: 100,
    });
    for snapshot in generator.by_ref().take(8) {
        fw.ingest(&snapshot);
    }
    // One worker and a two-epoch cache: the stalled requests below
    // queue behind each other, and windows of more than two epochs evict.
    let server = Server::start(
        fw,
        ServeConfig {
            workers: 1,
            queue_deadline: Duration::from_millis(20),
            cache_epochs: 2,
            chaos_poison: true,
            ..ServeConfig::default()
        },
    );
    let everything = BoundingBox::everything();
    let mut client = server.connect();

    // Misses, hits (the same window twice), evictions.
    for window in [(0, 1), (0, 1), (2, 5), (0, 1)] {
        let reply = client.explore(&["upflux"], everything, window).unwrap();
        assert!(matches!(reply, Reply::Rows { .. }), "{reply:?}");
    }
    // A poison query, an expired deadline and a cancel.
    let reply = client
        .explore(&[CHAOS_PANIC_ATTRIBUTE], everything, (0, 1))
        .unwrap();
    assert!(matches!(reply, Reply::ServerError { .. }), "{reply:?}");
    client
        .explore_with_deadline(&["upflux", CHAOS_STALL_ATTRIBUTE], everything, (0, 1), 1)
        .unwrap();
    let id = client.send(stalled((0, 1))).unwrap();
    client.cancel(id).unwrap();
    client.await_reply(id).unwrap();
    // More stalled requests than the interactive lane holds: the lane
    // overflows, and what queues behind four 5 ms stalls out-waits its
    // 20 ms deadline.
    let burst = 80;
    for _ in 0..burst {
        client.send(stalled((0, 1))).unwrap();
    }
    drain(&client, burst);
    // A malformed frame on a connection of its own.
    let malformed = server.connect();
    let mut bad = MAGIC.to_vec();
    bad.push(VERSION);
    bad.push(0xEE);
    bad.extend_from_slice(&0u32.to_le_bytes());
    malformed.send_raw(&bad).unwrap();
    // Decay two days on drops the cached epochs of day 0.
    assert!(server.run_decay(EpochId(48 * 2)).leaves_evicted > 0);

    let cache = server.cache_stats();
    let stats = server.shutdown();
    let mut counts = stats.tallied();
    counts.extend(cache.tallied());
    assert_eq!(counts.len(), 13, "{stats:?} {cache:?}");
    for (name, count) in counts {
        // A worker loop restarts only after a panic escapes the request's
        // isolation, which no request can cause.
        if name != "serve.worker.respawns" {
            assert!(count > 0, "{name} was never counted");
        }
        assert_eq!(count, obs::global().counter(name).get(), "{name}");
    }
}
