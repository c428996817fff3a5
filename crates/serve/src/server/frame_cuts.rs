//! A served explore answer, and a summary answer, cut at every byte
//! offset and read back through a client endpoint: the reader gets
//! exactly the whole frames before the cut, then `Truncated` — or a clean
//! close when the cut falls on a frame boundary — and never panics; the
//! client's reply is the whole answer or that error.

use super::frame_identity::{frames_in, Tap};
use super::*;
use crate::proto::ProtoError;
use telco_trace::{TraceConfig, TraceGenerator};

/// The bytes of one real explore answer, as the worker wrote them: row
/// chunks of both tables over several epochs, one epoch unavailable (a
/// `Coverage` frame), then `Done`.
fn served_answer() -> Vec<u8> {
    let mut generator = TraceGenerator::new(TraceConfig::scaled(1.0 / 512.0).with_days(1));
    let layout = generator.layout().clone();
    let config = ServeConfig {
        prefetch: false,
        ..ServeConfig::default()
    };
    let server = Server::start_sharded(ShardedSpate::in_memory(layout, 2), config);
    for snapshot in generator.by_ref().take(4) {
        server.ingest(&snapshot);
    }
    let gap = server.shared.shards.read(1).store().evict(EpochId(3));
    assert!(gap.unwrap() > 0);

    let mut client = server.connect();
    let tap = Tap::on(&client.ep);
    client
        .send(RequestBody::Explore {
            attributes: vec!["duration_s".into(), "call_drops".into()],
            bbox: (f64::MIN, f64::MIN, f64::MAX, f64::MAX),
            window: (0, 3),
            deadline_ms: 0,
        })
        .unwrap();
    let started = Instant::now();
    let bytes = loop {
        let bytes = tap.writes().concat();
        let frames = frames_in(&bytes);
        if frames.last().is_some_and(|f| f.body.is_terminal()) {
            break bytes;
        }
        assert!(started.elapsed() < Duration::from_secs(30), "no answer");
        std::thread::sleep(Duration::from_millis(1));
    };
    client.close();
    server.shutdown();
    bytes
}

/// `bytes` read back as the reply to request 1, the server gone after
/// them.
fn reply_to(bytes: &[u8]) -> Result<Reply, TransportError> {
    let (server, client) = duplex();
    server.send_bytes(bytes).unwrap();
    server.close();
    let mut conn = ClientConn {
        ep: client,
        conn_id: 0,
        next_id: 1,
    };
    conn.await_reply(1)
}

#[test]
fn an_answer_cut_anywhere_yields_its_whole_frames_then_truncated() {
    let bytes = served_answer();
    let frames = frames_in(&bytes);
    let kinds = |kind: fn(&ResponseBody) -> bool| frames.iter().filter(|f| kind(&f.body)).count();
    assert!(kinds(|b| matches!(b, ResponseBody::RowChunk { table: 0, .. })) >= 1);
    assert!(kinds(|b| matches!(b, ResponseBody::RowChunk { table: 1, .. })) >= 2);
    assert_eq!(kinds(|b| matches!(b, ResponseBody::Coverage { .. })), 1);
    // Where each frame ends.
    let mut ends = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        at += parse_frame(&bytes[at..]).unwrap().2;
        ends.push(at);
    }
    let whole = |cut: usize| ends.iter().take_while(|&&end| end <= cut).count();
    let reply = reply_to(&bytes).unwrap();
    assert!(matches!(
        reply,
        Reply::Rows {
            coverage: Some(_),
            ..
        }
    ));

    for cut in 0..=bytes.len() {
        let on_boundary = cut == 0 || ends.contains(&cut);
        // Frame by frame through the endpoint.
        let (server, client) = duplex();
        server.send_bytes(&bytes[..cut]).unwrap();
        server.close();
        let mut read = Vec::new();
        let end = loop {
            match client.recv_response() {
                Ok(Some(frame)) => read.push(frame),
                other => break other,
            }
        };
        assert_eq!(read[..], frames[..whole(cut)], "cut at {cut}");
        if on_boundary {
            assert_eq!(end, Ok(None), "cut at {cut}");
        } else {
            assert_eq!(
                end,
                Err(TransportError::Proto(ProtoError::Truncated)),
                "cut at {cut}"
            );
        }

        // And as the client's reply: whole, or the error the cut gives.
        let got = reply_to(&bytes[..cut]);
        if cut == bytes.len() {
            assert_eq!(got, Ok(reply.clone()));
        } else if on_boundary {
            assert_eq!(got, Err(TransportError::Closed), "cut at {cut}");
        } else {
            let truncated = Err(TransportError::Proto(ProtoError::Truncated));
            assert_eq!(got, truncated, "cut at {cut}");
        }
    }
}

/// A summary answer is its `Summary` frame and then its `Done`. Cut at
/// every byte, it reads back whole only when nothing is cut: `Closed` when
/// the cut falls on a frame boundary, the `Done` one included, else
/// `Truncated`. Any frame but this request's `Done` after the summary is a
/// protocol error.
#[test]
fn a_summary_answer_cut_anywhere_is_whole_or_an_error() {
    let body = ResponseBody::Summary {
        resolution: "day".into(),
        cdr_records: 4_096,
        nms_records: 51_200,
        cells: 64,
    };
    let summary = Response { id: 1, body }.encode();
    let done = |id| {
        let body = ResponseBody::Done { rows: 0 };
        Response { id, body }.encode()
    };
    let bytes = [summary.clone(), done(1)].concat();
    let whole = Reply::Summary {
        resolution: "day".into(),
        cdr_records: 4_096,
        nms_records: 51_200,
        cells: 64,
    };
    for cut in 0..=bytes.len() {
        let got = reply_to(&bytes[..cut]);
        if cut == bytes.len() {
            assert_eq!(got, Ok(whole.clone()));
        } else if cut == 0 || cut == summary.len() {
            assert_eq!(got, Err(TransportError::Closed), "cut at {cut}");
        } else {
            let truncated = Err(TransportError::Proto(ProtoError::Truncated));
            assert_eq!(got, truncated, "cut at {cut}");
        }
    }
    let unavailable = Response {
        id: 1,
        body: ResponseBody::Unavailable,
    };
    for after in [done(2), unavailable.encode(), summary.clone()] {
        let got = reply_to(&[summary.clone(), after].concat());
        assert_eq!(got, Err(TransportError::Proto(ProtoError::BadTag(0))));
    }
}
