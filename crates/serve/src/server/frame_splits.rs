//! A served explore answer, written to the client in pieces: split in two
//! at every byte offset (the client drains the first piece before the
//! second is written, so a frame that straddles the two is read in
//! parts), and a byte a write, the client reading as the bytes come.
//! Every way, the client's reply is the one the answer's frames make.

use super::frame_identity::{frames_in, Tap};
use super::*;
use spate_core::framework::ExplorationFramework;
use telco_trace::{TraceConfig, TraceGenerator};

/// The bytes of one real explore answer, as the worker wrote them: a
/// header, row chunks of both tables over three epochs, then `Done`.
fn served_answer() -> Vec<u8> {
    let mut generator = TraceGenerator::new(TraceConfig::scaled(1.0 / 256.0).with_days(1));
    let mut fw = SpateFramework::in_memory(generator.layout().clone());
    for snapshot in generator.by_ref().take(19) {
        fw.ingest(&snapshot);
    }
    let config = ServeConfig {
        prefetch: false,
        ..ServeConfig::default()
    };
    let server = Server::start(fw, config);
    let mut client = server.connect();
    let tap = Tap::on(&client.ep);
    client
        .send(RequestBody::Explore {
            attributes: vec!["upflux".into(), "cell_id".into()],
            bbox: (f64::MIN, f64::MIN, f64::MAX, f64::MAX),
            window: (16, 18),
            deadline_ms: 0,
        })
        .unwrap();
    let started = Instant::now();
    let bytes = loop {
        let bytes = tap.writes().concat();
        if frames_in(&bytes)
            .last()
            .is_some_and(|f| f.body.is_terminal())
        {
            break bytes;
        }
        assert!(started.elapsed() < Duration::from_secs(30), "no answer");
        std::thread::sleep(Duration::from_millis(1));
    };
    client.close();
    server.shutdown();
    bytes
}

/// The reply `frames` make, assembled here as a reader of the protocol
/// would: rows appended to their table in arrival order.
fn reply_of(frames: Vec<Response>) -> Reply {
    let (mut tables, mut rows, mut coverage) = (Vec::new(), Vec::new(), None);
    for frame in frames {
        match frame.body {
            ResponseBody::Header { tables: t } => {
                rows = vec![Vec::new(); t.len()];
                tables = t;
            }
            ResponseBody::RowChunk { table, rows: chunk } => {
                rows[table as usize].extend(chunk);
            }
            ResponseBody::Coverage {
                requested,
                served,
                decayed,
                unavailable,
            } => {
                coverage = Some(Coverage {
                    requested,
                    served,
                    decayed,
                    unavailable,
                });
            }
            ResponseBody::Done { rows: total_rows } => {
                return Reply::Rows {
                    tables,
                    rows,
                    coverage,
                    total_rows,
                }
            }
            other => panic!("not in an exact answer: {other:?}"),
        }
    }
    panic!("no terminal frame")
}

/// Request 1's reply, read through a client while another thread writes
/// `pieces` one after the other. With `drained`, each piece is written
/// only once the client has read every byte before it.
fn reply_in_pieces(pieces: &[&[u8]], drained: bool) -> Result<Reply, TransportError> {
    let (server, client) = duplex();
    let mut conn = ClientConn {
        ep: client,
        conn_id: 0,
        next_id: 1,
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            for piece in pieces {
                let started = Instant::now();
                while drained && server.unread_sent() > 0 {
                    assert!(started.elapsed() < Duration::from_secs(30), "not read");
                    std::thread::yield_now();
                }
                server.send_bytes(piece).unwrap();
            }
            server.close();
        });
        conn.await_reply(1)
    })
}

#[test]
fn an_answer_written_in_any_pieces_reads_back_as_its_reply() {
    let bytes = served_answer();
    let frames = frames_in(&bytes);
    let chunks = |t| {
        let of_table =
            |f: &&Response| matches!(f.body, ResponseBody::RowChunk { table, .. } if table == t);
        frames.iter().filter(of_table).count()
    };
    assert!(
        chunks(0) >= 2 && chunks(1) >= 2,
        "both tables, several chunks"
    );
    let reply = Ok(reply_of(frames));

    for cut in 0..=bytes.len() {
        let (head, tail) = bytes.split_at(cut);
        assert_eq!(reply_in_pieces(&[head, tail], true), reply, "cut at {cut}");
    }
    let bytes_one_by_one: Vec<&[u8]> = bytes.chunks(1).collect();
    assert_eq!(reply_in_pieces(&bytes_one_by_one, false), reply);
    // Uneven pieces, the reader left to keep up as it can.
    for seed in 1..=8usize {
        let mut pieces = Vec::new();
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            let n = (rest.len() * seed % 97 + 1).min(rest.len());
            let (piece, tail) = rest.split_at(n);
            pieces.push(piece);
            rest = tail;
        }
        assert_eq!(reply_in_pieces(&pieces, false), reply, "seed {seed}");
    }
}
