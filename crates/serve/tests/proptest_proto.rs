//! Property tests of the frame protocol, in the same adversarial spirit
//! as `codecs/tests/proptest_fuzz_decompress.rs`: everything that
//! encodes must decode to the identical value, and nothing hostile —
//! truncated, oversized, bit-flipped, or pure garbage — may ever panic
//! or provoke an unbounded allocation.

use proptest::prelude::*;
use spate_serve::proto::{
    kind, parse_frame, ProtoError, Request, RequestBody, Response, ResponseBody, TableHeader,
    HEADER_LEN, MAX_PAYLOAD,
};
use telco_trace::record::Value;

/// Lowercase-ascii word from arbitrary bytes (the compat proptest has no
/// string strategy; protocol strings are length-prefixed bytes anyway,
/// and non-ascii utf-8 is covered by the garbage/bit-flip suites).
fn word(bytes: &[u8]) -> String {
    bytes.iter().map(|b| (b'a' + (b % 26)) as char).collect()
}

/// A `Value` from a tag byte and raw material.
fn value(tag: u8, int: i64, float_bits: u64, s: &[u8]) -> Value {
    match tag % 4 {
        0 => Value::Null,
        1 => Value::Str(word(s).into()),
        2 => Value::Int(int),
        // Quiet-NaN payloads don't round-trip PartialEq; keep finite.
        _ => Value::Float((float_bits % 1_000_000) as f64 / 7.0 - 3_000.0),
    }
}

fn roundtrip_request(req: &Request) {
    let bytes = req.encode();
    let (k, payload, used) = parse_frame(&bytes).expect("own encoding parses");
    assert_eq!(used, bytes.len());
    assert_eq!(
        &Request::decode(k, payload).expect("own encoding decodes"),
        req
    );
}

fn roundtrip_response(resp: &Response) {
    let bytes = resp.encode();
    let (k, payload, used) = parse_frame(&bytes).expect("own encoding parses");
    assert_eq!(used, bytes.len());
    assert_eq!(
        &Response::decode(k, payload).expect("own encoding decodes"),
        resp
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn explore_requests_round_trip(
        id in any::<u64>(),
        attrs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 0..6),
        x0 in 0.0f64..100_000.0,
        y0 in 0.0f64..100_000.0,
        dx in 0.0f64..100_000.0,
        dy in 0.0f64..100_000.0,
        w0 in 0u32..50_000,
        len in 0u32..2_000,
        deadline_ms in any::<u64>(),
    ) {
        let req = Request {
            id,
            body: RequestBody::Explore {
                attributes: attrs.iter().map(|a| word(a)).collect(),
                bbox: (x0, y0, x0 + dx, y0 + dy),
                window: (w0, w0 + len),
                deadline_ms,
            },
        };
        roundtrip_request(&req);
    }

    #[test]
    fn sql_requests_round_trip(
        id in any::<u64>(),
        sql_bytes in proptest::collection::vec(any::<u8>(), 0..400),
        w0 in 0u32..50_000,
        len in 0u32..2_000,
        deadline_ms in any::<u64>(),
    ) {
        let req = Request {
            id,
            body: RequestBody::Sql {
                window: (w0, w0 + len),
                sql: word(&sql_bytes),
                deadline_ms,
            },
        };
        roundtrip_request(&req);
    }

    #[test]
    fn row_chunk_responses_round_trip(
        id in any::<u64>(),
        table in any::<u8>(),
        cells in proptest::collection::vec(
            proptest::collection::vec(
                (any::<u8>(), any::<i64>(), any::<u64>(),
                 proptest::collection::vec(any::<u8>(), 0..10)),
                0..5,
            ),
            0..20,
        ),
    ) {
        let rows: Vec<Vec<Value>> = cells
            .iter()
            .map(|row| row.iter().map(|(t, i, f, s)| value(*t, *i, *f, s)).collect())
            .collect();
        roundtrip_response(&Response {
            id,
            body: ResponseBody::RowChunk { table, rows },
        });
    }

    #[test]
    fn control_responses_round_trip(
        id in any::<u64>(),
        pick in 0u8..6,
        a in any::<u32>(),
        b in any::<u32>(),
        c in any::<u32>(),
        d in any::<u32>(),
        n in any::<u64>(),
        code in any::<u8>(),
        text in proptest::collection::vec(any::<u8>(), 0..60),
        cols in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..8), 0..6),
    ) {
        let body = match pick {
            0 => ResponseBody::Header {
                tables: vec![TableHeader {
                    name: word(&text),
                    columns: cols.iter().map(|w| word(w)).collect(),
                }],
            },
            1 => ResponseBody::Summary {
                resolution: word(&text),
                cdr_records: n,
                nms_records: n ^ 0xFF,
                cells: a,
            },
            2 => ResponseBody::Coverage {
                requested: a,
                served: b,
                decayed: c,
                unavailable: d,
            },
            3 => ResponseBody::Done { rows: n },
            4 => ResponseBody::Shed { queue_depth: a },
            _ => ResponseBody::Error { code, message: word(&text) },
        };
        roundtrip_response(&Response { id, body });
    }

    #[test]
    fn every_truncation_errors_cleanly(
        id in any::<u64>(),
        sql_bytes in proptest::collection::vec(any::<u8>(), 0..80),
        w0 in 0u32..1_000,
    ) {
        let bytes = Request {
            id,
            body: RequestBody::Sql { window: (w0, w0), sql: word(&sql_bytes), deadline_ms: 0 },
        }
        .encode();
        for cut in 0..bytes.len() {
            prop_assert_eq!(parse_frame(&bytes[..cut]), Err(ProtoError::Truncated));
        }
    }

    #[test]
    fn forged_oversized_lengths_are_rejected_before_allocation(
        id in any::<u64>(),
        extra in 1u32..1_000_000,
    ) {
        let mut bytes = Request {
            id,
            body: RequestBody::Sql { window: (0, 0), sql: "SELECT 1".into(), deadline_ms: 0 },
        }
        .encode();
        let forged = (MAX_PAYLOAD as u32).saturating_add(extra);
        bytes[4..8].copy_from_slice(&forged.to_le_bytes());
        prop_assert_eq!(
            parse_frame(&bytes),
            Err(ProtoError::Oversized(forged as usize))
        );
    }

    #[test]
    fn arbitrary_garbage_never_panics(
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        // Any outcome is fine except a panic or a runaway allocation.
        if let Ok((k, payload, used)) = parse_frame(&data) {
            prop_assert!(used <= data.len());
            let _ = Request::decode(k, payload);
            let _ = Response::decode(k, payload);
        }
    }

    #[test]
    fn introspection_requests_round_trip(
        id in any::<u64>(),
        trace_id in any::<u64>(),
        pick in 0u8..3,
    ) {
        let body = match pick {
            0 => RequestBody::Stats,
            1 => RequestBody::Trace { trace_id },
            _ => RequestBody::Cancel { target: trace_id },
        };
        roundtrip_request(&Request { id, body });
    }

    #[test]
    fn introspection_replies_round_trip(
        id in any::<u64>(),
        counts in proptest::collection::vec(any::<u64>(), 19),
        breaker_nodes in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u8>()),
            0..8,
        ),
        shard_rows in proptest::collection::vec(
            ((any::<u32>(), any::<u64>(), any::<u32>(), any::<u64>()), any::<u64>()),
            0..5,
        ),
        anoms in proptest::collection::vec(
            ((any::<u64>(), proptest::collection::vec(any::<u8>(), 0..12)),
             (proptest::collection::vec(any::<u8>(), 0..12), any::<u32>(), any::<bool>())),
            0..6,
        ),
        counters in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..20), any::<u64>()),
            0..10,
        ),
        spans in proptest::collection::vec(
            ((any::<u64>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..16)),
             (any::<u64>(), any::<u64>(), any::<bool>(),
              proptest::collection::vec(
                  (proptest::collection::vec(any::<u8>(), 0..8),
                   proptest::collection::vec(any::<u8>(), 0..8)),
                  0..3,
              ))),
            0..8,
        ),
        trace_id in any::<u64>(),
        pick_stats in any::<bool>(),
    ) {
        let body = if pick_stats {
            ResponseBody::Stats(spate_serve::proto::StatsFrame {
                queries: counts[0],
                rows_streamed: counts[1],
                shed_overflow: counts[2],
                shed_deadline: counts[3],
                protocol_errors: counts[4],
                queue_interactive: counts[5] as u32,
                queue_scan: counts[6] as u32,
                cache_hits: counts[7],
                cache_misses: counts[8],
                cache_evictions: counts[9],
                cache_invalidations: counts[10],
                meta_ticks: counts[11],
                anomalies_total: counts[12],
                anomalies_deterministic: counts[13],
                anomalies: anoms.iter().map(|((t, s), (c, m, d))| {
                    spate_serve::proto::AnomalyWire {
                        tick: *t,
                        stream: word(s),
                        category: word(c),
                        share_milli: *m,
                        deterministic: *d,
                    }
                }).collect(),
                counters: counters.iter().map(|(n, v)| (word(n), *v)).collect(),
                breaker_trips: counts[14],
                breaker_probes: counts[15],
                breaker_recoveries: counts[16],
                breaker_reopens: counts[17],
                breaker_skipped: counts[18],
                breaker_nodes: breaker_nodes.clone(),
                shard_stats: shard_rows.iter().map(|((sh, by, le, q), v)| {
                    spate_serve::proto::ShardStatWire {
                        shard: *sh,
                        bytes: *by,
                        leaves: *le,
                        queries: *q,
                        version: *v,
                    }
                }).collect(),
            })
        } else {
            ResponseBody::Trace(spate_serve::proto::TraceFrame {
                trace_id,
                spans: spans.iter().map(|((sid, pid, n), (st, du, i, args))| {
                    spate_serve::proto::SpanWire {
                        span_id: *sid,
                        parent_id: *pid,
                        name: word(n),
                        start_us: *st,
                        dur_us: *du,
                        instant: *i,
                        args: args.iter().map(|(k, v)| (word(k), word(v))).collect(),
                    }
                }).collect(),
            })
        };
        roundtrip_response(&Response { id, body });
    }

    #[test]
    fn garbage_payloads_behind_valid_headers_never_panic(
        kind_pick in 0usize..15,
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let kinds = [
            kind::EXPLORE, kind::SQL, kind::HEADER, kind::ROW_CHUNK, kind::SUMMARY,
            kind::COVERAGE, kind::DONE, kind::ERROR, kind::SHED, kind::UNAVAILABLE,
            kind::STATS, kind::TRACE, kind::STATS_REPLY, kind::TRACE_REPLY, kind::CANCEL,
        ];
        let k = kinds[kind_pick];
        // Both decoders must handle any payload under any valid kind
        // byte: counts that claim more elements than there are bytes,
        // invalid utf-8, unknown value tags, trailing junk.
        let _ = Request::decode(k, &payload);
        let _ = Response::decode(k, &payload);
    }

    #[test]
    fn single_byte_flips_never_panic(
        id in any::<u64>(),
        sql_bytes in proptest::collection::vec(any::<u8>(), 1..60),
        flip_at in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        let mut bytes = Request {
            id,
            body: RequestBody::Sql { window: (3, 9), sql: word(&sql_bytes), deadline_ms: 0 },
        }
        .encode();
        let at = (flip_at as usize) % bytes.len();
        bytes[at] ^= 1 << flip_bit;
        if let Ok((k, payload, _)) = parse_frame(&bytes) {
            let _ = Request::decode(k, payload);
        }
    }
}

/// Non-random edge pins that the generators above may or may not hit.
#[test]
fn exact_header_sized_input_is_still_truncated_without_payload() {
    let req = Request {
        id: 1,
        body: RequestBody::Sql {
            window: (0, 0),
            sql: "x".into(),
            deadline_ms: 0,
        },
    };
    let bytes = req.encode();
    assert!(bytes.len() > HEADER_LEN);
    assert_eq!(
        parse_frame(&bytes[..HEADER_LEN]),
        Err(ProtoError::Truncated)
    );
}

#[test]
fn kind_bytes_cross_checked_between_request_and_response_decoders() {
    let resp = Response {
        id: 5,
        body: ResponseBody::Done { rows: 9 },
    };
    let bytes = resp.encode();
    let (k, payload, _) = parse_frame(&bytes).unwrap();
    // A response kind fed to the request decoder is a clean BadKind.
    assert_eq!(Request::decode(k, payload), Err(ProtoError::BadKind(k)));
}
