//! Differential tests: the one-pass byte parser behind
//! `Snapshot::from_bytes` against the line-and-split parser it replaced,
//! and the row scanner `Snapshot::scan` against `from_bytes`, on
//! generated snapshots and on damaged bytes. Same `Ok`, same `Err`, the
//! same text in every field, never a panic.

use proptest::prelude::*;
use telco_trace::record::{Record, Value};
use telco_trace::schema::{cdr, nms, TableKind};
use telco_trace::snapshot::SnapshotParseError;
use telco_trace::time::EpochId;
use telco_trace::{Snapshot, TraceConfig, TraceGenerator};

/// The previous `Snapshot::from_bytes`: `str::lines()`, `split(',')` and
/// one `String` per field. It differs from the code it was copied from
/// only where this parser's header rules were tightened (table name
/// matched exactly, `cols=` must equal the schema width) and in not
/// trusting `rows=` for a pre-allocation.
fn reference_from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotParseError> {
    fn parse_kv<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
        for part in line.split_whitespace() {
            if let Some(rest) = part.strip_prefix(key) {
                if let Some(v) = rest.strip_prefix('=') {
                    return v.parse().ok();
                }
            }
        }
        None
    }
    fn parse_line(line: &str, n_cols: usize) -> Option<Record> {
        let values: Vec<Value> = line
            .split(',')
            .map(|field| {
                if field.is_empty() {
                    Value::Null
                } else {
                    Value::Str(field.to_string().into())
                }
            })
            .collect();
        (values.len() == n_cols).then(|| Record::new(values))
    }
    fn read_table(
        name: &'static str,
        width: usize,
        lines: &mut std::iter::Enumerate<std::str::Lines<'_>>,
    ) -> Result<Vec<Record>, SnapshotParseError> {
        let (_, th) = lines
            .next()
            .ok_or_else(|| SnapshotParseError::BadTableHeader("missing".into()))?;
        let bad = || SnapshotParseError::BadTableHeader(th.to_string());
        let words: Vec<&str> = th.split_whitespace().collect();
        if words.first() != Some(&"#TABLE") || words.get(1) != Some(&name) {
            return Err(bad());
        }
        if parse_kv::<usize>(th, "cols") != Some(width) {
            return Err(bad());
        }
        let rows: u32 = parse_kv(th, "rows").ok_or_else(bad)?;
        let mut records = Vec::new();
        for _ in 0..rows {
            let (line_no, line) = lines
                .next()
                .ok_or(SnapshotParseError::RowCountMismatch { table: name })?;
            records.push(parse_line(line, width).ok_or(SnapshotParseError::BadRow {
                table: name,
                line: line_no + 1,
            })?);
        }
        Ok(records)
    }

    let text = std::str::from_utf8(bytes)
        .map_err(|_| SnapshotParseError::BadHeader("not utf-8".into()))?;
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(SnapshotParseError::MissingHeader)?;
    if !header.starts_with("#SNAPSHOT") {
        return Err(SnapshotParseError::BadHeader(header.to_string()));
    }
    let epoch = parse_kv(header, "epoch")
        .ok_or_else(|| SnapshotParseError::BadHeader(header.to_string()))?;
    let cdr_rows = read_table("CDR", cdr::WIDTH, &mut lines)?;
    let nms_rows = read_table("NMS", nms::WIDTH, &mut lines)?;
    Ok(Snapshot::new(EpochId(epoch), cdr_rows, nms_rows))
}

fn assert_same(bytes: &[u8]) {
    let got = Snapshot::from_bytes(bytes);
    let want = reference_from_bytes(bytes);
    assert_eq!(
        got,
        want,
        "parsers disagree on {:?}",
        String::from_utf8_lossy(bytes)
    );
    assert_eq!(
        scan_to_snapshot(bytes),
        got,
        "scan and from_bytes disagree on {:?}",
        String::from_utf8_lossy(bytes)
    );
}

/// `Snapshot::scan` with every field of every lent row read back through
/// `RowText::field`: equal to `from_bytes` when the two agree on the
/// outcome, on the order of the rows and on the text at every (row, col).
fn scan_to_snapshot(bytes: &[u8]) -> Result<Snapshot, SnapshotParseError> {
    let (mut cdr_rows, mut nms_rows) = (Vec::new(), Vec::new());
    let epoch = Snapshot::scan(bytes, |table, row| {
        let (width, rows) = match table {
            TableKind::Cdr => (cdr::WIDTH, &mut cdr_rows),
            TableKind::Nms => (nms::WIDTH, &mut nms_rows),
            TableKind::Cell => panic!("a snapshot has no CELL table"),
        };
        let fields = (0..width).map(|col| Value::from_field(row.field(col)));
        rows.push(Record::new(fields.collect()));
    })?;
    Ok(Snapshot::new(epoch, cdr_rows, nms_rows))
}

/// Wire-legal values, with text on both sides of the inline bound and
/// multi-byte text.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Null),
        "[A-Za-z0-9_.-]{1,12}".prop_map(|s| Value::Str(s.into())),
        "[A-Za-z0-9 ]{20,30}".prop_map(|s| Value::Str(s.into())),
        Just(Value::Str("Ünïcødé-ţëxţ".into())),
        Just(Value::Str("é".repeat(12).into())),
        any::<i32>().prop_map(|i| Value::Int(i64::from(i))),
        (-1_000_000i32..1_000_000).prop_map(|i| Value::Float(f64::from(i) / 100.0)),
    ]
}

fn arb_row(width: usize) -> impl Strategy<Value = Record> {
    proptest::collection::vec(arb_value(), width).prop_map(Record::new)
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        0u32..100_000,
        proptest::collection::vec(arb_row(cdr::WIDTH), 0..4),
        proptest::collection::vec(arb_row(nms::WIDTH), 0..12),
    )
        .prop_map(|(epoch, cdr_rows, nms_rows)| Snapshot::new(EpochId(epoch), cdr_rows, nms_rows))
}

/// Positions of `needle` in `bytes`.
fn find_all(bytes: &[u8], needle: u8) -> Vec<usize> {
    (0..bytes.len()).filter(|&i| bytes[i] == needle).collect()
}

fn replace_first(bytes: &[u8], from: &str, to: &str) -> Vec<u8> {
    String::from_utf8_lossy(bytes)
        .replacen(from, to, 1)
        .into_bytes()
}

/// One damaged copy of `bytes`; `at` picks where, `byte` what with.
fn mutate(bytes: &[u8], kind: u32, at: usize, byte: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let pos = at % out.len();
    let pick = |candidates: Vec<usize>| {
        (!candidates.is_empty()).then(|| candidates[at % candidates.len()])
    };
    match kind {
        0 => out.truncate(pos),
        1 => out[pos] ^= 1 << (byte % 8),
        2 => out[pos] = byte,
        3 => out[pos] = 0xFF, // never valid UTF-8
        4 => out.insert(pos, byte),
        5 => {
            out.remove(pos);
        }
        // CRLF line endings throughout.
        6 => {
            out = String::from_utf8_lossy(bytes)
                .replace('\n', "\r\n")
                .into_bytes()
        }
        // A stray `\r` somewhere, and one in place of the last byte.
        7 => out.insert(pos, b'\r'),
        8 => {
            out.pop();
            out.push(b'\r');
        }
        // A blank line after some line.
        9 => {
            if let Some(nl) = pick(find_all(bytes, b'\n')) {
                out.insert(nl + 1, b'\n');
            }
        }
        // Two lines joined.
        10 => {
            if let Some(nl) = pick(find_all(bytes, b'\n')) {
                out.remove(nl);
            }
        }
        // Final newline dropped.
        11 => {
            out.pop();
        }
        12 => out.extend_from_slice(b"trailing garbage\n#TABLE CDR rows=9 cols=200\n\xff\n"),
        // Arity + 1 and - 1 in some row.
        13 => {
            if let Some(comma) = pick(find_all(bytes, b',')) {
                out.insert(comma, b',');
            }
        }
        14 => {
            if let Some(comma) = pick(find_all(bytes, b',')) {
                out.remove(comma);
            }
        }
        // Header lies.
        15 => out = replace_first(bytes, "rows=", "rows=4294967295 was="),
        16 => out = replace_first(bytes, "NMS rows=", "NMS rows=4294967295 was="),
        17 => out = replace_first(bytes, "rows=", "rows=99999999999 was="),
        18 => out = replace_first(bytes, "cols=200", "cols=201"),
        19 => out = replace_first(bytes, "cols=8", "cols=200"),
        20 => out = replace_first(bytes, " cols=200", ""),
        21 => out = replace_first(bytes, "#TABLE CDR", "#TABLE NMS"),
        22 => out = replace_first(bytes, "#TABLE CDR", "#TABLE CDRX"),
        23 => out = replace_first(bytes, "#TABLE NMS", "#TABLEX NMS"),
        24 => out = replace_first(bytes, "#TABLE NMS", "#TABLE X NMS"),
        25 => out = replace_first(bytes, "#SNAPSHOT epoch=", "#SNAPSHOT epochs=1 epoch=+"),
        26 => out = replace_first(bytes, "#SNAPSHOT epoch=", "#SNAPSHOT epoch=-"),
        _ => out = replace_first(bytes, "#SNAPSHOT", "#SNAPSHOTS"),
    }
    out
}

const MUTATION_KINDS: u32 = 28;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn valid_snapshots_parse_identically_and_round_trip(snap in arb_snapshot()) {
        let bytes = snap.to_bytes();
        assert_same(&bytes);
        let parsed = Snapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(parsed.to_bytes(), bytes);
    }

    #[test]
    fn damaged_snapshots_parse_identically(
        snap in arb_snapshot(),
        damage in proptest::collection::vec((0..MUTATION_KINDS, any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut bytes = snap.to_bytes();
        for (kind, at, byte) in damage {
            bytes = mutate(&bytes, kind, at, byte);
            if bytes.is_empty() {
                break;
            }
            assert_same(&bytes);
        }
        assert_same(&bytes);
    }

    #[test]
    fn junk_parses_identically(junk in proptest::collection::vec(any::<u8>(), 0..400)) {
        assert_same(&junk);
    }

    #[test]
    fn parse_line_agrees_with_split(line in "[a-z0-9,\r]{0,40}", arity_off in 0usize..3) {
        let want: Vec<&str> = line.split(',').collect();
        let n_cols = want.len() + arity_off - 1; // arity - 1, exact, + 1
        let got = Record::parse_line(&line, n_cols);
        prop_assert_eq!(got.is_some(), want.len() == n_cols);
        if let Some(rec) = got {
            let fields: Vec<String> = rec.values.iter().map(Value::as_text).collect();
            prop_assert_eq!(fields, want);
        }
    }
}

#[test]
fn every_kind_of_damage_on_a_generated_trace() {
    let snap = TraceGenerator::new(TraceConfig::scaled(1.0 / 1024.0))
        .nth(20)
        .expect("the trace has a 21st epoch");
    assert!(!snap.cdr.is_empty() && !snap.nms.is_empty());
    let bytes = snap.to_bytes();
    assert_same(&bytes);
    assert_eq!(Snapshot::from_bytes(&bytes).unwrap().to_bytes(), bytes);
    for kind in 0..MUTATION_KINDS {
        for at in [0, 1, 37, bytes.len() / 2, bytes.len() - 2, bytes.len() - 1] {
            assert_same(&mutate(&bytes, kind, at, b','));
            assert_same(&mutate(&bytes, kind, at, b'\n'));
            assert_same(&mutate(&bytes, kind, at, 0xC3));
        }
    }
}

fn tiny(cdr_rows: &str, nms_rows: &str) -> Vec<u8> {
    let count = |rows: &str| rows.lines().count();
    format!(
        "#SNAPSHOT epoch=7 ts=0\n#TABLE CDR rows={} cols=200\n{cdr_rows}#TABLE NMS rows={} cols=8\n{nms_rows}",
        count(cdr_rows),
        count(nms_rows)
    )
    .into_bytes()
}

#[test]
fn a_declared_row_count_is_not_trusted_for_allocation() {
    // 4 G rows × 24 bytes would be a ~100 GB reservation.
    let text = "#SNAPSHOT epoch=1 ts=0\n#TABLE CDR rows=4294967295 cols=200\n";
    assert_eq!(
        Snapshot::from_bytes(text.as_bytes()),
        Err(SnapshotParseError::RowCountMismatch { table: "CDR" })
    );
    let text = "#SNAPSHOT epoch=1 ts=0\n#TABLE CDR rows=0 cols=200\n#TABLE NMS rows=4294967295 cols=8\n1,2,3,4,5,6,7,8\n";
    assert_eq!(
        Snapshot::from_bytes(text.as_bytes()),
        Err(SnapshotParseError::RowCountMismatch { table: "NMS" })
    );
}

#[test]
fn table_headers_are_matched_exactly() {
    let ok = tiny("", "");
    assert!(Snapshot::from_bytes(&ok).is_ok());
    for (from, to) in [
        ("#TABLE CDR", "#TABLE NMS"),
        ("#TABLE CDR", "#TABLE XCDR"),
        ("#TABLE CDR", "#TABLE NMS CDR"),
        ("#TABLE NMS", "#TABLEX NMS"),
        ("cols=200", "cols=8"),
        ("cols=8", "cols=9"),
        (" cols=8", ""),
    ] {
        let bad = replace_first(&ok, from, to);
        assert!(
            matches!(
                Snapshot::from_bytes(&bad),
                Err(SnapshotParseError::BadTableHeader(_))
            ),
            "{from:?} -> {to:?}"
        );
        assert_same(&bad);
    }
}

#[test]
fn line_endings_and_line_numbers() {
    let nms_row = "t,1,2,3,4,5,6,7\n";
    // CRLF is a line ending; the `\r` is not part of the last field.
    let crlf = String::from_utf8(tiny("", nms_row))
        .unwrap()
        .replace('\n', "\r\n");
    let parsed = Snapshot::from_bytes(crlf.as_bytes()).unwrap();
    assert_eq!(parsed.nms[0].get(nms::HANDOVER_FAILURES).as_i64(), Some(7));
    // A `\r` with no `\n` after it is data, at the end of input too.
    let bare = tiny("", "t,1,2,3,4,5,6,7\r");
    let parsed = Snapshot::from_bytes(&bare).unwrap();
    assert_eq!(parsed.nms[0].get(nms::HANDOVER_FAILURES).as_text(), "7\r");
    // The last row needs no terminator; a lone `\r\n` line is a blank row.
    assert!(Snapshot::from_bytes(&tiny("", "t,1,2,3,4,5,6,7")).is_ok());
    // Line numbers are 1-based over the whole input.
    let bad = tiny("", &format!("{nms_row}{nms_row}t,1,2\n"));
    assert_eq!(
        Snapshot::from_bytes(&bad),
        Err(SnapshotParseError::BadRow {
            table: "NMS",
            line: 6
        })
    );
    let blank = tiny("", &format!("{nms_row}\r\n{nms_row}"));
    assert_eq!(
        Snapshot::from_bytes(&blank),
        Err(SnapshotParseError::BadRow {
            table: "NMS",
            line: 5
        })
    );
    for bytes in [crlf.into_bytes(), bare, bad, blank] {
        assert_same(&bytes);
    }
}

/// A snapshot with `n_cdr` + `n_nms` distinct rows whose fields include
/// blanks and multi-byte text.
fn framed(n_cdr: usize, n_nms: usize) -> Vec<u8> {
    let row = |width: usize, i: usize| {
        let fields: Vec<String> = (0..width)
            .map(|c| match (c + i) % 4 {
                0 => String::new(),
                1 => format!("{}", c * 31 + i),
                2 => "ţëxţ".to_string(),
                _ => format!("v{i}"),
            })
            .collect();
        fields.join(",") + "\n"
    };
    let cdr_rows: String = (0..n_cdr).map(|i| row(cdr::WIDTH, i)).collect();
    let nms_rows: String = (0..n_nms).map(|i| row(nms::WIDTH, i)).collect();
    tiny(&cdr_rows, &nms_rows)
}

/// Byte ranges of the lines of `bytes` (terminators excluded).
fn line_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    for nl in find_all(bytes, b'\n') {
        spans.push((start, nl));
        start = nl + 1;
    }
    spans
}

#[test]
fn a_short_or_long_row_anywhere_in_either_table() {
    let ok = framed(3, 3);
    assert!(Snapshot::from_bytes(&ok).is_ok());
    assert_same(&ok);
    let lines = line_spans(&ok);
    // Lines: header, #TABLE CDR, 3 rows, #TABLE NMS, 3 rows.
    for (table, first_row) in [("CDR", 2), ("NMS", 6)] {
        for (row, &(start, end)) in lines.iter().enumerate().skip(first_row).take(3) {
            let mut long = ok.clone();
            long.splice(end..end, *b",x");
            let mut blank_long = ok.clone();
            blank_long.insert(end, b',');
            let mut short = ok.clone();
            let comma = start + ok[start..end].iter().position(|&b| b == b',').unwrap();
            short.remove(comma);
            for bad in [long, blank_long, short] {
                assert_eq!(
                    Snapshot::scan(&bad, |_, _| {}),
                    Err(SnapshotParseError::BadRow {
                        table,
                        line: row + 1
                    })
                );
                assert_same(&bad);
                // ... and with the final newline gone, and as CRLF.
                assert_same(&bad[..bad.len() - 1]);
                assert_same(&mutate(&bad, 6, 0, 0));
            }
        }
    }
}

#[test]
fn declared_row_counts_that_lie() {
    let ok = framed(2, 3);
    for (from, to) in [
        // Too large: the NMS header is taken for a CDR row, or the input ends.
        ("CDR rows=2", "CDR rows=3"),
        ("NMS rows=3", "NMS rows=4"),
        ("NMS rows=3", "NMS rows=4294967295"),
        ("NMS rows=3", "NMS rows=99999999999"),
        // Too small: a CDR row is taken for the NMS header; spare NMS
        // rows are text after the table.
        ("CDR rows=2", "CDR rows=1"),
        ("CDR rows=2", "CDR rows=0"),
        ("NMS rows=3", "NMS rows=2"),
        ("NMS rows=3", "NMS rows=0"),
    ] {
        let lied = replace_first(&ok, from, to);
        assert_ne!(lied, ok, "{from:?}");
        assert_same(&lied);
    }
    let spare = replace_first(&ok, "NMS rows=3", "NMS rows=2");
    let mut walked = 0;
    Snapshot::scan(&spare, |_, _| walked += 1).unwrap();
    assert_eq!(walked, 4, "rows past the declared count are not lent");
}

#[test]
fn empty_tables_garbage_and_bad_utf8() {
    for (n_cdr, n_nms) in [(0, 0), (0, 2), (2, 0)] {
        let bytes = framed(n_cdr, n_nms);
        assert!(Snapshot::from_bytes(&bytes).is_ok());
        assert_same(&bytes);
        assert_same(&mutate(&bytes, 12, 0, 0)); // text after the NMS table
        assert_same(&bytes[..bytes.len() - 1]);
    }
    // Invalid UTF-8 is rejected wherever it sits, before any row is lent:
    // in a field the scan would not otherwise look into, and in the text
    // after the NMS table.
    let ok = framed(2, 2);
    let field = ok.iter().position(|&b| b == b'v').unwrap();
    for at in [field, ok.len() - 1] {
        let mut bad = ok.clone();
        bad[at] = 0xFF;
        let mut walked = 0;
        assert_eq!(
            Snapshot::scan(&bad, |_, _| walked += 1),
            Err(SnapshotParseError::BadHeader("not utf-8".into()))
        );
        assert_eq!(walked, 0);
        assert_same(&bad);
    }
    let mut tail = ok.clone();
    tail.extend_from_slice(b"\xff\n");
    assert!(Snapshot::scan(&tail, |_, _| {}).is_err());
    assert_same(&tail);
}

#[test]
fn truncation_at_every_97th_byte() {
    let snap = TraceGenerator::new(TraceConfig::scaled(1.0 / 1024.0))
        .nth(20)
        .expect("the trace has a 21st epoch");
    for bytes in [snap.to_bytes(), framed(3, 5)] {
        for cut in (0..bytes.len()).step_by(97) {
            assert_same(&bytes[..cut]);
        }
    }
}
