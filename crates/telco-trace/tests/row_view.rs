//! `Row` reads a column the same from every side: from the text of a
//! serialized row (`Snapshot::scan`), from a `ColumnTable` holding the
//! same fields column by column, and from the `Record` that
//! `Snapshot::from_bytes` builds of the same bytes. All must equal
//! `Value::from_field(field)` read through `text` / `as_i64` / `as_f64`,
//! and a column table's `records`, like each row's `record`, must be the
//! records `from_bytes` builds.

use proptest::prelude::*;
use telco_trace::schema::{cdr, nms, TableKind};
use telco_trace::snapshot::{ColumnError, ColumnTable, Row};
use telco_trace::{Snapshot, Value};

/// Fields on the edges of the numeric views and of the 22-byte inline
/// text bound.
const EDGES: [&str; 18] = [
    "",
    "0",
    "-0",
    "+7",
    "1e3",
    "1.5",
    "-3.25e-2",
    " 12",
    "12 ",
    " ",
    "inf",
    "NaN",
    "0x10",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "exactly-twenty-two-byt",
    "a text field well beyond twenty-two bytes",
];

fn field() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..EDGES.len()).prop_map(|i| EDGES[i].to_string()),
        any::<i64>().prop_map(|v| v.to_string()),
        (-1e9f64..1e9).prop_map(|v| v.to_string()),
        "[a-zA-Z0-9 .+]{0,30}",
    ]
}

/// A snapshot of no CDR rows and the given NMS rows.
fn nms_snapshot(rows: &[Vec<String>]) -> Vec<u8> {
    let mut text = format!(
        "#SNAPSHOT epoch=5 ts=0\n#TABLE CDR rows=0 cols={}\n#TABLE NMS rows={} cols={}\n",
        cdr::WIDTH,
        rows.len(),
        nms::WIDTH
    );
    for row in rows {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    text.into_bytes()
}

/// The rows as a column table: a column whose rows all agree is a
/// constant, and the others are the table's run.
fn column_table(rows: &[Vec<String>]) -> ColumnTable {
    let mut table = ColumnTable::builder(rows.len());
    let mut run: Vec<u8> = Vec::new();
    for col in 0..nms::WIDTH {
        let mut values = rows.iter().map(|row| &row[col]);
        let first = values.next().expect("a row");
        if rows.len() > 1 && values.all(|v| v == first) {
            table.constant(format!("{first}\n").as_bytes()).unwrap();
            continue;
        }
        table.varying();
        for row in rows {
            run.extend_from_slice(row[col].as_bytes());
            run.push(b'\n');
        }
    }
    table.run(run).unwrap();
    table.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn text_rows_column_rows_and_records_read_alike(
        rows in proptest::collection::vec(proptest::collection::vec(field(), nms::WIDTH), 1..6),
        wanted in proptest::collection::vec(any::<bool>(), nms::WIDTH),
    ) {
        let bytes = nms_snapshot(&rows);
        let decoded = Snapshot::from_bytes(&bytes).expect("generated rows parse");
        let mut lent = Vec::new();
        Snapshot::scan(&bytes, |table, row| {
            assert_eq!(table, TableKind::Nms);
            lent.push(Row::Text(row));
        })
        .expect("scan accepts what from_bytes accepts");
        prop_assert_eq!(lent.len(), rows.len());
        let columns = column_table(&rows);
        prop_assert_eq!((columns.rows(), columns.width()), (rows.len(), nms::WIDTH));
        prop_assert_eq!(&columns.records(), &decoded.nms);

        let cols: Vec<usize> = (0..nms::WIDTH).filter(|&c| wanted[c]).collect();
        for (r, ((fields, record), text_row)) in rows.iter().zip(&decoded.nms).zip(&lent).enumerate() {
            let record_row = Row::Record(record);
            let column_row = columns.row(r);
            for (col, field) in fields.iter().enumerate() {
                let value = Value::from_field(field);
                for row in [text_row, &column_row, &record_row] {
                    prop_assert_eq!(&row.value(col), &value, "{:?}", field);
                    prop_assert_eq!(row.text(col), value.text(), "{:?}", field);
                    prop_assert_eq!(row.i64(col), value.as_i64(), "{:?}", field);
                    // By bits: NaN reads back as NaN.
                    prop_assert_eq!(
                        row.f64(col).map(f64::to_bits),
                        value.as_f64().map(f64::to_bits),
                        "{:?}", field
                    );
                }
            }
            for row in [text_row, &column_row, &record_row] {
                prop_assert_eq!(&row.record(nms::WIDTH), record);
            }
            let sparse = text_row.sparse_values(&cols, nms::WIDTH);
            prop_assert_eq!(&sparse, &record_row.sparse_values(&cols, nms::WIDTH));
            prop_assert_eq!(&sparse, &column_row.sparse_values(&cols, nms::WIDTH));
            for (col, value) in sparse.iter().enumerate() {
                let expected = if wanted[col] { record.get(col).clone() } else { Value::Null };
                prop_assert_eq!(value, &expected);
            }
        }
    }
}

/// `record` builds what `from_bytes` builds of the row, from each side:
/// blank fields first, inside and last, and a row ended by `\r\n`.
#[test]
fn a_row_builds_the_record_from_bytes_builds() {
    let row = |blank: &[usize]| -> Vec<String> {
        (0..nms::WIDTH)
            .map(|c| {
                if blank.contains(&c) {
                    String::new()
                } else {
                    (c * 7).to_string()
                }
            })
            .collect()
    };
    let rows = vec![row(&[0]), row(&[3, 4]), row(&[nms::WIDTH - 1]), row(&[])];
    let mut bytes = nms_snapshot(&rows);
    // The last row ends `\r\n`: the `\r` is no part of its last field.
    bytes.insert(bytes.len() - 1, b'\r');
    let decoded = Snapshot::from_bytes(&bytes).expect("the rows parse");
    assert_eq!(decoded.nms[2].get(nms::WIDTH - 1), &Value::Null);
    assert_eq!(decoded.nms[3].get(nms::WIDTH - 1), &Value::from_field("49"));
    let mut text_rows = Vec::new();
    Snapshot::scan(&bytes, |_, row| text_rows.push(Row::Text(row))).expect("the rows scan");
    let columns = column_table(&rows);
    for (r, record) in decoded.nms.iter().enumerate() {
        for row in [text_rows[r], columns.row(r), Row::Record(record)] {
            assert_eq!(&row.record(nms::WIDTH), record, "row {r}: {row:?}");
        }
    }
}

#[test]
fn a_decoded_number_reads_as_its_text_would() {
    // Records that never went through text (the generator's, the CELL
    // table's) hold `Int` and `Float`; `text` is their wire form.
    let record = telco_trace::Record::new(vec![Value::Int(-5), Value::Float(2.345)]);
    let row = Row::Record(&record);
    assert_eq!(row.text(0), "-5");
    assert_eq!(row.i64(0), Some(-5));
    assert_eq!(row.text(1), "2.35");
    assert_eq!(row.f64(1), Some(2.345));
    assert_eq!(
        row.sparse_values(&[1], 2),
        [Value::Null, Value::Float(2.345)]
    );
}

/// What the parser refuses of a table's text, the builder refuses of its
/// columns: a column without one value a row, a constant that is not one
/// value, a separator inside a value, bytes that are not UTF-8.
#[test]
fn the_builder_refuses_what_the_parser_would() {
    let two_rows = |varying| {
        let mut table = ColumnTable::builder(2);
        for _ in 0..varying {
            table.varying();
        }
        table
    };
    let refused = |run: &[u8], varying| two_rows(varying).run(run.to_vec()).unwrap_err();
    assert_eq!(refused(b"a\n", 1), ColumnError::ValueCount);
    assert_eq!(refused(b"a\nb\nc\n", 1), ColumnError::ValueCount);
    assert_eq!(refused(b"a\nb", 1), ColumnError::ValueCount);
    assert_eq!(refused(b"a\nb\n", 2), ColumnError::ValueCount);
    assert_eq!(refused(b"a,b\nc\n", 1), ColumnError::Separator);

    let mut table = two_rows(1);
    table.run(b"a\n\n".to_vec()).unwrap();
    // One run a table.
    assert_eq!(
        table.run(b"a\n\n".to_vec()).unwrap_err(),
        ColumnError::ValueCount
    );
    let table = table.finish().unwrap();
    assert_eq!(
        (table.row(0).text(0), table.row(1).text(0)),
        ("a".into(), "".into())
    );
    // A second varying column, declared after the run.
    let mut table = two_rows(1);
    table.run(b"a\nb\n".to_vec()).unwrap();
    table.varying();
    assert_eq!(table.finish().unwrap_err(), ColumnError::ValueCount);
    let mut table = two_rows(1);
    table.run(b"\xff\nb\n".to_vec()).unwrap();
    assert_eq!(table.finish().unwrap_err(), ColumnError::NotUtf8);

    for (constant, error) in [
        (&b""[..], ColumnError::ValueCount),
        (b"0", ColumnError::ValueCount),
        (b"0\n0\n", ColumnError::ValueCount),
        (b"0,1\n", ColumnError::Separator),
    ] {
        assert_eq!(
            two_rows(1).constant(constant).unwrap_err(),
            error,
            "{constant:?}"
        );
    }
    let mut table = ColumnTable::builder(0);
    table.constant(b"\xff\n").unwrap();
    assert_eq!(table.finish().unwrap_err(), ColumnError::NotUtf8);

    // No rows: columns, and nothing in them.
    let mut empty = ColumnTable::builder(0);
    empty.varying();
    empty.run(Vec::new()).unwrap();
    assert_eq!(empty.finish().unwrap().rows(), 0);
    assert_eq!(
        ColumnTable::builder(0).run(b"a\n".to_vec()).unwrap_err(),
        ColumnError::ValueCount
    );
}
