//! `Row` reads a column the same from either side: from the text of a
//! serialized row (`Snapshot::scan`) and from the `Record` that
//! `Snapshot::from_bytes` builds of the same bytes. Both must equal
//! `Value::from_field(field)` read through `text` / `as_i64` / `as_f64`.

use proptest::prelude::*;
use telco_trace::schema::{cdr, nms, TableKind};
use telco_trace::snapshot::Row;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn text_rows_and_records_read_alike(
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

        let cols: Vec<usize> = (0..nms::WIDTH).filter(|&c| wanted[c]).collect();
        for ((fields, record), text_row) in rows.iter().zip(&decoded.nms).zip(&lent) {
            let record_row = Row::Record(record);
            for (col, field) in fields.iter().enumerate() {
                let value = Value::from_field(field);
                for row in [text_row, &record_row] {
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
            let sparse = text_row.sparse_values(&cols, nms::WIDTH);
            prop_assert_eq!(&sparse, &record_row.sparse_values(&cols, nms::WIDTH));
            for (col, value) in sparse.iter().enumerate() {
                let expected = if wanted[col] { record.get(col).clone() } else { Value::Null };
                prop_assert_eq!(value, &expected);
            }
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
