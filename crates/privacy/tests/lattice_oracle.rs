//! The anonymizer against the implementation it replaced. `Anonymizer`
//! refines cached partitions of the records by a prefix of the
//! quasi-identifiers, counting over interned ids; the oracle below is the
//! earliest search kept word for word — it generalizes every record's
//! quasi-identifiers into strings at every lattice node — and the two
//! must produce the same table: records, order, levels, suppression count
//! and loss, whether the records are lent or handed over.

use privacy::{AnonymizedTable, Anonymizer, Hierarchy};
use proptest::prelude::*;
use std::collections::HashMap;
use telco_trace::record::{Record, Value};
use telco_trace::schema::cdr;
use telco_trace::{TraceConfig, TraceGenerator};

fn class_keys(a: &Anonymizer, records: &[Record], levels: &[u32]) -> Vec<Vec<String>> {
    records
        .iter()
        .map(|r| {
            a.quasi_identifiers
                .iter()
                .zip(levels)
                .map(|((col, h), &lvl)| h.generalize(&r.get(*col).text(), lvl))
                .collect()
        })
        .collect()
}

fn class_sizes(keys: &[Vec<String>]) -> HashMap<&[String], usize> {
    let mut counts = HashMap::new();
    for key in keys {
        *counts.entry(key.as_slice()).or_insert(0) += 1;
    }
    counts
}

fn check(a: &Anonymizer, records: &[Record], levels: &[u32]) -> Option<usize> {
    let keys = class_keys(a, records, levels);
    let to_suppress: usize = class_sizes(&keys).values().filter(|&&n| n < a.k).sum();
    let budget = (records.len() as f64 * a.suppression_limit) as usize;
    (to_suppress <= budget).then_some(to_suppress)
}

fn enumerate_levels(maxima: &[u32], total: u32, visit: &mut impl FnMut(&[u32])) {
    fn rec(
        maxima: &[u32],
        idx: usize,
        remaining: u32,
        cur: &mut Vec<u32>,
        visit: &mut impl FnMut(&[u32]),
    ) {
        if idx == maxima.len() {
            if remaining == 0 {
                visit(cur);
            }
            return;
        }
        let tail_max: u32 = maxima[idx + 1..].iter().sum();
        let lo = remaining.saturating_sub(tail_max);
        let hi = remaining.min(maxima[idx]);
        for l in lo..=hi {
            cur.push(l);
            rec(maxima, idx + 1, remaining - l, cur, visit);
            cur.pop();
        }
    }
    rec(maxima, 0, total, &mut Vec::new(), visit);
}

fn oracle_anonymize(a: &Anonymizer, records: &[Record]) -> Option<AnonymizedTable> {
    if records.is_empty() {
        return Some(AnonymizedTable {
            records: vec![],
            levels: vec![0; a.quasi_identifiers.len()],
            suppressed: 0,
            loss: 0.0,
        });
    }
    let maxima: Vec<u32> = a
        .quasi_identifiers
        .iter()
        .map(|(_, h)| h.max_level())
        .collect();
    for budget in 0..=maxima.iter().sum() {
        let mut found: Option<Vec<u32>> = None;
        enumerate_levels(&maxima, budget, &mut |levels| {
            if found.is_none() && check(a, records, levels).is_some() {
                found = Some(levels.to_vec());
            }
        });
        if let Some(levels) = found {
            return Some(oracle_apply(a, records, &levels, &maxima));
        }
    }
    None
}

fn oracle_apply(
    a: &Anonymizer,
    records: &[Record],
    levels: &[u32],
    maxima: &[u32],
) -> AnonymizedTable {
    let keys = class_keys(a, records, levels);
    let counts = class_sizes(&keys);
    let mut out = Vec::with_capacity(records.len());
    let mut suppressed = 0usize;
    for (r, key) in records.iter().zip(&keys) {
        if counts[key.as_slice()] < a.k {
            suppressed += 1;
            continue;
        }
        let mut rec = r.clone();
        for ((col, _), gen) in a.quasi_identifiers.iter().zip(key) {
            rec.values[*col] = Value::Str(gen.as_str().into());
        }
        out.push(rec);
    }
    let loss = levels
        .iter()
        .zip(maxima)
        .map(|(&l, &m)| {
            if m == 0 {
                0.0
            } else {
                f64::from(l) / f64::from(m)
            }
        })
        .sum::<f64>()
        / levels.len().max(1) as f64;
    AnonymizedTable {
        records: out,
        levels: levels.to_vec(),
        suppressed,
        loss,
    }
}

fn assert_same(a: &Anonymizer, records: &[Record]) {
    let want = oracle_anonymize(a, records);
    let lent = a.anonymize(records);
    let owned = a.anonymize_owned(records.to_vec());
    for got in [lent, owned] {
        match (got, &want) {
            (None, None) => {}
            (Some(got), Some(want)) => {
                assert_eq!(got.levels, want.levels);
                assert_eq!(got.suppressed, want.suppressed);
                assert_eq!(got.loss, want.loss);
                assert_eq!(got.records, want.records);
            }
            (got, want) => panic!("anonymize {got:?}, oracle {want:?}"),
        }
    }
}

/// cell → region → city, with one cell the taxonomy does not know.
fn taxonomy() -> Hierarchy {
    let map = |pairs: &[(&str, &str)]| -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    Hierarchy::Taxonomy {
        maps: vec![
            map(&[("c0", "north"), ("c1", "north"), ("c2", "south")]),
            map(&[("north", "city"), ("south", "city")]),
        ],
    }
}

prop_compose! {
    /// Phone (text, sometimes blank), duration (an `Int`, a `Float`, text
    /// that is no number, or blank) and cell: the value kinds `text()`
    /// renders differently.
    fn arb_record()(
        phone in "[0-9]{0,6}",
        duration in 0i64..600,
        kind in 0u8..8,
        cell in 0u32..4,
    ) -> Record {
        let duration = match kind {
            0 => Value::Null,
            1 => Value::Str("n/a".into()),
            2 => Value::Float(duration as f64 / 7.0),
            3 => Value::Str(duration.to_string().into()),
            _ => Value::Int(duration),
        };
        Record::new(vec![
            Value::from_field(&phone),
            duration,
            Value::Str(format!("c{cell}").into()),
        ])
    }
}

prop_compose! {
    /// [`arb_record`] and a fourth column, the radio technology.
    fn arb_record4()(record in arb_record(), tech in 0u8..4) -> Record {
        let mut values = record.values;
        values.push(Value::from_field(["", "2G", "3G", "4G"][tech as usize]));
        Record::new(values)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_tables_anonymize_as_before(
        records in proptest::collection::vec(arb_record(), 0..90),
        k in 1usize..7,
        suppression in 0usize..4,
    ) {
        let a = Anonymizer::new(
            vec![
                (0, Hierarchy::MaskSuffix { levels: 6 }),
                (1, Hierarchy::NumericRange { base_width: 30.0, levels: 5 }),
                (2, taxonomy()),
            ],
            k,
        )
        .with_suppression_limit(suppression as f64 * 0.05);
        assert_same(&a, &records);
    }

    /// Four quasi-identifiers: a node refines a three-column prefix, one of
    /// whose columns has no level above its values.
    #[test]
    fn four_quasi_identifiers_anonymize_as_before(
        records in proptest::collection::vec(arb_record4(), 0..70),
        k in 1usize..6,
        suppression in 0usize..4,
    ) {
        let a = Anonymizer::new(
            vec![
                (0, Hierarchy::MaskSuffix { levels: 4 }),
                (3, Hierarchy::MaskSuffix { levels: 0 }),
                (1, Hierarchy::NumericRange { base_width: 30.0, levels: 3 }),
                (2, taxonomy()),
            ],
            k,
        )
        .with_suppression_limit(suppression as f64 * 0.05);
        assert_same(&a, &records);
    }
}

/// T5's anonymizer: caller, duration and cell.
fn t5(k: usize) -> Anonymizer {
    Anonymizer::new(
        vec![
            (cdr::CALLER_ID, Hierarchy::MaskSuffix { levels: 10 }),
            (
                cdr::DURATION_S,
                Hierarchy::NumericRange {
                    base_width: 60.0,
                    levels: 6,
                },
            ),
            (cdr::CELL_ID, Hierarchy::MaskSuffix { levels: 4 }),
        ],
        k,
    )
    .with_suppression_limit(0.05)
}

/// Six morning epochs at scale 1/256, and T5's window as the benchmark
/// reads it: twelve busy morning epochs at 1/64, over a thousand records.
#[test]
fn the_t5_anonymizer_over_a_generated_trace_anonymizes_as_before() {
    for (scale, epochs, at_least) in [(256.0, 6, 50), (64.0, 12, 1000)] {
        let records: Vec<Record> = TraceGenerator::new(TraceConfig::scaled(1.0 / scale))
            .skip(14)
            .take(epochs)
            .flat_map(|s| s.cdr)
            .collect();
        assert!(records.len() > at_least, "{} records", records.len());
        for k in [2, 5, 25] {
            assert_same(&t5(k), &records);
        }
    }
}

#[test]
fn a_table_smaller_than_k_anonymizes_as_before() {
    let records: Vec<Record> = (0..4)
        .map(|i| {
            Record::new(vec![
                Value::Str(format!("55501{i}").into()),
                Value::Int(i * 45),
                Value::Str(format!("c{i}").into()),
            ])
        })
        .collect();
    for suppression in [0.0, 0.5, 1.0] {
        for k in [5, 40] {
            let a = Anonymizer::new(
                vec![
                    (0, Hierarchy::MaskSuffix { levels: 6 }),
                    (
                        1,
                        Hierarchy::NumericRange {
                            base_width: 30.0,
                            levels: 5,
                        },
                    ),
                    (2, taxonomy()),
                ],
                k,
            )
            .with_suppression_limit(suppression);
            assert_same(&a, &records);
            assert_eq!(a.anonymize(&records).is_some(), suppression == 1.0);
        }
    }
}

#[test]
fn no_quasi_identifier_is_one_class() {
    let records: Vec<Record> = (0..3).map(|i| Record::new(vec![Value::Int(i)])).collect();
    assert_same(&Anonymizer::new(vec![], 3), &records);
    assert_same(
        &Anonymizer::new(vec![], 4).with_suppression_limit(0.0),
        &records,
    );
}
