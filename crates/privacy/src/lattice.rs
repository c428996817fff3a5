//! The generalization lattice and the minimal k-anonymization search.
//!
//! Every combination of per-QI generalization levels is a lattice node;
//! generalization is monotone (raising any level only merges equivalence
//! classes), so the bottom-up breadth-first search by total level returns a
//! *minimal* satisfying node, the same optimality criterion ARX's OLA/Flash
//! algorithms use.

use crate::hierarchy::Hierarchy;
use std::borrow::Cow;
use std::collections::HashMap;
use telco_trace::record::{Record, Value};

/// A k-anonymization task over records.
#[derive(Debug, Clone)]
pub struct Anonymizer {
    /// `(column index, hierarchy)` per quasi-identifier.
    pub quasi_identifiers: Vec<(usize, Hierarchy)>,
    /// Minimum equivalence-class size.
    pub k: usize,
    /// Fraction of records that may be suppressed outright (ARX default 0).
    pub suppression_limit: f64,
}

/// Result of anonymization.
#[derive(Debug)]
pub struct AnonymizedTable {
    /// Generalized records (suppressed rows removed).
    pub records: Vec<Record>,
    /// The chosen generalization level per QI.
    pub levels: Vec<u32>,
    pub suppressed: usize,
    /// Information-loss proxy: mean fraction of hierarchy height used.
    pub loss: f64,
}

/// Check k-anonymity of `records` over the raw values of `qi_cols`.
pub fn is_k_anonymous(records: &[Record], qi_cols: &[usize], k: usize) -> bool {
    if records.is_empty() {
        return true;
    }
    let mut classes: HashMap<Vec<Cow<'_, str>>, usize> = HashMap::new();
    for r in records {
        let key: Vec<Cow<'_, str>> = qi_cols.iter().map(|&c| r.get(c).text()).collect();
        *classes.entry(key).or_insert(0) += 1;
    }
    classes.values().all(|&n| n >= k)
}

impl Anonymizer {
    pub fn new(quasi_identifiers: Vec<(usize, Hierarchy)>, k: usize) -> Self {
        assert!(k >= 1);
        Self {
            quasi_identifiers,
            k,
            suppression_limit: 0.02,
        }
    }

    pub fn with_suppression_limit(mut self, limit: f64) -> Self {
        assert!((0.0..=1.0).contains(&limit));
        self.suppression_limit = limit;
        self
    }

    /// Does this node satisfy k-anonymity within the suppression budget?
    /// Returns the number of suppressed records on success.
    fn check(&self, table: &mut QiTable<'_>, levels: &[u32]) -> Option<usize> {
        let (_, sizes) = table.classes(levels);
        let to_suppress: usize = sizes.iter().filter(|&&n| n < self.k).sum();
        let budget = (table.n_records as f64 * self.suppression_limit) as usize;
        (to_suppress <= budget).then_some(to_suppress)
    }

    /// Find the minimal generalization satisfying k-anonymity and apply it.
    ///
    /// Returns `None` if even the lattice top (everything suppressed to
    /// `*`) fails — only possible when the table is smaller than `k`.
    pub fn anonymize(&self, records: &[Record]) -> Option<AnonymizedTable> {
        if records.is_empty() {
            return Some(AnonymizedTable {
                records: vec![],
                levels: vec![0; self.quasi_identifiers.len()],
                suppressed: 0,
                loss: 0.0,
            });
        }
        let maxima: Vec<u32> = self
            .quasi_identifiers
            .iter()
            .map(|(_, h)| h.max_level())
            .collect();
        let mut table = QiTable::new(&self.quasi_identifiers, records);

        // Breadth-first by total generalization (minimality), enumerating
        // the level lattice.
        let total_max: u32 = maxima.iter().sum();
        for budget in 0..=total_max {
            let mut found: Option<Vec<u32>> = None;
            enumerate_levels(&maxima, budget, &mut |levels| {
                if found.is_none() && self.check(&mut table, levels).is_some() {
                    found = Some(levels.to_vec());
                }
            });
            if let Some(levels) = found {
                return Some(self.apply(records, &mut table, &levels, &maxima));
            }
        }
        None
    }

    fn apply(
        &self,
        records: &[Record],
        table: &mut QiTable<'_>,
        levels: &[u32],
        maxima: &[u32],
    ) -> AnonymizedTable {
        let (classes, sizes) = table.classes(levels);
        let mut out = Vec::with_capacity(records.len());
        let mut suppressed = 0usize;
        for (i, (r, &class)) in records.iter().zip(&classes).enumerate() {
            if sizes[class as usize] < self.k {
                suppressed += 1;
                continue;
            }
            let mut rec = r.clone();
            for (q, ((col, _), &lvl)) in self.quasi_identifiers.iter().zip(levels).enumerate() {
                rec.values[*col] = Value::Str(table.generalized(q, lvl, i).into());
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
}

/// The quasi-identifier columns of a table as small integers. The search
/// visits hundreds of lattice nodes over the same records, and a node only
/// asks which records generalize alike: each distinct value of a column is
/// generalized once per level and given the id of its generalized form, so
/// a node's equivalence classes are counted over id tuples and no string
/// is built per record.
struct QiTable<'a> {
    columns: Vec<QiColumn<'a>>,
    n_records: usize,
}

struct QiColumn<'a> {
    hierarchy: &'a Hierarchy,
    /// The column's distinct values, in order of first appearance.
    distinct: Vec<Cow<'a, str>>,
    /// Per record, the index of its value in `distinct`.
    value_of: Vec<u32>,
    /// Per level, once a node has asked for it: the generalized forms at
    /// that level and, per distinct value, the index of its form.
    levels: Vec<Option<(Vec<String>, Vec<u32>)>>,
}

impl<'a> QiTable<'a> {
    fn new(quasi_identifiers: &'a [(usize, Hierarchy)], records: &'a [Record]) -> Self {
        let columns = quasi_identifiers
            .iter()
            .map(|(col, hierarchy)| {
                let mut ids: HashMap<Cow<'a, str>, u32> = HashMap::new();
                let mut distinct = Vec::new();
                let value_of = records
                    .iter()
                    .map(|r| {
                        let value = r.get(*col).text();
                        *ids.entry(value).or_insert_with_key(|value| {
                            distinct.push(value.clone());
                            distinct.len() as u32 - 1
                        })
                    })
                    .collect();
                QiColumn {
                    hierarchy,
                    distinct,
                    value_of,
                    levels: vec![None; hierarchy.max_level() as usize + 1],
                }
            })
            .collect();
        Self {
            columns,
            n_records: records.len(),
        }
    }

    /// The equivalence classes at a lattice node: each record's class and
    /// each class's size. Two records share a class when every column
    /// generalizes them to the same form.
    fn classes(&mut self, levels: &[u32]) -> (Vec<u32>, Vec<usize>) {
        let mut class_of = vec![0u32; self.n_records];
        let mut n_classes = 1;
        for (column, &level) in self.columns.iter_mut().zip(levels) {
            let QiColumn {
                hierarchy,
                distinct,
                value_of,
                levels,
            } = column;
            let (_, form_of) = levels[level as usize]
                .get_or_insert_with(|| generalize_all(hierarchy, distinct, level));
            // Refine the classes so far by this column's forms.
            let mut refined: HashMap<(u32, u32), u32> = HashMap::new();
            for (class, &value) in class_of.iter_mut().zip(value_of.iter()) {
                let next = refined.len() as u32;
                *class = *refined
                    .entry((*class, form_of[value as usize]))
                    .or_insert(next);
            }
            n_classes = refined.len();
        }
        let mut sizes = vec![0usize; n_classes];
        for &class in &class_of {
            sizes[class as usize] += 1;
        }
        (class_of, sizes)
    }

    /// The generalized form of `record`'s value in column `q`, at a level
    /// [`Self::classes`] has been asked about.
    fn generalized(&self, q: usize, level: u32, record: usize) -> &str {
        let column = &self.columns[q];
        let (forms, form_of) = column.levels[level as usize]
            .as_ref()
            .expect("classes() ran at this level");
        &forms[form_of[column.value_of[record] as usize] as usize]
    }
}

/// Generalize every distinct value of a column at `level`: the distinct
/// forms and, per value, the index of its form.
fn generalize_all(
    hierarchy: &Hierarchy,
    distinct: &[Cow<'_, str>],
    level: u32,
) -> (Vec<String>, Vec<u32>) {
    let mut ids: HashMap<String, u32> = HashMap::new();
    let form_of = distinct
        .iter()
        .map(|value| {
            let next = ids.len() as u32;
            *ids.entry(hierarchy.generalize(value, level))
                .or_insert(next)
        })
        .collect();
    let mut forms = vec![String::new(); ids.len()];
    for (form, id) in ids {
        forms[id as usize] = form;
    }
    (forms, form_of)
}

/// Visit every level vector with the given total sum (bounded per-QI).
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
    let mut cur = Vec::with_capacity(maxima.len());
    rec(maxima, 0, total, &mut cur, visit);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(phone: &str, duration: i64, cell: &str) -> Record {
        Record::new(vec![
            Value::Str(phone.into()),
            Value::Int(duration),
            Value::Str(cell.into()),
        ])
    }

    fn qis() -> Vec<(usize, Hierarchy)> {
        vec![
            (0, Hierarchy::MaskSuffix { levels: 7 }),
            (
                1,
                Hierarchy::NumericRange {
                    base_width: 10.0,
                    levels: 4,
                },
            ),
        ]
    }

    #[test]
    fn already_anonymous_data_needs_no_generalization() {
        // Four identical QI tuples: 2-anonymous at level 0.
        let records: Vec<Record> = (0..4).map(|_| record("5550000", 15, "c1")).collect();
        let a = Anonymizer::new(qis(), 2).with_suppression_limit(0.0);
        let result = a.anonymize(&records).unwrap();
        assert_eq!(result.levels, vec![0, 0]);
        assert_eq!(result.suppressed, 0);
        assert_eq!(result.records.len(), 4);
        assert_eq!(result.loss, 0.0);
    }

    #[test]
    fn distinct_phones_force_generalization() {
        let records: Vec<Record> = (0..8)
            .map(|i| record(&format!("555000{i}"), 15, "c1"))
            .collect();
        let a = Anonymizer::new(qis(), 4).with_suppression_limit(0.0);
        let result = a.anonymize(&records).unwrap();
        assert!(result.levels[0] >= 1, "phone digits must be masked");
        assert_eq!(result.records.len(), 8);
        // Output must be k-anonymous on the generalized QI columns.
        assert!(is_k_anonymous(&result.records, &[0, 1], 4));
    }

    #[test]
    fn result_is_always_k_anonymous() {
        // Mixed durations and phones.
        let records: Vec<Record> = (0..40)
            .map(|i| record(&format!("55512{:02}", i % 20), i64::from(i) * 3, "c1"))
            .collect();
        for k in [2usize, 5, 10] {
            let a = Anonymizer::new(qis(), k).with_suppression_limit(0.05);
            let result = a.anonymize(&records).unwrap();
            assert!(
                is_k_anonymous(&result.records, &[0, 1], k),
                "k={k} levels {:?}",
                result.levels
            );
            assert!(result.suppressed <= 2, "suppression within the 5% budget");
        }
    }

    #[test]
    fn minimality_prefers_less_generalization() {
        // Two groups of 3 identical phones; durations differ within group.
        let mut records = Vec::new();
        for i in 0..3 {
            records.push(record("1111111", 10 + i, "c1"));
            records.push(record("2222222", 50 + i, "c2"));
        }
        let a = Anonymizer::new(qis(), 3).with_suppression_limit(0.0);
        let result = a.anonymize(&records).unwrap();
        // Phones are already 3-anonymous; only duration needs widening.
        assert_eq!(result.levels[0], 0, "levels: {:?}", result.levels);
        assert!(result.levels[1] >= 1);
    }

    #[test]
    fn suppression_budget_absorbs_outliers() {
        // 20 records in one class + 1 outlier: with 5% suppression the
        // outlier is dropped instead of generalizing everyone.
        let mut records: Vec<Record> = (0..20).map(|_| record("9999999", 10, "c1")).collect();
        records.push(record("1234567", 999, "c9"));
        let a = Anonymizer::new(qis(), 5).with_suppression_limit(0.05);
        let result = a.anonymize(&records).unwrap();
        assert_eq!(result.levels, vec![0, 0]);
        assert_eq!(result.suppressed, 1);
        assert_eq!(result.records.len(), 20);
    }

    #[test]
    fn table_smaller_than_k_suppresses_to_top_or_fails() {
        let records = vec![record("1", 1, "c"), record("2", 2, "c")];
        let a = Anonymizer::new(qis(), 3).with_suppression_limit(0.0);
        // At the top, both rows become ("*", "*") — a class of 2 < 3, and
        // nothing may be suppressed, so anonymization must fail.
        assert!(a.anonymize(&records).is_none());
        // With full suppression allowed it trivially succeeds (empty output).
        let a = Anonymizer::new(qis(), 3).with_suppression_limit(1.0);
        let result = a.anonymize(&records).unwrap();
        assert!(result.records.is_empty());
    }

    #[test]
    fn empty_input_is_fine() {
        let a = Anonymizer::new(qis(), 5);
        let result = a.anonymize(&[]).unwrap();
        assert!(result.records.is_empty());
        assert_eq!(result.suppressed, 0);
    }

    #[test]
    fn is_k_anonymous_checker() {
        let records = vec![
            record("a", 1, "c"),
            record("a", 1, "c"),
            record("b", 2, "c"),
        ];
        assert!(is_k_anonymous(&records, &[0], 1));
        assert!(!is_k_anonymous(&records, &[0], 2));
        assert!(is_k_anonymous(&records, &[2], 3));
        assert!(is_k_anonymous(&[], &[0], 10));
    }

    #[test]
    fn enumerate_levels_visits_exact_sums() {
        let mut seen = Vec::new();
        enumerate_levels(&[2, 2], 2, &mut |l| seen.push(l.to_vec()));
        seen.sort();
        assert_eq!(seen, vec![vec![0, 2], vec![1, 1], vec![2, 0]]);

        let mut count = 0;
        enumerate_levels(&[1, 1, 1], 3, &mut |_| count += 1);
        assert_eq!(count, 1); // only [1,1,1]
    }
}
