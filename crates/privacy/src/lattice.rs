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

    /// Find the minimal generalization satisfying k-anonymity and apply it.
    ///
    /// Returns `None` if even the lattice top (everything suppressed to
    /// `*`) fails — only possible when the table is smaller than `k`.
    pub fn anonymize(&self, records: &[Record]) -> Option<AnonymizedTable> {
        let node = self.search(records)?;
        Some(self.apply(node, records, Record::clone))
    }

    /// [`Self::anonymize`] of records handed over: each kept record is
    /// generalized where it stands instead of copied.
    pub fn anonymize_owned(&self, records: Vec<Record>) -> Option<AnonymizedTable> {
        let node = self.search(&records)?;
        Some(self.apply(node, records, |record| record))
    }

    /// The first node, breadth-first by total generalization (minimality)
    /// over the level lattice, whose records to suppress — those in
    /// classes smaller than `k` — fit the suppression budget.
    fn search(&self, records: &[Record]) -> Option<Node> {
        let maxima: Vec<u32> = self
            .quasi_identifiers
            .iter()
            .map(|(_, h)| h.max_level())
            .collect();
        let mut search = Search::new(&self.quasi_identifiers, records, self.k);
        let budget = (records.len() as f64 * self.suppression_limit) as usize;
        let total_max: u32 = maxima.iter().sum();
        for total in 0..=total_max {
            let mut found: Option<Vec<u32>> = None;
            enumerate_levels(&maxima, total, &mut |levels| {
                if found.is_none() && search.fits(levels, budget) {
                    found = Some(levels.to_vec());
                }
            });
            if let Some(levels) = found {
                let loss = levels
                    .iter()
                    .zip(&maxima)
                    .map(|(&l, &m)| {
                        if m == 0 {
                            0.0
                        } else {
                            f64::from(l) / f64::from(m)
                        }
                    })
                    .sum::<f64>()
                    / levels.len().max(1) as f64;
                return Some(search.into_node(levels, loss));
            }
        }
        None
    }

    /// The table `node` makes of `records`, each kept one taken by `take`.
    fn apply<R>(
        &self,
        node: Node,
        records: impl IntoIterator<Item = R>,
        take: impl Fn(R) -> Record,
    ) -> AnonymizedTable {
        let mut out = Vec::with_capacity(node.kept.len());
        let mut suppressed = 0usize;
        for (i, (r, &keep)) in records.into_iter().zip(&node.kept).enumerate() {
            if !keep {
                suppressed += 1;
                continue;
            }
            let mut rec = take(r);
            for ((col, _), level) in self.quasi_identifiers.iter().zip(&node.columns) {
                let form = level.forms[level.form_of[i] as usize].as_str();
                rec.values[*col] = Value::Str(form.into());
            }
            out.push(rec);
        }
        AnonymizedTable {
            records: out,
            levels: node.levels,
            suppressed,
            loss: node.loss,
        }
    }
}

/// The node the search chose, as applying it needs it.
struct Node {
    levels: Vec<u32>,
    /// Per record, whether the node keeps it.
    kept: Vec<bool>,
    /// Per quasi-identifier, the column at the node's level.
    columns: Vec<Level>,
    loss: f64,
}

/// The lattice search over one table, with the quasi-identifier columns
/// as small integers: each distinct value of a column is generalized
/// once per level and given the id of its generalized form, so no string
/// is built per record or per node.
///
/// A node's classes refine those of its prefix — the same levels for the
/// first `n − 1` quasi-identifiers — so the search keeps the partition of
/// the records by every prefix it has met, keyed by the prefix's levels.
/// A node then costs one pass over its prefix's classes, counting the last
/// column's forms per class in a dense slot array. A partition keeps only
/// classes of at least `k` records: a class refined from a smaller one is
/// smaller still, so its records are suppressed at every node below, and
/// the partition counts them instead of holding them.
///
/// Memory: one partition of at most `n_records` `u32`s per prefix met —
/// at most the product of (max level + 1) over the first `n − 1`
/// quasi-identifiers for the longest prefixes (77 for T5), plus the
/// shorter prefixes (11 for T5).
struct Search<'a> {
    columns: Vec<QiColumn<'a>>,
    k: usize,
    n_records: usize,
    /// The partition by each prefix met, the empty prefix (the whole
    /// table) included.
    prefixes: HashMap<Vec<u32>, Partition>,
    slots: Slots,
}

struct QiColumn<'a> {
    hierarchy: &'a Hierarchy,
    /// The column's distinct values, in order of first appearance.
    distinct: Vec<Cow<'a, str>>,
    /// Per record, the index of its value in `distinct`.
    value_of: Vec<u32>,
    /// Per level, once the search has asked for it.
    levels: Vec<Option<Level>>,
}

/// A column at one level of its hierarchy.
struct Level {
    /// The distinct generalized forms.
    forms: Vec<String>,
    /// Per record, the index of its form.
    form_of: Vec<u32>,
}

/// The records grouped by their classes under a prefix of the
/// quasi-identifiers, classes smaller than `k` left out.
struct Partition {
    /// Record indices, class after class.
    order: Vec<u32>,
    /// Where each class ends in `order`.
    ends: Vec<u32>,
    /// Records in the classes left out.
    dropped: usize,
}

/// Scratch slots indexed by form id, shared by every refinement and zero
/// between them.
struct Slots {
    count: Vec<u32>,
    /// Where the next record of each form goes in a refined partition.
    next: Vec<u32>,
    /// The forms met in the class being refined, in order of first
    /// appearance.
    seen: Vec<u32>,
}

/// `next` of a form whose class is left out.
const LEFT_OUT: u32 = u32::MAX;

impl<'a> Search<'a> {
    fn new(quasi_identifiers: &'a [(usize, Hierarchy)], records: &'a [Record], k: usize) -> Self {
        let columns: Vec<QiColumn<'a>> = quasi_identifiers
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
                    levels: (0..=hierarchy.max_level()).map(|_| None).collect(),
                }
            })
            .collect();
        // A level has no more forms than its column has values.
        let width = columns.iter().map(|c| c.distinct.len()).max().unwrap_or(0);
        let whole = Partition::whole(records.len(), k);
        Self {
            columns,
            k,
            n_records: records.len(),
            prefixes: HashMap::from([(Vec::new(), whole)]),
            slots: Slots {
                count: vec![0; width],
                next: vec![0; width],
                seen: Vec::new(),
            },
        }
    }

    /// Whether the records the node `levels` suppresses — those in
    /// classes smaller than `k` — are at most `budget`.
    fn fits(&mut self, levels: &[u32], budget: usize) -> bool {
        let Some((&last, prefix)) = levels.split_last() else {
            return self.partition(&[]).dropped <= budget;
        };
        let q = prefix.len();
        self.columns[q].level(last);
        self.partition(prefix);
        let form_of = &self.columns[q].computed(last).form_of;
        self.prefixes[prefix].leaves_out_at_most(form_of, self.k, budget, &mut self.slots)
    }

    /// The node `levels`, its records and columns resolved.
    fn into_node(mut self, levels: Vec<u32>, loss: f64) -> Node {
        let mut kept = vec![false; self.n_records];
        for &r in &self.partition(&levels).order {
            kept[r as usize] = true;
        }
        let columns = (self.columns.iter_mut().zip(&levels))
            .map(|(column, &level)| {
                column.levels[level as usize]
                    .take()
                    .expect("the search generalized the column to this level")
            })
            .collect();
        Node {
            levels,
            kept,
            columns,
            loss,
        }
    }

    /// The partition by `prefix`, built from its own prefix's on first
    /// use.
    fn partition(&mut self, prefix: &[u32]) -> &Partition {
        for depth in 1..=prefix.len() {
            if self.prefixes.contains_key(&prefix[..depth]) {
                continue;
            }
            let (q, level) = (depth - 1, prefix[depth - 1]);
            self.columns[q].level(level);
            let form_of = &self.columns[q].computed(level).form_of;
            let parent = &self.prefixes[&prefix[..q]];
            let child = parent.refine(form_of, self.k, &mut self.slots);
            self.prefixes.insert(prefix[..depth].to_vec(), child);
        }
        &self.prefixes[prefix]
    }
}

impl QiColumn<'_> {
    /// The column at `level`, generalized on first use.
    fn level(&mut self, level: u32) {
        let QiColumn {
            hierarchy,
            distinct,
            value_of,
            levels,
        } = self;
        levels[level as usize].get_or_insert_with(|| {
            let (forms, form_of_value) = generalize_all(hierarchy, distinct, level);
            let form_of = value_of
                .iter()
                .map(|&v| form_of_value[v as usize])
                .collect();
            Level { forms, form_of }
        });
    }

    /// The column at a level [`Self::level`] has generalized it to.
    fn computed(&self, level: u32) -> &Level {
        self.levels[level as usize]
            .as_ref()
            .expect("the column was generalized to this level")
    }
}

impl Partition {
    /// The whole table as one class.
    fn whole(n_records: usize, k: usize) -> Self {
        let kept = if n_records < k { 0 } else { n_records };
        Partition {
            order: (0..kept as u32).collect(),
            ends: vec![kept as u32],
            dropped: n_records - kept,
        }
    }

    fn classes(&self) -> impl Iterator<Item = &[u32]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.order[start as usize..end as usize])
    }

    /// This partition with every class split by the records' forms
    /// `form_of`.
    fn refine(&self, form_of: &[u32], k: usize, slots: &mut Slots) -> Partition {
        let mut order = vec![0; self.order.len()];
        let mut ends = Vec::with_capacity(self.ends.len());
        let mut dropped = self.dropped;
        let mut end = 0u32;
        for class in self.classes() {
            slots.count(class, form_of);
            for &form in &slots.seen {
                let n = std::mem::take(&mut slots.count[form as usize]);
                if (n as usize) < k {
                    dropped += n as usize;
                    slots.next[form as usize] = LEFT_OUT;
                } else {
                    slots.next[form as usize] = end;
                    end += n;
                    ends.push(end);
                }
            }
            slots.seen.clear();
            for &r in class {
                let next = &mut slots.next[form_of[r as usize] as usize];
                if *next != LEFT_OUT {
                    order[*next as usize] = r;
                    *next += 1;
                }
            }
        }
        order.truncate(end as usize);
        Partition {
            order,
            ends,
            dropped,
        }
    }

    /// Whether [`Self::refine`] by `form_of` would leave out at most
    /// `budget` records: counted class by class, not built, and given up
    /// once past the budget.
    fn leaves_out_at_most(
        &self,
        form_of: &[u32],
        k: usize,
        budget: usize,
        slots: &mut Slots,
    ) -> bool {
        let mut left_out = self.dropped;
        if left_out > budget {
            return false;
        }
        for class in self.classes() {
            slots.count(class, form_of);
            for &form in &slots.seen {
                let n = std::mem::take(&mut slots.count[form as usize]) as usize;
                if n < k {
                    left_out += n;
                }
            }
            slots.seen.clear();
            if left_out > budget {
                return false;
            }
        }
        true
    }
}

impl Slots {
    /// Count the forms of `class`'s records into `count`, noting each
    /// form met in `seen`.
    fn count(&mut self, class: &[u32], form_of: &[u32]) {
        for &r in class {
            let form = form_of[r as usize];
            let n = &mut self.count[form as usize];
            if *n == 0 {
                self.seen.push(form);
            }
            *n += 1;
        }
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
