//! The Highlights module: materialized event summaries per temporal node.
//!
//! "To enable interactive data exploration we compute 'highlights' from the
//! underlying raw data for each internal node of the temporal index ...
//! effectively materialized views to long-standing queries of users (e.g.,
//! the drop-call counters, bandwidth statistics) ... the highlights can be
//! perceived as an OLAP cube whose construction cost is amortized over
//! time" (§V-B).
//!
//! A highlight summary holds (i) per-cell aggregates of the vital network
//! measures and (ii) value-frequency tables for the analyzed categorical
//! attributes. "Frequent values with an occurrence frequency above
//! threshold θ are treated as no-highlights, whereas values with an
//! occurrence frequency below threshold θ are considered highlights" —
//! [`Highlights::events`] applies exactly that rule, with a separate θ per
//! resolution level.

use shahed::AggStats;
use std::collections::HashMap;
use std::ops::Range;
use telco_trace::record::Record;
use telco_trace::schema::{cdr, nms, Schema};
use telco_trace::snapshot::Snapshot;
use telco_trace::time::{days_in_month, month_start_day, EpochId};

/// Configuration of highlight computation.
#[derive(Debug, Clone)]
pub struct HighlightConfig {
    /// CDR columns analyzed for rare-value (categorical) highlights.
    pub categorical_attrs: Vec<usize>,
    /// Frequency thresholds per resolution: a value is a highlight at a
    /// level when its relative frequency is below the level's θ. "For each
    /// level of resolution a separate frequency threshold θᵢ can be used,
    /// e.g., lower thresholds for higher levels of resolution."
    pub theta_day: f64,
    pub theta_month: f64,
    pub theta_year: f64,
}

impl Default for HighlightConfig {
    fn default() -> Self {
        Self {
            categorical_attrs: vec![cdr::CALL_TYPE, cdr::CALL_RESULT, cdr::TECH, cdr::PLAN_CODE],
            theta_day: 0.02,
            theta_month: 0.01,
            theta_year: 0.005,
        }
    }
}

impl HighlightConfig {
    pub fn theta_for(&self, level: Resolution) -> f64 {
        match level {
            Resolution::Day => self.theta_day,
            Resolution::Month => self.theta_month,
            Resolution::Year | Resolution::Root => self.theta_year,
        }
    }
}

/// Temporal resolution of a summary. Day, month and year are the index's
/// levels of nodes; the root is its one summary of everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    Day,
    Month,
    Year,
    Root,
}

impl Resolution {
    /// The levels of nodes, finest first (`level as usize` is a level's
    /// place here).
    pub const LEVELS: [Resolution; 3] = [Resolution::Day, Resolution::Month, Resolution::Year];

    /// The keys of the periods that hold `epoch`, one per level of
    /// [`Self::LEVELS`]: its day index, `year * 12 + month - 1` and its
    /// year.
    pub fn periods(epoch: EpochId) -> [u32; 3] {
        let civil = epoch.civil();
        [
            epoch.day_index(),
            civil.year * 12 + civil.month - 1,
            civil.year,
        ]
    }

    /// The day indices of period `key` of this level, clipped to the days
    /// an epoch can fall on (the trace starts mid-month and mid-year).
    pub fn days(self, key: u32) -> Range<u32> {
        let (first, end) = match self {
            Resolution::Day => (i64::from(key), i64::from(key) + 1),
            Resolution::Month => {
                let (year, month) = (key / 12, key % 12 + 1);
                let first = month_start_day(year, month);
                (first, first + i64::from(days_in_month(year, month)))
            }
            Resolution::Year => (month_start_day(key, 1), month_start_day(key, 12) + 31),
            Resolution::Root => (0, i64::MAX),
        };
        let last_day = i64::from(EpochId(u32::MAX).day_index());
        let clip = |day: i64| day.clamp(0, last_day + 1) as u32;
        clip(first)..clip(end)
    }

    pub fn label(self) -> &'static str {
        match self {
            Resolution::Day => "day",
            Resolution::Month => "month",
            Resolution::Year => "year",
            Resolution::Root => "root",
        }
    }
}

/// Per-cell aggregates of the vital network measures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellSummary {
    pub cdr_records: u64,
    /// CDR records with `call_result == DROP`.
    pub cdr_drops: u64,
    pub upflux: AggStats,
    pub downflux: AggStats,
    pub duration_s: AggStats,
    pub nms_reports: u64,
    pub attempts: AggStats,
    pub drops: AggStats,
    pub throughput: AggStats,
}

impl CellSummary {
    fn merge(&mut self, other: &CellSummary) {
        self.cdr_records += other.cdr_records;
        self.cdr_drops += other.cdr_drops;
        self.upflux.merge(&other.upflux);
        self.downflux.merge(&other.downflux);
        self.duration_s.merge(&other.duration_s);
        self.nms_reports += other.nms_reports;
        self.attempts.merge(&other.attempts);
        self.drops.merge(&other.drops);
        self.throughput.merge(&other.throughput);
    }

    /// Drop-call rate from the NMS counters of this cell.
    pub fn drop_rate(&self) -> f64 {
        if self.attempts.sum <= 0.0 {
            0.0
        } else {
            self.drops.sum / self.attempts.sum
        }
    }
}

/// Value-frequency table of one categorical attribute.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FreqTable {
    pub counts: HashMap<String, u64>,
    pub total: u64,
}

impl FreqTable {
    /// Count one occurrence of `value`. Public because the table is also
    /// the detector the meta-highlights self-monitor ([`crate::meta`])
    /// feeds system-telemetry categories through.
    pub fn add(&mut self, value: &str) {
        match self.counts.get_mut(value) {
            Some(count) => *count += 1,
            None => {
                self.counts.insert(value.to_string(), 1);
            }
        }
        self.total += 1;
    }

    fn merge(&mut self, other: &FreqTable) {
        for (v, c) in &other.counts {
            *self.counts.entry(v.clone()).or_insert(0) += c;
        }
        self.total += other.total;
    }

    /// Relative frequency of a value.
    pub fn share(&self, value: &str) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts.get(value).copied().unwrap_or(0) as f64 / self.total as f64
        }
    }

    /// The most frequent value (ties broken lexicographically smallest,
    /// for determinism), or `None` on an empty table.
    pub fn modal(&self) -> Option<(&str, u64)> {
        self.counts
            .iter()
            .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then(vb.cmp(va)))
            .map(|(v, c)| (v.as_str(), *c))
    }

    /// The θ-rarity rule of [`Highlights::events`] applied to this table
    /// alone: `(value, count, share)` for every value whose relative
    /// occurrence frequency is below `theta`, rarest first.
    pub fn rare_values(&self, theta: f64) -> Vec<(String, u64, f64)> {
        if self.total == 0 {
            return Vec::new();
        }
        let mut out: Vec<(String, u64, f64)> = self
            .counts
            .iter()
            .map(|(v, &c)| (v.clone(), c, c as f64 / self.total as f64))
            .filter(|(_, _, share)| *share < theta)
            .collect();
        out.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap().then(a.0.cmp(&b.0)));
        out
    }
}

/// A rare-value highlight reported at some resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct HighlightEvent {
    /// Attribute name (its "type" in the paper's terms).
    pub attribute: String,
    pub value: String,
    pub count: u64,
    /// Relative frequency that put it under θ.
    pub share: f64,
}

/// A numeric highlight: "its peaking point (in case of continuous
/// numerical values) and its duration" — a cell whose measure peaked
/// anomalously versus the rest of the network during the covered period.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericHighlight {
    pub cell_id: u32,
    /// Which measure peaked (e.g. `"drop_rate"`, `"downflux_max"`).
    pub measure: &'static str,
    /// The peaking point.
    pub peak: f64,
    /// How many standard deviations above the across-cells mean.
    pub zscore: f64,
    /// Duration: the covered epoch span (paper: a highlight carries its
    /// duration; node summaries are exact to their period).
    pub first_epoch: EpochId,
    pub last_epoch: EpochId,
}

/// The materialized summary of one temporal node.
#[derive(Debug, Clone, PartialEq)]
pub struct Highlights {
    /// Inclusive epoch span covered.
    pub first_epoch: EpochId,
    pub last_epoch: EpochId,
    pub cdr_records: u64,
    pub nms_records: u64,
    pub per_cell: HashMap<u32, CellSummary>,
    /// Frequency tables parallel to `HighlightConfig::categorical_attrs`.
    pub attr_freqs: Vec<FreqTable>,
}

impl Highlights {
    /// Empty summary anchored at an epoch.
    pub fn empty(epoch: EpochId, n_attrs: usize) -> Self {
        Self {
            first_epoch: epoch,
            last_epoch: epoch,
            cdr_records: 0,
            nms_records: 0,
            per_cell: HashMap::new(),
            attr_freqs: vec![FreqTable::default(); n_attrs],
        }
    }

    /// Compute the summary of one snapshot.
    pub fn from_snapshot(snapshot: &Snapshot, config: &HighlightConfig) -> Self {
        let mut h = Self::empty(snapshot.epoch, config.categorical_attrs.len());
        for r in &snapshot.cdr {
            h.add_cdr(r, config);
        }
        for r in &snapshot.nms {
            h.add_nms(r);
        }
        h
    }

    fn add_cdr(&mut self, r: &Record, config: &HighlightConfig) {
        self.cdr_records += 1;
        let cell_id = r.get(cdr::CELL_ID).as_i64().unwrap_or(-1);
        if cell_id >= 0 {
            let cell = self.per_cell.entry(cell_id as u32).or_default();
            cell.cdr_records += 1;
            if r.get(cdr::CALL_RESULT).text() == "DROP" {
                cell.cdr_drops += 1;
            }
            if let Some(v) = r.get(cdr::UPFLUX).as_f64() {
                cell.upflux.add(v);
            }
            if let Some(v) = r.get(cdr::DOWNFLUX).as_f64() {
                cell.downflux.add(v);
            }
            if let Some(v) = r.get(cdr::DURATION_S).as_f64() {
                cell.duration_s.add(v);
            }
        }
        for (i, &col) in config.categorical_attrs.iter().enumerate() {
            let v = r.get(col);
            if !v.is_null() {
                self.attr_freqs[i].add(&v.text());
            }
        }
    }

    fn add_nms(&mut self, r: &Record) {
        self.nms_records += 1;
        let cell_id = r.get(nms::CELL_ID).as_i64().unwrap_or(-1);
        if cell_id < 0 {
            return;
        }
        let cell = self.per_cell.entry(cell_id as u32).or_default();
        cell.nms_reports += 1;
        if let Some(v) = r.get(nms::CALL_ATTEMPTS).as_f64() {
            cell.attempts.add(v);
        }
        if let Some(v) = r.get(nms::CALL_DROPS).as_f64() {
            cell.drops.add(v);
        }
        if let Some(v) = r.get(nms::THROUGHPUT_KBPS).as_f64() {
            cell.throughput.add(v);
        }
    }

    /// Merge a child summary (day → month → year rollup).
    pub fn merge(&mut self, other: &Highlights) {
        self.first_epoch = self.first_epoch.min(other.first_epoch);
        self.last_epoch = self.last_epoch.max(other.last_epoch);
        self.cdr_records += other.cdr_records;
        self.nms_records += other.nms_records;
        for (cell, summary) in &other.per_cell {
            self.per_cell.entry(*cell).or_default().merge(summary);
        }
        debug_assert_eq!(self.attr_freqs.len(), other.attr_freqs.len());
        for (mine, theirs) in self.attr_freqs.iter_mut().zip(&other.attr_freqs) {
            mine.merge(theirs);
        }
    }

    /// The θ-threshold highlight events at a resolution: values whose
    /// relative occurrence frequency is *below* θ.
    pub fn events(&self, config: &HighlightConfig, level: Resolution) -> Vec<HighlightEvent> {
        let theta = config.theta_for(level);
        let schema = Schema::cdr();
        let mut out = Vec::new();
        for (table, &col) in self.attr_freqs.iter().zip(&config.categorical_attrs) {
            for (value, count, share) in table.rare_values(theta) {
                out.push(HighlightEvent {
                    attribute: schema.column_name(col).to_string(),
                    value,
                    count,
                    share,
                });
            }
        }
        out.sort_by(|a, b| a.share.partial_cmp(&b.share).unwrap());
        out
    }

    /// Numeric peaking-point highlights: cells whose measure sits more
    /// than `z_threshold` standard deviations above the across-cells mean
    /// for this period. Covers the paper's continuous-value highlight kind.
    pub fn numeric_events(&self, z_threshold: f64) -> Vec<NumericHighlight> {
        let mut out = Vec::new();
        // (measure name, extractor over a cell summary)
        type Extractor = fn(&CellSummary) -> Option<f64>;
        let measures: [(&'static str, Extractor); 3] = [
            ("drop_rate", |c| {
                (c.attempts.sum > 0.0).then(|| c.drop_rate())
            }),
            ("downflux_max", |c| {
                (c.downflux.count > 0).then_some(c.downflux.max)
            }),
            ("duration_max", |c| {
                (c.duration_s.count > 0).then_some(c.duration_s.max)
            }),
        ];
        for (name, extract) in measures {
            let values: Vec<(u32, f64)> = self
                .per_cell
                .iter()
                .filter_map(|(id, c)| extract(c).map(|v| (*id, v)))
                .collect();
            if values.len() < 3 {
                continue; // no meaningful population statistics
            }
            let n = values.len() as f64;
            let mean = values.iter().map(|(_, v)| v).sum::<f64>() / n;
            let var = values
                .iter()
                .map(|(_, v)| (v - mean) * (v - mean))
                .sum::<f64>()
                / n;
            let sd = var.sqrt();
            if sd <= 1e-12 {
                continue; // a flat network has no peaks
            }
            for (cell_id, v) in values {
                let z = (v - mean) / sd;
                if z >= z_threshold {
                    out.push(NumericHighlight {
                        cell_id,
                        measure: name,
                        peak: v,
                        zscore: z,
                        first_epoch: self.first_epoch,
                        last_epoch: self.last_epoch,
                    });
                }
            }
        }
        out.sort_by(|a, b| b.zscore.partial_cmp(&a.zscore).unwrap());
        out
    }

    /// Restrict the summary to a set of cells (spatial filtering of a
    /// retrieved highlight node by the query's bounding box).
    pub fn filter_cells(&self, cells: &std::collections::HashSet<u32>) -> Highlights {
        let per_cell: HashMap<u32, CellSummary> = self
            .per_cell
            .iter()
            .filter(|(c, _)| cells.contains(c))
            .map(|(c, s)| (*c, s.clone()))
            .collect();
        // Record counts are recomputed from the retained cells so the
        // digest describes the requested region, not the whole period —
        // and so per-shard digests sum to the unsharded one regardless
        // of how cells are partitioned (the scatter-gather invariant).
        let cdr_records = per_cell.values().map(|s| s.cdr_records).sum();
        let nms_records = per_cell.values().map(|s| s.nms_reports).sum();
        Highlights {
            first_epoch: self.first_epoch,
            last_epoch: self.last_epoch,
            cdr_records,
            nms_records,
            per_cell,
            attr_freqs: self.attr_freqs.clone(),
        }
    }

    /// Approximate serialized size, for index-space accounting (`S_i`).
    ///
    /// Estimates a compact on-disk encoding (varint counters, delta-coded
    /// aggregates) rather than the in-memory `HashMap` footprint — the
    /// stored form is what the paper's space metric charges.
    pub fn approx_bytes(&self) -> u64 {
        const CELL_SUMMARY_ENCODED: u64 = 64;
        let cell_bytes = self.per_cell.len() as u64 * CELL_SUMMARY_ENCODED;
        let freq_bytes: u64 = self
            .attr_freqs
            .iter()
            .map(|t| t.counts.keys().map(|k| k.len() as u64 + 16).sum::<u64>())
            .sum();
        64 + cell_bytes + freq_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telco_trace::record::Value;

    fn cdr_record(cell: i64, result: &str, up: i64, down: i64) -> Record {
        let mut values = vec![Value::Null; cdr::WIDTH];
        values[cdr::CELL_ID] = Value::Int(cell);
        values[cdr::CALL_RESULT] = Value::Str(result.into());
        values[cdr::CALL_TYPE] = Value::Str("VOICE".into());
        values[cdr::TECH] = Value::Str("LTE".into());
        values[cdr::PLAN_CODE] = Value::Str("PLAN0".into());
        values[cdr::UPFLUX] = Value::Int(up);
        values[cdr::DOWNFLUX] = Value::Int(down);
        values[cdr::DURATION_S] = Value::Int(60);
        Record::new(values)
    }

    fn nms_record(cell: i64, attempts: i64, drops: i64) -> Record {
        let mut values = vec![Value::Null; nms::WIDTH];
        values[nms::CELL_ID] = Value::Int(cell);
        values[nms::CALL_ATTEMPTS] = Value::Int(attempts);
        values[nms::CALL_DROPS] = Value::Int(drops);
        values[nms::THROUGHPUT_KBPS] = Value::Float(1000.0);
        Record::new(values)
    }

    fn snapshot_with(cdr_rows: Vec<Record>, nms_rows: Vec<Record>) -> Snapshot {
        Snapshot::new(EpochId(5), cdr_rows, nms_rows)
    }

    #[test]
    fn summary_aggregates_per_cell() {
        let snap = snapshot_with(
            vec![
                cdr_record(1, "SUCCESS", 100, 1000),
                cdr_record(1, "DROP", 0, 0),
                cdr_record(2, "SUCCESS", 50, 500),
            ],
            vec![nms_record(1, 40, 2), nms_record(2, 10, 0)],
        );
        let config = HighlightConfig::default();
        let h = Highlights::from_snapshot(&snap, &config);
        assert_eq!(h.cdr_records, 3);
        assert_eq!(h.nms_records, 2);
        let c1 = &h.per_cell[&1];
        assert_eq!(c1.cdr_records, 2);
        assert_eq!(c1.cdr_drops, 1);
        assert_eq!(c1.upflux.sum, 100.0);
        assert_eq!(c1.attempts.sum, 40.0);
        assert!((c1.drop_rate() - 0.05).abs() < 1e-12);
        let c2 = &h.per_cell[&2];
        assert_eq!(c2.cdr_drops, 0);
        assert_eq!(c2.downflux.max, 500.0);
    }

    #[test]
    fn merge_rolls_up() {
        let config = HighlightConfig::default();
        let a = Highlights::from_snapshot(
            &snapshot_with(vec![cdr_record(1, "SUCCESS", 10, 20)], vec![]),
            &config,
        );
        let mut b = Highlights::from_snapshot(
            &snapshot_with(
                vec![cdr_record(1, "DROP", 30, 40)],
                vec![nms_record(1, 5, 1)],
            ),
            &config,
        );
        b.merge(&a);
        assert_eq!(b.cdr_records, 2);
        let c1 = &b.per_cell[&1];
        assert_eq!(c1.cdr_records, 2);
        assert_eq!(c1.cdr_drops, 1);
        assert_eq!(c1.upflux.sum, 40.0);
        assert_eq!(c1.upflux.max, 30.0);
        // Frequency tables merged too.
        let result_table = &b.attr_freqs[1]; // CALL_RESULT
        assert_eq!(result_table.counts["SUCCESS"], 1);
        assert_eq!(result_table.counts["DROP"], 1);
        assert_eq!(result_table.total, 2);
    }

    #[test]
    fn rare_values_become_highlights() {
        let config = HighlightConfig::default();
        // 999 SUCCESS + 1 FAIL: FAIL share 0.001 < θ_day 0.02.
        let mut rows: Vec<Record> = (0..999).map(|_| cdr_record(1, "SUCCESS", 1, 1)).collect();
        rows.push(cdr_record(1, "FAIL", 1, 1));
        let h = Highlights::from_snapshot(&snapshot_with(rows, vec![]), &config);
        let events = h.events(&config, Resolution::Day);
        assert!(
            events
                .iter()
                .any(|e| e.attribute == "call_result" && e.value == "FAIL"),
            "{events:?}"
        );
        // SUCCESS is frequent → not a highlight.
        assert!(!events.iter().any(|e| e.value == "SUCCESS"));
        // The same value with share 0.001 is NOT a highlight at θ_year if
        // we tighten θ below it.
        let strict = HighlightConfig {
            theta_year: 0.0005,
            ..config
        };
        let events = h.events(&strict, Resolution::Year);
        assert!(!events.iter().any(|e| e.value == "FAIL"));
    }

    #[test]
    fn theta_per_level_is_respected() {
        let config = HighlightConfig::default();
        assert!(config.theta_for(Resolution::Day) > config.theta_for(Resolution::Month));
        assert!(config.theta_for(Resolution::Month) > config.theta_for(Resolution::Year));
        assert_eq!(
            config.theta_for(Resolution::Root),
            config.theta_for(Resolution::Year)
        );
    }

    #[test]
    fn filter_cells_restricts_spatially() {
        let config = HighlightConfig::default();
        let h = Highlights::from_snapshot(
            &snapshot_with(
                vec![
                    cdr_record(1, "SUCCESS", 1, 1),
                    cdr_record(2, "SUCCESS", 1, 1),
                ],
                vec![],
            ),
            &config,
        );
        let keep: std::collections::HashSet<u32> = [2u32].into_iter().collect();
        let filtered = h.filter_cells(&keep);
        assert!(!filtered.per_cell.contains_key(&1));
        assert!(filtered.per_cell.contains_key(&2));
        // Record counts follow the retained cells: the digest describes
        // the requested region, not the whole covered period.
        assert_eq!(filtered.cdr_records, 1);
    }

    #[test]
    fn numeric_peaks_are_flagged() {
        let config = HighlightConfig::default();
        // 20 ordinary cells plus one with a pathological drop rate.
        let mut rows: Vec<Record> = Vec::new();
        let mut nms_rows: Vec<Record> = Vec::new();
        for cell in 0..20i64 {
            nms_rows.push(nms_record(cell, 100, 2)); // 2% drops
        }
        nms_rows.push(nms_record(99, 100, 60)); // 60% drops
        rows.push(cdr_record(1, "SUCCESS", 1, 1));
        let h = Highlights::from_snapshot(&snapshot_with(rows, nms_rows), &config);

        let events = h.numeric_events(3.0);
        let drop_events: Vec<_> = events.iter().filter(|e| e.measure == "drop_rate").collect();
        assert_eq!(drop_events.len(), 1, "{events:?}");
        assert_eq!(drop_events[0].cell_id, 99);
        assert!((drop_events[0].peak - 0.6).abs() < 1e-9);
        assert!(drop_events[0].zscore > 3.0);
        // Duration covers the node's span.
        assert_eq!(drop_events[0].first_epoch, h.first_epoch);
    }

    #[test]
    fn flat_networks_produce_no_numeric_highlights() {
        let config = HighlightConfig::default();
        let nms_rows: Vec<Record> = (0..10).map(|c| nms_record(c, 50, 1)).collect();
        let h = Highlights::from_snapshot(&snapshot_with(vec![], nms_rows), &config);
        assert!(h.numeric_events(3.0).is_empty());
        // Too few cells → no population statistics → no highlights.
        let h2 =
            Highlights::from_snapshot(&snapshot_with(vec![], vec![nms_record(0, 10, 9)]), &config);
        assert!(h2.numeric_events(1.0).is_empty());
    }

    #[test]
    fn span_tracking() {
        let config = HighlightConfig::default();
        let mut a = Highlights::empty(EpochId(10), config.categorical_attrs.len());
        let b = Highlights::empty(EpochId(3), config.categorical_attrs.len());
        a.merge(&b);
        assert_eq!(a.first_epoch, EpochId(3));
        assert_eq!(a.last_epoch, EpochId(10));
    }

    #[test]
    fn approx_bytes_grows_with_cells() {
        let config = HighlightConfig::default();
        let small = Highlights::from_snapshot(
            &snapshot_with(vec![cdr_record(1, "SUCCESS", 1, 1)], vec![]),
            &config,
        );
        let big = Highlights::from_snapshot(
            &snapshot_with(
                (0..100).map(|c| cdr_record(c, "SUCCESS", 1, 1)).collect(),
                vec![],
            ),
            &config,
        );
        assert!(big.approx_bytes() > small.approx_bytes());
    }
}
