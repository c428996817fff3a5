//! The trace generator: deterministic synthetic CDR/NMS streams with the
//! paper trace's cardinalities, skew and arrival pattern.

use crate::cells::CellLayout;
use crate::load;
use crate::record::{Record, Value};
use crate::schema::{cdr, nms, FillerClass, Schema};
use crate::snapshot::Snapshot;
use crate::text::Text;
use crate::time::{EpochId, EPOCHS_PER_DAY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a synthetic trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Master seed; everything downstream derives from it.
    pub seed: u64,
    /// Trace length in days (the paper's trace spans 1 week).
    pub days: u32,
    pub n_users: u32,
    pub n_cells: u32,
    pub n_antennas: u32,
    /// Mean CDR records per epoch at activity 1.0.
    pub cdr_base_per_epoch: f64,
    /// Mean NMS reports per cell per epoch at activity 1.0.
    pub nms_reports_per_cell: f64,
}

impl TraceConfig {
    /// Paper-scale parameters: 1 week, ~300K users, 3660 cells on 1192
    /// antennas, ~1.7M CDR and ~21M NMS records total (§VII-C).
    pub fn paper() -> Self {
        Self {
            seed: 2016,
            days: 7,
            n_users: 300_000,
            n_cells: 3660,
            n_antennas: 1192,
            // 1.7M / 336 epochs ≈ 5060 CDR per epoch.
            cdr_base_per_epoch: 5060.0,
            // 21M / 336 / 3660 ≈ 17 NMS reports per cell per epoch.
            nms_reports_per_cell: 17.0,
        }
    }

    /// Scale record volume by `f` (0 < f ≤ 1). Cells/antennas shrink with
    /// f^0.75 — slower than volume, so spatial density stays reasonable,
    /// but fast enough that the per-cell NMS report multiplicity (the
    /// redundancy that drives the paper's compression ratios) survives
    /// down-scaling. NMS-per-cell is derived so the paper's ~12:1 NMS:CDR
    /// record ratio is preserved.
    pub fn scaled(f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0);
        let p = Self::paper();
        let n_cells = ((f64::from(p.n_cells) * f.powf(0.75)) as u32).max(24);
        let n_antennas = (n_cells / 3).max(8);
        let cdr_base = (p.cdr_base_per_epoch * f).max(8.0);
        let nms_total_ratio = 21.0 / 1.7; // paper record ratio
        Self {
            seed: p.seed,
            days: p.days,
            n_users: ((f64::from(p.n_users) * f) as u32).max(64),
            n_cells,
            n_antennas,
            cdr_base_per_epoch: cdr_base,
            nms_reports_per_cell: nms_total_ratio * cdr_base / f64::from(n_cells),
        }
    }

    /// Scale-out profile: a million-subscriber network observed for three
    /// weeks on the paper's full cell grid. `volume` scales only record
    /// volume (0 < volume ≤ 1) so the scale benchmark can trade epoch
    /// weight against wall-clock without changing the spatial shape the
    /// shard router partitions over.
    pub fn million_user(volume: f64) -> Self {
        assert!(volume > 0.0 && volume <= 1.0);
        let p = Self::paper();
        // Paper per-user rate (5060 CDR/epoch over 300K users) extended
        // to 1M subscribers, then thinned by `volume`.
        let cdr_base = (p.cdr_base_per_epoch / f64::from(p.n_users)) * 1.0e6 * volume;
        let nms_total_ratio = 21.0 / 1.7; // paper NMS:CDR record ratio
        Self {
            seed: p.seed,
            days: 21,
            n_users: 1_000_000,
            n_cells: p.n_cells,
            n_antennas: p.n_antennas,
            cdr_base_per_epoch: cdr_base,
            nms_reports_per_cell: nms_total_ratio * cdr_base / f64::from(p.n_cells),
        }
    }

    /// Small deterministic configuration for unit tests and quick demos.
    pub fn tiny() -> Self {
        let mut c = Self::scaled(1.0 / 1024.0);
        c.days = 2;
        c
    }

    pub fn total_epochs(&self) -> u32 {
        self.days * EPOCHS_PER_DAY
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_days(mut self, days: u32) -> Self {
        self.days = days;
        self
    }
}

/// Per-user mobility state.
#[derive(Debug, Clone, Copy)]
struct UserState {
    current_cell: u32,
}

/// Stateful generator: yields snapshots in epoch order (mobility state
/// evolves between epochs, so order matters for determinism).
pub struct TraceGenerator {
    config: TraceConfig,
    layout: CellLayout,
    users: Vec<UserState>,
    cdr_schema: Schema,
    next_epoch: u32,
    next_record_id: u64,
}

impl TraceGenerator {
    pub fn new(config: TraceConfig) -> Self {
        let layout = CellLayout::generate(config.n_cells, config.n_antennas, config.seed);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x05E7_0F00);
        let users = (0..config.n_users)
            .map(|_| UserState {
                current_cell: layout.sample_popular(&mut rng),
            })
            .collect();
        Self {
            config,
            layout,
            users,
            cdr_schema: Schema::cdr(),
            next_epoch: 0,
            next_record_id: 1,
        }
    }

    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    pub fn layout(&self) -> &CellLayout {
        &self.layout
    }

    /// Activity-skewed user sampling (a few heavy users dominate).
    fn sample_user(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen();
        ((u * u) * f64::from(self.config.n_users)) as u32 % self.config.n_users
    }

    fn user_msisdn(user_idx: u32) -> String {
        format!("82{:08}", user_idx)
    }

    fn fill_filler(rng: &mut StdRng, class: FillerClass) -> Value {
        match class {
            FillerClass::Blank => Value::Null,
            FillerClass::Zero => Value::Int(0),
            FillerClass::Categorical { cardinality, skew } => {
                if rng.gen_bool(skew) {
                    Value::Str("A0".into())
                } else {
                    Value::Str(format!("A{}", rng.gen_range(1..cardinality)).into())
                }
            }
            FillerClass::Counter { max, zero_bias } => {
                if rng.gen_bool(zero_bias) {
                    Value::Int(0)
                } else {
                    // Geometric-ish decay toward small counts.
                    let u: f64 = rng.gen();
                    Value::Int((u * u * f64::from(max)) as i64)
                }
            }
        }
    }

    fn generate_cdr_record(&mut self, rng: &mut StdRng, epoch: EpochId) -> Record {
        let caller = self.sample_user(rng);
        let callee = self.sample_user(rng);
        // Mobility: ~10% of observed users moved since their last record.
        if rng.gen_bool(0.10) {
            let next = self
                .layout
                .neighbor(self.users[caller as usize].current_cell, rng);
            self.users[caller as usize].current_cell = next;
        }
        let cell_id = self.users[caller as usize].current_cell;
        let cell = self.layout.get(cell_id);

        let call_type = match rng.gen_range(0..100) {
            0..=54 => "VOICE",
            55..=79 => "SMS",
            _ => "DATA",
        };
        let call_result = match rng.gen_range(0..100) {
            0..=91 => "SUCCESS",
            92..=94 => "DROP",
            95..=97 => "BUSY",
            _ => "FAIL",
        };
        // Durations are billed in 5-second increments.
        let duration_s: i64 = match call_type {
            "SMS" => 0,
            "VOICE" => rng.gen_range(1..120) * 5,
            _ => rng.gen_range(1..60) * 30,
        };
        let (upflux, downflux) = if call_type == "DATA" {
            // Byte counters are accounted in KB blocks by the mediation
            // system, like most real billing pipelines.
            let up = rng.gen_range(1..500i64) * 1_000;
            (up, up * rng.gen_range(2..20))
        } else {
            (0, 0)
        };
        let offset_min = rng.gen_range(0..30u64);
        let start = EpochId::from_minutes(epoch.start_minutes() + offset_min);
        debug_assert_eq!(start, epoch);

        let mut values = Vec::with_capacity(cdr::WIDTH);
        values.push(Value::Int(self.next_record_id as i64)); // RECORD_ID
        self.next_record_id += 1;
        values.push(Value::Str(Self::user_msisdn(caller).into())); // CALLER_ID
        values.push(Value::Str(Self::user_msisdn(callee).into())); // CALLEE_ID
        values.push(Value::Int(i64::from(cell_id))); // CELL_ID
        let civil = Text::from(epoch.civil().compact());
        values.push(Value::Str(civil.clone())); // TS_START
        values.push(Value::Str(civil)); // TS_END (same epoch granularity)
        values.push(Value::Int(duration_s)); // DURATION_S
        values.push(Value::Str(call_type.into())); // CALL_TYPE
        values.push(Value::Str(call_result.into())); // CALL_RESULT
        values.push(Value::Int(upflux)); // UPFLUX
        values.push(Value::Int(downflux)); // DOWNFLUX
        values.push(Value::Str(cell.tech.label().into())); // TECH
        values.push(Value::Int(i64::from(rng.gen_bool(0.02)))); // ROAMING
        values.push(Value::Str(format!("PLAN{}", caller % 7).into())); // PLAN_CODE
        values.push(Value::Int(i64::from(cell.controller_id))); // BSC_ID
        values.push(Value::Int(i64::from(cell.region))); // LAC
        values.push(Value::Int(i64::from(caller % 4))); // BILLING_CLASS
        values.push(Value::Str("280-01".into())); // MCC_MNC (constant: one operator)

        for col in &self.cdr_schema.columns[cdr::FILLER_START..] {
            values.push(Self::fill_filler(rng, col.filler.expect("filler column")));
        }
        debug_assert_eq!(values.len(), cdr::WIDTH);
        Record::new(values)
    }

    fn generate_nms_records(&self, rng: &mut StdRng, epoch: EpochId, out: &mut Vec<Record>) {
        let act = load::activity(epoch);
        // Expected reports per cell this epoch; may be fractional at small
        // scales, in which case cells are subsampled.
        let expected = self.config.nms_reports_per_cell * act;
        let whole = expected.floor() as usize;
        let frac = expected - expected.floor();
        let civil = Text::from(epoch.civil().compact());
        for c in &self.layout.cells {
            let reports = whole + usize::from(frac > 0.0 && rng.gen_bool(frac));
            // The cell's base load this epoch is deterministic (popularity
            // × diurnal activity); successive counter reports for the same
            // cell differ only by small noise — real OSS counters are
            // heavily correlated, which is what makes them so compressible.
            let base_load = (act * 40.0 * (1.0 + f64::from(c.cell_id % 7) * 0.2)) as i64;
            // Radio conditions are stable within one 30-minute epoch: the
            // cell's throughput bucket and signal level are sampled once
            // per cell-epoch, and the ~17 counter reports of that cell
            // differ only in load noise. This per-report redundancy is the
            // property that gives real OSS files their high compression
            // ratios (Table I).
            let throughput_kbps = match c.tech {
                crate::cells::Tech::Gsm => rng.gen_range(0..2) * 100,
                crate::cells::Tech::Umts => rng.gen_range(5..40) * 100,
                crate::cells::Tech::Lte => rng.gen_range(5..60) * 1_000,
            };
            let rssi_dbm = -rng.gen_range(30..55) * 2;
            for _ in 0..reports {
                let attempts = base_load + rng.gen_range(0..4);
                let drop_rate = match c.tech {
                    crate::cells::Tech::Gsm => 0.030,
                    crate::cells::Tech::Umts => 0.020,
                    crate::cells::Tech::Lte => 0.008,
                };
                let drops = ((attempts as f64) * drop_rate * rng.gen_range(0.0..2.0)) as i64;
                let mut values = Vec::with_capacity(nms::WIDTH);
                values.push(Value::Str(civil.clone())); // TS
                values.push(Value::Int(i64::from(c.cell_id))); // CELL_ID
                values.push(Value::Int(attempts)); // CALL_ATTEMPTS
                values.push(Value::Int(drops)); // CALL_DROPS
                values.push(Value::Int(attempts * 60)); // TOTAL_DURATION_S (mean hold time)
                values.push(Value::Int(throughput_kbps)); // THROUGHPUT_KBPS
                values.push(Value::Int(rssi_dbm)); // RSSI_DBM
                values.push(Value::Int(rng.gen_range(0..4))); // HANDOVER_FAILURES
                debug_assert_eq!(values.len(), nms::WIDTH);
                out.push(Record::new(values));
            }
        }
    }

    /// Generate the next snapshot in sequence.
    pub fn next_snapshot(&mut self) -> Option<Snapshot> {
        if self.next_epoch >= self.config.total_epochs() {
            return None;
        }
        let epoch = EpochId(self.next_epoch);
        self.next_epoch += 1;
        // Per-epoch RNG: derived from the master seed and epoch id.
        let mut rng = StdRng::seed_from_u64(
            self.config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(epoch.0)),
        );
        let n_cdr = load::scaled_count(self.config.cdr_base_per_epoch, epoch);
        let mut cdr_rows = Vec::with_capacity(n_cdr);
        for _ in 0..n_cdr {
            let rec = self.generate_cdr_record(&mut rng, epoch);
            cdr_rows.push(rec);
        }
        let mut nms_rows =
            Vec::with_capacity(self.layout.len() * self.config.nms_reports_per_cell as usize + 1);
        self.generate_nms_records(&mut rng, epoch, &mut nms_rows);
        Some(Snapshot::new(epoch, cdr_rows, nms_rows))
    }

    /// Generate the entire configured trace.
    pub fn generate_all(mut self) -> Vec<Snapshot> {
        let mut out = Vec::with_capacity(self.config.total_epochs() as usize);
        while let Some(s) = self.next_snapshot() {
            out.push(s);
        }
        out
    }
}

impl Iterator for TraceGenerator {
    type Item = Snapshot;

    fn next(&mut self) -> Option<Snapshot> {
        self.next_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::DayPeriod;

    #[test]
    fn generation_is_deterministic() {
        let a: Vec<Snapshot> = TraceGenerator::new(TraceConfig::tiny()).take(4).collect();
        let b: Vec<Snapshot> = TraceGenerator::new(TraceConfig::tiny()).take(4).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn snapshots_cover_configured_epochs() {
        let config = TraceConfig::tiny();
        let total = config.total_epochs();
        let snaps = TraceGenerator::new(config).generate_all();
        assert_eq!(snaps.len() as u32, total);
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.epoch.0 as usize, i);
        }
    }

    #[test]
    fn record_shapes_match_schemas() {
        let mut g = TraceGenerator::new(TraceConfig::tiny());
        let s = g.next_snapshot().unwrap();
        assert!(!s.cdr.is_empty());
        assert!(!s.nms.is_empty());
        for r in &s.cdr {
            assert_eq!(r.values.len(), cdr::WIDTH);
        }
        for r in &s.nms {
            assert_eq!(r.values.len(), nms::WIDTH);
        }
    }

    #[test]
    fn cdr_cells_are_valid_and_ts_matches_epoch() {
        let mut g = TraceGenerator::new(TraceConfig::tiny());
        let n_cells = g.config().n_cells;
        for _ in 0..3 {
            let s = g.next_snapshot().unwrap();
            let expected_ts = s.epoch.civil().compact();
            for r in &s.cdr {
                let cell = r.get(cdr::CELL_ID).as_i64().unwrap();
                assert!((0..i64::from(n_cells)).contains(&cell));
                assert_eq!(r.get(cdr::TS_START).as_text(), expected_ts);
            }
        }
    }

    #[test]
    fn busy_epochs_carry_more_records() {
        let config = TraceConfig::tiny();
        let snaps = TraceGenerator::new(config).generate_all();
        // Compare a 19:00 (evening peak) epoch to a 03:00 (night trough).
        let evening = &snaps[(19 * 2) as usize];
        let night = &snaps[(3 * 2) as usize];
        assert_eq!(evening.epoch.day_period(), DayPeriod::Evening);
        assert_eq!(night.epoch.day_period(), DayPeriod::Night);
        assert!(
            evening.cdr.len() > night.cdr.len(),
            "evening {} vs night {}",
            evening.cdr.len(),
            night.cdr.len()
        );
    }

    #[test]
    fn record_ids_are_unique_and_increasing() {
        let snaps = TraceGenerator::new(TraceConfig::tiny())
            .take(4)
            .collect::<Vec<_>>();
        let mut last = 0i64;
        for s in &snaps {
            for r in &s.cdr {
                let id = r.get(cdr::RECORD_ID).as_i64().unwrap();
                assert!(id > last);
                last = id;
            }
        }
    }

    #[test]
    fn nms_volume_dominates_cdr_volume() {
        // The paper: NMS is ~12x CDR by record count (21M vs 1.7M).
        let snaps = TraceGenerator::new(TraceConfig::tiny())
            .take(8)
            .collect::<Vec<_>>();
        let cdr_total: usize = snaps.iter().map(|s| s.cdr.len()).sum();
        let nms_total: usize = snaps.iter().map(|s| s.nms.len()).sum();
        let ratio = nms_total as f64 / cdr_total as f64;
        assert!(
            (4.0..40.0).contains(&ratio),
            "NMS:CDR ratio should be in the paper's ballpark, got {ratio:.1}"
        );
    }

    #[test]
    fn scaled_config_preserves_structure() {
        let c = TraceConfig::scaled(1.0 / 256.0);
        assert_eq!(c.days, 7);
        assert!(c.n_cells >= 24);
        assert!(c.n_antennas >= 8);
        assert!(c.n_users >= 64);
        let paper = TraceConfig::paper();
        assert!(c.n_cells < paper.n_cells);
        assert!(c.cdr_base_per_epoch < paper.cdr_base_per_epoch);
    }

    #[test]
    fn snapshot_wire_round_trip_at_generator_scale() {
        let mut g = TraceGenerator::new(TraceConfig::tiny());
        let s = g.next_snapshot().unwrap();
        let parsed = Snapshot::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(parsed.epoch, s.epoch);
        assert_eq!(parsed.cdr.len(), s.cdr.len());
        assert_eq!(parsed.nms.len(), s.nms.len());
        // Values survive textual round trip.
        assert_eq!(
            parsed.cdr[0].get(cdr::DOWNFLUX).as_i64(),
            s.cdr[0].get(cdr::DOWNFLUX).as_i64()
        );
    }
}
