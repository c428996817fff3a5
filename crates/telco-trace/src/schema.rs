//! Table schemas mirroring the paper's Figure 3: CDR with ~200 attributes
//! (most optional or low-entropy), NMS with 8 counter attributes, CELL with
//! 10 attributes.

use std::sync::OnceLock;

/// The three file types arriving at the telco data center (paper Fig. 3/4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableKind {
    Cdr,
    Nms,
    Cell,
}

impl TableKind {
    pub fn name(self) -> &'static str {
        match self {
            TableKind::Cdr => "CDR",
            TableKind::Nms => "NMS",
            TableKind::Cell => "CELL",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        match s.to_ascii_uppercase().as_str() {
            "CDR" => Some(TableKind::Cdr),
            "NMS" => Some(TableKind::Nms),
            "CELL" => Some(TableKind::Cell),
            _ => None,
        }
    }
}

/// How the generator populates a non-core ("filler") CDR attribute. The mix
/// of classes is tuned so the per-attribute entropy distribution matches
/// Fig. 4: many attributes at zero entropy, most below 1 bit, a few up to
/// ~5 bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FillerClass {
    /// Optional attribute that is always blank — entropy 0.
    Blank,
    /// Constant literal — entropy 0.
    Zero,
    /// Low-cardinality nominal attribute. `skew` is the probability of the
    /// dominant value; the rest spread uniformly.
    Categorical { cardinality: u32, skew: f64 },
    /// Small integer counter, geometric-ish with a bias toward zero.
    Counter { max: u32, zero_bias: f64 },
}

/// One schema column.
#[derive(Debug, Clone)]
pub struct Column {
    pub name: String,
    /// `Some` for generated filler attributes; `None` for core attributes
    /// the generator fills from the simulation state.
    pub filler: Option<FillerClass>,
}

/// A table schema: ordered named columns.
#[derive(Debug, Clone)]
pub struct Schema {
    pub kind: TableKind,
    pub columns: Vec<Column>,
}

/// Core CDR column indices (the "first 10 of ~200 attributes" of Fig. 3,
/// plus the handful the task workloads T1–T8 touch).
pub mod cdr {
    pub const RECORD_ID: usize = 0;
    pub const CALLER_ID: usize = 1;
    pub const CALLEE_ID: usize = 2;
    pub const CELL_ID: usize = 3;
    pub const TS_START: usize = 4;
    pub const TS_END: usize = 5;
    pub const DURATION_S: usize = 6;
    pub const CALL_TYPE: usize = 7;
    pub const CALL_RESULT: usize = 8;
    pub const UPFLUX: usize = 9;
    pub const DOWNFLUX: usize = 10;
    pub const TECH: usize = 11;
    pub const ROAMING: usize = 12;
    pub const PLAN_CODE: usize = 13;
    pub const BSC_ID: usize = 14;
    pub const LAC: usize = 15;
    pub const BILLING_CLASS: usize = 16;
    pub const MCC_MNC: usize = 17;
    /// First generated filler column.
    pub const FILLER_START: usize = 18;
    /// Total CDR attribute count (~200 per the paper).
    pub const WIDTH: usize = 200;
}

/// NMS column indices (8 attributes, paper Fig. 3/4 center).
pub mod nms {
    pub const TS: usize = 0;
    pub const CELL_ID: usize = 1;
    pub const CALL_ATTEMPTS: usize = 2;
    pub const CALL_DROPS: usize = 3;
    pub const TOTAL_DURATION_S: usize = 4;
    pub const THROUGHPUT_KBPS: usize = 5;
    pub const RSSI_DBM: usize = 6;
    pub const HANDOVER_FAILURES: usize = 7;
    pub const WIDTH: usize = 8;
}

/// CELL column indices (10 attributes, paper Fig. 3/4 right).
pub mod cell {
    pub const CELL_ID: usize = 0;
    pub const ANTENNA_ID: usize = 1;
    pub const X_M: usize = 2;
    pub const Y_M: usize = 3;
    pub const TECH: usize = 4;
    pub const AZIMUTH_DEG: usize = 5;
    pub const RANGE_M: usize = 6;
    pub const CONTROLLER_ID: usize = 7;
    pub const SITE_NAME: usize = 8;
    pub const REGION: usize = 9;
    pub const WIDTH: usize = 10;
}

impl Schema {
    /// The ~200-attribute CDR schema.
    pub fn cdr() -> Self {
        let core = [
            "record_id",
            "caller_id",
            "callee_id",
            "cell_id",
            "ts_start",
            "ts_end",
            "duration_s",
            "call_type",
            "call_result",
            "upflux",
            "downflux",
            "tech",
            "roaming",
            "plan_code",
            "bsc_id",
            "lac",
            "billing_class",
            "mcc_mnc",
        ];
        debug_assert_eq!(core.len(), cdr::FILLER_START);
        let mut columns: Vec<Column> = core
            .iter()
            .map(|&name| Column {
                name: name.to_string(),
                filler: None,
            })
            .collect();
        for i in cdr::FILLER_START..cdr::WIDTH {
            // Class mix per ten columns: 3 blank, 1 constant, 2 binary
            // flags, 2 mid-cardinality nominals, 1 small counter, 1 wide
            // counter — reproducing Fig. 4's entropy histogram shape.
            let filler = match i % 10 {
                0..=2 => FillerClass::Blank,
                3 => FillerClass::Zero,
                4 | 5 => FillerClass::Categorical {
                    cardinality: 2,
                    skew: 0.95,
                },
                6 | 7 => FillerClass::Categorical {
                    cardinality: 6,
                    skew: 0.60,
                },
                8 => FillerClass::Counter {
                    max: 15,
                    zero_bias: 0.5,
                },
                _ => FillerClass::Counter {
                    max: 32,
                    zero_bias: 0.6,
                },
            };
            columns.push(Column {
                name: format!("opt_ctr_{i:03}"),
                filler: Some(filler),
            });
        }
        Self {
            kind: TableKind::Cdr,
            columns,
        }
    }

    /// The 8-attribute NMS schema.
    pub fn nms() -> Self {
        let names = [
            "ts",
            "cell_id",
            "call_attempts",
            "call_drops",
            "total_duration_s",
            "throughput_kbps",
            "rssi_dbm",
            "handover_failures",
        ];
        debug_assert_eq!(names.len(), nms::WIDTH);
        Self {
            kind: TableKind::Nms,
            columns: names
                .iter()
                .map(|&name| Column {
                    name: name.to_string(),
                    filler: None,
                })
                .collect(),
        }
    }

    /// The 10-attribute CELL schema.
    pub fn cell() -> Self {
        let names = [
            "cell_id",
            "antenna_id",
            "x_m",
            "y_m",
            "tech",
            "azimuth_deg",
            "range_m",
            "controller_id",
            "site_name",
            "region",
        ];
        debug_assert_eq!(names.len(), cell::WIDTH);
        Self {
            kind: TableKind::Cell,
            columns: names
                .iter()
                .map(|&name| Column {
                    name: name.to_string(),
                    filler: None,
                })
                .collect(),
        }
    }

    pub fn for_kind(kind: TableKind) -> Self {
        match kind {
            TableKind::Cdr => Self::cdr(),
            TableKind::Nms => Self::nms(),
            TableKind::Cell => Self::cell(),
        }
    }

    /// The schema of `kind`, built once per process: resolving a query's
    /// attributes must not rebuild ~200 column names per request.
    pub fn shared(kind: TableKind) -> &'static Schema {
        static CDR: OnceLock<Schema> = OnceLock::new();
        static NMS: OnceLock<Schema> = OnceLock::new();
        static CELL: OnceLock<Schema> = OnceLock::new();
        let slot = match kind {
            TableKind::Cdr => &CDR,
            TableKind::Nms => &NMS,
            TableKind::Cell => &CELL,
        };
        slot.get_or_init(|| Self::for_kind(kind))
    }

    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Look up a column index by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn column_name(&self, idx: usize) -> &str {
        &self.columns[idx].name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdr_schema_has_paper_width() {
        let s = Schema::cdr();
        assert_eq!(s.width(), 200);
        assert_eq!(s.kind, TableKind::Cdr);
        // Core columns present at their indices.
        assert_eq!(s.column_index("upflux"), Some(cdr::UPFLUX));
        assert_eq!(s.column_index("downflux"), Some(cdr::DOWNFLUX));
        assert_eq!(s.column_index("cell_id"), Some(cdr::CELL_ID));
        assert_eq!(s.column_index("TS_START"), Some(cdr::TS_START));
        // Fillers carry classes; core columns don't.
        assert!(s.columns[cdr::UPFLUX].filler.is_none());
        assert!(s.columns[cdr::FILLER_START].filler.is_some());
    }

    #[test]
    fn filler_mix_includes_zero_entropy_columns() {
        let s = Schema::cdr();
        let blanks = s
            .columns
            .iter()
            .filter(|c| matches!(c.filler, Some(FillerClass::Blank)))
            .count();
        // ~30% of the filler columns are blank, matching Fig. 4's
        // zero-entropy optional attributes.
        assert!(blanks >= 50, "expected ≥50 blank columns, got {blanks}");
    }

    #[test]
    fn nms_and_cell_widths() {
        assert_eq!(Schema::nms().width(), 8);
        assert_eq!(Schema::cell().width(), 10);
        assert_eq!(
            Schema::nms().column_index("call_drops"),
            Some(nms::CALL_DROPS)
        );
        assert_eq!(Schema::cell().column_index("x_m"), Some(cell::X_M));
    }

    #[test]
    fn table_kind_names_round_trip() {
        for kind in [TableKind::Cdr, TableKind::Nms, TableKind::Cell] {
            assert_eq!(TableKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(TableKind::from_name("cdr"), Some(TableKind::Cdr));
        assert_eq!(TableKind::from_name("bogus"), None);
    }

    #[test]
    fn unique_column_names() {
        for schema in [Schema::cdr(), Schema::nms(), Schema::cell()] {
            let mut names: Vec<&str> = schema.columns.iter().map(|c| c.name.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(
                names.len(),
                before,
                "{:?} has duplicate columns",
                schema.kind
            );
        }
    }
}
