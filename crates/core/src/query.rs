//! Data exploration queries `Q(a, b, w)` and their results.
//!
//! "A data exploration query Q(a,b,w) consists of an attribute selection
//! a, a spatial bounding box b, and a temporal window of interest w ...
//! 'Explore the values of a within the spatial box b and temporal window
//! w'" (§VI-A).

use crate::index::highlights::{Highlights, Resolution};
use crate::index::Covering;
use crate::storage::{StorageError, StoredRows};
use std::collections::HashSet;
use std::fmt;
use telco_trace::cells::{BoundingBox, CellLayout};
use telco_trace::record::{Record, Value};
use telco_trace::schema::{cdr, nms, Schema, TableKind};
use telco_trace::snapshot::{Row, Snapshot};
use telco_trace::time::EpochId;

/// A data exploration query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Attribute selection `a` (column names of CDR and/or NMS).
    pub attributes: Vec<String>,
    /// Spatial bounding box `b`.
    pub bbox: BoundingBox,
    /// Temporal window `w` (inclusive epoch range).
    pub window: (EpochId, EpochId),
}

impl Query {
    pub fn new(attributes: &[&str], bbox: BoundingBox) -> Self {
        Self {
            attributes: attributes.iter().map(|s| s.to_string()).collect(),
            bbox,
            window: (EpochId(0), EpochId(0)),
        }
    }

    pub fn with_epoch_range(mut self, start: u32, end: u32) -> Self {
        assert!(start <= end);
        self.window = (EpochId(start), EpochId(end));
        self
    }

    pub fn with_window(mut self, start: EpochId, end: EpochId) -> Self {
        assert!(start <= end);
        self.window = (start, end);
        self
    }

    /// The requested window length in epochs: `2^32` for the window of
    /// every epoch, so it is counted in `u64`.
    pub fn window_len(&self) -> u64 {
        u64::from(self.window.1 .0 - self.window.0 .0) + 1
    }
}

/// A projected slice of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSlice {
    pub kind: TableKind,
    pub column_names: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

#[cfg(test)]
impl TableSlice {
    fn empty(kind: TableKind) -> Self {
        Self {
            kind,
            column_names: vec![],
            rows: vec![],
        }
    }
}

/// Exact (full-resolution) answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactResult {
    pub cdr: TableSlice,
    pub nms: TableSlice,
    /// Number of epochs read to answer.
    pub epochs_read: usize,
}

impl ExactResult {
    /// Rows across both tables.
    pub fn row_count(&self) -> usize {
        self.cdr.rows.len() + self.nms.rows.len()
    }
}

/// Epoch-level accounting of how much of a query window was served.
///
/// The degraded-coverage contract: a window query never lies about
/// completeness. Every epoch of `w` is classified as *served* (its leaf
/// was read at full resolution), *decayed* (evicted by the decay fungus —
/// absent by design, summarized by highlights), or *unavailable* (stored
/// but unreadable right now: replicas lost or corrupt beyond repair).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Epochs in the requested window.
    pub requested: u32,
    /// Epochs whose full-resolution leaf was read successfully.
    pub served: u32,
    /// Epochs evicted by decay (deliberately absent).
    pub decayed: u32,
    /// Epochs whose leaf exists but could not be read (faults).
    pub unavailable: u32,
}

impl Coverage {
    /// Every requested epoch was served at full resolution.
    pub fn is_complete(&self) -> bool {
        self.served == self.requested
    }

    /// Served fraction of the requested window in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.requested == 0 {
            1.0
        } else {
            f64::from(self.served) / f64::from(self.requested)
        }
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} served ({} decayed, {} unavailable)",
            self.served, self.requested, self.decayed, self.unavailable
        )
    }
}

/// Result of a data exploration query.
#[derive(Debug)]
pub enum QueryResult {
    /// Full-resolution rows (window within the retained leaves).
    Exact(ExactResult),
    /// Full-resolution rows for *part* of the window: some epochs were
    /// unreadable (lost/corrupt replicas) or decayed mid-window, and the
    /// coverage report says exactly which fraction was served. Degraded
    /// availability yields partial data, never an error.
    Partial {
        result: ExactResult,
        coverage: Coverage,
    },
    /// The window decayed past full resolution: the lowest covering node's
    /// highlights, spatially filtered. "SPATE might retrieve records for a
    /// larger period than the one requested ... serves as an implicit
    /// prefetching mechanism."
    Summary {
        resolution: Resolution,
        highlights: Highlights,
    },
    /// Nothing retained covers the window.
    Unavailable,
}

impl QueryResult {
    /// The answer of an exact-branch run: `Exact` when every requested
    /// epoch was served, `Partial` carrying the report otherwise.
    pub(crate) fn from_run(result: ExactResult, coverage: Coverage) -> Self {
        if coverage.is_complete() {
            QueryResult::Exact(result)
        } else {
            QueryResult::Partial { result, coverage }
        }
    }

    pub fn is_exact(&self) -> bool {
        matches!(self, QueryResult::Exact(_))
    }

    pub fn is_partial(&self) -> bool {
        matches!(self, QueryResult::Partial { .. })
    }

    pub fn is_summary(&self) -> bool {
        matches!(self, QueryResult::Summary { .. })
    }

    /// Coverage of the answer: complete for exact results, the recorded
    /// report for partial ones, `None` for summaries/unavailable (no
    /// epoch-level accounting applies).
    pub fn coverage(&self) -> Option<Coverage> {
        match self {
            QueryResult::Exact(e) => {
                let n = e.epochs_read as u32;
                Some(Coverage {
                    requested: n,
                    served: n,
                    decayed: 0,
                    unavailable: 0,
                })
            }
            QueryResult::Partial { coverage, .. } => Some(*coverage),
            _ => None,
        }
    }

    /// Total exact rows across both tables (0 for summaries).
    pub fn row_count(&self) -> usize {
        match self {
            QueryResult::Exact(e) | QueryResult::Partial { result: e, .. } => e.row_count(),
            _ => 0,
        }
    }
}

/// What the index offers for `Q(a, b, w)`, decided once per query
/// (`SpateFramework::plan`, `ShardedSpate::plan`) before any leaf is read.
#[derive(Debug)]
pub enum Plan {
    /// Every epoch of `w` is retained at full resolution: the epochs to
    /// read, in order.
    Exact(Vec<EpochId>),
    /// `w` decayed: the lowest covering node's highlights, filtered to `b`.
    Summary {
        resolution: Resolution,
        highlights: Highlights,
    },
    /// Nothing retained covers `w`.
    Unavailable,
}

impl Plan {
    /// What one index's `covering` of `w` offers a query over box `bbox`:
    /// a summary's highlights are filtered to the cells of `b`.
    pub(crate) fn of(covering: Covering<'_>, layout: &CellLayout, bbox: &BoundingBox) -> Plan {
        match covering {
            Covering::Exact(leaves) => Plan::Exact(leaves.iter().map(|l| l.epoch).collect()),
            Covering::Summary {
                resolution,
                highlights,
            } => {
                let cells: HashSet<u32> = layout.cells_in(bbox).into_iter().collect();
                Plan::Summary {
                    resolution,
                    highlights: highlights.filter_cells(&cells),
                }
            }
            Covering::Unavailable => Plan::Unavailable,
        }
    }

    /// Evaluate into a buffered answer: the exact branch runs through
    /// [`run_exact`] keeping every row `reach` appends.
    pub fn evaluate(
        self,
        rows: &RowPlan,
        reach: impl FnMut(EpochId, &mut ExactResult) -> bool,
    ) -> QueryResult {
        match self {
            Plan::Exact(epochs) => {
                let mut result = rows.empty_result();
                let keep = |_: &mut ExactResult| Ok::<(), std::convert::Infallible>(());
                let run = run_exact(&epochs, &mut result, reach, keep)
                    .unwrap_or_else(|never| match never {});
                QueryResult::from_run(result, run.coverage)
            }
            Plan::Summary {
                resolution,
                highlights,
            } => QueryResult::Summary {
                resolution,
                highlights,
            },
            Plan::Unavailable => QueryResult::Unavailable,
        }
    }
}

/// How a run of the exact branch ended.
#[derive(Debug, Clone, Copy)]
pub struct ExactRun {
    pub coverage: Coverage,
    /// Epochs a budget interrupt cut off; they count as `unavailable`.
    pub cut_off: u32,
}

/// The exact branch of `Q(a, b, w)`, for every evaluator. For each epoch
/// of the plan, in order: a cooperative [`obs::budget`] checkpoint — on
/// cancellation or deadline expiry the scan stops and the rest of the
/// window is reported unavailable, a `Partial` instead of an overrun —
/// then `reach` leaves the epoch in `out` or answers `false` with `out`
/// as it was, then `emit` disposes of what `out` holds.
///
/// What `out` holds is the evaluator's: the buffered evaluators reach
/// into an [`ExactResult`] (selected rows appended, kept by `emit`); the
/// serving tier reaches the epoch's cached snapshot and `emit` streams
/// its selected rows out of it ([`RowPlan::lend`]).
///
/// The degraded-coverage contract: an epoch whose leaf cannot be read
/// right now (lost or corrupt replicas) is dropped from the answer and
/// *accounted*, never silently skipped and never fatal to the rest of
/// the window. Only `emit` can fail the run.
pub fn run_exact<T, E>(
    epochs: &[EpochId],
    out: &mut T,
    mut reach: impl FnMut(EpochId, &mut T) -> bool,
    mut emit: impl FnMut(&mut T) -> Result<(), E>,
) -> Result<ExactRun, E> {
    let requested = epochs.len() as u32;
    let (mut unavailable, mut cut_off) = (0, 0);
    for (reached, &epoch) in epochs.iter().enumerate() {
        if obs::budget::interrupted().is_some() {
            cut_off = requested - reached as u32;
            break;
        }
        if reach(epoch, out) {
            emit(out)?;
        } else {
            unavailable += 1;
        }
    }
    unavailable += cut_off;
    let coverage = Coverage {
        requested,
        served: requested - unavailable,
        decayed: 0,
        unavailable,
    };
    Ok(ExactRun { coverage, cut_off })
}

/// Resolve a query's attribute selection against both schemas.
pub struct Projection {
    pub cdr_cols: Vec<usize>,
    pub nms_cols: Vec<usize>,
    pub cdr_names: Vec<String>,
    pub nms_names: Vec<String>,
}

impl Projection {
    pub fn resolve(attributes: &[String]) -> Self {
        let cdr_schema = Schema::shared(TableKind::Cdr);
        let nms_schema = Schema::shared(TableKind::Nms);
        let mut p = Projection {
            cdr_cols: vec![],
            nms_cols: vec![],
            cdr_names: vec![],
            nms_names: vec![],
        };
        for a in attributes {
            if let Some(i) = cdr_schema.column_index(a) {
                p.cdr_cols.push(i);
                p.cdr_names.push(cdr_schema.column_name(i).to_string());
            }
            if let Some(i) = nms_schema.column_index(a) {
                p.nms_cols.push(i);
                p.nms_names.push(nms_schema.column_name(i).to_string());
            }
        }
        p
    }
}

/// `Q(a, b, ·)` resolved once against the schemas and the cell layout:
/// which columns of which table to emit, and which cells lie in `b`.
/// [`Self::keeps`] is the one place a row is tested against `b`, and
/// [`Self::columns`] the one list of what it carries of `a`. Two row
/// sources feed them, each through one loop: `Self::scan_read` over what
/// the store read of an epoch (the rows `StoredRows::walk` lends, text or
/// columns alike), and [`Self::lend`] over a decoded snapshot's records,
/// which the serving tier encodes where they lie and [`Self::project`]
/// materialises as values.
pub struct RowPlan {
    projection: Projection,
    /// Bit `c` is set when cell `c` lies in `b`; `layout.len()` bits.
    cells: Vec<u64>,
    /// The tables `a` selects a column of: the only ones whose rows can
    /// reach the answer.
    tables: Vec<TableKind>,
}

impl RowPlan {
    pub fn new(q: &Query, layout: &CellLayout) -> Self {
        let mut cells = vec![0u64; layout.len().div_ceil(64)];
        for cell in layout.cells_in(&q.bbox) {
            cells[cell as usize / 64] |= 1 << (cell % 64);
        }
        let projection = Projection::resolve(&q.attributes);
        let selected = [
            (TableKind::Cdr, !projection.cdr_cols.is_empty()),
            (TableKind::Nms, !projection.nms_cols.is_empty()),
        ];
        Self {
            projection,
            cells,
            tables: selected
                .into_iter()
                .filter_map(|(t, s)| s.then_some(t))
                .collect(),
        }
    }

    /// Is a row whose cell-id field reads `cell` inside `b`? Blank,
    /// non-numeric, negative and unknown ids are outside every box.
    fn selects(&self, cell: Option<i64>) -> bool {
        let Some(cell) = cell.and_then(|c| usize::try_from(c).ok()) else {
            return false;
        };
        let word = self.cells.get(cell / 64);
        word.is_some_and(|word| word >> (cell % 64) & 1 == 1)
    }

    /// The columns of `table` that `a` selects, in answer order: a row of
    /// the answer is the row's values at these columns. Empty when `a`
    /// selects nothing of `table`.
    pub fn columns(&self, table: TableKind) -> &[usize] {
        match table {
            TableKind::Cdr => &self.projection.cdr_cols,
            _ => &self.projection.nms_cols,
        }
    }

    /// The names of [`Self::columns`].
    pub fn column_names(&self, table: TableKind) -> &[String] {
        match table {
            TableKind::Cdr => &self.projection.cdr_names,
            _ => &self.projection.nms_names,
        }
    }

    /// The one row test: does `row` of `table` reach the answer? It does
    /// when `a` selects a column of `table` and the row's cell lies in
    /// `b`; the test reads the cell-id column alone.
    pub fn keeps(&self, table: TableKind, row: Row<'_>) -> bool {
        let cell_col = match table {
            TableKind::Cdr => cdr::CELL_ID,
            _ => nms::CELL_ID,
        };
        !self.columns(table).is_empty() && self.selects(row.i64(cell_col))
    }

    /// Append `row` of `table`, projected onto `a`, to `out` if the plan
    /// [keeps](Self::keeps) it: only the selected columns of a row that
    /// passes become [`Value`]s.
    fn select(&self, table: TableKind, row: Row<'_>, out: &mut ExactResult) {
        if self.keeps(table, row) {
            self.push(table, row, out);
        }
    }

    /// Append `row` of `table`, projected onto `a`, to `out`.
    fn push(&self, table: TableKind, row: Row<'_>, out: &mut ExactResult) {
        let slice = match table {
            TableKind::Cdr => &mut out.cdr,
            _ => &mut out.nms,
        };
        let values = self.columns(table).iter().map(|&c| row.value(c));
        slice.rows.push(values.collect());
    }

    /// The answer over no epochs: the selected column names per table (a
    /// table with no selected column has none), no rows.
    pub fn empty_result(&self) -> ExactResult {
        let slice = |kind| TableSlice {
            kind,
            column_names: self.column_names(kind).to_vec(),
            rows: vec![],
        };
        ExactResult {
            cdr: slice(TableKind::Cdr),
            nms: slice(TableKind::Nms),
            epochs_read: 0,
        }
    }

    /// Lend `snap`'s selected rows to `take` instead of building them:
    /// per table `a` selects from, CDR before NMS, a [`Lent`] iterator
    /// over the records [`Self::project`] would append, in record order.
    /// A record is seen through [`Self::columns`]; nothing is cloned. The
    /// epoch is accounted as `project` accounts it: every record of the
    /// tables `a` selects from scanned, every record `take` drew returned.
    pub fn lend<'s, E>(
        &'s self,
        snap: &'s Snapshot,
        mut take: impl FnMut(TableKind, &mut Lent<'s>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut returned = 0;
        let mut taken = Ok(());
        for &table in &self.tables {
            let mut lent = Lent {
                plan: self,
                table,
                records: snap.table(table).iter(),
                drawn: 0,
            };
            taken = take(table, &mut lent);
            returned += lent.drawn;
            if taken.is_err() {
                break;
            }
        }
        let scanned = self.tables.iter().map(|&t| snap.table(t).len() as u64);
        obs::cost::add_rows(scanned.sum(), returned);
        taken
    }

    /// Evaluate over one decoded snapshot, appending to `out` the records
    /// [`Self::lend`] lends, accounted as it accounts them.
    pub fn project(&self, snap: &Snapshot, out: &mut ExactResult) {
        let lent = self.lend(snap, |table, records| {
            records.for_each(|record| self.push(table, Row::Record(record), out));
            Ok::<(), std::convert::Infallible>(())
        });
        lent.unwrap_or_else(|never| match never {});
        out.epochs_read += 1;
    }

    /// The tables `a` selects a column of: all a scan has to read.
    pub(crate) fn tables(&self) -> &[TableKind] {
        &self.tables
    }

    /// Evaluate over what a scan of [`Self::tables`] read of `epoch`
    /// (`SnapshotStore::read_ahead`), appending to `out` the rows, in the
    /// order, that [`Self::project`] appends over the decoded snapshot:
    /// every row [`StoredRows::walk`] lends is tested on its cell-id
    /// column, and only the columns `a` names become values. Every row of
    /// the tables read counts as scanned. On an error — the read's, or text that
    /// does not parse or is another epoch's — `out` is left as it was and
    /// nothing is accounted.
    pub(crate) fn scan_read(
        &self,
        epoch: EpochId,
        read: Result<StoredRows, StorageError>,
        out: &mut ExactResult,
    ) -> Result<(), StorageError> {
        let kept = (out.cdr.rows.len(), out.nms.rows.len());
        let walked =
            read.and_then(|rows| rows.walk(epoch, |table, row| self.select(table, row, out)));
        match walked {
            Ok(scanned) => {
                out.epochs_read += 1;
                let returned = out.row_count() - kept.0 - kept.1;
                obs::cost::add_rows(scanned, returned as u64);
                Ok(())
            }
            Err(e) => {
                out.cdr.rows.truncate(kept.0);
                out.nms.rows.truncate(kept.1);
                Err(e)
            }
        }
    }
}

/// The selected records of one table of a snapshot, lent by
/// [`RowPlan::lend`]: each is tested with [`RowPlan::keeps`] as it is
/// drawn, and counted.
pub struct Lent<'s> {
    plan: &'s RowPlan,
    table: TableKind,
    records: std::slice::Iter<'s, Record>,
    drawn: u64,
}

impl<'s> Iterator for Lent<'s> {
    type Item = &'s Record;

    fn next(&mut self) -> Option<&'s Record> {
        let (plan, table) = (self.plan, self.table);
        let record = self
            .records
            .find(|record| plan.keeps(table, Row::Record(record)))?;
        self.drawn += 1;
        Some(record)
    }
}

/// Evaluate the exact branch: project + spatially filter loaded snapshots.
pub fn project_snapshots(snapshots: &[Snapshot], q: &Query, layout: &CellLayout) -> ExactResult {
    project_snapshot_refs(snapshots.iter(), q, layout)
}

/// [`project_snapshots`] over borrowed snapshots from any container.
pub fn project_snapshot_refs<'a>(
    snapshots: impl Iterator<Item = &'a Snapshot>,
    q: &Query,
    layout: &CellLayout,
) -> ExactResult {
    let plan = RowPlan::new(q, layout);
    let mut out = plan.empty_result();
    for snap in snapshots {
        plan.project(snap, &mut out);
    }
    out
}

/// Evaluate a query under per-query cost accounting (the explore-path
/// `EXPLAIN ANALYZE`): installs a [`obs::CostProfile`] for the duration of
/// `fw.query(q)` and returns the result together with the profile. The
/// profile's trace id is the active request trace, or 0 outside serve.
pub fn profile_query(
    fw: &dyn crate::framework::ExplorationFramework,
    q: &Query,
) -> (QueryResult, obs::CostProfile) {
    let guard = obs::cost::begin(obs::trace::current().unwrap_or(0));
    let result = fw.query(q);
    (result, guard.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use telco_trace::{TraceConfig, TraceGenerator};

    #[test]
    fn query_builder() {
        let q =
            Query::new(&["upflux", "downflux"], BoundingBox::everything()).with_epoch_range(3, 9);
        assert_eq!(q.window_len(), 7);
        assert_eq!(q.attributes.len(), 2);
        let all = Query::new(&[], BoundingBox::everything()).with_epoch_range(0, u32::MAX);
        assert_eq!(all.window_len(), 1 << 32);
    }

    #[test]
    fn projection_resolves_across_tables() {
        let p = Projection::resolve(&[
            "upflux".to_string(),
            "call_drops".to_string(),
            "cell_id".to_string(), // present in both tables
            "nonexistent".to_string(),
        ]);
        assert_eq!(p.cdr_cols, vec![cdr::UPFLUX, cdr::CELL_ID]);
        assert_eq!(
            p.nms_cols,
            vec![
                telco_trace::schema::nms::CALL_DROPS,
                telco_trace::schema::nms::CELL_ID
            ]
        );
    }

    #[test]
    fn projection_over_generated_snapshots() {
        let mut generator = TraceGenerator::new(TraceConfig::tiny());
        let layout = generator.layout().clone();
        let snaps: Vec<Snapshot> = (&mut generator).take(2).collect();
        let q =
            Query::new(&["upflux", "downflux"], BoundingBox::everything()).with_epoch_range(0, 1);
        let result = project_snapshots(&snaps, &q, &layout);
        let total_cdr: usize = snaps.iter().map(|s| s.cdr.len()).sum();
        assert_eq!(result.cdr.rows.len(), total_cdr);
        assert_eq!(result.cdr.column_names, vec!["upflux", "downflux"]);
        assert!(result.nms.rows.is_empty(), "no NMS attrs requested");
        assert_eq!(result.epochs_read, 2);
    }

    #[test]
    fn spatial_filter_reduces_rows() {
        let mut generator = TraceGenerator::new(TraceConfig::tiny());
        let layout = generator.layout().clone();
        let snaps: Vec<Snapshot> = (&mut generator).take(4).collect();
        let all = Query::new(&["upflux"], BoundingBox::everything()).with_epoch_range(0, 3);
        let half_box = BoundingBox::new(0.0, 0.0, 38_000.0, 38_000.0);
        let half = Query::new(&["upflux"], half_box).with_epoch_range(0, 3);
        let all_rows = project_snapshots(&snaps, &all, &layout).cdr.rows.len();
        let half_rows = project_snapshots(&snaps, &half, &layout).cdr.rows.len();
        assert!(half_rows < all_rows, "{half_rows} vs {all_rows}");
    }

    #[test]
    fn the_cell_bitmap_selects_what_the_hash_set_filter_selected() {
        let layout = TraceGenerator::new(TraceConfig::tiny()).layout().clone();
        let n = layout.len() as i64;
        for bbox in [
            BoundingBox::everything(),
            BoundingBox::new(0.0, 0.0, 38_000.0, 38_000.0),
            BoundingBox::new(-5.0, -5.0, -1.0, -1.0), // no cell
        ] {
            let plan = RowPlan::new(&Query::new(&["cell_id"], bbox), &layout);
            let cells: HashSet<u32> = layout.cells_in(&bbox).into_iter().collect();
            let reference = |v: &Value| {
                let cell = v.as_i64().unwrap_or(-1);
                u32::try_from(cell).is_ok_and(|c| cells.contains(&c))
            };
            let ids = (-2..n + 70).chain([i64::from(u32::MAX), i64::MAX, i64::MIN]);
            let mut fields: Vec<String> = ids.map(|id| id.to_string()).collect();
            fields.extend(["", " 3", "3 ", "+3", "03", "3.0", "x", "1e1", "٣"].map(String::from));
            for field in &fields {
                let value = Value::from_field(field);
                assert_eq!(
                    plan.selects(field.parse().ok()),
                    reference(&value),
                    "field {field:?} in {bbox:?}"
                );
                assert_eq!(plan.selects(value.as_i64()), reference(&value));
            }
            // An id that wraps to a cell of the box as a `u32` names no cell.
            if let Some(&cell) = cells.iter().next() {
                assert!(plan.selects(Some(i64::from(cell))));
                assert!(!plan.selects(Some(i64::from(cell) + (1 << 32))));
            }

            // The same fields as the cell id of NMS rows: `select` keeps
            // the reference's rows, read from the text or from the record.
            let mut text = format!(
                "#SNAPSHOT epoch=0 ts=0\n#TABLE CDR rows=0 cols={}\n#TABLE NMS rows={} cols={}\n",
                cdr::WIDTH,
                fields.len(),
                nms::WIDTH
            );
            for field in &fields {
                let row = (0..nms::WIDTH).map(|c| if c == nms::CELL_ID { field } else { "0" });
                text.push_str(&row.collect::<Vec<_>>().join(","));
                text.push('\n');
            }
            let (mut of_text, mut of_records) = (plan.empty_result(), plan.empty_result());
            Snapshot::scan(text.as_bytes(), |table, row| {
                plan.select(table, Row::Text(row), &mut of_text)
            })
            .unwrap();
            for record in &Snapshot::from_bytes(text.as_bytes()).unwrap().nms {
                plan.select(TableKind::Nms, Row::Record(record), &mut of_records);
            }
            let kept = fields
                .iter()
                .map(|f| Value::from_field(f))
                .filter(reference);
            assert_eq!(of_text.nms.rows, kept.map(|v| vec![v]).collect::<Vec<_>>());
            assert_eq!(of_text, of_records);
            assert!(of_text.cdr.rows.is_empty());
        }
    }

    type Texts = std::collections::HashMap<EpochId, Vec<u8>>;

    /// A one-member Path leaf's read of `text` for `plan`, as the store
    /// lends it.
    fn read(plan: &RowPlan, text: &[u8]) -> Result<StoredRows, StorageError> {
        StoredRows::text(text.to_vec(), plan.tables())
    }

    /// Three epochs, their serialized text by epoch, and a plan selecting
    /// from both tables everywhere.
    fn three_epochs() -> (RowPlan, Vec<EpochId>, Texts) {
        let mut generator = TraceGenerator::new(TraceConfig::tiny());
        let q = Query::new(&["upflux", "call_drops"], BoundingBox::everything());
        let plan = RowPlan::new(&q, generator.layout());
        let snaps: Vec<Snapshot> = (&mut generator).skip(18).take(3).collect();
        let epochs = snaps.iter().map(|s| s.epoch).collect();
        let texts = snaps.iter().map(|s| (s.epoch, s.to_bytes())).collect();
        (plan, epochs, texts)
    }

    /// A reach step scanning `texts`.
    fn scan<'a>(
        plan: &'a RowPlan,
        texts: &'a Texts,
    ) -> impl FnMut(EpochId, &mut ExactResult) -> bool + 'a {
        move |epoch, out| {
            plan.scan_read(epoch, read(plan, &texts[&epoch]), out)
                .is_ok()
        }
    }

    #[test]
    fn an_epoch_out_of_reach_costs_its_own_rows_and_is_counted() {
        let (plan, epochs, mut texts) = three_epochs();
        let keep = |_: &mut ExactResult| Ok::<(), ()>(());
        let mut whole = plan.empty_result();
        let run = run_exact(&epochs, &mut whole, scan(&plan, &texts), keep).unwrap();
        assert_eq!((run.coverage.served, run.cut_off), (3, 0));
        assert!(QueryResult::from_run(whole, run.coverage).is_exact());

        // The middle epoch's last row loses a field, after every row
        // before it was selected: the answer is the other two epochs'.
        let bad = texts.get_mut(&epochs[1]).unwrap();
        let comma = bad.iter().rposition(|&b| b == b',').unwrap();
        bad.remove(comma);
        let mut others = plan.empty_result();
        for e in [epochs[0], epochs[2]] {
            plan.scan_read(e, read(&plan, &texts[&e]), &mut others)
                .unwrap();
        }
        let mut emitted = 0;
        let mut out = plan.empty_result();
        let run = run_exact(&epochs, &mut out, scan(&plan, &texts), |_| {
            emitted += 1;
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(out, others);
        let coverage = Coverage {
            requested: 3,
            served: 2,
            decayed: 0,
            unavailable: 1,
        };
        assert_eq!((run.coverage, run.cut_off), (coverage, 0));
        assert_eq!(emitted, 2, "emit follows a reached epoch only");
        assert!(QueryResult::from_run(out, coverage).is_partial());

        // A failing emit ends the run with its error.
        let mut out = plan.empty_result();
        let failed = run_exact(&epochs, &mut out, scan(&plan, &texts), |_| Err("hung up"));
        assert_eq!((failed.unwrap_err(), out.epochs_read), ("hung up", 1));
    }

    #[test]
    fn an_interrupt_cuts_off_the_rest_of_the_window() {
        let (plan, epochs, texts) = three_epochs();
        for stop_before in 0..=epochs.len() {
            let cancel = obs::CancelFlag::new();
            let _budget = obs::budget::begin(None, cancel.clone());
            let mut reached = 0;
            let mut out = plan.empty_result();
            if stop_before == 0 {
                cancel.cancel();
            }
            let mut reach = scan(&plan, &texts);
            let run = run_exact(
                &epochs,
                &mut out,
                |epoch, out| {
                    reached += 1;
                    if reached == stop_before {
                        cancel.cancel();
                    }
                    reach(epoch, out)
                },
                |_| Ok::<(), ()>(()),
            )
            .unwrap();
            let left = (epochs.len() - stop_before) as u32;
            assert_eq!(reached, stop_before);
            assert_eq!(out.epochs_read, stop_before);
            assert_eq!(run.cut_off, left);
            assert_eq!(run.coverage.unavailable, left);
            assert_eq!(run.coverage.served, stop_before as u32);
        }
    }

    /// Queries over the corners of `a`: duplicates, `cell_id` (in both
    /// tables), an unknown name, either table unselected, nothing selected.
    fn corner_queries() -> Vec<Query> {
        let half = BoundingBox::new(0.0, 0.0, 38_000.0, 38_000.0);
        let nowhere = BoundingBox::new(-5.0, -5.0, -1.0, -1.0);
        vec![
            Query::new(&["upflux", "call_drops"], half),
            Query::new(&["downflux", "upflux", "downflux", "cell_id"], half),
            Query::new(&["cell_id"], BoundingBox::everything()),
            Query::new(&["rssi_dbm", "no_such_attribute"], half),
            Query::new(&["caller_id"], BoundingBox::everything()),
            Query::new(&["no_such_attribute"], BoundingBox::everything()),
            Query::new(&[], half),
            Query::new(&["upflux", "ts"], nowhere),
        ]
    }

    #[test]
    fn scanning_text_equals_projecting_the_parsed_snapshot() {
        let mut generator = TraceGenerator::new(TraceConfig::tiny());
        let layout = generator.layout().clone();
        let snaps: Vec<Snapshot> = (&mut generator).skip(18).take(3).collect();
        for q in corner_queries() {
            let plan = RowPlan::new(&q, &layout);
            let cost = obs::cost::begin(0);
            let mut scanned = plan.empty_result();
            for snap in &snaps {
                plan.scan_read(snap.epoch, read(&plan, &snap.to_bytes()), &mut scanned)
                    .unwrap();
            }
            let scan_cost = cost.finish();

            let parsed: Vec<Snapshot> = snaps
                .iter()
                .map(|s| Snapshot::from_bytes(&s.to_bytes()).unwrap())
                .collect();
            let cost = obs::cost::begin(0);
            assert_eq!(scanned, project_snapshots(&parsed, &q, &layout), "{q:?}");
            let project_cost = cost.finish();
            assert_eq!(scan_cost.rows_scanned, project_cost.rows_scanned);
            assert_eq!(scan_cost.rows_returned, project_cost.rows_returned);
            let walked: usize = parsed
                .iter()
                .flat_map(|s| plan.tables().iter().map(|&t| s.table(t).len()))
                .sum();
            assert_eq!(scan_cost.rows_scanned, walked as u64);
        }
    }

    #[test]
    fn a_failed_scan_leaves_the_answer_as_it_was() {
        let mut generator = TraceGenerator::new(TraceConfig::tiny());
        let layout = generator.layout().clone();
        let snaps: Vec<Snapshot> = (&mut generator).skip(20).take(2).collect();
        let q = Query::new(&["upflux", "call_drops"], BoundingBox::everything());
        let plan = RowPlan::new(&q, &layout);
        let mut out = plan.empty_result();
        plan.scan_read(snaps[0].epoch, read(&plan, &snaps[0].to_bytes()), &mut out)
            .unwrap();
        assert!(!out.cdr.rows.is_empty() && !out.nms.rows.is_empty());
        let before = out.clone();

        // The last row of the second epoch lost a field: every row before
        // it was selected and must go again.
        let mut text = snaps[1].to_bytes();
        let comma = text.iter().rposition(|&b| b == b',').unwrap();
        text.remove(comma);
        assert!(matches!(
            plan.scan_read(snaps[1].epoch, read(&plan, &text), &mut out),
            Err(StorageError::Parse(_))
        ));
        assert_eq!(out, before);
        // Another epoch's text, whole and valid.
        assert!(matches!(
            plan.scan_read(EpochId(99), read(&plan, &snaps[1].to_bytes()), &mut out),
            Err(StorageError::WrongEpoch { .. })
        ));
        assert_eq!(out, before);
    }

    #[test]
    fn result_kind_helpers() {
        let e = QueryResult::Exact(ExactResult {
            cdr: TableSlice::empty(TableKind::Cdr),
            nms: TableSlice::empty(TableKind::Nms),
            epochs_read: 0,
        });
        assert!(e.is_exact());
        assert!(!e.is_summary());
        assert_eq!(e.row_count(), 0);
        assert!(!QueryResult::Unavailable.is_exact());
    }

    #[test]
    fn coverage_accounting() {
        let c = Coverage {
            requested: 10,
            served: 7,
            decayed: 2,
            unavailable: 1,
        };
        assert!(!c.is_complete());
        assert!((c.fraction() - 0.7).abs() < 1e-12);
        assert_eq!(c.to_string(), "7/10 served (2 decayed, 1 unavailable)");
        let full = Coverage {
            requested: 4,
            served: 4,
            ..Coverage::default()
        };
        assert!(full.is_complete());
        assert_eq!(Coverage::default().fraction(), 1.0, "empty window");
    }

    #[test]
    fn partial_results_report_their_coverage() {
        let r = QueryResult::Partial {
            result: ExactResult {
                cdr: TableSlice::empty(TableKind::Cdr),
                nms: TableSlice::empty(TableKind::Nms),
                epochs_read: 3,
            },
            coverage: Coverage {
                requested: 5,
                served: 3,
                decayed: 0,
                unavailable: 2,
            },
        };
        assert!(r.is_partial() && !r.is_exact());
        let c = r.coverage().unwrap();
        assert_eq!(c.served, 3);
        assert_eq!(c.unavailable, 2);
        assert!(QueryResult::Unavailable.coverage().is_none());
        // Exact results synthesize a complete report.
        let e = QueryResult::Exact(ExactResult {
            cdr: TableSlice::empty(TableKind::Cdr),
            nms: TableSlice::empty(TableKind::Nms),
            epochs_read: 4,
        });
        assert!(e.coverage().unwrap().is_complete());
    }
}
