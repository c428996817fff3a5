//! Snapshot chunking: the wire bytes as the pieces an epoch stores.
//!
//! The snapshot wire format is line-oriented CSV under `#SNAPSHOT` /
//! `#TABLE` headers (see `telco_trace::snapshot`). When the bytes parse as
//! that layout, the chunker transposes each table into per-column value
//! streams, and one rule says what each becomes:
//!
//! * **A constant column costs one value.** The paper's Fig. 4 shows ≥ 30
//!   all-zero CDR columns and > 100 columns under one bit of entropy; a
//!   column of two rows or more that holds one value in every row is
//!   stored as that value, replayed per row on assembly, whatever the row
//!   count. The store carries it inline in the epoch's manifest.
//! * **The varying columns of a table are one run.** Their streams, in
//!   column order, end to end, are the table's one *unit*: the store
//!   compresses it as one stream of the epoch's pack and addresses it by
//!   its hash. Columnar order groups same-typed values, which the pack
//!   codec compresses far tighter than row-major text.
//!
//! Anything that does not parse (arbitrary bytes, foreign blobs) is one
//! unit as it stands: `assemble(split(raw)) == raw` for any input. The
//! store takes less: only a snapshot as `Snapshot::to_bytes` writes it
//! (see [`crate::CasStore::put_epoch`]).
//!
//! A run is never cut into smaller pieces. Cuts existed so that equal
//! pieces could be stored once, and over whole warehouses no piece ever
//! repeated, within an epoch or across epochs.

use std::ops::Range;
use telco_trace::schema::{Schema, TableKind};
use telco_trace::Snapshot;

/// The argument [`split`] takes. Nothing is left to configure: what a
/// piece is follows from the layout alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct Chunking;

/// How to reassemble the original bytes from the piece sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// Parsed snapshot: header line + one section per table.
    Columnar {
        /// The `#SNAPSHOT ...` line, including its newline.
        header: Vec<u8>,
        tables: Vec<TableLayout>,
    },
    /// Opaque payload: one unit, the bytes as they are.
    Blob,
}

/// One `#TABLE` section in columnar form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableLayout {
    /// The `#TABLE ...` line, including its newline.
    pub header: Vec<u8>,
    pub rows: u32,
    /// Per column, whether it is constant: one newline-terminated value,
    /// replayed `rows` times. The values of the other (varying) columns
    /// are the table's run, `rows` of them a column, in column order.
    pub constant: Vec<bool>,
}

/// The table sections of a snapshot, in stored order.
pub(crate) const SNAPSHOT_SECTIONS: [TableKind; 2] = [TableKind::Cdr, TableKind::Nms];

impl TableLayout {
    pub fn cols(&self) -> usize {
        self.constant.len()
    }

    /// Is this section `section` of a snapshot, as wide as its table and
    /// under the very line `Snapshot::to_bytes` writes for its row count?
    /// The store takes no other section, so the line is never stored
    /// ([`crate::manifest`]).
    pub(crate) fn is_as_written(&self, section: usize) -> bool {
        SNAPSHOT_SECTIONS.get(section).is_some_and(|&kind| {
            self.cols() == Schema::shared(kind).width()
                && self.header == Snapshot::table_header_line(kind, self.rows as usize).as_bytes()
        })
    }

    /// Whether the table has a run, and so a unit: a row and a varying
    /// column.
    pub fn has_run(&self) -> bool {
        self.rows > 0 && self.constant.contains(&false)
    }

    pub(crate) fn constants(&self) -> usize {
        self.constant.iter().filter(|&&c| c).count()
    }
}

/// What one section of a layout owns — a table section, or a blob's one.
/// The piece sequence is every section's unit in section order, then every
/// constant column's value in section and column order, and the manifest
/// lists unit hashes and constant refs in those same orders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// The section's unit (a table's run, a blob's bytes), as an index of
    /// the units, if it has one.
    pub unit: Option<usize>,
    /// Its constant columns, as a range of the constant values.
    pub constants: Range<usize>,
}

/// What each of `tables` owns, in order (see [`Section`]).
pub(crate) fn table_sections(tables: &[TableLayout]) -> Vec<Section> {
    let (mut units, mut constants) = (0, 0);
    let section = |table: &TableLayout| {
        let unit = table.has_run().then_some(units);
        units += usize::from(unit.is_some());
        let start = constants;
        constants += table.constants();
        Section {
            unit,
            constants: start..constants,
        }
    };
    tables.iter().map(section).collect()
}

impl Layout {
    /// Units: one per table with a run, or a blob's one.
    pub fn unit_count(&self) -> usize {
        match self {
            Layout::Columnar { tables, .. } => tables.iter().filter(|t| t.has_run()).count(),
            Layout::Blob => 1,
        }
    }

    /// Constant columns, over every table.
    pub fn constant_count(&self) -> usize {
        match self {
            Layout::Columnar { tables, .. } => tables.iter().map(TableLayout::constants).sum(),
            Layout::Blob => 0,
        }
    }

    /// Total pieces this layout references.
    pub fn piece_count(&self) -> usize {
        self.unit_count() + self.constant_count()
    }

    /// What each section owns, in section order (see [`Section`]).
    pub fn sections(&self) -> Vec<Section> {
        match self {
            Layout::Columnar { tables, .. } => table_sections(tables),
            Layout::Blob => vec![Section {
                unit: Some(0),
                constants: 0..0,
            }],
        }
    }
}

/// Split `raw` into pieces plus the layout that reassembles them.
/// Columnar when the bytes parse as the snapshot wire format, blob
/// otherwise. `assemble(split(raw)) == raw` for any input.
pub fn split(raw: &[u8], _: &Chunking) -> (Layout, Vec<Vec<u8>>) {
    try_split_columnar(raw).unwrap_or_else(|| (Layout::Blob, vec![raw.to_vec()]))
}

/// One pass over the text: each row is walked once and its fields go
/// straight onto their columns' streams, which then become the table's
/// run and constant values. `None` wherever the bytes are not the snapshot
/// wire layout.
fn try_split_columnar(raw: &[u8]) -> Option<(Layout, Vec<Vec<u8>>)> {
    // Every line ends in a newline, the last one included.
    if raw.last() != Some(&b'\n') || !raw.starts_with(b"#SNAPSHOT ") {
        return None;
    }
    let mut at = line_end(raw, 0);
    let header = raw[..at].to_vec();

    let mut tables = Vec::new();
    let mut pieces = Vec::new();
    let mut values = Vec::new();
    while at < raw.len() {
        let rows_at = line_end(raw, at);
        let table_header = &raw[at..rows_at];
        if !table_header.starts_with(b"#TABLE ") {
            return None; // trailing junk: not the expected layout
        }
        let text = std::str::from_utf8(table_header).ok()?;
        let rows: u32 = parse_kv(text, "rows")?;
        let cols: u32 = parse_kv(text, "cols")?;
        if cols == 0 {
            return None;
        }
        let (constant, next) = split_table(raw, rows_at, rows, cols, &mut pieces, &mut values)?;
        at = next;
        tables.push(TableLayout {
            header: table_header.to_vec(),
            rows,
            constant,
        });
    }
    if tables.is_empty() {
        return None;
    }
    pieces.append(&mut values);
    Some((Layout::Columnar { header, tables }, pieces))
}

/// The offset just past the line that starts at `at`. The caller has
/// checked that `raw` ends in a newline and that `at < raw.len()`.
fn line_end(raw: &[u8], at: usize) -> usize {
    let len = raw[at..].iter().position(|&b| b == b'\n');
    at + len.expect("the last line ends in a newline") + 1
}

/// One column while its table is transposed: the stream of its
/// newline-terminated values, and whether every value so far equals the
/// first (`stream[..first]`, newline included).
#[derive(Default, Clone)]
struct Column {
    stream: Vec<u8>,
    first: usize,
    constant: bool,
}

/// Transpose the `rows` lines of `cols` fields at `raw[at..]`, append the
/// table's run to `runs` (if it has one) and its constant values to
/// `values`; returns which columns are constant and the offset of the line
/// after the table.
fn split_table(
    raw: &[u8],
    mut at: usize,
    rows: u32,
    cols: u32,
    runs: &mut Vec<Vec<u8>>,
    values: &mut Vec<Vec<u8>>,
) -> Option<(Vec<bool>, usize)> {
    let n_rows = rows as usize;
    let n_cols = cols as usize;
    if n_rows == 0 {
        return Some((vec![false; n_cols], at));
    }
    // A row takes a byte per field at least (its separator): a table that
    // claims more than the text could hold is refused before anything is
    // sized from its counts.
    let left = raw.len() - at;
    if n_rows.checked_mul(n_cols)? > left {
        return None;
    }
    let mut columns = vec![Column::default(); n_cols];
    for r in 0..n_rows {
        if at == raw.len() {
            return None; // fewer lines than rows
        }
        let row_at = at;
        let mut field_at = at;
        let mut c = 0usize;
        loop {
            let b = raw[at];
            at += 1;
            if b != b',' && b != b'\n' {
                continue;
            }
            let column = columns.get_mut(c)?; // more fields than columns
            let field = &raw[field_at..at - 1];
            if r == 0 {
                column.first = field.len() + 1;
                column.constant = true;
            } else if column.constant && field != &column.stream[..column.first - 1] {
                column.constant = false;
            }
            column.stream.extend_from_slice(field);
            column.stream.push(b'\n');
            c += 1;
            field_at = at;
            if b == b'\n' {
                break;
            }
        }
        if c != n_cols {
            return None;
        }
        // Rows of one table are about as wide as each other: size every
        // stream from the first row's value, unless that row is so wide
        // that the estimate could not be true of the text that is left.
        if r == 0 && (at - row_at).saturating_mul(n_rows) <= 2 * left {
            for column in &mut columns {
                column.stream.reserve(column.first * (n_rows - 1));
            }
        }
    }
    // A constant column (Fig. 4: ≥ 30 all-zero CDR columns) stores its one
    // value, replayed `rows` times on assembly, so an all-zero column is
    // two bytes; a one-row column gains nothing from that and stays in the
    // run. Every other column joins the run.
    let constant: Vec<bool> = columns.iter().map(|c| c.constant && n_rows >= 2).collect();
    let varying = columns.iter().zip(&constant).filter(|(_, &k)| !k);
    let mut run = Vec::with_capacity(varying.map(|(c, _)| c.stream.len()).sum());
    for (column, &k) in columns.iter().zip(&constant) {
        if k {
            values.push(column.stream[..column.first].to_vec());
        } else {
            run.extend_from_slice(&column.stream);
        }
    }
    if constant.contains(&false) {
        runs.push(run);
    }
    Some((constant, at))
}

fn parse_kv<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    for part in line.split_whitespace() {
        if let Some(v) = part.strip_prefix(key).and_then(|r| r.strip_prefix('=')) {
            return v.parse().ok();
        }
    }
    None
}

/// Never pre-reserve more than this from sizes a manifest declares; the
/// output still grows on demand past it.
const MAX_PREALLOC: usize = 16 << 20;

/// Rebuild the original bytes from a layout and its pieces (in the order
/// `split` emitted them), borrowed in whatever form the caller holds them.
/// Fails on any count or shape mismatch.
///
/// One pass: every varying column keeps a cursor into its table's run and
/// each row is written straight to the output, so no column stream is ever
/// copied out of the run. The constant columns between two varying ones
/// are laid out once per table as a ready-made row fragment (`0,0,,0,`)
/// and replayed with one copy per row.
pub fn assemble<P: AsRef<[u8]>>(layout: &Layout, pieces: &[P]) -> Result<Vec<u8>, &'static str> {
    if layout.piece_count() != pieces.len() {
        return Err("piece count does not match layout");
    }
    let Layout::Columnar { header, tables } = layout else {
        return Ok(pieces[0].as_ref().to_vec());
    };
    let (runs, values) = pieces.split_at(layout.unit_count());
    let sections = layout.sections();
    // Every stored value ends in a newline and every written one in a
    // separator, so a run takes exactly its bytes; a constant value takes
    // `rows` times its bytes.
    let mut size = header.len();
    for (table, section) in tables.iter().zip(&sections) {
        size = size.saturating_add(table.header.len());
        if let Some(unit) = section.unit {
            size = size.saturating_add(runs[unit].as_ref().len());
        }
        for value in &values[section.constants.clone()] {
            let replayed = value.as_ref().len().saturating_mul(table.rows as usize);
            size = size.saturating_add(replayed);
        }
    }
    let mut out = Vec::with_capacity(size.min(MAX_PREALLOC));
    out.extend_from_slice(header);
    for (table, section) in tables.iter().zip(sections) {
        out.extend_from_slice(&table.header);
        let run = section.unit.map_or(&[][..], |unit| runs[unit].as_ref());
        assemble_table(table, run, &values[section.constants], &mut out)?;
    }
    Ok(out)
}

/// Append the next newline-terminated value of `run` at `*at` to `out`,
/// closed by `sep`.
#[inline]
fn copy_value(run: &[u8], at: &mut usize, out: &mut Vec<u8>, sep: u8) -> Result<(), &'static str> {
    let rest = &run[*at..];
    // Most values are a few bytes: take 16 at once, find the newline in
    // them without a loop, keep the bytes up to it.
    if let Some(chunk) = rest.first_chunk::<16>() {
        const LOW: u128 = u128::from_le_bytes([0x01; 16]);
        const HIGH: u128 = u128::from_le_bytes([0x80; 16]);
        // A zero byte where `chunk` has a newline; the lowest set bit of
        // `hit` marks the first one.
        let v = u128::from_le_bytes(*chunk) ^ (LOW * u128::from(b'\n'));
        let hit = v.wrapping_sub(LOW) & !v & HIGH;
        if hit != 0 {
            let n = (hit.trailing_zeros() / 8) as usize;
            let end = out.len();
            out.extend_from_slice(chunk);
            out.truncate(end + n + 1);
            out[end + n] = sep;
            *at += n + 1;
            return Ok(());
        }
    }
    let n = rest.iter().position(|&b| b == b'\n');
    let n = n.ok_or("column stream ran out of rows")?;
    out.extend_from_slice(&rest[..n]);
    out.push(sep);
    *at += n + 1;
    Ok(())
}

/// Where the run at `at` is `rows` values on: the next column's start.
fn skip_values(run: &[u8], mut at: usize, rows: u32) -> Result<usize, &'static str> {
    for _ in 0..rows {
        let n = run[at..].iter().position(|&b| b == b'\n');
        at += n.ok_or("column stream ran out of rows")? + 1;
    }
    Ok(at)
}

/// What one row takes from a stretch of columns.
enum Part {
    /// Adjacent constant columns: this range of the table's row fragment
    /// buffer, separators included.
    Constants(Range<usize>),
    /// One varying column: the next value under its cursor, then `sep`.
    Value { cursor: usize, sep: u8 },
}

/// Write the rows of `table` from its run and its constant values.
fn assemble_table<P: AsRef<[u8]>>(
    table: &TableLayout,
    run: &[u8],
    values: &[P],
    out: &mut Vec<u8>,
) -> Result<(), &'static str> {
    let mut parts: Vec<Part> = Vec::new();
    let mut constants: Vec<u8> = Vec::new();
    let mut values = values.iter();
    // Where each varying column's values start: `rows` values after the
    // previous one's.
    let mut cursors: Vec<usize> = Vec::new();
    let last = table.cols().saturating_sub(1);
    for (c, &constant) in table.constant.iter().enumerate() {
        let sep = if c == last { b'\n' } else { b',' };
        if !constant {
            let start = match cursors.last() {
                Some(&previous) => skip_values(run, previous, table.rows)?,
                None => 0,
            };
            parts.push(Part::Value {
                cursor: cursors.len(),
                sep,
            });
            cursors.push(start);
            continue;
        }
        let value = values.next().ok_or("piece count does not match layout")?;
        let value = value.as_ref();
        // One value: its only newline ends the piece (an empty piece has
        // none).
        if value.iter().position(|&b| b == b'\n') != Some(value.len().wrapping_sub(1)) {
            return Err("constant piece is not one value");
        }
        let start = constants.len();
        constants.extend_from_slice(&value[..value.len() - 1]);
        constants.push(sep);
        match parts.last_mut() {
            Some(Part::Constants(range)) => range.end = constants.len(),
            _ => parts.push(Part::Constants(start..constants.len())),
        }
    }
    for _ in 0..table.rows {
        for part in &parts {
            match part {
                Part::Constants(range) => out.extend_from_slice(&constants[range.clone()]),
                Part::Value { cursor, sep } => copy_value(run, &mut cursors[*cursor], out, *sep)?,
            }
        }
    }
    // The last column stops where the run does.
    if cursors.last().copied().unwrap_or(0) != run.len() {
        return Err("run has trailing rows");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use telco_trace::{TraceConfig, TraceGenerator};

    fn round_trip(raw: &[u8]) -> (Layout, Vec<Vec<u8>>) {
        let (layout, pieces) = split(raw, &Chunking);
        let back = assemble(&layout, &pieces).expect("assemble");
        assert_eq!(back, raw, "chunker must be lossless");
        (layout, pieces)
    }

    #[test]
    fn real_snapshots_go_columnar_and_round_trip() {
        for snap in TraceGenerator::new(TraceConfig::tiny()).take(4) {
            let (layout, _) = round_trip(&snap.to_bytes());
            assert!(
                matches!(layout, Layout::Columnar { .. }),
                "wire snapshots must take the columnar path"
            );
        }
    }

    #[test]
    fn opaque_bytes_are_one_blob_unit() {
        for raw in [
            &b""[..],
            &b"no trailing newline"[..],
            &b"#SNAPSHOT but then garbage\nnot a table\n"[..],
            &[0u8, 1, 2, 255, 254][..],
        ] {
            let (layout, pieces) = round_trip(raw);
            assert_eq!(layout, Layout::Blob, "{raw:?}");
            assert_eq!(pieces, [raw]);
        }
    }

    #[test]
    fn the_varying_columns_of_a_table_are_one_run() {
        // Six narrow varying columns, a constant one and a wide one: one
        // run of the seven varying columns, column after column, then the
        // constant's value.
        let rows = 8usize;
        let mut s = String::from("#SNAPSHOT epoch=1 ts=0\n");
        s.push_str(&format!("#TABLE CDR rows={rows} cols=8\n"));
        for r in 0..rows {
            let narrow: Vec<String> = (0..6).map(|c| format!("{}", (r + c) % 10)).collect();
            let wide = format!("wide-value-{r:04}-padding-padding");
            s.push_str(&format!("{},0,{wide}\n", narrow.join(",")));
        }
        let (layout, pieces) = round_trip(s.as_bytes());
        let Layout::Columnar { tables, .. } = &layout else {
            panic!("expected columnar");
        };
        let constant: Vec<bool> = (0..8).map(|c| c == 6).collect();
        assert_eq!(tables[0].constant, constant);
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[1], b"0\n");
        let values = pieces[0].iter().filter(|&&b| b == b'\n').count();
        assert_eq!(values, 7 * rows);
        assert!(pieces[0].starts_with(b"0\n1\n2\n"), "column 0 first");
        assert!(pieces[0].ends_with(b"wide-value-0007-padding-padding\n"));
    }

    #[test]
    fn constant_columns_collapse_to_one_value_piece() {
        // Constant columns store a single value piece regardless of row
        // count, and the run holds the varying columns on either side of
        // them.
        let make = |rows: usize| {
            let mut s = String::from("#SNAPSHOT epoch=1 ts=0\n");
            s.push_str(&format!("#TABLE CDR rows={rows} cols=4\n"));
            for r in 0..rows {
                // cols: varying, constant zero, varying, constant zero
                s.push_str(&format!("{},0,{},0\n", r % 7, (r + 3) % 7));
            }
            s.into_bytes()
        };
        for rows in [9, 14] {
            let (layout, pieces) = round_trip(&make(rows));
            let Layout::Columnar { tables, .. } = &layout else {
                panic!("expected columnar");
            };
            assert_eq!(tables[0].constant, [false, true, false, true]);
            assert_eq!(&pieces[1..], [b"0\n", b"0\n"]);
            assert_eq!(layout.sections()[0].unit, Some(0));
        }
        // One row: nothing is constant, and the row is its run.
        let (layout, pieces) = round_trip(&make(1));
        assert_eq!((layout.constant_count(), pieces.len()), (0, 1));
    }

    #[test]
    fn a_table_of_constants_only_has_no_unit() {
        let raw = b"#SNAPSHOT epoch=1 ts=0\n#TABLE CDR rows=2 cols=2\n1,a\n2,b\n#TABLE NMS rows=3 cols=2\n0,LTE\n0,LTE\n0,LTE\n";
        let (layout, pieces) = round_trip(raw);
        let sections = layout.sections();
        assert_eq!(sections[0].unit, Some(0));
        assert_eq!(sections[1].unit, None);
        assert_eq!(sections[1].constants, 0..2);
        assert_eq!(pieces[1..], [b"0\n".to_vec(), b"LTE\n".to_vec()]);
    }

    #[test]
    fn mismatched_pieces_are_rejected() {
        let snap = TraceGenerator::new(TraceConfig::tiny())
            .next()
            .unwrap()
            .to_bytes();
        let (layout, mut pieces) = split(&snap, &Chunking);
        pieces.pop();
        assert!(assemble(&layout, &pieces).is_err());
    }

    #[test]
    fn empty_table_sections_round_trip() {
        let raw = b"#SNAPSHOT epoch=0 ts=0\n#TABLE CDR rows=0 cols=200\n#TABLE NMS rows=0 cols=8\n";
        let (layout, _) = round_trip(raw);
        assert!(matches!(layout, Layout::Columnar { .. }));
        assert_eq!(layout.piece_count(), 0);
    }
}
