//! Snapshot chunking: the pieces an epoch stores.
//!
//! An epoch stores its snapshot as the column image
//! ([`telco_trace::snapshot::ColumnImage`], written straight from the
//! snapshot's records), and one rule says what each column becomes:
//!
//! * **A constant column costs one value.** The paper's Fig. 4 shows ≥ 30
//!   all-zero CDR columns and > 100 columns under one bit of entropy; a
//!   column of two rows or more that holds one value in every row is
//!   stored as that value, replayed per row on reading, whatever the row
//!   count. The store carries it inline in the epoch's manifest.
//! * **The varying columns of a table are one run.** Their values, in
//!   column order, end to end, are the table's one *unit*: the store
//!   compresses it as one stream of the epoch's pack and addresses it by
//!   its hash. Columnar order groups same-typed values, which the pack
//!   codec compresses far tighter than row-major text.
//!
//! Every table is read back through `ColumnTable::builder`, the one
//! checked reader of the image. [`split`] and [`assemble`] are the same
//! image over the snapshot's text: `split` takes a text only as
//! `Snapshot::to_bytes` writes it (parsed, then written again and
//! compared), and keeps anything else as one unit as it stands, so
//! `assemble(split(raw)) == raw` for any input. This crate frames no text
//! of its own.
//!
//! A run is never cut into smaller pieces. Cuts existed so that equal
//! pieces could be stored once, and over whole warehouses no piece ever
//! repeated, within an epoch or across epochs.

use std::ops::Range;
use telco_trace::schema::{Schema, TableKind};
use telco_trace::snapshot::{ColumnError, ColumnImage, ColumnTable};
use telco_trace::{EpochId, Snapshot};

/// The argument [`split`] takes. Nothing is left to configure: what a
/// piece is follows from the layout alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct Chunking;

/// How to reassemble the original bytes from the piece sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// The snapshot of `epoch`: its CDR and NMS table, each under the
    /// header line `Snapshot::to_bytes` writes for its rows.
    Columnar {
        epoch: u32,
        tables: [TableLayout; 2],
    },
    /// Opaque payload: one unit, the bytes as they are.
    Blob,
}

/// One table of a snapshot in columnar form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableLayout {
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

    /// Whether the table has a run, and so a unit: a row and a varying
    /// column.
    pub fn has_run(&self) -> bool {
        self.rows > 0 && self.constant.contains(&false)
    }

    pub(crate) fn constants(&self) -> usize {
        self.constant.iter().filter(|&&c| c).count()
    }

    /// The table from its run (if it has one) and its constant values,
    /// through the one checked reader.
    pub(crate) fn read<'v>(
        &self,
        run: Option<Vec<u8>>,
        mut constants: impl Iterator<Item = &'v [u8]>,
    ) -> Result<ColumnTable, ColumnError> {
        let mut columns = ColumnTable::builder(self.rows as usize);
        for &constant in &self.constant {
            if constant {
                columns.constant(constants.next().ok_or(ColumnError::ValueCount)?)?;
            } else {
                columns.varying();
            }
        }
        if let Some(run) = run {
            columns.run(run)?;
        }
        columns.finish()
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

/// A snapshot's column image, as an epoch stores it.
pub(crate) struct Image {
    pub(crate) tables: [TableLayout; 2],
    /// The run of each table that has one, in table order.
    pub(crate) units: Vec<Vec<u8>>,
    /// The value of every constant column, in table and column order, end
    /// to end: each ends in its newline.
    pub(crate) constants: String,
    /// Bytes `Snapshot::to_bytes` writes for the snapshot.
    pub(crate) raw_len: u64,
}

impl Image {
    /// The image of `snapshot`, refused where no text could carry it
    /// ([`ColumnImage::of`]).
    pub(crate) fn of(snapshot: &Snapshot) -> Result<Self, ColumnError> {
        let mut units = Vec::new();
        let mut constants = String::new();
        let mut raw_len = Snapshot::header_line(snapshot.epoch).len();
        let mut table = |kind| -> Result<TableLayout, ColumnError> {
            let image = ColumnImage::of(kind, snapshot.table(kind))?;
            let table = TableLayout {
                rows: u32::try_from(image.rows).map_err(|_| ColumnError::TooLarge)?,
                constant: image.constant,
            };
            if table.has_run() {
                units.push(image.run.into_bytes());
            }
            constants.push_str(&image.constants);
            raw_len += image.text_len;
            Ok(table)
        };
        let tables = [table(TableKind::Cdr)?, table(TableKind::Nms)?];
        Ok(Image {
            tables,
            units,
            constants,
            raw_len: raw_len as u64,
        })
    }

    /// Each constant value, newline included, in piece order.
    pub(crate) fn constant_values(&self) -> impl Iterator<Item = &[u8]> {
        self.constants.as_bytes().split_inclusive(|&b| b == b'\n')
    }
}

/// `raw` parsed, when it is a snapshot exactly as `Snapshot::to_bytes`
/// writes it: the parse written again gives `raw` back.
pub(crate) fn canonical(raw: &[u8]) -> Option<Snapshot> {
    Snapshot::from_bytes(raw)
        .ok()
        .filter(|s| s.to_bytes() == raw)
}

/// Split `raw` into pieces plus the layout that reassembles them: the
/// column image when `raw` is a snapshot exactly as `Snapshot::to_bytes`
/// writes it (parsed, then written again to the same bytes), one blob unit
/// otherwise. `assemble(split(raw)) == raw` for any input.
pub fn split(raw: &[u8], _: &Chunking) -> (Layout, Vec<Vec<u8>>) {
    let image = canonical(raw).and_then(|s| Some((s.epoch.0, Image::of(&s).ok()?)));
    let Some((epoch, image)) = image else {
        return (Layout::Blob, vec![raw.to_vec()]);
    };
    let constants = image
        .constant_values()
        .map(<[u8]>::to_vec)
        .collect::<Vec<_>>();
    let mut pieces = image.units;
    pieces.extend(constants);
    let layout = Layout::Columnar {
        epoch,
        tables: image.tables,
    };
    (layout, pieces)
}

/// Rebuild the original bytes from a layout and its pieces (in the order
/// `split` emitted them), borrowed in whatever form the caller holds them:
/// each table read back through `ColumnTable::builder`, then written as
/// `Snapshot::to_bytes` writes it. Fails on any count or shape mismatch.
pub fn assemble<P: AsRef<[u8]>>(layout: &Layout, pieces: &[P]) -> Result<Vec<u8>, &'static str> {
    if layout.piece_count() != pieces.len() {
        return Err("piece count does not match layout");
    }
    let Layout::Columnar { epoch, tables } = layout else {
        return Ok(pieces[0].as_ref().to_vec());
    };
    let (runs, values) = pieces.split_at(layout.unit_count());
    let mut read = Vec::with_capacity(tables.len());
    for ((table, section), kind) in tables.iter().zip(layout.sections()).zip(SNAPSHOT_SECTIONS) {
        if table.cols() != Schema::shared(kind).width() {
            return Err("a table is not as wide as its schema");
        }
        let run = section.unit.map(|unit| runs[unit].as_ref().to_vec());
        let values = values[section.constants].iter().map(AsRef::as_ref);
        read.push(table.read(run, values).map_err(ColumnError::reason)?);
    }
    Ok(text(*epoch, &read))
}

/// The text of the snapshot of `epoch` whose tables, CDR then NMS, are
/// `tables`, as `Snapshot::to_bytes` writes it.
pub(crate) fn text(epoch: u32, tables: &[ColumnTable]) -> Vec<u8> {
    let mut out = Snapshot::header_line(EpochId(epoch)).into_bytes();
    for (table, kind) in tables.iter().zip(SNAPSHOT_SECTIONS) {
        out.extend_from_slice(Snapshot::table_header_line(kind, table.rows()).as_bytes());
        table.write_rows(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use telco_trace::schema::{cdr, nms};
    use telco_trace::{Record, TraceConfig, TraceGenerator, Value};

    fn round_trip(raw: &[u8]) -> (Layout, Vec<Vec<u8>>) {
        let (layout, pieces) = split(raw, &Chunking);
        let back = assemble(&layout, &pieces).expect("assemble");
        assert_eq!(back, raw, "chunker must be lossless");
        (layout, pieces)
    }

    /// The text of a snapshot of epoch 1 whose CDR rows are `cdr` and NMS
    /// rows `nms`, each field given as text.
    fn snapshot_text(cdr: &[Vec<String>], nms: &[Vec<String>]) -> Vec<u8> {
        let records = |rows: &[Vec<String>]| {
            let row = |fields: &Vec<String>| {
                Record::new(fields.iter().map(|f| Value::from_field(f)).collect())
            };
            rows.iter().map(row).collect()
        };
        Snapshot::new(EpochId(1), records(cdr), records(nms)).to_bytes()
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
        let text = snapshot_text(&[], &vec![vec!["7".into(); nms::WIDTH]; 2]);
        let crlf = String::from_utf8(text.clone())
            .unwrap()
            .replace('\n', "\r\n");
        let mut trailing = text.clone();
        trailing.extend_from_slice(b"#TABLE CELL rows=0 cols=10\n");
        for raw in [
            &b""[..],
            &b"no trailing newline"[..],
            &b"#SNAPSHOT but then garbage\nnot a table\n"[..],
            &[0u8, 1, 2, 255, 254][..],
            // Snapshot-shaped, but not as `to_bytes` writes any snapshot.
            &b"#SNAPSHOT epoch=1 ts=0\n#TABLE CDR rows=0 cols=200\n#TABLE NMS rows=0 cols=8\n"[..],
            &b"#SNAPSHOT epoch=1 ts=0\n#TABLE T rows=2 cols=2\na,b\nc,d\n"[..],
            crlf.as_bytes(),
            &trailing,
        ] {
            let (layout, pieces) = round_trip(raw);
            assert_eq!(layout, Layout::Blob, "{raw:?}");
            assert_eq!(pieces, [raw]);
        }
        assert!(matches!(round_trip(&text).0, Layout::Columnar { .. }));
    }

    #[test]
    fn the_varying_columns_of_a_table_are_one_run() {
        // Six narrow varying NMS columns, a constant one and a wide one: one
        // run of the seven varying columns, column after column, then the
        // constant's value.
        let rows = 8usize;
        let nms: Vec<Vec<String>> = (0..rows)
            .map(|r| {
                let mut row: Vec<String> = (0..6).map(|c| format!("{}", (r + c) % 10)).collect();
                row.push("0".into());
                row.push(format!("wide-value-{r:04}-padding-padding"));
                row
            })
            .collect();
        let (layout, pieces) = round_trip(&snapshot_text(&[], &nms));
        let Layout::Columnar { tables, .. } = &layout else {
            panic!("expected columnar");
        };
        let constant: Vec<bool> = (0..8).map(|c| c == 6).collect();
        assert_eq!(tables[1].constant, constant);
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
            let row = |r: usize| {
                (0..nms::WIDTH).map(move |c| match c % 2 {
                    0 => ((r + c) % 7).to_string(),
                    _ => "0".to_string(),
                })
            };
            let nms: Vec<Vec<String>> = (0..rows).map(|r| row(r).collect()).collect();
            snapshot_text(&[], &nms)
        };
        for rows in [9, 14] {
            let (layout, pieces) = round_trip(&make(rows));
            let Layout::Columnar { tables, .. } = &layout else {
                panic!("expected columnar");
            };
            assert_eq!(tables[1].constant, [false, true].repeat(4));
            assert_eq!(&pieces[1..], [b"0\n"; 4]);
            assert_eq!(layout.sections()[1].unit, Some(0));
        }
        // One row: nothing is constant, and the row is its run.
        let (layout, pieces) = round_trip(&make(1));
        assert_eq!((layout.constant_count(), pieces.len()), (0, 1));
    }

    #[test]
    fn a_table_of_constants_only_has_no_unit() {
        let cdr_row = |r: usize| {
            let mut row = vec![String::new(); cdr::WIDTH];
            row[0] = r.to_string();
            row
        };
        let nms_row: Vec<String> = (0..nms::WIDTH)
            .map(|c| ["0", "LTE"][c % 2].into())
            .collect();
        let raw = snapshot_text(&[cdr_row(1), cdr_row(2)], &vec![nms_row; 3]);
        let (layout, pieces) = round_trip(&raw);
        let sections = layout.sections();
        assert_eq!(sections[0].unit, Some(0));
        assert_eq!(sections[1].unit, None);
        assert_eq!(sections[0].constants, 0..cdr::WIDTH - 1);
        assert_eq!(sections[1].constants.len(), nms::WIDTH);
        assert_eq!(pieces[1], b"\n");
        assert_eq!(
            pieces[pieces.len() - 2..],
            [b"0\n".to_vec(), b"LTE\n".to_vec()]
        );
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
        let raw = Snapshot::new(EpochId(0), vec![], vec![]).to_bytes();
        let (layout, _) = round_trip(&raw);
        assert!(matches!(layout, Layout::Columnar { .. }));
        assert_eq!(layout.piece_count(), 0);
    }
}
