//! Snapshots: the 30-minute batches of CDR + NMS records that stream into
//! SPATE, their text wire format (what the storage layer compresses), and
//! their column image (what a columnar store keeps): one writer,
//! [`ColumnImage::of`], and one checked reader, [`ColumnTableBuilder`].

use crate::record::{Record, Value};
use crate::schema::{cdr, nms, TableKind};
use crate::time::EpochId;
use std::borrow::Cow;
use std::fmt;

/// One ingestion batch `d_i`: all user and network activity of one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub epoch: EpochId,
    pub cdr: Vec<Record>,
    pub nms: Vec<Record>,
}

/// Error parsing a serialized snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotParseError {
    MissingHeader,
    BadHeader(String),
    BadTableHeader(String),
    BadRow { table: &'static str, line: usize },
    RowCountMismatch { table: &'static str },
}

impl fmt::Display for SnapshotParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotParseError::MissingHeader => write!(f, "missing snapshot header"),
            SnapshotParseError::BadHeader(s) => write!(f, "bad snapshot header: {s}"),
            SnapshotParseError::BadTableHeader(s) => write!(f, "bad table header: {s}"),
            SnapshotParseError::BadRow { table, line } => {
                write!(f, "bad {table} row at line {line}")
            }
            SnapshotParseError::RowCountMismatch { table } => {
                write!(f, "{table} row count mismatch")
            }
        }
    }
}

impl std::error::Error for SnapshotParseError {}

impl Snapshot {
    pub fn new(epoch: EpochId, cdr: Vec<Record>, nms: Vec<Record>) -> Self {
        Self { epoch, cdr, nms }
    }

    pub fn total_records(&self) -> usize {
        self.cdr.len() + self.nms.len()
    }

    /// The records of one of the snapshot's two tables.
    ///
    /// # Panics
    /// For [`TableKind::Cell`]: the cell inventory is not snapshot data.
    pub fn table(&self, table: TableKind) -> &[Record] {
        match table {
            TableKind::Cdr => &self.cdr,
            TableKind::Nms => &self.nms,
            TableKind::Cell => panic!("a snapshot has no CELL table"),
        }
    }

    /// Serialize to the text wire format:
    ///
    /// ```text
    /// #SNAPSHOT epoch=<n> ts=<YYYYMMDDhhmm>
    /// #TABLE CDR rows=<n> cols=200
    /// <csv rows>
    /// #TABLE NMS rows=<n> cols=8
    /// <csv rows>
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        // Generated CDR rows (200 columns) take ~490 bytes, NMS rows ~38.
        let mut out = String::with_capacity(self.cdr.len() * 512 + self.nms.len() * 48 + 128);
        out.push_str(&Self::header_line(self.epoch));
        for table in [TableKind::Cdr, TableKind::Nms] {
            let records = self.table(table);
            out.push_str(&Self::table_header_line(table, records.len()));
            for r in records {
                r.to_line(&mut out);
            }
        }
        out.into_bytes()
    }

    /// The line [`Self::to_bytes`] opens the snapshot of `epoch` with,
    /// newline included.
    pub fn header_line(epoch: EpochId) -> String {
        format!(
            "#SNAPSHOT epoch={} ts={}\n",
            epoch.0,
            epoch.civil().compact()
        )
    }

    /// The line [`Self::to_bytes`] opens a `table` section of `rows` rows
    /// with, newline included.
    ///
    /// # Panics
    /// For [`TableKind::Cell`]: the cell inventory is not snapshot data.
    pub fn table_header_line(table: TableKind, rows: usize) -> String {
        format!(
            "#TABLE {} rows={rows} cols={}\n",
            table.name(),
            table_width(table)
        )
    }

    /// Parse the wire format back into a snapshot: [`Self::scan`], each
    /// row lent made its [`Row::record`]. Lines end at `\n` or `\r\n`;
    /// anything after the NMS table is ignored.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotParseError> {
        let (mut cdr, mut nms) = (Vec::new(), Vec::new());
        let epoch = Self::scan(bytes, |table, row| match table {
            TableKind::Cdr => cdr.push(Row::Text(row).record(cdr::WIDTH)),
            _ => nms.push(Row::Text(row).record(nms::WIDTH)),
        })?;
        Ok(Snapshot::new(epoch, cdr, nms))
    }

    /// The epoch a `#SNAPSHOT epoch=<n> ...` header line names, as
    /// [`Self::from_bytes`] reads it; `None` for any other line.
    pub fn header_epoch(line: &str) -> Option<EpochId> {
        let epoch = header_value(line, "epoch").filter(|_| line.starts_with("#SNAPSHOT"))?;
        Some(EpochId(epoch))
    }

    /// Walk the wire format without building a snapshot: `visit` is lent
    /// every row of the CDR table, then every row of the NMS table, in
    /// stored order, as a [`RowText`]. Nothing is allocated.
    ///
    /// One UTF-8 validation of the buffer, then one pass over its bytes;
    /// a row is checked for arity before it is lent. Rows visited before
    /// an `Err` belong to a snapshot that does not parse; the caller
    /// discards them. Returns the epoch of the `#SNAPSHOT` header.
    pub fn scan<'a>(
        bytes: &'a [u8],
        mut visit: impl FnMut(TableKind, RowText<'a>),
    ) -> Result<EpochId, SnapshotParseError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| SnapshotParseError::BadHeader("not utf-8".into()))?;
        let mut lines = Lines {
            text,
            pos: 0,
            line_no: 0,
        };
        let header = lines.next_line().ok_or(SnapshotParseError::MissingHeader)?;
        let epoch = Snapshot::header_epoch(header)
            .ok_or_else(|| SnapshotParseError::BadHeader(header.to_string()))?;
        lines.read_table(TableKind::Cdr, cdr::WIDTH, &mut visit)?;
        lines.read_table(TableKind::Nms, nms::WIDTH, &mut visit)?;
        Ok(epoch)
    }
}

/// The columns of a snapshot table.
///
/// # Panics
/// For [`TableKind::Cell`]: the cell inventory is not snapshot data.
fn table_width(table: TableKind) -> usize {
    match table {
        TableKind::Cdr => cdr::WIDTH,
        TableKind::Nms => nms::WIDTH,
        TableKind::Cell => panic!("a snapshot has no CELL table"),
    }
}

/// One row of a serialized snapshot, lent by [`Snapshot::scan`]: the
/// line without its terminator, known to hold its table's column count.
#[derive(Debug, Clone, Copy)]
pub struct RowText<'a> {
    line: &'a str,
}

impl<'a> RowText<'a> {
    fn n_fields(&self) -> usize {
        self.line.bytes().filter(|&b| b == b',').count() + 1
    }

    /// The text of column `col` (empty for a blank field).
    ///
    /// # Panics
    /// If the table has no column `col`.
    pub fn field(&self, col: usize) -> &'a str {
        // A byte loop: fields average 2 bytes, where `split(',').nth(col)`
        // (a `memchr` call per field) measured 2-4x slower.
        let bytes = self.line.as_bytes();
        let mut start = 0;
        for _ in 0..col {
            match bytes[start..].iter().position(|&b| b == b',') {
                Some(n) => start += n + 1,
                None => panic!("column {col} of a {}-column row", self.n_fields()),
            }
        }
        let len = bytes[start..]
            .iter()
            .position(|&b| b == b',')
            .unwrap_or(bytes.len() - start);
        // `,` is ASCII: both ends are character boundaries.
        &self.line[start..start + len]
    }

    /// Every column's text, in column order.
    pub fn fields(&self) -> impl Iterator<Item = &'a str> {
        self.line.split(',')
    }
}

/// One table of a snapshot held column by column: what a columnar store
/// lends a scan instead of rebuilt row text. A column is either one value
/// that every row holds, or `rows` values of a shared text of
/// newline-terminated values; a field is found by its row and column, and
/// no field of a column a scan does not name is ever looked at.
///
/// Built through [`ColumnTableBuilder`], which admits what
/// [`Snapshot::scan`] admits of the same table: as many values a column as
/// the table has rows, no separator inside a value, UTF-8.
#[derive(Debug)]
pub struct ColumnTable {
    rows: usize,
    /// The values of the varying columns, column by column, each ended by
    /// a newline.
    text: String,
    /// Where each value of `text` starts, then `text.len()`.
    starts: Vec<u32>,
    /// The values of the constant columns, end to end.
    constants: String,
    columns: Vec<Column>,
}

#[derive(Debug, Clone, Copy)]
enum Column {
    /// Every row holds this range of `constants`.
    Constant { start: u32, end: u32 },
    /// Row `r` holds value `first + r` of `text`.
    Varying { first: usize },
}

/// Why a [`ColumnTableBuilder`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnError {
    /// A run of values does not hold one value a row for each of its
    /// columns, or a constant is not exactly one value.
    ValueCount,
    /// A value holds a field separator (or, in a record, a `\n` or `\r`):
    /// as text, its row would not read back as it was written.
    Separator,
    NotUtf8,
    /// More than `u32::MAX` bytes of values.
    TooLarge,
}

impl ColumnError {
    /// What went wrong, in words.
    pub fn reason(self) -> &'static str {
        match self {
            ColumnError::ValueCount => "a column does not hold one value a row",
            ColumnError::Separator => "a value holds a field separator",
            ColumnError::NotUtf8 => "column values are not utf-8",
            ColumnError::TooLarge => "more than 4 GiB of column values",
        }
    }
}

impl fmt::Display for ColumnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.reason())
    }
}

impl std::error::Error for ColumnError {}

/// One table of a snapshot as a column image: what a columnar store keeps
/// of it, written straight from its records by [`Self::of`] and read back
/// through [`ColumnTable::builder`]. A column of two rows or more that
/// holds one text in every row is *constant* and kept as that one value
/// (a one-row column gains nothing from it); the values of every other
/// column, column after column, are the table's one *run*. Every value is
/// ended by a newline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnImage {
    pub rows: usize,
    /// Per column, whether it is constant.
    pub constant: Vec<bool>,
    /// The values of the varying columns.
    pub run: String,
    /// The value of each constant column, in column order.
    pub constants: String,
    /// Bytes [`Snapshot::to_bytes`] writes for the table, its header line
    /// included.
    pub text_len: usize,
}

impl ColumnImage {
    /// The image of `records`, the rows of `table`, each field written as
    /// [`Record::to_line`] writes it. Refused, as no text could carry it,
    /// when a record is not as wide as the table or a value holds a `,`,
    /// `\n` or `\r`.
    ///
    /// # Panics
    /// For [`TableKind::Cell`]: the cell inventory is not snapshot data.
    pub fn of(table: TableKind, records: &[Record]) -> Result<Self, ColumnError> {
        let width = table_width(table);
        if records.iter().any(|r| r.values.len() != width) {
            return Err(ColumnError::ValueCount);
        }
        let rows = records.len();
        // Row by row, each field onto its column's stream: the records are
        // read in the order they lie in memory, not a column at a time
        // over rows kilobytes apart. Fields average two bytes: four a row
        // is most columns' size.
        let mut columns: Vec<String> = (0..width)
            .map(|_| String::with_capacity(rows * 4))
            .collect();
        for record in records {
            for (value, column) in record.values.iter().zip(&mut columns) {
                value
                    .write_text(column)
                    .expect("writing to a String cannot fail");
                column.push('\n');
            }
        }
        // A value holding a separator shows as a column of another number
        // of newlines, or one holding a `,` or `\r`: counted in one pass a
        // column, not field by field.
        for column in &columns {
            if separators(column.as_bytes()) != (rows, false) {
                return Err(ColumnError::Separator);
            }
        }
        let constant: Vec<bool> = columns
            .iter()
            .map(|c| rows >= 2 && is_constant(c))
            .collect();
        let varying = columns.iter().zip(&constant).filter(|(_, &k)| !k);
        let mut image = ColumnImage {
            rows,
            run: String::with_capacity(varying.map(|(c, _)| c.len()).sum()),
            constants: String::new(),
            // Each value and its newline are as long as the value and the
            // separator after it in the text.
            text_len: Snapshot::table_header_line(table, rows).len()
                + columns.iter().map(String::len).sum::<usize>(),
            constant,
        };
        for (column, &constant) in columns.iter().zip(&image.constant) {
            match constant {
                true => image
                    .constants
                    .push_str(&column[..=column.find('\n').expect("a value")]),
                false => image.run.push_str(column),
            }
        }
        Ok(image)
    }
}

/// How many newlines `bytes` holds, and whether it holds a `,` or `\r`:
/// eight bytes a step, as [`frame_row`] reads a row (a byte loop measured
/// three times slower).
fn separators(bytes: &[u8]) -> (usize, bool) {
    let (mut newlines, mut others) = (0, 0);
    let mut scan = |word: u64| {
        newlines += flagged(byte_mask(word, b'\n'));
        others |= byte_mask(word, b',') | byte_mask(word, b'\r');
    };
    let mut words = bytes.chunks_exact(8);
    for eight in &mut words {
        scan(u64::from_le_bytes(eight.try_into().expect("eight bytes")));
    }
    // The last bytes, padded with zeros: no separator.
    let mut last = [0; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    scan(u64::from_le_bytes(last));
    (newlines, others != 0)
}

/// Whether every newline-ended value of `column` is its first.
fn is_constant(column: &str) -> bool {
    let column = column.as_bytes();
    let first = column.iter().position(|&b| b == b'\n').map_or(0, |n| n + 1);
    first > 0
        && column.len().is_multiple_of(first)
        && column.chunks_exact(first).all(|v| v == &column[..first])
}

impl ColumnTable {
    /// Start a table of `rows` rows; its columns are declared left to
    /// right.
    pub fn builder(rows: usize) -> ColumnTableBuilder {
        ColumnTableBuilder {
            rows,
            text: Vec::new(),
            starts: vec![0],
            constants: Vec::new(),
            columns: Vec::new(),
            varying: 0,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns declared.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Row `row` of the table, as a scan reads it.
    ///
    /// # Panics
    /// If the table has no row `row`.
    pub fn row(&self, row: usize) -> Row<'_> {
        assert!(row < self.rows, "row {row} of a {}-row table", self.rows);
        Row::Column(RowColumns { table: self, row })
    }

    /// Every row as the [`Record`] [`Snapshot::from_bytes`] builds of the
    /// same row of text: each field [`Row::value`].
    pub fn records(&self) -> Vec<Record> {
        let mut rows: Vec<Vec<Value>> = (0..self.rows)
            .map(|_| Vec::with_capacity(self.width()))
            .collect();
        // Column by column; a constant's value is built once.
        for (col, column) in self.columns.iter().enumerate() {
            let Column::Varying { first } = *column else {
                let value = Value::from_field(self.field(0, col));
                rows.iter_mut()
                    .for_each(|values| values.push(value.clone()));
                continue;
            };
            let starts = self.starts[first..=first + self.rows].windows(2);
            for (values, at) in rows.iter_mut().zip(starts) {
                let field = &self.text[at[0] as usize..at[1] as usize - 1];
                values.push(Value::from_field(field));
            }
        }
        rows.into_iter().map(Record::new).collect()
    }

    /// Append every row as [`Snapshot::to_bytes`] writes it: the fields
    /// separated by `,`, the row ended by a newline.
    pub fn write_rows(&self, out: &mut Vec<u8>) {
        for row in 0..self.rows {
            for col in 0..self.width() {
                if col > 0 {
                    out.push(b',');
                }
                out.extend_from_slice(self.field(row, col).as_bytes());
            }
            out.push(b'\n');
        }
    }

    /// The text of column `col` in row `row` (the builder has checked
    /// every index and boundary this takes).
    fn field(&self, row: usize, col: usize) -> &str {
        match self.columns[col] {
            Column::Constant { start, end } => &self.constants[start as usize..end as usize],
            Column::Varying { first } => {
                let at = first + row;
                &self.text[self.starts[at] as usize..self.starts[at + 1] as usize - 1]
            }
        }
    }
}

/// Builds a [`ColumnTable`]. Columns are declared left to right with
/// [`Self::constant`] and [`Self::varying`]; the values of the varying
/// columns then arrive, in the same order, as one [`Self::run`].
pub struct ColumnTableBuilder {
    rows: usize,
    /// As in [`ColumnTable`], not yet known to be UTF-8.
    text: Vec<u8>,
    starts: Vec<u32>,
    constants: Vec<u8>,
    columns: Vec<Column>,
    /// Varying columns declared so far.
    varying: usize,
}

impl ColumnTableBuilder {
    /// The next column holds `value` — one newline-terminated value — in
    /// every row.
    pub fn constant(&mut self, value: &[u8]) -> Result<(), ColumnError> {
        let Some((b'\n', field)) = value.split_last() else {
            return Err(ColumnError::ValueCount);
        };
        if field.contains(&b'\n') {
            return Err(ColumnError::ValueCount);
        }
        if field.contains(&b',') {
            return Err(ColumnError::Separator);
        }
        let start = self.constants.len();
        self.constants.extend_from_slice(field);
        let range = u32::try_from(start)
            .ok()
            .zip(u32::try_from(self.constants.len()).ok());
        let (start, end) = range.ok_or(ColumnError::TooLarge)?;
        self.columns.push(Column::Constant { start, end });
        Ok(())
    }

    /// The next column takes the next `rows` values of the runs.
    pub fn varying(&mut self) {
        let first = self.varying * self.rows;
        self.columns.push(Column::Varying { first });
        self.varying += 1;
    }

    /// The values of every varying column declared so far, one column
    /// after the other and each value ended by a newline: the table's one
    /// run, which becomes its text as it stands. Refused unless that is
    /// exactly `rows` values a varying column, and refused a second time.
    pub fn run(&mut self, run: Vec<u8>) -> Result<(), ColumnError> {
        if self.starts.len() > 1 {
            return Err(ColumnError::ValueCount);
        }
        if u32::try_from(run.len()).is_err() {
            return Err(ColumnError::TooLarge);
        }
        let starts = &mut self.starts;
        // A value takes a byte at least: its newline.
        starts.reserve(run.len().min(self.rows.saturating_mul(self.varying)));
        let mut separator = false;
        for (at, &b) in run.iter().enumerate() {
            separator |= b == b',';
            if b == b'\n' {
                starts.push((at + 1) as u32);
            }
        }
        if separator {
            return Err(ColumnError::Separator);
        }
        let whole = run.last().is_none_or(|&b| b == b'\n');
        if !whole || Some(starts.len() - 1) != self.rows.checked_mul(self.varying) {
            return Err(ColumnError::ValueCount);
        }
        self.text = run;
        Ok(())
    }

    /// The table, once every varying column has its values and all of
    /// them are UTF-8.
    pub fn finish(self) -> Result<ColumnTable, ColumnError> {
        if Some(self.starts.len() - 1) != self.varying.checked_mul(self.rows) {
            return Err(ColumnError::ValueCount);
        }
        // Every value ends in a newline, so a character cannot straddle
        // two of them: valid as a whole is valid value by value.
        let utf8 = |bytes| String::from_utf8(bytes).map_err(|_| ColumnError::NotUtf8);
        Ok(ColumnTable {
            rows: self.rows,
            text: utf8(self.text)?,
            starts: self.starts,
            constants: utf8(self.constants)?,
            columns: self.columns,
        })
    }
}

/// One row of a [`ColumnTable`].
#[derive(Debug, Clone, Copy)]
pub struct RowColumns<'a> {
    table: &'a ColumnTable,
    row: usize,
}

impl<'a> RowColumns<'a> {
    /// The text of column `col` (empty for a blank field).
    ///
    /// # Panics
    /// If the table has no column `col`.
    pub fn field(&self, col: usize) -> &'a str {
        self.table.field(self.row, col)
    }
}

/// One row of a table as a scan lends it: the text of a serialized row
/// ([`Snapshot::scan`]), a row of a [`ColumnTable`] or a decoded
/// [`Record`], read the same way. Each accessor returns what the [`Value`]
/// that [`Snapshot::from_bytes`] builds for the column would: `row.i64(c)`
/// is `Value::from_field(field).as_i64()`, without the `Value`.
#[derive(Debug, Clone, Copy)]
pub enum Row<'a> {
    Text(RowText<'a>),
    Column(RowColumns<'a>),
    Record(&'a Record),
}

impl<'a> Row<'a> {
    /// [`Value::text`] of column `col`.
    pub fn text(&self, col: usize) -> Cow<'a, str> {
        match *self {
            Row::Text(row) => Cow::Borrowed(row.field(col)),
            Row::Column(row) => Cow::Borrowed(row.field(col)),
            Row::Record(record) => record.get(col).text(),
        }
    }

    /// [`Value::as_i64`] of column `col`.
    pub fn i64(&self, col: usize) -> Option<i64> {
        match *self {
            Row::Text(row) => row.field(col).parse().ok(),
            Row::Column(row) => row.field(col).parse().ok(),
            Row::Record(record) => record.get(col).as_i64(),
        }
    }

    /// [`Value::as_f64`] of column `col`.
    pub fn f64(&self, col: usize) -> Option<f64> {
        match *self {
            Row::Text(row) => row.field(col).parse().ok(),
            Row::Column(row) => row.field(col).parse().ok(),
            Row::Record(record) => record.get(col).as_f64(),
        }
    }

    /// Column `col` as the [`Value`] [`Snapshot::from_bytes`] builds for it.
    pub fn value(&self, col: usize) -> Value {
        match *self {
            Row::Text(row) => Value::from_field(row.field(col)),
            Row::Column(row) => Value::from_field(row.field(col)),
            Row::Record(record) => record.get(col).clone(),
        }
    }

    /// This row of a `width`-column table as the [`Record`]
    /// [`Snapshot::from_bytes`] builds of it: over text, one pass over the
    /// line, where a [`Self::value`] per column would walk it from the
    /// start each time.
    pub fn record(&self, width: usize) -> Record {
        let mut values = Vec::with_capacity(width);
        match *self {
            Row::Text(row) => {
                // A byte loop: `split(',')` (a `memchr` call per ~2-byte
                // field) left `from_bytes` ~30 % slower.
                let mut start = 0;
                for (at, &b) in row.line.as_bytes().iter().enumerate() {
                    if b == b',' {
                        values.push(Value::from_field(&row.line[start..at]));
                        start = at + 1;
                    }
                }
                values.push(Value::from_field(&row.line[start..]));
            }
            Row::Column(row) => {
                values.extend((0..width).map(|col| Value::from_field(row.field(col))));
            }
            Row::Record(record) => return record.clone(),
        }
        Record::new(values)
    }

    /// A `width`-column row of values holding this row's columns `cols`
    /// (ascending) and `Null` everywhere else: over text, one pass that
    /// ends at the last column asked for.
    pub fn sparse_values(&self, cols: &[usize], width: usize) -> Vec<Value> {
        let mut values = vec![Value::Null; width];
        match *self {
            Row::Text(row) => {
                let mut fields = row.fields();
                let mut next = 0;
                for &col in cols {
                    let field = fields.nth(col - next).expect("a column of the table");
                    values[col] = Value::from_field(field);
                    next = col + 1;
                }
            }
            Row::Column(row) => {
                for &col in cols {
                    values[col] = Value::from_field(row.field(col));
                }
            }
            Row::Record(record) => {
                for &col in cols {
                    values[col] = record.get(col).clone();
                }
            }
        }
        values
    }
}

/// The line starting at byte `start` of `text`, without its terminator,
/// and the offset of the next line. A line ends at `\n` (a `\r` before it
/// dropped) or, unterminated, at the end of `text`.
fn line_at(text: &str, start: usize) -> (&str, usize) {
    let rest = &text[start..];
    match rest.find('\n') {
        Some(n) => {
            let line = &rest[..n];
            (line.strip_suffix('\r').unwrap_or(line), start + n + 1)
        }
        None => (rest, text.len()),
    }
}

/// The row starting at byte `start` of `text` if it holds `width`
/// fields, and the offset of the next line.
pub(crate) fn row_at(text: &str, start: usize, width: usize) -> Option<(RowText<'_>, usize)> {
    let (end, commas) = frame_row(text.as_bytes(), start);
    if commas + 1 != width {
        return None;
    }
    // As in `line_at`: a `\r` is dropped only before a `\n`.
    let (line, next) = if end < text.len() {
        let line = &text[start..end];
        (line.strip_suffix('\r').unwrap_or(line), end + 1)
    } else {
        (&text[start..], end)
    };
    Some((RowText { line }, next))
}

/// `0x01` in every byte.
const ONES: u64 = u64::from_le_bytes([0x01; 8]);
/// `0x7f` in every byte.
const LOW7: u64 = u64::from_le_bytes([0x7f; 8]);

/// `0x80` in each byte of `word` that equals `b`, and `0` in every other
/// byte. Exact: no lane's sum carries into the next (`0x7f + 0x7f` fits
/// a byte), where the usual `(t - ONES) & !t` borrows and also flags the
/// lanes above a real match.
fn byte_mask(word: u64, b: u8) -> u64 {
    let t = word ^ (ONES * u64::from(b));
    !(((t & LOW7) + LOW7) | t | LOW7)
}

/// How many bytes of a [`byte_mask`] are flagged: a popcount of a mask
/// with at most bit 7 of each byte set, as one multiply that sums the
/// lanes into the top byte (baseline x86-64 has no `popcnt` instruction,
/// and `count_ones` measured 1.3x slower in this loop).
fn flagged(mask: u64) -> usize {
    ((mask >> 7).wrapping_mul(ONES) >> 56) as usize
}

/// The row starting at byte `start` of `bytes`, read eight bytes a step:
/// the offset of its `\n` (`bytes.len()` if it has none) and the number
/// of commas before it.
fn frame_row(bytes: &[u8], start: usize) -> (usize, usize) {
    let mut commas = 0;
    let mut at = start;
    while at < bytes.len() {
        let word = match bytes.get(at..at + 8) {
            Some(eight) => u64::from_le_bytes(eight.try_into().expect("eight bytes")),
            None => {
                // The text's last bytes, padded with zeros: no `\n` or `,`.
                let mut eight = [0; 8];
                eight[..bytes.len() - at].copy_from_slice(&bytes[at..]);
                u64::from_le_bytes(eight)
            }
        };
        let newlines = byte_mask(word, b'\n');
        let comma_mask = byte_mask(word, b',');
        if newlines != 0 {
            let lane = newlines.trailing_zeros() / 8;
            let before = (1u64 << (lane * 8)) - 1;
            commas += flagged(comma_mask & before);
            return (at + lane as usize, commas);
        }
        commas += flagged(comma_mask);
        at += 8;
    }
    (bytes.len(), commas)
}

/// Cursor over the lines of a serialized snapshot.
struct Lines<'a> {
    text: &'a str,
    /// Offset of the next unread line.
    pos: usize,
    /// Lines consumed so far (= the 1-based number of the last one).
    line_no: usize,
}

impl<'a> Lines<'a> {
    /// The next line, without its terminator (used for the header lines;
    /// rows are framed by [`row_at`]).
    fn next_line(&mut self) -> Option<&'a str> {
        if self.pos == self.text.len() {
            return None;
        }
        self.line_no += 1;
        let (line, next) = line_at(self.text, self.pos);
        self.pos = next;
        Some(line)
    }

    /// A `#TABLE <name> rows=<n> cols=<width>` line and its `n` rows, each
    /// lent to `visit`.
    fn read_table(
        &mut self,
        table: TableKind,
        width: usize,
        visit: &mut impl FnMut(TableKind, RowText<'a>),
    ) -> Result<(), SnapshotParseError> {
        let name = table.name();
        let th = self
            .next_line()
            .ok_or_else(|| SnapshotParseError::BadTableHeader("missing".into()))?;
        let bad_header = || SnapshotParseError::BadTableHeader(th.to_string());
        let mut words = th.split_whitespace();
        if words.next() != Some("#TABLE")
            || words.next() != Some(name)
            || header_value(th, "cols") != Some(width)
        {
            return Err(bad_header());
        }
        let rows: u32 = header_value(th, "rows").ok_or_else(bad_header)?;
        for _ in 0..rows {
            if self.pos == self.text.len() {
                return Err(SnapshotParseError::RowCountMismatch { table: name });
            }
            self.line_no += 1;
            let bad_row = SnapshotParseError::BadRow {
                table: name,
                line: self.line_no,
            };
            let (row, next) = row_at(self.text, self.pos, width).ok_or(bad_row)?;
            visit(table, row);
            self.pos = next;
        }
        Ok(())
    }
}

/// The value of the first `key=<value>` word of a header line.
fn header_value<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    line.split_whitespace()
        .find_map(|word| word.strip_prefix(key)?.strip_prefix('='))?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_snapshot() -> Snapshot {
        let mut cdr_row = vec![Value::Null; cdr::WIDTH];
        cdr_row[cdr::RECORD_ID] = Value::Int(1);
        cdr_row[cdr::UPFLUX] = Value::Int(1234);
        let mut nms_row = vec![Value::Null; nms::WIDTH];
        nms_row[nms::CELL_ID] = Value::Int(7);
        nms_row[nms::CALL_DROPS] = Value::Int(2);
        Snapshot::new(
            EpochId(31),
            vec![Record::new(cdr_row)],
            vec![Record::new(nms_row.clone()), Record::new(nms_row)],
        )
    }

    /// The wire bytes are what every store hashes and compresses: three
    /// generated epochs still serialize to the bytes they had before
    /// integers were formatted by hand (CRC-32 taken on that commit).
    #[test]
    fn generated_epochs_serialize_to_the_committed_bytes() {
        fn crc32(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(crc & 1));
                }
            }
            !crc
        }
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let committed = [
            (0, 2549, 0x6294_7275u32),
            (20, 10201, 0x0762_D720),
            (40, 10825, 0x22AD_D2B2),
        ];
        let mut trace = crate::TraceGenerator::new(crate::TraceConfig::tiny()).enumerate();
        for (epoch, len, crc) in committed {
            let bytes = trace.find(|(i, _)| *i == epoch).unwrap().1.to_bytes();
            assert_eq!((bytes.len(), crc32(&bytes)), (len, crc), "epoch {epoch}");
        }
    }

    #[test]
    fn wire_round_trip() {
        let snap = tiny_snapshot();
        let bytes = snap.to_bytes();
        let parsed = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.epoch, snap.epoch);
        assert_eq!(parsed.cdr.len(), 1);
        assert_eq!(parsed.nms.len(), 2);
        assert_eq!(parsed.cdr[0].get(cdr::UPFLUX).as_i64(), Some(1234));
        assert_eq!(parsed.nms[0].get(nms::CELL_ID).as_i64(), Some(7));
    }

    #[test]
    fn scan_lends_the_rows_from_bytes_would_build() {
        let bytes = tiny_snapshot().to_bytes();
        let mut seen = Vec::new();
        let epoch = Snapshot::scan(&bytes, |table, row| {
            let col = match table {
                TableKind::Cdr => cdr::UPFLUX,
                _ => nms::CALL_DROPS,
            };
            seen.push((table, row.field(col), row.field(0), row.field(col + 1)));
        });
        assert_eq!(epoch, Ok(EpochId(31)));
        assert_eq!(
            seen,
            [
                (TableKind::Cdr, "1234", "1", ""),
                (TableKind::Nms, "2", "", ""),
                (TableKind::Nms, "2", "", ""),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "column 8 of a 8-column row")]
    fn a_column_past_the_table_width_is_a_bug() {
        let bytes = tiny_snapshot().to_bytes();
        let _ = Snapshot::scan(&bytes, |table, row| {
            if table == TableKind::Nms {
                row.field(nms::WIDTH);
            }
        });
    }

    /// `frame_row` as a byte loop.
    fn frame_row_bytewise(bytes: &[u8], start: usize) -> (usize, usize) {
        let rest = &bytes[start..];
        let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        let commas = rest[..len].iter().filter(|&&b| b == b',').count();
        (start + len, commas)
    }

    #[test]
    fn frame_row_agrees_with_a_byte_loop() {
        // `,` and `\n` with the high bit set (0xAC, 0x8A) and their
        // neighbours are what an inexact mask would take for a match.
        let fillers: [&[u8]; 4] = [
            b"a",
            &[0xAC, 0x8A, 0x2D, 0x0B, 0x2B, 0x09],
            &[0xFF, 0x00, b'\r', 0x80, 0x7F],
            &[b',', b'x', 0xAC, b',', 0x8A, b','],
        ];
        let mut checked = 0;
        for filler in fillers {
            for offset in 0..=15 {
                for len in 0..=40usize {
                    let row: Vec<u8> = (0..len).map(|i| filler[i % filler.len()]).collect();
                    for special in [None, Some(b','), Some(b'\n'), Some(b'\r')] {
                        for at in 0..len.max(1) {
                            let mut row = row.clone();
                            if let (Some(b), true) = (special, at < len) {
                                row[at] = b;
                            }
                            // Before the row: text the frame must not read.
                            let mut bytes = b",\n,,\n\n,,,\n,,\n,,\n,,"[..offset].to_vec();
                            bytes.extend_from_slice(&row);
                            for tail in [&b""[..], b"\n", b"\r\n,,", b",\n,\n"] {
                                let mut bytes = bytes.clone();
                                bytes.extend_from_slice(tail);
                                assert_eq!(
                                    frame_row(&bytes, offset),
                                    frame_row_bytewise(&bytes, offset),
                                    "{bytes:?} from {offset}"
                                );
                                checked += 1;
                            }
                            if special.is_none() {
                                break;
                            }
                        }
                    }
                }
            }
        }
        assert!(checked > 100_000, "{checked}");
    }

    #[test]
    fn byte_mask_flags_exactly_the_matching_bytes_and_flagged_counts_them() {
        for b in [b',', b'\n', 0x00, 0x7F, 0x80, 0xAC, 0x8A, 0xFF] {
            for word in [
                0u64,
                !0,
                0x2C0A_8AAC_2C0A_8AAC,
                0x0A2C_0A2C_ACAC_8A8A,
                ONES * 0x80,
            ] {
                for lane_byte in [b, b ^ 0x80, b ^ 0x01, b.wrapping_add(1)] {
                    for lane in 0..8 {
                        let mut bytes = word.to_le_bytes();
                        bytes[lane] = lane_byte;
                        let want = bytes
                            .iter()
                            .map(|&x| if x == b { 0x80u8 } else { 0 })
                            .collect::<Vec<_>>();
                        let mask = byte_mask(u64::from_le_bytes(bytes), b);
                        assert_eq!(mask.to_le_bytes()[..], want[..], "{bytes:?} for {b:#04x}");
                        let matches = bytes.iter().filter(|&&x| x == b).count();
                        assert_eq!(flagged(mask), matches);
                    }
                }
            }
        }
    }

    /// Each table's image, read back through the builder, writes the rows
    /// `to_bytes` writes, and `text_len` counts them with their header
    /// line. A table no text could carry is refused.
    #[test]
    fn a_column_image_reads_back_as_its_text() {
        let snap = tiny_snapshot();
        let text = snap.to_bytes();
        let nms_at = text.windows(10).position(|w| w == b"#TABLE NMS").unwrap();
        let header = Snapshot::header_line(snap.epoch).len();
        let sections = [&text[header..nms_at], &text[nms_at..]];
        for (kind, section) in [TableKind::Cdr, TableKind::Nms].into_iter().zip(sections) {
            let image = ColumnImage::of(kind, snap.table(kind)).unwrap();
            assert_eq!(image.text_len, section.len());
            // One CDR row: nothing constant; two equal NMS rows: all of it.
            assert!(image
                .constant
                .iter()
                .all(|&c| c == (kind == TableKind::Nms)));
            let mut table = ColumnTable::builder(image.rows);
            let mut constants = image.constants.split_inclusive('\n');
            for &constant in &image.constant {
                match constant {
                    true => table
                        .constant(constants.next().unwrap().as_bytes())
                        .unwrap(),
                    false => table.varying(),
                }
            }
            table.run(image.run.into_bytes()).unwrap();
            let mut rows = Snapshot::table_header_line(kind, image.rows).into_bytes();
            table.finish().unwrap().write_rows(&mut rows);
            assert_eq!(rows, section);
        }
        let refused = |value: Value| {
            let mut row = snap.nms[0].clone();
            row.values[3] = value;
            ColumnImage::of(TableKind::Nms, &[row]).unwrap_err()
        };
        for bad in ["a,b", "a\nb", "a\r"] {
            assert_eq!(refused(Value::Str(bad.into())), ColumnError::Separator);
        }
        let short = Record::new(vec![Value::Null; nms::WIDTH - 1]);
        let short = ColumnImage::of(TableKind::Nms, &[short]);
        assert_eq!(short, Err(ColumnError::ValueCount));
    }

    #[test]
    fn header_contains_compact_timestamp() {
        let bytes = tiny_snapshot().to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(
            text.starts_with("#SNAPSHOT epoch=31 ts=201601181530\n"),
            "{text}"
        );
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot::new(EpochId(0), vec![], vec![]);
        let parsed = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Snapshot::from_bytes(b"").is_err());
        assert!(Snapshot::from_bytes(b"garbage\n").is_err());
        assert!(Snapshot::from_bytes(b"#SNAPSHOT epoch=xyz ts=0\n").is_err());
        // Declared rows missing.
        let text = "#SNAPSHOT epoch=1 ts=0\n#TABLE CDR rows=5 cols=200\n";
        assert_eq!(
            Snapshot::from_bytes(text.as_bytes()),
            Err(SnapshotParseError::RowCountMismatch { table: "CDR" })
        );
        // Row with wrong arity.
        let text = "#SNAPSHOT epoch=1 ts=0\n#TABLE CDR rows=1 cols=200\na,b,c\n";
        assert!(matches!(
            Snapshot::from_bytes(text.as_bytes()),
            Err(SnapshotParseError::BadRow { table: "CDR", .. })
        ));
    }

    #[test]
    fn total_records_counts_both_tables() {
        assert_eq!(tiny_snapshot().total_records(), 3);
    }

    #[test]
    fn error_display() {
        let e = SnapshotParseError::BadRow {
            table: "NMS",
            line: 3,
        };
        assert!(e.to_string().contains("NMS"));
        assert!(e.to_string().contains('3'));
    }

    proptest::proptest! {
        /// One line framed by `row_at` and read by `Row::record` holds the
        /// fields `split(',')` finds, or is refused for the wrong arity.
        #[test]
        fn row_at_and_record_agree_with_split(line in "[a-z0-9,\r]{0,40}", arity_off in 0usize..3) {
            let want: Vec<&str> = line.split(',').collect();
            let n_cols = want.len() + arity_off - 1; // arity - 1, exact, + 1
            let got = row_at(&line, 0, n_cols).map(|(row, _)| Row::Text(row).record(n_cols));
            proptest::prop_assert_eq!(got.is_some(), want.len() == n_cols);
            if let Some(rec) = got {
                let fields: Vec<String> = rec.values.iter().map(Value::as_text).collect();
                proptest::prop_assert_eq!(fields, want);
            }
        }
    }
}
