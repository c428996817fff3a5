//! Snapshot chunking: split the wire bytes into content-addressable pieces.
//!
//! The snapshot wire format is line-oriented CSV under `#SNAPSHOT` /
//! `#TABLE` headers (see `telco_trace::snapshot`). When the bytes parse as
//! that layout, the chunker transposes each table into per-column value
//! streams and cuts every stream at *row-aligned* boundaries. Two things
//! fall out of that:
//!
//! * **Constant columns cost one value.** The paper's Fig. 4 shows ≥ 30
//!   all-zero CDR columns and > 100 columns under one bit of entropy; a
//!   constant column is stored as one piece holding the single value
//!   (replayed per row on assembly), regardless of the row count. Such a
//!   piece is a few bytes, so the store carries it inline in the epoch's
//!   manifest, once per distinct value, rather than as a chunk: sharing a
//!   two-byte chunk across epochs saved 1.8 bytes a hit and made every
//!   read open the first epoch's pack.
//! * **Dedup of real pieces.** Row-aligned cuts make equal column content
//!   yield equal pieces, within an epoch and across epochs, whatever the
//!   row counts.
//! * **Better pack compression.** Columnar order groups same-typed values,
//!   which the pack codec compresses far tighter than row-major text.
//!
//! Anything that does not parse (arbitrary bytes, foreign blobs) falls back
//! to fixed-size pieces — content addressing never requires the columnar
//! layout, it only benefits from it.

use std::ops::Range;
use telco_trace::schema::{Schema, TableKind};
use telco_trace::Snapshot;

/// Piece-cutting parameters.
#[derive(Debug, Clone, Copy)]
pub struct Chunking {
    /// Row-boundary quantum: pieces hold a multiple of this many rows, so
    /// equal-content columns align across epochs with different row counts.
    pub row_quantum: usize,
    /// Target piece size in bytes for columnar streams.
    pub target_piece_bytes: usize,
    /// Fixed piece size for non-columnar (blob) payloads.
    pub blob_piece_bytes: usize,
    /// Columns whose stream is smaller than this coalesce with their
    /// neighbors into shared group pieces instead of each cutting their
    /// own. Every manifest entry costs ~36 bytes of incompressible
    /// metadata, so a piece must be at least this big before per-column
    /// dedup can pay for its own bookkeeping. `0` disables grouping
    /// (every column cuts independently).
    pub min_piece_bytes: usize,
}

impl Default for Chunking {
    fn default() -> Self {
        Self {
            row_quantum: 64,
            target_piece_bytes: 16384,
            blob_piece_bytes: 8192,
            min_piece_bytes: 4096,
        }
    }
}

/// How to reassemble the original bytes from the piece sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// Parsed snapshot: header line + per-table columnar piece runs.
    Columnar {
        /// The `#SNAPSHOT ...` line, including its newline.
        header: Vec<u8>,
        tables: Vec<TableLayout>,
    },
    /// Opaque payload cut into fixed-size pieces.
    Blob { n_pieces: u32 },
}

/// Sentinel in [`TableLayout::pieces_per_col`]: the column is constant and
/// stored as a single one-value piece replayed `rows` times on assembly.
pub const CONSTANT_COL: u32 = u32::MAX;

/// One `#TABLE` section in columnar form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableLayout {
    /// The `#TABLE ...` line, including its newline.
    pub header: Vec<u8>,
    pub rows: u32,
    pub cols: u32,
    /// Piece count per column; pieces are emitted column 0 first, each
    /// column's pieces in row order. A column with `0` pieces (while
    /// `rows > 0`) continues the piece run opened by an earlier column:
    /// small columns share grouped pieces (see [`Chunking::min_piece_bytes`]).
    /// [`CONSTANT_COL`] marks a constant column holding one piece — the
    /// single value, replayed `rows` times — which does not disturb any
    /// group run spanning it.
    pub pieces_per_col: Vec<u32>,
}

/// The table sections of a snapshot, in stored order.
pub(crate) const SNAPSHOT_SECTIONS: [TableKind; 2] = [TableKind::Cdr, TableKind::Nms];

impl TableLayout {
    /// Is this section `section` of a snapshot, as wide as its table and
    /// under the very line `Snapshot::to_bytes` writes for its row count?
    /// Then the line need not be stored ([`crate::manifest`]), and the
    /// section reads as columns ([`crate::reader`]).
    pub(crate) fn is_as_written(&self, section: usize) -> bool {
        SNAPSHOT_SECTIONS.get(section).is_some_and(|&kind| {
            self.cols as usize == Schema::shared(kind).width()
                && self.header == Snapshot::table_header_line(kind, self.rows as usize).as_bytes()
        })
    }

    /// Pieces this table's columns reference.
    pub fn piece_count(&self) -> usize {
        let per_col = self.pieces_per_col.iter();
        per_col
            .map(|&n| if n == CONSTANT_COL { 1 } else { n as usize })
            .sum()
    }
}

impl Layout {
    /// Total pieces this layout references.
    pub fn piece_count(&self) -> usize {
        match self {
            Layout::Columnar { tables, .. } => tables.iter().map(TableLayout::piece_count).sum(),
            Layout::Blob { n_pieces } => *n_pieces as usize,
        }
    }

    /// The pieces each section owns, as a range of the piece sequence: the
    /// table sections of a columnar layout in order, or a blob's one.
    pub fn sections(&self) -> Vec<Range<usize>> {
        match self {
            Layout::Columnar { tables, .. } => {
                let mut start = 0;
                let section = |table: &TableLayout| {
                    let pieces = start..start + table.piece_count();
                    start = pieces.end;
                    pieces
                };
                tables.iter().map(section).collect()
            }
            Layout::Blob { n_pieces } => std::iter::once(0..*n_pieces as usize).collect(),
        }
    }

    /// The epoch a columnar layout's `#SNAPSHOT` header names, read as
    /// the snapshot parser reads it; `None` for a blob and for a header
    /// that names none.
    pub fn snapshot_epoch(&self) -> Option<u32> {
        let Layout::Columnar { header, .. } = self else {
            return None;
        };
        let line = std::str::from_utf8(header).ok()?;
        Snapshot::header_epoch(line).map(|epoch| epoch.0)
    }
}

/// Split `raw` into pieces plus the layout that reassembles them.
/// Columnar when the bytes parse as the snapshot wire format, blob
/// otherwise. `assemble(split(raw)) == raw` for any input.
pub fn split(raw: &[u8], cfg: &Chunking) -> (Layout, Vec<Vec<u8>>) {
    if let Some(columnar) = try_split_columnar(raw, cfg) {
        return columnar;
    }
    let piece = cfg.blob_piece_bytes.max(1);
    let pieces: Vec<Vec<u8>> = raw.chunks(piece).map(<[u8]>::to_vec).collect();
    (
        Layout::Blob {
            n_pieces: pieces.len() as u32,
        },
        pieces,
    )
}

/// One pass over the text: each row is walked once and its fields go
/// straight onto their columns' streams, which are then cut (or moved
/// whole) into pieces. `None` wherever the bytes are not the snapshot
/// wire layout.
fn try_split_columnar(raw: &[u8], cfg: &Chunking) -> Option<(Layout, Vec<Vec<u8>>)> {
    // Every line ends in a newline, the last one included.
    if raw.last() != Some(&b'\n') || !raw.starts_with(b"#SNAPSHOT ") {
        return None;
    }
    let mut at = line_end(raw, 0);
    let header = raw[..at].to_vec();

    let mut tables = Vec::new();
    let mut pieces = Vec::new();
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
        let (pieces_per_col, next) = split_table(raw, rows_at, rows, cols, cfg, &mut pieces)?;
        at = next;
        tables.push(TableLayout {
            header: table_header.to_vec(),
            rows,
            cols,
            pieces_per_col,
        });
    }
    if tables.is_empty() {
        return None;
    }
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

/// Transpose the `rows` lines of `cols` fields at `raw[at..]` and append
/// the table's pieces to `pieces`; returns the piece count per column and
/// the offset of the line after the table.
fn split_table(
    raw: &[u8],
    mut at: usize,
    rows: u32,
    cols: u32,
    cfg: &Chunking,
    pieces: &mut Vec<Vec<u8>>,
) -> Option<(Vec<u32>, usize)> {
    let n_rows = rows as usize;
    let n_cols = cols as usize;
    let mut pieces_per_col = vec![0u32; n_cols];
    if n_rows == 0 {
        return Some((pieces_per_col, at));
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
    // Constant columns (Fig. 4: ≥ 30 all-zero CDR columns) store one
    // piece holding the single value, replayed `rows` times on assembly,
    // so an all-zero column is two bytes; a one-row column gains nothing
    // from that and groups better with its neighbors. Other large columns
    // cut their own row-aligned pieces; small varying columns coalesce
    // with their neighbors into group pieces near the byte target, keeping
    // the per-chunk manifest overhead amortized. A group's piece takes the
    // place of its first column, so a group run may span constant columns
    // without fragmenting.
    let mut group: Vec<u8> = Vec::new();
    let mut group_slot = 0usize;
    for (c, column) in columns.into_iter().enumerate() {
        let Column {
            stream,
            first,
            constant,
        } = column;
        if constant && n_rows >= 2 {
            pieces_per_col[c] = CONSTANT_COL;
            pieces.push(stream[..first].to_vec());
        } else if cfg.min_piece_bytes == 0 || stream.len() >= cfg.min_piece_bytes {
            if !group.is_empty() {
                pieces[group_slot] = std::mem::take(&mut group);
            }
            let before = pieces.len();
            cut_row_aligned(stream, n_rows, cfg, pieces);
            pieces_per_col[c] = (pieces.len() - before) as u32;
        } else {
            if !group.is_empty() && group.len() + stream.len() > cfg.target_piece_bytes.max(1) {
                pieces[group_slot] = std::mem::take(&mut group);
            }
            if group.is_empty() {
                // Opens a group: its one piece is filled in when it closes.
                pieces_per_col[c] = 1;
                group_slot = pieces.len();
                pieces.push(Vec::new());
                group = stream;
            } else {
                group.extend_from_slice(&stream);
            }
        }
    }
    if !group.is_empty() {
        pieces[group_slot] = group;
    }
    Some((pieces_per_col, at))
}

/// Cut one column stream at row boundaries, every `rows_per_piece` rows —
/// a multiple of the row quantum chosen from the stream's mean value width
/// so pieces land near the byte target. The per-piece row count depends
/// only on row count and stream length, so identical column content yields
/// identical pieces across epochs.
fn cut_row_aligned(stream: Vec<u8>, rows: usize, cfg: &Chunking, out: &mut Vec<Vec<u8>>) {
    let q = cfg.row_quantum.max(1);
    let avg = stream.len().div_ceil(rows).max(1);
    let mut rows_per_piece = cfg.target_piece_bytes / avg / q * q;
    if rows_per_piece == 0 {
        rows_per_piece = q;
    }
    if rows <= rows_per_piece {
        out.push(stream); // one piece: the stream as it stands
        return;
    }
    let mut start = 0usize;
    let mut in_piece = 0usize;
    for (pos, &b) in stream.iter().enumerate() {
        if b == b'\n' {
            in_piece += 1;
            if in_piece == rows_per_piece {
                out.push(stream[start..=pos].to_vec());
                start = pos + 1;
                in_piece = 0;
            }
        }
    }
    if start < stream.len() {
        out.push(stream[start..].to_vec());
    }
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
/// One pass: every column keeps a cursor into its piece run and each row
/// is written straight to the output, so no column stream is ever copied
/// out of its pieces. The constant columns between two varying ones are
/// laid out once per table as a ready-made row fragment (`0,0,,0,`) and
/// replayed with one copy per row.
pub fn assemble<P: AsRef<[u8]>>(layout: &Layout, pieces: &[P]) -> Result<Vec<u8>, &'static str> {
    if layout.piece_count() != pieces.len() {
        return Err("piece count does not match layout");
    }
    let piece_bytes: usize = pieces.iter().map(|p| p.as_ref().len()).sum();
    let (header, tables) = match layout {
        Layout::Blob { .. } => {
            let mut out = Vec::with_capacity(piece_bytes);
            for p in pieces {
                out.extend_from_slice(p.as_ref());
            }
            return Ok(out);
        }
        Layout::Columnar { header, tables } => (header, tables),
    };
    // Every stored value ends in a newline and every written one in a
    // separator, so a varying column takes exactly its pieces' bytes; a
    // constant one takes `rows` times its piece instead of once.
    let mut size = header.len() + piece_bytes;
    let mut next = 0usize;
    for table in tables {
        size = size.saturating_add(table.header.len());
        for &n in &table.pieces_per_col {
            if n == CONSTANT_COL {
                let replays = (table.rows as usize).saturating_sub(1);
                size = size.saturating_add(pieces[next].as_ref().len().saturating_mul(replays));
                next += 1;
            } else {
                next += n as usize;
            }
        }
    }
    let mut out = Vec::with_capacity(size.min(MAX_PREALLOC));
    out.extend_from_slice(header);
    let mut next = 0usize;
    for table in tables {
        out.extend_from_slice(&table.header);
        if table.pieces_per_col.len() != table.cols as usize {
            return Err("column count does not match layout");
        }
        next = assemble_table(table, pieces, next, &mut out)?;
    }
    Ok(out)
}

/// A read position inside one piece run: `pieces[piece..end]` taken as one
/// byte stream, `off` bytes into its first piece.
#[derive(Clone, Copy)]
struct Cursor {
    piece: usize,
    off: usize,
    end: usize,
}

impl Cursor {
    /// Append the next newline-terminated value to `out`, closed by `sep`.
    #[inline]
    fn copy_value<P: AsRef<[u8]>>(
        &mut self,
        pieces: &[P],
        out: &mut Vec<u8>,
        sep: u8,
    ) -> Result<(), &'static str> {
        while self.piece < self.end {
            let rest = &pieces[self.piece].as_ref()[self.off..];
            // Most values are a few bytes: take 16 at once, find the
            // newline in them without a loop, keep the bytes up to it.
            if let Some(chunk) = rest.first_chunk::<16>() {
                const LOW: u128 = u128::from_le_bytes([0x01; 16]);
                const HIGH: u128 = u128::from_le_bytes([0x80; 16]);
                // A zero byte where `chunk` has a newline; the lowest set
                // bit of `hit` marks the first one.
                let v = u128::from_le_bytes(*chunk) ^ (LOW * u128::from(b'\n'));
                let hit = v.wrapping_sub(LOW) & !v & HIGH;
                if hit != 0 {
                    let n = (hit.trailing_zeros() / 8) as usize;
                    let at = out.len();
                    out.extend_from_slice(chunk);
                    out.truncate(at + n + 1);
                    out[at + n] = sep;
                    self.off += n + 1;
                    return Ok(());
                }
            }
            if let Some(n) = rest.iter().position(|&b| b == b'\n') {
                out.extend_from_slice(&rest[..n]);
                out.push(sep);
                self.off += n + 1;
                return Ok(());
            }
            // The value runs on into the next piece of the run.
            out.extend_from_slice(rest);
            self.piece += 1;
            self.off = 0;
        }
        Err("column stream ran out of rows")
    }

    /// Step over `rows` values: where the next column sharing this run
    /// starts.
    fn skip_values<P: AsRef<[u8]>>(&mut self, pieces: &[P], rows: u32) -> Result<(), &'static str> {
        let mut left = rows;
        while left > 0 {
            if self.piece == self.end {
                return Err("column stream ran out of rows");
            }
            let rest = &pieces[self.piece].as_ref()[self.off..];
            match rest.iter().position(|&b| b == b'\n') {
                Some(n) => {
                    self.off += n + 1;
                    left -= 1;
                }
                None => {
                    self.piece += 1;
                    self.off = 0;
                }
            }
        }
        Ok(())
    }

    /// Nothing but exhausted pieces left.
    fn at_end<P: AsRef<[u8]>>(&self, pieces: &[P]) -> bool {
        self.piece == self.end
            || (pieces[self.piece].as_ref().len() == self.off
                && pieces[self.piece + 1..self.end]
                    .iter()
                    .all(|p| p.as_ref().is_empty()))
    }
}

/// What one row takes from a stretch of columns.
enum Part {
    /// Adjacent constant columns: this range of the table's row fragment
    /// buffer, separators included.
    Constants(std::ops::Range<usize>),
    /// One varying column: the next value under its cursor, then `sep`.
    Value { cursor: usize, sep: u8 },
}

/// Write the rows of `table`, whose pieces start at `pieces[next]`; returns
/// the index of the piece after its last.
fn assemble_table<P: AsRef<[u8]>>(
    table: &TableLayout,
    pieces: &[P],
    mut next: usize,
    out: &mut Vec<u8>,
) -> Result<usize, &'static str> {
    // A column with zero pieces (while rows > 0) continues the piece run
    // opened by an earlier column — grouped small columns share pieces —
    // so each column takes exactly `rows` values of the current run before
    // the next run may begin. Constant columns replay their single-value
    // piece without touching the run.
    let mut parts: Vec<Part> = Vec::new();
    let mut constants: Vec<u8> = Vec::new();
    let mut cursors: Vec<Cursor> = Vec::new();
    // The last column of every run: once the rows are written it must
    // stand at the end of its run.
    let mut tails: Vec<usize> = Vec::new();
    let last = table.pieces_per_col.len().saturating_sub(1);
    for (c, &n) in table.pieces_per_col.iter().enumerate() {
        let sep = if c == last { b'\n' } else { b',' };
        if n == CONSTANT_COL {
            let value = pieces[next].as_ref();
            next += 1;
            // One value: its only newline ends the piece (an empty piece
            // has none).
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
            continue;
        }
        let start = if n > 0 {
            tails.extend(cursors.len().checked_sub(1));
            let run = Cursor {
                piece: next,
                off: 0,
                end: next + n as usize,
            };
            next = run.end;
            run
        } else if let Some(&previous) = cursors.last() {
            // Where the column before it in the run stops.
            let mut shared = previous;
            shared.skip_values(pieces, table.rows)?;
            shared
        } else {
            // No run opened yet: an empty one.
            Cursor {
                piece: next,
                off: 0,
                end: next,
            }
        };
        parts.push(Part::Value {
            cursor: cursors.len(),
            sep,
        });
        cursors.push(start);
    }
    tails.extend(cursors.len().checked_sub(1));
    for _ in 0..table.rows {
        for part in &parts {
            match part {
                Part::Constants(range) => out.extend_from_slice(&constants[range.clone()]),
                Part::Value { cursor, sep } => cursors[*cursor].copy_value(pieces, out, *sep)?,
            }
        }
    }
    if tails.iter().any(|&t| !cursors[t].at_end(pieces)) {
        return Err("piece run has trailing rows");
    }
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use telco_trace::{TraceConfig, TraceGenerator};

    fn round_trip(raw: &[u8], cfg: &Chunking) -> Layout {
        let (layout, pieces) = split(raw, cfg);
        let back = assemble(&layout, &pieces).expect("assemble");
        assert_eq!(back, raw, "chunker must be lossless");
        layout
    }

    #[test]
    fn real_snapshots_go_columnar_and_round_trip() {
        let cfg = Chunking::default();
        for snap in TraceGenerator::new(TraceConfig::tiny()).take(4) {
            let layout = round_trip(&snap.to_bytes(), &cfg);
            assert!(
                matches!(layout, Layout::Columnar { .. }),
                "wire snapshots must take the columnar path"
            );
        }
    }

    #[test]
    fn opaque_bytes_fall_back_to_blob() {
        let cfg = Chunking {
            blob_piece_bytes: 8,
            ..Chunking::default()
        };
        for raw in [
            &b""[..],
            &b"no trailing newline"[..],
            &b"#SNAPSHOT but then garbage\nnot a table\n"[..],
            &[0u8, 1, 2, 255, 254][..],
        ] {
            let layout = round_trip(raw, &cfg);
            assert!(matches!(layout, Layout::Blob { .. }), "{raw:?}");
        }
    }

    #[test]
    fn constant_columns_repeat_pieces() {
        // Two epochs with different row counts over one constant column:
        // the full (quantum-aligned) pieces must be byte-identical.
        let cfg = Chunking {
            row_quantum: 4,
            target_piece_bytes: 8,
            min_piece_bytes: 0,
            ..Chunking::default()
        };
        let make = |rows: usize| {
            let mut s = String::from("#SNAPSHOT epoch=1 ts=0\n");
            s.push_str(&format!("#TABLE CDR rows={rows} cols=1\n"));
            for _ in 0..rows {
                s.push_str("0\n");
            }
            s.into_bytes()
        };
        let (_, a) = split(&make(10), &cfg);
        let (_, b) = split(&make(13), &cfg);
        assert_eq!(a[0], b[0], "aligned full pieces dedup across epochs");
        round_trip(&make(10), &cfg);
        round_trip(&make(13), &cfg);
    }

    #[test]
    fn small_columns_share_group_pieces_and_round_trip() {
        // 6 narrow columns under the grouping floor plus one wide column:
        // the narrow ones must coalesce (fewer pieces than columns) and
        // everything must still reassemble exactly.
        let cfg = Chunking {
            row_quantum: 4,
            target_piece_bytes: 64,
            min_piece_bytes: 24,
            ..Chunking::default()
        };
        let rows = 8usize;
        let mut s = String::from("#SNAPSHOT epoch=1 ts=0\n");
        s.push_str(&format!("#TABLE CDR rows={rows} cols=7\n"));
        for r in 0..rows {
            // Narrow columns vary per row so they group rather than take
            // the constant-column path.
            let narrow: Vec<String> = (0..6).map(|c| format!("{}", (r + c) % 10)).collect();
            s.push_str(&format!(
                "{},wide-value-{r:04}-padding-padding\n",
                narrow.join(",")
            ));
        }
        let raw = s.into_bytes();
        let (layout, pieces) = split(&raw, &cfg);
        let Layout::Columnar { tables, .. } = &layout else {
            panic!("expected columnar");
        };
        let per_col = &tables[0].pieces_per_col;
        assert!(
            per_col.iter().filter(|&&n| n == 0).count() > 0,
            "some columns must continue a shared group piece: {per_col:?}"
        );
        assert!(pieces.len() < 7, "grouping must merge small columns");
        assert_eq!(assemble(&layout, &pieces).expect("assemble"), raw);
    }

    #[test]
    fn constant_columns_collapse_to_one_value_piece() {
        // Constant columns store a single value piece regardless of row
        // count — identical across epochs — and a group run spans them
        // without fragmenting.
        let cfg = Chunking {
            row_quantum: 4,
            target_piece_bytes: 64,
            min_piece_bytes: 24,
            ..Chunking::default()
        };
        let make = |rows: usize| {
            let mut s = String::from("#SNAPSHOT epoch=1 ts=0\n");
            s.push_str(&format!("#TABLE CDR rows={rows} cols=4\n"));
            for r in 0..rows {
                // cols: varying, constant zero, varying, constant zero
                s.push_str(&format!("{},0,{},0\n", r % 7, (r + 3) % 7));
            }
            s.into_bytes()
        };
        let (layout_a, pieces_a) = split(&make(9), &cfg);
        let (_, pieces_b) = split(&make(14), &cfg);
        let Layout::Columnar { tables, .. } = &layout_a else {
            panic!("expected columnar");
        };
        let per_col = &tables[0].pieces_per_col;
        assert_eq!(per_col[1], CONSTANT_COL);
        assert_eq!(per_col[3], CONSTANT_COL);
        assert_eq!(
            per_col[2], 0,
            "group run must span the constant column: {per_col:?}"
        );
        // The constant columns' pieces are the bare value, identical in
        // both epochs despite different row counts.
        let zero: Vec<Vec<u8>> = pieces_a
            .iter()
            .filter(|p| p.as_slice() == b"0\n")
            .cloned()
            .collect();
        assert_eq!(zero.len(), 2);
        assert!(pieces_b.iter().filter(|p| p.as_slice() == b"0\n").count() == 2);
        round_trip(&make(9), &cfg);
        round_trip(&make(14), &cfg);
    }

    #[test]
    fn mismatched_pieces_are_rejected() {
        let cfg = Chunking::default();
        let snap = TraceGenerator::new(TraceConfig::tiny())
            .next()
            .unwrap()
            .to_bytes();
        let (layout, mut pieces) = split(&snap, &cfg);
        pieces.pop();
        assert!(assemble(&layout, &pieces).is_err());
    }

    #[test]
    fn empty_table_sections_round_trip() {
        let cfg = Chunking::default();
        let raw = b"#SNAPSHOT epoch=0 ts=0\n#TABLE CDR rows=0 cols=200\n#TABLE NMS rows=0 cols=8\n";
        let layout = round_trip(raw, &cfg);
        assert!(matches!(layout, Layout::Columnar { .. }));
        assert_eq!(layout.piece_count(), 0);
    }
}
