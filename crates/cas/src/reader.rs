//! Reading an epoch back: opened once, inflated section by section.
//!
//! [`crate::CasStore::open_epoch`] hands out an [`EpochReader`] holding
//! the verified manifest and the epoch's verified pack, nothing inflated.
//! [`EpochReader::table`] inflates the units one table section's chunks
//! lie in and returns the table column by column, for a scan that reads a
//! few columns of one table; [`EpochReader::assemble`] inflates every
//! unit and rebuilds the payload. Both go through one private `fetch`:
//! a unit is inflated because a chunk about to be lent lies in it, and a
//! chunk is lent only after its bytes matched its hash.

use crate::chunker::{self, Layout, CONSTANT_COL, SNAPSHOT_SECTIONS};
use crate::hash::ChunkHash;
use crate::manifest::{ChunkEntry, EpochManifest, Piece};
use crate::store::CasStore;
use crate::{pack, CasError};
use std::ops::Range;
use telco_trace::schema::TableKind;
use telco_trace::snapshot::{ColumnTable, ColumnTableBuilder};

/// One epoch, open for reading (see the module docs).
pub struct EpochReader<'s> {
    store: &'s CasStore,
    manifest: EpochManifest,
    /// The verified pack file (empty when the epoch has none) and where
    /// each of its units lies in it.
    pack: Vec<u8>,
    units: Vec<Range<usize>>,
    /// What owns each ref: the table sections of a columnar layout in
    /// order, or the one section of a blob.
    sections: Vec<Section>,
}

struct Section {
    refs: Range<usize>,
    /// Span name of the inflate of a unit first needed by this section:
    /// which table a read inflated is in the name.
    inflate_span: &'static str,
}

/// The tables a scan asked for of a stored snapshot, each whole and
/// checked ([`EpochReader::snapshot_columns`]).
pub struct SnapshotColumns {
    /// In stored order: CDR before NMS.
    pub tables: Vec<(TableKind, ColumnTable)>,
    /// Rows of the snapshot, both tables: what a walk of its text counts.
    pub rows: u64,
}

/// The inflate span of the section under a `#TABLE <name> ...` header.
fn inflate_span_of(table_header: &[u8]) -> &'static str {
    match table_header.strip_prefix(b"#TABLE ") {
        Some(rest) if rest.starts_with(b"CDR ") => "cas.get.inflate.cdr",
        Some(rest) if rest.starts_with(b"NMS ") => "cas.get.inflate.nms",
        _ => "cas.get.inflate.table",
    }
}

impl<'s> EpochReader<'s> {
    pub(crate) fn new(
        store: &'s CasStore,
        manifest: EpochManifest,
        pack: Option<Vec<u8>>,
    ) -> Result<Self, CasError> {
        let units = match &pack {
            Some(bytes) => pack::unit_ranges(bytes)?,
            None => Vec::new(),
        };
        let pack = pack.unwrap_or_default();
        let inflate_spans: Vec<&'static str> = match &manifest.layout {
            Layout::Columnar { tables, .. } => {
                let headers = tables.iter().map(|table| &table.header);
                headers.map(|header| inflate_span_of(header)).collect()
            }
            Layout::Blob { .. } => vec!["cas.get.inflate.blob"],
        };
        let sections = manifest.layout.sections().into_iter().zip(inflate_spans);
        let sections = sections
            .map(|(refs, inflate_span)| Section { refs, inflate_span })
            .collect();
        Ok(Self {
            store,
            manifest,
            pack,
            units,
            sections,
        })
    }

    pub fn layout(&self) -> &Layout {
        &self.manifest.layout
    }

    /// Inflate the units that hold the chunks `refs` name — each once,
    /// no other — and verify every one of those chunks against its hash.
    fn fetch(&self, refs: Range<usize>) -> Result<Fetched<'_>, CasError> {
        let mut fetched = Fetched {
            manifest: &self.manifest,
            units: Vec::new(),
        };
        let chunks = &self.manifest.chunks;
        let mut wanted = vec![false; chunks.len()];
        let of_refs = self.manifest.refs.iter().enumerate();
        for (at, &r) in of_refs.take(refs.end).skip(refs.start) {
            let Some(chunk) = chunks.get(r as usize) else {
                continue; // an inline piece
            };
            wanted[r as usize] = true;
            if fetched.unit(chunk).is_some() {
                continue;
            }
            let stream = self.units.get(chunk.unit as usize).ok_or_else(|| {
                CasError::Corrupt(format!(
                    "chunk {} names a unit past its pack",
                    chunk.hash.hex()
                ))
            })?;
            let section = self.sections.iter().find(|s| s.refs.contains(&at));
            let _inflate = obs::span(section.map_or("cas.get.inflate", |s| s.inflate_span));
            let codec = &self.store.cfg.codec;
            let bytes = codec.decompress_metered(&self.pack[stream.clone()])?;
            fetched.units.push((chunk.unit, bytes));
        }
        let _verify = obs::span("cas.get.verify");
        for chunk in chunks
            .iter()
            .zip(&wanted)
            .filter_map(|(c, &w)| w.then_some(c))
        {
            if ChunkHash::of(fetched.chunk_bytes(chunk)?) != chunk.hash {
                self.store.note_mismatch();
                return Err(CasError::Corrupt(format!(
                    "chunk {} failed content verification",
                    chunk.hash.hex()
                )));
            }
        }
        Ok(fetched)
    }

    /// Table section `i` of a columnar layout, column by column: the
    /// units its chunks lie in inflated, every chunk verified, every
    /// piece run checked to hold exactly one value a row for each column
    /// that shares it (a constant piece: one value), no value holding a
    /// field separator, everything UTF-8 — what [`Self::assemble`] and
    /// the snapshot parser would check of the same table, made before a
    /// byte is lent. The other sections are not inflated, and not
    /// vouched for.
    pub fn table(&self, i: usize) -> Result<ColumnTable, CasError> {
        let Layout::Columnar { tables, .. } = &self.manifest.layout else {
            return Err(CasError::Corrupt("a blob has no tables".into()));
        };
        let (table, section) = tables
            .get(i)
            .zip(self.sections.get(i))
            .ok_or_else(|| CasError::Corrupt(format!("the layout has no table {i}")))?;
        let _span = obs::span("cas.get");
        let fetched = self.fetch(section.refs.clone())?;

        let _index = obs::span("cas.get.index");
        let corrupt = |e| CasError::Corrupt(format!("table {i}: {e}"));
        let rows = table.rows as usize;
        let mut columns = ColumnTable::builder(rows);
        // The open piece run and how many columns share it so far: a
        // column with pieces opens one, a column with none continues it,
        // a constant column stands beside it.
        let mut run: Option<(Range<usize>, usize)> = None;
        let close = |run: Option<(Range<usize>, usize)>, columns: &mut ColumnTableBuilder| {
            let Some((pieces, cols)) = run else {
                return Ok(());
            };
            let pieces = pieces.map(|at| fetched.piece(at));
            let pieces = pieces.collect::<Result<Vec<&[u8]>, _>>()?;
            columns.run(pieces, cols).map_err(corrupt)
        };
        let mut next = section.refs.start;
        for &n in &table.pieces_per_col {
            if n == CONSTANT_COL {
                columns.constant(fetched.piece(next)?).map_err(corrupt)?;
                next += 1;
                continue;
            }
            if n > 0 {
                close(run.take(), &mut columns)?;
                run = Some((next..next + n as usize, 0));
                next += n as usize;
            }
            match &mut run {
                Some((_, cols)) => *cols += 1,
                None if rows == 0 => {}
                None => return Err(CasError::Corrupt("column stream ran out of rows".into())),
            }
            columns.varying();
        }
        close(run, &mut columns)?;
        let table = columns.finish().map_err(corrupt)?;
        self.store.note_table_read();
        Ok(table)
    }

    /// The rows of both tables if the layout is plainly a snapshot's: a
    /// header the parser reads an epoch from (`open_epoch` has checked
    /// which), then the CDR and the NMS section under the header lines
    /// `Snapshot::to_bytes` writes, nothing after them.
    fn snapshot_rows(&self) -> Option<u64> {
        let Layout::Columnar { tables, .. } = &self.manifest.layout else {
            return None;
        };
        self.manifest.layout.snapshot_epoch()?;
        let mut sections = tables.iter().enumerate();
        (tables.len() == SNAPSHOT_SECTIONS.len() && sections.all(|(i, t)| t.is_as_written(i)))
            .then(|| tables.iter().map(|t| u64::from(t.rows)).sum())
    }

    /// The tables `wanted` of a stored snapshot as columns ([`Self::table`]
    /// of their sections, no other section inflated), for a scan that
    /// would otherwise walk [`Self::assemble`]'s text with
    /// `Snapshot::scan`: whatever that walk refuses of these tables is
    /// refused here, and every field reads the same. `None` — read the
    /// text, which is always right — for a layout that is not plainly a
    /// snapshot's and for lines that end in `\r\n` (the parser drops that
    /// `\r` from the last field; a column holds it).
    pub fn snapshot_columns(
        &self,
        wanted: &[TableKind],
    ) -> Result<Option<SnapshotColumns>, CasError> {
        let Some(rows) = self.snapshot_rows() else {
            return Ok(None);
        };
        let mut tables = Vec::with_capacity(wanted.len());
        for (section, kind) in SNAPSHOT_SECTIONS.into_iter().enumerate() {
            if !wanted.contains(&kind) {
                continue;
            }
            let table = self.table(section)?;
            let last = table.width() - 1;
            if (0..table.rows()).any(|r| table.row(r).text(last).ends_with('\r')) {
                return Ok(None);
            }
            tables.push((kind, table));
        }
        Ok(Some(SnapshotColumns { tables, rows }))
    }

    /// The stored payload, rebuilt: every unit the manifest's chunks lie
    /// in inflated, every chunk verified, the pieces put back together as
    /// the layout says and the length checked.
    pub fn assemble(&self) -> Result<Vec<u8>, CasError> {
        let _span = obs::span("cas.get");
        let n_refs = self.manifest.refs.len();
        let fetched = self.fetch(0..n_refs)?;
        let _assemble = obs::span("cas.get.assemble");
        let pieces = (0..n_refs).map(|at| fetched.piece(at));
        let pieces = pieces.collect::<Result<Vec<&[u8]>, _>>()?;
        let raw = chunker::assemble(&self.manifest.layout, &pieces)
            .map_err(|e| CasError::Corrupt(format!("assemble: {e}")))?;
        if raw.len() as u64 != self.manifest.raw_len {
            return Err(CasError::Corrupt("reassembled length mismatch".into()));
        }
        Ok(raw)
    }
}

/// The units one read inflated: the only bytes it lends chunks from.
struct Fetched<'r> {
    manifest: &'r EpochManifest,
    /// By unit; a read touches one or two.
    units: Vec<(u32, Vec<u8>)>,
}

impl Fetched<'_> {
    fn unit(&self, chunk: &ChunkEntry) -> Option<&[u8]> {
        let found = self.units.iter().find(|(k, _)| *k == chunk.unit);
        found.map(|(_, bytes)| bytes.as_slice())
    }

    /// The bytes `chunk` names. `unit`, `offset` and `len` come off the
    /// disk, and a manifest is trusted by its own hash only: the span may
    /// not fit the unit, nor even a `u64`.
    fn chunk_bytes(&self, chunk: &ChunkEntry) -> Result<&[u8], CasError> {
        let unit = self
            .unit(chunk)
            .ok_or_else(|| CasError::Corrupt("chunk in a unit that was not inflated".into()))?;
        let start = usize::try_from(chunk.offset).ok();
        let end = start.and_then(|s| s.checked_add(usize::try_from(chunk.len).ok()?));
        start
            .zip(end)
            .and_then(|(start, end)| unit.get(start..end))
            .ok_or_else(|| CasError::Corrupt("chunk beyond unit bounds".into()))
    }

    /// The piece ref `at` names: verified chunk bytes, or bytes the
    /// verified manifest carries.
    fn piece(&self, at: usize) -> Result<&[u8], CasError> {
        let r = self.manifest.refs.get(at).copied();
        match r.and_then(|r| self.manifest.piece(r)) {
            Some(Piece::Chunk(chunk)) => self.chunk_bytes(chunk),
            Some(Piece::Inline(bytes)) => Ok(bytes),
            None => Err(CasError::Corrupt("piece beyond its table".into())),
        }
    }
}
