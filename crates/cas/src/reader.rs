//! Reading an epoch back: opened once, inflated section by section.
//!
//! [`crate::CasStore::open_epoch`] hands out an [`EpochReader`] holding
//! the verified manifest and the epoch's verified pack, nothing inflated.
//! [`EpochReader::table`] inflates the one unit of a table section and
//! returns the table column by column, for a scan that reads a few
//! columns of one table; [`EpochReader::assemble`] inflates every unit
//! and rebuilds the payload. Both go through one private `inflate`: a
//! unit is lent only after its inflated bytes matched its hash.

use crate::chunker::{self, Layout, SNAPSHOT_SECTIONS};
use crate::hash::ChunkHash;
use crate::manifest::EpochManifest;
use crate::store::CasStore;
use crate::{pack, CasError};
use std::ops::Range;
use telco_trace::schema::TableKind;
use telco_trace::snapshot::ColumnTable;

/// One epoch, open for reading (see the module docs).
pub struct EpochReader<'s> {
    store: &'s CasStore,
    manifest: EpochManifest,
    /// The verified pack file (empty when the epoch has none) and where
    /// each of its units lies in it.
    pack: Vec<u8>,
    units: Vec<Range<usize>>,
    /// What each section owns: the table sections of a columnar layout in
    /// order, or the one section of a blob.
    sections: Vec<chunker::Section>,
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
    /// The pack must hold exactly the units the layout has.
    pub(crate) fn new(
        store: &'s CasStore,
        manifest: EpochManifest,
        pack: Option<Vec<u8>>,
    ) -> Result<Self, CasError> {
        let units = match &pack {
            Some(bytes) => pack::unit_ranges(bytes)?,
            None => Vec::new(),
        };
        if units.len() != manifest.units.len() {
            return Err(CasError::Corrupt(format!(
                "the pack holds {} units, the layout needs {}",
                units.len(),
                manifest.units.len()
            )));
        }
        Ok(Self {
            store,
            sections: manifest.layout.sections(),
            manifest,
            pack: pack.unwrap_or_default(),
            units,
        })
    }

    pub fn layout(&self) -> &Layout {
        &self.manifest.layout
    }

    /// The inflated bytes of section `i`'s unit, verified against its
    /// hash; `None` for a section without one. Which table a read inflated
    /// is in the name of the inflate's span.
    fn inflate(&self, i: usize) -> Result<Option<Vec<u8>>, CasError> {
        let Some(unit) = self.sections[i].unit else {
            return Ok(None);
        };
        let span = match &self.manifest.layout {
            Layout::Columnar { tables, .. } => inflate_span_of(&tables[i].header),
            Layout::Blob => "cas.get.inflate.blob",
        };
        let bytes = {
            let _inflate = obs::span(span);
            let stream = &self.pack[self.units[unit].clone()];
            self.store.cfg.codec.decompress_metered(stream)?
        };
        let _verify = obs::span("cas.get.verify");
        if ChunkHash::of(&bytes) != self.manifest.units[unit] {
            self.store.note_mismatch();
            return Err(CasError::Corrupt(format!(
                "unit {unit} failed content verification"
            )));
        }
        Ok(Some(bytes))
    }

    /// Table section `i` of a columnar layout, column by column: its unit
    /// inflated and verified, the run checked to hold exactly one value a
    /// row for each varying column and each constant to be one value, no
    /// value holding a field separator, everything UTF-8 — what
    /// [`Self::assemble`] and the snapshot parser would check of the same
    /// table, made before a byte is lent. The inflated run becomes the
    /// table's text as it stands. The other sections are not inflated,
    /// and not vouched for.
    pub fn table(&self, i: usize) -> Result<ColumnTable, CasError> {
        let Layout::Columnar { tables, .. } = &self.manifest.layout else {
            return Err(CasError::Corrupt("a blob has no tables".into()));
        };
        let (table, section) = tables
            .get(i)
            .zip(self.sections.get(i))
            .ok_or_else(|| CasError::Corrupt(format!("the layout has no table {i}")))?;
        let _span = obs::span("cas.get");
        let run = self.inflate(i)?;

        let _index = obs::span("cas.get.index");
        let corrupt = |e| CasError::Corrupt(format!("table {i}: {e}"));
        let mut columns = ColumnTable::builder(table.rows as usize);
        let mut constants = section.constants.clone();
        for &constant in &table.constant {
            let Some(k) = constant.then(|| constants.next()).flatten() else {
                columns.varying();
                continue;
            };
            columns
                .constant(self.manifest.constant(k))
                .map_err(corrupt)?;
        }
        if let Some(run) = run {
            columns.run(run).map_err(corrupt)?;
        }
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

    /// The stored payload, rebuilt: every unit inflated and verified, put
    /// back together with the constant values as the layout says, and the
    /// length checked.
    pub fn assemble(&self) -> Result<Vec<u8>, CasError> {
        let _span = obs::span("cas.get");
        let units = (0..self.sections.len()).filter_map(|i| self.inflate(i).transpose());
        let units = units.collect::<Result<Vec<Vec<u8>>, _>>()?;
        let _assemble = obs::span("cas.get.assemble");
        let constants = (0..self.manifest.constants.len()).map(|k| self.manifest.constant(k));
        let pieces: Vec<&[u8]> = units.iter().map(Vec::as_slice).chain(constants).collect();
        let raw = chunker::assemble(&self.manifest.layout, &pieces)
            .map_err(|e| CasError::Corrupt(format!("assemble: {e}")))?;
        if raw.len() as u64 != self.manifest.raw_len {
            return Err(CasError::Corrupt("reassembled length mismatch".into()));
        }
        Ok(raw)
    }
}
