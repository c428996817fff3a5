//! Reading an epoch back: opened once, inflated table by table.
//!
//! [`crate::CasStore::open_epoch`] hands out an [`EpochReader`] holding
//! the epoch's verified pack, the one file a read fetches, and sharing the
//! manifest the store holds from the put or the recovery that decoded it
//! (with what each table owns in it, computed then): nothing inflated.
//! [`EpochReader::table`] inflates the one unit of a table and returns the
//! table column by column: every read of a stored epoch reads columns.
//! The tables are independent, and `table` takes `&self`, so the reader
//! is shared by reference and a read of both tables may inflate them on
//! two threads at once: [`stored_tables`] names a read's tables, one piece
//! of work each, and [`EpochReader::columns`] puts what they returned
//! together. The reader itself starts no thread.
//! [`EpochReader::snapshot_columns`] is the same read on one thread, and
//! [`EpochReader::assemble`], the reference the tests hold them against,
//! rebuilds the text. Both go through one private `inflate`: a unit is
//! lent only after its inflated bytes matched its hash.

use crate::chunker::{self, SNAPSHOT_SECTIONS};
use crate::hash::ChunkHash;
use crate::store::{CasStore, HeldManifest};
use crate::{pack, CasError};
use std::ops::Range;
use std::sync::Arc;
use telco_trace::schema::TableKind;
use telco_trace::snapshot::ColumnTable;

/// One epoch, open for reading (see the module docs).
pub struct EpochReader<'s> {
    store: &'s CasStore,
    /// The manifest and what each table owns, CDR then NMS.
    held: Arc<HeldManifest>,
    /// The verified pack file (empty when the epoch has none) and where
    /// each of its units lies in it.
    pack: Vec<u8>,
    units: Vec<Range<usize>>,
}

/// The tables a scan asked for of a stored snapshot, each whole and
/// checked ([`EpochReader::snapshot_columns`]).
pub struct SnapshotColumns {
    /// In stored order: CDR before NMS.
    pub tables: Vec<(TableKind, ColumnTable)>,
    /// Rows of the snapshot, both tables: what a walk of its text counts.
    pub rows: u64,
}

/// The tables a read of `wanted` inflates, in stored order (CDR before
/// NMS), each with its index for [`EpochReader::table`].
pub fn stored_tables(wanted: &[TableKind]) -> impl Iterator<Item = (usize, TableKind)> + '_ {
    let stored = SNAPSHOT_SECTIONS.into_iter().enumerate();
    stored.filter(|(_, kind)| wanted.contains(kind))
}

/// The inflate span of each table, in stored order.
const INFLATE_SPANS: [&str; 2] = ["cas.get.inflate.cdr", "cas.get.inflate.nms"];

impl<'s> EpochReader<'s> {
    /// The pack must hold exactly the units the tables have.
    pub(crate) fn new(
        store: &'s CasStore,
        held: Arc<HeldManifest>,
        pack: Option<Vec<u8>>,
    ) -> Result<Self, CasError> {
        let units = match &pack {
            Some(bytes) => pack::unit_ranges(bytes)?,
            None => Vec::new(),
        };
        if units.len() != held.manifest.units.len() {
            return Err(CasError::Corrupt(format!(
                "the pack holds {} units, the tables need {}",
                units.len(),
                held.manifest.units.len()
            )));
        }
        Ok(Self {
            store,
            held,
            pack: pack.unwrap_or_default(),
            units,
        })
    }

    /// The inflated bytes of table `i`'s unit, verified against its hash;
    /// `None` for a table without one. Which table a read inflated is in
    /// the name of the inflate's span.
    fn inflate(&self, i: usize) -> Result<Option<Vec<u8>>, CasError> {
        let Some(unit) = self.held.sections[i].unit else {
            return Ok(None);
        };
        let bytes = {
            let _inflate = obs::span(INFLATE_SPANS[i]);
            let stream = &self.pack[self.units[unit].clone()];
            self.store.cfg.codec.decompress_metered(stream)?
        };
        let _verify = obs::span("cas.get.verify");
        if ChunkHash::of(&bytes) != self.held.manifest.units[unit] {
            self.store.note_mismatch();
            return Err(CasError::Corrupt(format!(
                "unit {unit} failed content verification"
            )));
        }
        Ok(Some(bytes))
    }

    /// Table `i` (0 CDR, 1 NMS), column by column: its unit inflated and
    /// verified, the run checked to hold exactly one value a row for each
    /// varying column and each constant to be one value, no value holding
    /// a field separator, everything UTF-8 — what [`Self::assemble`] and
    /// the snapshot parser would check of the same table, made before a
    /// byte is lent. The inflated run becomes the table's text as it
    /// stands. The other table is not inflated, and not vouched for.
    pub fn table(&self, i: usize) -> Result<ColumnTable, CasError> {
        let (table, section) = self
            .held
            .manifest
            .tables
            .get(i)
            .zip(self.held.sections.get(i))
            .ok_or_else(|| CasError::Corrupt(format!("a snapshot has no table {i}")))?;
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
                .constant(self.held.manifest.constant(k))
                .map_err(corrupt)?;
        }
        if let Some(run) = run {
            columns.run(run).map_err(corrupt)?;
        }
        let table = columns.finish().map_err(corrupt)?;
        self.store.note_table_read();
        Ok(table)
    }

    /// The tables `wanted` of the snapshot as columns ([`Self::table`] of
    /// each, no other table inflated): what `Snapshot::scan` refuses of
    /// these tables in [`Self::assemble`]'s text is refused here, and every
    /// field reads the same. The store took only text as `to_bytes` writes
    /// it (no `\r`), so there is no text left to fall back to.
    pub fn snapshot_columns(&self, wanted: &[TableKind]) -> Result<SnapshotColumns, CasError> {
        let tables = stored_tables(wanted).map(|(i, kind)| Ok((kind, self.table(i)?)));
        Ok(self.columns(tables.collect::<Result<_, CasError>>()?))
    }

    /// The snapshot's columns from `tables`, each one [`Self::table`]
    /// returned, in stored order: what [`Self::snapshot_columns`] lends of
    /// the tables read.
    pub fn columns(&self, tables: Vec<(TableKind, ColumnTable)>) -> SnapshotColumns {
        let rows = self
            .held
            .manifest
            .tables
            .iter()
            .map(|t| u64::from(t.rows))
            .sum();
        SnapshotColumns { tables, rows }
    }

    /// The stored snapshot's text, rebuilt: every unit inflated and
    /// verified, put back together with the constant values under the
    /// header lines the epoch and the rows give, and the length checked
    /// against the manifest's `raw_len` (which only this reference reads).
    pub fn assemble(&self) -> Result<Vec<u8>, CasError> {
        let _span = obs::span("cas.get");
        let units = (0..self.held.sections.len()).filter_map(|i| self.inflate(i).transpose());
        let units = units.collect::<Result<Vec<Vec<u8>>, _>>()?;
        let _assemble = obs::span("cas.get.assemble");
        let constants =
            (0..self.held.manifest.constants.len()).map(|k| self.held.manifest.constant(k));
        let pieces: Vec<&[u8]> = units.iter().map(Vec::as_slice).chain(constants).collect();
        let raw = chunker::assemble(&self.held.manifest.layout(), &pieces)
            .map_err(|e| CasError::Corrupt(format!("assemble: {e}")))?;
        if raw.len() as u64 != self.held.manifest.raw_len {
            return Err(CasError::Corrupt("reassembled length mismatch".into()));
        }
        Ok(raw)
    }
}
