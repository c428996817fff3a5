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
//! of work each. The reader itself starts no thread.
//! [`EpochReader::snapshot_columns`] is the same read on one thread, and
//! [`EpochReader::assemble`], the reference the tests hold them against,
//! writes the text of the same tables. All of them go through one private
//! `inflate`, a unit lent only after its inflated bytes matched its hash,
//! and `ColumnTable::builder`, the one checked reader of the image.

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
    /// verified, then read through `ColumnTable::builder`, which checks
    /// the run to hold exactly one value a row for each varying column,
    /// each constant to be one value, no value to hold a field separator
    /// and everything to be UTF-8 — what the snapshot parser would check of
    /// the same table's text, made before a byte is lent. The inflated run
    /// becomes the table's text as it stands. The other table is not
    /// inflated, and not vouched for.
    pub fn table(&self, i: usize) -> Result<ColumnTable, CasError> {
        let _span = obs::span("cas.get");
        self.read_table(i)
    }

    fn read_table(&self, i: usize) -> Result<ColumnTable, CasError> {
        let (table, section) = self
            .held
            .manifest
            .tables
            .get(i)
            .zip(self.held.sections.get(i))
            .ok_or_else(|| CasError::Corrupt(format!("a snapshot has no table {i}")))?;
        let run = self.inflate(i)?;

        let _index = obs::span("cas.get.index");
        let constants = section
            .constants
            .clone()
            .map(|k| self.held.manifest.constant(k));
        let table = table
            .read(run, constants)
            .map_err(|e| CasError::Corrupt(format!("table {i}: {e}")))?;
        self.store.note_table_read();
        Ok(table)
    }

    /// The tables `wanted` of the snapshot as columns, in stored order
    /// ([`Self::table`] of each, no other table inflated): what
    /// `Snapshot::scan` refuses of these tables in [`Self::assemble`]'s
    /// text is refused here, and every field reads the same. The store took
    /// only a snapshot whose text reads back as it (no `\r`), so there is
    /// no text left to fall back to.
    pub fn snapshot_columns(
        &self,
        wanted: &[TableKind],
    ) -> Result<Vec<(TableKind, ColumnTable)>, CasError> {
        stored_tables(wanted)
            .map(|(i, kind)| Ok((kind, self.table(i)?)))
            .collect()
    }

    /// The stored snapshot's text, rebuilt: both tables read as
    /// [`Self::table`] reads them, written under the header lines the
    /// epoch and the rows give, and the length checked against the
    /// manifest's `raw_len` (which only this reference reads).
    pub fn assemble(&self) -> Result<Vec<u8>, CasError> {
        let _span = obs::span("cas.get");
        let tables = (0..SNAPSHOT_SECTIONS.len()).map(|i| self.read_table(i));
        let tables = tables.collect::<Result<Vec<_>, _>>()?;
        let _assemble = obs::span("cas.get.assemble");
        let raw = chunker::text(self.held.manifest.epoch, &tables);
        if raw.len() as u64 != self.held.manifest.raw_len {
            return Err(CasError::Corrupt("reassembled length mismatch".into()));
        }
        Ok(raw)
    }
}
