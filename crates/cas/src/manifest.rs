//! Epoch manifests and the Merkle rollup.
//!
//! An epoch's *manifest* is what the rest of the warehouse sees of it: a
//! compact binary record of how to reassemble the snapshot (its tables'
//! rows and which of their columns are constant), the hash of the epoch's
//! own pack and of every unit inflated from it, and the values of the
//! constant columns, which it carries itself. The store takes nothing but
//! a snapshot as `Snapshot::to_bytes` writes it, so the rest of the layout
//! — the header lines, the two tables and their widths — follows from the
//! epoch and the rows and is not stored.
//!
//! Manifests are themselves content-addressed — the stored
//! manifest's hash is the epoch's Merkle leaf — and roll up the same
//! temporal hierarchy as the index tree: epoch leaves hash into a **day
//! manifest**, days into a **month manifest**, months into the **root**.
//! One root hash therefore authenticates every byte of every retained
//! epoch, and any two runs that ingested the same data agree on it.
//!
//! A manifest is written and read through [`obs::bytes`]: a manifest that
//! is cut, padded or declares more than its bytes hold is
//! [`CasError::Corrupt`] naming the field, never a panic or a reservation.

use crate::chunker::{self, Section, TableLayout, SNAPSHOT_SECTIONS};
use crate::hash::ChunkHash;
use crate::CasError;
use obs::bytes::{ByteError, Reader, Writer};
use std::collections::BTreeMap;
use telco_trace::schema::{Schema, TableKind};
use telco_trace::time::EpochId;

/// Magic prefix of an encoded epoch manifest. `CASMF1` (no inline pieces),
/// `CASMF2` (packs of one stream: no unit per chunk; every header line
/// spelt out), `CASMF3` (a table of shared packs: a pack index per chunk),
/// `CASMF4` (an entry per piece: hash, unit, offset and length) and
/// `CASMF5` (any layout: a layout tag, header-line tags, a table count and
/// widths) are refused: no image outlives the process that wrote it.
pub const MANIFEST_MAGIC: &[u8; 6] = b"CASMF6";

/// The content-addressed description of one stored epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochManifest {
    pub epoch: u32,
    /// Length of the stored snapshot's text: checked by the reference
    /// reassembly ([`crate::EpochReader::assemble`]), not by a column read.
    pub raw_len: u64,
    /// The snapshot's CDR and NMS table, in stored order.
    pub tables: [TableLayout; 2],
    /// Address of the epoch's own pack: there is one exactly when a table
    /// has a unit.
    pub pack: Option<ChunkHash>,
    /// Address of each unit's inflated bytes, one per table with a run, in
    /// table order ([`chunker::Section::unit`]).
    pub units: Vec<ChunkHash>,
    /// The distinct values of the constant columns, first-use order. The
    /// manifest's own hash — the epoch's Merkle leaf, verified before
    /// decode — authenticates them.
    pub inline: Vec<Vec<u8>>,
    /// One index into [`Self::inline`] per constant column, in table and
    /// column order ([`chunker::Section::constants`]). A repeated index is
    /// a value the epoch uses again.
    pub constants: Vec<u32>,
}

impl EpochManifest {
    /// What each table owns, in table order.
    pub(crate) fn sections(&self) -> Vec<Section> {
        chunker::table_sections(&self.tables)
    }

    pub(crate) fn unit_count(&self) -> usize {
        self.tables.iter().filter(|t| t.has_run()).count()
    }

    pub(crate) fn constant_count(&self) -> usize {
        self.tables.iter().map(TableLayout::constants).sum()
    }

    /// The value of constant column `k` (in [`Self::constants`] order).
    /// Never out of range for a decoded manifest.
    pub(crate) fn constant(&self, k: usize) -> &[u8] {
        &self.inline[self.constants[k] as usize]
    }

    /// Deterministic binary encoding (varints + raw hashes): each table's
    /// rows and a byte a column (1 constant, 0 varying), then the
    /// addresses, whose number follows from the tables, and the constants.
    pub fn encode(&self) -> Vec<u8> {
        debug_assert_eq!(self.units.len(), self.unit_count());
        debug_assert_eq!(self.constants.len(), self.constant_count());
        let mut out = Vec::with_capacity(256 + self.units.len() * 16 + self.constants.len() * 2);
        let mut w = Writer::new(&mut out);
        w.bytes(MANIFEST_MAGIC);
        w.varint(self.epoch.into());
        w.varint(self.raw_len);
        for table in &self.tables {
            w.varint(table.rows.into());
            for &c in &table.constant {
                w.u8(u8::from(c));
            }
        }
        if !self.units.is_empty() {
            let pack = self.pack.expect("units lie in a pack");
            w.bytes(&pack.0);
        }
        for unit in &self.units {
            w.bytes(&unit.0);
        }
        w.varint(self.inline.len() as u64);
        for bytes in &self.inline {
            w.varint(bytes.len() as u64);
            w.bytes(bytes);
        }
        for &r in &self.constants {
            w.varint(r.into());
        }
        out
    }

    /// Decode [`Self::encode`] output, rejecting anything malformed.
    pub fn decode(bytes: &[u8]) -> Result<Self, CasError> {
        Self::read(bytes).map_err(|e| CasError::Corrupt(format!("manifest: {e}")))
    }

    fn read(bytes: &[u8]) -> Result<Self, ByteError> {
        let mut r = Reader::new(bytes);
        r.magic(MANIFEST_MAGIC)?;
        let epoch = r.varint_u32()?;
        let raw_len = r.varint()?;
        let [cdr, nms] = SNAPSHOT_SECTIONS.map(|kind| read_table(&mut r, kind));
        let mut manifest = Self {
            epoch,
            raw_len,
            tables: [cdr?, nms?],
            pack: None,
            units: Vec::new(),
            inline: Vec::new(),
            constants: Vec::new(),
        };
        let n_units = manifest.unit_count();
        if n_units > 0 {
            manifest.pack = Some(ChunkHash(r.array()?));
        }
        // Each address takes its 16 bytes: bounded by the bytes present.
        let units = (0..n_units).map(|_| r.array().map(ChunkHash));
        manifest.units = units.collect::<Result<Vec<_>, _>>()?;
        // An inline value takes its length byte at least.
        let n_inline = r.count(1, "inline values")?;
        let inline = (0..n_inline).map(|_| {
            let len = r.count(1, "inline value length")?;
            r.take(len).map(<[u8]>::to_vec)
        });
        manifest.inline = inline.collect::<Result<Vec<_>, _>>()?;
        let n_constants = manifest.constant_count();
        let constants = (0..n_constants).map(|_| match r.varint_u32()? {
            at if (at as usize) < manifest.inline.len() => Ok(at),
            _ => Err(ByteError::OutOfRange {
                field: "constant ref",
            }),
        });
        manifest.constants = constants.collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        Ok(manifest)
    }
}

/// One table of a snapshot: its rows, then a flag a column of its schema.
fn read_table(r: &mut Reader, kind: TableKind) -> Result<TableLayout, ByteError> {
    let rows = r.varint_u32()?;
    let flags = r.take(Schema::shared(kind).width())?;
    let constant = flags.iter().map(|&flag| match flag {
        0 | 1 => Ok(flag == 1),
        _ => Err(ByteError::OutOfRange {
            field: "column flag",
        }),
    });
    Ok(TableLayout {
        rows,
        constant: constant.collect::<Result<Vec<bool>, _>>()?,
    })
}

/// The Merkle rollup over every retained epoch manifest: day and month
/// manifests as canonical text, plus the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Merkle {
    /// `(year, month, day)` → day manifest bytes.
    pub days: BTreeMap<(u32, u32, u32), Vec<u8>>,
    /// `(year, month)` → month manifest bytes.
    pub months: BTreeMap<(u32, u32), Vec<u8>>,
    /// Root manifest bytes.
    pub root: Vec<u8>,
    /// Hash of [`Self::root`]: one address for the whole retained corpus.
    pub root_hash: ChunkHash,
}

/// Build the rollup from the epoch → manifest-hash leaves. Deterministic:
/// same leaves (in any order) → byte-identical manifests and root.
pub fn build_merkle(leaves: &BTreeMap<u32, ChunkHash>) -> Merkle {
    let mut days: BTreeMap<(u32, u32, u32), String> = BTreeMap::new();
    for (&epoch, hash) in leaves {
        let c = EpochId(epoch).civil();
        days.entry((c.year, c.month, c.day))
            .or_insert_with(|| format!("#CASDAY {:04}-{:02}-{:02}\n", c.year, c.month, c.day))
            .push_str(&format!("epoch {epoch} {}\n", hash.hex()));
    }
    let days: BTreeMap<(u32, u32, u32), Vec<u8>> =
        days.into_iter().map(|(k, v)| (k, v.into_bytes())).collect();

    let mut months: BTreeMap<(u32, u32), String> = BTreeMap::new();
    for (&(y, m, d), bytes) in &days {
        months
            .entry((y, m))
            .or_insert_with(|| format!("#CASMONTH {y:04}-{m:02}\n"))
            .push_str(&format!(
                "day {y:04}-{m:02}-{d:02} {}\n",
                ChunkHash::of(bytes).hex()
            ));
    }
    let months: BTreeMap<(u32, u32), Vec<u8>> = months
        .into_iter()
        .map(|(k, v)| (k, v.into_bytes()))
        .collect();

    let mut root = String::from("#CASROOT\n");
    for (&(y, m), bytes) in &months {
        root.push_str(&format!(
            "month {y:04}-{m:02} {}\n",
            ChunkHash::of(bytes).hex()
        ));
    }
    let root = root.into_bytes();
    let root_hash = ChunkHash::of(&root);
    Merkle {
        days,
        months,
        root,
        root_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::bytes::{sweep, varint, Damage};
    use telco_trace::{TraceConfig, TraceGenerator};

    /// A stored snapshot and its encoded manifest: units, inline values
    /// and both tables, as `put_epoch` lays them out.
    fn stored_snapshot() -> (Vec<u8>, Vec<u8>) {
        use crate::store::{CasConfig, CasStore};
        use codecs::Codec;
        let cas = CasStore::new(
            dfs::Dfs::new(dfs::DfsConfig::default()),
            CasConfig::default(),
        );
        let snap = TraceGenerator::new(TraceConfig::tiny()).next().unwrap();
        let raw = snap.to_bytes();
        cas.put_epoch(snap.epoch.0, &raw).unwrap();
        let stored = cas.dfs().read(&cas.manifest_path(snap.epoch.0)).unwrap();
        (
            raw,
            codecs::SevenzLite::default().decompress(&stored).unwrap(),
        )
    }

    fn real_manifest_bytes() -> Vec<u8> {
        stored_snapshot().1
    }

    fn sample_manifest() -> EpochManifest {
        EpochManifest::decode(&real_manifest_bytes()).unwrap()
    }

    #[test]
    fn encode_decode_round_trip() {
        let bytes = real_manifest_bytes();
        let m = EpochManifest::decode(&bytes).unwrap();
        // Determinism: the encode of the decode is the stored image.
        assert_eq!(m.encode(), bytes);
        assert_eq!(EpochManifest::decode(&m.encode()).unwrap(), m);
    }

    /// No header line, table count or width is stored: the layout comes
    /// back from the epoch and the rows, the one the chunker split.
    #[test]
    fn the_layout_is_rebuilt_from_the_epoch_and_the_rows() {
        let (raw, bytes) = stored_snapshot();
        let m = EpochManifest::decode(&bytes).unwrap();
        let layout = chunker::Layout::Columnar {
            epoch: m.epoch,
            tables: m.tables.clone(),
        };
        assert_eq!(layout, chunker::split(&raw, &chunker::Chunking).0);
        // Epoch and length, then rows and a flag a column per table, then
        // the pack's address.
        let mut head = MANIFEST_MAGIC.to_vec();
        varint::write_u64(&mut head, m.epoch.into());
        varint::write_u64(&mut head, m.raw_len);
        for t in &m.tables {
            varint::write_u64(&mut head, t.rows.into());
            head.extend(t.constant.iter().map(|&c| u8::from(c)));
        }
        head.extend_from_slice(&m.pack.unwrap().0);
        assert!(bytes.starts_with(&head));
    }
    #[test]
    fn truncations_and_garbage_are_rejected() {
        let bytes = sample_manifest().encode();
        assert!(EpochManifest::decode(b"").is_err());
        assert!(EpochManifest::decode(b"NOTMAGIC").is_err());
        for cut in [7, bytes.len() / 2, bytes.len() - 1] {
            assert!(EpochManifest::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(EpochManifest::decode(&trailing).is_err());
    }

    #[test]
    fn out_of_range_refs_are_rejected() {
        let mut m = sample_manifest();
        m.constants[0] = m.inline.len() as u32;
        match EpochManifest::decode(&m.encode()) {
            Err(CasError::Corrupt(why)) => assert_eq!(why, "manifest: constant ref out of range"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // One inline value moves the limit by one, whatever its length.
        m.inline
            .push(b"a constant longer than a content address\n".to_vec());
        assert_eq!(EpochManifest::decode(&m.encode()).unwrap(), m);
        assert_eq!(m.constant(0), m.inline.last().unwrap().as_slice());
        m.constants[0] += 1;
        assert!(EpochManifest::decode(&m.encode()).is_err());
    }

    #[test]
    fn a_real_manifest_carries_its_constants_inline_once_each() {
        let m = sample_manifest();
        assert!(m.pack.is_some(), "a tiny epoch still has a unit");
        assert_eq!(m.units.len(), m.unit_count());
        assert!(
            m.constants.len() > m.inline.len(),
            "repeated constants share a value"
        );
        let mut distinct = m.inline.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), m.inline.len());
    }

    /// An inline-value count past what the bytes after it can hold is
    /// refused by the count, before the read loop runs off the end.
    #[test]
    fn an_inline_count_past_the_bytes_left_is_refused() {
        let m = sample_manifest();
        let bytes = m.encode();
        // What follows the count: the inline values, then the refs.
        let mut values = Vec::new();
        let mut w = Writer::new(&mut values);
        for value in &m.inline {
            w.varint(value.len() as u64);
            w.bytes(value);
        }
        for &r in &m.constants {
            w.varint(r.into());
        }
        let mut forged = Vec::new();
        varint::write_u64(&mut forged, m.inline.len() as u64);
        let at = bytes.len() - values.len() - forged.len();
        assert_eq!(bytes[at..], [&forged[..], &values].concat());
        forged = bytes[..at].to_vec();
        varint::write_u64(&mut forged, 1 << 20);
        forged.extend_from_slice(&values);
        match EpochManifest::decode(&forged) {
            Err(CasError::Corrupt(why)) => assert_eq!(why, "manifest: inline values out of range"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// No prefix of a manifest decodes, and no single flipped bit makes
    /// `decode` panic (overflow checks on in debug, wrapping in release):
    /// it is refused, or — a hash bit, an inline bit, a row count — it is
    /// another well-formed manifest whose every ref resolves.
    #[test]
    fn every_prefix_and_every_bit_flip_of_a_real_manifest_is_handled() {
        let bytes = real_manifest_bytes();
        let mut refused = 0usize;
        sweep(&bytes, |damage, damaged| {
            match (damage, EpochManifest::decode(damaged)) {
                (Damage::Cut(_), decoded) => assert!(decoded.is_err(), "{damage:?}"),
                (_, Err(CasError::Corrupt(_))) => refused += 1,
                (_, Err(e)) => panic!("{damage:?}: unexpected error class {e}"),
                (_, Ok(m)) => {
                    let resolve = |&r: &u32| (r as usize) < m.inline.len();
                    assert!(m.constants.iter().all(resolve), "{damage:?}");
                    assert_eq!(m.unit_count(), m.units.len(), "{damage:?}");
                    assert_eq!(m.constant_count(), m.constants.len(), "{damage:?}");
                }
            }
        });
        assert!(refused > bytes.len(), "structure bytes must be checked");
    }

    #[test]
    fn the_old_magics_are_corrupt() {
        // A `CASMF1` … `CASMF5` image (no inline table; no unit per chunk;
        // a pack table; an entry per piece; any layout): refused on its
        // magic, whatever follows.
        for magic in [b"CASMF1", b"CASMF2", b"CASMF3", b"CASMF4", b"CASMF5"] {
            let mut old = sample_manifest().encode();
            old[..6].copy_from_slice(magic);
            match EpochManifest::decode(&old) {
                Err(CasError::Corrupt(why)) => assert!(why.contains("bad magic"), "{why}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn merkle_is_deterministic_and_order_free() {
        let mut a = BTreeMap::new();
        // Epochs across two days and two months.
        for e in [0u32, 1, 47, 48, 700] {
            a.insert(e, ChunkHash::of(&e.to_le_bytes()));
        }
        let m1 = build_merkle(&a);
        let m2 = build_merkle(&a.clone());
        assert_eq!(m1, m2);
        assert_eq!(m1.days.len(), 3);
        assert_eq!(m1.months.len(), 2);
        // Any leaf change moves the root.
        a.insert(1, ChunkHash::of(b"different"));
        assert_ne!(build_merkle(&a).root_hash, m1.root_hash);
        // Empty corpus has a stable root too.
        let empty = build_merkle(&BTreeMap::new());
        assert_eq!(empty.root, b"#CASROOT\n");
    }
}
