//! Epoch manifests and the Merkle rollup.
//!
//! An epoch's *manifest* is what the rest of the warehouse sees of it: a
//! compact binary record of how to reassemble the snapshot (its layout),
//! the hash of the epoch's own pack and of every unit inflated from it,
//! and the values of the constant columns, which it carries itself.
//! Manifests are themselves content-addressed — the stored
//! manifest's hash is the epoch's Merkle leaf — and roll up the same
//! temporal hierarchy as the index tree: epoch leaves hash into a **day
//! manifest**, days into a **month manifest**, months into the **root**.
//! One root hash therefore authenticates every byte of every retained
//! epoch, and any two runs that ingested the same data agree on it.

use crate::chunker::{self, Layout, TableLayout};
use crate::hash::ChunkHash;
use crate::CasError;
use codecs::varint;
use std::collections::BTreeMap;
use telco_trace::time::EpochId;
use telco_trace::Snapshot;

/// Magic prefix of an encoded epoch manifest. `CASMF1` (no inline pieces),
/// `CASMF2` (packs of one stream: no unit per chunk; every header line
/// spelt out), `CASMF3` (a table of shared packs: a pack index per chunk)
/// and `CASMF4` (an entry per piece: hash, unit, offset and length) are
/// refused: no image outlives the process that wrote it.
pub const MANIFEST_MAGIC: &[u8; 6] = b"CASMF5";

/// The content-addressed description of one stored epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochManifest {
    pub epoch: u32,
    /// Length of the reassembled payload, verified on read.
    pub raw_len: u64,
    pub layout: Layout,
    /// Address of the epoch's own pack: there is one exactly when the
    /// layout has a unit.
    pub pack: Option<ChunkHash>,
    /// Address of each unit's inflated bytes, one per unit of the layout
    /// in section order ([`chunker::Section::unit`]).
    pub units: Vec<ChunkHash>,
    /// The distinct values of the constant columns, first-use order. The
    /// manifest's own hash — the epoch's Merkle leaf, verified before
    /// decode — authenticates them.
    pub inline: Vec<Vec<u8>>,
    /// One index into [`Self::inline`] per constant column of the layout,
    /// in section and column order ([`chunker::Section::constants`]). A
    /// repeated index is a value the epoch uses again.
    pub constants: Vec<u32>,
}

impl EpochManifest {
    /// The value of constant column `k` (in [`Self::constants`] order).
    /// Never out of range for a decoded manifest.
    pub(crate) fn constant(&self, k: usize) -> &[u8] {
        &self.inline[self.constants[k] as usize]
    }

    /// Deterministic binary encoding (varints + raw hashes). How many unit
    /// addresses and constant refs there are follows from the layout,
    /// which comes first.
    pub fn encode(&self) -> Vec<u8> {
        debug_assert_eq!(self.units.len(), self.layout.unit_count());
        debug_assert_eq!(self.constants.len(), self.layout.constant_count());
        let mut out = Vec::with_capacity(64 + self.units.len() * 16 + self.constants.len() * 2);
        out.extend_from_slice(MANIFEST_MAGIC);
        varint::write_u32(&mut out, self.epoch);
        varint::write_u64(&mut out, self.raw_len);
        encode_layout(&mut out, &self.layout, self.epoch);
        if !self.units.is_empty() {
            let pack = self.pack.expect("units lie in a pack");
            out.extend_from_slice(&pack.0);
        }
        for unit in &self.units {
            out.extend_from_slice(&unit.0);
        }
        varint::write_u64(&mut out, self.inline.len() as u64);
        for bytes in &self.inline {
            varint::write_u64(&mut out, bytes.len() as u64);
            out.extend_from_slice(bytes);
        }
        for &r in &self.constants {
            varint::write_u32(&mut out, r);
        }
        out
    }

    /// Decode [`Self::encode`] output, rejecting anything malformed.
    pub fn decode(bytes: &[u8]) -> Result<Self, CasError> {
        let corrupt = |what: &str| CasError::Corrupt(format!("manifest: {what}"));
        if bytes.len() < MANIFEST_MAGIC.len() || &bytes[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let mut pos = MANIFEST_MAGIC.len();
        let epoch = varint::read_u32(bytes, &mut pos).map_err(|_| corrupt("epoch"))?;
        let raw_len = varint::read_u64(bytes, &mut pos).map_err(|_| corrupt("raw_len"))?;
        let layout = decode_layout(bytes, &mut pos, epoch)?;
        let n_units = layout.unit_count();
        let pack = match n_units {
            0 => None,
            _ => Some(read_hash(bytes, &mut pos)?),
        };
        // Each address takes its 16 bytes: bounded by the bytes present.
        let units = (0..n_units).map(|_| read_hash(bytes, &mut pos));
        let units = units.collect::<Result<Vec<_>, _>>()?;
        let n_inline = read_count(bytes, &mut pos, "inline values")?;
        let mut inline = Vec::with_capacity(n_inline.min(MAX_PREALLOC));
        for _ in 0..n_inline {
            inline.push(read_bytes(bytes, &mut pos, "inline value")?);
        }
        let n_constants = layout.constant_count();
        let mut constants = Vec::with_capacity(n_constants.min(MAX_PREALLOC));
        for _ in 0..n_constants {
            let r = varint::read_u32(bytes, &mut pos).map_err(|_| corrupt("constant ref"))?;
            if r as usize >= inline.len() {
                return Err(corrupt("constant ref past the inline values"));
            }
            constants.push(r);
        }
        if pos != bytes.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(Self {
            epoch,
            raw_len,
            layout,
            pack,
            units,
            inline,
            constants,
        })
    }
}

/// Cap decoded collection sizes so a corrupt length prefix cannot commit
/// unbounded memory before validation catches it.
const MAX_ITEMS: usize = 1 << 24;
/// Never pre-reserve more than this many entries from an untrusted count;
/// vectors still grow on demand past it once real data validates.
const MAX_PREALLOC: usize = 1 << 14;

fn read_count(bytes: &[u8], pos: &mut usize, what: &str) -> Result<usize, CasError> {
    let n = varint::read_u64(bytes, pos)
        .map_err(|_| CasError::Corrupt(format!("manifest: {what} count")))?;
    if n as usize > MAX_ITEMS {
        return Err(CasError::Corrupt(format!("manifest: {what} count too big")));
    }
    Ok(n as usize)
}

fn read_hash(bytes: &[u8], pos: &mut usize) -> Result<ChunkHash, CasError> {
    let end = *pos + ChunkHash::LEN;
    if end > bytes.len() {
        return Err(CasError::Corrupt("manifest: truncated hash".into()));
    }
    let mut h = [0u8; 16];
    h.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(ChunkHash(h))
}

fn read_bytes(bytes: &[u8], pos: &mut usize, what: &str) -> Result<Vec<u8>, CasError> {
    let len = read_count(bytes, pos, what)?;
    let end = *pos + len;
    if end > bytes.len() {
        return Err(CasError::Corrupt(format!("manifest: truncated {what}")));
    }
    let out = bytes[*pos..end].to_vec();
    *pos = end;
    Ok(out)
}

/// A header line of a columnar layout. The three lines of a snapshot are
/// a function of numbers the manifest holds anyway (its epoch, a table's
/// rows) and were a fifth of its stored bytes: the line `as_written` is
/// one tag byte, any other line is spelt out.
fn encode_header(out: &mut Vec<u8>, header: &[u8], as_written: bool) {
    out.push(u8::from(!as_written));
    if !as_written {
        varint::write_u64(out, header.len() as u64);
        out.extend_from_slice(header);
    }
}

fn decode_header(
    bytes: &[u8],
    pos: &mut usize,
    as_written: impl FnOnce() -> Option<String>,
) -> Result<Vec<u8>, CasError> {
    let corrupt = |what: &str| CasError::Corrupt(format!("manifest layout: {what}"));
    let tag = *bytes
        .get(*pos)
        .ok_or_else(|| corrupt("missing header tag"))?;
    *pos += 1;
    match tag {
        0 => as_written()
            .map(String::into_bytes)
            .ok_or_else(|| corrupt("no header line to write")),
        1 => read_bytes(bytes, pos, "header"),
        _ => Err(corrupt("unknown header tag")),
    }
}

fn encode_layout(out: &mut Vec<u8>, layout: &Layout, epoch: u32) {
    match layout {
        Layout::Blob => out.push(0),
        Layout::Columnar { header, tables } => {
            out.push(1);
            let as_written = Snapshot::header_line(EpochId(epoch));
            encode_header(out, header, header == as_written.as_bytes());
            varint::write_u64(out, tables.len() as u64);
            for (section, t) in tables.iter().enumerate() {
                varint::write_u32(out, t.rows);
                varint::write_u64(out, t.cols() as u64);
                encode_header(out, &t.header, t.is_as_written(section));
                // One byte a column: 1 constant, 0 varying.
                out.extend(t.constant.iter().map(|&c| u8::from(c)));
            }
        }
    }
}

fn decode_layout(bytes: &[u8], pos: &mut usize, epoch: u32) -> Result<Layout, CasError> {
    let corrupt = |what: &str| CasError::Corrupt(format!("manifest layout: {what}"));
    let tag = *bytes.get(*pos).ok_or_else(|| corrupt("missing tag"))?;
    *pos += 1;
    match tag {
        0 => Ok(Layout::Blob),
        1 => {
            let header = decode_header(bytes, pos, || Some(Snapshot::header_line(EpochId(epoch))))?;
            let n_tables = read_count(bytes, pos, "tables")?;
            let mut tables = Vec::with_capacity(n_tables.min(MAX_PREALLOC));
            for section in 0..n_tables {
                let rows = varint::read_u32(bytes, pos).map_err(|_| corrupt("rows"))?;
                let cols = read_count(bytes, pos, "cols")?;
                let theader = decode_header(bytes, pos, || {
                    let kind = *chunker::SNAPSHOT_SECTIONS.get(section)?;
                    Some(Snapshot::table_header_line(kind, rows as usize))
                })?;
                let flags = pos
                    .checked_add(cols)
                    .and_then(|end| bytes.get(*pos..end))
                    .ok_or_else(|| corrupt("truncated column flags"))?;
                let constant = flags.iter().map(|&flag| match flag {
                    0 | 1 => Ok(flag == 1),
                    _ => Err(corrupt("column flag")),
                });
                let constant = constant.collect::<Result<Vec<bool>, _>>()?;
                *pos += cols;
                tables.push(TableLayout {
                    header: theader,
                    rows,
                    constant,
                });
            }
            Ok(Layout::Columnar { header, tables })
        }
        _ => Err(corrupt("unknown tag")),
    }
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
    use telco_trace::{TraceConfig, TraceGenerator};

    /// The encoded manifest of a stored snapshot: units, inline values and
    /// a columnar layout, as `put_epoch` lays them out.
    fn real_manifest_bytes() -> Vec<u8> {
        use crate::store::{CasConfig, CasStore};
        use codecs::Codec;
        let cas = CasStore::new(
            dfs::Dfs::new(dfs::DfsConfig::default()),
            CasConfig::default(),
        );
        let snap = TraceGenerator::new(TraceConfig::tiny()).next().unwrap();
        cas.put_epoch(snap.epoch.0, &snap.to_bytes()).unwrap();
        let stored = cas.dfs().read(&cas.manifest_path(snap.epoch.0)).unwrap();
        codecs::SevenzLite::default().decompress(&stored).unwrap()
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

    fn layout_mut(m: &mut EpochManifest) -> (&mut Vec<u8>, &mut Vec<TableLayout>) {
        match &mut m.layout {
            Layout::Columnar { header, tables } => (header, tables),
            Layout::Blob => panic!("a snapshot chunks columnar"),
        }
    }

    /// The header lines `to_bytes` writes are a tag byte each; any other
    /// line is spelt out, and both come back as they were.
    #[test]
    fn header_lines_round_trip_written_or_spelt_out() {
        let written = sample_manifest();
        let mut spelt = written.clone();
        let (header, tables) = layout_mut(&mut spelt);
        header.splice(9..9, *b" ");
        tables[1].header.splice(6..6, *b" ");
        // Each spelt-out line costs itself and a length byte.
        let cost = header.len() + 1 + tables[1].header.len() + 1;
        assert_eq!(EpochManifest::decode(&spelt.encode()).unwrap(), spelt);
        assert_eq!(spelt.encode().len(), written.encode().len() + cost);

        // A third section has no line to write: its tag must say so.
        let mut third = written.clone();
        let line = b"#TABLE CELL rows=0 cols=1\n";
        layout_mut(&mut third).1.push(TableLayout {
            header: line.to_vec(),
            rows: 0,
            constant: vec![false],
        });
        let mut bytes = third.encode();
        assert_eq!(EpochManifest::decode(&bytes).unwrap(), third);
        // ... tag, length, line.
        let at = bytes.windows(line.len()).position(|w| w == line).unwrap();
        let tag = at - 2;
        assert_eq!(bytes[tag], 1);
        bytes[tag] = 0;
        assert!(EpochManifest::decode(&bytes).is_err());
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
            Err(CasError::Corrupt(why)) => assert!(why.contains("past the inline"), "{why}"),
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
        assert_eq!(m.units.len(), m.layout.unit_count());
        assert!(
            m.constants.len() > m.inline.len(),
            "repeated constants share a value"
        );
        let mut distinct = m.inline.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), m.inline.len());
    }

    /// No prefix of a manifest decodes, and no single changed byte makes
    /// `decode` panic (overflow checks on in debug, wrapping in release):
    /// it is refused, or — a hash byte, an inline byte, a row count — it
    /// is another well-formed manifest whose every ref resolves.
    #[test]
    fn every_prefix_and_every_byte_flip_of_a_real_manifest_is_handled() {
        let bytes = real_manifest_bytes();
        for cut in 0..bytes.len() {
            assert!(EpochManifest::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
        let mut refused = 0usize;
        for at in 0..bytes.len() {
            for xor in [0x01u8, 0x10, 0x80, 0xFF] {
                let mut flipped = bytes.clone();
                flipped[at] ^= xor;
                match EpochManifest::decode(&flipped) {
                    Err(CasError::Corrupt(_)) => refused += 1,
                    Err(e) => panic!("at {at}: unexpected error class {e}"),
                    Ok(m) => {
                        let resolve = |&r: &u32| (r as usize) < m.inline.len();
                        assert!(m.constants.iter().all(resolve), "at {at}");
                        assert_eq!(m.layout.unit_count(), m.units.len(), "at {at}");
                        assert_eq!(m.layout.constant_count(), m.constants.len(), "at {at}");
                    }
                }
            }
        }
        assert!(refused > bytes.len(), "structure bytes must be checked");
    }

    #[test]
    fn the_old_magics_are_corrupt() {
        // A `CASMF1` … `CASMF4` image (no inline table; no unit per chunk;
        // a pack table; an entry per piece): refused on its magic,
        // whatever follows.
        for magic in [b"CASMF1", b"CASMF2", b"CASMF3", b"CASMF4"] {
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
