//! Epoch manifests and the Merkle rollup.
//!
//! An epoch's *manifest* is what the rest of the warehouse sees of it: a
//! compact binary record naming the hash of the epoch's own pack, every
//! piece of the snapshot by content hash, where it lies in that pack (unit,
//! offset, length) and how to reassemble the original bytes. A piece no
//! longer than a content address is not named but carried: the manifest
//! holds its bytes (see [`INLINE_MAX`]).
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
/// spelt out) and `CASMF3` (a table of shared packs: a pack index per
/// chunk) are refused: no image outlives the process that wrote it.
pub const MANIFEST_MAGIC: &[u8; 6] = b"CASMF4";

/// Longest piece a manifest carries inline instead of addressing: a piece
/// no longer than its own address. Naming it by hash would spend at least
/// as many bytes as the piece. An inline piece has no hash, no chunk
/// entry and no place in the pack; the manifest's
/// own hash — the epoch's Merkle leaf, verified before decode —
/// authenticates it (identity addressing, as IPFS does for tiny blocks).
pub const INLINE_MAX: usize = ChunkHash::LEN;

/// One chunk of the epoch's pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Content address of the (uncompressed) piece bytes.
    pub hash: ChunkHash,
    /// Which of the pack's units (see [`crate::pack`]) holds the piece.
    /// The manifest does not know how many units a pack has: a reader
    /// checks the index against the pack it opened.
    pub unit: u32,
    /// Byte offset in that unit's inflated bytes.
    pub offset: u64,
    /// Piece length in bytes.
    pub len: u64,
}

/// The content-addressed description of one stored epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochManifest {
    pub epoch: u32,
    /// Length of the reassembled payload, verified on read.
    pub raw_len: u64,
    pub layout: Layout,
    /// Address of the epoch's own pack: there is one exactly when there
    /// are chunks, and it holds every one of them.
    pub pack: Option<ChunkHash>,
    /// The chunks, in piece order.
    pub chunks: Vec<ChunkEntry>,
    /// Unique inline pieces (each at most [`INLINE_MAX`] bytes), first-use
    /// order.
    pub inline: Vec<Vec<u8>>,
    /// One entry per layout piece, over one index space: below
    /// `chunks.len()` an index into [`Self::chunks`], from there on into
    /// [`Self::inline`] (see [`Self::piece`]). A repeated index is an
    /// inline value the epoch uses again.
    pub refs: Vec<u32>,
}

/// What one entry of [`EpochManifest::refs`] resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Piece<'a> {
    /// Bytes of a pack, addressed and verified by hash.
    Chunk(&'a ChunkEntry),
    /// Bytes the manifest carries itself.
    Inline(&'a [u8]),
}

impl EpochManifest {
    /// The piece a ref names; `None` past both tables (never for a ref of
    /// a decoded manifest).
    pub fn piece(&self, r: u32) -> Option<Piece<'_>> {
        let r = r as usize;
        match self.chunks.get(r) {
            Some(chunk) => Some(Piece::Chunk(chunk)),
            None => self
                .inline
                .get(r - self.chunks.len())
                .map(|bytes| Piece::Inline(bytes)),
        }
    }

    /// Deterministic binary encoding (varints + raw hashes).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.chunks.len() * 24 + self.refs.len() * 2);
        out.extend_from_slice(MANIFEST_MAGIC);
        varint::write_u32(&mut out, self.epoch);
        varint::write_u64(&mut out, self.raw_len);
        varint::write_u64(&mut out, self.chunks.len() as u64);
        if !self.chunks.is_empty() {
            let pack = self.pack.expect("chunks lie in a pack");
            out.extend_from_slice(&pack.0);
        }
        for c in &self.chunks {
            out.extend_from_slice(&c.hash.0);
            varint::write_u32(&mut out, c.unit);
            varint::write_u64(&mut out, c.offset);
            varint::write_u64(&mut out, c.len);
        }
        varint::write_u64(&mut out, self.inline.len() as u64);
        for bytes in &self.inline {
            varint::write_u64(&mut out, bytes.len() as u64);
            out.extend_from_slice(bytes);
        }
        varint::write_u64(&mut out, self.refs.len() as u64);
        for &r in &self.refs {
            varint::write_u32(&mut out, r);
        }
        encode_layout(&mut out, &self.layout, self.epoch);
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
        let n_chunks = read_count(bytes, &mut pos, "chunks")?;
        let pack = match n_chunks {
            0 => None,
            _ => Some(read_hash(bytes, &mut pos)?),
        };
        let mut chunks = Vec::with_capacity(n_chunks.min(MAX_PREALLOC));
        for _ in 0..n_chunks {
            let hash = read_hash(bytes, &mut pos)?;
            let unit = varint::read_u32(bytes, &mut pos).map_err(|_| corrupt("chunk unit"))?;
            let offset = varint::read_u64(bytes, &mut pos).map_err(|_| corrupt("chunk offset"))?;
            let len = varint::read_u64(bytes, &mut pos).map_err(|_| corrupt("chunk len"))?;
            chunks.push(ChunkEntry {
                hash,
                unit,
                offset,
                len,
            });
        }
        let n_inline = read_count(bytes, &mut pos, "inline pieces")?;
        let mut inline = Vec::with_capacity(n_inline.min(MAX_PREALLOC));
        for _ in 0..n_inline {
            let piece = read_bytes(bytes, &mut pos, "inline piece")?;
            if piece.len() > INLINE_MAX {
                return Err(corrupt("inline piece longer than an address"));
            }
            inline.push(piece);
        }
        let n_refs = read_count(bytes, &mut pos, "refs")?;
        let mut refs = Vec::with_capacity(n_refs.min(MAX_PREALLOC));
        for _ in 0..n_refs {
            let r = varint::read_u32(bytes, &mut pos).map_err(|_| corrupt("ref"))?;
            if r as usize >= chunks.len() + inline.len() {
                return Err(corrupt("ref out of range"));
            }
            refs.push(r);
        }
        let layout = decode_layout(bytes, &mut pos, epoch)?;
        if pos != bytes.len() {
            return Err(corrupt("trailing bytes"));
        }
        if layout.piece_count() != refs.len() {
            return Err(corrupt("layout/ref count mismatch"));
        }
        Ok(Self {
            epoch,
            raw_len,
            layout,
            pack,
            chunks,
            inline,
            refs,
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
        Layout::Blob { n_pieces } => {
            out.push(0);
            varint::write_u32(out, *n_pieces);
        }
        Layout::Columnar { header, tables } => {
            out.push(1);
            let as_written = Snapshot::header_line(EpochId(epoch));
            encode_header(out, header, header == as_written.as_bytes());
            varint::write_u64(out, tables.len() as u64);
            for (section, t) in tables.iter().enumerate() {
                varint::write_u32(out, t.rows);
                varint::write_u32(out, t.cols);
                encode_header(out, &t.header, t.is_as_written(section));
                // LSB-tagged piece counts: a normal count n encodes as
                // n << 1; the CONSTANT_COL sentinel encodes as 1. Tables
                // hold dozens of constant columns per epoch, so spending
                // one byte instead of a five-byte u32::MAX varint on each
                // is a measurable share of total manifest weight.
                for &n in &t.pieces_per_col {
                    let tagged = if n == chunker::CONSTANT_COL {
                        1
                    } else {
                        (n as u64) << 1
                    };
                    varint::write_u64(out, tagged);
                }
            }
        }
    }
}

fn decode_layout(bytes: &[u8], pos: &mut usize, epoch: u32) -> Result<Layout, CasError> {
    let corrupt = |what: &str| CasError::Corrupt(format!("manifest layout: {what}"));
    let tag = *bytes.get(*pos).ok_or_else(|| corrupt("missing tag"))?;
    *pos += 1;
    match tag {
        0 => {
            let n = varint::read_u32(bytes, pos).map_err(|_| corrupt("blob pieces"))?;
            Ok(Layout::Blob { n_pieces: n })
        }
        1 => {
            let header = decode_header(bytes, pos, || Some(Snapshot::header_line(EpochId(epoch))))?;
            let n_tables = read_count(bytes, pos, "tables")?;
            let mut tables = Vec::with_capacity(n_tables.min(MAX_PREALLOC));
            for section in 0..n_tables {
                let rows = varint::read_u32(bytes, pos).map_err(|_| corrupt("rows"))?;
                let cols = varint::read_u32(bytes, pos).map_err(|_| corrupt("cols"))?;
                if cols as usize > MAX_ITEMS {
                    return Err(corrupt("cols too big"));
                }
                let theader = decode_header(bytes, pos, || {
                    let kind = *chunker::SNAPSHOT_SECTIONS.get(section)?;
                    Some(Snapshot::table_header_line(kind, rows as usize))
                })?;
                let mut pieces_per_col = Vec::with_capacity((cols as usize).min(MAX_PREALLOC));
                for _ in 0..cols {
                    let tagged =
                        varint::read_u64(bytes, pos).map_err(|_| corrupt("piece count"))?;
                    let n = if tagged == 1 {
                        chunker::CONSTANT_COL
                    } else if tagged & 1 == 0 && (tagged >> 1) < u64::from(u32::MAX) {
                        (tagged >> 1) as u32
                    } else {
                        return Err(corrupt("piece count tag"));
                    };
                    pieces_per_col.push(n);
                }
                tables.push(TableLayout {
                    header: theader,
                    rows,
                    cols,
                    pieces_per_col,
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
    use crate::chunker::{split, Chunking};
    use telco_trace::{TraceConfig, TraceGenerator};

    fn sample_manifest() -> EpochManifest {
        let snap = TraceGenerator::new(TraceConfig::tiny()).next().unwrap();
        let raw = snap.to_bytes();
        let (layout, pieces) = split(&raw, &Chunking::default());
        let chunks: Vec<ChunkEntry> = pieces
            .iter()
            .scan(0u64, |off, p| {
                let e = ChunkEntry {
                    hash: ChunkHash::of(p),
                    unit: 0,
                    offset: *off,
                    len: p.len() as u64,
                };
                *off += p.len() as u64;
                Some(e)
            })
            .collect();
        let refs = (0..chunks.len() as u32).collect();
        EpochManifest {
            epoch: snap.epoch.0,
            raw_len: raw.len() as u64,
            layout,
            pack: Some(ChunkHash::of(b"pack")),
            chunks,
            inline: Vec::new(),
            refs,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let m = sample_manifest();
        let bytes = m.encode();
        assert_eq!(EpochManifest::decode(&bytes).unwrap(), m);
        // Determinism: two encodes agree byte for byte.
        assert_eq!(bytes, m.encode());
    }

    fn layout_mut(m: &mut EpochManifest) -> (&mut Vec<u8>, &mut Vec<TableLayout>) {
        match &mut m.layout {
            Layout::Columnar { header, tables } => (header, tables),
            Layout::Blob { .. } => panic!("a snapshot chunks columnar"),
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
            cols: 1,
            pieces_per_col: vec![0],
        });
        let mut bytes = third.encode();
        assert_eq!(EpochManifest::decode(&bytes).unwrap(), third);
        // ... tag, length, line, one piece count.
        let tag = bytes.len() - 1 - line.len() - 1 - 1;
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
        m.refs[0] = m.chunks.len() as u32;
        assert!(EpochManifest::decode(&m.encode()).is_err());
        // One inline piece moves the limit by one.
        m.inline.push(b"0\n".to_vec());
        assert_eq!(EpochManifest::decode(&m.encode()).unwrap(), m);
        assert_eq!(m.piece(m.refs[0]), Some(Piece::Inline(b"0\n")));
        m.refs[0] += 1;
        assert!(EpochManifest::decode(&m.encode()).is_err());
    }

    /// The encoded manifest of a stored snapshot: chunks, inline pieces
    /// and a columnar layout, as `put_epoch` lays them out.
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

    #[test]
    fn a_real_manifest_carries_its_small_pieces_inline() {
        let m = EpochManifest::decode(&real_manifest_bytes()).unwrap();
        assert!(!m.inline.is_empty(), "constant columns are a few bytes");
        assert!(m.inline.iter().all(|p| p.len() <= INLINE_MAX));
        assert!(m.chunks.iter().all(|c| c.len > INLINE_MAX as u64));
        assert!(m.pack.is_some(), "a tiny epoch still has chunks");
        // Every chunk is used once: a piece that is not inline is stored.
        let chunk_refs = m.refs.iter().filter(|&&r| (r as usize) < m.chunks.len());
        assert_eq!(chunk_refs.count(), m.chunks.len());
    }

    /// No prefix of a manifest decodes, and no single changed byte makes
    /// `decode` panic (overflow checks on in debug, wrapping in release):
    /// it is refused, or — a hash byte, an inline byte, an offset — it is
    /// another well-formed manifest whose every ref resolves.
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
                        assert!(m.refs.iter().all(|&r| m.piece(r).is_some()), "at {at}");
                        assert_eq!(m.layout.piece_count(), m.refs.len(), "at {at}");
                    }
                }
            }
        }
        assert!(refused > bytes.len(), "structure bytes must be checked");
    }

    #[test]
    fn an_overlong_inline_piece_and_the_old_magics_are_corrupt() {
        let mut m = sample_manifest();
        m.inline.push(vec![b'7'; INLINE_MAX]);
        assert_eq!(EpochManifest::decode(&m.encode()).unwrap(), m);
        m.inline[0].push(b'7');
        match EpochManifest::decode(&m.encode()) {
            Err(CasError::Corrupt(why)) => assert!(why.contains("inline piece longer"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A `CASMF1`, `CASMF2` or `CASMF3` image (no inline table; no unit
        // per chunk; a pack table): refused on its magic, whatever follows.
        for magic in [b"CASMF1", b"CASMF2", b"CASMF3"] {
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
