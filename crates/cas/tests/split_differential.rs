//! Differential test of the one column image.
//!
//! An epoch's column image has one writer, `ColumnImage::of`, which
//! transposes a snapshot's records straight into constant flags, runs and
//! constant values, and `chunker::split` is that writer over a snapshot's
//! text: the text parsed, checked to be exactly what `Snapshot::to_bytes`
//! writes, then transposed. The splitter the repo shipped before either —
//! a `Vec` of lines, 200 growing column `Vec`s, a second scan per column
//! for constants — lives on here as the reference, its parse kept
//! verbatim and its piece cutting reduced to the one rule: the varying
//! columns of a table are one run.
//!
//! - For a snapshot as `to_bytes` writes it, `split` gives the reference's
//!   layout and every piece byte. Anything else the reference would still
//!   chunk (any table name, any `cols=`, counts that lie, damage) is one
//!   blob unit now, as it stands: the store takes only `to_bytes` text, so
//!   nothing needs a generic multi-table chunker. `assemble(split(raw)) ==
//!   raw` for any input.
//! - `CasStore::put_snapshot(s)`, which writes no text, stores a manifest
//!   and a pack byte-equal to what the reference's pieces of
//!   `s.to_bytes()` make, packed and described as the store does it.
//! - `put_epoch` refuses what is not a snapshot as `to_bytes` writes it.

use cas::chunker::{assemble, split, Chunking, Layout, TableLayout};
use cas::{CasConfig, CasError, CasStore, ChunkHash, EpochManifest};
use dfs::Dfs;
use proptest::prelude::*;
use telco_trace::schema::{cdr, nms, TableKind};
use telco_trace::{EpochId, Record, Snapshot, TraceConfig, TraceGenerator, Value};

/// The splitter the repo shipped before the column image.
mod reference {
    /// One `#TABLE` section in columnar form.
    pub struct TableLayout {
        /// The `#TABLE ...` line, including its newline.
        pub header: Vec<u8>,
        pub rows: u32,
        pub constant: Vec<bool>,
    }

    /// A parsed snapshot-shaped text: its header line + one section per
    /// table, and its pieces (every run, then every constant value).
    pub struct Columnar {
        /// The `#SNAPSHOT ...` line, including its newline.
        pub header: Vec<u8>,
        pub tables: Vec<TableLayout>,
        pub pieces: Vec<Vec<u8>>,
    }

    /// `raw` chunked, when it parses as the snapshot wire format.
    pub fn split(raw: &[u8]) -> Option<Columnar> {
        if raw.is_empty() || *raw.last().unwrap() != b'\n' {
            return None;
        }
        // Every line below excludes its terminating newline.
        let lines: Vec<&[u8]> = raw[..raw.len() - 1].split(|&b| b == b'\n').collect();
        let header_line = *lines.first()?;
        if !header_line.starts_with(b"#SNAPSHOT ") {
            return None;
        }
        let mut header = header_line.to_vec();
        header.push(b'\n');

        let mut tables = Vec::new();
        let mut runs = Vec::new();
        let mut values = Vec::new();
        let mut i = 1;
        while i < lines.len() {
            let table_line = lines[i];
            if !table_line.starts_with(b"#TABLE ") {
                return None; // trailing junk: not the expected layout
            }
            let text = std::str::from_utf8(table_line).ok()?;
            let rows: u32 = parse_kv(text, "rows")?;
            let cols: u32 = parse_kv(text, "cols")?;
            if cols == 0 {
                return None;
            }
            i += 1;
            if lines.len() - i < rows as usize {
                return None;
            }
            // Transpose: column streams of newline-terminated values.
            let mut streams: Vec<Vec<u8>> = vec![Vec::new(); cols as usize];
            for r in 0..rows as usize {
                let mut fields = 0usize;
                for field in lines[i + r].split(|&b| b == b',') {
                    if fields >= cols as usize {
                        return None;
                    }
                    streams[fields].extend_from_slice(field);
                    streams[fields].push(b'\n');
                    fields += 1;
                }
                if fields != cols as usize {
                    return None;
                }
            }
            i += rows as usize;
            let mut table_header = table_line.to_vec();
            table_header.push(b'\n');
            // Constant columns (Fig. 4: ≥ 30 all-zero CDR columns) store one
            // value, replayed `rows` times on assembly; every other column
            // joins the table's run.
            let mut constant = vec![false; cols as usize];
            let mut run: Vec<u8> = Vec::new();
            for (c, stream) in streams.into_iter().enumerate() {
                if let Some(value) = constant_value(&stream, rows) {
                    constant[c] = true;
                    values.push(value);
                } else {
                    run.extend_from_slice(&stream);
                }
            }
            if !run.is_empty() {
                runs.push(run);
            }
            tables.push(TableLayout {
                header: table_header,
                rows,
                constant,
            });
        }
        if tables.is_empty() {
            return None;
        }
        runs.extend(values);
        Some(Columnar {
            header,
            tables,
            pieces: runs,
        })
    }

    /// If every row of `stream` holds the same value, return one copy of it
    /// (newline included). Requires at least two rows — a one-row column gains
    /// nothing from the constant encoding.
    fn constant_value(stream: &[u8], rows: u32) -> Option<Vec<u8>> {
        if rows < 2 {
            return None;
        }
        let first = &stream[..stream.iter().position(|&b| b == b'\n')? + 1];
        if first.len() * rows as usize == stream.len()
            && stream.chunks_exact(first.len()).all(|c| c == first)
        {
            Some(first.to_vec())
        } else {
            None
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
}

/// Whether `raw` is a snapshot as `Snapshot::to_bytes` writes it, with
/// no `\r` in a value (no text carries one and reads it back).
fn is_to_bytes_text(raw: &[u8]) -> bool {
    let parsed = Snapshot::from_bytes(raw);
    parsed.is_ok_and(|s| s.to_bytes() == raw) && !raw.contains(&b'\r')
}

/// `split` of `raw` is the reference's chunking when `raw` is `to_bytes`
/// text and one blob unit otherwise, and `assemble` gives `raw` back.
fn assert_same(raw: &[u8]) {
    let (layout, pieces) = split(raw, &Chunking);
    let shown = String::from_utf8_lossy(&raw[..raw.len().min(300)]);
    assert!(
        assemble(&layout, &pieces).as_deref() == Ok(raw),
        "not lossless: {shown:?}"
    );
    match (layout, is_to_bytes_text(raw)) {
        (Layout::Columnar { epoch, tables }, true) => {
            let want = reference::split(raw).expect("the reference chunks every snapshot");
            assert_eq!(
                want.header,
                Snapshot::header_line(EpochId(epoch)).as_bytes()
            );
            assert_eq!(want.tables.len(), tables.len());
            for ((want, table), kind) in want
                .tables
                .iter()
                .zip(&tables)
                .zip([TableKind::Cdr, TableKind::Nms])
            {
                let line = Snapshot::table_header_line(kind, table.rows as usize);
                assert_eq!(want.header, line.as_bytes());
                assert_eq!((want.rows, &want.constant), (table.rows, &table.constant));
            }
            assert!(
                pieces == want.pieces,
                "split differs from the reference on {shown:?}"
            );
        }
        (Layout::Blob, false) => assert_eq!(pieces, [raw]),
        (layout, _) => panic!("{layout:?} for {shown:?}"),
    }
}

/// A snapshot-shaped text: `tables` of (declared rows, declared cols,
/// row lines).
fn framed(tables: &[(u32, u32, Vec<String>)]) -> Vec<u8> {
    let mut out = String::from("#SNAPSHOT epoch=3 ts=201601180130\n");
    for (t, (rows, cols, lines)) in tables.iter().enumerate() {
        out.push_str(&format!("#TABLE T{t} rows={rows} cols={cols}\n"));
        for line in lines {
            out.push_str(line);
            out.push('\n');
        }
    }
    out.into_bytes()
}

/// `rows` lines of `cols` fields: column `c` is constant when `c % 3 == 0`,
/// narrow when `c % 3 == 1` and wide otherwise.
fn table(rows: usize, cols: usize, seed: usize) -> Vec<String> {
    (0..rows)
        .map(|r| {
            (0..cols)
                .map(|c| match c % 3 {
                    0 => String::from(if c % 2 == 0 { "0" } else { "" }),
                    1 => ((r * 7 + c + seed) % 10).to_string(),
                    _ => format!(
                        "wide-{:05}-{}",
                        (r * 31 + seed) % 977,
                        "x".repeat((r + c) % 9)
                    ),
                })
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

#[test]
fn generated_snapshots_split_as_the_reference_does() {
    for snapshot in TraceGenerator::new(TraceConfig::tiny()).step_by(7).take(6) {
        assert_same(&snapshot.to_bytes());
    }
    let busy = TraceGenerator::new(TraceConfig::scaled(1.0 / 64.0))
        .nth(24)
        .unwrap();
    assert_same(&busy.to_bytes());
}

/// Snapshot-shaped texts of any table name and width: the reference
/// chunks them, `split` keeps each as a blob.
#[test]
fn every_small_shape_is_a_blob() {
    for rows in [0usize, 1, 2, 3, 5, 9, 70] {
        for cols in [1usize, 2, 3, 4, 7] {
            let one = (rows as u32, cols as u32, table(rows, cols, 1));
            assert_same(&framed(std::slice::from_ref(&one)));
            let other = (2, 3, table(2, 3, 5));
            assert_same(&framed(&[one.clone(), other.clone()]));
            assert_same(&framed(&[other, one]));
        }
    }
    // Constant columns of every width, a one-row table (constant to the
    // flag, not to the layout), empty fields only.
    assert_same(&framed(&[(3, 3, vec![",,".into(); 3])]));
    assert_same(&framed(&[(1, 4, vec!["0,0,0,0".into()])]));
    assert_same(&framed(&[(4, 2, vec!["constant-and-long,7".into(); 4])]));
    // A value that is a prefix of the first, and one the first is a prefix of.
    assert_same(&framed(&[(
        3,
        1,
        vec!["ab".into(), "a".into(), "ab".into()],
    )]));
    assert_same(&framed(&[(
        3,
        1,
        vec!["a".into(), "ab".into(), "a".into()],
    )]));
}

#[test]
fn counts_that_lie_are_a_blob() {
    let lines = table(6, 4, 2);
    for rows in [0u32, 1, 5, 6, 7, 1000, u32::MAX] {
        for cols in [0u32, 1, 3, 4, 5, 1000] {
            assert_same(&framed(&[(rows, cols, lines.clone())]));
            assert_same(&framed(&[
                (rows, cols, lines.clone()),
                (2, 3, table(2, 3, 0)),
            ]));
        }
    }
    // A table that claims more rows than there is text, sized from nothing.
    assert_same(&framed(&[(u32::MAX, 200, vec![])]));
    assert_same(b"#SNAPSHOT epoch=0 ts=0\n#TABLE CDR rows=x cols=2\n");
    assert_same(b"#SNAPSHOT epoch=0 ts=0\n#TABLE CDR cols=2\n");
    assert_same(b"#SNAPSHOT epoch=0 ts=0\n#TABLE CDR rows=1 cols=2\n\xff,\xfe\n");
    assert_same(b"#SNAPSHOT epoch=0 ts=0\n#TABLE \xff rows=0 cols=2\n");
    assert_same(b"#SNAPSHOT epoch=0 ts=0\n");
    assert_same(b"#SNAPSHOT epoch=0 ts=0");
    assert_same(b"#SNAPSHOT\n#TABLE CDR rows=0 cols=2\n");
    assert_same(b"\n");
    assert_same(b"");
}

/// Every single-byte deletion and a few replacements at every position of
/// a small snapshot-shaped text, and of a small snapshot as `to_bytes`
/// writes it: each result is the reference's chunking or a blob.
#[test]
fn damage_at_every_byte_is_the_reference_or_a_blob() {
    let shaped = framed(&[(3, 4, table(3, 4, 1)), (2, 2, table(2, 2, 3))]);
    let nms_rows = (0..3).map(|r| value_row(nms::WIDTH, r)).collect();
    let snapshot = Snapshot::new(EpochId(5), Vec::new(), nms_rows).to_bytes();
    for raw in [shaped, snapshot] {
        damage_every_byte(&raw);
    }
}

fn damage_every_byte(raw: &[u8]) {
    for at in 0..raw.len() {
        let mut cut = raw.to_vec();
        cut.remove(at);
        assert_same(&cut);
        assert_same(&raw[..at]);
        for byte in [b',', b'\n', b'#', b'0', b'\r', 0xFF] {
            let mut swapped = raw.to_vec();
            swapped[at] = byte;
            assert_same(&swapped);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn small_alphabet_text_is_the_reference_or_a_blob(
        body in proptest::collection::vec(0usize..6, 0..400),
        rows in 0u32..12,
        cols in 0u32..6,
    ) {
        let body: Vec<u8> = body.iter().map(|&i| b"0a,,\n\n"[i]).collect();
        let mut raw = format!("#SNAPSHOT epoch=1 ts=0\n#TABLE CDR rows={rows} cols={cols}\n").into_bytes();
        raw.extend_from_slice(&body);
        assert_same(&raw);
        raw.push(b'\n');
        assert_same(&raw);
    }

    #[test]
    fn arbitrary_bytes_are_the_reference_or_a_blob(raw in proptest::collection::vec(any::<u8>(), 0..600)) {
        assert_same(&raw);
    }
}

/// Row `r` of a `width`-column table holding every kind of value: blank,
/// text, negative and extreme integers, negative and fractional floats,
/// each kind varying down the rows in some columns and constant in others.
fn value_row(width: usize, r: usize) -> Record {
    let i = r as i64;
    let value = |c: usize| match c % 11 {
        0 => Value::Null,
        1 => Value::Str(format!("cell-{}", r % 3).as_str().into()),
        2 => Value::Str("LTE".into()),
        3 => Value::Str("".into()),
        4 => Value::Int(-1_000_003 * i),
        5 => Value::Int(i64::MIN + i),
        6 => Value::Int(i64::MAX),
        7 => Value::Float(-1.375 + 0.5 * r as f64),
        8 => Value::Float(-0.004),
        9 => Value::Float(0.125 * c as f64),
        _ => Value::Int(c as i64 - 5),
    };
    Record::new((0..width).map(value).collect())
}

/// The pack and the manifest file the store writes for the reference's
/// pieces of `raw`, the text of the snapshot of `epoch`: each run
/// compressed on its own into the pack, each distinct constant value
/// carried once, the manifest encoded and compressed.
fn reference_files(epoch: u32, raw: &[u8]) -> (Option<Vec<u8>>, Vec<u8>) {
    let codec = CasConfig::default().codec;
    let chunked = reference::split(raw).expect("the reference chunks every snapshot");
    let tables = chunked.tables.into_iter().map(|t| TableLayout {
        rows: t.rows,
        constant: t.constant,
    });
    let tables: [TableLayout; 2] = tables.collect::<Vec<_>>().try_into().expect("two tables");
    let n_units = tables.iter().filter(|t| t.has_run()).count();
    let (units, values) = chunked.pieces.split_at(n_units);
    let streams: Vec<Vec<u8>> = units.iter().map(|unit| codec.compress(unit)).collect();
    let pack = (!streams.is_empty()).then(|| cas::pack::encode(&streams));
    let mut inline: Vec<Vec<u8>> = Vec::new();
    let constants = values
        .iter()
        .map(|value| match inline.iter().position(|v| v == value) {
            Some(at) => at as u32,
            None => {
                inline.push(value.clone());
                inline.len() as u32 - 1
            }
        });
    let constants = constants.collect();
    let manifest = EpochManifest {
        epoch,
        raw_len: raw.len() as u64,
        tables,
        pack: pack.as_deref().map(ChunkHash::of),
        units: units.iter().map(|unit| ChunkHash::of(unit)).collect(),
        inline,
        constants,
    };
    (pack, codec.compress(&manifest.encode()))
}

/// `put_snapshot(s)`, which writes no text, and `put_epoch` of
/// `s.to_bytes()` each store the very files the reference makes of that
/// text, and read back as it.
fn assert_stored_as_the_reference(s: &Snapshot) {
    let raw = s.to_bytes();
    let (pack, manifest) = reference_files(s.epoch.0, &raw);
    let epoch = s.epoch.0;
    for put_text in [false, true] {
        let cas = CasStore::new(Dfs::in_memory(), CasConfig::default());
        let receipt = match put_text {
            false => cas.put_snapshot(s),
            true => cas.put_epoch(epoch, &raw),
        };
        assert_eq!(receipt.unwrap().raw_len, raw.len() as u64);
        let read = |path: String| {
            cas.dfs()
                .exists(&path)
                .then(|| cas.dfs().read(&path).unwrap())
        };
        let what = format!("epoch {epoch}, put from text: {put_text}");
        assert!(
            read(cas.manifest_path(epoch)) == Some(manifest.clone()),
            "manifest, {what}"
        );
        assert!(read(cas.pack_path(epoch)) == pack, "pack, {what}");
        assert!(cas.get_epoch(epoch).unwrap() == raw, "read back, {what}");
    }
}

#[test]
fn generated_epochs_are_stored_as_the_reference_stores_their_text() {
    for (scale, epochs) in [
        (1.0 / 512.0, vec![0, 18, 36]),
        (1.0 / 64.0, vec![3, 24]),
        (1.0 / 8.0, vec![24]),
    ] {
        let mut trace = TraceGenerator::new(TraceConfig::scaled(scale)).enumerate();
        for nth in epochs {
            let (_, snapshot) = trace.find(|(i, _)| *i == nth).unwrap();
            assert_stored_as_the_reference(&snapshot);
        }
    }
}

#[test]
fn empty_one_row_and_constant_tables_are_stored_as_the_reference_stores_their_text() {
    let rows = |width: usize, n: usize, constant: bool| {
        let row = |r: usize| value_row(width, if constant { 7 } else { r });
        (0..n).map(row).collect::<Vec<_>>()
    };
    for (cdr_rows, nms_rows, constant) in [
        (0, 0, false),
        (0, 1, false),
        (1, 0, false),
        (1, 1, false),
        (2, 0, true),
        (0, 5, true),
        (3, 4, true),
        (1, 3, true),
    ] {
        let s = Snapshot::new(
            EpochId(cdr_rows as u32 * 10 + nms_rows as u32),
            rows(cdr::WIDTH, cdr_rows, constant),
            rows(nms::WIDTH, nms_rows, constant),
        );
        assert_stored_as_the_reference(&s);
    }
}

#[test]
fn every_value_kind_is_stored_as_the_reference_stores_its_text() {
    let table = |width: usize| (0..7).map(|r| value_row(width, r)).collect();
    let s = Snapshot::new(EpochId(777), table(cdr::WIDTH), table(nms::WIDTH));
    let text = String::from_utf8(s.to_bytes()).unwrap();
    for kind in [
        "cell-2",
        "-6000018",
        "-9223372036854775803",
        "-0.00",
        "2.50",
    ] {
        assert!(text.contains(kind), "{kind}");
    }
    assert_stored_as_the_reference(&s);
}

/// One case a kind of text `put_epoch` refuses as not the snapshot of its
/// epoch as `to_bytes` writes it, before it writes a byte; `split` keeps
/// each as a blob.
#[test]
fn put_epoch_refuses_what_to_bytes_does_not_write() {
    let s = Snapshot::new(
        EpochId(5),
        (0..2).map(|r| value_row(cdr::WIDTH, r)).collect(),
        (0..3).map(|r| value_row(nms::WIDTH, r)).collect(),
    );
    let text = String::from_utf8(s.to_bytes()).unwrap();
    let ts = EpochId(5).civil().compact();
    let mut not_utf8 = text.clone().into_bytes();
    let nms_at = text.find("#TABLE NMS").unwrap();
    let value_at = nms_at + text[nms_at..].find("cell-").unwrap();
    not_utf8[value_at] = 0xFF;
    let refused: [(&str, Vec<u8>); 4] = [
        ("\\r\\n lines", text.replace('\n', "\r\n").into()),
        (
            "bytes after the NMS table",
            format!("{text}trailing\n").into(),
        ),
        ("a wrong ts=", text.replacen(&ts, "201601180000", 1).into()),
        ("a field that is not UTF-8", not_utf8),
    ];
    let cas = CasStore::new(Dfs::in_memory(), CasConfig::default());
    for (what, raw) in refused {
        assert!(
            Snapshot::from_bytes(&raw).map(|p| p.to_bytes()) != Ok(raw.clone()),
            "{what}"
        );
        match cas.put_epoch(5, &raw) {
            Err(CasError::Corrupt(why)) => assert!(why.contains("not the snapshot"), "{what}"),
            other => panic!("{what}: {other:?}"),
        }
        assert!(cas.dfs().list("/cas/").is_empty(), "{what}");
        assert_eq!(split(&raw, &Chunking).0, Layout::Blob, "{what}");
    }
    cas.put_epoch(5, text.as_bytes()).unwrap();
    assert_eq!(cas.get_epoch(5).unwrap(), text.as_bytes());
}
