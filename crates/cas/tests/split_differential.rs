//! Differential test of `chunker::split`.
//!
//! `src/chunker.rs` walks the text once: no vector of lines, fields
//! appended straight to pre-sized column streams, a constant column
//! noticed while it is transposed. The splitter it replaced — a `Vec` of
//! lines, 200 growing column `Vec`s, a second scan per column for
//! constants — lives on here as the reference, its parse kept verbatim
//! and its piece cutting reduced to the one rule: the varying columns of
//! a table are one run. Pieces are what the store hashes and packs, so
//! the two must agree on the layout and on every piece byte, for
//! snapshots and for everything that is not quite one (each falls back to
//! a blob, or not, in both).

use cas::chunker::{assemble, split, Chunking};
use proptest::prelude::*;
use telco_trace::{TraceConfig, TraceGenerator};

/// The splitter the repo shipped before the one-pass one.
mod reference {
    use cas::chunker::{Layout, TableLayout};

    /// Split `raw` into pieces plus the layout that reassembles them.
    /// Columnar when the bytes parse as the snapshot wire format, blob
    /// otherwise. `assemble(split(raw)) == raw` for any input.
    pub fn split(raw: &[u8]) -> (Layout, Vec<Vec<u8>>) {
        try_split_columnar(raw).unwrap_or_else(|| (Layout::Blob, vec![raw.to_vec()]))
    }

    fn try_split_columnar(raw: &[u8]) -> Option<(Layout, Vec<Vec<u8>>)> {
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
        Some((Layout::Columnar { header, tables }, runs))
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

fn assert_same(raw: &[u8]) {
    let want = reference::split(raw);
    let got = split(raw, &Chunking);
    assert!(
        got == want,
        "split differs from the reference on {:?}",
        String::from_utf8_lossy(&raw[..raw.len().min(300)])
    );
    assert!(
        assemble(&got.0, &got.1).as_deref() == Ok(raw),
        "not lossless"
    );
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
fn generated_snapshots_split_identically() {
    for snapshot in TraceGenerator::new(TraceConfig::tiny()).step_by(7).take(6) {
        assert_same(&snapshot.to_bytes());
    }
    let busy = TraceGenerator::new(TraceConfig::scaled(1.0 / 64.0))
        .nth(24)
        .unwrap();
    assert_same(&busy.to_bytes());
}

#[test]
fn every_small_shape_splits_identically() {
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
fn counts_that_lie_fall_back_identically() {
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
/// a small snapshot: each result is columnar or a blob in both.
#[test]
fn damage_at_every_byte_falls_back_identically() {
    let raw = framed(&[(3, 4, table(3, 4, 1)), (2, 2, table(2, 2, 3))]);
    for at in 0..raw.len() {
        let mut cut = raw.clone();
        cut.remove(at);
        assert_same(&cut);
        assert_same(&raw[..at]);
        for byte in [b',', b'\n', b'#', b'0', b'\r', 0xFF] {
            let mut swapped = raw.clone();
            swapped[at] = byte;
            assert_same(&swapped);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn small_alphabet_text_splits_identically(
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
    fn arbitrary_bytes_split_identically(raw in proptest::collection::vec(any::<u8>(), 0..600)) {
        assert_same(&raw);
    }
}
