//! Snapshots: the 30-minute batches of CDR + NMS records that stream into
//! SPATE, and their text wire format (what the storage layer compresses).

use crate::record::Record;
use crate::schema::{cdr, nms};
use crate::time::EpochId;
use std::fmt;

/// One ingestion batch `d_i`: all user and network activity of one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub epoch: EpochId,
    pub cdr: Vec<Record>,
    pub nms: Vec<Record>,
}

/// Error parsing a serialized snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotParseError {
    MissingHeader,
    BadHeader(String),
    BadTableHeader(String),
    BadRow { table: &'static str, line: usize },
    RowCountMismatch { table: &'static str },
}

impl fmt::Display for SnapshotParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotParseError::MissingHeader => write!(f, "missing snapshot header"),
            SnapshotParseError::BadHeader(s) => write!(f, "bad snapshot header: {s}"),
            SnapshotParseError::BadTableHeader(s) => write!(f, "bad table header: {s}"),
            SnapshotParseError::BadRow { table, line } => {
                write!(f, "bad {table} row at line {line}")
            }
            SnapshotParseError::RowCountMismatch { table } => {
                write!(f, "{table} row count mismatch")
            }
        }
    }
}

impl std::error::Error for SnapshotParseError {}

impl Snapshot {
    pub fn new(epoch: EpochId, cdr: Vec<Record>, nms: Vec<Record>) -> Self {
        Self { epoch, cdr, nms }
    }

    pub fn total_records(&self) -> usize {
        self.cdr.len() + self.nms.len()
    }

    /// Serialize to the text wire format:
    ///
    /// ```text
    /// #SNAPSHOT epoch=<n> ts=<YYYYMMDDhhmm>
    /// #TABLE CDR rows=<n> cols=200
    /// <csv rows>
    /// #TABLE NMS rows=<n> cols=8
    /// <csv rows>
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        // Rough size estimate: CDR rows are wide (~200 cols), NMS narrow.
        let mut out = String::with_capacity(self.cdr.len() * 320 + self.nms.len() * 64 + 128);
        out.push_str(&format!(
            "#SNAPSHOT epoch={} ts={}\n",
            self.epoch.0,
            self.epoch.civil().compact()
        ));
        out.push_str(&format!(
            "#TABLE CDR rows={} cols={}\n",
            self.cdr.len(),
            cdr::WIDTH
        ));
        for r in &self.cdr {
            r.to_line(&mut out);
        }
        out.push_str(&format!(
            "#TABLE NMS rows={} cols={}\n",
            self.nms.len(),
            nms::WIDTH
        ));
        for r in &self.nms {
            r.to_line(&mut out);
        }
        out.into_bytes()
    }

    /// Parse the wire format back into a snapshot: one UTF-8 validation
    /// of the buffer, then one pass over its bytes. Lines end at `\n` or
    /// `\r\n`; anything after the NMS table is ignored.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotParseError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| SnapshotParseError::BadHeader("not utf-8".into()))?;
        let mut lines = Lines {
            text,
            pos: 0,
            line_no: 0,
        };

        let header = lines.next_line().ok_or(SnapshotParseError::MissingHeader)?;
        let epoch = header_value(header, "epoch")
            .filter(|_| header.starts_with("#SNAPSHOT"))
            .ok_or_else(|| SnapshotParseError::BadHeader(header.to_string()))?;

        let cdr_rows = lines.read_table("CDR", cdr::WIDTH)?;
        let nms_rows = lines.read_table("NMS", nms::WIDTH)?;
        Ok(Snapshot::new(EpochId(epoch), cdr_rows, nms_rows))
    }
}

/// Cursor over the lines of a serialized snapshot.
struct Lines<'a> {
    text: &'a str,
    /// Offset of the next unread line.
    pos: usize,
    /// Lines consumed so far (= the 1-based number of the last one).
    line_no: usize,
}

impl<'a> Lines<'a> {
    /// The next line, without its terminator (used for the header lines;
    /// rows go through [`Record::parse_row`]).
    fn next_line(&mut self) -> Option<&'a str> {
        let rest = &self.text[self.pos..];
        if rest.is_empty() {
            return None;
        }
        self.line_no += 1;
        let Some(n) = rest.find('\n') else {
            self.pos = self.text.len();
            return Some(rest);
        };
        self.pos += n + 1;
        let line = &rest[..n];
        Some(line.strip_suffix('\r').unwrap_or(line))
    }

    /// A `#TABLE <name> rows=<n> cols=<width>` line and its `n` rows.
    fn read_table(
        &mut self,
        name: &'static str,
        width: usize,
    ) -> Result<Vec<Record>, SnapshotParseError> {
        let th = self
            .next_line()
            .ok_or_else(|| SnapshotParseError::BadTableHeader("missing".into()))?;
        let bad_header = || SnapshotParseError::BadTableHeader(th.to_string());
        let mut words = th.split_whitespace();
        if words.next() != Some("#TABLE")
            || words.next() != Some(name)
            || header_value(th, "cols") != Some(width)
        {
            return Err(bad_header());
        }
        let rows: u32 = header_value(th, "rows").ok_or_else(bad_header)?;

        // `rows` is untrusted: reserve no more than the rest of the input
        // can hold (a row is at least `width` bytes, terminator included,
        // except that the last line may lack its `\n`).
        let fits = (self.text.len() - self.pos) / width + 1;
        let mut records = Vec::with_capacity((rows as usize).min(fits));
        for _ in 0..rows {
            if self.pos == self.text.len() {
                return Err(SnapshotParseError::RowCountMismatch { table: name });
            }
            self.line_no += 1;
            let (record, next) = Record::parse_row(self.text, self.pos, width).ok_or(
                SnapshotParseError::BadRow {
                    table: name,
                    line: self.line_no,
                },
            )?;
            records.push(record);
            self.pos = next;
        }
        Ok(records)
    }
}

/// The value of the first `key=<value>` word of a header line.
fn header_value<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    line.split_whitespace()
        .find_map(|word| word.strip_prefix(key)?.strip_prefix('='))?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Value;

    fn tiny_snapshot() -> Snapshot {
        let mut cdr_row = vec![Value::Null; cdr::WIDTH];
        cdr_row[cdr::RECORD_ID] = Value::Int(1);
        cdr_row[cdr::UPFLUX] = Value::Int(1234);
        let mut nms_row = vec![Value::Null; nms::WIDTH];
        nms_row[nms::CELL_ID] = Value::Int(7);
        nms_row[nms::CALL_DROPS] = Value::Int(2);
        Snapshot::new(
            EpochId(31),
            vec![Record::new(cdr_row)],
            vec![Record::new(nms_row.clone()), Record::new(nms_row)],
        )
    }

    #[test]
    fn wire_round_trip() {
        let snap = tiny_snapshot();
        let bytes = snap.to_bytes();
        let parsed = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.epoch, snap.epoch);
        assert_eq!(parsed.cdr.len(), 1);
        assert_eq!(parsed.nms.len(), 2);
        assert_eq!(parsed.cdr[0].get(cdr::UPFLUX).as_i64(), Some(1234));
        assert_eq!(parsed.nms[0].get(nms::CELL_ID).as_i64(), Some(7));
    }

    #[test]
    fn header_contains_compact_timestamp() {
        let bytes = tiny_snapshot().to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(
            text.starts_with("#SNAPSHOT epoch=31 ts=201601181530\n"),
            "{text}"
        );
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot::new(EpochId(0), vec![], vec![]);
        let parsed = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Snapshot::from_bytes(b"").is_err());
        assert!(Snapshot::from_bytes(b"garbage\n").is_err());
        assert!(Snapshot::from_bytes(b"#SNAPSHOT epoch=xyz ts=0\n").is_err());
        // Declared rows missing.
        let text = "#SNAPSHOT epoch=1 ts=0\n#TABLE CDR rows=5 cols=200\n";
        assert_eq!(
            Snapshot::from_bytes(text.as_bytes()),
            Err(SnapshotParseError::RowCountMismatch { table: "CDR" })
        );
        // Row with wrong arity.
        let text = "#SNAPSHOT epoch=1 ts=0\n#TABLE CDR rows=1 cols=200\na,b,c\n";
        assert!(matches!(
            Snapshot::from_bytes(text.as_bytes()),
            Err(SnapshotParseError::BadRow { table: "CDR", .. })
        ));
    }

    #[test]
    fn total_records_counts_both_tables() {
        assert_eq!(tiny_snapshot().total_records(), 3);
    }

    #[test]
    fn error_display() {
        let e = SnapshotParseError::BadRow {
            table: "NMS",
            line: 3,
        };
        assert!(e.to_string().contains("NMS"));
        assert!(e.to_string().contains('3'));
    }
}
