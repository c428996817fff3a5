//! Relational records and their text wire format.
//!
//! Telco OSS/BSS data is "highly structured ... relational records based on
//! a predetermined schema ... mostly nominal text and interval-scaled
//! discrete numerical values" (paper §II-B). Records are serialized as
//! comma-separated lines, the format the paper's snapshots arrive in.

use crate::text::Text;
use std::borrow::Cow;
use std::fmt;

/// One attribute value. 24 bytes: a parsed snapshot holds one per field.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Optional attribute left blank (the zero-entropy columns of Fig. 4).
    Null,
    /// Nominal text (call types, results, technology tags, ids).
    Str(Text),
    /// Discrete numerical value (counters, byte volumes, durations).
    Int(i64),
    /// Continuous measurement (throughput, signal strength).
    Float(f64),
}

impl Value {
    /// What a field of a serialized row reads back as: `Null` when blank,
    /// else its text as it stands (numeric interpretation is deferred to
    /// [`Value::as_f64`] / [`Value::as_i64`]: schema on read).
    #[inline]
    pub fn from_field(field: &str) -> Self {
        if field.is_empty() {
            Value::Null
        } else {
            Value::Str(Text::new(field))
        }
    }

    /// Canonical text form used both on the wire and for entropy analysis,
    /// borrowed when the value already is text.
    pub fn text(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed(""),
            Value::Str(s) => Cow::Borrowed(s),
            Value::Int(_) | Value::Float(_) => Cow::Owned(self.to_string()),
        }
    }

    /// [`Value::text`] as an owned string.
    pub fn as_text(&self) -> String {
        self.text().into_owned()
    }

    /// Numeric view: ints and parses of numeric strings; `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Str(s) => s.parse().ok(),
            Value::Null => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            Value::Str(s) => s.parse().ok(),
            Value::Null => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Write the canonical text form straight into `out`.
    fn write_text(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Str(s) => out.write_str(s),
            Value::Int(i) => write_int(*i, out),
            Value::Float(x) => write!(out, "{x:.2}"),
        }
    }
}

/// `write!(out, "{i}")` without the formatting machinery: most of what a
/// snapshot serializes is short integers. Digits are laid from the back of
/// a buffer that holds the longest case, `i64::MIN`'s 19 digits and sign.
fn write_int(i: i64, out: &mut impl fmt::Write) -> fmt::Result {
    if (0..10).contains(&i) {
        return out.write_char(char::from(b'0' + i as u8));
    }
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut left = i.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (left % 10) as u8;
        left /= 10;
        if left == 0 {
            break;
        }
    }
    if i < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits and sign"))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_text(f)
    }
}

/// A row: one value per schema column.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub values: Vec<Value>,
}

impl Record {
    pub fn new(values: Vec<Value>) -> Self {
        Self { values }
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Serialize as a CSV line. Values must not contain `,` or newlines —
    /// guaranteed by the generator, asserted here in debug builds.
    pub fn to_line(&self, out: &mut String) {
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            debug_assert!(
                !matches!(v, Value::Str(s) if s.contains(',') || s.contains('\n')),
                "value contains a delimiter: {v:?}"
            );
            v.write_text(out).expect("writing to a String cannot fail");
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{row_at, Row};
    use proptest::prelude::*;

    /// The hand-written integer form is `{i}`'s, digit for digit.
    #[test]
    fn int_text_is_the_standard_format() {
        let mut cases = vec![0, 1, -1, 9, -9, 10, -10, i64::MIN, i64::MAX];
        let mut power = 10i64;
        loop {
            cases.extend([power - 1, power, power + 1, 1 - power, -power, -power - 1]);
            match power.checked_mul(10) {
                Some(next) => power = next,
                None => break,
            }
        }
        for i in cases {
            assert_eq!(Value::Int(i).as_text(), format!("{i}"));
            assert_eq!(Value::Int(i).to_string(), format!("{i}"));
        }
    }

    proptest! {
        #[test]
        fn any_int_text_is_the_standard_format(i in any::<i64>()) {
            prop_assert_eq!(Value::Int(i).as_text(), format!("{i}"));
        }
    }

    #[test]
    fn value_text_forms() {
        assert_eq!(Value::Null.as_text(), "");
        assert_eq!(Value::Str("LTE".into()).as_text(), "LTE");
        assert_eq!(Value::Int(-5).as_text(), "-5");
        assert_eq!(Value::Float(2.34567).as_text(), "2.35");
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(42).as_f64(), Some(42.0));
        assert_eq!(Value::Float(1.5).as_i64(), Some(1));
        assert_eq!(Value::Str("17".into()).as_i64(), Some(17));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn line_round_trip() {
        let rec = Record::new(vec![
            Value::Str("821000017".into()),
            Value::Null,
            Value::Int(1500),
            Value::Float(2.5),
        ]);
        let mut line = String::new();
        rec.to_line(&mut line);
        assert_eq!(line, "821000017,,1500,2.50\n");

        let (row, _) = row_at(line.trim_end(), 0, 4).unwrap();
        let parsed = Row::Text(row).record(4);
        assert_eq!(parsed.values[0], Value::Str("821000017".into()));
        assert_eq!(parsed.values[1], Value::Null);
        assert_eq!(parsed.values[2].as_i64(), Some(1500));
        assert_eq!(parsed.values[3].as_f64(), Some(2.5));
    }

    #[test]
    fn parse_rejects_wrong_arity() {
        assert!(row_at("a,b,c", 0, 4).is_none());
        assert!(row_at("a,b,c,d,e", 0, 4).is_none());
        assert!(row_at("a,b,c,d", 0, 4).is_some());
    }

    #[test]
    fn empty_fields_become_null() {
        let (row, _) = row_at(",,", 0, 3).unwrap();
        let rec = Row::Text(row).record(3);
        assert!(rec.values.iter().all(Value::is_null));
    }
}
