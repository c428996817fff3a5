//! Short text stored in place.
//!
//! A snapshot is ~22 k fields of mean length 2.2 bytes (longest generated
//! field: 12, see DESIGN.md §2.1), so a heap `String` per field makes
//! parsing and freeing a snapshot cost more than reading and inflating
//! it. [`Text`] keeps up to [`Text::INLINE_CAP`] bytes inside the value
//! itself and goes to the heap only beyond that; it is 24 bytes with a
//! spare tag niche, so [`crate::Value`] stays 24 bytes too.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// An immutable string; at most [`Text::INLINE_CAP`] bytes live in place.
///
/// The representation is canonical — a string that fits inline is never
/// on the heap — and every comparison, hash and format goes through
/// [`Text::as_str`], so a `Text` behaves exactly like the `str` it holds.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` is valid UTF-8 (copied from a `&str`); the rest is 0.
    Inline {
        len: u8,
        buf: [u8; Text::INLINE_CAP],
    },
    /// Longer than `INLINE_CAP` bytes.
    Heap(Box<str>),
}

impl Text {
    /// Longest string stored without a heap allocation: 24 bytes less the
    /// variant tag and the length byte.
    pub const INLINE_CAP: usize = 22;

    pub fn new(s: &str) -> Self {
        match Self::inline(s) {
            Some(t) => t,
            None => Text(Repr::Heap(s.into())),
        }
    }

    fn inline(s: &str) -> Option<Self> {
        if s.len() > Self::INLINE_CAP {
            return None;
        }
        let mut buf = [0u8; Self::INLINE_CAP];
        buf[..s.len()].copy_from_slice(s.as_bytes());
        Some(Text(Repr::Inline {
            len: s.len() as u8,
            buf,
        }))
    }

    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => {
                let bytes = &buf[..usize::from(*len)];
                // SAFETY: `Repr::Inline` is built only by `Text::inline`
                // (the field is private to this module), which copies
                // `len` bytes from a `&str`: `bytes` is that string.
                unsafe { std::str::from_utf8_unchecked(bytes) }
            }
            Repr::Heap(s) => s,
        }
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text::new(s)
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        match Self::inline(&s) {
            Some(t) => t,
            None => Text(Repr::Heap(s.into_boxed_str())),
        }
    }
}

impl Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

/// Prints exactly as `String` does: report digests hash `{:?}` output.
impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // What needs the private representation; behaviour through the
    // public interface is in `tests/text_value.rs`.

    #[test]
    fn text_is_24_bytes_with_a_niche() {
        assert_eq!(std::mem::size_of::<Text>(), 24);
        assert_eq!(std::mem::size_of::<Option<Text>>(), 24);
    }

    #[test]
    fn inline_up_to_22_bytes_heap_beyond_from_either_constructor() {
        let mut samples: Vec<String> = [0, 1, 21, 22, 23, 100]
            .iter()
            .map(|&n| "x".repeat(n))
            .collect();
        samples.push("é".repeat(11)); // 22 bytes
        samples.push(format!("{}x", "é".repeat(11))); // 23 bytes
        for s in samples {
            let fits = s.len() <= Text::INLINE_CAP;
            for t in [Text::new(&s), Text::from(s.clone())] {
                assert_eq!(matches!(t.0, Repr::Inline { .. }), fits, "{s:?}");
                assert_eq!(t.as_str(), s);
            }
        }
    }
}
