//! From-scratch lossless compression codecs for the SPATE storage layer.
//!
//! The SPATE paper (ICDE 2017, §IV) compares four lossless compression
//! libraries — GZIP, 7z (LZMA), SNAPPY and ZSTD — as candidates for
//! compressing 30-minute telco snapshots. This crate reimplements one codec
//! per algorithmic family so that the Table I microbenchmark can be
//! regenerated without external dependencies:
//!
//! * [`GzipLite`] — LZ77 + canonical Huffman, DEFLATE-class ("GZIP").
//! * [`SevenzLite`] — large-window lazy LZ77 + adaptive binary range coder,
//!   LZMA-class ("7z"). Best ratio, slowest.
//! * [`SnappyLite`] — byte-oriented greedy LZ with no entropy stage
//!   ("SNAPPY"). Fastest, roughly half the ratio of the others.
//! * [`ZstdLite`] — LZ77 + tANS (FSE) entropy coding with optional trained
//!   dictionaries ("ZSTD").
//!
//! All codecs implement the [`Codec`] trait and are exact: `decompress ∘
//! compress` is the identity for every byte string (verified by property
//! tests). Each compressed container embeds a CRC-32 of the original data
//! which is verified on decompression.
//!
//! # Example
//!
//! ```
//! use codecs::{Codec, GzipLite};
//!
//! let codec = GzipLite::default();
//! let data = b"cellid=17,drop=0,drop=0,drop=0,drop=0,cellid=17".repeat(10);
//! let packed = codec.compress(&data);
//! assert!(packed.len() < data.len());
//! assert_eq!(codec.decompress(&packed).unwrap(), data);
//! ```

pub mod bitio;
pub mod crc32;
pub mod dict;
pub mod fse;
pub mod gzip_lite;
pub mod huffman;
pub mod lz77;
pub mod range_coder;
pub mod sevenz_lite;
pub mod slots;
pub mod snappy_lite;
pub mod zstd_lite;

pub use dict::Dictionary;
pub use gzip_lite::GzipLite;
pub use sevenz_lite::SevenzLite;
pub use snappy_lite::SnappyLite;
pub use zstd_lite::ZstdLite;

use std::fmt;

/// Error produced when decompressing malformed or corrupted input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The container magic bytes did not match the codec.
    BadMagic,
    /// The input ended before the declared payload was fully decoded.
    Truncated,
    /// A structural invariant of the stream was violated.
    Corrupt(&'static str),
    /// The CRC-32 of the decompressed payload did not match the stored one.
    ChecksumMismatch { expected: u32, actual: u32 },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad container magic"),
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            CodecError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: stored {expected:#010x}, computed {actual:#010x}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<obs::bytes::ByteError> for CodecError {
    #[inline]
    fn from(e: obs::bytes::ByteError) -> Self {
        use obs::bytes::ByteError;
        match e {
            ByteError::Truncated => CodecError::Truncated,
            ByteError::BadMagic => CodecError::BadMagic,
            ByteError::OutOfRange { field } => CodecError::Corrupt(field),
            ByteError::Trailing(_) => CodecError::Corrupt("trailing bytes"),
            ByteError::BadUtf8 => CodecError::Corrupt("invalid utf-8"),
        }
    }
}

/// Largest buffer a decoder pre-allocates from an untrusted declared length.
///
/// Container headers carry the decompressed size as a varint, so a corrupt
/// or hostile stream can declare a multi-gigabyte payload in a handful of
/// bytes. Decoders honour the declared length — output still grows on demand
/// past this cap — but they never *reserve* more than this up front, so a
/// forged header cannot commit memory before any decoding work has
/// validated the stream.
pub(crate) const MAX_PREALLOC: usize = 16 << 20;

/// Clamp an untrusted declared length to [`MAX_PREALLOC`] for use with
/// `Vec::with_capacity`.
#[inline]
pub(crate) fn bounded_capacity(declared: usize) -> usize {
    declared.min(MAX_PREALLOC)
}

/// A lossless, self-contained compression codec.
///
/// Implementations are stateless (any per-call state lives on the stack), so
/// a single codec value can be shared across threads.
pub trait Codec: Send + Sync {
    /// Short stable identifier, e.g. `"gzip-lite"`. Used by the storage
    /// layer to record which codec produced a stored block.
    fn name(&self) -> &'static str;

    /// Compress `input` into a self-describing container.
    fn compress(&self, input: &[u8]) -> Vec<u8>;

    /// Decompress a container produced by [`Codec::compress`] of the same
    /// codec, verifying the embedded checksum.
    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError>;

    /// Compress `parts` into one container that decompresses to their
    /// concatenation, each part a member of its own where the codec has
    /// members ([`Codec::members`]), so that a reader can inflate one part
    /// alone. By default the container is one member:
    /// [`Codec::compress`] of the concatenation (of the one part itself,
    /// uncopied, when there is one).
    fn compress_members(&self, parts: &[&[u8]]) -> Vec<u8> {
        match parts {
            [one] => self.compress(one),
            _ => self.compress(&parts.concat()),
        }
    }

    /// The members of `input`, in order and end to end, as their own
    /// headers delimit them, found without inflating any: each one
    /// decompresses alone, and [`Codec::decompress`] of the container is
    /// their outputs concatenated. Never empty. By default a container is
    /// one member.
    fn members<'a>(&self, input: &'a [u8]) -> Vec<&'a [u8]> {
        vec![input]
    }

    /// [`Codec::compress_members`] plus metering: records
    /// `codecs.<name>.compress.bytes_in` / `.bytes_out` counters and a
    /// `codecs.<name>.compress_ns` latency histogram in the global
    /// registry. Deliberately *not* a tracing span, so storage-level
    /// stage spans keep the codec work in their own self-time.
    fn compress_metered(&self, parts: &[&[u8]]) -> Vec<u8> {
        let start = std::time::Instant::now();
        let out = self.compress_members(parts);
        let ns = start.elapsed().as_nanos() as u64;
        let name = self.name();
        let bytes_in: usize = parts.iter().map(|part| part.len()).sum();
        obs::add(&format!("codecs.{name}.compress.bytes_in"), bytes_in as u64);
        obs::add(
            &format!("codecs.{name}.compress.bytes_out"),
            out.len() as u64,
        );
        obs::observe(&format!("codecs.{name}.compress_ns"), ns);
        out
    }

    /// [`Codec::decompress`] plus metering, mirroring
    /// [`Codec::compress_metered`]. Failed decompressions count under
    /// `codecs.<name>.decompress.errors` instead of `.bytes_out`.
    fn decompress_metered(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let start = std::time::Instant::now();
        let result = self.decompress(input);
        let ns = start.elapsed().as_nanos() as u64;
        let name = self.name();
        obs::add(
            &format!("codecs.{name}.decompress.bytes_in"),
            input.len() as u64,
        );
        obs::observe(&format!("codecs.{name}.decompress_ns"), ns);
        match &result {
            Ok(out) => {
                obs::add(
                    &format!("codecs.{name}.decompress.bytes_out"),
                    out.len() as u64,
                );
                // Attribute the produced bytes to this codec in the active
                // per-query cost profile (no-op outside a profiled query).
                obs::cost::add_decompressed(name, out.len() as u64);
            }
            Err(_) => obs::inc(&format!("codecs.{name}.decompress.errors")),
        }
        result
    }
}

/// The identity codec: stores data without compression.
///
/// This is what the paper's RAW baseline uses, and a useful control in
/// benchmarks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Identity;

impl Codec for Identity {
    fn name(&self) -> &'static str {
        "identity"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        input.to_vec()
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        Ok(input.to_vec())
    }
}

/// The text length from which a codec with members writes a text of
/// `#TABLE` sections one member a table ([`PerTable`]). A member costs its
/// own header and code tables, and a table in a member of its own keeps
/// code tables of its own: over 960 generated snapshots of 1/512 to 1/32
/// scale, in every 4 KiB band of text below 68 KiB two members stored
/// more bytes in all than one (+0.13 % to +8.7 %), and from 72 KiB on
/// they stored fewer in 246 of 248 epochs.
pub const TABLE_MEMBERS_FROM: usize = 72 << 10;

/// The parts a store compresses `text` in, one member each: from
/// [`TABLE_MEMBERS_FROM`] bytes on, `text` cut before its last line that
/// opens with `#TABLE ` (a snapshot's NMS table), else `text` whole.
pub fn table_parts(text: &[u8]) -> Vec<&[u8]> {
    const LINE: &[u8] = b"\n#TABLE ";
    let cut = (text.len() >= TABLE_MEMBERS_FROM)
        .then(|| text.windows(LINE.len()).rposition(|w| w == LINE))
        .flatten();
    match cut {
        Some(at) => vec![&text[..=at], &text[at + 1..]],
        None => vec![text],
    }
}

/// [`GzipLite`] as a store writes a text with it: [`Codec::compress`] is
/// [`Codec::compress_members`] of its [`table_parts`], so that a reader can
/// inflate the last table alone, or the text before it. Everything else
/// is [`GzipLite`]'s; its streams are gzip-lite streams.
#[derive(Debug, Default, Clone, Copy)]
pub struct PerTable(pub GzipLite);

impl Codec for PerTable {
    fn name(&self) -> &'static str {
        "gzip-lite/tables"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        self.0.compress_members(&table_parts(input))
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        self.0.decompress(input)
    }

    fn compress_members(&self, parts: &[&[u8]]) -> Vec<u8> {
        self.0.compress_members(parts)
    }

    fn members<'a>(&self, input: &'a [u8]) -> Vec<&'a [u8]> {
        self.0.members(input)
    }
}

/// All codecs evaluated in the paper's Table I, in paper order, behind a
/// uniform trait object. Useful for sweeps.
pub fn table1_codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(GzipLite::default()),
        Box::new(SevenzLite::default()),
        Box::new(SnappyLite::default()),
        Box::new(ZstdLite::default()),
    ]
}

/// Look a codec up by its [`Codec::name`]. `<name>/tables` is the codec
/// `<name>` writing a text one member a table, where it has members
/// ([`PerTable`] for gzip-lite).
pub fn by_name(name: &str) -> Option<Box<dyn Codec>> {
    match name {
        "gzip-lite" => Some(Box::new(GzipLite::default())),
        "gzip-lite/tables" => Some(Box::new(PerTable::default())),
        "7z-lite" => Some(Box::new(SevenzLite::default())),
        "snappy-lite" => Some(Box::new(SnappyLite::default())),
        "zstd-lite" => Some(Box::new(ZstdLite::default())),
        "identity" => Some(Box::new(Identity)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_round_trip() {
        let c = Identity;
        let data = b"hello world".to_vec();
        assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
        assert_eq!(c.name(), "identity");
    }

    #[test]
    fn metered_wrappers_record_bytes_and_latency() {
        let c = Identity;
        let data = vec![7u8; 2048];
        let before_in = obs::counter("codecs.identity.compress.bytes_in").get();
        let before_rt = obs::histogram("codecs.identity.decompress_ns").count();
        let packed = c.compress_metered(&[&data]);
        let out = c.decompress_metered(&packed).unwrap();
        assert_eq!(out, data);
        assert_eq!(
            obs::counter("codecs.identity.compress.bytes_in").get() - before_in,
            2048
        );
        assert_eq!(
            obs::histogram("codecs.identity.decompress_ns").count() - before_rt,
            1
        );
        // Corrupt input is an error counter, not bytes_out.
        let before_err = obs::counter("codecs.gzip-lite.decompress.errors").get();
        assert!(GzipLite::default().decompress_metered(b"junk").is_err());
        assert_eq!(
            obs::counter("codecs.gzip-lite.decompress.errors").get() - before_err,
            1
        );
    }

    #[test]
    fn registry_finds_all_table1_codecs() {
        for codec in table1_codecs() {
            let found = by_name(codec.name()).expect("codec registered");
            assert_eq!(found.name(), codec.name());
        }
        assert!(by_name("nonexistent").is_none());
    }

    /// A text of two `#TABLE` sections is cut before the second from
    /// [`TABLE_MEMBERS_FROM`] bytes on, and [`PerTable`] writes the parts
    /// as members; a shorter text, or one with no `#TABLE` line after its
    /// first line, is one part, written as [`GzipLite`] writes it.
    #[test]
    fn per_table_writes_the_last_table_as_a_member_of_its_own() {
        let text = |rows: usize| {
            let cdr = "8210000017,LTE,42,0,1500\n".repeat(rows);
            format!("#SNAPSHOT epoch=7\n#TABLE CDR\n{cdr}#TABLE NMS\n17,0,3\n17,1,3\n")
        };
        let (codec, gzip) = (PerTable::default(), GzipLite::default());
        let long = text(TABLE_MEMBERS_FROM / 25).into_bytes();
        let nms_at = long.len() - b"#TABLE NMS\n17,0,3\n17,1,3\n".len();
        assert_eq!(table_parts(&long), [&long[..nms_at], &long[nms_at..]]);
        let packed = codec.compress(&long);
        assert_eq!(
            packed,
            gzip.compress_members(&[&long[..nms_at], &long[nms_at..]])
        );
        assert_eq!(codec.members(&packed).len(), 2);
        assert_eq!(gzip.decompress(&packed).unwrap(), long);

        let short = text(10).into_bytes();
        assert!(short.len() < TABLE_MEMBERS_FROM);
        assert_eq!(table_parts(&short), [short.as_slice()]);
        assert_eq!(codec.compress(&short), gzip.compress(&short));
        let untabled = vec![b'7'; TABLE_MEMBERS_FROM];
        assert_eq!(table_parts(&untabled), [untabled.as_slice()]);
        assert_eq!(by_name("gzip-lite/tables").unwrap().name(), codec.name());
    }

    #[test]
    fn error_display_is_informative() {
        let e = CodecError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(CodecError::BadMagic.to_string().contains("magic"));
        assert!(CodecError::Truncated.to_string().contains("truncated"));
        assert!(CodecError::Corrupt("x").to_string().contains('x'));
    }
}
