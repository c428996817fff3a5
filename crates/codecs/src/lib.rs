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

    /// [`Codec::compress`] plus metering: records
    /// `codecs.<name>.compress.bytes_in` / `.bytes_out` counters and a
    /// `codecs.<name>.compress_ns` latency histogram in the global
    /// registry. Deliberately *not* a tracing span, so storage-level
    /// stage spans keep the codec work in their own self-time.
    fn compress_metered(&self, input: &[u8]) -> Vec<u8> {
        let start = std::time::Instant::now();
        let out = self.compress(input);
        let ns = start.elapsed().as_nanos() as u64;
        let name = self.name();
        obs::add(
            &format!("codecs.{name}.compress.bytes_in"),
            input.len() as u64,
        );
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

/// Look a codec up by its [`Codec::name`].
pub fn by_name(name: &str) -> Option<Box<dyn Codec>> {
    match name {
        "gzip-lite" => Some(Box::new(GzipLite::default())),
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
        let packed = c.compress_metered(&data);
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
