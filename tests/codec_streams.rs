//! Golden streams: the byte format of every Table I codec, pinned.
//!
//! Stored warehouses, the `BENCH_*.json` digests and the CAS Merkle root
//! all depend on `compress` producing the same bytes from one commit to
//! the next, and none of those runs in tier-1. Here each codec compresses a
//! fixed telco-shaped text and must reproduce the committed stream byte for
//! byte; `decompress` of the committed stream must return the text. A
//! decode-side change cannot touch the first half; a format change has to
//! regenerate `tests/fixtures/codec_streams/*.hex` on purpose. The ~8 KB
//! text is below every class's `split_min`; a second, longer one is parsed
//! in two halves, the second with a window of the first as its prefix, and
//! its streams are pinned by their SHA-256.

use cas::sha256;
use codecs::lz77::Lz77Config;
use codecs::table1_codecs;

/// ~8 KB of CDR/NMS-like rows from a fixed LCG: repeated prefixes (long
/// matches far back), runs of `,0` (matches overlapping their own output),
/// a stretch of high-entropy bytes (literals), and a 300-byte run of one
/// byte (matches at the length cap).
fn fixed_text() -> Vec<u8> {
    telco_text(80, 40)
}

/// The same rows as [`fixed_text`], `cdr_rows` and `nms_rows` of them.
fn telco_text(cdr_rows: u64, nms_rows: u64) -> Vec<u8> {
    let mut state = 0x5EED_2016_0122_1530u64;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut out =
        format!("#SNAPSHOT epoch=201601221530\n#TABLE CDR rows={cdr_rows}\n").into_bytes();
    for i in 0..cdr_rows {
        out.extend_from_slice(
            format!(
                "82100{:05},82100{:05},{},2016-01-22T15:{:02}:{:02},{},0,0,0,0,0,0,{},{}\n",
                next(5000),
                next(5000),
                ["LTE", "UMTS", "GSM"][next(3) as usize],
                30 + i / 4 % 30,
                next(60),
                next(161),
                next(4) * 1500,
                next(100_000),
            )
            .as_bytes(),
        );
    }
    out.extend_from_slice(format!("#TABLE NMS rows={nms_rows}\n").as_bytes());
    for cell in 0..nms_rows {
        out.extend_from_slice(format!("{cell},2016-01-22T15:30:00").as_bytes());
        for _ in 0..24 {
            out.extend_from_slice(format!(",{}", next(7) * next(2)).as_bytes());
        }
        out.push(b'\n');
    }
    out.extend((0..256).map(|_| next(256) as u8));
    out.extend(std::iter::repeat_n(b'=', 300));
    out.push(b'\n');
    out
}

fn from_hex(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
    assert_eq!(digits.len() % 2, 0, "odd number of hex digits");
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

#[test]
fn compress_reproduces_the_committed_streams() {
    let text = fixed_text();
    let fixtures = [
        (
            "gzip-lite",
            include_str!("fixtures/codec_streams/gzip-lite.hex"),
        ),
        (
            "7z-lite",
            include_str!("fixtures/codec_streams/7z-lite.hex"),
        ),
        (
            "snappy-lite",
            include_str!("fixtures/codec_streams/snappy-lite.hex"),
        ),
        (
            "zstd-lite",
            include_str!("fixtures/codec_streams/zstd-lite.hex"),
        ),
    ];
    let codecs = table1_codecs();
    assert_eq!(codecs.len(), fixtures.len());
    for (codec, (name, hex)) in codecs.iter().zip(fixtures) {
        assert_eq!(codec.name(), name);
        let golden = from_hex(hex);
        let packed = codec.compress(&text);
        assert!(
            packed == golden,
            "{name}: compress no longer produces the committed stream \
             ({} bytes now, {} committed, first difference at byte {:?})",
            packed.len(),
            golden.len(),
            packed.iter().zip(&golden).position(|(a, b)| a != b),
        );
        assert_eq!(
            codec.decompress(&golden).as_deref(),
            Ok(&text[..]),
            "{name}: the committed stream no longer decodes to the text"
        );
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A 137 KB text, above twice every class's `split_min` and twice the
/// deflate and snappy windows: each codec's stream is pinned by its
/// SHA-256, so where the input is cut and how much of the first half the
/// second sees are pinned with the chain swap. The same bytes on one core
/// and on two (CI runs this under `taskset -c 0` too).
#[test]
fn split_parses_reproduce_the_committed_digests() {
    let text = telco_text(1300, 600);
    let classes = [
        Lz77Config::deflate_class(),
        Lz77Config::lzma_class(),
        Lz77Config::snappy_class(),
        Lz77Config::zstd_class(),
    ];
    let split_min = classes.iter().map(|c| c.split_min).max().unwrap();
    assert!(text.len() >= 2 * split_min, "{} bytes", text.len());
    // gzip-lite, 7z-lite, snappy-lite, zstd-lite.
    let digests = [
        "469985a3273870faa0e9450d633c6bb9ffd7d5d818141e632e7ec182e9c4b81c",
        "97c6c67f70c32d9242864d3973365d7da91f17b9b93b6e9ba635d091f70e13b8",
        "38e50cda1aae753fd4ff5ff06a5afd1af327472021902b3d7bd3b6bec7dd1bf5",
        "0f5cb68842e1376bbee55412a81b9932cb8341107f68a18d9083e8b025c8a067",
    ];
    for (codec, digest) in table1_codecs().iter().zip(digests) {
        let packed = codec.compress(&text);
        assert_eq!(
            hex(&sha256(&packed)),
            digest,
            "{}: compress no longer produces the committed stream ({} bytes)",
            codec.name(),
            packed.len()
        );
        assert_eq!(
            codec.decompress(&packed).as_deref(),
            Ok(&text[..]),
            "{}",
            codec.name()
        );
    }
}
