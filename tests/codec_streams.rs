//! Golden streams: the byte format of every Table I codec, pinned.
//!
//! Stored warehouses, the `BENCH_*.json` digests and the CAS Merkle root
//! all depend on `compress` producing the same bytes from one commit to
//! the next, and none of those runs in tier-1. Here each codec compresses a
//! fixed telco-shaped text and must reproduce the committed stream byte for
//! byte; `decompress` of the committed stream must return the text. A
//! decode-side change cannot touch the first half; a format change has to
//! regenerate `tests/fixtures/codec_streams/*.hex` on purpose.

use codecs::table1_codecs;

/// ~8 KB of CDR/NMS-like rows from a fixed LCG: repeated prefixes (long
/// matches far back), runs of `,0` (matches overlapping their own output),
/// a stretch of high-entropy bytes (literals), and a 300-byte run of one
/// byte (matches at the length cap).
fn fixed_text() -> Vec<u8> {
    let mut state = 0x5EED_2016_0122_1530u64;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut out = b"#SNAPSHOT epoch=201601221530\n#TABLE CDR rows=80\n".to_vec();
    for i in 0..80 {
        out.extend_from_slice(
            format!(
                "82100{:05},82100{:05},{},2016-01-22T15:{:02}:{:02},{},0,0,0,0,0,0,{},{}\n",
                next(5000),
                next(5000),
                ["LTE", "UMTS", "GSM"][next(3) as usize],
                30 + i / 4,
                next(60),
                next(161),
                next(4) * 1500,
                next(100_000),
            )
            .as_bytes(),
        );
    }
    out.extend_from_slice(b"#TABLE NMS rows=40\n");
    for cell in 0..40 {
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
