//! Cross-codec behaviour: container discrimination, scaling behaviour, and
//! thread-safety of shared codec values.

use codecs::{table1_codecs, Codec, Dictionary, GzipLite, ZstdLite};
use std::sync::Arc;

/// A telco-ish payload with tunable redundancy.
fn payload(rows: usize, distinct_cells: u32) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..rows {
        out.extend_from_slice(
            format!(
                "201601221530,{},{},0,{},{}00,-88,2\n",
                (i as u32) % distinct_cells,
                10 + (i % 7),
                (10 + (i % 7)) * 60,
                (i % 5) + 50,
            )
            .as_bytes(),
        );
    }
    out
}

#[test]
fn codecs_reject_each_others_containers() {
    let data = payload(200, 40);
    let all = table1_codecs();
    for producer in &all {
        let packed = producer.compress(&data);
        for consumer in &all {
            if consumer.name() == producer.name() {
                assert_eq!(consumer.decompress(&packed).unwrap(), data);
            } else {
                assert!(
                    consumer.decompress(&packed).is_err(),
                    "{} accepted a {} container",
                    consumer.name(),
                    producer.name()
                );
            }
        }
    }
}

#[test]
fn higher_redundancy_never_compresses_worse() {
    // Fewer distinct cells → more redundancy → at most equal size.
    for codec in table1_codecs() {
        let loose = codec.compress(&payload(2_000, 1_000));
        let tight = codec.compress(&payload(2_000, 4));
        assert!(
            tight.len() <= loose.len(),
            "{}: {} vs {}",
            codec.name(),
            tight.len(),
            loose.len()
        );
    }
}

#[test]
fn megabyte_scale_round_trips() {
    let data = payload(30_000, 400); // ~1.2 MB
    assert!(data.len() > 1_000_000);
    for codec in table1_codecs() {
        let packed = codec.compress(&data);
        assert_eq!(codec.decompress(&packed).unwrap(), data, "{}", codec.name());
        assert!(packed.len() < data.len() / 2, "{}", codec.name());
    }
}

#[test]
fn codecs_are_shareable_across_threads() {
    let codec: Arc<dyn Codec> = Arc::new(GzipLite::default());
    let data = payload(500, 40);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let codec = Arc::clone(&codec);
            let data = data.clone();
            scope.spawn(move || {
                for i in 0..5 {
                    let mut local = data.clone();
                    local.extend_from_slice(format!("thread {t} round {i}\n").as_bytes());
                    let packed = codec.compress(&local);
                    assert_eq!(codec.decompress(&packed).unwrap(), local);
                }
            });
        }
    });
}

#[test]
fn dictionary_codec_shares_dictionaries_across_threads() {
    let corpus = payload(400, 20);
    let dict = Arc::new(Dictionary::train(&[corpus.as_slice()], 8 << 10));
    let codec = Arc::new(ZstdLite::default().with_dictionary(dict));
    std::thread::scope(|scope| {
        for t in 0..4 {
            let codec = Arc::clone(&codec);
            scope.spawn(move || {
                let local = payload(100 + t * 13, 20);
                let packed = codec.compress(&local);
                assert_eq!(codec.decompress(&packed).unwrap(), local);
            });
        }
    });
}
