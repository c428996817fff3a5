//! Differential test of the `7z-lite` range decoder.
//!
//! `src/` normalises with one `if`, flags overrun only on the read that
//! misses, walks the byte-wide `BitTree` over a fixed-size array, takes
//! direct bits without a branch and is forced inline into the token loop.
//! The decoder it replaced — `while` normalisation, an overrun test on
//! every byte, a branch per direct bit, one call per tree — lives on here
//! verbatim as the reference. For every input the two must agree: the same
//! bytes, or both an `Err`.
//!
//! Besides what `compress` produces, the streams are cut at every prefix,
//! flipped at every byte, given forged token counts and declared lengths,
//! and built by hand to reach what the encoder never emits: distances past
//! the 1 MiB window (19 extra bits), 32 direct bits in one call, and a code
//! register that starts at or above the range.

use codecs::crc32::crc32;
use codecs::lz77::{Token, MIN_MATCH};
use codecs::range_coder::{BitModel, BitTree, RangeDecoder, RangeEncoder};
use codecs::slots::slot_of;
use codecs::{Codec, CodecError, SevenzLite};
use obs::bytes::varint;
use proptest::prelude::*;

/// The range decoder and the `7z-lite` decode loop the repo shipped before
/// the tighter ones, kept verbatim.
mod reference {
    use codecs::crc32::crc32;
    use codecs::lz77::{self, MIN_MATCH};
    use codecs::slots::base_of;
    use codecs::CodecError;
    use obs::bytes::varint;

    const PROB_BITS: u32 = 11;
    const PROB_INIT: u16 = (1 << PROB_BITS) / 2;
    const MOVE_BITS: u32 = 5;
    const TOP: u32 = 1 << 24;
    const MAGIC: &[u8; 4] = b"SP7Z";
    const LIT_CONTEXTS: usize = 8;
    const MAX_PREALLOC: usize = 16 << 20;

    #[derive(Debug, Clone, Copy)]
    pub struct BitModel(u16);

    impl Default for BitModel {
        fn default() -> Self {
            BitModel(PROB_INIT)
        }
    }

    impl BitModel {
        #[inline]
        fn update(&mut self, bit: u32) {
            if bit == 0 {
                self.0 += ((1 << PROB_BITS) - self.0) >> MOVE_BITS;
            } else {
                self.0 -= self.0 >> MOVE_BITS;
            }
        }
    }

    #[derive(Debug)]
    pub struct RangeDecoder<'a> {
        input: &'a [u8],
        pos: usize,
        code: u32,
        range: u32,
        overrun: bool,
    }

    impl<'a> RangeDecoder<'a> {
        pub fn new(input: &'a [u8]) -> Self {
            let mut d = Self {
                input,
                pos: 1, // skip the encoder's initial zero cache byte
                code: 0,
                range: u32::MAX,
                overrun: false,
            };
            for _ in 0..4 {
                d.code = (d.code << 8) | u32::from(d.next_byte());
            }
            d
        }

        #[inline]
        fn next_byte(&mut self) -> u8 {
            if self.pos >= self.input.len() {
                self.overrun = true;
            }
            let b = self.input.get(self.pos).copied().unwrap_or(0);
            self.pos += 1;
            b
        }

        pub fn is_overrun(&self) -> bool {
            self.overrun
        }

        #[inline]
        pub fn decode_bit(&mut self, model: &mut BitModel) -> u32 {
            let bound = (self.range >> PROB_BITS) * u32::from(model.0);
            let bit = if self.code < bound {
                self.range = bound;
                0
            } else {
                self.code -= bound;
                self.range -= bound;
                1
            };
            model.update(bit);
            while self.range < TOP {
                self.range <<= 8;
                self.code = (self.code << 8) | u32::from(self.next_byte());
            }
            bit
        }

        pub fn decode_direct(&mut self, n: u32) -> u32 {
            let mut value = 0u32;
            for _ in 0..n {
                self.range >>= 1;
                let bit = if self.code >= self.range {
                    self.code -= self.range;
                    1
                } else {
                    0
                };
                value = (value << 1) | bit;
                while self.range < TOP {
                    self.range <<= 8;
                    self.code = (self.code << 8) | u32::from(self.next_byte());
                }
            }
            value
        }
    }

    #[derive(Debug, Clone)]
    pub struct BitTree {
        models: Vec<BitModel>,
        bits: u32,
    }

    impl BitTree {
        pub fn new(bits: u32) -> Self {
            Self {
                models: vec![BitModel::default(); 1 << bits],
                bits,
            }
        }

        pub fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> u32 {
            let mut m = 1usize;
            for _ in 0..self.bits {
                let bit = dec.decode_bit(&mut self.models[m]);
                m = (m << 1) | bit as usize;
            }
            (m as u32) - (1 << self.bits)
        }
    }

    struct Models {
        is_match: BitModel,
        literal: Vec<BitTree>,
        length: BitTree,
        dist_slot: BitTree,
    }

    impl Models {
        fn new() -> Self {
            Self {
                is_match: BitModel::default(),
                literal: (0..LIT_CONTEXTS).map(|_| BitTree::new(8)).collect(),
                length: BitTree::new(8),
                dist_slot: BitTree::new(6),
            }
        }

        #[inline]
        fn lit_ctx(prev: u8) -> usize {
            usize::from(prev >> 5)
        }
    }

    pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CodecError> {
        if input.len() < 4 || &input[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let mut pos = 4;
        let declared_len = varint::read_u64(input, &mut pos)? as usize;
        if pos + 4 > input.len() {
            return Err(CodecError::Truncated);
        }
        let stored_crc = u32::from_le_bytes(input[pos..pos + 4].try_into().unwrap());
        pos += 4;
        let n_tokens = varint::read_u64(input, &mut pos)? as usize;
        if n_tokens > declared_len {
            return Err(CodecError::Corrupt("token count exceeds declared length"));
        }

        let mut models = Models::new();
        let mut dec = RangeDecoder::new(&input[pos..]);
        let mut out = Vec::with_capacity(declared_len.min(MAX_PREALLOC) + lz77::COPY_SLACK);
        let mut prev_byte = 0u8;
        for _ in 0..n_tokens {
            if dec.is_overrun() {
                return Err(CodecError::Truncated);
            }
            if dec.decode_bit(&mut models.is_match) == 0 {
                let ctx = Models::lit_ctx(prev_byte);
                let b = models.literal[ctx].decode(&mut dec) as u8;
                out.push(b);
                prev_byte = b;
            } else {
                let len = models.length.decode(&mut dec) as usize + MIN_MATCH;
                let slot = models.dist_slot.decode(&mut dec);
                let (base, extra_bits) = base_of(slot);
                let extra = if extra_bits > 0 {
                    dec.decode_direct(extra_bits)
                } else {
                    0
                };
                let dist = (base + extra) as usize + 1;
                if dist > out.len() {
                    return Err(CodecError::Corrupt("match distance exceeds history"));
                }
                if out.len() + len > declared_len {
                    return Err(CodecError::Corrupt("output exceeds declared length"));
                }
                lz77::copy_match(&mut out, dist, len);
                prev_byte = *out.last().unwrap();
            }
            if out.len() > declared_len {
                return Err(CodecError::Corrupt("output exceeds declared length"));
            }
        }
        if out.len() != declared_len {
            return Err(CodecError::Corrupt("decoded length mismatch"));
        }
        let actual = crc32(&out);
        if actual != stored_crc {
            return Err(CodecError::ChecksumMismatch {
                expected: stored_crc,
                actual,
            });
        }
        Ok(out)
    }
}

/// New and reference agree on `stream`; returns what they agreed on.
fn assert_agree(stream: &[u8], what: &str) -> Result<Vec<u8>, CodecError> {
    let new = SevenzLite::default().decompress(stream);
    let old = reference::decompress(stream);
    match (&new, &old) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: different bytes"),
        (Err(_), Err(_)) => {}
        _ => panic!(
            "{what}: new {:?}, reference {:?}",
            new.as_ref().map(Vec::len),
            old.as_ref().map(Vec::len)
        ),
    }
    new
}

/// Range-code `tokens` with the codec's model set; returns the body and
/// the bytes the tokens expand to.
fn encode_tokens(tokens: &[Token]) -> (Vec<u8>, Vec<u8>) {
    let mut is_match = BitModel::default();
    let mut literal: Vec<BitTree<256>> = vec![BitTree::new(); 8];
    let mut length = BitTree::<256>::new();
    let mut dist_slot = BitTree::<64>::new();
    let mut enc = RangeEncoder::new();
    let mut out: Vec<u8> = Vec::new();
    for t in tokens {
        let prev = out.last().copied().unwrap_or(0);
        match *t {
            Token::Literal(b) => {
                enc.encode_bit(&mut is_match, 0);
                literal[usize::from(prev >> 5)].encode(&mut enc, u32::from(b));
                out.push(b);
            }
            Token::Match { len, dist } => {
                enc.encode_bit(&mut is_match, 1);
                length.encode(&mut enc, len - MIN_MATCH as u32);
                let (slot, extra_bits, extra_val) = slot_of(dist - 1);
                dist_slot.encode(&mut enc, slot);
                if extra_bits > 0 {
                    enc.encode_direct(extra_val, extra_bits);
                }
                for _ in 0..len {
                    out.push(out[out.len() - dist as usize]);
                }
            }
        }
    }
    (enc.finish(), out)
}

/// Wrap a range-coded body in the `SP7Z` container.
fn container(declared_len: u64, crc: u32, n_tokens: u64, body: &[u8]) -> Vec<u8> {
    let mut out = b"SP7Z".to_vec();
    varint::write_u64(&mut out, declared_len);
    out.extend_from_slice(&crc.to_le_bytes());
    varint::write_u64(&mut out, n_tokens);
    out.extend_from_slice(body);
    out
}

/// Where the range-coded body of a container starts.
fn body_start(stream: &[u8]) -> usize {
    let mut pos = 4;
    varint::read_u64(stream, &mut pos).unwrap();
    pos += 4;
    varint::read_u64(stream, &mut pos).unwrap();
    pos
}

fn telco_text(rows: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut out = Vec::new();
    for i in 0..rows {
        out.extend_from_slice(
            format!(
                "82100{:05},82100{:05},LTE,2016-01-22T15:{:02}:00,{},0,0,0,{},{}\n",
                next(4000),
                next(4000),
                i % 60,
                next(161),
                next(3) * 1500,
                next(90000)
            )
            .as_bytes(),
        );
    }
    out
}

/// A pack-shaped payload: column streams of newline-terminated values.
fn columnar_text(rows: usize, seed: u64) -> Vec<u8> {
    let text = telco_text(rows, seed);
    let mut columns: Vec<Vec<u8>> = vec![Vec::new(); 10];
    for line in text.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        for (c, field) in line.split(|&b| b == b',').enumerate() {
            columns[c].extend_from_slice(field);
            columns[c].push(b'\n');
        }
    }
    columns.concat()
}

#[test]
fn compressed_inputs_decode_identically() {
    let codec = SevenzLite::default();
    let mut inputs: Vec<Vec<u8>> = vec![
        Vec::new(),
        b"a".to_vec(),
        vec![b'x'; 3000],
        (0..=255u8).cycle().take(5000).collect(),
        telco_text(2000, 7),
        columnar_text(1500, 11),
    ];
    let text = telco_text(8, 3);
    inputs.extend((0..200).map(|n| text[..n].to_vec()));
    for data in &inputs {
        let packed = codec.compress(data);
        let out = assert_agree(&packed, "compress output").expect("valid stream");
        assert_eq!(&out, data);
    }
}

/// A handful of real streams, small enough to sweep byte by byte.
fn real_streams() -> Vec<Vec<u8>> {
    let codec = SevenzLite::default();
    vec![
        codec.compress(&telco_text(12, 1)),
        codec.compress(&columnar_text(40, 2)),
        codec.compress(&[b"0\n".repeat(300), telco_text(5, 3)].concat()),
    ]
}

#[test]
fn every_prefix_gets_the_same_verdict() {
    for stream in real_streams() {
        for cut in 0..stream.len() {
            // Reads past the end yield zeros, and the overrun flag is
            // tested before a token, not after the last one: a prefix
            // decodes exactly when the bytes it lost were zeros.
            let verdict = assert_agree(&stream[..cut], "prefix");
            let lost_only_zeros = stream[cut..].iter().all(|&b| b == 0);
            assert!(
                verdict.is_err() || lost_only_zeros,
                "a stream cut at {cut} decoded"
            );
        }
    }
}

#[test]
fn every_byte_flip_gets_the_same_verdict() {
    for stream in real_streams() {
        for at in 0..stream.len() {
            for xor in [0x01, 0x10, 0x80, 0xFF] {
                let mut flipped = stream.clone();
                flipped[at] ^= xor;
                let _ = assert_agree(&flipped, "byte flip");
            }
        }
    }
}

#[test]
fn forged_token_counts_and_declared_lengths_agree() {
    let data = telco_text(30, 5);
    let tokens = codecs::lz77::parse(&data, codecs::lz77::Lz77Config::lzma_class());
    let (body, expanded) = encode_tokens(&tokens);
    assert_eq!(expanded, data);
    let (len, n, crc) = (data.len() as u64, tokens.len() as u64, crc32(&data));
    assert_eq!(
        assert_agree(&container(len, crc, n, &body), "honest").unwrap(),
        data
    );
    for (declared, n_tokens) in [
        (len, n - 1),
        (len, n + 1),
        (len, len),
        (len, len + 1),
        (len - 1, n),
        (len + 1, n),
        (0, 0),
        (0, n),
        (len, 0),
        (1 << 40, n),
        (1 << 40, 1 << 39),
        (u64::MAX, n),
    ] {
        let verdict = assert_agree(&container(declared, crc, n_tokens, &body), "forged header");
        assert!(verdict.is_err(), "declared {declared} tokens {n_tokens}");
    }
    // A wrong checksum over an honest body.
    assert!(assert_agree(&container(len, !crc, n, &body), "forged crc").is_err());
}

/// A token cut short: the decoder runs off the input in the middle of the
/// stream and must say so, not decode the zero padding.
#[test]
fn a_stream_cut_inside_a_token_is_truncated() {
    let data = telco_text(400, 9);
    let stream = SevenzLite::default().compress(&data);
    let start = body_start(&stream);
    for keep in [0, 1, 4, 5, 6, 40, (stream.len() - start) / 2] {
        let cut = &stream[..start + keep];
        assert_eq!(
            assert_agree(cut, "cut inside a token"),
            Err(CodecError::Truncated),
            "body cut to {keep} bytes"
        );
    }
    // Cut inside the last token only: nothing is left to test the overrun
    // flag, so the verdict rests on the length and the checksum — whatever
    // it is, it is the reference's.
    for drop in 1..=6 {
        let _ = assert_agree(&stream[..stream.len() - drop], "cut in the last token");
    }
}

/// Distances beyond the encoder's 1 MiB window: slot 40 carries 19 direct
/// bits. The decoder accepts any distance inside the history.
#[test]
fn nineteen_extra_bit_distances_decode_identically() {
    let mut tokens: Vec<Token> = (0..8u8).map(|i| Token::Literal(b'a' + i)).collect();
    let max = MIN_MATCH as u32 + 255;
    let mut produced = 8u32;
    while produced < (1 << 20) + 64 {
        tokens.push(Token::Match { len: max, dist: 8 });
        produced += max;
    }
    for dist in [(1 << 20) + 1, (1 << 20) + 37, produced] {
        assert_eq!(slot_of(dist - 1).1, 19, "dist {dist}");
        tokens.push(Token::Match { len: 9, dist });
        tokens.push(Token::Literal(b'!'));
    }
    let (body, data) = encode_tokens(&tokens);
    let stream = container(data.len() as u64, crc32(&data), tokens.len() as u64, &body);
    assert_eq!(
        assert_agree(&stream, "19-bit distances").expect("valid"),
        data
    );
    // A match further back than the (empty) history reaches.
    let stream = {
        // By hand: `encode_tokens` would index before its own output.
        let mut is_match = BitModel::default();
        let mut enc = RangeEncoder::new();
        enc.encode_bit(&mut is_match, 1);
        BitTree::<256>::new().encode(&mut enc, 0);
        let (slot, extra_bits, extra_val) = slot_of(5);
        BitTree::<64>::new().encode(&mut enc, slot);
        enc.encode_direct(extra_val, extra_bits);
        container(4, 0, 1, &enc.finish())
    };
    assert!(assert_agree(&stream, "distance past history").is_err());
}

/// One step of a decoder-level script.
#[derive(Debug, Clone, Copy)]
enum Step {
    Bit,
    Tree8,
    Tree6,
    Tree3,
    Direct(u32),
}

/// Run `script` over `input` on both decoders, comparing every decoded
/// value and the overrun flag after every step.
fn run_script(input: &[u8], script: &[Step]) {
    let mut new = RangeDecoder::new(input);
    let mut old = reference::RangeDecoder::new(input);
    let (mut new_bit, mut old_bit) = (BitModel::default(), reference::BitModel::default());
    let mut new_trees = (
        BitTree::<256>::new(),
        BitTree::<64>::new(),
        BitTree::<8>::new(),
    );
    let mut old_trees = [
        reference::BitTree::new(8),
        reference::BitTree::new(6),
        reference::BitTree::new(3),
    ];
    assert_eq!(new.is_overrun(), old.is_overrun(), "after new()");
    for (i, step) in script.iter().enumerate() {
        let (a, b) = match *step {
            Step::Bit => (new.decode_bit(&mut new_bit), old.decode_bit(&mut old_bit)),
            Step::Tree8 => (new_trees.0.decode(&mut new), old_trees[0].decode(&mut old)),
            Step::Tree6 => (new_trees.1.decode(&mut new), old_trees[1].decode(&mut old)),
            Step::Tree3 => (new_trees.2.decode(&mut new), old_trees[2].decode(&mut old)),
            Step::Direct(n) => (new.decode_direct(n), old.decode_direct(n)),
        };
        assert_eq!(a, b, "step {i} {step:?}");
        assert_eq!(new.is_overrun(), old.is_overrun(), "step {i} {step:?}");
    }
}

#[test]
fn thirty_two_direct_bits_round_trip_on_both() {
    let values = [0u32, 1, 0xFFFF_FFFF, 0x8000_0000, 0xDEAD_BEEF, 0x0123_4567];
    let mut enc = RangeEncoder::new();
    for &v in &values {
        enc.encode_direct(v, 32);
        enc.encode_direct(v & 0x7FFFF, 19);
    }
    let bytes = enc.finish();
    let mut new = RangeDecoder::new(&bytes);
    let mut old = reference::RangeDecoder::new(&bytes);
    for &v in &values {
        assert_eq!(new.decode_direct(32), v);
        assert_eq!(old.decode_direct(32), v);
        assert_eq!(new.decode_direct(19), v & 0x7FFFF);
        assert_eq!(old.decode_direct(19), v & 0x7FFFF);
    }
    assert!(!new.is_overrun() && !old.is_overrun());
}

/// Inputs no encoder produces: the code register starts at or above the
/// range (`FF FF FF FF`), where a sign-bit form of the direct-bit compare
/// would differ from the reference's `>=`.
#[test]
fn a_code_register_above_the_range_decodes_identically() {
    let script: Vec<Step> = [
        Step::Direct(32),
        Step::Bit,
        Step::Tree8,
        Step::Direct(19),
        Step::Tree6,
        Step::Direct(1),
        Step::Tree3,
    ]
    .into_iter()
    .cycle()
    .take(70)
    .collect();
    for lead in [0x00u8, 0x7F, 0xFF] {
        for fill in [0x00u8, 0x55, 0x80, 0xFF] {
            for len in [0usize, 1, 4, 5, 9, 64] {
                let mut input = vec![lead; 5.min(len)];
                input.resize(len, fill);
                run_script(&input, &script);
            }
        }
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u8..5, 1u32..=32).prop_map(|(kind, n)| match kind {
        0 => Step::Bit,
        1 => Step::Tree8,
        2 => Step::Tree6,
        3 => Step::Tree3,
        _ => Step::Direct(n),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_inputs_decode_identically(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let packed = SevenzLite::default().compress(&data);
        prop_assert_eq!(assert_agree(&packed, "random input").unwrap(), data);
    }

    #[test]
    fn repetitive_inputs_decode_identically(
        seed in proptest::collection::vec(any::<u8>(), 1..40),
        reps in 1usize..400,
    ) {
        let data: Vec<u8> = seed.iter().copied().cycle().take(seed.len() * reps).collect();
        let packed = SevenzLite::default().compress(&data);
        prop_assert_eq!(assert_agree(&packed, "repetitive input").unwrap(), data);
    }

    #[test]
    fn mutated_streams_get_the_same_verdict(
        rows in 1usize..60,
        seed in any::<u64>(),
        flips in proptest::collection::vec((0.0f64..1.0, any::<u8>()), 1..4),
    ) {
        let mut packed = SevenzLite::default().compress(&telco_text(rows, seed));
        for (at, xor) in flips {
            let i = ((packed.len() as f64) * at) as usize;
            packed[i] ^= xor | 1;
        }
        let _ = assert_agree(&packed, "mutated stream");
    }

    #[test]
    fn garbage_behind_the_magic_gets_the_same_verdict(
        body in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let mut input = b"SP7Z".to_vec();
        input.extend_from_slice(&body);
        let _ = assert_agree(&input, "garbage");
    }

    /// The two decoders in lock step over arbitrary bytes and an arbitrary
    /// mix of modelled bits, trees and direct bits: every value and the
    /// overrun flag agree after every step.
    #[test]
    fn arbitrary_scripts_over_arbitrary_bytes_agree(
        input in proptest::collection::vec(any::<u8>(), 0..200),
        script in proptest::collection::vec(step_strategy(), 1..120),
    ) {
        run_script(&input, &script);
    }
}
