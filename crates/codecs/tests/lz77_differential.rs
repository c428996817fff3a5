//! Differential test of the LZ77 match finder.
//!
//! `src/lz77.rs` sizes its chain table to the input, rejects a candidate on
//! the four bytes ending at `best_len`, and steps the search at `pos` and
//! the lazy search at `pos + 1` alternately in one loop, with `pos`
//! inserted before either runs. The parser it replaced — one table per
//! window, a one-byte reject, `find_match(pos)` then `find_match(pos + 1)`
//! — lives on here verbatim as the reference. Every stored byte depends on
//! the two agreeing token for token, so that is what is required: for all
//! four codec classes and for small-window configs whose table is exactly
//! one window long, where the candidate at `pos - window` shares its
//! `prev` slot with `pos` on almost every walk.

use codecs::lz77::{self, Lz77Config, Token};
use proptest::prelude::*;
use telco_trace::{Snapshot, TraceConfig, TraceGenerator};

/// The match finder the repo shipped before the two-walk one, kept
/// verbatim.
mod reference {
    use codecs::lz77::{Lz77Config, Token, MIN_MATCH};

    const HASH_LOG: u32 = 16;

    #[inline(always)]
    fn hash4(data: &[u8], pos: usize) -> usize {
        let v = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
        ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_LOG)) as usize
    }

    /// Hash-chain LZ77 match finder over a single input buffer.
    ///
    /// `prefix_len` bytes at the start of the buffer act as a preset dictionary:
    /// matches may start inside the prefix but tokens are only produced for the
    /// payload that follows it (used by [`crate::ZstdLite`] dictionary mode).
    pub struct MatchFinder<'a> {
        data: &'a [u8],
        config: Lz77Config,
        head: Vec<i32>,
        prev: Vec<i32>,
        window_mask: usize,
    }

    impl<'a> MatchFinder<'a> {
        pub fn new(data: &'a [u8], config: Lz77Config) -> Self {
            let window = config.window_size();
            Self {
                data,
                config,
                head: vec![-1; 1 << HASH_LOG],
                prev: vec![-1; window],
                window_mask: window - 1,
            }
        }

        #[inline]
        fn insert(&mut self, pos: usize) {
            if pos + MIN_MATCH > self.data.len() {
                return;
            }
            let h = hash4(self.data, pos);
            self.prev[pos & self.window_mask] = self.head[h];
            self.head[h] = pos as i32;
        }

        /// Length of the common prefix of `data[a..]` and `data[b..]`, capped.
        #[inline]
        fn match_len(&self, a: usize, b: usize, cap: usize) -> usize {
            let data = self.data;
            let max = cap.min(data.len() - b);
            let mut n = 0;
            // Compare 8 bytes at a time.
            while n + 8 <= max {
                let x = u64::from_le_bytes(data[a + n..a + n + 8].try_into().unwrap());
                let y = u64::from_le_bytes(data[b + n..b + n + 8].try_into().unwrap());
                let xor = x ^ y;
                if xor != 0 {
                    return n + (xor.trailing_zeros() / 8) as usize;
                }
                n += 8;
            }
            while n < max && data[a + n] == data[b + n] {
                n += 1;
            }
            n
        }

        /// Best match for position `pos`, or `None`.
        fn find_match(&self, pos: usize) -> Option<(u32, u32)> {
            if pos + MIN_MATCH > self.data.len() {
                return None;
            }
            let min_pos = pos.saturating_sub(self.config.window_size());
            let mut cand = self.head[hash4(self.data, pos)];
            let mut best_len = MIN_MATCH - 1;
            let mut best_dist = 0u32;
            let cap = self.config.max_match as usize;
            let mut chain = self.config.max_chain;
            while cand >= 0 && chain > 0 {
                let c = cand as usize;
                if c < min_pos || c >= pos {
                    break;
                }
                // Quick reject: check the byte just past the current best.
                if pos + best_len < self.data.len()
                    && self.data[c + best_len] == self.data[pos + best_len]
                {
                    let len = self.match_len(c, pos, cap);
                    if len > best_len {
                        best_len = len;
                        best_dist = (pos - c) as u32;
                        if len >= self.config.good_enough as usize || len >= cap {
                            break;
                        }
                    }
                }
                cand = self.prev[c & self.window_mask];
                chain -= 1;
            }
            if best_len >= MIN_MATCH {
                Some((best_len as u32, best_dist))
            } else {
                None
            }
        }

        /// Parse the payload (everything after `prefix_len`) into tokens.
        pub fn parse(mut self, prefix_len: usize) -> Vec<Token> {
            let data = self.data;
            let n = data.len();
            // Seed the chains with the dictionary prefix.
            for pos in 0..prefix_len.min(n) {
                self.insert(pos);
            }
            let mut tokens = Vec::with_capacity((n - prefix_len) / 2 + 16);
            let mut pos = prefix_len;
            while pos < n {
                let here = self.find_match(pos);
                match here {
                    None => {
                        tokens.push(Token::Literal(data[pos]));
                        self.insert(pos);
                        pos += 1;
                    }
                    Some((mut len, mut dist)) => {
                        // Lazy evaluation: if the next position has a strictly
                        // longer match, emit a literal instead and retry there.
                        if self.config.lazy
                            && pos + 1 < n
                            && (len as usize) < self.config.good_enough as usize
                        {
                            self.insert(pos);
                            let mut match_pos = pos;
                            if let Some((len2, dist2)) = self.find_match(pos + 1) {
                                if len2 > len + 1 {
                                    tokens.push(Token::Literal(data[pos]));
                                    match_pos = pos + 1;
                                    len = len2;
                                    dist = dist2;
                                }
                            }
                            tokens.push(Token::Match { len, dist });
                            let end = match_pos + len as usize;
                            // `pos` was already inserted above; index the rest of
                            // the matched region.
                            for p in (pos + 1)..end.min(n) {
                                self.insert(p);
                            }
                            pos = end;
                        } else {
                            tokens.push(Token::Match { len, dist });
                            let end = pos + len as usize;
                            for p in pos..end.min(n) {
                                self.insert(p);
                            }
                            pos = end;
                        }
                    }
                }
            }
            tokens
        }
    }
}

/// The four codec classes, then configs the codecs never use but that
/// reach the edges: a table exactly one window long on any input past 256
/// (or 16) bytes, lazy and greedy, a one-candidate budget, and a
/// `good_enough` no match can reach.
fn configs() -> Vec<(&'static str, Lz77Config)> {
    let small = Lz77Config {
        window_log: 8,
        max_chain: 32,
        max_match: 64,
        lazy: true,
        good_enough: 32,
    };
    vec![
        ("deflate", Lz77Config::deflate_class()),
        ("lzma", Lz77Config::lzma_class()),
        ("snappy", Lz77Config::snappy_class()),
        ("zstd", Lz77Config::zstd_class()),
        ("window-256", small),
        (
            "window-256-greedy",
            Lz77Config {
                lazy: false,
                ..small
            },
        ),
        (
            "window-16-one-probe",
            Lz77Config {
                window_log: 4,
                max_chain: 1,
                max_match: 9,
                lazy: true,
                good_enough: 100,
            },
        ),
        (
            "no-budget",
            Lz77Config {
                max_chain: 0,
                ..small
            },
        ),
    ]
}

/// Where two token streams first differ, without printing either.
fn first_difference(got: &[Token], want: &[Token]) -> Option<usize> {
    (got != want).then(|| {
        got.iter()
            .zip(want)
            .position(|(g, w)| g != w)
            .unwrap_or(got.len().min(want.len()))
    })
}

fn assert_same_tokens_for(configs: &[(&str, Lz77Config)], dict: &[u8], payload: &[u8], what: &str) {
    let joined = [dict, payload].concat();
    for &(name, config) in configs {
        let want = reference::MatchFinder::new(&joined, config).parse(dict.len());
        let got = lz77::parse_with_dict(dict, payload, config);
        if let Some(at) = first_difference(&got, &want) {
            panic!(
                "{what} ({} + {} bytes), {name}: token {at} is {:?}, the reference has {:?}",
                dict.len(),
                payload.len(),
                got.get(at),
                want.get(at)
            );
        }
        assert!(
            lz77::reconstruct(dict, &got) == payload,
            "{what}, {name}: the tokens do not rebuild the payload"
        );
        if dict.is_empty() {
            assert!(
                lz77::parse(payload, config) == want,
                "{what}, {name}: parse"
            );
        }
    }
}

fn assert_same_tokens(data: &[u8], what: &str) {
    assert_same_tokens_for(&configs(), &[], data, what);
}

/// Two busy-hour snapshots of the trace the benchmark ingests (scale 1/64,
/// 70-100 KB of text each).
fn snapshots() -> Vec<Snapshot> {
    TraceGenerator::new(TraceConfig::scaled(1.0 / 64.0).with_seed(7))
        .skip(24)
        .take(2)
        .collect()
}

/// What a CAS pack holds: each table's columns as streams of
/// newline-terminated values, end to end.
fn pack_text(snapshot: &Snapshot) -> Vec<u8> {
    let mut out = Vec::new();
    for table in [&snapshot.cdr, &snapshot.nms] {
        let cols = table.first().map_or(0, |r| r.values.len());
        for c in 0..cols {
            for record in table {
                out.extend_from_slice(record.get(c).text().as_bytes());
                out.push(b'\n');
            }
        }
    }
    out
}

fn pseudo_random(len: usize, mut state: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

#[test]
fn every_length_up_to_twelve() {
    let text = b"82100,82100,LTE";
    for len in 0..=12 {
        assert_same_tokens(&vec![b'0'; len], "one byte repeated");
        assert_same_tokens(&text[..len], "text");
        assert_same_tokens(&b"abababababab"[..len], "period 2");
        assert_same_tokens(&b"abcdabcdabcd"[..len], "period 4");
    }
}

#[test]
fn runs_longer_than_max_match() {
    // 70 000 is past the zstd class's 65 536-byte matches; the others are
    // around the 258/259-byte ones.
    for len in [257, 258, 259, 260, 261, 300, 1000, 70_000] {
        for period in [1usize, 2, 3, 7] {
            let run: Vec<u8> = (0..len).map(|i| b'a' + (i % period) as u8).collect();
            assert_same_tokens(&run, "run");
            // A run that something follows, and one that follows something.
            assert_same_tokens(&[&run[..], b"tail, 0,0,0"].concat(), "run then text");
            assert_same_tokens(
                &[b"head 0,0,0,"[..].to_vec(), run].concat(),
                "text then run",
            );
        }
    }
}

#[test]
fn snapshot_text_and_pack_shaped_text() {
    let snapshots = snapshots();
    let texts: Vec<Vec<u8>> = snapshots.iter().map(Snapshot::to_bytes).collect();
    assert!(texts[0].len() >= 40_000, "longer than the deflate window");
    assert_same_tokens(&texts[0], "snapshot text");
    assert_same_tokens(&pack_text(&snapshots[0]), "pack-shaped text");
    // Two epochs end to end: past the snappy and zstd windows too.
    let both = texts.concat();
    assert!(both.len() > 128 << 10, "longer than the zstd window");
    assert_same_tokens(&both, "two snapshots");
    assert_same_tokens(&texts[0][..3072], "a manifest-sized input");
}

/// Past the LZMA class's 1 MiB window: a block of text, filler that
/// matches nothing, then the block again and once more, so that walks in
/// the second copy reach candidates exactly one window back, and walks in
/// the third meet chains that run out of the window.
#[test]
fn an_input_longer_than_a_mebibyte() {
    let block = &snapshots()[0].to_bytes()[..60_000];
    let mut data = block.to_vec();
    data.extend(pseudo_random((1 << 20) - block.len(), 1));
    assert_eq!(data.len(), 1 << 20);
    data.extend_from_slice(block);
    data.extend(pseudo_random(1000, 2));
    data.extend_from_slice(&block[..30_000]);
    assert_same_tokens(&data, "three blocks a window apart");
}

#[test]
fn dictionaries_shorter_and_longer_than_the_window() {
    let text = snapshots()[1].to_bytes();
    let all = configs();
    // Against the 256-byte and 16-byte windows.
    for dict_len in [0, 1, 3, 4, 15, 16, 17, 100, 255, 256, 257, 1000] {
        assert_same_tokens_for(
            &all[4..],
            &text[..dict_len],
            &text[dict_len..5000],
            "small dict",
        );
    }
    // Against the 32 KiB and 64 KiB ones; the payload repeats the
    // dictionary's text, so matches reach into it where it is in reach.
    for dict_len in [4096, 40_000, 70_000] {
        let payload = [&text[1000..9000], &text[..6000]].concat();
        assert_same_tokens_for(&all[..4], &text[..dict_len], &payload, "large dict");
    }
    // A dictionary and nothing, or next to nothing, to parse.
    for payload_len in 0..6 {
        assert_same_tokens_for(&all, &text[..500], &text[..payload_len], "tiny payload");
    }
}

#[test]
fn a_match_that_ends_exactly_at_the_end() {
    let head = b"2016-01-22T15:30:00,LTE,";
    for tail_len in 1..=head.len() {
        for gap in [0usize, 1, 5, 300] {
            let mut data = head.to_vec();
            data.extend(std::iter::repeat_n(b'#', gap));
            data.extend_from_slice(&head[..tail_len]);
            assert_same_tokens(&data, "text, a gap, its prefix again");
            // The same with one byte after the match.
            data.push(b'!');
            assert_same_tokens(&data, "one byte after the match");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_bytes_parse_identically(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        assert_same_tokens(&data, "random bytes");
    }

    /// Few symbols: long chains, many equal-length candidates, matches
    /// everywhere.
    #[test]
    fn small_alphabets_parse_identically(
        data in proptest::collection::vec(0u8..3, 0..3000),
        dict_len in 0usize..600,
    ) {
        let data: Vec<u8> = data.iter().map(|b| b"0,\n"[*b as usize]).collect();
        let dict_len = dict_len.min(data.len());
        assert_same_tokens_for(&configs(), &data[..dict_len], &data[dict_len..], "small alphabet");
    }

    #[test]
    fn repeated_seeds_parse_identically(
        seed in proptest::collection::vec(any::<u8>(), 1..40),
        reps in 1usize..200,
        noise in proptest::collection::vec((0usize..8000, any::<u8>()), 0..6),
    ) {
        let mut data: Vec<u8> = seed.iter().copied().cycle().take(seed.len() * reps).collect();
        for (at, byte) in noise {
            let at = at % data.len();
            data[at] = byte;
        }
        assert_same_tokens(&data, "a repeated seed with noise");
    }
}
