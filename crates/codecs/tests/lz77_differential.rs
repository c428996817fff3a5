//! Differential test of the LZ77 match finder.
//!
//! `src/lz77.rs` sizes its chain table to the input, rejects a candidate on
//! the four bytes ending at `best_len`, and steps the search at `pos` and
//! the lazy search at `pos + 1` alternately in one loop, with `pos`
//! inserted before either runs. The parser it replaced — one table per
//! window, a one-byte reject, `find_match(pos)` then `find_match(pos + 1)`
//! — lives on here verbatim as the reference. Three things are required
//! of the new one:
//!
//! * With `chain_swap` off, one `MatchFinder` equals the reference token
//!   for token, for all four codec classes and for small-window configs
//!   whose table is exactly one window long, where the candidate at
//!   `pos - window` shares its `prev` slot with `pos` on almost every walk.
//! * `lz77::parse` equals the reference below `split_min`, and above it the
//!   reference on `input[..mid]` followed by the reference on
//!   `input[from..]` with `mid - from` bytes of prefix.
//! * With the swap on, tokens rebuild the input and stay inside the
//!   window and the length bounds; with an unbounded budget they are the
//!   reference's own (the swap skips only candidates that cannot improve);
//!   and with the classes' budgets no snapshot compresses worse than the
//!   reference parse did at the old LZMA budget of 512.

use codecs::lz77::{self, Lz77Config, MatchFinder, Token, MIN_MATCH};
use codecs::{Codec, SevenzLite, ZstdLite};
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

/// The four codec classes with the swap off, then configs the codecs never
/// use but that reach the edges: a table exactly one window long on any
/// input past 256 (or 16) bytes, lazy and greedy, a one-candidate budget,
/// and a `good_enough` no match can reach.
fn configs() -> Vec<(&'static str, Lz77Config)> {
    let small = Lz77Config {
        window_log: 8,
        max_chain: 32,
        max_match: 64,
        lazy: true,
        good_enough: 32,
        chain_swap: false,
        split_min: 16 << 10,
    };
    let no_swap = |config: Lz77Config| Lz77Config {
        chain_swap: false,
        ..config
    };
    vec![
        ("deflate", Lz77Config::deflate_class()),
        ("lzma", no_swap(Lz77Config::lzma_class())),
        ("snappy", Lz77Config::snappy_class()),
        ("zstd", no_swap(Lz77Config::zstd_class())),
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
                chain_swap: false,
                split_min: 16 << 10,
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

/// The same configs with the swap on.
fn swap_configs() -> Vec<(&'static str, Lz77Config)> {
    let swap = |(name, config): (&'static str, Lz77Config)| {
        (
            name,
            Lz77Config {
                chain_swap: true,
                ..config
            },
        )
    };
    configs().into_iter().map(swap).collect()
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

fn assert_equal(got: &[Token], want: &[Token], what: &str) {
    if let Some(at) = first_difference(got, want) {
        panic!(
            "{what}: token {at} is {:?}, the reference has {:?}",
            got.get(at),
            want.get(at)
        );
    }
}

/// The reference's tokens for `payload` after a `dict` prefix.
fn reference_tokens(dict: &[u8], payload: &[u8], config: Lz77Config) -> Vec<Token> {
    reference::MatchFinder::new(&[dict, payload].concat(), config).parse(dict.len())
}

/// What `lz77::parse` must make of `input`: the reference on the whole
/// below `split_min`, else on each half, the second with up to a window of
/// the first as its prefix.
fn split_reference(input: &[u8], config: Lz77Config) -> Vec<Token> {
    if input.len() < config.split_min {
        return reference_tokens(&[], input, config);
    }
    let mid = input.len() / 2;
    let from = mid.saturating_sub(config.window_size());
    let mut tokens = reference_tokens(&[], &input[..mid], config);
    tokens.extend(reference_tokens(&input[from..mid], &input[mid..], config));
    tokens
}

fn assert_same_tokens_for(configs: &[(&str, Lz77Config)], dict: &[u8], payload: &[u8], what: &str) {
    let joined = [dict, payload].concat();
    for &(name, config) in configs {
        let what = format!("{what} ({} + {} bytes), {name}", dict.len(), payload.len());
        let want = reference_tokens(dict, payload, config);
        let got = MatchFinder::new(&joined, config).parse(dict.len());
        assert_equal(&got, &want, &what);
        assert!(
            lz77::reconstruct(dict, &got) == payload,
            "{what}: the tokens do not rebuild the payload"
        );
        assert!(
            lz77::parse_with_dict(dict, payload, config) == want,
            "{what}: parse_with_dict"
        );
        if dict.is_empty() {
            let split = split_reference(payload, config);
            assert_equal(
                &lz77::parse(payload, config),
                &split,
                &format!("{what}: parse"),
            );
        }
    }
}

fn assert_same_tokens(data: &[u8], what: &str) {
    assert_same_tokens_for(&configs(), &[], data, what);
}

/// With the swap on: the tokens rebuild the payload, every distance is
/// inside the window (and reaches no further back than the dictionary),
/// every length is inside the config's bounds, and `lz77::parse` is the
/// one-thread parse of the halves.
fn assert_well_formed_for(configs: &[(&str, Lz77Config)], dict: &[u8], payload: &[u8], what: &str) {
    let joined = [dict, payload].concat();
    for &(name, config) in configs {
        let what = format!("{what} ({} + {} bytes), {name}", dict.len(), payload.len());
        let tokens = MatchFinder::new(&joined, config).parse(dict.len());
        let mut at = dict.len();
        for (i, t) in tokens.iter().enumerate() {
            match *t {
                Token::Literal(_) => at += 1,
                Token::Match { len, dist } => {
                    let (len, dist) = (len as usize, dist as usize);
                    assert!(
                        (MIN_MATCH..=config.max_match as usize).contains(&len),
                        "{what}: token {i} has length {len}"
                    );
                    assert!(
                        dist >= 1 && dist <= config.window_size().min(at),
                        "{what}: token {i} reaches {dist} back from {at}"
                    );
                    at += len;
                }
            }
        }
        assert_eq!(at, joined.len(), "{what}: the tokens cover the payload");
        assert!(
            lz77::reconstruct(dict, &tokens) == payload,
            "{what}: the tokens do not rebuild the payload"
        );
        if dict.is_empty() && payload.len() >= config.split_min {
            let mid = payload.len() / 2;
            let from = mid.saturating_sub(config.window_size());
            let mut halves = MatchFinder::new(&payload[..mid], config).parse(0);
            halves.extend(MatchFinder::new(&payload[from..], config).parse(mid - from));
            assert_equal(
                &lz77::parse(payload, config),
                &halves,
                &format!("{what}: split"),
            );
        }
    }
}

/// With no budget to run out of, a swapped walk meets every candidate that
/// can improve on its match, in the order an unswapped walk does: the same
/// tokens as the reference's, not merely as good ones.
fn assert_unbounded_swap_is_exact(dict: &[u8], payload: &[u8], what: &str) {
    let joined = [dict, payload].concat();
    for (name, config) in configs() {
        let config = Lz77Config {
            max_chain: u32::MAX,
            ..config
        };
        let want = reference_tokens(dict, payload, config);
        let swapped = Lz77Config {
            chain_swap: true,
            ..config
        };
        let got = MatchFinder::new(&joined, swapped).parse(dict.len());
        assert_equal(&got, &want, &format!("{what}, {name} unbounded"));
    }
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

/// The cut itself: just below and at each class's `split_min`, an odd
/// length, and a run that one match would cover across `mid`.
#[test]
fn the_split_at_its_threshold() {
    let text: Vec<u8> = snapshots().iter().flat_map(Snapshot::to_bytes).collect();
    let mut lengths: Vec<usize> = configs()
        .iter()
        .flat_map(|(_, c)| [c.split_min - 1, c.split_min, c.split_min + 1])
        .collect();
    lengths.sort_unstable();
    lengths.dedup();
    for len in lengths.into_iter().chain([40_001]) {
        assert_same_tokens(&text[..len], "snapshot prefix");
    }
    let run = vec![b'0'; (64 << 10) + 10];
    assert_same_tokens(&run, "one run across the cut");
}

/// Past the LZMA class's 1 MiB window: a block of text, filler that
/// matches nothing, then the block again and once more, so that walks in
/// the second copy reach candidates exactly one window back, and walks in
/// the third meet chains that run out of the window. The second half's
/// prefix is then a whole window that starts after the input does.
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
    let swapped = swap_configs();
    assert_well_formed_for(&swapped[1..2], &[], &data, "three blocks a window apart");
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
        assert_well_formed_for(
            &swap_configs()[..4],
            &text[..dict_len],
            &payload,
            "large dict",
        );
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

/// The swap on snapshot text, pack-shaped text and two epochs end to end,
/// in every config.
#[test]
fn swapped_walks_make_well_formed_tokens() {
    let snapshots = snapshots();
    let text = snapshots[0].to_bytes();
    let both = [text.clone(), snapshots[1].to_bytes()].concat();
    for (data, what) in [
        (&text, "snapshot text"),
        (&pack_text(&snapshots[0]), "pack-shaped text"),
        (&both, "two snapshots"),
    ] {
        assert_well_formed_for(&swap_configs(), &[], data, what);
    }
    assert_unbounded_swap_is_exact(&[], &text[..4096], "snapshot text");
    assert_unbounded_swap_is_exact(
        &text[..1000],
        &text[1000..3000],
        "snapshot text after a dict",
    );
}

/// The swapped classes at their budgets against the reference parse at
/// the LZMA class's old budget (512, no swap), through the codecs: over a
/// day of the benchmark's snapshots, as text and as a CAS pack holds them,
/// the streams are no longer. (A single small night epoch may come out a
/// byte or two longer; a day may not.)
#[test]
fn the_swap_compresses_no_worse_than_the_old_budget() {
    let old_lzma = Lz77Config {
        max_chain: 512,
        chain_swap: false,
        ..Lz77Config::lzma_class()
    };
    let old_zstd = Lz77Config {
        chain_swap: false,
        ..Lz77Config::zstd_class()
    };
    let pairs: [(Box<dyn Codec>, Box<dyn Codec>); 2] = [
        (
            Box::new(SevenzLite::default()),
            Box::new(SevenzLite::with_config(old_lzma)),
        ),
        (
            Box::new(ZstdLite::default()),
            Box::new(ZstdLite::with_config(old_zstd)),
        ),
    ];
    let day: Vec<Snapshot> = TraceGenerator::new(TraceConfig::scaled(1.0 / 64.0).with_seed(1))
        .step_by(6)
        .take(8)
        .collect();
    let texts: Vec<Vec<u8>> = day.iter().map(Snapshot::to_bytes).collect();
    let packs: Vec<Vec<u8>> = day.iter().map(pack_text).collect();
    for (inputs, shape) in [(&texts, "text"), (&packs, "pack")] {
        for (now, old) in &pairs {
            let size = |codec: &dyn Codec| -> usize {
                inputs.iter().map(|d| codec.compress(d).len()).sum()
            };
            let (now_len, old_len) = (size(now.as_ref()), size(old.as_ref()));
            assert!(
                now_len <= old_len,
                "{} on a day as {shape}: {now_len} > {old_len} bytes",
                now.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_bytes_parse_identically(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        assert_same_tokens(&data, "random bytes");
        assert_well_formed_for(&swap_configs(), &[], &data, "random bytes");
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
        let (dict, payload) = data.split_at(dict_len);
        assert_same_tokens_for(&configs(), dict, payload, "small alphabet");
        assert_well_formed_for(&swap_configs(), dict, payload, "small alphabet");
        assert_unbounded_swap_is_exact(dict, payload, "small alphabet");
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
        assert_well_formed_for(&swap_configs(), &[], &data, "a repeated seed with noise");
        assert_unbounded_swap_is_exact(&[], &data, "a repeated seed with noise");
    }
}
