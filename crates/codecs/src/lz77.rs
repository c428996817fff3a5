//! Shared LZ77 match finder used by the DEFLATE-, LZMA- and Zstd-class
//! codecs.
//!
//! The matcher is a classic hash-chain design: a rolling 4-byte hash indexes
//! chains of previous positions inside a sliding window. Codecs differ only
//! in their [`Lz77Config`] (window size, chain depth, lazy matching, chain
//! swap) and in how they entropy-code the resulting [`Token`] stream.
//!
//! [`parse`] cuts an input of at least `split_min` bytes in two at
//! `len / 2` and parses the halves on two threads, the second with up to a
//! window of the first as a preset dictionary (pigz's construction). Where
//! the cut falls depends on the input's length alone, so the tokens are the
//! same on one core as on many.

use std::cell::Cell;
use std::sync::{Mutex, TryLockError};

/// Minimum match length. Using 4 keeps the hash exact for the first probe.
pub const MIN_MATCH: usize = 4;

/// A single LZ77 parse decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// Emit one literal byte.
    Literal(u8),
    /// Copy `len` bytes starting `dist` bytes back in the output.
    Match {
        /// Match length, `MIN_MATCH ..= config.max_match`.
        len: u32,
        /// Backward distance, `1 ..= window size`.
        dist: u32,
    },
}

/// Tuning parameters for the match finder.
#[derive(Debug, Clone, Copy)]
pub struct Lz77Config {
    /// log2 of the sliding window size (distances are bounded by
    /// `1 << window_log`).
    pub window_log: u32,
    /// Maximum number of chain links followed per position. Higher finds
    /// better matches but costs compression time.
    pub max_chain: u32,
    /// Longest allowed match.
    pub max_match: u32,
    /// If true, defer a match by one byte when the next position offers a
    /// longer one (zlib-style lazy matching).
    pub lazy: bool,
    /// Stop chain traversal early once a match of this length is found.
    pub good_enough: u32,
    /// LZ4-HC's chain swap: once a walk holds a match of length `L`, go on
    /// down the chain of whichever 4-gram of the match occurs farthest
    /// back, since every longer match repeats all of them. The same
    /// matches for fewer candidates; it pays where chains are deep.
    pub chain_swap: bool,
    /// Inputs at least this long are parsed as two halves on two threads
    /// (see [`parse`]): where half a parse costs more than starting a
    /// thread.
    pub split_min: usize,
}

impl Lz77Config {
    /// DEFLATE-class parameters: 32 KiB window, moderate chains.
    pub fn deflate_class() -> Self {
        Self {
            window_log: 15,
            max_chain: 64,
            max_match: 258,
            lazy: true,
            good_enough: 64,
            chain_swap: false,
            split_min: 16 << 10,
        }
    }

    /// LZMA-class parameters: 1 MiB window, deep swapped chains, lazy
    /// matching.
    pub fn lzma_class() -> Self {
        Self {
            window_log: 20,
            max_chain: 256,
            max_match: 259,
            lazy: true,
            good_enough: 128,
            chain_swap: true,
            split_min: 16 << 10,
        }
    }

    /// Snappy-class parameters: 64 KiB window, single probe, greedy. A
    /// parse this cheap is split only where half of it outlasts a thread's
    /// start.
    pub fn snappy_class() -> Self {
        Self {
            window_log: 16,
            max_chain: 4,
            max_match: 64,
            lazy: false,
            good_enough: 16,
            chain_swap: false,
            split_min: 64 << 10,
        }
    }

    /// Zstd-class parameters: 128 KiB window, moderately deep swapped
    /// chains.
    pub fn zstd_class() -> Self {
        Self {
            window_log: 17,
            max_chain: 192,
            max_match: 1 << 16,
            lazy: true,
            good_enough: 96,
            chain_swap: true,
            split_min: 16 << 10,
        }
    }

    pub fn window_size(&self) -> usize {
        1usize << self.window_log
    }
}

const HASH_LOG: u32 = 16;

/// The four bytes at `data[at..at + 4]` as one word.
#[inline(always)]
fn word_at(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("a 4-byte slice"))
}

#[inline(always)]
fn hash4(data: &[u8], pos: usize) -> usize {
    (word_at(data, pos).wrapping_mul(0x9E37_79B1) >> (32 - HASH_LOG)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, at most
/// `max`; the caller guarantees `a < b` and `b + max <= data.len()`.
#[inline(always)]
fn match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    // Both sides sliced once: the word loop carries no bounds check.
    let (x, y) = (&data[a..a + max], &data[b..b + max]);
    let mut n = 0;
    for (wx, wy) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let wx = u64::from_le_bytes(wx.try_into().expect("an 8-byte chunk"));
        let wy = u64::from_le_bytes(wy.try_into().expect("an 8-byte chunk"));
        if wx != wy {
            return n + ((wx ^ wy).trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < max && x[n] == y[n] {
        n += 1;
    }
    n
}

/// What every step of a walk reads: the input, the chain table and the
/// config's stopping rule.
#[derive(Clone, Copy)]
struct Chains<'a> {
    data: &'a [u8],
    prev: &'a [i32],
    /// `prev.len() - 1`.
    mask: usize,
    good_enough: usize,
}

/// One walk down a hash chain: the search for the longest match at `pos`.
///
/// A walk only reads the tables, so two of them (the search at `pos` and
/// the lazy search at `pos + 1`) can be stepped alternately: each is a
/// chain of dependent table loads, and the processor overlaps the two.
struct Walk {
    pos: usize,
    /// Oldest position still inside the window.
    min_pos: usize,
    /// Longest match possible here: `min(max_match, n - pos)`.
    max: usize,
    /// The candidate the next step examines.
    cand: usize,
    /// The chain walked is the one through `cand + off`: 0 until a chain
    /// swap, then the offset in the match of the 4-gram it swapped to.
    off: usize,
    /// Candidates left in the budget.
    chain: u32,
    best_len: usize,
    best_dist: u32,
    /// `data[pos + best_len - 3 ..= pos + best_len]`: what a candidate
    /// must hold at the same offsets to match any longer than `best_len`.
    want: u32,
    done: bool,
}

impl Walk {
    /// Examine one candidate and move to its predecessor in the chain.
    /// `SWAP` is the config's `chain_swap`, a constant so that a walk
    /// without it compiles to the loop it was.
    #[inline(always)]
    fn step<const SWAP: bool>(&mut self, t: Chains) {
        let c = self.cand;
        // A candidate that differs in the four bytes ending at index
        // `best_len` matches no longer than `best_len`: only
        // non-improvements are skipped. `best_len < max` while the walk
        // runs, so both words are inside the input.
        if word_at(t.data, c + self.best_len - 3) == self.want {
            let len = match_len(t.data, c, self.pos, self.max);
            if len > self.best_len {
                self.best_len = len;
                self.best_dist = (self.pos - c) as u32;
                if len >= t.good_enough || len >= self.max {
                    self.done = true;
                    return;
                }
                self.want = word_at(t.data, self.pos + len - 3);
                // Every position of the match is indexed (and none is
                // the window's edge, whose slot may be `pos`'s own).
                if SWAP && c + len <= self.pos && c > self.min_pos {
                    self.swap_chain(t, c, len);
                }
            }
        }
        self.chain -= 1;
        // A chain runs towards older positions, so the one at the window's
        // edge is the last. Its slot of `prev` is not read either: when the
        // table is exactly one window long that slot is `pos`'s own, `pos`
        // is inserted before its walk runs, and what the slot then holds is
        // the head of this very chain. (With `off > 0` the slot read is
        // inside the window; the candidate it yields is not.)
        if self.chain == 0 || c == self.min_pos {
            self.done = true;
            return;
        }
        let next = match SWAP {
            true => t.prev[(c + self.off) & t.mask] - self.off as i32,
            false => t.prev[c & t.mask],
        };
        if next < self.min_pos as i32 {
            self.done = true; // end of chain (-1) or out of the window
            return;
        }
        self.cand = next as usize;
    }

    /// The chain swap, after a match of `len` at `c`: a longer match
    /// repeats `data[c + k..c + k + 4]` at offset `k` for every
    /// `k <= len - 4`, so it starts no later than `prev[c + k] - k` for any
    /// of them. Walk on from the smallest: the chain of the 4-gram whose
    /// previous occurrence is farthest back, which the fewest candidates
    /// share. Ties keep the smaller offset.
    #[inline(always)]
    fn swap_chain(&mut self, t: Chains, c: usize, len: usize) {
        let (mut off, mut next) = (0, t.prev[c & t.mask]);
        for k in 1..=len - MIN_MATCH {
            let at = t.prev[(c + k) & t.mask] - k as i32;
            if at < next {
                (off, next) = (k, at);
                if next < self.min_pos as i32 {
                    break; // nothing in the window matches longer
                }
            }
        }
        self.off = off;
    }

    /// Step until the walk is over.
    #[inline(always)]
    fn finish<const SWAP: bool>(&mut self, t: Chains) {
        while !self.done {
            self.step::<SWAP>(t);
        }
    }
}

/// The largest `prev` table a thread keeps between parses: the LZMA class's
/// window, the widest of the four.
const KEEP_MAX: usize = 1 << 20;

thread_local! {
    /// This thread's tables from its last parse (`head`, `prev`). Refilling
    /// them is a `memset`; a fresh half megabyte per call is handed back to
    /// the system by the allocator on free and faults in again page by
    /// page, unless something larger freed earlier happens to have raised
    /// its thresholds (the 4 MiB `prev` of every LZMA-class parse used to).
    static TABLES: Cell<Tables> = const { Cell::new((Vec::new(), Vec::new())) };
}

type Tables = (Vec<i32>, Vec<i32>);

/// The tables of the thread that parsed the last second half (see
/// [`parse`]): that thread is gone, and the next one starts with them.
/// Holding the lock is also the right to start that thread: a caller that
/// finds it taken parses both halves itself, so concurrent compressions (a
/// sharded ingest) start one thread more, not one more each.
static SPARE: Mutex<Tables> = Mutex::new((Vec::new(), Vec::new()));

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
    /// `prev.len() - 1`.
    mask: usize,
}

impl<'a> MatchFinder<'a> {
    pub fn new(data: &'a [u8], config: Lz77Config) -> Self {
        // Positions are below `data.len()`, so a table that covers the
        // input never wraps: a 3 KB manifest does not zero a 4 MiB window.
        // Which candidates are in reach is still decided by the configured
        // window (`Walk::min_pos`).
        let table = config.window_size().min(data.len().next_power_of_two());
        let (mut head, mut prev) = TABLES.take();
        head.clear();
        head.resize(1 << HASH_LOG, -1);
        prev.clear();
        prev.resize(table, -1);
        Self {
            data,
            config,
            head,
            prev,
            mask: table - 1,
        }
    }

    /// Put `pos` at the head of its chain; returns the head it displaces
    /// (`-1` for an empty chain).
    #[inline]
    fn insert(&mut self, pos: usize) -> i32 {
        let h = hash4(self.data, pos);
        let displaced = self.head[h];
        self.prev[pos & self.mask] = displaced;
        self.head[h] = pos as i32;
        displaced
    }

    /// The walk for `pos`, about to examine `first` (the head of `pos`'s
    /// chain, `-1` for an empty one).
    #[inline(always)]
    fn walk(&self, pos: usize, first: i32) -> Walk {
        let min_pos = pos.saturating_sub(self.config.window_size());
        Walk {
            pos,
            min_pos,
            max: (self.config.max_match as usize).min(self.data.len() - pos),
            cand: first as usize,
            off: 0,
            chain: self.config.max_chain,
            best_len: MIN_MATCH - 1,
            best_dist: 0,
            want: word_at(self.data, pos),
            done: first < min_pos as i32 || self.config.max_chain == 0,
        }
    }

    /// Parse the payload (everything after `prefix_len`) into tokens.
    pub fn parse(self, prefix_len: usize) -> Vec<Token> {
        match self.config.chain_swap {
            true => self.parse_with::<true>(prefix_len),
            false => self.parse_with::<false>(prefix_len),
        }
    }

    fn parse_with<const SWAP: bool>(mut self, prefix_len: usize) -> Vec<Token> {
        let data = self.data;
        let n = data.len();
        // Positions too close to the end to hold a match are never indexed.
        let indexed = n.saturating_sub(MIN_MATCH - 1);
        // Seed the chains with the dictionary prefix.
        for pos in 0..prefix_len.min(indexed) {
            self.insert(pos);
        }
        let good_enough = self.config.good_enough as usize;
        // Telco text parses to about one token per twelve bytes.
        let mut tokens = Vec::with_capacity(n.saturating_sub(prefix_len) / 8 + 16);
        let mut pos = prefix_len;
        while pos < n {
            if pos >= indexed {
                tokens.push(Token::Literal(data[pos]));
                pos += 1;
                continue;
            }
            // Whatever token comes next, `pos` is indexed before anything
            // else reads the tables: take its chain head and insert it now,
            // so that the search at `pos + 1` can start beside this one.
            let first = self.insert(pos);
            let mut here = self.walk(pos, first);
            let t = Chains {
                data,
                prev: &self.prev,
                mask: self.mask,
                good_enough,
            };
            while !here.done && here.best_len < MIN_MATCH {
                here.step::<SWAP>(t);
            }
            if here.best_len < MIN_MATCH {
                tokens.push(Token::Literal(data[pos]));
                pos += 1;
                continue;
            }
            // Lazy evaluation: if the next position has a strictly longer
            // match, emit a literal instead and take that one. Its search
            // starts once a match here is certain (after a literal nothing
            // is searched twice) and is dropped unread if the match here
            // turns out good enough.
            let mut deferred = None;
            if self.config.lazy && pos + 1 < indexed && here.best_len < good_enough {
                let mut next = self.walk(pos + 1, self.head[hash4(data, pos + 1)]);
                while !here.done && !next.done {
                    here.step::<SWAP>(t);
                    next.step::<SWAP>(t);
                }
                here.finish::<SWAP>(t);
                if here.best_len < good_enough {
                    next.finish::<SWAP>(t);
                    if next.best_len > here.best_len + 1 {
                        deferred = Some(next);
                    }
                }
            } else {
                here.finish::<SWAP>(t);
            }
            let taken = match deferred {
                Some(next) => {
                    tokens.push(Token::Literal(data[pos]));
                    next
                }
                None => here,
            };
            tokens.push(Token::Match {
                len: taken.best_len as u32,
                dist: taken.best_dist,
            });
            let end = taken.pos + taken.best_len;
            for p in pos + 1..end.min(indexed) {
                self.insert(p);
            }
            pos = end;
        }
        if self.prev.len() <= KEEP_MAX {
            TABLES.set((self.head, self.prev));
        }
        tokens
    }
}

/// Parse `input` with `config` and no dictionary prefix.
///
/// From `config.split_min` bytes on, the input is cut at `mid = len / 2`:
/// this thread parses `input[..mid]` while a scoped thread parses
/// `input[mid..]` with up to one window before `mid` as its preset
/// dictionary (or this thread does, after the first half, when another
/// split holds [`SPARE`]), and the two token runs are joined — the tokens
/// of the same two calls made one after the other, so only matches across
/// `mid` are lost.
pub fn parse(input: &[u8], config: Lz77Config) -> Vec<Token> {
    if input.len() < config.split_min {
        return MatchFinder::new(input, config).parse(0);
    }
    let mid = input.len() / 2;
    let from = mid.saturating_sub(config.window_size());
    let tail = || MatchFinder::new(&input[from..], config).parse(mid - from);
    let mut spare = match SPARE.try_lock() {
        Ok(spare) => spare,
        // The tables are plain vectors whatever a panic interrupted.
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => {
            let mut tokens = MatchFinder::new(&input[..mid], config).parse(0);
            tokens.extend(tail());
            return tokens;
        }
    };
    let tables = std::mem::take(&mut *spare);
    std::thread::scope(|s| {
        let second = s.spawn(|| {
            TABLES.set(tables);
            (tail(), TABLES.take())
        });
        let mut tokens = MatchFinder::new(&input[..mid], config).parse(0);
        let (second, tables) = second
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e));
        *spare = tables;
        tokens.extend(second);
        tokens
    })
}

/// Parse `payload` with `dict` acting as a preset window prefix.
pub fn parse_with_dict(dict: &[u8], payload: &[u8], config: Lz77Config) -> Vec<Token> {
    let mut joined = Vec::with_capacity(dict.len() + payload.len());
    joined.extend_from_slice(dict);
    joined.extend_from_slice(payload);
    MatchFinder::new(&joined, config).parse(dict.len())
}

/// Bytes a decoder should reserve beyond its output's final length so that
/// the overshoot of [`copy_match`]'s last step never grows the buffer.
pub const COPY_SLACK: usize = 32;

/// Append `len` bytes that repeat the output starting `dist` bytes back —
/// the decode side of [`Token::Match`], shared by every codec.
///
/// The caller has checked `1 <= dist <= out.len()`. A source at least 16
/// bytes behind the write position is copied in fixed 16-byte chunks, each
/// one load and one store, two per step so that the nine in ten matches of
/// telco text that are no longer than 32 bytes take no data-dependent
/// branch; the overshoot is cut off again. A chunk's source never reaches
/// past what the chunks before it wrote, and the bytes written past `len`
/// are never kept, so spare capacity ([`COPY_SLACK`]) only saves a
/// reallocation. A match whose source is closer than that repeats the
/// last `dist` bytes (see [`copy_overlapping`]).
#[inline(always)]
pub fn copy_match(out: &mut Vec<u8>, dist: usize, len: usize) {
    debug_assert!(dist >= 1 && dist <= out.len());
    if dist < 16 {
        return copy_overlapping(out, dist, len);
    }
    let end = out.len() + len;
    let mut src = out.len() - dist;
    loop {
        let chunk: [u8; 16] = out[src..src + 16].try_into().expect("a 16-byte slice");
        out.extend_from_slice(&chunk);
        let chunk: [u8; 16] = out[src + 16..src + 32].try_into().expect("a 16-byte slice");
        out.extend_from_slice(&chunk);
        src += 32;
        if out.len() >= end {
            break;
        }
    }
    out.truncate(end);
}

/// [`copy_match`] for a source less than one chunk behind the output: each
/// pass copies everything written since the start of the source, a whole
/// number of periods, so the spans double.
fn copy_overlapping(out: &mut Vec<u8>, dist: usize, len: usize) {
    let start = out.len() - dist;
    let mut left = len;
    while left > 0 {
        let span = left.min(out.len() - start);
        out.extend_from_within(start..start + span);
        left -= span;
    }
}

/// Reconstruct the original payload from a token stream. `dict` must be the
/// same preset dictionary used at parse time (empty when none).
pub fn reconstruct(dict: &[u8], tokens: &[Token]) -> Vec<u8> {
    let mut out = dict.to_vec();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => copy_match(&mut out, dist as usize, len as usize),
        }
    }
    out.split_off(dict.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::PoisonError;

    fn round_trip(data: &[u8], config: Lz77Config) {
        let tokens = parse(data, config);
        assert_eq!(reconstruct(&[], &tokens), data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for config in [
            Lz77Config::deflate_class(),
            Lz77Config::lzma_class(),
            Lz77Config::snappy_class(),
            Lz77Config::zstd_class(),
        ] {
            round_trip(b"", config);
            round_trip(b"a", config);
            round_trip(b"abc", config);
            round_trip(b"abcd", config);
        }
    }

    #[test]
    fn repetitive_input_finds_matches() {
        let data = b"cell=42,drop=0;".repeat(100);
        let tokens = parse(&data, Lz77Config::deflate_class());
        let matches = tokens
            .iter()
            .filter(|t| matches!(t, Token::Match { .. }))
            .count();
        assert!(matches > 0, "repetitive data must produce matches");
        assert!(
            tokens.len() < data.len() / 4,
            "token stream should be much shorter than input"
        );
        assert_eq!(reconstruct(&[], &tokens), data);
    }

    /// A caller that finds another split under way parses the second half
    /// itself: the same tokens as on two threads.
    #[test]
    fn a_split_parse_is_the_same_on_one_thread() {
        let data: Vec<u8> = (0..4000u32)
            .flat_map(|i| format!("{},{},0,0\n", i % 977, i % 13).into_bytes())
            .collect();
        assert!(data.len() >= 2 * Lz77Config::deflate_class().split_min);
        for config in [Lz77Config::deflate_class(), Lz77Config::lzma_class()] {
            let two = parse(&data, config);
            let one = {
                let _taken = SPARE.lock().unwrap_or_else(PoisonError::into_inner);
                parse(&data, config)
            };
            assert_eq!(one, two);
            assert_eq!(reconstruct(&[], &one), data);
        }
    }

    #[test]
    fn overlapping_match_reconstruction() {
        // 'aaaa...' forces dist=1 overlapping copies.
        let data = vec![b'a'; 500];
        round_trip(&data, Lz77Config::deflate_class());
    }

    /// `copy_match` against the byte-at-a-time loop it replaced in every
    /// decoder: every distance across the 16-byte chunk boundary, every
    /// length across one, two and several chunk pairs, with the output
    /// buffer at exact capacity (every copy reallocates or fits by luck)
    /// and with the slack a decoder reserves.
    #[test]
    fn copy_match_equals_the_byte_loop() {
        let history: Vec<u8> = (0..100u32).map(|i| (i * 89 % 251) as u8).collect();
        for have in [1usize, 15, 16, 17, 33, 100] {
            for dist in 1..=have.min(70) {
                for len in 0..=100 {
                    let mut expected = history[..have].to_vec();
                    for _ in 0..len {
                        expected.push(expected[expected.len() - dist]);
                    }
                    for slack in [0, COPY_SLACK, 1000] {
                        let mut out = Vec::with_capacity(have + len + slack);
                        out.extend_from_slice(&history[..have]);
                        if slack == 0 {
                            out.shrink_to_fit();
                        }
                        copy_match(&mut out, dist, len);
                        assert_eq!(out, expected, "have {have} dist {dist} len {len}");
                    }
                }
            }
        }
    }

    /// With `COPY_SLACK` reserved beyond the final length the copy never
    /// moves the buffer.
    #[test]
    fn copy_match_stays_inside_reserved_slack() {
        for (dist, len) in [(16usize, 1usize), (16, 33), (40, 65), (3, 50), (100, 100)] {
            let mut out = Vec::with_capacity(100 + len + COPY_SLACK);
            out.extend((0..100u8).map(|i| i.wrapping_mul(7)));
            let (ptr, cap) = (out.as_ptr(), out.capacity());
            copy_match(&mut out, dist, len);
            assert_eq!(out.len(), 100 + len);
            assert_eq!(
                (out.as_ptr(), out.capacity()),
                (ptr, cap),
                "dist {dist} len {len}"
            );
        }
    }

    #[test]
    fn random_bytes_round_trip() {
        // Pseudo-random incompressible data: every config must still be exact.
        let mut state = 0x1234_5678u32;
        let data: Vec<u8> = (0..8192)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect();
        for config in [
            Lz77Config::deflate_class(),
            Lz77Config::lzma_class(),
            Lz77Config::snappy_class(),
            Lz77Config::zstd_class(),
        ] {
            round_trip(&data, config);
        }
    }

    #[test]
    fn distances_respect_window() {
        let config = Lz77Config {
            window_log: 8,
            max_chain: 32,
            max_match: 64,
            lazy: false,
            good_enough: 32,
            chain_swap: false,
            split_min: 16 << 10,
        };
        let mut data = b"unique-prefix-0123456789".to_vec();
        data.extend(std::iter::repeat_n(b'x', 1000));
        data.extend_from_slice(b"unique-prefix-0123456789");
        let tokens = parse(&data, config);
        for t in &tokens {
            if let Token::Match { dist, len } = t {
                assert!(*dist as usize <= config.window_size());
                assert!(*len as usize >= MIN_MATCH);
                assert!(*len <= config.max_match);
            }
        }
        assert_eq!(reconstruct(&[], &tokens), data);
    }

    #[test]
    fn dictionary_prefix_enables_cross_references() {
        let dict = b"SELECT upflux, downflux FROM CDR WHERE ts=";
        let payload = b"SELECT upflux, downflux FROM CDR WHERE ts=201601221530";
        let tokens = parse_with_dict(dict, payload, Lz77Config::zstd_class());
        // The payload's long shared prefix should be one big match into the dict.
        assert!(matches!(tokens[0], Token::Match { .. }));
        assert_eq!(reconstruct(dict, &tokens), payload);
    }

    #[test]
    fn lazy_matching_still_exact_on_adversarial_input() {
        // Alternating near-matches exercise the lazy path.
        let mut data = Vec::new();
        for i in 0..300u32 {
            data.extend_from_slice(b"abcabcab");
            data.push((i % 7) as u8 + b'0');
            data.extend_from_slice(b"bcabcabc");
        }
        round_trip(&data, Lz77Config::deflate_class());
        round_trip(&data, Lz77Config::lzma_class());
    }
}
