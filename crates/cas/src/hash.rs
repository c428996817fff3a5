//! Content addresses: SHA-256 (FIPS 180-4), truncated to 128 bits.
//!
//! Units, packs and manifests are all addressed by the first 16 bytes of
//! their SHA-256 digest. 128 bits keeps manifests half the size of full
//! digests while leaving the birthday bound (2^64) far beyond the counts
//! any simulated warehouse reaches: what is checked is integrity, and a
//! mismatch always means corruption.

use std::fmt;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Full SHA-256 digest of `data`: by the SHA extensions where the CPU
/// reports them, else by the portable compression function.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    sha256_accelerated(data).unwrap_or_else(|| sha256_portable(data))
}

/// SHA-256 by the portable compression function alone, whatever the CPU:
/// the fallback of [`sha256`] and the oracle its accelerated path is
/// tested against.
pub fn sha256_portable(data: &[u8]) -> [u8; 32] {
    digest(compress_portable, data)
}

/// SHA-256 by the x86 SHA extensions alone; `None` where the CPU (or the
/// target) has none.
pub fn sha256_accelerated(data: &[u8]) -> Option<[u8; 32]> {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if shani::available() {
        // SAFETY: `available()` just reported `sha`, `ssse3` and `sse4.1`
        // on this CPU, the only requirement of `shani::compress`.
        return Some(digest(
            |h, blocks| unsafe { shani::compress(h, blocks) },
            data,
        ));
    }
    let _ = data;
    None
}

/// Merkle–Damgård around `compress`: the whole blocks are hashed where
/// they lie, and only the tail (under 64 bytes) is copied, with the
/// padding `0x80 ‖ zeros ‖ bit length`, into one or two blocks on the
/// stack.
fn digest(compress: impl Fn(&mut [u32; 8], &[u8]), data: &[u8]) -> [u8; 32] {
    let mut h = H0;
    let (blocks, tail) = data.split_at(data.len() & !63);
    compress(&mut h, blocks);
    let mut last = [0u8; 128];
    last[..tail.len()].copy_from_slice(tail);
    last[tail.len()] = 0x80;
    let padded = if tail.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    last[padded - 8..padded].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut h, &last[..padded]);

    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

fn compress_portable(h: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    let mut w = [0u32; 64];
    for block in blocks.chunks_exact(64) {
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (i, v) in [a, b, c, d, e, f, g, hh].into_iter().enumerate() {
            h[i] = h[i].wrapping_add(v);
        }
    }
}

/// The compression function on the x86 SHA extensions (Gulley et al.,
/// "Intel SHA Extensions", 2013): `sha256rnds2` runs two rounds on the
/// state held as the register pair ABEF / CDGH, `sha256msg1` and
/// `sha256msg2` extend the message schedule four words at a time.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod shani {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    pub fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Run `state` over the whole 64-byte blocks of `blocks`.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `ssse3` and `sse4.1` ([`available`]).
    #[target_feature(enable = "sha", enable = "sse2", enable = "ssse3", enable = "sse4.1")]
    pub unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // Big-endian words of the message into little-endian lanes.
        let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is 32 readable and writable bytes; `K` is 256
        // readable bytes and `4 * i + 4 <= 64` below; every load and store
        // is the unaligned one.
        let abcd = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().cast()), 0xB1);
        let efgh = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().add(4).cast()), 0x1B);
        let mut abef = _mm_alignr_epi8(abcd, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, abcd, 0xF0);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w = [
                _mm_shuffle_epi8(load(block, 0), swap),
                _mm_shuffle_epi8(load(block, 16), swap),
                _mm_shuffle_epi8(load(block, 32), swap),
                _mm_shuffle_epi8(load(block, 48), swap),
            ];
            // Four rounds a step; from the fifth step on, the step's four
            // schedule words come from the four steps before it.
            for i in 0..16 {
                if i >= 4 {
                    let (w4, w3, w2, w1) =
                        (w[i & 3], w[(i + 1) & 3], w[(i + 2) & 3], w[(i + 3) & 3]);
                    let partial =
                        _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3), _mm_alignr_epi8(w1, w2, 4));
                    w[i & 3] = _mm_sha256msg2_epu32(partial, w1);
                }
                let k = _mm_loadu_si128(super::K.as_ptr().add(4 * i).cast());
                let wk = _mm_add_epi32(w[i & 3], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
        _mm_storeu_si128(
            state.as_mut_ptr().add(4).cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }

    /// The 16 bytes of `bytes` starting at `at` (bounds-checked).
    #[target_feature(enable = "sse2")]
    unsafe fn load(bytes: &[u8], at: usize) -> __m128i {
        let lane: &[u8; 16] = bytes[at..at + 16].try_into().expect("a 16-byte slice");
        // SAFETY: `lane` is 16 readable bytes and the load is the unaligned
        // one.
        _mm_loadu_si128(lane.as_ptr().cast())
    }
}

/// A content address: truncated SHA-256 of the addressed bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkHash(pub [u8; 16]);

impl ChunkHash {
    pub const LEN: usize = 16;

    /// Address of a byte string.
    pub fn of(data: &[u8]) -> Self {
        let full = sha256(data);
        let mut h = [0u8; 16];
        h.copy_from_slice(&full[..16]);
        ChunkHash(h)
    }

    /// Lowercase hex form (32 chars), used in Merkle manifest lines and
    /// error messages.
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl fmt::Display for ChunkHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

impl fmt::Debug for ChunkHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChunkHash({})", self.hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex32(d: [u8; 32]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180-4 / NIST CAVP example messages and their digests.
    fn nist_vectors() -> Vec<(Vec<u8>, &'static str)> {
        vec![
            (
                Vec::new(),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc".to_vec(),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                // 448 bits.
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                // 896 bits.
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
                    .to_vec(),
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                vec![b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ]
    }

    /// Both paths called directly: the portable one always, the SHA
    /// extensions wherever this CPU has them.
    #[test]
    fn nist_vectors_on_both_paths() {
        for (message, expected) in nist_vectors() {
            assert_eq!(hex32(sha256_portable(&message)), expected);
            assert_eq!(hex32(sha256(&message)), expected);
            if let Some(digest) = sha256_accelerated(&message) {
                assert_eq!(hex32(digest), expected);
            }
        }
    }

    /// Every length across the one- and two-block padding boundaries
    /// (55/56, 63/64, 119/120) and a page, at every alignment of the first
    /// byte, on the accelerated path against the portable one.
    #[test]
    fn accelerated_equals_portable_for_every_length() {
        let buf: Vec<u8> = (0..4200u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect();
        for len in (0..=257).chain([4095, 4096, 4097]) {
            for offset in [0, 1, 7, 16] {
                let data = &buf[offset..offset + len];
                let expected = sha256_portable(data);
                assert_eq!(sha256(data), expected, "offset {offset} len {len}");
                if let Some(digest) = sha256_accelerated(data) {
                    assert_eq!(digest, expected, "offset {offset} len {len}");
                }
            }
        }
    }

    #[test]
    fn hex_is_the_address_in_lowercase_digits() {
        let h = ChunkHash::of(b"abc");
        // The first 16 bytes of the NIST digest of "abc".
        assert_eq!(h.hex(), "ba7816bf8f01cfea414140de5dae2223");
        assert_eq!(h.to_string(), h.hex());
    }

    #[test]
    fn distinct_content_distinct_address() {
        assert_ne!(ChunkHash::of(b"a"), ChunkHash::of(b"b"));
        assert_eq!(ChunkHash::of(b"a"), ChunkHash::of(b"a"));
    }
}
