//! CRC-32 (IEEE 802.3 polynomial, reflected) used by every container format
//! in this crate to detect corruption of stored snapshots.

/// Reflected polynomial of CRC-32/ISO-HDLC, the same variant GZIP uses.
const POLY: u32 = 0xEDB8_8320;

/// 8 slice-by tables; table[0] is the classic byte table.
struct Tables([[u32; 256]; 8]);

const fn build_tables() -> Tables {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    Tables(t)
}

static TABLES: Tables = build_tables();

/// Advance the raw (uninverted) CRC register over `data`, 8 bytes per
/// step (slice-by-8). The portable path, and the reference the folded path
/// is tested against.
fn update_slice8(mut crc: u32, mut data: &[u8]) -> u32 {
    let t = &TABLES.0;
    while data.len() >= 8 {
        let lo = crc ^ u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
        let hi = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
        data = &data[8..];
    }
    for &b in data {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009).
///
/// The message is a polynomial over GF(2); 64 bytes of it live in four
/// 128-bit lanes. Folding a lane forward by `n` bits multiplies its two
/// halves by `x^(n+32) mod P` and `x^(n-32) mod P` and XORs the products
/// into the data `n` bits ahead, which leaves the remainder mod P
/// unchanged. The four lanes fold 512 bits at a time over the bulk, then
/// into one lane, and a Barrett reduction takes that to 32 bits. All
/// constants are the paper's, for the reflected polynomial 0xEDB88320 in
/// its bit-reflected domain.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod clmul {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Shortest input the folded path takes: two 64-byte blocks.
    pub const MIN_LEN: usize = 128;

    /// x^(512+32) mod P and x^(512-32) mod P: fold a lane 512 bits ahead.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) mod P and x^(128-32) mod P: fold a lane 128 bits ahead.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: fold 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// P itself and mu = floor(x^64 / P), for the Barrett reduction.
    const POLY: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    pub fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advance the raw CRC register over the largest prefix of `data` that
    /// is a multiple of 16 bytes; returns the register and the < 16 bytes
    /// left over.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1` ([`available`]).
    /// `data.len() >= MIN_LEN` is checked, not assumed.
    #[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
    pub unsafe fn update(crc: u32, data: &[u8]) -> (u32, &[u8]) {
        assert!(data.len() >= MIN_LEN);
        let (first, rest) = data.split_at(64);
        let mut x0 = _mm_xor_si128(load(first, 0), _mm_cvtsi32_si128(crc as i32));
        let (mut x1, mut x2, mut x3) = (load(first, 16), load(first, 32), load(first, 48));
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            x0 = fold(x0, load(block, 0), k1k2);
            x1 = fold(x1, load(block, 16), k1k2);
            x2 = fold(x2, load(block, 32), k1k2);
            x3 = fold(x3, load(block, 48), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x0, x1, k3k4);
        x = fold(x, x2, k3k4);
        x = fold(x, x3, k3k4);
        let mut lanes = blocks.remainder().chunks_exact(16);
        for lane in &mut lanes {
            x = fold(x, load(lane, 0), k3k4);
        }
        let tail = lanes.remainder();

        // 128 bits -> 96 -> 64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: 64 bits -> the 32-bit remainder.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), poly_mu, 0x00);
        (_mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32, tail)
    }

    /// `a` folded 128 or 512 bits ahead (by `keys`) into `b`.
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    unsafe fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
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

/// Streaming CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feed bytes into the hash: by carry-less multiplication where the
    /// CPU reports it and the slice is long enough to fold, else
    /// slice-by-8.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if data.len() >= clmul::MIN_LEN && clmul::available() {
            // SAFETY: `available()` just reported `pclmulqdq` and `sse4.1`
            // on this CPU, the only requirement of `clmul::update`.
            let (state, tail) = unsafe { clmul::update(self.state, data) };
            self.state = update_slice8(state, tail);
            return;
        }
        self.state = update_slice8(self.state, data);
    }

    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 131 % 251) as u8).collect();
        let oneshot = crc32(&data);
        for chunk in [1usize, 3, 7, 8, 64, 1000] {
            let mut h = Crc32::new();
            for part in data.chunks(chunk) {
                h.update(part);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    /// The portable path alone, whatever the CPU.
    fn crc32_slice8(data: &[u8]) -> u32 {
        !update_slice8(0xFFFF_FFFF, data)
    }

    #[test]
    fn slice8_matches_known_vectors() {
        assert_eq!(crc32_slice8(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_slice8(b""), 0);
    }

    /// `crc32` folds with CLMUL where the CPU has it (elsewhere this
    /// compares slice-by-8 with itself): every length across the 128-byte
    /// threshold and the 64- and 16-byte lane boundaries, at every
    /// alignment of the first byte.
    #[test]
    fn folded_equals_slice8_for_every_length_and_offset() {
        let buf: Vec<u8> = (0..320u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for offset in 0..16 {
            for len in 0..=300 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), crc32_slice8(data), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn folded_equals_slice8_for_every_streaming_split() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * i % 253) as u8).collect();
        let expected = crc32_slice8(&data);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"telco snapshot 2016-01-22T15:30".to_vec();
        let before = crc32(&data);
        data[5] ^= 0x01;
        assert_ne!(crc32(&data), before);
    }
}
