//! SHA-256 from scratch, per FIPS 180-4.
//!
//! The paper instantiates its random oracles with "a cryptographic hash
//! function, such as SHA-2 \[40\]". We implement SHA-256 directly rather than
//! pulling a dependency: it keeps the workspace's trust base explicit, and
//! the unit tests pin it to the NIST vectors so the protocol layers above
//! can rely on exact, portable output.
//!
//! Padding lives here only: `Sha256::finalize` pads a streamed message,
//! and `one_block_state` pads a message shorter than 56 bytes in place so
//! it hashes with one compression (the oracle's fixed-width queries). The
//! compression function has two implementations behind one entry point,
//! `compress`:
//!
//! * `compress_soft` — the FIPS 180-4 rounds in plain integer code. It runs
//!   on every host and is the **reference**: the unit tests hash the NIST
//!   vectors through it and compare the other path against it on random
//!   `(state, block)` pairs.
//! * `shani::compress` (x86_64 only) — the same function on the CPU's SHA
//!   extensions (`sha256rnds2`, `sha256msg1`, `sha256msg2`), compiled with
//!   `#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]`.
//!
//! **Dispatch rule:** `compress` takes the SHA-extension path when
//! `is_x86_feature_detected!` reports `sha`, `ssse3` and `sse4.1` at run
//! time (std caches the probe, so each call pays one load and a bit test),
//! and the reference path otherwise. There is no build option or
//! environment switch: both paths produce the same bits, so which one runs
//! is not observable in any output.
//!
//! **The one `unsafe`.** The SHA-extension function uses only value-typed
//! intrinsics (`_mm_set_epi32` loads, `_mm_extract_epi32` stores, no
//! pointers), which are safe inside a `#[target_feature]` function. What
//! is unsafe is *calling* such a function: doing so on a CPU without the
//! features would execute illegal instructions. The single call site sits
//! behind the run-time detection of exactly the features the function
//! enables, which is what makes it sound.

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes (FIPS 180-4 §4.2.2).
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

/// Incremental SHA-256 hasher.
///
/// ```
/// use tg_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), tg_crypto::sha256(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered awaiting a full 64-byte block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0u8; 64], buf_len: 0, total_len: 0 }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        // Top up a partial block first.
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        // Whole blocks straight from the input.
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            compress(&mut self.state, block.try_into().expect("64-byte block"));
            rest = tail;
        }
        // Buffer the remainder.
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit message length. `buf_len`
        // is below 64 here, so the 0x80 always fits; past byte 55 the
        // length spills into a second block.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        digest(&self.state)
    }
}

/// The chaining state after hashing `msg`, which together with its
/// padding fits in one block: the padding is written in place and the
/// block compressed once from the initial state. The first words of the
/// result are the first words of `sha256(&msg)`, for callers that need
/// only a prefix of the digest.
pub(crate) fn one_block_state<const N: usize>(msg: [u8; N]) -> [u32; 8] {
    const { assert!(N < 56, "the message and its padding must fit in one block") };
    let mut block = [0u8; 64];
    block[..N].copy_from_slice(&msg);
    block[N] = 0x80;
    block[56..].copy_from_slice(&(8 * N as u64).to_be_bytes());
    let mut state = H0;
    compress(&mut state, &block);
    state
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// The digest bytes of a final state (big-endian words).
fn digest(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, w) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// The SHA-256 compression function: absorb one 64-byte `block` into
/// `state`, on the CPU's SHA extensions where the host has them and on the
/// reference rounds otherwise (see the module doc for the rule).
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sha")
        && std::is_x86_feature_detected!("ssse3")
        && std::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `shani::compress` enables exactly `sha`, `sse2`, `ssse3`
        // and `sse4.1`. The three that are optional on x86_64 were just
        // detected at run time, and `sse2` is part of the x86_64 baseline.
        #[allow(unsafe_code)]
        unsafe {
            shani::compress(state, block)
        };
        return;
    }
    compress_soft(state, block);
}

/// The reference compression function: FIPS 180-4 §6.2.2 in integer code.
fn compress_soft(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte word"));
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16].wrapping_add(s0).wrapping_add(w[t - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(big_s1).wrapping_add(ch).wrapping_add(K[t]).wrapping_add(w[t]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The compression function on the x86 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Four big-endian message words of `block`, word `4j` in lane 0.
    #[target_feature(enable = "sse2")]
    fn words(block: &[u8; 64], j: usize) -> __m128i {
        let w = |i: usize| {
            i32::from_be_bytes(block[16 * j + 4 * i..][..4].try_into().expect("4-byte word"))
        };
        _mm_set_epi32(w(3), w(2), w(1), w(0))
    }

    /// The same function as `super::compress_soft`. `sha256rnds2` keeps
    /// the working variables as two vectors, `ABEF` and `CDGH` (first
    /// letter in the top lane), and runs two rounds per instruction; the
    /// message schedule advances four words per `msg1`/`msg2` pair.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let s = state.map(|v| v as i32);
        let abef0 = _mm_set_epi32(s[0], s[1], s[4], s[5]);
        let cdgh0 = _mm_set_epi32(s[2], s[3], s[6], s[7]);
        let (mut abef, mut cdgh) = (abef0, cdgh0);
        // The last four groups of four message words, oldest first.
        let mut m = [words(block, 0), words(block, 1), words(block, 2), words(block, 3)];
        for i in 0..16 {
            if i >= 4 {
                // W[t..t+4] from W[t-16..t-12], W[t-12..t-8], W[t-7..t-3]
                // (straddling two vectors) and W[t-4..t].
                let w7 = _mm_alignr_epi8::<4>(m[3], m[2]);
                let next = _mm_add_epi32(_mm_sha256msg1_epu32(m[0], m[1]), w7);
                m = [m[1], m[2], m[3], _mm_sha256msg2_epu32(next, m[3])];
            }
            let w = if i >= 4 { m[3] } else { m[i] };
            let k = |r: usize| K[4 * i + r] as i32;
            let wk = _mm_add_epi32(w, _mm_set_epi32(k(3), k(2), k(1), k(0)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }
        let abef = _mm_add_epi32(abef, abef0);
        let cdgh = _mm_add_epi32(cdgh, cdgh0);
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|v| v as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One-shot SHA-256 on the reference rounds only, whatever the host
    /// supports: the NIST vectors pin this path and `sha256` (the
    /// dispatched one) side by side.
    fn sha256_soft(data: &[u8]) -> [u8; 32] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(64) {
            compress_soft(&mut state, block.try_into().expect("64-byte block"));
        }
        digest(&state)
    }

    /// Both paths' digest of `msg`, asserted equal to `expect`.
    fn assert_both(msg: &[u8], expect: &str) {
        assert_eq!(hex(&sha256_soft(msg)), expect, "reference rounds");
        assert_eq!(hex(&sha256(msg)), expect, "dispatched rounds");
    }

    // NIST FIPS 180-4 / CAVP example vectors.
    #[test]
    fn nist_empty() {
        assert_both(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn nist_abc() {
        assert_both(b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn nist_two_block() {
        assert_both(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_four_block() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_both(msg, "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
    }

    #[test]
    fn nist_million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_both(&msg, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The dispatched compression equals the reference rounds on
        /// arbitrary chaining states and blocks (on a host without SHA
        /// extensions both sides are the reference).
        #[test]
        fn compress_matches_reference(state in any::<[u32; 8]>(), block in any::<[u8; 64]>()) {
            let mut fast = state;
            let mut soft = state;
            compress(&mut fast, &block);
            compress_soft(&mut soft, &block);
            prop_assert_eq!(fast, soft);
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let msg: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let expect = sha256(&msg);
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 200, 300] {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn incremental_byte_by_byte() {
        let msg = b"The quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for &b in msg.iter() {
            h.update(&[b]);
        }
        assert_eq!(
            hex(&h.finalize()),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
        );
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 56-byte padding boundary exercise the
        // two-block finalization path.
        for len in 54..=66usize {
            let msg = vec![0x5au8; len];
            let d1 = sha256(&msg);
            let mut h = Sha256::new();
            h.update(&msg);
            assert_eq!(h.finalize(), d1, "len {len}");
            assert_eq!(d1, sha256_soft(&msg), "len {len}");
        }
    }
}
