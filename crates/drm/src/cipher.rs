//! XTEA block cipher with a counter (CTR) stream mode — the encryption
//! tool of paper §6.
//!
//! *"Digital rights management uses encryption as a tool but it affects
//! the system architecture from user interface to file management."* The
//! DRM experiments need a real symmetric cipher in the playback path to
//! measure its overhead and to make tampering detectable; XTEA (Needham &
//! Wheeler, 1997) is implemented from scratch here. The point of the DRM
//! crate is the *rights architecture*, not cryptographic novelty; do
//! not reuse this module as a general-purpose security
//! library.
//!
//! Unsealing is the per-byte hot path of every protected viewer, so
//! [`XteaCtr::apply`] does not run the block cipher one counter at a
//! time. CTR counter blocks are independent and every block uses the
//! same 64 round words (`sum + k[..]`), so `apply` computes those words
//! once per call and encrypts a group of `LANES` (32) counters at a time
//! in structure-of-arrays form: lane `j` of `v0`/`v1` holds the two
//! halves of counter `i + j`, and each Feistel half-round is one pass
//! over the group's lanes. Plain `wrapping_add`/shift/xor over
//! `[u32; LANES]` leaves the choice of vectors to the compiler. The
//! lane count was picked by timing a 64 KiB apply on a 2-CPU x86_64 host
//! (medians of 15): 172 µs at 8 lanes, 126 µs at 16, 103 µs at 32 and
//! 99 µs at 64; over segment-sized buffers (3–40 KB) 32 and 64 lanes
//! tied, and 32 leaves a shorter tail. A trailing partial group runs
//! one more full group and XORs only the bytes present.
//!
//! The group loop is built in two copies, and [`XteaCtr::apply`] picks
//! one per process at run time ([`signal::simd`]). The baseline copy
//! ([`XteaCtr::apply_baseline`]) runs on any x86_64 CPU; its lane
//! rounds stay out of line so that they pack into 4-wide SSE2 vectors.
//! Where the CPU has AVX-512F, the other copy inlines them and they pack
//! into 16-wide vectors. On a 2-CPU AVX-512F Xeon host, eight
//! `exp e20_stream` runs read medians of 345 MB/s for the baseline copy
//! and 1,080 MB/s for the AVX-512F copy over 64 KiB (3.1x).
//! [`XteaCtr::apply_blockwise`] is the one-block-at-a-time loop kept as
//! the oracle that both copies must equal byte for byte.

/// A 128-bit key.
pub type Key = [u8; 16];

/// XTEA rounds (the recommended 32 cycles = 64 Feistel rounds).
const ROUNDS: u32 = 32;
const DELTA: u32 = 0x9E37_79B9;
/// Counter blocks [`XteaCtr::apply`] encrypts together, one per lane.
const LANES: usize = 32;

/// The 64 round words of one encryption (see [`Xtea::round_words`]).
type RoundWords = [u32; 2 * ROUNDS as usize];

/// One Feistel half-round's mixing function.
fn mix(v: u32) -> u32 {
    ((v << 4) ^ (v >> 5)).wrapping_add(v)
}

/// The XTEA block cipher.
#[derive(Debug, Clone, Copy)]
pub struct Xtea {
    k: [u32; 4],
}

impl Xtea {
    /// Creates a cipher from a 128-bit key.
    #[must_use]
    pub fn new(key: &Key) -> Self {
        let mut k = [0u32; 4];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            k[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        Self { k }
    }

    /// Encrypts one 64-bit block.
    #[must_use]
    pub fn encrypt_block(&self, block: u64) -> u64 {
        let mut v0 = (block >> 32) as u32;
        let mut v1 = block as u32;
        let mut sum = 0u32;
        for _ in 0..ROUNDS {
            v0 = v0.wrapping_add(
                (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                    ^ (sum.wrapping_add(self.k[(sum & 3) as usize])),
            );
            sum = sum.wrapping_add(DELTA);
            v1 = v1.wrapping_add(
                (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                    ^ (sum.wrapping_add(self.k[((sum >> 11) & 3) as usize])),
            );
        }
        ((v0 as u64) << 32) | v1 as u64
    }

    /// The 64 round words of an encryption, in the order
    /// [`Xtea::encrypt_block`] consumes them: `w[2r]` keys cycle `r`'s
    /// `v0` half-round and `w[2r + 1]` its `v1` half-round.
    fn round_words(&self) -> RoundWords {
        let mut w = [0u32; 2 * ROUNDS as usize];
        let mut sum = 0u32;
        for pair in w.chunks_exact_mut(2) {
            pair[0] = sum.wrapping_add(self.k[(sum & 3) as usize]);
            sum = sum.wrapping_add(DELTA);
            pair[1] = sum.wrapping_add(self.k[((sum >> 11) & 3) as usize]);
        }
        w
    }

    /// Decrypts one 64-bit block.
    #[must_use]
    pub fn decrypt_block(&self, block: u64) -> u64 {
        let mut v0 = (block >> 32) as u32;
        let mut v1 = block as u32;
        let mut sum = DELTA.wrapping_mul(ROUNDS);
        for _ in 0..ROUNDS {
            v1 = v1.wrapping_sub(
                (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                    ^ (sum.wrapping_add(self.k[((sum >> 11) & 3) as usize])),
            );
            sum = sum.wrapping_sub(DELTA);
            v0 = v0.wrapping_sub(
                (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                    ^ (sum.wrapping_add(self.k[(sum & 3) as usize])),
            );
        }
        ((v0 as u64) << 32) | v1 as u64
    }
}

/// Runs the 32 cycles on `LANES` blocks at once: lane `j` holds block
/// `j`'s halves in `v0[j]`/`v1[j]`.
#[inline(always)]
fn lane_rounds(words: &RoundWords, v0: &mut [u32; LANES], v1: &mut [u32; LANES]) {
    for w in words.chunks_exact(2) {
        for j in 0..LANES {
            v0[j] = v0[j].wrapping_add(mix(v1[j]) ^ w[0]);
        }
        for j in 0..LANES {
            v1[j] = v1[j].wrapping_add(mix(v0[j]) ^ w[1]);
        }
    }
}

/// [`lane_rounds`] as the baseline copy calls it, kept out of line on
/// purpose: alone, the vectorizer sees only these `[u32; LANES]` rounds
/// and packs them four lanes per SSE2 register; inlined next to the
/// caller's 64-bit keystream packing, it chose two-lane vectors and ran
/// about half as fast. The AVX-512F copy must inline the rounds, since
/// an out-of-line callee is built for the baseline target.
#[inline(never)]
fn encrypt_lanes(words: &RoundWords, v0: &mut [u32; LANES], v1: &mut [u32; LANES]) {
    lane_rounds(words, v0, v1);
}

/// XTEA in counter mode: a symmetric keystream cipher (encrypt ==
/// decrypt). The nonce separates streams under the same key.
#[derive(Debug, Clone, Copy)]
pub struct XteaCtr {
    cipher: Xtea,
    nonce: u32,
}

impl XteaCtr {
    /// Creates a CTR-mode cipher.
    #[must_use]
    pub fn new(key: &Key, nonce: u32) -> Self {
        Self {
            cipher: Xtea::new(key),
            nonce,
        }
    }

    /// The counter block for block index `i`. A stream holds 2^32
    /// blocks per nonce: an index of 2^32 or more ORs into the nonce
    /// half, exactly as in the original per-block loop, which both
    /// paths reproduce.
    fn counter(&self, i: u64) -> u64 {
        (u64::from(self.nonce) << 32) | i
    }

    /// Encrypts or decrypts `data` in place (CTR is an involution), with
    /// the widest copy of the lane loop this CPU runs (see
    /// [`signal::simd`]). Equal byte for byte to
    /// [`XteaCtr::apply_blockwise`].
    pub fn apply(&self, data: &mut [u8]) {
        self.apply_from(data, 0);
    }

    /// [`XteaCtr::apply`] forced to the baseline copy, which runs on any
    /// host: public so tests and benchmarks can check and time both
    /// copies.
    pub fn apply_baseline(&self, data: &mut [u8]) {
        self.apply_baseline_from(data, 0);
    }

    /// [`XteaCtr::apply`] with `data` starting at keystream block `first`.
    fn apply_from(&self, data: &mut [u8], first: u64) {
        signal::simd::dispatch(
            #[inline(always)]
            || self.apply_lanes(data, first, lane_rounds),
        );
    }

    fn apply_baseline_from(&self, data: &mut [u8], first: u64) {
        self.apply_lanes(data, first, encrypt_lanes);
    }

    /// The body of both copies: `LANES` counters per pass through
    /// `encrypt`. A trailing partial group runs one more full pass and
    /// XORs only the bytes present; CTR blocks are independent, so the
    /// unused lanes change nothing.
    #[inline(always)]
    fn apply_lanes(
        &self,
        data: &mut [u8],
        first: u64,
        encrypt: impl Fn(&RoundWords, &mut [u32; LANES], &mut [u32; LANES]),
    ) {
        let words = self.cipher.round_words();
        let mut groups = data.chunks_exact_mut(8 * LANES);
        let mut i = first;
        for group in &mut groups {
            let (v0, v1) = self.keystream(&words, i, &encrypt);
            for (j, block) in group.chunks_exact_mut(8).enumerate() {
                let ks = (u64::from(v0[j]) << 32) | u64::from(v1[j]);
                let bytes: [u8; 8] = block.try_into().expect("8-byte block");
                block.copy_from_slice(&(u64::from_be_bytes(bytes) ^ ks).to_be_bytes());
            }
            i += LANES as u64;
        }
        let tail = groups.into_remainder();
        if !tail.is_empty() {
            let (v0, v1) = self.keystream(&words, i, &encrypt);
            for (j, block) in tail.chunks_mut(8).enumerate() {
                let ks = ((u64::from(v0[j]) << 32) | u64::from(v1[j])).to_be_bytes();
                for (b, k) in block.iter_mut().zip(ks) {
                    *b ^= k;
                }
            }
        }
    }

    /// The keystream of blocks `i..i + LANES` as lanes `v0`/`v1`: `LANES`
    /// counters through one pass of `encrypt`.
    #[inline(always)]
    fn keystream(
        &self,
        words: &RoundWords,
        i: u64,
        encrypt: impl Fn(&RoundWords, &mut [u32; LANES], &mut [u32; LANES]),
    ) -> ([u32; LANES], [u32; LANES]) {
        let mut v0 = [0u32; LANES];
        let mut v1 = [0u32; LANES];
        for j in 0..LANES {
            let counter = self.counter(i + j as u64);
            v0[j] = (counter >> 32) as u32;
            v1[j] = counter as u32;
        }
        encrypt(words, &mut v0, &mut v1);
        (v0, v1)
    }

    /// The per-block CTR loop: one [`Xtea::encrypt_block`] per 8 bytes.
    /// The oracle [`XteaCtr::apply`] must equal, public so benchmarks can
    /// time the two side by side.
    pub fn apply_blockwise(&self, data: &mut [u8]) {
        self.apply_blockwise_from(data, 0);
    }

    fn apply_blockwise_from(&self, data: &mut [u8], first: u64) {
        for (i, chunk) in (first..).zip(data.chunks_mut(8)) {
            let ks = self.cipher.encrypt_block(self.counter(i)).to_be_bytes();
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }

    /// Convenience: returns an encrypted/decrypted copy.
    #[must_use]
    pub fn applied(&self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal::rng::Xoroshiro128;

    const KEY: Key = [
        0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE,
        0xFF,
    ];

    #[test]
    fn block_round_trip() {
        let c = Xtea::new(&KEY);
        let mut rng = Xoroshiro128::new(81);
        for _ in 0..100 {
            let p = rng.next_u64();
            assert_eq!(c.decrypt_block(c.encrypt_block(p)), p);
        }
    }

    #[test]
    fn encryption_actually_changes_data() {
        let c = Xtea::new(&KEY);
        assert_ne!(c.encrypt_block(0), 0);
        assert_ne!(c.encrypt_block(1), c.encrypt_block(2));
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let mut k2 = KEY;
        k2[0] ^= 1;
        let a = Xtea::new(&KEY).encrypt_block(0x1234_5678_9ABC_DEF0);
        let b = Xtea::new(&k2).encrypt_block(0x1234_5678_9ABC_DEF0);
        assert_ne!(a, b);
    }

    #[test]
    fn ctr_is_an_involution() {
        let ctr = XteaCtr::new(&KEY, 7);
        let msg = b"the content of a protected title".to_vec();
        let enc = ctr.applied(&msg);
        assert_ne!(enc, msg);
        assert_eq!(ctr.applied(&enc), msg);
    }

    #[test]
    fn ctr_handles_partial_blocks() {
        let ctr = XteaCtr::new(&KEY, 1);
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17] {
            let msg: Vec<u8> = (0..len as u8).collect();
            assert_eq!(ctr.applied(&ctr.applied(&msg)), msg, "len {len}");
        }
    }

    #[test]
    fn nonces_separate_streams() {
        let a = XteaCtr::new(&KEY, 1).applied(b"same plaintext bytes");
        let b = XteaCtr::new(&KEY, 2).applied(b"same plaintext bytes");
        assert_ne!(a, b);
    }

    #[test]
    fn keystream_looks_balanced() {
        // Not a randomness proof — just a sanity check that the keystream
        // is not degenerate.
        let ctr = XteaCtr::new(&KEY, 3);
        let zeros = vec![0u8; 4096];
        let ks = ctr.applied(&zeros);
        let ones: u32 = ks.iter().map(|b| b.count_ones()).sum();
        let frac = ones as f64 / (4096.0 * 8.0);
        assert!((frac - 0.5).abs() < 0.02, "bit balance {frac}");
    }

    #[test]
    fn round_words_reproduce_the_block_cipher() {
        // One lane-path pass over a single counter equals encrypt_block.
        let c = Xtea::new(&KEY);
        let words = c.round_words();
        let mut rng = Xoroshiro128::new(82);
        for _ in 0..64 {
            let block = rng.next_u64();
            let (mut v0, mut v1) = ((block >> 32) as u32, block as u32);
            for w in words.chunks_exact(2) {
                v0 = v0.wrapping_add(mix(v1) ^ w[0]);
                v1 = v1.wrapping_add(mix(v0) ^ w[1]);
            }
            assert_eq!(
                (u64::from(v0) << 32) | u64::from(v1),
                c.encrypt_block(block)
            );
        }
    }

    /// A copy of the lane path, as [`XteaCtr::apply_from`] is called.
    type LanePath = fn(&XteaCtr, &mut [u8], u64);

    /// Both copies of the lane path: the baseline copy, called directly
    /// on every host, and the copy [`XteaCtr::apply`] dispatches to
    /// (AVX-512F where the CPU has it, else the baseline again).
    fn copies() -> [(String, LanePath); 2] {
        let wide = format!("dispatched {}-bit", signal::simd::vector_bits());
        println!("XTEA-CTR copies checked: baseline 128-bit, {wide}");
        [
            ("baseline 128-bit".to_string(), XteaCtr::apply_baseline_from),
            (wide, XteaCtr::apply_from),
        ]
    }

    #[test]
    fn lane_path_equals_the_blockwise_oracle() {
        // Random keys, boundary nonces and every length up to four full
        // lane groups: three whole groups followed by every tail length,
        // at any `LANES`, match the per-block loop byte for byte, in
        // both copies.
        let copies = copies();
        let mut rng = Xoroshiro128::new(83);
        for case in 0..12u32 {
            let mut key = [0u8; 16];
            key.iter_mut().for_each(|b| *b = rng.next_u32() as u8);
            let nonce = match case {
                0 => 0,
                1 => u32::MAX,
                _ => rng.next_u32(),
            };
            let ctr = XteaCtr::new(&key, nonce);
            let data: Vec<u8> = (0..=4 * 8 * LANES).map(|_| rng.next_u32() as u8).collect();
            for len in 0..=data.len() {
                let mut oracle = data[..len].to_vec();
                ctr.apply_blockwise(&mut oracle);
                for (copy, apply_from) in &copies {
                    let mut fast = data[..len].to_vec();
                    apply_from(&ctr, &mut fast, 0);
                    assert_eq!(fast, oracle, "{copy}: key {key:?} nonce {nonce} len {len}");
                }
            }
        }
    }

    #[test]
    fn lane_path_matches_the_oracle_past_two_to_the_32_blocks() {
        // Block indices at and beyond 2^32 OR into the nonce half; both
        // copies of the lane path must form them with the same
        // expression, in whole groups and in the tail.
        let copies = copies();
        for nonce in [0u32, 5, u32::MAX] {
            let ctr = XteaCtr::new(&KEY, nonce);
            for first in [(1u64 << 32) - 13, 1 << 32, (1 << 33) + 3] {
                let mut oracle: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
                let data = oracle.clone();
                ctr.apply_blockwise_from(&mut oracle, first);
                for (copy, apply_from) in &copies {
                    let mut fast = data.clone();
                    apply_from(&ctr, &mut fast, first);
                    assert_eq!(fast, oracle, "{copy}: nonce {nonce} first block {first}");
                }
            }
        }
    }
}
