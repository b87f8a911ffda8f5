//! A from-scratch 256-bit Merkle–Damgård hash and a keyed MAC.
//!
//! License integrity (§6: authorizations must not be "easily subverted")
//! needs a fingerprint function. This is a simple ARX compression function
//! in a Merkle–Damgård chain with length padding, plus an HMAC-style
//! keyed construction. It is *deterministic and collision-resistant
//! enough for the workspace's experiments*, not a vetted cryptographic
//! hash — the DRM architecture, not the primitive, is the object of
//! study.

/// A 256-bit digest.
pub type Digest = [u8; 32];

const IV: [u64; 4] = [
    0x6A09_E667_F3BC_C908,
    0xBB67_AE85_84CA_A73B,
    0x3C6E_F372_FE94_F82B,
    0xA54F_F53A_5F1D_36F1,
];

fn mix(state: &mut [u64; 4], block: &[u64; 8]) {
    let mut a = state[0];
    let mut b = state[1];
    let mut c = state[2];
    let mut d = state[3];
    for (i, &w) in block.iter().enumerate() {
        a = a.wrapping_add(w).wrapping_add(b ^ (c.rotate_left(17)));
        a = a.rotate_left(23) ^ d;
        b = b.wrapping_add(a).rotate_left(29);
        c = (c ^ a).wrapping_add(w.rotate_left((i as u32 * 7) % 63 + 1));
        d = d.rotate_left(31).wrapping_add(b ^ w);
        // One extra diffusion stir.
        let t = a;
        a = b;
        b = c;
        c = d;
        d = t;
    }
    state[0] ^= a.wrapping_add(IV[0]);
    state[1] = state[1].wrapping_add(b ^ IV[1]);
    state[2] ^= c.wrapping_add(IV[2]);
    state[3] = state[3].wrapping_add(d ^ IV[3]);
}

/// Hashes a byte string to a 256-bit digest.
#[must_use]
pub fn hash(data: &[u8]) -> Digest {
    let mut state = IV;
    // Process 64-byte blocks; final block padded with 0x80, zeros, and the
    // 64-bit message length.
    let mut padded = data.to_vec();
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&(data.len() as u64).to_be_bytes());
    for block_bytes in padded.chunks_exact(64) {
        let mut block = [0u64; 8];
        for (i, w) in block_bytes.chunks_exact(8).enumerate() {
            block[i] = u64::from_be_bytes(w.try_into().expect("8 bytes"));
        }
        mix(&mut state, &block);
        // Second pass over the same block for extra diffusion.
        mix(&mut state, &block);
    }
    let mut out = [0u8; 32];
    for (i, s) in state.iter().enumerate() {
        out[i * 8..(i + 1) * 8].copy_from_slice(&s.to_be_bytes());
    }
    out
}

/// HMAC-style keyed MAC: `H(key_opad || H(key_ipad || message))`.
#[must_use]
pub fn mac(key: &[u8], message: &[u8]) -> Digest {
    let mut k = [0u8; 64];
    let kh;
    let key_bytes = if key.len() > 64 {
        kh = hash(key);
        &kh[..]
    } else {
        key
    };
    k[..key_bytes.len()].copy_from_slice(key_bytes);
    let ipad: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
    let opad: Vec<u8> = k.iter().map(|b| b ^ 0x5C).collect();
    let mut inner = ipad;
    inner.extend_from_slice(message);
    let inner_digest = hash(&inner);
    let mut outer = opad;
    outer.extend_from_slice(&inner_digest);
    hash(&outer)
}

/// Constant-time-ish digest comparison (full scan regardless of
/// mismatch position).
#[must_use]
pub fn digest_eq(a: &Digest, b: &Digest) -> bool {
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal::rng::Xoroshiro128;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        assert_eq!(hash(b"hello"), hash(b"hello"));
        assert_eq!(mac(b"k", b"m"), mac(b"k", b"m"));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        let mut seen = HashSet::new();
        let mut rng = Xoroshiro128::new(82);
        for i in 0u32..2000 {
            // Unique prefix guarantees distinct inputs; random tail varies
            // lengths and content.
            let len = rng.below(100) as usize;
            let mut data = i.to_be_bytes().to_vec();
            data.extend((0..len).map(|_| rng.next_u32() as u8));
            seen.insert(hash(&data));
        }
        // With any reasonable mixing, 2000 distinct inputs do not collide.
        assert_eq!(seen.len(), 2000, "collisions: {}", 2000 - seen.len());
    }

    #[test]
    fn single_bit_flip_avalanches() {
        let a = hash(b"a protected title's license body");
        let mut flipped = b"a protected title's license body".to_vec();
        flipped[3] ^= 1;
        let b = hash(&flipped);
        let differing: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
        assert!(differing > 80, "only {differing}/256 bits changed");
    }

    #[test]
    fn length_extension_padding_distinguishes() {
        // Message vs message + 0x80 (which mimics padding) must differ.
        assert_ne!(hash(b"abc"), hash(b"abc\x80"));
        assert_ne!(hash(b""), hash(b"\x00"));
    }

    #[test]
    fn mac_depends_on_key_and_message() {
        let m = mac(b"secret", b"message");
        assert_ne!(m, mac(b"secret2", b"message"));
        assert_ne!(m, mac(b"secret", b"message2"));
    }

    #[test]
    fn long_keys_are_hashed_down() {
        let long_key = vec![7u8; 200];
        let m = mac(&long_key, b"x");
        assert_ne!(m, mac(&[7u8; 199], b"x"));
    }

    #[test]
    fn digest_eq_detects_any_difference() {
        let a = hash(b"x");
        let mut b = a;
        assert!(digest_eq(&a, &b));
        b[31] ^= 0x01;
        assert!(!digest_eq(&a, &b));
    }
}
