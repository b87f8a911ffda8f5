//! 8×8 two-dimensional DCT: fast separable butterfly, plus a direct
//! oracle.
//!
//! Paper §3: the DCT *"is a frequency transform with the advantage that a
//! 2-D DCT can be computed from two 1-D DCTs"*. [`Dct2d::forward`] is that
//! row–column composition, specialised to the fixed-size 8-point
//! butterfly of [`signal::dct8`] (29 multiplies per 1-D transform instead
//! of the 64 of the generic matrix [`signal::dct1d::Dct1d`]); everything
//! runs on stack scratch, with no heap allocation per block. Both 1-D
//! transforms are inlined into the passes; each line still runs the
//! scalar butterfly's operations in order (Rust never contracts them
//! into FMAs), so inlining changes no output bit.
//! [`forward_direct`] is the naive O(N⁴) evaluation kept as the
//! correctness oracle and as the baseline of experiment E4; the matrix
//! `Dct1d` remains in `signal` as the 1-D oracle the property suite pins
//! the butterfly against.

use signal::dct8::{fdct8, idct8};

use crate::quant::round_clamp;

/// Block size used throughout the video codec.
pub const BLOCK: usize = 8;

/// The 8×8 2-D DCT (separable row–column butterfly implementation).
///
/// # Example
///
/// ```
/// use video::dct::{Dct2d, BLOCK};
///
/// let dct = Dct2d::new();
/// let block = [128.0; BLOCK * BLOCK];
/// let coeffs = dct.forward(&block);
/// assert!((coeffs[0] - 1024.0).abs() < 1e-9); // DC = 8 * mean
/// assert!(coeffs[1..].iter().all(|c| c.abs() < 1e-9));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Dct2d;

impl Dct2d {
    /// Creates the transform (stateless — the 8-point butterfly needs no
    /// planning).
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Forward 2-D DCT via rows then columns of the fast 8-point
    /// butterfly.
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != 64`.
    #[must_use]
    pub fn forward(&self, block: &[f64]) -> [f64; BLOCK * BLOCK] {
        assert_eq!(block.len(), BLOCK * BLOCK, "expected an 8x8 block");
        let mut tmp = [0.0; BLOCK * BLOCK];
        let mut line = [0.0; BLOCK];
        // Rows.
        for r in 0..BLOCK {
            line.copy_from_slice(&block[r * BLOCK..(r + 1) * BLOCK]);
            tmp[r * BLOCK..(r + 1) * BLOCK].copy_from_slice(&fdct8(&line));
        }
        // Columns.
        let mut out = [0.0; BLOCK * BLOCK];
        for c in 0..BLOCK {
            for r in 0..BLOCK {
                line[r] = tmp[r * BLOCK + c];
            }
            let t = fdct8(&line);
            for r in 0..BLOCK {
                out[r * BLOCK + c] = t[r];
            }
        }
        out
    }

    /// Inverse 2-D DCT (row–column butterfly).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != 64`.
    #[must_use]
    pub fn inverse(&self, coeffs: &[f64]) -> [f64; BLOCK * BLOCK] {
        assert_eq!(coeffs.len(), BLOCK * BLOCK, "expected an 8x8 block");
        let mut tmp = [0.0; BLOCK * BLOCK];
        let mut line = [0.0; BLOCK];
        // Columns first (order is irrelevant for separable transforms).
        for c in 0..BLOCK {
            for r in 0..BLOCK {
                line[r] = coeffs[r * BLOCK + c];
            }
            let t = idct8(&line);
            for r in 0..BLOCK {
                tmp[r * BLOCK + c] = t[r];
            }
        }
        let mut out = [0.0; BLOCK * BLOCK];
        for r in 0..BLOCK {
            line.copy_from_slice(&tmp[r * BLOCK..(r + 1) * BLOCK]);
            out[r * BLOCK..(r + 1) * BLOCK].copy_from_slice(&idct8(&line));
        }
        out
    }

    /// Inverse transform back to clamped `u8` pixels (undoes the −128
    /// level shift).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != 64`.
    #[must_use]
    pub fn inverse_to_pixels(&self, coeffs: &[f64]) -> [u8; BLOCK * BLOCK] {
        let f = self.inverse(coeffs);
        let mut out = [0u8; BLOCK * BLOCK];
        for (o, &v) in out.iter_mut().zip(f.iter()) {
            *o = round_clamp(v + 128.0, 0.0, 255.0) as u8;
        }
        out
    }
}

/// Direct O(N⁴) 2-D DCT — the correctness oracle and E4 baseline.
///
/// # Panics
///
/// Panics if `block.len() != 64`.
#[must_use]
pub fn forward_direct(block: &[f64]) -> [f64; BLOCK * BLOCK] {
    assert_eq!(block.len(), BLOCK * BLOCK, "expected an 8x8 block");
    let n = BLOCK;
    let mut out = [0.0; BLOCK * BLOCK];
    for u in 0..n {
        for v in 0..n {
            let cu = if u == 0 {
                (1.0 / n as f64).sqrt()
            } else {
                (2.0 / n as f64).sqrt()
            };
            let cv = if v == 0 {
                (1.0 / n as f64).sqrt()
            } else {
                (2.0 / n as f64).sqrt()
            };
            let mut acc = 0.0;
            for x in 0..n {
                for y in 0..n {
                    acc += block[x * n + y]
                        * (core::f64::consts::PI * (2 * x + 1) as f64 * u as f64 / (2 * n) as f64)
                            .cos()
                        * (core::f64::consts::PI * (2 * y + 1) as f64 * v as f64 / (2 * n) as f64)
                            .cos();
                }
            }
            out[u * n + v] = cu * cv * acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use signal::rng::Xoroshiro128;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The libm-free pixel inverse rounds and clamps exactly like
        /// `(v + 128.0).round().clamp(0.0, 255.0) as u8`.
        #[test]
        fn inverse_to_pixels_rounds_like_libm(block in prop::collection::vec(-2048.0f64..2048.0, 64)) {
            let dct = Dct2d::new();
            let pixels = dct.inverse(&block).map(|v| (v + 128.0).round().clamp(0.0, 255.0) as u8);
            prop_assert_eq!(dct.inverse_to_pixels(&block), pixels);
        }
    }

    #[test]
    fn rowcol_matches_direct() {
        let mut rng = Xoroshiro128::new(11);
        let dct = Dct2d::new();
        for _ in 0..20 {
            let block: Vec<f64> = (0..64).map(|_| rng.range_f64(-128.0, 127.0)).collect();
            let fast = dct.forward(&block);
            let slow = forward_direct(&block);
            for (a, b) in fast.iter().zip(slow.iter()) {
                assert!((a - b).abs() < 1e-8, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let mut rng = Xoroshiro128::new(12);
        let dct = Dct2d::new();
        let block: Vec<f64> = (0..64).map(|_| rng.range_f64(-128.0, 127.0)).collect();
        let back = dct.inverse(&dct.forward(&block));
        for (a, b) in block.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn pixel_round_trip_exact_for_smooth_blocks() {
        let dct = Dct2d::new();
        let pixels: Vec<u8> = (0..64).map(|i| (100 + (i % 8) * 2) as u8).collect();
        let shifted: Vec<f64> = pixels.iter().map(|&p| p as f64 - 128.0).collect();
        let back = dct.inverse_to_pixels(&dct.forward(&shifted));
        for (a, b) in pixels.iter().zip(back.iter()) {
            assert!((*a as i32 - *b as i32).abs() <= 1);
        }
    }

    #[test]
    fn energy_compaction_on_smooth_ramp() {
        // A horizontal ramp: energy should concentrate in the first row of
        // coefficients (low vertical frequency).
        let dct = Dct2d::new();
        let block: Vec<f64> = (0..64).map(|i| (i % 8) as f64 * 10.0).collect();
        let c = dct.forward(&block);
        let low: f64 = c[..8].iter().map(|v| v * v).sum();
        let total: f64 = c.iter().map(|v| v * v).sum();
        assert!(low / total > 0.99, "ramp energy should be in row 0");
    }

    #[test]
    fn dc_coefficient_is_scaled_mean() {
        let dct = Dct2d::new();
        let block = [50.0; 64];
        let c = dct.forward(&block);
        // Orthonormal: DC = mean * 8.
        assert!((c[0] - 400.0).abs() < 1e-9);
    }

    #[test]
    fn parseval_in_2d() {
        let mut rng = Xoroshiro128::new(13);
        let dct = Dct2d::new();
        let block: Vec<f64> = (0..64).map(|_| rng.normal()).collect();
        let c = dct.forward(&block);
        let e_time: f64 = block.iter().map(|v| v * v).sum();
        let e_freq: f64 = c.iter().map(|v| v * v).sum();
        assert!((e_time - e_freq).abs() < 1e-9 * e_time.max(1.0));
    }

    #[test]
    #[should_panic(expected = "8x8")]
    fn wrong_size_panics() {
        let dct = Dct2d::new();
        let _ = dct.forward(&[0.0; 16]);
    }
}
