//! Fast fixed-size 8-point DCT (Loeffler/AAN-style butterfly).
//!
//! The generic matrix transform in [`crate::dct1d`] multiplies every
//! 8-sample row by a precomputed 8×8 basis — 64 multiplies per transform.
//! The video codec only ever needs `N = 8`, so this module specialises:
//! an even/odd butterfly decomposition (a 4-point DCT-II for the even
//! coefficients, a 4-point DCT-IV for the odd ones) that needs 29
//! multiplies, no planning step, no heap, and produces the *same
//! orthonormal DCT-II/DCT-III* convention as [`crate::dct1d::Dct1d`] to
//! within floating-point rounding. The matrix transform stays in the tree
//! as the correctness oracle; the property suite pins the two together at
//! `1e-9`.
//!
//! Forward: `X[k] = c(k) · Σ x[n] cos(π (2n+1) k / 16)` with
//! `c(0) = √(1/8)`, `c(k) = 1/2`. Inverse is the exact transpose of the
//! forward flow graph, so round-trips are identities up to rounding.
//!
//! Both transforms are always inlined, so a caller's row–column loop —
//! the `video` crate's 2-D DCT — compiles to straight-line code the
//! optimizer schedules as a whole, every line still running this scalar
//! operation sequence.

/// The fixed transform size.
pub const N: usize = 8;

/// Multiplies performed by one [`fdct8`] (or [`idct8`]): 5 in the even
/// (DCT-II) half, 16 in the odd (DCT-IV) half, 8 output scalings —
/// versus 64 for the 8×8 matrix product of [`crate::dct1d::Dct1d`].
pub const FAST8_MULS: u64 = 29;

// cos(k·π/16) for the odd-half (4-point DCT-IV) twiddles.
const C1: f64 = 0.980_785_280_403_230_4; // cos(π/16)
const C3: f64 = 0.831_469_612_302_545_2; // cos(3π/16)
const C5: f64 = 0.555_570_233_019_602_2; // cos(5π/16)
const C7: f64 = 0.195_090_322_016_128_27; // cos(7π/16)
                                          // cos(k·π/8) for the even-half (4-point DCT-II) twiddles.
const D1: f64 = 0.923_879_532_511_286_7; // cos(π/8)
const D3: f64 = 0.382_683_432_365_089_8; // cos(3π/8)
const R2: f64 = core::f64::consts::FRAC_1_SQRT_2; // cos(π/4)
                                                  // Orthonormal output scales: c(0) = √(1/8) = 1/(2√2), c(k>0) = 1/2.
const S0: f64 = 0.353_553_390_593_273_8;
const SK: f64 = 0.5;

/// Forward orthonormal 8-point DCT-II via even/odd butterflies.
#[must_use]
#[inline(always)]
pub fn fdct8(x: &[f64; N]) -> [f64; N] {
    // Stage 1: fold around the centre.
    let u0 = x[0] + x[7];
    let u1 = x[1] + x[6];
    let u2 = x[2] + x[5];
    let u3 = x[3] + x[4];
    let v0 = x[0] - x[7];
    let v1 = x[1] - x[6];
    let v2 = x[2] - x[5];
    let v3 = x[3] - x[4];
    // Even half: 4-point DCT-II of u -> coefficients 0, 2, 4, 6.
    let a0 = u0 + u3;
    let a1 = u1 + u2;
    let b0 = u0 - u3;
    let b1 = u1 - u2;
    let s0 = a0 + a1;
    let s4 = (a0 - a1) * R2;
    let s2 = b0 * D1 + b1 * D3;
    let s6 = b0 * D3 - b1 * D1;
    // Odd half: 4-point DCT-IV of v -> coefficients 1, 3, 5, 7.
    let s1 = C1 * v0 + C3 * v1 + C5 * v2 + C7 * v3;
    let s3 = C3 * v0 - C7 * v1 - C1 * v2 - C5 * v3;
    let s5 = C5 * v0 - C1 * v1 + C7 * v2 + C3 * v3;
    let s7 = C7 * v0 - C5 * v1 + C3 * v2 - C1 * v3;
    [
        S0 * s0,
        SK * s1,
        SK * s2,
        SK * s3,
        SK * s4,
        SK * s5,
        SK * s6,
        SK * s7,
    ]
}

/// Inverse orthonormal 8-point DCT (DCT-III): the transpose of the
/// [`fdct8`] flow graph, stage for stage.
#[must_use]
#[inline(always)]
pub fn idct8(c: &[f64; N]) -> [f64; N] {
    // Transpose of the output scaling.
    let s0 = S0 * c[0];
    let s1 = SK * c[1];
    let s2 = SK * c[2];
    let s3 = SK * c[3];
    let s4 = SK * c[4];
    let s5 = SK * c[5];
    let s6 = SK * c[6];
    let s7 = SK * c[7];
    // Transpose of the even half (4-point DCT-II).
    let u0 = s0 + D1 * s2 + R2 * s4 + D3 * s6;
    let u1 = s0 + D3 * s2 - R2 * s4 - D1 * s6;
    let u2 = s0 - D3 * s2 - R2 * s4 + D1 * s6;
    let u3 = s0 - D1 * s2 + R2 * s4 - D3 * s6;
    // Transpose of the odd half (4-point DCT-IV).
    let v0 = C1 * s1 + C3 * s3 + C5 * s5 + C7 * s7;
    let v1 = C3 * s1 - C7 * s3 - C1 * s5 - C5 * s7;
    let v2 = C5 * s1 - C1 * s3 + C7 * s5 + C3 * s7;
    let v3 = C7 * s1 - C5 * s3 + C3 * s5 - C1 * s7;
    // Transpose of the centre fold.
    [
        u0 + v0,
        u1 + v1,
        u2 + v2,
        u3 + v3,
        u3 - v3,
        u2 - v2,
        u1 - v1,
        u0 - v0,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct1d::Dct1d;
    use crate::rng::Xoroshiro128;

    #[test]
    fn matches_matrix_oracle() {
        let oracle = Dct1d::new(8);
        let mut rng = Xoroshiro128::new(8);
        for _ in 0..50 {
            let mut x = [0.0; N];
            for v in &mut x {
                *v = rng.range_f64(-255.0, 255.0);
            }
            let fast = fdct8(&x);
            let slow = oracle.forward(&x);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn inverse_matches_matrix_oracle() {
        let oracle = Dct1d::new(8);
        let mut rng = Xoroshiro128::new(9);
        for _ in 0..50 {
            let mut c = [0.0; N];
            for v in &mut c {
                *v = rng.range_f64(-255.0, 255.0);
            }
            let fast = idct8(&c);
            let slow = oracle.inverse(&c);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let mut rng = Xoroshiro128::new(10);
        let mut x = [0.0; N];
        for v in &mut x {
            *v = rng.range_f64(-128.0, 127.0);
        }
        let back = idct8(&fdct8(&x));
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn dc_of_constant_input() {
        let spec = fdct8(&[5.0; N]);
        assert!((spec[0] - 5.0 * 8.0f64.sqrt()).abs() < 1e-12);
        for &c in &spec[1..] {
            assert!(c.abs() < 1e-12);
        }
    }

    #[test]
    fn energy_is_preserved() {
        let mut rng = Xoroshiro128::new(11);
        let mut x = [0.0; N];
        for v in &mut x {
            *v = rng.normal();
        }
        let spec = fdct8(&x);
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let es: f64 = spec.iter().map(|v| v * v).sum();
        assert!((ex - es).abs() < 1e-12 * ex.max(1.0));
    }

    #[test]
    fn mul_count_beats_matrix() {
        assert!(FAST8_MULS < Dct1d::new(8).macs_per_transform());
    }
}
