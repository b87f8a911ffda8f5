//! Coefficient quantization — the lossy box of Figure 1.
//!
//! Paper §3: *"The DCT itself does not fundamentally reduce the amount of
//! information … The higher spatial frequencies represent finer detail
//! that is eliminated first."* The quantizer implements that elimination:
//! a perceptual base matrix (coarser steps at high frequencies) scaled by
//! a quality factor that the rate controller adjusts frame to frame.
//!
//! # Exact rounding without libm
//!
//! Quantization rounds each `coefficient / step` half away from zero and
//! saturates it to `±2047`; reconstruction (shared by the encoder's
//! feedback loop and the decoder) rounds `prediction + residual` the same
//! way into `0..=255`. Both go through [`round_clamp`], which computes
//! `x.round().clamp(lo, hi)` exactly — ties, saturation, signed zeros and
//! NaN included — from a clamp, the `1.5 * 2^52` round-to-nearest shift
//! and a tie correction, all in `f64` lanes. Baseline x86_64 has no
//! rounding instruction, so `f64::round` is a libm call per coefficient;
//! [`round_clamp`] vectorizes instead. [`Quantizer::quantize_scalar`]
//! keeps the libm expression as the oracle the fast path is tested
//! against.

use crate::dct::BLOCK;

/// The JPEG Annex-K luminance quantization matrix — the canonical
/// "eliminate fine detail first" weighting.
pub const BASE_MATRIX: [u16; BLOCK * BLOCK] = [
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55, 14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62, 18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113,
    92, 49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
];

/// A flat matrix used for inter (residual) blocks, as in MPEG-2.
pub const FLAT_MATRIX: [u16; BLOCK * BLOCK] = [16; BLOCK * BLOCK];

/// The largest level magnitude the bitstream carries.
const LEVEL_MAX: f64 = 2047.0;

/// `x.round().clamp(lo, hi) as i32` — round half away from zero, then
/// saturate, with NaN mapping to 0 — computed without libm's `round`
/// (baseline x86_64 has no rounding instruction, so `round` is a call)
/// and without a float-to-int cast (Rust's saturating `as` keeps SSE2
/// code scalar). Every step is a branch-free `f64` operation or a bit
/// cast, so a loop over this function runs two lanes per SSE2
/// instruction.
///
/// Why it is exact, for integers `lo <= hi` of magnitude below 2^31:
///
/// 1. *Clamp first.* Rounding is monotone and leaves integers alone, so
///    an `x` below `lo` rounds to at most `lo` and one above `hi` to at
///    least `hi`: clamping before rounding gives the same result. A NaN
///    is replaced by 0, which `as` would have produced.
/// 2. *Round to nearest, ties to even.* For `|c| < 2^51`, `c + M` with
///    `M = 1.5 * 2^52` lies in `[2^52, 2^53)`, where the spacing of
///    doubles is 1: the addition rounds `c` to the nearest integer `n`,
///    ties to even (`M` is even), and `m - M` recovers `n` exactly.
/// 3. *Fix the ties.* The remainder `r = c - n` is exact (`|r| <= 0.5`,
///    and Sterbenz's lemma covers `n != 0`). Half-away-from-zero differs
///    from ties-to-even only when `c` is a tie that went toward zero:
///    `r == 0.5` with `c > 0` (add one) or `r == -0.5` with `c < 0`
///    (subtract one).
/// 4. *Read `n` from the bits.* The mantissa of `m = 2^52 + (2^51 + n)`
///    holds `2^51 + n`, whose low 32 bits are `n` in two's complement.
#[must_use]
#[inline(always)]
pub fn round_clamp(x: f64, lo: f64, hi: f64) -> i32 {
    const M: f64 = 6_755_399_441_055_744.0; // 1.5 * 2^52
    let c = if x.is_nan() { 0.0 } else { x.clamp(lo, hi) };
    let m = c + M;
    let r = c - (m - M);
    (m.to_bits() as i32) + i32::from(r == 0.5 && c > 0.0) - i32::from(r == -0.5 && c < 0.0)
}

/// Error for an out-of-range quality setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadQualityError(
    /// The rejected quality value.
    pub u8,
);

impl core::fmt::Display for BadQualityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "quality {} outside 1..=100", self.0)
    }
}

impl std::error::Error for BadQualityError {}

/// A quantizer: a scaled step matrix applied entrywise.
///
/// # Example
///
/// ```
/// use video::quant::Quantizer;
///
/// let q = Quantizer::from_quality(50)?;
/// let coeffs = [100.0; 64];
/// let levels = q.quantize(&coeffs);
/// let back = q.dequantize(&levels);
/// // Reconstruction error bounded by half a step.
/// for (c, b) in coeffs.iter().zip(&back) {
///     assert!((c - b).abs() <= q.step(0).max(q.step(63)) / 2.0 + 1e-9);
/// }
/// # Ok::<(), video::quant::BadQualityError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quantizer {
    steps: [f64; BLOCK * BLOCK],
    quality: u8,
}

impl Quantizer {
    /// Builds a quantizer from a JPEG-style quality factor in `1..=100`
    /// (higher = finer) using the base luminance matrix.
    ///
    /// # Errors
    ///
    /// Returns [`BadQualityError`] outside `1..=100`.
    pub fn from_quality(quality: u8) -> Result<Self, BadQualityError> {
        Self::from_quality_with_matrix(quality, &BASE_MATRIX)
    }

    /// Builds a quantizer from a quality factor and an explicit base
    /// matrix.
    ///
    /// # Errors
    ///
    /// Returns [`BadQualityError`] outside `1..=100`.
    pub fn from_quality_with_matrix(
        quality: u8,
        matrix: &[u16; BLOCK * BLOCK],
    ) -> Result<Self, BadQualityError> {
        if quality == 0 || quality > 100 {
            return Err(BadQualityError(quality));
        }
        // Standard IJG scaling.
        let scale = if quality < 50 {
            5000.0 / quality as f64
        } else {
            200.0 - 2.0 * quality as f64
        };
        let mut steps = [0.0; BLOCK * BLOCK];
        for (s, &m) in steps.iter_mut().zip(matrix.iter()) {
            *s = ((m as f64 * scale + 50.0) / 100.0).clamp(1.0, 255.0);
        }
        Ok(Self { steps, quality })
    }

    /// The quality this quantizer was built from.
    #[must_use]
    pub fn quality(&self) -> u8 {
        self.quality
    }

    /// The step size at coefficient index `i` (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[must_use]
    pub fn step(&self, i: usize) -> f64 {
        self.steps[i]
    }

    /// Quantizes a coefficient block to integer levels: each coefficient
    /// over its step, rounded half away from zero and saturated to
    /// `±2047` by [`round_clamp`]. Bit-identical to
    /// [`Quantizer::quantize_scalar`], without its libm `round` call.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != 64`.
    #[must_use]
    #[inline(always)]
    pub fn quantize(&self, coeffs: &[f64]) -> [i16; BLOCK * BLOCK] {
        let coeffs: &[f64; BLOCK * BLOCK] = coeffs.try_into().expect("expected an 8x8 block");
        let mut out = [0i16; BLOCK * BLOCK];
        for ((o, &c), &s) in out.iter_mut().zip(coeffs).zip(&self.steps) {
            *o = round_clamp(c / s, -LEVEL_MAX, LEVEL_MAX) as i16;
        }
        out
    }

    /// The reference quantizer [`Quantizer::quantize`] is pinned to:
    /// `(c / step).round().clamp(-2047.0, 2047.0) as i16` per coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != 64`.
    #[must_use]
    pub fn quantize_scalar(&self, coeffs: &[f64]) -> [i16; BLOCK * BLOCK] {
        assert_eq!(coeffs.len(), BLOCK * BLOCK, "expected an 8x8 block");
        let mut out = [0i16; BLOCK * BLOCK];
        for i in 0..BLOCK * BLOCK {
            out[i] = (coeffs[i] / self.steps[i])
                .round()
                .clamp(-LEVEL_MAX, LEVEL_MAX) as i16;
        }
        out
    }

    /// Reconstructs coefficients from levels.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != 64`.
    #[must_use]
    #[inline(always)]
    pub fn dequantize(&self, levels: &[i16]) -> [f64; BLOCK * BLOCK] {
        assert_eq!(levels.len(), BLOCK * BLOCK, "expected an 8x8 block");
        let mut out = [0.0; BLOCK * BLOCK];
        for i in 0..BLOCK * BLOCK {
            out[i] = levels[i] as f64 * self.steps[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use signal::rng::Xoroshiro128;

    /// A quiet NaN with payload bits in the low word, which a missing NaN
    /// guard would let through `round_clamp`'s bit cast.
    const PAYLOAD_NAN: f64 = f64::from_bits(0x7ff8_0000_dead_beef);

    #[test]
    fn round_clamp_equals_libm_on_every_half_integer_and_special() {
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            PAYLOAD_NAN,
        ];
        let ties = (-4200..=4200).map(|k| f64::from(k) * 0.5);
        for x in ties.chain(specials) {
            for (lo, hi) in [(0.0, 255.0), (-LEVEL_MAX, LEVEL_MAX)] {
                for v in [x, x.next_up(), x.next_down()] {
                    assert_eq!(
                        round_clamp(v, lo, hi),
                        v.round().clamp(lo, hi) as i32,
                        "{v} in {lo}..={hi}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The libm-free quantizer equals `round().clamp()` on every
        /// coefficient: exact half-step ties on both sides of zero, the
        /// `±2047` saturation edge, `±1e9`, infinities, `±0.0` and NaN.
        #[test]
        fn quantize_equals_its_libm_oracle(quality in 1u8..=100, flat in any::<bool>(), seed in any::<u64>()) {
            let matrix = if flat { &FLAT_MATRIX } else { &BASE_MATRIX };
            let q = Quantizer::from_quality_with_matrix(quality, matrix).unwrap();
            let mut rng = Xoroshiro128::new(seed);
            let specials = [0.0, -0.0, 1e9, -1e9, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, PAYLOAD_NAN];
            let coeffs: Vec<f64> = (0..64)
                .map(|i| {
                    let step = q.step(i);
                    let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
                    match rng.below(6) {
                        0 => (rng.range_i64(-2100, 2100) as f64 + 0.5) * step,
                        1 => sign * (2046.5 + 0.5 * rng.below(3) as f64) * step,
                        2 => specials[rng.below(specials.len() as u64) as usize],
                        3 => rng.range_f64(-0.5, 0.5) * step,
                        _ => rng.range_f64(-2100.0, 2100.0) * step,
                    }
                })
                .collect();
            prop_assert_eq!(q.quantize(&coeffs), q.quantize_scalar(&coeffs), "{:?}", coeffs);
        }

        /// Reconstruction rounding: `p + r` landing exactly on `k + 0.5`,
        /// one ulp either side of it, anywhere, or on NaN rounds and
        /// clamps like `(p + r).round().clamp(0.0, 255.0) as u8`; the
        /// level range `±2047` rounds like the quantizer's oracle.
        #[test]
        fn round_clamp_equals_libm_at_half_steps(p in 0u8..=255, k in -300i64..600, r in -400.0f64..400.0) {
            let p = f64::from(p);
            let tie = k as f64 + 0.5;
            for target in [tie, tie.next_up(), tie.next_down(), p + r, PAYLOAD_NAN] {
                let v = p + (target - p);
                prop_assert_eq!(round_clamp(v, 0.0, 255.0) as u8, v.round().clamp(0.0, 255.0) as u8, "p + r = {}", v);
                let w = target * 8.0;
                prop_assert_eq!(
                    round_clamp(w, -LEVEL_MAX, LEVEL_MAX) as i16,
                    w.round().clamp(-LEVEL_MAX, LEVEL_MAX) as i16,
                    "level {}", w
                );
            }
        }
    }

    #[test]
    fn quality_bounds_enforced() {
        assert!(Quantizer::from_quality(1).is_ok());
        assert!(Quantizer::from_quality(100).is_ok());
        assert_eq!(Quantizer::from_quality(0).unwrap_err(), BadQualityError(0));
        assert_eq!(
            Quantizer::from_quality(101).unwrap_err(),
            BadQualityError(101)
        );
    }

    #[test]
    fn higher_quality_means_finer_steps() {
        let coarse = Quantizer::from_quality(10).unwrap();
        let fine = Quantizer::from_quality(90).unwrap();
        for i in 0..64 {
            assert!(fine.step(i) <= coarse.step(i), "index {i}");
        }
    }

    #[test]
    fn high_frequencies_get_coarser_steps() {
        let q = Quantizer::from_quality(50).unwrap();
        // DC step much smaller than the highest-frequency step.
        assert!(q.step(0) < q.step(63));
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let mut rng = Xoroshiro128::new(21);
        let q = Quantizer::from_quality(50).unwrap();
        let coeffs: Vec<f64> = (0..64).map(|_| rng.range_f64(-500.0, 500.0)).collect();
        let back = q.dequantize(&q.quantize(&coeffs));
        for i in 0..64 {
            assert!(
                (coeffs[i] - back[i]).abs() <= q.step(i) / 2.0 + 1e-9,
                "index {i}: {} vs {}",
                coeffs[i],
                back[i]
            );
        }
    }

    #[test]
    fn small_high_frequency_coefficients_become_zero() {
        let q = Quantizer::from_quality(50).unwrap();
        let mut coeffs = [0.0; 64];
        coeffs[63] = 20.0; // below half the high-frequency step at q50
        let levels = q.quantize(&coeffs);
        assert_eq!(levels[63], 0, "fine detail must be eliminated first");
        // The same amplitude at DC survives.
        let mut coeffs2 = [0.0; 64];
        coeffs2[0] = 20.0;
        assert_ne!(q.quantize(&coeffs2)[0], 0);
    }

    #[test]
    fn levels_saturate_at_representable_range() {
        let q = Quantizer::from_quality(100).unwrap();
        let mut coeffs = [0.0; 64];
        coeffs[0] = 1e9;
        coeffs[1] = -1e9;
        let l = q.quantize(&coeffs);
        assert_eq!(l[0], 2047);
        assert_eq!(l[1], -2047);
    }

    #[test]
    fn flat_matrix_is_uniform() {
        let q = Quantizer::from_quality_with_matrix(50, &FLAT_MATRIX).unwrap();
        for i in 1..64 {
            assert_eq!(q.step(i), q.step(0));
        }
    }
}
