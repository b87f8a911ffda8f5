//! Quality metrics: PSNR, SNR, MSE, SAD.
//!
//! Paper §3: *"each generation of transcoding reduces image quality"* —
//! experiments E5/E6/E18 quantify quality with the metrics here. SAD is the
//! motion-estimation matching cost of Figure 1's motion estimator.

/// Error returned when two sequences being compared have different lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LengthMismatchError {
    /// Length of the reference sequence.
    pub reference: usize,
    /// Length of the test sequence.
    pub test: usize,
}

impl core::fmt::Display for LengthMismatchError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "sequence lengths differ: reference {} vs test {}",
            self.reference, self.test
        )
    }
}

impl std::error::Error for LengthMismatchError {}

fn check(a: usize, b: usize) -> Result<(), LengthMismatchError> {
    if a == b && a > 0 {
        Ok(())
    } else {
        Err(LengthMismatchError {
            reference: a,
            test: b,
        })
    }
}

/// Mean squared error between two equal-length sequences.
///
/// # Errors
///
/// Returns [`LengthMismatchError`] if lengths differ or are zero.
pub fn mse(reference: &[f64], test: &[f64]) -> Result<f64, LengthMismatchError> {
    check(reference.len(), test.len())?;
    let sum: f64 = reference
        .iter()
        .zip(test)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    Ok(sum / reference.len() as f64)
}

/// Peak signal-to-noise ratio in dB for signals with the given peak value
/// (255 for 8-bit imagery).
///
/// Returns `f64::INFINITY` for identical sequences.
///
/// # Errors
///
/// Returns [`LengthMismatchError`] if lengths differ or are zero.
pub fn psnr(reference: &[f64], test: &[f64], peak: f64) -> Result<f64, LengthMismatchError> {
    let m = mse(reference, test)?;
    if m == 0.0 {
        return Ok(f64::INFINITY);
    }
    Ok(10.0 * (peak * peak / m).log10())
}

/// PSNR between two 8-bit pixel buffers (peak 255).
///
/// # Errors
///
/// Returns [`LengthMismatchError`] if lengths differ or are zero.
pub fn psnr_u8(reference: &[u8], test: &[u8]) -> Result<f64, LengthMismatchError> {
    check(reference.len(), test.len())?;
    let sum: f64 = reference
        .iter()
        .zip(test)
        .map(|(&a, &b)| {
            let d = a as f64 - b as f64;
            d * d
        })
        .sum();
    let m = sum / reference.len() as f64;
    if m == 0.0 {
        return Ok(f64::INFINITY);
    }
    Ok(10.0 * (255.0 * 255.0 / m).log10())
}

/// Signal-to-noise ratio in dB: signal energy over error energy.
///
/// Returns `f64::INFINITY` for identical sequences and `-INFINITY` for a
/// zero-energy reference with nonzero error.
///
/// # Errors
///
/// Returns [`LengthMismatchError`] if lengths differ or are zero.
pub fn snr(reference: &[f64], test: &[f64]) -> Result<f64, LengthMismatchError> {
    check(reference.len(), test.len())?;
    let sig: f64 = reference.iter().map(|v| v * v).sum();
    let err: f64 = reference
        .iter()
        .zip(test)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    if err == 0.0 {
        return Ok(f64::INFINITY);
    }
    if sig == 0.0 {
        return Ok(f64::NEG_INFINITY);
    }
    Ok(10.0 * (sig / err).log10())
}

/// Sum of absolute differences between two 8-bit blocks — the matching cost
/// used by every motion-estimation search in the `video` crate.
///
/// # Panics
///
/// Panics if lengths differ (hot path: callers guarantee equal-sized
/// blocks, so this is a programming error rather than a recoverable one).
#[must_use]
pub fn sad_u8(a: &[u8], b: &[u8]) -> u64 {
    assert_eq!(a.len(), b.len(), "SAD blocks must be the same size");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x as i32 - y as i32).unsigned_abs() as u64)
        .sum()
}

fn check_strided(len: usize, stride: usize, w: usize, h: usize) {
    assert!(w > 0 && h > 0, "SAD block must be non-empty");
    assert!(stride >= w, "stride shorter than row width");
    assert!(
        len >= (h - 1) * stride + w,
        "buffer too short for {h} rows at stride {stride}"
    );
}

/// Stride-aware SAD over a `w x h` window of two row-major buffers.
///
/// Unlike [`sad_u8`], the operands may live *inside* larger planes: `a`
/// and `b` start at each window's top-left sample and rows are `a_stride`
/// / `b_stride` apart. This is the motion-search matching cost evaluated
/// directly against the reference plane, with no block copy.
///
/// # Panics
///
/// Panics if a stride is shorter than `w` or a buffer cannot hold `h`
/// rows at its stride.
#[must_use]
pub fn sad_u8_strided(
    a: &[u8],
    a_stride: usize,
    b: &[u8],
    b_stride: usize,
    w: usize,
    h: usize,
) -> u64 {
    sad_u8_bounded(a, a_stride, b, b_stride, w, h, u64::MAX)
}

/// [`sad_u8_strided`] with a row-wise early exit: once the running sum
/// exceeds `cutoff`, the remaining rows are skipped and the partial sum
/// (already `> cutoff`) is returned.
///
/// Motion search passes its current best SAD as the cutoff, so losing
/// candidates are abandoned after a few rows. The contract preserves
/// exactness where it matters: whenever the true SAD is `<= cutoff`, the
/// exact value is returned (a candidate is only abandoned once it is
/// strictly worse than the cutoff), so search results are identical to an
/// unbounded evaluation. With `cutoff = u64::MAX` this *is*
/// [`sad_u8_strided`].
///
/// # Panics
///
/// Panics under the same conditions as [`sad_u8_strided`].
#[must_use]
pub fn sad_u8_bounded(
    a: &[u8],
    a_stride: usize,
    b: &[u8],
    b_stride: usize,
    w: usize,
    h: usize,
    cutoff: u64,
) -> u64 {
    sad_u8_bounded_ops(a, a_stride, b, b_stride, w, h, cutoff).0
}

/// Instrumented [`sad_u8_bounded`]: also returns the number of pixel
/// comparisons actually performed, so the perf harness can report the
/// *effective* arithmetic saved by early exit (not just wall time).
///
/// This is the single entry point of the row-wise kernel —
/// [`sad_u8_bounded`] delegates here and drops the op count (inlining
/// lets the counter fold away on the hot path). On x86_64, rows whose
/// width is a multiple of 16 samples (the motion-search macroblock) are
/// summed with one SSE2 `psadbw` per 16-sample chunk; every other shape,
/// and every other target, sums rows as [`sad_u8_bounded_ops_scalar`]
/// does. Both add whole rows, test the cutoff after each row and count
/// `rows * w` ops, so they return the same pair for any input.
///
/// # Panics
///
/// Panics under the same conditions as [`sad_u8_strided`].
#[must_use]
#[inline]
pub fn sad_u8_bounded_ops(
    a: &[u8],
    a_stride: usize,
    b: &[u8],
    b_stride: usize,
    w: usize,
    h: usize,
    cutoff: u64,
) -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    if w % 16 == 0 {
        return bounded_rows((a, a_stride), (b, b_stride), w, h, cutoff, |ra, rb| {
            ra.chunks_exact(16)
                .zip(rb.chunks_exact(16))
                .map(|(x, y)| sad16_sse2(x, y))
                .sum()
        });
    }
    sad_u8_bounded_ops_scalar(a, a_stride, b, b_stride, w, h, cutoff)
}

/// The portable kernel behind [`sad_u8_bounded_ops`]: the only path on
/// targets other than x86_64, and the oracle the SIMD path is tested
/// against.
///
/// # Panics
///
/// Panics under the same conditions as [`sad_u8_strided`].
#[must_use]
#[inline]
pub fn sad_u8_bounded_ops_scalar(
    a: &[u8],
    a_stride: usize,
    b: &[u8],
    b_stride: usize,
    w: usize,
    h: usize,
    cutoff: u64,
) -> (u64, u64) {
    bounded_rows((a, a_stride), (b, b_stride), w, h, cutoff, |ra, rb| {
        ra.iter()
            .zip(rb)
            .map(|(&x, &y)| (x as i32 - y as i32).unsigned_abs() as u64)
            .sum()
    })
}

/// The row-wise early-exit loop over two `(samples, stride)` windows:
/// adds `row_sad` of each `w`-sample row pair until the running sum
/// exceeds `cutoff`, and returns that sum with the `rows * w`
/// comparisons made.
#[inline(always)]
fn bounded_rows(
    (a, a_stride): (&[u8], usize),
    (b, b_stride): (&[u8], usize),
    w: usize,
    h: usize,
    cutoff: u64,
    row_sad: impl Fn(&[u8], &[u8]) -> u64,
) -> (u64, u64) {
    check_strided(a.len(), a_stride, w, h);
    check_strided(b.len(), b_stride, w, h);
    let mut total = 0u64;
    let mut rows = 0u64;
    for r in 0..h {
        total += row_sad(
            &a[r * a_stride..r * a_stride + w],
            &b[r * b_stride..r * b_stride + w],
        );
        rows += 1;
        if total > cutoff {
            break;
        }
    }
    (total, rows * w as u64)
}

/// SAD of two 16-sample chunks with one SSE2 `psadbw`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn sad16_sse2(a: &[u8], b: &[u8]) -> u64 {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi64, _mm_cvtsi128_si64, _mm_loadu_si128, _mm_sad_epu8,
        _mm_unpackhi_epi64,
    };
    assert!(
        a.len() == 16 && b.len() == 16,
        "SSE2 SAD takes 16-sample chunks"
    );
    // SAFETY: SSE2 is part of the x86_64 baseline, so the intrinsics are
    // available on every x86_64 CPU. Both loads read exactly 16 bytes from
    // slices asserted above to be 16 bytes long, and `loadu` has no
    // alignment requirement.
    unsafe {
        let x = _mm_loadu_si128(a.as_ptr().cast::<__m128i>());
        let y = _mm_loadu_si128(b.as_ptr().cast::<__m128i>());
        // Two 64-bit lanes, each the SAD of 8 byte pairs (at most 2,040).
        let s = _mm_sad_epu8(x, y);
        _mm_cvtsi128_si64(_mm_add_epi64(s, _mm_unpackhi_epi64(s, s))) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The SSE2 kernel returns the scalar kernel's (value, op count)
        /// pair for any window — 16-multiple widths take the SIMD path,
        /// the rest fall through — strides, and cutoffs including 0 and
        /// `u64::MAX`.
        #[test]
        fn sad_kernel_equals_its_scalar_oracle(
            chunks in 0usize..=3,
            odd_w in 1usize..=24,
            h in 1usize..=16,
            extra_a in 0usize..20,
            extra_b in 0usize..20,
            seed in any::<u64>(),
            cutoff_kind in 0u8..4,
            cutoff in 0u64..40_000,
        ) {
            let w = if chunks == 0 { odd_w } else { 16 * chunks };
            let cutoff = match cutoff_kind {
                0 => 0,
                1 => u64::MAX,
                _ => cutoff,
            };
            let (a_stride, b_stride) = (w + extra_a, w + extra_b);
            let mut rng = crate::rng::Xoroshiro128::new(seed);
            let a: Vec<u8> = (0..(h - 1) * a_stride + w).map(|_| rng.below(256) as u8).collect();
            let b: Vec<u8> = (0..(h - 1) * b_stride + w).map(|_| rng.below(256) as u8).collect();
            prop_assert_eq!(
                sad_u8_bounded_ops(&a, a_stride, &b, b_stride, w, h, cutoff),
                sad_u8_bounded_ops_scalar(&a, a_stride, &b, b_stride, w, h, cutoff)
            );
        }
    }

    #[test]
    fn mse_of_identical_is_zero() {
        let x = [1.0, 2.0, 3.0];
        assert_eq!(mse(&x, &x).unwrap(), 0.0);
    }

    #[test]
    fn mse_hand_computed() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert!((mse(&a, &b).unwrap() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn psnr_infinite_for_identical() {
        let x = [10.0, 20.0];
        assert!(psnr(&x, &x, 255.0).unwrap().is_infinite());
    }

    #[test]
    fn psnr_u8_known_value() {
        // Uniform error of 1 LSB -> MSE 1 -> PSNR = 20 log10(255) ≈ 48.13 dB.
        let a = vec![100u8; 64];
        let b = vec![101u8; 64];
        let p = psnr_u8(&a, &b).unwrap();
        assert!((p - 48.1308).abs() < 1e-3, "psnr {p}");
    }

    #[test]
    fn psnr_decreases_with_error() {
        let reference = vec![128u8; 100];
        let small: Vec<u8> = reference.iter().map(|&v| v + 1).collect();
        let large: Vec<u8> = reference.iter().map(|&v| v + 10).collect();
        assert!(psnr_u8(&reference, &small).unwrap() > psnr_u8(&reference, &large).unwrap());
    }

    #[test]
    fn snr_matches_definition() {
        let reference = [1.0, 1.0, 1.0, 1.0];
        let test = [1.1, 0.9, 1.1, 0.9];
        // signal energy 4, error energy 0.04 -> 20 dB.
        assert!((snr(&reference, &test).unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn snr_edge_cases() {
        let z = [0.0, 0.0];
        let x = [1.0, 1.0];
        assert_eq!(snr(&z, &x).unwrap(), f64::NEG_INFINITY);
        assert_eq!(snr(&x, &x).unwrap(), f64::INFINITY);
    }

    #[test]
    fn length_mismatch_is_reported() {
        let err = mse(&[1.0], &[1.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            LengthMismatchError {
                reference: 1,
                test: 2
            }
        );
        assert!(err.to_string().contains("differ"));
        assert!(mse(&[], &[]).is_err(), "empty sequences are rejected");
    }

    #[test]
    fn sad_hand_computed() {
        assert_eq!(sad_u8(&[0, 10, 255], &[5, 10, 250]), 10);
        assert_eq!(sad_u8(&[7; 16], &[7; 16]), 0);
    }

    #[test]
    fn strided_sad_matches_contiguous() {
        // 2x2 window in a 4-wide plane vs a contiguous 2-wide buffer.
        let plane = [1u8, 2, 9, 9, 3, 4, 9, 9];
        let block = [0u8, 0, 0, 0];
        let expect = sad_u8(&[1, 2, 3, 4], &block);
        assert_eq!(sad_u8_strided(&plane, 4, &block, 2, 2, 2), expect);
    }

    #[test]
    fn bounded_sad_is_exact_at_or_below_cutoff() {
        let a = [10u8; 16];
        let b = [0u8; 16];
        // True SAD = 160; cutoffs >= 160 must return the exact value.
        assert_eq!(sad_u8_bounded(&a, 4, &b, 4, 4, 4, 160), 160);
        assert_eq!(sad_u8_bounded(&a, 4, &b, 4, 4, 4, u64::MAX), 160);
    }

    #[test]
    fn bounded_sad_abandons_losing_candidates() {
        let a = [100u8; 64];
        let b = [0u8; 64];
        // Row SAD = 800; with cutoff 0 the first row already exceeds it.
        let (sad, ops) = sad_u8_bounded_ops(&a, 8, &b, 8, 8, 8, 0);
        assert_eq!(ops, 8, "only one row should be evaluated");
        assert!(sad > 0 && sad < 6400, "partial sum returned on abandon");
        let early = sad_u8_bounded(&a, 8, &b, 8, 8, 8, 0);
        assert!(early > 0, "abandoned candidates report a sum above cutoff");
    }

    #[test]
    #[should_panic(expected = "stride shorter")]
    fn bad_stride_panics() {
        let _ = sad_u8_strided(&[0; 16], 2, &[0; 16], 4, 4, 4);
    }
}
