//! Run-time choice of a kernel's vector width: function multiversioning,
//! as GCC's `target_clones` does it.
//!
//! The workspace is built for baseline x86_64, whose widest vectors are
//! SSE2's 128 bits. A kernel that gains from wider vectors keeps one
//! `#[inline(always)]` body and passes it to [`dispatch`] as an
//! `#[inline(always)]` closure. The compiler then builds the body twice:
//! once plainly, as every x86_64 CPU runs it, and once inside an
//! `#[target_feature(enable = "avx512f")]` wrapper, where the vectorizer
//! may use 512-bit registers. [`dispatch`] runs the wide copy only where
//! the CPU reports AVX-512F; `std` caches that probe, so each call costs
//! one load and a branch. Calling the body directly runs the baseline
//! copy on any host, which tests and benchmarks use to check and time
//! both copies.
//!
//! Its users, each with a forced baseline copy that tests check against
//! the dispatched one:
//!
//! * `drm`'s `XteaCtr::apply`, the XTEA-CTR lane loop that unseals
//!   segments (`XteaCtr::apply_baseline`);
//! * `netstack`'s `packet::checksum`, the deferred-carry packet checksum
//!   (`packet::checksum_baseline`);
//! * `video`'s block walk, Figure 1's reconstruction loop with the
//!   encoder's forward path or the decoder's parse inside it, one
//!   dispatch per frame (`Encoder::encode_baseline`,
//!   `decoder::decode_baseline`);
//! * [`crate::metrics::psnr_u8`]'s integer sum of squared errors, which
//!   the encoder measures every frame with.
//!
//! There is no AVX2 copy. The measured host has AVX-512F, so an AVX2
//! copy would not run there; a CPU with AVX2 but no AVX-512F runs the
//! baseline copy.
//!
//! ```
//! #[inline(always)]
//! fn sum(xs: &[u32]) -> u32 {
//!     xs.iter().fold(0, |a, &x| a.wrapping_add(x))
//! }
//!
//! let xs: Vec<u32> = (0..1_000).collect();
//! // The wide copy where the host has it, the baseline copy elsewhere.
//! let wide = signal::simd::dispatch(#[inline(always)] || sum(&xs));
//! assert_eq!(wide, sum(&xs));
//! assert!([128, 512].contains(&signal::simd::vector_bits()));
//! ```

/// Whether [`dispatch`] runs the AVX-512F copy on this CPU.
fn has_avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The vector width, in bits, of the copy [`dispatch`] runs in this
/// process: 512 with AVX-512F, else 128 (SSE2 on x86_64).
#[must_use]
pub fn vector_bits() -> u32 {
    if has_avx512f() {
        512
    } else {
        128
    }
}

/// Runs `kernel` as the widest copy this CPU supports.
///
/// Mark the closure `#[inline(always)]` and have it call an
/// `#[inline(always)]` body. Otherwise the closure may stay a function
/// of its own, built for the baseline target, and the wide wrapper would
/// only call it. A callee the body does not inline, such as an
/// `#[inline(never)]` function, is likewise built for the baseline.
#[inline(always)]
pub fn dispatch<R>(kernel: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if has_avx512f() {
        // SAFETY: `has_avx512f` has just checked, through
        // `is_x86_feature_detected!`, that this CPU has AVX-512F, the one
        // feature `avx512f` enables.
        return unsafe { avx512f(kernel) };
    }
    kernel()
}

/// `kernel` built with AVX-512F enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512f<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}
