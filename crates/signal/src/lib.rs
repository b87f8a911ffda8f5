//! # `signal` — DSP substrate for the mm-mpsoc workspace
//!
//! Shared signal-processing building blocks used by every functional
//! subsystem of the reproduction of Wolf, *Multimedia Applications of
//! Multiprocessor Systems-on-Chips* (DATE 2005): transforms ([`fft`],
//! [`dct1d`], the fast fixed-size [`dct8`] butterfly), [`window`]
//! functions, digital [`filter`] primitives, quality
//! [`metrics`] (PSNR/SNR, strided/bounded SAD), a deterministic [`rng`],
//! descriptive [`stats`] and parametric signal [`gen`]erators
//! (tones, noise, the voiced/unvoiced speech model of the paper's §4, and
//! harmonic "music").
//!
//! Everything here is implemented from scratch; no external DSP crates are
//! used, so the whole codec stack above it is auditable end to end.
//!
//! # Example
//!
//! ```
//! use signal::fft::Fft;
//! use signal::gen::{SignalGen, ToneSpec};
//!
//! let tone = SignalGen::new(42).tone(&ToneSpec::new(1_000.0, 1.0), 8_000.0, 256);
//! let fft = Fft::new(256);
//! let spectrum = fft.forward_real(&tone);
//! // The 1 kHz bin (1000/8000 * 256 = bin 32) dominates.
//! let peak = spectrum
//!     .iter()
//!     .enumerate()
//!     .take(128)
//!     .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()))
//!     .map(|(i, _)| i)
//!     .unwrap();
//! assert_eq!(peak, 32);
//! ```

pub mod bits;
pub mod dct1d;
pub mod dct8;
pub mod fft;
pub mod filter;
pub mod gen;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod window;

/// A complex number with `f64` parts, sufficient for all transforms in the
/// workspace.
///
/// A tiny purpose-built type is preferred over an external dependency; only
/// the operations the transforms need are provided.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    ///
    /// ```
    /// let z = signal::Complex::new(3.0, 4.0);
    /// assert_eq!(z.norm(), 5.0);
    /// ```
    #[must_use]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A complex number on the unit circle at angle `theta` (radians).
    #[must_use]
    pub fn from_polar_unit(theta: f64) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Magnitude `sqrt(re^2 + im^2)`.
    #[must_use]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude, avoiding the square root of [`Complex::norm`].
    #[must_use]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Complex conjugate.
    #[must_use]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Scales both parts by `k`.
    #[must_use]
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }
}

impl core::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl core::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl core::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl core::ops::Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl core::fmt::Display for Complex {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Complex;

    #[test]
    fn complex_arithmetic_matches_hand_computation() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        // (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
    }

    #[test]
    fn polar_unit_lies_on_unit_circle() {
        for k in 0..8 {
            let z = Complex::from_polar_unit(k as f64 * core::f64::consts::FRAC_PI_4);
            assert!((z.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn conjugate_negates_imaginary_part() {
        let z = Complex::new(2.5, -7.0);
        assert_eq!(z.conj(), Complex::new(2.5, 7.0));
        assert_eq!(z.conj().conj(), z);
    }

    #[test]
    fn norm_sqr_equals_norm_squared() {
        let z = Complex::new(3.0, 4.0);
        assert!((z.norm_sqr() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats_sign_correctly() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn from_f64_is_purely_real() {
        let z: Complex = 4.0.into();
        assert_eq!(z, Complex::new(4.0, 0.0));
    }
}
