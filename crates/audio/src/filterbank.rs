//! The subband mapper of Figure 2: a 32-band MDCT filterbank.
//!
//! MPEG-1 Layer 3 maps PCM into subbands before quantization; this crate
//! uses the Layer-3-style lapped transform directly: a 64-sample sine
//! window hopped by 32 samples with the modified discrete cosine transform
//! (MDCT). The sine window satisfies the Princen–Bradley condition, so
//! time-domain alias cancellation makes analysis → synthesis *exactly*
//! invertible (up to float rounding) — the lossy part of the codec is the
//! quantizer, never the mapper.

/// Number of subbands.
pub const BANDS: usize = 32;
/// Analysis window length (2 × BANDS).
pub const WINDOW: usize = 2 * BANDS;

/// One granule: one MDCT output, 32 subband samples.
pub type Granule = [f64; BANDS];

/// The 32-band MDCT filterbank.
///
/// # Example
///
/// ```
/// use audio::filterbank::Filterbank;
///
/// let fb = Filterbank::new();
/// let x: Vec<f64> = (0..320).map(|i| (i as f64 * 0.2).sin()).collect();
/// let granules = fb.analysis(&x);
/// let y = fb.synthesis(&granules);
/// for (a, b) in x.iter().zip(&y) {
///     assert!((a - b).abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Filterbank {
    window: [f64; WINDOW],
    /// Precomputed cosine basis `cos[(π/M)(n + 0.5 + M/2)(k + 0.5)]`,
    /// indexed `[k][n]`.
    basis: Vec<[f64; WINDOW]>,
}

impl Default for Filterbank {
    fn default() -> Self {
        Self::new()
    }
}

impl Filterbank {
    /// Builds the filterbank (precomputes window and basis).
    #[must_use]
    pub fn new() -> Self {
        let mut window = [0.0; WINDOW];
        for (n, w) in window.iter_mut().enumerate() {
            *w = (core::f64::consts::PI / WINDOW as f64 * (n as f64 + 0.5)).sin();
        }
        let m = BANDS as f64;
        let mut basis = Vec::with_capacity(BANDS);
        for k in 0..BANDS {
            let mut row = [0.0; WINDOW];
            for (n, b) in row.iter_mut().enumerate() {
                *b = (core::f64::consts::PI / m * (n as f64 + 0.5 + m / 2.0) * (k as f64 + 0.5))
                    .cos();
            }
            basis.push(row);
        }
        Self { window, basis }
    }

    /// Analyses a signal whose length is a multiple of 32, producing
    /// `len/32 + 1` granules (the signal is zero-extended by one hop at
    /// each end so synthesis reconstructs every input sample).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is zero or not a multiple of 32.
    #[must_use]
    pub fn analysis(&self, x: &[f64]) -> Vec<Granule> {
        assert!(
            !x.is_empty() && x.len() % BANDS == 0,
            "input length must be a positive multiple of 32"
        );
        let hops = x.len() / BANDS + 1;
        let padded_at = |i: i64| -> f64 {
            let idx = i - BANDS as i64; // front padding of one hop
            if idx < 0 || idx >= x.len() as i64 {
                0.0
            } else {
                x[idx as usize]
            }
        };
        let mut out = Vec::with_capacity(hops);
        for h in 0..hops {
            let start = (h * BANDS) as i64;
            let mut g = [0.0; BANDS];
            for (k, gk) in g.iter_mut().enumerate() {
                let mut acc = 0.0;
                for n in 0..WINDOW {
                    acc += padded_at(start + n as i64) * self.window[n] * self.basis[k][n];
                }
                *gk = acc;
            }
            out.push(g);
        }
        out
    }

    /// Synthesizes the signal from granules produced by
    /// [`Filterbank::analysis`]; returns `(granules.len() - 1) * 32`
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two granules are supplied.
    #[must_use]
    pub fn synthesis(&self, granules: &[Granule]) -> Vec<f64> {
        assert!(granules.len() >= 2, "need at least two granules");
        let out_len = (granules.len() - 1) * BANDS;
        let mut acc = vec![0.0; out_len + 2 * BANDS];
        let scale = 2.0 / BANDS as f64;
        for (h, g) in granules.iter().enumerate() {
            let start = h * BANDS;
            for n in 0..WINDOW {
                let mut s = 0.0;
                for (k, &gk) in g.iter().enumerate() {
                    s += gk * self.basis[k][n];
                }
                acc[start + n] += scale * self.window[n] * s;
            }
        }
        acc[BANDS..BANDS + out_len].to_vec()
    }

    /// Multiply–accumulate count for analysing `samples` input samples —
    /// used by the MPSoC calibration (experiment E2).
    #[must_use]
    pub fn analysis_macs(samples: usize) -> u64 {
        let hops = samples / BANDS + 1;
        (hops * BANDS * WINDOW) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal::gen::{SignalGen, ToneSpec};
    use signal::rng::Xoroshiro128;

    #[test]
    fn perfect_reconstruction_on_noise() {
        let mut rng = Xoroshiro128::new(71);
        let fb = Filterbank::new();
        let x: Vec<f64> = (0..1152).map(|_| rng.normal()).collect();
        let y = fb.synthesis(&fb.analysis(&x));
        assert_eq!(y.len(), x.len());
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn tone_concentrates_in_matching_band() {
        let fs = 32_000.0;
        let fb = Filterbank::new();
        // Band b covers ((b)/64, (b+1)/64) of fs: band 4 centre = 4.5/64*32k = 2250 Hz.
        let mut g = SignalGen::new(72);
        let x = g.tone(&ToneSpec::new(2250.0, 1.0), fs, 2048);
        let granules = fb.analysis(&x);
        // Sum energy per band over interior granules.
        let mut energy = [0.0f64; BANDS];
        for gr in &granules[4..granules.len() - 4] {
            for (b, &v) in gr.iter().enumerate() {
                energy[b] += v * v;
            }
        }
        let peak = energy
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak, 4, "energies: {energy:?}");
        // Neighbours far away should be tiny.
        assert!(energy[4] > 100.0 * energy[10]);
    }

    #[test]
    fn zero_signal_gives_zero_granules() {
        let fb = Filterbank::new();
        let granules = fb.analysis(&vec![0.0; 320]);
        for g in &granules {
            assert!(g.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn granule_count_is_hops_plus_one() {
        let fb = Filterbank::new();
        assert_eq!(fb.analysis(&vec![0.0; 320]).len(), 11);
    }

    #[test]
    fn window_satisfies_princen_bradley() {
        let fb = Filterbank::new();
        for n in 0..BANDS {
            let s = fb.window[n] * fb.window[n] + fb.window[n + BANDS] * fb.window[n + BANDS];
            assert!((s - 1.0).abs() < 1e-12, "n={n}: {s}");
        }
    }

    #[test]
    fn mac_count_formula() {
        assert_eq!(Filterbank::analysis_macs(320), 11 * 32 * 64);
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn bad_length_panics() {
        let fb = Filterbank::new();
        let _ = fb.analysis(&[0.0; 33]);
    }
}
