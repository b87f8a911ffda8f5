//! Parametric signal generators — the workspace's substitute for real
//! media corpora.
//!
//! The paper's audio model (§4) is explicit: *"Speech is often divided into
//! two types of sounds: voiced, which is periodic; and unvoiced, which has
//! broader frequency content. These two types of sound can be generated
//! filtering a combination of glottal resonance and noise."* The
//! [`SignalGen::speech`] generator implements exactly that source–filter
//! model, so the RPE-LTP codec is tested on signals from the same family it
//! was designed for. Tones, tone pairs (for masking probes), harmonic
//! "music" and coloured noise cover the remaining audio experiments.

use crate::filter::Biquad;
use crate::rng::Xoroshiro128;

/// A pure tone specification: frequency in Hz and linear amplitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToneSpec {
    /// Frequency in Hz.
    pub freq_hz: f64,
    /// Peak amplitude (linear).
    pub amplitude: f64,
    /// Initial phase in radians.
    pub phase: f64,
}

impl ToneSpec {
    /// A tone with zero initial phase.
    #[must_use]
    pub fn new(freq_hz: f64, amplitude: f64) -> Self {
        Self {
            freq_hz,
            amplitude,
            phase: 0.0,
        }
    }
}

/// Segment kinds produced by the speech generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpeechSegment {
    /// Periodic, glottal-pulse-excited sound (vowel-like).
    Voiced {
        /// Fundamental (pitch) frequency in Hz.
        pitch_hz: f64,
    },
    /// Noise-excited sound (fricative-like).
    Unvoiced,
    /// Silence between words.
    Silence,
}

/// Deterministic signal generator. All methods are pure functions of the
/// seed, so experiment workloads are reproducible.
///
/// # Example
///
/// ```
/// use signal::gen::{SignalGen, ToneSpec};
///
/// let mut g = SignalGen::new(1);
/// let s = g.tone(&ToneSpec::new(440.0, 0.5), 8_000.0, 800);
/// assert_eq!(s.len(), 800);
/// assert!(s.iter().all(|v| v.abs() <= 0.5 + 1e-12));
/// ```
#[derive(Debug, Clone)]
pub struct SignalGen {
    rng: Xoroshiro128,
}

impl SignalGen {
    /// Creates a generator with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Xoroshiro128::new(seed),
        }
    }

    /// A single sinusoid.
    #[must_use]
    pub fn tone(&mut self, spec: &ToneSpec, sample_rate: f64, len: usize) -> Vec<f64> {
        let w = core::f64::consts::TAU * spec.freq_hz / sample_rate;
        (0..len)
            .map(|i| spec.amplitude * (w * i as f64 + spec.phase).sin())
            .collect()
    }

    /// A sum of sinusoids — used for masking probes (§4: a strong tone
    /// masks a nearby weaker one) and harmonic "music".
    #[must_use]
    pub fn tones(&mut self, specs: &[ToneSpec], sample_rate: f64, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; len];
        for spec in specs {
            let w = core::f64::consts::TAU * spec.freq_hz / sample_rate;
            for (i, o) in out.iter_mut().enumerate() {
                *o += spec.amplitude * (w * i as f64 + spec.phase).sin();
            }
        }
        out
    }

    /// White Gaussian noise with the given standard deviation.
    #[must_use]
    pub fn white_noise(&mut self, sigma: f64, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.rng.normal_with(0.0, sigma)).collect()
    }

    /// Band-limited noise: white noise through a bandpass biquad centred at
    /// `center_hz`.
    #[must_use]
    pub fn band_noise(
        &mut self,
        sigma: f64,
        center_hz: f64,
        q: f64,
        sample_rate: f64,
        len: usize,
    ) -> Vec<f64> {
        let mut bq = Biquad::bandpass((center_hz / sample_rate).clamp(1e-4, 0.499), q);
        let white = self.white_noise(sigma, len);
        bq.process(&white)
    }

    /// Linear chirp from `f0` to `f1` Hz over the buffer.
    #[must_use]
    pub fn chirp(
        &mut self,
        f0: f64,
        f1: f64,
        amplitude: f64,
        sample_rate: f64,
        len: usize,
    ) -> Vec<f64> {
        let n = len.max(1) as f64;
        (0..len)
            .map(|i| {
                let t = i as f64 / sample_rate;
                let f = f0 + (f1 - f0) * (i as f64 / n) / 2.0;
                amplitude * (core::f64::consts::TAU * f * t).sin()
            })
            .collect()
    }

    /// Source–filter speech synthesis per the paper's §4 voice model.
    ///
    /// Voiced segments are glottal impulse trains (periodic, at `pitch_hz`),
    /// unvoiced segments are white noise; both are shaped by a pair of
    /// formant-like resonators. Returns the samples and the per-sample
    /// segment labels (useful as ground truth for classification tests).
    #[must_use]
    pub fn speech(
        &mut self,
        segments: &[(SpeechSegment, usize)],
        sample_rate: f64,
    ) -> (Vec<f64>, Vec<SpeechSegment>) {
        let total: usize = segments.iter().map(|(_, n)| n).sum();
        let mut excitation = Vec::with_capacity(total);
        let mut labels = Vec::with_capacity(total);
        for &(seg, n) in segments {
            match seg {
                SpeechSegment::Voiced { pitch_hz } => {
                    let period = (sample_rate / pitch_hz).max(2.0) as usize;
                    for i in 0..n {
                        // Glottal pulse: impulse with a little shape.
                        let ph = i % period;
                        let v = match ph {
                            0 => 1.0,
                            1 => 0.6,
                            2 => 0.25,
                            _ => 0.0,
                        };
                        excitation.push(v + self.rng.normal_with(0.0, 0.01));
                        labels.push(seg);
                    }
                }
                SpeechSegment::Unvoiced => {
                    for _ in 0..n {
                        excitation.push(self.rng.normal_with(0.0, 0.3));
                        labels.push(seg);
                    }
                }
                SpeechSegment::Silence => {
                    for _ in 0..n {
                        excitation.push(self.rng.normal_with(0.0, 0.001));
                        labels.push(seg);
                    }
                }
            }
        }
        // Two formant resonators (≈ F1 500 Hz, F2 1500 Hz) — the "glottal
        // resonance" filter of the paper's description.
        let mut f1 = Biquad::bandpass((500.0 / sample_rate).clamp(1e-4, 0.45), 4.0);
        let mut f2 = Biquad::bandpass((1500.0 / sample_rate).clamp(1e-4, 0.45), 6.0);
        let shaped: Vec<f64> = excitation
            .iter()
            .map(|&x| 0.7 * f1.step(x) + 0.3 * f2.step(x) + 0.05 * x)
            .collect();
        (shaped, labels)
    }

    /// A stock "sentence": voiced/unvoiced/silence alternation of realistic
    /// proportions, `len` samples long.
    #[must_use]
    pub fn speech_sentence(
        &mut self,
        sample_rate: f64,
        len: usize,
    ) -> (Vec<f64>, Vec<SpeechSegment>) {
        let mut plan = Vec::new();
        let mut remaining = len;
        while remaining > 0 {
            let pitch = self.rng.range_f64(90.0, 220.0);
            for seg in [
                (
                    SpeechSegment::Voiced { pitch_hz: pitch },
                    (0.12 * sample_rate) as usize,
                ),
                (SpeechSegment::Unvoiced, (0.05 * sample_rate) as usize),
                (
                    SpeechSegment::Voiced {
                        pitch_hz: pitch * 1.1,
                    },
                    (0.10 * sample_rate) as usize,
                ),
                (SpeechSegment::Silence, (0.04 * sample_rate) as usize),
            ] {
                let n = seg.1.min(remaining);
                if n > 0 {
                    plan.push((seg.0, n));
                    remaining -= n;
                }
                if remaining == 0 {
                    break;
                }
            }
        }
        self.speech(&plan, sample_rate)
    }

    /// Harmonic "music": a fundamental plus decaying overtones with slow
    /// amplitude modulation — enough spectral structure for the subband
    /// coder and the genre classifier to chew on.
    #[must_use]
    pub fn music(&mut self, fundamental_hz: f64, sample_rate: f64, len: usize) -> Vec<f64> {
        let harmonics: Vec<ToneSpec> = (1..=8)
            .map(|h| ToneSpec {
                freq_hz: fundamental_hz * h as f64,
                amplitude: 0.5 / h as f64,
                phase: self.rng.range_f64(0.0, core::f64::consts::TAU),
            })
            .filter(|t| t.freq_hz < 0.45 * sample_rate)
            .collect();
        let base = self.tones(&harmonics, sample_rate, len);
        // Tremolo at ~4 Hz plus a faint noise floor.
        base.iter()
            .enumerate()
            .map(|(i, &v)| {
                let t = i as f64 / sample_rate;
                let trem = 1.0 + 0.2 * (core::f64::consts::TAU * 4.0 * t).sin();
                v * trem + self.rng.normal_with(0.0, 0.002)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::Fft;

    fn dominant_bin(x: &[f64]) -> usize {
        let fft = Fft::new(x.len());
        let p = fft.power_spectrum(x);
        p.iter()
            .enumerate()
            .skip(1) // skip DC
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0
    }

    #[test]
    fn tone_lands_in_expected_bin() {
        let mut g = SignalGen::new(1);
        let fs = 8000.0;
        let n = 1024;
        let s = g.tone(&ToneSpec::new(1000.0, 1.0), fs, n);
        // bin = f/fs * N = 128.
        assert_eq!(dominant_bin(&s), 128);
    }

    #[test]
    fn tones_superpose() {
        let mut g = SignalGen::new(2);
        let fs = 8000.0;
        let s = g.tones(
            &[ToneSpec::new(500.0, 1.0), ToneSpec::new(2000.0, 0.5)],
            fs,
            512,
        );
        let fft = Fft::new(512);
        let p = fft.power_spectrum(&s);
        let b1 = (500.0 / fs * 512.0) as usize;
        let b2 = (2000.0 / fs * 512.0) as usize;
        assert!(p[b1] > 10.0 * p[b1 + 5]);
        assert!(p[b2] > 10.0 * p[b2 + 5]);
        assert!(p[b1] > p[b2], "stronger tone carries more power");
    }

    #[test]
    fn white_noise_statistics() {
        let mut g = SignalGen::new(3);
        let s = g.white_noise(2.0, 50_000);
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        let var = s.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / s.len() as f64;
        assert!(mean.abs() < 0.05);
        assert!((var - 4.0).abs() < 0.2);
    }

    #[test]
    fn band_noise_concentrates_near_center() {
        let mut g = SignalGen::new(4);
        let fs = 8000.0;
        let s = g.band_noise(1.0, 1000.0, 5.0, fs, 4096);
        let fft = Fft::new(4096);
        let p = fft.power_spectrum(&s);
        let center_band: f64 = p[450..580].iter().sum();
        let far_band: f64 = p[1500..1630].iter().sum();
        assert!(center_band > 10.0 * far_band);
    }

    #[test]
    fn voiced_speech_is_periodic_unvoiced_is_not() {
        let mut g = SignalGen::new(5);
        let fs = 8000.0;
        let (voiced, _) = g.speech(&[(SpeechSegment::Voiced { pitch_hz: 100.0 }, 4000)], fs);
        let (unvoiced, _) = g.speech(&[(SpeechSegment::Unvoiced, 4000)], fs);
        // Normalized autocorrelation at the 80-sample pitch lag.
        let ac = |x: &[f64], lag: usize| {
            let e: f64 = x.iter().map(|v| v * v).sum();
            let c: f64 = x[..x.len() - lag]
                .iter()
                .zip(&x[lag..])
                .map(|(a, b)| a * b)
                .sum();
            c / e.max(1e-12)
        };
        let lag = (fs / 100.0) as usize;
        assert!(
            ac(&voiced[500..], lag) > 0.4,
            "voiced autocorrelation too low"
        );
        assert!(
            ac(&unvoiced[500..], lag) < 0.3,
            "unvoiced autocorrelation too high"
        );
    }

    #[test]
    fn speech_labels_cover_all_samples() {
        let mut g = SignalGen::new(6);
        let (s, labels) = g.speech_sentence(8000.0, 12_345);
        assert_eq!(s.len(), 12_345);
        assert_eq!(labels.len(), 12_345);
        assert!(labels
            .iter()
            .any(|l| matches!(l, SpeechSegment::Voiced { .. })));
        assert!(labels.iter().any(|l| matches!(l, SpeechSegment::Unvoiced)));
    }

    #[test]
    fn silence_is_quiet() {
        let mut g = SignalGen::new(7);
        let (s, _) = g.speech(&[(SpeechSegment::Silence, 2000)], 8000.0);
        let rms = (s.iter().map(|v| v * v).sum::<f64>() / s.len() as f64).sqrt();
        assert!(rms < 0.01, "silence rms {rms}");
    }

    #[test]
    fn music_has_harmonic_structure() {
        let mut g = SignalGen::new(8);
        let fs = 44_100.0;
        let s = g.music(440.0, fs, 8192);
        let fft = Fft::new(8192);
        let p = fft.power_spectrum(&s);
        let bin = |f: f64| (f / fs * 8192.0).round() as usize;
        // Fundamental and second harmonic both present, well above the floor.
        let floor: f64 = p[bin(300.0)];
        assert!(p[bin(440.0)] > 20.0 * floor);
        assert!(p[bin(880.0)] > 5.0 * floor);
    }

    #[test]
    fn chirp_sweeps_up() {
        let mut g = SignalGen::new(9);
        let fs = 8000.0;
        let s = g.chirp(200.0, 3000.0, 1.0, fs, 8192);
        let early = dominant_bin(&s[..1024]);
        let late_slice = &s[7168..8192];
        let late = dominant_bin(late_slice);
        assert!(
            late > early,
            "chirp frequency should increase: {early} -> {late}"
        );
    }

    #[test]
    fn determinism_same_seed() {
        let mut a = SignalGen::new(10);
        let mut b = SignalGen::new(10);
        assert_eq!(a.white_noise(1.0, 64), b.white_noise(1.0, 64));
    }
}
