//! RPE-LTP speech codec — the GSM full-rate scheme of paper §4.
//!
//! *"The GSM cellular telephony standard uses an audio compression method
//! called Regular Pulse Excitation-Long Term Predictor (RPE-LTP). This
//! method uses a fairly simple model of the voice to encode speech."*
//!
//! The structure follows GSM 06.10: 160-sample frames at 8 kHz; an 8th-
//! order short-term LPC analysis (autocorrelation + Levinson–Durbin); four
//! 40-sample subframes each carrying a long-term predictor (pitch lag +
//! gain) and a regular-pulse-excitation grid (every 3rd residual sample,
//! best of 3 phases, block-max quantized). Bit layout quantities match the
//! standard's order of magnitude (≈260 bits / 20 ms ≈ 13 kbit/s); the
//! quantizer tables are simplified.

use signal::bits::{BitReader, BitWriter, OutOfBitsError};

/// Samples per frame (20 ms at 8 kHz).
pub const FRAME: usize = 160;
/// Subframe length.
pub const SUBFRAME: usize = 40;
/// LPC order.
pub const LPC_ORDER: usize = 8;
/// RPE decimation factor.
pub const RPE_STRIDE: usize = 3;
/// Pulses per subframe grid (ceil(40/3)).
pub const RPE_PULSES: usize = 14;
/// Minimum long-term lag searched.
pub const MIN_LAG: usize = 40;
/// Maximum long-term lag searched.
pub const MAX_LAG: usize = 120;

/// Errors from the speech codec.
#[derive(Debug, Clone, PartialEq)]
pub enum SpeechError {
    /// Input length is not a positive multiple of the frame size.
    BadLength(usize),
    /// Stream truncated mid-frame.
    Truncated(OutOfBitsError),
    /// Bad stream magic.
    BadMagic(u32),
    /// A subframe's long-term lag exceeds [`MAX_LAG`].
    BadLag(usize),
}

impl core::fmt::Display for SpeechError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpeechError::BadLength(n) => {
                write!(f, "input length {n} is not a positive multiple of {FRAME}")
            }
            SpeechError::Truncated(e) => write!(f, "truncated stream: {e}"),
            SpeechError::BadMagic(m) => write!(f, "bad magic {m:#x}"),
            SpeechError::BadLag(l) => write!(f, "long-term lag {l} exceeds {MAX_LAG}"),
        }
    }
}

impl std::error::Error for SpeechError {}

impl From<OutOfBitsError> for SpeechError {
    fn from(e: OutOfBitsError) -> Self {
        SpeechError::Truncated(e)
    }
}

const MAGIC: u32 = 0x5350; // "SP"

/// Per-frame diagnostics from encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeechFrameStats {
    /// Bits used by the frame.
    pub bits: usize,
    /// Mean quantized LTP gain across the four subframes (0..1); high for
    /// voiced (periodic) speech, low for unvoiced.
    pub mean_ltp_gain: f64,
    /// Best lag per subframe.
    pub lags: [usize; 4],
}

/// An encoded speech stream.
#[derive(Debug, Clone)]
pub struct EncodedSpeech {
    /// Packed bytes.
    pub bytes: Vec<u8>,
    /// Per-frame stats.
    pub frames: Vec<SpeechFrameStats>,
}

impl EncodedSpeech {
    /// Bit rate in bits per second at 8 kHz.
    #[must_use]
    pub fn bitrate_bps(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        let bits: usize = self.frames.iter().map(|f| f.bits).sum();
        bits as f64 / (self.frames.len() as f64 * FRAME as f64 / 8000.0)
    }
}

/// Levinson–Durbin recursion: LPC coefficients from autocorrelation.
/// Returns `order` coefficients `a[1..=order]` of the prediction
/// `x[n] ≈ Σ a[k] x[n-k]`.
#[must_use]
pub fn levinson_durbin(autocorr: &[f64], order: usize) -> Vec<f64> {
    assert!(autocorr.len() > order, "need order+1 autocorrelation lags");
    let mut a = vec![0.0; order + 1];
    let mut e = autocorr[0].max(1e-9);
    for i in 1..=order {
        let mut acc = autocorr[i];
        for j in 1..i {
            acc -= a[j] * autocorr[i - j];
        }
        let k = (acc / e).clamp(-0.999, 0.999);
        let mut new_a = a.clone();
        new_a[i] = k;
        for j in 1..i {
            new_a[j] = a[j] - k * a[i - j];
        }
        a = new_a;
        e *= 1.0 - k * k;
        if e <= 0.0 {
            break;
        }
    }
    a[1..].to_vec()
}

/// Autocorrelation of `x` at lags `0..=max_lag`.
#[must_use]
pub fn autocorrelation(x: &[f64], max_lag: usize) -> Vec<f64> {
    (0..=max_lag)
        .map(|lag| x[lag..].iter().zip(x).map(|(a, b)| a * b).sum::<f64>())
        .collect()
}

/// Quantizes an LPC coefficient to 6 bits in [-2, 2).
fn quant_lpc(c: f64) -> u32 {
    (((c.clamp(-2.0, 1.999) + 2.0) / 4.0) * 63.0).round() as u32
}

fn dequant_lpc(q: u32) -> f64 {
    (q as f64 / 63.0) * 4.0 - 2.0
}

/// Quantizes an LTP gain to 2 bits over {0.1, 0.35, 0.65, 0.95}.
fn quant_gain(g: f64) -> u32 {
    const LEVELS: [f64; 4] = [0.1, 0.35, 0.65, 0.95];
    LEVELS
        .iter()
        .enumerate()
        .min_by(|a, b| (a.1 - g).abs().total_cmp(&(b.1 - g).abs()))
        .map(|(i, _)| i as u32)
        .expect("levels non-empty")
}

fn dequant_gain(q: u32) -> f64 {
    [0.1, 0.35, 0.65, 0.95][q as usize & 3]
}

/// Quantizes a block maximum to 6 bits, logarithmic.
fn quant_max(m: f64) -> u32 {
    if m <= 1e-6 {
        return 0;
    }
    // 6-bit log scale over [1e-6, ~32).
    let db = 20.0 * m.log10(); // -120 .. +30
    (((db + 120.0) / 150.0) * 63.0).clamp(0.0, 63.0).round() as u32
}

fn dequant_max(q: u32) -> f64 {
    if q == 0 {
        return 0.0;
    }
    10f64.powf(((q as f64 / 63.0) * 150.0 - 120.0) / 20.0)
}

/// The RPE-LTP codec.
///
/// # Example
///
/// ```
/// use audio::rpeltp::RpeLtp;
/// use signal::gen::SignalGen;
///
/// let (speech, _) = SignalGen::new(3).speech_sentence(8000.0, 4 * 160);
/// let codec = RpeLtp::new();
/// let enc = codec.encode(&speech)?;
/// let dec = codec.decode(&enc.bytes)?;
/// assert_eq!(dec.len(), speech.len());
/// // ≈13 kbit/s, the GSM full-rate ballpark.
/// assert!(enc.bitrate_bps() > 10_000.0 && enc.bitrate_bps() < 17_000.0);
/// # Ok::<(), audio::rpeltp::SpeechError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RpeLtp;

impl RpeLtp {
    /// Creates the codec (stateless between calls; history is carried
    /// inside each stream).
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Encodes speech (length must be a positive multiple of 160).
    ///
    /// # Errors
    ///
    /// Returns [`SpeechError::BadLength`] otherwise.
    pub fn encode(&self, pcm: &[f64]) -> Result<EncodedSpeech, SpeechError> {
        if pcm.is_empty() || !pcm.len().is_multiple_of(FRAME) {
            return Err(SpeechError::BadLength(pcm.len()));
        }
        let mut w = BitWriter::new();
        w.write_bits(MAGIC, 16);
        w.write_bits((pcm.len() / FRAME) as u32, 16);

        let mut stats = Vec::new();
        // Reconstructed residual history for LTP (what the decoder will
        // have), padded with zeros initially.
        let mut residual_history = vec![0.0f64; MAX_LAG];
        // Short-term filter memory across frames.
        let mut st_memory = [0.0f64; LPC_ORDER];

        for frame in pcm.chunks_exact(FRAME) {
            let start_bits = w.bit_len();
            // --- Short-term analysis.
            let ac = autocorrelation(frame, LPC_ORDER);
            let lpc = levinson_durbin(&ac, LPC_ORDER);
            let lpc_q: Vec<u32> = lpc.iter().map(|&c| quant_lpc(c)).collect();
            let lpc_dq: Vec<f64> = lpc_q.iter().map(|&q| dequant_lpc(q)).collect();
            for &q in &lpc_q {
                w.write_bits(q, 6);
            }
            // Short-term residual with quantized coefficients and carried
            // memory.
            let mut residual = vec![0.0f64; FRAME];
            for n in 0..FRAME {
                let mut pred = 0.0;
                for (k, &a) in lpc_dq.iter().enumerate() {
                    let idx = n as i64 - (k as i64 + 1);
                    let x = if idx >= 0 {
                        frame[idx as usize]
                    } else {
                        st_memory[(-idx - 1) as usize]
                    };
                    pred += a * x;
                }
                residual[n] = frame[n] - pred;
            }
            // Update short-term memory with the *input* tail (encoder-side
            // approximation; decoder mirrors with its reconstruction).
            for k in 0..LPC_ORDER {
                st_memory[k] = frame[FRAME - 1 - k];
            }

            // --- Per-subframe LTP + RPE.
            let mut mean_gain = 0.0;
            let mut lags = [0usize; 4];
            for (s, lag_slot) in lags.iter_mut().enumerate() {
                let sub = &residual[s * SUBFRAME..(s + 1) * SUBFRAME];
                // LTP search over the reconstructed residual history.
                let hist_len = residual_history.len();
                let mut best_lag = MIN_LAG;
                let mut best_corr = f64::NEG_INFINITY;
                for lag in MIN_LAG..=MAX_LAG {
                    let mut corr = 0.0;
                    let mut energy = 1e-9;
                    for n in 0..SUBFRAME {
                        let h = residual_history[hist_len - lag + n % lag];
                        corr += sub[n] * h;
                        energy += h * h;
                    }
                    let score = corr * corr / energy;
                    if score > best_corr {
                        best_corr = score;
                        best_lag = lag;
                    }
                }
                // Gain = normalized correlation at the best lag.
                let mut corr = 0.0;
                let mut energy = 1e-9;
                let mut pred = vec![0.0f64; SUBFRAME];
                for n in 0..SUBFRAME {
                    let h = residual_history[hist_len - best_lag + n % best_lag];
                    pred[n] = h;
                    corr += sub[n] * h;
                    energy += h * h;
                }
                let gain = (corr / energy).clamp(0.0, 1.0);
                let gain_q = quant_gain(gain);
                let gain_dq = dequant_gain(gain_q);
                mean_gain += gain_dq / 4.0;
                *lag_slot = best_lag;

                // LTP residual = subframe - gain * history.
                let ltp_res: Vec<f64> = (0..SUBFRAME).map(|n| sub[n] - gain_dq * pred[n]).collect();

                // RPE: best of 3 phases, samples every 3rd position.
                let mut best_phase = 0usize;
                let mut best_energy = f64::NEG_INFINITY;
                for phase in 0..RPE_STRIDE {
                    let e: f64 = (phase..SUBFRAME)
                        .step_by(RPE_STRIDE)
                        .map(|i| ltp_res[i] * ltp_res[i])
                        .sum();
                    if e > best_energy {
                        best_energy = e;
                        best_phase = phase;
                    }
                }
                let pulses: Vec<f64> = (best_phase..SUBFRAME)
                    .step_by(RPE_STRIDE)
                    .map(|i| ltp_res[i])
                    .collect();
                let block_max = pulses.iter().fold(0.0f64, |m, &p| m.max(p.abs()));
                let max_q = quant_max(block_max);
                let max_dq = dequant_max(max_q);

                // Emit subframe: lag (7 bits, offset MIN_LAG), gain (2),
                // phase (2), max (6), pulses (3 bits each).
                w.write_bits((best_lag - MIN_LAG) as u32, 7);
                w.write_bits(gain_q, 2);
                w.write_bits(best_phase as u32, 2);
                w.write_bits(max_q, 6);
                let mut recon_excitation = vec![0.0f64; SUBFRAME];
                for (pi, &p) in pulses.iter().enumerate() {
                    let code = if max_dq <= 0.0 {
                        3
                    } else {
                        (((p / max_dq).clamp(-1.0, 1.0) + 1.0) / 2.0 * 7.0).round() as u32
                    };
                    w.write_bits(code, 3);
                    let dq = if max_dq <= 0.0 {
                        0.0
                    } else {
                        (code as f64 / 7.0 * 2.0 - 1.0) * max_dq
                    };
                    recon_excitation[best_phase + pi * RPE_STRIDE] = dq;
                }

                // Reconstructed subframe residual (decoder mirror) feeds
                // the LTP history.
                let recon_sub: Vec<f64> = (0..SUBFRAME)
                    .map(|n| gain_dq * pred[n] + recon_excitation[n])
                    .collect();
                residual_history.extend_from_slice(&recon_sub);
                let excess = residual_history.len() - MAX_LAG.max(SUBFRAME * 4);
                if excess > 0 && residual_history.len() > 4 * MAX_LAG {
                    residual_history.drain(..residual_history.len() - 2 * MAX_LAG);
                }
            }

            stats.push(SpeechFrameStats {
                bits: w.bit_len() - start_bits,
                mean_ltp_gain: mean_gain,
                lags,
            });
        }
        Ok(EncodedSpeech {
            bytes: w.into_bytes(),
            frames: stats,
        })
    }

    /// Decodes a stream produced by [`RpeLtp::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`SpeechError`] on malformed input.
    pub fn decode(&self, bytes: &[u8]) -> Result<Vec<f64>, SpeechError> {
        let mut r = BitReader::new(bytes);
        let magic = r.read_bits(16)?;
        if magic != MAGIC {
            return Err(SpeechError::BadMagic(magic));
        }
        let n_frames = r.read_bits(16)? as usize;
        // Every frame takes at least its 48 LPC bits: reserve no more
        // frames than the input can hold.
        let mut out = Vec::with_capacity(n_frames.min(r.remaining() / 48) * FRAME);
        let mut residual_history = vec![0.0f64; MAX_LAG];
        let mut st_memory = [0.0f64; LPC_ORDER];

        for _ in 0..n_frames {
            let mut lpc_dq = vec![0.0f64; LPC_ORDER];
            for c in &mut lpc_dq {
                *c = dequant_lpc(r.read_bits(6)?);
            }
            let mut frame_residual = Vec::with_capacity(FRAME);
            for _ in 0..4 {
                let lag = r.read_bits(7)? as usize + MIN_LAG;
                if lag > MAX_LAG {
                    return Err(SpeechError::BadLag(lag));
                }
                let gain = dequant_gain(r.read_bits(2)?);
                let phase = r.read_bits(2)? as usize;
                let max_dq = dequant_max(r.read_bits(6)?);
                let hist_len = residual_history.len();
                let mut excitation = vec![0.0f64; SUBFRAME];
                for pi in 0..RPE_PULSES.min((SUBFRAME - phase).div_ceil(RPE_STRIDE)) {
                    let code = r.read_bits(3)?;
                    let v = if max_dq <= 0.0 {
                        0.0
                    } else {
                        (code as f64 / 7.0 * 2.0 - 1.0) * max_dq
                    };
                    let pos = phase + pi * RPE_STRIDE;
                    if pos < SUBFRAME {
                        excitation[pos] = v;
                    }
                }
                let recon_sub: Vec<f64> = (0..SUBFRAME)
                    .map(|n| gain * residual_history[hist_len - lag + n % lag] + excitation[n])
                    .collect();
                residual_history.extend_from_slice(&recon_sub);
                if residual_history.len() > 4 * MAX_LAG {
                    residual_history.drain(..residual_history.len() - 2 * MAX_LAG);
                }
                frame_residual.extend(recon_sub);
            }
            // Short-term synthesis: x[n] = res[n] + Σ a[k] x[n-k].
            let mut frame_out = vec![0.0f64; FRAME];
            for n in 0..FRAME {
                let mut pred = 0.0;
                for (k, &a) in lpc_dq.iter().enumerate() {
                    let idx = n as i64 - (k as i64 + 1);
                    let x = if idx >= 0 {
                        frame_out[idx as usize]
                    } else {
                        st_memory[(-idx - 1) as usize]
                    };
                    pred += a * x;
                }
                frame_out[n] = (frame_residual[n] + pred).clamp(-8.0, 8.0);
            }
            for k in 0..LPC_ORDER {
                st_memory[k] = frame_out[FRAME - 1 - k];
            }
            out.extend(frame_out);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal::gen::{SignalGen, SpeechSegment};

    #[test]
    fn lags_beyond_the_history_are_a_typed_error() {
        let mut w = BitWriter::new();
        w.write_bits(MAGIC, 16);
        w.write_bits(1, 16);
        for _ in 0..LPC_ORDER {
            w.write_bits(0, 6);
        }
        w.write_bits(127, 7); // lag 167 > MAX_LAG
        w.write_bits(0, 32);
        let bytes = w.into_bytes();
        assert_eq!(
            RpeLtp::new().decode(&bytes).unwrap_err(),
            SpeechError::BadLag(127 + MIN_LAG)
        );
    }

    #[test]
    fn length_validation() {
        let c = RpeLtp::new();
        assert_eq!(c.encode(&[]).unwrap_err(), SpeechError::BadLength(0));
        assert_eq!(
            c.encode(&vec![0.0; 100]).unwrap_err(),
            SpeechError::BadLength(100)
        );
    }

    #[test]
    fn bitrate_is_gsm_ballpark() {
        let (speech, _) = SignalGen::new(21).speech_sentence(8000.0, 8 * FRAME);
        let enc = RpeLtp::new().encode(&speech).unwrap();
        let rate = enc.bitrate_bps();
        assert!(
            (10_000.0..17_000.0).contains(&rate),
            "bitrate {rate:.0} bps outside the 13 kbit/s ballpark"
        );
    }

    #[test]
    fn voiced_frames_show_higher_ltp_gain_than_unvoiced() {
        let mut g = SignalGen::new(22);
        let (voiced, _) = g.speech(
            &[(SpeechSegment::Voiced { pitch_hz: 100.0 }, 8 * FRAME)],
            8000.0,
        );
        let (unvoiced, _) = g.speech(&[(SpeechSegment::Unvoiced, 8 * FRAME)], 8000.0);
        let codec = RpeLtp::new();
        let ev = codec.encode(&voiced).unwrap();
        let eu = codec.encode(&unvoiced).unwrap();
        // Skip the first frames (history warm-up).
        let gain = |e: &EncodedSpeech| {
            e.frames[2..].iter().map(|f| f.mean_ltp_gain).sum::<f64>() / (e.frames.len() - 2) as f64
        };
        let gv = gain(&ev);
        let gu = gain(&eu);
        assert!(
            gv > gu + 0.1,
            "voiced LTP gain {gv:.2} should clearly exceed unvoiced {gu:.2}"
        );
    }

    #[test]
    fn voiced_lag_tracks_pitch_period() {
        let mut g = SignalGen::new(23);
        // 100 Hz pitch at 8 kHz = 80-sample period.
        let (voiced, _) = g.speech(
            &[(SpeechSegment::Voiced { pitch_hz: 100.0 }, 8 * FRAME)],
            8000.0,
        );
        let enc = RpeLtp::new().encode(&voiced).unwrap();
        let lags: Vec<usize> = enc.frames[3..].iter().flat_map(|f| f.lags).collect();
        let near_pitch = lags
            .iter()
            .filter(|&&l| (l as i64 - 80).abs() <= 3 || (l as i64 - 40).abs() <= 3)
            .count();
        assert!(
            near_pitch * 2 > lags.len(),
            "most lags should sit at the pitch period (or its half): {lags:?}"
        );
    }

    #[test]
    fn decoder_reconstructs_energy_envelope() {
        let mut g = SignalGen::new(24);
        let (speech, _) = g.speech(
            &[
                (SpeechSegment::Voiced { pitch_hz: 120.0 }, 4 * FRAME),
                (SpeechSegment::Silence, 2 * FRAME),
                (SpeechSegment::Unvoiced, 2 * FRAME),
            ],
            8000.0,
        );
        let codec = RpeLtp::new();
        let enc = codec.encode(&speech).unwrap();
        let dec = codec.decode(&enc.bytes).unwrap();
        assert_eq!(dec.len(), speech.len());
        // Energy per segment must follow the source: voiced loud,
        // silence quiet.
        let rms = |x: &[f64]| (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt();
        let voiced_rms = rms(&dec[FRAME..4 * FRAME]);
        let silence_rms = rms(&dec[4 * FRAME + FRAME / 2..6 * FRAME - FRAME / 2]);
        assert!(
            voiced_rms > 4.0 * silence_rms,
            "voiced {voiced_rms:.4} vs silence {silence_rms:.4}"
        );
    }

    #[test]
    fn round_trip_is_deterministic() {
        let (speech, _) = SignalGen::new(25).speech_sentence(8000.0, 4 * FRAME);
        let codec = RpeLtp::new();
        let a = codec.encode(&speech).unwrap();
        let b = codec.encode(&speech).unwrap();
        assert_eq!(a.bytes, b.bytes);
    }

    #[test]
    fn corrupt_stream_rejected() {
        assert!(matches!(
            RpeLtp::new().decode(&[1, 2, 3]),
            Err(SpeechError::BadMagic(_)) | Err(SpeechError::Truncated(_))
        ));
    }

    #[test]
    fn levinson_durbin_recovers_ar_process() {
        // Synthesize x[n] = 0.8 x[n-1] + e and check a1 ≈ 0.8.
        let mut rng = signal::rng::Xoroshiro128::new(26);
        let mut x = vec![0.0f64; 4000];
        for n in 1..x.len() {
            x[n] = 0.8 * x[n - 1] + rng.normal_with(0.0, 0.1);
        }
        let ac = autocorrelation(&x, 2);
        let lpc = levinson_durbin(&ac, 2);
        assert!((lpc[0] - 0.8).abs() < 0.06, "a1 = {}", lpc[0]);
        assert!(lpc[1].abs() < 0.08, "a2 = {}", lpc[1]);
    }
}
