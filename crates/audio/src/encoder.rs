//! The MPEG-1-style audio encoder of Figure 2, end to end.
//!
//! **Mapper → quantizer/coder → frame packer**, with the **psychoacoustic
//! model** steering bit allocation — exactly the paper's block diagram.
//! Frames are 1152 samples (36 granules of 32 subband samples), packed
//! with per-band allocations and scalefactors into a bitstream the
//! [`decode`] function reverses.

use signal::bits::{BitReader, BitWriter, OutOfBitsError};

use crate::alloc::{self, Allocation};
use crate::filterbank::{Filterbank, Granule, BANDS};
use crate::psycho::PsychoModel;
use crate::quantizer;

/// Samples per frame (36 granules × 32 bands).
pub const FRAME_SAMPLES: usize = 1152;
/// Granules per frame.
pub const GRANULES: usize = FRAME_SAMPLES / BANDS;

/// Magic number opening a stream.
const MAGIC: u32 = 0x4157; // "AW"

/// The smallest frame: granule count (8 bits), then 4 allocation and 6
/// scalefactor bits per band.
const MIN_FRAME_BITS: usize = 8 + BANDS * (4 + 6);

/// Allocation strategy for the encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationMode {
    /// Psychoacoustic allocation driven by the masking model (Figure 2).
    Psychoacoustic,
    /// Flat allocation — the "no psychoacoustics" baseline of E7.
    Flat,
}

impl core::fmt::Display for AllocationMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            AllocationMode::Psychoacoustic => "psychoacoustic",
            AllocationMode::Flat => "flat",
        })
    }
}

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AudioConfig {
    /// Sample rate in Hz (informational; stored in the header).
    pub sample_rate: f64,
    /// Bit budget per frame for subband samples (header overhead is
    /// separate). 1152-sample frames at 44.1 kHz with a 4608-bit budget
    /// ≈ 176 kbit/s.
    pub budget_bits_per_frame: u64,
    /// Allocation strategy.
    pub mode: AllocationMode,
}

impl Default for AudioConfig {
    /// 44.1 kHz, 4608 bits/frame (≈176 kbit/s), psychoacoustic.
    fn default() -> Self {
        Self {
            sample_rate: 44_100.0,
            budget_bits_per_frame: 4608,
            mode: AllocationMode::Psychoacoustic,
        }
    }
}

/// Errors from audio encoding/decoding.
#[derive(Debug, Clone, PartialEq)]
pub enum AudioError {
    /// Input is empty or not a multiple of the frame size.
    BadLength(usize),
    /// Stream did not start with the magic number.
    BadMagic(u32),
    /// Stream ended prematurely.
    Truncated(OutOfBitsError),
    /// A frame header declared fewer than the two granules synthesis
    /// needs.
    BadGranules(usize),
}

impl core::fmt::Display for AudioError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AudioError::BadLength(n) => {
                write!(
                    f,
                    "input length {n} is not a positive multiple of {FRAME_SAMPLES}"
                )
            }
            AudioError::BadMagic(m) => write!(f, "bad magic {m:#x}"),
            AudioError::Truncated(e) => write!(f, "truncated stream: {e}"),
            AudioError::BadGranules(n) => {
                write!(f, "frame declares {n} granules; at least 2 are needed")
            }
        }
    }
}

impl std::error::Error for AudioError {}

impl From<OutOfBitsError> for AudioError {
    fn from(e: OutOfBitsError) -> Self {
        AudioError::Truncated(e)
    }
}

/// Per-stage op tallies for one encode (experiment E2's breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AudioTally {
    /// Filterbank multiply–accumulates.
    pub filterbank_macs: u64,
    /// Psychoacoustic model FFT butterflies plus spreading ops.
    pub psycho_ops: u64,
    /// Samples quantized.
    pub quant_samples: u64,
    /// Bits packed into frames.
    pub packed_bits: u64,
}

/// One encoded frame's bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct AudioFrameStats {
    /// Bits used by this frame (header + payload).
    pub bits: usize,
    /// Bands allocated zero bits (masked or out of budget).
    pub zeroed_bands: usize,
    /// The allocation chosen.
    pub allocation: Allocation,
}

/// An encoded audio stream.
#[derive(Debug, Clone)]
pub struct EncodedAudio {
    /// The packed bytes.
    pub bytes: Vec<u8>,
    /// Per-frame stats.
    pub frames: Vec<AudioFrameStats>,
    /// Stage tallies.
    pub tally: AudioTally,
    /// Source sample count.
    pub sample_count: usize,
}

impl EncodedAudio {
    /// Bits per second at the configured sample rate.
    #[must_use]
    pub fn bitrate_bps(&self, sample_rate: f64) -> f64 {
        if self.sample_count == 0 {
            return 0.0;
        }
        let secs = self.sample_count as f64 / sample_rate;
        (self.bytes.len() * 8) as f64 / secs
    }

    /// Compression ratio vs 16-bit PCM.
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        (self.sample_count * 16) as f64 / ((self.bytes.len() * 8).max(1)) as f64
    }
}

/// The audio encoder.
///
/// # Example
///
/// ```
/// use audio::encoder::{AudioConfig, AudioEncoder, decode};
/// use signal::gen::SignalGen;
///
/// let pcm = SignalGen::new(5).music(440.0, 44_100.0, 2 * 1152);
/// let enc = AudioEncoder::new(AudioConfig::default());
/// let stream = enc.encode(&pcm)?;
/// let out = decode(&stream.bytes)?;
/// assert_eq!(out.samples.len(), pcm.len());
/// # Ok::<(), audio::encoder::AudioError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AudioEncoder {
    config: AudioConfig,
    filterbank: Filterbank,
    psycho: PsychoModel,
}

impl AudioEncoder {
    /// Creates an encoder.
    #[must_use]
    pub fn new(config: AudioConfig) -> Self {
        Self {
            config,
            filterbank: Filterbank::new(),
            psycho: PsychoModel::new(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &AudioConfig {
        &self.config
    }

    /// Encodes PCM samples (length must be a positive multiple of 1152).
    ///
    /// # Errors
    ///
    /// Returns [`AudioError::BadLength`] otherwise.
    pub fn encode(&self, pcm: &[f64]) -> Result<EncodedAudio, AudioError> {
        if pcm.is_empty() || pcm.len() % FRAME_SAMPLES != 0 {
            return Err(AudioError::BadLength(pcm.len()));
        }
        let n_frames = pcm.len() / FRAME_SAMPLES;
        let mut tally = AudioTally::default();
        let mut w = BitWriter::new();
        w.write_bits(MAGIC, 16);
        w.write_bits(n_frames as u32, 16);
        w.write_bits(self.config.sample_rate as u32, 32);

        let mut stats = Vec::with_capacity(n_frames);
        for f in 0..n_frames {
            let frame = &pcm[f * FRAME_SAMPLES..(f + 1) * FRAME_SAMPLES];
            let start_bits = w.bit_len();

            // Mapper: 32-band filterbank. Frames are analysed
            // independently (each sees one hop of zero history), trading a
            // little edge fidelity for frame independence.
            let granules = self.filterbank.analysis(frame);
            tally.filterbank_macs += Filterbank::analysis_macs(frame.len());

            // Psychoacoustic model on the frame's PCM.
            let analysis = self.psycho.analyse(frame);
            tally.psycho_ops += (crate::psycho::FFT_SIZE as f64
                * (crate::psycho::FFT_SIZE as f64).log2()) as u64
                + (BANDS * BANDS) as u64;

            // Allocation.
            let allocation = match self.config.mode {
                AllocationMode::Psychoacoustic => alloc::psychoacoustic(
                    &analysis.smr_db(),
                    granules.len(),
                    self.config.budget_bits_per_frame,
                    0.0,
                ),
                AllocationMode::Flat => {
                    alloc::flat(granules.len(), self.config.budget_bits_per_frame)
                }
            };

            // Scalefactors per band.
            let mut sf_idx = [0u8; BANDS];
            for b in 0..BANDS {
                let max_abs = granules.iter().map(|g| g[b].abs()).fold(0.0f64, f64::max);
                sf_idx[b] = quantizer::scalefactor_for(max_abs);
            }

            // Pack: granule count (8), allocation (4 bits/band),
            // scalefactors (6 bits/band), then samples band-major.
            w.write_bits(granules.len() as u32, 8);
            for b in 0..BANDS {
                w.write_bits(allocation.bits[b] as u32, 4);
            }
            for &sf in &sf_idx {
                w.write_bits(sf as u32, 6);
            }
            for b in 0..BANDS {
                let bits = allocation.bits[b];
                if bits == 0 {
                    continue;
                }
                let sf = quantizer::scalefactor(sf_idx[b]);
                for g in &granules {
                    let code = quantizer::quantize(g[b], sf, bits);
                    w.write_bits(code, bits as u32);
                    tally.quant_samples += 1;
                }
            }
            let bits = w.bit_len() - start_bits;
            tally.packed_bits += bits as u64;
            stats.push(AudioFrameStats {
                bits,
                zeroed_bands: allocation.zeroed_bands(),
                allocation,
            });
        }

        Ok(EncodedAudio {
            bytes: w.into_bytes(),
            frames: stats,
            tally,
            sample_count: pcm.len(),
        })
    }
}

/// A decoded audio stream.
#[derive(Debug, Clone)]
pub struct DecodedAudio {
    /// Reconstructed PCM.
    pub samples: Vec<f64>,
    /// Sample rate from the header, Hz.
    pub sample_rate: f64,
}

/// Decodes a stream produced by [`AudioEncoder::encode`].
///
/// # Errors
///
/// Returns [`AudioError`] on malformed input.
pub fn decode(bytes: &[u8]) -> Result<DecodedAudio, AudioError> {
    let mut r = BitReader::new(bytes);
    let magic = r.read_bits(16)?;
    if magic != MAGIC {
        return Err(AudioError::BadMagic(magic));
    }
    let n_frames = r.read_bits(16)? as usize;
    let sample_rate = r.read_bits(32)? as f64;
    let fb = Filterbank::new();
    let mut samples = Vec::with_capacity(frames_to_reserve(n_frames, &r) * FRAME_SAMPLES);
    for _ in 0..n_frames {
        let n_granules = r.read_bits(8)? as usize;
        if n_granules < 2 {
            return Err(AudioError::BadGranules(n_granules));
        }
        let mut bits = [0u8; BANDS];
        for b in &mut bits {
            *b = r.read_bits(4)? as u8;
        }
        let mut sf = [0.0f64; BANDS];
        for s in &mut sf {
            *s = quantizer::scalefactor(r.read_bits(6)? as u8);
        }
        let mut granules: Vec<Granule> = vec![[0.0; BANDS]; n_granules];
        for b in 0..BANDS {
            if bits[b] == 0 {
                continue;
            }
            for g in granules.iter_mut() {
                let code = r.read_bits(bits[b] as u32)?;
                g[b] = quantizer::dequantize(code, sf[b], bits[b]);
            }
        }
        samples.extend(fb.synthesis(&granules));
    }
    Ok(DecodedAudio {
        samples,
        sample_rate,
    })
}

/// Frames to reserve sample space for: the header's frame count, which
/// comes from the input, bounded by the frames the remaining bits can
/// hold.
fn frames_to_reserve(n_frames: usize, r: &BitReader<'_>) -> usize {
    n_frames.min(r.remaining() / MIN_FRAME_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal::gen::{SignalGen, ToneSpec};
    use signal::metrics::snr;

    fn music(frames: usize) -> Vec<f64> {
        SignalGen::new(17).music(440.0, 44_100.0, frames * FRAME_SAMPLES)
    }

    #[test]
    fn length_validation() {
        let enc = AudioEncoder::new(AudioConfig::default());
        assert_eq!(enc.encode(&[]).unwrap_err(), AudioError::BadLength(0));
        assert_eq!(
            enc.encode(&vec![0.0; 100]).unwrap_err(),
            AudioError::BadLength(100)
        );
    }

    #[test]
    fn round_trip_preserves_music_quality() {
        let pcm = music(4);
        let enc = AudioEncoder::new(AudioConfig::default());
        let stream = enc.encode(&pcm).unwrap();
        let out = decode(&stream.bytes).unwrap();
        assert_eq!(out.samples.len(), pcm.len());
        // Waveform SNR understates perceptual quality here by design: the
        // allocator stops feeding a band once it is coded past its SMR, and
        // masked bands are dropped entirely.
        let q = snr(&pcm, &out.samples).unwrap();
        assert!(q > 12.0, "SNR only {q:.1} dB");
    }

    #[test]
    fn compresses_against_pcm() {
        let pcm = music(4);
        let stream = AudioEncoder::new(AudioConfig::default())
            .encode(&pcm)
            .unwrap();
        assert!(
            stream.compression_ratio() > 3.0,
            "ratio {}",
            stream.compression_ratio()
        );
    }

    #[test]
    fn psycho_mode_zeroes_masked_bands_flat_does_not() {
        // A sparse two-tone signal: most bands are silent/masked.
        let mut g = SignalGen::new(18);
        let pcm = g.tones(
            &[ToneSpec::new(1000.0, 0.9), ToneSpec::new(5000.0, 0.5)],
            44_100.0,
            2 * FRAME_SAMPLES,
        );
        let psy = AudioEncoder::new(AudioConfig::default())
            .encode(&pcm)
            .unwrap();
        let flat = AudioEncoder::new(AudioConfig {
            mode: AllocationMode::Flat,
            ..Default::default()
        })
        .encode(&pcm)
        .unwrap();
        assert!(
            psy.frames[0].zeroed_bands > 20,
            "psycho should zero masked bands, zeroed {}",
            psy.frames[0].zeroed_bands
        );
        assert_eq!(flat.frames[0].zeroed_bands, 0);
    }

    #[test]
    fn psycho_beats_flat_at_equal_budget_on_tonal_material() {
        // E7's claim: at the same bitrate the masking-aware allocation
        // achieves higher SNR on tonal material.
        let mut g = SignalGen::new(19);
        let pcm = g.tones(
            &[
                ToneSpec::new(500.0, 0.8),
                ToneSpec::new(2000.0, 0.4),
                ToneSpec::new(8000.0, 0.2),
            ],
            44_100.0,
            4 * FRAME_SAMPLES,
        );
        let budget = 2000u64;
        let psy = AudioEncoder::new(AudioConfig {
            budget_bits_per_frame: budget,
            mode: AllocationMode::Psychoacoustic,
            ..Default::default()
        })
        .encode(&pcm)
        .unwrap();
        let flat = AudioEncoder::new(AudioConfig {
            budget_bits_per_frame: budget,
            mode: AllocationMode::Flat,
            ..Default::default()
        })
        .encode(&pcm)
        .unwrap();
        let psy_snr = snr(&pcm, &decode(&psy.bytes).unwrap().samples).unwrap();
        let flat_snr = snr(&pcm, &decode(&flat.bytes).unwrap().samples).unwrap();
        assert!(
            psy_snr > flat_snr + 3.0,
            "psycho {psy_snr:.1} dB should beat flat {flat_snr:.1} dB"
        );
    }

    #[test]
    fn bigger_budget_improves_snr() {
        let pcm = music(3);
        let small = AudioEncoder::new(AudioConfig {
            budget_bits_per_frame: 1000,
            ..Default::default()
        })
        .encode(&pcm)
        .unwrap();
        let large = AudioEncoder::new(AudioConfig {
            budget_bits_per_frame: 8000,
            ..Default::default()
        })
        .encode(&pcm)
        .unwrap();
        let s = snr(&pcm, &decode(&small.bytes).unwrap().samples).unwrap();
        let l = snr(&pcm, &decode(&large.bytes).unwrap().samples).unwrap();
        assert!(l > s, "budget 8000 ({l:.1}) should beat 1000 ({s:.1})");
    }

    #[test]
    fn silence_codes_almost_for_free() {
        let pcm = vec![0.0; 2 * FRAME_SAMPLES];
        let stream = AudioEncoder::new(AudioConfig::default())
            .encode(&pcm)
            .unwrap();
        // Header + allocations + scalefactors only: well under 1000 bits
        // per frame.
        assert!(stream.frames.iter().all(|f| f.bits < 1000));
        let out = decode(&stream.bytes).unwrap();
        assert!(out.samples.iter().all(|&s| s.abs() < 1e-9));
    }

    #[test]
    fn truncated_and_corrupt_streams_are_rejected() {
        let pcm = music(1);
        let stream = AudioEncoder::new(AudioConfig::default())
            .encode(&pcm)
            .unwrap();
        assert!(matches!(
            decode(&stream.bytes[..4]),
            Err(AudioError::Truncated(_))
        ));
        assert!(matches!(
            decode(&[0, 0, 0, 0]),
            Err(AudioError::BadMagic(0))
        ));
    }

    /// A stream header (magic, frame count, sample rate) followed by
    /// `frames` minimal frames that each declare `granules` granules and
    /// allocate no bits.
    fn crafted_stream(n_frames: u32, granules: u32, frames: usize) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(MAGIC, 16);
        w.write_bits(n_frames, 16);
        w.write_bits(44_100, 32);
        for _ in 0..frames {
            w.write_bits(granules, 8);
            for _ in 0..BANDS {
                w.write_bits(0, 4);
            }
            for _ in 0..BANDS {
                w.write_bits(0, 6);
            }
        }
        w.into_bytes()
    }

    #[test]
    fn fewer_than_two_granules_is_a_typed_error() {
        for granules in [0, 1] {
            assert_eq!(
                decode(&crafted_stream(1, granules, 1)).unwrap_err(),
                AudioError::BadGranules(granules as usize)
            );
        }
        // Two granules is the smallest frame synthesis accepts.
        assert_eq!(
            decode(&crafted_stream(1, 2, 1)).unwrap().samples.len(),
            BANDS
        );
    }

    #[test]
    fn frame_count_reserves_only_what_the_input_holds() {
        // 65,535 frames declared, one present: the decoder must not
        // reserve 65,535 frames of samples before running out of bits.
        let bytes = crafted_stream(u16::MAX as u32, 37, 1);
        let mut r = BitReader::new(&bytes);
        r.read_bits(32).unwrap();
        r.read_bits(32).unwrap();
        assert_eq!(frames_to_reserve(u16::MAX as usize, &r), 1);
        assert!(matches!(decode(&bytes), Err(AudioError::Truncated(_))));
    }

    #[test]
    fn tally_accounts_stages() {
        let pcm = music(2);
        let stream = AudioEncoder::new(AudioConfig::default())
            .encode(&pcm)
            .unwrap();
        assert!(stream.tally.filterbank_macs > 0);
        assert!(stream.tally.psycho_ops > 0);
        assert!(stream.tally.quant_samples > 0);
        assert!(stream.tally.packed_bits > 0);
    }
}
