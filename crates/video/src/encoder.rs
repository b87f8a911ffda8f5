//! The video encoder of the paper's Figure 1.
//!
//! Stage for stage: **DCT → quantizer → variable-length encode → buffer**,
//! with the feedback loop **inverse DCT → motion-compensated predictor →
//! motion estimator** reconstructing exactly what the decoder will see so
//! prediction drift cannot accumulate. The optional rate controller closes
//! the buffer→quantizer feedback arrow.
//!
//! As in the figure, the encoder contains the decoder: one block walk,
//! the crate-private `reconstruct_frame`, predicts every block (flat for
//! I frames, motion-compensated for P frames), takes its levels from a
//! closure and reconstructs it. The encoder's closure codes the source
//! block against the prediction; [`crate::decoder`]'s parses the levels
//! from the stream. I and P frames take the same path through both.
//!
//! The encoder is deliberately a *clean-room MPEG-shaped* codec, not a
//! standard-conformant one: 16×16 macroblock motion, 8×8
//! DCT, zig-zag + run-length + canonical Huffman entropy coding, I/P GOP
//! structure, 4:2:0 chroma with halved motion vectors.

use signal::metrics::psnr_u8;

use crate::bitstream::{size_category, write_amplitude, BitWriter};
use crate::dct::{Dct2d, BLOCK};
use crate::frame::Frame;
use crate::huffman::{HuffmanCode, HuffmanError};
use crate::me::{MotionEstimator, MotionField, MotionVector, SearchKind, MB};
use crate::plane::PaddedPlane;
use crate::quant::{round_clamp, BadQualityError, Quantizer, BASE_MATRIX, FLAT_MATRIX};
use crate::rate::{RateConfig, RateController, MIN_QUALITY};
use crate::rle;
use crate::zigzag;

/// Frame coding kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Intra-coded: no prediction.
    Intra,
    /// Predicted from the previous reconstructed frame.
    Predicted,
}

impl core::fmt::Display for FrameKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            FrameKind::Intra => "I",
            FrameKind::Predicted => "P",
        })
    }
}

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderConfig {
    /// Base quality (1..=100) used when no rate control is active.
    pub quality: u8,
    /// GOP length: an I frame every `gop` frames (1 = all intra).
    pub gop: usize,
    /// Motion search strategy.
    pub search: SearchKind,
    /// Motion search range (±pixels, max 31).
    pub search_range: i32,
    /// Optional buffer-feedback rate control (Figure 1's dashed arrow).
    pub rate: Option<RateConfig>,
}

impl Default for EncoderConfig {
    /// Quality 75, GOP 12, full search ±15, no rate control.
    fn default() -> Self {
        Self {
            quality: 75,
            gop: 12,
            search: SearchKind::Full,
            search_range: 15,
            rate: None,
        }
    }
}

impl EncoderConfig {
    /// A broadcast-style asymmetric configuration: exhaustive motion
    /// search, long GOP (expensive encoder, cheap decoder — §2).
    #[must_use]
    pub fn asymmetric_broadcast() -> Self {
        Self {
            search: SearchKind::Full,
            search_range: 15,
            gop: 15,
            ..Self::default()
        }
    }

    /// A videoconference-style symmetric configuration: cheap diamond
    /// search, short GOP (§2: both ends must encode and decode).
    #[must_use]
    pub fn symmetric_conference() -> Self {
        Self {
            search: SearchKind::Diamond,
            search_range: 7,
            gop: 8,
            ..Self::default()
        }
    }
}

/// Errors from encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum EncoderError {
    /// No frames supplied.
    Empty,
    /// Quality outside 1..=100.
    BadQuality(BadQualityError),
    /// GOP length of zero.
    ZeroGop,
    /// Search range outside 1..=31 (the bitstream stores 6-bit vectors).
    BadSearchRange(i32),
    /// Frames in the sequence have differing dimensions.
    MixedDimensions,
    /// Entropy coding failed (internal).
    Huffman(HuffmanError),
}

impl core::fmt::Display for EncoderError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EncoderError::Empty => f.write_str("no frames to encode"),
            EncoderError::BadQuality(e) => write!(f, "{e}"),
            EncoderError::ZeroGop => f.write_str("gop length must be at least 1"),
            EncoderError::BadSearchRange(r) => write!(f, "search range {r} outside 1..=31"),
            EncoderError::MixedDimensions => f.write_str("frames have differing dimensions"),
            EncoderError::Huffman(e) => write!(f, "entropy coding failed: {e}"),
        }
    }
}

impl std::error::Error for EncoderError {}

impl From<BadQualityError> for EncoderError {
    fn from(e: BadQualityError) -> Self {
        EncoderError::BadQuality(e)
    }
}

impl From<HuffmanError> for EncoderError {
    fn from(e: HuffmanError) -> Self {
        EncoderError::Huffman(e)
    }
}

/// Per-stage operation tallies for one encode run — the calibration data
/// the MPSoC deployment layer (and experiment E1) consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTally {
    /// SAD evaluations performed by the motion estimator.
    pub me_sad_evaluations: u64,
    /// Pixels compared per SAD (16×16) times evaluations.
    pub me_pixel_ops: u64,
    /// Forward 8×8 DCTs performed.
    pub dct_blocks: u64,
    /// Blocks through the inverse-DCT reconstruction loop. An all-zero
    /// block counts although its IDCT is skipped: the tally measures the
    /// reference algorithm's work, which the MPSoC model is calibrated on.
    pub idct_blocks: u64,
    /// Coefficients quantized.
    pub quant_coeffs: u64,
    /// Entropy symbols emitted (DC + AC + motion vectors).
    pub vlc_symbols: u64,
    /// Pixels produced by motion-compensated prediction.
    pub mc_pixels: u64,
}

impl StageTally {
    /// Multiply–accumulate operations implied by the transform stages
    /// (row–column 2-D DCT = `2·8·8·8` MACs per block).
    #[must_use]
    pub fn dct_macs(&self) -> u64 {
        (self.dct_blocks + self.idct_blocks) * 2 * 8 * 8 * 8
    }
}

/// Statistics for one encoded frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameStats {
    /// I or P.
    pub kind: FrameKind,
    /// Quality actually used.
    pub quality: u8,
    /// Exact bits this frame occupies in the stream.
    pub bits: usize,
    /// Luma PSNR of the reconstruction against the source, dB.
    pub psnr_luma_db: f64,
}

/// A complete encoded sequence.
#[derive(Debug, Clone)]
pub struct EncodedSequence {
    /// The bitstream.
    pub bytes: Vec<u8>,
    /// Per-frame statistics.
    pub frames: Vec<FrameStats>,
    /// Stage tallies for the whole run.
    pub tally: StageTally,
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Bits occupied by the sequence header (magic, dimensions, frame
    /// count, Huffman tables) before the first frame payload.
    pub header_bits: usize,
}

impl EncodedSequence {
    /// Total bits in the stream.
    #[must_use]
    pub fn total_bits(&self) -> usize {
        self.bytes.len() * 8
    }

    /// Mean bits per frame.
    #[must_use]
    pub fn mean_bits_per_frame(&self) -> f64 {
        if self.frames.is_empty() {
            0.0
        } else {
            self.frames.iter().map(|f| f.bits as f64).sum::<f64>() / self.frames.len() as f64
        }
    }

    /// Mean luma PSNR across frames, dB.
    #[must_use]
    pub fn mean_psnr_db(&self) -> f64 {
        if self.frames.is_empty() {
            0.0
        } else {
            self.frames.iter().map(|f| f.psnr_luma_db).sum::<f64>() / self.frames.len() as f64
        }
    }

    /// Compression ratio against raw 4:2:0 8-bit video.
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        let raw_bits = self.frames.len() * self.width * self.height * 12; // 12 bpp for 4:2:0
        raw_bits as f64 / self.total_bits().max(1) as f64
    }

    /// Per-frame `(bit_offset, bit_length)` spans within the stream, in
    /// frame order. Frame payloads are contiguous after the header, so
    /// span `i` starts where span `i - 1` ends; the first starts at
    /// [`EncodedSequence::header_bits`]. This is the metadata a
    /// packetizer/segmenter needs to index access units without parsing
    /// the entropy-coded payload.
    #[must_use]
    pub fn frame_bit_spans(&self) -> Vec<(usize, usize)> {
        let mut offset = self.header_bits;
        self.frames
            .iter()
            .map(|f| {
                let span = (offset, f.bits);
                offset += f.bits;
                span
            })
            .collect()
    }

    /// Indices of the intra (I) frames — the GOP entry points at which a
    /// stream may be cut or a decoder may join.
    #[must_use]
    pub fn gop_starts(&self) -> Vec<usize> {
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.kind == FrameKind::Intra)
            .map(|(i, _)| i)
            .collect()
    }

    /// Frame-index ranges of each GOP: every range starts at an I frame
    /// and runs up to (not including) the next one. Segment boundaries
    /// for delivery fall exactly on these ranges.
    #[must_use]
    pub fn gop_frame_ranges(&self) -> Vec<core::ops::Range<usize>> {
        let starts = self.gop_starts();
        starts
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let end = starts.get(i + 1).copied().unwrap_or(self.frames.len());
                s..end
            })
            .collect()
    }
}

/// Magic number opening every sequence.
pub(crate) const MAGIC: u32 = 0x5657; // "VW"
pub(crate) const MV_BITS: u32 = 6;
pub(crate) const DC_ALPHABET: usize = 16;
pub(crate) const AC_ALPHABET: usize = 256;

/// The flat prediction an intra block is coded against: its residual is
/// the sample minus 128, the level shift of JPEG/MPEG intra coding.
pub(crate) const INTRA_PREDICTION: [u8; BLOCK * BLOCK] = [128; BLOCK * BLOCK];

/// The reconstruction step of Figure 1's feedback loop: dequantize
/// `levels` (row-major), inverse-DCT, add to `pred`, round and clamp into
/// `out`. The rounding is [`round_clamp`], bit-identical to
/// `(p + r).round().clamp(0.0, 255.0) as u8`.
///
/// An all-zero block skips dequantize and IDCT. That is exact: its
/// residual is all (signed) zeros, and adding a zero leaves every
/// prediction sample as it is.
pub(crate) fn reconstruct_block(
    dct: &Dct2d,
    quant: &Quantizer,
    levels: &[i16; BLOCK * BLOCK],
    pred: &[u8; BLOCK * BLOCK],
    out: &mut [u8; BLOCK * BLOCK],
) {
    if levels.iter().all(|&l| l == 0) {
        *out = *pred;
        return;
    }
    let residual = dct.inverse(&quant.dequantize(levels));
    for (o, (&p, &r)) in out.iter_mut().zip(pred.iter().zip(residual.iter())) {
        *o = round_clamp(f64::from(p) + r, 0.0, 255.0) as u8;
    }
}

/// `frame`'s planes padded for motion compensation: luma by `luma_pad`,
/// chroma by half of it, as chroma blocks move by the halved vector.
pub(crate) fn padded_planes(frame: &Frame, luma_pad: usize) -> [PaddedPlane; 3] {
    [
        PaddedPlane::new(frame.luma_plane(), luma_pad),
        PaddedPlane::new(frame.cb_plane(), luma_pad / 2),
        PaddedPlane::new(frame.cr_plane(), luma_pad / 2),
    ]
}

/// Figure 1's reconstruction loop, run by the encoder and the decoder
/// alike so the two cannot drift. Walks Y, then Cb, then Cr of a
/// `width x height` frame as 8×8 blocks in bitstream order. Each block is
/// predicted: flat 128 for an intra frame (`reference` is `None`),
/// otherwise from the padded reference planes by the vector of its 16×16
/// macroblock, halved (truncating) for chroma. Then
/// `levels_of(plane, bx, by, &prediction)` supplies the block's quantized
/// levels (row-major), and [`reconstruct_block`] rebuilds it into the
/// returned frame. Tallies the IDCT blocks and MC pixels; stops at the
/// first error `levels_of` returns.
///
/// # Panics
///
/// Panics if the dimensions are not multiples of 16, or a vector reaches
/// past the reference's padding.
pub(crate) fn reconstruct_frame<E>(
    dct: &Dct2d,
    quant: &Quantizer,
    (width, height): (usize, usize),
    reference: Option<&([PaddedPlane; 3], MotionField)>,
    tally: &mut StageTally,
    mut levels_of: impl FnMut(
        usize,
        usize,
        usize,
        &[u8; BLOCK * BLOCK],
    ) -> Result<[i16; BLOCK * BLOCK], E>,
) -> Result<Frame, E> {
    let chroma_len = width * height / 4;
    let mut planes = [
        vec![0u8; width * height],
        vec![0; chroma_len],
        vec![0; chroma_len],
    ];
    let mut pred = [0u8; BLOCK * BLOCK];
    let mut rec = [0u8; BLOCK * BLOCK];
    for (pi, plane) in planes.iter_mut().enumerate() {
        let pw = if pi == 0 { width } else { width / 2 };
        for by in 0..plane.len() / pw / BLOCK {
            for bx in 0..pw / BLOCK {
                let (x, y) = (bx * BLOCK, by * BLOCK);
                let prediction = match reference {
                    None => &INTRA_PREDICTION,
                    Some((padded, field)) => {
                        let mv = if pi == 0 {
                            field.at(bx / 2, by / 2).mv
                        } else {
                            let mv = field.at(bx, by).mv;
                            MotionVector::new(mv.dx / 2, mv.dy / 2)
                        };
                        padded[pi].block_into(x as i32 + mv.dx, y as i32 + mv.dy, BLOCK, &mut pred);
                        tally.mc_pixels += (BLOCK * BLOCK) as u64;
                        &pred
                    }
                };
                let levels = levels_of(pi, bx, by, prediction)?;
                reconstruct_block(dct, quant, &levels, prediction, &mut rec);
                tally.idct_blocks += 1;
                for (row, src) in rec.chunks_exact(BLOCK).enumerate() {
                    let at = (y + row) * pw + x;
                    plane[at..at + BLOCK].copy_from_slice(src);
                }
            }
        }
    }
    let [y, cb, cr] = planes;
    Ok(Frame::from_planes(width, height, y, cb, cr).expect("plane sizes follow the frame's"))
}

/// One plane's quantized levels: a zig-zag-scanned `[i16; 64]` per 8×8
/// block, row-major.
type PlaneLevels = Vec<[i16; BLOCK * BLOCK]>;

/// Analysis result for one frame.
struct FrameAnalysis {
    kind: FrameKind,
    quality: u8,
    field: Option<MotionField>,
    planes: [PlaneLevels; 3], // y, cb, cr
    psnr_luma_db: f64,
}

/// Symbol statistics of the analysed frames: the frequencies the
/// Huffman tables are built from.
struct SymbolCounts {
    dc: [u64; DC_ALPHABET],
    ac: [u64; AC_ALPHABET],
}

impl SymbolCounts {
    /// Counts `a`'s symbols in one walk over its blocks and returns the
    /// rate controller's estimate of its size, available before entropy
    /// coding: 8 header bits, 12 bits per motion vector, and 5 bits per
    /// symbol plus its amplitude bits.
    fn frame(&mut self, a: &FrameAnalysis) -> f64 {
        let mut bits = 8 + a.field.as_ref().map_or(0, |f| 12 * f.blocks.len() as u64);
        for plane in &a.planes {
            let mut prev_dc = 0i16;
            for blk in plane {
                let size = size_category((blk[0] - prev_dc) as i32);
                prev_dc = blk[0];
                self.dc[size as usize] += 1;
                bits += 5 + u64::from(size);
                for ev in rle::ac_events(blk) {
                    self.ac[rle::event_symbol(&ev) as usize] += 1;
                    bits += 5 + rle::event_amplitude(&ev).map_or(0, |(_, s)| u64::from(s));
                }
            }
        }
        bits as f64
    }
}

/// The encoder.
///
/// # Example
///
/// ```
/// use video::encoder::{Encoder, EncoderConfig};
/// use video::synth::SequenceGen;
///
/// let frames = SequenceGen::new(7).panning_sequence(64, 48, 6, 1, 0);
/// let encoded = Encoder::new(EncoderConfig::default())?.encode(&frames)?;
/// assert!(encoded.compression_ratio() > 4.0);
/// # Ok::<(), video::encoder::EncoderError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    config: EncoderConfig,
    dct: Dct2d,
}

impl Encoder {
    /// Creates an encoder after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EncoderError`] for invalid quality, GOP, or search range.
    pub fn new(config: EncoderConfig) -> Result<Self, EncoderError> {
        Quantizer::from_quality(config.quality)?;
        if config.gop == 0 {
            return Err(EncoderError::ZeroGop);
        }
        if !(1..=31).contains(&config.search_range) {
            return Err(EncoderError::BadSearchRange(config.search_range));
        }
        Ok(Self {
            config,
            dct: Dct2d::new(),
        })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Encodes a sequence of equally-sized frames.
    ///
    /// # Errors
    ///
    /// Returns [`EncoderError::Empty`] for an empty slice and
    /// [`EncoderError::MixedDimensions`] if frame sizes differ.
    pub fn encode(&self, frames: &[Frame]) -> Result<EncodedSequence, EncoderError> {
        let first = frames.first().ok_or(EncoderError::Empty)?;
        let (w, h) = (first.width(), first.height());
        if frames.iter().any(|f| f.width() != w || f.height() != h) {
            return Err(EncoderError::MixedDimensions);
        }

        let mut tally = StageTally::default();
        let mut rate = self.config.rate.map(|cfg| {
            RateController::new(cfg, self.config.quality.clamp(MIN_QUALITY, cfg.max_quality))
        });

        // ---- Pass 1: analyse every frame, producing levels + stats and
        // maintaining the reconstruction loop of Figure 1, and count the
        // symbols the entropy codes are built from.
        let mut analyses = Vec::with_capacity(frames.len());
        let mut reference: Option<Frame> = None;
        let mut symbols = SymbolCounts {
            dc: [0; DC_ALPHABET],
            ac: [0; AC_ALPHABET],
        };
        for (idx, frame) in frames.iter().enumerate() {
            let quality = rate
                .as_ref()
                .map(|r| r.quality())
                .unwrap_or(self.config.quality);
            let predict_from = reference.as_ref().filter(|_| idx % self.config.gop != 0);
            let (analysis, recon) = self.analyse(frame, predict_from, quality, &mut tally)?;
            reference = Some(recon);
            let estimated_bits = symbols.frame(&analysis);
            if let Some(rc) = rate.as_mut() {
                rc.frame_encoded(estimated_bits);
            }
            analyses.push(analysis);
        }

        // ---- Build entropy codes from global symbol statistics.
        let SymbolCounts {
            dc: mut dc_freq,
            ac: mut ac_freq,
        } = symbols;
        // Guarantee EOB exists so the tables are never empty.
        ac_freq[0x00] = ac_freq[0x00].max(1);
        dc_freq[0] = dc_freq[0].max(1);
        let dc_code = HuffmanCode::from_frequencies(&dc_freq)?;
        let ac_code = HuffmanCode::from_frequencies(&ac_freq)?;

        // ---- Pass 2: emit the bitstream.
        let mut writer = BitWriter::new();
        writer.write_bits(MAGIC, 16);
        writer.write_bits((w / 16) as u32, 8);
        writer.write_bits((h / 16) as u32, 8);
        writer.write_bits(frames.len() as u32, 16);
        dc_code.write_table(&mut writer);
        ac_code.write_table(&mut writer);
        let header_bits = writer.bit_len();

        let mut stats = Vec::with_capacity(analyses.len());
        for a in &analyses {
            let start_bits = writer.bit_len();
            writer.write_bit(a.kind == FrameKind::Predicted);
            writer.write_bits(a.quality as u32, 7);
            if let Some(field) = &a.field {
                for b in &field.blocks {
                    writer.write_bits((b.mv.dx & 0x3F) as u32, MV_BITS);
                    writer.write_bits((b.mv.dy & 0x3F) as u32, MV_BITS);
                    tally.vlc_symbols += 2;
                }
            }
            for plane in &a.planes {
                let mut prev_dc = 0i16;
                for blk in plane {
                    let diff = (blk[0] - prev_dc) as i32;
                    prev_dc = blk[0];
                    let size = size_category(diff);
                    dc_code.encode(&mut writer, size as u16)?;
                    write_amplitude(&mut writer, diff, size);
                    tally.vlc_symbols += 1;
                    for ev in rle::ac_events(blk) {
                        ac_code.encode(&mut writer, rle::event_symbol(&ev))?;
                        if let Some((v, s)) = rle::event_amplitude(&ev) {
                            write_amplitude(&mut writer, v, s);
                        }
                        tally.vlc_symbols += 1;
                    }
                }
            }
            stats.push(FrameStats {
                kind: a.kind,
                quality: a.quality,
                bits: writer.bit_len() - start_bits,
                psnr_luma_db: a.psnr_luma_db,
            });
        }

        Ok(EncodedSequence {
            bytes: writer.into_bytes(),
            frames: stats,
            tally,
            width: w,
            height: h,
            header_bits,
        })
    }

    /// Analyses one frame: motion search against the reconstructed
    /// `reference` for a P frame, then Figure 1's forward path for every
    /// block (residual against the prediction, DCT, quantize, zig-zag)
    /// inside the reconstruction loop the decoder runs. Returns the
    /// analysis and the reconstruction, the next frame's reference.
    fn analyse(
        &self,
        frame: &Frame,
        reference: Option<&Frame>,
        quality: u8,
        tally: &mut StageTally,
    ) -> Result<(FrameAnalysis, Frame), EncoderError> {
        // The reference, padded by the search range: every candidate of
        // the motion search and every prediction block lies inside it.
        let predicted = reference.map(|r| {
            let padded = padded_planes(r, self.config.search_range as usize);
            let me = MotionEstimator::new(self.config.search, self.config.search_range);
            let field = me.estimate_padded(frame, &padded[0]);
            tally.me_sad_evaluations += field.total_evaluations();
            tally.me_pixel_ops += field.total_evaluations() * (MB * MB) as u64;
            (padded, field)
        });
        let (kind, matrix) = if predicted.is_some() {
            (FrameKind::Predicted, &FLAT_MATRIX)
        } else {
            (FrameKind::Intra, &BASE_MATRIX)
        };
        let quant = Quantizer::from_quality_with_matrix(quality, matrix)?;
        let source = [frame.luma_plane(), frame.cb_plane(), frame.cr_plane()];
        let mut planes: [PlaneLevels; 3] = Default::default();
        let mut cur = [0u8; BLOCK * BLOCK];
        let mut residual = [0.0f64; BLOCK * BLOCK];
        let mut coded = 0u64;
        let recon = reconstruct_frame(
            &self.dct,
            &quant,
            (frame.width(), frame.height()),
            predicted.as_ref(),
            tally,
            |pi, bx, by, pred| {
                let (x, y) = ((bx * BLOCK) as i32, (by * BLOCK) as i32);
                source[pi].block_into(x, y, BLOCK, &mut cur);
                for (r, (&c, &p)) in residual.iter_mut().zip(cur.iter().zip(pred)) {
                    *r = c as f64 - p as f64;
                }
                let levels = quant.quantize(&self.dct.forward(&residual));
                coded += 1;
                planes[pi].push(zigzag::scan(&levels));
                Ok::<_, EncoderError>(levels)
            },
        )?;
        tally.dct_blocks += coded;
        tally.quant_coeffs += coded * (BLOCK * BLOCK) as u64;
        let analysis = FrameAnalysis {
            kind,
            quality,
            field: predicted.map(|(_, field)| field),
            planes,
            psnr_luma_db: psnr_u8(frame.luma(), recon.luma()).expect("same dimensions"),
        };
        Ok((analysis, recon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SequenceGen;

    fn test_frames(n: usize) -> Vec<Frame> {
        SequenceGen::new(77).panning_sequence(64, 48, n, 2, 1)
    }

    #[test]
    fn encoder_is_sync_and_reentrant_across_threads() {
        // The streaming head-end encodes ladder rungs concurrently on a
        // worker pool, each rung holding `&Encoder`-style borrowed state
        // of its own — so `encode(&self)` must be freely shareable
        // (compile-time pin) and bit-identical under concurrency
        // (runtime pin: no hidden per-encoder mutable state).
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Encoder>();

        let frames = test_frames(6);
        let enc = Encoder::new(EncoderConfig {
            gop: 3,
            ..EncoderConfig::default()
        })
        .unwrap();
        let baseline = enc.encode(&frames).unwrap();
        let concurrent: Vec<Vec<u8>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| enc.encode(&frames).unwrap().bytes))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for bytes in concurrent {
            assert_eq!(bytes, baseline.bytes, "concurrent encode diverged");
        }
    }

    #[test]
    fn zero_block_skip_equals_the_full_reconstruction() {
        let dct = Dct2d::new();
        let quant = Quantizer::from_quality_with_matrix(75, &FLAT_MATRIX).unwrap();
        let zeros = [0i16; BLOCK * BLOCK];
        let residual = dct.inverse(&quant.dequantize(&zeros));
        let mut rng = signal::rng::Xoroshiro128::new(9);
        let mut out = [0u8; BLOCK * BLOCK];
        for _ in 0..50 {
            let mut pred = [0u8; BLOCK * BLOCK];
            pred.iter_mut().for_each(|p| *p = rng.below(256) as u8);
            pred[0] = 0;
            pred[1] = 255;
            reconstruct_block(&dct, &quant, &zeros, &pred, &mut out);
            for ((&o, &p), &r) in out.iter().zip(&pred).zip(&residual) {
                assert_eq!(o, (p as f64 + r).round().clamp(0.0, 255.0) as u8);
            }
        }
        // Intra: the unskipped path's level shift gives the 128 fill.
        reconstruct_block(&dct, &quant, &zeros, &INTRA_PREDICTION, &mut out);
        assert_eq!(out, dct.inverse_to_pixels(&quant.dequantize(&zeros)));
    }

    #[test]
    fn config_validation() {
        assert!(Encoder::new(EncoderConfig::default()).is_ok());
        assert!(matches!(
            Encoder::new(EncoderConfig {
                quality: 0,
                ..Default::default()
            }),
            Err(EncoderError::BadQuality(_))
        ));
        assert!(matches!(
            Encoder::new(EncoderConfig {
                gop: 0,
                ..Default::default()
            }),
            Err(EncoderError::ZeroGop)
        ));
        assert!(matches!(
            Encoder::new(EncoderConfig {
                search_range: 32,
                ..Default::default()
            }),
            Err(EncoderError::BadSearchRange(32))
        ));
    }

    #[test]
    fn empty_and_mixed_inputs_rejected() {
        let enc = Encoder::new(EncoderConfig::default()).unwrap();
        assert_eq!(enc.encode(&[]).unwrap_err(), EncoderError::Empty);
        let mut frames = test_frames(2);
        frames.push(Frame::grey(32, 32).unwrap());
        assert_eq!(
            enc.encode(&frames).unwrap_err(),
            EncoderError::MixedDimensions
        );
    }

    #[test]
    fn gop_structure_is_respected() {
        let enc = Encoder::new(EncoderConfig {
            gop: 4,
            ..Default::default()
        })
        .unwrap();
        let seq = enc.encode(&test_frames(9)).unwrap();
        let kinds: Vec<FrameKind> = seq.frames.iter().map(|f| f.kind).collect();
        for (i, k) in kinds.iter().enumerate() {
            let expect = if i % 4 == 0 {
                FrameKind::Intra
            } else {
                FrameKind::Predicted
            };
            assert_eq!(*k, expect, "frame {i}");
        }
    }

    #[test]
    fn compresses_and_preserves_quality() {
        let enc = Encoder::new(EncoderConfig::default()).unwrap();
        let seq = enc.encode(&test_frames(8)).unwrap();
        assert!(
            seq.compression_ratio() > 5.0,
            "ratio {}",
            seq.compression_ratio()
        );
        assert!(seq.mean_psnr_db() > 30.0, "psnr {}", seq.mean_psnr_db());
    }

    #[test]
    fn p_frames_cost_fewer_bits_than_i_frames() {
        let enc = Encoder::new(EncoderConfig {
            gop: 6,
            ..Default::default()
        })
        .unwrap();
        let seq = enc.encode(&test_frames(12)).unwrap();
        let i_bits: Vec<usize> = seq
            .frames
            .iter()
            .filter(|f| f.kind == FrameKind::Intra)
            .map(|f| f.bits)
            .collect();
        let p_bits: Vec<usize> = seq
            .frames
            .iter()
            .filter(|f| f.kind == FrameKind::Predicted)
            .map(|f| f.bits)
            .collect();
        let i_mean = i_bits.iter().sum::<usize>() as f64 / i_bits.len() as f64;
        let p_mean = p_bits.iter().sum::<usize>() as f64 / p_bits.len() as f64;
        assert!(
            p_mean * 2.0 < i_mean,
            "motion compensation should at least halve P-frame bits: I {i_mean} P {p_mean}"
        );
    }

    #[test]
    fn higher_quality_costs_more_bits_and_gains_psnr() {
        let frames = test_frames(6);
        let lo = Encoder::new(EncoderConfig {
            quality: 25,
            ..Default::default()
        })
        .unwrap()
        .encode(&frames)
        .unwrap();
        let hi = Encoder::new(EncoderConfig {
            quality: 90,
            ..Default::default()
        })
        .unwrap()
        .encode(&frames)
        .unwrap();
        assert!(hi.total_bits() > lo.total_bits());
        assert!(hi.mean_psnr_db() > lo.mean_psnr_db());
    }

    #[test]
    fn motion_estimation_dominates_tally() {
        // The paper's central compute claim: ME is the expensive stage.
        let enc = Encoder::new(EncoderConfig::default()).unwrap();
        let seq = enc.encode(&test_frames(8)).unwrap();
        assert!(
            seq.tally.me_pixel_ops > seq.tally.dct_macs(),
            "ME ops {} should exceed DCT MACs {}",
            seq.tally.me_pixel_ops,
            seq.tally.dct_macs()
        );
    }

    #[test]
    fn rate_control_holds_frame_sizes_near_target() {
        let target = 20_000.0;
        let cfg = EncoderConfig {
            rate: Some(RateConfig::for_target(target)),
            gop: 8,
            ..Default::default()
        };
        let frames = test_frames(16);
        let seq = Encoder::new(cfg).unwrap().encode(&frames).unwrap();
        let mean = seq.mean_bits_per_frame();
        assert!(
            mean < 2.5 * target,
            "rate control failed to bound mean frame size: {mean}"
        );
        // And the controller must actually have moved quality at least once.
        let qualities: Vec<u8> = seq.frames.iter().map(|f| f.quality).collect();
        assert!(qualities.iter().any(|&q| q != qualities[0]));
    }

    #[test]
    fn frame_spans_are_contiguous_and_cover_the_stream() {
        let enc = Encoder::new(EncoderConfig::default()).unwrap();
        let seq = enc.encode(&test_frames(6)).unwrap();
        let spans = seq.frame_bit_spans();
        assert_eq!(spans.len(), 6);
        assert!(seq.header_bits > 0);
        let mut expect = seq.header_bits;
        for (i, &(off, len)) in spans.iter().enumerate() {
            assert_eq!(off, expect, "frame {i} span not contiguous");
            assert_eq!(len, seq.frames[i].bits);
            expect = off + len;
        }
        // Everything after the header is frame payload (modulo the final
        // byte-alignment padding).
        assert!(expect <= seq.total_bits());
        assert!(seq.total_bits() - expect < 8, "only padding may remain");
    }

    #[test]
    fn gop_ranges_tile_the_sequence_at_i_frames() {
        let enc = Encoder::new(EncoderConfig {
            gop: 4,
            ..Default::default()
        })
        .unwrap();
        let seq = enc.encode(&test_frames(10)).unwrap();
        assert_eq!(seq.gop_starts(), vec![0, 4, 8]);
        let ranges = seq.gop_frame_ranges();
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        for r in &ranges {
            assert_eq!(seq.frames[r.start].kind, FrameKind::Intra);
            for i in r.start + 1..r.end {
                assert_eq!(seq.frames[i].kind, FrameKind::Predicted);
            }
        }
    }

    #[test]
    fn symmetric_config_is_cheaper_than_asymmetric() {
        let frames = test_frames(8);
        let sym = Encoder::new(EncoderConfig::symmetric_conference())
            .unwrap()
            .encode(&frames)
            .unwrap();
        let asym = Encoder::new(EncoderConfig::asymmetric_broadcast())
            .unwrap()
            .encode(&frames)
            .unwrap();
        assert!(
            sym.tally.me_sad_evaluations * 5 < asym.tally.me_sad_evaluations,
            "diamond search should be >5x cheaper: {} vs {}",
            sym.tally.me_sad_evaluations,
            asym.tally.me_sad_evaluations
        );
    }
}
