//! The video decoder: Figure 1 run in reverse.
//!
//! Variable-length decode → inverse quantizer → inverse DCT, plus the
//! motion-compensated predictor fed by the decoded vectors. The frames
//! are rebuilt by the encoder's own reconstruction loop
//! ([`crate::encoder`]'s `reconstruct_frame`), so decoder output is
//! bit-identical to the encoder's internal reference frames; this module
//! only parses the stream: headers, vectors and each block's levels.

use crate::bitstream::{read_amplitude, BitReader, OutOfBitsError};
use crate::dct::{Dct2d, BLOCK};
use crate::encoder::{padded_planes, reconstruct_frame, FrameKind, StageTally, MAGIC, MV_BITS};
use crate::frame::Frame;
use crate::huffman::{HuffmanCode, HuffmanError};
use crate::me::{BlockMotion, MotionField, MotionVector};
use crate::quant::{Quantizer, BASE_MATRIX, FLAT_MATRIX};
use crate::rle::{self, RleEvent};
use crate::zigzag;

/// Errors decoding a bitstream.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The stream does not start with the expected magic number.
    BadMagic(u32),
    /// The stream ended prematurely.
    Truncated(OutOfBitsError),
    /// Entropy decoding failed.
    Huffman(HuffmanError),
    /// A quality value outside 1..=100 appeared in a frame header.
    BadQuality(u8),
    /// Block data is malformed: run-length data overflowed a block, a DC
    /// size category is out of range, or a P frame has no reference.
    BadBlock,
    /// Frame dimensions in the header are invalid.
    BadDimensions,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:#x}"),
            DecodeError::Truncated(e) => write!(f, "truncated stream: {e}"),
            DecodeError::Huffman(e) => write!(f, "entropy decode failed: {e}"),
            DecodeError::BadQuality(q) => write!(f, "invalid quality {q} in stream"),
            DecodeError::BadBlock => f.write_str("malformed block data"),
            DecodeError::BadDimensions => f.write_str("invalid dimensions in header"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<OutOfBitsError> for DecodeError {
    fn from(e: OutOfBitsError) -> Self {
        DecodeError::Truncated(e)
    }
}

impl From<HuffmanError> for DecodeError {
    fn from(e: HuffmanError) -> Self {
        DecodeError::Huffman(e)
    }
}

/// A decoded sequence with the per-frame kinds seen in the stream.
#[derive(Debug, Clone)]
pub struct DecodedSequence {
    /// The reconstructed frames.
    pub frames: Vec<Frame>,
    /// Frame kinds in stream order.
    pub kinds: Vec<FrameKind>,
    /// Blocks through the inverse-transform path (IDCT blocks), the
    /// decoder-side cost proxy for experiment E3. Like the encoder's
    /// `StageTally::idct_blocks`, an all-zero block counts although its
    /// IDCT is skipped.
    pub idct_blocks: u64,
    /// Motion-compensated pixels produced.
    pub mc_pixels: u64,
}

/// Decodes a bitstream produced by [`crate::encoder::Encoder`].
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input.
///
/// # Example
///
/// ```
/// use video::decoder::decode;
/// use video::encoder::{Encoder, EncoderConfig};
/// use video::synth::SequenceGen;
///
/// let frames = SequenceGen::new(3).panning_sequence(32, 32, 4, 1, 0);
/// let encoded = Encoder::new(EncoderConfig::default()).unwrap().encode(&frames).unwrap();
/// let decoded = decode(&encoded.bytes)?;
/// assert_eq!(decoded.frames.len(), 4);
/// # Ok::<(), video::decoder::DecodeError>(())
/// ```
pub fn decode(bytes: &[u8]) -> Result<DecodedSequence, DecodeError> {
    let mut r = BitReader::new(bytes);
    let magic = r.read_bits(16)?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let w = r.read_bits(8)? as usize * 16;
    let h = r.read_bits(8)? as usize * 16;
    if w == 0 || h == 0 {
        return Err(DecodeError::BadDimensions);
    }
    let frame_count = r.read_bits(16)? as usize;
    let dc_code = HuffmanCode::read_table(&mut r)?;
    let ac_code = HuffmanCode::read_table(&mut r)?;

    let dct = Dct2d::new();
    // Every frame header takes 8 bits: reserve no more frames than the
    // input can hold.
    let reserve = frame_count.min(r.remaining() / 8);
    let mut frames: Vec<Frame> = Vec::with_capacity(reserve);
    let mut kinds = Vec::with_capacity(reserve);
    let mut tally = StageTally::default();
    let mut events = [RleEvent::EndOfBlock; BLOCK * BLOCK];

    let mb_cols = w / 16;
    let mb_rows = h / 16;

    for _ in 0..frame_count {
        let predicted = r.read_bit()?;
        let quality = r.read_bits(7)? as u8;
        let (kind, matrix) = if predicted {
            (FrameKind::Predicted, &FLAT_MATRIX)
        } else {
            (FrameKind::Intra, &BASE_MATRIX)
        };
        let quant = Quantizer::from_quality_with_matrix(quality, matrix)
            .map_err(|e| DecodeError::BadQuality(e.0))?;
        let field = if predicted {
            let blocks = (0..mb_cols * mb_rows)
                .map(|_| {
                    let dx = sign_extend_6(r.read_bits(MV_BITS)?);
                    let dy = sign_extend_6(r.read_bits(MV_BITS)?);
                    Ok(BlockMotion {
                        mv: MotionVector::new(dx, dy),
                        sad: 0,
                        evaluations: 0,
                    })
                })
                .collect::<Result<_, OutOfBitsError>>()?;
            Some(MotionField {
                cols: mb_cols,
                rows: mb_rows,
                blocks,
            })
        } else {
            None
        };
        // The previous frame, padded by the whole range of a 6-bit
        // vector (32 luma samples), so no vector in the stream reaches
        // past the padding.
        let reference = match (field, frames.last()) {
            (None, _) => None,
            (Some(field), Some(prev)) => Some((padded_planes(prev, 1 << (MV_BITS - 1)), field)),
            (Some(_), None) => return Err(DecodeError::BadBlock),
        };

        let mut prev_dc = [0i16; 3];
        let frame = reconstruct_frame(
            &dct,
            &quant,
            (w, h),
            reference.as_ref(),
            &mut tally,
            |pi, _, _, _| {
                // DC: a size category of at most 15 keeps the amplitude
                // read within 32 bits and the difference within i16.
                let size = dc_code.decode(&mut r)? as u32;
                if size > 15 {
                    return Err(DecodeError::BadBlock);
                }
                let diff = read_amplitude(&mut r, size)?;
                let dc = prev_dc[pi]
                    .checked_add(diff as i16)
                    .ok_or(DecodeError::BadBlock)?;
                prev_dc[pi] = dc;
                // AC events until EOB or 63 coefficients; each event
                // covers at least one, so at most 63 are stored.
                let mut n_events = 0;
                let mut coeffs_seen = 0usize;
                loop {
                    let sym = ac_code.decode(&mut r)?;
                    let amp = match sym {
                        0x00 | 0xF0 => 0,
                        _ => read_amplitude(&mut r, (sym & 0x0F) as u32)?,
                    };
                    let ev = rle::event_from_symbol(sym, amp);
                    events[n_events] = ev;
                    n_events += 1;
                    coeffs_seen += match ev {
                        RleEvent::EndOfBlock => break,
                        RleEvent::ZeroRunLength => 16,
                        RleEvent::Run { run, .. } => run as usize + 1,
                    };
                    if coeffs_seen > 63 {
                        return Err(DecodeError::BadBlock);
                    }
                    if coeffs_seen == 63 {
                        break;
                    }
                }
                let mut scanned =
                    rle::decode_ac(&events[..n_events]).map_err(|_| DecodeError::BadBlock)?;
                scanned[0] = dc;
                Ok(zigzag::unscan(&scanned))
            },
        )?;
        frames.push(frame);
        kinds.push(kind);
    }

    Ok(DecodedSequence {
        frames,
        kinds,
        idct_blocks: tally.idct_blocks,
        mc_pixels: tally.mc_pixels,
    })
}

fn sign_extend_6(v: u32) -> i32 {
    let v = v as i32;
    if v >= 32 {
        v - 64
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::BitWriter;
    use crate::encoder::{Encoder, EncoderConfig};
    use crate::synth::SequenceGen;
    use signal::metrics::psnr_u8;

    fn round_trip(config: EncoderConfig, n: usize) -> (Vec<Frame>, DecodedSequence, f64) {
        let frames = SequenceGen::new(55).panning_sequence(64, 48, n, 2, 1);
        let enc = Encoder::new(config).unwrap().encode(&frames).unwrap();
        let dec = decode(&enc.bytes).unwrap();
        let mean_psnr = enc.mean_psnr_db();
        (frames, dec, mean_psnr)
    }

    #[test]
    fn decoder_matches_encoder_reconstruction() {
        let (frames, dec, enc_psnr) = round_trip(EncoderConfig::default(), 8);
        assert_eq!(dec.frames.len(), frames.len());
        // Decoder output PSNR vs source must equal the encoder's internal
        // reconstruction PSNR (same loop, same arithmetic).
        let mut psnrs = Vec::new();
        for (src, out) in frames.iter().zip(&dec.frames) {
            psnrs.push(psnr_u8(src.luma(), out.luma()).unwrap());
        }
        let dec_psnr = psnrs.iter().sum::<f64>() / psnrs.len() as f64;
        assert!(
            (dec_psnr - enc_psnr).abs() < 1e-9,
            "decoder drifted from encoder loop: {dec_psnr} vs {enc_psnr}"
        );
    }

    #[test]
    fn kinds_survive_the_stream() {
        let (_, dec, _) = round_trip(
            EncoderConfig {
                gop: 3,
                ..Default::default()
            },
            7,
        );
        for (i, k) in dec.kinds.iter().enumerate() {
            let expect = if i % 3 == 0 {
                FrameKind::Intra
            } else {
                FrameKind::Predicted
            };
            assert_eq!(*k, expect);
        }
    }

    #[test]
    fn all_intra_stream_decodes() {
        let (frames, dec, _) = round_trip(
            EncoderConfig {
                gop: 1,
                ..Default::default()
            },
            4,
        );
        assert!(dec.kinds.iter().all(|k| *k == FrameKind::Intra));
        for (src, out) in frames.iter().zip(&dec.frames) {
            assert!(psnr_u8(src.luma(), out.luma()).unwrap() > 28.0);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            decode(&[0, 0, 0, 0]),
            Err(DecodeError::BadMagic(0))
        ));
    }

    #[test]
    fn truncated_stream_rejected() {
        let frames = SequenceGen::new(1).panning_sequence(32, 32, 2, 1, 0);
        let enc = Encoder::new(EncoderConfig::default())
            .unwrap()
            .encode(&frames)
            .unwrap();
        let cut = &enc.bytes[..enc.bytes.len() / 2];
        assert!(matches!(
            decode(cut),
            Err(DecodeError::Truncated(_)) | Err(DecodeError::Huffman(_))
        ));
    }

    #[test]
    fn decoder_is_cheaper_than_encoder_for_broadcast_config() {
        // E3's asymmetry claim, at the ops level: decoder does no motion
        // search, so its MC+IDCT work is far below the encoder's ME work.
        let frames = SequenceGen::new(8).panning_sequence(64, 48, 8, 2, 0);
        let enc = Encoder::new(EncoderConfig::asymmetric_broadcast())
            .unwrap()
            .encode(&frames)
            .unwrap();
        let dec = decode(&enc.bytes).unwrap();
        let decoder_ops = dec.idct_blocks * 2 * 512 + dec.mc_pixels;
        assert!(
            enc.tally.me_pixel_ops > 5 * decoder_ops,
            "encoder ME {} should dwarf decoder {}",
            enc.tally.me_pixel_ops,
            decoder_ops
        );
    }

    /// A one-frame 16x16 stream with the given code tables, then
    /// `payload(writer)` as the frame's data after its kind and quality.
    fn crafted_stream(
        predicted: bool,
        dc: Vec<u8>,
        ac: Vec<u8>,
        payload: impl Fn(&mut BitWriter),
    ) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(MAGIC, 16);
        w.write_bits(1, 8);
        w.write_bits(1, 8);
        w.write_bits(1, 16);
        HuffmanCode::from_lengths(dc).unwrap().write_table(&mut w);
        HuffmanCode::from_lengths(ac).unwrap().write_table(&mut w);
        w.write_bit(predicted);
        w.write_bits(75, 7);
        payload(&mut w);
        w.into_bytes()
    }

    #[test]
    fn a_predicted_first_frame_is_a_typed_error() {
        // A zero vector, then no block data: the missing reference is
        // reported before the blocks are parsed.
        let bytes = crafted_stream(true, vec![1], vec![1], |w| w.write_bits(0, 12));
        assert_eq!(decode(&bytes).unwrap_err(), DecodeError::BadBlock);
    }

    #[test]
    fn extreme_vectors_on_every_border_macroblock_decode() {
        // An encoded 64x48 intra frame, followed by a P frame whose
        // border macroblocks carry the extreme 6-bit vectors (-32 and +31
        // in all four combinations) and whose residual is zero, so the P
        // frame is the motion-compensated prediction alone. The two
        // interior macroblocks carry odd negative components, whose
        // chroma halves truncate toward zero.
        let mut source = SequenceGen::new(13).textured_frame(64, 48);
        let (cb, cr) = source.chroma_mut();
        for (i, (b, r)) in cb.iter_mut().zip(cr.iter_mut()).enumerate() {
            (*b, *r) = ((i * 37 % 256) as u8, (i * 11 % 200) as u8);
        }
        let intra = Encoder::new(EncoderConfig::default())
            .unwrap()
            .encode(&[source])
            .unwrap();
        let mut r = BitReader::new(&intra.bytes);
        let mut w = BitWriter::new();
        w.write_bits(r.read_bits(32).unwrap(), 32); // magic and dimensions
        assert_eq!(r.read_bits(16).unwrap(), 1);
        w.write_bits(2, 16); // two frames
        let dc_code = HuffmanCode::read_table(&mut r).unwrap();
        let ac_code = HuffmanCode::read_table(&mut r).unwrap();
        dc_code.write_table(&mut w);
        ac_code.write_table(&mut w);
        assert_eq!(w.bit_len(), intra.header_bits);
        for _ in 0..intra.frames[0].bits {
            w.write_bit(r.read_bit().unwrap());
        }
        w.write_bit(true);
        w.write_bits(75, 7);
        let (cols, rows) = (4, 3);
        let mut vectors = Vec::new();
        for my in 0..rows {
            for mx in 0..cols {
                let border = mx == 0 || my == 0 || mx == cols - 1 || my == rows - 1;
                let i = my * cols + mx;
                let mv = match (border, i % 4) {
                    (false, 1) => (-31, 17),
                    (false, _) => (15, -17),
                    (true, 0) => (-32, -32),
                    (true, 1) => (31, -32),
                    (true, 2) => (-32, 31),
                    (true, _) => (31, 31),
                };
                w.write_bits((mv.0 & 0x3F) as u32, MV_BITS);
                w.write_bits((mv.1 & 0x3F) as u32, MV_BITS);
                vectors.push(mv);
            }
        }
        for _ in 0..64 * 48 * 3 / 2 / 64 {
            dc_code.encode(&mut w, 0).unwrap();
            ac_code.encode(&mut w, 0x00).unwrap();
        }

        let dec = decode(&w.into_bytes()).unwrap();
        assert_eq!(dec.kinds, [FrameKind::Intra, FrameKind::Predicted]);
        let (i, p) = (&dec.frames[0], &dec.frames[1]);
        // Every sample of the P frame is its macroblock's vector applied
        // to the I frame through a clamped per-sample gather; chroma moves
        // by the halved (truncated) vector.
        for (plane, src, got, sub) in [
            ("Y", i.luma(), p.luma(), 1),
            ("Cb", i.cb(), p.cb(), 2),
            ("Cr", i.cr(), p.cr(), 2),
        ] {
            let (pw, ph) = (64 / sub, 48 / sub);
            for y in 0..ph {
                for x in 0..pw {
                    let (dx, dy) = vectors[(y * sub / 16) * cols + x * sub / 16];
                    let (dx, dy) = (dx / sub as i32, dy / sub as i32);
                    let sx = (x as i32 + dx).clamp(0, pw as i32 - 1) as usize;
                    let sy = (y as i32 + dy).clamp(0, ph as i32 - 1) as usize;
                    assert_eq!(
                        got[y * pw + x],
                        src[sy * pw + sx],
                        "plane {plane} ({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn dc_size_beyond_15_is_a_typed_error() {
        // The only DC symbol is size category 33 (codeword "0"): reading
        // its amplitude would ask for more than 32 bits.
        let mut dc = vec![0; 34];
        dc[33] = 1;
        let bytes = crafted_stream(false, dc, vec![1], |w| w.write_bits(0, 8));
        assert_eq!(decode(&bytes).unwrap_err(), DecodeError::BadBlock);
    }

    #[test]
    fn dc_overflow_is_a_typed_error() {
        // Two blocks each adding +32767 to the DC predictor overflow i16.
        let mut dc = vec![0; 16];
        dc[15] = 1;
        let bytes = crafted_stream(false, dc, vec![1], |w| {
            for _ in 0..2 {
                w.write_bit(false); // DC size 15
                w.write_bits(0x7FFF, 15); // +32767
                w.write_bit(false); // EOB
            }
        });
        assert_eq!(decode(&bytes).unwrap_err(), DecodeError::BadBlock);
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sign_extend_6(0), 0);
        assert_eq!(sign_extend_6(31), 31);
        assert_eq!(sign_extend_6(32), -32);
        assert_eq!(sign_extend_6(63), -1);
    }
}
