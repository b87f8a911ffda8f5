//! # `video` — the video compression system of Wolf's Figure 1
//!
//! A clean-room, MPEG-shaped video codec implementing every box of the
//! paper's encoder diagram and its §3 discussion:
//!
//! * [`dct`] — 8×8 2-D DCT built from two 1-D passes (the paper's stated
//!   advantage; see experiment E4), with a direct O(N⁴) oracle.
//! * [`quant`] — perceptual quantization ("finer detail eliminated
//!   first").
//! * [`zigzag`] + [`rle`] + [`huffman`] over [`bitstream`] — the
//!   variable-length encode box.
//! * [`me`] / [`mc`] — motion estimation (full, three-step, diamond
//!   searches) and motion-compensated prediction.
//! * [`rate`] — the buffer→quantizer feedback arrow.
//! * [`encoder`] / [`decoder`] — the full loop. The inverse-DCT
//!   reconstruction feedback is one block walk for I and P frames, run by
//!   both, which keeps encoder and decoder in lockstep.
//! * [`wavelet`] — the 5/3 JPEG2000 kernel for the §3 wavelet comparison.
//! * [`transcode`] — generation-loss measurement (§3's transcoding
//!   problem).
//! * [`synth`] — synthetic sequences and broadcasts (the substitute for
//!   real footage).
//!
//! # Example
//!
//! ```
//! use video::encoder::{Encoder, EncoderConfig};
//! use video::decoder::decode;
//! use video::synth::SequenceGen;
//!
//! let frames = SequenceGen::new(42).panning_sequence(64, 48, 8, 2, 0);
//! let encoded = Encoder::new(EncoderConfig::default())?.encode(&frames)?;
//! println!(
//!     "{} frames -> {} bytes ({:.1}:1, {:.1} dB)",
//!     frames.len(),
//!     encoded.bytes.len(),
//!     encoded.compression_ratio(),
//!     encoded.mean_psnr_db()
//! );
//! let decoded = decode(&encoded.bytes).unwrap();
//! assert_eq!(decoded.frames.len(), frames.len());
//! # Ok::<(), video::encoder::EncoderError>(())
//! ```

pub mod bitstream;
pub mod dct;
pub mod decoder;
pub mod encoder;
pub mod frame;
pub mod huffman;
pub mod mc;
pub mod me;
pub mod plane;
pub mod quant;
pub mod rate;
pub mod rle;
pub mod synth;
pub mod transcode;
pub mod wavelet;
pub mod zigzag;

pub use decoder::{decode, DecodedSequence};
pub use encoder::{EncodedSequence, Encoder, EncoderConfig, FrameKind, StageTally};
pub use frame::Frame;
pub use me::{MotionEstimator, MotionVector, SearchKind};
