//! # `mmsoc` — multimedia applications on multiprocessor systems-on-chips
//!
//! The top of the mm-mpsoc workspace, reproducing Wolf, *Multimedia
//! Applications of Multiprocessor Systems-on-Chips* (DATE 2005). The
//! functional crates implement the paper's systems (video, audio,
//! analysis, DRM, file system, network, servo); this crate puts them *on
//! the chip*:
//!
//! * [`pipeline`] — the paper's block diagrams as task graphs whose node
//!   weights are **measured from the real kernels** (calibration encodes,
//!   not guesses).
//! * [`profile`] — the five §2 consumer device classes as
//!   application/platform pairs with real-time targets.
//! * [`deploy`](mod@deploy) — mapping strategies and streaming deployment on the
//!   [`mpsoc`] simulator.
//! * [`report`] — the text tables every experiment binary prints.
//!
//! # Example
//!
//! ```
//! use mmsoc::deploy::{deploy, Strategy};
//! use mmsoc::pipeline::{video_encoder_pipeline, VideoPipelineSpec};
//! use mpsoc::platform::Platform;
//!
//! let pipeline = video_encoder_pipeline(&VideoPipelineSpec::default(), 42);
//! let platform = Platform::symmetric_bus("quad", 4, 300e6);
//! let single = deploy(&pipeline.graph, &platform, Strategy::SingleCore, 8)?;
//! let piped = deploy(&pipeline.graph, &platform, Strategy::PipelineAffine, 8)?;
//! assert!(piped.throughput_hz() >= single.throughput_hz());
//! # Ok::<(), mpsoc::sched::SimError>(())
//! ```

pub mod deploy;
pub mod pipeline;
pub mod profile;
pub mod report;

pub use deploy::{deploy, deploy_best, deploy_device, Deployment, Strategy};
pub use pipeline::{
    analysis_pipeline, audio_decoder_pipeline, audio_encoder_pipeline, video_decoder_pipeline,
    video_encoder_pipeline, CalibratedPipeline, VideoPipelineSpec,
};
pub use profile::DeviceClass;
pub use report::Table;
