//! E1 — Figure 1: the video encoder pipeline, stage for stage.
//!
//! Regenerates the paper's Figure 1 as an executable: encodes a CIF
//! sequence through DCT → quantizer → VLC → buffer with the motion
//! estimation/compensation feedback loop, and reports where the
//! operations go. Asserted shape: motion estimation is more than half
//! of the encode operations.

use crate::{cif_spec, test_video, SEED};
use mmsoc::report::{count, f, Table};
use mmsoc::video_encoder_pipeline;
use video::encoder::Encoder;

/// Prints the stage table, asserts that motion estimation dominates and
/// returns its share of the encoder's operations per frame.
pub fn run() -> f64 {
    // Run the real encoder on a CIF-scale sequence (trimmed for runtime).
    let frames = test_video(352, 288, 12);
    let encoded = Encoder::new(cif_spec().config)
        .expect("valid config")
        .encode(&frames)
        .expect("encode");

    println!(
        "sequence: {} frames 352x288, {:.1}:1 compression, {:.1} dB mean PSNR\n",
        frames.len(),
        encoded.compression_ratio(),
        encoded.mean_psnr_db()
    );

    let pipeline = video_encoder_pipeline(&cif_spec(), SEED);
    let total: u64 = pipeline.stage_ops.iter().map(|(_, v)| v).sum();
    let mut table = Table::new(vec!["stage (Figure 1 box)", "ops/frame", "share"]);
    for (name, ops) in &pipeline.stage_ops {
        table.row(vec![
            name.clone(),
            count(*ops),
            format!("{}%", f(100.0 * *ops as f64 / total as f64, 1)),
        ]);
    }
    println!("{table}");

    let me = pipeline
        .stage_ops
        .iter()
        .find(|(n, _)| n == "motion-estimator")
        .map_or(0, |(_, v)| *v);
    let share = me as f64 / total as f64;
    println!("motion estimation share: {}%", f(100.0 * share, 1));
    assert!(
        2 * me > total,
        "motion estimation must dominate the encoder"
    );
    share
}
