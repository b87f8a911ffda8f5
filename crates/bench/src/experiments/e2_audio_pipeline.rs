//! E2 — Figure 2: the MPEG-1 audio encoder pipeline, stage for stage.
//!
//! Runs the real subband encoder (mapper → psychoacoustic model →
//! quantizer/coder → frame packer) and reports the per-stage operation
//! budget. Asserted shape: the mapper (filterbank) and psychoacoustic
//! model are more than half of the operations.

use crate::{test_music, SEED};
use audio::encoder::{decode, AudioConfig, AudioEncoder};
use mmsoc::audio_encoder_pipeline;
use mmsoc::report::{count, f, Table};
use signal::metrics::snr;

/// Prints the stage table, asserts that the front end dominates and
/// returns the mapper's and psychoacoustic model's share of the
/// operations.
pub fn run() -> f64 {
    let pcm = test_music(8);
    let encoder = AudioEncoder::new(AudioConfig::default());
    let stream = encoder.encode(&pcm).expect("encode");
    let out = decode(&stream.bytes).expect("decode");
    println!(
        "stream: {} frames, {:.0} kbit/s, {:.1}:1 vs 16-bit PCM, {:.1} dB SNR\n",
        stream.frames.len(),
        stream.bitrate_bps(44_100.0) / 1000.0,
        stream.compression_ratio(),
        snr(&pcm, &out.samples).expect("equal lengths")
    );

    let pipeline = audio_encoder_pipeline(SEED);
    let total: u64 = pipeline.stage_ops.iter().map(|(_, v)| v).sum();
    let mut table = Table::new(vec!["stage (Figure 2 box)", "ops/frame", "share"]);
    for (name, ops) in &pipeline.stage_ops {
        table.row(vec![
            name.clone(),
            count(*ops),
            format!("{}%", f(100.0 * *ops as f64 / total as f64, 1)),
        ]);
    }
    println!("{table}");

    let front: u64 = pipeline
        .stage_ops
        .iter()
        .filter(|(n, _)| n == "mapper" || n == "psychoacoustic-model")
        .map(|(_, v)| v)
        .sum();
    let share = front as f64 / total as f64;
    println!("mapper + psychoacoustic share: {}%", f(100.0 * share, 1));
    assert!(2 * front > total, "the front end must dominate Figure 2");
    share
}
