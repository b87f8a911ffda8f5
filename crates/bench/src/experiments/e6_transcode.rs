//! E6 — §3: "each generation of transcoding reduces image quality".
//!
//! Chains decode→re-encode generations between two device configurations
//! and tracks PSNR against the original. Asserted shape: no later
//! generation is better than generation 1 (the same 0.01 dB bar as
//! `paper_shapes::e6_no_quality_recovery`). PSNR does not fall
//! monotonically: the chain alternates between the two devices, and
//! generations 3 and 5 sit slightly above generations 2 and 4.

use crate::test_video;
use mmsoc::report::{f, Table};
use video::encoder::EncoderConfig;
use video::transcode::{generations, GenerationStats};

/// Prints the generation table and asserts that quality never recovers
/// to generation 1's.
pub fn run() -> Vec<GenerationStats> {
    let frames = test_video(176, 144, 8);
    let device_a = EncoderConfig {
        quality: 60,
        gop: 8,
        ..Default::default()
    };
    let device_b = EncoderConfig {
        quality: 45,
        gop: 8,
        ..Default::default()
    };
    let stats = generations(&frames, device_a, device_b, 5).expect("transcode chain");

    let mut table = Table::new(vec!["generation", "PSNR vs original (dB)", "stream kbits"]);
    for s in &stats {
        table.row(vec![
            s.generation.to_string(),
            f(s.psnr_vs_original_db, 2),
            f(s.bits as f64 / 1000.0, 0),
        ]);
    }
    println!("{table}");

    let first = stats[0].psnr_vs_original_db;
    let best_later = stats[1..]
        .iter()
        .map(|s| s.psnr_vs_original_db)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "gen-1 -> gen-2 loss: {} dB; best later generation: {} dB below gen 1",
        f(first - stats[1].psnr_vs_original_db, 2),
        f(first - best_later, 2)
    );
    println!(
        "expected shape: no later generation recovers generation 1's quality \
         (PSNR need not fall at every generation)."
    );
    assert!(
        best_later <= first + 0.01,
        "a later generation beat generation 1: {best_later:.2} vs {first:.2} dB"
    );
    stats
}
