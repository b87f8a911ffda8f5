//! E9 — §5: black-frame commercial skipping (Replay) and the color-burst
//! rule (early VCR add-ons).
//!
//! Sweeps broadcast noise for the black-frame detector and demonstrates
//! that the color rule only works while programs are black-and-white —
//! exactly the assumption the paper attributes to it. Asserted: the
//! black-frame F1 is at least 0.9 at every tested noise level, and the
//! color rule scores at least 0.9 on the B&W program but under 0.5 on
//! the color one.

use analysis::colorburst::ColorBurstDetector;
use analysis::commercial::CommercialDetector;
use mmsoc::report::{f, Table};
use video::synth::{BroadcastLabel, SequenceGen};

/// Prints both detector tables, asserts their shapes and returns the
/// black-frame F1 at noise sigma 0, 2, 5, 8 and 12 and the color rule's
/// frame accuracy on a B&W and a color program.
pub fn run() -> ([f64; 5], [f64; 2]) {
    // Black-frame detector across noise levels.
    let mut table = Table::new(vec!["noise sigma", "precision", "recall", "F1"]);
    let black_frame_f1 = [0.0, 2.0, 5.0, 8.0, 12.0].map(|noise| {
        let mut g = SequenceGen::new(9);
        let (frames, labels) = g.broadcast(64, 48, 150, 12, 3, 3, false, noise);
        let det = CommercialDetector::default();
        let flags = det.skip_flags(&frames);
        let score = CommercialDetector::score(&flags, &labels);
        table.row(vec![
            f(noise, 1),
            f(score.precision(), 3),
            f(score.recall(), 3),
            f(score.f1(), 3),
        ]);
        score.f1()
    });
    println!("black-frame detector vs broadcast noise:\n{table}");

    // Color-burst rule on B&W vs color programs.
    let mut table = Table::new(vec!["program material", "frame accuracy of color rule"]);
    let color_rule_accuracy =
        [("black-and-white program", true), ("color program", false)].map(|(name, mono)| {
            let mut g = SequenceGen::new(10);
            let (frames, labels) = g.broadcast(64, 48, 100, 12, 2, 2, mono, 2.0);
            let det = ColorBurstDetector::default();
            let flags = det.color_frames(&frames);
            let correct = flags
                .iter()
                .zip(&labels)
                .filter(|(flag, label)| {
                    matches!(label, BroadcastLabel::Black)
                        || **flag == matches!(label, BroadcastLabel::Commercial { .. })
                })
                .count();
            let accuracy = correct as f64 / frames.len() as f64;
            table.row(vec![name.to_string(), f(accuracy, 3)]);
            accuracy
        });
    println!("{table}");
    println!(
        "expected shape: black-frame F1 >= 0.9 at every tested noise level; the color \
         rule collapses on color programs (the paper's implicit caveat)."
    );
    assert!(
        black_frame_f1.iter().all(|&f1| f1 >= 0.9),
        "black-frame F1 below 0.9"
    );
    assert!(
        color_rule_accuracy[0] >= 0.9,
        "the color rule must work on B&W programs"
    );
    assert!(
        color_rule_accuracy[1] < 0.5,
        "the color rule must collapse on color"
    );
    (black_frame_f1, color_rule_accuracy)
}
