//! Motion compensation — Figure 1's "motion compensated predictor".
//!
//! Paper §3: *"Motion compensation at the receiver then applies that
//! motion vector to reconstruct the frame."* Given a reference frame and a
//! motion field, [`predict`] builds the predicted frame, and [`residual`]
//! gives the residual signal the transform path actually codes.

use crate::frame::Frame;
use crate::me::{MotionField, MB};

/// Builds the motion-compensated prediction of a frame from `reference`
/// and a motion field (one vector per 16×16 macroblock).
///
/// # Panics
///
/// Panics if the field's macroblock grid does not match the reference
/// dimensions.
#[must_use]
pub fn predict(reference: &Frame, field: &MotionField) -> Frame {
    let (cols, rows) = reference.macroblocks();
    assert!(
        field.cols == cols && field.rows == rows,
        "motion field grid mismatch"
    );
    let mut out = reference.clone();
    let mut block = [0u8; MB * MB];
    for by in 0..rows {
        for bx in 0..cols {
            let mv = field.at(bx, by).mv;
            reference
                .luma_view((bx * MB) as i32 + mv.dx, (by * MB) as i32 + mv.dy, MB)
                .gather_into(&mut block);
            out.set_luma_block(bx, by, MB, &block);
        }
    }
    out
}

/// Per-pixel luma residual `current - predicted`, as `i16`.
///
/// # Panics
///
/// Panics if the frames' dimensions differ.
#[must_use]
pub fn residual(current: &Frame, predicted: &Frame) -> Vec<i16> {
    assert!(
        current.width() == predicted.width() && current.height() == predicted.height(),
        "frame dimensions differ"
    );
    current
        .luma()
        .iter()
        .zip(predicted.luma())
        .map(|(&c, &p)| c as i16 - p as i16)
        .collect()
}

/// Sum of absolute residual values — the "bits to spend" proxy used by
/// experiment E5 to show motion estimation shrinking the signal.
#[must_use]
pub fn residual_energy(residual: &[i16]) -> u64 {
    residual.iter().map(|&r| r.unsigned_abs() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::me::{MotionEstimator, SearchKind};
    use crate::synth::SequenceGen;

    #[test]
    fn perfect_prediction_for_pure_translation() {
        let mut g = SequenceGen::new(41);
        let reference = g.textured_frame(64, 64);
        let current = g.shift_frame(&reference, 2, 1);
        let field = MotionEstimator::new(SearchKind::Full, 4).estimate(&current, &reference);
        let pred = predict(&reference, &field);
        // Interior blocks match exactly; border blocks may clamp.
        for by in 1..3 {
            for bx in 1..3 {
                assert_eq!(
                    pred.luma_block(bx, by, 16),
                    current.luma_block(bx, by, 16),
                    "block {bx},{by}"
                );
            }
        }
    }

    #[test]
    fn residual_add_round_trips() {
        let mut g = SequenceGen::new(42);
        let a = g.textured_frame(32, 32);
        let b = g.textured_frame(32, 32);
        let r = residual(&a, &b);
        let back: Vec<u8> = b
            .luma()
            .iter()
            .zip(&r)
            .map(|(&p, &d)| (p as i16 + d) as u8)
            .collect();
        assert_eq!(back, a.luma());
    }

    #[test]
    fn motion_compensation_shrinks_residual() {
        let mut g = SequenceGen::new(43);
        let reference = g.textured_frame(64, 64);
        let current = g.shift_frame(&reference, 3, 2);
        // Without MC: residual vs the raw reference.
        let no_mc = residual_energy(&residual(&current, &reference));
        // With MC.
        let field = MotionEstimator::new(SearchKind::Full, 7).estimate(&current, &reference);
        let pred = predict(&reference, &field);
        let with_mc = residual_energy(&residual(&current, &pred));
        assert!(
            with_mc * 2 < no_mc,
            "MC should at least halve residual energy: {with_mc} vs {no_mc}"
        );
    }

    #[test]
    fn zero_field_prediction_is_reference() {
        let mut g = SequenceGen::new(44);
        let reference = g.textured_frame(32, 32);
        let field = MotionEstimator::new(SearchKind::Full, 1).estimate(&reference, &reference);
        let pred = predict(&reference, &field);
        assert_eq!(pred.luma(), reference.luma());
    }

    #[test]
    fn residual_energy_zero_for_identical() {
        let mut g = SequenceGen::new(45);
        let f = g.textured_frame(32, 32);
        assert_eq!(residual_energy(&residual(&f, &f)), 0);
    }
}
