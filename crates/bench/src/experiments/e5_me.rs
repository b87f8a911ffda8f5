//! E5 — §3: motion estimation and compensation.
//!
//! Two results: (a) motion compensation slashes the residual the
//! transform path must code; (b) the search-algorithm space trades SAD
//! evaluations against match quality (full vs three-step vs diamond).
//! Asserted shape: motion compensation cuts the residual energy more
//! than 4x, and full search has the lowest total SAD (ties allowed)
//! for more than 10x the evaluations of either fast search.

use mmsoc::report::{count, f, Table};
use video::mc::{predict, residual, residual_energy};
use video::me::{MotionEstimator, SearchKind};
use video::synth::SequenceGen;

/// Prints both tables, asserts the claim and returns the SAD
/// evaluations and total SAD (the residual proxy) of the full,
/// three-step and diamond searches, in that order.
pub fn run() -> [(u64, u64); 3] {
    let mut gen = SequenceGen::new(5);
    let reference = gen.textured_frame(352, 288);
    let mut current = gen.shift_frame(&reference, 5, -3);
    gen.add_noise(&mut current, 3.0);

    // (a) Residual with and without motion compensation.
    let no_mc = residual_energy(&residual(&current, &reference));
    let field = MotionEstimator::new(SearchKind::Full, 15).estimate(&current, &reference);
    let with_mc = residual_energy(&residual(&current, &predict(&reference, &field)));
    println!(
        "residual energy without MC: {}   with MC: {}   reduction: {}x\n",
        count(no_mc),
        count(with_mc),
        f(no_mc as f64 / with_mc.max(1) as f64, 1)
    );
    assert!(
        no_mc > 4 * with_mc,
        "motion compensation must slash the residual"
    );

    // (b) Search algorithm comparison.
    let mut table = Table::new(vec![
        "search",
        "SAD evals/frame",
        "total SAD (residual proxy)",
        "evals vs full",
    ]);
    let kinds = [SearchKind::Full, SearchKind::ThreeStep, SearchKind::Diamond];
    let searches = kinds.map(|kind| {
        let fld = MotionEstimator::new(kind, 15).estimate(&current, &reference);
        (fld.total_evaluations(), fld.total_sad())
    });
    let (full_evals, full_sad) = searches[0];
    for (kind, (evals, sad)) in kinds.iter().zip(searches) {
        table.row(vec![
            kind.to_string(),
            count(evals),
            count(sad),
            format!("{}x fewer", f(full_evals as f64 / evals as f64, 1)),
        ]);
    }
    println!("{table}");
    println!("expected shape: full search has the lowest SAD and by far the most evaluations.");
    for (kind, (evals, sad)) in kinds.iter().zip(searches).skip(1) {
        assert!(full_sad <= sad, "full search must match best");
        assert!(full_evals > 10 * evals, "{kind} must need far fewer evaluations");
    }
    searches
}
