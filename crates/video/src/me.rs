//! Motion estimation — the dominant cost of Figure 1's encoder.
//!
//! Paper §3: *"Motion estimation compares part of one frame to a reference
//! frame and determines what motion would cause the selected part to
//! appear in the reference frame."* Three search strategies are provided,
//! spanning the compute/quality trade-off that experiment E5 measures:
//!
//! * [`SearchKind::Full`] — exhaustive window search; best SAD, most ops.
//! * [`SearchKind::ThreeStep`] — logarithmic coarse-to-fine probing.
//! * [`SearchKind::Diamond`] — large/small diamond pattern descent.
//!
//! # Hot-path design
//!
//! The inner loop performs **no heap allocation and no edge clamping per
//! candidate**. [`MotionEstimator::estimate`] copies the reference luma
//! once into a crate-private `PaddedPlane` whose edge-replicated margin
//! is the search range wide (the encoder builds that plane once per
//! reconstructed frame, searches it through the crate-private
//! `estimate_padded` and reuses it for motion compensation). Every
//! candidate a search can visit then lies inside the margin, so each one
//! is a strided slice of the padded plane — border macroblocks included —
//! holding exactly the samples a per-pixel clamped gather would produce.
//! The target macroblock is gathered once per block into a `[u8; 256]`
//! scratch. Candidate evaluation uses
//! [`signal::metrics::sad_u8_bounded`] (one SSE2 `psadbw` per 16-sample
//! row on x86_64) with the current best SAD as cutoff, abandoning losers
//! row-wise; because a candidate is only abandoned once it is *strictly
//! worse* than the best, the chosen vectors (including tie-breaks) are
//! bit-identical to an unbounded evaluation — [`SearchKind::Full`]
//! fields match the naive implementation exactly. A property test pins
//! the padded path to the unpadded, clamped-gather one for every search.
//!
//! The fast searches additionally exploit inter-block coherence when run
//! over a whole frame via [`MotionEstimator::estimate`]: the search is
//! seeded from the component-wise **median of the left / top / top-right
//! neighbour vectors** (H.263-style, absent neighbours count as zero),
//! and a block whose zero-motion SAD is at or below
//! [`ZERO_MV_EXIT_SAD`] terminates immediately with the zero vector.
//!
//! Every searcher counts its SAD evaluations ([`BlockMotion::evaluations`]
//! is exact — one count per candidate, whether or not the bounded SAD
//! exited early) so benches report algorithmic cost, not just wall time.

use signal::metrics::sad_u8_bounded;

use crate::frame::Frame;
use crate::plane::PaddedPlane;

/// Zero-motion early-termination threshold for the fast searches
/// ([`SearchKind::ThreeStep`], [`SearchKind::Diamond`]): if the SAD at
/// `(0, 0)` is at or below this (0.5 per pixel over a 16×16 block), the
/// block is declared static and the search stops after one evaluation.
/// [`SearchKind::Full`] never early-terminates — its field is exact.
pub const ZERO_MV_EXIT_SAD: u64 = (MB * MB) as u64 / 2;

/// A motion vector in integer pixels (reference = current + vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct MotionVector {
    /// Horizontal displacement.
    pub dx: i32,
    /// Vertical displacement.
    pub dy: i32,
}

impl MotionVector {
    /// Creates a vector.
    #[must_use]
    pub fn new(dx: i32, dy: i32) -> Self {
        Self { dx, dy }
    }

    /// Squared length (for regularity metrics).
    #[must_use]
    pub fn magnitude_sq(self) -> i64 {
        self.dx as i64 * self.dx as i64 + self.dy as i64 * self.dy as i64
    }
}

impl core::fmt::Display for MotionVector {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({},{})", self.dx, self.dy)
    }
}

/// Search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchKind {
    /// Exhaustive search of the whole ±range window.
    Full,
    /// Three-step (logarithmic) search.
    ThreeStep,
    /// Diamond search (large diamond then small diamond refinement).
    Diamond,
}

impl core::fmt::Display for SearchKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            SearchKind::Full => "full",
            SearchKind::ThreeStep => "three-step",
            SearchKind::Diamond => "diamond",
        };
        f.write_str(s)
    }
}

/// Result of estimating one block's motion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMotion {
    /// The chosen vector.
    pub mv: MotionVector,
    /// SAD of the chosen candidate.
    pub sad: u64,
    /// Number of SAD evaluations performed for this block.
    pub evaluations: u64,
}

/// The motion field of a frame: one vector per macroblock, row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MotionField {
    /// Macroblock columns.
    pub cols: usize,
    /// Macroblock rows.
    pub rows: usize,
    /// Per-block results, row-major.
    pub blocks: Vec<BlockMotion>,
}

impl MotionField {
    /// The result for macroblock `(bx, by)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    #[must_use]
    pub fn at(&self, bx: usize, by: usize) -> &BlockMotion {
        assert!(bx < self.cols && by < self.rows, "macroblock out of range");
        &self.blocks[by * self.cols + bx]
    }

    /// Total SAD evaluations over the frame.
    #[must_use]
    pub fn total_evaluations(&self) -> u64 {
        self.blocks.iter().map(|b| b.evaluations).sum()
    }

    /// Total best-match SAD over the frame (residual energy proxy).
    #[must_use]
    pub fn total_sad(&self) -> u64 {
        self.blocks.iter().map(|b| b.sad).sum()
    }
}

/// Motion estimator over 16×16 macroblocks.
#[derive(Debug, Clone, Copy)]
pub struct MotionEstimator {
    kind: SearchKind,
    range: i32,
}

/// Macroblock size used by the estimator.
pub const MB: usize = 16;

impl MotionEstimator {
    /// Creates an estimator with the given strategy and search range
    /// (± pixels in each axis).
    ///
    /// # Panics
    ///
    /// Panics if `range < 1`.
    #[must_use]
    pub fn new(kind: SearchKind, range: i32) -> Self {
        assert!(range >= 1, "search range must be at least 1");
        Self { kind, range }
    }

    /// The strategy.
    #[must_use]
    pub fn kind(&self) -> SearchKind {
        self.kind
    }

    /// The search range.
    #[must_use]
    pub fn range(&self) -> i32 {
        self.range
    }

    /// Estimates motion for every macroblock of `current` against
    /// `reference`.
    ///
    /// Fast searches ([`SearchKind::ThreeStep`], [`SearchKind::Diamond`])
    /// are seeded from the median of the already-decided left, top, and
    /// top-right neighbour vectors; [`SearchKind::Full`] ignores the
    /// predictor and produces the exact exhaustive-search field.
    ///
    /// Pads the reference luma by the search range, so every candidate
    /// window is a strided slice of the padded copy (see the module's
    /// hot-path design).
    ///
    /// # Panics
    ///
    /// Panics if the frames have different dimensions.
    #[must_use]
    pub fn estimate(&self, current: &Frame, reference: &Frame) -> MotionField {
        self.estimate_padded(
            current,
            &PaddedPlane::new(reference.luma_plane(), self.range as usize),
        )
    }

    /// [`MotionEstimator::estimate`] against a reference luma padded by
    /// at least the search range: every candidate window lies inside the
    /// padding, so each SAD reads a strided slice of `reference`.
    /// Bit-identical to reading every candidate from the unpadded
    /// reference through a clamping gather (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ or the padding is narrower than
    /// the search range.
    #[must_use]
    pub(crate) fn estimate_padded(&self, current: &Frame, reference: &PaddedPlane) -> MotionField {
        assert!(
            current.width() == reference.width() && current.height() == reference.height(),
            "frame dimensions differ"
        );
        assert!(
            reference.pad() >= self.range as usize,
            "reference padding narrower than the search range"
        );
        self.estimate_with(current, |target, x, y, cutoff| {
            let (cand, stride) = reference.window(x, y, MB);
            sad_u8_bounded(target, MB, cand, stride, MB, MB, cutoff)
        })
    }

    /// The frame loop shared by both estimators. `sad(target, x, y,
    /// cutoff)` is the bounded SAD of the 16×16 `target` against the
    /// reference window whose top-left is at pixel `(x, y)`.
    fn estimate_with(
        &self,
        current: &Frame,
        mut sad: impl FnMut(&[u8], i32, i32, u64) -> u64,
    ) -> MotionField {
        let (cols, rows) = current.macroblocks();
        let mut blocks: Vec<BlockMotion> = Vec::with_capacity(cols * rows);
        let mut target = [0u8; MB * MB];
        for by in 0..rows {
            for bx in 0..cols {
                let predictor = self.predict_mv(&blocks, cols, bx, by);
                current.luma_block_into(bx, by, MB, &mut target);
                let (x0, y0) = ((bx * MB) as i32, (by * MB) as i32);
                blocks.push(self.search_block(predictor, |mv, cutoff| {
                    sad(&target, x0 + mv.dx, y0 + mv.dy, cutoff)
                }));
            }
        }
        MotionField { cols, rows, blocks }
    }

    /// H.263-style motion-vector predictor: the component-wise median of
    /// the left, top, and top-right neighbours already decided this frame
    /// (absent neighbours count as zero), clamped to the search range.
    fn predict_mv(
        &self,
        blocks: &[BlockMotion],
        cols: usize,
        bx: usize,
        by: usize,
    ) -> MotionVector {
        let neighbour = |dx: isize, dy: isize| -> MotionVector {
            let (nx, ny) = (bx as isize + dx, by as isize + dy);
            if nx < 0 || ny < 0 || nx as usize >= cols {
                MotionVector::default()
            } else {
                blocks[ny as usize * cols + nx as usize].mv
            }
        };
        fn median3(a: i32, b: i32, c: i32) -> i32 {
            a.max(b).min(a.min(b).max(c))
        }
        let left = neighbour(-1, 0);
        let top = neighbour(0, -1);
        let top_right = neighbour(1, -1);
        MotionVector::new(
            median3(left.dx, top.dx, top_right.dx).clamp(-self.range, self.range),
            median3(left.dy, top.dy, top_right.dy).clamp(-self.range, self.range),
        )
    }

    /// The per-block search. `sad(mv, cutoff)` is the candidate cost: the
    /// bounded SAD of the target against the reference displaced by `mv`,
    /// abandoned row-wise (returning any value `> cutoff`) once it exceeds
    /// the caller's current best.
    fn search_block(
        &self,
        predictor: MotionVector,
        mut sad: impl FnMut(MotionVector, u64) -> u64,
    ) -> BlockMotion {
        let mut evals = 0u64;
        let mut cost = |mv: MotionVector, cutoff: u64| -> u64 {
            evals += 1;
            sad(mv, cutoff)
        };
        let (mv, sad) = match self.kind {
            SearchKind::Full => self.full_search(&mut cost),
            SearchKind::ThreeStep => self.three_step_search(&mut cost, predictor),
            SearchKind::Diamond => self.diamond_search(&mut cost, predictor),
        };
        BlockMotion {
            mv,
            sad,
            evaluations: evals,
        }
    }

    /// Exhaustive window scan. The cutoff tightens as better candidates
    /// are found, but the scan order and tie-breaks match the naive
    /// implementation exactly (bounded SAD is exact at or below the
    /// cutoff), so the resulting field is bit-identical.
    fn full_search(&self, cost: &mut impl FnMut(MotionVector, u64) -> u64) -> (MotionVector, u64) {
        let mut best = (MotionVector::default(), u64::MAX);
        for dy in -self.range..=self.range {
            for dx in -self.range..=self.range {
                let mv = MotionVector::new(dx, dy);
                let s = cost(mv, best.1);
                // Prefer smaller vectors on ties for a regular field.
                if s < best.1 || (s == best.1 && mv.magnitude_sq() < best.0.magnitude_sq()) {
                    best = (mv, s);
                }
            }
        }
        best
    }

    /// Shared fast-search seeding: evaluate zero motion (early-exiting
    /// static blocks), then let the neighbour predictor compete for the
    /// starting centre. Returns `(centre, best_sad, done)`.
    fn seed_center(
        &self,
        cost: &mut impl FnMut(MotionVector, u64) -> u64,
        predictor: MotionVector,
    ) -> (MotionVector, u64, bool) {
        let zero = MotionVector::default();
        let mut best_sad = cost(zero, u64::MAX);
        if best_sad <= ZERO_MV_EXIT_SAD {
            return (zero, best_sad, true);
        }
        let mut center = zero;
        if predictor != zero {
            let s = cost(predictor, best_sad);
            if s < best_sad {
                best_sad = s;
                center = predictor;
            }
        }
        (center, best_sad, false)
    }

    /// Three-step (logarithmic) search from the seeded centre.
    fn three_step_search(
        &self,
        cost: &mut impl FnMut(MotionVector, u64) -> u64,
        predictor: MotionVector,
    ) -> (MotionVector, u64) {
        let (mut center, mut best_sad, done) = self.seed_center(cost, predictor);
        if done {
            return (center, best_sad);
        }
        let mut step = (self.range / 2).max(1);
        while step >= 1 {
            let mut improved = None;
            for dy in [-step, 0, step] {
                for dx in [-step, 0, step] {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let mv = MotionVector::new(
                        (center.dx + dx).clamp(-self.range, self.range),
                        (center.dy + dy).clamp(-self.range, self.range),
                    );
                    let s = cost(mv, best_sad);
                    if s < best_sad {
                        best_sad = s;
                        improved = Some(mv);
                    }
                }
            }
            if let Some(mv) = improved {
                center = mv;
            }
            step /= 2;
        }
        (center, best_sad)
    }

    /// Diamond search (large diamond descent, small diamond refinement)
    /// from the seeded centre.
    fn diamond_search(
        &self,
        cost: &mut impl FnMut(MotionVector, u64) -> u64,
        predictor: MotionVector,
    ) -> (MotionVector, u64) {
        const LARGE: [(i32, i32); 8] = [
            (0, -2),
            (1, -1),
            (2, 0),
            (1, 1),
            (0, 2),
            (-1, 1),
            (-2, 0),
            (-1, -1),
        ];
        const SMALL: [(i32, i32); 4] = [(0, -1), (1, 0), (0, 1), (-1, 0)];
        let (mut center, mut best_sad, done) = self.seed_center(cost, predictor);
        if done {
            return (center, best_sad);
        }
        // Large diamond until the centre wins (bounded iterations).
        for _ in 0..(2 * self.range) {
            let mut best_move = None;
            for &(dx, dy) in &LARGE {
                let mv = MotionVector::new(
                    (center.dx + dx).clamp(-self.range, self.range),
                    (center.dy + dy).clamp(-self.range, self.range),
                );
                if mv == center {
                    continue;
                }
                let s = cost(mv, best_sad);
                if s < best_sad {
                    best_sad = s;
                    best_move = Some(mv);
                }
            }
            match best_move {
                Some(mv) => center = mv,
                None => break,
            }
        }
        // Small diamond refinement.
        for &(dx, dy) in &SMALL {
            let mv = MotionVector::new(
                (center.dx + dx).clamp(-self.range, self.range),
                (center.dy + dy).clamp(-self.range, self.range),
            );
            let s = cost(mv, best_sad);
            if s < best_sad {
                best_sad = s;
                center = mv;
            }
        }
        (center, best_sad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SequenceGen;
    use proptest::prelude::*;

    /// The reference implementation [`MotionEstimator::estimate_padded`]
    /// is pinned to: the same searches, with each candidate read from the
    /// unpadded reference — as a strided slice when it is interior, via a
    /// clamping gather into stack scratch when it touches an edge.
    fn estimate_clamped(me: &MotionEstimator, current: &Frame, reference: &Frame) -> MotionField {
        assert!(
            current.width() == reference.width() && current.height() == reference.height(),
            "frame dimensions differ"
        );
        let mut scratch = [0u8; MB * MB];
        me.estimate_with(current, |target, x, y, cutoff| {
            let view = reference.luma_view(x, y, MB);
            match view.interior() {
                Some((cand, stride)) => sad_u8_bounded(target, MB, cand, stride, MB, MB, cutoff),
                None => {
                    view.gather_into(&mut scratch);
                    sad_u8_bounded(target, MB, &scratch[..], MB, MB, MB, cutoff)
                }
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Motion search against the padded reference gives the clamped-
        /// gather field exactly (vectors, SADs and evaluation counts) for
        /// every search, on frames of at most 3×3 macroblocks, so every
        /// block sits on a border and its candidates reach past it.
        #[test]
        fn padded_reference_field_equals_clamped_gather(
            kind in 0usize..3,
            range in 1i32..=15,
            mb_cols in 1usize..=3,
            mb_rows in 1usize..=3,
            seed in any::<u64>(),
            dx in -10i32..=10,
            dy in -10i32..=10,
            noise in 0.0f64..12.0,
        ) {
            let kind = [SearchKind::Full, SearchKind::ThreeStep, SearchKind::Diamond][kind];
            let mut gen = SequenceGen::new(seed);
            let reference = gen.textured_frame(16 * mb_cols, 16 * mb_rows);
            let mut current = gen.shift_frame(&reference, dx, dy);
            gen.add_noise(&mut current, noise);
            let me = MotionEstimator::new(kind, range);
            prop_assert_eq!(me.estimate(&current, &reference), estimate_clamped(&me, &current, &reference));
        }
    }

    /// A frame pair where the content moves by exactly (dx, dy).
    fn shifted_pair(dx: i32, dy: i32) -> (Frame, Frame) {
        let mut gen = SequenceGen::new(99);
        let reference = gen.textured_frame(64, 64);
        let current = gen.shift_frame(&reference, dx, dy);
        (current, reference)
    }

    #[test]
    fn full_search_finds_exact_translation() {
        let (current, reference) = shifted_pair(3, -2);
        let me = MotionEstimator::new(SearchKind::Full, 7);
        let field = me.estimate(&current, &reference);
        // Interior blocks (not touching frame edges) must find (-3, 2):
        // content moved (3,-2), so the matching reference block sits at
        // current position + (-3, +2).
        let b = field.at(2, 2);
        assert_eq!(b.mv, MotionVector::new(-3, 2));
        assert_eq!(b.sad, 0);
    }

    #[test]
    fn full_search_evaluation_count_is_window_size() {
        let (current, reference) = shifted_pair(0, 0);
        let me = MotionEstimator::new(SearchKind::Full, 7);
        let b = *me.estimate(&current, &reference).at(1, 1);
        assert_eq!(b.evaluations, 15 * 15);
    }

    #[test]
    fn fast_searches_use_far_fewer_evaluations() {
        let (current, reference) = shifted_pair(2, 1);
        let full = MotionEstimator::new(SearchKind::Full, 15).estimate(&current, &reference);
        let tss = MotionEstimator::new(SearchKind::ThreeStep, 15).estimate(&current, &reference);
        let dia = MotionEstimator::new(SearchKind::Diamond, 15).estimate(&current, &reference);
        assert!(tss.total_evaluations() * 10 < full.total_evaluations());
        assert!(dia.total_evaluations() * 10 < full.total_evaluations());
    }

    #[test]
    fn fast_searches_find_small_translations() {
        let (current, reference) = shifted_pair(2, 2);
        for kind in [SearchKind::ThreeStep, SearchKind::Diamond] {
            let me = MotionEstimator::new(kind, 15);
            let b = *me.estimate(&current, &reference).at(2, 2);
            assert_eq!(b.mv, MotionVector::new(-2, -2), "{kind}");
            assert_eq!(b.sad, 0, "{kind}");
        }
    }

    #[test]
    fn full_search_is_never_worse_than_fast_searches() {
        let mut gen = SequenceGen::new(5);
        let reference = gen.textured_frame(64, 64);
        let mut current = gen.shift_frame(&reference, 4, -3);
        // Add noise so no candidate is perfect.
        gen.add_noise(&mut current, 8.0);
        let full = MotionEstimator::new(SearchKind::Full, 8).estimate(&current, &reference);
        for kind in [SearchKind::ThreeStep, SearchKind::Diamond] {
            let fast = MotionEstimator::new(kind, 8).estimate(&current, &reference);
            assert!(
                full.total_sad() <= fast.total_sad(),
                "{kind}: full {} > fast {}",
                full.total_sad(),
                fast.total_sad()
            );
        }
    }

    #[test]
    fn zero_motion_on_identical_frames() {
        let mut gen = SequenceGen::new(6);
        let f = gen.textured_frame(48, 48);
        for kind in [SearchKind::Full, SearchKind::ThreeStep, SearchKind::Diamond] {
            let field = MotionEstimator::new(kind, 7).estimate(&f, &f);
            for b in &field.blocks {
                assert_eq!(b.mv, MotionVector::default(), "{kind}");
                assert_eq!(b.sad, 0);
            }
        }
    }

    #[test]
    fn vectors_respect_search_range() {
        let (current, reference) = shifted_pair(6, 6);
        let me = MotionEstimator::new(SearchKind::Full, 2); // too small to find it
        let field = me.estimate(&current, &reference);
        for b in &field.blocks {
            assert!(b.mv.dx.abs() <= 2 && b.mv.dy.abs() <= 2);
        }
    }

    #[test]
    #[should_panic(expected = "dimensions differ")]
    fn mismatched_frames_panic() {
        let a = Frame::grey(32, 32).unwrap();
        let b = Frame::grey(64, 32).unwrap();
        let _ = MotionEstimator::new(SearchKind::Full, 4).estimate(&a, &b);
    }

    /// The naive full search the seed implementation performed: one
    /// allocating copy per candidate, unbounded SAD, same scan order.
    fn naive_full_search(current: &Frame, reference: &Frame, range: i32) -> Vec<MotionVector> {
        use signal::metrics::sad_u8;
        let (cols, rows) = current.macroblocks();
        let mut out = Vec::new();
        for by in 0..rows {
            for bx in 0..cols {
                let target = current.luma_block(bx, by, MB);
                let (x0, y0) = ((bx * MB) as i32, (by * MB) as i32);
                let mut best = (MotionVector::default(), u64::MAX);
                for dy in -range..=range {
                    for dx in -range..=range {
                        let mv = MotionVector::new(dx, dy);
                        let cand = reference.luma_block_at(x0 + mv.dx, y0 + mv.dy, MB);
                        let s = sad_u8(&target, &cand);
                        if s < best.1 || (s == best.1 && mv.magnitude_sq() < best.0.magnitude_sq())
                        {
                            best = (mv, s);
                        }
                    }
                }
                out.push(best.0);
            }
        }
        out
    }

    #[test]
    fn full_search_is_bit_identical_to_naive_implementation() {
        let mut gen = SequenceGen::new(2005);
        let reference = gen.textured_frame(64, 48);
        let mut current = gen.shift_frame(&reference, 3, -1);
        gen.add_noise(&mut current, 6.0);
        let field = MotionEstimator::new(SearchKind::Full, 7).estimate(&current, &reference);
        let naive = naive_full_search(&current, &reference, 7);
        let got: Vec<MotionVector> = field.blocks.iter().map(|b| b.mv).collect();
        assert_eq!(got, naive, "early-exit SAD must not change the field");
    }

    #[test]
    fn fast_searches_early_exit_on_static_blocks() {
        let mut gen = SequenceGen::new(21);
        let f = gen.textured_frame(48, 48);
        for kind in [SearchKind::ThreeStep, SearchKind::Diamond] {
            let field = MotionEstimator::new(kind, 15).estimate(&f, &f);
            for b in &field.blocks {
                assert_eq!(
                    b.evaluations, 1,
                    "{kind}: static block stops after zero-MV probe"
                );
                assert_eq!(b.mv, MotionVector::default());
            }
        }
    }

    #[test]
    fn predictor_seeding_does_not_hurt_fast_search_quality() {
        // A large pan: with predictor seeding, interior blocks should all
        // lock onto the global translation.
        let mut gen = SequenceGen::new(30);
        let reference = gen.textured_frame(96, 96);
        let current = gen.shift_frame(&reference, 5, 4);
        let field = MotionEstimator::new(SearchKind::Diamond, 15).estimate(&current, &reference);
        let mut exact = 0;
        for by in 1..5 {
            for bx in 1..5 {
                if field.at(bx, by).mv == MotionVector::new(-5, -4) {
                    exact += 1;
                }
            }
        }
        assert!(exact >= 12, "only {exact}/16 interior blocks locked on");
    }
}
