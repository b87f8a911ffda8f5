//! Synthetic video generation — the workspace's substitute for camera and
//! broadcast material.
//!
//! Provides textured frames with controllable motion for codec tests,
//! multi-scene sequences with hard cuts for shot detection (§5), and a
//! broadcast generator with black-frame-separated commercial breaks and
//! color/monochrome programs for the Replay-style commercial detector.

use signal::rng::Xoroshiro128;

use crate::frame::Frame;

/// Ground-truth annotation for one generated broadcast frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BroadcastLabel {
    /// Program content (scene id).
    Program {
        /// Which program scene.
        scene: usize,
    },
    /// Commercial content (spot id).
    Commercial {
        /// Which commercial spot.
        spot: usize,
    },
    /// A black separator frame.
    Black,
}

impl BroadcastLabel {
    /// `true` for commercial or separator frames (the material a DVR
    /// skips).
    #[must_use]
    pub fn is_skippable(self) -> bool {
        !matches!(self, BroadcastLabel::Program { .. })
    }
}

/// Deterministic video sequence generator.
///
/// # Example
///
/// ```
/// use video::synth::SequenceGen;
///
/// let mut g = SequenceGen::new(1);
/// let frames = g.panning_sequence(64, 48, 10, 2, 1);
/// assert_eq!(frames.len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct SequenceGen {
    rng: Xoroshiro128,
}

impl SequenceGen {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Xoroshiro128::new(seed),
        }
    }

    /// A frame with smooth low-frequency texture plus detail — enough
    /// structure for motion search to lock onto.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are not multiples of 16.
    #[must_use]
    pub fn textured_frame(&mut self, width: usize, height: usize) -> Frame {
        let px = self.rng.range_f64(0.01, 0.05);
        let py = self.rng.range_f64(0.01, 0.05);
        let ph1 = self.rng.range_f64(0.0, std::f64::consts::TAU);
        let ph2 = self.rng.range_f64(0.0, std::f64::consts::TAU);
        let mut f = Frame::grey(width, height).expect("dimensions validated by caller");
        for y in 0..height {
            for x in 0..width {
                let v = 128.0
                    + 50.0 * (px * x as f64 * std::f64::consts::TAU + ph1).sin()
                    + 40.0 * (py * y as f64 * std::f64::consts::TAU + ph2).cos()
                    + 15.0 * ((x / 4 + y / 4) % 2) as f64
                    + self.rng.normal_with(0.0, 2.0);
                f.set_luma(x, y, v.clamp(0.0, 255.0) as u8);
            }
        }
        // Mild colour cast so chroma paths carry signal.
        let (cb, cr) = f.chroma_mut();
        for v in cb.iter_mut() {
            *v = 140;
        }
        for v in cr.iter_mut() {
            *v = 120;
        }
        f
    }

    /// Shifts a frame's luma by `(dx, dy)` pixels with edge clamping
    /// (positive `dx` moves content right).
    #[must_use]
    pub fn shift_frame(&mut self, src: &Frame, dx: i32, dy: i32) -> Frame {
        let (w, h) = (src.width(), src.height());
        let mut out = src.clone();
        for y in 0..h {
            for x in 0..w {
                let sx = (x as i32 - dx).clamp(0, w as i32 - 1) as usize;
                let sy = (y as i32 - dy).clamp(0, h as i32 - 1) as usize;
                out.set_luma(x, y, src.luma_at(sx, sy));
            }
        }
        out
    }

    /// Adds Gaussian luma noise with the given standard deviation.
    pub fn add_noise(&mut self, frame: &mut Frame, sigma: f64) {
        for v in frame.luma_mut() {
            let nv = *v as f64 + self.rng.normal_with(0.0, sigma);
            *v = nv.clamp(0.0, 255.0) as u8;
        }
    }

    /// A panning sequence: a textured scene translating `(dx, dy)` per
    /// frame — the classic motion-compensation test pattern.
    #[must_use]
    pub fn panning_sequence(
        &mut self,
        width: usize,
        height: usize,
        frames: usize,
        dx: i32,
        dy: i32,
    ) -> Vec<Frame> {
        let base = self.textured_frame(width, height);
        (0..frames)
            .map(|i| self.shift_frame(&base, dx * i as i32, dy * i as i32))
            .collect()
    }

    /// A multi-scene sequence with hard cuts: `scene_lens[i]` frames of
    /// scene `i`. Returns the frames and the first frame index of each cut
    /// (i.e. indices where a new scene starts, excluding 0).
    #[must_use]
    pub fn scene_sequence(
        &mut self,
        width: usize,
        height: usize,
        scene_lens: &[usize],
    ) -> (Vec<Frame>, Vec<usize>) {
        let mut frames = Vec::new();
        let mut cuts = Vec::new();
        for (s, &len) in scene_lens.iter().enumerate() {
            if s > 0 {
                cuts.push(frames.len());
            }
            let mut base = self.textured_frame(width, height);
            // Scenes differ in overall brightness as well as texture, so
            // their intensity histograms are genuinely distinct (as real
            // scene changes are). A cycled palette guarantees adjacent
            // scenes are well separated plus a little random spice.
            const OFFSETS: [i64; 8] = [-70, 35, -35, 70, 0, -55, 55, 20];
            let offset = OFFSETS[s % OFFSETS.len()] + self.rng.range_i64(-8, 8);
            for v in base.luma_mut() {
                *v = (*v as i64 + offset).clamp(0, 255) as u8;
            }
            let (dx, dy) = (
                self.rng.range_i64(-2, 2) as i32,
                self.rng.range_i64(-1, 1) as i32,
            );
            for i in 0..len {
                let mut f = self.shift_frame(&base, dx * i as i32, dy * i as i32);
                self.add_noise(&mut f, 1.5);
                frames.push(f);
            }
        }
        (frames, cuts)
    }

    /// A commercial-style frame: saturated colour, bright, high-frequency
    /// texture.
    #[must_use]
    pub fn commercial_frame(&mut self, width: usize, height: usize) -> Frame {
        let mut f = self.textured_frame(width, height);
        for v in f.luma_mut() {
            *v = v.saturating_add(30);
        }
        let (cb, cr) = f.chroma_mut();
        for v in cb.iter_mut() {
            *v = 190;
        }
        for v in cr.iter_mut() {
            *v = 70;
        }
        f
    }

    /// A monochrome program frame (the old-movie case of the §5
    /// color-burst detector: programs B&W, commercials in color).
    #[must_use]
    pub fn monochrome_frame(&mut self, width: usize, height: usize) -> Frame {
        let mut f = self.textured_frame(width, height);
        let (cb, cr) = f.chroma_mut();
        for v in cb.iter_mut() {
            *v = 128;
        }
        for v in cr.iter_mut() {
            *v = 128;
        }
        f
    }

    /// Generates a broadcast: alternating program segments and commercial
    /// breaks, separated by runs of black frames, with optional
    /// monochrome programs and additive noise. Returns frames plus
    /// per-frame ground truth.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn broadcast(
        &mut self,
        width: usize,
        height: usize,
        program_len: usize,
        commercial_len: usize,
        breaks: usize,
        black_run: usize,
        monochrome_program: bool,
        noise_sigma: f64,
    ) -> (Vec<Frame>, Vec<BroadcastLabel>) {
        let mut frames = Vec::new();
        let mut labels = Vec::new();
        let emit_black = |frames: &mut Vec<Frame>, labels: &mut Vec<BroadcastLabel>| {
            for _ in 0..black_run {
                frames.push(Frame::black(width, height).expect("validated dims"));
                labels.push(BroadcastLabel::Black);
            }
        };
        for b in 0..=breaks {
            // Program segment.
            let base = if monochrome_program {
                self.monochrome_frame(width, height)
            } else {
                self.textured_frame(width, height)
            };
            for i in 0..program_len {
                let mut f = self.shift_frame(&base, i as i32, 0);
                self.add_noise(&mut f, noise_sigma);
                frames.push(f);
                labels.push(BroadcastLabel::Program { scene: b });
            }
            if b == breaks {
                break;
            }
            // Break: black, commercials, black.
            emit_black(&mut frames, &mut labels);
            let cbase = self.commercial_frame(width, height);
            for i in 0..commercial_len {
                let mut f = self.shift_frame(&cbase, -(i as i32) * 2, i as i32);
                self.add_noise(&mut f, noise_sigma);
                frames.push(f);
                labels.push(BroadcastLabel::Commercial { spot: b });
            }
            emit_black(&mut frames, &mut labels);
        }
        (frames, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textured_frame_has_spread() {
        let mut g = SequenceGen::new(1);
        let f = g.textured_frame(64, 64);
        let lo = f.luma().iter().copied().min().unwrap();
        let hi = f.luma().iter().copied().max().unwrap();
        assert!(hi - lo > 60, "texture too flat: {lo}..{hi}");
    }

    #[test]
    fn shift_moves_content() {
        let mut g = SequenceGen::new(2);
        let f = g.textured_frame(64, 64);
        let s = g.shift_frame(&f, 5, 3);
        // Interior pixel equality: s(x, y) == f(x-5, y-3).
        assert_eq!(s.luma_at(20, 20), f.luma_at(15, 17));
    }

    #[test]
    fn panning_sequence_is_consistent() {
        let mut g = SequenceGen::new(3);
        let frames = g.panning_sequence(64, 48, 5, 2, 0);
        assert_eq!(frames.len(), 5);
        // Frame 3 equals frame 0 shifted by 6 pixels (interior check).
        assert_eq!(frames[3].luma_at(30, 20), frames[0].luma_at(24, 20));
    }

    #[test]
    fn scene_sequence_reports_cut_positions() {
        let mut g = SequenceGen::new(4);
        let (frames, cuts) = g.scene_sequence(32, 32, &[4, 5, 3]);
        assert_eq!(frames.len(), 12);
        assert_eq!(cuts, vec![4, 9]);
    }

    #[test]
    fn broadcast_structure_and_labels() {
        let mut g = SequenceGen::new(5);
        let (frames, labels) = g.broadcast(32, 32, 10, 6, 2, 2, false, 0.0);
        assert_eq!(frames.len(), labels.len());
        // 3 programs x10 + 2 breaks x (2 black + 6 comm + 2 black) = 30+20.
        assert_eq!(frames.len(), 50);
        let blacks = labels
            .iter()
            .filter(|l| **l == BroadcastLabel::Black)
            .count();
        assert_eq!(blacks, 8);
        // Black frames really are black.
        for (f, l) in frames.iter().zip(&labels) {
            if *l == BroadcastLabel::Black {
                assert!(f.mean_luma() < 20.0);
            }
        }
    }

    #[test]
    fn commercial_frames_are_more_saturated_than_programs() {
        let mut g = SequenceGen::new(6);
        let prog = g.monochrome_frame(32, 32);
        let comm = g.commercial_frame(32, 32);
        assert!(comm.chroma_saturation() > prog.chroma_saturation() + 20.0);
    }

    #[test]
    fn skippable_classification() {
        assert!(BroadcastLabel::Black.is_skippable());
        assert!(BroadcastLabel::Commercial { spot: 0 }.is_skippable());
        assert!(!BroadcastLabel::Program { scene: 1 }.is_skippable());
    }

    #[test]
    fn determinism() {
        let mut a = SequenceGen::new(9);
        let mut b = SequenceGen::new(9);
        assert_eq!(a.textured_frame(32, 32), b.textured_frame(32, 32));
    }
}
