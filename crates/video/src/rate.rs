//! Rate control: the buffer→quantizer feedback of Figure 1.
//!
//! The encoder's output enters a fixed-size channel buffer drained at the
//! channel rate; the controller steers the quantizer quality so the buffer
//! neither overflows (bits dropped) nor underflows (channel idle). This is
//! exactly the dashed feedback arrow in the paper's encoder diagram.

/// The channel buffer's capacity, in frames' worth of target bits.
pub const BUFFER_FRAMES: f64 = 4.0;

/// The lowest quality the controller selects.
pub const MIN_QUALITY: u8 = 5;

/// Rate controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateConfig {
    /// Channel drain per frame, in bits.
    pub target_bits_per_frame: f64,
    /// Highest quality the controller may select.
    pub max_quality: u8,
}

impl RateConfig {
    /// A configuration for the given per-frame bit budget with quality
    /// limits [`MIN_QUALITY`]..=95.
    ///
    /// # Panics
    ///
    /// Panics if `target_bits_per_frame` is not positive.
    #[must_use]
    pub fn for_target(target_bits_per_frame: f64) -> Self {
        assert!(
            target_bits_per_frame > 0.0,
            "target bitrate must be positive"
        );
        Self {
            target_bits_per_frame,
            max_quality: 95,
        }
    }
}

/// The buffer-feedback rate controller: a buffer of [`BUFFER_FRAMES`]
/// frames' worth of target bits, steering quality within
/// [`MIN_QUALITY`]`..=max_quality`.
///
/// # Example
///
/// ```
/// use video::rate::{RateConfig, RateController};
///
/// let mut rc = RateController::new(RateConfig::for_target(10_000.0), 50);
/// // Frames repeatedly over budget fill the buffer; quality must drop.
/// let q0 = rc.quality();
/// for _ in 0..4 {
///     rc.frame_encoded(25_000.0);
/// }
/// assert!(rc.quality() < q0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RateController {
    config: RateConfig,
    occupancy_bits: f64,
    quality: u8,
    overflow_events: usize,
    underflow_events: usize,
}

impl RateController {
    /// Creates a controller starting at `initial_quality` with an empty
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `initial_quality` is outside the config's quality range
    /// or the range is inverted.
    #[must_use]
    pub fn new(config: RateConfig, initial_quality: u8) -> Self {
        assert!(MIN_QUALITY <= config.max_quality, "inverted quality range");
        assert!(
            (MIN_QUALITY..=config.max_quality).contains(&initial_quality),
            "initial quality outside range"
        );
        Self {
            config,
            occupancy_bits: 0.0,
            quality: initial_quality,
            overflow_events: 0,
            underflow_events: 0,
        }
    }

    /// The quality the encoder should use for the next frame.
    #[must_use]
    pub fn quality(&self) -> u8 {
        self.quality
    }

    /// Buffer occupancy as a fraction of capacity (0..=1).
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        (self.occupancy_bits / self.buffer_bits()).clamp(0.0, 1.0)
    }

    /// Times the buffer would have overflowed (bits discarded).
    #[must_use]
    pub fn overflow_events(&self) -> usize {
        self.overflow_events
    }

    /// Times the buffer ran dry (channel idle).
    #[must_use]
    pub fn underflow_events(&self) -> usize {
        self.underflow_events
    }

    /// Informs the controller that a frame of `bits` was produced; updates
    /// the buffer model and picks the next quality.
    pub fn frame_encoded(&mut self, bits: f64) {
        self.occupancy_bits += bits.max(0.0) - self.config.target_bits_per_frame;
        if self.occupancy_bits > self.buffer_bits() {
            self.occupancy_bits = self.buffer_bits();
            self.overflow_events += 1;
        }
        if self.occupancy_bits < 0.0 {
            self.occupancy_bits = 0.0;
            self.underflow_events += 1;
        }
        // Proportional control on occupancy with a dead zone in the middle.
        let occ = self.occupancy();
        let q = self.quality as i32;
        let next = if occ > 0.85 {
            q - 8
        } else if occ > 0.65 {
            q - 3
        } else if occ < 0.15 {
            q + 8
        } else if occ < 0.35 {
            q + 3
        } else {
            q
        };
        self.quality = next.clamp(MIN_QUALITY as i32, self.config.max_quality as i32) as u8;
    }

    /// Buffer capacity in bits.
    fn buffer_bits(&self) -> f64 {
        BUFFER_FRAMES * self.config.target_bits_per_frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_frames_drive_quality_down() {
        let mut rc = RateController::new(RateConfig::for_target(1000.0), 90);
        for _ in 0..20 {
            rc.frame_encoded(3000.0);
        }
        assert_eq!(rc.quality(), 5, "sustained overshoot must hit min quality");
    }

    #[test]
    fn undersized_frames_drive_quality_up() {
        let mut rc = RateController::new(RateConfig::for_target(1000.0), 20);
        for _ in 0..10 {
            rc.frame_encoded(100.0);
        }
        assert_eq!(rc.quality(), 95);
    }

    #[test]
    fn on_target_frames_leave_quality_stable() {
        let mut rc = RateController::new(RateConfig::for_target(1000.0), 50);
        // Pre-fill to mid-buffer so we sit in the dead zone.
        rc.frame_encoded(1000.0 + 2000.0);
        let q = rc.quality();
        for _ in 0..5 {
            rc.frame_encoded(1000.0);
        }
        assert_eq!(rc.quality(), q);
    }

    #[test]
    fn occupancy_is_bounded_and_events_counted() {
        let mut rc = RateController::new(RateConfig::for_target(100.0), 50);
        for _ in 0..20 {
            rc.frame_encoded(10_000.0);
        }
        assert!(rc.occupancy() <= 1.0);
        assert!(rc.overflow_events() > 0);
        for _ in 0..20 {
            rc.frame_encoded(0.0);
        }
        assert_eq!(rc.occupancy(), 0.0);
        assert!(rc.underflow_events() > 0);
    }

    #[test]
    #[should_panic(expected = "outside range")]
    fn initial_quality_validated() {
        let _ = RateController::new(RateConfig::for_target(100.0), 99);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_target_rejected() {
        let _ = RateConfig::for_target(0.0);
    }
}
