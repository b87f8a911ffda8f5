//! Video frames: 8-bit Y'CbCr planes with 4:2:0 chroma subsampling.
//!
//! Dimensions are constrained to multiples of 16 (one macroblock) so every
//! pipeline stage can walk whole blocks without edge special-casing — the
//! same constraint real consumer encoders of the paper's era imposed.
//!
//! Hot paths read frames through the borrowed views of
//! [`crate::plane`] — [`Frame::luma_plane`] / [`Frame::luma_view`] /
//! [`Frame::luma_block_into`] — which resolve stride and edge replication
//! without copying; the allocating accessors ([`Frame::luma_block`],
//! [`Frame::luma_block_at`]) remain for convenience and tests. The
//! codec's reconstruction loop, shared by the encoder and the decoder,
//! fills three whole planes and hands them to [`Frame::from_planes`].

use crate::plane::{BlockView, PlaneRef};

/// Error constructing a frame with invalid dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadDimensionsError {
    /// Requested width.
    pub width: usize,
    /// Requested height.
    pub height: usize,
}

impl core::fmt::Display for BadDimensionsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "frame dimensions {}x{} must be nonzero multiples of 16",
            self.width, self.height
        )
    }
}

impl std::error::Error for BadDimensionsError {}

/// A Y'CbCr 4:2:0 frame.
///
/// # Example
///
/// ```
/// use video::frame::Frame;
///
/// let f = Frame::filled(64, 48, 128, 128, 128)?;
/// assert_eq!(f.width(), 64);
/// assert_eq!(f.luma().len(), 64 * 48);
/// assert_eq!(f.cb().len(), 32 * 24);
/// # Ok::<(), video::frame::BadDimensionsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    width: usize,
    height: usize,
    y: Vec<u8>,
    cb: Vec<u8>,
    cr: Vec<u8>,
}

impl Frame {
    /// Creates a frame with every plane set to the given values.
    ///
    /// # Errors
    ///
    /// Returns [`BadDimensionsError`] unless both dimensions are nonzero
    /// multiples of 16.
    pub fn filled(
        width: usize,
        height: usize,
        y: u8,
        cb: u8,
        cr: u8,
    ) -> Result<Self, BadDimensionsError> {
        if width == 0 || height == 0 || !width.is_multiple_of(16) || !height.is_multiple_of(16) {
            return Err(BadDimensionsError { width, height });
        }
        Ok(Self {
            width,
            height,
            y: vec![y; width * height],
            cb: vec![cb; width * height / 4],
            cr: vec![cr; width * height / 4],
        })
    }

    /// A mid-grey frame.
    ///
    /// # Errors
    ///
    /// Returns [`BadDimensionsError`] for invalid dimensions.
    pub fn grey(width: usize, height: usize) -> Result<Self, BadDimensionsError> {
        Self::filled(width, height, 128, 128, 128)
    }

    /// A black frame (the §5 commercial-break separator).
    ///
    /// # Errors
    ///
    /// Returns [`BadDimensionsError`] for invalid dimensions.
    pub fn black(width: usize, height: usize) -> Result<Self, BadDimensionsError> {
        Self::filled(width, height, 16, 128, 128)
    }

    /// Builds a frame from explicit planes.
    ///
    /// # Errors
    ///
    /// Returns [`BadDimensionsError`] if dimensions are invalid or plane
    /// sizes don't match.
    pub fn from_planes(
        width: usize,
        height: usize,
        y: Vec<u8>,
        cb: Vec<u8>,
        cr: Vec<u8>,
    ) -> Result<Self, BadDimensionsError> {
        if width == 0
            || height == 0
            || !width.is_multiple_of(16)
            || !height.is_multiple_of(16)
            || y.len() != width * height
            || cb.len() != width * height / 4
            || cr.len() != width * height / 4
        {
            return Err(BadDimensionsError { width, height });
        }
        Ok(Self {
            width,
            height,
            y,
            cb,
            cr,
        })
    }

    /// Frame width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The luma plane, row-major.
    #[must_use]
    pub fn luma(&self) -> &[u8] {
        &self.y
    }

    /// Mutable luma plane.
    pub fn luma_mut(&mut self) -> &mut [u8] {
        &mut self.y
    }

    /// Blue-difference chroma plane (half resolution).
    #[must_use]
    pub fn cb(&self) -> &[u8] {
        &self.cb
    }

    /// Red-difference chroma plane (half resolution).
    #[must_use]
    pub fn cr(&self) -> &[u8] {
        &self.cr
    }

    /// Mutable chroma planes `(cb, cr)`.
    pub fn chroma_mut(&mut self) -> (&mut [u8], &mut [u8]) {
        (&mut self.cb, &mut self.cr)
    }

    /// Luma sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn luma_at(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.y[y * self.width + x]
    }

    /// Sets the luma sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set_luma(&mut self, x: usize, y: usize, v: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.y[y * self.width + x] = v;
    }

    /// Mean luma level of the frame.
    #[must_use]
    pub fn mean_luma(&self) -> f64 {
        self.y.iter().map(|&v| v as f64).sum::<f64>() / self.y.len() as f64
    }

    /// Mean chroma saturation: average distance of Cb/Cr from neutral 128.
    /// Black-and-white material sits near 0 — the §5 color-burst cue.
    #[must_use]
    pub fn chroma_saturation(&self) -> f64 {
        let dev: f64 = self
            .cb
            .iter()
            .zip(&self.cr)
            .map(|(&b, &r)| ((b as f64 - 128.0).abs() + (r as f64 - 128.0).abs()) / 2.0)
            .sum();
        dev / self.cb.len() as f64
    }

    /// Copies the `bs x bs` luma block whose top-left corner is
    /// `(bx*bs, by*bs)` into a vector.
    ///
    /// # Panics
    ///
    /// Panics if the block lies outside the frame.
    #[must_use]
    pub fn luma_block(&self, bx: usize, by: usize, bs: usize) -> Vec<u8> {
        let (x0, y0) = (bx * bs, by * bs);
        assert!(
            x0 + bs <= self.width && y0 + bs <= self.height,
            "block outside frame"
        );
        let mut out = Vec::with_capacity(bs * bs);
        for row in 0..bs {
            let start = (y0 + row) * self.width + x0;
            out.extend_from_slice(&self.y[start..start + bs]);
        }
        out
    }

    /// Writes a `bs x bs` luma block at block coordinates `(bx, by)`.
    ///
    /// # Panics
    ///
    /// Panics if the block lies outside the frame or `data` is too short.
    pub fn set_luma_block(&mut self, bx: usize, by: usize, bs: usize, data: &[u8]) {
        let (x0, y0) = (bx * bs, by * bs);
        assert!(
            x0 + bs <= self.width && y0 + bs <= self.height,
            "block outside frame"
        );
        assert!(data.len() >= bs * bs, "block data too short");
        for row in 0..bs {
            let start = (y0 + row) * self.width + x0;
            self.y[start..start + bs].copy_from_slice(&data[row * bs..(row + 1) * bs]);
        }
    }

    /// Extracts a `bs x bs` luma block at an *arbitrary pixel* position,
    /// clamping coordinates to the frame edge (used by motion search when
    /// candidate vectors point partially outside).
    #[must_use]
    pub fn luma_block_at(&self, x: i32, y: i32, bs: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(bs * bs);
        for row in 0..bs as i32 {
            for col in 0..bs as i32 {
                let px = (x + col).clamp(0, self.width as i32 - 1) as usize;
                let py = (y + row).clamp(0, self.height as i32 - 1) as usize;
                out.push(self.y[py * self.width + px]);
            }
        }
        out
    }

    /// The luma plane as a borrowed [`PlaneRef`] (no copy).
    #[must_use]
    pub fn luma_plane(&self) -> PlaneRef<'_> {
        PlaneRef::new(&self.y, self.width, self.height)
    }

    /// The Cb plane as a borrowed [`PlaneRef`] (half resolution, no copy).
    #[must_use]
    pub fn cb_plane(&self) -> PlaneRef<'_> {
        PlaneRef::new(&self.cb, self.width / 2, self.height / 2)
    }

    /// The Cr plane as a borrowed [`PlaneRef`] (half resolution, no copy).
    #[must_use]
    pub fn cr_plane(&self) -> PlaneRef<'_> {
        PlaneRef::new(&self.cr, self.width / 2, self.height / 2)
    }

    /// A borrowed, clamping `bs x bs` luma window at pixel `(x, y)` — the
    /// zero-copy counterpart of [`Frame::luma_block_at`] used by the
    /// motion-search hot path.
    #[must_use]
    pub fn luma_view(&self, x: i32, y: i32, bs: usize) -> BlockView<'_> {
        BlockView::new(&self.y, self.width, self.height, x, y, bs)
    }

    /// Copies the `bs x bs` luma block at block coordinates `(bx, by)`
    /// into `out` — the zero-allocation counterpart of
    /// [`Frame::luma_block`].
    ///
    /// # Panics
    ///
    /// Panics if the block lies outside the frame or `out` is shorter
    /// than `bs * bs`.
    pub fn luma_block_into(&self, bx: usize, by: usize, bs: usize, out: &mut [u8]) {
        let (x0, y0) = (bx * bs, by * bs);
        assert!(
            x0 + bs <= self.width && y0 + bs <= self.height,
            "block outside frame"
        );
        assert!(out.len() >= bs * bs, "block buffer too short");
        for row in 0..bs {
            let start = (y0 + row) * self.width + x0;
            out[row * bs..(row + 1) * bs].copy_from_slice(&self.y[start..start + bs]);
        }
    }

    /// 64-bin luma histogram (4 levels per bin), normalized to sum 1 —
    /// the shot-boundary feature of §5.
    #[must_use]
    pub fn luma_histogram(&self) -> [f64; 64] {
        let mut h = [0.0f64; 64];
        for &v in &self.y {
            h[(v >> 2) as usize] += 1.0;
        }
        let n = self.y.len() as f64;
        for b in &mut h {
            *b /= n;
        }
        h
    }

    /// Number of 16x16 macroblocks (horizontal, vertical).
    #[must_use]
    pub fn macroblocks(&self) -> (usize, usize) {
        (self.width / 16, self.height / 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_must_be_multiple_of_16() {
        assert!(Frame::grey(64, 48).is_ok());
        assert_eq!(
            Frame::grey(65, 48).unwrap_err(),
            BadDimensionsError {
                width: 65,
                height: 48
            }
        );
        assert!(Frame::grey(0, 16).is_err());
    }

    #[test]
    fn plane_sizes_follow_420() {
        let f = Frame::grey(160, 96).unwrap();
        assert_eq!(f.luma().len(), 160 * 96);
        assert_eq!(f.cb().len(), 80 * 48);
        assert_eq!(f.cr().len(), 80 * 48);
    }

    #[test]
    fn from_planes_validates_sizes() {
        let y = vec![0u8; 32 * 32];
        let c = vec![128u8; 16 * 16];
        assert!(Frame::from_planes(32, 32, y.clone(), c.clone(), c.clone()).is_ok());
        assert!(Frame::from_planes(32, 32, vec![0; 10], c.clone(), c).is_err());
    }

    #[test]
    fn black_frame_is_dark_and_neutral() {
        let f = Frame::black(32, 32).unwrap();
        assert!(f.mean_luma() < 20.0);
        assert_eq!(f.chroma_saturation(), 0.0);
    }

    #[test]
    fn pixel_accessors_round_trip() {
        let mut f = Frame::grey(32, 32).unwrap();
        f.set_luma(5, 7, 200);
        assert_eq!(f.luma_at(5, 7), 200);
    }

    #[test]
    fn block_round_trip() {
        let mut f = Frame::grey(32, 32).unwrap();
        let data: Vec<u8> = (0..64).map(|i| i as u8).collect();
        f.set_luma_block(1, 2, 8, &data);
        assert_eq!(f.luma_block(1, 2, 8), data);
        // Block at (1,2) covers pixels (8..16, 16..24).
        assert_eq!(f.luma_at(8, 16), 0);
        assert_eq!(f.luma_at(15, 23), 63);
    }

    #[test]
    fn clamped_block_extraction_at_edges() {
        let mut f = Frame::grey(32, 32).unwrap();
        f.set_luma(0, 0, 99);
        let b = f.luma_block_at(-4, -4, 8);
        // Top-left 4x4 region of the block replicates pixel (0,0) and row 0.
        assert_eq!(b[0], 99);
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn histogram_sums_to_one_and_localizes() {
        let f = Frame::filled(32, 32, 100, 128, 128).unwrap();
        let h = f.luma_histogram();
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((h[25] - 1.0).abs() < 1e-12, "all mass in bin 100/4");
    }

    #[test]
    fn borrowed_views_match_allocating_accessors() {
        let mut f = Frame::grey(32, 32).unwrap();
        for i in 0..32 * 32 {
            f.luma_mut()[i] = (i * 7) as u8;
        }
        // Aligned copy.
        let mut buf = [0u8; 64];
        f.luma_block_into(1, 2, 8, &mut buf);
        assert_eq!(buf.to_vec(), f.luma_block(1, 2, 8));
        // Clamped view, interior and edge.
        for (x, y) in [(3, 5), (-4, -4), (30, 30)] {
            let mut got = [0u8; 64];
            f.luma_view(x, y, 8).gather_into(&mut got);
            assert_eq!(got.to_vec(), f.luma_block_at(x, y, 8), "({x},{y})");
        }
        // Plane refs share geometry with the frame.
        assert_eq!(f.luma_plane().data(), f.luma());
        assert_eq!(f.cb_plane().width(), 16);
        assert_eq!(f.cr_plane().height(), 16);
    }

    #[test]
    fn macroblock_counts() {
        let f = Frame::grey(352, 288).unwrap();
        assert_eq!(f.macroblocks(), (22, 18));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_pixel_panics() {
        let f = Frame::grey(16, 16).unwrap();
        let _ = f.luma_at(16, 0);
    }
}
