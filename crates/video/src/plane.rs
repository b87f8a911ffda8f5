//! Generic 8-bit sample planes.
//!
//! The codec treats luma and both chroma planes uniformly through these
//! views: block extraction and clamped access for motion-compensated
//! prediction at arbitrary offsets.
//!
//! Three views of a plane, allocation-cheapest first:
//!
//! * [`BlockView`] — a borrowed `bs x bs` window at an *arbitrary* pixel
//!   position, with stride and edge replication resolved without copying.
//!   When the window lies fully inside the plane it exposes a strided
//!   slice directly into the samples ([`BlockView::interior`]); otherwise
//!   [`BlockView::gather_into`] fills a caller-provided scratch buffer.
//! * [`PlaneRef`] — a borrowed `(data, width, height)` triple, so the
//!   encoder can walk a [`crate::frame::Frame`]'s planes without copying
//!   them.
//! * `PaddedPlane` (crate-private) — an owned, edge-replicated copy of a
//!   plane with a margin on every side, built once per reference frame.
//!   Every window that reaches at most the margin past an edge is then a
//!   strided slice of it, with no per-candidate clamping. The motion
//!   search and the motion compensation of the encoder and the decoder
//!   read their reference through it.

/// A borrowed 8-bit plane: row-major samples owned elsewhere (typically
/// a [`crate::frame::Frame`]'s planes) with their dimensions.
#[derive(Debug, Clone, Copy)]
pub struct PlaneRef<'a> {
    data: &'a [u8],
    width: usize,
    height: usize,
}

impl<'a> PlaneRef<'a> {
    /// Wraps raw row-major samples.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height` or either dimension is 0.
    #[must_use]
    pub fn new(data: &'a [u8], width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "plane must be non-empty");
        assert_eq!(data.len(), width * height, "plane size mismatch");
        Self {
            data,
            width,
            height,
        }
    }

    /// Plane width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The samples, row-major.
    #[must_use]
    pub fn data(&self) -> &'a [u8] {
        self.data
    }

    /// Number of `bs x bs` blocks horizontally and vertically.
    #[must_use]
    pub fn blocks(&self, bs: usize) -> (usize, usize) {
        (self.width / bs, self.height / bs)
    }

    /// A borrowed, clamping `bs x bs` window at pixel `(x, y)`.
    #[must_use]
    pub fn view(&self, x: i32, y: i32, bs: usize) -> BlockView<'a> {
        BlockView::new(self.data, self.width, self.height, x, y, bs)
    }

    /// Writes the edge-replicated `bs x bs` block at `(x, y)` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() < bs * bs`.
    pub fn block_into(&self, x: i32, y: i32, bs: usize, out: &mut [u8]) {
        self.view(x, y, bs).gather_into(out);
    }
}

/// A borrowed `bs x bs` window of a plane at an arbitrary (possibly
/// partially outside) pixel position.
///
/// An interior window is read straight out of the plane via
/// [`BlockView::interior`]'s strided slice; only a window that touches an
/// edge falls back to an explicit gather into a caller-provided scratch
/// buffer. Neither path heap-allocates. [`crate::mc::predict`] reads its
/// reference this way; the codec's own loops read padded copies instead.
#[derive(Debug, Clone, Copy)]
pub struct BlockView<'a> {
    data: &'a [u8],
    plane_w: usize,
    plane_h: usize,
    x: i32,
    y: i32,
    bs: usize,
}

impl<'a> BlockView<'a> {
    /// A `bs x bs` window of the `plane_w x plane_h` row-major samples in
    /// `data`, with its top-left at pixel `(x, y)`. Out-of-range
    /// coordinates replicate the nearest edge sample.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != plane_w * plane_h` or any dimension is 0.
    #[must_use]
    pub fn new(data: &'a [u8], plane_w: usize, plane_h: usize, x: i32, y: i32, bs: usize) -> Self {
        assert!(plane_w > 0 && plane_h > 0, "plane must be non-empty");
        assert!(bs > 0, "block size must be positive");
        assert_eq!(data.len(), plane_w * plane_h, "plane size mismatch");
        Self {
            data,
            plane_w,
            plane_h,
            x,
            y,
            bs,
        }
    }

    /// The block size.
    #[must_use]
    pub fn size(&self) -> usize {
        self.bs
    }

    /// When the window lies fully inside the plane, the strided slice
    /// starting at its top-left sample, paired with the plane's row
    /// stride. `None` when any part of the window needs edge clamping.
    #[must_use]
    pub fn interior(&self) -> Option<(&'a [u8], usize)> {
        let bs = self.bs as i32;
        if self.x >= 0
            && self.y >= 0
            && self.x + bs <= self.plane_w as i32
            && self.y + bs <= self.plane_h as i32
        {
            let start = self.y as usize * self.plane_w + self.x as usize;
            let end = (self.y as usize + self.bs - 1) * self.plane_w + self.x as usize + self.bs;
            Some((&self.data[start..end], self.plane_w))
        } else {
            None
        }
    }

    /// Sample at block-relative `(row, col)`, edge-clamped.
    #[must_use]
    pub fn at(&self, row: usize, col: usize) -> u8 {
        let px = (self.x + col as i32).clamp(0, self.plane_w as i32 - 1) as usize;
        let py = (self.y + row as i32).clamp(0, self.plane_h as i32 - 1) as usize;
        self.data[py * self.plane_w + px]
    }

    /// Writes the window, edge-replicated, into the first `bs * bs` bytes
    /// of `out` (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() < bs * bs`.
    pub fn gather_into(&self, out: &mut [u8]) {
        assert!(out.len() >= self.bs * self.bs, "scratch buffer too short");
        if let Some((src, stride)) = self.interior() {
            for r in 0..self.bs {
                out[r * self.bs..(r + 1) * self.bs]
                    .copy_from_slice(&src[r * stride..r * stride + self.bs]);
            }
            return;
        }
        for r in 0..self.bs {
            let py = (self.y + r as i32).clamp(0, self.plane_h as i32 - 1) as usize;
            let src = &self.data[py * self.plane_w..(py + 1) * self.plane_w];
            for (c, d) in out[r * self.bs..(r + 1) * self.bs].iter_mut().enumerate() {
                let px = (self.x + c as i32).clamp(0, self.plane_w as i32 - 1) as usize;
                *d = src[px];
            }
        }
    }
}

/// A plane with `pad` edge-replicated samples added on every side.
///
/// Sample `(x, y)` of the padded plane, for `-pad <= x < width + pad`
/// and `-pad <= y < height + pad`, equals the source plane's sample at
/// `(x, y)` clamped into the plane — exactly what [`BlockView`] gathers —
/// so a window inside the margin reads as a plain strided slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PaddedPlane {
    data: Vec<u8>,
    width: usize,
    height: usize,
    pad: usize,
}

impl PaddedPlane {
    /// Copies `plane` with a `pad`-sample edge-replicated margin.
    #[must_use]
    pub(crate) fn new(plane: PlaneRef<'_>, pad: usize) -> Self {
        let (width, height) = (plane.width(), plane.height());
        let stride = width + 2 * pad;
        let mut data = Vec::with_capacity(stride * (height + 2 * pad));
        for py in 0..height + 2 * pad {
            let y = py.saturating_sub(pad).min(height - 1);
            let row = &plane.data()[y * width..(y + 1) * width];
            data.extend(std::iter::repeat_n(row[0], pad));
            data.extend_from_slice(row);
            data.extend(std::iter::repeat_n(row[width - 1], pad));
        }
        Self {
            data,
            width,
            height,
            pad,
        }
    }

    /// Width of the source plane.
    #[must_use]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Height of the source plane.
    #[must_use]
    pub(crate) fn height(&self) -> usize {
        self.height
    }

    /// The margin, in samples, on every side.
    #[must_use]
    pub(crate) fn pad(&self) -> usize {
        self.pad
    }

    /// The `bs x bs` window whose top-left sample is at source-plane pixel
    /// `(x, y)`: a slice starting at that sample, paired with the padded
    /// row stride.
    ///
    /// # Panics
    ///
    /// Panics if the window reaches further than the margin past an edge.
    #[must_use]
    pub(crate) fn window(&self, x: i32, y: i32, bs: usize) -> (&[u8], usize) {
        let stride = self.width + 2 * self.pad;
        let inside = |v: i32, extent: usize| {
            let v = v + self.pad as i32;
            assert!(
                v >= 0 && v as usize + bs <= extent + 2 * self.pad,
                "window reaches past the padding"
            );
            v as usize
        };
        let (px, py) = (inside(x, self.width), inside(y, self.height));
        let start = py * stride + px;
        (&self.data[start..start + (bs - 1) * stride + bs], stride)
    }

    /// Copies the `bs x bs` window at `(x, y)` into the first `bs * bs`
    /// bytes of `out` (row-major) — the same samples
    /// [`BlockView::gather_into`] writes for the source plane.
    ///
    /// # Panics
    ///
    /// Panics if the window reaches past the margin or `out` is shorter
    /// than `bs * bs`.
    #[inline(always)]
    pub(crate) fn block_into(&self, x: i32, y: i32, bs: usize, out: &mut [u8]) {
        let (src, stride) = self.window(x, y, bs);
        for (r, dst) in out[..bs * bs].chunks_exact_mut(bs).enumerate() {
            dst.copy_from_slice(&src[r * stride..r * stride + bs]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;

    /// The clamped per-sample gather every windowed read is pinned to.
    fn block_at(p: PlaneRef<'_>, x: i32, y: i32, bs: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(bs * bs);
        for r in 0..bs as i32 {
            for c in 0..bs as i32 {
                let px = (x + c).clamp(0, p.width() as i32 - 1) as usize;
                let py = (y + r).clamp(0, p.height() as i32 - 1) as usize;
                out.push(p.data()[py * p.width() + px]);
            }
        }
        out
    }

    #[test]
    fn construction_and_access() {
        let data = [0, 1, 2, 3, 4, 5, 6, 7];
        let p = PlaneRef::new(&data, 4, 2);
        assert_eq!(p.view(2, 1, 1).at(0, 0), 6);
        assert_eq!(p.view(-5, 0, 1).at(0, 0), 0, "clamps left");
        assert_eq!(p.view(99, 99, 1).at(0, 0), 7, "clamps bottom-right");
    }

    #[test]
    fn block_round_trip() {
        let mut data = vec![0u8; 16 * 16];
        let block: Vec<u8> = (0..64).collect();
        for (r, row) in block.chunks(8).enumerate() {
            let at = (8 + r) * 16 + 8;
            data[at..at + 8].copy_from_slice(row);
        }
        let mut back = [0u8; 64];
        PlaneRef::new(&data, 16, 16).block_into(8, 8, 8, &mut back);
        assert_eq!(back.to_vec(), block);
    }

    #[test]
    fn block_at_edge_replicates() {
        let mut b = [0u8; 4];
        PlaneRef::new(&[1, 2, 3, 4], 2, 2).block_into(1, 1, 2, &mut b);
        assert_eq!(b, [4, 4, 4, 4]);
    }

    #[test]
    fn blocks_count() {
        assert_eq!(PlaneRef::new(&[0; 32 * 16], 32, 16).blocks(8), (4, 2));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_data_length_panics() {
        let _ = PlaneRef::new(&[0; 8], 3, 3);
    }

    #[test]
    fn view_interior_exposes_strided_slice() {
        let data: Vec<u8> = (0..64).collect();
        let p = PlaneRef::new(&data, 8, 8);
        let v = p.view(2, 3, 4);
        let (slice, stride) = v.interior().expect("fully inside");
        assert_eq!(stride, 8);
        assert_eq!(slice[0], 3 * 8 + 2);
        assert_eq!(v.at(0, 0), 3 * 8 + 2);
        assert_eq!(v.at(3, 3), 6 * 8 + 5);
    }

    #[test]
    fn view_outside_has_no_interior_and_gathers_clamped() {
        let data: Vec<u8> = (0..16).collect();
        let p = PlaneRef::new(&data, 4, 4);
        for (x, y) in [(-1, 0), (0, -1), (2, 0), (0, 2), (5, 5)] {
            let v = p.view(x, y, 3);
            assert!(v.interior().is_none(), "({x},{y}) needs clamping");
            let mut got = [0u8; 9];
            v.gather_into(&mut got);
            assert_eq!(got.to_vec(), block_at(p, x, y, 3), "view at ({x},{y})");
        }
        assert!(p.view(1, 1, 3).interior().is_some(), "(1,1) is interior");
    }

    #[test]
    fn gather_matches_block_at_everywhere() {
        let data: Vec<u8> = (0..20).collect();
        let p = PlaneRef::new(&data, 5, 4);
        let mut scratch = [0u8; 4];
        for y in -3..6 {
            for x in -3..7 {
                p.block_into(x, y, 2, &mut scratch);
                assert_eq!(scratch.to_vec(), block_at(p, x, y, 2), "({x},{y})");
            }
        }
    }

    #[test]
    fn plane_ref_mirrors_plane() {
        let f = Frame::filled(32, 16, 7, 8, 9).unwrap();
        for (r, data) in [(f.luma_plane(), f.luma()), (f.cb_plane(), f.cb())] {
            assert_eq!(r.data(), data);
            assert_eq!(r.width() * r.height(), data.len());
        }
        assert_eq!(f.cr_plane().blocks(8), (2, 1));
    }

    #[test]
    fn padded_windows_match_clamped_gathers() {
        let data: Vec<u8> = (0..20).collect();
        let p = PlaneRef::new(&data, 5, 4);
        let padded = PaddedPlane::new(p, 3);
        let mut got = [0u8; 4];
        for y in -3..=5 {
            for x in -3..=6 {
                padded.block_into(x, y, 2, &mut got);
                assert_eq!(got.to_vec(), block_at(p, x, y, 2), "({x},{y})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "past the padding")]
    fn windows_beyond_the_padding_panic() {
        let _ = PaddedPlane::new(PlaneRef::new(&[0; 16], 4, 4), 2).window(-3, 0, 2);
    }

    #[test]
    #[should_panic(expected = "scratch buffer too short")]
    fn short_scratch_panics() {
        let mut out = [0u8; 3];
        PlaneRef::new(&[0; 16], 4, 4).block_into(0, 0, 2, &mut out);
    }
}
