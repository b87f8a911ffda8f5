//! Bit-level stream writer and reader, MSB-first.
//!
//! Shared by the video codec's variable-length encoder (Figure 1), the
//! audio frame packer (Figure 2), the RPE-LTP speech framer, and the DRM
//! license serializer. Bits are packed MSB-first into bytes.

/// Error returned when a reader runs out of bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBitsError {
    /// Bits requested.
    pub requested: u32,
    /// Bits remaining.
    pub remaining: usize,
}

impl core::fmt::Display for OutOfBitsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "requested {} bits but only {} remain",
            self.requested, self.remaining
        )
    }
}

impl std::error::Error for OutOfBitsError {}

/// MSB-first bit writer.
///
/// # Example
///
/// ```
/// use signal::bits::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xFF, 8);
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3)?, 0b101);
/// assert_eq!(r.read_bits(8)?, 0xFF);
/// # Ok::<(), signal::bits::OutOfBitsError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits used in the final partial byte (0..8).
    bit_pos: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `count` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn write_bits(&mut self, value: u32, count: u32) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        // Fill the partial final byte, then whole bytes: at most five
        // chunks per call.
        let mut left = count;
        while left > 0 {
            if self.bit_pos == 0 {
                self.bytes.push(0);
            }
            let free = 8 - self.bit_pos;
            let take = free.min(left);
            left -= take;
            let chunk = (value >> left) & ((1 << take) - 1);
            let last = self.bytes.len() - 1;
            self.bytes[last] |= (chunk << (free - take)) as u8;
            self.bit_pos = (self.bit_pos + take) % 8;
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u32, 1);
    }

    /// Total bits written so far.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        if self.bit_pos == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + self.bit_pos as usize
        }
    }

    /// Pads with zero bits to a byte boundary and returns the bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Borrows the bytes written so far (final byte may be partial).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// MSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor.
    cursor: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, cursor: 0 }
    }

    /// Bits remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.cursor
    }

    /// Current absolute bit position.
    #[must_use]
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Reads `count` bits MSB-first.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBitsError`] when fewer than `count` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn read_bits(&mut self, count: u32) -> Result<u32, OutOfBitsError> {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        if (count as usize) > self.remaining() {
            return Err(OutOfBitsError {
                requested: count,
                remaining: self.remaining(),
            });
        }
        if count == 0 {
            return Ok(0);
        }
        // The `count` bits start `cursor % 8` bits into a big-endian window
        // of (at most) eight bytes: 7 + 32 bits always fit.
        let start = self.cursor / 8;
        let tail = &self.bytes[start..self.bytes.len().min(start + 8)];
        let mut window = [0u8; 8];
        window[..tail.len()].copy_from_slice(tail);
        let word = u64::from_be_bytes(window) << (self.cursor % 8);
        self.cursor += count as usize;
        Ok((word >> (64 - count)) as u32)
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBitsError`] at end of stream.
    pub fn read_bit(&mut self) -> Result<bool, OutOfBitsError> {
        let byte = *self.bytes.get(self.cursor / 8).ok_or(OutOfBitsError {
            requested: 1,
            remaining: 0,
        })?;
        let bit = (byte >> (7 - self.cursor % 8)) & 1;
        self.cursor += 1;
        Ok(bit == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-bit writer that chunked [`BitWriter::write_bits`] replaced,
    /// kept as its oracle.
    fn write_bits_per_bit(w: &mut BitWriter, value: u32, count: u32) {
        for i in (0..count).rev() {
            let bit = (value >> i) & 1;
            if w.bit_pos == 0 {
                w.bytes.push(0);
            }
            let last = w.bytes.len() - 1;
            w.bytes[last] |= (bit as u8) << (7 - w.bit_pos);
            w.bit_pos = (w.bit_pos + 1) % 8;
        }
    }

    /// The per-bit reader that chunked [`BitReader::read_bits`] replaced,
    /// kept as its oracle.
    fn read_bits_per_bit(r: &mut BitReader<'_>, count: u32) -> Result<u32, OutOfBitsError> {
        if (count as usize) > r.remaining() {
            return Err(OutOfBitsError {
                requested: count,
                remaining: r.remaining(),
            });
        }
        let mut out = 0u32;
        for _ in 0..count {
            let byte = r.bytes[r.cursor / 8];
            let bit = (byte >> (7 - (r.cursor % 8))) & 1;
            out = (out << 1) | bit as u32;
            r.cursor += 1;
        }
        Ok(out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Chunked writes give the per-bit writer's bytes and length for
        /// any (value, width) sequence; bits above `width` are ignored.
        #[test]
        fn chunked_writer_matches_per_bit_oracle(
            ops in prop::collection::vec((any::<u32>(), 0u32..=32), 0..64),
        ) {
            let mut chunked = BitWriter::new();
            let mut oracle = BitWriter::new();
            for &(value, width) in &ops {
                chunked.write_bits(value, width);
                write_bits_per_bit(&mut oracle, value, width);
                prop_assert_eq!(chunked.bit_len(), oracle.bit_len());
            }
            prop_assert_eq!(chunked.into_bytes(), oracle.into_bytes());
        }

        /// Chunked reads give the per-bit reader's values, errors and
        /// cursor for any width sequence, including reads past the end.
        /// Width 33 stands for a single [`BitReader::read_bit`].
        #[test]
        fn chunked_reader_matches_per_bit_oracle(
            bytes in prop::collection::vec(any::<u8>(), 0..24),
            widths in prop::collection::vec(0u32..=33, 0..64),
        ) {
            let mut chunked = BitReader::new(&bytes);
            let mut oracle = BitReader::new(&bytes);
            for &width in &widths {
                if width == 33 {
                    let expect = read_bits_per_bit(&mut oracle, 1).map(|b| b == 1);
                    prop_assert_eq!(chunked.read_bit(), expect);
                } else {
                    let expect = read_bits_per_bit(&mut oracle, width);
                    prop_assert_eq!(chunked.read_bits(width), expect);
                }
                prop_assert_eq!(chunked.position(), oracle.position());
            }
        }
    }

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b1010, 4);
        w.write_bits(0xABCD, 16);
        w.write_bits(0x7FFFFFFF, 31);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 0b1);
        assert_eq!(r.read_bits(4).unwrap(), 0b1010);
        assert_eq!(r.read_bits(16).unwrap(), 0xABCD);
        assert_eq!(r.read_bits(31).unwrap(), 0x7FFFFFFF);
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0, 5);
        assert_eq!(w.bit_len(), 8);
        w.write_bit(true);
        assert_eq!(w.bit_len(), 9);
    }

    #[test]
    fn reading_past_end_errors() {
        let bytes = [0xFF];
        let mut r = BitReader::new(&bytes);
        r.read_bits(6).unwrap();
        let err = r.read_bits(4).unwrap_err();
        assert_eq!(
            err,
            OutOfBitsError {
                requested: 4,
                remaining: 2
            }
        );
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        assert_eq!(w.into_bytes(), vec![0x80]);
    }

    #[test]
    fn as_bytes_reflects_progress() {
        let mut w = BitWriter::new();
        w.write_bits(0xF, 4);
        assert_eq!(w.as_bytes(), &[0xF0]);
    }

    #[test]
    fn remaining_and_position_track_cursor() {
        let bytes = [0u8; 4];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining(), 32);
        r.read_bits(10).unwrap();
        assert_eq!(r.position(), 10);
        assert_eq!(r.remaining(), 22);
    }
}
