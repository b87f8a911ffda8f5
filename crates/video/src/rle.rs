//! Run-length coding of zig-zag-scanned coefficient blocks.
//!
//! JPEG/MPEG style: each nonzero AC coefficient is coded as a
//! `(run-of-zeros, size-category)` symbol plus amplitude bits; a ZRL
//! symbol encodes 16 consecutive zeros, and EOB terminates the block. The
//! DC coefficient is differentially coded by the encoder layer and is not
//! handled here.
//!
//! The encoder walks each block's events twice — once to count symbols
//! for its Huffman tables and estimate the frame's size for rate control,
//! once to emit them — through [`ac_events`], an iterator that allocates
//! nothing. [`encode_ac`] collects the same events into a `Vec` and stays
//! as the iterator's test oracle.

use crate::bitstream::size_category;
use crate::dct::BLOCK;

/// One run-length event in a scanned block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RleEvent {
    /// `run` zeros followed by a nonzero `level` (run is 0..=15).
    Run {
        /// Number of preceding zeros (0..=15).
        run: u8,
        /// The nonzero coefficient value.
        level: i16,
    },
    /// Sixteen consecutive zeros (JPEG's ZRL).
    ZeroRunLength,
    /// End of block: every remaining coefficient is zero.
    EndOfBlock,
}

/// Errors decoding a run-length event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RleError {
    /// Events describe more than 63 AC coefficients.
    Overflow,
    /// A run event carried a zero level (forbidden; zero levels are runs).
    ZeroLevel,
}

impl core::fmt::Display for RleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RleError::Overflow => f.write_str("run-length events exceed 63 AC coefficients"),
            RleError::ZeroLevel => f.write_str("run event with zero level"),
        }
    }
}

impl std::error::Error for RleError {}

/// The run-length events of a scanned block's 63 AC coefficients
/// (`scanned[1..]`), in order and without allocating: exactly the
/// sequence [`encode_ac`] collects.
///
/// The iterator keeps a 64-bit mask of the nonzero AC positions and
/// jumps from one to the next with `trailing_zeros`, so its cost scales
/// with the block's nonzero count, not with its 63 slots. A gap of
/// `z` zeros before a nonzero level comes out as `z / 16` ZRL events and
/// then a run of `z % 16`; EOB follows the last level unless that level
/// is the block's final coefficient.
#[must_use]
pub fn ac_events(scanned: &[i16; BLOCK * BLOCK]) -> AcEvents<'_> {
    let mut nonzero = 0u64;
    for (i, &v) in scanned.iter().enumerate().skip(1) {
        nonzero |= u64::from(v != 0) << i;
    }
    AcEvents {
        scanned,
        nonzero,
        next: 1,
        eob: scanned[BLOCK * BLOCK - 1] == 0,
    }
}

/// Iterator over a block's AC run-length events; see [`ac_events`].
#[derive(Debug, Clone)]
pub struct AcEvents<'a> {
    scanned: &'a [i16; BLOCK * BLOCK],
    /// Bit `i` is set while `scanned[i]` is a nonzero AC level not yet
    /// emitted.
    nonzero: u64,
    /// Index of the first coefficient the next event covers.
    next: u32,
    /// Whether an EOB is still to come.
    eob: bool,
}

impl Iterator for AcEvents<'_> {
    type Item = RleEvent;

    #[inline]
    fn next(&mut self) -> Option<RleEvent> {
        if self.nonzero == 0 {
            return core::mem::take(&mut self.eob).then_some(RleEvent::EndOfBlock);
        }
        let at = self.nonzero.trailing_zeros();
        let run = at - self.next;
        if run >= 16 {
            self.next += 16;
            return Some(RleEvent::ZeroRunLength);
        }
        self.nonzero &= self.nonzero - 1;
        self.next = at + 1;
        Some(RleEvent::Run {
            run: run as u8,
            level: self.scanned[at as usize],
        })
    }
}

/// Encodes the 63 AC coefficients of a scanned block (`scanned[1..]`) into
/// run-length events: the straightforward zero-counting walk
/// [`ac_events`] is pinned to.
///
/// # Panics
///
/// Panics if `scanned.len() != 64`.
#[must_use]
pub fn encode_ac(scanned: &[i16]) -> Vec<RleEvent> {
    assert_eq!(
        scanned.len(),
        BLOCK * BLOCK,
        "expected an 8x8 scanned block"
    );
    let ac = &scanned[1..];
    let mut events = Vec::new();
    let mut run = 0u8;
    let last_nonzero = ac.iter().rposition(|&v| v != 0);
    let Some(last) = last_nonzero else {
        events.push(RleEvent::EndOfBlock);
        return events;
    };
    for &v in &ac[..=last] {
        if v == 0 {
            run += 1;
            if run == 16 {
                events.push(RleEvent::ZeroRunLength);
                run = 0;
            }
        } else {
            events.push(RleEvent::Run { run, level: v });
            run = 0;
        }
    }
    if last < ac.len() - 1 {
        events.push(RleEvent::EndOfBlock);
    }
    events
}

/// Decodes run-length events back into the 63 AC coefficients, returning a
/// full 64-slot scanned block with DC left as 0.
///
/// # Errors
///
/// Returns [`RleError`] on malformed event streams.
pub fn decode_ac(events: &[RleEvent]) -> Result<[i16; BLOCK * BLOCK], RleError> {
    let mut out = [0i16; BLOCK * BLOCK];
    let mut pos = 1usize; // AC coefficients start at index 1
    for ev in events {
        match *ev {
            RleEvent::Run { run, level } => {
                if level == 0 {
                    return Err(RleError::ZeroLevel);
                }
                pos += run as usize;
                if pos >= BLOCK * BLOCK {
                    return Err(RleError::Overflow);
                }
                out[pos] = level;
                pos += 1;
            }
            RleEvent::ZeroRunLength => {
                pos += 16;
                if pos > BLOCK * BLOCK {
                    return Err(RleError::Overflow);
                }
            }
            RleEvent::EndOfBlock => break,
        }
    }
    Ok(out)
}

/// Maps an event to its Huffman symbol: `(run << 4) | size` for runs,
/// `0x00` for EOB, `0xF0` for ZRL — the JPEG AC symbol space.
#[must_use]
pub fn event_symbol(ev: &RleEvent) -> u16 {
    match *ev {
        RleEvent::EndOfBlock => 0x00,
        RleEvent::ZeroRunLength => 0xF0,
        RleEvent::Run { run, level } => ((run as u16) << 4) | size_category(level as i32) as u16,
    }
}

/// The amplitude bits `(value, size)` an event contributes after its
/// symbol, or `None` for EOB/ZRL.
#[must_use]
pub fn event_amplitude(ev: &RleEvent) -> Option<(i32, u32)> {
    match *ev {
        RleEvent::Run { level, .. } => Some((level as i32, size_category(level as i32))),
        _ => None,
    }
}

/// Reconstructs an event from its symbol and decoded amplitude.
///
/// `amplitude` is ignored for EOB/ZRL symbols.
#[must_use]
pub fn event_from_symbol(symbol: u16, amplitude: i32) -> RleEvent {
    match symbol {
        0x00 => RleEvent::EndOfBlock,
        0xF0 => RleEvent::ZeroRunLength,
        s => RleEvent::Run {
            run: ((s >> 4) & 0x0F) as u8,
            level: amplitude as i16,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use signal::rng::Xoroshiro128;

    #[test]
    fn all_zero_block_is_just_eob() {
        let block = [0i16; 64];
        let ev = encode_ac(&block);
        assert_eq!(ev, vec![RleEvent::EndOfBlock]);
        let back = decode_ac(&ev).unwrap();
        assert_eq!(back, block);
    }

    #[test]
    fn round_trip_random_sparse_blocks() {
        let mut rng = Xoroshiro128::new(31);
        for _ in 0..200 {
            let mut block = [0i16; 64];
            for slot in block.iter_mut().skip(1) {
                if rng.chance(0.15) {
                    let mut v = rng.range_i64(-255, 255) as i16;
                    if v == 0 {
                        v = 1;
                    }
                    *slot = v;
                }
            }
            let ev = encode_ac(&block);
            let mut back = decode_ac(&ev).unwrap();
            back[0] = block[0]; // DC handled elsewhere
            assert_eq!(back, block);
        }
    }

    #[test]
    fn long_zero_runs_use_zrl() {
        let mut block = [0i16; 64];
        block[40] = 5; // 39 zeros before it: 2 ZRL + run 7
        let ev = encode_ac(&block);
        let zrls = ev.iter().filter(|e| **e == RleEvent::ZeroRunLength).count();
        assert_eq!(zrls, 2);
        assert!(matches!(ev[2], RleEvent::Run { run: 7, level: 5 }));
        assert_eq!(decode_ac(&ev).unwrap()[40], 5);
    }

    #[test]
    fn trailing_nonzero_needs_no_eob() {
        let mut block = [0i16; 64];
        block[63] = -9;
        let ev = encode_ac(&block);
        assert!(!ev.contains(&RleEvent::EndOfBlock));
        assert_eq!(decode_ac(&ev).unwrap()[63], -9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The allocation-free event iterator yields exactly
        /// `encode_ac`'s events, from empty blocks through long zero runs
        /// (and a level in the last slot) to dense ones.
        #[test]
        fn event_iterator_equals_encode_ac(seed in any::<u64>(), density in 0.0f64..1.0, last in any::<bool>()) {
            let mut rng = Xoroshiro128::new(seed);
            let mut block = [0i16; 64];
            for v in &mut block {
                if rng.chance(density * density) {
                    *v = rng.range_i64(-2047, 2047) as i16;
                }
            }
            if last {
                block[63] = 1;
            }
            let events: Vec<RleEvent> = ac_events(&block).collect();
            prop_assert_eq!(events, encode_ac(&block));
        }
    }

    #[test]
    fn overflow_detected() {
        let ev = vec![
            RleEvent::ZeroRunLength,
            RleEvent::ZeroRunLength,
            RleEvent::ZeroRunLength,
            RleEvent::ZeroRunLength,
            RleEvent::Run { run: 0, level: 1 },
        ];
        assert_eq!(decode_ac(&ev).unwrap_err(), RleError::Overflow);
    }

    #[test]
    fn zero_level_rejected() {
        let ev = vec![RleEvent::Run { run: 0, level: 0 }];
        assert_eq!(decode_ac(&ev).unwrap_err(), RleError::ZeroLevel);
    }

    #[test]
    fn symbol_mapping_round_trip() {
        for ev in [
            RleEvent::EndOfBlock,
            RleEvent::ZeroRunLength,
            RleEvent::Run { run: 3, level: -17 },
            RleEvent::Run { run: 15, level: 1 },
        ] {
            let sym = event_symbol(&ev);
            let amp = event_amplitude(&ev).map(|(v, _)| v).unwrap_or(0);
            assert_eq!(event_from_symbol(sym, amp), ev);
        }
    }

    #[test]
    fn symbols_stay_in_byte_range() {
        let ev = RleEvent::Run {
            run: 15,
            level: 2047,
        };
        let sym = event_symbol(&ev);
        assert!(sym <= 0xFF, "symbol {sym:#x} exceeds the byte alphabet");
    }
}
