//! Transport mux/demux: fixed-188-byte TS-style packets.
//!
//! Wolf §7 frames consumer MPSoCs as networked media devices; the wire
//! format between the encoder and a viewer is this module. It is
//! *TS-shaped*, not ISO 13818-1 conformant (DESIGN.md §5 spirit): the
//! fixed 188-byte packet, 13-bit PIDs, a payload-unit-start flag, and a
//! 4-bit continuity counter are kept, while the adaptation-field zoo is
//! replaced by an explicit payload length, stuffing bytes, and a CRC-32
//! over header+payload so corruption is detectable per packet.
//!
//! Units (access units / elementary-stream chunks) are carried as a
//! 4-byte big-endian length followed by the unit bytes, starting in a
//! packet whose PUSI flag is set. The demux reassembles units per PID,
//! verifies CRCs, and detects continuity gaps — a gap or CRC failure
//! discards the damaged unit (concealment happens a layer up, in the
//! session's playout logic).
//!
//! The per-packet CRC-32 is the demux's inner loop, so [`crc32`] uses
//! slicing-by-8 (Kounavis & Berry, "A Systematic Approach to Building
//! High Performance Software-based CRC Generators", ISCC 2005): eight
//! 256-entry tables fold one 64-bit word per step instead of one byte,
//! and the last `len % 8` bytes take the classic byte-wise loop.
//! [`crc32_bytewise`] is that byte-wise loop over the whole input, kept
//! as the oracle.

use std::collections::BTreeMap;

/// Every packet is exactly this long.
pub const TS_PACKET_LEN: usize = 188;
/// First byte of every packet.
pub const TS_SYNC: u8 = 0x47;
/// Header bytes: sync(1) + pusi/pid(2) + cc(1) + len(1) + crc32(4).
pub const TS_HEADER_LEN: usize = 9;
/// Payload bytes a packet can carry.
pub const TS_PAYLOAD_MAX: usize = TS_PACKET_LEN - TS_HEADER_LEN;
/// Highest valid PID (13 bits).
pub const PID_MAX: u16 = 0x1FFF;
/// The null/stuffing PID (like ISO 13818-1's 0x1FFF): packets on this
/// PID pad the stream to constant bitrate and carry no payload units.
/// Their continuity counters are meaningless and the demux ignores them
/// entirely — dropping or reordering stuffing never reports a gap.
pub const STUFFING_PID: u16 = PID_MAX;

/// PID carrying the per-segment frame index unit.
pub const META_PID: u16 = 0x0020;
/// PID carrying the video elementary stream.
pub const VIDEO_PID: u16 = 0x0100;
/// PID carrying the audio elementary stream.
pub const AUDIO_PID: u16 = 0x0101;

/// One wire packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsPacket {
    /// The 188 wire bytes.
    pub bytes: [u8; TS_PACKET_LEN],
}

impl TsPacket {
    /// The packet's PID.
    #[must_use]
    pub fn pid(&self) -> u16 {
        (u16::from(self.bytes[1] & 0x1F) << 8) | u16::from(self.bytes[2])
    }

    /// Whether this packet starts a payload unit.
    #[must_use]
    pub fn pusi(&self) -> bool {
        self.bytes[1] & 0x80 != 0
    }

    /// The packet's continuity counter.
    #[must_use]
    pub fn continuity(&self) -> u8 {
        self.bytes[3] >> 4
    }
}

const CRC_POLY: u32 = 0xEDB8_8320; // reflected IEEE 802.3

/// The slicing-by-8 tables (Kounavis & Berry, ISCC 2005). `T[0]` is the
/// classic byte table; `T[k][b]` is the CRC contribution of byte `b`
/// followed by `k` zero bytes, so eight lookups, one per byte of a
/// 64-bit word, advance the CRC by eight bytes at once.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE) of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// [`crc32`] one table lookup per byte: the oracle the slicing-by-8
/// path must equal, public so benchmarks can time the two side by side.
#[must_use]
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    !crc32_update_bytewise(!0, data)
}

/// Advances a (pre-inverted) CRC over `data`: eight bytes per step with
/// slicing-by-8, then the byte-wise tail.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    crc32_update_bytewise(crc, words.remainder())
}

fn crc32_update_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The packetizer: tracks one continuity counter per PID.
#[derive(Debug, Clone, Default)]
pub struct TsMux {
    counters: BTreeMap<u16, u8>,
    packets_emitted: u64,
}

impl TsMux {
    /// A fresh mux with all counters at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Packets emitted so far.
    #[must_use]
    pub fn packets_emitted(&self) -> u64 {
        self.packets_emitted
    }

    /// Starts `pid`'s continuity counter at an arbitrary value — a mux
    /// joining a stream mid-flight (splice, failover) does not begin at
    /// zero. The demux must accept any initial counter without reporting
    /// a gap.
    ///
    /// # Panics
    ///
    /// Panics if `pid` exceeds 13 bits or `cc` exceeds 4 bits.
    pub fn set_continuity(&mut self, pid: u16, cc: u8) {
        assert!(pid <= PID_MAX, "pid {pid:#x} exceeds 13 bits");
        assert!(cc <= 0x0F, "continuity counter {cc} exceeds 4 bits");
        self.counters.insert(pid, cc);
    }

    /// Emits one null packet on [`STUFFING_PID`]: constant-bitrate
    /// padding carrying no payload. Stuffing does not advance any
    /// continuity counter, so inserting or dropping it anywhere in a
    /// stream is invisible to gap detection.
    pub fn stuffing_packet(&mut self) -> TsPacket {
        let mut bytes = [0xFFu8; TS_PACKET_LEN];
        bytes[0] = TS_SYNC;
        bytes[1] = (STUFFING_PID >> 8) as u8 & 0x1F;
        bytes[2] = (STUFFING_PID & 0xFF) as u8;
        bytes[3] = 0;
        bytes[4] = 0;
        let crc = !crc32_update(!0, &bytes[1..5]);
        bytes[5..9].copy_from_slice(&crc.to_be_bytes());
        self.packets_emitted += 1;
        TsPacket { bytes }
    }

    /// Packetizes one unit onto `pid`, appending to `out`. The first
    /// packet has PUSI set and its payload begins with the 4-byte
    /// big-endian unit length.
    ///
    /// # Panics
    ///
    /// Panics if `pid` exceeds 13 bits, `pid` is the stuffing PID, or
    /// `unit` is empty.
    pub fn packetize_into(&mut self, pid: u16, unit: &[u8], out: &mut Vec<TsPacket>) {
        assert!(pid <= PID_MAX, "pid {pid:#x} exceeds 13 bits");
        assert!(pid != STUFFING_PID, "the stuffing pid carries no units");
        assert!(!unit.is_empty(), "cannot packetize an empty unit");
        let mut framed = Vec::with_capacity(4 + unit.len());
        framed.extend_from_slice(&(unit.len() as u32).to_be_bytes());
        framed.extend_from_slice(unit);
        let counter = self.counters.entry(pid).or_insert(0);
        let mut first = true;
        for chunk in framed.chunks(TS_PAYLOAD_MAX) {
            let mut bytes = [0xFFu8; TS_PACKET_LEN];
            bytes[0] = TS_SYNC;
            bytes[1] = (u8::from(first) << 7) | ((pid >> 8) as u8 & 0x1F);
            bytes[2] = (pid & 0xFF) as u8;
            bytes[3] = *counter << 4;
            bytes[4] = chunk.len() as u8;
            bytes[TS_HEADER_LEN..TS_HEADER_LEN + chunk.len()].copy_from_slice(chunk);
            let crc = !crc32_update(crc32_update(!0, &bytes[1..5]), chunk);
            bytes[5..9].copy_from_slice(&crc.to_be_bytes());
            out.push(TsPacket { bytes });
            *counter = (*counter + 1) & 0x0F;
            self.packets_emitted += 1;
            first = false;
        }
    }

    /// Convenience wrapper around [`TsMux::packetize_into`].
    #[must_use]
    pub fn packetize(&mut self, pid: u16, unit: &[u8]) -> Vec<TsPacket> {
        let mut out = Vec::with_capacity(unit.len() / TS_PAYLOAD_MAX + 1);
        self.packetize_into(pid, unit, &mut out);
        out
    }
}

/// Flattens packets to wire bytes.
#[must_use]
pub fn to_wire(packets: &[TsPacket]) -> Vec<u8> {
    let mut out = Vec::with_capacity(packets.len() * TS_PACKET_LEN);
    for p in packets {
        out.extend_from_slice(&p.bytes);
    }
    out
}

/// A unit being reassembled on one PID.
#[derive(Debug, Clone)]
struct Pending {
    need: usize,
    data: Vec<u8>,
}

/// Per-PID demux state.
#[derive(Debug, Clone, Default)]
struct PidState {
    expected_cc: Option<u8>,
    pending: Option<Pending>,
}

/// What the demux recovered and what it noticed going wrong.
#[derive(Debug, Clone, Default)]
pub struct DemuxReport {
    /// Completed units per PID, in arrival order.
    pub units: BTreeMap<u16, Vec<Vec<u8>>>,
    /// Packets examined (including bad ones).
    pub packets: u64,
    /// Packets rejected for CRC mismatch.
    pub crc_errors: u64,
    /// Packets rejected for bad sync/length framing.
    pub malformed: u64,
    /// Continuity-counter gaps observed (each counts once per gap, not
    /// per missing packet).
    pub continuity_gaps: u64,
    /// Units discarded because a gap, CRC failure, or truncation damaged
    /// them.
    pub damaged_units: u64,
    /// Continuation packets with no unit in progress (their PUSI packet
    /// was lost).
    pub stray_packets: u64,
    /// Null packets on [`STUFFING_PID`] (pure padding, skipped).
    pub stuffing_packets: u64,
}

impl DemuxReport {
    /// `true` when any form of loss or corruption was observed.
    #[must_use]
    pub fn loss_detected(&self) -> bool {
        self.crc_errors + self.malformed + self.continuity_gaps + self.damaged_units > 0
    }

    /// The units recovered on one PID.
    #[must_use]
    pub fn units_on(&self, pid: u16) -> &[Vec<u8>] {
        self.units.get(&pid).map_or(&[], Vec::as_slice)
    }
}

/// The depacketizer: verifies CRCs, tracks continuity per PID, and
/// reassembles units.
#[derive(Debug, Clone, Default)]
pub struct TsDemux {
    pids: BTreeMap<u16, PidState>,
    report: DemuxReport,
}

impl TsDemux {
    /// A fresh demux.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one wire packet.
    pub fn push(&mut self, wire: &[u8]) {
        self.report.packets += 1;
        if wire.len() != TS_PACKET_LEN || wire[0] != TS_SYNC {
            self.report.malformed += 1;
            return;
        }
        let pusi = wire[1] & 0x80 != 0;
        let pid = (u16::from(wire[1] & 0x1F) << 8) | u16::from(wire[2]);
        if pid == STUFFING_PID {
            // Pure padding: no payload, no continuity state. Counting it
            // as anything else would turn dropped or inserted stuffing
            // into false loss reports.
            self.report.stuffing_packets += 1;
            return;
        }
        let cc = wire[3] >> 4;
        let len = wire[4] as usize;
        if len == 0 || len > TS_PAYLOAD_MAX {
            self.report.malformed += 1;
            return;
        }
        let payload = &wire[TS_HEADER_LEN..TS_HEADER_LEN + len];
        let crc = u32::from_be_bytes([wire[5], wire[6], wire[7], wire[8]]);
        if !crc32_update(crc32_update(!0, &wire[1..5]), payload) != crc {
            // Corrupt packet: drop it. The continuity counter will flag
            // the hole on the next good packet of this PID.
            self.report.crc_errors += 1;
            return;
        }

        let state = self.pids.entry(pid).or_default();
        if let Some(expected) = state.expected_cc {
            if cc != expected {
                self.report.continuity_gaps += 1;
                if state.pending.take().is_some() {
                    self.report.damaged_units += 1;
                }
            }
        }
        state.expected_cc = Some((cc + 1) & 0x0F);

        if pusi {
            if state.pending.take().is_some() {
                // A new unit started before the previous completed: the
                // previous unit's tail was lost.
                self.report.damaged_units += 1;
            }
            if payload.len() < 4 {
                self.report.malformed += 1;
                return;
            }
            let need =
                u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]) as usize;
            state.pending = Some(Pending {
                need,
                data: Vec::with_capacity(need.min(1 << 20)),
            });
            Self::append(state, &payload[4..], &mut self.report, pid);
        } else if state.pending.is_some() {
            Self::append(state, payload, &mut self.report, pid);
        } else {
            self.report.stray_packets += 1;
        }
    }

    fn append(state: &mut PidState, bytes: &[u8], report: &mut DemuxReport, pid: u16) {
        let Some(p) = state.pending.as_mut() else {
            return;
        };
        p.data.extend_from_slice(bytes);
        if p.data.len() >= p.need {
            let pending = state.pending.take().expect("pending exists");
            let mut unit = pending.data;
            unit.truncate(pending.need);
            report.units.entry(pid).or_default().push(unit);
        }
    }

    /// Finishes the stream: any unit still in progress was truncated.
    #[must_use]
    pub fn finish(mut self) -> DemuxReport {
        for state in self.pids.values_mut() {
            if state.pending.take().is_some() {
                self.report.damaged_units += 1;
            }
        }
        self.report
    }
}

/// Demuxes a whole wire buffer (a multiple of 188 bytes; a trailing
/// partial packet counts as malformed).
#[must_use]
pub fn demux_wire(wire: &[u8]) -> DemuxReport {
    let mut d = TsDemux::new();
    let mut chunks = wire.chunks_exact(TS_PACKET_LEN);
    for packet in &mut chunks {
        d.push(packet);
    }
    let mut report = d.finish();
    if !chunks.remainder().is_empty() {
        report.malformed += 1;
        report.packets += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal::rng::Xoroshiro128;

    fn payload(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Xoroshiro128::new(seed);
        (0..len).map(|_| rng.next_u32() as u8).collect()
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_crc() {
        // Every length 0..=600 at every start offset mod 8 (so the
        // eight-byte words straddle the buffer's alignment differently),
        // both whole and as the demux's chained header + payload form.
        let buf = payload(608, 29);
        for offset in 0..8 {
            for len in 0..=600 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "offset {offset} len {len}"
                );
                let split = len.min(4);
                let (header, body) = data.split_at(split);
                assert_eq!(
                    crc32_update(crc32_update(!0, header), body),
                    crc32_update_bytewise(!0, data),
                    "chained at offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_unit_round_trips() {
        let unit = payload(1000, 1);
        let mut mux = TsMux::new();
        let packets = mux.packetize(VIDEO_PID, &unit);
        assert!(packets.iter().all(|p| p.bytes.len() == TS_PACKET_LEN));
        assert!(packets[0].pusi());
        assert!(packets[1..].iter().all(|p| !p.pusi()));
        assert!(packets.iter().all(|p| p.pid() == VIDEO_PID));
        let report = demux_wire(&to_wire(&packets));
        assert!(!report.loss_detected());
        assert_eq!(report.units_on(VIDEO_PID), &[unit]);
    }

    #[test]
    fn continuity_counters_increment_mod_16() {
        let mut mux = TsMux::new();
        let packets = mux.packetize(VIDEO_PID, &payload(5000, 2));
        for (i, p) in packets.iter().enumerate() {
            assert_eq!(p.continuity(), (i % 16) as u8);
        }
    }

    #[test]
    fn multiple_units_and_pids_round_trip() {
        let mut mux = TsMux::new();
        let v0 = payload(700, 3);
        let v1 = payload(35, 4);
        let a0 = payload(250, 5);
        let mut packets = mux.packetize(VIDEO_PID, &v0);
        packets.extend(mux.packetize(AUDIO_PID, &a0));
        packets.extend(mux.packetize(VIDEO_PID, &v1));
        let report = demux_wire(&to_wire(&packets));
        assert!(!report.loss_detected());
        assert_eq!(report.units_on(VIDEO_PID), &[v0, v1]);
        assert_eq!(report.units_on(AUDIO_PID), &[a0]);
    }

    #[test]
    fn unit_smaller_than_one_packet() {
        let mut mux = TsMux::new();
        let unit = vec![0xABu8; 3];
        let packets = mux.packetize(META_PID, &unit);
        assert_eq!(packets.len(), 1);
        let report = demux_wire(&to_wire(&packets));
        assert_eq!(report.units_on(META_PID), &[unit]);
    }

    #[test]
    fn dropped_packet_is_detected_and_unit_discarded() {
        let mut mux = TsMux::new();
        let unit = payload(2000, 6);
        let mut packets = mux.packetize(VIDEO_PID, &unit);
        packets.remove(packets.len() / 2);
        let report = demux_wire(&to_wire(&packets));
        assert_eq!(report.continuity_gaps, 1);
        assert_eq!(report.damaged_units, 1);
        assert!(report.units_on(VIDEO_PID).is_empty());
        assert!(report.loss_detected());
    }

    #[test]
    fn dropped_final_packet_flags_truncated_unit() {
        let mut mux = TsMux::new();
        let mut packets = mux.packetize(VIDEO_PID, &payload(2000, 7));
        packets.pop();
        let report = demux_wire(&to_wire(&packets));
        // No later packet exists to expose the counter gap, but the
        // truncated unit is still flagged at end of stream.
        assert_eq!(report.damaged_units, 1);
        assert!(report.units_on(VIDEO_PID).is_empty());
    }

    #[test]
    fn dropped_pusi_leaves_stray_continuations() {
        let mut mux = TsMux::new();
        let mut packets = mux.packetize(VIDEO_PID, &payload(2000, 8));
        packets.remove(0);
        let report = demux_wire(&to_wire(&packets));
        assert!(report.stray_packets > 0);
        assert!(report.units_on(VIDEO_PID).is_empty());
    }

    #[test]
    fn corrupted_byte_fails_crc() {
        let mut mux = TsMux::new();
        let packets = mux.packetize(VIDEO_PID, &payload(500, 9));
        let mut wire = to_wire(&packets);
        wire[TS_HEADER_LEN + 4] ^= 0x01; // flip one payload bit
        let report = demux_wire(&wire);
        assert_eq!(report.crc_errors, 1);
        assert!(report.loss_detected());
    }

    #[test]
    fn loss_after_complete_unit_damages_nothing_already_delivered() {
        let mut mux = TsMux::new();
        let u0 = payload(300, 10);
        let u1 = payload(300, 11);
        let mut packets = mux.packetize(VIDEO_PID, &u0);
        let second = mux.packetize(VIDEO_PID, &u1);
        packets.extend_from_slice(&second[1..]); // drop u1's PUSI packet
        let report = demux_wire(&to_wire(&packets));
        assert_eq!(report.units_on(VIDEO_PID), &[u0]);
        assert!(report.loss_detected() || report.stray_packets > 0);
    }

    #[test]
    fn stuffing_is_invisible_to_gap_detection() {
        let mut mux = TsMux::new();
        let unit = payload(1500, 12);
        let data = mux.packetize(VIDEO_PID, &unit);
        // Interleave a null packet after every data packet.
        let mut packets = Vec::new();
        for p in &data {
            packets.push(*p);
            packets.push(mux.stuffing_packet());
        }
        let report = demux_wire(&to_wire(&packets));
        assert!(!report.loss_detected());
        assert_eq!(report.stuffing_packets, data.len() as u64);
        assert_eq!(report.units_on(VIDEO_PID), std::slice::from_ref(&unit));
        // Dropping every other stuffing packet is equally invisible.
        let thinned: Vec<TsPacket> = packets
            .iter()
            .enumerate()
            .filter(|(i, p)| p.pid() != STUFFING_PID || i % 4 == 1)
            .map(|(_, p)| *p)
            .collect();
        let report = demux_wire(&to_wire(&thinned));
        assert!(!report.loss_detected());
        assert_eq!(report.units_on(VIDEO_PID), &[unit]);
    }

    #[test]
    fn arbitrary_initial_continuity_is_not_a_gap() {
        for start in [1u8, 7, 15] {
            let mut mux = TsMux::new();
            mux.set_continuity(VIDEO_PID, start);
            let unit = payload(900, u64::from(start));
            let packets = mux.packetize(VIDEO_PID, &unit);
            assert_eq!(packets[0].continuity(), start);
            let report = demux_wire(&to_wire(&packets));
            assert!(
                !report.loss_detected(),
                "initial counter {start} must not look like a gap"
            );
            assert_eq!(report.units_on(VIDEO_PID), &[unit]);
        }
    }

    #[test]
    #[should_panic(expected = "carries no units")]
    fn stuffing_pid_rejected_for_units() {
        let _ = TsMux::new().packetize(STUFFING_PID, &[1]);
    }

    #[test]
    #[should_panic(expected = "empty unit")]
    fn empty_unit_rejected() {
        let _ = TsMux::new().packetize(VIDEO_PID, &[]);
    }

    #[test]
    #[should_panic(expected = "exceeds 13 bits")]
    fn oversized_pid_rejected() {
        let _ = TsMux::new().packetize(0x2000, &[1]);
    }
}
