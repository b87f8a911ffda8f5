//! Segment assembly: one GOP-aligned media segment as a transport stream.
//!
//! A segment carries up to three units: a frame index on [`META_PID`]
//! (built from the encoder's per-frame kind/offset metadata — see
//! [`EncodedSequence::frame_bit_spans`]), the video elementary stream on
//! [`VIDEO_PID`], and optionally an audio elementary stream on
//! [`AUDIO_PID`]. Video and audio packets are interleaved proportionally
//! so neither stream starves a small receive buffer.

use video::encoder::{EncodedSequence, FrameKind};

use crate::ts::{
    demux_wire, to_wire, DemuxReport, TsMux, TsPacket, AUDIO_PID, META_PID, VIDEO_PID,
};

/// One frame's entry in the segment index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameIndexEntry {
    /// `true` for an intra (I) frame.
    pub intra: bool,
    /// Exact payload bits of the frame in the elementary stream.
    pub bits: u32,
}

/// Builds the index from an encoded sequence's frame metadata.
#[must_use]
pub fn frame_index(seq: &EncodedSequence) -> Vec<FrameIndexEntry> {
    seq.frames
        .iter()
        .map(|f| FrameIndexEntry {
            intra: f.kind == FrameKind::Intra,
            bits: f.bits as u32,
        })
        .collect()
}

fn index_unit(index: &[FrameIndexEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + index.len() * 5);
    out.extend_from_slice(&(index.len() as u16).to_be_bytes());
    for e in index {
        out.push(u8::from(e.intra));
        out.extend_from_slice(&e.bits.to_be_bytes());
    }
    out
}

fn parse_index_unit(unit: &[u8]) -> Option<Vec<FrameIndexEntry>> {
    if unit.len() < 2 {
        return None;
    }
    let n = u16::from_be_bytes([unit[0], unit[1]]) as usize;
    if unit.len() != 2 + n * 5 {
        return None;
    }
    Some(
        unit[2..]
            .chunks_exact(5)
            .map(|c| FrameIndexEntry {
                intra: c[0] != 0,
                bits: u32::from_be_bytes([c[1], c[2], c[3], c[4]]),
            })
            .collect(),
    )
}

/// Muxes one segment: index unit first, then video and audio packets
/// interleaved proportionally.
///
/// # Panics
///
/// Panics if the sequence has no frames (an empty segment has no
/// meaning on the wire).
#[must_use]
pub fn mux_segment(seq: &EncodedSequence, audio_es: Option<&[u8]>) -> Vec<TsPacket> {
    assert!(!seq.frames.is_empty(), "cannot mux an empty segment");
    let mut mux = TsMux::new();
    let mut out = mux.packetize(META_PID, &index_unit(&frame_index(seq)));
    let video = mux.packetize(VIDEO_PID, &seq.bytes);
    match audio_es {
        None => out.extend(video),
        Some(audio) => {
            let audio = mux.packetize(AUDIO_PID, audio);
            // Proportional interleave: after every `ratio` video packets,
            // one audio packet, preserving per-PID order.
            let ratio = (video.len() / audio.len().max(1)).max(1);
            let mut a = audio.into_iter();
            for (i, v) in video.into_iter().enumerate() {
                out.push(v);
                if (i + 1) % ratio == 0 {
                    out.extend(a.next());
                }
            }
            out.extend(a);
        }
    }
    out
}

/// Muxes a segment straight to wire bytes.
#[must_use]
pub fn mux_segment_wire(seq: &EncodedSequence, audio_es: Option<&[u8]>) -> Vec<u8> {
    to_wire(&mux_segment(seq, audio_es))
}

/// A demuxed segment. Missing fields mean the corresponding unit was
/// lost or damaged in transit; the [`DemuxReport`] says why.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The frame index, if its unit survived.
    pub index: Option<Vec<FrameIndexEntry>>,
    /// The video elementary stream, if it survived.
    pub video_es: Option<Vec<u8>>,
    /// The audio elementary stream, if present and surviving.
    pub audio_es: Option<Vec<u8>>,
    /// Transport-level statistics. The first unit on each of
    /// [`META_PID`], [`VIDEO_PID`] and [`AUDIO_PID`] has been moved out
    /// of `report.units` into the fields above; any later units on those
    /// PIDs, and every unit on other PIDs, stay there.
    pub report: DemuxReport,
}

impl Segment {
    /// Frames promised by the index (0 when the index was lost).
    #[must_use]
    pub fn indexed_frames(&self) -> usize {
        self.index.as_ref().map_or(0, Vec::len)
    }
}

/// Demuxes one segment from wire bytes.
#[must_use]
pub fn demux_segment(wire: &[u8]) -> Segment {
    let mut report = demux_wire(wire);
    let mut first = |pid: u16| {
        let units = report.units.get_mut(&pid).filter(|u| !u.is_empty())?;
        Some(units.remove(0))
    };
    let index = first(META_PID).and_then(|u| parse_index_unit(&u));
    let video_es = first(VIDEO_PID);
    let audio_es = first(AUDIO_PID);
    Segment {
        index,
        video_es,
        audio_es,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use video::encoder::{Encoder, EncoderConfig};
    use video::synth::SequenceGen;

    fn encoded(n: usize) -> EncodedSequence {
        let frames = SequenceGen::new(21).panning_sequence(48, 32, n, 1, 0);
        Encoder::new(EncoderConfig {
            gop: 4,
            ..Default::default()
        })
        .unwrap()
        .encode(&frames)
        .unwrap()
    }

    #[test]
    fn av_segment_round_trips_bit_identically() {
        let seq = encoded(6);
        let audio: Vec<u8> = (0..900).map(|i| (i * 7) as u8).collect();
        let wire = mux_segment_wire(&seq, Some(&audio));
        let seg = demux_segment(&wire);
        assert!(!seg.report.loss_detected());
        assert_eq!(seg.video_es.as_deref(), Some(seq.bytes.as_slice()));
        assert_eq!(seg.audio_es.as_deref(), Some(audio.as_slice()));
        let index = seg.index.unwrap();
        assert_eq!(index.len(), 6);
        assert!(index[0].intra && index[4].intra);
        assert!(!index[1].intra);
        for (e, f) in index.iter().zip(&seq.frames) {
            assert_eq!(e.bits as usize, f.bits);
        }
    }

    #[test]
    fn video_only_segment_round_trips() {
        let seq = encoded(4);
        let seg = demux_segment(&mux_segment_wire(&seq, None));
        assert!(!seg.report.loss_detected());
        assert_eq!(seg.video_es.as_deref(), Some(seq.bytes.as_slice()));
        assert!(seg.audio_es.is_none());
        assert_eq!(seg.indexed_frames(), 4);
    }

    #[test]
    fn decoded_segment_plays() {
        let seq = encoded(4);
        let seg = demux_segment(&mux_segment_wire(&seq, None));
        let dec = video::decode(&seg.video_es.unwrap()).unwrap();
        assert_eq!(dec.frames.len(), 4);
    }

    #[test]
    fn fields_equal_the_first_unit_per_pid_of_demux_wire() {
        // Whole, damaged and doubled-up segments: each field is exactly
        // `demux_wire`'s first unit on its PID, and the report keeps the
        // rest.
        let seq = encoded(6);
        let audio: Vec<u8> = (0..700).map(|i| (i * 13) as u8).collect();
        let whole = mux_segment(&seq, Some(&audio));
        let mut damaged = whole.clone();
        damaged.remove(3);
        let mut doubled = to_wire(&whole);
        let last_cc = whole
            .iter()
            .rev()
            .find(|p| p.pid() == VIDEO_PID)
            .unwrap()
            .continuity();
        let mut mux = TsMux::new();
        mux.set_continuity(VIDEO_PID, (last_cc + 1) & 0x0F);
        let extra = mux.packetize(VIDEO_PID, b"second video unit");
        doubled.extend(to_wire(&extra));
        assert_eq!(demux_wire(&doubled).units_on(VIDEO_PID).len(), 2);
        for wire in [to_wire(&whole), to_wire(&damaged), doubled, Vec::new()] {
            let want = demux_wire(&wire);
            let seg = demux_segment(&wire);
            let first = |pid: u16| want.units_on(pid).first().cloned();
            assert_eq!(
                seg.index,
                first(META_PID).and_then(|u| parse_index_unit(&u))
            );
            assert_eq!(seg.video_es, first(VIDEO_PID));
            assert_eq!(seg.audio_es, first(AUDIO_PID));
            for pid in [META_PID, VIDEO_PID, AUDIO_PID] {
                assert_eq!(
                    seg.report.units_on(pid),
                    want.units_on(pid).get(1..).unwrap_or(&[])
                );
            }
            assert_eq!(seg.report.packets, want.packets);
            assert_eq!(seg.report.loss_detected(), want.loss_detected());
        }
    }

    #[test]
    fn lost_video_packet_keeps_index_and_audio() {
        let seq = encoded(6);
        let audio = vec![9u8; 400];
        let mut packets = mux_segment(&seq, Some(&audio));
        let vid_pos = packets
            .iter()
            .position(|p| p.pid() == VIDEO_PID && !p.pusi())
            .unwrap();
        packets.remove(vid_pos);
        let seg = demux_segment(&to_wire(&packets));
        assert!(seg.report.loss_detected());
        assert!(seg.video_es.is_none(), "damaged video unit must be dropped");
        assert_eq!(seg.audio_es.as_deref(), Some(audio.as_slice()));
        assert_eq!(seg.indexed_frames(), 6);
    }
}
