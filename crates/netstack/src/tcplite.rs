//! TCP-lite: a reliable stream over the lossy link.
//!
//! Sequence-numbered segments, cumulative ACKs, timeout retransmission,
//! and — since PR 10 — real congestion control: the machinery that turns
//! the lossy link into the reliable channel content download and DRM
//! transactions (§7) require, with a window honest enough to benchmark
//! ABR controllers against. Three sender modes
//! ([`CongestionControl`]):
//!
//! - `Fixed(w)` — the original fixed window, **bit-identical** to the
//!   pre-congestion-control engine (equality-pinned against an in-tree
//!   oracle copy);
//! - `Aimd` — Reno-style slow start / congestion avoidance /
//!   multiplicative decrease with fast retransmit on triple duplicate
//!   ACKs;
//! - `Cubic` — CUBIC-flavored window growth (β = 0.7, cubic recovery
//!   toward the pre-loss window).
//!
//! Adaptive modes estimate the RTO from SRTT/RTTVAR (RFC 6298 flavor)
//! under Karn's rule — no samples from retransmitted segments, samples
//! measured from transmit-complete (not offer) time — with exponential
//! backoff per retransmission. The retransmission timer itself starts at
//! the tick a frame finishes serializing ([`Link::send`]'s return
//! value): stamping at offer time made the tail of a window burst time
//! out while still queued behind `tx_free_at`, spawning spurious
//! retransmits that re-queued and compounded (the PR 10 storm bugfix).
//! Deliberately still not TCP-conformant: no handshake, no SACK.
//!
//! **Event stepping.** The engine's clock is a tick, and one loop
//! iteration is one tick: the sender takes that tick's ACKs, fast- or
//! RTO-retransmits and fills its window, the clock advances, and the
//! receiver takes the data segments that arrived. Most ticks do none of
//! this (a segment in flight for a few hundred ticks is a few hundred
//! idle iterations), so after each iteration [`transfer_over`] jumps the
//! clock straight to the earliest tick that can do work:
//!
//! - the next ACK arrival ([`Link::next_arrival`] on the ACK link);
//! - one tick before the next data arrival (the receiver runs after the
//!   clock advances);
//! - the earliest RTO due time of a segment in the window;
//! - `deadline_ticks + 1`, where the transfer times out.
//!
//! The jump is exact, not an approximation. Between arrivals nothing the
//! skipped ticks would read can change: loss draws, [`LinkTrace`] phases
//! and the loss-reaction window (`loss_reaction_due`) are sampled only
//! when a frame is sent, and cwnd, SRTT/RTTVAR and the duplicate-ACK
//! count change only when an ACK arrives. A fast retransmit needs a
//! third duplicate ACK, so it fires only on an arrival tick. The window
//! can only shrink without an ACK, so the RTO minimum over this tick's
//! window bounds the next one. Every skipped tick would therefore have
//! run an iteration that receives, sends and changes nothing. A
//! test-only copy of the tick-by-tick loop pins the whole
//! [`TransferReport`], the error, and both links' counters against
//! this engine across every CC mode, both loss models, traces, bounded
//! queues and deadline expiry.

use crate::link::{Link, LinkConfig, LinkTrace};
use crate::packet::{Addr, Packet, Protocol};

/// Sender window policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CongestionControl {
    /// A fixed window of this many segments — the pre-PR-10 transport,
    /// pinned bit-identical to the original engine.
    Fixed(usize),
    /// Reno-style AIMD: slow start to `ssthresh`, additive increase
    /// past it, halve on loss, window capped at `max_window` segments.
    Aimd {
        /// Hard cap on the congestion window, in segments.
        max_window: usize,
    },
    /// CUBIC-flavored growth: concave recovery toward the pre-loss
    /// window `w_max`, then convex probing beyond it.
    Cubic {
        /// Hard cap on the congestion window, in segments.
        max_window: usize,
    },
}

impl CongestionControl {
    /// Reno-style AIMD with the default 256-segment cap.
    #[must_use]
    pub fn aimd() -> Self {
        Self::Aimd { max_window: 256 }
    }

    /// CUBIC-flavored growth with the default 256-segment cap.
    #[must_use]
    pub fn cubic() -> Self {
        Self::Cubic { max_window: 256 }
    }
}

impl Default for CongestionControl {
    /// The original fixed window of 8 segments.
    fn default() -> Self {
        Self::Fixed(8)
    }
}

/// Transport configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Segment payload size in bytes.
    pub mss: usize,
    /// Sender window policy (fixed window or congestion control).
    pub cc: CongestionControl,
    /// Retransmission timeout in ticks: the fixed RTO in
    /// [`CongestionControl::Fixed`] mode, the initial RTO (before any
    /// RTT sample) in the adaptive modes.
    pub rto_ticks: u64,
    /// Give up after this many ticks.
    pub deadline_ticks: u64,
    /// Give up on the connection once any single segment has been
    /// retransmitted this many times — a dead link fails after
    /// `max_retransmits * rto_ticks`-ish ticks instead of burning the
    /// whole deadline.
    pub max_retransmits: u32,
}

impl Default for TcpConfig {
    /// MSS 512, fixed window 8, RTO 200 ticks, deadline 2,000,000
    /// ticks, 32 retransmits per segment before declaring the
    /// connection dead.
    fn default() -> Self {
        Self {
            mss: 512,
            cc: CongestionControl::default(),
            rto_ticks: 200,
            deadline_ticks: 2_000_000,
            max_retransmits: 32,
        }
    }
}

/// Errors from a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// The deadline passed before every byte was acknowledged.
    Timeout,
    /// Empty input (nothing to transfer).
    Empty,
    /// One segment exhausted its retransmit budget
    /// ([`TcpConfig::max_retransmits`]): the peer (or the link) is
    /// dead, so the connection gives up long before the deadline.
    ConnectionTimedOut,
}

impl core::fmt::Display for TcpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            TcpError::Timeout => "transfer deadline exceeded",
            TcpError::Empty => "nothing to transfer",
            TcpError::ConnectionTimedOut => "connection timed out (retransmit budget exhausted)",
        })
    }
}

impl std::error::Error for TcpError {}

/// Statistics from a completed transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferReport {
    /// The received byte stream (equal to the input on success).
    pub data: Vec<u8>,
    /// Ticks from start to the final ACK.
    pub ticks: u64,
    /// Data segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmissions: u64,
    /// Retransmissions triggered by triple duplicate ACKs (adaptive
    /// modes only) rather than an RTO.
    pub fast_retransmits: u64,
    /// Arrived data segments rejected by the receive-path validator
    /// (non-mss-aligned `seq` or wrong payload length).
    pub malformed_segments: u64,
    /// Goodput in bytes per tick.
    pub goodput: f64,
}

/// Floor on the adaptive RTO, so a converged (low-variance) estimator
/// cannot collapse onto the RTT itself and fire spuriously on the first
/// tick of jitter.
const MIN_RTO: u64 = 16;
/// Cap on the exponential RTO backoff shift (2^6 = 64x).
const RTO_BACKOFF_MAX_SHIFT: u32 = 6;
/// CUBIC multiplicative-decrease factor.
const CUBIC_BETA: f64 = 0.7;
/// CUBIC growth constant.
const CUBIC_C: f64 = 0.4;

/// Congestion-window and RTT-estimator state.
struct CwndState {
    cc: CongestionControl,
    cwnd: f64,
    ssthresh: f64,
    /// CUBIC: window at the last loss event.
    w_max: f64,
    /// CUBIC: start of the current growth epoch.
    epoch_start: Option<u64>,
    srtt: Option<f64>,
    rttvar: f64,
    /// Last tick a loss reaction was applied — one multiplicative
    /// decrease per RTO-ish window, not one per retransmitted segment.
    last_loss_reaction: Option<u64>,
}

impl CwndState {
    fn new(cc: CongestionControl) -> Self {
        Self {
            cc,
            cwnd: 2.0,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            epoch_start: None,
            srtt: None,
            rttvar: 0.0,
            last_loss_reaction: None,
        }
    }

    fn adaptive(&self) -> bool {
        !matches!(self.cc, CongestionControl::Fixed(_))
    }

    fn max_window(&self) -> usize {
        match self.cc {
            CongestionControl::Fixed(w) => w,
            CongestionControl::Aimd { max_window } | CongestionControl::Cubic { max_window } => {
                max_window.max(1)
            }
        }
    }

    /// The sender window, in segments, for this tick.
    fn window(&self) -> usize {
        match self.cc {
            CongestionControl::Fixed(w) => w,
            CongestionControl::Aimd { .. } | CongestionControl::Cubic { .. } => {
                (self.cwnd.floor() as usize).clamp(1, self.max_window())
            }
        }
    }

    /// Folds one RTT sample (RFC 6298 weights). Callers enforce Karn's
    /// rule: never sampled from a retransmitted segment.
    fn on_rtt_sample(&mut self, sample: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2.0;
            }
            Some(s) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (s - sample).abs();
                self.srtt = Some(0.875 * s + 0.125 * sample);
            }
        }
    }

    /// The un-backed-off RTO: fixed in `Fixed` mode, estimated from
    /// SRTT/RTTVAR once a sample exists. The `srtt / 2` floor keeps the
    /// timer at least 1.5x the smoothed RTT even when the variance has
    /// converged to zero.
    fn base_rto(&self, config: &TcpConfig) -> u64 {
        if !self.adaptive() {
            return config.rto_ticks;
        }
        match self.srtt {
            None => config.rto_ticks,
            Some(s) => {
                let margin = (4.0 * self.rttvar).max(s / 2.0).max(1.0);
                let rto = (s + margin).ceil() as u64;
                rto.clamp(MIN_RTO, config.rto_ticks.max(MIN_RTO).saturating_mul(64))
            }
        }
    }

    /// The RTO for a segment already retransmitted `retransmit_count`
    /// times: exponential backoff in adaptive modes, flat in `Fixed`.
    /// `base_rto` is [`CwndState::base_rto`], which callers hoist out of
    /// per-segment loops.
    fn rto_for(&self, base_rto: u64, retransmit_count: u32) -> u64 {
        if !self.adaptive() {
            return base_rto;
        }
        base_rto.saturating_mul(1 << retransmit_count.min(RTO_BACKOFF_MAX_SHIFT))
    }

    /// Window growth on `newly` cumulatively acknowledged segments.
    fn on_new_ack(&mut self, newly: usize, now: u64) {
        let newly = newly as f64;
        match self.cc {
            CongestionControl::Fixed(_) => {}
            CongestionControl::Aimd { .. } => {
                if self.cwnd < self.ssthresh {
                    self.cwnd += newly;
                } else {
                    self.cwnd += newly / self.cwnd.max(1.0);
                }
            }
            CongestionControl::Cubic { .. } => {
                if self.cwnd < self.ssthresh {
                    self.cwnd += newly;
                } else {
                    let epoch = *self.epoch_start.get_or_insert(now);
                    let rtt_unit = self.srtt.unwrap_or(MIN_RTO as f64).max(1.0);
                    let t = (now - epoch) as f64 / rtt_unit;
                    let k = (self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
                    let target = CUBIC_C * (t - k).powi(3) + self.w_max;
                    if target > self.cwnd {
                        self.cwnd += (target - self.cwnd).min(newly);
                    } else {
                        // Below target (deep in the concave region):
                        // probe gently.
                        self.cwnd += 0.01 * newly;
                    }
                }
            }
        }
        self.cwnd = self.cwnd.min(self.max_window() as f64);
    }

    /// At most one multiplicative decrease per RTO-ish window, so a
    /// burst of same-event retransmissions does not collapse `ssthresh`
    /// to the floor.
    fn loss_reaction_due(&mut self, now: u64, config: &TcpConfig) -> bool {
        let window = self.base_rto(config);
        let due = match self.last_loss_reaction {
            Some(t) => now >= t.saturating_add(window),
            None => true,
        };
        if due {
            self.last_loss_reaction = Some(now);
        }
        due
    }

    /// Reaction to an RTO loss: back to slow start.
    fn on_rto_loss(&mut self) {
        match self.cc {
            CongestionControl::Fixed(_) => {}
            CongestionControl::Aimd { .. } => {
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = 1.0;
            }
            CongestionControl::Cubic { .. } => {
                self.w_max = self.cwnd.max(2.0);
                self.ssthresh = (self.cwnd * CUBIC_BETA).max(2.0);
                self.cwnd = 1.0;
                self.epoch_start = None;
            }
        }
    }

    /// Reaction to a fast retransmit: multiplicative decrease without
    /// draining to one segment.
    fn on_fast_retransmit(&mut self) {
        match self.cc {
            CongestionControl::Fixed(_) => {}
            CongestionControl::Aimd { .. } => {
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.ssthresh;
            }
            CongestionControl::Cubic { .. } => {
                self.w_max = self.cwnd.max(2.0);
                self.cwnd = (self.cwnd * CUBIC_BETA).max(2.0);
                self.ssthresh = self.cwnd;
                self.epoch_start = None;
            }
        }
    }
}

/// Segment header layout inside the IP payload: seq (4), ack (4),
/// is_ack (1), then data.
fn encode_segment(seq: u32, ack: u32, is_ack: bool, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + data.len());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&ack.to_be_bytes());
    out.push(is_ack as u8);
    out.extend_from_slice(data);
    out
}

fn decode_segment(bytes: &[u8]) -> Option<(u32, u32, bool, &[u8])> {
    if bytes.len() < 9 {
        return None;
    }
    let seq = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let ack = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    Some((seq, ack, bytes[8] != 0, &bytes[9..]))
}

/// Transfers `data` reliably over a pair of simulated links (data and ACK
/// directions, independently lossy), returning the receive-side stream
/// and statistics.
///
/// # Errors
///
/// Returns [`TcpError`] on empty input, deadline expiry, or a segment
/// exhausting its retransmit budget (a dead connection).
///
/// # Panics
///
/// Panics if `config.mss` is zero.
pub fn transfer(
    data: &[u8],
    config: TcpConfig,
    link_config: LinkConfig,
    seed: u64,
) -> Result<TransferReport, TcpError> {
    transfer_with(data, config, link_config, None, 0, seed)
}

/// [`transfer`] over links optionally driven by a bandwidth/loss trace,
/// evaluated from `trace_offset` (the absolute session tick at which
/// this transfer starts) so back-to-back fetches walk the schedule.
///
/// # Errors
///
/// As [`transfer`].
///
/// # Panics
///
/// Panics if `config.mss` is zero.
pub fn transfer_with(
    data: &[u8],
    config: TcpConfig,
    link_config: LinkConfig,
    trace: Option<&LinkTrace>,
    trace_offset: u64,
    seed: u64,
) -> Result<TransferReport, TcpError> {
    let mut data_link = match trace {
        Some(t) => Link::traced(link_config, t.clone(), trace_offset, seed),
        None => Link::new(link_config, seed),
    };
    let mut ack_link = match trace {
        Some(t) => Link::traced(link_config, t.clone(), trace_offset, seed ^ 0xDEAD_BEEF),
        None => Link::new(link_config, seed ^ 0xDEAD_BEEF),
    };
    transfer_over(data, config, &mut data_link, &mut ack_link)
}

/// The transfer engine over caller-supplied links — the injectable
/// entry: tests pre-load malformed frames, benchmarks pass traced or
/// queue-bounded links, and the wrappers above stay thin.
///
/// Within each tick the sender first processes that tick's arrived
/// ACKs, then retransmits: a cumulative ACK landing exactly on an RTO
/// boundary cancels the retransmission it just made moot. Ticks on which
/// nothing can happen are skipped (see the module's event-stepping
/// note).
///
/// # Errors
///
/// As [`transfer`].
///
/// # Panics
///
/// Panics if `config.mss` is zero.
pub fn transfer_over(
    data: &[u8],
    config: TcpConfig,
    data_link: &mut Link,
    ack_link: &mut Link,
) -> Result<TransferReport, TcpError> {
    assert!(config.mss > 0, "mss must be non-zero");
    if data.is_empty() {
        return Err(TcpError::Empty);
    }
    let src = Addr(1);
    let dst = Addr(2);

    // Sender state.
    let n_segments = data.len().div_ceil(config.mss);
    let mut acked = 0usize; // segments fully acknowledged (cumulative)
    let mut send_times: Vec<Option<u64>> = vec![None; n_segments];
    let mut retransmit_counts: Vec<u32> = vec![0; n_segments];
    let mut segments_sent = 0u64;
    let mut retransmissions = 0u64;
    let mut fast_retransmits = 0u64;
    let mut dup_acks = 0u32;
    let mut cwnd = CwndState::new(config.cc);

    // Receiver state.
    let mut received: Vec<Option<Vec<u8>>> = vec![None; n_segments];
    let mut next_expected = 0usize;
    let mut malformed_segments = 0u64;

    let mut now = 0u64;
    // The IP-layer datagram id is a 16-bit counter that wraps every
    // 65,536 packets, so on long transfers distinct segments alias the
    // same id. It is diagnostic only: reliability is keyed entirely on
    // the byte `seq`/`ack` fields inside the segment header, never on
    // `Packet::id` (pinned by `transfer_crosses_the_packet_id_boundary`).
    let mut packet_id = 0u16;
    loop {
        // Sender: process this tick's ACKs before any (re)transmission.
        while let Some(wire) = ack_link.pop_arrived(now) {
            let Ok(packet) = Packet::decode(&wire) else {
                continue;
            };
            let Some((_, ack, is_ack, _)) = decode_segment(&packet.payload) else {
                continue;
            };
            if !is_ack {
                continue;
            }
            let ack_segs = (ack as usize) / config.mss;
            if ack_segs > acked {
                // Karn's rule: RTT samples only from segments never
                // retransmitted, clocked from transmit-complete time.
                if cwnd.adaptive() {
                    for s in acked..ack_segs.min(n_segments) {
                        if retransmit_counts[s] == 0 {
                            if let Some(t) = send_times[s] {
                                cwnd.on_rtt_sample(now.saturating_sub(t).max(1) as f64);
                            }
                        }
                    }
                }
                cwnd.on_new_ack(ack_segs - acked, now);
                acked = ack_segs;
                dup_acks = 0;
            } else if ack_segs == acked {
                dup_acks += 1;
            }
        }
        if acked >= n_segments {
            break;
        }
        if now > config.deadline_ticks {
            return Err(TcpError::Timeout);
        }
        // Fast retransmit: three duplicate ACKs mean the segment at
        // `acked` is lost but the pipe is alive (adaptive modes only).
        if cwnd.adaptive() && dup_acks >= 3 && acked < n_segments {
            let s = acked;
            if retransmit_counts[s] >= config.max_retransmits {
                return Err(TcpError::ConnectionTimedOut);
            }
            retransmit_counts[s] += 1;
            retransmissions += 1;
            fast_retransmits += 1;
            segments_sent += 1;
            send_times[s] = Some(send_data_segment(
                data,
                &config,
                s,
                &mut packet_id,
                data_link,
                now,
            ));
            if cwnd.loss_reaction_due(now, &config) {
                cwnd.on_fast_retransmit();
            }
            dup_acks = 0;
        }
        // Sender: (re)transmit anything in the window that is unsent or
        // timed out. The timer runs from transmit-complete time — a
        // frame still queued behind `tx_free_at` has not been sent yet,
        // so it cannot spuriously time out (the PR 10 storm bugfix).
        // `next_rto` collects the earliest tick at which a segment in
        // the window falls due again. The base RTO depends only on the
        // RTT estimate, which no send changes, so it is computed once.
        let window_end = (acked + cwnd.window()).min(n_segments);
        let base_rto = cwnd.base_rto(&config);
        let mut next_rto = u64::MAX;
        for s in acked..window_end {
            let due = match send_times[s] {
                None => true,
                Some(t) => now >= t.saturating_add(cwnd.rto_for(base_rto, retransmit_counts[s])),
            };
            if due {
                if send_times[s].is_some() {
                    if retransmit_counts[s] >= config.max_retransmits {
                        return Err(TcpError::ConnectionTimedOut);
                    }
                    retransmit_counts[s] += 1;
                    retransmissions += 1;
                    if cwnd.adaptive() && cwnd.loss_reaction_due(now, &config) {
                        cwnd.on_rto_loss();
                    }
                }
                segments_sent += 1;
                send_times[s] = Some(send_data_segment(
                    data,
                    &config,
                    s,
                    &mut packet_id,
                    data_link,
                    now,
                ));
            }
            if let Some(t) = send_times[s] {
                let due_at = t.saturating_add(cwnd.rto_for(base_rto, retransmit_counts[s]));
                next_rto = next_rto.min(due_at);
            }
        }
        now += 1;
        // Receiver: take arrived data segments, ACK cumulatively. Only
        // the byte `seq` identifies a segment — the packet's wrapped
        // 16-bit id is never consulted.
        while let Some(wire) = data_link.pop_arrived(now) {
            let Ok(packet) = Packet::decode(&wire) else {
                continue;
            };
            let Some((seq, _, is_ack, payload)) = decode_segment(&packet.payload) else {
                continue;
            };
            if is_ack {
                continue;
            }
            // Hardening: validate mss-alignment and exact payload
            // length before slotting `seq / mss` — a malformed segment
            // is counted and ignored, never mis-slotted.
            let seq = seq as usize;
            let s = seq / config.mss;
            let valid = seq.is_multiple_of(config.mss)
                && s < n_segments
                && payload.len() == config.mss.min(data.len() - s * config.mss);
            if !valid {
                malformed_segments += 1;
                continue;
            }
            if received[s].is_none() {
                received[s] = Some(payload.to_vec());
            }
            while next_expected < n_segments && received[next_expected].is_some() {
                next_expected += 1;
            }
            // Cumulative ACK: next expected byte.
            let ack_seg = encode_segment(0, (next_expected * config.mss) as u32, true, &[]);
            let ack_packet = Packet {
                src: dst,
                dst: src,
                protocol: Protocol::Tcp,
                id: packet_id,
                frag_offset: 0,
                more_fragments: false,
                payload: ack_seg,
            };
            packet_id = packet_id.wrapping_add(1);
            ack_link.send(ack_packet.encode(), now);
        }
        // Event step: skip to the next tick that can do work (the
        // module docs say why this is exact). The receiver runs after
        // `now += 1`, so a data arrival at `t` makes tick `t - 1` busy.
        let next_event = next_rto
            .min(config.deadline_ticks.saturating_add(1))
            .min(ack_link.next_arrival().unwrap_or(u64::MAX))
            .min(
                data_link
                    .next_arrival()
                    .map_or(u64::MAX, |t| t.saturating_sub(1)),
            );
        now = now.max(next_event);
    }

    let mut out = Vec::with_capacity(data.len());
    for seg in received.into_iter().flatten() {
        out.extend(seg);
    }
    out.truncate(data.len());
    Ok(TransferReport {
        goodput: data.len() as f64 / now.max(1) as f64,
        data: out,
        ticks: now,
        segments_sent,
        retransmissions,
        fast_retransmits,
        malformed_segments,
    })
}

/// Encodes and offers segment `s` to the data link, returning its
/// transmit-complete tick.
fn send_data_segment(
    data: &[u8],
    config: &TcpConfig,
    s: usize,
    packet_id: &mut u16,
    data_link: &mut Link,
    now: u64,
) -> u64 {
    let lo = s * config.mss;
    let hi = (lo + config.mss).min(data.len());
    let seg = encode_segment((s * config.mss) as u32, 0, false, &data[lo..hi]);
    let packet = Packet {
        src: Addr(1),
        dst: Addr(2),
        protocol: Protocol::Tcp,
        id: *packet_id,
        frag_offset: 0,
        more_fragments: false,
        payload: seg,
    };
    *packet_id = packet_id.wrapping_add(1);
    data_link.send(packet.encode(), now)
}

/// Test-only equality oracles: the pre-PR-10 transfer engine, kept
/// verbatim for `CongestionControl::Fixed` (offer-time timer stamping,
/// send phase before ACK processing, no receive-path validation), and
/// the tick-stepped engine the event-stepped loop must reproduce.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{
        decode_segment, encode_segment, send_data_segment, CwndState, TcpConfig, TcpError,
        TransferReport,
    };
    use crate::link::{Link, LinkConfig};
    use crate::packet::{Addr, Packet, Protocol};

    /// [`super::transfer_over`] without the event step: one loop
    /// iteration per tick, the equality oracle for the event-stepped
    /// engine. Its RTO due check saturates like the engine's (the
    /// overflow fix).
    pub(crate) fn transfer_over_ticked(
        data: &[u8],
        config: TcpConfig,
        data_link: &mut Link,
        ack_link: &mut Link,
    ) -> Result<TransferReport, TcpError> {
        assert!(config.mss > 0, "mss must be non-zero");
        if data.is_empty() {
            return Err(TcpError::Empty);
        }
        let src = Addr(1);
        let dst = Addr(2);

        // Sender state.
        let n_segments = data.len().div_ceil(config.mss);
        let mut acked = 0usize; // segments fully acknowledged (cumulative)
        let mut send_times: Vec<Option<u64>> = vec![None; n_segments];
        let mut retransmit_counts: Vec<u32> = vec![0; n_segments];
        let mut segments_sent = 0u64;
        let mut retransmissions = 0u64;
        let mut fast_retransmits = 0u64;
        let mut dup_acks = 0u32;
        let mut cwnd = CwndState::new(config.cc);

        // Receiver state.
        let mut received: Vec<Option<Vec<u8>>> = vec![None; n_segments];
        let mut next_expected = 0usize;
        let mut malformed_segments = 0u64;

        let mut now = 0u64;
        // The IP-layer datagram id is a 16-bit counter that wraps every
        // 65,536 packets, so on long transfers distinct segments alias the
        // same id. It is diagnostic only: reliability is keyed entirely on
        // the byte `seq`/`ack` fields inside the segment header, never on
        // `Packet::id` (pinned by `transfer_crosses_the_packet_id_boundary`).
        let mut packet_id = 0u16;
        loop {
            // Sender: process this tick's ACKs before any (re)transmission.
            for wire in ack_link.deliver(now) {
                let Ok(packet) = Packet::decode(&wire) else {
                    continue;
                };
                let Some((_, ack, is_ack, _)) = decode_segment(&packet.payload) else {
                    continue;
                };
                if !is_ack {
                    continue;
                }
                let ack_segs = (ack as usize) / config.mss;
                if ack_segs > acked {
                    // Karn's rule: RTT samples only from segments never
                    // retransmitted, clocked from transmit-complete time.
                    if cwnd.adaptive() {
                        for s in acked..ack_segs.min(n_segments) {
                            if retransmit_counts[s] == 0 {
                                if let Some(t) = send_times[s] {
                                    cwnd.on_rtt_sample(now.saturating_sub(t).max(1) as f64);
                                }
                            }
                        }
                    }
                    cwnd.on_new_ack(ack_segs - acked, now);
                    acked = ack_segs;
                    dup_acks = 0;
                } else if ack_segs == acked {
                    dup_acks += 1;
                }
            }
            if acked >= n_segments {
                break;
            }
            if now > config.deadline_ticks {
                return Err(TcpError::Timeout);
            }
            // Fast retransmit: three duplicate ACKs mean the segment at
            // `acked` is lost but the pipe is alive (adaptive modes only).
            if cwnd.adaptive() && dup_acks >= 3 && acked < n_segments {
                let s = acked;
                if retransmit_counts[s] >= config.max_retransmits {
                    return Err(TcpError::ConnectionTimedOut);
                }
                retransmit_counts[s] += 1;
                retransmissions += 1;
                fast_retransmits += 1;
                segments_sent += 1;
                send_times[s] = Some(send_data_segment(
                    data,
                    &config,
                    s,
                    &mut packet_id,
                    data_link,
                    now,
                ));
                if cwnd.loss_reaction_due(now, &config) {
                    cwnd.on_fast_retransmit();
                }
                dup_acks = 0;
            }
            // Sender: (re)transmit anything in the window that is unsent or
            // timed out. The timer runs from transmit-complete time — a
            // frame still queued behind `tx_free_at` has not been sent yet,
            // so it cannot spuriously time out (the PR 10 storm bugfix).
            let window_end = (acked + cwnd.window()).min(n_segments);
            for s in acked..window_end {
                let due = match send_times[s] {
                    None => true,
                    Some(t) => {
                        now >= t.saturating_add(
                            cwnd.rto_for(cwnd.base_rto(&config), retransmit_counts[s]),
                        )
                    }
                };
                if due {
                    if send_times[s].is_some() {
                        if retransmit_counts[s] >= config.max_retransmits {
                            return Err(TcpError::ConnectionTimedOut);
                        }
                        retransmit_counts[s] += 1;
                        retransmissions += 1;
                        if cwnd.adaptive() && cwnd.loss_reaction_due(now, &config) {
                            cwnd.on_rto_loss();
                        }
                    }
                    segments_sent += 1;
                    send_times[s] = Some(send_data_segment(
                        data,
                        &config,
                        s,
                        &mut packet_id,
                        data_link,
                        now,
                    ));
                }
            }
            now += 1;
            // Receiver: take arrived data segments, ACK cumulatively. Only
            // the byte `seq` identifies a segment — the packet's wrapped
            // 16-bit id is never consulted.
            for wire in data_link.deliver(now) {
                let Ok(packet) = Packet::decode(&wire) else {
                    continue;
                };
                let Some((seq, _, is_ack, payload)) = decode_segment(&packet.payload) else {
                    continue;
                };
                if is_ack {
                    continue;
                }
                // Hardening: validate mss-alignment and exact payload
                // length before slotting `seq / mss` — a malformed segment
                // is counted and ignored, never mis-slotted.
                let seq = seq as usize;
                let s = seq / config.mss;
                let valid = seq.is_multiple_of(config.mss)
                    && s < n_segments
                    && payload.len() == config.mss.min(data.len() - s * config.mss);
                if !valid {
                    malformed_segments += 1;
                    continue;
                }
                if received[s].is_none() {
                    received[s] = Some(payload.to_vec());
                }
                while next_expected < n_segments && received[next_expected].is_some() {
                    next_expected += 1;
                }
                // Cumulative ACK: next expected byte.
                let ack_seg = encode_segment(0, (next_expected * config.mss) as u32, true, &[]);
                let ack_packet = Packet {
                    src: dst,
                    dst: src,
                    protocol: Protocol::Tcp,
                    id: packet_id,
                    frag_offset: 0,
                    more_fragments: false,
                    payload: ack_seg,
                };
                packet_id = packet_id.wrapping_add(1);
                ack_link.send(ack_packet.encode(), now);
            }
        }

        let mut out = Vec::with_capacity(data.len());
        for seg in received.into_iter().flatten() {
            out.extend(seg);
        }
        out.truncate(data.len());
        Ok(TransferReport {
            goodput: data.len() as f64 / now.max(1) as f64,
            data: out,
            ticks: now,
            segments_sent,
            retransmissions,
            fast_retransmits,
            malformed_segments,
        })
    }

    pub(crate) fn transfer(
        data: &[u8],
        config: TcpConfig,
        window: usize,
        link_config: LinkConfig,
        seed: u64,
    ) -> Result<TransferReport, TcpError> {
        if data.is_empty() {
            return Err(TcpError::Empty);
        }
        let mut data_link = Link::new(link_config, seed);
        let mut ack_link = Link::new(link_config, seed ^ 0xDEAD_BEEF);
        let src = Addr(1);
        let dst = Addr(2);

        let n_segments = data.len().div_ceil(config.mss);
        let mut acked = 0usize;
        let mut send_times: Vec<Option<u64>> = vec![None; n_segments];
        let mut retransmit_counts: Vec<u32> = vec![0; n_segments];
        let mut segments_sent = 0u64;
        let mut retransmissions = 0u64;

        let mut received: Vec<Option<Vec<u8>>> = vec![None; n_segments];
        let mut next_expected = 0usize;

        let mut now = 0u64;
        let mut packet_id = 0u16;
        while acked < n_segments {
            if now > config.deadline_ticks {
                return Err(TcpError::Timeout);
            }
            let window_end = (acked + window).min(n_segments);
            for (s, slot) in send_times
                .iter_mut()
                .enumerate()
                .take(window_end)
                .skip(acked)
            {
                let due = match *slot {
                    None => true,
                    Some(t) => now >= t + config.rto_ticks,
                };
                if due {
                    if slot.is_some() {
                        if retransmit_counts[s] >= config.max_retransmits {
                            return Err(TcpError::ConnectionTimedOut);
                        }
                        retransmit_counts[s] += 1;
                        retransmissions += 1;
                    }
                    *slot = Some(now);
                    segments_sent += 1;
                    let lo = s * config.mss;
                    let hi = (lo + config.mss).min(data.len());
                    let seg = encode_segment((s * config.mss) as u32, 0, false, &data[lo..hi]);
                    let packet = Packet {
                        src,
                        dst,
                        protocol: Protocol::Tcp,
                        id: packet_id,
                        frag_offset: 0,
                        more_fragments: false,
                        payload: seg,
                    };
                    packet_id = packet_id.wrapping_add(1);
                    data_link.send(packet.encode(), now);
                }
            }
            now += 1;
            for wire in data_link.deliver(now) {
                let Ok(packet) = Packet::decode(&wire) else {
                    continue;
                };
                let Some((seq, _, is_ack, payload)) = decode_segment(&packet.payload) else {
                    continue;
                };
                if is_ack {
                    continue;
                }
                let s = seq as usize / config.mss;
                if s < n_segments && received[s].is_none() {
                    received[s] = Some(payload.to_vec());
                }
                while next_expected < n_segments && received[next_expected].is_some() {
                    next_expected += 1;
                }
                let ack_seg = encode_segment(0, (next_expected * config.mss) as u32, true, &[]);
                let ack_packet = Packet {
                    src: dst,
                    dst: src,
                    protocol: Protocol::Tcp,
                    id: packet_id,
                    frag_offset: 0,
                    more_fragments: false,
                    payload: ack_seg,
                };
                packet_id = packet_id.wrapping_add(1);
                ack_link.send(ack_packet.encode(), now);
            }
            for wire in ack_link.deliver(now) {
                let Ok(packet) = Packet::decode(&wire) else {
                    continue;
                };
                let Some((_, ack, is_ack, _)) = decode_segment(&packet.payload) else {
                    continue;
                };
                if !is_ack {
                    continue;
                }
                let ack_segs = (ack as usize) / config.mss;
                if ack_segs > acked {
                    acked = ack_segs;
                }
            }
        }

        let mut out = Vec::with_capacity(data.len());
        for seg in received.into_iter().flatten() {
            out.extend(seg);
        }
        out.truncate(data.len());
        Ok(TransferReport {
            goodput: data.len() as f64 / now.max(1) as f64,
            data: out,
            ticks: now,
            segments_sent,
            retransmissions,
            fast_retransmits: 0,
            malformed_segments: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LossModel;
    use signal::rng::Xoroshiro128;

    fn payload(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Xoroshiro128::new(seed);
        (0..len).map(|_| rng.next_u32() as u8).collect()
    }

    #[test]
    fn lossless_transfer_is_exact_with_no_retransmissions() {
        let data = payload(10_000, 1);
        let r = transfer(&data, TcpConfig::default(), LinkConfig::default(), 2).unwrap();
        assert_eq!(r.data, data);
        assert_eq!(r.retransmissions, 0);
    }

    #[test]
    fn lossy_transfer_still_exact() {
        let data = payload(20_000, 3);
        let cfg = LinkConfig::default().with_loss(0.2);
        let r = transfer(&data, TcpConfig::default(), cfg, 4).unwrap();
        assert_eq!(r.data, data);
        assert!(r.retransmissions > 0, "loss must force retransmissions");
    }

    #[test]
    fn cost_grows_with_loss() {
        let data = payload(20_000, 5);
        let mut prev_ticks = 0u64;
        for (i, loss) in [0.0, 0.1, 0.3].iter().enumerate() {
            let cfg = LinkConfig::default().with_loss(*loss);
            let r = transfer(&data, TcpConfig::default(), cfg, 6).unwrap();
            assert_eq!(r.data, data, "loss {loss}");
            if i > 0 {
                assert!(
                    r.ticks > prev_ticks,
                    "higher loss should take longer: {} vs {prev_ticks}",
                    r.ticks
                );
            }
            prev_ticks = r.ticks;
        }
    }

    #[test]
    fn severe_loss_eventually_times_out() {
        let data = payload(5_000, 7);
        let tcp = TcpConfig {
            deadline_ticks: 3_000,
            ..Default::default()
        };
        let cfg = LinkConfig::default().with_loss(0.9);
        assert_eq!(transfer(&data, tcp, cfg, 8).unwrap_err(), TcpError::Timeout);
    }

    #[test]
    fn dead_link_trips_the_retransmit_cap_long_before_the_deadline() {
        // 99% loss: a round trip survives one attempt in ~10,000, so
        // segments retransmit on every RTO until the cap trips — well
        // under the 2M-tick deadline a pure timeout would burn.
        let data = payload(2_000, 15);
        let tcp = TcpConfig::default();
        let dead = LinkConfig::default().with_loss(0.99);
        let err = transfer(&data, tcp, dead, 16).unwrap_err();
        assert_eq!(err, TcpError::ConnectionTimedOut);
        // The give-up point is max_retransmits RTOs plus change.
        let bound = (u64::from(tcp.max_retransmits) + 2) * tcp.rto_ticks;
        assert!(bound < tcp.deadline_ticks / 100, "cap must beat deadline");
    }

    #[test]
    fn total_blackout_fails_via_the_retransmit_cap_not_the_deadline() {
        // loss = 1.0 (now accepted by with_loss): every frame drops, so
        // the first segment burns its retransmit budget and the
        // connection dies — ConnectionTimedOut, not a 2M-tick
        // deadline spin (which would surface as Timeout).
        let data = payload(2_000, 19);
        let blackout = LinkConfig::default().with_loss(1.0);
        let err = transfer(&data, TcpConfig::default(), blackout, 20).unwrap_err();
        assert_eq!(err, TcpError::ConnectionTimedOut);
    }

    #[test]
    fn retransmit_cap_is_per_segment_not_global() {
        // 20% loss forces plenty of total retransmissions across many
        // segments, but no single segment comes near the cap: the
        // transfer must still complete.
        let data = payload(50_000, 17);
        let cfg = LinkConfig::default().with_loss(0.2);
        let r = transfer(&data, TcpConfig::default(), cfg, 18).unwrap();
        assert_eq!(r.data, data);
        assert!(
            r.retransmissions > u64::from(TcpConfig::default().max_retransmits),
            "total retransmissions exceed the per-segment cap: {}",
            r.retransmissions
        );
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(
            transfer(&[], TcpConfig::default(), LinkConfig::default(), 9).unwrap_err(),
            TcpError::Empty
        );
    }

    #[test]
    fn single_byte_transfer() {
        let r = transfer(&[42], TcpConfig::default(), LinkConfig::default(), 10).unwrap();
        assert_eq!(r.data, vec![42]);
    }

    #[test]
    fn bigger_window_is_faster_on_clean_links() {
        let data = payload(50_000, 11);
        let slow = transfer(
            &data,
            TcpConfig {
                cc: CongestionControl::Fixed(1),
                ..Default::default()
            },
            LinkConfig::default(),
            12,
        )
        .unwrap();
        let fast = transfer(
            &data,
            TcpConfig {
                cc: CongestionControl::Fixed(16),
                ..Default::default()
            },
            LinkConfig::default(),
            12,
        )
        .unwrap();
        assert!(
            fast.ticks * 2 < slow.ticks,
            "window 16 ({}) should beat window 1 ({})",
            fast.ticks,
            slow.ticks
        );
        assert!(fast.goodput > slow.goodput);
    }

    #[test]
    fn transfer_crosses_the_packet_id_boundary() {
        // More than 65,536 data packets, so the u16 IP datagram id wraps
        // and distinct segments alias the same id. The transfer must
        // still be byte-exact because the receive side keys purely on
        // the byte `seq`/`ack` fields, never on the packet id.
        const N: usize = 70_000;
        let data = payload(N, 20);
        let tcp = TcpConfig {
            mss: 1, // one byte per packet -> one packet per segment
            cc: CongestionControl::Fixed(64),
            ..Default::default()
        };
        let r = transfer(&data, tcp, LinkConfig::default(), 21).unwrap();
        assert_eq!(r.data, data, "aliased packet ids must not corrupt data");
        assert_eq!(
            r.segments_sent, N as u64,
            "every byte is its own segment, sent exactly once on a clean link"
        );
        assert_eq!(r.retransmissions, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = payload(8_000, 13);
        let cfg = LinkConfig::default().with_loss(0.15);
        let a = transfer(&data, TcpConfig::default(), cfg, 14).unwrap();
        let b = transfer(&data, TcpConfig::default(), cfg, 14).unwrap();
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.retransmissions, b.retransmissions);
    }

    // ── PR 10: timer bugfix, validation, and congestion control ──────

    #[test]
    fn spurious_rto_regression_slow_link_large_window() {
        // Large window x high ticks_per_byte: the whole burst is
        // offered at t=0 but serializes for thousands of ticks. The
        // pre-fix engine stamped the retransmit timer at offer time, so
        // queued segments "timed out" while still serializing and the
        // retransmits re-queued — a storm. Post-fix (timer from
        // transmit-complete time) a lossless link sees zero
        // retransmissions.
        let data = payload(4_096, 30);
        let tcp = TcpConfig {
            cc: CongestionControl::Fixed(32),
            ..Default::default()
        };
        let slow = LinkConfig {
            ticks_per_byte: 1.0,
            ..LinkConfig::default()
        };
        let fixed = transfer(&data, tcp, slow, 31).unwrap();
        assert_eq!(fixed.data, data);
        assert_eq!(
            fixed.retransmissions, 0,
            "lossless link must see zero spurious retransmits"
        );
        // The regression test discriminates: the pre-fix oracle on the
        // same scenario either storms (retransmissions > 0) or dies.
        let storm = oracle::transfer(&data, tcp, 32, slow, 31);
        match storm {
            Ok(r) => assert!(r.retransmissions > 0, "pre-fix engine must storm"),
            Err(e) => assert_eq!(e, TcpError::ConnectionTimedOut),
        }
    }

    #[test]
    fn fixed_mode_is_bit_identical_to_the_pre_cc_engine_without_serialization() {
        // With ticks_per_byte = 0 a frame's transmit-complete time IS
        // its offer time, so the timer fix is a no-op and the whole
        // report must match the pre-PR engine bit for bit — across
        // losses, latencies, and window sizes.
        for &loss in &[0.0, 0.1, 0.3] {
            for &latency in &[0u64, 5] {
                for &window in &[1usize, 4, 8] {
                    for seed in 0..8u64 {
                        let data = payload(6_000 + seed as usize * 997, seed);
                        let link = LinkConfig {
                            latency_ticks: latency,
                            ticks_per_byte: 0.0,
                            ..LinkConfig::default()
                        }
                        .with_loss(loss);
                        let tcp = TcpConfig {
                            cc: CongestionControl::Fixed(window),
                            ..Default::default()
                        };
                        let new = transfer(&data, tcp, link, seed);
                        let old = oracle::transfer(&data, tcp, window, link, seed);
                        assert_eq!(
                            new, old,
                            "divergence at loss={loss} latency={latency} window={window} seed={seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_mode_is_bit_identical_to_the_pre_cc_engine_on_clean_serialized_links() {
        // On a lossless link whose window-burst queueing delay stays
        // under the RTO, neither engine ever retransmits, so offer-time
        // vs wire-time stamping cannot diverge: full report equality.
        for &window in &[1usize, 8, 16] {
            for seed in 0..8u64 {
                let data = payload(9_000 + seed as usize * 1_371, 100 + seed);
                let tcp = TcpConfig {
                    cc: CongestionControl::Fixed(window),
                    ..Default::default()
                };
                let new = transfer(&data, tcp, LinkConfig::default(), seed);
                let old = oracle::transfer(&data, tcp, window, LinkConfig::default(), seed);
                assert_eq!(new, old, "divergence at window={window} seed={seed}");
            }
        }
    }

    #[test]
    fn malformed_segments_are_counted_and_never_mis_slotted() {
        // Inject two corrupt segments ahead of a normal transfer: one
        // with a non-mss-aligned seq, one aligned but with the wrong
        // payload length. Both must be rejected (counted), and the
        // transfer must still be byte-exact.
        let data = payload(4_000, 40);
        let config = TcpConfig::default();
        let mut data_link = Link::new(LinkConfig::default(), 41);
        let mut ack_link = Link::new(LinkConfig::default(), 42);
        let unaligned = Packet {
            src: Addr(9),
            dst: Addr(2),
            protocol: Protocol::Tcp,
            id: 9_999,
            frag_offset: 0,
            more_fragments: false,
            payload: encode_segment(13, 0, false, &[1, 2, 3, 4, 5]),
        };
        let wrong_length = Packet {
            src: Addr(9),
            dst: Addr(2),
            protocol: Protocol::Tcp,
            id: 9_998,
            frag_offset: 0,
            more_fragments: false,
            payload: encode_segment(0, 0, false, &vec![7u8; config.mss + 3]),
        };
        data_link.send(unaligned.encode(), 0);
        data_link.send(wrong_length.encode(), 0);
        let r = transfer_over(&data, config, &mut data_link, &mut ack_link).unwrap();
        assert_eq!(r.malformed_segments, 2, "both corrupt segments counted");
        assert_eq!(r.data, data, "corruption must never reach the stream");
    }

    #[test]
    fn aimd_transfers_exactly_under_loss() {
        let data = payload(30_000, 50);
        let tcp = TcpConfig {
            cc: CongestionControl::aimd(),
            ..Default::default()
        };
        let cfg = LinkConfig::default().with_loss(0.15);
        let r = transfer(&data, tcp, cfg, 51).unwrap();
        assert_eq!(r.data, data);
        assert!(r.retransmissions > 0);
    }

    #[test]
    fn cubic_transfers_exactly_under_loss() {
        let data = payload(30_000, 52);
        let tcp = TcpConfig {
            cc: CongestionControl::cubic(),
            ..Default::default()
        };
        let cfg = LinkConfig::default().with_loss(0.15);
        let r = transfer(&data, tcp, cfg, 53).unwrap();
        assert_eq!(r.data, data);
    }

    #[test]
    fn aimd_is_clean_on_a_lossless_link() {
        // The adaptive RTO must never fire spuriously when nothing is
        // lost — slow start ramps, the estimator converges, zero
        // retransmissions.
        let data = payload(60_000, 54);
        let tcp = TcpConfig {
            cc: CongestionControl::aimd(),
            ..Default::default()
        };
        let r = transfer(&data, tcp, LinkConfig::default(), 55).unwrap();
        assert_eq!(r.data, data);
        assert_eq!(r.retransmissions, 0, "no spurious adaptive RTOs");
    }

    #[test]
    fn fast_retransmit_fires_on_duplicate_acks() {
        let data = payload(80_000, 56);
        let tcp = TcpConfig {
            cc: CongestionControl::aimd(),
            ..Default::default()
        };
        let cfg = LinkConfig::default().with_loss(0.08);
        let r = transfer(&data, tcp, cfg, 57).unwrap();
        assert_eq!(r.data, data);
        assert!(
            r.fast_retransmits > 0,
            "triple dup ACKs must trigger fast retransmits"
        );
    }

    #[test]
    fn aimd_beats_fixed_goodput_on_a_bufferbloated_bounded_link() {
        // A bounded drop-tail queue punishes a big fixed window: the
        // burst tail-drops, every dropped segment waits out a full RTO,
        // and goodput craters. AIMD feels the same drops but backs off
        // to the queue's capacity.
        let data = payload(40_000, 60);
        let link = LinkConfig {
            ticks_per_byte: 0.05,
            ..LinkConfig::default()
        }
        .with_queue_bytes(2_000);
        let fixed = transfer(
            &data,
            TcpConfig {
                cc: CongestionControl::Fixed(64),
                ..Default::default()
            },
            link,
            61,
        )
        .unwrap();
        let aimd = transfer(
            &data,
            TcpConfig {
                cc: CongestionControl::aimd(),
                ..Default::default()
            },
            link,
            61,
        )
        .unwrap();
        assert_eq!(fixed.data, data);
        assert_eq!(aimd.data, data);
        assert!(
            aimd.goodput > fixed.goodput,
            "AIMD ({:.4}) must beat the bufferbloated fixed window ({:.4})",
            aimd.goodput,
            fixed.goodput
        );
    }

    #[test]
    fn transfer_over_a_mobile_handoff_trace_survives() {
        let data = payload(20_000, 70);
        let tcp = TcpConfig {
            cc: CongestionControl::aimd(),
            ..Default::default()
        };
        let trace = LinkTrace::mobile_handoff();
        let r = transfer_with(&data, tcp, LinkConfig::default(), Some(&trace), 0, 71).unwrap();
        assert_eq!(r.data, data, "the handoff gap must not corrupt the stream");
        // A transfer starting inside the handoff gap sees the bad phase
        // first and takes longer per byte on average than one starting
        // in the strong cell.
        let gap_start = 2_000 + 800 + 10;
        let r2 = transfer_with(
            &data,
            tcp,
            LinkConfig::default(),
            Some(&trace),
            gap_start,
            71,
        )
        .unwrap();
        assert_eq!(r2.data, data);
    }

    #[test]
    fn huge_rto_does_not_overflow_or_retransmit() {
        // `rto_ticks` is public: u64::MAX must mean "never time out",
        // not an overflowing due check (a debug panic, or a wrapped
        // deadline that retransmitted spuriously on a lossless link).
        let data = payload(20_000, 90);
        for cc in [
            CongestionControl::Fixed(8),
            CongestionControl::aimd(),
            CongestionControl::cubic(),
        ] {
            let tcp = TcpConfig {
                cc,
                rto_ticks: u64::MAX,
                ..Default::default()
            };
            let r = transfer(&data, tcp, LinkConfig::default(), 91).unwrap();
            assert_eq!(r.data, data, "{cc:?}");
            assert_eq!(r.retransmissions, 0, "{cc:?}");
        }
    }

    /// One randomly drawn transfer scenario for the event-step property.
    struct Scenario {
        data: Vec<u8>,
        config: TcpConfig,
        link: LinkConfig,
        trace: Option<(LinkTrace, u64)>,
        seed: u64,
    }

    impl Scenario {
        fn draw(rng: &mut Xoroshiro128) -> Self {
            let pick = |rng: &mut Xoroshiro128, n: u32| rng.next_u32() % n;
            let cc = match pick(rng, 3) {
                0 => CongestionControl::Fixed(1 + pick(rng, 16) as usize),
                1 => CongestionControl::Aimd {
                    max_window: 2 + pick(rng, 64) as usize,
                },
                _ => CongestionControl::Cubic {
                    max_window: 2 + pick(rng, 64) as usize,
                },
            };
            let loss_model = if pick(rng, 2) == 0 {
                LossModel::Iid
            } else {
                LossModel::GilbertElliott {
                    p_enter_bad: 0.001 + 0.05 * rng.next_f64(),
                    p_exit_bad: 0.05 + 0.3 * rng.next_f64(),
                    loss_good: 0.01 * rng.next_f64(),
                    loss_bad: 0.3 + 0.7 * rng.next_f64(),
                }
            };
            let link = LinkConfig {
                loss: [0.0, 0.02, 0.1, 0.3][pick(rng, 4) as usize],
                latency_ticks: u64::from(pick(rng, 31)),
                ticks_per_byte: [0.0, 0.005, 0.01, 0.03, 0.2][pick(rng, 5) as usize],
                loss_model,
                queue_bytes: (pick(rng, 2) == 0).then(|| 600 + pick(rng, 6_000) as usize),
            };
            let trace = match pick(rng, 3) {
                0 => None,
                1 => Some(LinkTrace::mobile_handoff()),
                _ => Some(LinkTrace::bursty()),
            }
            .map(|t| (t, u64::from(pick(rng, 12_000))));
            let config = TcpConfig {
                mss: [64, 256, 512, 1_000][pick(rng, 4) as usize],
                cc,
                rto_ticks: 20 + u64::from(pick(rng, 400)),
                deadline_ticks: if pick(rng, 3) == 0 {
                    100 + u64::from(pick(rng, 3_000))
                } else {
                    200_000
                },
                max_retransmits: 2 + pick(rng, 12),
            };
            let data = payload(1 + pick(rng, 12_000) as usize, rng.next_u64());
            Self {
                data,
                config,
                link,
                trace,
                seed: rng.next_u64(),
            }
        }

        fn links(&self) -> (Link, Link) {
            let ack_seed = self.seed ^ 0xDEAD_BEEF;
            match &self.trace {
                Some((t, offset)) => (
                    Link::traced(self.link, t.clone(), *offset, self.seed),
                    Link::traced(self.link, t.clone(), *offset, ack_seed),
                ),
                None => (
                    Link::new(self.link, self.seed),
                    Link::new(self.link, ack_seed),
                ),
            }
        }
    }

    fn link_counts(link: &Link) -> [u64; 4] {
        [
            link.sent(),
            link.dropped(),
            link.queue_drops(),
            link.delivered(),
        ]
    }

    #[test]
    fn event_stepped_engine_equals_the_tick_stepped_oracle() {
        // Every CC mode, both loss models, traces at random offsets,
        // bounded and unbounded queues, latency 0-30, infinite
        // bandwidth, and deadlines short enough to time out: the whole
        // result and both links' counters must match tick stepping.
        let mut rng = Xoroshiro128::new(0x7C9);
        let mut outcomes = [0u32; 3];
        for case in 0..500 {
            let sc = Scenario::draw(&mut rng);
            let (mut data_fast, mut ack_fast) = sc.links();
            let (mut data_tick, mut ack_tick) = sc.links();
            let fast = transfer_over(&sc.data, sc.config, &mut data_fast, &mut ack_fast);
            let tick =
                oracle::transfer_over_ticked(&sc.data, sc.config, &mut data_tick, &mut ack_tick);
            let what = format!(
                "case {case}: {} bytes, {:?}, {:?}, trace {:?}, seed {}",
                sc.data.len(),
                sc.config,
                sc.link,
                sc.trace.as_ref().map(|(t, o)| (t.phases.len(), *o)),
                sc.seed
            );
            assert_eq!(fast, tick, "{what}");
            assert_eq!(
                link_counts(&data_fast),
                link_counts(&data_tick),
                "data link, {what}"
            );
            assert_eq!(
                link_counts(&ack_fast),
                link_counts(&ack_tick),
                "ack link, {what}"
            );
            outcomes[match fast {
                Ok(_) => 0,
                Err(TcpError::Timeout) => 1,
                Err(_) => 2,
            }] += 1;
        }
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "the cases must reach Ok, Timeout and ConnectionTimedOut: {outcomes:?}"
        );
    }

    #[test]
    fn adaptive_mode_is_deterministic_given_seed() {
        let data = payload(16_000, 80);
        let tcp = TcpConfig {
            cc: CongestionControl::aimd(),
            ..Default::default()
        };
        let cfg = LinkConfig::default().with_loss(0.1);
        let a = transfer(&data, tcp, cfg, 81).unwrap();
        let b = transfer(&data, tcp, cfg, 81).unwrap();
        assert_eq!(a, b);
    }
}
