//! A simulated point-to-point link with loss, latency, and serialization
//! delay.
//!
//! The workspace's substitute for a real access network:
//! deterministic (seeded) loss so every experiment is reproducible, and
//! discrete ticks so protocol behaviour (timeouts, retransmissions) is
//! exactly replayable. Beyond the original i.i.d. drop draw the link now
//! models three more pieces of access-network reality:
//!
//! - a **bounded drop-tail queue** ([`LinkConfig::queue_bytes`]) — the
//!   bufferbloat knob: an unbounded transmitter queue absorbs any burst
//!   (at the price of delay), a bounded one tail-drops it;
//! - **Gilbert–Elliott two-state bursty loss**
//!   ([`LossModel::GilbertElliott`]) — losses clustered into bad-state
//!   bursts rather than sprinkled i.i.d.;
//! - **piecewise bandwidth/loss schedules** ([`LinkTrace`]) — replayable
//!   per-session traces such as a mobile handoff.
//!
//! All three default off, leaving the original link (and its RNG draw
//! sequence) bit-identical.
//!
//! **Arrival order.** Frames leave the in-flight queue in the order they
//! entered it. A frame's arrival tick is its transmit-complete tick plus
//! the link's fixed latency, and transmit-complete ticks never decrease
//! (each frame starts serializing at `max(now, tx_free_at)`), so the
//! queue is already sorted by arrival tick, ties in send order. Delivery
//! pops from the front and [`Link::next_arrival`] reads the front, both
//! O(1); nothing is ever re-sorted or rebuilt.

use std::collections::VecDeque;

use signal::rng::Xoroshiro128;

/// How the per-frame drop decision is made.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Independent draw per frame at [`LinkConfig::loss`] — the original
    /// model, one RNG draw per offered frame.
    Iid,
    /// Gilbert–Elliott two-state chain: each offered frame first draws a
    /// state transition, then a drop at the current state's rate. The
    /// stationary bad-state probability is
    /// `p_enter_bad / (p_enter_bad + p_exit_bad)`, so the long-run loss
    /// rate is `p_bad * loss_bad + (1 - p_bad) * loss_good` (pinned by a
    /// props.rs stationarity property).
    GilbertElliott {
        /// Per-frame probability of flipping good → bad.
        p_enter_bad: f64,
        /// Per-frame probability of flipping bad → good.
        p_exit_bad: f64,
        /// Drop probability while in the good state.
        loss_good: f64,
        /// Drop probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// A bursty preset: mean burst length `1 / p_exit_bad` frames, with
    /// near-total loss inside a burst and a clean channel outside.
    #[must_use]
    pub fn bursty() -> Self {
        Self::GilbertElliott {
            p_enter_bad: 0.002,
            p_exit_bad: 0.05,
            loss_good: 0.0005,
            loss_bad: 0.6,
        }
    }
}

/// One phase of a [`LinkTrace`]: for `ticks` ticks the link runs at
/// `ticks_per_byte` with i.i.d. loss `loss` (overriding the config's
/// base values; latency is unchanged).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePhase {
    /// Phase duration in ticks.
    pub ticks: u64,
    /// Serialization rate during the phase (ticks per byte).
    pub ticks_per_byte: f64,
    /// I.i.d. frame-loss probability during the phase.
    pub loss: f64,
}

/// A piecewise bandwidth/loss schedule replayed against the link clock.
///
/// Phases apply in order; when `repeat` is set the schedule wraps,
/// otherwise the final phase persists past the end (the trace "settles").
/// A [`Link`] carrying a trace evaluates it at `trace_offset + now`, so a
/// transfer that starts mid-session sees the mid-session phase.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkTrace {
    /// The schedule, in order. Must be non-empty to have any effect.
    pub phases: Vec<TracePhase>,
    /// Wrap around at the end instead of holding the last phase.
    pub repeat: bool,
}

impl LinkTrace {
    /// Total scheduled ticks (one period when repeating).
    #[must_use]
    pub fn total_ticks(&self) -> u64 {
        self.phases.iter().map(|p| p.ticks).sum()
    }

    /// The phase in effect at `tick`, or `None` for an empty trace.
    #[must_use]
    pub fn at(&self, tick: u64) -> Option<&TracePhase> {
        if self.phases.is_empty() {
            return None;
        }
        let total = self.total_ticks();
        let mut t = if self.repeat && total > 0 {
            tick % total
        } else {
            tick
        };
        for phase in &self.phases {
            if t < phase.ticks {
                return Some(phase);
            }
            t -= phase.ticks;
        }
        self.phases.last()
    }

    /// A mobile-handoff trace: strong cell → fade → handoff gap (a burst
    /// of near-outage) → recovery → stronger new cell, repeating.
    #[must_use]
    pub fn mobile_handoff() -> Self {
        Self {
            phases: vec![
                TracePhase {
                    ticks: 2_000,
                    ticks_per_byte: 0.01,
                    loss: 0.001,
                },
                TracePhase {
                    ticks: 800,
                    ticks_per_byte: 0.05,
                    loss: 0.05,
                },
                TracePhase {
                    ticks: 400,
                    ticks_per_byte: 0.5,
                    loss: 0.30,
                },
                TracePhase {
                    ticks: 800,
                    ticks_per_byte: 0.02,
                    loss: 0.02,
                },
                TracePhase {
                    ticks: 2_000,
                    ticks_per_byte: 0.005,
                    loss: 0.001,
                },
            ],
            repeat: true,
        }
    }

    /// A bursty trace: long clean stretches punctuated by short
    /// high-loss windows at unchanged bandwidth.
    #[must_use]
    pub fn bursty() -> Self {
        Self {
            phases: vec![
                TracePhase {
                    ticks: 600,
                    ticks_per_byte: 0.01,
                    loss: 0.0,
                },
                TracePhase {
                    ticks: 80,
                    ticks_per_byte: 0.01,
                    loss: 0.45,
                },
            ],
            repeat: true,
        }
    }
}

/// Link configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Probability a frame is dropped (the i.i.d. rate; see
    /// [`LinkConfig::loss_model`]).
    pub loss: f64,
    /// Propagation delay in ticks.
    pub latency_ticks: u64,
    /// Serialization: ticks per byte (0 = infinite bandwidth).
    pub ticks_per_byte: f64,
    /// How the drop decision is made. [`LossModel::Iid`] reproduces the
    /// original single-draw behaviour exactly.
    pub loss_model: LossModel,
    /// Drop-tail bound on the transmitter queue in bytes. `None` (the
    /// default) is the original unbounded queue — bufferbloat; `Some(b)`
    /// tail-drops any frame that would push the serialized backlog past
    /// `b` bytes.
    pub queue_bytes: Option<usize>,
}

impl Default for LinkConfig {
    /// Lossless, 5-tick latency, 100 bytes per tick, i.i.d. loss,
    /// unbounded queue.
    fn default() -> Self {
        Self {
            loss: 0.0,
            latency_ticks: 5,
            ticks_per_byte: 0.01,
            loss_model: LossModel::Iid,
            queue_bytes: None,
        }
    }
}

impl LinkConfig {
    /// A lossy variant of this configuration.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside the closed interval `[0, 1]`.
    /// `loss = 1.0` is a blackout: every frame drops, so a transfer
    /// fails fast via the retransmit cap rather than spinning to the
    /// deadline.
    #[must_use]
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0, 1]");
        self.loss = loss;
        self
    }

    /// A variant with a bounded drop-tail transmitter queue.
    #[must_use]
    pub fn with_queue_bytes(mut self, bytes: usize) -> Self {
        self.queue_bytes = Some(bytes);
        self
    }

    /// A variant with a different loss model.
    #[must_use]
    pub fn with_loss_model(mut self, model: LossModel) -> Self {
        self.loss_model = model;
        self
    }
}

/// A frame in flight.
#[derive(Debug, Clone)]
struct InFlight {
    deliver_at: u64,
    payload: Vec<u8>,
}

/// One direction of a link.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    rng: Xoroshiro128,
    /// In flight, sorted by `deliver_at` (see the module's arrival-order
    /// note).
    queue: VecDeque<InFlight>,
    /// When the transmitter finishes serializing its current frame.
    tx_free_at: u64,
    /// Gilbert–Elliott channel state (`true` = bad).
    ge_bad: bool,
    trace: Option<LinkTrace>,
    trace_offset: u64,
    sent: u64,
    dropped: u64,
    queue_drops: u64,
    delivered: u64,
}

impl Link {
    /// Creates a link.
    #[must_use]
    pub fn new(config: LinkConfig, seed: u64) -> Self {
        Self {
            config,
            rng: Xoroshiro128::new(seed),
            queue: VecDeque::new(),
            tx_free_at: 0,
            ge_bad: false,
            trace: None,
            trace_offset: 0,
            sent: 0,
            dropped: 0,
            queue_drops: 0,
            delivered: 0,
        }
    }

    /// Creates a link driven by a bandwidth/loss trace, evaluated at
    /// `trace_offset + now` so the link can join a schedule mid-flight.
    #[must_use]
    pub fn traced(config: LinkConfig, trace: LinkTrace, trace_offset: u64, seed: u64) -> Self {
        let mut link = Self::new(config, seed);
        link.trace = Some(trace);
        link.trace_offset = trace_offset;
        link
    }

    /// The serialization rate and i.i.d. loss in effect at `now` (the
    /// trace phase when one is active, the base config otherwise).
    fn effective(&self, now: u64) -> (f64, f64) {
        match self
            .trace
            .as_ref()
            .and_then(|t| t.at(self.trace_offset + now))
        {
            Some(phase) => (phase.ticks_per_byte, phase.loss),
            None => (self.config.ticks_per_byte, self.config.loss),
        }
    }

    /// Offers a frame for transmission at time `now`. Returns the tick at
    /// which the frame finishes serializing onto the wire — the moment a
    /// sender's retransmission clock should start, since a frame queued
    /// behind `tx_free_at` has not been transmitted yet. Dropped frames
    /// still return their would-be transmit-complete time (the sender
    /// cannot observe the drop); tail-dropped frames never reach the
    /// transmitter and return `now`.
    ///
    /// The serialization rate and loss are sampled at transmit start and
    /// held for the whole frame.
    pub fn send(&mut self, payload: Vec<u8>, now: u64) -> u64 {
        self.sent += 1;
        let (ticks_per_byte, loss) = self.effective(now);
        if let Some(limit) = self.config.queue_bytes {
            // Serialized backlog in bytes, derived from how far ahead of
            // `now` the transmitter is already committed.
            let backlog = if ticks_per_byte > 0.0 {
                (self.tx_free_at.saturating_sub(now) as f64 / ticks_per_byte).ceil() as usize
            } else {
                0
            };
            if backlog + payload.len() > limit {
                self.dropped += 1;
                self.queue_drops += 1;
                return now;
            }
        }
        let serialize = (payload.len() as f64 * ticks_per_byte).ceil() as u64;
        let start = now.max(self.tx_free_at);
        self.tx_free_at = start + serialize;
        let tx_complete = self.tx_free_at;
        if self.drop_draw(loss) {
            self.dropped += 1;
            return tx_complete;
        }
        let deliver_at = tx_complete + self.config.latency_ticks;
        debug_assert!(
            self.queue
                .back()
                .map_or(true, |f| f.deliver_at <= deliver_at),
            "the in-flight queue must stay in arrival order"
        );
        self.queue.push_back(InFlight {
            deliver_at,
            payload,
        });
        tx_complete
    }

    /// One drop decision. [`LossModel::Iid`] makes exactly one RNG draw
    /// per frame — the original sequence, bit-for-bit.
    fn drop_draw(&mut self, iid_loss: f64) -> bool {
        match self.config.loss_model {
            LossModel::Iid => self.rng.chance(iid_loss),
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                let flip = if self.ge_bad { p_exit_bad } else { p_enter_bad };
                if self.rng.chance(flip) {
                    self.ge_bad = !self.ge_bad;
                }
                let rate = if self.ge_bad { loss_bad } else { loss_good };
                self.rng.chance(rate)
            }
        }
    }

    /// Removes and returns the earliest frame if it has arrived by
    /// `now`. Repeated calls yield the arrived frames in arrival order.
    pub fn pop_arrived(&mut self, now: u64) -> Option<Vec<u8>> {
        if self.queue.front()?.deliver_at > now {
            return None;
        }
        self.delivered += 1;
        self.queue.pop_front().map(|f| f.payload)
    }

    /// Removes and returns every frame that has arrived by `now`, in
    /// arrival order.
    pub fn deliver(&mut self, now: u64) -> Vec<Vec<u8>> {
        std::iter::from_fn(|| self.pop_arrived(now)).collect()
    }

    /// The next delivery time, if any frame is in flight.
    #[must_use]
    pub fn next_arrival(&self) -> Option<u64> {
        self.queue.front().map(|f| f.deliver_at)
    }

    /// Frames offered.
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Frames lost (channel drops plus tail drops).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Frames tail-dropped by the bounded transmitter queue.
    #[must_use]
    pub fn queue_drops(&self) -> u64 {
        self.queue_drops
    }

    /// Frames handed to the receiver.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_link_delivers_everything_in_order() {
        let mut link = Link::new(LinkConfig::default(), 1);
        for i in 0..5u8 {
            link.send(vec![i], i as u64);
        }
        let got = link.deliver(1_000);
        assert_eq!(got.len(), 5);
        for (i, frame) in got.iter().enumerate() {
            assert_eq!(frame[0], i as u8);
        }
    }

    #[test]
    fn latency_delays_delivery() {
        let mut link = Link::new(LinkConfig::default(), 2);
        link.send(vec![1], 0);
        assert!(link.deliver(3).is_empty(), "too early");
        assert_eq!(link.deliver(100).len(), 1);
    }

    #[test]
    fn serialization_delay_scales_with_size() {
        let cfg = LinkConfig {
            latency_ticks: 0,
            ticks_per_byte: 1.0,
            ..LinkConfig::default()
        };
        let mut link = Link::new(cfg, 3);
        link.send(vec![0u8; 100], 0);
        assert!(link.deliver(50).is_empty());
        assert_eq!(link.deliver(100).len(), 1);
    }

    #[test]
    fn loss_rate_is_respected() {
        let mut link = Link::new(LinkConfig::default().with_loss(0.3), 4);
        for i in 0..10_000 {
            link.send(vec![0], i);
        }
        let rate = link.dropped() as f64 / link.sent() as f64;
        assert!((rate - 0.3).abs() < 0.02, "drop rate {rate}");
    }

    #[test]
    fn back_to_back_sends_queue_on_the_transmitter() {
        let cfg = LinkConfig {
            latency_ticks: 0,
            ticks_per_byte: 1.0,
            ..LinkConfig::default()
        };
        let mut link = Link::new(cfg, 5);
        link.send(vec![0u8; 10], 0);
        link.send(vec![0u8; 10], 0);
        // Second frame serializes after the first: arrives at t=20.
        assert_eq!(link.deliver(10).len(), 1);
        assert_eq!(link.deliver(20).len(), 1);
    }

    #[test]
    fn send_reports_transmit_complete_time() {
        let cfg = LinkConfig {
            latency_ticks: 7,
            ticks_per_byte: 1.0,
            ..LinkConfig::default()
        };
        let mut link = Link::new(cfg, 6);
        // 10 bytes at 1 tick/byte: wire-complete at 10, then 20.
        assert_eq!(link.send(vec![0u8; 10], 0), 10);
        assert_eq!(link.send(vec![0u8; 10], 0), 20);
        // An idle gap: offered at 100, done at 110.
        assert_eq!(link.send(vec![0u8; 10], 100), 110);
    }

    #[test]
    fn delivery_follows_arrival_order_across_rate_changes() {
        // Frames of mixed sizes on a trace whose rate changes, offered
        // at irregular (even backwards) ticks: tick by tick, delivery
        // equals a model that filters every in-flight frame by arrival
        // tick and stable-sorts them.
        let trace = LinkTrace {
            phases: vec![
                TracePhase {
                    ticks: 40,
                    ticks_per_byte: 0.5,
                    loss: 0.2,
                },
                TracePhase {
                    ticks: 25,
                    ticks_per_byte: 0.0,
                    loss: 0.0,
                },
            ],
            repeat: true,
        };
        let cfg = LinkConfig {
            latency_ticks: 3,
            ..LinkConfig::default()
        };
        let mut link = Link::traced(cfg, trace, 7, 14);
        let mut rng = Xoroshiro128::new(15);
        let mut model: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut now = 0u64;
        for id in 0..400u32 {
            now = (now + u64::from(rng.next_u32() % 6)).saturating_sub(2);
            let frame = id.to_be_bytes().repeat(1 + (rng.next_u32() % 9) as usize);
            let dropped = link.dropped();
            let done = link.send(frame.clone(), now);
            if link.dropped() == dropped {
                model.push((done + cfg.latency_ticks, frame));
            }
            let tick = now + u64::from(rng.next_u32() % 4);
            let mut due: Vec<_> = model.iter().filter(|(t, _)| *t <= tick).cloned().collect();
            due.sort_by_key(|(t, _)| *t);
            model.retain(|(t, _)| *t > tick);
            let want: Vec<Vec<u8>> = due.into_iter().map(|(_, f)| f).collect();
            assert_eq!(link.deliver(tick), want, "frame {id} at tick {tick}");
            assert_eq!(link.next_arrival(), model.iter().map(|(t, _)| *t).min());
        }
    }

    #[test]
    fn next_arrival_reports_earliest() {
        let mut link = Link::new(LinkConfig::default(), 6);
        assert_eq!(link.next_arrival(), None);
        link.send(vec![1], 0);
        assert!(link.next_arrival().is_some());
    }

    #[test]
    #[should_panic(expected = "loss must be")]
    fn bad_loss_rejected() {
        let _ = LinkConfig::default().with_loss(1.5);
    }

    #[test]
    fn total_loss_is_accepted_and_drops_everything() {
        let mut link = Link::new(LinkConfig::default().with_loss(1.0), 7);
        for i in 0..100 {
            link.send(vec![0], i);
        }
        assert_eq!(link.dropped(), 100);
        assert!(link.deliver(1_000_000).is_empty());
    }

    #[test]
    fn bounded_queue_tail_drops_a_burst() {
        let cfg = LinkConfig {
            latency_ticks: 0,
            ticks_per_byte: 1.0,
            ..LinkConfig::default()
        }
        .with_queue_bytes(25);
        let mut link = Link::new(cfg, 8);
        // Four 10-byte frames offered back-to-back: the first enters an
        // empty queue, the second and part of the backlog fit under 25
        // bytes, the rest tail-drop.
        let mut accepted = 0u64;
        for _ in 0..4 {
            let before = link.queue_drops();
            link.send(vec![0u8; 10], 0);
            if link.queue_drops() == before {
                accepted += 1;
            }
        }
        assert!(accepted < 4, "the burst must overflow the bound");
        assert!(link.queue_drops() > 0);
        assert_eq!(accepted + link.queue_drops(), 4);
        // Every accepted frame still delivers.
        assert_eq!(link.deliver(1_000).len() as u64, accepted);
    }

    #[test]
    fn bounded_queue_accepts_when_drained() {
        let cfg = LinkConfig {
            latency_ticks: 0,
            ticks_per_byte: 1.0,
            ..LinkConfig::default()
        }
        .with_queue_bytes(15);
        let mut link = Link::new(cfg, 9);
        assert_eq!(link.send(vec![0u8; 10], 0), 10);
        // Immediately after, the backlog rejects another 10 bytes...
        link.send(vec![0u8; 10], 0);
        assert_eq!(link.queue_drops(), 1);
        // ...but once the transmitter drains, the same frame fits.
        let done = link.send(vec![0u8; 10], 50);
        assert_eq!(done, 60);
        assert_eq!(link.queue_drops(), 1);
    }

    #[test]
    fn gilbert_elliott_clusters_losses() {
        // Compare the longest loss run between i.i.d. and GE at the same
        // long-run loss rate: bursts must show up as much longer runs.
        let ge = LossModel::GilbertElliott {
            p_enter_bad: 0.01,
            p_exit_bad: 0.09,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        // Stationary rate: 0.01 / 0.10 = 10% loss.
        let mut iid = Link::new(LinkConfig::default().with_loss(0.1), 10);
        let mut bursty = Link::new(LinkConfig::default().with_loss_model(ge), 10);
        let run = |link: &mut Link| {
            let mut longest = 0u32;
            let mut current = 0u32;
            for i in 0..20_000u64 {
                let before = link.dropped();
                link.send(vec![0], i);
                if link.dropped() > before {
                    current += 1;
                    longest = longest.max(current);
                } else {
                    current = 0;
                }
            }
            longest
        };
        let iid_run = run(&mut iid);
        let ge_run = run(&mut bursty);
        assert!(
            ge_run > iid_run * 2,
            "GE longest run {ge_run} must dwarf i.i.d. {iid_run}"
        );
    }

    #[test]
    fn trace_phases_change_the_serialization_rate() {
        let trace = LinkTrace {
            phases: vec![
                TracePhase {
                    ticks: 100,
                    ticks_per_byte: 1.0,
                    loss: 0.0,
                },
                TracePhase {
                    ticks: 100,
                    ticks_per_byte: 10.0,
                    loss: 0.0,
                },
            ],
            repeat: false,
        };
        let cfg = LinkConfig {
            latency_ticks: 0,
            ..LinkConfig::default()
        };
        let mut link = Link::traced(cfg, trace, 0, 11);
        // Phase 0: 10 bytes at 1 tick/byte.
        assert_eq!(link.send(vec![0u8; 10], 0), 10);
        // Phase 1: 10 bytes at 10 ticks/byte.
        assert_eq!(link.send(vec![0u8; 10], 150), 250);
        // Past the end the last phase persists.
        assert_eq!(link.send(vec![0u8; 10], 1_000), 1_100);
    }

    #[test]
    fn trace_offset_joins_mid_schedule() {
        let trace = LinkTrace {
            phases: vec![
                TracePhase {
                    ticks: 100,
                    ticks_per_byte: 1.0,
                    loss: 0.0,
                },
                TracePhase {
                    ticks: 100,
                    ticks_per_byte: 10.0,
                    loss: 0.0,
                },
            ],
            repeat: true,
        };
        let cfg = LinkConfig {
            latency_ticks: 0,
            ..LinkConfig::default()
        };
        // Offset 150 puts local tick 0 inside phase 1.
        let mut link = Link::traced(cfg, trace.clone(), 150, 12);
        assert_eq!(link.send(vec![0u8; 10], 0), 100);
        // Repetition: local tick 50 + offset 150 = 200 ≡ 0 (mod 200).
        let mut wrapped = Link::traced(cfg, trace, 150, 13);
        assert_eq!(wrapped.send(vec![0u8; 10], 50), 60);
    }

    #[test]
    fn trace_lookup_is_piecewise_and_wraps() {
        let trace = LinkTrace::mobile_handoff();
        let period = trace.total_ticks();
        assert!(trace.repeat);
        let first = trace.at(0).unwrap();
        assert_eq!(first.ticks_per_byte, 0.01);
        let again = trace.at(period).unwrap();
        assert_eq!(first, again, "repeat must wrap to phase 0");
        // The handoff gap sits after the first two phases.
        let gap = trace.at(2_000 + 800).unwrap();
        assert_eq!(gap.ticks_per_byte, 0.5);
    }
}
