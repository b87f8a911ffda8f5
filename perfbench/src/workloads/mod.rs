//! The four workloads and what they share: the synthetic source, the
//! rate ladder, and the session/cache tallies the packet-level
//! workloads report.

pub mod fleet;
pub mod knee;
pub mod live;
pub mod vod;

use mmstream::edge::EdgeStats;
use mmstream::ladder::LadderConfig;
use mmstream::session::{SessionError, SessionReport};
use video::synth::SequenceGen;
use video::Frame;

use crate::{percentile, Measured};

/// The scene every source pans across.
const SCENE_SEED: u64 = 12;
/// Standard deviation of the per-frame sensor noise, in luma levels.
const SENSOR_NOISE: f64 = 1.5;

/// A synthetic camera: the capture stage of the head-end. The scene and
/// its motion are fixed and the seed draws the sensor noise, so every
/// seed gives a different source that asks the encoder for the same
/// amount of work.
pub(crate) fn capture(seed: u64, width: usize, height: usize, frames: usize) -> Vec<Frame> {
    let mut frames = SequenceGen::new(SCENE_SEED).panning_sequence(width, height, frames, 1, 1);
    let mut sensor = SequenceGen::new(seed);
    for f in &mut frames {
        sensor.add_noise(f, SENSOR_NOISE);
    }
    frames
}

/// A ladder of `rungs` rate targets spaced geometrically from 2,000 to
/// 18,000 bits per frame (the band the repository's experiments use).
pub(crate) fn ladder_config(rungs: usize, gop: usize) -> LadderConfig {
    let targets = (0..rungs)
        .map(|i| 2_000.0 * 9f64.powf(i as f64 / (rungs - 1).max(1) as f64))
        .collect();
    LadderConfig {
        targets_bits_per_frame: targets,
        gop,
        ..Default::default()
    }
}

/// Per-session outcomes collected over a run's timed iterations.
#[derive(Debug, Default)]
pub(crate) struct SessionTally {
    host_ms: Vec<f64>,
    startup_ticks: Vec<f64>,
    count: u64,
    failed: u64,
    rebuffered: u64,
    fetch_retries: u64,
    delivered_bytes: u64,
    rung_sum: f64,
    rung_switches: u64,
}

impl SessionTally {
    /// Records one session that took `host_ms` of host time.
    pub(crate) fn record(&mut self, host_ms: f64, result: &Result<SessionReport, SessionError>) {
        self.count += 1;
        self.host_ms.push(host_ms);
        match result {
            Ok(r) => {
                self.startup_ticks.push(r.startup_delay_ticks as f64);
                self.rebuffered += u64::from(r.rebuffer_events > 0);
                self.fetch_retries += u64::from(r.fetch_retries);
                self.delivered_bytes += r.delivered_bits / 8;
                self.rung_sum += r.mean_rung();
                self.rung_switches += u64::from(r.rung_switches);
            }
            Err(_) => self.failed += 1,
        }
    }

    /// Sessions recorded.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Sessions that failed.
    pub(crate) fn failed(&self) -> u64 {
        self.failed
    }

    /// Nearest-rank percentile of the startup delay, in ticks.
    pub(crate) fn startup_percentile(&mut self, q: f64) -> f64 {
        percentile(&mut self.startup_ticks, q)
    }

    /// Nearest-rank percentile of the host time per session, in ms.
    pub(crate) fn ms_percentile(&mut self, q: f64) -> f64 {
        percentile(&mut self.host_ms, q)
    }

    /// Sessions that stalled at least once after startup, per session.
    pub(crate) fn rebuffer_frac(&self) -> f64 {
        self.rebuffered as f64 / self.count.max(1) as f64
    }

    /// Writes the `session.*` layer, counts per timed iteration.
    pub(crate) fn report(&mut self, m: &mut Measured, iterations: usize) {
        let per_iter = |v: u64| v as f64 / iterations.max(1) as f64;
        let completed = (self.count - self.failed).max(1) as f64;
        m.layer("session.ms_p50", self.ms_percentile(0.50));
        m.layer("session.ms_p98", self.ms_percentile(0.98));
        m.layer("session.count", per_iter(self.count));
        m.layer("session.failed", per_iter(self.failed));
        m.layer("session.fetch_retries", per_iter(self.fetch_retries));
        m.layer("session.delivered_bytes", per_iter(self.delivered_bytes));
        m.layer("session.mean_rung", self.rung_sum / completed);
        m.layer("session.rung_switches", per_iter(self.rung_switches));
    }
}

/// The `edge.*` cache-layer metric names, in [`report_cache`] order.
pub(crate) const EDGE_LAYER: [&str; 6] = [
    "edge.hits",
    "edge.misses",
    "edge.evictions",
    "edge.hit_rate",
    "edge.fill_bytes",
    "edge.origin_fills",
];

/// The `shield.*` cache-layer metric names, in [`report_cache`] order.
pub(crate) const SHIELD_LAYER: [&str; 6] = [
    "shield.hits",
    "shield.misses",
    "shield.evictions",
    "shield.hit_rate",
    "shield.fill_bytes",
    "shield.origin_fills",
];

/// Writes one cache tier's layer from its merged stats and the number
/// of fills it started from its parent.
pub(crate) fn report_cache(
    m: &mut Measured,
    names: &[&'static str; 6],
    stats: &EdgeStats,
    fills: u64,
) {
    let values = [
        stats.hits as f64,
        stats.misses as f64,
        stats.evictions as f64,
        stats.hit_rate(),
        stats.origin_bytes as f64,
        fills as f64,
    ];
    for (&name, value) in names.iter().zip(values) {
        m.layer(name, value);
    }
}
