//! # `mmbench` — shared helpers for the experiment harness
//!
//! Every table and figure claim (README, *Experiments*) has a runnable
//! regenerator in `src/bin/exp_e*.rs`, and the hot kernels are timed as
//! rows of `exp_e19_perf` through [`perf`]. This library holds the workload
//! constructors those binaries share, so every experiment uses the same
//! seeds and sizes.

use mmstream::catalog::Catalog;
use mmstream::edge::EdgeTierConfig;
use mmstream::ladder::{encode_ladder, LadderConfig};
use mmstream::serve::{CdnConfig, EngineStats, LiveConfig, LoadConfig, Scenario};
use mmstream::session::JoinMode;
use video::encoder::EncoderConfig;
use video::frame::Frame;
use video::synth::SequenceGen;

pub mod perf;

/// The canonical seed for every experiment workload.
pub const SEED: u64 = 2005; // the paper's year

/// The calibration video used by the codec experiments: panning texture.
#[must_use]
pub fn test_video(width: usize, height: usize, frames: usize) -> Vec<Frame> {
    SequenceGen::new(SEED).panning_sequence(width, height, frames, 2, 1)
}

/// The default CIF spec used in encoder experiments.
#[must_use]
pub fn cif_spec() -> mmsoc::VideoPipelineSpec {
    mmsoc::VideoPipelineSpec {
        width: 352,
        height: 288,
        config: EncoderConfig::default(),
    }
}

/// Test music: 44.1 kHz harmonic material, `frames` MPEG frames long.
#[must_use]
pub fn test_music(frames: usize) -> Vec<f64> {
    signal::gen::SignalGen::new(SEED).music(440.0, 44_100.0, frames * audio::encoder::FRAME_SAMPLES)
}

/// Test speech: 8 kHz sentence of `frames` RPE-LTP frames.
#[must_use]
pub fn test_speech(frames: usize) -> Vec<f64> {
    signal::gen::SignalGen::new(SEED)
        .speech_sentence(8000.0, frames * audio::rpeltp::FRAME)
        .0
}

/// The E22 live title (64 QCIF-quarter frames, 3 rungs, 4-frame GOPs:
/// 16 segments) as a one-title catalog — the live workload of
/// `exp_e23_sim` and `exp_e26_par`.
#[must_use]
pub fn live_catalog() -> Catalog {
    let source = SequenceGen::new(12).panning_sequence(64, 48, 64, 1, 1);
    let cfg = LadderConfig {
        targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
        gop: 4,
        ..Default::default()
    };
    Catalog::single(
        encode_ladder("bench", &source, &cfg)
            .expect("ladder encodes")
            .manifest,
    )
}

/// A live scenario over `catalog`: viewers join at the live edge of an
/// 8-segment DVR window.
#[must_use]
pub fn live_scenario(catalog: &Catalog, cdn: CdnConfig, load: LoadConfig) -> Scenario<'_> {
    Scenario {
        live: Some(LiveConfig {
            dvr_window_segments: 8,
            join: JoinMode::LiveEdge,
            ..Default::default()
        }),
        ..Scenario::new(catalog, cdn, load)
    }
}

/// `exp_e23_sim`'s 1M-session live sweep at `sessions` viewers: four
/// edges provisioned for a million-viewer audience (each edge's
/// downlink carries its 250k viewers at the full access-link rate),
/// filled cold over the default 4,000 B/tick origin uplink.
#[must_use]
pub fn live_sweep(catalog: &Catalog, sessions: usize) -> Scenario<'_> {
    let tier = EdgeTierConfig {
        edges: 4,
        edge_capacity_bytes_per_tick: 2.5e7,
        prewarm: false,
        ..Default::default()
    };
    let load = LoadConfig {
        sessions,
        ..LoadConfig::default()
    };
    live_scenario(catalog, CdnConfig::flat(tier), load)
}

/// The fluid engine's ledger for one run as report metrics.
#[must_use]
pub fn engine_metrics(entry: perf::PerfEntry, e: &EngineStats) -> perf::PerfEntry {
    entry
        .metric("engine_cohorts", e.cohorts as f64)
        .metric("engine_peak_active", e.peak_active as f64)
        .metric("engine_quanta", e.quanta as f64)
        .metric("engine_cohort_quanta", e.cohort_quanta as f64)
        .metric("engine_full_path_steps", e.full_path_steps as f64)
}

/// Wall nanoseconds per cohort-quantum: the fluid engine's cost in its
/// own unit of work.
#[must_use]
pub fn ns_per_cohort_quantum(e: &EngineStats, wall_s: f64) -> f64 {
    wall_s * 1e9 / e.cohort_quanta.max(1) as f64
}

/// One printable line of the engine's ledger for a run that took
/// `wall_s` seconds.
#[must_use]
pub fn engine_line(e: &EngineStats, wall_s: f64) -> String {
    format!(
        "engine: {} cohorts (peak {} active), {} quanta, {} cohort-quanta, \
         {} full-path steps, {:.1} ns/cohort-quantum",
        e.cohorts,
        e.peak_active,
        e.quanta,
        e.cohort_quanta,
        e.full_path_steps,
        ns_per_cohort_quantum(e, wall_s),
    )
}

/// Prints the experiment banner every binary starts with.
pub fn banner(id: &str, claim: &str) {
    println!("=== {id} ===");
    println!("paper claim: {claim}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_requested_sizes() {
        assert_eq!(test_video(64, 48, 5).len(), 5);
        assert_eq!(test_music(2).len(), 2 * 1152);
        assert_eq!(test_speech(3).len(), 3 * 160);
    }

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(test_video(32, 32, 2), test_video(32, 32, 2));
        assert_eq!(test_music(1), test_music(1));
    }
}
