//! Bridge from the real head-end to the MPSoC model.
//!
//! The ladder encoder measures what each rung actually cost
//! ([`crate::ladder::RungCost`]: encoder stage tallies + elementary
//! stream bytes) and what each segment actually weighs (the manifest's
//! wire byte counts). This module folds those measurements into the
//! *single* staged head-end definition — an
//! [`mpsoc::headend::HeadendSpec`] — that is consumed two ways:
//!
//! * **Modeled**: `spec.task_graph()` maps the capture → per-rung
//!   encode → mux → seal → publish pipeline across MPSoC platform
//!   configurations, yielding latency/energy per PE count.
//! * **Executed**: the same per-rung stages run as
//!   [`crate::ladder::encode_rung`] work units across host threads
//!   through `mmpool::WorkerPool::map`
//!   ([`crate::ladder::encode_ladder_on`]), yielding measured
//!   core-count scaling on the host.
//!
//! Because the spec is derived from a really-encoded ladder, the graph
//! the simulator schedules carries *measured* op counts and byte
//! volumes, not guesses — closing the loop between the paper's
//! platform model and the streaming stack built around it.

use mpsoc::headend::{EncodeTally, HeadendSpec};
use video::Frame;

use crate::ladder::Ladder;

/// Derives the staged head-end spec from a measured ladder and the raw
/// source it was encoded from.
///
/// Per rung: the encoder's measured [`StageTally`] becomes the encode
/// task's [`EncodeTally`] (SAD pixel ops, transform MACs, quantized
/// coefficients, VLC symbols, MC pixels), the summed elementary-stream
/// bytes weight the encode→mux edge, and the manifest's summed segment
/// sizes weight the rung's share of the mux→seal→publish chain. The
/// capture fan-out carries the raw 4:2:0 source volume.
///
/// [`StageTally`]: video::encoder::StageTally
///
/// # Panics
///
/// Panics if `ladder.rung_costs` is not parallel to `manifest.rungs` —
/// only possible for a hand-assembled ladder.
#[must_use]
pub fn headend_spec(ladder: &Ladder, source: &[Frame]) -> HeadendSpec {
    assert_eq!(
        ladder.rung_costs.len(),
        ladder.manifest.rungs.len(),
        "rung costs must be parallel to manifest rungs"
    );
    let source_bytes: u64 = source
        .iter()
        .map(|f| (f.luma().len() + f.cb().len() + f.cr().len()) as u64)
        .sum();
    let mut spec = HeadendSpec::new(ladder.manifest.title.clone(), source_bytes);
    for (rung, cost) in ladder.manifest.rungs.iter().zip(&ladder.rung_costs) {
        let wire_bytes: u64 = rung.segments.iter().map(|s| s.bytes as u64).sum();
        let tally = EncodeTally {
            sad_evaluations: cost.tally.me_sad_evaluations,
            sad_pixel_ops: cost.tally.me_pixel_ops,
            transform_macs: cost.tally.dct_macs(),
            quant_coeffs: cost.tally.quant_coeffs,
            vlc_symbols: cost.tally.vlc_symbols,
            mc_pixels: cost.tally.mc_pixels,
        };
        spec.push_rung(tally, cost.es_bytes, wire_bytes);
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::{encode_ladder, LadderConfig};
    use video::synth::SequenceGen;

    fn ladder_and_source() -> (Ladder, Vec<Frame>) {
        let frames = SequenceGen::new(7).panning_sequence(64, 48, 8, 1, 1);
        let cfg = LadderConfig {
            targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
            gop: 4,
            ..Default::default()
        };
        let ladder = encode_ladder("spec", &frames, &cfg).expect("ladder encodes");
        (ladder, frames)
    }

    #[test]
    fn spec_mirrors_the_measured_ladder() {
        let (ladder, frames) = ladder_and_source();
        let spec = headend_spec(&ladder, &frames);
        assert_eq!(spec.rung_count(), 3);
        // Source volume: 4:2:0 planes over all frames.
        assert_eq!(spec.source_bytes, (64 * 48 * 3 / 2) * 8);
        // Wire bytes match the manifest exactly.
        let manifest_wire: u64 = ladder
            .manifest
            .rungs
            .iter()
            .flat_map(|r| r.segments.iter())
            .map(|s| s.bytes as u64)
            .sum();
        assert_eq!(spec.wire_bytes(), manifest_wire);
        // Measured tallies survive the translation.
        for (stage, cost) in spec.rungs.iter().zip(&ladder.rung_costs) {
            assert_eq!(stage.tally.sad_evaluations, cost.tally.me_sad_evaluations);
            assert_eq!(stage.tally.transform_macs, cost.tally.dct_macs());
            assert_eq!(stage.es_bytes, cost.es_bytes);
            assert!(stage.tally.vlc_symbols > 0, "rung emitted symbols");
        }
        // Higher rungs spend more bits, so their wire share ascends.
        assert!(spec
            .rungs
            .windows(2)
            .all(|w| w[0].wire_bytes < w[1].wire_bytes));
    }

    #[test]
    fn spec_builds_the_pipeline_graph() {
        let (ladder, frames) = ladder_and_source();
        let g = headend_spec(&ladder, &frames).task_graph();
        assert_eq!(g.task_count(), 3 + 4);
        assert_eq!(g.edge_count(), 2 * 3 + 2);
        assert!(g.topological_order().is_ok());
        // The encode stages dominate the op budget (real encoders do).
        let total = g.total_ops().total();
        let encode: u64 = g
            .tasks()
            .iter()
            .filter(|t| t.name.starts_with("encode_r"))
            .map(|t| t.ops.total())
            .sum();
        assert!(encode * 2 > total, "encode {encode} of {total}");
    }
}
