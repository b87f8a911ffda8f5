//! The parallel head-end: the pooled encode and pooled capacity
//! curves must be *bit-identical* to their sequential drivers for any
//! worker count, and the merge must not depend on which shard happens
//! to finish first. Completion order is scrambled with seeded
//! busy-delays inside the jobs — the merged outputs never change.

use mmpool::WorkerPool;
use mmstream::catalog::Catalog;
use mmstream::ladder::{encode_ladder, encode_ladder_on, encode_rung, LadderConfig};
use mmstream::serve::{simulate, sweep, CdnConfig, LiveConfig, LoadConfig, Scenario};
use mmstream::session::JoinMode;
use mmstream::EdgeTierConfig;
use video::synth::SequenceGen;
use video::Frame;

fn source() -> Vec<Frame> {
    SequenceGen::new(41).panning_sequence(48, 32, 8, 1, 1)
}

fn ladder_config() -> LadderConfig {
    LadderConfig {
        targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
        gop: 4,
        ..Default::default()
    }
}

/// Burns a seeded, shard-dependent amount of CPU so that different
/// seeds drive different shard completion orders on a real pool.
fn scramble(seed: u64, shard: usize) -> u64 {
    let spins = (seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 40_000;
    let mut acc = seed;
    for k in 0..spins {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
    }
    acc
}

#[test]
fn pooled_ladder_encode_matches_sequential_for_every_worker_count() {
    let frames = source();
    let cfg = ladder_config();
    let sequential = encode_ladder("par", &frames, &cfg).expect("ladder encodes");
    for workers in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(workers);
        let pooled = encode_ladder_on(&pool, "par", &frames, &cfg).expect("ladder encodes");
        assert_eq!(pooled, sequential, "{workers} workers diverged");
    }
}

#[test]
fn pooled_capacity_curves_match_sequential_for_every_worker_count() {
    let frames = source();
    let manifest = encode_ladder("par", &frames, &ladder_config())
        .expect("ladder encodes")
        .manifest;
    let catalog = Catalog::single(manifest);
    let counts = [50usize, 100, 200, 400];
    let tier = CdnConfig::flat(EdgeTierConfig {
        edges: 2,
        ..Default::default()
    });
    let live = LiveConfig {
        dvr_window_segments: 4,
        join: JoinMode::LiveEdge,
        ..Default::default()
    };
    let scenario = |cdn, live| Scenario {
        live,
        ..Scenario::new(&catalog, cdn, LoadConfig::default())
    };
    for (name, s) in [
        ("VOD", scenario(CdnConfig::single_origin(), None)),
        ("edge", scenario(tier, None)),
        ("live", scenario(tier, Some(live))),
    ] {
        let sequential = sweep(&s, &counts, None);
        for workers in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            assert_eq!(
                sweep(&s, &counts, Some(&pool)),
                sequential,
                "{name} curve diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn scrambled_completion_order_cannot_change_the_merged_encode() {
    let frames = source();
    let cfg = ladder_config();
    let rungs: Vec<usize> = (0..cfg.targets_bits_per_frame.len()).collect();
    let baseline: Vec<_> = rungs
        .iter()
        .map(|&ri| encode_rung(&frames, &cfg, ri).expect("rung encodes"))
        .collect();
    for workers in [2usize, 4, 8] {
        for seed in [1u64, 7, 1234, 0xdead_beef] {
            let pool = WorkerPool::new(workers);
            let builds = pool.map(&rungs, |&ri| {
                std::hint::black_box(scramble(seed, ri));
                encode_rung(&frames, &cfg, ri).expect("rung encodes")
            });
            assert_eq!(
                builds, baseline,
                "seed {seed} at {workers} workers changed the merge"
            );
        }
    }
}

#[test]
fn scrambled_completion_order_cannot_change_the_merged_curve() {
    let frames = source();
    let manifest = encode_ladder("par", &frames, &ladder_config())
        .expect("ladder encodes")
        .manifest;
    let catalog = Catalog::single(manifest);
    let s = Scenario::new(&catalog, CdnConfig::single_origin(), LoadConfig::default());
    let counts = [50usize, 100, 200, 400];
    let baseline = sweep(&s, &counts, None);
    for seed in [3u64, 99, 0xfeed] {
        let pool = WorkerPool::new(4);
        let curve = pool.map(&counts, |&sessions| {
            std::hint::black_box(scramble(seed, sessions));
            simulate(&Scenario {
                load: LoadConfig { sessions, ..s.load },
                ..s
            })
        });
        assert_eq!(curve, baseline, "seed {seed} changed the merged curve");
    }
}
