//! E21 — the edge-cache delivery tier harness.
//!
//! Measures the `mmstream::edge` tier and writes the machine-readable
//! `BENCH_edge.json` that extends the repo's perf trajectory:
//!
//! * **Hit rate vs cache size**: a cold 4-edge tier serving 500
//!   sessions, with per-edge caches from 1/8 of the title to unbounded.
//! * **Capacity knee vs edge count**: the sessions-vs-rebuffer curve for
//!   1/2/4/8 warm edges, each with the PR 3 single-origin uplink
//!   (4,000 bytes/tick). The headline claim — asserted in-binary before
//!   anything is written — is that ≥4 warm edges move the knee to at
//!   least 2x the single-origin knee at the same per-link capacity.
//! * **Origin outage**: a warm tier's report is bit-identical with the
//!   origin up or down — offload is total.
//!
//! All numbers are seed-deterministic (asserted by re-running a level).

use crate::perf::{PerfEntry, PerfReport};
use crate::{cold_tier, vod_catalog, warm_tier};
use mmstream::edge::EdgeTierConfig;
use mmstream::serve::{curve_knee, simulate, sweep, CdnConfig, LoadConfig, Scenario};

/// Runs the harness, filling `report`.
pub fn run(report: &mut PerfReport) {
    // Same title as E20, so the knees are directly comparable.
    let catalog = vod_catalog();
    let title_bytes: usize = catalog.titles()[0]
        .rungs
        .iter()
        .flat_map(|r| r.segments.iter().map(|s| s.bytes))
        .sum();
    let base = LoadConfig::default();
    let flat = |tier, load| Scenario::new(&catalog, CdnConfig::flat(tier), load);

    // ---- Hit rate vs per-edge cache size (cold caches, 500 sessions).
    println!("hit rate vs cache size (4 cold edges, 500 sessions):");
    println!(
        "  {:>12} {:>9} {:>9} {:>10} {:>10}",
        "cache", "hit%", "offload%", "evictions", "origin_kB"
    );
    let load_500 = LoadConfig {
        sessions: 500,
        ..base
    };
    let mut last_hit = -1.0f64;
    for (label, cap) in [
        ("1/8 title", title_bytes / 8),
        ("1/4 title", title_bytes / 4),
        ("1/2 title", title_bytes / 2),
        ("1x title", title_bytes),
        ("unbounded", usize::MAX),
    ] {
        let tier = EdgeTierConfig {
            cache_capacity_bytes: cap,
            ..cold_tier(4)
        };
        let r = simulate(&flat(tier, load_500)).edge;
        assert_eq!(r.load.completed, 500, "every session completes ({label})");
        println!(
            "  {:>12} {:>8.1}% {:>8.1}% {:>10} {:>10.1}",
            label,
            100.0 * r.hit_rate,
            100.0 * r.origin_offload,
            r.tier.evictions,
            r.tier.origin_bytes as f64 / 1e3,
        );
        report.push(
            PerfEntry::new(&format!("hitrate_cache_{}", label.replace([' ', '/'], "_")))
                .metric("cache_capacity_bytes", cap.min(1 << 50) as f64)
                .metric("hit_rate", r.hit_rate)
                .metric("origin_offload", r.origin_offload)
                .metric("evictions", r.tier.evictions as f64)
                .metric("origin_bytes", r.tier.origin_bytes as f64),
        );
        assert!(
            r.hit_rate >= last_hit,
            "hit rate must not fall as the cache grows"
        );
        last_hit = r.hit_rate;
    }

    // ---- Single-origin baseline knee (regenerated).
    let counts = [200usize, 1_000, 2_000, 4_000, 8_000, 16_000];
    let single_counts = &counts[..4];
    let single = Scenario::new(&catalog, CdnConfig::single_origin(), base);
    let single_knee = curve_knee(&sweep(&single, single_counts, None), 0.05)
        .expect("single origin sustains some level");
    println!("\nsingle-origin knee (<=5% rebuffering): {single_knee} sessions");
    report.push(
        PerfEntry::new("single_origin_knee")
            .metric("knee_sessions", single_knee as f64)
            .metric("uplink_bytes_per_tick", 4_000.0),
    );

    // ---- Capacity knee vs warm edge count, same per-link capacity.
    println!("\ncapacity knee vs edge count (warm edges, 4,000 B/tick each):");
    let mut knee_4 = 0usize;
    for edges in [1usize, 2, 4, 8] {
        let curve = sweep(&flat(warm_tier(edges), base), &counts, None);
        assert!(curve
            .iter()
            .map(|r| &r.edge.load)
            .all(|l| l.completed == l.sessions || l.rebuffer_fraction > 0.05));
        let knee = curve_knee(&curve, 0.05).expect("tier sustains some level");
        if edges == 4 {
            knee_4 = knee;
            for r in curve.iter().map(|r| &r.edge) {
                report.push(
                    PerfEntry::new(&format!("edge4_load_{}_sessions", r.load.sessions))
                        .metric("sessions", r.load.sessions as f64)
                        .metric("completed", r.load.completed as f64)
                        .metric(
                            "mean_session_bits_per_tick",
                            r.load.mean_session_bits_per_tick,
                        )
                        .metric("rebuffer_fraction", r.load.rebuffer_fraction)
                        .metric("mean_rung", r.load.mean_rung)
                        .metric("hit_rate", r.hit_rate),
                );
            }
        }
        println!("  {edges} edges: knee {knee} sessions");
        report.push(
            PerfEntry::new(&format!("knee_{edges}_edges"))
                .metric("edges", edges as f64)
                .metric("knee_sessions", knee as f64)
                .metric("knee_vs_single_origin", knee as f64 / single_knee as f64),
        );
    }

    // The tentpole claim, gated before the report is written.
    assert!(
        knee_4 >= 2 * single_knee,
        "4 warm edges must at least double the single-origin knee: {knee_4} vs {single_knee}"
    );
    println!("\n4-edge knee {knee_4} >= 2x single-origin knee {single_knee}: ok");

    // ---- Warm edges make an origin outage invisible.
    let warm = warm_tier(4);
    let load_2k = LoadConfig {
        sessions: 2_000,
        ..base
    };
    let up = simulate(&flat(warm, load_2k));
    let down = simulate(&flat(
        EdgeTierConfig {
            origin_down_after: Some(0),
            ..warm
        },
        load_2k,
    ));
    assert_eq!(up, down, "warm edges never touch the origin");
    let up = up.edge;
    assert_eq!(up.tier.origin_bytes, 0);
    println!("origin outage with warm edges: report identical, 0 origin bytes");
    report.push(
        PerfEntry::new("warm_outage_invisible")
            .metric("sessions", 2_000.0)
            .metric("origin_bytes", up.tier.origin_bytes as f64)
            .metric("completed", up.load.completed as f64),
    );

    // ---- Determinism gate: an identical re-run must agree exactly.
    let replay = simulate(&flat(warm, load_2k)).edge;
    assert_eq!(
        replay, up,
        "edge load simulation must be deterministic for identical seeds"
    );
}
