//! E22 — live/linear delivery harness.
//!
//! Measures the live workload class end to end and writes the
//! machine-readable `BENCH_live.json` that extends the repo's perf
//! trajectory:
//!
//! * **Steady-state live capacity knee vs edge count**: viewers joining
//!   at the live edge, paced by the publish clock, for 1/2/4/8 cold
//!   edges at the PR 3 per-link capacity (4,000 bytes/tick). The knee
//!   must scale with edge count exactly as the VOD knee does — asserted
//!   in-binary: the 4-edge live knee is ≥ 2x the single-edge one.
//! * **Live latency vs DVR depth**: DvrStart joiners on an
//!   already-running channel; a deeper window means more catch-up
//!   distance, so mean live latency must grow monotonically with DVR
//!   depth (asserted).
//! * **The 10x flash crowd**: 300 steady viewers, then 3,000 more over
//!   a 1,000-tick ramp mid-event. The single origin collapses
//!   (rebuffer fraction > 5%); the warm 4-edge tier — warmed only
//!   organically, by the steady viewers — holds ≤ 5% rebuffering
//!   through the same spike, because every just-published live-edge
//!   segment crosses the origin once per edge while thousands of
//!   waiters coalesce onto that one fill. All three bars are asserted
//!   before anything is written.
//!
//! All numbers are seed-deterministic (asserted by re-running a level).

use crate::perf::{PerfEntry, PerfReport};
use crate::{cold_tier, flash_crowd, flash_crowd_bar, live_catalog, live_scenario};
use mmstream::serve::{
    curve_knee, simulate, sweep, CdnConfig, ChurnConfig, LiveConfig, LoadConfig, Scenario,
};
use mmstream::session::JoinMode;

/// Runs the harness, filling `report`.
pub fn run(report: &mut PerfReport) {
    // A 16-segment event (64 frames, GOP 4) at the natural publish
    // pace: 4 frames x 100 ticks = 400 ticks per segment.
    let catalog = live_catalog();
    let base = LoadConfig::default();
    let live = |cdn, load| live_scenario(&catalog, cdn, load);

    // ---- Steady-state live knee vs edge count.
    println!("live capacity knee vs edge count (live-edge joins, 4,000 B/tick per link):");
    let counts = [500usize, 1_000, 2_000, 4_000, 8_000];
    let mut knee_1 = 0usize;
    let mut knee_4 = 0usize;
    for edges in [1usize, 2, 4, 8] {
        let curve = sweep(&live(CdnConfig::flat(cold_tier(edges)), base), &counts, None);
        let knee = curve_knee(&curve, 0.05).expect("tier sustains some live level");
        match edges {
            1 => knee_1 = knee,
            4 => knee_4 = knee,
            _ => {}
        }
        println!("  {edges} edges: knee {knee} sessions");
        report.push(
            PerfEntry::new(&format!("live_knee_{edges}_edges"))
                .metric("edges", edges as f64)
                .metric("knee_sessions", knee as f64),
        );
        if edges == 4 {
            for r in &curve {
                report.push(
                    PerfEntry::new(&format!(
                        "live_edge4_load_{}_sessions",
                        r.edge.load.sessions
                    ))
                    .metric("sessions", r.edge.load.sessions as f64)
                    .metric("rebuffer_fraction", r.edge.load.rebuffer_fraction)
                    .metric("mean_live_latency_ticks", r.live.mean_latency_ticks)
                    .metric("hit_rate", r.edge.hit_rate),
                );
            }
        }
    }
    assert!(
        knee_4 >= 2 * knee_1,
        "4 edges must at least double the live knee: {knee_4} vs {knee_1}"
    );
    println!("4-edge live knee {knee_4} >= 2x single-edge knee {knee_1}: ok\n");

    // ---- Live latency vs DVR depth: DvrStart joiners on a channel
    // that already published the whole event.
    println!("live latency vs DVR depth (DvrStart joins, 400-tick segments):");
    let mut last_mean = 0.0f64;
    for dvr in [2u64, 4, 8, 16] {
        let lc = LiveConfig {
            dvr_window_segments: dvr,
            head_start_segments: catalog.titles()[0].segment_count() as u64 - 1,
            join: JoinMode::DvrStart,
            ..Default::default()
        };
        let r = simulate(&Scenario {
            live: Some(lc),
            ..Scenario::new(
                &catalog,
                CdnConfig::single_origin(),
                LoadConfig {
                    sessions: 200,
                    ..base
                },
            )
        });
        assert_eq!(
            r.edge.load.completed, 200,
            "every DVR viewer reaches the end"
        );
        println!(
            "  dvr {dvr:>2} segments: mean latency {:>6.0} ticks, max {:>5}",
            r.live.mean_latency_ticks, r.live.max_latency_ticks
        );
        report.push(
            PerfEntry::new(&format!("live_latency_dvr_{dvr}"))
                .metric("dvr_window_segments", dvr as f64)
                .metric("mean_live_latency_ticks", r.live.mean_latency_ticks)
                .metric("max_live_latency_ticks", r.live.max_latency_ticks as f64)
                .metric("rebuffer_fraction", r.edge.load.rebuffer_fraction),
        );
        assert!(
            r.live.mean_latency_ticks >= last_mean,
            "a deeper DVR window cannot lower catch-up latency"
        );
        last_mean = r.live.mean_latency_ticks;
    }

    // ---- The 10x flash crowd.
    println!("\n10x flash crowd (300 steady viewers + 3,000 over a 1,000-tick ramp):");
    let flashed = flash_crowd(300, 3_000);
    let calm = LoadConfig {
        churn: ChurnConfig::default(),
        ..flashed
    };
    let single_calm = simulate(&live(CdnConfig::single_origin(), calm)).edge;
    let (single_flash, edge_flash) = flash_crowd_bar(&catalog);
    let single_flash = single_flash.edge;
    println!(
        "  single origin, calm:    rebuffer {:>5.1}% ({} sessions)",
        100.0 * single_calm.load.rebuffer_fraction,
        single_calm.load.sessions
    );
    println!(
        "  single origin, flashed: rebuffer {:>5.1}% ({} sessions)",
        100.0 * single_flash.load.rebuffer_fraction,
        single_flash.load.sessions
    );
    println!(
        "  4-edge tier,  flashed:  rebuffer {:>5.1}% (hit rate {:.1}%, {} fills fed {} waiters)",
        100.0 * edge_flash.edge.load.rebuffer_fraction,
        100.0 * edge_flash.edge.hit_rate,
        edge_flash.edge.tier.misses,
        edge_flash.edge.tier.coalesced
    );

    // The tentpole bars (the flash side in `flash_crowd_bar`), gated
    // before the report is written.
    assert!(
        single_calm.load.rebuffer_fraction <= 0.05,
        "the steady audience must be comfortable on one origin"
    );
    println!("  flash-crowd edge-absorption bar holds\n");
    report.push(
        PerfEntry::new("flash_crowd_single_origin")
            .metric("sessions", single_flash.load.sessions as f64)
            .metric("rebuffer_fraction", single_flash.load.rebuffer_fraction)
            .metric("calm_rebuffer_fraction", single_calm.load.rebuffer_fraction),
    );
    report.push(
        PerfEntry::new("flash_crowd_4_edges")
            .metric("sessions", edge_flash.edge.load.sessions as f64)
            .metric("rebuffer_fraction", edge_flash.edge.load.rebuffer_fraction)
            .metric("hit_rate", edge_flash.edge.hit_rate)
            .metric("origin_fills", edge_flash.edge.tier.misses as f64)
            .metric("coalesced_waiters", edge_flash.edge.tier.coalesced as f64)
            .metric(
                "mean_live_latency_ticks",
                edge_flash.live.mean_latency_ticks,
            ),
    );

    // ---- Determinism gate: an identical re-run must agree exactly.
    let replay = simulate(&live(CdnConfig::flat(cold_tier(4)), flashed));
    assert_eq!(
        replay, edge_flash,
        "live load simulation must be deterministic for identical seeds"
    );
}
