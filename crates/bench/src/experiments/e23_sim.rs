//! E23 — event-calendar simulation core at scale.
//!
//! Regenerates the delivery-stack capacity numbers on the cohort
//! engine and writes the machine-readable `BENCH_sim.json` that
//! extends the repo's perf trajectory:
//!
//! * **Knee reproduction**: the BENCH_edge sweep (1/2/4/8 warm edges
//!   at 4,000 bytes/tick per link) must land on the exact knees the
//!   per-session engine recorded — 1,000/2,000/4,000/8,000 — and the
//!   new bisecting knee must agree with the full curve scan on both
//!   the VOD and the live sweeps. All asserted in-binary.
//! * **Flash-crowd reproduction**: the PR 5 absorption bar — the 10x
//!   flash crowd collapses one origin (> 5% rebuffering) while a
//!   cold 4-edge tier holds ≤ 5% through the same spike.
//! * **The 1M-session live sweep**: a million live-edge viewers join
//!   a channel over 1,000 ticks, through a 4-edge tier provisioned to
//!   sustain them. Under the retired per-session engine this touched
//!   every viewer every quantum (~330k simulated sessions/s, hours per
//!   sweep point at this scale); the cohort engine collapses the
//!   million viewers into a few thousand counted classes and must
//!   finish in seconds, at ≥ 10x the old sessions/s — both asserted
//!   before anything is written.
//!
//! Each sweep level also prints and records the engine's ledger
//! (`serve::EngineStats`: cohorts, quanta, cohort-quanta, full-path
//! steps) and its wall cost per cohort-quantum.
//!
//! All numbers but the wall times are seed-deterministic (asserted by
//! re-running the 1M level and comparing reports exactly).

use std::time::Instant;

use crate::perf::{PerfEntry, PerfReport};
use crate::{
    cold_tier, engine_line, engine_metrics, flash_crowd_bar, live_catalog, live_scenario,
    live_sweep, ns_per_cohort_quantum, vod_catalog, warm_tier,
};
use mmstream::serve::{curve_knee, knee, simulate, sweep, CdnConfig, LoadConfig, Scenario};

/// Finds the knee of `s` over `counts` by curve scan, asserts that the
/// bisecting knee agrees, and records it as `{name}_{edges}_edges`.
fn bisect_row(
    report: &mut PerfReport,
    name: &str,
    edges: usize,
    s: &Scenario,
    counts: &[usize],
) -> usize {
    let scan = curve_knee(&sweep(s, counts, None), 0.05).expect("tier sustains some level");
    let bisect = knee(s, counts, 0.05).expect("bisect finds the same level");
    assert_eq!(
        bisect, scan,
        "bisecting knee must equal the curve scan ({name}, {edges} edges)"
    );
    println!("  {edges} edges: knee {scan} sessions (bisect agrees)");
    report.push(
        PerfEntry::new(&format!("{name}_{edges}_edges"))
            .metric("edges", edges as f64)
            .metric("knee_sessions", scan as f64)
            .metric("bisect_equals_scan", 1.0),
    );
    scan
}

/// Runs the harness, filling `report`.
pub fn run(report: &mut PerfReport) {
    // ---- The E21 VOD title: knees directly comparable to BENCH_edge.
    let base = LoadConfig::default();
    let catalog = vod_catalog();

    println!("knee reproduction vs BENCH_edge (warm edges, 4,000 B/tick each):");
    let counts = [200usize, 1_000, 2_000, 4_000, 8_000, 16_000];
    for edges in [1usize, 2, 4, 8] {
        let s = Scenario::new(&catalog, CdnConfig::flat(warm_tier(edges)), base);
        let knee = bisect_row(report, "knee_bisect", edges, &s, &counts);
        assert_eq!(
            knee,
            1_000 * edges,
            "the {edges}-edge knee must reproduce the per-session engine's"
        );
    }

    // ---- The E22 live title (16 segments, 400-tick publish pace).
    let live_catalog = live_catalog();
    let live = |cdn, load| live_scenario(&live_catalog, cdn, load);

    println!("\nlive knee: bisect vs curve scan (live-edge joins, cold edges):");
    let live_counts = [500usize, 1_000, 2_000, 4_000, 8_000];
    for edges in [1usize, 4] {
        let s = live(CdnConfig::flat(cold_tier(edges)), base);
        bisect_row(report, "live_knee_bisect", edges, &s, &live_counts);
    }

    // ---- The flash-crowd absorption bar, regenerated.
    println!("\n10x flash crowd (300 steady viewers + 3,000 over a 1,000-tick ramp):");
    let (single_flash, edge_flash) = flash_crowd_bar(&live_catalog);
    let single_flash = single_flash.edge;
    println!(
        "  single origin: rebuffer {:>5.1}%   4-edge tier: rebuffer {:>5.1}% (hit rate {:.1}%)",
        100.0 * single_flash.load.rebuffer_fraction,
        100.0 * edge_flash.edge.load.rebuffer_fraction,
        100.0 * edge_flash.edge.hit_rate,
    );
    report.push(
        PerfEntry::new("flash_crowd_bar")
            .metric(
                "single_origin_rebuffer_fraction",
                single_flash.load.rebuffer_fraction,
            )
            .metric(
                "edge4_rebuffer_fraction",
                edge_flash.edge.load.rebuffer_fraction,
            )
            .metric("edge4_hit_rate", edge_flash.edge.hit_rate),
    );

    // ---- The 1M-session live sweep (`mmbench::live_sweep`): each
    // segment still crosses the origin uplink once per edge while every
    // co-located viewer coalesces.
    println!("\n1M-session live sweep (4 provisioned edges, live-edge joins):");
    let mut rate_1m = 0.0f64;
    let mut wall_ms_1m = 0.0f64;
    for sessions in [10_000usize, 100_000, 1_000_000] {
        let s = live_sweep(&live_catalog, sessions);
        let t0 = Instant::now();
        let r = simulate(&s);
        let wall = t0.elapsed();
        let per_s = sessions as f64 / wall.as_secs_f64();
        println!(
            "  {sessions:>9} sessions: {:>8.1} ms  ({:>5.1}M sessions/s, rebuffer {:.2}%, hit rate {:.1}%)",
            wall.as_secs_f64() * 1e3,
            per_s / 1e6,
            100.0 * r.edge.load.rebuffer_fraction,
            100.0 * r.edge.hit_rate,
        );
        println!(
            "             {}",
            engine_line(&r.engine, wall.as_secs_f64())
        );
        assert_eq!(
            r.edge.load.completed, sessions,
            "a provisioned tier must carry every viewer to the end"
        );
        report.push(engine_metrics(
            PerfEntry::new(&format!("live_sweep_{sessions}_sessions"))
                .metric("sessions", sessions as f64)
                .metric("wall_ms", wall.as_secs_f64() * 1e3)
                .metric("sessions_per_second", per_s)
                .metric("rebuffer_fraction", r.edge.load.rebuffer_fraction)
                .metric("hit_rate", r.edge.hit_rate)
                .metric("coalesced_waiters", r.edge.tier.coalesced as f64)
                .metric(
                    "ns_per_cohort_quantum",
                    ns_per_cohort_quantum(&r.engine, wall.as_secs_f64()),
                ),
            &r.engine,
        ));
        if sessions == 1_000_000 {
            rate_1m = per_s;
            wall_ms_1m = wall.as_secs_f64() * 1e3;
            // Determinism gate: an identical re-run must agree exactly.
            let replay = simulate(&s);
            assert_eq!(replay, r, "the 1M sweep must be seed-deterministic");
        }
    }

    // The tentpole bars, gated before the report is written: in
    // seconds (not hours), and ≥ 10x the per-session engine's ~330k
    // simulated sessions/s.
    assert!(
        wall_ms_1m < 30_000.0,
        "the 1M-session sweep must finish in seconds: {wall_ms_1m:.0} ms"
    );
    assert!(
        rate_1m >= 3.3e6,
        "cohort engine must clear 10x the ~330k/s per-session rate: {rate_1m:.0}/s"
    );
    println!(
        "  1M sweep in {:.2} s at {:.1}M sessions/s (>= 10x the per-session engine): ok",
        wall_ms_1m / 1e3,
        rate_1m / 1e6
    );
    report.push(
        PerfEntry::new("simulator_rate_1m")
            .metric("sessions", 1e6)
            .metric("wall_ms", wall_ms_1m)
            .metric("sessions_per_second", rate_1m)
            .metric("speedup_vs_330k_baseline", rate_1m / 330_000.0),
    );
}
