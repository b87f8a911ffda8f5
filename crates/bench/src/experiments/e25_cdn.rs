//! E25 — the hierarchical CDN at scale: shields, admission, catalogs.
//!
//! Exercises the two-tier delivery hierarchy end to end and writes the
//! machine-readable `BENCH_cdn.json` trajectory:
//!
//! * **Origin offload at scale**: 4,000,000 burst sessions across 64
//!   cold edges and 4 cold shields, pulling a 512-title Zipf(1.0)
//!   catalog. Per-shield request coalescing plus the shield tier's
//!   fan-in must keep the true-origin crossing under 0.1% of
//!   viewer-served bytes (>99.9% offload), and strictly beat the
//!   edge-local figure — the shield tier has to *earn* its hop.
//! * **TinyLFU vs LRU**: 20,000 staggered sessions over the same Zipf
//!   catalog with each edge cache capped at 1/8 of the touched working
//!   set. The TinyLFU admission filter must match or beat plain LRU's
//!   viewer-facing hit rate — frequency protection is free or better.
//! * **Knee vs edges-per-shield**: the capacity knee through the full
//!   hierarchy at 16/32/64 warm edges over a fixed 4-shield tier (4,
//!   8, and 16 children per shield). The knee must stay exactly
//!   pro-rata with edge count — the shield hop costs no capacity.
//! * **The composed worst case through shields** (ROADMAP item 3): the
//!   E24 flash-crowd + edge-crash + origin-flap scenario re-run
//!   through a 2-shield tier with a cold shield crash added. The bar:
//!   zero fault-attributed rebuffering and the exact 2,000-tick MTTR
//!   on both restores, asserted in-binary before anything is written.
//!
//! Each simulated run also prints the engine's ledger
//! (`serve::EngineStats`) with its wall cost per cohort-quantum, and
//! each knee search its wall time. Those timings are printed only;
//! everything recorded is seed-deterministic, with no wall clock
//! anywhere in the measured quantities.

use std::time::Instant;

use crate::perf::{PerfEntry, PerfReport};
use crate::{
    cold_tier, engine_line, engine_metrics, flash_crowd, live_catalog, live_scenario, vod_catalog, warm_tier,
};
use mmstream::catalog::Catalog;
use mmstream::edge::EdgeTierConfig;
use mmstream::fault::{FaultPlan, RestartMode};
use mmstream::serve::{knee, simulate, CdnConfig, LoadConfig, Scenario};
use mmstream::shield::AdmissionPolicy;

/// Runs the harness, filling `report`.
pub fn run(report: &mut PerfReport) {
    // ---- The E21/E23 VOD title, synthesized into a 512-title Zipf
    // catalog (rank renames of the same ladder: identical sizes, so
    // capacity effects separate cleanly from popularity effects).
    let catalog = Catalog::synthesize(&vod_catalog().titles()[0], 512, 1.0);

    // ---- Origin offload at scale: everything cold, arrivals in one
    // burst so the coalescing fan-in is maximal.
    println!("origin offload (4M burst sessions, 64 edges, 4 shields, 512 titles):");
    let sessions = 4_000_000usize;
    let offload_cdn = CdnConfig {
        tier: EdgeTierConfig {
            edge_capacity_bytes_per_tick: (sessions / 64) as f64 * 100.0,
            origin_capacity_bytes_per_tick: 1_000_000.0,
            ..cold_tier(64)
        },
        shields: 4,
        shield_cache_capacity_bytes: usize::MAX,
        shield_capacity_bytes_per_tick: 10_000_000.0,
        admission: AdmissionPolicy::AdmitAll,
    };
    let load = LoadConfig {
        sessions,
        stagger_ticks: 0,
        ..Default::default()
    };
    let t0 = Instant::now();
    let r = simulate(&Scenario::new(&catalog, offload_cdn, load));
    let wall_s = t0.elapsed().as_secs_f64();
    let edge_local = r.edge.origin_offload;
    println!(
        "  {} sessions: {:.4}% true-origin offload ({:.4}% edge-local), \
         {} origin fills, {} completed",
        r.edge.load.sessions,
        100.0 * r.origin_offload,
        100.0 * edge_local,
        r.tier.origin_hits,
        r.edge.load.completed,
    );
    println!("  {}", engine_line(&r.engine, wall_s));
    assert_eq!(r.edge.load.completed, sessions, "every session must finish");
    assert_eq!(r.per_shield.len(), 4);
    assert!(
        r.origin_offload > 0.999,
        "the offload bar: >99.9% of viewer bytes never cross the origin, got {:.4}%",
        100.0 * r.origin_offload
    );
    assert!(
        r.origin_offload > edge_local,
        "the shield tier must beat the edge-local offload: {:.4}% vs {:.4}%",
        100.0 * r.origin_offload,
        100.0 * edge_local
    );
    report.push(engine_metrics(
        PerfEntry::new("offload_at_scale")
            .metric("sessions", sessions as f64)
            .metric("edges", 64.0)
            .metric("shields", 4.0)
            .metric("titles", 512.0)
            .metric("origin_offload", r.origin_offload)
            .metric("edge_local_offload", edge_local)
            .metric("origin_fills", r.tier.origin_hits as f64)
            .metric("origin_bytes", r.tier.origin_bytes() as f64),
        &r.engine,
    ));

    // ---- TinyLFU vs LRU at 1/8 of the *touched* working set (the
    // rung-0 catalog: what capped viewers actually pull).
    println!("\nTinyLFU vs LRU (20k staggered sessions, 4 edges, cache = touched-set/8):");
    let touched: usize = catalog
        .titles()
        .iter()
        .map(|m| m.rungs[0].segments.iter().map(|s| s.bytes).sum::<usize>())
        .sum();
    let small_tier = EdgeTierConfig {
        cache_capacity_bytes: touched / 8,
        edge_capacity_bytes_per_tick: 40_000.0,
        ..cold_tier(4)
    };
    let admission_load = LoadConfig {
        sessions: 20_000,
        stagger_ticks: 20_000,
        ..Default::default()
    };
    let mut hit_rates = [0.0f64; 2];
    for (i, admission) in [AdmissionPolicy::AdmitAll, AdmissionPolicy::TinyLfu]
        .into_iter()
        .enumerate()
    {
        let cdn = CdnConfig {
            tier: small_tier,
            shields: 4,
            shield_cache_capacity_bytes: usize::MAX,
            shield_capacity_bytes_per_tick: 100_000.0,
            admission,
        };
        let t0 = Instant::now();
        let r = simulate(&Scenario::new(&catalog, cdn, admission_load));
        let wall_s = t0.elapsed().as_secs_f64();
        hit_rates[i] = r.tier.hit_rate();
        let name = if i == 0 { "lru" } else { "tinylfu" };
        println!(
            "  {name:>8}: {:.2}% edge hit rate, {:.2}% origin offload",
            100.0 * hit_rates[i],
            100.0 * r.origin_offload
        );
        println!("            {}", engine_line(&r.engine, wall_s));
        report.push(engine_metrics(
            PerfEntry::new(&format!("admission_{name}"))
                .metric("cache_bytes", (touched / 8) as f64)
                .metric("edge_hit_rate", hit_rates[i])
                .metric("origin_offload", r.origin_offload),
            &r.engine,
        ));
    }
    assert!(
        hit_rates[1] >= hit_rates[0],
        "TinyLFU must match or beat LRU at 1/8 working set: {:.4} vs {:.4}",
        hit_rates[1],
        hit_rates[0]
    );

    // ---- The knee vs edges-per-shield: warm everything, fixed
    // 4-shield tier, edge count sweeps the fan-in.
    println!("\ncapacity knee vs edges-per-shield (4 shields, warm tier):");
    for edges in [16usize, 32, 64] {
        let cdn = CdnConfig {
            tier: warm_tier(edges),
            shields: 4,
            shield_cache_capacity_bytes: usize::MAX,
            shield_capacity_bytes_per_tick: 100_000.0,
            admission: AdmissionPolicy::AdmitAll,
        };
        let counts: Vec<usize> = (1..=12).map(|i| i * edges * 125).collect();
        let s = Scenario::new(&catalog, cdn, LoadConfig::default());
        let t0 = Instant::now();
        let knee = knee(&s, &counts, 0.05).expect("a warm tier sustains some level");
        println!(
            "  {edges} edges ({} per shield): knee {knee} sessions ({:.2} s search)",
            edges / 4,
            t0.elapsed().as_secs_f64()
        );
        assert_eq!(
            knee,
            1_000 * edges,
            "the shield hop must cost no capacity: pro-rata knee at {edges} edges"
        );
        report.push(
            PerfEntry::new(&format!("knee_edges_{edges}"))
                .metric("edges", edges as f64)
                .metric("edges_per_shield", (edges / 4) as f64)
                .metric("knee_sessions", knee as f64),
        );
    }

    // ---- The composed worst case through shields: the E24 scenario
    // (10x flash + edge 0 cold-crash + origin flap) with a cold shield
    // crash layered on, run through a 2-shield tier.
    println!("\ncomposed scenario (flash + edge crash + origin flap + SHIELD crash):");
    let flash_cdn = CdnConfig {
        tier: warm_tier(4),
        shields: 2,
        shield_cache_capacity_bytes: usize::MAX,
        shield_capacity_bytes_per_tick: 16_000.0,
        admission: AdmissionPolicy::AdmitAll,
    };
    let plan = FaultPlan::new(0xFA11)
        .crash_edge(0, 2_400, Some((4_400, RestartMode::Cold)))
        .flap_origin(2_400, 3_600)
        .crash_shield(0, 2_600, Some((4_600, RestartMode::Cold)));
    let live_catalog = live_catalog();
    let composed = Scenario {
        faults: &plan,
        ..live_scenario(&live_catalog, flash_cdn, flash_crowd(200, 2_000))
    };
    let t0 = Instant::now();
    let r = simulate(&composed);
    let wall_s = t0.elapsed().as_secs_f64();
    let res = r.resilience;
    let sessions = r.edge.load.sessions;
    println!(
        "  {sessions} sessions: {} fault-rebuffered, {} re-homed, \
         MTTR {} ticks, completed {}",
        res.sessions_fault_rebuffered,
        res.sessions_rehomed,
        res.mean_restore_ticks,
        r.edge.load.completed,
    );
    println!("  {}", engine_line(&r.engine, wall_s));
    assert_eq!(res.edge_crashes, 1, "exactly one edge crash was scheduled");
    assert_eq!(
        res.shield_crashes, 1,
        "exactly one shield crash was scheduled"
    );
    assert_eq!(res.edge_restarts, 1, "the edge must come back");
    assert_eq!(res.shield_restarts, 1, "the shield must come back");
    assert_eq!(
        res.mean_restore_ticks, 2_000.0,
        "MTTR is exact on the deterministic calendar: both restores take 2,000 ticks"
    );
    assert_eq!(
        res.sessions_fault_rebuffered, 0,
        "the survival bar through shields: zero fault-attributed rebuffering"
    );
    report.push(engine_metrics(
        PerfEntry::new("composed_scenario_shielded")
            .metric("sessions", sessions as f64)
            .metric(
                "sessions_fault_rebuffered",
                res.sessions_fault_rebuffered as f64,
            )
            .metric("sessions_rehomed", res.sessions_rehomed as f64)
            .metric("shield_crashes", res.shield_crashes as f64)
            .metric("mean_restore_ticks", res.mean_restore_ticks)
            .metric("completed", r.edge.load.completed as f64)
            .metric("rebuffer_fraction", r.edge.load.rebuffer_fraction),
        &r.engine,
    ));
    // Determinism gate: the composed run must replay exactly.
    let replay = simulate(&composed);
    assert_eq!(
        replay, r,
        "the composed scenario must be seed-deterministic"
    );
}
