//! E24 — deterministic fault injection across the delivery stack.
//!
//! Exercises the chaos layer end to end and writes the
//! machine-readable `BENCH_fault.json` resilience trajectory:
//!
//! * **Knee vs edges lost**: the warm 8-edge tier's capacity knee
//!   (8,000 sessions intact, pinned against BENCH_sim) re-measured
//!   under fault plans that permanently crash 1..4 edges at tick 0.
//!   The knee must retreat monotonically and never fall below the
//!   surviving tier's pro-rata share.
//! * **The composed worst case** (ROADMAP item 3): a 10x flash crowd
//!   arrives while one of four warm edges crashes cold *and* the
//!   origin flaps — one deterministic run. The survival bar: fewer
//!   than 5% of sessions experience fault-attributed rebuffering, the
//!   crashed edge's sessions re-home to survivors and fail back after
//!   the exact 2,000-tick MTTR, and the cold restart shows up as
//!   re-warm fills. All asserted in-binary before anything is written.
//! * **Failover ring remap**: crashing any one of 8 edges moves only
//!   that edge's keys (a key whose owner survives never moves), and
//!   the worst single-edge remap stays ≤ 2/N of the keyspace.
//!
//! Everything is seed-deterministic; there is no wall clock anywhere
//! in the measured quantities.

use crate::perf::{PerfEntry, PerfReport};
use crate::{flash_crowd, live_catalog, live_scenario, vod_catalog, warm_tier};
use mmstream::edge::HashRing;
use mmstream::fault::{FaultPlan, RestartMode};
use mmstream::serve::{knee, simulate, CdnConfig, LoadConfig, Scenario};
use signal::rng::splitmix64;

/// Runs the harness, filling `report`.
pub fn run(report: &mut PerfReport) {
    // ---- The E21/E23 VOD title: the intact 8-edge knee is directly
    // comparable to BENCH_sim's 8,000 sessions.
    let base = LoadConfig::default();
    let catalog = vod_catalog();
    let tier = warm_tier(8);

    println!("knee vs edges lost (8 warm edges, crashes at tick 0, no restart):");
    let counts: Vec<usize> = (1..=16).map(|i| i * 500).collect();
    let mut prev_knee = usize::MAX;
    for lost in 0usize..=4 {
        let mut plan = FaultPlan::new(0xE24);
        for edge in 0..lost {
            plan = plan.crash_edge(edge, 0, None);
        }
        let s = Scenario {
            faults: &plan,
            ..Scenario::new(&catalog, CdnConfig::flat(tier), base)
        };
        let knee = knee(&s, &counts, 0.05).expect("some level must survive");
        println!("  {lost} edges lost: knee {knee} sessions");
        assert!(
            knee <= prev_knee,
            "losing another edge must never raise the knee: {knee} > {prev_knee}"
        );
        // Degradation is exactly pro-rata on this workload: every
        // surviving edge carries its intact 1,000-session share, so
        // the ring's re-homing costs no capacity at all (lost == 0 is
        // the intact 8,000-session knee BENCH_sim pins).
        assert_eq!(
            knee,
            1_000 * (8 - lost),
            "the {}-edge remnant must keep its pro-rata capacity",
            8 - lost
        );
        prev_knee = knee;
        report.push(
            PerfEntry::new(&format!("knee_lost_{lost}"))
                .metric("edges_lost", lost as f64)
                .metric("edges_surviving", (8 - lost) as f64)
                .metric("knee_sessions", knee as f64),
        );
    }

    // ---- The composed scenario: flash crowd + edge crash (cold
    // restart) + origin flap, on the E22/E23 live title (16 segments,
    // 400-tick natural pace, ~6,400-tick event).
    println!("\ncomposed scenario (10x flash + edge 0 cold-crash + origin flap):");
    let load = flash_crowd(200, 2_000);
    let plan = FaultPlan::new(0xFA11)
        .crash_edge(0, 2_400, Some((4_400, RestartMode::Cold)))
        .flap_origin(2_400, 3_600);
    let live_catalog = live_catalog();
    let composed = Scenario {
        faults: &plan,
        ..live_scenario(&live_catalog, CdnConfig::flat(warm_tier(4)), load)
    };
    let r = simulate(&composed);
    let res = r.resilience;
    let sessions = r.edge.load.sessions;
    let impacted = res.sessions_fault_rebuffered as f64 / sessions as f64;
    println!(
        "  {sessions} sessions: {:.2}% fault-rebuffered, {} re-homed, \
         {} re-warm fills, MTTR {} ticks, completed {}",
        100.0 * impacted,
        res.sessions_rehomed,
        res.rewarm_fills,
        res.mean_restore_ticks,
        r.edge.load.completed,
    );
    assert_eq!(res.edge_crashes, 1, "exactly one crash was scheduled");
    assert_eq!(res.edge_restarts, 1, "the edge must come back");
    assert_eq!(
        res.mean_restore_ticks, 2_000.0,
        "MTTR is exact on the deterministic calendar: 4,400 - 2,400"
    );
    assert!(
        res.sessions_rehomed > 0,
        "the crashed edge's sessions must fail over to survivors"
    );
    assert!(
        res.rewarm_fills > 0,
        "a cold restart must trigger re-warm fills"
    );
    assert!(
        impacted < 0.05,
        "the survival bar: <5% of sessions fault-rebuffered, got {:.2}%",
        100.0 * impacted
    );
    report.push(
        PerfEntry::new("composed_scenario")
            .metric("sessions", sessions as f64)
            .metric(
                "sessions_fault_rebuffered",
                res.sessions_fault_rebuffered as f64,
            )
            .metric("fault_rebuffered_fraction", impacted)
            .metric("fault_rebuffer_ticks", res.fault_rebuffer_ticks as f64)
            .metric("sessions_rehomed", res.sessions_rehomed as f64)
            .metric("rewarm_fills", res.rewarm_fills as f64)
            .metric("mean_restore_ticks", res.mean_restore_ticks)
            .metric("completed", r.edge.load.completed as f64)
            .metric("rebuffer_fraction", r.edge.load.rebuffer_fraction),
    );
    // Determinism gate: the composed run must replay exactly.
    let replay = simulate(&composed);
    assert_eq!(
        replay, r,
        "the composed scenario must be seed-deterministic"
    );

    // ---- The failover ring's remap bound, measured over the keyspace.
    println!("\nfailover ring remap (8 edges, 128 vnodes, 100k keys):");
    let ring = HashRing::new(8, 128, 0x51A6);
    let keys: Vec<u64> = (0..100_000u64).map(splitmix64).collect();
    let mut worst_fraction = 0.0f64;
    let mut moved_total = 0u64;
    let mut moved_foreign = 0u64;
    for crashed in 0..8usize {
        let mut up = vec![true; 8];
        up[crashed] = false;
        let mut moved = 0u64;
        for &k in &keys {
            let home = ring.route(k);
            let rerouted = ring.route_alive(k, &up).expect("seven edges remain");
            assert_ne!(rerouted, crashed, "no key may stay on the dead edge");
            if rerouted != home {
                moved += 1;
                if home != crashed {
                    moved_foreign += 1;
                }
            }
        }
        moved_total += moved;
        worst_fraction = worst_fraction.max(moved as f64 / keys.len() as f64);
    }
    let only_crashed_keys = if moved_total == 0 {
        1.0
    } else {
        1.0 - moved_foreign as f64 / moved_total as f64
    };
    println!(
        "  only-crashed-keys fraction {only_crashed_keys:.3}, worst remap {:.3} of keyspace",
        worst_fraction
    );
    assert_eq!(
        only_crashed_keys, 1.0,
        "a key whose owner survives must never move"
    );
    assert!(
        worst_fraction <= 0.25,
        "worst single-edge remap must stay within 2/N: {worst_fraction:.3}"
    );
    report.push(
        PerfEntry::new("ring_remap")
            .metric("edges", 8.0)
            .metric("keys", keys.len() as f64)
            .metric("only_crashed_keys", only_crashed_keys)
            .metric("worst_remap_fraction", worst_fraction),
    );
}
