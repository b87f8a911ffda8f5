//! Golden for the fluid engine behind `serve::simulate`: seventeen
//! scenarios covering every topology, cache policy, live mode and fault
//! kind, each reduced to an FNV-1a digest of every `CdnLoadReport`
//! field it had before the engine counters existed. f64 fields hash by
//! `to_bits`, so the digests pin the reports bit for bit, not to a
//! tolerance. On a mismatch the test prints every scenario's digest.
//! A second table pins each scenario's `EngineStats`, the engine's own
//! work counts, which the digests leave out: a change to any of them
//! must be named in advance, and this table makes that a test.

use std::sync::OnceLock;

use mmstream::catalog::Catalog;
use mmstream::edge::{EdgeStats, EdgeTierConfig, Sharding};
use mmstream::fault::{FaultPlan, RestartMode};
use mmstream::ladder::{encode_ladder, LadderConfig, Manifest};
use mmstream::serve::{
    simulate, CdnConfig, CdnLoadReport, ChurnConfig, EngineStats, LiveConfig, LoadConfig, Scenario,
};
use mmstream::session::JoinMode;
use mmstream::shield::AdmissionPolicy;
use video::synth::SequenceGen;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn stats(out: &mut Vec<u64>, s: &EdgeStats) {
    out.extend([
        s.hits,
        s.misses,
        s.coalesced,
        s.evictions,
        s.revalidations,
        s.invalidations,
        s.origin_bytes,
        s.served_bytes,
    ]);
}

/// Every report field as one word: counts as themselves, f64 by bits.
fn words(r: &CdnLoadReport) -> Vec<u64> {
    let l = &r.edge.load;
    let mut w = vec![
        l.sessions as u64,
        l.completed as u64,
        l.ticks,
        l.total_goodput_bits_per_tick.to_bits(),
        l.mean_session_bits_per_tick.to_bits(),
        l.mean_startup_ticks.to_bits(),
        l.rebuffer_sessions as u64,
        l.rebuffer_fraction.to_bits(),
        l.mean_rung.to_bits(),
        l.rung_switches,
        l.departed as u64,
        r.edge.per_edge.len() as u64,
    ];
    for e in &r.edge.per_edge {
        w.push(e.sessions as u64);
        stats(&mut w, &e.stats);
    }
    stats(&mut w, &r.edge.tier);
    w.extend([
        r.edge.hit_rate.to_bits(),
        r.edge.origin_offload.to_bits(),
        r.per_shield.len() as u64,
    ]);
    for s in &r.per_shield {
        w.push(s.sessions as u64);
        stats(&mut w, &s.stats);
    }
    stats(&mut w, &r.tier.edges);
    stats(&mut w, &r.tier.shields);
    w.extend([
        r.tier.origin_hits,
        u64::from(r.tier.tiered),
        r.origin_offload.to_bits(),
        r.live.mean_latency_ticks.to_bits(),
        r.live.max_latency_ticks,
        r.live.publish_wait_ticks,
        r.live.window_skips,
    ]);
    let f = &r.resilience;
    w.extend([
        f.edge_crashes,
        f.edge_restarts,
        f.shield_crashes,
        f.shield_restarts,
        f.mean_restore_ticks.to_bits(),
        f.sessions_rehomed,
        f.sessions_fault_rebuffered,
        f.fault_rebuffer_ticks,
        f.rewarm_fills,
        f.fills_lost,
    ]);
    w
}

fn digest(r: &CdnLoadReport) -> u64 {
    let bytes: Vec<u8> = words(r).iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv(&bytes)
}

fn manifest(frames: usize) -> Manifest {
    let source = SequenceGen::new(44).panning_sequence(48, 32, frames, 1, 0);
    let cfg = LadderConfig {
        targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
        gop: 4,
        ..Default::default()
    };
    encode_ladder("movie", &source, &cfg)
        .expect("ladder encodes")
        .manifest
}

fn tier(edges: usize, sharding: Sharding, prewarm: bool) -> EdgeTierConfig {
    EdgeTierConfig {
        edges,
        sharding,
        prewarm,
        ..Default::default()
    }
}

fn load(sessions: usize, stagger_ticks: u64) -> LoadConfig {
    LoadConfig {
        sessions,
        stagger_ticks,
        seed: 0x601D,
        ..Default::default()
    }
}

fn flash(sessions: usize, at: u64, ramp: u64) -> ChurnConfig {
    ChurnConfig {
        flash_sessions: sessions,
        flash_at_tick: at,
        flash_ramp_ticks: ramp,
        ..Default::default()
    }
}

/// Four edges behind two shields that each hold a thirty-second of a 16-title
/// Zipf catalog, over a slow shield downlink: the shields evict, and
/// edge fills whose object the shield evicted before they drained
/// re-register on it.
fn bounded_shield() -> CdnLoadReport {
    let zipf = Catalog::synthesize(&manifest(16), 16, 0.9);
    let cdn = CdnConfig {
        tier: tier(4, Sharding::Hash, false),
        shields: 2,
        shield_cache_capacity_bytes: zipf.working_set_bytes() as usize / 32,
        shield_capacity_bytes_per_tick: 600.0,
        admission: AdmissionPolicy::AdmitAll,
    };
    simulate(&Scenario::new(&zipf, cdn, load(1_500, 3_000)))
}

/// A live shielded run under faults: a shield crashes and restarts
/// warm, an edge crashes and restarts cold (its fills count as re-warm
/// traffic), and the origin uplink runs degraded across both.
fn live_shield_faults() -> CdnLoadReport {
    let live_title = Catalog::single(manifest(32));
    let cdn = CdnConfig {
        tier: tier(4, Sharding::RoundRobin, false),
        shields: 2,
        shield_cache_capacity_bytes: usize::MAX,
        shield_capacity_bytes_per_tick: 8_000.0,
        admission: AdmissionPolicy::AdmitAll,
    };
    let live = LiveConfig {
        dvr_window_segments: 4,
        join: JoinMode::LiveEdge,
        ..Default::default()
    };
    let plan = FaultPlan::new(0x11FE)
        .crash_shield(1, 300, Some((700, RestartMode::Warm)))
        .crash_edge(2, 400, Some((900, RestartMode::Cold)))
        .degrade_link(None, 150, 1_100, 0.5);
    simulate(&Scenario {
        live: Some(live),
        faults: &plan,
        ..Scenario::new(&live_title, cdn, load(600, 800))
    })
}

/// The scenarios, each run once (and only once per test binary).
fn scenarios() -> &'static [(&'static str, CdnLoadReport)] {
    static RUNS: OnceLock<Vec<(&'static str, CdnLoadReport)>> = OnceLock::new();
    RUNS.get_or_init(run_scenarios)
}

fn run_scenarios() -> Vec<(&'static str, CdnLoadReport)> {
    let single = Catalog::single(manifest(16));
    let zipf = Catalog::synthesize(&manifest(16), 16, 0.9);
    let live_title = Catalog::single(manifest(32));
    let ws = zipf.working_set_bytes() as usize;
    let none = FaultPlan::default();
    let live_edge = LiveConfig {
        dvr_window_segments: 4,
        join: JoinMode::LiveEdge,
        ..Default::default()
    };
    let dvr_start = LiveConfig {
        dvr_window_segments: 6,
        head_start_segments: 3,
        join: JoinMode::DvrStart,
        ..Default::default()
    };
    let shielded = |edges: usize, shields: usize, prewarm: bool| CdnConfig {
        tier: tier(edges, Sharding::RoundRobin, prewarm),
        shields,
        shield_cache_capacity_bytes: usize::MAX,
        shield_capacity_bytes_per_tick: 8_000.0,
        admission: AdmissionPolicy::AdmitAll,
    };
    let run = |catalog: &Catalog,
               cdn: CdnConfig,
               live: Option<LiveConfig>,
               faults: &FaultPlan,
               load: LoadConfig| {
        simulate(&Scenario {
            live,
            faults,
            ..Scenario::new(catalog, cdn, load)
        })
    };

    let edge_faults = FaultPlan::new(0xFA11)
        .crash_edge(1, 300, Some((900, RestartMode::Cold)))
        .crash_edge(2, 500, Some((700, RestartMode::Warm)))
        .degrade_link(Some(0), 200, 800, 0.5);
    let origin_faults = FaultPlan::new(0x0F1A)
        .flap_origin(250, 650)
        .degrade_link(None, 100, 900, 0.25);
    let shield_faults = FaultPlan::new(0x5E1D)
        .crash_shield(0, 300, Some((800, RestartMode::Cold)))
        .crash_edge(0, 400, Some((1_000, RestartMode::Cold)));
    let all_down = (0..3).fold(FaultPlan::new(7), |p, e| p.crash_edge(e, 200, None));

    vec![
        (
            "single_origin",
            run(
                &single,
                CdnConfig::single_origin(),
                None,
                &none,
                load(1_500, 400),
            ),
        ),
        (
            "flat_round_robin",
            run(
                &single,
                CdnConfig::flat(tier(4, Sharding::RoundRobin, true)),
                None,
                &none,
                load(900, 600),
            ),
        ),
        (
            "flat_hash",
            run(
                &single,
                CdnConfig::flat(tier(3, Sharding::Hash, true)),
                None,
                &none,
                load(700, 300),
            ),
        ),
        (
            "flat_ring",
            run(
                &single,
                CdnConfig::flat(tier(4, Sharding::Ring, true)),
                None,
                &none,
                load(800, 500),
            ),
        ),
        (
            "shielded_zipf_16",
            run(
                &zipf,
                shielded(4, 2, false),
                None,
                &none,
                load(1_200, 2_000),
            ),
        ),
        (
            "cold_edges",
            run(
                &single,
                CdnConfig::flat(EdgeTierConfig {
                    origin_capacity_bytes_per_tick: 3_000.0,
                    ..tier(4, Sharding::RoundRobin, false)
                }),
                None,
                &none,
                load(600, 800),
            ),
        ),
        (
            "bounded_tinylfu",
            run(
                &zipf,
                CdnConfig {
                    tier: EdgeTierConfig {
                        cache_capacity_bytes: ws / 8,
                        ..tier(4, Sharding::Hash, false)
                    },
                    admission: AdmissionPolicy::TinyLfu,
                    ..shielded(4, 2, false)
                },
                None,
                &none,
                load(1_000, 3_000),
            ),
        ),
        (
            "churn_flash",
            run(
                &single,
                CdnConfig::flat(EdgeTierConfig {
                    edge_capacity_bytes_per_tick: 1_500.0,
                    ..tier(2, Sharding::RoundRobin, false)
                }),
                None,
                &none,
                LoadConfig {
                    churn: ChurnConfig {
                        churn_sessions: 300,
                        mean_interarrival_ticks: 3.0,
                        mean_watch_ticks: 400.0,
                        ..flash(3_000, 500, 150)
                    },
                    ..load(200, 300)
                },
            ),
        ),
        (
            "live_edge",
            run(
                &live_title,
                CdnConfig::flat(tier(2, Sharding::RoundRobin, false)),
                Some(live_edge),
                &none,
                LoadConfig {
                    churn: flash(800, 600, 200),
                    ..load(300, 500)
                },
            ),
        ),
        (
            "live_dvr_start",
            run(
                &live_title,
                shielded(3, 1, false),
                Some(dvr_start),
                &none,
                load(500, 1_200),
            ),
        ),
        (
            "edge_faults",
            run(
                &single,
                CdnConfig::flat(EdgeTierConfig {
                    edge_capacity_bytes_per_tick: 2_000.0,
                    ..tier(4, Sharding::Hash, false)
                }),
                None,
                &edge_faults,
                load(3_600, 700),
            ),
        ),
        (
            "origin_faults",
            run(
                &live_title,
                CdnConfig::flat(tier(3, Sharding::RoundRobin, false)),
                Some(live_edge),
                &origin_faults,
                load(400, 600),
            ),
        ),
        (
            "shield_faults",
            run(
                &zipf,
                shielded(4, 2, false),
                None,
                &shield_faults,
                load(4_000, 900),
            ),
        ),
        (
            "origin_outage",
            run(
                &single,
                CdnConfig::flat(EdgeTierConfig {
                    origin_down_after: Some(40),
                    ..tier(2, Sharding::RoundRobin, false)
                }),
                None,
                &none,
                load(200, 400),
            ),
        ),
        (
            "every_edge_down_forever",
            run(
                &single,
                CdnConfig::flat(tier(3, Sharding::Ring, true)),
                None,
                &all_down,
                load(300, 400),
            ),
        ),
        ("bounded_shield", bounded_shield()),
        ("live_shield_faults", live_shield_faults()),
    ]
}

/// Digests captured from the engine before it lost its merge sweep, in
/// scenarios where that sweep merged nothing; the last two from the
/// engine whose edge and shield caches were still separate types.
const DIGESTS: &[(&str, u64)] = &[
    ("single_origin", 0x18086824b48bc6d4),
    ("flat_round_robin", 0xa24d7cd36fe2ee18),
    ("flat_hash", 0xa375b38ef600090b),
    ("flat_ring", 0xda6d2fd11ae7ed47),
    ("shielded_zipf_16", 0x68bc94b03c2a0b83),
    ("cold_edges", 0x3d6244cef06c871b),
    ("bounded_tinylfu", 0x7e0ffa3db4a9175d),
    ("churn_flash", 0x5039eae8bb3f6bab),
    ("live_edge", 0xf37838561b136494),
    ("live_dvr_start", 0x6dca2cc830a760d6),
    ("edge_faults", 0xd57f355264bb1507),
    ("origin_faults", 0x4c0abd0ae2f8dcdd),
    ("shield_faults", 0x90e3e2f97072eafa),
    ("origin_outage", 0x7bfeb096a9646a05),
    ("every_edge_down_forever", 0x66a8c681d09f840e),
    ("bounded_shield", 0x979db93f468924ee),
    ("live_shield_faults", 0x6f52f9a5f24793d5),
];

#[test]
fn fluid_reports_match_their_golden_digests() {
    let got: Vec<(&str, u64)> = scenarios().iter().map(|(n, r)| (*n, digest(r))).collect();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        DIGESTS.len(),
        "scenario list changed; current digests:\n{table}"
    );
    for ((name, d), (gname, g)) in got.iter().zip(DIGESTS) {
        assert_eq!(name, gname, "scenario order changed:\n{table}");
        assert_eq!(
            d, g,
            "{name}: digest 0x{d:016x} != golden 0x{g:016x}; current digests:\n{table}"
        );
    }
}

/// Each scenario's `EngineStats` as `[cohorts, quanta, cohort_quanta,
/// peak_active, full_path_steps]`, captured from the engine that still
/// built a schedule vector and kept one heap entry per parked cohort.
const ENGINE: &[(&str, [u64; 5])] = &[
    ("single_origin", [391, 369, 115643, 391, 1955]),
    ("flat_round_robin", [743, 164, 11145, 95, 3715]),
    ("flat_hash", [510, 100, 12554, 205, 2550]),
    ("flat_ring", [658, 140, 9870, 91, 3290]),
    ("shielded_zipf_16", [1189, 515, 18038, 55, 6222]),
    ("cold_edges", [535, 215, 8055, 56, 2722]),
    ("bounded_tinylfu", [991, 767, 16137, 37, 6705]),
    ("churn_flash", [684, 951, 306084, 479, 2857]),
    ("live_edge", [607, 491, 229324, 607, 12037]),
    ("live_dvr_start", [467, 352, 95873, 467, 6744]),
    ("edge_faults", [2006, 510, 748249, 1986, 18881]),
    ("origin_faults", [358, 292, 78821, 358, 28781]),
    ("shield_faults", [3722, 359, 608883, 2806, 26396]),
    ("origin_outage", [176, 112, 10887, 176, 9916]),
    ("every_edge_down_forever", [268, 100, 7310, 181, 6256]),
    ("bounded_shield", [1481, 764, 22970, 52, 8247]),
    ("live_shield_faults", [535, 351, 134635, 535, 10887]),
];

fn engine_words(e: &EngineStats) -> [u64; 5] {
    [
        e.cohorts,
        e.quanta,
        e.cohort_quanta,
        e.peak_active,
        e.full_path_steps,
    ]
}

#[test]
fn engine_stats_match_their_golden_table() {
    let got: Vec<(&str, [u64; 5])> = scenarios()
        .iter()
        .map(|(n, r)| (*n, engine_words(&r.engine)))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, w)| format!("    (\"{name}\", {w:?}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        ENGINE.len(),
        "scenario list changed; current engine stats:\n{table}"
    );
    for ((name, w), (gname, g)) in got.iter().zip(ENGINE) {
        assert_eq!(name, gname, "scenario order changed:\n{table}");
        assert_eq!(
            w, g,
            "{name}: engine stats {w:?} != golden {g:?}; current engine stats:\n{table}"
        );
    }
}

#[test]
fn bounded_shield_evicts_and_re_requests_evicted_fills() {
    let r = bounded_shield();
    let (edges, shields) = (r.tier.edges, r.tier.shields);
    assert!(shields.evictions > 0, "the shield tier never evicted");
    // Fault-free, every edge fill start registers on its shield once;
    // the surplus is the re-request pass for evicted objects.
    assert!(
        shields.hits + shields.misses + shields.coalesced > edges.misses,
        "no edge fill was re-requested after a shield eviction"
    );
}

#[test]
fn live_shield_faults_restart_both_tiers_and_rewarm() {
    let r = live_shield_faults();
    let f = &r.resilience;
    assert!(f.shield_restarts > 0, "no shield restarted");
    assert!(f.edge_restarts > 0, "no edge restarted");
    assert!(f.rewarm_fills > 0, "the cold edge counted no re-warm fills");
}
