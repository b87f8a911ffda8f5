//! `live_flash`: one live title, a base audience plus a flash crowd ten
//! times its size, through 2 shields and 8 edges while an edge crashes,
//! the origin flaps and a shield crashes. Arrivals are open-loop on the
//! simulated clock and land hundreds of sessions on each (quantum,
//! edge, title) key, so the fluid engine's cohorts collapse here.

use mmstream::catalog::Catalog;
use mmstream::edge::EdgeTierConfig;
use mmstream::fault::{FaultPlan, RestartMode};
use mmstream::ladder::encode_ladder;
use mmstream::serve::{
    simulate_live_cdn_load_faulted, CdnConfig, CdnLoadReport, ChurnConfig, LiveConfig, LoadConfig,
};
use mmstream::session::JoinMode;
use mmstream::shield::AdmissionPolicy;

use super::{capture, ladder_config};
use crate::clock::Stopwatch;
use crate::trace::Tracer;
use crate::{layer_ms, measure, subseed, Config, Measured, Scale};

/// Ticks each crashed node stays down before its cold restart.
const RESTORE_TICKS: u64 = 2_000;

struct Size {
    base_viewers: usize,
    flash_viewers: usize,
    edges: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            base_viewers: 100_000,
            flash_viewers: 1_000_000,
            edges: 8,
        },
        Scale::Tiny => Size {
            base_viewers: 1_000,
            flash_viewers: 10_000,
            edges: 2,
        },
    }
}

pub(crate) fn run(config: &Config, tracer: &mut Tracer) -> Measured {
    let sz = size(config.scale);
    let mut m = Measured::default();
    let population = sz.base_viewers + sz.flash_viewers;
    let cdn = CdnConfig {
        tier: EdgeTierConfig {
            edges: sz.edges,
            cache_capacity_bytes: usize::MAX,
            // Enough uplink that the survivors of one edge crash carry
            // the whole audience.
            edge_capacity_bytes_per_tick: 16.0 * population as f64 / sz.edges as f64,
            prewarm: true,
            ..EdgeTierConfig::default()
        },
        shields: 2,
        shield_cache_capacity_bytes: usize::MAX,
        shield_capacity_bytes_per_tick: 100_000.0,
        admission: AdmissionPolicy::AdmitAll,
    };
    let live = LiveConfig {
        dvr_window_segments: 8,
        join: JoinMode::LiveEdge,
        ..LiveConfig::default()
    };
    let load = LoadConfig {
        sessions: sz.base_viewers,
        stagger_ticks: 1_000,
        seed: subseed(config.seed, 2),
        churn: ChurnConfig {
            flash_sessions: sz.flash_viewers,
            flash_at_tick: 2_000,
            flash_ramp_ticks: 1_000,
            ..ChurnConfig::default()
        },
        ..LoadConfig::default()
    };
    let plan = FaultPlan::new(subseed(config.seed, 3))
        .crash_edge(0, 2_400, Some((2_400 + RESTORE_TICKS, RestartMode::Cold)))
        .flap_origin(2_400, 3_600)
        .crash_shield(0, 2_600, Some((2_600 + RESTORE_TICKS, RestartMode::Cold)));

    let mut first: Option<CdnLoadReport> = None;
    let mut replays_differ = 0u64;
    let timed = measure(
        config.seconds,
        tracer,
        || {
            let source = capture(subseed(config.seed, 1), 64, 48, 64);
            let manifest = encode_ladder("live", &source, &ladder_config(3, 4))
                .expect("ladder encodes")
                .manifest;
            Catalog::single(manifest)
        },
        |catalog, i, tr, steps| {
            let t0 = Stopwatch::start();
            let report = tr.span("serve.probe", i, |_| {
                simulate_live_cdn_load_faulted(catalog, &cdn, &live, &plan, &load)
            });
            steps.add(0, t0.seconds());
            match &first {
                None => first = Some(report),
                Some(f) => replays_differ += u64::from(*f != report),
            }
        },
    );
    m.setup_s = timed.setup_s;
    let r = first.expect("the warm-up iteration ran");

    let iterations = timed.iterations;
    m.attempted = (population * iterations) as u64;
    m.failed = (population.saturating_sub(r.edge.load.completed) * iterations) as u64;
    m.check(replays_differ == 0, || {
        format!("{replays_differ} same-seed replays differ from the first run")
    });
    m.check(r.edge.load.completed == population, || {
        format!(
            "{} of {population} sessions completed",
            r.edge.load.completed
        )
    });
    let res = r.resilience;
    m.check(
        res.edge_restarts == 1
            && res.shield_restarts == 1
            && res.mean_restore_ticks == RESTORE_TICKS as f64,
        || format!("restores are not exact: {res:?}"),
    );

    let run_s = timed.steps.median(0);
    m.items_per_s = population as f64 / run_s;
    m.startup_ticks = r.edge.load.mean_startup_ticks;
    m.layer("sim_sessions_per_s", m.items_per_s);
    m.layer("origin_offload", r.origin_offload);
    m.outcome = 1.0 - r.edge.load.rebuffer_fraction;
    m.layer("rebuffer_frac", r.edge.load.rebuffer_fraction);
    m.layer("serve.probe_ms", layer_ms(tracer, "serve.probe"));
    m.layer("serve.coalesced", r.edge.tier.coalesced as f64);
    m.layer("serve.origin_fills", r.tier.origin_hits as f64);
    m.layer("serve.hit_rate", r.edge.hit_rate);
    m.layer("fault.sessions_rehomed", res.sessions_rehomed as f64);
    m.layer("fault.mean_restore_ticks", res.mean_restore_ticks);
    m.layer(
        "fault.sessions_fault_rebuffered",
        res.sessions_fault_rebuffered as f64,
    );
    m
}
