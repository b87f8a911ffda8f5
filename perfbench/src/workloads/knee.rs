//! `cdn_knee`: how many viewers can this CDN carry? A knee bisection
//! through 4 shields and 16 warm edges over a 512-title Zipf catalog.
//! Arrivals spread over (quantum, edge, title) keys at well under one
//! session per key, so the fluid engine's cohorts do not collapse here.

use std::time::Instant;

use mmstream::catalog::Catalog;
use mmstream::edge::EdgeTierConfig;
use mmstream::ladder::encode_ladder;
use mmstream::serve::{cdn_capacity_knee_bisect, simulate_cdn_load, CdnConfig, LoadConfig};
use mmstream::shield::AdmissionPolicy;

use super::{capture, ladder_config};
use crate::clock::Stopwatch;
use crate::trace::Tracer;
use crate::{measure, subseed, Config, Measured, Scale};

/// The stall tolerance that defines the knee.
const STALL_TOLERANCE: f64 = 0.05;

struct Size {
    titles: usize,
    edges: usize,
    shields: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            titles: 512,
            edges: 16,
            shields: 4,
        },
        Scale::Tiny => Size {
            titles: 16,
            edges: 2,
            shields: 1,
        },
    }
}

pub(crate) fn run(config: &Config, tracer: &mut Tracer) -> Measured {
    let sz = size(config.scale);
    let mut m = Measured::default();
    let cdn = CdnConfig {
        tier: EdgeTierConfig {
            edges: sz.edges,
            cache_capacity_bytes: usize::MAX,
            prewarm: true,
            ..EdgeTierConfig::default()
        },
        shields: sz.shields,
        shield_cache_capacity_bytes: usize::MAX,
        shield_capacity_bytes_per_tick: 100_000.0,
        admission: AdmissionPolicy::AdmitAll,
    };
    // 125 to 1,500 viewers per edge: the default edge uplink carries
    // about 1,000.
    let counts: Vec<usize> = (1..=12).map(|k| k * sz.edges * 125).collect();
    let base = LoadConfig {
        seed: subseed(config.seed, 2),
        ..LoadConfig::default()
    };

    let mut knees: Vec<Option<usize>> = Vec::new();
    let timed = measure(
        config.seconds,
        tracer,
        || {
            let source = capture(subseed(config.seed, 1), 64, 48, 32);
            let manifest = encode_ladder("title", &source, &ladder_config(3, 4))
                .expect("ladder encodes")
                .manifest;
            Catalog::synthesize(&manifest, sz.titles, 1.0)
        },
        |catalog, i, tr, steps| {
            let t0 = Stopwatch::start();
            let knee = tr.span("serve.knee", i, |_| {
                cdn_capacity_knee_bisect(catalog, &cdn, &counts, &base, STALL_TOLERANCE)
            });
            steps.add(0, t0.seconds());
            knees.push(knee);
        },
    );
    let catalog = &timed.setup;
    m.setup_s = timed.setup_s;

    let knee = knees[0];
    m.attempted = timed.iterations as u64;
    m.failed = knees[1..].iter().filter(|k| k.is_none()).count() as u64;
    m.check(knees.iter().all(|k| *k == knee), || {
        format!("the knee changed between iterations: {knees:?}")
    });
    let Some(knee) = knee else {
        m.check(false, || {
            "no swept level meets the stall tolerance".to_string()
        });
        return m;
    };

    // The answer must hold: the knee level stalls within tolerance and
    // the next swept level does not.
    let t0 = Instant::now();
    let at_knee = tracer.span("serve.probe", 0, |_| {
        simulate_cdn_load(
            catalog,
            &cdn,
            &LoadConfig {
                sessions: knee,
                ..base
            },
        )
    });
    let probe_ms = t0.elapsed().as_secs_f64() * 1e3;
    m.check(
        at_knee.edge.load.rebuffer_fraction <= STALL_TOLERANCE,
        || {
            format!(
                "the knee level {knee} stalls {:.4} > {STALL_TOLERANCE}",
                at_knee.edge.load.rebuffer_fraction
            )
        },
    );
    if let Some(&next) = counts.iter().find(|&&c| c > knee) {
        let above = simulate_cdn_load(
            catalog,
            &cdn,
            &LoadConfig {
                sessions: next,
                ..base
            },
        );
        m.check(above.edge.load.rebuffer_fraction > STALL_TOLERANCE, || {
            format!("the level above the knee ({next}) also meets the tolerance")
        });
    }

    // A search that finds a lower knee probes smaller, cheaper levels;
    // counting the sessions it simulated keeps that from reading as a
    // speedup.
    let knee_s = timed.steps.median(0);
    m.items_per_s = probed_levels(&counts, knee).iter().sum::<usize>() as f64 / knee_s;
    m.startup_ticks = at_knee.edge.load.mean_startup_ticks;
    m.outcome = knee as f64;
    m.layer("knee_s", knee_s);
    m.layer("knee_sessions", knee as f64);
    m.layer("rebuffer_frac", at_knee.edge.load.rebuffer_fraction);
    m.layer("origin_offload", at_knee.origin_offload);
    m.layer("serve.probe_ms", probe_ms);
    m.layer("serve.coalesced", at_knee.edge.tier.coalesced as f64);
    m.layer("serve.origin_fills", at_knee.tier.origin_hits as f64);
    m.layer("serve.hit_rate", at_knee.edge.hit_rate);
    m
}

/// The levels `cdn_capacity_knee_bisect` probes over `counts` when its
/// answer is `knee`. Its search sorts and dedups the levels, probes the
/// smallest, then the upper midpoint of the range still open.
fn probed_levels(counts: &[usize], knee: usize) -> Vec<usize> {
    let mut counts = counts.to_vec();
    counts.sort_unstable();
    counts.dedup();
    let mut probed = vec![counts[0]];
    let (mut lo, mut hi) = (0, counts.len() - 1);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        probed.push(counts[mid]);
        if counts[mid] <= knee {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    probed
}

#[cfg(test)]
mod tests {
    use super::probed_levels;

    #[test]
    fn probes_follow_the_bisection() {
        let counts: Vec<usize> = (1..=12).map(|k| k * 2_000).collect();
        // 12 levels: the smallest, then the midpoints at indices 6, 3, 1, 2.
        assert_eq!(
            probed_levels(&counts, 6_000),
            vec![2_000, 14_000, 8_000, 4_000, 6_000]
        );
        // An answer at the top probes the upper half only.
        assert_eq!(
            probed_levels(&counts, 24_000),
            vec![2_000, 14_000, 20_000, 22_000, 24_000]
        );
    }
}
