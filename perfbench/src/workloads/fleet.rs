//! `viewer_fleet`: packet-level delivery. Viewers run one after another
//! (a closed loop from one harness thread) through a shield and four
//! edges whose caches are smaller than the ladder, over bursty
//! congestion-controlled access links. Transport, caches, unseal and
//! demux do the work; the codec does none.

use drm::playback::LicenseAuthority;
use drm::{Right, TitleId};
use mmstream::edge::{EdgeCache, EdgeConfig, EdgeStats};
use mmstream::fault::RetryPolicy;
use mmstream::ladder::{encode_ladder, publish_ladder, seal_ladder, Manifest};
use mmstream::segment::demux_segment;
use mmstream::session::{run_session_via_tier, SessionConfig};
use mmstream::shield::{ShieldCache, ShieldConfig};
use netstack::fetch::ContentServer;
use netstack::link::{LinkConfig, LossModel};
use netstack::tcplite::{CongestionControl, TcpConfig};

use super::{capture, ladder_config, report_cache, SessionTally, EDGE_LAYER, SHIELD_LAYER};
use crate::clock::Stopwatch;
use crate::trace::Tracer;
use crate::{measure, subseed, Config, Measured, Scale};

const TITLE: &str = "fleet";
const TITLE_ID: TitleId = TitleId(902);
const EDGES: usize = 4;
/// Consecutive viewers are timed in this many blocks (see
/// [`crate::StepTimes`]).
const BLOCKS: usize = 8;

struct Size {
    width: usize,
    height: usize,
    frames: usize,
    viewers: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            width: 176,
            height: 144,
            frames: 48,
            viewers: 512,
        },
        Scale::Tiny => Size {
            width: 64,
            height: 48,
            frames: 32,
            viewers: 16,
        },
    }
}

/// The viewers' access link: about a third of the default link's rate,
/// with Gilbert–Elliott loss bursts that stall a few viewers. Longer,
/// lossier bursts send some sessions into retransmit backoff that costs
/// tens of times a median session's host time, and the fleet's time
/// then depends on which viewers the seed hits.
fn access_link() -> LinkConfig {
    LinkConfig {
        ticks_per_byte: 0.03,
        ..LinkConfig::default()
    }
    .with_loss_model(LossModel::GilbertElliott {
        p_enter_bad: 0.005,
        p_exit_bad: 0.1,
        loss_good: 0.001,
        loss_bad: 0.5,
    })
}

/// The head-end output the fleet is served: the origin, the key that
/// verifies its license, the clear elementary streams every delivered
/// segment must equal (`[rung][segment]`), and the ladder's wire size.
struct Origin {
    server: ContentServer,
    verification_key: Vec<u8>,
    expected_es: Vec<Vec<Vec<u8>>>,
    ladder_bytes: usize,
}

fn build_origin(seed: u64, sz: &Size) -> Origin {
    let source = capture(seed, sz.width, sz.height, sz.frames);
    let mut ladder = encode_ladder(TITLE, &source, &ladder_config(3, 8)).expect("ladder encodes");
    let expected_es = ladder
        .segments
        .iter()
        .map(|rung| {
            rung.iter()
                .map(|wire| demux_segment(wire).video_es.unwrap_or_default())
                .collect()
        })
        .collect();
    let mut authority = LicenseAuthority::new(b"operator".to_vec());
    authority.register_title(TITLE_ID);
    seal_ladder(&mut ladder, &authority, TITLE_ID);
    let mut server = ContentServer::new();
    publish_ladder(&mut server, &ladder);
    server.publish(
        Manifest::license_object(TITLE),
        authority.issue(TITLE_ID, vec![Right::Play]),
    );
    Origin {
        server,
        verification_key: authority.verification_key().to_vec(),
        expected_es,
        ladder_bytes: ladder.total_bytes(),
    }
}

pub(crate) fn run(config: &Config, tracer: &mut Tracer) -> Measured {
    let sz = size(config.scale);
    let mut m = Measured::default();
    let mut sessions = SessionTally::default();
    let mut edge_stats = EdgeStats::default();
    let mut shield_stats = EdgeStats::default();
    let mut shield_fills = 0u64;

    let timed = measure(
        config.seconds,
        tracer,
        || build_origin(subseed(config.seed, 1), &sz),
        |origin, i, tr, steps| {
            let mut shield = ShieldCache::new(ShieldConfig {
                cache_capacity_bytes: origin.ladder_bytes / 2,
                ..ShieldConfig::default()
            });
            let mut edges: Vec<EdgeCache> = (0..EDGES)
                .map(|_| {
                    EdgeCache::new(EdgeConfig {
                        cache_capacity_bytes: origin.ladder_bytes / 4,
                        ..EdgeConfig::default()
                    })
                })
                .collect();
            for v in 0..sz.viewers {
                let seed = subseed(config.seed, 1_000 + v as u64);
                let session_cfg = SessionConfig {
                    tcp: TcpConfig {
                        cc: CongestionControl::aimd(),
                        ..TcpConfig::default()
                    },
                    link: access_link(),
                    seed,
                    verification_key: Some(origin.verification_key.clone()),
                    retry: RetryPolicy {
                        max_attempts: 8,
                        base_backoff_ticks: 100,
                        max_backoff_ticks: 1_600,
                        jitter_ticks: 50,
                        seed,
                    },
                    ..SessionConfig::default()
                };
                let edge = &mut edges[v % EDGES];
                let t0 = Stopwatch::start();
                let report = tr.span("session", v as u64, |_| {
                    run_session_via_tier(&origin.server, &mut shield, edge, TITLE, &session_cfg)
                });
                let session_s = t0.seconds();
                steps.add(v * BLOCKS / sz.viewers, session_s);
                if i > 0 {
                    sessions.record(session_s * 1e3, &report);
                }
                match &report {
                    Ok(r) => {
                        let mismatched = tr.span("bench.check", v as u64, |_| {
                            r.segments.iter().enumerate().any(|(seg, rec)| {
                                rec.segment.video_es.as_deref()
                                    != Some(origin.expected_es[rec.rung][seg].as_slice())
                            })
                        });
                        m.check(!mismatched, || {
                            format!(
                                "iteration {i}: viewer {v} received a different elementary stream"
                            )
                        });
                    }
                    Err(e) => m.check(false, || format!("iteration {i}: viewer {v} failed: {e}")),
                }
            }
            edge_stats = EdgeStats::merged_all(edges.iter().map(EdgeCache::stats));
            shield_stats = *shield.stats();
            shield_fills = shield.fill_ledger().0;
        },
    );

    m.setup_s = timed.setup_s;
    m.items_per_s = sz.viewers as f64 / timed.steps.median_total();
    m.startup_ticks = sessions.startup_percentile(0.5);
    m.attempted = sessions.count();
    m.failed = sessions.failed();
    m.check(edge_stats.evictions > 0 && edge_stats.hits > 0, || {
        "the bounded edges saw no hits or no evictions".to_string()
    });

    m.layer("viewers_per_s", m.items_per_s);
    m.layer("startup_ticks_p50", sessions.startup_percentile(0.5));
    m.layer("startup_ticks_p95", sessions.startup_percentile(0.95));
    m.outcome = 1.0 - sessions.rebuffer_frac();
    m.layer("rebuffer_frac", sessions.rebuffer_frac());
    sessions.report(&mut m, timed.iterations);
    report_cache(&mut m, &EDGE_LAYER, &edge_stats, edge_stats.misses);
    report_cache(&mut m, &SHIELD_LAYER, &shield_stats, shield_fills);
    m
}
