//! `vod_pipeline`: one title from capture to every device's decoded
//! picture. The only workload where the codec works: encode dominates
//! the head-end and decode dominates playback, so an encode win that
//! costs decode shows.

use drm::playback::LicenseAuthority;
use drm::{Right, TitleId};
use mediafs::fs::{AllocPolicy, MediaFs};
use mmpool::WorkerPool;
use mmstream::edge::{EdgeCache, EdgeConfig};
use mmstream::headend_spec;
use mmstream::ladder::{
    encode_ladder, encode_ladder_on, publish_from_fs, seal_ladder, store_ladder, Ladder, Manifest,
};
use mmstream::session::{run_session_via_edge, SessionConfig};
use mpsoc::{Mapping, Platform, Simulator};
use netstack::fetch::ContentServer;
use signal::metrics::psnr_u8;
use video::Frame;

use super::{capture, ladder_config, report_cache, SessionTally, EDGE_LAYER};
use crate::clock::Stopwatch;
use crate::trace::Tracer;
use crate::{layer_ms, measure, subseed, Config, Measured, Scale};

const TITLE: &str = "feature";
const TITLE_ID: TitleId = TitleId(901);
/// Every delivered frame must reconstruct at least this well.
const PSNR_FLOOR_DB: f64 = 24.0;
/// Processing elements of the modeled head-end platform.
const MODEL_PES: usize = 4;
/// Source frames streamed through the modeled task graph.
const MODEL_FRAMES: usize = 8;
/// The timed steps of an iteration (see [`crate::StepTimes`]): encode
/// to model, and every device's session and decode. Output checks are
/// outside both.
const HEADEND: usize = 0;
const PLAYBACK: usize = 1;

struct Size {
    width: usize,
    height: usize,
    frames: usize,
    rungs: usize,
    gop: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            width: 176,
            height: 144,
            frames: 48,
            rungs: 5,
            gop: 8,
        },
        Scale::Tiny => Size {
            width: 64,
            height: 48,
            frames: 8,
            rungs: 2,
            gop: 4,
        },
    }
}

/// What one iteration's head-end produced, for the layer report.
#[derive(Default)]
struct HeadendTally {
    sad_evals: u64,
    sad_pixel_ops: u64,
    dct_blocks: u64,
    vlc_symbols: u64,
    es_bytes: u64,
    wire_bytes: u64,
    makespan_ms: f64,
    energy_mj: f64,
}

impl HeadendTally {
    fn of(ladder: &Ladder) -> Self {
        let mut t = Self {
            wire_bytes: ladder.total_bytes() as u64,
            ..Self::default()
        };
        for c in &ladder.rung_costs {
            t.sad_evals += c.tally.me_sad_evaluations;
            t.sad_pixel_ops += c.tally.me_pixel_ops;
            t.dct_blocks += c.tally.dct_blocks;
            t.vlc_symbols += c.tally.vlc_symbols;
            t.es_bytes += c.es_bytes;
        }
        t
    }
}

/// What each set-up repetition prepares.
struct Rig {
    authority: LicenseAuthority,
    source: Vec<Frame>,
}

/// Blocks of `BLOCK` bytes that hold every object of `ladder`.
fn store_blocks(ladder: &Ladder) -> u32 {
    const BLOCK: usize = 4096;
    let objects = ladder
        .segments
        .iter()
        .flatten()
        .map(|s| s.len().div_ceil(BLOCK));
    let blocks: usize = objects.sum::<usize>() + ladder.manifest.to_bytes().len().div_ceil(BLOCK);
    u32::try_from(blocks + 16).expect("ladder fits a u32 block count")
}

pub(crate) fn run(config: &Config, tracer: &mut Tracer) -> Measured {
    let sz = size(config.scale);
    let ladder_cfg = ladder_config(sz.rungs, sz.gop);
    let mut m = Measured::default();

    // Set-up: the rights authority and the captured source.
    let setup = || {
        let mut authority = LicenseAuthority::new(b"operator".to_vec());
        authority.register_title(TITLE_ID);
        let source = capture(subseed(config.seed, 1), sz.width, sz.height, sz.frames);
        Rig { authority, source }
    };

    let mut sessions = SessionTally::default();
    let (mut decoded_frames, mut decodes, mut failed_decodes) = (0u64, 0u64, 0u64);
    let (mut idct_blocks, mut mc_pixels) = (0u64, 0u64);
    let (mut psnr_sum, mut psnr_frames) = (0.0f64, 0u64);
    let mut headend = HeadendTally::default();
    let mut edge_stats = Default::default();
    let mut first_ladder: Option<Ladder> = None;

    // The timed head-end encodes on the calling thread: a pooled encode's
    // time swings with how many cores the host grants at the moment,
    // which would make every run's rate bimodal. The pool is checked
    // against the warm-up's ladder once the timed phase is over.
    let timed = measure(config.seconds, tracer, setup, |rig, i, tr, steps| {
        let Rig { authority, source } = rig;
        let verification_key = authority.verification_key().to_vec();
        let counted = i > 0;
        let t0 = Stopwatch::start();
        let ladder = tr.span("ladder.encode", i, |_| {
            encode_ladder(TITLE, source, &ladder_cfg)
        });
        let mut ladder = match ladder {
            Ok(l) => l,
            Err(e) => {
                m.check(false, || format!("iteration {i}: encode failed: {e}"));
                return;
            }
        };
        if !counted {
            first_ladder = Some(ladder.clone());
        }
        let license = tr.span("drm.seal", i, |_| {
            seal_ladder(&mut ladder, authority, TITLE_ID);
            authority.issue(TITLE_ID, vec![Right::Play])
        });
        let stored = tr.span("mediafs.store", i, |_| {
            let mut fs = MediaFs::new(store_blocks(&ladder), 4096, AllocPolicy::FirstFit);
            store_ladder(&mut fs, &ladder).map(|()| fs)
        });
        let published = stored.and_then(|mut fs| {
            tr.span("mediafs.publish", i, |_| {
                let mut server = ContentServer::new();
                publish_from_fs(&mut fs, &mut server, TITLE)?;
                server.publish(Manifest::license_object(TITLE), license);
                Ok(server)
            })
        });
        let origin = match published {
            Ok(s) => s,
            Err(e) => {
                m.check(false, || {
                    format!("iteration {i}: store/publish failed: {e}")
                });
                return;
            }
        };
        let modeled = tr.span("mpsoc.model", i, |_| {
            let graph = headend_spec(&ladder, source).task_graph();
            let platform = Platform::symmetric_bus("headend", MODEL_PES, 200e6);
            let mapping = Mapping::load_balanced(&graph, &platform);
            Simulator::new(&platform).run_stream(&graph, &mapping, MODEL_FRAMES)
        });
        let t_headend = t0.seconds();
        match modeled {
            Ok(run) => {
                headend = HeadendTally {
                    makespan_ms: run.makespan_s() * 1e3,
                    energy_mj: run.energy().total_j() * 1e3,
                    ..HeadendTally::of(&ladder)
                };
            }
            Err(e) => m.check(false, || {
                format!("iteration {i}: head-end model failed: {e:?}")
            }),
        }

        // Playback: one device per rung cap, through one cold edge.
        let mut edge = EdgeCache::new(EdgeConfig::default());
        let mut t_playback = 0.0;
        for rung in 0..sz.rungs {
            let session_cfg = SessionConfig {
                max_rung: Some(rung),
                verification_key: Some(verification_key.clone()),
                seed: subseed(config.seed, 100 + rung as u64),
                ..Default::default()
            };
            let t1 = Stopwatch::start();
            let report = tr.span("session", rung as u64, |_| {
                run_session_via_edge(&origin, &mut edge, TITLE, &session_cfg)
            });
            let session_ms = t1.seconds() * 1e3;
            t_playback += session_ms / 1e3;
            if counted {
                sessions.record(session_ms, &report);
            }
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    m.check(false, || {
                        format!("iteration {i}: viewer {rung} failed: {e}")
                    });
                    continue;
                }
            };
            let mut first_frame = 0;
            for rec in &report.segments {
                let es = rec.segment.video_es.as_deref().unwrap_or_default();
                let t2 = Stopwatch::start();
                let decoded = tr.span("video.decode", rung as u64, |_| video::decode(es));
                t_playback += t2.seconds();
                let frames = first_frame..first_frame + rec.frames;
                first_frame = frames.end;
                if counted {
                    decodes += 1;
                }
                let dec = match decoded {
                    Ok(d) if d.frames.len() == rec.frames => d,
                    other => {
                        failed_decodes += u64::from(counted);
                        m.check(false, || {
                            format!(
                                "iteration {i}: viewer {rung} segment decode: {:?}",
                                other.err()
                            )
                        });
                        continue;
                    }
                };
                let psnrs: Vec<f64> = tr.span("bench.check", rung as u64, |_| {
                    dec.frames
                        .iter()
                        .zip(&source[frames])
                        .map(|(d, s)| psnr_u8(s.luma(), d.luma()).unwrap_or(0.0))
                        .collect()
                });
                let worst = psnrs.iter().copied().fold(f64::INFINITY, f64::min);
                m.check(worst >= PSNR_FLOOR_DB, || {
                    format!("iteration {i}: viewer {rung} frame PSNR {worst:.2} dB below floor")
                });
                if counted {
                    decoded_frames += dec.frames.len() as u64;
                    idct_blocks += dec.idct_blocks;
                    mc_pixels += dec.mc_pixels;
                    psnr_sum += psnrs.iter().map(|p| p.min(99.0)).sum::<f64>();
                    psnr_frames += psnrs.len() as u64;
                }
            }
        }
        edge_stats = *edge.stats();
        steps.add(HEADEND, t_headend);
        steps.add(PLAYBACK, t_playback);
    });

    let iterations = timed.iterations;
    let steps = &timed.steps;
    let per_iter = |v: u64| v as f64 / iterations.max(1) as f64;
    m.setup_s = timed.setup_s;
    m.items_per_s = sz.frames as f64 / steps.median_total();
    m.startup_ticks = sessions.startup_percentile(0.5);
    m.attempted = sessions.count() + decodes;
    m.failed = sessions.failed() + failed_decodes;

    m.layer("headend_fps", sz.frames as f64 / steps.median(HEADEND));
    m.layer(
        "playback_fps",
        per_iter(decoded_frames) / steps.median(PLAYBACK),
    );
    m.outcome = psnr_sum / psnr_frames.max(1) as f64;
    m.layer("psnr_db", m.outcome);
    m.layer("startup_ticks_p50", sessions.startup_percentile(0.5));
    m.layer("startup_ticks_p95", sessions.startup_percentile(0.95));
    m.layer("rebuffer_frac", sessions.rebuffer_frac());

    // The pooled encode must reproduce the sequential ladder exactly.
    let pool = WorkerPool::new(
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    let pooled = encode_ladder_on(&pool, TITLE, &timed.setup.source, &ladder_cfg);
    m.check(pooled.ok() == first_ladder, || {
        "the pooled ladder differs from the sequential one".to_string()
    });
    m.layer("host.pool_workers", pool.worker_count() as f64);
    m.layer("video.capture_ms", timed.setup_s * 1e3);
    m.layer("video.frames_decoded", per_iter(decoded_frames));
    m.layer("video.idct_blocks", per_iter(idct_blocks));
    m.layer("video.mc_pixels", per_iter(mc_pixels));
    m.layer("ladder.sad_evals", headend.sad_evals as f64);
    m.layer("ladder.sad_pixel_ops", headend.sad_pixel_ops as f64);
    m.layer("ladder.dct_blocks", headend.dct_blocks as f64);
    m.layer("ladder.vlc_symbols", headend.vlc_symbols as f64);
    m.layer("ladder.es_bytes", headend.es_bytes as f64);
    m.layer("ladder.wire_bytes", headend.wire_bytes as f64);
    m.layer("mpsoc.makespan_ms", headend.makespan_ms);
    m.layer("mpsoc.energy_mj", headend.energy_mj);
    sessions.report(&mut m, iterations);
    report_cache(&mut m, &EDGE_LAYER, &edge_stats, edge_stats.misses);
    for (metric, span) in [
        ("video.decode_ms", "video.decode"),
        ("ladder.encode_ms", "ladder.encode"),
        ("drm.seal_ms", "drm.seal"),
        ("mediafs.store_ms", "mediafs.store"),
        ("mediafs.publish_ms", "mediafs.publish"),
        ("mpsoc.model_ms", "mpsoc.model"),
    ] {
        m.layer(metric, layer_ms(tracer, span));
    }
    m
}
