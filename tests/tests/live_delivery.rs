//! Live/linear delivery, end to end: a sealed ladder looping on a
//! [`LiveOrigin`] with a rolling DVR window → live viewers joining at
//! the live edge or DVR start over lossy links, directly and through an
//! edge cache (mutable manifest on a TTL, segments invalidated on
//! window expiry) — plus the fluid live story: the capacity knee
//! scales with edge count, and a warm edge tier absorbs the flash
//! crowd that collapses a single origin.

use drm::playback::LicenseAuthority;
use drm::{Right, TitleId};
use mmstream::cache::{CacheConfig, CacheNode};
use mmstream::catalog::Catalog;
use mmstream::edge::EdgeTierConfig;
use mmstream::fault::RetryPolicy;
use mmstream::ladder::{encode_ladder, seal_ladder, LadderConfig, LiveOrigin, LiveOriginConfig};
use mmstream::serve::{
    curve_knee, simulate, sweep, CdnConfig, ChurnConfig, LiveConfig, LoadConfig, Scenario,
};
use mmstream::session::{run_live_session, JoinMode, LiveSessionConfig, SessionConfig};
use mmstream::Manifest;
use netstack::fetch::ContentServer;
use netstack::link::LinkConfig;
use video::synth::SequenceGen;

/// A sealed 3-rung live channel: 6-segment wheel, 200-tick publish
/// pace, 4-deep DVR window.
fn channel() -> (ContentServer, LiveOrigin, LicenseAuthority) {
    let frames = SequenceGen::new(55).panning_sequence(64, 48, 24, 1, 1);
    let cfg = LadderConfig {
        targets_bits_per_frame: vec![3_000.0, 9_000.0, 27_000.0],
        gop: 4,
        ..Default::default()
    };
    let mut ladder = encode_ladder("linear", &frames, &cfg).expect("ladder encodes");
    let mut authority = LicenseAuthority::new(b"broadcaster-secret".to_vec());
    let title_id = TitleId(22);
    authority.register_title(title_id);
    seal_ladder(&mut ladder, &authority, title_id);
    let mut server = ContentServer::new();
    server.publish(
        Manifest::license_object("linear"),
        authority.issue(title_id, vec![Right::Play]),
    );
    let origin = LiveOrigin::new(
        ladder,
        LiveOriginConfig {
            dvr_window_segments: 4,
            ticks_per_segment: 200,
        },
    )
    .expect("valid live config");
    (server, origin, authority)
}

/// A flat 25-tick refresh poll, giving up after 64 progress-free
/// refreshes.
fn poll_25() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 65,
        base_backoff_ticks: 25,
        max_backoff_ticks: 25,
        jitter_ticks: 0,
        seed: 0,
    }
}

#[test]
fn sealed_live_viewer_plays_the_channel_over_a_lossy_link() {
    let (mut server, mut origin, authority) = channel();
    let cfg = LiveSessionConfig {
        base: SessionConfig {
            link: LinkConfig::default().with_loss(0.05),
            max_rung: Some(0),
            verification_key: Some(authority.verification_key().to_vec()),
            seed: 61,
            ..Default::default()
        },
        join: JoinMode::LiveEdge,
        segments_to_play: 9, // more than one lap of the 6-segment wheel
        start_tick: 0,
        refresh: poll_25(),
    };
    let r =
        run_live_session(&mut server, &mut origin, &mut [], "linear", &cfg).expect("live session");
    assert_eq!(r.base.segments.len(), 9);
    assert_eq!(
        r.base.rebuffer_events, 0,
        "rung 0 over 5% loss must play the live channel stall-free"
    );
    // Everything decodes — including the wheel's second lap, whose
    // sealed bytes and nonces replay wheel segments.
    for (i, rec) in r.base.segments.iter().enumerate() {
        assert_eq!(
            rec.seq,
            r.base.segments[0].seq + i as u64,
            "no gaps, no rewinds"
        );
        let es = rec.segment.video_es.as_ref().expect("segment intact");
        let dec = video::decode(es).unwrap_or_else(|e| panic!("segment {i} undecodable: {e}"));
        assert_eq!(dec.frames.len(), rec.frames);
        assert_eq!(dec.kinds[0], video::FrameKind::Intra, "closed GOP entry");
    }
    // Live playback is paced by the 200-tick publish clock: the viewer
    // must have refreshed the manifest and waited on the live edge.
    assert!(r.manifest_refreshes > 0);
    assert!(r.stale_manifest_ticks > 0);
    assert_eq!(r.window_skips, 0, "a keeping-up viewer loses nothing");
    assert!(
        r.max_live_latency_ticks() <= 3 * 200,
        "live latency must stay within a few segment durations: {}",
        r.max_live_latency_ticks()
    );
}

#[test]
fn live_viewers_share_an_edge_that_honours_the_live_object_lifecycle() {
    let (mut server, mut origin, authority) = channel();
    let mut edge = CacheNode::new(CacheConfig {
        origin_link: LinkConfig::default().with_loss(0.02),
        mutable_ttl_ticks: 100, // half a segment duration
        ..Default::default()
    });
    let viewer = |seed: u64, start_tick: u64, join| LiveSessionConfig {
        base: SessionConfig {
            link: LinkConfig::default().with_loss(0.05),
            verification_key: Some(authority.verification_key().to_vec()),
            seed,
            ..Default::default()
        },
        join,
        segments_to_play: 6,
        start_tick,
        refresh: poll_25(),
    };
    let a = run_live_session(
        &mut server,
        &mut origin,
        &mut [&mut edge],
        "linear",
        &viewer(41, 0, JoinMode::LiveEdge),
    )
    .expect("first viewer");
    assert_eq!(a.base.segments.len(), 6);
    let after_a = *edge.stats();
    assert!(after_a.misses > 0, "a cold edge fills everything");
    assert!(
        after_a.revalidations > 0,
        "manifest refreshes past the TTL must revalidate at the origin"
    );
    assert!(
        after_a.invalidations > 0,
        "the origin's window expiry must purge the edge"
    );

    // A second viewer tunes in where the channel now stands and reads
    // the DVR window the first viewer's fills already cached.
    let tune_in = origin.publish_tick(origin.live_seq().expect("channel is live"));
    let b = run_live_session(
        &mut server,
        &mut origin,
        &mut [&mut edge],
        "linear",
        &viewer(42, tune_in, JoinMode::DvrStart),
    )
    .expect("second viewer");
    assert_eq!(b.base.segments.len(), 6);
    let after_b = *edge.stats();
    assert!(
        after_b.hits > after_a.hits,
        "the warm window must serve the second viewer from cache"
    );
    for rec in a.base.segments.iter().chain(&b.base.segments) {
        assert!(video::decode(rec.segment.video_es.as_ref().unwrap()).is_ok());
    }
}

#[test]
fn live_capacity_knee_scales_with_edge_count() {
    let frames = SequenceGen::new(55).panning_sequence(64, 48, 32, 1, 1);
    let cfg = LadderConfig {
        targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
        gop: 4,
        ..Default::default()
    };
    let manifest = encode_ladder("linear", &frames, &cfg).unwrap().manifest;
    let live = LiveConfig {
        dvr_window_segments: 8,
        join: JoinMode::LiveEdge,
        ..Default::default()
    };
    let catalog = Catalog::single(manifest);
    let knee_for = |edges: usize| {
        let tier = EdgeTierConfig {
            edges,
            prewarm: false,
            ..Default::default()
        };
        let s = Scenario {
            live: Some(live),
            ..Scenario::new(&catalog, CdnConfig::flat(tier), LoadConfig::default())
        };
        let curve = sweep(&s, &[500, 1_000, 2_000, 4_000], None);
        curve_knee(&curve, 0.05).expect("some live level is sustainable")
    };
    let one = knee_for(1);
    let four = knee_for(4);
    assert!(
        four >= 2 * one,
        "4 edges must at least double the live knee: {four} vs {one}"
    );
}

#[test]
fn warm_edge_tier_absorbs_the_flash_crowd_that_collapses_one_origin() {
    let frames = SequenceGen::new(55).panning_sequence(64, 48, 32, 1, 1);
    let cfg = LadderConfig {
        targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
        gop: 4,
        ..Default::default()
    };
    let manifest = encode_ladder("linear", &frames, &cfg).unwrap().manifest;
    let live = LiveConfig {
        dvr_window_segments: 8,
        join: JoinMode::LiveEdge,
        ..Default::default()
    };
    // 150 steady viewers; a 10x flash crowd rides in mid-event.
    let flashed = LoadConfig {
        sessions: 150,
        stagger_ticks: 800,
        churn: ChurnConfig {
            flash_sessions: 1_500,
            flash_at_tick: 1_200,
            flash_ramp_ticks: 600,
            ..Default::default()
        },
        ..Default::default()
    };
    let catalog = Catalog::single(manifest);
    let run = |cdn| {
        simulate(&Scenario {
            live: Some(live),
            ..Scenario::new(&catalog, cdn, flashed)
        })
    };
    let single = run(CdnConfig::single_origin()).edge.load;
    assert!(
        single.rebuffer_fraction > 0.05,
        "the flash crowd must drive a single origin past its knee: {}",
        single.rebuffer_fraction
    );
    let tier = EdgeTierConfig {
        edges: 4,
        prewarm: false,
        ..Default::default()
    };
    let edge = run(CdnConfig::flat(tier));
    assert!(
        edge.edge.load.rebuffer_fraction <= 0.05,
        "a warm 4-edge tier must absorb the same spike: {}",
        edge.edge.load.rebuffer_fraction
    );
    assert_eq!(
        edge.edge.load.completed + edge.edge.load.departed,
        edge.edge.load.sessions
    );
    // The absorption mechanism is coalescing: each just-published
    // live-edge segment crosses the origin link once per edge while
    // thousands of waiters ride that one fill.
    assert!(
        edge.edge.tier.coalesced > edge.edge.tier.misses * 10,
        "the herd must coalesce: {} waiters vs {} fills",
        edge.edge.tier.coalesced,
        edge.edge.tier.misses
    );
}
