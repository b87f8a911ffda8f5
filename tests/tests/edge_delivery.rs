//! The edge-cache delivery tier, end to end: ladder-encode → seal →
//! publish on the origin → viewers fetch *through an edge cache* over
//! lossy links. Cold cache, warm cache, then an origin outage that warm
//! edges ride out — plus the fluid-tier capacity story: the knee scales
//! with edge count.

use drm::playback::LicenseAuthority;
use drm::{Right, TitleId};
use mmstream::cache::{CacheConfig, CacheNode};
use mmstream::catalog::Catalog;
use mmstream::edge::EdgeTierConfig;
use mmstream::ladder::{encode_ladder, publish_ladder, seal_ladder, LadderConfig, Manifest};
use mmstream::serve::{curve_knee, sweep, CdnConfig, LoadConfig, Scenario};
use mmstream::session::{run_session, SessionConfig, SessionError};
use netstack::fetch::{ContentServer, FetchError};
use netstack::link::LinkConfig;
use video::synth::SequenceGen;

/// The head end: a sealed 3-rung ladder published on one origin server.
fn origin() -> (ContentServer, LicenseAuthority, Manifest) {
    let frames = SequenceGen::new(77).panning_sequence(64, 48, 24, 1, 1);
    let cfg = LadderConfig {
        targets_bits_per_frame: vec![3_000.0, 9_000.0, 27_000.0],
        gop: 4,
        ..Default::default()
    };
    let mut ladder = encode_ladder("feature", &frames, &cfg).expect("ladder encodes");
    let mut authority = LicenseAuthority::new(b"studio-secret".to_vec());
    let title_id = TitleId(7);
    authority.register_title(title_id);
    seal_ladder(&mut ladder, &authority, title_id);
    let mut server = ContentServer::new();
    publish_ladder(&mut server, &ladder);
    server.publish(
        Manifest::license_object("feature"),
        authority.issue(title_id, vec![Right::Play]),
    );
    let manifest = ladder.manifest.clone();
    (server, authority, manifest)
}

#[test]
fn cold_warm_outage_lifecycle_through_one_edge() {
    let (origin, authority, manifest) = origin();
    // The edge fills over its own 2%-loss origin link; viewers sit on a
    // 5%-loss access link. Pinned to rung 0: the acceptance bar is that
    // the safety rung plays stall-free through every phase.
    let mut edge = CacheNode::new(CacheConfig {
        origin_link: LinkConfig::default().with_loss(0.02),
        ..Default::default()
    });
    let viewer = SessionConfig {
        link: LinkConfig::default().with_loss(0.05),
        max_rung: Some(0),
        verification_key: Some(authority.verification_key().to_vec()),
        seed: 41,
        ..Default::default()
    };

    // Phase 1 — cold cache: every object (manifest, license, rung-0
    // segments) is an edge miss filled from the origin.
    let cold = run_session(&origin, &mut [&mut edge], "feature", &viewer).expect("cold session");
    assert_eq!(cold.segments.len(), manifest.segment_count());
    assert_eq!(cold.rebuffer_events, 0, "rung 0 must not stall even cold");
    let after_cold = *edge.stats();
    assert_eq!(after_cold.hits, 0, "a cold cache cannot hit");
    assert_eq!(
        after_cold.misses,
        2 + manifest.segment_count() as u64,
        "manifest + license + every rung-0 segment fill exactly once"
    );

    // Phase 2 — warm cache: a second viewer fetches the same objects
    // without a single new origin byte, and starts faster.
    let warm = run_session(&origin, &mut [&mut edge], "feature", &viewer).expect("warm session");
    let after_warm = *edge.stats();
    assert_eq!(after_warm.misses, after_cold.misses, "no new fills");
    assert_eq!(after_warm.origin_bytes, after_cold.origin_bytes);
    assert!(
        warm.total_ticks < cold.total_ticks,
        "warm ({}) must beat cold ({}): the origin leg is gone",
        warm.total_ticks,
        cold.total_ticks
    );
    assert!(warm.startup_delay_ticks <= cold.startup_delay_ticks);
    assert_eq!(warm.rebuffer_events, 0);

    // Phase 3 — origin outage: the warm edge keeps serving the title
    // with zero post-startup rebuffers at rung 0, and every delivered
    // segment still decodes.
    edge.set_parent_up(false);
    let outage =
        run_session(&origin, &mut [&mut edge], "feature", &viewer).expect("outage session");
    assert_eq!(outage.segments.len(), manifest.segment_count());
    assert_eq!(
        outage.rebuffer_events, 0,
        "warm edges must serve through the outage without stalls"
    );
    for (i, rec) in outage.segments.iter().enumerate() {
        let es = rec.segment.video_es.as_ref().expect("segment survived");
        let dec = video::decode(es).unwrap_or_else(|e| panic!("segment {i} undecodable: {e}"));
        assert_eq!(dec.frames.len(), rec.frames);
        assert_eq!(dec.kinds[0], video::FrameKind::Intra, "closed GOP entry");
    }
    assert_eq!(
        edge.stats().origin_bytes,
        after_warm.origin_bytes,
        "an outage session may not touch the origin"
    );

    // A title the edge never cached fails cleanly during the outage.
    assert!(matches!(
        run_session(&origin, &mut [&mut edge], "other", &viewer).unwrap_err(),
        SessionError::Fetch(FetchError::Server(_))
    ));
}

#[test]
fn free_abr_viewer_through_an_edge_upgrades() {
    let (origin, authority, _) = origin();
    let mut edge = CacheNode::new(CacheConfig::default());
    let viewer = SessionConfig {
        verification_key: Some(authority.verification_key().to_vec()),
        seed: 9,
        ..Default::default()
    };
    // Warm the edge with a first viewer, then let a second roam freely.
    run_session(&origin, &mut [&mut edge], "feature", &viewer).expect("first viewer");
    let report = run_session(&origin, &mut [&mut edge], "feature", &viewer).expect("second");
    assert_eq!(report.segments[0].rung, 0, "start on the safety rung");
    assert!(
        report.segments.iter().any(|s| s.rung > 0),
        "a warm edge on a clean link should earn an upgrade"
    );
}

#[test]
fn edge_tier_knee_scales_past_the_single_origin() {
    let (_, _, manifest) = origin();
    let base = LoadConfig {
        seed: 3,
        ..Default::default()
    };
    let counts = [200usize, 1_000, 2_000, 4_000];
    let catalog = Catalog::single(manifest);
    let curve_for = |cdn| sweep(&Scenario::new(&catalog, cdn, base), &counts, None);
    let single = curve_for(CdnConfig::single_origin());
    let single_knee = curve_knee(&single, 0.05).expect("single origin sustains some level");
    let tier = EdgeTierConfig {
        edges: 4,
        cache_capacity_bytes: usize::MAX,
        prewarm: true,
        ..Default::default()
    };
    let curve = curve_for(CdnConfig::flat(tier));
    assert!(curve
        .iter()
        .all(|r| r.edge.load.completed == r.edge.load.sessions));
    let knee = curve_knee(&curve, 0.05).expect("tier sustains some level");
    assert!(
        knee >= 2 * single_knee,
        "4 warm edges must at least double the knee: {knee} vs {single_knee}"
    );
    // Warm edges fully offload the origin.
    assert!(curve.iter().all(|r| r.edge.tier.origin_bytes == 0));
}
