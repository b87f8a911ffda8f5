//! The hierarchical CDN live path, end to end: a sealed multi-title
//! catalog published on one origin, viewers fetching through an edge
//! cache that fills through a regional *shield* cache over lossy
//! links. Cold-everything lifecycle, the exactly-one-origin-fill
//! ledger under cross-edge misses, and shield-outage ride-through via
//! warm caches and stale-if-error.

use drm::playback::LicenseAuthority;
use drm::{Right, TitleId};
use mmstream::cache::{CacheConfig, CacheNode};
use mmstream::ladder::{encode_ladder, publish_ladder, seal_ladder, LadderConfig, Manifest};
use mmstream::session::{run_session, SessionConfig, SessionError};
use netstack::fetch::{fetch, ContentServer, FetchError};
use netstack::link::LinkConfig;
use video::synth::SequenceGen;

/// The head end: several sealed 2-rung ladders (one per title)
/// published on a single origin server.
fn catalog_origin(titles: &[&str]) -> (ContentServer, LicenseAuthority, Vec<Manifest>) {
    let mut server = ContentServer::new();
    let mut authority = LicenseAuthority::new(b"studio-secret".to_vec());
    let mut manifests = Vec::new();
    for (i, title) in titles.iter().enumerate() {
        let frames = SequenceGen::new(40 + i as u64).panning_sequence(64, 48, 16, 1, 1);
        let cfg = LadderConfig {
            targets_bits_per_frame: vec![3_000.0, 9_000.0],
            gop: 4,
            ..Default::default()
        };
        let mut ladder = encode_ladder(title, &frames, &cfg).expect("ladder encodes");
        let title_id = TitleId(100 + i as u64);
        authority.register_title(title_id);
        seal_ladder(&mut ladder, &authority, title_id);
        publish_ladder(&mut server, &ladder);
        server.publish(
            Manifest::license_object(title),
            authority.issue(title_id, vec![Right::Play]),
        );
        manifests.push(ladder.manifest.clone());
    }
    (server, authority, manifests)
}

/// A rung-0-pinned viewer on a lossy access link.
fn viewer(authority: &LicenseAuthority) -> SessionConfig {
    SessionConfig {
        link: LinkConfig::default().with_loss(0.05),
        max_rung: Some(0),
        verification_key: Some(authority.verification_key().to_vec()),
        seed: 41,
        ..Default::default()
    }
}

#[test]
fn cold_edge_cold_shield_origin_lifecycle_multi_title() {
    let (origin, authority, manifests) = catalog_origin(&["alpha", "beta", "gamma"]);
    // Both fill hops are lossy: shield→origin over the regional
    // backbone (1%), edge→shield over its uplink (2%).
    let mut shield = CacheNode::new(CacheConfig {
        origin_link: LinkConfig::default().with_loss(0.01),
        ..Default::default()
    });
    let mut edge = CacheNode::new(CacheConfig {
        origin_link: LinkConfig::default().with_loss(0.02),
        ..Default::default()
    });
    let viewer = viewer(&authority);

    // Cold everything, title by title: every object (manifest,
    // license, rung-0 segments) misses at BOTH tiers exactly once and
    // the session still plays out in full.
    let mut expected = 0u64;
    for (title, manifest) in ["alpha", "beta", "gamma"].iter().zip(&manifests) {
        let cold = run_session(&origin, &mut [&mut edge, &mut shield], title, &viewer)
            .unwrap_or_else(|e| panic!("cold session for {title}: {e}"));
        assert_eq!(cold.segments.len(), manifest.segment_count());
        expected += 2 + manifest.segment_count() as u64;
        assert_eq!(edge.stats().misses, expected, "one edge fill per object");
        assert_eq!(
            shield.stats().misses,
            expected,
            "one shield fill per object"
        );
        assert_eq!(shield.stats().hits, 0, "nothing to hit while cold");
    }

    // Warm replay: no new fill at either tier, not one new origin
    // byte, and every delivered (sealed) segment still decodes.
    let origin_bytes = shield.stats().origin_bytes;
    let warm = run_session(&origin, &mut [&mut edge, &mut shield], "alpha", &viewer)
        .expect("warm session");
    assert_eq!(warm.segments.len(), manifests[0].segment_count());
    assert_eq!(
        warm.rebuffer_events, 0,
        "a warm edge must not stall at rung 0"
    );
    assert_eq!(edge.stats().misses, expected, "no new edge fills");
    assert_eq!(
        shield.stats().origin_bytes,
        origin_bytes,
        "no new origin bytes"
    );
    for (i, rec) in warm.segments.iter().enumerate() {
        let es = rec.segment.video_es.as_ref().expect("segment survived");
        let dec = video::decode(es).unwrap_or_else(|e| panic!("segment {i} undecodable: {e}"));
        assert_eq!(dec.frames.len(), rec.frames);
    }
}

#[test]
fn one_origin_fill_per_object_across_cold_edges() {
    let (origin, authority, manifests) = catalog_origin(&["alpha"]);
    let mut shield = CacheNode::new(CacheConfig::default());
    let viewer = viewer(&authority);
    let objects = 2 + manifests[0].segment_count() as u64;

    // Four cold edges miss every object of the same title in turn; the
    // shield's fill ledger must show exactly one started origin fill
    // per (object, generation) — the other edges' misses are shield
    // hits, never second round trips.
    for e in 0..4u64 {
        let mut edge = CacheNode::new(CacheConfig::default());
        let report = run_session(&origin, &mut [&mut edge, &mut shield], "alpha", &viewer)
            .unwrap_or_else(|e| panic!("session: {e}"));
        assert_eq!(report.segments.len(), manifests[0].segment_count());
        assert_eq!(edge.stats().misses, objects, "edge {e} is cold: all misses");
    }
    let (started, _joined, failed) = shield.fill_ledger();
    assert_eq!(started, objects, "exactly one origin fill per object");
    assert_eq!(failed, 0);
    assert_eq!(shield.stats().misses, objects);
    assert_eq!(
        shield.stats().hits,
        3 * objects,
        "later edges ride the warm shield"
    );
}

#[test]
fn shield_outage_ride_through() {
    let (mut origin, authority, manifests) = catalog_origin(&["alpha"]);
    let mut shield = CacheNode::new(CacheConfig {
        mutable_ttl_ticks: 10,
        ..Default::default()
    });
    let mut edge = CacheNode::new(CacheConfig {
        mutable_ttl_ticks: 10,
        ..Default::default()
    });
    let viewer = viewer(&authority);
    let n_segments = manifests[0].segment_count();

    // Warm both tiers, then crash the shield: the warm edge serves the
    // whole title stall-free without consulting it.
    run_session(&origin, &mut [&mut edge, &mut shield], "alpha", &viewer).expect("warm-up");
    shield.set_up(false);
    let outage = run_session(&origin, &mut [&mut edge, &mut shield], "alpha", &viewer)
        .expect("warm edge rides out the shield outage");
    assert_eq!(outage.segments.len(), n_segments);
    assert_eq!(outage.rebuffer_events, 0, "ride-through must be stall-free");

    // A cold edge has nothing to fall back on: it fails cleanly.
    let mut cold = CacheNode::new(CacheConfig::default());
    assert!(matches!(
        run_session(&origin, &mut [&mut cold, &mut shield], "alpha", &viewer).unwrap_err(),
        SessionError::Fetch(FetchError::Server(_))
    ));

    // Shield back up with the ORIGIN dark: its warm store alone brings
    // the cold edge through the full title — zero new origin bytes.
    shield.set_up(true);
    shield.set_parent_up(false);
    let origin_bytes = shield.stats().origin_bytes;
    let recovered = run_session(&origin, &mut [&mut cold, &mut shield], "alpha", &viewer)
        .expect("shield-warm recovery with the origin down");
    assert_eq!(recovered.segments.len(), n_segments);
    assert_eq!(
        shield.stats().origin_bytes,
        origin_bytes,
        "no origin byte crossed"
    );

    // Stale-if-error on the mutable path, across both hops: a cached
    // mutable object stays servable past its TTL when the shield is
    // unreachable, and again when the shield can't reach the origin.
    shield.set_parent_up(true);
    origin.publish("alpha/status".to_string(), vec![0x5Au8; 64]);
    let status = |edge: &mut CacheNode, shield: &mut CacheNode, seed, now| {
        CacheNode::fetch(
            &mut [edge, shield],
            &origin,
            "alpha/status",
            Some(now),
            |src, _| {
                let tcp = netstack::tcplite::TcpConfig::default();
                fetch(src, "alpha/status", tcp, LinkConfig::default(), seed)
            },
        )
    };
    let (fresh, _) = status(&mut edge, &mut shield, 1, 0).expect("first mutable fetch");
    shield.set_up(false);
    let (stale, _) =
        status(&mut edge, &mut shield, 2, 100).expect("stale-if-error across a dead shield");
    assert_eq!(stale, fresh);
    shield.set_up(true);
    shield.set_parent_up(false);
    let (stale2, _) =
        status(&mut edge, &mut shield, 3, 200).expect("stale-if-error across a dark origin");
    assert_eq!(stale2, fresh);
}
