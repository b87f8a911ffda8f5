//! Edge-CDN scenario (§7 + the ROADMAP's scale goal): one origin
//! publishes a sealed ABR ladder; a tier of edge caches sits between the
//! origin and the viewers. The first viewer warms an edge over its lossy
//! origin link, later viewers ride cache hits, and when the origin goes
//! dark the warm edge keeps serving. A fluid sweep then shows the
//! capacity knee scaling with edge count — the number a single
//! uplink cannot move.
//!
//! ```sh
//! cargo run --release --example edge_cdn
//! ```

use drm::playback::LicenseAuthority;
use drm::{Right, TitleId};
use mmstream::cache::{CacheConfig, CacheNode};
use mmstream::catalog::Catalog;
use mmstream::edge::EdgeTierConfig;
use mmstream::ladder::{encode_ladder, publish_ladder, seal_ladder, LadderConfig, Manifest};
use mmstream::serve::{curve_knee, sweep, CdnConfig, LoadConfig, Scenario};
use mmstream::session::{run_session, SessionConfig};
use netstack::fetch::ContentServer;
use netstack::link::LinkConfig;
use video::synth::SequenceGen;

fn main() {
    // 1. Head-end: a sealed 3-rung ladder on the origin server.
    let frames = SequenceGen::new(62).panning_sequence(64, 48, 24, 1, 1);
    let config = LadderConfig {
        targets_bits_per_frame: vec![3_000.0, 9_000.0, 27_000.0],
        gop: 4,
        ..Default::default()
    };
    let mut ladder = encode_ladder("feature", &frames, &config).expect("ladder encodes");
    let mut authority = LicenseAuthority::new(b"studio".to_vec());
    let title = TitleId(21);
    authority.register_title(title);
    seal_ladder(&mut ladder, &authority, title);
    let mut origin = ContentServer::new();
    publish_ladder(&mut origin, &ladder);
    origin.publish(
        Manifest::license_object("feature"),
        authority.issue(title, vec![Right::Play]),
    );
    println!(
        "origin: {} objects ({} rungs x {} segments, sealed)",
        origin.len(),
        ladder.manifest.rungs.len(),
        ladder.manifest.segment_count()
    );

    // 2. One edge cache between origin and viewers: cold, then warm.
    let mut edge = CacheNode::new(CacheConfig {
        origin_link: LinkConfig::default().with_loss(0.02),
        ..Default::default()
    });
    let viewer = SessionConfig {
        link: LinkConfig::default().with_loss(0.05),
        max_rung: Some(0),
        verification_key: Some(authority.verification_key().to_vec()),
        seed: 4,
        ..Default::default()
    };
    let cold = run_session(&origin, &mut [&mut edge], "feature", &viewer).expect("cold viewer");
    let warm = run_session(&origin, &mut [&mut edge], "feature", &viewer).expect("warm viewer");
    let s = edge.stats();
    println!(
        "edge: cold viewer {} ticks ({} fills, {} origin bytes); warm viewer {} ticks ({} hits)",
        cold.total_ticks, s.misses, s.origin_bytes, warm.total_ticks, s.hits
    );
    println!(
        "edge: hit rate {:.0}%, origin offload {:.0}%",
        100.0 * s.hit_rate(),
        100.0 * s.origin_offload()
    );

    // 3. Origin outage: the warm edge keeps playing the title.
    edge.set_parent_up(false);
    let outage = run_session(&origin, &mut [&mut edge], "feature", &viewer).expect("outage viewer");
    println!(
        "outage: origin dark, warm edge still serves {} segments with {} rebuffers",
        outage.segments.len(),
        outage.rebuffer_events
    );
    assert_eq!(outage.rebuffer_events, 0);

    // 4. The capacity story: knee vs edge count at equal per-link
    // capacity (4,000 bytes/tick, the single-origin uplink).
    let catalog = Catalog::single(ladder.manifest.clone());
    let knee = |cdn| {
        let s = Scenario::new(&catalog, cdn, LoadConfig::default());
        curve_knee(&sweep(&s, &[200, 1_000, 2_000, 4_000, 8_000], None), 0.05)
    };
    let single_knee = knee(CdnConfig::single_origin()).expect("single origin has a knee");
    println!("\ncapacity knee (<=5% of sessions rebuffering):");
    println!("  single origin: {single_knee} sessions");
    for edges in [2usize, 4, 8] {
        let tier = EdgeTierConfig {
            edges,
            prewarm: true,
            ..Default::default()
        };
        let knee = knee(CdnConfig::flat(tier)).expect("tier has a knee");
        println!(
            "  {edges} warm edges: {knee} sessions ({:.1}x the single origin)",
            knee as f64 / single_knee as f64
        );
    }
}
