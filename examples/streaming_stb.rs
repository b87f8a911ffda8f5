//! Streaming set-top box scenario (§6, §7): a head-end encodes an ABR
//! ladder, seals it, and serves it from a media-filesystem-backed
//! segment server; a box pulls segments over a lossy access link with a
//! playout buffer and throughput-driven rung selection; then a load
//! sweep finds how many concurrent boxes one server uplink sustains.
//!
//! ```sh
//! cargo run --release --example streaming_stb
//! ```

use audio::encoder::{AudioConfig, AudioEncoder};
use drm::playback::LicenseAuthority;
use drm::{Right, TitleId};
use mediafs::fs::{AllocPolicy, MediaFs};
use mmstream::catalog::Catalog;
use mmstream::ladder::{
    encode_ladder, publish_from_fs, seal_ladder, store_ladder, LadderConfig, Manifest,
};
use mmstream::segment::{demux_segment, mux_segment_wire};
use mmstream::serve::{curve_knee, sweep, CdnConfig, LoadConfig, Scenario};
use mmstream::session::{run_session, SessionConfig};
use netstack::fetch::ContentServer;
use netstack::link::LinkConfig;
use video::encoder::{Encoder, EncoderConfig};
use video::synth::SequenceGen;

fn main() {
    // 1. Head-end: encode the title as a 3-rung ABR ladder.
    let frames = SequenceGen::new(62).panning_sequence(64, 48, 24, 1, 1);
    let config = LadderConfig {
        targets_bits_per_frame: vec![3_000.0, 9_000.0, 27_000.0],
        gop: 4,
        ..Default::default()
    };
    let mut ladder = encode_ladder("feature", &frames, &config).expect("ladder encodes");
    println!(
        "head-end: {} frames -> {} rungs x {} segments, {} wire bytes total",
        frames.len(),
        ladder.manifest.rungs.len(),
        ladder.manifest.segment_count(),
        ladder.total_bytes()
    );

    // A muxed A/V sidecar: the same transport carries video + audio
    // elementary streams interleaved on separate PIDs.
    let seq = Encoder::new(EncoderConfig::default())
        .expect("valid")
        .encode(&frames[..4])
        .expect("encode");
    // Two 1152-sample subband frames of a plain tone.
    let pcm: Vec<f64> = (0..2304).map(|i| (i as f64 * 0.031).sin() * 0.4).collect();
    let audio_es = AudioEncoder::new(AudioConfig::default())
        .encode(&pcm)
        .expect("audio encodes")
        .bytes;
    let av = demux_segment(&mux_segment_wire(&seq, Some(&audio_es)));
    println!(
        "a/v mux: {} video + {} audio bytes over {} packets, loss detected: {}",
        av.video_es.as_ref().map_or(0, Vec::len),
        av.audio_es.as_ref().map_or(0, Vec::len),
        av.report.packets,
        av.report.loss_detected()
    );

    // 2. Rights: seal every segment, publish the license next to them.
    let mut authority = LicenseAuthority::new(b"operator".to_vec());
    let title_id = TitleId(901);
    authority.register_title(title_id);
    seal_ladder(&mut ladder, &authority, title_id);

    // 3. Segment store + server boot: mediafs backs the serving set.
    let mut fs = MediaFs::new(8192, 512, AllocPolicy::FirstFit);
    store_ladder(&mut fs, &ladder).expect("ladder fits");
    let mut server = ContentServer::new();
    let manifest = publish_from_fs(&mut fs, &mut server, "feature").expect("boot from store");
    server.publish(
        Manifest::license_object("feature"),
        authority.issue(title_id, vec![Right::Play]),
    );
    println!(
        "server: {} objects online (manifest + license + segments) from the media fs",
        server.len()
    );

    // 4. One box on a 5%-loss access link: license fetch, ABR playback.
    let session = SessionConfig {
        link: LinkConfig::default().with_loss(0.05),
        verification_key: Some(authority.verification_key().to_vec()),
        seed: 17,
        ..Default::default()
    };
    let report = run_session(&server, &mut [], "feature", &session).expect("session completes");
    let rungs: Vec<usize> = report.segments.iter().map(|s| s.rung).collect();
    println!(
        "viewer: startup {} ticks, {} rebuffers, {} switches, rungs {:?}",
        report.startup_delay_ticks, report.rebuffer_events, report.rung_switches, rungs
    );
    for rec in &report.segments {
        let dec = video::decode(rec.segment.video_es.as_ref().expect("survived"))
            .expect("segment decodes");
        assert_eq!(dec.frames.len(), rec.frames);
    }
    println!("viewer: every delivered segment decrypted and decoded");

    // 5. How many boxes does one uplink feed? Sweep to the knee.
    let server_model = CdnConfig::single_origin();
    let catalog = Catalog::single(manifest);
    let scenario = Scenario::new(&catalog, server_model, LoadConfig::default());
    let curve = sweep(&scenario, &[50, 200, 1_000, 4_000], None);
    println!(
        "load sweep (uplink {} bytes/tick):",
        server_model.tier.edge_capacity_bytes_per_tick
    );
    for r in curve.iter().map(|r| &r.edge.load) {
        println!(
            "  {:>5} sessions: {:>7.1} bits/tick/session, rung {:.2}, {:>5.1}% rebuffering",
            r.sessions,
            r.mean_session_bits_per_tick,
            r.mean_rung,
            100.0 * r.rebuffer_fraction
        );
    }
    match curve_knee(&curve, 0.05) {
        Some(k) => println!("capacity knee: ~{k} concurrent sessions per server"),
        None => println!("capacity knee: below the smallest swept level"),
    }
}
