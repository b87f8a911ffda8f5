//! End-to-end streaming: ladder-encode → DRM-seal → store → serve →
//! ABR session over lossy links, and the many-session capacity story.

use drm::playback::LicenseAuthority;
use drm::{Right, TitleId};
use mediafs::fs::{AllocPolicy, MediaFs};
use mmstream::catalog::Catalog;
use mmstream::ladder::{encode_ladder, publish_from_fs, seal_ladder, LadderConfig, Manifest};
use mmstream::serve::{curve_knee, sweep, CdnConfig, LoadConfig, Scenario};
use mmstream::session::{run_session, SessionConfig};
use netstack::fetch::ContentServer;
use netstack::link::LinkConfig;
use signal::metrics::psnr_u8;
use video::synth::SequenceGen;
use video::Frame;

fn source_frames() -> Vec<Frame> {
    SequenceGen::new(99).panning_sequence(64, 48, 24, 1, 1)
}

fn ladder_config() -> LadderConfig {
    LadderConfig {
        targets_bits_per_frame: vec![3_000.0, 9_000.0, 27_000.0],
        gop: 4,
        ..Default::default()
    }
}

/// Builds the full head-end: encode, seal, store on mediafs, and boot a
/// content server from the store. Returns the server and the authority.
fn head_end(frames: &[Frame]) -> (ContentServer, LicenseAuthority, Manifest) {
    let mut ladder = encode_ladder("feature", frames, &ladder_config()).expect("ladder encodes");
    let mut authority = LicenseAuthority::new(b"studio-secret".to_vec());
    let title_id = TitleId(42);
    authority.register_title(title_id);
    seal_ladder(&mut ladder, &authority, title_id);

    // The server's segment store is a media filesystem; the serving set
    // is booted from it, not from the encoder's in-memory ladder.
    let mut fs = MediaFs::new(8192, 512, AllocPolicy::FirstFit);
    mmstream::ladder::store_ladder(&mut fs, &ladder).expect("ladder fits the store");
    let mut server = ContentServer::new();
    let manifest = publish_from_fs(&mut fs, &mut server, "feature").expect("store is consistent");
    server.publish(
        Manifest::license_object("feature"),
        authority.issue(title_id, vec![Right::Play]),
    );
    (server, authority, manifest)
}

#[test]
fn abr_session_over_5pct_loss_plays_without_rebuffering() {
    let frames = source_frames();
    let (server, authority, manifest) = head_end(&frames);

    // A viewer on a 5%-loss access link, pinned to the lowest rung (the
    // acceptance bar: the safety rung must be stall-free).
    let config = SessionConfig {
        link: LinkConfig::default().with_loss(0.05),
        max_rung: Some(0),
        verification_key: Some(authority.verification_key().to_vec()),
        seed: 2024,
        ..Default::default()
    };
    let report = run_session(&server, &mut [], "feature", &config).expect("session completes");

    assert_eq!(report.segments.len(), manifest.segment_count());
    assert!(report.startup_delay_ticks > 0);
    assert_eq!(
        report.rebuffer_events, 0,
        "lowest rung must play through 5% loss with zero post-startup rebuffers"
    );
    assert_eq!(report.rung_switches, 0);

    // The delivered video is playable: every segment decodes, frame
    // counts match the source, and the lowest rung still resembles it.
    let mut decoded_frames = 0usize;
    let mut psnr_sum = 0.0f64;
    for (i, rec) in report.segments.iter().enumerate() {
        let es = rec.segment.video_es.as_ref().expect("segment survived");
        let dec = video::decode(es).unwrap_or_else(|e| panic!("segment {i} undecodable: {e}"));
        assert_eq!(dec.frames.len(), rec.frames, "segment {i} frame count");
        assert_eq!(dec.kinds[0], video::FrameKind::Intra, "closed GOP entry");
        for f in &dec.frames {
            assert_eq!((f.width(), f.height()), (64, 48));
            psnr_sum += psnr_u8(frames[decoded_frames].luma(), f.luma()).unwrap();
            decoded_frames += 1;
        }
    }
    assert_eq!(decoded_frames, frames.len(), "every source frame delivered");
    let mean_psnr = psnr_sum / decoded_frames as f64;
    assert!(
        mean_psnr > 20.0,
        "lowest rung should still resemble the source: {mean_psnr:.1} dB"
    );
}

#[test]
fn free_abr_session_upgrades_but_survives_loss() {
    let (server, authority, _) = head_end(&source_frames());
    let config = SessionConfig {
        link: LinkConfig::default().with_loss(0.05),
        verification_key: Some(authority.verification_key().to_vec()),
        seed: 7,
        ..Default::default()
    };
    let report = run_session(&server, &mut [], "feature", &config).expect("session completes");
    assert_eq!(report.segments[0].rung, 0, "start on the safety rung");
    assert!(
        report.segments.iter().any(|s| s.rung > 0),
        "a viable link should earn at least one upgrade"
    );
    for rec in &report.segments {
        assert!(video::decode(rec.segment.video_es.as_ref().unwrap()).is_ok());
    }
}

#[test]
fn capacity_curve_shows_a_knee_beyond_a_thousand_sessions() {
    let (_, _, manifest) = head_end(&source_frames());
    let catalog = Catalog::single(manifest);
    let base = LoadConfig {
        seed: 5,
        ..Default::default()
    };
    let s = Scenario::new(&catalog, CdnConfig::single_origin(), base);
    let curve = sweep(&s, &[20, 1_000, 4_000], None);
    let load: Vec<_> = curve.iter().map(|r| &r.edge.load).collect();
    assert!(load.iter().all(|r| r.completed == r.sessions));
    // Light load is comfortable; extreme load degrades per-session rate.
    assert!(load[0].rebuffer_fraction == 0.0);
    assert!(load[2].mean_session_bits_per_tick < load[0].mean_session_bits_per_tick);
    assert!(load[2].mean_rung <= load[0].mean_rung);
    let knee = curve_knee(&curve, 0.05).expect("some load level is sustainable");
    assert!(knee >= 20);
}
