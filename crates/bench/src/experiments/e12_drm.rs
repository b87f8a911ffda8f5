//! E12 — §6: the DRM rights architecture, all four right forms.
//!
//! Exercises every right form the paper lists, tamper detection on sealed
//! licenses, the analog-only protected output path, and the decryption
//! overhead relative to plain playback. Every right form, the tamper
//! check and the protected output are asserted.

use std::time::Instant;

use drm::license::{DeviceId, Right, TitleId};
use drm::playback::{protected_play, LicenseAuthority, OutputPolicy, PlaybackDevice};
use drm::License;
use mmsoc::report::{f, Table};

/// Prints the rights table, asserts every right form and the protected
/// path, and returns the protected path's cost in ms per MB.
pub fn run() -> f64 {
    let mut authority = LicenseAuthority::new(b"studio-secret".to_vec());
    let title = TitleId(2005);
    authority.register_title(title);
    let content = vec![0xA5u8; 200_000];
    // A device holding the license `rights`, and whether it may play
    // at time `now`.
    let licensed = |id, policy, rights| {
        let mut dev = PlaybackDevice::new(DeviceId(id), policy);
        let sealed = authority.issue(title, rights);
        dev.store_mut()
            .install(&sealed, authority.verification_key())
            .expect("install");
        dev
    };
    let plays = |dev: &mut PlaybackDevice, now| {
        protected_play(dev, &authority, title, &content, 1, now).is_ok()
    };
    let digital = OutputPolicy::DigitalAllowed;

    let mut table = Table::new(vec!["right form", "scenario", "outcome"]);
    // 1. Play right.
    let mut dev = licensed(1, digital, vec![Right::Play]);
    assert!(plays(&mut dev, 0), "a licensed device must play");
    table.row(vec![
        "play title".into(),
        "licensed device plays".to_string(),
        "GRANTED".into(),
    ]);
    // 2. Play count.
    let mut dev = licensed(1, digital, vec![Right::PlayCount(2)]);
    let mut granted = 0;
    while plays(&mut dev, 0) {
        granted += 1;
        assert!(granted < 10, "runaway");
    }
    assert_eq!(granted, 2, "a 2-play license must grant exactly 2 plays");
    table.row(vec![
        "play count (2)".into(),
        format!("plays granted before refusal: {granted}"),
        "ENFORCED".into(),
    ]);
    // 3. Device binding.
    let bound = || vec![Right::Play, Right::Devices(vec![DeviceId(42)])];
    let refused = !plays(&mut licensed(1, digital, bound()), 0);
    let granted = plays(&mut licensed(42, digital, bound()), 0);
    assert!(refused && granted, "the device set must be enforced");
    table.row(vec![
        "device set".into(),
        "wrong device refused, licensed device plays".to_string(),
        "ENFORCED".into(),
    ]);
    // 4. Time window.
    let window = Right::TimeWindow {
        not_before: 100,
        not_after: 200,
    };
    let mut dev = licensed(1, digital, vec![Right::Play, window]);
    let (before, inside, after) = (
        plays(&mut dev, 50),
        plays(&mut dev, 150),
        plays(&mut dev, 250),
    );
    assert!(
        !before && inside && !after,
        "the time window must be enforced"
    );
    table.row(vec![
        "time window".into(),
        "before/inside/after the window".to_string(),
        "ENFORCED".into(),
    ]);
    println!("{table}");

    // Tampering.
    let mut tampered = authority.issue(title, vec![Right::PlayCount(1)]);
    tampered[10] ^= 0x04; // try to inflate the count
    let detected = License::unseal(&tampered, authority.verification_key()).is_err();
    assert!(detected, "license tampering must be detected");
    println!("license tampering detected: yes");

    // Analog-only output.
    let mut analog = licensed(1, OutputPolicy::AnalogOnly, vec![Right::PlayCount(1)]);
    let out = protected_play(&mut analog, &authority, title, &content, 1, 0).expect("play");
    let leaked = matches!(out, drm::playback::PlaybackOutput::Digital(_));
    assert!(!leaked, "an analog-only device must not leak digital bytes");
    println!("analog-only device leaks digital bytes: no (protected path holds)");

    // Decryption overhead.
    let encrypted = authority.encrypt_content(title, &content, 1);
    let mut dev = licensed(7, digital, vec![Right::PlayCount(1000)]);
    let t0 = Instant::now();
    let reps = 50;
    for i in 0..reps {
        let _ = dev.play(title, &encrypted, 1, i).expect("play");
    }
    let per_mb = t0.elapsed().as_secs_f64() / reps as f64 / (content.len() as f64 / 1e6);
    println!(
        "protected-path cost: {} ms per MB decrypted+authorized (XTEA-CTR software)",
        f(per_mb * 1e3, 2)
    );
    per_mb * 1e3
}
