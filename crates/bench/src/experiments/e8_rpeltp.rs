//! E8 — §4: the RPE-LTP voice codec.
//!
//! Encodes voiced and unvoiced material through the GSM-structured codec:
//! bit rate in the 13 kbit/s ballpark, a long-term-predictor gain on
//! voiced (periodic) speech above the unvoiced one, lags tracking the
//! pitch period. Asserted: every bitrate within 10% of 13 kbit/s, both
//! voiced gains above the unvoiced gain, and more than half of the
//! 100 Hz subframe lags at the pitch period (or half of it). The margins
//! are thin: the gains read 0.57 and 0.78 against 0.41, and 15 of 28
//! lags lock.

use audio::rpeltp::{RpeLtp, FRAME};
use mmsoc::report::{f, Table};
use signal::gen::{SignalGen, SpeechSegment};

/// Prints the codec table and pitch tracking, asserts the voice model's
/// shape and returns the bitrate (kbit/s) and mean LTP gain of voiced
/// 100 Hz, voiced 160 Hz and unvoiced speech.
pub fn run() -> [(f64, f64); 3] {
    let codec = RpeLtp::new();
    let mut table = Table::new(vec![
        "material",
        "bitrate kbit/s",
        "mean LTP gain",
        "decoded/source RMS",
    ]);
    let mut g = SignalGen::new(88);
    let material = [
        ("voiced 100 Hz", SpeechSegment::Voiced { pitch_hz: 100.0 }),
        ("voiced 160 Hz", SpeechSegment::Voiced { pitch_hz: 160.0 }),
        ("unvoiced", SpeechSegment::Unvoiced),
    ]
    .map(|(name, seg)| {
        let (speech, _) = g.speech(&[(seg, 10 * FRAME)], 8000.0);
        let enc = codec.encode(&speech).expect("encode");
        let dec = codec.decode(&enc.bytes).expect("decode");
        let rms = |x: &[f64]| (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt();
        let gain: f64 = enc.frames[2..]
            .iter()
            .map(|fr| fr.mean_ltp_gain)
            .sum::<f64>()
            / (enc.frames.len() - 2) as f64;
        table.row(vec![
            name.to_string(),
            f(enc.bitrate_bps() / 1000.0, 2),
            f(gain, 2),
            f(rms(&dec) / rms(&speech).max(1e-9), 2),
        ]);
        (enc.bitrate_bps() / 1000.0, gain)
    });
    println!("{table}");

    // Pitch tracking.
    let (speech, _) = g.speech(
        &[(SpeechSegment::Voiced { pitch_hz: 100.0 }, 10 * FRAME)],
        8000.0,
    );
    let enc = codec.encode(&speech).expect("encode");
    let lags: Vec<usize> = enc.frames[3..].iter().flat_map(|fr| fr.lags).collect();
    let near = lags
        .iter()
        .filter(|&&l| (l as i64 - 80).abs() <= 3 || (l as i64 - 40).abs() <= 3)
        .count();
    println!(
        "pitch tracking: {}/{} subframe lags at the 80-sample period (or half) for 100 Hz pitch",
        near,
        lags.len()
    );
    println!(
        "expected shape: ~13 kbit/s; voiced gain above unvoiced gain; most lags lock to pitch."
    );
    for (kbps, _) in material {
        assert!((kbps - 13.0).abs() < 1.3, "{kbps:.2} kbit/s is not ~13");
    }
    let unvoiced = material[2].1;
    assert!(material[..2].iter().all(|&(_, gain)| gain > unvoiced));
    assert!(2 * near > lags.len(), "most lags must lock to the pitch");
    material
}
