//! E3 — §2: symmetric vs asymmetric compression systems.
//!
//! Encodes the same sequence under a videoconference configuration
//! (cheap diamond search, short GOP) and a broadcast configuration
//! (exhaustive search, long GOP), then decodes both and compares
//! encoder-side vs decoder-side operation counts. Asserted shape: the
//! broadcast encoder:decoder ratio is more than 3x the conference
//! one, while the two decoders cost within 35% of each other. (The
//! conference encoder still costs ~2.5x its decoder: "roughly equal"
//! is a comparison with broadcast, not parity.)

use crate::test_video;
use mmsoc::report::{count, f, Table};
use video::decoder::decode;
use video::encoder::{Encoder, EncoderConfig};

/// Encoder ops, decoder ops and PSNR of one configuration.
fn ops(config: EncoderConfig, frames: &[video::frame::Frame]) -> (u64, u64, f64) {
    let encoded = Encoder::new(config)
        .expect("valid")
        .encode(frames)
        .expect("encode");
    let decoded = decode(&encoded.bytes).expect("decode");
    // Encoder ops: ME pixel ops + transform MACs + quant + VLC.
    let enc_ops = encoded.tally.me_pixel_ops
        + encoded.tally.dct_macs()
        + encoded.tally.quant_coeffs
        + encoded.tally.vlc_symbols * 8;
    // Decoder ops: inverse transforms + motion compensation + parse.
    let dec_ops =
        decoded.idct_blocks * 2 * 8 * 8 * 8 + decoded.mc_pixels + encoded.tally.vlc_symbols * 8;
    (enc_ops, dec_ops, encoded.mean_psnr_db())
}

/// Prints the cost table, asserts that broadcast is the asymmetric
/// system and returns the (encoder ops, decoder ops, PSNR) of the
/// conference and broadcast configurations.
pub fn run() -> [(u64, u64, f64); 2] {
    let frames = test_video(176, 144, 16);
    let rows = [
        EncoderConfig::symmetric_conference(),
        EncoderConfig::asymmetric_broadcast(),
    ]
    .map(|config| ops(config, &frames));

    let mut table = Table::new(vec![
        "configuration",
        "encoder ops",
        "decoder ops",
        "ratio enc:dec",
        "PSNR dB",
    ]);
    let names = ["symmetric (videoconference)", "asymmetric (broadcast)"];
    for (name, (enc, dec, psnr)) in names.iter().zip(rows) {
        table.row(vec![
            name.to_string(),
            count(enc),
            count(dec),
            f(enc as f64 / dec as f64, 1),
            f(psnr, 1),
        ]);
    }
    println!("{table}");

    let [sym_ratio, asym_ratio] = rows.map(|(enc, dec, _)| enc as f64 / dec as f64);
    println!(
        "asymmetric ratio is {}x the symmetric ratio",
        f(asym_ratio / sym_ratio, 1)
    );
    assert!(
        asym_ratio > 3.0 * sym_ratio,
        "broadcast encoding must be clearly the expensive side"
    );
    let decoders = rows[1].1 as f64 / rows[0].1 as f64;
    assert!(
        (decoders - 1.0).abs() < 0.35,
        "the broadcast decoder must stay as cheap as the conference one: {decoders:.2}x"
    );
    rows
}
