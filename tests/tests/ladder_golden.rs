//! A golden of the streaming head-end's encode, captured before the
//! codec's fast kernels landed: the 5-rung QCIF GOP-8 ladder of a noisy
//! pan must keep its wire bytes and every rung's stage tallies exactly.

use mmstream::ladder::{encode_ladder, LadderConfig};
use video::synth::SequenceGen;
use video::Frame;

/// Two GOPs of the benchmark's synthetic camera: a panned scene plus
/// sensor noise.
fn source() -> Vec<Frame> {
    let mut frames = SequenceGen::new(12).panning_sequence(176, 144, 16, 1, 1);
    let mut sensor = SequenceGen::new(7);
    for f in &mut frames {
        sensor.add_noise(f, 1.5);
    }
    frames
}

/// Five rate targets spaced geometrically from 2,000 to 18,000 bits per
/// frame, GOP 8, the default diamond search.
fn config() -> LadderConfig {
    LadderConfig {
        targets_bits_per_frame: (0..5)
            .map(|i| 2_000.0 * 9f64.powf(f64::from(i) / 4.0))
            .collect(),
        gop: 8,
        ..Default::default()
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Per rung: SAD evaluations, SAD pixel ops, DCT blocks, IDCT blocks,
/// quantized coefficients, VLC symbols, MC pixels, elementary-stream
/// bytes.
const RUNG_COSTS: [[u64; 8]; 5] = [
    [20738, 5308928, 9504, 9504, 608256, 27357, 532224, 9714],
    [20778, 5319168, 9504, 9504, 608256, 30781, 532224, 12683],
    [20866, 5341696, 9504, 9504, 608256, 37013, 532224, 17868],
    [20888, 5347328, 9504, 9504, 608256, 51509, 532224, 28692],
    [20685, 5295360, 9504, 9504, 608256, 85265, 532224, 50629],
];
const WIRE_BYTES: usize = 128_404;
const WIRE_DIGEST: &str = "8e5a4e67615d5ed7ebb81bb05f42c18cab95546d0abe7d4aa02a948c49a36411";

#[test]
fn five_rung_qcif_ladder_matches_its_golden() {
    let ladder = encode_ladder("golden", &source(), &config()).expect("ladder encodes");
    let costs: Vec<[u64; 8]> = ladder
        .rung_costs
        .iter()
        .map(|c| {
            let t = &c.tally;
            [
                t.me_sad_evaluations,
                t.me_pixel_ops,
                t.dct_blocks,
                t.idct_blocks,
                t.quant_coeffs,
                t.vlc_symbols,
                t.mc_pixels,
                c.es_bytes,
            ]
        })
        .collect();
    assert_eq!(costs, RUNG_COSTS);
    let wire: Vec<u8> = ladder
        .segments
        .iter()
        .flatten()
        .flatten()
        .copied()
        .collect();
    assert_eq!(wire.len(), WIRE_BYTES);
    assert_eq!(hex(&drm::hash::hash(&wire)), WIRE_DIGEST);
}
