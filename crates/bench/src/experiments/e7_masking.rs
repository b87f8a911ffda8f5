//! E7 — §4: psychoacoustic masking drives the bit allocation.
//!
//! Three probes: (a) a strong tone masks a weak neighbour — the model's
//! threshold sits above the neighbour's power, so the allocator gives its
//! band zero bits; (b) in *audible* bands (where listeners hear noise),
//! masking-aware allocation beats the flat baseline at constrained
//! budgets; (c) the psychoacoustic coder reaches its quality ceiling while
//! *spending fewer bits* — the paper's "eliminate masked tones to reduce
//! the amount of information that is sent to the decoder". All three
//! are asserted: (b) at 1,000 and 2,000 bits per frame, (c) as less
//! than half the flat coder's bits at 4,000 and 8,000.

use audio::encoder::{decode, AllocationMode, AudioConfig, AudioEncoder, FRAME_SAMPLES};
use audio::psycho::PsychoModel;
use mmsoc::report::{f, Table};
use signal::fft::Fft;
use signal::gen::{SignalGen, ToneSpec};

/// SNR restricted to the subbands the psychoacoustic model marks audible.
fn audible_band_snr(original: &[f64], decoded: &[f64]) -> f64 {
    let model = PsychoModel::new();
    let fft = Fft::new(1024);
    let mut sig = 0.0;
    let mut err = 0.0;
    for (o_frame, d_frame) in original
        .chunks_exact(FRAME_SAMPLES)
        .zip(decoded.chunks_exact(FRAME_SAMPLES))
    {
        let analysis = model.analyse(o_frame);
        let smr = analysis.smr_db();
        let o_spec = fft.power_spectrum(&o_frame[..1024]);
        let e: Vec<f64> = o_frame[..1024]
            .iter()
            .zip(&d_frame[..1024])
            .map(|(a, b)| a - b)
            .collect();
        let e_spec = fft.power_spectrum(&e);
        let bins_per_band = 1024 / 64;
        for (b, &band_smr) in smr.iter().enumerate() {
            if band_smr > 0.0 {
                let lo = b * bins_per_band;
                let hi = (b + 1) * bins_per_band;
                sig += o_spec[lo..hi].iter().sum::<f64>();
                err += e_spec[lo..hi].iter().sum::<f64>();
            }
        }
    }
    10.0 * (sig / err.max(1e-30)).log10()
}

/// Prints the masking and allocation tables, asserts all three probes
/// and returns, per budget (1,000 to 8,000 bits per frame), the
/// audible-band SNR (dB) and bits spent per frame of the
/// psychoacoustic and the flat allocation.
pub fn run() -> [[(f64, usize); 2]; 4] {
    // (a) Masking threshold demonstration.
    let fs = 32_000.0;
    let band_freq = |b: usize| (b as f64 + 0.5) / 64.0 * fs;
    let model = PsychoModel::new();
    let mut table = Table::new(vec![
        "probe",
        "band 8 SMR dB",
        "band 9 SMR dB",
        "band 9 audible?",
    ]);
    for (name, amp9) in [
        ("weak neighbour (-40 dB)", 0.01),
        ("strong neighbour (-12 dB)", 0.25),
    ] {
        let mut g = SignalGen::new(7);
        let x = g.tones(
            &[
                ToneSpec::new(band_freq(8), 1.0),
                ToneSpec::new(band_freq(9), amp9),
            ],
            fs,
            2048,
        );
        let smr = model.analyse(&x).smr_db();
        assert_eq!(
            smr[9] > 0.0,
            amp9 > 0.1,
            "only the strong neighbour may be audible ({name})"
        );
        table.row(vec![
            name.to_string(),
            f(smr[8], 1),
            f(smr[9], 1),
            if smr[9] > 0.0 {
                "yes".into()
            } else {
                "no (masked -> 0 bits)".to_string()
            },
        ]);
    }
    println!("{table}");

    // (b)+(c) Psychoacoustic vs flat allocation: audible-band quality and
    // bits actually spent, per budget.
    let mut g = SignalGen::new(8);
    let pcm = g.tones(
        &[
            ToneSpec::new(500.0, 0.8),
            ToneSpec::new(2000.0, 0.4),
            ToneSpec::new(8000.0, 0.2),
        ],
        44_100.0,
        8 * FRAME_SAMPLES,
    );
    let mut table = Table::new(vec![
        "budget bits/frame",
        "psycho audible-SNR dB",
        "flat audible-SNR dB",
        "psycho bits spent",
        "flat bits spent",
    ]);
    let budgets = [1000u64, 2000, 4000, 8000].map(|budget| {
        let run = |mode: AllocationMode| {
            let cfg = AudioConfig {
                budget_bits_per_frame: budget,
                mode,
                ..Default::default()
            };
            let stream = AudioEncoder::new(cfg).encode(&pcm).expect("encode");
            let bits = stream.frames.iter().map(|fr| fr.bits).sum::<usize>() / stream.frames.len();
            let out = decode(&stream.bytes).expect("decode");
            (audible_band_snr(&pcm, &out.samples), bits)
        };
        let [psycho, flat] = [AllocationMode::Psychoacoustic, AllocationMode::Flat].map(run);
        table.row(vec![
            budget.to_string(),
            f(psycho.0, 1),
            f(flat.0, 1),
            psycho.1.to_string(),
            flat.1.to_string(),
        ]);
        [psycho, flat]
    });
    println!("{table}");
    println!(
        "expected shape: at constrained budgets the psychoacoustic allocation wins \
         in the bands listeners hear; once both are past the masking ceiling the \
         psychoacoustic coder gets there spending far fewer bits (masked bands \
         transmit nothing)."
    );
    for [psycho, flat] in &budgets[..2] {
        assert!(psycho.0 > flat.0, "psycho must win at constrained budgets");
    }
    for [psycho, flat] in &budgets[2..] {
        assert!(2 * psycho.1 < flat.1, "psycho must spend far fewer bits");
    }
    budgets
}
