//! E19 — the video hot-path perf harness.
//!
//! Measures the zero-allocation, early-exit encode hot path against the
//! seed implementation it replaced, and writes the machine-readable
//! `BENCH_video.json` that tracks the repo's perf trajectory:
//!
//! * **Full-search ME**: alloc-copy baseline (a faithful reimplementation
//!   of the seed's per-candidate `luma_block_at -> Vec` + `sad_u8` path)
//!   vs the strided/bounded hot path — wall ns/block, plus the
//!   *effective* SAD pixel ops after row-wise early exit vs the
//!   exhaustive count. The two motion fields are asserted bit-identical.
//! * **8×8 DCT**: generic matrix row–column (the seed `Dct2d`) vs the
//!   fixed-8 butterfly — wall ns/block and multiplies per 1-D transform.
//! * **Encoder end-to-end**: frames/s and stage tallies for the default
//!   configuration.
//! * **Decoder end-to-end**: ns per QCIF frame for table-driven Huffman
//!   decode, inverse quantization, IDCT and motion compensation.
//! * **Codec kernels**: each fast kernel against the scalar oracle it is
//!   pinned to — 16-wide SAD, quantize, reconstruction — in ns per
//!   call, with `bit_identical` asserted over every input before it is
//!   recorded.
//! * **Ladder**: ms per 5-rung QCIF GOP-8 ladder (48 frames, the
//!   benchmark's `vod_pipeline` configuration), whose pooled encode is
//!   asserted equal to the sequential one.
//! * **Block walk**: encode and decode of a QCIF frame pair with the
//!   walk at the host's vector width and forced to the baseline copy,
//!   timed interleaved. This row, the ladder and the decoder record the
//!   width that ran (`vector_bits`).
//! * **Other kernels**: ns per call (`wall_ns`) of the direct DCT and
//!   the butterfly IDCT, the QCIF encoder per configuration, the audio
//!   codecs and psychoacoustic model, the FFT, filterbank, hash and
//!   servo loop, and the MPSoC deployment strategies.

use std::hint::black_box;

use crate::perf::{
    interleaved_medians_ns, matrix_dct2d_forward, median_ns_per_iter, PerfEntry, PerfReport,
};
use crate::{cif_spec, test_music, test_speech, test_video, SEED};
use audio::encoder::{AudioConfig, AudioEncoder};
use audio::filterbank::Filterbank;
use audio::psycho::PsychoModel;
use audio::rpeltp::RpeLtp;
use mmpool::WorkerPool;
use mmsoc::deploy::{deploy, Strategy};
use mmsoc::video_encoder_pipeline;
use mmstream::ladder::{encode_ladder, encode_ladder_on, LadderConfig, RungCost};
use mpsoc::platform::Platform;
use servo::control::Pid;
use servo::loopctl::{nominal_gains, run_loop};
use servo::plant::Mechanism;
use signal::dct1d::Dct1d;
use signal::dct8::{fdct8, FAST8_MULS};
use signal::fft::Fft;
use signal::metrics::{sad_u8, sad_u8_bounded_ops, sad_u8_bounded_ops_scalar};
use signal::rng::Xoroshiro128;
use video::dct::{forward_direct, Dct2d, BLOCK};
use video::decoder::{decode, decode_baseline};
use video::encoder::{Encoder, EncoderConfig};
use video::frame::Frame;
use video::me::{MotionEstimator, MotionVector, SearchKind, MB};
use video::quant::{round_clamp, Quantizer, FLAT_MATRIX};
use video::synth::SequenceGen;

const RANGE: i32 = 15;

/// The seed implementation's full search: one allocating copy per
/// candidate, unbounded SAD. Kept here (not in `video`) purely as the
/// baseline this harness measures against.
fn full_search_alloc_baseline(current: &Frame, reference: &Frame) -> Vec<MotionVector> {
    let (cols, rows) = current.macroblocks();
    let mut out = Vec::with_capacity(cols * rows);
    for by in 0..rows {
        for bx in 0..cols {
            let target = current.luma_block(bx, by, MB);
            let (x0, y0) = ((bx * MB) as i32, (by * MB) as i32);
            let mut best = (MotionVector::default(), u64::MAX);
            for dy in -RANGE..=RANGE {
                for dx in -RANGE..=RANGE {
                    let mv = MotionVector::new(dx, dy);
                    let cand = reference.luma_block_at(x0 + mv.dx, y0 + mv.dy, MB);
                    let s = sad_u8(&target, &cand);
                    if s < best.1 || (s == best.1 && mv.magnitude_sq() < best.0.magnitude_sq()) {
                        best = (mv, s);
                    }
                }
            }
            out.push(best.0);
        }
    }
    out
}

/// Replays the hot path's full search with the instrumented bounded SAD
/// to count the pixel comparisons actually performed after early exit.
fn full_search_effective_ops(current: &Frame, reference: &Frame) -> (u64, u64) {
    let (cols, rows) = current.macroblocks();
    let mut target = [0u8; MB * MB];
    let mut scratch = [0u8; MB * MB];
    let mut effective = 0u64;
    let mut exhaustive = 0u64;
    for by in 0..rows {
        for bx in 0..cols {
            current.luma_block_into(bx, by, MB, &mut target);
            let (x0, y0) = ((bx * MB) as i32, (by * MB) as i32);
            let mut best = (MotionVector::default(), u64::MAX);
            for dy in -RANGE..=RANGE {
                for dx in -RANGE..=RANGE {
                    let mv = MotionVector::new(dx, dy);
                    let view = reference.luma_view(x0 + mv.dx, y0 + mv.dy, MB);
                    let (s, ops) = match view.interior() {
                        Some((cand, stride)) => {
                            sad_u8_bounded_ops(&target, MB, cand, stride, MB, MB, best.1)
                        }
                        None => {
                            view.gather_into(&mut scratch);
                            sad_u8_bounded_ops(&target, MB, &scratch, MB, MB, MB, best.1)
                        }
                    };
                    effective += ops;
                    exhaustive += (MB * MB) as u64;
                    if s < best.1 || (s == best.1 && mv.magnitude_sq() < best.0.magnitude_sq()) {
                        best = (mv, s);
                    }
                }
            }
        }
    }
    (effective, exhaustive)
}

/// The signature shared by the SAD kernel and its scalar oracle.
type SadKernel = fn(&[u8], usize, &[u8], usize, usize, usize, u64) -> (u64, u64);

/// A kernel row: the scalar oracle's and the fast kernel's median ns per
/// call over `calls` calls whose outputs were asserted equal.
fn kernel_row(name: &str, calls: usize, oracle: impl FnMut(), kernel: impl FnMut()) -> PerfEntry {
    let n = calls as f64;
    let oracle_ns = median_ns_per_iter(oracle) / n;
    let kernel_ns = median_ns_per_iter(kernel) / n;
    println!(
        "  {name:<12}: oracle {oracle_ns:>8.1} ns, kernel {kernel_ns:>8.1} ns ({:.2}x), bit-identical over {calls} calls",
        oracle_ns / kernel_ns
    );
    PerfEntry::new(name)
        .metric("calls", n)
        .metric("bit_identical", 1.0)
        .timing("oracle_wall_ns", oracle_ns)
        .timing("kernel_wall_ns", kernel_ns)
        .timing("speedup_vs_oracle", oracle_ns / kernel_ns)
}

/// The kernel rows, on the 8×8 blocks and 16×16 macroblocks of a QCIF
/// frame pair.
fn kernel_rows(report: &mut PerfReport, current: &Frame, reference: &Frame) {
    println!("\ncodec kernels vs their scalar oracles (QCIF frame pair):");

    // 16-wide SAD: every macroblock against the interior candidates of
    // a ±4 window, unbounded and with the zero-motion SAD as cutoff.
    let (cols, rows) = current.macroblocks();
    let mut sads: Vec<([u8; MB * MB], &[u8], usize, u64)> = Vec::new();
    for by in 0..rows {
        for bx in 0..cols {
            let mut target = [0u8; MB * MB];
            current.luma_block_into(bx, by, MB, &mut target);
            let (x0, y0) = ((bx * MB) as i32, (by * MB) as i32);
            let zero = reference
                .luma_view(x0, y0, MB)
                .interior()
                .expect("block is inside");
            let zero_sad =
                sad_u8_bounded_ops_scalar(&target, MB, zero.0, zero.1, MB, MB, u64::MAX).0;
            for (dy, dx) in (-4..=4).flat_map(|dy| (-4..=4).map(move |dx| (dy, dx))) {
                if let Some((cand, stride)) = reference.luma_view(x0 + dx, y0 + dy, MB).interior() {
                    for cutoff in [u64::MAX, zero_sad] {
                        sads.push((target, cand, stride, cutoff));
                    }
                }
            }
        }
    }
    for &(target, cand, stride, cutoff) in &sads {
        assert_eq!(
            sad_u8_bounded_ops(&target, MB, cand, stride, MB, MB, cutoff),
            sad_u8_bounded_ops_scalar(&target, MB, cand, stride, MB, MB, cutoff),
            "SSE2 SAD must equal the scalar kernel, value and op count"
        );
    }
    let sads = &sads;
    let sad_with = |f: SadKernel| {
        move || {
            for (target, cand, stride, cutoff) in sads {
                black_box(f(black_box(target), MB, cand, *stride, MB, MB, *cutoff));
            }
        }
    };
    report.push(kernel_row(
        "sad16",
        sads.len(),
        sad_with(sad_u8_bounded_ops_scalar),
        sad_with(sad_u8_bounded_ops),
    ));

    // 8x8 blocks of the current frame's luma, level-shifted, and their
    // transforms.
    let plane = current.luma_plane();
    let (bcols, brows) = plane.blocks(BLOCK);
    let mut pixels = Vec::with_capacity(bcols * brows);
    for by in 0..brows {
        for bx in 0..bcols {
            let mut px = [0u8; BLOCK * BLOCK];
            plane.block_into((bx * BLOCK) as i32, (by * BLOCK) as i32, BLOCK, &mut px);
            pixels.push(px);
        }
    }
    let blocks: Vec<[f64; 64]> = pixels
        .iter()
        .map(|px| core::array::from_fn(|i| f64::from(px[i]) - 128.0))
        .collect();
    let dct = Dct2d::new();
    let coeffs: Vec<[f64; 64]> = blocks.iter().map(|b| dct.forward(b)).collect();

    let quant = Quantizer::from_quality_with_matrix(50, &FLAT_MATRIX).expect("quality 50 is valid");
    for c in &coeffs {
        assert_eq!(
            quant.quantize(c),
            quant.quantize_scalar(c),
            "quantize must equal the oracle"
        );
    }
    report.push(kernel_row(
        "quantize",
        coeffs.len(),
        || {
            coeffs.iter().for_each(|c| {
                black_box(quant.quantize_scalar(black_box(c)));
            })
        },
        || {
            coeffs.iter().for_each(|c| {
                black_box(quant.quantize(black_box(c)));
            })
        },
    ));

    // Reconstruction: dequantize, inverse DCT, add the prediction (the
    // block's own pixels), round and clamp. The oracle rounds with libm.
    let levels: Vec<[i16; 64]> = coeffs.iter().map(|c| quant.quantize(c)).collect();
    let reconstruct_oracle = |l: &[i16; 64], pred: &[u8; 64]| -> [u8; 64] {
        let r = dct.inverse(&quant.dequantize(l));
        core::array::from_fn(|i| (f64::from(pred[i]) + r[i]).round().clamp(0.0, 255.0) as u8)
    };
    let reconstruct = |l: &[i16; 64], pred: &[u8; 64]| -> [u8; 64] {
        let r = dct.inverse(&quant.dequantize(l));
        core::array::from_fn(|i| round_clamp(f64::from(pred[i]) + r[i], 0.0, 255.0) as u8)
    };
    for (l, p) in levels.iter().zip(&pixels) {
        assert_eq!(
            reconstruct(l, p),
            reconstruct_oracle(l, p),
            "reconstruction must equal the oracle"
        );
    }
    report.push(kernel_row(
        "reconstruct",
        levels.len(),
        || {
            for (l, p) in levels.iter().zip(&pixels) {
                black_box(reconstruct_oracle(black_box(l), p));
            }
        },
        || {
            for (l, p) in levels.iter().zip(&pixels) {
                black_box(reconstruct(black_box(l), p));
            }
        },
    ));
}

/// The 5-rung QCIF GOP-8 ladder of the benchmark's `vod_pipeline`
/// workload: a 48-frame noisy pan, targets 2,000–18,000 bits per frame.
fn ladder_row(report: &mut PerfReport) {
    let mut source = SequenceGen::new(12).panning_sequence(176, 144, 48, 1, 1);
    let mut sensor = SequenceGen::new(1);
    for f in &mut source {
        sensor.add_noise(f, 1.5);
    }
    let config = LadderConfig {
        targets_bits_per_frame: (0..5)
            .map(|i| 2_000.0 * 9f64.powf(f64::from(i) / 4.0))
            .collect(),
        gop: 8,
        ..Default::default()
    };
    let ladder = encode_ladder("e19", &source, &config).expect("ladder encodes");
    let pooled = encode_ladder_on(&WorkerPool::new(2), "e19", &source, &config);
    assert_eq!(
        pooled.as_ref(),
        Ok(&ladder),
        "pooled ladder must equal the sequential one"
    );
    let ns = median_ns_per_iter(|| encode_ladder("e19", black_box(&source), &config).unwrap());
    let sum = |f: fn(&RungCost) -> u64| ladder.rung_costs.iter().map(f).sum::<u64>() as f64;
    println!(
        "\nladder (5 rungs, QCIF, 48 frames, GOP 8): {:.1} ms ({:.0} source frames/s)",
        ns / 1e6,
        48.0 * 1e9 / ns
    );
    report.push(
        PerfEntry::new("ladder_qcif_5_rungs")
            .metric("frames", 48.0)
            .metric("sad_evaluations", sum(|c| c.tally.me_sad_evaluations))
            .metric("dct_blocks", sum(|c| c.tally.dct_blocks))
            .metric("vlc_symbols", sum(|c| c.tally.vlc_symbols))
            .metric("wire_bytes", ladder.total_bytes() as f64)
            .timing("wall_ms", ns / 1e6)
            .timing("vector_bits", f64::from(signal::simd::vector_bits())),
    );
}

/// Figure 1's block walk in its two copies over one QCIF frame pair (an
/// I and a P frame, diamond search ±7): the encode and the decode with
/// the walk dispatched to the host's widest copy, and forced to the
/// baseline copy. Each pair of copies is timed in one process,
/// interleaved, and asserted bit-identical first.
fn walk_row(report: &mut PerfReport, pair: &[Frame]) {
    let enc = Encoder::new(EncoderConfig::symmetric_conference()).expect("the preset is valid");
    let encoded = enc.encode(pair).expect("encode succeeds");
    let baseline = enc.encode_baseline(pair).expect("encode succeeds");
    assert_eq!(encoded.bytes, baseline.bytes, "both copies must code the same stream");
    assert_eq!(encoded.tally, baseline.tally, "both copies must do the same work");
    let decoded = decode(&encoded.bytes).expect("the encoder's stream decodes");
    let decoded_baseline = decode_baseline(&encoded.bytes).expect("the stream decodes");
    assert_eq!(decoded.frames, decoded_baseline.frames, "both copies must decode the same frames");
    let (encode_ns, encode_baseline_ns) = interleaved_medians_ns(
        || enc.encode(black_box(pair)).unwrap(),
        || enc.encode_baseline(black_box(pair)).unwrap(),
    );
    let (decode_ns, decode_baseline_ns) = interleaved_medians_ns(
        || decode(black_box(&encoded.bytes)).unwrap(),
        || decode_baseline(black_box(&encoded.bytes)).unwrap(),
    );
    let bits = signal::simd::vector_bits();
    println!(
        "\nblock walk, QCIF I + P pair (dispatched {bits}-bit vs baseline 128-bit, interleaved):"
    );
    let sides = [
        ("encode", encode_ns, encode_baseline_ns),
        ("decode", decode_ns, decode_baseline_ns),
    ];
    for (side, wide, base) in sides {
        println!(
            "  {side}: {:>8.0} us dispatched, {:>8.0} us baseline ({:.2}x)",
            wide / 1e3,
            base / 1e3,
            base / wide
        );
    }
    report.push(
        PerfEntry::new("walk_qcif_frame_pair")
            .metric("frames", pair.len() as f64)
            .metric("idct_blocks", decoded.idct_blocks as f64)
            .metric("stream_bytes", encoded.bytes.len() as f64)
            .metric("bit_identical", 1.0)
            .timing("vector_bits", f64::from(bits))
            .timing("encode_wall_us", encode_ns / 1e3)
            .timing("encode_baseline_wall_us", encode_baseline_ns / 1e3)
            .timing("decode_wall_us", decode_ns / 1e3)
            .timing("decode_baseline_wall_us", decode_baseline_ns / 1e3),
    );
}

/// One `wall_ns` row per call of each kernel outside the codec hot
/// path above.
fn other_kernel_rows(report: &mut PerfReport, block: &[f64; 64]) {
    println!("\nother kernels (ns per call):");
    let mut row = |name: &str, ns: f64| {
        println!("  {name:<36}: {ns:>12.0}");
        report.push(PerfEntry::new(name).timing("wall_ns", ns));
    };

    let dct = Dct2d::new();
    let coeffs = dct.forward(block);
    row(
        "dct8x8_direct",
        median_ns_per_iter(|| forward_direct(black_box(&block[..]))),
    );
    row(
        "idct8x8_butterfly",
        median_ns_per_iter(|| dct.inverse(black_box(&coeffs))),
    );

    let frames = test_video(176, 144, 6);
    for (name, config) in [
        (
            "encoder_qcif6_symmetric_conference",
            EncoderConfig::symmetric_conference(),
        ),
        (
            "encoder_qcif6_asymmetric_broadcast",
            EncoderConfig::asymmetric_broadcast(),
        ),
        (
            "encoder_qcif6_all_intra",
            EncoderConfig {
                gop: 1,
                ..Default::default()
            },
        ),
    ] {
        let enc = Encoder::new(config).expect("valid");
        row(
            name,
            median_ns_per_iter(|| enc.encode(black_box(&frames)).expect("encode")),
        );
    }

    let pcm = test_music(4);
    let enc = AudioEncoder::new(AudioConfig::default());
    let stream = enc.encode(&pcm).expect("encode");
    row(
        "audio_encoder_4frames",
        median_ns_per_iter(|| enc.encode(black_box(&pcm)).expect("encode")),
    );
    row(
        "audio_decoder_4frames",
        median_ns_per_iter(|| audio::encoder::decode(black_box(&stream.bytes)).expect("decode")),
    );
    let speech = test_speech(10);
    let codec = RpeLtp::new();
    row(
        "rpeltp_encode_10frames",
        median_ns_per_iter(|| codec.encode(black_box(&speech)).expect("encode")),
    );
    let model = PsychoModel::new();
    row(
        "psycho_model_frame",
        median_ns_per_iter(|| model.analyse(black_box(&pcm[..1152]))),
    );
    let smr = model.analyse(&pcm[..1152]).smr_db();
    row(
        "bit_allocation_frame",
        median_ns_per_iter(|| audio::alloc::psychoacoustic(black_box(&smr), 37, 4608, 0.0)),
    );

    let mut rng = Xoroshiro128::new(1);
    let x: Vec<f64> = (0..1024).map(|_| rng.normal()).collect();
    let fft = Fft::new(1024);
    row(
        "fft_1024",
        median_ns_per_iter(|| fft.forward_real(black_box(&x))),
    );
    let fb = Filterbank::new();
    let frame: Vec<f64> = (0..1152).map(|_| rng.normal()).collect();
    row(
        "filterbank_analysis_1152",
        median_ns_per_iter(|| fb.analysis(black_box(&frame))),
    );
    let data = vec![0u8; 65_536];
    row(
        "hash_64k",
        median_ns_per_iter(|| drm::hash::hash(black_box(&data))),
    );
    row(
        "servo_loop_50k_samples",
        median_ns_per_iter(|| {
            let mut pid = Pid::new(nominal_gains(), 50_000.0);
            run_loop(Mechanism::nominal(), &mut pid, 50_000.0, 50_000, 1)
        }),
    );

    let pipeline = video_encoder_pipeline(&cif_spec(), SEED);
    let platform = Platform::symmetric_bus("quad", 4, 300e6);
    for s in [
        Strategy::RoundRobin,
        Strategy::LoadBalanced,
        Strategy::PipelineAffine,
    ] {
        row(
            &format!("deploy_{s}"),
            median_ns_per_iter(|| {
                deploy(black_box(&pipeline.graph), &platform, s, 16).expect("deploy")
            }),
        );
    }
}

/// Runs the harness, filling `report`.
pub fn run(report: &mut PerfReport) {
    // ---- Workload: QCIF pan with noise, so no candidate is perfect and
    // early exit has real work to do.
    let mut gen = SequenceGen::new(5);
    let reference = gen.textured_frame(176, 144);
    let mut current = gen.shift_frame(&reference, 4, -2);
    gen.add_noise(&mut current, 3.0);
    let (cols, rows) = current.macroblocks();
    let blocks = (cols * rows) as f64;

    // ---- Full-search motion estimation: baseline vs hot path.
    let me = MotionEstimator::new(SearchKind::Full, RANGE);
    let baseline_field = full_search_alloc_baseline(&current, &reference);
    let hot_field = me.estimate(&current, &reference);
    let hot_mvs: Vec<MotionVector> = hot_field.blocks.iter().map(|b| b.mv).collect();
    assert_eq!(
        baseline_field, hot_mvs,
        "hot path must reproduce the seed's full-search field bit-for-bit"
    );

    let baseline_ns = median_ns_per_iter(|| {
        full_search_alloc_baseline(black_box(&current), black_box(&reference))
    }) / blocks;
    let hot_ns =
        median_ns_per_iter(|| me.estimate(black_box(&current), black_box(&reference))) / blocks;
    let (effective_ops, exhaustive_ops) = full_search_effective_ops(&current, &reference);
    let speedup = baseline_ns / hot_ns;

    println!(
        "full-search ME, QCIF, range ±{RANGE} ({} blocks):",
        cols * rows
    );
    println!("  alloc-copy baseline : {baseline_ns:>10.0} ns/block");
    println!("  strided early-exit  : {hot_ns:>10.0} ns/block   ({speedup:.1}x faster)");
    println!(
        "  SAD pixel ops       : {exhaustive_ops} exhaustive -> {effective_ops} effective ({:.1}% skipped by early exit)",
        100.0 * (1.0 - effective_ops as f64 / exhaustive_ops as f64)
    );
    report.push(
        PerfEntry::new("me_full_qcif_range15")
            .metric("blocks", blocks)
            .metric("sad_evaluations", hot_field.total_evaluations() as f64)
            .metric("sad_pixel_ops_exhaustive", exhaustive_ops as f64)
            .metric("sad_pixel_ops_effective", effective_ops as f64)
            .metric(
                "early_exit_op_fraction",
                effective_ops as f64 / exhaustive_ops as f64,
            )
            .timing("baseline_wall_ns_per_block", baseline_ns)
            .timing("wall_ns_per_block", hot_ns)
            .timing("speedup_vs_alloc_copy", speedup),
    );

    // ---- Fast searches on the same workload (predictor-seeded).
    for kind in [SearchKind::ThreeStep, SearchKind::Diamond] {
        let fast = MotionEstimator::new(kind, RANGE);
        let field = fast.estimate(&current, &reference);
        let ns = median_ns_per_iter(|| fast.estimate(black_box(&current), black_box(&reference)))
            / blocks;
        let name = kind.to_string();
        println!(
            "  {name:<20}: {ns:>10.0} ns/block   ({} SAD evals, total SAD {})",
            field.total_evaluations(),
            field.total_sad()
        );
        report.push(
            PerfEntry::new(&format!("me_{kind}_qcif_range15"))
                .metric("blocks", blocks)
                .metric("sad_evaluations", field.total_evaluations() as f64)
                .metric("total_sad", field.total_sad() as f64)
                .timing("wall_ns_per_block", ns),
        );
    }

    // ---- 8x8 DCT: matrix row-column vs fixed-8 butterfly.
    let mut rng = Xoroshiro128::new(4);
    let mut block = [0.0f64; 64];
    for v in &mut block {
        *v = rng.range_f64(-128.0, 127.0);
    }
    let dct1d = Dct1d::new(8);
    let dct2d = video::dct::Dct2d::new();
    let matrix_ns = median_ns_per_iter(|| matrix_dct2d_forward(&dct1d, black_box(&block)));
    let butterfly_ns = median_ns_per_iter(|| dct2d.forward(black_box(&block[..])));
    // Sanity: same transform.
    let a = matrix_dct2d_forward(&dct1d, &block);
    let b = dct2d.forward(&block);
    for (x, y) in a.iter().zip(b.iter()) {
        assert!((x - y).abs() < 1e-9, "butterfly must match matrix DCT");
    }
    // One row transform for scale.
    let mut line = [0.0f64; 8];
    line.copy_from_slice(&block[..8]);
    let fdct8_ns = median_ns_per_iter(|| fdct8(black_box(&line)));

    println!("\n8x8 forward DCT:");
    println!("  matrix row-column   : {matrix_ns:>10.1} ns/block (64 muls per 1-D)");
    println!(
        "  fixed-8 butterfly   : {butterfly_ns:>10.1} ns/block ({FAST8_MULS} muls per 1-D, {:.1}x faster)",
        matrix_ns / butterfly_ns
    );
    report.push(
        PerfEntry::new("dct8x8_forward")
            .metric("matrix_muls_per_1d", 64.0)
            .metric("butterfly_muls_per_1d", FAST8_MULS as f64)
            .timing("matrix_wall_ns_per_block", matrix_ns)
            .timing("butterfly_wall_ns_per_block", butterfly_ns)
            .timing("speedup_vs_matrix", matrix_ns / butterfly_ns)
            .timing("fdct8_wall_ns", fdct8_ns),
    );

    // ---- Encoder end-to-end.
    let frames = test_video(64, 48, 8);
    let enc = Encoder::new(EncoderConfig::default()).expect("default config is valid");
    let encoded = enc.encode(&frames).expect("encode succeeds");
    let encode_ns = median_ns_per_iter(|| enc.encode(black_box(&frames)).unwrap());
    let ns_per_frame = encode_ns / frames.len() as f64;
    println!("\nencoder end-to-end (64x48, 8 frames, default config):");
    println!(
        "  {:.2} ms/frame ({:.0} frames/s), {} SAD evals, {} DCT blocks",
        ns_per_frame / 1e6,
        1e9 / ns_per_frame,
        encoded.tally.me_sad_evaluations,
        encoded.tally.dct_blocks
    );
    report.push(
        PerfEntry::new("encoder_64x48_default")
            .metric("frames", frames.len() as f64)
            .metric(
                "me_sad_evaluations",
                encoded.tally.me_sad_evaluations as f64,
            )
            .metric("dct_blocks", encoded.tally.dct_blocks as f64)
            .metric("mean_psnr_db", encoded.mean_psnr_db())
            .metric("total_bits", encoded.total_bits() as f64)
            .timing("wall_ns_per_frame", ns_per_frame)
            .timing("frames_per_second", 1e9 / ns_per_frame),
    );

    // ---- Decoder end-to-end: one QCIF GOP-12 stream (1 I + 7 P frames).
    let frames = test_video(176, 144, 8);
    let stream = enc.encode(&frames).expect("encode succeeds");
    let decoded = decode(&stream.bytes).expect("the encoder's stream decodes");
    let decode_ns = median_ns_per_iter(|| decode(black_box(&stream.bytes)).unwrap());
    let ns_per_frame = decode_ns / frames.len() as f64;
    println!("\ndecoder end-to-end (176x144, 8 frames, default-config stream):");
    println!(
        "  {:.0} us/frame ({:.0} frames/s), {} IDCT blocks, {} MC pixels, {} stream bytes",
        ns_per_frame / 1e3,
        1e9 / ns_per_frame,
        decoded.idct_blocks,
        decoded.mc_pixels,
        stream.bytes.len()
    );
    report.push(
        PerfEntry::new("decoder_qcif")
            .metric("frames", frames.len() as f64)
            .metric("idct_blocks", decoded.idct_blocks as f64)
            .metric("mc_pixels", decoded.mc_pixels as f64)
            .metric("stream_bytes", stream.bytes.len() as f64)
            .timing("wall_ns_per_frame", ns_per_frame)
            .timing("frames_per_second", 1e9 / ns_per_frame)
            .timing("vector_bits", f64::from(signal::simd::vector_bits())),
    );

    kernel_rows(report, &current, &reference);
    ladder_row(report);
    walk_row(report, &[reference, current]);
    other_kernel_rows(report, &block);
}
