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

use mmbench::banner;
use mmbench::perf::{matrix_dct2d_forward, median_ns_per_iter, PerfEntry, PerfReport};
use signal::dct1d::Dct1d;
use signal::dct8::{fdct8, FAST8_MULS};
use signal::metrics::{sad_u8, sad_u8_bounded_ops};
use signal::rng::Xoroshiro128;
use video::decoder::decode;
use video::encoder::{Encoder, EncoderConfig};
use video::frame::Frame;
use video::me::{MotionEstimator, MotionVector, SearchKind, MB};
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

fn main() {
    banner(
        "E19: video hot-path perf (BENCH_video.json)",
        "the encoder inner loop does no per-candidate heap allocation and \
         abandons losing SAD candidates row-wise; the fixed-8 butterfly \
         beats the generic matrix DCT",
    );

    let mut report = PerfReport::new("video_hot_path", "exp_e19_perf");

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
        std::hint::black_box(full_search_alloc_baseline(
            std::hint::black_box(&current),
            std::hint::black_box(&reference),
        ));
    }) / blocks;
    let hot_ns = median_ns_per_iter(|| {
        std::hint::black_box(me.estimate(
            std::hint::black_box(&current),
            std::hint::black_box(&reference),
        ));
    }) / blocks;
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
            .metric("baseline_wall_ns_per_block", baseline_ns)
            .metric("wall_ns_per_block", hot_ns)
            .metric("speedup_vs_alloc_copy", speedup)
            .metric("sad_pixel_ops_exhaustive", exhaustive_ops as f64)
            .metric("sad_pixel_ops_effective", effective_ops as f64)
            .metric(
                "early_exit_op_fraction",
                effective_ops as f64 / exhaustive_ops as f64,
            ),
    );

    // ---- Fast searches on the same workload (predictor-seeded).
    for kind in [SearchKind::ThreeStep, SearchKind::Diamond] {
        let fast = MotionEstimator::new(kind, RANGE);
        let field = fast.estimate(&current, &reference);
        let ns = median_ns_per_iter(|| {
            std::hint::black_box(fast.estimate(
                std::hint::black_box(&current),
                std::hint::black_box(&reference),
            ));
        }) / blocks;
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
                .metric("wall_ns_per_block", ns)
                .metric("total_sad", field.total_sad() as f64),
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
    let matrix_ns = median_ns_per_iter(|| {
        std::hint::black_box(matrix_dct2d_forward(&dct1d, std::hint::black_box(&block)));
    });
    let butterfly_ns = median_ns_per_iter(|| {
        std::hint::black_box(dct2d.forward(std::hint::black_box(&block[..])));
    });
    // Sanity: same transform.
    let a = matrix_dct2d_forward(&dct1d, &block);
    let b = dct2d.forward(&block);
    for (x, y) in a.iter().zip(b.iter()) {
        assert!((x - y).abs() < 1e-9, "butterfly must match matrix DCT");
    }
    // One row transform for scale.
    let mut line = [0.0f64; 8];
    line.copy_from_slice(&block[..8]);
    let fdct8_ns = median_ns_per_iter(|| {
        std::hint::black_box(fdct8(std::hint::black_box(&line)));
    });

    println!("\n8x8 forward DCT:");
    println!("  matrix row-column   : {matrix_ns:>10.1} ns/block (64 muls per 1-D)");
    println!(
        "  fixed-8 butterfly   : {butterfly_ns:>10.1} ns/block ({FAST8_MULS} muls per 1-D, {:.1}x faster)",
        matrix_ns / butterfly_ns
    );
    report.push(
        PerfEntry::new("dct8x8_forward")
            .metric("matrix_wall_ns_per_block", matrix_ns)
            .metric("butterfly_wall_ns_per_block", butterfly_ns)
            .metric("speedup_vs_matrix", matrix_ns / butterfly_ns)
            .metric("matrix_muls_per_1d", 64.0)
            .metric("butterfly_muls_per_1d", FAST8_MULS as f64)
            .metric("fdct8_wall_ns", fdct8_ns),
    );

    // ---- Encoder end-to-end.
    let frames = mmbench::test_video(64, 48, 8);
    let enc = Encoder::new(EncoderConfig::default()).expect("default config is valid");
    let encoded = enc.encode(&frames).expect("encode succeeds");
    let encode_ns = median_ns_per_iter(|| {
        std::hint::black_box(enc.encode(std::hint::black_box(&frames)).unwrap());
    });
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
            .metric("wall_ns_per_frame", ns_per_frame)
            .metric("frames_per_second", 1e9 / ns_per_frame)
            .metric(
                "me_sad_evaluations",
                encoded.tally.me_sad_evaluations as f64,
            )
            .metric("dct_blocks", encoded.tally.dct_blocks as f64)
            .metric("mean_psnr_db", encoded.mean_psnr_db())
            .metric("total_bits", encoded.total_bits() as f64),
    );

    // ---- Decoder end-to-end: one QCIF GOP-12 stream (1 I + 7 P frames).
    let frames = mmbench::test_video(176, 144, 8);
    let stream = enc.encode(&frames).expect("encode succeeds");
    let decoded = decode(&stream.bytes).expect("the encoder's stream decodes");
    let decode_ns = median_ns_per_iter(|| {
        std::hint::black_box(decode(std::hint::black_box(&stream.bytes)).unwrap());
    });
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
            .metric("wall_ns_per_frame", ns_per_frame)
            .metric("frames_per_second", 1e9 / ns_per_frame)
            .metric("idct_blocks", decoded.idct_blocks as f64)
            .metric("mc_pixels", decoded.mc_pixels as f64)
            .metric("stream_bytes", stream.bytes.len() as f64),
    );

    report
        .write("BENCH_video.json")
        .expect("write BENCH_video.json");
    println!(
        "\nwrote BENCH_video.json ({} entries)",
        report.entries.len()
    );
}
