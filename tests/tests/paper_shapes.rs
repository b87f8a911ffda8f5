//! Paper-shape regression tests: every expected shape the `exp_e*`
//! binaries regenerate (README, *Experiments*), asserted automatically (small workloads — the exp_* binaries run the
//! full-size versions).
//!
//! If an implementation change breaks one of the paper's qualitative
//! claims, this file fails before the README's claims go stale.

use mmsoc::{
    audio_encoder_pipeline, video_decoder_pipeline, video_encoder_pipeline, VideoPipelineSpec,
};
use video::encoder::{Encoder, EncoderConfig};
use video::synth::SequenceGen;

fn qcif(frames: usize, seed: u64) -> Vec<video::frame::Frame> {
    SequenceGen::new(seed).panning_sequence(176, 144, frames, 2, 1)
}

/// E1: motion estimation dominates the Figure-1 encoder.
#[test]
fn e1_me_dominates_video_encoder() {
    let p = video_encoder_pipeline(&VideoPipelineSpec::default(), 900);
    let total: u64 = p.stage_ops.iter().map(|(_, v)| v).sum();
    let me = p
        .stage_ops
        .iter()
        .find(|(n, _)| n == "motion-estimator")
        .expect("stage present")
        .1;
    assert!(2 * me > total, "ME {me} not dominant of {total}");
}

/// E2: the mapper + psychoacoustic front end dominates Figure 2.
#[test]
fn e2_front_end_dominates_audio_encoder() {
    let p = audio_encoder_pipeline(901);
    let total: u64 = p.stage_ops.iter().map(|(_, v)| v).sum();
    let front: u64 = p
        .stage_ops
        .iter()
        .filter(|(n, _)| n == "mapper" || n == "psychoacoustic-model")
        .map(|(_, v)| v)
        .sum();
    assert!(2 * front > total);
}

/// E3: broadcast config is far more encoder-heavy than conference config.
#[test]
fn e3_asymmetry_ratio() {
    let frames = qcif(8, 902);
    let ratio = |cfg: EncoderConfig| {
        let enc = Encoder::new(cfg)
            .expect("cfg")
            .encode(&frames)
            .expect("encode");
        let dec = video::decoder::decode(&enc.bytes).expect("decode");
        let enc_ops = enc.tally.me_pixel_ops + enc.tally.dct_macs();
        let dec_ops = dec.idct_blocks * 1024 + dec.mc_pixels;
        enc_ops as f64 / dec_ops as f64
    };
    let sym = ratio(EncoderConfig::symmetric_conference());
    let asym = ratio(EncoderConfig::asymmetric_broadcast());
    assert!(asym > 3.0 * sym, "asym {asym:.1} vs sym {sym:.1}");
}

/// E3 (decoder side): decode cost is essentially config-independent.
#[test]
fn e3_decoder_cost_is_flat() {
    let a = video_decoder_pipeline(&VideoPipelineSpec::default(), 903);
    let b = video_decoder_pipeline(
        &VideoPipelineSpec {
            config: EncoderConfig::symmetric_conference(),
            ..Default::default()
        },
        903,
    );
    let ta = a.graph.total_ops().total() as f64;
    let tb = b.graph.total_ops().total() as f64;
    assert!(
        (ta / tb - 1.0).abs() < 0.35,
        "decoder cost varied: {ta} vs {tb}"
    );
}

/// E5: fast searches use >=10x fewer evaluations than full search.
#[test]
fn e5_search_cost_ordering() {
    use video::me::{MotionEstimator, SearchKind};
    let mut g = SequenceGen::new(904);
    let r = g.textured_frame(64, 64);
    let c = g.shift_frame(&r, 3, 2);
    let evals = |k| {
        MotionEstimator::new(k, 15)
            .estimate(&c, &r)
            .total_evaluations()
    };
    let full = evals(SearchKind::Full);
    assert!(full > 10 * evals(SearchKind::ThreeStep));
    assert!(full > 10 * evals(SearchKind::Diamond));
}

/// E6: transcoding never recovers quality overall.
#[test]
fn e6_no_quality_recovery() {
    let frames = qcif(4, 905);
    let cfg = EncoderConfig {
        quality: 55,
        gop: 4,
        ..Default::default()
    };
    let stats = video::transcode::generations(&frames, cfg, cfg, 3).expect("chain");
    assert!(
        stats.last().expect("nonempty").psnr_vs_original_db
            <= stats.first().expect("nonempty").psnr_vs_original_db + 0.01
    );
}

/// E13: scattered allocation costs at least 10x the seeks of contiguous.
#[test]
fn e13_fragmentation_cost() {
    use mediafs::fs::{AllocPolicy, MediaFs};
    let data = vec![0u8; 64 * 64];
    let seeks = |policy| {
        let mut fs = MediaFs::new(512, 64, policy);
        fs.create("/f", &data).expect("create");
        fs.reset_io_stats();
        fs.read("/f").expect("read");
        fs.io_stats().seeks
    };
    assert!(seeks(AllocPolicy::Scatter(5)) >= 10 * seeks(AllocPolicy::FirstFit).max(1));
}

/// E16: 4 PEs beat 1 PE by at least 2.5x with the best mapping.
#[test]
fn e16_multiprocessor_speedup() {
    use mmsoc::deploy::deploy_best;
    use mpsoc::platform::Platform;
    let p = video_encoder_pipeline(&VideoPipelineSpec::default(), 906);
    let fps = |n: usize| {
        let platform = Platform::symmetric_bus("p", n, 300e6);
        let (all, best) = deploy_best(&p.graph, &platform, 8).expect("deploy");
        all[best].throughput_hz()
    };
    let one = fps(1);
    let four = fps(4);
    assert!(four > 2.5 * one, "4-PE speedup only {:.2}", four / one);
}

/// E16 (saturation): a starved bus collapses throughput.
#[test]
fn e16_bus_saturation() {
    use mmsoc::deploy::{deploy, Strategy};
    use mpsoc::platform::{InterconnectSpec, Platform};
    let p = video_encoder_pipeline(&VideoPipelineSpec::default(), 907);
    let fps_at = |bw: f64| {
        let platform =
            Platform::symmetric_bus("p", 4, 300e6).with_interconnect(InterconnectSpec::Bus {
                bandwidth_bytes_per_s: bw,
                arbitration_s: 50e-9,
                energy_pj_per_byte: 5.0,
            });
        deploy(&p.graph, &platform, Strategy::LoadBalanced, 8)
            .expect("deploy")
            .throughput_hz()
    };
    let wide = fps_at(400e6);
    let narrow = fps_at(2.5e6);
    assert!(
        narrow < 0.7 * wide,
        "bus starvation had no effect: {narrow} vs {wide}"
    );
}

/// E17: workload ordering across device classes matches §2.
#[test]
fn e17_device_ordering() {
    use mmsoc::profile::DeviceClass;
    let ops = |c: DeviceClass| c.application(908).total_ops().total();
    assert!(ops(DeviceClass::AudioPlayer) < ops(DeviceClass::CellPhone));
    assert!(ops(DeviceClass::CellPhone) < ops(DeviceClass::VideoRecorder));
    assert!(ops(DeviceClass::SetTopBox) < ops(DeviceClass::VideoRecorder));
}

/// E18: the wavelet shows less block-boundary error at moderate budgets
/// (at starvation budgets global thresholding loses).
#[test]
fn e18_wavelet_less_blocking() {
    use video::dct::Dct2d;
    use video::wavelet::Wavelet2d;
    const SIZE: usize = 32;
    // Sharp edge image.
    let img: Vec<i32> = (0..SIZE * SIZE)
        .map(|i| {
            if (i % SIZE) > 10 && (i / SIZE) > 10 {
                200
            } else {
                30
            }
        })
        .collect();
    // DCT: keep 4 per block.
    let dct = Dct2d::new();
    let mut dct_out = vec![0i32; SIZE * SIZE];
    for by in 0..SIZE / 8 {
        for bx in 0..SIZE / 8 {
            let mut block = [0.0f64; 64];
            for r in 0..8 {
                for c in 0..8 {
                    block[r * 8 + c] = img[(by * 8 + r) * SIZE + bx * 8 + c] as f64;
                }
            }
            let coeffs = dct.forward(&block);
            let mut idx: Vec<usize> = (0..64).collect();
            idx.sort_by(|&a, &b| coeffs[b].abs().total_cmp(&coeffs[a].abs()));
            let mut kept = [0.0f64; 64];
            for &i in idx.iter().take(8) {
                kept[i] = coeffs[i];
            }
            let rec = dct.inverse(&kept);
            for r in 0..8 {
                for c in 0..8 {
                    dct_out[(by * 8 + r) * SIZE + bx * 8 + c] = rec[r * 8 + c].round() as i32;
                }
            }
        }
    }
    // Wavelet: same total budget.
    let w = Wavelet2d::new(2);
    let kept = Wavelet2d::threshold_keep(&w.forward(&img, SIZE), 8 * (SIZE / 8) * (SIZE / 8));
    let wav_out = w.inverse(&kept, SIZE);
    // Boundary error comparison.
    let boundary_err = |out: &[i32]| -> f64 {
        let mut sum = 0.0;
        let mut n = 0;
        for y in 0..SIZE {
            for x in 0..SIZE {
                if x % 8 == 0 || x % 8 == 7 || y % 8 == 0 || y % 8 == 7 {
                    sum += (img[y * SIZE + x] - out[y * SIZE + x]).abs() as f64;
                    n += 1;
                }
            }
        }
        sum / n as f64
    };
    let d = boundary_err(&dct_out);
    let wv = boundary_err(&wav_out);
    assert!(
        wv < d,
        "wavelet boundary error {wv:.2} not below DCT {d:.2}"
    );
}
