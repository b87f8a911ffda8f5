//! Criterion bench for shared kernels: FFT, filterbank, hash, servo
//! loop. The XTEA-CTR unseal and the TCP-lite transfer are timed by
//! `exp_e20_stream` instead, against their oracles.

use audio::filterbank::Filterbank;
use criterion::{criterion_group, criterion_main, Criterion};
use servo::control::Pid;
use servo::loopctl::{nominal_gains, run_loop};
use servo::plant::Mechanism;
use signal::fft::Fft;
use signal::rng::Xoroshiro128;

fn bench_kernels(c: &mut Criterion) {
    let mut rng = Xoroshiro128::new(1);
    let x: Vec<f64> = (0..1024).map(|_| rng.normal()).collect();
    let fft = Fft::new(1024);
    c.bench_function("fft_1024", |b| {
        b.iter(|| fft.forward_real(std::hint::black_box(&x)));
    });

    let fb = Filterbank::new();
    let frame: Vec<f64> = (0..1152).map(|_| rng.normal()).collect();
    c.bench_function("filterbank_analysis_1152", |b| {
        b.iter(|| fb.analysis(std::hint::black_box(&frame)));
    });

    let data = vec![0u8; 65_536];
    c.bench_function("hash_64k", |b| {
        b.iter(|| drm::hash::hash(std::hint::black_box(&data)));
    });

    c.bench_function("servo_loop_50k_samples", |b| {
        b.iter(|| {
            let mut pid = Pid::new(nominal_gains(), 50_000.0);
            run_loop(Mechanism::nominal(), &mut pid, 50_000.0, 50_000, 1)
        });
    });
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
