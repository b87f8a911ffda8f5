//! The host block every result carries: what the numbers were measured
//! on. Core counts reported by the OS are not what a CPU quota lets a
//! process use, so effective parallelism is measured, not read.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Host facts recorded beside every result.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Throughput of two spinning threads over one (1.0 = no gain).
    pub effective_parallelism: f64,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Measures the host. `spin_ms` is the rough length of each spin.
    #[must_use]
    pub fn measure(spin_ms: u64) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            effective_parallelism: effective_parallelism(spin_ms),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            commit: read_commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// The block as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"effective_parallelism\":{},\"rustc\":\"{}\",\"commit\":\"{}\"}}",
            self.nproc,
            self.effective_parallelism,
            self.rustc.replace('"', "'"),
            self.commit
        )
    }
}

/// A fixed amount of integer work that the optimizer cannot remove.
fn spin(rounds: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..rounds {
        x = x.rotate_left(7).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ 0x94D0_49BB;
    }
    black_box(x)
}

/// Runs the same spin on one thread, then on two threads at once, and
/// returns `2 * t1 / t2`: about 2.0 where two threads really run in
/// parallel, about 1.0 where they share one core.
fn effective_parallelism(spin_ms: u64) -> f64 {
    // Calibrate the round count to roughly `spin_ms` on one thread.
    let mut rounds = 1u64 << 16;
    loop {
        let t0 = Instant::now();
        spin(rounds);
        if t0.elapsed().as_millis() as u64 >= spin_ms.max(1) / 4 || rounds >= 1 << 40 {
            break;
        }
        rounds *= 2;
    }
    rounds *= 4;
    let t0 = Instant::now();
    spin(rounds);
    let one = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(|| spin(rounds));
        let b = s.spawn(|| spin(rounds));
        a.join().expect("spin thread panicked");
        b.join().expect("spin thread panicked");
    });
    let two = t0.elapsed().as_secs_f64();
    2.0 * one / two.max(f64::MIN_POSITIVE)
}

/// Resolves `HEAD` in a git directory without running git.
fn read_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}
