//! E18 — §3: wavelets avoid DCT edge artifacts.
//!
//! Codes a sharp-edged image with the block DCT and the 5/3 wavelet at
//! equal coefficient budgets and measures (a) overall PSNR and (b) error
//! concentrated at 8×8 block boundaries — the blocking artifact the
//! paper says wavelets avoid. Asserted: at moderate budgets (6 and 10
//! coefficients per block) the wavelet's boundary error is below the
//! DCT's. At starvation budgets (2 and 4 per block) it is above:
//! global thresholding spends the few coefficients on the edges and
//! leaves whole blocks flat.

use mmsoc::report::{f, Table};
use signal::rng::Xoroshiro128;
use video::dct::{Dct2d, BLOCK};
use video::wavelet::Wavelet2d;

const SIZE: usize = 64;

/// A sharp-edged test image: bright rectangle + diagonal edge + texture.
fn edge_image(seed: u64) -> Vec<i32> {
    let mut rng = Xoroshiro128::new(seed);
    let mut img = vec![0i32; SIZE * SIZE];
    for y in 0..SIZE {
        for x in 0..SIZE {
            let mut v = 40;
            if (12..40).contains(&x) && (12..40).contains(&y) {
                v = 210;
            }
            if x + y > 90 {
                v = 160;
            }
            img[y * SIZE + x] = v + rng.range_i64(-3, 3) as i32;
        }
    }
    img
}

/// Keeps the `keep` largest coefficients of each 8x8 DCT block
/// (total budget spread evenly over blocks) and reconstructs.
fn dct_coded(img: &[i32], keep_per_block: usize) -> Vec<i32> {
    let dct = Dct2d::new();
    let mut out = vec![0i32; SIZE * SIZE];
    for by in 0..SIZE / BLOCK {
        for bx in 0..SIZE / BLOCK {
            let mut block = [0.0f64; BLOCK * BLOCK];
            for r in 0..BLOCK {
                for c in 0..BLOCK {
                    block[r * BLOCK + c] = img[(by * BLOCK + r) * SIZE + bx * BLOCK + c] as f64;
                }
            }
            let coeffs = dct.forward(&block);
            // Zero all but the largest-magnitude `keep_per_block`.
            let mut idx: Vec<usize> = (0..64).collect();
            idx.sort_by(|&a, &b| coeffs[b].abs().total_cmp(&coeffs[a].abs()));
            let mut kept = [0.0f64; 64];
            for &i in idx.iter().take(keep_per_block) {
                kept[i] = coeffs[i];
            }
            let rec = dct.inverse(&kept);
            for r in 0..BLOCK {
                for c in 0..BLOCK {
                    out[(by * BLOCK + r) * SIZE + bx * BLOCK + c] =
                        rec[r * BLOCK + c].round() as i32;
                }
            }
        }
    }
    out
}

fn wavelet_coded(img: &[i32], keep_total: usize) -> Vec<i32> {
    let w = Wavelet2d::new(3);
    let coeffs = w.forward(img, SIZE);
    let kept = Wavelet2d::threshold_keep(&coeffs, keep_total);
    w.inverse(&kept, SIZE)
}

fn psnr(a: &[i32], b: &[i32]) -> f64 {
    let mse: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        / a.len() as f64;
    if mse == 0.0 {
        return f64::INFINITY;
    }
    10.0 * (255.0 * 255.0 / mse).log10()
}

/// Mean absolute error restricted to pixels adjacent to 8x8 block
/// boundaries — the blocking-artifact metric.
fn boundary_error(orig: &[i32], coded: &[i32]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for y in 0..SIZE {
        for x in 0..SIZE {
            let on_boundary = x % BLOCK == 0
                || x % BLOCK == BLOCK - 1
                || y % BLOCK == 0
                || y % BLOCK == BLOCK - 1;
            if on_boundary {
                sum += (orig[y * SIZE + x] - coded[y * SIZE + x]).abs() as f64;
                n += 1;
            }
        }
    }
    sum / n as f64
}

/// Prints the budget table, asserts the wavelet's win at moderate
/// budgets and returns the (DCT, wavelet) boundary errors at 2, 4, 6
/// and 10 coefficients per block.
pub fn run() -> [(f64, f64); 4] {
    let img = edge_image(18);
    let mut table = Table::new(vec![
        "kept coefficients",
        "DCT PSNR dB",
        "wavelet PSNR dB",
        "DCT boundary err",
        "wavelet boundary err",
    ]);
    let boundary = [2usize, 4, 6, 10].map(|keep_per_block| {
        let total = keep_per_block * (SIZE / BLOCK) * (SIZE / BLOCK);
        let d = dct_coded(&img, keep_per_block);
        let w = wavelet_coded(&img, total);
        let boundary = (boundary_error(&img, &d), boundary_error(&img, &w));
        table.row(vec![
            format!("{total} ({keep_per_block}/block)"),
            f(psnr(&img, &d), 2),
            f(psnr(&img, &w), 2),
            f(boundary.0, 2),
            f(boundary.1, 2),
        ]);
        boundary
    });
    println!("{table}");
    println!(
        "expected shape: at moderate budgets (6 and 10 per block) the wavelet \
         shows less error at block boundaries (no blocking artifacts) on \
         edge-dominated images; at starvation budgets (2 and 4) it shows more."
    );
    for (dct, wavelet) in &boundary[2..] {
        assert!(
            wavelet < dct,
            "the wavelet must block less at moderate budgets"
        );
    }
    boundary
}
