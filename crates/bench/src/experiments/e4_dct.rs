//! E4 — §3: "a 2-D DCT can be computed from two 1-D DCTs".
//!
//! Compares the row–column separable 8×8 DCT against the direct O(N⁴)
//! evaluation: identical coefficients, 4× fewer multiply–accumulates at
//! N=8, and the corresponding wall-clock gap. Asserted: the
//! coefficients agree to 1e-9 and the MAC count falls 4x; the wall
//! clock is printed only.

use std::time::Instant;

use mmsoc::report::{count, f, Table};
use signal::dct1d::{direct_2d_macs, rowcol_2d_macs};
use signal::rng::Xoroshiro128;
use video::dct::{forward_direct, Dct2d};

/// Prints the cost table, asserts the separable transform's claim and
/// returns the largest coefficient difference over 100 random blocks.
pub fn run() -> f64 {
    // Correctness: both evaluations agree.
    let mut rng = Xoroshiro128::new(4);
    let dct = Dct2d::new();
    let mut max_diff = 0.0f64;
    for _ in 0..100 {
        let block: Vec<f64> = (0..64).map(|_| rng.range_f64(-128.0, 127.0)).collect();
        let a = dct.forward(&block);
        let b = forward_direct(&block);
        for (x, y) in a.iter().zip(b.iter()) {
            max_diff = max_diff.max((x - y).abs());
        }
    }
    println!("coefficient agreement over 100 random blocks: max |diff| = {max_diff:.2e}\n");

    // Cost: analytic MACs and measured wall time per block.
    let blocks: Vec<Vec<f64>> = (0..2000)
        .map(|_| (0..64).map(|_| rng.range_f64(-128.0, 127.0)).collect())
        .collect();
    let t0 = Instant::now();
    let mut sink = 0.0;
    for b in &blocks {
        sink += dct.forward(b)[0];
    }
    let rowcol_ns = t0.elapsed().as_nanos() as f64 / blocks.len() as f64;
    let t1 = Instant::now();
    for b in &blocks {
        sink += forward_direct(b)[0];
    }
    let direct_ns = t1.elapsed().as_nanos() as f64 / blocks.len() as f64;
    std::hint::black_box(sink);

    let mut table = Table::new(vec!["method", "MACs/block (8x8)", "ns/block (measured)"]);
    table.row(vec![
        "direct 2-D".to_string(),
        count(direct_2d_macs(8)),
        f(direct_ns, 0),
    ]);
    table.row(vec![
        "row-column (two 1-D)".to_string(),
        count(rowcol_2d_macs(8)),
        f(rowcol_ns, 0),
    ]);
    println!("{table}");
    let mac_ratio = direct_2d_macs(8) / rowcol_2d_macs(8);
    println!(
        "analytic advantage: {mac_ratio}x fewer MACs; measured speedup: {}x",
        f(direct_ns / rowcol_ns, 1)
    );
    assert!(
        max_diff < 1e-9,
        "both evaluations must give the same coefficients"
    );
    assert!(mac_ratio >= 4, "row-column must need 4x fewer MACs at N=8");
    max_diff
}
