//! E16 — §1–2, §8: why *multiprocessor* systems-on-chips.
//!
//! Maps the Figure 1 encoder graph onto platforms of 1–8 PEs over shared
//! bus and mesh NoC, across mapping strategies. Asserted shape: bus
//! speedup grows with PE count (more than 2.5x at 4 PEs) while the
//! per-PE efficiency falls by 8 PEs; load balancing beats round-robin;
//! and starving the bus to 2.5 MB/s costs more than 30% of the fps.
//! The mesh NoC is printed but not asserted: it scales no further than
//! the bus here (2.94 vs 2.93 fps at 8 PEs), because task granularity,
//! not the medium, is the limit.

use crate::{cif_spec, SEED};
use mmsoc::deploy::{deploy, Strategy};
use mmsoc::report::{f, Table};
use mmsoc::video_encoder_pipeline;
use mpsoc::platform::Platform;

/// Prints the scaling, strategy and saturation tables, asserts the
/// mapping's shape and returns the best-mapping bus speedup over 1 PE
/// at 1, 2, 4 and 8 PEs.
pub fn run() -> [f64; 4] {
    let pipeline = video_encoder_pipeline(&cif_spec(), SEED);
    let iterations = 24;

    // PE scaling, bus vs mesh, best strategy per point.
    let mut table = Table::new(vec![
        "PEs",
        "bus fps (best)",
        "bus speedup",
        "mesh fps (best)",
        "mesh speedup",
    ]);
    let mut bus_base = 0.0;
    let mut mesh_base = 0.0;
    let bus_speedup = [1usize, 2, 4, 8].map(|n| {
        let bus = Platform::symmetric_bus("bus", n, 300e6);
        let mesh_cols = match n {
            1 => (1, 1),
            2 => (2, 1),
            4 => (2, 2),
            _ => (4, 2),
        };
        let mesh = Platform::symmetric_mesh("mesh", mesh_cols.0, mesh_cols.1, 300e6);
        let best_fps = |platform: &Platform| -> f64 {
            Strategy::ALL
                .iter()
                .map(|&s| {
                    deploy(&pipeline.graph, platform, s, iterations)
                        .map(|d| d.throughput_hz())
                        .unwrap_or(0.0)
                })
                .fold(0.0, f64::max)
        };
        let bus_fps = best_fps(&bus);
        let mesh_fps = best_fps(&mesh);
        if n == 1 {
            bus_base = bus_fps;
            mesh_base = mesh_fps;
        }
        table.row(vec![
            n.to_string(),
            f(bus_fps, 2),
            f(bus_fps / bus_base, 2),
            f(mesh_fps, 2),
            f(mesh_fps / mesh_base, 2),
        ]);
        bus_fps / bus_base
    });
    println!("{table}");

    // Strategy comparison at 4 PEs on the bus.
    let platform = Platform::symmetric_bus("quad", 4, 300e6);
    let mut table = Table::new(vec![
        "strategy",
        "fps",
        "PE utilization (mean)",
        "bus utilization",
    ]);
    let strategy_fps = Strategy::ALL.map(|s| {
        let d = deploy(&pipeline.graph, &platform, s, iterations).expect("deploy");
        let mean_util: f64 =
            d.report.pe_utilization().iter().sum::<f64>() / platform.pe_count() as f64;
        table.row(vec![
            s.to_string(),
            f(d.throughput_hz(), 2),
            f(mean_util, 2),
            f(d.report.interconnect_utilization(), 3),
        ]);
        (s, d.throughput_hz())
    });
    println!("{table}");

    // Interconnect saturation: shrink the shared bus under the best 4-PE
    // mapping until communication dominates.
    use mpsoc::platform::InterconnectSpec;
    let mut table = Table::new(vec!["bus bandwidth MB/s", "fps", "bus utilization"]);
    let starved_fps = [400.0, 40.0, 10.0, 2.5].map(|bw| {
        let p =
            Platform::symmetric_bus("quad", 4, 300e6).with_interconnect(InterconnectSpec::Bus {
                bandwidth_bytes_per_s: bw * 1e6,
                arbitration_s: 50e-9,
                energy_pj_per_byte: 5.0,
            });
        let d = deploy(&pipeline.graph, &p, Strategy::LoadBalanced, iterations).expect("deploy");
        table.row(vec![
            f(bw, 1),
            f(d.throughput_hz(), 2),
            f(d.report.interconnect_utilization(), 3),
        ]);
        d.throughput_hz()
    });
    println!("{table}");
    println!(
        "expected shape: speedup with PEs until task granularity and the shared \
         medium limit it; shrinking bus bandwidth saturates the interconnect and \
         collapses throughput."
    );
    assert!(
        bus_speedup.windows(2).all(|w| w[0] < w[1]),
        "more PEs must buy fps"
    );
    assert!(bus_speedup[2] > 2.5, "4 PEs must beat 1 PE by 2.5x");
    assert!(
        bus_speedup[3] / 8.0 < bus_speedup[2] / 4.0,
        "granularity must limit 8 PEs"
    );
    let fps = |strategy| strategy_fps.iter().find(|(s, _)| *s == strategy).expect("in ALL").1;
    assert!(
        fps(Strategy::LoadBalanced) > fps(Strategy::RoundRobin),
        "load balancing must beat round-robin"
    );
    assert!(
        starved_fps[3] < 0.7 * starved_fps[0],
        "a starved bus must collapse fps"
    );
    bus_speedup
}
