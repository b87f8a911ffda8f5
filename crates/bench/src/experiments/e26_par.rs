//! E26 — the head-end on the MPSoC model and on real host cores.
//!
//! One staged head-end definition (capture → per-rung encode → mux →
//! seal → publish), consumed two ways and cross-checked, writing the
//! machine-readable `BENCH_par.json`:
//!
//! * **Executed**: the ladder's per-rung encode work units run through
//!   `mmpool::WorkerPool::map` (scoped host threads) at 1/2/4/8 workers
//!   for 3/5/7-rung ladders.
//!   Every pooled encode must be bit-identical to the sequential one
//!   (asserted at every worker count). Where four threads measurably
//!   run in parallel (a spin probe's 4-thread effective parallelism of
//!   at least 3.5) the 5-rung encode must clear a 2x speedup at 4
//!   workers — re-measured up to 5 times (best observed speedup is
//!   what's asserted and recorded) so scheduler noise on a loaded
//!   runner can't fail the gate spuriously. Other hosts print
//!   `skipped: host cannot show it` and record the bar row's `checked`
//!   timing as 0: a CPU quota can hold a process below what
//!   `available_parallelism` reports.
//! * **Modeled**: the same ladders, folded through
//!   `mmstream::headend_spec` into the `mpsoc::headend` task graph
//!   (measured op tallies, real segment bytes) and scheduled on
//!   symmetric-bus platforms of 1/2/4/8 PEs — latency and energy per
//!   rung count per PE count, with the multi-PE mappings required to
//!   beat the single-PE makespan.
//! * **Parallel simulation**: e23_sim's live 1M-session sweep re-run
//!   through `serve::sweep` on the pool (whole curve points sharded
//!   across the workers). Every pooled report must equal the sequential
//!   `serve::simulate` report at that count *exactly* — the merge is
//!   deterministic by construction, and `mmbench::live_sweep` builds
//!   the very scenarios e23_sim records in `BENCH_sim.json`.

use std::hint::black_box;
use std::time::Instant;

use crate::perf::{PerfEntry, PerfReport};
use crate::{bench_source, live_catalog, live_sweep};
use mmpool::WorkerPool;
use mmstream::headend_spec;
use mmstream::ladder::{encode_ladder, encode_ladder_on, Ladder, LadderConfig};
use mmstream::serve::{simulate, sweep};
use mpsoc::{Mapping, Platform, Simulator};

/// Ascending per-frame rate targets spanning the 2k–18k band the other
/// experiments use, at any rung count.
fn rate_targets(rungs: usize) -> Vec<f64> {
    (0..rungs)
        .map(|i| 2_000.0 + i as f64 * 16_000.0 / (rungs - 1) as f64)
        .collect()
}

/// Minimum wall time over `reps` runs of `f`, in milliseconds.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut out = None;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(v);
    }
    (out.expect("reps >= 1"), best)
}

/// A fixed amount of integer work that the optimizer cannot remove
/// (the benchmark harness's host probe).
fn spin(rounds: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..rounds {
        x = x.rotate_left(7).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ 0x94D0_49BB;
    }
    black_box(x)
}

/// Runs the same spin on one thread, then on `threads` threads at once,
/// and returns `threads * t1 / tn`: about `threads` where they really
/// run in parallel, about 1.0 where they share one core. Each spin
/// lasts roughly `spin_ms`.
fn effective_parallelism(threads: usize, spin_ms: u64) -> f64 {
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
        let spinners: Vec<_> = (0..threads).map(|_| s.spawn(|| spin(rounds))).collect();
        for h in spinners {
            h.join().expect("spin thread panicked");
        }
    });
    let many = t0.elapsed().as_secs_f64();
    threads as f64 * one / many.max(f64::MIN_POSITIVE)
}

/// The 4-thread effective parallelism a host must measure before the
/// 4-worker 2x bar is asserted.
const PARALLEL_4_BAR: f64 = 3.5;

/// Runs the harness, filling `report`.
pub fn run(report: &mut PerfReport) {
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let parallel_4 = effective_parallelism(4, 200);
    let bar_checked = parallel_4 >= PARALLEL_4_BAR;
    report.push(
        PerfEntry::new("host")
            .timing("host_cpus", host_cpus as f64)
            .timing("effective_parallelism_4", parallel_4),
    );
    let bar = if bar_checked {
        "checked"
    } else {
        "skipped: host cannot show it"
    };
    report.push(
        PerfEntry::new("bar_5_rungs_4_workers_2x")
            .timing("checked", f64::from(u8::from(bar_checked))),
    );
    println!(
        "host: {host_cpus} cpus, 4-thread effective parallelism {parallel_4:.2} \
         (4-worker 2x bar {bar}, needs {PARALLEL_4_BAR})\n"
    );

    // ---- Executed: pooled ladder encode, core scaling.
    let source = bench_source(32);
    let rung_counts = [3usize, 5, 7];
    let worker_counts = [1usize, 2, 4, 8];
    let mut ladders: Vec<(usize, Ladder)> = Vec::new();
    println!("pooled ladder encode (64x48, 32 frames), wall ms by workers:");
    for &rungs in &rung_counts {
        let cfg = LadderConfig {
            targets_bits_per_frame: rate_targets(rungs),
            gop: 4,
            ..Default::default()
        };
        let (seq, seq_ms) = best_ms(3, || {
            encode_ladder("bench", &source, &cfg).expect("ladder encodes")
        });
        print!("  {rungs} rungs: seq {seq_ms:>7.1} ms |");
        for &workers in &worker_counts {
            let pool = WorkerPool::new(workers);
            let (par, mut par_ms) = best_ms(3, || {
                encode_ladder_on(&pool, "bench", &source, &cfg).expect("ladder encodes")
            });
            assert_eq!(
                par, seq,
                "pooled encode must be bit-identical ({rungs} rungs, {workers} workers)"
            );
            let mut cell_seq_ms = seq_ms;
            let mut speedup = cell_seq_ms / par_ms;
            if rungs == 5 && workers == 4 && bar_checked {
                // Hard CI gate. The ideal speedup for 5 unequal rungs
                // on 4 workers is only ~2.5x, so one noisy scheduling
                // window on a loaded shared runner can push a single
                // best-of-3 under the bar. Re-measure both sides and
                // keep the best observed speedup before asserting.
                for _ in 0..5 {
                    if speedup >= 2.0 {
                        break;
                    }
                    let (_, s_ms) = best_ms(3, || {
                        encode_ladder("bench", &source, &cfg).expect("ladder encodes")
                    });
                    let (p, p_ms) = best_ms(3, || {
                        encode_ladder_on(&pool, "bench", &source, &cfg).expect("ladder encodes")
                    });
                    assert_eq!(p, seq, "pooled encode must stay bit-identical on retry");
                    if s_ms / p_ms > speedup {
                        speedup = s_ms / p_ms;
                        cell_seq_ms = s_ms;
                        par_ms = p_ms;
                    }
                }
                assert!(
                    speedup >= 2.0,
                    "4 workers on a host that runs 4 threads in parallel must clear 2x \
                     on 5 rungs: {speedup:.2}x"
                );
            }
            print!("  {workers}w {par_ms:>7.1} ms ({speedup:>4.2}x)");
            report.push(
                PerfEntry::new(&format!("encode_{rungs}_rungs_{workers}_workers"))
                    .metric("rungs", rungs as f64)
                    .metric("workers", workers as f64)
                    .metric("bit_identical", 1.0)
                    .timing("wall_ms", par_ms)
                    .timing("sequential_wall_ms", cell_seq_ms)
                    .timing("speedup", speedup),
            );
        }
        println!();
        ladders.push((rungs, seq));
    }

    // ---- Modeled: the same ladders on MPSoC platform configurations.
    println!("\nmodeled head-end graph on symmetric-bus platforms (8-frame stream):");
    for (rungs, ladder) in &ladders {
        let spec = headend_spec(ladder, &source);
        let graph = spec.task_graph();
        let mut makespan_1pe = 0.0f64;
        print!("  {rungs} rungs:");
        for pes in [1usize, 2, 4, 8] {
            let platform = Platform::symmetric_bus("headend", pes, 200e6);
            let mapping = Mapping::load_balanced(&graph, &platform);
            let run = Simulator::new(&platform)
                .run_stream(&graph, &mapping, 8)
                .expect("head-end graph schedules");
            let makespan_ms = run.makespan_s() * 1e3;
            if pes == 1 {
                makespan_1pe = makespan_ms;
            } else {
                assert!(
                    makespan_ms < makespan_1pe,
                    "{pes} PEs must beat 1 PE on the {rungs}-rung graph"
                );
            }
            let energy = run.energy();
            print!(
                "  {pes}pe {makespan_ms:>7.2} ms / {:>6.2} mJ",
                energy.total_j() * 1e3
            );
            report.push(
                PerfEntry::new(&format!("model_{rungs}_rungs_{pes}_pes"))
                    .metric("rungs", *rungs as f64)
                    .metric("pes", pes as f64)
                    .metric("makespan_ms", makespan_ms)
                    .metric("modeled_speedup", makespan_1pe / makespan_ms)
                    .metric("energy_mj", energy.total_j() * 1e3)
                    .metric("transfer_mj", energy.transfer_j() * 1e3),
            );
        }
        println!();
    }

    // ---- Parallel simulation: e23_sim's live sweep, pooled.
    println!("\nparallel 1M-session live sweep (e23_sim workload, 4 workers):");
    let catalog = live_catalog();
    let at_1m = live_sweep(&catalog, 1_000_000);
    let counts = [10_000usize, 100_000, 1_000_000];
    let pool = WorkerPool::new(4);
    let t0 = Instant::now();
    let curve = sweep(&at_1m, &counts, Some(&pool));
    let curve_ms = t0.elapsed().as_secs_f64() * 1e3;
    for (r, &sessions) in curve.iter().zip(&counts) {
        assert_eq!(
            *r,
            simulate(&live_sweep(&catalog, sessions)),
            "the pooled sweep must equal the sequential run exactly at {sessions} sessions"
        );
        assert_eq!(
            r.edge.load.completed, sessions,
            "a provisioned tier must carry every viewer to the end"
        );
        println!(
            "  {sessions:>9} sessions: rebuffer {:.2}%, hit rate {:.1}%, coalesced {}",
            100.0 * r.edge.load.rebuffer_fraction,
            100.0 * r.edge.hit_rate,
            r.edge.tier.coalesced,
        );
        report.push(
            PerfEntry::new(&format!("par_sweep_{sessions}_sessions"))
                .metric("sessions", sessions as f64)
                .metric("rebuffer_fraction", r.edge.load.rebuffer_fraction)
                .metric("hit_rate", r.edge.hit_rate)
                .metric("coalesced_waiters", r.edge.tier.coalesced as f64)
                .metric("par_equals_seq", 1.0),
        );
    }
    println!(
        "  whole curve on 4 workers: {curve_ms:.1} ms (every point matches sequential exactly)"
    );
    report.push(
        PerfEntry::new("par_sweep_wall")
            .metric("workers", 4.0)
            .timing("curve_wall_ms", curve_ms),
    );
}
