//! E27 — the ABR controller shootout over congestion-controlled pipes.
//!
//! PR 10 made the pipe real: AIMD/CUBIC congestion control in TCP-lite,
//! bounded drop-tail queues (bufferbloat), Gilbert–Elliott bursty loss,
//! and replayable bandwidth/loss traces. This harness races the three
//! rung controllers ([`AbrStrategy`]) on **identical** link schedules
//! and writes the machine-readable `BENCH_abr.json`:
//!
//! * **Transport headline**: AIMD vs a big fixed window on a
//!   bufferbloated bounded link — the congestion controller must win on
//!   goodput.
//! * **Controller × trace matrix**: EWMA, buffer-occupancy (BBA-style),
//!   and hybrid controllers, each against a steady link, the
//!   mobile-handoff trace, and a Gilbert–Elliott bursty channel, all
//!   over AIMD transport. Per-cell QoE: startup delay, rebuffer ratio,
//!   rung switches, mean rung.
//!
//! The binary asserts every bar before it writes the report: AIMD
//! out-runs the fixed window; every cell completes all 8 sessions; on
//! the bursty channel the hybrid rebuffers no more than EWMA while the
//! throughput-blind buffer controller collapses (> 20% rebuffering);
//! and through the handoff the hybrid rebuffers less than the buffer
//! controller.

use crate::perf::{PerfEntry, PerfReport};
use mmstream::ladder::{encode_ladder, publish_ladder, LadderConfig};
use mmstream::session::{run_session, SessionConfig, SessionReport};
use mmstream::{AbrStrategy, RetryPolicy};
use netstack::fetch::ContentServer;
use netstack::link::{LinkConfig, LinkTrace, LossModel};
use netstack::tcplite::{transfer, CongestionControl, TcpConfig};
use video::synth::SequenceGen;

/// Aggregated QoE for one (controller, trace) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellQoe {
    sessions: u32,
    failed: u32,
    mean_startup_ticks: f64,
    rebuffer_ratio: f64,
    mean_switches: f64,
    mean_rung: f64,
    goodput_bits_per_tick: f64,
}

fn aggregate(reports: &[SessionReport], failed: u32) -> CellQoe {
    let n = reports.len().max(1) as f64;
    let total_ticks: u64 = reports.iter().map(|r| r.total_ticks).sum();
    let rebuffer_ticks: u64 = reports.iter().map(|r| r.rebuffer_ticks).sum();
    let bits: u64 = reports.iter().map(|r| r.delivered_bits).sum();
    CellQoe {
        sessions: reports.len() as u32,
        failed,
        mean_startup_ticks: reports
            .iter()
            .map(|r| r.startup_delay_ticks as f64)
            .sum::<f64>()
            / n,
        rebuffer_ratio: rebuffer_ticks as f64 / total_ticks.max(1) as f64,
        mean_switches: reports
            .iter()
            .map(|r| f64::from(r.rung_switches))
            .sum::<f64>()
            / n,
        mean_rung: reports.iter().map(SessionReport::mean_rung).sum::<f64>() / n,
        goodput_bits_per_tick: bits as f64 / total_ticks.max(1) as f64,
    }
}

fn run_cell(server: &ContentServer, base: &SessionConfig, seeds: std::ops::Range<u64>) -> CellQoe {
    let mut reports = Vec::new();
    let mut failed = 0u32;
    for seed in seeds {
        let config = SessionConfig {
            seed,
            retry: RetryPolicy { seed, ..base.retry },
            ..base.clone()
        };
        match run_session(server, &mut [], "shootout", &config) {
            Ok(r) => reports.push(r),
            Err(_) => failed += 1,
        }
    }
    aggregate(&reports, failed)
}

/// Runs the harness, filling `report`.
pub fn run(report: &mut PerfReport) {
    // ---- Transport headline: congestion control vs bufferbloat.
    // A 2 KB drop-tail queue on a 20 B/tick link: a fixed 64-segment
    // window bursts straight through the bound, tail-drops, and waits
    // out RTOs; AIMD backs off to the queue's capacity.
    let data: Vec<u8> = (0..40_000u32).map(|i| ((i * 31) >> 3) as u8).collect();
    let bloated = LinkConfig {
        ticks_per_byte: 0.05,
        ..LinkConfig::default()
    }
    .with_queue_bytes(2_000);
    let fixed = transfer(
        &data,
        TcpConfig {
            cc: CongestionControl::Fixed(64),
            ..Default::default()
        },
        bloated,
        61,
    )
    .expect("fixed-window transfer completes");
    let aimd = transfer(
        &data,
        TcpConfig {
            cc: CongestionControl::aimd(),
            ..Default::default()
        },
        bloated,
        61,
    )
    .expect("AIMD transfer completes");
    println!(
        "bufferbloat (2 KB queue): fixed-64 {:.2} B/tick over {} ticks ({} rtx), AIMD {:.2} B/tick over {} ticks ({} rtx)",
        fixed.goodput, fixed.ticks, fixed.retransmissions, aimd.goodput, aimd.ticks, aimd.retransmissions
    );
    assert!(
        aimd.goodput > fixed.goodput,
        "AIMD ({:.2} B/tick) must out-run the fixed window ({:.2} B/tick) on a bufferbloated link",
        aimd.goodput,
        fixed.goodput
    );
    report.push(
        PerfEntry::new("transport_bufferbloat")
            .metric("payload_bytes", data.len() as f64)
            .metric("queue_bytes", 2_000.0)
            .metric("fixed_goodput", fixed.goodput)
            .metric("fixed_ticks", fixed.ticks as f64)
            .metric("fixed_retransmissions", fixed.retransmissions as f64)
            .metric("aimd_goodput", aimd.goodput)
            .metric("aimd_ticks", aimd.ticks as f64)
            .metric("aimd_retransmissions", aimd.retransmissions as f64),
    );

    // ---- The shootout title: 3 rungs x 16 QCIF segments, 400 ticks
    // of content per segment (gop 4 at 100 ticks/frame). QCIF frames
    // give the ladder a real byte spread (~1/3/9 KB per segment), so
    // the top rung needs ~180 bits/tick — deliberately above what the
    // steady access link sustains — and the controllers have a real
    // decision to make.
    let frames = SequenceGen::new(12).panning_sequence(176, 144, 64, 1, 1);
    let ladder_cfg = LadderConfig {
        targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
        gop: 4,
        ..Default::default()
    };
    let ladder = encode_ladder("shootout", &frames, &ladder_cfg).expect("ladder encodes");
    let mut server = ContentServer::new();
    publish_ladder(&mut server, &ladder);

    // Every cell runs AIMD transport with a few retries (the handoff
    // gap is harsh enough to exhaust a single attempt's retransmit
    // budget).
    let retry = RetryPolicy {
        max_attempts: 4,
        base_backoff_ticks: 100,
        max_backoff_ticks: 1_600,
        jitter_ticks: 50,
        seed: 0,
    };
    let tcp = TcpConfig {
        cc: CongestionControl::aimd(),
        ..Default::default()
    };
    // The access link: 50 B/tick (400 bits/tick) steady-state — every
    // rung is nominally sustainable, but the EWMA controller's safety
    // headroom (0.7x an estimate that includes per-fetch overhead)
    // keeps it off the ~180 bits/tick top rung, while the
    // buffer-driven controllers ramp to it once the buffer is deep.
    let access = LinkConfig {
        ticks_per_byte: 0.02,
        ..LinkConfig::default()
    };

    // One segment of reservoir, two of cushion.
    let reservoir_ticks = 400;
    let cushion_ticks = 800;
    let controllers: [(&str, AbrStrategy); 3] = [
        ("ewma", AbrStrategy::Ewma),
        (
            "buffer",
            AbrStrategy::BufferOccupancy {
                reservoir_ticks,
                cushion_ticks,
            },
        ),
        (
            "hybrid",
            AbrStrategy::Hybrid {
                reservoir_ticks,
                cushion_ticks,
            },
        ),
    ];
    // Identical link schedules across controllers: same config, same
    // seeds, the controller is the only variable. Sessions join the
    // handoff schedule at the fade (the phase list rotated by one), so
    // a 16-segment title spans fade -> gap -> recovery instead of
    // finishing inside the long strong-cell phase.
    let handoff = {
        let mut t = LinkTrace::mobile_handoff();
        t.phases.rotate_left(1);
        t
    };
    let traces: [(&str, LinkConfig, Option<LinkTrace>); 3] = [
        ("steady", access, None),
        ("mobile_handoff", access, Some(handoff)),
        (
            // A harsher Gilbert-Elliott channel than the bursty()
            // preset: bursts long and lossy enough (~17-frame bursts
            // at 70% drop) to stall fetches mid-segment.
            "ge_bursty",
            access.with_loss_model(LossModel::GilbertElliott {
                p_enter_bad: 0.008,
                p_exit_bad: 0.06,
                loss_good: 0.001,
                loss_bad: 0.7,
            }),
            None,
        ),
    ];

    println!(
        "\nshootout: 3 controllers x 3 traces, 8 seeds per cell, AIMD transport\n  {:>8} {:>16} {:>9} {:>10} {:>9} {:>9} {:>7}",
        "ctrl", "trace", "startup", "rebuffer%", "switches", "meanrung", "failed"
    );
    let cell = |abr: &AbrStrategy, link: LinkConfig, trace: &Option<LinkTrace>| {
        let base = SessionConfig {
            tcp,
            link,
            retry,
            abr: abr.clone(),
            trace: trace.clone(),
            ..Default::default()
        };
        run_cell(&server, &base, 100..108)
    };
    let mut cells: Vec<(String, String, CellQoe)> = Vec::new();
    for (trace_name, link, trace) in &traces {
        for (ctrl_name, strategy) in &controllers {
            let qoe = cell(strategy, *link, trace);
            println!(
                "  {:>8} {:>16} {:>9.0} {:>9.2}% {:>9.2} {:>9.2} {:>7}",
                ctrl_name,
                trace_name,
                qoe.mean_startup_ticks,
                100.0 * qoe.rebuffer_ratio,
                qoe.mean_switches,
                qoe.mean_rung,
                qoe.failed
            );
            report.push(
                PerfEntry::new(&format!("abr_{ctrl_name}_{trace_name}"))
                    .metric("sessions", f64::from(qoe.sessions))
                    .metric("failed_sessions", f64::from(qoe.failed))
                    .metric("mean_startup_ticks", qoe.mean_startup_ticks)
                    .metric("rebuffer_ratio", qoe.rebuffer_ratio)
                    .metric("mean_rung_switches", qoe.mean_switches)
                    .metric("mean_rung", qoe.mean_rung)
                    .metric("goodput_bits_per_tick", qoe.goodput_bits_per_tick),
            );
            assert!(
                qoe.sessions == 8 && qoe.failed == 0,
                "every shootout session must complete ({ctrl_name} on {trace_name}: {} completed, {} failed)",
                qoe.sessions,
                qoe.failed
            );
            cells.push((ctrl_name.to_string(), trace_name.to_string(), qoe));
        }
    }

    // Determinism gate: an identical re-run of one cell must agree
    // exactly before any number is published.
    let (ctrl_name, strategy) = &controllers[2];
    let (trace_name, link, trace) = &traces[2];
    let replay = cell(strategy, *link, trace);
    let original = cells
        .iter()
        .find(|(c, t, _)| c == ctrl_name && t == trace_name)
        .map(|(_, _, q)| *q)
        .expect("cell was measured");
    assert_eq!(
        replay, original,
        "the shootout must be deterministic for identical seeds"
    );

    // The headline QoE bar: on the bursty channel, capping optimism
    // with the buffer signal must not rebuffer more than throughput
    // chasing alone.
    let ratio = |ctrl: &str, trace: &str| {
        cells
            .iter()
            .find(|(c, t, _)| c == ctrl && t == trace)
            .map(|(_, _, q)| q.rebuffer_ratio)
            .expect("cell was measured")
    };
    let hybrid_bursty = ratio("hybrid", "ge_bursty");
    let ewma_bursty = ratio("ewma", "ge_bursty");
    assert!(
        hybrid_bursty <= ewma_bursty,
        "hybrid rebuffer ratio ({hybrid_bursty:.4}) must not exceed EWMA's ({ewma_bursty:.4}) on the bursty channel"
    );
    println!(
        "\nbursty-channel bar: hybrid rebuffer {:.2}% <= EWMA {:.2}%",
        100.0 * hybrid_bursty,
        100.0 * ewma_bursty
    );
    // Throughput-blind buffer occupancy cannot see a loss burst coming.
    let buffer_bursty = ratio("buffer", "ge_bursty");
    assert!(
        buffer_bursty > 0.2,
        "throughput-blind BBA must collapse on the bursty channel (rebuffer {buffer_bursty:.4})"
    );
    // Through a handoff the hybrid's throughput signal must pay off.
    let buffer_handoff = ratio("buffer", "mobile_handoff");
    let hybrid_handoff = ratio("hybrid", "mobile_handoff");
    assert!(
        buffer_handoff > hybrid_handoff,
        "the hybrid ({hybrid_handoff:.4}) must rebuffer less than BBA ({buffer_handoff:.4}) through a handoff"
    );
    println!(
        "BBA collapses on the bursty channel ({:.2}% > 20%); handoff: hybrid {:.2}% < BBA {:.2}%",
        100.0 * buffer_bursty,
        100.0 * hybrid_handoff,
        100.0 * buffer_handoff
    );
}
