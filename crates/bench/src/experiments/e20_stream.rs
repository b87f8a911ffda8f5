//! E20 — the streaming delivery perf harness.
//!
//! Measures the `mmstream` subsystem and writes the machine-readable
//! `BENCH_stream.json` that extends the repo's perf trajectory:
//!
//! * **Mux/demux throughput**: MB/s packetizing an A/V segment into
//!   188-byte transport packets (with per-packet CRC-32) and
//!   reassembling it bit-identically.
//! * **Viewer hot path**: each fast kernel a viewer runs per segment
//!   against the oracle it must equal, with `bit_identical` asserted in
//!   the binary over every timed input: the lane-parallel XTEA-CTR
//!   unseal vs the per-block loop on 64 KiB, and the slicing-by-8 TS
//!   CRC-32 vs the byte-wise loop on every packet of the segment. Then
//!   the event-stepped TCP-lite engine: wall time and simulated ticks of
//!   a 64 KiB AIMD transfer over the `viewer_fleet` access link.
//! * **Ladder encode**: wall time to produce a 3-rung ABR ladder.
//! * **Load simulator rate**: simulated sessions per wall second.
//! * **Capacity curve**: sessions vs per-session delivered bitrate,
//!   rebuffer fraction, and mean rung for 50..4000 concurrent sessions
//!   against one server, plus the detected capacity knee. The simulated
//!   numbers are seed-deterministic (asserted by re-running one level).

use std::hint::black_box;

use crate::perf::{median_ns_per_iter, PerfEntry, PerfReport};
use crate::{bench_ladder_config, bench_source};
use drm::cipher::XteaCtr;
use mmstream::catalog::Catalog;
use mmstream::ladder::encode_ladder;
use mmstream::segment::{demux_segment, mux_segment_wire};
use mmstream::serve::{curve_knee, simulate, sweep, CdnConfig, LoadConfig, Scenario};
use mmstream::ts::{crc32, crc32_bytewise, TS_PACKET_LEN};
use netstack::link::{LinkConfig, LossModel};
use netstack::tcplite::{transfer, CongestionControl, TcpConfig};
use video::encoder::{Encoder, EncoderConfig};
use video::synth::SequenceGen;

/// A fast-kernel row: the oracle's and the fast kernel's median ns per
/// pass over `bytes` bytes whose outputs the caller asserted equal.
fn oracle_row(name: &str, bytes: usize, oracle: impl FnMut(), fast: impl FnMut()) -> PerfEntry {
    let oracle_ns = median_ns_per_iter(oracle);
    let fast_ns = median_ns_per_iter(fast);
    let mb_s = |ns: f64| bytes as f64 / (ns / 1e9) / 1e6;
    println!(
        "  {name:<13}: oracle {:>8.1} MB/s, fast {:>8.1} MB/s ({:.2}x), bit-identical over {bytes} bytes",
        mb_s(oracle_ns),
        mb_s(fast_ns),
        oracle_ns / fast_ns
    );
    PerfEntry::new(name)
        .metric("bytes", bytes as f64)
        .metric("bit_identical", 1.0)
        .timing("oracle_wall_ns", oracle_ns)
        .timing("fast_wall_ns", fast_ns)
        .timing("oracle_mb_per_s", mb_s(oracle_ns))
        .timing("fast_mb_per_s", mb_s(fast_ns))
        .timing("speedup_vs_oracle", oracle_ns / fast_ns)
}

/// The viewer's per-segment work: unseal, TS CRC-32 and the transfer
/// that delivers the bytes.
fn viewer_rows(report: &mut PerfReport, wire: &[u8]) {
    println!("\nviewer hot path (fast kernel vs the oracle it must equal):");
    // Unseal: CTR is an involution, so each pass XORs the same
    // keystream into the buffer; both paths must agree on it.
    let ctr = XteaCtr::new(&[7u8; 16], 0x5EA1);
    let mut fast = vec![0u8; 65_536];
    let mut oracle = fast.clone();
    ctr.apply(&mut fast);
    ctr.apply_blockwise(&mut oracle);
    assert_eq!(fast, oracle, "XTEA-CTR lanes must equal the per-block loop");
    report.push(oracle_row(
        "xtea_ctr_64k",
        fast.len(),
        || ctr.apply_blockwise(black_box(&mut oracle)),
        || ctr.apply(black_box(&mut fast)),
    ));

    // The demux's per-packet CRC over every packet of the A/V segment.
    let packets = || wire.chunks_exact(TS_PACKET_LEN);
    for p in packets() {
        assert_eq!(
            crc32(p),
            crc32_bytewise(p),
            "slicing-by-8 must equal the byte-wise CRC"
        );
    }
    report.push(oracle_row(
        "crc32_ts",
        wire.len(),
        || {
            for p in packets() {
                black_box(crc32_bytewise(black_box(p)));
            }
        },
        || {
            for p in packets() {
                black_box(crc32(black_box(p)));
            }
        },
    ));

    // Transport: one 64 KiB AIMD transfer over the viewer_fleet access
    // link (a third of the default rate, Gilbert–Elliott loss bursts).
    let link = LinkConfig {
        ticks_per_byte: 0.03,
        ..LinkConfig::default()
    }
    .with_loss_model(LossModel::GilbertElliott {
        p_enter_bad: 0.005,
        p_exit_bad: 0.1,
        loss_good: 0.001,
        loss_bad: 0.5,
    });
    let tcp = TcpConfig {
        cc: CongestionControl::aimd(),
        ..TcpConfig::default()
    };
    let data: Vec<u8> = (0..65_536u32).map(|i| (i * 131) as u8).collect();
    let run = || transfer(&data, tcp, link, 20).expect("the access-link transfer completes");
    let r = run();
    assert_eq!(r.data, data);
    let ns = median_ns_per_iter(run);
    println!(
        "  transfer_aimd_ge: {:.0} us per 64 KiB over {} simulated ticks ({} segments, {} retransmitted)",
        ns / 1e3,
        r.ticks,
        r.segments_sent,
        r.retransmissions
    );
    report.push(
        PerfEntry::new("transfer_aimd_ge")
            .metric("payload_bytes", data.len() as f64)
            .metric("sim_ticks", r.ticks as f64)
            .metric("segments_sent", r.segments_sent as f64)
            .metric("retransmissions", r.retransmissions as f64)
            .timing("wall_ns", ns),
    );
}

/// Runs the harness, filling `report`.
pub fn run(report: &mut PerfReport) {
    // ---- Workload: a QCIF-ish sequence, one GOP muxed as a segment.
    let frames = SequenceGen::new(11).panning_sequence(176, 144, 8, 2, 1);
    let seq = Encoder::new(EncoderConfig {
        gop: 8,
        ..Default::default()
    })
    .expect("valid config")
    .encode(&frames)
    .expect("encode succeeds");
    let audio: Vec<u8> = (0..seq.bytes.len() / 8).map(|i| (i * 31) as u8).collect();

    // ---- Mux + demux throughput.
    let wire = mux_segment_wire(&seq, Some(&audio));
    let seg = demux_segment(&wire);
    assert!(!seg.report.loss_detected());
    assert_eq!(seg.video_es.as_deref(), Some(seq.bytes.as_slice()));
    assert_eq!(seg.audio_es.as_deref(), Some(audio.as_slice()));

    let payload_bytes = (seq.bytes.len() + audio.len()) as f64;
    let mux_ns = median_ns_per_iter(|| mux_segment_wire(black_box(&seq), Some(black_box(&audio))));
    let demux_ns = median_ns_per_iter(|| demux_segment(black_box(&wire)));
    let mux_mb_s = payload_bytes / (mux_ns / 1e9) / 1e6;
    let demux_mb_s = wire.len() as f64 / (demux_ns / 1e9) / 1e6;
    println!(
        "mux {:.0} KB payload -> {} packets: {mux_mb_s:>8.1} MB/s mux, {demux_mb_s:>8.1} MB/s demux",
        payload_bytes / 1e3,
        wire.len() / 188,
    );
    report.push(
        PerfEntry::new("ts_mux_demux_segment")
            .metric("payload_bytes", payload_bytes)
            .metric("wire_packets", (wire.len() / 188) as f64)
            .timing("mux_wall_ns", mux_ns)
            .timing("mux_mb_per_s", mux_mb_s)
            .timing("demux_wall_ns", demux_ns)
            .timing("demux_mb_per_s", demux_mb_s),
    );

    viewer_rows(report, &wire);

    // ---- Ladder encode (the head-end cost of one title). 32 frames at
    // GOP 4 give 8 segments per rung, so sessions spend most of their
    // life in steady-state fetch-while-playing — the regime where the
    // capacity knee is visible.
    let (source, cfg) = (bench_source(32), bench_ladder_config());
    let ladder = encode_ladder("bench", &source, &cfg).expect("ladder encodes");
    let ladder_ns =
        median_ns_per_iter(|| encode_ladder("bench", black_box(&source), black_box(&cfg)).unwrap());
    println!(
        "ladder: 3 rungs x {} segments, {} wire bytes, {:.1} ms to encode",
        ladder.manifest.segment_count(),
        ladder.total_bytes(),
        ladder_ns / 1e6
    );
    report.push(
        PerfEntry::new("ladder_encode_64x48x32")
            .metric("rungs", ladder.manifest.rungs.len() as f64)
            .metric("segments_per_rung", ladder.manifest.segment_count() as f64)
            .metric("total_wire_bytes", ladder.total_bytes() as f64)
            .timing("wall_ns", ladder_ns)
            .timing("wall_ms", ladder_ns / 1e6),
    );

    // ---- Many-session load: capacity curve and knee.
    let manifest = &ladder.manifest;
    let catalog = Catalog::single(manifest.clone());
    let server = CdnConfig::single_origin();
    let base = LoadConfig::default();
    let at_1k = Scenario::new(
        &catalog,
        server,
        LoadConfig {
            sessions: 1_000,
            ..base
        },
    );
    let counts = [50usize, 200, 500, 1_000, 2_000, 4_000];
    let curve = sweep(&at_1k, &counts, None);

    // Determinism gate: an identical re-run of one level must agree
    // exactly before any number is published.
    assert_eq!(
        simulate(&at_1k),
        curve[3],
        "load simulation must be deterministic for identical seeds"
    );

    let lowest_rate = manifest.rungs[0].required_bits_per_tick(0, manifest.ticks_per_frame);
    println!(
        "\ncapacity curve (uplink {} B/tick, lowest rung needs {:.1} bits/tick):",
        server.tier.edge_capacity_bytes_per_tick, lowest_rate
    );
    println!(
        "  {:>8} {:>12} {:>12} {:>10} {:>9} {:>9}",
        "sessions", "bits/tick", "goodput", "rebuffer%", "meanrung", "startup"
    );
    for r in curve.iter().map(|r| &r.edge.load) {
        println!(
            "  {:>8} {:>12.1} {:>12.0} {:>9.1}% {:>9.2} {:>9.0}",
            r.sessions,
            r.mean_session_bits_per_tick,
            r.total_goodput_bits_per_tick,
            100.0 * r.rebuffer_fraction,
            r.mean_rung,
            r.mean_startup_ticks
        );
        report.push(
            PerfEntry::new(&format!("load_{}_sessions", r.sessions))
                .metric("sessions", r.sessions as f64)
                .metric("completed", r.completed as f64)
                .metric("sim_ticks", r.ticks as f64)
                .metric("mean_session_bits_per_tick", r.mean_session_bits_per_tick)
                .metric("total_goodput_bits_per_tick", r.total_goodput_bits_per_tick)
                .metric("rebuffer_fraction", r.rebuffer_fraction)
                .metric("mean_rung", r.mean_rung)
                .metric("mean_startup_ticks", r.mean_startup_ticks)
                .metric("rung_switches", r.rung_switches as f64),
        );
    }
    let knee = curve_knee(&curve, 0.05);
    println!(
        "capacity knee (<=5% sessions rebuffering): {}",
        knee.map_or("none".to_string(), |k| k.to_string())
    );

    // ---- Simulator wall rate: sessions per second at the 1000 level.
    let sim_ns = median_ns_per_iter(|| simulate(black_box(&at_1k)));
    let sessions_per_s = 1_000.0 / (sim_ns / 1e9);
    println!(
        "simulator: 1000-session run in {:.1} ms ({sessions_per_s:.0} sessions/s)",
        sim_ns / 1e6
    );
    report.push(
        PerfEntry::new("simulator_rate")
            .metric("sessions", 1_000.0)
            .metric("knee_sessions", knee.unwrap_or(0) as f64)
            .timing("wall_ns_per_run", sim_ns)
            .timing("sessions_per_second", sessions_per_s),
    );
}
