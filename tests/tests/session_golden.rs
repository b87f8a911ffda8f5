//! Golden for the packet-level viewer session: a grid of VOD and live
//! scenarios — plain and sealed titles, a lossy link, a trace-driven
//! link, 0/1/2 cache nodes, flaky legs under `RetryPolicy::standard`, a
//! damaged segment, live-edge and DVR-start joins, a slow viewer losing
//! content to window expiry, an endless origin outage under the flat and
//! the backoff refresh policies — each logged as a transcript of every
//! report field (every segment record, its demuxed segment included) or
//! the error, plus every cache node's stats, and hashed with FNV-1a.
//! The digests pin the sessions bit for bit.
//!
//! Both session kinds log the same record shape: a VOD record's `seq` is
//! its manifest index and its latency is zero.

use drm::playback::LicenseAuthority;
use drm::{Right, TitleId};
use mmstream::cache::{CacheConfig, CacheNode};
use mmstream::fault::RetryPolicy;
use mmstream::ladder::publish_ladder;
use mmstream::ladder::{encode_ladder, seal_ladder, LadderConfig, LiveOrigin, LiveOriginConfig};
use mmstream::session::{
    run_live_session, run_session, AbrStrategy, JoinMode, LiveSessionConfig, LiveSessionReport,
    SessionConfig, SessionError, SessionReport,
};
use mmstream::Manifest;
use netstack::fetch::ContentServer;
use netstack::link::{LinkConfig, LinkTrace};
use netstack::tcplite::TcpConfig;
use video::synth::SequenceGen;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One segment record, the same shape for both session kinds.
struct Rec {
    seq: u64,
    rung: usize,
    ticks: u64,
    bits: u64,
    frames: usize,
    latency_ticks: u64,
    segment: String,
}

/// Every field of either report kind.
struct Canon {
    startup: u64,
    rebuffer_events: u32,
    rebuffer_ticks: u64,
    rung_switches: u32,
    fetch_retries: u32,
    retry_backoff_ticks: u64,
    total_ticks: u64,
    delivered_bits: u64,
    live: Option<(u32, u64, u64)>,
    records: Vec<Rec>,
}

fn vod(r: &SessionReport) -> Canon {
    Canon {
        startup: r.startup_delay_ticks,
        rebuffer_events: r.rebuffer_events,
        rebuffer_ticks: r.rebuffer_ticks,
        rung_switches: r.rung_switches,
        fetch_retries: r.fetch_retries,
        retry_backoff_ticks: r.retry_backoff_ticks,
        total_ticks: r.total_ticks,
        delivered_bits: r.delivered_bits,
        live: None,
        records: r
            .segments
            .iter()
            .map(|s| Rec {
                seq: s.seq,
                rung: s.rung,
                ticks: s.ticks,
                bits: s.bits,
                frames: s.frames,
                latency_ticks: s.latency_ticks,
                segment: format!("{:?}", s.segment),
            })
            .collect(),
    }
}

fn live(r: &LiveSessionReport) -> Canon {
    Canon {
        live: Some((r.manifest_refreshes, r.stale_manifest_ticks, r.window_skips)),
        ..vod(&r.base)
    }
}

/// The error, with a damaged segment named by its sequence number.
fn show_err(e: &SessionError) -> String {
    match e {
        SessionError::DamagedSegment { seq, .. } => format!("err DamagedSegment seq={seq}"),
        e => format!("err {e:?}"),
    }
}

fn show(c: Result<Canon, String>) -> String {
    let c = match c {
        Ok(c) => c,
        Err(e) => return e,
    };
    let mut s = format!(
        "ok startup={} rebuffers={} rebuffer_ticks={} switches={} retries={} backoff={} total={} bits={}",
        c.startup,
        c.rebuffer_events,
        c.rebuffer_ticks,
        c.rung_switches,
        c.fetch_retries,
        c.retry_backoff_ticks,
        c.total_ticks,
        c.delivered_bits
    );
    if let Some((refreshes, stale, skips)) = c.live {
        s += &format!(" refreshes={refreshes} stale={stale} skips={skips}");
    }
    for r in &c.records {
        s += &format!(
            "\n  seq={} rung={} ticks={} bits={} frames={} latency={} segment={:016x}",
            r.seq,
            r.rung,
            r.ticks,
            r.bits,
            r.frames,
            r.latency_ticks,
            fnv(r.segment.as_bytes())
        );
    }
    s
}

fn show_vod(r: &Result<SessionReport, SessionError>) -> String {
    show(r.as_ref().map(vod).map_err(show_err))
}

fn show_live(r: &Result<LiveSessionReport, SessionError>) -> String {
    show(r.as_ref().map(live).map_err(show_err))
}

/// A transcript: one entry per session, then each node's stats.
#[derive(Default)]
struct Log(Vec<String>);

impl Log {
    fn push(&mut self, label: &str, line: String, nodes: &[&CacheNode]) {
        let mut line = format!("{label}: {line}");
        for (i, n) in nodes.iter().enumerate() {
            line += &format!("\n  node{i} {:?} ledger {:?}", n.stats(), n.fill_ledger());
        }
        self.0.push(line);
    }
}

fn ladder_config() -> LadderConfig {
    LadderConfig {
        targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
        gop: 4,
        ..Default::default()
    }
}

/// A 6-segment VOD title, optionally sealed, and the key that opens it.
fn title(seal: bool) -> (ContentServer, Vec<u8>) {
    let frames = SequenceGen::new(12).panning_sequence(48, 32, 24, 1, 0);
    let mut ladder = encode_ladder("movie", &frames, &ladder_config()).expect("ladder encodes");
    let mut authority = LicenseAuthority::new(b"studio".to_vec());
    let title_id = TitleId(1);
    authority.register_title(title_id);
    let mut server = ContentServer::new();
    if seal {
        seal_ladder(&mut ladder, &authority, title_id);
        server.publish(
            Manifest::license_object("movie"),
            authority.issue(title_id, vec![Right::Play]),
        );
    }
    publish_ladder(&mut server, &ladder);
    (server, authority.verification_key().to_vec())
}

/// A live channel over a 3-segment wheel, optionally sealed.
fn channel(seal: bool, dvr: u64, pace: u64) -> (ContentServer, LiveOrigin, Vec<u8>) {
    let frames = SequenceGen::new(21).panning_sequence(48, 32, 12, 1, 0);
    let mut ladder = encode_ladder("chan", &frames, &ladder_config()).expect("ladder encodes");
    let mut authority = LicenseAuthority::new(b"studio".to_vec());
    let title_id = TitleId(3);
    authority.register_title(title_id);
    let mut server = ContentServer::new();
    if seal {
        seal_ladder(&mut ladder, &authority, title_id);
        server.publish(
            Manifest::license_object("chan"),
            authority.issue(title_id, vec![Right::Play]),
        );
    }
    let origin = LiveOrigin::new(
        ladder,
        LiveOriginConfig {
            dvr_window_segments: dvr,
            ticks_per_segment: pace,
        },
    )
    .expect("valid live config");
    (server, origin, authority.verification_key().to_vec())
}

/// A live viewer refreshing a stale manifest every `poll` ticks, giving
/// up after `attempts - 1` progress-free refreshes.
fn flat(base: SessionConfig, segments: usize, poll: u64, attempts: u32) -> LiveSessionConfig {
    LiveSessionConfig {
        base,
        segments_to_play: segments,
        refresh: RetryPolicy {
            max_attempts: attempts,
            base_backoff_ticks: poll,
            max_backoff_ticks: poll,
            jitter_ticks: 0,
            seed: 0,
        },
        ..Default::default()
    }
}

/// A live viewer whose progress-free refreshes back off per `policy`.
fn backoff(base: SessionConfig, segments: usize, policy: RetryPolicy) -> LiveSessionConfig {
    LiveSessionConfig {
        base,
        segments_to_play: segments,
        refresh: policy,
        ..Default::default()
    }
}

fn node(ttl: u64) -> CacheNode {
    CacheNode::new(CacheConfig {
        mutable_ttl_ticks: ttl,
        ..Default::default()
    })
}

/// A link that times out some transfers: heavy loss and a 2-retransmit
/// give-up.
fn flaky(seed: u64) -> SessionConfig {
    SessionConfig {
        tcp: TcpConfig {
            rto_ticks: 50,
            max_retransmits: 2,
            ..TcpConfig::default()
        },
        link: LinkConfig::default().with_loss(0.25),
        seed,
        max_rung: Some(0),
        ..Default::default()
    }
}

fn vod_direct(seal: bool, cfg: &SessionConfig) -> Vec<String> {
    let (server, _) = title(seal);
    let mut log = Log::default();
    log.push(
        "viewer",
        show_vod(&run_session(&server, &mut [], "movie", cfg)),
        &[],
    );
    log.0
}

fn vod_plain() -> Vec<String> {
    vod_direct(false, &SessionConfig::default())
}

fn vod_sealed() -> Vec<String> {
    let (_, key) = title(true);
    let mut lines = vod_direct(true, &SessionConfig::default());
    lines.extend(vod_direct(
        true,
        &SessionConfig {
            verification_key: Some(key),
            ..Default::default()
        },
    ));
    lines.extend(vod_direct(
        true,
        &SessionConfig {
            verification_key: Some(b"impostor".to_vec()),
            ..Default::default()
        },
    ));
    lines
}

fn vod_lossy() -> Vec<String> {
    vod_direct(
        false,
        &SessionConfig {
            link: LinkConfig::default().with_loss(0.1),
            seed: 5,
            ..Default::default()
        },
    )
}

fn vod_trace() -> Vec<String> {
    let mut fade = LinkTrace::mobile_handoff();
    fade.phases.rotate_left(1);
    let mut lines = vod_direct(
        false,
        &SessionConfig {
            trace: Some(fade),
            ..Default::default()
        },
    );
    lines.extend(vod_direct(
        false,
        &SessionConfig {
            trace: Some(LinkTrace::bursty()),
            abr: AbrStrategy::Hybrid {
                reservoir_ticks: 200,
                cushion_ticks: 2_000,
            },
            ..Default::default()
        },
    ));
    lines
}

fn vod_buffer_abr() -> Vec<String> {
    vod_direct(
        false,
        &SessionConfig {
            abr: AbrStrategy::BufferOccupancy {
                reservoir_ticks: 100,
                cushion_ticks: 1_000,
            },
            ..Default::default()
        },
    )
}

/// A cold then a warm viewer through one edge, then a third through an
/// origin outage.
fn vod_edge() -> Vec<String> {
    let (server, key) = title(true);
    let mut edge = node(0);
    let mut log = Log::default();
    for (label, seed) in [("cold", 1), ("warm", 2)] {
        let cfg = SessionConfig {
            verification_key: Some(key.clone()),
            seed,
            ..Default::default()
        };
        let r = run_session(&server, &mut [&mut edge], "movie", &cfg);
        log.push(label, show_vod(&r), &[&edge]);
    }
    edge.set_parent_up(false);
    let cfg = SessionConfig {
        verification_key: Some(key),
        max_rung: Some(0),
        ..Default::default()
    };
    let r = run_session(&server, &mut [&mut edge], "movie", &cfg);
    log.push("outage", show_vod(&r), &[&edge]);
    log.0
}

/// Viewers through an edge over a shield, with the benchmark fleet's
/// retry and jitter.
fn vod_tier() -> Vec<String> {
    let (server, key) = title(true);
    let mut edge = node(0);
    let mut shield = node(0);
    let mut log = Log::default();
    for seed in 1..=3 {
        let cfg = SessionConfig {
            link: LinkConfig::default().with_loss(0.05),
            seed,
            verification_key: Some(key.clone()),
            retry: RetryPolicy {
                max_attempts: 8,
                base_backoff_ticks: 100,
                max_backoff_ticks: 1_600,
                jitter_ticks: 50,
                seed,
            },
            ..Default::default()
        };
        let r = run_session(&server, &mut [&mut edge, &mut shield], "movie", &cfg);
        log.push(&format!("viewer {seed}"), show_vod(&r), &[&edge, &shield]);
    }
    log.0
}

/// Legs that time out: the standard policy recovers them, the default
/// single attempt does not.
fn vod_flaky() -> Vec<String> {
    let (server, _) = title(false);
    let mut log = Log::default();
    for seed in 1..=4 {
        let standard = SessionConfig {
            retry: RetryPolicy::standard(seed),
            ..flaky(seed)
        };
        let r = run_session(&server, &mut [], "movie", &standard);
        log.push(&format!("standard {seed}"), show_vod(&r), &[]);
        let r = run_session(&server, &mut [], "movie", &flaky(seed));
        log.push(&format!("single {seed}"), show_vod(&r), &[]);
    }
    log.0
}

/// Segment 1 padded with one TS packet on every rung, direct and
/// through two nodes.
fn vod_damaged() -> Vec<String> {
    let (mut server, _) = title(false);
    let manifest =
        Manifest::from_bytes(server.get(&Manifest::manifest_object("movie")).unwrap()).unwrap();
    for rung in 0..manifest.rungs.len() {
        let name = manifest.segment_object(rung, 1);
        let mut bytes = server.get(&name).unwrap().to_vec();
        bytes.extend_from_within(bytes.len() - 188..);
        server.publish(name, bytes);
    }
    let cfg = SessionConfig::default();
    let mut log = Log::default();
    log.push(
        "direct",
        show_vod(&run_session(&server, &mut [], "movie", &cfg)),
        &[],
    );
    let (mut edge, mut shield) = (node(0), node(0));
    let r = run_session(&server, &mut [&mut edge, &mut shield], "movie", &cfg);
    log.push("chained", show_vod(&r), &[&edge, &shield]);
    log.0
}

fn live_edge() -> Vec<String> {
    let (mut server, mut origin, _) = channel(false, 4, 100);
    let cfg = flat(SessionConfig::default(), 6, 20, 65);
    let r = run_live_session(&mut server, &mut origin, &mut [], "chan", &cfg);
    let mut log = Log::default();
    log.push("viewer", show_live(&r), &[]);
    log.0
}

fn live_dvr_start() -> Vec<String> {
    let mut log = Log::default();
    for join in [JoinMode::DvrStart, JoinMode::LiveEdge] {
        let (mut server, mut origin, _) = channel(false, 4, 100);
        origin.advance_to(&mut server, 500);
        let cfg = LiveSessionConfig {
            join,
            start_tick: 500,
            ..flat(SessionConfig::default(), 4, 20, 65)
        };
        let r = run_live_session(&mut server, &mut origin, &mut [], "chan", &cfg);
        log.push(&format!("{join:?}"), show_live(&r), &[]);
    }
    log.0
}

/// A 10-tick pace and a 1-deep window: a slower viewer keeps losing its
/// next segment.
fn live_slow_skip() -> Vec<String> {
    let (mut server, mut origin, _) = channel(false, 1, 10);
    let cfg = LiveSessionConfig {
        join: JoinMode::DvrStart,
        ..flat(
            SessionConfig {
                max_rung: Some(0),
                ..Default::default()
            },
            5,
            5,
            65,
        )
    };
    let r = run_live_session(&mut server, &mut origin, &mut [], "chan", &cfg);
    let mut log = Log::default();
    log.push("viewer", show_live(&r), &[]);
    log.0
}

/// A first viewer warms an edge, the edge loses its origin, and a later
/// viewer stalls out on the stale manifest under `later`'s policy.
fn live_stall(later: impl Fn(SessionConfig) -> LiveSessionConfig) -> Vec<String> {
    let (mut server, mut origin, _) = channel(false, 4, 100);
    let mut edge = node(50);
    let pinned = SessionConfig {
        max_rung: Some(0),
        ..Default::default()
    };
    let mut log = Log::default();
    let first = flat(pinned.clone(), 4, 20, 65);
    let r = run_live_session(&mut server, &mut origin, &mut [&mut edge], "chan", &first);
    log.push("warm", show_live(&r), &[&edge]);
    edge.set_parent_up(false);
    let cfg = LiveSessionConfig {
        start_tick: origin.publish_tick(origin.live_seq().unwrap()),
        ..later(pinned)
    };
    let r = run_live_session(&mut server, &mut origin, &mut [&mut edge], "chan", &cfg);
    log.push("stalled", show_live(&r), &[&edge]);
    log.0
}

fn live_stall_flat() -> Vec<String> {
    live_stall(|base| flat(base, 4, 20, 9))
}

fn live_stall_backoff() -> Vec<String> {
    live_stall(|base| backoff(base, 4, RetryPolicy::standard(11)))
}

/// A sealed channel: without a key, then over a lossy link with the
/// default refresh policy, then through two nodes.
fn live_sealed() -> Vec<String> {
    let mut log = Log::default();
    let (mut server, mut origin, key) = channel(true, 4, 100);
    let r = run_live_session(
        &mut server,
        &mut origin,
        &mut [],
        "chan",
        &LiveSessionConfig::default(),
    );
    log.push("no key", show_live(&r), &[]);
    let (mut server, mut origin, _) = channel(true, 4, 100);
    let cfg = LiveSessionConfig {
        base: SessionConfig {
            link: LinkConfig::default().with_loss(0.05),
            verification_key: Some(key.clone()),
            seed: 61,
            ..Default::default()
        },
        segments_to_play: 9,
        ..Default::default()
    };
    let r = run_live_session(&mut server, &mut origin, &mut [], "chan", &cfg);
    log.push("lossy", show_live(&r), &[]);
    let (mut server, mut origin, _) = channel(true, 4, 100);
    let (mut edge, mut shield) = (node(50), node(50));
    let cfg = flat(
        SessionConfig {
            verification_key: Some(key),
            ..Default::default()
        },
        6,
        20,
        65,
    );
    let r = run_live_session(
        &mut server,
        &mut origin,
        &mut [&mut edge, &mut shield],
        "chan",
        &cfg,
    );
    log.push("tier", show_live(&r), &[&edge, &shield]);
    let tune_in = origin.publish_tick(origin.live_seq().unwrap());
    let cfg = LiveSessionConfig {
        join: JoinMode::DvrStart,
        start_tick: tune_in,
        ..cfg
    };
    let r = run_live_session(
        &mut server,
        &mut origin,
        &mut [&mut edge, &mut shield],
        "chan",
        &cfg,
    );
    log.push("tier dvr", show_live(&r), &[&edge, &shield]);
    log.0
}

/// A live viewer pointed at a VOD title.
fn live_not_live() -> Vec<String> {
    let (mut server, _) = title(false);
    let (_, mut origin, _) = channel(false, 4, 100);
    let r = run_live_session(
        &mut server,
        &mut origin,
        &mut [],
        "movie",
        &LiveSessionConfig::default(),
    );
    let mut log = Log::default();
    log.push("viewer", show_live(&r), &[]);
    log.0
}

fn scenarios() -> Vec<(&'static str, Vec<String>)> {
    vec![
        ("vod_plain", vod_plain()),
        ("vod_sealed", vod_sealed()),
        ("vod_lossy", vod_lossy()),
        ("vod_trace", vod_trace()),
        ("vod_buffer_abr", vod_buffer_abr()),
        ("vod_edge", vod_edge()),
        ("vod_tier", vod_tier()),
        ("vod_flaky", vod_flaky()),
        ("vod_damaged", vod_damaged()),
        ("live_edge", live_edge()),
        ("live_dvr_start", live_dvr_start()),
        ("live_slow_skip", live_slow_skip()),
        ("live_stall_flat", live_stall_flat()),
        ("live_stall_backoff", live_stall_backoff()),
        ("live_sealed", live_sealed()),
        ("live_not_live", live_not_live()),
    ]
}

/// Digests captured from the session engine before VOD and live shared
/// one loop.
const DIGESTS: &[(&str, u64)] = &[
    ("vod_plain", 0x3856a60e1030305c),
    ("vod_sealed", 0xe6a240440e0c2346),
    ("vod_lossy", 0xa8e2144164260a08),
    ("vod_trace", 0x77084712657e9c35),
    ("vod_buffer_abr", 0xbc7d0a2b30d6a70b),
    ("vod_edge", 0x2f87e3c351265e95),
    ("vod_tier", 0x3f80b2dd0b563803),
    ("vod_flaky", 0xeceafe1e09c03ef2),
    ("vod_damaged", 0x79a6d10a2438db25),
    ("live_edge", 0x146833947ae5a81d),
    ("live_dvr_start", 0x7f12c967b717fc90),
    ("live_slow_skip", 0xac30a2f284210223),
    ("live_stall_flat", 0xb5b7b395338df15b),
    ("live_stall_backoff", 0x131891a39772509c),
    ("live_sealed", 0x0e18fc0e51de5bb0),
    ("live_not_live", 0x3a23c2170d72f707),
];

#[test]
fn session_reports_match_their_golden_digests() {
    let got: Vec<(&str, u64, String)> = scenarios()
        .into_iter()
        .map(|(name, lines)| {
            let joined = lines.join("\n");
            (name, fnv(joined.as_bytes()), joined)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, d, _)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        DIGESTS.len(),
        "scenario list changed; current digests:\n{table}"
    );
    for ((name, d, joined), (gname, g)) in got.iter().zip(DIGESTS) {
        assert_eq!(name, gname, "scenario order changed:\n{table}");
        assert_eq!(
            d, g,
            "{name}: digest 0x{d:016x} != golden 0x{g:016x}:\n{joined}\ncurrent digests:\n{table}"
        );
    }
}

/// Each scenario reaches the path it is named for, so no digest can pass
/// without exercising it.
#[test]
fn every_scenario_exercises_its_path() {
    let all = scenarios();
    let lines = |name: &str| &all.iter().find(|(n, _)| *n == name).unwrap().1;
    let has = |name: &str, what: &str| lines(name).iter().any(|l| l.contains(what));
    assert!(has("vod_sealed", "err SealedWithoutKey"));
    assert!(has("vod_sealed", "err License("));
    assert!(has("vod_trace", "rebuffers=1"), "the fade must stall");
    assert!(
        lines("vod_flaky")
            .iter()
            .any(|l| l.starts_with("standard") && l.contains(": ok") && !l.contains("retries=0")),
        "the standard policy must recover a timed-out leg"
    );
    assert!(
        lines("vod_flaky")
            .iter()
            .any(|l| l.starts_with("single") && l.contains("err Fetch(Transport(")),
        "a single attempt must fail on a timed-out leg"
    );
    assert!(has("vod_damaged", "direct: err DamagedSegment seq=1"));
    assert!(has("vod_damaged", "chained: err DamagedSegment seq=1"));
    assert!(!has("live_edge", "stale=0 "), "live-edge pacing must stall");
    assert!(
        !has("live_slow_skip", "skips=0"),
        "the slow viewer must skip"
    );
    assert!(has("live_stall_flat", "stalled: err LiveStalled"));
    assert!(has("live_stall_backoff", "stalled: err LiveStalled"));
    assert!(has("live_sealed", "no key: err SealedWithoutKey"));
    assert!(has("live_not_live", "err NotLive"));
}
