//! A viewer session: fetch → jitter/playout buffer → ABR control.
//!
//! One engine runs every session. It fetches the manifest (and, for
//! sealed titles, the license) over `netstack::fetch`, then pulls
//! segments through the reliable TCP-lite transport across a lossy
//! link, each fetch leg under one retry discipline
//! ([`SessionConfig::retry`]). Every segment takes the same path: the
//! throughput-driven [`AbrController`] (or the configured
//! [`AbrStrategy`]) picks its rung, its length is checked against the
//! manifest, and it is unsealed and demuxed into the playout buffer,
//! which drains in real (simulated-tick) time while the next segment
//! downloads. The report records exactly the quality-of-experience trio
//! streaming systems are judged on: startup delay, rebuffer events, and
//! rung switches.
//!
//! The two session kinds differ only in where the next segment comes
//! from. A VOD viewer ([`run_session`]) walks the manifest's fixed list.
//! A live viewer ([`run_live_session`]) plays against a
//! [`LiveOrigin`]'s moving window: it joins at the live edge or the DVR
//! start, re-fetches the (mutable, versioned) manifest when it goes
//! stale, waits out unpublished segments under its refresh policy, and
//! skips forward over content the rolling window expired — adding the
//! live QoE trio (manifest refreshes, stale-manifest stall ticks, window
//! skips) to the report, and per-segment live latency to its records.

use drm::cipher::{Key, XteaCtr};
use drm::license::{License, LicenseParseError};
use netstack::fetch::{fetch_traced, ContentServer, FetchError};
use netstack::link::{LinkConfig, LinkTrace};
use netstack::tcplite::TcpConfig;

use crate::cache::CacheNode;
use crate::fault::RetryPolicy;
use crate::ladder::{LadderError, LiveOrigin, Manifest};
use crate::segment::{demux_segment, Segment};

/// Throughput-driven rung selection, shared by the single-session path
/// and the many-session load simulator.
///
/// `PartialEq` is part of the contract: the cohort engine in
/// `serve`/`calendar` aggregates sessions whose *entire* dynamic state
/// — including this controller's EWMA estimate — is value-identical,
/// so two controllers compare equal exactly when they would make the
/// same rung choices forever given the same samples.
#[derive(Debug, Clone, PartialEq)]
pub struct AbrController {
    /// EWMA smoothing factor for throughput samples (0..=1].
    pub alpha: f64,
    /// Headroom: a rung is sustainable when its required rate is below
    /// `safety * estimate`.
    pub safety: f64,
    estimate_bits_per_tick: Option<f64>,
}

impl AbrController {
    /// A controller with no throughput history.
    #[must_use]
    pub fn new(alpha: f64, safety: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha) && alpha > 0.0, "bad alpha");
        assert!(safety > 0.0, "bad safety");
        Self {
            alpha,
            safety,
            estimate_bits_per_tick: None,
        }
    }

    /// The current bandwidth estimate, if any sample arrived yet.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        self.estimate_bits_per_tick
    }

    /// Feeds one download sample.
    pub fn observe(&mut self, bits: f64, ticks: f64) {
        if ticks <= 0.0 {
            return;
        }
        let sample = bits / ticks;
        self.estimate_bits_per_tick = Some(match self.estimate_bits_per_tick {
            None => sample,
            Some(e) => self.alpha * sample + (1.0 - self.alpha) * e,
        });
    }

    /// Picks the highest sustainable rung for segment `seg` (rung 0 when
    /// no throughput has been observed yet — start safe, switch up; also
    /// rung 0 for a manifest with no rungs, rather than underflowing).
    #[must_use]
    pub fn pick(&self, manifest: &Manifest, seg: usize, max_rung: Option<usize>) -> usize {
        if manifest.rungs.is_empty() {
            return 0;
        }
        let ceiling = max_rung
            .unwrap_or(manifest.rungs.len() - 1)
            .min(manifest.rungs.len() - 1);
        let Some(est) = self.estimate_bits_per_tick else {
            return 0;
        };
        let budget = est * self.safety;
        (0..=ceiling)
            .rev()
            .find(|&r| {
                manifest.rungs[r].required_bits_per_tick(seg, manifest.ticks_per_frame) <= budget
            })
            .unwrap_or(0)
    }
}

impl Default for AbrController {
    /// The controller every session and cohort runs: EWMA alpha 0.4,
    /// safety 0.7.
    fn default() -> Self {
        Self::new(0.4, 0.7)
    }
}

/// How the session picks rungs — the controllers the PR 10 ABR
/// shootout (`exp e27_abr`) races on identical link traces.
///
/// Every strategy shares the same [`AbrController`] throughput
/// estimator underneath (it keeps observing downloads either way);
/// they differ in what signal drives the rung choice.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum AbrStrategy {
    /// Throughput-driven: the classic EWMA estimate with safety
    /// headroom ([`AbrController::pick`]) — the pre-PR-10 behaviour
    /// and the default.
    #[default]
    Ewma,
    /// Buffer-occupancy-driven (BBA-style): rung 0 below the
    /// `reservoir`, then rungs mapped linearly across the `cushion`
    /// until the top rung at `reservoir + cushion` ticks of buffer.
    /// Ignores the throughput estimate entirely.
    BufferOccupancy {
        /// Playout-buffer level (ticks) below which the controller
        /// pins rung 0 to refill.
        reservoir_ticks: u64,
        /// Buffer range (ticks) over which rungs ramp linearly from 0
        /// to the ceiling.
        cushion_ticks: u64,
    },
    /// Both signals, conservatively: rung 0 below the reservoir, else
    /// the minimum of the buffer-mapped rung and the EWMA pick — the
    /// buffer caps risk, the throughput estimate caps optimism.
    Hybrid {
        /// As [`AbrStrategy::BufferOccupancy::reservoir_ticks`].
        reservoir_ticks: u64,
        /// As [`AbrStrategy::BufferOccupancy::cushion_ticks`].
        cushion_ticks: u64,
    },
}

impl AbrStrategy {
    /// The rung this strategy picks given the throughput controller's
    /// state and the current playout-buffer level.
    #[must_use]
    pub fn pick(
        &self,
        abr: &AbrController,
        manifest: &Manifest,
        seg: usize,
        max_rung: Option<usize>,
        buffer_ticks: i64,
    ) -> usize {
        match *self {
            AbrStrategy::Ewma => abr.pick(manifest, seg, max_rung),
            AbrStrategy::BufferOccupancy {
                reservoir_ticks,
                cushion_ticks,
            } => buffer_mapped_rung(
                manifest,
                max_rung,
                buffer_ticks,
                reservoir_ticks,
                cushion_ticks,
            ),
            AbrStrategy::Hybrid {
                reservoir_ticks,
                cushion_ticks,
            } => {
                if buffer_ticks <= reservoir_ticks as i64 {
                    0
                } else {
                    let by_buffer = buffer_mapped_rung(
                        manifest,
                        max_rung,
                        buffer_ticks,
                        reservoir_ticks,
                        cushion_ticks,
                    );
                    by_buffer.min(abr.pick(manifest, seg, max_rung))
                }
            }
        }
    }
}

/// BBA-style map from buffer level to rung: 0 at or below the
/// reservoir, the ceiling at or above `reservoir + cushion`, linear in
/// between.
fn buffer_mapped_rung(
    manifest: &Manifest,
    max_rung: Option<usize>,
    buffer_ticks: i64,
    reservoir_ticks: u64,
    cushion_ticks: u64,
) -> usize {
    if manifest.rungs.is_empty() {
        return 0;
    }
    let ceiling = max_rung
        .unwrap_or(manifest.rungs.len() - 1)
        .min(manifest.rungs.len() - 1);
    if buffer_ticks <= reservoir_ticks as i64 {
        return 0;
    }
    let above = (buffer_ticks - reservoir_ticks as i64) as f64;
    let frac = (above / cushion_ticks.max(1) as f64).min(1.0);
    ((frac * ceiling as f64).floor() as usize).min(ceiling)
}

/// Where a live session enters the stream, shared by the
/// transport-level live session and the fluid live simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinMode {
    /// Join at the newest published segment (lowest latency, no
    /// run-up buffer beyond what pacing allows).
    LiveEdge,
    /// Join at the DVR window start (highest latency, the whole window
    /// available to buffer ahead).
    DvrStart,
}

/// Session configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Transport configuration.
    pub tcp: TcpConfig,
    /// Access-link conditions.
    pub link: LinkConfig,
    /// Seed for the link's loss process.
    pub seed: u64,
    /// Segments buffered before playback starts (the jitter buffer).
    pub startup_segments: usize,
    /// Cap (or pin, with `Some(0)`) the reachable rung.
    pub max_rung: Option<usize>,
    /// License verification key for sealed titles.
    pub verification_key: Option<Vec<u8>>,
    /// Transport-failure retry discipline for every fetch leg of a VOD
    /// or live session (manifest, license, live refreshes, segments):
    /// each failed attempt backs off per the policy and re-draws the
    /// link's loss randomness. The default makes a single attempt — no
    /// retries — so legacy sessions fail exactly as before.
    pub retry: RetryPolicy,
    /// Rung-selection strategy. The default ([`AbrStrategy::Ewma`]) is
    /// the pre-PR-10 throughput controller, bit-identical.
    pub abr: AbrStrategy,
    /// Optional bandwidth/loss schedule for the access link, walked on
    /// the session clock on every route: each viewer leg starts the
    /// trace at the tick the session reaches it, after any cache fill
    /// (`now + fill_ticks`).
    pub trace: Option<LinkTrace>,
}

impl Default for SessionConfig {
    /// Default transport and link, 2-segment jitter buffer, free rung
    /// choice, no DRM, EWMA ABR, no trace.
    fn default() -> Self {
        Self {
            tcp: TcpConfig::default(),
            link: LinkConfig::default(),
            seed: 1,
            startup_segments: 2,
            max_rung: None,
            verification_key: None,
            retry: RetryPolicy::default(),
            abr: AbrStrategy::default(),
            trace: None,
        }
    }
}

/// Errors running a session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// A fetch failed at the transport or server level.
    Fetch(FetchError),
    /// The manifest did not parse.
    Manifest(&'static str),
    /// The title is sealed but no verification key was configured.
    SealedWithoutKey,
    /// A live session was pointed at a VOD manifest (no live window).
    NotLive,
    /// The live manifest stopped advancing: consecutive refreshes that
    /// brought no new live edge spent the refresh policy's budget (e.g.
    /// an edge serving stale-if-error through an endless origin
    /// outage).
    LiveStalled,
    /// The license failed verification.
    License(LicenseParseError),
    /// A segment arrived damaged: its length differs from the one its
    /// manifest entry lists, or it does not demux to a video stream.
    DamagedSegment {
        /// The segment's sequence: its manifest index for VOD, its
        /// channel sequence for live.
        seq: u64,
        /// The rung it was fetched at.
        rung: usize,
    },
}

impl core::fmt::Display for SessionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SessionError::Fetch(e) => write!(f, "fetch failed: {e}"),
            SessionError::Manifest(what) => write!(f, "bad manifest: {what}"),
            SessionError::SealedWithoutKey => {
                f.write_str("title is sealed and no verification key is configured")
            }
            SessionError::NotLive => f.write_str("manifest has no live window"),
            SessionError::LiveStalled => {
                f.write_str("live manifest stopped advancing (stale past the refresh budget)")
            }
            SessionError::License(e) => write!(f, "license rejected: {e:?}"),
            SessionError::DamagedSegment { seq, rung } => {
                write!(f, "segment {seq} (rung {rung}) arrived damaged")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<FetchError> for SessionError {
    fn from(e: FetchError) -> Self {
        SessionError::Fetch(e)
    }
}

/// One fetched segment's record.
#[derive(Debug, Clone)]
pub struct SegmentRecord {
    /// Sequence of the segment: its manifest index for VOD, its
    /// channel sequence for live.
    pub seq: u64,
    /// Rung the controller chose.
    pub rung: usize,
    /// Ticks the fetch took.
    pub ticks: u64,
    /// Wire bits delivered.
    pub bits: u64,
    /// Source frames carried.
    pub frames: usize,
    /// Live latency at completion: session clock minus the segment's
    /// publish tick (zero for VOD).
    pub latency_ticks: u64,
    /// The demuxed (and unsealed) segment.
    pub segment: Segment,
}

/// What one session experienced.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Ticks from session start to first rendered frame.
    pub startup_delay_ticks: u64,
    /// Post-startup playback stalls.
    pub rebuffer_events: u32,
    /// Total stalled ticks.
    pub rebuffer_ticks: u64,
    /// Rung changes after the first segment.
    pub rung_switches: u32,
    /// Transport-failure retries that eventually succeeded, summed
    /// over all fetch legs (zero under the default no-retry policy).
    pub fetch_retries: u32,
    /// Ticks spent backing off between retry attempts (included in
    /// `total_ticks`, and drained from the playout buffer like any
    /// other wall time).
    pub retry_backoff_ticks: u64,
    /// Per-segment records, in playout order.
    pub segments: Vec<SegmentRecord>,
    /// Total simulated ticks from tune-in: every fetch, retry backoff
    /// and live wait.
    pub total_ticks: u64,
    /// Total wire bits delivered.
    pub delivered_bits: u64,
}

impl SessionReport {
    /// Mean rung index across fetched segments.
    #[must_use]
    pub fn mean_rung(&self) -> f64 {
        if self.segments.is_empty() {
            0.0
        } else {
            self.segments.iter().map(|s| s.rung as f64).sum::<f64>() / self.segments.len() as f64
        }
    }

    /// Delivered bits per tick over the whole session.
    #[must_use]
    pub fn goodput_bits_per_tick(&self) -> f64 {
        self.delivered_bits as f64 / self.total_ticks.max(1) as f64
    }
}

/// Runs one viewer session against a title published on `server`,
/// through the cache chain `nodes` (viewer-facing node first; empty for
/// the direct path). Every object — manifest, license, segments — rides
/// the same route, so caches are transparent to viewers.
///
/// # Errors
///
/// Returns [`SessionError`] on transport failure, manifest/license
/// problems, an unreachable parent on a cold object, or a damaged
/// segment.
pub fn run_session(
    server: &ContentServer,
    nodes: &mut [&mut CacheNode],
    title: &str,
    config: &SessionConfig,
) -> Result<SessionReport, SessionError> {
    run_session_with(
        |name, leg, now| fetch_object(server, nodes, name, None, config, leg, now),
        title,
        config,
    )
}

/// [`run_session`] through one edge. Kept because the benchmark harness
/// in `perfbench/` calls it by this name.
///
/// # Errors
///
/// As [`run_session`].
pub fn run_session_via_edge(
    origin: &ContentServer,
    edge: &mut CacheNode,
    title: &str,
    config: &SessionConfig,
) -> Result<SessionReport, SessionError> {
    run_session(origin, &mut [edge], title, config)
}

/// [`run_session`] through an edge over a shield. Kept because the
/// benchmark harness in `perfbench/` calls it by this name.
///
/// # Errors
///
/// As [`run_session`].
pub fn run_session_via_tier(
    origin: &ContentServer,
    shield: &mut CacheNode,
    edge: &mut CacheNode,
    title: &str,
    config: &SessionConfig,
) -> Result<SessionReport, SessionError> {
    run_session(origin, &mut [edge, shield], title, config)
}

/// The one route both session kinds fetch through: the cache chain
/// `nodes` in front of `server`, then the viewer leg over the access
/// link, starting `fill_ticks` after `now`. `leg` numbers the fetch for
/// its loss seed; `mutable` is `Some(now)` for the live manifest.
fn fetch_object(
    server: &ContentServer,
    nodes: &mut [&mut CacheNode],
    name: &str,
    mutable: Option<u64>,
    config: &SessionConfig,
    leg: u64,
    now: u64,
) -> Result<(Vec<u8>, u64), FetchError> {
    CacheNode::fetch(nodes, server, name, mutable, |source, fill_ticks| {
        fetch_traced(
            source,
            name,
            config.tcp,
            config.link,
            config.trace.as_ref(),
            now + fill_ticks,
            config.seed.wrapping_add(leg),
        )
    })
}

/// Parses manifest bytes, folding every ladder error into the
/// session-level manifest error.
fn parse_manifest(bytes: &[u8]) -> Result<Manifest, SessionError> {
    Manifest::from_bytes(bytes).map_err(|e| match e {
        LadderError::Manifest(what) => SessionError::Manifest(what),
        _ => SessionError::Manifest("unparseable"),
    })
}

/// Salt mixed into the leg number per retry attempt, so attempt `k` of
/// a leg draws link randomness distinct from attempt `k - 1` (and from
/// every other leg's attempts) instead of deterministically replaying
/// the loss pattern that just failed. Attempt 0 leaves the leg number
/// untouched, keeping no-retry runs bit-identical to the pre-retry
/// engine.
const ATTEMPT_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The session engine both kinds drive, over a fetch function `F` (the
/// route, or a test's fault injector) called as `(name, leg, now)`,
/// `now` being the session clock when the attempt starts so a traced
/// link schedule can be walked. It owns the clock, every fetch leg
/// through one retry loop, the license, the ABR controller, the
/// playout buffer and the report it fills in. Each session kind only
/// says which segment comes next.
struct Engine<'c, F> {
    fetch: F,
    config: &'c SessionConfig,
    start_tick: u64,
    clock: u64,
    /// Loss-seed number of the next fetch leg.
    leg: u64,
    content_key: Option<Key>,
    abr: AbrController,
    /// Playout buffer level; once playback starts, every tick of wall
    /// time (fetches, retry backoff, live waits) drains it.
    buffer_ticks: i64,
    playing: bool,
    /// Segments buffered before playback starts.
    startup_after: usize,
    report: SessionReport,
}

impl<'c, F> Engine<'c, F>
where
    F: FnMut(&str, u64, u64) -> Result<(Vec<u8>, u64), FetchError>,
{
    /// A session tuning in at `start_tick`.
    fn new(fetch: F, config: &'c SessionConfig, start_tick: u64) -> Self {
        Self {
            fetch,
            config,
            start_tick,
            clock: start_tick,
            leg: 0,
            content_key: None,
            abr: AbrController::default(),
            buffer_ticks: 0,
            playing: false,
            startup_after: 1,
            report: SessionReport {
                startup_delay_ticks: 0,
                rebuffer_events: 0,
                rebuffer_ticks: 0,
                rung_switches: 0,
                fetch_retries: 0,
                retry_backoff_ticks: 0,
                segments: Vec::new(),
                total_ticks: 0,
                delivered_bits: 0,
            },
        }
    }

    /// The session will play `segments` segments: playback starts once
    /// `startup_segments` of them (at least one, at most all) are
    /// buffered.
    fn plan(&mut self, segments: usize) {
        self.startup_after = self.config.startup_segments.clamp(1, segments.max(1));
        self.report.segments.reserve(segments);
    }

    /// Wall time passes: the clock advances and, once playing, the
    /// buffer drains; running dry is a rebuffer.
    fn wait(&mut self, ticks: u64) {
        self.clock = self.clock.saturating_add(ticks);
        if self.playing {
            self.buffer_ticks = self.buffer_ticks.saturating_sub_unsigned(ticks);
            if self.buffer_ticks < 0 {
                self.report.rebuffer_events += 1;
                self.report.rebuffer_ticks = self
                    .report
                    .rebuffer_ticks
                    .saturating_add(self.buffer_ticks.unsigned_abs());
                self.buffer_ticks = 0;
            }
        }
    }

    /// Fetches `name` as the next leg. A transport failure retries under
    /// [`SessionConfig::retry`]: each retry backs off (wall time like any
    /// other) and re-issues the leg with an attempt-salted leg number.
    /// Returns the bytes and the transfer ticks; only those feed the
    /// ABR's throughput estimate.
    fn fetch(&mut self, name: &str) -> Result<(Vec<u8>, u64), SessionError> {
        let ((bytes, ticks), failures, waited) = self.config.retry.run(|failures, waited| {
            let attempt = self
                .leg
                .wrapping_add(u64::from(failures).wrapping_mul(ATTEMPT_SALT));
            (self.fetch)(name, attempt, self.clock.saturating_add(waited))
        })?;
        self.leg += 1;
        self.report.fetch_retries += failures;
        self.report.retry_backoff_ticks = self.report.retry_backoff_ticks.saturating_add(waited);
        self.report.delivered_bits += (bytes.len() * 8) as u64;
        self.wait(ticks.saturating_add(waited));
        Ok((bytes, ticks))
    }

    /// Fetches and parses the title's manifest.
    fn manifest(&mut self, title: &str) -> Result<Manifest, SessionError> {
        let (bytes, _) = self.fetch(&Manifest::manifest_object(title))?;
        parse_manifest(&bytes)
    }

    /// Fetches and verifies the license when the title is sealed.
    fn license(&mut self, title: &str, manifest: &Manifest) -> Result<(), SessionError> {
        if manifest.sealed {
            let key = self
                .config
                .verification_key
                .as_deref()
                .ok_or(SessionError::SealedWithoutKey)?;
            let (bytes, _) = self.fetch(&Manifest::license_object(title))?;
            let license = License::unseal(&bytes, key).map_err(SessionError::License)?;
            self.content_key = Some(license.content_key);
        }
        Ok(())
    }

    /// Plays entry `idx` of `manifest`, sequence `seq` of the title: the
    /// ABR picks its rung, then fetch, size check, unseal, demux and
    /// buffer. A live segment's latency runs from its `published` tick.
    fn play(
        &mut self,
        manifest: &Manifest,
        idx: usize,
        seq: u64,
        published: Option<u64>,
    ) -> Result<(), SessionError> {
        let config = self.config;
        let rung = config
            .abr
            .pick(&self.abr, manifest, idx, config.max_rung, self.buffer_ticks);
        if self
            .report
            .segments
            .last()
            .is_some_and(|prev| prev.rung != rung)
        {
            self.report.rung_switches += 1;
        }
        let entry = &manifest.rungs[rung].segments[idx];
        let (mut bytes, ticks) = self.fetch(&manifest.segment_object(rung, idx))?;
        let damaged = SessionError::DamagedSegment { seq, rung };
        if bytes.len() != entry.bytes {
            return Err(damaged);
        }
        self.abr.observe((bytes.len() * 8) as f64, ticks as f64);
        if let Some(key) = &self.content_key {
            XteaCtr::new(key, entry.nonce).apply(&mut bytes);
        }
        let segment = demux_segment(&bytes);
        if segment.video_es.is_none() {
            return Err(damaged);
        }
        self.buffer_ticks += (entry.frames as u64 * manifest.ticks_per_frame) as i64;
        self.report.segments.push(SegmentRecord {
            seq,
            rung,
            ticks,
            bits: (bytes.len() * 8) as u64,
            frames: entry.frames,
            latency_ticks: published.map_or(0, |at| self.clock.saturating_sub(at)),
            segment,
        });
        if !self.playing && self.report.segments.len() >= self.startup_after {
            self.playing = true;
            self.report.startup_delay_ticks = self.clock - self.start_tick;
        }
        Ok(())
    }

    fn finish(mut self) -> SessionReport {
        self.report.total_ticks = self.clock - self.start_tick;
        self.report
    }
}

/// A VOD session: every entry of the manifest, in order. Legs number
/// the manifest 0, the license 1 and segment `i` at `2 + i`, so leg 1
/// stays reserved when the title is not sealed.
fn run_session_with(
    fetch_object: impl FnMut(&str, u64, u64) -> Result<(Vec<u8>, u64), FetchError>,
    title: &str,
    config: &SessionConfig,
) -> Result<SessionReport, SessionError> {
    let mut session = Engine::new(fetch_object, config, 0);
    let manifest = session.manifest(title)?;
    session.license(title, &manifest)?;
    session.leg = 2;
    let n = manifest.segment_count();
    session.plan(n);
    for seg in 0..n {
        session.play(&manifest, seg, seg as u64, None)?;
    }
    Ok(session.finish())
}

/// Live-session configuration: the base session knobs plus where to
/// join and how long to stay (a linear channel has no natural end).
#[derive(Debug, Clone)]
pub struct LiveSessionConfig {
    /// Transport/link/buffer/ABR/retry knobs shared with VOD sessions.
    pub base: SessionConfig,
    /// Join at the live edge or the DVR window start.
    pub join: JoinMode,
    /// Segments to play before leaving.
    pub segments_to_play: usize,
    /// When this viewer tunes in, on the channel's global timeline (a
    /// later viewer of the same [`LiveOrigin`] must start at or after
    /// the origin's current tick — the channel never rewinds).
    pub start_tick: u64,
    /// How the viewer waits on a manifest that does not list the wanted
    /// sequence yet. After a refresh that moved the live edge (but not
    /// far enough) it waits `base_backoff_ticks`; after the `k`-th
    /// consecutive refresh that did not, it waits
    /// [`RetryPolicy::backoff_before`]`(k)`, and once the policy's
    /// budget is spent the session errors with
    /// [`SessionError::LiveStalled`]. That bounds a session whose edge
    /// can only serve a stale manifest forever — e.g. stale-if-error
    /// through an endless origin outage. A backoff-shaped policy polls
    /// gently through an outage instead of hammering a fixed interval.
    pub refresh: RetryPolicy,
}

impl Default for LiveSessionConfig {
    /// Default session knobs, live-edge join, 8 segments, tuning in at
    /// channel start, a flat 50-tick refresh poll giving up after 64
    /// progress-free refreshes.
    fn default() -> Self {
        Self {
            base: SessionConfig::default(),
            join: JoinMode::LiveEdge,
            segments_to_play: 8,
            start_tick: 0,
            refresh: RetryPolicy {
                max_attempts: 65,
                base_backoff_ticks: 50,
                max_backoff_ticks: 50,
                jitter_ticks: 0,
                seed: 0,
            },
        }
    }
}

/// What one live session experienced: the VOD report (its segment
/// records carry channel sequences and live latency) plus the live trio
/// — manifest refreshes, stale-manifest stall time, and window skips
/// (content lost to DVR expiry).
#[derive(Debug, Clone)]
pub struct LiveSessionReport {
    /// Everything a VOD session reports; ticks count from the tune-in.
    pub base: SessionReport,
    /// Manifest re-fetches (the live window moved past our copy).
    pub manifest_refreshes: u32,
    /// Ticks spent waiting on a manifest that did not reach the wanted
    /// sequence yet (live-edge pacing stalls).
    pub stale_manifest_ticks: u64,
    /// Segments lost to DVR-window expiry (skipped forward).
    pub window_skips: u64,
}

impl LiveSessionReport {
    /// Mean live latency across fetched segments.
    #[must_use]
    pub fn mean_live_latency_ticks(&self) -> f64 {
        let segments = &self.base.segments;
        if segments.is_empty() {
            0.0
        } else {
            segments.iter().map(|s| s.latency_ticks as f64).sum::<f64>() / segments.len() as f64
        }
    }

    /// Worst single-segment live latency.
    #[must_use]
    pub fn max_live_latency_ticks(&self) -> u64 {
        self.base
            .segments
            .iter()
            .map(|s| s.latency_ticks)
            .max()
            .unwrap_or(0)
    }
}

/// Runs one live viewer against a [`LiveOrigin`] publishing into
/// `server`, through the cache chain `nodes` (empty for the direct
/// path). The session's simulated clock *drives* the origin: before
/// every manifest fetch the origin advances to the current tick, so
/// publishes, window expiry, and the viewer's downloads share one
/// timeline. Segments ride the chain as immutable (but expirable)
/// objects, the manifest as a mutable TTL'd one, and every window-expiry
/// purge invalidates every node on the chain.
///
/// # Errors
///
/// Returns [`SessionError`] on transport failure, a manifest without a
/// live window, license problems, an unreachable parent on a cold
/// object, a damaged segment, or a manifest that stopped advancing.
pub fn run_live_session(
    server: &mut ContentServer,
    origin: &mut LiveOrigin,
    nodes: &mut [&mut CacheNode],
    title: &str,
    config: &LiveSessionConfig,
) -> Result<LiveSessionReport, SessionError> {
    let ticks_per_segment = origin.ticks_per_segment();
    let manifest_object = Manifest::manifest_object(title);
    run_live_session_with(
        |name, leg, now| {
            // The origin advances only at manifest fetches (lazy
            // expiry): everything the manifest in hand lists is still
            // on the server, so a validated sequence can never race its
            // own expiry into a failed fetch.
            let mutable = if name == manifest_object {
                expire(nodes, &origin.advance_to(server, now).expired);
                Some(now)
            } else {
                None
            };
            fetch_object(server, nodes, name, mutable, &config.base, leg, now)
        },
        ticks_per_segment,
        title,
        config,
    )
}

/// A live session: a refresh gate in front of each segment, over a
/// channel publishing sequence `s` at `s * ticks_per_segment`. Legs
/// number every fetch in order.
fn run_live_session_with(
    fetch_object: impl FnMut(&str, u64, u64) -> Result<(Vec<u8>, u64), FetchError>,
    ticks_per_segment: u64,
    title: &str,
    config: &LiveSessionConfig,
) -> Result<LiveSessionReport, SessionError> {
    let refresh = &config.refresh;
    let mut session = Engine::new(fetch_object, &config.base, config.start_tick);
    let mut manifest = session.manifest(title)?;
    let mut window = manifest.live.ok_or(SessionError::NotLive)?;
    session.license(title, &manifest)?;
    session.plan(config.segments_to_play);
    let manifest_object = Manifest::manifest_object(title);
    let mut next_seq = match config.join {
        JoinMode::LiveEdge => window.live_seq,
        JoinMode::DvrStart => window.first_seq,
    };
    let mut manifest_refreshes = 0u32;
    let mut stale_manifest_ticks = 0u64;
    let mut window_skips = 0u64;

    for _ in 0..config.segments_to_play {
        // Bring the manifest window up to (or past) the wanted
        // sequence: skip forward over expired content, refresh when the
        // copy is stale, and wait while the origin itself has not
        // published it yet.
        let mut stale_refreshes = 0u32;
        loop {
            if next_seq < window.first_seq {
                // Too slow: the segment expired before we asked.
                window_skips += window.first_seq - next_seq;
                next_seq = window.first_seq;
            }
            if next_seq <= window.live_seq {
                break;
            }
            let (bytes, _) = session.fetch(&manifest_object)?;
            manifest_refreshes += 1;
            manifest = parse_manifest(&bytes)?;
            let fresh = manifest.live.ok_or(SessionError::NotLive)?;
            let progressed = fresh.live_seq > window.live_seq;
            let stalled = fresh.live_seq < next_seq;
            window = fresh;
            if stalled {
                // Not published yet (or an edge served a within-TTL
                // stale copy). A refresh that progressed restarts the
                // backoff ladder at its base; progress-free refreshes
                // climb it until the budget is spent.
                stale_refreshes = if progressed { 0 } else { stale_refreshes + 1 };
                let wait = if stale_refreshes == 0 {
                    refresh.base_backoff_ticks
                } else {
                    refresh
                        .backoff_before(stale_refreshes)
                        .ok_or(SessionError::LiveStalled)?
                };
                session.wait(wait);
                stale_manifest_ticks += wait;
            }
        }
        let idx = (next_seq - window.first_seq) as usize;
        let published = next_seq.saturating_mul(ticks_per_segment);
        session.play(&manifest, idx, next_seq, Some(published))?;
        next_seq += 1;
    }

    Ok(LiveSessionReport {
        base: session.finish(),
        manifest_refreshes,
        stale_manifest_ticks,
        window_skips,
    })
}

/// The origin unpublished `names` (DVR-window expiry): purge them from
/// every node on the chain.
fn expire(nodes: &mut [&mut CacheNode], names: &[String]) {
    for node in nodes.iter_mut() {
        for name in names {
            node.invalidate(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::ladder::{encode_ladder, publish_ladder, seal_ladder, LadderConfig};
    use drm::playback::LicenseAuthority;
    use drm::{Right, TitleId};
    use video::synth::SequenceGen;

    fn published(seal: bool) -> (ContentServer, LicenseAuthority) {
        let frames = SequenceGen::new(12).panning_sequence(48, 32, 12, 1, 0);
        let cfg = LadderConfig {
            targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
            gop: 4,
            ..Default::default()
        };
        let mut ladder = encode_ladder("movie", &frames, &cfg).unwrap();
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
        (server, authority)
    }

    #[test]
    fn clear_session_plays_every_segment() {
        let (server, _) = published(false);
        let report = run_session(&server, &mut [], "movie", &SessionConfig::default()).unwrap();
        assert_eq!(report.segments.len(), 3);
        assert!(report.startup_delay_ticks > 0);
        assert_eq!(report.rebuffer_events, 0, "clean fast link must not stall");
        // Every fetched segment decodes.
        for rec in &report.segments {
            let dec = video::decode(rec.segment.video_es.as_ref().unwrap()).unwrap();
            assert_eq!(dec.frames.len(), rec.frames);
        }
    }

    #[test]
    fn abr_climbs_on_a_fast_link() {
        let (server, _) = published(false);
        let report = run_session(&server, &mut [], "movie", &SessionConfig::default()).unwrap();
        assert_eq!(
            report.segments[0].rung, 0,
            "sessions start on the safe rung"
        );
        assert!(
            report.segments.last().unwrap().rung > 0,
            "fast link should let the controller switch up"
        );
        assert!(report.rung_switches >= 1);
    }

    #[test]
    fn pinned_rung_never_switches() {
        let (server, _) = published(false);
        let cfg = SessionConfig {
            max_rung: Some(0),
            ..Default::default()
        };
        let report = run_session(&server, &mut [], "movie", &cfg).unwrap();
        assert!(report.segments.iter().all(|s| s.rung == 0));
        assert_eq!(report.rung_switches, 0);
    }

    #[test]
    fn sealed_title_requires_key_and_then_plays() {
        let (server, authority) = published(true);
        let err = run_session(&server, &mut [], "movie", &SessionConfig::default()).unwrap_err();
        assert_eq!(err, SessionError::SealedWithoutKey);
        let cfg = SessionConfig {
            verification_key: Some(authority.verification_key().to_vec()),
            ..Default::default()
        };
        let report = run_session(&server, &mut [], "movie", &cfg).unwrap();
        for rec in &report.segments {
            let dec = video::decode(rec.segment.video_es.as_ref().unwrap()).unwrap();
            assert_eq!(dec.frames.len(), rec.frames);
        }
    }

    #[test]
    fn wrong_verification_key_is_refused() {
        let (server, _) = published(true);
        let cfg = SessionConfig {
            verification_key: Some(b"impostor".to_vec()),
            ..Default::default()
        };
        assert!(matches!(
            run_session(&server, &mut [], "movie", &cfg).unwrap_err(),
            SessionError::License(_)
        ));
    }

    #[test]
    fn missing_title_is_a_fetch_error() {
        let (server, _) = published(false);
        assert!(matches!(
            run_session(&server, &mut [], "nope", &SessionConfig::default()).unwrap_err(),
            SessionError::Fetch(FetchError::Server(_))
        ));
    }

    #[test]
    fn lossy_link_still_plays_and_is_deterministic() {
        let (server, _) = published(false);
        let cfg = SessionConfig {
            link: LinkConfig::default().with_loss(0.1),
            max_rung: Some(0),
            ..Default::default()
        };
        let a = run_session(&server, &mut [], "movie", &cfg).unwrap();
        let b = run_session(&server, &mut [], "movie", &cfg).unwrap();
        assert_eq!(a.total_ticks, b.total_ticks);
        assert_eq!(a.startup_delay_ticks, b.startup_delay_ticks);
        assert_eq!(a.segments.len(), 3);
    }

    #[test]
    fn transport_retries_recover_flaky_legs() {
        use netstack::tcplite::TcpError;
        use std::collections::HashMap;

        let (server, _) = published(false);
        let cfg = SessionConfig {
            max_rung: Some(0),
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff_ticks: 40,
                max_backoff_ticks: 160,
                jitter_ticks: 0,
                seed: 7,
            },
            ..Default::default()
        };
        // Every object's first two attempts die on the wire; the third
        // succeeds. Each attempt must arrive under a distinct leg
        // number (the salted re-draw of link randomness).
        let mut attempts: HashMap<String, Vec<u64>> = HashMap::new();
        let report = run_session_with(
            |name, leg, _now| {
                let seen = attempts.entry(name.to_string()).or_default();
                seen.push(leg);
                if seen.len() <= 2 {
                    return Err(FetchError::Transport(TcpError::Timeout));
                }
                let r = fetch_traced(
                    &server,
                    name,
                    cfg.tcp,
                    cfg.link,
                    None,
                    0,
                    cfg.seed.wrapping_add(leg),
                )?;
                Ok((r.data, r.ticks))
            },
            "movie",
            &cfg,
        )
        .expect("retries must carry the session through");
        assert_eq!(report.segments.len(), 3);
        // 4 objects (manifest + 3 segments) x 2 recovered failures,
        // each leg backing off 40 + 80 ticks.
        assert_eq!(report.fetch_retries, 8);
        assert_eq!(report.retry_backoff_ticks, 4 * 120);
        for legs in attempts.values() {
            assert_eq!(legs.len(), 3);
            assert!(
                legs[0] != legs[1] && legs[1] != legs[2],
                "every attempt must re-salt the leg: {legs:?}"
            );
        }
    }

    #[test]
    fn a_maximal_retry_backoff_saturates_the_session_clock() {
        use netstack::tcplite::TcpError;

        let (server, _) = published(false);
        let cfg = SessionConfig {
            max_rung: Some(0),
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff_ticks: u64::MAX,
                max_backoff_ticks: u64::MAX,
                jitter_ticks: 0,
                seed: 0,
            },
            ..Default::default()
        };
        // Fetches run manifest, then segments 0, 1, 2. The last
        // segment's first attempt dies on the wire once playback has
        // started; its retry lands after the longest wait there is.
        let mut calls = 0;
        let report = run_session_with(
            |name, leg, _now| {
                calls += 1;
                if calls == 4 {
                    return Err(FetchError::Transport(TcpError::Timeout));
                }
                let r = fetch_traced(&server, name, cfg.tcp, cfg.link, None, 0, leg)?;
                Ok((r.data, r.ticks))
            },
            "movie",
            &cfg,
        )
        .expect("the retry carries the session through");
        assert_eq!(report.segments.len(), 3);
        assert_eq!(
            (report.fetch_retries, report.retry_backoff_ticks),
            (1, u64::MAX)
        );
        assert_eq!(report.total_ticks, u64::MAX);
        assert_eq!(report.rebuffer_events, 1, "the buffer ran dry");
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_the_transport_error() {
        use netstack::tcplite::TcpError;

        let cfg = SessionConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff_ticks: 10,
                max_backoff_ticks: 10,
                jitter_ticks: 0,
                seed: 0,
            },
            ..Default::default()
        };
        let mut calls = 0u32;
        let err = run_session_with(
            |_, _, _| {
                calls += 1;
                Err(FetchError::Transport(TcpError::Timeout))
            },
            "movie",
            &cfg,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SessionError::Fetch(FetchError::Transport(TcpError::Timeout))
        );
        assert_eq!(calls, 3, "budget spent: exactly max_attempts tries");
    }

    #[test]
    fn default_policy_makes_a_single_attempt() {
        use netstack::tcplite::TcpError;

        let mut calls = 0u32;
        let err = run_session_with(
            |_, _, _| {
                calls += 1;
                Err(FetchError::Transport(TcpError::Timeout))
            },
            "movie",
            &SessionConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SessionError::Fetch(FetchError::Transport(_))));
        assert_eq!(calls, 1, "no-retry default fails fast");
        // And on a clean run the retry counters stay zero.
        let (server, _) = published(false);
        let report = run_session(&server, &mut [], "movie", &SessionConfig::default()).unwrap();
        assert_eq!(report.fetch_retries, 0);
        assert_eq!(report.retry_backoff_ticks, 0);
    }

    /// Appends one TS packet (a copy of the last) to every rung's copy
    /// of segment `seg` of `title` on `server`. The manifest's sizes stay
    /// as published, and the padded segment still demuxes.
    fn pad_segment(server: &mut ContentServer, title: &str, seg: usize) {
        let manifest = Manifest::from_bytes(
            server
                .get(&Manifest::manifest_object(title))
                .expect("manifest published"),
        )
        .expect("manifest parses");
        for rung in 0..manifest.rungs.len() {
            let name = manifest.segment_object(rung, seg);
            let mut bytes = server.get(&name).expect("segment published").to_vec();
            bytes.extend_from_within(bytes.len() - 188..);
            server.publish(name, bytes);
        }
    }

    #[test]
    fn a_segment_longer_than_its_manifest_entry_is_damaged() {
        let (mut server, _) = published(false);
        pad_segment(&mut server, "movie", 1);
        let cfg = SessionConfig::default();
        let direct = run_session(&server, &mut [], "movie", &cfg);
        assert!(
            matches!(
                direct,
                Err(SessionError::DamagedSegment { seq: 1, rung: 2 })
            ),
            "{direct:?}"
        );
        let mut edge = CacheNode::new(CacheConfig::default());
        let mut shield = CacheNode::new(CacheConfig::default());
        let chained = run_session(&server, &mut [&mut edge, &mut shield], "movie", &cfg);
        assert!(
            matches!(
                chained,
                Err(SessionError::DamagedSegment { seq: 1, rung: 2 })
            ),
            "{chained:?}"
        );
    }

    #[test]
    fn session_via_edge_plays_and_warms_the_cache() {
        let (origin, authority) = published(true);
        let mut edge = CacheNode::new(CacheConfig::default());
        let cfg = SessionConfig {
            verification_key: Some(authority.verification_key().to_vec()),
            ..Default::default()
        };
        let cold = run_session(&origin, &mut [&mut edge], "movie", &cfg).unwrap();
        assert_eq!(cold.segments.len(), 3);
        assert!(edge.stats().misses > 0);
        for rec in &cold.segments {
            let dec = video::decode(rec.segment.video_es.as_ref().unwrap()).unwrap();
            assert_eq!(dec.frames.len(), rec.frames);
        }
        // A second viewer pinned to the same rungs rides the warm cache:
        // no new origin bytes, and a faster session.
        let pinned = SessionConfig {
            max_rung: Some(0),
            ..cfg.clone()
        };
        let first_origin_bytes = edge.stats().origin_bytes;
        let a = run_session(&origin, &mut [&mut edge], "movie", &pinned).unwrap();
        let again_origin = edge.stats().origin_bytes;
        let b = run_session(&origin, &mut [&mut edge], "movie", &pinned).unwrap();
        assert_eq!(edge.stats().origin_bytes, again_origin);
        assert!(a.total_ticks >= b.total_ticks || again_origin == first_origin_bytes);
        assert!(b.total_ticks < cold.total_ticks);
    }

    #[test]
    fn warm_edge_serves_through_origin_outage() {
        let (origin, _) = published(false);
        let mut edge = CacheNode::new(CacheConfig::default());
        let cfg = SessionConfig {
            max_rung: Some(0),
            ..Default::default()
        };
        run_session(&origin, &mut [&mut edge], "movie", &cfg).unwrap();
        edge.set_parent_up(false);
        let report = run_session(&origin, &mut [&mut edge], "movie", &cfg).unwrap();
        assert_eq!(report.segments.len(), 3);
        assert_eq!(report.rebuffer_events, 0);
        // A cold title during the outage fails cleanly.
        assert!(matches!(
            run_session(&origin, &mut [&mut edge], "nope", &cfg).unwrap_err(),
            SessionError::Fetch(FetchError::Server(_))
        ));
    }

    #[test]
    fn the_access_link_trace_applies_through_a_cache() {
        let (origin, _) = published(false);
        let mut edge = CacheNode::new(CacheConfig::default());
        let cfg = SessionConfig {
            max_rung: Some(0),
            ..Default::default()
        };
        run_session(&origin, &mut [&mut edge], "movie", &cfg).unwrap();
        // The edge is warm: both viewers below ride the same cache hits,
        // so only the access link differs.
        let untraced = run_session(&origin, &mut [&mut edge], "movie", &cfg).unwrap();
        // Join in the fade (the second phase): the whole session falls
        // inside the trace's slow, lossy stretch.
        let mut fade = LinkTrace::mobile_handoff();
        fade.phases.rotate_left(1);
        let traced = SessionConfig {
            trace: Some(fade),
            ..cfg
        };
        let traced = run_session(&origin, &mut [&mut edge], "movie", &traced).unwrap();
        assert_eq!(edge.stats().misses, 4, "only the first viewer filled");
        assert_ne!(
            traced.total_ticks, untraced.total_ticks,
            "the trace must shape the viewer leg on a cached route"
        );
    }

    /// The flat refresh policy: poll every `ticks`, giving up after 64
    /// progress-free refreshes.
    fn poll(ticks: u64) -> RetryPolicy {
        RetryPolicy {
            base_backoff_ticks: ticks,
            max_backoff_ticks: ticks,
            ..LiveSessionConfig::default().refresh
        }
    }

    /// A live channel: 3-segment wheel, 100-tick publish pace, 4-deep
    /// DVR window, optionally sealed.
    fn live_channel(seal: bool) -> (ContentServer, crate::ladder::LiveOrigin, LicenseAuthority) {
        use crate::ladder::{LiveOrigin, LiveOriginConfig};

        let frames = SequenceGen::new(21).panning_sequence(48, 32, 12, 1, 0);
        let cfg = LadderConfig {
            targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
            gop: 4,
            ..Default::default()
        };
        let mut ladder = encode_ladder("chan", &frames, &cfg).unwrap();
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
                dvr_window_segments: 4,
                ticks_per_segment: 100,
            },
        )
        .unwrap();
        (server, origin, authority)
    }

    #[test]
    fn live_session_plays_sealed_segments_at_the_edge_of_live() {
        let (mut server, mut origin, authority) = live_channel(true);
        let cfg = LiveSessionConfig {
            base: SessionConfig {
                verification_key: Some(authority.verification_key().to_vec()),
                ..Default::default()
            },
            segments_to_play: 6,
            refresh: poll(20),
            ..Default::default()
        };
        let r = run_live_session(&mut server, &mut origin, &mut [], "chan", &cfg).unwrap();
        assert_eq!(r.base.segments.len(), 6);
        // Consecutive sequences from the join point, every one decodes.
        for (i, rec) in r.base.segments.iter().enumerate() {
            assert_eq!(rec.seq, r.base.segments[0].seq + i as u64);
            let dec = video::decode(rec.segment.video_es.as_ref().unwrap()).unwrap();
            assert_eq!(dec.frames.len(), rec.frames);
            assert_eq!(dec.kinds[0], video::FrameKind::Intra, "closed GOP entry");
        }
        // The viewer outpaces the 100-tick publish clock, so it must
        // refresh the manifest and spend time stalled on staleness.
        assert!(r.manifest_refreshes > 0, "live playback must refresh");
        assert!(r.stale_manifest_ticks > 0, "live-edge pacing must stall");
        assert_eq!(r.window_skips, 0, "keeping up means losing nothing");
        // Fetch-after-publish keeps latency within a couple of segment
        // durations.
        assert!(
            r.max_live_latency_ticks() < 300,
            "latency ran away: {}",
            r.max_live_latency_ticks()
        );
        // Determinism: an identical fresh setup replays identically.
        let (mut server2, mut origin2, _) = live_channel(true);
        let r2 = run_live_session(&mut server2, &mut origin2, &mut [], "chan", &cfg).unwrap();
        assert_eq!(r.base.total_ticks, r2.base.total_ticks);
        assert_eq!(r.stale_manifest_ticks, r2.stale_manifest_ticks);
    }

    #[test]
    fn dvr_start_join_trades_latency_for_runway() {
        // Let the channel run before anyone joins: the DVR window is
        // full, so DvrStart has content in hand while LiveEdge waits
        // for fresh publishes.
        let join = |mode| {
            let (mut server, mut origin, _) = live_channel(false);
            origin.advance_to(&mut server, 500); // window [2, 5] of 4
            let cfg = LiveSessionConfig {
                join: mode,
                segments_to_play: 4,
                refresh: poll(20),
                start_tick: 500,
                ..Default::default()
            };
            run_live_session(&mut server, &mut origin, &mut [], "chan", &cfg).unwrap()
        };
        let dvr = join(JoinMode::DvrStart);
        let edge = join(JoinMode::LiveEdge);
        assert!(
            dvr.base.segments[0].seq < edge.base.segments[0].seq,
            "DvrStart enters earlier in the timeline: {} vs {}",
            dvr.base.segments[0].seq,
            edge.base.segments[0].seq
        );
        assert!(
            dvr.stale_manifest_ticks <= edge.stale_manifest_ticks,
            "runway means less waiting on the live edge"
        );
    }

    #[test]
    fn slow_live_viewer_skips_expired_content_and_keeps_playing() {
        use crate::ladder::{LiveOrigin, LiveOriginConfig};

        let frames = SequenceGen::new(22).panning_sequence(48, 32, 12, 1, 0);
        let cfg = LadderConfig {
            targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
            gop: 4,
            ..Default::default()
        };
        let ladder = encode_ladder("chan", &frames, &cfg).unwrap();
        let mut server = ContentServer::new();
        // A hot pace (10 ticks/segment) with a 1-deep window: any
        // viewer slower than the pace keeps losing its next segment.
        let mut origin = LiveOrigin::new(
            ladder,
            LiveOriginConfig {
                dvr_window_segments: 1,
                ticks_per_segment: 10,
            },
        )
        .unwrap();
        let session = LiveSessionConfig {
            base: SessionConfig {
                max_rung: Some(0),
                ..Default::default()
            },
            join: JoinMode::DvrStart,
            segments_to_play: 5,
            start_tick: 0,
            refresh: poll(5),
        };
        let r = run_live_session(&mut server, &mut origin, &mut [], "chan", &session).unwrap();
        assert_eq!(
            r.base.segments.len(),
            5,
            "skipping forward must keep playing"
        );
        assert!(
            r.window_skips > 0,
            "a too-slow viewer must lose content to expiry"
        );
        // Sequences still strictly increase (never replayed, never
        // rewound) even across skips.
        for w in r.base.segments.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn live_session_via_edge_rides_the_cache_and_honours_expiry() {
        let (mut server, mut origin, _) = live_channel(false);
        let mut edge = CacheNode::new(CacheConfig {
            mutable_ttl_ticks: 50,
            ..Default::default()
        });
        let cfg = LiveSessionConfig {
            segments_to_play: 6,
            refresh: poll(20),
            ..Default::default()
        };
        let a = run_live_session(&mut server, &mut origin, &mut [&mut edge], "chan", &cfg).unwrap();
        assert_eq!(a.base.segments.len(), 6);
        let after_a = *edge.stats();
        assert!(after_a.misses > 0, "cold edge fills from the origin");
        assert!(
            after_a.revalidations > 0,
            "manifest refreshes past the TTL must revalidate"
        );
        assert!(
            after_a.invalidations > 0,
            "window expiry must purge cached segments"
        );
        // A second viewer tunes in where the channel now is and wants
        // the DVR window the first viewer's fills already cached.
        let tune_in = origin.publish_tick(origin.live_seq().unwrap());
        let b = run_live_session(
            &mut server,
            &mut origin,
            &mut [&mut edge],
            "chan",
            &LiveSessionConfig {
                join: JoinMode::DvrStart,
                start_tick: tune_in,
                ..cfg
            },
        )
        .unwrap();
        assert_eq!(b.base.segments.len(), 6);
        assert!(
            edge.stats().hits > after_a.hits,
            "the cache must be doing work"
        );
    }

    #[test]
    fn a_live_segment_longer_than_its_manifest_entry_is_damaged() {
        let cfg = LiveSessionConfig {
            segments_to_play: 6,
            refresh: poll(20),
            ..Default::default()
        };
        let padded = || {
            let (server, origin, _) = live_channel(false);
            let mut wheel = origin.wheel().clone();
            for rung in &mut wheel.segments {
                let seg = &mut rung[1];
                seg.extend_from_within(seg.len() - 188..);
            }
            let config = crate::ladder::LiveOriginConfig {
                dvr_window_segments: 4,
                ticks_per_segment: 100,
            };
            (
                server,
                crate::ladder::LiveOrigin::new(wheel, config).unwrap(),
            )
        };
        let (mut server, mut origin) = padded();
        let direct = run_live_session(&mut server, &mut origin, &mut [], "chan", &cfg);
        assert!(
            matches!(
                direct,
                Err(SessionError::DamagedSegment { seq: 1, rung: 2 })
            ),
            "{direct:?}"
        );
        let (mut server, mut origin) = padded();
        let mut edge = CacheNode::new(CacheConfig::default());
        let mut shield = CacheNode::new(CacheConfig::default());
        let chained = run_live_session(
            &mut server,
            &mut origin,
            &mut [&mut edge, &mut shield],
            "chan",
            &cfg,
        );
        assert!(
            matches!(
                chained,
                Err(SessionError::DamagedSegment { seq: 1, rung: 2 })
            ),
            "{chained:?}"
        );
    }

    #[test]
    fn live_expiry_purges_every_node_of_a_two_node_chain() {
        let (mut server, mut origin, _) = live_channel(false);
        let mut edge = CacheNode::new(CacheConfig {
            mutable_ttl_ticks: 50,
            ..Default::default()
        });
        let mut shield = CacheNode::new(CacheConfig {
            mutable_ttl_ticks: 50,
            ..Default::default()
        });
        let cfg = LiveSessionConfig {
            segments_to_play: 6,
            refresh: poll(20),
            ..Default::default()
        };
        let r = run_live_session(
            &mut server,
            &mut origin,
            &mut [&mut edge, &mut shield],
            "chan",
            &cfg,
        )
        .unwrap();
        assert_eq!(r.base.segments.len(), 6);
        for node in [&edge, &shield] {
            let s = node.stats();
            assert!(s.misses > 0, "both tiers fill while cold: {s:?}");
            assert!(
                s.invalidations > 0,
                "window expiry reaches every node: {s:?}"
            );
        }
        // Every shield fill fed an edge fill, so the shield served what
        // the edge pulled.
        assert_eq!(shield.stats().served_bytes, edge.stats().origin_bytes);
    }

    #[test]
    fn endless_origin_outage_stalls_out_instead_of_polling_forever() {
        let (mut server, mut origin, _) = live_channel(false);
        let mut edge = CacheNode::new(CacheConfig {
            mutable_ttl_ticks: 50,
            ..Default::default()
        });
        // Both viewers pinned to rung 0 so the second finds the
        // first's cached objects and reaches the manifest stall (not a
        // cold-segment miss).
        let cfg = LiveSessionConfig {
            base: SessionConfig {
                max_rung: Some(0),
                ..Default::default()
            },
            segments_to_play: 4,
            refresh: poll(20),
            ..Default::default()
        };
        run_live_session(&mut server, &mut origin, &mut [&mut edge], "chan", &cfg)
            .expect("first viewer warms the edge");
        // The edge loses its origin: the cached manifest serves
        // stale-if-error forever and can never advance. A later viewer
        // must hit the refresh budget and error out, not spin.
        edge.set_parent_up(false);
        let tune_in = origin.publish_tick(origin.live_seq().unwrap());
        let err = run_live_session(
            &mut server,
            &mut origin,
            &mut [&mut edge],
            "chan",
            &LiveSessionConfig {
                start_tick: tune_in,
                refresh: RetryPolicy {
                    max_attempts: 9,
                    ..poll(20)
                },
                ..cfg
            },
        )
        .unwrap_err();
        assert_eq!(err, SessionError::LiveStalled);
    }

    #[test]
    fn backoff_refresh_policy_gives_up_cleanly_through_an_endless_outage() {
        let (mut server, mut origin, _) = live_channel(false);
        let mut edge = CacheNode::new(CacheConfig {
            mutable_ttl_ticks: 50,
            ..Default::default()
        });
        let cfg = LiveSessionConfig {
            base: SessionConfig {
                max_rung: Some(0),
                ..Default::default()
            },
            segments_to_play: 4,
            refresh: poll(20),
            ..Default::default()
        };
        run_live_session(&mut server, &mut origin, &mut [&mut edge], "chan", &cfg)
            .expect("first viewer warms the edge");
        edge.set_parent_up(false);
        let tune_in = origin.publish_tick(origin.live_seq().unwrap());
        let err = run_live_session(
            &mut server,
            &mut origin,
            &mut [&mut edge],
            "chan",
            &LiveSessionConfig {
                start_tick: tune_in,
                refresh: RetryPolicy::standard(11),
                ..cfg
            },
        )
        .unwrap_err();
        assert_eq!(err, SessionError::LiveStalled);
    }

    /// The live route of [`run_live_session`] over a direct path, with
    /// the first `failures` attempts of every leg dying on the wire.
    fn flaky_live(
        server: &mut ContentServer,
        origin: &mut LiveOrigin,
        config: &LiveSessionConfig,
        failures: u32,
        calls: &mut u32,
    ) -> Result<LiveSessionReport, SessionError> {
        use netstack::tcplite::TcpError;

        let manifest_object = Manifest::manifest_object("chan");
        let ticks_per_segment = origin.ticks_per_segment();
        let mut streak = 0u32;
        run_live_session_with(
            |name, leg, now| {
                *calls += 1;
                if streak < failures {
                    streak += 1;
                    return Err(FetchError::Transport(TcpError::Timeout));
                }
                streak = 0;
                let mutable = (name == manifest_object).then(|| {
                    origin.advance_to(server, now);
                    now
                });
                fetch_object(server, &mut [], name, mutable, &config.base, leg, now)
            },
            ticks_per_segment,
            "chan",
            config,
        )
    }

    #[test]
    fn live_transport_retries_recover_every_leg() {
        let (mut server, mut origin, authority) = live_channel(true);
        let mut cfg = LiveSessionConfig {
            base: SessionConfig {
                verification_key: Some(authority.verification_key().to_vec()),
                retry: RetryPolicy {
                    max_attempts: 3,
                    base_backoff_ticks: 40,
                    max_backoff_ticks: 160,
                    jitter_ticks: 0,
                    seed: 7,
                },
                ..Default::default()
            },
            segments_to_play: 6,
            refresh: poll(20),
            ..Default::default()
        };
        let mut calls = 0u32;
        let r = flaky_live(&mut server, &mut origin, &cfg, 2, &mut calls)
            .expect("retries must carry the live session through");
        assert_eq!(r.base.segments.len(), 6);
        assert!(r.manifest_refreshes > 0, "refreshes must be among the legs");
        // Manifest, license, every refresh and every segment: two
        // recovered failures each, backing off 40 + 80 ticks.
        let legs = 2 + r.manifest_refreshes + 6;
        assert_eq!(r.base.fetch_retries, 2 * legs);
        assert_eq!(r.base.retry_backoff_ticks, 120 * u64::from(legs));
        assert_eq!(calls, 3 * legs);

        // The default policy makes one attempt and fails fast.
        cfg.base.retry = RetryPolicy::default();
        let (mut server, mut origin, _) = live_channel(true);
        let mut calls = 0u32;
        let err = flaky_live(&mut server, &mut origin, &cfg, 1, &mut calls).unwrap_err();
        assert!(matches!(err, SessionError::Fetch(FetchError::Transport(_))));
        assert_eq!(calls, 1, "no-retry default fails fast");
    }

    #[test]
    fn a_damaged_live_segment_is_named_by_its_channel_sequence() {
        let (server, origin, _) = live_channel(false);
        let mut wheel = origin.wheel().clone();
        // Pad wheel entry 0 of every rung: channel sequences 0, 3, 6, ...
        for rung in &mut wheel.segments {
            let seg = &mut rung[0];
            seg.extend_from_within(seg.len() - 188..);
        }
        let mut origin = LiveOrigin::new(
            wheel,
            crate::ladder::LiveOriginConfig {
                dvr_window_segments: 4,
                ticks_per_segment: 100,
            },
        )
        .unwrap();
        let mut server = server;
        origin.advance_to(&mut server, 400);
        // Tuning in at the live edge (sequence 4), the viewer plays 4
        // and 5, then meets the padded sequence 6 at whatever rung.
        let cfg = LiveSessionConfig {
            start_tick: 400,
            refresh: poll(20),
            ..Default::default()
        };
        let err = run_live_session(&mut server, &mut origin, &mut [], "chan", &cfg).unwrap_err();
        assert!(
            matches!(err, SessionError::DamagedSegment { seq: 6, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn live_session_against_a_vod_manifest_is_refused() {
        let (server, _) = published(false);
        let (_, mut origin, _) = live_channel(false);
        let mut server = server;
        assert_eq!(
            run_live_session(
                &mut server,
                &mut origin,
                &mut [],
                "movie",
                &LiveSessionConfig::default()
            )
            .unwrap_err(),
            SessionError::NotLive
        );
    }

    #[test]
    fn abr_controller_picks_by_budget() {
        let (server, _) = published(false);
        let bytes = fetch_traced(
            &server,
            "movie/manifest",
            TcpConfig::default(),
            LinkConfig::default(),
            None,
            0,
            9,
        )
        .unwrap()
        .data;
        let manifest = Manifest::from_bytes(&bytes).unwrap();
        let mut abr = AbrController::new(0.5, 1.0);
        assert_eq!(abr.pick(&manifest, 0, None), 0, "no history -> lowest");
        abr.observe(1e9, 1.0); // absurdly fast
        assert_eq!(abr.pick(&manifest, 0, None), manifest.rungs.len() - 1);
        assert_eq!(abr.pick(&manifest, 0, Some(1)), 1, "cap respected");
        let mut slow = AbrController::new(0.5, 1.0);
        slow.observe(1.0, 1e9); // glacial
        assert_eq!(slow.pick(&manifest, 0, None), 0);
    }
}
