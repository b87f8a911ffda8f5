//! Deterministic many-session load simulation: one fluid engine for
//! every delivery topology, from a single origin uplink to a shielded,
//! multi-title CDN under faults.
//!
//! The ROADMAP's north star is per-server scale: how many concurrent
//! viewers can the delivery tier feed before quality collapses? Echoing
//! the group-size-threshold result in *Group Size Effect on the Success
//! of Wolves Hunting* (PAPERS.md), per-session returns are flat up to a
//! capacity knee and fall off beyond it — this module measures that
//! knee. Thousands of sessions are interleaved in a single-threaded
//! fluid event loop (no OS threads, no wall clock, every number derived
//! from seeds), each running the same
//! [`AbrController`](crate::session::AbrController) and playout-buffer
//! model as the transport-level single session.
//!
//! A [`Scenario`] names everything one run needs: the [`Catalog`], the
//! [`CdnConfig`] topology, optional [`LiveConfig`] gates, a
//! [`FaultPlan`] (empty for a healthy run) and the [`LoadConfig`].
//! Four functions consume it:
//!
//! * [`simulate`] runs it once and returns a [`CdnLoadReport`];
//! * [`sweep`] runs it at several base populations, optionally fanned
//!   out on a worker pool;
//! * [`knee`] bisects those populations for the capacity knee;
//! * [`curve_knee`] reads the knee off an already-swept curve.
//!
//! Every delivery shape is one topology: [`CdnConfig::single_origin`]
//! is one prewarmed edge with nothing to fill (a lone uplink),
//! [`CdnConfig::flat`] is an [`EdgeTierConfig`] with no shield tier, and
//! the default is the full edge → shield → origin hierarchy. A VOD run
//! is the no-live-gates case, and an empty plan runs the plan-free path
//! bit-identically.

use std::collections::BTreeSet;
use std::sync::Arc;

use mmpool::WorkerPool;
use signal::rng::Xoroshiro128;

use crate::catalog::{Catalog, ObjectTable, ZipfSampler};
use crate::edge::{
    splitmix64, EdgeStats, EdgeTierConfig, FillTable, FluidCache, HashRing, Sharding,
};
use crate::fault::{FaultPlan, FaultSchedule, ResilienceStats};
use crate::ladder::Manifest;
#[cfg(test)]
use crate::session::AbrController;
use crate::session::JoinMode;
use crate::shield::{admit_insert, obj_key_hash, Admission, AdmissionPolicy, TierStats};

/// Virtual points per edge on the failover [`HashRing`]. Enough that
/// per-edge load imbalance stays small at 8 edges without making ring
/// construction noticeable.
pub(crate) const RING_VNODES: usize = 64;

/// Salt mixed into the load seed for ring point placement, so the ring
/// layout is independent of the arrival-time draw stream.
pub(crate) const RING_SALT: u64 = 0x51A6_F00D_CA57_1E55;

/// Salt mixed into the load seed for the *shield* failover ring, so the
/// two rings never share point placement.
pub(crate) const SHIELD_RING_SALT: u64 = 0x5111_E1D0_F00D_CA57;

/// Salt mixed into the fault seed for per-edge shield-failover keys.
pub(crate) const SHIELD_KEY_SALT: u64 = 0x0E06_E25E_11E1_D5A1;

/// Salt mixed into the load seed for per-session title draws, so the
/// popularity stream is independent of arrival times and ring keys.
pub(crate) const TITLE_SALT: u64 = 0xCA7A_1060_0F71_71E5;

/// The title a session at schedule position `i` watches: rank 0 for a
/// single-title catalog (drawing *nothing* — the bit-identity contract
/// with the pre-catalog engine), otherwise a Zipf draw keyed by
/// position, not by RNG-stream order, so title choice never perturbs
/// the arrival draws.
pub(crate) fn title_for(load: &LoadConfig, sampler: Option<&ZipfSampler>, i: usize) -> u32 {
    sampler.map_or(0, |z| {
        z.sample_hash(splitmix64(load.seed ^ TITLE_SALT ^ i as u64)) as u32
    })
}

/// Session churn: load as a *process* rather than a constant
/// population. On top of the base `LoadConfig::sessions` (which still
/// arrive uniformly over the stagger window), churn adds
/// Poisson-style extra arrivals — exponential inter-arrival gaps drawn
/// from the load seed — each optionally departing after an exponential
/// watch time, plus a flash-crowd ramp: a burst of extra viewers
/// arriving over a short window (the 10x spike the edge tier exists to
/// absorb). All draws are seed-deterministic, and the all-zero default
/// is *exactly* the static population: zero churn draws nothing from
/// the RNG, so the VOD reports are bit-identical to the pre-churn
/// engine (equality-pinned in the tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Extra sessions arriving as a Poisson-style process (0 disables).
    pub churn_sessions: usize,
    /// Mean ticks between churn arrivals.
    pub mean_interarrival_ticks: f64,
    /// Mean ticks a churn viewer watches before leaving (0 = watches
    /// to the end like everyone else).
    pub mean_watch_ticks: f64,
    /// Flash crowd: this many extra sessions... (0 disables)
    pub flash_sessions: usize,
    /// ...arrive starting at this tick...
    pub flash_at_tick: u64,
    /// ...spread uniformly over this ramp (0 = all at once).
    pub flash_ramp_ticks: u64,
}

impl Default for ChurnConfig {
    /// No churn: the static population, bit-identical to the
    /// pre-churn engine.
    fn default() -> Self {
        Self {
            churn_sessions: 0,
            mean_interarrival_ticks: 0.0,
            mean_watch_ticks: 0.0,
            flash_sessions: 0,
            flash_at_tick: 0,
            flash_ramp_ticks: 0,
        }
    }
}

/// Live/linear parameters for the fluid simulator. The simulated event
/// is the manifest's segment list published one sequence per
/// `ticks_per_segment`: sequence `s` goes live at tick
/// `(s - head_start) * ticks_per_segment` (sequences at or below
/// `head_start_segments` are live at tick 0 — the channel has already
/// been running), and at most `dvr_window_segments` sequences stay
/// fetchable. Sessions join at the live edge or the DVR start and a
/// too-slow viewer whose next segment expired skips forward.
///
/// The VOD simulators are the degenerate case: a head start covering
/// the whole manifest plus an infinite window makes every gate
/// vacuous, which the tests pin as *exact* report equality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveConfig {
    /// Ticks between sequence publishes (0 derives the natural pace:
    /// first-segment frames × `ticks_per_frame`).
    pub ticks_per_segment: u64,
    /// DVR depth in segments (`u64::MAX` = infinite).
    pub dvr_window_segments: u64,
    /// Sequences already live at tick 0.
    pub head_start_segments: u64,
    /// Where sessions enter the stream.
    pub join: JoinMode,
}

impl Default for LiveConfig {
    /// Natural pace, 8-segment DVR, a fresh channel (only sequence 0
    /// live at tick 0), sessions joining at the live edge.
    fn default() -> Self {
        Self {
            ticks_per_segment: 0,
            dvr_window_segments: 8,
            head_start_segments: 0,
            join: JoinMode::LiveEdge,
        }
    }
}

/// Load-generation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadConfig {
    /// Concurrent viewer sessions.
    pub sessions: usize,
    /// Session arrivals are spread uniformly over this many ticks.
    pub stagger_ticks: u64,
    /// Seed for arrival times (and hash sharding).
    pub seed: u64,
    /// Segments buffered before playback starts.
    pub startup_segments: usize,
    /// Simulation step, ticks (larger = faster, coarser; 0 is treated
    /// as 1).
    pub tick_quantum: u64,
    /// Hard stop.
    pub max_ticks: u64,
    /// Session churn on top of the base population.
    pub churn: ChurnConfig,
}

impl LoadConfig {
    /// Total sessions this load creates: the base population plus
    /// every churn and flash-crowd extra. Reports denominate on this.
    #[must_use]
    pub fn population(&self) -> usize {
        self.sessions + self.churn.churn_sessions + self.churn.flash_sessions
    }
}

impl Default for LoadConfig {
    /// 100 sessions arriving over 1,000 ticks, 2-segment startup buffer,
    /// quantum 4, 10M-tick ceiling, no churn.
    fn default() -> Self {
        Self {
            sessions: 100,
            stagger_ticks: 1_000,
            seed: 7,
            startup_segments: 2,
            tick_quantum: 4,
            max_ticks: 10_000_000,
            churn: ChurnConfig::default(),
        }
    }
}

/// One simulated viewer (quantum-oracle form; the shipping engine
/// aggregates these into counted cohorts — see `calendar`).
#[cfg(test)]
#[derive(Debug, Clone)]
struct SimSession {
    start_tick: u64,
    /// Early departure (churn), if scheduled.
    depart_at: Option<u64>,
    edge: usize,
    abr: AbrController,
    seg: usize,
    rung: usize,
    remaining_bytes: f64,
    fetch_start: u64,
    buffer_ticks: f64,
    fetched: usize,
    started: bool,
    /// Segments to buffer before this session starts playing (the
    /// global knob clamped to what remains after its join point).
    startup_after: usize,
    waiting: bool,
    /// Next segment chosen but not yet requested (live: not published
    /// yet). Never set in VOD mode.
    pending_request: bool,
    playing: bool,
    in_rebuffer: bool,
    startup_ticks: u64,
    rebuffer_events: u32,
    rung_switches: u32,
    rung_sum: u64,
    delivered_bits: u64,
    /// Sum/count/max of per-segment live latency (completion tick
    /// minus publish tick); all zero in VOD mode.
    latency_sum: u64,
    latency_max: u64,
    done_at: Option<u64>,
    /// Reached the end of the title/event (as opposed to departing).
    completed: bool,
}

/// Aggregate result of one load level.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Sessions simulated.
    pub sessions: usize,
    /// Sessions that fetched every segment before `max_ticks`.
    pub completed: usize,
    /// Ticks until the last session finished (or the ceiling).
    pub ticks: u64,
    /// Server-side goodput, bits per tick, over the busy period.
    pub total_goodput_bits_per_tick: f64,
    /// Mean per-session delivered bits per tick of session lifetime.
    pub mean_session_bits_per_tick: f64,
    /// Mean startup delay across sessions that started playing.
    pub mean_startup_ticks: f64,
    /// Sessions that stalled at least once after startup.
    pub rebuffer_sessions: usize,
    /// `rebuffer_sessions / sessions`.
    pub rebuffer_fraction: f64,
    /// Mean rung index across every fetched segment.
    pub mean_rung: f64,
    /// Total rung switches across sessions.
    pub rung_switches: u64,
    /// Sessions that left early (churn departures) instead of playing
    /// to the end.
    pub departed: usize,
}

/// What the live gates observed during one fluid run (all zero for a
/// VOD run).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LiveStats {
    /// Mean live latency over every segment completion: completion
    /// tick minus the segment's publish tick (how far behind the live
    /// edge delivery ran).
    pub mean_latency_ticks: f64,
    /// Worst single-segment live latency.
    pub max_latency_ticks: u64,
    /// Ticks sessions spent blocked on a not-yet-published segment
    /// (live-edge pacing), summed across sessions.
    pub publish_wait_ticks: u64,
    /// Segments skipped because they fell out of the DVR window before
    /// a (too slow) session could fetch them.
    pub window_skips: u64,
}

/// Per-edge entry in an [`EdgeLoadReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeReportEntry {
    /// Sessions sharded onto this edge.
    pub sessions: usize,
    /// What the edge observed.
    pub stats: EdgeStats,
}

/// The edge-tier part of a [`CdnLoadReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeLoadReport {
    /// The session-side aggregate (the same metrics for every
    /// topology, so curves are directly comparable).
    pub load: LoadReport,
    /// Per-edge cache behaviour.
    pub per_edge: Vec<EdgeReportEntry>,
    /// Tier-wide merged stats.
    pub tier: EdgeStats,
    /// Tier-wide hit rate (coalesced waiters count as offloaded).
    pub hit_rate: f64,
    /// Fraction of served bytes that never crossed the origin link.
    pub origin_offload: f64,
}

/// The full hierarchical-CDN topology the fluid simulator can run: an
/// edge tier fronted by a shield (mid-tier) layer, with an optional
/// frequency-based edge-cache admission policy. `shields: 0` is the
/// flat topology — exactly [`EdgeTierConfig`] behavior, bit-identically
/// (the engine never touches the shield code path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdnConfig {
    /// The edge tier (the shield tier sits behind it).
    pub tier: EdgeTierConfig,
    /// Shield caches between the edges and the origin (0 = flat).
    /// Edges home onto shields in contiguous near-equal groups; under
    /// a fault plan, a crashed shield's children fail over across a
    /// shield [`HashRing`].
    pub shields: usize,
    /// Per-shield cache budget, bytes.
    pub shield_cache_capacity_bytes: usize,
    /// Each shield's downlink feeding its child edges' fills, bytes
    /// per tick.
    pub shield_capacity_bytes_per_tick: f64,
    /// Edge-cache admission policy (shields always admit: the tier
    /// exists to hold the union working set).
    pub admission: AdmissionPolicy,
}

impl CdnConfig {
    /// The flat topology: `tier` filling straight from the origin, with
    /// no shield tier in between.
    #[must_use]
    pub fn flat(tier: EdgeTierConfig) -> Self {
        Self {
            tier,
            shields: 0,
            ..Self::default()
        }
    }

    /// One origin server: a single prewarmed edge with an unbounded
    /// cache, so nothing ever fills and every viewer shares its
    /// 4,000 byte/tick uplink max-min-equally (each capped by a
    /// 100 byte/tick access link).
    #[must_use]
    pub fn single_origin() -> Self {
        Self::flat(EdgeTierConfig {
            edges: 1,
            origin_capacity_bytes_per_tick: 0.0,
            ..EdgeTierConfig::default()
        })
    }
}

impl Default for CdnConfig {
    /// The default edge tier behind 4 shields with unbounded caches
    /// and a 4,000 byte/tick downlink each, admitting everything.
    fn default() -> Self {
        Self {
            tier: EdgeTierConfig::default(),
            shields: 4,
            shield_cache_capacity_bytes: usize::MAX,
            shield_capacity_bytes_per_tick: 4_000.0,
            admission: AdmissionPolicy::AdmitAll,
        }
    }
}

/// Result of one [`simulate`] run: the edge-tier report plus
/// per-shield stats, the [`TierStats`] rollup, and the live/resilience
/// ledgers (zero when unused). A degenerate scenario (no sessions, an
/// empty title, a tier that cannot move a byte) reports the default
/// with only `edge.load.sessions` set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CdnLoadReport {
    /// The edge-tier report (session aggregate + per-edge stats). Its
    /// `origin_offload` is the *edge-local* figure — against whatever
    /// parent the edges fill from; `tier.origin_offload()` is the
    /// true-origin figure.
    pub edge: EdgeLoadReport,
    /// Per-shield cache behaviour (`sessions` counts child *edges*).
    pub per_shield: Vec<EdgeReportEntry>,
    /// The two-tier rollup.
    pub tier: TierStats,
    /// `tier.origin_offload()`: fraction of viewer-served bytes that
    /// never crossed the *true* origin link.
    pub origin_offload: f64,
    /// Live-specific aggregates (zero for VOD).
    pub live: LiveStats,
    /// What the faults cost (zero for a plan-free run).
    pub resilience: ResilienceStats,
    /// What the run cost the engine, in its own units of work.
    pub engine: EngineStats,
}

/// The fluid engine's work for one run, in the units it actually
/// spends: cohorts (counted classes of identical sessions) times
/// stepped quanta. Deterministic, so it takes part in report equality;
/// all zero for a degenerate scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Cohorts formed from the arrival schedule.
    pub cohorts: u64,
    /// Most cohorts active in one quantum.
    pub peak_active: u64,
    /// Quanta the engine stepped. The idle jump skips the rest: quanta
    /// in which no cohort is active, or every active cohort is parked
    /// on an unpublished live segment while no fill is in flight and no
    /// fault pressure lasts.
    pub quanta: u64,
    /// Active cohorts (parked ones included) summed over stepped quanta.
    pub cohort_quanta: u64,
    /// Cohort steps that took the full per-cohort path: arrivals,
    /// segment completions, wakes of parked cohorts, waiters on a fill,
    /// cohorts stranded on a down edge, and the cohorts each fault event
    /// flushes out of the lanes. The rest were lane steps or quanta a
    /// parked cohort slept through, both settled in closed form.
    pub full_path_steps: u64,
}

/// Resolved live gates for the fluid engine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LiveSim {
    pub(crate) tps: u64,
    pub(crate) dvr: u64,
    pub(crate) head_start: u64,
    pub(crate) join: JoinMode,
}

impl LiveSim {
    fn resolve(live: &LiveConfig, manifest: &Manifest) -> Self {
        let tps = if live.ticks_per_segment > 0 {
            live.ticks_per_segment
        } else {
            // The same pace rule LiveOrigin resolves, so the fluid
            // gates and the transport-level live session agree.
            manifest.natural_ticks_per_segment()
        };
        Self {
            tps,
            dvr: live.dvr_window_segments,
            head_start: live.head_start_segments,
            join: live.join,
        }
    }

    /// Newest sequence live at `now` (capped at the event's last).
    pub(crate) fn live_seq(&self, now: u64, n_segments: usize) -> u64 {
        (self.head_start.saturating_add(now / self.tps)).min(n_segments as u64 - 1)
    }

    /// Oldest sequence still in the DVR window at `now`.
    pub(crate) fn first_seq(&self, now: u64, n_segments: usize) -> u64 {
        crate::ladder::dvr_window_start(self.live_seq(now, n_segments), self.dvr)
    }

    /// The tick sequence `seq` went (or will go) live.
    pub(crate) fn publish_tick(&self, seq: u64) -> u64 {
        seq.saturating_sub(self.head_start).saturating_mul(self.tps)
    }
}

/// Internal engine parameters, resolved from a [`Scenario`] by
/// [`Scenario::params`].
pub(crate) struct TierParams {
    pub(crate) edges: usize,
    pub(crate) cache_capacity_bytes: usize,
    pub(crate) edge_capacity: f64,
    pub(crate) per_session: f64,
    pub(crate) origin_capacity: f64,
    pub(crate) sharding: Sharding,
    pub(crate) prewarm: bool,
    pub(crate) origin_down_after: Option<u64>,
    /// Shield caches between the edges and the origin; `0` is the flat
    /// topology — structurally the pre-shield code path.
    pub(crate) shields: usize,
    pub(crate) shield_cache_capacity_bytes: usize,
    /// Each shield's downlink to its child edges, bytes per tick.
    pub(crate) shield_capacity: f64,
    /// Edge-cache admission policy (shields always admit).
    pub(crate) admission: AdmissionPolicy,
    /// Zipf exponent for multi-title runs (unused for one title).
    pub(crate) zipf_s: f64,
    pub(crate) live: Option<LiveSim>,
    /// The resolved fault schedule, or `None` for a plan-free run.
    /// Discipline (same as zero-churn): an *empty* resolved plan is
    /// stored as `None`, so the engine's plan-free fast path — and its
    /// bit-identical reports — are structural, not coincidental.
    pub(crate) faults: Option<FaultSchedule>,
}

impl TierParams {
    /// `true` when no session could ever make progress.
    pub(crate) fn degenerate(&self, titles: &[Manifest], load: &LoadConfig) -> bool {
        load.population() == 0
            || titles.is_empty()
            || titles.iter().any(|m| m.segment_count() == 0)
            || self.edges == 0
            || self.edge_capacity.is_nan()
            || self.edge_capacity <= 0.0
            || self.per_session.is_nan()
            || self.per_session <= 0.0
            || (self.shields > 0 && (self.shield_capacity.is_nan() || self.shield_capacity <= 0.0))
            || (titles.len() > 1 && !self.zipf_s.is_finite())
            || self.live.is_some_and(|l| l.tps == 0 || l.dvr == 0)
    }
}

/// One fluid cache node, edge or shield: a [`FluidCache`] over the
/// catalog's dense object ids plus the coalescing table of in-flight
/// parent fills (fluid segments are immutable once published, so a fill
/// is keyed on the object alone). An edge fills from its shield, or from
/// the origin in a flat tier; a shield fills from the origin. What a
/// node does on a request, a re-request and a landed fill is defined
/// here once for both tiers.
pub(crate) struct FluidNode {
    pub(crate) cache: FluidCache,
    pub(crate) fills: FillTable<u32, f64>,
    pub(crate) stats: EdgeStats,
    /// Sessions sharded onto an edge; child edges homed on a shield.
    pub(crate) assigned: usize,
    /// Cache admission state: `None` admits everything, as every
    /// shield does.
    pub(crate) adm: Option<Admission>,
    /// Objects filled this quantum but *rejected* by cache admission:
    /// their waiters still wake and download (serve-through without
    /// caching). Cleared every quantum; always empty under
    /// admit-always, so the legacy path never consults it.
    pub(crate) pass: BTreeSet<u32>,
    /// The tick this node crashed, until it restarts.
    pub(crate) crash_tick: Option<u64>,
}

#[derive(Clone, Copy)]
pub(crate) enum Req {
    Hit,
    /// Waiting on a fill; `true` when this request started it (a state
    /// change the engine's stasis detector must count as progress).
    Wait(bool),
}

impl FluidNode {
    /// A session asks for object `id`: cached → hit; fill in flight →
    /// coalesce onto it; otherwise start a fill. Kept as the quantum
    /// oracle's per-session form of [`FluidNode::request_n`].
    #[cfg(test)]
    fn request(&mut self, id: u32) -> Req {
        if self.cache.touch(id) {
            self.stats.hits += 1;
            Req::Hit
        } else if self.start_fill(id) {
            self.stats.misses += 1;
            Req::Wait(true)
        } else {
            self.stats.coalesced += 1;
            Req::Wait(false)
        }
    }

    /// `n` identical sessions ask for object `id` in a single counted
    /// call — the cohort engine's form of [`FluidNode::request`]. Every
    /// stats ledger advances exactly as `n` per-session requests would
    /// (one fill started at most; the rest coalesce), so the per-edge
    /// counters stay identical to the quantum oracle's. The admission
    /// sketch sees the demand first: every request feeds frequency, hit
    /// or miss. A shield serves an edge fill as one request (`n = 1`).
    ///
    /// `#[inline]`, like [`FluidNode::refill`]: out of line, either one
    /// slowed the cohort engine's full path by ~20% (`live_flash`).
    #[inline]
    pub(crate) fn request_n(&mut self, id: u32, n: u64) -> Req {
        debug_assert!(n > 0, "a cohort request carries at least one session");
        if let Some(a) = self.adm.as_mut() {
            a.record(obj_key_hash(self.cache.objects().key(id)), n);
        }
        if self.cache.touch(id) {
            self.stats.hits += n;
            Req::Hit
        } else if self.start_fill(id) {
            self.stats.misses += 1;
            self.stats.coalesced += n - 1;
            Req::Wait(true)
        } else {
            self.stats.coalesced += n;
            Req::Wait(false)
        }
    }

    /// Starts a fresh fill for `id` as one miss, without consulting
    /// the cache or the admission sketch: the object a waiter's fill
    /// brought in was evicted before it could download, or the fill it
    /// waited on is gone.
    #[inline]
    pub(crate) fn refill(&mut self, id: u32) {
        self.stats.misses += 1;
        self.start_fill(id);
    }

    /// Starts a parent fill of `id`'s bytes unless one is in flight;
    /// `true` when this call started it.
    #[inline]
    fn start_fill(&mut self, id: u32) -> bool {
        let objects = self.cache.objects();
        self.fills.request(id, || objects.bytes(id) as f64)
    }

    /// One quantum of this node's in-flight fills: each one `ready`
    /// admits drains by `dec` bytes, and those that finish land into
    /// `landed`, in id order. A landed object counts as bytes pulled
    /// from the parent and is cached subject to admission; a rejected
    /// one joins the pass set, so its waiters still wake.
    pub(crate) fn drain_fills(
        &mut self,
        dec: f64,
        ready: impl Fn(u32) -> bool,
        landed: &mut Vec<u32>,
    ) {
        let objects = self.cache.objects();
        landed.clear();
        landed.extend(self.fills.iter_mut().filter_map(|(&id, rem)| {
            if !ready(id) {
                return None;
            }
            *rem -= dec;
            (*rem <= completion_eps(objects.bytes(id) as f64)).then_some(id)
        }));
        for &id in landed.iter() {
            self.fills.complete(&id);
            self.stats.origin_bytes += self.cache.objects().bytes(id) as u64;
            if !admit_insert(&mut self.cache, &self.adm, id) {
                self.pass.insert(id);
            }
            self.stats.evictions = self.cache.evictions();
        }
    }
}

/// The epsilon-stable download-completion threshold for a segment of
/// `segment_bytes`: a transfer is complete once its remaining bytes
/// fall *at or below* this, not exactly to `0.0`.
///
/// The hot loop drains `remaining_bytes -= rate * step` once per
/// quantum, and each subtraction can round by half an ulp — over a
/// 10M-tick run that accumulates to ~1e-4 bytes of drift, so a path
/// that advances the same download analytically (`remaining - k *
/// rate * step`, a fused form) could disagree with the iterated path
/// about *which quantum* crossed zero. The epsilon is sized orders of
/// magnitude above the worst accumulated drift and orders of magnitude
/// below a deliverable byte, so both paths agree on every
/// segment-completion tick (regression-pinned at 10M ticks).
pub(crate) fn completion_eps(segment_bytes: f64) -> f64 {
    segment_bytes.max(1.0) * 1e-8
}

/// One exponential(mean) draw in ticks (0 for a disabled mean).
fn exp_ticks(rng: &mut Xoroshiro128, mean: f64) -> u64 {
    if !mean.is_finite() || mean <= 0.0 {
        return 0;
    }
    // 1 - u is in (0, 1], so the log is finite and non-positive.
    (-mean * (1.0 - rng.next_f64()).ln()).round() as u64
}

/// One tier of `count` fluid cache nodes of `capacity_bytes` each over
/// `objects`, prewarmed with every object when `prewarm` is set, each
/// with its own `admission` state. Shared verbatim by the cohort engine
/// and the quantum oracle, and by both tiers: every node of a tier
/// starts from a copy of one prewarmed cache.
///
/// Prewarming inserts objects in id order — title 0 (the most popular)
/// first — so a node too small for the catalog evicts the *head* as the
/// tail arrives and starts out holding the last-inserted, least popular
/// objects that fit.
pub(crate) fn build_tier(
    objects: &Arc<ObjectTable>,
    count: usize,
    capacity_bytes: usize,
    prewarm: bool,
    admission: AdmissionPolicy,
) -> Vec<FluidNode> {
    if count == 0 {
        return Vec::new();
    }
    let mut cache = FluidCache::new(Arc::clone(objects), capacity_bytes);
    if prewarm {
        for id in 0..objects.len() as u32 {
            cache.insert(id);
        }
    }
    (0..count)
        .map(|_| FluidNode {
            cache: cache.clone(),
            fills: FillTable::new(),
            stats: EdgeStats {
                evictions: cache.evictions(),
                ..EdgeStats::default()
            },
            assigned: 0,
            adm: admission.build(),
            pass: BTreeSet::new(),
            crash_tick: None,
        })
        .collect()
}

/// The arrival stream: calls `arrive(start_tick, depart_at)` once per
/// session that will actually simulate, in schedule order, and returns
/// the count of *phantoms*. Cohort formation consumes it as it is
/// drawn; the quantum oracle collects it (`build_schedule`), so both
/// engines see the identical RNG draw sequence.
///
/// The base population draws exactly as the pre-churn engine did (zero
/// churn therefore reproduces it bit-identically); churn and flash
/// arrivals draw afterwards. An exhausted churn schedule terminates
/// the arrival stream *explicitly*: once the clock saturates, no
/// further arrival can ever fall due, so the remaining churn sessions
/// are accounted as phantoms (they count in the report denominator but
/// never enter the simulation) instead of freezing `alive` above zero
/// and spinning the engine to `max_ticks`. A `u64::MAX` stagger or
/// ramp saturates its draw range instead of overflowing it.
pub(crate) fn arrivals(load: &LoadConfig, mut arrive: impl FnMut(u64, Option<u64>)) -> usize {
    let mut rng = Xoroshiro128::new(load.seed);
    let c = load.churn;
    let stagger = load.stagger_ticks.saturating_add(1);
    for _ in 0..load.sessions {
        arrive(rng.below(stagger), None);
    }
    let mut churn_clock = 0u64;
    let mut phantoms = 0usize;
    for drawn in 0..c.churn_sessions {
        match churn_clock.checked_add(exp_ticks(&mut rng, c.mean_interarrival_ticks)) {
            Some(t) if t < u64::MAX => churn_clock = t,
            _ => {
                phantoms = c.churn_sessions - drawn;
                break;
            }
        }
        let depart = (c.mean_watch_ticks > 0.0)
            .then(|| churn_clock.saturating_add(exp_ticks(&mut rng, c.mean_watch_ticks).max(1)));
        arrive(churn_clock, depart);
    }
    let ramp = c.flash_ramp_ticks.saturating_add(1);
    for _ in 0..c.flash_sessions {
        let at = c.flash_at_tick.saturating_add(rng.below(ramp));
        if at == u64::MAX {
            phantoms += 1;
        } else {
            arrive(at, None);
        }
    }
    phantoms
}

/// The whole [`arrivals`] stream as one `(start_tick, depart_at)` per
/// simulated session, plus the phantom count: the quantum oracle's
/// schedule.
#[cfg(test)]
pub(crate) fn build_schedule(load: &LoadConfig) -> (Vec<(u64, Option<u64>)>, usize) {
    let mut schedule = Vec::new();
    let phantoms = arrivals(load, |start_tick, depart_at| {
        schedule.push((start_tick, depart_at));
    });
    (schedule, phantoms)
}

/// The failover ring, when this run needs one: always under
/// [`Sharding::Ring`], and under *any* fault plan (whatever the
/// sharding, re-homed sessions must land deterministically). Shared by
/// both engines so placements match.
pub(crate) fn build_ring(load: &LoadConfig, p: &TierParams) -> Option<HashRing> {
    (p.sharding == Sharding::Ring || p.faults.is_some())
        .then(|| HashRing::new(p.edges, RING_VNODES, load.seed ^ RING_SALT))
}

/// The session key a schedule position hashes to on the failover ring.
/// One canonical mixing so home placement ([`shard_edge`]) and failover
/// routing agree on the key.
pub(crate) fn ring_key(load: &LoadConfig, i: usize) -> u64 {
    splitmix64(load.seed ^ i as u64)
}

/// The edge a session at schedule position `i` is sharded onto. Shared
/// by both engines so cohort membership matches the oracle's routing.
pub(crate) fn shard_edge(
    load: &LoadConfig,
    p: &TierParams,
    i: usize,
    ring: Option<&HashRing>,
) -> usize {
    match p.sharding {
        Sharding::RoundRobin => i % p.edges,
        Sharding::Hash => (splitmix64(load.seed ^ i as u64) % p.edges as u64) as usize,
        Sharding::Ring => ring
            .expect("Sharding::Ring runs always build the ring")
            .route(ring_key(load, i)),
    }
}

/// The sequence a session arriving at `start_tick` joins at, and the
/// startup-buffer depth clamped to what remains after that join point.
pub(crate) fn join_point(
    p: &TierParams,
    load: &LoadConfig,
    start_tick: u64,
    n_segments: usize,
) -> (usize, usize) {
    let join_seq = p.live.map_or(0, |l| match l.join {
        JoinMode::LiveEdge => l.live_seq(start_tick, n_segments),
        JoinMode::DvrStart => l.first_seq(start_tick, n_segments),
    }) as usize;
    let startup_after = load.startup_segments.clamp(1, n_segments - join_seq);
    (join_seq, startup_after)
}

/// The retired per-session quantum engine, kept as the test oracle the
/// cohort engine is equality-pinned against (see `calendar`): it
/// advances *every* arrived session every quantum, which is exactly the
/// O(ticks × population) cost profile the event-calendar rewrite
/// removed — and exactly why it makes a trustworthy reference.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The shared fluid engine. Returns the sessions, the edges, the final
    /// simulation tick, the live-gate aggregates (zero for VOD), and the
    /// count of phantom sessions (arrivals a saturated churn clock could
    /// never schedule — they denominate the report but never simulate).
    fn run_fluid(
        manifest: &Manifest,
        load: &LoadConfig,
        p: &TierParams,
    ) -> (Vec<SimSession>, Vec<FluidNode>, u64, LiveStats, usize) {
        let n_segments = manifest.segment_count();
        let q = load.tick_quantum.max(1);

        let objects = Arc::new(ObjectTable::new(std::slice::from_ref(manifest)));
        let id = |rung: usize, seg: usize| objects.id(0, rung as u32, seg as u32);
        let mut edges = build_tier(
            &objects,
            p.edges,
            p.cache_capacity_bytes,
            p.prewarm,
            AdmissionPolicy::AdmitAll,
        );
        let (schedule, phantoms) = build_schedule(load);

        let ring = build_ring(load, p);
        let mut sessions: Vec<SimSession> = schedule
            .into_iter()
            .enumerate()
            .map(|(i, (start_tick, depart_at))| {
                let edge = shard_edge(load, p, i, ring.as_ref());
                let (join_seq, startup_after) = join_point(p, load, start_tick, n_segments);
                SimSession {
                    start_tick,
                    depart_at,
                    edge,
                    abr: AbrController::default(),
                    seg: join_seq,
                    rung: 0,
                    remaining_bytes: 0.0,
                    fetch_start: start_tick,
                    buffer_ticks: 0.0,
                    fetched: 0,
                    started: false,
                    startup_after,
                    waiting: false,
                    pending_request: false,
                    playing: false,
                    in_rebuffer: false,
                    startup_ticks: 0,
                    rebuffer_events: 0,
                    rung_switches: 0,
                    rung_sum: 0,
                    delivered_bits: 0,
                    latency_sum: 0,
                    latency_max: 0,
                    done_at: None,
                    completed: false,
                }
            })
            .collect();
        for s in &sessions {
            edges[s.edge].assigned += 1;
        }
        let all_arrived_by = sessions.iter().map(|s| s.start_tick).max().unwrap_or(0);

        // Alive-set bookkeeping: a quantum touches only sessions that have
        // arrived and not yet finished. Arrivals pop off a start-tick-sorted
        // cursor, departures off a min-heap, and the per-quantum departure
        // sweep / `arrived` recount over the whole population are gone —
        // the reports are bit-identical to the full-scan engine (golden-
        // pinned in the tests).
        let mut arrival_order: Vec<u32> = (0..sessions.len() as u32).collect();
        arrival_order.sort_by_key(|&i| sessions[i as usize].start_tick);
        let mut next_arrival = 0usize;
        let mut departures: BinaryHeap<Reverse<(u64, u32)>> = sessions
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.depart_at.map(|d| Reverse((d, i as u32))))
            .collect();
        let mut active: BTreeSet<u32> = BTreeSet::new();
        let mut scratch: Vec<u32> = Vec::with_capacity(sessions.len());

        let mut now = 0u64;
        let mut alive = sessions.len();
        let mut downloading = vec![0usize; p.edges];
        let mut last_first_seq = 0u64;
        let mut publish_wait_ticks = 0u64;
        let mut window_skips = 0u64;
        while alive > 0 && now < load.max_ticks {
            // Arrivals due this quantum activate...
            while next_arrival < arrival_order.len() {
                let i = arrival_order[next_arrival];
                if sessions[i as usize].start_tick > now {
                    break;
                }
                active.insert(i);
                next_arrival += 1;
            }
            // ...and churn departures happen on the quantum they fall due.
            while let Some(&Reverse((d, i))) = departures.peek() {
                if d > now {
                    break;
                }
                departures.pop();
                let s = &mut sessions[i as usize];
                if s.done_at.is_none() {
                    s.done_at = Some(now);
                    alive -= 1;
                    active.remove(&i);
                }
            }
            let arrived = active.len();
            if arrived == 0 {
                now += q;
                continue;
            }
            let step = q as f64;
            let mut progressed = false;

            // Live DVR-window maintenance: segments that left the window
            // are invalidated from every edge cache (the origin's purge,
            // not capacity pressure — eviction counters are untouched).
            if let Some(l) = p.live {
                let first = l.first_seq(now, n_segments);
                for seq in last_first_seq..first {
                    for ri in 0..manifest.rungs.len() {
                        for e in edges.iter_mut() {
                            if e.cache.remove(id(ri, seq as usize)) {
                                e.stats.invalidations += 1;
                            }
                        }
                    }
                }
                last_first_seq = last_first_seq.max(first);
            }

            // Origin fills: every in-flight fill shares the origin uplink
            // max-min-equally; an outage freezes them all. Fills land
            // *before* the downlink shares are computed, so waiters waking
            // this quantum count toward their edge's split.
            let origin_down = p.origin_down_after.is_some_and(|t| now >= t);
            let total_fills: usize = edges.iter().map(|e| e.fills.len()).sum();
            if total_fills > 0 && !origin_down && p.origin_capacity > 0.0 {
                let fill_rate = p.origin_capacity / total_fills as f64;
                for e in &mut edges {
                    let done: Vec<u32> = e
                        .fills
                        .iter_mut()
                        .filter_map(|(&k, rem)| {
                            *rem -= fill_rate * step;
                            (*rem <= completion_eps(objects.bytes(k) as f64)).then_some(k)
                        })
                        .collect();
                    for k in done {
                        e.fills.complete(&k);
                        e.stats.origin_bytes += objects.bytes(k) as u64;
                        e.cache.insert(k);
                        e.stats.evictions = e.cache.evictions();
                    }
                }
                progressed = true;
            }

            // Per-edge downlink shares: a waiter whose object just landed
            // will download this quantum, so it counts — otherwise a burst
            // of waking waiters would each claim a full share and
            // oversubscribe the edge link. A publish-gated session counts
            // only if its segment is now live *and* already cached (it
            // will request and hit below).
            downloading.iter_mut().for_each(|d| *d = 0);
            scratch.clear();
            scratch.extend(active.iter().copied());
            for &i in &scratch {
                let s = &sessions[i as usize];
                let will_download = if s.pending_request {
                    let l = p.live.expect("pending only in live mode");
                    let rung = if s.fetched == 0 {
                        0
                    } else {
                        s.abr.pick(manifest, s.seg, None)
                    };
                    s.seg as u64 <= l.live_seq(now, n_segments)
                        && edges[s.edge].cache.contains(id(rung, s.seg))
                } else if s.waiting {
                    edges[s.edge].cache.contains(id(s.rung, s.seg))
                } else {
                    true
                };
                if will_download {
                    downloading[s.edge] += 1;
                }
            }

            for &i in &scratch {
                let s = &mut sessions[i as usize];
                let e = &mut edges[s.edge];
                if !s.started {
                    s.started = true;
                    let live_now = p
                        .live
                        .is_none_or(|l| s.seg as u64 <= l.live_seq(now, n_segments));
                    if live_now {
                        let bytes = manifest.rungs[0].segments[s.seg].bytes as f64;
                        match e.request(id(0, s.seg)) {
                            Req::Hit => s.remaining_bytes += bytes,
                            Req::Wait(new_fill) => {
                                s.waiting = true;
                                progressed |= new_fill;
                            }
                        }
                    } else {
                        s.pending_request = true;
                    }
                }
                // Playout drains while the next segment downloads (or while
                // the session waits on a fill or the live edge).
                if s.playing {
                    s.buffer_ticks -= step;
                    if s.buffer_ticks < 0.0 {
                        if !s.in_rebuffer {
                            s.in_rebuffer = true;
                            s.rebuffer_events += 1;
                        }
                        s.buffer_ticks = 0.0;
                    }
                }
                // A segment chosen but not yet requested: the live edge
                // had not published it. Re-check the window now.
                if s.pending_request {
                    let l = p.live.expect("pending only in live mode");
                    let first = l.first_seq(now, n_segments) as usize;
                    if s.seg < first {
                        // Too slow: the segment expired out of the DVR
                        // window before we ever asked. Skip forward.
                        window_skips += (first - s.seg) as u64;
                        s.seg = first;
                    }
                    if s.seg as u64 <= l.live_seq(now, n_segments) {
                        s.pending_request = false;
                        let rung = if s.fetched == 0 {
                            0
                        } else {
                            s.abr.pick(manifest, s.seg, None)
                        };
                        if s.fetched > 0 && rung != s.rung {
                            s.rung_switches += 1;
                        }
                        s.rung = rung;
                        s.fetch_start = now;
                        let bytes = manifest.rungs[rung].segments[s.seg].bytes as f64;
                        match e.request(id(rung, s.seg)) {
                            Req::Hit => s.remaining_bytes += bytes,
                            Req::Wait(new_fill) => {
                                s.waiting = true;
                                progressed |= new_fill;
                            }
                        }
                    } else {
                        publish_wait_ticks += q;
                        continue;
                    }
                }
                if s.waiting {
                    let key = id(s.rung, s.seg);
                    let bytes = manifest.rungs[s.rung].segments[s.seg].bytes as f64;
                    if e.cache.touch(key) {
                        // The fill landed: start the edge-leg download, with
                        // `fetch_start` still at request time so the ABR
                        // sees the full wait. The fall-through download
                        // decrement below marks the progress.
                        s.waiting = false;
                        s.remaining_bytes += bytes;
                    } else {
                        if !e.fills.contains(&key) {
                            // The filled object was evicted before this
                            // session could download it: re-request.
                            e.stats.misses += 1;
                            e.fills.request(key, || bytes);
                            progressed = true;
                        }
                        continue;
                    }
                }
                let rate = (p.edge_capacity / downloading[s.edge].max(1) as f64).min(p.per_session);
                s.remaining_bytes -= rate * step;
                progressed = true;
                let entry = &manifest.rungs[s.rung].segments[s.seg];
                if s.remaining_bytes > completion_eps(entry.bytes as f64) {
                    continue;
                }
                // Segment complete at the end of this quantum.
                let end = now + q;
                let elapsed = end.saturating_sub(s.fetch_start).max(1);
                s.abr.observe((entry.bytes * 8) as f64, elapsed as f64);
                s.delivered_bits += (entry.bytes * 8) as u64;
                s.rung_sum += s.rung as u64;
                s.buffer_ticks += (entry.frames as u64 * manifest.ticks_per_frame) as f64;
                s.in_rebuffer = false;
                s.fetched += 1;
                e.stats.served_bytes += entry.bytes as u64;
                if let Some(l) = p.live {
                    let lat = end.saturating_sub(l.publish_tick(s.seg as u64));
                    s.latency_sum += lat;
                    s.latency_max = s.latency_max.max(lat);
                }
                if !s.playing && s.fetched >= s.startup_after {
                    s.playing = true;
                    s.startup_ticks = end - s.start_tick;
                }
                s.seg += 1;
                if s.seg == n_segments {
                    s.done_at = Some(end);
                    s.completed = true;
                    alive -= 1;
                    continue;
                }
                // Live gates for the next segment, evaluated at the
                // completion tick (the same tick the next quantum sees).
                if let Some(l) = p.live {
                    let first = l.first_seq(end, n_segments) as usize;
                    if s.seg < first {
                        window_skips += (first - s.seg) as u64;
                        s.seg = first;
                    }
                    if s.seg as u64 > l.live_seq(end, n_segments) {
                        // Caught up with the live edge: wait for the next
                        // publish, discarding the download overshoot (the
                        // link idles — pacing, not congestion).
                        s.pending_request = true;
                        s.remaining_bytes = 0.0;
                        continue;
                    }
                }
                let next_rung = s.abr.pick(manifest, s.seg, None);
                if next_rung != s.rung {
                    s.rung_switches += 1;
                }
                s.rung = next_rung;
                let bytes = manifest.rungs[s.rung].segments[s.seg].bytes as f64;
                match e.request(id(s.rung, s.seg)) {
                    // A hit carries this quantum's download overshoot into
                    // the next segment, exactly like the single-origin path.
                    Req::Hit => s.remaining_bytes += bytes,
                    Req::Wait(new_fill) => {
                        s.waiting = true;
                        s.remaining_bytes = 0.0;
                        progressed |= new_fill;
                    }
                }
                s.fetch_start = end;
            }
            active.retain(|&i| sessions[i as usize].done_at.is_none());
            now += q;
            // Stasis: every arrival has happened and a whole quantum passed
            // with no byte moved anywhere (e.g. an origin outage with cold
            // caches) — and no publish or departure is still due, so the
            // state can never change again.
            if !progressed && now > all_arrived_by {
                let publishes_due = p
                    .live
                    .is_some_and(|l| l.live_seq(now, n_segments) < n_segments as u64 - 1);
                // A pending session will request (and progress) once its
                // segment publishes — including the final one, which may
                // have gone live this very quantum without being consumed
                // yet.
                let waiters_due = active.iter().any(|&i| sessions[i as usize].pending_request);
                // Entries due at or before `now` were popped at the loop
                // top, so anything left in the heap is a future departure.
                let departures_due = departures
                    .iter()
                    .any(|&Reverse((_, i))| sessions[i as usize].done_at.is_none());
                if !publishes_due && !waiters_due && !departures_due {
                    break;
                }
            }
        }
        let fetched_total: u64 = sessions.iter().map(|s| s.fetched as u64).sum();
        let latency_sum: u64 = sessions.iter().map(|s| s.latency_sum).sum();
        let live_stats = LiveStats {
            mean_latency_ticks: latency_sum as f64 / fetched_total.max(1) as f64,
            max_latency_ticks: sessions.iter().map(|s| s.latency_max).max().unwrap_or(0),
            publish_wait_ticks,
            window_skips,
        };
        (sessions, edges, now, live_stats, phantoms)
    }

    /// Folds finished sessions into the aggregate report.
    fn finish(sessions: &[SimSession], n_sessions: usize, now: u64) -> LoadReport {
        let end_tick = sessions
            .iter()
            .filter_map(|s| s.done_at)
            .max()
            .unwrap_or(now)
            .max(1);
        let completed = sessions.iter().filter(|s| s.completed).count();
        let departed = sessions
            .iter()
            .filter(|s| s.done_at.is_some() && !s.completed)
            .count();
        let total_bits: u64 = sessions.iter().map(|s| s.delivered_bits).sum();
        let mean_session_rate = sessions
            .iter()
            .map(|s| {
                let end = s.done_at.unwrap_or(now).max(s.start_tick + 1);
                s.delivered_bits as f64 / (end - s.start_tick) as f64
            })
            .sum::<f64>()
            / n_sessions.max(1) as f64;
        let started: Vec<&SimSession> = sessions.iter().filter(|s| s.playing).collect();
        let mean_startup = if started.is_empty() {
            0.0
        } else {
            started.iter().map(|s| s.startup_ticks as f64).sum::<f64>() / started.len() as f64
        };
        let rebuffer_sessions = sessions.iter().filter(|s| s.rebuffer_events > 0).count();
        let fetched_total: u64 = sessions.iter().map(|s| s.fetched as u64).sum();
        let rung_sum: u64 = sessions.iter().map(|s| s.rung_sum).sum();
        LoadReport {
            sessions: n_sessions,
            completed,
            ticks: end_tick,
            total_goodput_bits_per_tick: total_bits as f64 / end_tick as f64,
            mean_session_bits_per_tick: mean_session_rate,
            mean_startup_ticks: mean_startup,
            rebuffer_sessions,
            rebuffer_fraction: rebuffer_sessions as f64 / n_sessions.max(1) as f64,
            mean_rung: rung_sum as f64 / fetched_total.max(1) as f64,
            rung_switches: sessions.iter().map(|s| u64::from(s.rung_switches)).sum(),
            departed,
        }
    }

    /// One oracle run, folded to the same `(report, edges, live)`
    /// shape the cohort engine returns, for equality pins.
    pub(crate) fn run(
        manifest: &Manifest,
        load: &LoadConfig,
        p: &TierParams,
    ) -> (LoadReport, Vec<FluidNode>, LiveStats) {
        let (sessions, edges, now, live_stats, phantoms) = run_fluid(manifest, load, p);
        let n = sessions.len() + phantoms;
        (finish(&sessions, n, now), edges, live_stats)
    }
}

/// A plan with no events: the default of every [`Scenario`].
static NO_FAULTS: FaultPlan = FaultPlan {
    seed: 0,
    events: Vec::new(),
};

/// Everything one fluid run needs. Borrowing the catalog and the plan
/// makes a scenario `Copy`, so sweeps and knee searches re-run it at
/// other populations without cloning either.
#[derive(Debug, Clone, Copy)]
pub struct Scenario<'a> {
    /// The titles on offer; live gates apply to title 0 (a live event
    /// *is* one title).
    pub catalog: &'a Catalog,
    /// The delivery topology.
    pub cdn: CdnConfig,
    /// Live publish/expiry gates, or `None` for VOD.
    pub live: Option<LiveConfig>,
    /// Faults to inject; an empty plan runs the plan-free path
    /// bit-identically.
    pub faults: &'a FaultPlan,
    /// The audience. [`sweep`] and [`knee`] vary `load.sessions`.
    pub load: LoadConfig,
}

impl<'a> Scenario<'a> {
    /// A VOD scenario with no faults; set `live` and `faults` by struct
    /// update.
    #[must_use]
    pub fn new(catalog: &'a Catalog, cdn: CdnConfig, load: LoadConfig) -> Self {
        Self {
            catalog,
            cdn,
            live: None,
            faults: &NO_FAULTS,
            load,
        }
    }

    /// This scenario with `sessions` base viewers.
    fn with_sessions(&self, sessions: usize) -> Self {
        Self {
            load: LoadConfig {
                sessions,
                ..self.load
            },
            ..*self
        }
    }

    /// Resolves the scenario into engine parameters. A plan that
    /// resolves to nothing (empty, or every event out of range) leaves
    /// `faults` at `None`: the plan-free path, bit-identically.
    pub(crate) fn params(&self) -> TierParams {
        let (c, t) = (&self.cdn, &self.cdn.tier);
        let resolved = self.faults.resolve(t.edges, c.shields);
        TierParams {
            edges: t.edges,
            cache_capacity_bytes: t.cache_capacity_bytes,
            edge_capacity: t.edge_capacity_bytes_per_tick,
            per_session: t.per_session_bytes_per_tick,
            origin_capacity: t.origin_capacity_bytes_per_tick,
            sharding: t.sharding,
            prewarm: t.prewarm,
            origin_down_after: t.origin_down_after,
            shields: c.shields,
            shield_cache_capacity_bytes: c.shield_cache_capacity_bytes,
            shield_capacity: c.shield_capacity_bytes_per_tick,
            admission: c.admission,
            zipf_s: self.catalog.zipf_s,
            live: self
                .live
                .map(|l| LiveSim::resolve(&l, self.catalog.title(0))),
            faults: (!resolved.is_empty()).then_some(FaultSchedule {
                seed: self.faults.seed,
                actions: resolved,
            }),
        }
    }
}

/// Runs one scenario: viewers pick titles by the catalog's Zipf law,
/// shard onto edges, edge misses coalesce behind the edge's home shield
/// (or go straight to the origin in a flat tier), and only shield
/// misses cross the true origin link. Faults replay on the engine's own
/// event calendar: a crashed edge's or shield's load fails over across
/// a consistent-hash ring and fails back on restart.
///
/// Entirely deterministic: identical inputs give an identical report.
/// Degenerate inputs (zero sessions, an empty title, a zero- or
/// NaN-capacity link, a zero DVR window) return the well-defined
/// all-zero report instead of panicking or spinning to `max_ticks`.
#[must_use]
pub fn simulate(s: &Scenario) -> CdnLoadReport {
    let Some(run) = run_cohorts(s, None) else {
        let mut r = CdnLoadReport::default();
        r.edge.load.sessions = s.load.population();
        return r;
    };
    let entries = |nodes: &[FluidNode]| -> Vec<EdgeReportEntry> {
        let entry = |n: &FluidNode| EdgeReportEntry {
            sessions: n.assigned,
            stats: n.stats,
        };
        nodes.iter().map(entry).collect()
    };
    let (per_edge, per_shield) = (entries(&run.edges), entries(&run.shields));
    let stats = |v: &[EdgeReportEntry]| v.iter().map(|e| e.stats).collect::<Vec<_>>();
    let tier = TierStats::rollup(&stats(&per_edge), &stats(&per_shield));
    CdnLoadReport {
        edge: EdgeLoadReport {
            load: run.report,
            hit_rate: tier.edges.hit_rate(),
            origin_offload: tier.edges.origin_offload(),
            tier: tier.edges,
            per_edge,
        },
        per_shield,
        origin_offload: tier.origin_offload(),
        tier,
        live: run.live,
        resilience: run.resilience,
        engine: run.engine,
    }
}

/// The cohort engine's run of `s` (see `calendar::run_cohorts` for
/// `stop_above`), or `None` for a degenerate scenario.
fn run_cohorts(s: &Scenario, stop_above: Option<f64>) -> Option<crate::calendar::CohortRun> {
    let p = s.params();
    (!p.degenerate(s.catalog.titles(), &s.load))
        .then(|| crate::calendar::run_cohorts(s.catalog, &s.load, &p, stop_above))
}

/// Runs `s` once per base population in `counts`, in order. With a
/// pool, each point is one independent run on a worker (runs share
/// nothing), merged by index: bit-identical to the sequential sweep for
/// any worker count and completion order.
#[must_use]
pub fn sweep(s: &Scenario, counts: &[usize], pool: Option<&WorkerPool>) -> Vec<CdnLoadReport> {
    let run = |&sessions: &usize| simulate(&s.with_sessions(sessions));
    match pool {
        Some(pool) => pool.map(counts, run),
        None => counts.iter().map(run).collect(),
    }
}

/// The capacity knee by bisection: the largest count in `counts` whose
/// stall fraction (sessions that rebuffered) is at most
/// `stall_tolerance`, probing O(log n) populations instead of sweeping
/// them all. Counts may be unsorted or repeat. Assumes stalling is
/// monotone in load, where it equals [`curve_knee`] over the full
/// [`sweep`]. Each probe stops as soon as the sessions it has already
/// stalled decide its verdict. `None` for an empty or NaN-tolerance
/// search, or when even the smallest count stalls more.
#[must_use]
pub fn knee(s: &Scenario, counts: &[usize], stall_tolerance: f64) -> Option<usize> {
    if stall_tolerance.is_nan() {
        return None;
    }
    let mut counts = counts.to_vec();
    counts.sort_unstable();
    counts.dedup();
    // A probe stops as soon as the sessions already stalled exceed the
    // tolerance: stalls only accumulate, so the verdict is final, and
    // a degenerate probe stalls nobody.
    let passes = |sessions| {
        run_cohorts(&s.with_sessions(sessions), Some(stall_tolerance))
            .map_or(0.0, |run| run.report.rebuffer_fraction)
            <= stall_tolerance
    };
    if counts.is_empty() || !passes(counts[0]) {
        return None;
    }
    // Invariant: counts[lo] passes, everything above hi fails.
    let (mut lo, mut hi) = (0, counts.len() - 1);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if passes(counts[mid]) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some(counts[lo])
}

/// The capacity knee of a swept curve: the largest population at which
/// at most `stall_tolerance` of sessions rebuffered, in any order of
/// reports. `None` on an empty curve, a NaN tolerance, or when every
/// level stalls more.
#[must_use]
pub fn curve_knee(curve: &[CdnLoadReport], stall_tolerance: f64) -> Option<usize> {
    curve
        .iter()
        .map(|r| &r.edge.load)
        .filter(|l| l.rebuffer_fraction <= stall_tolerance)
        .map(|l| l.sessions)
        .max()
}

/// [`simulate`] of a VOD, fault-free scenario. Kept because the
/// benchmark harness in `perfbench/` calls it by this name.
#[must_use]
pub fn simulate_cdn_load(catalog: &Catalog, cdn: &CdnConfig, load: &LoadConfig) -> CdnLoadReport {
    simulate(&Scenario::new(catalog, *cdn, *load))
}

/// [`simulate`] of a live scenario under `plan`. Kept because the
/// benchmark harness in `perfbench/` calls it by this name.
#[must_use]
pub fn simulate_live_cdn_load_faulted(
    catalog: &Catalog,
    cdn: &CdnConfig,
    live: &LiveConfig,
    plan: &FaultPlan,
    load: &LoadConfig,
) -> CdnLoadReport {
    simulate(&Scenario {
        live: Some(*live),
        faults: plan,
        ..Scenario::new(catalog, *cdn, *load)
    })
}

/// [`knee`] of a VOD, fault-free scenario. Kept because the benchmark
/// harness in `perfbench/` calls it by this name.
#[must_use]
pub fn cdn_capacity_knee_bisect(
    catalog: &Catalog,
    cdn: &CdnConfig,
    counts: &[usize],
    base: &LoadConfig,
    stall_tolerance: f64,
) -> Option<usize> {
    knee(
        &Scenario::new(catalog, *cdn, *base),
        counts,
        stall_tolerance,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RestartMode;
    use crate::ladder::{encode_ladder, LadderConfig};
    use video::synth::SequenceGen;

    fn manifest() -> Manifest {
        let frames = SequenceGen::new(44).panning_sequence(48, 32, 16, 1, 0);
        let cfg = LadderConfig {
            targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
            gop: 4,
            ..Default::default()
        };
        encode_ladder("movie", &frames, &cfg).unwrap().manifest
    }

    fn catalog() -> Catalog {
        Catalog::single(manifest())
    }

    fn title_bytes(c: &Catalog) -> usize {
        c.working_set_bytes() as usize
    }

    fn sessions(sessions: usize) -> LoadConfig {
        LoadConfig {
            sessions,
            ..Default::default()
        }
    }

    fn vod(c: &Catalog, cdn: CdnConfig, load: LoadConfig) -> CdnLoadReport {
        simulate(&Scenario::new(c, cdn, load))
    }

    fn live(c: &Catalog, cdn: CdnConfig, live: LiveConfig, load: LoadConfig) -> CdnLoadReport {
        simulate(&Scenario {
            live: Some(live),
            ..Scenario::new(c, cdn, load)
        })
    }

    /// The report every degenerate scenario of `population` returns.
    fn degenerate(population: usize) -> CdnLoadReport {
        let mut r = CdnLoadReport::default();
        r.edge.load.sessions = population;
        r
    }

    fn flat(tier: EdgeTierConfig) -> CdnConfig {
        CdnConfig::flat(tier)
    }

    fn origin() -> CdnConfig {
        CdnConfig::single_origin()
    }

    /// A single origin with its uplink and access links overridden.
    fn origin_at(uplink: f64, per_session: f64) -> CdnConfig {
        let mut cdn = origin();
        cdn.tier.edge_capacity_bytes_per_tick = uplink;
        cdn.tier.per_session_bytes_per_tick = per_session;
        cdn
    }

    /// Relative f64 closeness for report fields whose only permitted
    /// divergence is floating-point summation order.
    fn rel_close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    }

    /// Golden pins captured from the full-scan quantum engine.
    /// Integer fields must match *exactly*; f64 fields to 1e-9 relative
    /// (they are sums whose order the cohort engine may legally change).
    /// Any engine change that shifts a completion tick, a rebuffer
    /// count, or an edge counter breaks these loudly.
    fn assert_golden(r: &LoadReport, g: &LoadReport) {
        assert_eq!(
            (
                r.sessions,
                r.completed,
                r.ticks,
                r.rebuffer_sessions,
                r.rung_switches,
                r.departed
            ),
            (
                g.sessions,
                g.completed,
                g.ticks,
                g.rebuffer_sessions,
                g.rung_switches,
                g.departed
            ),
            "integer report fields diverged: {r:?} vs {g:?}"
        );
        for (a, b) in [
            (r.total_goodput_bits_per_tick, g.total_goodput_bits_per_tick),
            (r.mean_session_bits_per_tick, g.mean_session_bits_per_tick),
            (r.mean_startup_ticks, g.mean_startup_ticks),
            (r.rebuffer_fraction, g.rebuffer_fraction),
            (r.mean_rung, g.mean_rung),
        ] {
            assert!(
                rel_close(a, b),
                "f64 report field diverged: {a} vs {b}\n{r:?}\n{g:?}"
            );
        }
    }

    /// [`assert_golden`] for a whole hierarchical report: every counter
    /// (per edge, per shield, the rollup, live and resilience ledgers)
    /// exact, every f64 to 1e-9 relative.
    fn assert_cdn_golden(r: &CdnLoadReport, g: &CdnLoadReport) {
        assert_golden(&r.edge.load, &g.edge.load);
        assert_eq!(r.edge.per_edge, g.edge.per_edge, "per-edge stats");
        assert_eq!(r.per_shield, g.per_shield, "per-shield stats");
        assert_eq!((r.edge.tier, r.tier), (g.edge.tier, g.tier), "rollups");
        for (a, b) in [
            (r.edge.hit_rate, g.edge.hit_rate),
            (r.edge.origin_offload, g.edge.origin_offload),
            (r.origin_offload, g.origin_offload),
            (r.live.mean_latency_ticks, g.live.mean_latency_ticks),
            (
                r.resilience.mean_restore_ticks,
                g.resilience.mean_restore_ticks,
            ),
        ] {
            assert!(rel_close(a, b), "f64 field diverged: {a} vs {b}");
        }
        let ints = |l: LiveStats, f: ResilienceStats| {
            (
                LiveStats {
                    mean_latency_ticks: 0.0,
                    ..l
                },
                ResilienceStats {
                    mean_restore_ticks: 0.0,
                    ..f
                },
            )
        };
        assert_eq!(
            ints(r.live, r.resilience),
            ints(g.live, g.resilience),
            "live/resilience counters"
        );
    }

    /// `EdgeStats` from `[hits, misses, coalesced, evictions,
    /// revalidations, invalidations, origin_bytes, served_bytes]`.
    fn st(v: [u64; 8]) -> EdgeStats {
        let [hits, misses, coalesced, evictions, revalidations, invalidations, origin_bytes, served_bytes] =
            v;
        EdgeStats {
            hits,
            misses,
            coalesced,
            evictions,
            revalidations,
            invalidations,
            origin_bytes,
            served_bytes,
        }
    }

    fn entries(v: &[(usize, [u64; 8])]) -> Vec<EdgeReportEntry> {
        v.iter()
            .map(|&(sessions, s)| EdgeReportEntry {
                sessions,
                stats: st(s),
            })
            .collect()
    }

    #[test]
    fn golden_vod_report_matches_the_seed_engine() {
        let r = vod(&catalog(), origin(), sessions(700));
        assert_golden(
            &r.edge.load,
            &LoadReport {
                sessions: 700,
                completed: 700,
                ticks: 1084,
                total_goodput_bits_per_tick: 30107.749077490775,
                mean_session_bits_per_tick: 456.0807901306719,
                mean_startup_ticks: 52.73,
                rebuffer_sessions: 0,
                rebuffer_fraction: 0.0,
                mean_rung: 1.5,
                rung_switches: 700,
                departed: 0,
            },
        );
    }

    #[test]
    fn golden_churned_edge_report_matches_the_seed_engine() {
        let c = catalog();
        let tier = EdgeTierConfig {
            edges: 3,
            prewarm: false,
            cache_capacity_bytes: title_bytes(&c) / 2,
            ..Default::default()
        };
        let load = LoadConfig {
            sessions: 200,
            churn: ChurnConfig {
                churn_sessions: 150,
                mean_interarrival_ticks: 300.0,
                mean_watch_ticks: 4_000.0,
                flash_sessions: 100,
                flash_at_tick: 20_000,
                flash_ramp_ticks: 5_000,
            },
            ..Default::default()
        };
        let r = vod(&c, flat(tier), load);
        assert_golden(
            &r.edge.load,
            &LoadReport {
                sessions: 450,
                completed: 447,
                ticks: 48996,
                total_goodput_bits_per_tick: 427.2015674748959,
                mean_session_bits_per_tick: 756.4441274993856,
                mean_startup_ticks: 29.56222222222222,
                rebuffer_sessions: 0,
                rebuffer_fraction: 0.0,
                mean_rung: 1.4988864142538976,
                rung_switches: 450,
                departed: 3,
            },
        );
        assert_eq!(r.edge.tier, st([1780, 12, 7, 0, 0, 0, 17484, 2616396]));
    }

    #[test]
    fn golden_live_report_matches_the_seed_engine() {
        let cfg = LiveConfig {
            dvr_window_segments: 8,
            join: JoinMode::LiveEdge,
            ..Default::default()
        };
        let r = live(&catalog(), origin(), cfg, sessions(300));
        assert_golden(
            &r.edge.load,
            &LoadReport {
                sessions: 300,
                completed: 300,
                ticks: 1316,
                total_goodput_bits_per_tick: 7869.714285714285,
                mean_session_bits_per_tick: 43.79183931778799,
                mean_startup_ticks: 314.31666666666666,
                rebuffer_sessions: 0,
                rebuffer_fraction: 0.0,
                mean_rung: 1.3704092339979013,
                rung_switches: 300,
                departed: 0,
            },
        );
        assert!(rel_close(r.live.mean_latency_ticks, 131.77334732423924));
        assert_eq!(r.live.max_latency_ticks, 448);
        assert_eq!(r.live.publish_wait_ticks, 170520);
        assert_eq!(r.live.window_skips, 0);
    }

    #[test]
    fn golden_shielded_multi_title_vod_report() {
        // 24 Zipf titles through 4 cold edges holding an eighth of the
        // working set each (TinyLFU admission) behind 2 bounded shields.
        let c = Catalog::synthesize(&manifest(), 24, 0.9);
        let ws = title_bytes(&c);
        let cdn = CdnConfig {
            tier: EdgeTierConfig {
                edges: 4,
                prewarm: false,
                cache_capacity_bytes: ws / 8,
                ..Default::default()
            },
            shields: 2,
            shield_cache_capacity_bytes: ws / 2,
            shield_capacity_bytes_per_tick: 6_000.0,
            admission: AdmissionPolicy::TinyLfu,
        };
        let load = LoadConfig {
            stagger_ticks: 4_000,
            ..sessions(900)
        };
        let edges = st([2048, 1538, 14, 337, 0, 0, 2255248, 5245200]);
        let shields = st([1346, 192, 0, 0, 0, 0, 279744, 2255248]);
        let golden = CdnLoadReport {
            edge: EdgeLoadReport {
                load: LoadReport {
                    sessions: 900,
                    completed: 900,
                    ticks: 4060,
                    total_goodput_bits_per_tick: 10335.36945812808,
                    mean_session_bits_per_tick: 705.8614969137976,
                    mean_startup_ticks: 32.88111111111111,
                    rebuffer_sessions: 0,
                    rebuffer_fraction: 0.0,
                    mean_rung: 1.5,
                    rung_switches: 900,
                    departed: 0,
                },
                per_edge: entries(&[
                    (225, [504, 389, 7, 82, 0, 0, 571520, 1311300]),
                    (225, [537, 359, 4, 69, 0, 0, 524332, 1311300]),
                    (225, [527, 373, 0, 80, 0, 0, 547832, 1311300]),
                    (225, [480, 417, 3, 106, 0, 0, 611564, 1311300]),
                ]),
                tier: edges,
                hit_rate: 0.5727777777777778,
                origin_offload: 0.5700358422939068,
            },
            per_shield: entries(&[
                (2, [652, 96, 0, 0, 0, 0, 139872, 1095852]),
                (2, [694, 96, 0, 0, 0, 0, 139872, 1159396]),
            ]),
            tier: TierStats {
                edges,
                shields,
                origin_hits: 192,
                tiered: true,
            },
            origin_offload: 0.9466666666666667,
            live: LiveStats::default(),
            resilience: ResilienceStats::default(),
            ..Default::default()
        };
        assert_cdn_golden(&vod(&c, cdn, load), &golden);
    }

    #[test]
    fn golden_live_report_through_shield_edge_and_origin_faults() {
        // A live flash crowd over 4 cold edges and 2 shields while an
        // edge crashes, the origin flaps and a shield crashes; both
        // crashed nodes restart cold.
        let cdn = CdnConfig {
            tier: EdgeTierConfig {
                edges: 4,
                prewarm: false,
                ..Default::default()
            },
            shields: 2,
            ..Default::default()
        };
        let plan = FaultPlan::new(0xFA11)
            .crash_edge(1, 500, Some((1_300, RestartMode::Cold)))
            .flap_origin(600, 1_100)
            .crash_shield(0, 700, Some((1_200, RestartMode::Cold)));
        let load = LoadConfig {
            stagger_ticks: 300,
            churn: ChurnConfig {
                flash_sessions: 1_200,
                flash_at_tick: 450,
                flash_ramp_ticks: 200,
                ..Default::default()
            },
            ..sessions(400)
        };
        let c = catalog();
        let s = Scenario {
            live: Some(LiveConfig {
                dvr_window_segments: 4,
                ..Default::default()
            }),
            faults: &plan,
            ..Scenario::new(&c, cdn, load)
        };
        let edges = st([1869, 23, 3308, 0, 0, 0, 27636, 6768000]);
        let shields = st([3, 11, 9, 0, 0, 0, 12972, 27636]);
        let golden = CdnLoadReport {
            edge: EdgeLoadReport {
                load: LoadReport {
                    sessions: 1600,
                    completed: 1600,
                    ticks: 1460,
                    total_goodput_bits_per_tick: 37084.931506849316,
                    mean_session_bits_per_tick: 34.52583566908779,
                    mean_startup_ticks: 652.965625,
                    rebuffer_sessions: 400,
                    rebuffer_fraction: 0.25,
                    mean_rung: 1.2307692307692308,
                    rung_switches: 2000,
                    departed: 0,
                },
                per_edge: entries(&[
                    (400, [447, 6, 1004, 0, 0, 0, 7332, 1732608]),
                    (400, [453, 5, 210, 0, 0, 0, 5640, 1510768]),
                    (400, [474, 6, 1043, 0, 0, 0, 7332, 1752912]),
                    (400, [495, 6, 1051, 0, 0, 0, 7332, 1771712]),
                ]),
                tier: edges,
                hit_rate: 0.995576923076923,
                origin_offload: 0.9959166666666667,
            },
            per_shield: entries(&[
                (2, [0, 5, 5, 0, 0, 0, 5640, 11280]),
                (2, [3, 6, 4, 0, 0, 0, 7332, 16356]),
            ]),
            tier: TierStats {
                edges,
                shields,
                origin_hits: 11,
                tiered: true,
            },
            origin_offload: 0.9980833333333333,
            live: LiveStats {
                mean_latency_ticks: 287.33076923076925,
                max_latency_ticks: 528,
                publish_wait_ticks: 523528,
                window_skips: 0,
            },
            resilience: ResilienceStats {
                edge_crashes: 1,
                edge_restarts: 1,
                shield_crashes: 1,
                shield_restarts: 1,
                mean_restore_ticks: 650.0,
                sessions_rehomed: 800,
                sessions_fault_rebuffered: 400,
                fault_rebuffer_ticks: 20800,
                rewarm_fills: 5,
                fills_lost: 0,
            },
            ..Default::default()
        };
        assert_cdn_golden(&simulate(&s), &golden);
    }

    /// Quanta until a download of `remaining` bytes completes at
    /// `per_quantum` bytes per quantum under the epsilon-stable rule: the
    /// smallest `k >= 1` with `remaining - k * per_quantum <= eps`. This is
    /// the analytic (fused) form of the iterated hot-loop drain; the two
    /// must agree on completion quanta (see [`completion_eps`]).
    fn quanta_to_complete(remaining: f64, per_quantum: f64, eps: f64) -> u64 {
        if remaining <= eps {
            return 0;
        }
        if per_quantum.is_nan() || per_quantum <= 0.0 {
            return u64::MAX;
        }
        let mut k = ((remaining - eps) / per_quantum).ceil().max(1.0) as u64;
        // The division can land a rounding error on either side of the
        // boundary quantum; nudge onto the exact side of the rule.
        while remaining - (k as f64) * per_quantum > eps {
            k += 1;
        }
        while k > 1 && remaining - ((k - 1) as f64) * per_quantum <= eps {
            k -= 1;
        }
        k
    }

    #[test]
    fn iterated_and_analytic_completion_agree_at_ten_million_ticks() {
        // Satellite pin for the f64 byte accounting: the per-quantum
        // iterated drain (`rem -= per_quantum`, the per-session hot
        // loop) and the fused analytic form (`rem - k * per_quantum`)
        // must agree on the completion quantum even after 2.5M
        // subtractions (10M ticks at quantum 4), where accumulated
        // rounding drift peaks.
        for (bytes, per_quantum) in [
            (10_000.0f64, 0.004f64), // 2.5M quanta exactly on paper
            (9_999.7, 0.0041),       // non-representable fractions
            (123_456.78, 0.049),
            (7.0, 3.0), // tiny transfer, coarse quanta
        ] {
            let eps = completion_eps(bytes);
            let analytic = quanta_to_complete(bytes, per_quantum, eps);
            let mut rem = bytes;
            let mut iterated = 0u64;
            while rem > eps {
                rem -= per_quantum;
                iterated += 1;
            }
            assert_eq!(
                iterated, analytic,
                "completion quantum diverged for {bytes} B at {per_quantum} B/quantum"
            );
            // The drift the epsilon must absorb stays far inside it.
            let fused = bytes - analytic as f64 * per_quantum;
            assert!(
                (rem - fused).abs() < eps / 100.0,
                "accumulated drift {} vs eps {eps}",
                (rem - fused).abs()
            );
        }
        // Degenerate guards.
        assert_eq!(quanta_to_complete(0.0, 1.0, completion_eps(1.0)), 0);
        assert_eq!(quanta_to_complete(10.0, 0.0, 1e-8), u64::MAX);
        assert_eq!(quanta_to_complete(10.0, f64::NAN, 1e-8), u64::MAX);
    }

    #[test]
    fn ten_million_tick_run_completes_deterministically() {
        // Engine-level long-run pin: a starved session draining one
        // segment over millions of quanta neither wedges on the
        // epsilon rule nor drifts between runs.
        let c = catalog();
        let load = LoadConfig {
            sessions: 1,
            stagger_ticks: 0,
            max_ticks: u64::MAX,
            ..Default::default()
        };
        let a = vod(&c, origin_at(4_000.0, 0.0003), load);
        assert_eq!(
            a.edge.load.completed, 1,
            "the starved session still finishes"
        );
        assert!(
            a.edge.load.ticks > 10_000_000,
            "ran long: {}",
            a.edge.load.ticks
        );
        assert_eq!(a, vod(&c, origin_at(4_000.0, 0.0003), load));
    }

    #[test]
    fn exhausted_churn_schedules_terminate_the_arrival_stream() {
        // A churn clock that saturates near `u64::MAX` used to leave
        // the un-scheduled arrivals counted as alive forever, spinning
        // the engine to `max_ticks`. Now the stream terminates
        // explicitly: the impossible arrivals become phantoms that
        // denominate the report but never simulate.
        let c = catalog();
        let load = LoadConfig {
            churn: ChurnConfig {
                churn_sessions: 25,
                mean_interarrival_ticks: 1e300, // first gap saturates
                mean_watch_ticks: 100.0,
                ..Default::default()
            },
            ..sessions(40)
        };
        let full = vod(&c, origin(), load);
        let r = &full.edge.load;
        assert_eq!(r.sessions, 65, "phantoms still denominate");
        assert_eq!(r.completed, 40, "the base population completes");
        assert_eq!(r.departed, 0);
        // The engine finished at the base population's pace instead of
        // spinning out the 10M-tick ceiling.
        assert!(r.ticks < 100_000, "terminated at {}", r.ticks);
        // Deterministic, like every other config.
        assert_eq!(full, vod(&c, origin(), load));

        // A flash ramp pushed off the end of time is likewise phantom,
        // not frozen.
        let flashed = LoadConfig {
            churn: ChurnConfig {
                flash_sessions: 10,
                flash_at_tick: u64::MAX,
                flash_ramp_ticks: 0,
                ..Default::default()
            },
            ..load
        };
        let r = vod(&c, origin(), flashed).edge.load;
        assert_eq!(r.sessions, 50, "40 base + 10 phantom flash");
        assert_eq!(r.completed, 40);
        assert!(r.ticks < 100_000);
    }

    #[test]
    fn a_lone_session_reaches_the_top_rung() {
        let load = LoadConfig {
            stagger_ticks: 0,
            ..sessions(1)
        };
        let r = vod(&catalog(), origin(), load).edge.load;
        assert_eq!(r.completed, 1);
        assert_eq!(r.rebuffer_sessions, 0);
        assert!(r.mean_rung > 0.5, "mean rung {}", r.mean_rung);
    }

    #[test]
    fn oversubscription_degrades_quality_then_stability() {
        let c = catalog();
        let light = vod(&c, origin(), sessions(8)).edge.load;
        let heavy = vod(&c, origin(), sessions(2_000)).edge.load;
        assert_eq!(light.completed, 8);
        assert!(light.rebuffer_fraction <= 0.05);
        assert!(
            heavy.mean_rung < light.mean_rung,
            "overload must push sessions down the ladder: {} vs {}",
            heavy.mean_rung,
            light.mean_rung
        );
        assert!(
            heavy.mean_session_bits_per_tick < light.mean_session_bits_per_tick,
            "per-session delivered rate must fall past the knee"
        );
        assert!(heavy.rebuffer_fraction > light.rebuffer_fraction);
    }

    #[test]
    fn thousands_of_sessions_complete_and_knee_is_found() {
        let c = catalog();
        let cdn = origin();
        let s = Scenario::new(&c, cdn, LoadConfig::default());
        let curve = sweep(&s, &[50, 200, 1_000, 3_000], None);
        assert_eq!(curve.len(), 4);
        assert!(curve
            .iter()
            .all(|r| r.edge.load.completed == r.edge.load.sessions));
        let knee = curve_knee(&curve, 0.05);
        assert!(knee.is_some(), "some level must be sustainable");
        assert!(knee.unwrap() >= 50);
        // Server goodput saturates: the biggest level cannot beat the
        // uplink.
        let cap_bits = cdn.tier.edge_capacity_bytes_per_tick * 8.0;
        assert!(curve
            .iter()
            .all(|r| r.edge.load.total_goodput_bits_per_tick <= cap_bits * 1.01));
    }

    #[test]
    fn simulation_is_deterministic() {
        let c = catalog();
        assert_eq!(
            vod(&c, origin(), sessions(500)),
            vod(&c, origin(), sessions(500))
        );
    }

    #[test]
    fn stagger_spreads_startup_contention() {
        let c = catalog();
        let at = |stagger_ticks| {
            let load = LoadConfig {
                stagger_ticks,
                ..sessions(400)
            };
            vod(&c, origin(), load).edge.load.mean_startup_ticks
        };
        let (burst, spread) = (at(0), at(200_000));
        assert!(
            spread <= burst,
            "arrival spreading should not worsen startup: {spread} vs {burst}"
        );
    }

    #[test]
    fn degenerate_loads_return_well_defined_reports() {
        let c = catalog();
        // Empty session list.
        let r = vod(&c, origin(), sessions(0));
        assert_eq!(r, degenerate(0));
        assert_eq!(r.edge.load.rebuffer_fraction, 0.0, "no NaN from 0/0");
        // Zero-capacity uplink: returns immediately, nothing delivered.
        let r = vod(&c, origin_at(0.0, 100.0), LoadConfig::default())
            .edge
            .load;
        assert_eq!(r.completed, 0);
        assert_eq!(r.total_goodput_bits_per_tick, 0.0);
        // NaN capacity is degenerate, not a hang.
        let r = vod(&c, origin_at(f64::NAN, 100.0), LoadConfig::default());
        assert_eq!(r.edge.load.completed, 0);
        // Knee over an empty curve.
        assert_eq!(curve_knee(&[], 0.05), None);
        // Zero quantum is treated as 1, not a panic or an infinite loop.
        let load = LoadConfig {
            tick_quantum: 0,
            ..sessions(2)
        };
        assert_eq!(vod(&c, origin(), load).edge.load.completed, 2);
        // A `u64::MAX` stagger saturates its draw range instead of
        // overflowing it; every arrival then lands past the ceiling.
        let load = LoadConfig {
            stagger_ticks: u64::MAX,
            ..sessions(3)
        };
        let r = vod(&c, origin(), load).edge.load;
        assert_eq!((r.sessions, r.completed), (3, 0));
        assert_eq!(
            r,
            oracle::run(
                &manifest(),
                &load,
                &Scenario::new(&c, origin(), load).params()
            )
            .0
        );
    }

    #[test]
    fn warm_edges_multiply_the_knee() {
        let c = catalog();
        let counts = [200usize, 1_000, 2_000, 4_000];
        let at = |cdn| {
            sweep(
                &Scenario::new(&c, cdn, LoadConfig::default()),
                &counts,
                None,
            )
        };
        let single_knee = curve_knee(&at(origin()), 0.05).expect("single origin has a knee");
        let edge = at(flat(EdgeTierConfig {
            edges: 4,
            cache_capacity_bytes: usize::MAX,
            prewarm: true,
            ..Default::default()
        }));
        let edge_knee = curve_knee(&edge, 0.05).expect("edge tier has a knee");
        assert!(
            edge_knee >= 2 * single_knee,
            "4 warm edges must at least double the knee: {edge_knee} vs {single_knee}"
        );
        // Warm edges never touch the origin.
        assert!(edge.iter().all(|r| r.edge.tier.origin_bytes == 0));
        assert!(edge.iter().all(|r| (r.edge.hit_rate - 1.0).abs() < 1e-12));
    }

    #[test]
    fn cold_edges_fill_once_and_then_offload() {
        let m = manifest();
        let tier = EdgeTierConfig {
            edges: 2,
            cache_capacity_bytes: usize::MAX,
            prewarm: false,
            ..Default::default()
        };
        let r = vod(&catalog(), flat(tier), sessions(300)).edge;
        assert_eq!(r.load.completed, 300);
        assert!(r.tier.misses > 0, "cold caches must miss");
        assert!(
            r.tier.hits > r.tier.misses,
            "reuse must dominate: {} hits vs {} misses",
            r.tier.hits,
            r.tier.misses
        );
        // Every distinct object crosses the origin link at most a
        // handful of times (refills after eviction are impossible with
        // unbounded caches, so it is exactly once per edge per object).
        let objects = (m.rungs.len() * m.segment_count()) as u64;
        assert!(r.tier.misses <= objects * tier.edges as u64);
        assert!(r.origin_offload > 0.5, "offload {}", r.origin_offload);
        assert_eq!(r.per_edge.iter().map(|e| e.sessions).sum::<usize>(), 300);
    }

    #[test]
    fn coalescing_collapses_concurrent_misses() {
        let tier = EdgeTierConfig {
            edges: 1,
            prewarm: false,
            ..Default::default()
        };
        // A burst of simultaneous arrivals all wanting segment (0, 0).
        let load = LoadConfig {
            stagger_ticks: 0,
            ..sessions(200)
        };
        let r = vod(&catalog(), flat(tier), load).edge;
        assert!(
            r.tier.coalesced >= 199,
            "the burst must coalesce onto one fill: {}",
            r.tier.coalesced
        );
        assert_eq!(r.load.completed, 200);
    }

    #[test]
    fn a_bounded_prewarmed_tier_keeps_the_least_popular_objects() {
        // Three titles of four 10-byte objects each, prewarmed into
        // 50-byte caches: prewarming inserts title 0 (the head of the
        // Zipf law) first, so the head is evicted as the tail arrives
        // and every node starts out holding the last five objects. A
        // model change may reorder this; it is pinned so that one shows.
        let m = crate::catalog::tests::manifest_of("t", &[&[10, 10], &[10, 10]]);
        let c = Catalog::new(vec![m.clone(), m.clone(), m], 1.0);
        let objects = c.objects();
        for node in build_tier(objects, 2, 50, true, AdmissionPolicy::AdmitAll) {
            let held: Vec<_> = (0..objects.len() as u32)
                .filter(|&id| node.cache.contains(id))
                .map(|id| objects.key(id))
                .collect();
            assert_eq!(
                held,
                [(1, 1, 1), (2, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1)]
            );
            assert_eq!(
                (node.stats.evictions, node.cache.peek_victim()),
                (7, Some(7))
            );
        }
    }

    #[test]
    fn tiny_caches_thrash_but_still_serve() {
        let c = catalog();
        let tier = EdgeTierConfig {
            edges: 2,
            cache_capacity_bytes: title_bytes(&c) / 8,
            prewarm: false,
            ..Default::default()
        };
        let r = vod(&c, flat(tier), sessions(150)).edge;
        assert_eq!(r.load.completed, 150, "thrashing must not wedge sessions");
        assert!(r.tier.evictions > 0, "a small cache must evict");
        let big = vod(
            &c,
            flat(EdgeTierConfig {
                cache_capacity_bytes: usize::MAX,
                ..tier
            }),
            sessions(150),
        );
        assert!(
            big.edge.hit_rate >= r.hit_rate,
            "more cache cannot hit less: {} vs {}",
            big.edge.hit_rate,
            r.hit_rate
        );
    }

    #[test]
    fn origin_outage_with_cold_caches_terminates_cleanly() {
        let tier = EdgeTierConfig {
            edges: 2,
            prewarm: false,
            origin_down_after: Some(0),
            ..Default::default()
        };
        let load = sessions(50);
        // Nothing can ever be served; the engine must detect stasis and
        // return instead of spinning to max_ticks.
        let r = vod(&catalog(), flat(tier), load).edge.load;
        assert_eq!(r.completed, 0);
        assert!(r.ticks < load.max_ticks);
    }

    #[test]
    fn origin_outage_with_warm_caches_is_invisible() {
        let c = catalog();
        let at = |origin_down_after| {
            let tier = EdgeTierConfig {
                prewarm: true,
                origin_down_after,
                ..Default::default()
            };
            vod(&c, flat(tier), sessions(400))
        };
        let (up, down) = (at(None), at(Some(0)));
        assert_eq!(up, down, "warm edges never need the origin");
        assert_eq!(down.edge.load.completed, 400);
    }

    #[test]
    fn hash_sharding_completes_and_spreads() {
        let tier = EdgeTierConfig {
            edges: 4,
            sharding: Sharding::Hash,
            ..Default::default()
        };
        let r = vod(&catalog(), flat(tier), sessions(800)).edge;
        assert_eq!(r.load.completed, 800);
        assert!(
            r.per_edge.iter().all(|e| e.sessions > 100),
            "hash sharding should not starve an edge: {:?}",
            r.per_edge.iter().map(|e| e.sessions).collect::<Vec<_>>()
        );
    }

    #[test]
    fn edge_simulation_is_deterministic() {
        let c = catalog();
        let tier = EdgeTierConfig {
            edges: 3,
            prewarm: false,
            cache_capacity_bytes: title_bytes(&c) / 2,
            ..Default::default()
        };
        assert_eq!(
            vod(&c, flat(tier), sessions(500)),
            vod(&c, flat(tier), sessions(500))
        );
    }

    #[test]
    fn zero_churn_infinite_dvr_live_equals_vod_exactly() {
        // The acceptance pin: with an infinite DVR window, a head start
        // covering the whole title, DvrStart joins, and zero churn,
        // every live gate is vacuous and the live simulator must
        // reproduce the VOD report *bit-identically*.
        let c = catalog();
        let cfg = LiveConfig {
            ticks_per_segment: 0, // natural pace (irrelevant here)
            dvr_window_segments: u64::MAX,
            head_start_segments: c.title(0).segment_count() as u64 - 1,
            join: JoinMode::DvrStart,
        };
        let vod_run = vod(&c, origin(), sessions(700));
        let live_run = live(&c, origin(), cfg, sessions(700));
        assert_eq!(
            live_run.edge.load, vod_run.edge.load,
            "vacuous live gates must not perturb VOD"
        );
        assert_eq!(live_run.live.publish_wait_ticks, 0);
        assert_eq!(live_run.live.window_skips, 0);
    }

    #[test]
    fn neutral_churn_knobs_are_the_static_population() {
        // Non-zero means with zero churn/flash sessions draw nothing
        // from the RNG: the static population, bit-identical.
        let c = catalog();
        let base = sessions(400);
        let with_knobs = LoadConfig {
            churn: ChurnConfig {
                churn_sessions: 0,
                mean_interarrival_ticks: 123.0,
                mean_watch_ticks: 55.0,
                flash_sessions: 0,
                flash_at_tick: 9,
                flash_ramp_ticks: 7,
            },
            ..base
        };
        let cdn = flat(EdgeTierConfig::default());
        assert_eq!(vod(&c, cdn, base), vod(&c, cdn, with_knobs));
    }

    #[test]
    fn churn_arrivals_and_departures_are_deterministic() {
        let c = catalog();
        let cdn = flat(EdgeTierConfig {
            edges: 3,
            prewarm: false,
            cache_capacity_bytes: title_bytes(&c) / 2,
            ..Default::default()
        });
        let load = LoadConfig {
            churn: ChurnConfig {
                churn_sessions: 150,
                mean_interarrival_ticks: 300.0,
                mean_watch_ticks: 4_000.0,
                flash_sessions: 100,
                flash_at_tick: 20_000,
                flash_ramp_ticks: 5_000,
            },
            ..sessions(200)
        };
        let a = vod(&c, cdn, load);
        assert_eq!(a, vod(&c, cdn, load), "churn must be seed-deterministic");
        let l = &a.edge.load;
        // The population is the base plus every churn and flash extra.
        assert_eq!(l.sessions, 200 + 150 + 100);
        // Short watch times force early departures.
        assert!(l.departed > 0, "some churn viewers must leave early");
        assert_eq!(
            l.completed + l.departed,
            l.sessions,
            "every session either finishes or departs (none wedge)"
        );
        // A different seed produces a different process.
        assert_ne!(a, vod(&c, cdn, LoadConfig { seed: 99, ..load }));
    }

    #[test]
    fn flash_crowd_pushes_a_single_origin_past_its_knee() {
        let c = catalog();
        let calm = LoadConfig {
            stagger_ticks: 10_000,
            ..sessions(300)
        };
        let flashed = LoadConfig {
            churn: ChurnConfig {
                flash_sessions: 3_000,
                flash_at_tick: 20_000,
                flash_ramp_ticks: 1_000,
                ..Default::default()
            },
            ..calm
        };
        let before = vod(&c, origin(), calm).edge.load.rebuffer_fraction;
        let after = vod(&c, origin(), flashed).edge.load.rebuffer_fraction;
        assert!(before <= 0.05, "baseline is comfortable");
        assert!(
            after > 0.05,
            "a 10x flash crowd must drive one origin past its knee: {after}"
        );
    }

    #[test]
    fn live_edge_sessions_pace_with_the_publish_clock() {
        let cfg = LiveConfig {
            dvr_window_segments: u64::MAX,
            ..Default::default() // LiveEdge join, fresh channel
        };
        let load = LoadConfig {
            stagger_ticks: 200,
            ..sessions(20)
        };
        let r = live(&catalog(), origin(), cfg, load);
        assert_eq!(
            r.edge.load.completed, 20,
            "every live viewer reaches the end"
        );
        assert!(
            r.live.publish_wait_ticks > 0,
            "live-edge viewers must block on unpublished segments"
        );
        // Fetch-after-publish keeps latency within a couple of segment
        // durations (tps = 4 frames x 100 ticks = 400 here).
        assert!(
            r.live.mean_latency_ticks < 800.0,
            "live latency ran away: {}",
            r.live.mean_latency_ticks
        );
        assert!(
            r.live.window_skips == 0,
            "nothing expires with infinite DVR"
        );
    }

    #[test]
    fn shallow_dvr_window_skips_slow_live_sessions_forward() {
        // Viewers slower than the publish pace: segments expire under
        // them and they must skip forward instead of wedging.
        let cfg = LiveConfig {
            ticks_per_segment: 8,
            dvr_window_segments: 1,
            head_start_segments: 0,
            join: JoinMode::DvrStart,
        };
        let load = LoadConfig {
            stagger_ticks: 0,
            ..sessions(30)
        };
        let r = live(&catalog(), origin(), cfg, load);
        assert!(
            r.live.window_skips > 0,
            "a 1-deep window at a hot pace must expire segments"
        );
        assert_eq!(
            r.edge.load.completed, 30,
            "skipping forward must still reach the live end"
        );
        assert!(r.edge.load.ticks < load.max_ticks);
    }

    #[test]
    fn live_edge_miss_storm_coalesces_into_one_fill_per_segment() {
        let m = manifest();
        let tier = EdgeTierConfig {
            edges: 1,
            prewarm: false,
            ..Default::default()
        };
        let cfg = LiveConfig {
            dvr_window_segments: u64::MAX,
            ..Default::default()
        };
        // A burst of simultaneous live-edge joins: every new publish is
        // a miss for everyone at once — the thundering-herd case.
        let load = LoadConfig {
            stagger_ticks: 0,
            ..sessions(300)
        };
        let r = live(&catalog(), flat(tier), cfg, load).edge;
        assert_eq!(r.load.completed, 300);
        assert!(
            r.tier.misses <= (m.rungs.len() * m.segment_count()) as u64,
            "each (rung, segment) fills at most once: {} misses",
            r.tier.misses
        );
        assert!(
            r.tier.coalesced > 0,
            "the storm must coalesce onto in-flight fills"
        );
    }

    #[test]
    fn live_dvr_expiry_invalidates_edge_caches() {
        let tier = EdgeTierConfig {
            edges: 2,
            prewarm: false,
            ..Default::default()
        };
        let cfg = LiveConfig {
            ticks_per_segment: 400,
            dvr_window_segments: 1,
            head_start_segments: 0,
            join: JoinMode::DvrStart,
        };
        let load = LoadConfig {
            stagger_ticks: 0,
            ..sessions(60)
        };
        let r = live(&catalog(), flat(tier), cfg, load).edge;
        assert!(
            r.tier.invalidations > 0,
            "window expiry must purge cached segments"
        );
        assert_eq!(r.tier.evictions, 0, "purges are not capacity evictions");
    }

    #[test]
    fn live_simulation_is_deterministic() {
        let c = catalog();
        let cdn = flat(EdgeTierConfig {
            edges: 2,
            prewarm: false,
            ..Default::default()
        });
        let load = LoadConfig {
            churn: ChurnConfig {
                churn_sessions: 50,
                mean_interarrival_ticks: 200.0,
                mean_watch_ticks: 3_000.0,
                ..Default::default()
            },
            ..sessions(250)
        };
        let cfg = LiveConfig::default();
        assert_eq!(live(&c, cdn, cfg, load), live(&c, cdn, cfg, load));
    }

    #[test]
    fn knee_is_invariant_under_curve_permutation() {
        // The knee is a max over a filtered set: the order sessions
        // (and their reports) arrive in must not matter.
        let c = catalog();
        let s = Scenario::new(&c, flat(EdgeTierConfig::default()), LoadConfig::default());
        let mut curve = sweep(&s, &[50, 400, 1_200, 2_400], None);
        let knee = curve_knee(&curve, 0.05);
        assert!(knee.is_some());
        curve.reverse();
        assert_eq!(curve_knee(&curve, 0.05), knee);
        curve.rotate_left(1);
        assert_eq!(curve_knee(&curve, 0.05), knee);
    }

    /// Stall tolerances the knee tests run at: none, the BENCH bar, and
    /// everyone, with points between that probes cross early and late.
    const TOLERANCES: [f64; 5] = [0.0, 0.01, 0.05, 0.2, 1.0];

    /// The sweep shapes the knee tests probe: single origin, edge tier,
    /// and live, plus a slower VOD origin and a slower live origin
    /// whose stall fractions climb through every tolerance.
    fn knee_scenarios(c: &Catalog) -> [Scenario<'_>; 5] {
        let tier = flat(EdgeTierConfig::default());
        let live = Some(LiveConfig::default());
        [
            (origin(), None),
            (tier, None),
            (tier, live),
            (origin_at(3_000.0, 100.0), None),
            (origin_at(1_000.0, 100.0), live),
        ]
        .map(|(cdn, live)| Scenario {
            live,
            ..Scenario::new(c, cdn, LoadConfig::default())
        })
    }

    const KNEE_COUNTS: [usize; 6] = [50, 200, 400, 800, 1_600, 3_200];

    #[test]
    fn bisecting_knee_equals_the_curve_scan_on_capacity_sweeps() {
        // The bisect probes O(log n) counts, each stopped once its
        // verdict is certain; on the monotone sweeps the BENCH tables
        // use it must land on exactly the curve-scan knee of full runs
        // — for the single-origin, edge-tier, and live shapes alike, at
        // every tolerance.
        let c = catalog();
        for s in knee_scenarios(&c) {
            let curve = sweep(&s, &KNEE_COUNTS, None);
            assert!(curve_knee(&curve, 0.05).is_some() || s.live.is_some());
            for tol in TOLERANCES {
                let scan = curve_knee(&curve, tol);
                assert_eq!(knee(&s, &KNEE_COUNTS, tol), scan, "tolerance {tol}");
            }
        }
    }

    #[test]
    fn a_stopped_probe_reaches_the_full_runs_verdict() {
        // A probe stops once its stalled sessions exceed the tolerance.
        // Its verdict must equal the full run's, and its stall fraction
        // can only be lower. The sweeps include probes that cross their
        // tolerance before the middle of the run and probes that cross
        // it past the middle.
        let c = catalog();
        let (mut early, mut late) = (0, 0);
        for s in knee_scenarios(&c) {
            for sessions in KNEE_COUNTS {
                let s = s.with_sessions(sessions);
                let full = run_cohorts(&s, None).unwrap();
                let f = full.report.rebuffer_fraction;
                assert_eq!(full.report, simulate(&s).edge.load);
                for tol in TOLERANCES {
                    let stopped = run_cohorts(&s, Some(tol)).unwrap();
                    let r = stopped.report.rebuffer_fraction;
                    assert_eq!(r <= tol, f <= tol, "{sessions} sessions at {tol}");
                    assert!(r <= f);
                    let quanta = (stopped.engine.quanta, full.engine.quanta);
                    if f <= tol {
                        assert_eq!(stopped.report, full.report, "a passing probe runs out");
                    } else if quanta.0 * 2 < quanta.1 {
                        early += 1;
                    } else if quanta.0 < quanta.1 {
                        late += 1;
                    }
                }
            }
        }
        assert!(early > 0 && late > 0, "{early} early and {late} late stops");
    }

    #[test]
    fn bisecting_knee_guards_degenerate_count_inputs() {
        // Unsorted and duplicated population points (hand-edited sweep
        // configs) must give the same knee as the clean sweep; empty
        // and all-stalling sweeps answer `None`.
        let c = catalog();
        let s = Scenario::new(&c, flat(EdgeTierConfig::default()), LoadConfig::default());
        let clean = knee(&s, &[200, 800, 3_200], 0.05);
        assert!(clean.is_some());
        let messy = [3_200usize, 200, 800, 200, 3_200, 800, 800];
        assert_eq!(knee(&s, &messy, 0.05), clean);
        assert_eq!(knee(&s, &[], 0.05), None);
        // Even the smallest count stalls on a starved tier.
        let mut starved = s;
        starved.cdn.tier.edge_capacity_bytes_per_tick = 1.0;
        assert_eq!(knee(&starved, &[400, 800], 0.05), None);
    }

    #[test]
    fn a_nan_stall_tolerance_has_no_knee_either_way() {
        // No stall fraction is `<=` NaN, so neither search may answer.
        let c = catalog();
        let s = Scenario::new(&c, origin(), LoadConfig::default());
        let counts = [50usize, 200, 1_000];
        assert_eq!(knee(&s, &counts, f64::NAN), None);
        assert_eq!(curve_knee(&sweep(&s, &counts, None), f64::NAN), None);
    }

    #[test]
    fn degenerate_live_configs_return_well_defined_reports() {
        let load = LoadConfig::default();
        // A zero DVR window can never publish anything fetchable.
        let cfg = LiveConfig {
            dvr_window_segments: 0,
            ..Default::default()
        };
        let r = live(&catalog(), origin(), cfg, load);
        assert_eq!(r, degenerate(load.population()));
    }

    #[test]
    fn degenerate_reports_denominate_on_the_whole_population() {
        // A degenerate run must report the same population a healthy
        // run would have created (base + churn + flash), so capacity
        // curves stay comparable level to level.
        let load = LoadConfig {
            churn: ChurnConfig {
                churn_sessions: 5,
                flash_sessions: 7,
                ..Default::default()
            },
            ..sessions(3)
        };
        let cdn = origin_at(f64::NAN, 100.0);
        let r = live(&catalog(), cdn, LiveConfig::default(), load).edge.load;
        assert_eq!(r.sessions, 15, "3 base + 5 churn + 7 flash");
        assert_eq!(r.completed, 0);
    }

    #[test]
    fn degenerate_edge_tiers_return_well_defined_reports() {
        let tier = EdgeTierConfig {
            edges: 0,
            ..Default::default()
        };
        let load = LoadConfig::default();
        let r = vod(&catalog(), flat(tier), load);
        assert_eq!(r, degenerate(load.population()));
    }

    #[test]
    fn crashing_every_edge_forever_terminates_cleanly_degraded() {
        // The degenerate fault plan: all edges die early and never
        // restart. Nothing can ever move a byte again, so the run must
        // terminate with a clean degraded report — not trip the stasis
        // detector into a panic, and not spin to `max_ticks`.
        let c = catalog();
        let tier = EdgeTierConfig {
            edges: 2,
            ..Default::default()
        };
        let plan = FaultPlan::new(9)
            .crash_edge(0, 200, None)
            .crash_edge(1, 200, None);
        let load = sessions(300);
        let r = simulate(&Scenario {
            faults: &plan,
            ..Scenario::new(&c, flat(tier), load)
        });
        assert_eq!(r.resilience.edge_crashes, 2);
        assert_eq!(r.resilience.edge_restarts, 0);
        assert_eq!(r.resilience.mean_restore_ticks, 0.0);
        assert!(
            r.edge.load.completed < r.edge.load.sessions,
            "a tier with no edges left cannot complete everyone"
        );
        assert!(
            r.edge.load.ticks < load.max_ticks / 100,
            "the dead tier must terminate promptly, not spin: {}",
            r.edge.load.ticks
        );
    }

    #[test]
    fn crash_and_restart_fail_over_and_fail_back() {
        // One of two edges dies mid-run and comes back cold: sessions
        // must fail over (re-home), the restart must land in the MTTR
        // ledger, and the cold cache must trigger re-warm fills. The
        // run still completes everyone — that is what failover buys.
        let c = catalog();
        let tier = EdgeTierConfig {
            edges: 2,
            prewarm: true,
            ..Default::default()
        };
        let plan = FaultPlan::new(5).crash_edge(0, 300, Some((900, RestartMode::Cold)));
        let r = simulate(&Scenario {
            faults: &plan,
            ..Scenario::new(&c, flat(tier), sessions(400))
        });
        assert_eq!(r.resilience.edge_crashes, 1);
        assert_eq!(r.resilience.edge_restarts, 1);
        assert_eq!(r.resilience.mean_restore_ticks, 600.0);
        assert!(
            r.resilience.sessions_rehomed > 0,
            "the crashed edge's sessions must move to the survivor"
        );
        assert_eq!(
            r.edge.load.completed, r.edge.load.sessions,
            "failover must carry every session through the crash"
        );
    }
}
