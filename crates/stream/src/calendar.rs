//! The event-calendar + cohort fluid engine behind
//! [`crate::serve::simulate`].
//!
//! The retired quantum engine advanced **every** arrived session every
//! quantum — O(ticks × population) — which capped capacity sweeps at a
//! few thousand viewers. This engine spends per-quantum work on
//! *cohorts* instead:
//!
//! * **Cohorts.** Sessions whose entire dynamic state is value-identical
//!   are one counted class. The fluid model has no per-session
//!   randomness after the arrival draw: two viewers arriving on the
//!   same tick, sharded onto the same edge, run bit-identical dynamics
//!   forever. A cohort executes each per-quantum f64 operation *once*
//!   (the same operation sequence the per-session engine would run for
//!   each member), so its trajectory — every completion tick, rebuffer,
//!   rung switch — is exactly the per-session trajectory, and the edge
//!   counters advance by counted arithmetic ([`SimEdge::request_n`]).
//!   A flash crowd of 100k viewers landing on one tick is one actor.
//! * **The calendar.** A binary-heap [`EventCalendar`] keyed on each
//!   cohort's next discrete event (arrival, churn departure) drives the
//!   clock: quanta where no cohort is active fast-forward straight to
//!   the next event boundary instead of ticking through the gap, and
//!   departures/arrivals touch only the cohort they name.
//! * **Merge/split bookkeeping.** Cohorts whose states converge (same
//!   edge, equal state) are merged into one class whose member groups
//!   keep per-arrival accounting (start tick, departure tick, startup
//!   latency); a scheduled churn departure *splits* its member group
//!   back out of the class at the departure quantum, folding it into
//!   the report while the rest of the class keeps simulating.
//! * **Fault replay.** A resolved [`crate::fault::FaultPlan`] schedules
//!   its actions on the same event heap (sorting before same-tick
//!   arrivals), so crashes, restarts, origin flaps, and degradation
//!   spans replay deterministically at any scale. Classes whose home
//!   edge crashes re-home across the failover ring to survivors and
//!   fail back on restart; rebuffers that begin under fault pressure
//!   pin the class to the lowest rung (graceful degradation) and are
//!   tallied into [`ResilienceStats`]. A run without a plan never
//!   touches any of this — plan-free reports are bit-identical to
//!   pre-fault builds.
//!
//! Exactness contract, pinned by the golden tests in `serve` and the
//! oracle-equivalence property tests below: for unbounded edge caches
//! (every `BENCH` knee sweep), reports are identical to the per-session
//! quantum oracle — integer fields bit-exact, f64 fields to 1e-9
//! (summation order). Bounded caches under *eviction* are the one
//! documented divergence: a cohort touches the LRU once per class
//! rather than once per member, so recency interleaving — and hence
//! eviction victims — can legally differ; reports remain deterministic
//! and within the behavioural tolerances the bounded-cache tests
//! assert.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use signal::rng::splitmix64;

use crate::catalog::ZipfSampler;
use crate::edge::HashRing;
use crate::fault::{FaultAction, ResilienceStats};
use crate::ladder::Manifest;
use crate::serve::{
    build_edges, build_ring, build_schedule, completion_eps, join_point, shard_edge, title_for,
    LiveStats, LoadConfig, LoadReport, Req, SimEdge, TierParams, RING_VNODES, SHIELD_KEY_SALT,
    SHIELD_RING_SALT,
};
use crate::session::AbrController;
use crate::shield::{
    admit_insert, build_shields, obj_key_hash, shield_home, Admission, ObjKey, SimShield,
};

/// Cheap deterministic hasher for the cohort-formation index: the key
/// is two machine words, and formation does one lookup per *session*
/// (the only O(population) hot path left), so SipHash is pure
/// overhead. Determinism does not depend on the hash — cohort order is
/// schedule order — this is wall-clock only.
#[derive(Default)]
struct SplitMixHasher(u64);

impl Hasher for SplitMixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = splitmix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = splitmix64(self.0 ^ v);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

type CohortIndex = HashMap<(u64, usize, u32), u32, BuildHasherDefault<SplitMixHasher>>;

/// How often the engine scans active cohorts for merge candidates.
/// Merging is pure bookkeeping — it never changes report values (the
/// merged class runs the identical operation sequence both classes
/// would have run separately) — so the cadence only trades scan cost
/// against how quickly converged classes collapse.
const MERGE_EVERY: u64 = 16;

/// The dynamic state every member of a cohort shares, bit for bit.
/// This is the per-session engine's `SimSession` minus the per-member
/// identity fields (`start_tick`, `depart_at`, `startup_ticks`), which
/// live in [`MemberGroup`]s. Two cohorts may merge exactly when these
/// compare equal (and they sit on the same edge): equality here means
/// the members are indistinguishable to every future quantum.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CohortState {
    pub(crate) abr: AbrController,
    pub(crate) seg: usize,
    pub(crate) rung: usize,
    pub(crate) remaining_bytes: f64,
    pub(crate) fetch_start: u64,
    pub(crate) buffer_ticks: f64,
    pub(crate) fetched: usize,
    pub(crate) started: bool,
    pub(crate) startup_after: usize,
    pub(crate) waiting: bool,
    pub(crate) pending_request: bool,
    pub(crate) playing: bool,
    pub(crate) in_rebuffer: bool,
    pub(crate) rebuffer_events: u32,
    pub(crate) rung_switches: u32,
    pub(crate) rung_sum: u64,
    pub(crate) delivered_bits: u64,
    pub(crate) latency_sum: u64,
    pub(crate) latency_max: u64,
    /// Rebuffer events that *began* while fault pressure was active.
    /// Nonzero is sticky graceful degradation: every later rung pick
    /// returns the lowest rung (keep playing over keep quality). Always
    /// zero on a plan-free run, so the plan-free trajectory is
    /// untouched.
    pub(crate) fault_rebuffers: u32,
    /// Stalled ticks accrued while fault pressure was active.
    pub(crate) fault_rebuffer_ticks: u64,
}

/// Per-arrival accounting inside a cohort: `count` sessions that
/// arrived at `start_tick`, depart (if churned) at `depart_at`, and —
/// once the cohort starts playing — observed `startup_ticks` of
/// startup delay. Groups are what a merge carries over and what a
/// departure splits back out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemberGroup {
    pub(crate) start_tick: u64,
    pub(crate) depart_at: Option<u64>,
    pub(crate) count: u64,
    pub(crate) startup_ticks: u64,
}

/// One counted class of identical sessions.
#[derive(Debug, Clone)]
pub(crate) struct Cohort {
    /// The edge currently serving this class. Equal to `home_edge`
    /// except while failover has the class re-homed on a survivor.
    pub(crate) edge: usize,
    /// The edge the shard function placed this class on — where it
    /// fails *back* to once a crashed home restarts.
    pub(crate) home_edge: usize,
    /// The catalog popularity rank every member watches — part of the
    /// cohort identity (sessions on different titles can never share a
    /// trajectory). Always `0` on a single-title run.
    pub(crate) title: u32,
    /// Deterministic failover key on the consistent-hash ring (from the
    /// fault plan's seed). `0` on plan-free runs, where it is never
    /// routed — and therefore never blocks a merge.
    pub(crate) ring_key: u64,
    pub(crate) members: Vec<MemberGroup>,
    pub(crate) state: CohortState,
    /// Cached member count (`members` group counts summed) — read every
    /// quantum on the downlink-share pass, maintained on formation,
    /// departure splits, and merges.
    pub(crate) n: u64,
    /// Every member folded into the report (completed, departed, or
    /// merged away) — the engine never touches this cohort again.
    pub(crate) done: bool,
}

impl Cohort {
    pub(crate) fn count(&self) -> u64 {
        debug_assert_eq!(self.n, self.members.iter().map(|g| g.count).sum::<u64>());
        self.n
    }
}

/// Discrete per-cohort events the calendar orders. Fault actions sort
/// first (a crash at tick t is visible to a tick-t arrival), then
/// arrivals before departures on the same tick, mirroring the quantum
/// engine's arrivals-then-departures loop top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKind {
    /// A [`FaultAction`] falls due; the payload is an index into the
    /// resolved action list, not a cohort id.
    Fault,
    Arrive,
    Depart,
}

/// The binary-heap event calendar: a min-heap of `(tick, kind, cohort)`
/// so the engine pops exactly the events due by the current quantum and
/// can fast-forward an idle clock to the next event boundary.
#[derive(Debug, Default)]
pub(crate) struct EventCalendar {
    heap: BinaryHeap<Reverse<(u64, EventKind, u32)>>,
}

impl EventCalendar {
    pub(crate) fn push(&mut self, tick: u64, kind: EventKind, cohort: u32) {
        self.heap.push(Reverse((tick, kind, cohort)));
    }

    /// The earliest scheduled tick, if any event remains.
    pub(crate) fn next_tick(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Pops the next event if it is due at or before `now`.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<(u64, EventKind, u32)> {
        if self.next_tick()? > now {
            return None;
        }
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Whether any *future* departure still targets a live cohort
    /// (due events were popped already), for the stasis detector.
    fn departure_pending(&self, cohorts: &[Cohort], alias: &[u32]) -> bool {
        self.heap.iter().any(|&Reverse((_, kind, cid))| {
            kind == EventKind::Depart && !cohorts[resolve(alias, cid) as usize].done
        })
    }

    /// Whether any fault action is still scheduled — a pending restart
    /// or recovery can unfreeze a run the stasis detector would
    /// otherwise declare dead.
    fn fault_pending(&self) -> bool {
        self.heap
            .iter()
            .any(|&Reverse((_, kind, _))| kind == EventKind::Fault)
    }
}

/// Follows merge redirections: events scheduled against a cohort that
/// later merged into another must land on the surviving class.
fn resolve(alias: &[u32], mut cid: u32) -> u32 {
    while alias[cid as usize] != cid {
        cid = alias[cid as usize];
    }
    cid
}

/// The first quantum boundary at or past `target`, starting from the
/// boundary `now` — where the oracle's q-at-a-time idle ticking would
/// land, computed in one jump (saturating for `u64::MAX`-adjacent
/// schedules).
fn quantized_jump(now: u64, target: u64, q: u64) -> u64 {
    now.saturating_add((target - now).div_ceil(q).saturating_mul(q))
}

/// The terminal-fold accumulator: cohorts fold member groups in here
/// the quantum they finish (and survivors fold at the end), replacing
/// the oracle's materialised session vector. Integer ledgers are exact
/// counted arithmetic; the two genuinely floating-point sums
/// (`rate_sum`, `startup_sum`) are the only report inputs whose
/// summation order differs from the oracle's per-session fold — and
/// `startup_sum` stays exact regardless because it only ever adds
/// integers below 2^53.
#[derive(Debug, Default)]
struct Acc {
    completed: u64,
    departed: u64,
    total_bits: u64,
    rate_sum: f64,
    started: u64,
    startup_sum: f64,
    rebuffer_sessions: u64,
    fetched: u64,
    rung_sum: u64,
    rung_switches: u64,
    latency_sum: u64,
    latency_max: u64,
    max_done: Option<u64>,
    fault_rebuffer_sessions: u64,
    fault_rebuffer_ticks: u64,
}

impl Acc {
    /// Folds one member group of a cohort in state `s`: `done_at` is
    /// the group's finish tick (`None` for a survivor at engine end),
    /// `completed` whether it reached the end of the title, `now` the
    /// engine clock used for unfinished lifetimes — all exactly the
    /// oracle's `finish()` per-session arithmetic, multiplied by count.
    fn fold(
        &mut self,
        s: &CohortState,
        g: &MemberGroup,
        done_at: Option<u64>,
        completed: bool,
        now: u64,
    ) {
        if completed {
            self.completed += g.count;
        } else if done_at.is_some() {
            self.departed += g.count;
        }
        if let Some(d) = done_at {
            self.max_done = Some(self.max_done.map_or(d, |m| m.max(d)));
        }
        self.total_bits += s.delivered_bits * g.count;
        let end = done_at.unwrap_or(now).max(g.start_tick + 1);
        self.rate_sum += g.count as f64 * (s.delivered_bits as f64 / (end - g.start_tick) as f64);
        if s.playing {
            self.started += g.count;
            self.startup_sum += (g.startup_ticks * g.count) as f64;
        }
        if s.rebuffer_events > 0 {
            self.rebuffer_sessions += g.count;
        }
        self.fetched += s.fetched as u64 * g.count;
        self.rung_sum += s.rung_sum * g.count;
        self.rung_switches += u64::from(s.rung_switches) * g.count;
        self.latency_sum += s.latency_sum * g.count;
        self.latency_max = self.latency_max.max(s.latency_max);
        if s.fault_rebuffers > 0 {
            self.fault_rebuffer_sessions += g.count;
        }
        self.fault_rebuffer_ticks += s.fault_rebuffer_ticks * g.count;
    }

    fn report(&self, n_sessions: usize, now: u64) -> LoadReport {
        let end_tick = self.max_done.unwrap_or(now).max(1);
        let mean_startup = if self.started == 0 {
            0.0
        } else {
            self.startup_sum / self.started as f64
        };
        LoadReport {
            sessions: n_sessions,
            completed: self.completed as usize,
            ticks: end_tick,
            total_goodput_bits_per_tick: self.total_bits as f64 / end_tick as f64,
            mean_session_bits_per_tick: self.rate_sum / n_sessions.max(1) as f64,
            mean_startup_ticks: mean_startup,
            rebuffer_sessions: self.rebuffer_sessions as usize,
            rebuffer_fraction: self.rebuffer_sessions as f64 / n_sessions.max(1) as f64,
            mean_rung: self.rung_sum as f64 / self.fetched.max(1) as f64,
            rung_switches: self.rung_switches,
            departed: self.departed as usize,
        }
    }
}

/// What one cohort run hands back to the `serve` entry points.
pub(crate) struct CohortRun {
    pub(crate) report: LoadReport,
    pub(crate) edges: Vec<SimEdge>,
    /// The shield tier's caches — empty in a flat topology.
    pub(crate) shields: Vec<SimShield>,
    pub(crate) live: LiveStats,
    /// All zero on a plan-free run.
    pub(crate) resilience: ResilienceStats,
}

/// Groups the arrival/departure schedule into cohorts keyed on
/// `(start_tick, edge, title)` — the identity that fixes a session's
/// entire deterministic trajectory — with member groups split by
/// departure tick. Returns the cohorts in first-arrival order
/// (deterministic: derived from schedule order, never map iteration).
#[allow(clippy::too_many_arguments)]
fn form_cohorts(
    schedule: &[(u64, Option<u64>)],
    seg_counts: &[usize],
    load: &LoadConfig,
    p: &TierParams,
    edges: &mut [SimEdge],
    ring: Option<&HashRing>,
    sampler: Option<&ZipfSampler>,
) -> Vec<Cohort> {
    let fault_seed = p.faults.as_ref().map(|f| f.seed);
    let mut cohorts: Vec<Cohort> = Vec::new();
    let mut index = CohortIndex::with_capacity_and_hasher(1024, BuildHasherDefault::default());
    for (i, &(start_tick, depart_at)) in schedule.iter().enumerate() {
        let edge = shard_edge(load, p, i, ring);
        let title = title_for(load, sampler, i);
        edges[edge].assigned += 1;
        let cid = *index.entry((start_tick, edge, title)).or_insert_with(|| {
            let (join_seq, startup_after) =
                join_point(p, load, start_tick, seg_counts[title as usize]);
            cohorts.push(Cohort {
                edge,
                home_edge: edge,
                title,
                // The class fails over as one unit: its key mixes the
                // plan seed with the cohort identity, so different
                // plans spread a crashed edge's classes differently.
                // Title 0 hashes exactly like the pre-catalog key, so
                // single-title fault runs keep their golden layouts.
                ring_key: fault_seed.map_or(0, |s| {
                    let base = splitmix64(splitmix64(s ^ start_tick) ^ edge as u64);
                    if title != 0 {
                        splitmix64(base ^ u64::from(title))
                    } else {
                        base
                    }
                }),
                n: 0,
                members: Vec::new(),
                state: CohortState {
                    abr: AbrController::new(load.ewma_alpha, load.safety),
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
                    rebuffer_events: 0,
                    rung_switches: 0,
                    rung_sum: 0,
                    delivered_bits: 0,
                    latency_sum: 0,
                    latency_max: 0,
                    fault_rebuffers: 0,
                    fault_rebuffer_ticks: 0,
                },
                done: false,
            });
            (cohorts.len() - 1) as u32
        });
        let c = &mut cohorts[cid as usize];
        c.n += 1;
        if let Some(g) = c.members.iter_mut().find(|g| g.depart_at == depart_at) {
            g.count += 1;
        } else {
            c.members.push(MemberGroup {
                start_tick,
                depart_at,
                count: 1,
                startup_ticks: 0,
            });
        }
    }
    cohorts
}

/// Merges cohort `b` into `a` (same edge, equal state): member groups
/// carry over, combining with any group they are indistinguishable
/// from. `b` becomes a tombstone its pending calendar events redirect
/// through.
fn merge_into(cohorts: &mut [Cohort], a: u32, b: u32) {
    debug_assert!(a != b);
    debug_assert_eq!(cohorts[a as usize].edge, cohorts[b as usize].edge);
    // Failover identity must match too: classes with different homes
    // (or ring keys) would diverge again at the next fault event.
    debug_assert_eq!(cohorts[a as usize].home_edge, cohorts[b as usize].home_edge);
    debug_assert_eq!(cohorts[a as usize].title, cohorts[b as usize].title);
    debug_assert_eq!(cohorts[a as usize].ring_key, cohorts[b as usize].ring_key);
    debug_assert!(cohorts[a as usize].state == cohorts[b as usize].state);
    let groups = std::mem::take(&mut cohorts[b as usize].members);
    let moved = std::mem::take(&mut cohorts[b as usize].n);
    cohorts[b as usize].done = true;
    let target = &mut cohorts[a as usize];
    target.n += moved;
    for g in groups {
        if let Some(g2) = target.members.iter_mut().find(|g2| {
            g2.start_tick == g.start_tick
                && g2.depart_at == g.depart_at
                && g2.startup_ticks == g.startup_ticks
        }) {
            g2.count += g.count;
        } else {
            target.members.push(g);
        }
    }
}

/// One merge sweep over the active set: bucket by a cheap integral key,
/// then collapse classes whose full state compares equal. Report
/// values are unaffected (see [`MERGE_EVERY`]); only the number of
/// actors the next quanta touch shrinks.
fn merge_converged(cohorts: &mut [Cohort], active: &mut Vec<u32>, alias: &mut [u32]) {
    if active.len() < 2 {
        return;
    }
    // Every field here must also be part of merge legality (the
    // `CohortState` equality, plus the failover identity), so tighter
    // bucketing never hides a legal merge — it only spares the
    // full-state compare for classes that can't merge anyway (e.g.
    // same-phase cohorts whose EWMA or buffer history differs).
    // `home_edge`/`ring_key` are `(edge, 0)` on plan-free runs, so they
    // split no bucket that the plan-free engine would have merged.
    let cheap_key = |c: &Cohort| {
        (
            c.edge,
            c.home_edge,
            c.title,
            c.ring_key,
            c.state.seg,
            c.state.rung,
            c.state.fetched,
            c.state.fetch_start,
            c.state.delivered_bits,
            c.state.buffer_ticks.to_bits(),
            c.state.remaining_bytes.to_bits(),
        )
    };
    let mut ids: Vec<u32> = active.clone();
    ids.sort_by_key(|&cid| cheap_key(&cohorts[cid as usize]));
    let mut merged_any = false;
    let mut start = 0;
    while start < ids.len() {
        let mut end = start + 1;
        while end < ids.len()
            && cheap_key(&cohorts[ids[end] as usize]) == cheap_key(&cohorts[ids[start] as usize])
        {
            end += 1;
        }
        if end - start > 1 {
            // Within a bucket, the first cohort with each distinct full
            // state is canonical; the rest merge into it.
            let mut canon: Vec<u32> = Vec::new();
            for &cid in &ids[start..end] {
                match canon.iter().find(|&&a| {
                    cohorts[a as usize].edge == cohorts[cid as usize].edge
                        && cohorts[a as usize].state == cohorts[cid as usize].state
                }) {
                    Some(&a) => {
                        merge_into(cohorts, a, cid);
                        alias[cid as usize] = a;
                        merged_any = true;
                    }
                    None => canon.push(cid),
                }
            }
        }
        start = end;
    }
    if merged_any {
        active.retain(|&cid| !cohorts[cid as usize].done);
    }
}

/// Re-homes one cohort after the up/down edge set changed: home
/// whenever the home edge is up (failback), else the first live edge
/// clockwise from its ring key. The home-if-up branch is what makes
/// the ≤ 1/N remap bound structural: a crash moves only the crashed
/// edge's own classes, never a survivor's. Returns the sessions moved.
fn rehome(c: &mut Cohort, edge_up: &[bool], ring: &HashRing) -> u64 {
    let target = if edge_up[c.home_edge] {
        c.home_edge
    } else {
        // All edges down leaves the class parked on its home edge.
        ring.route_alive(c.ring_key, edge_up).unwrap_or(c.home_edge)
    };
    if target == c.edge {
        return 0;
    }
    c.edge = target;
    c.n
}

/// Recomputes every edge's serving shield after the shield up/down set
/// changed: home while the home shield is up (failback), else the
/// first live shield clockwise from the edge's ring key — parked on
/// the (down) home when every shield is down.
fn reroute_shields(
    edge_shield: &mut [usize],
    shield_up: &[bool],
    ring: &HashRing,
    keys: &[u64],
    shields: usize,
) {
    let edges = edge_shield.len();
    for (e, slot) in edge_shield.iter_mut().enumerate() {
        let home = shield_home(e, edges, shields);
        *slot = if shield_up[home] {
            home
        } else {
            ring.route_alive(keys[e], shield_up).unwrap_or(home)
        };
    }
}

/// One cohort-counted cache request with the tier glue applied: the
/// edge's admission sketch sees the demand first (every request feeds
/// frequency, hit or miss), and a request that *starts* an edge fill
/// registers on the serving shield — a shield hit, a new origin fill,
/// or a coalesce into one already in flight. With admission off and no
/// shield this is exactly [`SimEdge::request_n`].
fn cohort_request(
    e: &mut SimEdge,
    adm: &mut Option<Admission>,
    shield: Option<&mut SimShield>,
    key: ObjKey,
    bytes: f64,
    n: u64,
) -> Req {
    if let Some(a) = adm.as_mut() {
        a.record(obj_key_hash(key), n);
    }
    let req = e.request_n(key, bytes, n);
    if let (Req::Wait(true), Some(sh)) = (req, shield) {
        sh.request(key, bytes);
    }
    req
}

/// The cohort fluid engine. Semantically the per-session quantum
/// engine (`serve::oracle`) run at cohort granularity: identical DVR
/// maintenance, origin-fill drain, max-min downlink sharing, ABR,
/// playout, and live gates per quantum — with per-quantum cost
/// O(active cohorts) instead of O(population), idle stretches jumped
/// via the event calendar, and finished classes folded straight into
/// the report accumulator. Multi-title catalogs key every cache object
/// by `(title, rung, seg)`; a shield tier (when `p.shields > 0`) sits
/// between the edges and the origin, so edge fills drain from shield
/// caches and only shield misses cross the true origin link.
pub(crate) fn run_cohorts(titles: &[Manifest], load: &LoadConfig, p: &TierParams) -> CohortRun {
    let seg_counts: Vec<usize> = titles.iter().map(Manifest::segment_count).collect();
    let q = load.tick_quantum.max(1);

    let mut edges = build_edges(titles, p);
    let (schedule, phantoms) = build_schedule(load);
    let n_sessions = schedule.len() + phantoms;
    let all_arrived_by = schedule.iter().map(|&(s, _)| s).max().unwrap_or(0);
    let ring = build_ring(load, p);
    let sampler = (titles.len() > 1).then(|| ZipfSampler::new(titles.len(), p.zipf_s));
    let mut cohorts = form_cohorts(
        &schedule,
        &seg_counts,
        load,
        p,
        &mut edges,
        ring.as_ref(),
        sampler.as_ref(),
    );

    // The shield tier — empty in the flat topology, which is the
    // legacy code path bit-identically (nothing below consults an
    // empty shield vec). Per-edge admission sketches likewise build to
    // `None` under admit-always, leaving every insert a plain insert.
    let shields_on = p.shields > 0;
    let mut shields = if shields_on {
        build_shields(
            titles,
            p.shields,
            p.shield_cache_capacity_bytes,
            p.prewarm,
            p.edges,
        )
    } else {
        Vec::new()
    };
    let mut edge_adm: Vec<Option<Admission>> = (0..p.edges).map(|_| p.admission.build()).collect();

    let mut cal = EventCalendar::default();
    for (cid, c) in cohorts.iter().enumerate() {
        let start = c.members.first().map_or(0, |g| g.start_tick);
        cal.push(start, EventKind::Arrive, cid as u32);
        for g in &c.members {
            if let Some(d) = g.depart_at {
                cal.push(d, EventKind::Depart, cid as u32);
            }
        }
    }
    // Fault actions ride the same heap (payload: action index), so
    // fault replay is exactly as deterministic as arrivals are.
    let faulted = p.faults.is_some();
    let fault_seed = p.faults.as_ref().map(|f| f.seed);
    let fault_actions: &[(u64, FaultAction)] =
        p.faults.as_ref().map_or(&[], |f| f.actions.as_slice());
    for (ai, &(t, _)) in fault_actions.iter().enumerate() {
        cal.push(t, EventKind::Fault, ai as u32);
    }
    let mut alias: Vec<u32> = (0..cohorts.len() as u32).collect();

    // Fault state. All of it is inert on a plan-free run: every edge
    // stays up, every scale stays exactly 1.0 (and `x * 1.0` is
    // IEEE-exact), so the plan-free trajectory is bit-identical.
    let mut edge_up = vec![true; p.edges];
    let mut crash_tick: Vec<Option<u64>> = vec![None; p.edges];
    let mut shield_up = vec![true; p.shields];
    let mut shield_crash_tick: Vec<Option<u64>> = vec![None; p.shields];
    // Which shield each edge currently fills from: its home, unless
    // the home is down and the shield ring re-routed it to a survivor.
    let mut edge_shield: Vec<usize> = (0..p.edges)
        .map(|e| {
            if shields_on {
                shield_home(e, p.edges, p.shields)
            } else {
                0
            }
        })
        .collect();
    let shield_ring = (shields_on && faulted)
        .then(|| HashRing::new(p.shields, RING_VNODES, load.seed ^ SHIELD_RING_SALT));
    let shield_keys: Vec<u64> = (0..p.edges)
        .map(|e| fault_seed.map_or(0, |s| splitmix64(s ^ SHIELD_KEY_SALT ^ e as u64)))
        .collect();
    // Cold-restarted edges count their fills as re-warm traffic until
    // the wiped cache holds an object again.
    let mut rewarming = vec![false; p.edges];
    // Active degradation spans per link; the effective scale is the
    // product, recomputed from the span list on every change so a
    // span's end unwinds its start exactly (no multiply/divide drift).
    let mut edge_degrades: Vec<Vec<f64>> = vec![Vec::new(); p.edges];
    let mut origin_degrades: Vec<f64> = Vec::new();
    let mut edge_scale = vec![1.0f64; p.edges];
    let mut origin_scale = 1.0f64;
    let mut flap_down = false;
    let mut restore_sum = 0u64;
    let mut res = ResilienceStats::default();

    let mut acc = Acc::default();
    // Active cohort ids, kept sorted ascending — the iteration order is
    // cohort creation order, exactly the oracle's session order.
    let mut active: Vec<u32> = Vec::with_capacity(cohorts.len());
    let mut downloading = vec![0u64; p.edges];

    // Graceful degradation folds into every rung pick: once fault
    // pressure has made a class rebuffer, it pins to the lowest rung
    // (keep playing over keep quality). With `fault_rebuffers == 0` —
    // always, on a plan-free run — this is exactly the plain ABR pick.
    let pick_rung = |s: &CohortState, m: &Manifest| -> usize {
        if s.fault_rebuffers > 0 || s.fetched == 0 {
            0
        } else {
            s.abr.pick(m, s.seg, None)
        }
    };

    let mut now = 0u64;
    let mut alive = schedule.len() as u64;
    let mut quanta = 0u64;
    let mut last_first_seq = vec![0u64; titles.len()];
    let mut publish_wait_ticks = 0u64;
    let mut window_skips = 0u64;
    while alive > 0 && now < load.max_ticks {
        // Calendar events due this quantum: fault actions mutate the
        // tier; arrivals activate their cohort; a departure splits its
        // member group out of the (possibly merged) class and folds it,
        // departed, at the quantum it fell due — exactly the oracle's
        // loop top.
        while let Some((tick, kind, cid)) = cal.pop_due(now) {
            if kind == EventKind::Fault {
                match fault_actions[cid as usize].1 {
                    FaultAction::EdgeDown(e) => {
                        if !edge_up[e] {
                            continue;
                        }
                        edge_up[e] = false;
                        crash_tick[e] = Some(tick);
                        res.edge_crashes += 1;
                        // In-flight fills die with the edge; re-homed
                        // waiters re-request on survivors, where
                        // `FillTable` coalescing absorbs the herd.
                        let lost: Vec<ObjKey> =
                            edges[e].fills.iter_mut().map(|(k, _)| k.0).collect();
                        res.fills_lost += lost.len() as u64;
                        for k in lost {
                            edges[e].fills.fail(&k, 0);
                        }
                        if let Some(r) = ring.as_ref() {
                            for &a in &active {
                                res.sessions_rehomed +=
                                    rehome(&mut cohorts[a as usize], &edge_up, r);
                            }
                        }
                    }
                    FaultAction::EdgeUp(e, cold) => {
                        if edge_up[e] {
                            continue;
                        }
                        edge_up[e] = true;
                        res.edge_restarts += 1;
                        if let Some(t0) = crash_tick[e].take() {
                            restore_sum += tick - t0;
                        }
                        if cold {
                            edges[e].lru.clear();
                            rewarming[e] = true;
                        }
                        // Failback: every class whose home just came
                        // back moves home again.
                        if let Some(r) = ring.as_ref() {
                            for &a in &active {
                                res.sessions_rehomed +=
                                    rehome(&mut cohorts[a as usize], &edge_up, r);
                            }
                        }
                    }
                    FaultAction::ShieldDown(si) => {
                        if !shield_up[si] {
                            continue;
                        }
                        shield_up[si] = false;
                        shield_crash_tick[si] = Some(tick);
                        res.shield_crashes += 1;
                        // In-flight origin fills die with the shield;
                        // orphaned edge fills re-register on the
                        // failover shield via the re-request pass.
                        let lost: Vec<ObjKey> =
                            shields[si].fills.iter_mut().map(|(k, _)| k.0).collect();
                        res.fills_lost += lost.len() as u64;
                        for k in lost {
                            shields[si].fills.fail(&k, 0);
                        }
                        if let Some(r) = shield_ring.as_ref() {
                            reroute_shields(
                                &mut edge_shield,
                                &shield_up,
                                r,
                                &shield_keys,
                                p.shields,
                            );
                        }
                    }
                    FaultAction::ShieldUp(si, cold) => {
                        if shield_up[si] {
                            continue;
                        }
                        shield_up[si] = true;
                        res.shield_restarts += 1;
                        if let Some(t0) = shield_crash_tick[si].take() {
                            restore_sum += tick - t0;
                        }
                        if cold {
                            shields[si].lru.clear();
                        }
                        // Failback: every child edge whose home shield
                        // just came back moves home again.
                        if let Some(r) = shield_ring.as_ref() {
                            reroute_shields(
                                &mut edge_shield,
                                &shield_up,
                                r,
                                &shield_keys,
                                p.shields,
                            );
                        }
                    }
                    FaultAction::OriginDown => flap_down = true,
                    FaultAction::OriginUp => flap_down = false,
                    FaultAction::DegradeStart(Some(e), s) => {
                        edge_degrades[e].push(s);
                        edge_scale[e] = edge_degrades[e].iter().product();
                    }
                    FaultAction::DegradeStart(None, s) => {
                        origin_degrades.push(s);
                        origin_scale = origin_degrades.iter().product();
                    }
                    FaultAction::DegradeEnd(Some(e), s) => {
                        if let Some(i) = edge_degrades[e].iter().position(|&x| x == s) {
                            edge_degrades[e].remove(i);
                        }
                        edge_scale[e] = edge_degrades[e].iter().product();
                    }
                    FaultAction::DegradeEnd(None, s) => {
                        if let Some(i) = origin_degrades.iter().position(|&x| x == s) {
                            origin_degrades.remove(i);
                        }
                        origin_scale = origin_degrades.iter().product();
                    }
                }
                continue;
            }
            let cid = resolve(&alias, cid);
            let c = &mut cohorts[cid as usize];
            if c.done {
                continue;
            }
            match kind {
                EventKind::Fault => unreachable!("handled before cohort resolution"),
                EventKind::Arrive => {
                    if let Err(pos) = active.binary_search(&cid) {
                        active.insert(pos, cid);
                    }
                    // A class arriving into a crashed home lands on a
                    // survivor straight away.
                    if faulted {
                        if let Some(r) = ring.as_ref() {
                            res.sessions_rehomed += rehome(c, &edge_up, r);
                        }
                    }
                }
                EventKind::Depart => {
                    let mut folded = 0u64;
                    let state = &c.state;
                    c.members.retain(|g| {
                        if g.depart_at == Some(tick) {
                            acc.fold(state, g, Some(now), false, now);
                            folded += g.count;
                            false
                        } else {
                            true
                        }
                    });
                    alive -= folded;
                    c.n -= folded;
                    if c.members.is_empty() {
                        c.done = true;
                        if let Ok(pos) = active.binary_search(&cid) {
                            active.remove(pos);
                        }
                    }
                }
            }
        }
        if active.is_empty() {
            // Idle fast-forward: jump to the quantum boundary of the
            // next calendar event (or the ceiling) — the boundary the
            // oracle's q-at-a-time idle ticking would reach. Fault
            // events are calendar events, so the jump never skips one.
            let ceiling = quantized_jump(now, load.max_ticks, q);
            now = match cal.next_tick() {
                Some(t) => quantized_jump(now, t, q).min(ceiling),
                None => ceiling,
            };
            continue;
        }
        // Fault pressure this quantum: anything down, flapping, or
        // running degraded. Gates the fast-forward paths and attributes
        // rebuffer accounting; always `false` on a plan-free run.
        let fault_active = faulted
            && (flap_down
                || edge_up.iter().any(|&u| !u)
                || shield_up.iter().any(|&u| !u)
                || origin_scale != 1.0
                || edge_scale.iter().any(|&s| s != 1.0));
        // Publish fast-forward: when every active cohort is a caught-up
        // live viewer (started, pending, its segment not yet published)
        // and no origin fill is in flight, nothing can change before the
        // next publish, arrival, or departure. Apply the skipped
        // quanta's playout drain and publish-wait accrual analytically
        // — exact, because both are integer-valued f64 arithmetic — and
        // jump. This is what turns a 400-tick publish pace into
        // O(download quanta) work per segment instead of O(pace).
        if let Some(l) = p.live {
            // Under fault pressure the per-quantum path stays
            // authoritative (degraded links and parked classes change
            // what a quantum does), so the jump is gated off. A cohort
            // caught up on its *own* title gates on that title's
            // publish clock; for a single title this is exactly the
            // pre-catalog condition (`seg > live` forces the published
            // prefix to be strictly shorter than the title).
            let idle_until_publish = !fault_active
                && edges.iter().all(|e| e.fills.is_empty())
                && shields.iter().all(|s| s.fills.is_empty())
                && active.iter().all(|&cid| {
                    let c = &cohorts[cid as usize];
                    let s = &c.state;
                    s.started
                        && s.pending_request
                        && s.seg as u64 > l.live_seq(now, seg_counts[c.title as usize])
                });
            if idle_until_publish {
                let ceiling = quantized_jump(now, load.max_ticks, q);
                // The earliest next publish any active class waits on.
                let next_pub = active
                    .iter()
                    .map(|&cid| {
                        let nseg = seg_counts[cohorts[cid as usize].title as usize];
                        l.publish_tick(l.live_seq(now, nseg) + 1)
                    })
                    .min()
                    .expect("active is nonempty here");
                let mut target = quantized_jump(now, next_pub.max(now + 1), q);
                if let Some(t) = cal.next_tick() {
                    target = target.min(quantized_jump(now, t, q));
                }
                target = target.min(ceiling);
                let skipped = (target - now) / q;
                if skipped > 0 {
                    for &cid in active.iter() {
                        let c = &mut cohorts[cid as usize];
                        let n = c.n;
                        let s = &mut c.state;
                        publish_wait_ticks += skipped * q * n;
                        if s.playing {
                            // k clamped unit drains collapse to one:
                            // the buffer either survives the whole jump
                            // or empties (entering rebuffer at the
                            // quantum it first ran dry).
                            let drain = (skipped * q) as f64;
                            if s.buffer_ticks >= drain {
                                s.buffer_ticks -= drain;
                            } else {
                                if !s.in_rebuffer {
                                    s.in_rebuffer = true;
                                    s.rebuffer_events += 1;
                                }
                                s.buffer_ticks = 0.0;
                            }
                        }
                    }
                    now = target;
                    continue;
                }
            }
        }
        let step = q as f64;
        let mut progressed = false;

        // Live DVR-window maintenance: segments that left the window
        // are invalidated from every edge and shield cache (the
        // origin's purge, not capacity pressure — eviction counters
        // are untouched).
        if let Some(l) = p.live {
            for (ti, m) in titles.iter().enumerate() {
                let first = l.first_seq(now, seg_counts[ti]);
                for seq in last_first_seq[ti]..first {
                    for ri in 0..m.rungs.len() {
                        let key = (ti as u32, ri as u32, seq as u32);
                        for e in edges.iter_mut() {
                            if e.lru.remove(&key).is_some() {
                                e.stats.invalidations += 1;
                            }
                        }
                        for sh in shields.iter_mut() {
                            if sh.lru.remove(&key).is_some() {
                                sh.stats.invalidations += 1;
                            }
                        }
                    }
                }
                last_first_seq[ti] = last_first_seq[ti].max(first);
            }
        }

        // Parent fills: in the flat topology every in-flight *edge*
        // fill shares the origin uplink max-min-equally; an outage
        // freezes them all. With a shield tier, only *shield* fills
        // touch the true origin — edge fills drain from their shield's
        // cache over the shield downlink once the object is there.
        // Fills land *before* the downlink shares are computed, so
        // waiters waking this quantum count toward their edge's split.
        let origin_down = p.origin_down_after.is_some_and(|t| now >= t) || flap_down;
        if !shields_on {
            let total_fills: usize = edges.iter().map(|e| e.fills.len()).sum();
            if total_fills > 0 && !origin_down && p.origin_capacity > 0.0 {
                let fill_rate = p.origin_capacity * origin_scale / total_fills as f64;
                for (ei, e) in edges.iter_mut().enumerate() {
                    let done: Vec<ObjKey> = e
                        .fills
                        .iter_mut()
                        .filter_map(|(k, rem)| {
                            *rem -= fill_rate * step;
                            let total = titles[k.0 .0 as usize].rungs[k.0 .1 as usize].segments
                                [k.0 .2 as usize]
                                .bytes as f64;
                            (*rem <= completion_eps(total)).then_some(k.0)
                        })
                        .collect();
                    for k in done {
                        e.fills.complete(&k, 0);
                        let bytes =
                            titles[k.0 as usize].rungs[k.1 as usize].segments[k.2 as usize].bytes;
                        e.stats.origin_bytes += bytes as u64;
                        // Admission may refuse to cache the filled
                        // object; its waiters still wake via the pass
                        // set (serve-through without caching).
                        if !admit_insert(&mut e.lru, &edge_adm[ei], k, bytes) {
                            e.pass.insert(k);
                        }
                        e.stats.evictions = e.lru.evictions();
                        // The wiped cache holds an object again: later
                        // fills are ordinary demand fills, not re-warm.
                        rewarming[ei] = false;
                    }
                }
                progressed = true;
            }
        } else {
            // Re-request pass first: edge fills whose serving shield
            // neither caches the object nor has an origin fill in
            // flight (shield crash, failover, or shield-side eviction)
            // re-register as shield misses — one origin fill restarts
            // no matter how many child edges wait on it.
            for ei in 0..p.edges {
                let si = edge_shield[ei];
                if !shield_up[si] {
                    continue;
                }
                let orphaned: Vec<ObjKey> = edges[ei]
                    .fills
                    .iter()
                    .map(|(k, _)| k.0)
                    .filter(|k| !shields[si].lru.contains(k) && !shields[si].fills.contains(k, 0))
                    .collect();
                for k in orphaned {
                    let bytes = titles[k.0 as usize].rungs[k.1 as usize].segments[k.2 as usize]
                        .bytes as f64;
                    shields[si].stats.misses += 1;
                    shields[si].fills.request(k, 0, || bytes);
                    progressed = true;
                }
            }
            // Shield→origin leg: every in-flight shield fill shares
            // the true origin uplink.
            let total_fills: usize = shields.iter().map(|s| s.fills.len()).sum();
            if total_fills > 0 && !origin_down && p.origin_capacity > 0.0 {
                let fill_rate = p.origin_capacity * origin_scale / total_fills as f64;
                for sh in shields.iter_mut() {
                    let done: Vec<ObjKey> = sh
                        .fills
                        .iter_mut()
                        .filter_map(|(k, rem)| {
                            *rem -= fill_rate * step;
                            let total = titles[k.0 .0 as usize].rungs[k.0 .1 as usize].segments
                                [k.0 .2 as usize]
                                .bytes as f64;
                            (*rem <= completion_eps(total)).then_some(k.0)
                        })
                        .collect();
                    for k in done {
                        sh.fills.complete(&k, 0);
                        let bytes =
                            titles[k.0 as usize].rungs[k.1 as usize].segments[k.2 as usize].bytes;
                        sh.stats.origin_bytes += bytes as u64;
                        sh.lru.insert(k, bytes);
                        sh.stats.evictions = sh.lru.evictions();
                    }
                }
                progressed = true;
            }
            // Shield→edge leg: edge fills whose object the shield now
            // caches drain over the shield's downlink, max-min-shared
            // across that shield's concurrently-drawing fills.
            let mut draw = vec![0usize; p.shields];
            for (ei, e) in edges.iter().enumerate() {
                let si = edge_shield[ei];
                if !shield_up[si] {
                    continue;
                }
                draw[si] += e
                    .fills
                    .iter()
                    .filter(|(k, _)| shields[si].lru.contains(&k.0))
                    .count();
            }
            for ei in 0..p.edges {
                let si = edge_shield[ei];
                if !shield_up[si] || draw[si] == 0 {
                    continue;
                }
                let rate = p.shield_capacity / draw[si] as f64;
                let done: Vec<ObjKey> = edges[ei]
                    .fills
                    .iter_mut()
                    .filter_map(|(k, rem)| {
                        if !shields[si].lru.contains(&k.0) {
                            return None;
                        }
                        *rem -= rate * step;
                        let total = titles[k.0 .0 as usize].rungs[k.0 .1 as usize].segments
                            [k.0 .2 as usize]
                            .bytes as f64;
                        (*rem <= completion_eps(total)).then_some(k.0)
                    })
                    .collect();
                let e = &mut edges[ei];
                for k in done {
                    e.fills.complete(&k, 0);
                    let bytes =
                        titles[k.0 as usize].rungs[k.1 as usize].segments[k.2 as usize].bytes;
                    e.stats.origin_bytes += bytes as u64;
                    shields[si].lru.touch(&k);
                    shields[si].stats.served_bytes += bytes as u64;
                    if !admit_insert(&mut e.lru, &edge_adm[ei], k, bytes) {
                        e.pass.insert(k);
                    }
                    e.stats.evictions = e.lru.evictions();
                    rewarming[ei] = false;
                }
                progressed = true;
            }
        }

        // Per-edge downlink shares, weighted by cohort counts: a
        // waiter whose object just landed will download this quantum,
        // so its whole class counts — otherwise a burst of waking
        // waiters would oversubscribe the edge link. A publish-gated
        // cohort counts only if its segment is now live *and* already
        // cached (it will request and hit below).
        downloading.iter_mut().for_each(|d| *d = 0);
        for &cid in &active {
            let c = &cohorts[cid as usize];
            if !edge_up[c.edge] {
                // Parked (every edge down): nothing downloads.
                continue;
            }
            let s = &c.state;
            let will_download = if s.pending_request {
                // Publish gate first: a caught-up live-edge cohort (the
                // common case, most quanta) answers without touching the
                // ABR or the cache index.
                let l = p.live.expect("pending only in live mode");
                s.seg as u64 <= l.live_seq(now, seg_counts[c.title as usize]) && {
                    let rung = pick_rung(s, &titles[c.title as usize]);
                    edges[c.edge]
                        .lru
                        .contains(&(c.title, rung as u32, s.seg as u32))
                }
            } else if s.waiting {
                let key = (c.title, s.rung as u32, s.seg as u32);
                edges[c.edge].lru.contains(&key) || edges[c.edge].pass.contains(&key)
            } else {
                true
            };
            if will_download {
                downloading[c.edge] += c.count();
            }
        }

        for &cid in &active {
            let Cohort {
                edge,
                title,
                members,
                state: s,
                n,
                done,
                ..
            } = &mut cohorts[cid as usize];
            let edge = *edge;
            let title = *title;
            let n = *n;
            let m = &titles[title as usize];
            let nseg = seg_counts[title as usize];
            if !edge_up[edge] {
                // Parked: every edge is down, failover had nowhere to
                // go. Playout keeps draining — members stall in place,
                // all of it fault-attributed — but no request, fill,
                // or download can move until a restart re-homes.
                if s.playing {
                    s.buffer_ticks -= step;
                    if s.buffer_ticks < 0.0 {
                        if !s.in_rebuffer {
                            s.in_rebuffer = true;
                            s.rebuffer_events += 1;
                            s.fault_rebuffers += 1;
                        }
                        s.buffer_ticks = 0.0;
                    }
                }
                if s.in_rebuffer {
                    s.fault_rebuffer_ticks += q;
                }
                continue;
            }
            let e = &mut edges[edge];
            if !s.started {
                s.started = true;
                let live_now = p
                    .live
                    .map_or(true, |l| s.seg as u64 <= l.live_seq(now, nseg));
                if live_now {
                    let bytes = m.rungs[0].segments[s.seg].bytes as f64;
                    let sh = if shields_on && shield_up[edge_shield[edge]] {
                        Some(&mut shields[edge_shield[edge]])
                    } else {
                        None
                    };
                    match cohort_request(
                        e,
                        &mut edge_adm[edge],
                        sh,
                        (title, 0, s.seg as u32),
                        bytes,
                        n,
                    ) {
                        Req::Hit => s.remaining_bytes += bytes,
                        Req::Wait(new_fill) => {
                            s.waiting = true;
                            progressed |= new_fill;
                            if new_fill && (fault_active || rewarming[edge]) {
                                res.rewarm_fills += 1;
                            }
                        }
                    }
                } else {
                    s.pending_request = true;
                }
            }
            // Playout drains while the next segment downloads (or while
            // the class waits on a fill or the live edge).
            if s.playing {
                s.buffer_ticks -= step;
                if s.buffer_ticks < 0.0 {
                    if !s.in_rebuffer {
                        s.in_rebuffer = true;
                        s.rebuffer_events += 1;
                        if fault_active {
                            s.fault_rebuffers += 1;
                        }
                    }
                    s.buffer_ticks = 0.0;
                }
            }
            if fault_active && s.in_rebuffer {
                s.fault_rebuffer_ticks += q;
            }
            // A segment chosen but not yet requested: the live edge
            // had not published it. Re-check the window now.
            if s.pending_request {
                let l = p.live.expect("pending only in live mode");
                let first = l.first_seq(now, nseg) as usize;
                if s.seg < first {
                    // Too slow: the segment expired out of the DVR
                    // window before we ever asked. Skip forward.
                    window_skips += (first - s.seg) as u64 * n;
                    s.seg = first;
                }
                if s.seg as u64 <= l.live_seq(now, nseg) {
                    s.pending_request = false;
                    let rung = pick_rung(s, m);
                    if s.fetched > 0 && rung != s.rung {
                        s.rung_switches += 1;
                    }
                    s.rung = rung;
                    s.fetch_start = now;
                    let bytes = m.rungs[rung].segments[s.seg].bytes as f64;
                    let sh = if shields_on && shield_up[edge_shield[edge]] {
                        Some(&mut shields[edge_shield[edge]])
                    } else {
                        None
                    };
                    let key = (title, rung as u32, s.seg as u32);
                    match cohort_request(e, &mut edge_adm[edge], sh, key, bytes, n) {
                        Req::Hit => s.remaining_bytes += bytes,
                        Req::Wait(new_fill) => {
                            s.waiting = true;
                            progressed |= new_fill;
                            if new_fill && (fault_active || rewarming[edge]) {
                                res.rewarm_fills += 1;
                            }
                        }
                    }
                } else {
                    publish_wait_ticks += q * n;
                    continue;
                }
            }
            if s.waiting {
                let key = (title, s.rung as u32, s.seg as u32);
                let bytes = m.rungs[s.rung].segments[s.seg].bytes as f64;
                if e.lru.touch(&key) || e.pass.contains(&key) {
                    // The fill landed (cached, or admission-rejected
                    // but passed through): start the edge-leg download,
                    // with `fetch_start` still at request time so the
                    // ABR sees the full wait. The fall-through download
                    // decrement below marks the progress.
                    s.waiting = false;
                    s.remaining_bytes += bytes;
                } else {
                    if !e.fills.contains(&key, 0) {
                        // The filled object was evicted before this
                        // class could download it — or the class was
                        // just re-homed onto an edge with no fill in
                        // flight: re-request (one fill restarts no
                        // matter how many members wait).
                        e.stats.misses += 1;
                        e.fills.request(key, 0, || bytes);
                        if shields_on && shield_up[edge_shield[edge]] {
                            shields[edge_shield[edge]].request(key, bytes);
                        }
                        progressed = true;
                        if fault_active || rewarming[edge] {
                            res.rewarm_fills += 1;
                        }
                    }
                    continue;
                }
            }
            let rate = (p.edge_capacity * edge_scale[edge] / downloading[edge].max(1) as f64)
                .min(p.per_session);
            s.remaining_bytes -= rate * step;
            progressed = true;
            let entry = &m.rungs[s.rung].segments[s.seg];
            if s.remaining_bytes > completion_eps(entry.bytes as f64) {
                continue;
            }
            // Segment complete at the end of this quantum — for every
            // member at once (the class shares one download trajectory).
            let end = now + q;
            let elapsed = end.saturating_sub(s.fetch_start).max(1);
            s.abr.observe((entry.bytes * 8) as f64, elapsed as f64);
            s.delivered_bits += (entry.bytes * 8) as u64;
            s.rung_sum += s.rung as u64;
            s.buffer_ticks += (entry.frames as u64 * m.ticks_per_frame) as f64;
            s.in_rebuffer = false;
            s.fetched += 1;
            e.stats.served_bytes += entry.bytes as u64 * n;
            if let Some(l) = p.live {
                let lat = end.saturating_sub(l.publish_tick(s.seg as u64));
                s.latency_sum += lat;
                s.latency_max = s.latency_max.max(lat);
            }
            if !s.playing && s.fetched >= s.startup_after {
                s.playing = true;
                for g in members.iter_mut() {
                    g.startup_ticks = end - g.start_tick;
                }
            }
            s.seg += 1;
            if s.seg == nseg {
                for g in members.iter() {
                    acc.fold(s, g, Some(end), true, now);
                }
                alive -= n;
                *done = true;
                continue;
            }
            // Live gates for the next segment, evaluated at the
            // completion tick (the same tick the next quantum sees).
            if let Some(l) = p.live {
                let first = l.first_seq(end, nseg) as usize;
                if s.seg < first {
                    window_skips += (first - s.seg) as u64 * n;
                    s.seg = first;
                }
                if s.seg as u64 > l.live_seq(end, nseg) {
                    // Caught up with the live edge: wait for the next
                    // publish, discarding the download overshoot (the
                    // link idles — pacing, not congestion).
                    s.pending_request = true;
                    s.remaining_bytes = 0.0;
                    continue;
                }
            }
            let next_rung = pick_rung(s, m);
            if next_rung != s.rung {
                s.rung_switches += 1;
            }
            s.rung = next_rung;
            let bytes = m.rungs[s.rung].segments[s.seg].bytes as f64;
            let sh = if shields_on && shield_up[edge_shield[edge]] {
                Some(&mut shields[edge_shield[edge]])
            } else {
                None
            };
            let key = (title, s.rung as u32, s.seg as u32);
            match cohort_request(e, &mut edge_adm[edge], sh, key, bytes, n) {
                // A hit carries this quantum's download overshoot into
                // the next segment, exactly like the single-origin path.
                Req::Hit => s.remaining_bytes += bytes,
                Req::Wait(new_fill) => {
                    s.waiting = true;
                    s.remaining_bytes = 0.0;
                    progressed |= new_fill;
                    if new_fill && (fault_active || rewarming[edge]) {
                        res.rewarm_fills += 1;
                    }
                }
            }
            s.fetch_start = end;
        }
        active.retain(|&cid| !cohorts[cid as usize].done);
        // Pass-set entries only bridge a fill's completion to its
        // waiters' wake within the quantum; clear them so an admission
        // reject never masquerades as a cache hit later. Always empty
        // under admit-always (the legacy path clears nothing).
        for e in edges.iter_mut() {
            e.pass.clear();
        }
        quanta += 1;
        if quanta % MERGE_EVERY == 0 {
            merge_converged(&mut cohorts, &mut active, &mut alias);
        }
        now += q;
        // Stasis: every arrival has happened and a whole quantum passed
        // with no byte moved anywhere (e.g. an origin outage with cold
        // caches) — and no publish or departure is still due, so the
        // state can never change again.
        if !progressed && now > all_arrived_by {
            // A scheduled restart or recovery can still unfreeze a
            // fully stalled tier; a plan that crashes everything
            // forever leaves nothing due and terminates cleanly here.
            let faults_due = cal.fault_pending();
            // Parked classes (their edge is down) cannot consume a
            // publish or wake as waiters — only a fault event revives
            // them, and that is `faults_due`'s job to keep alive.
            let any_unparked = active
                .iter()
                .any(|&cid| edge_up[cohorts[cid as usize].edge]);
            let publishes_due = any_unparked
                && p.live.is_some_and(|l| {
                    active.iter().any(|&cid| {
                        let nseg = seg_counts[cohorts[cid as usize].title as usize];
                        l.live_seq(now, nseg) < nseg as u64 - 1
                    })
                });
            // A pending cohort will request (and progress) once its
            // segment publishes — including the final one, which may
            // have gone live this very quantum without being consumed
            // yet.
            let waiters_due = active.iter().any(|&cid| {
                let c = &cohorts[cid as usize];
                edge_up[c.edge] && c.state.pending_request
            });
            let departures_due = cal.departure_pending(&cohorts, &alias);
            if !faults_due && !publishes_due && !waiters_due && !departures_due {
                break;
            }
        }
    }
    // Survivors (still downloading at the ceiling, or never arrived)
    // fold with the oracle's unfinished-session arithmetic.
    for c in &cohorts {
        if !c.done {
            for g in &c.members {
                acc.fold(&c.state, g, None, false, now);
            }
        }
    }
    let live = LiveStats {
        mean_latency_ticks: acc.latency_sum as f64 / acc.fetched.max(1) as f64,
        max_latency_ticks: acc.latency_max,
        publish_wait_ticks,
        window_skips,
    };
    let restarts = res.edge_restarts + res.shield_restarts;
    res.mean_restore_ticks = if restarts == 0 {
        0.0
    } else {
        restore_sum as f64 / restarts as f64
    };
    res.sessions_fault_rebuffered = acc.fault_rebuffer_sessions;
    res.fault_rebuffer_ticks = acc.fault_rebuffer_ticks;
    let report = acc.report(n_sessions, now);
    CohortRun {
        report,
        edges,
        shields,
        live,
        resilience: res,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::edge::{EdgeTierConfig, Sharding};
    use crate::ladder::{encode_ladder, LadderConfig};
    use crate::serve::{oracle, CdnConfig, ChurnConfig, LiveConfig, Scenario};
    use crate::session::JoinMode;
    use proptest::prelude::*;
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

    fn rel_close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    }

    /// Engine parameters for `cdn`, optionally live, over title `m`.
    fn params(m: &Manifest, cdn: CdnConfig, live: Option<LiveConfig>) -> TierParams {
        let c = Catalog::single(m.clone());
        Scenario {
            live,
            ..Scenario::new(&c, cdn, LoadConfig::default())
        }
        .params()
    }

    /// Cohort run vs per-session oracle: integer fields bit-exact, f64
    /// fields to 1e-9 relative (summation order), per-edge counters and
    /// live stats exact. Valid for unbounded caches — under bounded-
    /// cache *eviction* the engines may legally pick different victims.
    fn assert_matches_oracle(manifest: &Manifest, load: &LoadConfig, p: &TierParams) {
        let c = run_cohorts(std::slice::from_ref(manifest), load, p);
        let (o, o_edges, o_live) = oracle::run(manifest, load, p);
        let r = &c.report;
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
                o.sessions,
                o.completed,
                o.ticks,
                o.rebuffer_sessions,
                o.rung_switches,
                o.departed
            ),
            "integer report fields diverged:\n  cohort {r:?}\n  oracle {o:?}"
        );
        for (name, a, b) in [
            (
                "goodput",
                r.total_goodput_bits_per_tick,
                o.total_goodput_bits_per_tick,
            ),
            (
                "mean_session",
                r.mean_session_bits_per_tick,
                o.mean_session_bits_per_tick,
            ),
            ("startup", r.mean_startup_ticks, o.mean_startup_ticks),
            (
                "rebuffer_fraction",
                r.rebuffer_fraction,
                o.rebuffer_fraction,
            ),
            ("mean_rung", r.mean_rung, o.mean_rung),
        ] {
            assert!(rel_close(a, b), "{name} diverged: cohort {a} vs oracle {b}");
        }
        assert_eq!(c.edges.len(), o_edges.len());
        for (i, (ce, oe)) in c.edges.iter().zip(&o_edges).enumerate() {
            assert_eq!(ce.assigned, oe.assigned, "edge {i} assigned");
            assert_eq!(ce.stats, oe.stats, "edge {i} stats diverged");
        }
        assert!(
            rel_close(c.live.mean_latency_ticks, o_live.mean_latency_ticks),
            "mean latency diverged: {} vs {}",
            c.live.mean_latency_ticks,
            o_live.mean_latency_ticks
        );
        assert_eq!(
            (
                c.live.max_latency_ticks,
                c.live.publish_wait_ticks,
                c.live.window_skips
            ),
            (
                o_live.max_latency_ticks,
                o_live.publish_wait_ticks,
                o_live.window_skips
            ),
            "live counters diverged"
        );
    }

    #[test]
    fn calendar_orders_arrivals_before_departures_on_the_same_tick() {
        let mut cal = EventCalendar::default();
        cal.push(5, EventKind::Depart, 1);
        cal.push(5, EventKind::Arrive, 2);
        cal.push(3, EventKind::Depart, 0);
        assert_eq!(cal.next_tick(), Some(3));
        assert_eq!(cal.pop_due(2), None, "nothing due before tick 3");
        assert_eq!(cal.pop_due(8), Some((3, EventKind::Depart, 0)));
        assert_eq!(
            cal.pop_due(8),
            Some((5, EventKind::Arrive, 2)),
            "same-tick arrival must precede the departure (oracle loop order)"
        );
        assert_eq!(cal.pop_due(8), Some((5, EventKind::Depart, 1)));
        assert_eq!(cal.pop_due(8), None);
        assert_eq!(cal.next_tick(), None);
    }

    #[test]
    fn calendar_orders_faults_before_same_tick_arrivals() {
        // A crash at tick t must be visible to a tick-t arrival (the
        // arriving class lands on a survivor), and same-tick fault
        // actions apply in resolved order (ascending payload index).
        let mut cal = EventCalendar::default();
        cal.push(5, EventKind::Arrive, 9);
        cal.push(5, EventKind::Fault, 1);
        cal.push(5, EventKind::Fault, 0);
        assert!(cal.fault_pending());
        assert_eq!(cal.pop_due(5), Some((5, EventKind::Fault, 0)));
        assert_eq!(cal.pop_due(5), Some((5, EventKind::Fault, 1)));
        assert!(!cal.fault_pending());
        assert_eq!(cal.pop_due(5), Some((5, EventKind::Arrive, 9)));
    }

    #[test]
    fn rehome_moves_only_classes_whose_home_is_down() {
        let ring = HashRing::new(4, 64, 0xC0FFEE);
        let mk = |home: usize, key: u64| Cohort {
            edge: home,
            home_edge: home,
            title: 0,
            ring_key: key,
            members: Vec::new(),
            state: test_state(),
            n: 10,
            done: false,
        };
        let mut up = vec![true, false, true, true];
        // Home up: never moves, whatever the ring says.
        let mut c0 = mk(0, 0xDEAD);
        assert_eq!(rehome(&mut c0, &up, &ring), 0);
        assert_eq!(c0.edge, 0);
        // Home down: moves to a live edge, counting every member.
        let mut c1 = mk(1, 0xBEEF);
        assert_eq!(rehome(&mut c1, &up, &ring), 10);
        assert_ne!(c1.edge, 1);
        assert!(up[c1.edge]);
        // Idempotent while the edge set is unchanged.
        assert_eq!(rehome(&mut c1, &up, &ring), 0);
        // Failback: the home recovers and the class moves straight
        // back (one counted move).
        up[1] = true;
        assert_eq!(rehome(&mut c1, &up, &ring), 10);
        assert_eq!(c1.edge, 1);
        // All edges down: parked in place, no move counted.
        let all_down = vec![false; 4];
        let mut c2 = mk(2, 0xF00D);
        assert_eq!(rehome(&mut c2, &all_down, &ring), 0);
        assert_eq!(c2.edge, 2);
    }

    #[test]
    fn quantized_jump_lands_where_oracle_idle_ticking_would() {
        // q-at-a-time ticking from a boundary lands on the first
        // boundary at or past the target.
        assert_eq!(quantized_jump(0, 5, 4), 8);
        assert_eq!(quantized_jump(0, 4, 4), 4);
        assert_eq!(quantized_jump(8, 8, 4), 8);
        assert_eq!(quantized_jump(8, 9, 4), 12);
        assert_eq!(quantized_jump(0, 1, 1), 1);
        // Saturates rather than wrapping on u64::MAX-adjacent schedules.
        assert_eq!(quantized_jump(0, u64::MAX, 4), u64::MAX);
    }

    #[test]
    fn alias_resolution_follows_merge_chains() {
        // 3 merged into 1, 1 merged into 0: events against 3 land on 0.
        let alias = vec![0, 0, 2, 1];
        assert_eq!(resolve(&alias, 3), 0);
        assert_eq!(resolve(&alias, 1), 0);
        assert_eq!(resolve(&alias, 2), 2);
        assert_eq!(resolve(&alias, 0), 0);
    }

    fn test_state() -> CohortState {
        CohortState {
            abr: AbrController::new(0.3, 0.7),
            seg: 3,
            rung: 1,
            remaining_bytes: 0.0,
            fetch_start: 40,
            buffer_ticks: 12.0,
            fetched: 3,
            started: true,
            startup_after: 2,
            waiting: false,
            pending_request: false,
            playing: true,
            in_rebuffer: false,
            rebuffer_events: 0,
            rung_switches: 1,
            rung_sum: 2,
            delivered_bits: 9_000,
            latency_sum: 0,
            latency_max: 0,
            fault_rebuffers: 0,
            fault_rebuffer_ticks: 0,
        }
    }

    #[test]
    fn merge_combines_indistinguishable_member_groups_and_keeps_distinct_ones() {
        let g = |start, depart, count, startup| MemberGroup {
            start_tick: start,
            depart_at: depart,
            count,
            startup_ticks: startup,
        };
        let mut cohorts = vec![
            Cohort {
                edge: 0,
                home_edge: 0,
                title: 0,
                ring_key: 0,
                members: vec![g(10, None, 5, 6), g(10, Some(90), 2, 6)],
                state: test_state(),
                n: 7,
                done: false,
            },
            Cohort {
                edge: 0,
                home_edge: 0,
                title: 0,
                ring_key: 0,
                members: vec![g(10, None, 3, 6), g(10, None, 1, 8)],
                state: test_state(),
                n: 4,
                done: false,
            },
        ];
        merge_into(&mut cohorts, 0, 1);
        assert!(cohorts[1].done, "absorbed cohort becomes a tombstone");
        assert!(cohorts[1].members.is_empty());
        // (10, None, 6) merged into the existing group; (10, None, 8)
        // differs in startup latency and must stay its own group.
        assert_eq!(
            cohorts[0].members,
            vec![g(10, None, 8, 6), g(10, Some(90), 2, 6), g(10, None, 1, 8)]
        );
        assert_eq!(cohorts[0].count(), 11);
    }

    #[test]
    fn cohort_formation_groups_same_tick_arrivals_and_splits_departure_groups() {
        let m = manifest();
        let load = LoadConfig {
            sessions: 6,
            stagger_ticks: 0, // all six arrive at tick 0
            ..Default::default()
        };
        let p = params(&m, CdnConfig::single_origin(), None);
        let mut edges = build_edges(std::slice::from_ref(&m), &p);
        // Hand-build a schedule: four stayers and two churners leaving
        // at different ticks — one cohort, three member groups.
        let schedule = vec![
            (0, None),
            (0, Some(500)),
            (0, None),
            (0, Some(900)),
            (0, None),
            (0, None),
        ];
        let cohorts = form_cohorts(
            &schedule,
            &[m.segment_count()],
            &load,
            &p,
            &mut edges,
            None,
            None,
        );
        assert_eq!(
            cohorts.len(),
            1,
            "same (tick, edge) arrivals share a cohort"
        );
        assert_eq!(cohorts[0].count(), 6);
        assert_eq!(cohorts[0].members.len(), 3, "split by departure tick");
        let counts: Vec<(Option<u64>, u64)> = cohorts[0]
            .members
            .iter()
            .map(|g| (g.depart_at, g.count))
            .collect();
        assert_eq!(counts, vec![(None, 4), (Some(500), 1), (Some(900), 1)]);
        assert_eq!(edges[0].assigned, 6);
    }

    #[test]
    fn merge_sweep_collapses_converged_classes_without_changing_reports() {
        // Two staggered arrival waves converge once both are in steady
        // state; the merge sweep must collapse them and the report must
        // still match the oracle exactly.
        let m = manifest();
        let load = LoadConfig {
            sessions: 64,
            stagger_ticks: 64,
            ..Default::default()
        };
        let p = params(&m, CdnConfig::single_origin(), None);
        assert_matches_oracle(&m, &load, &p);
    }

    #[test]
    fn departures_split_groups_out_of_live_cohorts() {
        // Churned viewers leave mid-stream: every departure must fold
        // exactly its member group while the rest of the cohort keeps
        // streaming — pinned by exact equivalence with the per-session
        // oracle, including the departed count.
        let m = manifest();
        let load = LoadConfig {
            sessions: 30,
            churn: ChurnConfig {
                churn_sessions: 40,
                mean_interarrival_ticks: 40.0,
                mean_watch_ticks: 300.0,
                flash_sessions: 0,
                flash_at_tick: 0,
                flash_ramp_ticks: 0,
            },
            ..Default::default()
        };
        let p = params(&m, CdnConfig::flat(EdgeTierConfig::default()), None);
        let run = run_cohorts(std::slice::from_ref(&m), &load, &p);
        assert!(run.report.departed > 0, "config must actually churn");
        assert_matches_oracle(&m, &load, &p);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// VOD through an edge tier: the cohort engine is
        /// report-identical to the retired per-session quantum engine
        /// for arbitrary populations, stagger, quanta, sharding
        /// (including the consistent-hash ring, fault-free), prewarm,
        /// churn, and flash crowds (unbounded caches).
        #[test]
        fn cohorts_match_oracle_on_vod_tiers(
            sessions in 0usize..48,
            stagger in 0u64..1500,
            seed in any::<u64>(),
            quantum in 1u64..9,
            edges in 1usize..5,
            shard_mode in 0usize..3,
            prewarm in any::<bool>(),
            churn_sessions in 0usize..24,
            interarrival in 1.0f64..200.0,
            watch in 0.0f64..2000.0,
            flash_sessions in 0usize..24,
            flash_at in 0u64..3000,
            flash_ramp in 0u64..500,
            origin_capacity in 500.0f64..8000.0,
        ) {
            let m = manifest();
            let load = LoadConfig {
                sessions,
                stagger_ticks: stagger,
                seed,
                tick_quantum: quantum,
                churn: ChurnConfig {
                    churn_sessions,
                    mean_interarrival_ticks: interarrival,
                    mean_watch_ticks: watch,
                    flash_sessions,
                    flash_at_tick: flash_at,
                    flash_ramp_ticks: flash_ramp,
                },
                ..Default::default()
            };
            let tier = EdgeTierConfig {
                edges,
                sharding: match shard_mode {
                    0 => Sharding::RoundRobin,
                    1 => Sharding::Hash,
                    _ => Sharding::Ring,
                },
                prewarm,
                origin_capacity_bytes_per_tick: origin_capacity,
                ..Default::default()
            };
            assert_matches_oracle(&m, &load, &params(&m, CdnConfig::flat(tier), None));
        }

        /// Live delivery: publish gating, DVR-window expiry, window
        /// skips, and latency accounting all match the oracle.
        #[test]
        fn cohorts_match_oracle_on_live_streams(
            sessions in 1usize..40,
            stagger in 0u64..1200,
            seed in any::<u64>(),
            quantum in 1u64..9,
            edges in 1usize..4,
            dvr in 2u64..12,
            head_start in 0u64..5,
            dvr_start in any::<bool>(),
            startup_segments in 1usize..4,
            churn_sessions in 0usize..16,
            interarrival in 1.0f64..120.0,
            watch in 0.0f64..1500.0,
        ) {
            let m = manifest();
            let load = LoadConfig {
                sessions,
                stagger_ticks: stagger,
                seed,
                tick_quantum: quantum,
                startup_segments,
                churn: ChurnConfig {
                    churn_sessions,
                    mean_interarrival_ticks: interarrival,
                    mean_watch_ticks: watch,
                    flash_sessions: 0,
                    flash_at_tick: 0,
                    flash_ramp_ticks: 0,
                },
                ..Default::default()
            };
            let live = LiveConfig {
                dvr_window_segments: dvr,
                head_start_segments: head_start,
                join: if dvr_start { JoinMode::DvrStart } else { JoinMode::LiveEdge },
                ..Default::default()
            };
            let tier = EdgeTierConfig { edges, ..Default::default() };
            let p = params(&m, CdnConfig::flat(tier), Some(live));
            assert_matches_oracle(&m, &load, &p);
        }

        /// Degenerate tiers (zero capacity, origin outages) terminate
        /// identically on both engines — the stasis detector agrees.
        #[test]
        fn cohorts_match_oracle_under_origin_outage(
            sessions in 1usize..24,
            stagger in 0u64..600,
            seed in any::<u64>(),
            down_after in 0u64..400,
        ) {
            let m = manifest();
            let load = LoadConfig {
                sessions,
                stagger_ticks: stagger,
                seed,
                ..Default::default()
            };
            let tier = EdgeTierConfig {
                prewarm: false,
                origin_down_after: Some(down_after),
                ..Default::default()
            };
            assert_matches_oracle(&m, &load, &params(&m, CdnConfig::flat(tier), None));
        }
    }
}
