//! The event-calendar + cohort fluid engine behind
//! [`crate::serve::simulate`].
//!
//! The retired quantum engine advanced **every** arrived session every
//! quantum — O(ticks × population) — which capped capacity sweeps at a
//! few thousand viewers. This engine spends per-quantum work on
//! *cohorts*, and within them mostly on *events*:
//!
//! * **Cohorts.** Sessions that arrive on the same tick, on the same
//!   edge and title, are one counted class. The fluid model has no
//!   per-session randomness after the arrival draw, so those viewers
//!   run bit-identical dynamics forever. A cohort executes each
//!   per-quantum f64 operation *once* (the same operation sequence the
//!   per-session engine would run for each member), so its trajectory —
//!   every completion tick, rebuffer, rung switch — is exactly the
//!   per-session trajectory, and the edge counters advance by counted
//!   arithmetic ([`FluidNode::request_n`]). A flash crowd of 100k viewers
//!   landing on one tick is one actor. Cohorts never merge: a
//!   session's first request stamps its own arrival tick into the ABR
//!   estimate, so classes that arrived on different ticks almost never
//!   become equal again, and a sweep for equal classes cost more than
//!   the rare merge saved. Members differ only in when (if ever) they
//!   churn away, kept as [`MemberGroup`]s.
//! * **Formation in one pass.** [`form_cohorts`] files each session
//!   into its cohort as the arrival stream draws it, so no schedule of
//!   the whole population is ever built. The cohort key is looked up in
//!   a dense array when the config bounds the key space (a churn-free
//!   load within `max(population, 2^16)` slots) and in a hash map
//!   otherwise; per session it only bumps a compact count of members
//!   that never depart, and each cohort's member groups are written
//!   once, in first-arrival order.
//! * **The calendar.** The [`EventCalendar`] orders each cohort's
//!   discrete events (arrival, churn departure, publish wake) and the
//!   fault actions, and drives the clock. Faults, arrivals and
//!   departures sit on a binary heap; wakes sit in one cohort list per
//!   publish tick, handed out in ascending id after the tick's heap
//!   events. Departures, arrivals and wakes touch only the cohort they
//!   name, and the *idle jump* moves the clock straight to
//!   the quantum boundary of the next event when nothing can change
//!   before it — no cohort is active, or every active cohort is parked
//!   on a publish while no fill is in flight and no fault pressure
//!   lasts. Those jumped quanta are not stepped (see
//!   [`EngineStats::quanta`]).
//! * **The rest set.** Between events most cohorts skip the full path
//!   and rest in a [`RestSet`]. A *plain* cohort — started, on an up
//!   edge, neither waiting on a fill nor gated on a publish — rests in
//!   its edge's download lane, stepped with one per-edge `rate * step`:
//!   `remaining -= dec` and a completion compare, nothing else; the
//!   edge's downloading count is the lanes' member sum. A live cohort
//!   that ends its full step pending on an unpublished segment, on an
//!   up edge, parks with one [`EventKind::Wake`] at the segment's
//!   publish tick, which turns a 400-tick publish pace into O(download
//!   quanta) work per segment instead of O(pace). A woken cohort runs
//!   that quantum's full step as if it had never left.
//! * **Settling in closed form.** A resting cohort keeps its first
//!   unsettled tick; whatever ends or changes its rest (completion,
//!   wake, departure, fault event, end of run) settles the quanta since
//!   then at once. `now` is always a quantum boundary and the idle jump
//!   fires only with the lanes empty, so a rest from `since` to `now` is
//!   exactly `(now - since) / q` quanta. In each, a cohort drained
//!   playout, and a parked one also waited `q` publish ticks per member.
//!   One `settle` drains `j` quanta: the buffer either covers `j * q`
//!   and drops by exactly that, or it ran dry in quantum
//!   `buffer / q + 1`, entering rebuffer once (unless already
//!   rebuffering) and ending at 0; every quantum from there on is
//!   stalled. That equals `j` clamped per-quantum drains exactly,
//!   because buffers and `q` are integer-valued f64 below 2^53 and only
//!   a completion, on the full path, refills the buffer or ends a
//!   rebuffer. Under fault pressure a rebuffer that begins is a fault
//!   rebuffer and each stalled quantum adds `q` fault rebuffer ticks,
//!   as on the full path, under the one fault flag of the settled
//!   quanta (below).
//! * **Fault replay.** A resolved [`crate::fault::FaultPlan`] schedules
//!   its actions on the same event heap (before same-tick arrivals), so
//!   crashes, restarts, origin flaps, and degradation spans replay
//!   deterministically at any scale into one [`FaultState`]. Classes
//!   whose home edge crashes re-home across the failover ring and fail
//!   back on restart; rebuffers that begin under fault pressure pin the
//!   class to the lowest rung (graceful degradation) and are tallied
//!   into [`ResilienceStats`]. The fault flag changes only at fault
//!   events, and every fault event first flushes the lanes and settles
//!   every parked cohort in place under the flag from *before* the
//!   event, so each rest has one flag and the closed form stays exact.
//!   Parked cohorts re-home where they sit; only those *stranded* on a
//!   down edge (every edge down) wake into the full path, and a
//!   stranded cohort that a restart re-homes while its segment is
//!   still unpublished parks again.
//!
//! Only arrivals, segment completions, wakes, waiters, stranded cohorts
//! and the cohorts a fault event flushed run the full per-cohort path,
//! in ascending cohort id, so every cache touch, fill start and report
//! fold keeps the per-session engine's order. Per-quantum cost is
//! O(lane entries) of flat arithmetic plus O(events) of real work.
//!
//! Exactness contract, pinned by the oracle-equivalence property tests
//! below, the golden tests in `serve`, and the workspace's
//! `fluid_golden` digests: for unbounded edge caches (every `BENCH`
//! knee sweep), reports equal the per-session quantum oracle's —
//! integer fields bit-exact, f64 fields to 1e-9 (summation order).
//! Under faults, which the oracle lacks,
//! `full_path_reference_matches_the_shipped_engine` pins the rest set
//! and the idle jump to a test-only run in which every active cohort
//! takes the full path every quantum. A lane step is the full path's
//! own arithmetic, so lanes change no report bit. Bounded caches
//! under *eviction* are the one documented divergence from the oracle:
//! a cohort touches the LRU once per class rather than once per member,
//! so recency interleaving — and hence eviction victims — can legally
//! differ; reports remain deterministic and within the behavioural
//! tolerances the bounded-cache tests assert.
//!
//! **Stopping once decided.** A knee probe ([`crate::serve::knee`])
//! passes `run_cohorts` a stall tolerance. A cohort's members count as
//! stalled when its first rebuffer begins, on the full path or in a
//! settle; every one of them later folds as a rebuffer session, so the
//! count only grows toward the report's `rebuffer_sessions`. Once it
//! exceeds the tolerance the verdict is final and the run stops; the
//! partial report still exceeds the tolerance. `simulate` passes no
//! tolerance and always runs to the end.
//!
//! One concern per submodule: `formation` forms [`Cohort`]s; `lanes`
//! holds the [`RestSet`] and `settle`; `events` the [`EventCalendar`];
//! `faults` the [`FaultState`] and the one failover rule of both tiers.
//! This module runs the quantum loop ([`run_cohorts`]) and folds the
//! report.

mod events;
mod faults;
mod formation;
mod lanes;

use crate::catalog::{Catalog, ZipfSampler};
use crate::fault::{FaultAction, ResilienceStats};
use crate::ladder::Manifest;
use crate::serve::{
    build_ring, build_tier, completion_eps, EngineStats, FluidNode, LiveSim, LiveStats, LoadConfig,
    LoadReport, Req, TierParams,
};
use crate::shield::AdmissionPolicy;
use events::{EventCalendar, EventKind};
use faults::{rehome, FaultState};
use formation::{form_cohorts, Cohort, CohortIndex, CohortState, MemberGroup};
use lanes::RestSet;

/// Whether `c` is pending on a segment its live title has not
/// published by `now`.
fn gated(c: &Cohort, l: &LiveSim, now: u64, seg_counts: &[usize]) -> bool {
    c.state.pending_request && c.state.seg as u64 > l.live_seq(now, seg_counts[c.title as usize])
}

/// Whether any edge or shield fill is in flight.
fn fills_in_flight(edges: &[FluidNode], shields: &[FluidNode]) -> bool {
    edges.iter().chain(shields).any(|n| !n.fills.is_empty())
}

#[cfg(test)]
thread_local! {
    static FULL_PATH_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether this thread runs the reference engine: lanes, parking and
/// the idle jump off, so every active cohort takes the full path every
/// quantum. Test builds only; always `false` otherwise.
#[cfg(test)]
fn full_path_only() -> bool {
    FULL_PATH_ONLY.with(std::cell::Cell::get)
}

#[cfg(not(test))]
const fn full_path_only() -> bool {
    false
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
        let end = done_at.unwrap_or(now).max(s.start_tick + 1);
        self.rate_sum += g.count as f64 * (s.delivered_bits as f64 / (end - s.start_tick) as f64);
        if s.playing {
            self.started += g.count;
            self.startup_sum += (s.startup_ticks * g.count) as f64;
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
        LoadReport {
            sessions: n_sessions,
            completed: self.completed as usize,
            ticks: end_tick,
            total_goodput_bits_per_tick: self.total_bits as f64 / end_tick as f64,
            mean_session_bits_per_tick: self.rate_sum / n_sessions.max(1) as f64,
            // Nothing started adds nothing to `startup_sum`: 0 / 1.
            mean_startup_ticks: self.startup_sum / self.started.max(1) as f64,
            rebuffer_sessions: self.rebuffer_sessions as usize,
            rebuffer_fraction: stall_fraction(self.rebuffer_sessions, n_sessions),
            mean_rung: self.rung_sum as f64 / self.fetched.max(1) as f64,
            rung_switches: self.rung_switches,
            departed: self.departed as usize,
        }
    }
}

/// The report's stall fraction: `stalled` of `n_sessions` sessions
/// rebuffered.
fn stall_fraction(stalled: u64, n_sessions: usize) -> f64 {
    stalled as f64 / n_sessions.max(1) as f64
}

/// What one cohort run hands back to the `serve` entry points.
pub(crate) struct CohortRun {
    pub(crate) report: LoadReport,
    pub(crate) edges: Vec<FluidNode>,
    /// The shield tier's caches — empty in a flat topology.
    pub(crate) shields: Vec<FluidNode>,
    pub(crate) live: LiveStats,
    /// All zero on a plan-free run.
    pub(crate) resilience: ResilienceStats,
    pub(crate) engine: EngineStats,
}

/// A class of `n` members in state `s` requests its current segment of
/// title `title` (manifest `m`) from `edge`. A hit starts the download,
/// carrying any download overshoot; otherwise the class waits on the
/// fill and the overshoot is discarded. A request that starts an edge
/// fill registers on `shield` (the serving shield while one is up) and,
/// under `rewarm`, counts one re-warm fill. Returns whether it started
/// a fill.
#[allow(clippy::too_many_arguments)]
fn request(
    edge: &mut FluidNode,
    shield: Option<&mut FluidNode>,
    m: &Manifest,
    title: u32,
    s: &mut CohortState,
    n: u64,
    rewarm: bool,
    rewarm_fills: &mut u64,
) -> bool {
    let key = edge.cache.objects().id(title, s.rung as u32, s.seg as u32);
    let bytes = m.rungs[s.rung].segments[s.seg].bytes as f64;
    match edge.request_n(key, n) {
        Req::Hit => {
            s.remaining_bytes += bytes;
            false
        }
        Req::Wait(new_fill) => {
            s.waiting = true;
            s.remaining_bytes = 0.0;
            if new_fill {
                if let Some(sh) = shield {
                    sh.request_n(key, 1);
                }
                *rewarm_fills += u64::from(rewarm);
            }
            new_fill
        }
    }
}

/// The cohort fluid engine (see the module doc): the per-session
/// quantum engine (`serve::oracle`) run at cohort granularity, with the
/// same DVR maintenance, origin-fill drain, max-min downlink sharing,
/// ABR, playout and live gates per quantum. Cache objects are the
/// catalog's dense ids; with `p.shields > 0` edge fills drain from
/// shield caches and only shield misses cross the origin link.
///
/// With `stop_above`, the run ends early once the sessions already
/// stalled exceed that fraction of the population: the report's
/// `rebuffer_fraction` then exceeds it too, while its other fields
/// describe the partial run.
pub(crate) fn run_cohorts(
    catalog: &Catalog,
    load: &LoadConfig,
    p: &TierParams,
    stop_above: Option<f64>,
) -> CohortRun {
    let (titles, objects) = (catalog.titles(), catalog.objects());
    let seg_counts: Vec<usize> = titles.iter().map(Manifest::segment_count).collect();
    let q = load.tick_quantum.max(1);

    let mut edges = build_tier(
        objects,
        p.edges,
        p.cache_capacity_bytes,
        p.prewarm,
        p.admission,
    );
    let ring = build_ring(load, p);
    let sampler = (titles.len() > 1).then(|| ZipfSampler::new(titles.len(), p.zipf_s));
    let (mut cohorts, phantoms) = form_cohorts(
        CohortIndex::for_load(load, p.edges, titles.len()),
        &seg_counts,
        load,
        p,
        &mut edges,
        ring.as_ref(),
        sampler.as_ref(),
    );
    let arrived: u64 = cohorts.iter().map(|c| c.n).sum();
    let n_sessions = arrived as usize + phantoms;
    let all_arrived_by = cohorts
        .iter()
        .map(|c| c.state.start_tick)
        .max()
        .unwrap_or(0);

    // The shield tier — empty in the flat topology, which is the
    // legacy code path bit-identically (nothing below consults an
    // empty shield vec). Edge admission sketches likewise build to
    // `None` under admit-always, leaving every insert a plain insert;
    // shields always admit.
    let shields_on = p.shields > 0;
    let mut shields = build_tier(
        objects,
        p.shields,
        p.shield_cache_capacity_bytes,
        p.prewarm,
        AdmissionPolicy::AdmitAll,
    );

    let mut cal = EventCalendar::default();
    for (cid, c) in cohorts.iter().enumerate() {
        cal.push(c.state.start_tick, EventKind::Arrive, cid as u32);
        for g in &c.members {
            if let Some(d) = g.depart_at {
                cal.push(d, EventKind::Depart, cid as u32);
            }
        }
    }
    // Fault actions ride the same heap (payload: action index), so
    // fault replay is exactly as deterministic as arrivals are.
    let fault_actions: &[(u64, FaultAction)] =
        p.faults.as_ref().map_or(&[], |f| f.actions.as_slice());
    for (ai, &(t, _)) in fault_actions.iter().enumerate() {
        cal.push(t, EventKind::Fault, ai as u32);
    }

    let seed = p.faults.as_ref().map(|f| f.seed);
    let mut fs = FaultState::new(p.edges, p.shields, seed, load.seed);
    for &si in fs.edge_shield.iter().filter(|_| shields_on) {
        shields[si].assigned += 1;
    }

    let mut acc = Acc::default();
    let mut engine = EngineStats {
        cohorts: cohorts.len() as u64,
        ..EngineStats::default()
    };
    // The active set is the rest set (lanes and parked cohorts) and
    // `slow`: every other active cohort, ascending by id once sorted
    // (arrivals and wakes append unsorted). `slow` may hold cohorts a
    // departure finished; the full path skips them.
    let reference = full_path_only();
    let mut rest = RestSet::new(p.edges, cohorts.len(), q);
    let mut slow: Vec<u32> = Vec::new();
    let mut slow_sorted = true;
    let mut n_active = 0u64;
    // Per-quantum scratch: lane completions, the full-path order, and
    // the next quantum's slow list.
    let mut finished: Vec<u32> = Vec::new();
    let mut full: Vec<(u32, bool)> = Vec::new();
    let mut next_slow: Vec<u32> = Vec::new();
    let mut downloading = vec![0u64; p.edges];
    let mut lane_dec = vec![0.0f64; p.edges];
    let mut draw = vec![0usize; p.shields];
    let mut landed: Vec<u32> = Vec::new();

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
    let mut alive = arrived;
    let mut last_first_seq = vec![0u64; titles.len()];
    let mut publish_wait_ticks = 0u64;
    let mut window_skips = 0u64;
    // Members of the cohorts whose first rebuffer began on the full
    // path; the rest set counts those that began resting. Every one of
    // them folds as a rebuffer session, so the sum only grows toward
    // the report's `rebuffer_sessions`.
    let mut stalled = 0u64;
    while alive > 0 && now < load.max_ticks {
        if stop_above.is_some_and(|t| stall_fraction(stalled + rest.stalled(), n_sessions) > t) {
            break;
        }
        // Calendar events due this quantum: fault actions mutate the
        // tier; arrivals activate their cohort; a departure folds its
        // member group, departed, at the quantum it fell due — exactly
        // the oracle's loop top; a wake hands a parked cohort back to
        // the full path for this quantum.
        while let Some((tick, kind, cid)) = cal.pop_due(now) {
            if kind == EventKind::Fault {
                // A fault may move classes, change rates or flip the
                // fault flag: lanes flush into `slow` and parked classes
                // settle in place, both under the flag of the quanta
                // they spent there.
                rest.flush(&mut cohorts, &mut slow, now, fs.active);
                publish_wait_ticks += rest.settle_parked(&mut cohorts, now, fs.active);
                slow_sorted = false;
                let action = fault_actions[cid as usize].1;
                // A crash re-homes its classes to survivors; a restart
                // fails them back home.
                let edge_set_changed = fs.apply(action, tick, &mut edges, &mut shields);
                if let Some(r) = ring.as_ref().filter(|_| edge_set_changed) {
                    for &a in &slow {
                        let c = &mut cohorts[a as usize];
                        if !c.done {
                            fs.res.sessions_rehomed += rehome(c, &fs.edge_up, r);
                        }
                    }
                    // Parked classes re-home where they sit; those
                    // stranded on a down edge take the full path.
                    let mut i = 0;
                    while i < rest.parked.len() {
                        let a = rest.parked[i];
                        let c = &mut cohorts[a as usize];
                        fs.res.sessions_rehomed += rehome(c, &fs.edge_up, r);
                        if fs.edge_up[c.edge] {
                            i += 1;
                        } else {
                            rest.unpark(a);
                            slow.push(a);
                        }
                    }
                    // A stranded class a restart moved onto an up edge
                    // parks if its segment is still unpublished.
                    if let Some(l) = p.live.as_ref().filter(|_| !reference) {
                        slow.retain(|&a| {
                            let c = &cohorts[a as usize];
                            if c.done || !fs.edge_up[c.edge] || !gated(c, l, now, &seg_counts) {
                                return true;
                            }
                            rest.park(&mut cal, a, now, l.publish_tick(c.state.seg as u64));
                            false
                        });
                    }
                }
                continue;
            }
            let c = &mut cohorts[cid as usize];
            if c.done {
                continue;
            }
            match kind {
                EventKind::Fault => unreachable!("handled above"),
                EventKind::Arrive => {
                    slow.push(cid);
                    slow_sorted = false;
                    n_active += 1;
                    // A class arriving into a crashed home lands on a
                    // survivor straight away.
                    if let Some(r) = ring.as_ref().filter(|_| fs.active) {
                        fs.res.sessions_rehomed += rehome(c, &fs.edge_up, r);
                    }
                }
                EventKind::Depart => {
                    // A resting cohort stays where it rests, settled up
                    // to now first.
                    publish_wait_ticks += rest.settle(cid, c, now, fs.active);
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
                    rest.depart(cid, c, folded);
                    if c.members.is_empty() {
                        c.done = true;
                        n_active -= 1;
                    }
                }
                EventKind::Wake => {
                    let l = p.live.as_ref().expect("wakes only in live mode");
                    if rest.is_parked(cid) && !gated(c, l, now, &seg_counts) {
                        publish_wait_ticks += rest.settle(cid, c, now, fs.active);
                        rest.unpark(cid);
                        slow.push(cid);
                        slow_sorted = false;
                    }
                }
            }
        }
        // The idle jump: nothing is active, or every active cohort is
        // parked and nothing else can move — no fill in flight, no fault
        // pressure — before the next calendar event. Jump to that
        // event's quantum boundary (or the ceiling): the boundary the
        // oracle's q-at-a-time ticking would reach. Fault events and
        // wakes are calendar events, so the jump never skips one, and
        // parked cohorts settle the jumped quanta when they wake.
        if rest.parked.len() as u64 == n_active
            && (n_active == 0 || (!fs.active && !fills_in_flight(&edges, &shields)))
        {
            let ceiling = quantized_jump(now, load.max_ticks, q);
            now = match cal.next_tick() {
                _ if reference => now.saturating_add(q),
                Some(t) => quantized_jump(now, t, q).min(ceiling),
                None => ceiling,
            };
            continue;
        }
        if !slow_sorted {
            slow.sort_unstable();
            slow_sorted = true;
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
                        let id = objects.id(ti as u32, ri as u32, seq as u32);
                        for node in edges.iter_mut().chain(shields.iter_mut()) {
                            if node.cache.remove(id) {
                                node.stats.invalidations += 1;
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
        let origin_down = p.origin_down_after.is_some_and(|t| now >= t) || fs.flap_down;
        if shields_on {
            // Re-request pass first: edge fills whose serving shield
            // neither caches the object nor has an origin fill in
            // flight (shield crash, failover, or shield-side eviction)
            // re-register as shield misses — one origin fill restarts
            // no matter how many child edges wait on it.
            for (ei, e) in edges.iter().enumerate() {
                let si = fs.edge_shield[ei];
                if !fs.shield_up[si] {
                    continue;
                }
                let sh = &mut shields[si];
                for (&k, _) in e.fills.iter() {
                    if !sh.cache.contains(k) && !sh.fills.contains(&k) {
                        sh.refill(k);
                        progressed = true;
                    }
                }
            }
        }
        let upstream = if shields_on { &mut shields } else { &mut edges };
        let total_fills: usize = upstream.iter().map(|n| n.fills.len()).sum();
        if total_fills > 0 && !origin_down && p.origin_capacity > 0.0 {
            let fill_rate = p.origin_capacity * fs.scale[p.edges] / total_fills as f64;
            for (i, node) in upstream.iter_mut().enumerate() {
                node.drain_fills(fill_rate * step, |_| true, &mut landed);
                // The wiped cache holds an object again: later fills
                // are ordinary demand fills, not re-warm.
                if !shields_on && !landed.is_empty() {
                    fs.rewarming[i] = false;
                }
            }
            progressed = true;
        }
        if shields_on {
            // Shield→edge leg: edge fills whose object the shield now
            // caches drain over the shield's downlink, max-min-shared
            // across that shield's concurrently-drawing fills.
            draw.fill(0);
            for (ei, e) in edges.iter().enumerate() {
                let si = fs.edge_shield[ei];
                if fs.shield_up[si] {
                    draw[si] += e
                        .fills
                        .iter()
                        .filter(|(&k, _)| shields[si].cache.contains(k))
                        .count();
                }
            }
            for (ei, e) in edges.iter_mut().enumerate() {
                let si = fs.edge_shield[ei];
                if !fs.shield_up[si] || draw[si] == 0 {
                    continue;
                }
                let rate = p.shield_capacity / draw[si] as f64;
                let sh = &mut shields[si];
                e.drain_fills(rate * step, |k| sh.cache.contains(k), &mut landed);
                for &k in &landed {
                    sh.cache.touch(k);
                    sh.stats.served_bytes += objects.bytes(k) as u64;
                }
                if !landed.is_empty() {
                    fs.rewarming[ei] = false;
                }
                progressed = true;
            }
        }

        // Per-edge downlink shares, weighted by cohort counts: every
        // lane member downloads; a waiter whose object just landed will
        // download this quantum, so its whole class counts — otherwise a
        // burst of waking waiters would oversubscribe the edge link. A
        // publish-gated cohort counts only if its segment is now live
        // *and* already cached (it will request and hit below).
        downloading.copy_from_slice(&rest.members);
        for &cid in &slow {
            let c = &cohorts[cid as usize];
            if c.done || !fs.edge_up[c.edge] {
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
                        .cache
                        .contains(objects.id(c.title, rung as u32, s.seg as u32))
                }
            } else if s.waiting {
                let key = objects.id(c.title, s.rung as u32, s.seg as u32);
                edges[c.edge].cache.contains(key) || edges[c.edge].pass.contains(&key)
            } else {
                true
            };
            if will_download {
                downloading[c.edge] += c.n;
            }
        }
        // The one per-edge download rate, used by lanes and the full
        // path alike.
        let edge_rate = |e: usize| {
            (p.edge_capacity * fs.scale[e] / downloading[e].max(1) as f64).min(p.per_session)
        };

        // The reference engine steps the quanta the idle jump skips over
        // parked cohorts, and counts them no more than the jump does.
        let jumped = reference
            && !fs.active
            && !fills_in_flight(&edges, &shields)
            && p.live.as_ref().is_some_and(|l| {
                slow.iter()
                    .map(|&cid| &cohorts[cid as usize])
                    .all(|c| c.done || gated(c, l, now, &seg_counts))
            });
        if !jumped {
            engine.quanta += 1;
            engine.cohort_quanta += n_active;
            engine.peak_active = engine.peak_active.max(n_active);
        }
        if !rest.lanes_empty() {
            for (e, dec) in lane_dec.iter_mut().enumerate() {
                *dec = edge_rate(e) * step;
            }
            rest.step(&lane_dec, &mut cohorts, &mut finished, now + q, fs.active);
            progressed = true;
        }
        // The full path, in ascending cohort id: the slow list plus the
        // lane cohorts whose download just completed (`true`: already
        // stepped this quantum, only the completion remains).
        full.clear();
        full.extend(slow.drain(..).map(|cid| (cid, false)));
        if !finished.is_empty() {
            full.extend(finished.drain(..).map(|cid| (cid, true)));
            full.sort_unstable();
        }
        for &(cid, stepped) in &full {
            let Cohort {
                edge,
                title,
                members,
                state: s,
                n,
                done,
                ..
            } = &mut cohorts[cid as usize];
            if *done {
                continue;
            }
            engine.full_path_steps += 1;
            let edge = *edge;
            let title = *title;
            let n = *n;
            let m = &titles[title as usize];
            let nseg = seg_counts[title as usize];
            let e = &mut edges[edge];
            // The shield this edge's fills register on: none in a flat
            // tier, or while the serving shield is down.
            let si = fs.edge_shield[edge];
            let mut sh = shields.get_mut(si).filter(|_| fs.shield_up[si]);
            let rewarm = fs.active || fs.rewarming[edge];
            'step: {
                if !stepped {
                    // Playout drains while the next segment downloads
                    // (or while the class waits on a fill, on the live
                    // edge, or stranded on a down edge), one quantum at
                    // a time like the per-session engine: the
                    // arithmetic `settle` is pinned against.
                    if s.playing {
                        s.buffer_ticks -= step;
                        if s.buffer_ticks < 0.0 {
                            if !s.in_rebuffer {
                                s.in_rebuffer = true;
                                s.rebuffer_events += 1;
                                if s.rebuffer_events == 1 {
                                    stalled += n;
                                }
                                if fs.active {
                                    s.fault_rebuffers += 1;
                                }
                            }
                            s.buffer_ticks = 0.0;
                        }
                    }
                    if fs.active && s.in_rebuffer {
                        s.fault_rebuffer_ticks += q;
                    }
                    if !fs.edge_up[edge] {
                        // Stranded: every edge is down, failover had
                        // nowhere to go (fault pressure, so the stall
                        // above is fault-attributed). No request, fill,
                        // or download can move until a restart
                        // re-homes the class.
                        break 'step;
                    }
                    if !s.started {
                        s.started = true;
                        if p.live
                            .map_or(true, |l| s.seg as u64 <= l.live_seq(now, nseg))
                        {
                            let sh = sh.as_deref_mut();
                            progressed |=
                                request(e, sh, m, title, s, n, rewarm, &mut fs.res.rewarm_fills);
                        } else {
                            s.pending_request = true;
                        }
                    }
                    // A segment chosen but not yet requested: the live
                    // edge had not published it. Re-check the window.
                    if s.pending_request {
                        let l = p.live.expect("pending only in live mode");
                        let first = l.first_seq(now, nseg) as usize;
                        if s.seg < first {
                            // Too slow: the segment expired out of the
                            // DVR window before we ever asked. Skip
                            // forward.
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
                            let sh = sh.as_deref_mut();
                            progressed |=
                                request(e, sh, m, title, s, n, rewarm, &mut fs.res.rewarm_fills);
                        } else {
                            publish_wait_ticks += q * n;
                            break 'step;
                        }
                    }
                    if s.waiting {
                        let key = objects.id(title, s.rung as u32, s.seg as u32);
                        let bytes = m.rungs[s.rung].segments[s.seg].bytes as f64;
                        if e.cache.touch(key) || e.pass.contains(&key) {
                            // The fill landed (cached, or
                            // admission-rejected but passed through):
                            // start the edge-leg download, with
                            // `fetch_start` still at request time so the
                            // ABR sees the full wait. The fall-through
                            // download decrement below marks the
                            // progress.
                            s.waiting = false;
                            s.remaining_bytes += bytes;
                        } else {
                            if !e.fills.contains(&key) {
                                // The filled object was evicted before
                                // this class could download it — or the
                                // class was just re-homed onto an edge
                                // with no fill in flight: re-request
                                // (one fill restarts no matter how many
                                // members wait).
                                e.refill(key);
                                if let Some(sh) = sh.as_deref_mut() {
                                    sh.request_n(key, 1);
                                }
                                progressed = true;
                                fs.res.rewarm_fills += u64::from(rewarm);
                            }
                            break 'step;
                        }
                    }
                    s.remaining_bytes -= edge_rate(edge) * step;
                    progressed = true;
                    let entry = &m.rungs[s.rung].segments[s.seg];
                    if s.remaining_bytes > completion_eps(entry.bytes as f64) {
                        break 'step;
                    }
                }
                // Segment complete at the end of this quantum — for
                // every member at once (the class shares one download
                // trajectory).
                let entry = &m.rungs[s.rung].segments[s.seg];
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
                    s.startup_ticks = end - s.start_tick;
                }
                s.seg += 1;
                if s.seg == nseg {
                    for g in members.iter() {
                        acc.fold(s, g, Some(end), true, now);
                    }
                    alive -= n;
                    *done = true;
                    break 'step;
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
                        // Caught up with the live edge: wait for the
                        // next publish, discarding the download
                        // overshoot (the link idles — pacing, not
                        // congestion).
                        s.pending_request = true;
                        s.remaining_bytes = 0.0;
                        break 'step;
                    }
                }
                let next_rung = pick_rung(s, m);
                if next_rung != s.rung {
                    s.rung_switches += 1;
                }
                s.rung = next_rung;
                progressed |= request(e, sh, m, title, s, n, rewarm, &mut fs.res.rewarm_fills);
                s.fetch_start = end;
            }
            // Where the cohort waits for the next quantum: gone, parked
            // until its segment publishes, in its edge's lane (plain), or
            // slow.
            if *done {
                n_active -= 1;
            } else if reference || !fs.edge_up[edge] || s.waiting {
                next_slow.push(cid);
            } else if s.pending_request {
                let l = p.live.expect("pending only in live mode");
                rest.park(&mut cal, cid, now + q, l.publish_tick(s.seg as u64));
            } else {
                let eps = completion_eps(m.rungs[s.rung].segments[s.seg].bytes as f64);
                rest.enter(cid, &cohorts[cid as usize], eps, now + q);
            }
        }
        std::mem::swap(&mut slow, &mut next_slow);
        // Pass-set entries only bridge a fill's completion to its
        // waiters' wake within the quantum; clear them so an admission
        // reject never masquerades as a cache hit later. Always empty
        // under admit-always (the legacy path clears nothing).
        for e in edges.iter_mut() {
            e.pass.clear();
        }
        now += q;
        // Stasis: every arrival has happened and a whole quantum passed
        // with no byte moved anywhere (e.g. an origin outage with cold
        // caches) — and no publish or departure is still due, so the
        // state can never change again. A parked cohort will wake to a
        // publish, so the cheap checks come first. Nothing progressed, so
        // the lanes are empty, and with nothing parked `slow` is the
        // whole active set.
        // A scheduled restart or recovery can still unfreeze a fully
        // stalled tier; a plan that crashes everything forever leaves
        // nothing due and terminates cleanly here.
        if !progressed && now > all_arrived_by && rest.parked.is_empty() && !cal.fault_pending() {
            let active = || {
                slow.iter()
                    .map(|&cid| &cohorts[cid as usize])
                    .filter(|c| !c.done)
            };
            // Stranded classes (their edge is down) cannot consume a
            // publish or wake as waiters — only a fault event revives
            // them, and no fault is due.
            let any_unstranded = active().any(|c| fs.edge_up[c.edge]);
            let publishes_due = any_unstranded
                && p.live.is_some_and(|l| {
                    active().any(|c| {
                        let nseg = seg_counts[c.title as usize];
                        l.live_seq(now, nseg) < nseg as u64 - 1
                    })
                });
            // A pending cohort will request (and progress) once its
            // segment publishes — including the final one, which may
            // have gone live this very quantum without being consumed
            // yet.
            let waiters_due = active().any(|c| fs.edge_up[c.edge] && c.state.pending_request);
            if !publishes_due && !waiters_due && !cal.departure_pending(&cohorts) {
                break;
            }
        }
    }
    // Survivors (still downloading at the ceiling, or never arrived)
    // fold with the oracle's unfinished-session arithmetic.
    rest.flush(&mut cohorts, &mut slow, now, fs.active);
    publish_wait_ticks += rest.settle_parked(&mut cohorts, now, fs.active);
    for c in &cohorts {
        if !c.done {
            for g in &c.members {
                acc.fold(&c.state, g, None, false, now);
            }
        }
    }
    debug_assert_eq!(stalled + rest.stalled(), acc.rebuffer_sessions);
    let live = LiveStats {
        mean_latency_ticks: acc.latency_sum as f64 / acc.fetched.max(1) as f64,
        max_latency_ticks: acc.latency_max,
        publish_wait_ticks,
        window_skips,
    };
    CohortRun {
        report: acc.report(n_sessions, now),
        edges,
        shields,
        live,
        resilience: fs.resilience(acc.fault_rebuffer_sessions, acc.fault_rebuffer_ticks),
        engine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::edge::{EdgeTierConfig, Sharding};
    use crate::fault::{FaultPlan, RestartMode};
    use crate::ladder::{encode_ladder, LadderConfig};
    use crate::serve::{
        oracle, simulate, CdnConfig, CdnLoadReport, ChurnConfig, LiveConfig, Scenario,
    };
    use crate::session::{AbrController, JoinMode};
    use crate::shield::AdmissionPolicy;
    use proptest::prelude::*;
    use video::synth::SequenceGen;

    pub(super) fn manifest() -> Manifest {
        ladder(16)
    }

    /// A three-rung ladder of `frames` frames, four to a segment.
    fn ladder(frames: usize) -> Manifest {
        let frames = SequenceGen::new(44).panning_sequence(48, 32, frames, 1, 0);
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
    pub(super) fn params(m: &Manifest, cdn: CdnConfig, live: Option<LiveConfig>) -> TierParams {
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
        let c = run_cohorts(&Catalog::single(manifest.clone()), load, p, None);
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

    pub(super) fn test_state() -> CohortState {
        CohortState {
            abr: AbrController::new(0.3, 0.7),
            start_tick: 10,
            startup_ticks: 6,
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
    fn staggered_arrival_waves_match_the_oracle() {
        // 64 sessions spread over 64 ticks: many small cohorts, all
        // downloading side by side in one edge's lane, must still match
        // the per-session oracle exactly.
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
    fn only_arrivals_and_completions_take_the_full_path() {
        // A warm single origin never waits on a fill: each cohort takes
        // the full path once on arrival and once per completed segment,
        // and every other quantum it spends is a lane step.
        let m = manifest();
        let load = LoadConfig {
            sessions: 64,
            stagger_ticks: 64,
            ..Default::default()
        };
        let p = params(&m, CdnConfig::single_origin(), None);
        let e = run_cohorts(&Catalog::single(m.clone()), &load, &p, None).engine;
        assert!(e.cohorts > 1 && e.peak_active <= e.cohorts, "{e:?}");
        assert_eq!(
            e.full_path_steps,
            e.cohorts * (1 + m.segment_count() as u64),
            "{e:?}"
        );
        assert!(e.cohort_quanta > 2 * e.full_path_steps, "{e:?}");
        assert!(e.cohort_quanta <= e.quanta * e.peak_active, "{e:?}");

        // Live viewers under fault pressure: warm edges never wait on a
        // fill, so beyond arrivals and completions only wakes (at most
        // one per segment a cohort waits on) and the cohorts each fault
        // event flushes out of the lanes take the full path. Parked
        // cohorts stay parked through the faults and lanes stay open.
        let m = ladder(48);
        let nseg = m.segment_count() as u64;
        let c = Catalog::single(m);
        let plan = FaultPlan::new(0xFA17)
            .crash_edge(1, 500, Some((1_500, RestartMode::Warm)))
            .degrade_link(Some(0), 300, 2_000, 0.5)
            .flap_origin(400, 1_200);
        let fault_events = 6;
        let live = Scenario {
            live: Some(LiveConfig {
                dvr_window_segments: 4,
                ..Default::default()
            }),
            faults: &plan,
            ..Scenario::new(
                &c,
                CdnConfig::flat(EdgeTierConfig {
                    edges: 3,
                    ..Default::default()
                }),
                LoadConfig {
                    sessions: 60,
                    stagger_ticks: 1_500,
                    ..Default::default()
                },
            )
        };
        let r = simulate(&live);
        let e = r.engine;
        assert!(r.resilience.sessions_rehomed > 0, "{:?}", r.resilience);
        assert!(r.live.publish_wait_ticks > 0, "{:?}", r.live);
        assert!(
            e.full_path_steps <= e.cohorts * (1 + 2 * nseg + fault_events),
            "{e:?}"
        );
        assert!(e.cohort_quanta > 4 * e.full_path_steps, "{e:?}");
    }

    #[test]
    fn lane_cohorts_that_underrun_mid_download_match_the_oracle() {
        // An edge downlink (30 bytes/tick shared by up to 24 viewers)
        // slower than playout: once playing, cohorts can run dry while
        // their next segment is still downloading in a lane, so their
        // rebuffers are entered by the drain settled on lane exit. A
        // warm single origin never waits on a fill, so every quantum
        // but an arrival or a completion is a lane step.
        let m = manifest();
        for quantum in [1, 3, 8] {
            let load = LoadConfig {
                sessions: 24,
                stagger_ticks: 300,
                tick_quantum: quantum,
                ..Default::default()
            };
            let mut cdn = CdnConfig::single_origin();
            cdn.tier.edge_capacity_bytes_per_tick = 30.0;
            let p = params(&m, cdn, None);
            let run = run_cohorts(&Catalog::single(m.clone()), &load, &p, None);
            let e = run.engine;
            // Both settle branches: some buffers ran dry, some held.
            let rebuffered = run.report.rebuffer_sessions;
            assert!(
                rebuffered > 0 && rebuffered < 24,
                "q {quantum}: {rebuffered}"
            );
            assert_eq!(
                e.full_path_steps,
                e.cohorts * (1 + m.segment_count() as u64),
                "q {quantum}: {e:?}"
            );
            assert_matches_oracle(&m, &load, &p);
        }
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
        let run = run_cohorts(&Catalog::single(m.clone()), &load, &p, None);
        assert!(run.report.departed > 0, "config must actually churn");
        assert_matches_oracle(&m, &load, &p);
    }

    /// `s` through the reference engine, where every active cohort
    /// takes the full path every quantum.
    fn simulate_full_path_only(s: &Scenario) -> CdnLoadReport {
        FULL_PATH_ONLY.with(|f| f.set(true));
        let r = simulate(s);
        FULL_PATH_ONLY.with(|f| f.set(false));
        r
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Lanes, parking, both settles and the idle jump against the
        /// reference engine, under every fault kind: the oracle has no
        /// faults, so this is what pins the fault paths beyond the
        /// fixed goldens. Reports must be equal field for field, and so
        /// must every engine counter but the full-path steps saved.
        #[test]
        fn full_path_reference_matches_the_shipped_engine(
            mode in 0u8..3,
            titles in 1usize..3,
            population in (1usize..40, 0u64..1200, any::<u64>(), 1u64..9),
            tier in (1usize..5, 0usize..3, 0usize..3, any::<bool>(), 30.0f64..3000.0),
            churn in (0usize..16, 1.0f64..120.0, 0.0f64..1500.0),
            faults in proptest::collection::vec(
                (0u8..4, 0u64..2000, 1u64..1500, 0usize..5, any::<bool>(), 0.1f64..0.9),
                0..6,
            ),
            fault_seed in any::<u64>(),
        ) {
            let (sessions, stagger, seed, quantum) = population;
            let (edges, shields, shard_mode, prewarm, edge_capacity) = tier;
            let (churn_sessions, interarrival, watch) = churn;
            let m = ladder(32);
            let catalog = if titles == 1 {
                Catalog::single(m)
            } else {
                Catalog::synthesize(&m, titles, 0.9)
            };
            let plan = faults.iter().fold(
                FaultPlan::new(fault_seed),
                |plan, &(kind, at, span, which, cold, scale)| {
                    let restart = (span < 1_400).then_some((
                        at + span,
                        if cold { RestartMode::Cold } else { RestartMode::Warm },
                    ));
                    match kind {
                        0 => plan.crash_edge(which % edges, at, restart),
                        1 => plan.crash_shield(which % shields.max(1), at, restart),
                        2 => plan.flap_origin(at, at + span),
                        _ => plan.degrade_link(
                            (which < edges).then_some(which),
                            at,
                            at + span,
                            scale,
                        ),
                    }
                },
            );
            let live = LiveConfig {
                dvr_window_segments: 4,
                head_start_segments: u64::from(mode == 2),
                join: if mode == 2 { JoinMode::DvrStart } else { JoinMode::LiveEdge },
                ..Default::default()
            };
            let s = Scenario {
                live: (mode > 0).then_some(live),
                faults: &plan,
                ..Scenario::new(
                    &catalog,
                    CdnConfig {
                        tier: EdgeTierConfig {
                            edges,
                            sharding: match shard_mode {
                                0 => Sharding::RoundRobin,
                                1 => Sharding::Hash,
                                _ => Sharding::Ring,
                            },
                            prewarm,
                            edge_capacity_bytes_per_tick: edge_capacity,
                            ..Default::default()
                        },
                        shields,
                        shield_cache_capacity_bytes: usize::MAX,
                        shield_capacity_bytes_per_tick: 8_000.0,
                        admission: AdmissionPolicy::AdmitAll,
                    },
                    LoadConfig {
                        sessions,
                        stagger_ticks: stagger,
                        seed,
                        tick_quantum: quantum,
                        churn: ChurnConfig {
                            churn_sessions,
                            mean_interarrival_ticks: interarrival,
                            mean_watch_ticks: watch,
                            ..Default::default()
                        },
                        ..Default::default()
                    },
                )
            };
            let shipped = simulate(&s);
            let reference = simulate_full_path_only(&s);
            prop_assert!(
                shipped.engine.full_path_steps <= reference.engine.full_path_steps,
                "{:?} vs {:?}",
                shipped.engine,
                reference.engine
            );
            let mut same = shipped;
            same.engine.full_path_steps = reference.engine.full_path_steps;
            prop_assert_eq!(same, reference);
        }

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
