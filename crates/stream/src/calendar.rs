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
//!   become equal again, and a sweep looking for equal classes cost
//!   more than the rare merge saved. Members differ only in when (if
//!   ever) they churn away, kept as [`MemberGroup`]s.
//! * **The calendar.** A binary-heap [`EventCalendar`] keyed on each
//!   cohort's discrete events (arrival, churn departure, publish wake)
//!   drives the clock: departures, arrivals and wakes touch only the
//!   cohort they name, and the *idle jump* moves the clock straight to
//!   the quantum boundary of the next event when nothing can change
//!   before it — no cohort is active, or every active cohort is parked
//!   on a publish while no fill is in flight and no fault pressure
//!   lasts. Those jumped quanta are not stepped (see
//!   [`EngineStats::quanta`]).
//! * **Settling in closed form.** Outside an event, a cohort does one
//!   of two things per quantum besides downloading: it drains playout
//!   (a plain download) or it drains playout and waits `q` ticks on a
//!   publish (a publish-gated live viewer). Both are settled for `j`
//!   quanta at once by one `settle`: the buffer either covers `j * q`
//!   and drops by exactly that, or it ran dry in quantum
//!   `buffer / q + 1`, entering rebuffer once (unless already
//!   rebuffering) and ending at 0; every quantum from there on is a
//!   stalled one. That equals `j` clamped per-quantum drains exactly,
//!   because buffers and `q` are integer-valued f64 below 2^53 and
//!   nothing else touches the buffer, `playing` or `in_rebuffer` in
//!   between (only a completion, on the full path, refills the buffer
//!   and ends a rebuffer). Under fault pressure a rebuffer that begins
//!   counts as a fault rebuffer and each stalled quantum adds `q` fault
//!   rebuffer ticks, as on the full path; `settle` takes the one fault
//!   flag of the settled quanta (below).
//! * **Download lanes.** A *plain* cohort — started, on an up edge,
//!   neither waiting on a fill nor gated on a publish — lives in compact
//!   per-edge [`Lanes`] holding just the download, stepped with one
//!   per-edge `rate * step`: a lane step is `remaining -= dec` and a
//!   completion compare, nothing else. An entry records the lane's
//!   quantum count when it entered, and its playout is settled when the
//!   cohort leaves (completion, departure, fault flush, end of run). The
//!   edge's downloading count is the lanes' member sum, not a pass over
//!   every cohort.
//! * **Parking.** A live cohort that ends its full step still pending
//!   on a segment its title has not published, on an up edge, leaves
//!   the active list: it records the first quantum it has not stepped
//!   and pushes one [`EventKind::Wake`] at the segment's publish tick.
//!   The wake (or a departure, or a fault event) settles the quanta it
//!   slept through — playout, `publish_wait_ticks` and the fault
//!   ledger — and the woken cohort runs that quantum's full step as if
//!   it had never left. This is what turns a 400-tick publish pace into
//!   O(download quanta) work per segment instead of O(pace), under
//!   fault pressure too.
//! * **Fault replay.** A resolved [`crate::fault::FaultPlan`] schedules
//!   its actions on the same event heap (sorting before same-tick
//!   arrivals), so crashes, restarts, origin flaps, and degradation
//!   spans replay deterministically at any scale. Classes whose home
//!   edge crashes re-home across the failover ring to survivors and
//!   fail back on restart; rebuffers that begin under fault pressure
//!   pin the class to the lowest rung (graceful degradation) and are
//!   tallied into [`ResilienceStats`]. The fault flag changes only at
//!   fault events, and every fault event first flushes the lanes and
//!   settles every parked cohort in place under the flag from *before*
//!   the event. So each lane stay and each parked stretch has one flag,
//!   and the closed form stays exact under fault pressure. Parked
//!   cohorts re-home where they sit; only those *stranded* on a down
//!   edge (every edge down, nowhere to fail over) wake into the full
//!   path, and a stranded cohort that a restart re-homes while its
//!   segment is still unpublished parks again. A run without a plan
//!   never touches any of this — plan-free reports are bit-identical to
//!   pre-fault builds.
//!
//! Only arrivals, segment completions, wakes, waiters, stranded cohorts
//! and the cohorts a fault event flushed run the full per-cohort path,
//! in ascending cohort id, so every cache touch, fill start and report
//! fold keeps the per-session engine's order. Per-quantum cost is
//! O(lane entries) of flat arithmetic plus O(events) of real work.
//!
//! Exactness contract, pinned by the oracle-equivalence property tests
//! below, the golden tests in `serve`, and the digest golden in the
//! workspace's `fluid_golden` suite: for unbounded edge caches (every
//! `BENCH` knee sweep), reports are identical to the per-session
//! quantum oracle — integer fields bit-exact, f64 fields to 1e-9
//! (summation order). The oracle has no faults; under faults the
//! `full_path_reference_matches_the_shipped_engine` property pins lanes,
//! parking and both settles to a test-only reference run in which every
//! active cohort takes the full path every quantum. A lane step is the
//! full path's own arithmetic (the same f64 expressions, in the same
//! order per cohort), so lanes change no report bit. Bounded caches
//! under *eviction* are the one documented divergence from the oracle:
//! a cohort touches the LRU once per class rather than once per member,
//! so recency interleaving — and hence eviction victims — can legally
//! differ; reports remain deterministic and within the behavioural
//! tolerances the bounded-cache tests assert.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use signal::rng::splitmix64;

use crate::catalog::ZipfSampler;
use crate::edge::{HashRing, WordHashMap};
use crate::fault::{FaultAction, ResilienceStats};
use crate::ladder::Manifest;
use crate::serve::{
    build_ring, build_schedule, build_tier, completion_eps, join_point, obj_bytes, shard_edge,
    title_for, EngineStats, FluidNode, LiveSim, LiveStats, LoadConfig, LoadReport, Req, TierParams,
    RING_VNODES, SHIELD_KEY_SALT, SHIELD_RING_SALT,
};
use crate::session::AbrController;
use crate::shield::{shield_home, AdmissionPolicy, ObjKey};

/// The cohort-formation index: formation does one lookup per
/// *session* (the only O(population) hot path left), so it hashes with
/// the crate's cheap [`WordHasher`](crate::edge::WordHasher).
/// Determinism does not depend on the hash — cohort order is schedule
/// order — this is wall-clock only.
type CohortIndex = WordHashMap<(u64, usize, u32), u32>;

/// The dynamic state every member of a cohort shares, bit for bit:
/// the per-session engine's `SimSession` minus churn, which lives in
/// [`MemberGroup`]s.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CohortState {
    pub(crate) abr: AbrController,
    /// The tick every member arrived on.
    pub(crate) start_tick: u64,
    /// Ticks from arrival to first play, once playing.
    pub(crate) startup_ticks: u64,
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

/// `count` members of a cohort that depart (if churned) at
/// `depart_at`. A departure folds its group out of the class while the
/// rest keeps simulating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemberGroup {
    pub(crate) depart_at: Option<u64>,
    pub(crate) count: u64,
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
    /// The catalog popularity rank every member watches. Always `0` on
    /// a single-title run.
    pub(crate) title: u32,
    /// Deterministic failover key on the consistent-hash ring (from the
    /// fault plan's seed). `0` on plan-free runs, where it is never
    /// routed.
    pub(crate) ring_key: u64,
    pub(crate) members: Vec<MemberGroup>,
    pub(crate) state: CohortState,
    /// Cached member count (`members` group counts summed), maintained
    /// on formation and departures.
    pub(crate) n: u64,
    /// Every member folded into the report (completed or departed) —
    /// the engine never touches this cohort again.
    pub(crate) done: bool,
}

/// Discrete per-cohort events the calendar orders. Fault actions sort
/// first (a crash at tick t is visible to a tick-t arrival), then
/// arrivals before departures on the same tick, mirroring the quantum
/// engine's arrivals-then-departures loop top; wakes come last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKind {
    /// A [`FaultAction`] falls due; the payload is an index into the
    /// resolved action list, not a cohort id.
    Fault,
    Arrive,
    Depart,
    /// The segment a parked cohort waits on publishes. Stale once the
    /// cohort was unparked or parked again for a later segment.
    Wake,
}

/// The binary-heap event calendar: a min-heap of `(tick, kind, cohort)`
/// so the engine pops exactly the events due by the current quantum and
/// can fast-forward an idle clock to the next event boundary.
#[derive(Debug, Default)]
pub(crate) struct EventCalendar {
    heap: BinaryHeap<Reverse<(u64, EventKind, u32)>>,
    /// Fault actions still on the heap.
    faults: usize,
}

impl EventCalendar {
    pub(crate) fn push(&mut self, tick: u64, kind: EventKind, cohort: u32) {
        self.faults += usize::from(kind == EventKind::Fault);
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
        let Reverse(e) = self.heap.pop()?;
        self.faults -= usize::from(e.1 == EventKind::Fault);
        Some(e)
    }

    /// Whether any *future* departure still targets a live cohort
    /// (due events were popped already), for the stasis detector.
    fn departure_pending(&self, cohorts: &[Cohort]) -> bool {
        self.heap.iter().any(|&Reverse((_, kind, cid))| {
            kind == EventKind::Depart && !cohorts[cid as usize].done
        })
    }

    /// Whether any fault action is still scheduled — a pending restart
    /// or recovery can unfreeze a run the stasis detector would
    /// otherwise declare dead.
    fn fault_pending(&self) -> bool {
        self.faults > 0
    }
}

/// Settles `j` quanta of `q` ticks in which a cohort only drained
/// playout: the closed form of `j` clamped per-quantum drains, exact for
/// the integer-valued buffers the engine uses (see the module doc).
/// With `fault`, a rebuffer that begins is a fault rebuffer and every
/// stalled quantum adds `q` fault rebuffer ticks.
fn settle(s: &mut CohortState, j: u64, q: u64, fault: bool) {
    let mut stalled = if s.in_rebuffer { j } else { 0 };
    if s.playing {
        let drain = (j * q) as f64;
        if s.buffer_ticks >= drain {
            s.buffer_ticks -= drain;
        } else {
            if !s.in_rebuffer {
                s.in_rebuffer = true;
                s.rebuffer_events += 1;
                s.fault_rebuffers += u32::from(fault);
                // The buffer ran dry in quantum `buffer / q + 1` of `j`.
                stalled = j - s.buffer_ticks as u64 / q;
            }
            s.buffer_ticks = 0.0;
        }
    }
    if fault {
        s.fault_rebuffer_ticks += stalled * q;
    }
}

/// The hot state of one plain cohort: what a quantum without events
/// reads and writes. The rest of its state is fixed while the cohort
/// stays in its lane: playout is settled from `entered` when it leaves.
#[derive(Debug, Clone, Copy)]
struct LaneEntry {
    remaining: f64,
    /// `completion_eps` of the segment being downloaded.
    eps: f64,
    cid: u32,
    /// [`Lanes::quanta`] when the cohort entered its lane.
    entered: u64,
}

impl LaneEntry {
    /// Writes the download back and settles the `quanta - entered`
    /// quanta of `q` ticks spent in the lane, all under `fault`.
    fn write_back(&self, s: &mut CohortState, quanta: u64, q: u64, fault: bool) {
        s.remaining_bytes = self.remaining;
        settle(s, quanta - self.entered, q, fault);
    }
}

const NO_SLOT: u32 = u32::MAX;

/// Per-edge download lanes of plain cohorts (see the module doc).
struct Lanes {
    edges: Vec<Vec<LaneEntry>>,
    /// Members per edge across its lane: the edge's plain downloaders.
    members: Vec<u64>,
    /// Each cohort's index in its edge's lane, or [`NO_SLOT`].
    slot: Vec<u32>,
    len: usize,
    /// Lane steps so far: a cohort's stay is the difference between
    /// this count when it leaves and when it entered.
    quanta: u64,
    /// Ticks per quantum.
    q: u64,
    /// Scratch for [`Lanes::step`]: lane indices whose download
    /// completed this quantum, ascending.
    done: Vec<u32>,
}

impl Lanes {
    fn new(edges: usize, cohorts: usize, q: u64) -> Self {
        Self {
            edges: vec![Vec::new(); edges],
            members: vec![0; edges],
            slot: vec![NO_SLOT; cohorts],
            len: 0,
            quanta: 0,
            q,
            done: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Puts plain cohort `cid` in its edge's lane; `eps` is the
    /// completion threshold of the segment it is downloading.
    fn enter(&mut self, cid: u32, c: &Cohort, eps: f64) {
        let lane = &mut self.edges[c.edge];
        self.slot[cid as usize] = lane.len() as u32;
        lane.push(LaneEntry {
            remaining: c.state.remaining_bytes,
            eps,
            cid,
            entered: self.quanta,
        });
        self.members[c.edge] += c.n;
        self.len += 1;
    }

    /// Takes cohort `cid` out of its lane, writing its state back.
    /// `None` when it was not in one.
    fn leave(&mut self, cid: u32, c: &mut Cohort, fault: bool) -> Option<LaneEntry> {
        let slot = std::mem::replace(&mut self.slot[cid as usize], NO_SLOT);
        if slot == NO_SLOT {
            return None;
        }
        let lane = &mut self.edges[c.edge];
        let entry = lane.swap_remove(slot as usize);
        if let Some(moved) = lane.get(slot as usize) {
            self.slot[moved.cid as usize] = slot;
        }
        entry.write_back(&mut c.state, self.quanta, self.q, fault);
        self.members[c.edge] -= c.n;
        self.len -= 1;
        Some(entry)
    }

    /// Empties every lane into `slow`, writing state back.
    fn flush(&mut self, cohorts: &mut [Cohort], slow: &mut Vec<u32>, fault: bool) {
        if self.is_empty() {
            return;
        }
        for (lane, members) in self.edges.iter_mut().zip(&mut self.members) {
            for l in lane.drain(..) {
                l.write_back(
                    &mut cohorts[l.cid as usize].state,
                    self.quanta,
                    self.q,
                    fault,
                );
                self.slot[l.cid as usize] = NO_SLOT;
                slow.push(l.cid);
            }
            *members = 0;
        }
        self.len = 0;
    }

    /// One quantum of every lane: each download drains by `dec[edge]`,
    /// exactly the full path's arithmetic; playout is settled on exit.
    /// Cohorts whose download completed leave their lane (state written
    /// back under `fault`) and are appended to `finished`.
    fn step(&mut self, dec: &[f64], cohorts: &mut [Cohort], finished: &mut Vec<u32>, fault: bool) {
        self.quanta += 1;
        for (e, lane) in self.edges.iter_mut().enumerate() {
            let dec = dec[e];
            self.done.clear();
            for (i, l) in lane.iter_mut().enumerate() {
                l.remaining -= dec;
                if l.remaining <= l.eps {
                    self.done.push(i as u32);
                }
            }
            // Descending, so each swap_remove pulls in an entry that is
            // not itself done.
            for &i in self.done.iter().rev() {
                let i = i as usize;
                let l = lane.swap_remove(i);
                if let Some(moved) = lane.get(i) {
                    self.slot[moved.cid as usize] = i as u32;
                }
                self.slot[l.cid as usize] = NO_SLOT;
                let c = &mut cohorts[l.cid as usize];
                l.write_back(&mut c.state, self.quanta, self.q, fault);
                self.members[e] -= c.n;
                self.len -= 1;
                finished.push(l.cid);
            }
        }
    }
}

/// Publish-gated cohorts parked on the calendar (see the module doc):
/// each is on an up edge and has a [`EventKind::Wake`] pending at the
/// publish tick of the segment it waits on.
struct Parked {
    cids: Vec<u32>,
    /// Each cohort's index in `cids`, or [`NO_SLOT`].
    slot: Vec<u32>,
    /// Each parked cohort's first quantum not yet settled.
    since: Vec<u64>,
    /// Ticks per quantum.
    q: u64,
}

impl Parked {
    fn new(cohorts: usize, q: u64) -> Self {
        Self {
            cids: Vec::new(),
            slot: vec![NO_SLOT; cohorts],
            since: vec![0; cohorts],
            q,
        }
    }

    fn len(&self) -> usize {
        self.cids.len()
    }

    fn contains(&self, cid: u32) -> bool {
        self.slot[cid as usize] != NO_SLOT
    }

    /// Parks `cid` from quantum `since` on, to wake at tick `wake`.
    fn park(&mut self, cal: &mut EventCalendar, cid: u32, since: u64, wake: u64) {
        self.slot[cid as usize] = self.cids.len() as u32;
        self.cids.push(cid);
        self.since[cid as usize] = since;
        cal.push(wake, EventKind::Wake, cid);
    }

    fn unpark(&mut self, cid: u32) {
        let slot = std::mem::replace(&mut self.slot[cid as usize], NO_SLOT) as usize;
        self.cids.swap_remove(slot);
        if let Some(&moved) = self.cids.get(slot) {
            self.slot[moved as usize] = slot as u32;
        }
    }

    /// Settles the quanta parked cohort `cid` slept through before
    /// `now`, all under `fault`: each was a publish-gated full step that
    /// drained playout and waited `q` ticks per member. Returns the
    /// publish-wait ticks.
    fn settle(&mut self, cid: u32, c: &mut Cohort, now: u64, fault: bool) -> u64 {
        let since = std::mem::replace(&mut self.since[cid as usize], now);
        let j = (now - since) / self.q;
        settle(&mut c.state, j, self.q, fault);
        j * self.q * c.n
    }

    /// [`Parked::settle`] for every parked cohort.
    fn settle_all(&mut self, cohorts: &mut [Cohort], now: u64, fault: bool) -> u64 {
        let mut wait = 0;
        for i in 0..self.cids.len() {
            let cid = self.cids[i];
            wait += self.settle(cid, &mut cohorts[cid as usize], now, fault);
        }
        wait
    }
}

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
    pub(crate) edges: Vec<FluidNode>,
    /// The shield tier's caches — empty in a flat topology.
    pub(crate) shields: Vec<FluidNode>,
    pub(crate) live: LiveStats,
    /// All zero on a plan-free run.
    pub(crate) resilience: ResilienceStats,
    pub(crate) engine: EngineStats,
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
    edges: &mut [FluidNode],
    ring: Option<&HashRing>,
    sampler: Option<&ZipfSampler>,
) -> Vec<Cohort> {
    let fault_seed = p.faults.as_ref().map(|f| f.seed);
    let mut cohorts: Vec<Cohort> = Vec::new();
    let mut index = CohortIndex::with_capacity_and_hasher(1024, Default::default());
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
                    start_tick,
                    startup_ticks: 0,
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
                depart_at,
                count: 1,
            });
        }
    }
    cohorts
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
    let key = (title, s.rung as u32, s.seg as u32);
    let bytes = m.rungs[s.rung].segments[s.seg].bytes as f64;
    match edge.request_n(key, bytes, n) {
        Req::Hit => {
            s.remaining_bytes += bytes;
            false
        }
        Req::Wait(new_fill) => {
            s.waiting = true;
            s.remaining_bytes = 0.0;
            if new_fill {
                if let Some(sh) = shield {
                    sh.request_n(key, bytes, 1);
                }
                *rewarm_fills += u64::from(rewarm);
            }
            new_fill
        }
    }
}

/// Crashes node `i` of a tier at `tick` (`restart` is `None`) or
/// restarts it (`Some(cold)`). A crash fails the node's in-flight fills
/// and keeps the crash tick; a restart adds the ticks it was down to
/// `restore_sum` and, when cold, wipes its cache. Returns `false`,
/// changing nothing, when the node already is in that state.
fn crash_or_restart(
    nodes: &mut [FluidNode],
    up: &mut [bool],
    i: usize,
    restart: Option<bool>,
    tick: u64,
    fills_lost: &mut u64,
    restore_sum: &mut u64,
) -> bool {
    if up[i] == restart.is_some() {
        return false;
    }
    up[i] = restart.is_some();
    let node = &mut nodes[i];
    match restart {
        None => {
            node.crash_tick = Some(tick);
            let lost: Vec<ObjKey> = node.fills.iter().map(|(k, _)| k.0).collect();
            *fills_lost += lost.len() as u64;
            for k in lost {
                node.fills.fail(&k, 0);
            }
        }
        Some(cold) => {
            if let Some(t0) = node.crash_tick.take() {
                *restore_sum += tick - t0;
            }
            if cold {
                node.lru.clear();
            }
        }
    }
    true
}

/// The cohort fluid engine. Semantically the per-session quantum
/// engine (`serve::oracle`) run at cohort granularity: identical DVR
/// maintenance, origin-fill drain, max-min downlink sharing, ABR,
/// playout, and live gates per quantum — with plain downloads stepped
/// in per-edge lanes, idle stretches jumped via the event calendar, and
/// finished classes folded straight into the report accumulator.
/// Multi-title catalogs key every cache object by `(title, rung, seg)`;
/// a shield tier (when `p.shields > 0`) sits between the edges and the
/// origin, so edge fills drain from shield caches and only shield
/// misses cross the true origin link.
pub(crate) fn run_cohorts(titles: &[Manifest], load: &LoadConfig, p: &TierParams) -> CohortRun {
    let seg_counts: Vec<usize> = titles.iter().map(Manifest::segment_count).collect();
    let q = load.tick_quantum.max(1);

    let mut edges = build_tier(
        titles,
        p.edges,
        p.cache_capacity_bytes,
        p.prewarm,
        p.admission,
    );
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
    // empty shield vec). Edge admission sketches likewise build to
    // `None` under admit-always, leaving every insert a plain insert;
    // shields always admit.
    let shields_on = p.shields > 0;
    let mut shields = build_tier(
        titles,
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
    let faulted = p.faults.is_some();
    let fault_seed = p.faults.as_ref().map(|f| f.seed);
    let fault_actions: &[(u64, FaultAction)] =
        p.faults.as_ref().map_or(&[], |f| f.actions.as_slice());
    for (ai, &(t, _)) in fault_actions.iter().enumerate() {
        cal.push(t, EventKind::Fault, ai as u32);
    }

    // Fault state. All of it is inert on a plan-free run: every edge
    // stays up, every scale stays exactly 1.0 (and `x * 1.0` is
    // IEEE-exact), so the plan-free trajectory is bit-identical.
    let mut edge_up = vec![true; p.edges];
    let mut shield_up = vec![true; p.shields];
    // Which shield each edge currently fills from: its home, unless
    // the home is down and the shield ring re-routed it to a survivor
    // (0 in a flat tier, which has no shield to index).
    let mut edge_shield: Vec<usize> = (0..p.edges)
        .map(|e| shield_home(e, p.edges, p.shields.max(1)))
        .collect();
    for &si in edge_shield.iter().filter(|_| shields_on) {
        shields[si].assigned += 1;
    }
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
    // Fault pressure: anything down, flapping, or running degraded.
    // Changes only at fault events; always `false` on a plan-free run.
    let mut fault_active = false;

    let mut acc = Acc::default();
    let mut engine = EngineStats {
        cohorts: cohorts.len() as u64,
        ..EngineStats::default()
    };
    // The active set is the lanes, the parked cohorts and `slow`: every
    // other active cohort, ascending by id once sorted (arrivals and
    // wakes append unsorted). `slow` may hold cohorts a departure
    // finished; the full path skips them.
    let reference = full_path_only();
    let mut lanes = Lanes::new(p.edges, cohorts.len(), q);
    let mut parked = Parked::new(cohorts.len(), q);
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
    let mut landed: Vec<ObjKey> = Vec::new();

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
    let mut last_first_seq = vec![0u64; titles.len()];
    let mut publish_wait_ticks = 0u64;
    let mut window_skips = 0u64;
    while alive > 0 && now < load.max_ticks {
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
                lanes.flush(&mut cohorts, &mut slow, fault_active);
                publish_wait_ticks += parked.settle_all(&mut cohorts, now, fault_active);
                slow_sorted = false;
                let action = fault_actions[cid as usize].1;
                match action {
                    FaultAction::EdgeDown(i)
                    | FaultAction::EdgeUp(i, _)
                    | FaultAction::ShieldDown(i)
                    | FaultAction::ShieldUp(i, _) => {
                        let (shield, restart, count) = match action {
                            FaultAction::EdgeDown(_) => (false, None, &mut res.edge_crashes),
                            FaultAction::EdgeUp(_, cold) => {
                                (false, Some(cold), &mut res.edge_restarts)
                            }
                            FaultAction::ShieldDown(_) => (true, None, &mut res.shield_crashes),
                            FaultAction::ShieldUp(_, cold) => {
                                (true, Some(cold), &mut res.shield_restarts)
                            }
                            _ => unreachable!("a crash or restart"),
                        };
                        let (nodes, up) = if shield {
                            (&mut shields, &mut shield_up)
                        } else {
                            (&mut edges, &mut edge_up)
                        };
                        if !crash_or_restart(
                            nodes,
                            up,
                            i,
                            restart,
                            tick,
                            &mut res.fills_lost,
                            &mut restore_sum,
                        ) {
                            continue;
                        }
                        *count += 1;
                        if !shield {
                            // Re-homed waiters re-request on survivors,
                            // where `FillTable` coalescing absorbs the
                            // herd. A cold edge counts its fills as
                            // re-warm traffic until it caches an object
                            // again.
                            rewarming[i] |= restart == Some(true);
                        } else if let Some(r) = shield_ring.as_ref() {
                            // A shield crash re-routes its child edges to
                            // a survivor, where their orphaned fills
                            // re-register via the re-request pass; a
                            // restart moves them home again.
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
                // A crash re-homes its classes to survivors; a restart
                // fails them back home.
                let edge_set_changed =
                    matches!(action, FaultAction::EdgeDown(_) | FaultAction::EdgeUp(..));
                if let Some(r) = ring.as_ref().filter(|_| edge_set_changed) {
                    for &a in &slow {
                        let c = &mut cohorts[a as usize];
                        if !c.done {
                            res.sessions_rehomed += rehome(c, &edge_up, r);
                        }
                    }
                    // Parked classes re-home where they sit; those
                    // stranded on a down edge take the full path.
                    let mut i = 0;
                    while i < parked.len() {
                        let a = parked.cids[i];
                        let c = &mut cohorts[a as usize];
                        res.sessions_rehomed += rehome(c, &edge_up, r);
                        if edge_up[c.edge] {
                            i += 1;
                        } else {
                            parked.unpark(a);
                            slow.push(a);
                        }
                    }
                    // A stranded class a restart moved onto an up edge
                    // parks if its segment is still unpublished.
                    if let Some(l) = p.live.as_ref().filter(|_| !reference) {
                        slow.retain(|&a| {
                            let c = &cohorts[a as usize];
                            if c.done || !edge_up[c.edge] || !gated(c, l, now, &seg_counts) {
                                return true;
                            }
                            parked.park(&mut cal, a, now, l.publish_tick(c.state.seg as u64));
                            false
                        });
                    }
                }
                fault_active = flap_down
                    || edge_up.contains(&false)
                    || shield_up.contains(&false)
                    || origin_scale != 1.0
                    || edge_scale.iter().any(|&s| s != 1.0);
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
                    if faulted {
                        if let Some(r) = ring.as_ref() {
                            res.sessions_rehomed += rehome(c, &edge_up, r);
                        }
                    }
                }
                EventKind::Depart => {
                    // A lane cohort leaves its lane and a parked one
                    // stays parked, each settled up to now first.
                    let lane = lanes.leave(cid, c, fault_active);
                    let asleep = parked.contains(cid);
                    if asleep {
                        publish_wait_ticks += parked.settle(cid, c, now, fault_active);
                    }
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
                        n_active -= 1;
                        if asleep {
                            parked.unpark(cid);
                        }
                    } else if let Some(l) = lane {
                        lanes.enter(cid, c, l.eps);
                    }
                }
                EventKind::Wake => {
                    let l = p.live.as_ref().expect("wakes only in live mode");
                    if parked.contains(cid) && !gated(c, l, now, &seg_counts) {
                        publish_wait_ticks += parked.settle(cid, c, now, fault_active);
                        parked.unpark(cid);
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
        if parked.len() as u64 == n_active
            && (n_active == 0 || (!fault_active && !fills_in_flight(&edges, &shields)))
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
                        let key = (ti as u32, ri as u32, seq as u32);
                        for node in edges.iter_mut().chain(shields.iter_mut()) {
                            if node.lru.remove(&key).is_some() {
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
        let origin_down = p.origin_down_after.is_some_and(|t| now >= t) || flap_down;
        if shields_on {
            // Re-request pass first: edge fills whose serving shield
            // neither caches the object nor has an origin fill in
            // flight (shield crash, failover, or shield-side eviction)
            // re-register as shield misses — one origin fill restarts
            // no matter how many child edges wait on it.
            for (ei, e) in edges.iter().enumerate() {
                let si = edge_shield[ei];
                if !shield_up[si] {
                    continue;
                }
                let sh = &mut shields[si];
                for (k, _) in e.fills.iter() {
                    if !sh.lru.contains(&k.0) && !sh.fills.contains(&k.0, 0) {
                        sh.refill(k.0, obj_bytes(titles, k.0) as f64);
                        progressed = true;
                    }
                }
            }
        }
        let upstream = if shields_on { &mut shields } else { &mut edges };
        let total_fills: usize = upstream.iter().map(|n| n.fills.len()).sum();
        if total_fills > 0 && !origin_down && p.origin_capacity > 0.0 {
            let fill_rate = p.origin_capacity * origin_scale / total_fills as f64;
            for (i, node) in upstream.iter_mut().enumerate() {
                node.drain_fills(titles, fill_rate * step, |_| true, &mut landed);
                // The wiped cache holds an object again: later fills
                // are ordinary demand fills, not re-warm.
                if !shields_on && !landed.is_empty() {
                    rewarming[i] = false;
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
                let si = edge_shield[ei];
                if shield_up[si] {
                    draw[si] += e
                        .fills
                        .iter()
                        .filter(|(k, _)| shields[si].lru.contains(&k.0))
                        .count();
                }
            }
            for (ei, e) in edges.iter_mut().enumerate() {
                let si = edge_shield[ei];
                if !shield_up[si] || draw[si] == 0 {
                    continue;
                }
                let rate = p.shield_capacity / draw[si] as f64;
                let sh = &mut shields[si];
                e.drain_fills(titles, rate * step, |k| sh.lru.contains(k), &mut landed);
                for &k in &landed {
                    sh.lru.touch(&k);
                    sh.stats.served_bytes += obj_bytes(titles, k) as u64;
                }
                if !landed.is_empty() {
                    rewarming[ei] = false;
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
        downloading.copy_from_slice(&lanes.members);
        for &cid in &slow {
            let c = &cohorts[cid as usize];
            if c.done || !edge_up[c.edge] {
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
                downloading[c.edge] += c.n;
            }
        }
        // The one per-edge download rate, used by lanes and the full
        // path alike.
        let edge_rate = |e: usize| {
            (p.edge_capacity * edge_scale[e] / downloading[e].max(1) as f64).min(p.per_session)
        };

        // The reference engine steps the quanta the idle jump skips over
        // parked cohorts, and counts them no more than the jump does.
        let jumped = reference
            && !fault_active
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
        if !lanes.is_empty() {
            for (e, dec) in lane_dec.iter_mut().enumerate() {
                *dec = edge_rate(e) * step;
            }
            lanes.step(&lane_dec, &mut cohorts, &mut finished, fault_active);
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
            let si = edge_shield[edge];
            let mut sh = shields.get_mut(si).filter(|_| shield_up[si]);
            let rewarm = fault_active || rewarming[edge];
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
                    if !edge_up[edge] {
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
                                request(e, sh, m, title, s, n, rewarm, &mut res.rewarm_fills);
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
                                request(e, sh, m, title, s, n, rewarm, &mut res.rewarm_fills);
                        } else {
                            publish_wait_ticks += q * n;
                            break 'step;
                        }
                    }
                    if s.waiting {
                        let key = (title, s.rung as u32, s.seg as u32);
                        let bytes = m.rungs[s.rung].segments[s.seg].bytes as f64;
                        if e.lru.touch(&key) || e.pass.contains(&key) {
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
                            if !e.fills.contains(&key, 0) {
                                // The filled object was evicted before
                                // this class could download it — or the
                                // class was just re-homed onto an edge
                                // with no fill in flight: re-request
                                // (one fill restarts no matter how many
                                // members wait).
                                e.refill(key, bytes);
                                if let Some(sh) = sh.as_deref_mut() {
                                    sh.request_n(key, bytes, 1);
                                }
                                progressed = true;
                                res.rewarm_fills += u64::from(rewarm);
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
                progressed |= request(e, sh, m, title, s, n, rewarm, &mut res.rewarm_fills);
                s.fetch_start = end;
            }
            // Where the cohort waits for the next quantum: gone, parked
            // until its segment publishes, in its edge's lane (plain), or
            // slow.
            if *done {
                n_active -= 1;
            } else if reference || !edge_up[edge] || s.waiting {
                next_slow.push(cid);
            } else if s.pending_request {
                let l = p.live.expect("pending only in live mode");
                parked.park(&mut cal, cid, now + q, l.publish_tick(s.seg as u64));
            } else {
                let eps = completion_eps(m.rungs[s.rung].segments[s.seg].bytes as f64);
                lanes.enter(cid, &cohorts[cid as usize], eps);
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
        if !progressed && now > all_arrived_by && parked.len() == 0 && !cal.fault_pending() {
            let active = || {
                slow.iter()
                    .map(|&cid| &cohorts[cid as usize])
                    .filter(|c| !c.done)
            };
            // Stranded classes (their edge is down) cannot consume a
            // publish or wake as waiters — only a fault event revives
            // them, and no fault is due.
            let any_unstranded = active().any(|c| edge_up[c.edge]);
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
            let waiters_due = active().any(|c| edge_up[c.edge] && c.state.pending_request);
            if !publishes_due && !waiters_due && !cal.departure_pending(&cohorts) {
                break;
            }
        }
    }
    // Survivors (still downloading at the ceiling, or never arrived)
    // fold with the oracle's unfinished-session arithmetic.
    lanes.flush(&mut cohorts, &mut slow, fault_active);
    publish_wait_ticks += parked.settle_all(&mut cohorts, now, fault_active);
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
    use crate::session::JoinMode;
    use crate::shield::AdmissionPolicy;
    use proptest::prelude::*;
    use video::synth::SequenceGen;

    fn manifest() -> Manifest {
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

    fn test_state() -> CohortState {
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
    fn cohort_formation_groups_same_tick_arrivals_and_splits_departure_groups() {
        let m = manifest();
        let load = LoadConfig {
            sessions: 6,
            stagger_ticks: 0, // all six arrive at tick 0
            ..Default::default()
        };
        let p = params(&m, CdnConfig::single_origin(), None);
        let mut edges = build_tier(
            std::slice::from_ref(&m),
            p.edges,
            p.cache_capacity_bytes,
            p.prewarm,
            p.admission,
        );
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
        assert_eq!(cohorts[0].n, 6);
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
        let e = run_cohorts(std::slice::from_ref(&m), &load, &p).engine;
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
            let run = run_cohorts(std::slice::from_ref(&m), &load, &p);
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
    fn settled_playout_equals_sequential_clamped_drains() {
        // The full path's per-quantum drain, j times, against one settle
        // on exit after j lane quanta: every buffer, stay, quantum, state
        // and fault flag, bit for bit, fault ledger included.
        for q in [1u64, 4] {
            let step = q as f64;
            for buffer in 0..=512u32 {
                for j in 0..=64u64 {
                    for (playing, in_rebuffer) in
                        [(true, false), (true, true), (false, false), (false, true)]
                    {
                        for fault in [false, true] {
                            let mut sequential = CohortState {
                                buffer_ticks: f64::from(buffer),
                                playing,
                                in_rebuffer,
                                rebuffer_events: 2,
                                fault_rebuffers: 1,
                                fault_rebuffer_ticks: 5,
                                ..test_state()
                            };
                            let mut settled = sequential.clone();
                            for _ in 0..j {
                                let s = &mut sequential;
                                if s.playing {
                                    s.buffer_ticks -= step;
                                    if s.buffer_ticks < 0.0 {
                                        if !s.in_rebuffer {
                                            s.in_rebuffer = true;
                                            s.rebuffer_events += 1;
                                            if fault {
                                                s.fault_rebuffers += 1;
                                            }
                                        }
                                        s.buffer_ticks = 0.0;
                                    }
                                }
                                if fault && s.in_rebuffer {
                                    s.fault_rebuffer_ticks += q;
                                }
                            }
                            let entry = LaneEntry {
                                remaining: 0.0,
                                eps: 0.5,
                                cid: 0,
                                entered: 9,
                            };
                            entry.write_back(&mut settled, 9 + j, q, fault);
                            let ledger = |s: &CohortState| {
                                (
                                    s.buffer_ticks.to_bits(),
                                    s.in_rebuffer,
                                    s.rebuffer_events,
                                    s.fault_rebuffers,
                                    s.fault_rebuffer_ticks,
                                )
                            };
                            assert_eq!(
                                ledger(&settled),
                                ledger(&sequential),
                                "buffer {buffer}, {j} quanta of {q}, playing {playing}, \
                                 in_rebuffer {in_rebuffer}, fault {fault}"
                            );
                        }
                    }
                }
            }
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
        let run = run_cohorts(std::slice::from_ref(&m), &load, &p);
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
