//! The rest set — download lanes and parked cohorts — and the closed
//! form that settles the quanta a cohort spends there.

use super::events::{EventCalendar, EventKind};
use super::formation::{Cohort, CohortState};

/// Settles `j` quanta of `q` ticks in which a cohort only drained
/// playout: the closed form of `j` clamped per-quantum drains, exact for
/// the integer-valued buffers the engine uses (see the module doc).
/// With `fault`, a rebuffer that begins is a fault rebuffer and every
/// stalled quantum adds `q` fault rebuffer ticks. Returns whether the
/// cohort's first rebuffer began.
pub(super) fn settle(s: &mut CohortState, j: u64, q: u64, fault: bool) -> bool {
    let mut first = false;
    let mut stalled = if s.in_rebuffer { j } else { 0 };
    if s.playing {
        let drain = (j * q) as f64;
        if s.buffer_ticks >= drain {
            s.buffer_ticks -= drain;
        } else {
            if !s.in_rebuffer {
                s.in_rebuffer = true;
                s.rebuffer_events += 1;
                first = s.rebuffer_events == 1;
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
    first
}

/// The hot state of one plain cohort: what a quantum without events
/// reads and writes. The rest of its state is fixed while the cohort
/// stays in its lane: playout is settled when it leaves.
#[derive(Debug, Clone, Copy)]
struct LaneEntry {
    remaining: f64,
    /// `completion_eps` of the segment being downloaded.
    eps: f64,
    cid: u32,
}

/// Where a cohort waits for its next full step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// On the full path (or done): not resting.
    Active,
    /// At this index of its edge's lane.
    Lane(u32),
    /// At this index of the parked list.
    Parked(u32),
}

/// Swap-removes entry `i` of a rest list, re-pointing the place of the
/// entry moved into `i` (`at` builds it) and marking the removed active.
#[inline]
fn swap_out<T>(
    list: &mut Vec<T>,
    i: u32,
    place: &mut [Place],
    cid: impl Fn(&T) -> u32,
    at: impl Fn(u32) -> Place,
) -> T {
    let out = list.swap_remove(i as usize);
    if let Some(moved) = list.get(i as usize) {
        place[cid(moved) as usize] = at(i);
    }
    place[cid(&out) as usize] = Place::Active;
    out
}

/// The one settle clock of the rest set: each resting cohort's first
/// unsettled tick (see the module doc for why ticks count quanta exactly).
struct Clock {
    since: Vec<u64>,
    /// Ticks per quantum.
    q: u64,
    /// Members of the cohorts whose first rebuffer began in a settle.
    stalled: u64,
}

impl Clock {
    /// Settles the quanta cohort `cid` rested through before `now`, all
    /// under `fault`, and restarts its rest at `now`. Returns them.
    #[inline]
    fn settle(&mut self, cid: u32, c: &mut Cohort, now: u64, fault: bool) -> u64 {
        let j = (now - std::mem::replace(&mut self.since[cid as usize], now)) / self.q;
        if settle(&mut c.state, j, self.q, fault) {
            self.stalled += c.n;
        }
        j
    }
}

/// The rest set (see the module doc): plain cohorts in per-edge lanes,
/// publish-gated ones parked with an [`EventKind::Wake`] pending. A
/// cohort rests in at most one, so one place and one clock serve both.
pub(super) struct RestSet {
    lanes: Vec<Vec<LaneEntry>>,
    /// Members per edge across its lane: the edge's plain downloaders.
    pub(super) members: Vec<u64>,
    /// Cohorts in lanes.
    in_lanes: usize,
    /// Parked cohort ids.
    pub(super) parked: Vec<u32>,
    /// Where each cohort waits.
    place: Vec<Place>,
    clock: Clock,
    /// Scratch for [`RestSet::step`]: lane indices whose download
    /// completed this quantum, ascending.
    done: Vec<u32>,
}

impl RestSet {
    pub(super) fn new(edges: usize, cohorts: usize, q: u64) -> Self {
        Self {
            lanes: vec![Vec::new(); edges],
            members: vec![0; edges],
            in_lanes: 0,
            parked: Vec::new(),
            place: vec![Place::Active; cohorts],
            clock: Clock {
                since: vec![0; cohorts],
                q,
                stalled: 0,
            },
            done: Vec::new(),
        }
    }

    pub(super) fn lanes_empty(&self) -> bool {
        self.in_lanes == 0
    }

    /// Members of the cohorts whose first rebuffer began while they
    /// rested.
    pub(super) fn stalled(&self) -> u64 {
        self.clock.stalled
    }

    pub(super) fn is_parked(&self, cid: u32) -> bool {
        matches!(self.place[cid as usize], Place::Parked(_))
    }

    /// Puts plain cohort `cid` in its edge's lane, resting from tick
    /// `since` on; `eps` is the completion threshold of the segment it
    /// is downloading.
    pub(super) fn enter(&mut self, cid: u32, c: &Cohort, eps: f64, since: u64) {
        let lane = &mut self.lanes[c.edge];
        self.place[cid as usize] = Place::Lane(lane.len() as u32);
        self.clock.since[cid as usize] = since;
        lane.push(LaneEntry {
            remaining: c.state.remaining_bytes,
            eps,
            cid,
        });
        self.members[c.edge] += c.n;
        self.in_lanes += 1;
    }

    /// Parks `cid`, resting from tick `since` on, to wake at tick `wake`.
    pub(super) fn park(&mut self, cal: &mut EventCalendar, cid: u32, since: u64, wake: u64) {
        self.place[cid as usize] = Place::Parked(self.parked.len() as u32);
        self.clock.since[cid as usize] = since;
        self.parked.push(cid);
        cal.push(wake, EventKind::Wake, cid);
    }

    /// Takes parked cohort `cid` out of the parked list.
    pub(super) fn unpark(&mut self, cid: u32) {
        if let Place::Parked(i) = self.place[cid as usize] {
            swap_out(&mut self.parked, i, &mut self.place, |&c| c, Place::Parked);
        }
    }

    /// Settles the quanta resting cohort `cid` spent before `now`, all
    /// under `fault`; nothing for an active cohort. A parked quantum was
    /// a publish-gated full step that drained playout and waited `q`
    /// ticks per member: returns those publish-wait ticks.
    pub(super) fn settle(&mut self, cid: u32, c: &mut Cohort, now: u64, fault: bool) -> u64 {
        match self.place[cid as usize] {
            Place::Active => 0,
            Place::Lane(_) => {
                self.clock.settle(cid, c, now, fault);
                0
            }
            Place::Parked(_) => self.clock.settle(cid, c, now, fault) * self.clock.q * c.n,
        }
    }

    /// [`RestSet::settle`] for every parked cohort.
    pub(super) fn settle_parked(&mut self, cohorts: &mut [Cohort], now: u64, fault: bool) -> u64 {
        let mut wait = 0;
        for i in 0..self.parked.len() {
            let cid = self.parked[i];
            wait += self.settle(cid, &mut cohorts[cid as usize], now, fault);
        }
        wait
    }

    /// `gone` members of cohort `cid`, settled up to now, departed (`c`
    /// already counts them out): its lane's member count drops, and a
    /// cohort with no member left leaves the rest set.
    pub(super) fn depart(&mut self, cid: u32, c: &Cohort, gone: u64) {
        match self.place[cid as usize] {
            Place::Lane(i) => {
                self.members[c.edge] -= gone;
                if c.n == 0 {
                    let lane = &mut self.lanes[c.edge];
                    swap_out(lane, i, &mut self.place, |l| l.cid, Place::Lane);
                    self.in_lanes -= 1;
                }
            }
            Place::Parked(_) if c.n == 0 => self.unpark(cid),
            _ => {}
        }
    }

    /// Empties every lane into `slow`, writing each download back and
    /// settling its stay up to `now` under `fault`.
    pub(super) fn flush(
        &mut self,
        cohorts: &mut [Cohort],
        slow: &mut Vec<u32>,
        now: u64,
        fault: bool,
    ) {
        if self.lanes_empty() {
            return;
        }
        for (lane, members) in self.lanes.iter_mut().zip(&mut self.members) {
            for l in lane.drain(..) {
                let c = &mut cohorts[l.cid as usize];
                c.state.remaining_bytes = l.remaining;
                self.clock.settle(l.cid, c, now, fault);
                self.place[l.cid as usize] = Place::Active;
                slow.push(l.cid);
            }
            *members = 0;
        }
        self.in_lanes = 0;
    }

    /// One quantum, ending at tick `end`, of every lane: each download
    /// drains by `dec[edge]`, exactly the full path's arithmetic.
    /// Cohorts whose download completed leave their lane (download
    /// written back, stay settled under `fault`) and are appended to
    /// `finished`.
    pub(super) fn step(
        &mut self,
        dec: &[f64],
        cohorts: &mut [Cohort],
        finished: &mut Vec<u32>,
        end: u64,
        fault: bool,
    ) {
        for (e, lane) in self.lanes.iter_mut().enumerate() {
            let dec = dec[e];
            self.done.clear();
            for (i, l) in lane.iter_mut().enumerate() {
                l.remaining -= dec;
                if l.remaining <= l.eps {
                    self.done.push(i as u32);
                }
            }
            // Descending, so each swap-remove pulls in an entry that is
            // not itself done.
            for &i in self.done.iter().rev() {
                let l = swap_out(lane, i, &mut self.place, |l| l.cid, Place::Lane);
                let c = &mut cohorts[l.cid as usize];
                c.state.remaining_bytes = l.remaining;
                self.clock.settle(l.cid, c, end, fault);
                self.members[e] -= c.n;
                self.in_lanes -= 1;
                finished.push(l.cid);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::tests::test_state;

    #[test]
    fn settled_playout_equals_sequential_clamped_drains() {
        // The full path's per-quantum drain, j times, against one settle
        // of a lane stay j quanta long, measured in ticks: every buffer,
        // stay, quantum, state and fault flag, bit for bit, fault ledger
        // included.
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
                            let settled = sequential.clone();
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
                            let mut c = Cohort {
                                edge: 0,
                                home_edge: 0,
                                title: 0,
                                ring_key: 0,
                                members: Vec::new(),
                                state: settled,
                                n: 1,
                                done: false,
                            };
                            let mut rest = RestSet::new(1, 1, q);
                            rest.enter(0, &c, 0.5, 9 * q);
                            rest.settle(0, &mut c, (9 + j) * q, fault);
                            let settled = c.state;
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
}
