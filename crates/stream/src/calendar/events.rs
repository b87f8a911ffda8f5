//! The event calendar: the discrete events that drive the clock.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use super::Cohort;

/// Discrete per-cohort events the calendar orders. Fault actions sort
/// first (a crash at tick t is visible to a tick-t arrival), then
/// arrivals before departures on the same tick, mirroring the quantum
/// engine's arrivals-then-departures loop top; wakes come last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKind {
    /// A [`FaultAction`](crate::fault::FaultAction) falls due; the payload is an index into the
    /// resolved action list, not a cohort id.
    Fault,
    Arrive,
    Depart,
    /// The segment a parked cohort waits on publishes. Stale once the
    /// cohort was unparked or parked again for a later segment.
    Wake,
}

/// The event calendar: events pop in `(tick, kind, cohort)` order, so
/// the engine takes exactly the events due by the current quantum and
/// can fast-forward an idle clock to the next event boundary. Faults,
/// arrivals and departures sit on a min-heap. Wakes sit in one cohort
/// list per tick, the bucket idea of Brown's calendar queue: every
/// cohort parked on one segment wakes on its publish tick, so a tick's
/// list is sorted once when it falls due and handed out after that
/// tick's heap events, in ascending cohort id.
#[derive(Debug, Default)]
pub(crate) struct EventCalendar {
    heap: BinaryHeap<Reverse<(u64, EventKind, u32)>>,
    /// Fault actions still on the heap.
    faults: usize,
    /// Wake lists of the ticks not yet due, unsorted.
    wakes: BTreeMap<u64, Vec<u32>>,
    /// The tick whose wake list `due` is handing out.
    due_tick: u64,
    /// That list's cohorts not yet handed out, descending.
    due: Vec<u32>,
}

impl EventCalendar {
    pub(crate) fn push(&mut self, tick: u64, kind: EventKind, cohort: u32) {
        if kind == EventKind::Wake {
            debug_assert!(
                self.due.is_empty() || tick > self.due_tick,
                "a wake lands behind the list being handed out"
            );
            self.wakes.entry(tick).or_default().push(cohort);
            return;
        }
        self.faults += usize::from(kind == EventKind::Fault);
        self.heap.push(Reverse((tick, kind, cohort)));
    }

    /// The tick of the earliest wake, if any remains.
    fn next_wake(&self) -> Option<u64> {
        if self.due.is_empty() {
            self.wakes.keys().next().copied()
        } else {
            Some(self.due_tick)
        }
    }

    /// The earliest scheduled tick, if any event remains.
    pub(crate) fn next_tick(&self) -> Option<u64> {
        let heap = self.heap.peek().map(|Reverse((t, _, _))| *t);
        match (heap, self.next_wake()) {
            (Some(h), Some(w)) => Some(h.min(w)),
            (h, w) => h.or(w),
        }
    }

    /// Pops the next event if it is due at or before `now`.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<(u64, EventKind, u32)> {
        let wake = self.next_wake();
        match self.heap.peek() {
            // A tick's heap events all sort before its wakes.
            Some(&Reverse((t, ..))) if wake.map_or(true, |w| t <= w) => {
                if t > now {
                    return None;
                }
                let Reverse(e) = self.heap.pop()?;
                self.faults -= usize::from(e.1 == EventKind::Fault);
                Some(e)
            }
            _ => {
                if wake? > now {
                    return None;
                }
                if self.due.is_empty() {
                    let (tick, mut list) = self.wakes.pop_first()?;
                    list.sort_unstable_by(|a, b| b.cmp(a));
                    (self.due_tick, self.due) = (tick, list);
                }
                let cohort = self.due.pop()?;
                Some((self.due_tick, EventKind::Wake, cohort))
            }
        }
    }

    /// Whether any *future* departure still targets a live cohort
    /// (due events were popped already), for the stasis detector.
    pub(super) fn departure_pending(&self, cohorts: &[Cohort]) -> bool {
        self.heap.iter().any(|&Reverse((_, kind, cid))| {
            kind == EventKind::Depart && !cohorts[cid as usize].done
        })
    }

    /// Whether any fault action is still scheduled — a pending restart
    /// or recovery can unfreeze a run the stasis detector would
    /// otherwise declare dead.
    pub(super) fn fault_pending(&self) -> bool {
        self.faults > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::lanes::RestSet;

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
    fn same_tick_wakes_follow_the_ticks_other_events_in_ascending_id() {
        let mut cal = EventCalendar::default();
        for cid in [7, 2, 9, 4] {
            cal.push(5, EventKind::Wake, cid);
        }
        cal.push(5, EventKind::Depart, 8);
        cal.push(5, EventKind::Arrive, 3);
        cal.push(5, EventKind::Fault, 0);
        cal.push(3, EventKind::Wake, 6);
        cal.push(6, EventKind::Arrive, 1);
        let mut popped = Vec::new();
        while let Some(e) = cal.pop_due(6) {
            popped.push(e);
        }
        assert_eq!(
            popped,
            [
                (3, EventKind::Wake, 6),
                (5, EventKind::Fault, 0),
                (5, EventKind::Arrive, 3),
                (5, EventKind::Depart, 8),
                (5, EventKind::Wake, 2),
                (5, EventKind::Wake, 4),
                (5, EventKind::Wake, 7),
                (5, EventKind::Wake, 9),
                (6, EventKind::Arrive, 1),
            ]
        );
        assert_eq!(cal.next_tick(), None);
    }

    #[test]
    fn a_calendar_of_only_wakes_reports_and_pops_its_next_tick() {
        let mut cal = EventCalendar::default();
        assert_eq!(cal.next_tick(), None);
        cal.push(40, EventKind::Wake, 1);
        cal.push(20, EventKind::Wake, 3);
        cal.push(20, EventKind::Wake, 2);
        assert_eq!(cal.next_tick(), Some(20));
        assert_eq!(cal.pop_due(19), None, "nothing due before tick 20");
        assert_eq!(cal.pop_due(20), Some((20, EventKind::Wake, 2)));
        // Half handed out, the list still names its tick.
        assert_eq!(cal.next_tick(), Some(20));
        assert_eq!(cal.pop_due(20), Some((20, EventKind::Wake, 3)));
        assert_eq!(cal.next_tick(), Some(40));
        assert_eq!(cal.pop_due(39), None);
        assert_eq!(cal.pop_due(40), Some((40, EventKind::Wake, 1)));
        assert_eq!(cal.next_tick(), None);
        assert!(!cal.fault_pending());
    }

    #[test]
    fn a_stale_wake_pops_harmlessly() {
        // Cohort 1 parks to wake at 10, is unparked (a fault stranded
        // it), and parks again to wake at 30; cohort 2 is re-parked
        // from 10 to 20 for a later segment. Their tick-10 wakes still
        // pop, in order, and leave the live wakes where they were; the
        // engine drops a wake whose cohort is not parked or is still
        // gated.
        let mut cal = EventCalendar::default();
        let mut rest = RestSet::new(1, 3, 4);
        rest.park(&mut cal, 1, 0, 10);
        rest.park(&mut cal, 2, 0, 10);
        rest.park(&mut cal, 0, 0, 10);
        rest.unpark(1);
        rest.park(&mut cal, 1, 8, 30);
        rest.unpark(2);
        rest.park(&mut cal, 2, 8, 20);
        assert_eq!(cal.pop_due(12), Some((10, EventKind::Wake, 0)));
        for stale in [1, 2] {
            assert_eq!(cal.pop_due(12), Some((10, EventKind::Wake, stale)));
            assert!(
                rest.is_parked(stale),
                "re-parked, so only its gate drops it"
            );
        }
        assert_eq!(cal.pop_due(12), None);
        assert_eq!(cal.next_tick(), Some(20));
        assert_eq!(cal.pop_due(30), Some((20, EventKind::Wake, 2)));
        assert_eq!(cal.pop_due(30), Some((30, EventKind::Wake, 1)));
        assert_eq!(cal.pop_due(30), None);
    }
}
