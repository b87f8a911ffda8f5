//! The event calendar: the discrete events that drive the clock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
}
