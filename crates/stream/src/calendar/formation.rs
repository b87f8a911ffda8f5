//! Cohort formation: sessions that share a trajectory become one
//! counted class.

use signal::rng::splitmix64;

use crate::catalog::ZipfSampler;
use crate::edge::{HashRing, WordHashMap};
use crate::serve::{join_point, shard_edge, title_for, FluidNode, LoadConfig, TierParams};
use crate::session::AbrController;

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

/// Groups the arrival/departure schedule into cohorts keyed on
/// `(start_tick, edge, title)` — the identity that fixes a session's
/// entire deterministic trajectory — with member groups split by
/// departure tick. Returns the cohorts in first-arrival order
/// (deterministic: derived from schedule order, never map iteration).
#[allow(clippy::too_many_arguments)]
pub(super) fn form_cohorts(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::tests::{manifest, params};
    use crate::serve::{build_tier, CdnConfig};

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
}
