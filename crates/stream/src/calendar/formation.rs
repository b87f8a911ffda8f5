//! Cohort formation: sessions that share a trajectory become one
//! counted class.

use signal::rng::splitmix64;

use crate::catalog::ZipfSampler;
use crate::edge::{HashRing, WordHashMap};
use crate::serve::{
    arrivals, join_point, shard_edge, title_for, FluidNode, LoadConfig, TierParams,
};
use crate::session::AbrController;

/// A cohort-index slot no session has claimed yet.
const VACANT: u32 = u32::MAX;

/// Where formation files a session: the slot of its `(start_tick, edge,
/// title)` key, holding the key's cohort id or [`VACANT`]. Formation
/// takes one lookup per *session*, so both indexes are cheap; neither
/// decides anything but wall-clock time, because cohort order is
/// arrival order, never index order.
pub(super) enum CohortIndex {
    /// One slot per possible key, for a key space the config bounds:
    /// arrival ticks times edges times titles.
    Dense {
        slots: Vec<u32>,
        edges: usize,
        titles: usize,
    },
    /// Any key space: the crate's cheap
    /// [`WordHasher`](crate::edge::WordHasher) map over the keys that
    /// occur.
    Hashed(WordHashMap<(u64, usize, u32), u32>),
}

impl CohortIndex {
    /// The index for `load` over `edges` and `titles`: dense when the
    /// config alone bounds the key space within `max(population, 2^16)`
    /// slots, hashed otherwise. Every arrival of a churn-free load
    /// falls on a tick in `0..=max(stagger, flash_at + ramp)`; a churn
    /// clock is drawn, so its span is not known before formation.
    pub(super) fn for_load(load: &LoadConfig, edges: usize, titles: usize) -> Self {
        let c = &load.churn;
        let last = match (c.churn_sessions, c.flash_sessions) {
            (0, 0) => Some(load.stagger_ticks),
            (0, _) => {
                (c.flash_at_tick.checked_add(c.flash_ramp_ticks)).map(|t| t.max(load.stagger_ticks))
            }
            _ => None,
        };
        let limit = load.population().max(1 << 16);
        last.and_then(|t| Self::dense(t.checked_add(1)?, edges, titles, limit))
            .unwrap_or_else(|| Self::Hashed(WordHashMap::default()))
    }

    /// The dense index over `ticks × edges × titles` keys, or `None`
    /// when that product overflows or exceeds `limit` slots.
    fn dense(ticks: u64, edges: usize, titles: usize, limit: usize) -> Option<Self> {
        let len = usize::try_from(ticks)
            .ok()?
            .checked_mul(edges)?
            .checked_mul(titles)?;
        (len <= limit).then(|| Self::Dense {
            slots: vec![VACANT; len],
            edges,
            titles,
        })
    }

    #[inline]
    fn slot(&mut self, start_tick: u64, edge: usize, title: u32) -> &mut u32 {
        match self {
            Self::Dense {
                slots,
                edges,
                titles,
            } => &mut slots[(start_tick as usize * *edges + edge) * *titles + title as usize],
            Self::Hashed(map) => map.entry((start_tick, edge, title)).or_insert(VACANT),
        }
    }
}

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

/// Groups the arrival stream into cohorts keyed on `(start_tick, edge,
/// title)` — the identity that fixes a session's entire deterministic
/// trajectory — with member groups split by departure tick, in the
/// order each departure tick first arrives. Each session is drawn and
/// filed through `index` in one pass, with no schedule in between.
/// Returns the cohorts in first-arrival order (deterministic: arrival
/// order, never index order) and the count of phantom sessions.
pub(super) fn form_cohorts(
    mut index: CohortIndex,
    seg_counts: &[usize],
    load: &LoadConfig,
    p: &TierParams,
    edges: &mut [FluidNode],
    ring: Option<&HashRing>,
    sampler: Option<&ZipfSampler>,
) -> (Vec<Cohort>, usize) {
    let fault_seed = p.faults.as_ref().map(|f| f.seed);
    let mut cohorts: Vec<Cohort> = Vec::new();
    // Members per cohort that never depart: the one per-session write
    // of a churn-free load, written into the cohort's placeholder group
    // at the end.
    let mut stay: Vec<u64> = Vec::new();
    let mut i = 0;
    let phantoms = arrivals(load, |start_tick, depart_at| {
        let edge = shard_edge(load, p, i, ring);
        let title = title_for(load, sampler, i);
        i += 1;
        edges[edge].assigned += 1;
        let slot = index.slot(start_tick, edge, title);
        if *slot == VACANT {
            *slot = cohorts.len() as u32;
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
                    abr: AbrController::default(),
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
            stay.push(0);
        }
        let cid = *slot as usize;
        let members = &mut cohorts[cid].members;
        if depart_at.is_none() {
            if stay[cid] == 0 {
                members.push(MemberGroup {
                    depart_at,
                    count: 0,
                });
            }
            stay[cid] += 1;
        } else if let Some(g) = members.iter_mut().find(|g| g.depart_at == depart_at) {
            g.count += 1;
        } else {
            members.push(MemberGroup {
                depart_at,
                count: 1,
            });
        }
    });
    for (c, stay) in cohorts.iter_mut().zip(stay) {
        if let Some(g) = c.members.iter_mut().find(|g| g.depart_at.is_none()) {
            g.count = stay;
        }
        c.n = c.members.iter().map(|g| g.count).sum();
    }
    (cohorts, phantoms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::tests::{manifest, params};
    use crate::catalog::Catalog;
    use crate::edge::{EdgeTierConfig, Sharding};
    use crate::fault::FaultPlan;
    use crate::ladder::Manifest;
    use crate::serve::{build_ring, build_schedule, build_tier, CdnConfig, ChurnConfig, Scenario};

    /// The tier `p` builds over `titles`, before any session arrives.
    fn tier(titles: &[Manifest], p: &TierParams) -> Vec<FluidNode> {
        build_tier(
            &std::sync::Arc::new(crate::catalog::ObjectTable::new(titles)),
            p.edges,
            p.cache_capacity_bytes,
            p.prewarm,
            p.admission,
        )
    }

    #[test]
    fn cohort_formation_groups_same_tick_arrivals_and_splits_departure_groups() {
        // Forty stayers over ticks 0 and 1, then churners a fraction of
        // a tick apart who each watch ~50 ticks: most churn gaps round
        // to 0, so churners share arrival ticks (the first ones with
        // stayers) while leaving at different ticks.
        let m = manifest();
        let load = LoadConfig {
            sessions: 40,
            stagger_ticks: 1,
            churn: ChurnConfig {
                churn_sessions: 60,
                mean_interarrival_ticks: 0.2,
                mean_watch_ticks: 50.0,
                ..ChurnConfig::default()
            },
            ..Default::default()
        };
        let p = params(&m, CdnConfig::single_origin(), None);
        let mut edges = tier(std::slice::from_ref(&m), &p);
        let index = CohortIndex::for_load(&load, p.edges, 1);
        let (cohorts, phantoms) = form_cohorts(
            index,
            &[m.segment_count()],
            &load,
            &p,
            &mut edges,
            None,
            None,
        );
        assert_eq!(phantoms, 0);
        assert_eq!(edges[0].assigned, 100);
        // The same grouping spelled out over the collected schedule:
        // one cohort per arrival tick in first-arrival order, member
        // groups in the order their departure tick first arrives.
        let (schedule, _) = build_schedule(&load);
        let mut want: Vec<(u64, Vec<MemberGroup>)> = Vec::new();
        for &(tick, depart_at) in &schedule {
            let at = match want.iter().position(|(t, _)| *t == tick) {
                Some(at) => at,
                None => {
                    want.push((tick, Vec::new()));
                    want.len() - 1
                }
            };
            let groups = &mut want[at].1;
            match groups.iter_mut().find(|g| g.depart_at == depart_at) {
                Some(g) => g.count += 1,
                None => groups.push(MemberGroup {
                    depart_at,
                    count: 1,
                }),
            }
        }
        let got: Vec<(u64, Vec<MemberGroup>)> = cohorts
            .iter()
            .map(|c| (c.state.start_tick, c.members.clone()))
            .collect();
        assert_eq!(got, want);
        for c in &cohorts {
            assert_eq!(c.n, c.members.iter().map(|g| g.count).sum::<u64>());
        }
        // Tick 1 holds its stayers first, then churners split by
        // departure tick.
        let mixed = cohorts.iter().find(|c| c.state.start_tick == 1).unwrap();
        assert_eq!(mixed.members[0].depart_at, None);
        assert!(mixed.members.len() > 2, "churners split by departure tick");
    }

    /// Forms `load` through the hash and the dense index and requires
    /// equal cohorts and edge assignments, field for field. Returns
    /// whether [`CohortIndex::for_load`] takes the dense index.
    fn both_indexes_agree(catalog: &Catalog, cdn: CdnConfig, load: LoadConfig) -> bool {
        let plan = FaultPlan::new(0xF0A4).crash_edge(1, 50, None);
        let p = Scenario {
            faults: &plan,
            ..Scenario::new(catalog, cdn, load)
        }
        .params();
        let titles = catalog.titles();
        let seg_counts: Vec<usize> = titles.iter().map(Manifest::segment_count).collect();
        let ring = build_ring(&load, &p);
        let sampler = (titles.len() > 1).then(|| ZipfSampler::new(titles.len(), p.zipf_s));
        let (schedule, _) = build_schedule(&load);
        let ticks = schedule.iter().map(|&(t, _)| t).max().unwrap() + 1;
        let dense = CohortIndex::dense(ticks, p.edges, titles.len(), usize::MAX).unwrap();
        let hashed = CohortIndex::Hashed(WordHashMap::default());
        let form = |index| {
            let mut edges = tier(titles, &p);
            let (cohorts, phantoms) = form_cohorts(
                index,
                &seg_counts,
                &load,
                &p,
                &mut edges,
                ring.as_ref(),
                sampler.as_ref(),
            );
            let cohorts: Vec<_> = cohorts
                .into_iter()
                .map(|c| {
                    let place = (c.edge, c.home_edge, c.title, c.ring_key);
                    (place, c.n, c.members, c.state, c.done)
                })
                .collect();
            let assigned: Vec<usize> = edges.iter().map(|n| n.assigned).collect();
            (cohorts, phantoms, assigned)
        };
        let (by_hash, by_array) = (form(hashed), form(dense));
        assert_eq!(by_hash, by_array);
        assert!(
            by_hash.0.iter().any(|(place, ..)| place.3 != 0),
            "keys under a plan"
        );
        assert_eq!(
            by_hash.2.iter().sum::<usize>(),
            schedule.len(),
            "every arrival is assigned once"
        );
        matches!(
            CohortIndex::for_load(&load, p.edges, titles.len()),
            CohortIndex::Dense { .. }
        )
    }

    #[test]
    fn dense_and_hash_indexes_form_equal_cohorts() {
        let zipf = Catalog::synthesize(&manifest(), 8, 0.9);
        let cdn = CdnConfig::flat(EdgeTierConfig {
            edges: 3,
            sharding: Sharding::Hash,
            ..EdgeTierConfig::default()
        });
        let vod = LoadConfig {
            sessions: 2_000,
            stagger_ticks: 300,
            ..Default::default()
        };
        let flash = LoadConfig {
            churn: ChurnConfig {
                flash_sessions: 3_000,
                flash_at_tick: 400,
                flash_ramp_ticks: 100,
                ..ChurnConfig::default()
            },
            ..vod
        };
        let churn = LoadConfig {
            churn: ChurnConfig {
                churn_sessions: 1_500,
                mean_interarrival_ticks: 0.5,
                mean_watch_ticks: 80.0,
                ..flash.churn
            },
            ..vod
        };
        assert!(both_indexes_agree(&zipf, cdn, vod), "VOD keys are bounded");
        assert!(both_indexes_agree(&zipf, cdn, flash), "so are flash keys");
        assert!(!both_indexes_agree(&zipf, cdn, churn), "churn is hashed");
        // Past the bound the hash index takes over: 1,001 ticks × 16
        // edges × 512 titles is ~8.2M keys for 14,000 viewers. So does
        // a span that overflows.
        let knee = LoadConfig {
            sessions: 14_000,
            ..Default::default()
        };
        let unbounded = LoadConfig {
            stagger_ticks: u64::MAX,
            ..vod
        };
        for (load, edges, titles) in [(knee, 16, 512), (unbounded, 1, 1)] {
            let index = CohortIndex::for_load(&load, edges, titles);
            assert!(matches!(index, CohortIndex::Hashed(_)));
        }
    }
}
