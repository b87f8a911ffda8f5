//! Fault replay: the tier's fault state, the one failover rule, and
//! the actions a resolved plan applies to it.

use signal::rng::splitmix64;

use crate::edge::HashRing;
use crate::fault::{FaultAction, ResilienceStats, Tier};
use crate::serve::{FluidNode, RING_VNODES, SHIELD_KEY_SALT, SHIELD_RING_SALT};
use crate::shield::shield_home;

use super::formation::Cohort;

/// The failover rule of both tiers: `home` while it is up, else the
/// first live node clockwise from `key` on `ring`, else `home`. Home if
/// up makes the ≤ 1/N remap bound structural: a crash moves only the
/// crashed node's own clients.
fn failover(home: usize, key: u64, up: &[bool], ring: &HashRing) -> usize {
    if up[home] {
        home
    } else {
        ring.route_alive(key, up).unwrap_or(home)
    }
}

/// Re-homes one cohort after the up/down edge set changed, by
/// [`failover`] from its home edge and ring key. Returns the sessions
/// moved.
pub(super) fn rehome(c: &mut Cohort, edge_up: &[bool], ring: &HashRing) -> u64 {
    let target = failover(c.home_edge, c.ring_key, edge_up, ring);
    if target == c.edge {
        return 0;
    }
    c.edge = target;
    c.n
}

/// Everything a fault plan changes in the tier: which nodes are up,
/// which shield each edge fills from, the link scales and the
/// resilience ledger. Inert on a plan-free run: every node stays up and
/// every scale stays exactly 1.0 (and `x * 1.0` is IEEE-exact), so the
/// plan-free trajectory is bit-identical.
pub(super) struct FaultState {
    pub(super) edge_up: Vec<bool>,
    pub(super) shield_up: Vec<bool>,
    /// Which shield each edge currently fills from: its home, unless
    /// the home is down and the shield ring re-routed it to a survivor
    /// (0 in a flat tier, which has no shield to index).
    pub(super) edge_shield: Vec<usize>,
    /// The shield failover ring, present with shields and a plan.
    shield_ring: Option<HashRing>,
    /// Each edge's key on the shield ring.
    shield_keys: Vec<u64>,
    /// Cold-restarted edges count their fills as re-warm traffic until
    /// the wiped cache holds an object again.
    pub(super) rewarming: Vec<bool>,
    /// Active degradation spans per link: each edge's downlink, then
    /// the origin uplink (index `edges`).
    spans: Vec<Vec<f64>>,
    /// Each link's capacity scale: the product of its spans, recomputed
    /// on every change so a span's end unwinds its start exactly.
    pub(super) scale: Vec<f64>,
    /// The origin is inside a flap.
    pub(super) flap_down: bool,
    /// Ticks from crash to restart, summed over restarts.
    restore_sum: u64,
    /// The ledger; [`FaultState::resilience`] completes it.
    pub(super) res: ResilienceStats,
    /// Fault pressure: anything down, flapping, or running degraded.
    /// Changes only in [`FaultState::apply`]; always `false` on a
    /// plan-free run.
    pub(super) active: bool,
}

impl FaultState {
    /// The state of `edges` edges and `shields` shields before any
    /// fault: `seed` is the plan's (`None` without a plan), `ring_seed`
    /// the load's.
    pub(super) fn new(edges: usize, shields: usize, seed: Option<u64>, ring_seed: u64) -> Self {
        Self {
            edge_up: vec![true; edges],
            shield_up: vec![true; shields],
            edge_shield: (0..edges)
                .map(|e| shield_home(e, edges, shields.max(1)))
                .collect(),
            shield_ring: (shields > 0 && seed.is_some())
                .then(|| HashRing::new(shields, RING_VNODES, ring_seed ^ SHIELD_RING_SALT)),
            shield_keys: (0..edges)
                .map(|e| seed.map_or(0, |s| splitmix64(s ^ SHIELD_KEY_SALT ^ e as u64)))
                .collect(),
            rewarming: vec![false; edges],
            spans: vec![Vec::new(); edges + 1],
            scale: vec![1.0; edges + 1],
            flap_down: false,
            restore_sum: 0,
            res: ResilienceStats::default(),
            active: false,
        }
    }

    /// Applies one action due at `tick` to the state and to the tier's
    /// `edges` and `shields`. Returns whether the edge up set changed
    /// (cohorts must re-home); an action that finds its node already in
    /// the target state changes nothing.
    pub(super) fn apply(
        &mut self,
        action: FaultAction,
        tick: u64,
        edges: &mut [FluidNode],
        shields: &mut [FluidNode],
    ) -> bool {
        let edge_set_changed = match action {
            FaultAction::Down(tier, i) => {
                let Some(node) = self.flip(tier, i, false, edges, shields) else {
                    return false;
                };
                node.crash_tick = Some(tick);
                let lost: Vec<u32> = node.fills.iter().map(|(&k, _)| k).collect();
                self.res.fills_lost += lost.len() as u64;
                for k in lost {
                    node.fills.fail(&k);
                }
                tier == Tier::Edge
            }
            FaultAction::Up(tier, i, cold) => {
                let Some(node) = self.flip(tier, i, true, edges, shields) else {
                    return false;
                };
                if let Some(t0) = node.crash_tick.take() {
                    self.restore_sum += tick - t0;
                }
                if cold {
                    node.cache.clear();
                }
                // A cold edge counts its fills as re-warm traffic until
                // it caches an object again.
                if tier == Tier::Edge {
                    self.rewarming[i] |= cold;
                }
                tier == Tier::Edge
            }
            FaultAction::OriginDown | FaultAction::OriginUp => {
                self.flap_down = action == FaultAction::OriginDown;
                false
            }
            FaultAction::DegradeStart(link, s) | FaultAction::DegradeEnd(link, s) => {
                let l = link.unwrap_or(self.spans.len() - 1);
                let spans = &mut self.spans[l];
                if matches!(action, FaultAction::DegradeStart(..)) {
                    spans.push(s);
                } else if let Some(i) = spans.iter().position(|&x| x == s) {
                    spans.remove(i);
                }
                self.scale[l] = spans.iter().product();
                false
            }
        };
        self.active = self.flap_down
            || self.edge_up.contains(&false)
            || self.shield_up.contains(&false)
            || self.scale.iter().any(|&s| s != 1.0);
        edge_set_changed
    }

    /// Sets node `i` of `tier` up or down and counts it; a shield's child
    /// edges re-route by [`failover`] (their orphaned fills re-register
    /// via the re-request pass). `None` when it already was so.
    fn flip<'a>(
        &mut self,
        tier: Tier,
        i: usize,
        up: bool,
        edges: &'a mut [FluidNode],
        shields: &'a mut [FluidNode],
    ) -> Option<&'a mut FluidNode> {
        let (nodes, flags, count) = match (tier, up) {
            (Tier::Edge, false) => (edges, &mut self.edge_up, &mut self.res.edge_crashes),
            (Tier::Edge, true) => (edges, &mut self.edge_up, &mut self.res.edge_restarts),
            (Tier::Shield, false) => (shields, &mut self.shield_up, &mut self.res.shield_crashes),
            (Tier::Shield, true) => (shields, &mut self.shield_up, &mut self.res.shield_restarts),
        };
        if flags[i] == up {
            return None;
        }
        flags[i] = up;
        *count += 1;
        if let Some(r) = self.shield_ring.as_ref().filter(|_| tier == Tier::Shield) {
            let (edges, shields) = (self.edge_shield.len(), self.shield_up.len());
            for (e, slot) in self.edge_shield.iter_mut().enumerate() {
                let home = shield_home(e, edges, shields);
                *slot = failover(home, self.shield_keys[e], &self.shield_up, r);
            }
        }
        Some(&mut nodes[i])
    }

    /// The run's resilience ledger, given the fault-rebuffer totals the
    /// report fold counted.
    pub(super) fn resilience(
        self,
        sessions_fault_rebuffered: u64,
        fault_rebuffer_ticks: u64,
    ) -> ResilienceStats {
        // Only a restart adds to `restore_sum`: 0 / 1 without one.
        let restarts = self.res.edge_restarts + self.res.shield_restarts;
        ResilienceStats {
            mean_restore_ticks: self.restore_sum as f64 / restarts.max(1) as f64,
            sessions_fault_rebuffered,
            fault_rebuffer_ticks,
            ..self.res
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::tests::test_state;

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
    fn overlapping_degrade_spans_unwind_exactly() {
        // Spans of 0.1 and 0.3 overlap on edge 1 and on the origin, then
        // end in either order: every link's scale returns to exactly 1.0
        // and fault pressure clears.
        for ends in [[0.1, 0.3], [0.3, 0.1]] {
            let mut fs = FaultState::new(2, 0, Some(7), 0);
            let apply = |fs: &mut FaultState, a| fs.apply(a, 10, &mut [], &mut []);
            for link in [Some(1), None] {
                for s in [0.1, 0.3] {
                    assert!(!apply(&mut fs, FaultAction::DegradeStart(link, s)));
                }
            }
            assert!(fs.active);
            assert_eq!(fs.scale, vec![1.0, 0.1 * 0.3, 0.1 * 0.3]);
            for link in [Some(1), None] {
                apply(&mut fs, FaultAction::DegradeEnd(link, ends[0]));
            }
            assert!(fs.active, "one span still runs on each link");
            assert_eq!(fs.scale, vec![1.0, ends[1], ends[1]]);
            for link in [None, Some(1)] {
                apply(&mut fs, FaultAction::DegradeEnd(link, ends[1]));
            }
            assert_eq!(fs.scale, vec![1.0; 3], "ended {ends:?}");
            assert!(!fs.active, "ended {ends:?}");
        }
    }
}
