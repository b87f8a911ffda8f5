//! Deterministic fault injection for the delivery stack.
//!
//! A [`FaultPlan`] is a seeded, timed schedule of injectable failures —
//! edge crashes (with cold or warm restarts), origin flap windows, and
//! link-degradation spans that scale capacity — that the cohort engine
//! replays off its own event calendar. Determinism is the whole point:
//! the same plan against the same load produces bit-identical reports,
//! so resilience regressions pin down exactly like perf regressions.
//! An *empty* plan is the degenerate case and costs nothing: the
//! simulator runs the exact plan-free code path (equality-pinned in the
//! property suite, same discipline as the zero-churn special case).
//!
//! Alongside the plan live the two knobs the rest of the stack uses to
//! *survive* those faults:
//!
//! * [`RetryPolicy`] — capped exponential backoff with deterministic
//!   seeded jitter and a give-up budget; used by every session fetch
//!   leg, live manifest refreshes, and edge origin fills.
//! * [`ResilienceStats`] — what a faulted run cost: MTTR, sessions
//!   re-homed and impacted, fault-attributed rebuffer ticks, and the
//!   re-warm fills a cold restart triggers.

use netstack::fetch::FetchError;
use signal::rng::splitmix64;

/// How a crashed edge comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartMode {
    /// The replacement starts with an empty cache: every re-homed (or
    /// failed-back) request is a miss until the re-warm herd refills it.
    Cold,
    /// The edge returns with its cache intact (process restart, storage
    /// survived).
    Warm,
}

/// One injectable failure, on the simulator's tick timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Edge `edge` dies at `at`. With `restart: Some((tick, mode))` it
    /// returns at `tick`; with `None` it stays down forever.
    EdgeCrash {
        /// Which edge (tier index).
        edge: usize,
        /// Crash tick.
        at: u64,
        /// Restart tick and mode, or `None` for a permanent loss.
        restart: Option<(u64, RestartMode)>,
    },
    /// Shield `shield` (mid-tier cache) dies at `at`. Its child edges
    /// fail over to the surviving shields via the shield ring; `restart`
    /// works as for [`FaultEvent::EdgeCrash`]. Dropped when the tier
    /// runs no shields.
    ShieldCrash {
        /// Which shield (tier index).
        shield: usize,
        /// Crash tick.
        at: u64,
        /// Restart tick and mode, or `None` for a permanent loss.
        restart: Option<(u64, RestartMode)>,
    },
    /// The origin is unreachable for `[down_at, up_at)`: cache fills
    /// freeze mid-flight and resume on recovery.
    OriginFlap {
        /// Outage start.
        down_at: u64,
        /// Recovery tick (exclusive end of the outage).
        up_at: u64,
    },
    /// A link runs at `capacity_scale` of its provisioned rate for
    /// `[from, until)`. `edge: Some(i)` degrades edge `i`'s downlink,
    /// `None` degrades the shared origin uplink. Spans over the same
    /// link compose multiplicatively.
    LinkDegrade {
        /// Degraded edge, or `None` for the origin uplink.
        edge: Option<usize>,
        /// Span start.
        from: u64,
        /// Span end (exclusive).
        until: u64,
        /// Capacity multiplier in `(0, 1]` — e.g. `0.25` for a link
        /// running at a quarter rate.
        capacity_scale: f64,
    },
}

/// A cache tier whose nodes a fault can take down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// The edge caches sessions attach to.
    Edge,
    /// The shield caches between the edges and the origin.
    Shield,
}

/// The primitive state transitions a [`FaultPlan`] resolves to, each
/// pinned to a tick. The calendar engine schedules these on its event
/// heap and applies them in order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultAction {
    /// Node `i` of a tier goes down.
    Down(Tier, usize),
    /// Node `i` of a tier comes back; `true` means cold (cache wiped).
    Up(Tier, usize, bool),
    /// Origin outage begins.
    OriginDown,
    /// Origin outage ends.
    OriginUp,
    /// Degradation span begins on `Some(edge)` or the origin (`None`).
    DegradeStart(Option<usize>, f64),
    /// Degradation span ends (same scale, so the product unwinds
    /// exactly).
    DegradeEnd(Option<usize>, f64),
}

/// What a [`FaultPlan`] resolves to for a concrete tier: the flattened
/// action timeline plus the plan seed (failover ring keys draw from it,
/// so the same traffic replays under different fault draws).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultSchedule {
    /// The plan's seed, carried through for fault-derived randomness.
    pub(crate) seed: u64,
    /// `(tick, action)` pairs, stably sorted by tick (see
    /// [`FaultPlan::resolve`]).
    pub(crate) actions: Vec<(u64, FaultAction)>,
}

/// A seeded, timed schedule of faults to inject into one simulated run.
///
/// The default plan is empty — and an empty plan is *guaranteed* to
/// leave the simulator on its plan-free code path, bit-identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for fault-derived randomness (failover ring keys). Distinct
    /// from the load seed so the same traffic can replay under
    /// different fault draws.
    pub seed: u64,
    /// The schedule, in any order; resolution sorts it.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds an edge crash (restarting later when `restart` is set).
    #[must_use]
    pub fn crash_edge(mut self, edge: usize, at: u64, restart: Option<(u64, RestartMode)>) -> Self {
        self.events
            .push(FaultEvent::EdgeCrash { edge, at, restart });
        self
    }

    /// Adds a shield crash (restarting later when `restart` is set).
    #[must_use]
    pub fn crash_shield(
        mut self,
        shield: usize,
        at: u64,
        restart: Option<(u64, RestartMode)>,
    ) -> Self {
        self.events.push(FaultEvent::ShieldCrash {
            shield,
            at,
            restart,
        });
        self
    }

    /// Adds an origin outage over `[down_at, up_at)`.
    #[must_use]
    pub fn flap_origin(mut self, down_at: u64, up_at: u64) -> Self {
        self.events.push(FaultEvent::OriginFlap { down_at, up_at });
        self
    }

    /// Adds a link-degradation span over `[from, until)`.
    #[must_use]
    pub fn degrade_link(
        mut self,
        edge: Option<usize>,
        from: u64,
        until: u64,
        capacity_scale: f64,
    ) -> Self {
        self.events.push(FaultEvent::LinkDegrade {
            edge,
            from,
            until,
            capacity_scale,
        });
        self
    }

    /// Compiles a [`netstack::link::LinkTrace`] into link-degradation
    /// spans against `edge` (or the origin uplink with `None`),
    /// threading the same per-session bandwidth schedules the transport
    /// runs on into the fluid engine's per-link parameters. Each trace
    /// phase whose `ticks_per_byte` differs from `base_ticks_per_byte`
    /// becomes one span scaled by `base / phase` (a phase twice as slow
    /// is a 0.5-capacity span); phases at the base rate and zero-length
    /// phases emit nothing. The schedule is walked (repeating when the
    /// trace repeats) until `horizon_ticks`.
    #[must_use]
    pub fn degrade_from_trace(
        mut self,
        edge: Option<usize>,
        trace: &netstack::link::LinkTrace,
        base_ticks_per_byte: f64,
        horizon_ticks: u64,
    ) -> Self {
        if trace.phases.is_empty() || trace.total_ticks() == 0 || base_ticks_per_byte <= 0.0 {
            return self;
        }
        let mut at = 0u64;
        'walk: loop {
            for phase in &trace.phases {
                if at >= horizon_ticks {
                    break 'walk;
                }
                let until = at.saturating_add(phase.ticks).min(horizon_ticks);
                if phase.ticks > 0 && phase.ticks_per_byte > 0.0 {
                    let scale = base_ticks_per_byte / phase.ticks_per_byte;
                    if (scale - 1.0).abs() > f64::EPSILON {
                        self = self.degrade_link(edge, at, until, scale);
                    }
                }
                at = at.saturating_add(phase.ticks);
            }
            if !trace.repeat {
                break;
            }
        }
        // A non-repeating trace settles into its final phase (matching
        // `Link`'s persist-last semantics): extend that scale to the
        // horizon.
        if !trace.repeat && at < horizon_ticks {
            if let Some(last) = trace.phases.last() {
                if last.ticks_per_byte > 0.0 {
                    let scale = base_ticks_per_byte / last.ticks_per_byte;
                    if (scale - 1.0).abs() > f64::EPSILON {
                        self = self.degrade_link(edge, at, horizon_ticks, scale);
                    }
                }
            }
        }
        self
    }

    /// `true` when the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Flattens the plan into `(tick, action)` pairs, stably sorted by
    /// tick. Per event the *down* transition is emitted before the *up*
    /// one, so a same-tick crash-and-restart applies as crash, then
    /// restart. Events naming an edge outside `0..n_edges` (or a shield
    /// outside `0..n_shields`) are dropped (a plan written for an
    /// 8-edge tier degrades gracefully on a smaller one, and shield
    /// crashes are no-ops on a flat topology); empty or zero-length
    /// spans resolve to nothing.
    pub(crate) fn resolve(&self, n_edges: usize, n_shields: usize) -> Vec<(u64, FaultAction)> {
        let mut out: Vec<(u64, FaultAction)> = Vec::new();
        for ev in &self.events {
            let (tier, i, nodes, at, restart) = match *ev {
                FaultEvent::EdgeCrash { edge, at, restart } => {
                    (Tier::Edge, edge, n_edges, at, restart)
                }
                FaultEvent::ShieldCrash {
                    shield,
                    at,
                    restart,
                } => (Tier::Shield, shield, n_shields, at, restart),
                FaultEvent::OriginFlap { down_at, up_at } => {
                    if up_at > down_at {
                        out.push((down_at, FaultAction::OriginDown));
                        out.push((up_at, FaultAction::OriginUp));
                    }
                    continue;
                }
                FaultEvent::LinkDegrade {
                    edge,
                    from,
                    until,
                    capacity_scale,
                } => {
                    if until > from
                        && capacity_scale.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater)
                        && !edge.is_some_and(|e| e >= n_edges)
                    {
                        out.push((from, FaultAction::DegradeStart(edge, capacity_scale)));
                        out.push((until, FaultAction::DegradeEnd(edge, capacity_scale)));
                    }
                    continue;
                }
            };
            if i >= nodes {
                continue;
            }
            out.push((at, FaultAction::Down(tier, i)));
            if let Some((up_at, mode)) = restart.filter(|&(up_at, _)| up_at >= at) {
                out.push((up_at, FaultAction::Up(tier, i, mode == RestartMode::Cold)));
            }
        }
        // Stable by tick: same-tick actions keep schedule order, with
        // each event's own down-before-up already encoded above.
        out.sort_by_key(|&(t, _)| t);
        out
    }
}

/// Capped exponential backoff with deterministic seeded jitter and a
/// give-up budget — the one retry discipline of the stack. It serves:
///
/// * every fetch leg of a VOD or live session (manifest, license,
///   refreshes, segments), as `SessionConfig::retry`, on transport
///   failures;
/// * a live session's waits on a manifest that has not advanced, as
///   `LiveSessionConfig::refresh` (its default is a flat 50-tick poll:
///   equal base and cap, no jitter, 65 attempts);
/// * edge origin fills, as `CacheConfig::retry`.
///
/// The default policy makes **no retries** (`max_attempts: 1`): every
/// legacy call site keeps its exact prior behavior until a caller opts
/// in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed (first try included). `1` disables
    /// retries; `0` is treated as `1`.
    pub max_attempts: u32,
    /// Backoff before the first retry, in ticks; doubles per retry.
    pub base_backoff_ticks: u64,
    /// Ceiling on the exponential backoff, in ticks.
    pub max_backoff_ticks: u64,
    /// Uniform jitter in `0..=jitter_ticks` added to every backoff,
    /// drawn deterministically from `seed` and the attempt number.
    pub jitter_ticks: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// No retries: one attempt, fail fast — legacy behavior.
    fn default() -> Self {
        Self {
            max_attempts: 1,
            base_backoff_ticks: 0,
            max_backoff_ticks: 0,
            jitter_ticks: 0,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A sensible starting point for fault-tolerant callers: 4 total
    /// attempts, 50-tick base backoff doubling to a 400-tick cap, up to
    /// 16 ticks of seeded jitter.
    #[must_use]
    pub fn standard(seed: u64) -> Self {
        Self {
            max_attempts: 4,
            base_backoff_ticks: 50,
            max_backoff_ticks: 400,
            jitter_ticks: 16,
            seed,
        }
    }

    /// The wait before the next attempt, given `failures` failures so
    /// far. `None` means the budget is spent: give up and surface the
    /// error. With no failure yet (`failures == 0`) the first attempt is
    /// always within budget and waits nothing: `Some(0)`. Deterministic
    /// in `(self, failures)`; saturates at `u64::MAX` ticks.
    #[must_use]
    pub fn backoff_before(&self, failures: u32) -> Option<u64> {
        if failures >= self.max_attempts.max(1) {
            return None;
        }
        let Some(doublings) = failures.checked_sub(1) else {
            return Some(0);
        };
        let exp = self
            .base_backoff_ticks
            .saturating_mul(1u64.checked_shl(doublings).unwrap_or(u64::MAX))
            .min(self.max_backoff_ticks);
        let draw = splitmix64(self.seed ^ u64::from(failures));
        // `0..=jitter_ticks` spans all of `u64` when `jitter_ticks + 1`
        // overflows: the draw itself is then the jitter.
        let jitter = self
            .jitter_ticks
            .checked_add(1)
            .map_or(draw, |span| draw % span);
        Some(exp.saturating_add(jitter))
    }

    /// Runs `attempt(failures, waited)` until it succeeds, retrying
    /// transport failures: `failures` counts the failed attempts so far
    /// and `waited` sums their backoffs. A server error returns at once;
    /// a transport error returns once the budget is spent. On success,
    /// returns the value with the failures and the ticks waited.
    pub(crate) fn run<T>(
        &self,
        mut attempt: impl FnMut(u32, u64) -> Result<T, FetchError>,
    ) -> Result<(T, u32, u64), FetchError> {
        let mut failures = 0u32;
        let mut waited = 0u64;
        loop {
            match attempt(failures, waited) {
                Ok(v) => return Ok((v, failures, waited)),
                Err(e @ FetchError::Transport(_)) => {
                    failures += 1;
                    waited = waited.saturating_add(self.backoff_before(failures).ok_or(e)?);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// What a faulted run cost, beyond the ordinary load report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceStats {
    /// Edge crashes applied.
    pub edge_crashes: u64,
    /// Edge restarts applied.
    pub edge_restarts: u64,
    /// Shield crashes applied.
    pub shield_crashes: u64,
    /// Shield restarts applied.
    pub shield_restarts: u64,
    /// Mean ticks from crash to restart across restarted caches (MTTR,
    /// edges and shields pooled); `0.0` when nothing restarted.
    pub mean_restore_ticks: f64,
    /// Sessions moved off their home edge by failover (each move of a
    /// counted cohort counts every member).
    pub sessions_rehomed: u64,
    /// Sessions that began at least one rebuffer event while fault
    /// pressure was active — the survival-bar numerator.
    pub sessions_fault_rebuffered: u64,
    /// Stalled session-ticks attributable to active faults.
    pub fault_rebuffer_ticks: u64,
    /// Cache fills started while fault pressure was active — the
    /// re-warm herd a cold restart (or failover onto a cold survivor)
    /// triggers, after [`crate::edge::FillTable`] coalescing.
    pub rewarm_fills: u64,
    /// In-flight fills killed by an edge crash.
    pub fills_lost: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_resolves_to_nothing() {
        assert!(FaultPlan::default().is_empty());
        assert!(FaultPlan::default().resolve(4, 0).is_empty());
        assert!(FaultPlan::new(9).resolve(4, 2).is_empty());
    }

    #[test]
    fn resolve_orders_by_tick_with_down_before_up() {
        let plan = FaultPlan::new(1)
            .flap_origin(500, 900)
            .crash_edge(2, 300, Some((700, RestartMode::Cold)))
            .crash_edge(0, 300, None);
        let acts = plan.resolve(4, 0);
        assert_eq!(
            acts,
            vec![
                (300, FaultAction::Down(Tier::Edge, 2)),
                (300, FaultAction::Down(Tier::Edge, 0)),
                (500, FaultAction::OriginDown),
                (700, FaultAction::Up(Tier::Edge, 2, true)),
                (900, FaultAction::OriginUp),
            ]
        );
    }

    #[test]
    fn same_tick_crash_and_restart_applies_down_first() {
        let acts = FaultPlan::new(0)
            .crash_edge(1, 100, Some((100, RestartMode::Warm)))
            .resolve(2, 0);
        assert_eq!(
            acts,
            vec![
                (100, FaultAction::Down(Tier::Edge, 1)),
                (100, FaultAction::Up(Tier::Edge, 1, false)),
            ]
        );
    }

    #[test]
    fn trace_compiles_to_degrade_spans() {
        use netstack::link::{LinkTrace, TracePhase};
        // Base 1.0 ticks/byte; phase 1 is 4x slower (scale 0.25), the
        // others run at the base rate and emit nothing. Non-repeating:
        // the last phase persists, and at the base rate it also emits
        // nothing past the end.
        let trace = LinkTrace {
            phases: vec![
                TracePhase {
                    ticks: 100,
                    ticks_per_byte: 1.0,
                    loss: 0.0,
                },
                TracePhase {
                    ticks: 50,
                    ticks_per_byte: 4.0,
                    loss: 0.0,
                },
                TracePhase {
                    ticks: 100,
                    ticks_per_byte: 1.0,
                    loss: 0.0,
                },
            ],
            repeat: false,
        };
        let acts = FaultPlan::new(0)
            .degrade_from_trace(Some(0), &trace, 1.0, 1_000)
            .resolve(2, 0);
        assert_eq!(
            acts,
            vec![
                (100, FaultAction::DegradeStart(Some(0), 0.25)),
                (150, FaultAction::DegradeEnd(Some(0), 0.25)),
            ]
        );
        // Repeating: the slow phase recurs every period up to the
        // horizon.
        let wrapped = LinkTrace {
            repeat: true,
            ..trace
        };
        let acts = FaultPlan::new(0)
            .degrade_from_trace(None, &wrapped, 1.0, 500)
            .resolve(2, 0);
        assert_eq!(
            acts,
            vec![
                (100, FaultAction::DegradeStart(None, 0.25)),
                (150, FaultAction::DegradeEnd(None, 0.25)),
                (350, FaultAction::DegradeStart(None, 0.25)),
                (400, FaultAction::DegradeEnd(None, 0.25)),
            ]
        );
    }

    #[test]
    fn resolve_drops_out_of_range_and_degenerate_events() {
        let plan = FaultPlan::new(0)
            .crash_edge(7, 10, Some((20, RestartMode::Warm))) // edge out of range
            .flap_origin(50, 50) // zero-length
            .degrade_link(Some(9), 0, 100, 0.5) // edge out of range
            .degrade_link(None, 30, 30, 0.5) // zero-length
            .degrade_link(None, 40, 60, 0.0) // zero scale
            .crash_shield(2, 10, Some((20, RestartMode::Cold))); // shield out of range
        assert!(plan.resolve(4, 2).is_empty());
    }

    #[test]
    fn shield_crash_resolves_like_an_edge_crash() {
        let acts = FaultPlan::new(0)
            .crash_shield(1, 100, Some((300, RestartMode::Cold)))
            .resolve(8, 2);
        assert_eq!(
            acts,
            vec![
                (100, FaultAction::Down(Tier::Shield, 1)),
                (300, FaultAction::Up(Tier::Shield, 1, true)),
            ]
        );
        // The same plan on a flat (shield-less) tier is a no-op.
        assert!(FaultPlan::new(0)
            .crash_shield(1, 100, Some((300, RestartMode::Cold)))
            .resolve(8, 0)
            .is_empty());
    }

    #[test]
    fn degrade_span_emits_matched_start_and_end() {
        let acts = FaultPlan::new(0)
            .degrade_link(Some(1), 10, 90, 0.25)
            .resolve(2, 0);
        assert_eq!(
            acts,
            vec![
                (10, FaultAction::DegradeStart(Some(1), 0.25)),
                (90, FaultAction::DegradeEnd(Some(1), 0.25)),
            ]
        );
    }

    #[test]
    fn default_retry_policy_never_retries() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_before(1), None);
        assert_eq!(p.backoff_before(7), None);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_backoff_ticks: 100,
            max_backoff_ticks: 450,
            jitter_ticks: 0,
            seed: 0,
        };
        assert_eq!(p.backoff_before(1), Some(100));
        assert_eq!(p.backoff_before(2), Some(200));
        assert_eq!(p.backoff_before(3), Some(400));
        assert_eq!(p.backoff_before(4), Some(450), "capped");
        assert_eq!(p.backoff_before(5), Some(450));
        assert_eq!(p.backoff_before(6), None, "budget spent");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff_ticks: 100,
            max_backoff_ticks: 100,
            jitter_ticks: 16,
            seed: 0xFEED,
        };
        for failures in 1..10 {
            let a = p.backoff_before(failures).unwrap();
            let b = p.backoff_before(failures).unwrap();
            assert_eq!(a, b, "same inputs, same backoff");
            assert!((100..=116).contains(&a), "jitter within bounds: {a}");
        }
        // A different seed draws different jitter somewhere in the run.
        let q = RetryPolicy { seed: 0xBEEF, ..p };
        assert!(
            (1..10).any(|f| p.backoff_before(f) != q.backoff_before(f)),
            "seed must matter"
        );
    }

    #[test]
    fn huge_attempt_counts_saturate_instead_of_overflowing() {
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff_ticks: u64::MAX / 2,
            max_backoff_ticks: u64::MAX,
            jitter_ticks: 0,
            seed: 0,
        };
        assert_eq!(p.backoff_before(200), Some(u64::MAX));
    }

    #[test]
    fn no_failure_yet_waits_nothing() {
        // `failures == 0` used to underflow `failures - 1`: a panic in a
        // debug build, the capped backoff plus jitter in a release one.
        for p in [
            RetryPolicy::default(),
            RetryPolicy::standard(1),
            huge(u32::MAX, u64::MAX),
        ] {
            assert_eq!(p.backoff_before(0), Some(0), "{p:?}");
        }
    }

    #[test]
    fn zero_max_attempts_is_treated_as_one() {
        let p = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::standard(1)
        };
        assert_eq!(p.backoff_before(1), None);
    }

    /// A policy whose every backoff is the largest representable wait.
    fn huge(max_attempts: u32, jitter_ticks: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff_ticks: u64::MAX,
            max_backoff_ticks: u64::MAX,
            jitter_ticks,
            seed: 0x5EED,
        }
    }

    #[test]
    fn full_range_jitter_draws_without_overflowing() {
        // `jitter_ticks + 1` overflows: the jitter spans all of `u64`,
        // so the draw itself is the jitter.
        let p = RetryPolicy {
            base_backoff_ticks: 0,
            max_backoff_ticks: 0,
            ..huge(4, u64::MAX)
        };
        for failures in 1..4 {
            assert_eq!(
                p.backoff_before(failures),
                Some(splitmix64(p.seed ^ u64::from(failures)))
            );
        }
    }

    #[test]
    fn a_maximal_backoff_plus_jitter_saturates() {
        let p = huge(8, 16);
        for failures in 1..8 {
            assert_eq!(
                p.backoff_before(failures),
                Some(u64::MAX),
                "failure {failures}"
            );
        }
    }

    #[test]
    fn waits_summed_across_retries_saturate() {
        use netstack::tcplite::TcpError;
        let got = huge(3, 0).run(|failures, _| {
            if failures < 2 {
                Err(FetchError::Transport(TcpError::Timeout))
            } else {
                Ok("landed")
            }
        });
        assert_eq!(got, Ok(("landed", 2, u64::MAX)));
    }

    #[test]
    fn resilience_stats_default_is_all_zero() {
        let s = ResilienceStats::default();
        assert_eq!(
            s,
            ResilienceStats {
                edge_crashes: 0,
                edge_restarts: 0,
                shield_crashes: 0,
                shield_restarts: 0,
                mean_restore_ticks: 0.0,
                sessions_rehomed: 0,
                sessions_fault_rebuffered: 0,
                fault_rebuffer_ticks: 0,
                rewarm_fills: 0,
                fills_lost: 0,
            }
        );
    }
}
