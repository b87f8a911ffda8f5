//! # `mmstream` — transport mux + ABR segment delivery
//!
//! The delivery layer between the codecs and the netstack, motivated by
//! Wolf §7's networked consumer devices ("content access" over small IP
//! stacks) and the ROADMAP's per-server scale goal:
//!
//! * [`ts`] — fixed-188-byte TS-style packets with PIDs, continuity
//!   counters, and per-packet CRC-32; bit-identical demux on a clean
//!   link, gap detection and damaged-unit discard on a lossy one.
//! * [`segment`] — one GOP-aligned segment as a transport stream: frame
//!   index (from the encoder's per-frame kind/offset metadata), video
//!   ES, optional interleaved audio ES.
//! * [`ladder`] — the ABR ladder: one source encoded at several rate
//!   targets via `video::rate`, closed-GOP segments, a plain-text
//!   [`ladder::Manifest`], optional XTEA-CTR sealing (§6), a `mediafs`
//!   segment store, content-server publishing — and the live/linear
//!   head end, [`ladder::LiveOrigin`], which publishes a pre-encoded
//!   wheel one segment per tick interval under a rolling DVR window
//!   and a versioned live manifest.
//! * [`headend`] — the bridge back to the source paper's platform
//!   model: folds a measured ladder (per-rung encoder stage tallies,
//!   real segment byte volumes) into the staged
//!   `mpsoc::headend::HeadendSpec` whose task graph maps the
//!   capture → per-rung encode → mux → seal → publish pipeline across
//!   MPSoC platforms, while the same per-rung stages execute as
//!   [`ladder::encode_rung`] work units on an `mmpool` worker pool
//!   ([`ladder::encode_ladder_on`], bit-identical to the sequential
//!   encode for any worker count).
//! * [`session`] — a viewer: manifest/license fetch, segment fetches
//!   over `netstack::fetch`/`tcplite` across lossy links, a playout
//!   buffer, and a throughput-driven ABR controller; reports startup
//!   delay, rebuffer events, and rung switches. Live viewers
//!   ([`session::run_live_session`]) additionally refresh the manifest,
//!   stall on staleness, and skip content lost to DVR expiry.
//! * [`serve`] — a deterministic fluid simulator interleaving millions
//!   of concurrent sessions, measuring the capacity knee where
//!   per-session quality starts to collapse. One [`Scenario`] (catalog,
//!   [`CdnConfig`] topology, optional live gates, fault plan, load)
//!   feeds four functions: [`simulate`] one run, [`sweep`] a curve of
//!   populations (optionally on a worker pool), [`knee`] by bisection,
//!   and [`curve_knee`] over a swept curve. A single origin and a flat
//!   edge tier are [`CdnConfig`] topologies like any other. Load is a
//!   *process*: Poisson-style arrivals/departures and flash-crowd ramps
//!   ([`serve::ChurnConfig`]), plus live publish/expiry gates
//!   ([`serve::LiveConfig`]), with the static VOD population as the
//!   exact zero-churn special case.
//! * [`cache`] — the packet-level cache: one [`CacheNode`] type for
//!   every tier. A session fetches through a chain of nodes
//!   (viewer-facing first: `[]` direct, `[edge]`, `[edge, shield]`);
//!   each miss fills from the next node or the origin, and a stale copy
//!   serves through a parent error (stale-if-error) at every depth.
//! * [`edge`] — the edge tier's shared parts: the byte-budgeted [`Lru`],
//!   the coalescing [`FillTable`], per-cache [`EdgeStats`], the
//!   failover [`HashRing`], and the fluid simulator's
//!   [`EdgeTierConfig`], so serving capacity (and the knee) scales with
//!   edge count instead of being pinned to one uplink.
//! * [`shield`] — the fluid regional mid-tier of the hierarchical CDN
//!   (edge → shield → origin, with generation-keyed fill coalescing),
//!   TinyLFU cache admission over a 4-bit count-min [`FreqSketch`], and
//!   the per-tier [`TierStats`] rollup separating edge-local from
//!   true-origin offload.
//! * [`catalog`] — multi-title workloads: a [`Catalog`] of per-title
//!   manifests with a seeded Zipf popularity sampler
//!   ([`ZipfSampler`]); a single-title catalog is bit-identical to
//!   the pre-catalog engine.
//! * [`fault`] — deterministic resilience: a seeded [`FaultPlan`]
//!   (edge crashes with cold/warm restarts, origin flaps, link
//!   degradation) scheduled on the simulator's own event calendar, a
//!   consistent-hash failover ring ([`HashRing`]) that re-homes only a
//!   crashed edge's sessions, and the [`RetryPolicy`] backoff
//!   discipline shared by session fetches, live manifest refreshes,
//!   and edge origin fills. Faulted runs report a [`ResilienceStats`]
//!   ledger (MTTR, sessions impacted, re-warm fills); an empty plan is
//!   bit-identical to a plan-free run.
//!
//! # VOD vs live object lifecycles
//!
//! The two workload classes stress opposite ends of the cache:
//!
//! * **VOD**: every object (manifest, license, segment) is *immutable
//!   and permanent*. The whole ladder is published before the first
//!   viewer arrives; an edge may cache anything forever, so hit rate is
//!   bounded only by cache capacity ([`CacheConfig`]'s
//!   `cache_capacity_bytes` is the knob that matters) and prewarming
//!   ([`EdgeTierConfig::prewarm`]) trivially yields total origin
//!   offload.
//! * **Live**: segments are *immutable but transient* — published once
//!   at the live edge (where every viewer wants them at the same
//!   instant, the thundering-herd case [`edge::FillTable`] coalesces),
//!   then expired when they leave the DVR window (the origin's purge,
//!   surfaced to caches as invalidations) — while the manifest is a
//!   long-lived *mutable* object that must be re-validated on a TTL
//!   ([`CacheConfig::mutable_ttl_ticks`], served stale-if-error through
//!   origin outages). Prewarming is mostly meaningless for live; what
//!   matters is coalescing one fill per newly published segment and a
//!   TTL long enough to absorb manifest polling but short enough to
//!   keep viewers near the live edge.
//!
//! # Example
//!
//! ```
//! use mmstream::ladder::{encode_ladder, publish_ladder, LadderConfig};
//! use mmstream::session::{run_session, SessionConfig};
//! use netstack::fetch::ContentServer;
//! use video::synth::SequenceGen;
//!
//! let frames = SequenceGen::new(2).panning_sequence(48, 32, 8, 1, 0);
//! let cfg = LadderConfig {
//!     targets_bits_per_frame: vec![2_000.0, 6_000.0, 18_000.0],
//!     gop: 4,
//!     ..Default::default()
//! };
//! let ladder = encode_ladder("demo", &frames, &cfg)?;
//! let mut server = ContentServer::new();
//! publish_ladder(&mut server, &ladder);
//! let report = run_session(&server, &mut [], "demo", &SessionConfig::default()).unwrap();
//! assert_eq!(report.segments.len(), 2);
//! assert_eq!(report.rebuffer_events, 0);
//! # Ok::<(), mmstream::ladder::LadderError>(())
//! ```

pub mod cache;
pub(crate) mod calendar;
pub mod catalog;
pub mod edge;
pub mod fault;
pub mod headend;
pub mod ladder;
pub mod segment;
pub mod serve;
pub mod session;
pub mod shield;
pub mod ts;

pub use cache::{CacheConfig, CacheNode};
pub use catalog::{Catalog, ZipfSampler};
pub use edge::{EdgeStats, EdgeTierConfig, FillTable, HashRing, Lru, Sharding};
pub use fault::{FaultEvent, FaultPlan, ResilienceStats, RestartMode, RetryPolicy};
pub use headend::headend_spec;
pub use ladder::{
    encode_ladder, encode_ladder_on, encode_rung, publish_ladder, seal_ladder, Ladder,
    LadderConfig, LiveOrigin, LiveOriginConfig, LiveWindow, Manifest, PublishDelta, RungBuild,
    RungCost,
};
pub use segment::{demux_segment, mux_segment, mux_segment_wire, Segment};
pub use serve::{
    cdn_capacity_knee_bisect, curve_knee, knee, simulate, simulate_cdn_load,
    simulate_live_cdn_load_faulted, sweep, CdnConfig, CdnLoadReport, ChurnConfig, EdgeLoadReport,
    LiveConfig, LiveStats, LoadConfig, LoadReport, Scenario,
};
pub use session::{
    run_live_session, run_session, AbrController, AbrStrategy, JoinMode, LiveSessionConfig,
    LiveSessionReport, SessionConfig, SessionReport,
};
pub use shield::{AdmissionPolicy, FreqSketch, TierStats, TinyLfuConfig};
pub use ts::{TsDemux, TsMux, TsPacket, TS_PACKET_LEN};
