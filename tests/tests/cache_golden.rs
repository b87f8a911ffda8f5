//! Differential golden for the packet-level cache: a scripted op
//! sequence over [`CacheNode`] chains — every former `fetch_*through*`
//! variant, shield-only fills, origin and shield outages, TTL 0/10/100,
//! invalidation, oversized pass-through, retries on a lossy link and
//! prewarm — logs each result (bytes, ticks or the error), every
//! [`EdgeStats`](mmstream::edge::EdgeStats) field and the fill ledger,
//! and must hash to the digests the replaced edge/shield twins produced.

use mmstream::cache::{CacheConfig, CacheNode};
use mmstream::fault::RetryPolicy;
use netstack::fetch::{fetch, ContentServer, FetchError, FetchReport};
use netstack::link::LinkConfig;
use netstack::tcplite::TcpConfig;

/// One node's settings; `None` takes its tier's default.
#[derive(Clone, Default)]
struct C {
    cap: Option<usize>,
    ttl: u64,
    loss: f64,
    deadline: Option<u64>,
    seed: Option<u64>,
    retry: RetryPolicy,
}

fn tcp_of(c: &C) -> TcpConfig {
    match c.deadline {
        Some(d) => TcpConfig {
            deadline_ticks: d,
            ..Default::default()
        },
        None => TcpConfig::default(),
    }
}

fn link_of(c: &C) -> LinkConfig {
    if c.loss > 0.0 {
        LinkConfig::default().with_loss(c.loss)
    } else {
        LinkConfig::default()
    }
}

fn config(c: &C, d: CacheConfig) -> CacheConfig {
    CacheConfig {
        cache_capacity_bytes: c.cap.unwrap_or(d.cache_capacity_bytes),
        origin_tcp: tcp_of(c),
        origin_link: link_of(c),
        origin_seed: c.seed.unwrap_or(d.origin_seed),
        mutable_ttl_ticks: c.ttl,
        retry: c.retry,
    }
}

fn shield_defaults() -> CacheConfig {
    CacheConfig {
        cache_capacity_bytes: 8 << 20,
        origin_seed: 0x5111E1D,
        ..CacheConfig::default()
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn show(r: &Result<(Vec<u8>, u64), FetchError>) -> String {
    match r {
        Ok((data, ticks)) => format!("ok len={} fnv={:016x} ticks={ticks}", data.len(), fnv(data)),
        Err(e) => format!("err {e:?}"),
    }
}

/// An origin, edges and an optional shield over them, with a transcript
/// line per op: its result, then every node's stats (and the shield's
/// fill ledger).
struct Rig {
    origin: ContentServer,
    edges: Vec<CacheNode>,
    shield: Option<CacheNode>,
    lines: Vec<String>,
}

impl Rig {
    fn new(edges: &[C], shield: Option<C>) -> Self {
        Self {
            origin: ContentServer::new(),
            edges: edges
                .iter()
                .map(|c| CacheNode::new(config(c, CacheConfig::default())))
                .collect(),
            shield: shield.map(|c| CacheNode::new(config(&c, shield_defaults()))),
            lines: Vec::new(),
        }
    }

    fn log(&mut self, label: String, res: String) {
        let mut line = format!("{label}: {res}");
        for (i, e) in self.edges.iter().enumerate() {
            line += &format!(" | e{i} {:?}", e.stats());
        }
        if let Some(s) = &self.shield {
            line += &format!(" | s {:?} ledger {:?}", s.stats(), s.fill_ledger());
        }
        self.lines.push(line);
    }

    fn publish(&mut self, name: &str, len: usize, fill: u8) {
        self.origin.publish(name, vec![fill; len]);
    }

    fn unpublish(&mut self, name: &str) {
        self.origin.remove(name);
    }

    fn get(&mut self, e: usize, name: &str, mutable: Option<u64>, seed: u64) {
        let leg = |source: &ContentServer, _| {
            fetch(
                source,
                name,
                TcpConfig::default(),
                LinkConfig::default(),
                seed,
            )
        };
        let edge = &mut self.edges[e];
        let r = match &mut self.shield {
            None => CacheNode::fetch(&mut [edge], &self.origin, name, mutable, leg),
            Some(sh) => CacheNode::fetch(&mut [edge, sh], &self.origin, name, mutable, leg),
        };
        self.log(format!("get e{e} {name} {mutable:?} seed {seed}"), show(&r));
    }

    /// What a child sees of the shield, with a zero-cost last leg.
    fn ensure(&mut self, name: &str, mutable: Option<u64>) {
        let sh = self.shield.as_mut().unwrap();
        let r = CacheNode::fetch(&mut [sh], &self.origin, name, mutable, |source, _| {
            Ok(FetchReport {
                data: source.get(name).unwrap().to_vec(),
                ticks: 0,
                retransmissions: 0,
            })
        });
        self.log(format!("ensure {name} {mutable:?}"), show(&r));
    }

    fn invalidate(&mut self, e: usize, name: &str) {
        let dropped = self.edges[e].invalidate(name);
        self.log(format!("invalidate e{e} {name}"), format!("{dropped}"));
    }

    fn prewarm(&mut self, e: Option<usize>, names: &[&str]) {
        let names: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        match e {
            Some(e) => self.edges[e].prewarm(&self.origin, &names),
            None => self.shield.as_mut().unwrap().prewarm(&self.origin, &names),
        }
        let sizes: Vec<String> = self
            .edges
            .iter()
            .map(|e| format!("{}/{}", e.cached_objects(), e.cached_bytes()))
            .collect();
        let sh = self
            .shield
            .as_ref()
            .map(|s| format!("{}/{}", s.cached_objects(), s.cached_bytes()));
        self.log(
            format!("prewarm {e:?} {names:?}"),
            format!("{sizes:?} {sh:?}"),
        );
    }

    fn edge_parent_up(&mut self, e: usize, up: bool) {
        self.edges[e].set_parent_up(up);
    }

    fn shield_up(&mut self, up: bool) {
        self.shield.as_mut().unwrap().set_up(up);
    }

    fn shield_parent_up(&mut self, up: bool) {
        self.shield.as_mut().unwrap().set_parent_up(up);
    }
}

fn flaky(retry: RetryPolicy) -> C {
    C {
        loss: 0.65,
        deadline: Some(1_200),
        seed: Some(3),
        retry,
        ..C::default()
    }
}

fn retry4() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff_ticks: 10,
        max_backoff_ticks: 40,
        jitter_ticks: 0,
        seed: 0,
    }
}

fn scenarios() -> Vec<(&'static str, Vec<String>)> {
    let mut out = Vec::new();

    // Direct edge, immutable objects: miss, hit, eviction, refill,
    // oversized pass-through, missing object, invalidation.
    let mut r = Rig::new(
        &[C {
            cap: Some(2_000),
            ..C::default()
        }],
        None,
    );
    r.publish("a", 600, 1);
    r.publish("b", 600, 2);
    r.publish("c", 900, 3);
    r.publish("big", 5_000, 4);
    r.get(0, "a", None, 1);
    r.get(0, "a", None, 2);
    r.get(0, "b", None, 3);
    r.get(0, "c", None, 4);
    r.get(0, "a", None, 5);
    r.get(0, "big", None, 6);
    r.get(0, "big", None, 7);
    r.get(0, "nope", None, 8);
    r.invalidate(0, "a");
    r.invalidate(0, "a");
    r.invalidate(0, "never");
    r.get(0, "a", None, 9);
    out.push(("edge_vod", r.lines));

    // Direct edge through an origin outage, with prewarm.
    let mut r = Rig::new(&[C::default()], None);
    r.publish("a", 300, 1);
    r.publish("b", 300, 2);
    r.publish("m", 100, 3);
    r.publish("huge", 2 << 20, 9);
    r.prewarm(Some(0), &["a", "missing", "huge"]);
    r.edge_parent_up(0, false);
    r.get(0, "a", None, 1);
    r.get(0, "b", None, 2);
    r.get(0, "m", Some(0), 3);
    r.edge_parent_up(0, true);
    r.get(0, "b", None, 4);
    r.get(0, "m", Some(10), 5);
    r.edge_parent_up(0, false);
    r.get(0, "m", Some(500), 6);
    r.get(0, "b", Some(600), 7);
    out.push(("edge_outage", r.lines));

    // Direct edge, mutable objects under TTL 0/10/100.
    for (ttl, label) in [
        (0, "edge_ttl_0"),
        (10, "edge_ttl_10"),
        (100, "edge_ttl_100"),
    ] {
        let mut r = Rig::new(
            &[C {
                ttl,
                ..C::default()
            }],
            None,
        );
        r.publish("m", 200, 1);
        r.get(0, "m", Some(0), 1);
        r.get(0, "m", Some(5), 2);
        r.publish("m", 210, 2);
        r.get(0, "m", Some(9), 3);
        r.get(0, "m", Some(10), 4);
        r.get(0, "m", Some(50), 5);
        r.publish("m", 220, 3);
        r.get(0, "m", Some(100), 6);
        r.get(0, "m", Some(150), 7);
        r.edge_parent_up(0, false);
        r.get(0, "m", Some(400), 8);
        r.edge_parent_up(0, true);
        r.get(0, "m", Some(401), 9);
        r.get(0, "m", None, 10);
        r.invalidate(0, "m");
        r.get(0, "m", Some(402), 11);
        out.push((label, r.lines));
    }

    // Fills over a lossy origin link: fail-fast attempts advancing the
    // seed, a retrying edge, an exhausted retry budget, a 15% link.
    let mut r = Rig::new(
        &[
            flaky(RetryPolicy::default()),
            flaky(retry4()),
            flaky(RetryPolicy {
                max_attempts: 2,
                base_backoff_ticks: 10,
                max_backoff_ticks: 10,
                jitter_ticks: 0,
                seed: 0,
            }),
            C {
                loss: 0.15,
                ..C::default()
            },
            C {
                retry: RetryPolicy::standard(1),
                ..C::default()
            },
        ],
        None,
    );
    r.publish("x", 1_500, 7);
    r.publish("y", 2_000, 8);
    for seed in 1..=4 {
        r.get(0, "x", None, seed);
    }
    r.get(1, "x", None, 1);
    r.get(1, "x", None, 2);
    r.get(2, "x", None, 1);
    r.get(3, "y", None, 1);
    r.get(3, "y", None, 2);
    r.get(4, "nope", None, 1);
    r.get(4, "y", None, 2);
    out.push(("edge_retry", r.lines));

    // Two edges under one shield: edge miss/shield miss, edge
    // miss/shield hit, oversized at the edge only and at both tiers,
    // evictions at both tiers, invalidation at an edge.
    let mut r = Rig::new(
        &[
            C {
                cap: Some(1_500),
                ..C::default()
            },
            C {
                cap: Some(1_500),
                ..C::default()
            },
        ],
        Some(C {
            cap: Some(3_000),
            ..C::default()
        }),
    );
    r.publish("a", 600, 1);
    r.publish("b", 800, 2);
    r.publish("c", 1_200, 3);
    r.publish("mid", 2_000, 4);
    r.publish("big", 4_000, 5);
    r.get(0, "a", None, 1);
    r.get(1, "a", None, 2);
    r.get(0, "a", None, 3);
    r.get(0, "b", None, 4);
    r.get(1, "c", None, 5);
    r.get(0, "mid", None, 6);
    r.get(1, "mid", None, 7);
    r.get(0, "big", None, 8);
    r.get(1, "big", None, 9);
    r.get(0, "c", None, 10);
    r.get(1, "a", None, 11);
    r.get(0, "nope", None, 12);
    r.invalidate(0, "a");
    r.get(0, "a", None, 13);
    out.push(("tier_vod", r.lines));

    // Outages in the tier: shield down, the edge->shield link down,
    // the shield->origin link down; warm copies keep serving.
    let mut r = Rig::new(&[C::default(), C::default()], Some(C::default()));
    r.publish("a", 500, 1);
    r.publish("b", 500, 2);
    r.publish("c", 500, 3);
    r.prewarm(None, &["c"]);
    r.get(0, "a", None, 1);
    r.shield_up(false);
    r.get(0, "a", None, 2);
    r.get(1, "a", None, 3);
    r.get(0, "b", None, 4);
    r.shield_up(true);
    r.shield_parent_up(false);
    r.get(1, "a", None, 5);
    r.get(1, "b", None, 6);
    r.get(1, "c", None, 7);
    r.shield_parent_up(true);
    r.edge_parent_up(1, false);
    r.get(1, "b", None, 8);
    r.get(1, "a", None, 9);
    r.edge_parent_up(1, true);
    r.get(1, "b", None, 10);
    out.push(("tier_outage", r.lines));

    // Mutable objects through the tier, edge TTL 10 over shield TTL
    // 100, then both at TTL 0; stale-if-error across both hops.
    for (ettl, sttl, label) in [(10, 100, "tier_ttl_10_100"), (0, 0, "tier_ttl_0_0")] {
        let mut r = Rig::new(
            &[
                C {
                    ttl: ettl,
                    ..C::default()
                },
                C {
                    ttl: ettl,
                    ..C::default()
                },
            ],
            Some(C {
                ttl: sttl,
                ..C::default()
            }),
        );
        r.publish("m", 300, 1);
        r.get(0, "m", Some(0), 1);
        r.get(0, "m", Some(5), 2);
        r.get(1, "m", Some(6), 3);
        r.publish("m", 310, 2);
        r.get(0, "m", Some(10), 4);
        r.get(1, "m", Some(60), 5);
        r.get(0, "m", Some(100), 6);
        r.publish("m", 320, 3);
        r.get(0, "m", Some(200), 7);
        r.shield_parent_up(false);
        r.get(1, "m", Some(300), 8);
        r.get(0, "m", Some(301), 9);
        r.get(0, "other", Some(302), 10);
        r.shield_parent_up(true);
        r.shield_up(false);
        r.get(0, "m", Some(400), 11);
        r.get(1, "other", Some(401), 12);
        r.shield_up(true);
        r.edge_parent_up(0, false);
        r.get(0, "m", Some(500), 13);
        r.edge_parent_up(0, true);
        r.get(0, "m", Some(600), 14);
        out.push((label, r.lines));
    }

    // The shield on its own: ensure / ensure_mutable, prewarm,
    // pass-through, outage, stale-if-error on an origin outage.
    let mut r = Rig::new(
        &[],
        Some(C {
            cap: Some(1_000),
            ttl: 10,
            ..C::default()
        }),
    );
    r.publish("a", 64, 1);
    r.publish("big", 2_000, 2);
    r.publish("m", 32, 3);
    r.publish("p", 100, 4);
    r.prewarm(None, &["p", "big", "missing"]);
    r.ensure("a", None);
    r.ensure("a", None);
    r.ensure("p", None);
    r.ensure("big", None);
    r.ensure("nope", None);
    r.shield_up(false);
    r.ensure("a", None);
    r.ensure("m", Some(0));
    r.shield_up(true);
    r.ensure("m", Some(0));
    r.ensure("m", Some(5));
    r.publish("m", 40, 5);
    r.ensure("m", Some(20));
    r.shield_parent_up(false);
    r.ensure("m", Some(100));
    r.ensure("other", Some(100));
    r.ensure("b2", None);
    r.ensure("a", None);
    out.push(("shield_ensure", r.lines));

    // Retries in the tier: a flaky edge->shield leg with retries, a
    // flaky shield->origin leg without.
    let mut r = Rig::new(
        &[flaky(retry4()), C::default()],
        Some(flaky(RetryPolicy::default())),
    );
    r.publish("x", 1_500, 7);
    r.publish("y", 1_000, 8);
    r.prewarm(None, &["x"]);
    r.get(0, "x", None, 1);
    r.get(1, "y", None, 2);
    r.get(1, "y", None, 3);
    r.get(1, "y", None, 4);
    r.get(0, "y", None, 5);
    out.push(("tier_retry", r.lines));

    // Revalidations whose re-fetch fails: the object vanished from the
    // origin after it was cached (a parent `Server` error), at a root
    // edge, a root shield and an edge under a shield.
    let mut r = Rig::new(&[C::default()], None);
    r.publish("m", 100, 1);
    r.get(0, "m", Some(0), 1);
    r.unpublish("m");
    r.get(0, "m", Some(10), 2);
    r.get(0, "m", Some(20), 3);
    out.push(("revalidate_gone_edge", r.lines));

    let mut r = Rig::new(&[], Some(C::default()));
    r.publish("m", 100, 1);
    r.ensure("m", Some(0));
    r.unpublish("m");
    r.ensure("m", Some(10));
    r.ensure("m", Some(20));
    out.push(("revalidate_gone_shield", r.lines));

    let mut r = Rig::new(&[C::default()], Some(C::default()));
    r.publish("m", 100, 1);
    r.get(0, "m", Some(0), 1);
    r.unpublish("m");
    r.get(0, "m", Some(10), 2);
    r.get(0, "m", Some(20), 3);
    out.push(("revalidate_gone_tier", r.lines));

    // A revalidation whose re-fetch fails in transport: the flaky link
    // succeeds on its third attempt, twice more, then two revalidations
    // fail.
    let mut r = Rig::new(&[flaky(RetryPolicy::default())], None);
    r.publish("m", 1_500, 1);
    for (seed, now) in [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5), (7, 6)] {
        r.get(0, "m", Some(now), seed);
    }
    out.push(("revalidate_transport", r.lines));

    out
}

/// Per-scenario FNV-1a digests of the transcripts, captured by the same
/// script against the `EdgeCache` / `ShieldCache` twins that
/// `CacheNode` replaced, through their four `fetch_*through*` variants
/// (`ensure` / `ensure_mutable` followed by a child's read for the
/// shield-only ops).
const TWIN_DIGESTS: &[(&str, u64)] = &[
    ("edge_vod", 0x38a0c150c7e34955),
    ("edge_outage", 0x57744bb203e02c43),
    ("edge_ttl_0", 0x42b69ea865c05ae2),
    ("edge_ttl_10", 0xee87caee9a99cb01),
    ("edge_ttl_100", 0x3d65a760c6ebd9d5),
    ("edge_retry", 0x8b3bd46dff4785ca),
    ("tier_vod", 0xc5dc9572e961fc80),
    ("tier_outage", 0xd037f7e63e602539),
    ("tier_ttl_10_100", 0xab9cfbd5cf2a67b0),
    ("tier_ttl_0_0", 0x7958be7dbb2cf36d),
    ("shield_ensure", 0x62eeb735f9e118db),
    ("tier_retry", 0xad11dc95ed6d3a74),
    ("revalidate_gone_edge", 0x18341e995fa5cbde),
    ("revalidate_gone_shield", 0x6019ad7d9b9b2b7b),
    ("revalidate_gone_tier", 0x3d9383c101bffea2),
    ("revalidate_transport", 0x825c74dbd63fa73b),
];

/// The only ops allowed to differ from the twins: `(scenario, op, twin
/// line, current line)`. All are revalidations of a stale copy whose
/// re-fetch fails.
///
/// 1. A failed revalidation no longer counts under `revalidations`
///    (a subset of `misses`): the twins counted it at a root edge and
///    at a shield.
/// 2. A stale copy whose revalidation gets a parent `Server` error is
///    served (stale-if-error) at every depth: the twins' root edge and
///    shield returned `not-found` instead, and under a shield the twin
///    edge served its own stale copy where the shield now serves its
///    copy down to the edge.
const DIVERGENCES: &[(&str, usize, &str, &str)] = &[
    (
        "revalidate_gone_edge",
        1,
        "get e0 m Some(10) seed 2: err Server(\"not-found\") | e0 EdgeStats { hits: 0, misses: 1, coalesced: 0, evictions: 0, revalidations: 1, invalidations: 0, origin_bytes: 100, served_bytes: 100 }",
        "get e0 m Some(10) seed 2: ok len=100 fnv=55d53d2a6c2c3e79 ticks=25 | e0 EdgeStats { hits: 1, misses: 1, coalesced: 0, evictions: 0, revalidations: 0, invalidations: 0, origin_bytes: 100, served_bytes: 200 }",
    ),
    (
        "revalidate_gone_edge",
        2,
        "get e0 m Some(20) seed 3: err Server(\"not-found\") | e0 EdgeStats { hits: 0, misses: 1, coalesced: 0, evictions: 0, revalidations: 2, invalidations: 0, origin_bytes: 100, served_bytes: 100 }",
        "get e0 m Some(20) seed 3: ok len=100 fnv=55d53d2a6c2c3e79 ticks=25 | e0 EdgeStats { hits: 2, misses: 1, coalesced: 0, evictions: 0, revalidations: 0, invalidations: 0, origin_bytes: 100, served_bytes: 300 }",
    ),
    (
        "revalidate_gone_shield",
        1,
        "ensure m Some(10): err Server(\"not-found\") | s EdgeStats { hits: 0, misses: 1, coalesced: 0, evictions: 0, revalidations: 1, invalidations: 0, origin_bytes: 100, served_bytes: 100 } ledger (2, 0, 1)",
        "ensure m Some(10): ok len=100 fnv=55d53d2a6c2c3e79 ticks=0 | s EdgeStats { hits: 1, misses: 1, coalesced: 0, evictions: 0, revalidations: 0, invalidations: 0, origin_bytes: 100, served_bytes: 200 } ledger (2, 0, 1)",
    ),
    (
        "revalidate_gone_shield",
        2,
        "ensure m Some(20): err Server(\"not-found\") | s EdgeStats { hits: 0, misses: 1, coalesced: 0, evictions: 0, revalidations: 2, invalidations: 0, origin_bytes: 100, served_bytes: 100 } ledger (3, 0, 2)",
        "ensure m Some(20): ok len=100 fnv=55d53d2a6c2c3e79 ticks=0 | s EdgeStats { hits: 2, misses: 1, coalesced: 0, evictions: 0, revalidations: 0, invalidations: 0, origin_bytes: 100, served_bytes: 300 } ledger (3, 0, 2)",
    ),
    (
        "revalidate_gone_tier",
        1,
        "get e0 m Some(10) seed 2: ok len=100 fnv=55d53d2a6c2c3e79 ticks=25 | e0 EdgeStats { hits: 1, misses: 1, coalesced: 0, evictions: 0, revalidations: 0, invalidations: 0, origin_bytes: 100, served_bytes: 200 } | s EdgeStats { hits: 0, misses: 1, coalesced: 0, evictions: 0, revalidations: 1, invalidations: 0, origin_bytes: 100, served_bytes: 100 } ledger (2, 0, 1)",
        "get e0 m Some(10) seed 2: ok len=100 fnv=55d53d2a6c2c3e79 ticks=50 | e0 EdgeStats { hits: 0, misses: 2, coalesced: 0, evictions: 0, revalidations: 1, invalidations: 0, origin_bytes: 200, served_bytes: 200 } | s EdgeStats { hits: 1, misses: 1, coalesced: 0, evictions: 0, revalidations: 0, invalidations: 0, origin_bytes: 100, served_bytes: 200 } ledger (2, 0, 1)",
    ),
    (
        "revalidate_gone_tier",
        2,
        "get e0 m Some(20) seed 3: ok len=100 fnv=55d53d2a6c2c3e79 ticks=25 | e0 EdgeStats { hits: 2, misses: 1, coalesced: 0, evictions: 0, revalidations: 0, invalidations: 0, origin_bytes: 100, served_bytes: 300 } | s EdgeStats { hits: 0, misses: 1, coalesced: 0, evictions: 0, revalidations: 2, invalidations: 0, origin_bytes: 100, served_bytes: 100 } ledger (3, 0, 2)",
        "get e0 m Some(20) seed 3: ok len=100 fnv=55d53d2a6c2c3e79 ticks=50 | e0 EdgeStats { hits: 0, misses: 3, coalesced: 0, evictions: 0, revalidations: 2, invalidations: 0, origin_bytes: 300, served_bytes: 300 } | s EdgeStats { hits: 2, misses: 1, coalesced: 0, evictions: 0, revalidations: 0, invalidations: 0, origin_bytes: 100, served_bytes: 300 } ledger (3, 0, 2)",
    ),
    (
        "revalidate_transport",
        5,
        "get e0 m Some(5) seed 6: err Transport(Timeout) | e0 EdgeStats { hits: 0, misses: 3, coalesced: 0, evictions: 0, revalidations: 3, invalidations: 0, origin_bytes: 4500, served_bytes: 4500 }",
        "get e0 m Some(5) seed 6: err Transport(Timeout) | e0 EdgeStats { hits: 0, misses: 3, coalesced: 0, evictions: 0, revalidations: 2, invalidations: 0, origin_bytes: 4500, served_bytes: 4500 }",
    ),
    (
        "revalidate_transport",
        6,
        "get e0 m Some(6) seed 7: err Transport(Timeout) | e0 EdgeStats { hits: 0, misses: 3, coalesced: 0, evictions: 0, revalidations: 4, invalidations: 0, origin_bytes: 4500, served_bytes: 4500 }",
        "get e0 m Some(6) seed 7: err Transport(Timeout) | e0 EdgeStats { hits: 0, misses: 3, coalesced: 0, evictions: 0, revalidations: 2, invalidations: 0, origin_bytes: 4500, served_bytes: 4500 }",
    ),
];

#[test]
fn cache_node_matches_the_replaced_twins_except_the_listed_fixes() {
    let scenarios = scenarios();
    assert_eq!(scenarios.len(), TWIN_DIGESTS.len());
    for ((name, mut lines), &(twin_name, digest)) in scenarios.into_iter().zip(TWIN_DIGESTS) {
        assert_eq!(name, twin_name);
        for &(_, op, twin, now) in DIVERGENCES.iter().filter(|d| d.0 == name) {
            assert_eq!(lines[op], now, "{name} op {op}");
            lines[op] = twin.to_string();
        }
        let joined = lines.join("\n");
        assert_eq!(
            fnv(joined.as_bytes()),
            digest,
            "{name} drifted from the twins:\n{joined}"
        );
    }
}
