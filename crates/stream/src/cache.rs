//! The packet-level cache: one [`CacheNode`] type for every tier.
//!
//! A delivery route is a *chain* of nodes, viewer-facing node first,
//! ending at the true origin: `[]` is the direct path, `[edge]` a flat
//! edge, `[edge, shield]` the hierarchical CDN. [`CacheNode::fetch`]
//! walks the chain:
//!
//! * **Hit.** A cached object (a mutable one only while younger than
//!   [`CacheConfig::mutable_ttl_ticks`]) is served from the node's store.
//! * **Fill.** A miss asks the next node in the chain — or the origin
//!   when the chain ends — and pulls the object over this node's own
//!   parent link, retrying transport failures under
//!   [`CacheConfig::retry`]. The pulled object is admitted (an object
//!   larger than the whole cache passes through uncached), and a mutable
//!   one is stamped with the fill's `now` for its TTL. The parent that
//!   served the pull is credited `served_bytes`.
//! * **Stale-if-error.** A stale cached copy whose revalidation gets a
//!   `Server` error from its parent (a node or the link to it down, or
//!   the object gone upstream) is served anyway, at every depth, as
//!   RFC 5861's `stale-if-error` allows: a slightly old manifest beats
//!   a dead channel. Transport errors still surface. A revalidation
//!   counts (under both `misses` and `revalidations`) only when its
//!   re-fetch lands.
//!
//! The last leg — to the viewer, or to a child node — is the caller's:
//! sessions pass a `fetch_traced` over the access link, so every route
//! shares one viewer leg.

use std::collections::BTreeMap;

use netstack::fetch::{fetch, ContentServer, FetchError, FetchReport};
use netstack::link::LinkConfig;
use netstack::tcplite::TcpConfig;

use crate::edge::{EdgeStats, Lru};
use crate::fault::RetryPolicy;

/// Configuration of one cache node.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Cache budget in bytes.
    pub cache_capacity_bytes: usize,
    /// Transport used on the fill path to the parent.
    pub origin_tcp: TcpConfig,
    /// The node's link to its parent (typically better than an access
    /// link, but still lossy).
    pub origin_link: LinkConfig,
    /// Seed for the parent link's loss process, advanced per fill
    /// attempt so repeated fills see fresh, deterministic loss draws.
    pub origin_seed: u64,
    /// How long a *mutable* object (the live manifest) stays fresh after
    /// a fill, in ticks. `0` — the safe default — revalidates on every
    /// request; immutable objects ignore it.
    pub mutable_ttl_ticks: u64,
    /// Retry discipline for transport-level fill failures. The default
    /// makes one attempt (fail fast); server-level failures are never
    /// retried.
    pub retry: RetryPolicy,
}

impl Default for CacheConfig {
    /// 1 MiB cache over a clean default link; mutable objects
    /// revalidate on every request; fills are not retried.
    fn default() -> Self {
        Self {
            cache_capacity_bytes: 1 << 20,
            origin_tcp: TcpConfig::default(),
            origin_link: LinkConfig::default(),
            origin_seed: 0xED6E,
            mutable_ttl_ticks: 0,
            retry: RetryPolicy::default(),
        }
    }
}

/// One cache node: a bounded LRU of named objects that fills from its
/// parent (the origin or the next node of a chain) on demand.
#[derive(Debug, Clone)]
pub struct CacheNode {
    config: CacheConfig,
    lru: Lru<String>,
    store: ContentServer,
    /// `name -> tick of last fill` for objects fetched as mutable.
    fetched_at: BTreeMap<String, u64>,
    up: bool,
    parent_up: bool,
    /// Fill attempts so far: attempt `k` draws parent-link seed
    /// `origin_seed + k`.
    pub(crate) attempts: u64,
    fills_started: u64,
    fills_failed: u64,
    stats: EdgeStats,
}

impl CacheNode {
    /// An empty (cold) node. `impl Into` admits the benchmark's
    /// [`crate::shield::ShieldConfig`] as well as a [`CacheConfig`].
    #[must_use]
    pub fn new(config: impl Into<CacheConfig>) -> Self {
        let config = config.into();
        Self {
            lru: Lru::new(config.cache_capacity_bytes),
            config,
            store: ContentServer::new(),
            fetched_at: BTreeMap::new(),
            up: true,
            parent_up: true,
            attempts: 0,
            fills_started: 0,
            fills_failed: 0,
            stats: EdgeStats::default(),
        }
    }

    /// Simulates a crash (or recovery) of the node itself: while down it
    /// refuses every request with `Server("shield-unreachable")`, so its
    /// children fall back to stale copies.
    pub fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    /// Simulates an outage (or recovery) of the link to the parent:
    /// warm objects keep serving, misses fail.
    pub fn set_parent_up(&mut self, up: bool) {
        self.parent_up = up;
    }

    /// What this node has observed so far.
    #[must_use]
    pub fn stats(&self) -> &EdgeStats {
        &self.stats
    }

    /// The `(started, joined, failed)` fill ledger. The packet-level
    /// path is serial, so nothing ever joins an in-flight fill.
    #[must_use]
    pub fn fill_ledger(&self) -> (u64, u64, u64) {
        (self.fills_started, 0, self.fills_failed)
    }

    /// Objects currently cached.
    #[must_use]
    pub fn cached_objects(&self) -> usize {
        self.lru.len()
    }

    /// Bytes currently cached.
    #[must_use]
    pub fn cached_bytes(&self) -> usize {
        self.lru.held_bytes()
    }

    /// Copies `names` from `origin` into the cache instantly (content
    /// pre-positioning, the CDN's push model). Objects missing from the
    /// origin, or larger than the cache, are skipped.
    pub fn prewarm(&mut self, origin: &ContentServer, names: &[String]) {
        for name in names {
            if let Some(data) = origin.get(name) {
                self.admit(name.clone(), data.to_vec());
            }
        }
    }

    /// Drops one object outright — the origin told us it expired (live
    /// DVR-window invalidation). Returns whether it was cached. Not an
    /// eviction: `invalidations` counts it instead.
    pub fn invalidate(&mut self, name: &str) -> bool {
        let dropped = self.lru.remove(&name.to_string()).is_some();
        if dropped {
            self.store.remove(name);
            self.stats.invalidations += 1;
        }
        self.fetched_at.remove(name);
        dropped
    }

    /// Fetches `name` through the chain `nodes` (viewer-facing node
    /// first; empty for the direct path) backed by `origin`, as
    /// described in the [module docs](self). `mutable` carries the
    /// caller's clock for a mutable object (TTL freshness and
    /// revalidation) and is `None` for an immutable one.
    ///
    /// `leg(source, fill_ticks)` is the last hop: it transfers `name`
    /// out of `source` (the first node's store, a pass-through copy, or
    /// `origin` itself) once `fill_ticks` of filling have elapsed.
    /// Returns the bytes and the total ticks (fill plus leg).
    ///
    /// # Errors
    ///
    /// Returns [`FetchError`] when the first node is down, when a miss
    /// cannot be filled and no stale copy may serve, or when `leg`
    /// fails.
    pub fn fetch(
        nodes: &mut [&mut CacheNode],
        origin: &ContentServer,
        name: &str,
        mutable: Option<u64>,
        leg: impl FnOnce(&ContentServer, u64) -> Result<FetchReport, FetchError>,
    ) -> Result<(Vec<u8>, u64), FetchError> {
        let Some((node, parents)) = nodes.split_first_mut() else {
            let r = leg(origin, 0)?;
            return Ok((r.data, r.ticks));
        };
        if !node.up {
            return Err(FetchError::Server("shield-unreachable".to_string()));
        }
        let cached = node.lru.touch(&name.to_string());
        let fresh = cached
            && match mutable {
                None => true,
                Some(now) => node
                    .fetched_at
                    .get(name)
                    .is_some_and(|&at| now < at.saturating_add(node.config.mutable_ttl_ticks)),
            };
        let mut fill_ticks = 0;
        let mut through = None;
        if fresh {
            node.stats.hits += 1;
        } else {
            match node.fill(parents, origin, name, mutable) {
                Ok((ticks, passthrough)) => {
                    if cached {
                        node.stats.revalidations += 1;
                    }
                    fill_ticks = ticks;
                    through = passthrough;
                }
                Err(FetchError::Server(_)) if cached => node.stats.hits += 1,
                Err(e) => return Err(e),
            }
        }
        let r = leg(through.as_ref().unwrap_or(&node.store), fill_ticks)?;
        node.stats.served_bytes += r.data.len() as u64;
        Ok((r.data, fill_ticks.saturating_add(r.ticks)))
    }

    /// One fill: ask `parents` (or `origin`) for the object, pull it
    /// over this node's parent link, then admit it (or hand back a
    /// pass-through server for an oversized object). Returns the fill
    /// ticks.
    fn fill(
        &mut self,
        parents: &mut [&mut CacheNode],
        origin: &ContentServer,
        name: &str,
        mutable: Option<u64>,
    ) -> Result<(u64, Option<ContentServer>), FetchError> {
        if !self.parent_up {
            let parent = if parents.is_empty() {
                "origin"
            } else {
                "shield"
            };
            return Err(FetchError::Server(format!("{parent}-unreachable")));
        }
        self.fills_started += 1;
        let (data, ticks) = Self::fetch(parents, origin, name, mutable, |source, _| {
            self.pull(source, name)
        })
        .map_err(|e| {
            self.fills_failed += 1;
            e
        })?;
        self.stats.misses += 1;
        self.stats.origin_bytes += data.len() as u64;
        if data.len() <= self.config.cache_capacity_bytes {
            self.admit(name.to_string(), data);
            if let Some(now) = mutable {
                self.fetched_at.insert(name.to_string(), now);
            }
            Ok((ticks, None))
        } else {
            let mut passthrough = ContentServer::new();
            passthrough.publish(name, data);
            Ok((ticks, Some(passthrough)))
        }
    }

    /// The transfer over this node's parent link. Every attempt
    /// advances the seed, so a retry after a transport timeout sees
    /// fresh loss draws instead of replaying the failure; transport
    /// failures retry under the configured policy (backoff counts
    /// against the fill time), server failures surface at once.
    fn pull(&mut self, source: &ContentServer, name: &str) -> Result<FetchReport, FetchError> {
        let (mut r, _, waited) = self.config.retry.run(|_, _| {
            let seed = self.config.origin_seed.wrapping_add(self.attempts);
            self.attempts += 1;
            fetch(
                source,
                name,
                self.config.origin_tcp,
                self.config.origin_link,
                seed,
            )
        })?;
        r.ticks = r.ticks.saturating_add(waited);
        Ok(r)
    }

    /// Inserts one object, evicting as needed (the LRU index and the
    /// store stay consistent). An object larger than the whole cache is
    /// not stored, and any stale cached version of it is dropped rather
    /// than left to serve as a phantom hit.
    fn admit(&mut self, name: String, data: Vec<u8>) {
        let cacheable = data.len() <= self.config.cache_capacity_bytes;
        for victim in self.lru.insert(name.clone(), data.len()) {
            self.store.remove(&victim);
        }
        self.stats.evictions = self.lru.evictions();
        if cacheable {
            self.store.publish(name, data);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A viewer fetch through `nodes` over a default access link.
    pub(crate) fn viewer_get(
        nodes: &mut [&mut CacheNode],
        origin: &ContentServer,
        name: &str,
        mutable: Option<u64>,
        seed: u64,
    ) -> Result<(Vec<u8>, u64), FetchError> {
        CacheNode::fetch(nodes, origin, name, mutable, |source, _| {
            fetch(
                source,
                name,
                TcpConfig::default(),
                LinkConfig::default(),
                seed,
            )
        })
    }

    /// What a child sees of `node` with a zero-cost last leg: the object
    /// and the fill ticks alone.
    pub(crate) fn ensure(
        node: &mut CacheNode,
        origin: &ContentServer,
        name: &str,
        mutable: Option<u64>,
    ) -> Result<(Vec<u8>, u64), FetchError> {
        CacheNode::fetch(&mut [node], origin, name, mutable, |source, _| {
            let data = source.get(name).expect("a filled node holds the object");
            Ok(FetchReport {
                data: data.to_vec(),
                ticks: 0,
                retransmissions: 0,
            })
        })
    }

    fn origin_with(name: &str, len: usize) -> ContentServer {
        let mut origin = ContentServer::new();
        origin.publish(name, vec![1u8; len]);
        origin
    }

    #[test]
    fn failed_revalidations_are_not_counted_at_a_root_or_a_child_node() {
        // Cache a mutable object at tick 0 at a root node and at an edge
        // under a shield, lose it at the origin (and at the shield),
        // then revalidate twice: no re-fetch lands, so none counts.
        let mut origin = origin_with("m", 100);
        let mut root = CacheNode::new(CacheConfig::default());
        viewer_get(&mut [&mut root], &origin, "m", Some(0), 1).unwrap();
        let mut edge = CacheNode::new(CacheConfig::default());
        let mut shield = CacheNode::new(CacheConfig::default());
        viewer_get(&mut [&mut edge, &mut shield], &origin, "m", Some(0), 1).unwrap();
        origin.remove("m");
        shield.invalidate("m");
        for now in [10, 20] {
            viewer_get(&mut [&mut root], &origin, "m", Some(now), 2).unwrap();
            viewer_get(&mut [&mut edge, &mut shield], &origin, "m", Some(now), 2).unwrap();
        }
        for node in [&root, &edge, &shield] {
            let s = node.stats();
            assert!(
                s.revalidations <= s.misses,
                "revalidations are a subset of misses: {s:?}"
            );
        }
        assert_eq!(root.stats().revalidations, 0);
        assert_eq!(edge.stats().revalidations, 0);
        assert_eq!(edge.fill_ledger(), (3, 0, 2), "both re-fills failed");
    }

    #[test]
    fn a_stale_copy_serves_on_a_parent_server_error_at_every_depth() {
        // The object vanished upstream after it was cached: a root node,
        // an edge over a cold shield and a shield under a cold edge all
        // serve their stale copies.
        let mut origin = origin_with("m", 100);
        let mut root = CacheNode::new(CacheConfig::default());
        viewer_get(&mut [&mut root], &origin, "m", Some(0), 1).unwrap();
        let mut edge = CacheNode::new(CacheConfig::default());
        let mut warm_shield = CacheNode::new(CacheConfig::default());
        viewer_get(&mut [&mut edge, &mut warm_shield], &origin, "m", Some(0), 1).unwrap();
        let mut cold_shield = CacheNode::new(CacheConfig::default());
        origin.remove("m");
        let (data, _) = viewer_get(&mut [&mut root], &origin, "m", Some(10), 2).unwrap();
        assert_eq!(data, vec![1u8; 100]);
        assert_eq!(root.stats().hits, 1);
        let (data, _) = viewer_get(
            &mut [&mut edge, &mut cold_shield],
            &origin,
            "m",
            Some(10),
            2,
        )
        .unwrap();
        assert_eq!(data, vec![1u8; 100]);
        assert_eq!(edge.stats().hits, 1);
        assert_eq!(cold_shield.fill_ledger(), (1, 0, 1));
        // A middle node serves its stale copy down to a cold child.
        let mut cold_edge = CacheNode::new(CacheConfig::default());
        let (data, _) = viewer_get(
            &mut [&mut cold_edge, &mut warm_shield],
            &origin,
            "m",
            Some(10),
            3,
        )
        .unwrap();
        assert_eq!(data, vec![1u8; 100]);
        assert_eq!(warm_shield.stats().hits, 1);
        // With nothing stale to serve, the parent's error surfaces.
        assert_eq!(
            viewer_get(&mut [&mut root], &origin, "gone", Some(10), 3).unwrap_err(),
            FetchError::Server("not-found".to_string())
        );
    }

    #[test]
    fn a_fill_after_a_maximal_backoff_saturates_its_ticks() {
        use netstack::tcplite::TcpError;
        let origin = origin_with("seg", 100);
        let link = LinkConfig {
            loss: 0.5,
            ..LinkConfig::default()
        };
        let tcp = TcpConfig {
            max_retransmits: 1,
            ..TcpConfig::default()
        };
        let pull = |seed| fetch(&origin, "seg", tcp, link, seed);
        // A parent-link seed whose first pull dies on the wire and whose
        // retry (the next seed) lands.
        let seed = (0..10_000u64)
            .find(|&s| {
                matches!(
                    pull(s),
                    Err(FetchError::Transport(TcpError::ConnectionTimedOut))
                ) && pull(s + 1).is_ok()
            })
            .expect("a lossy link fails some pulls and not others");
        let mut node = CacheNode::new(CacheConfig {
            origin_tcp: tcp,
            origin_link: link,
            origin_seed: seed,
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff_ticks: u64::MAX,
                max_backoff_ticks: u64::MAX,
                jitter_ticks: 0,
                seed: 0,
            },
            ..CacheConfig::default()
        });
        let (data, ticks) = viewer_get(&mut [&mut node], &origin, "seg", None, 1).unwrap();
        assert_eq!(data, vec![1u8; 100]);
        assert_eq!(ticks, u64::MAX);
        assert_eq!(node.fill_ledger(), (1, 0, 0));
    }
}
