//! The edge tier's shared parts: the byte-budgeted [`Lru`], the
//! coalescing [`FillTable`], per-cache [`EdgeStats`] and the failover
//! [`HashRing`].
//!
//! The packet-level edge cache is a [`crate::cache::CacheNode`] at the
//! head of a session's chain. [`EdgeTierConfig`] parameterises the edge
//! tier of the *fluid* many-session simulator
//! ([`crate::serve::simulate`]), which shards thousands of sessions
//! across edges and measures how the capacity knee scales with edge
//! count.

use std::collections::BTreeMap;

/// A bounded, byte-budgeted LRU index. The cache tracks sizes and
/// recency; the bytes themselves live wherever the owner keeps them
/// (a [`crate::cache::CacheNode`]'s store, the manifest for the fluid
/// simulator).
#[derive(Debug, Clone, Default)]
pub struct Lru<K: Ord + Clone> {
    capacity_bytes: usize,
    held_bytes: usize,
    seq: u64,
    entries: BTreeMap<K, (usize, u64)>,
    evictions: u64,
}

impl<K: Ord + Clone> Lru<K> {
    /// An empty cache holding at most `capacity_bytes`.
    #[must_use]
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            held_bytes: 0,
            seq: 0,
            entries: BTreeMap::new(),
            evictions: 0,
        }
    }

    /// An effectively unbounded cache (the single-origin degenerate
    /// case: the "edge" *is* the origin and holds everything).
    #[must_use]
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// Whether `key` is cached, without touching recency.
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Marks `key` most-recently-used; `false` if it is not cached.
    pub fn touch(&mut self, key: &K) -> bool {
        self.seq += 1;
        match self.entries.get_mut(key) {
            Some(e) => {
                e.1 = self.seq;
                true
            }
            None => false,
        }
    }

    /// Inserts `key`, evicting least-recently-used entries until it
    /// fits. Returns the evicted keys. An object larger than the whole
    /// cache is not inserted (the caller should pass it through) — and
    /// any stale entry under the same key is dropped and reported
    /// evicted, so the cache never keeps serving an outdated version it
    /// just refused to replace.
    pub fn insert(&mut self, key: K, bytes: usize) -> Vec<K> {
        if bytes > self.capacity_bytes {
            let mut evicted = Vec::new();
            if let Some((sz, _)) = self.entries.remove(&key) {
                self.held_bytes -= sz;
                self.evictions += 1;
                evicted.push(key);
            }
            return evicted;
        }
        self.seq += 1;
        if let Some(old) = self.entries.insert(key, (bytes, self.seq)) {
            self.held_bytes -= old.0;
        }
        self.held_bytes += bytes;
        let mut evicted = Vec::new();
        while self.held_bytes > self.capacity_bytes {
            // Deterministic: seq values are unique, so the LRU victim is
            // unambiguous.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
                .expect("over capacity implies non-empty");
            let (sz, _) = self.entries.remove(&victim).expect("victim exists");
            self.held_bytes -= sz;
            self.evictions += 1;
            evicted.push(victim);
        }
        evicted
    }

    /// The entry that [`Lru::insert`] would evict first (least recently
    /// used), without evicting it. `None` when the cache is empty.
    /// Admission policies compare the candidate against this victim
    /// before deciding whether the insert is worth the eviction.
    #[must_use]
    pub fn peek_victim(&self) -> Option<(&K, usize)> {
        self.entries
            .iter()
            .min_by_key(|(_, (_, used))| *used)
            .map(|(k, (bytes, _))| (k, *bytes))
    }

    /// Whether inserting a new `bytes`-sized object would force at
    /// least one eviction. Oversized objects are never inserted, so
    /// they never evict.
    #[must_use]
    pub fn would_evict(&self, bytes: usize) -> bool {
        bytes <= self.capacity_bytes && self.held_bytes + bytes > self.capacity_bytes
    }

    /// Removes `key` outright (cache invalidation, not capacity
    /// pressure — the eviction counter is untouched). Returns the freed
    /// bytes, or `None` if it was not cached.
    pub fn remove(&mut self, key: &K) -> Option<usize> {
        let (bytes, _) = self.entries.remove(key)?;
        self.held_bytes -= bytes;
        Some(bytes)
    }

    /// Bytes currently held.
    #[must_use]
    pub fn held_bytes(&self) -> usize {
        self.held_bytes
    }

    /// Cached objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Evictions performed so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Empties the cache in place — a *cold restart*, not eviction
    /// pressure: the eviction counter (and the recency clock) survive,
    /// so tier-level stats stay monotone across a crash/restart cycle.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.held_bytes = 0;
    }
}

/// In-flight origin fills, keyed by `(key, generation)`. Concurrent
/// misses for the same generation of the same object coalesce onto one
/// fill — the thundering-herd defence for a just-published live-edge
/// segment — and a *failed* fill clears its slot, so the next request
/// starts exactly one fresh fill instead of piling a second origin
/// round trip onto a doomed one (or replaying its failure forever).
///
/// The generation distinguishes versions of a *mutable* object (the
/// live manifest): waiters never coalesce onto a fill of a stale
/// generation. Immutable objects use generation 0.
///
/// `V` is whatever the owner needs to track per fill (the fluid
/// simulator stores remaining bytes; `()` works for pure coalescing).
#[derive(Debug, Clone, Default)]
pub struct FillTable<K: Ord + Clone, V> {
    inflight: BTreeMap<(K, u64), V>,
    started: u64,
    joined: u64,
    failed: u64,
}

impl<K: Ord + Clone, V> FillTable<K, V> {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inflight: BTreeMap::new(),
            started: 0,
            joined: 0,
            failed: 0,
        }
    }

    /// One requester asks for `(key, generation)`: returns `true` when
    /// this request *started* the fill (the payload is built lazily),
    /// `false` when it joined one already in flight.
    pub fn request(&mut self, key: K, generation: u64, payload: impl FnOnce() -> V) -> bool {
        match self.inflight.entry((key, generation)) {
            std::collections::btree_map::Entry::Occupied(_) => {
                self.joined += 1;
                false
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(payload());
                self.started += 1;
                true
            }
        }
    }

    /// Whether a fill for `(key, generation)` is in flight.
    #[must_use]
    pub fn contains(&self, key: &K, generation: u64) -> bool {
        self.inflight.contains_key(&(key.clone(), generation))
    }

    /// The fill landed: clears the slot, returning its payload.
    pub fn complete(&mut self, key: &K, generation: u64) -> Option<V> {
        self.inflight.remove(&(key.clone(), generation))
    }

    /// The fill failed: clears the slot so a retry starts fresh.
    pub fn fail(&mut self, key: &K, generation: u64) -> Option<V> {
        let gone = self.inflight.remove(&(key.clone(), generation));
        if gone.is_some() {
            self.failed += 1;
        }
        gone
    }

    /// Mutable walk over in-flight fills (the fluid engine drains
    /// remaining bytes this way).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&(K, u64), &mut V)> {
        self.inflight.iter_mut()
    }

    /// Read-only walk over in-flight fills (the shield tier inspects an
    /// edge's fills to decide which can drain from the shield cache).
    pub fn iter(&self) -> impl Iterator<Item = (&(K, u64), &V)> {
        self.inflight.iter()
    }

    /// Fills currently in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// `true` when nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Fills ever started (each one origin round trip).
    #[must_use]
    pub fn started(&self) -> u64 {
        self.started
    }

    /// Requests that coalesced onto an in-flight fill.
    #[must_use]
    pub fn joined(&self) -> u64 {
        self.joined
    }

    /// Account `n` extra requesters coalescing onto an in-flight fill
    /// in one call — the counted form of [`FillTable::request`]
    /// returning `false` `n` times. The cohort engine attaches a whole
    /// counted session class to a fill with a single request, so this
    /// keeps the `joined` ledger identical to the per-session engine's.
    pub fn join_many(&mut self, n: u64) {
        self.joined += n;
    }

    /// Fills that failed (and freed their slot).
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// What one edge observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Requests served from cache.
    pub hits: u64,
    /// Requests that started an origin fill.
    pub misses: u64,
    /// Requests that joined an in-flight fill instead of starting a
    /// second one (fluid simulator only — the live path is serial).
    pub coalesced: u64,
    /// Cache evictions.
    pub evictions: u64,
    /// Stale mutable objects re-fetched from the origin (a subset of
    /// `misses`: the object was cached but its TTL had lapsed).
    pub revalidations: u64,
    /// Objects dropped by explicit invalidation (live DVR-window
    /// expiry), not by capacity pressure.
    pub invalidations: u64,
    /// Bytes pulled from the origin.
    pub origin_bytes: u64,
    /// Bytes served to viewers.
    pub served_bytes: u64,
}

impl EdgeStats {
    /// Fraction of requests answered without a new origin fill
    /// (coalesced waiters count as offloaded: one fill fed them all).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / total as f64
        }
    }

    /// Fraction of served bytes that never crossed the origin link —
    /// the offload a CDN tier exists to provide.
    #[must_use]
    pub fn origin_offload(&self) -> f64 {
        if self.served_bytes == 0 {
            0.0
        } else {
            1.0 - self.origin_bytes as f64 / self.served_bytes as f64
        }
    }

    /// Element-wise sum over any number of caches — the tier-level
    /// rollup [`crate::shield::TierStats`] is built from.
    #[must_use]
    pub fn merged_all<'a>(stats: impl IntoIterator<Item = &'a EdgeStats>) -> EdgeStats {
        stats
            .into_iter()
            .fold(EdgeStats::default(), |acc, s| acc.merged(s))
    }

    /// Element-wise sum, for tier-level aggregates.
    #[must_use]
    pub fn merged(&self, other: &EdgeStats) -> EdgeStats {
        EdgeStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            coalesced: self.coalesced + other.coalesced,
            evictions: self.evictions + other.evictions,
            revalidations: self.revalidations + other.revalidations,
            invalidations: self.invalidations + other.invalidations,
            origin_bytes: self.origin_bytes + other.origin_bytes,
            served_bytes: self.served_bytes + other.served_bytes,
        }
    }
}

/// A consistent-hash ring over the edges of a tier: each edge owns the
/// arcs clockwise-preceding its virtual points, and a key routes to the
/// owner of the first point at or after its hash.
///
/// The property that makes this the failover structure (and that the
/// test suite pins): removing one edge re-homes *only that edge's
/// keys* — every key whose owner is still alive keeps it, so a crash
/// moves at most ~1/N of the keyspace onto survivors instead of
/// reshuffling everyone (the thundering-herd failure mode of modular
/// hashing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// `(point hash, edge)` sorted by hash (ties broken by edge index,
    /// deterministically).
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// A ring over `edges` edges with `vnodes` virtual points each,
    /// placed by `splitmix64` from `seed`.
    #[must_use]
    pub fn new(edges: usize, vnodes: usize, seed: u64) -> Self {
        assert!(edges > 0, "a ring needs at least one edge");
        assert!(vnodes > 0, "a ring needs at least one point per edge");
        let mut points = Vec::with_capacity(edges * vnodes);
        for e in 0..edges {
            for v in 0..vnodes {
                let h = splitmix64(seed ^ (((e as u64) << 16) | v as u64));
                points.push((h, e as u32));
            }
        }
        points.sort_unstable();
        Self { points }
    }

    /// Edges on the ring.
    #[must_use]
    pub fn edges(&self) -> usize {
        self.points.iter().map(|&(_, e)| e).max().unwrap_or(0) as usize + 1
    }

    /// The index of the first point at or clockwise-after `key`.
    fn first_point(&self, key: u64) -> usize {
        match self.points.binary_search(&(key, 0)) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0,
            Err(i) => i,
        }
    }

    /// The edge owning `key` with every edge up.
    #[must_use]
    pub fn route(&self, key: u64) -> usize {
        self.points[self.first_point(key)].1 as usize
    }

    /// The edge owning `key` given liveness flags: walk clockwise from
    /// the owner point to the first point on a live edge. `None` when
    /// every edge is down. When `key`'s owner is up this *is*
    /// [`HashRing::route`] — the ≤ 1/N remap guarantee by construction.
    #[must_use]
    pub fn route_alive(&self, key: u64, up: &[bool]) -> Option<usize> {
        let start = self.first_point(key);
        for i in 0..self.points.len() {
            let e = self.points[(start + i) % self.points.len()].1 as usize;
            if up.get(e).copied().unwrap_or(false) {
                return Some(e);
            }
        }
        None
    }
}

/// [`CacheNode`](crate::cache::CacheNode) under its old edge name. Kept
/// because the benchmark harness in `perfbench/` calls it by this name.
pub type EdgeCache = crate::cache::CacheNode;

/// [`CacheConfig`](crate::cache::CacheConfig) under its old edge name,
/// whose default is the edge's (1 MiB, origin seed `0xED6E`). Kept
/// because the benchmark harness in `perfbench/` calls it by this name.
pub type EdgeConfig = crate::cache::CacheConfig;

/// How the fluid simulator assigns sessions to edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharding {
    /// Session `i` goes to edge `i % edges` (perfect balance).
    RoundRobin,
    /// Session `i` goes to `splitmix64(seed ^ i) % edges` (the
    /// imperfect balance a consistent-hash front end would give).
    Hash,
    /// Session `i` routes through a [`HashRing`] over the tier — the
    /// failover sharding: when an edge crashes, only *its* sessions
    /// re-home to survivors (≤ 1/N remap), and they fail back when it
    /// restarts. Faulted runs build the ring regardless of this
    /// setting; choosing it makes the fault-free placement match the
    /// failover placement exactly.
    Ring,
}

/// The edge tier the fluid simulator routes sessions through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeTierConfig {
    /// Edge caches in the tier.
    pub edges: usize,
    /// Per-edge segment-cache budget, bytes.
    pub cache_capacity_bytes: usize,
    /// Each edge's downlink to its viewers, bytes per tick (the PR 3
    /// single-origin uplink, now multiplied by `edges`).
    pub edge_capacity_bytes_per_tick: f64,
    /// Each viewer's access-link ceiling, bytes per tick.
    pub per_session_bytes_per_tick: f64,
    /// The origin uplink every cache fill shares, bytes per tick.
    pub origin_capacity_bytes_per_tick: f64,
    /// Session→edge assignment.
    pub sharding: Sharding,
    /// Pre-position every segment on every edge before sessions start
    /// (as far as each cache's capacity allows).
    pub prewarm: bool,
    /// Simulated origin outage: fills stop progressing at this tick.
    pub origin_down_after: Option<u64>,
}

impl Default for EdgeTierConfig {
    /// Four warm edges, each with the PR 3 single-origin uplink
    /// (4,000 bytes/tick) and an effectively unbounded cache, filled
    /// over a 4,000 byte/tick origin uplink.
    fn default() -> Self {
        Self {
            edges: 4,
            cache_capacity_bytes: usize::MAX,
            edge_capacity_bytes_per_tick: 4_000.0,
            per_session_bytes_per_tick: 100.0,
            origin_capacity_bytes_per_tick: 4_000.0,
            sharding: Sharding::RoundRobin,
            prewarm: true,
            origin_down_after: None,
        }
    }
}

/// The edge-assignment hash for [`Sharding::Hash`] — `signal`'s
/// SplitMix64 mixer, re-exported so delivery code has one canonical
/// spreading function.
pub use signal::rng::splitmix64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::viewer_get;
    use crate::cache::{CacheConfig, CacheNode};
    use netstack::fetch::{ContentServer, FetchError};
    use netstack::link::LinkConfig;
    use netstack::tcplite::TcpConfig;

    /// An immutable fetch through `edge` alone.
    fn get(
        edge: &mut CacheNode,
        origin: &ContentServer,
        name: &str,
        seed: u64,
    ) -> Result<(Vec<u8>, u64), FetchError> {
        viewer_get(&mut [edge], origin, name, None, seed)
    }

    /// A mutable fetch through `edge` alone at `now`.
    fn get_at(
        edge: &mut CacheNode,
        origin: &ContentServer,
        name: &str,
        seed: u64,
        now: u64,
    ) -> Result<(Vec<u8>, u64), FetchError> {
        viewer_get(&mut [edge], origin, name, Some(now), seed)
    }

    #[test]
    fn lru_evicts_least_recently_used_within_budget() {
        let mut lru: Lru<&'static str> = Lru::new(100);
        assert!(lru.is_empty());
        assert!(lru.insert("a", 40).is_empty());
        assert!(lru.insert("b", 40).is_empty());
        assert!(lru.touch(&"a")); // b is now the LRU entry
        let evicted = lru.insert("c", 40);
        assert_eq!(evicted, vec!["b"]);
        assert!(lru.contains(&"a") && lru.contains(&"c") && !lru.contains(&"b"));
        assert_eq!(lru.held_bytes(), 80);
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn lru_rejects_objects_larger_than_itself() {
        let mut lru: Lru<u32> = Lru::new(10);
        assert!(lru.insert(1, 11).is_empty());
        assert!(!lru.contains(&1));
        assert_eq!(lru.held_bytes(), 0);
        // Growing a cached object past the budget drops the stale
        // entry instead of leaving it to serve phantom hits.
        assert!(lru.insert(1, 5).is_empty());
        assert_eq!(lru.insert(1, 11), vec![1]);
        assert!(!lru.contains(&1));
        assert_eq!(lru.held_bytes(), 0);
    }

    #[test]
    fn lru_reinsert_updates_size_without_leak() {
        let mut lru: Lru<u32> = Lru::new(100);
        lru.insert(1, 60);
        lru.insert(1, 30);
        assert_eq!(lru.held_bytes(), 30);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn edge_cache_hits_after_first_fetch() {
        let mut origin = ContentServer::new();
        origin.publish("t/seg0", vec![7u8; 800]);
        let mut edge = CacheNode::new(CacheConfig::default());
        let (a, cold_ticks) = get(&mut edge, &origin, "t/seg0", 1).unwrap();
        let (b, warm_ticks) = get(&mut edge, &origin, "t/seg0", 2).unwrap();
        assert_eq!(a, vec![7u8; 800]);
        assert_eq!(a, b);
        assert!(
            warm_ticks < cold_ticks,
            "hit ({warm_ticks}) must beat miss ({cold_ticks}): no origin leg"
        );
        let s = edge.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.origin_bytes, 800);
        assert_eq!(s.served_bytes, 1600);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert!((s.origin_offload() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn warm_edge_survives_origin_outage() {
        let mut origin = ContentServer::new();
        origin.publish("t/seg0", vec![1u8; 300]);
        origin.publish("t/seg1", vec![2u8; 300]);
        let mut edge = CacheNode::new(CacheConfig::default());
        edge.prewarm(&origin, &["t/seg0".to_string()]);
        edge.set_parent_up(false);
        // Cached object still serves.
        let (data, _) = get(&mut edge, &origin, "t/seg0", 3).unwrap();
        assert_eq!(data, vec![1u8; 300]);
        // Uncached object fails cleanly.
        let err = get(&mut edge, &origin, "t/seg1", 4).unwrap_err();
        assert_eq!(err, FetchError::Server("origin-unreachable".to_string()));
    }

    #[test]
    fn bounded_edge_evicts_and_refills() {
        let mut origin = ContentServer::new();
        origin.publish("a", vec![1u8; 600]);
        origin.publish("b", vec![2u8; 600]);
        let mut edge = CacheNode::new(CacheConfig {
            cache_capacity_bytes: 1_000,
            ..Default::default()
        });
        get(&mut edge, &origin, "a", 1).unwrap();
        get(&mut edge, &origin, "b", 2).unwrap(); // evicts a
        assert_eq!(edge.cached_objects(), 1);
        assert_eq!(edge.stats().evictions, 1);
        get(&mut edge, &origin, "a", 3).unwrap(); // refill
        assert_eq!(edge.stats().misses, 3);
        assert_eq!(edge.stats().hits, 0);
    }

    #[test]
    fn oversized_object_passes_through_uncached() {
        let mut origin = ContentServer::new();
        origin.publish("big", vec![9u8; 5_000]);
        let mut edge = CacheNode::new(CacheConfig {
            cache_capacity_bytes: 1_000,
            ..Default::default()
        });
        let (data, _) = get(&mut edge, &origin, "big", 1).unwrap();
        assert_eq!(data.len(), 5_000);
        assert_eq!(edge.cached_objects(), 0, "oversized objects are not cached");
    }

    #[test]
    fn failed_fills_retry_with_fresh_seeds() {
        // 65% loss and a tight transport deadline: the first two fill
        // attempts (seeds 3 and 4) deterministically time out, the
        // third (seed 5) succeeds. Before the attempt counter advanced
        // on failure, every retry replayed seed 3's timeout forever.
        let mut origin = ContentServer::new();
        origin.publish("x", vec![7u8; 1500]);
        let mut edge = CacheNode::new(CacheConfig {
            origin_tcp: TcpConfig {
                deadline_ticks: 1_200,
                ..Default::default()
            },
            origin_link: LinkConfig::default().with_loss(0.65),
            origin_seed: 3,
            ..Default::default()
        });
        let mut attempts = 0;
        let data = loop {
            attempts += 1;
            assert!(attempts <= 5, "retries must see fresh loss draws");
            match get(&mut edge, &origin, "x", 1) {
                Ok((data, _)) => break data,
                Err(FetchError::Transport(_)) => continue,
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert_eq!(data, vec![7u8; 1500]);
        assert_eq!(attempts, 3, "seeds 3 and 4 fail, 5 succeeds");
        // The successful fill cached the object.
        assert_eq!(edge.stats().hits, 0);
        get(&mut edge, &origin, "x", 2).unwrap();
        assert_eq!(edge.stats().hits, 1);
    }

    #[test]
    fn lossy_origin_link_still_fills_exactly() {
        let mut origin = ContentServer::new();
        origin.publish("x", (0..2000u32).map(|i| i as u8).collect());
        let mut edge = CacheNode::new(CacheConfig {
            origin_link: LinkConfig::default().with_loss(0.15),
            ..Default::default()
        });
        let (data, _) = get(&mut edge, &origin, "x", 1).unwrap();
        assert_eq!(data, (0..2000u32).map(|i| i as u8).collect::<Vec<u8>>());
    }

    #[test]
    fn stats_merged_sums_every_field() {
        let a = EdgeStats {
            hits: 1,
            misses: 2,
            coalesced: 3,
            evictions: 4,
            revalidations: 5,
            invalidations: 6,
            origin_bytes: 7,
            served_bytes: 8,
        };
        let b = EdgeStats {
            hits: 10,
            misses: 20,
            coalesced: 30,
            evictions: 40,
            revalidations: 50,
            invalidations: 60,
            origin_bytes: 70,
            served_bytes: 80,
        };
        let m = a.merged(&b);
        assert_eq!(
            m,
            EdgeStats {
                hits: 11,
                misses: 22,
                coalesced: 33,
                evictions: 44,
                revalidations: 55,
                invalidations: 66,
                origin_bytes: 77,
                served_bytes: 88,
            }
        );
        // Merging is commutative and the zero stats are the identity.
        assert_eq!(m, b.merged(&a));
        assert_eq!(a.merged(&EdgeStats::default()), a);
    }

    #[test]
    fn stats_rates_cover_zero_request_and_all_miss_edges() {
        // Zero requests: both rates are defined (no 0/0 NaN).
        let zero = EdgeStats::default();
        assert_eq!(zero.hit_rate(), 0.0);
        assert_eq!(zero.origin_offload(), 0.0);
        // All-miss: every request crossed the origin.
        let all_miss = EdgeStats {
            misses: 9,
            origin_bytes: 900,
            served_bytes: 900,
            ..Default::default()
        };
        assert_eq!(all_miss.hit_rate(), 0.0);
        assert_eq!(all_miss.origin_offload(), 0.0);
        // All-hit: nothing crossed the origin.
        let all_hit = EdgeStats {
            hits: 9,
            served_bytes: 900,
            ..Default::default()
        };
        assert_eq!(all_hit.hit_rate(), 1.0);
        assert_eq!(all_hit.origin_offload(), 1.0);
        // Coalesced waiters count as offloaded requests.
        let a = EdgeStats {
            hits: 3,
            misses: 1,
            coalesced: 2,
            ..Default::default()
        };
        assert!((a.hit_rate() - 5.0 / 6.0).abs() < 1e-12);
        // Served without any requests recorded (prewarmed edge): still
        // well-defined.
        let prewarmed = EdgeStats {
            served_bytes: 500,
            ..Default::default()
        };
        assert_eq!(prewarmed.hit_rate(), 0.0);
        assert_eq!(prewarmed.origin_offload(), 1.0);
    }

    #[test]
    fn fill_table_coalesces_and_retries_after_failure() {
        let mut fills: FillTable<&'static str, u64> = FillTable::new();
        assert!(fills.is_empty());
        // First request starts the fill; the burst joins it.
        assert!(fills.request("seg9", 0, || 100));
        for _ in 0..5 {
            assert!(!fills.request("seg9", 0, || unreachable!("must coalesce")));
        }
        assert_eq!((fills.started(), fills.joined()), (1, 5));
        assert_eq!(fills.len(), 1);
        // A different generation of the same key is a different fill.
        assert!(fills.request("seg9", 1, || 100));
        assert_eq!(fills.started(), 2);
        // Failure clears the slot; the retry starts exactly one fresh
        // fill.
        assert_eq!(fills.fail(&"seg9", 0), Some(100));
        assert_eq!(fills.fail(&"seg9", 0), None, "already cleared");
        assert!(fills.request("seg9", 0, || 42));
        assert_eq!(fills.complete(&"seg9", 0), Some(42));
        assert!(!fills.contains(&"seg9", 0));
        assert!(fills.contains(&"seg9", 1));
        assert_eq!((fills.started(), fills.joined(), fills.failed()), (3, 5, 1));
    }

    #[test]
    fn lru_remove_frees_bytes_without_counting_an_eviction() {
        let mut lru: Lru<u32> = Lru::new(100);
        lru.insert(1, 60);
        assert_eq!(lru.remove(&1), Some(60));
        assert_eq!(lru.remove(&1), None);
        assert_eq!(lru.held_bytes(), 0);
        assert_eq!(lru.evictions(), 0, "invalidation is not eviction");
    }

    #[test]
    fn mutable_fetch_revalidates_on_ttl_expiry() {
        let mut origin = ContentServer::new();
        origin.publish("t/manifest", vec![1u8; 200]);
        let mut edge = CacheNode::new(CacheConfig {
            mutable_ttl_ticks: 100,
            ..Default::default()
        });
        // Cold fetch at tick 0: a plain miss, no revalidation.
        get_at(&mut edge, &origin, "t/manifest", 1, 0).unwrap();
        assert_eq!(edge.stats().misses, 1);
        assert_eq!(edge.stats().revalidations, 0);
        // Within TTL: a hit, even though the origin object changed.
        origin.publish("t/manifest", vec![2u8; 200]);
        let (stale, _) = get_at(&mut edge, &origin, "t/manifest", 2, 99).unwrap();
        assert_eq!(stale, vec![1u8; 200], "fresh-by-TTL serves the cached copy");
        assert_eq!(edge.stats().hits, 1);
        // Past TTL: revalidated — the new bytes replace the stale copy.
        let (new, _) = get_at(&mut edge, &origin, "t/manifest", 3, 100).unwrap();
        assert_eq!(new, vec![2u8; 200]);
        assert_eq!(edge.stats().revalidations, 1);
        assert_eq!(edge.stats().misses, 2);
    }

    #[test]
    fn mutable_fetch_with_zero_ttl_always_revalidates() {
        let mut origin = ContentServer::new();
        origin.publish("t/manifest", vec![1u8; 100]);
        let mut edge = CacheNode::new(CacheConfig::default());
        for leg in 0..3 {
            get_at(&mut edge, &origin, "t/manifest", leg, leg).unwrap();
        }
        assert_eq!(edge.stats().misses, 3);
        assert_eq!(edge.stats().revalidations, 2);
        assert_eq!(edge.stats().hits, 0);
    }

    #[test]
    fn stale_manifest_serves_through_an_origin_outage() {
        let mut origin = ContentServer::new();
        origin.publish("t/manifest", vec![1u8; 100]);
        let mut edge = CacheNode::new(CacheConfig::default()); // TTL 0
        get_at(&mut edge, &origin, "t/manifest", 1, 0).unwrap();
        edge.set_parent_up(false);
        // Stale-if-error: the cached copy serves rather than failing.
        let (data, _) = get_at(&mut edge, &origin, "t/manifest", 2, 500).unwrap();
        assert_eq!(data, vec![1u8; 100]);
        // An uncached mutable object still fails cleanly.
        assert_eq!(
            get_at(&mut edge, &origin, "t/other", 3, 500).unwrap_err(),
            FetchError::Server("origin-unreachable".to_string())
        );
    }

    #[test]
    fn invalidation_drops_the_object_and_counts_separately() {
        let mut origin = ContentServer::new();
        origin.publish("t/seg0", vec![1u8; 300]);
        let mut edge = CacheNode::new(CacheConfig::default());
        get(&mut edge, &origin, "t/seg0", 1).unwrap();
        assert_eq!(edge.cached_objects(), 1);
        assert!(edge.invalidate("t/seg0"));
        assert!(!edge.invalidate("t/seg0"), "already gone");
        assert!(!edge.invalidate("t/never-cached"));
        assert_eq!(edge.cached_objects(), 0);
        assert_eq!(edge.cached_bytes(), 0);
        assert_eq!(edge.stats().invalidations, 1);
        assert_eq!(edge.stats().evictions, 0);
        // The next fetch is a fresh miss, not a phantom hit.
        get(&mut edge, &origin, "t/seg0", 2).unwrap();
        assert_eq!(edge.stats().misses, 2);
        assert_eq!(edge.stats().hits, 0);
    }

    #[test]
    fn lru_clear_empties_but_keeps_the_eviction_ledger() {
        let mut lru: Lru<u32> = Lru::new(100);
        lru.insert(1, 60);
        lru.insert(2, 60); // evicts 1
        assert_eq!(lru.evictions(), 1);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.held_bytes(), 0);
        assert_eq!(lru.evictions(), 1, "cold restart is not eviction");
        // The cleared cache works normally afterwards.
        lru.insert(3, 60);
        assert!(lru.contains(&3));
    }

    #[test]
    fn retrying_edge_rides_out_a_flaky_origin_link_in_one_call() {
        // Same doomed link as `failed_fills_retry_with_fresh_seeds`,
        // but the retry policy folds the external loop into the fill:
        // one fetch succeeds on the third attempt, and
        // the backoff ticks show up in the fill time.
        let mut origin = ContentServer::new();
        origin.publish("x", vec![7u8; 1500]);
        let flaky = |retry| CacheConfig {
            origin_tcp: TcpConfig {
                deadline_ticks: 1_200,
                ..Default::default()
            },
            origin_link: LinkConfig::default().with_loss(0.65),
            origin_seed: 3,
            retry,
            ..Default::default()
        };
        let mut edge = CacheNode::new(flaky(crate::fault::RetryPolicy {
            max_attempts: 4,
            base_backoff_ticks: 10,
            max_backoff_ticks: 40,
            jitter_ticks: 0,
            seed: 0,
        }));
        let (data, ticks) = get(&mut edge, &origin, "x", 1).unwrap();
        assert_eq!(data, vec![7u8; 1500]);
        assert_eq!(edge.stats().misses, 1, "one logical fill");
        // Two failures backed off 10 + 20 ticks before the success.
        let mut no_retry = CacheNode::new(flaky(crate::fault::RetryPolicy::default()));
        no_retry.attempts = 2; // skip straight to the succeeding seed 5
        let (_, clean_ticks) = get(&mut no_retry, &origin, "x", 1).unwrap();
        assert_eq!(ticks, clean_ticks + 30);
        // Without retries the same edge fails on the first attempt.
        let mut fail_fast = CacheNode::new(flaky(crate::fault::RetryPolicy::default()));
        assert!(matches!(
            get(&mut fail_fast, &origin, "x", 1).unwrap_err(),
            FetchError::Transport(_)
        ));
    }

    #[test]
    fn retry_budget_exhausts_and_surfaces_the_transport_error() {
        let mut origin = ContentServer::new();
        origin.publish("x", vec![7u8; 1500]);
        let mut edge = CacheNode::new(CacheConfig {
            origin_tcp: TcpConfig {
                deadline_ticks: 1_200,
                ..Default::default()
            },
            origin_link: LinkConfig::default().with_loss(0.65),
            origin_seed: 3,
            retry: crate::fault::RetryPolicy {
                max_attempts: 2, // seeds 3 and 4 both fail
                base_backoff_ticks: 10,
                max_backoff_ticks: 10,
                jitter_ticks: 0,
                seed: 0,
            },
            ..Default::default()
        });
        assert!(matches!(
            get(&mut edge, &origin, "x", 1).unwrap_err(),
            FetchError::Transport(_)
        ));
        // A missing object is never retried, whatever the budget.
        let mut retrying = CacheNode::new(CacheConfig {
            retry: crate::fault::RetryPolicy::standard(1),
            ..Default::default()
        });
        assert!(matches!(
            get(&mut retrying, &origin, "nope", 1).unwrap_err(),
            FetchError::Server(_)
        ));
        assert_eq!(retrying.attempts, 1, "one attempt only for a server miss");
    }

    #[test]
    fn ring_routes_deterministically_and_covers_every_edge() {
        let ring = HashRing::new(8, 64, 0xA11CE);
        assert_eq!(ring.edges(), 8);
        let mut buckets = [0u32; 8];
        for i in 0..10_000u64 {
            let k = splitmix64(i);
            let e = ring.route(k);
            assert_eq!(e, ring.route(k), "routing is a pure function");
            buckets[e] += 1;
        }
        assert!(
            buckets.iter().all(|&b| b > 400),
            "no edge starves: {buckets:?}"
        );
    }

    #[test]
    fn ring_failover_moves_only_the_crashed_edges_keys() {
        let ring = HashRing::new(5, 64, 7);
        let all_up = vec![true; 5];
        let mut up = all_up.clone();
        up[2] = false;
        let mut moved = 0u32;
        let mut owned = 0u32;
        for i in 0..10_000u64 {
            let k = splitmix64(0x5EED ^ i);
            let home = ring.route(k);
            assert_eq!(ring.route_alive(k, &all_up), Some(home));
            let after = ring.route_alive(k, &up).unwrap();
            if home == 2 {
                owned += 1;
                assert_ne!(after, 2, "crashed edge serves nothing");
                moved += 1;
            } else {
                assert_eq!(after, home, "survivors keep every key they own");
            }
        }
        assert_eq!(moved, owned, "exactly the crashed edge's keys move");
        assert!(owned > 0, "the crashed edge owned something");
    }

    #[test]
    fn ring_with_all_edges_down_routes_nowhere() {
        let ring = HashRing::new(3, 16, 1);
        assert_eq!(ring.route_alive(42, &[false, false, false]), None);
        // A single survivor takes the whole keyspace.
        for i in 0..100u64 {
            assert_eq!(
                ring.route_alive(splitmix64(i), &[false, true, false]),
                Some(1)
            );
        }
    }

    #[test]
    fn splitmix_spreads_consecutive_indices() {
        let mut buckets = [0u32; 4];
        for i in 0..1000u64 {
            buckets[(splitmix64(42 ^ i) % 4) as usize] += 1;
        }
        assert!(
            buckets.iter().all(|&b| b > 150),
            "hash sharding should not starve an edge: {buckets:?}"
        );
    }
}
