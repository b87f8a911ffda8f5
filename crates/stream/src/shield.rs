//! The shield (mid-tier) cache layer and frequency-based cache
//! admission.
//!
//! A flat edge tier pays one origin fill *per edge* per object: 64 cold
//! edges cross the origin link 64 times for the same segment. Real CDNs
//! put a small regional tier — "shield" or "parent" caches — between
//! edges and origin so each object crosses the origin link once per
//! *shield* instead, and edge misses fan in over cheap regional links.
//! On the packet-level path a shield is simply the second
//! [`CacheNode`] of a session's chain (see [`crate::cache`]). In the
//! fluid engine a shield is the same fluid cache node as an edge, one
//! level up: the calendar drains edge fills from its cache at the
//! shield's downlink rate, and shield misses coalesce into origin fills
//! that share the origin uplink. This module holds what is particular
//! to the shield tier: how edges home onto shields, and the tier-aware
//! [`TierStats`] rollup.
//!
//! The second half of the module is cache *admission*. An LRU admits
//! everything, so a long tail of one-hit wonders flushes the hot head
//! of a Zipf catalog out of a small cache. [`AdmissionPolicy::TinyLfu`]
//! gates inserts on a [`FreqSketch`] — a 4-bit count-min sketch with
//! periodic halving (an aging window): a candidate is admitted only if
//! its estimated request frequency beats the would-be LRU victim's.
//! Admit-always remains the default and is property-pinned
//! bit-identical to the pre-admission engine.

use crate::cache::{CacheConfig, CacheNode};
use crate::edge::{EdgeStats, FluidCache};
use signal::rng::splitmix64;

/// A catalog object's key: `(title, rung, segment)`. The fluid engine
/// caches objects under dense ids numbered in this key's order (see
/// `ObjectTable`); the key itself feeds the admission sketch. Title 0
/// is the single-title degenerate case.
pub(crate) type ObjKey = (u32, u32, u32);

/// One canonical 64-bit hash of an [`ObjKey`] for sketch indexing.
pub(crate) fn obj_key_hash(key: ObjKey) -> u64 {
    splitmix64((u64::from(key.0) << 42) ^ (u64::from(key.1) << 21) ^ u64::from(key.2))
}

/// A 4-bit count-min frequency sketch with periodic halving — the
/// frequency memory behind [`AdmissionPolicy::TinyLfu`].
///
/// `hashes` counters (one per hash function) are bumped per recorded
/// key, saturating at 15; the estimate is their minimum, which
/// over-counts (hash collisions only ever *add*) but never
/// under-counts — the count-min upper-bound property the test suite
/// pins. Every `halve_every` recorded requests all counters are halved
/// in place, so the sketch tracks a sliding frequency window instead of
/// all of history (a title that was hot yesterday decays today).
#[derive(Debug, Clone)]
pub struct FreqSketch {
    /// Two 4-bit counters per byte.
    nibbles: Vec<u8>,
    mask: u64,
    hashes: u32,
    halve_every: u64,
    recorded: u64,
    seed: u64,
}

impl FreqSketch {
    /// A sketch with `slots` counters (rounded up to a power of two,
    /// minimum 2), `hashes` hash functions, halved every `halve_every`
    /// recorded requests.
    #[must_use]
    pub fn new(slots: usize, hashes: u32, halve_every: u64, seed: u64) -> Self {
        let slots = slots.next_power_of_two().max(2);
        Self {
            nibbles: vec![0; slots / 2],
            mask: slots as u64 - 1,
            hashes: hashes.max(1),
            halve_every: halve_every.max(1),
            recorded: 0,
            seed,
        }
    }

    fn slot(&self, key: u64, i: u32) -> usize {
        let salted = key.wrapping_add(u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (splitmix64(self.seed ^ salted) & self.mask) as usize
    }

    fn counter(&self, slot: usize) -> u8 {
        (self.nibbles[slot / 2] >> ((slot & 1) * 4)) & 0xF
    }

    fn bump(&mut self, slot: usize) {
        let shift = (slot & 1) * 4;
        let byte = &mut self.nibbles[slot / 2];
        let v = (*byte >> shift) & 0xF;
        if v < 15 {
            *byte = (*byte & !(0xF << shift)) | ((v + 1) << shift);
        }
    }

    /// Records one request for `key`.
    pub fn record(&mut self, key: u64) {
        for i in 0..self.hashes {
            let slot = self.slot(key, i);
            self.bump(slot);
        }
        self.recorded += 1;
        if self.recorded.is_multiple_of(self.halve_every) {
            self.halve();
        }
    }

    /// Records up to 16 requests for `key` in one call — the counted
    /// form for cohort engines. Counters saturate at 15, so recording
    /// more than 16 from one cohort cannot change any estimate; capping
    /// bounds the cost of million-session cohorts.
    pub fn record_n(&mut self, key: u64, n: u64) {
        for _ in 0..n.min(16) {
            self.record(key);
        }
    }

    /// Halves every counter in place (the aging window).
    fn halve(&mut self) {
        for byte in &mut self.nibbles {
            *byte = (*byte >> 1) & 0x77;
        }
    }

    /// The frequency estimate for `key`: the minimum across its
    /// counters. Never an under-count of requests recorded since the
    /// last halving (saturated at 15).
    #[must_use]
    pub fn estimate(&self, key: u64) -> u8 {
        (0..self.hashes)
            .map(|i| self.counter(self.slot(key, i)))
            .min()
            .unwrap_or(0)
    }

    /// Requests recorded so far (halvings included in the count's
    /// history; this is the halving clock).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }
}

/// How a cache decides whether a filled object is worth an eviction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AdmissionPolicy {
    /// Insert everything (classic LRU). The default, and the
    /// bit-identical legacy behavior.
    #[default]
    AdmitAll,
    /// TinyLFU: admit an object that would force an eviction only when
    /// its sketch-estimated frequency is at least the would-be
    /// victim's. Objects that fit without evicting are always admitted.
    /// Its [`FreqSketch`] holds 16Ki 4-bit counters under 4 hashes,
    /// halved every 16Ki recorded requests.
    TinyLfu,
}

impl AdmissionPolicy {
    /// The per-cache runtime state for this policy — `None` for
    /// admit-always, so the legacy path carries no sketch at all.
    #[must_use]
    pub(crate) fn build(&self) -> Option<Admission> {
        match *self {
            AdmissionPolicy::AdmitAll => None,
            AdmissionPolicy::TinyLfu => Some(Admission {
                sketch: FreqSketch::new(1 << 14, 4, 1 << 14, 0x7E11_F00D),
            }),
        }
    }
}

/// Per-cache TinyLFU state: the frequency sketch plus the admit rule.
#[derive(Debug, Clone)]
pub(crate) struct Admission {
    sketch: FreqSketch,
}

impl Admission {
    /// Records `n` requests for `key` (every request feeds the sketch,
    /// hits and misses alike — frequency is about demand, not misses).
    pub(crate) fn record(&mut self, key: u64, n: u64) {
        self.sketch.record_n(key, n);
    }

    /// Whether `candidate` is worth evicting `victim` for.
    pub(crate) fn admits(&self, candidate: u64, victim: u64) -> bool {
        self.sketch.estimate(candidate) >= self.sketch.estimate(victim)
    }
}

/// Inserts object `id` into `cache` subject to the cache's admission
/// policy. Returns whether the object was cached: under admit-always
/// (`adm` is `None`) this is a plain insert; under TinyLFU an insert
/// that would force an eviction is dropped when the candidate's
/// estimated frequency loses to the current LRU victim's. Re-inserts of
/// an already-cached object and inserts that fit without evicting
/// always land.
pub(crate) fn admit_insert(cache: &mut FluidCache, adm: &Option<Admission>, id: u32) -> bool {
    if let Some(a) = adm {
        if !cache.contains(id) && cache.would_evict(id) {
            if let Some(victim) = cache.peek_victim() {
                let key = |id| obj_key_hash(cache.objects().key(id));
                if !a.admits(key(id), key(victim)) {
                    return false;
                }
            }
        }
    }
    cache.insert(id);
    true
}

/// The tier-aware rollup of [`EdgeStats`]: per-tier element-wise sums
/// plus origin-crossing accounting, so offload is computed one way
/// everywhere instead of ad hoc in exp bins.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierStats {
    /// Sum over the edge tier.
    pub edges: EdgeStats,
    /// Sum over the shield tier (all-zero in a flat topology).
    pub shields: EdgeStats,
    /// Requests that crossed all the way to the true origin: the
    /// deepest tier's fill starts.
    pub origin_hits: u64,
    /// Whether a shield tier exists — decides which tier's
    /// `origin_bytes` count as true origin crossings.
    pub tiered: bool,
}

impl TierStats {
    /// Rolls up per-cache stats. An empty `per_shield` slice is the
    /// flat topology: edges fill straight from the origin.
    #[must_use]
    pub fn rollup(per_edge: &[EdgeStats], per_shield: &[EdgeStats]) -> Self {
        let edges = EdgeStats::merged_all(per_edge);
        let shields = EdgeStats::merged_all(per_shield);
        let tiered = !per_shield.is_empty();
        Self {
            edges,
            shields,
            origin_hits: if tiered { shields.misses } else { edges.misses },
            tiered,
        }
    }

    /// Bytes that actually crossed the true origin link.
    #[must_use]
    pub fn origin_bytes(&self) -> u64 {
        if self.tiered {
            self.shields.origin_bytes
        } else {
            self.edges.origin_bytes
        }
    }

    /// Fraction of viewer-served bytes that never crossed the true
    /// origin link — the offload the whole hierarchy exists to provide.
    /// With shields, edge `origin_bytes` only crossed a *regional*
    /// link, so offload is measured against the shields' origin pulls.
    #[must_use]
    pub fn origin_offload(&self) -> f64 {
        if self.edges.served_bytes == 0 {
            0.0
        } else {
            1.0 - self.origin_bytes() as f64 / self.edges.served_bytes as f64
        }
    }

    /// Viewer-facing hit rate (the edge tier's — viewers only ever see
    /// edges).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        self.edges.hit_rate()
    }
}

/// The shield an edge homes to with every shield up: child edges are
/// split into `shields` contiguous, near-equal groups.
pub(crate) fn shield_home(edge: usize, edges: usize, shields: usize) -> usize {
    edge * shields / edges
}

/// [`CacheNode`] under its old shield name. Kept because the benchmark
/// harness in `perfbench/` calls it by this name.
pub type ShieldCache = CacheNode;

/// [`CacheConfig`] with the shield tier's defaults (8 MiB, origin seed
/// `0x5111E1D`). A type alias cannot carry a second `Default`, so this
/// stays a struct. Kept because the benchmark harness in `perfbench/`
/// builds its shield from it by this name. Fields as in [`CacheConfig`].
#[derive(Debug, Clone)]
pub struct ShieldConfig {
    pub cache_capacity_bytes: usize,
    pub origin_tcp: netstack::tcplite::TcpConfig,
    pub origin_link: netstack::link::LinkConfig,
    pub origin_seed: u64,
    pub mutable_ttl_ticks: u64,
    pub retry: crate::fault::RetryPolicy,
}

impl Default for ShieldConfig {
    fn default() -> Self {
        let c = CacheConfig::default();
        Self {
            cache_capacity_bytes: 8 << 20,
            origin_tcp: c.origin_tcp,
            origin_link: c.origin_link,
            origin_seed: 0x5111E1D,
            mutable_ttl_ticks: c.mutable_ttl_ticks,
            retry: c.retry,
        }
    }
}

impl From<ShieldConfig> for CacheConfig {
    fn from(c: ShieldConfig) -> Self {
        Self {
            cache_capacity_bytes: c.cache_capacity_bytes,
            origin_tcp: c.origin_tcp,
            origin_link: c.origin_link,
            origin_seed: c.origin_seed,
            mutable_ttl_ticks: c.mutable_ttl_ticks,
            retry: c.retry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::ensure;
    use netstack::fetch::ContentServer;

    #[test]
    fn sketch_estimate_is_an_upper_bound() {
        let mut s = FreqSketch::new(256, 4, u64::MAX, 1);
        for i in 0..40u64 {
            let key = splitmix64(i);
            for _ in 0..(i % 7) {
                s.record(key);
            }
        }
        for i in 0..40u64 {
            let key = splitmix64(i);
            let true_count = (i % 7).min(15) as u8;
            assert!(
                s.estimate(key) >= true_count,
                "key {i}: estimate {} < true {true_count}",
                s.estimate(key)
            );
        }
    }

    #[test]
    fn sketch_counters_saturate_at_fifteen() {
        let mut s = FreqSketch::new(64, 2, u64::MAX, 2);
        for _ in 0..100 {
            s.record(42);
        }
        assert_eq!(s.estimate(42), 15);
    }

    #[test]
    fn sketch_halving_preserves_relative_order() {
        // Satellite: on a fixed stream, halving keeps hot keys above
        // cold keys.
        let mut s = FreqSketch::new(1 << 12, 4, u64::MAX, 3);
        let hot = splitmix64(1000);
        let warm = splitmix64(2000);
        let cold = splitmix64(3000);
        for _ in 0..12 {
            s.record(hot);
        }
        for _ in 0..6 {
            s.record(warm);
        }
        s.record(cold);
        let before = (s.estimate(hot), s.estimate(warm), s.estimate(cold));
        assert!(before.0 > before.1 && before.1 > before.2);
        s.halve();
        let after = (s.estimate(hot), s.estimate(warm), s.estimate(cold));
        assert!(after.0 > after.1 && after.1 > after.2);
        assert_eq!(after.0, before.0 / 2);
    }

    #[test]
    fn sketch_halving_clock_fires_on_schedule() {
        let mut s = FreqSketch::new(64, 1, 4, 4);
        let key = 7u64;
        for _ in 0..3 {
            s.record(key);
        }
        assert_eq!(s.estimate(key), 3);
        s.record(key); // 4th record: bump to 4, then halve to 2.
        assert_eq!(s.estimate(key), 2);
    }

    #[test]
    fn admit_all_policy_builds_no_state() {
        assert!(AdmissionPolicy::AdmitAll.build().is_none());
        assert!(AdmissionPolicy::TinyLfu.build().is_some());
    }

    /// A cache of `capacity` bytes over one title of three 100-byte
    /// segments, ids 0, 1 and 2.
    fn cache(capacity: usize) -> FluidCache {
        let m = crate::catalog::tests::manifest_of("t", &[&[100, 100, 100]]);
        let objects = crate::catalog::ObjectTable::new(std::slice::from_ref(&m));
        FluidCache::new(std::sync::Arc::new(objects), capacity)
    }

    #[test]
    fn tinylfu_rejects_cold_candidate_and_admits_hot_one() {
        let mut cache = cache(100);
        cache.insert(0); // victim-to-be
        let mut adm = AdmissionPolicy::TinyLfu
            .build()
            .expect("tinylfu builds state");
        adm.record(obj_key_hash((0, 0, 0)), 5);
        // Cold candidate loses to the warm victim: not inserted.
        assert!(!admit_insert(&mut cache, &Some(adm.clone()), 1));
        assert!(cache.contains(0));
        assert!(!cache.contains(1));
        // Now make the candidate hotter than the victim: admitted.
        adm.record(obj_key_hash((0, 0, 1)), 9);
        assert!(admit_insert(&mut cache, &Some(adm), 1));
        assert!(cache.contains(1));
        assert!(!cache.contains(0));
    }

    #[test]
    fn admit_insert_without_eviction_pressure_always_lands() {
        let mut cache = cache(300);
        cache.insert(0);
        let adm = AdmissionPolicy::TinyLfu.build();
        // Fits without evicting: admitted despite zero frequency.
        assert!(admit_insert(&mut cache, &adm, 1));
        // Admit-always: no sketch, always lands.
        assert!(admit_insert(&mut cache, &None, 2));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn tier_stats_zero_requests() {
        let t = TierStats::rollup(&[EdgeStats::default(); 4], &[]);
        assert_eq!(t.origin_hits, 0);
        assert!(!t.tiered);
        assert!((t.origin_offload() - 0.0).abs() < f64::EPSILON);
        assert!((t.hit_rate() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn tier_stats_all_hits_is_full_offload() {
        let edge = EdgeStats {
            hits: 10,
            served_bytes: 1000,
            ..EdgeStats::default()
        };
        let t = TierStats::rollup(&[edge, edge], &[EdgeStats::default()]);
        assert!(t.tiered);
        assert_eq!(t.origin_hits, 0);
        assert_eq!(t.edges.hits, 20);
        assert!((t.origin_offload() - 1.0).abs() < f64::EPSILON);
        assert!((t.hit_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn tier_stats_mixed_tiers_charge_origin_to_deepest() {
        let edge = EdgeStats {
            hits: 6,
            misses: 2,
            origin_bytes: 400, // regional (edge->shield) pulls
            served_bytes: 2000,
            ..EdgeStats::default()
        };
        let shield = EdgeStats {
            hits: 3,
            misses: 1,
            origin_bytes: 100, // true origin pulls
            served_bytes: 400,
            ..EdgeStats::default()
        };
        let t = TierStats::rollup(&[edge, edge], &[shield]);
        assert_eq!(t.origin_hits, 1);
        assert_eq!(t.origin_bytes(), 100);
        assert!((t.origin_offload() - (1.0 - 100.0 / 4000.0)).abs() < 1e-12);
        // Flat rollup of the same edges charges the edge pulls instead.
        let flat = TierStats::rollup(&[edge, edge], &[]);
        assert_eq!(flat.origin_hits, 4);
        assert_eq!(flat.origin_bytes(), 800);
    }

    #[test]
    fn shield_home_splits_edges_contiguously() {
        let homes: Vec<usize> = (0..8).map(|e| shield_home(e, 8, 2)).collect();
        assert_eq!(homes, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert!((0..64).all(|e| shield_home(e, 64, 4) == e / 16));
    }

    #[test]
    fn shield_cache_hit_miss_and_ledger() {
        let mut origin = ContentServer::new();
        origin.publish("a", vec![1u8; 64]);
        let mut sh = CacheNode::new(CacheConfig::default());
        let (data, t0) = ensure(&mut sh, &origin, "a", None).expect("miss fills");
        assert!(t0 > 0);
        assert_eq!(data, vec![1u8; 64]);
        assert_eq!(sh.stats().misses, 1);
        assert_eq!(sh.stats().origin_bytes, 64);
        assert_eq!(sh.cached_objects(), 1, "cached, not passed through");
        let (_, t1) = ensure(&mut sh, &origin, "a", None).expect("hit");
        assert_eq!(t1, 0);
        assert_eq!(sh.stats().hits, 1);
        assert_eq!(sh.fill_ledger(), (1, 0, 0));
    }

    #[test]
    fn shield_down_fails_even_warm() {
        let mut origin = ContentServer::new();
        origin.publish("a", vec![1u8; 64]);
        let mut sh = CacheNode::new(CacheConfig::default());
        ensure(&mut sh, &origin, "a", None).expect("warm it");
        sh.set_up(false);
        assert!(ensure(&mut sh, &origin, "a", None).is_err());
        sh.set_up(true);
        assert!(ensure(&mut sh, &origin, "a", None).is_ok());
    }

    #[test]
    fn shield_stale_if_error_serves_mutable_through_origin_outage() {
        let mut origin = ContentServer::new();
        origin.publish("m", vec![2u8; 32]);
        let mut sh = CacheNode::new(CacheConfig::default());
        ensure(&mut sh, &origin, "m", Some(0)).expect("fill");
        sh.set_parent_up(false);
        // TTL 0 means this is stale, but the origin is down: serve it.
        let (_, t) = ensure(&mut sh, &origin, "m", Some(100)).expect("stale-if-error");
        assert_eq!(t, 0);
        assert_eq!(sh.stats().hits, 1);
        // An uncached object has nothing stale to serve.
        assert!(ensure(&mut sh, &origin, "other", Some(100)).is_err());
    }
}
