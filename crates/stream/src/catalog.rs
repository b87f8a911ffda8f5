//! Multi-title catalogs with Zipf popularity.
//!
//! Everything before this module streamed exactly one title. A CDN's
//! economics, though, are set by the *catalog*: caches are sized
//! against a working set of many titles whose request frequencies
//! follow a heavy-tailed (Zipf) law, and admission policies only earn
//! their keep when a long tail of one-hit wonders competes with a hot
//! head for cache space.
//!
//! [`Catalog`] is a list of per-title [`Manifest`]s (each title can be
//! sealed under its own license key — the manifests are independent)
//! plus a Zipf exponent. [`ZipfSampler`] turns a uniform 64-bit hash
//! into a title rank, so per-session title choice stays a pure function
//! of the load seed and the session index: the calendar engine draws
//! *no extra RNG* for single-title catalogs, which keeps the one-title
//! configuration bit-identical to the pre-catalog engine.

use std::sync::Arc;

use crate::ladder::Manifest;
use crate::shield::ObjKey;

/// A seeded Zipf(s) popularity sampler over `n` ranks: rank `k`
/// (0-based) is drawn with probability `(k+1)^-s / H_{n,s}`. Sampling
/// inverts the CDF with a binary search on a 53-bit uniform derived
/// from a caller-supplied hash — no internal RNG state, so the same
/// hash always yields the same rank.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// `cdf[k]` = P(rank <= k); the last entry is pinned to exactly 1.
    cdf: Vec<f64>,
    /// `probs[k]` = P(rank == k), the analytic law tests compare to.
    probs: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over `titles` ranks with exponent `s` (`s = 0` is
    /// uniform; larger `s` concentrates mass on the head).
    ///
    /// # Panics
    ///
    /// Panics when `titles` is zero or `s` is not finite.
    #[must_use]
    pub fn new(titles: usize, s: f64) -> Self {
        assert!(titles > 0, "a Zipf sampler needs at least one rank");
        assert!(s.is_finite(), "Zipf exponent must be finite");
        let mut probs: Vec<f64> = (1..=titles).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= total;
        }
        let mut cdf = Vec::with_capacity(titles);
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            cdf.push(acc);
        }
        // Guard against summation rounding leaving the tail unreachable
        // (or a hash of ~1.0 falling off the end).
        *cdf.last_mut().expect("titles > 0") = 1.0;
        Self { cdf, probs }
    }

    /// Ranks in the sampler.
    #[must_use]
    pub fn titles(&self) -> usize {
        self.probs.len()
    }

    /// The analytic probability of rank `k` (0-based).
    #[must_use]
    pub fn probability(&self, rank: usize) -> f64 {
        self.probs[rank]
    }

    /// Maps a uniform 64-bit hash to a rank by CDF inversion. The top
    /// 53 bits become a uniform in `[0, 1)` — the full precision an
    /// `f64` mantissa can hold.
    #[must_use]
    pub fn sample_hash(&self, hash: u64) -> usize {
        let u = (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Dense `u32` ids for every cache object of a list of titles, with
/// each object's size. Ids number objects in [`ObjKey`] order — title,
/// then rung, then segment — so a map keyed by id iterates exactly as
/// one keyed by `ObjKey` does. Every title's rungs hold the same number
/// of segments (a [`Manifest`] invariant).
#[derive(Debug, Clone)]
pub(crate) struct ObjectTable {
    /// Index into `rung_first` of each title's rung 0.
    title_rung0: Vec<u32>,
    /// The id of segment 0 of each rung, titles in order.
    rung_first: Vec<u32>,
    /// Each id's key.
    keys: Vec<ObjKey>,
    /// Each id's size in bytes.
    bytes: Vec<usize>,
    /// The sum of `bytes`, saturating.
    total_bytes: usize,
}

impl ObjectTable {
    /// The table over `titles`.
    ///
    /// # Panics
    ///
    /// Panics when the titles hold more than `u32::MAX` objects.
    pub(crate) fn new(titles: &[Manifest]) -> Self {
        let mut t = Self {
            title_rung0: Vec::with_capacity(titles.len()),
            rung_first: Vec::new(),
            keys: Vec::new(),
            bytes: Vec::new(),
            total_bytes: 0,
        };
        let id = |n: usize| u32::try_from(n).expect("object ids fit in u32");
        for (ti, m) in titles.iter().enumerate() {
            t.title_rung0.push(id(t.rung_first.len()));
            for (ri, rung) in m.rungs.iter().enumerate() {
                t.rung_first.push(id(t.keys.len()));
                for (si, seg) in rung.segments.iter().enumerate() {
                    t.keys.push((id(ti), id(ri), id(si)));
                    t.bytes.push(seg.bytes);
                    t.total_bytes = t.total_bytes.saturating_add(seg.bytes);
                }
            }
        }
        assert!(u32::try_from(t.keys.len()).is_ok(), "object ids fit in u32");
        t
    }

    /// The id of segment `seg` of rung `rung` of title `title`.
    #[inline]
    pub(crate) fn id(&self, title: u32, rung: u32, seg: u32) -> u32 {
        let first = self.rung_first[(self.title_rung0[title as usize] + rung) as usize];
        debug_assert_eq!(
            self.keys.get((first + seg) as usize),
            Some(&(title, rung, seg))
        );
        first + seg
    }

    /// The key of object `id`.
    pub(crate) fn key(&self, id: u32) -> ObjKey {
        self.keys[id as usize]
    }

    /// The size of object `id` in bytes.
    #[inline]
    pub(crate) fn bytes(&self, id: u32) -> usize {
        self.bytes[id as usize]
    }

    /// Objects in the table; ids run `0..len()`.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Every object's bytes summed (saturating): a cache at least this
    /// large can never evict.
    pub(crate) fn total_bytes(&self) -> usize {
        self.total_bytes
    }
}

/// A catalog of titles: per-title manifests (rank order *is*
/// popularity order — title 0 is the head) and the Zipf exponent that
/// spreads sessions across them.
#[derive(Debug, Clone)]
pub struct Catalog {
    titles: Vec<Manifest>,
    /// Dense ids over the titles' objects, built once: the titles never
    /// change after construction.
    objects: Arc<ObjectTable>,
    /// Zipf popularity exponent across titles. Ignored for a
    /// single-title catalog (there is nothing to sample).
    pub zipf_s: f64,
}

impl Catalog {
    /// The degenerate one-title catalog — exactly the pre-catalog
    /// engine's input.
    #[must_use]
    pub fn single(manifest: Manifest) -> Self {
        Self::new(vec![manifest], 1.0)
    }

    /// A catalog over explicit per-title manifests, most popular first.
    ///
    /// # Panics
    ///
    /// Panics when `titles` is empty or `zipf_s` is not finite.
    #[must_use]
    pub fn new(titles: Vec<Manifest>, zipf_s: f64) -> Self {
        assert!(!titles.is_empty(), "a catalog needs at least one title");
        assert!(zipf_s.is_finite(), "Zipf exponent must be finite");
        Self {
            objects: Arc::new(ObjectTable::new(&titles)),
            titles,
            zipf_s,
        }
    }

    /// A synthetic catalog of `titles` clones of `base`, renamed
    /// `"{base.title}_{rank}"` so object names never collide across
    /// titles. This is the bench-scale constructor: one encode pass,
    /// many titles.
    ///
    /// # Panics
    ///
    /// Panics when `titles` is zero or `zipf_s` is not finite.
    #[must_use]
    pub fn synthesize(base: &Manifest, titles: usize, zipf_s: f64) -> Self {
        assert!(titles > 0, "a catalog needs at least one title");
        let titles = (0..titles)
            .map(|rank| {
                let mut m = base.clone();
                m.title = format!("{}_{rank}", base.title);
                m
            })
            .collect();
        Self::new(titles, zipf_s)
    }

    /// Titles in the catalog.
    #[must_use]
    pub fn len(&self) -> usize {
        self.titles.len()
    }

    /// Always `false` (the constructors reject empty catalogs); here
    /// for the conventional `len`/`is_empty` pair.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.titles.is_empty()
    }

    /// The manifest of the title at popularity rank `rank`.
    #[must_use]
    pub fn title(&self, rank: usize) -> &Manifest {
        &self.titles[rank]
    }

    /// All manifests, most popular first.
    #[must_use]
    pub fn titles(&self) -> &[Manifest] {
        &self.titles
    }

    /// The catalog's working-set size: total segment bytes across every
    /// rung of every title (what a cache would hold if it held
    /// everything). Cache-pressure experiments size capacities as a
    /// fraction of this.
    #[must_use]
    pub fn working_set_bytes(&self) -> u64 {
        self.titles
            .iter()
            .flat_map(|m| &m.rungs)
            .flat_map(|r| &r.segments)
            .map(|s| s.bytes as u64)
            .sum()
    }

    /// The dense object ids of every title's segments.
    pub(crate) fn objects(&self) -> &Arc<ObjectTable> {
        &self.objects
    }

    /// The popularity sampler — `None` for a single-title catalog,
    /// where title choice is constant and must draw nothing (the
    /// bit-identity contract with the single-title engine).
    #[must_use]
    pub fn sampler(&self) -> Option<ZipfSampler> {
        (self.titles.len() > 1).then(|| ZipfSampler::new(self.titles.len(), self.zipf_s))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use signal::rng::splitmix64;

    /// A title whose rung `r` holds segments of `rungs[r]` bytes each,
    /// four frames to a segment.
    pub(crate) fn manifest_of(title: &str, rungs: &[&[usize]]) -> Manifest {
        use crate::ladder::{RungInfo, SegmentEntry};
        Manifest {
            title: title.to_string(),
            ticks_per_frame: 1,
            sealed: false,
            live: None,
            rungs: rungs
                .iter()
                .enumerate()
                .map(|(r, segs)| RungInfo {
                    target_bits_per_frame: 1000.0 * (r + 1) as f64,
                    segments: segs
                        .iter()
                        .enumerate()
                        .map(|(i, &bytes)| SegmentEntry {
                            name: format!("r{r}_seg{i}"),
                            bytes,
                            frames: 4,
                            nonce: i as u32,
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    fn tiny_manifest(title: &str) -> Manifest {
        manifest_of(title, &[&[100]])
    }

    #[test]
    fn zipf_probabilities_sum_to_one_and_decrease() {
        let z = ZipfSampler::new(64, 1.1);
        let sum: f64 = (0..64).map(|k| z.probability(k)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for k in 1..64 {
            assert!(z.probability(k) < z.probability(k - 1));
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for k in 0..10 {
            assert!((z.probability(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_sample_covers_extremes() {
        let z = ZipfSampler::new(8, 1.0);
        assert_eq!(z.sample_hash(0), 0);
        assert_eq!(z.sample_hash(u64::MAX), 7);
    }

    #[test]
    fn zipf_empirical_head_matches_analytic_law() {
        // Satellite: a seeded sweep's empirical head frequencies match
        // the analytic Zipf law within tolerance.
        let z = ZipfSampler::new(32, 1.0);
        let n = 200_000u64;
        let mut counts = vec![0u64; 32];
        for i in 0..n {
            counts[z.sample_hash(splitmix64(0x21BF_5EED ^ i))] += 1;
        }
        for (rank, &count) in counts.iter().enumerate().take(4) {
            let empirical = count as f64 / n as f64;
            let analytic = z.probability(rank);
            assert!(
                (empirical - analytic).abs() < 0.01,
                "rank {rank}: empirical {empirical} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn single_title_catalog_has_no_sampler() {
        let c = Catalog::single(tiny_manifest("t"));
        assert!(c.sampler().is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn synthesized_titles_get_distinct_names() {
        let c = Catalog::synthesize(&tiny_manifest("base"), 4, 1.0);
        assert_eq!(c.len(), 4);
        assert_eq!(c.title(0).title, "base_0");
        assert_eq!(c.title(3).title, "base_3");
        assert_eq!(c.working_set_bytes(), 400);
        assert!(c.sampler().is_some());
    }
}
