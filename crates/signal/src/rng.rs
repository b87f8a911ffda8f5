//! Deterministic pseudo-random number generation.
//!
//! All workload generators in the workspace draw from [`Xoroshiro128`], a
//! small, fast, seedable PRNG (xoroshiro128++). Determinism matters here:
//! every `exp` experiment (README, *Experiments*) must regenerate the
//! same workload from
//! the same seed so that paper-shape comparisons are reproducible run to
//! run, machine to machine.

/// A deterministic xoroshiro128++ pseudo-random number generator.
///
/// Not cryptographically secure — the DRM crate has its own keystream
/// construction. This generator is for *workloads*: noise, jitter, test
/// corpora.
///
/// # Example
///
/// ```
/// use signal::rng::Xoroshiro128;
///
/// let mut a = Xoroshiro128::new(7);
/// let mut b = Xoroshiro128::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoroshiro128 {
    s0: u64,
    s1: u64,
}

/// One SplitMix64 step: advances `x` by the golden-ratio increment and
/// avalanches it. The seed expander for [`Xoroshiro128::new`], and a
/// stateless mixing hash in its own right (consistent sharding uses it
/// to spread consecutive indices).
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Xoroshiro128 {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The seed is expanded with [`splitmix64`] so that nearby seeds
    /// (0, 1, 2…) yield unrelated streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let s0 = splitmix64(seed);
        let mut s1 = splitmix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
        if s0 == 0 && s1 == 0 {
            s1 = 1; // the all-zero state is the one forbidden state
        }
        Self { s0, s1 }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let (s0, mut s1) = (self.s0, self.s1);
        let result = s0.wrapping_add(s1).rotate_left(17).wrapping_add(s0);
        s1 ^= s0;
        self.s0 = s0.rotate_left(49) ^ s1 ^ (s1 << 21);
        self.s1 = s1.rotate_left(28);
        result
    }

    /// Returns the next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "bad range");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`; uses rejection sampling to avoid modulo
    /// bias.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % n;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "bad range");
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal draw via the Box–Muller transform.
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, sigma: f64) -> f64 {
        mean + sigma * self.normal()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// Returns `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len() as u64) as usize])
        }
    }
}

impl Default for Xoroshiro128 {
    /// Seeds with a fixed constant — the workspace favours reproducibility
    /// over entropy.
    fn default() -> Self {
        Self::new(0x6d6d_7073_6f63) // "mmpsoc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoroshiro128::new(123);
        let mut b = Xoroshiro128::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoroshiro128::new(1);
        let mut b = Xoroshiro128::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams from different seeds should not track");
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut r = Xoroshiro128::new(9);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = Xoroshiro128::new(5);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.1).abs() < 0.01, "bucket fraction {frac}");
        }
    }

    #[test]
    fn range_i64_hits_both_endpoints() {
        let mut r = Xoroshiro128::new(11);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..10_000 {
            let v = r.range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            lo_seen |= v == -3;
            hi_seen |= v == 3;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn normal_has_unit_moments() {
        let mut r = Xoroshiro128::new(77);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Xoroshiro128::new(3);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn choose_none_on_empty() {
        let mut r = Xoroshiro128::new(3);
        assert!(r.choose::<u8>(&[]).is_none());
        assert_eq!(r.choose(&[42]), Some(&42));
    }

    #[test]
    fn chance_extremes() {
        let mut r = Xoroshiro128::new(8);
        assert!((0..100).all(|_| !r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
