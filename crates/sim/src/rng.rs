//! Deterministic pseudo-random number generation.
//!
//! Simulations must be reproducible bit-for-bit across runs and platforms, so the
//! simulator uses its own tiny `xoshiro256**` generator seeded through `SplitMix64`
//! rather than a thread-local or OS-seeded source. Workload generation (graphs,
//! key-value operation streams, time series) in higher-level crates may additionally
//! use the `rand` crate seeded from values produced here.

/// A deterministic pseudo-random number generator (`xoshiro256**`).
///
/// # Example
///
/// ```
/// use syncron_sim::rng::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed. The full 256-bit state is expanded
    /// with SplitMix64, so nearby seeds produce unrelated streams.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Produces the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift method with rejection to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be non-zero");
        // Lemire's nearly-divisionless method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniformly distributed `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Returns a uniform floating-point value in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        if slice.len() < 2 {
            return;
        }
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Derives a new independent generator, useful for giving each simulated core its
    /// own stream while remaining reproducible.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should differ");
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut rng = SimRng::seed_from(99);
        for bound in [1u64, 2, 3, 7, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_small_domains() {
        let mut rng = SimRng::seed_from(5);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[rng.gen_index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(11);
        for _ in 0..1000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_probability_roughly_respected() {
        let mut rng = SimRng::seed_from(123);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "observed {frac}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(77);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
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
    fn fork_streams_are_independent_and_reproducible() {
        let mut a = SimRng::seed_from(31);
        let mut b = SimRng::seed_from(31);
        let mut fa = a.fork();
        let mut fb = b.fork();
        for _ in 0..32 {
            assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }

    #[test]
    #[should_panic]
    fn zero_bound_panics() {
        SimRng::seed_from(0).gen_range(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;

    // Deterministic stand-ins for proptest properties (no crates.io access).

    #[test]
    fn gen_range_always_below_bound() {
        let mut meta = SimRng::seed_from(0x5EED_CAFE);
        for _ in 0..64 {
            let seed = meta.next_u64();
            let bound = 1 + meta.gen_range(u64::MAX - 1);
            let mut rng = SimRng::seed_from(seed);
            for _ in 0..64 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut meta = SimRng::seed_from(0x5EED_F00D);
        for _ in 0..64 {
            let seed = meta.next_u64();
            let len = meta.gen_range(64) as usize;
            let mut v: Vec<u8> = (0..len).map(|_| meta.gen_range(256) as u8).collect();
            let mut rng = SimRng::seed_from(seed);
            let mut original = v.clone();
            rng.shuffle(&mut v);
            original.sort_unstable();
            v.sort_unstable();
            assert_eq!(original, v);
        }
    }
}
