//! Deterministic pseudo-random number generation and the distributions the
//! evaluation needs.
//!
//! Determinism is load-bearing here: the paper's central theorem (a
//! recovered process re-produces exactly its pre-crash behaviour) is
//! checked by re-running workloads, so every random draw must be a pure
//! function of the seed. We implement xoshiro256++ seeded through
//! SplitMix64 — small, fast, and entirely under our control, so no
//! dependency upgrade can ever change the streams our tests pin down.

/// A deterministic PRNG (xoshiro256++) with convenience samplers.
///
/// # Examples
///
/// ```
/// use publishing_sim::rng::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child generator; used to give each component
    /// its own stream so adding draws in one place never perturbs another.
    pub fn fork(&mut self, label: u64) -> DetRng {
        DetRng::new(self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Returns the next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Lemire's rejection method: unbiased and branch-light.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Returns a uniform value in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.unit_f64() < p
    }

    /// Samples an exponential with the given mean (used for Poisson message
    /// arrivals and failure inter-arrival times, per Young's model).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean: {mean}");
        let u = 1.0 - self.unit_f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// Samples a standard normal via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit_f64();
        let u2 = self.unit_f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Samples a lognormal with the given parameters of the underlying
    /// normal (used for the Fig 5.3 process state-size distribution).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Picks a uniformly random element index for a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Samples an index from a discrete distribution given by weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights sum to zero");
        let mut x = self.unit_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent_of_later_draws() {
        let mut parent1 = DetRng::new(9);
        let mut parent2 = DetRng::new(9);
        let mut child1 = parent1.fork(1);
        let mut child2 = parent2.fork(1);
        // Extra draws on one parent must not perturb its already-forked child.
        let _ = parent1.next_u64();
        for _ in 0..100 {
            assert_eq!(child1.next_u64(), child2.next_u64());
        }
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut rng = DetRng::new(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let x = rng.below(8);
            assert!(x < 8);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_f64_in_half_open_interval() {
        let mut rng = DetRng::new(11);
        for _ in 0..10_000 {
            let u = rng.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = DetRng::new(5);
        let n = 200_000;
        let mean = 3.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.05,
            "sample mean {sample_mean}"
        );
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = DetRng::new(6);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn weighted_prefers_heavy_bucket() {
        let mut rng = DetRng::new(10);
        let w = [1.0, 0.0, 9.0];
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[rng.weighted(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        DetRng::new(0).below(0);
    }
}
