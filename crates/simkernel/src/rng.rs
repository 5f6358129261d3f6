//! Deterministic random number generation.
//!
//! Every stochastic element of the model (arrival process, service times,
//! record selection, ...) draws from a [`SimRng`] seeded from the experiment
//! configuration, so a simulation run is exactly reproducible.

/// The simulation PRNG.
///
/// A self-contained xoshiro256++ generator (the workspace builds without any
/// external crates, so no `rand` dependency).  Separate streams (workload
/// generation vs. service times) can be derived with [`SimRng::derive`] so
/// that changing one part of a model does not perturb another part's random
/// sequence.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The four 64-bit state words are filled with consecutive splitmix64
    /// outputs, the standard seeding recipe for the xoshiro family.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_word = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64_seeded(sm)
        };
        let state = [next_word(), next_word(), next_word(), next_word()];
        Self { state }
    }

    /// The next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derives an independent stream identified by `stream`.
    ///
    /// The derivation uses a splitmix-style mix of the parent seed material so
    /// that streams with different identifiers are decorrelated.
    pub fn derive(&mut self, stream: u64) -> Self {
        let base = self.next_u64();
        Self::seed_from(mix64(base ^ mix64(stream)))
    }

    /// Uniform f64 in `[0, 1)`, never exactly 1.0 and never exactly 0.0
    /// (convenient for `ln`).
    #[inline]
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits, the usual u64 → f64 conversion.
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u <= 0.0 {
            f64::MIN_POSITIVE
        } else {
            u
        }
    }

    /// Uniform f64 in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics when `n == 0` (an empty range), in every build profile.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range in SimRng::below");
        // Lemire's multiply-shift map of a 64-bit draw onto [0, n).  The
        // modulo bias is at most n / 2^64, far below anything the simulation
        // statistics could resolve, and the mapping stays deterministic.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Bernoulli trial with probability `p` of returning `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Exponentially distributed value with the given `mean` (mean > 0).
    ///
    /// Used for service times ("exponentially distributed over a mean
    /// specified as a parameter", §3.2) and Poisson inter-arrival times.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        -mean * self.unit().ln()
    }
}

/// Final mixing function of splitmix64.
///
/// Public so seed-derivation code elsewhere (e.g. per-point sweep seeds)
/// shares this one canonical mixer.
pub fn mix64(z: u64) -> u64 {
    mix64_seeded(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Splitmix64 output function (applied to an already-advanced state word).
fn mix64_seeded(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64)
            .filter(|_| a.below(1 << 30) == b.below(1 << 30))
            .count();
        assert!(same < 4);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from(7);
        let n = 200_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < 0.1, "observed {observed}");
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut rng = SimRng::seed_from(11);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!(u > 0.0 && u < 1.0 + 1e-12);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn derived_streams_are_decorrelated() {
        let mut parent = SimRng::seed_from(1234);
        let mut s1 = parent.derive(1);
        let mut s2 = parent.derive(2);
        let same = (0..64)
            .filter(|_| s1.below(1 << 30) == s2.below(1 << 30))
            .count();
        assert!(same < 4);
    }

    #[test]
    fn range_helpers_stay_in_bounds() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1000 {
            let v = rng.range_f64(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
        }
    }
}
