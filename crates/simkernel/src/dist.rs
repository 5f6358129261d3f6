//! Reusable probability distributions.
//!
//! TPSIM's workload model needs two distributions beyond the exponential
//! and uniform draws of [`SimRng`] itself: Zipf popularity (trace files and
//! hot spots) and piecewise-constant arrival rates (shaped workloads).
//! Everything samples from a [`SimRng`] so runs remain deterministic.

use crate::rng::SimRng;

/// Zipf-like distribution over `0..n` with skew parameter `theta` in `[0, 1)`.
///
/// Gray et al.'s generator ("Quickly Generating Billion-Record Synthetic
/// Databases", SIGMOD 1994).  Used by the synthetic trace generator's
/// per-file page popularity and by `dbmodel`'s hot-spot sampler, the
/// database model's only skew mechanism.
/// `theta = 0` is uniform; values around 0.8–0.99 give the heavy skew typical
/// of OLTP traces.  Construction costs O(1) in `n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
    /// `1 + 0.5^theta`: a scaled draw below this (and at least 1) is rank 1.
    rank1_bound: f64,
}

impl Zipf {
    /// Terms of ζ(n, θ) summed directly; the rest is the Euler–Maclaurin
    /// tail.  Below 100 elements, the ζ(2, θ) inside `eta` included, ζ is
    /// therefore the plain direct sum bit for bit.
    const ZETA_HEAD: u64 = 99;

    /// Creates a Zipf distribution over `0..n` (n >= 1) with skew `theta` in `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one element");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        Self::with_zeta(n, theta, Self::zeta(n, theta))
    }

    /// [`Self::new`] with the normaliser ζ(n, θ) given.
    fn with_zeta(n: u64, theta: f64, zeta_n: f64) -> Self {
        let zeta_theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_theta / zeta_n);
        Self {
            n,
            alpha,
            zeta_n,
            eta,
            rank1_bound: 1.0 + 0.5f64.powf(theta),
        }
    }

    /// ζ(n, θ) = Σ_{i=1..n} i^−θ.  The first [`Self::ZETA_HEAD`] terms are
    /// summed directly; the tail over `[a, b] = [100, n]` is the
    /// Euler–Maclaurin formula with f(x) = x^−θ, up to the B₆ term, whose
    /// remainder is below 1e-18 for every θ in `[0, 1)`.  The integral
    /// `(b^s − a^s)/s`, s = 1 − θ, is written with `expm1` because the plain
    /// difference cancels as θ → 1.  Tested within 4e-15 relative of a
    /// compensated direct sum.
    fn zeta(n: u64, theta: f64) -> f64 {
        let head: f64 = (1..=n.min(Self::ZETA_HEAD))
            .map(|i| 1.0 / (i as f64).powf(theta))
            .sum();
        if n <= Self::ZETA_HEAD {
            return head;
        }
        let (a, b) = ((Self::ZETA_HEAD + 1) as f64, n as f64);
        let s = 1.0 - theta;
        let integral = a.powf(s) * (s * (b / a).ln()).exp_m1() / s;
        let ends = (a.powf(-theta) + b.powf(-theta)) / 2.0;
        // B_2k/(2k)! · (f^(j)(b) − f^(j)(a)) for the odd orders j = 2k − 1,
        // where f^(j)(x) = −θ(θ+1)…(θ+j−1) · x^(−θ−j).
        let mut coeff = -theta;
        let mut corrections = 0.0;
        for (j, weight) in [(1.0, 1.0 / 12.0), (3.0, -1.0 / 720.0), (5.0, 1.0 / 30240.0)] {
            corrections += weight * coeff * (b.powf(-theta - j) - a.powf(-theta - j));
            coeff *= (theta + j) * (theta + j + 1.0);
        }
        head + (integral + ends + corrections)
    }

    /// Samples a value in `0..n` (0 is the most popular element).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.n == 1 {
            return 0;
        }
        let u = rng.unit();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_bound {
            return 1;
        }
        let v = ((self.eta * u) - self.eta + 1.0).max(1e-12);
        let k = (self.n as f64 * v.powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Always false (a Zipf distribution has at least one element).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A cyclic piecewise-constant arrival-rate function.
///
/// Segments are `(duration_ms, rate_per_second)` pairs; the pattern repeats
/// forever.  This is the substrate for time-varying (non-homogeneous) Poisson
/// arrivals: the engine draws a unit exponential `e` and asks for the earliest
/// time `T` with `∫ rate(s)/1000 ds = e` past the current clock — the standard
/// inversion method, exact for piecewise-constant rates.
#[derive(Debug, Clone)]
pub struct PiecewiseRate {
    /// `(duration_ms, rate_per_second)` per segment.
    segments: Vec<(f64, f64)>,
    /// Sum of segment durations (one cycle, ms).
    cycle_ms: f64,
    /// Expected events per cycle (`Σ duration/1000 · rate`).
    events_per_cycle: f64,
}

impl PiecewiseRate {
    /// Builds a cyclic rate function.  Every duration must be positive and
    /// finite, every rate non-negative and finite, and at least one segment
    /// must have a positive rate (otherwise no arrival ever happens and the
    /// inversion would not terminate).
    pub fn new(segments: Vec<(f64, f64)>) -> Self {
        assert!(!segments.is_empty(), "rate function needs segments");
        for &(dur, rate) in &segments {
            assert!(
                dur.is_finite() && dur > 0.0,
                "segment durations must be positive and finite"
            );
            assert!(
                rate.is_finite() && rate >= 0.0,
                "segment rates must be non-negative and finite"
            );
        }
        let cycle_ms: f64 = segments.iter().map(|s| s.0).sum();
        let events_per_cycle: f64 = segments.iter().map(|s| s.0 / 1000.0 * s.1).sum();
        assert!(
            events_per_cycle > 0.0,
            "at least one segment must have a positive rate"
        );
        Self {
            segments,
            cycle_ms,
            events_per_cycle,
        }
    }

    /// Length of one cycle in milliseconds.
    pub fn cycle_ms(&self) -> f64 {
        self.cycle_ms
    }

    /// Instantaneous rate (events per second) at time `t_ms`.
    #[cfg(test)]
    pub fn rate_at(&self, t_ms: f64) -> f64 {
        let mut phase = (t_ms % self.cycle_ms + self.cycle_ms) % self.cycle_ms;
        for &(dur, rate) in &self.segments {
            if phase < dur {
                return rate;
            }
            phase -= dur;
        }
        // Only reachable through float round-off at the cycle boundary.
        self.segments[self.segments.len() - 1].1
    }

    /// Expected number of events in `[0, t_ms]`.
    pub fn cumulative(&self, t_ms: f64) -> f64 {
        debug_assert!(t_ms >= 0.0);
        let cycles = (t_ms / self.cycle_ms).floor();
        let mut phase = t_ms - cycles * self.cycle_ms;
        let mut acc = cycles * self.events_per_cycle;
        for &(dur, rate) in &self.segments {
            if phase <= 0.0 {
                break;
            }
            acc += phase.min(dur) / 1000.0 * rate;
            phase -= dur;
        }
        acc
    }

    /// Expected number of events in `[t0_ms, t1_ms]`.
    pub fn expected_events(&self, t0_ms: f64, t1_ms: f64) -> f64 {
        (self.cumulative(t1_ms) - self.cumulative(t0_ms)).max(0.0)
    }

    /// Earliest time `T` with `cumulative(T) >= target` — the inverse of the
    /// cumulative expected-event function.  Zero-rate segments are skipped
    /// (their integral is flat, so no arrival can land inside them).
    fn invert(&self, target: f64) -> f64 {
        let cycles = (target / self.events_per_cycle).floor();
        let mut rem = target - cycles * self.events_per_cycle;
        let mut t = cycles * self.cycle_ms;
        for &(dur, rate) in &self.segments {
            let cap = dur / 1000.0 * rate;
            if rate > 0.0 && rem <= cap {
                return t + rem / (rate / 1000.0);
            }
            rem -= cap;
            t += dur;
        }
        // Float round-off pushed `rem` past the cycle; land on the boundary
        // (the next call continues from there).
        t
    }

    /// Absolute time of the next arrival after `t_ms`, given a fresh unit
    /// exponential draw `e > 0` (non-homogeneous Poisson by inversion).
    pub fn next_arrival_after(&self, t_ms: f64, e: f64) -> f64 {
        debug_assert!(e > 0.0);
        self.invert(self.cumulative(t_ms) + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_toward_small_indices() {
        let z = Zipf::new(10_000, 0.9);
        let mut rng = SimRng::seed_from(3);
        let n = 100_000;
        let in_first_percent = (0..n).filter(|_| z.sample(&mut rng) < 100).count();
        // With theta=0.9 far more than 1% of accesses hit the first 1% of items.
        assert!(
            in_first_percent as f64 / n as f64 > 0.3,
            "only {in_first_percent} hits in hottest 1%"
        );
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let z = Zipf::new(1000, 0.0);
        let mut rng = SimRng::seed_from(3);
        let n = 100_000;
        let in_first_half = (0..n).filter(|_| z.sample(&mut rng) < 500).count();
        let frac = in_first_half as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "frac {frac}");
    }

    #[test]
    fn zipf_stays_in_range() {
        let z = Zipf::new(50, 0.5);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 50);
        }
        assert_eq!(z.len(), 50);
        assert!(!z.is_empty());
    }

    /// The plain O(n) sum: the reference sampler's normaliser.
    fn direct_zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    // Miri is orders of magnitude slower and need not reproduce libm's bits.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn zeta_matches_a_compensated_direct_sum() {
        let checkpoints = [1_000, 99_999, 100_000, 1_000_000];
        for theta in [0.0, 0.3, 0.5, 0.9, 0.95, 0.99, 0.999_999] {
            // Kahan summation, checked at every n up to 300 and at the
            // checkpoints.
            let (mut sum, mut carry) = (0.0f64, 0.0f64);
            for n in 1..=1_000_000u64 {
                let y = 1.0 / (n as f64).powf(theta) - carry;
                let t = sum + y;
                carry = (t - sum) - y;
                sum = t;
                if n > 300 && !checkpoints.contains(&n) {
                    continue;
                }
                let z = Zipf::zeta(n, theta);
                if n < 100 {
                    assert_eq!(z, direct_zeta(n, theta), "n={n} theta={theta}");
                }
                let rel = ((z - sum) / sum).abs();
                assert!(rel <= 4e-15, "n={n} theta={theta}: relative error {rel:e}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn draws_match_the_direct_sum_sampler() {
        for (n, theta) in [(100_000, 0.9), (500_000, 0.5), (9_429, 0.95), (150, 0.95)] {
            let fast = Zipf::new(n, theta);
            let reference = Zipf::with_zeta(n, theta, direct_zeta(n, theta));
            let mut ra = SimRng::seed_from(n);
            let mut rb = SimRng::seed_from(n);
            for _ in 0..200_000 {
                assert_eq!(
                    fast.sample(&mut ra),
                    reference.sample(&mut rb),
                    "n={n} theta={theta}"
                );
            }
        }
    }

    #[test]
    fn piecewise_rate_lookup_and_integral() {
        // 1 s at 100/s, 1 s at 0/s, 2 s at 50/s, cyclic.
        let p = PiecewiseRate::new(vec![(1000.0, 100.0), (1000.0, 0.0), (2000.0, 50.0)]);
        assert_eq!(p.cycle_ms(), 4000.0);
        assert_eq!(p.rate_at(500.0), 100.0);
        assert_eq!(p.rate_at(1500.0), 0.0);
        assert_eq!(p.rate_at(3999.0), 50.0);
        assert_eq!(p.rate_at(4500.0), 100.0); // wraps
        assert!((p.cumulative(1000.0) - 100.0).abs() < 1e-9);
        assert!((p.cumulative(2000.0) - 100.0).abs() < 1e-9);
        assert!((p.cumulative(4000.0) - 200.0).abs() < 1e-9);
        assert!((p.expected_events(500.0, 4500.0) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn piecewise_inversion_round_trips() {
        let p = PiecewiseRate::new(vec![(300.0, 20.0), (700.0, 180.0), (500.0, 5.0)]);
        for t in [0.0, 10.0, 299.0, 300.0, 999.0, 1400.0, 7321.5] {
            for e in [0.001, 0.5, 3.0, 40.0] {
                let next = p.next_arrival_after(t, e);
                assert!(next > t, "arrival must advance: t={t} e={e} next={next}");
                let integral = p.expected_events(t, next);
                assert!(
                    (integral - e).abs() < 1e-6,
                    "t={t} e={e}: integral {integral}"
                );
            }
        }
    }

    #[test]
    fn piecewise_arrivals_skip_zero_rate_segments() {
        let p = PiecewiseRate::new(vec![(100.0, 10.0), (900.0, 0.0)]);
        // An arrival requested from inside the dead zone lands in the next
        // live segment.
        let next = p.next_arrival_after(150.0, 0.25);
        assert!(
            (1000.0..1100.0).contains(&next),
            "next arrival {next} should fall in the second cycle's live window"
        );
    }

    #[test]
    fn piecewise_empirical_rate_tracks_schedule() {
        // Burst: 10× rate for the first 10% of each 1 s cycle.
        let p = PiecewiseRate::new(vec![(100.0, 1000.0), (900.0, 100.0)]);
        let mut rng = SimRng::seed_from(21);
        let mut t = 0.0;
        let mut in_burst = 0u64;
        let mut total = 0u64;
        while t < 200_000.0 {
            t = p.next_arrival_after(t, rng.exponential(1.0));
            total += 1;
            if t % 1000.0 < 100.0 {
                in_burst += 1;
            }
        }
        // Expected share: 100 per cycle in the burst, 90 outside → 100/190.
        let share = in_burst as f64 / total as f64;
        assert!((share - 100.0 / 190.0).abs() < 0.02, "burst share {share}");
        // Expected total: 190 per second over 200 s.
        assert!((total as f64 - 38_000.0).abs() < 1500.0, "total {total}");
    }

    #[test]
    #[should_panic]
    fn piecewise_rejects_zero_duration_segment() {
        let _ = PiecewiseRate::new(vec![(0.0, 100.0), (1000.0, 50.0)]);
    }

    #[test]
    #[should_panic]
    fn piecewise_rejects_all_zero_rates() {
        let _ = PiecewiseRate::new(vec![(1000.0, 0.0)]);
    }
}
