//! Deterministic, constant-memory quantile sketch.
//!
//! Response-time percentiles (p50 to p999 over hundreds of thousands of
//! completions) cannot afford a per-sample vector.  This module provides a
//! KLL/MRL-style compactor sketch with two properties the rest of the
//! simulator depends on:
//!
//! * **Deterministic.**  Classic KLL flips a coin per compaction; here the
//!   kept parity alternates per level instead, so the same insertion sequence
//!   always yields the same sketch (and the same report bytes).  No RNG, no
//!   wall clock, no hash-map iteration.
//! * **Self-certified error.**  Every compaction of level `l` can shift any
//!   rank by at most `2^l` (the weight of the discarded items), so the sketch
//!   maintains a running upper bound on its own absolute rank error.  Tests
//!   assert the observed error against this bound — the certificate ships
//!   with the answer.  Until the first compaction (fewer than `k` samples)
//!   the bound is 0 and every answer is the exact order statistic.
//!
//! Memory is `O(k · log(n/k))` for `n` insertions — effectively constant for
//! any run this simulator performs (default `k = 4096` keeps a one-million
//! sample stream under ~9 levels).

/// Default per-level capacity.  At simulator scales (10⁴–10⁶ completions per
/// run) this keeps the certified rank error well below one part in a
/// thousand, so p999 is trustworthy.
pub const DEFAULT_SKETCH_CAPACITY: usize = 4096;

/// A deterministic quantile sketch over `f64` samples.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// Per-level capacity; a level compacts when it reaches this size.
    k: usize,
    /// `levels[l]` holds items of weight `2^l`, unsorted between compactions.
    levels: Vec<Vec<f64>>,
    /// Which half a compaction of level `l` keeps next; alternates per level.
    keep_odd: Vec<bool>,
    /// Total number of inserted samples.
    count: u64,
    /// Exact minimum and maximum (tracked outside the compactors).
    min: f64,
    max: f64,
    /// Certified upper bound on the absolute rank error of any quantile
    /// query: the sum of `2^l` over all compactions performed at level `l`.
    rank_error_bound: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(DEFAULT_SKETCH_CAPACITY)
    }
}

impl QuantileSketch {
    /// Creates a sketch with per-level capacity `k` (clamped to at least 4
    /// and rounded down to an even number so compactions pair items cleanly).
    pub fn new(k: usize) -> Self {
        let k = (k.max(4)) & !1;
        Self {
            k,
            levels: vec![Vec::new()],
            keep_odd: vec![false],
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            rank_error_bound: 0,
        }
    }

    /// Number of samples inserted.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum, or `None` for an empty sketch.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, or `None` for an empty sketch.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Certified upper bound on the absolute rank error of any `quantile`
    /// answer.  `0` means the sketch is still exact (no compaction happened).
    pub fn rank_error_bound(&self) -> u64 {
        self.rank_error_bound
    }

    /// Inserts one sample.
    pub fn insert(&mut self, value: f64) {
        debug_assert!(!value.is_nan(), "sketch samples must not be NaN");
        self.count += 1;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.levels[0].push(value);
        if self.levels[0].len() >= self.k {
            self.compact(0);
        }
    }

    /// Forgets all samples (used at warm-up end) but keeps the capacity.
    pub fn reset(&mut self) {
        self.levels.clear();
        self.levels.push(Vec::new());
        self.keep_odd.clear();
        self.keep_odd.push(false);
        self.count = 0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
        self.rank_error_bound = 0;
    }

    /// Value at quantile `q` in `[0, 1]`: the stored value whose cumulative
    /// weight first reaches rank `ceil(q · count)`.  Returns `None` for an
    /// empty sketch.  `q <= 0` yields the exact minimum, `q >= 1` the exact
    /// maximum.  Allocates one buffer of [`QuantileSketch::stored_items`]
    /// entries per call.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let mut items: Vec<(f64, u64)> = Vec::with_capacity(self.stored_items());
        for (l, level) in self.levels.iter().enumerate() {
            let weight = 1u64 << l;
            items.extend(level.iter().map(|&v| (v, weight)));
        }
        // Items that `total_cmp` calls equal are bit-identical, so however an
        // unstable sort orders them (and their weights), the cumulative
        // weight first reaches the target inside the same run of equal
        // values: the answer is the one a stable sort gives.
        items.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (v, w) in items {
            cum += w;
            if cum >= target {
                return Some(v);
            }
        }
        Some(self.max)
    }

    /// Compacts level `l`: sorts it, promotes every other item (weight
    /// doubling) to level `l + 1`, and discards the rest.  Which half
    /// survives alternates deterministically per level.  Cascades upward if
    /// the next level fills.  Allocates nothing once the levels have reached
    /// their working size: the sort is in place (an unstable sort puts items
    /// in the same order as a stable one, because items that `total_cmp`
    /// calls equal are bit-identical), and promoted items go straight into
    /// the next level.
    fn compact(&mut self, l: usize) {
        self.levels[l].sort_unstable_by(f64::total_cmp);
        let paired = self.levels[l].len() & !1;
        if paired == 0 {
            return;
        }
        let keep_odd = self.keep_odd[l];
        self.keep_odd[l] = !keep_odd;
        if self.levels.len() == l + 1 {
            self.levels.push(Vec::new());
            self.keep_odd.push(false);
        }
        let (lower, upper) = self.levels.split_at_mut(l + 1);
        let (level, next) = (&mut lower[l], &mut upper[0]);
        next.extend(level[usize::from(keep_odd)..paired].iter().step_by(2));
        // An odd trailing item stays at this level with its weight intact.
        level.drain(..paired);
        self.rank_error_bound += 1u64 << l;
        if self.levels[l + 1].len() >= self.k {
            self.compact(l + 1);
        }
    }

    /// Total stored items across all levels (bounded by `k · levels`).
    pub fn stored_items(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// Exact oracle: absolute rank error of answering `got` for quantile `q`
    /// over the (sorted) sample vector.
    fn rank_error(sorted: &[f64], q: f64, got: f64) -> u64 {
        let n = sorted.len() as u64;
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let below = sorted.iter().filter(|&&v| v < got).count() as u64;
        let at_or_below = sorted.iter().filter(|&&v| v <= got).count() as u64;
        // `got` occupies ranks (below, at_or_below]; error is the distance
        // from the target rank to that interval.
        if target <= below {
            below + 1 - target
        } else {
            target.saturating_sub(at_or_below)
        }
    }

    fn check_against_oracle(samples: &[f64], k: usize) {
        let mut sketch = QuantileSketch::new(k);
        for &v in samples {
            sketch.insert(v);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(sketch.count(), samples.len() as u64);
        assert_eq!(sketch.min(), sorted.first().copied());
        assert_eq!(sketch.max(), sorted.last().copied());
        let bound = sketch.rank_error_bound();
        // The certificate must stay useful: well under half the stream.
        assert!(
            bound < samples.len() as u64 / 2,
            "bound {bound} too loose for n={}",
            samples.len()
        );
        for q in [0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999] {
            let got = sketch.quantile(q).unwrap();
            let err = rank_error(&sorted, q, got);
            assert!(
                err <= bound,
                "q={q}: rank error {err} exceeds certified bound {bound} (n={})",
                samples.len()
            );
        }
    }

    #[test]
    fn empty_sketch_answers_none() {
        let s = QuantileSketch::new(64);
        assert_eq!(s.count(), 0);
        assert!(s.quantile(0.5).is_none());
        assert!(s.min().is_none());
        assert!(s.max().is_none());
        assert_eq!(s.rank_error_bound(), 0);
    }

    #[test]
    fn small_stream_is_exact() {
        let mut s = QuantileSketch::new(64);
        for v in [5.0, 1.0, 9.0, 3.0, 7.0] {
            s.insert(v);
        }
        // No compaction happened: every quantile is exact.
        assert_eq!(s.rank_error_bound(), 0);
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(0.2), Some(1.0));
        assert_eq!(s.quantile(0.5), Some(5.0));
        assert_eq!(s.quantile(0.8), Some(7.0));
        assert_eq!(s.quantile(1.0), Some(9.0));
    }

    #[test]
    fn uniform_stream_respects_certified_bound() {
        let mut rng = SimRng::seed_from(11);
        let samples: Vec<f64> = (0..10_000).map(|_| rng.unit() * 500.0).collect();
        check_against_oracle(&samples, 64);
        check_against_oracle(&samples, 256);
    }

    #[test]
    fn exponential_tail_respects_certified_bound() {
        let mut rng = SimRng::seed_from(12);
        let samples: Vec<f64> = (0..20_000).map(|_| rng.exponential(40.0)).collect();
        check_against_oracle(&samples, 32);
        check_against_oracle(&samples, 512);
    }

    #[test]
    fn tie_heavy_stream_respects_certified_bound() {
        // Latencies quantized to a handful of values — massive ties.
        let mut rng = SimRng::seed_from(13);
        let samples: Vec<f64> = (0..15_000).map(|_| (rng.below(7) as f64) * 12.5).collect();
        check_against_oracle(&samples, 64);
    }

    #[test]
    fn sorted_and_reverse_sorted_streams_respect_bound() {
        let ascending: Vec<f64> = (0..12_000).map(|i| i as f64).collect();
        check_against_oracle(&ascending, 64);
        let descending: Vec<f64> = (0..12_000).map(|i| (12_000 - i) as f64).collect();
        check_against_oracle(&descending, 64);
    }

    #[test]
    fn adversarial_spike_stream_respects_bound() {
        // Bimodal with a rare far tail: the shape of an overloaded system.
        let mut rng = SimRng::seed_from(14);
        let samples: Vec<f64> = (0..18_000)
            .map(|_| {
                if rng.chance(0.001) {
                    10_000.0 + rng.unit()
                } else if rng.chance(0.3) {
                    100.0 + rng.unit() * 5.0
                } else {
                    10.0 + rng.unit() * 2.0
                }
            })
            .collect();
        check_against_oracle(&samples, 32);
    }

    #[test]
    fn determinism_same_stream_same_sketch() {
        let mut rng = SimRng::seed_from(15);
        let samples: Vec<f64> = (0..9_000).map(|_| rng.exponential(3.0)).collect();
        let mut a = QuantileSketch::new(16);
        let mut b = QuantileSketch::new(16);
        for &v in &samples {
            a.insert(v);
            b.insert(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.quantile(q), b.quantile(q));
        }
        assert_eq!(a.rank_error_bound(), b.rank_error_bound());
        assert_eq!(a.stored_items(), b.stored_items());
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = QuantileSketch::new(8);
        for i in 0..1000 {
            s.insert(i as f64);
        }
        assert!(s.rank_error_bound() > 0);
        s.reset();
        assert_eq!(s.count(), 0);
        assert_eq!(s.stored_items(), 0);
        assert_eq!(s.rank_error_bound(), 0);
        assert!(s.quantile(0.5).is_none());
        s.insert(7.0);
        assert_eq!(s.quantile(0.5), Some(7.0));
    }

    #[test]
    fn default_capacity_is_near_exact_at_run_scale() {
        // A typical fig10.x point completes a few tens of thousands of
        // transactions; the default capacity must keep p999 trustworthy.
        let mut rng = SimRng::seed_from(18);
        let n = 50_000u64;
        let mut s = QuantileSketch::default();
        for _ in 0..n {
            s.insert(rng.exponential(80.0));
        }
        // Certified error stays under 0.1% of the stream: p999 is meaningful.
        assert!(
            s.rank_error_bound() < n / 1000,
            "bound {} too large for n={n}",
            s.rank_error_bound()
        );
    }
}
