//! Statistics accumulators.
//!
//! TPSIM reports response times (tally statistics over observations) and
//! device utilizations and queue lengths (time-weighted statistics); the
//! response-time percentiles come from [`crate::sketch::QuantileSketch`].
//! All accumulators support being reset at the end of a warm-up period.

use crate::time::SimTime;

/// Tally statistic: mean / min / max / variance over discrete observations.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.sum_sq += value * value;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean, or `None` if no observations were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Population variance, or `None` with fewer than two observations.
    pub fn variance(&self) -> Option<f64> {
        if self.count < 2 {
            return None;
        }
        let n = self.count as f64;
        let mean = self.sum / n;
        Some((self.sum_sq / n - mean * mean).max(0.0))
    }

    /// Standard deviation, or `None` with fewer than two observations.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Clears all observations.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

/// Time-weighted statistic for piecewise-constant quantities (queue lengths,
/// number of busy servers, multiprogramming level, ...).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: Option<SimTime>,
    last_value: f64,
    weighted_sum: f64,
    total_time: SimTime,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            last_time: None,
            last_value: 0.0,
            weighted_sum: 0.0,
            total_time: 0.0,
        }
    }

    /// Records that the observed quantity takes value `value` from time `now`
    /// onward.  The previous value is weighted by the elapsed interval.
    pub fn record(&mut self, now: SimTime, value: f64) {
        if let Some(prev) = self.last_time {
            let dt = (now - prev).max(0.0);
            self.weighted_sum += self.last_value * dt;
            self.total_time += dt;
        }
        self.last_time = Some(now);
        self.last_value = value;
    }

    /// Time-weighted mean over the observed interval.
    pub fn mean(&self) -> Option<f64> {
        (self.total_time > 0.0).then(|| self.weighted_sum / self.total_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_basic_moments() {
        let mut t = Tally::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            t.record(v);
        }
        assert_eq!(t.count(), 4);
        assert_eq!(t.mean(), Some(2.5));
        assert_eq!(t.min(), Some(1.0));
        assert_eq!(t.max(), Some(4.0));
        assert!((t.variance().unwrap() - 1.25).abs() < 1e-12);
        assert!((t.std_dev().unwrap() - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn tally_empty_is_none() {
        let t = Tally::new();
        assert_eq!(t.mean(), None);
        assert_eq!(t.min(), None);
        assert_eq!(t.max(), None);
        assert_eq!(t.variance(), None);
    }

    #[test]
    fn tally_reset() {
        let mut t = Tally::new();
        t.record(5.0);
        t.reset();
        assert_eq!(t.count(), 0);
        assert_eq!(t.mean(), None);
    }

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::new();
        tw.record(0.0, 2.0); // value 2 for 0..10
        tw.record(10.0, 4.0); // value 4 for 10..20
        tw.record(20.0, 0.0);
        assert!((tw.mean().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_single_sample_has_no_mean() {
        let mut tw = TimeWeighted::new();
        tw.record(5.0, 1.0);
        assert_eq!(tw.mean(), None);
    }
}
