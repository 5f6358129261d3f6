//! Tally statistics over discrete observations.
//!
//! TPSIM reports response times as tallies; their percentiles come from
//! [`crate::sketch::QuantileSketch`].  The time-weighted levels (device and
//! CPU utilizations, queue lengths, active transactions) are integrated by
//! the station that holds them, [`crate::resource::Resource`].  Tallies,
//! sketches and stations all reset at the end of a warm-up period.

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
}
