//! Randomized property tests for the simulation kernel invariants.
//!
//! The workspace builds without external crates, so instead of `proptest`
//! these tests drive the same invariants with many deterministic
//! pseudo-random cases generated by the kernel's own seedable RNG.

use simkernel::resource::Acquire;
use simkernel::{EventQueue, Resource, SimRng, Tally};

const CASES: u64 = 64;

/// Events always come out of the queue in non-decreasing time order, and
/// every scheduled event is eventually delivered exactly once at the time it
/// was scheduled for.
#[test]
fn event_queue_is_ordered_and_complete() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0xE0E0 + case);
        let n = 1 + rng.below(200) as usize;
        let times: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 1e6)).collect();
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule_at(*t, i);
        }
        let mut last = f64::NEG_INFINITY;
        let mut seen = vec![false; times.len()];
        while let Some(e) = q.pop() {
            assert!(e.time >= last, "case {case}: out-of-order pop");
            last = e.time;
            assert!(!seen[e.payload], "case {case}: duplicate delivery");
            seen[e.payload] = true;
            assert!(
                (e.time - times[e.payload]).abs() < 1e-9,
                "case {case}: delivered at the wrong time"
            );
        }
        assert!(seen.iter().all(|s| *s), "case {case}: lost an event");
    }
}

/// A resource never has more busy servers than capacity, never loses a
/// token, and serves waiters in FIFO order.
#[test]
fn resource_conserves_tokens() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x5E5E + case);
        let capacity = 1 + rng.below(5) as usize;
        let ops = 1 + rng.below(300) as usize;
        let mut r = Resource::new(capacity);
        let mut now = 0.0;
        let mut next_token = 0u64;
        let mut in_service: u64 = 0;
        let mut expected_queue: std::collections::VecDeque<u64> = Default::default();
        for _ in 0..ops {
            now += 1.0;
            if rng.chance(0.5) {
                let tok = next_token;
                next_token += 1;
                match r.acquire(now, tok) {
                    simkernel::resource::Acquire::Granted => in_service += 1,
                    simkernel::resource::Acquire::Queued => expected_queue.push_back(tok),
                }
            } else if in_service > 0 {
                match r.release(now) {
                    Some(tok) => {
                        // FIFO: must be the oldest waiter.
                        let expect = expected_queue.pop_front();
                        assert_eq!(Some(tok), expect, "case {case}: non-FIFO grant");
                        // busy count unchanged: one leaves, one enters service.
                    }
                    None => in_service -= 1,
                }
            }
            assert!(r.busy() <= capacity, "case {case}");
            assert_eq!(r.busy() as u64, in_service, "case {case}");
            assert_eq!(r.queue_len(), expected_queue.len(), "case {case}");
        }
    }
}

/// A time-weighted level fed its new value after every change: the
/// previous value is weighted by the span since the last record.
#[derive(Default)]
struct TimeWeighted {
    last_time: Option<f64>,
    last_value: f64,
    weighted_sum: f64,
    total_time: f64,
}

impl TimeWeighted {
    fn record(&mut self, now: f64, value: f64) {
        if let Some(prev) = self.last_time {
            let dt = (now - prev).max(0.0);
            self.weighted_sum += self.last_value * dt;
            self.total_time += dt;
        }
        self.last_time = Some(now);
        self.last_value = value;
    }

    fn mean(&self) -> f64 {
        if self.total_time > 0.0 {
            self.weighted_sum / self.total_time
        } else {
            0.0
        }
    }
}

/// The old statistics of a `Resource`: one `TimeWeighted` per level, fed the
/// busy and queue levels after every call, plus the grant count and the
/// summed queue wait.
#[derive(Default)]
struct StationOracle {
    busy: TimeWeighted,
    queue: TimeWeighted,
    grants: u64,
    total_wait: f64,
}

impl StationOracle {
    fn record(&mut self, now: f64, r: &Resource) {
        self.busy.record(now, r.busy() as f64);
        self.queue.record(now, r.queue_len() as f64);
    }

    /// Reads `r`'s statistics at `now` and asserts they equal the old
    /// `Resource::stats` formula bit for bit.
    fn assert_matches(&mut self, r: &mut Resource, now: f64, at: &str) {
        let s = r.stats(now);
        self.record(now, r);
        let avg_wait = if self.grants > 0 {
            self.total_wait / self.grants as f64
        } else {
            0.0
        };
        let want = [
            self.busy.mean().to_bits(),
            (self.busy.mean() / r.capacity() as f64).to_bits(),
            self.queue.mean().to_bits(),
            self.grants,
            avg_wait.to_bits(),
        ];
        let got = [
            s.avg_busy.to_bits(),
            s.utilization.to_bits(),
            s.avg_queue_len.to_bits(),
            s.grants,
            s.avg_wait.to_bits(),
        ];
        assert_eq!(got, want, "{at}");
    }
}

/// A resource's one level integral reproduces the two time-weighted
/// statistics it replaced bit for bit, through acquires, releases, warm-up
/// resets and reads at arbitrary (also repeated) instants.
#[test]
fn resource_statistics_match_two_time_weighted_levels_bit_for_bit() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x57A7 + case);
        let capacity = 1 + rng.below(4) as usize;
        let mut r = Resource::new(capacity);
        let mut oracle = StationOracle::default();
        let mut waiting = std::collections::VecDeque::new();
        let mut now = 0.0;
        for step in 0..1 + rng.below(400) {
            // Zero steps (several calls at one instant) and irregular ones.
            if rng.below(4) != 0 {
                now += rng.exponential(1.7);
            }
            match rng.below(10) {
                0..=4 => match r.acquire(now, step) {
                    Acquire::Granted => oracle.grants += 1,
                    Acquire::Queued => waiting.push_back(now),
                },
                5..=7 if r.busy() > 0 => {
                    if r.release(now).is_some() {
                        oracle.grants += 1;
                        oracle.total_wait += now - waiting.pop_front().unwrap();
                    }
                }
                8 => {
                    r.reset_stats(now);
                    oracle = StationOracle::default();
                }
                _ => {
                    oracle.assert_matches(&mut r, now, &format!("case {case}, step {step}"));
                    continue;
                }
            }
            oracle.record(now, &r);
        }
        oracle.assert_matches(&mut r, now + 3.0, &format!("case {case}, final read"));
    }
}

/// Tally mean always lies between min and max.
#[test]
fn tally_mean_bounded() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x7A11 + case);
        let n = 1 + rng.below(500) as usize;
        let mut t = Tally::new();
        for _ in 0..n {
            t.record(rng.range_f64(-1e9, 1e9));
        }
        let mean = t.mean().unwrap();
        assert!(mean >= t.min().unwrap() - 1e-6, "case {case}");
        assert!(mean <= t.max().unwrap() + 1e-6, "case {case}");
        assert_eq!(t.count(), n as u64, "case {case}");
    }
}

/// A resource's time-average levels stay within their physical bounds
/// through random acquires, releases, warm-up resets and reads: between no
/// and all servers busy, and a queue no shorter than empty.  The busy area
/// and the span are summed separately, so a station busy at capacity
/// throughout can read a few ulps above it; the ceiling allows for that.
#[test]
fn resource_levels_stay_within_bounds() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x1111 + case);
        let capacity = 1 + rng.below(6) as usize;
        let ceiling = capacity as f64 * (1.0 + 1e-12);
        let mut r = Resource::new(capacity);
        let mut now = 0.0;
        for step in 0..1 + rng.below(400) {
            if rng.below(3) != 0 {
                now += rng.exponential(2.3);
            }
            match rng.below(10) {
                0..=4 => {
                    r.acquire(now, step);
                }
                5..=7 if r.busy() > 0 => {
                    let _ = r.release(now);
                }
                8 => r.reset_stats(now),
                _ => {
                    let s = r.stats(now);
                    let at = format!("case {case}, step {step}");
                    assert!((0.0..=ceiling).contains(&s.avg_busy), "{at}: {s:?}");
                    assert!((0.0..=1.0 + 1e-12).contains(&s.utilization), "{at}: {s:?}");
                    assert!(s.avg_queue_len >= 0.0, "{at}: {s:?}");
                }
            }
        }
    }
}

/// Exponential samples are non-negative and the empirical mean is within a
/// loose tolerance of the requested mean.
#[test]
fn exponential_sampling_sane() {
    for case in 0..CASES {
        let mut seeder = SimRng::seed_from(0xEE00 + case);
        let seed = seeder.next_u64();
        let mean = 0.1 + seeder.range_f64(0.0, 99.9);
        let mut rng = SimRng::seed_from(seed);
        let n = 4000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.exponential(mean);
            assert!(x >= 0.0, "case {case}");
            sum += x;
        }
        let observed = sum / n as f64;
        assert!(
            observed > mean * 0.8 && observed < mean * 1.25,
            "case {case}: observed {observed} vs mean {mean}"
        );
    }
}
