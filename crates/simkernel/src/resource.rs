//! FCFS multi-server resources (stations).
//!
//! CPUs, disk controllers and disk servers are all modelled as a pool of
//! identical servers with a single FIFO queue.  The resource tracks
//! time-weighted utilization and queue length so device bottlenecks (the
//! central mechanism behind most results of the paper) can be reported.
//!
//! The resource is *token based*: callers hand an opaque `u64` token to
//! [`Resource::acquire`]; when capacity is available the call returns
//! `Granted`, otherwise the token is queued and will be returned by a later
//! [`Resource::release`] call, at which point the caller schedules the token's
//! continuation.

use std::collections::VecDeque;

use crate::stats::TimeWeighted;
use crate::time::SimTime;

/// Result of an [`Resource::acquire`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// A server was free; the caller proceeds immediately.
    Granted,
    /// All servers busy; the token was appended to the FIFO queue.
    Queued,
}

/// Aggregate statistics of a resource over the measured interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceStats {
    /// Average fraction of servers busy (0..=1).
    pub utilization: f64,
    /// Time-average number of queued (not yet served) tokens.
    pub avg_queue_len: f64,
    /// Total number of grants (service starts).
    pub grants: u64,
    /// Average wait in the queue per grant, in ms.
    pub avg_wait: SimTime,
}

/// A pool of `capacity` identical servers with a FIFO queue.
#[derive(Debug, Clone)]
pub struct Resource {
    name: String,
    capacity: usize,
    busy: usize,
    queue: VecDeque<(u64, SimTime)>,
    busy_stat: TimeWeighted,
    queue_stat: TimeWeighted,
    grants: u64,
    total_wait: SimTime,
}

impl Resource {
    /// Creates a resource with `capacity >= 1` servers.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity >= 1, "resource capacity must be >= 1");
        Self {
            name: name.into(),
            capacity,
            busy: 0,
            queue: VecDeque::new(),
            busy_stat: TimeWeighted::new(),
            queue_stat: TimeWeighted::new(),
            grants: 0,
            total_wait: 0.0,
        }
    }

    /// The resource's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of servers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently busy servers.
    pub fn busy(&self) -> usize {
        self.busy
    }

    /// Number of queued tokens.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Requests one server for `token` at time `now`.
    pub fn acquire(&mut self, now: SimTime, token: u64) -> Acquire {
        let outcome = if self.busy < self.capacity {
            self.busy += 1;
            self.grants += 1;
            Acquire::Granted
        } else {
            self.queue.push_back((token, now));
            Acquire::Queued
        };
        // Record the *new* occupancy: the time-weighted statistics weight the
        // previously recorded level up to `now` and this level from `now` on.
        self.sample(now);
        outcome
    }

    /// Releases one server at time `now`.
    ///
    /// If a token was waiting it is granted the freed server and returned; the
    /// caller must schedule its continuation (typically at `now`).
    pub fn release(&mut self, now: SimTime) -> Option<u64> {
        assert!(self.busy > 0, "release on idle resource {}", self.name);
        let granted = if let Some((token, enqueued_at)) = self.queue.pop_front() {
            // Hand the server directly to the next waiter: busy count unchanged.
            self.grants += 1;
            self.total_wait += now - enqueued_at;
            Some(token)
        } else {
            self.busy -= 1;
            None
        };
        self.sample(now);
        granted
    }

    /// Records the current busy/queue levels into the time-weighted statistics.
    fn sample(&mut self, now: SimTime) {
        self.busy_stat.record(now, self.busy as f64);
        self.queue_stat.record(now, self.queue.len() as f64);
    }

    /// Resets the statistics (e.g. at the end of the warm-up period) without
    /// disturbing the dynamic state.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.busy_stat = TimeWeighted::new();
        self.queue_stat = TimeWeighted::new();
        self.busy_stat.record(now, self.busy as f64);
        self.queue_stat.record(now, self.queue.len() as f64);
        self.grants = 0;
        self.total_wait = 0.0;
    }

    /// Finalizes and returns the statistics at time `now`.
    pub fn stats(&mut self, now: SimTime) -> ResourceStats {
        self.sample(now);
        let avg_busy = self.busy_stat.mean().unwrap_or(0.0);
        ResourceStats {
            utilization: avg_busy / self.capacity as f64,
            avg_queue_len: self.queue_stat.mean().unwrap_or(0.0),
            grants: self.grants,
            avg_wait: if self.grants > 0 {
                self.total_wait / self.grants as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_up_to_capacity_then_queues() {
        let mut r = Resource::new("cpu", 2);
        assert_eq!(r.acquire(0.0, 1), Acquire::Granted);
        assert_eq!(r.acquire(0.0, 2), Acquire::Granted);
        assert_eq!(r.acquire(0.0, 3), Acquire::Queued);
        assert_eq!(r.busy(), 2);
        assert_eq!(r.queue_len(), 1);
    }

    #[test]
    fn release_hands_server_to_waiter_fifo() {
        let mut r = Resource::new("disk", 1);
        assert_eq!(r.acquire(0.0, 10), Acquire::Granted);
        assert_eq!(r.acquire(1.0, 11), Acquire::Queued);
        assert_eq!(r.acquire(2.0, 12), Acquire::Queued);
        assert_eq!(r.release(5.0), Some(11));
        assert_eq!(r.release(9.0), Some(12));
        assert_eq!(r.release(12.0), None);
        assert_eq!(r.busy(), 0);
    }

    #[test]
    #[should_panic]
    fn release_on_idle_resource_panics() {
        let mut r = Resource::new("x", 1);
        let _ = r.release(0.0);
    }

    #[test]
    fn utilization_is_time_weighted() {
        let mut r = Resource::new("cpu", 1);
        r.acquire(0.0, 1);
        assert_eq!(r.release(5.0), None); // busy 0..5
                                          // idle 5..10
        let s = r.stats(10.0);
        assert!((s.utilization - 0.5).abs() < 1e-9, "util {}", s.utilization);
        assert_eq!(s.grants, 1);
    }

    #[test]
    fn average_wait_is_tracked() {
        let mut r = Resource::new("cpu", 1);
        r.acquire(0.0, 1);
        r.acquire(0.0, 2); // waits 0..4
        assert_eq!(r.release(4.0), Some(2));
        assert_eq!(r.release(6.0), None);
        let s = r.stats(6.0);
        assert_eq!(s.grants, 2);
        assert!((s.avg_wait - 2.0).abs() < 1e-9);
    }

    #[test]
    fn reset_stats_clears_counts_but_keeps_state() {
        let mut r = Resource::new("cpu", 1);
        r.acquire(0.0, 1);
        r.reset_stats(10.0);
        // still busy after reset
        assert_eq!(r.busy(), 1);
        let s = r.stats(20.0);
        assert!((s.utilization - 1.0).abs() < 1e-9);
        assert_eq!(s.grants, 0);
    }

    #[test]
    fn queue_length_statistic() {
        let mut r = Resource::new("cpu", 1);
        r.acquire(0.0, 1);
        r.acquire(0.0, 2); // queue=1 from t=0
        let _ = r.release(10.0); // token 2 served, queue=0 afterwards
        let _ = r.release(20.0);
        let s = r.stats(20.0);
        assert!((s.avg_queue_len - 0.5).abs() < 1e-9, "{}", s.avg_queue_len);
    }
}
