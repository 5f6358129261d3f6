//! FCFS multi-server resources (stations).
//!
//! CPUs, disk controllers, disk servers and each computing module's MPL
//! (its active transactions, with the input queue as the station's queue)
//! are all modelled as a pool of identical servers with a single FIFO
//! queue.  The resource tracks the time-average busy level and queue length
//! so device bottlenecks (the central mechanism behind most results of the
//! paper) and admission queueing can be reported.
//!
//! The resource is *token based*: callers hand an opaque `u64` token to
//! [`Resource::acquire`]; when capacity is available the call returns
//! `Granted`, otherwise the token is queued and will be returned by a later
//! [`Resource::release`] call, at which point the caller schedules the token's
//! continuation.
//!
//! Both levels change only at an acquire or a release, so one integral
//! serves both: before each level change the resource adds the busy and
//! queue levels held since the previous one, times the elapsed span, to
//! their areas.  The means are `busy_area / span` and `queue_area / span`.

use std::collections::VecDeque;

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
    /// Time-average number of busy servers (0..=capacity).
    pub avg_busy: f64,
    /// Average fraction of servers busy (0..=1): `avg_busy / capacity`.
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
    capacity: usize,
    busy: usize,
    queue: VecDeque<(u64, SimTime)>,
    /// Time of the last level change, statistics reset or read; `None`
    /// before the first.
    last: Option<SimTime>,
    /// Integral of the busy level since the reset.
    busy_area: f64,
    /// Integral of the queue length since the reset.
    queue_area: f64,
    /// Time integrated since the reset.
    span: SimTime,
    grants: u64,
    total_wait: SimTime,
}

impl Resource {
    /// Creates a resource with `capacity >= 1` servers.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "resource capacity must be >= 1");
        Self {
            capacity,
            busy: 0,
            queue: VecDeque::new(),
            last: None,
            busy_area: 0.0,
            queue_area: 0.0,
            span: 0.0,
            grants: 0,
            total_wait: 0.0,
        }
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
        self.integrate(now);
        if self.busy < self.capacity {
            self.busy += 1;
            self.grants += 1;
            Acquire::Granted
        } else {
            self.queue.push_back((token, now));
            Acquire::Queued
        }
    }

    /// Releases one server at time `now`.
    ///
    /// If a token was waiting it is granted the freed server and returned; the
    /// caller must schedule its continuation (typically at `now`).
    pub fn release(&mut self, now: SimTime) -> Option<u64> {
        assert!(self.busy > 0, "release on idle resource");
        self.integrate(now);
        if let Some((token, enqueued_at)) = self.queue.pop_front() {
            // Hand the server directly to the next waiter: busy count unchanged.
            self.grants += 1;
            self.total_wait += now - enqueued_at;
            Some(token)
        } else {
            self.busy -= 1;
            None
        }
    }

    /// Adds the current busy and queue levels, held since the last call, to
    /// their integrals up to `now`.  Called before every level change.
    #[inline]
    fn integrate(&mut self, now: SimTime) {
        if let Some(prev) = self.last {
            let dt = (now - prev).max(0.0);
            self.busy_area += self.busy as f64 * dt;
            self.queue_area += self.queue.len() as f64 * dt;
            self.span += dt;
        }
        self.last = Some(now);
    }

    /// Resets the statistics (e.g. at the end of the warm-up period) without
    /// disturbing the dynamic state.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.last = Some(now);
        self.busy_area = 0.0;
        self.queue_area = 0.0;
        self.span = 0.0;
        self.grants = 0;
        self.total_wait = 0.0;
    }

    /// Finalizes and returns the statistics at time `now`.
    pub fn stats(&mut self, now: SimTime) -> ResourceStats {
        self.integrate(now);
        let mean = |area: f64| {
            if self.span > 0.0 {
                area / self.span
            } else {
                0.0
            }
        };
        let avg_busy = mean(self.busy_area);
        ResourceStats {
            avg_busy,
            utilization: avg_busy / self.capacity as f64,
            avg_queue_len: mean(self.queue_area),
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
        let mut r = Resource::new(2);
        assert_eq!(r.acquire(0.0, 1), Acquire::Granted);
        assert_eq!(r.acquire(0.0, 2), Acquire::Granted);
        assert_eq!(r.acquire(0.0, 3), Acquire::Queued);
        assert_eq!(r.busy(), 2);
        assert_eq!(r.queue_len(), 1);
    }

    #[test]
    fn release_hands_server_to_waiter_fifo() {
        let mut r = Resource::new(1);
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
        let mut r = Resource::new(1);
        let _ = r.release(0.0);
    }

    #[test]
    fn utilization_is_time_weighted() {
        let mut r = Resource::new(1);
        r.acquire(0.0, 1);
        assert_eq!(r.release(5.0), None); // busy 0..5
                                          // idle 5..10
        let s = r.stats(10.0);
        assert!((s.utilization - 0.5).abs() < 1e-9, "util {}", s.utilization);
        assert_eq!(s.grants, 1);
    }

    #[test]
    fn average_wait_is_tracked() {
        let mut r = Resource::new(1);
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
        let mut r = Resource::new(1);
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
        let mut r = Resource::new(1);
        r.acquire(0.0, 1);
        r.acquire(0.0, 2); // queue=1 from t=0
        let _ = r.release(10.0); // token 2 served, queue=0 afterwards
        let _ = r.release(20.0);
        let s = r.stats(20.0);
        assert!((s.avg_queue_len - 0.5).abs() < 1e-9, "{}", s.avg_queue_len);
    }
}
