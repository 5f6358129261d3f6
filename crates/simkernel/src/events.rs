//! Future event list.
//!
//! A deterministic priority queue of `(time, payload)` pairs.  Ties are broken
//! by insertion order (FIFO among simultaneous events), which keeps simulation
//! runs reproducible for a fixed RNG seed regardless of floating-point
//! idiosyncrasies in the queue.
//!
//! # Implementation: an indexed calendar queue
//!
//! The queue is a *calendar queue* (Brown, CACM 1988) instead of a binary
//! heap: pending events are bucketed by time over a sliding window of
//! `bucket_count` buckets of `width` milliseconds each.  Only the bucket the
//! clock currently points at is kept sorted (events are popped from its
//! front); future buckets are plain unsorted `Vec`s with `O(1)` push, and
//! events beyond the window land in an unsorted overflow list.  When the
//! clock leaves a bucket, the next bucket is sorted once and *swapped* into
//! the current position — the drained bucket's allocation is handed back to
//! the calendar, so a run that schedules millions of events recycles a fixed
//! set of buffers instead of paying per-event heap sift costs.
//!
//! When the window is exhausted (or the queue outgrows it), the calendar
//! rebuilds: a new bucket width is derived from the observed inter-event
//! gaps, and all pending events are redistributed.  Every decision depends
//! only on the queue's content, never on wall-clock or addresses, so the pop
//! order is fully deterministic.
//!
//! # Ordering contract
//!
//! Events pop in ascending `(time, seq)` order, with times compared by
//! [`f64::total_cmp`].  Scheduled times must be finite (and, after the
//! clamp against the current clock, non-negative); debug builds assert this.
//! Under `total_cmp` a NaN would order *after* every finite time instead of
//! comparing `Equal` to everything (the silent-`Equal` hazard of
//! `partial_cmp`), so even an unasserted release build keeps a total order
//! and cannot lose or reorder finite events.

use std::cmp::Ordering;
use std::collections::VecDeque;

use crate::time::SimTime;

/// An event scheduled for execution at [`ScheduledEvent::time`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledEvent<P> {
    /// Simulated time at which the event fires.
    pub time: SimTime,
    /// Monotonically increasing sequence number (insertion order).
    pub seq: u64,
    /// Caller-defined payload.
    pub payload: P,
}

/// One pending event inside the calendar.
#[derive(Debug)]
struct Entry<P> {
    time: SimTime,
    seq: u64,
    payload: P,
}

impl<P> Entry<P> {
    /// The total order events pop in: ascending `(time, seq)` with times
    /// compared by [`f64::total_cmp`].
    #[inline]
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Smallest and largest calendar sizes the rebuild heuristic may pick.
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 16;

/// The future event list of the simulation.
pub struct EventQueue<P> {
    /// Start time of bucket 0 of the current window.
    base: SimTime,
    /// Width of one bucket in simulated milliseconds (always `> 0`).
    width: SimTime,
    /// Index of the bucket the clock currently points at.
    cursor: usize,
    /// The current bucket, sorted ascending by `(time, seq)`; events pop from
    /// the front.
    current: VecDeque<Entry<P>>,
    /// Future buckets of the window (unsorted).  `buckets[i]` covers times
    /// with `bucket_index == i`; indices `<= cursor` are empty (their events
    /// live in `current`).
    buckets: Vec<Vec<Entry<P>>>,
    /// Events beyond the window (unsorted), redistributed at the next rebuild.
    overflow: Vec<Entry<P>>,
    /// Total number of pending events.
    len: usize,
    /// Rebuild eagerly once the queue outgrows the calendar.
    resize_at: usize,

    next_seq: u64,
    now: SimTime,
    scheduled_total: u64,
    popped_total: u64,
}

impl<P> Default for EventQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> EventQueue<P> {
    /// Creates an empty event queue with the clock at time 0.
    pub fn new() -> Self {
        Self {
            base: 0.0,
            width: 1.0,
            cursor: 0,
            current: VecDeque::new(),
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            len: 0,
            resize_at: MIN_BUCKETS * 8,
            next_seq: 0,
            now: 0.0,
            scheduled_total: 0,
            popped_total: 0,
        }
    }

    /// Current simulated time (the time of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (diagnostic).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total number of events ever popped (diagnostic; the event count of a
    /// finished run).
    #[inline]
    pub fn popped_total(&self) -> u64 {
        self.popped_total
    }

    /// The window bucket `time` maps to.  Monotone in `time` (IEEE division
    /// and floor preserve ordering), so even boundary rounding can never
    /// order two buckets against the times they hold.
    #[inline]
    fn bucket_index(&self, time: SimTime) -> usize {
        debug_assert!(self.width > 0.0);
        let idx = (time - self.base) / self.width;
        // Times at or before `base` (possible for the current bucket after
        // clamping) and any rounding artifact map to the cursor's bucket.
        if idx < 0.0 {
            0
        } else {
            idx as usize
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// `at` must be finite.  Scheduling in the past is a logic error in the
    /// calling model; the event is clamped to `now` so the simulation still
    /// makes forward progress, and debug builds assert.
    pub fn schedule_at(&mut self, at: SimTime, payload: P) {
        debug_assert!(at.is_finite(), "non-finite event time {at}");
        debug_assert!(
            at + 1e-9 >= self.now,
            "scheduling into the past: at={at} now={}",
            self.now
        );
        // `<=` (not `<`) also normalizes a stray `-0.0` to the clock's `+0.0`
        // so the `total_cmp` order cannot see a sign-of-zero difference.
        let at = if at <= self.now { self.now } else { at };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.len += 1;
        let entry = Entry {
            time: at,
            seq,
            payload,
        };
        let idx = self.bucket_index(at);
        if idx <= self.cursor {
            // Lands in the bucket currently being drained: keep it sorted.
            // New events carry the largest seq, so among equal times the
            // insertion point is the end of the tie run — for the common
            // "schedule at now / a few steps ahead" patterns this degenerates
            // to an append.
            let pos = self
                .current
                .partition_point(|e| e.key_cmp(&entry) == Ordering::Less);
            self.current.insert(pos, entry);
        } else if idx < self.buckets.len() {
            self.buckets[idx].push(entry);
        } else {
            self.overflow.push(entry);
        }
        if self.len >= self.resize_at {
            self.rebuild();
        }
    }

    /// Schedules `payload` to fire `delay` milliseconds from now.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimTime, payload: P) {
        debug_assert!(delay >= 0.0, "negative delay {delay}");
        let now = self.now;
        self.schedule_at(now + delay.max(0.0), payload);
    }

    /// Pops the next event and advances the clock to its time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<P>> {
        if self.len == 0 {
            return None;
        }
        while self.current.is_empty() {
            self.advance_bucket();
        }
        let entry = self.current.pop_front().expect("non-empty current bucket");
        self.len -= 1;
        self.popped_total += 1;
        debug_assert!(entry.time + 1e-9 >= self.now, "time went backwards");
        self.now = entry.time.max(self.now);
        Some(ScheduledEvent {
            time: self.now,
            seq: entry.seq,
            payload: entry.payload,
        })
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(front) = self.current.front() {
            return Some(front.time);
        }
        for bucket in self.buckets.iter().skip(self.cursor + 1) {
            if let Some(min) = bucket.iter().min_by(|a, b| a.key_cmp(b)).map(|e| e.time) {
                return Some(min);
            }
        }
        self.overflow
            .iter()
            .min_by(|a, b| a.key_cmp(b))
            .map(|e| e.time)
    }

    /// Moves the cursor to the next non-empty bucket, sorting it and swapping
    /// it into `current`.  The drained current bucket's allocation is handed
    /// back to the calendar (the `O(1)` bucket-reuse path).  Rebuilds the
    /// calendar when the window is exhausted.  Must only be called while
    /// `len > 0` and `current` is empty.
    fn advance_bucket(&mut self) {
        debug_assert!(self.len > 0 && self.current.is_empty());
        let next = self
            .buckets
            .iter()
            .enumerate()
            .skip(self.cursor + 1)
            .find(|(_, b)| !b.is_empty())
            .map(|(i, _)| i);
        match next {
            Some(idx) => {
                // Recycle the drained current bucket's buffer: an empty
                // VecDeque converts to a Vec in O(1) and keeps its capacity.
                let spare = Vec::from(std::mem::take(&mut self.current));
                let mut bucket = std::mem::replace(&mut self.buckets[idx], spare);
                bucket.sort_unstable_by(Entry::key_cmp);
                self.current = VecDeque::from(bucket);
                self.cursor = idx;
            }
            None => {
                // Window exhausted but events remain: they are all in the
                // overflow list.  Re-plan the calendar around them.
                debug_assert!(!self.overflow.is_empty());
                self.rebuild();
                debug_assert!(
                    !self.current.is_empty() || self.buckets.iter().any(|b| !b.is_empty()),
                    "rebuild must place at least one event inside the window"
                );
                while self.current.is_empty() {
                    self.advance_bucket();
                }
            }
        }
    }

    /// Re-plans the calendar: picks a bucket width from the observed
    /// inter-event gaps, sizes the window to the pending event count and
    /// redistributes every pending event.  `O(len)` plus a bounded-size sort;
    /// called when the window is exhausted or the queue outgrew it.
    fn rebuild(&mut self) {
        let mut pending: Vec<Entry<P>> = Vec::with_capacity(self.len);
        pending.extend(std::mem::take(&mut self.current));
        for bucket in &mut self.buckets {
            pending.append(bucket);
        }
        pending.append(&mut self.overflow);
        debug_assert_eq!(pending.len(), self.len);

        // Sample up to 128 event times to estimate the typical gap between
        // consecutive events; a trimmed mean keeps far-future outliers (end
        // of run, long timeouts) from inflating the width.
        let n = pending.len();
        let step = (n / 128).max(1);
        let mut sample: Vec<SimTime> = pending.iter().step_by(step).map(|e| e.time).collect();
        sample.sort_unstable_by(SimTime::total_cmp);
        let gaps: Vec<SimTime> = sample.windows(2).map(|w| w[1] - w[0]).collect();
        let width = if gaps.is_empty() {
            1.0
        } else {
            let mut gaps = gaps;
            gaps.sort_unstable_by(SimTime::total_cmp);
            // Mean of the central half of the gap distribution.
            let lo = gaps.len() / 4;
            let hi = (3 * gaps.len() / 4).max(lo + 1).min(gaps.len());
            let trimmed: SimTime = gaps[lo..hi].iter().sum::<SimTime>() / (hi - lo) as SimTime;
            // Aim for a couple of events per bucket; `* step` rescales the
            // sampled gap back to the full population.
            (trimmed * step as SimTime * 2.0).clamp(1e-6, 1e6)
        };

        let bucket_count = (n * 2).next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        // Recycle existing bucket buffers, growing the calendar if needed.
        if self.buckets.len() < bucket_count {
            self.buckets.resize_with(bucket_count, Vec::new);
        } else {
            self.buckets.truncate(bucket_count);
        }
        self.width = width;
        // Anchor the window at the earliest pending event (>= `now`), so at
        // least one event is guaranteed to land inside it however far in the
        // future the backlog lives.
        self.base = pending
            .iter()
            .map(|e| e.time)
            .min_by(SimTime::total_cmp)
            .unwrap_or(self.now);
        self.cursor = 0;
        // Once the calendar is at its maximum size, growth can no longer
        // trigger eager rebuilds (each insert would otherwise pay O(len));
        // only window exhaustion re-plans from here on.
        self.resize_at = if bucket_count >= MAX_BUCKETS {
            usize::MAX
        } else {
            (bucket_count * 8).max(MIN_BUCKETS * 8)
        };
        for entry in pending {
            let idx = self.bucket_index(entry.time);
            if idx < self.buckets.len() {
                self.buckets[idx].push(entry);
            } else {
                self.overflow.push(entry);
            }
        }
        // Sort bucket 0 straight into the current position so the cursor
        // always points at a sorted bucket.
        let spare = Vec::from(std::mem::take(&mut self.current));
        let mut first = std::mem::replace(&mut self.buckets[0], spare);
        first.sort_unstable_by(Entry::key_cmp);
        self.current = VecDeque::from(first);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, "c");
        q.schedule_at(1.0, "a");
        q.schedule_at(3.0, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_resolve_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(2.0, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(4.0, ());
        q.schedule_in(2.0, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert!((q.now() - 2.0).abs() < 1e-12);
        q.pop();
        assert!((q.now() - 4.0).abs() < 1e-12);
        assert!(q.pop().is_none());
    }

    #[test]
    fn schedule_in_is_relative_to_current_time() {
        let mut q = EventQueue::new();
        q.schedule_in(10.0, 1);
        q.pop();
        q.schedule_in(5.0, 2);
        let e = q.pop().unwrap();
        assert!((e.time - 15.0).abs() < 1e-12);
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule_at(7.0, ());
        q.schedule_at(3.0, ());
        assert_eq!(q.peek_time(), Some(3.0));
    }

    #[test]
    fn peek_time_sees_past_the_current_bucket() {
        let mut q = EventQueue::new();
        // One event far beyond the initial window: it lives in the overflow
        // list until a rebuild, but peek must still find it.
        q.schedule_at(1_000_000.0, ());
        assert_eq!(q.peek_time(), Some(1_000_000.0));
        let e = q.pop().unwrap();
        assert_eq!(e.time, 1_000_000.0);
    }

    #[test]
    fn counts_scheduled_and_popped_events() {
        let mut q: EventQueue<()> = EventQueue::new();
        for _ in 0..5 {
            q.schedule_in(1.0, ());
        }
        assert_eq!(q.scheduled_total(), 5);
        assert_eq!(q.len(), 5);
        assert!(!q.is_empty());
        while q.pop().is_some() {}
        assert_eq!(q.popped_total(), 5);
        assert_eq!(q.scheduled_total(), 5);
        assert!(q.is_empty());
    }

    #[test]
    fn survives_rebuilds_under_growth_and_drain() {
        // Enough events to force several eager resizes and window-exhaustion
        // rebuilds; pop order must stay fully sorted throughout.
        let mut q = EventQueue::new();
        let mut t = 0.0;
        for i in 0..5_000u64 {
            // A deterministic scatter of near and far times.
            t += ((i * 2_654_435_761) % 97) as f64 * 0.013;
            q.schedule_at(t % 731.0, i);
        }
        let mut last = (f64::NEG_INFINITY, 0u64);
        let mut popped = 0;
        while let Some(e) = q.pop() {
            assert!(
                (last.0, last.1) < (e.time, e.seq),
                "pop order violated: {last:?} then ({}, {})",
                e.time,
                e.seq
            );
            last = (e.time, e.seq);
            popped += 1;
        }
        assert_eq!(popped, 5_000);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        // Hold-model churn: pop one, schedule one a short step ahead — the
        // standard access pattern of the simulation engine.
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.schedule_at(i as f64 * 0.1, i);
        }
        let mut last_time = f64::NEG_INFINITY;
        for i in 0..10_000u64 {
            let e = q.pop().unwrap();
            assert!(e.time >= last_time);
            last_time = e.time;
            q.schedule_in((e.seq % 13) as f64 * 0.37, 64 + i);
        }
    }
}
