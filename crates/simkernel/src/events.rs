//! Future event list.
//!
//! A deterministic priority queue of `(time, payload)` pairs.  Ties are broken
//! by insertion order (FIFO among simultaneous events), which keeps simulation
//! runs reproducible for a fixed RNG seed regardless of floating-point
//! idiosyncrasies in the queue.
//!
//! # Implementation: a two-tier queue sized to the engine's traffic
//!
//! The engine keeps few events pending (31–37 on average and at most 84 on
//! the simulator benchmark's workloads, 92 on average on the saturated
//! 64-node fig5.x point), and a new event usually lands a handful of places
//! from the front (median 4–6).  The queue is built for that shape:
//!
//! * the **near tier** is a `Vec` of at most `NEAR_CAP` (128) of the soonest
//!   events, sorted with the next event *last*, so a pop is `Vec::pop` and an
//!   insert scans linearly from the soonest end;
//! * the **far tier** is a binary heap holding only events later than every
//!   near event.  It is touched only when the near tier overflows (its latest
//!   event moves to the heap) or runs dry (it refills with the `REFILL` (64)
//!   soonest far events), so it stays empty unless the backlog outgrows the
//!   near tier.
//!
//! Every comparison is on a `u64` time key computed once per event
//! (`time_key`), whose unsigned order is [`f64::total_cmp`]'s order.  A new
//! event's sequence number is larger than every pending one, so the near
//! tier's insert never compares sequence numbers: among equal keys the new
//! event simply goes behind the ones already there.
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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// Most events the near tier holds: above the largest backlog of the
/// simulator benchmark's workloads, so their events never reach the far
/// tier.
const NEAR_CAP: usize = 128;

/// Events an empty near tier takes from the far tier at once.
const REFILL: usize = 64;

/// The sign bit of an IEEE double.
const SIGN: u64 = 1 << 63;

/// Maps `time` to a key whose unsigned order is [`f64::total_cmp`]'s order:
/// non-negative values get the sign bit set, negative ones are bit-inverted.
#[inline]
fn time_key(time: SimTime) -> u64 {
    let bits = time.to_bits();
    if bits & SIGN == 0 {
        bits | SIGN
    } else {
        !bits
    }
}

/// Inverse of [`time_key`], bit-exact.
#[inline]
fn key_time(key: u64) -> SimTime {
    SimTime::from_bits(if key & SIGN != 0 { key & !SIGN } else { !key })
}

/// One pending event.
struct Entry<P> {
    key: u64,
    seq: u64,
    payload: P,
}

// Entries order by `(key, seq)`, the order events pop in; `seq` is unique, so
// the payload never takes part.
impl<P> PartialEq for Entry<P> {
    fn eq(&self, other: &Self) -> bool {
        (self.key, self.seq) == (other.key, other.seq)
    }
}

impl<P> Eq for Entry<P> {}

impl<P> PartialOrd for Entry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<P> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, self.seq).cmp(&(other.key, other.seq))
    }
}

/// The future event list of the simulation.
pub struct EventQueue<P> {
    /// The soonest pending events, sorted descending by `(key, seq)`: the next
    /// event is last.  Empty only when `far` is empty too.
    near: Vec<Entry<P>>,
    /// Pending events later than every near event (min-heap).
    far: BinaryHeap<Reverse<Entry<P>>>,
    next_seq: u64,
    now: SimTime,
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
            near: Vec::new(),
            far: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
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
        self.near.len() + self.far.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.near.is_empty()
    }

    /// Total number of events ever popped (diagnostic; the event count of a
    /// finished run).
    #[inline]
    pub fn popped_total(&self) -> u64 {
        self.popped_total
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
        let entry = Entry {
            key: time_key(at),
            seq: self.next_seq,
            payload,
        };
        self.next_seq += 1;
        // With a non-empty far tier, an event not earlier than the latest near
        // event may tie with or follow far events, so it belongs there.
        if !self.far.is_empty() && self.near.first().is_some_and(|l| entry.key >= l.key) {
            self.far.push(Reverse(entry));
            return;
        }
        // Equal keys pop oldest first and the new event is the youngest, so it
        // goes below the index of every equal key: they pop before it.
        let pos = self
            .near
            .iter()
            .rposition(|e| e.key > entry.key)
            .map_or(0, |i| i + 1);
        self.near.insert(pos, entry);
        if self.near.len() > NEAR_CAP {
            let latest = self.near.remove(0);
            self.far.push(Reverse(latest));
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
        let entry = self.near.pop()?;
        if self.near.is_empty() {
            let far = &mut self.far;
            self.near
                .extend(std::iter::from_fn(|| far.pop().map(|Reverse(e)| e)).take(REFILL));
            self.near.reverse();
        }
        self.popped_total += 1;
        let time = key_time(entry.key);
        debug_assert!(time + 1e-9 >= self.now, "time went backwards");
        self.now = time.max(self.now);
        Some(ScheduledEvent {
            time: self.now,
            seq: entry.seq,
            payload: entry.payload,
        })
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
    fn counts_scheduled_and_popped_events() {
        let mut q: EventQueue<()> = EventQueue::new();
        for _ in 0..5 {
            q.schedule_in(1.0, ());
        }
        assert_eq!(q.len(), 5);
        assert!(!q.is_empty());
        while q.pop().is_some() {}
        assert_eq!(q.popped_total(), 5);
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn time_key_orders_like_total_cmp_and_round_trips() {
        let subnormal = f64::from_bits(1);
        assert!(subnormal > 0.0 && !subnormal.is_normal());
        let times = [0.0, subnormal, 1.0, 1e300, f64::MAX, f64::INFINITY];
        for &a in &times {
            assert_eq!(key_time(time_key(a)).to_bits(), a.to_bits());
            for &b in &times {
                assert_eq!(time_key(a).cmp(&time_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn stays_ordered_through_growth_past_near_cap_and_drain() {
        // A deterministic scatter of near and far times, enough to overflow
        // the near tier many times and refill it from the far tier while
        // draining; pop order must stay fully sorted throughout.
        let mut q = EventQueue::new();
        let n = 40 * NEAR_CAP as u64;
        let mut t = 0.0;
        for i in 0..n {
            t += ((i * 2_654_435_761) % 97) as f64 * 0.013;
            q.schedule_at(t % 731.0, i);
        }
        assert_eq!(q.len(), n as usize);
        assert!(!q.far.is_empty() && q.near.len() == NEAR_CAP);
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
        assert_eq!(popped, n);
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
