//! Future event list.
//!
//! A deterministic priority queue of `(time, payload)` pairs.  Ties are broken
//! by insertion order (FIFO among simultaneous events), which keeps simulation
//! runs reproducible for a fixed RNG seed regardless of floating-point
//! idiosyncrasies in the queue.
//!
//! # Implementation: a two-tier queue sized to the engine's traffic
//!
//! The engine keeps few events pending (30–36 on average and at most 84 on
//! the simulator benchmark's workloads; 91 on average and at most 182 on the
//! saturated 64-node fig5.x point of the profile suite), and a new event
//! lands a mean of 7.5–9.5 places from the soonest end.  The queue is built
//! for that shape:
//!
//! * the **near tier** is a `Vec` of 16-byte `(key, payload)` entries (for an
//!   8-byte payload), sorted by key in descending order with equal keys
//!   youngest first, so the next event is last and a pop is `Vec::pop`.  An
//!   insert walks back from the soonest end in one pass, moving each entry
//!   that pops before the new one up a slot, and writes the new entry into
//!   the gap;
//! * the **far tier** is a binary heap of `(key, seq, payload)` entries.  The
//!   `seq` is a counter drawn when an event enters the far tier, so equal
//!   keys there pop first in, first out.
//!
//! Every near key is *strictly* below every far key, so no key is ever split
//! between the tiers and the near tier needs no sequence numbers: a new
//! event is younger than every pending event of its key and goes in front
//! of them.  An event later than the near tier's latest key goes straight to
//! the far tier while that tier is non-empty.  The tiers exchange whole key
//! groups only: when the near tier grows past `NEAR_CAP` (128) it spills its
//! latest key group to the far tier, oldest first (unless that group is the
//! whole tier, as when more than `NEAR_CAP` events share one instant), and
//! when it runs dry it refills with the `REFILL` (64) soonest far events plus
//! the rest of the last one's key group.  On the benchmark's workloads the
//! far tier stays empty; the 64-node point sends 14% of its events there.
//!
//! Every comparison is on a `u64` time key computed once per event
//! (`time_key`), whose unsigned order is [`f64::total_cmp`]'s order.
//!
//! # Ordering contract
//!
//! Events pop in ascending time order, and events of equal time in the order
//! they were scheduled, with times compared by [`f64::total_cmp`].  Scheduled
//! times must be finite (and, after the clamp against the current clock,
//! non-negative); debug builds assert this.  Under `total_cmp` a NaN would
//! order *after* every finite time instead of comparing `Equal` to
//! everything (the silent-`Equal` hazard of `partial_cmp`), so even an
//! unasserted release build keeps a total order and cannot lose or reorder
//! finite events.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event scheduled for execution at [`ScheduledEvent::time`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledEvent<P> {
    /// Simulated time at which the event fires.
    pub time: SimTime,
    /// Caller-defined payload.
    pub payload: P,
}

/// Most events the near tier holds unless one instant alone holds more:
/// above the largest backlog of the simulator benchmark's workloads, so
/// their events never reach the far tier.
const NEAR_CAP: usize = 128;

/// Events an empty near tier takes from the far tier at once (plus the rest
/// of the last one's key group).
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

/// One pending event of the near tier.
#[derive(Clone, Copy)]
struct Near<P> {
    key: u64,
    payload: P,
}

// A near entry of an 8-byte payload (the engine's event) fills 16 bytes.
const _: () = assert!(std::mem::size_of::<Near<u64>>() == 16);

/// One pending event of the far tier.
struct Far<P> {
    key: u64,
    seq: u64,
    payload: P,
}

// Far entries order by `(key, seq)`, the order events pop in; `seq` is unique,
// so the payload never takes part.
impl<P> PartialEq for Far<P> {
    fn eq(&self, other: &Self) -> bool {
        (self.key, self.seq) == (other.key, other.seq)
    }
}

impl<P> Eq for Far<P> {}

impl<P> PartialOrd for Far<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<P> Ord for Far<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, self.seq).cmp(&(other.key, other.seq))
    }
}

/// The future event list of the simulation.
pub struct EventQueue<P> {
    /// The soonest pending events, sorted descending by key with equal keys
    /// youngest first: the next event is last.  Every key here is strictly
    /// below every far key.  Empty only when `far` is empty too.
    near: Vec<Near<P>>,
    /// Pending events later than every near event (min-heap).
    far: BinaryHeap<Reverse<Far<P>>>,
    /// The next far-tier sequence number.
    far_seq: u64,
    now: SimTime,
    popped_total: u64,
}

impl<P: Copy> Default for EventQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Copy> EventQueue<P> {
    /// Creates an empty event queue with the clock at time 0.
    pub fn new() -> Self {
        Self {
            near: Vec::new(),
            far: BinaryHeap::new(),
            far_seq: 0,
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
        let key = time_key(at);
        // With a non-empty far tier, an event later than the latest near
        // event may tie with or follow far events, so it belongs there.
        if !self.far.is_empty() && self.near.first().is_some_and(|l| key > l.key) {
            self.push_far(key, payload);
            return;
        }
        // One backward pass from the soonest end: every entry that pops
        // before the new one (a sooner key, or an equal and so older one)
        // moves up a slot, and the new entry takes the gap.  Plain element
        // moves, not `Vec::insert`: the few slots moved do not pay for an
        // out-of-line `memmove` call.  Walking an iterator leaves the loop
        // without bounds checks.
        let entry = Near { key, payload };
        self.near.push(entry);
        let mut slots = self.near.iter_mut().rev();
        let mut gap = slots.next().expect("the entry just pushed");
        for prev in slots {
            if prev.key > key {
                break;
            }
            *gap = *prev;
            gap = prev;
        }
        *gap = entry;
        if self.near.len() > NEAR_CAP {
            self.spill();
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
        if self.near.is_empty() && !self.far.is_empty() {
            self.refill();
        }
        self.popped_total += 1;
        let time = key_time(entry.key);
        debug_assert!(time + 1e-9 >= self.now, "time went backwards");
        self.now = time.max(self.now);
        Some(ScheduledEvent {
            time: self.now,
            payload: entry.payload,
        })
    }

    /// Adds an event to the far tier, behind every far event of its key.
    fn push_far(&mut self, key: u64, payload: P) {
        let seq = self.far_seq;
        self.far_seq += 1;
        self.far.push(Reverse(Far { key, seq, payload }));
    }

    /// Moves the near tier's latest key group to the far tier, oldest first,
    /// unless that group is the whole tier.
    #[cold]
    fn spill(&mut self) {
        let latest = self.near[0].key;
        let group = self.near.iter().take_while(|e| e.key == latest).count();
        if group == self.near.len() {
            return;
        }
        for i in (0..group).rev() {
            let Near { key, payload } = self.near[i];
            self.push_far(key, payload);
        }
        self.near.drain(..group);
    }

    /// Refills the empty near tier with the `REFILL` soonest far events plus
    /// the rest of the last one's key group, so no key straddles the tiers.
    #[cold]
    fn refill(&mut self) {
        while let Some(Reverse(Far { key, payload, .. })) = self.far.pop() {
            self.near.push(Near { key, payload });
            let group_done = self.far.peek().is_none_or(|Reverse(next)| next.key != key);
            if group_done && self.near.len() >= REFILL {
                break;
            }
        }
        self.near.reverse();
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
        // Payloads number the events in schedule order, so `(time, payload)`
        // must rise strictly.
        let mut last = (f64::NEG_INFINITY, 0u64);
        let mut popped = 0;
        while let Some(e) = q.pop() {
            assert!(
                (last.0, last.1) < (e.time, e.payload),
                "pop order violated: {last:?} then ({}, {})",
                e.time,
                e.payload
            );
            last = (e.time, e.payload);
            popped += 1;
        }
        assert_eq!(popped, n);
    }

    /// Asserts the layout invariants: the near tier sorted descending by
    /// key, and every near key strictly below every far key.
    fn assert_tiers_split(q: &EventQueue<u64>) {
        assert!(q.near.windows(2).all(|w| w[0].key >= w[1].key));
        if let (Some(latest), Some(Reverse(soonest))) = (q.near.first(), q.far.peek()) {
            assert!(latest.key < soonest.key, "a key straddles the tiers");
        }
    }

    #[test]
    fn one_instant_beyond_near_cap_stays_near_and_later_events_go_far() {
        let mut q = EventQueue::new();
        let n = NEAR_CAP as u64 + 40;
        for i in 0..n {
            q.schedule_at(1.0, i);
        }
        // The only key group is the whole tier: nothing can spill.
        assert!(q.far.is_empty() && q.near.len() == n as usize);
        q.schedule_at(2.0, n);
        assert_eq!(q.far.len(), 1, "the later event spills alone");
        q.schedule_at(3.0, n + 1);
        assert_eq!(q.far.len(), 2, "a later event joins the far tier");
        q.schedule_at(1.0, n + 2);
        assert_tiers_split(&q);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        let mut want: Vec<u64> = (0..n).collect();
        want.extend([n + 2, n, n + 1]);
        assert_eq!(order, want);
    }

    #[test]
    fn spill_and_refill_move_whole_key_groups() {
        // Ten instants of 20 events each, scheduled latest instant first so
        // every overflow spills the latest group; the refill must take the
        // whole group the `REFILL`-th event belongs to.
        let mut q = EventQueue::new();
        let mut payload = 0u64;
        for t in (0..10).rev() {
            for _ in 0..20 {
                q.schedule_at(t as f64, payload);
                payload += 1;
                assert_tiers_split(&q);
            }
        }
        assert!(!q.far.is_empty());
        let mut refills = 0;
        let mut last = (f64::NEG_INFINITY, 0u64);
        loop {
            let before = q.near.len();
            let Some(e) = q.pop() else { break };
            assert!(last < (e.time, e.payload), "pop order violated");
            last = (e.time, e.payload);
            assert_tiers_split(&q);
            if before == 1 && !q.near.is_empty() {
                refills += 1;
                assert!(q.far.is_empty() || (q.near.len() >= REFILL && q.near.len() % 20 == 0));
            }
        }
        assert!(refills > 0, "the near tier never refilled");
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
            q.schedule_in((e.payload % 13) as f64 * 0.37, 64 + i);
        }
    }
}
