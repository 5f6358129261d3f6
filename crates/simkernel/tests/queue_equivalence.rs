//! Equivalence suite for the two-tier event queue.
//!
//! `simkernel::EventQueue` keeps the soonest events in a sorted near tier and
//! the rest in a far-tier heap, comparing a `u64` time key instead of the
//! `f64` time.  This file keeps a plain binary-heap future event list alive as
//! an *oracle* (with the `(time, seq)` contract stated via
//! [`f64::total_cmp`]) and drives both queues through randomized schedules —
//! heavy same-time ties, interleaved schedule/pop churn, and backlogs that
//! cross the boundary between the tiers — asserting the pop sequences are
//! identical.  Every payload numbers its event in schedule order, so
//! comparing `(time, payload)` pins the tie order as exactly as the oracle's
//! sequence number would.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use simkernel::time::SimTime;
use simkernel::{EventQueue, SimRng};

// ---------------------------------------------------------------------------
// The oracle: the seed's binary-heap future event list
// ---------------------------------------------------------------------------

struct HeapEntry<P> {
    time: SimTime,
    seq: u64,
    payload: P,
}

impl<P> PartialEq for HeapEntry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.time.total_cmp(&other.time) == Ordering::Equal && self.seq == other.seq
    }
}
impl<P> Eq for HeapEntry<P> {}

impl<P> PartialOrd for HeapEntry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<P> Ord for HeapEntry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest (time, seq) wins.
        // `total_cmp` (not the seed's `partial_cmp` with a silent `Equal` on
        // `None`) so the order is total even for adversarial inputs.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The seed implementation of the future event list, kept verbatim (modulo
/// the `total_cmp` contract) as the reference the two-tier queue must match.
struct BinaryHeapQueue<P> {
    heap: BinaryHeap<HeapEntry<P>>,
    next_seq: u64,
    now: SimTime,
}

impl<P> BinaryHeapQueue<P> {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
        }
    }

    fn schedule_at(&mut self, at: SimTime, payload: P) {
        let at = if at <= self.now { self.now } else { at };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry {
            time: at,
            seq,
            payload,
        });
    }

    fn schedule_in(&mut self, delay: SimTime, payload: P) {
        let now = self.now;
        self.schedule_at(now + delay.max(0.0), payload);
    }

    fn pop(&mut self) -> Option<(SimTime, P)> {
        let entry = self.heap.pop()?;
        self.now = entry.time.max(self.now);
        Some((self.now, entry.payload))
    }
}

// ---------------------------------------------------------------------------
// Randomized equivalence drivers
// ---------------------------------------------------------------------------

/// Draws a delay from a deterministic mixture that covers the patterns the
/// engine produces: zero delays (ties at `now`), CPU-scale steps, I/O-scale
/// delays and occasional far-future timeouts.
fn draw_delay(rng: &mut SimRng) -> SimTime {
    match rng.below(10) {
        0 | 1 => 0.0,
        2..=5 => rng.exponential(0.4),
        6..=8 => rng.exponential(12.0),
        _ => 200.0 + rng.exponential(2_000.0),
    }
}

/// Runs `ops` interleaved schedule/pop operations against both queues and
/// asserts every pop returns the same `(time, payload)` pair.
fn assert_equivalent_run(seed: u64, ops: usize, tie_heavy: bool) {
    let mut rng_plan = SimRng::seed_from(seed);
    let mut rng_queue = SimRng::seed_from(seed ^ 0xD1F); // same stream per queue
    let mut rng_heap = SimRng::seed_from(seed ^ 0xD1F);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut oracle: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
    let mut payload = 0u64;
    for step in 0..ops {
        // Bias toward scheduling early so the backlog grows, then drains.
        let schedule = queue.is_empty() || rng_plan.below(5) < if step < ops / 2 { 3 } else { 1 };
        if schedule {
            let burst = if tie_heavy { rng_plan.below(20) + 1 } else { 1 };
            // A tie burst schedules several events for the *same* instant;
            // FIFO among them is exactly the contract under test.
            let delay = draw_delay(&mut rng_queue);
            let delay_h = draw_delay(&mut rng_heap);
            assert_eq!(delay.to_bits(), delay_h.to_bits());
            for _ in 0..burst {
                queue.schedule_in(delay, payload);
                oracle.schedule_in(delay, payload);
                payload += 1;
            }
        } else {
            let got = queue.pop().map(|e| (e.time.to_bits(), e.payload));
            let want = oracle.pop().map(|(t, p)| (t.to_bits(), p));
            assert_eq!(
                got, want,
                "pop #{step} diverged from the binary-heap oracle (seed {seed})"
            );
        }
    }
    // Drain both completely: the tails must match too.
    loop {
        let got = queue.pop().map(|e| (e.time.to_bits(), e.payload));
        let want = oracle.pop().map(|(t, p)| (t.to_bits(), p));
        assert_eq!(got, want, "drain diverged (seed {seed})");
        if got.is_none() {
            break;
        }
    }
}

#[test]
fn two_tier_queue_matches_binary_heap_oracle_on_random_schedules() {
    for seed in 0..12 {
        assert_equivalent_run(0xA11CE + seed, 4_000, false);
    }
}

#[test]
fn two_tier_queue_matches_oracle_under_heavy_ties() {
    for seed in 0..8 {
        assert_equivalent_run(0x7E55 + seed, 2_000, true);
    }
}

#[test]
fn two_tier_queue_matches_oracle_on_pure_hold_model() {
    // The classic hold model: a fixed population, each pop schedules one
    // replacement — the steady-state access pattern of the engine.
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut oracle: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
    let mut rng = SimRng::seed_from(9);
    for i in 0..256 {
        let t = rng.exponential(5.0);
        queue.schedule_at(t, i);
        oracle.schedule_at(t, i);
    }
    for i in 0..20_000u64 {
        let got = queue.pop().map(|e| (e.time, e.payload)).unwrap();
        let want = oracle.pop().unwrap();
        assert_eq!(got.0.to_bits(), want.0.to_bits());
        assert_eq!(got.1, want.1);
        let delay = rng.exponential(5.0);
        queue.schedule_in(delay, 256 + i);
        oracle.schedule_in(delay, 256 + i);
    }
}

/// Pops both queues, asserts they return the same event, and reports whether
/// one was pending.
fn pop_both(queue: &mut EventQueue<u64>, oracle: &mut BinaryHeapQueue<u64>) -> bool {
    let got = queue.pop().map(|e| (e.time.to_bits(), e.payload));
    let want = oracle.pop().map(|(t, p)| (t.to_bits(), p));
    assert_eq!(got, want, "pop diverged from the binary-heap oracle");
    got.is_some()
}

#[test]
fn two_tier_queue_matches_oracle_across_the_tier_boundary() {
    // Thousands of events at a handful of instants (every time is a multiple
    // of 0.5 ms within 4 ms of the clock), interleaved with pops: new events
    // tie with the near tier's latest event, the backlog overflows into the
    // far tier and the near tier refills from it, and FIFO among equal times
    // must hold across both tiers.
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut oracle: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
    let mut rng = SimRng::seed_from(0x71E5);
    let instants = [0.0, 0.5, 1.0, 2.5, 4.0];
    let mut payload = 0u64;
    for round in 0..6 {
        for _ in 0..2_000 {
            let at = queue.now() + instants[rng.below(instants.len() as u64) as usize];
            queue.schedule_at(at, payload);
            oracle.schedule_at(at, payload);
            payload += 1;
            if rng.below(3) == 0 {
                pop_both(&mut queue, &mut oracle);
            }
        }
        assert!(
            queue.len() > 500,
            "round {round}: the backlog must spill into the far tier"
        );
        // Drain most of the backlog so the near tier refills repeatedly.
        for _ in 0..queue.len() - 100 {
            pop_both(&mut queue, &mut oracle);
        }
    }
    while pop_both(&mut queue, &mut oracle) {}
}

/// Schedules `payload` at `at` in both queues and returns the next payload.
fn schedule_both(
    queue: &mut EventQueue<u64>,
    oracle: &mut BinaryHeapQueue<u64>,
    at: SimTime,
    payload: u64,
) -> u64 {
    queue.schedule_at(at, payload);
    oracle.schedule_at(at, payload);
    payload + 1
}

#[test]
fn two_tier_queue_matches_oracle_when_one_instant_outgrows_the_near_tier() {
    // 300 events at one instant: more than the near tier's cap, but a key
    // group never spills when it is the whole tier.  Pops, events at the
    // same instant and later events interleave; FIFO must hold throughout.
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut oracle: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
    let mut rng = SimRng::seed_from(0x1A57);
    let mut payload = 0u64;
    for _ in 0..300 {
        payload = schedule_both(&mut queue, &mut oracle, 5.0, payload);
    }
    for step in 0..600 {
        match rng.below(4) {
            0 => pop_both(&mut queue, &mut oracle),
            1 => {
                let at = queue.now().max(5.0);
                payload = schedule_both(&mut queue, &mut oracle, at, payload);
                true
            }
            _ => {
                let at = 5.0 + 0.25 * (1 + rng.below(8)) as f64;
                payload = schedule_both(&mut queue, &mut oracle, at, payload);
                true
            }
        };
        if step == 300 {
            assert!(queue.len() > 300, "the instant must outgrow the near tier");
        }
    }
    while pop_both(&mut queue, &mut oracle) {}
}

#[test]
fn two_tier_queue_matches_oracle_when_a_spilled_group_refills_among_ties() {
    // A group at the latest instant spills to the far tier when earlier
    // events overflow the near tier; while the earlier events drain and the
    // spilled group refills, new events keep tying with it.
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut oracle: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
    let mut rng = SimRng::seed_from(0x5B11);
    let mut payload = 0u64;
    for round in 0..20 {
        let base = queue.now();
        let latest = base + 10.0;
        for _ in 0..40 {
            payload = schedule_both(&mut queue, &mut oracle, latest, payload);
        }
        // Earlier events push the near tier past its cap: the latest group
        // is the one that spills.
        for _ in 0..150 {
            let at = base + rng.below(40) as f64 * 0.2;
            payload = schedule_both(&mut queue, &mut oracle, at, payload);
        }
        assert!(
            queue.len() > 150,
            "round {round}: the backlog must overflow"
        );
        // Drain up to the spilled instant, tying with it on the way.
        while queue.now() < latest {
            if rng.below(3) == 0 {
                payload = schedule_both(&mut queue, &mut oracle, latest, payload);
            }
            if !pop_both(&mut queue, &mut oracle) {
                break;
            }
        }
    }
    while pop_both(&mut queue, &mut oracle) {}
}
