//! A fixed reference workload, timed around every simulation run to measure
//! how fast the host currently runs code like the simulator's.
//!
//! On a shared host other tenants slow the simulator down by up to 2x for
//! tens of seconds at a time, mostly through the shared caches and memory: a
//! pure arithmetic loop kept its speed meanwhile, and a pointer chase over
//! 4 MiB slowed down about three times as much as the simulator.  This
//! workload uses the simulator's own kind of data structures instead — a
//! hash-indexed LRU list, a binary-heap event queue and one small
//! short-lived allocation per step — written with the standard library only,
//! so that no change to the simulator changes it.  Dividing a run's time by
//! the reference's slowdown brought the spread of the rate over ten
//! processes down to 3–6% of its median, where raw wall-clock rates had
//! spread 8–21% (median run) and 12–21% (fastest run).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The reference's run time on an idle host (s): the 2-CPU x86-64 virtual
/// machine the benchmark was built on.  It only scales the normalised
/// metrics; any fixed value would do.
pub const NOMINAL_S: f64 = 0.0225;

/// Entries of the LRU list.
const CACHE: usize = 8_192;
/// Distinct keys referenced (one in four) ...
const KEYS: u64 = 1 << 20;
/// ... and the hot keys referenced otherwise.
const HOT_KEYS: u64 = KEYS / 8;
/// Pending events in the queue.
const PENDING: u32 = 48;
/// Steps per measurement.
const STEPS: usize = 200_000;

const NIL: usize = usize::MAX;

/// A doubly linked LRU list over slots, indexed by key.
struct Lru {
    index: HashMap<u64, usize>,
    /// `(prev, next, key)` per slot.
    slots: Vec<(usize, usize, u64)>,
    head: usize,
    tail: usize,
}

impl Lru {
    fn unlink(&mut self, s: usize) {
        let (prev, next, _) = self.slots[s];
        match prev {
            NIL => self.head = next,
            p => self.slots[p].1 = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].0 = prev,
        }
    }

    /// References `key`: moves it to the front, inserting it (and evicting
    /// the least recently used key when full) on a miss.
    fn touch(&mut self, key: u64) {
        let slot = match self.index.get(&key) {
            Some(&s) => {
                self.unlink(s);
                s
            }
            None if self.slots.len() < CACHE => {
                self.slots.push((NIL, NIL, key));
                self.index.insert(key, self.slots.len() - 1);
                self.slots.len() - 1
            }
            None => {
                let victim = self.tail;
                self.unlink(victim);
                self.index.remove(&self.slots[victim].2);
                self.index.insert(key, victim);
                victim
            }
        };
        self.slots[slot] = (NIL, self.head, key);
        if self.head != NIL {
            self.slots[self.head].0 = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

/// Wall seconds of one fixed reference run.
pub fn measure() -> f64 {
    let start = Instant::now();
    let mut state: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut lru = Lru {
        index: HashMap::with_capacity(CACHE),
        slots: Vec::with_capacity(CACHE),
        head: NIL,
        tail: NIL,
    };
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = (0..PENDING)
        .map(|id| Reverse((next() % 1_000, id)))
        .collect();
    let mut checksum = 0u64;
    for _ in 0..STEPS {
        let Reverse((now, id)) = queue.pop().expect("the queue never empties");
        queue.push(Reverse((now + next() % 1_000, id)));
        let r = next();
        let key = if r % 4 == 0 { r % KEYS } else { r % HOT_KEYS };
        lru.touch(key);
        let stages: Vec<u64> = vec![now, key];
        checksum = checksum.wrapping_add(black_box(stages).iter().sum::<u64>());
    }
    black_box(checksum);
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_keeps_recent_keys_and_evicts_the_oldest() {
        let mut lru = Lru {
            index: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
        };
        for key in 0..CACHE as u64 {
            lru.touch(key);
        }
        lru.touch(0); // key 1 is now the least recently used
        lru.touch(u64::MAX);
        assert!(lru.index.contains_key(&0));
        assert!(!lru.index.contains_key(&1));
        assert_eq!(lru.index.len(), CACHE);
        assert_eq!(lru.slots[lru.head].2, u64::MAX);
    }

    #[test]
    fn measures_a_positive_time() {
        assert!(measure() > 0.0);
    }
}
