//! LRU-K access-history tracking for buffer replacement.
//!
//! Classic LRU ranks pages by their single most recent access, which lets one
//! sequential scan flush the whole buffer.  LRU-K (O'Neil et al.) instead
//! ranks pages by their K-th most recent access: the victim is the page with
//! the largest *backward K-distance* — the age of its K-th most recent
//! reference.  Pages with fewer than K recorded accesses have an infinite
//! backward K-distance and are evicted first, ordered by their earliest
//! recorded access (plain LRU among the cold newcomers).
//!
//! The tracker is pure bookkeeping: it does not own the cached values, it only
//! records access history per key and answers "which resident key should be
//! evicted next".  The buffer manager pairs it with its resident-page map and
//! keeps the two in sync (every insert/eviction/invalidation must be mirrored
//! here).  Victim selection scans the tracked set, which is fine for the
//! simulated buffer sizes (hundreds to a few thousand pages); the logical
//! access counter makes every recorded timestamp unique, so the scan's winner
//! is deterministic regardless of hash-map iteration order.
//!
//! With `k == 1` the backward K-distance degenerates to the age of the most
//! recent access and the eviction order is exactly LRU.

use std::collections::VecDeque;
use std::hash::Hash;

use simkernel::IdMap;

/// Per-key access history: the timestamps of the up-to-K most recent
/// accesses, oldest first.
#[derive(Debug, Clone)]
struct History {
    stamps: VecDeque<u64>,
}

/// LRU-K replacement bookkeeping over a set of tracked keys.
#[derive(Debug, Clone)]
pub struct LruKTracker<K: Eq + Hash + Clone> {
    k: usize,
    /// Logical access clock; incremented on every recorded access, so every
    /// stored timestamp is globally unique.
    counter: u64,
    history: IdMap<K, History>,
}

impl<K: Eq + Hash + Clone> LruKTracker<K> {
    /// Creates a tracker ranking by the K-th most recent access (k >= 1).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "LRU-K needs K >= 1");
        Self {
            k,
            counter: 0,
            history: IdMap::default(),
        }
    }

    /// The configured K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// True if no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// True if `key` has recorded history.
    pub fn contains(&self, key: &K) -> bool {
        self.history.contains_key(key)
    }

    /// Records an access to `key` at the next logical timestamp, starting to
    /// track it if necessary.
    pub fn record_access(&mut self, key: K) {
        let stamp = self.counter;
        self.counter += 1;
        let entry = self.history.entry(key).or_insert_with(|| History {
            stamps: VecDeque::with_capacity(self.k),
        });
        if entry.stamps.len() == self.k {
            entry.stamps.pop_front();
        }
        entry.stamps.push_back(stamp);
    }

    /// Stops tracking `key` (evicted or invalidated out of the buffer);
    /// returns true if it was tracked.
    pub fn remove(&mut self, key: &K) -> bool {
        self.history.remove(key).is_some()
    }

    /// Chooses the eviction victim among the tracked keys and stops tracking
    /// it: the key with the largest backward K-distance, where keys with
    /// fewer than K accesses rank as infinite and tie-break by their earliest
    /// recorded access.  Returns `None` when nothing is tracked.
    pub fn evict(&mut self) -> Option<K> {
        // Rank: infinite-distance keys (fewer than K accesses) beat all
        // full-history keys; among the former the earliest first access
        // loses, among the latter the earliest K-th-most-recent access
        // (the front of a full deque) loses.  All timestamps are unique, so
        // the minimum is unique and the scan is order-independent.
        let mut victim: Option<(bool, u64, &K)> = None;
        for (key, h) in &self.history {
            let inf = h.stamps.len() < self.k;
            let rank = *h.stamps.front().expect("tracked key has history");
            let better = match &victim {
                None => true,
                Some((v_inf, v_rank, _)) => {
                    (inf, std::cmp::Reverse(rank)) > (*v_inf, std::cmp::Reverse(*v_rank))
                }
            };
            if better {
                victim = Some((inf, rank, key));
            }
        }
        let key = victim.map(|(_, _, k)| k.clone())?;
        self.history.remove(&key);
        Some(key)
    }

    /// Forgets all history (warm-up resets do not use this — access history
    /// is simulation state, not a statistic — but restart processing drops
    /// the buffer wholesale).
    pub fn clear(&mut self) {
        self.history.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k1_matches_lru_order() {
        let mut t = LruKTracker::new(1);
        for key in [1u64, 2, 3] {
            t.record_access(key);
        }
        t.record_access(1); // 2 is now the coldest
        assert_eq!(t.evict(), Some(2));
        assert_eq!(t.evict(), Some(3));
        assert_eq!(t.evict(), Some(1));
        assert_eq!(t.evict(), None);
        assert!(t.is_empty());
    }

    #[test]
    fn cold_keys_evict_before_full_history_keys() {
        let mut t = LruKTracker::new(2);
        // Key 1 gets two accesses (finite distance), keys 2 and 3 one each.
        t.record_access(1u64);
        t.record_access(1);
        t.record_access(2);
        t.record_access(3);
        // Infinite-distance keys go first, earliest first access first.
        assert_eq!(t.evict(), Some(2));
        assert_eq!(t.evict(), Some(3));
        assert_eq!(t.evict(), Some(1));
    }

    #[test]
    fn k2_ranks_by_second_most_recent_access() {
        let mut t = LruKTracker::new(2);
        // Both keys have full history; 1's accesses are older overall but its
        // 2nd-most-recent (t=0 vs t=1) decides.
        t.record_access(1u64); // t=0
        t.record_access(2); // t=1
        t.record_access(1); // t=2  → key 1 history [0, 2]
        t.record_access(2); // t=3  → key 2 history [1, 3]
        t.record_access(1); // t=4  → key 1 history [2, 4]
                            // Key 2's 2nd-most-recent access (1) is older than key 1's (2).
        assert_eq!(t.evict(), Some(2));
        assert_eq!(t.evict(), Some(1));
    }

    #[test]
    fn scan_resistance_with_k2() {
        // A hot page referenced repeatedly survives a one-touch scan that
        // would flush it under plain LRU.
        let mut t = LruKTracker::new(2);
        t.record_access(100u64);
        t.record_access(100);
        for page in 0..5u64 {
            t.record_access(page);
        }
        // Plain LRU would evict 100 (least recently used); LRU-2 evicts the
        // scanned single-access pages first, oldest first.
        for expected in 0..5u64 {
            assert_eq!(t.evict(), Some(expected));
        }
        assert_eq!(t.evict(), Some(100));
    }

    #[test]
    fn remove_untracks_and_history_is_bounded() {
        let mut t = LruKTracker::new(3);
        for _ in 0..10 {
            t.record_access(7u64);
        }
        assert_eq!(t.len(), 1);
        assert!(t.contains(&7));
        assert!(t.remove(&7));
        assert!(!t.remove(&7));
        assert!(t.is_empty());
        t.record_access(8);
        t.clear();
        assert_eq!(t.evict(), None);
        assert_eq!(t.k(), 3);
    }

    #[test]
    fn victim_choice_is_deterministic_across_equivalent_builds() {
        // Two trackers fed the same access sequence must evict in the same
        // order whatever the hash map's iteration order.
        let feed = |t: &mut LruKTracker<u64>| {
            for step in 0..1000u64 {
                t.record_access(step % 37);
                if step % 5 == 0 {
                    t.record_access(step % 11);
                }
            }
        };
        let mut a = LruKTracker::new(2);
        let mut b = LruKTracker::new(2);
        feed(&mut a);
        feed(&mut b);
        loop {
            let (va, vb) = (a.evict(), b.evict());
            assert_eq!(va, vb);
            if va.is_none() {
                break;
            }
        }
    }
}
