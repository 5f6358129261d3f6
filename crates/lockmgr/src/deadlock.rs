//! Waits-for graph and cycle (deadlock) detection.
//!
//! "Deadlock checks are performed for every denied lock request; the
//! transaction causing the deadlock is aborted to break the cycle." (§3.2)
//!
//! The graph stores, for every blocked transaction, the set of transactions it
//! waits for.  Detection is a depth-first reachability check starting from the
//! newly blocked transaction: if it can reach itself, the new request closes a
//! cycle and the requester is chosen as the victim.
//!
//! The graph sits on the lock manager's per-commit path
//! ([`WaitsForGraph::remove_transaction`] runs for *every* release), so it
//! keeps a reverse index (blocker → waiters) to remove a transaction in
//! `O(degree)` instead of scanning every blocked transaction, reuses its
//! DFS scratch buffers across checks, and recycles the per-transaction edge
//! sets through a free pool: under contention, transactions block and
//! release continuously, and without the pool every block/release pair
//! allocated (and dropped) fresh hash sets on this hot path.  The lock
//! manager passes the blockers in, and returns the transactions a release
//! wakes, in buffers it reuses too, so a denied request allocates nothing
//! once these pools have reached their working size.

use simkernel::{IdMap, IdSet};

use crate::table::TxId;

/// The waits-for graph.
#[derive(Debug, Default)]
pub struct WaitsForGraph {
    /// `edges[t]` = set of transactions `t` is waiting for.
    edges: IdMap<TxId, IdSet<TxId>>,
    /// `reverse[t]` = set of transactions waiting for `t` (incoming edges),
    /// kept in lockstep with `edges` so removal never scans the whole graph.
    reverse: IdMap<TxId, IdSet<TxId>>,
    /// Pool of emptied edge sets, recycled by `add_waits` so the steady
    /// block/release churn stops allocating (sets keep their capacity).
    pool: Vec<IdSet<TxId>>,
    /// DFS scratch (cleared per check, allocation reused).
    visited: IdSet<TxId>,
    /// DFS stack scratch.
    stack: Vec<TxId>,
}

impl WaitsForGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds edges `waiter → blocker` for every blocker.
    pub fn add_waits(&mut self, waiter: TxId, blockers: &[TxId]) {
        if blockers.is_empty() {
            return;
        }
        let pool = &mut self.pool;
        let reverse = &mut self.reverse;
        let set = self
            .edges
            .entry(waiter)
            .or_insert_with(|| pool.pop().unwrap_or_default());
        for b in blockers {
            if *b != waiter && set.insert(*b) {
                reverse
                    .entry(*b)
                    .or_insert_with(|| pool.pop().unwrap_or_default())
                    .insert(waiter);
            }
        }
    }

    /// Removes all outgoing edges of `waiter` (it is no longer blocked).
    pub fn clear_waits(&mut self, waiter: TxId) {
        if let Some(mut blockers) = self.edges.remove(&waiter) {
            // analyzer: allow(hash-iter): set removals commute; order cannot escape
            for b in blockers.drain() {
                if let Some(set) = self.reverse.get_mut(&b) {
                    set.remove(&waiter);
                    if set.is_empty() {
                        let set = self.reverse.remove(&b).expect("reverse set exists");
                        self.pool.push(set);
                    }
                }
            }
            // The drained (empty, capacity-keeping) set goes back to the pool.
            self.pool.push(blockers);
        }
    }

    /// Removes a transaction completely: its outgoing edges and every incoming
    /// edge (other transactions no longer wait for it).
    pub fn remove_transaction(&mut self, tx: TxId) {
        self.clear_waits(tx);
        if let Some(mut waiters) = self.reverse.remove(&tx) {
            // analyzer: allow(hash-iter): set removals commute; order cannot escape
            for w in waiters.drain() {
                if let Some(set) = self.edges.get_mut(&w) {
                    set.remove(&tx);
                    // An empty outgoing set is kept until `clear_waits`: the
                    // transaction is still blocked in the lock table, its
                    // remaining blockers just all released.
                }
            }
            self.pool.push(waiters);
        }
    }

    /// Number of recycled edge sets currently parked in the free pool
    /// (diagnostic for the allocation-pooling tests).
    pub fn pooled_sets(&self) -> usize {
        self.pool.len()
    }

    /// Number of blocked transactions currently recorded.
    pub fn blocked_count(&self) -> usize {
        self.edges.len()
    }

    /// The transactions `tx` currently waits for (empty if not blocked).
    pub fn waits_of(&self, tx: TxId) -> Vec<TxId> {
        self.edges
            .get(&tx)
            .map(|s| {
                let mut v: Vec<TxId> = s.iter().copied().collect();
                v.sort_unstable();
                v
            })
            .unwrap_or_default()
    }

    /// True if `start` can reach `target` following waits-for edges.
    pub fn reaches(&mut self, start: TxId, target: TxId) -> bool {
        self.visited.clear();
        self.stack.clear();
        self.stack.push(start);
        while let Some(t) = self.stack.pop() {
            if !self.visited.insert(t) {
                continue;
            }
            if let Some(next) = self.edges.get(&t) {
                // analyzer: allow(hash-iter): reachability is a bool; visit order
                // affects neither the answer nor any output
                for n in next {
                    if *n == target {
                        self.stack.clear();
                        return true;
                    }
                    self.stack.push(*n);
                }
            }
        }
        false
    }

    /// Checks whether adding the edges `waiter → blockers` would close a
    /// cycle containing `waiter`.  The edges are *not* added.  `blockers`
    /// must be sorted and deduplicated (as
    /// [`wait_for_set`](crate::table::LockTable::wait_for_set) returns it).
    ///
    /// A cycle exists iff some blocker *reaches* the waiter — equivalently,
    /// iff a blocker is among the waiter's *ancestors* in the waits-for
    /// graph.  The check therefore walks backwards from the waiter over the
    /// reverse index and binary-searches each discovered ancestor against
    /// the blocker list.  This bounds the work by the waiter's transitive
    /// waiter set — for a freshly denied request a handful of transactions —
    /// and never hashes the blocker list at all, where the forward scan this
    /// replaces traversed the blockers' *descendant* set: under a lock
    /// convoy essentially the whole blocked population, which made every
    /// denied request on a saturated multi-node run O(blocked transactions).
    pub fn would_deadlock(&mut self, waiter: TxId, blockers: &[TxId]) -> bool {
        debug_assert!(
            blockers.windows(2).all(|w| w[0] < w[1]),
            "blockers must be sorted and deduplicated"
        );
        let is_blocker = |t: &TxId| blockers.binary_search(t).is_ok();
        if is_blocker(&waiter) {
            return true;
        }
        self.visited.clear();
        self.stack.clear();
        self.visited.insert(waiter);
        self.stack.push(waiter);
        while let Some(t) = self.stack.pop() {
            if let Some(prev) = self.reverse.get(&t) {
                // analyzer: allow(hash-iter): reachability is a bool; visit order
                // affects neither the answer nor any output
                for p in prev {
                    if is_blocker(p) {
                        return true;
                    }
                    if self.visited.insert(*p) {
                        self.stack.push(*p);
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_deadlock_on_simple_wait() {
        let mut g = WaitsForGraph::new();
        assert!(!g.would_deadlock(1, &[2]));
    }

    #[test]
    fn two_transaction_cycle_detected() {
        let mut g = WaitsForGraph::new();
        g.add_waits(1, &[2]); // T1 waits for T2
        assert!(g.would_deadlock(2, &[1])); // T2 requesting something held by T1
        assert!(!g.would_deadlock(3, &[1]));
    }

    #[test]
    fn three_transaction_cycle_detected() {
        let mut g = WaitsForGraph::new();
        g.add_waits(1, &[2]);
        g.add_waits(2, &[3]);
        assert!(g.would_deadlock(3, &[1]));
        assert!(!g.would_deadlock(3, &[4]));
    }

    #[test]
    fn self_edge_is_a_deadlock() {
        let mut g = WaitsForGraph::new();
        assert!(g.would_deadlock(7, &[7]));
    }

    #[test]
    fn clearing_waits_breaks_the_path() {
        let mut g = WaitsForGraph::new();
        g.add_waits(1, &[2]);
        g.add_waits(2, &[3]);
        assert!(g.reaches(1, 3));
        g.clear_waits(2);
        assert!(!g.reaches(1, 3));
        assert!(g.reaches(1, 2));
    }

    #[test]
    fn remove_transaction_drops_incoming_edges() {
        let mut g = WaitsForGraph::new();
        g.add_waits(1, &[2]);
        g.add_waits(3, &[2]);
        g.remove_transaction(2);
        assert!(!g.reaches(1, 2));
        assert!(!g.reaches(3, 2));
        // Outgoing sets still exist for 1 and 3 but are empty of 2.
        assert!(g.waits_of(1).is_empty());
    }

    #[test]
    fn waits_of_reports_sorted_blockers() {
        let mut g = WaitsForGraph::new();
        g.add_waits(5, &[9, 2, 9, 5]);
        assert_eq!(g.waits_of(5), vec![2, 9]);
        assert_eq!(g.blocked_count(), 1);
        assert_eq!(g.waits_of(42), Vec::<TxId>::new());
    }

    #[test]
    fn diamond_without_cycle_is_not_a_deadlock() {
        let mut g = WaitsForGraph::new();
        g.add_waits(1, &[2, 3]);
        g.add_waits(2, &[4]);
        g.add_waits(3, &[4]);
        assert!(!g.would_deadlock(4, &[5]));
        assert!(g.would_deadlock(4, &[1]));
    }

    #[test]
    fn emptied_edge_sets_are_pooled_and_reused() {
        let mut g = WaitsForGraph::new();
        assert_eq!(g.pooled_sets(), 0);
        // One outgoing set (waiter 1) and two reverse sets (blockers 2, 3).
        g.add_waits(1, &[2, 3]);
        assert_eq!(g.pooled_sets(), 0);
        // Clearing frees all three into the pool ...
        g.clear_waits(1);
        assert_eq!(g.pooled_sets(), 3);
        // ... and the next block reuses them instead of allocating.
        g.add_waits(4, &[5]);
        assert_eq!(g.pooled_sets(), 1);
        g.remove_transaction(5);
        // 5's reverse set and (via clear_waits inside remove) nothing else:
        // 4's outgoing set stays (4 is still blocked in the table).
        assert_eq!(g.pooled_sets(), 2);
        assert_eq!(g.blocked_count(), 1);
        assert!(g.waits_of(4).is_empty());
        g.clear_waits(4);
        assert_eq!(g.pooled_sets(), 3);
        assert_eq!(g.blocked_count(), 0);
        // Steady-state churn holds the pool size: block/release cycles stop
        // growing it once the high-water mark is reached.
        for round in 0..10u64 {
            g.add_waits(10 + round, &[100 + round]);
            g.clear_waits(10 + round);
        }
        assert_eq!(g.pooled_sets(), 3);
    }

    #[test]
    fn reverse_index_survives_interleaved_add_clear_remove() {
        // Regression for the reverse-index bookkeeping: adds, partial
        // clears and removals must keep both directions consistent.
        let mut g = WaitsForGraph::new();
        g.add_waits(1, &[10, 11]);
        g.add_waits(2, &[10]);
        g.add_waits(3, &[1]);
        // Removing blocker 10 must unhook it from both waiters ...
        g.remove_transaction(10);
        assert!(!g.reaches(1, 10));
        assert!(!g.reaches(2, 10));
        // ... while 1 still waits for 11, and 3 still waits for 1.
        assert!(g.reaches(1, 11));
        assert!(g.reaches(3, 11));
        // Re-adding edges after clears keeps working.
        g.clear_waits(1);
        assert!(!g.reaches(3, 11));
        g.add_waits(1, &[2]);
        assert!(g.reaches(3, 2));
        g.remove_transaction(2);
        g.remove_transaction(1);
        g.remove_transaction(3);
        assert_eq!(g.blocked_count(), 0);
    }
}
