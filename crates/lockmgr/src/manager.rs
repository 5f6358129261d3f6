//! The lock manager: ties the lock table, the locks each transaction holds
//! and the per-partition concurrency-control modes together, checks every
//! denied request for a deadlock, and keeps the statistics TPSIM reports
//! (lock requests, conflicts, deadlocks).

use dbmodel::{AccessMode, ObjectRef, PartitionId};
use simkernel::{IdMap, IdSet};

use crate::table::{LockMode, LockTable, LockableId, TableOutcome, TxId};

/// Concurrency-control mode of a partition (§3.2: "no CC, page-level CC, or
/// object-level CC for partition i").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcMode {
    /// No locks are acquired for this partition (e.g. the Debit-Credit
    /// HISTORY file, synchronized by latches in a real system).
    None,
    /// Page-granularity two-phase locking.
    #[default]
    Page,
    /// Object-granularity two-phase locking.
    Object,
}

/// Outcome of a lock request as seen by the transaction system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock was granted (or no lock is needed) — continue processing.
    Granted,
    /// The request conflicts; the transaction must block until woken.
    Blocked,
    /// Granting the wait would close a waits-for cycle; the requesting
    /// transaction must be aborted ("the transaction causing the deadlock is
    /// aborted to break the cycle").
    Deadlock,
}

/// A lock request derived from an object reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockRequest {
    /// The item to lock (page or object id depending on partition CC mode),
    /// or `None` when the partition is not subject to locking.
    pub item: Option<LockableId>,
    /// Requested mode.
    pub mode: LockMode,
}

/// Counters kept by the lock manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockManagerStats {
    /// Lock requests issued (excluding partitions with `CcMode::None`).
    pub requests: u64,
    /// Requests granted immediately.
    pub immediate_grants: u64,
    /// Requests that had to wait.
    pub conflicts: u64,
    /// Deadlocks detected (= transactions aborted by the lock manager).
    pub deadlocks: u64,
    /// Lock releases.
    pub releases: u64,
}

/// The lock manager.
#[derive(Debug)]
pub struct LockManager {
    modes: Vec<CcMode>,
    table: LockTable,
    /// Locks currently held per transaction (for release at EOT / abort).
    /// A plain de-duplicated `Vec` per transaction: transactions hold few
    /// locks, so a linear membership check beats hashing on the per-request
    /// hot path.
    held: IdMap<TxId, Vec<LockableId>>,
    /// Released held-lock lists (emptied, capacity kept) for the next
    /// transaction's first lock.
    spare_held: Vec<Vec<LockableId>>,
    /// The single item each blocked transaction is waiting for.
    waiting_on: IdMap<TxId, LockableId>,
    /// Scratch for a denied request's wait-for set (reused per conflict).
    blockers: Vec<TxId>,
    /// Deadlock-check scratch: the transactions reached so far, and those
    /// still to expand (both cleared per check, allocations reused).
    visited: IdSet<TxId>,
    stack: Vec<TxId>,
    /// The transactions the last `release_all` or `abort` woke, returned
    /// by reference so the conflict path allocates nothing.
    woken: Vec<TxId>,
    stats: LockManagerStats,
}

impl LockManager {
    /// Creates a lock manager with the given per-partition modes.
    pub fn new(modes: Vec<CcMode>) -> Self {
        Self {
            modes,
            table: LockTable::new(),
            held: IdMap::default(),
            spare_held: Vec::new(),
            waiting_on: IdMap::default(),
            blockers: Vec::new(),
            visited: IdSet::default(),
            stack: Vec::new(),
            woken: Vec::new(),
            stats: LockManagerStats::default(),
        }
    }

    /// The mode configured for `partition` (default page-level).
    pub fn mode(&self, partition: PartitionId) -> CcMode {
        self.modes.get(partition).copied().unwrap_or_default()
    }

    /// Current statistics.
    pub fn stats(&self) -> LockManagerStats {
        self.stats
    }

    /// Resets the statistics (end of warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = LockManagerStats::default();
    }

    /// Number of transactions currently blocked on a lock.
    #[cfg(test)]
    pub fn blocked_transactions(&self) -> usize {
        self.waiting_on.len()
    }

    /// Number of locks currently held by `tx`.
    #[cfg(test)]
    pub fn locks_held(&self, tx: TxId) -> usize {
        self.held.get(&tx).map(Vec::len).unwrap_or(0)
    }

    /// Translates an object reference into a lock request according to the
    /// partition's CC mode.
    pub fn request_for(&self, r: &ObjectRef) -> LockRequest {
        let mode = if r.mode == AccessMode::Write {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        let item = match self.mode(r.partition) {
            CcMode::None => None,
            CcMode::Page => Some(LockableId::Page(r.page)),
            CcMode::Object => Some(LockableId::Object(r.object)),
        };
        LockRequest { item, mode }
    }

    /// Requests the lock needed for object reference `r` on behalf of `tx`.
    pub fn acquire(&mut self, tx: TxId, r: &ObjectRef) -> LockOutcome {
        let req = self.request_for(r);
        let Some(item) = req.item else {
            return LockOutcome::Granted;
        };
        self.stats.requests += 1;
        match self.table.request(item, tx, req.mode) {
            TableOutcome::Granted => {
                self.stats.immediate_grants += 1;
                self.note_held(tx, item);
                LockOutcome::Granted
            }
            TableOutcome::Blocked => {
                self.table
                    .wait_for_set(item, tx, req.mode, &mut self.blockers);
                if self.would_deadlock(tx) {
                    // Abort the requester: remove the queued request again.
                    // It is the item's newest, so removing it grants
                    // nothing.
                    self.woken.clear();
                    self.table.cancel_wait(item, tx, &mut self.woken);
                    debug_assert!(
                        self.woken.is_empty(),
                        "cancelling the newest request granted {:?}",
                        self.woken
                    );
                    self.stats.deadlocks += 1;
                    LockOutcome::Deadlock
                } else {
                    self.waiting_on.insert(tx, item);
                    self.stats.conflicts += 1;
                    LockOutcome::Blocked
                }
            }
        }
    }

    /// True if the denied request of `tx`, whose blockers are in
    /// `self.blockers`, closes a waits-for cycle: if a blocker waits for `tx`,
    /// directly or through other waiters.
    ///
    /// The walk runs backward from `tx` over the lock table's current state,
    /// so no edge is stored: a transaction `t` is waited for by the requests
    /// [`LockTable::waiting_for`] lists on the items `t` holds and on the
    /// item it is queued on.  Its work is bounded by the transitive waiters
    /// of `tx`, not by the whole blocked population.
    fn would_deadlock(&mut self, tx: TxId) -> bool {
        let Self {
            table,
            held,
            waiting_on,
            blockers,
            visited,
            stack,
            ..
        } = self;
        visited.clear();
        stack.clear();
        visited.insert(tx);
        stack.push(tx);
        while let Some(t) = stack.pop() {
            let holds = held.get(&t).map(Vec::as_slice).unwrap_or_default();
            for &item in holds.iter().chain(waiting_on.get(&t)) {
                for w in table.waiting_for(item, t) {
                    if blockers.binary_search(&w).is_ok() {
                        return true;
                    }
                    if visited.insert(w) {
                        stack.push(w);
                    }
                }
            }
        }
        false
    }

    /// Records that `tx` holds `item` (once), starting its list from the
    /// pool of released ones.
    fn note_held(&mut self, tx: TxId, item: LockableId) {
        let spare = &mut self.spare_held;
        let held = self
            .held
            .entry(tx)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        if !held.contains(&item) {
            held.push(item);
        }
    }

    /// Marks held the queued requests the lock table granted, which it
    /// appended to `woken` from position `first` on.
    fn wake_from(&mut self, first: usize) {
        for i in first..self.woken.len() {
            let tx = self.woken[i];
            if let Some(item) = self.waiting_on.remove(&tx) {
                self.note_held(tx, item);
            }
        }
    }

    /// Releases every lock `tx` holds, appending the transactions whose
    /// queued requests this granted to `woken`.
    fn release_held(&mut self, tx: TxId) {
        if let Some(mut items) = self.held.remove(&tx) {
            for &item in &items {
                self.stats.releases += 1;
                let first = self.woken.len();
                self.table.release(item, tx, &mut self.woken);
                self.wake_from(first);
            }
            items.clear();
            self.spare_held.push(items);
        }
    }

    /// The transactions woken since `woken` was cleared, sorted and
    /// deduplicated.
    fn sorted_woken(&mut self) -> &[TxId] {
        self.woken.sort_unstable();
        self.woken.dedup();
        &self.woken
    }

    /// Releases all locks of `tx` (strict 2PL: at commit, phase 2).
    /// Returns the transactions whose queued requests became granted,
    /// sorted and deduplicated; the caller must resume them.  The slice is
    /// a buffer the manager reuses, valid until its next call.
    pub fn release_all(&mut self, tx: TxId) -> &[TxId] {
        self.woken.clear();
        self.release_held(tx);
        self.sorted_woken()
    }

    /// Aborts `tx`: cancels a pending wait if any and releases all held locks.
    /// Returns the transactions whose queued requests this granted — behind
    /// the cancelled request or on the released items — as
    /// [`release_all`](Self::release_all) does.
    pub fn abort(&mut self, tx: TxId) -> &[TxId] {
        self.woken.clear();
        if let Some(item) = self.waiting_on.remove(&tx) {
            self.table.cancel_wait(item, tx, &mut self.woken);
            self.wake_from(0);
        }
        self.release_held(tx);
        self.sorted_woken()
    }

    /// True if `tx` is currently blocked.
    #[cfg(test)]
    pub fn is_blocked(&self, tx: TxId) -> bool {
        self.waiting_on.contains_key(&tx)
    }

    /// Crash recovery: drops every held lock and every queued request at
    /// once (the transactions holding them died with the system; a restart
    /// begins with an empty lock table).  Returns the number of locks that
    /// were held at the crash.  Statistics and CC modes are preserved so the
    /// final report still describes the whole run.
    pub fn crash_reset(&mut self) -> u64 {
        // analyzer: allow(hash-iter): sum of set sizes is order-independent
        let held: u64 = self.held.values().map(|s| s.len() as u64).sum();
        self.table = LockTable::new();
        self.held.clear();
        self.waiting_on.clear();
        held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{LockEntry, Waiter};
    use dbmodel::{ObjectId, PageId};
    use simkernel::SimRng;
    use std::collections::{BTreeMap, BTreeSet};

    fn obj_ref(partition: usize, page: u64, object: u64, write: bool) -> ObjectRef {
        ObjectRef {
            partition,
            page: PageId(page),
            object: ObjectId(object),
            mode: if write {
                AccessMode::Write
            } else {
                AccessMode::Read
            },
        }
    }

    fn page_level_mgr() -> LockManager {
        LockManager::new(vec![CcMode::Page, CcMode::Object, CcMode::None])
    }

    #[test]
    fn cc_mode_none_always_grants() {
        let mut m = page_level_mgr();
        for i in 0..100 {
            assert_eq!(m.acquire(i, &obj_ref(2, 1, 1, true)), LockOutcome::Granted);
        }
        assert_eq!(m.stats().requests, 0);
        assert_eq!(m.locks_held(0), 0);
    }

    #[test]
    fn page_level_conflicts_on_same_page_different_objects() {
        let mut m = page_level_mgr();
        assert_eq!(
            m.acquire(1, &obj_ref(0, 10, 100, true)),
            LockOutcome::Granted
        );
        // Different object, same page → conflict under page-level locking.
        assert_eq!(
            m.acquire(2, &obj_ref(0, 10, 101, true)),
            LockOutcome::Blocked
        );
        assert!(m.is_blocked(2));
        assert_eq!(m.stats().conflicts, 1);
    }

    #[test]
    fn object_level_allows_same_page_different_objects() {
        let mut m = page_level_mgr();
        assert_eq!(
            m.acquire(1, &obj_ref(1, 10, 100, true)),
            LockOutcome::Granted
        );
        assert_eq!(
            m.acquire(2, &obj_ref(1, 10, 101, true)),
            LockOutcome::Granted
        );
        assert_eq!(
            m.acquire(3, &obj_ref(1, 10, 100, true)),
            LockOutcome::Blocked
        );
    }

    #[test]
    fn read_locks_are_shared() {
        let mut m = page_level_mgr();
        assert_eq!(m.acquire(1, &obj_ref(0, 5, 1, false)), LockOutcome::Granted);
        assert_eq!(m.acquire(2, &obj_ref(0, 5, 2, false)), LockOutcome::Granted);
        assert_eq!(m.acquire(3, &obj_ref(0, 5, 3, true)), LockOutcome::Blocked);
    }

    #[test]
    fn release_wakes_waiter_and_reports_it() {
        let mut m = page_level_mgr();
        m.acquire(1, &obj_ref(0, 10, 1, true));
        assert_eq!(m.acquire(2, &obj_ref(0, 10, 2, true)), LockOutcome::Blocked);
        assert_eq!(m.release_all(1), [2]);
        assert!(!m.is_blocked(2));
        assert_eq!(m.locks_held(2), 1);
        // tx 2 can later release without issue.
        assert!(m.release_all(2).is_empty());
        assert_eq!(m.stats().releases, 2);
    }

    #[test]
    fn deadlock_detected_and_requester_aborted() {
        let mut m = page_level_mgr();
        // T1 holds page 1, T2 holds page 2.
        assert_eq!(m.acquire(1, &obj_ref(0, 1, 1, true)), LockOutcome::Granted);
        assert_eq!(m.acquire(2, &obj_ref(0, 2, 2, true)), LockOutcome::Granted);
        // T1 waits for page 2.
        assert_eq!(m.acquire(1, &obj_ref(0, 2, 3, true)), LockOutcome::Blocked);
        // T2 requesting page 1 closes the cycle → deadlock, T2 is the victim.
        assert_eq!(m.acquire(2, &obj_ref(0, 1, 4, true)), LockOutcome::Deadlock);
        assert_eq!(m.stats().deadlocks, 1);
        // Aborting T2 releases page 2 and wakes T1.
        assert_eq!(m.abort(2), [1]);
        assert_eq!(m.locks_held(1), 2);
    }

    /// Requests page `page` of partition 0 (page-level locking) for `tx`.
    fn lock(m: &mut LockManager, tx: TxId, page: u64, write: bool) -> LockOutcome {
        m.acquire(tx, &obj_ref(0, page, page, write))
    }

    #[test]
    fn two_transaction_cycle_is_a_deadlock() {
        let mut m = page_level_mgr();
        lock(&mut m, 1, 1, true);
        lock(&mut m, 2, 2, true);
        // T1 waits for T2.
        assert_eq!(lock(&mut m, 1, 2, true), LockOutcome::Blocked);
        // T3 waiting for T1 closes no cycle; T2 does: T2 → T1 → T2.
        assert_eq!(lock(&mut m, 3, 1, true), LockOutcome::Blocked);
        assert_eq!(lock(&mut m, 2, 1, true), LockOutcome::Deadlock);
        assert_eq!(m.stats().deadlocks, 1);
    }

    #[test]
    fn three_transaction_cycle_is_a_deadlock() {
        let mut m = page_level_mgr();
        for tx in 1..=3 {
            assert_eq!(lock(&mut m, tx, tx, true), LockOutcome::Granted);
        }
        assert_eq!(lock(&mut m, 1, 2, true), LockOutcome::Blocked);
        assert_eq!(lock(&mut m, 2, 3, true), LockOutcome::Blocked);
        // T3 → T1 → T2 → T3.
        assert_eq!(lock(&mut m, 3, 1, true), LockOutcome::Deadlock);
        assert_eq!(m.stats().deadlocks, 1);
        // The victim's request is gone; its abort wakes T2.
        assert_eq!(m.abort(3), [2]);
        assert_eq!(m.release_all(2), [1]);
    }

    #[test]
    fn diamond_without_cycle_is_not_a_deadlock() {
        let mut m = page_level_mgr();
        // T2 and T3 share page 1, T4 holds page 4, T5 holds page 5.
        lock(&mut m, 2, 1, false);
        lock(&mut m, 3, 1, false);
        lock(&mut m, 4, 4, true);
        lock(&mut m, 5, 5, true);
        // T1 waits for T2 and T3; both wait for T4.
        assert_eq!(lock(&mut m, 1, 1, true), LockOutcome::Blocked);
        assert_eq!(lock(&mut m, 2, 4, true), LockOutcome::Blocked);
        assert_eq!(lock(&mut m, 3, 4, true), LockOutcome::Blocked);
        // T4 reaches no waiter of its own by two paths: no cycle.
        assert_eq!(lock(&mut m, 4, 5, true), LockOutcome::Blocked);
        assert_eq!(m.stats().deadlocks, 0);
        // T5 queues behind T1, which waits (through the diamond) for T5.
        assert_eq!(lock(&mut m, 5, 1, false), LockOutcome::Deadlock);
    }

    #[test]
    fn cycle_through_a_queued_request_is_a_deadlock() {
        let mut m = page_level_mgr();
        lock(&mut m, 1, 1, false);
        lock(&mut m, 3, 3, true);
        // T2's exclusive request waits for reader T1; T3's shared request
        // is compatible with T1 but queues behind T2, so it waits only
        // for T2's queued request.
        assert_eq!(lock(&mut m, 2, 1, true), LockOutcome::Blocked);
        assert_eq!(lock(&mut m, 3, 1, false), LockOutcome::Blocked);
        // T1 → T3 → T2 → T1.
        assert_eq!(lock(&mut m, 1, 3, true), LockOutcome::Deadlock);
    }

    #[test]
    fn second_of_two_upgrading_readers_is_the_victim() {
        let mut m = page_level_mgr();
        lock(&mut m, 1, 1, false);
        lock(&mut m, 2, 1, false);
        assert_eq!(lock(&mut m, 1, 1, true), LockOutcome::Blocked);
        assert_eq!(lock(&mut m, 2, 1, true), LockOutcome::Deadlock);
        // Aborting T2 grants T1's upgrade: a new reader now waits.
        assert_eq!(m.abort(2), [1]);
        assert_eq!(m.locks_held(1), 1);
        assert_eq!(lock(&mut m, 3, 1, false), LockOutcome::Blocked);
    }

    #[test]
    fn a_committed_blocker_closes_no_cycle() {
        let mut m = page_level_mgr();
        // T3 waits for readers T1 and T2; T1 commits, T3 still waits.
        lock(&mut m, 1, 1, false);
        lock(&mut m, 2, 1, false);
        lock(&mut m, 3, 3, true);
        assert_eq!(lock(&mut m, 3, 1, true), LockOutcome::Blocked);
        assert!(m.release_all(1).is_empty());
        // T1 runs again (as a restarted victim does), holding nothing:
        // nobody waits for it any more.
        assert_eq!(lock(&mut m, 1, 3, true), LockOutcome::Blocked);
        // T2 still closes a cycle through T3.
        assert_eq!(lock(&mut m, 2, 3, true), LockOutcome::Deadlock);
    }

    #[test]
    fn a_woken_waiter_closes_no_cycle() {
        let mut m = page_level_mgr();
        lock(&mut m, 3, 9, true);
        lock(&mut m, 1, 1, true);
        // T3 queues behind T2 on page 1, then both wake together.
        assert_eq!(lock(&mut m, 2, 1, false), LockOutcome::Blocked);
        assert_eq!(lock(&mut m, 3, 1, false), LockOutcome::Blocked);
        assert_eq!(m.release_all(1), [2, 3]);
        // T3 no longer waits for T2 ...
        assert_eq!(lock(&mut m, 2, 9, true), LockOutcome::Blocked);
        // ... but its upgrade now does.
        assert_eq!(lock(&mut m, 3, 1, true), LockOutcome::Deadlock);
    }

    /// The recorded waits-for graph the lock manager used to keep: an edge
    /// is written when a request blocks and deleted when either end
    /// finishes or the waiter wakes.
    #[derive(Default)]
    struct RecordedGraph {
        edges: BTreeMap<TxId, BTreeSet<TxId>>,
    }

    impl RecordedGraph {
        /// True if a blocker reaches `waiter` over recorded edges.
        fn closes_cycle(&self, waiter: TxId, blockers: &[TxId]) -> bool {
            let mut seen = BTreeSet::new();
            let mut stack = blockers.to_vec();
            while let Some(t) = stack.pop() {
                if t == waiter {
                    return true;
                }
                if seen.insert(t) {
                    stack.extend(self.edges.get(&t).into_iter().flatten());
                }
            }
            false
        }

        fn block(&mut self, waiter: TxId, blockers: &[TxId]) {
            self.edges
                .insert(waiter, blockers.iter().copied().collect());
        }

        /// `holder` was granted an exclusive lock while `waiters` were
        /// queued on the item: an upgrade in place, which every queued
        /// request now waits for.  The stored graph never recorded this
        /// edge; without aborts of waiting transactions it needed none,
        /// because a request that queued behind a waiter for the upgrader
        /// reached it through that waiter.
        fn exclusive_grant(&mut self, holder: TxId, waiters: &[Waiter]) {
            for w in waiters {
                self.edges.entry(w.tx).or_default().insert(holder);
            }
        }

        /// `tx` finished, and the transactions in `woken` were granted.
        fn release(&mut self, tx: TxId, woken: &[TxId]) {
            self.edges.remove(&tx);
            for w in woken {
                self.edges.remove(w);
            }
            for blockers in self.edges.values_mut() {
                blockers.remove(&tx);
            }
        }
    }

    /// Every queue's head request conflicts with a holder other than its
    /// own transaction: a request that could be granted never waits.
    fn assert_heads_are_blocked(m: &LockManager, items: u64, context: &str) {
        for page in 0..items {
            let Some(entry) = m.table.entry(LockableId::Page(PageId(page))) else {
                continue;
            };
            if let Some(head) = entry.waiters().first() {
                let blocked = entry
                    .holders()
                    .iter()
                    .any(|&(t, mode)| t != head.tx && !mode.compatible(head.mode));
                assert!(blocked, "{context}: grantable head {head:?} on page {page}");
            }
        }
    }

    /// Random shared and exclusive requests (upgrades among them), commits,
    /// victim aborts and aborts of waiting transactions over a few items:
    /// every denied request is decided as the recorded graph decides it,
    /// and no queue's head could be granted.
    #[test]
    fn deadlock_decisions_match_the_recorded_graph() {
        let (mut checks, mut deadlocks, mut waiting_aborts) = (0, 0, 0);
        for seed in 0..500 {
            let mut rng = SimRng::seed_from(seed);
            let items = 1 + rng.below(10);
            let txs = 2 + rng.below(14);
            let mut m = page_level_mgr();
            let mut graph = RecordedGraph::default();
            for step in 0..200 {
                let context = format!("seed {seed}, step {step}");
                let blocked: Vec<TxId> = (1..=txs).filter(|&t| m.is_blocked(t)).collect();
                if !blocked.is_empty() && rng.chance(0.1) {
                    let tx = blocked[rng.below(blocked.len() as u64) as usize];
                    waiting_aborts += 1;
                    let woken = m.abort(tx).to_vec();
                    assert!(!m.is_blocked(tx) && m.locks_held(tx) == 0, "{context}");
                    for &w in &woken {
                        assert!(!m.is_blocked(w), "{context}: woken {w} still waits");
                    }
                    graph.release(tx, &woken);
                    assert_heads_are_blocked(&m, items, &context);
                    continue;
                }
                let running: Vec<TxId> = (1..=txs).filter(|&t| !m.is_blocked(t)).collect();
                assert!(!running.is_empty(), "{context}: every transaction blocked");
                let tx = running[rng.below(running.len() as u64) as usize];
                if rng.chance(0.2) {
                    let woken = m.release_all(tx).to_vec();
                    graph.release(tx, &woken);
                    assert_heads_are_blocked(&m, items, &context);
                    continue;
                }
                let (page, write) = (rng.below(items), rng.chance(0.5));
                let outcome = lock(&mut m, tx, page, write);
                assert_heads_are_blocked(&m, items, &context);
                if outcome == LockOutcome::Granted {
                    if write {
                        let entry = m.table.entry(LockableId::Page(PageId(page)));
                        let waiters = entry.map(LockEntry::waiters).unwrap_or_default();
                        graph.exclusive_grant(tx, waiters);
                    }
                    continue;
                }
                checks += 1;
                let expected = graph.closes_cycle(tx, &m.blockers);
                let deadlock = outcome == LockOutcome::Deadlock;
                assert_eq!(deadlock, expected, "{context}, tx {tx}");
                if deadlock {
                    deadlocks += 1;
                    let woken = m.abort(tx).to_vec();
                    graph.release(tx, &woken);
                    assert_heads_are_blocked(&m, items, &context);
                } else {
                    graph.block(tx, &m.blockers);
                }
            }
        }
        assert!(
            checks > 10_000 && deadlocks > 1_000 && waiting_aborts > 1_000,
            "{checks} / {deadlocks} / {waiting_aborts}"
        );
    }

    #[test]
    fn abort_of_a_waiting_transaction_wakes_the_requests_behind_it() {
        let mut m = page_level_mgr();
        // Reader T1 holds page 1; T2's exclusive request waits for it, and
        // reader T3 queues behind T2.
        assert_eq!(lock(&mut m, 1, 1, false), LockOutcome::Granted);
        assert_eq!(lock(&mut m, 2, 1, true), LockOutcome::Blocked);
        assert_eq!(lock(&mut m, 3, 1, false), LockOutcome::Blocked);
        // Aborting T2 leaves nothing ahead of T3 that conflicts with it.
        assert_eq!(m.abort(2), [3]);
        assert!(!m.is_blocked(3));
        assert_eq!(m.locks_held(3), 1);
        // T3 holds the lock: T1's commit wakes nobody, and T3 releases it.
        assert!(m.release_all(1).is_empty());
        assert!(m.release_all(3).is_empty());
        assert_eq!(m.stats().releases, 2);
    }

    #[test]
    fn abort_of_waiting_transaction_cancels_wait() {
        let mut m = page_level_mgr();
        m.acquire(1, &obj_ref(0, 1, 1, true));
        assert_eq!(m.acquire(2, &obj_ref(0, 1, 2, true)), LockOutcome::Blocked);
        assert!(m.abort(2).is_empty());
        assert!(!m.is_blocked(2));
        // T1's later release wakes nobody.
        assert!(m.release_all(1).is_empty());
    }

    #[test]
    fn repeated_access_to_same_page_takes_one_lock() {
        let mut m = page_level_mgr();
        assert_eq!(m.acquire(1, &obj_ref(0, 3, 1, false)), LockOutcome::Granted);
        assert_eq!(m.acquire(1, &obj_ref(0, 3, 2, true)), LockOutcome::Granted);
        assert_eq!(m.locks_held(1), 1);
        assert_eq!(m.stats().requests, 2);
        assert_eq!(m.stats().immediate_grants, 2);
    }

    #[test]
    fn unknown_partition_defaults_to_page_locking() {
        let m = LockManager::new(vec![CcMode::None, CcMode::Object]);
        assert_eq!(m.mode(0), CcMode::None);
        assert_eq!(m.mode(1), CcMode::Object);
        assert_eq!(m.mode(5), CcMode::Page);
    }

    #[test]
    fn blocked_transaction_count_tracks_waiters() {
        let mut m = page_level_mgr();
        m.acquire(1, &obj_ref(0, 1, 1, true));
        m.acquire(2, &obj_ref(0, 1, 1, true));
        m.acquire(3, &obj_ref(0, 1, 1, true));
        assert_eq!(m.blocked_transactions(), 2);
        m.release_all(1);
        assert_eq!(m.blocked_transactions(), 1);
    }

    #[test]
    fn crash_reset_drops_all_locks_and_waiters() {
        let mut m = page_level_mgr();
        assert_eq!(m.acquire(1, &obj_ref(0, 1, 1, true)), LockOutcome::Granted);
        assert_eq!(m.acquire(1, &obj_ref(0, 2, 2, true)), LockOutcome::Granted);
        assert_eq!(m.acquire(2, &obj_ref(0, 1, 3, true)), LockOutcome::Blocked);
        let before = m.stats();
        assert_eq!(m.crash_reset(), 2);
        assert_eq!(m.blocked_transactions(), 0);
        assert_eq!(m.locks_held(1), 0);
        // Stats survive the crash (the report covers the whole run) ...
        assert_eq!(m.stats(), before);
        // ... and the table is genuinely empty: a restart transaction can
        // take any lock immediately, including the previously contended one.
        assert_eq!(m.acquire(9, &obj_ref(0, 1, 1, true)), LockOutcome::Granted);
        assert!(m.release_all(9).is_empty());
    }

    #[test]
    fn released_held_lists_are_recycled() {
        let mut m = page_level_mgr();
        m.acquire(1, &obj_ref(0, 1, 1, true));
        m.acquire(1, &obj_ref(0, 2, 2, true));
        assert!(m.spare_held.is_empty());
        assert!(m.release_all(1).is_empty());
        assert_eq!(m.spare_held.len(), 1);
        assert!(m.spare_held[0].is_empty() && m.spare_held[0].capacity() >= 2);
        // The next transaction's first lock reuses the list.
        m.acquire(2, &obj_ref(0, 3, 3, false));
        assert!(m.spare_held.is_empty());
        assert_eq!(m.locks_held(2), 1);
    }

    #[test]
    fn reset_stats_clears_counts() {
        let mut m = page_level_mgr();
        m.acquire(1, &obj_ref(0, 1, 1, true));
        m.reset_stats();
        assert_eq!(m.stats(), LockManagerStats::default());
    }
}
