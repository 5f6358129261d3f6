//! The lock manager: ties the lock table, the waits-for graph and the
//! per-partition concurrency-control modes together and keeps the statistics
//! TPSIM reports (lock requests, conflicts, deadlocks).

use dbmodel::{AccessMode, Database, ObjectRef, PartitionId};
use simkernel::IdMap;

use crate::deadlock::WaitsForGraph;
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
    graph: WaitsForGraph,
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
    stats: LockManagerStats,
}

impl LockManager {
    /// Creates a lock manager with the given per-partition modes.
    pub fn new(modes: Vec<CcMode>) -> Self {
        Self {
            modes,
            table: LockTable::new(),
            graph: WaitsForGraph::new(),
            held: IdMap::default(),
            spare_held: Vec::new(),
            waiting_on: IdMap::default(),
            stats: LockManagerStats::default(),
        }
    }

    /// Convenience constructor: the same mode for every partition of `db`.
    pub fn uniform(db: &Database, mode: CcMode) -> Self {
        Self::new(vec![mode; db.num_partitions()])
    }

    /// Overrides the mode of one partition.
    pub fn set_mode(&mut self, partition: PartitionId, mode: CcMode) {
        if partition >= self.modes.len() {
            self.modes.resize(partition + 1, CcMode::default());
        }
        self.modes[partition] = mode;
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
    pub fn blocked_transactions(&self) -> usize {
        self.waiting_on.len()
    }

    /// Number of locks currently held by `tx`.
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
                let blockers = self.table.wait_for_set(item, tx, req.mode);
                if self.graph.would_deadlock(tx, &blockers) {
                    // Abort the requester: remove the queued request again.
                    self.table.cancel_wait(item, tx);
                    self.stats.deadlocks += 1;
                    LockOutcome::Deadlock
                } else {
                    self.graph.add_waits(tx, &blockers);
                    self.waiting_on.insert(tx, item);
                    self.stats.conflicts += 1;
                    LockOutcome::Blocked
                }
            }
        }
    }

    /// Called when the lock table has granted a queued request of `tx`
    /// (returned from a release).  Marks the lock as held and clears the
    /// waits-for edges.
    fn on_wakeup(&mut self, tx: TxId) {
        if let Some(item) = self.waiting_on.remove(&tx) {
            self.note_held(tx, item);
        }
        self.graph.clear_waits(tx);
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

    /// Releases all locks of `tx` (strict 2PL: at commit, phase 2).
    /// Returns the transactions whose queued requests became granted; the
    /// caller must resume them.
    pub fn release_all(&mut self, tx: TxId) -> Vec<TxId> {
        let mut woken = Vec::new();
        if let Some(mut items) = self.held.remove(&tx) {
            for &item in &items {
                self.stats.releases += 1;
                for w in self.table.release(item, tx) {
                    self.on_wakeup(w);
                    woken.push(w);
                }
            }
            items.clear();
            self.spare_held.push(items);
        }
        self.graph.remove_transaction(tx);
        woken.sort_unstable();
        woken.dedup();
        woken
    }

    /// Aborts `tx`: cancels a pending wait if any and releases all held locks.
    /// Returns the transactions woken by the released locks.
    pub fn abort(&mut self, tx: TxId) -> Vec<TxId> {
        if let Some(item) = self.waiting_on.remove(&tx) {
            self.table.cancel_wait(item, tx);
        }
        self.release_all(tx)
    }

    /// True if `tx` is currently blocked.
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
        self.graph = WaitsForGraph::new();
        self.held.clear();
        self.waiting_on.clear();
        held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::{ObjectId, PageId};

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
        let woken = m.release_all(1);
        assert_eq!(woken, vec![2]);
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
        let woken = m.abort(2);
        assert_eq!(woken, vec![1]);
        assert_eq!(m.locks_held(1), 2);
    }

    #[test]
    fn abort_of_waiting_transaction_cancels_wait() {
        let mut m = page_level_mgr();
        m.acquire(1, &obj_ref(0, 1, 1, true));
        assert_eq!(m.acquire(2, &obj_ref(0, 1, 2, true)), LockOutcome::Blocked);
        let woken = m.abort(2);
        assert!(woken.is_empty());
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
    fn set_mode_overrides_partition() {
        let db_less = LockManager::new(vec![CcMode::Page]);
        assert_eq!(db_less.mode(5), CcMode::Page); // default for unknown
        let mut m = LockManager::new(vec![CcMode::Page]);
        m.set_mode(0, CcMode::None);
        assert_eq!(m.mode(0), CcMode::None);
        m.set_mode(3, CcMode::Object);
        assert_eq!(m.mode(3), CcMode::Object);
        assert_eq!(m.mode(1), CcMode::Page);
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
        assert_eq!(m.release_all(9), Vec::<TxId>::new());
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
