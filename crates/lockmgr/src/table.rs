//! The lock table: per-item lock queues with shared/exclusive modes.
//!
//! Lockable items are either pages or objects, depending on the granularity
//! chosen for the partition ("page- and object-level locking ... offered on a
//! per-partition basis", §3.2).  The table implements long (strict) locks:
//! granted locks are only released at end of transaction.
//!
//! An item has an entry only while it is held or awaited, so entries come
//! and go with every lock.  Emptied entries are kept in a free pool and
//! reused, holder and waiter lists with their capacity, so granting and
//! releasing locks allocates nothing in steady state.

use std::collections::hash_map::Entry;

use dbmodel::{ObjectId, PageId};
use simkernel::IdMap;

/// Transaction identifier used by the lock manager.
pub type TxId = u64;

/// Lock mode: shared (read) or exclusive (write).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared lock — compatible with other shared locks.
    Shared,
    /// Exclusive lock — incompatible with everything.
    Exclusive,
}

impl LockMode {
    /// True if a holder in `self` mode is compatible with a new request in
    /// `other` mode.
    #[inline]
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }

    /// True for exclusive locks.
    #[inline]
    pub fn is_exclusive(self) -> bool {
        matches!(self, LockMode::Exclusive)
    }
}

/// Identifier of a lockable item: a page or an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockableId {
    /// A page-granularity lock.
    Page(PageId),
    /// An object-granularity lock.
    Object(ObjectId),
}

/// One queued (not yet granted) request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter {
    /// The requesting transaction.
    pub tx: TxId,
    /// Requested mode.
    pub mode: LockMode,
}

/// State of a single lockable item.
#[derive(Debug, Clone, Default)]
pub struct LockEntry {
    /// Currently granted holders with their modes.  With an exclusive holder
    /// this contains exactly one element.
    holders: Vec<(TxId, LockMode)>,
    /// FIFO queue of waiting requests.
    waiters: Vec<Waiter>,
}

impl LockEntry {
    /// Granted holders.
    pub fn holders(&self) -> &[(TxId, LockMode)] {
        &self.holders
    }

    /// Waiting requests in FIFO order.
    pub fn waiters(&self) -> &[Waiter] {
        &self.waiters
    }

    fn holds(&self, tx: TxId) -> Option<LockMode> {
        self.holders.iter().find(|(t, _)| *t == tx).map(|(_, m)| *m)
    }

    /// True if a new request by `tx` in `mode` can be granted right now,
    /// honouring FIFO fairness (a compatible request behind incompatible
    /// waiters must wait).
    fn can_grant(&self, tx: TxId, mode: LockMode) -> bool {
        let others_compatible = self
            .holders
            .iter()
            .filter(|(t, _)| *t != tx)
            .all(|(_, m)| m.compatible(mode));
        others_compatible && (self.waiters.is_empty() || self.holds(tx).is_some())
    }
}

/// Result of a lock-table request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableOutcome {
    /// The lock is granted (possibly it was already held in a sufficient mode).
    Granted,
    /// The request conflicts and was appended to the item's wait queue.
    /// The conflicting holders are needed for deadlock detection.
    Blocked,
}

/// The lock table.
#[derive(Debug, Default)]
pub struct LockTable {
    entries: IdMap<LockableId, LockEntry>,
    /// Emptied entries (lists cleared, capacity kept) for reuse.
    spare: Vec<LockEntry>,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of items that currently have holders or waiters.
    pub fn active_items(&self) -> usize {
        self.entries.len()
    }

    /// Read access to an entry (diagnostics / tests).
    pub fn entry(&self, id: LockableId) -> Option<&LockEntry> {
        self.entries.get(&id)
    }

    /// Transactions currently holding `id` in a mode incompatible with `mode`,
    /// excluding `tx` itself.
    pub fn conflicting_holders(&self, id: LockableId, tx: TxId, mode: LockMode) -> Vec<TxId> {
        match self.entries.get(&id) {
            None => Vec::new(),
            Some(e) => e
                .holders
                .iter()
                .filter(|(t, m)| *t != tx && !m.compatible(mode))
                .map(|(t, _)| *t)
                .collect(),
        }
    }

    /// All transactions ahead of `tx` (holders plus earlier waiters) that `tx`
    /// would wait for if queued on `id` in `mode`.  Used to build waits-for
    /// edges.
    pub fn wait_for_set(&self, id: LockableId, tx: TxId, mode: LockMode) -> Vec<TxId> {
        let mut out = Vec::new();
        if let Some(e) = self.entries.get(&id) {
            for (t, m) in &e.holders {
                if *t != tx && (!m.compatible(mode) || mode.is_exclusive() || m.is_exclusive()) {
                    out.push(*t);
                }
            }
            for w in &e.waiters {
                if w.tx != tx {
                    out.push(w.tx);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Requests `id` in `mode` for `tx`.
    ///
    /// Lock upgrades (shared → exclusive) are supported: if `tx` already holds
    /// the item in shared mode and no other transaction holds it, the lock is
    /// converted in place.
    pub fn request(&mut self, id: LockableId, tx: TxId, mode: LockMode) -> TableOutcome {
        let spare = &mut self.spare;
        let entry = self
            .entries
            .entry(id)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        if let Some(held) = entry.holds(tx) {
            if held.is_exclusive() || !mode.is_exclusive() {
                return TableOutcome::Granted; // already sufficient
            }
            // Upgrade request: allowed only if tx is the sole holder.
            let sole = entry.holders.iter().all(|(t, _)| *t == tx);
            if sole {
                for h in &mut entry.holders {
                    if h.0 == tx {
                        h.1 = LockMode::Exclusive;
                    }
                }
                return TableOutcome::Granted;
            }
            entry.waiters.push(Waiter { tx, mode });
            return TableOutcome::Blocked;
        }
        if entry.can_grant(tx, mode) {
            entry.holders.push((tx, mode));
            TableOutcome::Granted
        } else {
            entry.waiters.push(Waiter { tx, mode });
            TableOutcome::Blocked
        }
    }

    /// Removes a waiting request of `tx` on `id` (after an abort).  Returns
    /// true if a waiter was removed.
    pub fn cancel_wait(&mut self, id: LockableId, tx: TxId) -> bool {
        if let Some(entry) = self.entries.get_mut(&id) {
            let before = entry.waiters.len();
            entry.waiters.retain(|w| w.tx != tx);
            let removed = entry.waiters.len() != before;
            if entry.holders.is_empty() && entry.waiters.is_empty() {
                let emptied = self.entries.remove(&id).expect("entry present");
                self.spare.push(emptied);
            }
            removed
        } else {
            false
        }
    }

    /// Releases the lock held by `tx` on `id` and grants as many queued
    /// requests as have now become compatible (FIFO).  Returns the
    /// transactions whose queued requests were granted by this release.
    pub fn release(&mut self, id: LockableId, tx: TxId) -> Vec<TxId> {
        let Entry::Occupied(mut occ) = self.entries.entry(id) else {
            return Vec::new();
        };
        let entry = occ.get_mut();
        entry.holders.retain(|(t, _)| *t != tx);
        let granted = Self::promote_waiters(entry);
        if entry.holders.is_empty() && entry.waiters.is_empty() {
            self.spare.push(occ.remove());
        }
        granted
    }

    fn promote_waiters(entry: &mut LockEntry) -> Vec<TxId> {
        let mut granted = Vec::new();
        while let Some(w) = entry.waiters.first().copied() {
            let compatible = entry
                .holders
                .iter()
                .filter(|(t, _)| *t != w.tx)
                .all(|(_, m)| m.compatible(w.mode));
            if !compatible {
                break;
            }
            entry.waiters.remove(0);
            if let Some(h) = entry.holders.iter_mut().find(|(t, _)| *t == w.tx) {
                // Waiting upgrade now possible.
                h.1 = LockMode::Exclusive;
            } else {
                entry.holders.push((w.tx, w.mode));
            }
            granted.push(w.tx);
            if w.mode.is_exclusive() {
                break;
            }
        }
        granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> LockableId {
        LockableId::Page(PageId(n))
    }

    #[test]
    fn shared_locks_are_compatible() {
        let mut t = LockTable::new();
        assert_eq!(
            t.request(page(1), 1, LockMode::Shared),
            TableOutcome::Granted
        );
        assert_eq!(
            t.request(page(1), 2, LockMode::Shared),
            TableOutcome::Granted
        );
        assert_eq!(t.entry(page(1)).unwrap().holders().len(), 2);
    }

    #[test]
    fn exclusive_conflicts_with_shared() {
        let mut t = LockTable::new();
        t.request(page(1), 1, LockMode::Shared);
        assert_eq!(
            t.request(page(1), 2, LockMode::Exclusive),
            TableOutcome::Blocked
        );
        assert_eq!(
            t.conflicting_holders(page(1), 2, LockMode::Exclusive),
            vec![1]
        );
    }

    #[test]
    fn rerequest_of_held_lock_is_granted() {
        let mut t = LockTable::new();
        t.request(page(1), 1, LockMode::Exclusive);
        assert_eq!(
            t.request(page(1), 1, LockMode::Shared),
            TableOutcome::Granted
        );
        assert_eq!(
            t.request(page(1), 1, LockMode::Exclusive),
            TableOutcome::Granted
        );
    }

    #[test]
    fn upgrade_when_sole_holder() {
        let mut t = LockTable::new();
        t.request(page(1), 1, LockMode::Shared);
        assert_eq!(
            t.request(page(1), 1, LockMode::Exclusive),
            TableOutcome::Granted
        );
        assert!(t.entry(page(1)).unwrap().holders()[0].1.is_exclusive());
    }

    #[test]
    fn upgrade_blocks_behind_other_reader() {
        let mut t = LockTable::new();
        t.request(page(1), 1, LockMode::Shared);
        t.request(page(1), 2, LockMode::Shared);
        assert_eq!(
            t.request(page(1), 1, LockMode::Exclusive),
            TableOutcome::Blocked
        );
        // When tx 2 releases, tx 1's upgrade is granted.
        let granted = t.release(page(1), 2);
        assert_eq!(granted, vec![1]);
        assert!(t.entry(page(1)).unwrap().holders()[0].1.is_exclusive());
    }

    #[test]
    fn fifo_wakeup_on_release() {
        let mut t = LockTable::new();
        t.request(page(1), 1, LockMode::Exclusive);
        t.request(page(1), 2, LockMode::Shared);
        t.request(page(1), 3, LockMode::Shared);
        t.request(page(1), 4, LockMode::Exclusive);
        let granted = t.release(page(1), 1);
        // The two shared waiters are granted together; the exclusive waits.
        assert_eq!(granted, vec![2, 3]);
        assert_eq!(t.entry(page(1)).unwrap().waiters().len(), 1);
        assert_eq!(t.release(page(1), 2), Vec::<TxId>::new());
        assert_eq!(t.release(page(1), 3), vec![4]);
    }

    #[test]
    fn fairness_new_shared_request_waits_behind_queued_exclusive() {
        let mut t = LockTable::new();
        t.request(page(1), 1, LockMode::Shared);
        t.request(page(1), 2, LockMode::Exclusive); // queued
                                                    // A new shared request must not overtake the queued exclusive one.
        assert_eq!(
            t.request(page(1), 3, LockMode::Shared),
            TableOutcome::Blocked
        );
    }

    #[test]
    fn cancel_wait_removes_queued_request() {
        let mut t = LockTable::new();
        t.request(page(1), 1, LockMode::Exclusive);
        t.request(page(1), 2, LockMode::Exclusive);
        assert!(t.cancel_wait(page(1), 2));
        assert!(!t.cancel_wait(page(1), 2));
        assert_eq!(t.release(page(1), 1), Vec::<TxId>::new());
        // Entry is fully cleaned up.
        assert_eq!(t.active_items(), 0);
    }

    #[test]
    fn emptied_entries_are_recycled() {
        let mut t = LockTable::new();
        t.request(page(1), 1, LockMode::Exclusive);
        t.request(page(1), 2, LockMode::Exclusive);
        assert!(t.spare.is_empty());
        assert_eq!(t.release(page(1), 1), vec![2]);
        assert_eq!(t.release(page(1), 2), Vec::<TxId>::new());
        // The emptied entry went to the pool with its lists' capacity ...
        assert_eq!(t.spare.len(), 1);
        assert!(t.spare[0].holders.capacity() > 0 && t.spare[0].waiters.capacity() > 0);
        // ... and the next item to be locked takes it back, empty.
        t.request(page(9), 3, LockMode::Shared);
        assert!(t.spare.is_empty());
        assert_eq!(
            t.entry(page(9)).unwrap().holders(),
            &[(3, LockMode::Shared)]
        );
        assert!(t.entry(page(9)).unwrap().waiters().is_empty());
        t.request(page(9), 4, LockMode::Exclusive);
        assert!(t.cancel_wait(page(9), 4));
        assert_eq!(t.release(page(9), 3), Vec::<TxId>::new());
        assert_eq!((t.active_items(), t.spare.len()), (0, 1));
    }

    #[test]
    fn wait_for_set_includes_holders_and_waiters() {
        let mut t = LockTable::new();
        t.request(page(1), 1, LockMode::Exclusive);
        t.request(page(1), 2, LockMode::Exclusive);
        let wf = t.wait_for_set(page(1), 3, LockMode::Shared);
        assert_eq!(wf, vec![1, 2]);
    }

    #[test]
    fn object_and_page_ids_are_distinct_items() {
        let mut t = LockTable::new();
        assert_eq!(
            t.request(LockableId::Page(PageId(7)), 1, LockMode::Exclusive),
            TableOutcome::Granted
        );
        assert_eq!(
            t.request(LockableId::Object(ObjectId(7)), 2, LockMode::Exclusive),
            TableOutcome::Granted
        );
        assert_eq!(t.active_items(), 2);
    }
}
