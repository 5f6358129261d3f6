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
    #[cfg(test)]
    pub fn holders(&self) -> &[(TxId, LockMode)] {
        &self.holders
    }

    /// Waiting requests in FIFO order.
    #[cfg(test)]
    pub fn waiters(&self) -> &[Waiter] {
        &self.waiters
    }

    fn holds(&self, tx: TxId) -> Option<LockMode> {
        self.holders.iter().find(|(t, _)| *t == tx).map(|(_, m)| *m)
    }

    /// True if a new request in `mode` by a transaction that does not hold
    /// the item can be granted right now, honouring FIFO fairness (a
    /// compatible request behind waiters must wait).
    fn can_grant(&self, mode: LockMode) -> bool {
        self.waiters.is_empty() && self.holders.iter().all(|(_, m)| m.compatible(mode))
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
    #[cfg(test)]
    pub fn active_items(&self) -> usize {
        self.entries.len()
    }

    /// Read access to an entry (diagnostics / tests).
    #[cfg(test)]
    pub fn entry(&self, id: LockableId) -> Option<&LockEntry> {
        self.entries.get(&id)
    }

    /// Writes into `out` (sorted, deduplicated, replacing its contents) all
    /// transactions ahead of `tx` (holders plus earlier waiters) that `tx`
    /// would wait for if queued on `id` in `mode`: the blockers of a denied
    /// request, which the deadlock check looks for among what waits for `tx`.
    pub fn wait_for_set(&self, id: LockableId, tx: TxId, mode: LockMode, out: &mut Vec<TxId>) {
        out.clear();
        if let Some(e) = self.entries.get(&id) {
            for (t, m) in &e.holders {
                if *t != tx && !m.compatible(mode) {
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
    }

    /// The transactions queued on `id` that wait for `tx`, the reverse of
    /// [`wait_for_set`](Self::wait_for_set): every request behind `tx`'s own
    /// queued request, and every other request whose mode conflicts with the
    /// mode `tx` holds.
    pub fn waiting_for(&self, id: LockableId, tx: TxId) -> impl Iterator<Item = TxId> + '_ {
        let entry = self.entries.get(&id);
        let held = entry.and_then(|e| e.holds(tx));
        let mut behind = false;
        let waiters = entry.map(|e| e.waiters.as_slice()).unwrap_or_default();
        waiters.iter().filter_map(move |w| {
            if w.tx == tx {
                behind = true;
                None
            } else if behind || held.is_some_and(|m| !m.compatible(w.mode)) {
                Some(w.tx)
            } else {
                None
            }
        })
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
        if entry.can_grant(mode) {
            entry.holders.push((tx, mode));
            TableOutcome::Granted
        } else {
            entry.waiters.push(Waiter { tx, mode });
            TableOutcome::Blocked
        }
    }

    /// Removes a waiting request of `tx` on `id` (after an abort) and, as
    /// [`release`](Self::release) does, grants the queued requests that
    /// have now become compatible (FIFO), appending their transactions to
    /// `granted` in grant order.  Returns true if a waiter was removed.
    pub fn cancel_wait(&mut self, id: LockableId, tx: TxId, granted: &mut Vec<TxId>) -> bool {
        let Entry::Occupied(mut occ) = self.entries.entry(id) else {
            return false;
        };
        let entry = occ.get_mut();
        let before = entry.waiters.len();
        entry.waiters.retain(|w| w.tx != tx);
        let removed = entry.waiters.len() != before;
        Self::promote_waiters(entry, granted);
        if entry.holders.is_empty() && entry.waiters.is_empty() {
            self.spare.push(occ.remove());
        }
        removed
    }

    /// Releases the lock held by `tx` on `id` and grants as many queued
    /// requests as have now become compatible (FIFO).  Appends the
    /// transactions whose queued requests this release granted to
    /// `granted`, in grant order.
    pub fn release(&mut self, id: LockableId, tx: TxId, granted: &mut Vec<TxId>) {
        let Entry::Occupied(mut occ) = self.entries.entry(id) else {
            return;
        };
        let entry = occ.get_mut();
        entry.holders.retain(|(t, _)| *t != tx);
        Self::promote_waiters(entry, granted);
        if entry.holders.is_empty() && entry.waiters.is_empty() {
            self.spare.push(occ.remove());
        }
    }

    fn promote_waiters(entry: &mut LockEntry, granted: &mut Vec<TxId>) {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> LockableId {
        LockableId::Page(PageId(n))
    }

    /// [`LockTable::release`] with the granted transactions collected.
    fn release(t: &mut LockTable, id: LockableId, tx: TxId) -> Vec<TxId> {
        let mut granted = Vec::new();
        t.release(id, tx, &mut granted);
        granted
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
            t.entry(page(1)).unwrap().holders(),
            &[(1, LockMode::Shared)]
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
        let granted = release(&mut t, page(1), 2);
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
        let mut granted = Vec::new();
        t.release(page(1), 1, &mut granted);
        // The two shared waiters are granted together; the exclusive waits.
        assert_eq!(granted, [2, 3]);
        assert_eq!(t.entry(page(1)).unwrap().waiters().len(), 1);
        t.release(page(1), 2, &mut granted);
        assert_eq!(
            granted,
            [2, 3],
            "a release that grants nothing appends nothing"
        );
        t.release(page(1), 3, &mut granted);
        assert_eq!(granted, [2, 3, 4]);
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

    /// [`LockTable::cancel_wait`] with the granted transactions collected.
    fn cancel(t: &mut LockTable, id: LockableId, tx: TxId) -> (bool, Vec<TxId>) {
        let mut granted = Vec::new();
        let removed = t.cancel_wait(id, tx, &mut granted);
        (removed, granted)
    }

    #[test]
    fn cancel_wait_removes_queued_request() {
        let mut t = LockTable::new();
        t.request(page(1), 1, LockMode::Exclusive);
        t.request(page(1), 2, LockMode::Exclusive);
        assert_eq!(cancel(&mut t, page(1), 2), (true, vec![]));
        assert_eq!(cancel(&mut t, page(1), 2), (false, vec![]));
        assert_eq!(release(&mut t, page(1), 1), Vec::<TxId>::new());
        // Entry is fully cleaned up.
        assert_eq!(t.active_items(), 0);
        assert_eq!(cancel(&mut t, page(1), 2), (false, vec![]));
    }

    #[test]
    fn cancel_wait_grants_the_requests_behind_it() {
        let mut t = LockTable::new();
        t.request(page(1), 1, LockMode::Shared);
        t.request(page(1), 2, LockMode::Exclusive);
        t.request(page(1), 3, LockMode::Shared);
        t.request(page(1), 4, LockMode::Shared);
        t.request(page(1), 5, LockMode::Exclusive);
        // With the exclusive request gone, the readers behind it are
        // compatible with reader 1; the exclusive request still waits.
        assert_eq!(cancel(&mut t, page(1), 2), (true, vec![3, 4]));
        let e = t.entry(page(1)).unwrap();
        assert_eq!(
            e.holders(),
            &[
                (1, LockMode::Shared),
                (3, LockMode::Shared),
                (4, LockMode::Shared)
            ]
        );
        assert_eq!(
            e.waiters(),
            &[Waiter {
                tx: 5,
                mode: LockMode::Exclusive
            }]
        );
        // Cancelling a request that is not at the head grants nothing.
        t.request(page(1), 6, LockMode::Shared);
        assert_eq!(cancel(&mut t, page(1), 6), (true, vec![]));
    }

    #[test]
    fn emptied_entries_are_recycled() {
        let mut t = LockTable::new();
        t.request(page(1), 1, LockMode::Exclusive);
        t.request(page(1), 2, LockMode::Exclusive);
        assert!(t.spare.is_empty());
        assert_eq!(release(&mut t, page(1), 1), vec![2]);
        assert_eq!(release(&mut t, page(1), 2), Vec::<TxId>::new());
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
        assert_eq!(cancel(&mut t, page(9), 4), (true, vec![]));
        assert_eq!(release(&mut t, page(9), 3), Vec::<TxId>::new());
        assert_eq!((t.active_items(), t.spare.len()), (0, 1));
    }

    #[test]
    fn wait_for_set_includes_holders_and_waiters() {
        let mut t = LockTable::new();
        t.request(page(1), 1, LockMode::Exclusive);
        t.request(page(1), 2, LockMode::Exclusive);
        // The buffer's old contents are replaced.
        let mut wf = vec![7];
        t.wait_for_set(page(1), 3, LockMode::Shared, &mut wf);
        assert_eq!(wf, [1, 2]);
    }

    #[test]
    fn waiting_for_lists_the_requests_that_wait_for_a_transaction() {
        let mut t = LockTable::new();
        t.request(page(1), 1, LockMode::Shared);
        t.request(page(1), 2, LockMode::Shared);
        t.request(page(1), 1, LockMode::Exclusive); // upgrade, waits for 2
        t.request(page(1), 3, LockMode::Shared); // queues behind the upgrade
        t.request(page(1), 4, LockMode::Exclusive);
        let waiting_for = |tx| t.waiting_for(page(1), tx).collect::<Vec<_>>();
        // Behind 1's queued upgrade ...
        assert_eq!(waiting_for(1), [3, 4]);
        // ... and in conflict with 2's shared lock, which reader 3 is not.
        assert_eq!(waiting_for(2), [1, 4]);
        assert_eq!(waiting_for(3), [4]);
        assert!(waiting_for(4).is_empty());
        // The reverse of the blockers 4 had when it queued.
        let mut wf = Vec::new();
        t.wait_for_set(page(1), 4, LockMode::Exclusive, &mut wf);
        assert_eq!(wf, [1, 2, 3]);
        assert!(t.waiting_for(page(9), 1).next().is_none());
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
