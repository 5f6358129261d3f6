//! The dirty-page table of the recovery subsystem.
//!
//! Tracks, per buffer pool, the pages that carry a *committed* update which
//! has not yet reached non-volatile storage, together with the page's
//! recovery LSN (the LSN of the oldest such update).  The transaction engine
//! inserts entries when an update transaction commits; the buffer manager
//! removes them the moment the page's current version is propagated —
//! written back to its disk unit, migrated into the (non-volatile) NVEM
//! cache or write buffer, forced at commit, or invalidated because another
//! node's commit superseded the copy.
//!
//! A fuzzy checkpoint reads [`DirtyPageTable::min_rec_lsn`] to find the redo
//! boundary; a crash reads the whole table to know which pages must be
//! re-read and redone.

use dbmodel::PageId;
use simkernel::IdMap;

/// Log sequence number (mirrors the engine's `recovery::Lsn`; the buffer
/// manager treats it as an opaque monotonically increasing stamp).
pub type RecLsn = u64;

/// Pages with committed-but-unpropagated updates and their recovery LSNs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtyPageTable {
    entries: IdMap<PageId, RecLsn>,
}

impl DirtyPageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a committed update to `page` with the given LSN.  If the page
    /// already has an unpropagated committed update the earlier recovery LSN
    /// is kept (redo must start at the oldest lost update).
    pub fn note_committed_update(&mut self, page: PageId, lsn: RecLsn) {
        self.entries.entry(page).or_insert(lsn);
    }

    /// Removes `page` from the table (its current version reached
    /// non-volatile storage, or another node took ownership).  Returns the
    /// page's recovery LSN if it was present.
    pub fn clear_page(&mut self, page: PageId) -> Option<RecLsn> {
        self.entries.remove(&page)
    }

    /// The recovery LSN of `page`, if it has an unpropagated committed
    /// update.
    pub fn rec_lsn(&self, page: PageId) -> Option<RecLsn> {
        self.entries.get(&page).copied()
    }

    /// The minimum recovery LSN over all entries — the redo boundary a fuzzy
    /// checkpoint records.  `None` when every committed update is propagated.
    pub fn min_rec_lsn(&self) -> Option<RecLsn> {
        // analyzer: allow(hash-iter): min over all values is order-independent
        self.entries.values().copied().min()
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no page carries an unpropagated committed update.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(page, recovery LSN)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (PageId, RecLsn)> + '_ {
        // analyzer: allow(hash-iter): documented-unordered accessor; callers
        // must fold order-independently or sort (recovery folds a per-page min)
        self.entries.iter().map(|(p, l)| (*p, *l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_committed_update_pins_the_recovery_lsn() {
        let mut t = DirtyPageTable::new();
        assert!(t.is_empty());
        t.note_committed_update(PageId(1), 10);
        // A later commit to the same unpropagated page keeps the older LSN.
        t.note_committed_update(PageId(1), 25);
        assert_eq!(t.rec_lsn(PageId(1)), Some(10));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn min_rec_lsn_is_the_redo_boundary() {
        let mut t = DirtyPageTable::new();
        assert_eq!(t.min_rec_lsn(), None);
        t.note_committed_update(PageId(1), 30);
        t.note_committed_update(PageId(2), 12);
        t.note_committed_update(PageId(3), 44);
        assert_eq!(t.min_rec_lsn(), Some(12));
        assert_eq!(t.clear_page(PageId(2)), Some(12));
        assert_eq!(t.min_rec_lsn(), Some(30));
        assert_eq!(t.clear_page(PageId(2)), None);
    }

    #[test]
    fn propagation_then_recommit_restarts_the_lsn() {
        let mut t = DirtyPageTable::new();
        t.note_committed_update(PageId(7), 5);
        t.clear_page(PageId(7)); // written back
        t.note_committed_update(PageId(7), 90);
        assert_eq!(t.rec_lsn(PageId(7)), Some(90));
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs, vec![(PageId(7), 90)]);
    }
}
