//! The dirty-page table of the recovery subsystem.
//!
//! Tracks the pages of a buffer pool that carry a *committed* update which
//! has not yet reached non-volatile storage, together with the page's
//! partition, its recovery LSN (the LSN of the oldest such update) and the
//! number of committed updates since.  The transaction engine inserts
//! entries when an update transaction commits; the buffer manager removes
//! them the moment the page's current version is propagated — written back
//! to its disk unit, migrated into the (non-volatile) NVEM cache or write
//! buffer, or forced at commit.  Recovery runs on one node, so one table
//! describes every lost update and no other node's commit ever supersedes
//! an entry.
//!
//! A fuzzy checkpoint reads [`DirtyPageTable::min_rec_lsn`] to find the redo
//! boundary; a crash asks [`DirtyPageTable::redo_pass`] which pages to redo
//! and how many committed updates that replays.

use dbmodel::PageId;
use simkernel::IdMap;

/// Log sequence number (mirrors the engine's `recovery::Lsn`; the buffer
/// manager treats it as an opaque monotonically increasing stamp).
pub type RecLsn = u64;

/// One page's unpropagated committed updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirtyEntry {
    partition: usize,
    rec_lsn: RecLsn,
    /// Committed updates since (and including) the one at `rec_lsn`.
    updates: u64,
}

/// Pages with committed-but-unpropagated updates and their recovery LSNs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtyPageTable {
    entries: IdMap<PageId, DirtyEntry>,
}

impl DirtyPageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a committed update to `page` of `partition` with the given
    /// LSN.  If the page already has an unpropagated committed update the
    /// earlier recovery LSN is kept (redo must start at the oldest lost
    /// update) and the update is counted.
    pub fn note_committed_update(&mut self, partition: usize, page: PageId, lsn: RecLsn) {
        self.entries
            .entry(page)
            .and_modify(|e| e.updates += 1)
            .or_insert(DirtyEntry {
                partition,
                rec_lsn: lsn,
                updates: 1,
            });
    }

    /// Removes `page` from the table (its current version reached
    /// non-volatile storage).  A run without recovery keeps the table
    /// empty, and then every eviction and force returns here at once,
    /// without hashing the page.
    pub fn clear_page(&mut self, page: PageId) {
        if !self.entries.is_empty() {
            self.entries.remove(&page);
        }
    }

    /// True if `page` has an unpropagated committed update.
    pub(crate) fn contains(&self, page: PageId) -> bool {
        self.entries.contains_key(&page)
    }

    /// The recovery LSN of `page`, if it has an unpropagated committed
    /// update.
    #[cfg(test)]
    pub(crate) fn rec_lsn(&self, page: PageId) -> Option<RecLsn> {
        self.entries.get(&page).map(|e| e.rec_lsn)
    }

    /// The minimum recovery LSN over all entries — the redo boundary a fuzzy
    /// checkpoint records.  `None` when every committed update is propagated.
    pub fn min_rec_lsn(&self) -> Option<RecLsn> {
        // analyzer: allow(hash-iter): min over all values is order-independent
        self.entries.values().map(|e| e.rec_lsn).min()
    }

    /// The redo pass over the lost updates: every tracked page as
    /// `(partition, page)`, sorted, and the number of committed updates the
    /// pass replays (every update since each page's recovery LSN).
    pub fn redo_pass(&self) -> (Vec<(usize, PageId)>, u64) {
        let mut pages = Vec::with_capacity(self.entries.len());
        let mut updates = 0;
        // analyzer: allow(hash-iter): collected, then sorted
        for (&page, e) in &self.entries {
            pages.push((e.partition, page));
            updates += e.updates;
        }
        pages.sort_unstable_by_key(|&(partition, page)| (partition, page.0));
        (pages, updates)
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no page carries an unpropagated committed update.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_committed_update_pins_the_recovery_lsn() {
        let mut t = DirtyPageTable::new();
        assert!(t.is_empty());
        t.note_committed_update(0, PageId(1), 10);
        // A later commit to the same unpropagated page keeps the older LSN.
        t.note_committed_update(0, PageId(1), 25);
        assert_eq!(t.rec_lsn(PageId(1)), Some(10));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn min_rec_lsn_is_the_redo_boundary() {
        let mut t = DirtyPageTable::new();
        assert_eq!(t.min_rec_lsn(), None);
        t.note_committed_update(0, PageId(1), 30);
        t.note_committed_update(0, PageId(2), 12);
        t.note_committed_update(0, PageId(3), 44);
        assert_eq!(t.min_rec_lsn(), Some(12));
        t.clear_page(PageId(2));
        assert!(!t.contains(PageId(2)));
        assert_eq!(t.min_rec_lsn(), Some(30));
        t.clear_page(PageId(2)); // already gone: a no-op
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn propagation_then_recommit_restarts_the_lsn() {
        let mut t = DirtyPageTable::new();
        t.note_committed_update(0, PageId(7), 5);
        t.clear_page(PageId(7)); // written back
        t.note_committed_update(0, PageId(7), 90);
        assert_eq!(t.rec_lsn(PageId(7)), Some(90));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn redo_pass_is_sorted_and_counts_the_updates_since_each_recovery_lsn() {
        let mut t = DirtyPageTable::new();
        assert_eq!(t.redo_pass(), (vec![], 0));
        t.note_committed_update(2, PageId(5), 1);
        t.note_committed_update(0, PageId(900), 2);
        t.note_committed_update(0, PageId(40), 3);
        t.note_committed_update(2, PageId(5), 4);
        t.note_committed_update(0, PageId(900), 5);
        t.note_committed_update(2, PageId(5), 6);
        let (pages, updates) = t.redo_pass();
        assert_eq!(
            pages,
            vec![(0, PageId(40)), (0, PageId(900)), (2, PageId(5))],
            "sorted by partition, then page"
        );
        assert_eq!(updates, 6);
        // Propagation drops page 5's three updates; its next commit starts
        // a new count at a new recovery LSN.
        t.clear_page(PageId(5));
        assert_eq!(t.redo_pass().1, 3);
        t.note_committed_update(2, PageId(5), 7);
        assert_eq!(t.rec_lsn(PageId(5)), Some(7));
        assert_eq!(t.redo_pass().1, 4);
    }
}
