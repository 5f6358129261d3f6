//! The operations the buffer manager asks the transaction engine to perform.
//!
//! A page reference or a commit force yields at most [`MAX_PAGE_OPS`]
//! operations — a victim's write-back or migration (two at most) plus the
//! read of the missing page — so they travel inline as [`PageOps`].

use dbmodel::PageId;
use simkernel::InlineVec;

/// One storage operation resulting from a page reference or a commit force.
///
/// The engine executes the operations of a [`FetchOutcome`] strictly in order:
/// synchronous operations delay the transaction (and, for NVEM transfers,
/// keep the CPU busy), asynchronous writes are started and forgotten by the
/// transaction (their completion is reported back to the buffer manager and
/// the owning disk unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageOp {
    /// Synchronous page transfer between main memory and NVEM (read a page
    /// from the NVEM cache / an NVEM-resident partition, or store a page into
    /// the NVEM cache / write buffer).  The CPU stays busy for the transfer.
    NvemTransfer {
        /// The page being moved.
        page: PageId,
        /// Direction: true when the page moves from main memory into NVEM.
        to_nvem: bool,
    },
    /// Read `page` from disk unit `unit`; the transaction waits.
    UnitRead {
        /// Index of the disk unit.
        unit: usize,
        /// The page to read.
        page: PageId,
    },
    /// Write `page` to disk unit `unit`; the transaction waits.
    UnitWrite {
        /// Index of the disk unit.
        unit: usize,
        /// The page to write.
        page: PageId,
    },
    /// Write `page` to disk unit `unit` asynchronously.  The transaction does
    /// not wait; when the write completes the engine must call
    /// [`crate::BufferManager::async_write_complete`].
    UnitWriteAsync {
        /// Index of the disk unit.
        unit: usize,
        /// The page to write.
        page: PageId,
    },
}

/// Most operations one reference or force produces: an NVEM migration or
/// write-buffer transfer of the victim plus its asynchronous disk write, and
/// the read of the missing page.
pub const MAX_PAGE_OPS: usize = 3;

/// The operations of one reference or force, in execution order, inline.
pub type PageOps = InlineVec<PageOp, MAX_PAGE_OPS>;

/// The filler of unused [`PageOps`] slots; never handed to the engine.
impl Default for PageOp {
    fn default() -> Self {
        PageOp::NvemTransfer {
            page: PageId(0),
            to_nvem: false,
        }
    }
}

impl PageOp {
    /// True for operations the transaction must wait for.
    pub fn is_synchronous(&self) -> bool {
        !matches!(self, PageOp::UnitWriteAsync { .. })
    }

    /// True for operations that hold the CPU while they run.
    pub fn holds_cpu(&self) -> bool {
        matches!(self, PageOp::NvemTransfer { .. })
    }

    /// The page the operation concerns.
    pub fn page(&self) -> PageId {
        match *self {
            PageOp::NvemTransfer { page, .. }
            | PageOp::UnitRead { page, .. }
            | PageOp::UnitWrite { page, .. }
            | PageOp::UnitWriteAsync { page, .. } => page,
        }
    }
}

/// The result of referencing a page through the buffer manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchOutcome {
    /// True if the reference was satisfied in main memory (or the partition is
    /// main-memory resident) without any storage operation.
    pub main_memory_hit: bool,
    /// True if the reference was satisfied by the second-level NVEM cache.
    pub nvem_cache_hit: bool,
    /// Operations to execute, in order.
    pub ops: PageOps,
}

impl FetchOutcome {
    /// A pure main-memory hit.
    pub fn hit() -> Self {
        Self {
            main_memory_hit: true,
            nvem_cache_hit: false,
            ops: PageOps::new(),
        }
    }

    /// Number of synchronous operations the transaction must wait for.
    pub fn synchronous_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.is_synchronous()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        let nvem = PageOp::NvemTransfer {
            page: PageId(1),
            to_nvem: true,
        };
        let read = PageOp::UnitRead {
            unit: 0,
            page: PageId(2),
        };
        let write = PageOp::UnitWrite {
            unit: 0,
            page: PageId(3),
        };
        let async_write = PageOp::UnitWriteAsync {
            unit: 1,
            page: PageId(4),
        };
        assert!(nvem.is_synchronous() && nvem.holds_cpu());
        assert!(read.is_synchronous() && !read.holds_cpu());
        assert!(write.is_synchronous());
        assert!(!async_write.is_synchronous());
        assert_eq!(async_write.page(), PageId(4));
        assert_eq!(nvem.page(), PageId(1));
    }

    #[test]
    fn fetch_outcome_hit_has_no_ops() {
        let h = FetchOutcome::hit();
        assert!(h.main_memory_hit);
        assert!(!h.nvem_cache_hit);
        assert_eq!(h.synchronous_ops(), 0);
    }
}
