//! The operations the buffer manager asks the transaction engine to perform.
//!
//! A page reference or a commit force yields at most [`MAX_PAGE_OPS`]
//! operations — a victim's write-back or migration (two at most) plus the
//! read of the missing page — so they travel inline as [`PageOps`].  Next to
//! them travels the one page, if any, that the call pushed out of the pool.

use dbmodel::PageId;
use simkernel::InlineVec;

/// One storage operation resulting from a page reference or a commit force.
///
/// The engine executes the operations of a [`PageOutcome`] strictly in order:
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

/// The result of referencing a page, or of forcing a modified page at
/// commit (FORCE strategy), through the buffer manager.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageOutcome {
    /// Operations to execute, in order.  A force's asynchronous disk updates
    /// are started, not waited for.  A reference satisfied in main memory
    /// (or of a main-memory-resident partition) has none.
    pub ops: PageOps,
    /// The page the call pushed out of the pool, if any: a main-memory
    /// victim that did not migrate into the NVEM cache, or the victim of an
    /// NVEM-cache insert.  One call evicts at most one such page.  Under
    /// FORCE an NVEM-cache victim may keep its main-memory copy, so a caller
    /// that tracks where pages are held asks
    /// [`crate::BufferManager::holds_page`].
    pub evicted: Option<PageId>,
}

/// Iterating an outcome yields its operations, in order, like [`PageOps`]:
/// a caller that only executes them (the benchmark's buffer-manager replay
/// in `simbench/`) needs nothing else.
impl IntoIterator for PageOutcome {
    type Item = PageOp;
    type IntoIter = <PageOps as IntoIterator>::IntoIter;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_outcome_iterates_its_ops_in_order() {
        assert_eq!(PageOutcome::default().into_iter().count(), 0);
        let mut ops = PageOps::new();
        ops.push(PageOp::UnitWrite {
            unit: 1,
            page: PageId(4),
        });
        ops.push(PageOp::UnitRead {
            unit: 0,
            page: PageId(5),
        });
        let outcome = PageOutcome {
            ops,
            evicted: Some(PageId(4)),
        };
        assert_eq!(outcome.into_iter().collect::<Vec<_>>(), ops.to_vec());
    }
}
