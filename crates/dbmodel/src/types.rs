//! Core workload vocabulary shared by all generators.

use simkernel::SimRng;

/// Identifier of a database partition (file / record type / index).
pub type PartitionId = usize;

/// Identifier of a transaction type.
pub type TxTypeId = usize;

/// Global page identifier.
///
/// Pages are numbered globally across partitions: each partition owns a dense
/// contiguous range of page numbers, assigned by [`crate::Database`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

/// Global object identifier (an object lives inside exactly one page).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

/// Read or write access, as recorded per object reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Read access; requests a read lock.
    Read,
    /// Write access; requests a write lock and dirties the page.
    Write,
}

impl AccessMode {
    /// True for write accesses.
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessMode::Write)
    }
}

/// One object reference of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectRef {
    /// Partition the object belongs to.
    pub partition: super::database::PartitionId,
    /// Page holding the object.
    pub page: PageId,
    /// The object itself (used for object-level locking).
    pub object: ObjectId,
    /// Read or write.
    pub mode: AccessMode,
}

/// A fully materialized transaction: its type and the ordered list of object
/// references it will perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionTemplate {
    /// Transaction type (indexes per-type statistics and the reference matrix).
    pub tx_type: TxTypeId,
    /// Ordered object references.
    pub refs: Vec<ObjectRef>,
}

impl TransactionTemplate {
    /// Number of object references.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// True if the transaction performs no references (possible for degenerate
    /// variable-size draws; such transactions only consume BOT/EOT CPU).
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// True if any reference is a write (the transaction is an update
    /// transaction and must write log data at commit).
    pub fn is_update(&self) -> bool {
        self.refs.iter().any(|r| r.mode.is_write())
    }

    /// Number of distinct pages written by the transaction.
    pub fn distinct_pages_written(&self) -> usize {
        let mut pages: Vec<PageId> = self
            .refs
            .iter()
            .filter(|r| r.mode.is_write())
            .map(|r| r.page)
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages.len()
    }

    /// Number of distinct pages referenced by the transaction.
    pub fn distinct_pages(&self) -> usize {
        let mut pages: Vec<PageId> = self.refs.iter().map(|r| r.page).collect();
        pages.sort_unstable();
        pages.dedup();
        pages.len()
    }
}

/// A workload generator produces the next transaction to submit.
///
/// The SOURCE component of the simulator asks the generator for a new
/// transaction template whenever an arrival event fires.  Implementations are
/// free to be stochastic (synthetic workloads) or deterministic replays
/// (trace-driven workloads).
pub trait WorkloadGenerator {
    /// Produces the next transaction, or `None` when the workload is
    /// exhausted (only trace-driven workloads terminate).
    fn next_transaction(&mut self, rng: &mut SimRng) -> Option<TransactionTemplate>;

    /// Number of distinct transaction types this workload can generate.
    fn num_tx_types(&self) -> usize;

    /// A human-readable name for reports.
    fn name(&self) -> &str;

    /// Total number of global pages of the underlying database, used to build
    /// range [`crate::PartitionMap`]s for shared-nothing runs.  Generators
    /// without a materialized database may return the default `0`; a
    /// range-partitioned simulation then refuses to start.
    fn total_pages(&self) -> u64 {
        0
    }

    /// Switches the generator into Zipfian hot-spot mode (see
    /// [`crate::hotspot::HotSpotParams`]).  Called once before the run starts,
    /// and only with *active* parameters — generators that do not support
    /// skew (e.g. trace replay, whose accesses are fixed) keep the default
    /// no-op.  Implementations must leave their draw sequences untouched
    /// until this is called, so runs without skew stay byte-identical.
    fn apply_hot_spot(&mut self, params: crate::hotspot::HotSpotParams) {
        let _ = params;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_ref(page: u64, object: u64, mode: AccessMode) -> ObjectRef {
        ObjectRef {
            partition: 0,
            page: PageId(page),
            object: ObjectId(object),
            mode,
        }
    }

    #[test]
    fn update_detection() {
        let read_only = TransactionTemplate {
            tx_type: 0,
            refs: vec![
                make_ref(1, 1, AccessMode::Read),
                make_ref(2, 2, AccessMode::Read),
            ],
        };
        assert!(!read_only.is_update());
        let update = TransactionTemplate {
            tx_type: 0,
            refs: vec![
                make_ref(1, 1, AccessMode::Read),
                make_ref(2, 2, AccessMode::Write),
            ],
        };
        assert!(update.is_update());
    }

    #[test]
    fn distinct_page_counting() {
        let t = TransactionTemplate {
            tx_type: 1,
            refs: vec![
                make_ref(1, 10, AccessMode::Write),
                make_ref(1, 11, AccessMode::Write),
                make_ref(2, 20, AccessMode::Read),
                make_ref(3, 30, AccessMode::Write),
            ],
        };
        assert_eq!(t.len(), 4);
        assert_eq!(t.distinct_pages(), 3);
        assert_eq!(t.distinct_pages_written(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn access_mode_predicates() {
        assert!(AccessMode::Write.is_write());
        assert!(!AccessMode::Read.is_write());
    }
}
