//! Crash recovery and checkpointing: the redo log and its bookkeeping.
//!
//! The engine models recovery at the level the paper's evaluation needs
//! (§3.3: FORCE/NOFORCE, log allocation and NVEM-resident log truncation
//! traded against restart time):
//!
//! * Recovery runs on one node of the data-sharing architecture
//!   ([`crate::SimulationConfig::validate`] and
//!   [`crate::Simulation::simulate_crash_at`] reject anything else), so one
//!   dirty-page table ([`bufmgr::DirtyPageTable`]) describes every lost
//!   update.
//! * Every committed update transaction appends one [`RedoRecord`] per
//!   written page to the [`RedoLog`]; the record's LSN also enters the
//!   dirty-page table as the page's recovery LSN if the page has no earlier
//!   unpropagated committed update.  The buffer manager removes the entry as
//!   soon as the page's current version reaches non-volatile storage
//!   (write-back, NVEM migration, FORCE write).
//! * A *fuzzy checkpoint* (every `checkpoint_interval_ms`) writes one
//!   checkpoint record to the log allocation, advances the redo boundary to
//!   the table's minimum recovery LSN and truncates the redo log before it.
//!   Checkpoints never flush dirty pages.
//! * A simulated crash ([`crate::Simulation::simulate_crash_at`]) stops the
//!   run, discards all volatile state and replays the redo records from the
//!   last checkpoint's boundary, paying the log-device (or NVEM) read latency
//!   per log page and the database-device read latency per lost page, through
//!   the same [`storage::StorageDevice`] models the steady-state run uses.
//!
//! This module holds the pure data structures; the event-driven side
//! (checkpoint events, the crash handler and the restart computation) lives
//! in `engine/recover.rs`.

use std::collections::VecDeque;

use dbmodel::PageId;
use simkernel::time::SimTime;

/// Log sequence number: a monotonically increasing id per redo record.
pub type Lsn = u64;

/// Size of one log page in bytes (the paper's 4 KB page).
pub const LOG_PAGE_BYTES: usize = 4096;

/// One redo record: a committed update to `page`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedoRecord {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// The partition of the written page.
    pub partition: usize,
    /// The written page.
    pub page: PageId,
}

/// The redo log: committed-update records in LSN order.
///
/// Checkpoints truncate it so memory stays bounded by the redo distance, not
/// the run length.
#[derive(Debug)]
pub struct RedoLog {
    records: VecDeque<RedoRecord>,
    next_lsn: Lsn,
    records_per_page: u64,
}

impl RedoLog {
    /// Creates an empty redo log for records of `log_record_bytes` bytes.
    pub fn new(log_record_bytes: usize) -> Self {
        let per_page = (LOG_PAGE_BYTES / log_record_bytes.clamp(1, LOG_PAGE_BYTES)).max(1);
        Self {
            records: VecDeque::new(),
            next_lsn: 1,
            records_per_page: per_page as u64,
        }
    }

    /// Redo records per 4 KB log page.
    pub fn records_per_page(&self) -> u64 {
        self.records_per_page
    }

    /// The LSN the next appended record will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// Appends a committed-update record and returns its LSN.
    pub fn append(&mut self, partition: usize, page: PageId) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.records.push_back(RedoRecord {
            lsn,
            partition,
            page,
        });
        lsn
    }

    /// Records currently retained (after truncation).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no record is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drops every record with an LSN below `lsn` (checkpoint truncation);
    /// returns how many records were dropped.
    pub fn truncate_before(&mut self, lsn: Lsn) -> u64 {
        let mut dropped = 0;
        while self.records.front().is_some_and(|r| r.lsn < lsn) {
            self.records.pop_front();
            dropped += 1;
        }
        dropped
    }

    /// The retained records with an LSN at or above `lsn`, in LSN order.
    pub fn records_since(&self, lsn: Lsn) -> impl Iterator<Item = &RedoRecord> {
        self.records.iter().filter(move |r| r.lsn >= lsn)
    }

    /// Number of log pages holding `records` redo records (at least one page
    /// — the checkpoint / log-master record — is always read at restart).
    pub fn pages_for(&self, records: u64) -> u64 {
        1 + records.div_ceil(self.records_per_page)
    }
}

/// Engine-side runtime state of the recovery subsystem: the redo log, the
/// current redo boundary and the checkpoint accounting.
#[derive(Debug)]
pub(crate) struct RecoveryRuntime {
    /// The redo log.
    pub redo: RedoLog,
    /// Redo starts here after a crash (advanced by every checkpoint).
    pub redo_start_lsn: Lsn,
    /// Redo records appended during the measurement interval.
    pub records_appended: u64,
    /// Checkpoints completed during the measurement interval.
    pub checkpoints_taken: u64,
    /// Simulated time spent writing checkpoint records (ms, measurement
    /// interval).  For device-resident logs this is the measured latency of
    /// the checkpoint log write including queueing.
    pub checkpoint_overhead_ms: SimTime,
    /// Redo records dropped by checkpoint truncation (measurement interval).
    pub records_truncated: u64,
}

impl RecoveryRuntime {
    pub fn new(log_record_bytes: usize) -> Self {
        Self {
            redo: RedoLog::new(log_record_bytes),
            redo_start_lsn: 1,
            records_appended: 0,
            checkpoints_taken: 0,
            checkpoint_overhead_ms: 0.0,
            records_truncated: 0,
        }
    }

    /// End-of-warm-up reset: clears the measurement counters without
    /// touching the redo log or the redo boundary (they are state, not
    /// statistics).  The engine additionally forgets the issue stamps of
    /// in-flight checkpoint writes, so their (partly pre-warm-up) latency
    /// cannot leak into the measured checkpoint overhead.
    pub fn reset_stats(&mut self) {
        self.records_appended = 0;
        self.checkpoints_taken = 0;
        self.checkpoint_overhead_ms = 0.0;
        self.records_truncated = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsns_are_monotonic_and_start_at_one() {
        let mut log = RedoLog::new(512);
        assert_eq!(log.next_lsn(), 1);
        assert_eq!(log.append(0, PageId(10)), 1);
        assert_eq!(log.append(2, PageId(11)), 2);
        assert_eq!(log.next_lsn(), 3);
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn record_size_determines_records_per_page() {
        assert_eq!(RedoLog::new(512).records_per_page(), 8);
        assert_eq!(RedoLog::new(4096).records_per_page(), 1);
        // Degenerate sizes are clamped instead of dividing by zero.
        assert_eq!(RedoLog::new(0).records_per_page(), 4096);
        assert_eq!(RedoLog::new(1_000_000).records_per_page(), 1);
    }

    #[test]
    fn truncation_drops_old_records_and_counts_them() {
        let mut log = RedoLog::new(512);
        for i in 0..10 {
            log.append(0, PageId(i));
        }
        assert_eq!(log.truncate_before(5), 4); // LSNs 1..=4
        assert_eq!(log.len(), 6);
        // Truncating again at the same boundary is a no-op.
        assert_eq!(log.truncate_before(5), 0);
        // Records since the boundary are exactly the retained tail.
        let lsns: Vec<Lsn> = log.records_since(5).map(|r| r.lsn).collect();
        assert_eq!(lsns, vec![5, 6, 7, 8, 9, 10]);
        // A later boundary filters within the retained records too.
        assert_eq!(log.records_since(9).count(), 2);
        // A later truncation counts only the records below its boundary.
        assert_eq!(log.truncate_before(8), 3); // LSNs 5..=7
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn pages_for_rounds_up_and_includes_the_checkpoint_record() {
        let log = RedoLog::new(512); // 8 records per page
        assert_eq!(log.pages_for(0), 1);
        assert_eq!(log.pages_for(1), 2);
        assert_eq!(log.pages_for(8), 2);
        assert_eq!(log.pages_for(9), 3);
    }

    #[test]
    fn runtime_reset_keeps_the_log_and_boundary() {
        let mut rt = RecoveryRuntime::new(512);
        rt.redo.append(0, PageId(1));
        rt.redo_start_lsn = 1;
        rt.records_appended = 1;
        rt.checkpoints_taken = 3;
        rt.checkpoint_overhead_ms = 7.5;
        rt.records_truncated = 2;
        rt.reset_stats();
        assert_eq!(rt.records_appended, 0);
        assert_eq!(rt.checkpoints_taken, 0);
        assert_eq!(rt.checkpoint_overhead_ms, 0.0);
        assert_eq!(rt.records_truncated, 0);
        assert_eq!(rt.redo.len(), 1);
        assert_eq!(rt.redo_start_lsn, 1);
    }
}
