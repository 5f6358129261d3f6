//! Crash recovery and checkpointing: LSNs, the redo boundary and their
//! bookkeeping.
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
//! * Every committed update transaction writes one redo record per written
//!   page to the log; each record takes the next LSN.  The LSN also enters
//!   the dirty-page table as the page's recovery LSN if the page has no
//!   earlier unpropagated committed update, and otherwise counts as one
//!   more update of that entry.  The buffer manager removes the entry as
//!   soon as the page's current version reaches non-volatile storage
//!   (write-back, NVEM migration, FORCE write).
//! * A *fuzzy checkpoint* (every `checkpoint_interval_ms`) writes one
//!   checkpoint record to the log allocation and advances the redo boundary
//!   to the table's minimum recovery LSN, truncating the log before it.
//!   Checkpoints never flush dirty pages.
//! * A simulated crash ([`crate::Simulation::simulate_crash_at`]) stops the
//!   run, discards all volatile state and replays the redo tail from the
//!   last checkpoint's boundary, paying the log-device (or NVEM) read latency
//!   per log page and the database-device read latency per lost page, through
//!   the same [`storage::StorageDevice`] models the steady-state run uses.
//!
//! No record is kept: LSNs are dense, so the redo tail is the LSN distance
//! from the boundary to the log's end, and every recovery LSN lies at or
//! after the boundary, so the dirty-page table alone names the records the
//! redo pass applies.
//!
//! This module holds the pure bookkeeping; the event-driven side
//! (checkpoint events, the crash handler and the restart computation) lives
//! in `engine/recover.rs`.

use simkernel::time::SimTime;

/// Log sequence number: a monotonically increasing id per redo record.
pub type Lsn = u64;

/// Size of one log page in bytes (the paper's 4 KB page).
pub const LOG_PAGE_BYTES: usize = 4096;

/// Engine-side runtime state of the recovery subsystem: the log's LSNs, the
/// current redo boundary and the checkpoint accounting.
#[derive(Debug)]
pub(crate) struct RecoveryRuntime {
    /// The LSN the next redo record receives (LSNs start at 1).
    pub next_lsn: Lsn,
    /// Redo records per 4 KB log page.
    pub records_per_page: u64,
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
    /// Creates the state of an empty log of `log_record_bytes`-byte records.
    pub fn new(log_record_bytes: usize) -> Self {
        let per_page = (LOG_PAGE_BYTES / log_record_bytes.clamp(1, LOG_PAGE_BYTES)).max(1);
        Self {
            next_lsn: 1,
            records_per_page: per_page as u64,
            redo_start_lsn: 1,
            records_appended: 0,
            checkpoints_taken: 0,
            checkpoint_overhead_ms: 0.0,
            records_truncated: 0,
        }
    }

    /// Appends a committed-update record and returns its LSN.
    pub fn append(&mut self) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.records_appended += 1;
        lsn
    }

    /// Checkpoint truncation: moves the redo boundary to `lsn` and counts
    /// the records before it as truncated.
    pub fn advance_redo_start(&mut self, lsn: Lsn) {
        debug_assert!(
            (self.redo_start_lsn..=self.next_lsn).contains(&lsn),
            "redo boundary {lsn} outside {}..={}",
            self.redo_start_lsn,
            self.next_lsn
        );
        self.records_truncated += lsn - self.redo_start_lsn;
        self.redo_start_lsn = lsn;
    }

    /// Records in the redo tail: every LSN from the boundary to the log's
    /// end.
    pub fn redo_records(&self) -> u64 {
        self.next_lsn - self.redo_start_lsn
    }

    /// Number of log pages holding `records` redo records (at least one page
    /// — the checkpoint / log-master record — is always read at restart).
    pub fn pages_for(&self, records: u64) -> u64 {
        1 + records.div_ceil(self.records_per_page)
    }

    /// End-of-warm-up reset: clears the measurement counters without
    /// touching the LSNs or the redo boundary (they are state, not
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
        let mut rt = RecoveryRuntime::new(512);
        assert_eq!(rt.next_lsn, 1);
        assert_eq!(rt.append(), 1);
        assert_eq!(rt.append(), 2);
        assert_eq!(rt.next_lsn, 3);
        assert_eq!(rt.records_appended, 2);
        assert_eq!(rt.redo_records(), 2);
    }

    #[test]
    fn record_size_determines_records_per_page() {
        assert_eq!(RecoveryRuntime::new(512).records_per_page, 8);
        assert_eq!(RecoveryRuntime::new(4096).records_per_page, 1);
        // Degenerate sizes are clamped instead of dividing by zero.
        assert_eq!(RecoveryRuntime::new(0).records_per_page, 4096);
        assert_eq!(RecoveryRuntime::new(1_000_000).records_per_page, 1);
    }

    #[test]
    fn truncation_drops_old_records_and_counts_them() {
        let mut rt = RecoveryRuntime::new(512);
        for _ in 0..10 {
            rt.append();
        }
        rt.advance_redo_start(5);
        assert_eq!(rt.records_truncated, 4); // LSNs 1..=4
        assert_eq!(rt.redo_records(), 6); // LSNs 5..=10
                                          // Advancing to the same boundary again truncates nothing.
        rt.advance_redo_start(5);
        assert_eq!(rt.records_truncated, 4);
        // A later truncation counts only the records below its boundary.
        rt.advance_redo_start(8);
        assert_eq!(rt.records_truncated, 7); // plus LSNs 5..=7
        assert_eq!(rt.redo_records(), 3);
        // With nothing dirty the boundary moves to the log's end.
        rt.advance_redo_start(rt.next_lsn);
        assert_eq!(rt.redo_records(), 0);
        assert_eq!(rt.records_truncated, 10);
    }

    // The check is a `debug_assert!`, which release builds compile out.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "redo boundary")]
    fn the_redo_boundary_never_moves_back() {
        let mut rt = RecoveryRuntime::new(512);
        for _ in 0..4 {
            rt.append();
        }
        rt.advance_redo_start(3);
        rt.advance_redo_start(2);
    }

    #[test]
    fn pages_for_rounds_up_and_includes_the_checkpoint_record() {
        let rt = RecoveryRuntime::new(512); // 8 records per page
        assert_eq!(rt.pages_for(0), 1);
        assert_eq!(rt.pages_for(1), 2);
        assert_eq!(rt.pages_for(8), 2);
        assert_eq!(rt.pages_for(9), 3);
    }

    #[test]
    fn runtime_reset_keeps_the_log_and_boundary() {
        let mut rt = RecoveryRuntime::new(512);
        rt.append();
        rt.append();
        rt.advance_redo_start(2);
        rt.checkpoints_taken = 3;
        rt.checkpoint_overhead_ms = 7.5;
        rt.reset_stats();
        assert_eq!(rt.records_appended, 0);
        assert_eq!(rt.checkpoints_taken, 0);
        assert_eq!(rt.checkpoint_overhead_ms, 0.0);
        assert_eq!(rt.records_truncated, 0);
        assert_eq!(rt.next_lsn, 3);
        assert_eq!(rt.redo_start_lsn, 2);
    }
}
