//! The event-driven side of the crash-recovery subsystem: redo-record
//! bookkeeping at commit, fuzzy checkpoints, and the simulated
//! crash-and-restart pass.
//!
//! The pure bookkeeping (LSNs, redo boundary, checkpoint accounting) lives
//! in [`crate::recovery`]; the dirty-page table lives with the buffer manager
//! ([`bufmgr::DirtyPageTable`]).  Everything here is inert unless the
//! recovery subsystem is active (checkpointing enabled via
//! [`crate::SimulationConfig::checkpoint_interval_ms`], and/or a crash
//! requested via [`Simulation::simulate_crash_at`]) — an inactive run
//! performs no redo bookkeeping at all and is bit-for-bit identical to an
//! engine without the subsystem.  An active run has one node (both entry
//! points enforce it), so node 0's buffer manager holds the one dirty-page
//! table.
//!
//! **Restart model.**  After a crash the system is empty: no transactions,
//! cold buffers, a cleared lock table.  Restart is therefore modelled as a
//! single sequential pass — there is no queueing competition — that pays
//!
//! 1. one read per log page of the redo tail (everything after the last
//!    checkpoint's redo boundary) against the configured log device, or at
//!    NVEM speed when the log is NVEM-resident ([`LogAllocation::Nvem`]),
//! 2. a redo-apply CPU burst per record whose update was actually lost
//!    (counted by the page's dirty-page-table entry at the crash), and
//! 3. one read of each lost page from its home location — through the same
//!    [`storage::StorageDevice`] models the steady-state run uses, with the
//!    reads prefetched in parallel across each unit's disk servers (the scan
//!    knows all needed pages in advance; only the log itself is inherently
//!    sequential) — plus a lock re-acquisition covering the redone pages.
//!
//! The event loop stops at the crash, so the restart pass never meets the
//! steady-state read path: read coalescing plays no part in it.

use dbmodel::{AccessMode, ObjectId, ObjectRef, PageId, WorkloadGenerator};
use simkernel::time::{instr_time, SimTime};
use storage::IoKind;

use bufmgr::PageLocation;

use crate::config::LogAllocation;
use crate::metrics::RestartReport;

use super::iorequest::Completion;
use super::{Ev, Simulation};

/// Transaction id the restart pass locks under (an admitted transaction's id
/// is at least `1 << 32`, see `transaction::tx_id`).
const RESTART_TX: u64 = 0;

impl<W: WorkloadGenerator> Simulation<W> {
    /// Gives each page written by the committing transaction in `slot` the
    /// LSN of its redo record and registers it in the dirty-page table.
    /// No-op while the recovery subsystem is inactive.
    ///
    /// Called at commit completion, when the commit log record is durable —
    /// a crash never replays a transaction whose log write was still in
    /// flight.  The dirty-page table skips pages whose content is already
    /// non-volatile (FORCE writes ran just before; an eviction may have
    /// written the page back while the log write was in flight), so under
    /// FORCE restart has nothing to redo.
    pub(super) fn record_redo(&mut self, slot: usize) {
        if self.recovery.is_none() {
            return;
        }
        let rec = self.recovery.as_mut().expect("recovery runtime");
        for &(partition, page) in &self.txs.tx(slot).written_pages {
            let lsn = rec.append();
            self.nodes[0]
                .bufmgr
                .note_committed_update(partition, page, lsn);
        }
    }

    /// Takes a fuzzy checkpoint: advances the redo boundary to the oldest
    /// committed-but-unpropagated update, truncating the log before it,
    /// and writes one checkpoint record to the log allocation (contending
    /// with commit log writes).  Dirty pages are *not* flushed.
    pub(super) fn handle_checkpoint(&mut self) {
        let now = self.queue.now();
        let min_rec_lsn = self.nodes[0].bufmgr.dirty_page_table().min_rec_lsn();
        {
            let Some(rec) = self.recovery.as_mut() else {
                return;
            };
            rec.advance_redo_start(min_rec_lsn.unwrap_or(rec.next_lsn));
            rec.checkpoints_taken += 1;
        }
        // The checkpoint record itself: a synchronous NVEM store for
        // NVEM-resident logs and for logs going through the NVEM write
        // buffer (the record is durable the moment it reaches the
        // non-volatile buffer, exactly like an absorbed commit log write),
        // otherwise a real (detached) log-device write whose measured
        // latency becomes checkpoint overhead on completion.
        match self.config.log_allocation {
            LogAllocation::Nvem | LogAllocation::DiskUnitViaNvemWriteBuffer(_) => {
                let cost = self.config.nvem.synchronous_cost(self.config.cm.mips);
                let rec = self.recovery.as_mut().expect("recovery runtime");
                rec.checkpoint_overhead_ms += cost;
            }
            LogAllocation::DiskUnit(unit) => {
                // Completion charges the measured latency as checkpoint
                // overhead.
                let page = self.next_log_page();
                self.start_io(0, unit, IoKind::Write, page, Completion::Checkpoint, &[]);
            }
        }
        let next = now + self.config.checkpoint_interval_ms;
        let horizon = self.crash_at.unwrap_or(self.end_time);
        if next < horizon {
            self.queue.schedule_at(next, Ev::Checkpoint);
        }
    }

    /// The crash happened: discard all volatile state and compute the redo
    /// pass.  Returns the restart report for [`super::Simulation::run`].
    pub(super) fn perform_restart(&mut self) -> RestartReport {
        let crash_time = self.queue.now();
        let cm = self.config.cm;
        let nvem_cost = self.config.nvem.synchronous_cost(cm.mips);
        let io_cpu = instr_time(cm.instr_io, cm.mips);
        let apply_cpu = instr_time(cm.instr_or, cm.mips);

        // Every lock held by an in-flight transaction dies with the system.
        let locks_released_at_crash = self.lockmgr.crash_reset();

        // The redo tail: everything after the last checkpoint's boundary.
        let rec = self.recovery.as_ref().expect("crash needs recovery state");
        let redo_records = rec.redo_records();
        let log_pages_read = rec.pages_for(redo_records);

        // The dirty-page table: the pages whose committed updates existed
        // only in volatile main memory.  Every recovery LSN lies at or after
        // the boundary, so the tail holds each entry's updates, and they are
        // exactly the records redo applies.
        let lost = self.nodes[0].bufmgr.dirty_page_table();
        debug_assert!(
            lost.min_rec_lsn()
                .is_none_or(|lsn| lsn >= rec.redo_start_lsn),
            "a lost update precedes the redo boundary"
        );
        let dirty_pages_at_crash = lost.len() as u64;
        let (redo_pages, applied_records) = lost.redo_pass();

        let mut restart_ms = 0.0;

        // 1. Read the log tail, sequentially (restart is the only activity).
        //    An NVEM-resident log is read at NVEM speed; a device-resident
        //    log pays the device model per page.  The most recently written
        //    log page ids sit just above `next_log_page`, so a cached log
        //    device sees the same recency the steady-state run produced.
        match self.config.log_allocation {
            LogAllocation::Nvem => restart_ms += nvem_cost * log_pages_read as f64,
            LogAllocation::DiskUnit(unit) | LogAllocation::DiskUnitViaNvemWriteBuffer(unit) => {
                for i in 0..log_pages_read {
                    let page = PageId(self.next_log_page.wrapping_add(1 + i));
                    restart_ms += io_cpu
                        + self.units[unit]
                            .device
                            .request(IoKind::Read, page)
                            .foreground_service_time();
                }
            }
        }

        // 2. Apply the records of the lost updates.
        restart_ms += apply_cpu * applied_records as f64;

        // 3. Re-read each lost page once from its home location.  Unlike
        // the log (read sequentially in LSN order), the page re-reads
        // are known in advance from the scan and prefetch in parallel across
        // each unit's disk servers: the elapsed time per unit is the summed
        // service time divided by its disk count.  The per-I/O CPU overhead
        // stays serial (one restart CPU drives the redo pass).
        let mut data_pages_read = 0u64;
        let mut unit_service: Vec<SimTime> = vec![0.0; self.units.len()];
        for &(partition, page) in &redo_pages {
            match self.config.buffer.policy(partition).location {
                // Main-memory-resident pages are rebuilt from the log alone.
                PageLocation::MainMemoryResident => {}
                PageLocation::NvemResident => {
                    restart_ms += nvem_cost;
                    data_pages_read += 1;
                }
                PageLocation::DiskUnit(unit) => {
                    restart_ms += io_cpu;
                    unit_service[unit] += self.units[unit]
                        .device
                        .request(IoKind::Read, page)
                        .foreground_service_time();
                    data_pages_read += 1;
                }
            }
        }
        for (unit, service) in unit_service.into_iter().enumerate() {
            restart_ms += service / self.config.devices[unit].num_disks as f64;
        }

        // 4. Re-acquire (and afterwards release) the locks covering the
        // redone pages through the global lock service, so new work admitted
        // during a real restart could not observe half-replayed pages.
        let mut locks_reacquired = 0u64;
        for &(partition, page) in &redo_pages {
            let obj = ObjectRef {
                partition,
                page,
                object: ObjectId(page.0),
                mode: AccessMode::Write,
            };
            if self.lockmgr.needs_lock(&obj) {
                let home = self.lockmgr.home_node();
                let _ = self.lockmgr.acquire(home, RESTART_TX, &obj);
                locks_reacquired += 1;
            }
        }
        let woken = self.lockmgr.release_all(RESTART_TX);
        debug_assert!(woken.is_empty(), "no live transaction can wait at restart");

        RestartReport {
            crash_time_ms: crash_time,
            restart_ms,
            redo_records,
            log_pages_read,
            data_pages_read,
            dirty_pages_at_crash,
            locks_released_at_crash,
            locks_reacquired,
        }
    }
}
