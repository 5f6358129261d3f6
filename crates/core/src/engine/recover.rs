//! The event-driven side of the crash-recovery subsystem: redo-record
//! bookkeeping at commit, fuzzy checkpoints, and the simulated
//! crash-and-restart pass.
//!
//! The pure data structures (redo log, LSNs, checkpoint accounting) live in
//! [`crate::recovery`]; the dirty-page tables live with the per-node buffer
//! managers ([`bufmgr::DirtyPageTable`]).  Everything here is inert unless
//! the recovery subsystem is active (checkpointing enabled via
//! [`crate::config::RecoveryParams`], and/or a crash requested via
//! [`Simulation::simulate_crash_at`]) — an inactive run performs no redo
//! bookkeeping at all and is bit-for-bit identical to an engine without the
//! subsystem.
//!
//! **Restart model.**  After a crash the system is empty: no transactions,
//! cold buffers, a cleared lock table.  Restart is therefore modelled as a
//! single sequential pass — there is no queueing competition — that pays
//!
//! 1. one read per log page of the redo tail (everything after the last
//!    checkpoint's redo boundary) against the configured log device, or at
//!    NVEM speed when the tail is NVEM-resident
//!    ([`crate::config::LogTruncation`]),
//! 2. a redo-apply CPU burst per record whose update was actually lost
//!    (present in a dirty-page table at the crash), and
//! 3. one read of each lost page from its home location — through the same
//!    [`storage::StorageDevice`] models the steady-state run uses, with the
//!    reads prefetched in parallel across each unit's disk servers (the scan
//!    knows all needed pages in advance; only the log itself is inherently
//!    sequential) and planned by the same scheduler policy as steady-state
//!    reads ([`storage::scheduler::plan_reads`]: with coalescing enabled,
//!    adjacent redo pages share one seek) — plus a lock re-acquisition
//!    covering the redone pages.

use dbmodel::{AccessMode, ObjectId, ObjectRef, PageId, WorkloadGenerator};
use simkernel::time::instr_time;
use simkernel::IdMap;
use storage::IoKind;

use bufmgr::PageLocation;

use crate::config::{LogAllocation, LogTruncation};
use crate::metrics::RestartReport;
use crate::recovery::{Lsn, RedoRecord};

use super::{Ev, Simulation};

/// Transaction id the restart pass locks under (real ids start at 1).
const RESTART_TX: u64 = 0;

impl<W: WorkloadGenerator> Simulation<W> {
    /// Appends one redo record per page written by the committing
    /// transaction in `slot` and registers the pages in the owning node's
    /// dirty-page table.  No-op while the recovery subsystem is inactive.
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
        let (node, template) = {
            let tx = self.txs.tx(slot);
            (tx.node, tx.template)
        };
        let rec = self.recovery.as_mut().expect("recovery runtime");
        for &(partition, page) in &self.templates.entry(template).written_pages {
            let lsn = rec.redo.append(node, partition, page);
            self.nodes[node]
                .bufmgr
                .note_committed_update(partition, page, lsn);
            self.nodes[node].redo_records += 1;
        }
    }

    /// Takes a fuzzy checkpoint: advances the redo boundary to the oldest
    /// committed-but-unpropagated update over all nodes, truncates the redo
    /// log before it and writes one checkpoint record to the log allocation
    /// (contending with commit log writes).  Dirty pages are *not* flushed.
    pub(super) fn handle_checkpoint(&mut self) {
        let now = self.queue.now();
        let min_rec_lsn: Option<Lsn> = self
            .nodes
            .iter()
            .filter_map(|n| n.bufmgr.dirty_page_table().min_rec_lsn())
            .min();
        {
            let Some(rec) = self.recovery.as_mut() else {
                return;
            };
            let redo_start = min_rec_lsn.unwrap_or_else(|| rec.redo.next_lsn());
            rec.redo_start_lsn = redo_start;
            rec.records_truncated += rec.redo.truncate_before(redo_start);
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
                let page = self.next_log_page();
                let io_id = self.issue_detached_io(unit, IoKind::Write, page);
                // The request carries its issue time itself; completion
                // charges the measured latency as checkpoint overhead.
                if let Some(io) = self.ios.get_mut(io_id) {
                    io.checkpoint_issued_at = Some(now);
                }
            }
        }
        let next = now + self.config.recovery.checkpoint_interval_ms;
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

        // Freeze the steady-state device and lock statistics before the redo
        // pass drives the same models: the report's measurement-interval
        // sections must not include restart work.
        self.crash_stats = Some(super::CrashStatsSnapshot {
            devices: self.units.iter().map(|u| u.device.stats()).collect(),
            scheduler: self
                .units
                .iter()
                .map(|u| u.scheduler.as_ref().map(|s| s.stats()))
                .collect(),
            locks: self.lockmgr.stats(),
            global_locks: self.lockmgr.global_stats(),
        });

        // Every lock held by an in-flight transaction dies with the system.
        let locks_released_at_crash = self.lockmgr.crash_reset();

        // Union of the per-node dirty-page tables: the pages whose committed
        // updates existed only in volatile main memory.
        let mut lost: IdMap<PageId, Lsn> = IdMap::default();
        for node in &self.nodes {
            // analyzer: allow(hash-iter): folded into a per-page min, order-independent
            for (page, lsn) in node.bufmgr.dirty_page_table().iter() {
                lost.entry(page)
                    .and_modify(|l| *l = (*l).min(lsn))
                    .or_insert(lsn);
            }
        }
        let dirty_pages_at_crash = lost.len() as u64;

        // The redo tail: everything after the last checkpoint's boundary.
        let (records, log_pages_read) = {
            let rec = self.recovery.as_ref().expect("crash needs recovery state");
            let records: Vec<RedoRecord> = rec
                .redo
                .records_since(rec.redo_start_lsn)
                .copied()
                .collect();
            let pages = rec.redo.pages_for(records.len() as u64);
            (records, pages)
        };
        let redo_records = records.len() as u64;

        let mut restart_ms = 0.0;

        // 1. Read the log tail, sequentially (restart is the only activity).
        //    An NVEM-resident tail is read at NVEM speed; a device-resident
        //    tail pays the device model per page.  The most recently written
        //    log page ids sit just above `next_log_page`, so a cached log
        //    device sees the same recency the steady-state run produced.
        let tail_on_nvem = self.config.recovery.log_truncation == LogTruncation::NvemResident
            || self.config.log_allocation == LogAllocation::Nvem;
        if tail_on_nvem {
            restart_ms += nvem_cost * log_pages_read as f64;
        } else if let LogAllocation::DiskUnit(unit)
        | LogAllocation::DiskUnitViaNvemWriteBuffer(unit) = self.config.log_allocation
        {
            for i in 0..log_pages_read {
                let page = PageId(self.next_log_page.wrapping_add(1 + i));
                restart_ms += io_cpu
                    + self.units[unit]
                        .device
                        .request(IoKind::Read, page)
                        .foreground_service_time();
            }
        }

        // 2./3. Replay: records whose page carries a lost committed update
        // (recovery LSN at or below the record's LSN) are applied; the page
        // itself is re-read once from its home location.
        let is_lost = |r: &RedoRecord| lost.get(&r.page).is_some_and(|&rec_lsn| r.lsn >= rec_lsn);
        let applied_records = records.iter().filter(|r| is_lost(r)).count() as u64;
        restart_ms += apply_cpu * applied_records as f64;

        let mut redo_pages: Vec<(usize, PageId)> = records
            .iter()
            .filter(|r| is_lost(r))
            .map(|r| (r.partition, r.page))
            .collect();
        redo_pages.sort_unstable_by_key(|(partition, page)| (*partition, page.0));
        redo_pages.dedup();

        // Unlike the log (read sequentially in LSN order), the page re-reads
        // are known in advance from the scan and prefetch in parallel across
        // each unit's disk servers: the elapsed time per unit is the summed
        // service time divided by its disk count.  The per-I/O CPU overhead
        // stays serial (one restart CPU drives the redo pass).  The service
        // time itself comes from the shared scheduler planning
        // ([`storage::scheduler::plan_reads`]): without coalescing it is the
        // plain per-page sum the restart pass always paid, with coalescing
        // adjacent redo pages share one seek exactly like steady-state reads.
        let mut data_pages_read = 0u64;
        let mut unit_pages: Vec<Vec<PageId>> = vec![Vec::new(); self.units.len()];
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
                    unit_pages[unit].push(page);
                    data_pages_read += 1;
                }
            }
        }
        for (unit, pages) in unit_pages.iter().enumerate() {
            if pages.is_empty() {
                continue;
            }
            let service = storage::scheduler::plan_reads(
                &self.config.io_scheduler,
                self.units[unit].device.as_mut(),
                pages,
            );
            restart_ms += service / self.config.devices[unit].num_disks() as f64;
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
