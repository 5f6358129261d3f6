//! Commit processing: logging, FORCE/NOFORCE and group commit.
//!
//! Commit has two phases.  Phase 1 writes the commit log record — to NVEM,
//! to a log device, or to a log device through the NVEM write buffer — and,
//! under FORCE, writes every modified database page.  Phase 2 releases all
//! locks, records the response time and frees the MPL slot.
//!
//! **Group commit** (`cm.group_commit_size > 1`): committing transactions
//! whose log lives on a device join an open batch instead of writing their
//! own log page.  The batch is flushed as a *single* device write when it
//! reaches the configured size or when the oldest member has waited
//! `cm.group_commit_timeout_ms`; all members resume when that write
//! completes.  This trades a small commit latency for a large reduction in
//! log-device traffic, lifting the single-log-disk throughput ceiling of
//! Fig. 4.1.  The batch members are parked on the group log write's own
//! [`IoRequest`](super::iorequest::IoRequest) until it completes.

use dbmodel::{PageId, WorkloadGenerator};
use storage::IoKind;

use crate::config::LogAllocation;

use super::iorequest::Completion;
use super::transaction::MicroOp;
use super::{Ev, Flow, Simulation};

impl<W: WorkloadGenerator> Simulation<W> {
    pub(super) fn op_log_write(&mut self, slot: usize) -> Flow {
        let cm = self.config.cm;
        let nvem_cost = self.config.nvem.synchronous_cost(cm.mips);
        let capacity = self.config.buffer.nvem_write_buffer_pages;
        self.expand_ops(slot, |sim, ops| match sim.config.log_allocation {
            LogAllocation::Nvem => {
                ops.push(MicroOp::CpuBurst {
                    ms: nvem_cost,
                    nvem: true,
                });
            }
            LogAllocation::DiskUnitViaNvemWriteBuffer(unit) if sim.log_wb_pending < capacity => {
                // Absorbed by the NVEM write buffer: the transaction only
                // waits for the NVEM transfer; the disk is updated
                // asynchronously.
                sim.log_wb_pending += 1;
                let page = sim.next_log_page();
                ops.extend([
                    MicroOp::CpuBurst {
                        ms: nvem_cost,
                        nvem: true,
                    },
                    sim.io_overhead_burst(),
                    MicroOp::IssueIo {
                        unit,
                        kind: IoKind::Write,
                        page,
                        completion: Completion::LogWriteBuffer,
                    },
                ]);
            }
            // A device-resident log, or a saturated write buffer whose
            // overflow writes are synchronous device log writes.
            LogAllocation::DiskUnit(unit) | LogAllocation::DiskUnitViaNvemWriteBuffer(unit) => {
                if cm.group_commit_size > 1 {
                    // Each member still pays its own per-I/O CPU overhead
                    // (the DBMS issues a log request per transaction); only
                    // the device write is shared by the batch.
                    ops.extend([sim.io_overhead_burst(), MicroOp::JoinCommitGroup { unit }]);
                } else {
                    let page = sim.next_log_page();
                    ops.extend([
                        sim.io_overhead_burst(),
                        MicroOp::IssueIo {
                            unit,
                            kind: IoKind::Write,
                            page,
                            completion: Completion::Plain,
                        },
                    ]);
                }
            }
        });
        Flow::Continue
    }

    pub(super) fn next_log_page(&mut self) -> PageId {
        // Log pages live in a reserved id range far above any database page.
        let page = PageId(self.next_log_page);
        debug_assert!(self.next_log_page > 0, "log page id space exhausted");
        self.next_log_page -= 1;
        page
    }

    // ------------------------------------------------------------------
    // Group commit
    // ------------------------------------------------------------------

    /// Adds the committing transaction in `slot` to the open group-commit
    /// batch for the log device `unit`, flushing the batch when it is full.
    pub(super) fn join_commit_group(&mut self, slot: usize, unit: usize) -> Flow {
        self.commit_group.push(slot);
        self.commit_group_unit = unit;
        if self.commit_group.len() >= self.config.cm.group_commit_size {
            self.flush_commit_group();
        } else if self.commit_group.len() == 1 {
            // First member: arm the flush timeout for this batch.
            self.queue.schedule_in(
                self.config.cm.group_commit_timeout_ms,
                Ev::GroupCommitFlush(self.commit_group_seq),
            );
        }
        Flow::Blocked
    }

    /// Timeout path: flush the batch with sequence number `seq` if it is
    /// still the open one (otherwise it was already flushed when it filled).
    pub(super) fn handle_group_commit_flush(&mut self, seq: u32) {
        if seq != self.commit_group_seq || self.commit_group.is_empty() {
            return;
        }
        self.flush_commit_group();
    }

    /// Writes one log page for the whole open batch and parks the members on
    /// the write's request until it completes.
    fn flush_commit_group(&mut self) {
        let unit = self.commit_group_unit;
        // Wraps: a timeout only compares its number for equality, and no run
        // opens 2^32 batches within one timeout interval.
        self.commit_group_seq = self.commit_group_seq.wrapping_add(1);
        if self.commit_group.is_empty() {
            return;
        }
        self.log_group_writes += 1;
        let page = self.next_log_page();
        let mut members = std::mem::take(&mut self.commit_group);
        self.start_io(0, unit, IoKind::Write, page, Completion::Plain, &members);
        members.clear();
        self.commit_group = members;
    }

    // ------------------------------------------------------------------
    // FORCE and completion
    // ------------------------------------------------------------------

    pub(super) fn op_force_pages(&mut self, slot: usize) -> Flow {
        let node = self.txs.tx(slot).node;
        let coherent = self.coherence_active();
        self.expand_ops(slot, |sim, ops| {
            for idx in 0..sim.txs.tx(slot).written_pages.len() {
                let (partition, page) = sim.txs.tx(slot).written_pages[idx];
                let forced = sim.nodes[node].bufmgr.force_page(partition, page);
                sim.convert_page_ops(&forced.ops, ops);
                if coherent {
                    if let Some(evicted) = forced.evicted {
                        sim.release_holder(node, evicted);
                    }
                }
            }
        });
        Flow::Continue
    }

    pub(super) fn op_complete(&mut self, slot: usize) -> Flow {
        // Crash recovery: the transaction's commit log record is durable by
        // now (the log write — own or group — completed before this micro
        // operation ran), so this is the instant its redo records exist for
        // a crash.  Pages already propagated (FORCE writes, an eviction
        // while the log write was in flight) are skipped by the dirty-page
        // table.  No-op while the recovery subsystem is inactive.
        self.record_redo(slot);
        let now = self.queue.now();
        let (tx_id, node, arrival, tx_type) = {
            let tx = self.txs.tx(slot);
            (tx.id, tx.node, tx.arrival, tx.template.tx_type)
        };
        // Data sharing: a committed update invalidates stale copies of the
        // written pages in the *other* holders' buffer pools (via the
        // page → holders index) or, under on-request validation, marks
        // those copies stale.  Stale copies are dropped without a
        // write-back even when dirty (NOFORCE): the committing node holds
        // the current version and propagates it itself, so only the latest
        // owner ever writes the page.  Shared nothing needs no coherence at
        // all: a page is only ever cached at its owner (remote references
        // go through the owner's pool), so no stale copy can exist.
        self.commit_coherence(node, slot);
        // Phase 2 of commit: release all locks and wake waiters.  Release
        // messages to the global lock service are asynchronous — the
        // committer does not wait for them.
        self.wake_lock_waiters(|locks| locks.release_all(tx_id));

        // Statistics.
        self.record_completion(now, node, arrival, tx_type);

        // Free the record (the carcass stays for reuse).
        self.txs.release(slot);
        debug_assert!(
            self.nodes[node].active_count > 0 && self.total_active > 0,
            "active-transaction counter underflow"
        );
        self.nodes[node].active_count -= 1;
        self.total_active -= 1;
        self.active_tw.record(now, self.total_active as f64);
        let node_active = self.nodes[node].active_count;
        self.nodes[node].active_tw.record(now, node_active as f64);

        // Admit the node's next waiting transaction, if any.
        self.admit_next(node);
        self.debug_assert_conservation();
        Flow::Finished
    }
}
