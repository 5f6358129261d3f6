//! The I/O request lifecycle against the pluggable [`StorageDevice`] models.
//!
//! An I/O is issued by asking the target device for an
//! [`storage::IoDecision`] (which service stages the request must pass
//! through); the stages are then executed against the device's controller
//! and disk-server resources so queueing is modelled faithfully.  Completion
//! wakes the waiting transaction, notifies the buffer manager about
//! asynchronous writes, releases group-commit batches and spawns background
//! destages.
//!
//! Requests live in the engine's [`IoArena`](super::arena::IoArena): the
//! `u32` request id carried by every `IoStage` event and resource token is a
//! plain slot index, so the per-event lookups here never hash.  Device
//! decisions arrive with their stages inline and are copied into a recycled
//! request, so issuing and completing an I/O allocates nothing.
//!
//! [`StorageDevice`]: storage::StorageDevice

use bufmgr::PageOp;
use dbmodel::{PageId, WorkloadGenerator};
use simkernel::resource::Acquire;
use storage::{IoKind, ServiceStage, SubmitOutcome};

use super::iorequest::HeldResource;
use super::transaction::{MicroOp, TxState};
use super::{Ev, Flow, Simulation};

impl<W: WorkloadGenerator> Simulation<W> {
    /// Translates buffer-manager page operations into engine micro operations,
    /// charging the per-I/O CPU overhead and the synchronous NVEM transfer
    /// costs.  The micro operations are appended to `out`.
    pub(super) fn convert_page_ops(&mut self, ops: &[PageOp], out: &mut Vec<MicroOp>) {
        let cm = self.config.cm;
        let nvem_cost = self.config.nvem.synchronous_cost(cm.mips);
        for op in ops {
            match *op {
                PageOp::NvemTransfer { .. } => {
                    out.push(MicroOp::CpuBurst {
                        ms: nvem_cost,
                        nvem: true,
                    });
                }
                PageOp::UnitRead { unit, page } => {
                    out.push(self.io_overhead_burst());
                    out.push(MicroOp::IssueIo {
                        unit,
                        kind: IoKind::Read,
                        page,
                        wait: true,
                        notify: false,
                        log_wb: false,
                    });
                }
                PageOp::UnitWrite { unit, page } => {
                    out.push(self.io_overhead_burst());
                    out.push(MicroOp::IssueIo {
                        unit,
                        kind: IoKind::Write,
                        page,
                        wait: true,
                        notify: false,
                        log_wb: false,
                    });
                }
                PageOp::UnitWriteAsync { unit, page } => {
                    out.push(self.io_overhead_burst());
                    out.push(MicroOp::IssueIo {
                        unit,
                        kind: IoKind::Write,
                        page,
                        wait: false,
                        notify: true,
                        log_wb: false,
                    });
                }
            }
        }
    }

    /// Asks the device for its service decision, registers the request and
    /// starts its first stage; returns the request id.  Every I/O — whether
    /// a transaction waits on it or not — goes through here.  `node` is the
    /// computing module whose buffer manager issued the request (buffer
    /// notifications are routed back to it).
    #[allow(clippy::too_many_arguments)]
    fn start_io(
        &mut self,
        node: usize,
        unit: usize,
        kind: IoKind,
        page: PageId,
        waiter: Option<usize>,
        notify: bool,
        log_wb: bool,
    ) -> u32 {
        let decision = self.units[unit].device.request(kind, page);
        let (io_id, io) = self.ios.claim(unit, page, waiter);
        io.extend_stages(&decision.foreground);
        io.background.extend_from_slice(&decision.background);
        io.node = node;
        io.notify_bufmgr = notify;
        io.log_wb = log_wb;
        self.advance_io(io_id);
        io_id
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn op_issue_io(
        &mut self,
        slot: usize,
        unit: usize,
        kind: IoKind,
        page: PageId,
        wait: bool,
        notify: bool,
        log_wb: bool,
    ) -> Flow {
        // I/O is issued by the buffer pool of the *executing* node (the
        // partition owner while a shared-nothing reference runs shipped), so
        // completion notifications must route back to that pool.
        let node = self.exec_node_of(slot);
        // Synchronous reads go through the unit's request scheduler when one
        // is configured; writes (and the notify/log_wb bookkeeping that only
        // writes carry) keep the direct FCFS path.
        if kind == IoKind::Read && wait && self.units[unit].scheduler.is_some() {
            debug_assert!(
                !notify && !log_wb,
                "scheduled reads carry no write bookkeeping"
            );
            self.txs.tx_mut(slot).state = TxState::WaitingIo;
            let outcome = self.units[unit]
                .scheduler
                .as_mut()
                .expect("checked above")
                .submit(page, slot);
            match outcome {
                SubmitOutcome::JoinedInflight(io_id) => {
                    // The page is already being read: park this waiter on the
                    // in-flight request's completion fan-out.
                    self.ios
                        .get_mut(io_id)
                        .expect("scheduler tracks only live requests")
                        .group_waiters
                        .push(slot);
                }
                SubmitOutcome::Queued => self.drain_scheduler(node, unit),
            }
            return Flow::Blocked;
        }
        self.start_io(node, unit, kind, page, wait.then_some(slot), notify, log_wb);
        if wait {
            self.txs.tx_mut(slot).state = TxState::WaitingIo;
            Flow::Blocked
        } else {
            Flow::Continue
        }
    }

    /// Dispatches every batch the unit's scheduler is willing to release
    /// (one per free disk-server slot).  The batch leader pays the device's
    /// full service decision; each merged member adds only its page
    /// transmission on top — that is the whole point of merging — but the
    /// device model is still asked for a decision *per member page*, so
    /// controller-cache state and per-unit counters evolve exactly as if
    /// the pages had been requested individually.  Background stages
    /// (destages of absorbed victims) are preserved for every member.
    pub(super) fn drain_scheduler(&mut self, node: usize, unit: usize) {
        loop {
            let Some(batch) = self.units[unit]
                .scheduler
                .as_mut()
                .and_then(|s| s.next_batch())
            else {
                return;
            };
            let (io_id, io) = self.ios.claim(unit, batch.pages[0], None);
            io.node = node;
            io.scheduled = true;
            for (i, &page) in batch.pages.iter().enumerate() {
                let decision = self.units[unit].device.request(IoKind::Read, page);
                if i == 0 {
                    io.extend_stages(&decision.foreground);
                } else {
                    io.push_stage(ServiceStage::Transmission(decision.transmission_time()));
                }
                io.background.extend_from_slice(&decision.background);
            }
            io.group_waiters.extend_from_slice(&batch.waiters);
            self.units[unit]
                .scheduler
                .as_mut()
                .expect("scheduler present while draining")
                .register_inflight(io_id, batch);
            self.advance_io(io_id);
        }
    }

    /// Issues an I/O that is not tied to a single waiting transaction (used
    /// for checkpoint log writes); returns the request id.
    pub(super) fn issue_detached_io(&mut self, unit: usize, kind: IoKind, page: PageId) -> u32 {
        self.start_io(0, unit, kind, page, None, false, false)
    }

    /// Issues the shared log write of the open group-commit batch, moving
    /// the batch's member slots onto it.  Attaching the waiters *before* the
    /// first stage runs means even a synchronously completing request wakes
    /// the batch correctly (a late attach could alias a recycled arena slot).
    pub(super) fn issue_group_commit_io(&mut self, unit: usize, page: PageId) {
        let decision = self.units[unit].device.request(IoKind::Write, page);
        let (io_id, io) = self.ios.claim(unit, page, None);
        io.extend_stages(&decision.foreground);
        io.background.extend_from_slice(&decision.background);
        io.group_waiters.append(&mut self.commit_group);
        self.advance_io(io_id);
    }

    pub(super) fn advance_io(&mut self, io_id: u32) {
        let now = self.queue.now();
        let (unit, next_stage) = {
            let io = self.ios.get_mut(io_id).expect("live io request");
            (io.unit, io.pop_stage())
        };
        match next_stage {
            None => self.complete_io(io_id),
            Some(ServiceStage::Controller(t)) => {
                {
                    let io = self.ios.get_mut(io_id).expect("live io request");
                    io.held = Some(HeldResource::Controller);
                    io.pending_service = t;
                }
                if self.units[unit].controllers.acquire(now, u64::from(io_id)) == Acquire::Granted {
                    self.queue.schedule_in(t, Ev::IoStage(io_id));
                }
            }
            Some(ServiceStage::Disk(t)) => {
                {
                    let io = self.ios.get_mut(io_id).expect("live io request");
                    io.held = Some(HeldResource::Disk);
                    io.pending_service = t;
                }
                if self.units[unit].disks.acquire(now, u64::from(io_id)) == Acquire::Granted {
                    self.queue.schedule_in(t, Ev::IoStage(io_id));
                }
            }
            Some(ServiceStage::Transmission(t)) => {
                self.ios.get_mut(io_id).expect("live io request").held = None;
                self.queue.schedule_in(t, Ev::IoStage(io_id));
            }
        }
    }

    pub(super) fn handle_io_stage(&mut self, io_id: u32) {
        let now = self.queue.now();
        let held_info = self.ios.get(io_id).map(|io| (io.held, io.unit));
        if let Some((Some(held), unit)) = held_info {
            let granted = match held {
                HeldResource::Controller => self.units[unit].controllers.release(now),
                HeldResource::Disk => self.units[unit].disks.release(now),
            };
            if let Some(next_io) = granted {
                let next_io = next_io as u32;
                let service = self
                    .ios
                    .get(next_io)
                    .map(|io| io.pending_service)
                    .unwrap_or(0.0);
                self.queue.schedule_in(service, Ev::IoStage(next_io));
            }
            if let Some(io) = self.ios.get_mut(io_id) {
                io.held = None;
            }
        }
        self.advance_io(io_id);
    }

    /// Completes request `io_id`.  The request stays live (its slot
    /// unclaimable) until the end, so its fields and waiter list can be read
    /// while the completion's follow-up work issues new requests.
    fn complete_io(&mut self, io_id: u32) {
        let io = self.ios.get(io_id).expect("live io request");
        let (unit, node, page, waiter) = (io.unit, io.node, io.page, io.waiter);
        let (is_destage, notify_bufmgr, log_wb, scheduled) =
            (io.is_destage, io.notify_bufmgr, io.log_wb, io.scheduled);
        let checkpoint_issued_at = io.checkpoint_issued_at;
        let has_background = !io.background.is_empty();
        if is_destage {
            self.units[unit].device.destage_complete(page);
        }
        if notify_bufmgr {
            self.nodes[node].bufmgr.async_write_complete(page);
        }
        if log_wb {
            // Every completion must match an earlier occupancy increment in
            // `op_log_write`; an underflow means the write-buffer accounting
            // is broken and must surface instead of being clamped away.
            debug_assert!(
                self.log_wb_pending > 0,
                "NVEM log write-buffer occupancy underflow: completion without reservation"
            );
            if let Some(next) = self.log_wb_pending.checked_sub(1) {
                self.log_wb_pending = next;
            }
        }
        // A completed checkpoint log write contributes its measured latency
        // (including queueing) to the checkpoint overhead.
        if let Some(issued) = checkpoint_issued_at {
            if let Some(rec) = self.recovery.as_mut() {
                rec.checkpoint_overhead_ms += self.queue.now() - issued;
            }
        }
        if has_background {
            let (bg_id, bg) = self.ios.claim(unit, page, None);
            bg.node = node;
            bg.is_destage = true;
            let (io, bg) = self.ios.pair_mut(io_id, bg_id);
            io.pass_background_to(bg);
            self.advance_io(bg_id);
        }
        // A scheduler-dispatched batch frees its service slot, admits any
        // speculative member pages into the issuing node's buffer pool and
        // lets the scheduler release the next batch.
        if scheduled {
            let done = self.units[unit]
                .scheduler
                .as_mut()
                .and_then(|s| s.complete(io_id));
            if let Some(done) = done {
                for (page, (node, partition)) in done.prefetched {
                    self.finish_prefetch(node, partition, page);
                }
            }
            self.drain_scheduler(node, unit);
        }
        if let Some(slot) = waiter {
            if let Some(tx) = self.txs.get_mut(slot) {
                tx.state = TxState::Ready;
                self.ready.push_back(slot);
            }
        }
        // Wake a whole group-commit batch parked on this log write.
        let io = self.ios.get_mut(io_id).expect("live io request");
        if !io.group_waiters.is_empty() {
            let waiters = std::mem::take(&mut io.group_waiters);
            self.wake_slots(&waiters);
            self.ios
                .get_mut(io_id)
                .expect("live io request")
                .group_waiters = waiters;
        }
        self.ios.release(io_id);
    }

    /// Routes a completed speculative read into the issuing node's buffer
    /// pool.  Admission never evicts dirty pages
    /// ([`bufmgr::BufferManager::admit_prefetched`]); under an active
    /// coherence protocol an admitted copy is registered in the
    /// page → holders index and version-stamped exactly like a demand
    /// fetch, so later remote commits invalidate it correctly.
    fn finish_prefetch(&mut self, node: usize, partition: usize, page: PageId) {
        let admit = self.nodes[node].bufmgr.admit_prefetched(partition, page);
        if admit != bufmgr::PrefetchAdmit::Admitted {
            return;
        }
        if self.coherence_active() {
            self.note_holder(node, page);
            self.stamp_fetch(node, page);
        }
    }
}
