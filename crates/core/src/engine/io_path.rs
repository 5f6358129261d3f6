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
//! At a unit with read coalescing on, a synchronous read of a page that is
//! already being read there joins that request instead of starting its own:
//! the unit lists its in-flight blocking reads, and the one completion wakes
//! every transaction that joined.
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
use storage::{IoKind, ServiceStage};

use super::iorequest::HeldResource;
use super::transaction::MicroOp;
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
    /// notifications are routed back to it).  A blocking read at a
    /// coalescing unit is listed as in flight before its first stage runs,
    /// so even a request that completes at once is unlisted again.
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
        if kind == IoKind::Read && waiter.is_some() {
            if let Some(coalescing) = self.units[unit].coalescing.as_mut() {
                coalescing.in_flight.push((page, io_id));
                io.joinable = true;
            }
        }
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
        if kind == IoKind::Read && wait {
            if let Some(coalescing) = self.units[unit].coalescing.as_mut() {
                if let Some(&(_, io_id)) = coalescing.in_flight.iter().find(|&&(p, _)| p == page) {
                    // The page is already being read here: wait for that
                    // request's completion instead of paying for another.
                    coalescing.coalesced += 1;
                    self.ios
                        .get_mut(io_id)
                        .expect("listed reads are live")
                        .group_waiters
                        .push(slot);
                    return Flow::Blocked;
                }
            }
        }
        // I/O is issued by the buffer pool of the *executing* node (the
        // partition owner while a shared-nothing reference runs shipped), so
        // completion notifications must route back to that pool.
        let node = self.exec_node_of(slot);
        self.start_io(node, unit, kind, page, wait.then_some(slot), notify, log_wb);
        if wait {
            Flow::Blocked
        } else {
            Flow::Continue
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
        let (is_destage, notify_bufmgr, log_wb, joinable) =
            (io.is_destage, io.notify_bufmgr, io.log_wb, io.joinable);
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
        // Later reads of the page must start a request of their own.
        if joinable {
            let in_flight = &mut self.units[unit]
                .coalescing
                .as_mut()
                .expect("joinable reads come from coalescing units")
                .in_flight;
            let listed = in_flight
                .iter()
                .position(|&(_, id)| id == io_id)
                .expect("a joinable read is listed until it completes");
            // A page is listed at most once, so the order is unobservable.
            in_flight.swap_remove(listed);
        }
        if let Some(slot) = waiter.filter(|&slot| self.txs.is_live(slot)) {
            self.ready.push_back(slot);
        }
        // Wake a whole group-commit batch parked on this log write, or every
        // reader that joined this read.
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
}
