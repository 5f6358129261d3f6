//! The I/O request lifecycle against the pluggable [`StorageDevice`] models.
//!
//! An I/O is issued by asking the target device for an
//! [`storage::IoDecision`] (which service stages the request must pass
//! through); the stages are then executed against the device's controller
//! and disk-server resources so queueing is modelled faithfully.  Completion
//! performs the request's [`Completion`] follow-up (notifying the buffer
//! manager about an asynchronous write, freeing an NVEM log write-buffer
//! page, cleaning a destaged cache frame, charging a checkpoint), spawns the
//! background destage of an absorbed write, and wakes the waiting
//! transactions — one blocking issuer, the readers that joined it, or a
//! group-commit batch.
//!
//! At a unit with read coalescing on, a synchronous read of a page that is
//! already being read there joins that request instead of starting its own:
//! the unit lists its in-flight blocking reads, and the one completion wakes
//! every transaction that joined.
//!
//! Requests live in the engine's [`IoArena`](super::arena::IoArena): the
//! request id carried by every `IoStage` event and resource token is a
//! plain slot index, so the per-event lookups here never hash.  Device
//! decisions arrive with their stages inline and are copied into a recycled
//! request, so issuing and completing an I/O allocates nothing.
//!
//! [`StorageDevice`]: storage::StorageDevice

use bufmgr::PageOp;
use dbmodel::{PageId, WorkloadGenerator};
use simkernel::resource::Acquire;
use storage::{ForegroundStages, IoKind, ServiceStage};

use super::iorequest::{Completion, IoRequest};
use super::transaction::MicroOp;
use super::{slot_payload, Ev, Flow, Simulation};

impl<W: WorkloadGenerator> Simulation<W> {
    /// Translates buffer-manager page operations into engine micro operations,
    /// charging the per-I/O CPU overhead and the synchronous NVEM transfer
    /// costs.  The micro operations are appended to `out`.
    pub(super) fn convert_page_ops(&mut self, ops: &[PageOp], out: &mut Vec<MicroOp>) {
        let cm = self.config.cm;
        let nvem_cost = self.config.nvem.synchronous_cost(cm.mips);
        for op in ops {
            let (unit, kind, page, completion) = match *op {
                PageOp::NvemTransfer { .. } => {
                    out.push(MicroOp::CpuBurst {
                        ms: nvem_cost,
                        nvem: true,
                    });
                    continue;
                }
                PageOp::UnitRead { unit, page } => (unit, IoKind::Read, page, Completion::Plain),
                PageOp::UnitWrite { unit, page } => (unit, IoKind::Write, page, Completion::Plain),
                PageOp::UnitWriteAsync { unit, page } => {
                    (unit, IoKind::Write, page, Completion::WriteBack)
                }
            };
            out.push(self.io_overhead_burst());
            out.push(MicroOp::IssueIo {
                unit,
                kind,
                page,
                completion,
            });
        }
    }

    /// Asks the device for its service decision, registers the request and
    /// starts its first stage.  Every I/O — a transaction's, a group-commit
    /// batch's or a checkpoint's — goes through here.  `node` is the
    /// computing module whose buffer manager issued the request (buffer
    /// notifications are routed back to it); `waiters` are the slots its
    /// completion wakes.  A blocking read at a coalescing unit is listed as
    /// in flight before its first stage runs, and the waiters are attached
    /// before it too, so even a request that completes at once is unlisted
    /// again and wakes them (a late attach could alias a recycled slot).
    pub(super) fn start_io(
        &mut self,
        node: usize,
        unit: usize,
        kind: IoKind,
        page: PageId,
        completion: Completion,
        waiters: &[usize],
    ) {
        let decision = self.units[unit].device.request(kind, page);
        let joinable =
            kind == IoKind::Read && !waiters.is_empty() && self.units[unit].coalescing.is_some();
        let (io_id, io) = self.ios.claim_request(IoRequest {
            unit,
            node,
            page,
            stages: decision.foreground,
            background: decision.background,
            completion,
            issued_at: self.queue.now(),
            joinable,
            ..IoRequest::default()
        });
        io.waiters.extend_from_slice(waiters);
        if joinable {
            self.units[unit]
                .coalescing
                .as_mut()
                .expect("joinable reads come from coalescing units")
                .in_flight
                .push((page, io_id));
        }
        self.advance_io(io_id);
    }

    pub(super) fn op_issue_io(
        &mut self,
        slot: usize,
        unit: usize,
        kind: IoKind,
        page: PageId,
        completion: Completion,
    ) -> Flow {
        let blocking = completion == Completion::Plain;
        if kind == IoKind::Read && blocking {
            if let Some(coalescing) = self.units[unit].coalescing.as_mut() {
                if let Some(&(_, io_id)) = coalescing.in_flight.iter().find(|&&(p, _)| p == page) {
                    // The page is already being read here: wait for that
                    // request's completion instead of paying for another.
                    coalescing.coalesced += 1;
                    self.ios
                        .get_mut(io_id)
                        .expect("listed reads are live")
                        .waiters
                        .push(slot);
                    return Flow::Blocked;
                }
            }
        }
        // I/O is issued by the buffer pool of the *executing* node (the
        // partition owner while a shared-nothing reference runs shipped), so
        // completion notifications must route back to that pool.
        let node = self.txs.exec_node_of(slot);
        let waiters: &[usize] = if blocking {
            std::slice::from_ref(&slot)
        } else {
            &[]
        };
        self.start_io(node, unit, kind, page, completion, waiters);
        if blocking {
            Flow::Blocked
        } else {
            Flow::Continue
        }
    }

    /// Takes request `io_id`'s next stage: queues it for a controller or a
    /// disk of its unit (serving it at once when one is free), or starts its
    /// transmission.  A request with no stage left completes.
    pub(super) fn advance_io(&mut self, io_id: usize) {
        let now = self.queue.now();
        let io = self.ios.get_mut(io_id).expect("live io request");
        let unit = io.unit;
        let (servers, t) = match io.pop_stage() {
            None => return self.complete_io(io_id),
            Some(ServiceStage::Transmission(t)) => {
                self.queue.schedule_in(t, Ev::IoStage(slot_payload(io_id)));
                return;
            }
            Some(ServiceStage::Controller(t)) => (&mut self.units[unit].controllers, t),
            Some(ServiceStage::Disk(t)) => (&mut self.units[unit].disks, t),
        };
        if servers.acquire(now, io_id as u64) == Acquire::Granted {
            self.queue.schedule_in(t, Ev::IoStage(slot_payload(io_id)));
        }
    }

    /// Request `io_id` finished its current stage: the controller or disk it
    /// held goes to the next request queued there, which is served for its
    /// own current stage; then `io_id` takes its next stage.
    pub(super) fn handle_io_stage(&mut self, io_id: usize) {
        let now = self.queue.now();
        let io = self.ios.get(io_id).expect("live io request");
        let unit = &mut self.units[io.unit];
        let next = match io.current_stage() {
            Some(ServiceStage::Controller(_)) => unit.controllers.release(now),
            Some(ServiceStage::Disk(_)) => unit.disks.release(now),
            _ => None,
        };
        if let Some(next) = next {
            let next = next as usize;
            let service = self
                .ios
                .get(next)
                .and_then(IoRequest::current_stage)
                .map_or(0.0, |stage| stage.service_time());
            self.queue
                .schedule_in(service, Ev::IoStage(slot_payload(next)));
        }
        self.advance_io(io_id);
    }

    /// Completes request `io_id`.  The request stays live (its slot
    /// unclaimable) until the end, so its fields and waiter list can be read
    /// while the completion's follow-up work issues new requests.
    fn complete_io(&mut self, io_id: usize) {
        let now = self.queue.now();
        let io = self.ios.get(io_id).expect("live io request");
        let (unit, node, page, background) = (io.unit, io.node, io.page, io.background);
        let (completion, issued_at, joinable) = (io.completion, io.issued_at, io.joinable);
        match completion {
            Completion::Plain => {}
            Completion::WriteBack => self.nodes[node].bufmgr.async_write_complete(page),
            Completion::LogWriteBuffer => {
                // Every completion must match an earlier occupancy increment
                // in `op_log_write`; an underflow means the write-buffer
                // accounting is broken and must surface instead of being
                // clamped away.
                debug_assert!(
                    self.log_wb_pending > 0,
                    "NVEM log write-buffer occupancy underflow: completion without reservation"
                );
                if let Some(next) = self.log_wb_pending.checked_sub(1) {
                    self.log_wb_pending = next;
                }
            }
            Completion::Destage => self.units[unit].device.destage_complete(page),
            Completion::Checkpoint => {
                if let Some(rec) = self.recovery.as_mut() {
                    rec.checkpoint_overhead_ms += now - issued_at;
                }
            }
        }
        if !background.is_empty() {
            // The destage claims its slot while this request still holds
            // its own.
            let mut stages = ForegroundStages::new();
            stages.extend(background);
            let (destage, _) = self.ios.claim_request(IoRequest {
                unit,
                node,
                page,
                stages,
                completion: Completion::Destage,
                issued_at: now,
                ..IoRequest::default()
            });
            self.advance_io(destage);
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
        let io = self.ios.get(io_id).expect("live io request");
        for &slot in &io.waiters {
            if self.txs.is_live(slot) {
                self.ready.push_back(slot);
            }
        }
        self.ios.release(io_id);
    }
}
