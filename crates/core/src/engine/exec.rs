//! The per-transaction micro-operation state machine.
//!
//! A transaction progresses through BOT processing, its object references
//! (CPU burst → lock request → buffer fetch with possible I/O) and commit
//! processing.  Whenever a transaction's micro-operation queue runs dry the
//! current phase generates the next batch; blocked transactions re-enter the
//! ready queue when the resource they wait for (CPU, lock, I/O) is granted.
//!
//! Lock requests go to the *global* lock service.  In a data-sharing run a
//! request from a node other than the service's home node first pays a
//! message round trip ([`MicroOp::RemoteDelay`]) before it reaches the shared
//! lock table; on a single node every request is local and free.
//!
//! In a shared-nothing run the lock service is node-local (no messages);
//! instead, an object reference whose page is owned by another node is
//! *function-shipped*: [`MicroOp::RemoteCall`] carries execution to the
//! owner (one-way message), the reference's CPU burst plus a remote-handling
//! surcharge run on the owner's CPUs, the page is fetched through the
//! owner's buffer pool, and a second `RemoteCall` ships the reply home.

use bufmgr::UpdateStrategy;
use dbmodel::WorkloadGenerator;
use lockmgr::LockOutcome;
use simkernel::time::{instr_time, SimTime};

use super::transaction::{MicroOp, TxPhase, TxState};
use super::{Ev, Flow, Simulation};

impl<W: WorkloadGenerator> Simulation<W> {
    /// Drains the ready queue, advancing every runnable transaction.
    pub(super) fn process_ready(&mut self) {
        while let Some(slot) = self.ready.pop_front() {
            if self.txs.is_live(slot) {
                self.advance(slot);
            }
        }
    }

    fn advance(&mut self, slot: usize) {
        loop {
            let op = match self.txs.tx_mut(slot).micro.pop_front() {
                Some(op) => op,
                None => {
                    if !self.advance_phase(slot) {
                        return;
                    }
                    continue;
                }
            };
            match self.execute_op(slot, op) {
                Flow::Continue => continue,
                Flow::Blocked | Flow::Finished => return,
            }
        }
    }

    /// Generates the next batch of micro operations from the transaction's
    /// phase.  Returns false when there is nothing left to do.
    fn advance_phase(&mut self, slot: usize) -> bool {
        let cm = self.config.cm;
        let (phase, num_refs, is_update) = {
            let tx = self.txs.tx(slot);
            let entry = self.templates.entry(tx.template);
            (tx.phase, entry.template.len(), entry.is_update)
        };
        match phase {
            TxPhase::BeforeAccess { next_ref } if next_ref < num_refs => {
                let or = instr_time(self.service_rng.exponential(cm.instr_or), cm.mips);
                // Shared nothing: the owner of the referenced page was
                // interned with the template (`ref_owners` is empty under
                // data sharing); a remote owner means the reference is
                // function-shipped.
                let remote_owner = {
                    let tx = self.txs.tx(slot);
                    self.templates
                        .entry(tx.template)
                        .ref_owners
                        .get(next_ref)
                        .copied()
                        .filter(|&owner| owner != tx.node)
                };
                match remote_owner {
                    Some(owner) => {
                        let remote_cpu =
                            instr_time(self.config.partitioning.remote_cpu_instr, cm.mips);
                        let home = self.txs.tx(slot).node;
                        let tx = self.txs.tx_mut(slot);
                        // Ship the call to the owner, run the reference (plus
                        // the remote-handling surcharge) on the owner's CPUs,
                        // lock and fetch there, then ship the reply home.
                        // The buffer/I/O micro operations expand between the
                        // lock grant and the reply leg.
                        tx.micro.push_back(MicroOp::RemoteCall { node: owner });
                        tx.micro.push_back(MicroOp::CpuBurst {
                            ms: or + remote_cpu,
                            nvem: false,
                        });
                        tx.micro.push_back(MicroOp::Lock { ref_idx: next_ref });
                        tx.micro.push_back(MicroOp::RemoteCall { node: home });
                    }
                    None => {
                        let tx = self.txs.tx_mut(slot);
                        tx.micro.push_back(MicroOp::CpuBurst {
                            ms: or,
                            nvem: false,
                        });
                        tx.micro.push_back(MicroOp::Lock { ref_idx: next_ref });
                    }
                }
                self.txs.tx_mut(slot).phase = TxPhase::BeforeAccess {
                    next_ref: next_ref + 1,
                };
                true
            }
            TxPhase::BeforeAccess { .. } => {
                // All object references done: commit processing.
                let eot = instr_time(self.service_rng.exponential(cm.instr_eot), cm.mips);
                let force = self.config.buffer.update_strategy == UpdateStrategy::Force;
                // Shared nothing: the distinct remote owners of the written
                // pages (interned with the template) take part in the
                // two-phase commit exchange.
                let participants = {
                    let tx = self.txs.tx(slot);
                    self.templates
                        .entry(tx.template)
                        .written_owners
                        .iter()
                        .filter(|&&owner| owner != tx.node)
                        .count() as u32
                };
                let tx = self.txs.tx_mut(slot);
                tx.micro.push_back(MicroOp::CpuBurst {
                    ms: eot,
                    nvem: false,
                });
                if participants > 0 {
                    tx.micro.push_back(MicroOp::CommitExchange { participants });
                }
                if is_update && cm.logging {
                    tx.micro.push_back(MicroOp::LogWrite);
                }
                if is_update && force {
                    tx.micro.push_back(MicroOp::ForcePages);
                }
                tx.micro.push_back(MicroOp::Complete);
                tx.phase = TxPhase::Committing;
                true
            }
            TxPhase::Committing => false,
        }
    }

    fn execute_op(&mut self, slot: usize, op: MicroOp) -> Flow {
        match op {
            MicroOp::CpuBurst { ms, nvem } => self.op_cpu_burst(slot, ms, nvem),
            MicroOp::Lock { ref_idx } => self.op_lock(slot, ref_idx),
            MicroOp::RemoteDelay { ms } => self.op_remote_delay(slot, ms),
            MicroOp::RemoteCall { node } => self.op_remote_call(slot, node),
            MicroOp::CommitExchange { participants } => self.op_commit_exchange(slot, participants),
            MicroOp::IssueIo {
                unit,
                kind,
                page,
                wait,
                notify,
                log_wb,
            } => self.op_issue_io(slot, unit, kind, page, wait, notify, log_wb),
            MicroOp::LogWrite => self.op_log_write(slot),
            MicroOp::JoinCommitGroup { unit } => self.join_commit_group(slot, unit),
            MicroOp::ForcePages => self.op_force_pages(slot),
            MicroOp::Complete => self.op_complete(slot),
        }
    }

    /// Pure delay: the message round trip of a remote lock request.
    fn op_remote_delay(&mut self, slot: usize, ms: SimTime) -> Flow {
        self.txs.tx_mut(slot).state = TxState::WaitingMessage;
        self.queue.schedule_in(ms, Ev::MsgDone(slot));
        Flow::Blocked
    }

    /// A message for the transaction in `slot` arrived — a data-sharing lock
    /// round trip ([`Ev::MsgDone`]) or a shared-nothing function-shipping /
    /// commit-exchange message ([`Ev::RemoteDone`]): resume the transaction
    /// (at its already-switched execution node, for remote calls).
    pub(super) fn handle_msg_done(&mut self, slot: usize) {
        if let Some(tx) = self.txs.get_mut(slot) {
            tx.state = TxState::Ready;
            self.ready.push_back(slot);
        }
    }

    /// Shared nothing: ship execution of the transaction in `slot` to
    /// `node` (one one-way message).  The outbound leg (to a node other than
    /// the home node) is what counts as a *remote call*; the reply leg only
    /// adds its message.  Execution resumes at `node` when
    /// [`Ev::RemoteDone`] delivers the message.
    fn op_remote_call(&mut self, slot: usize, node: usize) -> Flow {
        let msg = self.config.partitioning.remote_msg_ms;
        let home = {
            let tx = self.txs.tx_mut(slot);
            tx.state = TxState::WaitingMessage;
            tx.exec_node = node;
            tx.node
        };
        self.shipping.messages += 1;
        self.shipping.total_message_delay_ms += msg;
        if node != home {
            self.shipping.remote_calls += 1;
            self.shipping.per_node_remote_calls[home] += 1;
            self.shipping.remote_cpu_ms += instr_time(
                self.config.partitioning.remote_cpu_instr,
                self.config.cm.mips,
            );
        }
        self.queue.schedule_in(msg, Ev::RemoteDone(slot));
        Flow::Blocked
    }

    /// Shared nothing: the two-phase commit exchange with `participants`
    /// remote owners of the committing transaction's written pages.  The
    /// prepare/vote round trips to all participants travel in parallel, so
    /// the transaction waits one round trip; the second-phase commit
    /// messages are asynchronous (counted, not waited for).
    fn op_commit_exchange(&mut self, slot: usize, participants: u32) -> Flow {
        debug_assert!(participants > 0, "exchange without participants");
        let msg = self.config.partitioning.remote_msg_ms;
        let round_trip = 2.0 * msg;
        self.shipping.commit_exchanges += 1;
        self.shipping.commit_participants += u64::from(participants);
        // 2 prepare/vote messages plus 1 commit message per participant.
        self.shipping.messages += 3 * u64::from(participants);
        self.shipping.total_message_delay_ms += round_trip;
        self.txs.tx_mut(slot).state = TxState::WaitingMessage;
        self.queue.schedule_in(round_trip, Ev::RemoteDone(slot));
        Flow::Blocked
    }

    fn op_lock(&mut self, slot: usize, ref_idx: usize) -> Flow {
        // `node` is the node the lock request is issued from: the home node
        // under data sharing, the page's owner while a shared-nothing
        // reference executes function-shipped (the two coincide otherwise).
        let (tx_id, home, node, obj_ref, msg_paid) = {
            let tx = self.txs.tx(slot);
            let entry = self.templates.entry(tx.template);
            (
                tx.id,
                tx.node,
                tx.exec_node,
                entry.template.refs[ref_idx],
                tx.lock_msg_paid,
            )
        };
        // Shared nothing: a reference executing on its home node is a local
        // access (the remote split is counted by the shipping `RemoteCall`s).
        if self.partition_map.is_some() && node == home {
            self.shipping.local_refs += 1;
        }
        // Remote request: pay the message round trip to the global lock
        // service first, then retry the lock operation.  (Never taken by the
        // shared-nothing local-only service.)
        if !msg_paid && self.lockmgr.needs_lock(&obj_ref) {
            if let Some(round_trip) = self.lockmgr.remote_round_trip(node) {
                let tx = self.txs.tx_mut(slot);
                tx.lock_msg_paid = true;
                tx.push_ops_front(&[
                    MicroOp::RemoteDelay { ms: round_trip },
                    MicroOp::Lock { ref_idx },
                ]);
                return Flow::Continue;
            }
        }
        if msg_paid {
            self.txs.tx_mut(slot).lock_msg_paid = false;
        }
        // Count the per-node remote request at the same instant the service
        // counts its side (the acquire), so the two stay consistent across a
        // warm-up reset and for zero-delay configurations.
        if !self.lockmgr.is_local_only()
            && node != self.lockmgr.home_node()
            && self.lockmgr.needs_lock(&obj_ref)
        {
            self.nodes[node].remote_lock_requests += 1;
        }
        match self.lockmgr.acquire(node, tx_id, &obj_ref) {
            LockOutcome::Granted => {
                self.buffer_fetch(slot, ref_idx);
                Flow::Continue
            }
            LockOutcome::Blocked => {
                let tx = self.txs.tx_mut(slot);
                tx.pending_lock_ref = Some(ref_idx);
                tx.state = TxState::WaitingLock;
                Flow::Blocked
            }
            LockOutcome::Deadlock => {
                self.aborts += 1;
                self.nodes[home].aborts += 1;
                let woken = self.lockmgr.abort(tx_id);
                self.wake_lock_waiters(&woken);
                // Restart the victim with the same reference string.
                let bot = instr_time(
                    self.service_rng.exponential(self.config.cm.instr_bot),
                    self.config.cm.mips,
                );
                let tx = self.txs.tx_mut(slot);
                tx.restart();
                tx.micro.push_back(MicroOp::CpuBurst {
                    ms: bot,
                    nvem: false,
                });
                Flow::Continue
            }
        }
    }

    pub(super) fn wake_lock_waiters(&mut self, ids: &[u64]) {
        for id in ids {
            let Some(&slot) = self.id_to_slot.get(id) else {
                continue;
            };
            let ref_idx = {
                let tx = self.txs.tx_mut(slot);
                tx.state = TxState::Ready;
                tx.pending_lock_ref.take()
            };
            if let Some(ref_idx) = ref_idx {
                self.buffer_fetch(slot, ref_idx);
            }
            self.ready.push_back(slot);
        }
    }

    /// Expands micro operations for the transaction in `slot` into the
    /// engine's reused scratch buffer and queues them, in order, at the
    /// front of its micro-operation queue.
    pub(super) fn expand_ops(
        &mut self,
        slot: usize,
        expand: impl FnOnce(&mut Self, &mut Vec<MicroOp>),
    ) {
        let mut ops = std::mem::take(&mut self.micro_scratch);
        ops.clear();
        expand(self, &mut ops);
        self.txs.tx_mut(slot).push_ops_front(&ops);
        self.micro_scratch = ops;
    }

    /// Performs the buffer-manager lookup for object reference `ref_idx`
    /// against the *executing* node's buffer pool — the transaction's home
    /// node under data sharing, the page's owner while a shared-nothing
    /// reference runs function-shipped — and queues the resulting storage
    /// operations.
    ///
    /// Under multi-node data sharing this is also the coherence hook: the
    /// node is registered in the page → holders index, an on-request
    /// validation check may turn a stale hit into a miss (plus a validation
    /// round trip), and a miss may be served by a direct cache-to-cache
    /// transfer from a donor node instead of a disk re-read.
    fn buffer_fetch(&mut self, slot: usize, ref_idx: usize) {
        let (node, obj_ref) = {
            let tx = self.txs.tx(slot);
            (
                tx.exec_node,
                self.templates.entry(tx.template).template.refs[ref_idx],
            )
        };
        let coherent = self.coherence_active();
        let validation_ms = if coherent {
            self.validate_reference(node, obj_ref.page)
        } else {
            None
        };
        let outcome = self.nodes[node].bufmgr.reference_page(
            obj_ref.partition,
            obj_ref.page,
            obj_ref.mode.is_write(),
        );
        self.expand_ops(slot, |sim, ops| {
            if let Some(ms) = validation_ms {
                ops.push(MicroOp::RemoteDelay { ms });
            }
            if coherent && !outcome.main_memory_hit && !outcome.nvem_cache_hit {
                sim.convert_page_ops_with_transfer(node, obj_ref.page, &outcome.ops, ops);
            } else {
                sim.convert_page_ops(&outcome.ops, ops);
            }
            if coherent {
                sim.note_holder(node, obj_ref.page);
                sim.stamp_fetch(node, obj_ref.page);
            }
            // Sequential-prefetch detection: a miss that goes to a disk unit
            // feeds the transaction's ascending-run tracker and may trigger
            // speculative read-ahead through that unit's scheduler.
            if sim.config.io_scheduler.prefetch_depth > 0 {
                let miss_read = ops.iter().find_map(|op| match *op {
                    MicroOp::IssueIo {
                        unit,
                        kind: storage::IoKind::Read,
                        page,
                        ..
                    } => Some((unit, page)),
                    _ => None,
                });
                if let Some((unit, page)) = miss_read {
                    sim.note_sequential_miss(slot, node, obj_ref.partition, unit, page);
                }
            }
        });
    }

    /// Updates the per-transaction ascending-miss-run tracker and, on a run
    /// of two or more consecutive pages, submits speculative reads for the
    /// next `prefetch_depth` pages to the unit's scheduler.  Candidate pages
    /// inherit the triggering reference's partition (sequential scans stay
    /// inside one database area); pages already buffered, pending or in
    /// flight are skipped.
    fn note_sequential_miss(
        &mut self,
        slot: usize,
        node: usize,
        partition: usize,
        unit: usize,
        page: dbmodel::PageId,
    ) {
        if self.units[unit].scheduler.is_none() {
            return;
        }
        let run = {
            let tx = self.txs.tx_mut(slot);
            if tx.last_miss_page == Some(dbmodel::PageId(page.0.wrapping_sub(1))) {
                tx.miss_run += 1;
            } else {
                tx.miss_run = 1;
            }
            tx.last_miss_page = Some(page);
            tx.miss_run
        };
        if run < 2 {
            return;
        }
        let depth = u64::from(self.config.io_scheduler.prefetch_depth);
        let mut submitted = false;
        for i in 1..=depth {
            let candidate = dbmodel::PageId(page.0.wrapping_add(i));
            if self.nodes[node].bufmgr.holds_page(candidate) {
                continue;
            }
            let sched = self.units[unit].scheduler.as_mut().expect("checked above");
            submitted |= sched.submit_prefetch(candidate, (node, partition));
        }
        if submitted {
            self.drain_scheduler(node, unit);
        }
    }
}
