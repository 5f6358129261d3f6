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
//! message round trip ([`MicroOp::RemoteDelay`], queued between the
//! reference's CPU burst and its lock request) before it reaches the shared
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
use lockmgr::{GlobalLockService, LockOutcome};
use simkernel::time::{instr_time, SimTime};

use super::transaction::{slot_of, MicroOp, TxPhase};
use super::{slot_payload, Ev, Flow, Simulation};

impl<W: WorkloadGenerator> Simulation<W> {
    /// Drains the ready queue, advancing every runnable transaction.
    pub(super) fn process_ready(&mut self) {
        while let Some(slot) = self.ready.pop_front() {
            if self.txs.is_live(slot) {
                self.advance(slot);
            }
        }
    }

    /// Runs the transaction in `slot` until it blocks or finishes.
    ///
    /// Kept out of line: inlined into `process_ready`, which then left the
    /// event loop, it cost `ds16-nvemlog` about 3% of its simulated
    /// transactions per second.
    #[inline(never)]
    fn advance(&mut self, slot: usize) {
        debug_assert_ne!(self.txs.tx(slot).id, 0, "transaction not admitted");
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
            (tx.phase, tx.template.len(), tx.is_update)
        };
        match phase {
            TxPhase::BeforeAccess { next_ref } if next_ref < num_refs => {
                let or = instr_time(self.service_rng.exponential(cm.instr_or), cm.mips);
                // Shared nothing: the owner of the referenced page was
                // derived at arrival (`ref_owners` is empty under data
                // sharing); a remote owner means the reference is
                // function-shipped.
                let remote_owner = {
                    let tx = self.txs.tx(slot);
                    tx.ref_owners
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
                        // A remote request to the global lock service pays
                        // its message round trip first (never under the
                        // shared-nothing local-only service).
                        let tx = self.txs.tx(slot);
                        let obj_ref = &tx.template.refs[next_ref];
                        let round_trip = self.lockmgr.remote_round_trip(tx.node, obj_ref);
                        let tx = self.txs.tx_mut(slot);
                        tx.micro.push_back(MicroOp::CpuBurst {
                            ms: or,
                            nvem: false,
                        });
                        if let Some(ms) = round_trip {
                            tx.micro.push_back(MicroOp::RemoteDelay { ms });
                        }
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
                // pages (derived at arrival) take part in the two-phase
                // commit exchange.
                let participants = {
                    let tx = self.txs.tx(slot);
                    tx.written_owners
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
                if is_update {
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
                completion,
            } => self.op_issue_io(slot, unit, kind, page, completion),
            MicroOp::LogWrite => self.op_log_write(slot),
            MicroOp::JoinCommitGroup { unit } => self.join_commit_group(slot, unit),
            MicroOp::ForcePages => self.op_force_pages(slot),
            MicroOp::Complete => self.op_complete(slot),
        }
    }

    /// Pure delay: the message round trip of a remote lock request, a
    /// validation or a direct page transfer.
    fn op_remote_delay(&mut self, slot: usize, ms: SimTime) -> Flow {
        self.queue.schedule_in(ms, Ev::MsgDone(slot_payload(slot)));
        Flow::Blocked
    }

    /// A message for the transaction in `slot` arrived ([`Ev::MsgDone`]) — a
    /// data-sharing round trip or a shared-nothing function-shipping /
    /// commit-exchange message: resume the transaction (at its
    /// already-switched execution node, for remote calls).
    pub(super) fn handle_msg_done(&mut self, slot: usize) {
        if self.txs.is_live(slot) {
            self.ready.push_back(slot);
        }
    }

    /// Shared nothing: ship execution of the transaction in `slot` to
    /// `node` (one one-way message).  The outbound leg (to a node other than
    /// the home node) is what counts as a *remote call*; the reply leg only
    /// adds its message.  Execution resumes at `node` when
    /// [`Ev::MsgDone`] delivers the message.
    fn op_remote_call(&mut self, slot: usize, node: usize) -> Flow {
        let msg = self.config.partitioning.remote_msg_ms;
        let home = {
            let tx = self.txs.tx_mut(slot);
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
        self.queue.schedule_in(msg, Ev::MsgDone(slot_payload(slot)));
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
        self.queue
            .schedule_in(round_trip, Ev::MsgDone(slot_payload(slot)));
        Flow::Blocked
    }

    pub(super) fn op_lock(&mut self, slot: usize, ref_idx: usize) -> Flow {
        // `node` is the node the lock request is issued from: the home node
        // under data sharing, the page's owner while a shared-nothing
        // reference executes function-shipped (the two coincide otherwise).
        let (tx_id, home, node, obj_ref) = {
            let tx = self.txs.tx(slot);
            (tx.id, tx.node, tx.exec_node, tx.template.refs[ref_idx])
        };
        // Shared nothing: a reference executing on its home node is a local
        // access (the remote split is counted by the shipping `RemoteCall`s).
        if self.partition_map.is_some() && node == home {
            self.shipping.local_refs += 1;
        }
        // Count the per-node remote request at the same instant the service
        // counts its side (the acquire), so the two stay consistent across a
        // warm-up reset and for zero-delay configurations.
        if self.lockmgr.is_remote(node, &obj_ref) {
            self.nodes[node].remote_lock_requests += 1;
        }
        match self.lockmgr.acquire(node, tx_id, &obj_ref) {
            LockOutcome::Granted => {
                self.buffer_fetch(slot, ref_idx);
                Flow::Continue
            }
            LockOutcome::Blocked => {
                self.txs.tx_mut(slot).pending_lock_ref = Some(ref_idx);
                Flow::Blocked
            }
            LockOutcome::Deadlock => {
                self.aborts += 1;
                self.nodes[home].aborts += 1;
                self.wake_lock_waiters(|locks| locks.abort(tx_id));
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

    /// Resumes the transactions whose queued lock requests `release` (a
    /// commit's `release_all` or a deadlock victim's `abort`) granted.
    pub(super) fn wake_lock_waiters(
        &mut self,
        release: impl FnOnce(&mut GlobalLockService) -> &[u64],
    ) {
        let mut ids = std::mem::take(&mut self.woken_scratch);
        ids.clear();
        ids.extend_from_slice(release(&mut self.lockmgr));
        for &id in &ids {
            let slot = slot_of(id);
            debug_assert_eq!(self.txs.tx(slot).id, id, "woken id names another record");
            if let Some(ref_idx) = self.txs.tx_mut(slot).pending_lock_ref.take() {
                self.buffer_fetch(slot, ref_idx);
            }
            self.ready.push_back(slot);
        }
        self.woken_scratch = ids;
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
    /// node is registered in the page → holders index (and released from
    /// it for the page its pool evicted), an on-request validation check
    /// may turn a stale hit into a miss (plus a validation round trip), and
    /// a miss may be served by a direct cache-to-cache transfer from a
    /// donor node instead of a disk re-read.
    fn buffer_fetch(&mut self, slot: usize, ref_idx: usize) {
        let (node, obj_ref) = {
            let tx = self.txs.tx(slot);
            (tx.exec_node, tx.template.refs[ref_idx])
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
            if !coherent {
                return sim.convert_page_ops(&outcome.ops, ops);
            }
            sim.convert_page_ops_with_transfer(node, obj_ref.page, &outcome.ops, ops);
            // Only a main-memory miss fetches, and so has operations: a hit
            // finds the node's bit set, and a memory-resident page occupies
            // no frame, so no pool holds it.
            if !outcome.ops.is_empty() {
                sim.note_holder(node, obj_ref.page);
            }
            debug_assert!(
                !sim.nodes[node].bufmgr.holds_page(obj_ref.page)
                    || sim.has_holder_bit(node, obj_ref.page),
                "node {node} holds page {:?} without its holder bit",
                obj_ref.page
            );
            if let Some(evicted) = outcome.evicted {
                sim.release_holder(node, evicted);
            }
        });
    }
}
