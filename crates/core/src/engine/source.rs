//! The SOURCE: transaction arrivals, node assignment and MPL admission
//! control.
//!
//! Transactions arrive in an open Poisson stream and are assigned to the
//! computing modules round robin (the assignment consumes no randomness, so a
//! single-node run draws the exact same streams as the pre-data-sharing
//! engine).  At most `cm.mpl` transactions are active per node at once and
//! excess arrivals wait in the owning node's input queue (admission control).
//! An MPL slot freed at commit immediately admits the oldest transaction
//! waiting at that node.
//!
//! An arriving transaction claims its record in the engine's
//! [`TxArena`](super::arena::TxArena), and the workload generator writes
//! its reference string straight into the record
//! ([`WorkloadGenerator::next_into`]), reusing the buffers of a committed
//! transaction.  The input queues hold the records' slots, and admission
//! numbers the transaction and sets its execution state in the same record.

#[cfg(test)]
use dbmodel::TransactionTemplate;
use dbmodel::WorkloadGenerator;
use simkernel::time::{instr_time, SimTime};

use super::transaction::{tx_id, MicroOp};
use super::{Ev, Simulation};

impl<W: WorkloadGenerator> Simulation<W> {
    pub(super) fn handle_arrival(&mut self) {
        let now = self.queue.now();
        if self.stop_arrivals {
            return;
        }
        // Schedule the next arrival of the (possibly time-varying) Poisson
        // process.
        let gap = self.next_arrival_gap(now);
        if now + gap < self.end_time {
            self.queue.schedule_in(gap, Ev::Arrival);
        }
        // Generate the transaction into a free record and assign it to a
        // node.
        let generated = self
            .txs
            .claim_arrival(now, self.partition_map.as_ref(), |template| {
                self.workload.next_into(&mut self.workload_rng, template)
            });
        let Some(slot) = generated else {
            // Trace exhausted (non-cycling replay): no further arrivals.
            self.stop_arrivals = true;
            return;
        };
        let node = self.next_arrival_node;
        self.next_arrival_node = (self.next_arrival_node + 1) % self.num_nodes();
        if self.nodes[node].active_count < self.config.cm.mpl {
            self.admit(node, slot);
        } else {
            self.nodes[node].input_queue.push_back(slot);
            self.total_queued += 1;
            self.record_input_queue(node, now);
        }
        self.debug_assert_conservation();
    }

    /// Admits a transaction at `node` from a template of its own (test and
    /// direct-manipulation entry point) and returns its slot.
    #[cfg(test)]
    pub(super) fn activate(
        &mut self,
        node: usize,
        template: TransactionTemplate,
        arrival: SimTime,
    ) -> usize {
        let slot = self
            .txs
            .claim_arrival(arrival, self.partition_map.as_ref(), |t| {
                *t = template;
                true
            })
            .expect("the fill always succeeds");
        self.admit(node, slot);
        slot
    }

    /// Admits the arrived transaction in `slot` at `node`: numbers it,
    /// queues its BOT processing and marks it ready.
    pub(super) fn admit(&mut self, node: usize, slot: usize) {
        let now = self.queue.now();
        let id = tx_id(self.next_admission, slot);
        self.next_admission += 1;
        let bot = instr_time(
            self.service_rng.exponential(self.config.cm.instr_bot),
            self.config.cm.mips,
        );
        let tx = self.txs.tx_mut(slot);
        tx.admit(id, node);
        tx.micro.push_back(MicroOp::CpuBurst {
            ms: bot,
            nvem: false,
        });
        self.nodes[node].active_count += 1;
        self.total_active += 1;
        self.active_tw.record(now, self.total_active as f64);
        let node_active = self.nodes[node].active_count;
        self.nodes[node].active_tw.record(now, node_active as f64);
        self.ready.push_back(slot);
    }

    /// Admits the oldest transaction waiting in `node`'s input queue, if any
    /// (called when a commit frees an MPL slot on that node).
    pub(super) fn admit_next(&mut self, node: usize) {
        let now = self.queue.now();
        if let Some(slot) = self.nodes[node].input_queue.pop_front() {
            debug_assert!(self.total_queued > 0, "input-queue counter underflow");
            self.total_queued -= 1;
            self.record_input_queue(node, now);
            self.admit(node, slot);
        }
    }

    /// Transaction conservation: every claimed record belongs to an active
    /// or a queued transaction.
    pub(super) fn debug_assert_conservation(&self) {
        debug_assert_eq!(
            self.txs.claimed(),
            self.total_active + self.total_queued,
            "claimed transaction records vs active plus queued transactions"
        );
    }

    /// Records the aggregate and per-node input-queue lengths after a change
    /// at `node`.
    pub(super) fn record_input_queue(&mut self, node: usize, now: SimTime) {
        self.inputq_tw.record(now, self.total_queued as f64);
        let len = self.nodes[node].input_queue.len();
        self.nodes[node].inputq_tw.record(now, len as f64);
    }
}
