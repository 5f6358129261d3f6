//! The SOURCE: transaction arrivals, node assignment and MPL admission
//! control.
//!
//! Transactions arrive in an open Poisson stream and are assigned to the
//! computing modules round robin (the assignment consumes no randomness, so a
//! single-node run draws the exact same streams as the pre-data-sharing
//! engine).  At most `cm.mpl` transactions are active per node at once and
//! excess arrivals wait in the owning node's input queue (admission control).
//! A slot freed at commit immediately admits the oldest transaction waiting
//! at that node.
//!
//! On arrival the workload generator writes the transaction straight into a
//! free entry of the engine's shared
//! [`TemplateTable`](super::arena::TemplateTable)
//! ([`WorkloadGenerator::next_into`]), reusing the entry's reference buffer;
//! the input queues and transaction slots only carry `u32` indices.

#[cfg(test)]
use dbmodel::TransactionTemplate;
use dbmodel::WorkloadGenerator;
use simkernel::time::{instr_time, SimTime};

use super::transaction::MicroOp;
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
        // Generate the transaction into a free template entry and assign it
        // to a node.
        let generated = self
            .templates
            .fill(self.partition_map.as_ref(), |template| {
                self.workload.next_into(&mut self.workload_rng, template)
            });
        match generated {
            Some(template) => {
                let node = self.next_arrival_node;
                self.next_arrival_node = (self.next_arrival_node + 1) % self.num_nodes();
                if self.nodes[node].active_count < self.config.cm.mpl {
                    self.activate_interned(node, template, now);
                } else {
                    self.nodes[node].input_queue.push_back((template, now));
                    self.total_queued += 1;
                    self.record_input_queue(node, now);
                }
            }
            None => {
                // Trace exhausted (non-cycling replay): no further arrivals.
                self.stop_arrivals = true;
            }
        }
    }

    /// Admits a transaction at `node` from an un-interned template (test and
    /// direct-manipulation entry point).
    #[cfg(test)]
    pub(super) fn activate(
        &mut self,
        node: usize,
        template: TransactionTemplate,
        arrival: SimTime,
    ) {
        let template = self
            .templates
            .fill(self.partition_map.as_ref(), |t| {
                *t = template;
                true
            })
            .expect("the fill always succeeds");
        self.activate_interned(node, template, arrival);
    }

    /// Admits a transaction at `node`: assigns a slot (reusing a completed
    /// transaction's carcass when one is free), queues its BOT processing and
    /// marks it ready.
    pub(super) fn activate_interned(&mut self, node: usize, template: u32, arrival: SimTime) {
        let now = self.queue.now();
        let id = self.next_tx_id;
        self.next_tx_id += 1;
        let bot = instr_time(
            self.service_rng.exponential(self.config.cm.instr_bot),
            self.config.cm.mips,
        );
        let slot = self.txs.activate(id, node, template, arrival);
        self.txs.tx_mut(slot).micro.push_back(MicroOp::CpuBurst {
            ms: bot,
            nvem: false,
        });
        self.id_to_slot.insert(id, slot);
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
        if let Some((template, arrival)) = self.nodes[node].input_queue.pop_front() {
            debug_assert!(self.total_queued > 0, "input-queue counter underflow");
            self.total_queued -= 1;
            self.record_input_queue(node, now);
            self.activate_interned(node, template, arrival);
        }
    }

    /// Records the aggregate and per-node input-queue lengths after a change
    /// at `node`.
    pub(super) fn record_input_queue(&mut self, node: usize, now: SimTime) {
        self.inputq_tw.record(now, self.total_queued as f64);
        let len = self.nodes[node].input_queue.len();
        self.nodes[node].inputq_tw.record(now, len as f64);
    }
}
