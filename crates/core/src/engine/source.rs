//! The SOURCE: transaction arrivals, node assignment and MPL admission
//! control.
//!
//! Transactions arrive in an open Poisson stream and are assigned to the
//! computing modules round robin (the assignment consumes no randomness, so a
//! single-node run draws the exact same streams as the pre-data-sharing
//! engine).  Each node admits through its admission station, a
//! [`Resource`](simkernel::Resource) with `cm.mpl` servers: a busy server is
//! an active transaction, and an arrival that finds every server busy waits
//! in the station's FIFO queue, the node's input queue.  The server a commit
//! frees passes straight to the oldest transaction waiting at that node.
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
use simkernel::resource::Acquire;
use simkernel::time::instr_time;
#[cfg(test)]
use simkernel::time::SimTime;

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
        if let Acquire::Granted = self.nodes[node].admission.acquire(now, slot as u64) {
            self.admit(node, slot);
        }
        self.debug_assert_conservation();
    }

    /// Admits a transaction at `node` from a template of its own (test and
    /// direct-manipulation entry point) and returns its slot.
    ///
    /// # Panics
    /// Panics if every MPL server of `node` is busy.
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
        let now = self.queue.now();
        let granted = self.nodes[node].admission.acquire(now, slot as u64);
        assert_eq!(granted, Acquire::Granted, "no free MPL server");
        self.admit(node, slot);
        slot
    }

    /// Admits the arrived transaction in `slot` at `node`: numbers it,
    /// queues its BOT processing and marks it ready.
    pub(super) fn admit(&mut self, node: usize, slot: usize) {
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
        self.ready.push_back(slot);
    }

    /// Transaction conservation: every claimed record belongs to an active
    /// or a queued transaction, a busy server or a queued token of its
    /// node's admission station.
    pub(super) fn debug_assert_conservation(&self) {
        debug_assert_eq!(
            self.txs.claimed(),
            self.nodes
                .iter()
                .map(|n| n.admission.busy() + n.admission.queue_len())
                .sum::<usize>(),
            "claimed transaction records vs active plus queued transactions"
        );
    }
}
