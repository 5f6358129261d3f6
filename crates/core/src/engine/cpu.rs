//! CPU burst scheduling.
//!
//! Transactions share the CPU servers of the node they *execute* on (an FCFS
//! multi-server resource per computing module) — their home node, except
//! while a shared-nothing transaction runs function-shipped at a partition
//! owner.  A burst either starts immediately or queues; when a burst
//! finishes, the freed CPU is handed to the oldest queued burst of the same
//! node and the finished transaction re-enters the ready queue.

use dbmodel::WorkloadGenerator;
use simkernel::resource::Acquire;
use simkernel::time::{instr_time, SimTime};

use super::transaction::MicroOp;
use super::{slot_payload, Ev, Flow, Simulation};

impl<W: WorkloadGenerator> Simulation<W> {
    pub(super) fn op_cpu_burst(&mut self, slot: usize, ms: SimTime, nvem: bool) -> Flow {
        let now = self.queue.now();
        if nvem {
            self.nvem_busy += self.config.nvem.access_time;
        }
        let node = {
            let tx = self.txs.tx_mut(slot);
            tx.pending_burst = ms;
            tx.exec_node
        };
        // A queued burst starts when `handle_cpu_done` hands it the CPU.
        if let Acquire::Granted = self.nodes[node].cpus.acquire(now, slot as u64) {
            self.queue.schedule_in(ms, Ev::CpuDone(slot_payload(slot)));
        }
        Flow::Blocked
    }

    pub(super) fn handle_cpu_done(&mut self, slot: usize) {
        let now = self.queue.now();
        // The burst ran (and the freed CPU lives) at the executing node,
        // which cannot have changed while the transaction held the CPU.
        let node = self.txs.exec_node_of(slot);
        // Free the CPU and hand it to the node's next queued burst, if any.
        if let Some(next) = self.nodes[node].cpus.release(now) {
            let nslot = next as usize;
            if let Some(tx) = self.txs.get(nslot) {
                let burst = tx.pending_burst;
                self.queue
                    .schedule_in(burst, Ev::CpuDone(slot_payload(nslot)));
            }
        }
        if self.txs.is_live(slot) {
            self.ready.push_back(slot);
        }
    }

    /// A CPU burst covering the operating-system/DBMS overhead of one I/O.
    pub(super) fn io_overhead_burst(&mut self) -> MicroOp {
        let cm = self.config.cm;
        MicroOp::CpuBurst {
            ms: instr_time(self.service_rng.exponential(cm.instr_io), cm.mips),
            nvem: false,
        }
    }
}
