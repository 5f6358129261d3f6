//! The transaction record.
//!
//! A transaction progresses through BOT processing, its object references
//! (CPU burst → lock request → buffer fetch with possible I/O), and commit
//! processing (EOT burst, log write, FORCE writes, lock release).  The engine
//! drives this as a queue of *micro operations*; whenever the queue runs dry
//! the transaction's phase generates the next batch.
//!
//! One [`Transaction`] record holds a transaction from arrival to commit:
//! its reference string with the data derived from it once at arrival
//! (update flag, distinct written pages, shared-nothing owners), and from
//! admission on its execution state.  The record lives in the engine's
//! [`TxArena`](super::arena::TxArena), and its slot travels in the lock
//! manager's id ([`tx_id`], [`slot_of`]).

use std::collections::VecDeque;

use dbmodel::{PageId, PartitionMap, TransactionTemplate};
use simkernel::time::SimTime;
use storage::IoKind;

use super::iorequest::Completion;
use super::slot_payload;

/// The lock manager's id of the transaction admitted `admission`-th, whose
/// record is in `slot`.  The admission number fills the high word, so ids
/// order by admission: that order is the lock manager's wake-up order and
/// the sort key of its deadlock check, and a slot, which a later arrival
/// reuses, must never decide it.  The slot fills the low word, so a woken
/// id leads straight back to its record ([`slot_of`]).
pub(crate) fn tx_id(admission: u64, slot: usize) -> u64 {
    let admission = u32::try_from(admission).expect("admission number exceeds 32 bits");
    u64::from(admission) << 32 | u64::from(slot_payload(slot))
}

/// The slot of the record of the transaction with lock-manager id `id`.
#[inline]
pub(crate) fn slot_of(id: u64) -> usize {
    (id & u64::from(u32::MAX)) as usize
}

/// One step of a transaction that the engine knows how to execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MicroOp {
    /// Acquire a CPU, stay busy for `ms` milliseconds, release.  `nvem` marks
    /// bursts that represent a synchronous NVEM page transfer (for NVEM
    /// utilization accounting).
    CpuBurst { ms: SimTime, nvem: bool },
    /// Issue an I/O at disk unit `unit`.  A [`Completion::Plain`] I/O
    /// blocks the transaction until its foreground part completes; the
    /// others are asynchronous writes whose completion does the named
    /// follow-up.
    IssueIo {
        unit: usize,
        kind: IoKind,
        page: PageId,
        completion: Completion,
    },
    /// Request the lock for object reference `ref_idx`.
    Lock { ref_idx: usize },
    /// Pure delay of `ms`: a data-sharing message round trip (a remote
    /// request to the global lock service, an on-request validation or a
    /// direct page transfer).
    RemoteDelay { ms: SimTime },
    /// Shared nothing: ship execution to `node` (one-way message of the
    /// configured `remote_msg_ms`).  The transaction blocks until
    /// [`Ev::MsgDone`](super::Ev) delivers the message; subsequent micro
    /// operations (CPU bursts, lock requests, buffer fetches, I/O) run at
    /// `node` until the next `RemoteCall` ships execution elsewhere (the
    /// reply leg ships it back home).
    RemoteCall { node: usize },
    /// Shared nothing: the two-phase commit exchange with `participants`
    /// remote owner nodes — one prepare round trip (the prepare/vote
    /// messages to all participants travel in parallel) followed by
    /// asynchronous commit messages the committer does not wait for.
    CommitExchange { participants: u32 },
    /// Write the commit log record (resolved against the log allocation).
    LogWrite,
    /// Join the open group-commit batch for log device `unit` and block
    /// until the batch's shared log write completes.
    JoinCommitGroup { unit: usize },
    /// FORCE strategy: write all pages modified by the transaction.
    ForcePages,
    /// Finish the transaction: release locks, record statistics, free the slot.
    Complete,
}

/// Coarse execution phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxPhase {
    /// The transaction still has to perform object reference `next_ref` (BOT
    /// processing happens before reference 0).
    BeforeAccess { next_ref: usize },
    /// All commit-time micro operations have been queued.
    Committing,
}

impl Default for TxPhase {
    fn default() -> Self {
        Self::BeforeAccess { next_ref: 0 }
    }
}

/// One transaction in the system, from arrival to commit.
#[derive(Debug, Default)]
pub(crate) struct Transaction {
    /// The lock manager's id ([`tx_id`]); 0 until admission.
    pub id: u64,
    /// The computing module (node) the transaction runs on (its *home*:
    /// where it was admitted, where it occupies an MPL slot and where its
    /// completion is counted).
    pub node: usize,
    /// The node the transaction currently *executes* at.  Always equal to
    /// `node` under data sharing; in a shared-nothing run a
    /// [`MicroOp::RemoteCall`] ships execution to the owner of a remote
    /// partition (CPU bursts and buffer fetches then use that node's
    /// resources) and a second `RemoteCall` ships it back home.
    pub exec_node: usize,
    /// Arrival time at the SOURCE (response time is measured from here).
    pub arrival: SimTime,
    /// Coarse phase.
    pub phase: TxPhase,
    /// Pending micro operations.
    pub micro: VecDeque<MicroOp>,
    /// CPU burst length waiting for a CPU grant.
    pub pending_burst: SimTime,
    /// Object reference index whose lock request is outstanding.
    pub pending_lock_ref: Option<usize>,
    /// The reference string, written in place by the workload generator.
    pub template: TransactionTemplate,
    /// Distinct `(partition, page)` pairs written, sorted; derived once at
    /// arrival instead of at every FORCE / invalidation / redo use.
    pub written_pages: Vec<(usize, PageId)>,
    /// Shared nothing: owning node per object reference (parallel to
    /// `template.refs`), derived once at arrival instead of at every
    /// execution (and re-execution after a deadlock restart).  Empty under
    /// data sharing.
    pub ref_owners: Vec<usize>,
    /// Shared nothing: distinct owners of `written_pages` (sorted), the
    /// candidate participants of the commit exchange.  Empty under data
    /// sharing.
    pub written_owners: Vec<usize>,
    /// Whether any reference writes.
    pub is_update: bool,
}

impl Transaction {
    /// Readies the record for a transaction arriving at `arrival` whose
    /// `template` the workload generator has just filled: not yet admitted,
    /// with the derived data (written pages and, when a shared-nothing `map`
    /// is given, the owner per reference and the distinct owners of the
    /// written pages) recomputed into the record's reused buffers.
    pub fn arrive(&mut self, arrival: SimTime, map: Option<&PartitionMap>) {
        self.id = 0;
        self.arrival = arrival;
        self.is_update = self.template.is_update();
        let written = &mut self.written_pages;
        written.clear();
        written.extend(
            self.template
                .refs
                .iter()
                .filter(|r| r.mode.is_write())
                .map(|r| (r.partition, r.page)),
        );
        written.sort_unstable_by_key(|(p, page)| (*p, page.0));
        written.dedup();
        self.ref_owners.clear();
        self.written_owners.clear();
        let Some(map) = map else {
            return;
        };
        let refs = &self.template.refs;
        self.ref_owners
            .extend(refs.iter().map(|r| map.owner_of(r.page)));
        let owners = &mut self.written_owners;
        owners.extend(written.iter().map(|&(_, page)| map.owner_of(page)));
        owners.sort_unstable();
        owners.dedup();
    }

    /// Admits the transaction at `node` under lock-manager id `id`: it
    /// starts from BOT at home, as a restart does.
    pub fn admit(&mut self, id: u64, node: usize) {
        self.id = id;
        self.node = node;
        self.restart();
    }

    /// Resets the transaction for a restart after a deadlock abort.  The
    /// reference string and arrival time are kept, so the response time keeps
    /// accumulating across restarts.
    pub fn restart(&mut self) {
        self.phase = TxPhase::BeforeAccess { next_ref: 0 };
        self.micro.clear();
        // A victim shipped to a remote owner restarts at home (the abort
        // notification itself is not charged).
        self.exec_node = self.node;
        self.pending_lock_ref = None;
    }

    /// Pushes a batch of micro operations to the *front* of the queue,
    /// preserving their order (used when one operation expands into several,
    /// e.g. a buffer fetch that needs a victim write-back plus a read).
    pub fn push_ops_front(&mut self, ops: &[MicroOp]) {
        for &op in ops.iter().rev() {
            self.micro.push_front(op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A transaction admitted at `node` under `id`, arrived at `arrival`.
    fn admitted(id: u64, node: usize, arrival: SimTime) -> Transaction {
        let mut tx = Transaction::default();
        tx.arrive(arrival, None);
        tx.admit(id, node);
        tx
    }

    #[test]
    fn restart_resets_progress_but_keeps_arrival() {
        let mut tx = admitted(1, 0, 42.0);
        tx.phase = TxPhase::Committing;
        tx.micro.push_back(MicroOp::Complete);
        tx.pending_lock_ref = Some(2);
        tx.exec_node = 3; // shipped to a remote owner when the deadlock hit
        tx.restart();
        assert_eq!(tx.exec_node, 0, "restart must return execution home");
        assert_eq!(tx.phase, TxPhase::BeforeAccess { next_ref: 0 });
        assert!(tx.micro.is_empty());
        assert_eq!(tx.pending_lock_ref, None);
        assert_eq!((tx.id, tx.arrival), (1, 42.0));
    }

    #[test]
    fn reuse_resets_every_field_for_the_next_arrival() {
        let mut tx = admitted(1, 0, 42.0);
        tx.micro.push_back(MicroOp::Complete);
        tx.pending_lock_ref = Some(1);
        tx.exec_node = 5;
        tx.arrive(100.0, None);
        assert_eq!((tx.id, tx.arrival), (0, 100.0), "arrival is not admission");
        tx.admit(9, 2);
        assert_eq!((tx.id, tx.node, tx.exec_node), (9, 2, 2));
        assert_eq!(tx.phase, TxPhase::BeforeAccess { next_ref: 0 });
        assert!(tx.micro.is_empty());
        assert_eq!(tx.pending_lock_ref, None);
    }

    #[test]
    fn ids_carry_the_slot_and_order_by_admission() {
        for (admission, slot) in [(1, 0), (7, 3), (u64::from(u32::MAX), 12_345)] {
            let id = tx_id(admission, slot);
            assert_eq!(slot_of(id), slot);
            assert_ne!(id, 0, "0 marks a record not yet admitted");
        }
        // An earlier admission orders first, whatever the slots.
        assert!(tx_id(1, 9) < tx_id(2, 0));
        assert!(tx_id(2, 0) < tx_id(2, 1));
        assert!(tx_id(41, u32::MAX as usize) < tx_id(42, 0));
    }

    #[test]
    fn push_ops_front_preserves_order() {
        let mut tx = admitted(1, 0, 0.0);
        tx.micro.push_back(MicroOp::Complete);
        tx.push_ops_front(&[
            MicroOp::CpuBurst {
                ms: 1.0,
                nvem: false,
            },
            MicroOp::LogWrite,
        ]);
        let order: Vec<MicroOp> = tx.micro.iter().copied().collect();
        assert_eq!(
            order,
            vec![
                MicroOp::CpuBurst {
                    ms: 1.0,
                    nvem: false
                },
                MicroOp::LogWrite,
                MicroOp::Complete,
            ]
        );
    }
}
