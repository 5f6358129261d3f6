//! Per-transaction execution state.
//!
//! A transaction progresses through BOT processing, its object references
//! (CPU burst → lock request → buffer fetch with possible I/O), and commit
//! processing (EOT burst, log write, FORCE writes, lock release).  The engine
//! drives this as a queue of *micro operations*; whenever the queue runs dry
//! the transaction's phase generates the next batch.
//!
//! The transaction does not own its reference string: `template` indexes the
//! engine's shared [`TemplateTable`], which also carries the per-template
//! derived data (update flag, distinct written pages).
//!
//! [`TemplateTable`]: super::arena::TemplateTable

use std::collections::VecDeque;

use dbmodel::PageId;
use simkernel::time::SimTime;
use storage::IoKind;

use super::iorequest::Completion;

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

/// The dynamic state of one active transaction.
#[derive(Debug)]
pub(crate) struct Transaction {
    /// Globally unique transaction identifier (used by the lock manager; its
    /// numeric order defines the lock manager's wake-up order, so it is
    /// never replaced by an arena index).
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
    /// Index of the transaction's reference string in the engine's shared
    /// template table.
    pub template: u32,
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
}

impl Transaction {
    /// Creates a freshly arrived transaction on `node`.
    pub fn new(id: u64, node: usize, template: u32, arrival: SimTime) -> Self {
        Self {
            id,
            node,
            exec_node: node,
            template,
            arrival,
            phase: TxPhase::BeforeAccess { next_ref: 0 },
            micro: VecDeque::new(),
            pending_burst: 0.0,
            pending_lock_ref: None,
        }
    }

    /// Re-initialises a completed transaction's carcass for the next arrival
    /// on its slot, keeping the micro queue's allocation.
    pub fn reuse(&mut self, id: u64, node: usize, template: u32, arrival: SimTime) {
        self.id = id;
        self.node = node;
        self.exec_node = node;
        self.template = template;
        self.arrival = arrival;
        self.phase = TxPhase::BeforeAccess { next_ref: 0 };
        self.micro.clear();
        self.pending_burst = 0.0;
        self.pending_lock_ref = None;
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

    #[test]
    fn restart_resets_progress_but_keeps_arrival() {
        let mut tx = Transaction::new(1, 0, 7, 42.0);
        tx.phase = TxPhase::Committing;
        tx.micro.push_back(MicroOp::Complete);
        tx.pending_lock_ref = Some(2);
        tx.exec_node = 3; // shipped to a remote owner when the deadlock hit
        tx.restart();
        assert_eq!(tx.exec_node, 0, "restart must return execution home");
        assert_eq!(tx.phase, TxPhase::BeforeAccess { next_ref: 0 });
        assert!(tx.micro.is_empty());
        assert_eq!(tx.pending_lock_ref, None);
        assert_eq!(tx.arrival, 42.0);
        assert_eq!(tx.template, 7);
    }

    #[test]
    fn reuse_resets_every_field_for_the_next_arrival() {
        let mut tx = Transaction::new(1, 0, 7, 42.0);
        tx.restart();
        tx.micro.push_back(MicroOp::Complete);
        tx.pending_lock_ref = Some(1);
        tx.exec_node = 5;
        tx.reuse(9, 2, 3, 100.0);
        assert_eq!((tx.id, tx.node, tx.template, tx.arrival), (9, 2, 3, 100.0));
        assert_eq!(tx.exec_node, 2);
        assert_eq!(tx.phase, TxPhase::BeforeAccess { next_ref: 0 });
        assert!(tx.micro.is_empty());
        assert_eq!(tx.pending_lock_ref, None);
    }

    #[test]
    fn push_ops_front_preserves_order() {
        let mut tx = Transaction::new(1, 0, 0, 0.0);
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
