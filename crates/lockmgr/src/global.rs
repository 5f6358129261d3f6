//! The global lock service of the data-sharing configuration.
//!
//! When several computing modules (nodes) share the database (Rahm's
//! data-sharing architecture), concurrency control must be global: all nodes
//! synchronize their accesses through one logically centralized lock table.
//! This module models that service as one shared [`LockManager`] table
//! fronted by a configurable *message delay*: a lock request from a node
//! other than the service's home node pays a round-trip communication cost
//! before the table answers, while requests from the home node are served
//! locally for free.
//!
//! Like the rest of the crate the service is a pure data structure — it never
//! advances simulated time.  The transaction system asks
//! [`GlobalLockService::remote_round_trip`] for the delay it must simulate
//! before submitting the request, then calls
//! [`GlobalLockService::acquire`] exactly once per lock request.
//! Lock releases are modelled as asynchronous messages (the committing
//! transaction does not wait for them), matching the usual treatment in
//! data-sharing performance models.

use dbmodel::ObjectRef;

use crate::manager::{CcMode, LockManager, LockManagerStats, LockOutcome};
use crate::table::TxId;

/// Counters specific to the global lock service (on top of the table's own
/// [`LockManagerStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GlobalLockStats {
    /// Lock requests issued by the home node (no messages needed).
    pub local_requests: u64,
    /// Lock requests issued by other nodes (each exchanges a message round
    /// trip with the service; the *charged* delay may be zero).
    pub remote_requests: u64,
    /// Messages exchanged with remote nodes (2 per remote request, counted
    /// even when the configured delay is zero).
    pub messages: u64,
    /// Total simulated communication delay charged to remote requests (ms).
    pub total_message_delay_ms: f64,
}

/// A globally shared lock table fronted by a per-request message delay.
#[derive(Debug)]
pub struct GlobalLockService {
    /// The shared table every node's lock requests are routed to.
    table: LockManager,
    home_node: usize,
    message_delay_ms: f64,
    /// Shared-nothing mode: every request is node-local (the requesting node
    /// owns the partition), so no home node, no messages, no remote split.
    local_only: bool,
    stats: GlobalLockStats,
}

impl GlobalLockService {
    /// Creates a global lock service with the given per-partition CC modes,
    /// hosted on `home_node`, charging `message_delay_ms` per one-way message
    /// to every other node.
    pub fn new(modes: Vec<CcMode>, home_node: usize, message_delay_ms: f64) -> Self {
        Self {
            table: LockManager::new(modes),
            home_node,
            message_delay_ms: message_delay_ms.max(0.0),
            local_only: false,
            stats: GlobalLockStats::default(),
        }
    }

    /// A *node-local* service for shared-nothing configurations: every node
    /// locks only the partitions it owns, so a request never crosses nodes —
    /// no round trips, no remote/local split, every request counted as local
    /// regardless of the requesting node.  The single table still detects
    /// deadlocks that span nodes (a centralized detector over per-node
    /// tables whose lock sets are disjoint by construction).
    pub fn node_local(modes: Vec<CcMode>) -> Self {
        Self {
            local_only: true,
            ..Self::new(modes, 0, 0.0)
        }
    }

    /// The node hosting the service.
    pub fn home_node(&self) -> usize {
        self.home_node
    }

    /// The configured one-way message delay (ms).
    #[cfg(test)]
    pub fn message_delay_ms(&self) -> f64 {
        self.message_delay_ms
    }

    /// True if the object reference needs a lock at all (its partition is
    /// subject to concurrency control).  References that need no lock also
    /// exchange no messages.
    pub fn needs_lock(&self, r: &ObjectRef) -> bool {
        self.table.request_for(r).item.is_some()
    }

    /// True if the lock request for `r` from `node` is remote: it needs a
    /// lock and travels from another node to the service's home node.  The
    /// node-local (shared-nothing) service has no remote requests.
    pub fn is_remote(&self, node: usize, r: &ObjectRef) -> bool {
        !self.local_only && node != self.home_node && self.needs_lock(r)
    }

    /// The round-trip communication delay (ms) the lock request for `r` from
    /// `node` must simulate before calling [`GlobalLockService::acquire`], or
    /// `None` when the request is not remote or the configured delay is zero.
    pub fn remote_round_trip(&self, node: usize, r: &ObjectRef) -> Option<f64> {
        (self.is_remote(node, r) && self.message_delay_ms > 0.0)
            .then_some(2.0 * self.message_delay_ms)
    }

    /// Requests the lock needed for object reference `r` on behalf of `tx`
    /// running on `node`.  The caller must already have simulated the
    /// [`GlobalLockService::remote_round_trip`] delay, if any.
    pub fn acquire(&mut self, node: usize, tx: TxId, r: &ObjectRef) -> LockOutcome {
        if self.is_remote(node, r) {
            self.stats.remote_requests += 1;
            self.stats.messages += 2;
            self.stats.total_message_delay_ms += 2.0 * self.message_delay_ms;
        } else if self.needs_lock(r) {
            self.stats.local_requests += 1;
        }
        self.table.acquire(tx, r)
    }

    /// Releases all locks of `tx` (commit phase 2).  Returns the transactions
    /// whose queued requests became granted, from a buffer the table reuses
    /// (see [`LockManager::release_all`]).
    pub fn release_all(&mut self, tx: TxId) -> &[TxId] {
        self.table.release_all(tx)
    }

    /// Aborts `tx`: cancels a pending wait and releases all held locks.
    /// Returns the woken transactions as
    /// [`release_all`](Self::release_all) does.
    pub fn abort(&mut self, tx: TxId) -> &[TxId] {
        self.table.abort(tx)
    }

    /// Crash recovery: clears the shared table (all holders and waiters died
    /// with the system).  Returns the number of locks held at the crash.
    /// Restart processing re-acquires locks through the same service.
    pub fn crash_reset(&mut self) -> u64 {
        self.table.crash_reset()
    }

    /// The shared table's statistics (requests, conflicts, deadlocks).
    pub fn stats(&self) -> LockManagerStats {
        self.table.stats()
    }

    /// The service-level statistics (local/remote split, messages).
    pub fn global_stats(&self) -> GlobalLockStats {
        self.stats
    }

    /// Resets both the table and the service statistics (end of warm-up).
    pub fn reset_stats(&mut self) {
        self.table.reset_stats();
        self.stats = GlobalLockStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::{AccessMode, ObjectId, PageId};

    fn obj_ref(partition: usize, page: u64, write: bool) -> ObjectRef {
        ObjectRef {
            partition,
            page: PageId(page),
            object: ObjectId(page * 10),
            mode: if write {
                AccessMode::Write
            } else {
                AccessMode::Read
            },
        }
    }

    fn service() -> GlobalLockService {
        GlobalLockService::new(vec![CcMode::Page, CcMode::None], 0, 0.25)
    }

    #[test]
    fn home_node_requests_are_local_and_free() {
        let mut s = service();
        assert!(!s.is_remote(0, &obj_ref(0, 1, true)));
        assert_eq!(s.remote_round_trip(0, &obj_ref(0, 1, true)), None);
        assert_eq!(s.acquire(0, 1, &obj_ref(0, 1, true)), LockOutcome::Granted);
        assert_eq!(s.global_stats().local_requests, 1);
        assert_eq!(s.global_stats().remote_requests, 0);
        assert_eq!(s.global_stats().messages, 0);
    }

    #[test]
    fn remote_requests_pay_a_round_trip_and_are_counted() {
        let mut s = service();
        assert!(s.is_remote(3, &obj_ref(0, 1, true)));
        assert_eq!(s.remote_round_trip(3, &obj_ref(0, 1, true)), Some(0.5));
        assert_eq!(s.acquire(3, 1, &obj_ref(0, 1, true)), LockOutcome::Granted);
        let g = s.global_stats();
        assert_eq!(g.remote_requests, 1);
        assert_eq!(g.messages, 2);
        assert!((g.total_message_delay_ms - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_cc_partitions_need_no_lock_and_no_messages() {
        let mut s = service();
        assert!(!s.needs_lock(&obj_ref(1, 7, true)));
        assert!(!s.is_remote(5, &obj_ref(1, 7, true)));
        assert_eq!(s.remote_round_trip(5, &obj_ref(1, 7, true)), None);
        assert_eq!(s.acquire(5, 1, &obj_ref(1, 7, true)), LockOutcome::Granted);
        assert_eq!(s.global_stats(), GlobalLockStats::default());
        assert_eq!(s.stats().requests, 0);
    }

    #[test]
    fn conflicts_cross_nodes_through_the_shared_table() {
        let mut s = service();
        assert_eq!(s.acquire(0, 1, &obj_ref(0, 9, true)), LockOutcome::Granted);
        // A transaction on another node conflicts on the same page.
        assert_eq!(s.acquire(1, 2, &obj_ref(0, 9, true)), LockOutcome::Blocked);
        assert_eq!(s.stats().conflicts, 1);
        assert_eq!(s.release_all(1), [2]);
        assert!(s.abort(2).is_empty());
    }

    #[test]
    fn single_node_service_never_charges_messages() {
        let mut s = GlobalLockService::new(vec![CcMode::Page], 0, 0.0);
        assert_eq!(s.remote_round_trip(0, &obj_ref(0, 1, true)), None);
        assert_eq!(s.remote_round_trip(4, &obj_ref(0, 1, true)), None);
        s.acquire(4, 1, &obj_ref(0, 1, true));
        // Node 4 is "remote" but the delay is zero; the split is still kept.
        assert_eq!(s.global_stats().remote_requests, 1);
        assert_eq!(s.global_stats().total_message_delay_ms, 0.0);
    }

    #[test]
    fn node_local_service_never_messages_and_counts_everything_local() {
        let mut s = GlobalLockService::node_local(vec![CcMode::Page]);
        assert!(!s.is_remote(5, &obj_ref(0, 1, true)));
        assert_eq!(s.remote_round_trip(5, &obj_ref(0, 1, true)), None);
        assert_eq!(s.acquire(5, 1, &obj_ref(0, 1, true)), LockOutcome::Granted);
        assert_eq!(s.acquire(2, 2, &obj_ref(0, 2, true)), LockOutcome::Granted);
        let g = s.global_stats();
        assert_eq!(g.local_requests, 2);
        assert_eq!(g.remote_requests, 0);
        assert_eq!(g.messages, 0);
        assert_eq!(g.total_message_delay_ms, 0.0);
        // Conflicts (and deadlock detection) still work through the table.
        assert_eq!(s.acquire(2, 3, &obj_ref(0, 1, true)), LockOutcome::Blocked);
        assert_eq!(s.release_all(1), [3]);
        // The ordinary constructors stay non-local.
        assert!(
            GlobalLockService::new(vec![CcMode::Page], 0, 0.0).is_remote(5, &obj_ref(0, 1, true))
        );
    }

    #[test]
    fn reset_clears_both_stat_sets() {
        let mut s = service();
        s.acquire(1, 1, &obj_ref(0, 1, true));
        s.reset_stats();
        assert_eq!(s.global_stats(), GlobalLockStats::default());
        assert_eq!(s.stats(), LockManagerStats::default());
        assert_eq!(s.home_node(), 0);
        assert!((s.message_delay_ms() - 0.25).abs() < 1e-12);
        // Held locks survive a stats reset: tx 1 still blocks a conflicting
        // request through the shared table.
        assert_eq!(s.acquire(0, 2, &obj_ref(0, 1, true)), LockOutcome::Blocked);
    }
}
