//! # lockmgr — TPSIM concurrency control component
//!
//! Implements the CC component of §3.2: strict two-phase locking with long
//! read and write locks, a choice of page-level or object-level granularity
//! (or no locking at all) selectable per partition, deadlock detection on
//! every denied lock request with the requester aborted to break the cycle.
//!
//! The deadlock check keeps no waits-for graph of its own: who waits for
//! whom follows from the lock table.  A request waits for the incompatible
//! holders and for every request queued ahead of it
//! ([`LockTable::wait_for_set`](table::LockTable::wait_for_set)).  A denied
//! request deadlocks if one of these blockers waits, directly or through
//! other waiters, for the requester; the check walks backward from the
//! requester ([`LockTable::waiting_for`](table::LockTable::waiting_for)) and
//! so visits only the requester's transitive waiters.
//!
//! The lock manager is a pure data structure: it does not know about
//! simulated time.  The transaction system drives it and interprets the
//! returned [`LockOutcome`]s (granted → continue, queued → block the
//! transaction, deadlock → abort and restart).

//!
//! For data-sharing configurations (several computing modules against one
//! storage complex) the [`global`] module wraps the same table in a
//! [`GlobalLockService`]: one shared [`LockManager`] table plus a
//! configurable message delay per remote lock request.

// Every public item must be documented (same discipline as `tpsim`; CI
// builds docs with `RUSTDOCFLAGS=-D warnings`).
#![warn(missing_docs)]

pub mod global;
pub mod manager;
pub mod table;

pub use global::{GlobalLockService, GlobalLockStats};
pub use manager::{CcMode, LockManager, LockManagerStats, LockOutcome, LockRequest};
pub use table::{LockMode, LockableId, TxId};
