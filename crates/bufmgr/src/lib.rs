//! # bufmgr — TPSIM DBMS buffer manager
//!
//! Implements the BM component of §3.2:
//!
//! * caching of database pages in **main memory** under a global LRU policy;
//! * a **second-level database buffer in NVEM** that every page replaced
//!   from main memory of a disk-resident partition migrates into; under
//!   NOFORCE the main-memory and NVEM buffers are kept *exclusive* (a page
//!   is cached at most once), under FORCE pages forced to NVEM also stay in
//!   main memory (replication);
//! * a **write buffer in NVEM** that absorbs page writes at NVEM speed and
//!   updates the disk copy asynchronously;
//! * the **FORCE / NOFORCE** update strategies;
//! * logging (one log page per update transaction, handled by the engine using
//!   the configured log allocation); and
//! * a per-pool **dirty-page table** ([`dirty::DirtyPageTable`]) tracking
//!   committed-but-unpropagated updates for the engine's crash-recovery
//!   subsystem.
//!
//! Like the device models, the buffer manager is pure policy: every page
//! reference returns the ordered list of [`ops::PageOp`]s the transaction must
//! perform (synchronous NVEM transfers, device reads, synchronous or
//! asynchronous device writes); the engine executes them with queueing and
//! timing.  The result also names the page, if any, that the call evicted,
//! so a caller can track which pools hold a page without asking every pool.

pub mod config;
pub mod dirty;
pub mod manager;
pub mod ops;
pub mod stats;

pub use config::{BufferConfig, PageLocation, PartitionPolicy, UpdateStrategy};
pub use dirty::{DirtyPageTable, RecLsn};
pub use manager::BufferManager;
pub use ops::{PageOp, PageOps, PageOutcome};
pub use stats::{BufferStats, PartitionBufferStats};
