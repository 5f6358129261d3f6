//! # storage — TPSIM external storage device models
//!
//! Implements §3.3 of the paper: the external devices the database and log
//! files can be allocated to.
//!
//! * **Disk units** — the generic term for devices with a disk interface:
//!   regular disks, disks with a volatile cache, disks with a non-volatile
//!   cache, and solid-state disks (SSD).  A disk unit is served by one or more
//!   controllers and one or more disk servers, plus a transmission delay per
//!   page.
//! * **Disk caches** — LRU caches managed by the disk controller, following
//!   the IBM 3990 behaviour described in the paper: read misses allocate,
//!   volatile caches write through (write misses do not allocate),
//!   non-volatile caches absorb writes when a clean frame is available and
//!   update the disk copy asynchronously.
//! * **NVEM** — non-volatile extended memory, a page-addressable store that is
//!   accessed synchronously by the CPU via one or more NVEM servers.
//! * **Request scheduling** — an optional per-unit scheduling layer
//!   ([`scheduler::RequestScheduler`]) adding same-page coalescing,
//!   adjacent-page merging, elevator (C-SCAN) dispatch with a deterministic
//!   aging bound, and sequential-prefetch deduplication.  Disabled by
//!   default; the engine bypasses it entirely then.
//!
//! The device models are *policy only*: they decide which service stages an
//! I/O must pass through ([`io::IoDecision`]) and keep the cache state, but
//! they do not advance simulated time themselves — the transaction engine in
//! the `tpsim` crate executes the stages against `simkernel` resources so that
//! queueing at controllers and disk arms is modelled faithfully.

pub mod device;
pub mod disk_unit;
pub mod io;
pub mod lru;
pub mod lru_k;
pub mod nvem;
pub mod params;
pub mod scheduler;

pub use device::{DeviceSpec, StorageDevice};
pub use disk_unit::{DiskUnit, DiskUnitStats};
pub use io::{BackgroundStages, ForegroundStages, IoDecision, IoKind, ServiceStage};
pub use lru::LruCache;
pub use lru_k::LruKTracker;
pub use nvem::{NvemDevice, NvemDeviceParams, NvemParams};
pub use params::{DeviceTimings, DiskUnitKind, DiskUnitParams};
pub use scheduler::{
    CompletedBatch, DispatchBatch, IoSchedulerParams, IoSchedulerStats, PrefetchTag,
    RequestScheduler, SubmitOutcome,
};
