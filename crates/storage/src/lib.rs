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
//!   update the disk copy asynchronously.  A non-volatile cache is a
//!   *write-behind store*, an [`LruCache`] counting each page's writes in
//!   flight; the buffer manager's NVEM cache and NVEM write buffer are the
//!   same type under the same rule ([`LruCache::absorb`],
//!   [`LruCache::admit`], [`LruCache::destaged`]).
//! * **NVEM** — non-volatile extended memory, a page-addressable store that is
//!   accessed synchronously by the CPU, which stays busy for the page move.
//! * **Read coalescing** — an optional per-unit policy
//!   ([`scheduler::IoSchedulerParams`]): a synchronous read of a page that
//!   is already being read at the same unit joins that in-flight request.
//!   Disabled by default; units then serve every read on its own.
//!
//! The device models are *policy only*: they decide which service stages an
//! I/O must pass through ([`io::IoDecision`], its foreground and background
//! stages and nothing else) and keep the cache state and the hit and
//! absorbed-write counts ([`DiskUnitStats`]), but they do not advance
//! simulated time themselves — the transaction engine in the `tpsim` crate
//! executes the stages against `simkernel` resources so that queueing at
//! controllers and disk arms is modelled faithfully.

pub mod device;
pub mod disk_unit;
pub mod io;
pub mod lru;
pub mod nvem;
pub mod params;
pub mod scheduler;

pub use device::StorageDevice;
pub use disk_unit::{DiskUnit, DiskUnitStats};
pub use io::{BackgroundStages, ForegroundStages, IoDecision, IoKind, ServiceStage};
pub use lru::LruCache;
pub use nvem::NvemParams;
pub use params::{DiskUnitKind, DiskUnitParams};
pub use scheduler::IoSchedulerParams;
