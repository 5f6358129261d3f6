//! Ready-made configurations for the experiments of §4 of the paper.
//!
//! Every figure and table of the evaluation is driven by one of the builders
//! in this module (the experiment index is `all_experiments` in the
//! `tpsim-bench` crate's `experiments` module):
//!
//! * Fig. 4.1 — [`log_allocation_config`] with the four [`LogVariant`]s;
//! * Fig. 4.2 / 4.3 — [`debit_credit_config`] with the six
//!   [`DebitCreditStorage`] variants and both update strategies;
//! * Fig. 4.4 / 4.5 and Table 4.2 — [`caching_config`] with the
//!   [`SecondLevel`] variants;
//! * Fig. 4.6 / 4.7 — [`trace_config`] with the [`TraceStorage`] variants;
//! * Fig. 4.8 — [`contention_config`] with the [`ContentionAllocation`]
//!   variants and both lock granularities.
//!
//! Beyond the paper, [`data_sharing_config`] builds the multi-node
//! data-sharing topology (N computing modules, shared storage complex, global
//! lock service) swept by the `fig5.x` experiment,
//! [`shared_nothing_config`] the partitioned (shared-nothing,
//! function-shipping) alternative compared against it by the `fig7.x`
//! experiment, and [`recovery_config`] builds the crash-recovery topology
//! (FORCE/NOFORCE × disk-/NVEM-resident log × checkpoint interval) swept by
//! the `fig6.x` experiment.

#[cfg(test)]
use bufmgr::PageLocation;
use bufmgr::{BufferConfig, PartitionPolicy, UpdateStrategy};
use dbmodel::{
    synthetic, DebitCreditConfig, DebitCreditGenerator, SyntheticTraceSpec, SyntheticWorkload,
    TraceGenerator,
};
use lockmgr::CcMode;
use simkernel::SimRng;
use storage::{DiskUnitKind, DiskUnitParams, IoSchedulerParams, NvemParams};

use crate::config::{
    Architecture, CmParams, CoherenceParams, LogAllocation, NodeParams, ParallelismParams,
    PartitioningParams, SimulationConfig, WorkloadParams,
};

/// Index of the database disk unit in every preset that uses disks.
pub const DB_UNIT: usize = 0;
/// Index of the log disk unit in every preset that uses disks.
pub const LOG_UNIT: usize = 1;

/// Default seed used by the presets (override `config.seed` to vary).
pub const DEFAULT_SEED: u64 = 21_691; // TR 216/91

fn db_disk_unit(kind: DiskUnitKind, cache_pages: usize) -> DiskUnitParams {
    // Enough controllers and disk servers that the database disks never become
    // the bottleneck at the studied transaction rates (§4.3: "a sufficiently
    // high number of disk servers and controllers to avoid bottlenecks").
    DiskUnitParams::database_disks(kind, 32, 128).with_cache_size(cache_pages.max(1))
}

fn log_disk_unit(kind: DiskUnitKind, disks: usize, cache_pages: usize) -> DiskUnitParams {
    DiskUnitParams::log_disks(kind, disks.clamp(1, 8), disks).with_cache_size(cache_pages.max(1))
}

fn debit_credit_cc_modes() -> Vec<CcMode> {
    // Page-level locking for BRANCH/TELLER and ACCOUNT, no locking for the
    // HISTORY file (synchronized by latches, §4.1).
    vec![CcMode::Page, CcMode::Page, CcMode::None]
}

/// The Debit-Credit workload generator; `scale = 1` is the full paper database
/// (500 branches, 50 M accounts), larger scale factors shrink it for quick
/// runs and tests.
pub fn debit_credit_workload(scale: u64) -> DebitCreditGenerator {
    let cfg = if scale <= 1 {
        DebitCreditConfig::default()
    } else {
        DebitCreditConfig::scaled_down(scale)
    };
    DebitCreditGenerator::new(cfg)
}

/// Storage allocation alternatives of the database-allocation experiment
/// (§4.3, Fig. 4.2, also used for the FORCE/NOFORCE comparison of Fig. 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DebitCreditStorage {
    /// All partitions and the log on regular disks.
    Disk,
    /// All partitions and the log on disks whose non-volatile controller
    /// caches serve as write buffers.
    DiskWithNvCacheWriteBuffer,
    /// All partitions and the log on regular disks with a write buffer in
    /// NVEM.
    DiskWithNvemWriteBuffer,
    /// All partitions and the log on solid-state disks.
    Ssd,
    /// All partitions and the log resident in NVEM.
    NvemResident,
    /// All partitions main-memory resident, log on disk.
    MemoryResident,
}

impl DebitCreditStorage {
    /// All six variants, in the order the paper lists them.
    pub const ALL: [DebitCreditStorage; 6] = [
        DebitCreditStorage::Disk,
        DebitCreditStorage::DiskWithNvCacheWriteBuffer,
        DebitCreditStorage::DiskWithNvemWriteBuffer,
        DebitCreditStorage::Ssd,
        DebitCreditStorage::NvemResident,
        DebitCreditStorage::MemoryResident,
    ];

    /// Short label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            DebitCreditStorage::Disk => "DB+log on disk",
            DebitCreditStorage::DiskWithNvCacheWriteBuffer => "disk-cache write buffer",
            DebitCreditStorage::DiskWithNvemWriteBuffer => "NVEM write buffer",
            DebitCreditStorage::Ssd => "solid-state disk",
            DebitCreditStorage::NvemResident => "NVEM-resident",
            DebitCreditStorage::MemoryResident => "main-memory resident, log on disk",
        }
    }
}

/// Configuration for the database-allocation experiment (Fig. 4.2/4.3) with
/// the Debit-Credit parameter settings of Table 4.1 (2,000-page main-memory
/// buffer, NOFORCE by default — use
/// [`BufferConfig::with_update_strategy`] on `config.buffer` for FORCE).
pub fn debit_credit_config(storage: DebitCreditStorage, arrival_rate_tps: f64) -> SimulationConfig {
    let num_partitions = 3; // BRANCH/TELLER, ACCOUNT, HISTORY (clustered)
    let mm_buffer = 2_000;
    let mut buffer = BufferConfig {
        mm_buffer_pages: mm_buffer,
        nvem_cache_pages: 0,
        nvem_write_buffer_pages: 0,
        update_strategy: UpdateStrategy::NoForce,
        partitions: vec![PartitionPolicy::on_disk_unit(DB_UNIT); num_partitions],
    };
    let (devices, log_allocation) = match storage {
        DebitCreditStorage::Disk => (
            vec![
                db_disk_unit(DiskUnitKind::Regular, 1),
                log_disk_unit(DiskUnitKind::Regular, 8, 1),
            ],
            LogAllocation::DiskUnit(LOG_UNIT),
        ),
        DebitCreditStorage::DiskWithNvCacheWriteBuffer => (
            vec![
                db_disk_unit(DiskUnitKind::NonVolatileCache, 1_000),
                log_disk_unit(DiskUnitKind::NonVolatileCache, 8, 500),
            ],
            LogAllocation::DiskUnit(LOG_UNIT),
        ),
        DebitCreditStorage::DiskWithNvemWriteBuffer => {
            buffer = buffer.with_nvem_write_buffer(500);
            (
                vec![
                    db_disk_unit(DiskUnitKind::Regular, 1),
                    log_disk_unit(DiskUnitKind::Regular, 8, 1),
                ],
                LogAllocation::DiskUnitViaNvemWriteBuffer(LOG_UNIT),
            )
        }
        DebitCreditStorage::Ssd => (
            vec![
                db_disk_unit(DiskUnitKind::Ssd, 1),
                log_disk_unit(DiskUnitKind::Ssd, 8, 1),
            ],
            LogAllocation::DiskUnit(LOG_UNIT),
        ),
        DebitCreditStorage::NvemResident => {
            buffer.partitions = vec![PartitionPolicy::nvem_resident(); num_partitions];
            (Vec::new(), LogAllocation::Nvem)
        }
        DebitCreditStorage::MemoryResident => {
            buffer.partitions = vec![PartitionPolicy::memory_resident(); num_partitions];
            (
                vec![
                    db_disk_unit(DiskUnitKind::Regular, 1),
                    log_disk_unit(DiskUnitKind::Regular, 8, 1),
                ],
                LogAllocation::DiskUnit(LOG_UNIT),
            )
        }
    };
    SimulationConfig {
        cm: CmParams::default(),
        nodes: NodeParams::default(),
        architecture: Architecture::DataSharing,
        partitioning: PartitioningParams::default(),
        nvem: NvemParams::default(),
        devices,
        log_allocation,
        checkpoint_interval_ms: 0.0,
        buffer,
        cc_modes: debit_credit_cc_modes(),
        parallelism: ParallelismParams::default(),
        coherence: CoherenceParams::default(),
        io_scheduler: IoSchedulerParams::default(),
        workload: WorkloadParams::default(),
        arrival_rate_tps,
        warmup_ms: 3_000.0,
        measure_ms: 20_000.0,
        seed: DEFAULT_SEED,
    }
}

/// Log-file allocation alternatives of §4.2 (Fig. 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogVariant {
    /// Log on a single regular disk.
    SingleDisk,
    /// Log on a single disk whose non-volatile cache (500 pages) serves as a
    /// write buffer.
    SingleDiskNvCache,
    /// Log on a solid-state disk.
    Ssd,
    /// Log resident in NVEM.
    Nvem,
}

impl LogVariant {
    /// All four variants in paper order.
    pub const ALL: [LogVariant; 4] = [
        LogVariant::SingleDisk,
        LogVariant::SingleDiskNvCache,
        LogVariant::Ssd,
        LogVariant::Nvem,
    ];

    /// Short label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            LogVariant::SingleDisk => "log on single disk",
            LogVariant::SingleDiskNvCache => "log on single disk with non-volatile cache",
            LogVariant::Ssd => "log on SSD",
            LogVariant::Nvem => "log NVEM-resident",
        }
    }
}

/// Configuration for the log-allocation experiment (Fig. 4.1): database
/// partitions on regular disks with enough servers to avoid bottlenecks, the
/// log allocated per [`LogVariant`], NOFORCE.
pub fn log_allocation_config(variant: LogVariant, arrival_rate_tps: f64) -> SimulationConfig {
    let mut config = debit_credit_config(DebitCreditStorage::Disk, arrival_rate_tps);
    match variant {
        LogVariant::SingleDisk => {
            config.devices[LOG_UNIT] = log_disk_unit(DiskUnitKind::Regular, 1, 1);
        }
        LogVariant::SingleDiskNvCache => {
            config.devices[LOG_UNIT] = log_disk_unit(DiskUnitKind::NonVolatileCache, 1, 500);
        }
        LogVariant::Ssd => {
            config.devices[LOG_UNIT] = log_disk_unit(DiskUnitKind::Ssd, 1, 1);
        }
        LogVariant::Nvem => {
            config.log_allocation = LogAllocation::Nvem;
        }
    }
    config
}

/// Data-sharing configuration: `num_nodes` computing modules — each with the
/// full CM complex of Table 4.1 — share one disk-resident Debit-Credit
/// database and a *single* shared log disk (the Fig. 4.1 bottleneck device).
/// `arrival_rate_tps` is the total rate over all nodes; arrivals are assigned
/// round robin.
///
/// Concurrency control is the global lock service on node 0: every lock
/// request from another node pays a message round trip
/// (`nodes.remote_lock_delay_ms`), and a node's committed updates invalidate
/// stale buffer copies on the other nodes.  With `num_nodes == 1` this is
/// exactly `debit_credit_config(DebitCreditStorage::Disk, …)` with a
/// single-disk log — the paper's centralized system.
///
/// The interesting regime is `arrival_rate_tps` above the ~200 TPS ceiling of
/// one log disk: adding nodes then scales the CPU complex linearly but
/// throughput sub-linearly, because all nodes queue at the shared log device
/// and pay remote lock messages (the `fig5.x` experiment sweeps this).
pub fn data_sharing_config(num_nodes: usize, arrival_rate_tps: f64) -> SimulationConfig {
    let mut config = debit_credit_config(DebitCreditStorage::Disk, arrival_rate_tps);
    config.nodes = NodeParams::data_sharing(num_nodes);
    // One shared log disk so log traffic, not CPU capacity, caps scaling.
    config.devices[LOG_UNIT] = log_disk_unit(DiskUnitKind::Regular, 1, 1);
    config
}

/// Shared-nothing configuration: the same `num_nodes`-CM Debit-Credit
/// topology as [`data_sharing_config`] (same database, same per-CM
/// parameters, same total arrival rate assigned round robin), but with
/// [`Architecture::SharedNothing`]: the database is hash-declustered over
/// the nodes ([`PartitioningParams::default`]), remote object references are
/// function-shipped to the partition owner (message round trip + remote CPU
/// surcharge on the owner), locking is node-local, and commit runs a
/// two-phase message exchange with the remote owners of the written pages.
///
/// Architectural difference on the log side: shared nothing partitions the
/// *log* too (each node logs locally), so the log unit gets one disk per
/// node, while [`data_sharing_config`] keeps the single *shared* log disk
/// all nodes queue at.  (Approximation: the `n` log disks live in one unit
/// and serve a common queue — a pooled M/M/n rather than `n` independent
/// per-node M/M/1 queues, so waits are slightly shorter than a strictly
/// partitioned log under bursty per-node traffic; the capacity scaling,
/// which drives the crossover, is the same.)  This asymmetry is the
/// architecture, not a tuning choice — and it is where the `fig7.x`
/// crossover comes from: data sharing
/// saturates its shared log disk as nodes are added, shared nothing instead
/// pays a growing function-shipping overhead as the remote-access fraction
/// `(n-1)/n` rises.  With `num_nodes == 1` both configurations degenerate to
/// the same centralized single-log-disk system and produce identical
/// steady-state behaviour.
pub fn shared_nothing_config(num_nodes: usize, arrival_rate_tps: f64) -> SimulationConfig {
    let mut config = data_sharing_config(num_nodes, arrival_rate_tps);
    config.architecture = Architecture::SharedNothing;
    config.partitioning = PartitioningParams::default();
    // One log disk per node: each partition owner logs locally.
    config.devices[LOG_UNIT] = log_disk_unit(DiskUnitKind::Regular, num_nodes, 1);
    config
}

/// Configuration for the restart-time experiment (`fig6.x`, beyond the
/// paper's figures but directly on its §3.3 trade-offs): the disk-resident
/// Debit-Credit database with recovery enabled, crossing FORCE vs NOFORCE
/// with a disk- vs NVEM-resident log.
///
/// * `force` selects the update strategy restart assumes: under FORCE
///   every committed update is propagated at commit and restart degenerates
///   to a log scan; under NOFORCE restart must redo the lost updates.
/// * `nvem_log` moves the log to NVEM ([`LogAllocation::Nvem`]), so both
///   commit log writes and the restart's log-tail reads run at NVEM speed
///   instead of paying the log disks.
/// * `checkpoint_interval_ms` enables fuzzy checkpoints (`0` disables them;
///   redo then reaches back to the start of the log).
///
/// The log unit keeps the eight-disk configuration of
/// [`debit_credit_config`], so at moderate rates the log device is *not* the
/// throughput bottleneck and the variants reach equal throughput while their
/// restart times diverge — the trade-off the experiment measures.  Combine
/// with [`crate::Simulation::simulate_crash_at`] to obtain a restart report.
pub fn recovery_config(
    force: bool,
    nvem_log: bool,
    checkpoint_interval_ms: f64,
    arrival_rate_tps: f64,
) -> SimulationConfig {
    let mut config = debit_credit_config(DebitCreditStorage::Disk, arrival_rate_tps);
    config.checkpoint_interval_ms = checkpoint_interval_ms;
    if force {
        config.buffer.update_strategy = UpdateStrategy::Force;
    }
    if nvem_log {
        config.log_allocation = LogAllocation::Nvem;
    }
    config
}

/// Second-level cache alternatives of the caching experiments
/// (§4.5, Fig. 4.4/4.5, Table 4.2; §4.6, Fig. 4.6/4.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecondLevel {
    /// Main-memory caching only, database and log on regular disks.
    None,
    /// Volatile disk cache of the given size (pages) on the database disks.
    VolatileDiskCache(usize),
    /// Non-volatile disk cache of the given size on the database and log disks.
    NonVolatileDiskCache(usize),
    /// Second-level database buffer of the given size in NVEM (log in NVEM).
    NvemCache(usize),
    /// Only a write buffer in the non-volatile disk caches (no read caching):
    /// the disk-cache size is kept minimal so read hits are negligible.
    DiskCacheWriteBufferOnly,
}

/// Configuration for the Debit-Credit caching experiments: main-memory buffer
/// of `mm_pages`, the given second-level configuration, FORCE or NOFORCE.
///
/// As in the paper, configurations with non-volatile disk caches or NVEM also
/// use them for logging; the volatile-cache and memory-only configurations log
/// to a (non-bottleneck) log disk.
pub fn caching_config(
    mm_pages: usize,
    second_level: SecondLevel,
    force: bool,
    arrival_rate_tps: f64,
) -> SimulationConfig {
    let mut config = debit_credit_config(DebitCreditStorage::Disk, arrival_rate_tps);
    config.buffer.mm_buffer_pages = mm_pages.max(1);
    if force {
        config.buffer.update_strategy = UpdateStrategy::Force;
    }
    match second_level {
        SecondLevel::None => {}
        SecondLevel::VolatileDiskCache(pages) => {
            config.devices[DB_UNIT] = db_disk_unit(DiskUnitKind::VolatileCache, pages);
        }
        SecondLevel::NonVolatileDiskCache(pages) => {
            config.devices[DB_UNIT] = db_disk_unit(DiskUnitKind::NonVolatileCache, pages);
            config.devices[LOG_UNIT] = log_disk_unit(DiskUnitKind::NonVolatileCache, 8, 500);
        }
        SecondLevel::NvemCache(pages) => {
            config.buffer = config.buffer.with_nvem_cache(pages);
            config.log_allocation = LogAllocation::Nvem;
        }
        SecondLevel::DiskCacheWriteBufferOnly => {
            // A small non-volatile cache acts purely as a write buffer.
            config.devices[DB_UNIT] = db_disk_unit(DiskUnitKind::NonVolatileCache, 64);
            config.devices[LOG_UNIT] = log_disk_unit(DiskUnitKind::NonVolatileCache, 8, 64);
        }
    }
    config
}

/// Storage variants of the trace-driven caching experiment (Fig. 4.6/4.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStorage {
    /// Main-memory caching only, database on regular disks.
    MmOnly,
    /// Volatile disk cache of the given size on the database disks.
    VolatileDiskCache(usize),
    /// Non-volatile disk cache of the given size on the database and log disks.
    NonVolatileDiskCache(usize),
    /// Second-level NVEM buffer of the given size (log in NVEM).
    NvemCache(usize),
    /// Complete database allocation on solid-state disks.
    Ssd,
    /// Complete database allocation in NVEM.
    NvemResident,
}

impl TraceStorage {
    /// Short label for report tables.
    pub fn label(&self) -> String {
        match self {
            TraceStorage::MmOnly => "main memory caching only".to_string(),
            TraceStorage::VolatileDiskCache(n) => format!("volatile disk cache ({n})"),
            TraceStorage::NonVolatileDiskCache(n) => format!("non-volatile disk cache ({n})"),
            TraceStorage::NvemCache(n) => format!("NVEM cache ({n})"),
            TraceStorage::Ssd => "solid-state disk".to_string(),
            TraceStorage::NvemResident => "NVEM-resident".to_string(),
        }
    }
}

/// The synthetic trace workload standing in for the real-life trace of §4.6.
/// `scale = 1` reproduces the full published statistics (≈17,500 transactions,
/// ≈1 M references); larger scale factors shrink it for tests.  The trace is
/// replayed cyclically so arbitrary simulation lengths are possible.
pub fn trace_workload(scale: usize, seed: u64) -> TraceGenerator {
    let spec = if scale <= 1 {
        SyntheticTraceSpec::default()
    } else {
        SyntheticTraceSpec::scaled_down(scale)
    };
    let mut rng = SimRng::seed_from(seed);
    TraceGenerator::new(spec.generate(&mut rng), true)
}

/// Configuration for the trace-driven experiments (Fig. 4.6/4.7).  The trace
/// touches 13 files; all of them share the storage variant.  The arrival rate
/// is fixed (the paper uses a fixed rate for this experiment); 40 TPS keeps
/// the 200-MIPS CPU complex below saturation for the ≈56-reference average
/// transaction.
pub fn trace_config(
    mm_pages: usize,
    storage: TraceStorage,
    arrival_rate_tps: f64,
) -> SimulationConfig {
    let num_partitions = 13;
    let mut buffer = BufferConfig {
        mm_buffer_pages: mm_pages.max(1),
        nvem_cache_pages: 0,
        nvem_write_buffer_pages: 0,
        update_strategy: UpdateStrategy::NoForce,
        partitions: vec![PartitionPolicy::on_disk_unit(DB_UNIT); num_partitions],
    };
    let mut log_allocation = LogAllocation::DiskUnit(LOG_UNIT);
    let mut devices = vec![
        db_disk_unit(DiskUnitKind::Regular, 1),
        log_disk_unit(DiskUnitKind::Regular, 4, 1),
    ];
    match storage {
        TraceStorage::MmOnly => {}
        TraceStorage::VolatileDiskCache(pages) => {
            devices[DB_UNIT] = db_disk_unit(DiskUnitKind::VolatileCache, pages);
        }
        TraceStorage::NonVolatileDiskCache(pages) => {
            devices[DB_UNIT] = db_disk_unit(DiskUnitKind::NonVolatileCache, pages);
            devices[LOG_UNIT] = log_disk_unit(DiskUnitKind::NonVolatileCache, 4, 500);
        }
        TraceStorage::NvemCache(pages) => {
            buffer = buffer.with_nvem_cache(pages);
            log_allocation = LogAllocation::Nvem;
        }
        TraceStorage::Ssd => {
            devices[DB_UNIT] = db_disk_unit(DiskUnitKind::Ssd, 1);
            devices[LOG_UNIT] = log_disk_unit(DiskUnitKind::Ssd, 4, 1);
        }
        TraceStorage::NvemResident => {
            buffer.partitions = vec![PartitionPolicy::nvem_resident(); num_partitions];
            log_allocation = LogAllocation::Nvem;
        }
    }
    let cc_modes = vec![CcMode::Page; num_partitions];
    SimulationConfig {
        cm: CmParams {
            // Long transactions: allow more of them in the system at once.
            mpl: 400,
            ..CmParams::default()
        },
        nodes: NodeParams::default(),
        architecture: Architecture::DataSharing,
        partitioning: PartitioningParams::default(),
        nvem: NvemParams::default(),
        devices,
        log_allocation,
        checkpoint_interval_ms: 0.0,
        buffer,
        cc_modes,
        parallelism: ParallelismParams::default(),
        coherence: CoherenceParams::default(),
        io_scheduler: IoSchedulerParams::default(),
        workload: WorkloadParams::default(),
        arrival_rate_tps,
        warmup_ms: 3_000.0,
        measure_ms: 20_000.0,
        seed: DEFAULT_SEED,
    }
}

/// Storage allocation strategies of the lock-contention experiment (§4.7,
/// Fig. 4.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentionAllocation {
    /// Both partitions and the log on disks.
    DiskBased,
    /// The small (high-contention) partition and the log in NVEM, the large
    /// partition on disk.
    Mixed,
    /// Both partitions and the log in NVEM.
    NvemResident,
}

impl ContentionAllocation {
    /// All three variants in paper order.
    pub const ALL: [ContentionAllocation; 3] = [
        ContentionAllocation::DiskBased,
        ContentionAllocation::Mixed,
        ContentionAllocation::NvemResident,
    ];

    /// Short label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            ContentionAllocation::DiskBased => "disk-based",
            ContentionAllocation::Mixed => "mixed (small partition + log in NVEM)",
            ContentionAllocation::NvemResident => "NVEM-resident",
        }
    }
}

/// The high-contention synthetic workload of §4.7: one variable-size,
/// 100 %-update transaction type, 80 % of the accesses on a small 10,000-object
/// partition, 20 % on a 100,000-object partition, blocking factor 10.
pub fn contention_workload() -> SyntheticWorkload {
    synthetic::contention_workload()
}

/// Configuration for the lock-contention experiment (Fig. 4.8).
pub fn contention_config(
    allocation: ContentionAllocation,
    granularity: CcMode,
    arrival_rate_tps: f64,
) -> SimulationConfig {
    let mut partitions = vec![PartitionPolicy::on_disk_unit(DB_UNIT); 2];
    let mut log_allocation = LogAllocation::DiskUnit(LOG_UNIT);
    match allocation {
        ContentionAllocation::DiskBased => {}
        ContentionAllocation::Mixed => {
            partitions[0] = PartitionPolicy::nvem_resident();
            log_allocation = LogAllocation::Nvem;
        }
        ContentionAllocation::NvemResident => {
            partitions = vec![PartitionPolicy::nvem_resident(); 2];
            log_allocation = LogAllocation::Nvem;
        }
    }
    let buffer = BufferConfig {
        mm_buffer_pages: 2_000,
        nvem_cache_pages: 0,
        nvem_write_buffer_pages: 0,
        update_strategy: UpdateStrategy::NoForce,
        partitions,
    };
    SimulationConfig {
        cm: CmParams::default(),
        nodes: NodeParams::default(),
        architecture: Architecture::DataSharing,
        partitioning: PartitioningParams::default(),
        nvem: NvemParams::default(),
        devices: vec![
            db_disk_unit(DiskUnitKind::Regular, 1),
            log_disk_unit(DiskUnitKind::Regular, 8, 1),
        ],
        log_allocation,
        checkpoint_interval_ms: 0.0,
        buffer,
        cc_modes: vec![granularity; 2],
        parallelism: ParallelismParams::default(),
        coherence: CoherenceParams::default(),
        io_scheduler: IoSchedulerParams::default(),
        workload: WorkloadParams::default(),
        arrival_rate_tps,
        warmup_ms: 3_000.0,
        measure_ms: 20_000.0,
        seed: DEFAULT_SEED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::WorkloadGenerator;

    #[test]
    fn all_debit_credit_presets_validate() {
        for storage in DebitCreditStorage::ALL {
            let c = debit_credit_config(storage, 100.0);
            assert!(c.validate().is_ok(), "{storage:?}: {:?}", c.validate());
            assert!(!storage.label().is_empty());
        }
    }

    #[test]
    fn all_log_allocation_presets_validate() {
        for v in LogVariant::ALL {
            let c = log_allocation_config(v, 100.0);
            assert!(c.validate().is_ok(), "{v:?}");
            assert!(!v.label().is_empty());
        }
    }

    #[test]
    fn caching_presets_validate_for_both_strategies() {
        let variants = [
            SecondLevel::None,
            SecondLevel::VolatileDiskCache(1_000),
            SecondLevel::NonVolatileDiskCache(1_000),
            SecondLevel::NvemCache(500),
            SecondLevel::DiskCacheWriteBufferOnly,
        ];
        for v in variants {
            for force in [false, true] {
                let c = caching_config(500, v, force, 500.0);
                assert!(c.validate().is_ok(), "{v:?} force={force}");
            }
        }
    }

    #[test]
    fn trace_presets_validate() {
        let variants = [
            TraceStorage::MmOnly,
            TraceStorage::VolatileDiskCache(2_000),
            TraceStorage::NonVolatileDiskCache(2_000),
            TraceStorage::NvemCache(2_000),
            TraceStorage::Ssd,
            TraceStorage::NvemResident,
        ];
        for v in variants {
            let c = trace_config(1_000, v, 40.0);
            assert!(c.validate().is_ok(), "{v:?}");
            assert!(!v.label().is_empty());
        }
    }

    #[test]
    fn contention_presets_validate() {
        for a in ContentionAllocation::ALL {
            for g in [CcMode::Page, CcMode::Object] {
                let c = contention_config(a, g, 100.0);
                assert!(c.validate().is_ok(), "{a:?} {g:?}");
            }
            assert!(!a.label().is_empty());
        }
    }

    #[test]
    fn debit_credit_partition_ids_match_the_config() {
        // The preset configures 3 partitions (BRANCH/TELLER, ACCOUNT, HISTORY
        // with clustering); the workload generator must produce the same ids.
        let g = debit_credit_workload(100);
        assert_eq!(g.database().num_partitions(), 3);
        let parts = g.partitions();
        assert_eq!(parts.branch, 0);
        assert_eq!(parts.account, 1);
        assert_eq!(parts.history, 2);
        let c = debit_credit_config(DebitCreditStorage::Disk, 50.0);
        assert_eq!(c.buffer.partitions.len(), 3);
        assert_eq!(c.cc_modes.len(), 3);
    }

    #[test]
    fn trace_workload_matches_partition_count() {
        let mut g = trace_workload(50, 1);
        assert_eq!(g.database().num_partitions(), 13);
        let c = trace_config(1_000, TraceStorage::MmOnly, 40.0);
        assert_eq!(c.buffer.partitions.len(), 13);
        let mut rng = SimRng::seed_from(1);
        assert!(g.next_transaction(&mut rng).is_some());
    }

    #[test]
    fn contention_workload_matches_partition_count() {
        let w = contention_workload();
        assert_eq!(w.database().num_partitions(), 2);
        let c = contention_config(ContentionAllocation::Mixed, CcMode::Object, 50.0);
        assert_eq!(c.buffer.partitions.len(), 2);
        assert_eq!(c.buffer.partitions[0].location, PageLocation::NvemResident);
        assert_eq!(
            c.buffer.partitions[1].location,
            PageLocation::DiskUnit(DB_UNIT)
        );
    }

    #[test]
    fn recovery_presets_validate_for_all_variants() {
        for force in [false, true] {
            for nvem_log in [false, true] {
                for interval in [0.0, 500.0] {
                    let c = recovery_config(force, nvem_log, interval, 150.0);
                    assert!(
                        c.validate().is_ok(),
                        "force={force} nvem_log={nvem_log} interval={interval}: {:?}",
                        c.validate()
                    );
                    assert_eq!(c.checkpoint_interval_ms, interval);
                }
            }
        }
        let nvem = recovery_config(false, true, 1_000.0, 150.0);
        assert_eq!(nvem.log_allocation, LogAllocation::Nvem);
        let force = recovery_config(true, false, 1_000.0, 150.0);
        assert_eq!(force.buffer.update_strategy, UpdateStrategy::Force);
        // With recovery disabled the base preset is unchanged.
        assert_eq!(
            recovery_config(false, false, 0.0, 150.0),
            debit_credit_config(DebitCreditStorage::Disk, 150.0)
        );
    }

    #[test]
    fn data_sharing_presets_validate() {
        for n in [1, 2, 4, 8] {
            let c = data_sharing_config(n, 300.0);
            assert!(c.validate().is_ok(), "{n} nodes: {:?}", c.validate());
            assert_eq!(c.nodes.num_nodes, n);
            assert!(c.nodes.remote_lock_delay_ms > 0.0);
            assert_eq!(c.devices[LOG_UNIT].num_disks, 1);
        }
        // A single node is the centralized single-log-disk system.
        let single = data_sharing_config(1, 300.0);
        let mut reference = debit_credit_config(DebitCreditStorage::Disk, 300.0);
        reference.devices[LOG_UNIT] = log_disk_unit(DiskUnitKind::Regular, 1, 1);
        reference.nodes = NodeParams::data_sharing(1);
        assert_eq!(single, reference);
    }

    #[test]
    fn shared_nothing_presets_validate() {
        for n in [1, 2, 4, 8] {
            let c = shared_nothing_config(n, 300.0);
            assert!(c.validate().is_ok(), "{n} nodes: {:?}", c.validate());
            assert_eq!(c.architecture, Architecture::SharedNothing);
            assert_eq!(c.nodes.num_nodes, n);
            // One log disk per node (the partitioned log).
            assert_eq!(c.devices[LOG_UNIT].num_disks, n);
        }
        // Apart from architecture, partitioning and the log layout, the
        // shared-nothing preset is the data-sharing topology.
        let mut sn = shared_nothing_config(4, 300.0);
        sn.architecture = Architecture::DataSharing;
        sn.devices[LOG_UNIT] = data_sharing_config(4, 300.0).devices[LOG_UNIT];
        assert_eq!(sn, data_sharing_config(4, 300.0));
    }

    #[test]
    fn log_variants_differ_in_log_unit_configuration() {
        let single = log_allocation_config(LogVariant::SingleDisk, 100.0);
        assert_eq!(single.devices[LOG_UNIT].num_disks, 1);
        let cached = log_allocation_config(LogVariant::SingleDiskNvCache, 100.0);
        assert_eq!(
            cached.devices[LOG_UNIT].kind,
            DiskUnitKind::NonVolatileCache
        );
        let ssd = log_allocation_config(LogVariant::Ssd, 100.0);
        assert_eq!(ssd.devices[LOG_UNIT].kind, DiskUnitKind::Ssd);
        let nvem = log_allocation_config(LogVariant::Nvem, 100.0);
        assert_eq!(nvem.log_allocation, LogAllocation::Nvem);
    }
}
