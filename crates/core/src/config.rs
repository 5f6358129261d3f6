//! Simulation configuration: the CM parameters of Table 3.3, the external
//! storage parameters of Table 3.4, and the run control (arrival rate,
//! warm-up, measurement interval, RNG seed).

use bufmgr::BufferConfig;
use dbmodel::{HotSpotParams, PartitionScheme};
use lockmgr::CcMode;
use simkernel::dist::PiecewiseRate;
use simkernel::time::SimTime;
use storage::{DiskUnitParams, IoSchedulerParams, NvemParams};

/// CM (computing module) parameters — Table 3.3 / Table 4.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmParams {
    /// Multiprogramming level: maximum number of concurrently active
    /// transactions; excess arrivals wait in the input queue.
    pub mpl: usize,
    /// Average instructions for begin-of-transaction processing.
    pub instr_bot: f64,
    /// Average instructions per object reference.
    pub instr_or: f64,
    /// Average instructions for end-of-transaction (commit) processing.
    pub instr_eot: f64,
    /// Average instructions of operating-system/DBMS overhead per I/O.
    pub instr_io: f64,
    /// Number of CPUs.
    pub num_cpus: usize,
    /// MIPS rate per CPU.
    pub mips: f64,
    /// Group-commit batch size for device log writes: up to this many
    /// committing transactions share one log page write.  Applies to
    /// [`LogAllocation::DiskUnit`] logs and to the synchronous overflow
    /// writes of [`LogAllocation::DiskUnitViaNvemWriteBuffer`] (absorbed
    /// write-buffer log writes are already asynchronous and never batch);
    /// NVEM-resident logs are unaffected.  `1` disables group commit (every
    /// committer writes its own log page, as in the paper).
    pub group_commit_size: usize,
    /// Maximum time (ms) a committing transaction waits for the group-commit
    /// batch to fill before the batch is flushed anyway.
    pub group_commit_timeout_ms: SimTime,
    /// Size of one redo log record in bytes.  Together with the 4 KB page
    /// size this determines how many redo records fit on one log page, and
    /// therefore how many log pages a crash restart must read back
    /// (see [`crate::recovery`]).
    pub log_record_bytes: usize,
}

impl Default for CmParams {
    fn default() -> Self {
        // Defaults of Table 4.1: 4 CPUs of 50 MIPS, 40k/40k/50k instruction
        // BOT/reference/EOT costs, 3,000 instructions per I/O.
        Self {
            mpl: 200,
            instr_bot: 40_000.0,
            instr_or: 40_000.0,
            instr_eot: 50_000.0,
            instr_io: 3_000.0,
            num_cpus: 4,
            mips: 50.0,
            group_commit_size: 1,
            group_commit_timeout_ms: 1.0,
            log_record_bytes: 512,
        }
    }
}

#[cfg(test)]
impl CmParams {
    /// Aggregate CPU capacity in MIPS.
    pub fn total_mips(&self) -> f64 {
        self.num_cpus as f64 * self.mips
    }

    /// Average instruction path length of a transaction with `accesses` object
    /// references, excluding I/O overhead (250,000 instructions for the
    /// four-access Debit-Credit transaction).
    pub fn path_length(&self, accesses: usize) -> f64 {
        self.instr_bot + self.instr_eot + accesses as f64 * self.instr_or
    }

    /// Theoretical maximum transaction rate for transactions of `accesses`
    /// object references, ignoring all I/O (800 TPS in §4.1).
    pub fn max_tps(&self, accesses: usize) -> f64 {
        self.total_mips() * 1.0e6 / self.path_length(accesses)
    }
}

/// Data-sharing (multi-node) parameters.
///
/// `num_nodes` computing modules — each with its own CPU servers, local
/// buffer pool and input queue, all parameterized by the shared
/// [`CmParams`] — run in front of one shared storage complex (the
/// [`SimulationConfig::devices`] list, the NVEM and the log allocation).
/// Concurrency control is a global lock service hosted on node 0
/// ([`lockmgr::GlobalLockService`]); a lock request from any other node pays
/// a round trip of `remote_lock_delay_ms` before it reaches the shared
/// table.  A node's committed updates invalidate stale copies of the written
/// pages in the other nodes' buffer pools.
///
/// The default (`num_nodes == 1`) reproduces the paper's single-CM system
/// exactly: no messages are charged and no invalidations occur.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeParams {
    /// Number of computing modules sharing the storage complex.
    pub num_nodes: usize,
    /// One-way message delay (ms) for a lock request from a node other than
    /// the lock service's home node; a remote request pays a round trip
    /// (2×).  Ignored when `num_nodes == 1`.
    pub remote_lock_delay_ms: SimTime,
}

impl Default for NodeParams {
    fn default() -> Self {
        Self {
            num_nodes: 1,
            // ~0.2 ms per message: a cheap interconnect, noticeable against
            // the 0.125 ms object-reference CPU burst but far below a disk
            // access.
            remote_lock_delay_ms: 0.2,
        }
    }
}

impl NodeParams {
    /// A single-node (paper-identical) configuration.
    pub fn single() -> Self {
        Self::default()
    }

    /// A data-sharing configuration with `num_nodes` nodes and the default
    /// message delay.
    pub fn data_sharing(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            ..Self::default()
        }
    }
}

/// Multi-node architecture of the simulated system (Rahm's central
/// comparison: how do several computing modules share one database?).
///
/// * [`Architecture::DataSharing`]: all nodes access the *whole* database
///   through the shared storage complex; concurrency control is the global
///   lock service and commits invalidate stale buffer copies on other nodes.
/// * [`Architecture::SharedNothing`]: the database is partitioned over the
///   nodes ([`PartitioningParams`]); accesses to remote partitions are
///   function-shipped to the owner (message + remote CPU), locking is purely
///   node-local, and commit runs a two-phase message exchange with the
///   owners of the written pages.
///
/// With `num_nodes == 1` the two architectures coincide with the paper's
/// centralized system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Architecture {
    /// All nodes share the full database (global locks + invalidation).
    #[default]
    DataSharing,
    /// Partitions are owned by nodes; remote accesses are function-shipped.
    SharedNothing,
}

/// Shared-nothing partitioning and function-shipping parameters
/// (only read when [`SimulationConfig::architecture`] is
/// [`Architecture::SharedNothing`]).
///
/// The database's global page space is divided into
/// `num_nodes × partitions_per_node` virtual partitions assigned to the
/// nodes round robin ([`dbmodel::PartitionMap`]); `scheme` selects hash or
/// range declustering.  A micro-operation touching a page owned by another
/// node is shipped there: the requester pays a one-way message of
/// `remote_msg_ms` in each direction, and the shipped object reference costs
/// an extra `remote_cpu_instr` instructions *on the owner's CPUs* (request
/// handling at the remote node).  Commit adds a prepare round trip to the
/// remote owners of the written pages plus one asynchronous commit message
/// per owner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitioningParams {
    /// How pages map to virtual partitions (hash or contiguous ranges).
    pub scheme: PartitionScheme,
    /// Virtual partitions per node (more partitions smooth the load at the
    /// price of locality under the range scheme).
    pub partitions_per_node: usize,
    /// One-way message delay (ms) of a function-shipping exchange; a shipped
    /// reference pays it twice (call + reply), a commit prepare pays one
    /// round trip regardless of the number of participants (the messages
    /// travel in parallel).
    pub remote_msg_ms: SimTime,
    /// Extra instructions charged on the *owner's* CPUs per shipped object
    /// reference (request handling, dispatch).
    pub remote_cpu_instr: f64,
}

impl Default for PartitioningParams {
    fn default() -> Self {
        Self {
            scheme: PartitionScheme::Hash,
            partitions_per_node: 8,
            // Same cheap interconnect as the data-sharing lock messages, so
            // the architecture comparison is apples to apples.
            remote_msg_ms: 0.2,
            // ~10k instructions to receive, dispatch and answer a shipped
            // call — a quarter of an average object reference.
            remote_cpu_instr: 10_000.0,
        }
    }
}

impl PartitioningParams {
    /// Hash declustering with the default message and CPU costs.
    pub fn hash(partitions_per_node: usize) -> Self {
        Self {
            scheme: PartitionScheme::Hash,
            partitions_per_node,
            ..Self::default()
        }
    }

    /// Range declustering with the default message and CPU costs.
    pub fn range(partitions_per_node: usize) -> Self {
        Self {
            scheme: PartitionScheme::Range,
            partitions_per_node,
            ..Self::default()
        }
    }
}

/// Where the log file is allocated (§3.3: "NVEM-resident, SSD, disk with a
/// write buffer either in NVEM or in disk cache, or on disk without using a
/// write buffer"; SSD and cached disks are expressed through the disk-unit
/// kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogAllocation {
    /// The log is kept in non-volatile extended memory.
    Nvem,
    /// The log is written to the given disk unit (regular disk, cached disk or
    /// SSD depending on the unit's kind).
    DiskUnit(usize),
    /// The log is written to the given disk unit but the log pages first go
    /// through the NVEM write buffer (asynchronous disk update).
    DiskUnitViaNvemWriteBuffer(usize),
}

/// Unused by the engine: the event kernel is sequential, and independent
/// simulations (sweep points) are the unit of parallelism (`tpsim-bench`'s
/// runner).
///
/// The struct exists only because the benchmark package (`simbench/`) sets
/// `kernel_threads = 0` and asserts [`SimulationConfig::kernel_workers`] is
/// 0.  Delete both once the benchmark drops those two lines.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ParallelismParams {
    /// Must be 0 or 1; [`SimulationConfig::validate`] rejects larger values.
    pub kernel_threads: usize,
}

/// Cross-node buffer coherence protocol under data sharing (§7 of the
/// paper: the cost of keeping node caches coherent is what separates the
/// data-sharing design points).
///
/// * [`CoherenceProtocol::BroadcastInvalidate`] (the default, and the only
///   protocol modelled before this parameter existed): a committing node
///   synchronously drops the stale copies of its written pages from the
///   other nodes' buffer pools at commit.  Remote pools never hold stale
///   data, but every commit pays a fan-out over the holding nodes.
/// * [`CoherenceProtocol::OnRequestValidate`]: commit only drops the other
///   nodes from each written page's holder mask; nothing is eagerly
///   invalidated.  A node detects staleness lazily when it next references
///   the page — a buffered copy whose node has lost its holder bit is
///   discarded (with the same bookkeeping as an eager invalidation), the
///   reference pays a validation round trip, and the access proceeds as a
///   buffer miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoherenceProtocol {
    /// Eager commit-time invalidation of stale remote copies.
    #[default]
    BroadcastInvalidate,
    /// Lazy validation: holder-bit check on reference, stale hit ⇒ miss.
    OnRequestValidate,
}

/// How a buffer miss for a page that another node holds a valid copy of is
/// satisfied under data sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageTransfer {
    /// Re-read the page from the shared disk (the paper's base assumption).
    #[default]
    DiskReread,
    /// Fetch the page directly from the holding node's memory: a message
    /// round trip ([`CoherenceParams::transfer_msg_ms`] each way) plus a
    /// memory-copy CPU burst ([`CoherenceParams::transfer_copy_instr`])
    /// replace the disk read.
    DirectTransfer,
}

/// Cross-node buffer coherence parameters (only read under
/// [`Architecture::DataSharing`] with more than one node).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoherenceParams {
    /// How stale remote copies are detected and discarded.
    pub protocol: CoherenceProtocol,
    /// How misses on remotely-held pages are satisfied.
    pub page_transfer: PageTransfer,
    /// One-way message delay (ms) of a direct page transfer; a transfer pays
    /// a round trip (request + page shipment).  A reference that finds its
    /// copy stale under on-request validation pays the same round trip.
    pub transfer_msg_ms: SimTime,
    /// CPU instructions to copy a transferred page between pools, charged on
    /// the requester's CPUs.
    pub transfer_copy_instr: f64,
}

impl Default for CoherenceParams {
    fn default() -> Self {
        Self {
            protocol: CoherenceProtocol::BroadcastInvalidate,
            page_transfer: PageTransfer::DiskReread,
            // The same cheap interconnect as the lock and function-shipping
            // messages, so protocol comparisons are apples to apples.
            transfer_msg_ms: 0.2,
            // ~5k instructions to receive and install a 4 KB page — an
            // eighth of an average object reference.
            transfer_copy_instr: 5_000.0,
        }
    }
}

impl CoherenceParams {
    /// The pre-existing behavior: broadcast invalidation, disk re-read.
    pub fn broadcast() -> Self {
        Self::default()
    }

    /// On-request validation (lazy staleness detection).
    pub fn on_request_validate() -> Self {
        Self {
            protocol: CoherenceProtocol::OnRequestValidate,
            ..Self::default()
        }
    }

    /// Enables direct cache-to-cache page transfer for buffer misses.
    pub fn with_direct_transfer(mut self) -> Self {
        self.page_transfer = PageTransfer::DirectTransfer;
        self
    }

    /// True for the default broadcast-invalidation / disk-reread
    /// combination, whose reports carry no `coherence` section (the
    /// delay/cost knobs are irrelevant then: neither protocol message is
    /// ever sent).
    pub fn is_default_protocol(&self) -> bool {
        self.protocol == CoherenceProtocol::BroadcastInvalidate
            && self.page_transfer == PageTransfer::DiskReread
    }
}

/// Arrival-rate schedule of the open system: how the offered load varies
/// over simulated time.  Every variant scales the base
/// [`SimulationConfig::arrival_rate_tps`]; `Constant` keeps the original
/// homogeneous Poisson process (bit-for-bit, including its RNG draw
/// sequence), `Burst` drives a non-homogeneous Poisson process through
/// [`PiecewiseRate`] inversion.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WorkloadSchedule {
    /// Fixed rate for the whole run (the paper's model; the default).
    #[default]
    Constant,
    /// Periodic load spikes: for the first `burst_fraction` of every
    /// `period_ms` the rate is `burst_factor ×` base, then base for the
    /// remainder.
    Burst {
        /// Length of one burst cycle in simulated ms.
        period_ms: SimTime,
        /// Fraction of the cycle spent in the burst, in `(0, 1)`.
        burst_fraction: f64,
        /// Rate multiplier during the burst (> 0).
        burst_factor: f64,
    },
}

impl WorkloadSchedule {
    /// Compiles the schedule into the piecewise rate function driving the
    /// non-homogeneous Poisson arrival process, or `None` for `Constant`
    /// (the engine then keeps the original draw path untouched).
    pub fn to_piecewise(&self, base_rate_tps: f64) -> Option<PiecewiseRate> {
        match *self {
            WorkloadSchedule::Constant => None,
            WorkloadSchedule::Burst {
                period_ms,
                burst_fraction,
                burst_factor,
            } => Some(PiecewiseRate::new(vec![
                (period_ms * burst_fraction, base_rate_tps * burst_factor),
                (period_ms * (1.0 - burst_fraction), base_rate_tps),
            ])),
        }
    }

    /// Validates the schedule parameters (positive, finite, non-degenerate
    /// segment durations — a zero-duration segment would make the piecewise
    /// inversion ill-defined).
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            WorkloadSchedule::Constant => Ok(()),
            WorkloadSchedule::Burst {
                period_ms,
                burst_fraction,
                burst_factor,
            } => {
                if !period_ms.is_finite() || period_ms <= 0.0 {
                    return Err("burst period must be positive".into());
                }
                if !(burst_fraction.is_finite() && burst_fraction > 0.0 && burst_fraction < 1.0) {
                    return Err(
                        "burst fraction must be in (0, 1) (zero-duration segments are \
                         rejected)"
                            .into(),
                    );
                }
                if !burst_factor.is_finite() || burst_factor <= 0.0 {
                    return Err("burst factor must be positive".into());
                }
                Ok(())
            }
        }
    }
}

/// Open-system workload shaping: the arrival-rate schedule plus the
/// hot-spot skew applied to the page-access pattern.  The default (constant
/// rate, no skew) reproduces the paper's model exactly: its RNG draw
/// sequences are those of an engine without shaping.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkloadParams {
    /// Arrival-rate schedule.
    pub schedule: WorkloadSchedule,
    /// Zipfian hot-spot parameters applied to the workload generator.
    pub hot_spot: HotSpotParams,
}

impl WorkloadParams {
    /// A constant-rate schedule with Zipfian skew.
    pub fn skewed(theta: f64, hot_fraction: f64) -> Self {
        Self {
            schedule: WorkloadSchedule::Constant,
            hot_spot: HotSpotParams::new(theta, hot_fraction),
        }
    }

    /// Validates schedule and hot-spot parameters.
    pub fn validate(&self) -> Result<(), String> {
        self.schedule.validate()?;
        self.hot_spot.validate()
    }
}

/// Complete configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// CM parameters (per node: every computing module is configured
    /// identically).
    pub cm: CmParams,
    /// Data-sharing parameters (number of computing modules, remote lock
    /// message delay).
    pub nodes: NodeParams,
    /// Multi-node architecture: data sharing (default) or shared nothing.
    pub architecture: Architecture,
    /// Shared-nothing partitioning / function-shipping parameters (ignored
    /// under [`Architecture::DataSharing`]).
    pub partitioning: PartitioningParams,
    /// NVEM device parameters (for the synchronous CPU-access path).
    pub nvem: NvemParams,
    /// The external storage devices of the configuration (indexed by the ids
    /// used in [`bufmgr::PageLocation::DiskUnit`] and
    /// [`LogAllocation::DiskUnit`]): disk units of any kind, so storage
    /// topologies are configuration, not engine code.
    pub devices: Vec<DiskUnitParams>,
    /// Log allocation.
    pub log_allocation: LogAllocation,
    /// Interval between fuzzy checkpoints (ms of simulated time).  Each
    /// checkpoint writes one checkpoint record to the log allocation
    /// (contending with commit log writes), advances the redo boundary to
    /// the oldest committed-but-unpropagated update and truncates the redo
    /// log before it.  Restart assumes the buffer's update strategy and
    /// reads the redo log tail at NVEM speed exactly when the log is
    /// NVEM-resident.  A positive interval needs one node under
    /// [`Architecture::DataSharing`].  `0`, the default of every preset,
    /// disables checkpointing: no checkpoint events are scheduled and no
    /// redo bookkeeping is performed (unless a crash is requested via
    /// [`crate::Simulation::simulate_crash_at`]), so the run is bit-for-bit
    /// identical to an engine without the recovery subsystem.
    pub checkpoint_interval_ms: SimTime,
    /// Buffer-manager configuration (buffer sizes, update strategy,
    /// per-partition allocation and NVEM usage).
    pub buffer: BufferConfig,
    /// Concurrency-control mode per partition, one for each policy in
    /// `buffer.partitions`.
    pub cc_modes: Vec<CcMode>,
    /// Unused by the engine; kept for the benchmark package (see
    /// [`ParallelismParams`]).
    pub parallelism: ParallelismParams,
    /// Cross-node buffer coherence protocol and page-transfer policy
    /// (data sharing with more than one node; ignored otherwise).
    pub coherence: CoherenceParams,
    /// Per-device read coalescing, applied to every disk unit.  Disabled by
    /// default: every read is then an I/O of its own, and each device
    /// report's `scheduler` section is `None`.
    pub io_scheduler: IoSchedulerParams,
    /// Open-system workload shaping: arrival-rate schedule and hot-spot
    /// skew.  Inactive by default: unshaped runs keep the paper's constant
    /// Poisson arrivals and uniform page access.
    pub workload: WorkloadParams,
    /// Transaction arrival rate in transactions per second (open system,
    /// Poisson arrivals).  Time-varying schedules scale this base rate.
    pub arrival_rate_tps: f64,
    /// Warm-up interval (statistics are discarded), in ms.
    pub warmup_ms: SimTime,
    /// Measurement interval, in ms.
    pub measure_ms: SimTime,
    /// RNG seed (a run is fully determined by configuration + seed).
    pub seed: u64,
}

impl SimulationConfig {
    /// True when the run may checkpoint or crash: one node under
    /// [`Architecture::DataSharing`], so that one dirty-page table describes
    /// every committed-but-unpropagated update and no other node's commit
    /// ever supersedes one of its entries.
    pub(crate) fn recovery_supported(&self) -> bool {
        self.architecture == Architecture::DataSharing && self.nodes.num_nodes == 1
    }

    /// Basic consistency checks.  Returns a description of the first problem.
    /// Every float must be finite: a NaN or infinite time or cost would
    /// otherwise validate and then run without measuring anything.
    pub fn validate(&self) -> Result<(), String> {
        use Bound::{NonNegative, Positive};
        let cm = &self.cm;
        for (value, message) in [
            (self.arrival_rate_tps, "arrival rate must be positive"),
            (self.measure_ms, "measurement interval must be positive"),
            (cm.mips, "CPU configuration must have capacity"),
        ] {
            check_float(value, Positive, message)?;
        }
        if cm.group_commit_size > 1 {
            let message = "group commit requires a positive timeout";
            check_float(cm.group_commit_timeout_ms, Positive, message)?;
        }
        for (value, message) in [
            (self.warmup_ms, "warm-up interval must be non-negative"),
            (cm.instr_bot, "BOT instructions must be non-negative"),
            (cm.instr_or, "reference instructions must be non-negative"),
            (cm.instr_eot, "EOT instructions must be non-negative"),
            (cm.instr_io, "I/O instructions must be non-negative"),
            (
                cm.group_commit_timeout_ms,
                "group commit timeout must be non-negative",
            ),
            (
                self.nodes.remote_lock_delay_ms,
                "remote lock delay must be non-negative",
            ),
            (
                self.partitioning.remote_msg_ms,
                "remote message delay must be non-negative",
            ),
            (
                self.partitioning.remote_cpu_instr,
                "remote CPU cost must be non-negative",
            ),
            (
                self.coherence.transfer_msg_ms,
                "page-transfer message delay must be non-negative",
            ),
            (
                self.coherence.transfer_copy_instr,
                "page-transfer copy cost must be non-negative",
            ),
            (
                self.checkpoint_interval_ms,
                "checkpoint interval must be non-negative",
            ),
        ] {
            check_float(value, NonNegative, message)?;
        }
        if cm.num_cpus == 0 {
            return Err("CPU configuration must have capacity".into());
        }
        if cm.mpl == 0 {
            return Err("multiprogramming level must be at least 1".into());
        }
        if cm.group_commit_size == 0 {
            return Err("group commit size must be at least 1".into());
        }
        if self.nodes.num_nodes == 0 {
            return Err("at least one computing module is required".into());
        }
        if self.nodes.num_nodes > 64 {
            return Err("more than 64 computing modules are not supported".into());
        }
        if self.partitioning.partitions_per_node == 0 {
            return Err("at least one partition per node is required".into());
        }
        if self.parallelism.kernel_threads > 1 {
            return Err(
                "the event kernel is sequential: kernel_threads must be 0 or 1 \
                 (run independent simulations in parallel instead, as sweeps do)"
                    .into(),
            );
        }
        self.workload.validate()?;
        if self.checkpoint_interval_ms > 0.0 && !self.recovery_supported() {
            return Err(
                "crash recovery is only modelled for one node of the data-sharing architecture"
                    .into(),
            );
        }
        if self.architecture == Architecture::SharedNothing {
            if self.buffer.update_strategy == bufmgr::UpdateStrategy::Force {
                return Err(
                    "the FORCE update strategy is not supported in shared-nothing mode \
                     (forced pages live in the owners' buffer pools)"
                        .into(),
                );
            }
            if self.cm.group_commit_size > 1 {
                return Err(
                    "group commit is not supported in shared-nothing mode (the engine's \
                     commit batch is global and would merge log writes across the \
                     per-node logs)"
                        .into(),
                );
            }
            if self.coherence.protocol != CoherenceProtocol::BroadcastInvalidate
                || self.coherence.page_transfer != PageTransfer::DiskReread
            {
                return Err(
                    "coherence protocols apply only to the data-sharing architecture \
                     (shared-nothing pools never hold remote pages)"
                        .into(),
                );
            }
        }
        if self.cm.log_record_bytes == 0
            || self.cm.log_record_bytes > crate::recovery::LOG_PAGE_BYTES
        {
            return Err(format!(
                "log record size must be between 1 and {} bytes",
                crate::recovery::LOG_PAGE_BYTES
            ));
        }
        self.buffer.validate()?;
        if self.cc_modes.len() != self.buffer.partitions.len() {
            return Err(format!(
                "{} concurrency-control modes for {} buffer partition policies",
                self.cc_modes.len(),
                self.buffer.partitions.len()
            ));
        }
        for (i, d) in self.devices.iter().enumerate() {
            if d.num_controllers == 0 || d.num_disks == 0 {
                return Err(format!(
                    "storage device {i} needs at least one controller and one disk"
                ));
            }
            if d.kind.has_cache() && d.cache_size > storage::lru::MAX_CAPACITY {
                return Err(format!(
                    "storage device {i}: a disk cache of {} pages exceeds the {} a cache indexes",
                    d.cache_size,
                    storage::lru::MAX_CAPACITY
                ));
            }
        }
        // Every device reference must exist.
        let check_unit = |u: usize, what: &str| -> Result<(), String> {
            if u >= self.devices.len() {
                Err(format!("{what} references unknown storage device {u}"))
            } else {
                Ok(())
            }
        };
        match self.log_allocation {
            LogAllocation::Nvem => {}
            LogAllocation::DiskUnit(u) | LogAllocation::DiskUnitViaNvemWriteBuffer(u) => {
                check_unit(u, "log allocation")?;
            }
        }
        for (i, p) in self.buffer.partitions.iter().enumerate() {
            if let bufmgr::PageLocation::DiskUnit(u) = p.location {
                check_unit(u, &format!("partition {i}"))?;
            }
        }
        if matches!(
            self.log_allocation,
            LogAllocation::DiskUnitViaNvemWriteBuffer(_)
        ) && self.buffer.nvem_write_buffer_pages == 0
        {
            return Err("log via NVEM write buffer requires a write buffer size".into());
        }
        Ok(())
    }

    /// Total simulated time of the run (warm-up plus measurement).
    pub fn total_time_ms(&self) -> SimTime {
        self.warmup_ms + self.measure_ms
    }

    /// Always 0: the event kernel runs no worker threads.  Kept for the
    /// benchmark package (see [`ParallelismParams`]).
    pub fn kernel_workers(&self) -> usize {
        0
    }

    /// Expected number of arrivals over the whole run (diagnostic).
    /// Integrates the arrival-rate schedule; for the constant schedule this
    /// is exactly `rate · time`.
    pub fn expected_arrivals(&self) -> f64 {
        match self.workload.schedule.to_piecewise(self.arrival_rate_tps) {
            None => self.arrival_rate_tps * self.total_time_ms() / 1000.0,
            Some(rate) => rate.expected_events(0.0, self.total_time_ms()),
        }
    }
}

/// The range a configured float must lie in, besides being finite.
#[derive(Clone, Copy)]
enum Bound {
    Positive,
    NonNegative,
}

/// `Err(message)` unless `value` is finite and within `bound`.
fn check_float(value: f64, bound: Bound, message: &str) -> Result<(), String> {
    let in_bound = match bound {
        Bound::Positive => value > 0.0,
        Bound::NonNegative => value >= 0.0,
    };
    if value.is_finite() && in_bound {
        Ok(())
    } else {
        Err(message.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufmgr::PartitionPolicy;
    use storage::DiskUnitKind;

    fn minimal_config() -> SimulationConfig {
        SimulationConfig {
            cm: CmParams::default(),
            nodes: NodeParams::default(),
            architecture: Architecture::default(),
            partitioning: PartitioningParams::default(),
            nvem: NvemParams::default(),
            devices: vec![DiskUnitParams::database_disks(DiskUnitKind::Regular, 2, 8)],
            log_allocation: LogAllocation::DiskUnit(0),
            checkpoint_interval_ms: 0.0,
            buffer: BufferConfig {
                mm_buffer_pages: 100,
                nvem_cache_pages: 0,
                nvem_write_buffer_pages: 0,
                update_strategy: bufmgr::UpdateStrategy::NoForce,
                partitions: vec![PartitionPolicy::on_disk_unit(0)],
            },
            cc_modes: vec![CcMode::Page],
            parallelism: ParallelismParams::default(),
            coherence: CoherenceParams::default(),
            io_scheduler: IoSchedulerParams::default(),
            workload: WorkloadParams::default(),
            arrival_rate_tps: 100.0,
            warmup_ms: 1000.0,
            measure_ms: 5000.0,
            seed: 1,
        }
    }

    #[test]
    fn cm_defaults_match_table_4_1() {
        let cm = CmParams::default();
        assert_eq!(cm.total_mips(), 200.0);
        assert_eq!(cm.path_length(4), 250_000.0);
        assert!((cm.max_tps(4) - 800.0).abs() < 1e-9);
    }

    #[test]
    fn minimal_config_validates() {
        assert!(minimal_config().validate().is_ok());
        assert!((minimal_config().total_time_ms() - 6000.0).abs() < 1e-9);
        assert!((minimal_config().expected_arrivals() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_arrival_rate() {
        let mut c = minimal_config();
        c.arrival_rate_tps = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_hot_spot_params() {
        let mut c = minimal_config();
        c.workload.hot_spot = dbmodel::HotSpotParams::new(1.0, 0.5);
        assert!(c.validate().is_err());
        c.workload.hot_spot = dbmodel::HotSpotParams::new(0.5, 0.0);
        assert!(c.validate().is_err());
        c.workload.hot_spot = dbmodel::HotSpotParams::new(0.5, 1.5);
        assert!(c.validate().is_err());
        c.workload.hot_spot = dbmodel::HotSpotParams::new(0.9, 0.1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_zero_duration_schedule_segments() {
        let mut c = minimal_config();
        // burst_fraction 0 or 1 would create a zero-duration segment.
        c.workload.schedule = WorkloadSchedule::Burst {
            period_ms: 1000.0,
            burst_fraction: 0.0,
            burst_factor: 5.0,
        };
        assert!(c.validate().is_err());
        c.workload.schedule = WorkloadSchedule::Burst {
            period_ms: 1000.0,
            burst_fraction: 1.0,
            burst_factor: 5.0,
        };
        assert!(c.validate().is_err());
        c.workload.schedule = WorkloadSchedule::Burst {
            period_ms: 0.0,
            burst_fraction: 0.5,
            burst_factor: 5.0,
        };
        assert!(c.validate().is_err());
        c.workload.schedule = WorkloadSchedule::Burst {
            period_ms: 1000.0,
            burst_fraction: 0.1,
            burst_factor: 5.0,
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn expected_arrivals_integrates_the_schedule() {
        // Constant: exactly rate · time (unchanged legacy behaviour).
        let c = minimal_config();
        assert_eq!(c.expected_arrivals(), 600.0);

        // Burst: 10% of each cycle at 10×, 90% at 1× → mean factor 1.9.
        // Six full 1 s cycles fit in the 6 s run, so the integral is exact.
        let mut c = minimal_config();
        c.workload.schedule = WorkloadSchedule::Burst {
            period_ms: 1000.0,
            burst_fraction: 0.1,
            burst_factor: 10.0,
        };
        assert!((c.expected_arrivals() - 600.0 * 1.9).abs() < 1e-6);
    }

    #[test]
    fn validation_catches_unknown_disk_unit() {
        let mut c = minimal_config();
        c.log_allocation = LogAllocation::DiskUnit(5);
        assert!(c.validate().is_err());
        let mut c = minimal_config();
        c.buffer.partitions[0] = PartitionPolicy::on_disk_unit(3);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_caches_beyond_a_u32_frame_index() {
        let max = storage::lru::MAX_CAPACITY;
        let mut c = minimal_config();
        c.devices[0] = DiskUnitParams::database_disks(DiskUnitKind::NonVolatileCache, 2, 8)
            .with_cache_size(max);
        assert!(c.validate().is_ok());
        c.devices[0].cache_size = max + 1;
        let err = c.validate().unwrap_err();
        assert!(err.contains("disk cache"), "{err}");
        // A unit without a cache ignores its cache size.
        c.devices[0].kind = DiskUnitKind::Regular;
        assert!(c.validate().is_ok());
        // The buffer pools' sizes are checked by the buffer configuration.
        let mut c = minimal_config();
        c.buffer.mm_buffer_pages = max + 1;
        let err = c.validate().unwrap_err();
        assert!(err.contains("main-memory buffer"), "{err}");
        let mut c = minimal_config();
        c.buffer.nvem_cache_pages = max + 1;
        let err = c.validate().unwrap_err();
        assert!(err.contains("NVEM cache"), "{err}");
        let mut c = minimal_config();
        c.buffer.nvem_write_buffer_pages = max + 1;
        let err = c.validate().unwrap_err();
        assert!(err.contains("NVEM write buffer"), "{err}");
    }

    #[test]
    fn validation_catches_log_write_buffer_without_size() {
        let mut c = minimal_config();
        c.log_allocation = LogAllocation::DiskUnitViaNvemWriteBuffer(0);
        assert!(c.validate().is_err());
        c.buffer.nvem_write_buffer_pages = 100;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_parallelism() {
        let mut c = minimal_config();
        c.parallelism.kernel_threads = 257;
        assert!(c.validate().is_err());
        c.parallelism.kernel_threads = 2;
        let err = c.validate().unwrap_err();
        assert!(err.contains("sequential"), "{err}");
        c.parallelism.kernel_threads = 1;
        assert!(c.validate().is_ok());
        c.parallelism.kernel_threads = 0;
        assert!(c.validate().is_ok());
        assert_eq!(c.kernel_workers(), 0);
    }

    #[test]
    fn validation_catches_bad_group_commit() {
        let mut c = minimal_config();
        c.cm.group_commit_size = 0;
        assert!(c.validate().is_err());
        let mut c = minimal_config();
        c.cm.group_commit_size = 4;
        c.cm.group_commit_timeout_ms = 0.0;
        assert!(c.validate().is_err());
        c.cm.group_commit_timeout_ms = 2.0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_disk_units_without_servers() {
        let mut c = minimal_config();
        c.devices[0].num_controllers = 0;
        let err = c.validate().unwrap_err();
        assert!(err.contains("storage device 0"), "{err}");
        let mut c = minimal_config();
        c.devices[0].num_disks = 0;
        assert!(c.validate().is_err());
        c.devices[0].num_disks = 1;
        c.devices[0].num_controllers = 1;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_cc_modes_of_another_length() {
        let mut c = minimal_config();
        c.cc_modes.push(CcMode::Object);
        let err = c.validate().unwrap_err();
        assert!(err.contains("2 concurrency-control modes for 1"), "{err}");
        c.buffer.partitions.push(PartitionPolicy::on_disk_unit(0));
        assert!(c.validate().is_ok());
        let mut c = minimal_config();
        c.buffer.partitions.push(PartitionPolicy::memory_resident());
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_node_params() {
        let mut c = minimal_config();
        c.nodes.num_nodes = 0;
        assert!(c.validate().is_err());
        let mut c = minimal_config();
        c.nodes.num_nodes = 65;
        assert!(c.validate().is_err());
        let mut c = minimal_config();
        c.nodes.remote_lock_delay_ms = -1.0;
        assert!(c.validate().is_err());
        let mut c = minimal_config();
        c.nodes = NodeParams::data_sharing(8);
        assert!(c.validate().is_ok());
        assert_eq!(NodeParams::single().num_nodes, 1);
    }

    #[test]
    fn validation_catches_bad_recovery_params() {
        // The checkpoint interval is the one recovery parameter: negative
        // and NaN intervals are rejected ...
        let mut c = minimal_config();
        c.checkpoint_interval_ms = -1.0;
        let err = c.validate().unwrap_err();
        assert!(err.contains("checkpoint interval"), "{err}");
        c.checkpoint_interval_ms = f64::NAN;
        assert!(c.validate().is_err());
        // ... while any positive interval enables recovery under either
        // update strategy ...
        c.checkpoint_interval_ms = 1_000.0;
        assert!(c.validate().is_ok());
        c.buffer.update_strategy = bufmgr::UpdateStrategy::Force;
        assert!(c.validate().is_ok());
        // ... on one node only.
        c.nodes = NodeParams::data_sharing(2);
        let err = c.validate().unwrap_err();
        assert!(err.contains("one node"), "{err}");
        c.checkpoint_interval_ms = 0.0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_log_record_size() {
        let mut c = minimal_config();
        c.cm.log_record_bytes = 0;
        assert!(c.validate().is_err());
        let mut c = minimal_config();
        c.cm.log_record_bytes = 100_000;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_partitioning_params() {
        let mut c = minimal_config();
        c.partitioning.partitions_per_node = 0;
        assert!(c.validate().is_err());
        let mut c = minimal_config();
        c.partitioning.remote_msg_ms = -0.1;
        assert!(c.validate().is_err());
        let mut c = minimal_config();
        c.partitioning.remote_msg_ms = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = minimal_config();
        c.partitioning.remote_cpu_instr = -1.0;
        assert!(c.validate().is_err());
        // The shared-nothing architecture with default partitioning is fine …
        let mut c = minimal_config();
        c.architecture = Architecture::SharedNothing;
        c.partitioning = PartitioningParams::range(4);
        assert!(c.validate().is_ok());
        // … but refuses recovery and FORCE (both are data-sharing-only).
        let mut c = minimal_config();
        c.architecture = Architecture::SharedNothing;
        c.checkpoint_interval_ms = 500.0;
        assert!(c.validate().is_err());
        let mut c = minimal_config();
        c.architecture = Architecture::SharedNothing;
        c.buffer.update_strategy = bufmgr::UpdateStrategy::Force;
        assert!(c.validate().is_err());
        // ... and group commit (the engine's commit batch is global, the
        // shared-nothing log is per node).
        let mut c = minimal_config();
        c.architecture = Architecture::SharedNothing;
        c.cm.group_commit_size = 4;
        c.cm.group_commit_timeout_ms = 2.0;
        assert!(c.validate().is_err());
        assert_eq!(PartitioningParams::hash(2).partitions_per_node, 2);
        assert_eq!(
            PartitioningParams::range(3).scheme,
            dbmodel::PartitionScheme::Range
        );
    }

    #[test]
    fn validation_catches_bad_coherence_params() {
        let mut c = minimal_config();
        c.coherence.transfer_msg_ms = -0.1;
        assert!(c.validate().is_err());
        let mut c = minimal_config();
        c.coherence.transfer_msg_ms = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = minimal_config();
        c.coherence.transfer_copy_instr = -1.0;
        assert!(c.validate().is_err());
        // Every protocol/transfer combination validates under data sharing …
        let mut c = minimal_config();
        c.nodes = NodeParams::data_sharing(4);
        c.coherence = CoherenceParams::on_request_validate().with_direct_transfer();
        assert!(c.validate().is_ok());
        c.coherence = CoherenceParams::broadcast().with_direct_transfer();
        assert!(c.validate().is_ok());
        // … but shared nothing refuses non-default coherence settings.
        let mut c = minimal_config();
        c.architecture = Architecture::SharedNothing;
        c.coherence = CoherenceParams::on_request_validate();
        assert!(c.validate().is_err());
        let mut c = minimal_config();
        c.architecture = Architecture::SharedNothing;
        c.coherence = CoherenceParams::broadcast().with_direct_transfer();
        assert!(c.validate().is_err());
        assert_eq!(
            CoherenceParams::default().protocol,
            CoherenceProtocol::BroadcastInvalidate
        );
        assert_eq!(
            CoherenceParams::default().page_transfer,
            PageTransfer::DiskReread
        );
    }

    #[test]
    fn validation_catches_zero_mpl_and_cpus() {
        let mut c = minimal_config();
        c.cm.mpl = 0;
        assert!(c.validate().is_err());
        let mut c = minimal_config();
        c.cm.num_cpus = 0;
        assert!(c.validate().is_err());
    }

    /// A field of [`SimulationConfig`] that holds a float.
    type FloatField = fn(&mut SimulationConfig) -> &mut f64;

    /// One case per float: NaN, the infinities and a value just outside its
    /// range are rejected, the bound itself (or a value just inside it) is
    /// accepted.
    #[test]
    fn validation_rejects_non_finite_and_out_of_range_floats() {
        let positive: [(&str, FloatField); 3] = [
            ("arrival_rate_tps", |c| &mut c.arrival_rate_tps),
            ("measure_ms", |c| &mut c.measure_ms),
            ("cm.mips", |c| &mut c.cm.mips),
        ];
        let non_negative: [(&str, FloatField); 12] = [
            ("warmup_ms", |c| &mut c.warmup_ms),
            ("cm.instr_bot", |c| &mut c.cm.instr_bot),
            ("cm.instr_or", |c| &mut c.cm.instr_or),
            ("cm.instr_eot", |c| &mut c.cm.instr_eot),
            ("cm.instr_io", |c| &mut c.cm.instr_io),
            ("cm.group_commit_timeout_ms", |c| {
                &mut c.cm.group_commit_timeout_ms
            }),
            ("nodes.remote_lock_delay_ms", |c| {
                &mut c.nodes.remote_lock_delay_ms
            }),
            ("partitioning.remote_msg_ms", |c| {
                &mut c.partitioning.remote_msg_ms
            }),
            ("partitioning.remote_cpu_instr", |c| {
                &mut c.partitioning.remote_cpu_instr
            }),
            ("coherence.transfer_msg_ms", |c| {
                &mut c.coherence.transfer_msg_ms
            }),
            ("coherence.transfer_copy_instr", |c| {
                &mut c.coherence.transfer_copy_instr
            }),
            ("checkpoint_interval_ms", |c| &mut c.checkpoint_interval_ms),
        ];
        let cases = positive
            .into_iter()
            .map(|(name, field)| (name, field, 0.0, 1e-9))
            .chain(
                non_negative
                    .into_iter()
                    .map(|(name, field)| (name, field, -1e-9, 0.0)),
            );
        for (name, field, outside, inside) in cases {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, outside] {
                let mut c = minimal_config();
                *field(&mut c) = bad;
                assert!(c.validate().is_err(), "{name} = {bad} validated");
            }
            let mut c = minimal_config();
            *field(&mut c) = inside;
            assert_eq!(c.validate(), Ok(()), "{name} = {inside}");
        }
        // With group commit on, its timeout must be positive.
        let mut c = minimal_config();
        c.cm.group_commit_size = 4;
        c.cm.group_commit_timeout_ms = f64::NAN;
        let err = c.validate().unwrap_err();
        assert_eq!(err, "group commit requires a positive timeout");
    }
}
