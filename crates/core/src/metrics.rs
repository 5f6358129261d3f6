//! Simulation output: response times, throughput, device utilizations, buffer
//! hit ratios and lock statistics.  TPSIM "computes detailed statistics on the
//! composition of response time and device utilization, waiting times, queue
//! lengths, lock behavior, hit ratios, etc. in order to explain the results"
//! (§4); this module is the equivalent report.
//!
//! Every report type derives `Debug`, and the `{:#?}` rendering is what the
//! byte-identity goldens pin: a section whose mechanism did not run is an
//! `Option` that renders as `None`.

use bufmgr::BufferStats;
use lockmgr::{GlobalLockStats, LockManagerStats};
use simkernel::time::SimTime;
use storage::DiskUnitStats;

/// Summary of the transaction response-time distribution (ms).
///
/// Count, mean, standard deviation and the extremes are exact; the
/// percentiles come from one run-wide [`simkernel::QuantileSketch`] fed at
/// every measured completion.  Each percentile is the stored value whose
/// cumulative weight first reaches rank `ceil(q · count)`: the exact order
/// statistic while `rank_error_bound` is 0 (fewer than 4,096 completions),
/// and within `rank_error_bound` ranks of it otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseTimeStats {
    /// Number of transactions measured.
    pub count: u64,
    /// Mean response time.
    pub mean: f64,
    /// Standard deviation.
    pub std_dev: f64,
    /// Minimum observed response time.
    pub min: f64,
    /// Maximum observed response time.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Self-certified rank-error bound of the sketch: every percentile is
    /// within this many ranks of the exact order statistic.
    pub rank_error_bound: u64,
}

impl ResponseTimeStats {
    /// Placeholder used when no transaction completed in the measurement
    /// interval (e.g. a completely saturated configuration).
    pub fn empty() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            std_dev: 0.0,
            min: 0.0,
            max: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            p999: 0.0,
            rank_error_bound: 0,
        }
    }
}

/// Per-device read-coalescing counters, present exactly when the run
/// enabled coalescing ([`storage::IoSchedulerParams::enabled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoSchedulerReport {
    /// Reads that joined an in-flight read of the same page.
    pub coalesced: u64,
}

/// Per-storage-device report.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Device name (e.g. "db-disks", "log-disk", "nvem-log").
    pub name: String,
    /// Average utilization of the device's disk servers (0 for devices that
    /// never touch a disk).
    pub disk_utilization: f64,
    /// Average utilization of the device's controllers / servers.
    pub controller_utilization: f64,
    /// Average queueing delay at the disk servers per request (ms).
    pub avg_disk_wait: SimTime,
    /// Cache / absorption counters.
    pub stats: DiskUnitStats,
    /// Read-coalescing counters; `Some` exactly when the run enabled
    /// coalescing.
    pub scheduler: Option<IoSchedulerReport>,
}

/// Per-node (computing module) report of a data-sharing run.
///
/// A single-node run has exactly one entry whose values coincide with the
/// aggregate fields of [`SimulationReport`]; a multi-node run has one entry
/// per computing module, and the aggregate fields sum (counters) or average
/// (utilizations, response times) over them.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Node id (0-based; node 0 hosts the global lock service).
    pub node: usize,
    /// Transactions completed on this node during the measurement interval.
    pub completed: u64,
    /// Deadlock aborts of transactions running on this node.
    pub aborts: u64,
    /// Throughput achieved by this node (TPS).
    pub throughput_tps: f64,
    /// Mean response time of this node's transactions (ms).
    pub mean_response_ms: f64,
    /// Average utilization of this node's CPU servers (0..=1).
    pub cpu_utilization: f64,
    /// Time-average number of transactions active on this node.
    pub avg_active_transactions: f64,
    /// Time-average number of transactions waiting in this node's input queue.
    pub avg_input_queue: f64,
    /// Lock requests this node sent to the remote global lock service (0 on
    /// the service's home node).
    pub remote_lock_requests: u64,
    /// This node's buffer-manager statistics (including invalidations
    /// received from other nodes' commits).
    pub buffer: BufferStats,
}

/// Steady-state recovery/checkpointing statistics, present whenever the
/// recovery subsystem was active (checkpointing enabled and/or a crash was
/// simulated).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Fuzzy checkpoints completed during the measurement interval.
    pub checkpoints_taken: u64,
    /// Simulated time spent writing checkpoint records (ms): the measured
    /// latency of the checkpoint log writes, including their queueing at the
    /// log device.
    pub checkpoint_overhead_ms: SimTime,
    /// Redo records appended (committed page updates) during the measurement
    /// interval.
    pub redo_log_records: u64,
    /// Redo records dropped by checkpoint truncation during the measurement
    /// interval.
    pub log_records_truncated: u64,
    /// Redo records per 4 KB log page (from `cm.log_record_bytes`).
    pub records_per_log_page: u64,
    /// The crash-and-restart phase, if a crash was simulated.
    pub restart: Option<RestartReport>,
}

/// Result of a simulated crash and the subsequent redo pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RestartReport {
    /// Simulated time of the crash (ms since the start of the run).
    pub crash_time_ms: SimTime,
    /// Total simulated restart time (ms): log reads + redo applies + data
    /// page reads.  Lock re-acquisition is counted in `locks_reacquired`
    /// but — consistent with the steady-state model, where lock handling
    /// has no explicit CPU cost of its own — adds no time.
    pub restart_ms: SimTime,
    /// Redo records scanned (everything after the last checkpoint's redo
    /// boundary).
    pub redo_records: u64,
    /// Log pages read back during the redo scan (including the checkpoint
    /// record).
    pub log_pages_read: u64,
    /// Database pages re-read from their home location to apply lost
    /// committed updates.
    pub data_pages_read: u64,
    /// Pages with committed-but-unpropagated updates at the crash (the
    /// dirty-page table's size).
    pub dirty_pages_at_crash: u64,
    /// Locks still held by in-flight transactions when the system crashed
    /// (all dropped).
    pub locks_released_at_crash: u64,
    /// Locks the restart pass re-acquired (and released) to protect redone
    /// pages.
    pub locks_reacquired: u64,
}

/// Function-shipping statistics of a shared-nothing run, present exactly
/// when [`crate::config::Architecture::SharedNothing`] is configured.
///
/// An *object reference* is local when the referenced page's partition is
/// owned by the transaction's home node and remote (a function-shipped call)
/// otherwise; `remote_access_fraction` is the headline knob of the
/// architecture comparison: it grows with the node count (≈ `(n-1)/n` under
/// hash declustering with round-robin transaction routing), and with it the
/// message and remote-CPU overhead of the shared-nothing architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct ShippingReport {
    /// Object references executed on the transaction's home node.
    pub local_refs: u64,
    /// Object references function-shipped to a remote owner node.
    pub remote_calls: u64,
    /// Messages exchanged (call + reply per shipped reference; 2 prepare +
    /// 1 commit message per remote commit participant).
    pub messages: u64,
    /// Total simulated message delay charged (ms).
    pub total_message_delay_ms: f64,
    /// CPU time (ms) shipped to owner nodes for remote request handling
    /// (the `remote_cpu_instr` surcharge, excluding the reference work
    /// itself).
    pub remote_cpu_ms: f64,
    /// Commits that ran a two-phase exchange (at least one written page was
    /// owned by a remote node).
    pub commit_exchanges: u64,
    /// Remote commit participants summed over all two-phase exchanges.
    pub commit_participants: u64,
    /// Function-shipped calls issued per home node.
    pub per_node_remote_calls: Vec<u64>,
}

impl ShippingReport {
    /// An all-zero report for `num_nodes` nodes (the engine's accumulator).
    pub fn empty(num_nodes: usize) -> Self {
        Self {
            local_refs: 0,
            remote_calls: 0,
            messages: 0,
            total_message_delay_ms: 0.0,
            remote_cpu_ms: 0.0,
            commit_exchanges: 0,
            commit_participants: 0,
            per_node_remote_calls: vec![0; num_nodes],
        }
    }

    /// Fraction of object references that were function-shipped (0 when no
    /// reference completed).
    pub fn remote_access_fraction(&self) -> f64 {
        let total = self.local_refs + self.remote_calls;
        if total == 0 {
            0.0
        } else {
            self.remote_calls as f64 / total as f64
        }
    }
}

/// Coherence-protocol statistics of a multi-node data-sharing run under a
/// non-default [`crate::config::CoherenceParams`] combination (on-request
/// validation and/or direct page transfer).  Absent for the default
/// broadcast-invalidation / disk-reread combination, which sends neither
/// protocol message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoherenceReport {
    /// Buffered copies a reference found stale — held, but another node's
    /// commit had cleared their node's holder bit — and discarded
    /// (on-request validation; each also counts as a buffer invalidation in
    /// [`bufmgr::BufferStats`]).
    pub stale_validations: u64,
    /// Total simulated delay of the validation round trips charged for
    /// stale hits (ms).
    pub validation_delay_ms: f64,
    /// Buffer misses satisfied by a direct cache-to-cache transfer from
    /// another node instead of a disk re-read.
    pub direct_transfers: u64,
    /// Total simulated delay of the transfer message round trips (ms; the
    /// memory-copy CPU bursts are charged to the CPUs, not counted here).
    pub transfer_delay_ms: f64,
    /// Misses the direct-transfer path could not serve (no other node held
    /// a current copy) and that fell back to a disk re-read.
    pub transfer_fallback_reads: u64,
}

impl CoherenceReport {
    /// An all-zero accumulator.
    pub fn empty() -> Self {
        Self {
            stale_validations: 0,
            validation_delay_ms: 0.0,
            direct_transfers: 0,
            transfer_delay_ms: 0.0,
            transfer_fallback_reads: 0,
        }
    }
}

/// Wall-clock throughput of the simulation kernel over one run, as measured
/// by [`Simulation::run_profiled`].  Not part of [`SimulationReport`] (the
/// report describes the *simulated* system and stays byte-identical across
/// kernel optimizations); profiles feed the `BENCH_kernel.json` perf
/// trajectory instead.
///
/// [`Simulation::run_profiled`]: crate::Simulation::run_profiled
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Events popped from the future event list.
    pub events: u64,
    /// Wall-clock duration of the run (ms).
    pub wall_ms: f64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Committed update transactions that ran the commit-time coherence
    /// fan-out (holder invalidations, or holder-mask updates under
    /// on-request validation; 0 on single-node and shared-nothing runs,
    /// which have no fan-out).
    pub fanout_commits: u64,
    /// Wall-clock nanoseconds spent in the commit-time coherence fan-out,
    /// summed over all commits.
    pub fanout_ns: u64,
}

impl KernelProfile {
    /// Builds a profile from an event count and a measured wall-clock time.
    pub fn new(events: u64, wall_ms: f64) -> Self {
        Self {
            events,
            wall_ms,
            events_per_sec: events as f64 / (wall_ms / 1e3).max(1e-9),
            fanout_commits: 0,
            fanout_ns: 0,
        }
    }

    /// Attaches the commit-time coherence fan-out timing.
    pub fn with_commit_fanout(mut self, commits: u64, ns: u64) -> Self {
        self.fanout_commits = commits;
        self.fanout_ns = ns;
        self
    }

    /// Average wall-clock microseconds per commit fan-out operation (0 when
    /// no commit ran a fan-out).
    pub fn fanout_us_per_commit(&self) -> f64 {
        if self.fanout_commits == 0 {
            0.0
        } else {
            self.fanout_ns as f64 / 1e3 / self.fanout_commits as f64
        }
    }
}

/// Per-transaction-type response-time summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxTypeReport {
    /// Transaction type id.
    pub tx_type: usize,
    /// Transactions of this type measured.
    pub count: u64,
    /// Mean response time (ms).
    pub mean_response: f64,
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Configured arrival rate (TPS).
    pub arrival_rate_tps: f64,
    /// Transactions completed during the measurement interval.
    pub completed: u64,
    /// Transactions aborted (and restarted) due to deadlocks during the
    /// measurement interval.
    pub aborts: u64,
    /// Group-commit batches flushed during the measurement interval (0 when
    /// group commit is disabled).
    pub log_group_writes: u64,
    /// Length of the measurement interval (ms).
    pub measured_time_ms: SimTime,
    /// Achieved throughput (transactions per second).
    pub throughput_tps: f64,
    /// Response-time summary over all transaction types.
    pub response_time: ResponseTimeStats,
    /// Response-time summary per transaction type.
    pub per_type: Vec<TxTypeReport>,
    /// Average CPU utilization (0..=1).
    pub cpu_utilization: f64,
    /// NVEM page-move time over the measurement interval, capped at 1; 0
    /// when NVEM is unused.
    pub nvem_utilization: f64,
    /// Time-average number of active (admitted) transactions.
    pub avg_active_transactions: f64,
    /// Time-average number of transactions waiting in the input queue (MPL
    /// exceeded).
    pub avg_input_queue: f64,
    /// Buffer-manager statistics aggregated over all nodes (hit ratios,
    /// evictions, migrations, invalidations).
    pub buffer: BufferStats,
    /// Statistics of the (global) lock table (conflicts, deadlocks).
    pub locks: LockManagerStats,
    /// Global-lock-service statistics (local/remote request split, messages).
    pub global_locks: GlobalLockStats,
    /// Recovery/checkpointing statistics; `None` when the recovery subsystem
    /// was inactive (checkpointing disabled and no crash simulated).
    pub recovery: Option<RecoveryReport>,
    /// Coherence-protocol statistics; `Some` exactly when a non-default
    /// protocol/transfer combination ran.
    pub coherence: Option<CoherenceReport>,
    /// Function-shipping statistics; `Some` exactly for shared-nothing runs.
    pub shipping: Option<ShippingReport>,
    /// Per-storage-device reports (one per configured [`storage::DiskUnitParams`]).
    pub devices: Vec<DeviceReport>,
    /// Per-node breakdown (one entry per computing module; a single-node run
    /// has one entry mirroring the aggregate fields).
    pub nodes: Vec<NodeReport>,
}

impl SimulationReport {
    /// Global main-memory hit ratio (convenience accessor).
    pub fn mm_hit_ratio(&self) -> f64 {
        self.buffer.mm_hit_ratio()
    }

    /// Global second-level (NVEM) hit ratio.
    pub fn nvem_hit_ratio(&self) -> f64 {
        self.buffer.nvem_hit_ratio()
    }

    /// Read hit ratio of storage device `unit`.
    pub fn disk_cache_hit_ratio(&self, unit: usize) -> f64 {
        self.devices
            .get(unit)
            .map(|u| u.stats.read_hit_ratio())
            .unwrap_or(0.0)
    }

    /// Total lock requests sent to the global lock service from remote nodes
    /// (0 in a single-node run).
    pub fn remote_lock_requests(&self) -> u64 {
        self.global_locks.remote_requests
    }

    /// Total buffered copies invalidated by other nodes' commits (0 in a
    /// single-node run).
    pub fn invalidations(&self) -> u64 {
        self.buffer.invalidations
    }

    /// Fraction of object references function-shipped to a remote owner
    /// (0 for data-sharing runs, which never ship).
    pub fn remote_access_fraction(&self) -> f64 {
        self.shipping
            .as_ref()
            .map(|s| s.remote_access_fraction())
            .unwrap_or(0.0)
    }

    /// Simulated restart time after a crash (0 when no crash was simulated).
    pub fn restart_ms(&self) -> f64 {
        self.recovery
            .as_ref()
            .and_then(|r| r.restart.as_ref())
            .map(|r| r.restart_ms)
            .unwrap_or(0.0)
    }

    /// Lock conflict probability per lock request.
    pub fn lock_conflict_ratio(&self) -> f64 {
        if self.locks.requests == 0 {
            0.0
        } else {
            self.locks.conflicts as f64 / self.locks.requests as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_report() -> SimulationReport {
        SimulationReport {
            arrival_rate_tps: 100.0,
            completed: 500,
            aborts: 2,
            log_group_writes: 0,
            measured_time_ms: 5000.0,
            throughput_tps: 100.0,
            response_time: ResponseTimeStats {
                count: 500,
                mean: 25.0,
                std_dev: 5.0,
                min: 10.0,
                max: 80.0,
                p50: 24.0,
                p95: 40.0,
                p99: 60.0,
                p999: 78.0,
                rank_error_bound: 0,
            },
            per_type: vec![TxTypeReport {
                tx_type: 0,
                count: 500,
                mean_response: 25.0,
            }],
            cpu_utilization: 0.6,
            nvem_utilization: 0.01,
            avg_active_transactions: 3.0,
            avg_input_queue: 0.0,
            buffer: {
                let mut b = BufferStats::new(1);
                b.per_partition[0].references = 100;
                b.per_partition[0].mm_hits = 70;
                b.per_partition[0].nvem_hits = 10;
                b
            },
            locks: LockManagerStats {
                requests: 200,
                immediate_grants: 190,
                conflicts: 10,
                deadlocks: 2,
                releases: 198,
            },
            global_locks: GlobalLockStats::default(),
            recovery: None,
            coherence: None,
            shipping: None,
            nodes: Vec::new(),
            devices: vec![DeviceReport {
                name: "db".into(),
                disk_utilization: 0.4,
                controller_utilization: 0.1,
                avg_disk_wait: 1.0,
                stats: DiskUnitStats {
                    reads: 100,
                    read_hits: 25,
                    ..Default::default()
                },
                scheduler: None,
            }],
        }
    }

    #[test]
    fn convenience_accessors() {
        let r = dummy_report();
        assert!((r.mm_hit_ratio() - 0.7).abs() < 1e-12);
        assert!((r.nvem_hit_ratio() - 0.1).abs() < 1e-12);
        assert!((r.disk_cache_hit_ratio(0) - 0.25).abs() < 1e-12);
        assert_eq!(r.disk_cache_hit_ratio(5), 0.0);
        assert!((r.lock_conflict_ratio() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn remote_access_fraction_reads_the_shipping_section() {
        let mut r = dummy_report();
        assert_eq!(r.remote_access_fraction(), 0.0);
        let mut shipping = ShippingReport::empty(2);
        shipping.local_refs = 30;
        shipping.remote_calls = 10;
        r.shipping = Some(shipping);
        assert!((r.remote_access_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn kernel_profile_tracks_commit_fanout() {
        let p = KernelProfile::new(1_000, 2.0);
        assert_eq!(p.fanout_commits, 0);
        assert_eq!(p.fanout_us_per_commit(), 0.0);
        let p = p.with_commit_fanout(500, 1_000_000);
        assert_eq!(p.fanout_commits, 500);
        assert_eq!(p.fanout_ns, 1_000_000);
        assert!((p.fanout_us_per_commit() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_shipping_report_has_no_remote_fraction() {
        let s = ShippingReport::empty(3);
        assert_eq!(s.per_node_remote_calls, vec![0, 0, 0]);
        assert_eq!(s.remote_access_fraction(), 0.0);
    }

    #[test]
    fn empty_response_time_stats() {
        let e = ResponseTimeStats::empty();
        assert_eq!(e.count, 0);
        assert_eq!(e.mean, 0.0);
    }

    #[test]
    fn restart_ms_defaults_to_zero_and_reads_the_restart_report() {
        let mut r = dummy_report();
        assert_eq!(r.restart_ms(), 0.0);
        r.recovery = Some(RecoveryReport {
            checkpoints_taken: 2,
            checkpoint_overhead_ms: 3.0,
            redo_log_records: 100,
            log_records_truncated: 40,
            records_per_log_page: 8,
            restart: None,
        });
        assert_eq!(r.restart_ms(), 0.0);
        r.recovery.as_mut().unwrap().restart = Some(RestartReport {
            crash_time_ms: 5_000.0,
            restart_ms: 123.0,
            redo_records: 60,
            log_pages_read: 9,
            data_pages_read: 20,
            dirty_pages_at_crash: 20,
            locks_released_at_crash: 4,
            locks_reacquired: 20,
        });
        assert_eq!(r.restart_ms(), 123.0);
    }
}
