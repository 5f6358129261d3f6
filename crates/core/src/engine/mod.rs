//! The TPSIM discrete-event engine.
//!
//! Ties the SOURCE (workload generator), the computing modules (transaction
//! manager, CPUs, lock manager, buffer manager) and the external devices
//! together and runs the open queuing model: Poisson arrivals, MPL admission
//! control, transaction execution with CPU bursts, lock requests, buffer
//! fetches and I/O, commit processing with logging, (optionally) FORCE writes
//! and (optionally) group commit.
//!
//! **Data sharing**: with `config.nodes.num_nodes > 1` several computing
//! modules run in front of the *shared* storage complex.  Each node has its
//! own CPU servers, local buffer pool and input queue; arriving transactions
//! are assigned round robin.  All nodes contend for the same storage devices
//! and NVEM, synchronize through one global lock service (hosted on node 0;
//! remote lock requests pay a message round trip) and invalidate each other's
//! stale buffer copies at commit.  A single-node run is exactly the paper's
//! centralized system.
//!
//! **Shared nothing**: with `config.architecture ==`
//! [`Architecture::SharedNothing`](crate::config::Architecture) the database
//! is instead *partitioned* over the nodes ([`dbmodel::PartitionMap`]).
//! An object reference whose page is owned by another node is
//! function-shipped: a `MicroOp::RemoteCall` carries execution to the owner
//! (one-way message, `Ev::MsgDone` delivers it), the reference's CPU
//! burst — plus a remote-handling surcharge — runs on the *owner's* CPUs,
//! the lock is taken without any message (locking is purely node-local; the
//! global lock service runs in its local-only mode), the page is fetched
//! through the *owner's* buffer pool, and a second `RemoteCall` ships the
//! reply home.  Because a page is only ever cached at its owner there is no
//! coherence traffic: commits skip the cross-node invalidation entirely and
//! instead run a two-phase message exchange (`MicroOp::CommitExchange`) with
//! the remote owners of the written pages.
//!
//! **Hot path**: the future event list ([`simkernel::EventQueue`]) keeps
//! the soonest events in a short sorted `Vec` of 16-byte entries, sized to
//! the few dozen events the engine keeps pending: an event (`Ev`) is 8
//! bytes, a variant tag and a `u32` slot, I/O id or batch number, and the
//! `const` assert below `Ev` pins that.  The per-event state lives in two
//! arenas of one generic slab (the private `arena` module): the in-flight
//! I/O requests, and one record per transaction in the system from arrival
//! to commit.  Both reuse released slots with their buffers, so event
//! dispatch and I/O completion index plain `Vec`s.  The lock manager's
//! transaction id carries the record's slot below the admission number, so
//! a woken id leads back to its record without a map.  The maps that remain
//! (the coherence index `holders`, and the lock, buffer and cache tables
//! below the engine) are keyed by simulator ids and hash with the fixed
//! [`simkernel::IdMap`] hasher instead of SipHash.  The per-transaction
//! path allocates nothing once its pools have reached their working size:
//! the workload generator writes each arrival into a released record's
//! reused buffers, device decisions and buffer-manager page operations
//! arrive inline, micro operations are expanded in one reused scratch
//! buffer (`micro_scratch`), the transactions a lock release wakes are
//! copied into another (`woken_scratch`), an I/O request copies its stages
//! inline, and completed I/O requests (with their waiter lists), lock-table
//! entries and held-lock lists are recycled.  A coalescing unit lists its
//! in-flight reads as `(page, io id)` pairs in a short `Vec` that a read
//! scans for its page.  On the simulator benchmark a committed transaction
//! costs 0.009, 0.009 and 0.007 heap allocations on `ds16-nvemlog`,
//! `sn8-skew-burst` and `dc1-nvemcache-force`, all of it pools growing to
//! their working size.  `tests/hot_path_allocations.rs` bounds the steady
//! state at 0.05.
//!
//! The engine is split into focused subsystems (see `docs/ARCHITECTURE.md`
//! for the full map and an event-lifecycle walkthrough); this module only
//! defines the shared state and dispatches events:
//!
//! * `source` — transaction arrivals, node assignment and per-node MPL
//!   admission control,
//! * `exec` — the per-transaction micro-operation state machine (object
//!   references, locks, buffer fetches),
//! * `cpu` — CPU burst scheduling on the owning node's CPU servers,
//! * `io_path` — the I/O request lifecycle against the pluggable
//!   [`StorageDevice`] models,
//! * `commit` — commit processing: logging, FORCE/NOFORCE, group commit,
//!   cross-node buffer invalidation,
//! * `recover` — the opt-in crash-recovery subsystem: redo-record
//!   bookkeeping at commit, fuzzy checkpoints and the simulated
//!   crash-and-restart pass (see [`crate::recovery`]),
//! * `collect` — statistics collection and the final report (aggregate and
//!   per node).

mod arena;
mod coherence;
mod collect;
mod commit;
mod cpu;
mod exec;
mod io_path;
mod iorequest;
mod recover;
mod source;
mod transaction;

#[cfg(test)]
mod tests;

use std::collections::VecDeque;
use std::time::Instant;

use bufmgr::BufferManager;
use dbmodel::{PageId, PartitionMap, PartitionScheme, WorkloadGenerator};
use lockmgr::GlobalLockService;
use simkernel::dist::PiecewiseRate;
use simkernel::sketch::QuantileSketch;
use simkernel::stats::{Tally, TimeWeighted};
use simkernel::time::{interarrival_ms, SimTime};
use simkernel::{EventQueue, IdMap, Resource, SimRng};
use storage::StorageDevice;

use crate::config::{Architecture, SimulationConfig};
use crate::metrics::{CoherenceReport, KernelProfile, ShippingReport, SimulationReport};
use crate::recovery::RecoveryRuntime;

use arena::{IoArena, TxArena};
use transaction::MicroOp;

/// Events of the simulation: 8 bytes, so a near entry of the event list
/// fills 16.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A new transaction arrives at the SOURCE.
    Arrival,
    /// The CPU burst of the transaction in the given slot finished.
    CpuDone(u32),
    /// The current service stage of the given I/O request finished.
    IoStage(u32),
    /// A message the transaction in the given slot waited for arrived: a
    /// data-sharing round trip (remote lock request, validation, page
    /// transfer) finished, or, under shared nothing, a function-shipping
    /// message was delivered (execution resumes at the node its `RemoteCall`
    /// shipped to) or a commit prepare round trip completed.
    MsgDone(u32),
    /// Flush the open group-commit batch with the given sequence number if it
    /// is still open (timeout path).
    GroupCommitFlush(u32),
    /// Take a fuzzy checkpoint (only scheduled when
    /// `config.checkpoint_interval_ms > 0`).
    Checkpoint,
    /// The simulated crash point: stop the run and enter restart processing
    /// (only scheduled via [`Simulation::simulate_crash_at`]).
    Crash,
    /// End of the warm-up interval: reset all statistics.
    EndWarmup,
    /// End of the measurement interval: stop the simulation.
    EndRun,
}

const _: () = assert!(std::mem::size_of::<Ev>() == 8);

/// The event payload naming arena slot `slot` (a transaction's or an I/O
/// request's).  Slots index what is live at once, so they fit a `u32` by
/// far; this is the one place that checks it.
#[inline]
fn slot_payload(slot: usize) -> u32 {
    u32::try_from(slot).expect("arena slot exceeds an event payload")
}

/// Control-flow result of executing one micro operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Keep executing the transaction's micro operations.
    Continue,
    /// The transaction is blocked (CPU queue, lock wait, I/O wait).
    Blocked,
    /// The transaction finished and its slot was released.
    Finished,
}

/// Runtime state of one storage device: the pluggable policy model plus the
/// queued resources for its controllers and disk servers.  Devices are shared
/// by all nodes.
struct UnitRuntime {
    device: Box<dyn StorageDevice>,
    controllers: Resource,
    disks: Resource,
    /// Same-page read coalescing; `Some` exactly when the configuration
    /// enables it.  `None` leaves every read an I/O of its own.
    coalescing: Option<ReadCoalescing>,
}

/// The blocking reads in flight at a unit with coalescing on, and how many
/// reads joined one of them instead of starting their own.
#[derive(Default)]
struct ReadCoalescing {
    /// `(page, io id)` of every blocking read in flight at the unit.  A page
    /// is listed at most once: a read of a listed page joins that request.
    in_flight: Vec<(PageId, usize)>,
    /// Reads that joined an in-flight read since the warm-up reset.
    coalesced: u64,
}

/// Runtime state of one computing module (node): its CPU servers, local
/// buffer pool, input queue and per-node statistics.  A single-node run has
/// exactly one of these and behaves bit-identically to the pre-data-sharing
/// engine.  The input queue holds the slots of the waiting transactions'
/// records.
struct NodeRuntime {
    cpus: Resource,
    bufmgr: BufferManager,
    input_queue: VecDeque<usize>,
    active_count: usize,

    // Per-node statistics.
    completed: u64,
    aborts: u64,
    remote_lock_requests: u64,
    response: Tally,
    active_tw: TimeWeighted,
    inputq_tw: TimeWeighted,
}

impl NodeRuntime {
    fn new(node: usize, config: &SimulationConfig) -> Self {
        Self {
            cpus: Resource::new(format!("node{node}-cpus"), config.cm.num_cpus),
            bufmgr: BufferManager::new(config.buffer.clone()),
            input_queue: VecDeque::new(),
            active_count: 0,
            completed: 0,
            aborts: 0,
            remote_lock_requests: 0,
            response: Tally::new(),
            active_tw: TimeWeighted::new(),
            inputq_tw: TimeWeighted::new(),
        }
    }
}

/// A complete TPSIM simulation run.
///
/// Construct with [`Simulation::new`], execute with [`Simulation::run`] (or
/// [`Simulation::run_profiled`] to also measure the kernel's wall-clock
/// event throughput).
pub struct Simulation<W: WorkloadGenerator> {
    config: SimulationConfig,
    workload: W,

    // Random streams.
    arrival_rng: SimRng,
    service_rng: SimRng,
    workload_rng: SimRng,

    /// Compiled arrival-rate schedule (`None` for the constant schedule,
    /// which keeps the original homogeneous draw path bit-for-bit).
    arrival_schedule: Option<PiecewiseRate>,

    // Kernel state.
    queue: EventQueue<Ev>,
    nodes: Vec<NodeRuntime>,
    units: Vec<UnitRuntime>,
    lockmgr: GlobalLockService,

    // Shared nothing: the page → owning-node map (`Some` exactly when
    // `config.architecture == Architecture::SharedNothing`) and the
    // function-shipping statistics accumulated since the warm-up reset.
    partition_map: Option<PartitionMap>,
    shipping: ShippingReport,

    // Cross-node buffer coherence (multi-node data sharing only; see the
    // `coherence` submodule).  `holders` maps each page some pool holds to
    // the bitmask of the nodes whose pool holds a buffered copy: a bit is
    // set at fetch time and cleared when the pool evicts the page or an
    // invalidation empties it, and a page nobody holds has no entry.
    // Commit invalidation therefore touches only actual holders instead of
    // broadcasting to every node, and the map stays as small as the pools.
    // An on-request-validation commit instead clears the other nodes' bits
    // and leaves their copies buffered, so under that protocol a bit marks
    // a *current* copy and a held copy without one is stale.
    // `coherence_stats` accumulates the report section since the warm-up
    // reset; the fan-out counters feed the kernel profile (whole-run
    // wall-clock accounting, never reset).
    holders: IdMap<PageId, u64>,
    coherence_stats: CoherenceReport,
    fanout_commits: u64,
    fanout_ns: u64,

    // Transactions: one record each, claimed at arrival and released at
    // commit, and the admission count whose next value numbers the next
    // admitted transaction's lock-manager id (`transaction::tx_id`).
    txs: TxArena,
    next_admission: u64,
    ready: VecDeque<usize>,
    /// Scratch buffer the page operations of one buffer reference or commit
    /// force are expanded into before they join the transaction's queue.
    micro_scratch: Vec<MicroOp>,
    /// Scratch copy of the transactions a lock release woke (the lock
    /// manager's answer borrows it, and resuming them calls back into the
    /// engine).
    woken_scratch: Vec<u64>,
    /// Round-robin assignment cursor of the SOURCE (always 0 with one node;
    /// consumes no randomness, so a single-node run draws the exact same
    /// streams as the pre-data-sharing engine).
    next_arrival_node: usize,
    /// Running sum of the per-node `active_count`s (kept incrementally so the
    /// per-event aggregate statistics never scan the node list).
    total_active: usize,
    /// Running sum of the per-node input-queue lengths.
    total_queued: usize,

    // In-flight I/O requests (stable slot ids; see `arena::IoArena`).
    ios: IoArena,

    // Log bookkeeping (the log device is shared by all nodes).
    next_log_page: u64,
    log_wb_pending: usize,

    // Group commit: slots waiting in the currently open batch, the log
    // device the batch will be written to, and the batch's sequence number
    // (stale flush timeouts are ignored).  The slots waiting on an in-flight
    // group log write are parked on the write's `IoRequest` itself.
    commit_group: Vec<usize>,
    commit_group_unit: usize,
    commit_group_seq: u32,

    // Run control.
    end_time: SimTime,
    warmup_done: bool,
    measure_start: SimTime,
    stop_arrivals: bool,

    // Crash recovery (see `crate::recovery` and the `recover` submodule).
    // `recovery` is `Some` while the subsystem tracks redo state: with
    // checkpointing enabled and/or a crash requested.  When `None`, no redo
    // bookkeeping of any kind happens and the run is identical to an engine
    // without the subsystem.
    recovery: Option<RecoveryRuntime>,
    crash_at: Option<SimTime>,
    crashed: bool,

    // Aggregate statistics (sums over all nodes, kept incrementally so the
    // single-node report is identical to the per-node one).
    response: Tally,
    /// Run-wide response-time sketch for the report's percentiles: one
    /// sketch fed at every measured completion, constant memory however
    /// long the run.
    response_sketch: QuantileSketch,
    /// Per-transaction-type response tallies, sorted by `tx_type`.  A sorted
    /// small vec (binary-search lookup) instead of a `HashMap`: the distinct
    /// type count is tiny, and unlike direct indexing it stays bounded for
    /// workload generators with sparse large type ids.
    per_type: Vec<(usize, Tally)>,
    completed: u64,
    aborts: u64,
    log_group_writes: u64,
    nvem_busy: SimTime,
    active_tw: TimeWeighted,
    inputq_tw: TimeWeighted,
}

impl<W: WorkloadGenerator> Simulation<W> {
    /// Creates a simulation from a validated configuration and a workload
    /// generator.
    ///
    /// # Panics
    /// Panics if the configuration fails [`SimulationConfig::validate`].
    pub fn new(config: SimulationConfig, workload: W) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid simulation configuration: {msg}");
        }
        let mut workload = workload;
        // Only active parameters touch the generator: inactive defaults keep
        // every draw sequence — and therefore every report — byte-identical.
        if config.workload.hot_spot.is_active() {
            workload.apply_hot_spot(config.workload.hot_spot);
        }
        let arrival_schedule = config
            .workload
            .schedule
            .to_piecewise(config.arrival_rate_tps);
        let mut seed_rng = SimRng::seed_from(config.seed);
        let arrival_rng = seed_rng.derive(1);
        let service_rng = seed_rng.derive(2);
        let workload_rng = seed_rng.derive(3);

        let units = config
            .devices
            .iter()
            .enumerate()
            .map(|(i, spec)| UnitRuntime {
                device: spec.build(format!("unit-{i}")),
                controllers: Resource::new(format!("unit-{i}-controllers"), spec.num_controllers),
                disks: Resource::new(format!("unit-{i}-disks"), spec.num_disks),
                coalescing: config.io_scheduler.enabled().then(ReadCoalescing::default),
            })
            .collect();
        let nodes = (0..config.nodes.num_nodes)
            .map(|n| NodeRuntime::new(n, &config))
            .collect();
        let remote_delay = if config.nodes.num_nodes > 1 {
            config.nodes.remote_lock_delay_ms
        } else {
            0.0
        };
        // Shared nothing: locking is purely node-local (a node only ever
        // locks the partitions it owns), so the lock service runs in its
        // local-only mode — no home node, no message round trips.
        let lockmgr = if config.architecture == Architecture::SharedNothing {
            GlobalLockService::node_local(config.cc_modes.clone())
        } else {
            GlobalLockService::new(config.cc_modes.clone(), 0, remote_delay)
        };
        let partition_map = (config.architecture == Architecture::SharedNothing).then(|| {
            let nodes = config.nodes.num_nodes;
            let ppn = config.partitioning.partitions_per_node;
            match config.partitioning.scheme {
                PartitionScheme::Hash => PartitionMap::hash(nodes, ppn),
                PartitionScheme::Range => {
                    let total_pages = workload.total_pages();
                    assert!(
                        total_pages > 0,
                        "range partitioning needs a workload generator that reports its \
                         database size (WorkloadGenerator::total_pages)"
                    );
                    PartitionMap::range(nodes, ppn, total_pages)
                }
            }
        });
        let shipping = ShippingReport::empty(config.nodes.num_nodes);
        let end_time = config.total_time_ms();
        let recovery = (config.checkpoint_interval_ms > 0.0)
            .then(|| RecoveryRuntime::new(config.cm.log_record_bytes));

        Self {
            workload,
            arrival_rng,
            service_rng,
            workload_rng,
            arrival_schedule,
            queue: EventQueue::new(),
            nodes,
            units,
            lockmgr,
            partition_map,
            shipping,
            holders: IdMap::default(),
            coherence_stats: CoherenceReport::empty(),
            fanout_commits: 0,
            fanout_ns: 0,
            txs: TxArena::default(),
            next_admission: 1,
            ready: VecDeque::new(),
            micro_scratch: Vec::new(),
            woken_scratch: Vec::new(),
            next_arrival_node: 0,
            total_active: 0,
            total_queued: 0,
            ios: IoArena::default(),
            next_log_page: u64::MAX,
            log_wb_pending: 0,
            commit_group: Vec::new(),
            commit_group_unit: 0,
            commit_group_seq: 0,
            end_time,
            warmup_done: false,
            measure_start: config.warmup_ms,
            stop_arrivals: false,
            recovery,
            crash_at: None,
            crashed: false,
            response: Tally::new(),
            response_sketch: QuantileSketch::default(),
            per_type: Vec::new(),
            completed: 0,
            aborts: 0,
            log_group_writes: 0,
            nvem_busy: 0.0,
            active_tw: TimeWeighted::new(),
            inputq_tw: TimeWeighted::new(),
            config,
        }
    }

    /// Requests a simulated crash at `at_ms` (absolute simulated time): the
    /// run stops there, all volatile state (buffers, in-flight transactions,
    /// locks) is lost, and a redo pass replays the committed updates since
    /// the last checkpoint from the log, paying the configured devices' read
    /// latencies.  The result appears as
    /// [`crate::metrics::RestartReport`] in the report's `recovery` section.
    ///
    /// Enables redo bookkeeping even when checkpointing is disabled
    /// (`checkpoint_interval_ms == 0`); redo then starts at the log's
    /// beginning.
    ///
    /// # Panics
    /// Panics if the crash point is not strictly inside the measurement
    /// interval, or if the run is not one node under the data-sharing
    /// architecture (the rule [`SimulationConfig::validate`] applies to
    /// `checkpoint_interval_ms`).
    pub fn simulate_crash_at(mut self, at_ms: SimTime) -> Self {
        assert!(
            at_ms > self.config.warmup_ms && at_ms < self.end_time,
            "crash point {at_ms} ms must lie strictly inside the measurement interval \
             ({} ms .. {} ms)",
            self.config.warmup_ms,
            self.end_time
        );
        assert!(
            self.config.recovery_supported(),
            "crash recovery is only modelled for one node of the data-sharing architecture"
        );
        if self.recovery.is_none() {
            self.recovery = Some(RecoveryRuntime::new(self.config.cm.log_record_bytes));
        }
        self.crash_at = Some(at_ms);
        self
    }

    /// Number of computing modules in the configuration.
    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Runs the simulation to completion and produces the report.
    pub fn run(self) -> SimulationReport {
        self.run_profiled().0
    }

    /// Runs the simulation to completion, also measuring the kernel's
    /// wall-clock event throughput (events popped, wall-clock ms,
    /// events/sec).  The report is identical to [`Simulation::run`]'s.
    pub fn run_profiled(mut self) -> (SimulationReport, KernelProfile) {
        // analyzer: allow(wall-clock): feeds KernelProfile only, never the report
        let wall_start = Instant::now();
        self.active_tw.record(0.0, 0.0);
        self.inputq_tw.record(0.0, 0.0);
        for node in &mut self.nodes {
            node.active_tw.record(0.0, 0.0);
            node.inputq_tw.record(0.0, 0.0);
        }
        self.seed_initial_events();
        self.run_event_loop();
        let events = self.queue.popped_total();
        let (fanout_commits, fanout_ns) = (self.fanout_commits, self.fanout_ns);
        // Read the report at the crash instant: the restart pass then drives
        // the device models and the lock service, and its reads and lock
        // re-acquisitions belong to the restart section alone.
        let mut report = self.build_report();
        if self.crashed {
            let restart = self.perform_restart();
            report
                .recovery
                .as_mut()
                .expect("a crash runs with recovery state")
                .restart = Some(restart);
        }
        let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
        let profile =
            KernelProfile::new(events, wall_ms).with_commit_fanout(fanout_commits, fanout_ns);
        (report, profile)
    }

    /// Schedules the run-control events that exist before the first pop:
    /// the first arrival, the warm-up and run boundaries, and the optional
    /// checkpoint/crash points.
    fn seed_initial_events(&mut self) {
        let first = self.next_arrival_gap(0.0);
        self.queue
            .schedule_at(first.min(self.end_time), Ev::Arrival);
        self.queue.schedule_at(self.config.warmup_ms, Ev::EndWarmup);
        self.queue.schedule_at(self.end_time, Ev::EndRun);
        self.seed_control_events();
    }

    /// Time until the next arrival after `now`.  The constant schedule keeps
    /// the original homogeneous exponential draw (bit-for-bit); time-varying
    /// schedules drive a non-homogeneous Poisson process by inversion of the
    /// piecewise rate integral with a unit exponential.
    pub(super) fn next_arrival_gap(&mut self, now: SimTime) -> SimTime {
        match &self.arrival_schedule {
            None => self
                .arrival_rng
                .exponential(interarrival_ms(self.config.arrival_rate_tps)),
            Some(schedule) => {
                let e = self.arrival_rng.exponential(1.0);
                schedule.next_arrival_after(now, e) - now
            }
        }
    }

    /// The non-arrival control events of `seed_initial_events`.
    fn seed_control_events(&mut self) {
        let checkpoint_interval = self.config.checkpoint_interval_ms;
        if self.recovery.is_some() && checkpoint_interval > 0.0 {
            self.queue.schedule_at(checkpoint_interval, Ev::Checkpoint);
        }
        if let Some(crash_at) = self.crash_at {
            self.queue.schedule_at(crash_at, Ev::Crash);
        }
    }

    /// The main event loop: pops events in global `(time, seq)` order and
    /// dispatches their handlers, until the run boundary (or crash point)
    /// is popped.
    fn run_event_loop(&mut self) {
        while let Some(event) = self.queue.pop() {
            match event.payload {
                Ev::EndRun => break,
                Ev::Crash => {
                    self.crashed = true;
                    break;
                }
                Ev::EndWarmup => self.end_warmup(),
                Ev::Arrival => self.handle_arrival(),
                Ev::CpuDone(slot) => self.handle_cpu_done(slot as usize),
                Ev::IoStage(io_id) => self.handle_io_stage(io_id as usize),
                Ev::MsgDone(slot) => self.handle_msg_done(slot as usize),
                Ev::GroupCommitFlush(seq) => self.handle_group_commit_flush(seq),
                Ev::Checkpoint => self.handle_checkpoint(),
            }
            self.process_ready();
        }
    }
}
