//! Layer replay: feeds a workload's own generated transactions through the
//! public entry points of `lockmgr`, `bufmgr`, `storage` and `simkernel`,
//! following the engine's protocol, and times the calls from outside.
//!
//! The engine is generic over its workload generator only, so these layers
//! cannot be timed on the engine's real calls without spans inside the
//! program.  The replay instead reproduces the calls the engine makes for
//! the same transactions:
//!
//! * references go to the transaction's home node's pool under data
//!   sharing and to the page owner's pool (`PartitionMap`) under shared
//!   nothing, with the lock requested from the same node;
//! * update transactions write a log page when the log lives on a device,
//!   call `force_page` for every written page under FORCE, complete every
//!   `UnitWriteAsync`, and invalidate the other holders' copies at a
//!   data-sharing commit;
//! * every device operation the buffer manager asks for becomes a
//!   `StorageDevice::request` on the configured device.
//!
//! The replay runs exactly the engine's transaction stream: the same
//! templates in the same order, with the warm-up arrivals untimed.  The
//! engine overlaps transactions: while one commits, about as many others as
//! the run's average active count have already made their references.  The
//! replay keeps that many transactions in flight, so commit-time work (lock
//! release, FORCE, invalidation) lags the references by the same distance.
//!
//! Because a replay that drifts from the engine measures the wrong work,
//! [`Replay::fidelity`] compares its hit ratios and per-transaction call
//! counts with the report of the real run.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use bufmgr::{BufferManager, BufferStats, PageOp, UpdateStrategy};
use dbmodel::{PageId, PartitionMap, PartitionScheme, TransactionTemplate, WorkloadGenerator};
use lockmgr::{GlobalLockService, LockOutcome};
use simkernel::time::interarrival_ms;
use simkernel::{EventQueue, QuantileSketch, SimRng};
use storage::{IoKind, StorageDevice};
use tpsim::{Architecture, LogAllocation, SimulationConfig, SimulationReport};

use crate::workloads::Workload;

/// Per-layer call counts and wall time of one replay.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Transactions in the timed part of the replay.
    pub txs: u64,
    /// Lock requests the table counted (references to locked partitions).
    pub lock_requests: u64,
    /// Of those, requests from a node other than the lock service's home.
    pub lock_remote_requests: u64,
    /// Wall time of every `acquire`, `abort` and `release_all` call (ns).
    pub lock_ns: f64,
    /// Buffer-manager calls: `reference_page`, `force_page`,
    /// `async_write_complete` and `invalidate_page`.
    pub buf_calls: u64,
    /// Wall time of those calls (ns).
    pub buf_ns: f64,
    /// Buffer statistics summed over the pools.
    pub buf_stats: BufferStats,
    /// Read requests to the devices.
    pub dev_reads: u64,
    /// Write requests to the devices.
    pub dev_writes: u64,
    /// Wall time of every `StorageDevice` call (ns).
    pub dev_ns: f64,
}

/// One replay-versus-report comparison.
#[derive(Debug, Clone)]
pub struct Agreement {
    /// The layer whose replay cost the comparison vouches for.
    pub layer: &'static str,
    /// What is compared.
    pub what: &'static str,
    /// The replay's value.
    pub replay: f64,
    /// The report's value.
    pub report: f64,
    /// Whether they agree within the comparison's tolerance.
    pub ok: bool,
}

/// Largest absolute difference of two hit ratios that still agree.  The
/// replay's fixed commit lag approximates the engine's timing, which moves
/// hit ratios by up to about 0.025 on the data-sharing workload; a protocol
/// mistake such as routing shared-nothing references by home node moves
/// them by 0.5.
const RATIO_TOLERANCE: f64 = 0.03;
/// Largest relative difference of two per-transaction counts that agree
/// (the commit lag moves forced pages and invalidations by up to about 7%).
const COUNT_TOLERANCE: f64 = 0.10;

impl Replay {
    /// Device requests (reads plus writes).
    pub fn dev_requests(&self) -> u64 {
        self.dev_reads + self.dev_writes
    }

    /// Per-transaction wall time of each layer (ns): lock manager, buffer
    /// manager, storage devices.
    pub fn ns_per_tx(&self) -> (f64, f64, f64) {
        let t = self.txs as f64;
        (self.lock_ns / t, self.buf_ns / t, self.dev_ns / t)
    }

    /// Compares the replay with the report of the real run.
    pub fn fidelity(&self, config: &SimulationConfig, r: &SimulationReport) -> Vec<Agreement> {
        let txs = self.txs as f64;
        let done = r.completed as f64;
        let count = |layer, what, replay: u64, report: u64| Agreement {
            layer,
            what,
            replay: replay as f64 / txs,
            report: report as f64 / done,
            ok: false,
        };
        let ratio = |layer, what, replay, report| Agreement {
            layer,
            what,
            replay,
            report,
            ok: (replay - report).abs() <= RATIO_TOLERANCE,
        };
        let (reads, writes) = device_reads_writes(r);
        let mut out = vec![
            count(
                "lockmgr",
                "lock requests per tx",
                self.lock_requests,
                r.locks.requests,
            ),
            count(
                "bufmgr",
                "buffer references per tx",
                self.buf_stats.references(),
                r.buffer.references(),
            ),
            ratio(
                "bufmgr",
                "main-memory hit ratio",
                self.buf_stats.mm_hit_ratio(),
                r.mm_hit_ratio(),
            ),
            count("storage", "device reads per tx", self.dev_reads, reads),
            count("storage", "device writes per tx", self.dev_writes, writes),
        ];
        if config.nodes.num_nodes > 1 && config.architecture == Architecture::DataSharing {
            out.push(count(
                "lockmgr",
                "remote lock requests per tx",
                self.lock_remote_requests,
                r.global_locks.remote_requests,
            ));
            out.push(count(
                "bufmgr",
                "invalidations per tx",
                self.buf_stats.invalidations,
                r.buffer.invalidations,
            ));
        }
        if config.buffer.update_strategy == UpdateStrategy::Force {
            out.push(count(
                "bufmgr",
                "forced pages per tx",
                self.buf_stats.forced_pages,
                r.buffer.forced_pages,
            ));
        }
        if config.buffer.nvem_cache_pages > 0 {
            out.push(ratio(
                "bufmgr",
                "NVEM-cache hit ratio",
                self.buf_stats.nvem_hit_ratio(),
                r.nvem_hit_ratio(),
            ));
        }
        for a in out.iter_mut().filter(|a| !a.what.contains("ratio")) {
            a.ok = (a.replay - a.report).abs() <= COUNT_TOLERANCE * a.report.abs().max(1e-9);
        }
        out
    }
}

/// Read and write requests the engine made to its devices.  Reads include
/// those the request scheduler coalesced onto an in-flight read (they never
/// reach the device model).
pub fn device_reads_writes(r: &SimulationReport) -> (u64, u64) {
    r.devices.iter().fold((0, 0), |(reads, writes), d| {
        (
            reads + d.stats.reads + d.scheduler.map_or(0, |s| s.coalesced),
            writes + d.stats.writes,
        )
    })
}

/// The transactions the engine generates for `config`, in arrival order,
/// and how many of them arrive during the warm-up.  Same generator (with
/// the hot spot applied when configured) and the same random streams as
/// `Simulation::new` derives them: arrivals from the first, templates from
/// the third.
fn engine_transactions(
    w: Workload,
    config: &SimulationConfig,
) -> (Vec<TransactionTemplate>, usize) {
    let mut seed_rng = SimRng::seed_from(config.seed);
    let mut arrival_rng = seed_rng.derive(1);
    let _service = seed_rng.derive(2);
    let mut template_rng = seed_rng.derive(3);
    let schedule = config
        .workload
        .schedule
        .to_piecewise(config.arrival_rate_tps);
    let mut next_gap = |now: f64| match &schedule {
        None => arrival_rng.exponential(interarrival_ms(config.arrival_rate_tps)),
        Some(s) => s.next_arrival_after(now, arrival_rng.exponential(1.0)) - now,
    };
    let (mut now, mut arrivals, mut warm) = (next_gap(0.0), 0usize, 0usize);
    while now < config.total_time_ms() {
        arrivals += 1;
        if now < config.warmup_ms {
            warm += 1;
        }
        now += next_gap(now);
    }
    let mut gen = w.generator();
    if config.workload.hot_spot.is_active() {
        gen.apply_hot_spot(config.workload.hot_spot);
    }
    let txs = (0..arrivals)
        .map(|_| {
            gen.next_transaction(&mut template_rng)
                .expect("the Debit-Credit generator never runs dry")
        })
        .collect();
    (txs, warm)
}

/// Mean cost of one `Instant::now()` call (ns), subtracted once from every
/// timed segment of the buffer-manager pass.
fn instant_overhead_ns() -> f64 {
    const CALLS: u32 = 200_000;
    let start = Instant::now();
    for _ in 0..CALLS {
        black_box(Instant::now());
    }
    start.elapsed().as_nanos() as f64 / f64::from(CALLS)
}

/// Transactions kept in flight for a run with `avg_active` active ones.
fn in_flight(avg_active: f64) -> usize {
    (avg_active.round() as usize).max(1)
}

/// Replays `w` under `seed`; `avg_active` (from the real run) sets how many
/// transactions are in flight at once.
pub fn run(w: Workload, seed: u64, avg_active: f64) -> Replay {
    let config = w.config(seed);
    let (txs, warm) = engine_transactions(w, &config);
    let nodes = config.nodes.num_nodes;
    let map = (config.architecture == Architecture::SharedNothing).then(|| {
        let ppn = config.partitioning.partitions_per_node;
        match config.partitioning.scheme {
            PartitionScheme::Hash => PartitionMap::hash(nodes, ppn),
            PartitionScheme::Range => PartitionMap::range(nodes, ppn, w.generator().total_pages()),
        }
    });
    // The node an object reference executes at: the page owner under shared
    // nothing, the transaction's round-robin home node otherwise.
    let exec_node = |i: usize, page: PageId| map.as_ref().map_or(i % nodes, |m| m.owner_of(page));
    let window = in_flight(avg_active);

    let (lock_requests, lock_remote_requests, lock_ns) =
        lock_pass(&config, &txs, warm, window, &exec_node);
    let buffers = buffer_pass(&config, &txs, warm, window, &exec_node);
    let measured_ops = &buffers.device_ops[buffers.measured_from..];
    let dev_reads = measured_ops
        .iter()
        .filter(|op| op.1 == IoKind::Read)
        .count() as u64;
    let dev_ns = device_pass(&config, &buffers.device_ops, buffers.measured_from);
    Replay {
        txs: (txs.len() - warm) as u64,
        lock_requests,
        lock_remote_requests,
        lock_ns,
        buf_calls: buffers.calls,
        buf_ns: buffers.ns,
        buf_stats: buffers.stats,
        dev_reads,
        dev_writes: measured_ops.len() as u64 - dev_reads,
        dev_ns,
    }
}

/// Lock manager: every transaction requests its locks from the node it
/// executes at, and `window` transactions hold their locks at once; the
/// oldest commits (`release_all`) when a new one joins.  A blocked request
/// waits as in the engine: the holders commit, oldest first, until it is
/// granted.  Returns (requests, remote requests, ns).
fn lock_pass(
    config: &SimulationConfig,
    txs: &[TransactionTemplate],
    warm: usize,
    window: usize,
    exec_node: &dyn Fn(usize, PageId) -> usize,
) -> (u64, u64, f64) {
    let nodes = config.nodes.num_nodes;
    let mut service = if config.architecture == Architecture::SharedNothing {
        GlobalLockService::node_local(config.cc_modes.clone())
    } else {
        let delay = if nodes > 1 {
            config.nodes.remote_lock_delay_ms
        } else {
            0.0
        };
        GlobalLockService::new(config.cc_modes.clone(), 0, delay)
    };
    let mut holding: VecDeque<u64> = VecDeque::with_capacity(window + 1);
    let mut start = Instant::now();
    for (i, tx) in txs.iter().enumerate() {
        if i == warm {
            service.reset_stats();
            start = Instant::now();
        }
        let id = i as u64 + 1;
        let mut granted = true;
        for r in &tx.refs {
            match service.acquire(exec_node(i, r.page), id, r) {
                LockOutcome::Granted => {}
                LockOutcome::Blocked => loop {
                    let Some(oldest) = holding.pop_front() else {
                        black_box(service.abort(id));
                        granted = false;
                        break;
                    };
                    if service.release_all(oldest).contains(&id) {
                        break;
                    }
                },
                LockOutcome::Deadlock => {
                    black_box(service.abort(id));
                    granted = false;
                }
            }
            if !granted {
                break;
            }
        }
        if granted {
            holding.push_back(id);
            if holding.len() > window {
                let oldest = holding.pop_front().expect("window is non-empty");
                black_box(service.release_all(oldest));
            }
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    (
        service.stats().requests,
        service.global_stats().remote_requests,
        ns,
    )
}

/// A device operation the buffer manager (or the commit log) asked for.
type DeviceOp = (usize, IoKind, PageId);

/// The commit-time work of a transaction still in flight.
struct PendingCommit {
    home: usize,
    /// Distinct written `(partition, page)` pairs, sorted.
    written: Vec<(usize, PageId)>,
    /// Asynchronous writes its references started: `(node, page)`.
    async_writes: Vec<(usize, PageId)>,
}

/// What the buffer-manager pass measured and recorded.
struct BufferPass {
    calls: u64,
    ns: f64,
    stats: BufferStats,
    /// Every device operation in order, warm-up included.
    device_ops: Vec<DeviceOp>,
    /// Index of the first device operation of the timed part.
    measured_from: usize,
}

/// Buffer manager: references at arrival, and `window` transactions later
/// the commit: log write, FORCE, completion of the async writes, and
/// invalidation of the other holders' copies.  Each transaction's calls are
/// timed as two segments (references, commit).
fn buffer_pass(
    config: &SimulationConfig,
    txs: &[TransactionTemplate],
    warm: usize,
    window: usize,
    exec_node: &dyn Fn(usize, PageId) -> usize,
) -> BufferPass {
    let nodes = config.nodes.num_nodes;
    let coherent = nodes > 1 && config.architecture == Architecture::DataSharing;
    let force = config.buffer.update_strategy == UpdateStrategy::Force;
    let log_unit = match config.log_allocation {
        LogAllocation::DiskUnit(u) | LogAllocation::DiskUnitViaNvemWriteBuffer(u) => Some(u),
        LogAllocation::Nvem => None,
    };
    let overhead = instant_overhead_ns();
    let mut pools: Vec<BufferManager> = (0..nodes)
        .map(|_| BufferManager::new(config.buffer.clone()))
        .collect();
    let mut holders: HashMap<PageId, u64> = HashMap::new();
    let mut device_ops: Vec<DeviceOp> = Vec::with_capacity(txs.len() * 4);
    let mut measured_from = 0;
    let mut log_page = u64::MAX;
    let mut in_flight: VecDeque<PendingCommit> = VecDeque::with_capacity(window + 1);
    let mut ops: Vec<(usize, PageOp)> = Vec::new();
    let mut stale: Vec<(usize, PageId)> = Vec::new();
    let (mut calls, mut ns) = (0u64, 0.0f64);
    for (i, tx) in txs.iter().enumerate() {
        if i == warm {
            pools.iter_mut().for_each(BufferManager::reset_stats);
            measured_from = device_ops.len();
            calls = 0;
            ns = 0.0;
        }
        let home = i % nodes;
        ops.clear();
        let start = Instant::now();
        for r in &tx.refs {
            let node = exec_node(i, r.page);
            let outcome = pools[node].reference_page(r.partition, r.page, r.mode.is_write());
            ops.extend(outcome.ops.iter().map(|&op| (node, op)));
        }
        ns += (start.elapsed().as_nanos() as f64 - overhead).max(0.0);
        calls += tx.refs.len() as u64;
        record_device_ops(&ops, &mut device_ops);
        if coherent {
            for r in &tx.refs {
                *holders.entry(r.page).or_insert(0) |= 1u64 << home;
            }
        }
        let mut written: Vec<(usize, PageId)> = tx
            .refs
            .iter()
            .filter(|r| r.mode.is_write())
            .map(|r| (r.partition, r.page))
            .collect();
        written.sort_unstable();
        written.dedup();
        in_flight.push_back(PendingCommit {
            home,
            written,
            async_writes: async_writes(&ops),
        });
        if in_flight.len() <= window {
            continue;
        }

        // The oldest in-flight transaction commits.
        let commit = in_flight.pop_front().expect("window is non-empty");
        if commit.written.is_empty() {
            // Read-only: its async writes still complete.
            for &(node, page) in &commit.async_writes {
                pools[node].async_write_complete(page);
            }
            calls += commit.async_writes.len() as u64;
            continue;
        }
        if let Some(unit) = log_unit {
            device_ops.push((unit, IoKind::Write, PageId(log_page)));
            log_page -= 1;
        }
        stale.clear();
        if coherent {
            for &(_, page) in &commit.written {
                let mut others = holders.get(&page).copied().unwrap_or(0) & !(1u64 << commit.home);
                while others != 0 {
                    stale.push((others.trailing_zeros() as usize, page));
                    others &= others - 1;
                }
            }
        }
        ops.clear();
        let mut commit_calls = commit.async_writes.len() + stale.len();
        let start = Instant::now();
        if force {
            for &(partition, page) in &commit.written {
                let forced = pools[commit.home].force_page(partition, page);
                ops.extend(forced.into_iter().map(|op| (commit.home, op)));
            }
            commit_calls += commit.written.len();
        }
        for &(node, page) in &commit.async_writes {
            pools[node].async_write_complete(page);
        }
        for &(node, op) in &ops {
            if let PageOp::UnitWriteAsync { page, .. } = op {
                pools[node].async_write_complete(page);
                commit_calls += 1;
            }
        }
        for &(node, page) in &stale {
            pools[node].invalidate_page(page);
        }
        ns += (start.elapsed().as_nanos() as f64 - overhead).max(0.0);
        calls += commit_calls as u64;
        record_device_ops(&ops, &mut device_ops);
        // Prune holder bits of nodes that no longer hold the page, as the
        // engine's commit fan-out does.
        for &(node, page) in &stale {
            if !pools[node].holds_page(page) {
                if let Some(mask) = holders.get_mut(&page) {
                    *mask &= !(1u64 << node);
                }
            }
        }
    }
    let mut stats = BufferStats::new(config.buffer.partitions.len());
    for pool in &pools {
        stats.absorb(pool.stats());
    }
    BufferPass {
        calls,
        ns,
        stats,
        device_ops,
        measured_from,
    }
}

/// The `(node, page)` of every `UnitWriteAsync` in `ops`.
fn async_writes(ops: &[(usize, PageOp)]) -> Vec<(usize, PageId)> {
    ops.iter()
        .filter_map(|&(node, op)| match op {
            PageOp::UnitWriteAsync { page, .. } => Some((node, page)),
            _ => None,
        })
        .collect()
}

fn record_device_ops(ops: &[(usize, PageOp)], device_ops: &mut Vec<DeviceOp>) {
    for &(_, op) in ops {
        match op {
            PageOp::UnitRead { unit, page } => device_ops.push((unit, IoKind::Read, page)),
            PageOp::UnitWrite { unit, page } | PageOp::UnitWriteAsync { unit, page } => {
                device_ops.push((unit, IoKind::Write, page))
            }
            PageOp::NvemTransfer { .. } => {}
        }
    }
}

/// Storage devices: every recorded operation becomes a `request` on the
/// configured device; a destage the device starts completes at once.
/// Returns the wall time of the timed part (ns).
fn device_pass(config: &SimulationConfig, device_ops: &[DeviceOp], measured_from: usize) -> f64 {
    let mut devices: Vec<Box<dyn StorageDevice>> = config
        .devices
        .iter()
        .enumerate()
        .map(|(i, spec)| spec.build(format!("unit-{i}")))
        .collect();
    let mut submit = |&(unit, kind, page): &DeviceOp| {
        let decision = devices[unit].request(kind, page);
        if !decision.background.is_empty() {
            devices[unit].destage_complete(page);
        }
        black_box(decision);
    };
    device_ops[..measured_from].iter().for_each(&mut submit);
    let start = Instant::now();
    device_ops[measured_from..].iter().for_each(&mut submit);
    start.elapsed().as_nanos() as f64
}

/// Event queue: ns per hold operation (pop the earliest event, schedule a
/// new one) with `pending` events in the queue and exponentially
/// distributed scheduling distances of mean `mean_distance_ms`.
pub fn hold_ns(pending: usize, mean_distance_ms: f64, seed: u64) -> f64 {
    const HOLDS: usize = 2_000_000;
    const DISTANCES: usize = 1 << 16;
    let mut rng = SimRng::seed_from(seed);
    let distances: Vec<f64> = (0..DISTANCES)
        .map(|_| rng.exponential(mean_distance_ms))
        .collect();
    let mut queue: EventQueue<u32> = EventQueue::new();
    for k in 0..pending.max(1) {
        queue.schedule_at(distances[k % DISTANCES], k as u32);
    }
    let mut hold = |k: usize| {
        let event = queue.pop().expect("the queue never empties");
        queue.schedule_at(event.time + distances[k % DISTANCES], event.payload);
    };
    (0..HOLDS / 10).for_each(&mut hold);
    let start = Instant::now();
    (0..HOLDS).for_each(&mut hold);
    start.elapsed().as_nanos() as f64 / HOLDS as f64
}

/// Response-time sketch: ns per `QuantileSketch::insert` of exponentially
/// distributed values with mean `mean_ms`.
pub fn sketch_insert_ns(mean_ms: f64, seed: u64) -> f64 {
    const INSERTS: usize = 1_000_000;
    let mut rng = SimRng::seed_from(seed);
    let values: Vec<f64> = (0..INSERTS).map(|_| rng.exponential(mean_ms)).collect();
    let mut sketch = QuantileSketch::default();
    let start = Instant::now();
    for &v in &values {
        sketch.insert(v);
    }
    let ns = start.elapsed().as_nanos() as f64 / INSERTS as f64;
    black_box(sketch.count());
    ns
}
