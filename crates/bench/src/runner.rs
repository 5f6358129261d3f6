//! Shared run infrastructure: settings (scale, simulated durations, sweep
//! rates), single-point runners for each workload family, and a parallel
//! sweep helper.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tpsim::presets::{self, SecondLevel};
use tpsim::{KernelProfile, Simulation, SimulationConfig, SimulationReport};

/// How large and how long the experiment runs are.
#[derive(Debug, Clone)]
pub struct RunSettings {
    /// Scale-down factor of the Debit-Credit database (1 = the paper's 50 M
    /// accounts).
    pub debit_credit_scale: u64,
    /// Scale-down factor of the synthetic trace (1 = the paper's ≈1 M
    /// references).
    pub trace_scale: usize,
    /// Warm-up interval per run (ms of simulated time).
    pub warmup_ms: f64,
    /// Measurement interval per run (ms of simulated time).
    pub measure_ms: f64,
    /// Arrival rates (TPS) for the response-time-vs-throughput figures.
    pub rates: Vec<f64>,
    /// Arrival rate used for the caching experiments (the paper uses 500 TPS).
    pub caching_rate: f64,
    /// Arrival rate used for the trace experiments.
    pub trace_rate: f64,
    /// Run the points of a sweep on multiple threads.
    pub parallel: bool,
    /// Worker threads for parallel sweeps (0 = one per available core).
    pub threads: usize,
}

impl RunSettings {
    /// Full-scale settings: the paper's database sizes and arrival rates.
    /// A complete regeneration of all experiments takes tens of minutes.
    pub fn full() -> Self {
        Self {
            debit_credit_scale: 1,
            trace_scale: 1,
            warmup_ms: 3_000.0,
            measure_ms: 20_000.0,
            rates: vec![10.0, 100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0],
            caching_rate: 500.0,
            trace_rate: 40.0,
            parallel: true,
            threads: 0,
        }
    }

    /// Reduced settings: a scaled-down database and shorter simulated
    /// intervals.  The qualitative shape of every figure is preserved; a full
    /// regeneration takes a few minutes.
    pub fn standard() -> Self {
        Self {
            debit_credit_scale: 20,
            trace_scale: 4,
            warmup_ms: 1_500.0,
            measure_ms: 8_000.0,
            rates: vec![10.0, 100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0],
            caching_rate: 500.0,
            trace_rate: 40.0,
            parallel: true,
            threads: 0,
        }
    }

    /// Minimal settings (`--quick`) for smoke tests.
    pub fn quick() -> Self {
        Self {
            debit_credit_scale: 200,
            trace_scale: 10,
            warmup_ms: 300.0,
            measure_ms: 1_500.0,
            rates: vec![50.0, 200.0, 500.0],
            caching_rate: 200.0,
            trace_rate: 25.0,
            parallel: true,
            threads: 0,
        }
    }

    fn apply(&self, mut config: SimulationConfig) -> SimulationConfig {
        config.warmup_ms = self.warmup_ms;
        config.measure_ms = self.measure_ms;
        config
    }
}

/// One point of a sweep: an x value (arrival rate, buffer size, ...), a label
/// and the simulation report.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Series label (e.g. the storage allocation).
    pub series: String,
    /// X value of the point.
    pub x: f64,
    /// The simulation result.
    pub report: SimulationReport,
}

/// Where in the measurement interval the recovery experiments crash the
/// system (fraction of `measure_ms` after the warm-up).  Late enough that a
/// realistic redo distance accumulates, strictly before the end of the run.
pub const CRASH_AT_FRACTION: f64 = 0.9;

/// Runs one Debit-Credit point with a simulated crash at
/// [`CRASH_AT_FRACTION`] of the measurement interval, producing a report
/// with a restart section.
pub fn run_recovery_crash(settings: &RunSettings, config: SimulationConfig) -> SimulationReport {
    run_point_profiled(settings, config, Family::RecoveryCrash).0
}

/// Runs one point of the given workload family, also measuring the kernel's
/// wall-clock event throughput (every sweep and the profile suite go through
/// here).
pub fn run_point_profiled(
    settings: &RunSettings,
    config: SimulationConfig,
    family: Family,
) -> (SimulationReport, KernelProfile) {
    let config = settings.apply(config);
    match family {
        Family::DebitCredit => {
            let workload = presets::debit_credit_workload(settings.debit_credit_scale);
            Simulation::new(config, workload).run_profiled()
        }
        Family::Trace => {
            let workload = presets::trace_workload(settings.trace_scale, 7);
            Simulation::new(config, workload).run_profiled()
        }
        Family::Contention => {
            Simulation::new(config, presets::contention_workload()).run_profiled()
        }
        Family::RecoveryCrash => {
            let crash_at = config.warmup_ms + CRASH_AT_FRACTION * config.measure_ms;
            let workload = presets::debit_credit_workload(settings.debit_credit_scale);
            Simulation::new(config, workload)
                .simulate_crash_at(crash_at)
                .run_profiled()
        }
    }
}

/// Which workload family a sweep point belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Debit-Credit (§4.2–§4.5).
    DebitCredit,
    /// Trace replay (§4.6).
    Trace,
    /// Synthetic contention workload (§4.7).
    Contention,
    /// Debit-Credit with a simulated crash at [`CRASH_AT_FRACTION`] of the
    /// measurement interval (the restart-time experiment, `fig6.x`).
    RecoveryCrash,
}

/// Derives the RNG seed of sweep point `index` from the configuration's base
/// seed.
///
/// Every point of a sweep gets its own decorrelated random stream, and the
/// derivation depends only on `(base seed, point index)` — never on thread
/// count or scheduling — so a parallel sweep is byte-identical to the serial
/// one.
pub fn derive_run_seed(base: u64, index: u64) -> u64 {
    // The kernel's canonical splitmix64 mixer over the (base, index) pair.
    simkernel::rng::mix64(base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs a set of `(series, x, config, family)` points, in parallel when the
/// settings allow it, preserving the input order in the output.
///
/// Each point runs as an independent simulation with a per-point seed derived
/// by [`derive_run_seed`]; the points are distributed over a scoped thread
/// pool with work stealing, and the output order (and every report in it) is
/// identical to a serial run of the same points.
pub fn run_sweep(
    settings: &RunSettings,
    points: Vec<(String, f64, SimulationConfig, Family)>,
) -> Vec<SweepPoint> {
    let jobs: Vec<(String, f64, SimulationConfig, Family)> = points
        .into_iter()
        .enumerate()
        .map(|(i, (series, x, mut config, family))| {
            config.seed = derive_run_seed(config.seed, i as u64);
            (series, x, config, family)
        })
        .collect();
    let run_one = |(series, x, config, family): (String, f64, SimulationConfig, Family)| {
        let (report, _) = run_point_profiled(settings, config, family);
        SweepPoint { series, x, report }
    };
    if !settings.parallel || jobs.len() <= 1 {
        return jobs.into_iter().map(run_one).collect();
    }
    let threads = if settings.threads > 0 {
        settings.threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }
    .min(jobs.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<SweepPoint>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let point = run_one(job.clone());
                *slots[i].lock().expect("sweep slot poisoned") = Some(point);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("sweep worker skipped a point")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Convenience constructors for the configurations of each experiment.
// ---------------------------------------------------------------------------

/// Configuration of one Fig. 4.4 / Fig. 4.5 / Table 4.2 point.
pub fn caching_point(
    mm_pages: usize,
    second_level: SecondLevel,
    force: bool,
    rate: f64,
) -> SimulationConfig {
    presets::caching_config(mm_pages, second_level, force, rate)
}

/// Configuration of one multi-node scaling point (`fig5.x`):
/// `num_nodes` computing modules sharing the storage complex, offered
/// `per_node_rate` TPS per node.
pub fn data_sharing_point(num_nodes: usize, per_node_rate: f64) -> SimulationConfig {
    presets::data_sharing_config(num_nodes, per_node_rate * num_nodes as f64)
}

/// Configuration of one coherence-policy point (`fig8.x`): the fig5.x
/// data-sharing workload under an explicit coherence protocol / page-transfer
/// combination.
pub fn coherence_point(
    num_nodes: usize,
    per_node_rate: f64,
    coherence: tpsim::CoherenceParams,
) -> SimulationConfig {
    let mut c = data_sharing_point(num_nodes, per_node_rate);
    c.coherence = coherence;
    c
}

/// Configuration of one read-coalescing point (`fig11.x`): the fig5.x
/// data-sharing workload with coalescing on or off, optionally with the log
/// moved to NVEM so the log disk stops masking the data-disk read path.
pub fn scheduler_point(
    num_nodes: usize,
    per_node_rate: f64,
    params: storage::IoSchedulerParams,
    nvem_log: bool,
) -> SimulationConfig {
    let mut c = data_sharing_point(num_nodes, per_node_rate);
    c.io_scheduler = params;
    if nvem_log {
        c.log_allocation = tpsim::LogAllocation::Nvem;
    }
    c
}

/// Configuration of one shared-nothing scaling point (`fig7.x`): the same
/// workload as [`data_sharing_point`] on the partitioned (function-shipping)
/// architecture.
pub fn shared_nothing_point(num_nodes: usize, per_node_rate: f64) -> SimulationConfig {
    presets::shared_nothing_config(num_nodes, per_node_rate * num_nodes as f64)
}

/// Configuration of one open-system workload point (`fig10.x`): the fig7.x
/// architecture-comparison workload under a shaped arrival process
/// (time-varying rate schedule) and/or hot-spot-skewed page accesses.
pub fn workload_point(
    shared_nothing: bool,
    num_nodes: usize,
    per_node_rate: f64,
    workload: tpsim::WorkloadParams,
) -> SimulationConfig {
    let mut c = if shared_nothing {
        shared_nothing_point(num_nodes, per_node_rate)
    } else {
        data_sharing_point(num_nodes, per_node_rate)
    };
    c.workload = workload;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpsim::presets::DebitCreditStorage;

    #[test]
    fn quick_settings_run_a_small_sweep() {
        let settings = RunSettings::quick();
        let points = vec![
            (
                "disk".to_string(),
                50.0,
                presets::debit_credit_config(DebitCreditStorage::Disk, 50.0),
                Family::DebitCredit,
            ),
            (
                "nvem".to_string(),
                50.0,
                presets::debit_credit_config(DebitCreditStorage::NvemResident, 50.0),
                Family::DebitCredit,
            ),
        ];
        let results = run_sweep(&settings, points);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].series, "disk");
        assert!(results[0].report.completed > 0);
        assert!(results[1].report.response_time.mean < results[0].report.response_time.mean);
    }

    #[test]
    fn sequential_and_parallel_sweeps_agree() {
        let mut settings = RunSettings::quick();
        let mk_points = || {
            vec![
                (
                    "a".to_string(),
                    100.0,
                    presets::debit_credit_config(DebitCreditStorage::Ssd, 100.0),
                    Family::DebitCredit,
                ),
                (
                    "b".to_string(),
                    100.0,
                    presets::debit_credit_config(DebitCreditStorage::Disk, 100.0),
                    Family::DebitCredit,
                ),
            ]
        };
        settings.parallel = false;
        let seq = run_sweep(&settings, mk_points());
        settings.parallel = true;
        settings.threads = 2;
        let par = run_sweep(&settings, mk_points());
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(par.iter()) {
            assert_eq!(s.series, p.series);
            // Byte-identical: the full report must match, not just summaries.
            assert_eq!(s.report, p.report);
        }
    }

    #[test]
    fn multi_node_sweep_is_deterministic_across_parallelism() {
        // Extends the parallel-equals-serial guarantee to the NodeParams
        // dimension: the points of a node-count sweep must be byte-identical
        // however they are scheduled.
        let mut settings = RunSettings::quick();
        let mk_points = || {
            let mut points = [1usize, 2, 4]
                .iter()
                .map(|&n| {
                    (
                        format!("{n}-node"),
                        n as f64,
                        data_sharing_point(n, 60.0),
                        Family::DebitCredit,
                    )
                })
                .collect::<Vec<_>>();
            points.extend(tie_heavy_multi_node_points());
            points
        };
        settings.parallel = false;
        let seq = run_sweep(&settings, mk_points());
        settings.parallel = true;
        settings.threads = 3;
        let par = run_sweep(&settings, mk_points());
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(par.iter()) {
            assert_eq!(s.report, p.report);
            assert_eq!(s.report.nodes.len(), s.x as usize);
        }
    }

    /// Six short, hot multi-node data-sharing points with pseudo-random node
    /// counts, rates and seeds.  High arrival rates pile events onto identical
    /// timestamps (group-commit flushes, zero-delay wake-ups), so the
    /// `(time, seq)` tie-break is exercised throughout.
    fn tie_heavy_multi_node_points() -> Vec<(String, f64, SimulationConfig, Family)> {
        // A tiny LCG keeps the draws reproducible without a PRNG dependency.
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        (0..6)
            .map(|case| {
                let nodes = [2, 3, 5, 8][next() as usize % 4];
                let per_node_tps = 120.0 + (next() % 200) as f64;
                // Draws 3 and 4 of each case are unused; skipping them keeps
                // this exact case set.
                next();
                next();
                let mut config = data_sharing_point(nodes, per_node_tps);
                config.seed = next();
                (
                    format!("tie-heavy-{case}"),
                    nodes as f64,
                    config,
                    Family::DebitCredit,
                )
            })
            .collect()
    }

    #[test]
    fn shaped_workload_sweep_is_deterministic_across_parallelism() {
        // Extends the parallel-equals-serial guarantee to the workload-engine
        // dimension: points with a time-varying arrival schedule and hot-spot
        // skew must be byte-identical however the sweep is scheduled, and
        // must report ordered percentiles.
        let mut settings = RunSettings::quick();
        let mk_points = || {
            let mut burst = tpsim::WorkloadParams::skewed(0.9, 0.2);
            burst.schedule = tpsim::WorkloadSchedule::Burst {
                period_ms: 400.0,
                burst_fraction: 0.25,
                burst_factor: 4.0,
            };
            vec![
                (
                    "skew/sharing".to_string(),
                    120.0,
                    workload_point(false, 2, 60.0, tpsim::WorkloadParams::skewed(0.9, 0.2)),
                    Family::DebitCredit,
                ),
                (
                    "burst/nothing".to_string(),
                    120.0,
                    workload_point(true, 2, 60.0, burst),
                    Family::DebitCredit,
                ),
            ]
        };
        settings.parallel = false;
        let seq = run_sweep(&settings, mk_points());
        settings.parallel = true;
        settings.threads = 2;
        let par = run_sweep(&settings, mk_points());
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(par.iter()) {
            assert_eq!(s.report, p.report);
            let rt = s.report.response_time;
            assert!(rt.count > 0);
            assert!(rt.p50 <= rt.p99 && rt.p99 <= rt.p999);
        }
    }

    #[test]
    fn per_run_seeds_are_deterministic_and_decorrelated() {
        assert_eq!(derive_run_seed(1, 0), derive_run_seed(1, 0));
        assert_ne!(derive_run_seed(1, 0), derive_run_seed(1, 1));
        assert_ne!(derive_run_seed(1, 0), derive_run_seed(2, 0));
    }
}
