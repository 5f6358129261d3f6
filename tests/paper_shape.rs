//! Paper-shape regression suite: qualitative golden assertions for the
//! headline orderings of the paper's evaluation, so a refactor cannot
//! silently invert a figure.
//!
//! The shape tests are `#[ignore]`d because each one runs several complete
//! simulations; CI executes them in release mode via
//! `cargo test --release -- --ignored`.  Run them locally with
//!
//! ```bash
//! cargo test --release --test paper_shape -- --ignored
//! ```
//!
//! The non-ignored tests are the cheap determinism guarantees of the
//! multi-node (data-sharing) dimension.

use tpsim::lockmgr::CcMode;
use tpsim::presets::{
    self, caching_config, contention_config, contention_workload, data_sharing_config,
    debit_credit_config, debit_credit_workload, log_allocation_config, recovery_config,
    shared_nothing_config, trace_config, trace_workload, ContentionAllocation, DebitCreditStorage,
    LogVariant, SecondLevel, TraceStorage, LOG_UNIT,
};
use tpsim::{
    LogAllocation, Simulation, SimulationConfig, SimulationReport, WorkloadParams, WorkloadSchedule,
};
use tpsim_bench::experiments::{all_experiments, run_experiment};
use tpsim_bench::runner::{
    caching_point, data_sharing_point, run_recovery_crash, run_sweep, scheduler_point,
    shared_nothing_point, Family, RunSettings,
};

/// Shortens a configuration to test-friendly simulated durations and runs it
/// against the scaled-down Debit-Credit database.
fn run_debit_credit_quickly(mut config: SimulationConfig) -> SimulationReport {
    config.warmup_ms = 1_000.0;
    config.measure_ms = 6_000.0;
    Simulation::new(config, debit_credit_workload(100)).run()
}

/// The response-time summary counts every measured completion, and its
/// percentiles lie in order between the exact extremes.
fn assert_response_summary_is_consistent(r: &SimulationReport) {
    let rt = &r.response_time;
    assert_eq!(rt.count, r.completed);
    assert!(rt.min <= rt.p50 && rt.p50 <= rt.p95 && rt.p95 <= rt.p99);
    assert!(rt.p99 <= rt.p999 && rt.p999 <= rt.max);
}

// ---------------------------------------------------------------------------
// Determinism of the multi-node dimension (cheap, always run)
// ---------------------------------------------------------------------------

#[test]
fn multi_node_engine_is_deterministic_for_fixed_seed() {
    let make = || {
        let mut c = data_sharing_config(3, 120.0);
        c.warmup_ms = 300.0;
        c.measure_ms = 1_500.0;
        c
    };
    let a = Simulation::new(make(), debit_credit_workload(200)).run();
    let b = Simulation::new(make(), debit_credit_workload(200)).run();
    assert_eq!(a, b, "same seed must reproduce the full multi-node report");
    assert_eq!(a.nodes.len(), 3);
    assert!(a.completed > 0);
    assert_response_summary_is_consistent(&a);
}

#[test]
fn multi_node_sweep_is_byte_identical_in_parallel_and_serial() {
    // PR 1 guaranteed parallel == serial for single-node sweeps; the node
    // count is one more sweep dimension and must preserve the guarantee.
    let mk_points = || {
        [1usize, 2, 4, 8]
            .iter()
            .map(|&n| {
                (
                    format!("{n}-node"),
                    n as f64,
                    data_sharing_point(n, 50.0),
                    Family::DebitCredit,
                )
            })
            .collect::<Vec<_>>()
    };
    let mut settings = RunSettings::quick();
    settings.parallel = false;
    let serial = run_sweep(&settings, mk_points());
    settings.parallel = true;
    settings.threads = 4;
    let parallel = run_sweep(&settings, mk_points());
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.series, p.series);
        assert_eq!(s.report, p.report, "series {} diverged", s.series);
    }
}

// ---------------------------------------------------------------------------
// Determinism of the shared-nothing dimension (cheap, always run)
// ---------------------------------------------------------------------------

#[test]
fn shared_nothing_engine_is_deterministic_for_fixed_seed() {
    let make = || {
        let mut c = shared_nothing_config(3, 120.0);
        c.warmup_ms = 300.0;
        c.measure_ms = 1_500.0;
        c
    };
    let a = Simulation::new(make(), debit_credit_workload(200)).run();
    let b = Simulation::new(make(), debit_credit_workload(200)).run();
    assert_eq!(a, b, "same seed must reproduce the shared-nothing report");
    assert_eq!(a.nodes.len(), 3);
    assert!(a.completed > 0);
    assert_response_summary_is_consistent(&a);
    assert!(
        a.shipping.as_ref().is_some_and(|s| s.remote_calls > 0),
        "a 3-node shared-nothing run must ship calls"
    );
}

#[test]
fn shared_nothing_sweep_is_byte_identical_in_parallel_and_serial() {
    // The architecture is one more sweep dimension and must preserve the
    // parallel == serial guarantee of PRs 1–3.
    let mk_points = || {
        [1usize, 2, 4, 8]
            .iter()
            .map(|&n| {
                (
                    format!("{n}-node"),
                    n as f64,
                    shared_nothing_point(n, 50.0),
                    Family::DebitCredit,
                )
            })
            .collect::<Vec<_>>()
    };
    let mut settings = RunSettings::quick();
    settings.parallel = false;
    let serial = run_sweep(&settings, mk_points());
    settings.parallel = true;
    settings.threads = 4;
    let parallel = run_sweep(&settings, mk_points());
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.series, p.series);
        assert_eq!(s.report, p.report, "series {} diverged", s.series);
    }
}

// ---------------------------------------------------------------------------
// Determinism of the workload-engine dimension (cheap, always run)
// ---------------------------------------------------------------------------

/// The fig10.x burst + hot-spot configuration used by the cheap determinism
/// and golden tests below.
fn fig10x_config() -> SimulationConfig {
    let mut c = data_sharing_config(2, 2.0 * 60.0);
    c.workload = WorkloadParams::skewed(0.9, 0.2);
    c.workload.schedule = WorkloadSchedule::Burst {
        period_ms: 1_000.0,
        burst_fraction: 0.25,
        burst_factor: 4.0,
    };
    c
}

#[test]
fn shaped_workload_engine_is_deterministic_for_fixed_seed() {
    // A time-varying arrival schedule plus hot-spot skew must reproduce the
    // complete report, sketch-derived percentiles included, byte for byte.
    let make = || {
        let mut c = fig10x_config();
        c.warmup_ms = 300.0;
        c.measure_ms = 1_500.0;
        c
    };
    let a = Simulation::new(make(), debit_credit_workload(200)).run();
    let b = Simulation::new(make(), debit_credit_workload(200)).run();
    assert_eq!(a, b, "same seed must reproduce the shaped-workload report");
    assert!(a.completed > 0);
    assert_response_summary_is_consistent(&a);
}

// ---------------------------------------------------------------------------
// Determinism of the recovery dimension (cheap, always run)
// ---------------------------------------------------------------------------

#[test]
fn crash_replay_is_deterministic_for_fixed_seed_and_crash_point() {
    // Satellite guarantee of the recovery PR: the same seed and the same
    // crash point must reproduce the complete report byte for byte,
    // including the restart section.
    let run = || {
        let mut c = recovery_config(false, false, 400.0, 120.0);
        c.warmup_ms = 300.0;
        c.measure_ms = 1_500.0;
        Simulation::new(c, debit_credit_workload(200))
            .simulate_crash_at(1_600.0)
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "crash replay diverged for identical inputs");
    assert_response_summary_is_consistent(&a);
    let restart = a
        .recovery
        .as_ref()
        .and_then(|r| r.restart.as_ref())
        .expect("restart section present");
    assert!(restart.restart_ms > 0.0);
}

#[test]
fn recovery_sweep_is_byte_identical_in_parallel_and_serial() {
    // The crash-and-restart family must preserve the parallel == serial
    // sweep guarantee like every other family.
    let mk_points = || {
        [(false, false), (false, true), (true, false), (true, true)]
            .iter()
            .enumerate()
            .map(|(i, &(force, nvem_log))| {
                (
                    format!("variant-{i}"),
                    i as f64,
                    recovery_config(force, nvem_log, 500.0, 100.0),
                    Family::RecoveryCrash,
                )
            })
            .collect::<Vec<_>>()
    };
    let mut settings = RunSettings::quick();
    settings.parallel = false;
    let serial = run_sweep(&settings, mk_points());
    settings.parallel = true;
    settings.threads = 4;
    let parallel = run_sweep(&settings, mk_points());
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.report, p.report, "series {} diverged", s.series);
        assert!(s
            .report
            .recovery
            .as_ref()
            .is_some_and(|r| r.restart.is_some()));
    }
}

// ---------------------------------------------------------------------------
// Byte-identity goldens (cheap, always run)
// ---------------------------------------------------------------------------
//
// A refactor or optimization must not change simulation output *at all*:
// these tests render complete reports of representative configurations
// with `{:#?}` (the report types derive `Debug`, so a new report field
// appears in every one of them) and compare them byte for byte against the
// committed goldens.  Regenerate with
//
// ```bash
// UPDATE_GOLDENS=1 cargo test --release --test paper_shape golden_
// ```
//
// only for an intentional model or report change (and say so in the PR).

fn assert_matches_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        expected, actual,
        "report of '{name}' diverged from the golden (tests/goldens/{name}.txt); \
         a refactor must be output-preserving"
    );
}

/// The quickstart example's two configurations (Debit-Credit at 100 TPS,
/// disk-based vs NVEM-resident).
#[test]
fn golden_quickstart_reports_are_byte_identical() {
    let mut out = String::new();
    for storage in [DebitCreditStorage::Disk, DebitCreditStorage::NvemResident] {
        let mut config = debit_credit_config(storage, 100.0);
        config.warmup_ms = 1_000.0;
        config.measure_ms = 5_000.0;
        let report = Simulation::new(config, debit_credit_workload(50)).run();
        out.push_str(&format!("== {} ==\n{report:#?}\n", storage.label()));
    }
    assert_matches_golden("quickstart", &out);
}

/// One 8-node fig5.x point: eight computing modules sharing the storage
/// complex at 60 TPS offered per node.
#[test]
fn golden_fig5x_8_node_report_is_byte_identical() {
    let mut config = data_sharing_config(8, 8.0 * 60.0);
    config.warmup_ms = 1_000.0;
    config.measure_ms = 4_000.0;
    let report = Simulation::new(config, debit_credit_workload(100)).run();
    assert_matches_golden("fig5x_8_node", &format!("{report:#?}\n"));
}

/// One 4-node fig7.x shared-nothing point: four computing modules with a
/// hash-declustered database, 60 TPS offered per node, including the
/// function-shipping section.
#[test]
fn golden_fig7x_shared_nothing_4_node_report_is_byte_identical() {
    let mut config = shared_nothing_config(4, 4.0 * 60.0);
    config.warmup_ms = 1_000.0;
    config.measure_ms = 4_000.0;
    let report = Simulation::new(config, debit_credit_workload(100)).run();
    assert_matches_golden("fig7x_shared_nothing_4_node", &format!("{report:#?}\n"));
}

/// One fig6.x point: NOFORCE with a disk-resident log, checkpoints every
/// 400 ms and a crash at 1600 ms, including the restart section.
#[test]
fn golden_fig6x_crash_replay_report_is_byte_identical() {
    let mut config = recovery_config(false, false, 400.0, 120.0);
    config.warmup_ms = 300.0;
    config.measure_ms = 1_500.0;
    let report = Simulation::new(config, debit_credit_workload(200))
        .simulate_crash_at(1_600.0)
        .run();
    assert_matches_golden("fig6x_crash_replay", &format!("{report:#?}\n"));
}

/// One fig10.x point: two nodes under the burst schedule with Zipf-skewed
/// hot-spot accesses, including the sketch-derived tail-latency section.
#[test]
fn golden_fig10x_shaped_workload_report_is_byte_identical() {
    let mut config = fig10x_config();
    config.warmup_ms = 1_000.0;
    config.measure_ms = 4_000.0;
    let report = Simulation::new(config, debit_credit_workload(100)).run();
    assert_matches_golden("fig10x_shaped_workload", &format!("{report:#?}\n"));
}

/// One fig11.x point: four nodes with same-page read coalescing and the log
/// in NVEM, including the per-device scheduler section.  Covers the join
/// and completion path of coalesced reads.
#[test]
fn golden_fig11x_coalescing_4_node_report_is_byte_identical() {
    let coalesce = storage::IoSchedulerParams { coalesce: true };
    let mut config = scheduler_point(4, 60.0, coalesce, true);
    config.warmup_ms = 1_000.0;
    config.measure_ms = 4_000.0;
    let report = Simulation::new(config, debit_credit_workload(100)).run();
    assert!(
        report
            .devices
            .iter()
            .any(|d| d.scheduler.is_some_and(|s| s.coalesced > 0)),
        "the point must exercise coalescing"
    );
    assert_matches_golden("fig11x_coalescing_4_node", &format!("{report:#?}\n"));
}

/// One Table 4.2 point under FORCE: a small main-memory buffer in front of
/// an NVEM second-level cache, so commits force pages into NVEM and start
/// asynchronous disk writes.  Covers the buffer manager's FORCE path.
#[test]
fn golden_nvem_cache_force_report_is_byte_identical() {
    let mut config = caching_point(500, SecondLevel::NvemCache(2_000), true, 200.0);
    config.warmup_ms = 1_000.0;
    config.measure_ms = 4_000.0;
    let report = Simulation::new(config, debit_credit_workload(100)).run();
    assert!(report.buffer.forced_pages > 0 && report.nvem_hit_ratio() > 0.0);
    assert_matches_golden("nvem_cache_force", &format!("{report:#?}\n"));
}

/// Two points that resolve deadlocks, which every Debit-Credit golden
/// avoids by ordering its references: fig4.8's mixed allocation with page
/// locking at 200 TPS, and a trace-replay point whose transactions upgrade
/// shared locks.  Pins every deadlock decision of the lock manager.
#[test]
fn golden_lock_contention_reports_are_byte_identical() {
    let mut out = String::new();
    let mut contention = contention_config(ContentionAllocation::Mixed, CcMode::Page, 200.0);
    contention.warmup_ms = 500.0;
    contention.measure_ms = 3_000.0;
    let report = Simulation::new(contention, contention_workload()).run();
    assert!(report.locks.deadlocks > 0, "fig4.8 point must deadlock");
    out.push_str(&format!("== fig4.8 mixed / page locks ==\n{report:#?}\n"));
    let mut trace = trace_config(1_000, TraceStorage::MmOnly, 40.0);
    trace.warmup_ms = 500.0;
    trace.measure_ms = 3_000.0;
    let report = Simulation::new(trace, trace_workload(10, 7)).run();
    assert!(report.locks.deadlocks > 0, "trace point must deadlock");
    out.push_str(&format!("== trace replay / mm only ==\n{report:#?}\n"));
    assert_matches_golden("lock_contention", &out);
}

/// Every experiment table at quick scale, rendered as the `experiments`
/// binary prints it (without the wall-clock line).  Covers the table
/// renderers and every sweep's configuration.
#[test]
fn golden_experiment_tables_at_quick_scale_are_byte_identical() {
    let settings = RunSettings::quick();
    let mut out = String::new();
    for experiment in all_experiments() {
        let result = run_experiment(experiment.id, &settings);
        out.push_str(&format!(
            "## {} — {}\n\n{}\n",
            experiment.id, experiment.title, result.table
        ));
    }
    assert_matches_golden("experiments_quick", &out);
}

/// The lock-contention tables (fig4.6, fig4.7 and fig4.8) at standard
/// scale, rendered like `experiments_quick`.  fig4.8 resolves about 27,900
/// deadlocks here against about 620 at quick scale, so this pins the lock
/// manager's wake-up order and deadlock decisions over far more conflicts.
/// Ignored like the shape tests: it takes seconds in release.
#[test]
#[ignore = "paper-shape suite: run with --release -- --ignored"]
fn golden_locking_tables_at_standard_scale_are_byte_identical() {
    let settings = RunSettings::standard();
    let mut out = String::new();
    for id in ["fig4.6", "fig4.7", "fig4.8"] {
        let result = run_experiment(id, &settings);
        out.push_str(&format!(
            "## {} — {}\n\n{}\n",
            id, result.experiment.title, result.table
        ));
    }
    assert_matches_golden("experiments_standard_locking", &out);
}

// ---------------------------------------------------------------------------
// Fig. 4.1 — log allocation ordering (slow, release CI job)
// ---------------------------------------------------------------------------

#[test]
#[ignore = "paper-shape suite: run with --release -- --ignored"]
fn fig4_1_log_allocation_throughput_ordering() {
    // At 300 TPS a single log disk (~5 ms per log write) saturates, so the
    // four log allocations must order as in Fig. 4.1:
    //     NVEM log >= NVEM-write-buffer log >= disk-cache log >= disk log.
    let rate = 300.0;
    let nvem = run_debit_credit_quickly(log_allocation_config(LogVariant::Nvem, rate));
    let write_buffer = {
        let mut c = log_allocation_config(LogVariant::SingleDisk, rate);
        c.log_allocation = LogAllocation::DiskUnitViaNvemWriteBuffer(LOG_UNIT);
        c.buffer.nvem_write_buffer_pages = 500;
        run_debit_credit_quickly(c)
    };
    let disk_cache =
        run_debit_credit_quickly(log_allocation_config(LogVariant::SingleDiskNvCache, rate));
    let disk = run_debit_credit_quickly(log_allocation_config(LogVariant::SingleDisk, rate));

    // The three fast variants all avoid the synchronous disk write and may be
    // near-identical, so allow 2% noise on the >= comparisons between them;
    // the gap to the saturated plain-disk log must be large.
    let t = |r: &SimulationReport| r.throughput_tps;
    assert!(
        t(&nvem) >= 0.98 * t(&write_buffer),
        "NVEM log {} vs write-buffer log {}",
        t(&nvem),
        t(&write_buffer)
    );
    assert!(
        t(&write_buffer) >= 0.98 * t(&disk_cache),
        "write-buffer log {} vs disk-cache log {}",
        t(&write_buffer),
        t(&disk_cache)
    );
    assert!(
        t(&disk_cache) >= 0.98 * t(&disk),
        "disk-cache log {} vs disk log {}",
        t(&disk_cache),
        t(&disk)
    );
    assert!(
        t(&nvem) > 1.2 * t(&disk),
        "NVEM log {} should clearly beat the saturated disk log {}",
        t(&nvem),
        t(&disk)
    );
    assert!(
        disk.devices[LOG_UNIT].disk_utilization > 0.9,
        "the plain disk log should be saturated, got {}",
        disk.devices[LOG_UNIT].disk_utilization
    );
}

// ---------------------------------------------------------------------------
// Fig. 4.3 — NOFORCE vs FORCE (slow, release CI job)
// ---------------------------------------------------------------------------

#[test]
#[ignore = "paper-shape suite: run with --release -- --ignored"]
fn fig4_3_noforce_dominates_force_on_disk_resident_databases() {
    // FORCE writes every modified page synchronously at commit; on a
    // disk-resident database that inflates both the commit path and the disk
    // write load, so NOFORCE must deliver at least the throughput of FORCE
    // and strictly better response times (Fig. 4.3).
    let rate = 200.0;
    let noforce = run_debit_credit_quickly(debit_credit_config(DebitCreditStorage::Disk, rate));
    let force = {
        let mut c = debit_credit_config(DebitCreditStorage::Disk, rate);
        c.buffer.update_strategy = bufmgr::UpdateStrategy::Force;
        run_debit_credit_quickly(c)
    };
    assert!(force.buffer.forced_pages > 0, "FORCE never forced a page");
    assert!(
        noforce.throughput_tps >= 0.98 * force.throughput_tps,
        "NOFORCE {} vs FORCE {} TPS",
        noforce.throughput_tps,
        force.throughput_tps
    );
    assert!(
        noforce.response_time.mean < force.response_time.mean,
        "NOFORCE {} ms vs FORCE {} ms",
        noforce.response_time.mean,
        force.response_time.mean
    );
}

// ---------------------------------------------------------------------------
// Table 4.2 — second-level cache hit ratios (slow, release CI job)
// ---------------------------------------------------------------------------

#[test]
#[ignore = "paper-shape suite: run with --release -- --ignored"]
fn table4_2_second_level_cache_raises_total_hit_ratio() {
    // With a small main-memory buffer, adding a second-level NVEM cache must
    // raise the combined hit ratio above main-memory-only caching
    // (Table 4.2), without lowering the main-memory hit ratio's contribution
    // to it.
    let rate = 200.0;
    let mm_pages = 250;
    let mm_only =
        run_debit_credit_quickly(caching_config(mm_pages, SecondLevel::None, false, rate));
    let with_nvem = run_debit_credit_quickly(caching_config(
        mm_pages,
        SecondLevel::NvemCache(2_000),
        false,
        rate,
    ));
    assert!(
        with_nvem.nvem_hit_ratio() > 0.0,
        "the second-level cache never hit"
    );
    let combined_mm_only = mm_only.buffer.combined_hit_ratio();
    let combined_with_nvem = with_nvem.buffer.combined_hit_ratio();
    assert!(
        combined_with_nvem > combined_mm_only + 0.01,
        "combined hit ratio {} (with NVEM cache) vs {} (MM only)",
        combined_with_nvem,
        combined_mm_only
    );
}

// ---------------------------------------------------------------------------
// Fig. 6.x — restart time vs throughput (slow, release CI job)
// ---------------------------------------------------------------------------

#[test]
#[ignore = "paper-shape suite: run with --release -- --ignored"]
fn fig6_x_nvem_log_noforce_restarts_faster_at_equal_throughput() {
    // The acceptance shape of the recovery PR: at a moderate rate (the
    // eight-disk log unit is far from saturation) the NOFORCE variants reach
    // the same throughput whether the log lives on disk or in NVEM, but the
    // NVEM-resident log reads its redo tail back at NVEM speed, so its
    // restart is clearly shorter.  FORCE trades the opposite way: a slower
    // commit path, but restart degenerates to a log scan.
    let mut settings = RunSettings::standard();
    settings.debit_credit_scale = 100;
    let rate = 150.0;
    let disk = run_recovery_crash(&settings, recovery_config(false, false, 0.0, rate));
    let nvem = run_recovery_crash(&settings, recovery_config(false, true, 0.0, rate));
    let force = run_recovery_crash(&settings, recovery_config(true, false, 0.0, rate));

    // Equal throughput: the log allocation is off the critical path.
    assert!(
        (disk.throughput_tps - nvem.throughput_tps).abs() < 0.1 * disk.throughput_tps,
        "throughput should be equal: disk log {} TPS vs NVEM log {} TPS",
        disk.throughput_tps,
        nvem.throughput_tps
    );
    // ... but the NVEM-resident log restarts measurably faster.
    assert!(
        nvem.restart_ms() < 0.9 * disk.restart_ms(),
        "NVEM log restart {} ms should clearly beat disk log restart {} ms",
        nvem.restart_ms(),
        disk.restart_ms()
    );
    // FORCE: no page redo at all, restart is a log scan.
    let force_restart = force
        .recovery
        .as_ref()
        .and_then(|r| r.restart.as_ref())
        .expect("restart section");
    assert_eq!(force_restart.dirty_pages_at_crash, 0);
    assert!(
        force.restart_ms() < disk.restart_ms(),
        "FORCE restart {} ms vs NOFORCE restart {} ms",
        force.restart_ms(),
        disk.restart_ms()
    );
    // And the steady-state cost of that trade-off is visible too.
    assert!(
        force.response_time.mean > disk.response_time.mean,
        "FORCE response {} ms should exceed NOFORCE response {} ms",
        force.response_time.mean,
        disk.response_time.mean
    );
}

// ---------------------------------------------------------------------------
// Fig. 5.x — multi-node scaling shape (slow, release CI job)
// ---------------------------------------------------------------------------

#[test]
#[ignore = "paper-shape suite: run with --release -- --ignored"]
fn fig5_x_multi_node_throughput_scales_sublinearly() {
    // Same per-node offered rate at 1/2/4/8 nodes; the shared single log
    // disk and the global lock service keep the speedup below linear once
    // the aggregate load crosses the log disk's ceiling.
    let per_node_rate = 60.0;
    let run = |n: usize| {
        let mut c = data_sharing_config(n, per_node_rate * n as f64);
        c.warmup_ms = 1_000.0;
        c.measure_ms = 6_000.0;
        Simulation::new(c, debit_credit_workload(100)).run()
    };
    let one = run(1);
    let four = run(4);
    let eight = run(8);
    assert!(one.completed > 0 && four.completed > 0 && eight.completed > 0);
    // 1 node at 60 TPS is uncongested; 8 nodes offer 480 TPS against a
    // ~200 TPS log disk, so the speedup must stay clearly below 8x.
    let speedup = eight.throughput_tps / one.throughput_tps;
    assert!(
        speedup < 7.0,
        "8-node speedup {speedup} should be sub-linear (shared log + lock messages)"
    );
    // The shared log disk is the visible bottleneck at 8 nodes.
    assert!(
        eight.devices[presets::LOG_UNIT].disk_utilization > 0.9,
        "8-node log disk utilization {}",
        eight.devices[presets::LOG_UNIT].disk_utilization
    );
    // Scaling from 4 to 8 nodes must not help much once the log saturates.
    assert!(
        eight.throughput_tps < 1.5 * four.throughput_tps,
        "8 nodes {} vs 4 nodes {} TPS",
        eight.throughput_tps,
        four.throughput_tps
    );
    // And the data-sharing machinery is actually exercised.
    assert!(eight.remote_lock_requests() > 0);
    assert!(eight.invalidations() > 0);
}

// ---------------------------------------------------------------------------
// Fig. 7.x — data-sharing / shared-nothing crossover (slow, release CI job)
// ---------------------------------------------------------------------------

#[test]
#[ignore = "paper-shape suite: run with --release -- --ignored"]
fn fig7_x_architectures_cross_over_as_remote_fraction_grows() {
    // The acceptance shape of the shared-nothing PR: on the same workload
    // family (60 TPS offered per node), data sharing is at least competitive
    // at 1–2 nodes (no function-shipping overhead, log far from saturation)
    // but caps at its shared log disk as nodes are added, while shared
    // nothing pays a remote-access fraction growing like (n-1)/n yet scales
    // its partitioned log — so the throughput ratio crosses 1 somewhere
    // between 2 and 8 nodes.
    let run = |n: usize, shared_nothing: bool| {
        let mut c = if shared_nothing {
            shared_nothing_config(n, 60.0 * n as f64)
        } else {
            data_sharing_config(n, 60.0 * n as f64)
        };
        c.warmup_ms = 1_000.0;
        c.measure_ms = 6_000.0;
        Simulation::new(c, debit_credit_workload(100)).run()
    };
    let ratio = |n: usize| {
        let sharing = run(n, false);
        let nothing = run(n, true);
        (nothing.throughput_tps / sharing.throughput_tps, nothing)
    };
    let (r2, nothing2) = ratio(2);
    let (r8, nothing8) = ratio(8);
    // At 2 nodes the shared log is below its ceiling: shipping overhead
    // keeps shared nothing at or below data sharing.
    assert!(
        r2 < 1.1,
        "2-node shared-nothing/data-sharing ratio {r2} should not exceed ~1"
    );
    // At 8 nodes data sharing is capped by the shared log disk while the
    // partitioned log scales: shared nothing must clearly win.
    assert!(
        r8 > 1.5,
        "8-node shared-nothing/data-sharing ratio {r8} should show the crossover"
    );
    assert!(r8 > r2, "the ratio must grow with the node count");
    // The remote-access fraction grows like (n-1)/n ...
    let frac2 = nothing2.remote_access_fraction();
    let frac8 = nothing8.remote_access_fraction();
    assert!(
        (0.35..0.65).contains(&frac2),
        "2-node remote fraction {frac2} should be ≈ 0.5"
    );
    assert!(
        (0.75..0.95).contains(&frac8),
        "8-node remote fraction {frac8} should be ≈ 0.875"
    );
    // ... and shared nothing never needs coherence or global-lock traffic.
    assert_eq!(nothing8.invalidations(), 0);
    assert_eq!(nothing8.global_locks.messages, 0);
}
