//! Integration tests for the trace-driven caching experiment (§4.6,
//! Fig. 4.6/4.7) and the lock-contention experiment (§4.7, Fig. 4.8).

use lockmgr::CcMode;
use tpsim::presets::{
    contention_config, contention_workload, trace_config, trace_workload, ContentionAllocation,
    TraceStorage, DB_UNIT,
};
use tpsim::{Simulation, WorkloadParams};

fn run_trace(mm_pages: usize, storage: TraceStorage) -> tpsim::SimulationReport {
    // 55 TPS (≈60 % CPU utilization for the ≈56-reference transactions) and a
    // long warm-up so the buffers see a large part of the trace's referenced
    // set before measuring; with colder buffers the compulsory misses shared
    // by all configurations would mask the caching differences under test.
    let mut config = trace_config(mm_pages, storage, 55.0);
    config.warmup_ms = 2_500.0;
    config.measure_ms = 6_000.0;
    Simulation::new(config, trace_workload(8, 7)).run()
}

fn run_contention(
    allocation: ContentionAllocation,
    granularity: CcMode,
    tps: f64,
) -> tpsim::SimulationReport {
    let mut config = contention_config(allocation, granularity, tps);
    config.warmup_ms = 500.0;
    config.measure_ms = 4_000.0;
    Simulation::new(config, contention_workload()).run()
}

#[test]
fn trace_workload_is_read_dominated_and_completes() {
    let report = run_trace(1_000, TraceStorage::MmOnly);
    assert!(report.completed > 20, "completed {}", report.completed);
    // Read-dominated: far fewer dirty evictions than evictions.
    assert!(
        report.buffer.dirty_evictions * 5 < report.buffer.mm_evictions.max(1),
        "dirty {} of {}",
        report.buffer.dirty_evictions,
        report.buffer.mm_evictions
    );
    // Several transaction types appear in the measured interval.
    assert!(report.per_type.len() >= 4);
}

#[test]
fn all_second_level_caches_help_the_read_dominated_trace() {
    // Fig. 4.6/4.7: for the read-dominated trace even volatile disk caches are
    // very effective (unlike for Debit-Credit).  This comparison runs at a
    // lower rate and a smaller main-memory buffer than the other trace tests:
    // at 55 TPS the scaled-down trace is dominated by lock waits, which
    // drowns the caching effect under test in contention noise.
    let cached = |mm, s| {
        let mut config = trace_config(mm, s, 25.0);
        config.warmup_ms = 2_500.0;
        config.measure_ms = 8_000.0;
        Simulation::new(config, trace_workload(8, 7)).run()
    };
    let baseline = cached(500, TraceStorage::MmOnly);
    let volatile = cached(500, TraceStorage::VolatileDiskCache(8_000));
    let nonvolatile = cached(500, TraceStorage::NonVolatileDiskCache(8_000));
    let nvem = cached(500, TraceStorage::NvemCache(8_000));
    for (name, r) in [
        ("volatile", &volatile),
        ("non-volatile", &nonvolatile),
        ("nvem", &nvem),
    ] {
        assert!(
            r.response_time.mean < baseline.response_time.mean * 0.9,
            "{name}: {} vs baseline {}",
            r.response_time.mean,
            baseline.response_time.mean
        );
    }
    // Volatile and non-volatile disk caches achieve similar read hit ratios
    // for this workload (few writes → few write misses).
    let v_hits = volatile.disk_cache_hit_ratio(DB_UNIT);
    let nv_hits = nonvolatile.disk_cache_hit_ratio(DB_UNIT);
    assert!(v_hits > 0.05, "volatile hits {v_hits}");
    assert!(
        (v_hits - nv_hits).abs() < 0.1,
        "volatile {v_hits} vs non-volatile {nv_hits}"
    );
    // NVEM caching is the most effective second-level cache.
    assert!(nvem.response_time.mean <= nonvolatile.response_time.mean * 1.05);
    assert!(nvem.nvem_hit_ratio() > 0.0);
}

#[test]
fn full_semiconductor_allocation_beats_second_level_caching_for_the_trace() {
    let nvem_cache = run_trace(1_000, TraceStorage::NvemCache(2_000));
    let ssd = run_trace(1_000, TraceStorage::Ssd);
    let resident = run_trace(1_000, TraceStorage::NvemResident);
    assert!(ssd.response_time.mean < nvem_cache.response_time.mean);
    assert!(resident.response_time.mean < ssd.response_time.mean);
}

#[test]
fn larger_mm_buffers_matter_most_without_second_level_caches() {
    // Fig. 4.6: increasing the MM buffer helps the disk-based configuration a
    // lot, but only marginally when a second-level cache is present.
    let disk_small = run_trace(200, TraceStorage::MmOnly);
    let disk_large = run_trace(2_000, TraceStorage::MmOnly);
    let cached_small = run_trace(200, TraceStorage::NvemCache(2_000));
    let cached_large = run_trace(2_000, TraceStorage::NvemCache(2_000));
    let disk_gain = disk_small.response_time.mean - disk_large.response_time.mean;
    let cached_gain = cached_small.response_time.mean - cached_large.response_time.mean;
    assert!(disk_gain > 0.0);
    assert!(
        cached_gain < disk_gain,
        "cached gain {cached_gain} vs disk gain {disk_gain}"
    );
}

#[test]
fn page_locking_thrashes_on_disk_but_not_with_nvem_residence() {
    // Fig. 4.8: with page-level locks the disk-based allocation cannot sustain
    // the offered load (lock thrashing), while the NVEM-resident allocation
    // processes it easily.
    let offered = 250.0;
    let disk = run_contention(ContentionAllocation::DiskBased, CcMode::Page, offered);
    let nvem = run_contention(ContentionAllocation::NvemResident, CcMode::Page, offered);
    assert!(
        disk.throughput_tps < offered * 0.8,
        "disk-based page locking should thrash, throughput {}",
        disk.throughput_tps
    );
    assert!(
        nvem.throughput_tps > offered * 0.85,
        "NVEM-resident throughput {}",
        nvem.throughput_tps
    );
    assert!(nvem.response_time.mean < disk.response_time.mean * 0.2);
    // The thrashing configuration shows heavy lock contention.
    assert!(disk.lock_conflict_ratio() > nvem.lock_conflict_ratio());
}

#[test]
fn object_locking_removes_the_lock_bottleneck() {
    let offered = 250.0;
    let page = run_contention(ContentionAllocation::DiskBased, CcMode::Page, offered);
    let object = run_contention(ContentionAllocation::DiskBased, CcMode::Object, offered);
    assert!(
        object.throughput_tps > page.throughput_tps * 1.2,
        "object {} vs page {}",
        object.throughput_tps,
        page.throughput_tps
    );
    assert!(object.lock_conflict_ratio() < page.lock_conflict_ratio());
    assert!(object.response_time.mean < page.response_time.mean);
}

#[test]
fn mixed_allocation_is_between_disk_and_nvem_with_object_locks() {
    let offered = 200.0;
    let disk = run_contention(ContentionAllocation::DiskBased, CcMode::Object, offered);
    let mixed = run_contention(ContentionAllocation::Mixed, CcMode::Object, offered);
    let nvem = run_contention(ContentionAllocation::NvemResident, CcMode::Object, offered);
    assert!(
        mixed.response_time.mean < disk.response_time.mean,
        "mixed {} vs disk {}",
        mixed.response_time.mean,
        disk.response_time.mean
    );
    assert!(
        nvem.response_time.mean < mixed.response_time.mean,
        "nvem {} vs mixed {}",
        nvem.response_time.mean,
        mixed.response_time.mean
    );
}

#[test]
fn deadlocks_are_detected_and_resolved_under_contention() {
    // Run an aggressive configuration long enough that some deadlocks occur;
    // the simulation must keep making progress (aborted transactions restart
    // and eventually commit).
    let report = run_contention(ContentionAllocation::DiskBased, CcMode::Page, 200.0);
    assert!(report.completed > 50);
    // Deadlocks may or may not occur depending on timing, but if they do the
    // abort counter and the lock-manager counter agree.
    assert_eq!(report.aborts, report.locks.deadlocks);
}

#[test]
#[should_panic(expected = "the lock-contention workload generator has no hot-spot mode")]
fn a_hot_spot_on_the_contention_workload_is_refused() {
    // Fig. 4.8's disk-based page-locking point with Zipf skew: the
    // contention generator cannot skew its accesses, so the run must not
    // start (it used to run unskewed and report like the skewed load).
    let mut config = contention_config(ContentionAllocation::DiskBased, CcMode::Page, 100.0);
    config.warmup_ms = 300.0;
    config.measure_ms = 1_500.0;
    config.workload = WorkloadParams::skewed(0.9, 0.1);
    let _ = Simulation::new(config, contention_workload());
}
