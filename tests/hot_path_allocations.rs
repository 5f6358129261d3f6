//! Heap allocations on the engine's hot path, counted by this test binary's
//! own global allocator.
//!
//! Two guarantees:
//!
//! * allocation counts are a pure function of (config, seed): two runs of
//!   one configuration allocate exactly the same number of times (every map
//!   the simulator keys by its own ids hashes deterministically);
//! * in steady state a committed transaction costs at most
//!   [`MAX_ALLOCS_PER_TX`] heap allocations on five representative
//!   configurations: all but zero.  The workload generator writes each
//!   transaction into a reused template-table entry, and the engine, the
//!   lock manager (conflicts and deadlocks included) and the response-time
//!   sketch reuse their buffers, so what the bound leaves room for is pools
//!   still growing toward their working size.
//!
//! Steady state is isolated by differencing: each configuration runs with
//! the same warm-up and two measurement lengths, and the extra allocations of
//! the longer run are divided by its extra committed transactions, so set-up
//! and warm-up growth (buffer pools filling, tables reaching their working
//! size) cancel out.
//!
//! The counter is thread-local, so the test harness's parallel threads do
//! not disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dbmodel::WorkloadGenerator;
use lockmgr::CcMode;
use tpsim::presets::{
    contention_config, contention_workload, debit_credit_config, debit_credit_workload,
    ContentionAllocation, DebitCreditStorage, SecondLevel,
};
use tpsim::{Simulation, SimulationConfig};
use tpsim_bench::runner::{caching_point, scheduler_point, shared_nothing_point};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread allocation counter.
struct CountingAlloc;

fn count_one() {
    // `try_with` keeps allocations during thread teardown (after the
    // thread-local is gone) from panicking inside the allocator.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` via this type.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; `ptr` came from `System` via this type.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Largest steady-state heap allocations per committed transaction.
/// Nothing on the per-transaction path allocates once its pools have reached
/// their working size; the five configurations measure 0.004–0.028.
const MAX_ALLOCS_PER_TX: f64 = 0.05;

const WARMUP_MS: f64 = 2_000.0;

/// Allocations of building and running `config` on `generator` (measurement
/// interval `measure_ms`), with the committed transactions of the measured
/// interval.
fn count<W: WorkloadGenerator>(
    config: &SimulationConfig,
    generator: W,
    measure_ms: f64,
) -> (u64, u64) {
    let mut config = config.clone();
    config.warmup_ms = WARMUP_MS;
    config.measure_ms = measure_ms;
    let before = allocations();
    let report = Simulation::new(config, generator).run();
    let allocs = allocations() - before;
    (allocs, report.completed)
}

/// A configuration the tests cover.
struct Point {
    name: &'static str,
    /// Counts one run measuring the given interval (see [`count`]).
    count: Box<dyn Fn(f64) -> (u64, u64)>,
    /// The two measurement intervals the steady state is differenced over.
    intervals_ms: (f64, f64),
}

/// A Debit-Credit configuration, differenced over 4 s vs 12 s.
fn debit_credit(name: &'static str, config: SimulationConfig) -> Point {
    Point {
        name,
        count: Box::new(move |ms| count(&config, debit_credit_workload(100), ms)),
        intervals_ms: (4_000.0, 12_000.0),
    }
}

/// The configurations both guarantees cover.
fn points() -> Vec<Point> {
    let coalesce = storage::IoSchedulerParams { coalesce: true };
    vec![
        debit_credit(
            "quickstart",
            debit_credit_config(DebitCreditStorage::Disk, 100.0),
        ),
        debit_credit(
            "4-node coalescing data sharing",
            scheduler_point(4, 60.0, coalesce, true),
        ),
        debit_credit("2-node shared nothing", shared_nothing_point(2, 60.0)),
        debit_credit(
            "NVEM cache under FORCE",
            caching_point(500, SecondLevel::NvemCache(2_000), true, 200.0),
        ),
        // Fig. 4.8's page-locking point: the only one that runs the
        // synthetic generator and the lock-conflict and deadlock path.  Its
        // variable-size reference strings reach their working size slowly,
        // hence the longer runs.
        Point {
            name: "fig4.8 page locking, disk-based",
            count: Box::new(|ms| {
                let config = contention_config(ContentionAllocation::DiskBased, CcMode::Page, 50.0);
                count(&config, contention_workload(), ms)
            }),
            intervals_ms: (20_000.0, 80_000.0),
        },
    ]
}

#[test]
fn same_seed_runs_allocate_identically() {
    for point in points() {
        let first = (point.count)(3_000.0);
        let second = (point.count)(3_000.0);
        assert_eq!(
            first, second,
            "{}: (allocations, committed) differ between two same-seed runs",
            point.name
        );
    }
}

#[test]
fn steady_state_allocations_per_transaction_are_bounded() {
    let mut over = Vec::new();
    for point in points() {
        let name = point.name;
        let (short_ms, long_ms) = point.intervals_ms;
        let (short_allocs, short_tx) = (point.count)(short_ms);
        let (long_allocs, long_tx) = (point.count)(long_ms);
        assert!(
            long_tx > short_tx,
            "{name}: the longer run must commit more"
        );
        let extra = long_allocs.saturating_sub(short_allocs);
        let per_tx = extra as f64 / (long_tx - short_tx) as f64;
        println!("{name}: {per_tx:.3} allocations per committed transaction");
        if per_tx > MAX_ALLOCS_PER_TX {
            over.push(format!("{name}: {per_tx:.3}"));
        }
    }
    assert!(
        over.is_empty(),
        "steady-state heap allocations per committed transaction above {MAX_ALLOCS_PER_TX}: {}",
        over.join(", ")
    );
}
