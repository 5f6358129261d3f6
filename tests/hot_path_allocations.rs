//! Heap allocations on the engine's hot path, counted by this test binary's
//! own global allocator.
//!
//! Two guarantees:
//!
//! * allocation counts are a pure function of (config, seed): two runs of
//!   one configuration allocate exactly the same number of times (every map
//!   the simulator keys by its own ids hashes deterministically);
//! * in steady state a committed transaction costs at most
//!   [`MAX_ALLOCS_PER_TX`] heap allocations on four representative
//!   configurations.
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

use dbmodel::DebitCreditGenerator;
use tpsim::presets::{debit_credit_config, debit_credit_workload, DebitCreditStorage, SecondLevel};
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

/// Largest steady-state heap allocations per committed transaction.  What
/// remains is the workload generator's reference string (a fresh `Vec` per
/// `next_transaction`); the engine itself allocates nothing per operation
/// once its pools and its event queue have reached their working size.
const MAX_ALLOCS_PER_TX: f64 = 1.5;

const WARMUP_MS: f64 = 2_000.0;

/// Allocations of building and running `config` (measurement interval
/// `measure_ms`), with the committed transactions of the measured interval.
fn count(config: &SimulationConfig, measure_ms: f64) -> (u64, u64) {
    let mut config = config.clone();
    config.warmup_ms = WARMUP_MS;
    config.measure_ms = measure_ms;
    let generator: DebitCreditGenerator = debit_credit_workload(100);
    let before = allocations();
    let report = Simulation::new(config, generator).run();
    let allocs = allocations() - before;
    (allocs, report.completed)
}

/// The configurations the steady-state bound covers.
fn configs() -> Vec<(&'static str, SimulationConfig)> {
    let coalesce = storage::IoSchedulerParams { coalesce: true };
    vec![
        (
            "quickstart",
            debit_credit_config(DebitCreditStorage::Disk, 100.0),
        ),
        (
            "4-node coalescing data sharing",
            scheduler_point(4, 60.0, coalesce, true),
        ),
        ("2-node shared nothing", shared_nothing_point(2, 60.0)),
        (
            "NVEM cache under FORCE",
            caching_point(500, SecondLevel::NvemCache(2_000), true, 200.0),
        ),
    ]
}

#[test]
fn same_seed_runs_allocate_identically() {
    for (name, config) in configs() {
        let first = count(&config, 3_000.0);
        let second = count(&config, 3_000.0);
        assert_eq!(
            first, second,
            "{name}: (allocations, committed) differ between two same-seed runs"
        );
    }
}

#[test]
fn steady_state_allocations_per_transaction_are_bounded() {
    let mut over = Vec::new();
    for (name, config) in configs() {
        let (short_allocs, short_tx) = count(&config, 4_000.0);
        let (long_allocs, long_tx) = count(&config, 12_000.0);
        assert!(
            long_tx > short_tx,
            "{name}: the longer run must commit more"
        );
        let extra = long_allocs.saturating_sub(short_allocs);
        let per_tx = extra as f64 / (long_tx - short_tx) as f64;
        println!("{name}: {per_tx:.3} allocations per committed transaction");
        if per_tx > MAX_ALLOCS_PER_TX {
            over.push(format!("{name}: {per_tx:.2}"));
        }
    }
    assert!(
        over.is_empty(),
        "steady-state heap allocations per committed transaction above {MAX_ALLOCS_PER_TX}: {}",
        over.join(", ")
    );
}
