//! Kernel hot-path throughput: the calendar event queue in isolation, and
//! whole-engine event throughput on representative configurations.
//!
//! Three groups:
//!
//! * `event_queue` — the classic *hold model* directly against
//!   [`simkernel::EventQueue`]: a fixed event population, each pop schedules
//!   one replacement.  This isolates the future event list from the rest of
//!   the engine (the structure the calendar queue replaced a binary heap in).
//! * `request_scheduler` — churn directly against
//!   [`storage::RequestScheduler`]: a mixed hot-set/ascending-run read
//!   stream submitted, dispatched and completed with a bounded in-flight
//!   window, isolating the scheduler's queueing structures.
//! * `quantile_sketch_insert` — streaming inserts into
//!   [`simkernel::QuantileSketch`] at several capacities: the per-completion
//!   cost the tail-latency section adds to the engine's hot path.
//! * `engine` — complete simulation runs (single-node quickstart point and
//!   the 8-node fig5.x point), reporting the kernel's events/sec via
//!   [`tpsim::Simulation::run_profiled`].
//!
//! ```bash
//! cargo bench -p tpsim-bench --bench kernel_throughput
//! ```

mod common;

use tpsim_bench::microbench::{black_box, Criterion};
use tpsim_bench::runner::{self, Family, RunSettings};

use simkernel::{EventQueue, QuantileSketch, SimRng};

/// One hold-model iteration: `churn` pop+schedule pairs over a primed queue.
fn hold_model(population: usize, churn: usize) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = SimRng::seed_from(42);
    for i in 0..population {
        q.schedule_at(rng.exponential(5.0), i as u64);
    }
    let mut checksum = 0.0;
    for i in 0..churn {
        let e = q.pop().expect("population never drains");
        checksum += e.time;
        q.schedule_in(rng.exponential(5.0), (population + i) as u64);
    }
    checksum
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_hold");
    for population in [64usize, 1_024, 16_384] {
        group.bench_function(format!("population {population}"), |b| {
            b.iter(|| black_box(hold_model(population, 200_000)))
        });
    }
    group.finish();
}

/// One request-scheduler churn iteration: `rounds` demand reads over a mix
/// of a hot page set (exercising same-page coalescing) and ascending runs
/// (exercising adjacent-page merging and the elevator sweep), with a bounded
/// number of batches kept in flight.  Returns a checksum so the work cannot
/// be optimised away.
fn scheduler_churn(params: storage::IoSchedulerParams, rounds: usize) -> u64 {
    let mut sched = storage::RequestScheduler::new(params, 4);
    let mut next_io: u32 = 0;
    let mut live: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    for i in 0..rounds {
        let page = if i % 4 == 0 {
            // Hot set: repeated pages that coalesce.
            dbmodel::PageId((i as u64).wrapping_mul(2_654_435_761) % 64)
        } else {
            // Cold ascending walk: adjacent pages that merge.
            dbmodel::PageId(10_000 + (i as u64 % 1_024))
        };
        let _ = sched.submit(page, i % 128);
        while let Some(batch) = sched.next_batch() {
            let io = next_io;
            next_io += 1;
            // Hand the batch back as the engine does once its waiters are
            // attached, so the waiter lists recycle.
            sched.register_inflight(io, batch);
            live.push_back(io);
        }
        if live.len() > 3 {
            let io = live.pop_front().expect("non-empty");
            let _ = sched.complete(io);
        }
    }
    while let Some(io) = live.pop_front() {
        let _ = sched.complete(io);
    }
    let stats = sched.stats();
    stats.coalesced + stats.merged_adjacent + u64::from(next_io)
}

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("request_scheduler_churn");
    for (label, params) in [
        (
            "coalesce",
            storage::IoSchedulerParams {
                coalesce: true,
                ..storage::IoSchedulerParams::default()
            },
        ),
        (
            "coalesce+elevator",
            storage::IoSchedulerParams {
                coalesce: true,
                elevator: true,
                ..storage::IoSchedulerParams::default()
            },
        ),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| black_box(scheduler_churn(params, 100_000)))
        });
    }
    group.finish();
}

/// One sketch-insert iteration: `n` exponential response times streamed into
/// a fresh sketch of capacity `k`, then one quantile read so the compactions
/// cannot be optimised away.
fn sketch_stream(k: usize, n: usize) -> f64 {
    let mut sketch = QuantileSketch::new(k);
    let mut rng = SimRng::seed_from(42);
    for _ in 0..n {
        sketch.insert(rng.exponential(25.0));
    }
    sketch.quantile(0.99).unwrap_or(0.0)
}

fn bench_sketch(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantile_sketch_insert");
    for k in [64usize, 512, 4_096] {
        group.bench_function(format!("capacity {k}"), |b| {
            b.iter(|| black_box(sketch_stream(k, 200_000)))
        });
    }
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut settings = RunSettings::full();
    settings.parallel = false;
    let mut group = c.benchmark_group("engine_events_per_sec");
    for (label, config) in [
        (
            "quickstart/disk".to_string(),
            runner::fig4_2_point(tpsim::presets::DebitCreditStorage::Disk, 100.0),
        ),
        (
            "fig5.x/8-nodes".to_string(),
            runner::data_sharing_point(8, 60.0),
        ),
    ] {
        group.bench_function(label.clone(), |b| {
            b.iter(|| {
                let (report, profile) =
                    runner::run_point_profiled(&settings, config.clone(), Family::DebitCredit);
                black_box((report.completed, profile.events))
            })
        });
        // One extra profiled run to print the kernel-level numbers the
        // ms/iter summary cannot show.
        let (_, profile) =
            runner::run_point_profiled(&settings, config.clone(), Family::DebitCredit);
        eprintln!(
            "bench engine_events_per_sec/{label:<32} {:>12} events {:>12.0} events/sec",
            profile.events, profile.events_per_sec
        );
    }
    group.finish();
}

fn main() {
    let mut c = common::criterion();
    bench_event_queue(&mut c);
    bench_scheduler(&mut c);
    bench_sketch(&mut c);
    bench_engine(&mut c);
    c.final_summary();
}
