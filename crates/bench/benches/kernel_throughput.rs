//! Kernel hot-path throughput: the two-tier event queue in isolation, and
//! whole-engine event throughput on representative configurations.
//!
//! Three groups:
//!
//! * `event_queue_hold` — the classic *hold model* directly against
//!   [`simkernel::EventQueue`]: a fixed event population, each pop schedules
//!   one replacement.  This isolates the future event list from the rest of
//!   the engine.
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

/// The hold model at several populations.  32 is about the pending count
/// of the simulator benchmark's workloads; 1,024 and 16,384 overflow the
/// queue's near tier into its far-tier heap.  Exponential scheduling
/// distances put a new event at a roughly uniform rank among the pending
/// ones, the two-tier queue's worst case: its near-tier insert scans from
/// the front, and the engine's recorded median insertion rank is 4–6.
fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_hold");
    for population in [32usize, 64, 1_024, 16_384] {
        group.bench_function(format!("population {population}"), |b| {
            b.iter(|| black_box(hold_model(population, 200_000)))
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
    bench_sketch(&mut c);
    bench_engine(&mut c);
    c.final_summary();
}
