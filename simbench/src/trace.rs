//! The traced run (`--trace 1`): per-layer metrics measured from outside
//! the program.
//!
//! * Untraced and traced runs of the workload alternate.  The untraced run
//!   supplies the report and kernel-profile counts; the traced run wraps
//!   the workload generator in [`TimedGenerator`], which times the engine's
//!   real `next_transaction` and `apply_hot_spot` calls and marks every
//!   1000th arrival.  Both must produce the same report, and the ratio of
//!   their run times is the tracing overhead.
//! * A layer replay ([`crate::replay`]) measures the cost per call of
//!   `lockmgr`, `bufmgr` and `storage`, and two micro-measurements the
//!   event queue and the response-time sketch.  Call counts of the real run
//!   times those costs estimate each layer's share of the run; what they
//!   leave is the engine's own work (`core.residual_share`).

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use dbmodel::{HotSpotParams, TransactionTemplate, WorkloadGenerator};
use simkernel::SimRng;
use tpsim::Architecture;

use crate::output::Outcome;
use crate::replay::{self, Agreement};
use crate::workloads::Workload;
use crate::{catalog, checked, median, run_once, RunRecord};

/// Arrivals per chunk of the `source.chunk_us_*` diagnostics.
const CHUNK: u64 = 1_000;

/// What [`TimedGenerator`] measured.
#[derive(Debug, Default)]
pub struct GenTrace {
    /// Wall time inside `next_transaction` (ns).
    pub gen_ns: u64,
    /// `next_transaction` calls.
    pub calls: u64,
    /// Wall time inside `apply_hot_spot` (s).
    pub hotspot_s: f64,
    /// Wall µs per arrival over each completed chunk of [`CHUNK`] arrivals.
    pub chunk_us: Vec<f64>,
    last_mark: Option<Instant>,
}

/// A workload generator that times the calls the engine makes into the
/// generator it wraps.
pub struct TimedGenerator<W> {
    inner: W,
    trace: Rc<RefCell<GenTrace>>,
}

impl<W> TimedGenerator<W> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: W, trace: Rc<RefCell<GenTrace>>) -> Self {
        Self { inner, trace }
    }
}

impl<W: WorkloadGenerator> WorkloadGenerator for TimedGenerator<W> {
    fn next_transaction(&mut self, rng: &mut SimRng) -> Option<TransactionTemplate> {
        let start = Instant::now();
        let tx = self.inner.next_transaction(rng);
        let end = Instant::now();
        let mut t = self.trace.borrow_mut();
        t.gen_ns += (end - start).as_nanos() as u64;
        t.calls += 1;
        if t.calls.is_multiple_of(CHUNK) {
            if let Some(mark) = t.last_mark {
                let us = (end - mark).as_secs_f64() * 1e6 / CHUNK as f64;
                t.chunk_us.push(us);
            }
            t.last_mark = Some(end);
        }
        tx
    }

    fn num_tx_types(&self) -> usize {
        self.inner.num_tx_types()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn total_pages(&self) -> u64 {
        self.inner.total_pages()
    }

    fn apply_hot_spot(&mut self, params: HotSpotParams) {
        let start = Instant::now();
        self.inner.apply_hot_spot(params);
        self.trace.borrow_mut().hotspot_s += start.elapsed().as_secs_f64();
    }
}

/// Quantile `q` of a non-empty sample (nearest rank).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// One traced run with its generator measurements.
struct Traced {
    record: RunRecord,
    gen: GenTrace,
}

/// The per-layer measurement of `w` under `seed`, spending about `seconds`.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let config = w.config(seed);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference = None;
    let mut plain: Vec<RunRecord> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    // Alternate untraced and traced runs for half the time budget; the rest
    // goes to the replay and the micro-measurements.
    while attempted < 2 || start.elapsed().as_secs_f64() < seconds / 2.0 {
        attempted += 1;
        let label = format!("untraced run {}", plain.len() + 1);
        match checked(&label, &mut reference, || {
            run_once(w, seed, || w.generator())
        }) {
            Some(r) => plain.push(r),
            None => failed += 1,
        }
        attempted += 1;
        let trace = Rc::new(RefCell::new(GenTrace {
            chunk_us: Vec::with_capacity((config.expected_arrivals() / CHUNK as f64) as usize + 16),
            ..GenTrace::default()
        }));
        // The traced report must equal the untraced one.
        let label = format!("traced run {}", traced.len() + 1);
        let record = checked(&label, &mut reference, || {
            run_once(w, seed, || {
                TimedGenerator::new(w.generator(), trace.clone())
            })
        });
        match record {
            Some(record) => traced.push(Traced {
                record,
                gen: trace.take(),
            }),
            None => failed += 1,
        }
    }
    let (Some(base), false) = (plain.first(), traced.is_empty()) else {
        return Outcome {
            correct: false,
            attempted,
            failed,
            metrics: Vec::new(),
        };
    };
    let report = &base.report;
    let profile = base.profile;

    attempted += 1;
    let replayed = catch_unwind(AssertUnwindSafe(|| {
        replay::run(w, seed, report.avg_active_transactions)
    }));
    let Ok(replayed) = replayed else {
        println!("layer replay panicked");
        return Outcome {
            correct: false,
            attempted,
            failed: failed + 1,
            metrics: Vec::new(),
        };
    };
    let agreements = replayed.fidelity(&config, report);
    let verified = |layer: &str| agreements.iter().filter(|a| a.layer == layer).all(|a| a.ok);
    print_agreements(&agreements);

    let pending = (report.avg_active_transactions + report.avg_input_queue).round() as usize + 3;
    let mean_gap_ms = config.total_time_ms() / profile.events as f64;
    let hold_ns = replay::hold_ns(pending, pending as f64 * mean_gap_ms, seed);
    let sketch_ns = replay::sketch_insert_ns(report.response_time.mean, seed);

    // Shares of the fastest untraced run, the one other tenants of the host
    // disturbed least.  Report counts cover the measurement interval; scale
    // them to the whole run.
    let run_ns = plain.iter().map(|r| r.run_s).fold(f64::MAX, f64::min) * 1e9;
    let traced_run_s = traced
        .iter()
        .map(|t| t.record.run_s)
        .fold(f64::MAX, f64::min);
    let whole_run = config.total_time_ms() / config.measure_ms;
    let done = report.completed as f64;
    let run_txs = done * whole_run;
    let (lock_tx_ns, buf_tx_ns, dev_tx_ns) = replayed.ns_per_tx();
    let kernel_share = (profile.events as f64 * hold_ns + run_txs * sketch_ns) / run_ns;
    let lock_share = run_txs * lock_tx_ns / run_ns;
    let buf_share = run_txs * buf_tx_ns / run_ns;
    let dev_share = run_txs * dev_tx_ns / run_ns;
    let gen_share = median(
        &traced
            .iter()
            .map(|t| t.gen.gen_ns as f64 / (t.record.run_s * 1e9))
            .collect::<Vec<_>>(),
    );
    let gen_ns_per_tx = median(
        &traced
            .iter()
            .map(|t| t.gen.gen_ns as f64 / t.gen.calls as f64)
            .collect::<Vec<_>>(),
    );
    let hotspot_s = median(&traced.iter().map(|t| t.gen.hotspot_s).collect::<Vec<_>>());
    let new_s = median(
        &traced
            .iter()
            .map(|t| t.record.setup_s - t.gen.hotspot_s)
            .collect::<Vec<_>>(),
    );
    let chunks: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.gen.chunk_us.iter().copied())
        .collect();

    let data_sharing =
        config.nodes.num_nodes > 1 && config.architecture == Architecture::DataSharing;
    let shared_nothing = config.architecture == Architecture::SharedNothing;
    let per_tx = |count: u64| count as f64 / done;
    let (reads, writes) = replay::device_reads_writes(report);
    let unverified = ["lockmgr", "bufmgr", "storage"]
        .iter()
        .filter(|l| !verified(l))
        .count();
    // `None` marks a layer (or mechanism) this workload does not exercise.
    let values: Vec<(&str, Option<f64>)> = vec![
        (
            "simkernel.events_per_tx",
            Some(profile.events as f64 / run_txs),
        ),
        (
            "simkernel.events_per_s",
            Some(profile.events as f64 / (run_ns / 1e9)),
        ),
        ("simkernel.hold_ns", Some(hold_ns)),
        ("simkernel.sketch_insert_ns", Some(sketch_ns)),
        ("simkernel.share", Some(kernel_share)),
        ("dbmodel.gen_ns_per_tx", Some(gen_ns_per_tx)),
        ("dbmodel.gen_share", Some(gen_share)),
        (
            "dbmodel.hotspot_build_s",
            config.workload.hot_spot.is_active().then_some(hotspot_s),
        ),
        (
            "lockmgr.requests_per_tx",
            Some(per_tx(report.locks.requests)),
        ),
        ("lockmgr.conflict_ratio", Some(report.lock_conflict_ratio())),
        (
            "lockmgr.deadlocks_per_ktx",
            Some(1e3 * per_tx(report.locks.deadlocks)),
        ),
        (
            "lockmgr.remote_requests_per_tx",
            data_sharing.then(|| per_tx(report.global_locks.remote_requests)),
        ),
        (
            "lockmgr.acquire_release_ns",
            Some(replayed.lock_ns / replayed.lock_requests as f64),
        ),
        ("lockmgr.share", Some(lock_share)),
        (
            "bufmgr.refs_per_tx",
            Some(per_tx(report.buffer.references())),
        ),
        ("bufmgr.mm_hit_ratio", Some(report.mm_hit_ratio())),
        (
            "bufmgr.nvem_hit_ratio",
            (config.buffer.nvem_cache_pages > 0).then(|| report.nvem_hit_ratio()),
        ),
        (
            "bufmgr.invalidations_per_tx",
            data_sharing.then(|| per_tx(report.buffer.invalidations)),
        ),
        (
            "bufmgr.forced_pages_per_tx",
            (config.buffer.update_strategy == bufmgr::UpdateStrategy::Force)
                .then(|| per_tx(report.buffer.forced_pages)),
        ),
        (
            "bufmgr.call_ns",
            Some(replayed.buf_ns / replayed.buf_calls as f64),
        ),
        ("bufmgr.share", Some(buf_share)),
        ("storage.ios_per_tx", Some(per_tx(reads + writes))),
        (
            "storage.coalesced_per_ktx",
            config.io_scheduler.enabled().then(|| {
                1e3 * per_tx(
                    report
                        .devices
                        .iter()
                        .map(|d| d.scheduler.map_or(0, |s| s.coalesced))
                        .sum(),
                )
            }),
        ),
        (
            "storage.max_disk_util",
            Some(
                report
                    .devices
                    .iter()
                    .map(|d| d.disk_utilization)
                    .fold(0.0, f64::max),
            ),
        ),
        (
            "storage.request_ns",
            Some(replayed.dev_ns / replayed.dev_requests().max(1) as f64),
        ),
        ("storage.share", Some(dev_share)),
        (
            "core.allocs_per_event",
            Some(base.allocs as f64 / profile.events as f64),
        ),
        (
            "core.fanout_us_per_commit",
            data_sharing.then(|| profile.fanout_us_per_commit()),
        ),
        (
            "core.remote_calls_per_tx",
            shared_nothing.then(|| per_tx(report.shipping.as_ref().map_or(0, |s| s.remote_calls))),
        ),
        ("core.new_s", Some(new_s)),
        (
            "core.residual_share",
            Some(1.0 - kernel_share - gen_share - lock_share - buf_share - dev_share),
        ),
        (
            "bench.trace_overhead",
            Some(traced_run_s / (run_ns / 1e9) - 1.0),
        ),
        ("bench.unverified_layers", Some(unverified as f64)),
        (
            "source.chunk_us_p50",
            (!chunks.is_empty()).then(|| quantile(&chunks, 0.50)),
        ),
        (
            "source.chunk_us_p97",
            (!chunks.is_empty()).then(|| quantile(&chunks, 0.97)),
        ),
    ];
    let metrics = values
        .into_iter()
        .map(|(name, value)| {
            if value.is_none() {
                println!(
                    "{name:<34} {:>16} (layer inactive on this workload; 0 in the JSON)",
                    "n/a"
                );
            }
            catalog::metric(name, value.unwrap_or(0.0))
        })
        .collect();
    for layer in ["lockmgr", "bufmgr", "storage"] {
        if !verified(layer) {
            println!(
                "{layer}: replay disagrees with the report; its *_ns cost and share are UNVERIFIED"
            );
        }
    }
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

fn print_agreements(agreements: &[Agreement]) {
    println!("replay fidelity (replay vs report):");
    for a in agreements {
        println!(
            "  {:<8} {:<28} {:>12.5} {:>12.5}  {}",
            a.layer,
            a.what,
            a.replay,
            a.report,
            if a.ok { "agrees" } else { "DISAGREES" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpsim::presets::debit_credit_workload;

    #[test]
    fn the_wrapper_times_calls_without_changing_the_stream() {
        let trace = Rc::new(RefCell::new(GenTrace::default()));
        let mut timed = TimedGenerator::new(debit_credit_workload(100), trace.clone());
        let mut plain = debit_credit_workload(100);
        let (mut a, mut b) = (SimRng::seed_from(5), SimRng::seed_from(5));
        for _ in 0..2_500 {
            assert_eq!(
                timed.next_transaction(&mut a),
                plain.next_transaction(&mut b)
            );
        }
        timed.apply_hot_spot(HotSpotParams::new(0.9, 0.2));
        let t = trace.borrow();
        assert_eq!(t.calls, 2_500);
        assert!(t.gen_ns > 0 && t.hotspot_s > 0.0);
        // Marks at arrivals 1000 and 2000 close one chunk.
        assert_eq!(t.chunk_us.len(), 1);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.97), 97.0);
        assert_eq!(quantile(&[3.0], 0.97), 3.0);
    }
}
