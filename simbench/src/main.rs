//! `simbench`: the TPSIM simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path simbench/Cargo.toml -- \
//!     --workload ds16-nvemlog --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the workload's simulation is built and run repeatedly
//! for `--seconds` seconds, one after another on one thread.  Every run is
//! checked (see [`checks`]) and must reproduce the first run's event count,
//! transaction count and report digest exactly, and its allocation count
//! within [`ALLOC_TOLERANCE`].  The end-to-end metrics are medians over the
//! runs; the two times among them (`sim_tx_per_s`, `setup_s`) are first
//! scaled by the host slowdown a fixed reference workload measured around
//! each run (see [`reference`]).  With `--trace 1` the per-layer metrics are
//! measured instead (see [`trace`]).  The last line of standard output is
//! the JSON result.

mod alloc;
mod catalog;
mod checks;
mod output;
mod reference;
mod replay;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use dbmodel::WorkloadGenerator;
use tpsim::{KernelProfile, Simulation, SimulationReport};

use output::Outcome;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Runs made even when `--seconds` has already elapsed.
const MIN_RUNS: u64 = 3;
/// A set-up faster than this (s) is sampled [`EXTRA_SETUPS`] more times
/// after every run.
const CHEAP_SETUP_S: f64 = 0.01;
const EXTRA_SETUPS: usize = 10;

const USAGE: &str = "usage: simbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One simulation run and what was measured around it.
pub struct RunRecord {
    /// Wall seconds from config construction to a built `Simulation`.
    pub setup_s: f64,
    /// Wall seconds of `Simulation::run_profiled`.
    pub run_s: f64,
    /// Heap allocations during the run.
    pub allocs: u64,
    /// The report.
    pub report: SimulationReport,
    /// The kernel profile (event count).
    pub profile: KernelProfile,
    /// Digest of the report's `Debug` rendering.
    pub digest: u64,
}

/// What must repeat exactly between runs of one seed: events, completed
/// transactions and report digest.
pub type Fingerprint = (u64, u64, u64);

/// Largest relative difference between the allocation counts of two runs of
/// one seed.  The engine's `HashMap`s draw a fresh random hash seed per map,
/// which moves where deleted slots get reused and so, rarely, whether a
/// table grows: runs differ by a handful of allocations in millions.
pub const ALLOC_TOLERANCE: f64 = 1e-5;

impl RunRecord {
    fn fingerprint(&self) -> Fingerprint {
        (self.profile.events, self.report.completed, self.digest)
    }

    /// One line describing the run.
    fn describe(&self) -> String {
        format!(
            "setup {:.6} s, run {:.4} s, {} tx, {} events, {} allocs, digest {:016x}, \
             Little {:.3} vs {:.3} in system",
            self.setup_s,
            self.run_s,
            self.report.completed,
            self.profile.events,
            self.allocs,
            self.digest,
            checks::little_lhs(&self.report),
            checks::in_system(&self.report),
        )
    }
}

/// Builds and runs `w` under `seed` with the generator `make_gen` returns,
/// timing set-up and run separately and counting the run's allocations.
pub fn run_once<G: WorkloadGenerator>(
    w: Workload,
    seed: u64,
    make_gen: impl FnOnce() -> G,
) -> RunRecord {
    let (sim, setup_s) = set_up(w, seed, make_gen);
    let allocs_before = alloc::allocations();
    let start = Instant::now();
    let (report, profile) = sim.run_profiled();
    let run_s = start.elapsed().as_secs_f64();
    let allocs = alloc::allocations() - allocs_before;
    let digest = checks::digest(&report);
    RunRecord {
        setup_s,
        run_s,
        allocs,
        report,
        profile,
        digest,
    }
}

/// Builds the simulation of `w` under `seed`, timing it from config
/// construction to the built `Simulation` (the `setup_s` span).
fn set_up<G: WorkloadGenerator>(
    w: Workload,
    seed: u64,
    make_gen: impl FnOnce() -> G,
) -> (Simulation<G>, f64) {
    let start = Instant::now();
    let sim = Simulation::new(w.config(seed), make_gen());
    (sim, start.elapsed().as_secs_f64())
}

/// Runs `make_run` with panics caught, checks the report and compares it
/// with `reference` (set from the first run).  Returns the record when
/// every check passed; prints what failed otherwise.
pub fn checked(
    label: &str,
    reference: &mut Option<Fingerprint>,
    make_run: impl FnOnce() -> RunRecord,
) -> Option<RunRecord> {
    let Ok(record) = catch_unwind(AssertUnwindSafe(make_run)) else {
        println!("{label}: panicked");
        return None;
    };
    let mut problems = checks::check_report(&record.report)
        .err()
        .unwrap_or_default();
    match reference {
        None => *reference = Some(record.fingerprint()),
        Some(first) if *first != record.fingerprint() => problems.push(format!(
            "(events, tx, digest) = {:?} differs from the first run's {:?}",
            record.fingerprint(),
            first
        )),
        Some(_) => {}
    }
    println!("{label}: {}", record.describe());
    if problems.is_empty() {
        Some(record)
    } else {
        problems
            .iter()
            .for_each(|p| println!("  check failed: {p}"));
        None
    }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The end-to-end measurement (`--trace 0`).
fn measure(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference = None;
    let mut good: Vec<RunRecord> = Vec::new();
    // Host-normalised samples: rates and set-up times of each good run,
    // scaled by the host speed the reference measured around that run.
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let mut reference_before = reference::measure();
    while attempted < MIN_RUNS || start.elapsed().as_secs_f64() < seconds {
        attempted += 1;
        let label = format!("run {attempted}");
        let record = checked(&label, &mut reference, || {
            run_once(w, seed, || w.generator())
        });
        let Some(record) = record else {
            failed += 1;
            reference_before = reference::measure();
            continue;
        };
        let mut samples = vec![record.setup_s];
        // A cheap set-up is sampled again after every run, so its median
        // spans the same stretch of time as the runs.
        if record.setup_s < CHEAP_SETUP_S {
            samples.extend((0..EXTRA_SETUPS).map(|_| set_up(w, seed, || w.generator()).1));
        }
        let reference_after = reference::measure();
        let slowdown = (reference_before + reference_after) / 2.0 / reference::NOMINAL_S;
        rates.push(record.report.completed as f64 / record.run_s * slowdown);
        setups.extend(samples.iter().map(|s| s / slowdown));
        println!("  host slowdown {slowdown:.3}");
        reference_before = reference_after;
        good.push(record);
    }
    let peak_rss_mib = alloc::peak_rss_mib();
    let allocs: Vec<f64> = good.iter().map(|r| r.allocs as f64).collect();
    let (lo, hi) = allocs
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &a| (lo.min(a), hi.max(a)));
    let allocs_repeat = hi <= lo * (1.0 + ALLOC_TOLERANCE);
    println!(
        "allocations per run: {lo}..{hi} ({})",
        if lo == hi {
            "identical"
        } else if allocs_repeat {
            "within tolerance"
        } else {
            "DIFFER beyond tolerance"
        }
    );
    let Some(first) = good.first() else {
        return Outcome {
            correct: false,
            attempted,
            failed,
            metrics: Vec::new(),
        };
    };
    let metrics = vec![
        catalog::metric("sim_tx_per_s", median(&rates)),
        catalog::metric("setup_s", median(&setups)),
        catalog::metric("peak_rss_mib", peak_rss_mib.unwrap_or(0.0)),
        catalog::metric(
            "allocs_per_tx",
            median(&allocs) / first.report.completed as f64,
        ),
    ];
    println!(
        "{} good runs of {attempted}; every run: {} events, {} tx, digest {:016x}",
        good.len(),
        first.profile.events,
        first.report.completed,
        first.digest
    );
    Outcome {
        correct: failed == 0 && allocs_repeat && peak_rss_mib.is_some(),
        attempted,
        failed,
        metrics,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let config = w.config(args.seed);
    println!(
        "workload {} seed {}: {} node(s), {:?}, {} TPS offered, {} s simulated + {} s warm-up; \
         {} CPU(s) available, one thread used",
        w.name(),
        args.seed,
        config.nodes.num_nodes,
        config.architecture,
        config.arrival_rate_tps,
        config.measure_ms / 1e3,
        config.warmup_ms / 1e3,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut outcome = if args.trace {
        trace::run(w, args.seed, args.seconds)
    } else {
        measure(w, args.seed, args.seconds)
    };
    for m in &mut outcome.metrics {
        if !m.value.is_finite() {
            println!("metric {} is not finite; reported as 0", m.name);
            m.value = 0.0;
            outcome.correct = false;
        }
    }
    for m in &outcome.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    // The result line must read back as exactly what was measured.
    if Outcome::parse(&outcome.to_json()).as_ref() != Ok(&outcome) {
        println!("the result line does not round-trip");
        outcome.correct = false;
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "sn8-skew-burst",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::Sn8SkewBurst,
                seed: 7,
                seconds: 20.0,
                trace: true,
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
            &["--workload", "ds16-nvemlog", "--seconds", "1"],
            &[
                "--workload",
                "ds16-nvemlog",
                "--seed",
                "x",
                "--seconds",
                "1",
            ],
            &[
                "--workload",
                "ds16-nvemlog",
                "--seed",
                "1",
                "--seconds",
                "0",
            ],
            &[
                "--workload",
                "ds16-nvemlog",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload"],
            &["--bogus", "1"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
