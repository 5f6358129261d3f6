//! Regenerates the tables and figures of the paper's evaluation section,
//! and measures the simulation kernel's wall-clock throughput.
//!
//! ```bash
//! # All experiments at reduced ("standard") scale:
//! cargo run --release -p tpsim-bench --bin experiments
//!
//! # A single experiment:
//! cargo run --release -p tpsim-bench --bin experiments -- fig4.1
//!
//! # Scale selection: --quick (smoke test), --standard (default), --full
//! # (the paper's database sizes and simulation lengths; takes much longer).
//! cargo run --release -p tpsim-bench --bin experiments -- --full fig4.2
//!
//! # Kernel profile: run the profile suite (fig5.x sweep + quickstart +
//! # fig6.x points) and print wall-clock ms and events/sec per point; with
//! # a .json path, also write the points there (never implicitly, so the
//! # curated history of the committed BENCH_kernel.json survives):
//! cargo run --release -p tpsim-bench --bin experiments -- --profile out.json
//!
//! # Perf gate (CI): additionally compare against a committed baseline and
//! # exit non-zero when a point's event count differs from it or its
//! # events/sec drops more than 30% below it:
//! cargo run --release -p tpsim-bench --bin experiments -- \
//!     --profile fresh.json --check-baseline BENCH_kernel.json
//! ```

use tpsim_bench::profile::{
    check_against_baseline, kernel_profile_suite, parse_baseline, render_bench_json,
};
use tpsim_bench::{all_experiments, experiments::run_experiment, RunSettings};

/// Tolerated one-sided events/sec drop before the baseline gate fails.
const BASELINE_TOLERANCE: f64 = 0.30;

/// Best-of-N repetitions per profile point.
const PROFILE_REPS: usize = 3;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut settings = RunSettings::standard();
    let mut scale_label = "standard";
    let mut requested: Vec<String> = Vec::new();
    let mut profile = false;
    let mut profile_out: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {
                settings = RunSettings::quick();
                scale_label = "quick";
            }
            "--standard" => {
                settings = RunSettings::standard();
                scale_label = "standard";
            }
            "--full" => {
                settings = RunSettings::full();
                scale_label = "full";
            }
            "--sequential" => settings.parallel = false,
            "--profile" => {
                // Optional output path; without one nothing is written.
                // Only a `.json` token is taken as the path, so an
                // experiment id following `--profile` is never silently
                // swallowed.
                profile = true;
                profile_out = iter.next_if(|next| next.ends_with(".json")).cloned();
            }
            "--check-baseline" => {
                let Some(path) = iter.next() else {
                    eprintln!("--check-baseline needs a path");
                    std::process::exit(2);
                };
                baseline_path = Some(path.to_string());
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            other => requested.push(other.to_string()),
        }
    }

    if profile || baseline_path.is_some() {
        // Profile mode always runs the fixed full-scale suite; combining it
        // with experiment ids would silently ignore them, so refuse instead.
        if !requested.is_empty() {
            eprintln!(
                "--profile/--check-baseline run the fixed profile suite \
                 and cannot be combined with experiment ids (got: {})",
                requested.join(", ")
            );
            std::process::exit(2);
        }
        run_profile_mode(profile_out, baseline_path);
        return;
    }

    let catalogue = all_experiments();
    let ids: Vec<String> = if requested.is_empty() {
        catalogue.iter().map(|e| e.id.to_string()).collect()
    } else {
        for r in &requested {
            if !catalogue.iter().any(|e| e.id == r) {
                eprintln!("unknown experiment id '{r}'");
                print_help();
                std::process::exit(1);
            }
        }
        requested
    };

    println!("# TPSIM experiment regeneration ({scale_label} scale)");
    println!(
        "# debit-credit scale 1/{}, trace scale 1/{}, warm-up {} ms, measurement {} ms",
        settings.debit_credit_scale, settings.trace_scale, settings.warmup_ms, settings.measure_ms
    );
    println!();
    for id in ids {
        // analyzer: allow(wall-clock): reports regeneration time, not simulated results
        let start = std::time::Instant::now();
        let result = run_experiment(&id, &settings);
        println!("## {} — {}", result.experiment.id, result.experiment.title);
        println!();
        println!("{}", result.table);
        println!(
            "(regenerated in {:.1} s wall-clock)",
            start.elapsed().as_secs_f64()
        );
        println!();
    }
}

/// Runs the kernel profile suite, prints it, optionally writes the JSON and
/// optionally gates against a committed baseline.
fn run_profile_mode(profile_out: Option<String>, baseline_path: Option<String>) {
    println!("# TPSIM kernel profile (full scale, best of {PROFILE_REPS} reps per point)");
    let fresh = kernel_profile_suite(PROFILE_REPS);
    println!(
        "{:<26} {:>12} {:>12} {:>16} {:>18}",
        "point", "events", "wall [ms]", "events/sec", "fanout [us/commit]"
    );
    for p in &fresh {
        println!(
            "{:<26} {:>12} {:>12.1} {:>16.0} {:>18.3}",
            p.id, p.events, p.wall_ms, p.events_per_sec, p.fanout_us_per_commit
        );
    }
    if let Some(out) = profile_out {
        // A fresh emission carries no history: the committed
        // BENCH_kernel.json keeps its hand-curated section.
        std::fs::write(&out, render_bench_json(&fresh)).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(2);
        });
        println!("\nwrote {out}");
    }
    if let Some(path) = baseline_path {
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let baseline = parse_baseline(&json).unwrap_or_else(|e| {
            eprintln!("cannot parse baseline {path}: {e}");
            std::process::exit(2);
        });
        match check_against_baseline(&fresh, &baseline, BASELINE_TOLERANCE) {
            Ok(table) => println!("\nbaseline check ({path}, tolerance 30%):\n{table}"),
            Err(report) => {
                eprintln!("\nbaseline check FAILED ({path}):\n{report}");
                std::process::exit(1);
            }
        }
    }
}

fn print_help() {
    println!(
        "usage: experiments [--quick|--standard|--full] [--sequential] [EXPERIMENT-ID ...]\n\
         \x20      experiments --profile [OUT.json] [--check-baseline BENCH_kernel.json]\n\
         \x20      --sequential runs the points of each sweep one after another instead\n\
         \x20      of on one thread per core (results are byte-identical)"
    );
    println!("experiments:");
    for e in all_experiments() {
        println!("  {:<10} {}", e.id, e.title);
    }
}
