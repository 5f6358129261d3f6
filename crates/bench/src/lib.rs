//! # tpsim-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! (§4).  Two entry points exist:
//!
//! * the **`experiments` binary** (`cargo run --release -p tpsim-bench --bin
//!   experiments`) prints the rows/series of each figure and table, and
//! * the **profile suite** (`experiments --profile <out> --check-baseline
//!   BENCH_kernel.json`), which measures the kernel's events/sec on fixed
//!   representative points and gates them against the committed baseline.
//!
//! The functions in this library build the configurations from
//! [`tpsim::presets`], run the simulations (optionally in parallel across the
//! points of a sweep), and format the results as text tables.

pub mod experiments;
pub mod profile;
pub mod runner;

pub use experiments::{all_experiments, Experiment, ExperimentResult};
pub use profile::{kernel_profile_suite, ProfilePoint};
pub use runner::{RunSettings, SweepPoint};
