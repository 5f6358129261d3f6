//! # tpsim-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! (§4).  Two entry points exist:
//!
//! * the **`experiments` binary** (`cargo run --release -p tpsim-bench --bin
//!   experiments`) prints the rows/series of each figure and table, and
//! * the **Criterion benches** (`cargo bench -p tpsim-bench`), one per figure
//!   and table, each of which runs representative configuration points of the
//!   corresponding experiment.
//!
//! The functions in this library build the configurations from
//! [`tpsim::presets`], run the simulations (optionally in parallel across the
//! points of a sweep), and format the results as text tables.  The same code
//! paths are used by the binary and by the benches so the regenerated numbers
//! in `EXPERIMENTS.md` are exactly what the benches exercise.

pub mod experiments;
pub mod microbench;
pub mod profile;
pub mod runner;

pub use experiments::{all_experiments, Experiment, ExperimentResult};
pub use profile::{kernel_profile_suite, ProfilePoint};
pub use runner::{ProfiledSweepPoint, RunSettings, SweepPoint};
