//! # tpsim — transaction processing over extended storage hierarchies
//!
//! A from-scratch reproduction of **TPSIM**, the simulation system of
//! E. Rahm, *Performance Evaluation of Extended Storage Architectures for
//! Transaction Processing* (TR 216/91, University of Kaiserslautern, 1991).
//!
//! TPSIM models a centralized transaction system (Fig. 3.1 of the paper):
//!
//! * a **SOURCE** generating the workload (Debit-Credit, the synthetic
//!   lock-contention load of §4.7, or database-trace replays — see the
//!   [`dbmodel`] crate),
//! * a **computing module (CM)** with a transaction manager, CPU servers, a
//!   concurrency-control component (strict two-phase locking, [`lockmgr`]),
//!   and a DBMS buffer manager ([`bufmgr`]), and
//! * **external storage**: regular disks, disks with volatile or non-volatile
//!   caches, solid-state disks, and non-volatile extended memory
//!   ([`storage`]).
//!
//! The crate's central type is [`Simulation`]: configure it with a
//! [`SimulationConfig`] and a workload generator, call [`Simulation::run`] and
//! obtain a [`SimulationReport`] with response times, throughput, device
//! utilizations, buffer hit ratios and lock statistics.
//!
//! ```
//! use tpsim::presets::{debit_credit_config, debit_credit_workload, DebitCreditStorage};
//! use tpsim::Simulation;
//!
//! // A small Debit-Credit run with the whole database on disk (NOFORCE).
//! let mut config = debit_credit_config(DebitCreditStorage::Disk, 50.0);
//! config.warmup_ms = 500.0;
//! config.measure_ms = 2_000.0;
//! let workload = debit_credit_workload(100); // scaled-down database
//! let report = Simulation::new(config, workload).run();
//! assert!(report.completed > 0);
//! assert!(report.response_time.mean > 0.0);
//! ```

// Every public item of the crate must be documented; CI builds docs with
// `RUSTDOCFLAGS=-D warnings`, which turns missed items into hard errors.
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod metrics;
pub mod presets;
pub mod recovery;
pub mod tables;

pub use config::{
    Architecture, CmParams, CoherenceParams, CoherenceProtocol, LogAllocation, NodeParams,
    PageTransfer, ParallelismParams, PartitioningParams, SimulationConfig, WorkloadParams,
    WorkloadSchedule,
};
pub use engine::Simulation;
pub use metrics::{
    CoherenceReport, DeviceReport, IoSchedulerReport, KernelProfile, NodeReport, RecoveryReport,
    ResponseTimeStats, RestartReport, ShippingReport, SimulationReport,
};

// Re-export the substrate crates so downstream users need only one dependency.
pub use bufmgr;
pub use dbmodel;
pub use lockmgr;
pub use simkernel;
pub use storage;
