//! # dbmodel — TPSIM database and load model
//!
//! This crate implements section 3.1 of the paper: the database model
//! (partitions of uniformly accessed objects, blocking factors), the
//! Debit-Credit workload generator of the TP benchmark (Anon85), the
//! trace-driven workload generator (with a synthetic trace generator
//! standing in for the unavailable real-life trace), and the one synthetic
//! load the evaluation runs, the lock-contention workload of §4.7.  The
//! paper's general synthetic model (transaction-type mixes, fixed sizes,
//! sequential patterns, the relative reference matrix) is not modelled,
//! since that workload needs none of it.  Skewed access comes
//! from the Zipf hot spots of [`hotspot`], an extension; the paper's
//! generalized b/c-rule sub-partitions are not modelled, since its
//! evaluation (§4) never uses them.
//!
//! Workload generators produce [`TransactionTemplate`]s: the complete, ordered
//! list of object references (partition, page, object, read/write) that a
//! transaction will perform.  The transaction system in the `tpsim` crate
//! executes those templates against the simulated hardware.

pub mod database;
pub mod debit_credit;
pub mod hotspot;
pub mod sharding;
pub mod synthetic;
pub mod trace;
pub mod types;

pub use database::{Database, Partition, PartitionId};
pub use debit_credit::{DebitCreditConfig, DebitCreditGenerator};
pub use hotspot::{HotSpotParams, HotSpotSampler};
pub use sharding::{PartitionMap, PartitionScheme};
pub use synthetic::SyntheticWorkload;
pub use trace::{SyntheticTraceSpec, Trace, TraceGenerator, TraceTransaction};
pub use types::{
    AccessMode, ObjectId, ObjectRef, PageId, TransactionTemplate, TxTypeId, WorkloadGenerator,
};
