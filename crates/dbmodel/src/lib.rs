//! # dbmodel — TPSIM database and load model
//!
//! This crate implements section 3.1 of the paper: the database model
//! (partitions of uniformly accessed objects, blocking factors), the
//! synthetic workload model (transaction types, relative reference matrix,
//! sequential/non-sequential and fixed/variable-size transactions), the
//! Debit-Credit workload generator of the TP benchmark (Anon85), and the
//! trace-driven workload generator (with a synthetic trace generator
//! standing in for the unavailable real-life trace).  Skewed access comes
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
pub mod reference;
pub mod sharding;
pub mod synthetic;
pub mod trace;
pub mod types;

pub use database::{Database, Partition, PartitionId};
pub use debit_credit::{DebitCreditConfig, DebitCreditGenerator};
pub use hotspot::{HotSpotParams, HotSpotSampler};
pub use reference::ReferenceMatrix;
pub use sharding::{PartitionMap, PartitionScheme};
pub use synthetic::{SyntheticWorkload, TransactionTypeSpec};
pub use trace::{SyntheticTraceSpec, Trace, TraceGenerator, TraceTransaction};
pub use types::{
    AccessMode, ObjectId, ObjectRef, PageId, TransactionTemplate, TxTypeId, WorkloadGenerator,
};
