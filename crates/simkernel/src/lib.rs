//! # simkernel — discrete-event simulation kernel
//!
//! TPSIM (the transaction-processing simulator described in Rahm's
//! *Performance Evaluation of Extended Storage Architectures for Transaction
//! Processing*, TR 216/91) was originally written in the DeNet simulation
//! language.  DeNet is not available, so this crate provides the equivalent
//! substrate from scratch:
//!
//! * a [`time`] representation (simulated milliseconds),
//! * a deterministic [`events::EventQueue`] (future event list),
//! * FCFS multi-server [`resource::Resource`] stations with utilization and
//!   queue-length statistics,
//! * random [`dist`] sampling (exponential, uniform, discrete, zipf) on top of
//!   a seedable PRNG, and
//! * [`stats`] accumulators (tally and time-weighted) with warm-up support,
//! * the allocation-free building blocks of the per-operation path: the
//!   deterministic [`idhash`] hasher for maps keyed by simulator ids and the
//!   fixed-capacity [`inline::InlineVec`].
//!
//! The kernel is intentionally agnostic of what is being simulated: tokens are
//! opaque `u64` values minted by the caller, and the caller owns the
//! interpretation of every scheduled event.

pub mod dist;
pub mod events;
pub mod idhash;
pub mod inline;
pub mod resource;
pub mod rng;
pub mod sketch;
pub mod stats;
pub mod time;

pub use dist::{Draw, Exponential, PiecewiseRate, UniformRange};
pub use events::{EventQueue, ScheduledEvent};
pub use idhash::{IdBuildHasher, IdHasher, IdMap, IdSet};
pub use inline::InlineVec;
pub use resource::{Resource, ResourceStats};
pub use rng::SimRng;
pub use sketch::QuantileSketch;
pub use stats::{Counter, Histogram, Tally, TimeWeighted};
pub use time::SimTime;
