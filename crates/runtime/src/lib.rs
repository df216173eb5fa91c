//! Block-graph streaming runtime.
//!
//! No simulation runs on this crate any more: the engine and the city
//! run their stages on `anc-sim`'s ordered fork-join pool. Its only
//! user is perfbench's replay, which times the ring handoff and the
//! idle block poll for its `runtime.*` metrics. The crate provides a
//! graph substrate, free of simulation types:
//!
//! * [`ring`] — fixed-capacity single-producer/single-consumer ring
//!   buffers (the only inter-block channel; bounded, allocation-free
//!   after construction, `#![forbid(unsafe_code)]`-clean);
//! * [`block`] — the poll-driven [`Block`] trait: a block makes
//!   whatever progress its rings currently allow and reports it;
//! * [`sched`] — the [`Scheduler`] trait with two executors: the
//!   [`DeterministicScheduler`] (inline, single-threaded, polls blocks
//!   in insertion order — the bit-reproducible reference) and the
//!   [`WorkStealingScheduler`] (scoped worker threads that scan the
//!   block list and steal whichever block is both runnable and
//!   unclaimed).
//!
//! # Determinism contract
//!
//! A block graph whose blocks are *pure functions of their ring
//! inputs* (all shared mutable state partitioned per block, all
//! cross-block traffic through rings) computes the same values under
//! every scheduler: rings are FIFO, so each block sees the same input
//! sequence regardless of interleaving, so the work-stealing executor
//! is bit-identical to the deterministic one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod ring;
pub mod sched;

pub use block::{Block, BlockStatus};
pub use ring::{channel, Consumer, Producer};
pub use sched::{Controller, DeterministicScheduler, Pump, Scheduler, WorkStealingScheduler};
