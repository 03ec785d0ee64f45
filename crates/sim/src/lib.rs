//! Deterministic discrete-event simulation substrate for the PUBLISHING
//! reproduction.
//!
//! This crate provides the virtual-time machinery every other crate in the
//! workspace builds on:
//!
//! - [`time`]: integer-nanosecond virtual instants and durations;
//! - [`event`]: a totally ordered event queue with a clock;
//! - [`rng`]: self-contained deterministic PRNG and the distributions the
//!   evaluation workloads need;
//! - [`codec`]: an explicit binary codec for checkpoints and wire messages;
//! - [`stats`]: counters, summaries, histograms, and the time-weighted
//!   utilization integrator behind Figure 5.5;
//! - [`ledger`]: typed-resource busy timelines, queue-occupancy gauges,
//!   and the binding-resource ranking behind the capacity lens;
//! - [`table`]: tables indexed by the tokens and ids the simulation hands
//!   out itself (timers, IO, captures; process and message ids);
//! - [`fault`]: message-fault probabilities (frame loss, corruption,
//!   duplication).
//!
//! Nothing here knows about networks, kernels, or recorders; those live in
//! `publishing-net`, `publishing-demos`, and `publishing-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod event;
pub mod fault;
pub mod ledger;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;

pub use codec::{CodecError, Decode, Decoder, Encode, Encoder};
pub use event::Scheduler;
pub use fault::FaultPlan;
pub use ledger::{LevelGauge, ResourceKind, ResourceUsage, Timeline};
pub use rng::DetRng;
pub use stats::{Counter, LinearHistogram, LogHistogram, Summary, Utilization};
pub use table::{IdMap, TokenTable};
pub use time::{SimDuration, SimTime};
