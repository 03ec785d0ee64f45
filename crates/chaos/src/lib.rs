//! Deterministic chaos engine for the published-communications worlds.
//!
//! The engine closes the loop the individual fault hooks open up:
//!
//! 1. [`schedule`] *generates* seeded [`FaultSchedule`]s — crash storms
//!    over processes, nodes and the members of the recorder tier (the
//!    recorder, a shard, a quorum replica: one fault kind addresses all
//!    three), frame loss/corruption/duplication bursts, transient
//!    disk-IO windows and torn-writes-on-crash — from a compact
//!    [`ChaosConfig`], biased toward the hard timings (crash during
//!    recovery, crash during rebalance);
//! 2. [`driver`] *replays* a schedule against a target world as a client
//!    of the world's clock: it runs the world up to each scheduled
//!    instant, injects between two events and runs on until the world
//!    has settled. The simulator knows nothing of faults, and a run is
//!    a pure function of its literal — no wall clock;
//! 3. [`oracle`] *checks* the recovery invariants after every schedule:
//!    all recoveries converge (replay lag drains to zero, no shard left
//!    catching up, every spawned process running or destroyed on
//!    purpose), every client's deduplicated output equals the
//!    fault-free baseline (no lost or duplicated delivery), replayed
//!    read prefixes match the pre-crash prefix, and suppressions only
//!    ever arise from recoveries;
//! 4. [`shrink`] *minimizes* a failing schedule by deterministic
//!    delta-debugging — drop faults to a fixpoint, then bisect each
//!    fault's timing at millisecond granularity — down to a reproducer
//!    printable as a replayable `--schedule` literal that names its
//!    world ([`Scenario::reproducer`]).
//!
//! [`FaultSchedule`]: schedule::FaultSchedule
//! [`ChaosConfig`]: schedule::ChaosConfig

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod oracle;
pub mod scenario;
pub mod schedule;
pub mod shrink;

pub use driver::Engine;
pub use oracle::OracleOptions;
pub use scenario::{
    Medium, PingEcho, PlanLink, PlanSpawn, Scenario, Topology, Tuning, WorkloadSource, NODES,
};
pub use schedule::{ChaosConfig, Fault, FaultSchedule};
