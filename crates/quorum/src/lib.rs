//! Replicated recorder quorum: consensus-sequenced capture with leader
//! failover.
//!
//! The single recorder of §3–§5 (and the statically-partitioned shard
//! tier of §6.3) leaves one hole: between checkpoints, the arrival
//! order a recorder assigns exists in exactly one place. Lose that
//! recorder permanently and the order — the very thing PUBLISHING
//! exists to remember — is gone. This crate closes the hole by
//! replicating the *arrival log* across a small group (3–5 replicas)
//! with a Raft-style consensus core:
//!
//! - every replica is a full [recorder](publishing_core::recorder) and
//!   captures the broadcast medium independently (the medium is the
//!   replication channel for message *bytes* — consensus only has to
//!   agree on *order*);
//! - the group leader assigns arrival sequences by proposing
//!   `Sequence{seq, msg}` entries; an entry is applied (published to
//!   stable storage) only once a majority has it, so a sequenced
//!   message survives any minority of replica losses;
//! - leader failover re-elects within a few election timeouts, and the
//!   volatile ack backlog every replica maintains lets the new leader
//!   resume sequencing with no gaps or duplicates;
//! - a recovering destination node replays from whichever replica
//!   leads — which need not be the replica that originally sequenced
//!   its messages.
//!
//! Module map: [`raft`] is the sans-IO consensus core, [`replica`]
//! fuses it with a recorder node, [`codec`] serialises catch-up
//! snapshot images, and [`world`] is the deterministic closed-loop
//! harness (clients + kernels + quorum group over the simulated LAN).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod raft;
pub mod replica;
pub mod world;

pub use raft::{Op, QMsg, RaftCore, RaftOut, RaftStats, ReplicaId, Role};
pub use replica::QuorumReplica;
pub use world::{QuorumTier, QuorumWorld};
