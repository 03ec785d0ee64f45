//! Sharded recorder tier: partitions the published-message log and
//! checkpoint store across N recorder instances by rendezvous (HRW)
//! hashing over destination `ProcessId`.

#![forbid(unsafe_code)]

pub mod map;
pub mod router;
pub mod world;

pub use map::{ShardId, ShardMap};
pub use router::ShardRouter;
pub use world::{ShardTier, ShardedWorld};
