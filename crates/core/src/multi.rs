//! Multiple recorders for reliability (§6.3).
//!
//! "During normal operation, all recorders record all messages. If there
//! are n recorders, n−1 can fail before the network becomes unavailable."
//! Each processing node carries a priority vector over the recorders; a
//! crashed node, and every process on it, is recovered by the
//! highest-priority recorder that is functioning, and lower-priority
//! recorders periodically re-check so a recorder that dies mid-recovery
//! is covered. Survivors "supply the acknowledges" for a dead recorder —
//! modelled by shrinking the medium's required-recorder set — and a
//! restarted recorder catches up through natural checkpointing before it
//! is required again.

use crate::node::{RecorderConfig, RecorderNode};
use crate::world::{RecorderTier, World, WorldBuilder};
use publishing_demos::ids::{NodeId, ProcessId};
use publishing_net::frame::StationId;
use publishing_obs::probe::RecoveryLag;
use publishing_sim::time::SimTime;
use std::collections::BTreeMap;

/// Per-node recorder priority orderings (the §6.3 vectors V_i).
#[derive(Debug, Clone, Default)]
pub struct PriorityVectors {
    /// For each node, recorder indices in descending priority.
    pub per_node: BTreeMap<NodeId, Vec<usize>>,
}

impl PriorityVectors {
    /// Round-robin default: node k's vector starts at recorder k mod m.
    pub fn round_robin(nodes: u32, recorders: usize) -> Self {
        let mut per_node = BTreeMap::new();
        for n in 0..nodes {
            let v: Vec<usize> = (0..recorders)
                .map(|i| (n as usize + i) % recorders)
                .collect();
            per_node.insert(NodeId(n), v);
        }
        PriorityVectors { per_node }
    }

    /// The recorder responsible for `node` given per-recorder liveness:
    /// the first functioning recorder in the node's vector.
    pub fn responsible(&self, node: NodeId, alive: &[bool]) -> Option<usize> {
        self.per_node
            .get(&node)?
            .iter()
            .copied()
            .find(|&r| alive.get(r).copied().unwrap_or(false))
    }
}

/// The §6.3 tier: every recorder records everything; priority vectors
/// pick who restarts a node and recovers its processes.
pub struct PriorityTier {
    /// The recorders.
    pub recorders: Vec<RecorderNode>,
    /// Priority vectors.
    pub priorities: PriorityVectors,
    /// Recorders waiting to be re-required once caught up: (index, since).
    rejoining: Vec<(usize, SimTime)>,
}

impl RecorderTier for PriorityTier {
    fn members(&self) -> usize {
        self.recorders.len()
    }

    fn node(&self, idx: usize) -> &RecorderNode {
        &self.recorders[idx]
    }

    fn node_mut(&mut self, idx: usize) -> &mut RecorderNode {
        &mut self.recorders[idx]
    }

    /// Survivors "supply the acknowledges" for a dead recorder, and a
    /// restarted one is not required again until it has caught up.
    fn required(&self) -> Vec<StationId> {
        (0..self.recorders.len())
            .filter(|i| self.recorders[*i].is_up())
            .filter(|i| !self.rejoining.iter().any(|(j, _)| j == i))
            .map(|i| self.recorders[i].station())
            .collect()
    }

    fn member_crashed(world: &mut World<Self>, idx: usize) {
        world.tier.rejoining.retain(|(i, _)| *i != idx);
        world.refresh_required();
    }

    fn member_restarted(world: &mut World<Self>, idx: usize) {
        let now = world.now();
        world.tier.rejoining.push((idx, now));
        world.refresh_required();
    }

    /// Re-admits rejoining recorders once caught up.
    fn after_event(world: &mut World<Self>, _now: SimTime) {
        let tier = &mut world.tier;
        if tier.rejoining.is_empty() {
            return;
        }
        let before = tier.rejoining.len();
        let recorders = &tier.recorders;
        tier.rejoining
            .retain(|(i, since)| !recorders[*i].recorder().caught_up(*since));
        if tier.rejoining.len() != before {
            world.refresh_required();
        }
    }

    /// §6.3: the highest-priority live recorder in the vector of the
    /// pid's node — for a node's kernel endpoint, the one that restarts
    /// the node. One still rejoining (its log lacks what it missed while
    /// down) counts only if no caught-up one is up.
    fn authority(&self, pid: ProcessId) -> Option<usize> {
        let vector = self.priorities.per_node.get(&pid.node)?.iter().copied();
        let mut up = vector.filter(|&r| self.recorders.get(r).is_some_and(|r| r.is_up()));
        let admitted = |r: &usize| !self.rejoining.iter().any(|(j, _)| j == r);
        up.clone().find(admitted).or_else(|| up.next())
    }

    fn metric_prefix(&self, idx: usize) -> String {
        format!("recorder/{idx}")
    }

    /// Every recorder holds every process; read the first live one.
    fn recovery_lags(&self, now: SimTime, suppressed: &BTreeMap<u64, u64>) -> Vec<RecoveryLag> {
        self.recorders
            .iter()
            .find(|r| r.is_up())
            .map(|r| crate::obs::recovery_lags(r.recorder(), now, suppressed))
            .unwrap_or_default()
    }
}

/// A world with several recorders. Crash and restart one with
/// [`World::crash_member`] / [`World::restart_member`]: survivors cover
/// for a dead recorder (the required set shrinks), and a restarted one
/// catches up via natural checkpointing before the medium requires its
/// acknowledgement again.
pub type MultiWorld = World<PriorityTier>;

impl PriorityTier {
    /// Builds a world of `n_recorders` recorders, each recording
    /// everything, on the node ids after `builder`'s processing nodes,
    /// with round-robin priority vectors.
    pub fn world(builder: WorldBuilder, n_recorders: usize) -> MultiWorld {
        let nodes = builder.nodes();
        let recorders = (0..n_recorders as u32)
            .map(|i| RecorderNode::new(NodeId(nodes + i), RecorderConfig::default()))
            .collect();
        builder.build_with(PriorityTier {
            recorders,
            priorities: PriorityVectors::round_robin(nodes, n_recorders),
            rejoining: Vec::new(),
        })
    }
}
