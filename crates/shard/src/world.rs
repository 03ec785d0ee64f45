//! The sharded recorder tier: N recorder shards behind one world engine.
//!
//! [`ShardTier`] generalizes `publishing_core`'s single recorder and
//! §6.3 replicated recorders: the published log and checkpoint store
//! are *partitioned* across shards by the HRW [`ShardMap`], with R-way
//! replication inside each pid's capture set. With two shards every
//! member is in every capture set, which is §6.3 ("all recorders record
//! all messages"). The tier owns the map;
//! at world build and at every cutover it installs a [`ShardRouter`]
//! snapshot of it into the medium (per-frame ack ownership) and into
//! each shard's recorder (ownership filter). It answers the world's
//! `authority` with the responsible shard, and implements the tier's
//! orchestration on top of the shared [`World`] engine:
//!
//! - **parallel recovery** — a crashed node's processes are recovered
//!   concurrently, each by the shard responsible for it, after the shard
//!   responsible for the node's kernel endpoint restarts it and
//!   announces the restart;
//! - **failover** — when a shard dies, its pids fall to their next-
//!   ranked live shard (which already holds their log, R ≥ 2), the
//!   capture sets are re-replicated to restore R copies, and the world's
//!   hand-off has the newly responsible shard query their states so
//!   recoveries that died with the shard restart cleanly;
//! - **rebalancing** — a new shard drains the log segments of the pids
//!   it claims from their current holders, then the map epoch is bumped
//!   and a [`ShardCutover`] control message is published on the medium.

use crate::map::{ShardId, ShardMap};
use crate::router::ShardRouter;
use publishing_core::node::{RecorderConfig, RecorderNode};
use publishing_core::world::{RecorderTier, World, WorldBuilder};
use publishing_demos::ids::{Channel, MessageId, NodeId, ProcessId};
use publishing_demos::kernel::encode_ctl;
use publishing_demos::message::{Message, MessageHeader};
use publishing_demos::protocol::{codes, ShardCutover};
use publishing_demos::transport::Wire;
use publishing_net::frame::{Destination, Frame, StationId};
use publishing_net::lan::RecorderRouter;
use publishing_obs::probe::{RecoveryLag, ShardHealth};
use publishing_obs::registry::MetricsRegistry;
use publishing_obs::report::ObsReport;
use publishing_sim::codec::Encode;
use publishing_sim::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Capture sets, per pid, before a membership change.
type Placement = BTreeMap<ProcessId, Vec<ShardId>>;

/// The sharded recorder tier: the shards, their map, the snapshot of it
/// the medium and the shards answer from, and the rebalance bookkeeping.
pub struct ShardTier {
    /// The recorder shards; index i is [`ShardId`]`(i)`.
    pub shards: Vec<RecorderNode>,
    /// Membership and liveness. Every change to it ends in `cut_over`.
    map: ShardMap,
    /// The map as `cut_over` last installed it.
    ownership: Arc<ShardRouter>,
    /// Every pid ever spawned (rebalance and hand-off bookkeeping).
    processes: BTreeSet<ProcessId>,
    /// Restarted shards catching up before being readmitted: (idx, since).
    rejoining: Vec<(usize, SimTime)>,
    cutovers_published: u64,
}

/// A world whose recorder tier is sharded. Crash and restart a shard
/// with [`World::crash_member`] / [`World::restart_member`]; build one,
/// admit a new shard and read the tier's health through [`ShardTier`].
pub type ShardedWorld = World<ShardTier>;

/// Takes a snapshot of `map` with capture sets of `r` shards, installs
/// it as every shard's ownership filter, and returns it for the medium.
fn install(shards: &mut [RecorderNode], map: &ShardMap, r: usize) -> Arc<ShardRouter> {
    let snapshot = Arc::new(ShardRouter::new(map, r, |s| shards[s.0 as usize].station()));
    for (i, rn) in shards.iter_mut().enumerate() {
        rn.set_ownership_filter(Some(snapshot.owner_filter(ShardId(i as u32))));
    }
    snapshot
}

impl RecorderTier for ShardTier {
    fn members(&self) -> usize {
        self.shards.len()
    }

    fn node(&self, idx: usize) -> &RecorderNode {
        &self.shards[idx]
    }

    fn node_mut(&mut self, idx: usize) -> &mut RecorderNode {
        &mut self.shards[idx]
    }

    fn router(&self) -> Option<RecorderRouter> {
        Some(self.ownership.recorder_router())
    }

    /// The global fallback required set: every live, admitted shard.
    /// Only undecodable frames ever consult it; everything else goes
    /// through the per-frame router.
    fn required(&self) -> Vec<StationId> {
        let live = self.map.live();
        live.map(|s| self.shards[s.0 as usize].station()).collect()
    }

    /// The dead shard's pids fail over to their next-ranked live shard
    /// (which, with R ≥ 2, already holds their full log); capture sets
    /// are re-replicated and inherited recoveries re-queried (the
    /// world's hand-off).
    fn member_crashed(world: &mut World<Self>, idx: usize) {
        let placement = world.tier.placement();
        world.tier.rejoining.retain(|(i, _)| *i != idx);
        world.tier.map.set_live(ShardId(idx as u32), false);
        ShardTier::cut_over(world, world.now(), &placement);
    }

    /// The restarted shard has rebuilt from its store and records its
    /// pids again at once (its ownership filter counts it even while
    /// not readmitted); it is marked live — regaining responsibility —
    /// only once every process it knows has checkpointed since.
    fn member_restarted(world: &mut World<Self>, idx: usize) {
        let now = world.now();
        world.tier.rejoining.push((idx, now));
    }

    /// Readmits rejoining shards once they have caught up (§6.3:
    /// natural checkpointing brings a returning recorder up to date).
    fn after_event(world: &mut World<Self>, now: SimTime) {
        let tier = &mut world.tier;
        if tier.rejoining.is_empty() {
            return;
        }
        let shards = &tier.shards;
        let (done, waiting) = std::mem::take(&mut tier.rejoining)
            .into_iter()
            .partition(|(i, since)| shards[*i].recorder().caught_up(*since));
        tier.rejoining = waiting;
        for (idx, _) in done {
            let placement = world.tier.placement();
            world.tier.map.set_live(ShardId(idx as u32), true);
            ShardTier::cut_over(world, now, &placement);
        }
    }

    fn on_spawn(&mut self, pid: ProcessId) {
        self.processes.insert(pid);
    }

    /// Every spawned pid: a shard may answer for one whose creation it
    /// has not captured yet.
    fn handed_over(&self, _idx: usize) -> Vec<ProcessId> {
        self.processes.iter().copied().collect()
    }

    /// No restarted shard is still catching up before readmission.
    fn at_rest(&self) -> bool {
        self.rejoining.is_empty()
    }

    /// The shard answering for `pid` right now: its top-ranked live shard.
    /// For a node's kernel endpoint, this generalizes the §6.3 priority
    /// vector: the vector for node `n` is the HRW ranking of its kernel
    /// pid, and the highest-priority live shard restarts the node.
    fn authority(&self, pid: ProcessId) -> Option<usize> {
        self.map.responsible(pid).map(|sid| sid.0 as usize)
    }

    fn metric_prefix(&self, idx: usize) -> String {
        format!("shard/{idx}")
    }

    /// One probe per process, read from the shard currently responsible
    /// for it (capture-set replicas would repeat the same entry).
    fn recovery_lags(&self, now: SimTime, suppressed: &BTreeMap<u64, u64>) -> Vec<RecoveryLag> {
        let mut out = Vec::new();
        for &pid in &self.processes {
            let Some(idx) = self.authority(pid) else {
                continue;
            };
            let rec = self.shards[idx].recorder();
            let mut lags = publishing_core::obs::recovery_lags(rec, now, suppressed);
            lags.retain(|l| l.subject == pid.as_u64());
            out.extend(lags);
        }
        out
    }

    fn collect(world: &World<Self>, reg: &mut MetricsRegistry) {
        for h in ShardTier::health(world) {
            h.into_registry(reg);
        }
    }

    fn report(world: &World<Self>, report: &mut ObsReport) {
        report.shards = ShardTier::health(world);
    }
}

impl ShardTier {
    /// Builds a world of `n_shards` recorder shards (on the node ids
    /// after `builder`'s processing nodes), with capture sets of
    /// min(2, n_shards) shards. With two shards that is §6.3's
    /// replicated recorders: both record every message, and a pid's HRW
    /// ranking is its priority vector (the top-ranked live member
    /// recovers it, and for a node's kernel pid, restarts the node).
    pub fn world(builder: WorldBuilder, n_shards: usize) -> ShardedWorld {
        let map = ShardMap::new(n_shards as u32);
        let mut shards: Vec<RecorderNode> = (0..n_shards as u32)
            .map(|i| RecorderNode::new(NodeId(builder.nodes() + i), RecorderConfig::default()))
            .collect();
        let ownership = install(&mut shards, &map, 2.min(n_shards.max(1)));
        builder.build_with(ShardTier {
            shards,
            map,
            ownership,
            processes: BTreeSet::new(),
            rejoining: Vec::new(),
            cutovers_published: 0,
        })
    }

    /// The shard map as it stands.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Cutover control messages published so far.
    pub fn cutovers_published(&self) -> u64 {
        self.cutovers_published
    }

    /// Admits a brand-new shard: drains the log segments of every pid
    /// the new shard claims from their current holders, bumps the map
    /// epoch, publishes the cutover, and releases the drained segments
    /// from the members they moved off of.
    pub fn add_shard(world: &mut World<Self>) -> ShardId {
        let now = world.now();
        let idx = world.tier.shards.len();
        let sid = ShardId(idx as u32);
        let node = NodeId(world.nodes() + idx as u32);
        let placement = world.tier.placement();
        let mut rn = RecorderNode::new(node, RecorderConfig::default());
        rn.set_ownership_filter(Some(world.tier.ownership.owner_filter(sid)));
        world.lan.attach(rn.station());
        world.tier.shards.push(rn);
        for k in &mut world.kernels {
            k.add_recorder(node);
        }
        let watch = world.watch_list();
        world.with_member(now, idx, |tier, out| {
            tier.shards[idx].start(now, &watch, out)
        });
        // Cutover: membership change first (one epoch bump, installed
        // everywhere at once), then drain/release against the old placement.
        world.tier.map.add_shard(sid);
        ShardTier::cut_over(world, now, &placement);
        sid
    }

    /// Capture sets as the map stands — taken before a membership
    /// change, to reconcile against after it.
    fn placement(&self) -> Placement {
        let r = self.ownership.replication();
        let capture_set = |&p| (p, self.map.capture_set(p, r));
        self.processes.iter().map(capture_set).collect()
    }

    /// Point-in-time health of every shard in the tier.
    pub fn health(world: &World<Self>) -> Vec<ShardHealth> {
        let tier = &world.tier;
        (0..tier.shards.len())
            .map(|i| {
                let rn = &tier.shards[i];
                let rec = rn.recorder();
                ShardHealth {
                    shard: i as u32,
                    live: rn.is_up(),
                    catching_up: tier.rejoining.iter().any(|(j, _)| *j == i),
                    queue_depth: rec.pending_depth() as u64,
                    known_processes: rec.known_pids().count() as u64,
                    recoveries_in_flight: rn.manager().job_pids().len() as u64,
                    replay_lag: publishing_core::obs::replay_lag(rec, rn.manager()),
                    gating_stalls: world.lan.stats().blocked_at(rn.station()),
                    published: rec.stats().published.get(),
                }
            })
            .collect()
    }

    /// Completes a membership change already made in the map: a snapshot
    /// of it installed in every shard and the medium before anything
    /// asks, new fallback required set, placement reconciled against
    /// `before`, cutover published.
    fn cut_over(world: &mut World<Self>, now: SimTime, before: &Placement) {
        let tier = &mut world.tier;
        tier.ownership = install(&mut tier.shards, &tier.map, tier.ownership.replication());
        world.lan.set_recorder_router(world.tier.router());
        world.refresh_required();
        ShardTier::reconcile_placement(world, now, before);
        ShardTier::publish_cutover(world, now);
    }

    /// After a map change: restore R-way replication by draining log
    /// segments into newly responsible capture-set members, release
    /// segments from members that dropped out, then hand off: a shard
    /// that inherited a pid from a dead one queries its state (a
    /// recovery that died with the old shard must restart).
    fn reconcile_placement(world: &mut World<Self>, now: SimTime, before: &Placement) {
        let r = world.tier.ownership.replication();
        for (&pid, old_set) in before {
            let new_set = world.tier.map.capture_set(pid, r);
            for &s in new_set.iter().filter(|s| !old_set.contains(s)) {
                let tgt = s.0 as usize;
                let shards = &mut world.tier.shards;
                if !shards[tgt].is_up() {
                    continue;
                }
                // A readmitted shard kept capturing its pids while it
                // was marked dead (its ownership filter counts itself),
                // so its segment is already complete — don't re-drain.
                if shards[tgt].recorder().entry(pid).is_some() {
                    continue;
                }
                let export = old_set.iter().find_map(|&o| {
                    let src = o.0 as usize;
                    if src != tgt && shards[src].is_up() {
                        shards[src].export_process(pid)
                    } else {
                        None
                    }
                });
                if let Some(export) = export {
                    world.with_member(now, tgt, |tier, out| {
                        tier.shards[tgt].import_process(now, export, out)
                    });
                }
            }
            for &s in old_set.iter().filter(|s| !new_set.contains(s)) {
                let src = s.0 as usize;
                if world.tier.shards[src].is_up() {
                    world.with_member(now, src, |tier, out| {
                        tier.shards[src].release_process(now, pid, out)
                    });
                }
            }
        }
        world.hand_off(now);
    }

    /// Publishes the new map epoch as a control message on the medium —
    /// the §4 publishing principle applied to the tier's own
    /// reconfiguration: the cutover is part of the recorded broadcast
    /// history, not a side channel.
    fn publish_cutover(world: &mut World<Self>, now: SimTime) {
        let tier = &mut world.tier;
        let (epoch, live_shards) = (tier.map.epoch(), tier.map.live().count() as u32);
        let Some(src) = tier.shards.iter().find(|s| s.is_up()) else {
            return;
        };
        let src_node = src.node();
        let body = encode_ctl(codes::SHARD_CUTOVER, &ShardCutover { epoch, live_shards });
        tier.cutovers_published += 1;
        let seq = (epoch << 16) | tier.cutovers_published;
        for n in 0..world.nodes() {
            let msg = Message {
                header: MessageHeader {
                    id: MessageId {
                        sender: ProcessId::kernel_of(src_node),
                        seq,
                    },
                    to: ProcessId::kernel_of(NodeId(n)),
                    code: 0,
                    channel: Channel::DEFAULT,
                    deliver_to_kernel: false,
                },
                passed_link: None,
                body: body.clone(),
            };
            let wire = Wire::Datagram { src_node, msg };
            let frame = Frame::new(
                StationId(src_node.0),
                Destination::Station(StationId(n)),
                wire.encode_to_bytes(),
            );
            world.submit(now, frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use publishing_demos::link::Link;
    use publishing_demos::programs::{self, PingClient};
    use publishing_demos::registry::ProgramRegistry;

    fn registry() -> ProgramRegistry {
        let mut reg = ProgramRegistry::new();
        programs::register_standard(&mut reg);
        reg.register("ping10", || Box::new(PingClient::new(10)));
        reg
    }

    #[test]
    fn each_pid_is_recorded_by_its_capture_set() {
        let mut w = ShardTier::world(WorldBuilder::new(2).registry(registry()), 3);
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_secs(5));
        for pid in [server, client] {
            let caps = w.tier.map().capture_set(pid, 2);
            for i in 0..w.tier.shards.len() {
                let has = w.tier.shards[i].recorder().entry(pid).is_some();
                let should = caps.contains(&ShardId(i as u32));
                assert_eq!(has, should, "shard {i} vs capture set {caps:?} for {pid:?}");
            }
        }
    }

    #[test]
    fn process_crash_recovered_by_responsible_shard_only() {
        let mut w = ShardTier::world(WorldBuilder::new(2).registry(registry()), 3);
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_millis(40));
        w.crash_process(server, "injected");
        w.run_until(SimTime::from_secs(10));
        let out = w.outputs_of(client);
        assert_eq!(out.len(), 11, "{out:?}");
        let responsible = w.tier.map().responsible(server).unwrap();
        for i in 0..w.tier.shards.len() {
            let completed = w.tier.shards[i].manager().stats().completed.get();
            if i == responsible.0 as usize {
                assert_eq!(completed, 1, "responsible shard recovers");
            } else {
                assert_eq!(completed, 0, "shard {i} must defer");
            }
        }
    }

    #[test]
    fn add_shard_publishes_cutover_and_keeps_working() {
        let mut w = ShardTier::world(WorldBuilder::new(2).registry(registry()), 2);
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_millis(30));
        let epoch_before = w.tier.map().epoch();
        let sid = ShardTier::add_shard(&mut w);
        assert_eq!(sid, ShardId(2));
        assert!(w.tier.map().epoch() > epoch_before);
        assert_eq!(w.tier.cutovers_published(), 1);
        w.run_until(SimTime::from_secs(5));
        let out = w.outputs_of(client);
        assert_eq!(out.len(), 11, "{out:?}");
    }
}
