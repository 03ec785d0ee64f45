//! The replicated-recorder tier: a quorum group of recorder replicas
//! behind the shared world engine.
//!
//! Where `publishing-core`'s default tier is one recorder and
//! `publishing-shard`'s partitions the log, [`QuorumTier`] replaces the
//! recorder with a consensus group: every replica captures every frame
//! (the medium replicates bytes for free, §3.2), the elected leader
//! sequences arrivals through the replicated log, and the group
//! survives the crash of any minority — including the leader, mid-
//! commit — without losing or duplicating an arrival sequence.

use crate::replica::{AppliedLog, QuorumReplica};
use publishing_core::node::{RNAction, RecorderNode};
use publishing_core::world::{RecorderTier, World, WorldBuilder};
use publishing_demos::ids::{MessageId, NodeId, ProcessId};
use publishing_demos::transport::Wire;
use publishing_net::frame::{Frame, StationId};
use publishing_net::lan::RecorderRouter;
use publishing_obs::probe::{QuorumHealth, RecoveryLag};
use publishing_obs::registry::MetricsRegistry;
use publishing_obs::report::{ConsensusStats, ObsReport, WatchdogSummary};
use publishing_obs::watchdog::Watchdog;
use publishing_sim::ledger::{ResourceKind, ResourceUsage, Timeline};
use publishing_sim::stats::LogHistogram;
use publishing_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// Virtual-time cadence of the online invariant watchdog.
const WATCHDOG_PERIOD: SimDuration = SimDuration::from_millis(25);

/// A recorder-consensus router: consensus, datagram, and kernel
/// control traffic is never gated on capture (it must flow during
/// elections and while replicas are down); everything else falls back
/// to the live-replica required set. It appends nothing: a frame it
/// routes is ungated.
fn quorum_router() -> RecorderRouter {
    Arc::new(|frame: &Frame, _ungated: &mut Vec<StationId>| {
        // Most frames on this medium are consensus traffic: the tag
        // settles those without reading an Append's entries. The rest
        // are read in place: a datagram or an epoch notice has no
        // destination process, control traffic a kernel one.
        let payload = frame.payload();
        Wire::is_quorum(payload)
            || Wire::peek_dst(payload).is_ok_and(|dst| dst.is_none_or(|d| d.is_kernel()))
    })
}

/// The quorum recorder tier: the replica group plus the safety
/// bookkeeping that watches it.
pub struct QuorumTier {
    /// The recorder quorum group, by replica index.
    pub replicas: Vec<QuorumReplica>,
    /// Leader observed for each term, with the election-safety
    /// violations found while tracking.
    term_leaders: BTreeMap<u64, u32>,
    election_violations: Vec<String>,
    /// Online invariant watchdog, evaluated every [`WATCHDOG_PERIOD`]
    /// of virtual time as events dispatch.
    watchdog: Watchdog,
    next_watchdog_scan: SimTime,
    /// Busy-while-leaderless availability meter: charged whenever a
    /// watchdog scan finds no leader, closed when one is observed.
    leaderless: Timeline,
    leaderless_since: Option<SimTime>,
}

/// The running quorum world. Crash and restart a replica with
/// [`World::crash_member`] / [`World::restart_member`]: a minority crash
/// leaves the group live — the capture gate shrinks to the survivors
/// and, if the leader died, a new election begins within a few
/// timeouts — and a restarted replica rejoins as a follower and catches
/// up from the leader's log or a snapshot.
pub type QuorumWorld = World<QuorumTier>;

impl RecorderTier for QuorumTier {
    fn members(&self) -> usize {
        self.replicas.len()
    }

    fn node(&self, idx: usize) -> &RecorderNode {
        self.replicas[idx].recorder_node()
    }

    fn node_mut(&mut self, idx: usize) -> &mut RecorderNode {
        self.replicas[idx].recorder_node_mut()
    }

    fn start(&mut self, idx: usize, now: SimTime, watch: &[NodeId], out: &mut Vec<RNAction>) {
        self.replicas[idx].start(now, watch, out);
        self.note_leadership(idx);
    }

    fn on_frame(
        &mut self,
        idx: usize,
        now: SimTime,
        frame: &Frame,
        recorder_ok: bool,
        out: &mut Vec<RNAction>,
    ) {
        self.replicas[idx].on_frame(now, frame, recorder_ok, out);
        self.note_leadership(idx);
    }

    fn listens(&self, idx: usize, frame: &Frame) -> bool {
        self.replicas[idx].listens(frame)
    }

    fn on_timer(&mut self, idx: usize, now: SimTime, token: u64, out: &mut Vec<RNAction>) {
        self.replicas[idx].on_timer(now, token, out);
        self.note_leadership(idx);
    }

    fn crash(&mut self, idx: usize) {
        self.replicas[idx].crash();
    }

    fn restart(&mut self, idx: usize, now: SimTime, out: &mut Vec<RNAction>) {
        self.replicas[idx].restart(now, out);
        self.note_leadership(idx);
    }

    fn router(&self) -> Option<RecorderRouter> {
        Some(quorum_router())
    }

    /// The capture gate follows group membership: every live replica
    /// must capture a frame for it to count as published (§6.3's
    /// "explicit act of the recovery layer" — here, of the consensus
    /// layer).
    fn required(&self) -> Vec<StationId> {
        self.replicas
            .iter()
            .filter(|r| r.is_up())
            .map(|r| r.station())
            .collect()
    }

    /// Commit index is volatile state: a crashed replica re-learns it
    /// from the leader after restart, so the watchdog's monotonicity
    /// floor resets; the capture gate follows the live membership.
    fn member_crashed(world: &mut World<Self>, idx: usize) {
        let id = world.tier.replicas[idx].id();
        world.tier.watchdog.reset_replica(id);
        world.refresh_required();
    }

    /// The same two resets: the restarted replica starts from a fresh
    /// commit floor and is required again at once.
    fn member_restarted(world: &mut World<Self>, idx: usize) {
        QuorumTier::member_crashed(world, idx);
    }

    fn after_event(world: &mut World<Self>, now: SimTime) {
        let tier = &mut world.tier;
        if now >= tier.next_watchdog_scan {
            tier.watchdog_scan(now);
            tier.next_watchdog_scan = now + WATCHDOG_PERIOD;
        }
    }

    /// Somebody leads, and everything in the leader's log is committed
    /// and applied on every live replica.
    fn at_rest(&self) -> bool {
        let Some(leader) = self.leader() else {
            return false;
        };
        let last = self.replicas[leader].raft().last_index();
        self.replicas.iter().filter(|r| r.is_up()).all(|r| {
            let raft = r.raft();
            raft.commit_index() == last && raft.applied_index() == last
        })
    }

    fn metric_prefix(&self, idx: usize) -> String {
        format!("quorum/{idx}")
    }

    /// The leader once its own term has settled, for every pid (and so
    /// for every node's restart): it drives recovery. Nobody before
    /// that — a new leader's recorder may still lack inherited entries —
    /// and a recovery proposed meanwhile waits in the world's hand-off.
    fn authority(&self, _pid: ProcessId) -> Option<usize> {
        self.replicas.iter().position(|r| r.leads_settled_term())
    }

    /// Until the leader has applied every arrival it proposed for `pid`
    /// — after an election, the whole backlog acknowledged while nobody
    /// led — a replay from it would miss deliveries the kernel already
    /// took.
    fn caught_up_on(&self, idx: usize, pid: ProcessId) -> bool {
        self.replicas[idx].applied_all_proposed(pid)
    }

    /// Read from the leader (or the first live replica when leaderless).
    fn recovery_lags(&self, now: SimTime, suppressed: &BTreeMap<u64, u64>) -> Vec<RecoveryLag> {
        let Some(idx) = self
            .leader()
            .or_else(|| self.replicas.iter().position(|r| r.is_up()))
        else {
            return Vec::new();
        };
        publishing_core::obs::recovery_lags(self.node(idx).recorder(), now, suppressed)
    }

    fn collect(world: &World<Self>, reg: &mut MetricsRegistry) {
        let tier = &world.tier;
        for (i, r) in tier.replicas.iter().enumerate() {
            let consensus = format!("{}/consensus", tier.metric_prefix(i));
            reg.histogram(
                &format!("{consensus}/commit_latency_us"),
                r.commit_latency_us(),
            );
            reg.linear_histogram(
                &format!("{consensus}/replication_lag"),
                r.replication_lag_hist(),
            );
            reg.counter(format!("{consensus}/frames_sent"), r.frames_sent());
            reg.counter(
                format!("{consensus}/entries_sent"),
                r.raft().stats().entries_sent,
            );
        }
        for h in tier.quorum_health() {
            h.into_registry(reg);
        }
        tier.watchdog.into_registry(reg);
    }

    /// The quorum health, consensus and watchdog sections, plus the
    /// `consensus:leaderless` row of the utilization ledger.
    fn report(world: &World<Self>, report: &mut ObsReport) {
        let tier = &world.tier;
        let quorum = tier.quorum_health();
        let mut commit = LogHistogram::new();
        for r in &tier.replicas {
            commit.merge(r.commit_latency_us());
        }
        let consensus = ConsensusStats {
            commits: commit.summary().count(),
            commit_p50_us: commit.quantile(0.5),
            commit_p99_us: commit.quantile(0.99),
            // Samples are taken on the leader, once per heartbeat.
            replication_lag_p95: tier
                .replicas
                .iter()
                .map(|r| r.replication_lag_hist().clone())
                .reduce(|mut all, h| {
                    all.merge(&h);
                    all
                })
                .map(|h| h.quantile(0.95))
                .unwrap_or(0.0),
            elections: quorum.iter().map(|h| h.elections).sum(),
        };
        let mut leaderless = tier.leaderless.clone();
        if let Some(since) = tier.leaderless_since {
            leaderless.add_busy(since, world.now());
        }
        if !leaderless.is_empty() {
            if let Some(utilization) = &mut report.utilization {
                utilization.resources.push(ResourceUsage::from_timeline(
                    ResourceKind::Consensus,
                    "consensus:leaderless".into(),
                    0,
                    0,
                    &leaderless,
                    report.horizon,
                    0.0,
                    0,
                    consensus.elections,
                    0,
                ));
            }
        }
        report.quorum = quorum;
        report.consensus = Some(consensus);
        report.watchdog = Some(WatchdogSummary {
            checks: tier.watchdog.checks(),
            violations: tier.watchdog.violations().to_vec(),
        });
    }
}

impl QuorumTier {
    /// Builds a world with `replicas` quorum replicas on the node ids
    /// after `builder`'s processing nodes — use an odd count; 1
    /// degenerates to the single-recorder world. `seed` randomizes
    /// election timeouts, deterministically.
    pub fn world(builder: WorldBuilder, replicas: usize, seed: u64) -> QuorumWorld {
        assert!(replicas >= 1, "a quorum needs at least one replica");
        let peer_nodes: Vec<NodeId> = (0..replicas as u32)
            .map(|i| NodeId(builder.nodes() + i))
            .collect();
        let replicas = (0..replicas as u32)
            .map(|i| {
                // Fork the seed per replica so election timeouts diverge.
                let seed = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(i) + 1);
                QuorumReplica::new(i, peer_nodes.clone(), seed)
            })
            .collect();
        builder.build_with(QuorumTier {
            replicas,
            term_leaders: BTreeMap::new(),
            election_violations: Vec::new(),
            watchdog: Watchdog::new(),
            next_watchdog_scan: SimTime::ZERO,
            leaderless: Timeline::new(),
            leaderless_since: None,
        })
    }

    /// The index of the current leader, if any replica is leading.
    pub fn leader(&self) -> Option<usize> {
        self.replicas.iter().position(|r| r.is_leader())
    }

    /// Live replicas (up hosts).
    pub fn live_replicas(&self) -> usize {
        self.replicas.iter().filter(|r| r.is_up()).count()
    }

    /// The online invariant watchdog's state so far.
    pub fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }

    /// Election-safety tracking: record who leads each term; two
    /// different leaders in one term is the canonical consensus bug.
    /// Leadership only changes while a replica handles its own input,
    /// so checking replica `idx` after each of its calls sees it all.
    fn note_leadership(&mut self, idx: usize) {
        let r = &self.replicas[idx];
        if !r.is_leader() {
            return;
        }
        let term = r.raft().term();
        let me = r.id();
        match self.term_leaders.get(&term) {
            Some(&prev) if prev != me => {
                self.election_violations.push(format!(
                    "election safety: term {term} led by replica {prev} and replica {me}"
                ));
            }
            Some(_) => {}
            None => {
                self.term_leaders.insert(term, me);
            }
        }
    }

    /// One watchdog pass over the group's observable state: the arrival
    /// sequences applied since the last pass, per process (gap freedom
    /// with a virtual-time deadline), every live replica's commit index
    /// (monotonicity), and the leadership view (ack-gating stall:
    /// a live majority must elect a leader within the deadline).
    fn watchdog_scan(&mut self, now: SimTime) {
        let live = self.replicas.iter().filter(|r| r.is_up());
        scan_new_arrivals(&mut self.watchdog, now, live.map(|r| r.applied_log()));
        let mut has_leader = false;
        for r in self.replicas.iter().filter(|r| r.is_up()) {
            self.watchdog
                .observe_commit_index(now, r.id(), r.raft().commit_index());
            has_leader |= r.is_leader();
        }
        let majority_live = self.live_replicas() * 2 > self.replicas.len();
        self.watchdog
            .observe_leadership(now, majority_live, has_leader);
        match (self.leaderless_since, has_leader) {
            (None, false) => self.leaderless_since = Some(now),
            (Some(since), true) => {
                self.leaderless.add_busy(since, now);
                self.leaderless_since = None;
            }
            _ => {}
        }
    }

    /// The quorum safety oracles, evaluated over the whole run:
    ///
    /// 1. **Election safety** — at most one leader per term (tracked
    ///    continuously as leadership changes hands).
    /// 2. **State-machine safety** — no replica ever applied the same
    ///    arrival sequence with two different messages.
    /// 3. **Log matching** — where two replicas both applied a
    ///    sequence, they applied the same message.
    /// 4. **Gap freedom** — the union of applied sequences per process
    ///    is contiguous from zero: leadership changes neither skip nor
    ///    double-assign an arrival number.
    pub fn quorum_invariant_failures(&self) -> Vec<String> {
        let mut out = self.election_violations.clone();
        for r in &self.replicas {
            out.extend(r.audit_violations().iter().cloned());
        }
        // Cross-replica agreement + union gap check.
        for (pid, seqs) in &self.applied_union(&mut out) {
            let n = seqs.iter().flatten().count();
            let first = seqs.iter().position(Option::is_some);
            if let Some(first) = first.filter(|&first| first != 0 || n != seqs.len()) {
                out.push(format!(
                    "gap freedom: pid {pid:?} applied {n} seqs spanning [{first}, {}]",
                    seqs.len() - 1
                ));
            }
        }
        out
    }

    /// The union of every replica's applied log: per process and arrival
    /// sequence, the first replica that applied a message there and the
    /// message. A later replica that applied another one is a log-matching
    /// violation, appended to `violations`.
    fn applied_union(
        &self,
        violations: &mut Vec<String>,
    ) -> BTreeMap<ProcessId, Vec<Option<(u32, MessageId)>>> {
        let mut union: BTreeMap<ProcessId, Vec<Option<(u32, MessageId)>>> = BTreeMap::new();
        for r in &self.replicas {
            for (&pid, seqs) in r.applied_log() {
                let u = union.entry(pid).or_default();
                if u.len() < seqs.len() {
                    u.resize(seqs.len(), None);
                }
                for (seq, id) in seqs.iter().enumerate() {
                    let Some(id) = *id else { continue };
                    match u[seq] {
                        Some((other, prev)) if prev != id => violations.push(format!(
                            "log matching: pid {pid:?} seq {seq} is {prev:?} on replica \
                             {other} but {id:?} on replica {}",
                            r.id()
                        )),
                        Some(_) => {}
                        None => u[seq] = Some((r.id(), id)),
                    }
                }
            }
        }
        union
    }

    /// Total committed arrival sequences across the group (union over
    /// replicas, deduplicated per pid × seq).
    pub fn sequenced_total(&self) -> u64 {
        let union = self.applied_union(&mut Vec::new());
        union
            .values()
            .map(|seqs| seqs.iter().flatten().count() as u64)
            .sum()
    }

    /// Point-in-time consensus health of every replica.
    pub fn quorum_health(&self) -> Vec<QuorumHealth> {
        self.replicas
            .iter()
            .map(|r| {
                let raft = r.raft();
                QuorumHealth {
                    replica: r.id(),
                    live: r.is_up(),
                    leader: r.is_leader(),
                    term: raft.term(),
                    elections: raft.stats().elections_started,
                    commit_index: raft.commit_index(),
                    applied_index: raft.applied_index(),
                    replication_lag: if r.is_up() {
                        raft.worst_follower_lag()
                    } else {
                        0
                    },
                    compacted: raft.snap_index(),
                }
            })
            .collect()
    }
}

/// The gap-freedom half of a watchdog pass, over the applied logs of the
/// live replicas: every process any of them has applied for is scanned,
/// in pid order, and the watchdog sees the union of that process's
/// applied sequences from its cursor on. The union is never built: each
/// log is indexed at the cursor (and walked past what that replica never
/// applied), and the watchdog stops asking at the first gap — so a pass
/// costs O(pids × replicas) lookups plus what was applied since the last
/// one, not everything ever applied.
fn scan_new_arrivals<'a>(
    watchdog: &mut Watchdog,
    now: SimTime,
    live: impl Iterator<Item = &'a AppliedLog> + Clone,
) {
    let mut after = Bound::Unbounded;
    while let Some(pid) = live
        .clone()
        .filter_map(|log| Some(*log.range((after, Bound::Unbounded)).next()?.0))
        .min()
    {
        after = Bound::Excluded(pid);
        let mut from = watchdog.arrival_cursor(pid.as_u64());
        let fresh = std::iter::from_fn(|| {
            let seq = live
                .clone()
                .filter_map(|log| {
                    let later = log.get(&pid)?.get(from as usize..)?;
                    Some(from + later.iter().position(Option::is_some)? as u64)
                })
                .min()?;
            from = seq + 1;
            Some(seq)
        });
        watchdog.scan_arrival_seqs(now, pid.as_u64(), fresh);
    }
}

/// The gap-freedom scan as it was before it became incremental: build
/// the union of everything every live replica ever applied, then hand
/// all of it to the watchdog. Kept as the reference [`scan_new_arrivals`]
/// is checked against.
#[cfg(test)]
fn scan_full_union<'a>(
    watchdog: &mut Watchdog,
    now: SimTime,
    live: impl Iterator<Item = &'a AppliedLog>,
) {
    use std::collections::BTreeSet;
    let mut union: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for log in live {
        for (&pid, seqs) in log {
            let applied = seqs.iter().enumerate().filter(|(_, id)| id.is_some());
            union
                .entry(pid.as_u64())
                .or_default()
                .extend(applied.map(|(seq, _)| seq as u64));
        }
    }
    for (pid, seqs) in &union {
        watchdog.scan_arrival_seqs(now, *pid, seqs.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::applied_slot;
    use publishing_demos::ids::Channel;
    use publishing_demos::link::Link;
    use publishing_demos::programs::{self, PingClient};
    use publishing_demos::registry::ProgramRegistry;

    fn registry() -> ProgramRegistry {
        let mut reg = ProgramRegistry::new();
        programs::register_standard(&mut reg);
        reg.register("ping10", || Box::new(PingClient::new(10)));
        reg
    }

    fn invariants_clean(w: &QuorumWorld) {
        let fails = w.tier.quorum_invariant_failures();
        assert!(fails.is_empty(), "quorum invariants violated: {fails:?}");
    }

    #[test]
    fn replicas_apply_identical_arrival_orders() {
        let mut w = QuorumTier::world(WorldBuilder::new(2).registry(registry()), 3, 0);
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_secs(5));
        assert_eq!(w.outputs_of(client).len(), 11);
        assert!(w.tier.leader().is_some(), "a leader was elected");
        assert!(
            w.tier.sequenced_total() > 0,
            "arrivals were quorum-sequenced"
        );
        // Every live replica converges on the same applied log.
        let logs: Vec<_> = w.tier.replicas.iter().map(|r| r.applied_log()).collect();
        assert!(!logs[0].is_empty());
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);
        invariants_clean(&w);
    }

    #[test]
    fn leader_crash_fails_over_without_gaps_or_dups() {
        let mut w = QuorumTier::world(WorldBuilder::new(2).registry(registry()), 3, 0);
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        // Let traffic start and a leader emerge, then kill it mid-run.
        w.run_until(SimTime::from_millis(300));
        let old = w.tier.leader().expect("initial leader");
        w.crash_member(old);
        w.run_until(SimTime::from_secs(12));
        let new = w.tier.leader().expect("new leader elected");
        assert_ne!(new, old, "a surviving replica leads");
        let out = w.outputs_of(client);
        assert_eq!(out.len(), 11, "{out:?}");
        invariants_clean(&w);
    }

    #[test]
    fn crashed_replica_rejoins_and_catches_up() {
        let mut w = QuorumTier::world(WorldBuilder::new(2).registry(registry()), 3, 0);
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_millis(200));
        let victim = (w.tier.leader().expect("leader") + 1) % 3;
        w.crash_member(victim);
        w.run_until(SimTime::from_secs(4));
        w.restart_member(victim);
        w.run_until(SimTime::from_secs(10));
        assert_eq!(w.outputs_of(client).len(), 11);
        // The rejoined follower's applied log converges with the rest.
        let leader = w.tier.leader().expect("leader");
        assert_eq!(
            w.tier.replicas[victim].applied_log(),
            w.tier.replicas[leader].applied_log()
        );
        invariants_clean(&w);
    }

    #[test]
    fn node_crash_recovers_via_leader_replay() {
        let mut w = QuorumTier::world(WorldBuilder::new(2).registry(registry()), 3, 0);
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_millis(120));
        w.crash_node(1);
        w.run_until(SimTime::from_secs(30));
        let out = w.outputs_of(client);
        assert_eq!(out.len(), 11, "{out:?}");
        assert!(w.recoveries_completed() >= 1, "leader drove recovery");
        invariants_clean(&w);
    }

    #[test]
    fn watchdog_runs_clean_and_report_has_consensus_sections() {
        let mut w = QuorumTier::world(WorldBuilder::new(2).registry(registry()), 3, 0);
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let _client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_secs(5));
        assert!(w.tier.watchdog().checks() > 0, "watchdog scanned");
        assert!(
            w.tier.watchdog().is_clean(),
            "{:?}",
            w.tier.watchdog().violations()
        );
        let report = w.obs_report();
        assert_eq!(report.quorum.len(), 3);
        let c = report.consensus.as_ref().unwrap();
        assert!(c.commits > 0, "leader measured commit latencies");
        assert!(c.commit_p50_us > 0);
        assert!(report.watchdog.as_ref().unwrap().checks > 0);
        let json = report.render_json();
        assert!(json.contains("\"quorum\":[{\"replica\":0"));
        assert!(json.contains("\"consensus\":{\"commits\":"));
        assert!(json.contains("\"watchdog\":{\"checks\":"));
        assert!(json.contains("quorum/0/consensus/commit_latency_us"));
    }

    /// Send-once replication under loss: a lost Append waits for the
    /// next refusal or heartbeat instead of riding along with every later
    /// entry. Over 64 worlds at 10 % frame loss (seed `s` seeds both the
    /// medium's loss draws and the election timeouts; 2 ping pairs x 10
    /// pings, 20 s) safety holds everywhere, and liveness is held to what
    /// the re-sending, 10 ms-polling replication this replaced managed on
    /// the same worlds: 13 unfinished, 2 474 of 2 560 arrivals sequenced.
    /// (What leaves a client unfinished is not consensus: a transport
    /// stall that spans a periodic checkpoint, then a node restart on a
    /// watchdog ping the medium lost.)
    #[test]
    fn frame_loss_is_survived_no_worse_than_by_resending() {
        use publishing_net::bus::PerfectBus;
        use publishing_net::lan::LanConfig;
        use publishing_sim::fault::FaultPlan;
        let mut reg = registry();
        reg.register("pinger", || {
            let mut p = PingClient::new(10);
            p.think_ns = 2_000_000;
            Box::new(p)
        });
        let (mut unfinished, mut sequenced) = (0, 0);
        for seed in 1..=64 {
            let lan = PerfectBus::new(LanConfig {
                seed,
                ..LanConfig::default()
            });
            let builder = WorldBuilder::new(3)
                .registry(reg.clone())
                .medium(Box::new(lan));
            let mut w = QuorumTier::world(builder, 3, seed);
            w.lan.set_faults(FaultPlan::new().with_frame_loss(0.10));
            let clients: Vec<_> = (0..2)
                .map(|i| {
                    let server = w.spawn(2, "echo", vec![]).unwrap();
                    let to_server = vec![Link::to(server, Channel::DEFAULT, 7)];
                    w.spawn(i, "pinger", to_server).unwrap()
                })
                .collect();
            w.run_until(SimTime::from_secs(20));
            invariants_clean(&w);
            let violations = w.tier.watchdog().violations();
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
            let done = |c: &ProcessId| w.outputs_of(*c).last().is_some_and(|l| l == "done");
            unfinished += usize::from(!clients.iter().all(done));
            sequenced += w.tier.sequenced_total();
        }
        assert!(unfinished <= 13, "{unfinished} of 64 worlds unfinished");
        assert!(sequenced >= 2_474, "{sequenced} of 2560 arrivals sequenced");
    }

    fn mid(seq: u64) -> MessageId {
        MessageId {
            sender: ProcessId::new(9, 1),
            seq,
        }
    }

    /// The incremental scan against the full-union scan it replaced:
    /// random interleavings of apply, replica crash and restart, time
    /// advance and scan — with skipped sequences that hold gaps open past
    /// the deadline, and sequences only a crashed replica holds — leave
    /// two watchdogs with the same checks, violations and cursors.
    #[test]
    fn incremental_scan_matches_the_full_union_scan() {
        use publishing_sim::rng::DetRng;
        let pids = [
            ProcessId::new(0, 1),
            ProcessId::new(0, 2),
            ProcessId::new(3, 1),
        ];
        let (mut with_violations, mut with_hidden) = (0, 0);
        for seed in 0..300 {
            let mut rng = DetRng::new(seed);
            let mut logs: Vec<(bool, AppliedLog)> = vec![(true, AppliedLog::new()); 3];
            let (mut incremental, mut reference) = (Watchdog::new(), Watchdog::new());
            let mut frontier = [0u64; 3];
            let mut now = SimTime::ZERO;
            for _ in 0..200 {
                match rng.below(10) {
                    0..=4 => {
                        let p = rng.index(pids.len());
                        // Mostly the next sequence; sometimes skip one
                        // (a gap), sometimes fill in behind the frontier.
                        let seq = match rng.below(8) {
                            0 => frontier[p] + 1,
                            1 => rng.below(frontier[p] + 1),
                            _ => frontier[p],
                        };
                        frontier[p] = frontier[p].max(seq + 1);
                        // Crashed replicas keep their audit trail and may
                        // even hold the only copy of a sequence.
                        let holders = 1 + rng.index(3);
                        for _ in 0..holders {
                            let (_, log) = &mut logs[rng.index(3)];
                            *applied_slot(log, pids[p], seq) = Some(mid(seq));
                        }
                    }
                    5 => {
                        let r = rng.index(3);
                        logs[r].0 = !logs[r].0;
                    }
                    // Steps of up to 300 ms against the 500 ms gap deadline.
                    6 | 7 => now += SimDuration::from_millis(5 * rng.below(60)),
                    _ => {
                        let live = logs.iter().filter(|(up, _)| *up).map(|(_, log)| log);
                        scan_new_arrivals(&mut incremental, now, live.clone());
                        scan_full_union(&mut reference, now, live);
                        assert_eq!(incremental.checks(), reference.checks(), "seed {seed}");
                        assert_eq!(
                            incremental.violations(),
                            reference.violations(),
                            "seed {seed}"
                        );
                        for pid in pids {
                            assert_eq!(
                                incremental.arrival_cursor(pid.as_u64()),
                                reference.arrival_cursor(pid.as_u64()),
                                "seed {seed} {pid:?}"
                            );
                        }
                        assert!(incremental.seqs_visited() <= reference.seqs_visited());
                    }
                }
            }
            with_violations += usize::from(!reference.is_clean());
            with_hidden += usize::from(logs.iter().any(|(up, _)| !up));
        }
        assert!(
            with_violations > 30,
            "gaps outlived the deadline in {with_violations} runs"
        );
        assert!(
            with_hidden > 30,
            "{with_hidden} runs ended with a replica down"
        );
    }

    /// The work bound, stated directly: a scan visits what was applied
    /// since the previous scan — nothing when nothing was.
    #[test]
    fn a_scan_after_a_scan_with_no_applies_visits_nothing() {
        let pid = ProcessId::new(0, 1);
        let mut logs = vec![AppliedLog::new(); 3];
        for seq in 0..1_000 {
            for log in logs.iter_mut().take(1 + seq as usize % 3) {
                *applied_slot(log, pid, seq) = Some(mid(seq));
            }
        }
        let mut wd = Watchdog::new();
        scan_new_arrivals(&mut wd, SimTime::from_millis(25), logs.iter());
        assert_eq!(wd.seqs_visited(), 1_000);
        assert_eq!(wd.arrival_cursor(pid.as_u64()), 1_000);
        scan_new_arrivals(&mut wd, SimTime::from_millis(50), logs.iter());
        assert_eq!(wd.seqs_visited(), 1_000, "nothing new, nothing visited");
        assert_eq!(wd.checks(), 2);
        *applied_slot(&mut logs[2], pid, 1_000) = Some(mid(1_000));
        scan_new_arrivals(&mut wd, SimTime::from_millis(75), logs.iter());
        assert_eq!(wd.seqs_visited(), 1_001, "one applied, one visited");
        // The scan it replaced walks all of history every time.
        let mut old = Watchdog::new();
        scan_full_union(&mut old, SimTime::from_millis(25), logs.iter());
        scan_full_union(&mut old, SimTime::from_millis(50), logs.iter());
        assert_eq!(old.seqs_visited(), 2_002);
    }

    #[test]
    fn failover_records_election_spans() {
        use publishing_obs::span::Stage;
        let mut w = QuorumTier::world(WorldBuilder::new(2).registry(registry()), 3, 0);
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_millis(300));
        let old = w.tier.leader().expect("initial leader");
        w.crash_member(old);
        w.run_until(SimTime::from_secs(12));
        assert_eq!(w.outputs_of(client).len(), 11);
        let elects: usize = w
            .span_logs()
            .map(|l| l.events().filter(|e| e.stage == Stage::Elect).count())
            .sum();
        assert!(
            elects >= 2,
            "both the initial election and the failover left tenure spans, got {elects}"
        );
        // The failover run still satisfies the online watchdog.
        assert!(
            w.tier.watchdog().is_clean(),
            "{:?}",
            w.tier.watchdog().violations()
        );
    }

    #[test]
    fn quorum_health_probe_reflects_leadership() {
        let mut w = QuorumTier::world(WorldBuilder::new(1).registry(registry()), 3, 0);
        w.run_until(SimTime::from_secs(1));
        let health = w.tier.quorum_health();
        assert_eq!(health.len(), 3);
        assert_eq!(health.iter().filter(|h| h.leader).count(), 1);
        let term = health.iter().find(|h| h.leader).unwrap().term;
        assert!(term >= 1);
        let reg = w.collect_metrics();
        assert!(reg.gauge_value("quorum/0/health/live").is_some());
    }
}
