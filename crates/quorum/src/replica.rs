//! One member of a recorder quorum group: a full [`RecorderNode`] (so
//! every replica captures the broadcast medium and can serve replay
//! reads) fused with a [`RaftCore`] that sequences arrivals through the
//! replicated log.
//!
//! The replica keeps the recorder in *deferred sequencing* mode: an
//! observed destination ack no longer assigns an arrival sequence on
//! the spot — it is queued, proposed by the group's leader as a
//! [`Op::Sequence`] entry with the sequence chosen at proposal, and
//! published on every replica when the entry commits. The §3.2
//! guarantee ("the recorder remembers the order in which messages
//! arrive") thereby survives the permanent loss of any minority of
//! replicas.
//!
//! A consensus frame's payload is read in place, but the log entries in
//! it are *copied out* of it (`on_quorum_frame`): an entry is kept for as
//! long as the log is, the multi-entry `Append` frame it arrived in for
//! one event, and a view would pin the frame. Snapshot images are decoded
//! the same way, for the same reason.

use crate::codec::{decode_exports, encode_exports};
use crate::raft::{Op, QMsg, RaftCore, RaftOut, ReplicaId, Role};
use publishing_core::node::{RNAction, RecorderConfig, RecorderNode};
use publishing_demos::ids::{MessageId, NodeId, ProcessId};
use publishing_demos::transport::Wire;
use publishing_net::frame::{Destination, Frame, StationId};
use publishing_obs::span::{MsgKey, Stage};
use publishing_sim::codec::Decode;
use publishing_sim::stats::{LinearHistogram, LogHistogram};
use publishing_sim::table::{IdHasher, IdMap};
use publishing_sim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::hash::BuildHasherDefault;

/// Timer-token namespace bit: tokens with it set belong to the quorum
/// layer; the rest are forwarded to the inner recorder node.
const QUORUM_TOKEN_BIT: u64 = 1 << 63;
/// The consensus timer.
const TICK_TOKEN: u64 = QUORUM_TOKEN_BIT;

/// What one replica has applied: per destination process, the message
/// at each arrival sequence. The leader hands sequences out densely from
/// 0, so the sequence is the index; `None` is one this replica never
/// applied (it was down, or installed a snapshot past it).
pub type AppliedLog = BTreeMap<ProcessId, Vec<Option<MessageId>>>;

/// The entry of `log` for `pid`'s arrival sequence `seq`.
pub(crate) fn applied_slot(
    log: &mut AppliedLog,
    pid: ProcessId,
    seq: u64,
) -> &mut Option<MessageId> {
    let slots = log.entry(pid).or_default();
    let seq = seq as usize;
    if slots.len() <= seq {
        slots.resize(seq + 1, None);
    }
    &mut slots[seq]
}

/// Recorder group id, carried in every `Wire::Quorum` frame. A world
/// has one recorder group; a frame naming another is still ignored.
const GROUP: u32 = 0;
/// The grid consensus deadlines are rounded up to: the core's election
/// and heartbeat timers fire on multiples of this after the replica's
/// (re)start.
const TICK: SimDuration = SimDuration::from_millis(10);

/// A recorder-quorum replica: recorder node + consensus core.
pub struct QuorumReplica {
    id: ReplicaId,
    node: RecorderNode,
    raft: RaftCore,
    /// What the core asked for and [`Self::perform`] has not yet done:
    /// filled by each consensus input, emptied by the walk that carries
    /// it out, and the same buffer for the replica's whole life.
    routs: Vec<RaftOut>,
    /// Node id of each group member, indexed by replica id.
    peers: Vec<NodeId>,
    /// Acks observed on the medium whose messages are not yet
    /// quorum-sequenced, in observation order (volatile; every live
    /// replica accumulates the same backlog, so leader failover can
    /// re-propose it).
    acked: VecDeque<(MessageId, ProcessId)>,
    /// The ids in `acked`: probed, inserted, removed, never iterated.
    acked_ids: HashSet<MessageId, BuildHasherDefault<IdHasher>>,
    /// Leader-volatile: next arrival sequence to propose per
    /// destination. Seeded from the recorder after the term's no-op
    /// commits; cleared on any leadership change.
    proposed_next: IdMap<ProcessId, u64>,
    /// Leader-volatile: set once this term's no-op entry commits —
    /// inherited entries are applied and it is safe to propose.
    term_settled: bool,
    /// When this incarnation began: the origin of its timer grid.
    grid_origin: SimTime,
    /// The instant the consensus timer is armed for. A timer firing at
    /// any other — superseded by an earlier deadline, or armed before a
    /// crash — is ignored instead of forking a second chain.
    armed_at: Option<SimTime>,
    /// Audit trail for the quorum oracles: every `(seq, id)` this
    /// replica has applied, per destination. Survives crashes (it
    /// belongs to the test harness, not the node) and records a
    /// violation if a sequence is ever re-applied with a different
    /// message — the state-machine-safety check.
    applied_log: AppliedLog,
    audit_violations: Vec<String>,
    /// When each still-uncommitted log entry this replica proposed was
    /// proposed (log index → propose time). Volatile: cleared on crash,
    /// so a restart's idempotent re-apply never charges phantom
    /// latencies.
    proposed_at: BTreeMap<u64, SimTime>,
    /// Proposal → quorum-durable commit latency, in virtual-time µs.
    commit_latency_us: LogHistogram,
    /// Worst follower replication lag (log entries), sampled at each
    /// heartbeat this replica sends as leader.
    replication_lag: LinearHistogram,
    /// Consensus frames this replica put on the medium.
    frames_sent: u64,
    up: bool,
}

impl QuorumReplica {
    /// Creates replica `id` of a group whose members live on `peers`
    /// (indexed by replica id; `peers[id]` is this replica's own node).
    pub fn new(id: ReplicaId, peers: Vec<NodeId>, seed: u64) -> Self {
        assert!((id as usize) < peers.len());
        let mut node = RecorderNode::new(peers[id as usize], RecorderConfig::default());
        node.set_deferred_sequencing(true);
        node.set_checkpoint_duty(false);
        let raft = RaftCore::new(id, peers.len() as u32, seed);
        QuorumReplica {
            id,
            node,
            raft,
            routs: Vec::new(),
            peers,
            acked: VecDeque::new(),
            acked_ids: HashSet::default(),
            proposed_next: IdMap::default(),
            term_settled: false,
            grid_origin: SimTime::ZERO,
            armed_at: None,
            applied_log: BTreeMap::new(),
            audit_violations: Vec::new(),
            proposed_at: BTreeMap::new(),
            commit_latency_us: LogHistogram::new(),
            replication_lag: LinearHistogram::new(0.0, 64.0, 16),
            frames_sent: 0,
            up: true,
        }
    }

    /// The packed identity Elect spans use for this replica (node in
    /// the high half, local 0 — rendered `node.0`). Only process pids
    /// destined by sequenced messages otherwise appear as subjects in a
    /// replica's span log, so election program-order chains never mix
    /// with message lifecycles.
    fn span_identity(&self) -> u64 {
        (self.node.node().0 as u64) << 32
    }

    /// This replica's id within the group.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// This replica's station.
    pub fn station(&self) -> StationId {
        self.node.station()
    }

    /// Whether the replica is up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Whether this replica currently leads the group.
    pub fn is_leader(&self) -> bool {
        self.up && self.raft.is_leader()
    }

    /// Whether this replica leads and its own term's no-op has applied:
    /// every inherited entry is in its recorder, whose per-process state
    /// is then authoritative. Before that, nobody's is.
    pub fn leads_settled_term(&self) -> bool {
        self.is_leader() && self.term_settled
    }

    /// Whether every arrival this replica has proposed for `pid` is
    /// applied in its recorder: a delivery its kernel acknowledged is
    /// published, but replayable only once its sequence commits.
    pub fn applied_all_proposed(&self, pid: ProcessId) -> bool {
        let applied = self.node.recorder().next_arrival_seq(pid);
        self.proposed_next
            .get(&pid)
            .is_none_or(|&next| next <= applied)
    }

    /// Read access to the inner recorder node.
    pub fn recorder_node(&self) -> &RecorderNode {
        &self.node
    }

    /// The inner recorder node, mutably: for the settings and restart
    /// confirmations that pass straight through the consensus layer
    /// (span capacity, disk faults, `confirm_node_restarted`,
    /// `decline_node_restart`, and the `recover` and
    /// `query_process_states` the world runs on the authority). Frames, timers, crash and restart must
    /// go through the replica.
    pub fn recorder_node_mut(&mut self) -> &mut RecorderNode {
        &mut self.node
    }

    /// Read access to the consensus core.
    pub fn raft(&self) -> &RaftCore {
        &self.raft
    }

    /// Every `(seq, id)` this replica has applied, per destination —
    /// the audit trail the quorum oracles compare across replicas.
    pub fn applied_log(&self) -> &AppliedLog {
        &self.applied_log
    }

    /// State-machine-safety violations this replica observed while
    /// applying (a sequence re-applied with a different message).
    pub fn audit_violations(&self) -> &[String] {
        &self.audit_violations
    }

    /// Proposal → quorum-durable commit latency of entries this replica
    /// proposed, in virtual-time microseconds.
    pub fn commit_latency_us(&self) -> &LogHistogram {
        &self.commit_latency_us
    }

    /// Worst follower replication lag (entries), sampled per heartbeat
    /// while leading.
    pub fn replication_lag_hist(&self) -> &LinearHistogram {
        &self.replication_lag
    }

    /// Consensus frames this replica has put on the medium.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Begins operation: recorder watchdogs over `watch`, plus the
    /// consensus timer.
    pub fn start(&mut self, now: SimTime, watch: &[NodeId], out: &mut Vec<RNAction>) {
        self.node.start(now, watch, out);
        self.grid_origin = now;
        self.raft.start(now);
        self.process(now, out);
    }

    /// Arms the consensus timer for the first grid instant after `now`
    /// that is at or after the core's deadline — unless a timer is armed
    /// for then or sooner: a deadline that a heartbeat pushed back is
    /// picked up when the armed timer fires, not on every heartbeat.
    fn arm_timer(&mut self, now: SimTime, out: &mut Vec<RNAction>) {
        let due = self.raft.deadline().max(now + SimDuration::from_nanos(1));
        let steps = (due - self.grid_origin)
            .as_nanos()
            .div_ceil(TICK.as_nanos());
        let at = self.grid_origin + TICK * steps;
        if self.armed_at.is_some_and(|armed| armed <= at) {
            return;
        }
        self.armed_at = Some(at);
        out.push(RNAction::SetTimer {
            at,
            token: TICK_TOKEN,
        });
    }

    /// The frame carrying `msg` to group member `to`: the bytes of
    /// `Wire::Quorum { payload: msg.encode_to_vec(), .. }`, written once.
    fn qframe(&self, to: ReplicaId, msg: &QMsg) -> Frame {
        Frame::new(
            self.station(),
            Destination::Station(StationId(self.peers[to as usize].0)),
            Wire::encode_quorum(self.node.node(), GROUP, msg),
        )
    }

    /// Runs consensus effects to quiescence, then applies committed
    /// entries, proposes any ready backlog and re-arms the timer.
    fn process(&mut self, now: SimTime, out: &mut Vec<RNAction>) {
        self.perform(now, out);
        self.drain_commits(now, out);
        self.collect_acks();
        self.propose_ready(now, out);
        self.arm_timer(now, out);
    }

    /// Carries out what the core asked for, in order, and what that sets
    /// off: the core appends to the buffer being walked. An Append's
    /// entry buffer goes back to the core once its frame is written, for
    /// the next Append to fill.
    fn perform(&mut self, now: SimTime, out: &mut Vec<RNAction>) {
        let mut routs = std::mem::take(&mut self.routs);
        let mut next = 0;
        while let Some(o) = routs.get_mut(next) {
            next += 1;
            match o {
                RaftOut::Send { to, msg } => {
                    self.frames_sent += 1;
                    out.push(RNAction::Transmit(self.qframe(*to, msg)));
                    if let QMsg::Append { entries, .. } = msg {
                        self.raft.recycle(std::mem::take(entries));
                    }
                }
                RaftOut::NeedSnapshot { to } => {
                    let to = *to;
                    let image = self.build_snapshot();
                    self.raft.snapshot_built(to, image, &mut routs);
                }
                RaftOut::ApplySnapshot {
                    leader,
                    index,
                    snap_term,
                    image,
                } => {
                    let (leader, index, snap_term) = (*leader, *index, *snap_term);
                    let image = std::mem::take(image);
                    if let Ok(exports) = decode_exports(&image) {
                        for export in exports {
                            self.node.import_process(now, export, out);
                        }
                    }
                    self.raft
                        .snapshot_installed(leader, index, snap_term, &mut routs);
                }
                RaftOut::BecameLeader => {
                    self.term_settled = false;
                    self.proposed_next.clear();
                    self.node.set_checkpoint_duty(true);
                    // The election win is a lifecycle event: everything
                    // the group sequences from here on waited on it, so
                    // the causal explorer can attribute failover time.
                    let me = self.span_identity();
                    let term = self.raft.term();
                    self.node.record_span(
                        now,
                        MsgKey {
                            sender: me,
                            seq: term,
                        },
                        Stage::Elect,
                        me,
                        term,
                    );
                }
                RaftOut::SteppedDown => {
                    self.term_settled = false;
                    self.proposed_next.clear();
                    self.node.set_checkpoint_duty(false);
                }
            }
        }
        routs.clear();
        self.routs = routs;
    }

    fn drain_commits(&mut self, now: SimTime, out: &mut Vec<RNAction>) {
        while let Some((idx, entry)) = self.raft.next_applicable() {
            if let Some(proposed) = self.proposed_at.remove(&idx) {
                self.commit_latency_us
                    .record(now.saturating_since(proposed).as_nanos() / 1_000);
            }
            match &entry.op {
                Op::Noop => {
                    if self.raft.is_leader() && entry.term == self.raft.term() {
                        // Inherited entries are now applied: the
                        // recorder's per-pid sequence counters are
                        // authoritative and proposing is safe.
                        self.term_settled = true;
                    }
                }
                Op::Sequence { seq, msg } => {
                    let dst = msg.header.to;
                    match applied_slot(&mut self.applied_log, dst, *seq) {
                        Some(prev) if *prev != msg.header.id => {
                            self.audit_violations.push(format!(
                                "replica {}: pid {:?} seq {} applied as {:?} then {:?}",
                                self.id, dst, seq, prev, msg.header.id
                            ));
                        }
                        Some(_) => {}
                        slot => *slot = Some(msg.header.id),
                    }
                    self.acked_ids.remove(&msg.header.id);
                    self.node.apply_committed(now, *seq, msg, out);
                }
            }
        }
    }

    fn collect_acks(&mut self) {
        let (acked_ids, acked) = (&mut self.acked_ids, &mut self.acked);
        self.node.drain_observed_acks(|recorder, id, pid| {
            if !acked_ids.contains(&id) && !recorder.is_sequenced(id) {
                acked_ids.insert(id);
                acked.push_back((id, pid));
            }
        });
    }

    fn propose_ready(&mut self, now: SimTime, out: &mut Vec<RNAction>) {
        if self.raft.role() != Role::Leader || !self.term_settled || self.acked.is_empty() {
            return;
        }
        while let Some((id, dst)) = self.acked.pop_front() {
            if self.node.recorder().is_sequenced(id) {
                self.acked_ids.remove(&id);
                continue;
            }
            let Some(msg) = self.node.recorder().pending_message(id).cloned() else {
                // The ack raced a capture we never made (e.g. we were
                // catching up); the destination's recovery replay covers
                // it. Do not invent a sequence for bytes we don't hold.
                self.acked_ids.remove(&id);
                continue;
            };
            let seeded = self.node.recorder().next_arrival_seq(dst);
            let next = self.proposed_next.entry(dst).or_insert(seeded);
            let seq = *next;
            *next += 1;
            if let Some(idx) = self.raft.propose(Op::Sequence { seq, msg }) {
                self.proposed_at.insert(idx, now);
            }
        }
        // The whole backlog in one Append per follower.
        self.raft.replicate(&mut self.routs);
        self.perform(now, out);
        self.drain_commits(now, out);
    }

    fn build_snapshot(&self) -> Vec<u8> {
        let pids: Vec<ProcessId> = self.node.recorder().known_pids().collect();
        let exports: Vec<_> = pids
            .iter()
            .filter_map(|&p| self.node.export_process(p))
            .collect();
        encode_exports(&exports)
    }

    /// Whether this replica will look at `frame`: everything but intact
    /// consensus traffic addressed to another replica — every unicast
    /// Append, as two of three replicas see it — which [`Self::on_frame`]
    /// drops unparsed.
    pub fn listens(&self, frame: &Frame) -> bool {
        !(frame.is_intact() && Wire::is_quorum(frame.payload()))
            || frame.dst.accepts(self.station())
    }

    /// Handles a frame seen on the medium. Quorum frames for this group
    /// are consensus input and are processed whenever the replica is up
    /// (their loss tolerance comes from heartbeat retransmission, not
    /// the capture gate); everything else goes to the inner recorder.
    pub fn on_frame(
        &mut self,
        now: SimTime,
        frame: &Frame,
        recorder_ok: bool,
        out: &mut Vec<RNAction>,
    ) {
        if !self.up {
            return;
        }
        // Look before decoding: the tag tells consensus traffic apart;
        // everything else the node decodes, once.
        if frame.is_intact() && Wire::is_quorum(frame.payload()) {
            return self.on_quorum_frame(now, frame, out);
        }
        self.node.on_frame(now, frame, recorder_ok, out);
        // An observed ack may be proposable immediately.
        self.collect_acks();
        self.propose_ready(now, out);
    }

    /// Consensus input. A quorum frame for another replica is dropped
    /// unparsed (the world does not deliver one: [`Self::listens`]); one
    /// for another group or with a malformed payload is ignored.
    ///
    /// The payload is a view of the frame; the message inside it is
    /// decoded over the plain slice, which copies every entry's body
    /// out: a log entry outlives by far the multi-entry frame it came
    /// in, and a view would keep that whole frame alive.
    fn on_quorum_frame(&mut self, now: SimTime, frame: &Frame, out: &mut Vec<RNAction>) {
        if !frame.dst.accepts(self.station()) {
            return;
        }
        let Ok(Wire::Quorum { group, payload, .. }) = frame.decode_payload::<Wire>() else {
            return;
        };
        if group == GROUP {
            if let Ok(qmsg) = QMsg::decode_all(&payload) {
                self.raft.on_msg(now, qmsg, &mut self.routs);
                self.process(now, out);
            }
        }
    }

    /// Handles a timer callback.
    pub fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Vec<RNAction>) {
        if !self.up {
            return;
        }
        if token & QUORUM_TOKEN_BIT != 0 {
            if self.armed_at != Some(now) {
                return;
            }
            self.armed_at = None;
            self.raft.tick(now, &mut self.routs);
            self.process(now, out);
            if self.raft.is_leader() {
                self.replication_lag
                    .record(self.raft.worst_follower_lag() as f64);
            }
        } else {
            self.node.on_timer(now, token, out);
            self.collect_acks();
            self.propose_ready(now, out);
        }
    }

    /// Crashes the replica: recorder volatile state is lost (battery
    /// keeps the capture buffer and the consensus log), leadership is
    /// lost, timers die with the host.
    pub fn crash(&mut self) {
        self.up = false;
        self.term_settled = false;
        self.armed_at = None;
        self.proposed_next.clear();
        self.proposed_at.clear();
        self.acked.clear();
        self.acked_ids.clear();
        self.node.crash();
    }

    /// Restarts the replica: recorder rebuild from stable storage, then
    /// rejoin the group as a follower and re-apply the committed prefix
    /// (idempotently) to repair any store writes the crash destroyed.
    pub fn restart(&mut self, now: SimTime, out: &mut Vec<RNAction>) {
        self.up = true;
        self.node.restart(now, out);
        self.grid_origin = now;
        self.raft.restart(now);
        self.process(now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use publishing_demos::ids::Channel;
    use publishing_demos::message::{Message, MessageHeader};
    use publishing_sim::codec::Encode;
    use std::sync::Arc;

    /// The actions one frame makes a replica append.
    fn on_frame(r: &mut QuorumReplica, now: SimTime, frame: &Frame, ok: bool) -> Vec<RNAction> {
        let mut out = Vec::new();
        r.on_frame(now, frame, ok, &mut out);
        out
    }

    fn group() -> Vec<QuorumReplica> {
        let peers: Vec<NodeId> = (2..5).map(NodeId).collect();
        (0..3)
            .map(|i| {
                let mut r = QuorumReplica::new(i, peers.clone(), 7);
                r.start(SimTime::ZERO, &[], &mut Vec::new());
                r
            })
            .collect()
    }

    /// What a frame could change in a replica, as one comparable value.
    fn state(r: &QuorumReplica) -> (u64, Role, u64, u64, u64, u64, u64) {
        let recorder = r.recorder_node().recorder().stats();
        (
            r.raft().term(),
            r.raft().role(),
            r.raft().last_index(),
            r.raft().commit_index(),
            r.raft().stats().votes_granted,
            recorder.captured.get(),
            recorder.duplicates.get(),
        )
    }

    fn vote_request() -> QMsg {
        QMsg::RequestVote {
            term: 9,
            candidate: 0,
            last_index: 0,
            last_term: 0,
        }
    }

    #[test]
    fn qframe_bytes_are_the_wire_encoding_of_the_quorum_variant() {
        let replicas = group();
        let sequence = Op::Sequence {
            seq: 3,
            msg: data_message(),
        };
        let msgs = [
            vote_request(),
            QMsg::Append {
                term: 2,
                leader: 0,
                prev_index: 4,
                prev_term: 1,
                entries: [Op::Noop, sequence]
                    .map(|op| Arc::new(crate::raft::LogEntry { term: 2, op }))
                    .to_vec(),
                commit: 4,
            },
        ];
        for msg in msgs {
            let frame = replicas[0].qframe(1, &msg);
            let wire = Wire::Quorum {
                src_node: NodeId(2),
                group: 0,
                payload: msg.encode_to_vec().into(),
            };
            assert_eq!(frame.payload(), wire.encode_to_vec());
            assert_eq!(frame.dst, Destination::Station(StationId(3)));
        }
    }

    #[test]
    fn quorum_frame_for_another_replica_is_dropped_unparsed() {
        let mut replicas = group();
        let frame = replicas[0].qframe(1, &vote_request());
        let now = SimTime::from_millis(1);
        // Replica 2 overhears it: no actions, nothing moved.
        let before = state(&replicas[2]);
        assert!(on_frame(&mut replicas[2], now, &frame, true).is_empty());
        assert_eq!(state(&replicas[2]), before);
        // Replica 1 is addressed: it adopts the term and answers.
        let actions = on_frame(&mut replicas[1], now, &frame, true);
        assert_eq!(replicas[1].raft().term(), 9);
        assert!(matches!(actions[..], [RNAction::Transmit(_)]));
    }

    /// The world delivers a frame only to a member that listens: over
    /// generated frames — consensus and process traffic, unicast to a
    /// replica or a processing node and broadcast, intact and damaged —
    /// a replica declines exactly the intact consensus frames for another
    /// station, and handing it one of those anyway changes nothing.
    #[test]
    fn a_declined_frame_would_have_changed_nothing() {
        use publishing_sim::rng::DetRng;
        let mut replicas = group();
        let mut rng = DetRng::new(21);
        let ack = Wire::Ack {
            src_node: NodeId(1),
            dst_pid: ProcessId::new(1, 1),
            msg_id: data_message().header.id,
            tseq: 1,
            incarnation: 0,
            peer_epoch: 0,
        };
        let data = Wire::Data {
            src_node: NodeId(0),
            incarnation: 0,
            peer_epoch: 0,
            tseq: 1,
            msg: data_message(),
        };
        let mut declined = 0;
        for round in 0..400u64 {
            let now = SimTime::from_micros(round);
            let from = rng.index(3);
            let (consensus, mut frame) = match rng.below(4) {
                0 => (
                    false,
                    Frame::new(StationId(0), Destination::Broadcast, ack.encode_to_vec()),
                ),
                1 => (
                    false,
                    Frame::new(StationId(0), Destination::Broadcast, data.encode_to_vec()),
                ),
                _ => (
                    true,
                    replicas[from].qframe(rng.below(3) as u32, &vote_request()),
                ),
            };
            frame.dst = match rng.below(6) {
                0 => Destination::Broadcast,
                station => Destination::Station(StationId(station as u32 - 1)),
            };
            let damaged = rng.below(4) == 0;
            if damaged {
                frame.invalidate_fcs();
            }
            for r in &mut replicas {
                let for_another = !frame.dst.accepts(r.station());
                assert_eq!(r.listens(&frame), !(consensus && !damaged && for_another));
                if !r.listens(&frame) {
                    declined += 1;
                    let before = state(r);
                    assert!(on_frame(r, now, &frame, true).is_empty());
                    assert_eq!(state(r), before);
                }
            }
        }
        assert!(declined > 100, "{declined} frames declined");
    }

    #[test]
    fn malformed_quorum_payloads_are_ignored() {
        let mut replicas = group();
        let (src, dst) = (StationId(2), Destination::Station(StationId(3)));
        let garbage = Wire::Quorum {
            src_node: NodeId(2),
            group: 0,
            payload: vec![0xFF; 5].into(),
        };
        let mut truncated = garbage.encode_to_vec();
        truncated.truncate(7);
        let other_group = Wire::Quorum {
            src_node: NodeId(2),
            group: 1,
            payload: vote_request().encode_to_vec().into(),
        };
        let before = state(&replicas[1]);
        for payload in [
            garbage.encode_to_vec(),
            truncated,
            other_group.encode_to_vec(),
        ] {
            let frame = Frame::new(src, dst, payload);
            let actions = on_frame(&mut replicas[1], SimTime::from_millis(1), &frame, true);
            assert!(actions.is_empty());
            assert_eq!(state(&replicas[1]), before);
        }
    }

    fn data_message() -> Message {
        Message {
            header: MessageHeader {
                id: MessageId {
                    sender: ProcessId::new(0, 1),
                    seq: 1,
                },
                to: ProcessId::new(1, 1),
                code: 0,
                channel: Channel::DEFAULT,
                deliver_to_kernel: false,
            },
            passed_link: None,
            body: vec![7; 32].into(),
        }
    }

    #[test]
    fn an_overheard_data_frame_reaches_the_recorder_exactly_once() {
        let mut replicas = group();
        let wire = Wire::Data {
            src_node: NodeId(0),
            incarnation: 0,
            peer_epoch: 0,
            tseq: 1,
            msg: data_message(),
        };
        let frame = Frame::new(
            StationId(0),
            Destination::Station(StationId(1)),
            wire.encode_to_vec(),
        );
        let actions = on_frame(&mut replicas[0], SimTime::from_millis(1), &frame, true);
        assert!(actions.is_empty());
        let stats = replicas[0].recorder_node().recorder().stats();
        assert_eq!(stats.captured.get(), 1);
        assert_eq!(stats.duplicates.get(), 0);
    }
}
