//! The recording node: recorder + recovery manager + watchdogs +
//! checkpoint policy behind one network endpoint (Figure 3.2's "recording
//! node … in charge of recording all messages on the network and of
//! initiating and directing all recovery operations").
//!
//! Like the kernel, the node is a sans-IO state machine: every entry
//! point appends [`RNAction`]s, in the order they must be performed, to a
//! buffer the world owns and reuses, and the node keeps buffers of its
//! own for what its transport, manager and recorder ask of it. An overheard
//! frame is decoded in place and captured as a slice of itself.

use crate::checkpoint::CheckpointPolicy;
use crate::manager::{MgrCmd, RecoveryManager};
use crate::recorder::{PublishCost, Recorder};
use publishing_demos::ids::{Channel, MessageId, NodeId, ProcessId};
use publishing_demos::kernel::{decode_ctl, encode_ctl};
use publishing_demos::message::{Message, MessageHeader};
use publishing_demos::protocol::{self, codes};
use publishing_demos::transport::{TAction, Transport, TransportConfig, Wire};
use publishing_net::frame::{Destination, Frame, StationId};
use publishing_sim::codec::{Bytes, Decode, Decoder, Encode, Encoder};
use publishing_sim::table::TokenTable;
use publishing_sim::time::{SimDuration, SimTime};
use publishing_stable::disk::DiskParams;
use publishing_stable::store::StoreIo;
use std::collections::HashSet;

/// An action the recorder node asks the world to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RNAction {
    /// Put a frame on the medium.
    Transmit(Frame),
    /// Call [`RecorderNode::on_timer`] with `token` at `at`.
    SetTimer {
        /// Callback time.
        at: SimTime,
        /// Token to hand back.
        token: u64,
    },
    /// Physically restart a crashed node, then call
    /// [`RecorderNode::confirm_node_restarted`] on every live member.
    RestartNode {
        /// The node.
        node: NodeId,
    },
    /// A trigger proposes this process's recovery: if the node is the
    /// tier's authority for it, call [`RecorderNode::recover`].
    ProposeRecovery {
        /// The process.
        pid: ProcessId,
    },
    /// A process finished recovering.
    RecoveryDone {
        /// The process.
        pid: ProcessId,
    },
}

/// Disks behind the node's stable store. Fig 5.5 sweeps 1–3 disks in
/// the queueing model (`queueing::ch5`); a simulated recorder node has
/// one.
const N_DISKS: usize = 1;
/// Per-message publishing CPU (§5.2.2): intercepting at the media layer,
/// the design the thesis argues for.
const PUBLISH_COST: PublishCost = PublishCost::MediaLayer;

/// The checkpoint policy of a recorder node: the one setting worlds
/// choose per run.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Checkpoint policy applied to every process.
    pub policy: CheckpointPolicy,
    /// How often the policy is evaluated.
    pub policy_tick: SimDuration,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            policy: CheckpointPolicy::Periodic(SimDuration::from_secs(2)),
            policy_tick: SimDuration::from_millis(250),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum RTimer {
    Transport(u64),
    Manager(u64),
    Disk(StoreIo),
    PolicyTick,
}

/// The recording node.
pub struct RecorderNode {
    node: NodeId,
    cfg: RecorderConfig,
    recorder: Recorder,
    manager: RecoveryManager,
    transport: Transport,
    /// Spare buffers for what the transport, and the manager, ask for
    /// during a call: one is popped, filled, drained and pushed back by
    /// [`RecorderNode::with_transport`] / [`RecorderNode::with_manager`];
    /// one per depth of nesting ever reached.
    transport_actions: Vec<Vec<TAction>>,
    manager_cmds: Vec<Vec<MgrCmd>>,
    /// The store IO one recorder call starts
    /// ([`RecorderNode::with_recorder`]); recorder calls never nest.
    store_ios: Vec<StoreIo>,
    kernel_seq: u64,
    /// Outstanding timers by the token handed to the world. A crash
    /// clears the table; late timers — disk completions among them —
    /// then find nothing.
    timers: TokenTable<RTimer>,
    checkpoint_requested: HashSet<ProcessId>,
    up: bool,
    /// When set (quorum mode), observed destination acks are queued in
    /// `observed_acks` for the consensus layer to propose instead of
    /// being sequenced locally on the spot.
    defer_sequencing: bool,
    observed_acks: Vec<(MessageId, ProcessId)>,
    /// Whether this node drives the checkpoint-request policy (only the
    /// quorum leader does; a lone recorder always does).
    checkpoint_duty: bool,
}

impl RecorderNode {
    /// Creates a recorder node.
    pub fn new(node: NodeId, cfg: RecorderConfig) -> Self {
        // Disk service parameters are Fig 5.2's.
        let recorder = Recorder::new(node, DiskParams::default(), N_DISKS, PUBLISH_COST);
        let manager = RecoveryManager::new();
        let transport = Transport::new(node, TransportConfig::default());
        RecorderNode {
            node,
            cfg,
            recorder,
            manager,
            transport,
            transport_actions: Vec::new(),
            manager_cmds: Vec::new(),
            store_ios: Vec::new(),
            kernel_seq: 0,
            timers: TokenTable::new(),
            checkpoint_requested: HashSet::new(),
            up: true,
            defer_sequencing: false,
            observed_acks: Vec::new(),
            checkpoint_duty: true,
        }
    }

    /// Switches ack handling into quorum mode: observed destination acks
    /// are queued for the consensus layer ([`RecorderNode::drain_observed_acks`])
    /// instead of assigning arrival sequences immediately.
    pub fn set_deferred_sequencing(&mut self, defer: bool) {
        self.defer_sequencing = defer;
        self.recorder.set_external_sequencing(defer);
    }

    /// Hands each ack observed since the last call (quorum mode only) to
    /// `f`, in arrival order, beside the recorder database to check it
    /// against. The queue keeps its room for the next acks.
    pub fn drain_observed_acks(&mut self, mut f: impl FnMut(&Recorder, MessageId, ProcessId)) {
        for (id, dst) in self.observed_acks.drain(..) {
            f(&self.recorder, id, dst);
        }
    }

    /// Enables or disables the checkpoint-request policy tick (only the
    /// quorum leader exercises this §5 recorder duty).
    pub fn set_checkpoint_duty(&mut self, duty: bool) {
        self.checkpoint_duty = duty;
    }

    /// Applies one committed quorum log entry: publishes `msg` at the
    /// arrival sequence the replicated log assigned it and schedules the
    /// resulting store IO.
    pub fn apply_committed(
        &mut self,
        now: SimTime,
        seq: u64,
        msg: &Message,
        out: &mut Vec<RNAction>,
    ) {
        self.with_recorder(out, |r, ios| r.apply_sequenced_at(now, seq, msg, ios));
    }

    /// Returns the node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Returns this node's station.
    pub fn station(&self) -> StationId {
        StationId(self.node.0)
    }

    /// Returns `true` while the recorder is up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Whether this recording node has nothing left to do until a new
    /// frame arrives: it is up, every captured message is sequenced, no
    /// disk operation is outstanding, the manager is neither recovering a
    /// process nor restarting a node, and the node's own transport has
    /// nothing queued or unacknowledged. The watchdog pings and the
    /// policy tick go on for ever and do not count.
    pub fn settled(&self) -> bool {
        self.up
            && self.recorder.pending_depth() == 0
            && !self.recorder.store().io_outstanding()
            && !self.manager.busy()
            && self.manager.nodes_restarting() == 0
            && !self.transport.has_unacked()
    }

    /// Read access to the recorder database.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Records one consensus-layer lifecycle event (e.g. an election
    /// win) into the recorder's span log. The quorum replica calls this
    /// for transitions the recorder core itself never sees.
    pub fn record_span(
        &mut self,
        now: SimTime,
        key: publishing_obs::span::MsgKey,
        stage: publishing_obs::span::Stage,
        subject: u64,
        aux: u64,
    ) {
        self.recorder
            .spans_mut()
            .record(now, key, stage, subject, aux);
    }

    /// Re-bounds the recorder's span ring (0 = fingerprint-only mode).
    pub fn set_span_capacity(&mut self, capacity: usize) {
        self.recorder.set_span_capacity(capacity);
    }

    /// Read access to the recovery manager.
    pub fn manager(&self) -> &RecoveryManager {
        &self.manager
    }

    /// Applies a disk-fault regime (chaos injection) to the store.
    pub fn set_disk_faults(&mut self, faults: publishing_stable::disk::DiskFaults) {
        self.recorder.set_disk_faults(faults);
    }

    /// Begins operation: watchdogs for `nodes`, plus the checkpoint-policy
    /// tick.
    pub fn start(&mut self, now: SimTime, nodes: &[NodeId], out: &mut Vec<RNAction>) {
        for &n in nodes {
            self.with_manager(now, out, |m, _, cmds| m.watch_node(now, n, cmds));
        }
        self.arm(now + self.cfg.policy_tick, RTimer::PolicyTick, out);
    }

    fn arm(&mut self, at: SimTime, kind: RTimer, out: &mut Vec<RNAction>) {
        let token = self.timers.insert(kind);
        out.push(RNAction::SetTimer { at, token });
    }

    fn next_kernel_id(&mut self) -> MessageId {
        self.kernel_seq += 1;
        let seq = ((self.transport.incarnation() as u64) << 40) | self.kernel_seq;
        MessageId {
            sender: ProcessId::kernel_of(self.node),
            seq,
        }
    }

    fn kernel_send(
        &mut self,
        now: SimTime,
        node: NodeId,
        body: Bytes,
        guaranteed: bool,
        out: &mut Vec<RNAction>,
    ) {
        let id = self.next_kernel_id();
        let to = ProcessId::kernel_of(node);
        let header = MessageHeader {
            id,
            to,
            code: 0,
            channel: Channel::DEFAULT,
            deliver_to_kernel: false,
        };
        let msg = Message {
            header,
            passed_link: None,
            body,
        };
        self.with_transport(now, out, |t, actions| {
            if guaranteed {
                t.send_guaranteed(now, node, msg, actions)
            } else {
                t.send_datagram(now, node, msg, actions)
            }
        });
    }

    /// Runs one transport entry point over a spare action buffer, then
    /// performs what it appended, in order. A delivered control message
    /// can make the manager send: that nested call takes the next spare.
    fn with_transport(
        &mut self,
        now: SimTime,
        out: &mut Vec<RNAction>,
        call: impl FnOnce(&mut Transport, &mut Vec<TAction>),
    ) {
        let mut actions = self.transport_actions.pop().unwrap_or_default();
        call(&mut self.transport, &mut actions);
        for a in actions.drain(..) {
            match a {
                TAction::Transmit { dst_node, payload } => {
                    let frame = Frame::new(
                        self.station(),
                        Destination::Station(StationId(dst_node.0)),
                        payload,
                    );
                    out.push(RNAction::Transmit(frame));
                }
                TAction::Deliver(msg) => self.handle_kernel_msg(now, msg, out),
                TAction::SetTimer { at, token } => self.arm(at, RTimer::Transport(token), out),
            }
        }
        self.transport_actions.push(actions);
    }

    /// Runs one manager entry point (it reads and marks the recorder
    /// database) over a spare command buffer, then executes what it
    /// appended, in order.
    fn with_manager(
        &mut self,
        now: SimTime,
        out: &mut Vec<RNAction>,
        call: impl FnOnce(&mut RecoveryManager, &mut Recorder, &mut Vec<MgrCmd>),
    ) {
        let mut cmds = self.manager_cmds.pop().unwrap_or_default();
        call(&mut self.manager, &mut self.recorder, &mut cmds);
        for c in cmds.drain(..) {
            match c {
                MgrCmd::SendKernel { node, body } => self.kernel_send(now, node, body, true, out),
                MgrCmd::SendKernelDatagram { node, body } => {
                    self.kernel_send(now, node, body, false, out)
                }
                MgrCmd::RestartNode { node, .. } => out.push(RNAction::RestartNode { node }),
                MgrCmd::SetTimer { at, token } => self.arm(at, RTimer::Manager(token), out),
                MgrCmd::ProposeRecovery { pid } => out.push(RNAction::ProposeRecovery { pid }),
                MgrCmd::RecoveryDone { pid } => {
                    self.checkpoint_requested.remove(&pid);
                    out.push(RNAction::RecoveryDone { pid });
                }
            }
        }
        self.manager_cmds.push(cmds);
    }

    /// Runs one recorder entry point over the node's IO buffer, then arms
    /// a disk timer for each IO it started, in the order it started them.
    fn with_recorder<A>(
        &mut self,
        out: &mut Vec<RNAction>,
        call: impl FnOnce(&mut Recorder, &mut Vec<StoreIo>) -> A,
    ) -> A {
        let answer = call(&mut self.recorder, &mut self.store_ios);
        for io in self.store_ios.drain(..) {
            let token = self.timers.insert(RTimer::Disk(io));
            out.push(RNAction::SetTimer { at: io.at, token });
        }
        answer
    }

    /// Handles a frame seen on the medium: passive capture of everything,
    /// plus normal endpoint processing for frames addressed to us.
    pub fn on_frame(
        &mut self,
        now: SimTime,
        frame: &Frame,
        recorder_ok: bool,
        out: &mut Vec<RNAction>,
    ) {
        if !self.up || !frame.is_intact() || !recorder_ok {
            return;
        }
        let addressed = frame.dst.accepts(self.station());
        // Most of what a recorder overhears concerns it not at all:
        // kernel control traffic, datagrams, a neighbouring shard's
        // processes. Read the destination in place and stop where the
        // decoded path would do nothing — as it would for bytes that are
        // not one `Wire`. A quorum node queues every process's ack for
        // the log and has no owner filter, so `tracks` is its test too.
        match Wire::peek_dst(frame.payload()) {
            Ok(dst) if !addressed && dst.is_none_or(|d| !self.recorder.tracks(d)) => return,
            Err(_) => return,
            Ok(_) => {}
        }
        let Ok(wire) = frame.decode_payload::<Wire>() else {
            return;
        };
        match wire {
            // Merely overheard — almost all process traffic: the decoded
            // message has no other reader, so the recorder takes it,
            // with the slice of the frame that is its encoding.
            Wire::Data { msg, .. } if !addressed => {
                let encoded = Wire::data_message(&frame.payload_bytes());
                // The early return above found its destination tracked.
                self.recorder.capture(now, msg, encoded);
                return;
            }
            // Ours as well: the transport below needs the message too.
            // What is addressed to a recorder node is kernel control
            // traffic, which the recorder never captures.
            Wire::Data { ref msg, .. } => {
                if !msg.header.to.is_kernel() {
                    let encoded = Wire::data_message(&frame.payload_bytes());
                    self.recorder.on_data(now, msg.clone(), encoded);
                }
            }
            Wire::Ack {
                msg_id, dst_pid, ..
            } => {
                if self.defer_sequencing {
                    // Quorum mode: arrival-seq assignment waits for the
                    // replicated log to commit the entry.
                    if !dst_pid.is_kernel() {
                        self.observed_acks.push((msg_id, dst_pid));
                    }
                } else {
                    self.with_recorder(out, |r, ios| match addressed {
                        true => r.on_ack(now, msg_id, dst_pid, ios),
                        false => r.publish_acked(now, msg_id, ios),
                    });
                }
            }
            // Datagrams, epoch notices, and quorum traffic (consensus
            // metadata, not process messages) are never published.
            Wire::Datagram { .. } | Wire::EpochNotice { .. } | Wire::Quorum { .. } => {}
        }
        if addressed {
            self.with_transport(now, out, |t, actions| t.on_wire(now, wire, actions));
        }
    }

    fn handle_kernel_msg(&mut self, now: SimTime, msg: Message, out: &mut Vec<RNAction>) {
        let Some((code, payload)) = decode_ctl(&msg.body) else {
            return;
        };
        match code {
            codes::PROCESS_CREATED_NOTICE => {
                if let Ok(n) = protocol::CreatedNotice::decode_all(payload) {
                    let links = n.initial_links;
                    self.with_recorder(out, |r, ios| {
                        r.on_created(now, n.pid, &n.program_name, links, n.recoverable, ios)
                    });
                }
            }
            codes::PROCESS_DESTROYED_NOTICE => {
                if let Ok(n) = protocol::CreatedNotice::decode_all(payload) {
                    self.with_recorder(out, |r, ios| r.on_destroyed(now, n.pid, ios));
                    self.checkpoint_requested.remove(&n.pid);
                }
            }
            codes::READ_ORDER_NOTICE => {
                if let Ok(n) = protocol::ReadOrderNotice::decode_all(payload) {
                    self.recorder.on_read_order(now, &n);
                }
            }
            codes::CHECKPOINT_DEPOSIT => {
                if let Ok(d) = protocol::CheckpointDeposit::decode_all(payload) {
                    self.with_recorder(out, |r, ios| r.on_deposit(now, &d, ios));
                }
            }
            codes::PROCESS_CRASH_NOTICE => {
                if let Ok(n) = protocol::CrashNotice::decode_all(payload) {
                    self.with_manager(now, out, |m, _, cmds| m.on_crash_notice(n.pid, cmds));
                }
            }
            codes::RECREATE_REPLY => {
                let mut d = Decoder::new(payload);
                if let (Ok(pid), Ok(ok)) = (ProcessId::decode(&mut d), d.bool()) {
                    self.with_manager(now, out, |m, r, cmds| m.on_recreate_reply(r, pid, ok, cmds));
                }
            }
            codes::PREPARE_FINISH_REPLY => {
                let mut d = Decoder::new(payload);
                if let Ok(pid) = ProcessId::decode(&mut d) {
                    self.with_manager(now, out, |m, r, cmds| m.on_prepare_reply(r, pid, cmds));
                }
            }
            codes::STATE_REPLY => {
                if let Ok(reply) = protocol::StateReply::decode_all(payload) {
                    self.with_manager(now, out, |m, r, cmds| m.on_state_reply(r, &reply, cmds));
                }
            }
            codes::ALIVE_REPLY => {
                if let Ok(r) = protocol::AliveReply::decode_all(payload) {
                    self.manager.on_alive_reply(r.node, r.nonce);
                }
            }
            codes::NODE_RESTARTED => {
                if let Ok(n) = protocol::NodeRestarted::decode_all(payload) {
                    self.with_transport(now, out, |t, actions| {
                        t.reset_peer(now, n.node, n.incarnation, actions)
                    });
                }
            }
            _ => {}
        }
    }

    /// Handles a timer callback.
    pub fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Vec<RNAction>) {
        if !self.up {
            return;
        }
        match self.timers.take(token) {
            None => {}
            Some(RTimer::Transport(t)) => {
                self.with_transport(now, out, |tr, actions| tr.timer(now, t, actions));
            }
            Some(RTimer::Manager(t)) => {
                self.with_manager(now, out, |m, _, cmds| m.on_timer(now, t, cmds));
            }
            Some(RTimer::Disk(io)) => {
                let durable = self.with_recorder(out, |r, ios| r.on_disk(now, io, ios));
                for pid in durable {
                    self.checkpoint_requested.remove(&pid);
                }
            }
            Some(RTimer::PolicyTick) => {
                self.policy_tick(now, out);
                self.with_recorder(out, |r, ios| r.maintain(now, ios));
                self.arm(now + self.cfg.policy_tick, RTimer::PolicyTick, out);
            }
        }
    }

    fn policy_tick(&mut self, now: SimTime, out: &mut Vec<RNAction>) {
        if !self.checkpoint_duty {
            return;
        }
        let due: Vec<ProcessId> = self
            .recorder
            .known_pids()
            .filter(|pid| !self.checkpoint_requested.contains(pid))
            .filter(|pid| {
                self.recorder
                    .entry(*pid)
                    .map(|e| self.cfg.policy.due(now, e))
                    .unwrap_or(false)
            })
            .collect();
        for pid in due {
            self.checkpoint_requested.insert(pid);
            let mut e = Encoder::new();
            e.u32(codes::REQUEST_CHECKPOINT);
            pid.encode(&mut e);
            self.kernel_send(now, pid.node, e.finish().into(), true, out);
        }
    }

    /// The world completed a node restart; announce it (if asked) and
    /// propose recovery of the node's processes. Every live member is
    /// told; only the one that restarted the node broadcasts
    /// NODE_RESTARTED, the rest pass `announce = false` and just reset
    /// their transport toward it.
    pub fn confirm_node_restarted(
        &mut self,
        now: SimTime,
        node: NodeId,
        incarnation: u32,
        announce: bool,
        out: &mut Vec<RNAction>,
    ) {
        // Reset our own numbering toward the restarted node before any
        // recovery traffic is queued.
        self.with_transport(now, out, |t, actions| {
            t.reset_peer(now, node, incarnation, actions)
        });
        self.with_manager(now, out, |m, r, cmds| {
            m.on_node_restarted(r, node, incarnation, announce, cmds)
        });
    }

    /// Installs the shard ownership filter on the recorder: which pids
    /// this node records.
    pub fn set_ownership_filter(&mut self, owner: Option<crate::recorder::PidFilter>) {
        self.recorder.set_ownership_filter(owner);
    }

    /// Starts (or restarts) recovery of `pid`, which a trigger proposed
    /// and the world found this node authoritative for.
    pub fn recover(&mut self, now: SimTime, pid: ProcessId, out: &mut Vec<RNAction>) {
        self.with_manager(now, out, |m, r, cmds| m.start_recovery(r, pid, cmds));
    }

    /// Issues targeted STATE_QUERYs for `pids` (the hand-off: a member
    /// that inherits authority from a crashed one asks which of its
    /// processes need recovery).
    pub fn query_process_states(
        &mut self,
        now: SimTime,
        pids: &[ProcessId],
        out: &mut Vec<RNAction>,
    ) {
        self.with_manager(now, out, |m, r, cmds| m.query_states(r, pids, cmds));
    }

    /// Snapshots one owned process for handoff to another shard.
    pub fn export_process(&self, pid: ProcessId) -> Option<crate::recorder::ProcessExport> {
        self.recorder.export_process(pid)
    }

    /// Imports a process handed off from another shard and schedules the
    /// resulting store IO.
    pub fn import_process(
        &mut self,
        now: SimTime,
        export: crate::recorder::ProcessExport,
        out: &mut Vec<RNAction>,
    ) {
        self.with_recorder(out, |r, ios| r.import_process(now, export, ios));
    }

    /// Drops one process from this shard after a successful handoff.
    pub fn release_process(&mut self, now: SimTime, pid: ProcessId, out: &mut Vec<RNAction>) {
        self.with_recorder(out, |r, ios| r.forget(now, pid, ios));
        self.checkpoint_requested.remove(&pid);
    }

    /// Declines a proposed node restart (§6.3: another member is the
    /// authority for the node's kernel endpoint); the watchdog keeps
    /// checking.
    pub fn decline_node_restart(&mut self, node: NodeId) {
        self.manager.cancel_restart(node);
    }

    /// Crashes the recorder (volatile state lost; store survives). While
    /// down, the medium's recorder gating suspends all traffic (§3.3.4).
    pub fn crash(&mut self) {
        self.up = false;
        self.recorder.crash();
        self.timers.clear();
        self.checkpoint_requested.clear();
        self.observed_acks.clear();
    }

    /// Restarts the recorder (§3.3.4): rebuild from stable storage,
    /// announce the new incarnation, query every known process's state.
    pub fn restart(&mut self, now: SimTime, out: &mut Vec<RNAction>) {
        self.up = true;
        let incarnation = self.transport.incarnation() + 1;
        self.transport.restart(incarnation);
        self.kernel_seq = 0;
        let known = self.with_recorder(out, |r, ios| r.restart(now, ios));
        // Peers must renumber toward us.
        let restarted = protocol::NodeRestarted {
            node: self.node,
            incarnation,
        };
        let body = encode_ctl(codes::NODE_RESTARTED, &restarted);
        let nodes: Vec<NodeId> = known
            .iter()
            .map(|p| p.node)
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        let mut sorted = nodes;
        sorted.sort();
        for n in &sorted {
            self.kernel_send(now, *n, body.clone(), true, out);
        }
        self.with_manager(now, out, |m, r, cmds| {
            m.on_recorder_restart(now, r, &known, cmds)
        });
        self.arm(now + self.cfg.policy_tick, RTimer::PolicyTick, out);
    }
}

impl core::fmt::Debug for RecorderNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RecorderNode")
            .field("node", &self.node)
            .field("up", &self.up)
            .field("known", &self.recorder.known_pids().count())
            .finish()
    }
}
