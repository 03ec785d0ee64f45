//! The recovery manager, watchdogs, and recovery processes (§3.3.2,
//! §3.3.3, §4.6, §4.7).
//!
//! The manager lives on the recording node. Watchdog timers ping every
//! processing node ("it is a good idea for each processor to send a
//! message from time to time, even if it has nothing to say"); a missed
//! reply declares the node crashed. Crash notices from kernels report
//! single-process faults. Either way, a *recovery job* per crashed
//! process drives the §3.3.3 sequence: recreate at the last checkpoint,
//! replay the published messages in read order, then a
//! prepare/straggler/commit handshake that closes the race between the
//! end of replay and newly arriving live traffic.
//!
//! The manager is a pure state machine: it consumes protocol replies and
//! timer callbacks plus read access to the [`Recorder`] database, and
//! appends [`MgrCmd`]s, in the order the recorder node must execute them,
//! to a buffer the node owns and reuses. Its three triggers — a node
//! restart, a crash notice, a state reply — only *propose* a recovery:
//! which member of the recorder tier drives it is the world's decision
//! (`RecorderTier::authority`), which runs it here with
//! [`RecoveryManager::start_recovery`] or not at all.

use crate::recorder::Recorder;
use publishing_demos::ids::{NodeId, ProcessId};
use publishing_demos::kernel::encode_ctl;
use publishing_demos::protocol::{self, codes, ReportedState};
use publishing_sim::codec::{Bytes, Encode, Encoder};
use publishing_sim::stats::Counter;
use publishing_sim::table::TokenTable;
use publishing_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A command for the recorder node to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MgrCmd {
    /// Send a guaranteed control message to a node's kernel endpoint.
    SendKernel {
        /// Destination node.
        node: NodeId,
        /// Encoded control body (code + payload).
        body: Bytes,
    },
    /// Send an unguaranteed datagram to a node's kernel endpoint
    /// (watchdog pings; no retransmission toward dead nodes).
    SendKernelDatagram {
        /// Destination node.
        node: NodeId,
        /// Encoded control body.
        body: Bytes,
    },
    /// Physically restart a crashed node (the §4.6 operator action /
    /// spare processor assuming its identity); the world calls back
    /// [`RecoveryManager::on_node_restarted`] once done.
    RestartNode {
        /// Node to restart.
        node: NodeId,
        /// Its new incarnation.
        incarnation: u32,
    },
    /// Arm a manager timer.
    SetTimer {
        /// Callback time.
        at: SimTime,
        /// Token for [`RecoveryManager::on_timer`].
        token: u64,
    },
    /// A trigger asks for this process's recovery; the world starts it
    /// on the member authoritative for the pid.
    ProposeRecovery {
        /// The process.
        pid: ProcessId,
    },
    /// A process finished recovering (informational).
    RecoveryDone {
        /// The recovered process.
        pid: ProcessId,
    },
}

/// Watchdog ping interval (per node, §3.3).
const PING_INTERVAL: SimDuration = SimDuration::from_millis(500);
/// How long to wait for an ALIVE reply before declaring a crash: shorter
/// than the interval, so one node has at most one ping outstanding.
const PING_TIMEOUT: SimDuration = SimDuration::from_millis(400);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// RECREATE sent; waiting for the kernel's confirmation.
    WaitRecreate,
    /// Replays and PREPARE_FINISH sent; waiting for the prepare reply.
    Preparing {
        /// Next read index to replay when stragglers appear.
        next_index: u64,
    },
}

#[derive(Debug)]
struct Job {
    phase: Phase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    Up,
    /// Declared crashed; restart requested.
    Restarting,
}

#[derive(Debug)]
struct Watch {
    state: NodeState,
    incarnation: u32,
    outstanding: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
enum TimerKind {
    Ping(NodeId),
    PingTimeout(NodeId, u64),
}

/// Counters the manager maintains.
#[derive(Debug, Default, Clone)]
pub struct ManagerStats {
    /// Process crashes handled.
    pub process_recoveries: Counter,
    /// Node crashes detected by watchdog timeout.
    pub node_crashes: Counter,
    /// Messages replayed.
    pub replayed: Counter,
    /// Recoveries completed.
    pub completed: Counter,
    /// Recursive crashes (crash during recovery, §3.5).
    pub recursive: Counter,
    /// Stale state replies ignored (§3.4 restart numbers).
    pub stale_replies: Counter,
}

/// The recovery manager.
#[derive(Default)]
pub struct RecoveryManager {
    nodes: BTreeMap<NodeId, Watch>,
    jobs: BTreeMap<ProcessId, Job>,
    timers: TokenTable<TimerKind>,
    next_nonce: u64,
    stats: ManagerStats,
}

impl RecoveryManager {
    /// Creates a manager watching no nodes yet.
    pub fn new() -> Self {
        RecoveryManager::default()
    }

    /// Returns the manager's counters.
    pub fn stats(&self) -> &ManagerStats {
        &self.stats
    }

    /// Returns `true` while any recovery job is in flight.
    pub fn busy(&self) -> bool {
        !self.jobs.is_empty()
    }

    /// Returns the processes whose recovery this manager is driving, in
    /// pid order (the recovery-lag probe sums their replay backlogs).
    pub fn job_pids(&self) -> Vec<ProcessId> {
        self.jobs.keys().copied().collect()
    }

    /// Returns the number of nodes currently believed crashed.
    pub fn nodes_restarting(&self) -> usize {
        self.nodes
            .values()
            .filter(|w| w.state == NodeState::Restarting)
            .count()
    }

    fn timer(&mut self, at: SimTime, kind: TimerKind, out: &mut Vec<MgrCmd>) {
        let token = self.timers.insert(kind);
        out.push(MgrCmd::SetTimer { at, token });
    }

    /// Starts watching a node: arms its watchdog (§4.6: "creates, on the
    /// recording node, a watch process for each processor").
    pub fn watch_node(&mut self, now: SimTime, node: NodeId, out: &mut Vec<MgrCmd>) {
        self.nodes.insert(
            node,
            Watch {
                state: NodeState::Up,
                incarnation: 0,
                outstanding: None,
            },
        );
        // Offset each node's watchdog phase: nodes are watched in a batch
        // at startup, and un-staggered pings would hit a broadcast medium
        // at the same instant every interval — a guaranteed CSMA/CD
        // collision convoy that persists for the life of the run.
        let phase = SimDuration::from_nanos(PING_INTERVAL.as_nanos() / 8 * (u64::from(node.0) % 8));
        self.timer(now + PING_INTERVAL + phase, TimerKind::Ping(node), out);
    }

    /// Handles a manager timer.
    pub fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Vec<MgrCmd>) {
        let Some(kind) = self.timers.take(token) else {
            return;
        };
        match kind {
            TimerKind::Ping(node) => {
                let Some(w) = self.nodes.get_mut(&node) else {
                    return;
                };
                if w.state == NodeState::Up {
                    let nonce = self.next_nonce;
                    self.next_nonce += 1;
                    w.outstanding = Some(nonce);
                    out.push(MgrCmd::SendKernelDatagram {
                        node,
                        body: encode_ctl(codes::ARE_YOU_ALIVE, &nonce),
                    });
                    self.timer(now + PING_TIMEOUT, TimerKind::PingTimeout(node, nonce), out);
                }
                self.timer(now + PING_INTERVAL, TimerKind::Ping(node), out);
            }
            TimerKind::PingTimeout(node, nonce) => {
                let Some(w) = self.nodes.get_mut(&node) else {
                    return;
                };
                if w.state == NodeState::Up && w.outstanding == Some(nonce) {
                    // §4.6: no reply within the interval — the node crashed.
                    self.stats.node_crashes.inc();
                    w.state = NodeState::Restarting;
                    w.incarnation += 1;
                    let incarnation = w.incarnation;
                    out.push(MgrCmd::RestartNode { node, incarnation });
                }
            }
        }
    }

    /// Called by the world after it physically restarted `node`:
    /// broadcasts the restart (when `announce`) so peers renumber, then
    /// proposes recovery of every process the recorder knows on that
    /// node. Every live member of the tier is told; the one that
    /// restarted the node announces it, the others pass `announce =
    /// false` and only re-arm their watchdog.
    pub fn on_node_restarted(
        &mut self,
        recorder: &Recorder,
        node: NodeId,
        incarnation: u32,
        announce: bool,
        out: &mut Vec<MgrCmd>,
    ) {
        let Some(w) = self.nodes.get_mut(&node) else {
            return;
        };
        w.state = NodeState::Up;
        w.outstanding = None;
        w.incarnation = incarnation;
        if announce {
            let restarted = protocol::NodeRestarted { node, incarnation };
            let body = encode_ctl(codes::NODE_RESTARTED, &restarted);
            let peers: Vec<NodeId> = self.nodes.keys().copied().filter(|&n| n != node).collect();
            for peer in peers {
                out.push(MgrCmd::SendKernel {
                    node: peer,
                    body: body.clone(),
                });
            }
        }
        // Any recovery jobs that were talking to the node's previous
        // incarnation died with it; forget them so fresh jobs can start.
        self.jobs.retain(|p, _| p.node != node);
        let pids = recorder.known_pids().filter(|p| p.node == node);
        out.extend(pids.map(|pid| MgrCmd::ProposeRecovery { pid }));
    }

    /// Starts (or restarts, §3.5) recovery of one process: what the world
    /// runs on the authority for `pid` when a trigger proposed it.
    pub fn start_recovery(
        &mut self,
        recorder: &mut Recorder,
        pid: ProcessId,
        out: &mut Vec<MgrCmd>,
    ) {
        if self.jobs.contains_key(&pid) {
            // A recovery is already in flight; a second trigger (e.g. a
            // state-query reply racing a retransmitted crash notice) must
            // not wipe its progress. Genuine recursive crashes remove the
            // job first (§3.5).
            return;
        }
        let Some(entry) = recorder.entry(pid) else {
            return;
        };
        if !entry.recoverable {
            // §6.6.1: the process opted out of recovery; its crash is
            // final and nothing was published for it.
            return;
        }
        let program_name = entry.program_name.clone();
        let initial_links = entry.initial_links.clone();
        if program_name.is_empty() {
            // We never saw a creation notice; nothing to recreate from.
            return;
        }
        self.stats.process_recoveries.inc();
        recorder.set_recovering(pid, true);
        let req = protocol::Recreate {
            pid,
            program_name,
            checkpoint: recorder.checkpoint_image(pid).map(|b| b.to_vec()),
            suppress: recorder.suppress_vector(pid),
            initial_links,
        };
        self.jobs.insert(
            pid,
            Job {
                phase: Phase::WaitRecreate,
            },
        );
        out.push(MgrCmd::SendKernel {
            node: pid.node,
            body: encode_ctl(codes::RECREATE, &req),
        });
    }

    /// Handles a RECREATE_REPLY: streams the replay and the prepare.
    pub fn on_recreate_reply(
        &mut self,
        recorder: &Recorder,
        pid: ProcessId,
        ok: bool,
        out: &mut Vec<MgrCmd>,
    ) {
        let Some(job) = self.jobs.get_mut(&pid) else {
            return;
        };
        if job.phase != Phase::WaitRecreate || !ok {
            return;
        }
        // §3.3.3 step 3: send all messages received between the last
        // checkpoint and the crash, in original (read) order. FIFO
        // transport keeps them ordered ahead of the prepare.
        let stream = recorder.replay_stream(pid);
        let mut next_index = recorder.entry(pid).map(|e| e.read_floor).unwrap_or(0);
        for (idx, msg) in stream {
            let rep = protocol::Replay {
                dst: pid,
                read_seq: idx,
                msg,
            };
            out.push(MgrCmd::SendKernel {
                node: pid.node,
                body: encode_ctl(codes::REPLAY, &rep),
            });
            self.stats.replayed.inc();
            next_index = idx + 1;
        }
        let mut e = Encoder::new();
        e.u32(codes::PREPARE_FINISH);
        pid.encode(&mut e);
        out.push(MgrCmd::SendKernel {
            node: pid.node,
            body: e.finish().into(),
        });
        job.phase = Phase::Preparing { next_index };
    }

    /// Handles a PREPARE_FINISH_REPLY: replays stragglers published since
    /// the first pass, then commits.
    pub fn on_prepare_reply(
        &mut self,
        recorder: &mut Recorder,
        pid: ProcessId,
        out: &mut Vec<MgrCmd>,
    ) {
        let Some(job) = self.jobs.get_mut(&pid) else {
            return;
        };
        let Phase::Preparing { next_index } = job.phase else {
            return;
        };
        for (idx, msg) in recorder.replay_stream(pid) {
            if idx < next_index {
                continue;
            }
            let rep = protocol::Replay {
                dst: pid,
                read_seq: idx,
                msg,
            };
            out.push(MgrCmd::SendKernel {
                node: pid.node,
                body: encode_ctl(codes::REPLAY, &rep),
            });
            self.stats.replayed.inc();
        }
        let mut e = Encoder::new();
        e.u32(codes::COMMIT_FINISH);
        pid.encode(&mut e);
        out.push(MgrCmd::SendKernel {
            node: pid.node,
            body: e.finish().into(),
        });
        self.jobs.remove(&pid);
        recorder.set_recovering(pid, false);
        self.stats.completed.inc();
        out.push(MgrCmd::RecoveryDone { pid });
    }

    /// Handles a §3.3.2 crash notice from a kernel: proposes the
    /// process's recovery.
    pub fn on_crash_notice(&mut self, pid: ProcessId, out: &mut Vec<MgrCmd>) {
        // A crash of a recovering process is the §3.5 recursive case:
        // terminate the old job and start over.
        if self.jobs.remove(&pid).is_some() {
            self.stats.recursive.inc();
        }
        out.push(MgrCmd::ProposeRecovery { pid });
    }

    /// Declines a restart this manager proposed (another member is the
    /// authority for the node's kernel endpoint, §6.3). The watchdog keeps
    /// pinging; if the node stays dead — say the responsible recorder
    /// failed during recovery — the timeout fires again and authority is
    /// re-evaluated, which is exactly §6.3's periodic re-query.
    pub fn cancel_restart(&mut self, node: NodeId) {
        if let Some(w) = self.nodes.get_mut(&node) {
            if w.state == NodeState::Restarting {
                w.state = NodeState::Up;
                w.outstanding = None;
                w.incarnation = w.incarnation.saturating_sub(1);
            }
        }
    }

    /// Handles a watchdog ALIVE reply.
    pub fn on_alive_reply(&mut self, node: NodeId, nonce: u64) {
        if let Some(w) = self.nodes.get_mut(&node) {
            if w.outstanding == Some(nonce) {
                w.outstanding = None;
            }
        }
    }

    /// Drives the §3.3.4 recorder-restart protocol: queries every known
    /// process's state.
    pub fn on_recorder_restart(
        &mut self,
        now: SimTime,
        recorder: &mut Recorder,
        known: &[ProcessId],
        out: &mut Vec<MgrCmd>,
    ) {
        self.jobs.clear();
        self.query_states(recorder, known, out);
        // Re-arm watchdogs.
        let nodes: Vec<NodeId> = self.nodes.keys().copied().collect();
        for node in nodes {
            if let Some(w) = self.nodes.get_mut(&node) {
                w.outstanding = None;
                w.state = NodeState::Up;
            }
            self.timer(now + PING_INTERVAL, TimerKind::Ping(node), out);
        }
    }

    /// Queries the state of specific processes without disturbing
    /// in-flight jobs or watchdogs — the targeted variant of
    /// [`RecoveryManager::on_recorder_restart`]. A member that inherits
    /// authority for processes from one that crashed uses this to learn
    /// which of them need recovery: a Crashed, Unknown, or Recovering
    /// reply proposes their recovery, which is safe mid-replay because
    /// RECREATE destroys the half-built process and starts clean.
    pub fn query_states(&self, recorder: &Recorder, pids: &[ProcessId], out: &mut Vec<MgrCmd>) {
        for &pid in pids {
            let q = protocol::StateQuery {
                pid,
                restart_number: recorder.restart_number(),
            };
            out.push(MgrCmd::SendKernel {
                node: pid.node,
                body: encode_ctl(codes::STATE_QUERY, &q),
            });
        }
    }

    /// Handles a STATE_REPLY during recorder restart (§3.3.4's four
    /// cases; stale restart numbers are ignored per §3.4).
    pub fn on_state_reply(
        &mut self,
        recorder: &Recorder,
        reply: &protocol::StateReply,
        out: &mut Vec<MgrCmd>,
    ) {
        if reply.restart_number != recorder.restart_number() {
            self.stats.stale_replies.inc();
            return;
        }
        match reply.state {
            ReportedState::Functioning => {}
            ReportedState::Crashed | ReportedState::Unknown | ReportedState::Recovering => {
                // Crashed while (or before) we were down — or an orphaned
                // half-recovery; recreate destroys and starts clean.
                out.push(MgrCmd::ProposeRecovery { pid: reply.pid })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::tests::drain;
    use crate::recorder::PublishCost;
    use publishing_stable::disk::DiskParams;

    /// The commands one manager call appends.
    fn run(call: impl FnOnce(&mut Vec<MgrCmd>)) -> Vec<MgrCmd> {
        let mut out = Vec::new();
        call(&mut out);
        out
    }

    fn recorder() -> Recorder {
        Recorder::new(NodeId(9), DiskParams::default(), 1, PublishCost::MediaLayer)
    }

    fn setup_process(r: &mut Recorder) -> ProcessId {
        let pid = ProcessId::new(1, 1);
        drain(r, |r, ios| {
            r.on_created(SimTime::ZERO, pid, "echo", vec![], true, ios)
        });
        pid
    }

    #[test]
    fn watchdog_pings_periodically() {
        let mut m = RecoveryManager::new();
        let cmds = run(|c| m.watch_node(SimTime::ZERO, NodeId(1), c));
        let (at, token) = match &cmds[0] {
            MgrCmd::SetTimer { at, token } => (*at, *token),
            other => panic!("unexpected {other:?}"),
        };
        let cmds = run(|c| m.on_timer(at, token, c));
        assert!(cmds
            .iter()
            .any(|c| matches!(c, MgrCmd::SendKernelDatagram { node, .. } if *node == NodeId(1))));
        // Both a timeout and the next ping are armed.
        assert_eq!(
            cmds.iter()
                .filter(|c| matches!(c, MgrCmd::SetTimer { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn missed_ping_declares_node_crashed() {
        let mut m = RecoveryManager::new();
        let cmds = run(|c| m.watch_node(SimTime::ZERO, NodeId(1), c));
        let (at, token) = match &cmds[0] {
            MgrCmd::SetTimer { at, token } => (*at, *token),
            _ => panic!(),
        };
        let cmds = run(|c| m.on_timer(at, token, c));
        // Find the timeout timer (first SetTimer after the ping).
        let timeout = cmds
            .iter()
            .filter_map(|c| match c {
                MgrCmd::SetTimer { at, token } => Some((*at, *token)),
                _ => None,
            })
            .next()
            .unwrap();
        let cmds = run(|c| m.on_timer(timeout.0, timeout.1, c));
        assert!(cmds.iter().any(
            |c| matches!(c, MgrCmd::RestartNode { node, incarnation: 1 } if *node == NodeId(1))
        ));
        assert_eq!(m.stats().node_crashes.get(), 1);
        assert_eq!(m.nodes_restarting(), 1);
    }

    #[test]
    fn alive_reply_cancels_timeout() {
        let mut m = RecoveryManager::new();
        let cmds = run(|c| m.watch_node(SimTime::ZERO, NodeId(1), c));
        let (at, token) = match &cmds[0] {
            MgrCmd::SetTimer { at, token } => (*at, *token),
            _ => panic!(),
        };
        let cmds = run(|c| m.on_timer(at, token, c));
        // Extract the ping nonce from the datagram body.
        let nonce = cmds
            .iter()
            .find_map(|c| match c {
                MgrCmd::SendKernelDatagram { body, .. } => {
                    Some(u64::from_le_bytes(body[4..12].try_into().unwrap()))
                }
                _ => None,
            })
            .unwrap();
        m.on_alive_reply(NodeId(1), nonce);
        let timeout = cmds
            .iter()
            .filter_map(|c| match c {
                MgrCmd::SetTimer { at, token } => Some((*at, *token)),
                _ => None,
            })
            .next()
            .unwrap();
        let cmds = run(|c| m.on_timer(timeout.0, timeout.1, c));
        assert!(!cmds.iter().any(|c| matches!(c, MgrCmd::RestartNode { .. })));
        assert_eq!(m.stats().node_crashes.get(), 0);
    }

    #[test]
    fn process_recovery_walks_phases() {
        let mut m = RecoveryManager::new();
        let mut r = recorder();
        let pid = setup_process(&mut r);
        let cmds = run(|c| m.start_recovery(&mut r, pid, c));
        assert!(matches!(&cmds[0], MgrCmd::SendKernel { node, .. } if *node == pid.node));
        assert!(r.entry(pid).unwrap().recovering);
        assert!(m.busy());

        let cmds = run(|c| m.on_recreate_reply(&r, pid, true, c));
        // No messages published yet: just the prepare.
        assert_eq!(cmds.len(), 1);

        let cmds = run(|c| m.on_prepare_reply(&mut r, pid, c));
        assert!(cmds
            .iter()
            .any(|c| matches!(c, MgrCmd::RecoveryDone { .. })));
        assert!(!m.busy());
        assert!(!r.entry(pid).unwrap().recovering);
        assert_eq!(m.stats().completed.get(), 1);
    }

    #[test]
    fn recovery_replays_published_messages() {
        use publishing_demos::ids::{Channel, MessageId};
        use publishing_demos::message::{Message, MessageHeader};
        let mut m = RecoveryManager::new();
        let mut r = recorder();
        let pid = setup_process(&mut r);
        for i in 1..=3u64 {
            let msg = Message {
                header: MessageHeader {
                    id: MessageId {
                        sender: ProcessId::new(2, 1),
                        seq: i,
                    },
                    to: pid,
                    code: 0,
                    channel: Channel(0),
                    deliver_to_kernel: false,
                },
                passed_link: None,
                body: vec![i as u8].into(),
            };
            r.on_data(SimTime::ZERO, msg.clone(), msg.encode_to_bytes());
            drain(&mut r, |r, ios| {
                r.on_ack(SimTime::ZERO, msg.header.id, pid, ios)
            });
        }
        run(|c| m.start_recovery(&mut r, pid, c));
        let cmds = run(|c| m.on_recreate_reply(&r, pid, true, c));
        // 3 replays + 1 prepare.
        assert_eq!(cmds.len(), 4);
        assert_eq!(m.stats().replayed.get(), 3);
    }

    #[test]
    fn unknown_process_cannot_recover() {
        let mut m = RecoveryManager::new();
        let mut r = recorder();
        let cmds = run(|c| m.start_recovery(&mut r, ProcessId::new(5, 5), c));
        assert!(cmds.is_empty());
    }

    #[test]
    fn recursive_crash_restarts_job() {
        let mut m = RecoveryManager::new();
        let mut r = recorder();
        let pid = setup_process(&mut r);
        run(|c| m.start_recovery(&mut r, pid, c));
        // The recovering process crashes again (§3.5): the old job
        // ends, and the new recovery is proposed like the first.
        let cmds = run(|c| m.on_crash_notice(pid, c));
        assert_eq!(cmds, [MgrCmd::ProposeRecovery { pid }]);
        assert_eq!(m.stats().recursive.get(), 1);
        assert!(!m.busy());
    }

    #[test]
    fn triggers_propose_and_start_nothing() {
        let mut m = RecoveryManager::new();
        let mut r = recorder();
        let pid = setup_process(&mut r);
        let cmds = run(|c| m.on_crash_notice(pid, c));
        assert_eq!(cmds, [MgrCmd::ProposeRecovery { pid }]);
        let reply = protocol::StateReply {
            pid,
            state: ReportedState::Crashed,
            restart_number: r.restart_number(),
        };
        let cmds = run(|c| m.on_state_reply(&r, &reply, c));
        assert_eq!(cmds, [MgrCmd::ProposeRecovery { pid }]);
        assert!(!m.busy());
        assert_eq!(m.stats().process_recoveries.get(), 0);
    }

    #[test]
    fn query_states_targets_only_requested_pids() {
        let m = RecoveryManager::new();
        let mut r = recorder();
        let pid = setup_process(&mut r);
        let other = ProcessId::new(3, 1);
        let cmds = run(|c| m.query_states(&r, &[pid, other], c));
        assert_eq!(cmds.len(), 2);
        assert!(cmds.iter().all(|c| matches!(c, MgrCmd::SendKernel { .. })));
        assert!(!m.busy(), "queries alone start no jobs");
    }

    #[test]
    fn quiet_node_restart_skips_announcement() {
        let mut m = RecoveryManager::new();
        let mut r = recorder();
        let pid = setup_process(&mut r);
        run(|c| m.watch_node(SimTime::ZERO, pid.node, c));
        run(|c| m.watch_node(SimTime::ZERO, NodeId(7), c));
        let cmds = run(|c| m.on_node_restarted(&r, pid.node, 1, false, c));
        // Recovery of the node's process is proposed, but no
        // NODE_RESTARTED broadcast goes to node 7.
        assert_eq!(cmds, [MgrCmd::ProposeRecovery { pid }]);
    }

    #[test]
    fn stale_state_replies_ignored() {
        let mut m = RecoveryManager::new();
        let mut r = recorder();
        let pid = setup_process(&mut r);
        drain(&mut r, |r, ios| r.restart(SimTime::from_millis(1), ios)); // restart_number = 1
        let reply = protocol::StateReply {
            pid,
            state: ReportedState::Crashed,
            restart_number: 0,
        };
        let cmds = run(|c| m.on_state_reply(&r, &reply, c));
        assert!(cmds.is_empty());
        assert_eq!(m.stats().stale_replies.get(), 1);
    }
}
