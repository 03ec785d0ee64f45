//! A live, real-time runtime over the same sans-IO state machines.
//!
//! The simulation `World` drives kernels and the recorder from a virtual
//! clock for reproducible experiments. This module drives the *identical*
//! protocol code from wall-clock time: every node (and the recorder) is
//! an OS thread; a hub thread plays the broadcast medium over crossbeam
//! channels, enforcing the §4.4.1 publish-before-use gate exactly like
//! the simulated media do. Nothing in `publishing-demos` or the recorder
//! knows which runtime it is under — the payoff of the sans-IO design.
//!
//! Timing is mapped by a shared epoch: `SimTime` = elapsed wall time
//! since system start. Runs are *not* deterministic (that is the point);
//! tests assert outcomes, not schedules.

use crate::node::{RNAction, RecorderConfig, RecorderNode};
use crossbeam::channel::{bounded, select, tick, Receiver, Sender};
use parking_lot::Mutex;
use publishing_demos::costs::CostModel;
use publishing_demos::harness::OutputLine;
use publishing_demos::ids::{NodeId, ProcessId};
use publishing_demos::kernel::{Kernel, KernelAction};
use publishing_demos::link::Link;
use publishing_demos::registry::{ProgramRegistry, UnknownProgram};
use publishing_demos::transport::TransportConfig;
use publishing_net::frame::Frame;
use publishing_sim::time::SimTime;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Messages between threads.
enum ToNode {
    /// A frame from the medium, with the recorder-gating flag.
    Frame(Frame, bool),
    /// Crash one local process.
    CrashProcess(u32, String),
    /// Shut the thread down.
    Quit,
}

struct HubMsg {
    frame: Frame,
}

/// Control handle for a running live system.
pub struct LiveSystem {
    epoch: Instant,
    node_tx: Vec<Sender<ToNode>>,
    recorder_tx: Sender<ToNode>,
    outputs: Arc<Mutex<Vec<OutputLine>>>,
    recorder_up: Arc<AtomicBool>,
    spawned: Arc<AtomicU32>,
    per_node_spawns: Mutex<std::collections::BTreeMap<u32, u32>>,
    registry: ProgramRegistry,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Builds and starts a live system.
pub struct LiveBuilder {
    nodes: u32,
    registry: ProgramRegistry,
    recorder_cfg: RecorderConfig,
}

impl LiveBuilder {
    /// A live system with `nodes` processing nodes plus a recorder.
    pub fn new(nodes: u32, registry: ProgramRegistry) -> Self {
        LiveBuilder {
            nodes,
            registry,
            recorder_cfg: RecorderConfig::default(),
        }
    }

    /// Overrides the recorder configuration.
    pub fn recorder(mut self, cfg: RecorderConfig) -> Self {
        self.recorder_cfg = cfg;
        self
    }

    /// Starts the threads. Spawn programs through
    /// [`LiveSystem::spawn_blocking`], then drive with real time.
    pub fn start(self) -> LiveSystem {
        let epoch = Instant::now();
        let recorder_node = NodeId(self.nodes);
        let outputs = Arc::new(Mutex::new(Vec::new()));
        let recorder_up = Arc::new(AtomicBool::new(true));

        // The hub fans frames out to every station; per-node inboxes.
        let (hub_tx, hub_rx) = bounded::<HubMsg>(1024);
        let mut node_tx = Vec::new();
        let mut node_rx = Vec::new();
        for _ in 0..=self.nodes {
            let (tx, rx) = bounded::<ToNode>(1024);
            node_tx.push(tx);
            node_rx.push(rx);
        }
        let recorder_rx = node_rx.pop().expect("recorder inbox");
        let recorder_tx = node_tx.pop().expect("recorder inbox");

        let mut handles = Vec::new();

        // Hub thread: broadcast with the publish-before-use gate.
        {
            let node_tx = node_tx.clone();
            let recorder_tx = recorder_tx.clone();
            let recorder_up = recorder_up.clone();
            handles.push(std::thread::spawn(move || {
                while let Ok(HubMsg { frame }) = hub_rx.recv() {
                    let ok = recorder_up.load(Ordering::SeqCst);
                    // Deliver to the recorder first (it must overhear
                    // everything), then to every node.
                    let _ = recorder_tx.send(ToNode::Frame(frame.clone(), ok));
                    for tx in &node_tx {
                        let _ = tx.send(ToNode::Frame(frame.clone(), ok));
                    }
                }
            }));
        }

        // Node threads.
        for (i, rx) in node_rx.into_iter().enumerate() {
            let mut kernel = Kernel::new(
                NodeId(i as u32),
                self.registry.clone(),
                CostModel::zero(),
                TransportConfig::default(),
                true,
            );
            kernel.set_recorder(recorder_node);
            let hub_tx = hub_tx.clone();
            let outputs = outputs.clone();
            handles.push(std::thread::spawn(move || {
                node_loop(epoch, kernel, rx, hub_tx, outputs)
            }));
        }

        // Recorder thread.
        {
            let mut rn = RecorderNode::new(recorder_node, self.recorder_cfg);
            let watch: Vec<NodeId> = (0..self.nodes).map(NodeId).collect();
            let hub_tx = hub_tx.clone();
            handles.push(std::thread::spawn(move || {
                recorder_loop(epoch, &mut rn, &watch, recorder_rx, hub_tx)
            }));
        }

        drop(hub_tx);
        LiveSystem {
            epoch,
            node_tx,
            recorder_tx,
            outputs,
            recorder_up,
            spawned: Arc::new(AtomicU32::new(0)),
            per_node_spawns: Mutex::new(Default::default()),
            registry: self.registry,
            handles,
        }
    }
}

/// A time-ordered pending timer.
struct PendingTimer {
    at: SimTime,
    token: u64,
}

impl PartialEq for PendingTimer {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.token == other.token
    }
}
impl Eq for PendingTimer {}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by time.
        (other.at, other.token).cmp(&(self.at, self.token))
    }
}

fn now_sim(epoch: Instant) -> SimTime {
    SimTime::from_nanos(epoch.elapsed().as_nanos() as u64)
}

fn node_loop(
    epoch: Instant,
    mut kernel: Kernel,
    rx: Receiver<ToNode>,
    hub_tx: Sender<HubMsg>,
    outputs: Arc<Mutex<Vec<OutputLine>>>,
) {
    let mut timers: BinaryHeap<PendingTimer> = BinaryHeap::new();
    // The loop's one action buffer: each call appends, `apply_kernel`
    // drains.
    let mut actions = Vec::new();
    let ticker = tick(Duration::from_millis(1));
    loop {
        // Fire due timers.
        let now = now_sim(epoch);
        while timers.peek().map(|t| t.at <= now).unwrap_or(false) {
            let t = timers.pop().expect("peeked");
            kernel.on_timer(now_sim(epoch), t.token, &mut actions);
            apply_kernel(epoch, &mut actions, &hub_tx, &outputs, &mut timers);
        }
        select! {
            recv(rx) -> msg => match msg {
                Ok(ToNode::Frame(frame, ok)) => {
                    kernel.on_frame(now_sim(epoch), &frame, ok, &mut actions);
                    apply_kernel(epoch, &mut actions, &hub_tx, &outputs, &mut timers);
                }
                Ok(ToNode::CrashProcess(local, reason)) => {
                    kernel.crash_process(now_sim(epoch), local, &reason, &mut actions);
                    apply_kernel(epoch, &mut actions, &hub_tx, &outputs, &mut timers);
                }
                Ok(ToNode::Quit) | Err(_) => return,
            },
            recv(ticker) -> _ => {}
        }
    }
}

fn apply_kernel(
    epoch: Instant,
    actions: &mut Vec<KernelAction>,
    hub_tx: &Sender<HubMsg>,
    outputs: &Arc<Mutex<Vec<OutputLine>>>,
    timers: &mut BinaryHeap<PendingTimer>,
) {
    for a in actions.drain(..) {
        match a {
            KernelAction::Transmit(frame) => {
                let _ = hub_tx.send(HubMsg { frame });
            }
            KernelAction::SetTimer { at, token } => {
                timers.push(PendingTimer { at, token });
            }
            KernelAction::Output { pid, seq, bytes } => {
                outputs.lock().push(OutputLine {
                    at: now_sim(epoch),
                    pid,
                    seq,
                    bytes,
                });
            }
        }
    }
}

fn recorder_loop(
    epoch: Instant,
    rn: &mut RecorderNode,
    watch: &[NodeId],
    rx: Receiver<ToNode>,
    hub_tx: Sender<HubMsg>,
) {
    let mut timers: BinaryHeap<PendingTimer> = BinaryHeap::new();
    let mut actions = Vec::new();
    rn.start(now_sim(epoch), watch, &mut actions);
    apply_recorder(epoch, rn, &mut actions, &hub_tx, &mut timers);
    let ticker = tick(Duration::from_millis(1));
    loop {
        let now = now_sim(epoch);
        while timers.peek().map(|t| t.at <= now).unwrap_or(false) {
            let t = timers.pop().expect("peeked");
            rn.on_timer(now_sim(epoch), t.token, &mut actions);
            apply_recorder(epoch, rn, &mut actions, &hub_tx, &mut timers);
        }
        select! {
            recv(rx) -> msg => match msg {
                Ok(ToNode::Frame(frame, ok)) => {
                    rn.on_frame(now_sim(epoch), &frame, ok, &mut actions);
                    apply_recorder(epoch, rn, &mut actions, &hub_tx, &mut timers);
                }
                Ok(ToNode::CrashProcess(..)) => {}
                Ok(ToNode::Quit) | Err(_) => return,
            },
            recv(ticker) -> _ => {}
        }
    }
}

fn apply_recorder(
    epoch: Instant,
    rn: &mut RecorderNode,
    actions: &mut Vec<RNAction>,
    hub_tx: &Sender<HubMsg>,
    timers: &mut BinaryHeap<PendingTimer>,
) {
    for a in actions.drain(..) {
        match a {
            RNAction::Transmit(frame) => {
                let _ = hub_tx.send(HubMsg { frame });
            }
            RNAction::SetTimer { at, token } => {
                timers.push(PendingTimer { at, token });
            }
            RNAction::RestartNode { node } => {
                // Node restarts need an operator in live mode; decline so
                // the watchdog keeps retrying (e.g. across a recorder
                // outage that made everyone look dead).
                rn.decline_node_restart(node);
            }
            RNAction::ProposeRecovery { pid } => {
                // The lone recorder is the authority on every process.
                let mut more = Vec::new();
                rn.recover(now_sim(epoch), pid, &mut more);
                apply_recorder(epoch, rn, &mut more, hub_tx, timers);
            }
            RNAction::RecoveryDone { .. } => {}
        }
    }
}

impl LiveSystem {
    /// Spawns a program on `node`, blocking briefly so the kernel thread
    /// assigns the pid deterministically (first spawn on a node is local
    /// id 1, and so on).
    ///
    /// # Errors
    ///
    /// Returns [`UnknownProgram`] for unregistered images — checked
    /// against the registry shape used by every node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn spawn_blocking(
        &mut self,
        node: u32,
        program: &str,
        links: Vec<Link>,
    ) -> Result<ProcessId, UnknownProgram> {
        if !self.registry.contains(program) {
            return Err(UnknownProgram(program.to_string()));
        }
        self.spawn_via_control(node, program, links)
    }

    fn spawn_via_control(
        &mut self,
        node: u32,
        program: &str,
        links: Vec<Link>,
    ) -> Result<ProcessId, UnknownProgram> {
        // Send a CREATE_PROCESS control datagram to the node's kernel
        // endpoint through its inbox; local ids are deterministic (1, 2,
        // … per node), so the pid is known without waiting for a reply.
        use publishing_demos::ids::{Channel, MessageId, KERNEL_LOCAL};
        use publishing_demos::kernel::encode_ctl;
        use publishing_demos::message::{Message, MessageHeader};
        use publishing_demos::protocol::{codes, CreateProcess};
        use publishing_demos::transport::Wire;
        use publishing_sim::codec::Encode;

        // Craft a CREATE_PROCESS datagram from a synthetic operator
        // endpoint. Datagrams skip transport state, so a one-shot frame
        // works; the kernel's reply (if requested) is not needed because
        // local ids are deterministic per node: 1, 2, 3, …
        let req = CreateProcess {
            program_name: program.to_string(),
            initial_links: links,
            reply_to: None,
        };
        let body = encode_ctl(codes::CREATE_PROCESS, &req);
        let operator = ProcessId::kernel_of(NodeId(u32::MAX - 1));
        let seq = self.spawned.fetch_add(1, Ordering::SeqCst) as u64 + 1;
        let msg = Message {
            header: MessageHeader {
                id: MessageId {
                    sender: operator,
                    seq,
                },
                to: ProcessId {
                    node: NodeId(node),
                    local: KERNEL_LOCAL,
                },
                code: codes::CREATE_PROCESS,
                channel: Channel::DEFAULT,
                deliver_to_kernel: false,
            },
            passed_link: None,
            body,
        };
        let wire = Wire::Datagram {
            src_node: operator.node,
            msg,
        };
        let frame = Frame::new(
            publishing_net::frame::StationId(u32::MAX - 1),
            publishing_net::frame::Destination::Station(publishing_net::frame::StationId(node)),
            wire.encode_to_vec(),
        );
        let _ = self.node_tx[node as usize].send(ToNode::Frame(frame, true));
        // Local ids are deterministic: count prior spawns on this node.
        let local = {
            let mut counts = self.per_node_spawns.lock();
            let c = counts.entry(node).or_insert(0);
            *c += 1;
            *c
        };
        Ok(ProcessId {
            node: NodeId(node),
            local,
        })
    }

    /// Crashes one process (a detected fault).
    pub fn crash_process(&self, pid: ProcessId, reason: &str) {
        let _ = self.node_tx[pid.node.0 as usize]
            .send(ToNode::CrashProcess(pid.local, reason.to_string()));
    }

    /// Takes the recorder offline (traffic suspends) or back online.
    pub fn set_recorder_up(&self, up: bool) {
        self.recorder_up.store(up, Ordering::SeqCst);
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> SimTime {
        now_sim(self.epoch)
    }

    /// Deduplicated outputs of one process, by output sequence.
    pub fn outputs_of(&self, pid: ProcessId) -> Vec<String> {
        let outputs = self.outputs.lock();
        let mut by_seq: std::collections::BTreeMap<u64, Vec<u8>> = Default::default();
        for o in outputs.iter().filter(|o| o.pid == pid) {
            by_seq.entry(o.seq).or_insert_with(|| o.bytes.clone());
        }
        by_seq
            .values()
            .map(|b| String::from_utf8_lossy(b).into_owned())
            .collect()
    }

    /// Stops every thread and joins them.
    pub fn shutdown(mut self) {
        for tx in &self.node_tx {
            let _ = tx.send(ToNode::Quit);
        }
        let _ = self.recorder_tx.send(ToNode::Quit);
        // The Quit messages make the node/recorder loops return, which
        // drops their hub senders; the hub then sees a closed channel.
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}
