//! The per-node message kernel (§4.2, §4.4).
//!
//! Each processing node runs one kernel. It owns the node's processes,
//! the transport layer, and the kernel-process logic (creation, process
//! control, recovery commands). Publishing hooks are woven in exactly
//! where §4.4 and §4.5 put them:
//!
//! - with publishing on, **every** process-destined message — including
//!   intranode ones — is transmitted on the network so the recorder sees
//!   it, and a frame a required recorder missed is discarded at the link
//!   layer (§4.4.1);
//! - a selective receive that skips the queue head sends the recorder a
//!   read-order notice (§4.4.2);
//! - process-control requests travel as DELIVERTOKERNEL messages
//!   addressed to the *controlled* process, consumed from its queue in
//!   read order and executed by the kernel while it assumes the
//!   controlled process's identity (§4.4.3) — which is what makes control
//!   effects land at the same point in the replayed stream as they did
//!   originally;
//! - process creation/destruction is reported to the recorder (§4.5).
//!
//! The kernel is a sans-IO state machine: the world feeds it frames and
//! timers; it appends [`KernelAction`]s, in the order they must be
//! performed, to a buffer the world owns and reuses. It reads a frame in
//! place: the message it queues, and the body a program receives, are
//! views of the frame's bytes.

use crate::costs::CostModel;
use crate::ids::{Channel, MessageId, NodeId, ProcessId, KERNEL_LOCAL};
use crate::link::Link;
use crate::message::{Message, MessageHeader};
use crate::process::{Process, ProcessImage, RunState};
use crate::program::Effect;
use crate::program::{Ctx, Received};
use crate::protocol::{self, codes};
use crate::registry::{ProgramRegistry, UnknownProgram};
use crate::transport::{TAction, Transport, TransportConfig, Wire};
use publishing_net::frame::{Destination, Frame, StationId};
use publishing_obs::span::{SpanLog, Stage};
use publishing_sim::codec::{Bytes, Decode, Encode, Encoder};
use publishing_sim::ledger::{LevelGauge, Timeline};
use publishing_sim::stats::Counter;
use publishing_sim::table::{slot_mut, TokenTable};
use publishing_sim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Encodes a control payload with its leading code tag, as a message
/// body: written in place when the payload knows its
/// [`encoded_len`](Encode::encoded_len) — the payloads of steady-state
/// control traffic do — and through a growing vector otherwise.
pub fn encode_ctl<T: Encode>(code: u32, payload: &T) -> Bytes {
    match payload.encoded_len() {
        0 => {
            let mut e = Encoder::new();
            e.u32(code);
            payload.encode(&mut e);
            e.finish().into()
        }
        len => Bytes::encoded(4 + len, |e| {
            e.u32(code);
            payload.encode(e);
        }),
    }
}

/// Splits a control body into its code and remaining payload bytes.
pub fn decode_ctl(body: &[u8]) -> Option<(u32, &[u8])> {
    if body.len() < 4 {
        return None;
    }
    let code = u32::from_le_bytes(body[..4].try_into().expect("len checked"));
    Some((code, &body[4..]))
}

/// An action the kernel asks the world to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelAction {
    /// Put a frame on the medium.
    Transmit(Frame),
    /// Call [`Kernel::on_timer`] with `token` at `at`.
    SetTimer {
        /// Callback time.
        at: SimTime,
        /// Token to hand back.
        token: u64,
    },
    /// Externally visible output from a process (the test oracle).
    ///
    /// `seq` is the process's output sequence number; it is part of the
    /// checkpointed state, so a recovering process regenerates identical
    /// sequence numbers and consoles can deduplicate replayed output.
    Output {
        /// Producing process.
        pid: ProcessId,
        /// Per-process output sequence, from 1.
        seq: u64,
        /// Output bytes.
        bytes: Vec<u8>,
    },
}

/// Counters a kernel maintains.
#[derive(Debug, Default, Clone)]
pub struct KernelStats {
    /// Total CPU time charged (the `Get_Run_Time` of Figure 5.6).
    pub cpu_used: SimDuration,
    /// Program activations run.
    pub activations: Counter,
    /// Process-destined messages sent.
    pub msgs_sent: Counter,
    /// Process-destined messages accepted.
    pub msgs_received: Counter,
    /// Duplicates dropped at the process watermark.
    pub dups_dropped: Counter,
    /// Read-order notices sent (§4.4.2).
    pub read_order_notices: Counter,
    /// Frames discarded because a required recorder missed them.
    pub recorder_blocked: Counter,
    /// Frames discarded with bad checksums.
    pub bad_frames: Counter,
    /// Processes created.
    pub creates: Counter,
    /// Processes destroyed.
    pub destroys: Counter,
    /// Checkpoints captured.
    pub checkpoints_taken: Counter,
    /// Live messages discarded or held during recovery.
    pub recovery_deferred: Counter,
}

#[derive(Debug)]
enum TimerKind {
    Transport(u64),
    Done(u64),
    Dispatch,
}

enum DoneWork {
    App { effects: Vec<Effect>, stop: bool },
    Control(Message),
}

struct DoneRec {
    local: u32,
    epoch: u32,
    cost: SimDuration,
    work: DoneWork,
}

/// Everything the kernel keeps per local process id. Local ids are a
/// counter ([`Kernel::spawn`] hands out the next), so the slots are a
/// vector indexed by them; a slot outlives its process (ids are never
/// reused), which is why the process itself is boxed.
#[derive(Default)]
struct ProcSlot {
    /// The process, while it exists. Activations borrow it in place.
    proc: Option<Box<Process>>,
    /// The incarnation of the process an in-flight activation must
    /// match; bumped by a crash, renewed by a (re)creation, dropped with
    /// the process.
    epoch: Option<u32>,
    /// Whether the id sits on the run queue.
    queued: bool,
}

/// The process in slot `local`, borrowing only the slots — so the
/// kernel's counters and span log stay usable beside it.
fn live_proc(slots: &mut [ProcSlot], local: u32) -> Option<&mut Process> {
    slots.get_mut(local as usize)?.proc.as_deref_mut()
}

/// The per-node message kernel.
pub struct Kernel {
    node: NodeId,
    registry: ProgramRegistry,
    costs: CostModel,
    publishing: bool,
    recorders: Vec<NodeId>,
    /// Indexed by local process id.
    slots: Vec<ProcSlot>,
    next_local: u32,
    next_epoch: u32,
    transport: Transport,
    /// Spare buffers for what the transport asks for during a call: one
    /// is popped, filled, drained and pushed back by
    /// [`Kernel::with_transport`], so a steady-state event allocates
    /// nothing to say what happens next. One per depth of nesting ever
    /// reached (a control reply sent while a delivery is performed: two).
    transport_actions: Vec<Vec<TAction>>,
    kernel_seq: u64,
    cpu_busy_until: SimTime,
    active: Option<u32>,
    run_queue: VecDeque<u32>,
    pending_checkpoints: Vec<u32>,
    /// Outstanding timers by the token handed to the world. A node crash
    /// clears both tables; late timers then find nothing.
    timers: TokenTable<TimerKind>,
    /// Activations in flight, by the id their `Done` timer carries.
    dones: TokenTable<DoneRec>,
    dispatch_armed: bool,
    up: bool,
    stats: KernelStats,
    spans: SpanLog,
    proto_cpu: Timeline,
    prog_cpu: Timeline,
    run_gauge: LevelGauge,
}

impl Kernel {
    /// Creates a kernel for `node`.
    pub fn new(
        node: NodeId,
        registry: ProgramRegistry,
        costs: CostModel,
        transport: TransportConfig,
        publishing: bool,
    ) -> Self {
        Kernel {
            node,
            registry,
            costs,
            publishing,
            recorders: Vec::new(),
            slots: Vec::new(),
            next_local: KERNEL_LOCAL + 1,
            next_epoch: 0,
            transport: Transport::new(node, transport),
            transport_actions: Vec::new(),
            kernel_seq: 0,
            cpu_busy_until: SimTime::ZERO,
            active: None,
            run_queue: VecDeque::new(),
            pending_checkpoints: Vec::new(),
            timers: TokenTable::new(),
            dones: TokenTable::new(),
            dispatch_armed: false,
            up: true,
            stats: KernelStats::default(),
            spans: SpanLog::default(),
            proto_cpu: Timeline::new(),
            prog_cpu: Timeline::new(),
            run_gauge: LevelGauge::new(),
        }
    }

    /// Returns this kernel's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Returns the station this node answers to (station ids mirror node
    /// ids throughout the workspace).
    pub fn station(&self) -> StationId {
        StationId(self.node.0)
    }

    /// Points publishing notices at the recorder's node (replacing any
    /// previous set).
    pub fn set_recorder(&mut self, recorder: NodeId) {
        self.recorders = vec![recorder];
    }

    /// Adds a recorder node; with multiple recorders (§6.3), notices,
    /// deposits, and crash reports go to all of them.
    pub fn add_recorder(&mut self, recorder: NodeId) {
        if !self.recorders.contains(&recorder) {
            self.recorders.push(recorder);
        }
    }

    /// Returns whether publishing hooks are active.
    pub fn publishing(&self) -> bool {
        self.publishing
    }

    /// Returns the kernel's counters.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Returns the kernel's message-lifecycle span log. Span events
    /// survive node crashes — the log models an external observer, not
    /// state on the machine — which is what lets tests compare a replayed
    /// read prefix against the pre-crash one.
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Re-bounds the kernel's span ring (0 = fingerprint-only mode;
    /// spans never influence behavior, so output fingerprints are
    /// unchanged — the `obs_overhead` bench asserts exactly that).
    pub fn set_span_capacity(&mut self, capacity: usize) {
        self.spans.set_capacity(capacity);
    }

    /// Returns the transport's counters.
    pub fn transport_stats(&self) -> &crate::transport::TransportStats {
        self.transport.stats()
    }

    /// Busy timeline of this node's *protocol* CPU: the serially
    /// occupying network send/receive charges of [`CostModel`].
    pub fn cpu_proto_timeline(&self) -> &Timeline {
        &self.proto_cpu
    }

    /// Busy timeline of this node's *program* CPU: process activations
    /// (activation base plus modeled compute).
    pub fn cpu_prog_timeline(&self) -> &Timeline {
        &self.prog_cpu
    }

    /// Occupancy gauge over the dispatcher's run queue — processes ready
    /// but waiting for the CPU.
    pub fn run_queue_gauge(&self) -> &LevelGauge {
        &self.run_gauge
    }

    /// Per-destination guaranteed-transport channel meters (sender
    /// side), by ascending destination.
    pub fn channel_meters(
        &self,
    ) -> impl Iterator<Item = (NodeId, &crate::transport::ChannelMeter)> {
        self.transport.channel_meters()
    }

    /// Returns this node's transport incarnation.
    pub fn incarnation(&self) -> u32 {
        self.transport.incarnation()
    }

    /// Returns `true` while the node is up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Whether this node has nothing left to do until a new message
    /// arrives: it is up, no activation is running, finishing or queued
    /// (programs pace themselves with compute time, so an activation in
    /// flight is the only timer a program can arm), no checkpoint is
    /// waiting for one to end, no process is crashed or mid-recovery, and
    /// the transport has nothing queued or unacknowledged. Timers that
    /// will find their work already done (a retransmission timer whose
    /// message was acknowledged) do not count.
    pub fn settled(&self) -> bool {
        self.up
            && self.active.is_none()
            && self.dones.is_empty()
            && self.run_queue.is_empty()
            && self.pending_checkpoints.is_empty()
            && !self.transport.has_unacked()
            && self
                .processes()
                .all(|p| matches!(p.run, RunState::Ready | RunState::Waiting))
    }

    /// Looks up a process by local id.
    pub fn process(&self, local: u32) -> Option<&Process> {
        self.slots.get(local as usize)?.proc.as_deref()
    }

    /// Iterates the node's processes, by ascending local id.
    pub fn processes(&self) -> impl Iterator<Item = &Process> {
        self.slots.iter().filter_map(|s| s.proc.as_deref())
    }

    /// Slot `local`, growing the table to reach it.
    fn slot_mut(&mut self, local: u32) -> &mut ProcSlot {
        slot_mut(&mut self.slots, local as usize)
    }

    fn recorder_kernels(&self) -> Vec<ProcessId> {
        self.recorders
            .iter()
            .map(|r| ProcessId::kernel_of(*r))
            .collect()
    }

    fn new_timer(&mut self, kind: TimerKind) -> u64 {
        self.timers.insert(kind)
    }

    fn charge(&mut self, d: SimDuration) {
        self.stats.cpu_used += d;
    }

    /// Charges CPU that also occupies the processor serially (network
    /// protocol processing), delaying subsequent dispatch — this is what
    /// makes Figure 5.7's real time track its CPU time.
    fn charge_busy(&mut self, now: SimTime, d: SimDuration) {
        self.stats.cpu_used += d;
        let start = self.cpu_busy_until.max(now);
        self.cpu_busy_until = start + d;
        self.proto_cpu.add_busy(start, self.cpu_busy_until);
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    fn next_kernel_id(&mut self) -> MessageId {
        self.kernel_seq += 1;
        // Partition the kernel endpoint's sequence space by incarnation so
        // it stays monotone across node restarts.
        let seq = ((self.transport.incarnation() as u64) << 40) | self.kernel_seq;
        MessageId {
            sender: ProcessId::kernel_of(self.node),
            seq,
        }
    }

    /// Sends a control payload from this node's kernel endpoint.
    fn kernel_send(
        &mut self,
        now: SimTime,
        to: ProcessId,
        code: u32,
        body: Bytes,
        passed: Option<Link>,
        out: &mut Vec<KernelAction>,
    ) {
        let id = self.next_kernel_id();
        let header = MessageHeader {
            id,
            to,
            code,
            channel: Channel::DEFAULT,
            deliver_to_kernel: false,
        };
        let msg = Message {
            header,
            passed_link: passed,
            body,
        };
        self.route_and_send(now, msg, out);
    }

    /// Sends a control payload from the kernel endpoint over a link
    /// (assumed to carry the right destination; code from the link).
    fn kernel_send_over(
        &mut self,
        now: SimTime,
        link: Link,
        body: Bytes,
        passed: Option<Link>,
        out: &mut Vec<KernelAction>,
    ) {
        let id = self.next_kernel_id();
        let header = MessageHeader {
            id,
            to: link.dest,
            code: link.code,
            channel: link.channel,
            deliver_to_kernel: link.deliver_to_kernel,
        };
        let msg = Message {
            header,
            passed_link: passed,
            body,
        };
        self.route_and_send(now, msg, out);
    }

    /// Sends a message *as* process `local` (program sends and §4.4.3
    /// kernel-as-identity control sends share this path, and the
    /// process's sequence counter).
    fn send_as(
        &mut self,
        now: SimTime,
        local: u32,
        link: Link,
        body: Bytes,
        passed: Option<Link>,
        out: &mut Vec<KernelAction>,
    ) {
        let Some(proc) = live_proc(&mut self.slots, local) else {
            return;
        };
        let seq = proc.next_seq();
        let id = MessageId {
            sender: proc.pid,
            seq,
        };
        // §4.7: a recovering process's regenerated messages already known
        // delivered are suppressed, not retransmitted.
        if let Some(book) = &proc.recovery {
            if let Some(&watermark) = book.suppress.get(&link.dest) {
                if seq <= watermark {
                    self.spans.record(
                        now,
                        id.into(),
                        Stage::Suppress,
                        link.dest.as_u64(),
                        watermark,
                    );
                    return;
                }
            }
        }
        let header = MessageHeader {
            id,
            to: link.dest,
            code: link.code,
            channel: link.channel,
            deliver_to_kernel: link.deliver_to_kernel,
        };
        let msg = Message {
            header,
            passed_link: passed,
            body,
        };
        self.route_and_send(now, msg, out);
    }

    fn route_and_send(&mut self, now: SimTime, msg: Message, out: &mut Vec<KernelAction>) {
        let dst_node = msg.header.to.node;
        self.stats.msgs_sent.inc();
        // Kernel-to-kernel control traffic is never published; only
        // process-destined messages get lifecycle spans.
        if !msg.header.to.is_kernel() {
            self.spans.record(
                now,
                msg.header.id.into(),
                Stage::Publish,
                msg.header.to.as_u64(),
                msg.body.len() as u64,
            );
        }
        if !self.publishing && dst_node == self.node {
            // Non-published fast path: direct intranode delivery.
            self.charge_busy(now, self.costs.local_delivery);
            self.accept_message(now, msg, out);
            return;
        }
        // Published (or remote) path: onto the wire via the transport.
        self.charge_busy(now, self.costs.send_cost(msg.encoded_len()));
        self.with_transport(now, out, |t, actions| {
            t.send_guaranteed(now, dst_node, msg, actions)
        });
    }

    /// Runs one transport entry point over a spare action buffer, then
    /// performs what it appended, in order. Performing a delivery can
    /// send (a forward, a control reply): that nested call takes the
    /// next spare.
    fn with_transport(
        &mut self,
        now: SimTime,
        out: &mut Vec<KernelAction>,
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
                    out.push(KernelAction::Transmit(frame));
                }
                TAction::Deliver(msg) => self.deliver_up(now, msg, out),
                TAction::SetTimer { at, token } => {
                    let t = self.new_timer(TimerKind::Transport(token));
                    out.push(KernelAction::SetTimer { at, token: t });
                }
            }
        }
        self.transport_actions.push(actions);
    }

    // ------------------------------------------------------------------
    // Receiving
    // ------------------------------------------------------------------

    /// Handles a frame delivered to this station by the medium.
    pub fn on_frame(
        &mut self,
        now: SimTime,
        frame: &Frame,
        recorder_ok: bool,
        out: &mut Vec<KernelAction>,
    ) {
        if !self.up || !frame.dst.accepts(self.station()) {
            return;
        }
        // Link layer (§4.3.3): only error-free messages go up.
        if !frame.is_intact() {
            self.stats.bad_frames.inc();
            return;
        }
        // §4.4.1: a message the recorder missed must not be used.
        if self.publishing && !recorder_ok {
            self.stats.recorder_blocked.inc();
            return;
        }
        let Ok(wire) = frame.decode_payload::<Wire>() else {
            self.stats.bad_frames.inc();
            return;
        };
        self.with_transport(now, out, |t, actions| t.on_wire(now, wire, actions));
        self.try_dispatch(now, out);
    }

    fn deliver_up(&mut self, now: SimTime, msg: Message, out: &mut Vec<KernelAction>) {
        // Receive-side network protocol CPU: charged only for messages
        // that actually crossed the wire (this path), never for the
        // non-published local fast path.
        self.charge_busy(now, self.costs.receive_cost(msg.encoded_len()));
        self.accept_message(now, msg, out);
    }

    fn accept_message(&mut self, now: SimTime, msg: Message, out: &mut Vec<KernelAction>) {
        let to = msg.header.to;
        if to.node != self.node {
            // Routed here by an out-of-date sender; forward along.
            self.with_transport(now, out, |t, actions| {
                t.send_guaranteed(now, to.node, msg, actions)
            });
            return;
        }
        if to.is_kernel() {
            self.kernel_ctl(now, msg, out);
            return;
        }
        let Some(proc) = live_proc(&mut self.slots, to.local) else {
            return;
        };
        match proc.run {
            RunState::Crashed => {}
            RunState::Recovering => {
                // Live traffic during recovery is published by the recorder
                // and replayed later; it must not short-circuit the replay
                // stream (§3.2.1). During the finish window it is held and
                // merged instead.
                self.stats.recovery_deferred.inc();
                let book = proc.recovery.as_mut().expect("recovering has book");
                if book.holding {
                    book.side_buffer.push(msg);
                }
            }
            RunState::Ready | RunState::Waiting => {
                if proc.is_duplicate(msg.header.id) {
                    self.stats.dups_dropped.inc();
                    return;
                }
                proc.queue.enqueue(msg);
                self.stats.msgs_received.inc();
                self.wake(to.local);
            }
        }
    }

    fn wake(&mut self, local: u32) {
        let Some(slot) = self.slots.get_mut(local as usize) else {
            return;
        };
        let Some(proc) = slot.proc.as_deref() else {
            return;
        };
        if matches!(proc.run, RunState::Crashed) {
            return;
        }
        let runnable = !proc.started || proc.queue.has_deliverable(proc.recv_mask);
        if runnable && !slot.queued {
            slot.queued = true;
            self.run_queue.push_back(local);
        }
    }

    // ------------------------------------------------------------------
    // Dispatch and activations
    // ------------------------------------------------------------------

    fn try_dispatch(&mut self, now: SimTime, out: &mut Vec<KernelAction>) {
        self.run_gauge.set(now, self.run_queue.len() as u64);
        if !self.up || self.active.is_some() {
            return;
        }
        if now < self.cpu_busy_until {
            // The CPU is mid protocol processing; retry when it frees.
            if !self.dispatch_armed && !self.run_queue.is_empty() {
                self.dispatch_armed = true;
                let token = self.new_timer(TimerKind::Dispatch);
                out.push(KernelAction::SetTimer {
                    at: self.cpu_busy_until,
                    token,
                });
            }
            return;
        }
        while let Some(local) = self.run_queue.pop_front() {
            let Some(slot) = self.slots.get_mut(local as usize) else {
                continue;
            };
            slot.queued = false;
            let Some(proc) = slot.proc.as_deref() else {
                continue;
            };
            if matches!(proc.run, RunState::Crashed) {
                continue;
            }
            if !proc.started {
                self.run_start(now, local, out);
                return;
            }
            if !proc.queue.has_deliverable(proc.recv_mask) {
                continue;
            }
            self.run_activation(now, local, out);
            self.run_gauge.set(now, self.run_queue.len() as u64);
            return;
        }
        self.run_gauge.set(now, self.run_queue.len() as u64);
    }

    fn schedule_done(
        &mut self,
        now: SimTime,
        local: u32,
        cost: SimDuration,
        work: DoneWork,
        out: &mut Vec<KernelAction>,
    ) {
        let epoch = self
            .slots
            .get(local as usize)
            .and_then(|s| s.epoch)
            .unwrap_or(0);
        let done_id = self.dones.insert(DoneRec {
            local,
            epoch,
            cost,
            work,
        });
        self.active = Some(local);
        self.cpu_busy_until = now + cost;
        self.prog_cpu.add_busy(now, self.cpu_busy_until);
        let token = self.new_timer(TimerKind::Done(done_id));
        out.push(KernelAction::SetTimer {
            at: now + cost,
            token,
        });
    }

    fn run_start(&mut self, now: SimTime, local: u32, out: &mut Vec<KernelAction>) {
        let Some(proc) = live_proc(&mut self.slots, local) else {
            return;
        };
        proc.started = true;
        let pid = proc.pid;
        let mut effects = Vec::new();
        let mut stop = false;
        let mut compute = SimDuration::ZERO;
        {
            let Process {
                program,
                links,
                recv_mask,
                ..
            } = proc;
            let mut ctx = Ctx::new(pid, links, &mut effects, recv_mask, &mut stop, &mut compute);
            program.on_start(&mut ctx);
        }
        self.stats.activations.inc();
        let cost = self.costs.activation_base + compute;
        self.schedule_done(now, local, cost, DoneWork::App { effects, stop }, out);
    }

    fn run_activation(&mut self, now: SimTime, local: u32, out: &mut Vec<KernelAction>) {
        let Some(mut proc) = live_proc(&mut self.slots, local) else {
            return;
        };
        let pid = proc.pid;
        let Some(read) = proc.queue.receive_for_process(proc.recv_mask) else {
            return;
        };
        let read_index = proc.read_count;
        proc.read_count += 1;
        proc.note_read(read.message.header.id);
        self.spans.record(
            now,
            read.message.header.id.into(),
            Stage::Deliver,
            pid.as_u64(),
            read_index,
        );
        if let Some(book) = proc.recovery.as_mut() {
            book.replayed.insert(read.message.header.id);
        }
        // §4.4.2: tell the recorder when channels reordered the reads.
        if let Some(head_id) = read.skipped_head {
            if self.publishing && !self.recorders.is_empty() {
                let notice = protocol::ReadOrderNotice {
                    pid,
                    read_index,
                    read_id: read.message.header.id,
                    head_id,
                };
                self.stats.read_order_notices.inc();
                let body = encode_ctl(codes::READ_ORDER_NOTICE, &notice);
                // Sending from the kernel needs all of it: let go of the
                // process, which a send to a recorder never touches.
                for rk in self.recorder_kernels() {
                    self.kernel_send(now, rk, codes::READ_ORDER_NOTICE, body.clone(), None, out);
                }
                proc = live_proc(&mut self.slots, local).expect("notices leave processes be");
            }
        }
        let mut msg = read.message;
        if msg.header.deliver_to_kernel {
            // Process-control: the kernel executes it (§4.4.3).
            let cost = self.costs.kernel_call;
            self.schedule_done(now, local, cost, DoneWork::Control(msg), out);
            return;
        }
        let link = msg.passed_link.take().map(|l| proc.links.insert(l));
        let received = Received {
            code: msg.header.code,
            channel: msg.header.channel,
            body: msg.body,
            link,
        };
        let mut effects = Vec::new();
        let mut stop = false;
        let mut compute = SimDuration::ZERO;
        {
            let Process {
                program,
                links,
                recv_mask,
                ..
            } = &mut *proc;
            let mut ctx = Ctx::new(pid, links, &mut effects, recv_mask, &mut stop, &mut compute);
            program.on_message(&mut ctx, received);
        }
        self.stats.activations.inc();
        proc.cpu_since_checkpoint += compute;
        let cost = self.costs.activation_base + compute;
        self.schedule_done(now, local, cost, DoneWork::App { effects, stop }, out);
    }

    /// Handles a kernel timer.
    pub fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Vec<KernelAction>) {
        if !self.up {
            return;
        }
        match self.timers.take(token) {
            None => {}
            Some(TimerKind::Transport(t)) => {
                self.with_transport(now, out, |tr, actions| tr.timer(now, t, actions));
            }
            Some(TimerKind::Done(id)) => {
                if let Some(rec) = self.dones.take(id) {
                    self.finish_activation(now, rec, out);
                }
            }
            Some(TimerKind::Dispatch) => {
                self.dispatch_armed = false;
            }
        }
        self.try_dispatch(now, out);
    }

    fn finish_activation(&mut self, now: SimTime, rec: DoneRec, out: &mut Vec<KernelAction>) {
        self.active = None;
        self.charge(rec.cost);
        let local = rec.local;
        let Some((pid, epoch)) = self
            .slots
            .get(local as usize)
            .and_then(|s| Some((s.proc.as_deref()?.pid, s.epoch)))
        else {
            return;
        };
        if epoch.unwrap_or(u32::MAX) != rec.epoch {
            // The process crashed or was recreated mid-activation; its
            // effects die with it (§1.1.2 rounds faults up to crashes).
            return;
        }
        match rec.work {
            DoneWork::App { effects, stop } => {
                for effect in effects {
                    match effect {
                        Effect::Send { link, body, passed } => {
                            self.send_as(now, local, link, body, passed, out);
                        }
                        Effect::Output(bytes) => {
                            let proc = live_proc(&mut self.slots, local).expect("checked");
                            proc.outputs_emitted += 1;
                            let seq = proc.outputs_emitted;
                            out.push(KernelAction::Output { pid, seq, bytes });
                        }
                    }
                }
                if stop {
                    self.destroy_process(now, local, out);
                }
            }
            DoneWork::Control(msg) => self.apply_control(now, local, msg, out),
        }
        // Deferred checkpoint requests run between activations.
        if let Some(pos) = self.pending_checkpoints.iter().position(|&l| l == local) {
            self.pending_checkpoints.remove(pos);
            self.capture_checkpoint(now, local, out);
        }
        self.wake(local);
    }

    // ------------------------------------------------------------------
    // Process control (§4.4.3)
    // ------------------------------------------------------------------

    fn apply_control(
        &mut self,
        now: SimTime,
        local: u32,
        msg: Message,
        out: &mut Vec<KernelAction>,
    ) {
        let Some((code, payload)) = decode_ctl(&msg.body) else {
            return;
        };
        let requester = msg.header.from();
        match code {
            codes::MOVELINK_GIVE => {
                // Figure 4.5: ask the giver (the requester) for the link,
                // speaking as the controlled process.
                let Ok(give) = protocol::MoveLinkGive::decode_all(payload) else {
                    return;
                };
                let fetch = protocol::MoveLinkFetch {
                    link_id: give.link_id,
                };
                let body = encode_ctl(codes::MOVELINK_FETCH, &fetch);
                self.send_as(now, local, Link::control(requester, 0), body, None, out);
            }
            codes::MOVELINK_FETCH => {
                // We are the giver's kernel: extract the link and send it
                // to the requester (the destination process).
                let Ok(fetch) = protocol::MoveLinkFetch::decode_all(payload) else {
                    return;
                };
                let link = live_proc(&mut self.slots, local)
                    .and_then(|p| p.links.remove(crate::ids::LinkId(fetch.link_id)));
                let Some(link) = link else { return };
                let mut e = Encoder::new();
                e.u32(codes::MOVELINK_PUT);
                self.send_as(
                    now,
                    local,
                    Link::control(requester, 0),
                    e.finish().into(),
                    Some(link),
                    out,
                );
            }
            codes::MOVELINK_PUT => {
                // Install the passed link into the controlled process and
                // tell its program where it landed (an ordinary, published
                // message — so replay re-learns the same id).
                let Some(passed) = msg.passed_link else {
                    return;
                };
                let Some(proc) = live_proc(&mut self.slots, local) else {
                    return;
                };
                let id = proc.links.insert(passed);
                let pid = proc.pid;
                let done_link = Link::to(pid, Channel::DEFAULT, 0);
                let mut e = Encoder::new();
                e.u32(codes::MOVELINK_DONE).u32(id.0);
                self.send_as(now, local, done_link, e.finish().into(), None, out);
            }
            codes::STOP_PROCESS => {
                self.destroy_process(now, local, out);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Kernel endpoint (kernel process) requests
    // ------------------------------------------------------------------

    fn kernel_ctl(&mut self, now: SimTime, msg: Message, out: &mut Vec<KernelAction>) {
        let Some((code, payload)) = decode_ctl(&msg.body) else {
            return;
        };
        let requester = msg.header.from();
        self.charge(self.costs.kernel_call);
        match code {
            codes::CREATE_PROCESS => {
                let Ok(req) = protocol::CreateProcess::decode_all(payload) else {
                    return;
                };
                let created =
                    self.spawn_inner(now, &req.program_name, req.initial_links, true, out);
                if let Some(reply_to) = req.reply_to {
                    let reply = protocol::CreateReply { pid: created };
                    let body = encode_ctl(codes::CREATE_REPLY, &reply);
                    let control = created.map(|pid| Link::control(pid, 0));
                    self.kernel_send_over(now, reply_to, body, control, out);
                }
            }
            codes::ARE_YOU_ALIVE => {
                let nonce = payload
                    .get(..8)
                    .map(|b| u64::from_le_bytes(b.try_into().expect("len checked")))
                    .unwrap_or(0);
                let reply = protocol::AliveReply {
                    node: self.node,
                    incarnation: self.transport.incarnation(),
                    nonce,
                };
                let body = encode_ctl(codes::ALIVE_REPLY, &reply);
                // Watchdog traffic is unguaranteed (§4.3.3: "dated or
                // statistical information … often out of date if
                // retransmission were necessary").
                let id = self.next_kernel_id();
                let header = MessageHeader {
                    id,
                    to: requester,
                    code: codes::ALIVE_REPLY,
                    channel: Channel::DEFAULT,
                    deliver_to_kernel: false,
                };
                let msg = Message {
                    header,
                    passed_link: None,
                    body,
                };
                self.with_transport(now, out, |t, actions| {
                    t.send_datagram(now, requester.node, msg, actions)
                });
            }
            codes::RECREATE => {
                let Ok(req) = protocol::Recreate::decode_all(payload) else {
                    return;
                };
                let ok = self.recreate(now, &req);
                let mut e = Encoder::new();
                e.u32(codes::RECREATE_REPLY);
                req.pid.encode(&mut e);
                e.bool(ok);
                let body = e.finish().into();
                self.kernel_send(now, requester, codes::RECREATE_REPLY, body, None, out);
            }
            codes::REPLAY => {
                // The replayed message's body stays a view of the frame.
                let Ok(rep) = protocol::Replay::decode_shared(&msg.body.slice(4..)) else {
                    return;
                };
                self.inject_replay(now, rep, out);
            }
            codes::PREPARE_FINISH => {
                let Ok(pid) = ProcessId::decode_all(payload) else {
                    return;
                };
                if let Some(book) =
                    live_proc(&mut self.slots, pid.local).and_then(|proc| proc.recovery.as_mut())
                {
                    book.holding = true;
                }
                let mut e = Encoder::new();
                e.u32(codes::PREPARE_FINISH_REPLY);
                pid.encode(&mut e);
                self.kernel_send(
                    now,
                    requester,
                    codes::PREPARE_FINISH_REPLY,
                    e.finish().into(),
                    None,
                    out,
                );
            }
            codes::COMMIT_FINISH => {
                let Ok(pid) = ProcessId::decode_all(payload) else {
                    return;
                };
                self.commit_finish(now, pid, out);
            }
            codes::STATE_QUERY => {
                let Ok(q) = protocol::StateQuery::decode_all(payload) else {
                    return;
                };
                let state = match self.process(q.pid.local) {
                    _ if q.pid.node != self.node => protocol::ReportedState::Unknown,
                    None => protocol::ReportedState::Unknown,
                    Some(p) => match p.run {
                        RunState::Crashed => protocol::ReportedState::Crashed,
                        RunState::Recovering => protocol::ReportedState::Recovering,
                        _ => protocol::ReportedState::Functioning,
                    },
                };
                let reply = protocol::StateReply {
                    pid: q.pid,
                    state,
                    restart_number: q.restart_number,
                };
                let body = encode_ctl(codes::STATE_REPLY, &reply);
                self.kernel_send(now, requester, codes::STATE_REPLY, body, None, out);
            }
            codes::NODE_RESTARTED => {
                let Ok(n) = protocol::NodeRestarted::decode_all(payload) else {
                    return;
                };
                self.with_transport(now, out, |t, actions| {
                    t.reset_peer(now, n.node, n.incarnation, actions)
                });
            }
            codes::REQUEST_CHECKPOINT => {
                let Ok(pid) = ProcessId::decode_all(payload) else {
                    return;
                };
                if self.active == Some(pid.local) {
                    self.pending_checkpoints.push(pid.local);
                } else {
                    self.capture_checkpoint(now, pid.local, out);
                }
            }
            _ => {}
        }
        self.try_dispatch(now, out);
    }

    // ------------------------------------------------------------------
    // Process lifecycle
    // ------------------------------------------------------------------

    /// Creates a process directly (boot-time and test path; running
    /// systems go through the §4.2.3 process-control chain, which ends
    /// here too).
    ///
    /// # Errors
    ///
    /// Returns [`UnknownProgram`] if the image name is not registered.
    pub fn spawn(
        &mut self,
        now: SimTime,
        program_name: &str,
        initial_links: Vec<Link>,
        out: &mut Vec<KernelAction>,
    ) -> Result<ProcessId, UnknownProgram> {
        self.spawn_opts(now, program_name, initial_links, true, out)
    }

    /// Like [`Kernel::spawn`] but with `recoverable = false`: the §6.6.1
    /// optimization for processes nobody would want restarted (status
    /// commands, backups). The recorder publishes nothing for them and a
    /// crash is final.
    pub fn spawn_unrecoverable(
        &mut self,
        now: SimTime,
        program_name: &str,
        initial_links: Vec<Link>,
        out: &mut Vec<KernelAction>,
    ) -> Result<ProcessId, UnknownProgram> {
        self.spawn_opts(now, program_name, initial_links, false, out)
    }

    fn spawn_opts(
        &mut self,
        now: SimTime,
        program_name: &str,
        initial_links: Vec<Link>,
        recoverable: bool,
        out: &mut Vec<KernelAction>,
    ) -> Result<ProcessId, UnknownProgram> {
        if !self.registry.contains(program_name) {
            return Err(UnknownProgram(program_name.to_string()));
        }
        let pid = self
            .spawn_inner(now, program_name, initial_links, recoverable, out)
            .expect("registry checked");
        self.try_dispatch(now, out);
        Ok(pid)
    }

    fn spawn_inner(
        &mut self,
        now: SimTime,
        program_name: &str,
        initial_links: Vec<Link>,
        recoverable: bool,
        out: &mut Vec<KernelAction>,
    ) -> Option<ProcessId> {
        let program = self.registry.instantiate(program_name).ok()?;
        let local = self.next_local;
        self.next_local += 1;
        let pid = ProcessId {
            node: self.node,
            local,
        };
        let mut proc = Process::new(pid, program_name, program);
        for link in &initial_links {
            proc.links.insert(*link);
        }
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let slot = self.slot_mut(local);
        slot.epoch = Some(epoch);
        slot.proc = Some(Box::new(proc));
        self.stats.creates.inc();
        self.charge(self.costs.process_create);
        // §4.5: "send a message whenever a process is created".
        if self.publishing {
            let notice = protocol::CreatedNotice {
                pid,
                program_name: program_name.to_string(),
                initial_links,
                recoverable,
            };
            let body = encode_ctl(codes::PROCESS_CREATED_NOTICE, &notice);
            for rk in self.recorder_kernels() {
                self.kernel_send(
                    now,
                    rk,
                    codes::PROCESS_CREATED_NOTICE,
                    body.clone(),
                    None,
                    out,
                );
            }
        }
        self.wake(local);
        Some(pid)
    }

    fn destroy_process(&mut self, now: SimTime, local: u32, out: &mut Vec<KernelAction>) {
        let Some(slot) = self.slots.get_mut(local as usize) else {
            return;
        };
        let Some(proc) = slot.proc.take() else {
            return;
        };
        let pid = proc.pid;
        slot.epoch = None;
        self.stats.destroys.inc();
        self.charge(self.costs.process_create);
        if self.publishing {
            let notice = protocol::CreatedNotice {
                pid,
                program_name: proc.program_name,
                initial_links: Vec::new(),
                recoverable: true,
            };
            let body = encode_ctl(codes::PROCESS_DESTROYED_NOTICE, &notice);
            for rk in self.recorder_kernels() {
                self.kernel_send(
                    now,
                    rk,
                    codes::PROCESS_DESTROYED_NOTICE,
                    body.clone(),
                    None,
                    out,
                );
            }
        }
    }

    /// Crashes one process (a detected, non-deterministic fault §3.3.2):
    /// it halts and a crash notice goes to the recovery manager. Returns
    /// whether a live process was halted — `false` for a slot that holds
    /// none, and for one already crashed, whose notice is only repeated.
    pub fn crash_process(
        &mut self,
        now: SimTime,
        local: u32,
        reason: &str,
        out: &mut Vec<KernelAction>,
    ) -> bool {
        let Some(slot) = self.slots.get_mut(local as usize) else {
            return false;
        };
        let Some(proc) = slot.proc.as_deref_mut() else {
            return false;
        };
        let was_live = proc.run != RunState::Crashed;
        proc.run = RunState::Crashed;
        proc.queue.clear();
        let pid = proc.pid;
        // Invalidate any in-flight activation.
        slot.epoch = Some(slot.epoch.unwrap_or(0).wrapping_add(1));
        if self.active == Some(local) {
            self.active = None;
        }
        let notice = protocol::CrashNotice {
            pid,
            reason: reason.to_string(),
        };
        let body = encode_ctl(codes::PROCESS_CRASH_NOTICE, &notice);
        for rk in self.recorder_kernels() {
            self.kernel_send(
                now,
                rk,
                codes::PROCESS_CRASH_NOTICE,
                body.clone(),
                None,
                out,
            );
        }
        was_live
    }

    /// Takes the whole node down (§1.1.2: the crash of all its processes).
    pub fn crash_node(&mut self) {
        self.up = false;
        self.slots.clear();
        self.run_queue.clear();
        self.dones.clear();
        self.timers.clear();
        self.pending_checkpoints.clear();
        self.active = None;
        self.dispatch_armed = false;
    }

    /// Restarts a crashed node with a fresh transport incarnation.
    pub fn restart_node(&mut self, now: SimTime, incarnation: u32) {
        self.up = true;
        self.cpu_busy_until = now;
        self.transport.restart(incarnation);
        self.next_local = self.next_local.max(KERNEL_LOCAL + 1);
    }

    fn recreate(&mut self, _now: SimTime, req: &protocol::Recreate) -> bool {
        // Processes are recovered on their home node (or on a spare that
        // assumed the whole node's identity, §4.6); a foreign pid would
        // collide with the local id space.
        if req.pid.node != self.node {
            return false;
        }
        let local = req.pid.local;
        // §4.7: "If the process already exists, it is destroyed."
        self.slot_mut(local).proc = None;
        let Ok(fresh) = self.registry.instantiate(&req.program_name) else {
            return false;
        };
        let mut proc = match &req.checkpoint {
            Some(bytes) => {
                let Ok(image) = ProcessImage::decode_all(bytes) else {
                    return false;
                };
                let Ok(p) = Process::restore_from(req.pid, &image, fresh) else {
                    return false;
                };
                p
            }
            None => {
                // Restarting from the initial state: reinstall the
                // creation-time links (§3.3.1's "other parameters").
                let mut p = Process::new(req.pid, req.program_name.clone(), fresh);
                for link in &req.initial_links {
                    p.links.insert(*link);
                }
                p.run = RunState::Recovering;
                p
            }
        };
        let mut book = proc.recovery.take().unwrap_or_default();
        book.suppress = req.suppress.iter().copied().collect();
        proc.recovery = Some(book);
        proc.run = RunState::Recovering;
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.next_local = self.next_local.max(local + 1);
        let slot = self.slot_mut(local);
        slot.epoch = Some(epoch);
        slot.proc = Some(Box::new(proc));
        self.charge(self.costs.process_create);
        self.wake(local);
        true
    }

    fn inject_replay(&mut self, now: SimTime, rep: protocol::Replay, out: &mut Vec<KernelAction>) {
        let Some(proc) = live_proc(&mut self.slots, rep.dst.local) else {
            return;
        };
        if !matches!(proc.run, RunState::Recovering) {
            return;
        }
        // A replayed message that is below the restored read watermark was
        // consumed before the checkpoint (a stale re-sequencing after the
        // recorder itself lost state); skip it rather than deliver twice.
        if proc.is_duplicate(rep.msg.header.id) {
            self.stats.dups_dropped.inc();
            return;
        }
        self.spans.record(
            now,
            rep.msg.header.id.into(),
            Stage::Replay,
            rep.dst.as_u64(),
            rep.read_seq,
        );
        proc.queue.enqueue(rep.msg);
        self.wake(rep.dst.local);
        self.try_dispatch(now, out);
    }

    fn commit_finish(&mut self, now: SimTime, pid: ProcessId, out: &mut Vec<KernelAction>) {
        let Some(proc) = live_proc(&mut self.slots, pid.local) else {
            return;
        };
        let Some(book) = proc.recovery.take() else {
            return;
        };
        // Merge held live traffic, dropping anything the replay already
        // covered.
        for msg in book.side_buffer {
            if book.replayed.contains(&msg.header.id) || proc.is_duplicate(msg.header.id) {
                self.stats.dups_dropped.inc();
                continue;
            }
            proc.queue.enqueue(msg);
        }
        proc.run = RunState::Waiting;
        self.wake(pid.local);
        self.try_dispatch(now, out);
    }

    fn capture_checkpoint(&mut self, now: SimTime, local: u32, out: &mut Vec<KernelAction>) {
        let Some(proc) = live_proc(&mut self.slots, local) else {
            return;
        };
        if matches!(proc.run, RunState::Crashed | RunState::Recovering) {
            return;
        }
        let image = proc.image();
        let read_count = proc.read_count;
        let pid = proc.pid;
        proc.cpu_since_checkpoint = SimDuration::ZERO;
        let bytes = image.encode_to_vec();
        self.charge(self.costs.checkpoint_cost(bytes.len()));
        self.stats.checkpoints_taken.inc();
        let deposit = protocol::CheckpointDeposit {
            pid,
            read_count,
            image: bytes,
        };
        let body = encode_ctl(codes::CHECKPOINT_DEPOSIT, &deposit);
        for rk in self.recorder_kernels() {
            self.kernel_send(now, rk, codes::CHECKPOINT_DEPOSIT, body.clone(), None, out);
        }
    }
}

impl core::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Kernel")
            .field("node", &self.node)
            .field("up", &self.up)
            .field("procs", &self.processes().count())
            .field("publishing", &self.publishing)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::EchoServer;
    use crate::registry::ProgramRegistry;
    use crate::transport::TransportConfig;

    fn kernel(publishing: bool) -> Kernel {
        let mut reg = ProgramRegistry::new();
        reg.register("echo", || Box::new(EchoServer::default()));
        Kernel::new(
            NodeId(1),
            reg,
            CostModel::zero(),
            TransportConfig::default(),
            publishing,
        )
    }

    // The entry points append to a caller's buffer; a test wants the
    // actions of one call.
    fn spawn(
        k: &mut Kernel,
        now: SimTime,
        program: &str,
        links: Vec<Link>,
    ) -> Result<(ProcessId, Vec<KernelAction>), UnknownProgram> {
        let mut out = Vec::new();
        let pid = k.spawn(now, program, links, &mut out)?;
        Ok((pid, out))
    }

    fn on_frame(k: &mut Kernel, now: SimTime, frame: &Frame, ok: bool) -> Vec<KernelAction> {
        let mut out = Vec::new();
        k.on_frame(now, frame, ok, &mut out);
        out
    }

    fn on_timer(k: &mut Kernel, now: SimTime, token: u64) -> Vec<KernelAction> {
        let mut out = Vec::new();
        k.on_timer(now, token, &mut out);
        out
    }

    fn crash_process(k: &mut Kernel, now: SimTime, local: u32, why: &str) -> Vec<KernelAction> {
        let mut out = Vec::new();
        k.crash_process(now, local, why, &mut out);
        out
    }

    /// Fires, in order, every timer in `actions` that is due at `now`
    /// (activations cost nothing under `CostModel::zero`; retransmission
    /// timers lie 20 ms out and stay unfired), and returns everything
    /// else the kernel asked for.
    fn settle(k: &mut Kernel, now: SimTime, actions: Vec<KernelAction>) -> Vec<KernelAction> {
        let mut rest = Vec::new();
        let mut queue: VecDeque<KernelAction> = actions.into();
        while let Some(a) = queue.pop_front() {
            match a {
                KernelAction::SetTimer { at, token } if at <= now => {
                    queue.extend(on_timer(k, now, token));
                }
                other => rest.push(other),
            }
        }
        rest
    }

    /// Hands `msg` to the kernel as the transport would after delivery.
    fn arrive(k: &mut Kernel, now: SimTime, msg: Message) -> Vec<KernelAction> {
        let mut out = Vec::new();
        k.accept_message(now, msg, &mut out);
        k.try_dispatch(now, &mut out);
        out
    }

    fn to(dst: ProcessId, seq: u64, channel: u8, control: Option<u32>) -> Message {
        Message {
            header: MessageHeader {
                id: MessageId {
                    sender: ProcessId::new(7, 1),
                    seq,
                },
                to: dst,
                code: 0,
                channel: Channel(channel),
                deliver_to_kernel: control.is_some(),
            },
            passed_link: None,
            body: control
                .map_or_else(|| b"hello".to_vec(), |code| code.to_le_bytes().to_vec())
                .into(),
        }
    }

    // An activation borrows its process where it sits. Each way out of
    // `run_start` / `run_activation` / `finish_activation` must leave the
    // process in its slot (or leave the slot empty because the process
    // is gone) — never lose one, never resurrect one.

    #[test]
    fn activation_of_nothing_leaves_everything_alone() {
        let mut k = kernel(false);
        let t = SimTime::ZERO;
        let (pid, actions) = spawn(&mut k, t, "echo", vec![]).unwrap();
        assert!(settle(&mut k, t, actions).is_empty());
        let mut out = Vec::new();
        // Nothing queued: the receive finds nothing and the process stays.
        k.run_activation(t, pid.local, &mut out);
        // No such process, in the table's range and beyond it.
        k.run_start(t, 0, &mut out);
        k.run_start(t, 99, &mut out);
        k.run_activation(t, 99, &mut out);
        assert!(out.is_empty());
        assert_eq!(k.active, None);
        assert_eq!(k.stats().activations.get(), 1, "the start only");
        let proc = k.process(pid.local).expect("still in its slot");
        assert!(proc.started && proc.read_count == 0);
        assert_eq!(k.processes().count(), 1);
    }

    #[test]
    fn control_message_keeps_the_process_in_its_slot_until_it_says_stop() {
        let mut k = kernel(false);
        let t = SimTime::ZERO;
        let (pid, actions) = spawn(&mut k, t, "echo", vec![]).unwrap();
        settle(&mut k, t, actions);
        // A control code nobody implements: the kernel call runs, as the
        // process, and changes nothing.
        let actions = arrive(&mut k, t, to(pid, 1, 0, Some(0xFFFF)));
        assert_eq!(k.active, Some(pid.local), "kernel call in flight");
        assert_eq!(k.process(pid.local).expect("in its slot").read_count, 1);
        settle(&mut k, t, actions);
        assert_eq!(k.active, None);
        assert!(k.process(pid.local).is_some());
        // STOP_PROCESS: in its slot while the call runs, gone after.
        let actions = arrive(&mut k, t, to(pid, 2, 0, Some(codes::STOP_PROCESS)));
        assert!(k.process(pid.local).is_some());
        settle(&mut k, t, actions);
        assert!(k.process(pid.local).is_none());
        assert_eq!(k.stats().destroys.get(), 1);
        assert_eq!(
            k.stats().activations.get(),
            1,
            "control is not an activation"
        );
    }

    #[test]
    fn read_order_notice_is_sent_mid_activation_and_the_activation_completes() {
        let mut reg = ProgramRegistry::new();
        reg.register("reader", || {
            Box::new(crate::programs::ChannelReader::new(Channel(1)))
        });
        let cfg = TransportConfig::default();
        let mut k = Kernel::new(NodeId(1), reg, CostModel::zero(), cfg, true);
        k.set_recorder(NodeId(9));
        let t = SimTime::ZERO;
        let (pid, actions) = spawn(&mut k, t, "reader", vec![]).unwrap();
        settle(&mut k, t, actions);
        // The reader accepts channel 1 only: a channel-0 message waits at
        // the head of its queue, and the channel-1 message behind it is
        // read first — which the recorder must be told (§4.4.2).
        assert!(arrive(&mut k, t, to(pid, 1, 0, None)).is_empty());
        let sent_before = k.transport_stats().sent.get();
        let actions = arrive(&mut k, t, to(pid, 2, 1, None));
        assert_eq!(k.stats().read_order_notices.get(), 1);
        assert_eq!(
            k.transport_stats().sent.get(),
            sent_before + 1,
            "the notice"
        );
        assert_eq!(k.active, Some(pid.local));
        let proc = k.process(pid.local).expect("in its slot");
        assert_eq!((proc.read_count, proc.queue.len()), (1, 1));
        let rest = settle(&mut k, t, actions);
        let outputs: Vec<&[u8]> = rest
            .iter()
            .filter_map(|a| match a {
                KernelAction::Output { bytes, .. } => Some(bytes.as_slice()),
                _ => None,
            })
            .collect();
        // The reader then opens every channel and reads the waiting head.
        assert_eq!(outputs, [&b"read 1 ch1 [5]"[..], &b"read 2 ch0 [5]"[..]]);
        assert_eq!(k.stats().activations.get(), 3);
        assert_eq!(k.process(pid.local).expect("in its slot").read_count, 2);
    }

    #[test]
    fn process_gone_or_crashed_before_its_done_timer_fires() {
        let mut k = kernel(false);
        let t = SimTime::ZERO;
        // Destroyed mid-activation: the Done timer finds an empty slot.
        let (gone, start) = spawn(&mut k, t, "echo", vec![]).unwrap();
        assert_eq!(k.active, Some(gone.local), "start activation in flight");
        let mut out = Vec::new();
        k.destroy_process(t, gone.local, &mut out);
        assert!(settle(&mut k, t, start).is_empty());
        assert_eq!(k.active, None);
        assert!(k.process(gone.local).is_none());
        // Crashed mid-activation: the process stays in its slot, halted,
        // and the activation's effects die with the old incarnation.
        let (crashed, start) = spawn(&mut k, t, "echo", vec![]).unwrap();
        assert_ne!(crashed.local, gone.local, "local ids are never reused");
        crash_process(&mut k, t, crashed.local, "test");
        assert!(settle(&mut k, t, start).is_empty());
        assert_eq!(
            k.process(crashed.local).expect("in its slot").run,
            RunState::Crashed
        );
        assert_eq!(k.processes().count(), 1);
        // A message for either is dropped without a trace.
        assert!(arrive(&mut k, t, to(gone, 1, 0, None)).is_empty());
        assert!(arrive(&mut k, t, to(crashed, 1, 0, None)).is_empty());
        assert_eq!(k.stats().msgs_received.get(), 0);
    }

    #[test]
    fn ctl_codec_roundtrip() {
        let notice = protocol::CrashNotice {
            pid: ProcessId::new(1, 2),
            reason: "x".into(),
        };
        let body = encode_ctl(codes::PROCESS_CRASH_NOTICE, &notice);
        let (code, payload) = decode_ctl(&body).unwrap();
        assert_eq!(code, codes::PROCESS_CRASH_NOTICE);
        assert_eq!(protocol::CrashNotice::decode_all(payload).unwrap(), notice);
        assert!(decode_ctl(&[1, 2]).is_none(), "short bodies rejected");
    }

    #[test]
    fn spawn_assigns_fresh_local_ids() {
        let mut k = kernel(false);
        let (a, _) = spawn(&mut k, SimTime::ZERO, "echo", vec![]).unwrap();
        let (b, _) = spawn(&mut k, SimTime::ZERO, "echo", vec![]).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.node, NodeId(1));
        assert!(a.local >= 1, "local 0 is the kernel endpoint");
        assert!(k.process(a.local).is_some());
    }

    #[test]
    fn unknown_program_rejected() {
        let mut k = kernel(false);
        assert!(spawn(&mut k, SimTime::ZERO, "ghost", vec![]).is_err());
    }

    #[test]
    fn publishing_spawn_emits_created_notice() {
        let mut k = kernel(true);
        k.set_recorder(NodeId(9));
        let (_, actions) = spawn(&mut k, SimTime::ZERO, "echo", vec![]).unwrap();
        let transmits = actions
            .iter()
            .filter(|a| matches!(a, KernelAction::Transmit(_)))
            .count();
        assert!(transmits >= 1, "created notice must go on the wire");
    }

    #[test]
    fn non_publishing_spawn_is_silent() {
        let mut k = kernel(false);
        k.set_recorder(NodeId(9));
        let (_, actions) = spawn(&mut k, SimTime::ZERO, "echo", vec![]).unwrap();
        assert!(actions
            .iter()
            .all(|a| !matches!(a, KernelAction::Transmit(_))));
    }

    #[test]
    fn crash_marks_process_and_notifies_manager() {
        let mut k = kernel(true);
        k.set_recorder(NodeId(9));
        let (pid, _) = spawn(&mut k, SimTime::ZERO, "echo", vec![]).unwrap();
        let sent_before = k.transport_stats().sent.get();
        let actions = crash_process(&mut k, SimTime::ZERO, pid.local, "test");
        assert_eq!(k.process(pid.local).unwrap().run, RunState::Crashed);
        // The crash notice was handed to the transport (it may queue
        // behind the unacked creation notice under stop-and-wait).
        assert_eq!(k.transport_stats().sent.get(), sent_before + 1);
        let _ = actions;
    }

    #[test]
    fn node_crash_wipes_processes_and_restart_bumps_incarnation() {
        let mut k = kernel(false);
        spawn(&mut k, SimTime::ZERO, "echo", vec![]).unwrap();
        assert_eq!(k.processes().count(), 1);
        k.crash_node();
        assert!(!k.is_up());
        assert_eq!(k.processes().count(), 0);
        k.restart_node(SimTime::from_millis(5), 1);
        assert!(k.is_up());
        assert_eq!(k.incarnation(), 1);
    }

    #[test]
    fn frames_for_other_stations_are_ignored() {
        let mut k = kernel(true);
        let frame = Frame::new(
            StationId(7),
            Destination::Station(StationId(3)), // not us
            vec![1, 2, 3],
        );
        assert!(on_frame(&mut k, SimTime::ZERO, &frame, true).is_empty());
    }

    #[test]
    fn recorder_blocked_frames_are_dropped() {
        let mut k = kernel(true);
        let frame = Frame::new(StationId(7), Destination::Station(StationId(1)), vec![1]);
        let out = on_frame(&mut k, SimTime::ZERO, &frame, false);
        assert!(out.is_empty());
        assert_eq!(k.stats().recorder_blocked.get(), 1);
    }

    #[test]
    fn corrupt_frames_are_dropped_at_link_layer() {
        let mut k = kernel(false);
        let mut frame = Frame::new(StationId(7), Destination::Station(StationId(1)), vec![1]);
        frame.corrupt_in_flight();
        let out = on_frame(&mut k, SimTime::ZERO, &frame, true);
        assert!(out.is_empty());
        assert_eq!(k.stats().bad_frames.get(), 1);
    }
}
