//! The transport layer of §4.3.3.
//!
//! Guarantees for guaranteed messages, provided neither endpoint stays
//! crashed and network failures are temporary: no duplication, eventual
//! arrival, and FIFO order per sender→receiver processor pair. The
//! mechanisms are the thesis': end-to-end acknowledgements with periodic
//! resend, duplicate suppression by sequence, and sender-side ordering.
//! The thesis shipped stop-and-wait ("only one unacknowledged message in
//! transit from each processor … will be replaced in the future by a
//! windowing scheme"); we provide both via a configurable window.
//!
//! Because publishing restarts whole nodes, transport state can vanish on
//! one side of a pair. Every node carries an *incarnation* number, bumped
//! at restart: receivers reset per-sender state when a sender's
//! incarnation changes, and senders renumber their outstanding traffic
//! when told (by the recovery manager's restart broadcast) that a peer
//! restarted, tagging frames with the peer epoch so stale traffic is
//! ignored rather than misordered.

use crate::ids::{MessageId, NodeId, ProcessId};
use crate::link::Link;
use crate::message::{Message, MessageHeader};
use publishing_sim::codec::{Bytes, CodecError, Decode, Decoder, Encode, Encoder};
use publishing_sim::ledger::LevelGauge;
use publishing_sim::stats::{Counter, Utilization};
use publishing_sim::table::{slot_mut, TokenTable};
use publishing_sim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// A transport-layer frame payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Wire {
    /// A guaranteed message.
    Data {
        /// Sending node.
        src_node: NodeId,
        /// Sender's incarnation (receiver resets state on change).
        incarnation: u32,
        /// The receiver incarnation this frame targets (0 = initial).
        peer_epoch: u32,
        /// Per (sender node, receiver node, epoch) sequence, from 1.
        tseq: u64,
        /// The message.
        msg: Message,
    },
    /// An end-to-end acknowledgement for a guaranteed message. The
    /// recorder traces these to learn receive order (§4.4.1).
    Ack {
        /// Acknowledging (receiving) node.
        src_node: NodeId,
        /// Acknowledging node's incarnation.
        incarnation: u32,
        /// Epoch echoed from the acknowledged Data frame.
        peer_epoch: u32,
        /// The acknowledged transport sequence.
        tseq: u64,
        /// The acknowledged message id (for the recorder).
        msg_id: MessageId,
        /// The destination process (for the recorder's sequencing).
        dst_pid: ProcessId,
    },
    /// An unguaranteed datagram ("dated or statistical information").
    Datagram {
        /// Sending node.
        src_node: NodeId,
        /// The message.
        msg: Message,
    },
    /// Rejection of a Data frame that targeted a stale incarnation of
    /// the receiver. Tells the sender the receiver's current epoch so it
    /// renumbers and retransmits; without it a node that restarts after
    /// a peer restarted never learns the peer's epoch and its guaranteed
    /// traffic is dropped forever. Never published: it acknowledges
    /// nothing.
    EpochNotice {
        /// Rejecting (receiving) node.
        src_node: NodeId,
        /// Its current incarnation.
        incarnation: u32,
    },
    /// Consensus traffic between the replicas of a recorder quorum
    /// group. Opaque to the transport (the quorum crate owns the payload
    /// codec); never published and never gated on recorder capture —
    /// consensus heartbeats retransmit on their own schedule.
    Quorum {
        /// Sending replica's node.
        src_node: NodeId,
        /// Recorder group the message belongs to.
        group: u32,
        /// Encoded quorum protocol message.
        payload: Bytes,
    },
}

const TAG_DATA: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_DATAGRAM: u8 = 3;
const TAG_EPOCH: u8 = 4;
const TAG_QUORUM: u8 = 5;

/// Bytes a `Wire::Quorum` encoding spends before its payload: tag, node,
/// group and the payload's length prefix.
const QUORUM_HEADER: usize = 1 + 4 + 4 + 8;

/// Bytes a `Wire::Data` encoding spends before its message: tag, node,
/// incarnation, peer epoch and transport sequence. What follows is the
/// message's own encoding, byte for byte ([`Wire::data_message`]).
pub const DATA_HEADER: usize = 1 + 4 + 4 + 4 + 8;

impl Wire {
    /// Whether `bytes` carry the `Quorum` tag — one byte read, nothing
    /// decoded, so a station can tell consensus traffic from process
    /// traffic before deciding whether the frame is worth decoding.
    pub fn is_quorum(bytes: &[u8]) -> bool {
        bytes.first() == Some(&TAG_QUORUM)
    }

    /// The destination process of the `Data` or `Ack` that `bytes`
    /// encode, read in place; `Ok(None)` for any other variant. It is
    /// exactly [`Wire::decode_all`] followed by reading the destination,
    /// errors included, without building the value: every field is
    /// checked where the decode reads it, and nothing is copied or
    /// viewed. A router or a recorder that only needs to know whom a
    /// frame is for reads this instead of decoding the frame.
    ///
    /// # Errors
    ///
    /// The error [`Wire::decode_all`] gives for bytes that are not
    /// exactly one `Wire`.
    pub fn peek_dst(bytes: &[u8]) -> Result<Option<ProcessId>, CodecError> {
        let mut d = Decoder::new(bytes);
        let tag = d.u8()?;
        let dst = match tag {
            TAG_DATA | TAG_ACK => {
                d.u32()?;
                d.u32()?;
                d.u32()?;
                d.u64()?;
                if tag == TAG_DATA {
                    Some(peek_message(&mut d)?)
                } else {
                    MessageId::decode(&mut d)?;
                    Some(ProcessId::decode(&mut d)?)
                }
            }
            TAG_DATAGRAM => {
                d.u32()?;
                peek_message(&mut d)?;
                None
            }
            TAG_EPOCH => {
                d.u32()?;
                d.u32()?;
                None
            }
            TAG_QUORUM => {
                d.u32()?;
                d.u32()?;
                d.borrowed_bytes()?;
                None
            }
            tag => return Err(CodecError::InvalidTag { what: "wire", tag }),
        };
        d.finish()?;
        Ok(dst)
    }

    /// The encoded message inside the bytes of a `Data` frame, as a view
    /// of them: the encoding is canonical, so these are the bytes
    /// `msg.encode_to_vec()` would produce for the decoded message — what
    /// the recorder logs without encoding anything again.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is shorter than a `Data` header; call it on
    /// bytes that decoded as `Wire::Data`.
    pub fn data_message(frame: &Bytes) -> Bytes {
        frame.slice(DATA_HEADER..)
    }

    /// The encoding of `Wire::Data { src_node, incarnation, peer_epoch,
    /// tseq, msg: msg.clone() }`, written from the borrowed message
    /// straight into the buffer that becomes the frame's: a
    /// (re)transmission allocates once and copies the body once.
    ///
    /// # Panics
    ///
    /// Panics if `msg.encoded_len()` is not exact — the buffer is sized
    /// from it.
    pub fn encode_data(
        src_node: NodeId,
        incarnation: u32,
        peer_epoch: u32,
        tseq: u64,
        msg: &Message,
    ) -> Bytes {
        Bytes::encoded(DATA_HEADER + msg.encoded_len(), |e| {
            e.u8(TAG_DATA)
                .u32(src_node.0)
                .u32(incarnation)
                .u32(peer_epoch)
                .u64(tseq);
            msg.encode(e);
        })
    }

    /// The encoding of `Wire::Quorum { src_node, group, payload:
    /// body.encode_to_vec() }`, written in one pass into the buffer that
    /// becomes the frame's: the body is encoded behind the header
    /// instead of into a payload vector that is then copied.
    ///
    /// # Panics
    ///
    /// Panics if `body.encoded_len()` is not exact — the length prefix
    /// is written from it before the body.
    pub fn encode_quorum(src_node: NodeId, group: u32, body: &impl Encode) -> Bytes {
        let len = body.encoded_len();
        Bytes::encoded(QUORUM_HEADER + len, |e| {
            e.u8(TAG_QUORUM).u32(src_node.0).u32(group).u64(len as u64);
            body.encode(e);
        })
    }
}

/// Reads past one encoded [`Message`] as its decode would, returning its
/// destination: the header and any passed link are plain fields, and the
/// body is only checked to be there.
fn peek_message(d: &mut Decoder<'_>) -> Result<ProcessId, CodecError> {
    let header = MessageHeader::decode(d)?;
    d.option(Link::decode)?;
    d.borrowed_bytes()?;
    Ok(header.to)
}

impl Encode for Wire {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Wire::Data {
                src_node,
                incarnation,
                peer_epoch,
                tseq,
                msg,
            } => {
                e.u8(TAG_DATA)
                    .u32(src_node.0)
                    .u32(*incarnation)
                    .u32(*peer_epoch)
                    .u64(*tseq);
                msg.encode(e);
            }
            Wire::Ack {
                src_node,
                incarnation,
                peer_epoch,
                tseq,
                msg_id,
                dst_pid,
            } => {
                e.u8(TAG_ACK)
                    .u32(src_node.0)
                    .u32(*incarnation)
                    .u32(*peer_epoch)
                    .u64(*tseq);
                msg_id.encode(e);
                dst_pid.encode(e);
            }
            Wire::Datagram { src_node, msg } => {
                e.u8(TAG_DATAGRAM).u32(src_node.0);
                msg.encode(e);
            }
            Wire::EpochNotice {
                src_node,
                incarnation,
            } => {
                e.u8(TAG_EPOCH).u32(src_node.0).u32(*incarnation);
            }
            Wire::Quorum {
                src_node,
                group,
                payload,
            } => {
                e.u8(TAG_QUORUM).u32(src_node.0).u32(*group).bytes(payload);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        // Tag 1, node 4, then the variant's fixed-width fields.
        match self {
            Wire::Data { msg, .. } => DATA_HEADER + msg.encoded_len(),
            Wire::Ack { .. } => 5 + 4 + 4 + 8 + 16 + 8,
            Wire::Datagram { msg, .. } => 5 + msg.encoded_len(),
            Wire::EpochNotice { .. } => 5 + 4,
            Wire::Quorum { payload, .. } => QUORUM_HEADER + payload.len(),
        }
    }
}

impl Decode for Wire {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.u8()? {
            TAG_DATA => {
                let src_node = NodeId(d.u32()?);
                let incarnation = d.u32()?;
                let peer_epoch = d.u32()?;
                let tseq = d.u64()?;
                let msg = Message::decode(d)?;
                Ok(Wire::Data {
                    src_node,
                    incarnation,
                    peer_epoch,
                    tseq,
                    msg,
                })
            }
            TAG_ACK => {
                let src_node = NodeId(d.u32()?);
                let incarnation = d.u32()?;
                let peer_epoch = d.u32()?;
                let tseq = d.u64()?;
                let msg_id = MessageId::decode(d)?;
                let dst_pid = ProcessId::decode(d)?;
                Ok(Wire::Ack {
                    src_node,
                    incarnation,
                    peer_epoch,
                    tseq,
                    msg_id,
                    dst_pid,
                })
            }
            TAG_DATAGRAM => {
                let src_node = NodeId(d.u32()?);
                let msg = Message::decode(d)?;
                Ok(Wire::Datagram { src_node, msg })
            }
            TAG_EPOCH => {
                let src_node = NodeId(d.u32()?);
                let incarnation = d.u32()?;
                Ok(Wire::EpochNotice {
                    src_node,
                    incarnation,
                })
            }
            TAG_QUORUM => {
                let src_node = NodeId(d.u32()?);
                let group = d.u32()?;
                let payload = d.shared_bytes()?;
                Ok(Wire::Quorum {
                    src_node,
                    group,
                    payload,
                })
            }
            tag => Err(CodecError::InvalidTag { what: "wire", tag }),
        }
    }
}

/// Initial retransmission timeout (§4.3.3's one retry timer).
const RTO: SimDuration = SimDuration::from_millis(20);
/// Backoff cap for the retransmission timeout.
const MAX_RTO: SimDuration = SimDuration::from_millis(500);

/// Transport configuration.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Maximum unacknowledged Data frames per destination node
    /// (1 = the thesis' stop-and-wait).
    pub window: usize,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig { window: 1 }
    }
}

/// Actions the transport asks its kernel to perform. Every entry point
/// appends them, in the order they must be performed, to a buffer its
/// caller owns and reuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TAction {
    /// Put an encoded [`Wire`] payload on the medium addressed to a node.
    Transmit {
        /// Destination node.
        dst_node: NodeId,
        /// Encoded payload: the frame's bytes, written once.
        payload: Bytes,
    },
    /// Deliver a message up to the kernel's routing layer.
    Deliver(Message),
    /// Call [`Transport::timer`] with `token` at time `at`.
    SetTimer {
        /// Callback time.
        at: SimTime,
        /// Token to hand back.
        token: u64,
    },
}

/// Counters the transport maintains.
#[derive(Debug, Default, Clone)]
pub struct TransportStats {
    /// Guaranteed messages accepted for sending.
    pub sent: Counter,
    /// Datagrams sent.
    pub datagrams: Counter,
    /// Retransmissions.
    pub retransmits: Counter,
    /// Messages delivered up, in order.
    pub delivered: Counter,
    /// Duplicate Data frames suppressed.
    pub duplicates: Counter,
    /// Acks received that matched an in-flight message.
    pub acked: Counter,
    /// Frames dropped for a stale peer epoch.
    pub stale_epoch: Counter,
}

struct Inflight {
    msg: Message,
    rto: SimDuration,
}

/// Entries keyed by the transport sequence they went out under, oldest
/// first. Sequences are issued in order and the window is a handful at
/// most, so a search from the front finds any of them; unlike a map, an
/// emptied window keeps its buffer for the next message.
type BySeq<T> = VecDeque<(u64, T)>;

fn position<T>(window: &BySeq<T>, tseq: u64) -> Option<usize> {
    window.iter().position(|e| e.0 == tseq)
}

struct OutState {
    /// The receiver incarnation we currently target.
    epoch: u32,
    next_tseq: u64,
    inflight: BySeq<Inflight>,
    queue: VecDeque<Message>,
}

impl OutState {
    fn new() -> Self {
        OutState {
            epoch: 0,
            next_tseq: 1,
            inflight: BySeq::new(),
            queue: VecDeque::new(),
        }
    }
}

struct InState {
    peer_incarnation: u32,
    expected: u64,
    reorder: BTreeMap<u64, Message>,
}

/// Capacity instrumentation for one sender→receiver channel.
///
/// The channel is *busy* while any guaranteed message is queued or
/// unacknowledged — under the thesis' stop-and-wait window this is the
/// receiving node's ingest budget (one message per round trip per
/// sender), which is the resource that saturates first on the perfect
/// bus. The level gauge integrates queue + in-flight occupancy (Little's
/// `L`) and the sojourn accumulator measures accept→ack time (`W`), so
/// the queueing cross-validation can check `L = λW` from the ledger.
#[derive(Debug, Default)]
pub struct ChannelMeter {
    /// Busy while the channel has queued or unacknowledged messages.
    pub busy: Utilization,
    /// Queue + in-flight occupancy over time.
    pub level: LevelGauge,
    /// Accepted messages whose ack has arrived.
    pub completed: u64,
    /// Total accept→ack sojourn, ns.
    pub sojourn_ns: u128,
    /// Accept times of messages still in the send queue (parallel to
    /// `OutState::queue`).
    enq_queue: VecDeque<SimTime>,
    /// Accept times of messages in flight, by tseq.
    enq_inflight: BySeq<SimTime>,
}

impl ChannelMeter {
    /// Mean accept→ack sojourn in milliseconds, 0 if nothing completed.
    pub fn mean_sojourn_ms(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        (self.sojourn_ns as f64 / self.completed as f64) / 1e6
    }

    /// Re-marks busy/idle from the channel's current occupancy.
    fn set_level(&mut self, now: SimTime, level: u64) {
        self.level.set(now, level);
        if level > 0 {
            self.busy.set_busy(now);
        } else {
            self.busy.set_idle(now);
        }
    }
}

/// What the transport keeps per peer node, each part made on first use.
#[derive(Default)]
struct Peer {
    out: Option<OutState>,
    inc: Option<InState>,
    meter: Option<ChannelMeter>,
}

/// The per-node transport state machine.
pub struct Transport {
    node: NodeId,
    incarnation: u32,
    cfg: TransportConfig,
    /// Indexed by the peer's node id (node ids count up from 0).
    peers: Vec<Peer>,
    /// Retransmission timers, (destination, tseq) by the token handed to
    /// the kernel. A restart clears it; late timers then find nothing.
    timers: TokenTable<(NodeId, u64)>,
    stats: TransportStats,
    last_now: SimTime,
}

impl Transport {
    /// Creates a transport for `node` with incarnation 0.
    pub fn new(node: NodeId, cfg: TransportConfig) -> Self {
        Transport {
            node,
            incarnation: 0,
            cfg,
            peers: Vec::new(),
            timers: TokenTable::new(),
            stats: TransportStats::default(),
            last_now: SimTime::ZERO,
        }
    }

    /// Returns this node's current incarnation.
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Returns the transport counters.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// Returns the per-destination channel meters (sender side), by
    /// ascending destination.
    pub fn channel_meters(&self) -> impl Iterator<Item = (NodeId, &ChannelMeter)> {
        self.peers
            .iter()
            .enumerate()
            .filter_map(|(n, p)| Some((NodeId(n as u32), p.meter.as_ref()?)))
    }

    /// Clears all state and bumps the incarnation — the node restarted.
    /// Meter history survives (capacity, not correctness, state); the
    /// in-progress occupancy drops to zero as of the last observed time.
    pub fn restart(&mut self, incarnation: u32) {
        assert!(incarnation > self.incarnation, "incarnation must increase");
        self.incarnation = incarnation;
        self.timers.clear();
        let now = self.last_now;
        for peer in &mut self.peers {
            peer.out = None;
            peer.inc = None;
            if let Some(meter) = &mut peer.meter {
                meter.enq_queue.clear();
                meter.enq_inflight.clear();
                meter.set_level(now, 0);
            }
        }
    }

    /// Notes that `peer` restarted with `new_epoch`: outstanding and
    /// queued traffic to it is renumbered from 1 under the new epoch and
    /// retransmitted.
    pub fn reset_peer(
        &mut self,
        now: SimTime,
        peer: NodeId,
        new_epoch: u32,
        actions: &mut Vec<TAction>,
    ) {
        self.last_now = now;
        let slot = slot_mut(&mut self.peers, peer.0 as usize);
        let out = slot.out.get_or_insert_with(OutState::new);
        if out.epoch >= new_epoch {
            return;
        }
        // Re-queue in sequence order ahead of anything already queued.
        for (_, inf) in out.inflight.drain(..).rev() {
            out.queue.push_front(inf.msg);
        }
        // Re-queue the matching accept timestamps in the same order so
        // sojourn accounting follows the messages through renumbering.
        let meter = slot.meter.get_or_insert_with(ChannelMeter::default);
        for (_, t) in meter.enq_inflight.drain(..).rev() {
            meter.enq_queue.push_front(t);
        }
        out.epoch = new_epoch;
        out.next_tseq = 1;
        self.pump(now, peer, actions);
    }

    /// Sends a guaranteed message to a process on `dst_node`.
    pub fn send_guaranteed(
        &mut self,
        now: SimTime,
        dst_node: NodeId,
        msg: Message,
        actions: &mut Vec<TAction>,
    ) {
        self.stats.sent.inc();
        self.last_now = now;
        let slot = slot_mut(&mut self.peers, dst_node.0 as usize);
        let out = slot.out.get_or_insert_with(OutState::new);
        out.queue.push_back(msg);
        let meter = slot.meter.get_or_insert_with(ChannelMeter::default);
        meter.enq_queue.push_back(now);
        self.pump(now, dst_node, actions);
    }

    /// Sends an unguaranteed datagram.
    pub fn send_datagram(
        &mut self,
        _now: SimTime,
        dst_node: NodeId,
        msg: Message,
        actions: &mut Vec<TAction>,
    ) {
        self.stats.datagrams.inc();
        let wire = Wire::Datagram {
            src_node: self.node,
            msg,
        };
        actions.push(TAction::Transmit {
            dst_node,
            payload: wire.encode_to_bytes(),
        });
    }

    fn pump(&mut self, now: SimTime, dst_node: NodeId, actions: &mut Vec<TAction>) {
        let Some(slot) = self.peers.get_mut(dst_node.0 as usize) else {
            return;
        };
        let Some(out) = &mut slot.out else {
            return;
        };
        let meter = slot.meter.get_or_insert_with(ChannelMeter::default);
        while out.inflight.len() < self.cfg.window {
            let Some(msg) = out.queue.pop_front() else {
                break;
            };
            let tseq = out.next_tseq;
            out.next_tseq += 1;
            if let Some(t) = meter.enq_queue.pop_front() {
                meter.enq_inflight.push_back((tseq, t));
            }
            let payload = Wire::encode_data(self.node, self.incarnation, out.epoch, tseq, &msg);
            actions.push(TAction::Transmit { dst_node, payload });
            out.inflight.push_back((tseq, Inflight { msg, rto: RTO }));
            let token = self.timers.insert((dst_node, tseq));
            actions.push(TAction::SetTimer {
                at: now + RTO,
                token,
            });
        }
        let level = (out.inflight.len() + out.queue.len()) as u64;
        meter.set_level(now, level);
    }

    /// Handles a retransmission timer.
    pub fn timer(&mut self, now: SimTime, token: u64, actions: &mut Vec<TAction>) {
        let Some((dst_node, tseq)) = self.timers.take(token) else {
            return;
        };
        let Some(out) = self
            .peers
            .get_mut(dst_node.0 as usize)
            .and_then(|p| p.out.as_mut())
        else {
            return;
        };
        let Some(at) = position(&out.inflight, tseq) else {
            return;
        };
        let inf = &mut out.inflight[at].1;
        // Still unacknowledged: resend with doubled (capped) timeout.
        self.stats.retransmits.inc();
        inf.rto = (inf.rto.saturating_mul(2)).min(MAX_RTO);
        let rto = inf.rto;
        let payload = Wire::encode_data(self.node, self.incarnation, out.epoch, tseq, &inf.msg);
        actions.push(TAction::Transmit { dst_node, payload });
        let token = self.timers.insert((dst_node, tseq));
        actions.push(TAction::SetTimer {
            at: now + rto,
            token,
        });
    }

    /// Handles a received, link-layer-clean [`Wire`] payload.
    pub fn on_wire(&mut self, now: SimTime, wire: Wire, actions: &mut Vec<TAction>) {
        match wire {
            Wire::Data {
                src_node,
                incarnation,
                peer_epoch,
                tseq,
                msg,
            } => self.on_data(src_node, incarnation, peer_epoch, tseq, msg, actions),
            Wire::Ack {
                src_node,
                peer_epoch,
                tseq,
                ..
            } => self.on_ack(now, src_node, peer_epoch, tseq, actions),
            Wire::Datagram { msg, .. } => actions.push(TAction::Deliver(msg)),
            Wire::EpochNotice {
                src_node,
                incarnation,
            } => self.reset_peer(now, src_node, incarnation, actions),
            // Quorum traffic is consumed by the quorum layer, not the
            // transport endpoint.
            Wire::Quorum { .. } => {}
        }
    }

    fn on_data(
        &mut self,
        src_node: NodeId,
        incarnation: u32,
        peer_epoch: u32,
        tseq: u64,
        msg: Message,
        actions: &mut Vec<TAction>,
    ) {
        // A frame aimed at a previous incarnation of this node is stale:
        // reject it (no ack — nothing was delivered) and tell the sender
        // our current incarnation so it renumbers and retransmits. The
        // sender may have restarted after we did and missed the
        // NODE_RESTARTED broadcast entirely.
        if peer_epoch != self.incarnation {
            self.stats.stale_epoch.inc();
            let notice = Wire::EpochNotice {
                src_node: self.node,
                incarnation: self.incarnation,
            };
            actions.push(TAction::Transmit {
                dst_node: src_node,
                payload: notice.encode_to_bytes(),
            });
            return;
        }
        let st = slot_mut(&mut self.peers, src_node.0 as usize)
            .inc
            .get_or_insert_with(|| InState {
                peer_incarnation: incarnation,
                expected: 1,
                reorder: BTreeMap::new(),
            });
        if st.peer_incarnation != incarnation {
            // The sender restarted: its numbering starts over.
            st.peer_incarnation = incarnation;
            st.expected = 1;
            st.reorder.clear();
        }
        // Always acknowledge receipt (§4.4.1: duplicate suppression keeps
        // the second copy from being passed on, but the ack must repeat or
        // the sender stalls).
        let ack = Wire::Ack {
            src_node: self.node,
            incarnation: self.incarnation,
            peer_epoch,
            tseq,
            msg_id: msg.header.id,
            dst_pid: msg.header.to,
        };
        actions.push(TAction::Transmit {
            dst_node: src_node,
            payload: ack.encode_to_bytes(),
        });
        if tseq < st.expected {
            self.stats.duplicates.inc();
            return;
        }
        if tseq > st.expected {
            // Out of order (window > 1): hold for in-order delivery.
            st.reorder.insert(tseq, msg);
            return;
        }
        st.expected += 1;
        self.stats.delivered.inc();
        actions.push(TAction::Deliver(msg));
        // Drain any consecutively buffered successors.
        while let Some(next) = st.reorder.remove(&st.expected) {
            st.expected += 1;
            self.stats.delivered.inc();
            actions.push(TAction::Deliver(next));
        }
    }

    fn on_ack(
        &mut self,
        now: SimTime,
        acker: NodeId,
        peer_epoch: u32,
        tseq: u64,
        actions: &mut Vec<TAction>,
    ) {
        let Some(slot) = self.peers.get_mut(acker.0 as usize) else {
            return;
        };
        let Some(out) = &mut slot.out else {
            return;
        };
        if out.epoch != peer_epoch {
            self.stats.stale_epoch.inc();
            return;
        }
        if let Some(at) = position(&out.inflight, tseq) {
            out.inflight.remove(at);
            self.stats.acked.inc();
            self.last_now = now;
            let meter = slot.meter.get_or_insert_with(ChannelMeter::default);
            if let Some(at) = position(&meter.enq_inflight, tseq) {
                let (_, t) = meter.enq_inflight.remove(at).expect("found");
                meter.completed += 1;
                meter.sojourn_ns += u128::from(now.saturating_since(t).as_nanos());
            }
            self.pump(now, acker, actions);
        }
    }

    /// Returns `true` if any guaranteed traffic is outstanding or queued.
    pub fn has_unacked(&self) -> bool {
        self.peers
            .iter()
            .filter_map(|p| p.out.as_ref())
            .any(|o| !o.inflight.is_empty() || !o.queue.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Channel, ProcessId};
    use crate::message::MessageHeader;

    fn msg(from: ProcessId, to: ProcessId, seq: u64, body: &[u8]) -> Message {
        Message {
            header: MessageHeader {
                id: MessageId { sender: from, seq },
                to,
                code: 0,
                channel: Channel(0),
                deliver_to_kernel: false,
            },
            passed_link: None,
            body: body.into(),
        }
    }

    fn transports() -> (Transport, Transport) {
        (
            Transport::new(NodeId(1), TransportConfig::default()),
            Transport::new(NodeId(2), TransportConfig::default()),
        )
    }

    // The entry points append to a caller's buffer; a test wants the
    // actions of one call.
    fn send_guaranteed(t: &mut Transport, now: SimTime, dst: NodeId, m: Message) -> Vec<TAction> {
        let mut out = Vec::new();
        t.send_guaranteed(now, dst, m, &mut out);
        out
    }

    fn send_datagram(t: &mut Transport, now: SimTime, dst: NodeId, m: Message) -> Vec<TAction> {
        let mut out = Vec::new();
        t.send_datagram(now, dst, m, &mut out);
        out
    }

    fn on_wire(t: &mut Transport, now: SimTime, wire: Wire) -> Vec<TAction> {
        let mut out = Vec::new();
        t.on_wire(now, wire, &mut out);
        out
    }

    fn fire(t: &mut Transport, now: SimTime, token: u64) -> Vec<TAction> {
        let mut out = Vec::new();
        t.timer(now, token, &mut out);
        out
    }

    fn reset_peer(t: &mut Transport, now: SimTime, peer: NodeId, epoch: u32) -> Vec<TAction> {
        let mut out = Vec::new();
        t.reset_peer(now, peer, epoch, &mut out);
        out
    }

    fn meter_to(t: &Transport, dst: NodeId) -> &ChannelMeter {
        let mut meters = t.channel_meters();
        meters.find(|(n, _)| *n == dst).expect("channel used").1
    }

    fn payload_of(actions: &[TAction]) -> Vec<Bytes> {
        actions
            .iter()
            .filter_map(|a| match a {
                TAction::Transmit { payload, .. } => Some(payload.clone()),
                _ => None,
            })
            .collect()
    }

    fn deliveries_of(actions: &[TAction]) -> Vec<Message> {
        actions
            .iter()
            .filter_map(|a| match a {
                TAction::Deliver(m) => Some(m.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn wire_codec_roundtrip() {
        let m = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), 5, b"x");
        let with_link = Message {
            passed_link: Some(crate::link::Link::to(m.header.to, Channel(1), 11)),
            ..m.clone()
        };
        for wire in [
            Wire::Data {
                src_node: NodeId(1),
                incarnation: 2,
                peer_epoch: 1,
                tseq: 9,
                msg: m.clone(),
            },
            Wire::Data {
                src_node: NodeId(1),
                incarnation: 2,
                peer_epoch: 1,
                tseq: 10,
                msg: with_link,
            },
            Wire::Ack {
                src_node: NodeId(2),
                incarnation: 3,
                peer_epoch: 0,
                tseq: 9,
                msg_id: m.header.id,
                dst_pid: m.header.to,
            },
            Wire::Datagram {
                src_node: NodeId(1),
                msg: m.clone(),
            },
            Wire::EpochNotice {
                src_node: NodeId(2),
                incarnation: 4,
            },
            Wire::Quorum {
                src_node: NodeId(3),
                group: 7,
                payload: vec![1, 2, 3, 4].into(),
            },
        ] {
            let buf = wire.encode_to_vec();
            assert_eq!(Wire::decode_all(&buf).unwrap(), wire);
            // Exact, so `encode_to_vec` allocates once and retains nothing.
            assert_eq!(wire.encoded_len(), buf.len());
            // The tag alone tells quorum traffic apart.
            assert_eq!(
                Wire::is_quorum(&buf),
                matches!(wire, Wire::Quorum { .. }),
                "{wire:?}"
            );
        }
        assert!(!Wire::is_quorum(&[]));
    }

    proptest::proptest! {
        /// The borrowed-message encoder writes the bytes the `Wire::Data`
        /// value did, with and without a passed link, in a buffer sized
        /// once.
        #[test]
        fn encode_data_matches_the_wire_value(
            route in (0u32..9, 0u32..5, 0u32..5, 1u64..u64::MAX),
            ids in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            link in proptest::option::of((0u64..u64::MAX, 0u32..99, 0u8..4, 0u8..2)),
            body in proptest::collection::vec(0u8..=255, 0..1500),
        ) {
            let (src, incarnation, peer_epoch, tseq) = route;
            let (sender, to, seq) = ids;
            let mut m = msg(ProcessId::from_u64(sender), ProcessId::from_u64(to), seq, &body);
            m.passed_link = link.map(|(dest, code, channel, dtk)| crate::link::Link {
                dest: ProcessId::from_u64(dest),
                code,
                channel: Channel(channel),
                deliver_to_kernel: dtk == 1,
            });
            let buf = Wire::encode_data(NodeId(src), incarnation, peer_epoch, tseq, &m);
            let wire = Wire::Data {
                src_node: NodeId(src),
                incarnation,
                peer_epoch,
                tseq,
                msg: m,
            };
            proptest::prop_assert_eq!(&buf, &wire.encode_to_vec());
            proptest::prop_assert_eq!(&buf, &wire.encode_to_bytes());
            // The message's own encoding follows the header, byte for byte.
            let Wire::Data { msg, .. } = &wire else { unreachable!() };
            proptest::prop_assert_eq!(Wire::data_message(&buf), msg.encode_to_vec());
        }
    }

    #[test]
    fn encode_quorum_writes_the_quorum_variant_in_one_pass() {
        // Any body with an exact `encoded_len` will do: a message.
        let body = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), 5, b"consensus");
        let wire = Wire::Quorum {
            src_node: NodeId(3),
            group: 7,
            payload: body.encode_to_bytes(),
        };
        let buf = Wire::encode_quorum(NodeId(3), 7, &body);
        assert_eq!(buf, wire.encode_to_vec());
        assert_eq!(buf.ref_count(), 1, "written in place, nothing beside it");
    }

    #[test]
    fn stale_epoch_notice_teaches_a_restarted_sender() {
        // The receiver restarted twice before the sender (re)started, so
        // the sender targets epoch 0 while the receiver is at 2 — the
        // sender was down for every NODE_RESTARTED broadcast. The stale
        // frame must come back as an epoch notice that renumbers the
        // sender's traffic, or the message is dropped forever.
        let (mut a, mut b) = transports();
        b.restart(1);
        b.restart(2);
        let m = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), 1, b"late");
        let out = send_guaranteed(&mut a, SimTime::ZERO, NodeId(2), m.clone());
        let stale = Wire::decode_all(&payload_of(&out)[0]).unwrap();
        let back = on_wire(&mut b, SimTime::from_millis(1), stale);
        // Rejected, not delivered, and not acknowledged.
        assert!(deliveries_of(&back).is_empty());
        assert_eq!(b.stats().stale_epoch.get(), 1);
        let notice = Wire::decode_all(&payload_of(&back)[0]).unwrap();
        assert!(matches!(notice, Wire::EpochNotice { incarnation: 2, .. }));
        // The notice makes the sender renumber and retransmit; the
        // retransmission now lands.
        let resent = on_wire(&mut a, SimTime::from_millis(2), notice);
        let wire = Wire::decode_all(&payload_of(&resent)[0]).unwrap();
        assert!(matches!(wire, Wire::Data { peer_epoch: 2, .. }));
        let delivered = on_wire(&mut b, SimTime::from_millis(3), wire);
        assert_eq!(deliveries_of(&delivered), vec![m]);
        // A duplicate notice is idempotent: nothing to renumber again.
        let dup = Wire::EpochNotice {
            src_node: NodeId(2),
            incarnation: 2,
        };
        let ack = Wire::decode_all(&payload_of(&delivered)[0]).unwrap();
        on_wire(&mut a, SimTime::from_millis(4), ack);
        assert!(payload_of(&on_wire(&mut a, SimTime::from_millis(5), dup)).is_empty());
        assert!(!a.has_unacked());
    }

    #[test]
    fn send_deliver_ack_roundtrip() {
        let (mut a, mut b) = transports();
        let m = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), 1, b"hello");
        let out = send_guaranteed(&mut a, SimTime::ZERO, NodeId(2), m.clone());
        let payloads = payload_of(&out);
        assert_eq!(payloads.len(), 1);
        let wire = Wire::decode_all(&payloads[0]).unwrap();
        let back = on_wire(&mut b, SimTime::from_millis(1), wire);
        assert_eq!(deliveries_of(&back), vec![m]);
        // The ack releases the sender's in-flight slot.
        let ack = Wire::decode_all(&payload_of(&back)[0]).unwrap();
        on_wire(&mut a, SimTime::from_millis(2), ack);
        assert!(!a.has_unacked());
        assert_eq!(a.stats().acked.get(), 1);
    }

    #[test]
    fn stop_and_wait_serializes() {
        let (mut a, _) = transports();
        let m1 = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), 1, b"1");
        let m2 = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), 2, b"2");
        let out1 = send_guaranteed(&mut a, SimTime::ZERO, NodeId(2), m1);
        assert_eq!(payload_of(&out1).len(), 1);
        let out2 = send_guaranteed(&mut a, SimTime::ZERO, NodeId(2), m2);
        // Window 1: the second message waits for the first's ack.
        assert!(payload_of(&out2).is_empty());
    }

    #[test]
    fn channel_meter_tracks_occupancy_and_sojourn() {
        let (mut a, mut b) = transports();
        let m1 = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), 1, b"1");
        let m2 = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), 2, b"2");
        let out = send_guaranteed(&mut a, SimTime::ZERO, NodeId(2), m1);
        send_guaranteed(&mut a, SimTime::ZERO, NodeId(2), m2);
        let meter = meter_to(&a, NodeId(2));
        assert!(meter.busy.is_busy());
        assert_eq!(meter.level.level(), 2);
        // Ack the first at t=10ms: one completes (sojourn 10ms), the
        // second is pumped and stays in flight.
        let wire = Wire::decode_all(&payload_of(&out)[0]).unwrap();
        let back = on_wire(&mut b, SimTime::from_millis(5), wire);
        let ack = Wire::decode_all(&payload_of(&back)[0]).unwrap();
        let out2 = on_wire(&mut a, SimTime::from_millis(10), ack);
        assert_eq!(payload_of(&out2).len(), 1);
        let meter = meter_to(&a, NodeId(2));
        assert_eq!(meter.completed, 1);
        assert!((meter.mean_sojourn_ms() - 10.0).abs() < 1e-9);
        assert_eq!(meter.level.level(), 1);
        assert!(meter.busy.is_busy());
        // Ack the second at t=30ms: channel drains and goes idle.
        let wire2 = Wire::decode_all(&payload_of(&out2)[0]).unwrap();
        let back2 = on_wire(&mut b, SimTime::from_millis(20), wire2);
        let ack2 = Wire::decode_all(&payload_of(&back2)[0]).unwrap();
        on_wire(&mut a, SimTime::from_millis(30), ack2);
        let meter = meter_to(&a, NodeId(2));
        assert_eq!(meter.completed, 2);
        assert!(!meter.busy.is_busy());
        assert_eq!(
            meter.busy.busy_time(SimTime::from_millis(30)),
            SimDuration::from_millis(30)
        );
        // Little's law consistency on this toy run: both messages were
        // accepted at t=0, acked at 10ms and 30ms → W = 20ms mean, and
        // L = λW = (2/30)(20) = 4/3.
        assert!((meter.mean_sojourn_ms() - 20.0).abs() < 1e-9);
        let l = meter
            .level
            .mean_over(SimTime::from_millis(30), SimDuration::from_millis(30));
        let lam = 2.0 / 30.0;
        let w = meter.mean_sojourn_ms();
        assert!((l - lam * w).abs() < 1e-9, "L={l} λW={}", lam * w);
    }

    #[test]
    fn retransmit_until_acked() {
        let (mut a, mut b) = transports();
        let m = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), 1, b"r");
        let out = send_guaranteed(&mut a, SimTime::ZERO, NodeId(2), m.clone());
        let timer = out
            .iter()
            .find_map(|t| match t {
                TAction::SetTimer { at, token } => Some((*at, *token)),
                _ => None,
            })
            .unwrap();
        // First copy "lost": fire the retransmit timer.
        let re = fire(&mut a, timer.0, timer.1);
        assert_eq!(a.stats().retransmits.get(), 1);
        let wire = Wire::decode_all(&payload_of(&re)[0]).unwrap();
        let back = on_wire(&mut b, timer.0, wire);
        assert_eq!(deliveries_of(&back).len(), 1);
    }

    #[test]
    fn duplicate_data_suppressed_but_reacked() {
        let (mut a, mut b) = transports();
        let m = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), 1, b"d");
        let out = send_guaranteed(&mut a, SimTime::ZERO, NodeId(2), m);
        let wire = Wire::decode_all(&payload_of(&out)[0]).unwrap();
        let first = on_wire(&mut b, SimTime::from_millis(1), wire.clone());
        assert_eq!(deliveries_of(&first).len(), 1);
        let second = on_wire(&mut b, SimTime::from_millis(2), wire);
        assert!(deliveries_of(&second).is_empty());
        // But the ack is repeated so the sender unblocks.
        assert_eq!(payload_of(&second).len(), 1);
        assert_eq!(b.stats().duplicates.get(), 1);
    }

    #[test]
    fn windowed_mode_reorders_at_receiver() {
        let cfg = TransportConfig { window: 4 };
        let mut a = Transport::new(NodeId(1), cfg.clone());
        let mut b = Transport::new(NodeId(2), cfg);
        let mut frames = Vec::new();
        for i in 1..=3u64 {
            let m = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), i, &[i as u8]);
            let out = send_guaranteed(&mut a, SimTime::ZERO, NodeId(2), m);
            frames.extend(payload_of(&out));
        }
        assert_eq!(frames.len(), 3, "window 4 admits all three at once");
        // Deliver out of order: 3, 1, 2.
        let w3 = Wire::decode_all(&frames[2]).unwrap();
        let w1 = Wire::decode_all(&frames[0]).unwrap();
        let w2 = Wire::decode_all(&frames[1]).unwrap();
        let d3 = deliveries_of(&on_wire(&mut b, SimTime::from_millis(1), w3));
        assert!(d3.is_empty(), "out-of-order frame held");
        let d1 = deliveries_of(&on_wire(&mut b, SimTime::from_millis(2), w1));
        assert_eq!(d1.len(), 1);
        let d2 = deliveries_of(&on_wire(&mut b, SimTime::from_millis(3), w2));
        assert_eq!(d2.len(), 2, "frame 2 releases buffered frame 3");
        let seqs: Vec<u64> = d1.iter().chain(&d2).map(|m| m.header.id.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn receiver_restart_resets_sender_numbering() {
        let (mut a, mut b) = transports();
        // Deliver one message normally.
        let m1 = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), 1, b"1");
        let out = send_guaranteed(&mut a, SimTime::ZERO, NodeId(2), m1);
        let w = Wire::decode_all(&payload_of(&out)[0]).unwrap();
        let back = on_wire(&mut b, SimTime::from_millis(1), w);
        let ack = Wire::decode_all(&payload_of(&back)[0]).unwrap();
        on_wire(&mut a, SimTime::from_millis(2), ack);
        // Send another; it goes out as tseq 2, then the receiver restarts.
        let m2 = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), 2, b"2");
        let out2 = send_guaranteed(&mut a, SimTime::from_millis(3), NodeId(2), m2.clone());
        b.restart(1);
        let w2 = Wire::decode_all(&payload_of(&out2)[0]).unwrap();
        // Stale epoch: the restarted node ignores it.
        let dropped = on_wire(&mut b, SimTime::from_millis(4), w2);
        assert!(deliveries_of(&dropped).is_empty());
        assert_eq!(b.stats().stale_epoch.get(), 1);
        // The recovery manager tells the sender about the restart.
        let resent = reset_peer(&mut a, SimTime::from_millis(5), NodeId(2), 1);
        let w2b = Wire::decode_all(&payload_of(&resent)[0]).unwrap();
        match &w2b {
            Wire::Data {
                tseq, peer_epoch, ..
            } => {
                assert_eq!(*tseq, 1, "renumbered from 1");
                assert_eq!(*peer_epoch, 1);
            }
            _ => panic!(),
        }
        let delivered = deliveries_of(&on_wire(&mut b, SimTime::from_millis(6), w2b));
        assert_eq!(delivered, vec![m2]);
    }

    #[test]
    fn sender_restart_resets_receiver_expectation() {
        let (mut a, mut b) = transports();
        for i in 1..=2u64 {
            let m = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), i, &[i as u8]);
            let out = send_guaranteed(&mut a, SimTime::ZERO, NodeId(2), m);
            for p in payload_of(&out) {
                let w = Wire::decode_all(&p).unwrap();
                let back = on_wire(&mut b, SimTime::from_millis(i), w);
                for p2 in payload_of(&back) {
                    let ack = Wire::decode_all(&p2).unwrap();
                    on_wire(&mut a, SimTime::from_millis(i), ack);
                }
            }
        }
        // Sender restarts; its numbering starts over at tseq 1.
        a.restart(1);
        let m = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), 3, b"3");
        let out = send_guaranteed(&mut a, SimTime::from_millis(10), NodeId(2), m.clone());
        let w = Wire::decode_all(&payload_of(&out)[0]).unwrap();
        let delivered = deliveries_of(&on_wire(&mut b, SimTime::from_millis(11), w));
        assert_eq!(delivered, vec![m], "receiver accepts the fresh incarnation");
    }

    #[test]
    fn datagram_needs_no_ack() {
        let (mut a, mut b) = transports();
        let m = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), 1, b"dg");
        let out = send_datagram(&mut a, SimTime::ZERO, NodeId(2), m.clone());
        assert!(!out.iter().any(|t| matches!(t, TAction::SetTimer { .. })));
        let w = Wire::decode_all(&payload_of(&out)[0]).unwrap();
        let back = on_wire(&mut b, SimTime::from_millis(1), w);
        assert_eq!(deliveries_of(&back), vec![m]);
        assert!(payload_of(&back).is_empty(), "no ack for datagrams");
        assert!(!a.has_unacked());
    }

    #[test]
    fn stale_timer_after_ack_is_harmless() {
        let (mut a, mut b) = transports();
        let m = msg(ProcessId::new(1, 1), ProcessId::new(2, 1), 1, b"x");
        let out = send_guaranteed(&mut a, SimTime::ZERO, NodeId(2), m);
        let (at, token) = out
            .iter()
            .find_map(|t| match t {
                TAction::SetTimer { at, token } => Some((*at, *token)),
                _ => None,
            })
            .unwrap();
        let w = Wire::decode_all(&payload_of(&out)[0]).unwrap();
        let back = on_wire(&mut b, SimTime::from_millis(1), w);
        let ack = Wire::decode_all(&payload_of(&back)[0]).unwrap();
        on_wire(&mut a, SimTime::from_millis(2), ack);
        // Timer fires after the ack: nothing should be retransmitted.
        let actions = fire(&mut a, at, token);
        assert!(actions.is_empty());
        assert_eq!(a.stats().retransmits.get(), 0);
    }
}
