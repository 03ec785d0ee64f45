//! The control protocol: message codes and payloads exchanged between
//! kernels, the recorder, and the recovery machinery.
//!
//! Control traffic falls in two classes. *Kernel-endpoint* messages are
//! addressed to a node's kernel pseudo-process (local id 0); they carry
//! creation requests, watchdog pings, recovery commands, and recorder
//! notices, and are never published (§4.5's database is "about running
//! processes"). *Process-control* messages (§4.4.3) are addressed to an
//! ordinary process over a DELIVERTOKERNEL link; the destination node's
//! kernel intercepts and executes them while assuming the controlled
//! process's identity — and because they are process-addressed, they are
//! published and replayed "just like all other messages".

use crate::ids::{MessageId, NodeId, ProcessId};
use crate::link::Link;
use crate::message::Message;
use publishing_sim::codec::{CodecError, Decode, Decoder, Encode, Encoder};

/// Message codes used by the control protocol. Application links should
/// use codes below `0x1000`.
pub mod codes {
    /// Request to a kernel endpoint: create a process (body:
    /// [`super::CreateProcess`]).
    pub const CREATE_PROCESS: u32 = 0x1001;
    /// Reply to [`CREATE_PROCESS`] (body: [`super::CreateReply`]).
    pub const CREATE_REPLY: u32 = 0x1002;
    /// Watchdog ping to a kernel endpoint (§4.6).
    pub const ARE_YOU_ALIVE: u32 = 0x1003;
    /// Watchdog reply (body: [`super::AliveReply`]).
    pub const ALIVE_REPLY: u32 = 0x1004;
    /// Recovery: recreate a process (body: [`super::Recreate`], §4.7).
    pub const RECREATE: u32 = 0x1005;
    /// Reply confirming recreation.
    pub const RECREATE_REPLY: u32 = 0x1006;
    /// Recovery: inject one replayed message (body: [`super::Replay`]).
    pub const REPLAY: u32 = 0x1007;
    /// Recovery: stop discarding live traffic; hold it aside.
    pub const PREPARE_FINISH: u32 = 0x1008;
    /// Reply to [`PREPARE_FINISH`].
    pub const PREPARE_FINISH_REPLY: u32 = 0x1009;
    /// Recovery: recovery complete; merge held traffic and run normally.
    pub const COMMIT_FINISH: u32 = 0x100A;
    /// Recorder restart: what state is this process in? (§3.3.4)
    pub const STATE_QUERY: u32 = 0x100B;
    /// Reply to [`STATE_QUERY`] (body: [`super::StateReply`]).
    pub const STATE_REPLY: u32 = 0x100C;
    /// Kernel → recorder: a process was created (body:
    /// [`super::CreatedNotice`]).
    pub const PROCESS_CREATED_NOTICE: u32 = 0x100D;
    /// Kernel → recorder: a process was destroyed.
    pub const PROCESS_DESTROYED_NOTICE: u32 = 0x100E;
    /// Kernel → recorder: a selective receive skipped the queue head
    /// (body: [`super::ReadOrderNotice`], §4.4.2).
    pub const READ_ORDER_NOTICE: u32 = 0x100F;
    /// Kernel → recovery manager: a process crashed (body:
    /// [`super::CrashNotice`], §3.3.2).
    pub const PROCESS_CRASH_NOTICE: u32 = 0x1010;
    /// Recovery manager → all kernels: a node restarted; reset transport
    /// numbering toward it (body: [`super::NodeRestarted`]).
    pub const NODE_RESTARTED: u32 = 0x1011;
    /// Kernel → recorder: a checkpoint of a process (body:
    /// [`super::CheckpointDeposit`]).
    pub const CHECKPOINT_DEPOSIT: u32 = 0x1012;
    /// Recorder → kernel: checkpoint this process now.
    pub const REQUEST_CHECKPOINT: u32 = 0x1013;
    /// Shard tier → all: the shard map changed (a recorder joined, left,
    /// or failed over); body: [`super::ShardCutover`]. Broadcast on the
    /// medium so the cutover itself is part of the published record.
    pub const SHARD_CUTOVER: u32 = 0x1014;

    /// Process-control (DELIVERTOKERNEL): start moving one of the
    /// sender's links to the destination process (body:
    /// [`super::MoveLinkGive`], Figure 4.5).
    pub const MOVELINK_GIVE: u32 = 0x2001;
    /// Process-control: the destination's kernel asks the link's owner to
    /// extract and send it (body: [`super::MoveLinkFetch`]).
    pub const MOVELINK_FETCH: u32 = 0x2002;
    /// Process-control: the link rides in this message's passed-link slot.
    pub const MOVELINK_PUT: u32 = 0x2003;
    /// Kernel-as-process → process: a moved link was installed; body is
    /// the new link id (u32). This is an ordinary published message.
    pub const MOVELINK_DONE: u32 = 0x2004;
    /// Process-control: stop the destination process.
    pub const STOP_PROCESS: u32 = 0x2005;
}

/// Run states reported by [`StateReply`] (§3.3.4's four cases; `Unknown`
/// is reported by omission — the kernel answers for processes it knows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportedState {
    /// Running normally.
    Functioning,
    /// Halted on a detected fault.
    Crashed,
    /// Mid-recovery.
    Recovering,
    /// Not present on this node.
    Unknown,
}

impl ReportedState {
    fn to_u8(self) -> u8 {
        match self {
            ReportedState::Functioning => 0,
            ReportedState::Crashed => 1,
            ReportedState::Recovering => 2,
            ReportedState::Unknown => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, CodecError> {
        Ok(match v {
            0 => ReportedState::Functioning,
            1 => ReportedState::Crashed,
            2 => ReportedState::Recovering,
            3 => ReportedState::Unknown,
            tag => {
                return Err(CodecError::InvalidTag {
                    what: "reported state",
                    tag,
                })
            }
        })
    }
}

/// Body of [`codes::CREATE_PROCESS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateProcess {
    /// Registry name of the program to instantiate.
    pub program_name: String,
    /// Links installed in the new process's table before it starts
    /// (ids 0..n-1), solving the rendezvous problem (§4.2.2.1).
    pub initial_links: Vec<Link>,
    /// Where to send the [`CreateReply`].
    pub reply_to: Option<Link>,
}

impl Encode for CreateProcess {
    fn encode(&self, e: &mut Encoder) {
        e.str(&self.program_name);
        e.seq(&self.initial_links, |e, l| l.encode(e));
        e.option(self.reply_to.as_ref(), |e, l| l.encode(e));
    }
}

impl Decode for CreateProcess {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let program_name = d.str()?;
        let initial_links = d.seq(Link::decode)?;
        let reply_to = d.option(Link::decode)?;
        Ok(CreateProcess {
            program_name,
            initial_links,
            reply_to,
        })
    }
}

/// Body of [`codes::CREATE_REPLY`]; the accompanying passed link is a
/// DELIVERTOKERNEL control link to the new process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreateReply {
    /// The new process's id, or `None` on failure.
    pub pid: Option<ProcessId>,
}

impl Encode for CreateReply {
    fn encode(&self, e: &mut Encoder) {
        e.option(self.pid.as_ref(), |e, p| p.encode(e));
    }
}

impl Decode for CreateReply {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(CreateReply {
            pid: d.option(ProcessId::decode)?,
        })
    }
}

/// Body of [`codes::ALIVE_REPLY`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AliveReply {
    /// The replying node.
    pub node: NodeId,
    /// Its current incarnation.
    pub incarnation: u32,
    /// Echo of the ping's nonce.
    pub nonce: u64,
}

impl Encode for AliveReply {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.node.0).u32(self.incarnation).u64(self.nonce);
    }

    fn encoded_len(&self) -> usize {
        4 + 4 + 8
    }
}

impl Decode for AliveReply {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(AliveReply {
            node: NodeId(d.u32()?),
            incarnation: d.u32()?,
            nonce: d.u64()?,
        })
    }
}

/// Body of [`codes::RECREATE`] (§4.7's recreate request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recreate {
    /// The process to (re)create; destroyed first if present.
    pub pid: ProcessId,
    /// Program to instantiate.
    pub program_name: String,
    /// Encoded [`crate::process::ProcessImage`] to restore from, or
    /// `None` to restart from the initial state.
    pub checkpoint: Option<Vec<u8>>,
    /// Per-destination delivered watermarks: regenerated messages at or
    /// below these sequences are suppressed, not retransmitted (§4.7).
    pub suppress: Vec<(ProcessId, u64)>,
    /// Initial links to reinstall when restarting from the initial state
    /// (ignored when a checkpoint is supplied — the image carries the
    /// link table).
    pub initial_links: Vec<Link>,
}

impl Encode for Recreate {
    fn encode(&self, e: &mut Encoder) {
        self.pid.encode(e);
        e.str(&self.program_name);
        e.option(self.checkpoint.as_ref(), |e, c| {
            e.bytes(c);
        });
        e.seq(&self.suppress, |e, (p, s)| {
            p.encode(e);
            e.u64(*s);
        });
        e.seq(&self.initial_links, |e, l| l.encode(e));
    }
}

impl Decode for Recreate {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let pid = ProcessId::decode(d)?;
        let program_name = d.str()?;
        let checkpoint = d.option(|d| d.bytes())?;
        let suppress = d.seq(|d| {
            let p = ProcessId::decode(d)?;
            let s = d.u64()?;
            Ok((p, s))
        })?;
        let initial_links = d.seq(Link::decode)?;
        Ok(Recreate {
            pid,
            program_name,
            checkpoint,
            suppress,
            initial_links,
        })
    }
}

/// Body of [`codes::REPLAY`]: one published message re-delivered in read
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// The recovering process.
    pub dst: ProcessId,
    /// Position in the read-order stream (0-based).
    pub read_seq: u64,
    /// The original message.
    pub msg: Message,
}

impl Encode for Replay {
    fn encode(&self, e: &mut Encoder) {
        self.dst.encode(e);
        e.u64(self.read_seq);
        self.msg.encode(e);
    }

    fn encoded_len(&self) -> usize {
        8 + 8 + self.msg.encoded_len()
    }
}

impl Decode for Replay {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let dst = ProcessId::decode(d)?;
        let read_seq = d.u64()?;
        let msg = Message::decode(d)?;
        Ok(Replay { dst, read_seq, msg })
    }
}

/// Body of [`codes::STATE_QUERY`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateQuery {
    /// The process asked about.
    pub pid: ProcessId,
    /// The recorder's restart number (§3.4): replies carrying a stale
    /// number are ignored.
    pub restart_number: u64,
}

impl Encode for StateQuery {
    fn encode(&self, e: &mut Encoder) {
        self.pid.encode(e);
        e.u64(self.restart_number);
    }
}

impl Decode for StateQuery {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(StateQuery {
            pid: ProcessId::decode(d)?,
            restart_number: d.u64()?,
        })
    }
}

/// Body of [`codes::STATE_REPLY`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateReply {
    /// The process asked about.
    pub pid: ProcessId,
    /// Its state on the replying node.
    pub state: ReportedState,
    /// Echo of the query's restart number.
    pub restart_number: u64,
}

impl Encode for StateReply {
    fn encode(&self, e: &mut Encoder) {
        self.pid.encode(e);
        e.u8(self.state.to_u8()).u64(self.restart_number);
    }
}

impl Decode for StateReply {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let pid = ProcessId::decode(d)?;
        let state = ReportedState::from_u8(d.u8()?)?;
        let restart_number = d.u64()?;
        Ok(StateReply {
            pid,
            state,
            restart_number,
        })
    }
}

/// Body of [`codes::PROCESS_CREATED_NOTICE`] (§3.3.1: "when a new process
/// is created, the recorder is told the initial state of the process,
/// usually the name of this binary image and any other parameters
/// associated with the process creation" — here, the initial links).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreatedNotice {
    /// The new process.
    pub pid: ProcessId,
    /// Its program (initial-state checkpoint).
    pub program_name: String,
    /// Links installed at creation (part of the initial state).
    pub initial_links: Vec<Link>,
    /// §6.6.1: equipotent/restartable-by-hand processes may opt out of
    /// recovery; the recorder then publishes nothing for them.
    pub recoverable: bool,
}

impl Encode for CreatedNotice {
    fn encode(&self, e: &mut Encoder) {
        self.pid.encode(e);
        e.str(&self.program_name);
        e.seq(&self.initial_links, |e, l| l.encode(e));
        e.bool(self.recoverable);
    }

    fn encoded_len(&self) -> usize {
        // Pid 8, name and link count prefixed 8 each, flag 1.
        let links: usize = self.initial_links.iter().map(Encode::encoded_len).sum();
        8 + 8 + self.program_name.len() + 8 + links + 1
    }
}

impl Decode for CreatedNotice {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(CreatedNotice {
            pid: ProcessId::decode(d)?,
            program_name: d.str()?,
            initial_links: d.seq(Link::decode)?,
            recoverable: d.bool()?,
        })
    }
}

/// Body of [`codes::READ_ORDER_NOTICE`] (§4.4.2: "the id of the message
/// read and the id of the first message in the queue").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOrderNotice {
    /// The reading process.
    pub pid: ProcessId,
    /// Which read this was (0-based read index at the process).
    pub read_index: u64,
    /// The message actually read.
    pub read_id: MessageId,
    /// The queue head that was skipped.
    pub head_id: MessageId,
}

impl Encode for ReadOrderNotice {
    fn encode(&self, e: &mut Encoder) {
        self.pid.encode(e);
        e.u64(self.read_index);
        self.read_id.encode(e);
        self.head_id.encode(e);
    }

    fn encoded_len(&self) -> usize {
        // Pid 8, read index 8, two message ids of 16.
        8 + 8 + 16 + 16
    }
}

impl Decode for ReadOrderNotice {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(ReadOrderNotice {
            pid: ProcessId::decode(d)?,
            read_index: d.u64()?,
            read_id: MessageId::decode(d)?,
            head_id: MessageId::decode(d)?,
        })
    }
}

/// Body of [`codes::PROCESS_CRASH_NOTICE`] (§3.3.2: "a message to the
/// recovery manager containing the error type and process id").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashNotice {
    /// The crashed process.
    pub pid: ProcessId,
    /// Error type (free-form; non-deterministic faults only).
    pub reason: String,
}

impl Encode for CrashNotice {
    fn encode(&self, e: &mut Encoder) {
        self.pid.encode(e);
        e.str(&self.reason);
    }
}

impl Decode for CrashNotice {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(CrashNotice {
            pid: ProcessId::decode(d)?,
            reason: d.str()?,
        })
    }
}

/// Body of [`codes::NODE_RESTARTED`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRestarted {
    /// The restarted node.
    pub node: NodeId,
    /// Its new incarnation.
    pub incarnation: u32,
}

impl Encode for NodeRestarted {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.node.0).u32(self.incarnation);
    }
}

impl Decode for NodeRestarted {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(NodeRestarted {
            node: NodeId(d.u32()?),
            incarnation: d.u32()?,
        })
    }
}

/// Body of [`codes::SHARD_CUTOVER`]: the sharded recorder tier switched
/// to a new map epoch. Kernels need take no action (frame-level ack
/// ownership is enforced by the medium), but the broadcast puts the
/// cutover on the wire where every recorder — and the published log —
/// observes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCutover {
    /// The shard-map epoch now in force.
    pub epoch: u64,
    /// Number of live shards after the change.
    pub live_shards: u32,
}

impl Encode for ShardCutover {
    fn encode(&self, e: &mut Encoder) {
        e.u64(self.epoch).u32(self.live_shards);
    }
}

impl Decode for ShardCutover {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(ShardCutover {
            epoch: d.u64()?,
            live_shards: d.u32()?,
        })
    }
}

/// Body of [`codes::CHECKPOINT_DEPOSIT`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointDeposit {
    /// The checkpointed process.
    pub pid: ProcessId,
    /// Messages read before the image was taken (the replay floor).
    pub read_count: u64,
    /// Encoded [`crate::process::ProcessImage`].
    pub image: Vec<u8>,
}

impl Encode for CheckpointDeposit {
    fn encode(&self, e: &mut Encoder) {
        self.pid.encode(e);
        e.u64(self.read_count);
        e.bytes(&self.image);
    }
}

impl Decode for CheckpointDeposit {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(CheckpointDeposit {
            pid: ProcessId::decode(d)?,
            read_count: d.u64()?,
            image: d.bytes()?,
        })
    }
}

/// Body of [`codes::MOVELINK_GIVE`]: the sender offers one of its links
/// to the destination process (Figure 4.5, first message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveLinkGive {
    /// Index of the link in the *sender's* table.
    pub link_id: u32,
}

impl Encode for MoveLinkGive {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.link_id);
    }
}

impl Decode for MoveLinkGive {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(MoveLinkGive { link_id: d.u32()? })
    }
}

/// Body of [`codes::MOVELINK_FETCH`] (Figure 4.5, second message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveLinkFetch {
    /// Index of the link to extract from the *receiver's* table.
    pub link_id: u32,
}

impl Encode for MoveLinkFetch {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.link_id);
    }
}

impl Decode for MoveLinkFetch {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(MoveLinkFetch { link_id: d.u32()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Channel;

    #[test]
    fn create_process_roundtrip() {
        let c = CreateProcess {
            program_name: "echo".into(),
            initial_links: vec![Link::to(ProcessId::new(1, 2), Channel(0), 7)],
            reply_to: Some(Link::to(ProcessId::new(1, 3), Channel(1), 8)),
        };
        assert_eq!(CreateProcess::decode_all(&c.encode_to_vec()).unwrap(), c);
    }

    #[test]
    fn recreate_roundtrip() {
        let r = Recreate {
            pid: ProcessId::new(2, 4),
            program_name: "worker".into(),
            checkpoint: Some(vec![1, 2, 3]),
            suppress: vec![(ProcessId::new(1, 1), 17), (ProcessId::new(3, 2), 4)],
            initial_links: vec![Link::to(ProcessId::new(9, 9), Channel(2), 3)],
        };
        assert_eq!(Recreate::decode_all(&r.encode_to_vec()).unwrap(), r);
        let fresh = Recreate {
            checkpoint: None,
            suppress: vec![],
            ..r
        };
        assert_eq!(Recreate::decode_all(&fresh.encode_to_vec()).unwrap(), fresh);
    }

    #[test]
    fn replay_roundtrip() {
        use crate::message::MessageHeader;
        let r = Replay {
            dst: ProcessId::new(2, 5),
            read_seq: 42,
            msg: Message {
                header: MessageHeader {
                    id: MessageId {
                        sender: ProcessId::new(1, 1),
                        seq: 3,
                    },
                    to: ProcessId::new(2, 5),
                    code: 9,
                    channel: Channel(1),
                    deliver_to_kernel: false,
                },
                passed_link: None,
                body: vec![5, 5].into(),
            },
        };
        assert_eq!(Replay::decode_all(&r.encode_to_vec()).unwrap(), r);
        assert_eq!(r.encoded_len(), r.encode_to_vec().len());
    }

    #[test]
    fn alive_reply_roundtrip() {
        let a = AliveReply {
            node: NodeId(2),
            incarnation: 3,
            nonce: u64::MAX - 1,
        };
        assert_eq!(AliveReply::decode_all(&a.encode_to_vec()).unwrap(), a);
        assert_eq!(a.encoded_len(), a.encode_to_vec().len());
    }

    #[test]
    fn state_reply_roundtrip_all_states() {
        for state in [
            ReportedState::Functioning,
            ReportedState::Crashed,
            ReportedState::Recovering,
            ReportedState::Unknown,
        ] {
            let s = StateReply {
                pid: ProcessId::new(1, 2),
                state,
                restart_number: 7,
            };
            assert_eq!(StateReply::decode_all(&s.encode_to_vec()).unwrap(), s);
        }
    }

    #[test]
    fn notice_roundtrips() {
        let created = CreatedNotice {
            pid: ProcessId::new(1, 5),
            program_name: "db".into(),
            initial_links: vec![Link::to(ProcessId::new(2, 1), Channel(0), 1)],
            recoverable: true,
        };
        assert_eq!(
            CreatedNotice::decode_all(&created.encode_to_vec()).unwrap(),
            created
        );
        assert_eq!(created.encoded_len(), created.encode_to_vec().len());
        let destroyed = CreatedNotice {
            program_name: String::new(),
            initial_links: Vec::new(),
            ..created
        };
        assert_eq!(destroyed.encoded_len(), destroyed.encode_to_vec().len());

        let read = ReadOrderNotice {
            pid: ProcessId::new(1, 5),
            read_index: 9,
            read_id: MessageId {
                sender: ProcessId::new(2, 2),
                seq: 4,
            },
            head_id: MessageId {
                sender: ProcessId::new(3, 3),
                seq: 1,
            },
        };
        assert_eq!(
            ReadOrderNotice::decode_all(&read.encode_to_vec()).unwrap(),
            read
        );
        assert_eq!(read.encoded_len(), read.encode_to_vec().len());

        let crash = CrashNotice {
            pid: ProcessId::new(2, 2),
            reason: "parity".into(),
        };
        assert_eq!(
            CrashNotice::decode_all(&crash.encode_to_vec()).unwrap(),
            crash
        );

        let restarted = NodeRestarted {
            node: NodeId(3),
            incarnation: 2,
        };
        assert_eq!(
            NodeRestarted::decode_all(&restarted.encode_to_vec()).unwrap(),
            restarted
        );
    }

    #[test]
    fn checkpoint_deposit_roundtrip() {
        let d = CheckpointDeposit {
            pid: ProcessId::new(1, 9),
            read_count: 55,
            image: vec![0; 64],
        };
        assert_eq!(
            CheckpointDeposit::decode_all(&d.encode_to_vec()).unwrap(),
            d
        );
    }

    #[test]
    fn movelink_roundtrips() {
        let g = MoveLinkGive { link_id: 3 };
        assert_eq!(MoveLinkGive::decode_all(&g.encode_to_vec()).unwrap(), g);
        let f = MoveLinkFetch { link_id: 4 };
        assert_eq!(MoveLinkFetch::decode_all(&f.encode_to_vec()).unwrap(), f);
    }

    #[test]
    fn bad_state_tag_rejected() {
        let mut good = StateReply {
            pid: ProcessId::new(1, 1),
            state: ReportedState::Crashed,
            restart_number: 0,
        }
        .encode_to_vec();
        good[8] = 9; // corrupt the state byte (after the 8-byte pid)
        assert!(StateReply::decode_all(&good).is_err());
    }
}
