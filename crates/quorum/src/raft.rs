//! The sans-IO Raft-style consensus core for a recorder group.
//!
//! One `RaftCore` runs inside each replica of a recorder quorum group.
//! It owns the replicated **arrival log**: every committed `Sequence`
//! entry fixes one message's arrival sequence for its destination, so
//! the §3.2 sequencing decision is quorum-durable before any replica
//! publishes the message to its stable store. The core is sans-IO in
//! the same style as the transport and recovery manager: inputs are
//! [`RaftCore::on_msg`], [`RaftCore::tick`] (due at
//! [`RaftCore::deadline`]), and [`RaftCore::propose`] +
//! [`RaftCore::replicate`]; outputs are [`RaftOut`] values appended to a
//! buffer the replica owns and turns into LAN frames, and committed
//! entries come one at a time from [`RaftCore::next_applicable`]. A
//! round allocates its log entries and nothing per output: an Append's
//! entry buffer comes back through [`RaftCore::recycle`] once its frame
//! is encoded.
//!
//! Replication is pipelined and says everything once: an Append moves
//! the follower's `next_index` past what it carries when it is *sent*,
//! so each entry goes to each follower in exactly one Append unless one
//! is lost. A lost Append shows as a refusal of the next one (or of the
//! next heartbeat); the first such refusal rewinds and resends from
//! where the follower's log ends, and the refusals of everything else
//! that was pipelined behind the lost frame are recognised as asking for
//! nothing new. A lost reply costs nothing: the next reply carries the
//! same match index.
//!
//! Durability model, mirroring the paper's recorder (§3.3.4):
//!
//! - **Term and vote** live in a [`DurableCell`] — two-slot NVRAM with
//!   write-through semantics. `persist_hard` returns only when the
//!   record is settled, so a vote message is never emitted before the
//!   vote it promises is durable (election safety holds across crashes).
//! - **The log itself is battery-backed**, the same durability class as
//!   the recorder's pending capture buffer: a replica crash loses no
//!   accepted entries. What a crash *does* lose is volatile apply
//!   progress — the recorder's un-flushed store pages — so a restarted
//!   replica rewinds `applied` to its snapshot floor and re-applies the
//!   committed prefix through the idempotent
//!   `Recorder::apply_sequenced_at` path.
//!
//! Compaction drops applied entries and leans on the recorder's own
//! stable store as the snapshot: a follower too far behind receives a
//! [`QMsg::Snapshot`] whose image is the leader's exported process
//! database (checkpoint images included), not a replay of old entries.

use publishing_demos::message::Message;
use publishing_sim::codec::{CodecError, Decode, Decoder, Encode, Encoder};
use publishing_sim::rng::DetRng;
use publishing_sim::time::{SimDuration, SimTime};
use publishing_stable::cell::DurableCell;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Index of a replica within its group (0-based, stable across crashes).
pub type ReplicaId = u32;

/// Raft role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepting appends from the current leader.
    Follower,
    /// Soliciting votes after an election timeout.
    Candidate,
    /// Sequencing arrivals and replicating the log.
    Leader,
}

/// One operation in the replicated arrival log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A no-op the leader commits on taking office; committing it proves
    /// leadership for the term and pins every earlier entry committed.
    Noop,
    /// Assign `msg` the arrival sequence `seq` at its destination. The
    /// sequence is chosen by the proposing leader and fixed by commit —
    /// every replica applies the identical (destination, seq, message)
    /// triple, which is the §3.2 guarantee made quorum-durable.
    Sequence {
        /// The arrival sequence being assigned.
        seq: u64,
        /// The acknowledged message being published.
        msg: Message,
    },
}

const OP_NOOP: u8 = 1;
const OP_SEQUENCE: u8 = 2;

impl Encode for Op {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Op::Noop => {
                e.u8(OP_NOOP);
            }
            Op::Sequence { seq, msg } => {
                e.u8(OP_SEQUENCE).u64(*seq);
                msg.encode(e);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            Op::Noop => 1,
            Op::Sequence { msg, .. } => 1 + 8 + msg.encoded_len(),
        }
    }
}

impl Decode for Op {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.u8()? {
            OP_NOOP => Ok(Op::Noop),
            OP_SEQUENCE => {
                let seq = d.u64()?;
                let msg = Message::decode(d)?;
                Ok(Op::Sequence { seq, msg })
            }
            tag => Err(CodecError::InvalidTag { what: "op", tag }),
        }
    }
}

/// One replicated log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Term the entry was proposed in.
    pub term: u64,
    /// The operation.
    pub op: Op,
}

impl Encode for LogEntry {
    fn encode(&self, e: &mut Encoder) {
        e.u64(self.term);
        self.op.encode(e);
    }

    fn encoded_len(&self) -> usize {
        8 + self.op.encoded_len()
    }
}

impl Decode for LogEntry {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let term = d.u64()?;
        let op = Op::decode(d)?;
        Ok(LogEntry { term, op })
    }
}

/// A quorum protocol message, carried as the payload of
/// `Wire::Quorum` frames between the group's replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QMsg {
    /// Candidate solicits a vote.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// The candidate.
        candidate: ReplicaId,
        /// Index of the candidate's last log entry.
        last_index: u64,
        /// Term of the candidate's last log entry.
        last_term: u64,
    },
    /// Vote response.
    VoteReply {
        /// Voter's current term.
        term: u64,
        /// The voter.
        from: ReplicaId,
        /// Whether the ballot was granted.
        granted: bool,
    },
    /// Log replication / heartbeat.
    Append {
        /// Leader's term.
        term: u64,
        /// The leader.
        leader: ReplicaId,
        /// Index of the entry preceding `entries`.
        prev_index: u64,
        /// Term of the entry preceding `entries`.
        prev_term: u64,
        /// Entries to append (empty = heartbeat), shared with the
        /// sender's log: building an Append for a follower bumps a
        /// reference count per entry instead of copying message bodies.
        entries: Vec<Arc<LogEntry>>,
        /// Leader's commit index.
        commit: u64,
    },
    /// Append response.
    AppendReply {
        /// Follower's current term.
        term: u64,
        /// The follower.
        from: ReplicaId,
        /// Whether `prev` matched and the entries were accepted.
        ok: bool,
        /// On success: the follower's new match index. On rejection: a
        /// back-off hint (the follower's best guess at where logs agree).
        index: u64,
    },
    /// Full-state catch-up for a follower whose next entry was compacted
    /// away. `image` is the leader's exported process database — the
    /// recorder checkpoint images double as the consensus snapshot.
    Snapshot {
        /// Leader's term.
        term: u64,
        /// The leader.
        leader: ReplicaId,
        /// Log index the snapshot covers through.
        index: u64,
        /// Term of the entry at `index`.
        snap_term: u64,
        /// Encoded `Vec<ProcessExport>` (see `codec` module).
        image: Vec<u8>,
    },
    /// Snapshot installation response.
    SnapshotReply {
        /// Follower's current term.
        term: u64,
        /// The follower.
        from: ReplicaId,
        /// The follower's match index after installation.
        index: u64,
    },
}

const QM_REQUEST_VOTE: u8 = 1;
const QM_VOTE_REPLY: u8 = 2;
const QM_APPEND: u8 = 3;
const QM_APPEND_REPLY: u8 = 4;
const QM_SNAPSHOT: u8 = 5;
const QM_SNAPSHOT_REPLY: u8 = 6;

impl Encode for QMsg {
    fn encode(&self, e: &mut Encoder) {
        match self {
            QMsg::RequestVote {
                term,
                candidate,
                last_index,
                last_term,
            } => {
                e.u8(QM_REQUEST_VOTE)
                    .u64(*term)
                    .u32(*candidate)
                    .u64(*last_index)
                    .u64(*last_term);
            }
            QMsg::VoteReply {
                term,
                from,
                granted,
            } => {
                e.u8(QM_VOTE_REPLY).u64(*term).u32(*from).bool(*granted);
            }
            QMsg::Append {
                term,
                leader,
                prev_index,
                prev_term,
                entries,
                commit,
            } => {
                e.u8(QM_APPEND)
                    .u64(*term)
                    .u32(*leader)
                    .u64(*prev_index)
                    .u64(*prev_term)
                    .u64(*commit)
                    .seq(entries, |e, ent| ent.encode(e));
            }
            QMsg::AppendReply {
                term,
                from,
                ok,
                index,
            } => {
                e.u8(QM_APPEND_REPLY)
                    .u64(*term)
                    .u32(*from)
                    .bool(*ok)
                    .u64(*index);
            }
            QMsg::Snapshot {
                term,
                leader,
                index,
                snap_term,
                image,
            } => {
                e.u8(QM_SNAPSHOT)
                    .u64(*term)
                    .u32(*leader)
                    .u64(*index)
                    .u64(*snap_term)
                    .bytes(image);
            }
            QMsg::SnapshotReply { term, from, index } => {
                e.u8(QM_SNAPSHOT_REPLY).u64(*term).u32(*from).u64(*index);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        // Tag 1, term 8, replica id 4, then the variant's other fields.
        13 + match self {
            QMsg::RequestVote { .. } => 8 + 8,
            QMsg::VoteReply { .. } => 1,
            QMsg::Append { entries, .. } => {
                8 + 8 + 8 + 8 + entries.iter().map(|e| e.encoded_len()).sum::<usize>()
            }
            QMsg::AppendReply { .. } => 1 + 8,
            QMsg::Snapshot { image, .. } => 8 + 8 + 8 + image.len(),
            QMsg::SnapshotReply { .. } => 8,
        }
    }
}

impl Decode for QMsg {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.u8()? {
            QM_REQUEST_VOTE => Ok(QMsg::RequestVote {
                term: d.u64()?,
                candidate: d.u32()?,
                last_index: d.u64()?,
                last_term: d.u64()?,
            }),
            QM_VOTE_REPLY => Ok(QMsg::VoteReply {
                term: d.u64()?,
                from: d.u32()?,
                granted: d.bool()?,
            }),
            QM_APPEND => {
                let term = d.u64()?;
                let leader = d.u32()?;
                let prev_index = d.u64()?;
                let prev_term = d.u64()?;
                let commit = d.u64()?;
                let entries = d.seq(|d| LogEntry::decode(d).map(Arc::new))?;
                Ok(QMsg::Append {
                    term,
                    leader,
                    prev_index,
                    prev_term,
                    entries,
                    commit,
                })
            }
            QM_APPEND_REPLY => Ok(QMsg::AppendReply {
                term: d.u64()?,
                from: d.u32()?,
                ok: d.bool()?,
                index: d.u64()?,
            }),
            QM_SNAPSHOT => Ok(QMsg::Snapshot {
                term: d.u64()?,
                leader: d.u32()?,
                index: d.u64()?,
                snap_term: d.u64()?,
                image: d.bytes()?,
            }),
            QM_SNAPSHOT_REPLY => Ok(QMsg::SnapshotReply {
                term: d.u64()?,
                from: d.u32()?,
                index: d.u64()?,
            }),
            tag => Err(CodecError::InvalidTag { what: "qmsg", tag }),
        }
    }
}

/// An effect the core asks its replica to carry out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaftOut {
    /// Send `msg` to group member `to`.
    Send {
        /// Destination replica.
        to: ReplicaId,
        /// The protocol message.
        msg: QMsg,
    },
    /// A follower's next entry was compacted away: build a snapshot of
    /// the recorder state and hand it back via
    /// [`RaftCore::snapshot_built`].
    NeedSnapshot {
        /// The lagging follower.
        to: ReplicaId,
    },
    /// Install the snapshot image over the local recorder, then call
    /// [`RaftCore::snapshot_installed`].
    ApplySnapshot {
        /// The sending leader.
        leader: ReplicaId,
        /// Log index the snapshot covers through.
        index: u64,
        /// Term of the entry at `index`.
        snap_term: u64,
        /// Encoded `Vec<ProcessExport>`.
        image: Vec<u8>,
    },
    /// This replica won the election for its current term.
    BecameLeader,
    /// This replica lost leadership (saw a higher term).
    SteppedDown,
}

// Consensus pacing, well inside the chaos driver's grace window:
// elections resolve in a few hundred virtual milliseconds.

/// Leader heartbeat interval.
const HEARTBEAT: SimDuration = SimDuration::from_millis(25);
/// Minimum election timeout.
const ELECTION_MIN: SimDuration = SimDuration::from_millis(80);
/// Randomized extra election timeout, in milliseconds.
const ELECTION_JITTER_MS: u64 = 80;
/// Max entries per Append; what exceeds it rides on the reply.
const MAX_BATCH: u64 = 16;
/// Compact applied entries once the log exceeds this length.
const COMPACT_THRESHOLD: usize = 256;

/// Counters the core maintains (observability).
#[derive(Debug, Clone, Default)]
pub struct RaftStats {
    /// Elections this replica started.
    pub elections_started: u64,
    /// Elections this replica won.
    pub elections_won: u64,
    /// Ballots this replica granted.
    pub votes_granted: u64,
    /// Append rejections this replica issued (log repair events).
    pub appends_rejected: u64,
    /// Log entries this replica put into Appends. Fault-free, each
    /// entry goes to each follower once.
    pub entries_sent: u64,
    /// Snapshots this replica shipped to lagging followers.
    pub snapshots_sent: u64,
    /// Times this replica stepped down from leadership.
    pub step_downs: u64,
}

/// The consensus state machine for one replica.
pub struct RaftCore {
    id: ReplicaId,
    n: u32,
    rng: DetRng,
    /// Durable term/vote (two-slot NVRAM cell).
    cell: DurableCell,
    term: u64,
    voted_for: Option<ReplicaId>,
    role: Role,
    leader_hint: Option<ReplicaId>,
    /// `log[i]` holds the entry at index `snap_index + 1 + i` (Raft
    /// indices start at 1; 0 is the empty-log sentinel). Entries are
    /// shared, not copied, with the Appends that replicate them and the
    /// applies that publish them.
    log: Vec<Arc<LogEntry>>,
    snap_index: u64,
    snap_term: u64,
    commit: u64,
    applied: u64,
    /// The first entry not yet *sent* to each follower: an Append moves
    /// it past what it carries without waiting for the reply, so every
    /// entry goes out once and later Appends pipeline behind it. Only a
    /// refusal moves it back.
    next_index: Vec<u64>,
    match_index: Vec<u64>,
    /// Where the last rewind resent each follower from, while that
    /// resend is unanswered. Every Append pipelined behind a lost one is
    /// refused too; only a refusal that asks for something earlier than
    /// this resends again. An acknowledgement that covers it clears it,
    /// and so does each heartbeat — a lost resend is repaired a round
    /// later.
    repair_from: Vec<Option<u64>>,
    /// Emptied entry buffers of Appends already encoded
    /// ([`RaftCore::recycle`]), refilled by the next ones.
    spare: Vec<Vec<Arc<LogEntry>>>,
    votes: BTreeSet<ReplicaId>,
    election_deadline: SimTime,
    heartbeat_due: SimTime,
    stats: RaftStats,
}

impl RaftCore {
    /// Creates the core for replica `id` of an `n`-member group.
    pub fn new(id: ReplicaId, n: u32, seed: u64) -> Self {
        assert!(n >= 1 && id < n, "replica id within group");
        let mut rng = DetRng::new(seed ^ 0x5175_6f72_756d_5261);
        let rng = rng.fork(id as u64);
        RaftCore {
            id,
            n,
            rng,
            cell: DurableCell::new(),
            term: 0,
            voted_for: None,
            role: Role::Follower,
            leader_hint: None,
            log: Vec::new(),
            snap_index: 0,
            snap_term: 0,
            commit: 0,
            applied: 0,
            next_index: vec![1; n as usize],
            match_index: vec![0; n as usize],
            repair_from: vec![None; n as usize],
            spare: Vec::new(),
            votes: BTreeSet::new(),
            election_deadline: SimTime::ZERO,
            heartbeat_due: SimTime::ZERO,
            stats: RaftStats::default(),
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Whether this replica currently leads the group.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Best guess at the current leader.
    pub fn leader_hint(&self) -> Option<ReplicaId> {
        self.leader_hint
    }

    /// Commit index.
    pub fn commit_index(&self) -> u64 {
        self.commit
    }

    /// Applied index.
    pub fn applied_index(&self) -> u64 {
        self.applied
    }

    /// Index of the last log entry.
    pub fn last_index(&self) -> u64 {
        self.snap_index + self.log.len() as u64
    }

    /// The snapshot floor (entries at or below it have been compacted).
    pub fn snap_index(&self) -> u64 {
        self.snap_index
    }

    /// Counters.
    pub fn stats(&self) -> &RaftStats {
        &self.stats
    }

    /// Replication lag of the slowest *tracked* follower, in entries
    /// (leader only; 0 otherwise).
    pub fn worst_follower_lag(&self) -> u64 {
        if self.role != Role::Leader {
            return 0;
        }
        let last = self.last_index();
        (0..self.n as usize)
            .filter(|&p| p != self.id as usize)
            .map(|p| last.saturating_sub(self.match_index[p]))
            .max()
            .unwrap_or(0)
    }

    fn last_term(&self) -> u64 {
        self.log.last().map(|e| e.term).unwrap_or(self.snap_term)
    }

    /// Term of the entry at `index`, if it is still resolvable.
    fn term_at(&self, index: u64) -> Option<u64> {
        if index == self.snap_index {
            Some(self.snap_term)
        } else if index > self.snap_index && index <= self.last_index() {
            Some(self.log[(index - self.snap_index - 1) as usize].term)
        } else {
            None
        }
    }

    fn entry_at(&self, index: u64) -> &Arc<LogEntry> {
        &self.log[(index - self.snap_index - 1) as usize]
    }

    /// Write-through persistence of term/vote: the record is settled
    /// before any message promising it can be emitted, so a crash cannot
    /// tear a vote the rest of the group already counted.
    fn persist_hard(&mut self) {
        let mut e = Encoder::new();
        e.u64(self.term);
        e.option(self.voted_for.as_ref(), |e, v| {
            e.u32(*v);
        });
        self.cell.write(&e.finish());
        self.cell.settle();
    }

    fn load_hard(&mut self) {
        if let Some(buf) = self.cell.read() {
            let mut d = Decoder::new(&buf);
            if let (Ok(term), Ok(vote)) = (d.u64(), d.option(|d| d.u32())) {
                self.term = self.term.max(term);
                if self.term == term {
                    self.voted_for = vote;
                }
            }
        }
    }

    fn reset_election_deadline(&mut self, now: SimTime) {
        let jitter = SimDuration::from_millis(self.rng.below(ELECTION_JITTER_MS));
        self.election_deadline = now + ELECTION_MIN + jitter;
    }

    /// Begins operation (or resumes after [`RaftCore::restart`]).
    pub fn start(&mut self, now: SimTime) {
        self.reset_election_deadline(now);
        self.heartbeat_due = now + HEARTBEAT;
    }

    /// Crash + restart: durable term/vote reload, battery-backed log
    /// kept, volatile apply progress rewound to the snapshot floor so
    /// the committed prefix is re-applied through the idempotent
    /// recorder path.
    pub fn restart(&mut self, now: SimTime) {
        let was_leader = self.role == Role::Leader;
        self.role = Role::Follower;
        self.leader_hint = None;
        self.votes.clear();
        self.load_hard();
        self.applied = self.snap_index;
        self.reset_election_deadline(now);
        if was_leader {
            self.stats.step_downs += 1;
        }
    }

    /// The instant [`RaftCore::tick`] next has something to do: the
    /// heartbeat a leader owes, the election timeout of anyone else.
    pub fn deadline(&self) -> SimTime {
        match self.role {
            Role::Leader => self.heartbeat_due,
            Role::Follower | Role::Candidate => self.election_deadline,
        }
    }

    /// Timer driver: election timeout and leader heartbeats. A call
    /// before [`RaftCore::deadline`] does nothing.
    pub fn tick(&mut self, now: SimTime, out: &mut Vec<RaftOut>) {
        match self.role {
            Role::Leader => {
                if now >= self.heartbeat_due {
                    self.heartbeat_due = now + HEARTBEAT;
                    self.repair_from.fill(None);
                    self.replicate_all(out, true);
                }
            }
            Role::Follower | Role::Candidate => {
                if now >= self.election_deadline {
                    self.start_election(now, out);
                }
            }
        }
    }

    fn start_election(&mut self, now: SimTime, out: &mut Vec<RaftOut>) {
        self.term += 1;
        self.voted_for = Some(self.id);
        self.persist_hard();
        self.role = Role::Candidate;
        self.leader_hint = None;
        self.votes.clear();
        self.votes.insert(self.id);
        self.stats.elections_started += 1;
        self.reset_election_deadline(now);
        if self.has_majority() {
            self.become_leader(now, out);
            return;
        }
        let (last_index, last_term) = (self.last_index(), self.last_term());
        for to in self.peers() {
            out.push(RaftOut::Send {
                to,
                msg: QMsg::RequestVote {
                    term: self.term,
                    candidate: self.id,
                    last_index,
                    last_term,
                },
            });
        }
    }

    fn peers(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        (0..self.n).filter(move |&p| p != self.id)
    }

    fn has_majority(&self) -> bool {
        self.votes.len() as u32 * 2 > self.n
    }

    fn become_leader(&mut self, now: SimTime, out: &mut Vec<RaftOut>) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        self.stats.elections_won += 1;
        let next = self.last_index() + 1;
        self.next_index.fill(next);
        self.match_index.fill(0);
        self.match_index[self.id as usize] = self.last_index();
        self.repair_from.fill(None);
        out.push(RaftOut::BecameLeader);
        // Committing a no-op in the new term proves leadership and pins
        // every inherited entry committed (Raft §5.4.2: a leader may not
        // count replicas for entries from earlier terms directly).
        self.append_local(Op::Noop);
        self.heartbeat_due = now + HEARTBEAT;
        self.replicate_all(out, true);
    }

    fn append_local(&mut self, op: Op) -> u64 {
        self.log.push(Arc::new(LogEntry {
            term: self.term,
            op,
        }));
        let idx = self.last_index();
        self.match_index[self.id as usize] = idx;
        if self.n == 1 {
            self.commit = idx;
        }
        idx
    }

    /// Leader-only: appends `op` to the replicated log. Returns the
    /// entry's index, or `None` if this replica is not the leader (the
    /// caller re-observes and retries via the next leader). Nothing is
    /// sent until [`RaftCore::replicate`], so a backlog proposed
    /// together travels together.
    pub fn propose(&mut self, op: Op) -> Option<u64> {
        (self.role == Role::Leader).then(|| self.append_local(op))
    }

    /// Sends each follower the entries it has not been sent, up to
    /// `MAX_BATCH` in one Append; what exceeds that rides on the reply.
    pub fn replicate(&mut self, out: &mut Vec<RaftOut>) {
        if self.role == Role::Leader {
            self.replicate_all(out, false);
        }
    }

    fn replicate_all(&mut self, out: &mut Vec<RaftOut>, force_empty: bool) {
        for to in 0..self.n {
            if to != self.id {
                self.replicate_one(to, out, force_empty);
            }
        }
    }

    fn replicate_one(&mut self, to: ReplicaId, out: &mut Vec<RaftOut>, force_empty: bool) {
        let next = self.next_index[to as usize];
        if next <= self.snap_index {
            // The entries the follower needs were compacted away: ship
            // the recorder state itself as the snapshot.
            out.push(RaftOut::NeedSnapshot { to });
            return;
        }
        let last = self.last_index();
        if next > last && !force_empty {
            return;
        }
        let prev_index = next - 1;
        let Some(prev_term) = self.term_at(prev_index) else {
            out.push(RaftOut::NeedSnapshot { to });
            return;
        };
        let hi = last.min(prev_index + MAX_BATCH);
        let lo = (next - self.snap_index - 1) as usize;
        let mut entries = self
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(MAX_BATCH as usize));
        entries.extend_from_slice(
            self.log
                .get(lo..(hi - self.snap_index) as usize)
                .unwrap_or_default(),
        );
        self.next_index[to as usize] = hi + 1;
        self.stats.entries_sent += entries.len() as u64;
        out.push(RaftOut::Send {
            to,
            msg: QMsg::Append {
                term: self.term,
                leader: self.id,
                prev_index,
                prev_term,
                entries,
                commit: self.commit,
            },
        });
    }

    /// Hands back the entries of an Append this core sent, once its frame
    /// is encoded: the next Append fills the emptied buffer instead of a
    /// fresh one.
    pub fn recycle(&mut self, mut entries: Vec<Arc<LogEntry>>) {
        entries.clear();
        self.spare.push(entries);
    }

    /// The replica built the snapshot image requested by
    /// [`RaftOut::NeedSnapshot`]; ships it. The snapshot covers the
    /// leader's applied prefix, so the leader compacts to `applied`
    /// first — the image and the floor must agree.
    pub fn snapshot_built(&mut self, to: ReplicaId, image: Vec<u8>, out: &mut Vec<RaftOut>) {
        if self.role != Role::Leader {
            return;
        }
        self.compact_to_applied();
        self.stats.snapshots_sent += 1;
        self.next_index[to as usize] = self.snap_index + 1;
        out.push(RaftOut::Send {
            to,
            msg: QMsg::Snapshot {
                term: self.term,
                leader: self.id,
                index: self.snap_index,
                snap_term: self.snap_term,
                image,
            },
        });
    }

    /// The replica installed a snapshot delivered by
    /// [`RaftOut::ApplySnapshot`]: adopt its floor and acknowledge.
    pub fn snapshot_installed(
        &mut self,
        leader: ReplicaId,
        index: u64,
        snap_term: u64,
        out: &mut Vec<RaftOut>,
    ) {
        if index > self.snap_index {
            self.log.clear();
            self.snap_index = index;
            self.snap_term = snap_term;
            self.commit = self.commit.max(index);
            self.applied = self.applied.max(index);
        }
        out.push(RaftOut::Send {
            to: leader,
            msg: QMsg::SnapshotReply {
                term: self.term,
                from: self.id,
                index: self.snap_index,
            },
        });
    }

    fn compact_to_applied(&mut self) {
        if self.applied <= self.snap_index {
            return;
        }
        let keep = self.applied;
        let term = self.term_at(keep).expect("applied entry resolvable");
        self.log.drain(..(keep - self.snap_index) as usize);
        self.snap_index = keep;
        self.snap_term = term;
    }

    fn maybe_compact(&mut self) {
        if self.log.len() > COMPACT_THRESHOLD && self.applied > self.snap_index {
            self.compact_to_applied();
        }
    }

    fn adopt_term(&mut self, term: u64, out: &mut Vec<RaftOut>) {
        if term <= self.term {
            return;
        }
        let was_leader = self.role == Role::Leader;
        self.term = term;
        self.voted_for = None;
        self.persist_hard();
        self.role = Role::Follower;
        self.votes.clear();
        if was_leader {
            self.stats.step_downs += 1;
            out.push(RaftOut::SteppedDown);
        }
    }

    /// Handles one protocol message from a fellow replica.
    pub fn on_msg(&mut self, now: SimTime, msg: QMsg, out: &mut Vec<RaftOut>) {
        match msg {
            QMsg::RequestVote {
                term,
                candidate,
                last_index,
                last_term,
            } => {
                self.adopt_term(term, out);
                let up_to_date = last_term > self.last_term()
                    || (last_term == self.last_term() && last_index >= self.last_index());
                let can_vote = self.voted_for.is_none() || self.voted_for == Some(candidate);
                let granted = term == self.term && up_to_date && can_vote;
                if granted && self.voted_for != Some(candidate) {
                    self.voted_for = Some(candidate);
                    self.persist_hard();
                }
                if granted {
                    self.stats.votes_granted += 1;
                    self.reset_election_deadline(now);
                }
                out.push(RaftOut::Send {
                    to: candidate,
                    msg: QMsg::VoteReply {
                        term: self.term,
                        from: self.id,
                        granted,
                    },
                });
            }
            QMsg::VoteReply {
                term,
                from,
                granted,
            } => {
                self.adopt_term(term, out);
                if self.role == Role::Candidate && term == self.term && granted {
                    self.votes.insert(from);
                    if self.has_majority() {
                        self.become_leader(now, out);
                    }
                }
            }
            QMsg::Append {
                term,
                leader,
                prev_index,
                prev_term,
                entries,
                commit,
            } => {
                self.adopt_term(term, out);
                if term < self.term {
                    out.push(RaftOut::Send {
                        to: leader,
                        msg: QMsg::AppendReply {
                            term: self.term,
                            from: self.id,
                            ok: false,
                            index: 0,
                        },
                    });
                    return;
                }
                // Same-term candidate yields to the established leader.
                self.role = Role::Follower;
                self.leader_hint = Some(leader);
                self.reset_election_deadline(now);
                self.on_append(leader, prev_index, prev_term, entries, commit, out);
            }
            QMsg::AppendReply {
                term,
                from,
                ok,
                index,
            } => {
                self.adopt_term(term, out);
                if self.role != Role::Leader || term != self.term {
                    return;
                }
                let f = from as usize;
                if ok {
                    self.acknowledged(from, index, out);
                } else {
                    self.stats.appends_rejected += 1;
                    // Back to where the follower says its log ends, but
                    // never to what it has acknowledged.
                    let hinted = (self.next_index[f] - 1).min(index + 1);
                    let rewind = hinted.max(self.match_index[f] + 1);
                    // Refuses an Append whose entries were acknowledged
                    // since, or one sent before a rewind that already
                    // went this far back.
                    let stale = rewind >= self.next_index[f]
                        || self.repair_from[f].is_some_and(|from| rewind >= from);
                    if !stale {
                        self.next_index[f] = rewind;
                        self.repair_from[f] = Some(rewind);
                        self.replicate_one(from, out, true);
                    }
                }
            }
            QMsg::Snapshot {
                term,
                leader,
                index,
                snap_term,
                image,
            } => {
                self.adopt_term(term, out);
                if term < self.term {
                    return;
                }
                self.role = Role::Follower;
                self.leader_hint = Some(leader);
                self.reset_election_deadline(now);
                if index > self.snap_index {
                    out.push(RaftOut::ApplySnapshot {
                        leader,
                        index,
                        snap_term,
                        image,
                    });
                } else {
                    out.push(RaftOut::Send {
                        to: leader,
                        msg: QMsg::SnapshotReply {
                            term: self.term,
                            from: self.id,
                            index: self.snap_index,
                        },
                    });
                }
            }
            QMsg::SnapshotReply { term, from, index } => {
                self.adopt_term(term, out);
                if self.role != Role::Leader || term != self.term {
                    return;
                }
                self.acknowledged(from, index, out);
            }
        }
    }

    /// Follower `from` holds the leader's log through `index`. An
    /// acknowledgement never moves `next_index` back — it may answer an
    /// Append sent long before the latest.
    fn acknowledged(&mut self, from: ReplicaId, index: u64, out: &mut Vec<RaftOut>) {
        let f = from as usize;
        self.match_index[f] = self.match_index[f].max(index);
        self.next_index[f] = self.next_index[f].max(self.match_index[f] + 1);
        if self.repair_from[f].is_some_and(|from| index >= from) {
            self.repair_from[f] = None;
        }
        self.advance_commit();
        if self.next_index[f] <= self.last_index() {
            self.replicate_one(from, out, false);
        }
    }

    fn on_append(
        &mut self,
        leader: ReplicaId,
        mut prev_index: u64,
        mut prev_term: u64,
        mut entries: Vec<Arc<LogEntry>>,
        commit: u64,
        out: &mut Vec<RaftOut>,
    ) {
        // Entries at or below our snapshot floor are already committed
        // and applied here; skip them and anchor at the floor.
        if prev_index < self.snap_index {
            let skip = (self.snap_index - prev_index).min(entries.len() as u64);
            entries.drain(..skip as usize);
            prev_index = self.snap_index;
            prev_term = self.snap_term;
        }
        let reply = |s: &Self, ok: bool, index: u64| QMsg::AppendReply {
            term: s.term,
            from: s.id,
            ok,
            index,
        };
        match self.term_at(prev_index) {
            None => {
                // We don't have prev at all: ask the leader to back off
                // to our last index.
                let hint = self.last_index();
                out.push(RaftOut::Send {
                    to: leader,
                    msg: reply(self, false, hint),
                });
                return;
            }
            Some(t) if t != prev_term => {
                // Conflict at prev: our entry is from a deposed leader.
                let hint = prev_index.saturating_sub(1).max(self.snap_index);
                out.push(RaftOut::Send {
                    to: leader,
                    msg: reply(self, false, hint),
                });
                return;
            }
            Some(_) => {}
        }
        // Append, resolving conflicts in the leader's favor (Raft log
        // matching: a conflicting suffix belongs to a deposed leader and
        // is unacknowledged by definition).
        let mut idx = prev_index;
        for entry in entries {
            idx += 1;
            match self.term_at(idx) {
                Some(t) if t == entry.term => {} // already have it
                Some(_) => {
                    self.log.truncate((idx - self.snap_index - 1) as usize);
                    self.log.push(entry);
                }
                None => self.log.push(entry),
            }
        }
        let match_index = idx;
        if commit > self.commit {
            self.commit = commit.min(self.last_index());
        }
        out.push(RaftOut::Send {
            to: leader,
            msg: reply(self, true, match_index),
        });
    }

    fn advance_commit(&mut self) {
        let last = self.last_index();
        let mut n = last;
        while n > self.commit {
            if self.term_at(n) == Some(self.term) {
                let count = (0..self.n as usize)
                    .filter(|&p| self.match_index[p] >= n)
                    .count() as u32;
                if count * 2 > self.n {
                    self.commit = n;
                    break;
                }
            }
            n -= 1;
        }
    }

    /// The next committed-but-unapplied entry, advancing the applied
    /// cursor; `None` once it reaches the commit index. The caller
    /// applies them to the recorder in order, until `None`; after a
    /// restart this re-yields the committed prefix above the snapshot
    /// floor (application is idempotent).
    pub fn next_applicable(&mut self) -> Option<(u64, Arc<LogEntry>)> {
        if self.applied < self.commit {
            self.applied += 1;
            return Some((self.applied, self.entry_at(self.applied).clone()));
        }
        // Only an apply makes more of the log droppable: compact where a
        // drain ends, never under an entry still being handed out.
        self.maybe_compact();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use publishing_demos::ids::{Channel, MessageId, ProcessId};
    use publishing_demos::message::{Message, MessageHeader};

    fn msg(seq: u64) -> Message {
        Message {
            header: MessageHeader {
                id: MessageId {
                    sender: ProcessId::new(1, 1),
                    seq,
                },
                to: ProcessId::new(2, 1),
                code: 0,
                channel: Channel::DEFAULT,
                deliver_to_kernel: false,
            },
            passed_link: None,
            body: vec![seq as u8].into(),
        }
    }

    /// Perfect-network harness: runs ticks and delivers every Send
    /// in-order until quiescent.
    struct Net {
        cores: Vec<RaftCore>,
        /// Replicas currently partitioned away (drop all their traffic).
        down: Vec<bool>,
        /// Every entry each live replica has applied, in apply order.
        applied: Vec<Vec<(u64, Arc<LogEntry>)>>,
    }

    impl Net {
        fn new(n: u32) -> Self {
            let mut cores: Vec<RaftCore> = (0..n).map(|i| RaftCore::new(i, n, 7)).collect();
            for c in &mut cores {
                c.start(SimTime::ZERO);
            }
            Net {
                cores,
                down: vec![false; n as usize],
                applied: vec![Vec::new(); n as usize],
            }
        }

        fn dispatch(&mut self, now: SimTime, from: ReplicaId, outs: Vec<RaftOut>) {
            let mut queue: Vec<(ReplicaId, ReplicaId, QMsg)> = Vec::new();
            let mut local: Vec<(ReplicaId, RaftOut)> = Vec::new();
            for o in outs {
                match o {
                    RaftOut::Send { to, msg } => queue.push((from, to, msg)),
                    other => local.push((from, other)),
                }
            }
            for (at, o) in local {
                self.handle_local(now, at, o, &mut queue);
            }
            while let Some((src, dst, m)) = queue.pop() {
                if self.down[src as usize] || self.down[dst as usize] {
                    continue;
                }
                let mut outs = Vec::new();
                self.cores[dst as usize].on_msg(now, m, &mut outs);
                for o in outs {
                    match o {
                        RaftOut::Send { to, msg } => queue.push((dst, to, msg)),
                        other => {
                            let mut q2 = Vec::new();
                            self.handle_local(now, dst, other, &mut q2);
                            queue.extend(q2);
                        }
                    }
                }
            }
        }

        fn handle_local(
            &mut self,
            _now: SimTime,
            at: ReplicaId,
            o: RaftOut,
            queue: &mut Vec<(ReplicaId, ReplicaId, QMsg)>,
        ) {
            match o {
                RaftOut::NeedSnapshot { to } => {
                    let mut outs = Vec::new();
                    self.cores[at as usize].snapshot_built(to, Vec::new(), &mut outs);
                    for o in outs {
                        if let RaftOut::Send { to, msg } = o {
                            queue.push((at, to, msg));
                        }
                    }
                }
                RaftOut::ApplySnapshot {
                    leader,
                    index,
                    snap_term,
                    ..
                } => {
                    let mut outs = Vec::new();
                    self.cores[at as usize].snapshot_installed(leader, index, snap_term, &mut outs);
                    for o in outs {
                        if let RaftOut::Send { to, msg } = o {
                            queue.push((at, to, msg));
                        }
                    }
                }
                _ => {}
            }
        }

        fn run(&mut self, from_ms: u64, to_ms: u64) {
            for t in from_ms..to_ms {
                let now = SimTime::from_millis(t);
                for i in 0..self.cores.len() {
                    if self.down[i] {
                        continue;
                    }
                    let outs = tick(&mut self.cores[i], now);
                    self.dispatch(now, i as u32, outs);
                    // A live host applies committed entries promptly.
                    let newly = drain(&mut self.cores[i]);
                    self.applied[i].extend(newly);
                }
            }
        }

        fn leader(&self) -> Option<usize> {
            self.cores.iter().position(|c| c.is_leader())
        }

        /// A settled three-replica group: its leader and two followers.
        fn settled() -> (Self, usize, [usize; 2]) {
            let mut net = Net::new(3);
            net.run(0, 500);
            let l = net.leader().expect("leader");
            let followers = [(l + 1) % 3, (l + 2) % 3];
            (net, l, followers)
        }

        /// Proposes `n` entries of `body_len` bytes on replica `l` and
        /// replicates once; the messages this sends, by destination.
        fn propose(&mut self, l: usize, n: u64, body_len: usize) -> Vec<(ReplicaId, QMsg)> {
            let base = self.cores[l].last_index();
            for i in 0..n {
                let mut m = msg(base + i);
                m.body = vec![0; body_len].into();
                let op = Op::Sequence {
                    seq: base + i,
                    msg: m,
                };
                self.cores[l].propose(op).expect("leader");
            }
            let mut out = Vec::new();
            self.cores[l].replicate(&mut out);
            sends(out)
        }

        /// Hands `m` to replica `to` by itself; what it sends in answer.
        fn deliver(&mut self, to: usize, m: QMsg) -> Vec<(ReplicaId, QMsg)> {
            let mut out = Vec::new();
            self.cores[to].on_msg(NOW, m, &mut out);
            sends(out)
        }

        fn entries_sent(&self) -> u64 {
            self.cores.iter().map(|c| c.stats().entries_sent).sum()
        }
    }

    /// After the 500 ms the harness takes to settle; no timer is due.
    const NOW: SimTime = SimTime::from_millis(501);

    /// What `core`'s timer sends at `now`.
    fn tick(core: &mut RaftCore, now: SimTime) -> Vec<RaftOut> {
        let mut out = Vec::new();
        core.tick(now, &mut out);
        out
    }

    /// Every entry `core`'s cursor yields, through to the `None` that
    /// ends a drain.
    fn drain(core: &mut RaftCore) -> Vec<(u64, Arc<LogEntry>)> {
        std::iter::from_fn(|| core.next_applicable()).collect()
    }

    fn sends(outs: Vec<RaftOut>) -> Vec<(ReplicaId, QMsg)> {
        let sent = |o| match o {
            RaftOut::Send { to, msg } => Some((to, msg)),
            _ => None,
        };
        outs.into_iter().filter_map(sent).collect()
    }

    /// The one message of `sent` addressed to `to`.
    fn only_to(sent: &[(ReplicaId, QMsg)], to: usize) -> QMsg {
        let mut mine = sent.iter().filter(|(dst, _)| *dst as usize == to);
        let (_, m) = mine.next().expect("a message for it");
        assert!(mine.next().is_none(), "one message for {to}: {sent:?}");
        m.clone()
    }

    fn carried(m: &QMsg) -> usize {
        match m {
            QMsg::Append { entries, .. } => entries.len(),
            other => panic!("not an Append: {other:?}"),
        }
    }

    #[test]
    fn fault_free_every_entry_goes_to_every_follower_once() {
        let (mut net, l, _) = Net::settled();
        for round in 0..20u64 {
            // Singles, and backlogs proposed together up to past the
            // per-frame cap.
            let sent = net.propose(l, 1 + round % 18, 8);
            let outs = sent.into_iter().map(|(to, msg)| RaftOut::Send { to, msg });
            net.dispatch(SimTime::from_millis(500 + round), l as u32, outs.collect());
        }
        net.run(520, 700);
        let last = net.cores[l].last_index();
        assert!(last > 150, "{last} entries");
        for c in &net.cores {
            assert_eq!(c.commit_index(), last);
            assert_eq!(c.stats().appends_rejected, 0);
        }
        assert_eq!(net.entries_sent(), last * 2, "entries x followers");
    }

    #[test]
    fn a_dropped_append_is_repaired_by_one_resend() {
        let (mut net, l, [f, _]) = Net::settled();
        let before = net.entries_sent();
        // Five Appends pipelined to `f`; the first never arrives and the
        // four behind it are refused.
        let pipelined: Vec<QMsg> = (0..5).map(|_| only_to(&net.propose(l, 1, 8), f)).collect();
        let mut refusals = Vec::new();
        for m in pipelined.into_iter().skip(1) {
            refusals.push(only_to(&net.deliver(f, m), l));
        }
        let mut resent = Vec::new();
        for refusal in refusals {
            assert!(matches!(refusal, QMsg::AppendReply { ok: false, .. }));
            resent.extend(net.deliver(l, refusal));
        }
        let resend = only_to(&resent, f);
        assert_eq!(carried(&resend), 5, "the lost entry and all behind it");
        assert_eq!(net.cores[l].stats().appends_rejected, 4);
        let ack = only_to(&net.deliver(f, resend), l);
        assert!(net.deliver(l, ack).is_empty());
        assert_eq!(net.cores[f].last_index(), net.cores[l].last_index());
        assert_eq!(net.cores[l].commit_index(), net.cores[l].last_index());
        // 5 entries to each follower, and the 5 resent.
        assert_eq!(net.entries_sent() - before, 15);
    }

    /// Frame time grows with size on the bus, so a small Append sent
    /// just behind a 1 KiB one arrives first.
    #[test]
    fn a_small_append_overtaking_a_large_one_converges() {
        let (mut net, l, [f, _]) = Net::settled();
        for replies_swapped in [false, true] {
            let large = only_to(&net.propose(l, 1, 1024), f);
            let small = only_to(&net.propose(l, 1, 8), f);
            let mut replies = net.deliver(f, small);
            replies.extend(net.deliver(f, large));
            assert!(matches!(replies[0].1, QMsg::AppendReply { ok: false, .. }));
            assert!(matches!(replies[1].1, QMsg::AppendReply { ok: true, .. }));
            if replies_swapped {
                replies.swap(0, 1);
            }
            // Whatever the replies set off runs to quiescence.
            let mut pending: std::collections::VecDeque<_> = replies.into();
            while let Some((to, m)) = pending.pop_front() {
                pending.extend(net.deliver(to as usize, m));
            }
            let last = net.cores[l].last_index();
            assert_eq!(net.cores[f].last_index(), last);
            assert_eq!(net.cores[l].match_index[f], last);
            assert_eq!(net.cores[l].next_index[f], last + 1);
            assert_eq!(net.cores[l].commit_index(), last);
        }
    }

    #[test]
    fn a_lost_reply_stalls_commit_no_longer_than_a_heartbeat() {
        let (mut net, l, [f, other]) = Net::settled();
        // With the other follower away, commit waits on `f`'s replies.
        net.down[other] = true;
        let append = only_to(&net.propose(l, 1, 8), f);
        let last = net.cores[l].last_index();
        let lost_reply = net.deliver(f, append);
        assert_eq!(lost_reply.len(), 1);
        assert_eq!(net.cores[l].commit_index(), last - 1);
        let before = net.entries_sent();
        // The next heartbeat's reply carries the same match index.
        let due = net.cores[l].deadline();
        let heartbeat = only_to(&sends(tick(&mut net.cores[l], due)), f);
        assert_eq!(carried(&heartbeat), 0);
        let ack = only_to(&net.deliver(f, heartbeat), l);
        net.deliver(l, ack);
        assert_eq!(net.cores[l].commit_index(), last);
        assert_eq!(net.entries_sent(), before, "nothing is sent twice");
    }

    #[test]
    fn single_replica_leads_itself() {
        let mut net = Net::new(1);
        net.run(0, 300);
        assert_eq!(net.leader(), Some(0));
        let mut out = Vec::new();
        let idx = net.cores[0].propose(Op::Sequence {
            seq: 0,
            msg: msg(1),
        });
        net.cores[0].replicate(&mut out);
        assert!(idx.is_some());
        assert_eq!(net.cores[0].commit_index(), idx.unwrap());
    }

    #[test]
    fn three_replicas_elect_exactly_one_leader() {
        let mut net = Net::new(3);
        net.run(0, 500);
        let leaders: Vec<_> = net.cores.iter().filter(|c| c.is_leader()).collect();
        assert_eq!(leaders.len(), 1, "exactly one leader");
        // All replicas agree on the term and have committed the no-op.
        let term = leaders[0].term();
        for c in &net.cores {
            assert_eq!(c.term(), term);
            assert!(c.commit_index() >= 1, "no-op committed everywhere");
        }
    }

    #[test]
    fn committed_entries_apply_identically_everywhere() {
        let mut net = Net::new(3);
        net.run(0, 500);
        let l = net.leader().expect("leader");
        for i in 0..10u64 {
            let mut out = Vec::new();
            net.cores[l].propose(Op::Sequence {
                seq: i,
                msg: msg(i + 1),
            });
            net.cores[l].replicate(&mut out);
            net.dispatch(SimTime::from_millis(500 + i), l as u32, out);
        }
        net.run(500, 600);
        // Same committed prefix on every replica, in the same order.
        let applied = &net.applied;
        assert!(applied[0].len() >= 11, "noop + 10 entries");
        assert_eq!(applied[0], applied[1]);
        assert_eq!(applied[1], applied[2]);
    }

    #[test]
    fn leader_failover_resumes_without_losing_committed_entries() {
        let mut net = Net::new(3);
        net.run(0, 500);
        let l = net.leader().expect("leader");
        for i in 0..5u64 {
            let mut out = Vec::new();
            net.cores[l].propose(Op::Sequence {
                seq: i,
                msg: msg(i + 1),
            });
            net.cores[l].replicate(&mut out);
            net.dispatch(SimTime::from_millis(500 + i), l as u32, out);
        }
        net.run(500, 520);
        let committed_before = net.cores[l].commit_index();
        assert!(committed_before >= 6);
        // Partition the leader away; a new one takes over.
        net.down[l] = true;
        net.run(520, 1000);
        let l2 = net
            .cores
            .iter()
            .position(|c| c.is_leader() && c.term() > net.cores[l].term())
            .expect("new leader elected");
        assert_ne!(l2, l);
        // The new leader retained every committed entry.
        assert!(net.cores[l2].last_index() >= committed_before);
        let mut out = Vec::new();
        net.cores[l2].propose(Op::Sequence {
            seq: 100,
            msg: msg(100),
        });
        net.cores[l2].replicate(&mut out);
        net.dispatch(SimTime::from_millis(1000), l2 as u32, out);
        net.run(1000, 1100);
        assert!(net.cores[l2].commit_index() > committed_before);
    }

    #[test]
    fn deposed_leader_suffix_is_overwritten() {
        let mut net = Net::new(3);
        net.run(0, 500);
        let l = net.leader().expect("leader");
        // Leader appends locally while partitioned: these entries are
        // never acknowledged and must be discarded after failover.
        net.down[l] = true;
        let mut sink = Vec::new();
        net.cores[l].propose(Op::Sequence {
            seq: 50,
            msg: msg(50),
        });
        net.cores[l].replicate(&mut sink);
        net.cores[l].propose(Op::Sequence {
            seq: 51,
            msg: msg(51),
        });
        net.cores[l].replicate(&mut sink);
        net.run(500, 1000);
        let l2 = net
            .cores
            .iter()
            .position(|c| c.is_leader())
            .expect("new leader");
        assert_ne!(l2, l);
        let mut out = Vec::new();
        net.cores[l2].propose(Op::Sequence {
            seq: 1,
            msg: msg(60),
        });
        net.cores[l2].replicate(&mut out);
        net.dispatch(SimTime::from_millis(1000), l2 as u32, out);
        net.run(1000, 1050);
        // Heal: the old leader rejoins and its stale suffix is replaced.
        net.down[l] = false;
        net.run(1050, 1400);
        assert!(!net.cores[l].is_leader());
        let healed = drain(&mut net.cores[l]);
        // Every applied entry on the healed replica matches the new
        // leader's log (log matching).
        for (idx, entry) in &healed {
            assert_eq!(net.cores[l2].term_at(*idx), Some(entry.term));
        }
    }

    /// A drain past the compaction threshold, entry by entry: the cursor
    /// yields every committed entry above `applied` in index order (the
    /// entries the log holds, not copies), compacts once, after the last
    /// one, and after a restart yields the committed prefix above the
    /// snapshot floor again.
    #[test]
    fn the_apply_cursor_compacts_where_a_drain_ends() {
        let mut core = RaftCore::new(0, 1, 7);
        core.start(SimTime::ZERO);
        let mut out = Vec::new();
        core.tick(core.deadline(), &mut out);
        assert!(core.is_leader());
        let propose = |core: &mut RaftCore, n: u64| {
            for seq in 0..n {
                core.propose(Op::Sequence { seq, msg: msg(seq) });
            }
        };
        // Committed entries above `applied`, in order: what a drain owes.
        let owed = |core: &RaftCore| -> Vec<(u64, Arc<LogEntry>)> {
            (core.applied_index() + 1..=core.commit_index())
                .map(|i| (i, core.entry_at(i).clone()))
                .collect()
        };
        let same = |a: &[(u64, Arc<LogEntry>)], b: &[(u64, Arc<LogEntry>)]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((i, x), (j, y))| i == j && Arc::ptr_eq(x, y))
        };

        propose(&mut core, COMPACT_THRESHOLD as u64 + 40);
        let expected = owed(&core);
        assert_eq!(expected.len(), COMPACT_THRESHOLD + 41, "the no-op too");
        let mut got = Vec::new();
        while let Some(next) = core.next_applicable() {
            assert_eq!(core.snap_index(), 0, "no compaction inside a drain");
            got.push(next);
        }
        assert!(same(&got, &expected));
        assert_eq!(core.applied_index(), core.commit_index());
        assert_eq!(core.snap_index(), core.applied_index(), "compacted once");
        assert!(core.next_applicable().is_none());
        assert_eq!(core.snap_index(), core.applied_index());

        // Below the threshold: applied, not compacted, so a restart
        // rewinds to the floor and yields these again.
        propose(&mut core, 5);
        let expected = owed(&core);
        assert!(same(&drain(&mut core), &expected));
        let floor = core.snap_index();
        assert_eq!(core.applied_index(), floor + 5);
        core.restart(core.deadline());
        assert_eq!(core.applied_index(), floor);
        assert!(same(&drain(&mut core), &expected));
        assert_eq!(core.snap_index(), floor);
    }

    #[test]
    fn qmsg_codec_roundtrip() {
        let samples = vec![
            QMsg::RequestVote {
                term: 3,
                candidate: 1,
                last_index: 7,
                last_term: 2,
            },
            QMsg::VoteReply {
                term: 3,
                from: 2,
                granted: true,
            },
            QMsg::Append {
                term: 4,
                leader: 0,
                prev_index: 9,
                prev_term: 3,
                entries: vec![
                    Arc::new(LogEntry {
                        term: 4,
                        op: Op::Noop,
                    }),
                    Arc::new(LogEntry {
                        term: 4,
                        op: Op::Sequence {
                            seq: 11,
                            msg: msg(5),
                        },
                    }),
                ],
                commit: 9,
            },
            QMsg::AppendReply {
                term: 4,
                from: 1,
                ok: false,
                index: 6,
            },
            QMsg::Snapshot {
                term: 5,
                leader: 2,
                index: 40,
                snap_term: 4,
                image: vec![9, 8, 7],
            },
            QMsg::SnapshotReply {
                term: 5,
                from: 0,
                index: 40,
            },
        ];
        for m in samples {
            let buf = m.encode_to_vec();
            assert_eq!(QMsg::decode_all(&buf).unwrap(), m);
            assert_eq!(m.encoded_len(), buf.len(), "{m:?}");
        }
    }

    /// `Wire::encode_quorum` writes a length prefix from `encoded_len`
    /// before the body, so it must be exact for every variant.
    #[test]
    fn op_and_entry_encoded_len_is_exact() {
        let mut linked = msg(7);
        linked.passed_link = Some(publishing_demos::link::Link::to(
            ProcessId::new(3, 2),
            Channel(1),
            5,
        ));
        let mut empty = msg(8);
        empty.body = Vec::new().into();
        let ops = [
            Op::Noop,
            Op::Sequence {
                seq: 0,
                msg: msg(1),
            },
            Op::Sequence {
                seq: u64::MAX,
                msg: linked,
            },
            Op::Sequence { seq: 2, msg: empty },
        ];
        for op in ops {
            assert_eq!(op.encoded_len(), op.encode_to_vec().len(), "{op:?}");
            let entry = LogEntry { term: 6, op };
            let buf = entry.encode_to_vec();
            assert_eq!(entry.encoded_len(), buf.len(), "{entry:?}");
            assert_eq!(LogEntry::decode_all(&buf).unwrap(), entry);
        }
    }

    #[test]
    fn compaction_triggers_snapshot_catchup() {
        let mut net = Net::new(3);
        net.run(0, 500);
        let l = net.leader().expect("leader");
        let lagger = (0..3).find(|&i| i != l).unwrap();
        net.down[lagger] = true;
        // Drive the log past the compaction threshold.
        let n = COMPACT_THRESHOLD as u64 + 32;
        for i in 0..n {
            let mut out = Vec::new();
            net.cores[l].propose(Op::Sequence {
                seq: i,
                msg: msg(i + 1),
            });
            net.cores[l].replicate(&mut out);
            net.dispatch(SimTime::from_millis(500 + i), l as u32, out);
        }
        // Run long enough for ticks to compact the applied prefix.
        net.run(500 + n, 900 + n);
        assert!(
            net.cores[l].snap_index() > 0,
            "leader compacted its applied prefix"
        );
        // The lagging replica heals and catches up via snapshot.
        net.down[lagger] = false;
        net.run(900 + n, 1400 + n);
        assert!(
            net.cores[lagger].commit_index() >= net.cores[l].snap_index(),
            "lagger caught up at least to the snapshot floor"
        );
        assert!(
            net.cores[l].stats().snapshots_sent > 0,
            "through a snapshot"
        );
    }
}
