//! The passive recorder (§3.3, §4.5).
//!
//! The recorder overhears every frame on the network. Captured messages
//! sit in a pending buffer until the destination's transport
//! acknowledgement is observed — "it is possible to discover the order in
//! which messages are received at the receiving node by tracing the
//! acknowledgements" (§4.4.1) — at which point the message is assigned
//! its arrival sequence and appended to the stable store. Read-order
//! notices (§4.4.2) pin deviations between arrival order and read order;
//! the *replay stream* for a process is arrival order corrected by pins.
//!
//! A captured message is kept beside its encoding *as it arrived*: the
//! slice of the overheard frame behind the transport header. The
//! encoding is canonical (`publishing-demos` pins it), so when the ack
//! comes that slice is the log record — the recorder never encodes what
//! it overheard, and message body, pending entry and stored record are
//! views of the one buffer the transmission was written into. A record
//! keeps that buffer alive until a checkpoint invalidates it: the
//! transport header (21 bytes) more than the record itself.
//!
//! Captures are numbered as they arrive, so the pending buffer is a
//! [`TokenTable`] indexed by capture number (acks come in near-capture
//! order: its front drains). "Is this id new, captured or published?" is
//! one lookup in one id → state table ([`IdMap`]: message ids are
//! per-sender counters, but kernel senders carry `incarnation << 40`, so
//! they are hashed — keylessly — rather than windowed per sender).
//!
//! Each database entry holds what §4.5 lists: the ids of messages
//! received since the last checkpoint, the latest checkpoint, the highest
//! sequence acknowledged per destination (for resend suppression), and
//! the recovering flag. The entry is a summary of what is on disk: after
//! a recorder crash, [`Recorder::restart`] rebuilds it from the store and
//! the battery-backed buffer (§3.3.4).
//!
//! Every entry point that starts store IO appends it to a buffer its
//! caller owns, in the order it started it (DESIGN §4); the caller must
//! schedule each completion ([`Recorder::on_disk`]).

use crate::recovery_time::RecoveryEstimator;
use publishing_demos::ids::{MessageId, NodeId, ProcessId};
use publishing_demos::message::Message;
use publishing_demos::protocol::{CheckpointDeposit, ReadOrderNotice};
use publishing_obs::span::{MsgKey, SpanLog, Stage};
use publishing_sim::codec::{Bytes, CodecError, Decode, Decoder, Encode, Encoder};
use publishing_sim::ledger::Timeline;
use publishing_sim::stats::{Counter, LinearHistogram};
use publishing_sim::table::{IdMap, TokenTable};
use publishing_sim::time::{SimDuration, SimTime};
use publishing_stable::disk::DiskParams;
use publishing_stable::store::{Checkpoint, RecordKey, StableStore, StoreEvent, StoreIo};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Appends the IO one store call started to the caller's buffer. An
/// empty buffer too small to hold it takes the store's vector whole, so
/// a recorder call allocates no more than the store did.
fn append(ios: &mut Vec<StoreIo>, mut started: Vec<StoreIo>) {
    if ios.is_empty() && ios.capacity() < started.len() {
        *ios = started;
    } else {
        ios.append(&mut started);
    }
}

/// Recorder-side per-message CPU cost, §5.2.2's three operating points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishCost {
    /// The unoptimized DEMOS/MP kernel path: 57 ms per message.
    FullStack,
    /// After inlining the hot path: 12 ms per message.
    Inlined,
    /// Intercepting at the media layer: the 0.8 ms design goal.
    MediaLayer,
}

impl PublishCost {
    /// CPU charged per captured message.
    pub fn per_message(self) -> SimDuration {
        match self {
            PublishCost::FullStack => SimDuration::from_millis(57),
            PublishCost::Inlined => SimDuration::from_millis(12),
            PublishCost::MediaLayer => SimDuration::from_micros(800),
        }
    }
}

/// Recorder-internal checkpoint metadata wrapped around the kernel's
/// process image before it goes to stable storage, so the database can be
/// rebuilt from disk alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct CheckpointMeta {
    program_name: String,
    /// Creation-time links (initial state parameters).
    initial_links: Vec<publishing_demos::link::Link>,
    /// read_count at the checkpoint (replay floor).
    read_floor: u64,
    /// Read-order pins at or above the floor.
    pins: Vec<(u64, MessageId)>,
    /// Arrival seqs consumed before the checkpoint but above the
    /// conservative floor (out-of-order reads not yet GC-able by range).
    consumed_deltas: Vec<u64>,
    /// The kernel's encoded ProcessImage (`None` for the initial
    /// binary-image checkpoint of §3.3.1).
    image: Option<Vec<u8>>,
}

impl Encode for CheckpointMeta {
    fn encode(&self, e: &mut Encoder) {
        e.str(&self.program_name);
        e.seq(&self.initial_links, |e, l| l.encode(e));
        e.u64(self.read_floor);
        e.seq(&self.pins, |e, (idx, id)| {
            e.u64(*idx);
            id.encode(e);
        });
        e.seq(&self.consumed_deltas, |e, s| {
            e.u64(*s);
        });
        e.option(self.image.as_ref(), |e, i| {
            e.bytes(i);
        });
    }
}

impl Decode for CheckpointMeta {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let program_name = d.str()?;
        let initial_links = d.seq(publishing_demos::link::Link::decode)?;
        let read_floor = d.u64()?;
        let pins = d.seq(|d| {
            let idx = d.u64()?;
            let id = MessageId::decode(d)?;
            Ok((idx, id))
        })?;
        let consumed_deltas = d.seq(|d| d.u64())?;
        let image = d.option(|d| d.bytes())?;
        Ok(CheckpointMeta {
            program_name,
            initial_links,
            read_floor,
            pins,
            consumed_deltas,
            image,
        })
    }
}

/// One §4.5 database entry.
#[derive(Debug)]
pub struct ProcessEntry {
    /// The process.
    pub pid: ProcessId,
    /// Binary image name (from the creation notice).
    pub program_name: String,
    /// Creation-time links (from the creation notice).
    pub initial_links: Vec<publishing_demos::link::Link>,
    /// Unconsumed messages in arrival (ack) order: (arrival seq, id).
    pub arrivals: Vec<(u64, MessageId)>,
    /// Read-order pins at absolute read indices (§4.4.2 notices).
    pub pins: BTreeMap<u64, MessageId>,
    /// read_count at the latest durable checkpoint.
    pub read_floor: u64,
    /// Next arrival sequence to assign.
    pub next_arrival_seq: u64,
    /// Highest acknowledged sequence this process sent, per destination —
    /// the §4.7 resend-suppression watermarks.
    pub last_sent: BTreeMap<ProcessId, u64>,
    /// Whether recovery is in progress.
    pub recovering: bool,
    /// §6.6.1: whether this process is recoverable at all; messages for
    /// unrecoverable processes are not published.
    pub recoverable: bool,
    /// Latest durable kernel image (None = initial state only).
    pub checkpoint_image: Option<Vec<u8>>,
    /// Recovery-time accumulators for the checkpoint policy.
    pub estimator: RecoveryEstimator,
    /// Bytes of published messages since the last checkpoint (drives the
    /// §5.1 storage-exceeds-checkpoint policy).
    pub bytes_since_checkpoint: u64,
}

impl ProcessEntry {
    fn new(now: SimTime, pid: ProcessId, program_name: String) -> Self {
        ProcessEntry {
            pid,
            program_name,
            initial_links: Vec::new(),
            arrivals: Vec::new(),
            pins: BTreeMap::new(),
            read_floor: 0,
            next_arrival_seq: 0,
            last_sent: BTreeMap::new(),
            recovering: false,
            recoverable: true,
            checkpoint_image: None,
            estimator: RecoveryEstimator::new(now, 1),
            bytes_since_checkpoint: 0,
        }
    }

    /// The messages this process reads from its checkpoint's read floor
    /// on, in read order.
    fn read_order(&self) -> ReadOrder<'_> {
        ReadOrder {
            arrivals: &self.arrivals,
            pins: &self.pins,
            idx: self.read_floor,
            used: BTreeSet::new(),
            cursor: 0,
        }
    }

    /// Projects which messages the process consumed before a checkpoint
    /// image taken at `read_count`: read indices `[read_floor, read_count)`.
    fn project_checkpoint(&self, read_count: u64) -> CheckpointProjection {
        let reads = read_count.saturating_sub(self.read_floor) as usize;
        let mut consumed: Vec<(u64, MessageId)> = Vec::new();
        for (_, id, seq) in self.read_order().take(reads) {
            // A pinned read may name a message that never arrived here.
            let arrival_seq = || {
                self.arrivals
                    .iter()
                    .find(|(_, aid)| *aid == id)
                    .map(|a| a.0)
            };
            if let Some(seq) = seq.or_else(arrival_seq) {
                consumed.push((seq, id));
            }
        }
        // Conservative floor: first surviving arrival seq.
        let consumed_seqs: BTreeSet<u64> = consumed.iter().map(|(s, _)| *s).collect();
        let floor = self
            .arrivals
            .iter()
            .map(|(s, _)| *s)
            .find(|s| !consumed_seqs.contains(s))
            .unwrap_or(self.next_arrival_seq);
        let deltas = consumed_seqs
            .iter()
            .copied()
            .filter(|s| *s >= floor)
            .collect();
        CheckpointProjection {
            consumed,
            floor,
            deltas,
        }
    }
}

/// The §4.4.2 read order of one process: at each read index the message
/// a notice pinned there, otherwise the earliest arrival no earlier read
/// took. Ends at the first unpinned index with no arrival left.
struct ReadOrder<'a> {
    arrivals: &'a [(u64, MessageId)],
    pins: &'a BTreeMap<u64, MessageId>,
    idx: u64,
    used: BTreeSet<MessageId>,
    /// Every arrival before this position is in `used`; `used` only
    /// grows, so one pass over `arrivals` serves every read index.
    cursor: usize,
}

impl Iterator for ReadOrder<'_> {
    /// `(read index, message, its arrival seq if it came off the arrival
    /// order rather than a pin)`.
    type Item = (u64, MessageId, Option<u64>);

    fn next(&mut self) -> Option<Self::Item> {
        let (id, seq) = match self.pins.get(&self.idx) {
            Some(&id) => (id, None),
            None => {
                while let Some((_, id)) = self.arrivals.get(self.cursor) {
                    if !self.used.contains(id) {
                        break;
                    }
                    self.cursor += 1;
                }
                let &(seq, id) = self.arrivals.get(self.cursor)?;
                (id, Some(seq))
            }
        };
        self.used.insert(id);
        let idx = self.idx;
        self.idx += 1;
        Some((idx, id, seq))
    }
}

/// What a checkpoint consumes, as [`ProcessEntry::project_checkpoint`]
/// computes it.
struct CheckpointProjection {
    /// Consumed messages as (arrival seq, id), in read order.
    consumed: Vec<(u64, MessageId)>,
    /// Conservative floor: the first surviving arrival seq.
    floor: u64,
    /// Consumed arrival seqs at or above the floor, ascending.
    deltas: Vec<u64>,
}

/// Counters the recorder maintains.
#[derive(Debug, Clone)]
pub struct RecorderStats {
    /// Data frames captured into the pending buffer.
    pub captured: Counter,
    /// Messages sequenced (ack observed) and appended to the store.
    pub published: Counter,
    /// Encoded bytes of every sequenced (published) message.
    pub bytes_published: Counter,
    /// Duplicate data/ack observations ignored.
    pub duplicates: Counter,
    /// Acks for messages never captured (lost pending state).
    pub orphan_acks: Counter,
    /// Read-order notices applied.
    pub notices: Counter,
    /// Checkpoints made durable.
    pub checkpoints: Counter,
    /// CPU charged for publishing work.
    pub cpu_used: SimDuration,
    /// Pending-buffer depth sampled after every capture: the queue-depth
    /// distribution the perf observatory summarizes (p50/p95/p99/max).
    pub depth_hist: LinearHistogram,
}

impl Default for RecorderStats {
    fn default() -> Self {
        RecorderStats {
            captured: Counter::default(),
            published: Counter::default(),
            bytes_published: Counter::default(),
            duplicates: Counter::default(),
            orphan_acks: Counter::default(),
            notices: Counter::default(),
            checkpoints: Counter::default(),
            cpu_used: SimDuration::ZERO,
            // One bucket per depth up to 256; deeper samples clamp into
            // the top bucket and the quantile clamps to the observed max.
            depth_hist: LinearHistogram::new(0.0, 256.0, 256),
        }
    }
}

struct PendingDeposit {
    meta: CheckpointMeta,
    consumed: Vec<(u64, MessageId)>,
    pages: u64,
}

/// A predicate over process ids: which destinations this recorder is
/// responsible for. A sharded recorder tier installs one per shard so
/// each recorder tracks only the processes its shard owns.
pub type PidFilter = std::sync::Arc<dyn Fn(ProcessId) -> bool + Send + Sync>;

/// A portable snapshot of one process's published state — the latest
/// durable checkpoint plus every surviving log record and the database
/// entry that summarizes them. Produced by [`Recorder::export_process`]
/// during shard rebalancing and consumed by [`Recorder::import_process`]
/// on the destination shard.
#[derive(Debug, Clone)]
pub struct ProcessExport {
    /// The process being handed off.
    pub pid: ProcessId,
    /// Latest durable checkpoint (pid, floor, metadata blob).
    pub checkpoint: Option<Checkpoint>,
    /// Surviving log records in seq order.
    pub records: Vec<(RecordKey, Bytes)>,
    /// Captured-but-unacknowledged messages for the process, in capture
    /// order (the battery-backed buffer's slice for this destination).
    pub pending: Vec<Message>,
    /// Unconsumed arrivals: (arrival seq, id).
    pub arrivals: Vec<(u64, MessageId)>,
    /// Read-order pins at absolute read indices.
    pub pins: Vec<(u64, MessageId)>,
    /// read_count at the latest durable checkpoint.
    pub read_floor: u64,
    /// Next arrival sequence to assign.
    pub next_arrival_seq: u64,
    /// §4.7 resend-suppression watermarks.
    pub last_sent: Vec<(ProcessId, u64)>,
    /// Whether the process participates in recovery at all.
    pub recoverable: bool,
    /// Binary image name.
    pub program_name: String,
    /// Creation-time links.
    pub initial_links: Vec<publishing_demos::link::Link>,
    /// Latest durable kernel image.
    pub checkpoint_image: Option<Vec<u8>>,
}

/// Where a message id stands with the recorder; an id it has not seen
/// (or has forgotten with its destination) has no entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IdState {
    /// In the pending buffer under this capture number.
    Captured(u64),
    /// Sequenced and appended to the store.
    Published,
}

/// A message in the pending buffer with its canonical encoding — the
/// bytes that become its log record.
struct Captured {
    msg: Message,
    encoded: Bytes,
}

/// The passive recorder: capture pipeline, process database, and stable
/// store.
pub struct Recorder {
    node: NodeId,
    store: StableStore,
    db: BTreeMap<ProcessId, ProcessEntry>,
    /// Captured but not yet acknowledged, in capture order. This buffer is
    /// battery-backed (§3.3.4): a destination may have used and
    /// acknowledged a frame in the instant before a recorder crash, and
    /// "no messages or checkpoints can be lost" — restart drains it into
    /// the streams.
    pending: TokenTable<Captured>,
    /// Every id captured or published. The `Published` half is volatile
    /// (rebuilt from the store on restart); the `Captured` half mirrors
    /// `pending`.
    ids: IdMap<MessageId, IdState>,
    pending_deposits: HashMap<ProcessId, PendingDeposit>,
    restart_number: u64,
    publish_cost: PublishCost,
    /// When set, the recorder only tracks processes the filter accepts
    /// (a shard's slice of the destination space). `None` = track all.
    owner: Option<PidFilter>,
    /// Quorum mode: arrival sequences are assigned by a replicated log
    /// ([`Recorder::apply_sequenced_at`]), never locally — restart must
    /// not drain the pending buffer into self-assigned sequences.
    external_sequencing: bool,
    stats: RecorderStats,
    spans: SpanLog,
    cpu_busy_until: SimTime,
    cpu_timeline: Timeline,
}

impl Recorder {
    /// Creates a recorder on `node` with `n_disks` disks.
    pub fn new(node: NodeId, disk: DiskParams, n_disks: usize, publish_cost: PublishCost) -> Self {
        Recorder {
            node,
            store: StableStore::new(disk, n_disks),
            db: BTreeMap::new(),
            pending: TokenTable::new(),
            ids: IdMap::default(),
            pending_deposits: HashMap::new(),
            restart_number: 0,
            publish_cost,
            owner: None,
            external_sequencing: false,
            stats: RecorderStats::default(),
            spans: SpanLog::default(),
            cpu_busy_until: SimTime::ZERO,
            cpu_timeline: Timeline::new(),
        }
    }

    /// Switches the recorder into quorum mode: arrival sequences are
    /// assigned by the replicated log via
    /// [`Recorder::apply_sequenced_at`], and restart leaves the pending
    /// buffer for the log to publish rather than self-sequencing it.
    pub fn set_external_sequencing(&mut self, on: bool) {
        self.external_sequencing = on;
    }

    /// Installs (or clears) the ownership filter. A sharded tier sets
    /// this to "pid is in my shard's capture set"; the recorder then
    /// ignores traffic, notices, and deposits for other shards' processes.
    pub fn set_ownership_filter(&mut self, owner: Option<PidFilter>) {
        self.owner = owner;
    }

    fn owns(&self, pid: ProcessId) -> bool {
        self.owner.as_ref().map(|f| f(pid)).unwrap_or(true)
    }

    /// Whether traffic for `pid` concerns this recorder at all: a process
    /// (not a kernel) that it owns. Data and acks for anyone else are
    /// dropped on arrival ([`Recorder::on_data`], [`Recorder::on_ack`]).
    pub(crate) fn tracks(&self, pid: ProcessId) -> bool {
        !pid.is_kernel() && self.owns(pid)
    }

    /// Returns the recorder's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Returns the recorder counters.
    pub fn stats(&self) -> &RecorderStats {
        &self.stats
    }

    /// Returns the recorder's message-lifecycle span log (capture,
    /// sequence, and checkpoint events). Like the stats, spans survive a
    /// recorder crash: they model an external observer.
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Mutable access to the span log, for consensus-layer events the
    /// recorder core does not see (election wins) and for capacity /
    /// sampling reconfiguration. Spans never influence behavior, so
    /// callers cannot perturb the run through this.
    pub fn spans_mut(&mut self) -> &mut SpanLog {
        &mut self.spans
    }

    /// Re-bounds the span ring (0 = fingerprint-only mode; the
    /// `obs_overhead` bench prices exactly this switch).
    pub fn set_span_capacity(&mut self, capacity: usize) {
        self.spans.set_capacity(capacity);
    }

    /// Returns the number of captured-but-unsequenced messages in the
    /// battery-backed pending buffer (the shard-health queue depth).
    pub fn pending_depth(&self) -> usize {
        self.pending.len()
    }

    /// Returns the store (for utilization reporting).
    pub fn store(&self) -> &StableStore {
        &self.store
    }

    /// Applies a disk-fault regime (chaos injection) to every disk in
    /// the store. All-default faults turn injection off again.
    pub fn set_disk_faults(&mut self, faults: publishing_stable::disk::DiskFaults) {
        self.store.set_disk_faults(faults);
    }

    /// Returns the current §3.4 restart number.
    pub fn restart_number(&self) -> u64 {
        self.restart_number
    }

    /// Looks up a database entry.
    pub fn entry(&self, pid: ProcessId) -> Option<&ProcessEntry> {
        self.db.get(&pid)
    }

    /// Iterates known process ids.
    pub fn known_pids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.db.keys().copied()
    }

    /// Whether a kernel reported `pid` destroyed ([`Recorder::on_destroyed`]):
    /// a process that is gone on purpose, not lost. The store's
    /// battery-backed tombstone answers, so this survives a crash.
    pub fn destroyed(&self, pid: ProcessId) -> bool {
        self.store.retired(pid.as_u64())
    }

    /// Marks a process as (not) recovering.
    pub fn set_recovering(&mut self, pid: ProcessId, recovering: bool) {
        if let Some(e) = self.db.get_mut(&pid) {
            e.recovering = recovering;
        }
    }

    /// Charges the per-message publishing CPU as a serially occupying
    /// busy span, so the ledger can see when the recorder's processor —
    /// not just how much of it — was consumed.
    fn charge(&mut self, now: SimTime) {
        let c = self.publish_cost.per_message();
        self.stats.cpu_used += c;
        let start = self.cpu_busy_until.max(now);
        self.cpu_busy_until = start + c;
        self.cpu_timeline.add_busy(start, self.cpu_busy_until);
    }

    /// Busy timeline of the recorder's publishing CPU.
    pub fn cpu_timeline(&self) -> &Timeline {
        &self.cpu_timeline
    }

    /// Captures a process-destined data message seen on the wire, with
    /// its encoding as it arrived (`Wire::data_message` of the frame: the
    /// bytes `msg.encode_to_vec()` would produce). Both move into the
    /// capture buffer; a duplicate, a kernel message or one this recorder
    /// does not own is dropped, and nothing is ever copied.
    pub fn on_data(&mut self, now: SimTime, msg: Message, encoded: Bytes) {
        if self.tracks(msg.header.to) {
            self.capture(now, msg, encoded);
        }
    }

    /// [`Recorder::on_data`] for a message whose destination the caller
    /// has just found [tracked](Recorder::tracks): the ownership filter is
    /// asked once per frame.
    pub(crate) fn capture(&mut self, now: SimTime, msg: Message, encoded: Bytes) {
        let id = msg.header.id;
        if self.db.get(&msg.header.to).is_some_and(|e| !e.recoverable) {
            return;
        }
        let Entry::Vacant(state) = self.ids.entry(id) else {
            self.stats.duplicates.inc();
            return;
        };
        let to = msg.header.to.as_u64();
        let cap = self.pending.insert(Captured { msg, encoded });
        state.insert(IdState::Captured(cap));
        self.charge(now);
        self.stats.captured.inc();
        self.spans.record(now, id.into(), Stage::Capture, to, cap);
        self.stats.depth_hist.record(self.pending.len() as f64);
    }

    /// Handles an observed destination acknowledgement: assigns the
    /// message its arrival sequence and publishes it.
    pub fn on_ack(
        &mut self,
        now: SimTime,
        msg_id: MessageId,
        dst_pid: ProcessId,
        ios: &mut Vec<StoreIo>,
    ) {
        if self.tracks(dst_pid) {
            self.publish_acked(now, msg_id, ios);
        }
    }

    /// [`Recorder::on_ack`] for an ack whose destination the caller has
    /// just found [tracked](Recorder::tracks).
    pub(crate) fn publish_acked(
        &mut self,
        now: SimTime,
        msg_id: MessageId,
        ios: &mut Vec<StoreIo>,
    ) {
        let Some(state) = self.ids.get_mut(&msg_id) else {
            self.stats.orphan_acks.inc();
            return;
        };
        let IdState::Captured(cap) = *state else {
            self.stats.duplicates.inc();
            return;
        };
        *state = IdState::Published;
        let Captured { msg, encoded } = self.pending.take(cap).expect("pending indexed");
        self.sequence_message_at(now, None, &msg, encoded, ios);
    }

    /// Looks up a captured-but-unsequenced message by id (the quorum
    /// leader reads these out of the battery-backed buffer to build
    /// replication proposals).
    pub fn pending_message(&self, id: MessageId) -> Option<&Message> {
        match self.ids.get(&id)? {
            IdState::Captured(cap) => self.pending.get(*cap).map(|c| &c.msg),
            IdState::Published => None,
        }
    }

    /// Whether a message id has already been sequenced (published).
    pub fn is_sequenced(&self, id: MessageId) -> bool {
        self.ids.get(&id) == Some(&IdState::Published)
    }

    /// Next arrival sequence the destination would be assigned (0 for an
    /// unknown process). Quorum leaders seed their proposal counters from
    /// this after taking office.
    pub fn next_arrival_seq(&self, pid: ProcessId) -> u64 {
        self.db.get(&pid).map(|e| e.next_arrival_seq).unwrap_or(0)
    }

    /// Publishes a message at a *fixed* arrival sequence decided by the
    /// replicated log (quorum commit path). Idempotent: re-applying an
    /// entry after a crash, or applying one whose store record already
    /// survived, is a no-op — so replaying a committed prefix over a
    /// rebuilt recorder can fill durability gaps without ever double-
    /// assigning a sequence.
    pub fn apply_sequenced_at(
        &mut self,
        now: SimTime,
        seq: u64,
        msg: &Message,
        ios: &mut Vec<StoreIo>,
    ) {
        let id = msg.header.id;
        let dst = msg.header.to;
        if !self.tracks(dst) {
            return;
        }
        let state = self.ids.get(&id).copied();
        // Published already, or the slot is occupied (rebuilt from a
        // durable record whose id matches under log matching).
        if state == Some(IdState::Published)
            || self
                .db
                .get(&dst)
                .is_some_and(|e| e.arrivals.iter().any(|&(s, _)| s == seq))
        {
            self.stats.duplicates.inc();
            return;
        }
        // Every replica overhears the frame, so the bytes are usually in
        // the capture buffer already; a replica that missed it (it was
        // down, or catching up) encodes the committed entry instead.
        let captured = match state {
            Some(IdState::Captured(cap)) => self.pending.take(cap),
            _ => None,
        };
        let encoded = captured.map_or_else(|| msg.encode_to_bytes(), |c| c.encoded);
        self.ids.insert(id, IdState::Published);
        self.sequence_message_at(now, Some(seq), msg, encoded, ios);
    }

    /// Publishes `msg`, whose id the caller has marked
    /// [`IdState::Published`], at `fixed_seq` (quorum commit) or at the
    /// entry's next arrival sequence (standalone recorder), and appends
    /// `encoded` — its canonical encoding — to the stable store.
    fn sequence_message_at(
        &mut self,
        now: SimTime,
        fixed_seq: Option<u64>,
        msg: &Message,
        encoded: Bytes,
        ios: &mut Vec<StoreIo>,
    ) {
        let msg_id = msg.header.id;
        let dst_pid = msg.header.to;
        let len = encoded.len();
        let entry = self
            .db
            .entry(dst_pid)
            .or_insert_with(|| ProcessEntry::new(now, dst_pid, String::new()));
        let seq = match fixed_seq {
            Some(s) => {
                entry.next_arrival_seq = entry.next_arrival_seq.max(s + 1);
                s
            }
            None => {
                let s = entry.next_arrival_seq;
                entry.next_arrival_seq += 1;
                s
            }
        };
        // Keep arrivals sorted by seq: a quorum re-apply can commit a seq
        // below records already rebuilt from the durable store.
        match entry.arrivals.binary_search_by_key(&seq, |&(s, _)| s) {
            Ok(_) => {}
            Err(pos) => entry.arrivals.insert(pos, (seq, msg_id)),
        }
        entry.estimator.on_message(len);
        entry.bytes_since_checkpoint += len as u64;
        self.spans
            .record(now, msg_id.into(), Stage::Sequence, dst_pid.as_u64(), seq);
        // Track the sender's delivered watermark toward this destination.
        // Under sharding the sender may belong to another shard; skip it
        // rather than grow an entry we don't own. Under-suppression is the
        // safe direction: receivers deduplicate resent messages.
        let sender = msg_id.sender;
        if !sender.is_kernel() && self.owns(sender) {
            let se = self
                .db
                .entry(sender)
                .or_insert_with(|| ProcessEntry::new(now, sender, String::new()));
            let w = se.last_sent.entry(dst_pid).or_insert(0);
            *w = (*w).max(msg_id.seq);
        }
        self.stats.published.inc();
        self.stats.bytes_published.add(len as u64);
        let key = RecordKey {
            pid: dst_pid.as_u64(),
            seq,
        };
        append(ios, self.store.append_message(now, key, encoded));
    }

    /// Handles a creation notice: registers the process and writes its
    /// initial (binary image) checkpoint (§3.3.1).
    pub fn on_created(
        &mut self,
        now: SimTime,
        pid: ProcessId,
        program_name: &str,
        initial_links: Vec<publishing_demos::link::Link>,
        recoverable: bool,
        ios: &mut Vec<StoreIo>,
    ) {
        if !self.owns(pid) {
            return;
        }
        let entry = self
            .db
            .entry(pid)
            .or_insert_with(|| ProcessEntry::new(now, pid, program_name.to_string()));
        entry.program_name = program_name.to_string();
        entry.initial_links = initial_links.clone();
        entry.recoverable = recoverable;
        if !recoverable {
            // §6.6.1: "If we do not publish messages for these processes,
            // we may greatly increase the capability of the recorder."
            // No initial checkpoint either; a crash is final.
            return;
        }
        let meta = CheckpointMeta {
            program_name: program_name.to_string(),
            initial_links,
            read_floor: 0,
            pins: Vec::new(),
            consumed_deltas: Vec::new(),
            image: None,
        };
        self.pending_deposits.insert(
            pid,
            PendingDeposit {
                meta: meta.clone(),
                consumed: Vec::new(),
                pages: 1,
            },
        );
        let blob = meta.encode_to_vec();
        let checkpoint = Checkpoint {
            pid: pid.as_u64(),
            upto_seq: 0,
            blob,
        };
        append(ios, self.store.write_checkpoint(now, checkpoint));
    }

    /// Handles a destruction notice: drops the process's volatile state
    /// and retires it in the store ([`StableStore::retire_process`]), so
    /// no restart lists it again. Kernels never reuse a local id, so a
    /// destroyed pid never comes back.
    pub fn on_destroyed(&mut self, now: SimTime, pid: ProcessId, ios: &mut Vec<StoreIo>) {
        self.drop_volatile(pid);
        append(ios, self.store.retire_process(now, pid.as_u64()));
    }

    /// Drops every trace of `pid` — database entry, pending captures,
    /// stored records — without recording it destroyed: the source side
    /// of a shard handoff, whose process may come back to this recorder
    /// under the same keys ([`StableStore::purge_process`]).
    pub fn forget(&mut self, now: SimTime, pid: ProcessId, ios: &mut Vec<StoreIo>) {
        self.drop_volatile(pid);
        append(ios, self.store.purge_process(now, pid.as_u64()));
    }

    /// Drops `pid`'s database entry, pending captures and deposit.
    fn drop_volatile(&mut self, pid: ProcessId) {
        if let Some(e) = self.db.remove(&pid) {
            for (_, id) in &e.arrivals {
                self.ids.remove(id);
            }
        }
        // Drop not-yet-acknowledged captures for the process too (the
        // buffer holds only what is in flight: a short window).
        let stale: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, c)| c.msg.header.to == pid)
            .map(|(cap, _)| cap)
            .collect();
        for cap in stale {
            let id = self.pending.take(cap).expect("listed").msg.header.id;
            // An imported arrival may have published the id since.
            if self.ids.get(&id) == Some(&IdState::Captured(cap)) {
                self.ids.remove(&id);
            }
        }
        self.pending_deposits.remove(&pid);
    }

    /// Snapshots one process's published state for a shard handoff:
    /// the latest durable checkpoint, every surviving log record, and the
    /// database entry. Read-only; pair with [`Recorder::forget`] on the
    /// source once the destination has imported.
    pub fn export_process(&self, pid: ProcessId) -> Option<ProcessExport> {
        let entry = self.db.get(&pid)?;
        let packed = pid.as_u64();
        let records = self
            .store
            .messages_from(packed, 0)
            .into_iter()
            .map(|rec| (rec.key, rec.payload.clone()))
            .collect();
        let pending = self
            .pending
            .iter()
            .filter(|(_, c)| c.msg.header.to == pid)
            .map(|(_, c)| c.msg.clone())
            .collect();
        Some(ProcessExport {
            pid,
            checkpoint: self.store.latest_checkpoint(packed).cloned(),
            records,
            pending,
            arrivals: entry.arrivals.clone(),
            pins: entry.pins.iter().map(|(i, id)| (*i, *id)).collect(),
            read_floor: entry.read_floor,
            next_arrival_seq: entry.next_arrival_seq,
            last_sent: entry.last_sent.iter().map(|(d, s)| (*d, *s)).collect(),
            recoverable: entry.recoverable,
            program_name: entry.program_name.clone(),
            initial_links: entry.initial_links.clone(),
            checkpoint_image: entry.checkpoint_image.clone(),
        })
    }

    /// Installs an exported process on this recorder: replays the
    /// checkpoint and log records into the stable store and rebuilds the
    /// database entry. This shard's ownership filter must already accept
    /// the process, or subsequent traffic for it will be dropped.
    pub fn import_process(&mut self, now: SimTime, export: ProcessExport, ios: &mut Vec<StoreIo>) {
        if let Some(cp) = export.checkpoint.clone() {
            append(ios, self.store.write_checkpoint(now, cp));
        }
        for (key, payload) in &export.records {
            // A restarted quorum replica keeps its battery-backed records
            // and then installs a leader snapshot covering the same
            // sequences; under log matching they are the same bytes.
            if !self.store.holds(*key) {
                append(ios, self.store.append_message(now, *key, payload.clone()));
            }
        }
        let mut entry = ProcessEntry::new(now, export.pid, export.program_name.clone());
        entry.initial_links = export.initial_links;
        entry.arrivals = export.arrivals;
        entry.pins = export.pins.into_iter().collect();
        entry.read_floor = export.read_floor;
        entry.next_arrival_seq = export.next_arrival_seq;
        entry.last_sent = export.last_sent.into_iter().collect();
        entry.recoverable = export.recoverable;
        entry.checkpoint_image = export.checkpoint_image;
        for (_, id) in &entry.arrivals {
            self.ids.insert(*id, IdState::Published);
        }
        self.db.insert(export.pid, entry);
        for msg in export.pending {
            if let Entry::Vacant(state) = self.ids.entry(msg.header.id) {
                let encoded = msg.encode_to_bytes();
                let cap = self.pending.insert(Captured { msg, encoded });
                state.insert(IdState::Captured(cap));
            }
        }
    }

    /// Applies a §4.4.2 read-order notice.
    pub fn on_read_order(&mut self, now: SimTime, n: &ReadOrderNotice) {
        if !self.owns(n.pid) {
            return;
        }
        let entry = self
            .db
            .entry(n.pid)
            .or_insert_with(|| ProcessEntry::new(now, n.pid, String::new()));
        entry.pins.insert(n.read_index, n.read_id);
        self.stats.notices.inc();
    }

    /// Handles a checkpoint deposit from a node kernel.
    pub fn on_deposit(&mut self, now: SimTime, d: &CheckpointDeposit, ios: &mut Vec<StoreIo>) {
        if !self.owns(d.pid) {
            return;
        }
        let Some(entry) = self.db.get_mut(&d.pid) else {
            return;
        };
        if self.pending_deposits.contains_key(&d.pid) {
            // One checkpoint in flight at a time; drop extras.
            return;
        }
        let CheckpointProjection {
            consumed,
            floor,
            deltas,
        } = entry.project_checkpoint(d.read_count);
        let pins: Vec<(u64, MessageId)> = entry
            .pins
            .iter()
            .filter(|(idx, _)| **idx >= d.read_count)
            .map(|(i, id)| (*i, *id))
            .collect();
        let meta = CheckpointMeta {
            program_name: entry.program_name.clone(),
            initial_links: entry.initial_links.clone(),
            read_floor: d.read_count,
            pins,
            consumed_deltas: deltas,
            image: Some(d.image.clone()),
        };
        let blob = meta.encode_to_vec();
        let pages = (blob.len() as u64).div_ceil(4096).max(1);
        self.pending_deposits.insert(
            d.pid,
            PendingDeposit {
                meta,
                consumed,
                pages,
            },
        );
        let checkpoint = Checkpoint {
            pid: d.pid.as_u64(),
            upto_seq: floor,
            blob,
        };
        append(ios, self.store.write_checkpoint(now, checkpoint));
    }

    /// Completes a disk IO, appending the IO it starts in turn; returns
    /// the processes whose checkpoint became durable, so the checkpoint
    /// policy can observe them.
    pub fn on_disk(&mut self, now: SimTime, io: StoreIo, ios: &mut Vec<StoreIo>) -> Vec<ProcessId> {
        let mut durable = Vec::new();
        for ev in self.store.on_disk_complete(now, io) {
            match ev {
                StoreEvent::CheckpointDurable { pid, .. } => {
                    let pid = ProcessId::from_u64(pid);
                    self.apply_durable_checkpoint(now, pid, ios);
                    durable.push(pid);
                }
                StoreEvent::FollowUpIo(io) => ios.push(io),
                _ => {}
            }
        }
        durable
    }

    fn apply_durable_checkpoint(&mut self, now: SimTime, pid: ProcessId, ios: &mut Vec<StoreIo>) {
        let Some(dep) = self.pending_deposits.remove(&pid) else {
            return;
        };
        let Some(entry) = self.db.get_mut(&pid) else {
            return;
        };
        // Precisely invalidate consumed records above the conservative
        // floor (the store already invalidated everything below it).
        let consumed_ids: BTreeSet<MessageId> = dep.consumed.iter().map(|(_, id)| *id).collect();
        for &(seq, _) in &dep.consumed {
            let key = RecordKey {
                pid: pid.as_u64(),
                seq,
            };
            append(ios, self.store.invalidate_record(now, key));
        }
        entry.arrivals.retain(|(_, id)| !consumed_ids.contains(id));
        entry.read_floor = dep.meta.read_floor;
        entry.pins.retain(|idx, _| *idx >= dep.meta.read_floor);
        entry.checkpoint_image = dep.meta.image.clone();
        entry.estimator.on_checkpoint(now, dep.pages);
        entry.bytes_since_checkpoint = 0;
        self.stats.checkpoints.inc();
        let floor = dep.meta.read_floor;
        self.spans.record(
            now,
            MsgKey {
                sender: pid.as_u64(),
                seq: floor,
            },
            Stage::Checkpoint,
            pid.as_u64(),
            floor,
        );
    }

    /// Computes the replay stream for `pid`: the messages it must be fed,
    /// in read order, starting at its checkpoint's read floor.
    pub fn replay_stream(&self, pid: ProcessId) -> Vec<(u64, Message)> {
        let Some(entry) = self.db.get(&pid) else {
            return Vec::new();
        };
        // Message contents by id, from the store (bodies view the
        // records' bytes).
        let mut by_id: HashMap<MessageId, Message> = HashMap::new();
        for rec in self.store.messages_from(pid.as_u64(), 0) {
            if let Ok(msg) = Message::decode_shared(&rec.payload) {
                by_id.insert(msg.header.id, msg);
            }
        }
        let mut out = Vec::new();
        for (idx, id, _) in entry.read_order() {
            match by_id.get(&id) {
                Some(msg) => out.push((idx, msg.clone())),
                None => break,
            }
        }
        out
    }

    /// The §4.7 suppression vector for a recovering process: per
    /// destination, the highest sequence known delivered.
    pub fn suppress_vector(&self, pid: ProcessId) -> Vec<(ProcessId, u64)> {
        self.db
            .get(&pid)
            .map(|e| e.last_sent.iter().map(|(d, s)| (*d, *s)).collect())
            .unwrap_or_default()
    }

    /// Returns the latest durable kernel image for `pid`, if any.
    pub fn checkpoint_image(&self, pid: ProcessId) -> Option<&[u8]> {
        self.db
            .get(&pid)
            .and_then(|e| e.checkpoint_image.as_deref())
    }

    /// Models a recorder crash: volatile state (pending buffer, sequenced
    /// set, database) is lost; the store and its battery-backed buffer
    /// survive.
    pub fn crash(&mut self) {
        // The pending capture buffer is battery-backed and survives, and
        // with it the captured half of the id table.
        self.ids.clear();
        for (cap, c) in self.pending.iter() {
            self.ids.insert(c.msg.header.id, IdState::Captured(cap));
        }
        self.db.clear();
        self.pending_deposits.clear();
        self.store.crash_volatile_state();
    }

    /// Restarts after a crash (§3.3.4): bumps the restart number and
    /// rebuilds the database from stable storage, appending the IO that
    /// starts. Returns the process ids whose state must be queried.
    pub fn restart(&mut self, now: SimTime, ios: &mut Vec<StoreIo>) -> Vec<ProcessId> {
        self.restart_number += 1;
        self.crash();
        // Sender watermarks from surviving records, applied once every
        // entry exists (a lower bound, which is the safe direction:
        // under-suppression is deduplicated by receivers).
        let mut watermarks: Vec<(ProcessId, ProcessId, u64)> = Vec::new();
        for packed in self.store.rebuild_index() {
            let pid = ProcessId::from_u64(packed);
            // Metadata from the latest durable checkpoint. A pid can
            // surface with log records but no checkpoint when the crash
            // destroyed its in-flight initial checkpoint write while acked
            // messages survived in the battery-backed buffer. Rebuild its
            // sequencing state anyway — the kernel's re-announcement will
            // restore the metadata — so the process is never re-assigned
            // an arrival sequence its surviving records already use.
            let meta = self
                .store
                .latest_checkpoint(packed)
                .and_then(|cp| CheckpointMeta::decode_all(&cp.blob).ok())
                .unwrap_or_default();
            let mut entry = ProcessEntry::new(now, pid, meta.program_name.clone());
            entry.initial_links = meta.initial_links.clone();
            entry.read_floor = meta.read_floor;
            entry.pins = meta.pins.iter().copied().collect();
            entry.checkpoint_image = meta.image.clone();
            let deltas: BTreeSet<u64> = meta.consumed_deltas.iter().copied().collect();
            for rec in self.store.messages_from(packed, 0) {
                if deltas.contains(&rec.key.seq) {
                    append(ios, self.store.invalidate_record(now, rec.key));
                    continue;
                }
                if let Ok(msg) = Message::decode_all(&rec.payload) {
                    let id = msg.header.id;
                    entry.arrivals.push((rec.key.seq, id));
                    entry.next_arrival_seq = entry.next_arrival_seq.max(rec.key.seq + 1);
                    self.ids.insert(id, IdState::Published);
                    if !id.sender.is_kernel() {
                        watermarks.push((id.sender, pid, id.seq));
                    }
                }
            }
            self.db.insert(pid, entry);
        }
        for (sender, dst, seq) in watermarks {
            if let Some(se) = self.db.get_mut(&sender) {
                let w = se.last_sent.entry(dst).or_insert(0);
                *w = (*w).max(seq);
            }
        }
        // Drain the battery-backed pending buffer: a destination may have
        // used (and acknowledged) a captured message in the instant before
        // the crash; its ack observation died with our volatile state, and
        // nobody will retransmit an acknowledged message. Sequence every
        // survivor now, in capture order, so nothing is lost. Messages
        // whose destination never actually received them are simply
        // delivered on the destination's next recovery — the reliable-
        // message guarantee.
        if self.external_sequencing {
            // Quorum mode: arrival sequences come only from the
            // replicated log. Survivors stay in the battery-backed
            // buffer until a committed entry publishes them (or a
            // committed entry already did — drop those).
            let published: Vec<u64> = self
                .pending
                .iter()
                .filter(|(_, c)| self.ids.get(&c.msg.header.id) == Some(&IdState::Published))
                .map(|(cap, _)| cap)
                .collect();
            for cap in published {
                self.pending.take(cap);
            }
        } else {
            let drained: Vec<Captured> = self.pending.drain().collect();
            for Captured { msg, encoded } in drained {
                let id = msg.header.id;
                if self.ids.get(&id) == Some(&IdState::Published) {
                    continue;
                }
                // No longer captured either way: published now, or
                // dropped with a destination nobody knows.
                if self.db.contains_key(&msg.header.to) {
                    self.ids.insert(id, IdState::Published);
                    self.sequence_message_at(now, None, &msg, encoded, ios);
                } else {
                    self.ids.remove(&id);
                }
            }
        }
        self.db.keys().copied().collect()
    }

    /// Background maintenance: compacts one partially-invalid page (§4.5:
    /// "before allocating a buffer to a disk page, the disk page is read
    /// in … and the buffer is compacted"). The recorder node calls this
    /// from its policy tick.
    pub fn maintain(&mut self, now: SimTime, ios: &mut Vec<StoreIo>) {
        append(ios, self.store.compact_one(now));
    }

    /// Whether every entry's latest checkpoint is at or after `since`.
    /// [`Recorder::restart`] rebuilds each entry as checkpointed at the
    /// restart instant, so after a restart at `since` this holds at once,
    /// and a tier that polls it readmits the recorder one event later.
    /// §6.3's catch-up (every process checkpointed again) is stricter.
    pub fn caught_up(&self, since: SimTime) -> bool {
        self.db.values().all(|e| e.estimator.checkpoint_at >= since)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use publishing_demos::ids::Channel;
    use publishing_demos::message::MessageHeader;

    fn pid(n: u32, l: u32) -> ProcessId {
        ProcessId::new(n, l)
    }

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
            body: body.to_vec().into(),
        }
    }

    /// Captures `m` as the node does: the message and its encoding.
    fn capture(r: &mut Recorder, t: SimTime, m: &Message) {
        r.on_data(t, m.clone(), m.encode_to_bytes());
    }

    fn recorder() -> Recorder {
        Recorder::new(NodeId(9), DiskParams::default(), 1, PublishCost::MediaLayer)
    }

    /// Runs `call`, then completes every IO it started, and every IO
    /// those completions start, until none is left.
    pub(crate) fn drain<A>(
        r: &mut Recorder,
        call: impl FnOnce(&mut Recorder, &mut Vec<StoreIo>) -> A,
    ) -> A {
        let mut ios = Vec::new();
        let answer = call(r, &mut ios);
        while let Some(io) = ios.pop() {
            r.on_disk(io.at, io, &mut ios);
        }
        answer
    }

    /// `on_deposit`'s projection as it stood before [`ReadOrder`]: the
    /// scan for the next unused arrival restarts from the front at every
    /// read index. Kept verbatim as the reference.
    fn old_projection(
        entry: &ProcessEntry,
        read_count: u64,
    ) -> (Vec<(u64, MessageId)>, u64, Vec<u64>) {
        let mut used: BTreeSet<MessageId> = BTreeSet::new();
        let mut consumed: Vec<(u64, MessageId)> = Vec::new();
        for idx in entry.read_floor..read_count {
            let id = match entry.pins.get(&idx) {
                Some(&id) => id,
                None => {
                    let Some(&(_, id)) = entry.arrivals.iter().find(|(_, id)| !used.contains(id))
                    else {
                        break;
                    };
                    id
                }
            };
            used.insert(id);
            if let Some(&(seq, _)) = entry.arrivals.iter().find(|(_, aid)| *aid == id) {
                consumed.push((seq, id));
            }
        }
        let consumed_seqs: BTreeSet<u64> = consumed.iter().map(|(s, _)| *s).collect();
        let floor = entry
            .arrivals
            .iter()
            .map(|(s, _)| *s)
            .find(|s| !consumed_seqs.contains(s))
            .unwrap_or(entry.next_arrival_seq);
        let deltas: Vec<u64> = consumed_seqs
            .iter()
            .copied()
            .filter(|s| *s >= floor)
            .collect();
        (consumed, floor, deltas)
    }

    /// `replay_stream`'s plan loop as it stood before [`ReadOrder`], with
    /// the store's contents reduced to the set of ids it holds.
    fn old_replay_plan(entry: &ProcessEntry, by_id: &BTreeSet<MessageId>) -> Vec<(u64, MessageId)> {
        let mut used: BTreeSet<MessageId> = BTreeSet::new();
        let mut out = Vec::new();
        let mut idx = entry.read_floor;
        loop {
            let id = match entry.pins.get(&idx) {
                Some(&id) => id,
                None => match entry.arrivals.iter().find(|(_, id)| !used.contains(id)) {
                    Some(&(_, id)) => id,
                    None => break,
                },
            };
            used.insert(id);
            match by_id.get(&id) {
                Some(id) => out.push((idx, *id)),
                None => break,
            }
            idx += 1;
        }
        out
    }

    proptest! {
        /// The one-pass read order yields what the restart-from-the-front
        /// scans did: same consumed list, floor, deltas and replay plan.
        /// Ids come from a pool of 12 so pins collide with arrivals, name
        /// messages that never arrived, and repeat.
        #[test]
        fn read_order_cursor_matches_the_quadratic_scan(
            arrivals in proptest::collection::vec((0u64..3, 0u64..12), 0..16),
            pins in proptest::collection::btree_map(0u64..24, 0u64..12, 0..8),
            read_floor in 0u64..6,
            read_count in 0u64..28,
            stored in proptest::collection::vec(0u64..12, 0..12),
        ) {
            let id = |seq: u64| MessageId { sender: pid(1, 1), seq };
            let mut entry = ProcessEntry::new(SimTime::ZERO, pid(2, 1), String::new());
            let mut next_seq = 3;
            for (gap, m) in arrivals {
                next_seq += gap;
                entry.arrivals.push((next_seq, id(m)));
                next_seq += 1;
            }
            entry.next_arrival_seq = next_seq;
            entry.pins = pins.into_iter().map(|(idx, m)| (idx, id(m))).collect();
            entry.read_floor = read_floor;

            let new = entry.project_checkpoint(read_count);
            let (consumed, floor, deltas) = old_projection(&entry, read_count);
            prop_assert_eq!(new.consumed, consumed);
            prop_assert_eq!(new.floor, floor);
            prop_assert_eq!(new.deltas, deltas);

            let by_id: BTreeSet<MessageId> = stored.into_iter().map(id).collect();
            let plan: Vec<(u64, MessageId)> = entry
                .read_order()
                .map(|(idx, id, _)| (idx, id))
                .take_while(|(_, id)| by_id.contains(id))
                .collect();
            prop_assert_eq!(plan, old_replay_plan(&entry, &by_id));
        }
    }

    /// Capture + ack publishes in ack order, not capture order.
    #[test]
    fn sequencing_follows_acks() {
        let mut r = recorder();
        let t = SimTime::ZERO;
        drain(&mut r, |r, ios| {
            r.on_created(t, pid(2, 1), "echo", vec![], true, ios)
        });
        let m1 = msg(pid(1, 1), pid(2, 1), 1, b"a");
        let m2 = msg(pid(1, 1), pid(2, 1), 2, b"b");
        capture(&mut r, t, &m1);
        capture(&mut r, t, &m2);
        // Acks arrive in reverse (m2's first copy reached the node; m1 was
        // retransmitted later).
        drain(&mut r, |r, ios| r.on_ack(t, m2.header.id, pid(2, 1), ios));
        drain(&mut r, |r, ios| r.on_ack(t, m1.header.id, pid(2, 1), ios));
        let stream = r.replay_stream(pid(2, 1));
        let bodies: Vec<&[u8]> = stream.iter().map(|(_, m)| &m.body[..]).collect();
        assert_eq!(bodies, vec![b"b".as_slice(), b"a".as_slice()]);
    }

    #[test]
    fn duplicate_data_and_acks_ignored() {
        let mut r = recorder();
        let t = SimTime::ZERO;
        drain(&mut r, |r, ios| {
            r.on_created(t, pid(2, 1), "echo", vec![], true, ios)
        });
        let m = msg(pid(1, 1), pid(2, 1), 1, b"x");
        capture(&mut r, t, &m);
        capture(&mut r, t, &m);
        drain(&mut r, |r, ios| r.on_ack(t, m.header.id, pid(2, 1), ios));
        drain(&mut r, |r, ios| r.on_ack(t, m.header.id, pid(2, 1), ios));
        assert_eq!(r.stats().published.get(), 1);
        assert_eq!(r.stats().duplicates.get(), 2);
        assert_eq!(r.replay_stream(pid(2, 1)).len(), 1);
    }

    #[test]
    fn kernel_traffic_not_published() {
        let mut r = recorder();
        let t = SimTime::ZERO;
        let m = msg(pid(1, 1), ProcessId::kernel_of(NodeId(2)), 1, b"ctl");
        capture(&mut r, t, &m);
        drain(&mut r, |r, ios| {
            r.on_ack(t, m.header.id, ProcessId::kernel_of(NodeId(2)), ios)
        });
        assert_eq!(r.stats().captured.get(), 0);
        assert_eq!(r.stats().published.get(), 0);
    }

    #[test]
    fn pins_reorder_replay() {
        let mut r = recorder();
        let t = SimTime::ZERO;
        drain(&mut r, |r, ios| {
            r.on_created(t, pid(2, 1), "reader", vec![], true, ios)
        });
        let msgs: Vec<Message> = (1..=3)
            .map(|i| msg(pid(1, 1), pid(2, 1), i, &[i as u8]))
            .collect();
        for m in &msgs {
            capture(&mut r, t, m);
            drain(&mut r, |r, ios| r.on_ack(t, m.header.id, pid(2, 1), ios));
        }
        // The process read message 3 first (urgent channel).
        r.on_read_order(
            t,
            &ReadOrderNotice {
                pid: pid(2, 1),
                read_index: 0,
                read_id: msgs[2].header.id,
                head_id: msgs[0].header.id,
            },
        );
        let stream = r.replay_stream(pid(2, 1));
        let seqs: Vec<u64> = stream.iter().map(|(_, m)| m.header.id.seq).collect();
        assert_eq!(seqs, vec![3, 1, 2]);
    }

    #[test]
    fn checkpoint_sets_replay_floor_and_gcs() {
        let mut r = recorder();
        let t = SimTime::ZERO;
        drain(&mut r, |r, ios| {
            r.on_created(t, pid(2, 1), "echo", vec![], true, ios)
        });
        for i in 1..=4u64 {
            let m = msg(pid(1, 1), pid(2, 1), i, &[i as u8]);
            capture(&mut r, t, &m);
            drain(&mut r, |r, ios| r.on_ack(t, m.header.id, pid(2, 1), ios));
        }
        // Kernel checkpoints after reading 2 messages.
        let dep = CheckpointDeposit {
            pid: pid(2, 1),
            read_count: 2,
            image: vec![0xAB; 100],
        };
        drain(&mut r, |r, ios| {
            r.on_deposit(SimTime::from_millis(1), &dep, ios)
        });
        assert_eq!(r.stats().checkpoints.get(), 2); // initial + this one
        let stream = r.replay_stream(pid(2, 1));
        let seqs: Vec<u64> = stream.iter().map(|(_, m)| m.header.id.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert_eq!(stream[0].0, 2, "replay resumes at read index 2");
        assert_eq!(r.checkpoint_image(pid(2, 1)), Some(&[0xAB; 100][..]));
    }

    #[test]
    fn out_of_order_consumption_checkpoints_precisely() {
        let mut r = recorder();
        let t = SimTime::ZERO;
        drain(&mut r, |r, ios| {
            r.on_created(t, pid(2, 1), "reader", vec![], true, ios)
        });
        let msgs: Vec<Message> = (1..=3)
            .map(|i| msg(pid(1, 1), pid(2, 1), i, &[i as u8]))
            .collect();
        for m in &msgs {
            capture(&mut r, t, m);
            drain(&mut r, |r, ios| r.on_ack(t, m.header.id, pid(2, 1), ios));
        }
        // Read order was 3 (pinned), then checkpoint at read_count 1:
        // message 3 is consumed although it arrived last.
        r.on_read_order(
            t,
            &ReadOrderNotice {
                pid: pid(2, 1),
                read_index: 0,
                read_id: msgs[2].header.id,
                head_id: msgs[0].header.id,
            },
        );
        let dep = CheckpointDeposit {
            pid: pid(2, 1),
            read_count: 1,
            image: vec![1],
        };
        drain(&mut r, |r, ios| {
            r.on_deposit(SimTime::from_millis(1), &dep, ios)
        });
        let stream = r.replay_stream(pid(2, 1));
        let seqs: Vec<u64> = stream.iter().map(|(_, m)| m.header.id.seq).collect();
        assert_eq!(
            seqs,
            vec![1, 2],
            "message 3 was consumed before the checkpoint"
        );
    }

    #[test]
    fn suppress_vector_tracks_ack_watermarks() {
        let mut r = recorder();
        let t = SimTime::ZERO;
        drain(&mut r, |r, ios| {
            r.on_created(t, pid(1, 1), "chatter", vec![], true, ios)
        });
        drain(&mut r, |r, ios| {
            r.on_created(t, pid(2, 1), "echo", vec![], true, ios)
        });
        drain(&mut r, |r, ios| {
            r.on_created(t, pid(3, 1), "echo", vec![], true, ios)
        });
        for (seq, dst) in [(1u64, pid(2, 1)), (2, pid(3, 1)), (3, pid(2, 1))] {
            let m = msg(pid(1, 1), dst, seq, b"z");
            capture(&mut r, t, &m);
            drain(&mut r, |r, ios| r.on_ack(t, m.header.id, dst, ios));
        }
        let mut v = r.suppress_vector(pid(1, 1));
        v.sort();
        assert_eq!(v, vec![(pid(2, 1), 3), (pid(3, 1), 2)]);
    }

    #[test]
    fn restart_rebuilds_database_from_store() {
        let mut r = recorder();
        let t = SimTime::ZERO;
        drain(&mut r, |r, ios| {
            r.on_created(t, pid(2, 1), "echo", vec![], true, ios)
        });
        for i in 1..=5u64 {
            let m = msg(pid(1, 1), pid(2, 1), i, &[i as u8; 32]);
            capture(&mut r, t, &m);
            drain(&mut r, |r, ios| r.on_ack(t, m.header.id, pid(2, 1), ios));
        }
        let dep = CheckpointDeposit {
            pid: pid(2, 1),
            read_count: 2,
            image: vec![7; 64],
        };
        drain(&mut r, |r, ios| {
            r.on_deposit(SimTime::from_millis(1), &dep, ios)
        });
        let before = r.replay_stream(pid(2, 1));
        let rn0 = r.restart_number();

        let pids = drain(&mut r, |r, ios| r.restart(SimTime::from_millis(10), ios));
        assert!(pids.contains(&pid(2, 1)));
        assert_eq!(r.restart_number(), rn0 + 1);
        let after = r.replay_stream(pid(2, 1));
        assert_eq!(
            before
                .iter()
                .map(|(i, m)| (*i, m.header.id))
                .collect::<Vec<_>>(),
            after
                .iter()
                .map(|(i, m)| (*i, m.header.id))
                .collect::<Vec<_>>(),
        );
        assert_eq!(r.entry(pid(2, 1)).unwrap().program_name, "echo");
        assert_eq!(r.checkpoint_image(pid(2, 1)), Some(&[7; 64][..]));
    }

    #[test]
    fn restart_drops_unflushed_nothing_because_buffer_is_battery_backed() {
        // Messages still in the open (battery-backed) buffer survive a
        // recorder crash, per §3.3.4.
        let mut r = recorder();
        let t = SimTime::ZERO;
        drain(&mut r, |r, ios| {
            r.on_created(t, pid(2, 1), "echo", vec![], true, ios)
        });
        let m = msg(pid(1, 1), pid(2, 1), 1, b"unflushed");
        capture(&mut r, t, &m);
        drain(&mut r, |r, ios| r.on_ack(t, m.header.id, pid(2, 1), ios));
        // No flush happened (single small message); restart must keep it.
        drain(&mut r, |r, ios| r.restart(SimTime::from_millis(5), ios));
        let stream = r.replay_stream(pid(2, 1));
        assert_eq!(stream.len(), 1);
        assert_eq!(stream[0].1.body, b"unflushed");
    }

    /// A restart hands out every IO it starts. Its rebuild finds a page
    /// whose one record a durable checkpoint consumed out of order (the
    /// crash lost the erase that checkpoint started) and erases it again:
    /// once that erase completes, the store owes nothing.
    #[test]
    fn restart_hands_out_the_erase_of_a_consumed_delta_page() {
        let mut r = recorder();
        let t = SimTime::ZERO;
        let reader = pid(2, 1);
        drain(&mut r, |r, ios| {
            r.on_created(t, reader, "reader", vec![], true, ios)
        });
        let msgs: Vec<Message> = (1..=5)
            .map(|i| msg(pid(1, 1), reader, i, &[i as u8; 1900]))
            .collect();
        for m in &msgs {
            capture(&mut r, t, m);
            drain(&mut r, |r, ios| r.on_ack(t, m.header.id, reader, ios));
        }
        // Page 1 holds arrivals 0 and 1, page 2 arrival 2 alone; 3 and 4
        // are still in the open buffer.
        assert_eq!(r.store().stats().pages_written.get(), 2);
        // Messages 3 and 4 were read second and third.
        for (read_index, m) in [(1, &msgs[2]), (2, &msgs[3])] {
            let notice = ReadOrderNotice {
                pid: reader,
                read_index,
                read_id: m.header.id,
                head_id: msgs[0].header.id,
            };
            r.on_read_order(t, &notice);
        }
        // Floor 1, deltas {2, 3}: page 2 dies whole.
        let dep = CheckpointDeposit {
            pid: reader,
            read_count: 3,
            image: vec![7; 64],
        };
        let mut ios = Vec::new();
        r.on_deposit(SimTime::from_millis(1), &dep, &mut ios);
        // The write completes; the crash comes before what it started.
        let mut lost = Vec::new();
        for io in ios {
            r.on_disk(io.at, io, &mut lost);
        }
        assert_eq!(r.stats().checkpoints.get(), 2);
        assert!(!lost.is_empty());
        let started = drain(&mut r, |r, ios| {
            r.restart(SimTime::from_millis(50), ios);
            ios.len()
        });
        assert_eq!(started, 1, "the erase of the rebuilt page 2");
        assert!(!r.store().io_outstanding());
    }

    #[test]
    fn destroyed_process_forgotten() {
        let mut r = recorder();
        let t = SimTime::ZERO;
        drain(&mut r, |r, ios| {
            r.on_created(t, pid(2, 1), "echo", vec![], true, ios)
        });
        let m = msg(pid(1, 1), pid(2, 1), 1, b"x");
        capture(&mut r, t, &m);
        drain(&mut r, |r, ios| r.on_ack(t, m.header.id, pid(2, 1), ios));
        drain(&mut r, |r, ios| r.on_destroyed(t, pid(2, 1), ios));
        assert!(r.entry(pid(2, 1)).is_none());
        assert!(r.replay_stream(pid(2, 1)).is_empty());
        let pids = drain(&mut r, |r, ios| r.restart(SimTime::from_millis(1), ios));
        assert!(!pids.contains(&pid(2, 1)), "retired on disk too");
        assert!(
            r.destroyed(pid(2, 1)),
            "gone on purpose, across the restart"
        );
    }

    /// A destroy is durable the moment it returns: a crash that loses
    /// every erase it started still does not bring the process back.
    #[test]
    fn destroyed_process_stays_gone_across_a_crash() {
        let mut r = recorder();
        let t = SimTime::ZERO;
        drain(&mut r, |r, ios| {
            r.on_created(t, pid(2, 1), "echo", vec![], true, ios)
        });
        let m = msg(pid(1, 1), pid(2, 1), 1, b"x");
        capture(&mut r, t, &m);
        drain(&mut r, |r, ios| r.on_ack(t, m.header.id, pid(2, 1), ios));
        // The erases it starts are lost with the crash.
        r.on_destroyed(t, pid(2, 1), &mut Vec::new());
        let pids = drain(&mut r, |r, ios| r.restart(SimTime::from_millis(1), ios));
        assert!(
            !pids.contains(&pid(2, 1)),
            "destroyed pid re-listed at restart: {pids:?}"
        );
        assert!(r.entry(pid(2, 1)).is_none());
        assert!(r.destroyed(pid(2, 1)));
    }

    #[test]
    fn ownership_filter_ignores_other_shards_traffic() {
        let mut r = recorder();
        let t = SimTime::ZERO;
        // Own only processes with odd local ids.
        r.set_ownership_filter(Some(std::sync::Arc::new(|p: ProcessId| p.local % 2 == 1)));
        drain(&mut r, |r, ios| {
            r.on_created(t, pid(2, 1), "mine", vec![], true, ios)
        });
        drain(&mut r, |r, ios| {
            r.on_created(t, pid(2, 2), "theirs", vec![], true, ios)
        });
        assert!(r.entry(pid(2, 1)).is_some());
        assert!(r.entry(pid(2, 2)).is_none(), "unowned create ignored");
        for (dst, seq) in [(pid(2, 1), 1u64), (pid(2, 2), 2)] {
            let m = msg(pid(1, 1), dst, seq, b"x");
            capture(&mut r, t, &m);
            drain(&mut r, |r, ios| r.on_ack(t, m.header.id, dst, ios));
        }
        assert_eq!(r.stats().captured.get(), 1, "unowned data not captured");
        assert_eq!(r.replay_stream(pid(2, 1)).len(), 1);
        assert!(r.replay_stream(pid(2, 2)).is_empty());
        // Clearing the filter restores full capture.
        r.set_ownership_filter(None);
        let m = msg(pid(1, 1), pid(2, 2), 3, b"y");
        capture(&mut r, t, &m);
        assert_eq!(r.stats().captured.get(), 2);
    }

    #[test]
    fn export_import_preserves_replay_stream() {
        let mut src = recorder();
        let t = SimTime::ZERO;
        drain(&mut src, |r, ios| {
            r.on_created(t, pid(2, 1), "echo", vec![], true, ios)
        });
        for i in 1..=4u64 {
            let m = msg(pid(1, 1), pid(2, 1), i, &[i as u8]);
            capture(&mut src, t, &m);
            drain(&mut src, |r, ios| r.on_ack(t, m.header.id, pid(2, 1), ios));
        }
        let dep = CheckpointDeposit {
            pid: pid(2, 1),
            read_count: 2,
            image: vec![0xCD; 32],
        };
        drain(&mut src, |r, ios| {
            r.on_deposit(SimTime::from_millis(1), &dep, ios)
        });
        let before: Vec<(u64, MessageId)> = src
            .replay_stream(pid(2, 1))
            .iter()
            .map(|(i, m)| (*i, m.header.id))
            .collect();

        let export = src.export_process(pid(2, 1)).expect("known process");
        let mut dst = Recorder::new(NodeId(8), DiskParams::default(), 1, PublishCost::MediaLayer);
        drain(&mut dst, |r, ios| {
            r.import_process(SimTime::from_millis(2), export, ios)
        });
        let after: Vec<(u64, MessageId)> = dst
            .replay_stream(pid(2, 1))
            .iter()
            .map(|(i, m)| (*i, m.header.id))
            .collect();
        assert_eq!(before, after);
        assert_eq!(dst.checkpoint_image(pid(2, 1)), Some(&[0xCD; 32][..]));
        // The destination survives its own restart: the imported state is
        // durable, not just an in-memory copy.
        drain(&mut dst, |r, ios| r.restart(SimTime::from_millis(3), ios));
        let rebuilt: Vec<(u64, MessageId)> = dst
            .replay_stream(pid(2, 1))
            .iter()
            .map(|(i, m)| (*i, m.header.id))
            .collect();
        assert_eq!(before, rebuilt);
        // And the source can release the process after handoff.
        drain(&mut src, |r, ios| {
            r.forget(SimTime::from_millis(3), pid(2, 1), ios)
        });
        assert!(src.replay_stream(pid(2, 1)).is_empty());
        assert!(!src.destroyed(pid(2, 1)), "handed off, not destroyed");
    }

    #[test]
    fn publish_cost_modes_match_paper() {
        assert_eq!(
            PublishCost::FullStack.per_message(),
            SimDuration::from_millis(57)
        );
        assert_eq!(
            PublishCost::Inlined.per_message(),
            SimDuration::from_millis(12)
        );
        assert_eq!(
            PublishCost::MediaLayer.per_message(),
            SimDuration::from_micros(800)
        );
    }
}
