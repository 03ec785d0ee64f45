//! The recorder's stable store: a page-buffered message log plus
//! checkpoint storage, over one or more simulated disks.
//!
//! §4.5's pipeline: arriving messages are timestamped and appended to a
//! buffer; full buffers are written to disk as 4 KB pages (the batching
//! that removed the Figure 5.5 disk saturation); the process database
//! entry records which pages hold a process's messages. After a checkpoint
//! for a process is durable, its older messages and checkpoints become
//! invalid; pages whose records are all invalid are freed, and partially
//! valid pages are compacted by reading them back and rewriting the live
//! records ("before allocating a buffer to a disk page, the disk page is
//! read in … and the buffer is compacted").
//!
//! The index has the shape of that database entry. Arrival sequences and
//! page numbers are counters — the recorder hands out the one, this store
//! the other — so a process's records sit in a log indexed by
//! `seq - base` and what a page holds in a table indexed by page number:
//! an append, a flush, a completion or an invalidation reaches its record
//! by position, and a purge walks one process's log and the pages it
//! names instead of everyone's.
//!
//! A process leaves the store one of two ways. A destroyed process is
//! *retired* ([`StableStore::retire_process`]): its records are
//! invalidated where they lie and its pid joins a tombstone set that
//! every rebuild honours, so pages it shared are left for compaction.
//! A process handed to another recorder is *purged*
//! ([`StableStore::purge_process`]): every page holding one of its bytes
//! is erased, shared ones rewritten first, because it may come back
//! under the same keys and a tombstone would then drop its new records.
//!
//! The open buffer and the tombstone set are battery-backed solid-state
//! memory per §3.3.4, so they survive recorder crashes;
//! [`StableStore::rebuild_index`] reconstructs
//! the in-memory index from pages plus that buffer, which is the recorder
//! recovery path ("it is possible to rebuild the data base from the
//! disk").

use crate::disk::{Disk, DiskOp, DiskParams, DiskResult, IoToken};
use publishing_sim::codec::{Bytes, CodecError, Decoder, Encoder};
use publishing_sim::stats::Counter;
use publishing_sim::table::{slot_mut, IdMap, TokenTable};
use publishing_sim::time::SimTime;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Identifies a stored message: destination process and receive-order
/// sequence number at that process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordKey {
    /// Destination process (opaque to the store).
    pub pid: u64,
    /// Receive-order sequence at the destination.
    pub seq: u64,
}

/// A stored message record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgRecord {
    /// Key (destination, receive order).
    pub key: RecordKey,
    /// Recorder timestamp.
    pub received_at: SimTime,
    /// The message bytes as seen on the wire — when the recorder
    /// appended them, a view of the frame they arrived in.
    pub payload: Bytes,
}

impl MsgRecord {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let pid = d.u64()?;
        let seq = d.u64()?;
        let at = d.u64()?;
        let payload = d.shared_bytes()?;
        Ok(MsgRecord {
            key: RecordKey { pid, seq },
            received_at: SimTime::from_nanos(at),
            payload,
        })
    }
}

/// A durable checkpoint for a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Process the checkpoint belongs to.
    pub pid: u64,
    /// Messages with `seq < upto_seq` were consumed before this checkpoint
    /// and need not be replayed.
    pub upto_seq: u64,
    /// Encoded process state.
    pub blob: Vec<u8>,
}

const PAGE_KIND_MESSAGES: u8 = 0;
const PAGE_KIND_CHECKPOINT: u8 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Location {
    /// Still in the battery-backed open buffer.
    Open,
    /// On a disk page.
    Page(u64),
}

/// One live record; its key is its place in its process's [`ProcLog`].
/// Invalidated records leave the index at once (their bytes linger on
/// the page until it is compacted — see [`PageSlot::dead`]).
#[derive(Debug)]
struct RecordState {
    received_at: SimTime,
    payload: Bytes,
    location: Location,
    durable: bool,
}

impl RecordState {
    /// Encoded size: pid + seq + timestamp + length prefix + payload.
    fn size(&self) -> usize {
        8 + 8 + 8 + 8 + self.payload.len()
    }

    fn encode(&self, key: RecordKey, e: &mut Encoder) {
        e.u64(key.pid).u64(key.seq).u64(self.received_at.as_nanos());
        e.bytes(&self.payload);
    }
}

/// One process's log — §4.5's database entry listing "the messages
/// received since the last checkpoint": live records indexed by
/// `seq - base`. Arrival sequences are a counter the recorder hands out,
/// so the window from the oldest live record to the newest is dense;
/// holes stay representable (precise invalidation punches them above the
/// checkpoint floor, and a quorum re-apply can commit a sequence below
/// records rebuilt from disk).
#[derive(Debug, Default)]
struct ProcLog {
    /// Sequence of `slots[0]`.
    base: u64,
    /// Both ends are occupied (or the log is empty).
    slots: VecDeque<Option<RecordState>>,
    /// Pages physically holding invalidated records of this process,
    /// exactly: a purge must scrub them too.
    dead_pages: Vec<u64>,
}

impl ProcLog {
    fn index(&self, seq: u64) -> Option<usize> {
        usize::try_from(seq.checked_sub(self.base)?).ok()
    }

    fn get(&self, seq: u64) -> Option<&RecordState> {
        self.slots.get(self.index(seq)?)?.as_ref()
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut RecordState> {
        let at = self.index(seq)?;
        self.slots.get_mut(at)?.as_mut()
    }

    /// Files `st` under `seq`, widening the window at either end.
    fn insert(&mut self, seq: u64, st: RecordState) {
        if self.slots.is_empty() {
            self.base = seq;
        }
        while seq < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let at = self.index(seq).expect("seq at or above base");
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, || None);
        }
        debug_assert!(self.slots[at].is_none(), "slot {seq} occupied");
        self.slots[at] = Some(st);
    }

    fn remove(&mut self, seq: u64) -> Option<RecordState> {
        let at = self.index(seq)?;
        let st = self.slots.get_mut(at)?.take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        Some(st)
    }

    /// Live records with `seq >= from_seq`, ascending.
    fn iter_from(&self, from_seq: u64) -> impl Iterator<Item = (u64, &RecordState)> {
        let skip = usize::try_from(from_seq.saturating_sub(self.base)).unwrap_or(usize::MAX);
        self.slots
            .iter()
            .enumerate()
            .skip(skip)
            .filter_map(|(i, st)| Some((self.base + i as u64, st.as_ref()?)))
    }

    /// Remembers that `page` physically holds an invalidated record of
    /// this process.
    fn note_dead(&mut self, page: u64) {
        if !self.dead_pages.contains(&page) {
            self.dead_pages.push(page);
        }
    }

    /// One past the highest live sequence.
    fn end(&self) -> u64 {
        self.base + self.slots.len() as u64
    }
}

/// What the index knows of one message page, by the page number
/// [`StableStore::alloc_page`] issued. Both lists empty = not a message
/// page (free, or holding a checkpoint chunk).
#[derive(Debug, Default)]
struct PageSlot {
    /// Live records on the page. Never empty while `dead` is not: a
    /// page whose last live record goes is freed.
    live: Vec<RecordKey>,
    /// Invalidated records still physically present (compaction
    /// candidates; consulted by purge so no stale byte survives).
    dead: Vec<RecordKey>,
}

#[derive(Debug)]
enum PendingIo {
    /// A message-page write; on completion these records become durable.
    PageWrite { keys: Vec<RecordKey> },
    /// One chunk of a checkpoint write.
    CheckpointWrite { pid: u64, ticket: u64 },
    /// A compaction read; contents already known, timing only.
    CompactionRead,
    /// A replay read issued for timing by the recovery path.
    ReplayRead,
    /// A page erase (purged process).
    Erase,
}

/// An IO the store asked its disks to perform; the driver must schedule a
/// callback to [`StableStore::on_disk_complete`] at `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreIo {
    /// Index of the disk the operation went to.
    pub disk: usize,
    /// The disk's token for the operation.
    pub token: IoToken,
    /// Completion time.
    pub at: SimTime,
}

/// Events the store reports when IO completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreEvent {
    /// These message records became durable.
    MessagesDurable(Vec<RecordKey>),
    /// A checkpoint became fully durable and is now the process's latest;
    /// superseded messages and checkpoints were invalidated.
    CheckpointDurable {
        /// Process checkpointed.
        pid: u64,
        /// Replay floor established by the checkpoint.
        upto_seq: u64,
    },
    /// A timing-only read (compaction or replay) finished.
    ReadDone,
    /// Follow-up IO the store started while completing another (page
    /// erases after checkpoint GC); the driver must schedule it.
    FollowUpIo(StoreIo),
}

/// Counters the store maintains.
#[derive(Debug, Default, Clone)]
pub struct StoreStats {
    /// Messages appended.
    pub appended: Counter,
    /// Message pages written.
    pub pages_written: Counter,
    /// Pages freed because every record became invalid.
    pub pages_freed: Counter,
    /// Compaction passes performed.
    pub compactions: Counter,
    /// Records rewritten by compaction.
    pub records_compacted: Counter,
    /// Checkpoints made durable.
    pub checkpoints: Counter,
    /// Disk operations retried after an injected transient error.
    pub io_retries: Counter,
}

struct PendingCheckpoint {
    checkpoint: Checkpoint,
    pages_left: usize,
    pages: Vec<u64>,
    /// Its process was retired while the chunks were in flight: once
    /// they are all written they are garbage.
    void: bool,
}

/// The recorder's stable store.
///
/// The index is §4.5's shape: a log per process in receive order
/// (`ProcLog`, found through a small pid map) and a table of which
/// pages hold what (`PageSlot`, indexed by page number); what the store
/// is waiting on from each disk sits in a token table that issues the
/// same tokens the disk does.
pub struct StableStore {
    disks: Vec<Disk>,
    page_size: usize,
    /// Battery-backed open buffer of not-yet-flushed records, each with
    /// its encoded size.
    open: Vec<(RecordKey, usize)>,
    open_bytes: usize,
    logs: IdMap<u64, ProcLog>,
    pages: Vec<PageSlot>,
    free_pages: BTreeSet<u64>,
    next_page: u64,
    /// Per disk: what each in-flight operation was for.
    pending: Vec<TokenTable<PendingIo>>,
    /// Processes retired by [`StableStore::retire_process`]: their
    /// records on disk are garbage to every rebuild. Battery-backed like
    /// the open buffer, so it survives a crash.
    retired: BTreeSet<u64>,
    /// Durable checkpoints by process.
    checkpoints: BTreeMap<u64, Checkpoint>,
    /// Pages holding each process's durable checkpoint.
    checkpoint_pages: BTreeMap<u64, Vec<u64>>,
    pending_checkpoints: HashMap<u64, PendingCheckpoint>,
    next_ticket: u64,
    stats: StoreStats,
}

impl StableStore {
    /// Creates a store over `n_disks` identical disks.
    ///
    /// # Panics
    ///
    /// Panics if `n_disks == 0`.
    pub fn new(params: DiskParams, n_disks: usize) -> Self {
        assert!(n_disks > 0, "at least one disk required");
        let page_size = params.page_size;
        StableStore {
            disks: (0..n_disks).map(|_| Disk::new(params.clone())).collect(),
            page_size,
            open: Vec::new(),
            open_bytes: 0,
            logs: IdMap::default(),
            pages: Vec::new(),
            free_pages: BTreeSet::new(),
            next_page: 0,
            pending: (0..n_disks).map(|_| TokenTable::new()).collect(),
            retired: BTreeSet::new(),
            checkpoints: BTreeMap::new(),
            checkpoint_pages: BTreeMap::new(),
            pending_checkpoints: HashMap::new(),
            next_ticket: 0,
            stats: StoreStats::default(),
        }
    }

    /// Returns the store's counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Returns a disk's counters (for utilization reporting).
    pub fn disk_stats(&self, i: usize) -> &crate::disk::DiskStats {
        self.disks[i].stats()
    }

    /// Whether any disk still owes the store a completion.
    pub fn io_outstanding(&self) -> bool {
        self.pending.iter().any(|ops| !ops.is_empty())
    }

    /// Returns the number of disks.
    pub fn n_disks(&self) -> usize {
        self.disks.len()
    }

    /// Peeks at a page's durable contents on whichever disk holds it,
    /// without timing cost — [`Disk::peek_page`] for the striped store
    /// (assertions and trace pins, never the simulated dataflow).
    pub fn peek_page(&self, page: u64) -> Option<&[u8]> {
        self.disks[self.disk_for_page(page)].peek_page(page)
    }

    /// Installs injected disk failure modes on every disk (seeds are
    /// varied per disk so their fault streams are independent). Transient
    /// errors are retried internally — see
    /// [`StableStore::on_disk_complete`] — so nothing above the store
    /// observes them except as latency.
    pub fn set_disk_faults(&mut self, faults: crate::disk::DiskFaults) {
        for (i, d) in self.disks.iter_mut().enumerate() {
            let mut f = faults.clone();
            f.seed = faults
                .seed
                .wrapping_add(i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15);
            d.set_faults(f);
        }
    }

    /// Hands out the lowest free page: the number picks the disk.
    fn alloc_page(&mut self) -> u64 {
        self.free_pages.pop_first().unwrap_or_else(|| {
            let p = self.next_page;
            self.next_page += 1;
            p
        })
    }

    fn disk_for_page(&self, page: u64) -> usize {
        (page % self.disks.len() as u64) as usize
    }

    /// The index entry of `page`, growing the table to reach it.
    fn page_slot(&mut self, page: u64) -> &mut PageSlot {
        slot_mut(&mut self.pages, page as usize)
    }

    fn record_mut(&mut self, key: RecordKey) -> Option<&mut RecordState> {
        self.logs.get_mut(&key.pid)?.get_mut(key.seq)
    }

    /// Submits `op` to the disk holding `page` and files what it was for
    /// under the token the disk issued.
    fn submit(&mut self, now: SimTime, page: u64, op: DiskOp, what: PendingIo) -> StoreIo {
        let disk = self.disk_for_page(page);
        self.submit_to(now, disk, op, what)
    }

    fn submit_to(&mut self, now: SimTime, disk: usize, op: DiskOp, what: PendingIo) -> StoreIo {
        let (token, at) = self.disks[disk].submit(now, op);
        // Store and disk file one entry per operation each, so their
        // tables issue the same tokens.
        let filed = self.pending[disk].insert(what);
        assert_eq!(filed, token.0, "store and disk count IO alike");
        StoreIo { disk, token, at }
    }

    /// Appends a message to the log. Returns any disk IO started (a page
    /// flush when the open buffer filled).
    ///
    /// The record is immediately *stable* (battery-backed buffer) but not
    /// yet *durable*; [`StoreEvent::MessagesDurable`] reports durability.
    /// Shared bytes are kept as they are (a view keeps its frame's buffer
    /// alive — some twenty header bytes more than the record — until the
    /// record is invalidated); a `Vec<u8>` is copied into a buffer of its
    /// own.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate key — the recorder must deduplicate upstream.
    pub fn append_message(
        &mut self,
        now: SimTime,
        key: RecordKey,
        payload: impl Into<Bytes>,
    ) -> Vec<StoreIo> {
        let log = self.logs.entry(key.pid).or_default();
        assert!(log.get(key.seq).is_none(), "duplicate record {key:?}");
        let st = RecordState {
            received_at: now,
            payload: payload.into(),
            location: Location::Open,
            durable: false,
        };
        let size = st.size();
        log.insert(key.seq, st);
        self.stats.appended.inc();
        self.open.push((key, size));
        self.open_bytes += size;
        if self.open_bytes + 1 >= self.page_size {
            self.flush(now)
        } else {
            Vec::new()
        }
    }

    /// Whether the log holds a live record under `key` — the check
    /// callers make before [`StableStore::append_message`] when
    /// re-importing history.
    pub fn holds(&self, key: RecordKey) -> bool {
        self.logs
            .get(&key.pid)
            .is_some_and(|log| log.get(key.seq).is_some())
    }

    /// Forces the open buffer to disk (checkpoint barriers, shutdown).
    pub fn flush(&mut self, now: SimTime) -> Vec<StoreIo> {
        if self.open.is_empty() {
            return Vec::new();
        }
        // One page per pass; more than one only if the buffer somehow
        // exceeds a page.
        let mut ios = Vec::new();
        while !self.open.is_empty() {
            // Kind byte + record count.
            const PAGE_HEADER: usize = 1 + 8;
            // The records that fit one page are a prefix of `open`.
            let mut bytes = PAGE_HEADER;
            let mut count = 0;
            for &(_, size) in &self.open {
                if bytes + size > self.page_size && count > 0 {
                    break;
                }
                bytes += size;
                count += 1;
            }
            let page = self.alloc_page();
            // The disk keeps the buffer for as long as the page lives:
            // size it to what the page holds, not to a full page.
            let mut e = Encoder::with_capacity(bytes);
            e.u8(PAGE_KIND_MESSAGES).u64(count as u64);
            let mut taken = Vec::with_capacity(count);
            for (key, _) in self.open.drain(..count) {
                let st = self
                    .logs
                    .get_mut(&key.pid)
                    .and_then(|log| log.get_mut(key.seq))
                    .expect("open record indexed");
                st.encode(key, &mut e);
                st.location = Location::Page(page);
                taken.push(key);
            }
            let buf = e.finish();
            assert!(buf.len() <= self.page_size, "page overflow: {}", buf.len());
            self.page_slot(page).live = taken.clone();
            let op = DiskOp::Write { page, data: buf };
            ios.push(self.submit(now, page, op, PendingIo::PageWrite { keys: taken }));
            self.stats.pages_written.inc();
        }
        self.open_bytes = 0;
        ios
    }

    /// Begins writing a checkpoint; it becomes the process's latest when
    /// every chunk is durable ([`StoreEvent::CheckpointDurable`]).
    pub fn write_checkpoint(&mut self, now: SimTime, checkpoint: Checkpoint) -> Vec<StoreIo> {
        let pid = checkpoint.pid;
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        // Chunk the blob into pages: kind, pid, upto_seq, chunk index,
        // total chunks, chunk bytes.
        let chunk_capacity = self.page_size - (1 + 8 + 8 + 8 + 8 + 8);
        let blob = &checkpoint.blob;
        let total = blob.len().div_ceil(chunk_capacity).max(1);
        let mut ios = Vec::new();
        let mut pages = Vec::new();
        for i in 0..total {
            let lo = i * chunk_capacity;
            let hi = ((i + 1) * chunk_capacity).min(blob.len());
            let mut e = Encoder::with_capacity(self.page_size - chunk_capacity + (hi - lo));
            e.u8(PAGE_KIND_CHECKPOINT)
                .u64(pid)
                .u64(checkpoint.upto_seq)
                .u64(i as u64)
                .u64(total as u64);
            e.bytes(&checkpoint.blob[lo..hi]);
            let buf = e.finish();
            assert!(buf.len() <= self.page_size);
            let page = self.alloc_page();
            pages.push(page);
            let op = DiskOp::Write { page, data: buf };
            ios.push(self.submit(now, page, op, PendingIo::CheckpointWrite { pid, ticket }));
        }
        self.pending_checkpoints.insert(
            ticket,
            PendingCheckpoint {
                checkpoint,
                pages_left: total,
                pages,
                void: false,
            },
        );
        ios
    }

    /// Handles a disk completion; the driver calls this at the `at` time
    /// of a [`StoreIo`].
    pub fn on_disk_complete(&mut self, now: SimTime, io: StoreIo) -> Vec<StoreEvent> {
        let result = self.disks[io.disk].complete(now, io.token);
        let Some(pending) = self.pending[io.disk].take(io.token.0) else {
            return Vec::new();
        };
        // A transient disk error is retried in place: the same operation
        // goes back to the same disk and keeps its pending bookkeeping, so
        // layers above see nothing but added latency.
        if let DiskResult::TransientError { op } = result {
            self.stats.io_retries.inc();
            let retry = self.submit_to(now, io.disk, op, pending);
            return vec![StoreEvent::FollowUpIo(retry)];
        }
        match (pending, result) {
            (PendingIo::PageWrite { keys }, DiskResult::Written { .. }) => {
                let mut durable = keys;
                durable.retain(|&k| match self.record_mut(k) {
                    Some(st) => {
                        st.durable = true;
                        true
                    }
                    None => false,
                });
                vec![StoreEvent::MessagesDurable(durable)]
            }
            (PendingIo::CheckpointWrite { pid, ticket }, DiskResult::Written { .. }) => {
                let done = {
                    let pc = self
                        .pending_checkpoints
                        .get_mut(&ticket)
                        .expect("pending checkpoint exists");
                    pc.pages_left -= 1;
                    pc.pages_left == 0
                };
                if !done {
                    return Vec::new();
                }
                let pc = self.pending_checkpoints.remove(&ticket).expect("checked");
                if pc.void {
                    return pc
                        .pages
                        .into_iter()
                        .map(|p| StoreEvent::FollowUpIo(self.scrub(now, p)))
                        .collect();
                }
                let upto_seq = pc.checkpoint.upto_seq;
                // Retire the previous checkpoint's pages, erasing them so
                // a stale floor cannot resurface at a rebuild.
                let mut retire_ios = Vec::new();
                if let Some(old) = self.checkpoint_pages.remove(&pid) {
                    for p in old {
                        retire_ios.push(self.scrub(now, p));
                    }
                }
                self.checkpoint_pages.insert(pid, pc.pages);
                self.checkpoints.insert(pid, pc.checkpoint);
                self.stats.checkpoints.inc();
                // Invalidate superseded messages; physically erase any
                // page that became fully dead.
                let freed = self.invalidate_below(pid, upto_seq);
                let mut events = vec![StoreEvent::CheckpointDurable { pid, upto_seq }];
                events.extend(retire_ios.into_iter().map(StoreEvent::FollowUpIo));
                for page in freed {
                    events.push(StoreEvent::FollowUpIo(self.erase_page(now, page)));
                }
                events
            }
            (PendingIo::CompactionRead, _) | (PendingIo::ReplayRead, _) => {
                vec![StoreEvent::ReadDone]
            }
            (PendingIo::Erase, _) => Vec::new(),
            _ => unreachable!("io kind/result mismatch"),
        }
    }

    /// Invalidates `pid`'s records below `upto_seq`, ascending; returns
    /// the pages that freed.
    fn invalidate_below(&mut self, pid: u64, upto_seq: u64) -> Vec<u64> {
        let Some(log) = self.logs.get(&pid) else {
            return Vec::new();
        };
        (log.base..log.end().min(upto_seq))
            .filter_map(|seq| self.invalidate(RecordKey { pid, seq }))
            .collect()
    }

    /// Invalidates one record; returns the page number if this freed a
    /// whole page (the caller must erase it — stale bytes on freed pages
    /// would resurrect at the next rebuild).
    fn invalidate(&mut self, key: RecordKey) -> Option<u64> {
        let log = self.logs.get_mut(&key.pid)?;
        let st = log.remove(key.seq)?;
        let page = match st.location {
            Location::Open => {
                self.open.retain(|(k, _)| *k != key);
                self.open_bytes = self.open_bytes.saturating_sub(st.size());
                return None;
            }
            Location::Page(page) => page,
        };
        let slot = self.pages.get_mut(page as usize)?;
        if slot.live.is_empty() {
            return None;
        }
        slot.live.retain(|k| *k != key);
        if !slot.live.is_empty() {
            slot.dead.push(key);
            log.note_dead(page);
            return None;
        }
        self.drop_dead(page);
        self.free_pages.insert(page);
        self.stats.pages_freed.inc();
        Some(page)
    }

    /// Forgets the invalidated records `page` physically holds (it is
    /// about to be erased), here and in their processes' logs.
    fn drop_dead(&mut self, page: u64) {
        for key in std::mem::take(&mut self.pages[page as usize].dead) {
            if let Some(log) = self.logs.get_mut(&key.pid) {
                log.dead_pages.retain(|p| *p != page);
            }
        }
    }

    /// Moves `page`'s surviving records back to the open buffer and
    /// forgets the page (compaction, and the rewrite a purge forces on
    /// pages the purged process shared). Returns how many moved.
    fn reopen_survivors(&mut self, page: u64) -> usize {
        self.drop_dead(page);
        let live = std::mem::take(&mut self.pages[page as usize].live);
        self.stats.compactions.inc();
        self.stats.records_compacted.add(live.len() as u64);
        for &k in &live {
            let st = self.record_mut(k).expect("live record indexed");
            st.location = Location::Open;
            st.durable = false;
            let size = st.size();
            self.open_bytes += size;
            self.open.push((k, size));
        }
        live.len()
    }

    /// Invalidates a single record (precise GC for consumed-out-of-order
    /// messages whose arrival sequence lies above the conservative
    /// checkpoint floor). Returns erase IO if a page became fully dead.
    pub fn invalidate_record(&mut self, now: SimTime, key: RecordKey) -> Vec<StoreIo> {
        match self.invalidate(key) {
            Some(page) => vec![self.erase_page(now, page)],
            None => Vec::new(),
        }
    }

    /// Removes every byte of a process (messages, checkpoints) from the
    /// disks, leaving no mark that it was here: the source side of a
    /// handoff, whose process may come back later under the same keys.
    ///
    /// Every page holding one of its records, live or invalidated, is
    /// physically erased (not merely freed) so no later
    /// [`StableStore::rebuild_index`] scan of stale pages resurrects it;
    /// the survivors of a shared page are rewritten first. Returns the IO
    /// started. A crash before the erases complete can bring the process
    /// back — [`StableStore::retire_process`] is the durable alternative
    /// for a process that is gone for good.
    pub fn purge_process(&mut self, now: SimTime, pid: u64) -> Vec<StoreIo> {
        // Pages physically holding any of this process's records — live
        // or already-invalidated-but-not-yet-compacted — must be erased:
        // stale bytes would otherwise resurrect the process at the next
        // rebuild (its checkpoint floor dies with it). Shared pages are
        // compacted (survivors move to the open buffer) first.
        let mut touched: BTreeSet<u64> = BTreeSet::new();
        let mut seqs = Vec::new();
        if let Some(log) = self.logs.get(&pid) {
            touched.extend(log.dead_pages.iter().copied());
            for (seq, st) in log.iter_from(0) {
                seqs.push(seq);
                if let Location::Page(p) = st.location {
                    touched.insert(p);
                }
            }
        }
        for seq in seqs {
            let _ = self.invalidate(RecordKey { pid, seq });
        }
        let mut ios = Vec::new();
        for page in touched {
            if !self.pages[page as usize].live.is_empty() {
                // Other processes' records share the page: rewrite them.
                self.reopen_survivors(page);
            }
            self.free_pages.insert(page);
            ios.push(self.erase_page(now, page));
            if self.open_bytes + 1 >= self.page_size {
                ios.extend(self.flush(now));
            }
        }
        self.logs.remove(&pid);
        ios.extend(self.drop_checkpoint(now, pid));
        ios
    }

    /// Retires a process that is gone for good (destroyed): its records
    /// die where they lie and the pid joins a battery-backed tombstone
    /// set, so no rebuild — even after a crash that drops every erase
    /// started here — brings any of it back.
    ///
    /// Each record is invalidated in place. Only pages left with no live
    /// record are erased, plus the process's checkpoint pages; a page it
    /// shared keeps its other records untouched and carries the retired
    /// ones as dead bytes until compaction reclaims it. Returns the erase
    /// IO started. The caller must never append under `pid` again: a
    /// rebuild drops whatever a retired pid holds.
    pub fn retire_process(&mut self, now: SimTime, pid: u64) -> Vec<StoreIo> {
        self.retired.insert(pid);
        for pc in self.pending_checkpoints.values_mut() {
            pc.void |= pc.checkpoint.pid == pid;
        }
        let mut ios: Vec<StoreIo> = self
            .invalidate_below(pid, u64::MAX)
            .into_iter()
            .map(|page| self.erase_page(now, page))
            .collect();
        self.logs.remove(&pid);
        ios.extend(self.drop_checkpoint(now, pid));
        ios
    }

    /// Whether `pid` was retired ([`StableStore::retire_process`]).
    pub fn retired(&self, pid: u64) -> bool {
        self.retired.contains(&pid)
    }

    /// Forgets `pid`'s durable checkpoint and scrubs its pages.
    fn drop_checkpoint(&mut self, now: SimTime, pid: u64) -> Vec<StoreIo> {
        self.checkpoints.remove(&pid);
        let pages = self.checkpoint_pages.remove(&pid).unwrap_or_default();
        pages.into_iter().map(|p| self.scrub(now, p)).collect()
    }

    /// Frees `page` and erases it.
    fn scrub(&mut self, now: SimTime, page: u64) -> StoreIo {
        self.free_pages.insert(page);
        self.erase_page(now, page)
    }

    fn erase_page(&mut self, now: SimTime, page: u64) -> StoreIo {
        let op = DiskOp::Write {
            page,
            data: Vec::new(),
        };
        self.submit(now, page, op, PendingIo::Erase)
    }

    /// Compacts the fullest-invalid page: reads it back (timing) and
    /// rewrites its live records into the open buffer. Returns the IO
    /// started, or an empty vector if nothing needs compaction.
    pub fn compact_one(&mut self, now: SimTime) -> Vec<StoreIo> {
        // Compact the page carrying the most dead space, the lowest such
        // page on a tie; a page with no invalidated records is not worth
        // rewriting.
        let Some(page) = (0..self.pages.len())
            .filter(|&p| !self.pages[p].dead.is_empty())
            .max_by_key(|&p| (self.pages[p].dead.len(), std::cmp::Reverse(p)))
        else {
            return Vec::new();
        };
        let page = page as u64;
        self.reopen_survivors(page);
        self.free_pages.insert(page);
        // Timing-only read of the old page, then a physical erase so the
        // stale copy cannot resurrect at a rebuild.
        let read = DiskOp::Read { page };
        let mut ios = vec![self.submit(now, page, read, PendingIo::CompactionRead)];
        ios.push(self.erase_page(now, page));
        if self.open_bytes + 1 >= self.page_size {
            ios.extend(self.flush(now));
        }
        ios
    }

    /// Returns the latest durable checkpoint for `pid`.
    pub fn latest_checkpoint(&self, pid: u64) -> Option<&Checkpoint> {
        self.checkpoints.get(&pid)
    }

    /// Returns the stored messages for `pid` with `seq >= from_seq`, in
    /// sequence order. Contents are exact; use [`StableStore::replay_reads`]
    /// to charge the disk time for fetching them.
    pub fn messages_from(&self, pid: u64, from_seq: u64) -> Vec<MsgRecord> {
        let Some(log) = self.logs.get(&pid) else {
            return Vec::new();
        };
        log.iter_from(from_seq)
            .map(|(seq, st)| MsgRecord {
                key: RecordKey { pid, seq },
                received_at: st.received_at,
                payload: st.payload.clone(),
            })
            .collect()
    }

    /// Issues timing reads for the pages holding `pid`'s replayable
    /// messages; the driver waits for their completions before replaying.
    pub fn replay_reads(&mut self, now: SimTime, pid: u64, from_seq: u64) -> Vec<StoreIo> {
        let pages: BTreeSet<u64> = self
            .logs
            .get(&pid)
            .into_iter()
            .flat_map(|log| log.iter_from(from_seq))
            .filter_map(|(_, st)| match st.location {
                Location::Page(p) => Some(p),
                Location::Open => None,
            })
            .collect();
        pages
            .into_iter()
            .map(|page| self.submit(now, page, DiskOp::Read { page }, PendingIo::ReplayRead))
            .collect()
    }

    /// Rebuilds the in-memory index from durable pages plus the
    /// battery-backed open buffer — the §3.3.4 recorder restart scan.
    ///
    /// Returns the set of process ids that have state in the store.
    pub fn rebuild_index(&mut self) -> BTreeSet<u64> {
        // Preserve the open (battery-backed) records.
        let open_records: Vec<(RecordKey, RecordState)> = std::mem::take(&mut self.open)
            .into_iter()
            .filter_map(|(k, _)| Some((k, self.logs.get_mut(&k.pid)?.remove(k.seq)?)))
            .collect();
        self.logs.clear();
        self.pages.clear();
        self.checkpoints.clear();
        self.checkpoint_pages.clear();
        self.free_pages.clear();
        self.open_bytes = 0;

        // Scan every durable page on every disk. Chunk tuples are
        // (index, bytes, page, total).
        type Chunk = (u64, Vec<u8>, u64, u64);
        let mut checkpoint_chunks: BTreeMap<(u64, u64), Vec<Chunk>> = BTreeMap::new();
        let mut max_page = 0u64;
        let mut message_pages: Vec<(u64, Vec<MsgRecord>)> = Vec::new();
        for disk in &self.disks {
            for (page, data) in disk.pages() {
                max_page = max_page.max(page + 1);
                if data.is_empty() {
                    continue;
                }
                let mut d = Decoder::new(data);
                match d.u8() {
                    Ok(PAGE_KIND_MESSAGES) => {
                        let Ok(count) = d.u64() else { continue };
                        let mut recs = Vec::new();
                        for _ in 0..count {
                            match MsgRecord::decode(&mut d) {
                                Ok(r) => recs.push(r),
                                Err(_) => break,
                            }
                        }
                        message_pages.push((page, recs));
                    }
                    Ok(PAGE_KIND_CHECKPOINT) => {
                        let (Ok(pid), Ok(upto), Ok(idx), Ok(total), Ok(bytes)) =
                            (d.u64(), d.u64(), d.u64(), d.u64(), d.bytes())
                        else {
                            continue;
                        };
                        checkpoint_chunks
                            .entry((pid, upto))
                            .or_default()
                            .push((idx, bytes, page, total));
                    }
                    _ => {}
                }
            }
        }
        self.next_page = self.next_page.max(max_page);

        // Reassemble checkpoints; keep the one with the highest watermark
        // per process.
        for ((pid, upto), mut chunks) in checkpoint_chunks {
            if self.retired.contains(&pid) {
                // Every chunk of a retired process is garbage.
                for c in chunks {
                    self.scrap_page(c.2);
                }
                continue;
            }
            chunks.sort_by_key(|c| c.0);
            chunks.dedup_by_key(|c| c.0);
            // A checkpoint interrupted by the crash is incomplete; it
            // never "happened" — the previous one remains authoritative.
            let total = chunks.first().map(|c| c.3).unwrap_or(0) as usize;
            let complete =
                chunks.len() == total && chunks.iter().enumerate().all(|(i, c)| c.0 == i as u64);
            if !complete {
                for c in chunks {
                    self.scrap_page(c.2);
                }
                continue;
            }
            let blob: Vec<u8> = chunks.iter().flat_map(|c| c.1.iter().copied()).collect();
            let pages: Vec<u64> = chunks.iter().map(|c| c.2).collect();
            let better = self
                .checkpoints
                .get(&pid)
                .map(|c| c.upto_seq < upto)
                .unwrap_or(true);
            if better {
                if let Some(old) = self.checkpoint_pages.remove(&pid) {
                    for p in old {
                        self.scrap_page(p);
                    }
                }
                self.checkpoints.insert(
                    pid,
                    Checkpoint {
                        pid,
                        upto_seq: upto,
                        blob,
                    },
                );
                self.checkpoint_pages.insert(pid, pages);
            } else {
                for p in pages {
                    self.scrap_page(p);
                }
            }
        }

        // Re-index message records, dropping ones superseded by
        // checkpoints or retired — but remembering the dropped ones as
        // dead bytes on their page, so compaction keeps reclaiming them
        // and a purge keeps scrubbing its process's.
        let mut pids: BTreeSet<u64> = self.checkpoints.keys().copied().collect();
        for (page, recs) in message_pages {
            let mut slot = PageSlot::default();
            for r in recs {
                if self.superseded(r.key) {
                    slot.dead.push(r.key);
                    continue;
                }
                slot.live.push(r.key);
                pids.insert(r.key.pid);
                self.logs.entry(r.key.pid).or_default().insert(
                    r.key.seq,
                    RecordState {
                        received_at: r.received_at,
                        payload: r.payload,
                        location: Location::Page(page),
                        durable: true,
                    },
                );
            }
            if slot.live.is_empty() {
                self.scrap_page(page);
                continue;
            }
            for key in slot.dead.iter().filter(|k| !self.retired.contains(&k.pid)) {
                self.logs.entry(key.pid).or_default().note_dead(page);
            }
            *self.page_slot(page) = slot;
        }

        // Restore the battery-backed open buffer.
        for (key, mut st) in open_records {
            if self.superseded(key) {
                continue;
            }
            st.location = Location::Open;
            st.durable = false;
            let size = st.size();
            self.open_bytes += size;
            self.open.push((key, size));
            pids.insert(key.pid);
            self.logs.entry(key.pid).or_default().insert(key.seq, st);
        }
        pids
    }

    /// Whether a rebuild drops a record found under `key`: its process
    /// retired, below its checkpoint floor, or a second copy of one
    /// already indexed.
    fn superseded(&self, key: RecordKey) -> bool {
        let floor = self.checkpoints.get(&key.pid).map_or(0, |c| c.upto_seq);
        self.retired.contains(&key.pid) || key.seq < floor || self.holds(key)
    }

    /// Frees a page the rebuild scan found to hold only garbage, and
    /// scrubs it at once (the scan owns the disks).
    fn scrap_page(&mut self, page: u64) {
        self.free_pages.insert(page);
        let disk = self.disk_for_page(page);
        self.disks[disk].wipe_page(page);
    }

    /// Simulates loss of non-battery-backed state at a recorder crash: the
    /// in-memory index vanishes (callers must [`StableStore::rebuild_index`])
    /// but durable pages, the battery-backed buffer and the retired set
    /// survive.
    pub fn crash_volatile_state(&mut self) {
        // The index is exactly what rebuild_index reconstructs; dropping
        // and rebuilding is the honest simulation of the crash — with two
        // physical effects layered on top. First, the battery-backed
        // controller holds each flushed page image until the disk
        // acknowledges it, so records riding an in-flight page write are
        // still protected: they return to the open buffer (otherwise a
        // crash between `flush` and its completion would lose records the
        // store had already reported durable before a compaction moved
        // them). Second, with torn writes enabled (see
        // [`crate::disk::DiskFaults`]) each in-flight write leaves a
        // partial page, which the rebuild scan tolerates as a truncated
        // decode. All other in-flight bookkeeping dies with the host.
        // Disk by disk, each in submission order.
        for disk in 0..self.pending.len() {
            let inflight: Vec<PendingIo> = self.pending[disk].drain().collect();
            for p in inflight {
                let PendingIo::PageWrite { keys } = p else {
                    continue;
                };
                for k in keys {
                    let Some(st) = self.record_mut(k) else {
                        continue;
                    };
                    if !st.durable && st.location != Location::Open {
                        st.location = Location::Open;
                        let size = st.size();
                        self.open_bytes += size;
                        self.open.push((k, size));
                    }
                }
            }
        }
        self.pending_checkpoints.clear();
        for d in &mut self.disks {
            d.crash_tear_inflight();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use publishing_sim::time::SimDuration;

    fn store(n_disks: usize) -> StableStore {
        StableStore::new(DiskParams::default(), n_disks)
    }

    fn key(pid: u64, seq: u64) -> RecordKey {
        RecordKey { pid, seq }
    }

    /// Drives all outstanding IO to completion, collecting events.
    fn drain(s: &mut StableStore, ios: Vec<StoreIo>) -> Vec<StoreEvent> {
        let mut events = Vec::new();
        let mut queue = ios;
        while let Some(io) = queue.pop() {
            events.extend(s.on_disk_complete(io.at, io));
        }
        events
    }

    /// The bytes handed to the disk for a multi-record page, pinned as
    /// constants captured before `flush` built the page in one buffer.
    #[test]
    fn flushed_page_bytes_are_pinned() {
        let mut s = store(1);
        let mut ios = Vec::new();
        let bodies: [&[u8]; 3] = [b"first", b"", b"the third record"];
        for (i, body) in bodies.iter().enumerate() {
            let i = i as u64;
            let at = SimTime::from_micros(7 + i);
            ios.extend(s.append_message(at, key(0x0102 + i, 40 + i), body.to_vec()));
        }
        ios.extend(s.flush(SimTime::from_millis(1)));
        drain(&mut s, ios);
        #[rustfmt::skip]
        const PAGE: [u8; 126] = [
            0, 3, 0, 0, 0, 0, 0, 0, 0,
            2, 1, 0, 0, 0, 0, 0, 0, 40, 0, 0, 0, 0, 0, 0, 0, 88, 27, 0, 0, 0, 0, 0, 0,
            5, 0, 0, 0, 0, 0, 0, 0, 102, 105, 114, 115, 116,
            3, 1, 0, 0, 0, 0, 0, 0, 41, 0, 0, 0, 0, 0, 0, 0, 64, 31, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0,
            4, 1, 0, 0, 0, 0, 0, 0, 42, 0, 0, 0, 0, 0, 0, 0, 40, 35, 0, 0, 0, 0, 0, 0,
            16, 0, 0, 0, 0, 0, 0, 0,
            116, 104, 101, 32, 116, 104, 105, 114, 100, 32, 114, 101, 99, 111, 114, 100,
        ];
        let pages: Vec<(u64, &[u8])> = s.disks[0].pages().collect();
        assert_eq!(pages, vec![(0, &PAGE[..])]);
    }

    /// An open buffer that fits a page only without the page header
    /// flushes as two pages: the records taken are a prefix of the open
    /// list and the rest stay queued for the next page, in order.
    #[test]
    fn flush_splits_an_overfull_buffer_in_order() {
        let mut s = store(1);
        let page = s.page_size;
        // 32 bytes of record framing each; together 6 bytes short of a
        // page, so no append flushes, but the 9-byte header does not fit.
        let (a, b) = (page / 2 - 32, page - page / 2 - 32 - 6);
        let mut ios = s.append_message(SimTime::ZERO, key(1, 0), vec![0xA; a]);
        ios.extend(s.append_message(SimTime::ZERO, key(1, 1), vec![0xB; b]));
        assert!(ios.is_empty(), "no flush while appending");
        ios.extend(s.flush(SimTime::ZERO));
        assert_eq!(ios.len(), 2);
        assert!(s.open.is_empty());
        drain(&mut s, ios);
        let pages: Vec<(u64, &[u8])> = s.disks[0].pages().collect();
        assert_eq!(pages.len(), 2);
        for ((_, bytes), (len, fill)) in pages.iter().zip([(a, 0xA), (b, 0xB)]) {
            assert_eq!(bytes[..9], [PAGE_KIND_MESSAGES, 1, 0, 0, 0, 0, 0, 0, 0]);
            assert_eq!(bytes.len(), 9 + 32 + len);
            assert!(bytes[9 + 32..].iter().all(|&x| x == fill));
        }
    }

    #[test]
    fn append_buffers_until_page_full() {
        let mut s = store(1);
        let mut ios = Vec::new();
        // 100-byte payloads: ~132 bytes per record; a 4 KB page fits ~30.
        for i in 0..40u64 {
            ios.extend(s.append_message(SimTime::ZERO, key(1, i), vec![0xAA; 100]));
        }
        assert!(!ios.is_empty(), "a flush should have happened");
        assert!(s.stats().pages_written.get() >= 1);
    }

    #[test]
    fn messages_durable_event_after_flush() {
        let mut s = store(1);
        let mut ios = Vec::new();
        for i in 0..5u64 {
            ios.extend(s.append_message(SimTime::ZERO, key(1, i), vec![1; 10]));
        }
        ios.extend(s.flush(SimTime::ZERO));
        let events = drain(&mut s, ios);
        let durable: Vec<RecordKey> = events
            .iter()
            .flat_map(|e| match e {
                StoreEvent::MessagesDurable(ks) => ks.clone(),
                _ => vec![],
            })
            .collect();
        assert_eq!(durable.len(), 5);
    }

    #[test]
    fn messages_from_returns_in_order() {
        let mut s = store(1);
        for i in [3u64, 1, 2, 0] {
            s.append_message(SimTime::ZERO, key(7, i), vec![i as u8]);
        }
        let msgs = s.messages_from(7, 1);
        let seqs: Vec<u64> = msgs.iter().map(|m| m.key.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn checkpoint_invalidates_older_messages() {
        let mut s = store(1);
        let mut ios = Vec::new();
        for i in 0..10u64 {
            ios.extend(s.append_message(SimTime::ZERO, key(1, i), vec![0; 50]));
        }
        ios.extend(s.flush(SimTime::ZERO));
        drain(&mut s, ios);
        let cp = Checkpoint {
            pid: 1,
            upto_seq: 6,
            blob: vec![9; 100],
        };
        let ios = s.write_checkpoint(SimTime::from_millis(100), cp.clone());
        let events = drain(&mut s, ios);
        assert!(events.iter().any(|e| matches!(
            e,
            StoreEvent::CheckpointDurable {
                pid: 1,
                upto_seq: 6
            }
        )));
        assert_eq!(s.latest_checkpoint(1), Some(&cp));
        let remaining = s.messages_from(1, 0);
        assert_eq!(remaining.len(), 4);
        assert!(remaining.iter().all(|m| m.key.seq >= 6));
    }

    #[test]
    fn fully_invalid_page_is_freed() {
        let mut s = store(1);
        let mut ios = Vec::new();
        for i in 0..10u64 {
            ios.extend(s.append_message(SimTime::ZERO, key(1, i), vec![0; 300]));
        }
        ios.extend(s.flush(SimTime::ZERO));
        drain(&mut s, ios);
        let pages_before = s.stats().pages_written.get();
        assert!(pages_before >= 1);
        let ios = s.write_checkpoint(
            SimTime::from_millis(50),
            Checkpoint {
                pid: 1,
                upto_seq: 100,
                blob: vec![1],
            },
        );
        drain(&mut s, ios);
        assert!(s.stats().pages_freed.get() >= 1);
        assert!(s.messages_from(1, 0).is_empty());
    }

    #[test]
    fn large_checkpoint_spans_pages() {
        let mut s = store(2);
        // 20 KB blob: needs 5+ pages.
        let cp = Checkpoint {
            pid: 3,
            upto_seq: 0,
            blob: vec![7; 20_000],
        };
        let ios = s.write_checkpoint(SimTime::ZERO, cp.clone());
        assert!(ios.len() >= 5);
        let events = drain(&mut s, ios);
        assert!(events
            .iter()
            .any(|e| matches!(e, StoreEvent::CheckpointDurable { pid: 3, .. })));
        assert_eq!(s.latest_checkpoint(3).unwrap().blob, cp.blob);
    }

    #[test]
    fn rebuild_recovers_durable_and_open_state() {
        let mut s = store(2);
        let mut ios = Vec::new();
        for i in 0..30u64 {
            ios.extend(s.append_message(SimTime::ZERO, key(1, i), vec![i as u8; 200]));
        }
        // Leave some records in the open buffer (battery-backed).
        ios.extend(s.append_message(SimTime::ZERO, key(2, 0), vec![0xEE; 10]));
        drain(&mut s, ios);
        let cp = Checkpoint {
            pid: 1,
            upto_seq: 5,
            blob: vec![3; 5000],
        };
        let ios = s.write_checkpoint(SimTime::from_millis(1), cp.clone());
        drain(&mut s, ios);

        let before_1 = s.messages_from(1, 0);
        let before_2 = s.messages_from(2, 0);
        let pids = s.rebuild_index();
        assert!(pids.contains(&1) && pids.contains(&2));
        assert_eq!(s.messages_from(1, 0), before_1);
        assert_eq!(s.messages_from(2, 0), before_2);
        assert_eq!(s.latest_checkpoint(1), Some(&cp));
    }

    #[test]
    fn compaction_rewrites_survivors() {
        let mut s = store(1);
        let mut ios = Vec::new();
        // Two processes interleaved on the same pages.
        for i in 0..10u64 {
            ios.extend(s.append_message(SimTime::ZERO, key(1, i), vec![1; 150]));
            ios.extend(s.append_message(SimTime::ZERO, key(2, i), vec![2; 150]));
        }
        ios.extend(s.flush(SimTime::ZERO));
        drain(&mut s, ios);
        // Invalidate process 1's records: pages become half-live.
        let ios = s.write_checkpoint(
            SimTime::from_millis(1),
            Checkpoint {
                pid: 1,
                upto_seq: 100,
                blob: vec![0],
            },
        );
        drain(&mut s, ios);
        let t = SimTime::from_millis(50);
        let ios = s.compact_one(t);
        assert!(!ios.is_empty());
        drain(&mut s, ios);
        assert!(s.stats().compactions.get() >= 1);
        // Process 2's messages all survive compaction.
        assert_eq!(s.messages_from(2, 0).len(), 10);
    }

    #[test]
    fn replay_reads_cover_message_pages() {
        let mut s = store(1);
        let mut ios = Vec::new();
        for i in 0..60u64 {
            ios.extend(s.append_message(SimTime::ZERO, key(1, i), vec![0; 150]));
        }
        ios.extend(s.flush(SimTime::ZERO));
        drain(&mut s, ios);
        let reads = s.replay_reads(SimTime::from_millis(10), 1, 0);
        assert!(
            reads.len() >= 2,
            "60 × ~180 B should span ≥2 pages, got {}",
            reads.len()
        );
        let events = drain(&mut s, reads);
        assert!(events.iter().all(|e| matches!(e, StoreEvent::ReadDone)));
    }

    #[test]
    fn purge_removes_everything_for_process() {
        let mut s = store(1);
        let mut ios = Vec::new();
        for i in 0..5u64 {
            ios.extend(s.append_message(SimTime::ZERO, key(4, i), vec![0; 20]));
        }
        ios.extend(s.write_checkpoint(
            SimTime::ZERO,
            Checkpoint {
                pid: 4,
                upto_seq: 2,
                blob: vec![1],
            },
        ));
        drain(&mut s, ios);
        let erase = s.purge_process(SimTime::from_millis(5), 4);
        assert!(!erase.is_empty(), "checkpoint pages are erased");
        drain(&mut s, erase);
        assert!(s.messages_from(4, 0).is_empty());
        assert!(s.latest_checkpoint(4).is_none());
        // Rebuild must not resurrect the purged process.
        let pids = s.rebuild_index();
        assert!(!pids.contains(&4));
    }

    /// Retiring a process rewrites nothing: a page it shared keeps the
    /// other records where they are and only its checkpoint page is
    /// erased. With every erase lost to a crash the rebuild still drops
    /// it, and keeps its dead records on the shared page for compaction.
    #[test]
    fn retire_leaves_shared_pages_and_survives_a_crash() {
        let mut s = store(1);
        let mut ios = Vec::new();
        for i in 0..5u64 {
            ios.extend(s.append_message(SimTime::ZERO, key(4, i), vec![4; 20]));
            ios.extend(s.append_message(SimTime::ZERO, key(5, i), vec![5; 20]));
        }
        ios.extend(s.flush(SimTime::ZERO));
        let cp = |pid| Checkpoint {
            pid,
            upto_seq: 0,
            blob: vec![1],
        };
        ios.extend(s.write_checkpoint(SimTime::ZERO, cp(4)));
        ios.extend(s.write_checkpoint(SimTime::ZERO, cp(5)));
        drain(&mut s, ios);
        let written = s.stats().pages_written.get();
        let erases = s.retire_process(SimTime::from_millis(5), 4);
        assert_eq!(erases.len(), 1, "the checkpoint page only");
        assert_eq!(s.stats().pages_written.get(), written, "nothing rewritten");
        assert!(s.retired(4) && !s.retired(5));
        assert!(s.messages_from(4, 0).is_empty());
        assert!(s.latest_checkpoint(4).is_none());
        s.crash_volatile_state();
        let pids = s.rebuild_index();
        assert_eq!(pids, BTreeSet::from([5]));
        assert!(s.retired(4), "the tombstone is battery-backed");
        assert!(s.messages_from(4, 0).is_empty());
        assert!(s.latest_checkpoint(4).is_none());
        assert_eq!(s.messages_from(5, 0).len(), 5);
        assert_eq!(
            s.pages[0].dead.len(),
            5,
            "retired records wait for compaction"
        );
        let ios = s.compact_one(SimTime::from_millis(9));
        drain(&mut s, ios);
        assert!(s.pages[0].dead.is_empty());
        assert_eq!(s.messages_from(5, 0).len(), 5);
    }

    #[test]
    fn multi_disk_striping_spreads_pages() {
        let mut s = store(3);
        let mut ios = Vec::new();
        for i in 0..200u64 {
            ios.extend(s.append_message(SimTime::ZERO, key(1, i), vec![0; 200]));
        }
        ios.extend(s.flush(SimTime::ZERO));
        let disks_used: BTreeSet<usize> = ios.iter().map(|io| io.disk).collect();
        assert!(disks_used.len() >= 2, "striping should use several disks");
        drain(&mut s, ios);
    }

    #[test]
    fn flush_time_reflects_disk_service() {
        let mut s = store(1);
        s.append_message(SimTime::ZERO, key(1, 0), vec![0; 10]);
        let ios = s.flush(SimTime::ZERO);
        assert_eq!(ios.len(), 1);
        // Less than a full page, so service is latency + size/rate; at
        // minimum the 3 ms positioning latency.
        assert!(ios[0].at >= SimTime::ZERO + SimDuration::from_millis(3));
    }

    #[test]
    #[should_panic(expected = "duplicate record")]
    fn duplicate_append_rejected() {
        let mut s = store(1);
        s.append_message(SimTime::ZERO, key(1, 0), vec![]);
        s.append_message(SimTime::ZERO, key(1, 0), vec![]);
    }
}
