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
//! The open buffer is battery-backed solid-state memory per §3.3.4, so it
//! survives recorder crashes; [`StableStore::rebuild_index`] reconstructs
//! the in-memory index from pages plus that buffer, which is the recorder
//! recovery path ("it is possible to rebuild the data base from the
//! disk").

use crate::disk::{Disk, DiskOp, DiskParams, DiskResult, IoToken};
use publishing_sim::codec::{CodecError, Decoder, Encoder};
use publishing_sim::stats::Counter;
use publishing_sim::time::SimTime;
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
    /// The message bytes as seen on the wire.
    pub payload: Vec<u8>,
}

impl MsgRecord {
    fn encode(&self, e: &mut Encoder) {
        e.u64(self.key.pid)
            .u64(self.key.seq)
            .u64(self.received_at.as_nanos());
        e.bytes(&self.payload);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let pid = d.u64()?;
        let seq = d.u64()?;
        let at = d.u64()?;
        let payload = d.bytes()?;
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

#[derive(Debug, Clone)]
struct RecordState {
    record: MsgRecord,
    location: Location,
    durable: bool,
    valid: bool,
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
}

/// The recorder's stable store.
pub struct StableStore {
    disks: Vec<Disk>,
    page_size: usize,
    /// Battery-backed open buffer of not-yet-flushed records.
    open: Vec<RecordKey>,
    open_bytes: usize,
    records: BTreeMap<RecordKey, RecordState>,
    /// Live (valid) record count per page.
    page_live: HashMap<u64, Vec<RecordKey>>,
    /// Invalidated records still physically present per page (compaction
    /// candidates; consulted by purge so no stale byte survives).
    page_dead: HashMap<u64, Vec<RecordKey>>,
    free_pages: BTreeSet<u64>,
    next_page: u64,
    pending: HashMap<(usize, IoToken), PendingIo>,
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
            records: BTreeMap::new(),
            page_live: HashMap::new(),
            page_dead: HashMap::new(),
            free_pages: BTreeSet::new(),
            next_page: 0,
            pending: HashMap::new(),
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

    /// Returns the number of disks.
    pub fn n_disks(&self) -> usize {
        self.disks.len()
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

    fn alloc_page(&mut self) -> u64 {
        if let Some(&p) = self.free_pages.iter().next() {
            self.free_pages.remove(&p);
            p
        } else {
            let p = self.next_page;
            self.next_page += 1;
            p
        }
    }

    fn disk_for_page(&self, page: u64) -> usize {
        (page % self.disks.len() as u64) as usize
    }

    fn record_size(r: &MsgRecord) -> usize {
        // pid + seq + timestamp + length prefix + payload.
        8 + 8 + 8 + 8 + r.payload.len()
    }

    /// Appends a message to the log. Returns any disk IO started (a page
    /// flush when the open buffer filled).
    ///
    /// The record is immediately *stable* (battery-backed buffer) but not
    /// yet *durable*; [`StoreEvent::MessagesDurable`] reports durability.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate key — the recorder must deduplicate upstream.
    pub fn append_message(
        &mut self,
        now: SimTime,
        key: RecordKey,
        payload: Vec<u8>,
    ) -> Vec<StoreIo> {
        assert!(!self.records.contains_key(&key), "duplicate record {key:?}");
        let record = MsgRecord {
            key,
            received_at: now,
            payload,
        };
        let size = Self::record_size(&record);
        self.stats.appended.inc();
        self.records.insert(
            key,
            RecordState {
                record,
                location: Location::Open,
                durable: false,
                valid: true,
            },
        );
        self.open.push(key);
        self.open_bytes += size;
        if self.open_bytes + 1 >= self.page_size {
            self.flush(now)
        } else {
            Vec::new()
        }
    }

    /// Whether the log already holds a record under `key` (valid or
    /// invalidated) — the check callers make before
    /// [`StableStore::append_message`] when re-importing history.
    pub fn holds(&self, key: RecordKey) -> bool {
        self.records.contains_key(&key)
    }

    /// Forces the open buffer to disk (checkpoint barriers, shutdown).
    pub fn flush(&mut self, now: SimTime) -> Vec<StoreIo> {
        if self.open.is_empty() {
            return Vec::new();
        }
        // Encode as many open records as fit in one page; loop if the
        // buffer somehow exceeds a page.
        let mut ios = Vec::new();
        while !self.open.is_empty() {
            // Kind byte + record count.
            const PAGE_HEADER: usize = 1 + 8;
            // The records that fit one page are a prefix of `open`.
            let mut bytes = PAGE_HEADER;
            let mut count = 0;
            for key in &self.open {
                let size = Self::record_size(&self.records[key].record);
                if bytes + size > self.page_size && count > 0 {
                    break;
                }
                bytes += size;
                count += 1;
            }
            let taken: Vec<RecordKey> = self.open.drain(..count).collect();
            // The disk keeps the buffer for as long as the page lives:
            // size it to what the page holds, not to a full page.
            let mut e = Encoder::with_capacity(bytes);
            e.u8(PAGE_KIND_MESSAGES).u64(count as u64);
            for key in &taken {
                self.records[key].record.encode(&mut e);
            }
            let buf = e.finish();
            assert!(buf.len() <= self.page_size, "page overflow: {}", buf.len());
            let page = self.alloc_page();
            for &k in &taken {
                let st = self.records.get_mut(&k).expect("open record indexed");
                st.location = Location::Page(page);
            }
            self.page_live.insert(page, taken.clone());
            let disk = self.disk_for_page(page);
            let (token, at) = self.disks[disk].submit(now, DiskOp::Write { page, data: buf });
            self.pending
                .insert((disk, token), PendingIo::PageWrite { keys: taken });
            self.stats.pages_written.inc();
            ios.push(StoreIo { disk, token, at });
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
            e.bytes(&blob[lo..hi]);
            let buf = e.finish();
            assert!(buf.len() <= self.page_size);
            let page = self.alloc_page();
            pages.push(page);
            let disk = self.disk_for_page(page);
            let (token, at) = self.disks[disk].submit(now, DiskOp::Write { page, data: buf });
            self.pending
                .insert((disk, token), PendingIo::CheckpointWrite { pid, ticket });
            ios.push(StoreIo { disk, token, at });
        }
        self.pending_checkpoints.insert(
            ticket,
            PendingCheckpoint {
                checkpoint,
                pages_left: total,
                pages,
            },
        );
        ios
    }

    /// Handles a disk completion; the driver calls this at the `at` time
    /// of a [`StoreIo`].
    pub fn on_disk_complete(&mut self, now: SimTime, io: StoreIo) -> Vec<StoreEvent> {
        let result = self.disks[io.disk].complete(now, io.token);
        let Some(pending) = self.pending.remove(&(io.disk, io.token)) else {
            return Vec::new();
        };
        // A transient disk error is retried in place: the same operation
        // goes back to the same disk and keeps its pending bookkeeping, so
        // layers above see nothing but added latency.
        if let DiskResult::TransientError { op } = result {
            self.stats.io_retries.inc();
            let (token, at) = self.disks[io.disk].submit(now, op);
            self.pending.insert((io.disk, token), pending);
            return vec![StoreEvent::FollowUpIo(StoreIo {
                disk: io.disk,
                token,
                at,
            })];
        }
        match (pending, result) {
            (PendingIo::PageWrite { keys }, DiskResult::Written { .. }) => {
                let mut durable = Vec::new();
                for k in keys {
                    if let Some(st) = self.records.get_mut(&k) {
                        st.durable = true;
                        if st.valid {
                            durable.push(k);
                        }
                    }
                }
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
                let upto_seq = pc.checkpoint.upto_seq;
                // Retire the previous checkpoint's pages, erasing them so
                // a stale floor cannot resurface at a rebuild.
                let mut retire_ios = Vec::new();
                if let Some(old) = self.checkpoint_pages.remove(&pid) {
                    for p in old {
                        self.free_pages.insert(p);
                        retire_ios.extend(self.erase_page(now, p));
                    }
                }
                self.checkpoint_pages.insert(pid, pc.pages);
                self.checkpoints.insert(pid, pc.checkpoint);
                self.stats.checkpoints.inc();
                // Invalidate superseded messages; physically erase any
                // page that became fully dead.
                let freed = self.invalidate_below(pid, upto_seq);
                let mut events = vec![StoreEvent::CheckpointDurable { pid, upto_seq }];
                for io in retire_ios {
                    events.push(StoreEvent::FollowUpIo(io));
                }
                for page in freed {
                    for io in self.erase_page(now, page) {
                        events.push(StoreEvent::FollowUpIo(io));
                    }
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

    fn invalidate_below(&mut self, pid: u64, upto_seq: u64) -> Vec<u64> {
        let keys: Vec<RecordKey> = self
            .records
            .range(RecordKey { pid, seq: 0 }..RecordKey { pid, seq: upto_seq })
            .map(|(k, _)| *k)
            .collect();
        keys.into_iter()
            .filter_map(|k| self.invalidate(k))
            .collect()
    }

    /// Invalidates one record; returns the page number if this freed a
    /// whole page (the caller must erase it — stale bytes on freed pages
    /// would resurrect at the next rebuild).
    fn invalidate(&mut self, key: RecordKey) -> Option<u64> {
        let st = self.records.get_mut(&key)?;
        if !st.valid {
            return None;
        }
        st.valid = false;
        match st.location {
            Location::Open => {
                self.open.retain(|k| *k != key);
                self.open_bytes = self
                    .open_bytes
                    .saturating_sub(Self::record_size(&st.record));
                self.records.remove(&key);
                None
            }
            Location::Page(page) => {
                let mut freed = None;
                if let Some(live) = self.page_live.get_mut(&page) {
                    live.retain(|k| *k != key);
                    if live.is_empty() {
                        self.page_live.remove(&page);
                        self.page_dead.remove(&page);
                        self.free_pages.insert(page);
                        self.stats.pages_freed.inc();
                        freed = Some(page);
                    } else {
                        self.page_dead.entry(page).or_default().push(key);
                    }
                }
                self.records.remove(&key);
                freed
            }
        }
    }

    /// Invalidates a single record (precise GC for consumed-out-of-order
    /// messages whose arrival sequence lies above the conservative
    /// checkpoint floor). Returns erase IO if a page became fully dead.
    pub fn invalidate_record(&mut self, now: SimTime, key: RecordKey) -> Vec<StoreIo> {
        match self.invalidate(key) {
            Some(page) => self.erase_page(now, page),
            None => Vec::new(),
        }
    }

    /// Removes every trace of a destroyed process (messages, checkpoints).
    ///
    /// Checkpoint pages are physically erased (not merely freed): a
    /// destroyed process must not be resurrected by a later
    /// [`StableStore::rebuild_index`] scan of stale pages. Returns the
    /// erase IO started, if any.
    pub fn purge_process(&mut self, now: SimTime, pid: u64) -> Vec<StoreIo> {
        let keys: Vec<RecordKey> = self
            .records
            .range(RecordKey { pid, seq: 0 }..=RecordKey { pid, seq: u64::MAX })
            .map(|(k, _)| *k)
            .collect();
        // Pages physically holding any of this process's records — live
        // or already-invalidated-but-not-yet-compacted — must be erased:
        // stale bytes would otherwise resurrect the process at the next
        // rebuild (its checkpoint floor dies with it). Shared pages are
        // compacted (survivors move to the open buffer) first.
        let mut touched: BTreeSet<u64> = keys
            .iter()
            .filter_map(|k| match self.records.get(k).map(|st| st.location) {
                Some(Location::Page(p)) => Some(p),
                _ => None,
            })
            .collect();
        touched.extend(
            self.page_dead
                .iter()
                .filter(|(_, dead)| dead.iter().any(|k| k.pid == pid))
                .map(|(p, _)| *p),
        );
        for k in keys {
            let _ = self.invalidate(k);
        }
        let mut ios = Vec::new();
        for page in touched {
            if let Some(live) = self.page_live.remove(&page) {
                // Other processes' records share the page: rewrite them.
                self.page_dead.remove(&page);
                self.stats.compactions.inc();
                self.stats.records_compacted.add(live.len() as u64);
                for k in &live {
                    let st = self.records.get_mut(k).expect("live record indexed");
                    st.location = Location::Open;
                    st.durable = false;
                    self.open_bytes += Self::record_size(&st.record);
                    self.open.push(*k);
                }
            }
            self.free_pages.insert(page);
            ios.extend(self.erase_page(now, page));
            if self.open_bytes + 1 >= self.page_size {
                ios.extend(self.flush(now));
            }
        }
        self.checkpoints.remove(&pid);
        if let Some(pages) = self.checkpoint_pages.remove(&pid) {
            for page in pages {
                self.free_pages.insert(page);
                ios.extend(self.erase_page(now, page));
            }
        }
        ios
    }

    fn erase_page(&mut self, now: SimTime, page: u64) -> Vec<StoreIo> {
        let disk = self.disk_for_page(page);
        let (token, at) = self.disks[disk].submit(
            now,
            DiskOp::Write {
                page,
                data: Vec::new(),
            },
        );
        self.pending.insert((disk, token), PendingIo::Erase);
        vec![StoreIo { disk, token, at }]
    }

    /// Compacts the fullest-invalid page: reads it back (timing) and
    /// rewrites its live records into the open buffer. Returns the IO
    /// started, or an empty vector if nothing needs compaction.
    pub fn compact_one(&mut self, now: SimTime) -> Vec<StoreIo> {
        // Compact the page carrying the most dead space; a page with no
        // invalidated records is not worth rewriting.
        let Some((&page, _)) = self
            .page_dead
            .iter()
            .filter(|(_, dead)| !dead.is_empty())
            .max_by_key(|(p, dead)| (dead.len(), std::cmp::Reverse(**p)))
        else {
            return Vec::new();
        };
        let live = self.page_live.remove(&page).expect("selected");
        self.page_dead.remove(&page);
        self.stats.compactions.inc();
        self.stats.records_compacted.add(live.len() as u64);
        // Move the survivors back to the open buffer.
        for k in &live {
            let st = self.records.get_mut(k).expect("live record indexed");
            st.location = Location::Open;
            st.durable = false;
            self.open_bytes += Self::record_size(&st.record);
            self.open.push(*k);
        }
        self.free_pages.insert(page);
        // Timing-only read of the old page, then a physical erase so the
        // stale copy cannot resurrect at a rebuild.
        let disk = self.disk_for_page(page);
        let (token, at) = self.disks[disk].submit(now, DiskOp::Read { page });
        self.pending
            .insert((disk, token), PendingIo::CompactionRead);
        let mut ios = vec![StoreIo { disk, token, at }];
        ios.extend(self.erase_page(now, page));
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
        self.records
            .range(RecordKey { pid, seq: from_seq }..=RecordKey { pid, seq: u64::MAX })
            .filter(|(_, st)| st.valid)
            .map(|(_, st)| st.record.clone())
            .collect()
    }

    /// Issues timing reads for the pages holding `pid`'s replayable
    /// messages; the driver waits for their completions before replaying.
    pub fn replay_reads(&mut self, now: SimTime, pid: u64, from_seq: u64) -> Vec<StoreIo> {
        let mut pages = BTreeSet::new();
        for (_, st) in self
            .records
            .range(RecordKey { pid, seq: from_seq }..=RecordKey { pid, seq: u64::MAX })
        {
            if let Location::Page(p) = st.location {
                pages.insert(p);
            }
        }
        let mut ios = Vec::new();
        for page in pages {
            let disk = self.disk_for_page(page);
            let (token, at) = self.disks[disk].submit(now, DiskOp::Read { page });
            self.pending.insert((disk, token), PendingIo::ReplayRead);
            ios.push(StoreIo { disk, token, at });
        }
        ios
    }

    /// Rebuilds the in-memory index from durable pages plus the
    /// battery-backed open buffer — the §3.3.4 recorder restart scan.
    ///
    /// Returns the set of process ids that have state in the store.
    pub fn rebuild_index(&mut self) -> BTreeSet<u64> {
        // Preserve the open (battery-backed) records.
        let open_records: Vec<MsgRecord> = self
            .open
            .iter()
            .filter_map(|k| self.records.get(k).map(|st| st.record.clone()))
            .collect();
        self.records.clear();
        self.page_live.clear();
        self.page_dead.clear();
        self.checkpoints.clear();
        self.checkpoint_pages.clear();
        self.free_pages.clear();
        self.open.clear();
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
            chunks.sort_by_key(|c| c.0);
            chunks.dedup_by_key(|c| c.0);
            // A checkpoint interrupted by the crash is incomplete; it
            // never "happened" — the previous one remains authoritative.
            let total = chunks.first().map(|c| c.3).unwrap_or(0) as usize;
            let complete =
                chunks.len() == total && chunks.iter().enumerate().all(|(i, c)| c.0 == i as u64);
            if !complete {
                for c in chunks {
                    self.free_pages.insert(c.2);
                    let disk = self.disk_for_page(c.2);
                    self.disks[disk].wipe_page(c.2);
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
                        self.free_pages.insert(p);
                        let disk = self.disk_for_page(p);
                        self.disks[disk].wipe_page(p);
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
                    self.free_pages.insert(p);
                    let disk = self.disk_for_page(p);
                    self.disks[disk].wipe_page(p);
                }
            }
        }

        // Re-index message records, dropping ones superseded by
        // checkpoints — but remembering the dropped ones as dead bytes on
        // their page, so compaction and purge keep scrubbing them.
        for (page, recs) in message_pages {
            let mut live = Vec::new();
            for r in recs {
                let floor = self
                    .checkpoints
                    .get(&r.key.pid)
                    .map(|c| c.upto_seq)
                    .unwrap_or(0);
                if r.key.seq < floor || self.records.contains_key(&r.key) {
                    self.page_dead.entry(page).or_default().push(r.key);
                    continue;
                }
                live.push(r.key);
                self.records.insert(
                    r.key,
                    RecordState {
                        record: r,
                        location: Location::Page(page),
                        durable: true,
                        valid: true,
                    },
                );
            }
            if live.is_empty() {
                self.free_pages.insert(page);
                self.page_dead.remove(&page);
                let disk = self.disk_for_page(page);
                self.disks[disk].wipe_page(page);
            } else {
                self.page_live.insert(page, live);
            }
        }

        // Restore the battery-backed open buffer.
        for r in open_records {
            let floor = self
                .checkpoints
                .get(&r.key.pid)
                .map(|c| c.upto_seq)
                .unwrap_or(0);
            if r.key.seq < floor || self.records.contains_key(&r.key) {
                continue;
            }
            let key = r.key;
            self.open_bytes += Self::record_size(&r);
            self.open.push(key);
            self.records.insert(
                key,
                RecordState {
                    record: r,
                    location: Location::Open,
                    durable: false,
                    valid: true,
                },
            );
        }

        let mut pids: BTreeSet<u64> = self.records.keys().map(|k| k.pid).collect();
        pids.extend(self.checkpoints.keys().copied());
        pids
    }

    /// Simulates loss of non-battery-backed state at a recorder crash: the
    /// in-memory index vanishes (callers must [`StableStore::rebuild_index`])
    /// but durable pages and the battery-backed buffer survive.
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
        let mut inflight: Vec<((usize, IoToken), PendingIo)> =
            std::mem::take(&mut self.pending).into_iter().collect();
        inflight.sort_by_key(|(k, _)| *k);
        for (_, p) in inflight {
            let PendingIo::PageWrite { keys } = p else {
                continue;
            };
            for k in keys {
                let Some(st) = self.records.get_mut(&k) else {
                    continue;
                };
                if !st.durable && st.valid && st.location != Location::Open {
                    st.location = Location::Open;
                    self.open_bytes += Self::record_size(&st.record);
                    self.open.push(k);
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
