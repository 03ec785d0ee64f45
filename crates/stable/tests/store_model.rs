//! Model-based property tests for the stable store: random
//! append/flush/checkpoint/compact/purge/retire sequences, checked
//! against a simple reference map, including full index rebuilds (the
//! recorder-crash path) at arbitrary points.

use proptest::prelude::*;
use publishing_sim::codec::Decoder;
use publishing_sim::time::SimTime;
use publishing_stable::disk::{DiskFaults, DiskParams};
use publishing_stable::store::{Checkpoint, RecordKey, StableStore, StoreEvent, StoreIo};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

#[derive(Debug, Clone)]
enum Op {
    Append { pid: u64, payload_len: usize },
    Flush,
    Checkpoint { pid: u64, consume: u64 },
    Compact,
    Purge { pid: u64 },
    Retire { pid: u64 },
    Rebuild,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1u64..4, 1usize..300).prop_map(|(pid, payload_len)| Op::Append { pid, payload_len }),
        1 => Just(Op::Flush),
        1 => (1u64..4, 0u64..6).prop_map(|(pid, consume)| Op::Checkpoint { pid, consume }),
        1 => Just(Op::Compact),
        1 => (1u64..4).prop_map(|pid| Op::Purge { pid }),
        1 => (1u64..4).prop_map(|pid| Op::Retire { pid }),
        1 => Just(Op::Rebuild),
    ]
}

/// The models' process slots. An op names a slot (1..=3); a retired
/// slot's process is gone for good and the slot moves on to a fresh pid,
/// the way a kernel never reuses a local id — so a retired pid is never
/// appended again.
#[derive(Default)]
struct Slots {
    /// Slot → its current pid, once renamed.
    current: BTreeMap<u64, u64>,
    retired: BTreeSet<u64>,
}

impl Slots {
    fn pid(&self, slot: u64) -> u64 {
        self.current.get(&slot).copied().unwrap_or(slot)
    }

    /// Retires the slot's pid and renames the slot; returns the old pid.
    fn retire(&mut self, slot: u64) -> u64 {
        let pid = self.pid(slot);
        self.retired.insert(pid);
        self.current.insert(slot, pid + 10);
        pid
    }

    /// Every pid a slot has had, current or retired.
    fn all(&self) -> Vec<u64> {
        (1u64..4)
            .map(|s| self.pid(s))
            .chain(self.retired.iter().copied())
            .collect()
    }
}

/// No retired record or checkpoint is visible, and — when `scanned`, just
/// after a rebuild — no page on disk holds only retired records, and no
/// checkpoint chunk of a retired process is left. (A page torn too short
/// to parse is garbage to every rebuild, whoever wrote it.)
fn check_retired(store: &StableStore, slots: &Slots, scanned: bool) {
    for &pid in &slots.retired {
        prop_assert!(store.retired(pid), "pid {} lost its tombstone", pid);
        prop_assert!(
            store.messages_from(pid, 0).is_empty(),
            "retired pid {} has records",
            pid
        );
        prop_assert!(
            store.latest_checkpoint(pid).is_none(),
            "retired pid {} has a checkpoint",
            pid
        );
    }
    if !scanned {
        return;
    }
    for page in 0..4096 {
        let Some(bytes) = store.peek_page(page).filter(|b| !b.is_empty()) else {
            continue;
        };
        let mut d = Decoder::new(bytes);
        match d.u8() {
            Ok(0) => {
                let count = d.u64().unwrap_or(0);
                let mut pids = Vec::new();
                for _ in 0..count {
                    let (Ok(pid), Ok(_), Ok(_), Ok(_)) = (d.u64(), d.u64(), d.u64(), d.bytes())
                    else {
                        break;
                    };
                    pids.push(pid);
                }
                prop_assert!(
                    pids.is_empty() || pids.iter().any(|p| !slots.retired.contains(p)),
                    "page {} kept by the rebuild holds only retired records: {:?}",
                    page,
                    pids
                );
            }
            Ok(1) => {
                let (Ok(pid), Ok(_), Ok(_), Ok(_), Ok(_)) =
                    (d.u64(), d.u64(), d.u64(), d.u64(), d.bytes())
                else {
                    continue;
                };
                prop_assert!(
                    !slots.retired.contains(&pid),
                    "page {} kept by the rebuild is a checkpoint chunk of retired pid {}",
                    page,
                    pid
                );
            }
            _ => {}
        }
    }
}

/// Drains all outstanding IO, including follow-up erases the store
/// starts while completing other IO.
fn drain(store: &mut StableStore, ios: Vec<StoreIo>) {
    let mut queue = ios;
    while let Some(io) = queue.pop() {
        for ev in store.on_disk_complete(io.at, io) {
            if let publishing_stable::store::StoreEvent::FollowUpIo(next) = ev {
                queue.push(next);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn store_matches_reference(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let mut store = StableStore::new(DiskParams::default(), 2);
        // Reference: pid → (next_seq, floor, map seq → payload).
        let mut next_seq: BTreeMap<u64, u64> = BTreeMap::new();
        let mut floor: BTreeMap<u64, u64> = BTreeMap::new();
        let mut data: BTreeMap<u64, BTreeMap<u64, Vec<u8>>> = BTreeMap::new();
        let mut slots = Slots::default();
        for (i, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_millis((i as u64 + 1) * 100);
            let mut rebuilt = false;
            match op {
                Op::Append { pid, payload_len } => {
                    let pid = slots.pid(pid);
                    let seq = *next_seq.get(&pid).unwrap_or(&0);
                    next_seq.insert(pid, seq + 1);
                    let payload = vec![(seq % 251) as u8; payload_len];
                    data.entry(pid).or_default().insert(seq, payload.clone());
                    let ios = store.append_message(now, RecordKey { pid, seq }, payload);
                    drain(&mut store, ios);
                }
                Op::Flush => {
                    let ios = store.flush(now);
                    drain(&mut store, ios);
                }
                Op::Checkpoint { pid, consume } => {
                    let pid = slots.pid(pid);
                    let lo = *floor.get(&pid).unwrap_or(&0);
                    let hi = (*next_seq.get(&pid).unwrap_or(&0)).min(lo + consume);
                    floor.insert(pid, hi);
                    if let Some(map) = data.get_mut(&pid) {
                        map.retain(|&s, _| s >= hi);
                    }
                    let cp = Checkpoint { pid, upto_seq: hi, blob: vec![pid as u8; 64] };
                    let ios = store.write_checkpoint(now, cp);
                    drain(&mut store, ios);
                }
                Op::Compact => {
                    let ios = store.compact_one(now);
                    drain(&mut store, ios);
                }
                Op::Purge { pid } => {
                    let pid = slots.pid(pid);
                    data.remove(&pid);
                    next_seq.remove(&pid);
                    floor.remove(&pid);
                    let ios = store.purge_process(now, pid);
                    drain(&mut store, ios);
                }
                Op::Retire { pid } => {
                    let pid = slots.retire(pid);
                    data.remove(&pid);
                    let ios = store.retire_process(now, pid);
                    drain(&mut store, ios);
                }
                Op::Rebuild => {
                    let pids = store.rebuild_index();
                    prop_assert!(pids.is_disjoint(&slots.retired), "rebuild lists a retired pid");
                    rebuilt = true;
                }
            }
            check_retired(&store, &slots, rebuilt);
            // Invariant: surviving messages per pid match the reference.
            for pid in slots.all() {
                let expect: Vec<(u64, Vec<u8>)> = data
                    .get(&pid)
                    .map(|m| m.iter().map(|(s, p)| (*s, p.clone())).collect())
                    .unwrap_or_default();
                let got: Vec<(u64, Vec<u8>)> = store
                    .messages_from(pid, 0)
                    .into_iter()
                    .map(|r| (r.key.seq, r.payload.to_vec()))
                    .collect();
                prop_assert_eq!(&got, &expect, "pid {} after op {}", pid, i);
            }
        }

        // Final rebuild must preserve everything once more.
        let before: Vec<_> = slots.all().into_iter().map(|p| store.messages_from(p, 0)).collect();
        store.rebuild_index();
        check_retired(&store, &slots, true);
        let after: Vec<_> = slots.all().into_iter().map(|p| store.messages_from(p, 0)).collect();
        prop_assert_eq!(before, after);
    }
}

/// Ops for the crash-interleaving model: IO completions are delivered one
/// at a time (so compactions, flushes, and checkpoints can be caught
/// mid-flight), and a crash drops all undelivered completions, tears
/// in-flight writes (when enabled), and rebuilds the index.
#[derive(Debug, Clone)]
enum ChaosOp {
    Append { pid: u64, payload_len: usize },
    Flush,
    Checkpoint { pid: u64, consume: u64 },
    Compact,
    Retire { pid: u64 },
    Deliver,
    Crash,
}

fn arb_chaos_op() -> impl Strategy<Value = ChaosOp> {
    prop_oneof![
        5 => (1u64..4, 1usize..300)
            .prop_map(|(pid, payload_len)| ChaosOp::Append { pid, payload_len }),
        2 => Just(ChaosOp::Flush),
        2 => (1u64..4, 0u64..6).prop_map(|(pid, consume)| ChaosOp::Checkpoint { pid, consume }),
        3 => Just(ChaosOp::Compact),
        1 => (1u64..4).prop_map(|pid| ChaosOp::Retire { pid }),
        5 => Just(ChaosOp::Deliver),
        2 => Just(ChaosOp::Crash),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Crash-during-compaction (and during flush/checkpoint) never loses
    /// a record the store accepted: every appended record whose sequence
    /// is at or above the durable checkpoint floor survives every
    /// crash + rebuild, byte for byte — the recorder acks a publication
    /// to its sender as soon as the store holds it, so a lost record here
    /// would be a broken promise to a sender.
    ///
    /// The same run also checks checkpoint-image round-tripping under
    /// torn writes: `latest_checkpoint` must always return exactly one
    /// blob that was submitted for that process — never a torn prefix,
    /// never a splice of two checkpoints — because the quorum snapshot
    /// path ships these images verbatim to catching-up replicas, and a
    /// replica installing a torn image would import garbage process
    /// state. Blobs are multi-page and pairwise distinct so a splice or
    /// truncation cannot masquerade as a valid image.
    ///
    /// Retirement is durable at once: whatever erases a crash drops, no
    /// rebuild brings back a retired process's records or checkpoint, or
    /// keeps a page that holds only its records.
    #[test]
    fn crash_during_compaction_loses_no_acked_record(
        ops in proptest::collection::vec(arb_chaos_op(), 1..80),
        torn_writes in any::<bool>(),
        transient in any::<bool>(),
    ) {
        let mut store = StableStore::new(DiskParams::default(), 2);
        store.set_disk_faults(DiskFaults {
            transient_error: if transient { 0.3 } else { 0.0 },
            torn_writes,
            seed: 42,
        });
        // Undelivered IO completions, FIFO. A crash drops them all: they
        // belong to the crashed host.
        let mut outstanding: VecDeque<StoreIo> = VecDeque::new();
        // Reference: pid → seq → payload, pruned at *observed* checkpoint
        // completions only (a checkpoint interrupted by a crash never
        // happened).
        let mut next_seq: BTreeMap<u64, u64> = BTreeMap::new();
        let mut data: BTreeMap<u64, BTreeMap<u64, Vec<u8>>> = BTreeMap::new();
        // Every checkpoint image ever submitted, per pid. The store's
        // latest checkpoint must always be one of these, bytes and
        // floor both — whole-image atomicity under torn page writes.
        let mut submitted: BTreeMap<u64, Vec<(u64, Vec<u8>)>> = BTreeMap::new();
        let mut blob_counter = 0u64;
        let mut now = SimTime::ZERO;
        let mut crashes = 0u32;
        let mut slots = Slots::default();
        for (i, op) in ops.into_iter().enumerate() {
            now = now.max(SimTime::from_millis((i as u64 + 1) * 50));
            let mut rebuilt = false;
            match op {
                ChaosOp::Append { pid, payload_len } => {
                    let pid = slots.pid(pid);
                    let seq = *next_seq.get(&pid).unwrap_or(&0);
                    next_seq.insert(pid, seq + 1);
                    let payload = vec![(seq % 251) as u8; payload_len];
                    data.entry(pid).or_default().insert(seq, payload.clone());
                    outstanding.extend(store.append_message(now, RecordKey { pid, seq }, payload));
                }
                ChaosOp::Flush => outstanding.extend(store.flush(now)),
                ChaosOp::Checkpoint { pid, consume } => {
                    let pid = slots.pid(pid);
                    // Floor advances only when the checkpoint durably
                    // completes (observed below as CheckpointDurable).
                    let lo = data
                        .get(&pid)
                        .and_then(|m| m.keys().next().copied())
                        .unwrap_or(0);
                    let hi = (*next_seq.get(&pid).unwrap_or(&0)).min(lo + consume);
                    // Multi-page, pairwise-distinct image: a torn
                    // prefix or a splice of two images can never equal
                    // a submitted blob.
                    blob_counter += 1;
                    let len = 200 + ((blob_counter * 977) % 2800) as usize;
                    let blob: Vec<u8> = (0..len)
                        .map(|j| (blob_counter as u8).wrapping_add(j as u8))
                        .collect();
                    submitted
                        .entry(pid)
                        .or_default()
                        .push((hi, blob.clone()));
                    let cp = Checkpoint { pid, upto_seq: hi, blob };
                    outstanding.extend(store.write_checkpoint(now, cp));
                }
                ChaosOp::Compact => outstanding.extend(store.compact_one(now)),
                ChaosOp::Retire { pid } => {
                    let pid = slots.retire(pid);
                    data.remove(&pid);
                    outstanding.extend(store.retire_process(now, pid));
                }
                ChaosOp::Deliver => {
                    if let Some(io) = outstanding.pop_front() {
                        for ev in store.on_disk_complete(io.at, io) {
                            match ev {
                                StoreEvent::CheckpointDurable { pid, upto_seq } => {
                                    if let Some(m) = data.get_mut(&pid) {
                                        m.retain(|&s, _| s >= upto_seq);
                                    }
                                }
                                StoreEvent::FollowUpIo(next) => outstanding.push_back(next),
                                _ => {}
                            }
                        }
                    }
                }
                ChaosOp::Crash => {
                    crashes += 1;
                    outstanding.clear();
                    store.crash_volatile_state();
                    let pids = store.rebuild_index();
                    prop_assert!(pids.is_disjoint(&slots.retired), "rebuild lists a retired pid");
                    rebuilt = true;
                }
            }
            check_retired(&store, &slots, rebuilt);
            // Invariant: every reference record is present, byte for byte.
            // (The store may hold *more* — e.g. a record whose superseding
            // checkpoint died with the crash — never less.)
            for (&pid, m) in &data {
                let got: BTreeMap<u64, Vec<u8>> = store
                    .messages_from(pid, 0)
                    .into_iter()
                    .map(|r| (r.key.seq, r.payload.to_vec()))
                    .collect();
                for (&seq, payload) in m {
                    prop_assert_eq!(
                        got.get(&seq),
                        Some(payload),
                        "pid {} seq {} lost after op {} (crashes so far: {})",
                        pid, seq, i, crashes
                    );
                }
            }
            // Invariant: the latest checkpoint, if any, is EXACTLY one
            // submitted image — floor and bytes — regardless of crashes
            // and torn in-flight chunk writes.
            for pid in slots.all() {
                if let Some(cp) = store.latest_checkpoint(pid) {
                    let known = submitted
                        .get(&pid)
                        .is_some_and(|v| v.iter().any(|(hi, b)| *hi == cp.upto_seq && *b == cp.blob));
                    prop_assert!(
                        known,
                        "pid {}: latest checkpoint (floor {}, {} bytes) is not a \
                         submitted image after op {} (crashes: {})",
                        pid, cp.upto_seq, cp.blob.len(), i, crashes
                    );
                }
            }
        }

        // One final crash + rebuild, whatever was in flight.
        outstanding.clear();
        store.crash_volatile_state();
        store.rebuild_index();
        check_retired(&store, &slots, true);
        for (&pid, m) in &data {
            let got: BTreeMap<u64, Vec<u8>> = store
                .messages_from(pid, 0)
                .into_iter()
                .map(|r| (r.key.seq, r.payload.to_vec()))
                .collect();
            for (&seq, payload) in m {
                prop_assert_eq!(got.get(&seq), Some(payload), "pid {} seq {} lost at end", pid, seq);
            }
        }
        for pid in slots.all() {
            if let Some(cp) = store.latest_checkpoint(pid) {
                let known = submitted
                    .get(&pid)
                    .is_some_and(|v| v.iter().any(|(hi, b)| *hi == cp.upto_seq && *b == cp.blob));
                prop_assert!(
                    known,
                    "pid {}: surviving checkpoint (floor {}, {} bytes) is torn or spliced",
                    pid, cp.upto_seq, cp.blob.len()
                );
            }
        }
    }
}

/// FNV-1a over everything a trace pin observes.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn ios(&mut self, ios: &[StoreIo]) {
        self.u64(ios.len() as u64);
        for io in ios {
            self.u64(io.disk as u64);
            self.u64(io.token.0);
            self.u64(io.at.as_nanos());
        }
    }

    fn event(&mut self, ev: &StoreEvent) {
        match ev {
            StoreEvent::MessagesDurable(keys) => {
                self.u64(1);
                self.u64(keys.len() as u64);
                for k in keys {
                    self.u64(k.pid);
                    self.u64(k.seq);
                }
            }
            StoreEvent::CheckpointDurable { pid, upto_seq } => {
                self.u64(2);
                self.u64(*pid);
                self.u64(*upto_seq);
            }
            StoreEvent::ReadDone => self.u64(3),
            StoreEvent::FollowUpIo(io) => {
                self.u64(4);
                self.ios(std::slice::from_ref(io));
            }
        }
    }

    fn store(&mut self, store: &StableStore) {
        let s = store.stats();
        for c in [
            &s.appended,
            &s.pages_written,
            &s.pages_freed,
            &s.compactions,
            &s.records_compacted,
            &s.checkpoints,
            &s.io_retries,
        ] {
            self.u64(c.get());
        }
    }
}

/// Completes one IO at its completion time, folding the events and
/// queueing the follow-up IO they carry.
fn deliver(
    store: &mut StableStore,
    f: &mut Fold,
    outstanding: &mut VecDeque<StoreIo>,
    now: &mut SimTime,
    io: StoreIo,
) {
    *now = (*now).max(io.at);
    for ev in store.on_disk_complete(*now, io) {
        f.event(&ev);
        if let StoreEvent::FollowUpIo(next) = ev {
            outstanding.push_back(next);
        }
    }
}

/// One fixed operation sequence over every `pub fn` of the store, with
/// transient disk errors and torn writes on and completions delivered in
/// submission order, in reverse and not at all (a crash drops them).
/// Every `StoreIo`, `StoreEvent`, counter, query answer and — at the end
/// — page byte is folded into one value. Two record maps that index the
/// same log must fold alike, whatever they are made of.
fn store_trace(n_disks: usize) -> u64 {
    const PIDS: u64 = 4;
    let mut store = StableStore::new(DiskParams::default(), n_disks);
    store.set_disk_faults(DiskFaults {
        transient_error: 0.15,
        torn_writes: true,
        seed: 7,
    });
    let mut f = Fold::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = move |n: u64| {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) % n
    };
    let mut next_seq = [0u64; PIDS as usize];
    // Sequences skipped on purpose: a later append fills them, the way a
    // quorum re-apply commits below records rebuilt from disk.
    let mut holes: Vec<RecordKey> = Vec::new();
    let mut floor = [0u64; PIDS as usize];
    let mut outstanding: VecDeque<StoreIo> = VecDeque::new();
    let mut now = SimTime::ZERO;
    for step in 0..700u64 {
        now = now.max(SimTime::from_micros((step + 1) * 700));
        let op = draw(30);
        f.u64(op);
        match op {
            0..=9 => {
                let p = draw(PIDS);
                if draw(8) == 0 {
                    holes.push(RecordKey {
                        pid: p + 1,
                        seq: next_seq[p as usize],
                    });
                    next_seq[p as usize] += 1;
                }
                let key = RecordKey {
                    pid: p + 1,
                    seq: next_seq[p as usize],
                };
                next_seq[p as usize] += 1;
                let len = if draw(5) == 0 { 900 } else { 20 } + draw(200) as usize;
                // A crash can drop a purge's erases, and the rebuild then
                // resurrects the purged records under their old keys.
                let held = store.holds(key);
                f.u64(u64::from(held));
                if !held {
                    let ios = store.append_message(now, key, vec![(key.seq % 251) as u8; len]);
                    f.ios(&ios);
                    outstanding.extend(ios);
                }
            }
            10 => {
                if let Some(key) = holes.pop() {
                    let held = store.holds(key);
                    f.u64(u64::from(held));
                    if !held && key.seq < next_seq[(key.pid - 1) as usize] {
                        let ios = store.append_message(now, key, vec![0xEE; 33]);
                        f.ios(&ios);
                        outstanding.extend(ios);
                    }
                }
            }
            11 | 12 => {
                let ios = store.flush(now);
                f.ios(&ios);
                outstanding.extend(ios);
            }
            13 | 14 => {
                let p = draw(PIDS) as usize;
                floor[p] = next_seq[p].min(floor[p] + draw(7));
                let len = if draw(4) == 0 {
                    5000 + draw(4000)
                } else {
                    40 + draw(300)
                } as usize;
                let blob: Vec<u8> = (0..len)
                    .map(|j| (step as u8).wrapping_add(j as u8))
                    .collect();
                let cp = Checkpoint {
                    pid: p as u64 + 1,
                    upto_seq: floor[p],
                    blob,
                };
                let ios = store.write_checkpoint(now, cp);
                f.ios(&ios);
                outstanding.extend(ios);
            }
            15 | 16 => {
                let ios = store.compact_one(now);
                f.ios(&ios);
                outstanding.extend(ios);
            }
            17 => {
                let p = draw(PIDS) as usize;
                let ios = store.purge_process(now, p as u64 + 1);
                f.ios(&ios);
                outstanding.extend(ios);
                next_seq[p] = 0;
                floor[p] = 0;
                holes.retain(|k| k.pid != p as u64 + 1);
            }
            18 | 19 => {
                let p = draw(PIDS) as usize;
                let key = RecordKey {
                    pid: p as u64 + 1,
                    seq: draw(next_seq[p] + 1),
                };
                let ios = store.invalidate_record(now, key);
                f.ios(&ios);
                outstanding.extend(ios);
            }
            20 => {
                let p = draw(PIDS);
                let ios = store.replay_reads(now, p + 1, draw(next_seq[p as usize] + 1));
                f.ios(&ios);
                outstanding.extend(ios);
            }
            21..=24 => {
                if let Some(io) = outstanding.pop_front() {
                    deliver(&mut store, &mut f, &mut outstanding, &mut now, io);
                }
            }
            25 | 26 => {
                if let Some(io) = outstanding.pop_back() {
                    deliver(&mut store, &mut f, &mut outstanding, &mut now, io);
                }
            }
            27 => {
                while let Some(io) = outstanding.pop_front() {
                    deliver(&mut store, &mut f, &mut outstanding, &mut now, io);
                }
            }
            28 => {
                // The recorder-crash path: undelivered completions die
                // with the host, in-flight writes tear.
                outstanding.clear();
                store.crash_volatile_state();
                for pid in store.rebuild_index() {
                    f.u64(pid);
                }
            }
            _ => {
                // A rebuild of a quiescent store.
                while let Some(io) = outstanding.pop_front() {
                    deliver(&mut store, &mut f, &mut outstanding, &mut now, io);
                }
                for pid in store.rebuild_index() {
                    f.u64(pid);
                }
            }
        }
        f.store(&store);
        if step % 8 == 7 {
            for pid in 1..=PIDS {
                for r in store.messages_from(pid, draw(3)) {
                    f.u64(r.key.seq);
                    f.u64(r.received_at.as_nanos());
                    f.bytes(&r.payload);
                }
                match store.latest_checkpoint(pid) {
                    Some(cp) => {
                        f.u64(cp.upto_seq);
                        f.bytes(&cp.blob);
                    }
                    None => f.u64(u64::MAX),
                }
            }
        }
    }
    while let Some(io) = outstanding.pop_front() {
        deliver(&mut store, &mut f, &mut outstanding, &mut now, io);
    }
    f.store(&store);
    for page in 0..512 {
        match store.peek_page(page) {
            Some(bytes) => f.bytes(bytes),
            None => f.u64(u64::MAX),
        }
    }
    for d in 0..n_disks {
        let s = store.disk_stats(d);
        for c in [
            &s.writes,
            &s.reads,
            &s.bytes_written,
            &s.bytes_read,
            &s.transient_errors,
            &s.torn_writes,
        ] {
            f.u64(c.get());
        }
        f.u64(s.response_ms.count());
        f.u64(s.busy.busy_time(now).as_nanos());
    }
    // The trace is only a pin if it went everywhere.
    let s = store.stats();
    assert!(s.pages_freed.get() > 0 && s.compactions.get() > 0 && s.io_retries.get() > 0);
    assert!(s.checkpoints.get() > 10 && s.pages_written.get() > 40);
    f.0
}

/// Constants captured on the `BTreeMap<RecordKey, RecordState>` store,
/// before the per-process logs and the page table replaced it.
#[test]
fn store_trace_is_pinned_on_one_and_two_disks() {
    assert_eq!(store_trace(1), 15_270_552_759_505_856_666, "1 disk");
    assert_eq!(store_trace(2), 13_389_227_163_172_641_349, "2 disks");
}
