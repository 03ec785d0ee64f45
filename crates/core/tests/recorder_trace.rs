//! Trace pin for the passive recorder: one scripted sequence over every
//! entry point — creation and destruction notices, captures, acks
//! (in order, out of order, duplicate, orphaned), read-order notices,
//! checkpoint deposits, disk completions, restarts, a shard hand-off
//! (`export_process` + `forget` + `import_process`) and, in quorum mode, commits at
//! fixed sequences including ones below the floor a restart rebuilt —
//! folded over every returned IO, the counters, the span fingerprint and
//! the database entries.
//!
//! `fixtures/recorder_trace.txt` holds the fold after every 8 steps, with
//! those steps' ops, per mode; a change names the first window that
//! moved. The script draws the same ops whatever the recorder answers,
//! so two recorders can be compared op for op, and it never reuses a
//! destroyed pid: the recorder retires it for good (a kernel never hands
//! a local id out twice), so a destroyed slot takes a fresh local id.
//!
//! The fixture was pinned on the recorder that retires a destroyed
//! process in place. The one before purged it (`forget`): with
//! `on_destroyed` swapped for `forget`, this script answers as that
//! recorder did, op for op. Swapping back one destroy at a time, each
//! swap's first changed answer is one of three intended kinds — the
//! destroy starts fewer IOs; a later restart no longer lists the retired
//! pid; a checkpoint write in flight at the destroy completes void
//! (scrubbed, never installed or reported durable) — and every later
//! change follows from the state that one destroy left.

use publishing_core::recorder::{PublishCost, Recorder};
use publishing_demos::ids::{Channel, MessageId, NodeId, ProcessId};
use publishing_demos::link::Link;
use publishing_demos::message::{Message, MessageHeader};
use publishing_demos::protocol::{CheckpointDeposit, ReadOrderNotice};
use publishing_sim::codec::Encode;
use publishing_sim::time::SimTime;
use publishing_stable::disk::DiskParams;
use publishing_stable::store::StoreIo;
use std::collections::VecDeque;

/// FNV-1a over everything the pin observes.
struct Fold(u64);

impl Fold {
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

    fn id(&mut self, id: MessageId) {
        self.u64(id.sender.as_u64());
        self.u64(id.seq);
    }

    fn ios(&mut self, ios: &[StoreIo]) {
        self.u64(ios.len() as u64);
        for io in ios {
            self.u64(io.disk as u64);
            self.u64(io.token.0);
            self.u64(io.at.as_nanos());
        }
    }

    fn counters(&mut self, r: &Recorder) {
        let s = r.stats();
        for c in [
            &s.captured,
            &s.published,
            &s.bytes_published,
            &s.duplicates,
            &s.orphan_acks,
            &s.notices,
            &s.checkpoints,
        ] {
            self.u64(c.get());
        }
        self.u64(s.cpu_used.as_nanos());
        self.u64(s.depth_hist.summary().count());
        self.u64(r.pending_depth() as u64);
        self.u64(r.spans().fingerprint());
        self.u64(r.spans().total());
        self.u64(r.restart_number());
        let st = r.store().stats();
        for c in [
            &st.appended,
            &st.pages_written,
            &st.pages_freed,
            &st.checkpoints,
        ] {
            self.u64(c.get());
        }
    }

    fn database(&mut self, r: &Recorder) {
        for pid in r.known_pids() {
            self.u64(pid.as_u64());
            let e = r.entry(pid).expect("known");
            self.bytes(e.program_name.as_bytes());
            self.u64(e.initial_links.len() as u64);
            for &(seq, id) in &e.arrivals {
                self.u64(seq);
                self.id(id);
            }
            for (&idx, &id) in &e.pins {
                self.u64(idx);
                self.id(id);
            }
            self.u64(e.read_floor);
            self.u64(e.next_arrival_seq);
            for (&dst, &w) in &e.last_sent {
                self.u64(dst.as_u64());
                self.u64(w);
            }
            self.u64(u64::from(e.recovering) | u64::from(e.recoverable) << 1);
            self.bytes(e.checkpoint_image.as_deref().unwrap_or(b"-"));
            self.u64(e.bytes_since_checkpoint);
            self.u64(e.estimator.messages_since);
            self.u64(e.estimator.message_bytes_since);
            self.u64(e.estimator.checkpoint_at.as_nanos());
            for (idx, m) in r.replay_stream(pid) {
                self.u64(idx);
                self.id(m.header.id);
                self.bytes(&m.body);
            }
            for (dst, w) in r.suppress_vector(pid) {
                self.u64(dst.as_u64());
                self.u64(w);
            }
            self.u64(r.next_arrival_seq(pid));
        }
    }
}

/// The scripted processes' first incarnations. A destroyed pid is gone
/// for good — the recorder retires it, and a kernel never hands it out
/// again — so its slot takes a fresh local id on the same node.
const PIDS: [ProcessId; 4] = [
    ProcessId::new(1, 1),
    ProcessId::new(1, 2),
    ProcessId::new(2, 1),
    ProcessId::new(2, 2),
];

struct Script {
    r: Recorder,
    /// The live pid in each of the four slots.
    pids: [ProcessId; 4],
    /// The next fresh local id.
    next_local: u32,
    f: Fold,
    x: u64,
    now: SimTime,
    /// What the recorder's last call started: every entry point appends
    /// its IO here, in the order it started it.
    ios: Vec<StoreIo>,
    outstanding: VecDeque<StoreIo>,
    /// Captured, not yet acknowledged, in capture order.
    unacked: Vec<Message>,
    next_msg_seq: [u64; 5],
    reads: [u64; 4],
    /// Quorum mode: the committed log, replayed after every restart.
    committed: Vec<(u64, Message)>,
    next_commit: [u64; 4],
    /// The ops since the last digest line.
    ops: Vec<u64>,
    /// One line per 8 steps: the steps, their ops, the fold after them.
    lines: Vec<String>,
}

impl Script {
    fn draw(&mut self, n: u64) -> u64 {
        self.x = self
            .x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.x >> 33) % n
    }

    /// Folds the IO the last call started and queues it for completion.
    fn started(&mut self) {
        self.f.ios(&self.ios);
        self.outstanding.extend(self.ios.drain(..));
    }

    fn complete(&mut self, io: StoreIo) {
        self.now = self.now.max(io.at);
        for pid in self.r.on_disk(self.now, io, &mut self.ios) {
            self.f.u64(pid.as_u64());
        }
        self.started();
    }

    fn message(&mut self) -> Message {
        // Sender 4 is a kernel endpoint: ids partitioned by incarnation,
        // never a watermark.
        let s = self.draw(5) as usize;
        let sender = match s {
            4 => ProcessId::kernel_of(NodeId(2)),
            _ => self.pids[s],
        };
        self.next_msg_seq[s] += 1;
        let seq = match s {
            4 => 3 << 40 | self.next_msg_seq[s],
            _ => self.next_msg_seq[s],
        };
        let to = self.pids[self.draw(4) as usize];
        let len = 1 + self.draw(300) as usize;
        Message {
            header: MessageHeader {
                id: MessageId { sender, seq },
                to,
                code: 7,
                channel: Channel(self.draw(2) as u8),
                deliver_to_kernel: false,
            },
            passed_link: (self.draw(6) == 0).then(|| Link::to(to, Channel(1), 11)),
            body: vec![seq as u8; len].into(),
        }
    }

    /// Publishes one captured message: an observed ack, or in quorum
    /// mode a commit at the next sequence of the replicated log.
    fn publish(&mut self, msg: Message, external: bool) {
        let to = msg.header.to;
        if external {
            let p = self
                .pids
                .iter()
                .position(|&p| p == to)
                .expect("scripted pid");
            let seq = self.next_commit[p].max(self.r.next_arrival_seq(to));
            self.next_commit[p] = seq + 1;
            self.committed.push((seq, msg.clone()));
            self.r
                .apply_sequenced_at(self.now, seq, &msg, &mut self.ios);
        } else {
            self.r.on_ack(self.now, msg.header.id, to, &mut self.ios);
        }
        self.started();
    }

    fn step(&mut self, step: u64, external: bool) {
        self.now = self.now.max(SimTime::from_micros((step + 1) * 900));
        let op = self.draw(40);
        self.f.u64(op);
        self.ops.push(op);
        match op {
            0..=2 => {
                let pid = self.pids[self.draw(4) as usize];
                let links = vec![Link::to(self.pids[0], Channel(0), 5); self.draw(3) as usize];
                let recoverable = self.draw(9) != 0;
                let ios = &mut self.ios;
                self.r
                    .on_created(self.now, pid, "prog", links, recoverable, ios);
                self.started();
            }
            3..=13 => {
                let msg = self.message();
                self.r.on_data(self.now, msg.clone(), msg.encode_to_bytes());
                if self.draw(7) == 0 {
                    self.r.on_data(self.now, msg.clone(), msg.encode_to_bytes());
                }
                self.unacked.push(msg);
            }
            14..=21 => {
                if !self.unacked.is_empty() {
                    // Mostly the oldest capture, sometimes any.
                    let at = match self.draw(3) {
                        0 => self.draw(self.unacked.len() as u64) as usize,
                        _ => 0,
                    };
                    let msg = self.unacked.remove(at);
                    self.publish(msg.clone(), external);
                    if self.draw(6) == 0 {
                        let ios = &mut self.ios;
                        self.r.on_ack(self.now, msg.header.id, msg.header.to, ios);
                        self.started();
                    }
                }
            }
            22 => {
                // An ack for a message nobody captured.
                let msg = self.message();
                let ios = &mut self.ios;
                self.r.on_ack(self.now, msg.header.id, msg.header.to, ios);
                self.started();
            }
            23 | 24 => {
                // Every draw is made whatever the recorder answers, so
                // two recorders that answer differently see one script.
                let (p, pick, ahead) = (self.draw(4) as usize, self.draw(1 << 16), self.draw(2));
                let ids: Vec<MessageId> = self
                    .r
                    .entry(self.pids[p])
                    .map(|e| e.arrivals.iter().map(|a| a.1).collect())
                    .unwrap_or_default();
                if ids.len() >= 2 {
                    let pick = 1 + (pick % (ids.len() as u64 - 1)) as usize;
                    let notice = ReadOrderNotice {
                        pid: self.pids[p],
                        read_index: self.reads[p] + ahead,
                        read_id: ids[pick],
                        head_id: ids[0],
                    };
                    self.r.on_read_order(self.now, &notice);
                }
            }
            25..=27 => {
                let p = self.draw(4) as usize;
                let have = self
                    .r
                    .entry(self.pids[p])
                    .map_or(0, |e| e.arrivals.len() as u64);
                self.reads[p] += self.draw(6).min(have);
                let deposit = CheckpointDeposit {
                    pid: self.pids[p],
                    read_count: self.reads[p],
                    image: vec![step as u8; 30 + self.draw(5000) as usize],
                };
                self.r.on_deposit(self.now, &deposit, &mut self.ios);
                self.started();
            }
            28..=32 => {
                if let Some(io) = self.outstanding.pop_front() {
                    self.complete(io);
                }
            }
            33 => {
                if let Some(io) = self.outstanding.pop_back() {
                    self.complete(io);
                }
            }
            34 => {
                while let Some(io) = self.outstanding.pop_front() {
                    self.complete(io);
                }
            }
            35 => {
                let p = self.draw(4) as usize;
                let gone = self.pids[p];
                self.r.on_destroyed(self.now, gone, &mut self.ios);
                self.started();
                self.unacked.retain(|m| m.header.to != gone);
                self.pids[p] = ProcessId::new(gone.node.0, self.next_local);
                self.next_local += 1;
                (self.reads[p], self.next_msg_seq[p], self.next_commit[p]) = (0, 0, 0);
            }
            36 => {
                // The recorder crashes: its timers, and with them every
                // undelivered completion, die with it.
                self.outstanding.clear();
                for pid in self.r.restart(self.now, &mut self.ios) {
                    self.f.u64(pid.as_u64());
                }
                self.started();
                if external {
                    // The log replays its committed prefix over the
                    // rebuilt recorder — sequences below its floor too.
                    for (seq, msg) in self.committed.clone() {
                        self.r
                            .apply_sequenced_at(self.now, seq, &msg, &mut self.ios);
                        self.started();
                    }
                } else {
                    // Local mode drained the capture buffer itself.
                    self.unacked.clear();
                }
            }
            37 => {
                let pid = self.pids[self.draw(4) as usize];
                if let Some(export) = self.r.export_process(pid) {
                    self.f.u64(export.records.len() as u64);
                    self.f.u64(export.pending.len() as u64);
                    for m in &export.pending {
                        self.f.id(m.header.id);
                    }
                    self.r.forget(self.now, pid, &mut self.ios);
                    self.started();
                    self.r.import_process(self.now, export, &mut self.ios);
                    self.started();
                }
            }
            38 => {
                self.r.maintain(self.now, &mut self.ios);
                self.started();
            }
            _ => {
                if let Some(m) = self.unacked.first() {
                    let id = m.header.id;
                    let body = self.r.pending_message(id).map(|m| m.body.clone());
                    self.f.bytes(body.as_deref().unwrap_or(b"-"));
                    self.f.u64(u64::from(self.r.is_sequenced(id)));
                }
            }
        }
        self.f.counters(&self.r);
        if step % 8 == 7 {
            self.f.database(&self.r);
            self.digest(&format!("{:03}-{step:03}", step - 7));
        }
    }

    /// Ends a digest line: `steps`, the ops of those steps, the fold.
    fn digest(&mut self, steps: &str) {
        let ops: Vec<String> = self.ops.drain(..).map(|op| op.to_string()).collect();
        let line = format!("{steps} ops {} fold {:016x}", ops.join(" "), self.f.0);
        self.lines.push(line);
    }
}

/// The script's digest lines, in mode `external`.
fn recorder_trace(external: bool) -> Vec<String> {
    let mut r = Recorder::new(NodeId(9), DiskParams::default(), 2, PublishCost::MediaLayer);
    r.set_external_sequencing(external);
    let mut s = Script {
        r,
        pids: PIDS,
        next_local: 3,
        f: Fold(0xcbf2_9ce4_8422_2325),
        x: 0x2545_f491_4f6c_dd1d,
        now: SimTime::ZERO,
        ios: Vec::new(),
        outstanding: VecDeque::new(),
        unacked: Vec::new(),
        next_msg_seq: [0; 5],
        reads: [0; 4],
        committed: Vec::new(),
        next_commit: [0; 4],
        ops: Vec::new(),
        lines: Vec::new(),
    };
    for step in 0..900 {
        s.step(step, external);
    }
    while let Some(io) = s.outstanding.pop_front() {
        s.complete(io);
    }
    // Every IO the recorder started was handed out: the store owes none.
    assert!(!s.r.store().io_outstanding());
    s.f.counters(&s.r);
    s.f.database(&s.r);
    s.digest("896-end");
    // The script is only a pin if it went everywhere.
    let st = s.r.stats();
    assert!(st.published.get() > 100 && st.duplicates.get() > 10);
    assert!(st.orphan_acks.get() > 0 && st.notices.get() > 0 && st.checkpoints.get() > 10);
    assert!(s.r.restart_number() > 3);
    s.lines
}

/// Checks mode `mode`'s digest lines against the fixture's, naming the
/// first window that differs: its steps and their ops.
fn pinned(mode: &str, external: bool) {
    let want: Vec<&str> = include_str!("fixtures/recorder_trace.txt")
        .lines()
        .filter_map(|l| l.strip_prefix(mode)?.strip_prefix(' '))
        .collect();
    let got = recorder_trace(external);
    let first = (0..want.len().max(got.len()))
        .find(|&i| want.get(i).copied() != got.get(i).map(String::as_str));
    if let Some(i) = first {
        panic!(
            "{mode}: the trace first differs in window {i}\n want {:?}\n  got {:?}",
            want.get(i),
            got.get(i)
        );
    }
}

#[test]
fn recorder_trace_is_pinned() {
    pinned("local", false);
}

#[test]
fn recorder_trace_is_pinned_under_external_sequencing() {
    pinned("external", true);
}
