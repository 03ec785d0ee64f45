//! What a consensus round allocates, counted.
//!
//! Three `RaftCore`s pass `QMsg`s in memory the way their replicas pass
//! frames: every output lands in one buffer the harness reuses, an
//! Append's entry buffer goes back to its leader (`RaftCore::recycle`)
//! once it is "on the wire", and the follower receives a copy of it — the
//! vector a replica's decode would have built, made outside the count.
//! After warm-up (the logs have compacted, the buffers have grown), a
//! fault-free round of N proposals allocates exactly N times inside the
//! cores: the leader's `Arc<LogEntry>` per entry. Nothing per output, per
//! apply or per follower.
//!
//! The counter is this test binary's own global allocator, per thread
//! (a const-initialised thread-local), so parallel tests cannot disturb
//! each other's counts.

use publishing_demos::ids::{Channel, MessageId, ProcessId};
use publishing_demos::message::{Message, MessageHeader};
use publishing_quorum::{Op, QMsg, RaftCore, RaftOut, ReplicaId};
use publishing_sim::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation and every growing reallocation of the calling
/// thread; otherwise the system allocator.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the bookkeeping touches
// only the thread-local counter, never the allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            ALLOCS.set(ALLOCS.get() + 1);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Three cores, the output buffer they share and the messages in flight
/// with their destinations. `allocs` sums what the cores' own calls
/// allocated.
struct Group {
    cores: Vec<RaftCore>,
    out: Vec<RaftOut>,
    wire: VecDeque<(ReplicaId, QMsg)>,
    allocs: u64,
    /// Appends sent with no entries.
    heartbeats: u64,
}

impl Group {
    fn new() -> Self {
        let cores = (0..3)
            .map(|i| {
                let mut core = RaftCore::new(i, 3, 7);
                core.start(SimTime::ZERO);
                core
            })
            .collect();
        Group {
            cores,
            out: Vec::new(),
            wire: VecDeque::new(),
            allocs: 0,
            heartbeats: 0,
        }
    }

    /// Runs `call` on core `at` with the shared output buffer, counting
    /// what it allocates, then puts what it sent on the wire.
    fn call(&mut self, at: usize, call: impl FnOnce(&mut RaftCore, &mut Vec<RaftOut>)) {
        self.counted(at, call);
        let mut out = std::mem::take(&mut self.out);
        for o in out.drain(..) {
            match o {
                RaftOut::Send { to, msg } => self.send(at, to, msg),
                RaftOut::BecameLeader | RaftOut::SteppedDown => {}
                other => panic!("a fault-free group asked for {other:?}"),
            }
        }
        self.out = out;
    }

    /// Runs `f` on core `at`, adding what it allocates to `allocs`.
    fn counted(&mut self, at: usize, f: impl FnOnce(&mut RaftCore, &mut Vec<RaftOut>)) {
        let before = ALLOCS.get();
        f(&mut self.cores[at], &mut self.out);
        self.allocs += ALLOCS.get() - before;
    }

    /// Puts `msg` on the wire. An Append travels as a copy — the vector a
    /// replica's decode builds — and its own entry buffer goes back to the
    /// sender, as a replica's does once the frame is written.
    fn send(&mut self, from: usize, to: ReplicaId, msg: QMsg) {
        let QMsg::Append {
            term,
            leader,
            prev_index,
            prev_term,
            entries,
            commit,
        } = msg
        else {
            return self.wire.push_back((to, msg));
        };
        self.heartbeats += entries.is_empty() as u64;
        let copy = QMsg::Append {
            term,
            leader,
            prev_index,
            prev_term,
            entries: entries.clone(),
            commit,
        };
        self.wire.push_back((to, copy));
        self.counted(from, |core, _| core.recycle(entries));
    }

    /// Delivers everything in flight, to quiescence.
    fn deliver(&mut self, now: SimTime) {
        while let Some((to, msg)) = self.wire.pop_front() {
            self.call(to as usize, |core, out| core.on_msg(now, msg, out));
        }
    }

    /// Every core applies what it has committed.
    fn apply(&mut self) {
        for at in 0..self.cores.len() {
            self.counted(at, |core, _| while core.next_applicable().is_some() {});
        }
    }

    fn leader(&self) -> usize {
        let leaders: Vec<_> = (0..3).filter(|&i| self.cores[i].is_leader()).collect();
        assert_eq!(leaders.len(), 1, "one leader");
        leaders[0]
    }

    /// One round at `now`: every timer, then `n` proposals replicated
    /// together, delivered to quiescence and applied. What the cores
    /// allocated.
    fn round(&mut self, now: SimTime, n: u64) -> u64 {
        self.allocs = 0;
        for at in 0..self.cores.len() {
            self.call(at, |core, out| core.tick(now, out));
        }
        self.deliver(now);
        let l = self.leader();
        let base = self.cores[l].last_index();
        let ops: Vec<Op> = (0..n).map(|i| sequence(base + i)).collect();
        for op in ops {
            self.call(l, |core, _| {
                core.propose(op).expect("leader");
            });
        }
        self.call(l, |core, out| core.replicate(out));
        self.deliver(now);
        self.apply();
        self.allocs
    }
}

fn sequence(seq: u64) -> Op {
    let msg = Message {
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
        body: vec![seq as u8; 16].into(),
    };
    Op::Sequence { seq, msg }
}

/// Backlogs of 1 to 20 entries: singles, and past the 16 an Append
/// carries (the rest rides on the replies).
fn backlog(round: u64) -> u64 {
    1 + round % 20
}

#[test]
fn a_fault_free_round_allocates_one_entry_per_proposal_and_nothing_else() {
    let mut group = Group::new();
    // Elect a leader and commit its no-op.
    for ms in 0..500 {
        let now = SimTime::from_millis(ms);
        for at in 0..3 {
            group.call(at, |core, out| core.tick(now, out));
        }
        group.deliver(now);
        group.apply();
    }
    let l = group.leader();
    // Warm-up: every log compacts more than once and every buffer grows
    // to its size.
    let mut ms = 500;
    for round in 0..200 {
        group.round(SimTime::from_millis(ms), backlog(round));
        ms += 1;
    }
    assert!(group.cores[l].snap_index() > 1_000, "compacted");
    let (term, compacted) = (group.cores[l].term(), group.cores[l].snap_index());
    let heartbeats = group.heartbeats;
    let mut proposed = 0;
    for round in 0..200 {
        let n = backlog(round);
        let allocs = group.round(SimTime::from_millis(ms), n);
        assert_eq!(allocs, n, "round {round}: {n} proposals");
        proposed += n;
        ms += 1;
    }
    // The rounds were the protocol's: no election, the logs compacted on
    // the way, a heartbeat to each follower every 25 ms of the 200.
    assert_eq!(group.leader(), l);
    assert_eq!(group.cores[l].term(), term);
    assert!(proposed > 2_000);
    assert!(group.cores[l].snap_index() > compacted);
    assert!(group.heartbeats - heartbeats >= 14, "heartbeats sent");
    // Every entry committed and applied everywhere, once a heartbeat has
    // carried the last commit index to the followers.
    let last = group.cores[l].last_index();
    let heartbeat = group.cores[l].deadline();
    assert_eq!(group.round(heartbeat, 0), 0);
    for core in &group.cores {
        assert_eq!(core.commit_index(), last);
        assert_eq!(core.applied_index(), last);
        assert_eq!(core.stats().appends_rejected, 0);
    }
}
