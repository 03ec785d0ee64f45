//! What building a causal graph allocates, counted.
//!
//! A graph is stored flat (events, logs, edges and a CSR run of each
//! node's incoming edges), and every grouping its builder sorts reuses one scratch
//! vector, so a build allocates a fixed handful of times whatever the
//! event count: 1 k and 10 k events must cost the same number. (Per-node
//! adjacency vectors made it about two allocations a node.)
//!
//! The counter is this test binary's own global allocator, per thread
//! (a const-initialised thread-local), so parallel tests cannot disturb
//! each other's counts.

use publishing_obs::causal::CausalGraph;
use publishing_obs::span::{MsgKey, SpanEvent, SpanLog, Stage};
use publishing_sim::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Allocations `work` makes on this thread.
fn allocations<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.get();
    let out = work();
    (ALLOCS.get() - before, out)
}

/// About `n` events of a recovered run over three logs (a sender's
/// kernel, the recorder, the destination's kernel): full lifecycles,
/// a checkpoint every 40 messages, an election half way, then replays
/// of the last messages read and the suppression of a regenerated send.
fn recovered_run(n: usize) -> Vec<Vec<SpanEvent>> {
    let (sender, dest) = (1u64 << 32, 2u64 << 32);
    let mut logs: Vec<SpanLog> = (0..3).map(|_| SpanLog::new(n)).collect();
    let msgs = n / 4;
    for m in 0..msgs as u64 {
        let key = MsgKey { sender, seq: m };
        let t = |d: u64| SimTime::from_micros(10 * m + d);
        logs[0].record(t(0), key, Stage::Publish, dest, 16);
        logs[1].record(t(1), key, Stage::Capture, dest, m);
        if m == msgs as u64 / 2 {
            logs[1].record(t(1), key, Stage::Elect, 7, 2);
        }
        logs[1].record(t(2), key, Stage::Sequence, dest, m);
        logs[2].record(t(3), key, Stage::Deliver, dest, m);
        if m % 40 == 0 {
            logs[1].record(t(4), key, Stage::Checkpoint, dest, m);
        }
    }
    let end = 10 * msgs as u64;
    for (i, m) in (msgs as u64 * 3 / 4..msgs as u64).enumerate() {
        let key = MsgKey { sender, seq: m };
        let at = SimTime::from_micros(end + i as u64);
        logs[1].record(at, key, Stage::Replay, dest, m);
    }
    let regenerated = MsgKey {
        sender: dest,
        seq: 0,
    };
    logs[0].record(
        SimTime::from_micros(2 * end),
        regenerated,
        Stage::Publish,
        sender,
        16,
    );
    logs[2].record(
        SimTime::from_micros(2 * end + 1),
        regenerated,
        Stage::Suppress,
        sender,
        1,
    );
    logs.iter().map(|l| l.events().collect()).collect()
}

#[test]
fn a_build_allocates_the_same_few_times_at_1k_and_10k_events() {
    let mut counts = Vec::new();
    for n in [1_000, 10_000] {
        let lists = recovered_run(n);
        let events: usize = lists.iter().map(Vec::len).sum();
        assert!(events >= n, "{events} events for {n}");
        let (allocs, g) = allocations(|| CausalGraph::from_event_lists(&lists));
        assert!(g.edges().len() >= events, "a connected run");
        counts.push(allocs);
    }
    assert_eq!(counts[0], counts[1], "allocations at 1 k and 10 k events");
    assert_eq!(
        counts[0], 6,
        "events, logs, scratch, edges, CSR offsets and ids"
    );
}

#[test]
fn building_from_span_logs_allocates_one_more_time() {
    let lists = recovered_run(2_000);
    let logs: Vec<SpanLog> = lists
        .iter()
        .map(|list| {
            let mut log = SpanLog::new(list.len());
            for e in list {
                log.record(e.at, e.key, e.stage, e.subject, e.aux);
            }
            log
        })
        .collect();
    let (from_lists, _) = allocations(|| CausalGraph::from_event_lists(&lists));
    let (from_logs, _) = allocations(|| CausalGraph::build(&logs));
    assert_eq!(from_logs, from_lists + 1, "the logs' reference vector");
}
