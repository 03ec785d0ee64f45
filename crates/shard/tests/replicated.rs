//! §6.3's replicated recorders — "all recorders record all messages" —
//! as the sharded tier with every member in every capture set (two
//! shards, R = 2, from [`ShardTier::world`]): a survivor covers for a dead recorder, a
//! node crash is handled by the highest-priority live recorder, a
//! crashed recorder rejoins, and the open P1 defect is pinned.

use publishing_core::{RecorderTier, WorldBuilder};
use publishing_demos::ids::{Channel, NodeId, ProcessId};
use publishing_demos::link::Link;
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_shard::{ShardId, ShardTier, ShardedWorld};
use publishing_sim::time::SimTime;

fn multi_registry() -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("slowping", || {
        let mut p = PingClient::new(25);
        p.think_ns = 1_500_000;
        Box::new(p)
    });
    reg
}

#[test]
fn surviving_recorder_covers_for_dead_one() {
    let mut w = ShardTier::world(WorldBuilder::new(2).registry(multi_registry()), 2);
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(30));
    // Kill recorder 0: the survivor covers; traffic keeps flowing.
    w.crash_member(0);
    w.run_until(SimTime::from_secs(10));
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 26, "{}", out.len());
    assert_eq!(out.last().unwrap(), "done");
}

#[test]
fn node_crash_handled_by_highest_priority_live_recorder() {
    let mut w = ShardTier::world(WorldBuilder::new(2).registry(multi_registry()), 2);
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(30));
    // Kill the recorder with top priority for node 1, then node 1 itself:
    // the lower-priority recorder must take over recovery.
    let top = w.tier.authority(ProcessId::kernel_of(NodeId(1))).unwrap();
    w.crash_member(top);
    w.run_until(SimTime::from_millis(60));
    w.crash_node(1);
    w.run_until(SimTime::from_secs(20));
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 26, "{}", out.len());
    let other = 1 - top;
    assert!(w.tier.shards[other].manager().stats().node_crashes.get() >= 1);
}

#[test]
fn crashed_recorder_rejoins_after_catching_up() {
    let mut w = ShardTier::world(WorldBuilder::new(2).registry(multi_registry()), 2);
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(20));
    w.crash_member(1);
    w.run_until(SimTime::from_millis(200));
    w.restart_member(1);
    w.run_until(SimTime::from_secs(20));
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 26, "{}", out.len());
    assert!(w.tier.shards[1].is_up());
    assert!(w.tier.map().is_live(ShardId(1)), "readmitted");
}

/// `tiers.rs`'s world: an echo server on node 0, a `ping10` client on
/// node 1.
fn ping_builder() -> WorldBuilder {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("ping10", || Box::new(PingClient::new(10)));
    WorldBuilder::new(2).registry(reg)
}

/// One P1 run: the server's top-ranked recorder crashes at 5 ms and
/// restarts `down` ms later (when `down` is given), and the server
/// crashes `crash` ms after that (after 5 ms with no recorder fault).
/// Returns the server's read count just before its crash, its read
/// count at 10 s, and whether the client finished.
fn p1_run(down: Option<u64>, crash: u64) -> (u64, u64, bool) {
    let mut w = ShardTier::world(ping_builder(), 2);
    let server = w.spawn(0, "echo", vec![]).unwrap();
    let client = w
        .spawn(1, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    let mut at = 5;
    if let Some(down) = down {
        let top = w.tier.map().ranked(server)[0].0 as usize;
        w.run_until(SimTime::from_millis(at));
        w.crash_member(top);
        at += down;
        w.run_until(SimTime::from_millis(at));
        w.restart_member(top);
    }
    at += crash;
    w.run_until(SimTime::from_millis(at));
    let reads = |w: &ShardedWorld| {
        w.kernels[0]
            .process(server.local)
            .map_or(0, |p| p.read_count)
    };
    let before = reads(&w);
    w.crash_process(server, "injected");
    w.run_until(SimTime::from_secs(10));
    let finished = w.outputs_of(client).last().map(String::as_str) == Some("done");
    (before, reads(&w), finished)
}

/// P1, open: a restarted recorder is readmitted one event after its
/// restart, so the top-ranked one is the authority again and recovers
/// the server from a log that lacks its down period. The recipe: the
/// server's top-ranked recorder crashes at 5 ms and restarts d ∈ {2, 4,
/// …, 20} ms later; the server crashes c ∈ {1, …, 10} ms after the
/// restart. In every configuration the server comes back with fewer
/// reads than it had, and 94 of 100 clients stall for good. Pinned as
/// measured, so that the fix (rejoin-by-drain) shows as this test
/// failing: once fixed, every configuration keeps its read count and
/// its client finishes.
#[test]
fn p1_a_readmitted_recorder_recovers_from_a_short_log() {
    let mut kept = Vec::new();
    let mut finished = Vec::new();
    for d in (2..=20).step_by(2) {
        for c in 1..=10 {
            let (before, after, done) = p1_run(Some(d), c);
            if after >= before {
                kept.push((d, c));
            }
            if done {
                finished.push((d, c));
            }
        }
    }
    assert_eq!(kept, [], "configurations that kept their read count");
    assert_eq!(
        finished,
        [(18, 9), (18, 10), (20, 7), (20, 8), (20, 9), (20, 10)],
        "configurations whose client finished, of 100"
    );
    assert_eq!(p1_run(Some(20), 1), (8, 2, false), "d = 20, c = 1");
    // Controls: no recorder fault, the server crashes at 6, 10 and 15 ms.
    for at in [6, 10, 15] {
        let (before, after, done) = p1_run(None, at - 5);
        assert_eq!((after, done), (10, true), "control at {at} ms");
        assert!(before <= after, "control at {at} ms");
    }
}
