//! End-to-end tests of the sharded recorder tier: parallel replay of a
//! crashed node across distinct shards, failover of a dead shard to its
//! backup mid-replay, and recovery from a log segment that was migrated
//! to a freshly added shard.

use publishing_core::WorldBuilder;
use publishing_demos::ids::{Channel, ProcessId};
use publishing_demos::link::Link;
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_shard::{ShardId, ShardTier, ShardedWorld};
use publishing_sim::time::SimTime;

fn registry() -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("ping10", || Box::new(PingClient::new(10)));
    reg.register("slowping", || {
        let mut p = PingClient::new(25);
        p.think_ns = 2_000_000;
        Box::new(p)
    });
    reg
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// The acceptance scenario: a node hosting several processes crashes;
/// its processes are replayed **in parallel from at least two distinct
/// shards** (each by the shard responsible for it), and the recovered
/// run's external output is identical to the crash-free run's.
#[test]
fn node_crash_replays_processes_in_parallel_from_distinct_shards() {
    let run = |crash: bool| -> (u64, ShardedWorld) {
        let mut w = ShardTier::world(WorldBuilder::new(3).registry(registry()), 4);
        // Four servers on node 2 — the node we will crash — with a
        // client for each spread over nodes 0 and 1.
        let mut clients = Vec::new();
        for i in 0..4u32 {
            let server = w.spawn(2, "echo", vec![]).unwrap();
            let client = w
                .spawn(
                    i % 2,
                    "slowping",
                    vec![Link::to(server, Channel::DEFAULT, 7)],
                )
                .unwrap();
            clients.push(client);
        }
        if crash {
            w.run_until(SimTime::from_millis(50));
            w.crash_node(2);
        }
        w.run_until(secs(40));
        for c in &clients {
            let out = w.outputs_of(*c);
            assert_eq!(out.len(), 26, "client {c:?}: {out:?}");
            assert_eq!(out.last().unwrap(), "done");
        }
        (w.output_fingerprint(), w)
    };
    let (clean, _) = run(false);
    let (crashed, w) = run(true);
    assert_eq!(clean, crashed, "recovered run must be externally identical");
    // The node's processes were recovered by the shards responsible for
    // them — and those span at least two distinct shards, i.e. the
    // replay genuinely fanned out.
    let recovering: Vec<usize> = (0..w.tier.shards.len())
        .filter(|&i| w.tier.shards[i].manager().stats().completed.get() > 0)
        .collect();
    assert!(
        recovering.len() >= 2,
        "expected parallel replay from >= 2 shards, got {recovering:?}"
    );
    for i in 0..4u32 {
        let server = ProcessId::new(2, 2 * i + 1);
        let responsible = w.tier.map().responsible(server).unwrap();
        assert!(
            w.tier.shards[responsible.0 as usize]
                .manager()
                .stats()
                .completed
                .get()
                >= 1,
            "shard {responsible} should have recovered {server:?}"
        );
    }
}

/// Satellite (c): kill the shard driving a recovery mid-replay. The
/// pid's backup shard (which, with R = 2, already captured the full
/// log) inherits responsibility, re-queries the pid's state, and
/// finishes the recovery — with no duplicated or lost outputs.
#[test]
fn shard_killed_mid_replay_fails_over_to_backup() {
    let run = |kill_shard: bool| -> (u64, ShardedWorld, ProcessId) {
        let mut w = ShardTier::world(WorldBuilder::new(2).registry(registry()), 3);
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let _client = w
            .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_millis(40));
        w.crash_process(server, "injected");
        if kill_shard {
            // Let the responsible shard start the replay, then kill it
            // while the recovery is in flight.
            let responsible = w.tier.map().responsible(server).unwrap();
            w.run_until(SimTime::from_millis(42));
            assert_eq!(
                w.tier.shards[responsible.0 as usize]
                    .manager()
                    .stats()
                    .completed
                    .get(),
                0,
                "recovery must still be in flight when the shard dies"
            );
            w.crash_member(responsible.0 as usize);
        }
        w.run_until(secs(30));
        (w.output_fingerprint(), w, server)
    };
    let (clean, _, _) = run(false);
    let (crashed, w, server) = run(true);
    assert_eq!(clean, crashed, "failover must not lose or duplicate output");
    // The recovery was completed by the *backup*, not the dead shard.
    let now_responsible = w.tier.map().responsible(server).unwrap();
    assert!(
        w.tier.shards[now_responsible.0 as usize]
            .manager()
            .stats()
            .completed
            .get()
            >= 1,
        "backup shard {now_responsible} should have finished the recovery"
    );
}

/// Rebalancing handoff: after a new shard drains a pid's log segment
/// from its previous holders, a crash of that pid is recovered by the
/// new shard from the migrated records.
#[test]
fn rebalanced_pid_recovers_from_migrated_log() {
    let mut w = ShardTier::world(WorldBuilder::new(2).registry(registry()), 2);
    let mut pairs = Vec::new();
    for _ in 0..5u32 {
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        pairs.push((server, client));
    }
    w.run_until(SimTime::from_millis(40));
    let sid = ShardTier::add_shard(&mut w);
    assert_eq!(sid, ShardId(2));
    // At least one server's responsibility moved to the new shard
    // (HRW: it claims ~1/3 of the pids).
    let moved: Vec<ProcessId> = pairs
        .iter()
        .map(|&(s, _)| s)
        .filter(|&s| w.tier.map().responsible(s) == Some(sid))
        .collect();
    assert!(
        !moved.is_empty(),
        "expected the new shard to claim a server"
    );
    for &pid in &moved {
        w.crash_process(pid, "post-rebalance crash");
    }
    w.run_until(secs(30));
    for (server, client) in &pairs {
        let out = w.outputs_of(*client);
        assert_eq!(out.len(), 26, "client of {server:?}: {out:?}");
        assert_eq!(out.last().unwrap(), "done");
    }
    // The new shard drove those recoveries from the migrated segments.
    assert!(
        w.tier.shards[2].manager().stats().completed.get() >= moved.len() as u64,
        "new shard must recover the pids it claimed"
    );
}

/// A shard that crashes and comes back is readmitted only after
/// catching up, and the tier keeps running through both transitions.
#[test]
fn crashed_shard_rejoins_after_catching_up() {
    let mut w = ShardTier::world(WorldBuilder::new(2).registry(registry()), 3);
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(30));
    w.crash_member(0);
    assert!(!w.tier.map().is_live(ShardId(0)));
    w.run_until(SimTime::from_millis(60));
    w.restart_member(0);
    w.run_until(secs(30));
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 26, "{out:?}");
    assert_eq!(out.last().unwrap(), "done");
    assert!(
        w.tier.map().is_live(ShardId(0)),
        "restarted shard should be readmitted once caught up"
    );
    // Both cutovers (out and back in) were published on the medium.
    assert!(w.tier.cutovers_published() >= 2);
}
