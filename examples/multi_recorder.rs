//! Multiple recorders for reliability (§6.3).
//!
//! "During normal operation, all recorders record all messages. If there
//! are n recorders, n−1 can fail before the network becomes unavailable."
//! Two recorders watch a two-node system: the sharded tier with every
//! recorder in every capture set. We kill the recorder with top
//! priority for the worker's node, then kill the worker's node itself:
//! the surviving recorder covers the dead one's acknowledgements and runs
//! the recovery. Finally the dead recorder rejoins and catches up through
//! natural checkpointing.
//!
//! Run with: `cargo run --example multi_recorder`

use publishing::core::{RecorderTier, WorldBuilder};
use publishing::demos::ids::{Channel, NodeId, ProcessId};
use publishing::demos::link::Link;
use publishing::demos::programs::{self, PingClient};
use publishing::demos::registry::ProgramRegistry;
use publishing::sim::time::SimTime;
use publishing_shard::ShardTier;

fn main() {
    let mut registry = ProgramRegistry::new();
    programs::register_standard(&mut registry);
    registry.register("ping", || {
        let mut p = PingClient::new(30);
        p.think_ns = 1_500_000;
        Box::new(p)
    });

    // Nodes 0 and 1; recorders on nodes 2 and 3. A node's priority
    // vector is the ranking of its kernel pid.
    let mut world = ShardTier::world(WorldBuilder::new(2).registry(registry), 2);
    let server = world.spawn(1, "echo", vec![]).unwrap();
    let client = world
        .spawn(0, "ping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    let top = world
        .tier
        .authority(ProcessId::kernel_of(NodeId(1)))
        .unwrap();
    println!("recorder {top} has top priority for node 1's recovery");

    world.run_until(SimTime::from_millis(25));
    println!(
        "t={}  recorder {top} dies; the survivor covers its acks…",
        world.now()
    );
    world.crash_member(top);

    world.run_until(SimTime::from_millis(60));
    println!("t={}  node 1 (the echo server's node) dies…", world.now());
    world.crash_node(1);

    world.run_until(SimTime::from_secs(5));
    let other = 1 - top;
    println!(
        "t=5s  recorder {other} detected {} node crash(es) and ran the recovery",
        world.tier.shards[other]
            .manager()
            .stats()
            .node_crashes
            .get()
    );

    println!("t=5s  recorder {top} rejoins and catches up via checkpoints…");
    world.restart_member(top);
    world.run_until(SimTime::from_secs(30));

    let out = world.outputs_of(client);
    println!(
        "\nclient finished with {} outputs; last = {:?}",
        out.len(),
        out.last().unwrap()
    );
    assert_eq!(out.len(), 31);
    assert_eq!(out.last().unwrap(), "done");
    assert!(world.tier.shards[top].is_up());
    println!("no message was lost across a recorder death, a node death, and a rejoin.");
}
