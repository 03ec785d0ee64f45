//! Quickstart: transparent recovery in five minutes.
//!
//! Builds a two-node published system with a recorder, runs an echo
//! workload, kills the server mid-run, and shows the client never
//! noticing.
//!
//! Run with: `cargo run --example quickstart`

use publishing::core::world::WorldBuilder;
use publishing::demos::ids::Channel;
use publishing::demos::link::Link;
use publishing::demos::programs::{self, PingClient};
use publishing::demos::registry::ProgramRegistry;
use publishing::sim::time::SimTime;

fn main() {
    // 1. Register program images ("binary files" in the paper's terms).
    let mut registry = ProgramRegistry::new();
    programs::register_standard(&mut registry); // echo, accumulator, …
    registry.register("ping", || Box::new(PingClient::new(10)));

    // 2. Build the world: nodes 0 and 1, recorder on node 2, perfect
    //    broadcast bus, publishing on.
    let mut world = WorldBuilder::new(2).registry(registry).build();

    // 3. Spawn an echo server and a client that pings it ten times.
    let server = world.spawn(1, "echo", vec![]).unwrap();
    let client = world
        .spawn(0, "ping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    println!("spawned echo server {server} and client {client}");

    // 4. Let some traffic flow, then kill the server process.
    world.run_until(SimTime::from_millis(25));
    println!(
        "t={}  crashing the server (the client is mid-conversation)…",
        world.now()
    );
    world.crash_process(server, "injected fault");

    // 5. The recorder's crash notice reaches the recovery manager, which
    //    recreates the server and replays its published messages. Nobody
    //    asked the client to do anything.
    world.run_until(SimTime::from_secs(10));

    println!("\nclient's outputs (deduplicated by output sequence):");
    for line in world.outputs_of(client) {
        println!("  {line}");
    }
    let mgr = world.tier.manager().stats();
    println!(
        "\nrecovery manager: {} recovery, {} messages replayed",
        mgr.completed.get(),
        mgr.replayed.get()
    );
    let rec = world.tier.recorder().stats();
    println!(
        "recorder: {} messages published, {} checkpoints stored",
        rec.published.get(),
        rec.checkpoints.get()
    );
    assert_eq!(world.outputs_of(client).len(), 11);
    println!("\nthe client saw all 10 pongs exactly once. transparent recovery.");
}
