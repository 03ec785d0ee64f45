//! Narrated walk through the sharded recorder tier: a ping workload
//! survives the responsible shard being killed mid-recovery, then a
//! fourth shard is added live and claims its slice of the pids.
//!
//! Run with `cargo run -p publishing-shard --example failover_demo`.

use publishing_core::WorldBuilder;
use publishing_demos::ids::Channel;
use publishing_demos::link::Link;
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_shard::ShardTier;
use publishing_sim::time::SimTime;

fn main() {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("slowping", || {
        let mut p = PingClient::new(25);
        p.think_ns = 2_000_000;
        Box::new(p)
    });

    let mut w = ShardTier::world(WorldBuilder::new(2).registry(reg), 3);
    println!("tier: 2 processing nodes, 3 recorder shards, R = 2 capture sets");

    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    let caps = w.tier.map().capture_set(server, 2);
    println!("server {server:?} captured by {caps:?}");

    w.run_until(SimTime::from_millis(40));
    println!("[40ms] crashing the server process");
    w.crash_process(server, "demo");

    let resp = w.tier.map().responsible(server).unwrap();
    w.run_until(SimTime::from_millis(42));
    println!("[42ms] killing {resp} while it drives the replay");
    w.crash_member(resp.0 as usize);
    println!(
        "       responsibility fell to {}",
        w.tier.map().responsible(server).unwrap()
    );

    w.run_until(SimTime::from_millis(500));
    println!("[500ms] adding a fourth shard (live rebalance)");
    let sid = ShardTier::add_shard(&mut w);
    println!(
        "       {sid} admitted; map epoch {}, {} cutovers published",
        w.tier.map().epoch(),
        w.tier.cutovers_published()
    );

    w.run_until(SimTime::from_secs(30));
    let out = w.outputs_of(client);
    println!(
        "client produced {} outputs, last = {:?}",
        out.len(),
        out.last().unwrap()
    );
    for (i, s) in w.tier.shards.iter().enumerate() {
        println!(
            "shard{i}: up={} recoveries completed={}",
            s.is_up(),
            s.manager().stats().completed.get()
        );
    }
    assert_eq!(out.len(), 26, "25 pongs + done");
    assert_eq!(out.last().unwrap(), "done");
    println!("workload intact across shard death and rebalance.");
}
