//! Whole-system integration tests across all crates, driven through the
//! `publishing` facade.

use publishing::core::checkpoint::CheckpointPolicy;
use publishing::core::node::RecorderConfig;
use publishing::core::world::WorldBuilder;
use publishing::demos::ids::{Channel, ProcessId};
use publishing::demos::link::Link;
use publishing::demos::programs::{self, Chatter, PingClient};
use publishing::demos::registry::ProgramRegistry;
use publishing::net::bus::PerfectBus;
use publishing::net::ethernet::Ethernet;
use publishing::net::lan::{Lan, LanConfig};
use publishing::sim::fault::FaultPlan;
use publishing::sim::time::{SimDuration, SimTime};

fn chatter_registry(seed: u64) -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("chat-a", move || Box::new(Chatter::new(seed, 2, true)));
    reg.register("chat-b", move || {
        Box::new(Chatter::new(seed ^ 0xAA, 2, true))
    });
    reg.register("chat-c", move || {
        Box::new(Chatter::new(seed ^ 0x55, 2, true))
    });
    reg
}

fn chatter_world(
    seed: u64,
    lan: Option<Box<dyn publishing::net::lan::Lan>>,
) -> publishing::core::world::World {
    let mut b = WorldBuilder::new(3).registry(chatter_registry(seed));
    if let Some(lan) = lan {
        b = b.medium(lan);
    }
    let mut w = b.build();
    let a = ProcessId::new(0, 1);
    let bb = ProcessId::new(1, 1);
    let c = ProcessId::new(2, 1);
    w.spawn(
        0,
        "chat-a",
        vec![
            Link::to(bb, Channel::DEFAULT, 0),
            Link::to(c, Channel::DEFAULT, 0),
        ],
    )
    .unwrap();
    w.spawn(
        1,
        "chat-b",
        vec![
            Link::to(c, Channel::DEFAULT, 0),
            Link::to(a, Channel::DEFAULT, 0),
        ],
    )
    .unwrap();
    w.spawn(
        2,
        "chat-c",
        vec![
            Link::to(a, Channel::DEFAULT, 0),
            Link::to(bb, Channel::DEFAULT, 0),
        ],
    )
    .unwrap();
    w
}

#[test]
fn identical_seeds_produce_identical_worlds() {
    let run = |seed| {
        let mut w = chatter_world(seed, None);
        w.run_until(SimTime::from_secs(5));
        (
            w.output_fingerprint(),
            w.tier.recorder().stats().published.get(),
            w.kernels[0].stats().msgs_sent.get(),
        )
    };
    assert_eq!(run(7), run(7), "bit-identical replays");
    assert_ne!(run(7).0, run(8).0, "different seeds diverge");
}

#[test]
fn medium_choice_does_not_change_behaviour() {
    // The same workload over the perfect bus and over an Acknowledging
    // Ethernet: timings differ wildly, the deduplicated outputs must not.
    let mut bus_world = chatter_world(3, None);
    bus_world.run_until(SimTime::from_secs(10));
    let cfg = LanConfig {
        seed: 99,
        ..LanConfig::default()
    };
    let mut eth_world = chatter_world(3, Some(Box::new(Ethernet::acknowledging(cfg))));
    eth_world.run_until(SimTime::from_secs(60));
    assert_eq!(
        bus_world.output_fingerprint(),
        eth_world.output_fingerprint(),
        "the application cannot tell which LAN it ran over"
    );
}

#[test]
fn lossy_network_with_crash_still_equivalent() {
    // 8% frame loss plus a server crash. A single FIFO pair is immune to
    // loss-induced reordering, so the client's outputs must be exactly
    // the loss-free, crash-free sequence. (Multi-sender workloads may
    // legitimately interleave differently under loss — order at a
    // process is part of its input, not something recovery invents.)
    let run = |lossy: bool, crash: bool| {
        let mut reg = ProgramRegistry::new();
        programs::register_standard(&mut reg);
        reg.register("ping", || {
            let mut p = PingClient::new(25);
            p.think_ns = 1_000_000;
            Box::new(p)
        });
        let mut b = WorldBuilder::new(2).registry(reg);
        if lossy {
            let mut bus = PerfectBus::new(LanConfig {
                seed: 44,
                ..LanConfig::default()
            });
            bus.set_faults(FaultPlan::new().with_frame_loss(0.08));
            b = b.medium(Box::new(bus));
        }
        let mut w = b.build();
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        if crash {
            w.run_until(SimTime::from_millis(60));
            w.crash_process(server, "injected");
        }
        w.run_until(SimTime::from_secs(120));
        w.outputs_of(client)
    };
    let clean = run(false, false);
    let messy = run(true, true);
    assert_eq!(clean, messy);
    assert_eq!(clean.len(), 26);
}

#[test]
fn checkpointed_world_equivalent_to_uncheckpointed() {
    // Checkpoint policy is a performance knob, never a semantic one
    // (§3.3.1).
    let run = |policy: CheckpointPolicy| {
        let rc = RecorderConfig {
            policy,
            policy_tick: SimDuration::from_millis(20),
        };
        let mut w = WorldBuilder::new(3)
            .registry(chatter_registry(5))
            .recorder(rc)
            .build();
        let a = ProcessId::new(0, 1);
        let b = ProcessId::new(1, 1);
        let c = ProcessId::new(2, 1);
        w.spawn(
            0,
            "chat-a",
            vec![
                Link::to(b, Channel::DEFAULT, 0),
                Link::to(c, Channel::DEFAULT, 0),
            ],
        )
        .unwrap();
        w.spawn(
            1,
            "chat-b",
            vec![
                Link::to(c, Channel::DEFAULT, 0),
                Link::to(a, Channel::DEFAULT, 0),
            ],
        )
        .unwrap();
        w.spawn(
            2,
            "chat-c",
            vec![
                Link::to(a, Channel::DEFAULT, 0),
                Link::to(b, Channel::DEFAULT, 0),
            ],
        )
        .unwrap();
        w.run_until(SimTime::from_millis(300));
        w.crash_process(b, "injected");
        w.run_until(SimTime::from_secs(15));
        w.output_fingerprint()
    };
    let never = run(CheckpointPolicy::Never);
    let eager = run(CheckpointPolicy::Periodic(SimDuration::from_millis(50)));
    let bounded = run(CheckpointPolicy::BoundedRecovery {
        target: SimDuration::from_millis(500),
        load: publishing::core::recovery_time::LoadParams::figure_3_1(),
    });
    assert_eq!(never, eager);
    assert_eq!(never, bounded);
}

#[test]
fn many_sequential_crashes_survive() {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("ping", || {
        let mut p = PingClient::new(60);
        p.think_ns = 1_000_000;
        Box::new(p)
    });
    let mut w = WorldBuilder::new(2).registry(reg).build();
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "ping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    // Kill the server five times at staggered points.
    for k in 1..=5u64 {
        w.run_until(SimTime::from_millis(40 * k));
        w.crash_process(server, "again");
        w.run_until(SimTime::from_millis(40 * k + 20));
    }
    w.run_until(SimTime::from_secs(60));
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 61, "{}", out.len());
    assert_eq!(out.last().unwrap(), "done");
    // Each 40 ms crash lands while the previous recovery is still
    // replaying, so this exercises the §3.5 recursive-crash path over and
    // over; only the final recovery runs to completion.
    let mgr = w.tier.manager().stats();
    assert!(
        mgr.recursive.get() >= 3,
        "recursive {}",
        mgr.recursive.get()
    );
    assert!(mgr.completed.get() >= 1);
}

#[test]
fn selective_receive_with_crash_replays_read_order() {
    // A channel reader takes urgent traffic out of order; after its crash
    // the replay must reproduce the same read order (§4.4.2 pins).
    use publishing::demos::program::{Ctx, Program, Received};
    use publishing::sim::codec::CodecError;

    struct TwoChannelFeeder;
    impl Program for TwoChannelFeeder {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            // links: 0 = reader ch0, 1 = reader ch5 (urgent).
            for i in 0..4u8 {
                let _ = ctx.send(publishing::demos::ids::LinkId(0), vec![i]);
            }
            let _ = ctx.send(publishing::demos::ids::LinkId(1), b"urgent".to_vec());
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: Received) {}
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
        fn restore(&mut self, _: &[u8]) -> Result<(), CodecError> {
            Ok(())
        }
    }

    let run = |crash: bool| {
        let mut reg = ProgramRegistry::new();
        reg.register("feeder", || Box::new(TwoChannelFeeder));
        reg.register("reader", || {
            Box::new(programs::ChannelReader::new(Channel(5)))
        });
        let mut w = WorldBuilder::new(2).registry(reg).build();
        let reader = w.spawn(1, "reader", vec![]).unwrap();
        w.spawn(
            0,
            "feeder",
            vec![
                Link::to(reader, Channel(0), 0),
                Link::to(reader, Channel(5), 0),
            ],
        )
        .unwrap();
        if crash {
            w.run_until(SimTime::from_millis(100));
            w.crash_process(reader, "injected");
        }
        w.run_until(SimTime::from_secs(10));
        w.outputs_of(reader)
    };
    let clean = run(false);
    let crashed = run(true);
    assert_eq!(clean, crashed, "read order (with pins) survives recovery");
    // The urgent message was read first in both runs.
    assert!(clean[0].contains("ch5"), "{clean:?}");
}

#[test]
fn stable_store_survives_recorder_power_cycles() {
    // Three recorder crash/restart cycles interleaved with traffic.
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("ping", || {
        let mut p = PingClient::new(40);
        p.think_ns = 2_000_000;
        Box::new(p)
    });
    let mut w = WorldBuilder::new(2).registry(reg).build();
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "ping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    for k in 1..=3u64 {
        w.run_until(SimTime::from_millis(60 * k));
        w.crash_recorder();
        w.run_until(SimTime::from_millis(60 * k + 30));
        w.restart_recorder();
    }
    w.run_until(SimTime::from_secs(60));
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 41, "{}", out.len());
    assert_eq!(w.tier.recorder().restart_number(), 3);
}
