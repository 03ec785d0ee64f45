//! The same engine under every recorder tier: one generic contract run
//! against all four tiers, and the paper's transparency claim stated
//! *across* implementations — a client cannot tell which tier recorded
//! it, with or without crashes.

use publishing_chaos::driver::run_schedule;
use publishing_chaos::scenario::{Scenario, Topology};
use publishing_chaos::schedule::FaultSchedule;
use publishing_core::{PriorityTier, RecorderTier, World, WorldBuilder};
use publishing_demos::ids::Channel;
use publishing_demos::link::Link;
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_quorum::QuorumTier;
use publishing_shard::ShardTier;
use publishing_sim::time::SimTime;

fn builder() -> WorldBuilder {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("ping10", || Box::new(PingClient::new(10)));
    WorldBuilder::new(2).registry(reg)
}

/// Ten ping round-trips complete, `run_until` leaves the clock exactly
/// at its deadline (nothing fires at that instant, so a world that
/// stopped at its last event would report an earlier time), and
/// `run_before(t)` stops short of the events due at exactly `t` — the
/// tie a chaos driver relies on: what it injects at `t` lands first.
fn ping_completes<T: RecorderTier>(make: impl Fn() -> World<T>) {
    let start = |mut w: World<T>| {
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        let deadline = SimTime::from_micros(20_123);
        w.run_until(deadline);
        assert_eq!(w.now(), deadline);
        (w, client)
    };
    // A twin steps event by event to an instant `t` where one is due,
    // mid-exchange; the worlds are deterministic, so it is due in `w` too.
    let (mut twin, _) = start(make());
    for _ in 0..25 {
        assert!(twin.step());
    }
    let t = twin.now();
    let through_one_at_t = twin.scheduler_probe().delivered;

    let (mut w, client) = start(make());
    let after_start = w.scheduler_probe().delivered;
    w.run_before(t);
    assert_eq!(w.now(), t);
    let before_t = w.scheduler_probe().delivered;
    assert!(after_start < before_t, "events before t are delivered");
    assert!(before_t < through_one_at_t, "the event at t is not");
    w.run_until(t);
    assert_eq!(w.now(), t);
    assert!(w.scheduler_probe().delivered >= through_one_at_t);
    // Running up to an instant already reached changes nothing.
    let delivered = w.scheduler_probe().delivered;
    w.run_before(SimTime::from_micros(20_123));
    assert_eq!((w.now(), w.scheduler_probe().delivered), (t, delivered));

    w.run_until(SimTime::from_secs(5));
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 11, "{out:?}");
    assert_eq!(out.last().unwrap(), "done");
}

#[test]
fn ping_completes_under_the_single_recorder() {
    ping_completes(|| builder().build());
}

#[test]
fn ping_completes_under_priority_vector_recorders() {
    ping_completes(|| PriorityTier::world(builder(), 2));
}

#[test]
fn ping_completes_under_sharding() {
    ping_completes(|| ShardTier::world(builder(), 3));
}

#[test]
fn ping_completes_under_quorum_sequencing() {
    ping_completes(|| QuorumTier::world(builder(), 3, 0));
}

/// Every client's deduplicated lines after `schedule`, in client order.
fn client_lines(topology: Topology, pings: u64, schedule: &str) -> Vec<Vec<String>> {
    let mut scenario = Scenario::new(topology, 31);
    scenario.pings = pings;
    let schedule: FaultSchedule = schedule.parse().expect("literal parses");
    let mut t = scenario.build();
    run_schedule(t.as_mut(), &schedule);
    assert_eq!(t.convergence_failures(), Vec::<String>::new());
    t.client_outputs()
        .into_iter()
        .map(|(_, lines)| lines)
        .collect()
}

#[test]
fn clients_cannot_tell_the_tiers_apart_with_or_without_crashes() {
    // 150 round-trips keep both clients busy for ~750 ms on every tier,
    // so the crashes land a third of the way in — and after the quorum's
    // first election (~150 ms), before which no one leads a recovery.
    let pings = 150;
    let mut expected: Vec<String> = (1..=pings).map(|i| format!("pong {i}")).collect();
    expected.push("done".into());
    for schedule in [
        "seed=31 horizon=600ms",
        "seed=31 horizon=600ms crash_node@260ms#2 crash_process@300ms#1",
    ] {
        let mut clients = 0;
        for topology in [Topology::Single, Topology::Sharded, Topology::Quorum] {
            for (i, lines) in client_lines(topology, pings, schedule).iter().enumerate() {
                assert_eq!(lines, &expected, "{topology:?} client {i} under {schedule}");
                clients += 1;
            }
        }
        assert_eq!(clients, 6, "two clients on each of three tiers");
    }
}
