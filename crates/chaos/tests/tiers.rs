//! The same engine under every recorder tier: one generic contract run
//! against all four tiers, the chaos targets' process census on the
//! three chaos tiers, and the paper's transparency claim stated
//! *across* implementations — a client cannot tell which tier recorded
//! it, with or without crashes.

use publishing_chaos::driver::run_schedule;
use publishing_chaos::scenario::{
    ChaosWorld, PingEcho, PlanSpawn, Scenario, Topology, WorkloadSource,
};
use publishing_chaos::schedule::{Fault, FaultSchedule};
use publishing_core::{PriorityTier, RecorderTier, World, WorldBuilder};
use publishing_demos::ids::{Channel, ProcessId};
use publishing_demos::link::Link;
use publishing_demos::program::{Ctx, Program, Received};
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_obs::span::Stage;
use publishing_quorum::QuorumTier;
use publishing_shard::ShardTier;
use publishing_sim::codec::{CodecError, Decoder, Encoder};
use publishing_sim::time::{SimDuration, SimTime};

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

/// A program that ends: `inner` until it has handled `left` messages,
/// then it stops. A world whose processes all end leaves the checkpoint
/// policy nothing to visit, so once settled it stays settled.
struct Finite<P> {
    inner: P,
    left: u64,
}

impl<P: Program> Program for Finite<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        self.inner.on_message(ctx, msg);
        self.left -= 1;
        if self.left == 0 {
            ctx.stop();
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.left).bytes(&self.inner.snapshot());
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.left = d.u64()?;
        self.inner.restore(&d.bytes()?)?;
        d.finish()
    }
}

/// `pings` round-trips between two programs that stop after the last,
/// the client thinking 2 ms over each pong.
fn finite_builder(pings: u64) -> WorldBuilder {
    let mut reg = ProgramRegistry::new();
    reg.register("echo", move || {
        Box::new(Finite {
            inner: programs::EchoServer::default(),
            left: pings,
        })
    });
    reg.register("ping", move || {
        let mut inner = PingClient::new(pings);
        inner.think_ns = 2_000_000;
        Box::new(Finite { inner, left: pings })
    });
    WorldBuilder::new(2).registry(reg)
}

fn spawn_pair<T: RecorderTier>(w: &mut World<T>) -> (ProcessId, ProcessId) {
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "ping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    (server, client)
}

/// Where the faults of [`settled_contract`] land: well inside a
/// 200-round-trip exchange on every tier, and after the quorum's first
/// election (~150 ms), before which no one leads a recovery.
const MID_EXCHANGE: SimTime = SimTime::from_millis(400);

/// Steps until `w` has settled; panics if it has not within 20 virtual
/// seconds of `w.now()`.
fn step_until_settled<T: RecorderTier>(w: &mut World<T>) {
    let bound = w.now() + SimDuration::from_secs(20);
    while !w.settled() {
        assert!(w.step() && w.now() < bound, "never settled");
    }
}

/// From a settled instant, five more seconds of housekeeping change no
/// output and no span, and leave the world settled.
fn stays_settled<T: RecorderTier>(w: &mut World<T>, client: ProcessId, pings: usize) {
    assert!(w.settled());
    let out = w.outputs_of(client);
    assert_eq!(out.len(), pings + 1, "{out:?}");
    assert_eq!(out.last().unwrap(), "done");
    let (lines, spans, events) = (
        w.outputs.len(),
        w.obs_fingerprint(),
        w.scheduler_probe().delivered,
    );
    w.run_until(w.now() + SimDuration::from_secs(5));
    assert!(w.scheduler_probe().delivered > events, "housekeeping ran");
    assert_eq!((w.outputs.len(), w.obs_fingerprint()), (lines, spans));
    assert!(w.settled());
}

/// [`World::settled`] on every tier. Fault-free: false whenever a kernel
/// has a message unacknowledged, false while an activation is in flight
/// (the only timer a program can arm), true once both programs have
/// ended — and from then on for good. Under faults: false from a
/// `crash_process` to its completed recovery, false while a node is
/// down, false while a tier member is down; true again afterwards.
fn settled_contract<T: RecorderTier>(make: impl Fn(WorldBuilder) -> World<T>) {
    // Fault-free, event by event.
    let mut w = make(finite_builder(10));
    let (_, client) = spawn_pair(&mut w);
    let (mut unacked, mut thinking) = (0, 0);
    while w.outputs_of(client).len() < 11 {
        assert!(w.step());
        let waits_for_ack = w.kernels.iter().any(|k| {
            let t = k.transport_stats();
            t.sent.get() > t.acked.get()
        });
        // A pong the client has read and not yet printed: its
        // activation is computing.
        let read = w.kernels[0]
            .spans()
            .events_in(Stage::Deliver)
            .filter(|e| e.subject == client.as_u64())
            .count();
        let computing = read > w.outputs_of(client).len();
        unacked += usize::from(waits_for_ack);
        thinking += usize::from(computing && !waits_for_ack);
        if waits_for_ack || computing {
            assert!(!w.settled(), "settled at {} with work pending", w.now());
        }
    }
    assert!(unacked > 0 && thinking > 0, "{unacked} / {thinking} seen");
    step_until_settled(&mut w);
    assert!(w.now() < SimTime::from_secs(2), "settled at {}", w.now());
    stays_settled(&mut w, client, 10);

    // A process crash: unsettled until its recovery has completed.
    let mut w = make(finite_builder(200));
    let (server, client) = spawn_pair(&mut w);
    w.run_until(MID_EXCHANGE);
    assert!(w.outputs_of(client).len() < 100, "mid-exchange");
    w.crash_process(server, "contract");
    while w.recoveries_completed() == 0 {
        assert!(!w.settled(), "settled at {} mid-recovery", w.now());
        assert!(w.step());
    }
    step_until_settled(&mut w);
    stays_settled(&mut w, client, 200);

    // A node crash: unsettled while it is down, and until its processes
    // are back.
    let mut w = make(finite_builder(200));
    let (_, client) = spawn_pair(&mut w);
    w.run_until(MID_EXCHANGE);
    assert!(w.outputs_of(client).len() < 100, "mid-exchange");
    w.crash_node(1);
    while !w.kernels[1].is_up() || w.recoveries_completed() == 0 {
        assert!(!w.settled(), "settled at {} with node 1 down", w.now());
        assert!(w.step());
    }
    step_until_settled(&mut w);
    stays_settled(&mut w, client, 200);

    // A tier member down: unsettled until it is back. The exchange runs
    // long enough for both processes to checkpoint after the restart,
    // which is what readmits a recorder that missed traffic.
    let mut w = make(finite_builder(600));
    let (_, client) = spawn_pair(&mut w);
    w.run_until(MID_EXCHANGE);
    assert!(w.outputs_of(client).len() < 100, "mid-exchange");
    w.crash_member(0);
    let back = w.now() + SimDuration::from_millis(30);
    while w.now() < back {
        assert!(!w.settled(), "settled at {} with member 0 down", w.now());
        assert!(w.step());
    }
    w.restart_member(0);
    step_until_settled(&mut w);
    stays_settled(&mut w, client, 600);
}

#[test]
fn settled_under_the_single_recorder() {
    settled_contract(|b| b.build());
}

#[test]
fn settled_under_priority_vector_recorders() {
    settled_contract(|b| PriorityTier::world(b, 2));
}

#[test]
fn settled_under_sharding() {
    settled_contract(|b| ShardTier::world(b, 3));
}

#[test]
fn settled_under_quorum_sequencing() {
    settled_contract(|b| QuorumTier::world(b, 3, 0));
}

/// The quorum's own clause: a live replica that has not applied
/// everything in the leader's log — here a follower catching up after a
/// restart, entry by entry — keeps the world unsettled.
#[test]
fn a_quorum_follower_behind_the_leader_is_not_settled() {
    let mut w = QuorumTier::world(finite_builder(600), 3, 0);
    let (_, client) = spawn_pair(&mut w);
    w.run_until(MID_EXCHANGE);
    let follower = (w.tier.leader().expect("elected by now") + 1) % 3;
    w.crash_member(follower);
    w.run_until(MID_EXCHANGE + SimDuration::from_millis(50));
    w.restart_member(follower);
    let mut behind = 0;
    while !w.settled() {
        assert!(w.step());
        let Some(leader) = w.tier.leader() else {
            continue;
        };
        let last = w.tier.replicas[leader].raft().last_index();
        let live = w.tier.replicas.iter().filter(|r| r.is_up());
        if live.map(|r| r.raft().applied_index()).any(|at| at < last) {
            behind += 1;
            assert!(!w.settled(), "settled at {} with a replica behind", w.now());
        }
    }
    assert!(behind > 0);
    stays_settled(&mut w, client, 600);
}

/// Ends at once: prints `done` and stops, so its kernel destroys it and
/// tells the recorder tier.
struct Quitter;

impl Program for Quitter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.output(b"done".to_vec());
        ctx.stop();
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Received) {}

    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }

    fn restore(&mut self, _bytes: &[u8]) -> Result<(), CodecError> {
        Ok(())
    }
}

/// The default ping/echo load plus one process on node 1 that quits.
struct WithQuitter(PingEcho);

impl WorkloadSource for WithQuitter {
    fn registry(&self) -> ProgramRegistry {
        let mut reg = self.0.registry();
        reg.register("quitter", || Box::new(Quitter));
        reg
    }

    fn plan(&self) -> Vec<PlanSpawn> {
        let mut plan = self.0.plan();
        plan.push(PlanSpawn {
            node: 1,
            program: "quitter".into(),
            links: vec![],
            client: true,
        });
        plan
    }
}

/// The census lines of `t`'s convergence failures.
fn lost(t: &dyn ChaosWorld) -> Vec<String> {
    let failures = t.convergence_failures();
    failures
        .into_iter()
        .filter(|f| f.contains(" lost: "))
        .collect()
}

/// Runs `t` on from `from_ms` until it has settled; panics if it has
/// not within 20 virtual seconds.
fn run_until_settled(t: &mut dyn ChaosWorld, from_ms: u64) {
    let mut at = from_ms;
    while !t.settled() {
        at += 20;
        assert!(at < from_ms + 20_000, "never settled");
        t.run_until(SimTime::from_millis(at));
    }
}

/// The process census in `convergence_failures` on every chaos tier:
/// clean fault-free; a crashed process is flagged until its recovery has
/// finished, and not after; every pid of a node that is down is flagged;
/// a process destroyed on purpose is not.
fn census_contract(topology: Topology) {
    // 150 round-trips: the exchange is still running at 300 ms, after
    // the quorum's first election.
    let mut scenario = Scenario::new(topology, 31);
    scenario.pings = 150;
    let crash_at = 300;

    let mut t = scenario.build();
    let clean: FaultSchedule = "seed=31 horizon=600ms".parse().unwrap();
    assert!(
        run_schedule(t.as_mut(), &clean).is_some(),
        "fault-free settles"
    );
    assert_eq!(t.convergence_failures(), Vec::<String>::new());

    // `crash_process` of plan entry 1, a pinger.
    let mut t = scenario.build();
    t.run_until(SimTime::from_millis(crash_at));
    t.inject(&Fault::CrashProcess {
        at_ms: crash_at,
        victim: 1,
    });
    let pid = t.client_outputs()[0].0;
    assert_eq!(lost(t.as_ref()).len(), 1, "{:?}", lost(t.as_ref()));
    assert!(lost(t.as_ref())[0].starts_with(&format!("pid {pid} lost: ")));
    run_until_settled(t.as_mut(), crash_at);
    assert!(t.recoveries_completed() > 0);
    assert_eq!(t.convergence_failures(), Vec::<String>::new());

    // Node 2 holds an echo server on every tier: flagged while it is down.
    let mut t = scenario.build();
    t.run_until(SimTime::from_millis(crash_at));
    t.inject(&Fault::CrashNode {
        at_ms: crash_at,
        node: 2,
    });
    let down = lost(t.as_ref());
    assert!(!down.is_empty());
    for line in &down {
        assert!(line.starts_with("pid p2.") && line.ends_with("lost: node 2 is down"));
    }
    run_until_settled(t.as_mut(), crash_at);
    assert_eq!(t.convergence_failures(), Vec::<String>::new());

    // A process that stops is destroyed, on purpose: accounted for.
    let source = WithQuitter(scenario.default_source());
    let mut t = scenario.build_with(&source);
    assert!(run_schedule(t.as_mut(), &clean).is_some(), "settles");
    assert_eq!(t.metrics().counter_value("node/1/kernel/destroys"), Some(1));
    assert_eq!(t.convergence_failures(), Vec::<String>::new());
}

#[test]
fn census_under_the_single_recorder() {
    census_contract(Topology::Single);
}

#[test]
fn census_under_sharding() {
    census_contract(Topology::Sharded);
}

#[test]
fn census_under_quorum_sequencing() {
    census_contract(Topology::Quorum);
}
