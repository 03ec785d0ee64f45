//! The same engine under every recorder tier: generic contracts run
//! against all three tiers, the sharded one also as §6.3's replicated
//! recorders (run loops, one scheduler entry per
//! transmission, `settled()`), the chaos targets' process census on the
//! three chaos tiers, and the paper's transparency claim stated
//! *across* implementations — a client cannot tell which tier recorded
//! it, with or without crashes.

use publishing_chaos::driver::run_schedule;
use publishing_chaos::scenario::{
    ChaosWorld, PingEcho, PlanSpawn, Scenario, Topology, WorkloadSource,
};
use publishing_chaos::schedule::{Fault, FaultSchedule};
use publishing_core::{RNAction, RecorderConfig, RecorderNode, RecorderTier, World, WorldBuilder};
use publishing_demos::ids::{Channel, NodeId, ProcessId};
use publishing_demos::link::Link;
use publishing_demos::program::{Ctx, Program, Received};
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_net::bus::PerfectBus;
use publishing_net::ethernet::Ethernet;
use publishing_net::frame::{Destination, Frame, StationId};
use publishing_net::lan::{Lan, LanAction, LanConfig, LanStats, RecorderRouter};
use publishing_obs::probe::RecoveryLag;
use publishing_obs::span::Stage;
use publishing_quorum::QuorumTier;
use publishing_shard::ShardTier;
use publishing_sim::codec::{CodecError, Decoder, Encoder};
use publishing_sim::fault::FaultPlan;
use publishing_sim::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

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
    ping_completes(|| ShardTier::world(builder(), 2));
}

#[test]
fn ping_completes_under_sharding() {
    ping_completes(|| ShardTier::world(builder(), 3));
}

#[test]
fn ping_completes_under_quorum_sequencing() {
    ping_completes(|| QuorumTier::world(builder(), 3, 0));
}

/// One recovery per crash: the echo server of a ping10 world crashes
/// at 60 ms — before the quorum's first election settles — and exactly
/// one member, the authority for it, runs its recovery: not every
/// recorder that heard the crash notice, and not none.
fn one_recovery_per_crash<T: RecorderTier>(mut w: World<T>) {
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(60));
    w.crash_process(server, "injected");
    w.run_until(SimTime::from_secs(10));
    let runs: Vec<u64> = w
        .member_nodes()
        .map(|rn| rn.manager().stats().process_recoveries.get())
        .collect();
    assert_eq!(
        runs.iter().sum::<u64>(),
        1,
        "recoveries per member: {runs:?}"
    );
    assert_eq!(w.recoveries_completed(), 1);
    assert_eq!(
        w.outputs_of(client).last().map(String::as_str),
        Some("done")
    );
}

#[test]
fn one_recovery_per_crash_on_every_tier() {
    one_recovery_per_crash(builder().build());
    one_recovery_per_crash(ShardTier::world(builder(), 2));
    one_recovery_per_crash(ShardTier::world(builder(), 3));
    one_recovery_per_crash(QuorumTier::world(builder(), 3, 0));
}

/// A restarted priority recorder is not the authority until it is
/// readmitted, the same rule as the medium's required set: its log lacks
/// what it missed while down. The member ranked first for `pid` (the
/// echo server on node 0, or node 0's kernel, whose restart it would
/// run) crashes and restarts, and the server crashes at the restart
/// instant. Until readmission the other recorder answers for `pid`. The
/// crash costs one recovery, and the client finishes. (Readmission comes
/// at the next event: a rebuilt entry counts as checkpointed at the
/// restart, so `caught_up` holds at once. A readmission that waited for
/// every process to checkpoint again would come later.)
fn a_rejoining_top_recorder_is_not_the_authority(pid_of: fn(ProcessId) -> ProcessId) {
    let mut w = ShardTier::world(builder(), 2);
    let server = w.spawn(0, "echo", vec![]).unwrap();
    let client = w
        .spawn(1, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    let pid = pid_of(server);
    let top = w.tier.map().ranked(pid)[0].0 as usize;
    let other = 1 - top;
    w.run_until(SimTime::from_millis(30));
    w.crash_member(top);
    w.run_until(SimTime::from_millis(40));
    w.restart_member(top);
    assert_eq!(w.tier.authority(pid), Some(other));
    w.crash_process(server, "injected");
    w.run_until(SimTime::from_secs(10));
    assert_eq!(w.tier.authority(pid), Some(top), "readmitted");
    let runs: Vec<u64> = w
        .member_nodes()
        .map(|rn| rn.manager().stats().process_recoveries.get())
        .collect();
    assert_eq!(
        runs.iter().sum::<u64>(),
        1,
        "recoveries per recorder: {runs:?}"
    );
    assert_eq!(w.recoveries_completed(), 1);
    assert_eq!(
        w.outputs_of(client).last().map(String::as_str),
        Some("done")
    );
}

#[test]
fn a_rejoining_priority_recorder_is_not_the_authority() {
    a_rejoining_top_recorder_is_not_the_authority(|server| server);
}

#[test]
fn a_rejoining_priority_recorder_does_not_restart_the_node() {
    a_rejoining_top_recorder_is_not_the_authority(|server| ProcessId::kernel_of(server.node));
}

/// One call the world made of its medium, with the instant.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Submit(SimTime, Frame),
    Timer(SimTime, u64),
}

/// What a [`Tap`] saw.
#[derive(Default)]
struct TapLog {
    /// Every call the world made, in order.
    calls: Vec<Call>,
    /// The deliveries each call answered, as the medium appended them.
    fanouts: Vec<Vec<(StationId, Frame)>>,
    /// Timer callbacks the tap put in to split deliveries apart.
    splits: u64,
}

/// The tap's own timer token, never handed to the bus.
const SPLIT: u64 = u64::MAX;

/// A medium that logs what the world asks of it and what it answers.
/// When `split`, it follows every delivery with a timer
/// callback of its own at the same instant, which it swallows: no two
/// deliveries are adjacent, so every station's receipt is an event of
/// its own — the world as it ran before receptions were grouped, with
/// one empty event per delivery more.
struct Tap {
    bus: Box<dyn Lan>,
    split: bool,
    log: Rc<RefCell<TapLog>>,
}

impl Tap {
    fn answered(&mut self, from: usize, out: &mut Vec<LanAction>) {
        let mut log = self.log.borrow_mut();
        let mut fanout = Vec::new();
        for a in out.split_off(from) {
            if let LanAction::Deliver { at, to, frame, .. } = &a {
                fanout.push((*to, frame.clone()));
                if self.split {
                    out.push(a.clone());
                    out.push(LanAction::SetTimer {
                        at: *at,
                        token: SPLIT,
                    });
                    log.splits += 1;
                    continue;
                }
            }
            out.push(a);
        }
        log.fanouts.push(fanout);
    }
}

impl Lan for Tap {
    fn attach(&mut self, station: StationId) {
        self.bus.attach(station);
    }

    fn set_station_up(&mut self, station: StationId, up: bool) {
        self.bus.set_station_up(station, up);
    }

    fn set_required_recorders(&mut self, recorders: Vec<StationId>) {
        self.bus.set_required_recorders(recorders);
    }

    fn set_recorder_router(&mut self, router: Option<RecorderRouter>) {
        self.bus.set_recorder_router(router);
    }

    fn set_faults(&mut self, faults: FaultPlan) {
        self.bus.set_faults(faults);
    }

    fn submit_into(&mut self, now: SimTime, frame: Frame, out: &mut Vec<LanAction>) {
        let from = out.len();
        self.log
            .borrow_mut()
            .calls
            .push(Call::Submit(now, frame.clone()));
        self.bus.submit_into(now, frame, out);
        self.answered(from, out);
    }

    fn timer_into(&mut self, now: SimTime, token: u64, out: &mut Vec<LanAction>) {
        if token == SPLIT {
            return;
        }
        let from = out.len();
        self.log.borrow_mut().calls.push(Call::Timer(now, token));
        self.bus.timer_into(now, token, out);
        self.answered(from, out);
    }

    fn stats(&self) -> &LanStats {
        self.bus.stats()
    }

    fn config(&self) -> Option<&LanConfig> {
        self.bus.config()
    }
}

/// A busy exchange on `bus` with every kind of fault a tier reacts to:
/// a process crash, then tier member 0 down for 30 ms and back (its
/// readmission is `after_event` work on the sharded tier).
fn faulted_exchange<T: RecorderTier>(
    make: &impl Fn(WorldBuilder) -> World<T>,
    bus: Box<dyn Lan>,
    split: bool,
) -> (World<T>, Rc<RefCell<TapLog>>) {
    let log = Rc::new(RefCell::new(TapLog::default()));
    let tap = Tap {
        bus,
        split,
        log: Rc::clone(&log),
    };
    let mut w = make(finite_builder(600).medium(Box::new(tap)));
    let (server, _) = spawn_pair(&mut w);
    w.run_until(MID_EXCHANGE);
    w.crash_process(server, "contract");
    w.run_until(MID_EXCHANGE + SimDuration::from_millis(50));
    w.crash_member(0);
    w.run_until(MID_EXCHANGE + SimDuration::from_millis(80));
    w.restart_member(0);
    w.run_until(SimTime::from_secs(4));
    (w, log)
}

/// One transmission is one scheduler entry, with nothing else changed,
/// on the perfect bus and on the acknowledging ethernet (whose timers
/// fire at the instants frames arrive). The world is run beside its
/// [`Tap`]-split twin, in which every
/// station's receipt is its own event, and the two must be
/// indistinguishable but for scheduler counts: the medium is asked the
/// same things at the same instants in the same order — so the
/// receivers ran in the medium's order, `after_event` ran between them
/// (a readmission's required set and ownership map apply to the next
/// receiver), and what a receiver did at zero delay came after the whole
/// reception — and outputs, spans, recoveries and the report agree. The
/// counts differ by exactly one entry per listening station beyond the
/// first of each transmission.
fn one_entry_per_transmission<T: RecorderTier>(make: impl Fn(WorldBuilder) -> World<T>) {
    let media: [fn() -> Box<dyn Lan>; 2] = [
        || Box::new(PerfectBus::new(LanConfig::default())),
        || Box::new(Ethernet::acknowledging(LanConfig::default())),
    ];
    for medium in media {
        let (w, log) = faulted_exchange(&make, medium(), false);
        let (twin, twin_log) = faulted_exchange(&make, medium(), true);
        same_but_for_the_count(&w, &log.borrow(), &twin, &twin_log.borrow());
    }
}

fn same_but_for_the_count<T: RecorderTier>(
    w: &World<T>,
    log: &TapLog,
    twin: &World<T>,
    twin_log: &TapLog,
) {
    assert!(log.calls.len() > 500, "{} calls", log.calls.len());
    assert!(
        log.calls == twin_log.calls,
        "the medium saw different calls"
    );
    assert_eq!(w.outputs.len(), twin.outputs.len());
    assert_eq!(w.output_fingerprint(), twin.output_fingerprint());
    assert_eq!(w.obs_fingerprint(), twin.obs_fingerprint());
    assert!(w.recoveries_completed() > 0);
    assert_eq!(w.recoveries_completed(), twin.recoveries_completed());
    let report = |w: &World<T>| {
        let mut r = w.obs_report();
        r.sched = Default::default();
        r.to_json().write()
    };
    assert_eq!(report(w), report(twin));

    // Which deliveries the world scheduled: every tier's `listens`
    // reads only the frame and the station.
    let nodes = w.nodes();
    let listens = |to: StationId, frame: &Frame| match to.0.checked_sub(nodes) {
        None => frame.dst.accepts(to),
        Some(idx) => w.tier.listens(idx as usize, frame),
    };
    let (mut receipts, mut receptions) = (0, 0);
    for fanout in &log.fanouts {
        let heard = fanout.iter().filter(|(to, f)| listens(*to, f)).count() as u64;
        receipts += heard;
        receptions += u64::from(heard > 0);
    }
    assert!(
        receipts > receptions,
        "{receipts} receipts in {receptions} receptions"
    );
    let (entries, twin_entries) = (w.scheduler_probe(), twin.scheduler_probe());
    assert_eq!(
        twin_entries.scheduled - twin_log.splits - entries.scheduled,
        receipts - receptions
    );
}

#[test]
fn one_entry_per_transmission_under_the_single_recorder() {
    one_entry_per_transmission(|b| b.build());
}

#[test]
fn one_entry_per_transmission_under_priority_vector_recorders() {
    one_entry_per_transmission(|b| ShardTier::world(b, 2));
}

#[test]
fn one_entry_per_transmission_under_sharding() {
    one_entry_per_transmission(|b| ShardTier::world(b, 3));
}

#[test]
fn one_entry_per_transmission_under_quorum_sequencing() {
    one_entry_per_transmission(|b| QuorumTier::world(b, 3, 0));
}

/// What [`Probe`] saw, in order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Seen {
    Frame(usize),
    After,
    Timer,
}

/// The probe's own timer token, never handed to a member.
const PROBE: u64 = u64::MAX;

/// Three plain recorder nodes that log every frame a member receives,
/// every post-event step and every timer of the probe's own; member 0
/// asks for one at the very instant it receives a frame.
struct Probe {
    members: Vec<RecorderNode>,
    seen: Vec<Seen>,
}

impl RecorderTier for Probe {
    fn members(&self) -> usize {
        self.members.len()
    }

    fn node(&self, idx: usize) -> &RecorderNode {
        &self.members[idx]
    }

    fn node_mut(&mut self, idx: usize) -> &mut RecorderNode {
        &mut self.members[idx]
    }

    fn on_frame(
        &mut self,
        idx: usize,
        now: SimTime,
        frame: &Frame,
        recorder_ok: bool,
        out: &mut Vec<RNAction>,
    ) {
        self.seen.push(Seen::Frame(idx));
        if idx == 0 {
            out.push(RNAction::SetTimer {
                at: now,
                token: PROBE,
            });
        }
        self.members[idx].on_frame(now, frame, recorder_ok, out);
    }

    fn on_timer(&mut self, idx: usize, now: SimTime, token: u64, out: &mut Vec<RNAction>) {
        if token == PROBE {
            self.seen.push(Seen::Timer);
        } else {
            self.members[idx].on_timer(now, token, out);
        }
    }

    fn after_event(world: &mut World<Self>, _now: SimTime) {
        world.tier.seen.push(Seen::After);
    }

    fn required(&self) -> Vec<StationId> {
        Vec::new()
    }

    /// Every member records everything: the first live one.
    fn authority(&self, _pid: ProcessId) -> Option<usize> {
        self.members.iter().position(|m| m.is_up())
    }

    fn metric_prefix(&self, idx: usize) -> String {
        format!("probe/{idx}")
    }

    fn recovery_lags(&self, _now: SimTime, _suppressed: &BTreeMap<u64, u64>) -> Vec<RecoveryLag> {
        Vec::new()
    }
}

/// The order inside one reception, which no tier's output shows: a
/// broadcast from node 0 reaches kernel 1 and members 0, 1, 2 in one
/// scheduler entry; they receive it in the medium's order, each followed
/// by the tier's post-event step exactly as a separate event would be,
/// and what member 0 asked for at zero delay fires after the last of
/// them.
#[test]
fn a_reception_runs_its_stations_in_fate_order_with_after_event_between() {
    let tier = Probe {
        members: (2..5)
            .map(|n| RecorderNode::new(NodeId(n), RecorderConfig::default()))
            .collect(),
        seen: Vec::new(),
    };
    let mut w = WorldBuilder::new(2).build_with(tier);
    let frame = Frame::new(StationId(0), Destination::Broadcast, b"hello".to_vec());
    let at = SimTime::from_millis(1) + LanConfig::default().frame_time(frame.wire_bytes());
    w.run_until(SimTime::from_millis(1));
    let scheduled = w.scheduler_probe().scheduled;
    w.submit(w.now(), frame);
    assert_eq!(w.scheduler_probe().scheduled, scheduled + 1, "one entry");
    w.run_before(at);
    w.tier.seen.clear();
    let delivered = w.scheduler_probe().delivered;
    w.run_until(at);
    use Seen::{After, Frame as Got, Timer};
    assert_eq!(
        w.tier.seen,
        [
            After,
            Got(0),
            After,
            Got(1),
            After,
            Got(2),
            After,
            Timer,
            After
        ],
        "kernel 1, members 0-2, then the follow-up"
    );
    assert_eq!(w.scheduler_probe().delivered, delivered + 2);
}

/// Every client's deduplicated lines after `schedule`, in client order.
fn client_lines(topology: Topology, pings: u64, schedule: &str) -> Vec<Vec<String>> {
    let scenario = Scenario::new(topology, 31);
    let source = PingEcho {
        pings,
        ..scenario.default_source()
    };
    let schedule: FaultSchedule = schedule.parse().expect("literal parses");
    let mut t = scenario.build_with(&source);
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
/// election (~150 ms), before which a recovery waits for an authority.
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
    settled_contract(|b| ShardTier::world(b, 2));
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
    let scenario = Scenario::new(topology, 31);
    let source = PingEcho {
        pings: 150,
        ..scenario.default_source()
    };
    let crash_at = 300;

    let mut t = scenario.build_with(&source);
    let clean: FaultSchedule = "seed=31 horizon=600ms".parse().unwrap();
    assert!(
        run_schedule(t.as_mut(), &clean).is_some(),
        "fault-free settles"
    );
    assert_eq!(t.convergence_failures(), Vec::<String>::new());

    // `crash_process` of plan entry 1, a pinger.
    let mut t = scenario.build_with(&source);
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
    let mut t = scenario.build_with(&source);
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
    let mut t = scenario.build_with(&WithQuitter(source));
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
