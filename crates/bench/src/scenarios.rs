//! Benchmark scenarios: the runnable experiments behind every table and
//! figure in the evaluation. Each function builds a world (or medium, or
//! model), runs the paper's experiment, and returns the numbers the paper
//! reports. `lab tables` prints them.

use publishing_core::node::RecorderConfig;
use publishing_core::world::WorldBuilder;
use publishing_demos::costs::CostModel;
use publishing_demos::driver::SHORT_BYTES;
use publishing_demos::ids::{Channel, LinkId, NodeId, ProcessId};
use publishing_demos::kernel::{decode_ctl, encode_ctl};
use publishing_demos::link::Link;
use publishing_demos::program::{Ctx, Program, Received};
use publishing_demos::programs;
use publishing_demos::protocol::codes;
use publishing_demos::registry::ProgramRegistry;
use publishing_demos::sysproc::{self, sys_codes, CreateDone, CreateReq};
use publishing_net::ethernet::Ethernet;
use publishing_net::frame::{Destination, Frame, StationId};
use publishing_net::lan::{Lan, LanAction, LanConfig};
use publishing_net::token_ring::TokenRing;
use publishing_sim::codec::{CodecError, Decode, Encoder};
use publishing_sim::event::Scheduler;
use publishing_sim::rng::DetRng;
use publishing_sim::time::{SimDuration, SimTime};
use publishing_sim::{Counter, Summary};

// ---------------------------------------------------------------------
// Figure 5.6/5.7: per-message overheads with and without publishing
// ---------------------------------------------------------------------

/// The Figure 5.6 measurement program: sends a message to itself `left`
/// times (512 in the paper).
#[derive(Debug, Clone)]
pub struct SelfPing {
    /// Iterations remaining.
    pub left: u64,
}

impl Program for SelfPing {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.create_link(Channel::DEFAULT, 0);
        if self.left > 0 {
            let _ = ctx.send(me, vec![0u8; 32]);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: Received) {
        self.left -= 1;
        if self.left > 0 {
            let _ = ctx.send(LinkId(0), vec![0u8; 32]);
        } else {
            ctx.output(b"selfping done".to_vec());
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        self.left.to_le_bytes().to_vec()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        self.left =
            u64::from_le_bytes(bytes.try_into().map_err(|_| CodecError::UnexpectedEnd {
                needed: 8,
                remaining: bytes.len(),
            })?);
        Ok(())
    }
}

/// Results of the Figure 5.7 experiment.
#[derive(Debug, Clone, Copy)]
pub struct PerMessageCosts {
    /// Mean elapsed (real) time per send/receive round, milliseconds.
    pub real_ms: f64,
    /// Mean kernel CPU time per round, milliseconds.
    pub cpu_ms: f64,
}

/// Runs the Figure 5.6 program on one node and measures per-round costs.
pub fn per_message_costs(publishing: bool, rounds: u64) -> PerMessageCosts {
    let mut reg = ProgramRegistry::new();
    reg.register("selfping", move || Box::new(SelfPing { left: rounds }));
    let mut builder = WorldBuilder::new(1)
        .registry(reg)
        .costs(CostModel::default());
    if !publishing {
        builder = builder.without_publishing();
    }
    let mut w = builder.build();
    let pid = w.spawn(0, "selfping", vec![]).unwrap();
    let start_cpu = w.kernels[0].stats().cpu_used;
    let start_real = w.now();
    // Stop as soon as the program reports completion so background
    // watchdog chatter doesn't pollute the measurement.
    for step in 1..200_000u64 {
        w.run_until(SimTime::from_millis(step * 20));
        if !w.outputs_of(pid).is_empty() {
            break;
        }
    }
    assert_eq!(w.outputs_of(pid).len(), 1, "self-ping must complete");
    let cpu = w.kernels[0].stats().cpu_used - start_cpu;
    let done_at = w
        .outputs
        .iter()
        .find(|o| o.pid == pid)
        .map(|o| o.at)
        .unwrap_or(w.now());
    let real = done_at.saturating_since(start_real);
    PerMessageCosts {
        real_ms: real.as_millis_f64() / rounds as f64,
        cpu_ms: cpu.as_millis_f64() / rounds as f64,
    }
}

// ---------------------------------------------------------------------
// Figure 5.8: per-process creation/destruction overheads
// ---------------------------------------------------------------------

/// Creates and destroys a null process `left` times through the §4.2.3
/// control chain, as the Figure 5.8 experiment does (25 in the paper).
#[derive(Debug)]
pub struct CreateDestroyDriver {
    left: u64,
}

impl Program for CreateDestroyDriver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.left > 0 {
            let reply = ctx.create_link(Channel::DEFAULT, 0);
            let req = CreateReq {
                program_name: "null".into(),
                node: NodeId(0),
                req_id: 0,
            };
            let _ = ctx.send_passing(LinkId(0), encode_ctl(sys_codes::PM_CREATE, &req), reply);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        if let Some((sys_codes::PM_REPLY, payload)) = decode_ctl(&msg.body) {
            let done = CreateDone::decode_all(payload).unwrap_or(CreateDone {
                pid: None,
                req_id: 0,
            });
            if done.pid.is_some() {
                if let Some(control) = msg.link {
                    let mut e = Encoder::new();
                    e.u32(codes::STOP_PROCESS);
                    let _ = ctx.send(control, e.finish());
                }
            }
            self.left -= 1;
            if self.left > 0 {
                let reply = ctx.create_link(Channel::DEFAULT, 0);
                let req = CreateReq {
                    program_name: "null".into(),
                    node: NodeId(0),
                    req_id: 0,
                };
                let _ = ctx.send_passing(LinkId(0), encode_ctl(sys_codes::PM_CREATE, &req), reply);
            } else {
                ctx.output(b"create-destroy done".to_vec());
            }
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        self.left.to_le_bytes().to_vec()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        self.left =
            u64::from_le_bytes(bytes.try_into().map_err(|_| CodecError::UnexpectedEnd {
                needed: 8,
                remaining: bytes.len(),
            })?);
        Ok(())
    }
}

/// A program that does nothing (the "null process" of Figure 5.8).
#[derive(Debug, Default)]
pub struct NullProgram;

impl Program for NullProgram {
    fn on_start(&mut self, _: &mut Ctx<'_>) {}
    fn on_message(&mut self, _: &mut Ctx<'_>, _: Received) {}
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }
    fn restore(&mut self, _: &[u8]) -> Result<(), CodecError> {
        Ok(())
    }
}

/// Runs the Figure 5.8 experiment; returns total kernel CPU ms for
/// `cycles` create/destroy cycles.
pub fn per_process_costs(publishing: bool, cycles: u64) -> f64 {
    let mut reg = ProgramRegistry::new();
    sysproc::register_system(&mut reg);
    reg.register("null", || Box::<NullProgram>::default());
    reg.register("driver", move || {
        Box::new(CreateDestroyDriver { left: cycles })
    });
    let mut builder = WorldBuilder::new(1)
        .registry(reg)
        .costs(CostModel::default());
    if !publishing {
        builder = builder.without_publishing();
    }
    let mut w = builder.build();
    let memsched = w
        .spawn(
            0,
            "memsched",
            vec![Link::to(
                ProcessId::kernel_of(NodeId(0)),
                Channel::DEFAULT,
                0,
            )],
        )
        .unwrap();
    let procmgr = w
        .spawn(0, "procmgr", vec![Link::to(memsched, Channel::DEFAULT, 0)])
        .unwrap();
    let start_cpu = w.kernels[0].stats().cpu_used;
    let driver = w
        .spawn(0, "driver", vec![Link::to(procmgr, Channel::DEFAULT, 0)])
        .unwrap();
    for step in 1..200_000u64 {
        w.run_until(SimTime::from_millis(step * 20));
        if !w.outputs_of(driver).is_empty() {
            break;
        }
    }
    assert_eq!(w.outputs_of(driver).len(), 1, "driver must complete");
    (w.kernels[0].stats().cpu_used - start_cpu).as_millis_f64()
}

// ---------------------------------------------------------------------
// Figures 6.1/6.2: standard vs Acknowledging Ethernet under load
// ---------------------------------------------------------------------

/// Results of one Ethernet load experiment.
#[derive(Debug, Clone, Copy)]
pub struct EthernetRun {
    /// Offered data frames per second (all stations).
    pub offered_fps: f64,
    /// Data frames delivered per second (goodput, one receiver each).
    pub delivered_fps: f64,
    /// Collisions observed.
    pub collisions: u64,
    /// Medium busy fraction.
    pub utilization: f64,
}

/// Drives an Ethernet with Poisson data traffic from `stations` senders
/// for `horizon`; in `acknowledging` mode MAC-level ack slots cover
/// acknowledgements, otherwise every delivery triggers a contending
/// 40-byte ack frame (the Figure 6.2 situation).
pub fn ethernet_run(
    acknowledging: bool,
    stations: u32,
    frames_per_sec_per_station: f64,
    horizon: SimTime,
    seed: u64,
) -> EthernetRun {
    let cfg = LanConfig {
        seed,
        // The MAC experiment isolates medium behaviour: no interface delay.
        interpacket: SimDuration::from_micros(10),
        ..LanConfig::default()
    };
    let mut lan = if acknowledging {
        Ethernet::acknowledging(cfg)
    } else {
        Ethernet::standard(cfg)
    };
    for s in 0..stations {
        lan.attach(StationId(s));
    }
    let mut rng = DetRng::new(seed ^ 0xE771);
    let mut sched: Scheduler<Ev> = Scheduler::new();

    enum Ev {
        Submit { from: u32 },
        LanTimer(u64),
        Deliver { to: u32, data: bool },
    }

    // Seed each station's Poisson arrivals.
    let gap = 1.0 / frames_per_sec_per_station;
    for s in 0..stations {
        let dt = SimDuration::from_secs_f64(rng.exponential(gap));
        sched.schedule_at(SimTime::ZERO + dt, Ev::Submit { from: s });
    }
    let mut delivered = Counter::new();
    let mut offered = Counter::new();

    // The loop's one action buffer: the medium appends, `apply` drains.
    let mut actions = Vec::new();
    fn apply(sched: &mut Scheduler<Ev>, actions: &mut Vec<LanAction>, delivered: &mut Counter) {
        for a in actions.drain(..) {
            match a {
                LanAction::SetTimer { at, token } => {
                    sched.schedule_at(at, Ev::LanTimer(token));
                }
                LanAction::Deliver { at, to, frame, .. } => {
                    // Data frames are >100 bytes; acks are 40.
                    let data = frame.payload().len() >= 100;
                    if data {
                        delivered.inc();
                    }
                    sched.schedule_at(at, Ev::Deliver { to: to.0, data });
                }
                LanAction::TxOutcome { .. } => {}
            }
        }
    }

    while let Some((now, ev)) = sched.pop() {
        if now > horizon {
            break;
        }
        match ev {
            Ev::Submit { from } => {
                offered.inc();
                let to = (from + 1 + rng.below(stations as u64 - 1) as u32) % stations;
                let frame = Frame::new(
                    StationId(from),
                    Destination::Station(StationId(to)),
                    vec![0; 200],
                );
                lan.submit_into(now, frame, &mut actions);
                apply(&mut sched, &mut actions, &mut delivered);
                let dt = SimDuration::from_secs_f64(rng.exponential(gap));
                sched.schedule_at(now + dt, Ev::Submit { from });
            }
            Ev::LanTimer(token) => {
                lan.timer_into(now, token, &mut actions);
                apply(&mut sched, &mut actions, &mut delivered);
            }
            Ev::Deliver { to, data } => {
                if data && !acknowledging {
                    // Standard Ethernet: the receiver's MAC-level ack is an
                    // ordinary contending frame.
                    let target = StationId((to + 1) % stations); // ack goes back; dst irrelevant
                    let frame =
                        Frame::new(StationId(to), Destination::Station(target), vec![0; 40]);
                    lan.submit_into(now, frame, &mut actions);
                    apply(&mut sched, &mut actions, &mut delivered);
                }
            }
        }
    }
    let secs = horizon.as_secs_f64();
    EthernetRun {
        offered_fps: offered.get() as f64 / secs,
        delivered_fps: delivered.get() as f64 / secs,
        collisions: lan.stats().collisions.get(),
        utilization: lan.stats().busy.utilization(horizon),
    }
}

// ---------------------------------------------------------------------
// Figures 6.3/6.4: token-ring delivery with the recorder ack field
// ---------------------------------------------------------------------

/// Results of a token-ring placement experiment.
#[derive(Debug, Clone, Copy)]
pub struct RingRun {
    /// Ring distance from sender to recorder (hops).
    pub recorder_distance: u32,
    /// Mean delivery latency (µs).
    pub mean_latency_us: f64,
}

/// Measures delivery latency on a ring as a function of where the
/// recorder sits relative to the traffic: destinations upstream of the
/// recorder pay a second revolution (§6.1.2).
pub fn token_ring_run(stations: u32, recorder: u32, sends: u32) -> RingRun {
    let cfg = LanConfig {
        seed: 17,
        ..LanConfig::default()
    };
    let hop = SimDuration::from_micros(10);
    let mut ring = TokenRing::new(cfg, hop);
    for s in 0..stations {
        ring.attach(StationId(s));
    }
    ring.set_required_recorders(vec![StationId(recorder)]);
    let mut latency_us = Summary::new();
    let mut now = SimTime::ZERO;
    let (mut actions, mut more) = (Vec::new(), Vec::new());
    for i in 0..sends {
        let from = 0u32;
        let to = 1 + (i % (stations - 1));
        if to == recorder {
            continue;
        }
        let frame = Frame::new(
            StationId(from),
            Destination::Station(StationId(to)),
            vec![0; SHORT_BYTES],
        );
        actions.clear();
        ring.submit_into(now, frame, &mut actions);
        let mut strip = now;
        for a in &actions {
            match a {
                LanAction::Deliver { at, to: d, .. } if d.0 == to => {
                    latency_us.record(at.saturating_since(now).as_millis_f64() * 1000.0);
                }
                LanAction::SetTimer { at, token } => {
                    strip = *at;
                    // Free the ring for the next send.
                    let _ = (at, token);
                }
                _ => {}
            }
        }
        // Fire the strip timer to release the token.
        if let Some(LanAction::SetTimer { at, token }) = actions
            .iter()
            .find(|a| matches!(a, LanAction::SetTimer { .. }))
        {
            more.clear();
            ring.timer_into(*at, *token, &mut more);
            assert!(more
                .iter()
                .all(|a| matches!(a, LanAction::TxOutcome { .. })));
            strip = *at;
        }
        now = strip;
    }
    RingRun {
        recorder_distance: recorder,
        mean_latency_us: latency_us.mean(),
    }
}

// ---------------------------------------------------------------------
// Baseline comparison: work lost after a crash
// ---------------------------------------------------------------------

/// Work lost (summed rollback across processes) under each recovery
/// scheme, for the same random workload.
#[derive(Debug, Clone, Copy)]
pub struct BaselineComparison {
    /// Rule 1 recovery lines (undirected interactions).
    pub recovery_lines_ms: f64,
    /// Rule 2 (Russell's directional messages with replay).
    pub russell_ms: f64,
    /// Publishing: only the crashed process recomputes from its own
    /// checkpoint.
    pub publishing_ms: f64,
}

/// Runs the Chapter 2 comparison over `trials` random histories.
pub fn baseline_comparison(trials: u32, seed: u64) -> BaselineComparison {
    use publishing_core::baseline::{recovery_line_rule1, recovery_line_rule2, History};
    let mut rng = DetRng::new(seed);
    let horizon = SimTime::from_secs(10);
    let mut r1 = 0.0;
    let mut r2 = 0.0;
    let mut pubs = 0.0;
    for _ in 0..trials {
        let h = History::random(
            &mut rng,
            4,
            horizon,
            SimDuration::from_millis(150),
            SimDuration::from_secs(1),
        );
        let crashed = rng.index(4);
        let crash_at = horizon;
        let l1 = recovery_line_rule1(&h, crashed, crash_at);
        let l2 = recovery_line_rule2(&h, crashed, crash_at);
        r1 += l1.work_lost(crash_at).as_millis_f64();
        r2 += l2.work_lost(crash_at).as_millis_f64();
        // Publishing: the crashed process alone recomputes from its last
        // checkpoint; nobody else loses anything.
        let own_cp = h.processes[crashed]
            .checkpoints
            .iter()
            .rev()
            .find(|&&c| c < crash_at)
            .copied()
            .unwrap_or(SimTime::ZERO);
        pubs += crash_at.saturating_since(own_cp).as_millis_f64();
    }
    let n = trials as f64;
    BaselineComparison {
        recovery_lines_ms: r1 / n,
        russell_ms: r2 / n,
        publishing_ms: pubs / n,
    }
}

// ---------------------------------------------------------------------
// Recovery-time measurement vs the §3.2.3 model
// ---------------------------------------------------------------------

/// Measured recovery latency for a crash after `work_ms` of activity,
/// with checkpoints every `checkpoint_ms` (0 = never).
pub fn measured_recovery_ms(checkpoint_ms: u64, crash_at_ms: u64) -> f64 {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("ping", || {
        let mut p = programs::PingClient::new(2000);
        p.think_ns = 1_000_000;
        Box::new(p)
    });
    let policy = if checkpoint_ms == 0 {
        publishing_core::checkpoint::CheckpointPolicy::Never
    } else {
        publishing_core::checkpoint::CheckpointPolicy::Periodic(SimDuration::from_millis(
            checkpoint_ms,
        ))
    };
    let rc = RecorderConfig {
        policy,
        policy_tick: SimDuration::from_millis(5),
    };
    let mut w = WorldBuilder::new(2).registry(reg).recorder(rc).build();
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let _client = w
        .spawn(0, "ping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(crash_at_ms));
    let completed_before = w.tier.manager().stats().completed.get();
    w.crash_process(server, "bench");
    let crash_time = w.now();
    // Run until the recovery job completes (crash notice + recreate +
    // replay + finish handshake).
    let mut recovered_at = None;
    for step in 1..20_000u64 {
        w.run_until(crash_time + SimDuration::from_millis(step));
        if w.tier.manager().stats().completed.get() > completed_before {
            recovered_at = Some(w.now());
            break;
        }
    }
    recovered_at
        .map(|t| t.saturating_since(crash_time).as_millis_f64())
        .unwrap_or(f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_message_publishing_costs_more() {
        let with = per_message_costs(true, 64);
        let without = per_message_costs(false, 64);
        assert!(
            with.cpu_ms > without.cpu_ms + 20.0,
            "with {with:?} vs without {without:?}"
        );
        assert!(with.real_ms > without.real_ms);
    }

    #[test]
    fn per_process_publishing_costs_more() {
        let with = per_process_costs(true, 5);
        let without = per_process_costs(false, 5);
        assert!(with > without * 3.0, "with {with} vs without {without}");
    }

    #[test]
    fn acknowledging_ethernet_wins_under_heavy_load() {
        let horizon = SimTime::from_secs(5);
        let heavy_plain = ethernet_run(false, 8, 60.0, horizon, 1);
        let heavy_ack = ethernet_run(true, 8, 60.0, horizon, 1);
        assert!(
            heavy_ack.collisions < heavy_plain.collisions,
            "ack {heavy_ack:?} plain {heavy_plain:?}"
        );
        assert!(heavy_ack.delivered_fps >= heavy_plain.delivered_fps * 0.95);
    }

    #[test]
    fn light_load_is_similar_for_both_ethernets() {
        let horizon = SimTime::from_secs(5);
        let plain = ethernet_run(false, 4, 3.0, horizon, 2);
        let ack = ethernet_run(true, 4, 3.0, horizon, 2);
        let ratio = ack.delivered_fps / plain.delivered_fps.max(1e-9);
        assert!((0.9..1.1).contains(&ratio), "light load parity: {ratio}");
    }

    #[test]
    fn ring_upstream_destinations_pay_second_revolution() {
        // Recorder right after the sender: cheap. Recorder at the far end:
        // destinations before it wait a revolution.
        let near = token_ring_run(8, 1, 32);
        let far = token_ring_run(8, 7, 32);
        assert!(
            far.mean_latency_us > near.mean_latency_us,
            "near {near:?} far {far:?}"
        );
    }

    #[test]
    fn publishing_loses_least_work() {
        let c = baseline_comparison(40, 11);
        assert!(c.publishing_ms <= c.russell_ms + 1e-9);
        assert!(c.russell_ms <= c.recovery_lines_ms + 1e-9);
        assert!(c.recovery_lines_ms > c.publishing_ms, "{c:?}");
    }

    #[test]
    fn windowing_beats_stop_and_wait() {
        let saw = flood_completion_ms(1, 40);
        let win = flood_completion_ms(8, 40);
        assert!(
            win < saw * 0.5,
            "window 8 ({win} ms) should be far faster than stop-and-wait ({saw} ms)"
        );
    }

    #[test]
    fn checkpoints_shorten_recovery() {
        let without = measured_recovery_ms(0, 400);
        let with = measured_recovery_ms(50, 400);
        assert!(with < without, "with {with} vs without {without}");
    }
}

// ---------------------------------------------------------------------
// §4.3.3 ablation: stop-and-wait vs windowed transport
// ---------------------------------------------------------------------

/// Floods `count` messages at a digest sink in one activation.
#[derive(Debug)]
pub struct Flooder {
    count: u64,
}

impl Program for Flooder {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.count {
            let _ = ctx.send(LinkId(0), i.to_le_bytes().to_vec());
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_>, _: Received) {}
    fn snapshot(&self) -> Vec<u8> {
        self.count.to_le_bytes().to_vec()
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        self.count =
            u64::from_le_bytes(bytes.try_into().map_err(|_| CodecError::UnexpectedEnd {
                needed: 8,
                remaining: bytes.len(),
            })?);
        Ok(())
    }
}

/// Measures the virtual time for `count` one-way messages to cross the
/// LAN under the given transport window (1 = the thesis' stop-and-wait,
/// larger = the "windowing scheme" it plans to adopt). Returns
/// milliseconds to deliver all of them.
pub fn flood_completion_ms(window: usize, count: u64) -> f64 {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("flooder", move || Box::new(Flooder { count }));
    let transport = publishing_demos::transport::TransportConfig { window };
    let mut w = WorldBuilder::new(2)
        .registry(reg)
        .transport(transport)
        .build();
    let sink = w.spawn(1, "digest-sink", vec![]).unwrap();
    let _flooder = w
        .spawn(0, "flooder", vec![Link::to(sink, Channel::DEFAULT, 0)])
        .unwrap();
    for step in 1..200_000u64 {
        w.run_until(SimTime::from_millis(step * 5));
        let done = w.kernels[1]
            .process(sink.local)
            .map(|p| p.read_count >= count)
            .unwrap_or(false);
        if done {
            break;
        }
    }
    let last = w
        .outputs
        .iter()
        .filter(|o| o.pid == sink)
        .map(|o| o.at)
        .max()
        .expect("sink produced output");
    last.as_millis_f64()
}
