//! The canonical ping/echo worlds every `lab` subcommand and the perf
//! matrix drive, stated once: the pinger registry, the smoke/full
//! sizing, the 3-node + 4-shard world whose server node crashes at
//! 50 ms, the quorum leader-failover world, the span-logs →
//! Chrome-trace export, and the lens operating point.

use publishing_core::world::{RecorderTier, World};
use publishing_core::WorldBuilder;
use publishing_demos::ids::{Channel, ProcessId};
use publishing_demos::link::Link;
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_net::Lan;
use publishing_perf::trace::{self, ChromeTrace};
use publishing_quorum::{QuorumTier, QuorumWorld};
use publishing_shard::{ShardTier, ShardedWorld};
use publishing_sim::time::SimTime;
use publishing_workload::WorkloadSpec;

/// Scenario sizing: the smoke size is the CI gate (< 1 s), the full size
/// is for local investigation.
pub struct Sizing {
    /// Pings per client.
    pub pings: u64,
    /// Ping/echo pairs.
    pub pairs: u32,
    /// Run horizon for the non-chaos scenarios.
    pub horizon: SimTime,
    /// Injection horizon for the perf matrix's chaos schedule (ms).
    pub chaos_horizon_ms: u64,
    /// Fault budget for the perf matrix's chaos schedule.
    pub chaos_faults: usize,
}

impl Sizing {
    /// The canonical sizing for `smoke` or full mode.
    pub fn new(smoke: bool) -> Sizing {
        if smoke {
            Sizing {
                pings: 10,
                pairs: 2,
                horizon: SimTime::from_secs(20),
                chaos_horizon_ms: 800,
                chaos_faults: 5,
            }
        } else {
            Sizing {
                pings: 25,
                pairs: 4,
                horizon: SimTime::from_secs(40),
                chaos_horizon_ms: 1500,
                chaos_faults: 7,
            }
        }
    }
}

/// The standard programs plus `pinger`: a ping client of `pings`
/// round-trips with a 2 ms think time.
pub fn registry(pings: u64) -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("pinger", move || {
        let mut p = PingClient::new(pings);
        p.think_ns = 2_000_000;
        Box::new(p)
    });
    reg
}

/// Spawns `pairs` echo servers on `server_node`, each with a pinger on
/// node 0 or 1 (alternating). Returns `(servers, clients)`.
pub fn spawn_pairs<T: RecorderTier>(
    w: &mut World<T>,
    pairs: u32,
    server_node: u32,
) -> (Vec<ProcessId>, Vec<ProcessId>) {
    (0..pairs)
        .map(|i| {
            let server = w
                .spawn(server_node, "echo", vec![])
                .expect("echo registered");
            let client = w
                .spawn(i % 2, "pinger", vec![Link::to(server, Channel::DEFAULT, 7)])
                .expect("pinger registered");
            (server, client)
        })
        .unzip()
}

/// The standard ping/echo world, built and spawned but not yet run: echo
/// servers on node 2, pingers on nodes 0/1, four recorder shards, on a
/// caller-supplied medium (default: the perfect bus). Returns the world
/// and its server pids.
pub fn ping_world(s: &Sizing, medium: Option<Box<dyn Lan>>) -> (ShardedWorld, Vec<ProcessId>) {
    let mut builder = WorldBuilder::new(3).registry(registry(s.pings));
    if let Some(m) = medium {
        builder = builder.medium(m);
    }
    let mut w = ShardTier::world(builder, 4);
    let (servers, _) = spawn_pairs(&mut w, s.pairs, 2);
    (w, servers)
}

/// The canonical crash/recovery run: the server node crashes at 50 ms
/// and the responsible shards recover it in parallel by `horizon`.
pub fn crash_server_node(w: &mut ShardedWorld, horizon: SimTime) {
    w.run_until(SimTime::from_millis(50));
    w.crash_node(2);
    w.run_until(horizon);
}

/// The committed quorum leader-failover run: one ping/echo pair over a
/// 3-way recorder quorum, the leader replica crashed at 250 ms (forcing
/// an election), then the server node at 400 ms (forcing a replay from
/// the replicated arrival log under the new leader). Returns the world
/// and the server pid.
pub fn quorum_failover_world(pings: u64, horizon: SimTime) -> (QuorumWorld, ProcessId) {
    let mut w = QuorumTier::world(WorldBuilder::new(2).registry(registry(pings)), 3, 0);
    let (servers, _) = spawn_pairs(&mut w, 1, 1);
    w.run_until(SimTime::from_millis(250));
    if let Some(leader) = w.tier.leader() {
        w.crash_member(leader);
    }
    w.run_until(SimTime::from_millis(400));
    w.crash_node(1);
    w.run_until(horizon);
    (w, servers[0])
}

/// The Chrome-trace export of a world's span logs, one row per component
/// in [`World::span_logs`] order: kernels by node id, then tier members
/// (`member` names them: `shard`, `replica`) by index.
pub fn chrome_trace<T: RecorderTier>(w: &World<T>, member: &str) -> ChromeTrace {
    let names = (0..w.kernels.len())
        .map(|n| format!("node {n} kernel"))
        .chain((0..).map(|i| format!("{member} {i} recorder")));
    let components: Vec<_> = names.zip(w.span_logs()).collect();
    trace::from_spans(&components)
}

/// The loaded operating point `lab lens --smoke` and the perf matrix's
/// `lens_overhead` scenario profile: heavy enough that the knee sits
/// *inside* a 12-user bracket on both media — a capped bracket is not a
/// knee and would poison the what-if predictions.
pub fn lens_spec() -> WorkloadSpec {
    WorkloadSpec {
        subjects: 2,
        rate_per_sec: 100,
        horizon_ms: 400,
        ..WorkloadSpec::default()
    }
}
