//! Chaos scenarios: the workload under test and the target worlds.
//!
//! A [`Scenario`] names a topology and a [`WorkloadSource`] supplies the
//! load: a program registry plus a spawn plan. The default source is
//! independent ping/echo FIFO pairs — every client's deduplicated
//! output is pinned regardless of loss-induced interleaving — and the
//! workload engine plugs in phase-compiled publish drivers through the
//! same hook. The [`ChaosWorld`] trait is the narrow waist the driver
//! and oracle see: run to an instant, inject, heal, and the invariant
//! probes. A scenario and a schedule together print as one reproducer
//! literal ([`Scenario::reproducer`]) that names the world it ran on.

use crate::schedule::{ChaosConfig, Fault, FaultSchedule};
use publishing_core::node::RecorderNode;
use publishing_core::world::{RecorderTier, World, WorldBuilder};
use publishing_demos::costs::CostModel;
use publishing_demos::ids::{Channel, ProcessId};
use publishing_demos::link::Link;
use publishing_demos::process::RunState;
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_demos::transport::TransportConfig;
use publishing_net::ethernet::Ethernet;
use publishing_net::lan::{Lan, LanConfig};
use publishing_obs::registry::MetricsRegistry;
use publishing_obs::span::check_replay_prefix;
use publishing_quorum::QuorumTier;
use publishing_shard::ShardTier;
use publishing_sim::fault::FaultPlan;
use publishing_sim::time::SimTime;
use publishing_stable::disk::DiskFaults;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// Which recorder tier the scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One recorder node ([`World`]).
    Single,
    /// A sharded recorder tier ([`ShardTier`]).
    Sharded,
    /// A replicated recorder quorum ([`QuorumTier`]).
    Quorum,
}

/// Which broadcast medium the target world runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Medium {
    /// The idealized [`publishing_net::bus::PerfectBus`] (default).
    #[default]
    Perfect,
    /// The paper's 1983 experimental ethernet: `LanConfig::default()`'s
    /// 10 Mb/s + 1.6 ms interpacket gap, with contention.
    Ethernet,
}

impl fmt::Display for Topology {
    /// The topology's short name (CLI values, report keys, table rows).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Topology::Single => "single",
            Topology::Sharded => "sharded",
            Topology::Quorum => "quorum",
        })
    }
}

impl FromStr for Topology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "single" => Ok(Topology::Single),
            "sharded" => Ok(Topology::Sharded),
            "quorum" => Ok(Topology::Quorum),
            _ => Err(format!("unknown topology {s:?}")),
        }
    }
}

impl fmt::Display for Medium {
    /// The medium's short name (CLI values, report keys).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Medium::Perfect => "perfect",
            Medium::Ethernet => "ethernet",
        })
    }
}

impl FromStr for Medium {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "perfect" => Ok(Medium::Perfect),
            "ethernet" => Ok(Medium::Ethernet),
            _ => Err(format!("unknown medium {s:?}")),
        }
    }
}

/// A deterministic workload: by default two ping/echo FIFO pairs
/// exchanging eight round-trips each, with think times derived from the
/// workload seed ([`Scenario::default_source`]). [`Scenario::build_with`]
/// accepts any other [`WorkloadSource`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Target topology.
    pub topology: Topology,
    /// Seed feeding workload timing (ping think time).
    pub workload_seed: u64,
    /// Broadcast medium under the recorder tier.
    pub medium: Medium,
    /// Physical-constant knobs (costs, wire speed, transport window)
    /// the what-if profiler turns; identity by default.
    pub tuning: Tuning,
}

/// The scenario's physical constants — the knobs the what-if profiler
/// turns to apply a virtual speedup without touching protocol logic.
#[derive(Debug, Clone)]
pub struct Tuning {
    /// Node CPU cost model (zero by default, as everywhere else).
    pub costs: CostModel,
    /// Medium timing/bandwidth configuration.
    pub lan: LanConfig,
    /// Guaranteed-transport window width.
    pub transport: TransportConfig,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            costs: CostModel::zero(),
            lan: LanConfig::default(),
            transport: TransportConfig::default(),
        }
    }
}

/// Processing nodes in every scenario (the recorder tier sits above
/// them).
pub const NODES: u32 = 3;
/// Shards in the sharded scenario.
pub const SHARDS: u32 = 3;
/// Quorum replicas in the quorum scenario.
pub const REPLICAS: u32 = 3;

impl Scenario {
    /// A small default scenario for `topology`.
    pub fn new(topology: Topology, workload_seed: u64) -> Self {
        Scenario {
            topology,
            workload_seed,
            medium: Medium::Perfect,
            tuning: Tuning::default(),
        }
    }

    /// The reproducer literal of `schedule` on this scenario's world:
    /// `topology=T medium=M` followed by the schedule's own literal —
    /// what `lab chaos` prints for a failure and takes after
    /// `--schedule`. [`Scenario::from_reproducer`] reads it back.
    pub fn reproducer(&self, schedule: &FaultSchedule) -> String {
        format!(
            "topology={} medium={} {schedule}",
            self.topology, self.medium
        )
    }

    /// Parses a reproducer literal into the default scenario on the
    /// world it names, seeded with the schedule's workload seed, and the
    /// schedule. An absent `topology=` means `single`, an absent
    /// `medium=` means `perfect`, so a bare schedule literal is a
    /// reproducer too.
    ///
    /// # Errors
    ///
    /// Returns a description naming the token that does not parse.
    pub fn from_reproducer(lit: &str) -> Result<(Scenario, FaultSchedule), String> {
        let (mut topology, mut medium) = (Topology::Single, Medium::Perfect);
        let mut rest = Vec::new();
        for tok in lit.split_whitespace() {
            if let Some(t) = tok.strip_prefix("topology=") {
                topology = t.parse()?;
            } else if let Some(m) = tok.strip_prefix("medium=") {
                medium = m.parse()?;
            } else {
                rest.push(tok);
            }
        }
        let schedule: FaultSchedule = rest.join(" ").parse()?;
        let mut scenario = Scenario::new(topology, schedule.workload_seed);
        scenario.medium = medium;
        Ok((scenario, schedule))
    }

    /// Schedule `k` of the generated suite seeded `seed` on `topology`
    /// (`lab chaos`, `lab quorum`) and the scenario it is judged on: the
    /// default one, seeded with the schedule's own workload seed
    /// (`seed·1000 + k`), so a failure's reproducer literal rebuilds the
    /// world it failed on.
    pub fn suite_case(topology: Topology, seed: u64, k: u64) -> (Scenario, FaultSchedule) {
        let cfg = ChaosConfig::for_topology(topology, seed.wrapping_mul(1000).wrapping_add(k));
        let schedule = crate::schedule::generate(&cfg);
        (Scenario::new(topology, schedule.workload_seed), schedule)
    }

    /// The scenario with explicit physical-constant knobs.
    pub fn tuned(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// A fresh instance of the configured medium.
    fn medium_box(&self) -> Box<dyn Lan> {
        match self.medium {
            Medium::Perfect => Box::new(publishing_net::bus::PerfectBus::new(
                self.tuning.lan.clone(),
            )),
            Medium::Ethernet => Box::new(Ethernet::acknowledging(self.tuning.lan.clone())),
        }
    }

    /// The default ping/echo workload source for this scenario: two
    /// pairs of eight round-trips each — the load every reproducer
    /// literal and every pinned fingerprint in `tests/golden.rs` means.
    pub fn default_source(&self) -> PingEcho {
        PingEcho {
            topology: self.topology,
            pairs: 2,
            pings: 8,
            seed: self.workload_seed,
        }
    }

    /// Builds a fresh target world with the default ping/echo workload
    /// spawned.
    pub fn build(&self) -> Box<dyn ChaosWorld> {
        self.build_with(&self.default_source())
    }

    /// Builds a fresh target world with `source`'s workload spawned —
    /// the pluggable load-driver hook: the workload engine compiles a
    /// spec into a [`WorkloadSource`] and every topology runs it through
    /// the same spawn path the default ping/echo load uses.
    ///
    /// # Panics
    ///
    /// Panics if the plan names an unregistered program or links to a
    /// spawn at or after itself.
    pub fn build_with(&self, source: &dyn WorkloadSource) -> Box<dyn ChaosWorld> {
        let builder = WorldBuilder::new(NODES)
            .registry(source.registry())
            .medium(self.medium_box())
            .costs(self.tuning.costs.clone())
            .transport(self.tuning.transport.clone());
        match self.topology {
            Topology::Single => Target::boxed(builder.build(), source),
            Topology::Sharded => Target::boxed(ShardTier::world(builder, SHARDS as usize), source),
            Topology::Quorum => Target::boxed(
                QuorumTier::world(builder, REPLICAS as usize, self.workload_seed),
                source,
            ),
        }
    }
}

/// A link in a spawn plan, pointing at an earlier spawn by plan index.
/// Resolved to the spawned [`ProcessId`] at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanLink {
    /// Index into the plan of the spawn this link targets.
    pub target: usize,
    /// Channel the link sends on.
    pub channel: Channel,
    /// Link code the receiver sees.
    pub code: u32,
}

/// One process in a workload's spawn plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSpawn {
    /// Processing node (taken modulo [`NODES`]).
    pub node: u32,
    /// Registered program name.
    pub program: String,
    /// Initial links, each to an earlier spawn in the plan.
    pub links: Vec<PlanLink>,
    /// Whether this spawn's deduplicated output feeds the baseline
    /// oracle (its last line must be `"done"` for the chaos engine).
    pub client: bool,
}

/// A pluggable source of scenario load: the programs to register and
/// the processes to spawn. Implementations must be deterministic —
/// the chaos engine builds the same source several times (the
/// fault-free twin, then every faulted run) and compares their outputs.
pub trait WorkloadSource {
    /// The program registry the workload needs (including everything
    /// recovery must re-instantiate by name).
    fn registry(&self) -> ProgramRegistry;
    /// The spawn plan, in spawn order.
    fn plan(&self) -> Vec<PlanSpawn>;
}

/// Spawns a plan through a world's spawn function, resolving plan links
/// to pids. Returns `(procs, clients)`.
fn spawn_plan(
    plan: &[PlanSpawn],
    mut spawn: impl FnMut(u32, &str, Vec<Link>) -> ProcessId,
) -> (Vec<ProcessId>, Vec<ProcessId>) {
    let mut pids: Vec<ProcessId> = Vec::with_capacity(plan.len());
    let mut clients = Vec::new();
    for (i, s) in plan.iter().enumerate() {
        let links: Vec<Link> = s
            .links
            .iter()
            .map(|l| {
                assert!(l.target < i, "plan link must point at an earlier spawn");
                Link::to(pids[l.target], l.channel, l.code)
            })
            .collect();
        let pid = spawn(s.node % NODES, &s.program, links);
        pids.push(pid);
        if s.client {
            clients.push(pid);
        }
    }
    (pids, clients)
}

/// The default workload: independent ping/echo FIFO pairs. Placement
/// mirrors the historical per-topology layout so existing seeds and
/// shrunk reproducer literals keep their meaning.
#[derive(Debug, Clone)]
pub struct PingEcho {
    /// Target topology (placement differs per tier).
    pub topology: Topology,
    /// Ping/echo pairs.
    pub pairs: u32,
    /// Round-trips per pair.
    pub pings: u64,
    /// Seed feeding ping think time.
    pub seed: u64,
}

impl WorkloadSource for PingEcho {
    fn registry(&self) -> ProgramRegistry {
        let mut reg = ProgramRegistry::new();
        programs::register_standard(&mut reg);
        let pings = self.pings;
        let think_ns = 1_500_000 + (self.seed % 5) * 250_000;
        reg.register("chaos-pinger", move || {
            let mut p = PingClient::new(pings);
            p.think_ns = think_ns;
            Box::new(p)
        });
        reg
    }

    fn plan(&self) -> Vec<PlanSpawn> {
        let mut plan = Vec::new();
        for i in 0..self.pairs {
            let (server_node, client_node) = match self.topology {
                Topology::Single => (1 + i % 2, 0),
                Topology::Sharded | Topology::Quorum => (2, i % 2),
            };
            plan.push(PlanSpawn {
                node: server_node,
                program: "echo".into(),
                links: vec![],
                client: false,
            });
            plan.push(PlanSpawn {
                node: client_node,
                program: "chaos-pinger".into(),
                links: vec![PlanLink {
                    target: plan.len() - 1,
                    channel: Channel::DEFAULT,
                    code: 7,
                }],
                client: true,
            });
        }
        plan
    }
}

/// The narrow interface the chaos driver and oracle need from a world.
pub trait ChaosWorld {
    /// Delivers every event strictly before `t` and leaves the clock at
    /// `t`: what is injected next lands before the events due at `t`.
    fn run_before(&mut self, t: SimTime);
    /// Delivers every event at or before `deadline` and leaves the clock
    /// there.
    fn run_until(&mut self, deadline: SimTime);
    /// Injects one fault now. Faults that do not apply to the topology
    /// or the current state (e.g. restarting a recorder that is up) are
    /// no-ops, so shrunk schedules stay runnable.
    fn inject(&mut self, fault: &Fault);
    /// Reapplies the medium fault plan (burst boundaries).
    fn set_medium_faults(&mut self, plan: FaultPlan);
    /// Reapplies the disk fault regime (window boundaries).
    fn set_disk_faults(&mut self, faults: DiskFaults);
    /// End-of-schedule heal: restart everything still down and clear all
    /// injected fault regimes, so convergence is demanded of recovery,
    /// not blocked on a fault the shrinker happened to keep.
    fn heal(&mut self);
    /// Whether the run is over: every client's last line is `done`, the
    /// world has nothing left to do but housekeeping ([`World::settled`])
    /// and there are no [`ChaosWorld::convergence_failures`] — the
    /// census among them, so a world that lost a process for good is
    /// never settled. From here on no output, latency sample or log
    /// entry can change, so a run may stop ([`crate::driver`]). A world
    /// whose clients wait for ever is quiescent and never settled.
    fn settled(&self) -> bool;
    /// Deduplicated-output fingerprint (must match the fault-free
    /// baseline).
    fn output_fingerprint(&self) -> u64;
    /// Span-log fingerprint (run-level determinism oracle).
    fn obs_fingerprint(&self) -> u64;
    /// Each client's deduplicated output lines.
    fn client_outputs(&self) -> Vec<(ProcessId, Vec<String>)>;
    /// Convergence violations: replay lag, downed or catching-up
    /// recorders, consensus safety, and the process census (a spawned
    /// process neither running with its recovery finished nor
    /// destroyed: `pid P lost: <why>`).
    fn convergence_failures(&self) -> Vec<String>;
    /// Replay-prefix violations across every kernel × subject pid.
    fn replay_prefix_failures(&self) -> Vec<String>;
    /// Suppression-coverage violations: suppressions for unknown
    /// senders, or suppressions in a run that performed no recovery.
    fn suppression_failures(&self) -> Vec<String>;
    /// Completed recoveries across the tier.
    fn recoveries_completed(&self) -> u64;
    /// The target world's metrics snapshot with the chaos counters
    /// merged in: `chaos/injected/<kind>` per injected fault kind, plus
    /// the fault-consumption counters the injections drove
    /// (`chaos/disk/io_retries`, `chaos/disk/transient_errors`,
    /// `chaos/disk/torn_writes`).
    fn metrics(&self) -> MetricsRegistry;
    /// The target world's full observability report, with the chaos
    /// counters of [`ChaosWorld::metrics`] added to the registry the
    /// world's report already holds.
    fn obs_report(&self) -> publishing_obs::report::ObsReport;
    /// Every component's span events, one list per log, in the world's
    /// deterministic log order — the input to causal-graph construction
    /// and divergence diffing.
    fn span_events(&self) -> Vec<Vec<publishing_obs::span::SpanEvent>>;
    /// The happens-before DAG over the current span logs.
    fn causal_graph(&self) -> publishing_obs::causal::CausalGraph {
        publishing_obs::causal::CausalGraph::from_event_lists(&self.span_events())
    }
    /// The index of the current quorum leader, for targets with a
    /// consensus tier (`None` elsewhere, or while leaderless).
    fn quorum_leader(&self) -> Option<usize> {
        None
    }
}

/// What differs per recorder tier under chaos: which faults address the
/// tier and how, and what convergence means. Everything else in
/// [`ChaosWorld`] is the same call on the [`World`] engine and lives on
/// [`Target`].
trait ChaosTier: RecorderTier {
    /// Injects a fault that addresses the recorder tier. Faults that do
    /// not apply to this tier or its current state are no-ops.
    fn inject(world: &mut World<Self>, fault: &Fault);
    /// Tier-level convergence violations (members down or catching up,
    /// lag not drained, consensus safety).
    fn convergence_failures(world: &World<Self>) -> Vec<String>;
    /// The current quorum leader, on a tier that has one.
    fn quorum_leader(&self) -> Option<usize> {
        None
    }
}

impl ChaosTier for RecorderNode {
    fn inject(world: &mut World, fault: &Fault) {
        match fault {
            // One member: every index addresses the recorder.
            Fault::CrashRecorder { .. } => world.crash_member(0),
            Fault::RestartRecorder { .. } => world.restart_member(0),
            // Rebalance addresses the sharded tier.
            _ => {}
        }
    }

    fn convergence_failures(world: &World) -> Vec<String> {
        let mut out = Vec::new();
        if !world.tier.is_up() {
            out.push("recorder still down".into());
        }
        let lag = publishing_core::obs::replay_lag(world.tier.recorder(), world.tier.manager());
        if lag != 0 {
            out.push(format!("replay lag {lag} has not drained"));
        }
        out
    }
}

impl ChaosTier for ShardTier {
    fn inject(world: &mut World<Self>, fault: &Fault) {
        let n = world.tier.shards.len();
        match fault {
            // Keep at least one live shard: with every shard down the
            // tier cannot ack anything and the run degenerates.
            Fault::CrashRecorder { member, .. }
                if world.tier.shards.iter().filter(|s| s.is_up()).count() > 1 =>
            {
                world.crash_member(*member as usize % n);
            }
            Fault::RestartRecorder { member, .. } => world.restart_member(*member as usize % n),
            Fault::AddShard { .. } => {
                ShardTier::add_shard(world);
            }
            _ => {}
        }
    }

    fn convergence_failures(world: &World<Self>) -> Vec<String> {
        let mut out = Vec::new();
        for h in ShardTier::health(world) {
            if !h.live {
                out.push(format!("shard {} still down", h.shard));
            }
            if h.catching_up {
                out.push(format!("shard {} still catching up", h.shard));
            }
            if h.recoveries_in_flight != 0 {
                out.push(format!(
                    "shard {}: {} recoveries still in flight",
                    h.shard, h.recoveries_in_flight
                ));
            }
            if h.replay_lag != 0 {
                out.push(format!(
                    "shard {}: replay lag {} has not drained",
                    h.shard, h.replay_lag
                ));
            }
        }
        out
    }
}

impl ChaosTier for QuorumTier {
    fn inject(world: &mut World<Self>, fault: &Fault) {
        let n = world.tier.replicas.len();
        match fault {
            Fault::CrashRecorder { member, .. } => {
                // Chaos that silences the quorum entirely proves
                // nothing — consensus only promises progress with a
                // majority — so a crash that would not leave a strict
                // majority alive is a no-op, and the oracle then gets to
                // demand full convergence.
                let live = world.tier.live_replicas();
                if live >= 1 && (live - 1) * 2 > n {
                    world.crash_member(*member as usize % n);
                }
            }
            Fault::RestartRecorder { member, .. } => {
                world.restart_member(*member as usize % n);
            }
            _ => {}
        }
    }

    fn convergence_failures(world: &World<Self>) -> Vec<String> {
        let mut out = Vec::new();
        let tier = &world.tier;
        let health = tier.quorum_health();
        for h in &health {
            if !h.live {
                out.push(format!("replica {} still down", h.replica));
            }
        }
        if tier.leader().is_none() {
            out.push("quorum is leaderless".into());
        }
        for h in &health {
            if h.leader && h.replication_lag != 0 {
                out.push(format!(
                    "leader {}: replication lag {} has not drained",
                    h.replica, h.replication_lag
                ));
            }
        }
        // The consensus safety oracles ride along with convergence:
        // election safety, state-machine safety, log matching, and
        // gap/duplicate freedom of the arrival sequence.
        out.extend(tier.quorum_invariant_failures());
        // Plus everything the online watchdog flagged while the run
        // was still in flight (arrival gaps or leaderless stalls that
        // outlived their virtual-time deadlines, commit regressions).
        out.extend(tier.watchdog().violations().iter().cloned());
        out
    }

    fn quorum_leader(&self) -> Option<usize> {
        self.leader()
    }
}

/// [`ChaosWorld`] over any tier's world: the spawned processes, the
/// injection counters, and every method that is the same on all tiers.
struct Target<T: ChaosTier> {
    w: World<T>,
    procs: Vec<ProcessId>,
    clients: Vec<ProcessId>,
    injected: BTreeMap<&'static str, u64>,
}

impl<T: ChaosTier + 'static> Target<T> {
    /// Spawns `source`'s plan on `w`.
    fn boxed(mut w: World<T>, source: &dyn WorkloadSource) -> Box<dyn ChaosWorld> {
        let (procs, clients) = spawn_plan(&source.plan(), |node, prog, links| {
            w.spawn(node, prog, links).expect("spawn")
        });
        Box::new(Target {
            w,
            procs,
            clients,
            injected: BTreeMap::new(),
        })
    }
}

impl<T: ChaosTier> Target<T> {
    /// Why the census counts `pid` lost, or `None` if it is accounted
    /// for: running with its recovery complete, or destroyed on purpose.
    fn lost(&self, pid: ProcessId) -> Option<String> {
        let node = pid.node.0;
        let Some(rn) = self.w.tier.authority(pid).map(|i| self.w.tier.node(i)) else {
            return Some("no recorder answers for it".into());
        };
        let rec = rn.recorder();
        if rec.destroyed(pid) {
            return None;
        }
        let kernel = &self.w.kernels[node as usize];
        if !kernel.is_up() {
            return Some(format!("node {node} is down"));
        }
        let Some(p) = kernel.process(pid.local) else {
            return Some(format!("not on node {node}'s kernel and not destroyed"));
        };
        match p.run {
            RunState::Crashed => Some(format!("crashed on node {node}, never recreated")),
            RunState::Recovering => Some(format!("still recovering on node {node}")),
            RunState::Ready | RunState::Waiting if rec.entry(pid).is_some_and(|e| e.recovering) => {
                Some("its recovery is still in flight".into())
            }
            RunState::Ready | RunState::Waiting => None,
        }
    }

    /// Files the chaos counters into `reg`: `chaos/injected/<kind>` per
    /// injected fault kind, plus the fault-consumption counters the
    /// injections drove.
    fn chaos_counters(&self, reg: &mut MetricsRegistry) {
        for (kind, n) in &self.injected {
            reg.counter(format!("chaos/injected/{kind}"), *n);
        }
        let (mut retries, mut transient, mut torn) = (0u64, 0u64, 0u64);
        for rn in self.w.member_nodes() {
            let store = rn.recorder().store();
            retries += store.stats().io_retries.get();
            for i in 0..store.n_disks() {
                let d = store.disk_stats(i);
                transient += d.transient_errors.get();
                torn += d.torn_writes.get();
            }
        }
        reg.counter("chaos/disk/io_retries", retries);
        reg.counter("chaos/disk/transient_errors", transient);
        reg.counter("chaos/disk/torn_writes", torn);
    }
}

impl<T: ChaosTier> ChaosWorld for Target<T> {
    fn run_before(&mut self, t: SimTime) {
        self.w.run_before(t);
    }

    fn run_until(&mut self, deadline: SimTime) {
        self.w.run_until(deadline);
    }

    fn inject(&mut self, fault: &Fault) {
        *self.injected.entry(fault.kind()).or_insert(0) += 1;
        match fault {
            Fault::CrashProcess { victim, .. } => {
                let pid = self.procs[*victim as usize % self.procs.len()];
                self.w.crash_process(pid, "chaos");
            }
            Fault::CrashNode { node, .. } => self.w.crash_node(node % NODES),
            // Windowed faults arrive through the set_*_faults hooks.
            _ => T::inject(&mut self.w, fault),
        }
    }

    fn set_medium_faults(&mut self, plan: FaultPlan) {
        self.w.lan.set_faults(plan);
    }

    fn set_disk_faults(&mut self, faults: DiskFaults) {
        let tier = &mut self.w.tier;
        for i in 0..tier.members() {
            tier.node_mut(i).set_disk_faults(faults.clone());
        }
    }

    fn heal(&mut self) {
        for i in 0..self.w.tier.members() {
            self.w.restart_member(i);
        }
        self.set_medium_faults(FaultPlan::new());
        self.set_disk_faults(DiskFaults::default());
    }

    fn settled(&self) -> bool {
        // A client's last line, without building `client_outputs`.
        let finished = |pid: &ProcessId| {
            let lines = self.w.outputs.iter().filter(|o| o.pid == *pid);
            lines
                .max_by_key(|o| o.seq)
                .is_some_and(|o| o.bytes == b"done")
        };
        self.w.settled()
            && self.clients.iter().all(finished)
            && self.convergence_failures().is_empty()
    }

    fn output_fingerprint(&self) -> u64 {
        self.w.output_fingerprint()
    }

    fn obs_fingerprint(&self) -> u64 {
        self.w.obs_fingerprint()
    }

    fn client_outputs(&self) -> Vec<(ProcessId, Vec<String>)> {
        self.clients
            .iter()
            .map(|&c| (c, self.w.outputs_of(c)))
            .collect()
    }

    /// The tier's own violations, then the census: every spawned pid is
    /// either on its node's kernel, ready or waiting, with no recovery in
    /// flight at the member [`RecorderTier::authority`] for it, or
    /// recorded there as destroyed. Anything else is a process lost.
    fn convergence_failures(&self) -> Vec<String> {
        let mut out = T::convergence_failures(&self.w);
        for &pid in &self.procs {
            if let Some(why) = self.lost(pid) {
                out.push(format!("pid {pid} lost: {why}"));
            }
        }
        out
    }

    fn replay_prefix_failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (node, k) in self.w.kernels.iter().enumerate() {
            for pid in &self.procs {
                if let Err(e) = check_replay_prefix(k.spans(), pid.as_u64()) {
                    out.push(format!("node {node}, subject {pid}: {e}"));
                }
            }
        }
        out
    }

    /// Suppressions exist only to cut off a recovering process's
    /// re-sends (§4.7), so (a) every suppressed sender must be a process
    /// the scenario spawned, and (b) a run that completed no recovery
    /// must show no suppressions at all.
    fn suppression_failures(&self) -> Vec<String> {
        let logs = self.w.kernels.iter().map(|k| k.spans());
        let by_sender = publishing_core::obs::suppressed_by_sender(logs);
        let mut out = Vec::new();
        for (&sender, &n) in &by_sender {
            if !self.procs.iter().any(|p| p.as_u64() == sender) {
                out.push(format!("{n} suppressions for unknown sender {sender}"));
            }
        }
        if self.recoveries_completed() == 0 && !by_sender.is_empty() {
            out.push(format!(
                "{} suppressions but no recovery ever completed",
                by_sender.values().sum::<u64>()
            ));
        }
        out
    }

    fn recoveries_completed(&self) -> u64 {
        self.w.recoveries_completed()
    }

    fn metrics(&self) -> MetricsRegistry {
        let mut reg = self.w.collect_metrics();
        self.chaos_counters(&mut reg);
        reg
    }

    fn obs_report(&self) -> publishing_obs::report::ObsReport {
        let mut report = self.w.obs_report();
        self.chaos_counters(&mut report.metrics);
        report
    }

    fn span_events(&self) -> Vec<Vec<publishing_obs::span::SpanEvent>> {
        self.w.span_logs().map(|l| l.events().collect()).collect()
    }

    fn quorum_leader(&self) -> Option<usize> {
        self.w.tier.quorum_leader()
    }
}
