//! The complete published-communications world: processing nodes, a
//! recorder tier, and a broadcast medium, driven by one deterministic
//! event loop — Figure 3.2 in executable form.
//!
//! The thesis's recorder is *separable*: §3.3's one passive recorder and
//! §6.3's several differ only in who must acknowledge a frame and who
//! drives a recovery; nodes, medium and recovery stay the same.
//! [`World`] is that sameness — scheduler, medium, kernels, outputs,
//! node incarnations, crash/recovery instants, dispatch, run loops and
//! the observability report — and [`RecorderTier`] is the difference.
//! Three tiers implement it: a lone [`RecorderNode`] (the default), and
//! the sharded and quorum tiers in their own crates. §6.3's recorders,
//! which all record every message, are the sharded tier with two
//! shards: every member is in every capture set.
//!
//! Kernels, tier members and the medium answer an event by appending
//! actions to a buffer; the world owns one buffer per action type, lends
//! it for the call, performs what was appended in order and keeps the
//! buffer for the next event (`with_kernel`, [`World::with_member`],
//! `with_lan`) — a steady-state event allocates nothing to say what
//! happens next.

use crate::node::{RNAction, RecorderConfig, RecorderNode};
use publishing_demos::costs::CostModel;
use publishing_demos::harness::OutputLine;
use publishing_demos::ids::{NodeId, ProcessId};
use publishing_demos::kernel::{Kernel, KernelAction};
use publishing_demos::link::Link;
use publishing_demos::registry::{ProgramRegistry, UnknownProgram};
use publishing_demos::transport::TransportConfig;
use publishing_net::bus::PerfectBus;
use publishing_net::frame::{Frame, StationId};
use publishing_net::lan::{Lan, LanAction, LanConfig, RecorderRouter};
use publishing_obs::probe::{MediumHealth, RecoveryLag, SchedulerProbe};
use publishing_obs::registry::MetricsRegistry;
use publishing_obs::report::ObsReport;
use publishing_obs::span::SpanLog;
use publishing_sim::event::Scheduler;
use publishing_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// What differs between recorder tiers; everything else is [`World`].
///
/// A tier is a fixed-order list of member recorder nodes — member `i`
/// runs on node id `nodes + i` — plus the policy around them. The
/// per-member methods default to the member's [`RecorderNode`], so a
/// tier of plain recorder nodes overrides only the policy.
pub trait RecorderTier: Sized {
    /// How many members the tier has admitted (live or not).
    fn members(&self) -> usize;

    /// Member `idx`'s recorder node.
    fn node(&self, idx: usize) -> &RecorderNode;

    /// Member `idx`'s recorder node, mutably — for settings and restart
    /// confirmations, which pass straight through every tier. Frames,
    /// timers and lifecycle go through the methods below.
    fn node_mut(&mut self, idx: usize) -> &mut RecorderNode;

    /// Begins member `idx`'s operation: watchdogs over `watch`. This
    /// and the three entry points below append what the world must do,
    /// in order, to `out`.
    fn start(&mut self, idx: usize, now: SimTime, watch: &[NodeId], out: &mut Vec<RNAction>) {
        self.node_mut(idx).start(now, watch, out)
    }

    /// Hands member `idx` a frame it saw on the medium.
    fn on_frame(
        &mut self,
        idx: usize,
        now: SimTime,
        frame: &Frame,
        recorder_ok: bool,
        out: &mut Vec<RNAction>,
    ) {
        self.node_mut(idx).on_frame(now, frame, recorder_ok, out)
    }

    /// Whether member `idx` will look at `frame`. The world schedules no
    /// delivery for a member that says no, so a tier may decline only
    /// what its `on_frame` would return from with nothing changed.
    fn listens(&self, _idx: usize, _frame: &Frame) -> bool {
        true
    }

    /// Fires one of member `idx`'s timers.
    fn on_timer(&mut self, idx: usize, now: SimTime, token: u64, out: &mut Vec<RNAction>) {
        self.node_mut(idx).on_timer(now, token, out)
    }

    /// Crashes member `idx`: volatile state lost, its store survives.
    fn crash(&mut self, idx: usize) {
        self.node_mut(idx).crash();
    }

    /// Restarts member `idx` from its stable storage.
    fn restart(&mut self, idx: usize, now: SimTime, out: &mut Vec<RNAction>) {
        self.node_mut(idx).restart(now, out)
    }

    /// The stations whose capture a frame needs to count as published
    /// (the medium's fallback required set). If empty, the world
    /// requires every member, suspending traffic (§3.3.4).
    fn required(&self) -> Vec<StationId>;

    /// A per-frame override of [`RecorderTier::required`].
    fn router(&self) -> Option<RecorderRouter> {
        None
    }

    /// Member `idx` has just crashed and its station is down: the
    /// tier's bookkeeping (required set, failover).
    fn member_crashed(_world: &mut World<Self>, _idx: usize) {}

    /// Member `idx` has just been restarted: the tier's bookkeeping
    /// (catch-up before it is required again).
    fn member_restarted(_world: &mut World<Self>, _idx: usize) {}

    /// Runs after every dispatched event (rejoin checks, watchdogs).
    fn after_event(_world: &mut World<Self>, _now: SimTime) {}

    /// Whether the tier's own policy is at rest, beyond what each
    /// member's [`RecorderNode::settled`] says: nobody catching up, no
    /// log entry short of a replica. See [`World::settled`].
    fn at_rest(&self) -> bool {
        true
    }

    /// The live member authoritative for `pid` — whose database says
    /// whether it is alive, recovering or destroyed — or `None` if no
    /// member can answer. The one answer to who drives `pid`'s recovery,
    /// and to who restarts a crashed node: the authority for its kernel
    /// endpoint (§6.3's arbitration).
    fn authority(&self, pid: ProcessId) -> Option<usize>;

    /// The processes a crash of member `idx` may hand off (each it was
    /// the authority for): by default, those its recorder knows.
    fn handed_over(&self, idx: usize) -> Vec<ProcessId> {
        self.node(idx).recorder().known_pids().collect()
    }

    /// A process was spawned.
    fn on_spawn(&mut self, _pid: ProcessId) {}

    /// Whether member `idx` has applied every arrival for `pid` it knows
    /// was delivered, so a recovery it starts now replays them all (else
    /// it waits in the hand-off). Always, where members sequence them.
    fn caught_up_on(&self, _idx: usize, _pid: ProcessId) -> bool {
        true
    }

    /// The metric path prefix member `idx` files its instruments under.
    fn metric_prefix(&self, idx: usize) -> String;

    /// Recovery-lag probes, one per process, from whichever member is
    /// authoritative for it. `suppressed`: packed sender pid → §4.7
    /// suppression count.
    fn recovery_lags(&self, now: SimTime, suppressed: &BTreeMap<u64, u64>) -> Vec<RecoveryLag>;

    /// Files the tier's own instruments (health probes, consensus
    /// histograms) beside the per-member ones the world files.
    fn collect(_world: &World<Self>, _reg: &mut MetricsRegistry) {}

    /// Fills in the tier's own report sections.
    fn report(_world: &World<Self>, _report: &mut ObsReport) {}
}

/// The §3.3 tier: one passive recorder that is always required (a crash
/// suspends traffic rather than unpublishing it) and, while it is up, the
/// authority on every process.
impl RecorderTier for RecorderNode {
    fn members(&self) -> usize {
        1
    }

    fn node(&self, _idx: usize) -> &RecorderNode {
        self
    }

    fn node_mut(&mut self, _idx: usize) -> &mut RecorderNode {
        self
    }

    fn required(&self) -> Vec<StationId> {
        vec![self.station()]
    }

    /// The recorder, while it is up.
    fn authority(&self, _pid: ProcessId) -> Option<usize> {
        self.is_up().then_some(0)
    }

    fn metric_prefix(&self, _idx: usize) -> String {
        "recorder".into()
    }

    fn recovery_lags(&self, now: SimTime, suppressed: &BTreeMap<u64, u64>) -> Vec<RecoveryLag> {
        crate::obs::recovery_lags(self.recorder(), now, suppressed)
    }
}

/// World events.
#[derive(Debug)]
enum Ev {
    LanTimer(u64),
    KernelTimer(u32, u64),
    MemberTimer(usize, u64),
    Deliver(Reception),
}

// The scheduler's heap entry is the instant, a sequence number and an
// `Ev`: 64 bytes sift measurably faster than 72 (DESIGN §20), which is
// why a reception names its stations with a mask rather than a list.
const _: () = assert!(std::mem::size_of::<(SimTime, u64, Ev)>() == 64);

/// One transmission as the stations that listen to it receive it, at one
/// instant: station `base + i` for every bit `i` of `mask`, ascending.
/// The medium appends one delivery per station in its fate order; the
/// world folds a run of them that share a frame, an instant and a
/// verdict, and climb in station id, into one event (`with_lan`).
#[derive(Debug)]
struct Reception {
    frame: Frame,
    recorder_ok: bool,
    base: u32,
    mask: u64,
}

impl Reception {
    fn new(to: StationId, frame: Frame, recorder_ok: bool) -> Self {
        Reception {
            frame,
            recorder_ok,
            base: to.0,
            mask: 1,
        }
    }

    /// Takes in `to`'s delivery of `frame` if it continues this
    /// reception in the medium's order.
    fn admit(&mut self, to: StationId, frame: &Frame, recorder_ok: bool) -> bool {
        let last = self.base + (63 - self.mask.leading_zeros());
        let fits = to.0 > last && to.0 - self.base < 64;
        if fits && recorder_ok == self.recorder_ok && *frame == self.frame {
            self.mask |= 1 << (to.0 - self.base);
            return true;
        }
        false
    }

    /// The receiving stations, in the medium's order.
    fn stations(&self) -> impl Iterator<Item = u32> {
        let (base, mut mask) = (self.base, self.mask);
        std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let i = mask.trailing_zeros();
                mask &= mask - 1;
                base + i
            })
        })
    }
}

/// What the world owes a process until an authority can act on it: the
/// hand-off (DESIGN §8).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Owed {
    /// A recovery proposed while no member could run it.
    Recovery,
    /// A STATE_QUERY (§3.3.4): this member, its authority, crashed. Not
    /// sent by that same member back, whose own restart asked already.
    Query(usize),
}

/// Builds a [`World`].
pub struct WorldBuilder {
    nodes: u32,
    lan: Option<Box<dyn Lan>>,
    costs: CostModel,
    transport: TransportConfig,
    registry: ProgramRegistry,
    recorder_cfg: RecorderConfig,
    publishing: bool,
}

impl WorldBuilder {
    /// Starts a builder for `nodes` processing nodes (node ids 0..n-1;
    /// the recorder tier's members get node ids n, n+1, ...).
    pub fn new(nodes: u32) -> Self {
        WorldBuilder {
            nodes,
            lan: None,
            costs: CostModel::zero(),
            transport: TransportConfig::default(),
            registry: ProgramRegistry::new(),
            recorder_cfg: RecorderConfig::default(),
            publishing: true,
        }
    }

    /// The number of processing nodes; the tier's members go on the
    /// node ids from here up.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Uses a specific medium instead of the default [`PerfectBus`].
    /// It must be fresh: stations are attached by the build.
    pub fn medium(mut self, lan: Box<dyn Lan>) -> Self {
        self.lan = Some(lan);
        self
    }

    /// Sets the node CPU cost model (defaults to zero for protocol tests).
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Sets transport parameters for all nodes.
    pub fn transport(mut self, t: TransportConfig) -> Self {
        self.transport = t;
        self
    }

    /// Sets the program registry shared by all nodes.
    pub fn registry(mut self, r: ProgramRegistry) -> Self {
        self.registry = r;
        self
    }

    /// Sets the recorder configuration ([`WorldBuilder::build`] only).
    pub fn recorder(mut self, cfg: RecorderConfig) -> Self {
        self.recorder_cfg = cfg;
        self
    }

    /// Disables publishing (baseline mode: no recorder gating, intranode
    /// messages stay local, no notices).
    pub fn without_publishing(mut self) -> Self {
        self.publishing = false;
        self
    }

    /// Builds the single-recorder world and starts the recorder's
    /// watchdogs.
    pub fn build(self) -> World {
        let recorder = RecorderNode::new(NodeId(self.nodes), self.recorder_cfg.clone());
        self.build_with(recorder)
    }

    /// Builds a world around `tier` (whose members must sit on node ids
    /// `nodes..`): installs its router and required set on the medium,
    /// attaches kernels then members, points every kernel's notices at
    /// every member, and starts each member's watchdogs.
    pub fn build_with<T: RecorderTier>(self, tier: T) -> World<T> {
        let mut lan = self
            .lan
            .unwrap_or_else(|| Box::new(PerfectBus::new(LanConfig::default())));
        lan.set_recorder_router(tier.router());
        let mut kernels = Vec::with_capacity(self.nodes as usize);
        for n in 0..self.nodes {
            let mut k = Kernel::new(
                NodeId(n),
                self.registry.clone(),
                self.costs.clone(),
                self.transport.clone(),
                self.publishing,
            );
            for i in 0..tier.members() {
                k.add_recorder(tier.node(i).node());
            }
            lan.attach(k.station());
            kernels.push(k);
        }
        for i in 0..tier.members() {
            lan.attach(tier.node(i).station());
        }
        let mut world = World {
            sched: Scheduler::new(),
            lan,
            kernels,
            tier,
            outputs: Vec::new(),
            node_incarnations: BTreeMap::new(),
            crashes: Vec::new(),
            recovered: BTreeMap::new(),
            owed: BTreeMap::new(),
            kernel_actions: Vec::new(),
            member_actions: Vec::new(),
            lan_actions: Vec::new(),
        };
        if self.publishing {
            world.refresh_required();
        }
        let watch = world.watch_list();
        for i in 0..world.tier.members() {
            world.with_member(SimTime::ZERO, i, |tier, out| {
                tier.start(i, SimTime::ZERO, &watch, out)
            });
        }
        world
    }
}

/// The running world, generic over its recorder tier.
pub struct World<T: RecorderTier = RecorderNode> {
    sched: Scheduler<Ev>,
    /// The shared medium.
    pub lan: Box<dyn Lan>,
    /// Processing-node kernels, indexed by node id.
    pub kernels: Vec<Kernel>,
    /// The recorder tier (in the default world, the recording node).
    pub tier: T,
    /// All process outputs, in emission order (including replayed
    /// duplicates; use [`World::outputs_of`] for the deduplicated view).
    pub outputs: Vec<OutputLine>,
    /// Authoritative node incarnations: a member that was down during a
    /// restart must not hand out a stale one.
    node_incarnations: BTreeMap<u32, u32>,
    /// Virtual instants of injected crashes, in injection order.
    crashes: Vec<SimTime>,
    /// Packed pid → virtual instant its recovery committed.
    recovered: BTreeMap<u64, SimTime>,
    /// The hand-off: what each process is owed once it has an authority.
    owed: BTreeMap<ProcessId, Owed>,
    /// Reused from event to event: what a kernel, a tier member and the
    /// medium asked for during the call in progress.
    kernel_actions: Vec<KernelAction>,
    member_actions: Vec<RNAction>,
    lan_actions: Vec<LanAction>,
}

impl<T: RecorderTier> World<T> {
    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// The number of processing nodes (member `i` of the tier sits on
    /// node id `nodes() + i`).
    pub fn nodes(&self) -> u32 {
        self.kernels.len() as u32
    }

    /// The nodes every member's watchdog watches.
    pub fn watch_list(&self) -> Vec<NodeId> {
        (0..self.nodes()).map(NodeId).collect()
    }

    /// Spawns a program on a node with initial links.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownProgram`] if the image is not registered.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn spawn(
        &mut self,
        node: u32,
        program: &str,
        links: Vec<Link>,
    ) -> Result<ProcessId, UnknownProgram> {
        self.spawn_as(node, program, links, true)
    }

    /// Spawns a program marked unrecoverable (§6.6.1): the recorder
    /// publishes nothing for it and a crash is final. Errors and panics
    /// as [`World::spawn`].
    pub fn spawn_unrecoverable(
        &mut self,
        node: u32,
        program: &str,
        links: Vec<Link>,
    ) -> Result<ProcessId, UnknownProgram> {
        self.spawn_as(node, program, links, false)
    }

    fn spawn_as(
        &mut self,
        node: u32,
        program: &str,
        links: Vec<Link>,
        recoverable: bool,
    ) -> Result<ProcessId, UnknownProgram> {
        let now = self.now();
        let spawned = self.with_kernel(now, node, |k, out| {
            if recoverable {
                k.spawn(now, program, links, out)
            } else {
                k.spawn_unrecoverable(now, program, links, out)
            }
        });
        let pid = spawned.expect("node exists")?;
        self.tier.on_spawn(pid);
        Ok(pid)
    }

    /// Runs `call` on `node`'s kernel with the world's kernel-action
    /// buffer, then performs at `now` what it appended. `None` if there
    /// is no such node.
    fn with_kernel<R>(
        &mut self,
        now: SimTime,
        node: u32,
        call: impl FnOnce(&mut Kernel, &mut Vec<KernelAction>) -> R,
    ) -> Option<R> {
        let k = self.kernels.get_mut(node as usize)?;
        let mut actions = std::mem::take(&mut self.kernel_actions);
        let result = call(k, &mut actions);
        for a in actions.drain(..) {
            match a {
                KernelAction::Transmit(frame) => self.submit(now, frame),
                KernelAction::SetTimer { at, token } => {
                    self.sched.schedule_at(at, Ev::KernelTimer(node, token));
                }
                KernelAction::Output { pid, seq, bytes } => {
                    self.outputs.push(OutputLine {
                        at: now,
                        pid,
                        seq,
                        bytes,
                    });
                }
            }
        }
        self.kernel_actions = actions;
        Some(result)
    }

    /// Runs `call` on the tier with the world's member-action buffer,
    /// then performs at `now`, as member `idx`, what it appended. Tier
    /// operations (a restart, a log-segment import) route their members'
    /// actions through here, exactly as dispatch does. A node restart
    /// re-enters (every live member confirms it): the nested call finds
    /// the buffer taken and fills a fresh one.
    pub fn with_member(
        &mut self,
        now: SimTime,
        idx: usize,
        call: impl FnOnce(&mut T, &mut Vec<RNAction>),
    ) {
        let mut actions = std::mem::take(&mut self.member_actions);
        call(&mut self.tier, &mut actions);
        self.apply_member(now, idx, &mut actions);
        self.member_actions = actions;
    }

    fn apply_member(&mut self, now: SimTime, idx: usize, actions: &mut Vec<RNAction>) {
        for a in actions.drain(..) {
            match a {
                RNAction::Transmit(frame) => self.submit(now, frame),
                RNAction::SetTimer { at, token } => {
                    self.sched.schedule_at(at, Ev::MemberTimer(idx, token));
                }
                RNAction::RestartNode { node } => {
                    if self.tier.authority(ProcessId::kernel_of(node)) != Some(idx) {
                        self.tier.node_mut(idx).decline_node_restart(node);
                        continue;
                    }
                    let inc = self.node_incarnations.entry(node.0).or_insert(0);
                    *inc += 1;
                    let incarnation = *inc;
                    // The §4.6 operator action: reboot the processor (or
                    // a spare assuming its identity), then let the
                    // managers proceed.
                    if let Some(k) = self.kernels.get_mut(node.0 as usize) {
                        k.restart_node(now, incarnation);
                        self.lan.set_station_up(StationId(node.0), true);
                    }
                    // Every live member renumbers toward the node and
                    // proposes its processes' recovery; authority decides
                    // who runs each.
                    for j in 0..self.tier.members() {
                        if self.tier.node(j).is_up() {
                            self.with_member(now, j, |tier, out| {
                                tier.node_mut(j).confirm_node_restarted(
                                    now,
                                    node,
                                    incarnation,
                                    j == idx,
                                    out,
                                )
                            });
                        }
                    }
                }
                // Runs on the authority, or waits in the hand-off if none.
                // Other members' are dropped (the authority heard the same
                // trigger) — wrongly for a STATE_REPLY to a hand-off query
                // when authority moved on while it was in flight: only the
                // querying member hears the reply, so the new authority
                // never learns of the crash.
                RNAction::ProposeRecovery { pid } => {
                    if self.tier.authority(pid).is_none_or(|a| a == idx) {
                        self.owed.insert(pid, Owed::Recovery);
                        self.hand_off(now);
                    }
                }
                RNAction::RecoveryDone { pid } => {
                    self.recovered.insert(pid.as_u64(), now);
                }
            }
        }
    }

    /// Discharges the hand-off (DESIGN §8): what a process is owed, its
    /// authority does once there is one (and, for a recovery, once it is
    /// [caught up](RecorderTier::caught_up_on)), members in index order.
    /// Runs after every event, member crash and restart, and where a tier
    /// moves authority itself (a shard cutover).
    pub fn hand_off(&mut self, now: SimTime) {
        if self.owed.is_empty() {
            return;
        }
        let (tier, owed, mut due) = (&self.tier, &mut self.owed, Vec::new());
        owed.retain(|&pid, &mut owed| match tier.authority(pid) {
            // Its own restart asked already.
            Some(a) if owed == Owed::Query(a) => false,
            Some(a) if owed != Owed::Recovery || tier.caught_up_on(a, pid) => {
                due.push((a, pid, owed));
                false
            }
            _ => true,
        });
        due.sort_by_key(|&(a, ..)| a);
        for (a, pid, owed) in due {
            self.with_member(now, a, |tier, out| match owed {
                Owed::Recovery => tier.node_mut(a).recover(now, pid, out),
                Owed::Query(_) => tier.node_mut(a).query_process_states(now, &[pid], out),
            });
        }
    }

    /// Puts a frame on the medium now.
    pub fn submit(&mut self, now: SimTime, frame: Frame) {
        self.with_lan(|lan, out| lan.submit_into(now, frame, out));
    }

    /// Whether the station the medium delivers `frame` to will look at
    /// it: a kernel reads what is addressed to it (`Kernel::on_frame`
    /// returns at once from anything else), a tier member whatever its
    /// tier says it listens to.
    fn listens(&self, to: StationId, frame: &Frame) -> bool {
        if to.0 < self.nodes() {
            return frame.dst.accepts(to);
        }
        let idx = (to.0 - self.nodes()) as usize;
        idx < self.tier.members() && self.tier.listens(idx, frame)
    }

    /// Runs `call` on the medium with the world's medium-action buffer,
    /// then schedules what it appended — a delivery only for a station
    /// that listens: the medium reaches every station (its statistics
    /// say so), the world wakes those that will look. Adjacent
    /// deliveries of one frame at one instant become one [`Reception`]
    /// event, as the paper's broadcast is one transmission every
    /// station hears at once (§3.3). Nothing can come between them:
    /// they would have been consecutive entries at the same instant, and
    /// ties pop in insertion order.
    fn with_lan(&mut self, call: impl FnOnce(&mut dyn Lan, &mut Vec<LanAction>)) {
        call(self.lan.as_mut(), &mut self.lan_actions);
        let mut actions = std::mem::take(&mut self.lan_actions);
        let mut open: Option<(SimTime, Reception)> = None;
        for action in actions.drain(..) {
            match action {
                LanAction::Deliver {
                    at,
                    to,
                    frame,
                    recorder_ok,
                } => {
                    if !self.listens(to, &frame) {
                        continue;
                    }
                    if let Some((when, rx)) = &mut open {
                        if *when == at && rx.admit(to, &frame, recorder_ok) {
                            continue;
                        }
                    }
                    let rx = Reception::new(to, frame, recorder_ok);
                    if let Some((when, done)) = open.replace((at, rx)) {
                        self.sched.schedule_at(when, Ev::Deliver(done));
                    }
                }
                LanAction::SetTimer { at, token } => {
                    if let Some((when, done)) = open.take() {
                        self.sched.schedule_at(when, Ev::Deliver(done));
                    }
                    self.sched.schedule_at(at, Ev::LanTimer(token));
                }
                LanAction::TxOutcome { .. } => {}
            }
        }
        if let Some((when, done)) = open {
            self.sched.schedule_at(when, Ev::Deliver(done));
        }
        self.lan_actions = actions;
    }

    /// Reinstalls the medium's fallback required set from the tier
    /// (after any membership change).
    pub fn refresh_required(&mut self) {
        let mut required = self.tier.required();
        if required.is_empty() {
            required = (0..self.tier.members())
                .map(|i| self.tier.node(i).station())
                .collect();
        }
        self.lan.set_required_recorders(required);
    }

    /// Processes one event; returns `false` when the queue is empty. A
    /// transmission's reception is one event: every station that listens
    /// to it receives it within one step.
    pub fn step(&mut self) -> bool {
        let Some((now, ev)) = self.sched.pop() else {
            return false;
        };
        self.dispatch(now, ev);
        true
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::LanTimer(token) => {
                self.with_lan(|lan, out| lan.timer_into(now, token, out));
            }
            Ev::KernelTimer(node, token) => {
                self.with_kernel(now, node, |k, out| k.on_timer(now, token, out));
            }
            Ev::MemberTimer(idx, token) => {
                self.with_member(now, idx, |tier, out| tier.on_timer(idx, now, token, out));
            }
            Ev::Deliver(rx) => {
                // Each station as its own event would have been: the
                // receipt, then the tier's post-event step.
                for to in rx.stations() {
                    self.receive(now, to, &rx.frame, rx.recorder_ok);
                    T::after_event(self, now);
                    self.hand_off(now);
                }
                return;
            }
        }
        T::after_event(self, now);
        self.hand_off(now);
    }

    /// Hands `frame` to station `to`'s kernel or tier member.
    fn receive(&mut self, now: SimTime, to: u32, frame: &Frame, recorder_ok: bool) {
        if to < self.nodes() {
            self.with_kernel(now, to, |k, out| k.on_frame(now, frame, recorder_ok, out));
        } else {
            let idx = (to - self.nodes()) as usize;
            if idx < self.tier.members() {
                self.with_member(now, idx, |tier, out| {
                    tier.on_frame(idx, now, frame, recorder_ok, out)
                });
            }
        }
    }

    /// The world's one run loop: delivers events while the next one is
    /// `due`, then moves an earlier clock up to `end`.
    fn run_while(&mut self, due: impl Fn(SimTime) -> bool, end: SimTime) {
        while self.sched.peek_time().is_some_and(&due) {
            self.step();
        }
        if self.sched.now() < end {
            self.sched.advance_to(end);
        }
    }

    /// Runs until `deadline`: delivers every event at or before it and
    /// leaves the clock exactly there. Watchdogs tick for ever, so the
    /// event queue of a published world never drains; whether the work
    /// is over is [`World::settled`]'s to say.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_while(|at| at <= deadline, deadline);
    }

    /// Runs up to `t`: delivers every event strictly before it and
    /// leaves the clock exactly there, so what the caller does next (a
    /// crash, say) lands before the frame delivered at `t`. A `t`
    /// already in the past delivers nothing and leaves the clock alone.
    pub fn run_before(&mut self, t: SimTime) {
        self.run_while(|at| at < t, t);
    }

    /// Whether everything that could still change an output, a latency
    /// sample or a log is done: every node and tier member is up, no
    /// kernel has an activation running or runnable, a process down or a
    /// message unacknowledged ([`Kernel::settled`]), no recorder has a
    /// capture unsequenced, a disk operation outstanding or a recovery in
    /// flight ([`RecorderNode::settled`]), and the tier's policy is at
    /// rest ([`RecorderTier::at_rest`]). What still fires in a settled
    /// world is housekeeping — watchdog pings, policy ticks, heartbeats —
    /// so a fault-free run may stop here. Computed on demand by walking
    /// the kernels and members; the run loop keeps no count for it.
    pub fn settled(&self) -> bool {
        self.kernels.iter().all(Kernel::settled)
            && self.member_nodes().all(RecorderNode::settled)
            && self.tier.at_rest()
    }

    /// Crashes one process now (a detected fault, §3.3.2). The kernel
    /// notifies the recovery manager, which recovers it transparently.
    /// The instant counts as a crash only if the kernel halted a live
    /// process: one already gone (its node down, say) has nothing to
    /// recover from here.
    pub fn crash_process(&mut self, pid: ProcessId, reason: &str) {
        let now = self.now();
        let halted = self.with_kernel(now, pid.node.0, |k, out| {
            k.crash_process(now, pid.local, reason, out)
        });
        if halted == Some(true) {
            self.crashes.push(now);
        }
    }

    /// Crashes a whole node now (a no-op if it is already down); the
    /// watchdog of the authority for its kernel endpoint will notice,
    /// and the tier re-populates it.
    pub fn crash_node(&mut self, node: u32) {
        let Some(k) = self.kernels.get_mut(node as usize) else {
            return;
        };
        if !k.is_up() {
            return;
        }
        k.crash_node();
        self.crashes.push(self.sched.now());
        self.lan.set_station_up(StationId(node), false);
    }

    /// Crashes member `idx` of the tier (a no-op if it is already down):
    /// volatile state lost, station down, then the tier's own reaction.
    /// Each process it was the authority for is owed a state query from
    /// its next authority.
    pub fn crash_member(&mut self, idx: usize) {
        if !self.tier.node(idx).is_up() {
            return;
        }
        self.crashes.push(self.now());
        for pid in self.tier.handed_over(idx) {
            if self.tier.authority(pid) == Some(idx) {
                self.owed.entry(pid).or_insert(Owed::Query(idx));
            }
        }
        self.tier.crash(idx);
        let station = self.tier.node(idx).station();
        self.lan.set_station_up(station, false);
        T::member_crashed(self, idx);
        self.hand_off(self.now());
    }

    /// Restarts member `idx` of the tier (a no-op if it is up): station
    /// up, rebuild from stable storage plus the §3.3.4 state queries,
    /// then the tier's own reaction.
    pub fn restart_member(&mut self, idx: usize) {
        if self.tier.node(idx).is_up() {
            return;
        }
        let now = self.now();
        let station = self.tier.node(idx).station();
        self.lan.set_station_up(station, true);
        self.with_member(now, idx, |tier, out| tier.restart(idx, now, out));
        T::member_restarted(self, idx);
        self.hand_off(now);
    }

    /// The deduplicated output lines of one process: exactly-once by
    /// output sequence number, in sequence order — what a §6.4-style
    /// idempotent console would print.
    pub fn outputs_of(&self, pid: ProcessId) -> Vec<String> {
        let mut by_seq: BTreeMap<u64, &OutputLine> = BTreeMap::new();
        for o in self.outputs.iter().filter(|o| o.pid == pid) {
            by_seq.entry(o.seq).or_insert(o);
        }
        by_seq
            .values()
            .map(|o| String::from_utf8_lossy(&o.bytes).into_owned())
            .collect()
    }

    /// A fingerprint of every process's deduplicated output, for
    /// crash-free vs crashed-and-recovered equivalence oracles.
    pub fn output_fingerprint(&self) -> u64 {
        let mut per_pid: BTreeMap<ProcessId, BTreeMap<u64, &[u8]>> = BTreeMap::new();
        for o in &self.outputs {
            per_pid
                .entry(o.pid)
                .or_default()
                .entry(o.seq)
                .or_insert(&o.bytes);
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (pid, lines) in per_pid {
            for (seq, bytes) in lines {
                for b in pid
                    .as_u64()
                    .to_le_bytes()
                    .iter()
                    .chain(seq.to_le_bytes().iter())
                    .chain(bytes.iter())
                {
                    h ^= *b as u64;
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
            }
        }
        h
    }

    /// Total completed recoveries across the tier.
    pub fn recoveries_completed(&self) -> u64 {
        self.member_nodes()
            .map(|rn| rn.manager().stats().completed.get())
            .sum()
    }

    /// The tier's member recorder nodes, by index.
    pub fn member_nodes(&self) -> impl Iterator<Item = &RecorderNode> + Clone {
        (0..self.tier.members()).map(|i| self.tier.node(i))
    }

    /// Every span log in the world, in deterministic order: kernels by
    /// node id, then tier members by index.
    pub fn span_logs(&self) -> impl Iterator<Item = &SpanLog> + Clone {
        let kernels = self.kernels.iter().map(|k| k.spans());
        kernels.chain(self.member_nodes().map(|rn| rn.recorder().spans()))
    }

    /// Caps every component span log (kernels and tier members) at
    /// `capacity` retained events. `0` keeps fingerprints and totals
    /// but retains nothing — the spans-disabled configuration of the
    /// overhead benchmark.
    pub fn set_span_capacity(&mut self, capacity: usize) {
        for k in &mut self.kernels {
            k.set_span_capacity(capacity);
        }
        for i in 0..self.tier.members() {
            self.tier.node_mut(i).set_span_capacity(capacity);
        }
    }

    /// The happens-before DAG over every component's span log.
    pub fn causal_graph(&self) -> publishing_obs::causal::CausalGraph {
        publishing_obs::causal::CausalGraph::build(self.span_logs())
    }

    /// Completed recoveries: packed pid → instant the manager committed.
    pub fn recoveries_done(&self) -> &BTreeMap<u64, SimTime> {
        &self.recovered
    }

    /// The measured crash→convergence window: first injected crash to
    /// the last committed recovery. `None` until a recovery completes.
    pub fn recovery_window(&self) -> Option<(SimTime, SimTime)> {
        let crash = *self.crashes.first()?;
        let converged = *self.recovered.values().max()?;
        (converged >= crash).then_some((crash, converged))
    }

    /// Order-sensitive fingerprint over every span log — the run-level
    /// determinism oracle for the lifecycle trace.
    pub fn obs_fingerprint(&self) -> u64 {
        publishing_obs::span::combined_fingerprint(self.span_logs())
    }

    /// Snapshots every component's instruments into one registry:
    /// kernels under `node/<n>/`, each tier member under its
    /// [`RecorderTier::metric_prefix`], the tier's own probes, and the
    /// medium.
    pub fn collect_metrics(&self) -> MetricsRegistry {
        let now = self.now();
        let mut reg = MetricsRegistry::new();
        for k in &self.kernels {
            crate::obs::kernel_metrics(&mut reg, k);
        }
        for (i, rn) in self.member_nodes().enumerate() {
            crate::obs::recorder_node_metrics(&mut reg, &self.tier.metric_prefix(i), rn, now);
        }
        T::collect(self, &mut reg);
        MediumHealth::from_lan(self.lan.stats(), now).into_registry(&mut reg);
        reg
    }

    /// Recovery-lag probes for every process the tier knows about.
    pub fn recovery_lags(&self) -> Vec<RecoveryLag> {
        let suppressed = crate::obs::suppressed_by_sender(self.kernels.iter().map(|k| k.spans()));
        self.tier.recovery_lags(self.now(), &suppressed)
    }

    /// Builds the full observability report for the run so far.
    pub fn obs_report(&self) -> ObsReport {
        let now = self.now();
        let horizon = now.saturating_since(SimTime::ZERO);
        let logs = self.span_logs();
        let latencies = publishing_obs::profile::stage_latencies(logs.clone());
        let mut profile = publishing_obs::profile::TimeProfile::new();
        let mut kernel_cpu = SimDuration::ZERO;
        for k in &self.kernels {
            kernel_cpu += k.stats().cpu_used;
        }
        profile.charge("kernel_cpu", kernel_cpu);
        let mut publish_cpu = SimDuration::ZERO;
        let mut disk_busy = SimDuration::ZERO;
        for rn in self.member_nodes() {
            publish_cpu += rn.recorder().stats().cpu_used;
            let store = rn.recorder().store();
            for i in 0..store.n_disks() {
                disk_busy += store.disk_stats(i).busy.busy_time(now);
            }
        }
        profile.charge("publish_cpu", publish_cpu);
        profile.charge("stable_store_io", disk_busy);
        profile.charge("medium_busy", self.lan.stats().busy.busy_time(now));

        let mut metrics = self.collect_metrics();
        let mut recovery = self.recovery_lags();
        let graph = (!self.recovered.is_empty())
            .then(|| publishing_obs::causal::CausalGraph::build(logs.clone()));
        if let Some(g) = &graph {
            for lag in &mut recovery {
                let Some(&done) = self.recovered.get(&lag.subject) else {
                    continue;
                };
                let Some(&crash) = self.crashes.iter().filter(|&&c| c <= done).max() else {
                    continue;
                };
                lag.recovery_ms = done.saturating_since(crash).as_millis_f64();
                lag.critical_path_ms = g
                    .critical_path(crash, done, Some(lag.subject))
                    .map(|p| p.total().as_millis_f64())
                    .unwrap_or(lag.recovery_ms);
            }
        }
        let critical_path = self
            .recovery_window()
            .and_then(|(crash, converged)| graph.as_ref()?.critical_path(crash, converged, None));
        if let Some(cp) = &critical_path {
            cp.into_registry(&mut metrics);
        }

        let mut report = ObsReport {
            schema: publishing_obs::report::REPORT_SCHEMA_VERSION,
            at_ms: now.as_millis_f64(),
            metrics,
            recovery,
            shards: Vec::new(),
            medium: Some(MediumHealth::from_lan(self.lan.stats(), now)),
            profile,
            horizon,
            latencies,
            sched: self.scheduler_probe(),
            // Every member's recorder shares one binning.
            queue_depths: self
                .member_nodes()
                .map(|rn| rn.recorder().stats().depth_hist.clone())
                .reduce(|mut all, h| {
                    all.merge(&h);
                    all
                }),
            spans_total: logs.clone().map(|l| l.total()).sum(),
            span_fingerprint: publishing_obs::span::combined_fingerprint(logs),
            critical_path,
            quorum: Vec::new(),
            consensus: None,
            watchdog: None,
            workload: None,
            utilization: Some(crate::obs::utilization_report(
                self.kernels.iter(),
                self.member_nodes()
                    .enumerate()
                    .map(|(i, rn)| (i as u32, rn.recorder())),
                self.lan.as_ref(),
                now,
            )),
            whatif: None,
            forensics: None,
        };
        T::report(self, &mut report);
        report
    }

    /// Event-queue statistics of the world's scheduler.
    pub fn scheduler_probe(&self) -> SchedulerProbe {
        SchedulerProbe {
            delivered: self.sched.delivered(),
            scheduled: self.sched.scheduled(),
            pending: self.sched.pending() as u64,
            peak_pending: self.sched.peak_pending() as u64,
        }
    }
}

impl World {
    /// Crashes the recorder now. All publishable traffic suspends
    /// (§3.3.4) until [`World::restart_recorder`]: the station stays in
    /// the required set, so traffic is suspended, not silently
    /// unpublished.
    pub fn crash_recorder(&mut self) {
        self.crash_member(0);
    }

    /// Restarts the recorder: database rebuild plus the §3.3.4 state
    /// queries.
    pub fn restart_recorder(&mut self) {
        self.restart_member(0);
    }
}
