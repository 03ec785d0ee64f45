//! Every call the benchmark makes into the system under test.
//!
//! Literals → `CompiledWorkload` → `Scenario::build_with` →
//! `run_schedule` (or `find_knee`) → outputs, report, verification.
//! Only `run_schedule` / `find_knee` sits inside the timed region;
//! parsing, compiling and building are timed separately as set-up;
//! outputs, report and verification are outside both. `README.md` lists
//! each public item bound here.

use crate::alloc::{self, Totals};
use crate::trace::Tracer;
use crate::workloads::{Kind, Workload, MAX_USERS};
use publishing_chaos::driver::run_schedule;
use publishing_chaos::oracle::{self, Baseline};
use publishing_chaos::{FaultSchedule, Medium, OracleOptions, Scenario, Topology};
use publishing_obs::registry::MetricValue;
use publishing_obs::report::ObsReport;
use publishing_obs::slo::SloSpec;
use publishing_workload::{find_knee, CompiledWorkload, SearchParams, WorkloadSpec};
use std::fmt::Display;
use std::time::Instant;

/// Work counts read from the runs' own `ObsReport`s, summed over worlds.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Reports folded in.
    pub worlds: u64,
    /// Scheduler events delivered.
    pub events: u64,
    /// Scheduler events ever scheduled.
    pub scheduled: u64,
    /// Σ (peak pending × events): event-weighted peak queue depth.
    pub peak_pending_weighted: f64,
    /// Frames submitted to the medium.
    pub frames: u64,
    /// Frame deliveries (one per receiving station).
    pub deliveries: u64,
    /// Collisions on the medium.
    pub collisions: u64,
    /// Deliveries blocked because a required recorder missed the frame.
    pub gating_stalls: u64,
    /// Wire bytes submitted (headers included).
    pub wire_bytes: f64,
    /// Kernel process activations.
    pub activations: u64,
    /// Transport sends.
    pub xport_sent: u64,
    /// Transport retransmissions.
    pub retransmits: u64,
    /// Duplicates dropped by kernel or transport.
    pub dups_dropped: u64,
    /// Frames the recorder tier captured.
    pub captured: u64,
    /// Messages the recorder tier published (sequenced).
    pub published: u64,
    /// Payload bytes the recorder tier published.
    pub bytes_published: u64,
    /// Read-order notices the recorder tier handled.
    pub notices: u64,
    /// Checkpoints the recorder tier stored.
    pub checkpoints: u64,
    /// Recoveries completed.
    pub recoveries: u64,
    /// Messages replayed to recovering processes.
    pub replayed: u64,
    /// Σ virtual crash→recovered windows, ms.
    pub recovery_ms: f64,
    /// Windows summed into `recovery_ms`.
    pub recovery_windows: u64,
    /// Stable-store message appends.
    pub appends: u64,
    /// Stable-store message pages written.
    pub pages: u64,
    /// Bytes written to the simulated disks.
    pub disk_bytes: u64,
    /// Lifecycle spans the obs layer recorded.
    pub spans: u64,
    /// Leader elections.
    pub elections: u64,
    /// Σ virtual proposal→apply latency × commits, µs.
    pub commit_us: f64,
    /// Commits summed into `commit_us`.
    pub commits: u64,
    /// Faults the chaos driver injected.
    pub faults_injected: u64,
    /// Σ virtual publish→deliver latency, µs.
    pub deliver_us: f64,
    /// Messages summed into `deliver_us`.
    pub deliver_n: u64,
}

impl Counts {
    /// Folds one run's report in.
    pub fn add_report(&mut self, r: &ObsReport, medium: Medium) {
        self.worlds += 1;
        self.events += r.sched.delivered;
        self.scheduled += r.sched.scheduled;
        self.peak_pending_weighted += r.sched.peak_pending as f64 * r.sched.delivered as f64;
        if let Some(m) = &r.medium {
            self.frames += m.submitted;
            self.deliveries += m.delivered;
            self.collisions += m.collisions;
            self.gating_stalls += m.gating_stalls;
            self.wire_bytes += wire_bytes(r, medium, m.submitted);
        }
        self.spans += r.spans_total;
        if let Some(c) = &r.consensus {
            self.elections += c.elections;
        }
        for lag in r.recovery.iter().filter(|l| l.recovery_ms > 0.0) {
            self.recovery_ms += lag.recovery_ms;
            self.recovery_windows += 1;
        }
        let lat = r.latencies.publish_to_deliver_us.summary();
        self.deliver_us += lat.total();
        self.deliver_n += lat.count();

        for (path, value) in r.metrics.iter() {
            let MetricValue::Counter(n) = value else {
                continue;
            };
            let parts: Vec<&str> = path.split('/').collect();
            match parts.as_slice() {
                ["node", _, "kernel", "activations"] => self.activations += n,
                ["node", _, "kernel", "dups_dropped"] => self.dups_dropped += n,
                ["node", _, "transport", "duplicates"] => self.dups_dropped += n,
                ["node", _, "transport", "sent"] => self.xport_sent += n,
                ["node", _, "transport", "retransmits"] => self.retransmits += n,
                ["chaos", "injected", _] => self.faults_injected += n,
                // The recorder tier files the same leaves under
                // `recorder/`, `shard/<i>/` or `quorum/<i>/`.
                ["recorder", leaf @ ..] | ["shard" | "quorum", _, leaf @ ..] => match leaf {
                    ["captured"] => self.captured += n,
                    ["published"] => self.published += n,
                    ["bytes_published"] => self.bytes_published += n,
                    ["notices"] => self.notices += n,
                    ["checkpoints"] => self.checkpoints += n,
                    ["mgr", "completed"] => self.recoveries += n,
                    ["mgr", "replayed"] => self.replayed += n,
                    ["store", "appended"] => self.appends += n,
                    ["store", "pages_written"] => self.pages += n,
                    ["disk", _, "bytes_written"] => self.disk_bytes += n,
                    ["consensus", "commit_latency_us", "count"] => {
                        let mean = path.replace("/count", "/mean");
                        self.commits += n;
                        self.commit_us += r.metrics.gauge_value(&mean).unwrap_or(0.0) * n as f64;
                    }
                    _ => {}
                },
                _ => {}
            }
        }
    }

    /// Mean wire bytes per submitted frame.
    pub fn mean_frame_bytes(&self) -> f64 {
        crate::stats::ratio(self.wire_bytes, self.frames as f64)
    }

    /// Mean payload bytes per published message.
    pub fn mean_payload_bytes(&self) -> f64 {
        crate::stats::ratio(self.bytes_published as f64, self.published as f64)
    }
}

/// Wire bytes a run submitted. The report does not carry the byte
/// counter itself, but two of its numbers are exact functions of it and
/// of the default `LanConfig`, and invert:
///
/// * on the perfect bus the medium's busy time is serial wire accounting,
///   `Σ frame_time(bytes)`, so the `medium_busy` profile row gives it;
/// * on the ethernet busy time also holds ack slots and collisions, but
///   the utilization cross-check predicts the load as `submitted ×
///   frame_time(mean bytes) / window` (that row saturates at 1.0, which
///   `ether_contend`'s ≈3 % load never reaches).
fn wire_bytes(r: &ObsReport, medium: Medium, submitted: u64) -> f64 {
    let busy_s = match medium {
        Medium::Perfect => r.profile.get("medium_busy").as_secs_f64(),
        Medium::Ethernet => r
            .utilization
            .as_ref()
            .and_then(|u| {
                let mut rows = u.xval.iter();
                let row = rows.find(|x| x.resource == "medium" && x.law == "utilization")?;
                Some(row.predicted * u.window_ms / 1e3)
            })
            .unwrap_or(0.0),
    };
    let cfg = publishing_net::lan::LanConfig::default();
    let wire_s = busy_s - submitted as f64 * cfg.interpacket.as_secs_f64();
    (wire_s * cfg.bandwidth_bps as f64 / 8.0).max(0.0)
}

/// What one world (or one search) produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Parse + compile + build + spawn, ns.
    pub setup_ns: u64,
    /// The timed region (`run_schedule` or `find_knee`), ns.
    pub run_ns: u64,
    /// Heap traffic inside the timed region.
    pub run_alloc: Totals,
    /// Messages offered (Σ `sent N`).
    pub sent: u64,
    /// Messages delivered (Σ `got N`).
    pub got: u64,
    /// Highest live heap from before compile to after the report, bytes.
    pub peak_bytes: u64,
    /// Allocations made by build + spawn.
    pub build_allocs: u64,
    /// Allocations made by `obs_report`.
    pub report_allocs: u64,
    /// Fold of the output and span fingerprints (determinism witness).
    pub fingerprint: u64,
    /// Trials run (searches only).
    pub trials: u64,
    /// Knee found (searches only).
    pub knee_users: u32,
    /// Gate violations; empty = the world is correct.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Messages that count as failed: all of a world that fails the gate.
    pub fn failed(&self) -> u64 {
        if self.failures.is_empty() {
            0
        } else {
            self.sent.max(1)
        }
    }
}

/// Σ of the `prefix N` lines, and the clients whose output does not end
/// in `done`.
fn tally<P: Display>(outputs: &[(P, Vec<String>)], failures: &mut Vec<String>) -> (u64, u64) {
    let sum = |prefix: &str| -> u64 {
        outputs
            .iter()
            .flat_map(|(_, lines)| lines)
            .filter_map(|l| l.strip_prefix(prefix))
            .filter_map(|n| n.trim().parse::<u64>().ok())
            .sum()
    };
    for (pid, lines) in outputs {
        if lines.last().map(String::as_str) != Some("done") {
            failures.push(format!("client {pid} did not finish: {:?}", lines.last()));
        }
    }
    (sum("sent "), sum("got "))
}

fn scenario(topology: Topology, medium: Medium, seed: u64) -> Scenario {
    let mut s = Scenario::new(topology, seed);
    s.medium = medium;
    s
}

/// One world's inputs: where it runs and its instantiated literals.
#[derive(Debug, Clone)]
pub struct WorldInput {
    /// Recorder tier.
    pub topology: Topology,
    /// Broadcast medium.
    pub medium: Medium,
    /// Workload-spec literal.
    pub spec: String,
    /// Fault-schedule literal.
    pub schedule: String,
    /// Whether `schedule` injects faults (the world must then recover).
    pub faulted: bool,
    /// The fault-free twin's schedule, when this world is to be judged
    /// by the recovery oracle against that twin.
    pub twin_schedule: Option<String>,
}

impl WorldInput {
    /// The inputs of workload `w`'s world for one sub-seed.
    pub fn of(w: &Workload, sub_seed: u64, with_twin: bool) -> Self {
        let (spec, schedule) = w.literals(sub_seed);
        WorldInput {
            topology: w.topology,
            medium: w.medium,
            spec,
            schedule,
            faulted: w.faulted(),
            twin_schedule: (with_twin && w.faulted()).then(|| w.twin_schedule(sub_seed)),
        }
    }
}

/// Called right after a timed region ends, with its length in ns: the
/// measuring loop's hook for timing the reference kernel while the box
/// is still in the state the timed work just saw.
pub type AfterTimed<'a> = &'a mut dyn FnMut(u64);

/// Builds, runs, reads out and verifies one world.
pub fn run_world(
    inp: &WorldInput,
    tr: &mut Tracer,
    counts: &mut Counts,
    after_timed: AfterTimed,
) -> Outcome {
    let mut out = Outcome::default();
    alloc::reset_peak();

    let t_setup = Instant::now();
    let s = tr.open("compile");
    let spec: WorkloadSpec = inp.spec.parse().expect("workload literal");
    let schedule: FaultSchedule = inp.schedule.parse().expect("schedule literal");
    let compiled = CompiledWorkload::new(spec.clone());
    tr.close(s);
    let s = tr.open("build");
    let before = alloc::totals();
    let scen = scenario(inp.topology, inp.medium, spec.seed);
    let mut world = scen.build_with(&compiled);
    out.build_allocs = alloc::totals().since(before).allocs;
    tr.close(s);
    out.setup_ns = t_setup.elapsed().as_nanos() as u64;

    let s = tr.open("run");
    let before = alloc::totals();
    let t_run = Instant::now();
    run_schedule(world.as_mut(), &schedule);
    out.run_ns = t_run.elapsed().as_nanos() as u64;
    out.run_alloc = alloc::totals().since(before);
    tr.close(s);
    after_timed(out.run_ns);

    let s = tr.open("outputs");
    let outputs = world.client_outputs();
    (out.sent, out.got) = tally(&outputs, &mut out.failures);
    tr.close(s);

    let s = tr.open("report");
    let before = alloc::totals();
    let report = world.obs_report();
    out.report_allocs = alloc::totals().since(before).allocs;
    tr.close(s);
    out.peak_bytes = alloc::peak_bytes();
    counts.add_report(&report, inp.medium);
    out.fingerprint = world.output_fingerprint() ^ world.obs_fingerprint().rotate_left(32);

    let s = tr.open("verify");
    if out.sent != out.got {
        out.failures
            .push(format!("sent {} != got {}", out.sent, out.got));
    }
    out.failures.extend(world.convergence_failures());
    let recoveries = world.recoveries_completed();
    if inp.faulted && recoveries == 0 {
        out.failures.push("faulted world never recovered".into());
    }
    if !inp.faulted && recoveries != 0 {
        out.failures
            .push(format!("fault-free world ran {recoveries} recoveries"));
    }
    if let Some(twin_schedule) = &inp.twin_schedule {
        let s = tr.open("twin");
        let twin_schedule: FaultSchedule = twin_schedule.parse().expect("twin literal");
        let mut twin = scen.build_with(&compiled);
        run_schedule(twin.as_mut(), &twin_schedule);
        let baseline = Baseline {
            output_fp: twin.output_fingerprint(),
            obs_fp: twin.obs_fingerprint(),
            client_outputs: twin.client_outputs(),
            span_events: twin.span_events(),
        };
        tr.close(s);
        let s = tr.open("oracle");
        out.failures.extend(oracle::check(
            world.as_ref(),
            &baseline,
            &OracleOptions::default(),
        ));
        tr.close(s);
    }
    tr.close(s);
    out
}

/// Runs one `find_knee` search and verifies every trial.
///
/// With `decompose`, the knee-point
/// trial is run once more through [`run_world`] so the traced run has
/// `build`/`run`/`outputs`/`report` spans for this workload too; that
/// extra world is not counted.
pub fn run_search(
    w: &Workload,
    sub_seed: u64,
    tr: &mut Tracer,
    counts: &mut Counts,
    decompose: bool,
    after_timed: AfterTimed,
) -> Outcome {
    let mut out = Outcome::default();
    let (spec_lit, sched_lit) = w.literals(sub_seed);
    alloc::reset_peak();

    // The search builds its own worlds inside the timed region, so set-up
    // is sampled on the base literal's world.
    let t_setup = Instant::now();
    let s = tr.open("compile");
    let base: WorkloadSpec = spec_lit.parse().expect("workload literal");
    let compiled = CompiledWorkload::new(base.clone());
    tr.close(s);
    let world = scenario(w.topology, w.medium, base.seed).build_with(&compiled);
    out.setup_ns = t_setup.elapsed().as_nanos() as u64;
    drop(world);

    let params = SearchParams {
        max_users: MAX_USERS,
        chaos: false,
        medium: w.medium,
        ..SearchParams::default()
    };
    let s = tr.open("find_knee");
    let before = alloc::totals();
    let t_run = Instant::now();
    let knee = find_knee(w.name, w.topology, &base, &SloSpec::default(), &params);
    out.run_ns = t_run.elapsed().as_nanos() as u64;
    out.run_alloc = alloc::totals().since(before);
    tr.close(s);
    out.peak_bytes = alloc::peak_bytes();
    after_timed(out.run_ns);

    let s = tr.open("verify");
    out.trials = knee.trials.len() as u64;
    out.knee_users = knee.knee_users;
    if !(1..=MAX_USERS).contains(&knee.knee_users) {
        out.failures
            .push(format!("knee {} outside 1..={MAX_USERS}", knee.knee_users));
    }
    for t in &knee.trials {
        out.sent += t.offered;
        out.got += t.delivered;
        out.fingerprint = out.fingerprint.rotate_left(7) ^ t.report.span_fingerprint;
        counts.add_report(&t.report, w.medium);
        if t.offered != t.delivered {
            out.failures.push(format!(
                "users={}: offered {} != delivered {}",
                t.users, t.offered, t.delivered
            ));
        }
        out.failures.extend(
            t.violations
                .iter()
                .filter(|v| v.contains("did not finish"))
                .map(|v| format!("users={}: {v}", t.users)),
        );
    }
    tr.close(s);

    if decompose {
        let inp = WorldInput {
            topology: w.topology,
            medium: w.medium,
            spec: base.with_users(knee.knee_users.max(1)).to_string(),
            schedule: sched_lit,
            faulted: false,
            twin_schedule: None,
        };
        let point = run_world(&inp, tr, &mut Counts::default(), &mut |_| {});
        out.build_allocs = point.build_allocs;
        out.report_allocs = point.report_allocs;
        out.failures.extend(point.failures);
    }
    out
}

/// Runs one world or one search of `w`, whichever its kind is. `deep`
/// asks for the expensive extras, done once per repetition: the recovery
/// oracle against a fault-free twin for a faulted world, the decomposed
/// knee-point trial for a traced search.
pub fn run_one(
    w: &Workload,
    sub_seed: u64,
    deep: bool,
    tr: &mut Tracer,
    counts: &mut Counts,
    after_timed: AfterTimed,
) -> Outcome {
    match w.kind {
        Kind::Run => run_world(&WorldInput::of(w, sub_seed, deep), tr, counts, after_timed),
        Kind::KneeSearch => {
            let decompose = deep && tr.recording;
            run_search(w, sub_seed, tr, counts, decompose, after_timed)
        }
    }
}
