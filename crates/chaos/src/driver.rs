//! Drives a target world through a fault schedule, as a client of the
//! world's clock.
//!
//! The driver walks the schedule's instants (discrete fault times plus
//! burst boundaries, whole milliseconds, ascending). For each it runs
//! the world up to — not through — that instant
//! ([`ChaosWorld::run_before`]: a fault at `t` lands before the frame
//! delivered at `t`), injects the discrete faults due in list order, and
//! recomputes the medium and disk fault regimes from the bursts active
//! at that time. Then the world runs to the horizon, is healed
//! (everything still down restarts, all regimes clear) and runs on until
//! its recovery has finished, so the oracle judges recovery, not an
//! ongoing outage. The world knows nothing of faults: it only runs to
//! the times it is given.
//!
//! When a run ends is one loop: past the horizon the driver asks the
//! world at every stride whether it has [`ChaosWorld::settled`] and
//! stops when it has, with a grace period as the bound. A faulted
//! [`run_schedule`] and a capacity trial's [`run_settled`] both end
//! there; a fault-free `run_schedule` still spends the whole grace
//! period (its doc comment says until when).

use crate::oracle::{self, Baseline, OracleOptions};
use crate::scenario::{ChaosWorld, Scenario};
use crate::schedule::{Fault, FaultSchedule};
use publishing_sim::fault::FaultPlan;
use publishing_sim::time::SimTime;
use publishing_stable::disk::DiskFaults;

/// Virtual time after the horizon for recovery to converge and the
/// workload to finish before the oracle runs.
pub const GRACE_MS: u64 = 35_000;

/// The medium fault plan implied by the bursts active at `t_ms`.
/// Overlapping bursts of one kind combine by maximum probability.
fn medium_plan_at(s: &FaultSchedule, t_ms: u64) -> FaultPlan {
    let (mut loss, mut corrupt, mut dup) = (0u32, 0u32, 0u32);
    for f in &s.faults {
        match *f {
            Fault::Loss {
                at_ms,
                dur_ms,
                p_pct,
            } if at_ms <= t_ms && t_ms < at_ms + dur_ms => loss = loss.max(p_pct),
            Fault::Corrupt {
                at_ms,
                dur_ms,
                p_pct,
            } if at_ms <= t_ms && t_ms < at_ms + dur_ms => corrupt = corrupt.max(p_pct),
            Fault::Duplicate {
                at_ms,
                dur_ms,
                p_pct,
            } if at_ms <= t_ms && t_ms < at_ms + dur_ms => dup = dup.max(p_pct),
            _ => {}
        }
    }
    FaultPlan::new()
        .with_frame_loss(f64::from(loss) / 100.0)
        .with_frame_corruption(f64::from(corrupt) / 100.0)
        .with_frame_duplication(f64::from(dup) / 100.0)
}

/// The disk fault regime implied by the windows active at `t_ms`.
/// Torn-writes activations are level-triggered: on from their instant
/// until the heal.
fn disk_faults_at(s: &FaultSchedule, t_ms: u64) -> DiskFaults {
    let mut out = DiskFaults {
        seed: s.workload_seed,
        ..DiskFaults::default()
    };
    for f in &s.faults {
        match *f {
            Fault::DiskTransient {
                at_ms,
                dur_ms,
                p_pct,
            } if at_ms <= t_ms && t_ms < at_ms + dur_ms => {
                out.transient_error = out.transient_error.max(f64::from(p_pct) / 100.0);
            }
            Fault::TornWrites { at_ms } if at_ms <= t_ms => out.torn_writes = true,
            _ => {}
        }
    }
    out
}

/// All instants (ms) at which the driver acts on the world, ascending:
/// discrete fault times, burst starts and burst ends, up to the horizon.
fn instants(s: &FaultSchedule) -> Vec<u64> {
    let mut ts = Vec::new();
    for f in &s.faults {
        if f.at_ms() <= s.horizon_ms {
            ts.push(f.at_ms());
        }
        if let Some(d) = f.dur_ms() {
            let end = f.at_ms() + d;
            if end <= s.horizon_ms {
                ts.push(end);
            }
        }
    }
    ts.sort_unstable();
    ts.dedup();
    ts
}

/// Replays `schedule` against a fresh `target`: injection, heal, then
/// on until the world has [`ChaosWorld::settled`] — its recovery
/// finished, every spawned process accounted for by the census in
/// [`ChaosWorld::convergence_failures`] — bounded by [`GRACE_MS`] past
/// the horizon. Returns how long after the horizon the run ended with
/// the world settled, `None` if the grace period expired first. On
/// return the world is ready for the oracle.
///
/// A schedule with no faults keeps the whole grace period (and says
/// `Some(GRACE_MS)` if it ended settled) until `hostbench` keeps its own
/// `setup_s` vector out of the heap it reports as `peak_heap_mb`:
/// settling it too reads `ether_contend` +30.5 % peak heap, the
/// vector's next doubling, with no program heap grown. The same step
/// sits under any `ether_contend` speed-up. A 15 s run builds ≈ 8.1–9.6 k
/// of its worlds, so the vector's doubling from 32 to 64 KiB at the
/// 4 097th world falls at the median repetition: a speed-up of ~5 % or
/// more can read as a > 10 % `peak_heap_mb` regression.
pub fn run_schedule(target: &mut dyn ChaosWorld, schedule: &FaultSchedule) -> Option<u64> {
    for t_ms in instants(schedule) {
        target.run_before(SimTime::from_millis(t_ms));
        for f in schedule.faults.iter().filter(|f| f.at_ms() == t_ms) {
            target.inject(f);
        }
        target.set_medium_faults(medium_plan_at(schedule, t_ms));
        target.set_disk_faults(disk_faults_at(schedule, t_ms));
    }
    target.run_until(SimTime::from_millis(schedule.horizon_ms));
    target.heal();
    if schedule.faults.is_empty() {
        target.run_until(SimTime::from_millis(schedule.horizon_ms + GRACE_MS));
        return target.settled().then_some(GRACE_MS);
    }
    settle(target, schedule.horizon_ms)
}

/// Virtual time between two looks at a world past its horizon: a few
/// housekeeping events on the busiest tier, and the resolution of the
/// instant [`run_settled`] and [`run_schedule`] return.
const SETTLE_STRIDE_MS: u64 = 20;

/// Runs a fault-free `target` to `horizon_ms` and on until it has
/// [`ChaosWorld::settled`], looking every 20 virtual ms, or until
/// the [`GRACE_MS`] that bounds every run has passed.
/// Returns how long after the horizon the world settled (virtual ms),
/// `None` if the grace expired first. Client outputs and message
/// latencies are those of a whole grace period, and the span logs are
/// prefixes of its logs: what the rest of the grace period would add is
/// housekeeping (a periodic checkpoint of a process still alive, an
/// election of a quorum that keeps losing heartbeats on a contended
/// medium). The clock, and with it every whole-run average of the
/// report, stops at the settle instant, not at `horizon + GRACE_MS`.
pub fn run_settled(target: &mut dyn ChaosWorld, horizon_ms: u64) -> Option<u64> {
    target.run_until(SimTime::from_millis(horizon_ms));
    settle(target, horizon_ms)
}

/// The one settle loop: from the horizon, a look every stride until the
/// world has settled or the grace period is spent.
fn settle(target: &mut dyn ChaosWorld, horizon_ms: u64) -> Option<u64> {
    let mut after_ms = 0;
    while !target.settled() {
        if after_ms == GRACE_MS {
            return None;
        }
        after_ms = (after_ms + SETTLE_STRIDE_MS).min(GRACE_MS);
        target.run_until(SimTime::from_millis(horizon_ms + after_ms));
    }
    Some(after_ms)
}

/// How a run ended, as `lab` prints it: `settled=+Xms` past the horizon,
/// or `grace expired`.
pub fn ended(settled_ms: Option<u64>) -> String {
    match settled_ms {
        Some(ms) => format!("settled=+{ms}ms"),
        None => "grace expired".to_string(),
    }
}

/// A scenario bound to its fault-free baseline: the reusable harness
/// for running many schedules against one workload.
pub struct Engine {
    scenario: Scenario,
    baseline: Baseline,
    opts: OracleOptions,
}

impl Engine {
    /// Builds the engine: runs the fault-free twin once, as the baseline
    /// every schedule is judged against. Its determinism is checked
    /// across processes: `lab chaos` prints its span fingerprint.
    ///
    /// # Errors
    ///
    /// Returns a description if the workload does not complete within
    /// the horizon + grace period.
    pub fn new(scenario: Scenario, opts: OracleOptions) -> Result<Engine, String> {
        let empty = FaultSchedule {
            workload_seed: scenario.workload_seed,
            horizon_ms: 0,
            faults: Vec::new(),
        };
        let baseline = {
            let mut twin = scenario.build();
            run_schedule(twin.as_mut(), &empty);
            Baseline::of(twin.as_ref())
        };
        for (pid, lines) in &baseline.client_outputs {
            if lines.last().map(String::as_str) != Some("done") {
                return Err(format!(
                    "baseline incomplete: client {pid} ended with {:?}",
                    lines.last()
                ));
            }
        }
        Ok(Engine {
            scenario,
            baseline,
            opts,
        })
    }

    /// The fault-free baseline this engine judges schedules against.
    pub fn baseline(&self) -> &Baseline {
        &self.baseline
    }

    /// Runs one schedule on a fresh world and returns when the run ended,
    /// as [`run_schedule`] returns it, and the oracle's failures (empty =
    /// the schedule passed).
    pub fn judge(&self, schedule: &FaultSchedule) -> (Option<u64>, Vec<String>) {
        let mut t = self.scenario.build();
        let settled_ms = run_schedule(t.as_mut(), schedule);
        let failures = oracle::check(t.as_ref(), &self.baseline, &self.opts);
        (settled_ms, failures)
    }

    /// Shrinks a failing schedule to a minimal reproducer (see
    /// [`crate::shrink::shrink`]).
    pub fn shrink(&self, schedule: &FaultSchedule) -> FaultSchedule {
        crate::shrink::shrink(schedule, &mut |s| !self.judge(s).1.is_empty())
    }
}
