//! The seeded A/B pair behind `lab forensics` and the
//! regression-forensics acceptance test.
//!
//! One side of the pair is two deterministic runs at a fixed seed: a
//! fault-free workload trial (latencies, profile, ledger) and a
//! crash→recovery run (critical path), both projected into one
//! [`Snapshot`]. The baseline side runs on the paper's nonzero VAX cost
//! model — `Tuning::default()` uses `CostModel::zero()`, and doubling
//! zero is a no-op, so the demo pins [`CostModel::default`] explicitly.
//! The injected side applies a what-if knob with an overridden
//! multiplier (e.g. `proto_cpu` ×2.0 = "someone doubled protocol CPU"),
//! so the forensics engine can be exercised against a regression whose
//! true cause is known.
//!
//! [`annotate_remediation`] closes the loop: every ranked suspect that
//! maps onto a what-if knob gets that knob's name in its detail, so a
//! diagnosis reads "protocol CPU grew — the `proto_cpu` knob turns it".

use publishing_chaos::driver::run_schedule;
use publishing_chaos::{Fault, FaultSchedule, Medium, Scenario, Topology, Tuning};
use publishing_demos::CostModel;
use publishing_obs::forensics::{ForensicsReport, SuspectKind};
use publishing_obs::report::ObsReport;
use publishing_obs::slo::SloSpec;
use publishing_perf::snapshot::{scenario_from_report, Snapshot};
use publishing_sim::ledger::ResourceKind;
use publishing_workload::{knob_for_kind, run_trial, standard_knobs, WorkloadSpec};

/// Seed for both runs of a side.
pub const AB_SEED: u64 = 42;

/// The baseline physics: the paper's VAX cost model (nonzero, so cost
/// knobs have something to scale), default medium and transport.
pub fn baseline_tuning() -> Tuning {
    Tuning {
        costs: CostModel::default(),
        ..Tuning::default()
    }
}

/// The baseline with one what-if knob applied at an overridden
/// multiplier (`proto_cpu:2.0` doubles protocol CPU instead of the
/// matrix's default halving).
///
/// # Panics
///
/// Panics when `knob` is not one of [`standard_knobs`].
pub fn injected_tuning(knob: &str, multiplier: f64) -> Tuning {
    let mut k = standard_knobs()
        .into_iter()
        .find(|k| k.name == knob)
        .unwrap_or_else(|| panic!("unknown what-if knob \"{knob}\""));
    k.multiplier = multiplier;
    k.apply(&baseline_tuning())
}

/// One side of the A/B pair: the projected snapshot plus the two raw
/// reports the report-level differ consumes.
pub struct AbRun {
    /// Both runs projected as `ab_trial` / `ab_crash` scenarios.
    pub snapshot: Snapshot,
    /// The fault-free workload trial's report (latencies, ledger).
    pub trial_report: ObsReport,
    /// The crash→recovery run's report (critical path).
    pub crash_report: ObsReport,
}

/// The workload operating point both sides run.
pub fn ab_spec() -> WorkloadSpec {
    WorkloadSpec {
        users: 4,
        subjects: 2,
        rate_per_sec: 40,
        horizon_ms: 400,
        ..WorkloadSpec::default()
    }
}

/// Runs one side of the pair under `tuning`. Deterministic: the same
/// tuning yields a byte-identical `snapshot.to_json()`.
pub fn run_side(tuning: &Tuning) -> AbRun {
    let trial = run_trial(
        Topology::Single,
        &ab_spec(),
        &SloSpec::default(),
        Medium::Perfect,
        None,
        tuning,
    );
    let trial_report = *trial.report;

    let mut world = Scenario::new(Topology::Single, AB_SEED)
        .tuned(tuning.clone())
        .build();
    let schedule = FaultSchedule {
        workload_seed: AB_SEED,
        horizon_ms: 1500,
        faults: vec![Fault::CrashNode {
            at_ms: 200,
            node: 2,
        }],
    };
    run_schedule(world.as_mut(), &schedule);
    let crash_report = world.obs_report();

    let mut snapshot = Snapshot::new("smoke");
    snapshot
        .scenarios
        .push(scenario_from_report("ab_trial", &trial_report));
    let mut crash = scenario_from_report("ab_crash", &crash_report);
    crash.fingerprint("output", world.output_fingerprint());
    snapshot.scenarios.push(crash);
    AbRun {
        snapshot,
        trial_report,
        crash_report,
    }
}

/// The resource kind behind a forensics suspect name, when the name is
/// one of the snapshot attribution families (`util_<kind>_busy_ms` for
/// ledger rows, `profile_<category>_ms` for cost-model CPU categories).
fn kind_for_suspect(name: &str) -> Option<ResourceKind> {
    if let Some(label) = name
        .strip_prefix("util_")
        .and_then(|rest| rest.strip_suffix("_busy_ms"))
    {
        return [
            ResourceKind::Medium,
            ResourceKind::Disk,
            ResourceKind::RecorderCpu,
            ResourceKind::NodeCpuProto,
            ResourceKind::NodeCpuProg,
            ResourceKind::Transport,
            ResourceKind::Consensus,
        ]
        .into_iter()
        .find(|k| k.label() == label);
    }
    // Profile categories charged straight from the cost model map onto
    // the same physics the ledger meters.
    match name {
        "profile_kernel_cpu_ms" => Some(ResourceKind::NodeCpuProto),
        "profile_publish_cpu_ms" => Some(ResourceKind::NodeCpuProg),
        "profile_stable_store_io_ms" => Some(ResourceKind::Disk),
        "profile_medium_busy_ms" => Some(ResourceKind::Medium),
        _ => None,
    }
}

/// Stamps every stage/resource suspect that maps onto a standard
/// what-if knob with `what-if knob: <name>` — the remediation hint that
/// connects a diagnosis back to a turnable physical constant.
pub fn annotate_remediation(report: &mut ForensicsReport) {
    for finding in &mut report.findings {
        for suspect in &mut finding.suspects {
            if !matches!(suspect.kind, SuspectKind::Stage | SuspectKind::Resource) {
                continue;
            }
            let Some(knob) = kind_for_suspect(&suspect.name).and_then(knob_for_kind) else {
                continue;
            };
            if suspect.detail.is_empty() {
                suspect.detail = format!("what-if knob: {knob}");
            } else {
                suspect.detail.push_str(&format!(" — what-if knob: {knob}"));
            }
        }
    }
}
