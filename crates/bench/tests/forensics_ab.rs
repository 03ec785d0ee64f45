//! The regression-forensics acceptance pair: a seeded A/B run with
//! protocol CPU doubled moves both scenarios, each explained by one
//! finding whose #1 suspect is the protocol CPU, and any side diffed
//! against itself must produce an empty diagnosis at both granularities.

use publishing_bench::forensics_demo::{
    annotate_remediation, baseline_tuning, injected_tuning, run_side,
};
use publishing_obs::forensics::SuspectKind;
use publishing_perf::forensics::{diff_reports, diff_snapshots};

/// Suspect names that all mean "the protocol-CPU physics got slower":
/// the cost-model profile categories and the ledger kinds the
/// `proto_cpu` knob scales.
const CPU_FAMILY: &[&str] = &[
    "profile_kernel_cpu_ms",
    "profile_publish_cpu_ms",
    "util_cpu_proto_busy_ms",
    "util_cpu_prog_busy_ms",
    "util_recorder_cpu_busy_ms",
];

#[test]
fn doubled_protocol_cpu_is_caught_and_attributed() {
    let baseline = run_side(&baseline_tuning());
    let injected = run_side(&injected_tuning("proto_cpu", 2.0));

    let (c, mut diagnosis) = diff_snapshots("baseline", &baseline.snapshot, &injected.snapshot);
    assert_eq!(
        c.exit_code(),
        1,
        "doubling protocol CPU must move the snapshot:\n{}",
        c.render()
    );
    annotate_remediation(&mut diagnosis);

    // One finding per scenario that moved, and both moved.
    let scenarios: Vec<&str> = diagnosis
        .findings
        .iter()
        .map(|f| f.scenario.as_str())
        .collect();
    assert_eq!(
        scenarios,
        ["ab_trial", "ab_crash"],
        "{}",
        diagnosis.render()
    );
    for f in &diagnosis.findings {
        let top = f.suspects.first().expect("a moved scenario gets suspects");
        // The #1 suspect must finger the protocol CPU either directly
        // (a CPU-family metric) or via a binding flip onto a CPU
        // resource ("the run is now bottlenecked on cpu2:proto").
        let names_cpu = match top.kind {
            SuspectKind::BindingFlip => top
                .detail
                .rsplit_once(" -> ")
                .is_some_and(|(_, onto)| onto.starts_with("cpu")),
            _ => CPU_FAMILY.contains(&top.name.as_str()) && top.detail.contains("proto_cpu"),
        };
        assert!(
            names_cpu,
            "#1 suspect for {} is {} ({:?}), not protocol CPU:\n{}",
            f.scenario,
            top.name,
            top.detail,
            diagnosis.render()
        );
        if top.kind != SuspectKind::BindingFlip {
            // The injected knob scales costs exactly 2x, and virtual
            // time replays exactly, so the top suspect's growth is
            // large — not a marginal change.
            assert!(
                top.new > top.prev * 1.5,
                "top suspect should have grown substantially: {} -> {}",
                top.prev,
                top.new
            );
        }
    }

    // The report-level differ must attribute the same physics: the
    // profile finding's top stage suspect is the kernel-CPU category.
    let trial_diag = diff_reports(
        "baseline/trial",
        &baseline.trial_report,
        &injected.trial_report,
    );
    let profile = trial_diag
        .findings
        .iter()
        .find(|f| f.subject == "profile")
        .expect("the profile must shift when CPU costs double");
    assert_eq!(profile.suspects[0].name, "kernel_cpu");
    let util = trial_diag
        .findings
        .iter()
        .find(|f| f.subject == "utilization")
        .expect("the ledger must shift when CPU costs double");
    assert_eq!(util.suspects[0].kind, SuspectKind::Resource);
    assert!(
        util.suspects[0].detail.contains("cpu_proto")
            || util.suspects[0].detail.contains("cpu_prog"),
        "top ledger shift should be a CPU row, got {:?}",
        util.suspects[0]
    );
}

#[test]
fn self_diff_is_empty_at_both_granularities() {
    let side = run_side(&baseline_tuning());
    let (c, snap_diag) = diff_snapshots("self", &side.snapshot, &side.snapshot);
    assert_eq!(c.exit_code(), 0);
    assert!(snap_diag.is_empty(), "{}", snap_diag.render());
    let trial = diff_reports("self", &side.trial_report, &side.trial_report);
    assert!(trial.is_empty(), "{}", trial.render());
    let crash = diff_reports("self", &side.crash_report, &side.crash_report);
    assert!(crash.is_empty(), "{}", crash.render());
}

#[test]
fn ab_sides_are_deterministic() {
    // Two runs of the same side must agree byte-for-byte on the
    // snapshot — the property that makes any surviving diff a real
    // change rather than noise.
    let a1 = run_side(&baseline_tuning());
    let a2 = run_side(&baseline_tuning());
    assert_eq!(a1.snapshot.to_json(), a2.snapshot.to_json());
}
