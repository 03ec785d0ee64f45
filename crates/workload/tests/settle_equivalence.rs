//! A trial that stops when its world has settled is the trial that ran
//! the whole grace period: same messages, same verdicts, same spans,
//! same latencies. The reference — a fault-free run driven by
//! `run_schedule` with an empty schedule, as every trial was before
//! `run_settled` existed — lives here, not in `src/`.

use publishing_chaos::driver::{run_schedule, run_settled, GRACE_MS};
use publishing_chaos::oracle::{self, Baseline, OracleOptions};
use publishing_chaos::{FaultSchedule, Medium, Scenario, Topology, Tuning};
use publishing_obs::report::ObsReport;
use publishing_obs::slo::SloSpec;
use publishing_obs::span::{SpanEvent, Stage};
use publishing_sim::stats::LogHistogram;
use publishing_workload::capacity::point_schedule;
use publishing_workload::{
    find_knee, run_trial, CompiledWorkload, SearchParams, TrialOutcome, WorkloadSpec,
};

/// Everything of a trial that may not depend on when its world stopped.
#[derive(Debug, PartialEq)]
struct Verdict {
    users: u32,
    pass: bool,
    offered: u64,
    delivered: u64,
    violations: Vec<String>,
    chaos_failures: Vec<String>,
    span_fingerprint: u64,
    deliver: [u64; 4],
    sequence: [u64; 4],
}

fn shape(h: &LogHistogram) -> [u64; 4] {
    let s = h.summary();
    [
        s.count(),
        h.quantile(0.5),
        h.quantile(0.99),
        s.max().unwrap_or(0.0) as u64,
    ]
}

fn verdict(
    users: u32,
    offered: u64,
    delivered: u64,
    violations: &[String],
    chaos_failures: &[String],
    report: &ObsReport,
) -> Verdict {
    Verdict {
        users,
        pass: violations.is_empty() && chaos_failures.is_empty(),
        offered,
        delivered,
        violations: violations.to_vec(),
        chaos_failures: chaos_failures.to_vec(),
        span_fingerprint: report.span_fingerprint,
        deliver: shape(&report.latencies.publish_to_deliver_us),
        sequence: shape(&report.latencies.capture_to_sequence_us),
    }
}

fn of_trial(t: &TrialOutcome) -> Verdict {
    verdict(
        t.users,
        t.offered,
        t.delivered,
        &t.violations,
        &t.chaos_failures,
        &t.report,
    )
}

fn sum(outputs: &[(publishing_demos::ids::ProcessId, Vec<String>)], prefix: &str) -> u64 {
    outputs
        .iter()
        .flat_map(|(_, lines)| lines)
        .filter_map(|l| l.strip_prefix(prefix)?.trim().parse::<u64>().ok())
        .sum()
}

fn scenario(topology: Topology, spec: &WorkloadSpec, medium: Medium) -> Scenario {
    let mut s = Scenario::new(topology, spec.seed);
    s.medium = medium;
    s
}

/// A whole-grace trial: what it decided, the binding resource its
/// ledger named, and the SLO world's elections and span logs.
struct Reference {
    verdict: Verdict,
    binding: Option<String>,
    elections: Option<u64>,
    spans: Vec<Vec<SpanEvent>>,
}

fn elections(report: &ObsReport) -> Option<u64> {
    report.consensus.as_ref().map(|c| c.elections)
}

/// The trial as it was run before worlds could say they had settled:
/// every fault-free world through `run_schedule`'s whole grace period.
fn reference_trial(
    topology: Topology,
    spec: &WorkloadSpec,
    slo: &SloSpec,
    medium: Medium,
    chaos: bool,
) -> Reference {
    let compiled = CompiledWorkload::new(spec.clone());
    let empty = FaultSchedule {
        workload_seed: spec.seed,
        horizon_ms: spec.horizon_ms,
        faults: Vec::new(),
    };
    let on = |medium: Medium| scenario(topology, spec, medium);
    let mut world = on(medium).build_with(&compiled);
    run_schedule(world.as_mut(), &empty);
    assert_eq!(
        world.obs_report().at_ms,
        (spec.horizon_ms + GRACE_MS) as f64
    );
    let outputs = world.client_outputs();
    let report = world.obs_report();
    let mut violations: Vec<String> = outputs
        .iter()
        .filter(|(_, lines)| lines.last().map(String::as_str) != Some("done"))
        .map(|(pid, _)| format!("client {pid} did not finish"))
        .collect();
    violations.extend(slo.violations(&report));

    let mut chaos_failures = Vec::new();
    if chaos {
        let baseline = if medium == Medium::Perfect {
            Baseline::of(world.as_ref())
        } else {
            let mut clean = on(Medium::Perfect).build_with(&compiled);
            run_schedule(clean.as_mut(), &empty);
            Baseline::of(clean.as_ref())
        };
        let mut faulted = on(Medium::Perfect).build_with(&compiled);
        run_schedule(faulted.as_mut(), &point_schedule(topology, spec));
        chaos_failures = oracle::check(faulted.as_ref(), &baseline, &OracleOptions::default());
        let recovery_slo = SloSpec {
            deliver_p99_us: u64::MAX,
            sequence_p99_us: u64::MAX,
            max_gating_stalls: u64::MAX,
            ..*slo
        };
        chaos_failures.extend(recovery_slo.violations(&faulted.obs_report()));
    }
    let binding = report
        .utilization
        .as_ref()
        .and_then(|u| u.binding())
        .map(|r| r.name.clone());
    Reference {
        verdict: verdict(
            spec.users,
            sum(&outputs, "sent "),
            sum(&outputs, "got "),
            &violations,
            &chaos_failures,
            &report,
        ),
        binding,
        elections: elections(&report),
        spans: world.span_events(),
    }
}

/// The replicated recorder on the contended ethernet keeps losing
/// heartbeats and re-electing, idle or not, so there the grace period
/// adds `Elect` spans to the log — and nothing else: the settled world's
/// span logs (rebuilt here; its fingerprint ties it to the trial) are
/// prefixes of the reference's, and what follows is elections only.
fn grace_added_only_elections(
    topology: Topology,
    spec: &WorkloadSpec,
    medium: Medium,
    trial: &TrialOutcome,
    reference: &Reference,
) {
    let mut world =
        scenario(topology, spec, medium).build_with(&CompiledWorkload::new(spec.clone()));
    assert_eq!(
        run_settled(world.as_mut(), spec.horizon_ms),
        trial.settled_ms
    );
    assert_eq!(world.obs_fingerprint(), trial.report.span_fingerprint);
    let settled = world.span_events();
    assert_eq!(settled.len(), reference.spans.len());
    for (short, long) in settled.iter().zip(&reference.spans) {
        assert_eq!(short[..], long[..short.len()]);
        assert!(long[short.len()..].iter().all(|e| e.stage == Stage::Elect));
    }
}

/// 3 tiers × 2 media × 8 seeds of `find_knee` to a small cap, chaos
/// validation on for every other seed: every searched point equals its
/// reference, and the knee is attributed to the same resource.
#[test]
fn every_trial_equals_its_whole_grace_reference() {
    let slo = SloSpec::default();
    let (mut trials, mut settled) = (0, 0);
    for topology in [Topology::Single, Topology::Sharded, Topology::Quorum] {
        for medium in [Medium::Perfect, Medium::Ethernet] {
            for seed in 1..=8u64 {
                let base = WorkloadSpec {
                    subjects: 2,
                    seed,
                    rate_per_sec: 20,
                    horizon_ms: 300,
                    ..WorkloadSpec::default()
                };
                let params = SearchParams {
                    max_users: 6,
                    chaos: seed % 2 == 0,
                    medium,
                    ..SearchParams::default()
                };
                let knee = find_knee("eq", topology, &base, &slo, &params);
                let at = format!("{topology}/{medium}/seed {seed}");
                let mut reference = Vec::new();
                for t in &knee.trials {
                    let spec = base.clone().with_users(t.users);
                    let mut want = reference_trial(topology, &spec, &slo, medium, params.chaos);
                    if want.elections != elections(&t.report) {
                        assert_eq!((topology, medium), (Topology::Quorum, Medium::Ethernet));
                        grace_added_only_elections(topology, &spec, medium, t, &want);
                        want.verdict.span_fingerprint = t.report.span_fingerprint;
                    }
                    assert_eq!(of_trial(t), want.verdict, "{at} users={}", t.users);
                    // A world with a driver unfinished never settles; nor
                    // does one the tier's watchdog has flagged for good.
                    let unfinished = |v: &String| v.contains("did not finish");
                    assert!(
                        t.settled_ms.is_none() || !t.violations.iter().any(unfinished),
                        "{at} users={}: settled with a driver unfinished",
                        t.users
                    );
                    settled += usize::from(t.settled_ms.is_some());
                    reference.push(want);
                    trials += 1;
                }
                // The knee's binding by `find_knee`'s rule, over the
                // reference trials.
                let named = |pass: bool| {
                    let side = reference.iter().filter(move |r| r.verdict.pass == pass);
                    if pass {
                        side.max_by_key(|r| r.verdict.users)
                    } else {
                        side.min_by_key(|r| r.verdict.users)
                    }
                    .and_then(|r| r.binding.clone())
                };
                assert_eq!(knee.binding, named(false).or_else(|| named(true)), "{at}");
            }
        }
    }
    assert!(trials >= 48 * 2, "{trials} trials compared");
    assert!(settled * 10 >= trials * 8, "{settled} of {trials} settled");
}

/// The bound still binds: an overloaded ethernet point whose sinks
/// cannot drain inside the grace period runs to `horizon + GRACE_MS`
/// like its reference, reports `did not finish` exactly as it does, and
/// says the grace expired.
#[test]
fn a_trial_that_cannot_finish_runs_out_the_grace_period() {
    let spec = WorkloadSpec {
        users: 64,
        subjects: 2,
        rate_per_sec: 100,
        horizon_ms: 400,
        ..WorkloadSpec::default()
    };
    let slo = SloSpec::default();
    let t = run_trial(
        Topology::Single,
        &spec,
        &slo,
        Medium::Ethernet,
        None,
        &Tuning::default(),
    );
    assert_eq!(t.settled_ms, None);
    assert_eq!(t.ended(), "grace expired");
    assert_eq!(t.report.at_ms, (spec.horizon_ms + GRACE_MS) as f64);
    assert_eq!(t.rejected_by()[0], "goodput");
    let want = reference_trial(Topology::Single, &spec, &slo, Medium::Ethernet, false);
    assert!(want.verdict.violations[0].ends_with("did not finish"));
    assert_eq!(of_trial(&t), want.verdict);
    // Stopped at the same instant, the ledger names the same resource.
    assert_eq!(t.binding, want.binding);
}
