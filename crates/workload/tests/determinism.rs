//! Fixed-seed determinism for the closed-loop capacity search: two
//! searches of the same (shape, topology, seed) must walk the same
//! user sequence to the same knee with the same per-point verdicts, and
//! stop every trial at the same settle instant.
//! A nondeterministic knee would make the `bench_compare` capacity
//! gate flaky, so determinism is itself the tested invariant.

use publishing_chaos::{Medium, Topology};
use publishing_obs::slo::SloSpec;
use publishing_workload::{canonical_shapes, find_knee, Knee, SearchParams};

fn skeleton(k: &Knee) -> (u32, Vec<(u32, bool, Option<u64>)>) {
    (
        k.knee_users,
        k.trials
            .iter()
            .map(|t| (t.users, t.pass, t.settled_ms))
            .collect(),
    )
}

fn smoke_params(medium: Medium) -> SearchParams {
    SearchParams {
        max_users: 16,
        chaos: true,
        medium,
        ..SearchParams::default()
    }
}

/// The same search run twice agrees point-for-point, on both media and
/// all three topologies, chaos validation included.
#[test]
fn repeated_searches_agree_exactly() {
    for (name, spec) in canonical_shapes(7).into_iter().take(2) {
        for topo in [Topology::Single, Topology::Sharded, Topology::Quorum] {
            for medium in [Medium::Perfect, Medium::Ethernet] {
                let params = smoke_params(medium);
                let a = find_knee(name, topo, &spec, &SloSpec::default(), &params);
                let b = find_knee(name, topo, &spec, &SloSpec::default(), &params);
                assert_eq!(
                    skeleton(&a),
                    skeleton(&b),
                    "{name}/{topo:?}/{medium:?} diverged"
                );
            }
        }
    }
}

/// Structural invariants of any search: the knee is the largest passing
/// trial (or zero with none), the bracket walk never exceeds the cap,
/// and every searched point carries full workload accounting. And the
/// paper's medium sustains *some* load: a zero single-recorder knee on
/// the ethernet means the stack regressed below one user.
#[test]
fn search_results_are_well_formed() {
    let (name, spec) = canonical_shapes(1).remove(2); // flash_crowd
    let params = smoke_params(Medium::Ethernet);
    let knee = find_knee(name, Topology::Single, &spec, &SloSpec::default(), &params);
    assert!(
        knee.knee_users >= 1,
        "zero capacity: even one user missed the SLOs ({:?})",
        knee.trials.first().map(|t| &t.violations)
    );
    assert!(knee.knee_users <= params.max_users);
    match knee.knee_trial() {
        Some(best) => assert_eq!(best.users, knee.knee_users),
        None => assert_eq!(knee.knee_users, 0),
    }
    assert!(!knee.trials.is_empty());
    for t in &knee.trials {
        assert!(t.users >= 1 && t.users <= params.max_users);
        assert!(t.delivered <= t.offered, "sinks cannot invent messages");
        let w = t.report.workload.as_ref().expect("stats attached");
        assert_eq!(w.offered, t.offered);
        assert_eq!(w.delivered, t.delivered);
        assert_eq!(
            t.pass,
            t.violations.is_empty() && t.chaos_failures.is_empty()
        );
    }
}
