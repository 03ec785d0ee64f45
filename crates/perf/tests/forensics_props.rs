//! Property tests pinning the regression-forensics invariants.
//!
//! - **Self-diff emptiness**: any generated snapshot diffed against
//!   itself yields a passing comparison and an empty diagnosis — no
//!   metric family or fingerprint set may break it.
//! - **Antisymmetry**: `metric_deltas(a, b)` and `metric_deltas(b, a)`
//!   pair up with exactly negated deltas and identical significance
//!   verdicts, so "who is the baseline" never changes what is real.
//! - **Suspect sanity**: diagnosis suspects only ever name metrics that
//!   actually moved, and every finding belongs to a scenario present in
//!   both snapshots.

use proptest::prelude::*;
use publishing_perf::forensics::{diff_snapshots, metric_deltas};
use publishing_perf::snapshot::{ScenarioSnapshot, Snapshot};

/// Metric-name pool mixing gated suffixes, attribution families, and
/// ungated noise — the shapes a real snapshot carries.
const METRICS: &[&str] = &[
    "events_per_virtual_sec",
    "publish_to_deliver_us_p99",
    "capture_to_sequence_us_p50",
    "peak_queue_depth",
    "profile_kernel_cpu_ms",
    "profile_medium_busy_ms",
    "util_cpu_proto_busy_ms",
    "util_transport_busy_ms",
    "critical_path_replay_ms",
    "single_capacity_users",
    "perfect_lens_knee",
    "perfect_proto_cpu_predicted",
    "spans_total",
];

fn arb_scenario(name: &'static str) -> impl Strategy<Value = ScenarioSnapshot> {
    // The vendored proptest shim has integer range strategies only, so
    // values are drawn as micro-units and scaled into f64 readings.
    (
        proptest::collection::vec((0usize..METRICS.len(), 0u64..1_000_000_000), 0..10),
        proptest::option::of(0u64..4),
    )
        .prop_map(move |(virt, binding)| {
            let mut s = ScenarioSnapshot::new(name);
            for (i, v) in virt {
                s.virt(METRICS[i], v as f64 / 1e3);
            }
            if let Some(b) = binding {
                s.fingerprints
                    .insert("binding".into(), format!("resource {b}"));
            }
            s
        })
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (arb_scenario("alpha"), arb_scenario("beta")).prop_map(|(a, b)| {
        let mut snap = Snapshot::new("smoke");
        snap.scenarios.push(a);
        snap.scenarios.push(b);
        snap
    })
}

proptest! {
    #[test]
    fn self_diff_is_always_empty(snap in arb_snapshot()) {
        let (c, diagnosis) = diff_snapshots("self", &snap, &snap);
        prop_assert_eq!(c.exit_code(), 0, "self-compare must pass:\n{}", c.render());
        prop_assert!(
            diagnosis.is_empty(),
            "self-diff must be empty:\n{}",
            diagnosis.render()
        );
    }

    #[test]
    fn metric_deltas_are_antisymmetric(
        a in arb_scenario("alpha"),
        b in arb_scenario("alpha"),
    ) {
        let fwd = metric_deltas(&a, &b);
        let rev = metric_deltas(&b, &a);
        // Both directions see the same both-sided metric set, in the
        // same (name-sorted) order.
        prop_assert_eq!(fwd.len(), rev.len());
        for (f, r) in fwd.iter().zip(&rev) {
            prop_assert_eq!(&f.metric, &r.metric);
            prop_assert_eq!(f.delta(), -r.delta(), "signed deltas must negate");
            prop_assert_eq!(
                f.significant, r.significant,
                "significance must not depend on diff direction ({})",
                f.metric
            );
        }
    }

    #[test]
    fn suspects_only_name_moved_metrics(
        prev in arb_snapshot(),
        new in arb_snapshot(),
    ) {
        let (_, diagnosis) = diff_snapshots("base", &prev, &new);
        for f in &diagnosis.findings {
            let (Some(ps), Some(ns)) = (prev.scenario(&f.scenario), new.scenario(&f.scenario))
            else {
                panic!("finding names scenario {} missing from a side", f.scenario);
            };
            for s in &f.suspects {
                // A suspect's readings must differ — forensics never
                // fingers something that did not move.
                prop_assert!(
                    s.prev != s.new || !s.detail.is_empty(),
                    "suspect {} did not move and carries no flip detail",
                    s.name
                );
                // And a virtual-metric suspect's readings must match the
                // snapshots it claims to come from.
                if let (Some(&pv), Some(&nv)) = (ps.virt.get(&s.name), ns.virt.get(&s.name)) {
                    prop_assert_eq!(s.prev, pv);
                    prop_assert_eq!(s.new, nv);
                }
            }
        }
    }
}
