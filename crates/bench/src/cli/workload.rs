//! `lab workload` — the workload gate: the closed-loop capacity search
//! as a CI check.
//!
//! - `--seed N` — base seed for the swept shapes (default 1);
//! - `--smoke` — small CI run: the flash-crowd shape only, search
//!   ceiling 16 users.
//!
//! For each swept shape the gate binary-searches the capacity knee on
//! every topology — each searched point judged against the default
//! SLOs *and* a seeded fault schedule through the chaos recovery
//! oracle — then re-runs the whole search and fails unless the second
//! pass reproduces the first exactly: same knee, same searched user
//! sequence, same per-point verdicts. A nondeterministic knee would
//! make the `lab compare` capacity gate flaky, so determinism is
//! itself the tested invariant. The single-recorder knee must also be
//! at least one user: the paper's medium sustains *some* load, and a
//! zero knee there means the stack regressed below it.

use super::{fail, Flags};
use publishing_chaos::Topology;
use publishing_obs::slo::SloSpec;
use publishing_workload::{canonical_shapes, find_knee, SearchParams, WorkloadSpec};

pub(super) const USAGE: &str = "[--seed N] [--smoke]";

/// One search pass reduced to its comparable skeleton.
fn skeleton(knee: &publishing_workload::Knee) -> (u32, Vec<(u32, bool)>) {
    (
        knee.knee_users,
        knee.trials.iter().map(|t| (t.users, t.pass)).collect(),
    )
}

fn gate(name: &str, spec: &WorkloadSpec, params: &SearchParams) -> Result<(), String> {
    for topo in [Topology::Single, Topology::Sharded, Topology::Quorum] {
        let first = find_knee(name, topo, spec, &SloSpec::default(), params);
        let second = find_knee(name, topo, spec, &SloSpec::default(), params);
        if skeleton(&first) != skeleton(&second) {
            return Err(format!(
                "[{name}/{topo}] knee search is not deterministic: \
                 {:?} vs {:?}",
                skeleton(&first),
                skeleton(&second)
            ));
        }
        if topo == Topology::Single && first.knee_users == 0 {
            return Err(format!(
                "[{name}/{topo}] zero capacity: even one user missed the SLOs \
                 ({})",
                first
                    .trials
                    .first()
                    .map(|t| t.violations.join("; "))
                    .unwrap_or_default()
            ));
        }
        println!(
            "[{name}/{topo}] knee={} users ({} trials, deterministic)",
            first.knee_users,
            first.trials.len()
        );
    }
    Ok(())
}

pub(super) fn run(flags: &Flags) {
    let smoke = flags.has("--smoke");
    let params = SearchParams {
        max_users: if smoke { 16 } else { 64 },
        ..SearchParams::default()
    };
    let mut swept = canonical_shapes(flags.parsed("--seed").unwrap_or(1));
    if smoke {
        swept.retain(|(n, _)| *n == "flash_crowd");
    }
    for (name, spec) in &swept {
        if let Err(e) = gate(name, spec, &params) {
            fail(1, e);
        }
    }
    println!("workload gate passed ({} shape(s))", swept.len());
}
