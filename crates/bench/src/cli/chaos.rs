//! `lab chaos` — the chaos gate: seeded fault schedules against the
//! single, sharded, and quorum recorder topologies, with automatic
//! shrinking of any failure to a replayable minimal reproducer.
//!
//! - `--seed N` — base seed for schedule generation (default 1);
//! - `--schedules K` — schedules per topology (default 25);
//! - `--smoke` — small CI run (5 schedules per topology unless
//!   `--schedules` says otherwise);
//! - `--schedule S` — replay one schedule literal (as printed for a
//!   minimized reproducer) instead of generating; runs on the single
//!   world unless the literal contains sharded or replica faults.
//!
//! Exit status is non-zero if any schedule fails its oracle; the
//! failing schedule is shrunk first and the minimal reproducer printed
//! as a `--schedule` literal.

use super::{fail, Flags};
use publishing_chaos::driver::Engine;
use publishing_chaos::oracle::OracleOptions;
use publishing_chaos::scenario::{Scenario, Topology};
use publishing_chaos::schedule::{self, ChaosConfig, Fault, FaultSchedule};

pub(super) const USAGE: &str = "[--seed N] [--schedules K] [--smoke] [--schedule S]";

/// Runs `schedules` generated fault schedules against `topology` through
/// the recovery oracle, every printed line behind `prefix`; the first
/// failure is shrunk to a minimal reproducer and returned as the error.
pub(super) fn run_suite(
    topology: Topology,
    seed: u64,
    schedules: u64,
    prefix: &str,
    noun: &str,
) -> Result<(), String> {
    let eng = Engine::new(Scenario::new(topology, seed), OracleOptions::default())
        .map_err(|e| format!("{prefix}baseline: {e}"))?;
    for k in 0..schedules {
        let sched = schedule::generate(&ChaosConfig::for_topology(
            topology,
            seed.wrapping_mul(1000).wrapping_add(k),
        ));
        let failures = eng.run(&sched);
        if failures.is_empty() {
            println!("{prefix}schedule {k}: ok ({} faults)", sched.faults.len());
            continue;
        }
        println!("{prefix}schedule {k}: FAILED");
        for f in &failures {
            println!("  - {f}");
        }
        println!("{prefix}shrinking...");
        let min = eng.shrink(&sched);
        return Err(format!(
            "{prefix}minimal reproducer ({} faults), replay with:\n  \
             lab chaos --schedule '{min}'",
            min.faults.len()
        ));
    }
    println!("{prefix}{schedules} {noun} passed");
    Ok(())
}

fn replay(lit: &str) -> Result<(), String> {
    let sched: FaultSchedule = lit.parse()?;
    let quorum = sched
        .faults
        .iter()
        .any(|f| matches!(f, Fault::CrashReplica { .. } | Fault::RestartReplica { .. }));
    let sharded = sched.faults.iter().any(|f| {
        matches!(f, Fault::AddShard { .. })
            || matches!(f, Fault::CrashRecorder { shard, .. } | Fault::RestartRecorder { shard, .. } if *shard > 0)
    });
    let topology = if quorum {
        Topology::Quorum
    } else if sharded {
        Topology::Sharded
    } else {
        Topology::Single
    };
    eprintln!("replaying on the {topology} world");
    let eng = Engine::new(
        Scenario::new(topology, sched.workload_seed),
        OracleOptions::default(),
    )
    .map_err(|e| format!("baseline: {e}"))?;
    let failures = eng.run(&sched);
    if failures.is_empty() {
        println!("schedule passed: {sched}");
        Ok(())
    } else {
        println!("schedule FAILED: {sched}");
        for f in &failures {
            println!("  - {f}");
        }
        Err("schedule failed its oracle".into())
    }
}

pub(super) fn run(flags: &Flags) {
    let seed = flags.parsed("--seed").unwrap_or(1u64);
    let schedules = flags
        .parsed("--schedules")
        .unwrap_or(if flags.has("--smoke") { 5u64 } else { 25 });
    let result = match flags.value("--schedule") {
        Some(lit) => replay(lit),
        None => [Topology::Single, Topology::Sharded, Topology::Quorum]
            .into_iter()
            .try_for_each(|t| run_suite(t, seed, schedules, &format!("[{t}] "), "schedules")),
    };
    if let Err(e) = result {
        fail(1, e);
    }
}
