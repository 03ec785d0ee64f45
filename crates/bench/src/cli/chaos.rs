//! `lab chaos` — the chaos gate: seeded fault schedules against the
//! single, sharded, and quorum recorder topologies, with automatic
//! shrinking of any failure to a replayable minimal reproducer.
//!
//! - `--seed N` — base seed (default 1): schedule `k` and the scenario
//!   it is judged on are both seeded `N·1000 + k`;
//! - `--schedules K` — schedules per topology (default 25);
//! - `--smoke` — small CI run (5 schedules per topology unless
//!   `--schedules` says otherwise);
//! - `--schedule S` — replay one reproducer literal instead of
//!   generating: `[topology=T] [medium=M] seed=N horizon=Hms` and the
//!   faults, as printed for a minimized reproducer. The literal names
//!   its world; without the tokens it is `single` on `perfect`. Given
//!   more than once, the literals replay in order.
//!
//! Every judged schedule prints when its run ended — `settled=+Xms` past
//! the horizon, or `grace expired` — and its fault-free twin's span
//! fingerprint (`twin 0x…`). Exit status is non-zero if any
//! schedule fails its oracle; a generated schedule that fails is shrunk
//! first and the minimal reproducer printed as a `--schedule` literal.

use super::{fail, Flags};
use publishing_chaos::driver::{ended, Engine};
use publishing_chaos::oracle::OracleOptions;
use publishing_chaos::scenario::{Scenario, Topology};

pub(super) const USAGE: &str = "[--seed N] [--schedules K] [--smoke] [--schedule S]";

/// The fault-free twin's span fingerprint, as every verdict prints it:
/// CI diffs it across two `lab smoke` runs.
pub(super) fn twin(eng: &Engine) -> String {
    format!("twin {:#018x}", eng.baseline().obs_fp)
}

/// Runs `schedules` generated fault schedules against `topology` through
/// the recovery oracle, every printed line behind `prefix`; the first
/// failure is shrunk to a minimal reproducer and returned as the error.
/// Schedule `k` is judged on the scenario seeded like the schedule
/// itself ([`Scenario::suite_case`]), so the reproducer replays it.
pub(super) fn run_suite(
    topology: Topology,
    seed: u64,
    schedules: u64,
    prefix: &str,
    noun: &str,
) -> Result<(), String> {
    for k in 0..schedules {
        let (scenario, sched) = Scenario::suite_case(topology, seed, k);
        let eng = Engine::new(scenario.clone(), OracleOptions::default())
            .map_err(|e| format!("{prefix}schedule {k}: baseline: {e}"))?;
        let (settled_ms, failures) = eng.judge(&sched);
        if failures.is_empty() {
            println!(
                "{prefix}schedule {k}: ok ({} faults, {}, {})",
                sched.faults.len(),
                ended(settled_ms),
                twin(&eng)
            );
            continue;
        }
        println!("{prefix}schedule {k}: FAILED ({})", twin(&eng));
        for f in &failures {
            println!("  - {f}");
        }
        println!("{prefix}shrinking...");
        let min = eng.shrink(&sched);
        return Err(format!(
            "{prefix}minimal reproducer ({} faults), replay with:\n  \
             lab chaos --schedule '{}'",
            min.faults.len(),
            scenario.reproducer(&min)
        ));
    }
    println!("{prefix}{schedules} {noun} passed");
    Ok(())
}

fn replay(lit: &str) -> Result<(), String> {
    let (scenario, sched) = Scenario::from_reproducer(lit)?;
    eprintln!(
        "replaying on the {} world, {} medium",
        scenario.topology, scenario.medium
    );
    let lit = scenario.reproducer(&sched);
    let eng =
        Engine::new(scenario, OracleOptions::default()).map_err(|e| format!("baseline: {e}"))?;
    let (settled_ms, failures) = eng.judge(&sched);
    let how = format!("{}, {}", ended(settled_ms), twin(&eng));
    if failures.is_empty() {
        println!("schedule passed ({how}): {lit}");
        Ok(())
    } else {
        println!("schedule FAILED ({how}): {lit}");
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
    let result = if flags.has("--schedule") {
        flags.values("--schedule").try_for_each(replay)
    } else {
        [Topology::Single, Topology::Sharded, Topology::Quorum]
            .into_iter()
            .try_for_each(|t| run_suite(t, seed, schedules, &format!("[{t}] "), "schedules"))
    };
    if let Err(e) = result {
        fail(1, e);
    }
}
