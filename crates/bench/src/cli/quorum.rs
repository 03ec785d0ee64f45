//! `lab quorum` — the quorum gate: the replicated-recorder failover
//! scenario as a CI check.
//!
//! Two parts, both judged by the chaos recovery oracle (which, on the
//! quorum topology, folds in the consensus safety invariants — election
//! safety, log matching, state-machine safety, and gap/duplicate
//! freedom of the arrival sequence):
//!
//! 1. the **seeded leader-crash schedule** — a deterministic probe
//!    finds which replica leads while commits are in flight, the
//!    schedule kills exactly that replica mid-commit and then a
//!    processing node, and the run must converge with a *different*
//!    replica leading and the node's processes replayed by the
//!    survivors; it ends by printing what the group transmitted for
//!    that — consensus frames and log entries per sequenced message;
//! 2. `K` **generated schedules** (replica crash/restart storms, node
//!    crashes, medium bursts) that must all pass the oracle
//!    (`--schedules K`, default 10; `--smoke` makes it 3).
//!
//! `--seed N` seeds both parts (default 17).

use super::chaos::{run_suite, twin};
use super::{fail, Flags};
use publishing_chaos::driver::{run_schedule, Engine};
use publishing_chaos::oracle::{self, OracleOptions};
use publishing_chaos::scenario::{Scenario, Topology};
use publishing_chaos::schedule::{Fault, FaultSchedule};
use publishing_sim::time::SimTime;

pub(super) const USAGE: &str = "[--seed N] [--schedules K] [--smoke]";

/// The committed acceptance scenario: crash the leader mid-commit,
/// then a processing node; demand failover plus replica-served replay.
fn leader_crash_gate(seed: u64) -> Result<(), String> {
    let scenario = Scenario::new(Topology::Quorum, seed);
    let crash_at = 250;
    let old_leader = {
        let mut probe = scenario.build();
        probe.run_until(SimTime::from_millis(crash_at));
        probe
            .quorum_leader()
            .ok_or("no leader by the crash instant")? as u32
    };
    let sched = FaultSchedule {
        workload_seed: seed,
        horizon_ms: 1200,
        faults: vec![
            Fault::CrashRecorder {
                at_ms: crash_at,
                member: old_leader,
            },
            Fault::CrashNode {
                at_ms: 400,
                node: 2,
            },
        ],
    };
    let eng = Engine::new(scenario.clone(), OracleOptions::default())
        .map_err(|e| format!("baseline: {e}"))?;
    let mut t = scenario.build();
    run_schedule(t.as_mut(), &sched);
    let failures = oracle::check(t.as_ref(), eng.baseline(), &OracleOptions::default());
    if !failures.is_empty() {
        return Err(format!(
            "leader-crash schedule {} failed its oracle:\n  {}",
            scenario.reproducer(&sched),
            failures.join("\n  ")
        ));
    }
    let new_leader = t.quorum_leader().ok_or("leaderless after heal")? as u32;
    if new_leader == old_leader {
        return Err(format!(
            "replica {old_leader} still leads after its own crash"
        ));
    }
    if t.recoveries_completed() == 0 {
        return Err("node crash completed no recovery".into());
    }
    println!(
        "leader-crash gate: replica {old_leader} crashed at {crash_at}ms, \
         replica {new_leader} took over, {} recoveries completed ({})",
        t.recoveries_completed(),
        twin(&eng)
    );
    // What the group said to sequence that: every replica's frames and
    // the entries in them (heartbeats up to the settle instant included),
    // over the proposals the leaders saw commit.
    let report = t.obs_report();
    let sent = |what: &str| -> u64 {
        let of = |i| format!("quorum/{i}/consensus/{what}");
        let replicas = 0..report.quorum.len();
        replicas
            .filter_map(|i| report.metrics.counter_value(&of(i)))
            .sum()
    };
    let (frames, entries) = (sent("frames_sent"), sent("entries_sent"));
    let messages = report.consensus.as_ref().map_or(0, |c| c.commits).max(1);
    println!(
        "consensus traffic: {frames} frames and {entries} entries for {messages} sequenced \
         messages ({:.1} frames, {:.2} entries per message)",
        frames as f64 / messages as f64,
        entries as f64 / messages as f64
    );
    Ok(())
}

pub(super) fn run(flags: &Flags) {
    let seed = flags.parsed("--seed").unwrap_or(17u64);
    let schedules = flags
        .parsed("--schedules")
        .unwrap_or(if flags.has("--smoke") { 3u64 } else { 10 });
    let result = leader_crash_gate(seed)
        .and_then(|()| run_suite(Topology::Quorum, seed, schedules, "", "generated schedules"));
    if let Err(e) = result {
        fail(1, e);
    }
}
