//! Regression: a quorum replica that crashes and restarts mid-run keeps
//! its battery-backed records, then installs a leader snapshot covering
//! the same arrival sequences. Re-appending them used to panic
//! `duplicate record` in the stable store; the import now skips what
//! the store already holds. (hostbench/README.md, Known issues 2.)

use publishing_chaos::driver::run_schedule;
use publishing_chaos::oracle::{self, Baseline};
use publishing_chaos::{FaultSchedule, OracleOptions, Scenario, Topology};
use publishing_workload::{CompiledWorkload, WorkloadSpec};

const SPEC: &str = "users=12 subjects=4 seed=7 rate=25/s tick=20ms horizon=1500ms mix=92%x128/1024";
const SCHEDULE: &str = "seed=7 horizon=1500ms crash_recorder@500ms#0 restart_recorder@1200ms#0";

#[test]
fn restarted_replica_installs_a_snapshot_over_its_surviving_records() {
    let spec: WorkloadSpec = SPEC.parse().expect("spec literal parses");
    let source = CompiledWorkload::new(spec);
    let schedule: FaultSchedule = SCHEDULE.parse().expect("schedule literal parses");
    let scenario = Scenario::new(Topology::Quorum, schedule.workload_seed);

    let fault_free = FaultSchedule {
        faults: Vec::new(),
        ..schedule.clone()
    };
    let mut twin = scenario.build_with(&source);
    run_schedule(twin.as_mut(), &fault_free);
    let baseline = Baseline::of(twin.as_ref());

    let mut t = scenario.build_with(&source);
    run_schedule(t.as_mut(), &schedule);
    let clients = t.client_outputs();
    assert_eq!(clients.len(), 6);
    for (pid, lines) in &clients {
        assert_eq!(
            lines.last().map(String::as_str),
            Some("done"),
            "client {pid} did not finish: {lines:?}"
        );
    }
    assert_eq!(t.convergence_failures(), Vec::<String>::new());
    let failures = oracle::check(t.as_ref(), &baseline, &OracleOptions::default());
    assert!(
        failures.is_empty(),
        "oracle vs fault-free twin: {failures:#?}"
    );
}
