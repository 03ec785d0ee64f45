//! A node crash on the CSMA/CD ethernet, single recorder tier.
//!
//! A station that goes down loses its backlog — including a frame it was
//! in the middle of transmitting. The medium used to deliver that frame
//! anyway when its `EndData` timer fired, and panicked on the empty
//! backlog (`frame in flight`): 68 of the 390 schedules `crash_node` at
//! {5, 10, 20, 30, 40, 60, 80, 120, 160, 200} ms × node {0, 1, 2} ×
//! seeds 1–13 did. The frame is truncated instead: nobody receives it,
//! no ack slots follow, the medium goes idle.

use publishing_chaos::driver::run_schedule;
use publishing_chaos::oracle::{self, Baseline, OracleOptions};
use publishing_chaos::scenario::{ChaosWorld, Medium, Scenario, Topology};
use publishing_chaos::schedule::FaultSchedule;

fn run(seed: u64, schedule: &str) -> Box<dyn ChaosWorld> {
    let mut scenario = Scenario::new(Topology::Single, seed);
    scenario.medium = Medium::Ethernet;
    let schedule: FaultSchedule = schedule.parse().expect("literal parses");
    let mut t = scenario.build();
    run_schedule(t.as_mut(), &schedule);
    t
}

/// The sweep, reduced to seeds 1–3 (of these 90 schedules 16 hit the
/// `frame in flight` panic before the fix). Whether each one also
/// *recovers* is not asserted: some lose a process whose creation
/// notice the recorder had not captured when its node crashed.
#[test]
fn no_crash_instant_panics_the_medium() {
    for seed in 1..=3 {
        for at in [5, 10, 20, 30, 40, 60, 80, 120, 160, 200] {
            for node in 0..3 {
                run(
                    seed,
                    &format!("seed={seed} horizon=2500ms crash_node@{at}ms#{node}"),
                );
            }
        }
    }
}

/// The smallest schedule that panicked, now recovered transparently:
/// every client prints what its fault-free twin prints.
#[test]
fn the_truncated_frame_is_recovered_transparently() {
    let twin = run(1, "seed=1 horizon=2500ms");
    let t = run(1, "seed=1 horizon=2500ms crash_node@160ms#1");
    assert!(t.recoveries_completed() > 0, "the crash was real");
    assert_eq!(t.convergence_failures(), Vec::<String>::new());
    assert_eq!(t.client_outputs(), twin.client_outputs());
    let baseline = Baseline::of(twin.as_ref());
    let failures = oracle::check(t.as_ref(), &baseline, &OracleOptions::default());
    assert_eq!(failures, Vec::<String>::new());
}

/// Node 0 crashes at 30 ms, before the recorder captured client `p0.2`'s
/// creation notice, and `p0.2` is never recreated: the open bug,
/// recorded here until a process's creation is published before it
/// runs. Before the process census the convergence failures were empty
/// and only the fault-free twin's outputs showed the loss; now the
/// census names the pid, so the world never settles and the run spends
/// the whole grace period.
#[test]
fn the_census_names_the_client_the_ethernet_loses() {
    let mut scenario = Scenario::new(Topology::Single, 1);
    scenario.medium = Medium::Ethernet;
    let schedule: FaultSchedule = "seed=1 horizon=2500ms crash_node@30ms#0"
        .parse()
        .expect("literal parses");
    let mut t = scenario.build();
    assert_eq!(run_schedule(t.as_mut(), &schedule), None, "grace expired");
    assert_eq!(
        t.recoveries_completed(),
        1,
        "one of the node's two processes"
    );
    assert_eq!(
        t.convergence_failures(),
        vec!["pid p0.2 lost: not on node 0's kernel and not destroyed".to_string()]
    );
}
