//! A faulted run ends when its recovery has finished: `run_schedule`
//! stops a schedule that injected anything at the first stride where the
//! world has settled, and that changes no verdict. The reference here
//! sits out the whole grace period — the same driver over a world that
//! never admits to having settled — and the two must agree on every
//! client's output, the output fingerprint, the recoveries completed and
//! the oracle's failures, on every schedule of the single-`crash_node`
//! sweep (seeds 1–3) on both media of the single tier and
//! the bus of the other two, and on generated schedules per tier.

use publishing_chaos::driver::{run_schedule, Engine, GRACE_MS};
use publishing_chaos::oracle::{self, Baseline, OracleOptions};
use publishing_chaos::scenario::{ChaosWorld, Medium, Scenario, Topology};
use publishing_chaos::schedule::{Fault, FaultSchedule};
use publishing_demos::ids::ProcessId;
use publishing_obs::registry::MetricsRegistry;
use publishing_obs::report::ObsReport;
use publishing_obs::span::SpanEvent;
use publishing_sim::fault::FaultPlan;
use publishing_sim::time::SimTime;
use publishing_stable::disk::DiskFaults;

/// A world that never says it has settled, so `run_schedule` runs it to
/// the bound: the whole-grace reference.
struct WholeGrace(Box<dyn ChaosWorld>);

impl ChaosWorld for WholeGrace {
    fn run_before(&mut self, t: SimTime) {
        self.0.run_before(t);
    }
    fn run_until(&mut self, deadline: SimTime) {
        self.0.run_until(deadline);
    }
    fn inject(&mut self, fault: &Fault) {
        self.0.inject(fault);
    }
    fn set_medium_faults(&mut self, plan: FaultPlan) {
        self.0.set_medium_faults(plan);
    }
    fn set_disk_faults(&mut self, faults: DiskFaults) {
        self.0.set_disk_faults(faults);
    }
    fn heal(&mut self) {
        self.0.heal();
    }
    fn settled(&self) -> bool {
        false
    }
    fn output_fingerprint(&self) -> u64 {
        self.0.output_fingerprint()
    }
    fn obs_fingerprint(&self) -> u64 {
        self.0.obs_fingerprint()
    }
    fn client_outputs(&self) -> Vec<(ProcessId, Vec<String>)> {
        self.0.client_outputs()
    }
    fn convergence_failures(&self) -> Vec<String> {
        self.0.convergence_failures()
    }
    fn replay_prefix_failures(&self) -> Vec<String> {
        self.0.replay_prefix_failures()
    }
    fn suppression_failures(&self) -> Vec<String> {
        self.0.suppression_failures()
    }
    fn recoveries_completed(&self) -> u64 {
        self.0.recoveries_completed()
    }
    fn metrics(&self) -> MetricsRegistry {
        self.0.metrics()
    }
    fn obs_report(&self) -> ObsReport {
        self.0.obs_report()
    }
    fn span_events(&self) -> Vec<Vec<SpanEvent>> {
        self.0.span_events()
    }
    fn quorum_leader(&self) -> Option<usize> {
        self.0.quorum_leader()
    }
}

/// What the two runs must agree on.
type Verdict = (Vec<(ProcessId, Vec<String>)>, u64, u64, Vec<String>);

fn verdict(t: &dyn ChaosWorld, baseline: &Baseline) -> Verdict {
    (
        t.client_outputs(),
        t.output_fingerprint(),
        t.recoveries_completed(),
        oracle::check(t, baseline, &OracleOptions::default()),
    )
}

/// Runs `schedule` on `scenario` settling and whole-grace, asserts they
/// agree, and returns when the settling run ended.
fn compare(scenario: &Scenario, baseline: &Baseline, schedule: &FaultSchedule) -> Option<u64> {
    let lit = scenario.reproducer(schedule);
    let mut settling = scenario.build();
    let settled_ms = run_schedule(settling.as_mut(), schedule);
    let mut whole = WholeGrace(scenario.build());
    assert_eq!(run_schedule(&mut whole, schedule), None);
    let got = verdict(settling.as_ref(), baseline);
    assert!(
        got == verdict(&whole, baseline),
        "{lit}: settling and whole-grace runs differ"
    );
    match settled_ms {
        Some(ms) => assert!(settling.settled() && ms < GRACE_MS, "{lit}"),
        None => {
            let end = (schedule.horizon_ms + GRACE_MS) as f64;
            assert_eq!(settling.obs_report().at_ms, end, "{lit}: ran to the bound");
        }
    }
    let unfinished = got
        .0
        .iter()
        .any(|(_, l)| l.last().map(String::as_str) != Some("done"));
    if unfinished {
        assert_eq!(settled_ms, None, "{lit}: a client never finished");
    }
    settled_ms
}

fn baseline(scenario: &Scenario) -> Baseline {
    let engine = Engine::new(scenario.clone(), OracleOptions::default());
    engine.expect("fault-free twin finishes").baseline().clone()
}

/// `(settled early, ran to the bound)` over the single-`crash_node`
/// sweep on one world, seeds 1–3.
fn sweep(topology: Topology, medium: Medium) -> (u32, u32) {
    let mut counts = (0, 0);
    for seed in 1..=3 {
        let mut scenario = Scenario::new(topology, seed);
        scenario.medium = medium;
        let baseline = baseline(&scenario);
        for at in [5, 10, 20, 30, 40, 60, 80, 120, 160, 200] {
            for node in 0..3 {
                let lit = format!("seed={seed} horizon=2500ms crash_node@{at}ms#{node}");
                match compare(&scenario, &baseline, &lit.parse().unwrap()) {
                    Some(_) => counts.0 += 1,
                    None => counts.1 += 1,
                }
            }
        }
    }
    counts
}

#[test]
fn crash_node_sweep_single_perfect() {
    assert_eq!(sweep(Topology::Single, Medium::Perfect), (90, 0));
}

/// The ethernet loses a process in some of these (one whose creation
/// notice was not captured before its node crashed); the census keeps
/// those worlds unsettled, so they run to the bound.
#[test]
fn crash_node_sweep_single_ethernet() {
    let (early, bound) = sweep(Topology::Single, Medium::Ethernet);
    assert_eq!(early + bound, 90);
    assert!(early > 0 && bound > 0, "{early} settled, {bound} ran out");
}

#[test]
fn crash_node_sweep_sharded_perfect() {
    assert_eq!(sweep(Topology::Sharded, Medium::Perfect), (90, 0));
}

#[test]
fn crash_node_sweep_quorum_perfect() {
    assert_eq!(sweep(Topology::Quorum, Medium::Perfect), (90, 0));
}

/// Sixteen schedules of the generated suite per tier, each on the
/// scenario `lab chaos` judges it on.
#[test]
fn generated_schedules_agree_on_every_tier() {
    for topology in [Topology::Single, Topology::Sharded, Topology::Quorum] {
        for k in 0..16 {
            let (scenario, schedule) = Scenario::suite_case(topology, 1, k);
            compare(&scenario, &baseline(&scenario), &schedule);
        }
    }
}
