//! End-to-end chaos engine tests: generated schedules pass the oracle
//! on every topology, literals replay deterministically, the driver
//! keeps its injection order at ties and at the horizon, a fault-free
//! run stops when its world has settled, and the shrinker reduces a real
//! failing run to a minimal reproducer.

use publishing_chaos::driver::{run_schedule, run_settled, Engine, GRACE_MS};
use publishing_chaos::oracle::OracleOptions;
use publishing_chaos::scenario::{
    ChaosWorld, Medium, PlanSpawn, Scenario, Topology, WorkloadSource,
};
use publishing_chaos::schedule::{self, ChaosConfig, Fault, FaultSchedule};
use publishing_demos::registry::ProgramRegistry;
use publishing_sim::time::SimTime;

fn engine(topology: Topology, seed: u64, opts: OracleOptions) -> Engine {
    Engine::new(Scenario::new(topology, seed), opts).expect("fault-free twin finishes")
}

fn config(topology: Topology, seed: u64) -> ChaosConfig {
    ChaosConfig {
        horizon_ms: 1000,
        max_faults: 6,
        ..ChaosConfig::for_topology(topology, seed)
    }
}

#[test]
fn generated_schedules_pass_the_oracle_on_the_single_world() {
    let eng = engine(Topology::Single, 11, OracleOptions::default());
    for k in 0..2u64 {
        let sched = schedule::generate(&ChaosConfig {
            seed: 11 * 100 + k,
            ..config(Topology::Single, 11)
        });
        let failures = eng.judge(&sched).1;
        assert!(
            failures.is_empty(),
            "schedule {sched}\nfailures: {failures:#?}"
        );
    }
}

#[test]
fn generated_schedules_pass_the_oracle_on_the_sharded_world() {
    let eng = engine(Topology::Sharded, 12, OracleOptions::default());
    for k in 0..2u64 {
        let sched = schedule::generate(&ChaosConfig {
            seed: 12 * 100 + k,
            ..config(Topology::Sharded, 12)
        });
        let failures = eng.judge(&sched).1;
        assert!(
            failures.is_empty(),
            "schedule {sched}\nfailures: {failures:#?}"
        );
    }
}

#[test]
fn generated_schedules_pass_the_oracle_on_the_quorum_world() {
    let eng = engine(Topology::Quorum, 16, OracleOptions::default());
    for k in 0..2u64 {
        let sched = schedule::generate(&ChaosConfig {
            seed: 16 * 100 + k,
            ..config(Topology::Quorum, 16)
        });
        let failures = eng.judge(&sched).1;
        assert!(
            failures.is_empty(),
            "schedule {sched}\nfailures: {failures:#?}"
        );
    }
}

/// The acceptance regression for replicated capture: a seeded schedule
/// kills the quorum leader while the workload's commits are in flight,
/// then kills a processing node. The surviving replicas must elect a
/// new leader, the arrival sequence must continue with no gap or
/// duplicate (the quorum safety oracles run inside the recovery
/// oracle), and the crashed node's processes must replay to completion
/// from a replica that was *not* the original leader.
#[test]
fn leader_crash_mid_commit_fails_over_and_a_former_follower_serves_replay() {
    let seed = 17;
    let scenario = Scenario::new(Topology::Quorum, seed);
    // Deterministic probe: with this seed, which replica leads while
    // the workload is still being sequenced?
    let crash_at = 250;
    let old_leader = {
        let mut t = scenario.build();
        t.run_until(SimTime::from_millis(crash_at));
        t.quorum_leader().expect("a leader by the crash instant") as u32
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
                at_ms: 300,
                node: 2,
            },
        ],
    };
    let eng = engine(Topology::Quorum, seed, OracleOptions::default());
    let failures = eng.judge(&sched).1;
    assert!(
        failures.is_empty(),
        "schedule {sched}\nfailures: {failures:#?}"
    );
    // Re-run outside the engine to inspect the world directly.
    let mut t = scenario.build();
    publishing_chaos::driver::run_schedule(t.as_mut(), &sched);
    let new_leader = t.quorum_leader().expect("post-failover leader") as u32;
    assert_ne!(
        new_leader, old_leader,
        "a former follower must lead after the crash"
    );
    assert!(
        t.recoveries_completed() >= 1,
        "the node crash must be recovered by the surviving replicas"
    );
}

#[test]
fn schedule_replay_is_deterministic() {
    // The same literal replayed twice produces bit-identical span logs.
    let eng = engine(Topology::Single, 13, OracleOptions::default());
    let sched = schedule::generate(&ChaosConfig {
        seed: 1303,
        ..config(Topology::Single, 13)
    });
    let lit = sched.to_string();
    let replayed: FaultSchedule = lit.parse().expect("own literal parses");
    assert_eq!(sched, replayed);
    let run = |s: &FaultSchedule| {
        let mut t = Scenario::new(Topology::Single, 13).build();
        publishing_chaos::driver::run_schedule(t.as_mut(), s);
        (t.obs_fingerprint(), t.output_fingerprint())
    };
    assert_eq!(run(&sched), run(&replayed));
    // And the run still satisfies the oracle.
    assert!(eng.judge(&replayed).1.is_empty());
}

/// The default scenario on the single world, seeded `seed`, after
/// `literal`.
fn replayed(seed: u64, literal: &str) -> Box<dyn ChaosWorld> {
    let sched: FaultSchedule = literal.parse().expect("literal parses");
    let mut t = Scenario::new(Topology::Single, seed).build();
    publishing_chaos::driver::run_schedule(t.as_mut(), &sched);
    t
}

/// `(obs_fingerprint, convergence_failures)` of [`replayed`] at seed 13.
fn single_run(literal: &str) -> (u64, Vec<String>) {
    let t = replayed(13, literal);
    (t.obs_fingerprint(), t.convergence_failures())
}

#[test]
fn a_fault_at_the_horizon_is_injected_before_the_heal() {
    let (fault_free, _) = single_run("seed=13 horizon=300ms");
    let (crashed, unconverged) = single_run("seed=13 horizon=300ms crash_recorder@300ms#0");
    // Injected: the run differs from the fault-free one. Before the
    // heal: the heal found the recorder down and restarted it.
    assert_ne!(crashed, fault_free);
    assert_eq!(unconverged, Vec::<String>::new());
}

#[test]
fn faults_at_one_instant_apply_in_list_order() {
    let (crash_only, _) = single_run("seed=13 horizon=300ms crash_recorder@20ms#0");
    // Restart first: a no-op on a recorder that is up, then the crash.
    let (restart_crash, _) =
        single_run("seed=13 horizon=300ms restart_recorder@20ms#0 crash_recorder@20ms#0");
    // Crash first: the restart finds it down and brings it straight back.
    let (crash_restart, _) =
        single_run("seed=13 horizon=300ms crash_recorder@20ms#0 restart_recorder@20ms#0");
    assert_eq!(restart_crash, crash_only);
    assert_ne!(crash_restart, crash_only);
}

/// `recovery_ms` is measured from the latest crash instant before the
/// recovery, so an injection that crashed nothing must not record one:
/// the echo server on node 1 recovers from the node crash at 100 ms
/// whether or not a later fault addresses what is already down.
#[test]
fn a_no_op_crash_injection_does_not_move_recovery_ms() {
    let recovery_ms = |literal: &str| -> Vec<(u64, f64)> {
        let report = replayed(1, literal).obs_report();
        report
            .recovery
            .iter()
            .filter(|l| l.recovery_ms > 0.0)
            .map(|l| (l.subject, l.recovery_ms))
            .collect()
    };
    let alone = recovery_ms("seed=1 horizon=1500ms crash_node@100ms#1");
    assert!(!alone.is_empty(), "the node crash recovers its processes");
    for no_op in [
        // Process 0 is the echo server on node 1: gone with its node.
        "seed=1 horizon=1500ms crash_node@100ms#1 crash_process@400ms#0",
        // Node 1 is still down at 300 ms.
        "seed=1 horizon=1500ms crash_node@100ms#1 crash_node@300ms#1",
    ] {
        assert_eq!(recovery_ms(no_op), alone, "{no_op}");
    }
}

#[test]
fn a_reproducer_names_its_world_and_round_trips() {
    for topology in [Topology::Single, Topology::Sharded, Topology::Quorum] {
        for medium in [Medium::Perfect, Medium::Ethernet] {
            let mut scenario = Scenario::new(topology, 1303);
            scenario.medium = medium;
            let sched = schedule::generate(&ChaosConfig::for_topology(topology, 1303));
            let lit = scenario.reproducer(&sched);
            assert!(
                lit.starts_with(&format!("topology={topology} medium={medium} seed=1303 ")),
                "{lit}"
            );
            let (back, replayed) = Scenario::from_reproducer(&lit).expect("own literal parses");
            assert_eq!(replayed, sched, "{lit}");
            assert_eq!(
                (back.topology, back.medium, back.workload_seed),
                (topology, medium, 1303)
            );
        }
    }
    // A bare schedule literal is a reproducer on the default world.
    let (bare, sched) = Scenario::from_reproducer("seed=5 horizon=100ms").expect("parses");
    assert_eq!(
        (bare.topology, bare.medium, bare.workload_seed),
        (Topology::Single, Medium::Perfect, 5)
    );
    assert!(sched.faults.is_empty());
    // A world that does not exist is named in the error.
    let err = Scenario::from_reproducer("topology=ring seed=5 horizon=100ms").unwrap_err();
    assert!(err.contains("ring"), "{err}");
    let err = Scenario::from_reproducer("medium=aether seed=5 horizon=100ms").unwrap_err();
    assert!(err.contains("aether"), "{err}");
}

/// A generated suite's schedule `k` is judged on a scenario seeded like
/// the schedule, so its reproducer literal rebuilds exactly that pair —
/// think times and the quorum's election seed included.
#[test]
fn a_suite_case_is_rebuilt_by_its_reproducer() {
    for topology in [Topology::Single, Topology::Sharded, Topology::Quorum] {
        for k in 0..8 {
            let (scenario, sched) = Scenario::suite_case(topology, 3, k);
            assert_eq!(scenario.workload_seed, 3000 + k);
            let lit = scenario.reproducer(&sched);
            let (back, replayed) = Scenario::from_reproducer(&lit).expect("own literal parses");
            assert_eq!(replayed, sched, "{lit}");
            assert_eq!(format!("{back:?}"), format!("{scenario:?}"), "{lit}");
        }
    }
}

#[test]
fn fault_injections_surface_as_metrics_counters() {
    let sched = FaultSchedule {
        workload_seed: 15,
        horizon_ms: 800,
        faults: vec![
            Fault::CrashRecorder {
                at_ms: 120,
                member: 0,
            },
            Fault::RestartRecorder {
                at_ms: 260,
                member: 0,
            },
            Fault::Loss {
                at_ms: 60,
                dur_ms: 120,
                p_pct: 10,
            },
            Fault::TornWrites { at_ms: 300 },
            Fault::DiskTransient {
                at_ms: 350,
                dur_ms: 150,
                p_pct: 40,
            },
        ],
    };
    for topology in [Topology::Single, Topology::Sharded] {
        let mut t = Scenario::new(topology, 15).build();
        publishing_chaos::driver::run_schedule(t.as_mut(), &sched);
        let reg = t.metrics();
        assert_eq!(
            reg.counter_value("chaos/injected/crash_recorder"),
            Some(1),
            "{topology:?}"
        );
        assert_eq!(
            reg.counter_value("chaos/injected/restart_recorder"),
            Some(1)
        );
        assert_eq!(reg.counter_value("chaos/injected/loss"), Some(1));
        assert_eq!(reg.counter_value("chaos/injected/torn_writes"), Some(1));
        assert_eq!(reg.counter_value("chaos/injected/disk_transient"), Some(1));
        // The disk-fault regimes feed the consumption counters; they are
        // filed even when the window happened to claim no I/O.
        assert!(reg.counter_value("chaos/disk/io_retries").is_some());
        assert!(reg.counter_value("chaos/disk/transient_errors").is_some());
        assert!(reg.counter_value("chaos/disk/torn_writes").is_some());
    }
}

#[test]
fn a_chaos_report_keeps_the_worlds_critical_path_metrics() {
    // The chaos counters join the registry the world's report built;
    // replacing it would drop the `critical_path/*` the world filed.
    let sched = FaultSchedule {
        workload_seed: 15,
        horizon_ms: 800,
        faults: vec![Fault::CrashNode {
            at_ms: 200,
            node: 1,
        }],
    };
    let mut t = Scenario::new(Topology::Single, 15).build();
    run_schedule(t.as_mut(), &sched);
    assert!(t.recoveries_completed() > 0, "the crash was recovered");
    let report = t.obs_report();
    let cp = report
        .critical_path
        .as_ref()
        .expect("a completed recovery has a path");
    assert_eq!(
        report.metrics.gauge_value("critical_path/total_ms"),
        Some(cp.total().as_millis_f64())
    );
    assert_eq!(
        report.metrics.counter_value("chaos/injected/crash_node"),
        Some(1)
    );
}

#[test]
fn injected_bug_shrinks_to_a_minimal_deterministic_reproducer() {
    // Self-test flag: the oracle treats any completed recovery as a
    // bug. A noisy multi-fault schedule must shrink to a reproducer of
    // at most 3 faults (in practice: the one crash that forces a
    // recovery), and the reproducer's literal must replay the failure.
    let opts = OracleOptions {
        fail_on_recovery: true,
    };
    let eng = engine(Topology::Single, 14, opts);
    let noisy = FaultSchedule {
        workload_seed: 14,
        horizon_ms: 800,
        faults: vec![
            Fault::Loss {
                at_ms: 60,
                dur_ms: 120,
                p_pct: 10,
            },
            Fault::Duplicate {
                at_ms: 100,
                dur_ms: 80,
                p_pct: 30,
            },
            Fault::CrashProcess {
                at_ms: 200,
                victim: 1,
            },
            Fault::TornWrites { at_ms: 300 },
            Fault::DiskTransient {
                at_ms: 350,
                dur_ms: 100,
                p_pct: 20,
            },
        ],
    };
    assert!(!eng.judge(&noisy).1.is_empty(), "noisy schedule must fail");
    let min = eng.shrink(&noisy);
    assert!(
        min.faults.len() <= 3,
        "reproducer not minimal: {} faults in {min}",
        min.faults.len()
    );
    // The minimal reproducer replays deterministically from its literal.
    let lit = min.to_string();
    let replayed: FaultSchedule = lit.parse().expect("literal parses");
    let f1 = eng.judge(&replayed).1;
    let f2 = eng.judge(&replayed).1;
    assert!(!f1.is_empty(), "reproducer must still fail: {lit}");
    assert_eq!(f1, f2, "reproducer must fail identically on replay");
}

#[test]
fn quorum_fault_schedule_shrinks_to_a_minimal_reproducer() {
    // Same self-test oracle, on the quorum world, with replica faults
    // as noise: leader churn alone completes no recovery, so the
    // shrinker must strip the replica crash/restart pairs and keep the
    // one fault that forces a recovery (the node crash).
    let opts = OracleOptions {
        fail_on_recovery: true,
    };
    let eng = engine(Topology::Quorum, 18, opts);
    let noisy = FaultSchedule {
        workload_seed: 18,
        horizon_ms: 900,
        faults: vec![
            Fault::CrashRecorder {
                at_ms: 120,
                member: 0,
            },
            Fault::RestartRecorder {
                at_ms: 260,
                member: 0,
            },
            Fault::Loss {
                at_ms: 80,
                dur_ms: 100,
                p_pct: 10,
            },
            Fault::CrashNode {
                at_ms: 350,
                node: 1,
            },
            Fault::CrashRecorder {
                at_ms: 400,
                member: 2,
            },
            Fault::RestartRecorder {
                at_ms: 520,
                member: 2,
            },
        ],
    };
    assert!(!eng.judge(&noisy).1.is_empty(), "noisy schedule must fail");
    let min = eng.shrink(&noisy);
    assert!(
        min.faults.len() <= 3,
        "reproducer not minimal: {} faults in {min}",
        min.faults.len()
    );
    assert!(
        min.faults
            .iter()
            .any(|f| matches!(f, Fault::CrashNode { .. } | Fault::CrashProcess { .. })),
        "the recovery-forcing crash must survive shrinking: {min}"
    );
    // What `lab chaos` would print names the quorum world and reads back
    // to the schedule the shrinker ended on.
    let lit = Scenario::new(Topology::Quorum, 18).reproducer(&min);
    let (world, replayed) = Scenario::from_reproducer(&lit).expect("literal parses");
    assert_eq!(
        (world.topology, &replayed),
        (Topology::Quorum, &min),
        "{lit}"
    );
    assert!(
        !eng.judge(&replayed).1.is_empty(),
        "reproducer replays: {lit}"
    );
}

/// A fault-free run that stops when its world has settled ends with the
/// client outputs of the run that sat out the whole grace period, well
/// before it, with the clock at the instant it reports.
#[test]
fn run_settled_stops_early_with_the_whole_grace_outputs() {
    for topology in [Topology::Single, Topology::Sharded, Topology::Quorum] {
        let scenario = Scenario::new(topology, 5);
        let mut settled = scenario.build();
        let after_ms = run_settled(settled.as_mut(), 300).expect("ping/echo finishes");
        assert!(after_ms < 1_000, "{topology}: settled +{after_ms} ms");
        assert!(settled.settled());
        assert_eq!(settled.obs_report().at_ms, (300 + after_ms) as f64);
        let mut whole = scenario.build();
        run_schedule(whole.as_mut(), &"seed=5 horizon=300ms".parse().unwrap());
        assert_eq!(settled.client_outputs(), whole.client_outputs());
        assert_eq!(settled.output_fingerprint(), whole.output_fingerprint());
    }
}

/// Ping clients talking to a sink that never answers.
struct Unanswered;

impl WorkloadSource for Unanswered {
    fn registry(&self) -> ProgramRegistry {
        Scenario::new(Topology::Single, 1)
            .default_source()
            .registry()
    }

    fn plan(&self) -> Vec<PlanSpawn> {
        let mut plan = Scenario::new(Topology::Single, 1).default_source().plan();
        for spawn in plan.iter_mut().filter(|s| !s.client) {
            spawn.program = "digest-sink".into();
        }
        plan
    }
}

/// The bound still binds: a world whose clients wait for ever is
/// quiescent and never settled — the driver runs out the grace period
/// and says so.
#[test]
fn a_client_left_waiting_keeps_the_world_unsettled_to_the_bound() {
    let mut world = Scenario::new(Topology::Single, 1).build_with(&Unanswered);
    assert_eq!(run_settled(world.as_mut(), 200), None);
    assert!(!world.settled());
    assert_eq!(world.obs_report().at_ms, (200 + GRACE_MS) as f64);
    assert!(world.convergence_failures().is_empty());
    for (pid, lines) in world.client_outputs() {
        assert!(lines.is_empty(), "{pid}: {lines:?}");
    }
}
