//! Property tests for the causal explorer over real chaos runs: the
//! happens-before DAG built from any steady-state or crash schedule
//! must be acyclic and edge-consistent, its query surfaces must stay
//! total (no panics, no inconsistent answers) on whatever the schedule
//! generator throws at them, and every answer must match the reference
//! builder the flat graph replaced.

#[allow(dead_code)]
#[path = "../../obs/tests/support/causal_ref.rs"]
mod causal_ref;

use proptest::prelude::*;
use publishing_chaos::driver::run_schedule;
use publishing_chaos::scenario::{Scenario, Topology};
use publishing_chaos::schedule::{self, ChaosConfig};

fn config(topology: Topology, seed: u64, max_faults: usize) -> ChaosConfig {
    ChaosConfig {
        horizon_ms: 800,
        max_faults,
        ..ChaosConfig::for_topology(topology, seed)
    }
}

/// Runs one generated schedule and checks every causal-graph invariant:
/// `validate` (edges forward in node order, virtual-time monotone along
/// every edge, Kahn pass visits every node — i.e. acyclic), endpoints
/// in range, `explain` resolving for every key the graph knows, and
/// the same graph and answers as the reference builder.
fn check_schedule(topology: Topology, seed: u64, max_faults: usize) {
    let sched = schedule::generate(&config(topology, seed, max_faults));
    let mut t = Scenario::new(topology, seed).build();
    run_schedule(t.as_mut(), &sched);
    let g = t.causal_graph();
    prop_assert!(!g.is_empty(), "a run must record span events");
    if let Err(e) = g.validate() {
        panic!("schedule {sched}: invalid causal graph: {e}");
    }
    for e in g.edges() {
        prop_assert!(e.from < e.to, "edge {} -> {} not forward", e.from, e.to);
        prop_assert!(
            (e.to as usize) < g.len(),
            "edge endpoint {} out of range",
            e.to
        );
    }
    // Every key with at least one event must explain to a non-empty
    // ancestor cone ending at the queried key's latest event.
    let mut keys: Vec<_> = g.events().iter().map(|ev| ev.key).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let Some(ex) = g.explain(key) else {
            panic!("schedule {sched}: no explanation for {key}");
        };
        prop_assert_eq!(ex.target.key, key);
        // The chain always ends at the target itself; a root event has
        // an empty ancestor cone but never an empty chain.
        prop_assert!(!ex.chain.is_empty());
    }
    causal_ref::assert_matches_reference(&t.span_events());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Steady-state (fault-free) runs on both topologies.
    #[test]
    fn steady_state_graphs_are_acyclic_and_consistent(seed in 0u64..10_000) {
        check_schedule(Topology::Single, seed, 0);
        check_schedule(Topology::Sharded, seed, 0);
    }

    /// Crash/recovery runs with up to six faults on both topologies.
    #[test]
    fn crash_schedule_graphs_are_acyclic_and_consistent(seed in 0u64..10_000) {
        check_schedule(Topology::Single, seed, 6);
        check_schedule(Topology::Sharded, seed, 6);
    }

    /// The quorum world under replica-crash storms: the causal graph
    /// must stay acyclic and total through elections and failover.
    #[test]
    fn quorum_schedule_graphs_are_acyclic_and_consistent(seed in 0u64..10_000) {
        check_schedule(Topology::Quorum, seed, 4);
    }
}
