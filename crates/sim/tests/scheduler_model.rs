//! Model-based property test: the event scheduler against a reference
//! implementation (a sorted map with explicit FIFO tie-breaking).

use proptest::prelude::*;
use publishing_sim::event::Scheduler;
use publishing_sim::time::SimTime;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + delta_ns` with payload = op index.
    Schedule(u64),
    /// Pop one event.
    Pop,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..1_000_000).prop_map(Op::Schedule),
        Just(Op::Pop),
        Just(Op::Pop), // bias toward popping so queues drain
    ]
}

proptest! {
    #[test]
    fn scheduler_matches_reference(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let mut sched: Scheduler<usize> = Scheduler::new();
        // Reference: (time, insertion counter) → payload.
        let mut model: BTreeMap<(SimTime, u64), usize> = BTreeMap::new();
        let mut counter = 0u64;

        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Schedule(delta) => {
                    let at = SimTime::from_nanos(sched.now().as_nanos() + delta);
                    sched.schedule_at(at, i);
                    model.insert((at, counter), i);
                    counter += 1;
                }
                Op::Pop => {
                    let expected = model.iter().next().map(|(k, v)| (*k, *v));
                    match (expected, sched.pop()) {
                        (None, None) => {}
                        (Some(((at, key_ctr), payload)), Some((t, got))) => {
                            prop_assert_eq!(t, at);
                            prop_assert_eq!(got, payload);
                            model.remove(&(at, key_ctr));
                        }
                        (e, g) => {
                            prop_assert!(false, "model {:?} vs sched {:?}", e, g.map(|x| x.0));
                        }
                    }
                }
            }
            prop_assert_eq!(sched.pending(), model.len());
        }
    }
}
