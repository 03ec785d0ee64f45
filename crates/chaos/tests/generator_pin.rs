//! The schedule generator, pinned: `fixtures/generated_schedules.txt` is
//! what `generate(&ChaosConfig::for_topology(t, seed))` printed for seeds
//! 0..64 on each topology before tier-member faults were folded into one
//! kind, with the quorum tier's group-qualified replica faults
//! (`…@T#0.i`) respelt `crash_recorder@T#i` / `restart_recorder@T#i`. The
//! generator's draw order is part of every seed's meaning (`lab chaos
//! --seed N`, the smoke gates), so it must reproduce the file line for
//! line.

use publishing_chaos::scenario::Topology;
use publishing_chaos::schedule::{generate, ChaosConfig};

#[test]
fn the_generator_reproduces_its_pinned_schedules() {
    let mut lines = include_str!("fixtures/generated_schedules.txt").lines();
    for topology in [Topology::Single, Topology::Sharded, Topology::Quorum] {
        for seed in 0..64u64 {
            let got = generate(&ChaosConfig::for_topology(topology, seed));
            assert_eq!(
                Some(format!("{topology} {seed}: {got}").as_str()),
                lines.next()
            );
        }
    }
    assert_eq!(lines.next(), None, "192 (topology, seed) pairs");
}
