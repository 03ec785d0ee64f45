//! Property tests for the sharded tier: HRW shard-map stability under
//! membership changes, and crash/recovery output-equivalence for random
//! crash schedules under random shard counts.

use proptest::prelude::*;
use publishing_core::WorldBuilder;
use publishing_demos::ids::{Channel, ProcessId};
use publishing_demos::link::Link;
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_shard::{ShardId, ShardMap, ShardTier};
use publishing_sim::time::SimTime;
use std::collections::BTreeSet;

fn pid_set(raw: Vec<(u32, u32)>) -> Vec<ProcessId> {
    let set: BTreeSet<ProcessId> = raw
        .into_iter()
        .map(|(n, l)| ProcessId::new(n % 16, l % 4096 + 1))
        .collect();
    set.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Adding one shard moves only the pids the new shard claims — every
    /// moved pid's new owner is the added shard — and the number moved
    /// stays within the rendezvous bound of at most ⌈|P|/N⌉ pids (the
    /// expected share is |P|/(N+1); the assertion allows the usual
    /// concentration slack on top of the ceiling).
    #[test]
    fn adding_a_shard_is_minimally_disruptive(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 150..400),
        n in 2u32..8,
    ) {
        let pids = pid_set(raw);
        let before = ShardMap::new(n);
        let mut after = before.clone();
        after.add_shard(ShardId(n));
        let mut moved = 0usize;
        for &p in &pids {
            let old = before.owner(p).unwrap();
            let new = after.owner(p).unwrap();
            if new != old {
                prop_assert_eq!(new, ShardId(n), "a moved pid must move to the new shard");
                moved += 1;
            }
        }
        // moved ~ Binomial(|P|, 1/(N+1)): mean |P|/(N+1), plus three
        // standard deviations of slack so the bound is a real invariant
        // rather than a coin-flip on the drawn pid set.
        let expected = pids.len() as f64 / (n as f64 + 1.0);
        let bound = pids.len().div_ceil(n as usize) + (3.0 * expected.sqrt()).ceil() as usize;
        prop_assert!(
            moved <= bound,
            "moved {} of {} pids with {} shards (bound {})",
            moved, pids.len(), n, bound
        );
    }

    /// Removing one shard moves exactly the pids that shard owned —
    /// nothing else is disturbed — and their new owners are their
    /// next-ranked shards.
    #[test]
    fn removing_a_shard_moves_exactly_its_pids(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 150..400),
        n in 3u32..9,
        victim in any::<u32>(),
    ) {
        let pids = pid_set(raw);
        let victim = ShardId(victim % n);
        let before = ShardMap::new(n);
        let mut after = before.clone();
        after.remove_shard(victim);
        for &p in &pids {
            let old = before.owner(p).unwrap();
            let new = after.owner(p).unwrap();
            if old == victim {
                prop_assert_eq!(new, before.ranked(p)[1], "falls to the next-ranked shard");
            } else {
                prop_assert_eq!(new, old, "an unaffected pid must not move");
            }
        }
    }

    /// Liveness changes never alter log placement: `owner` is a pure
    /// function of membership, so a failover (dead shard) followed by a
    /// readmission restores exactly the original placement.
    #[test]
    fn failover_and_readmission_restore_placement(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 50..150),
        n in 2u32..8,
        victim in any::<u32>(),
    ) {
        let pids = pid_set(raw);
        let victim = ShardId(victim % n);
        let mut m = ShardMap::new(n);
        let placement: Vec<ShardId> = pids.iter().map(|&p| m.owner(p).unwrap()).collect();
        m.set_live(victim, false);
        for (&p, &was) in pids.iter().zip(&placement) {
            prop_assert_eq!(m.owner(p).unwrap(), was, "owner ignores liveness");
            let resp = m.responsible(p).unwrap();
            prop_assert!(resp != victim, "a dead shard is never responsible");
            if was != victim {
                prop_assert_eq!(resp, was, "live owners keep responsibility");
            }
        }
        m.set_live(victim, true);
        for (&p, &was) in pids.iter().zip(&placement) {
            prop_assert_eq!(m.responsible(p).unwrap(), was);
        }
    }

    /// The allocation-free ownership predicate answers exactly what the
    /// sorted capture set does, for every shard asking — live members,
    /// dead-but-member shards (which count themselves) and non-members —
    /// over random memberships, liveness, replication and pids.
    #[test]
    fn captures_equals_membership_in_own_capture_set(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 20..60),
        n in 1u32..9,
        removed in proptest::collection::vec(any::<u32>(), 0..3),
        dead in proptest::collection::vec(any::<u32>(), 0..4),
        r in 0usize..5,
    ) {
        let mut m = ShardMap::new(n);
        for s in removed {
            m.remove_shard(ShardId(s % n));
        }
        for s in dead {
            m.set_live(ShardId(s % n), false);
        }
        for p in pid_set(raw) {
            // 0..=n: every former and current member, plus one id that
            // never was one.
            for shard in (0..=n).map(ShardId) {
                prop_assert_eq!(
                    m.captures(shard, p, r),
                    m.capture_set_for(shard, p, r).contains(&shard),
                    "{:?} for {:?}, r {}, map {:?}",
                    shard, p, r, m
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The paper's equivalence theorem holds under sharding: for a
    /// FIFO-pair workload with a random crash schedule — a process crash
    /// at a random time, optionally followed by killing the shard that
    /// is driving the recovery — the recovered run's external output is
    /// bit-identical to the crash-free run's, for any shard count.
    #[test]
    fn crash_recovery_is_output_equivalent_under_sharding(
        n_shards in 1usize..5,
        crash_at_ms in 5u64..120,
        crash_client in any::<bool>(),
        kill_responsible_shard in any::<bool>(),
    ) {
        let run = |crash: bool| -> u64 {
            let mut reg = ProgramRegistry::new();
            programs::register_standard(&mut reg);
            reg.register("slowping", || {
                let mut p = PingClient::new(20);
                p.think_ns = 3_000_000;
                Box::new(p)
            });
            let mut w = ShardTier::world(WorldBuilder::new(2).registry(reg), n_shards);
            let server = w.spawn(1, "echo", vec![]).unwrap();
            let client = w
                .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
                .unwrap();
            if crash {
                w.run_until(SimTime::from_millis(crash_at_ms));
                let victim = if crash_client { client } else { server };
                w.crash_process(victim, "injected");
                // Killing the responsible shard needs a surviving backup.
                if kill_responsible_shard && n_shards >= 2 {
                    let resp = w.tier.router().with_map(|m| m.responsible(victim)).unwrap();
                    w.run_until(SimTime::from_millis(crash_at_ms + 2));
                    w.crash_member(resp.0 as usize);
                }
            }
            w.run_until(SimTime::from_secs(60));
            let out = w.outputs_of(client);
            assert_eq!(out.len(), 21, "{out:?}");
            assert_eq!(out.last().unwrap(), "done");
            w.output_fingerprint()
        };
        prop_assert_eq!(run(false), run(true));
    }
}
