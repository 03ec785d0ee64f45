//! The five workloads: literals with a `seed=S` placeholder, the tier and
//! medium they run on, and how many worlds make one repetition.
//!
//! The program under test only ever sees the *instantiated* literals: a
//! sub-seed drawn from the `--seed` stream replaces `S`, and the result
//! goes through `WorkloadSpec::from_str` / `FaultSchedule::from_str` like
//! any user-written literal would.

use publishing_chaos::{Medium, Topology};

/// What one world of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One world driven through `run_schedule`.
    Run,
    /// One `find_knee` search (many short worlds) from 1 to [`MAX_USERS`].
    KneeSearch,
}

/// Upper end of the `knee_search` bracket.
pub const MAX_USERS: u32 = 256;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Run or search.
    pub kind: Kind,
    /// Recorder tier.
    pub topology: Topology,
    /// Broadcast medium.
    pub medium: Medium,
    /// Workload-spec literal; `S` stands for the sub-seed.
    pub spec: &'static str,
    /// Fault-schedule literal; `S` stands for the sub-seed. Fault-free
    /// workloads carry the empty schedule that drives to the horizon.
    pub schedule: &'static str,
    /// Worlds (or searches) per repetition, sized so a repetition times
    /// roughly 200 ms of work on the sizing box.
    pub per_rep: usize,
    /// Why the workload exists.
    pub why: &'static str,
}

impl Workload {
    /// Whether the schedule injects faults (and the world must therefore
    /// recover, and be judged against a fault-free twin).
    pub fn faulted(&self) -> bool {
        self.schedule.contains('@')
    }

    /// The spec and schedule literals for one sub-seed.
    pub fn literals(&self, sub_seed: u64) -> (String, String) {
        let seed = format!("seed={sub_seed}");
        (
            self.spec.replace("seed=S", &seed),
            self.schedule.replace("seed=S", &seed),
        )
    }

    /// The fault-free twin's schedule literal for one sub-seed: same
    /// seed and horizon, no faults.
    pub fn twin_schedule(&self, sub_seed: u64) -> String {
        let (_, sched) = self.literals(sub_seed);
        sched
            .split_whitespace()
            .filter(|tok| !tok.contains('@'))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "steady_bus",
        kind: Kind::Run,
        topology: Topology::Single,
        medium: Medium::Perfect,
        spec: "users=100 subjects=4 seed=S rate=5/s tick=50ms horizon=4000ms mix=92%x128/1024",
        schedule: "seed=S horizon=4000ms",
        per_rep: 8,
        why: "capture-only steady state at 0.7x the 141-user knee: ~10 events/msg at ~1 us each, \
              so kernel/transport/recorder dispatch and per-event allocation dominate; MAC and \
              replay do almost nothing",
    },
    Workload {
        name: "ether_contend",
        kind: Kind::Run,
        topology: Topology::Single,
        medium: Medium::Ethernet,
        spec: "users=12 subjects=2 seed=S rate=5/s tick=50ms horizon=1000ms mix=92%x128/1024",
        schedule: "seed=S horizon=1000ms",
        per_rep: 96,
        why: "timer-dense CSMA/CD medium: ~94 events/msg at ~0.4 us each, so scheduler push/pop \
              and net::ethernet backoff/collision handling dominate and the kernel does little \
              per event",
    },
    Workload {
        name: "shard_replay",
        kind: Kind::Run,
        topology: Topology::Sharded,
        medium: Medium::Perfect,
        spec: "users=60 subjects=4 seed=S rate=5/s tick=50ms horizon=2000ms mix=20%x128/1024",
        schedule: "seed=S horizon=2000ms crash_node@600ms#1 crash_process@1100ms#0",
        per_rep: 8,
        why: "80% 1 KiB messages fanned out to 6 stations plus stable-store pages, then recorder \
              reads (replay) beside writes: copies, store and recovery dominate; a capture-side \
              gain that slows replay shows here",
    },
    Workload {
        name: "quorum_replay",
        kind: Kind::Run,
        topology: Topology::Quorum,
        medium: Medium::Perfect,
        spec: "users=12 subjects=4 seed=S rate=25/s tick=20ms horizon=1500ms mix=92%x128/1024",
        schedule: "seed=S horizon=1500ms crash_node@900ms#1",
        per_rep: 1,
        why: "~265 events/msg of AppendEntries/heartbeat traffic through quorum::raft + codec: \
              the third world harness and the consensus path, untouched by the other four",
    },
    Workload {
        name: "knee_search",
        kind: Kind::KneeSearch,
        topology: Topology::Single,
        medium: Medium::Perfect,
        spec: "users=4 subjects=2 seed=S rate=5/s tick=50ms horizon=400ms mix=92%x128/1024",
        schedule: "seed=S horizon=400ms",
        per_rep: 6,
        why: "the user-facing capacity search (knee ~141): 16 short cold worlds from 1 to 256 \
              users, idle and overloaded, a report + SLO verdict each; parallel or reused trials \
              show here, steady-state tuning least",
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SplitMix64;
    use publishing_chaos::FaultSchedule;
    use publishing_workload::WorkloadSpec;

    #[test]
    fn same_seed_gives_the_same_literals() {
        for w in &ALL {
            let (mut a, mut b) = (SplitMix64::new(42), SplitMix64::new(42));
            for _ in 0..16 {
                assert_eq!(w.literals(a.next_u64()), w.literals(b.next_u64()));
            }
            let mut c = SplitMix64::new(43);
            assert_ne!(
                w.literals(SplitMix64::new(42).next_u64()),
                w.literals(c.next_u64())
            );
        }
    }

    #[test]
    fn instantiated_literals_parse_and_carry_the_sub_seed() {
        for w in &ALL {
            let sub = 0xdead_beef_0000_0001u64;
            let (spec, sched) = w.literals(sub);
            assert!(!spec.contains("seed=S") && !sched.contains("seed=S"));
            let spec: WorkloadSpec = spec.parse().expect(w.name);
            let sched: FaultSchedule = sched.parse().expect(w.name);
            assert_eq!(spec.seed, sub);
            assert_eq!(sched.workload_seed, sub);
            assert_eq!(sched.horizon_ms, spec.horizon_ms, "{}", w.name);
            assert_eq!(!sched.faults.is_empty(), w.faulted(), "{}", w.name);
            let twin: FaultSchedule = w.twin_schedule(sub).parse().expect(w.name);
            assert!(twin.faults.is_empty());
            assert_eq!(twin.horizon_ms, sched.horizon_ms);
        }
    }

    #[test]
    fn names_are_unique_and_found() {
        for w in &ALL {
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(by_name("nope").is_none());
    }
}
