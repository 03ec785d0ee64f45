//! Golden behaviour pins: one fixed fault schedule per recorder tier ×
//! medium, asserted bit-for-bit. `bench_compare` treats fingerprint
//! changes as informational; this test does not — any change to the
//! world engine, a tier, or the chaos targets that moves a delivered
//! event, an output line or a span shows up here first.

use publishing_chaos::driver::run_schedule;
use publishing_chaos::scenario::{Medium, Scenario, Topology};
use publishing_chaos::schedule::FaultSchedule;

/// `(output_fingerprint, obs_fingerprint, recoveries_completed,
/// obs_report().sched.delivered, convergence_failures().is_empty())`.
type Golden = (u64, u64, u64, u64, bool);

/// The online watchdog's verdict, for the tier that runs one:
/// `obs_report().watchdog` as `(checks, violations)`. The check count
/// pins the scan cadence and the set of processes each scan covers.
type WatchdogRow = Option<(u64, Vec<String>)>;

const SEED: u64 = 21;

/// Single and sharded: the process and node crashes land while the ping
/// round-trips are in flight on the bus (done by ~50 ms) and before
/// most of them on the ethernet (80–1000 ms); the tier's own fault
/// follows mid-run. Quorum: the first process crash lands before any
/// leader exists (~150 ms), when no replica is the authority for it, so
/// its recovery waits in the world's hand-off for the first leader
/// whose term has settled. The other crashes come after the election,
/// and replica 2 — the leader this seed elects on both media — dies
/// while the node's recovery is in flight; its restart is left to the
/// end-of-horizon heal.
///
/// The sharded tier does not finish this workload on the contended
/// ethernet (DESIGN §15: it collapses on that medium for latency), and
/// the quorum tier does on this seed only (EXPERIMENTS.md has seeds
/// 1–24); those two rows pin the engine event for event all the same,
/// so only the bus rows also demand `done` and convergence.
///
/// Every world that finishes ends when it has settled (PR 25), so the
/// four rows that do carry the settle instant's span fingerprint and
/// event count — outputs, recoveries and verdicts as under the whole
/// grace period. The two ethernet rows that never settle run all of it
/// and are unchanged, except that the process census flips the sharded
/// one to not converged: `p0.1` is left recovering on node 0 and `p2.2`
/// is never recreated (`lab chaos --schedule 'topology=sharded
/// medium=ethernet seed=21 horizon=900ms crash_process@15ms#1
/// crash_node@30ms#2 add_shard@200ms crash_recorder@300ms#1
/// restart_recorder@450ms#1'`).
fn schedule(topology: Topology) -> &'static str {
    match topology {
        Topology::Single => {
            "seed=21 horizon=900ms crash_process@15ms#1 crash_node@30ms#2 \
             crash_recorder@300ms#0 restart_recorder@450ms#0"
        }
        Topology::Sharded => {
            "seed=21 horizon=900ms crash_process@15ms#1 crash_node@30ms#2 \
             add_shard@200ms crash_recorder@300ms#1 restart_recorder@450ms#1"
        }
        Topology::Quorum => {
            "seed=21 horizon=900ms crash_process@20ms#0 crash_process@260ms#1 \
             crash_node@300ms#2 crash_recorder@400ms#2"
        }
    }
}

fn run(topology: Topology, medium: Medium) -> (Golden, WatchdogRow) {
    let mut scenario = Scenario::new(topology, SEED);
    scenario.medium = medium;
    let sched: FaultSchedule = schedule(topology).parse().expect("literal parses");
    let mut t = scenario.build();
    run_schedule(t.as_mut(), &sched);
    if medium == Medium::Perfect {
        for (pid, lines) in t.client_outputs() {
            assert_eq!(
                lines.last().map(String::as_str),
                Some("done"),
                "{topology:?}: client {pid} unfinished: {lines:?}"
            );
        }
        assert_eq!(t.convergence_failures(), Vec::<String>::new());
    }
    let report = t.obs_report();
    (
        (
            t.output_fingerprint(),
            t.obs_fingerprint(),
            t.recoveries_completed(),
            report.sched.delivered,
            t.convergence_failures().is_empty(),
        ),
        report.watchdog.map(|w| (w.checks, w.violations)),
    )
}

/// The watchdog's verdict on the two quorum rows. Clean on the bus,
/// where the checks stop at the settle instant instead of 35 s later.
/// The ethernet row is one draw from a tier that rarely holds a leader
/// on that medium (EXPERIMENTS.md has seeds 1-24 of this schedule): it
/// pins the engine, not a verdict. This seed's draw happens to be clean.
fn watchdog_row(topology: Topology, medium: Medium) -> WatchdogRow {
    match (topology, medium) {
        (Topology::Quorum, Medium::Perfect) => Some((264, Vec::new())),
        (Topology::Quorum, Medium::Ethernet) => Some((10591, Vec::new())),
        _ => None,
    }
}

/// The event counts are scheduler entries, not receptions: since one
/// transmission's listeners share one entry (`World::with_lan`), they
/// are lower than when every listener had its own — 350 → 285, 1 672 →
/// 1 589, 1 260 → 501, 42 166 → 33 168, 1 075 → 588, 88 224 → 82 350 —
/// with every fingerprint, recovery count and verdict as before.
///
/// The quorum rows were re-pinned when recovery authority moved into the
/// world (`RecorderTier::authority`, DESIGN §8) and their schedule gained
/// the crash before the first election: on the bus, the same outputs
/// with one recovery more (that crash's), 588 → 710 events and 264 checks
/// still clean; on the ethernet, a different draw that now converges.
#[test]
fn every_tier_and_medium_matches_its_golden_row() {
    let rows: [(Topology, Medium, Golden); 6] = [
        (
            Topology::Single,
            Medium::Perfect,
            (0x97532fa7538daa12, 0x7c58eff4c8102f8e, 2, 285, true),
        ),
        (
            Topology::Single,
            Medium::Ethernet,
            (0x97532fa7538daa12, 0x526c091794a22379, 2, 1589, true),
        ),
        (
            Topology::Sharded,
            Medium::Perfect,
            (0x4aab1e967b3016f8, 0x907d6c8b84764117, 3, 501, true),
        ),
        (
            Topology::Sharded,
            Medium::Ethernet,
            (0xcbf29ce484222325, 0xc8ad0c0a07b37686, 2, 33168, false),
        ),
        (
            Topology::Quorum,
            Medium::Perfect,
            (0x4aab1e967b3016f8, 0x8417bd77c6217ca6, 4, 710, true),
        ),
        (
            Topology::Quorum,
            Medium::Ethernet,
            (0x676882546cc329bf, 0xd1e2e2a10137061d, 6, 86362, true),
        ),
    ];
    let mut wrong = Vec::new();
    for (topology, medium, want) in rows {
        let (got, watchdog) = run(topology, medium);
        let want_watchdog = watchdog_row(topology, medium);
        if watchdog != want_watchdog {
            wrong.push(format!(
                "watchdog of {topology:?} on {medium:?}: {watchdog:?}, not {want_watchdog:?}"
            ));
        }
        if got != want {
            wrong.push(format!(
                "(Topology::{topology:?}, Medium::{medium:?}, ({:#018x}, {:#018x}, {}, {}, {})),",
                got.0, got.1, got.2, got.3, got.4
            ));
        }
    }
    assert!(wrong.is_empty(), "golden rows moved:\n{}", wrong.join("\n"));
}
