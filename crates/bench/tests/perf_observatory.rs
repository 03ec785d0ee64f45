//! End-to-end tests for the perf observatory: bench-matrix determinism,
//! snapshot round-tripping, the exact differ on doctored and committed
//! snapshots, and Chrome-trace export of a crash+replay run.

use publishing_bench::canonical::{self, Sizing};
use publishing_bench::perf_matrix::run_matrix;
use publishing_obs::span::Stage;
use publishing_perf::compare::{compare, Comparison};
use publishing_perf::snapshot::Snapshot;
use publishing_perf::trace::ChromeTrace;

/// Two matrix runs at the same seed must write byte-identical artifacts:
/// every metric is a virtual-time metric, and virtual time replays.
#[test]
fn bench_matrix_virtual_metrics_are_deterministic() {
    let a = run_matrix(true);
    let b = run_matrix(true);
    assert_eq!(a.to_json(), b.to_json());
}

/// The snapshot survives its own JSON.
#[test]
fn snapshot_round_trips_through_json() {
    let snap = run_matrix(true);
    let text = snap.to_json();
    let back = Snapshot::from_json(&text).expect("own output parses");
    assert_eq!(text, back.to_json());
}

/// The differ passes a snapshot against itself and, against a doctored
/// copy whose delivery latency doubled, lists that metric in every
/// scenario that carries it.
#[test]
fn compare_lists_every_scenario_a_doubled_latency_moved() {
    let prev = run_matrix(true);
    let same = Snapshot::from_json(&prev.to_json()).unwrap();
    assert_eq!(compare(&prev, &same).exit_code(), 0);

    let metric = "publish_to_deliver_us_p99";
    let mut worse = same;
    let mut doubled = Vec::new();
    for sc in &mut worse.scenarios {
        if let Some(v) = sc.virt.get_mut(metric) {
            assert!(*v > 0.0, "{}: a latency scenario delivers", sc.name);
            *v *= 2.0;
            doubled.push(sc.name.clone());
        }
    }
    let c = compare(&prev, &worse);
    assert_eq!(c.exit_code(), 1, "{}", c.render());
    let moved: Vec<(&str, &str)> = c
        .metrics
        .iter()
        .map(|d| (d.scenario.as_str(), d.name.as_str()))
        .collect();
    let want: Vec<(&str, &str)> = doubled.iter().map(|s| (s.as_str(), metric)).collect();
    assert!(want.len() >= 4, "{}", c.render());
    assert_eq!(moved, want, "{}", c.render());
}

fn committed(n: u32) -> Snapshot {
    let path = format!("{}/../../perf/BENCH_{n}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Snapshot::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e:?}"))
}

/// An entry only one side has is a difference `cmp` sees, so it moves:
/// an extra metric, a dropped fingerprint, an extra scenario.
#[test]
fn one_sided_entries_of_the_baseline_move() {
    let base = committed(5);
    let mut extra_metric = base.clone();
    extra_metric.scenarios[0].virt("spans_invented", 0.0);
    let mut dropped_fingerprint = base.clone();
    let name = dropped_fingerprint.scenarios[0]
        .fingerprints
        .pop_first()
        .expect("a scenario carries fingerprints")
        .0;
    let mut extra_scenario = base.clone();
    let mut twin = base.scenarios[0].clone();
    twin.name = "steady_state_twin".into();
    extra_scenario.scenarios.push(twin);

    for (new, side, what) in [
        (&extra_metric, "only in new", "spans_invented"),
        (&dropped_fingerprint, "only in prev", name.as_str()),
        (&extra_scenario, "only in new", "steady_state_twin/"),
    ] {
        let c = compare(&base, new);
        let text = c.render();
        assert_eq!(c.exit_code(), 1, "{text}");
        assert!(
            text.lines().any(|l| l.contains(what) && l.contains(side)),
            "{text}"
        );
    }
}

/// `lab compare` agrees with `cmp` on the committed history: each
/// baseline against itself moves nothing, and each intended change moves
/// exactly what it moved.
#[test]
fn compare_pins_the_committed_history() {
    let history: Vec<Snapshot> = (1..=5).map(committed).collect();
    for snap in &history {
        assert_eq!(compare(snap, snap).exit_code(), 0);
    }
    let moves: Vec<Comparison> = history
        .windows(2)
        .map(|pair| compare(&pair[0], &pair[1]))
        .collect();
    let counts: Vec<(i32, usize, usize)> = moves
        .iter()
        .map(|c| (c.exit_code(), c.metrics.len(), c.fingerprints.len()))
        .collect();
    assert_eq!(counts, [(1, 45, 2), (1, 2, 1), (1, 11, 1), (1, 22, 0)]);
    // The scheduler-entry change behind BENCH_5 moved the scheduler
    // counters and nothing else.
    let mut names: Vec<&str> = moves[3].metrics.iter().map(|d| d.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names,
        [
            "events_delivered",
            "events_per_virtual_sec",
            "events_scheduled",
            "peak_sched_pending"
        ]
    );
}

/// Chrome-trace export of a crash+replay run: covers every lifecycle
/// stage the run exercises (publish through replay), carries one
/// process-name row per component, and round-trips through its own JSON
/// without loss.
#[test]
fn crash_replay_trace_covers_lifecycle_stages_and_round_trips() {
    let p = Sizing::new(true);
    let (mut w, _) = canonical::ping_world(&p, None);
    canonical::crash_server_node(&mut w, p.horizon);
    let t = canonical::chrome_trace(&w, "shard");

    for stage in [
        Stage::Publish,
        Stage::Capture,
        Stage::Sequence,
        Stage::Deliver,
        Stage::Replay,
    ] {
        assert!(t.has_stage(stage), "missing lifecycle stage {stage:?}");
    }
    // One metadata row per component plus the message-lifecycle lane.
    assert_eq!(t.count_phase('M'), w.span_logs().count() + 1);
    // Stage-gap slices exist (publish→capture etc.).
    assert!(t.count_phase('X') > 0);

    let text = t.to_json();
    let back = ChromeTrace::from_json(&text).expect("own output parses");
    assert_eq!(text, back.to_json(), "trace JSON round-trip lost data");
    assert_eq!(t.events.len(), back.events.len());
}
