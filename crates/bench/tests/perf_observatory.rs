//! End-to-end tests for the perf observatory: bench-matrix determinism,
//! snapshot round-tripping, comparator gating, and Chrome-trace export
//! of a crash+replay run.

use publishing_bench::canonical::{self, Sizing};
use publishing_bench::perf_matrix::run_matrix;
use publishing_obs::span::Stage;
use publishing_perf::compare::{compare, default_rules};
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

/// The comparator passes a snapshot against itself and fails it against
/// a doctored copy whose delivery latency doubled.
#[test]
fn comparator_gates_an_injected_latency_regression() {
    let prev = run_matrix(true);
    let same = Snapshot::from_json(&prev.to_json()).unwrap();
    assert_eq!(compare(&prev, &same, &default_rules()).exit_code(), 0);

    let mut worse = Snapshot::from_json(&prev.to_json()).unwrap();
    for sc in &mut worse.scenarios {
        // The capacity scenario carries knees instead of latencies;
        // skip scenarios without the doctored metric.
        let Some(&v) = sc.virt.get("publish_to_deliver_us_p99") else {
            continue;
        };
        sc.virt("publish_to_deliver_us_p99", v * 2.0);
    }
    let c = compare(&prev, &worse, &default_rules());
    assert_eq!(c.exit_code(), 1, "{}", c.render());
    assert!(c.regressions().count() >= 4, "{}", c.render());
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
