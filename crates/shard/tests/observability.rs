//! Acceptance tests for the unified observability layer over the
//! sharded tier: a crash/recovery run must produce an `obs_report`
//! whose per-shard replay lag drains to zero, lifecycle spans whose
//! replayed prefix exactly matches the pre-crash delivery prefix, and
//! identical span fingerprints for identical runs.

use publishing_core::WorldBuilder;
use publishing_demos::ids::{Channel, ProcessId};
use publishing_demos::link::Link;
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_obs::span::check_replay_prefix;
use publishing_shard::{ShardTier, ShardedWorld};
use publishing_sim::time::SimTime;

fn registry() -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("slowping", || {
        let mut p = PingClient::new(25);
        p.think_ns = 2_000_000;
        Box::new(p)
    });
    reg
}

/// Spawns echo servers on node 2 with clients elsewhere, crashes node 2
/// mid-run, and drives to completion, tracking the maximum per-shard
/// replay lag observed at any step. Returns the world and that maximum.
fn crash_recovery_run() -> (ShardedWorld, u64, Vec<ProcessId>) {
    let mut w = ShardTier::world(WorldBuilder::new(3).registry(registry()), 4);
    let mut servers = Vec::new();
    let mut clients = Vec::new();
    for i in 0..4u32 {
        let server = w.spawn(2, "echo", vec![]).unwrap();
        let client = w
            .spawn(
                i % 2,
                "slowping",
                vec![Link::to(server, Channel::DEFAULT, 7)],
            )
            .unwrap();
        servers.push(server);
        clients.push(client);
    }
    w.run_until(SimTime::from_millis(50));
    w.crash_node(2);
    let deadline = SimTime::from_secs(40);
    let mut max_lag = 0u64;
    while w.now() < deadline && w.step() {
        for h in ShardTier::health(&w) {
            max_lag = max_lag.max(h.replay_lag);
        }
    }
    for c in &clients {
        let out = w.outputs_of(*c);
        assert_eq!(out.len(), 26, "client {c:?}: {out:?}");
    }
    (w, max_lag, servers)
}

#[test]
fn crash_recovery_report_shows_replay_lag_draining_to_zero() {
    let (w, max_lag, _) = crash_recovery_run();
    assert!(max_lag > 0, "replay lag should be visible mid-recovery");
    assert!(w.recoveries_completed() >= 4, "all four servers recover");

    let report = w.obs_report();
    for h in &report.shards {
        assert_eq!(
            h.replay_lag, 0,
            "shard {} replay lag must reach zero",
            h.shard
        );
        assert_eq!(
            h.recoveries_in_flight, 0,
            "no jobs left on shard {}",
            h.shard
        );
    }
    assert!(
        report
            .metrics
            .counter_value("shard/0/mgr/replayed")
            .is_some(),
        "manager metrics collected"
    );
    let total_replayed: u64 = (0..w.tier.shards.len())
        .filter_map(|i| {
            report
                .metrics
                .counter_value(&format!("shard/{i}/mgr/replayed"))
        })
        .sum();
    assert!(total_replayed > 0, "recovery replayed published messages");

    // The rendered artifact carries every section.
    let text = report.render_text();
    for section in [
        "shard health",
        "recovery lag",
        "stage latencies",
        "virtual-time profile",
        "medium",
    ] {
        assert!(
            text.contains(section),
            "missing section {section:?}:\n{text}"
        );
    }
    let json = report.render_json();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
}

#[test]
fn replayed_span_prefix_matches_pre_crash_prefix() {
    let (w, _, servers) = crash_recovery_run();
    // The crashed node's kernel span log holds the pre-crash Deliver
    // events and the post-crash Replay events; every replayed read
    // index must carry exactly the message first delivered there.
    let kernel = &w.kernels[2];
    let mut checked_total = 0;
    for server in servers {
        let checked = check_replay_prefix(kernel.spans(), server.as_u64())
            .unwrap_or_else(|e| panic!("replay prefix diverged for {server:?}: {e}"));
        checked_total += checked;
    }
    assert!(
        checked_total > 0,
        "at least one replayed message must be checked against the pre-crash prefix"
    );
}

#[test]
fn identical_runs_have_identical_obs_fingerprints() {
    let (a, _, _) = crash_recovery_run();
    let (b, _, _) = crash_recovery_run();
    assert_eq!(a.obs_fingerprint(), b.obs_fingerprint());
    assert_eq!(a.output_fingerprint(), b.output_fingerprint());
    let ra = a.obs_report();
    let rb = b.obs_report();
    assert_eq!(ra.span_fingerprint, rb.span_fingerprint);
    assert_eq!(ra.metrics.to_jsonl(), rb.metrics.to_jsonl());
}

#[test]
fn critical_path_attribution_sums_to_measured_recovery_lag() {
    let (w, _, _) = crash_recovery_run();
    let (crash, converged) = w
        .recovery_window()
        .expect("a crash/recovery run has a recovery window");
    let measured = converged.saturating_since(crash);
    assert!(measured.as_millis_f64() > 0.0, "recovery takes time");

    // The graph-level path telescopes exactly over the measured window.
    let g = w.causal_graph();
    g.validate()
        .expect("causal graph is acyclic and consistent");
    let cp = g
        .critical_path(crash, converged, None)
        .expect("critical path exists for a completed recovery");
    assert!(!cp.segments.is_empty(), "path must carry segments");
    assert_eq!(
        cp.total(),
        measured,
        "segment durations must sum exactly to the crash→convergence window"
    );

    // The report carries the same path, and every recovered process's
    // per-pid attribution telescopes to its own measured lag.
    let report = w.obs_report();
    assert_eq!(report.schema, publishing_obs::report::REPORT_SCHEMA_VERSION);
    let rcp = report.critical_path.as_ref().expect("report carries path");
    assert_eq!(rcp.total(), measured);
    assert!(
        report
            .metrics
            .gauge_value("critical_path/total_ms")
            .is_some(),
        "critical-path metrics filed in the registry"
    );
    let mut recovered_seen = 0;
    for lag in &report.recovery {
        if lag.recovery_ms > 0.0 {
            recovered_seen += 1;
            assert!(
                (lag.critical_path_ms - lag.recovery_ms).abs() < 1e-6,
                "pid {}: per-pid attribution {} must telescope to measured lag {}",
                lag.subject,
                lag.critical_path_ms,
                lag.recovery_ms
            );
        }
    }
    assert!(recovered_seen > 0, "recovered pids carry recovery_ms");
}
