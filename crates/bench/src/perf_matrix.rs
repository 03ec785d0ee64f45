//! The perf-observatory scenario matrix behind `lab bench`.
//!
//! Eight canonical scenarios at fixed seeds — fault-free steady state,
//! crash+replay, mid-run shard rebalance, one generated chaos schedule,
//! the quorum sweep, observability overhead, and the capacity and lens
//! searches — each reduced to a [`ScenarioSnapshot`] of virtual-time
//! metrics and output/span fingerprints. Everything is deterministic:
//! [`run_matrix`] twice at the same mode yields byte-identical
//! `Snapshot::to_json`.

use crate::canonical::{self, Sizing};
use publishing_chaos::driver::run_schedule;
use publishing_chaos::scenario::{Scenario, Topology};
use publishing_chaos::schedule::{self, ChaosConfig};
use publishing_core::WorldBuilder;
use publishing_perf::snapshot::{scenario_from_report, ScenarioSnapshot, Snapshot};
use publishing_quorum::QuorumTier;
use publishing_shard::{ShardTier, ShardedWorld};
use publishing_sim::fault::FaultPlan;
use publishing_sim::time::SimTime;

fn build_world(p: &Sizing) -> ShardedWorld {
    canonical::ping_world(p, None).0
}

fn steady_state(p: &Sizing) -> ScenarioSnapshot {
    let mut w = build_world(p);
    w.run_until(p.horizon);
    let mut s = scenario_from_report("steady_state", &w.obs_report());
    s.fingerprint("output", w.output_fingerprint());
    s.virt("recoveries_completed", w.recoveries_completed() as f64);
    s
}

fn crash_replay(p: &Sizing) -> ScenarioSnapshot {
    let mut w = build_world(p);
    canonical::crash_server_node(&mut w, p.horizon);
    let mut s = scenario_from_report("crash_replay", &w.obs_report());
    s.fingerprint("output", w.output_fingerprint());
    s.virt("recoveries_completed", w.recoveries_completed() as f64);
    s
}

fn rebalance(p: &Sizing) -> ScenarioSnapshot {
    let mut w = build_world(p);
    w.run_until(SimTime::from_millis(40));
    ShardTier::add_shard(&mut w);
    w.run_until(p.horizon);
    let mut s = scenario_from_report("rebalance", &w.obs_report());
    s.fingerprint("output", w.output_fingerprint());
    s.virt("shards", w.tier.shards.len() as f64);
    s
}

fn chaos_smoke(p: &Sizing) -> ScenarioSnapshot {
    let sched = schedule::generate(&ChaosConfig {
        horizon_ms: p.chaos_horizon_ms,
        max_faults: p.chaos_faults,
        ..ChaosConfig::for_topology(Topology::Sharded, 42)
    });
    let mut t = Scenario::new(Topology::Sharded, 42).build();
    run_schedule(t.as_mut(), &sched);
    let mut s = scenario_from_report("chaos_smoke", &t.obs_report());
    s.fingerprint("output", t.output_fingerprint());
    s.virt("faults_injected", sched.faults.len() as f64);
    s.virt("recoveries_completed", t.recoveries_completed() as f64);
    s
}

/// The quorum sequencing sweep: group size 1/3/5 × frame-loss rate,
/// one ping/echo workload each. Per combination the snapshot carries
/// the virtual completion time (consensus commit latency shows up
/// directly here), the quorum-sequenced arrival count, and how many
/// elections the group needed — the cost surface of replicated capture.
fn quorum_sweep(p: &Sizing) -> ScenarioSnapshot {
    let mut entries: Vec<(String, f64)> = Vec::new();
    let mut last_report = None;
    let mut output_fp = 0u64;
    for &replicas in &[1usize, 3, 5] {
        for &loss_pct in &[0u32, 10] {
            let builder = WorldBuilder::new(3).registry(canonical::registry(p.pings));
            let mut w = QuorumTier::world(builder, replicas, 42);
            w.lan
                .set_faults(FaultPlan::new().with_frame_loss(f64::from(loss_pct) / 100.0));
            let (_, clients) = canonical::spawn_pairs(&mut w, p.pairs, 2);
            w.run_until(p.horizon);
            let done_at = clients
                .iter()
                .filter_map(|&c| {
                    w.outputs
                        .iter()
                        .filter(|o| o.pid == c && o.bytes == b"done")
                        .map(|o| o.at)
                        .next()
                })
                .max();
            let key = format!("r{replicas}_loss{loss_pct}");
            entries.push((
                format!("{key}/done_ms"),
                done_at.map_or(-1.0, |t| t.as_millis_f64()),
            ));
            entries.push((format!("{key}/sequenced"), w.tier.sequenced_total() as f64));
            entries.push((
                format!("{key}/elections"),
                w.tier
                    .quorum_health()
                    .iter()
                    .map(|h| h.elections)
                    .sum::<u64>() as f64,
            ));
            assert!(
                w.tier.quorum_invariant_failures().is_empty(),
                "quorum invariants must hold in the sweep"
            );
            output_fp ^= w
                .output_fingerprint()
                .rotate_left((replicas as u32) * 7 + loss_pct);
            last_report = Some(w.obs_report());
        }
    }
    // The report-derived metrics come from the largest combination
    // (5 replicas, lossy medium) — the worst case the gate watches.
    let mut s = scenario_from_report(
        "quorum_sweep",
        &last_report.expect("the sweep ran at least one combination"),
    );
    for (k, v) in entries {
        s.virt(k, v);
    }
    s.fingerprint("output", output_fp);
    s
}

/// The observability-overhead scenario, in two halves.
///
/// **Storage**: every span event the steady-state world recorded is
/// replayed, in order, into the legacy row-oriented ring and into the
/// columnar store that replaced it. Both must agree on the fingerprint
/// and on the happens-before DAG built from their event streams, and
/// the columnar store must retain the same events in at least 3x less
/// steady-state memory.
///
/// **Tracing tax**: the same workload runs once instrumented and once
/// with spans disabled (capacity 0); the workload's outputs must be
/// identical either way (observability never perturbs the run).
fn obs_overhead(p: &Sizing) -> ScenarioSnapshot {
    use publishing_obs::causal::CausalGraph;
    use publishing_obs::span::SpanLog;
    use publishing_obs::RowSpanLog;

    let mut w = build_world(p);
    w.run_until(p.horizon);

    let logs: Vec<_> = w.span_logs().collect();
    let events: Vec<Vec<_>> = logs.iter().map(|l| l.events().collect()).collect();
    for l in &logs {
        assert_eq!(
            l.dropped(),
            0,
            "overhead workload must fit in the span ring"
        );
    }

    let mut rows: Vec<RowSpanLog> = Vec::new();
    for stream in &events {
        let mut log = RowSpanLog::new(publishing_obs::span::DEFAULT_SPAN_CAPACITY);
        for e in stream {
            log.record(e.at, e.key, e.stage, e.subject, e.aux);
        }
        rows.push(log);
    }

    let mut cols: Vec<SpanLog> = Vec::new();
    for stream in &events {
        let mut log = SpanLog::new(publishing_obs::span::DEFAULT_SPAN_CAPACITY);
        for e in stream {
            log.record(e.at, e.key, e.stage, e.subject, e.aux);
        }
        cols.push(log);
    }

    let row_bytes: usize = rows.iter().map(|l| l.retained_bytes()).sum();
    let col_bytes: usize = cols.iter().map(|l| l.retained_bytes()).sum();
    for ((row, col), orig) in rows.iter().zip(&cols).zip(&logs) {
        assert_eq!(row.fingerprint(), orig.fingerprint());
        assert_eq!(col.fingerprint(), orig.fingerprint());
    }
    let row_events: Vec<Vec<_>> = rows.iter().map(|l| l.events().collect()).collect();
    let col_events: Vec<Vec<_>> = cols.iter().map(|l| l.events().collect()).collect();
    assert_eq!(
        CausalGraph::from_event_lists(&row_events).to_dot(),
        CausalGraph::from_event_lists(&col_events).to_dot(),
        "row and columnar stores must reconstruct the same causal DAG"
    );
    let ratio = row_bytes as f64 / col_bytes as f64;
    assert!(
        ratio >= 3.0,
        "columnar store must cut steady-state span memory 3x (got {ratio:.2}x)"
    );

    let mut off = build_world(p);
    off.set_span_capacity(0);
    off.run_until(p.horizon);
    assert_eq!(
        w.output_fingerprint(),
        off.output_fingerprint(),
        "disabling span retention must not perturb the workload"
    );
    assert_eq!(
        w.obs_fingerprint(),
        off.obs_fingerprint(),
        "fingerprints hash at record time, so they survive capacity 0"
    );

    let mut s = ScenarioSnapshot::new("obs_overhead");
    s.fingerprint("output", w.output_fingerprint());
    s.fingerprint("spans", w.obs_fingerprint());
    s.virt("events_delivered", w.scheduler_probe().delivered as f64);
    s.virt(
        "events_per_virtual_sec",
        w.scheduler_probe().delivered as f64 / p.horizon.as_secs_f64(),
    );
    s.virt(
        "span_events",
        events.iter().map(Vec::len).sum::<usize>() as f64,
    );
    s.virt("row_retained_bytes", row_bytes as f64);
    s.virt("columnar_retained_bytes", col_bytes as f64);
    s.virt("columnar_shrink_ratio", (ratio * 100.0).round() / 100.0);
    s
}

/// The workload-engine capacity scenario: the Fig 5.5 knee search on
/// the paper's ethernet, one knee per recorder topology, every searched
/// point chaos-validated. The knees are deterministic integers, so the
/// `cmp` of the snapshot against its committed baseline fails on any
/// change to sustainable users, and `lab compare` names it. Smoke caps the
/// search bracket; the single-recorder knee sits well inside either cap,
/// so both modes converge on the same numbers for it.
fn capacity(smoke: bool) -> ScenarioSnapshot {
    use publishing_chaos::Medium;
    use publishing_obs::slo::SloSpec;
    use publishing_workload::{find_knee, SearchParams, WorkloadSpec};

    let base = WorkloadSpec::default();
    let params = SearchParams {
        max_users: if smoke { 64 } else { 256 },
        chaos: true,
        medium: Medium::Ethernet,
        ..SearchParams::default()
    };
    let mut s = ScenarioSnapshot::new("capacity");
    let mut fp = 0u64;
    let mut delivered_total = 0u64;
    for (i, topo) in [Topology::Single, Topology::Sharded, Topology::Quorum]
        .into_iter()
        .enumerate()
    {
        let knee = find_knee("default", topo, &base, &SloSpec::default(), &params);
        s.virt(format!("{topo}_capacity_users"), f64::from(knee.knee_users));
        s.virt(format!("{topo}_trials"), knee.trials.len() as f64);
        if let Some(t) = knee.knee_trial() {
            s.virt(format!("{topo}_knee_offered"), t.offered as f64);
            s.virt(format!("{topo}_knee_delivered"), t.delivered as f64);
        }
        delivered_total += knee.trials.iter().map(|t| t.delivered).sum::<u64>();
        fp ^= (u64::from(knee.knee_users) << 32 | knee.trials.len() as u64)
            .rotate_left(i as u32 * 21);
    }
    // Everything every searched point drained, so the bench driver's
    // did-any-work check holds for this scenario too.
    s.virt("events_delivered", delivered_total as f64);
    s.fingerprint("knees", fp);
    s
}

/// The capacity-lens scenario: the knee search plus the full lens pass
/// — utilization attribution, queueing cross-validation, and the
/// confirmed what-if matrix — on both media. Knees, binding names, and
/// cross-validation verdicts are deterministic, so the baseline `cmp`
/// pins them exactly (a moved `lens_knee` or `xval_divergences` fails
/// it). Both modes run the same sizing: this scenario gates the lens
/// *machinery*, while the full-scale knees belong to `capacity`.
fn lens_overhead() -> ScenarioSnapshot {
    use publishing_chaos::Medium;
    use publishing_obs::slo::SloSpec;
    use publishing_workload::{find_knee, run_whatif, SearchParams};

    let spec = canonical::lens_spec();
    let slo = SloSpec::default();
    let mut s = ScenarioSnapshot::new("lens_overhead");
    let mut fp = 0u64;
    let mut delivered_total = 0u64;
    for (i, medium) in [Medium::Perfect, Medium::Ethernet].into_iter().enumerate() {
        let params = SearchParams {
            max_users: 12,
            chaos: false,
            medium,
            ..SearchParams::default()
        };
        let knee = find_knee("lens", Topology::Single, &spec, &slo, &params);
        let whatif = run_whatif("lens", Topology::Single, &spec, &slo, &params, &knee, true);
        let sat = knee
            .failing_trial()
            .or_else(|| knee.knee_trial())
            .expect("the lens bracket always runs trials");
        let util = sat
            .report
            .utilization
            .as_ref()
            .expect("every world attaches the utilization ledger");
        let binding = knee.binding.clone().unwrap_or_default();
        assert!(
            !binding.is_empty(),
            "the lens must name a binding resource past the knee"
        );
        let divergences = util.xval.iter().filter(|r| !r.ok).count();
        s.virt(format!("{medium}_lens_knee"), f64::from(knee.knee_users));
        s.virt(format!("{medium}_whatif_rows"), whatif.rows.len() as f64);
        s.virt(format!("{medium}_xval_rows"), util.xval.len() as f64);
        s.virt(format!("{medium}_xval_divergences"), divergences as f64);
        for row in &whatif.rows {
            s.virt(
                format!("{medium}_{}_predicted", row.knob),
                f64::from(row.predicted_knee),
            );
            if let Some(c) = row.confirmed_knee {
                s.virt(format!("{medium}_{}_confirmed", row.knob), f64::from(c));
            }
        }
        delivered_total += knee.trials.iter().map(|t| t.delivered).sum::<u64>();
        for (j, b) in binding.bytes().enumerate() {
            fp ^= u64::from(b).rotate_left((i * 29 + j * 7) as u32);
        }
        fp ^= (u64::from(knee.knee_users) << 24 | whatif.rows.len() as u64)
            .rotate_left(i as u32 * 17);
    }
    s.virt("events_delivered", delivered_total as f64);
    s.fingerprint("lens", fp);
    s
}

/// Runs the whole matrix and assembles the snapshot.
pub fn run_matrix(smoke: bool) -> Snapshot {
    let p = Sizing::new(smoke);
    let mut snap = Snapshot::new(if smoke { "smoke" } else { "full" });
    snap.scenarios = vec![
        steady_state(&p),
        crash_replay(&p),
        rebalance(&p),
        chaos_smoke(&p),
        quorum_sweep(&p),
        obs_overhead(&p),
        capacity(smoke),
        lens_overhead(),
    ];
    snap
}
