//! The perf-observatory scenario matrix behind the `bench` binary.
//!
//! Four canonical scenarios at fixed seeds — fault-free steady state,
//! crash+replay, mid-run shard rebalance, and one generated chaos
//! schedule — each reduced to a [`ScenarioSnapshot`] of virtual-time
//! metrics, output/span fingerprints, and host readings. The virtual
//! sections are deterministic: [`run_matrix`] twice at the same mode
//! yields byte-identical `Snapshot::virtual_json`.
//!
//! Host readings (wall clock, allocation counts) only carry data when
//! the process installed `publishing_perf::alloc::CountingAlloc` as the
//! global allocator (the `bench` binary does; tests don't need to).

use publishing_chaos::driver::run_schedule;
use publishing_chaos::scenario::{Scenario, Topology, NODES, SHARDS};
use publishing_chaos::schedule::{self, ChaosConfig};
use publishing_core::WorldBuilder;
use publishing_demos::ids::Channel;
use publishing_demos::link::Link;
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_perf::alloc;
use publishing_perf::snapshot::{scenario_from_report, ScenarioSnapshot, Snapshot};
use publishing_quorum::QuorumTier;
use publishing_shard::{ShardTier, ShardedWorld};
use publishing_sim::fault::FaultPlan;
use publishing_sim::time::SimTime;

/// Scenario-matrix sizing: the smoke matrix is the CI gate (< 1 s), the
/// full matrix is for local investigation.
pub struct MatrixParams {
    /// Pings per client.
    pub pings: u64,
    /// Ping/echo pairs.
    pub pairs: u32,
    /// Run horizon for the non-chaos scenarios.
    pub horizon: SimTime,
    /// Injection horizon for the chaos schedule (ms).
    pub chaos_horizon_ms: u64,
    /// Fault budget for the chaos schedule.
    pub chaos_faults: usize,
}

impl MatrixParams {
    /// The canonical sizing for `smoke` or full mode.
    pub fn new(smoke: bool) -> MatrixParams {
        if smoke {
            MatrixParams {
                pings: 10,
                pairs: 2,
                horizon: SimTime::from_secs(20),
                chaos_horizon_ms: 800,
                chaos_faults: 5,
            }
        } else {
            MatrixParams {
                pings: 25,
                pairs: 4,
                horizon: SimTime::from_secs(40),
                chaos_horizon_ms: 1500,
                chaos_faults: 7,
            }
        }
    }
}

/// The standard ping/echo world every non-chaos scenario drives: echo
/// servers on node 2, pingers on nodes 0/1, four recorder shards.
pub fn build_world(p: &MatrixParams) -> ShardedWorld {
    let pings = p.pings;
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("pinger", move || {
        let mut c = PingClient::new(pings);
        c.think_ns = 2_000_000;
        Box::new(c)
    });
    let mut w = ShardTier::world(WorldBuilder::new(3).registry(reg), 4);
    for i in 0..p.pairs {
        let server = w.spawn(2, "echo", vec![]).expect("echo registered");
        w.spawn(i % 2, "pinger", vec![Link::to(server, Channel::DEFAULT, 7)])
            .expect("pinger registered");
    }
    w
}

/// Runs one scenario body under the wall-clock and allocation meters and
/// files the host section.
fn metered(body: impl FnOnce() -> ScenarioSnapshot) -> ScenarioSnapshot {
    let alloc_before = alloc::snapshot();
    let wall_before = std::time::Instant::now();
    let mut s = body();
    let wall_ms = wall_before.elapsed().as_secs_f64() * 1e3;
    let grew = alloc::snapshot().since(alloc_before);
    s.host("wall_ms", wall_ms);
    s.host("allocations", grew.allocs as f64);
    s.host("alloc_bytes", grew.bytes as f64);
    s
}

fn steady_state(p: &MatrixParams) -> ScenarioSnapshot {
    let mut w = build_world(p);
    w.run_until(p.horizon);
    let mut s = scenario_from_report("steady_state", &w.obs_report());
    s.fingerprint("output", w.output_fingerprint());
    s.virt("recoveries_completed", w.recoveries_completed() as f64);
    s
}

fn crash_replay(p: &MatrixParams) -> ScenarioSnapshot {
    let mut w = build_world(p);
    w.run_until(SimTime::from_millis(50));
    w.crash_node(2);
    w.run_until(p.horizon);
    let mut s = scenario_from_report("crash_replay", &w.obs_report());
    s.fingerprint("output", w.output_fingerprint());
    s.virt("recoveries_completed", w.recoveries_completed() as f64);
    s
}

fn rebalance(p: &MatrixParams) -> ScenarioSnapshot {
    let mut w = build_world(p);
    w.run_until(SimTime::from_millis(40));
    ShardTier::add_shard(&mut w);
    w.run_until(p.horizon);
    let mut s = scenario_from_report("rebalance", &w.obs_report());
    s.fingerprint("output", w.output_fingerprint());
    s.virt("shards", w.tier.shards.len() as f64);
    s
}

fn chaos_smoke(p: &MatrixParams) -> ScenarioSnapshot {
    let sched = schedule::generate(&ChaosConfig {
        seed: 42,
        nodes: NODES,
        shards: SHARDS,
        replicas: 0,
        procs: 4,
        horizon_ms: p.chaos_horizon_ms,
        max_faults: p.chaos_faults,
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
fn quorum_sweep(p: &MatrixParams) -> ScenarioSnapshot {
    let mut entries: Vec<(String, f64)> = Vec::new();
    let mut last_report = None;
    let mut output_fp = 0u64;
    for &replicas in &[1usize, 3, 5] {
        for &loss_pct in &[0u32, 10] {
            let pings = p.pings;
            let mut reg = ProgramRegistry::new();
            programs::register_standard(&mut reg);
            reg.register("pinger", move || {
                let mut c = PingClient::new(pings);
                c.think_ns = 2_000_000;
                Box::new(c)
            });
            let mut w = QuorumTier::world(WorldBuilder::new(3).registry(reg), replicas, 42);
            w.lan
                .set_faults(FaultPlan::new().with_frame_loss(f64::from(loss_pct) / 100.0));
            let mut clients = Vec::new();
            for i in 0..p.pairs {
                let server = w.spawn(2, "echo", vec![]).expect("echo registered");
                let client = w
                    .spawn(i % 2, "pinger", vec![Link::to(server, Channel::DEFAULT, 7)])
                    .expect("pinger registered");
                clients.push(client);
            }
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
/// columnar store that replaced it, under the allocation meter. Both
/// must agree on the fingerprint and on the happens-before DAG built
/// from their event streams, and the columnar store must retain the
/// same events in at least 3x less steady-state memory.
///
/// **Tracing tax**: the same workload runs once instrumented and once
/// with spans disabled (capacity 0); the workload's outputs must be
/// identical either way (observability never perturbs the run), and
/// both run bodies are metered so the host section carries the
/// allocation cost of keeping spans on.
fn obs_overhead(p: &MatrixParams) -> ScenarioSnapshot {
    use publishing_obs::causal::CausalGraph;
    use publishing_obs::span::SpanLog;
    use publishing_obs::RowSpanLog;

    let alloc_on = alloc::snapshot();
    let mut w = build_world(p);
    w.run_until(p.horizon);
    let grew_on = alloc::snapshot().since(alloc_on);

    let logs = w.span_logs();
    let events: Vec<Vec<_>> = logs.iter().map(|l| l.events().collect()).collect();
    for l in &logs {
        assert_eq!(
            l.dropped(),
            0,
            "overhead workload must fit in the span ring"
        );
    }

    let alloc_row = alloc::snapshot();
    let mut rows: Vec<RowSpanLog> = Vec::new();
    for stream in &events {
        let mut log = RowSpanLog::new(publishing_obs::span::DEFAULT_SPAN_CAPACITY);
        for e in stream {
            log.record(e.at, e.key, e.stage, e.subject, e.aux);
        }
        rows.push(log);
    }
    let grew_row = alloc::snapshot().since(alloc_row);

    let alloc_col = alloc::snapshot();
    let mut cols: Vec<SpanLog> = Vec::new();
    for stream in &events {
        let mut log = SpanLog::new(publishing_obs::span::DEFAULT_SPAN_CAPACITY);
        for e in stream {
            log.record(e.at, e.key, e.stage, e.subject, e.aux);
        }
        cols.push(log);
    }
    let grew_col = alloc::snapshot().since(alloc_col);

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

    let alloc_off = alloc::snapshot();
    let mut off = build_world(p);
    off.set_span_capacity(0);
    off.run_until(p.horizon);
    let grew_off = alloc::snapshot().since(alloc_off);
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
    s.host("instrumented_alloc_bytes", grew_on.bytes as f64);
    s.host("disabled_alloc_bytes", grew_off.bytes as f64);
    s.host("row_store_alloc_bytes", grew_row.bytes as f64);
    s.host("columnar_store_alloc_bytes", grew_col.bytes as f64);
    s
}

/// The workload-engine capacity scenario: the Fig 5.5 knee search on
/// the paper's ethernet, one knee per recorder topology, every searched
/// point chaos-validated. The knees are deterministic integers gated
/// exactly (zero allowance) by the `capacity_users` comparator rule, so
/// any change that shrinks sustainable users fails CI. Smoke caps the
/// search bracket; the single-recorder knee sits well inside either cap,
/// so both modes converge on the same numbers for it.
fn capacity(smoke: bool) -> ScenarioSnapshot {
    use publishing_chaos::Medium;
    use publishing_obs::slo::SloSpec;
    use publishing_workload::capacity::topology_name;
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
        let name = topology_name(topo);
        s.virt(format!("{name}_capacity_users"), f64::from(knee.knee_users));
        s.virt(format!("{name}_trials"), knee.trials.len() as f64);
        if let Some(t) = knee.knee_trial() {
            s.virt(format!("{name}_knee_offered"), t.offered as f64);
            s.virt(format!("{name}_knee_delivered"), t.delivered as f64);
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
/// cross-validation verdicts are deterministic, so the comparator gates
/// them exactly (`lens_knee` may not shrink, `xval_divergences` may not
/// grow); the host section is the lens tax on top of the search itself.
/// Both modes run the same sizing: this scenario gates the lens
/// *machinery*, while the full-scale knees belong to `capacity`.
fn lens_overhead(_smoke: bool) -> ScenarioSnapshot {
    use publishing_chaos::Medium;
    use publishing_obs::slo::SloSpec;
    use publishing_workload::{find_knee, run_whatif, SearchParams, WorkloadSpec};

    // The same loaded point `lens --smoke` profiles: heavy enough that
    // both media knee inside the bracket (a capped bracket is not a
    // knee and would poison the what-if predictions).
    let spec = WorkloadSpec {
        subjects: 2,
        rate_per_sec: 100,
        horizon_ms: 400,
        ..WorkloadSpec::default()
    };
    let slo = SloSpec::default();
    let mut s = ScenarioSnapshot::new("lens_overhead");
    let mut fp = 0u64;
    let mut delivered_total = 0u64;
    for (i, medium) in [Medium::Perfect, Medium::Ethernet].into_iter().enumerate() {
        let name = match medium {
            Medium::Perfect => "perfect",
            Medium::Ethernet => "ethernet",
        };
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
        s.virt(format!("{name}_lens_knee"), f64::from(knee.knee_users));
        s.virt(format!("{name}_whatif_rows"), whatif.rows.len() as f64);
        s.virt(format!("{name}_xval_rows"), util.xval.len() as f64);
        s.virt(format!("{name}_xval_divergences"), divergences as f64);
        for row in &whatif.rows {
            s.virt(
                format!("{name}_{}_predicted", row.knob),
                f64::from(row.predicted_knee),
            );
            if let Some(c) = row.confirmed_knee {
                s.virt(format!("{name}_{}_confirmed", row.knob), f64::from(c));
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
    let p = MatrixParams::new(smoke);
    let mut snap = Snapshot::new(if smoke { "smoke" } else { "full" });
    snap.scenarios.push(metered(|| steady_state(&p)));
    snap.scenarios.push(metered(|| crash_replay(&p)));
    snap.scenarios.push(metered(|| rebalance(&p)));
    snap.scenarios.push(metered(|| chaos_smoke(&p)));
    snap.scenarios.push(metered(|| quorum_sweep(&p)));
    snap.scenarios.push(metered(|| obs_overhead(&p)));
    snap.scenarios.push(metered(|| capacity(smoke)));
    snap.scenarios.push(metered(|| lens_overhead(smoke)));
    snap
}
