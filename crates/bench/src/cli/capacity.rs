//! `lab capacity` — the capacity-knee explorer: the paper's Fig 5.5
//! experiment, generalized across workload shapes and recorder
//! topologies.
//!
//! - `--seed N` — base seed for the canonical shapes (default 1);
//! - `--smoke` — quick run: two shapes, `--max-users 32`;
//! - `--medium M` — `ethernet` (the paper's, default) or `perfect`;
//! - `--max-users U` — search ceiling (default 256);
//! - `--no-chaos` — skip the per-point fault-schedule validation;
//! - `--json` — emit the sweep as one JSON object (shape × topology ×
//!   knee × the binding resource the utilization ledger named, and per
//!   searched point its verdict, the clauses that rejected it and
//!   `settled_ms` — how long after the horizon the fault-free run
//!   settled, `null` when the grace period expired first);
//! - `--spec S` — run a single trial of one workload literal instead of
//!   the shape sweep, print its verdict and report, and exit non-zero
//!   if the point is not sustained;
//! - `--topology T` — with `--spec`: `single` (default), `sharded`, or
//!   `quorum`.
//!
//! The default mode sweeps the canonical DSL shapes (diurnal, hotspot,
//! flash crowd, stalled receiver) over all three topologies and prints
//! one knee table: the largest user count each tier sustains within the
//! default SLOs, every searched point also validated by the chaos
//! recovery oracle. Knees are deterministic — the same build prints the
//! same table — and the perf matrix gates them via `lab compare`.

use super::{fail, Flags};
use publishing_chaos::{Topology, Tuning};
use publishing_obs::json::{Json, ObjBuilder};
use publishing_obs::slo::SloSpec;
use publishing_workload::capacity::point_schedule;
use publishing_workload::{canonical_shapes, find_knee, run_trial, SearchParams, WorkloadSpec};

pub(super) const USAGE: &str = "[--seed N] [--smoke] [--medium ethernet|perfect] \
     [--max-users U] [--no-chaos] [--json] [--spec S] [--topology single|sharded|quorum]";

/// Runs one literal at face value on one topology: the single fully
/// judged operating point, verdict and workload accounting printed.
fn run_spec(literal: &str, topology: Topology, params: &SearchParams) -> Result<(), String> {
    let spec: WorkloadSpec = literal.parse()?;
    println!("spec: {spec}");
    let sched = params.chaos.then(|| point_schedule(topology, &spec));
    let t = run_trial(
        topology,
        &spec,
        &SloSpec::default(),
        params.medium,
        sched.as_ref(),
        &Tuning::default(),
    );
    let w = t.report.workload.as_ref().expect("trial attaches stats");
    println!(
        "[{topology}] users={} offered={} delivered={} goodput={:.3} offered/s={:.1}",
        t.users,
        t.offered,
        t.delivered,
        w.goodput(),
        w.offered_per_sec
    );
    for v in &t.violations {
        println!("  slo: {v}");
    }
    for f in &t.chaos_failures {
        println!("  chaos: {f}");
    }
    if t.pass {
        println!("sustained");
        Ok(())
    } else {
        Err("operating point not sustained".into())
    }
}

/// Sweeps `shapes` × the three topologies, emitting one JSON object:
/// shape × topology × knee × the binding resource the utilization
/// ledger named for it.
fn sweep_json(shapes: &[(&'static str, WorkloadSpec)], params: &SearchParams) {
    let mut rows = Vec::new();
    for (name, spec) in shapes {
        for topo in [Topology::Single, Topology::Sharded, Topology::Quorum] {
            let knee = find_knee(name, topo, spec, &SloSpec::default(), params);
            let rejected_by = knee.failing_trial().map(|t| t.rejected_by());
            let points = knee.trials.iter().map(|t| {
                ObjBuilder::new()
                    .field("users", t.users)
                    .field("pass", t.pass)
                    .field("settled_ms", t.settled_ms)
                    .field("rejected_by", Json::arr(t.rejected_by()))
            });
            rows.push(
                ObjBuilder::new()
                    .field("shape", *name)
                    .field("topology", topo.to_string())
                    .field("knee_users", knee.knee_users)
                    .field("binding", knee.binding.as_deref())
                    .field("rejected_by", Json::arr(rejected_by.unwrap_or_default()))
                    .field("trials", knee.trials.len())
                    .field("points", Json::arr(points)),
            );
        }
    }
    let doc = ObjBuilder::new()
        .field("medium", params.medium.to_string())
        .field("max_users", params.max_users)
        .field("chaos", params.chaos)
        .field("knees", Json::arr(rows));
    println!("{}", doc.build().write());
}

/// Sweeps `shapes` × the three topologies and prints the knee table.
fn sweep(shapes: &[(&'static str, WorkloadSpec)], params: &SearchParams) {
    println!(
        "capacity knees (medium={}, max_users={}, chaos={})",
        params.medium,
        params.max_users,
        if params.chaos { "on" } else { "off" }
    );
    println!(
        "{:<18} {:<8} {:>5} {:>7} {:>9} {:>10} {:>8} {:<14}",
        "shape", "topology", "knee", "trials", "offered", "delivered", "goodput", "binding"
    );
    for (name, spec) in shapes {
        for topo in [Topology::Single, Topology::Sharded, Topology::Quorum] {
            let knee = find_knee(name, topo, spec, &SloSpec::default(), params);
            let (offered, delivered, goodput) = knee
                .knee_trial()
                .map(|t| {
                    let g = if t.offered == 0 {
                        0.0
                    } else {
                        t.delivered as f64 / t.offered as f64
                    };
                    (t.offered, t.delivered, g)
                })
                .unwrap_or((0, 0, 0.0));
            println!(
                "{:<18} {:<8} {:>5} {:>7} {:>9} {:>10} {:>8.3} {:<14}",
                name,
                topo,
                knee.knee_users,
                knee.trials.len(),
                offered,
                delivered,
                goodput,
                knee.binding.as_deref().unwrap_or("-")
            );
        }
    }
}

pub(super) fn run(flags: &Flags) {
    let seed = flags.parsed("--seed").unwrap_or(1);
    let topology = flags.parsed("--topology").unwrap_or(Topology::Single);
    let mut params = SearchParams::default();
    if let Some(medium) = flags.parsed("--medium") {
        params.medium = medium;
    }
    if let Some(max_users) = flags.parsed("--max-users") {
        params.max_users = max_users;
    }
    if flags.has("--no-chaos") {
        params.chaos = false;
    }

    if let Some(lit) = flags.value("--spec") {
        if let Err(e) = run_spec(lit, topology, &params) {
            fail(1, e);
        }
        return;
    }

    let mut shapes = canonical_shapes(seed);
    if flags.has("--smoke") {
        params.max_users = params.max_users.min(32);
        shapes.truncate(2);
    }
    if flags.has("--json") {
        sweep_json(&shapes, &params);
    } else {
        sweep(&shapes, &params);
    }
}
