//! `lab lens` — the capacity lens: where did the knee come from, and
//! what would move it?
//!
//! For each selected medium the lens runs the closed-loop capacity
//! search, then answers the two questions a knee table leaves open:
//!
//! 1. **Attribution** — the resource-utilization ledger of the first
//!    failing point past the knee, ranked, with the binding resource
//!    named (sink receive budget on the perfect bus, medium contention
//!    on the ethernet) and the queueing cross-validation shown.
//! 2. **Sensitivity** — the causal what-if matrix: wire ×2, sink
//!    receive ×0.5, protocol CPU ×0.5, each with a knee predicted from
//!    the ledger alone and (with `--confirm`) the exact re-searched
//!    knee beside it.
//!
//! - `--medium` — which media to profile (default `both`);
//! - `--topology` — `single` (default), `sharded`, or `quorum`;
//! - `--spec S` — workload literal (default: a loaded single-recorder
//!   point that knees inside `--max-users` on both media);
//! - `--max-users U` — search ceiling (default 256);
//! - `--chaos` — also validate each searched point under faults;
//! - `--confirm` — re-search the knee under every turned knob so each
//!   what-if row carries its exact prediction error;
//! - `--json` — one NDJSON row per medium (the report embedded);
//! - `--smoke` — CI mode: tiny spec, `--confirm` implied, seconds not
//!   minutes. Output is deterministic: run it twice, diff it;
//! - `--verbose` — stream per-point knee-search verdicts (the SLO
//!   clause that rejected each probe) to stderr.

use super::{fail, Flags};
use publishing_chaos::{Medium, Topology};
use publishing_obs::json::ObjBuilder;
use publishing_obs::slo::SloSpec;
use publishing_workload::{find_knee, run_whatif, SearchParams, WorkloadSpec};

pub(super) const USAGE: &str = "[--medium ethernet|perfect|both] \
     [--topology single|sharded|quorum] [--spec S] [--max-users U] \
     [--chaos] [--confirm] [--json] [--smoke] [--verbose]";

/// Profiles one medium: search, attribute, run the what-if matrix.
fn profile(
    medium: Medium,
    topology: Topology,
    spec: &WorkloadSpec,
    params: &SearchParams,
    confirm: bool,
    json: bool,
) {
    let params = SearchParams {
        medium,
        ..params.clone()
    };
    let slo = SloSpec::default();
    let knee = find_knee("lens", topology, spec, &slo, &params);
    let whatif = run_whatif("lens", topology, spec, &slo, &params, &knee, confirm);

    // The report shown is the first failing point past the knee — where
    // the saturation actually shows — falling back to the knee trial
    // when the search capped out while passing.
    let sat = knee.failing_trial().or_else(|| knee.knee_trial());
    let clauses = sat.map(|t| t.rejected_by().join("+")).unwrap_or_default();
    let mut report = match sat {
        Some(t) => t.report.clone(),
        None => {
            println!("[{medium}] no trials ran (max_users=0?)");
            return;
        }
    };
    report.whatif = Some(whatif);

    if json {
        let row = ObjBuilder::new()
            .field("medium", medium.to_string())
            .field("topology", topology.to_string())
            .field("knee", knee.knee_users)
            .field("binding", knee.binding.as_deref())
            .field("clauses", clauses)
            .field("report", report.to_json());
        println!("{}", row.build().write());
    } else {
        println!(
            "== lens: medium={medium} topology={topology} knee={} binding={}{}",
            knee.knee_users,
            knee.binding.as_deref().unwrap_or("none"),
            if clauses.is_empty() {
                String::new()
            } else {
                format!(" rejected_by={clauses}")
            }
        );
        if let Some(u) = &report.utilization {
            println!("\nresource utilization (first point past the knee):");
            println!("{}", u.render());
        }
        if let Some(w) = &report.whatif {
            println!("what-if profiler:");
            println!("{}", w.render());
        }
    }
}

pub(super) fn run(flags: &Flags) {
    let media = match flags.value("--medium") {
        None | Some("both") => vec![Medium::Perfect, Medium::Ethernet],
        Some(_) => flags.parsed("--medium").into_iter().collect(),
    };
    let topology = flags.parsed("--topology").unwrap_or(Topology::Single);
    let smoke = flags.has("--smoke");
    let mut params = SearchParams {
        chaos: flags.has("--chaos"),
        verbose: flags.has("--verbose"),
        ..SearchParams::default()
    };
    if let Some(max_users) = flags.parsed("--max-users") {
        params.max_users = max_users;
    }

    let spec: WorkloadSpec = match flags.value("--spec") {
        Some(lit) => lit
            .parse()
            .unwrap_or_else(|e| fail(2, format!("--spec: {e}"))),
        None if smoke => crate::canonical::lens_spec(),
        // The canonical operating point: the same default shape the
        // capacity sweep searches, so the lens profile explains the
        // knee table's numbers — the walkthrough in EXPERIMENTS.md
        // re-derives this run.
        None => WorkloadSpec::default(),
    };
    if smoke {
        params.max_users = params.max_users.min(12);
    }
    let confirm = smoke || flags.has("--confirm");

    for m in media {
        profile(m, topology, &spec, &params, confirm, flags.has("--json"));
    }
}
