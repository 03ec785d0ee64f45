//! `lab forensics` — the regression-forensics driver: differential run
//! attribution over a seeded A/B pair.
//!
//! - `--smoke` (the CI gate): runs the baseline side once and diffs it
//!   against *itself* at both granularities — snapshot-level
//!   (comparator + attribution) and report-level (histogram bins,
//!   ledger, critical-path alignment). The self-diff invariant demands
//!   an empty diagnosis; exit `0` iff both levels are empty.
//! - `--inject KNOB:MULT` (default `proto_cpu:2.0`): runs the baseline
//!   and a side with the named what-if knob applied at the given
//!   multiplier, then prints the comparator verdict and the full
//!   two-level diagnosis, suspects annotated with their remediation
//!   knobs. Exits with the comparator's code, so a doubled protocol
//!   CPU fails exactly like the CI bench gate would.
//! - `--json` / `--ndjson` switch the diagnosis to machine-readable
//!   output (one document / one finding per line).
//!
//! The injected side's crash report gets the report-level diagnosis
//! attached ([`publishing_obs::report::ObsReport::forensics`]),
//! exercising the report's optional `forensics` section.

use super::Flags;
use crate::forensics_demo::{annotate_remediation, baseline_tuning, injected_tuning, run_side};
use publishing_obs::forensics::ForensicsReport;
use publishing_perf::forensics::{diff_reports, diff_snapshots};

pub(super) const USAGE: &str = "[--smoke | --inject KNOB:MULT] [--json | --ndjson]";

pub(super) fn run(flags: &Flags) {
    let (json, ndjson) = (flags.has("--json"), flags.has("--ndjson"));
    let text = !json && !ndjson;
    let emit = |report: &ForensicsReport| {
        if ndjson {
            print!("{}", report.to_ndjson());
        } else if json {
            println!("{}", report.to_json().write());
        } else {
            print!("{}", report.render());
        }
    };
    let (knob, mult) = flags
        .value("--inject")
        .unwrap_or("proto_cpu:2.0")
        .split_once(':')
        .and_then(|(knob, mult)| Some((knob, mult.parse::<f64>().ok()?)))
        .unwrap_or_else(|| flags.reject("--inject needs KNOB:MULT"));

    if flags.has("--smoke") {
        // Self-diff gate: one run, diffed against itself at both
        // levels. Any finding is a broken invariant, not a datum.
        let side = run_side(&baseline_tuning());
        let (c, snap_diag) = diff_snapshots("self", &side.snapshot, &side.snapshot);
        let trial_diag = diff_reports("self", &side.trial_report, &side.trial_report);
        let crash_diag = diff_reports("self", &side.crash_report, &side.crash_report);
        println!("forensics --smoke: self-diff across both granularities");
        println!("comparator exit code: {}", c.exit_code());
        emit(&snap_diag);
        emit(&trial_diag);
        emit(&crash_diag);
        let clean = c.exit_code() == 0
            && snap_diag.is_empty()
            && trial_diag.is_empty()
            && crash_diag.is_empty();
        println!("self-diff {}", if clean { "clean" } else { "VIOLATED" });
        std::process::exit(i32::from(!clean));
    }

    let baseline = run_side(&baseline_tuning());
    let injected = run_side(&injected_tuning(knob, mult));

    let (c, mut snap_diag) = diff_snapshots("baseline", &baseline.snapshot, &injected.snapshot);
    annotate_remediation(&mut snap_diag);
    let [trial_diag, crash_diag] = [
        (
            "baseline/trial",
            &baseline.trial_report,
            &injected.trial_report,
        ),
        (
            "baseline/crash",
            &baseline.crash_report,
            &injected.crash_report,
        ),
    ]
    .map(|(label, prev, new)| {
        let mut diag = diff_reports(label, prev, new);
        annotate_remediation(&mut diag);
        diag
    });

    if text {
        println!("injected: {knob} x{mult}");
        print!("{}", c.render());
    }
    emit(&snap_diag);
    emit(&trial_diag);
    emit(&crash_diag);

    // Attach the report-level diagnosis to the injected crash report and
    // render it: the `forensics` section in the run artifact.
    let mut annotated = injected.crash_report;
    annotated.forensics = Some(crash_diag);
    if text {
        let rendered = annotated.render_text();
        if let Some(idx) = rendered.find("\nforensics:") {
            print!("{}", &rendered[idx..]);
        }
    }

    std::process::exit(c.exit_code());
}
