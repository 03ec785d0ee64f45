//! `lab compare` — the CI perf-regression gate: diffs two
//! `BENCH_<n>.json` snapshots.
//!
//! Compares the newer snapshot against the older one under the default
//! rule set (see `publishing_perf::compare::default_rules`), with
//! per-metric noise thresholds. Exit codes: `0` no regression, `1` at
//! least one gated metric regressed, `2` the inputs are unreadable or
//! not comparable (schema/mode mismatch, scenario lost).
//!
//! - `--json` prints the verdict as one machine-readable JSON document
//!   instead of text (the exit-code contract is unchanged and also
//!   embedded in the document);
//! - `--explain` appends the regression-forensics diagnosis: per
//!   violated rule, the top-ranked suspects from the snapshot's
//!   attribution families (profile categories, ledger busy times,
//!   critical-path stages, what-if knees), each annotated with the
//!   standard what-if knob that would turn it.

use super::{fail, Flags};
use crate::forensics_demo::annotate_remediation;
use publishing_perf::forensics::diff_snapshots;
use publishing_perf::snapshot::Snapshot;

pub(super) const USAGE: &str = "[--json] [--explain] <prev.json> <new.json>";

fn load(path: &str) -> Snapshot {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(2, format!("cannot read {path}: {e}")));
    Snapshot::from_json(&text).unwrap_or_else(|e| fail(2, format!("cannot parse {path}: {e}")))
}

pub(super) fn run(flags: &Flags) {
    let [prev_path, new_path] = flags.positional.as_slice() else {
        flags.reject("expected two snapshot paths");
    };
    let (c, mut diagnosis) = diff_snapshots(prev_path, &load(prev_path), &load(new_path));
    annotate_remediation(&mut diagnosis);
    let explain = flags.has("--explain");
    if flags.has("--json") {
        // One document: the verdict, the diagnosis its last field.
        let diagnosis = (explain && !diagnosis.is_empty()).then_some(&diagnosis);
        println!("{}", c.to_json(diagnosis).write());
    } else {
        print!("{}", c.render());
        if explain {
            print!("{}", diagnosis.render());
        }
    }
    std::process::exit(c.exit_code());
}
