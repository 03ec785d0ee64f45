//! `lab compare` — diffs two `BENCH_<n>.json` snapshots exactly.
//!
//! Lists every virtual metric and fingerprint of the newer snapshot that
//! moved against the older one past f64 round-off
//! (`publishing_perf::compare::NOISE_FLOOR`), including entries only one
//! snapshot has, so it agrees with `cmp` of the two files and says what
//! the difference is. Exit codes: `0` nothing moved, `1` something moved,
//! `2` the inputs are unreadable or not comparable (schema or mode
//! mismatch).
//!
//! - `--json` prints the verdict as one machine-readable JSON document
//!   instead of text (the exit-code contract is unchanged and also
//!   embedded in the document);
//! - `--explain` appends the regression-forensics diagnosis: one finding
//!   per scenario that moved, its subject the largest relative mover and
//!   its suspects the attribution families that moved (profile
//!   categories, ledger busy times, critical-path stages, what-if knees)
//!   plus any binding flip, each annotated with the standard what-if
//!   knob that would turn it.

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
