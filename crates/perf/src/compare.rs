//! The exact snapshot differ behind `lab compare`.
//!
//! Diffs two snapshots scenario by scenario and lists every virtual
//! metric and fingerprint that moved. Virtual metrics replay exactly, so
//! there is one significance rule: a metric moved when it changed by more
//! than [`NOISE_FLOOR`] (f64 round-off). An entry that only one snapshot
//! has — metric, fingerprint or whole scenario — moved too. The verdict
//! therefore agrees with `cmp` of the two files: [`compare`] finds
//! nothing exactly when the snapshots carry the same entries and values.
//!
//! Exit-code contract ([`Comparison::exit_code`]): `0` nothing moved,
//! `1` something moved, `2` the snapshots are not comparable (schema or
//! mode mismatch).

use crate::snapshot::{ScenarioSnapshot, Snapshot};
use publishing_obs::forensics::ForensicsReport;
use publishing_obs::json::{Json, ObjBuilder};
use std::collections::{BTreeMap, BTreeSet};

/// Significance floor for a virtual-metric change, relative and absolute
/// (f64 round-off only — two same-seed runs are byte-identical, so
/// anything above this is a real change).
pub const NOISE_FLOOR: f64 = 1e-9;

/// Whether `prev -> new` clears [`NOISE_FLOOR`]. Symmetric in its
/// arguments, so `compare(a, b)` and `compare(b, a)` move the same set.
pub(crate) fn moved(prev: f64, new: f64) -> bool {
    (new - prev).abs() > (NOISE_FLOOR * prev.abs().max(new.abs())).max(NOISE_FLOOR)
}

/// One entry that moved: a metric (`Delta<f64>`) or a fingerprint
/// (`Delta<String>`). `None` on a side the entry is missing from.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta<T> {
    /// Scenario the entry belongs to.
    pub scenario: String,
    /// Metric or fingerprint name.
    pub name: String,
    /// Previous snapshot's value.
    pub prev: Option<T>,
    /// New snapshot's value.
    pub new: Option<T>,
}

impl<T> Delta<T> {
    /// `a -> b`, or which side alone carries the entry.
    fn sides(&self, show: impl Fn(&T) -> String) -> String {
        match (&self.prev, &self.new) {
            (Some(p), Some(n)) => format!("{} -> {}", show(p), show(n)),
            (Some(p), None) => format!("only in prev: {}", show(p)),
            (None, Some(n)) => format!("only in new: {}", show(n)),
            (None, None) => unreachable!("a delta has at least one side"),
        }
    }

    fn to_json(&self) -> Json
    where
        T: Clone + Into<Json>,
    {
        ObjBuilder::new()
            .field("scenario", &self.scenario)
            .field("name", &self.name)
            .field("prev", self.prev.clone())
            .field("new", self.new.clone())
            .build()
    }
}

/// The differ's verdict.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Metrics that moved, scenario-major in snapshot order.
    pub metrics: Vec<Delta<f64>>,
    /// Fingerprints that changed, scenario-major in snapshot order.
    pub fingerprints: Vec<Delta<String>>,
    /// Metric names compared, over both snapshots.
    pub metrics_compared: usize,
    /// Fingerprint names compared, over both snapshots.
    pub fingerprints_compared: usize,
    /// Set when the snapshots cannot be compared at all.
    pub incomparable: Option<String>,
}

impl Comparison {
    /// The process exit code of `lab compare`.
    pub fn exit_code(&self) -> i32 {
        if self.incomparable.is_some() {
            2
        } else if self.metrics.is_empty() && self.fingerprints.is_empty() {
            0
        } else {
            1
        }
    }

    /// Renders a human-readable report: what moved, then a summary line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        if let Some(why) = &self.incomparable {
            s.push_str(&format!("snapshots not comparable: {why}\n"));
            return s;
        }
        let mut scenario = "";
        for d in &self.metrics {
            if d.scenario != scenario {
                scenario = &d.scenario;
                s.push_str(&format!("{scenario}:\n"));
            }
            let pct = match (d.prev, d.new) {
                (Some(p), Some(n)) if p != 0.0 => format!(" ({:+.1}%)", (n - p) / p.abs() * 100.0),
                _ => String::new(),
            };
            s.push_str(&format!(
                "  {:<40} {}{pct}\n",
                d.name,
                d.sides(|v| format!("{v:.3}"))
            ));
        }
        for f in &self.fingerprints {
            s.push_str(&format!(
                "  fingerprint {}/{}: {}\n",
                f.scenario,
                f.name,
                f.sides(String::clone)
            ));
        }
        s.push_str(&format!(
            "{}: {} metric(s) and {} fingerprint(s) compared, {} metric(s) and {} fingerprint(s) moved\n",
            if self.exit_code() == 0 { "PASS" } else { "FAIL" },
            self.metrics_compared,
            self.fingerprints_compared,
            self.metrics.len(),
            self.fingerprints.len()
        ));
        s
    }

    /// The verdict as one JSON document (`lab compare --json`), with the
    /// forensics diagnosis as its last field when one is given (`--explain`).
    /// The exit-code contract is embedded so scripts need not re-derive it.
    pub fn to_json(&self, forensics: Option<&ForensicsReport>) -> Json {
        let mut o = ObjBuilder::new()
            .field("incomparable", self.incomparable.as_deref())
            .field("exit_code", self.exit_code() as f64)
            .field("metrics_compared", self.metrics_compared)
            .field("fingerprints_compared", self.fingerprints_compared)
            .field(
                "metrics",
                Json::arr(self.metrics.iter().map(Delta::to_json)),
            )
            .field(
                "fingerprints",
                Json::arr(self.fingerprints.iter().map(Delta::to_json)),
            );
        if let Some(diagnosis) = forensics {
            o = o.field("forensics", diagnosis.to_json());
        }
        o.build()
    }
}

/// The scenario names of both snapshots: `prev`'s in its order, then
/// those only `new` has, in its order.
pub(crate) fn scenario_names<'a>(prev: &'a Snapshot, new: &'a Snapshot) -> Vec<&'a str> {
    let mut names: Vec<&str> = prev.scenarios.iter().map(|s| s.name.as_str()).collect();
    for s in &new.scenarios {
        if prev.scenario(&s.name).is_none() {
            names.push(&s.name);
        }
    }
    names
}

/// Appends to `out` every key of either map whose values differ (`same`
/// false) or that only one map has, in key order; returns how many keys
/// the two maps carry together.
fn diff_maps<T: Clone>(
    scenario: &str,
    prev: &BTreeMap<String, T>,
    new: &BTreeMap<String, T>,
    same: impl Fn(&T, &T) -> bool,
    out: &mut Vec<Delta<T>>,
) -> usize {
    let keys: BTreeSet<&String> = prev.keys().chain(new.keys()).collect();
    for &key in &keys {
        let (p, n) = (prev.get(key), new.get(key));
        if matches!((p, n), (Some(p), Some(n)) if same(p, n)) {
            continue;
        }
        out.push(Delta {
            scenario: scenario.to_string(),
            name: key.clone(),
            prev: p.cloned(),
            new: n.cloned(),
        });
    }
    keys.len()
}

/// Diffs `new` against `prev`. A scenario only one side has is diffed
/// against an empty one, so each of its entries is listed as one-sided.
pub fn compare(prev: &Snapshot, new: &Snapshot) -> Comparison {
    let mut out = Comparison::default();
    if prev.schema != new.schema {
        out.incomparable = Some(format!("schema {} vs {}", prev.schema, new.schema));
        return out;
    }
    if prev.mode != new.mode {
        out.incomparable = Some(format!("mode \"{}\" vs \"{}\"", prev.mode, new.mode));
        return out;
    }
    let empty = ScenarioSnapshot::default();
    for name in scenario_names(prev, new) {
        let ps = prev.scenario(name).unwrap_or(&empty);
        let ns = new.scenario(name).unwrap_or(&empty);
        out.metrics_compared += diff_maps(
            name,
            &ps.virt,
            &ns.virt,
            |&p, &n| !moved(p, n),
            &mut out.metrics,
        );
        out.fingerprints_compared += diff_maps(
            name,
            &ps.fingerprints,
            &ns.fingerprints,
            |p, n| p == n,
            &mut out.fingerprints,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(name_vals: &[(&str, f64)]) -> Snapshot {
        let mut s = Snapshot::new("smoke");
        let mut sc = ScenarioSnapshot::new("steady_state");
        for (k, v) in name_vals {
            sc.virt(*k, *v);
        }
        sc.fingerprint("output", 1);
        s.scenarios.push(sc);
        s
    }

    #[test]
    fn identical_snapshots_pass() {
        let s = snap(&[("peak_queue_depth", 40.0), ("deliver_us_p99", 400.0)]);
        let c = compare(&s, &s.clone());
        assert_eq!(c.exit_code(), 0, "{}", c.render());
        assert_eq!((c.metrics_compared, c.fingerprints_compared), (2, 1));
        assert!(c.render().ends_with(
            "PASS: 2 metric(s) and 1 fingerprint(s) compared, 0 metric(s) and 0 fingerprint(s) moved\n"
        ));
    }

    /// Every change above round-off moves, whatever the metric and
    /// whichever the direction; round-off does not.
    #[test]
    fn any_change_above_the_noise_floor_moves() {
        let prev = snap(&[("deliver_us_p99", 1000.0), ("single_capacity_users", 28.0)]);
        for (metric, new) in [
            ("deliver_us_p99", 1001.0),
            ("deliver_us_p99", 100.0),
            ("single_capacity_users", 29.0),
        ] {
            let mut next = prev.clone();
            next.scenarios[0].virt(metric, new);
            let c = compare(&prev, &next);
            assert_eq!(c.exit_code(), 1, "{}", c.render());
            assert_eq!(c.metrics.len(), 1);
            assert_eq!(c.metrics[0].name, metric);
            assert!(c.render().contains(metric));
        }
        let mut jitter = prev.clone();
        jitter.scenarios[0].virt("deliver_us_p99", 1000.0 * (1.0 + 1e-12));
        assert_eq!(compare(&prev, &jitter).exit_code(), 0);
    }

    /// A scenario only one side has moves each entry it carries, on
    /// either side (`perf_observatory.rs` doctors the committed baseline
    /// for the other one-sided cases).
    #[test]
    fn a_lone_scenario_moves_on_either_side() {
        let prev = snap(&[("spans_total", 10.0)]);
        let mut more = prev.clone();
        let mut sc = prev.scenarios[0].clone();
        sc.name = "crash_replay".into();
        more.scenarios.push(sc);
        for c in [compare(&prev, &more), compare(&more, &prev)] {
            assert_eq!(c.exit_code(), 1, "{}", c.render());
            assert_eq!((c.metrics.len(), c.fingerprints.len()), (1, 1));
            assert_eq!(c.metrics[0].scenario, "crash_replay");
        }
        assert!(compare(&more, &prev)
            .render()
            .contains("fingerprint crash_replay/output: only in prev: 0x"));
    }

    #[test]
    fn mode_and_schema_mismatch_are_incomparable() {
        let prev = snap(&[]);
        let mut other_mode = snap(&[]);
        other_mode.mode = "full".into();
        assert_eq!(compare(&prev, &other_mode).exit_code(), 2);
        let mut other_schema = snap(&[]);
        other_schema.schema = 99;
        assert_eq!(compare(&prev, &other_schema).exit_code(), 2);
    }

    #[test]
    fn json_verdict_carries_the_exit_code_and_both_sides() {
        let prev = snap(&[("deliver_us_p99", 1000.0)]);
        let mut new = snap(&[("deliver_us_p99", 1500.0)]);
        new.scenarios[0].fingerprint("output", 2);
        assert_eq!(
            compare(&prev, &new).to_json(None).write(),
            "{\"incomparable\":null,\"exit_code\":1.0,\"metrics_compared\":1,\
             \"fingerprints_compared\":1,\"metrics\":[{\"scenario\":\"steady_state\",\
             \"name\":\"deliver_us_p99\",\"prev\":1000.0,\"new\":1500.0}],\
             \"fingerprints\":[{\"scenario\":\"steady_state\",\"name\":\"output\",\
             \"prev\":\"0x0000000000000001\",\"new\":\"0x0000000000000002\"}]}"
        );
        let incomparable = compare(&prev, &Snapshot::new("full")).to_json(None);
        assert_eq!(
            incomparable.get("exit_code").and_then(Json::as_f64),
            Some(2.0)
        );
        assert!(incomparable
            .get("incomparable")
            .and_then(Json::as_str)
            .is_some());
    }
}
