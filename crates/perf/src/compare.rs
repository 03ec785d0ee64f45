//! The perf-regression comparator behind the CI gate.
//!
//! Diffs two snapshots scenario-by-scenario over their virtual metrics.
//! Each metric is matched to a [`Rule`] by name suffix; a change is a
//! regression when it moves in the rule's "worse" direction by more
//! than `max(rel · previous, abs)`. Metrics no rule
//! matches are reported but never gate, as are fingerprint changes
//! (fingerprints legitimately change whenever behavior-affecting code
//! changes; the determinism *tests* are what pin same-build stability).
//!
//! Exit-code contract (used by `ci.sh`): `0` no regression, `1` at
//! least one regression, `2` snapshots not comparable (schema or mode
//! mismatch, scenario lost).

use crate::snapshot::Snapshot;
use publishing_obs::forensics::ForensicsReport;
use publishing_obs::json::{Json, ObjBuilder};

/// Which way a metric gets worse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Growth is a regression (latency, queue depth).
    HigherIsWorse,
    /// Shrinkage is a regression (capacity).
    LowerIsWorse,
}

/// A per-metric gating rule, matched by metric-name suffix.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Metric-name suffix this rule applies to.
    pub suffix: &'static str,
    /// Worse direction.
    pub direction: Direction,
    /// Relative noise allowance (fraction of the previous value).
    pub rel: f64,
    /// Absolute noise allowance (same unit as the metric).
    pub abs: f64,
}

/// The default rule set for the canonical scenario matrix. First match
/// (in order) wins.
pub fn default_rules() -> Vec<Rule> {
    vec![
        Rule {
            // Capacity knees are deterministic integers found by a
            // seeded binary search: any drop in sustainable users is a
            // real regression, so the allowance is exactly zero.
            suffix: "capacity_users",
            direction: Direction::LowerIsWorse,
            rel: 0.0,
            abs: 0.0,
        },
        Rule {
            // Lens knees are the same deterministic searches at the
            // lens scenario's fixed operating point: zero allowance.
            suffix: "lens_knee",
            direction: Direction::LowerIsWorse,
            rel: 0.0,
            abs: 0.0,
        },
        Rule {
            // The queueing cross-validation must stay clean: a model
            // row drifting outside tolerance is a ledger bug, not
            // noise.
            suffix: "xval_divergences",
            direction: Direction::HigherIsWorse,
            rel: 0.0,
            abs: 0.0,
        },
        Rule {
            suffix: "_p50",
            direction: Direction::HigherIsWorse,
            rel: 0.25,
            abs: 50.0,
        },
        Rule {
            suffix: "_p95",
            direction: Direction::HigherIsWorse,
            rel: 0.25,
            abs: 50.0,
        },
        Rule {
            suffix: "_p99",
            direction: Direction::HigherIsWorse,
            rel: 0.25,
            abs: 50.0,
        },
        Rule {
            suffix: "peak_queue_depth",
            direction: Direction::HigherIsWorse,
            rel: 0.50,
            abs: 4.0,
        },
        Rule {
            suffix: "peak_sched_pending",
            direction: Direction::HigherIsWorse,
            rel: 0.50,
            abs: 16.0,
        },
    ]
}

/// One metric's before/after reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Scenario the metric belongs to.
    pub scenario: String,
    /// Metric name.
    pub metric: String,
    /// Previous snapshot's value.
    pub prev: f64,
    /// New snapshot's value.
    pub new: f64,
    /// Whether the change crossed the matched rule's threshold in the
    /// worse direction. Always `false` for unmatched (ungated) metrics.
    pub regression: bool,
    /// Whether any rule gates this metric.
    pub gated: bool,
}

/// The comparator's verdict.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Per-metric readings, scenario-major in snapshot order.
    pub deltas: Vec<Delta>,
    /// Fingerprints whose value changed (informational).
    pub fingerprint_changes: Vec<String>,
    /// Set when the snapshots cannot be compared at all.
    pub incomparable: Option<String>,
}

impl Comparison {
    /// The regressions, if any.
    pub fn regressions(&self) -> impl Iterator<Item = &Delta> {
        self.deltas.iter().filter(|d| d.regression)
    }

    /// The process exit code the CI gate uses.
    pub fn exit_code(&self) -> i32 {
        if self.incomparable.is_some() {
            2
        } else if self.regressions().next().is_some() {
            1
        } else {
            0
        }
    }

    /// Renders a human-readable report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        if let Some(why) = &self.incomparable {
            s.push_str(&format!("snapshots not comparable: {why}\n"));
            return s;
        }
        let mut scenario = "";
        for d in &self.deltas {
            if d.scenario != scenario {
                scenario = &d.scenario;
                s.push_str(&format!("{scenario}:\n"));
            }
            let pct = if d.prev != 0.0 {
                (d.new - d.prev) / d.prev * 100.0
            } else {
                0.0
            };
            s.push_str(&format!(
                "  {} {:<32} {:>14.3} -> {:>14.3} ({:+.1}%){}\n",
                if d.regression { "REGRESSION" } else { "ok" },
                d.metric,
                d.prev,
                d.new,
                pct,
                if d.gated { "" } else { " [ungated]" }
            ));
        }
        for f in &self.fingerprint_changes {
            s.push_str(&format!("  note: fingerprint changed: {f}\n"));
        }
        let n = self.regressions().count();
        s.push_str(&format!(
            "{}: {} metric(s) compared, {} regression(s)\n",
            if n == 0 { "PASS" } else { "FAIL" },
            self.deltas.len(),
            n
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
            .field("regressions", self.regressions().count() as f64)
            .field(
                "deltas",
                Json::arr(self.deltas.iter().map(|d| {
                    ObjBuilder::new()
                        .field("scenario", &d.scenario)
                        .field("metric", &d.metric)
                        .field("prev", d.prev)
                        .field("new", d.new)
                        .field("regression", d.regression)
                        .field("gated", d.gated)
                })),
            )
            .field("fingerprint_changes", Json::arr(&self.fingerprint_changes));
        if let Some(diagnosis) = forensics {
            o = o.field("forensics", diagnosis.to_json());
        }
        o.build()
    }
}

fn rule_for<'r>(rules: &'r [Rule], metric: &str) -> Option<&'r Rule> {
    rules.iter().find(|r| metric.ends_with(r.suffix))
}

fn is_regression(rule: &Rule, prev: f64, new: f64) -> bool {
    let allowance = (rule.rel * prev.abs()).max(rule.abs);
    match rule.direction {
        Direction::HigherIsWorse => new - prev > allowance,
        Direction::LowerIsWorse => prev - new > allowance,
    }
}

/// Diffs `new` against `prev` under `rules`.
pub fn compare(prev: &Snapshot, new: &Snapshot, rules: &[Rule]) -> Comparison {
    let mut out = Comparison::default();
    if prev.schema != new.schema {
        out.incomparable = Some(format!("schema {} vs {}", prev.schema, new.schema));
        return out;
    }
    if prev.mode != new.mode {
        out.incomparable = Some(format!("mode \"{}\" vs \"{}\"", prev.mode, new.mode));
        return out;
    }
    for ps in &prev.scenarios {
        let Some(ns) = new.scenario(&ps.name) else {
            out.incomparable = Some(format!("scenario \"{}\" disappeared", ps.name));
            return out;
        };
        for (metric, &pv) in &ps.virt {
            // Metrics only one side has are layout drift within the same
            // schema version; skip rather than invent a baseline.
            let Some(&nv) = ns.virt.get(metric) else {
                continue;
            };
            let rule = rule_for(rules, metric);
            out.deltas.push(Delta {
                scenario: ps.name.clone(),
                metric: metric.clone(),
                prev: pv,
                new: nv,
                regression: rule.map(|r| is_regression(r, pv, nv)).unwrap_or(false),
                gated: rule.is_some(),
            });
        }
        for (name, pf) in &ps.fingerprints {
            if let Some(nf) = ns.fingerprints.get(name) {
                if nf != pf {
                    out.fingerprint_changes
                        .push(format!("{}/{}: {} -> {}", ps.name, name, pf, nf));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ScenarioSnapshot;

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
    fn within_noise_passes() {
        let prev = snap(&[("peak_queue_depth", 40.0), ("deliver_us_p99", 400.0)]);
        let new = snap(&[("peak_queue_depth", 55.0), ("deliver_us_p99", 440.0)]);
        let c = compare(&prev, &new, &default_rules());
        assert_eq!(c.exit_code(), 0, "{}", c.render());
    }

    #[test]
    fn queue_growth_beyond_threshold_fails() {
        let prev = snap(&[("peak_queue_depth", 40.0)]);
        let new = snap(&[("peak_queue_depth", 61.0)]);
        let c = compare(&prev, &new, &default_rules());
        assert_eq!(c.exit_code(), 1);
        assert_eq!(c.regressions().count(), 1);
        assert!(c.render().contains("REGRESSION"));
    }

    /// Events per virtual second is a cost of fixed work, not a
    /// throughput: a change that does the same work in fewer events is
    /// not a regression, and neither direction gates.
    #[test]
    fn event_rate_is_reported_but_never_gates() {
        let prev = snap(&[("events_per_virtual_sec", 1000.0)]);
        for new in [300.0, 3000.0] {
            let c = compare(
                &prev,
                &snap(&[("events_per_virtual_sec", new)]),
                &default_rules(),
            );
            assert_eq!(c.exit_code(), 0, "{}", c.render());
            assert!(c.render().contains("[ungated]"));
        }
    }

    #[test]
    fn latency_gain_is_not_a_regression() {
        let prev = snap(&[("deliver_us_p99", 1000.0)]);
        let new = snap(&[("deliver_us_p99", 100.0)]);
        let c = compare(&prev, &new, &default_rules());
        assert_eq!(c.exit_code(), 0);
    }

    #[test]
    fn latency_blowup_fails_and_small_abs_jitter_passes() {
        let prev = snap(&[("deliver_us_p99", 100.0)]);
        // +40us is above 25% of 100 but under the 50us absolute slack.
        let ok = compare(&prev, &snap(&[("deliver_us_p99", 140.0)]), &default_rules());
        assert_eq!(ok.exit_code(), 0, "{}", ok.render());
        let bad = compare(&prev, &snap(&[("deliver_us_p99", 200.0)]), &default_rules());
        assert_eq!(bad.exit_code(), 1);
    }

    #[test]
    fn capacity_knee_gates_exactly() {
        // The knee is a deterministic integer: a drop of even one user
        // fails, growth and equality pass.
        let prev = snap(&[("single_capacity_users", 28.0)]);
        let same = compare(
            &prev,
            &snap(&[("single_capacity_users", 28.0)]),
            &default_rules(),
        );
        assert_eq!(same.exit_code(), 0, "{}", same.render());
        let up = compare(
            &prev,
            &snap(&[("single_capacity_users", 29.0)]),
            &default_rules(),
        );
        assert_eq!(up.exit_code(), 0, "{}", up.render());
        let down = compare(
            &prev,
            &snap(&[("single_capacity_users", 27.0)]),
            &default_rules(),
        );
        assert_eq!(down.exit_code(), 1);
        assert!(down.render().contains("REGRESSION"));
    }

    #[test]
    fn lens_rules_gate_knee_and_divergence_exactly() {
        // Lens knees gate like capacity knees: any shrink fails.
        let prev = snap(&[
            ("perfect_lens_knee", 6.0),
            ("perfect_xval_divergences", 0.0),
        ]);
        let same = compare(&prev, &prev, &default_rules());
        assert_eq!(same.exit_code(), 0, "{}", same.render());
        let knee_down = compare(
            &prev,
            &snap(&[
                ("perfect_lens_knee", 5.0),
                ("perfect_xval_divergences", 0.0),
            ]),
            &default_rules(),
        );
        assert_eq!(knee_down.exit_code(), 1);
        // A queueing-model row drifting outside tolerance is a bug.
        let diverged = compare(
            &prev,
            &snap(&[
                ("perfect_lens_knee", 6.0),
                ("perfect_xval_divergences", 1.0),
            ]),
            &default_rules(),
        );
        assert_eq!(diverged.exit_code(), 1);
        assert!(diverged.render().contains("REGRESSION"));
    }

    #[test]
    fn ungated_metrics_never_fail() {
        let prev = snap(&[("spans_total", 10.0)]);
        let new = snap(&[("spans_total", 100_000.0)]);
        let c = compare(&prev, &new, &default_rules());
        assert_eq!(c.exit_code(), 0);
        assert!(c.render().contains("[ungated]"));
    }

    #[test]
    fn mode_and_schema_mismatch_are_incomparable() {
        let prev = snap(&[]);
        let mut other_mode = snap(&[]);
        other_mode.mode = "full".into();
        assert_eq!(compare(&prev, &other_mode, &default_rules()).exit_code(), 2);
        let mut other_schema = snap(&[]);
        other_schema.schema = 99;
        assert_eq!(
            compare(&prev, &other_schema, &default_rules()).exit_code(),
            2
        );
    }

    #[test]
    fn lost_scenario_is_incomparable() {
        let prev = snap(&[]);
        let new = Snapshot::new("smoke");
        assert_eq!(compare(&prev, &new, &default_rules()).exit_code(), 2);
    }

    #[test]
    fn json_verdict_parses_and_carries_the_exit_code() {
        use publishing_obs::json::parse;
        let prev = snap(&[("deliver_us_p99", 1000.0)]);
        let new = snap(&[("deliver_us_p99", 1500.0)]);
        let c = compare(&prev, &new, &default_rules());
        let doc = parse(&c.to_json(None).write()).expect("valid json");
        assert_eq!(doc.get("exit_code").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("regressions").and_then(Json::as_f64), Some(1.0));
        let Some(Json::Arr(deltas)) = doc.get("deltas") else {
            panic!("deltas array");
        };
        assert_eq!(deltas.len(), 1);
        assert_eq!(
            deltas[0].get("metric").and_then(Json::as_str),
            Some("deliver_us_p99")
        );
        let incomparable = compare(&prev, &Snapshot::new("full"), &default_rules());
        let doc = parse(&incomparable.to_json(None).write()).expect("valid json");
        assert_eq!(doc.get("exit_code").and_then(Json::as_f64), Some(2.0));
        assert!(doc.get("incomparable").and_then(Json::as_str).is_some());
    }

    #[test]
    fn fingerprint_changes_are_informational() {
        let prev = snap(&[]);
        let mut new = snap(&[]);
        new.scenarios[0].fingerprint("output", 2);
        let c = compare(&prev, &new, &default_rules());
        assert_eq!(c.exit_code(), 0);
        assert_eq!(c.fingerprint_changes.len(), 1);
    }
}
