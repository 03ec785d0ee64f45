//! Differential run forensics: the report-side diagnosis types.
//!
//! A forensics pass takes two runs — a baseline and a candidate — and
//! produces a ranked causal diagnosis of every delta worth explaining:
//! each [`Finding`] names what regressed or drifted (a violated
//! comparator rule, a binding-resource flip, a critical-path hop) and
//! carries its ranked [`Suspect`] list, most suspicious first. The
//! *types* live here because the diagnosis is part of the run artifact
//! (the report embeds an optional [`ForensicsReport`]); the diff
//! *engines* that populate them live in `publishing-perf::forensics`,
//! which sits above this crate and can see snapshots and comparator
//! verdicts.
//!
//! The load-bearing invariant, enforced by the `forensics --smoke` CI
//! gate and pinned by proptests: **a run diffed against itself produces
//! an empty diagnosis** ([`ForensicsReport::is_empty`]). Virtual-time
//! runs are exactly replayable, so any surviving finding is real.

use crate::json::{Json, ObjBuilder};

/// What a ranked suspect names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspectKind {
    /// A virtual-time profile category or pipeline stage.
    Stage,
    /// A ledger resource (per-kind busy time, utilization shift).
    Resource,
    /// The binding resource changed identity between the runs.
    BindingFlip,
    /// A crash→convergence critical-path hop.
    CriticalPath,
}

impl SuspectKind {
    /// Stable lowercase label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            SuspectKind::Stage => "stage",
            SuspectKind::Resource => "resource",
            SuspectKind::BindingFlip => "binding_flip",
            SuspectKind::CriticalPath => "critical_path",
        }
    }
}

/// One ranked cause candidate behind a [`Finding`].
#[derive(Debug, Clone)]
pub struct Suspect {
    /// What the suspect names.
    pub kind: SuspectKind,
    /// The stage/resource/metric pointed at.
    pub name: String,
    /// Baseline-side reading.
    pub prev: f64,
    /// Candidate-side reading.
    pub new: f64,
    /// Extra context: hop status, flip direction, remediation knob.
    pub detail: String,
}

impl Suspect {
    /// Signed change, candidate minus baseline.
    pub fn delta(&self) -> f64 {
        self.new - self.prev
    }
}

/// Formats a delta as a signed percentage when the baseline is nonzero.
fn pct(prev: f64, new: f64) -> String {
    if prev.abs() > 1e-12 {
        format!(" ({:+.1}%)", (new - prev) / prev.abs() * 100.0)
    } else {
        String::new()
    }
}

/// One diagnosed delta: a violated rule or drifted domain plus its
/// ranked suspects.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Scenario the finding belongs to (or a diff-domain label for
    /// report-level findings, e.g. `run`).
    pub scenario: String,
    /// What regressed or drifted: a gated metric name, or a domain such
    /// as `binding_flip`, `critical_path`, `utilization`.
    pub subject: String,
    /// Baseline-side value of the subject (0.0 for domain findings).
    pub prev: f64,
    /// Candidate-side value of the subject.
    pub new: f64,
    /// Ranked cause candidates, most suspicious first.
    pub suspects: Vec<Suspect>,
}

impl Finding {
    /// The finding as a JSON object.
    pub fn to_json(&self) -> Json {
        ObjBuilder::new()
            .field("scenario", &self.scenario)
            .field("subject", &self.subject)
            .field("prev", self.prev)
            .field("new", self.new)
            .field(
                "suspects",
                Json::arr(self.suspects.iter().map(|sp| {
                    ObjBuilder::new()
                        .field("kind", sp.kind.label())
                        .field("name", &sp.name)
                        .field("prev", sp.prev)
                        .field("new", sp.new)
                        .field("delta", sp.delta())
                        .field("detail", &sp.detail)
                })),
            )
            .build()
    }
}

/// The differential diagnosis of one run pair.
#[derive(Debug, Clone, Default)]
pub struct ForensicsReport {
    /// Label describing the baseline side of the diff.
    pub baseline: String,
    /// Diagnosed findings, in detection order.
    pub findings: Vec<Finding>,
}

impl ForensicsReport {
    /// `true` when the diagnosis found nothing — the self-diff
    /// invariant: any run diffed against itself must be empty.
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the diagnosis for a terminal.
    pub fn render(&self) -> String {
        let mut s = format!(
            "diff vs {}: {} finding(s)\n",
            self.baseline,
            self.findings.len()
        );
        for f in &self.findings {
            s.push_str(&format!(
                "  {}/{}: {:.3} -> {:.3}{}\n",
                f.scenario,
                f.subject,
                f.prev,
                f.new,
                pct(f.prev, f.new)
            ));
            for (i, sp) in f.suspects.iter().enumerate() {
                s.push_str(&format!(
                    "    #{} [{}] {} {:.3} -> {:.3}{}",
                    i + 1,
                    sp.kind.label(),
                    sp.name,
                    sp.prev,
                    sp.new,
                    pct(sp.prev, sp.new)
                ));
                if !sp.detail.is_empty() {
                    s.push_str(&format!("  — {}", sp.detail));
                }
                s.push('\n');
            }
        }
        s
    }

    /// The diagnosis as a JSON object (the report's `forensics` section).
    pub fn to_json(&self) -> Json {
        ObjBuilder::new()
            .field("baseline", &self.baseline)
            .field(
                "findings",
                Json::arr(self.findings.iter().map(Finding::to_json)),
            )
            .build()
    }

    /// Serializes the diagnosis as NDJSON: one finding object per line.
    pub fn to_ndjson(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            s.push_str(&f.to_json().write());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ForensicsReport {
        ForensicsReport {
            baseline: "perf/BENCH_1.json".into(),
            findings: vec![Finding {
                scenario: "ab_trial".into(),
                subject: "publish_to_deliver_us_p99".into(),
                prev: 16384.0,
                new: 32768.0,
                suspects: vec![
                    Suspect {
                        kind: SuspectKind::Stage,
                        name: "profile_kernel_cpu_ms".into(),
                        prev: 10.0,
                        new: 20.0,
                        detail: "what-if knob: proto_cpu".into(),
                    },
                    Suspect {
                        kind: SuspectKind::BindingFlip,
                        name: "binding".into(),
                        prev: 0.0,
                        new: 0.0,
                        detail: "recv 2 -> medium".into(),
                    },
                ],
            }],
        }
    }

    #[test]
    fn empty_report_is_empty_and_renders() {
        let r = ForensicsReport {
            baseline: "self".into(),
            findings: Vec::new(),
        };
        assert!(r.is_empty());
        assert_eq!(r.render(), "diff vs self: 0 finding(s)\n");
        assert_eq!(
            r.to_json().write(),
            "{\"baseline\":\"self\",\"findings\":[]}"
        );
        assert_eq!(r.to_ndjson(), "");
    }

    #[test]
    fn populated_report_renders_ranked_suspects() {
        let r = sample();
        assert!(!r.is_empty());
        let text = r.render();
        assert!(text.contains("1 finding(s)"));
        assert!(
            text.contains("ab_trial/publish_to_deliver_us_p99: 16384.000 -> 32768.000 (+100.0%)")
        );
        assert!(text.contains("#1 [stage] profile_kernel_cpu_ms 10.000 -> 20.000 (+100.0%)  — what-if knob: proto_cpu"));
        assert!(text.contains("#2 [binding_flip] binding"));
        let json = r.to_json().write();
        assert!(json.contains("\"baseline\":\"perf/BENCH_1.json\""));
        assert!(json.contains("\"kind\":\"stage\",\"name\":\"profile_kernel_cpu_ms\""));
        assert!(json.contains("\"delta\":10.0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let nd = r.to_ndjson();
        assert_eq!(nd.lines().count(), 1);
        assert!(nd.starts_with("{\"scenario\":\"ab_trial\""));
    }

    #[test]
    fn suspect_kind_labels_are_stable() {
        for (kind, want) in [
            (SuspectKind::Stage, "stage"),
            (SuspectKind::Resource, "resource"),
            (SuspectKind::BindingFlip, "binding_flip"),
            (SuspectKind::CriticalPath, "critical_path"),
        ] {
            assert_eq!(kind.label(), want);
        }
    }
}
