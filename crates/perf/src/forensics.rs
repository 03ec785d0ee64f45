//! The regression-forensics engine: differential run attribution.
//!
//! `compare` can say *that* a gated metric crossed its threshold;
//! this module says *why*. It diffs two runs at two granularities and
//! produces the ranked diagnosis types of `publishing_obs::forensics`:
//!
//! - **Snapshot level** ([`diff_snapshots`] / [`explain_comparison`]):
//!   runs the standard comparator, then attributes every violated rule
//!   to the snapshot's *attribution families* — the virtual-time
//!   profile categories (`profile_*_ms`), the per-kind ledger busy
//!   times (`util_*_busy_ms`), critical-path stage times
//!   (`critical_path_*_ms`) and what-if knee predictions (for knee
//!   rules) — ranked by how far each moved in the "more work"
//!   direction. Binding-resource flips are diagnosed even when no rule
//!   fired.
//! - **Report level** ([`diff_reports`]): stage-latency histogram bin
//!   diffs, per-resource ledger shifts, profile-category deltas, and
//!   the full hop-by-hop critical-path alignment
//!   (`publishing_obs::causal::align_paths`).
//!
//! Significance is deterministic: virtual metrics are exactly
//! replayable, so *any* delta above quantization is real
//! ([`NOISE_FLOOR`] exists only to absorb f64 round-off). Host cost is
//! not this engine's subject — `hostbench` measures it. The self-diff
//! invariant — any run diffed against itself yields an empty diagnosis
//! — holds by construction and is pinned by proptests and the
//! `forensics --smoke` CI gate.

use crate::compare::{compare, default_rules, Comparison};
use crate::snapshot::{ScenarioSnapshot, Snapshot};
use publishing_obs::causal::align_paths;
use publishing_obs::forensics::{Finding, ForensicsReport, Suspect, SuspectKind};
use publishing_obs::report::ObsReport;
use publishing_sim::stats::LogHistogram;

/// Significance floor for a virtual-metric delta, relative and absolute
/// (f64 round-off only — two same-seed runs are byte-identical, so
/// anything above this is a real change).
pub const NOISE_FLOOR: f64 = 1e-9;

/// Suspects kept per finding, most suspicious first.
pub const TOP_K: usize = 3;

/// One signed metric delta between two scenario snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub prev: f64,
    /// Candidate value.
    pub new: f64,
    /// Whether the delta clears [`NOISE_FLOOR`].
    pub significant: bool,
}

impl MetricDelta {
    /// Signed change, candidate minus baseline.
    pub fn delta(&self) -> f64 {
        self.new - self.prev
    }
}

fn clears_floor(prev: f64, new: f64) -> bool {
    // The floor is symmetric in (prev, new), so diff(a, b) and
    // diff(b, a) agree on significance — the antisymmetry invariant.
    (new - prev).abs() > (NOISE_FLOOR * prev.abs().max(new.abs())).max(NOISE_FLOOR)
}

/// Signed per-metric deltas between two scenario snapshots, in
/// metric-name order. Metrics present on only one side are layout drift,
/// not deltas, and are skipped (the comparator reports those
/// separately). Antisymmetry holds exactly: `metric_deltas(a, b)` and
/// `metric_deltas(b, a)` pair up with negated deltas and identical
/// significance verdicts.
pub fn metric_deltas(prev: &ScenarioSnapshot, new: &ScenarioSnapshot) -> Vec<MetricDelta> {
    let mut out = Vec::new();
    for (metric, &pv) in &prev.virt {
        let Some(&nv) = new.virt.get(metric) else {
            continue;
        };
        out.push(MetricDelta {
            metric: metric.clone(),
            prev: pv,
            new: nv,
            significant: clears_floor(pv, nv),
        });
    }
    out
}

/// Whether a violated metric is a capacity/lens knee, whose suspects
/// are *drops* in the what-if knee predictions rather than cost growth.
fn is_knee_metric(metric: &str) -> bool {
    metric.ends_with("capacity_users") || metric.ends_with("lens_knee")
}

fn suspect_kind(metric: &str, knee: bool) -> Option<SuspectKind> {
    if metric.starts_with("profile_") {
        Some(SuspectKind::Stage)
    } else if metric.starts_with("util_") {
        Some(SuspectKind::Resource)
    } else if metric.starts_with("critical_path_") {
        Some(SuspectKind::CriticalPath)
    } else if knee && (metric.ends_with("_predicted") || metric.ends_with("_confirmed")) {
        // A knee regression inherits the what-if matrix as its suspect
        // pool: the knob whose predicted knee collapsed names the
        // physics that moved.
        Some(SuspectKind::Stage)
    } else {
        None
    }
}

/// Ranks the attribution-family suspects behind one violated metric.
/// Cost families (profile, ledger busy time, critical-path stages) rank
/// by growth; knee rules additionally rank what-if
/// prediction *drops*. Scores are relative to the baseline value with a
/// small scale floor so a metric appearing from zero cannot drown an
/// exact doubling; ties break by metric name, so the ranking is
/// deterministic.
fn rank_suspects(prev: &ScenarioSnapshot, new: &ScenarioSnapshot, violated: &str) -> Vec<Suspect> {
    let knee = is_knee_metric(violated);
    // (worseness, suspect) candidates.
    let mut cands: Vec<(f64, Suspect)> = Vec::new();
    let mut scale: f64 = 0.0;
    for (metric, &pv) in &prev.virt {
        if metric == violated {
            continue;
        }
        let Some(&nv) = new.virt.get(metric) else {
            continue;
        };
        let Some(kind) = suspect_kind(metric, knee) else {
            continue;
        };
        if !clears_floor(pv, nv) {
            continue;
        }
        let prediction = knee && (metric.ends_with("_predicted") || metric.ends_with("_confirmed"));
        let worse = if prediction { pv - nv } else { nv - pv };
        if worse <= 0.0 {
            continue;
        }
        scale = scale.max(pv.abs()).max(nv.abs());
        cands.push((
            worse,
            Suspect {
                kind,
                name: metric.clone(),
                prev: pv,
                new: nv,
                detail: String::new(),
            },
        ));
    }
    let floor = (scale * 0.01).max(1e-9);
    let mut scored: Vec<(f64, Suspect)> = cands
        .into_iter()
        .map(|(worse, s)| (worse / s.prev.abs().max(floor), s))
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.name.cmp(&b.1.name)));
    let mut out: Vec<Suspect> = scored.into_iter().take(TOP_K).map(|(_, s)| s).collect();
    // A binding flip outranks everything: the run is on a different
    // bottleneck, so per-metric growth is downstream of that.
    if let Some(flip) = binding_flip(prev, new) {
        out.insert(0, flip);
        out.truncate(TOP_K);
    }
    out
}

/// The binding-flip suspect for a scenario pair, when the binding
/// resource recorded in the snapshots changed identity.
fn binding_flip(prev: &ScenarioSnapshot, new: &ScenarioSnapshot) -> Option<Suspect> {
    let (pb, nb) = (
        prev.fingerprints.get("binding")?,
        new.fingerprints.get("binding")?,
    );
    (pb != nb).then(|| Suspect {
        kind: SuspectKind::BindingFlip,
        name: "binding".into(),
        prev: 0.0,
        new: 0.0,
        detail: format!("{pb} -> {nb}"),
    })
}

/// Explains an existing comparator verdict: one finding per violated
/// rule with its ranked suspects, plus a standalone finding for a
/// binding flip in a scenario the rules let through. Diffing a snapshot
/// against itself yields no findings.
pub fn explain_comparison(
    baseline: &str,
    prev: &Snapshot,
    new: &Snapshot,
    c: &Comparison,
) -> ForensicsReport {
    let mut report = ForensicsReport {
        baseline: baseline.to_string(),
        findings: Vec::new(),
    };
    if c.incomparable.is_some() {
        return report;
    }
    for d in c.regressions() {
        let (Some(ps), Some(ns)) = (prev.scenario(&d.scenario), new.scenario(&d.scenario)) else {
            continue;
        };
        report.findings.push(Finding {
            scenario: d.scenario.clone(),
            subject: d.metric.clone(),
            prev: d.prev,
            new: d.new,
            suspects: rank_suspects(ps, ns, &d.metric),
        });
    }
    for ps in &prev.scenarios {
        let Some(ns) = new.scenario(&ps.name) else {
            continue;
        };
        if report.findings.iter().any(|f| f.scenario == ps.name) {
            continue;
        }
        if let Some(flip) = binding_flip(ps, ns) {
            report.findings.push(Finding {
                scenario: ps.name.clone(),
                subject: "binding_flip".into(),
                prev: 0.0,
                new: 0.0,
                suspects: vec![flip],
            });
        }
    }
    report
}

/// Runs the standard comparator over two snapshots and explains the
/// verdict. Returns both: the comparison still carries the exit-code
/// contract, the forensics report carries the diagnosis.
pub fn diff_snapshots(
    baseline: &str,
    prev: &Snapshot,
    new: &Snapshot,
) -> (Comparison, ForensicsReport) {
    let c = compare(prev, new, &default_rules());
    let report = explain_comparison(baseline, prev, new, &c);
    (c, report)
}

/// The lower bound of log-histogram bucket `i` in its recorded unit.
fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Bucket-level diff of two stage-latency histograms: a suspect per
/// differing bucket (virtual-time counts are exact, so any difference
/// is real), highest |count delta| first, ties by bucket order.
fn histogram_suspects(prev: &LogHistogram, new: &LogHistogram) -> Vec<Suspect> {
    let mut diffs: Vec<(u64, usize, Suspect)> = Vec::new();
    for i in 0..64 {
        let (pc, nc) = (prev.bucket(i), new.bucket(i));
        if pc == nc {
            continue;
        }
        diffs.push((
            pc.abs_diff(nc),
            i,
            Suspect {
                kind: SuspectKind::Stage,
                name: format!("{}us..{}us", bucket_lo(i), 1u64 << (i + 1).min(63)),
                prev: pc as f64,
                new: nc as f64,
                detail: format!("latency bucket {i}"),
            },
        ));
    }
    diffs.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    diffs.into_iter().take(TOP_K).map(|(_, _, s)| s).collect()
}

/// Report-level differential diagnosis: stage-latency histogram bin
/// diffs, virtual-time profile deltas, per-resource ledger shifts with
/// binding-flip detection, and the hop-by-hop critical-path alignment.
/// Diffing a report against itself yields an empty diagnosis.
pub fn diff_reports(baseline: &str, prev: &ObsReport, new: &ObsReport) -> ForensicsReport {
    let mut report = ForensicsReport {
        baseline: baseline.to_string(),
        findings: Vec::new(),
    };
    let scenario = "run".to_string();
    for (stage, ph, nh) in [
        (
            "publish_to_capture_us",
            &prev.latencies.publish_to_capture_us,
            &new.latencies.publish_to_capture_us,
        ),
        (
            "capture_to_sequence_us",
            &prev.latencies.capture_to_sequence_us,
            &new.latencies.capture_to_sequence_us,
        ),
        (
            "publish_to_deliver_us",
            &prev.latencies.publish_to_deliver_us,
            &new.latencies.publish_to_deliver_us,
        ),
    ] {
        let suspects = histogram_suspects(ph, nh);
        if !suspects.is_empty() {
            report.findings.push(Finding {
                scenario: scenario.clone(),
                subject: format!("{stage}_histogram"),
                prev: ph.summary().count() as f64,
                new: nh.summary().count() as f64,
                suspects,
            });
        }
    }
    let mut profile: Vec<Suspect> = Vec::new();
    for (name, pd) in prev.profile.iter() {
        let nd = new.profile.get(name);
        if pd != nd {
            profile.push(Suspect {
                kind: SuspectKind::Stage,
                name: name.to_string(),
                prev: pd.as_millis_f64(),
                new: nd.as_millis_f64(),
                detail: String::new(),
            });
        }
    }
    for (name, nd) in new.profile.iter() {
        // Categories charged only by the candidate run (get() treats
        // never-charged as zero, so prev-side zero is exact).
        if prev.profile.get(name) == publishing_sim::time::SimDuration::ZERO
            && nd != publishing_sim::time::SimDuration::ZERO
            && !profile.iter().any(|s| s.name == name)
        {
            profile.push(Suspect {
                kind: SuspectKind::Stage,
                name: name.to_string(),
                prev: 0.0,
                new: nd.as_millis_f64(),
                detail: "category appeared".into(),
            });
        }
    }
    if !profile.is_empty() {
        profile.sort_by(|a, b| {
            (b.new - b.prev)
                .total_cmp(&(a.new - a.prev))
                .then_with(|| a.name.cmp(&b.name))
        });
        profile.truncate(TOP_K);
        report.findings.push(Finding {
            scenario: scenario.clone(),
            subject: "profile".into(),
            prev: 0.0,
            new: 0.0,
            suspects: profile,
        });
    }
    if let (Some(pu), Some(nu)) = (&prev.utilization, &new.utilization) {
        let (pb, nb) = (
            pu.binding().map(|r| r.name.clone()).unwrap_or_default(),
            nu.binding().map(|r| r.name.clone()).unwrap_or_default(),
        );
        if pb != nb {
            report.findings.push(Finding {
                scenario: scenario.clone(),
                subject: "binding_flip".into(),
                prev: 0.0,
                new: 0.0,
                suspects: vec![Suspect {
                    kind: SuspectKind::BindingFlip,
                    name: "binding".into(),
                    prev: 0.0,
                    new: 0.0,
                    detail: format!("{pb} -> {nb}"),
                }],
            });
        }
        let mut shifts: Vec<Suspect> = Vec::new();
        for pr in &pu.resources {
            let Some(nr) = nu.resources.iter().find(|r| r.name == pr.name) else {
                shifts.push(Suspect {
                    kind: SuspectKind::Resource,
                    name: pr.name.clone(),
                    prev: pr.busy_ms,
                    new: 0.0,
                    detail: "resource disappeared".into(),
                });
                continue;
            };
            if clears_floor(pr.busy_ms, nr.busy_ms) {
                shifts.push(Suspect {
                    kind: SuspectKind::Resource,
                    name: pr.name.clone(),
                    prev: pr.busy_ms,
                    new: nr.busy_ms,
                    detail: format!("kind {}", pr.kind.label()),
                });
            }
        }
        for nr in &nu.resources {
            if !pu.resources.iter().any(|r| r.name == nr.name) {
                shifts.push(Suspect {
                    kind: SuspectKind::Resource,
                    name: nr.name.clone(),
                    prev: 0.0,
                    new: nr.busy_ms,
                    detail: "resource appeared".into(),
                });
            }
        }
        if !shifts.is_empty() {
            shifts.sort_by(|a, b| {
                (b.new - b.prev)
                    .abs()
                    .total_cmp(&(a.new - a.prev).abs())
                    .then_with(|| a.name.cmp(&b.name))
            });
            shifts.truncate(TOP_K);
            report.findings.push(Finding {
                scenario: scenario.clone(),
                subject: "utilization".into(),
                prev: 0.0,
                new: 0.0,
                suspects: shifts,
            });
        }
    }
    match (&prev.critical_path, &new.critical_path) {
        (Some(pc), Some(nc)) => {
            let al = align_paths(pc, nc);
            if !al.is_clean() {
                let mut hops: Vec<Suspect> = al
                    .hops
                    .iter()
                    .filter(|h| {
                        h.status != publishing_obs::causal::HopStatus::Matched
                            || h.delta_ms() != 0.0
                    })
                    .map(|h| Suspect {
                        kind: SuspectKind::CriticalPath,
                        name: h.category.to_string(),
                        prev: h.baseline_ms,
                        new: h.run_ms,
                        detail: format!("{} {}", h.status.label(), h.label),
                    })
                    .collect();
                hops.sort_by(|a, b| {
                    (b.new - b.prev)
                        .abs()
                        .total_cmp(&(a.new - a.prev).abs())
                        .then_with(|| a.name.cmp(&b.name))
                });
                hops.truncate(TOP_K);
                report.findings.push(Finding {
                    scenario,
                    subject: "critical_path".into(),
                    prev: al.baseline_total_ms,
                    new: al.run_total_ms,
                    suspects: hops,
                });
            }
        }
        (None, None) => {}
        (pc, nc) => {
            report.findings.push(Finding {
                scenario,
                subject: "critical_path".into(),
                prev: pc.as_ref().map_or(0.0, |p| p.total().as_millis_f64()),
                new: nc.as_ref().map_or(0.0, |p| p.total().as_millis_f64()),
                suspects: vec![Suspect {
                    kind: SuspectKind::CriticalPath,
                    name: "path_present".into(),
                    prev: f64::from(u8::from(pc.is_some())),
                    new: f64::from(u8::from(nc.is_some())),
                    detail: "recovery path on one side only".into(),
                }],
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use publishing_sim::time::{SimDuration, SimTime};

    fn scenario(pairs: &[(&str, f64)]) -> ScenarioSnapshot {
        let mut s = ScenarioSnapshot::new("t");
        for (k, v) in pairs {
            s.virt(*k, *v);
        }
        s
    }

    fn snap(sc: ScenarioSnapshot) -> Snapshot {
        let mut s = Snapshot::new("smoke");
        s.scenarios.push(sc);
        s
    }

    #[test]
    fn self_diff_is_empty() {
        let mut sc = scenario(&[
            ("publish_to_deliver_us_p99", 16384.0),
            ("profile_kernel_cpu_ms", 10.0),
            ("util_cpu_proto_busy_ms", 12.5),
        ]);
        sc.fingerprints.insert("binding".into(), "recv 2".into());
        let s = snap(sc);
        let (c, report) = diff_snapshots("self", &s, &s);
        assert_eq!(c.exit_code(), 0);
        assert!(report.is_empty(), "{}", report.render());
    }

    #[test]
    fn doubled_cpu_ranks_the_cpu_family_first() {
        let prev = snap(scenario(&[
            ("publish_to_deliver_us_p99", 16384.0),
            ("profile_kernel_cpu_ms", 10.0),
            ("util_cpu_proto_busy_ms", 12.0),
            ("util_medium_busy_ms", 40.0),
        ]));
        let new = snap(scenario(&[
            ("publish_to_deliver_us_p99", 32768.0),
            ("profile_kernel_cpu_ms", 20.0),
            ("util_cpu_proto_busy_ms", 24.0),
            ("util_medium_busy_ms", 41.0),
        ]));
        let (c, report) = diff_snapshots("base", &prev, &new);
        assert_eq!(c.exit_code(), 1);
        let f = &report.findings[0];
        assert_eq!(f.subject, "publish_to_deliver_us_p99");
        // kernel_cpu and cpu_proto both doubled (rel +1.0); the medium
        // barely moved. Ties break by name: profile_ before util_.
        assert_eq!(f.suspects[0].name, "profile_kernel_cpu_ms");
        assert_eq!(f.suspects[1].name, "util_cpu_proto_busy_ms");
        assert!(f
            .suspects
            .iter()
            .all(|s| s.name != "util_medium_busy_ms" || f.suspects.len() > 2));
    }

    #[test]
    fn knee_regression_inherits_whatif_prediction_drops() {
        let prev = snap(scenario(&[
            ("perfect_lens_knee", 141.0),
            ("perfect_proto_cpu_predicted", 282.0),
            ("perfect_wire_predicted", 141.0),
        ]));
        let new = snap(scenario(&[
            ("perfect_lens_knee", 70.0),
            ("perfect_proto_cpu_predicted", 140.0),
            ("perfect_wire_predicted", 141.0),
        ]));
        let (c, report) = diff_snapshots("base", &prev, &new);
        assert_eq!(c.exit_code(), 1);
        let f = &report.findings[0];
        assert_eq!(f.subject, "perfect_lens_knee");
        assert_eq!(f.suspects[0].name, "perfect_proto_cpu_predicted");
    }

    #[test]
    fn binding_flip_is_found_even_without_a_regression() {
        let mut a = scenario(&[("spans_total", 10.0)]);
        a.fingerprints.insert("binding".into(), "recv 2".into());
        let mut b = scenario(&[("spans_total", 10.0)]);
        b.fingerprints.insert("binding".into(), "medium".into());
        let (c, report) = diff_snapshots("base", &snap(a), &snap(b));
        assert_eq!(c.exit_code(), 0, "flip alone does not gate");
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].subject, "binding_flip");
        assert_eq!(report.findings[0].suspects[0].detail, "recv 2 -> medium");
    }

    #[test]
    fn metric_deltas_are_antisymmetric() {
        let a = scenario(&[("x", 10.0), ("y", 0.0)]);
        let b = scenario(&[("x", 12.0), ("y", 3.0)]);
        let ab = metric_deltas(&a, &b);
        let ba = metric_deltas(&b, &a);
        assert_eq!(ab.len(), ba.len());
        for (f, r) in ab.iter().zip(&ba) {
            assert_eq!(f.metric, r.metric);
            assert_eq!(f.delta(), -r.delta());
            assert_eq!(f.significant, r.significant);
        }
    }

    #[test]
    fn report_self_diff_is_empty_and_injected_latency_shows() {
        let mut prev = ObsReport {
            at_ms: 100.0,
            ..Default::default()
        };
        for x in [100u64, 200, 400] {
            prev.latencies.publish_to_deliver_us.record(x);
        }
        prev.profile
            .charge("kernel_cpu", SimDuration::from_millis(10));
        let selfd = diff_reports("self", &prev, &prev);
        assert!(selfd.is_empty(), "{}", selfd.render());
        let mut new = prev.clone();
        new.latencies.publish_to_deliver_us.record(100_000);
        new.profile
            .charge("kernel_cpu", SimDuration::from_millis(10));
        let d = diff_reports("base", &prev, &new);
        assert!(!d.is_empty());
        assert!(d
            .findings
            .iter()
            .any(|f| f.subject == "publish_to_deliver_us_histogram"));
        assert!(d.findings.iter().any(|f| f.subject == "profile"
            && f.suspects[0].name == "kernel_cpu"
            && f.suspects[0].new == 20.0));
    }

    #[test]
    fn report_diff_aligns_critical_paths() {
        use publishing_obs::causal::{CriticalPath, Segment};
        let seg = |cat: &'static str, from: u64, to: u64| Segment {
            category: cat,
            kind: None,
            from: SimTime::from_micros(from),
            to: SimTime::from_micros(to),
            label: format!("{cat} hop"),
        };
        let mut prev = ObsReport {
            at_ms: 100.0,
            ..Default::default()
        };
        prev.critical_path = Some(CriticalPath {
            crash_at: SimTime::from_micros(1000),
            converged_at: SimTime::from_micros(2000),
            segments: vec![seg("replay", 1000, 1700), seg("commit", 1700, 2000)],
        });
        let mut new = prev.clone();
        new.critical_path = Some(CriticalPath {
            crash_at: SimTime::from_micros(1000),
            converged_at: SimTime::from_micros(2600),
            segments: vec![seg("replay", 1000, 2300), seg("commit", 2300, 2600)],
        });
        let d = diff_reports("base", &prev, &new);
        let f = d
            .findings
            .iter()
            .find(|f| f.subject == "critical_path")
            .expect("path finding");
        assert_eq!(f.suspects[0].name, "replay");
        assert!((f.suspects[0].new - f.suspects[0].prev - 0.6).abs() < 1e-9);
    }
}
