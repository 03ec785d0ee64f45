//! The regression-forensics engine: differential run attribution.
//!
//! `compare` says *what* moved; this module says *why*. It diffs two
//! runs at two granularities and produces the ranked diagnosis types of
//! `publishing_obs::forensics`:
//!
//! - **Snapshot level** ([`diff_snapshots`]): runs the exact differ,
//!   then gives one finding per scenario in which anything moved. Its
//!   subject is the scenario's largest relative mover outside the
//!   *attribution families*; its suspects are the families that moved —
//!   the virtual-time profile categories (`profile_*_ms`), the per-kind
//!   ledger busy times (`util_*_busy_ms`), critical-path stage times
//!   (`critical_path_*`) and what-if knee predictions
//!   (`*_predicted` / `*_confirmed`) — ranked by relative change in
//!   either direction, a binding-resource flip first.
//! - **Report level** ([`diff_reports`]): stage-latency histogram bin
//!   diffs, per-resource ledger shifts, profile-category deltas, and
//!   the full hop-by-hop critical-path alignment
//!   (`publishing_obs::causal::align_paths`).
//!
//! Significance is deterministic: virtual metrics are exactly
//! replayable, so *any* delta above quantization is real
//! ([`NOISE_FLOOR`](crate::compare::NOISE_FLOOR) only absorbs f64
//! round-off). Host cost is not this engine's subject — `hostbench`
//! measures it. The self-diff invariant — any run diffed against itself
//! yields an empty diagnosis — holds by construction and is pinned by
//! proptests and the `forensics --smoke` CI gate.

use crate::compare::{compare, moved, scenario_names, Comparison, Delta};
use crate::snapshot::Snapshot;
use publishing_obs::causal::align_paths;
use publishing_obs::forensics::{Finding, ForensicsReport, Suspect, SuspectKind};
use publishing_obs::report::ObsReport;
use publishing_sim::stats::LogHistogram;

/// Suspects kept per finding, most suspicious first.
pub const TOP_K: usize = 3;

/// The attribution family a snapshot metric belongs to, if any.
fn suspect_kind(metric: &str) -> Option<SuspectKind> {
    if metric.starts_with("profile_")
        || metric.ends_with("_predicted")
        || metric.ends_with("_confirmed")
    {
        Some(SuspectKind::Stage)
    } else if metric.starts_with("util_") {
        Some(SuspectKind::Resource)
    } else if metric.starts_with("critical_path_") {
        Some(SuspectKind::CriticalPath)
    } else {
        None
    }
}

/// Orders moved metrics by relative change, largest first, in either
/// direction. A side a metric is missing from reads as zero. Changes are
/// relative to the previous value with a scale floor (1 % of the largest
/// magnitude among `deltas`), so a metric appearing from zero cannot
/// drown an exact doubling; ties break by name, so the order is
/// deterministic.
fn by_relative_change(mut deltas: Vec<&Delta<f64>>) -> Vec<&Delta<f64>> {
    let ends = |d: &Delta<f64>| (d.prev.unwrap_or(0.0), d.new.unwrap_or(0.0));
    let scale = deltas
        .iter()
        .map(|d| {
            let (p, n) = ends(d);
            p.abs().max(n.abs())
        })
        .fold(0.0, f64::max);
    let floor = (scale * 0.01).max(1e-9);
    let rel = |d: &Delta<f64>| {
        let (p, n) = ends(d);
        (n - p).abs() / p.abs().max(floor)
    };
    deltas.sort_by(|a, b| rel(b).total_cmp(&rel(a)).then_with(|| a.name.cmp(&b.name)));
    deltas
}

/// The suspect for a binding resource that changed identity.
fn binding_flip(prev: &str, new: &str) -> Suspect {
    Suspect {
        kind: SuspectKind::BindingFlip,
        name: "binding".into(),
        prev: 0.0,
        new: 0.0,
        detail: format!("{prev} -> {new}"),
    }
}

/// The [`TOP_K`] suspects that moved most in absolute terms, ties by name.
fn top_by_abs_delta(mut suspects: Vec<Suspect>) -> Vec<Suspect> {
    suspects.sort_by(|a, b| {
        b.delta()
            .abs()
            .total_cmp(&a.delta().abs())
            .then_with(|| a.name.cmp(&b.name))
    });
    suspects.truncate(TOP_K);
    suspects
}

/// Runs the exact differ over two snapshots and explains it: one finding
/// per scenario in which anything moved. Returns both: the comparison
/// carries the exit-code contract, the forensics report the diagnosis.
/// Diffing a snapshot against itself yields no findings.
pub fn diff_snapshots(
    baseline: &str,
    prev: &Snapshot,
    new: &Snapshot,
) -> (Comparison, ForensicsReport) {
    let c = compare(prev, new);
    let mut report = ForensicsReport {
        baseline: baseline.to_string(),
        findings: Vec::new(),
    };
    for name in scenario_names(prev, new) {
        let fingerprints: Vec<&Delta<String>> = c
            .fingerprints
            .iter()
            .filter(|f| f.scenario == name)
            .collect();
        let (families, others): (Vec<_>, Vec<_>) = c
            .metrics
            .iter()
            .filter(|d| d.scenario == name)
            .partition(|d| suspect_kind(&d.name).is_some());
        if families.is_empty() && others.is_empty() && fingerprints.is_empty() {
            continue;
        }
        // A binding flip outranks everything: the run is on a different
        // bottleneck, so per-metric change is downstream of that.
        let flip = fingerprints
            .iter()
            .find_map(|f| match (&*f.name, &f.prev, &f.new) {
                ("binding", Some(pb), Some(nb)) => Some(binding_flip(pb, nb)),
                _ => None,
            });
        let ranked = by_relative_change(families).into_iter().map(|d| Suspect {
            kind: suspect_kind(&d.name).expect("a family metric"),
            name: d.name.clone(),
            prev: d.prev.unwrap_or(0.0),
            new: d.new.unwrap_or(0.0),
            detail: match (d.prev, d.new) {
                (None, _) => "only in new".into(),
                (_, None) => "only in prev".into(),
                _ => String::new(),
            },
        });
        // When nothing outside the families moved, the subject is a
        // changed fingerprint, or the families themselves.
        let (subject, sp, sn) = match by_relative_change(others).first() {
            Some(d) => (d.name.clone(), d.prev.unwrap_or(0.0), d.new.unwrap_or(0.0)),
            None => (
                fingerprints
                    .first()
                    .map_or("attribution".into(), |f| f.name.clone()),
                0.0,
                0.0,
            ),
        };
        report.findings.push(Finding {
            scenario: name.to_string(),
            subject,
            prev: sp,
            new: sn,
            suspects: flip.into_iter().chain(ranked).take(TOP_K).collect(),
        });
    }
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
                suspects: vec![binding_flip(&pb, &nb)],
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
            if moved(pr.busy_ms, nr.busy_ms) {
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
            report.findings.push(Finding {
                scenario: scenario.clone(),
                subject: "utilization".into(),
                prev: 0.0,
                new: 0.0,
                suspects: top_by_abs_delta(shifts),
            });
        }
    }
    match (&prev.critical_path, &new.critical_path) {
        (Some(pc), Some(nc)) => {
            let al = align_paths(pc, nc);
            if !al.is_clean() {
                let hops: Vec<Suspect> = al
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
                report.findings.push(Finding {
                    scenario,
                    subject: "critical_path".into(),
                    prev: al.baseline_total_ms,
                    new: al.run_total_ms,
                    suspects: top_by_abs_delta(hops),
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
    use crate::snapshot::ScenarioSnapshot;
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
            ("publish_to_deliver_us_p50", 8192.0),
            ("publish_to_deliver_us_p99", 16384.0),
            ("profile_kernel_cpu_ms", 10.0),
            ("util_cpu_proto_busy_ms", 12.0),
            ("util_medium_busy_ms", 40.0),
        ]));
        let new = snap(scenario(&[
            ("publish_to_deliver_us_p50", 8192.0),
            ("publish_to_deliver_us_p99", 32768.0),
            ("profile_kernel_cpu_ms", 20.0),
            ("util_cpu_proto_busy_ms", 24.0),
            ("util_medium_busy_ms", 41.0),
        ]));
        let (c, report) = diff_snapshots("base", &prev, &new);
        assert_eq!(c.exit_code(), 1);
        assert_eq!(report.findings.len(), 1, "{}", report.render());
        let f = &report.findings[0];
        assert_eq!(f.subject, "publish_to_deliver_us_p99");
        // kernel_cpu and cpu_proto both doubled (rel +1.0); the medium
        // barely moved. Ties break by name: profile_ before util_.
        let names: Vec<&str> = f.suspects.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "profile_kernel_cpu_ms",
                "util_cpu_proto_busy_ms",
                "util_medium_busy_ms"
            ]
        );
    }

    /// Suspects rank by relative change whichever way they moved: a
    /// halved resource outranks one that grew by a quarter.
    #[test]
    fn suspects_rank_by_change_in_either_direction() {
        let prev = snap(scenario(&[
            ("at_ms", 100.0),
            ("util_transport_busy_ms", 40.0),
            ("util_cpu_proto_busy_ms", 40.0),
        ]));
        let new = snap(scenario(&[
            ("at_ms", 120.0),
            ("util_transport_busy_ms", 20.0),
            ("util_cpu_proto_busy_ms", 50.0),
        ]));
        let (_, report) = diff_snapshots("base", &prev, &new);
        let f = &report.findings[0];
        assert_eq!(f.subject, "at_ms");
        assert_eq!(f.suspects[0].name, "util_transport_busy_ms");
        assert_eq!(f.suspects[1].name, "util_cpu_proto_busy_ms");
    }

    #[test]
    fn a_knees_suspects_are_the_whatif_predictions_that_moved() {
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
        assert_eq!(f.suspects.len(), 1);
        assert_eq!(f.suspects[0].name, "perfect_proto_cpu_predicted");
        assert_eq!(f.suspects[0].kind, SuspectKind::Stage);
    }

    #[test]
    fn a_binding_flip_alone_is_a_finding_with_the_flip_as_suspect() {
        let mut a = scenario(&[("spans_total", 10.0)]);
        a.fingerprints.insert("binding".into(), "recv 2".into());
        let mut b = scenario(&[("spans_total", 10.0)]);
        b.fingerprints.insert("binding".into(), "medium".into());
        let (c, report) = diff_snapshots("base", &snap(a), &snap(b));
        assert_eq!(c.exit_code(), 1, "a changed fingerprint moved");
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].subject, "binding");
        assert_eq!(report.findings[0].suspects[0].detail, "recv 2 -> medium");
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
