//! The rendered shapes of the `ObsReport` artifact, on one fully
//! populated report.
//!
//! The JSON shape grew by addition only, and this file is the statement
//! of what that means: a reader written against any version keeps
//! working as long as the current render still carries every key that
//! version introduced (the table in
//! `current_render_carries_every_key_of_every_version`), and omits the
//! optional sections nobody populated. Two canned artifacts are kept:
//! the shape the code can no longer produce — a version-1 report
//! without the `schema` field — and, under `fixtures/`, the bytes the
//! hand-written `format!` emitters produced for the populated report
//! and a two-finding diagnosis, which the value writer that replaced
//! them must reproduce exactly.

use publishing_obs::causal::{CriticalPath, Segment};
use publishing_obs::forensics::{Finding, ForensicsReport, Suspect, SuspectKind};
use publishing_obs::json::{parse, Json};
use publishing_obs::probe::{MediumHealth, QuorumHealth, RecoveryLag, SchedulerProbe, ShardHealth};
use publishing_obs::report::{ObsReport, WorkloadStats, REPORT_SCHEMA_VERSION};
use publishing_obs::{
    ConsensusStats, UtilizationReport, WatchdogSummary, WhatIfReport, WhatIfRow, XvalRow,
};
use publishing_sim::ledger::{ResourceKind, ResourceUsage};
use publishing_sim::stats::LinearHistogram;
use publishing_sim::time::{SimDuration, SimTime};

/// A trimmed-down report rendered by the pre-v2 code: no `schema`, no
/// `spans_partial`, no `critical_path`, recovery entries without the
/// window fields.
const V1_REPORT: &str = r#"{"at_ms":100.0,"spans_total":42,"span_fingerprint":"0x00000000deadbeef","shards":[{"shard":0,"live":true,"catching_up":false,"queue_depth":0,"known_processes":3,"recoveries_in_flight":0,"replay_lag":0,"gating_stalls":1,"published":10}],"recovery":[{"pid":17,"recovering":false,"messages_behind":2,"checkpoint_age_ms":5.5,"suppressed":0}],"sched":{"delivered":90,"scheduled":96,"pending":6,"peak_pending":14},"profile":{"kernel_cpu":10.0},"metrics":{"node/0/kernel/msgs_sent":7}}"#;

/// The sections added after version 2, all optional.
const OPTIONAL_SECTIONS: &[&str] = &[
    "critical_path",
    "quorum",
    "consensus",
    "watchdog",
    "workload",
    "utilization",
    "whatif",
    "forensics",
];

/// Schema of a parsed report document: the explicit `schema` number, or
/// 1 when the field is absent (the pre-versioning shape).
fn schema_of(doc: &Json) -> u32 {
    doc.get("schema").and_then(Json::as_f64).unwrap_or(1.0) as u32
}

/// Walks a `/`-separated path of object keys and array indices.
fn at<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('/').try_fold(doc, |v, step| match v {
        Json::Arr(items) => items.get(step.parse::<usize>().ok()?),
        _ => v.get(step),
    })
}

/// A report with every section of every schema version populated.
fn full_report() -> ObsReport {
    let mut report = ObsReport {
        at_ms: 100.0,
        spans_total: 42,
        span_fingerprint: 0xdead_beef,
        horizon: SimDuration::from_millis(100),
        ..Default::default()
    };
    report.latencies.partial = 3;
    report.metrics.counter("node/0/kernel/msgs_sent", 7);
    report.metrics.gauge("medium/utilization", 0.125);
    report
        .profile
        .charge("kernel_cpu", SimDuration::from_millis(10));
    report.medium = Some(MediumHealth {
        utilization: 0.125,
        submitted: 96,
        delivered: 90,
        collisions: 4,
        lost: 1,
        gating_stalls: 1,
        aborted: 0,
    });
    report.shards.push(ShardHealth {
        shard: 0,
        live: true,
        catching_up: false,
        queue_depth: 0,
        known_processes: 3,
        recoveries_in_flight: 0,
        replay_lag: 0,
        gating_stalls: 1,
        published: 10,
    });
    report.sched = SchedulerProbe {
        delivered: 90,
        scheduled: 96,
        pending: 6,
        peak_pending: 14,
    };
    let mut depths = LinearHistogram::new(0.0, 1.0, 32);
    for d in [0.0, 1.0, 1.0, 2.0, 5.0] {
        depths.record(d);
    }
    report.queue_depths = Some(depths);
    report.recovery.push(RecoveryLag {
        subject: 17,
        recovering: false,
        messages_behind: 2,
        checkpoint_age_ms: 5.5,
        suppressed: 0,
        recovery_ms: 12.5,
        critical_path_ms: 9.0,
    });
    report.critical_path = Some(CriticalPath {
        crash_at: SimTime::from_millis(50),
        converged_at: SimTime::from_millis(59),
        segments: vec![Segment {
            category: "replay",
            kind: None,
            from: SimTime::from_millis(50),
            to: SimTime::from_millis(59),
            label: "replay hop".into(),
        }],
    });
    report.quorum.push(QuorumHealth {
        replica: 0,
        live: true,
        leader: true,
        term: 2,
        elections: 1,
        commit_index: 40,
        applied_index: 40,
        replication_lag: 0,
        compacted: 0,
    });
    report.consensus = Some(ConsensusStats {
        commits: 40,
        commit_p50_us: 900,
        commit_p99_us: 4200,
        replication_lag_p95: 2.0,
        elections: 2,
    });
    report.watchdog = Some(WatchdogSummary {
        checks: 123,
        violations: vec!["commit index moved backwards".into()],
    });
    report.workload = Some(WorkloadStats {
        offered: 200,
        delivered: 180,
        offered_per_sec: 500.0,
        slo_violations: vec!["deliver p99 262144us > 150000us".into()],
    });
    report.utilization = Some(UtilizationReport {
        window_ms: 100.0,
        bin_ms: 16.78,
        resources: vec![ResourceUsage {
            kind: ResourceKind::Transport,
            name: "xport 0->2".into(),
            index: 0,
            peer: 2,
            busy_ms: 95.0,
            window_ms: 100.0,
            util: 0.95,
            active_util: 0.95,
            peak_util: 0.98,
            mean_queue: 7.5,
            peak_queue: 12,
            events: 88,
            contention: 0,
        }],
        xval: vec![XvalRow::check("medium", "utilization", 0.50, 0.52, 0.20)],
    });
    report.whatif = Some(WhatIfReport {
        baseline_knee: 141,
        rows: vec![WhatIfRow {
            knob: "sink_recv".into(),
            multiplier: 0.5,
            predicted_knee: 280,
            confirmed_knee: Some(270),
            binding_after: "medium".into(),
        }],
    });
    report.forensics = Some(ForensicsReport {
        baseline: "BENCH_1".into(),
        findings: vec![Finding {
            scenario: "ab_trial".into(),
            subject: "publish_to_deliver_us_p99".into(),
            prev: 262144.0,
            new: 2097152.0,
            suspects: vec![Suspect {
                kind: SuspectKind::Resource,
                name: "util_cpu_proto_busy_ms".into(),
                prev: 5073.3,
                new: 10146.6,
                detail: "what-if knob: proto_cpu".into(),
            }],
        }],
    });
    report
}

#[test]
fn v1_report_without_schema_field_still_reads() {
    let doc = parse(V1_REPORT).expect("v1 artifact parses");
    assert_eq!(schema_of(&doc), 1, "absent schema field means version 1");
    // Every v1 section is still addressable.
    assert_eq!(at(&doc, "spans_total"), Some(&Json::Int(42)));
    assert_eq!(
        at(&doc, "span_fingerprint"),
        Some(&Json::Str("0x00000000deadbeef".into()))
    );
    assert_eq!(at(&doc, "recovery/0/pid"), Some(&Json::Int(17)));
    // Later fields are simply absent, not an error.
    assert_eq!(at(&doc, "spans_partial"), None);
    assert_eq!(at(&doc, "recovery/0/recovery_ms"), None);
    for section in OPTIONAL_SECTIONS {
        assert_eq!(at(&doc, section), None, "{section}");
    }
}

#[test]
fn current_render_carries_every_key_of_every_version() {
    let (int, num) = (Json::Int, Json::Num);
    let text = |s: &str| Json::Str(s.into());
    let doc = parse(&full_report().render_json()).expect("current artifact parses");
    assert_eq!(schema_of(&doc), REPORT_SCHEMA_VERSION);
    for (path, want) in [
        // v1
        ("spans_total", int(42)),
        ("span_fingerprint", text("0x00000000deadbeef")),
        ("recovery/0/pid", int(17)),
        ("shards/0/published", int(10)),
        ("medium/collisions", int(4)),
        ("sched/peak_pending", int(14)),
        ("queue_depths/n", int(5)),
        ("profile/kernel_cpu", num(10.0)),
        // v2
        ("spans_partial", int(3)),
        ("recovery/0/recovery_ms", num(12.5)),
        ("critical_path/total_ms", num(9.0)),
        // v3
        ("quorum/0/leader", Json::Bool(true)),
        ("consensus/commits", int(40)),
        ("consensus/commit_p99_us", int(4200)),
        ("watchdog/checks", int(123)),
        (
            "watchdog/violations/0",
            text("commit index moved backwards"),
        ),
        // v4
        ("workload/offered", int(200)),
        ("workload/delivered", int(180)),
        ("workload/goodput", num(0.9)),
        (
            "workload/slo_violations/0",
            text("deliver p99 262144us > 150000us"),
        ),
        // v5
        ("utilization/binding", text("xport 0->2")),
        ("utilization/resources/0/kind", text("transport")),
        ("utilization/xval/0/ok", Json::Bool(true)),
        ("whatif/baseline_knee", int(141)),
        ("whatif/rows/0/knob", text("sink_recv")),
        // v6
        ("forensics/baseline", text("BENCH_1")),
        (
            "forensics/findings/0/subject",
            text("publish_to_deliver_us_p99"),
        ),
        ("forensics/findings/0/suspects/0/kind", text("resource")),
        (
            "forensics/findings/0/suspects/0/delta",
            num(10146.6 - 5073.3),
        ),
    ] {
        assert_eq!(at(&doc, path), Some(&want), "{path}");
    }
    // One element each, not merely a first one.
    for list in [
        "watchdog/violations",
        "workload/slo_violations",
        "forensics/findings",
    ] {
        assert_eq!(
            at(&doc, list).and_then(Json::as_arr).map(<[_]>::len),
            Some(1)
        );
    }
}

#[test]
fn optional_sections_are_omitted_by_default() {
    // A report nobody attached a section to renders none of them — a
    // reader of an older version that ignores unknown keys sees nothing
    // new beyond the schema bump.
    let report = ObsReport {
        at_ms: 100.0,
        ..Default::default()
    };
    let doc = parse(&report.render_json()).expect("default artifact parses");
    assert_eq!(schema_of(&doc), REPORT_SCHEMA_VERSION);
    for section in OPTIONAL_SECTIONS {
        assert_eq!(at(&doc, section), None, "{section}");
    }
}

/// Two findings whose strings and numbers exercise every branch of the
/// writer: each escape, a non-ASCII character, whole / fractional /
/// negative / beyond-1e15 floats, an empty detail.
fn two_findings() -> ForensicsReport {
    ForensicsReport {
        baseline: "perf/BENCH_1.json".into(),
        findings: vec![
            Finding {
                scenario: "ab_trial".into(),
                subject: "publish_to_deliver_us_p99".into(),
                prev: 16384.0,
                new: 32768.5,
                suspects: vec![
                    Suspect {
                        kind: SuspectKind::Stage,
                        name: "profile_kernel_cpu_ms".into(),
                        prev: 10.0,
                        new: 20.25,
                        detail: "what-if knob: \"proto_cpu\" \\ tab\there".into(),
                    },
                    Suspect {
                        kind: SuspectKind::BindingFlip,
                        name: "binding".into(),
                        prev: 0.0,
                        new: -0.000125,
                        detail: "recv 2 → medium\nsecond line \u{1} \r".into(),
                    },
                ],
            },
            Finding {
                scenario: "run".into(),
                subject: "critical_path".into(),
                prev: 2e15,
                new: 1e-7,
                suspects: vec![Suspect {
                    kind: SuspectKind::CriticalPath,
                    name: "hop 3".into(),
                    prev: -3.0,
                    new: 12345678.9,
                    detail: String::new(),
                }],
            },
        ],
    }
}

#[test]
fn value_writer_reproduces_the_hand_emitters_bytes() {
    // Rendered at the last commit that had the `format!` emitters, from
    // these same two constructors.
    let report = full_report().render_json();
    assert_eq!(report, include_str!("fixtures/full_report.json"));
    assert_eq!(
        two_findings().to_ndjson(),
        include_str!("fixtures/two_findings.ndjson")
    );
    // And reading the artifact back loses nothing the writer needs.
    assert_eq!(parse(&report).expect("parses").write(), report);
}

#[test]
fn text_report_has_all_sections() {
    let text = full_report().render_text();
    for want in [
        "obs report v6 @ 100.000ms",
        "partial=3",
        "medium:",
        "shard health:",
        "recovery lag:",
        "recovered_in=12.500ms",
        "recovery critical path:",
        "replay hop",
        "quorum health:",
        "consensus:",
        "commit_p99=4200us",
        "watchdog: checks=123 violations=1",
        "! commit index moved backwards",
        "workload:",
        "offered=200 (500.0/s) delivered=180 goodput=90.0% slo_violations=1",
        "! deliver p99 262144us > 150000us",
        "resource utilization:",
        "binding=xport 0->2",
        "<-- saturated",
        "queueing cross-validation:",
        "what-if profiler:",
        "baseline_knee=141",
        "sink_recv x0.50: predicted_knee=280 confirmed=270",
        "forensics:",
        "diff vs BENCH_1: 1 finding(s)",
        "#1 [resource] util_cpu_proto_busy_ms",
        "stage latencies:",
        "scheduler:",
        "peak_pending=14",
        "recorder queue depth: n=5",
        "virtual-time profile:",
        "node/0/kernel/msgs_sent = 7",
    ] {
        assert!(text.contains(want), "missing {want:?} in:\n{text}");
    }
}
