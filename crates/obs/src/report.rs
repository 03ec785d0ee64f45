//! The `obs_report` run artifact.
//!
//! A world driver assembles an [`ObsReport`] at any virtual instant:
//! the full metrics snapshot, the derived health probes, the stage
//! latencies, the virtual-time profile, and the run-level span
//! fingerprint. The report renders as human-readable text or as a
//! single JSON object; the metrics section additionally exports as
//! JSON lines via [`MetricsRegistry::to_jsonl`].

use crate::causal::CriticalPath;
use crate::probe::{MediumHealth, QuorumHealth, RecoveryLag, SchedulerProbe, ShardHealth};
use crate::profile::{StageLatencies, TimeProfile};
use crate::registry::{json_escape, json_f64, MetricValue, MetricsRegistry};
use publishing_sim::stats::LinearHistogram;
use publishing_sim::time::SimDuration;

/// Version of the report's rendered shape. History:
///
/// - **1**: the original shape (no explicit `schema` field in JSON —
///   readers treat its absence as version 1).
/// - **2**: adds `schema`, the optional `critical_path` section
///   (recovery window, per-stage attribution, top segments), and
///   `spans_partial`.
/// - **3**: adds the optional consensus sections — `quorum`
///   (per-replica health), `consensus` (commit-latency percentiles,
///   replication lag, elections), and `watchdog` (online invariant
///   checks and violations). All three are absent for worlds without
///   a quorum topology, so v2 readers that ignore unknown keys keep
///   working and v2 documents still parse.
/// - **4**: adds the optional `workload` section — offered load vs.
///   goodput and the SLO violations the run tripped — populated by
///   runs driven through the workload engine and absent everywhere
///   else, so v3 documents still parse and v3 readers keep working.
/// - **5**: adds the optional capacity-lens sections — `utilization`
///   (the typed per-resource busy/queue ledger, binding-resource call,
///   and queueing-model cross-validation rows) and `whatif` (the
///   virtual-speedup profiler's knee predictions). Both are absent
///   unless the run was metered, so v4 documents still parse and v4
///   readers keep working.
/// - **6**: adds the optional `forensics` section — the differential
///   diagnosis of this run against a named baseline (ranked suspects
///   per finding: stages, resources, binding flips, critical-path
///   hops). Absent unless a forensics pass diffed the run, so v5
///   documents still parse and v5 readers keep working.
pub const REPORT_SCHEMA_VERSION: u32 = 6;

/// Consensus-level aggregates for the quorum section (schema v3).
#[derive(Debug, Clone, Default)]
pub struct ConsensusStats {
    /// Proposals whose commit latency was measured on the leader.
    pub commits: u64,
    /// Median proposal→apply latency on the leader, µs.
    pub commit_p50_us: u64,
    /// 99th-percentile proposal→apply latency on the leader, µs.
    pub commit_p99_us: u64,
    /// 95th-percentile follower replication lag, entries.
    pub replication_lag_p95: f64,
    /// Leader elections observed across the group.
    pub elections: u64,
}

impl ConsensusStats {
    /// One-line terminal rendering.
    pub fn render(&self) -> String {
        format!(
            "commits={} commit_p50={}us commit_p99={}us replication_lag_p95={:.1} elections={}",
            self.commits,
            self.commit_p50_us,
            self.commit_p99_us,
            self.replication_lag_p95,
            self.elections
        )
    }
}

/// Outcome of the online invariant watchdog (schema v3).
#[derive(Debug, Clone, Default)]
pub struct WatchdogSummary {
    /// Invariant evaluations performed over the run.
    pub checks: u64,
    /// Violations the watchdog surfaced, in detection order.
    pub violations: Vec<String>,
}

/// Offered-load accounting for workload-driven runs (schema v4).
#[derive(Debug, Clone, Default)]
pub struct WorkloadStats {
    /// Messages the load drivers offered over the run.
    pub offered: u64,
    /// Messages the subject sinks acknowledged receiving.
    pub delivered: u64,
    /// Offered messages per logical second of driver horizon.
    pub offered_per_sec: f64,
    /// SLO predicates the run violated, in evaluation order (empty =
    /// the run met its objectives).
    pub slo_violations: Vec<String>,
}

impl WorkloadStats {
    /// Delivered fraction of the offered load, 0–1 (1.0 when nothing
    /// was offered).
    pub fn goodput(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }

    /// One-line terminal rendering.
    pub fn render(&self) -> String {
        format!(
            "offered={} ({:.1}/s) delivered={} goodput={:.1}% slo_violations={}",
            self.offered,
            self.offered_per_sec,
            self.delivered,
            self.goodput() * 100.0,
            self.slo_violations.len()
        )
    }
}

/// A complete observability snapshot of one run.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Rendered-shape version ([`REPORT_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Virtual time of the snapshot, in milliseconds.
    pub at_ms: f64,
    /// The full metrics snapshot.
    pub metrics: MetricsRegistry,
    /// Per-process recovery-lag probes.
    pub recovery: Vec<RecoveryLag>,
    /// Per-shard health probes (empty for unsharded worlds).
    pub shards: Vec<ShardHealth>,
    /// Medium probe, when the world drives a shared medium.
    pub medium: Option<MediumHealth>,
    /// Virtual-time attribution per category.
    pub profile: TimeProfile,
    /// The run horizon the profile fractions are computed against.
    pub horizon: SimDuration,
    /// Per-stage message latencies.
    pub latencies: StageLatencies,
    /// Event-queue statistics of the world's scheduler.
    pub sched: SchedulerProbe,
    /// Distribution of the recorder tier's pending-buffer depth, sampled
    /// at every capture (merged across shards). `None` for worlds that
    /// do not sample depth.
    pub queue_depths: Option<LinearHistogram>,
    /// Total lifecycle events recorded across all component logs.
    pub spans_total: u64,
    /// Run-level span fingerprint (determinism oracle).
    pub span_fingerprint: u64,
    /// Attributed crash→convergence critical path, when the run had a
    /// completed recovery.
    pub critical_path: Option<CriticalPath>,
    /// Per-replica consensus health (empty for non-quorum worlds).
    pub quorum: Vec<QuorumHealth>,
    /// Consensus-level aggregates, when the world runs a quorum.
    pub consensus: Option<ConsensusStats>,
    /// Invariant-watchdog outcome, when the world runs one.
    pub watchdog: Option<WatchdogSummary>,
    /// Offered-load accounting, when the run was driven by the
    /// workload engine.
    pub workload: Option<WorkloadStats>,
    /// Per-resource utilization ledger, when the world meters one.
    pub utilization: Option<crate::util::UtilizationReport>,
    /// What-if (virtual speedup) profiler results, when a lens run
    /// produced them.
    pub whatif: Option<crate::util::WhatIfReport>,
    /// Differential diagnosis against a baseline run, when a forensics
    /// pass diffed this run.
    pub forensics: Option<crate::forensics::ForensicsReport>,
}

impl Default for ObsReport {
    fn default() -> Self {
        ObsReport {
            schema: REPORT_SCHEMA_VERSION,
            at_ms: 0.0,
            metrics: MetricsRegistry::default(),
            recovery: Vec::new(),
            shards: Vec::new(),
            medium: None,
            profile: TimeProfile::default(),
            horizon: SimDuration::ZERO,
            latencies: StageLatencies::default(),
            sched: SchedulerProbe::default(),
            queue_depths: None,
            spans_total: 0,
            span_fingerprint: 0,
            critical_path: None,
            quorum: Vec::new(),
            consensus: None,
            watchdog: None,
            workload: None,
            utilization: None,
            whatif: None,
            forensics: None,
        }
    }
}

impl ObsReport {
    /// Renders the report for a terminal.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "obs report v{} @ {:.3}ms  spans={} partial={} fingerprint={:#018x}\n",
            self.schema,
            self.at_ms,
            self.spans_total,
            self.latencies.partial,
            self.span_fingerprint
        ));
        if let Some(m) = &self.medium {
            s.push_str("\nmedium:\n  ");
            s.push_str(&m.render());
            s.push('\n');
        }
        if !self.shards.is_empty() {
            s.push_str("\nshard health:\n");
            for h in &self.shards {
                s.push_str("  ");
                s.push_str(&h.render());
                s.push('\n');
            }
        }
        if !self.recovery.is_empty() {
            s.push_str("\nrecovery lag:\n");
            for r in &self.recovery {
                s.push_str("  ");
                s.push_str(&r.render());
                s.push('\n');
            }
        }
        if let Some(cp) = &self.critical_path {
            s.push_str("\nrecovery critical path:\n  ");
            s.push_str(&cp.render().trim_end().replace('\n', "\n  "));
            s.push('\n');
        }
        if !self.quorum.is_empty() {
            s.push_str("\nquorum health:\n");
            for h in &self.quorum {
                s.push_str("  ");
                s.push_str(&h.render());
                s.push('\n');
            }
        }
        if let Some(c) = &self.consensus {
            s.push_str("\nconsensus:\n  ");
            s.push_str(&c.render());
            s.push('\n');
        }
        if let Some(w) = &self.watchdog {
            s.push_str(&format!(
                "\nwatchdog: checks={} violations={}\n",
                w.checks,
                w.violations.len()
            ));
            for v in &w.violations {
                s.push_str("  ! ");
                s.push_str(v);
                s.push('\n');
            }
        }
        if let Some(wl) = &self.workload {
            s.push_str("\nworkload:\n  ");
            s.push_str(&wl.render());
            s.push('\n');
            for v in &wl.slo_violations {
                s.push_str("  ! ");
                s.push_str(v);
                s.push('\n');
            }
        }
        if let Some(u) = &self.utilization {
            s.push_str("\nresource utilization:\n");
            s.push_str(&u.render());
        }
        if let Some(w) = &self.whatif {
            s.push_str("\nwhat-if profiler:\n");
            s.push_str(&w.render());
        }
        if let Some(f) = &self.forensics {
            s.push_str("\nforensics:\n  ");
            s.push_str(&f.render().trim_end().replace('\n', "\n  "));
            s.push('\n');
        }
        s.push_str("\nstage latencies:\n");
        s.push_str(&self.latencies.render());
        s.push_str("\nscheduler:\n  ");
        s.push_str(&self.sched.render());
        s.push('\n');
        if let Some(h) = &self.queue_depths {
            s.push_str(&format!(
                "\nrecorder queue depth: n={} mean={:.2} p50={:.0} p95={:.0} p99={:.0} max={:.0}\n",
                h.summary().count(),
                h.summary().mean(),
                h.quantile(0.5),
                h.quantile(0.95),
                h.quantile(0.99),
                h.summary().max().unwrap_or(0.0),
            ));
        }
        s.push_str("\nvirtual-time profile:\n");
        s.push_str(&self.profile.render(self.horizon));
        s.push_str("\nmetrics:\n");
        s.push_str(&self.metrics.render_text());
        s
    }

    /// Renders the report as one JSON object.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"schema\":{},", self.schema));
        s.push_str(&format!("\"at_ms\":{},", json_f64(self.at_ms)));
        s.push_str(&format!("\"spans_total\":{},", self.spans_total));
        s.push_str(&format!("\"spans_partial\":{},", self.latencies.partial));
        s.push_str(&format!(
            "\"span_fingerprint\":\"{:#018x}\",",
            self.span_fingerprint
        ));
        if let Some(cp) = &self.critical_path {
            s.push_str(&format!(
                "\"critical_path\":{{\"crash_at_ms\":{},\"converged_at_ms\":{},\"total_ms\":{},\"by_stage\":{{",
                json_f64(cp.crash_at.as_millis_f64()),
                json_f64(cp.converged_at.as_millis_f64()),
                json_f64(cp.total().as_millis_f64())
            ));
            for (i, (cat, d)) in cp.by_stage().iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{cat}\":{}", json_f64(d.as_millis_f64())));
            }
            s.push_str("},\"top_segments\":[");
            for (i, seg) in cp.top_segments(3).iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"category\":\"{}\",\"from_ms\":{},\"to_ms\":{},\"label\":\"{}\"}}",
                    seg.category,
                    json_f64(seg.from.as_millis_f64()),
                    json_f64(seg.to.as_millis_f64()),
                    crate::registry::json_escape(&seg.label)
                ));
            }
            s.push_str("]},");
        }
        if let Some(m) = &self.medium {
            s.push_str(&format!(
                "\"medium\":{{\"utilization\":{},\"submitted\":{},\"delivered\":{},\"collisions\":{},\"lost\":{},\"gating_stalls\":{},\"aborted\":{}}},",
                json_f64(m.utilization), m.submitted, m.delivered, m.collisions, m.lost, m.gating_stalls, m.aborted
            ));
        }
        s.push_str("\"shards\":[");
        for (i, h) in self.shards.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"shard\":{},\"live\":{},\"catching_up\":{},\"queue_depth\":{},\"known_processes\":{},\"recoveries_in_flight\":{},\"replay_lag\":{},\"gating_stalls\":{},\"published\":{}}}",
                h.shard, h.live, h.catching_up, h.queue_depth, h.known_processes,
                h.recoveries_in_flight, h.replay_lag, h.gating_stalls, h.published
            ));
        }
        s.push_str("],\"recovery\":[");
        for (i, r) in self.recovery.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"pid\":{},\"recovering\":{},\"messages_behind\":{},\"checkpoint_age_ms\":{},\"suppressed\":{},\"recovery_ms\":{},\"critical_path_ms\":{}}}",
                r.subject, r.recovering, r.messages_behind, json_f64(r.checkpoint_age_ms), r.suppressed,
                json_f64(r.recovery_ms), json_f64(r.critical_path_ms)
            ));
        }
        s.push_str("],\"sched\":{");
        s.push_str(&format!(
            "\"delivered\":{},\"scheduled\":{},\"pending\":{},\"peak_pending\":{}}},",
            self.sched.delivered, self.sched.scheduled, self.sched.pending, self.sched.peak_pending
        ));
        if let Some(h) = &self.queue_depths {
            s.push_str(&format!(
                "\"queue_depths\":{{\"n\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}},",
                h.summary().count(),
                json_f64(h.summary().mean()),
                json_f64(h.quantile(0.5)),
                json_f64(h.quantile(0.95)),
                json_f64(h.quantile(0.99)),
                json_f64(h.summary().max().unwrap_or(0.0)),
            ));
        }
        if !self.quorum.is_empty() {
            s.push_str("\"quorum\":[");
            for (i, h) in self.quorum.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"replica\":{},\"live\":{},\"leader\":{},\"term\":{},\"elections\":{},\"commit_index\":{},\"applied_index\":{},\"replication_lag\":{},\"compacted\":{}}}",
                    h.replica, h.live, h.leader, h.term, h.elections,
                    h.commit_index, h.applied_index, h.replication_lag, h.compacted
                ));
            }
            s.push_str("],");
        }
        if let Some(c) = &self.consensus {
            s.push_str(&format!(
                "\"consensus\":{{\"commits\":{},\"commit_p50_us\":{},\"commit_p99_us\":{},\"replication_lag_p95\":{},\"elections\":{}}},",
                c.commits, c.commit_p50_us, c.commit_p99_us,
                json_f64(c.replication_lag_p95), c.elections
            ));
        }
        if let Some(w) = &self.watchdog {
            s.push_str(&format!(
                "\"watchdog\":{{\"checks\":{},\"violations\":[",
                w.checks
            ));
            for (i, v) in w.violations.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{}\"", json_escape(v)));
            }
            s.push_str("]},");
        }
        if let Some(wl) = &self.workload {
            s.push_str(&format!(
                "\"workload\":{{\"offered\":{},\"delivered\":{},\"offered_per_sec\":{},\"goodput\":{},\"slo_violations\":[",
                wl.offered,
                wl.delivered,
                json_f64(wl.offered_per_sec),
                json_f64(wl.goodput())
            ));
            for (i, v) in wl.slo_violations.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{}\"", json_escape(v)));
            }
            s.push_str("]},");
        }
        if let Some(u) = &self.utilization {
            s.push_str(&format!(
                "\"utilization\":{{\"window_ms\":{},\"bin_ms\":{},\"binding\":{},\"resources\":[",
                json_f64(u.window_ms),
                json_f64(u.bin_ms),
                match u.binding() {
                    Some(r) => format!("\"{}\"", json_escape(&r.name)),
                    None => "null".into(),
                }
            ));
            for (i, r) in u.resources.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"kind\":\"{}\",\"name\":\"{}\",\"index\":{},\"peer\":{},\"busy_ms\":{},\"util\":{},\"active_util\":{},\"peak_util\":{},\"mean_queue\":{},\"peak_queue\":{},\"events\":{},\"contention\":{},\"saturated\":{}}}",
                    r.kind.label(),
                    json_escape(&r.name),
                    r.index,
                    r.peer,
                    json_f64(r.busy_ms),
                    json_f64(r.util),
                    json_f64(r.active_util),
                    json_f64(r.peak_util),
                    json_f64(r.mean_queue),
                    r.peak_queue,
                    r.events,
                    r.contention,
                    r.saturated()
                ));
            }
            s.push_str("],\"xval\":[");
            for (i, row) in u.xval.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"resource\":\"{}\",\"law\":\"{}\",\"predicted\":{},\"measured\":{},\"tolerance\":{},\"ok\":{}}}",
                    json_escape(&row.resource),
                    json_escape(&row.law),
                    json_f64(row.predicted),
                    json_f64(row.measured),
                    json_f64(row.tolerance),
                    row.ok
                ));
            }
            s.push_str("]},");
        }
        if let Some(w) = &self.whatif {
            s.push_str(&format!(
                "\"whatif\":{{\"baseline_knee\":{},\"rows\":[",
                w.baseline_knee
            ));
            for (i, row) in w.rows.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"knob\":\"{}\",\"multiplier\":{},\"predicted_knee\":{},\"confirmed_knee\":{},\"binding_after\":\"{}\"}}",
                    json_escape(&row.knob),
                    json_f64(row.multiplier),
                    row.predicted_knee,
                    match row.confirmed_knee {
                        Some(k) => k.to_string(),
                        None => "null".into(),
                    },
                    json_escape(&row.binding_after)
                ));
            }
            s.push_str("]},");
        }
        if let Some(f) = &self.forensics {
            s.push_str(&format!("\"forensics\":{},", f.to_json()));
        }
        s.push_str("\"profile\":{");
        for (i, (name, d)) in self.profile.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{}",
                crate::registry::json_escape(name),
                json_f64(d.as_millis_f64())
            ));
        }
        s.push_str("},\"metrics\":{");
        for (i, (path, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":", crate::registry::json_escape(path)));
            match v {
                MetricValue::Counter(c) => s.push_str(&c.to_string()),
                MetricValue::Gauge(g) => s.push_str(&json_f64(g)),
            }
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use publishing_sim::time::SimTime;

    fn sample() -> ObsReport {
        let mut report = ObsReport {
            at_ms: 100.0,
            spans_total: 42,
            span_fingerprint: 0xdead_beef,
            horizon: SimDuration::from_millis(100),
            ..Default::default()
        };
        report.metrics.counter("node/0/kernel/msgs_sent", 7);
        report.metrics.gauge("medium/utilization", 0.125);
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
        report.recovery.push(RecoveryLag {
            subject: 17,
            recovering: false,
            messages_behind: 2,
            checkpoint_age_ms: 5.5,
            suppressed: 0,
            recovery_ms: 40.0,
            critical_path_ms: 40.0,
        });
        report.latencies.partial = 3;
        report.critical_path = Some(CriticalPath {
            crash_at: SimTime::from_millis(50),
            converged_at: SimTime::from_millis(90),
            segments: vec![
                crate::causal::Segment {
                    category: "replay",
                    kind: None,
                    from: SimTime::from_millis(50),
                    to: SimTime::from_millis(80),
                    label: "crash → replay 0.17#3".into(),
                },
                crate::causal::Segment {
                    category: "commit",
                    kind: None,
                    from: SimTime::from_millis(80),
                    to: SimTime::from_millis(90),
                    label: "replay 0.17#3 → converged".into(),
                },
            ],
        });
        report
            .profile
            .charge("kernel_cpu", SimDuration::from_millis(10));
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
        report.quorum.push(QuorumHealth {
            replica: 1,
            live: true,
            leader: true,
            term: 3,
            elections: 2,
            commit_index: 40,
            applied_index: 40,
            replication_lag: 1,
            compacted: 8,
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
            violations: vec!["commit index went backwards 5 -> 3".into()],
        });
        report.workload = Some(WorkloadStats {
            offered: 200,
            delivered: 180,
            offered_per_sec: 500.0,
            slo_violations: vec!["deliver p99 9000us > 5000us".into()],
        });
        report.utilization = Some(crate::util::UtilizationReport {
            window_ms: 100.0,
            bin_ms: 16.78,
            resources: vec![publishing_sim::ledger::ResourceUsage {
                kind: publishing_sim::ledger::ResourceKind::Transport,
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
            xval: vec![crate::util::XvalRow::check(
                "medium",
                "utilization",
                0.50,
                0.52,
                0.20,
            )],
        });
        report.whatif = Some(crate::util::WhatIfReport {
            baseline_knee: 141,
            rows: vec![crate::util::WhatIfRow {
                knob: "sink_recv".into(),
                multiplier: 0.5,
                predicted_knee: 280,
                confirmed_knee: Some(270),
                binding_after: "medium".into(),
            }],
        });
        report.forensics = Some(crate::forensics::ForensicsReport {
            baseline: "BENCH_1".into(),
            findings: vec![crate::forensics::Finding {
                scenario: "steady_state".into(),
                subject: "publish_to_deliver_us_p99".into(),
                prev: 16384.0,
                new: 32768.0,
                suspects: vec![crate::forensics::Suspect {
                    kind: crate::forensics::SuspectKind::Resource,
                    name: "util_cpu_proto_busy_ms".into(),
                    prev: 10.0,
                    new: 20.0,
                    detail: "what-if knob: proto_cpu".into(),
                }],
            }],
        });
        report
    }

    #[test]
    fn text_report_has_all_sections() {
        let text = sample().render_text();
        assert!(text.contains("obs report v6 @ 100.000ms"));
        assert!(text.contains("partial=3"));
        assert!(text.contains("quorum health:"));
        assert!(text.contains("consensus:"));
        assert!(text.contains("commit_p99=4200us"));
        assert!(text.contains("watchdog: checks=123 violations=1"));
        assert!(text.contains("! commit index went backwards"));
        assert!(text.contains("workload:"));
        assert!(text.contains("offered=200 (500.0/s) delivered=180 goodput=90.0% slo_violations=1"));
        assert!(text.contains("! deliver p99 9000us > 5000us"));
        assert!(text.contains("resource utilization:"));
        assert!(text.contains("binding=xport 0->2"));
        assert!(text.contains("<-- saturated"));
        assert!(text.contains("queueing cross-validation:"));
        assert!(text.contains("what-if profiler:"));
        assert!(text.contains("baseline_knee=141"));
        assert!(text.contains("sink_recv x0.50: predicted_knee=280 confirmed=270"));
        assert!(text.contains("forensics:"));
        assert!(text.contains("diff vs BENCH_1: 1 finding(s)"));
        assert!(text.contains("#1 [resource] util_cpu_proto_busy_ms"));
        assert!(text.contains("shard health:"));
        assert!(text.contains("recovery lag:"));
        assert!(text.contains("recovered_in=40.000ms"));
        assert!(text.contains("recovery critical path:"));
        assert!(text.contains("replay"));
        assert!(text.contains("stage latencies:"));
        assert!(text.contains("scheduler:"));
        assert!(text.contains("peak_pending=14"));
        assert!(text.contains("recorder queue depth: n=5"));
        assert!(text.contains("virtual-time profile:"));
        assert!(text.contains("node/0/kernel/msgs_sent = 7"));
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let json = sample().render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"schema\":6"));
        assert!(json.contains("\"forensics\":{\"baseline\":\"BENCH_1\",\"findings\":[{"));
        assert!(json.contains("\"kind\":\"resource\",\"name\":\"util_cpu_proto_busy_ms\""));
        assert!(json.contains("\"utilization\":{\"window_ms\":100.0,"));
        assert!(json.contains("\"binding\":\"xport 0->2\""));
        assert!(json.contains("\"kind\":\"transport\",\"name\":\"xport 0->2\""));
        assert!(json.contains("\"saturated\":true"));
        assert!(json.contains("\"xval\":[{\"resource\":\"medium\",\"law\":\"utilization\""));
        assert!(json.contains("\"whatif\":{\"baseline_knee\":141,"));
        assert!(json.contains("\"confirmed_knee\":270"));
        assert!(json.contains("\"workload\":{\"offered\":200,\"delivered\":180,"));
        assert!(json.contains("\"slo_violations\":[\"deliver p99 9000us > 5000us\"]"));
        assert!(json.contains("\"quorum\":[{\"replica\":1,\"live\":true,\"leader\":true"));
        assert!(json.contains("\"consensus\":{\"commits\":40,"));
        assert!(json.contains("\"watchdog\":{\"checks\":123,\"violations\":["));
        assert!(json.contains("\"spans_total\":42"));
        assert!(json.contains("\"spans_partial\":3"));
        assert!(json.contains("\"critical_path\":{\"crash_at_ms\":50.0,"));
        assert!(json.contains("\"by_stage\":{"));
        assert!(json.contains("\"top_segments\":["));
        assert!(json.contains("\"recovery_ms\":40.0"));
        assert!(json.contains("\"shards\":[{\"shard\":0,\"live\":true"));
        assert!(json.contains("\"replay_lag\":0"));
        assert!(json.contains("\"recovery\":[{\"pid\":17"));
        assert!(json.contains(
            "\"sched\":{\"delivered\":90,\"scheduled\":96,\"pending\":6,\"peak_pending\":14}"
        ));
        assert!(json.contains("\"queue_depths\":{\"n\":5,"));
        assert!(json.contains("\"node/0/kernel/msgs_sent\":7"));
        // Balanced braces/brackets (no serde here, so check by counting).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
