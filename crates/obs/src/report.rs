//! The `obs_report` run artifact.
//!
//! A world driver assembles an [`ObsReport`] at any virtual instant:
//! the full metrics snapshot, the derived health probes, the stage
//! latencies, the virtual-time profile, and the run-level span
//! fingerprint. The report renders as human-readable text or as a
//! single JSON object; the metrics section additionally exports as
//! JSON lines via [`MetricsRegistry::to_jsonl`].

use crate::causal::CriticalPath;
use crate::json::{Json, ObjBuilder};
use crate::probe::{MediumHealth, QuorumHealth, RecoveryLag, SchedulerProbe, ShardHealth};
use crate::profile::{StageLatencies, TimeProfile};
use crate::registry::MetricsRegistry;
use crate::util::{UtilizationReport, WhatIfReport};
use publishing_sim::stats::LinearHistogram;
use publishing_sim::time::SimDuration;

/// Version of the report's rendered shape. The shape grows by addition
/// only, and every section added after version 1 is absent unless a run
/// populated it; `crates/obs/tests/report_compat.rs` states which keys
/// each version introduced.
pub const REPORT_SCHEMA_VERSION: u32 = 6;

/// Consensus-level aggregates for the quorum section.
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

/// Outcome of the online invariant watchdog.
#[derive(Debug, Clone, Default)]
pub struct WatchdogSummary {
    /// Invariant evaluations performed over the run.
    pub checks: u64,
    /// Violations the watchdog surfaced, in detection order.
    pub violations: Vec<String>,
}

/// Offered-load accounting for workload-driven runs.
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
    pub utilization: Option<UtilizationReport>,
    /// What-if (virtual speedup) profiler results, when a lens run
    /// produced them.
    pub whatif: Option<WhatIfReport>,
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
        self.to_json().write()
    }

    /// The report as a JSON value. Sections nobody populated are left
    /// out (`shards` and `recovery` are always present, possibly empty).
    pub fn to_json(&self) -> Json {
        let mut o = ObjBuilder::new()
            .field("schema", self.schema)
            .field("at_ms", self.at_ms)
            .field("spans_total", self.spans_total)
            .field("spans_partial", self.latencies.partial)
            .field(
                "span_fingerprint",
                format!("{:#018x}", self.span_fingerprint),
            );
        if let Some(cp) = &self.critical_path {
            o = o.field("critical_path", critical_path_json(cp));
        }
        if let Some(m) = &self.medium {
            o = o.field(
                "medium",
                ObjBuilder::new()
                    .field("utilization", m.utilization)
                    .field("submitted", m.submitted)
                    .field("delivered", m.delivered)
                    .field("collisions", m.collisions)
                    .field("lost", m.lost)
                    .field("gating_stalls", m.gating_stalls)
                    .field("aborted", m.aborted),
            );
        }
        o = o
            .field(
                "shards",
                Json::arr(self.shards.iter().map(|h| {
                    ObjBuilder::new()
                        .field("shard", h.shard)
                        .field("live", h.live)
                        .field("catching_up", h.catching_up)
                        .field("queue_depth", h.queue_depth)
                        .field("known_processes", h.known_processes)
                        .field("recoveries_in_flight", h.recoveries_in_flight)
                        .field("replay_lag", h.replay_lag)
                        .field("gating_stalls", h.gating_stalls)
                        .field("published", h.published)
                })),
            )
            .field(
                "recovery",
                Json::arr(self.recovery.iter().map(|r| {
                    ObjBuilder::new()
                        .field("pid", r.subject)
                        .field("recovering", r.recovering)
                        .field("messages_behind", r.messages_behind)
                        .field("checkpoint_age_ms", r.checkpoint_age_ms)
                        .field("suppressed", r.suppressed)
                        .field("recovery_ms", r.recovery_ms)
                        .field("critical_path_ms", r.critical_path_ms)
                })),
            )
            .field(
                "sched",
                ObjBuilder::new()
                    .field("delivered", self.sched.delivered)
                    .field("scheduled", self.sched.scheduled)
                    .field("pending", self.sched.pending)
                    .field("peak_pending", self.sched.peak_pending),
            );
        if let Some(h) = &self.queue_depths {
            o = o.field(
                "queue_depths",
                ObjBuilder::new()
                    .field("n", h.summary().count())
                    .field("mean", h.summary().mean())
                    .field("p50", h.quantile(0.5))
                    .field("p95", h.quantile(0.95))
                    .field("p99", h.quantile(0.99))
                    .field("max", h.summary().max().unwrap_or(0.0)),
            );
        }
        if !self.quorum.is_empty() {
            o = o.field(
                "quorum",
                Json::arr(self.quorum.iter().map(|h| {
                    ObjBuilder::new()
                        .field("replica", h.replica)
                        .field("live", h.live)
                        .field("leader", h.leader)
                        .field("term", h.term)
                        .field("elections", h.elections)
                        .field("commit_index", h.commit_index)
                        .field("applied_index", h.applied_index)
                        .field("replication_lag", h.replication_lag)
                        .field("compacted", h.compacted)
                })),
            );
        }
        if let Some(c) = &self.consensus {
            o = o.field(
                "consensus",
                ObjBuilder::new()
                    .field("commits", c.commits)
                    .field("commit_p50_us", c.commit_p50_us)
                    .field("commit_p99_us", c.commit_p99_us)
                    .field("replication_lag_p95", c.replication_lag_p95)
                    .field("elections", c.elections),
            );
        }
        if let Some(w) = &self.watchdog {
            o = o.field(
                "watchdog",
                ObjBuilder::new()
                    .field("checks", w.checks)
                    .field("violations", Json::arr(&w.violations)),
            );
        }
        if let Some(wl) = &self.workload {
            o = o.field(
                "workload",
                ObjBuilder::new()
                    .field("offered", wl.offered)
                    .field("delivered", wl.delivered)
                    .field("offered_per_sec", wl.offered_per_sec)
                    .field("goodput", wl.goodput())
                    .field("slo_violations", Json::arr(&wl.slo_violations)),
            );
        }
        if let Some(u) = &self.utilization {
            o = o.field("utilization", utilization_json(u));
        }
        if let Some(w) = &self.whatif {
            o = o.field("whatif", whatif_json(w));
        }
        if let Some(f) = &self.forensics {
            o = o.field("forensics", f.to_json());
        }
        o.field(
            "profile",
            Json::obj(
                self.profile
                    .iter()
                    .map(|(name, d)| (name, d.as_millis_f64())),
            ),
        )
        .field("metrics", Json::obj(self.metrics.iter()))
        .build()
    }
}

/// The `critical_path` section: the recovery window, its per-stage
/// attribution and the three longest segments.
fn critical_path_json(cp: &CriticalPath) -> Json {
    let stages = cp.by_stage();
    ObjBuilder::new()
        .field("crash_at_ms", cp.crash_at.as_millis_f64())
        .field("converged_at_ms", cp.converged_at.as_millis_f64())
        .field("total_ms", cp.total().as_millis_f64())
        .field(
            "by_stage",
            Json::obj(stages.iter().map(|(cat, d)| (*cat, d.as_millis_f64()))),
        )
        .field(
            "top_segments",
            Json::arr(cp.top_segments(3).into_iter().map(|seg| {
                ObjBuilder::new()
                    .field("category", seg.category)
                    .field("from_ms", seg.from.as_millis_f64())
                    .field("to_ms", seg.to.as_millis_f64())
                    .field("label", &seg.label)
            })),
        )
        .build()
}

/// The `utilization` section: the per-resource ledger, the binding
/// resource's name (or `null`) and the queueing cross-validation rows.
fn utilization_json(u: &UtilizationReport) -> Json {
    ObjBuilder::new()
        .field("window_ms", u.window_ms)
        .field("bin_ms", u.bin_ms)
        .field("binding", u.binding().map(|r| &r.name))
        .field(
            "resources",
            Json::arr(u.resources.iter().map(|r| {
                ObjBuilder::new()
                    .field("kind", r.kind.label())
                    .field("name", &r.name)
                    .field("index", r.index)
                    .field("peer", r.peer)
                    .field("busy_ms", r.busy_ms)
                    .field("util", r.util)
                    .field("active_util", r.active_util)
                    .field("peak_util", r.peak_util)
                    .field("mean_queue", r.mean_queue)
                    .field("peak_queue", r.peak_queue)
                    .field("events", r.events)
                    .field("contention", r.contention)
                    .field("saturated", r.saturated())
            })),
        )
        .field(
            "xval",
            Json::arr(u.xval.iter().map(|row| {
                ObjBuilder::new()
                    .field("resource", &row.resource)
                    .field("law", &row.law)
                    .field("predicted", row.predicted)
                    .field("measured", row.measured)
                    .field("tolerance", row.tolerance)
                    .field("ok", row.ok)
            })),
        )
        .build()
}

/// The `whatif` section: the baseline knee and one row per turned knob.
fn whatif_json(w: &WhatIfReport) -> Json {
    ObjBuilder::new()
        .field("baseline_knee", w.baseline_knee)
        .field(
            "rows",
            Json::arr(w.rows.iter().map(|row| {
                ObjBuilder::new()
                    .field("knob", &row.knob)
                    .field("multiplier", row.multiplier)
                    .field("predicted_knee", row.predicted_knee)
                    .field("confirmed_knee", row.confirmed_knee)
                    .field("binding_after", &row.binding_after)
            })),
        )
        .build()
}
