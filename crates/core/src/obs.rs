//! Observability collection: projecting component instruments into the
//! `publishing-obs` registry/probe model.
//!
//! The world drivers (single-recorder [`crate::World`], sharded tier in
//! `publishing-shard`) own every component and therefore are the only
//! places a whole-run picture can be assembled. This module keeps that
//! assembly in one place so both drivers file the same metric paths and
//! the `obs_report` artifact looks identical regardless of topology.
//!
//! Everything here is read-only over component state and derived from
//! virtual time, so collecting a snapshot never perturbs a simulation:
//! runs with and without observation produce identical fingerprints.

use std::collections::BTreeMap;

use publishing_demos::kernel::Kernel;
use publishing_net::lan::Lan;
use publishing_obs::probe::RecoveryLag;
use publishing_obs::registry::MetricsRegistry;
use publishing_obs::span::SpanLog;
use publishing_obs::util::{UtilizationReport, XvalRow};
use publishing_sim::ledger::{ResourceKind, ResourceUsage, Timeline, BIN_NS};
use publishing_sim::time::SimTime;

use crate::manager::RecoveryManager;
use crate::node::RecorderNode;
use crate::recorder::Recorder;

/// Files one kernel's instruments under `node/<n>/...`.
pub fn kernel_metrics(reg: &mut MetricsRegistry, k: &Kernel) {
    let p = format!("node/{}/kernel", k.node().0);
    let s = k.stats();
    reg.counter(format!("{p}/activations"), s.activations.get());
    reg.counter(format!("{p}/msgs_sent"), s.msgs_sent.get());
    reg.counter(format!("{p}/msgs_received"), s.msgs_received.get());
    reg.counter(format!("{p}/dups_dropped"), s.dups_dropped.get());
    reg.counter(
        format!("{p}/read_order_notices"),
        s.read_order_notices.get(),
    );
    reg.counter(format!("{p}/recorder_blocked"), s.recorder_blocked.get());
    reg.counter(format!("{p}/bad_frames"), s.bad_frames.get());
    reg.counter(format!("{p}/creates"), s.creates.get());
    reg.counter(format!("{p}/destroys"), s.destroys.get());
    reg.counter(format!("{p}/checkpoints_taken"), s.checkpoints_taken.get());
    reg.counter(format!("{p}/recovery_deferred"), s.recovery_deferred.get());
    reg.gauge(format!("{p}/cpu_used_ms"), s.cpu_used.as_millis_f64());
    reg.counter(format!("{p}/span_events"), k.spans().total());

    let t = k.transport_stats();
    let p = format!("node/{}/transport", k.node().0);
    reg.counter(format!("{p}/sent"), t.sent.get());
    reg.counter(format!("{p}/datagrams"), t.datagrams.get());
    reg.counter(format!("{p}/retransmits"), t.retransmits.get());
    reg.counter(format!("{p}/delivered"), t.delivered.get());
    reg.counter(format!("{p}/duplicates"), t.duplicates.get());
    reg.counter(format!("{p}/acked"), t.acked.get());
    reg.counter(format!("{p}/stale_epoch"), t.stale_epoch.get());
}

/// Files a recorder node's instruments (recorder, manager, store, disks)
/// under `<prefix>/...`. The sharded tier passes `shard/<i>`, the single
/// recorder world passes `recorder`.
pub fn recorder_node_metrics(
    reg: &mut MetricsRegistry,
    prefix: &str,
    rn: &RecorderNode,
    now: SimTime,
) {
    let rec = rn.recorder();
    let s = rec.stats();
    reg.counter(format!("{prefix}/captured"), s.captured.get());
    reg.counter(format!("{prefix}/published"), s.published.get());
    reg.counter(format!("{prefix}/bytes_published"), s.bytes_published.get());
    reg.counter(format!("{prefix}/duplicates"), s.duplicates.get());
    reg.counter(format!("{prefix}/orphan_acks"), s.orphan_acks.get());
    reg.counter(format!("{prefix}/notices"), s.notices.get());
    reg.counter(format!("{prefix}/checkpoints"), s.checkpoints.get());
    reg.gauge(format!("{prefix}/cpu_used_ms"), s.cpu_used.as_millis_f64());
    reg.counter(
        format!("{prefix}/pending_depth"),
        rec.pending_depth() as u64,
    );
    reg.linear_histogram(&format!("{prefix}/queue_depth"), &s.depth_hist);
    reg.counter(format!("{prefix}/span_events"), rec.spans().total());

    let m = rn.manager().stats();
    reg.counter(
        format!("{prefix}/mgr/process_recoveries"),
        m.process_recoveries.get(),
    );
    reg.counter(format!("{prefix}/mgr/node_crashes"), m.node_crashes.get());
    reg.counter(format!("{prefix}/mgr/replayed"), m.replayed.get());
    reg.counter(format!("{prefix}/mgr/completed"), m.completed.get());
    reg.counter(format!("{prefix}/mgr/recursive"), m.recursive.get());
    reg.counter(format!("{prefix}/mgr/stale_replies"), m.stale_replies.get());

    let store = rec.store();
    let st = store.stats();
    reg.counter(format!("{prefix}/store/appended"), st.appended.get());
    reg.counter(
        format!("{prefix}/store/pages_written"),
        st.pages_written.get(),
    );
    reg.counter(format!("{prefix}/store/pages_freed"), st.pages_freed.get());
    reg.counter(format!("{prefix}/store/compactions"), st.compactions.get());
    reg.counter(
        format!("{prefix}/store/records_compacted"),
        st.records_compacted.get(),
    );
    reg.counter(format!("{prefix}/store/checkpoints"), st.checkpoints.get());
    for i in 0..store.n_disks() {
        let d = store.disk_stats(i);
        let p = format!("{prefix}/disk/{i}");
        reg.counter(format!("{p}/writes"), d.writes.get());
        reg.counter(format!("{p}/reads"), d.reads.get());
        reg.counter(format!("{p}/bytes_written"), d.bytes_written.get());
        reg.counter(format!("{p}/bytes_read"), d.bytes_read.get());
        reg.gauge(format!("{p}/utilization"), d.busy.utilization(now));
        reg.summary(&format!("{p}/response_ms"), &d.response_ms);
    }
}

/// Assembles the typed resource-utilization ledger for one topology:
/// the shared medium, every node's CPU (split into protocol vs. program
/// time), every guaranteed-transport channel plus the aggregated
/// receive budget of each destination, and each recorder's publishing
/// CPU and disks. Both world drivers (and the sharded/quorum tiers)
/// call this so every topology ranks resources with identical rules.
///
/// Rows whose timeline never saw a busy span and whose meter counted
/// nothing are skipped — a zero cost model produces no CPU rows rather
/// than a wall of idle entries. The medium row is always present so
/// the report states its utilization even when idle.
pub fn utilization_report<'a>(
    kernels: impl IntoIterator<Item = &'a Kernel>,
    recorders: impl IntoIterator<Item = (u32, &'a Recorder)>,
    lan: &dyn Lan,
    now: SimTime,
) -> UtilizationReport {
    let window = now.saturating_since(SimTime::ZERO);
    let window_s = window.as_millis_f64() / 1000.0;
    let mut resources = Vec::new();
    let mut xval = Vec::new();

    let stats = lan.stats();
    let medium_tl = stats.busy.timeline_as_of(now);
    resources.push(ResourceUsage::from_timeline(
        ResourceKind::Medium,
        "medium".into(),
        0,
        0,
        &medium_tl,
        window,
        0.0,
        0,
        stats.submitted.get(),
        stats.collisions.get(),
    ));
    // Utilization law ρ = λ·S for the medium: λ from the submit counter,
    // S from the *configured* bandwidth and interpacket gap applied to
    // the mean observed frame — an analytic prediction fully independent
    // of the busy-time integrator it is checked against. Exact only
    // while the medium is uncontended: collisions and backoff occupy
    // wire time the service-demand product cannot see, so contention
    // shows up as a flagged divergence (which is the point).
    if let Some(cfg) = lan.config() {
        let submitted = stats.submitted.get();
        if !medium_tl.is_empty() && submitted > 0 && window_s > 0.0 {
            let mean_bytes = stats.wire_bytes.get() as f64 / submitted as f64;
            let service_s = cfg.frame_time(mean_bytes as usize).as_millis_f64() / 1000.0;
            let lambda = submitted as f64 / window_s;
            xval.push(XvalRow::check(
                "medium",
                "utilization",
                publishing_queueing::xval::utilization_law(lambda, service_s),
                // Busy time inside the window: the perfect bus charges an
                // over-driven serial wire past `now`, and the law's side
                // saturates at 1 too.
                medium_tl.util_between(SimTime::ZERO, now),
                0.25,
            ));
        }
    }

    // Per-destination receive budget: merged inbound-channel timelines,
    // summed occupancy (concurrent senders queue independently).
    let mut recv: BTreeMap<u32, (Timeline, f64, u64, u64, u32)> = BTreeMap::new();
    for k in kernels {
        let n = k.node().0;
        let s = k.stats();
        // The run queue waits on the node's single CPU, which the ledger
        // splits into protocol and program time; both rows carry it.
        let run_q = k.run_queue_gauge().mean_over(now, window);
        let run_peak = k.run_queue_gauge().peak();
        let proto = k.cpu_proto_timeline();
        if !proto.is_empty() {
            resources.push(ResourceUsage::from_timeline(
                ResourceKind::NodeCpuProto,
                format!("cpu{n}:proto"),
                n,
                0,
                proto,
                window,
                run_q,
                run_peak,
                s.msgs_sent.get() + s.msgs_received.get(),
                0,
            ));
        }
        let prog = k.cpu_prog_timeline();
        if !prog.is_empty() {
            resources.push(ResourceUsage::from_timeline(
                ResourceKind::NodeCpuProg,
                format!("cpu{n}:prog"),
                n,
                0,
                prog,
                window,
                run_q,
                run_peak,
                s.activations.get(),
                0,
            ));
        }
        for (dst, m) in k.channel_meters() {
            let tl = m.busy.timeline_as_of(now);
            if tl.is_empty() && m.completed == 0 {
                continue;
            }
            let mean_q = m.level.mean_over(now, window);
            let peak_q = m.level.peak();
            resources.push(ResourceUsage::from_timeline(
                ResourceKind::Transport,
                format!("xport {n}->{}", dst.0),
                n,
                dst.0,
                &tl,
                window,
                mean_q,
                peak_q,
                m.completed,
                0,
            ));
            // Little's law L = λ·W per channel: throughput and sojourn
            // come from per-message accounting, occupancy from the
            // level-gauge integral — two independent meters that must
            // agree on any stable channel.
            if m.completed > 0 && window_s > 0.0 {
                let lambda = m.completed as f64 / window_s;
                let sojourn_s = m.mean_sojourn_ms() / 1000.0;
                xval.push(XvalRow::check(
                    format!("xport {n}->{}", dst.0),
                    "little",
                    publishing_queueing::xval::littles_law(lambda, sojourn_s),
                    m.level.mean_over(now, window),
                    0.10,
                ));
            }
            let e = recv.entry(dst.0).or_default();
            e.0.merge(&tl);
            e.1 += mean_q;
            e.2 += peak_q;
            e.3 += m.completed;
            e.4 += 1;
        }
    }
    for (dst, (tl, mean_q, peak_q, completed, channels)) in recv {
        // With a single inbound channel the xport row already *is* the
        // destination's receive budget; only aggregates add information.
        if channels < 2 {
            continue;
        }
        resources.push(ResourceUsage::from_timeline(
            ResourceKind::Transport,
            format!("recv {dst}"),
            dst,
            dst,
            &tl,
            window,
            mean_q,
            peak_q,
            completed,
            0,
        ));
    }

    for (idx, rec) in recorders {
        let s = rec.stats();
        let tl = rec.cpu_timeline();
        if !tl.is_empty() {
            resources.push(ResourceUsage::from_timeline(
                ResourceKind::RecorderCpu,
                format!("rec{idx}:cpu"),
                idx,
                0,
                tl,
                window,
                s.depth_hist.summary().mean(),
                s.depth_hist.summary().max().unwrap_or(0.0) as u64,
                s.captured.get(),
                0,
            ));
        }
        let store = rec.store();
        for d in 0..store.n_disks() {
            let ds = store.disk_stats(d);
            let tl = ds.busy.timeline_as_of(now);
            if tl.is_empty() {
                continue;
            }
            resources.push(ResourceUsage::from_timeline(
                ResourceKind::Disk,
                format!("rec{idx}:disk{d}"),
                idx,
                d as u32,
                &tl,
                window,
                0.0,
                0,
                ds.writes.get() + ds.reads.get(),
                0,
            ));
        }
    }

    UtilizationReport {
        window_ms: window.as_millis_f64(),
        bin_ms: BIN_NS as f64 / 1e6,
        resources,
        xval,
    }
}

/// Counts §4.7 suppressions per *sending* process from kernel span logs.
///
/// Suppress events carry the suppressed message's id, so the sender half
/// of the key attributes the suppression to the recovering process whose
/// resends were cut off. Bounded by span-ring retention, which is fine
/// for a point-in-time probe.
pub fn suppressed_by_sender<'a>(logs: impl IntoIterator<Item = &'a SpanLog>) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for log in logs {
        for ev in log.events_in(publishing_obs::span::Stage::Suppress) {
            *out.entry(ev.key.sender).or_insert(0) += 1;
        }
    }
    out
}

/// Builds recovery-lag probes for every process in a recorder's database.
///
/// `suppressed` maps packed sender pid → suppression count (from
/// [`suppressed_by_sender`] over the kernels' span logs).
pub fn recovery_lags(
    rec: &Recorder,
    now: SimTime,
    suppressed: &BTreeMap<u64, u64>,
) -> Vec<RecoveryLag> {
    let mut out = Vec::new();
    for pid in rec.known_pids() {
        let Some(entry) = rec.entry(pid) else {
            continue;
        };
        out.push(RecoveryLag {
            subject: pid.as_u64(),
            recovering: entry.recovering,
            messages_behind: entry.arrivals.len() as u64,
            checkpoint_age_ms: now
                .saturating_since(entry.estimator.checkpoint_at)
                .as_millis_f64(),
            suppressed: suppressed.get(&pid.as_u64()).copied().unwrap_or(0),
            recovery_ms: 0.0,
            critical_path_ms: 0.0,
        });
    }
    out
}

/// Messages the manager's in-flight recoveries still have to replay:
/// the replay streams of every live job, summed. Zero once every job
/// has committed (the job set empties).
pub fn replay_lag(rec: &Recorder, mgr: &RecoveryManager) -> u64 {
    mgr.job_pids()
        .iter()
        .map(|pid| rec.replay_stream(*pid).len() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use publishing_obs::span::{MsgKey, Stage};

    #[test]
    fn suppression_attribution_is_per_sender() {
        let mut a = SpanLog::default();
        let mut b = SpanLog::default();
        let k1 = MsgKey { sender: 7, seq: 1 };
        let k2 = MsgKey { sender: 9, seq: 4 };
        a.record(SimTime::ZERO, k1, Stage::Suppress, 3, 0);
        a.record(SimTime::ZERO, k1, Stage::Publish, 3, 0); // not a suppression
        b.record(SimTime::ZERO, k1, Stage::Suppress, 5, 1);
        b.record(SimTime::ZERO, k2, Stage::Suppress, 5, 2);
        let by = suppressed_by_sender([&a, &b]);
        assert_eq!(by.get(&7), Some(&2));
        assert_eq!(by.get(&9), Some(&1));
    }
}
