//! Causal what-if profiler: virtual speedups over the capacity knee.
//!
//! Coz-style question, capacity-search answer: *if stage X were faster,
//! how many more users would the tier sustain?* Each [`WhatIfKnob`]
//! turns one physical constant of the simulation — wire speed ×2, the
//! sink-receive budget (transport window) ×2, protocol CPU cost ×0.5 —
//! and the profiler **predicts** the knee under the turned knob from
//! the baseline search's own utilization ledger, without re-running
//! anything. An optional confirm pass re-runs the full knee search
//! under the knob (deterministic, so the error column is exact) and
//! reports prediction error per knob.
//!
//! The prediction model is the utilization law read backwards. At the
//! baseline knee the ledger gives every resource's loaded-window
//! utilization; assume each *load-proportional* resource's utilization
//! scales linearly with users and with the knob's service-time
//! multiplier, and the predicted knee is the user count at which the
//! first resource returns to its saturation point:
//!
//! ```text
//! k_r = k0 · u_sat(r) / (u_r(k0) · s_r)      predicted = min over r
//! ```
//!
//! where `u_sat(r)` is the observed saturation level for the baseline
//! binding resource (a CSMA/CD medium collapses well below wire-rate
//! 1.0, so its *observed* knee utilization is its capacity) and 1.0 for
//! everything else, and `s_r` is the knob's service multiplier on
//! resources of `r`'s kind (1.0 when unaffected). Two structural
//! consequences fall out, both the point of the exercise:
//!
//! - A knob that misses the binding resource predicts `k0` unchanged —
//!   the Coz null result ("speeding up a non-bottleneck buys nothing"),
//!   confirmed exactly by the re-search when the knob is a true no-op
//!   (protocol CPU ×0.5 under the zero cost model).
//! - Self-paced resources (a generator charging its tick CPU at any
//!   load) are excluded by a slope test against a low-load probe trial:
//!   busy time that does not grow with users is pacing, not capacity.
//!
//! Nothing here reads a whole-window average (`util`, `mean_queue`): a
//! trial's window ends when its world has settled, and a verdict must
//! not change with how long a world idled.

use crate::capacity::{find_knee, run_trial, Knee, SearchParams, TrialOutcome};
use crate::spec::WorkloadSpec;
use publishing_chaos::{Topology, Tuning};
use publishing_obs::slo::SloSpec;
use publishing_obs::util::{WhatIfReport, WhatIfRow};
use publishing_sim::ledger::{ResourceKind, ResourceUsage};

/// One virtual speedup: a named physical-constant change plus the
/// service-time multiplier it implies per resource kind.
#[derive(Debug, Clone)]
pub struct WhatIfKnob {
    /// Knob name (report key): `wire`, `sink_recv`, `proto_cpu`.
    pub name: &'static str,
    /// The headline factor as the issue states it (speed ×2, cost ×0.5).
    pub multiplier: f64,
    /// Service-time multiplier on affected kinds (< 1.0 = faster).
    service: f64,
    /// Resource kinds whose service time the knob scales.
    kinds: &'static [ResourceKind],
}

impl WhatIfKnob {
    /// The turned tuning: baseline physics with this knob applied.
    pub fn apply(&self, base: &Tuning) -> Tuning {
        let mut t = base.clone();
        match self.name {
            "wire" => t.lan = t.lan.scaled(self.multiplier),
            "sink_recv" => {
                // The sink's receive budget is the stop-and-wait
                // window: ×2 in-flight halves per-message channel
                // occupancy, the sim's version of "sink receive ×0.5".
                let f = (1.0 / self.multiplier).round().max(1.0) as usize;
                t.transport.window = (t.transport.window * f).max(1);
            }
            "proto_cpu" => t.costs = t.costs.scaled(self.multiplier),
            other => panic!("unknown what-if knob {other}"),
        }
        t
    }

    fn service_multiplier(&self, kind: ResourceKind) -> f64 {
        if self.kinds.contains(&kind) {
            self.service
        } else {
            1.0
        }
    }
}

/// The issue's three-knob matrix: wire speed ×2, sink receive ×0.5
/// (transport window ×2), protocol CPU ×0.5.
pub fn standard_knobs() -> Vec<WhatIfKnob> {
    vec![
        WhatIfKnob {
            name: "wire",
            multiplier: 2.0,
            service: 0.5,
            // Faster serialization shortens both the wire's own busy
            // spans and the stop-and-wait round trip every transport
            // channel (and merged sink receive budget) is made of.
            kinds: &[ResourceKind::Medium, ResourceKind::Transport],
        },
        WhatIfKnob {
            name: "sink_recv",
            multiplier: 0.5,
            service: 0.5,
            kinds: &[ResourceKind::Transport],
        },
        WhatIfKnob {
            name: "proto_cpu",
            multiplier: 0.5,
            service: 0.5,
            kinds: &[ResourceKind::NodeCpuProto, ResourceKind::NodeCpuProg],
        },
    ]
}

/// The standard knob (if any) whose service multiplier touches `kind` —
/// the remediation hint regression forensics attaches to a resource
/// suspect, closing the loop from "this resource's busy time grew" back
/// to the physical constant a what-if run can turn.
pub fn knob_for_kind(kind: ResourceKind) -> Option<&'static str> {
    standard_knobs()
        .iter()
        .find(|k| k.kinds.contains(&kind))
        .map(|k| k.name)
}

/// Whether `r`'s busy time grew materially between the low-load probe
/// and the knee — the test that separates capacity resources from
/// self-paced ones. Busy *time*, not busy ÷ window: the two trials offer
/// load over the same horizon but stop when their worlds have settled,
/// so their windows differ. A resource absent at low load only exists
/// under load, so it counts as proportional.
fn load_proportional(r: &ResourceUsage, low: &[ResourceUsage]) -> bool {
    match low.iter().find(|l| l.name == r.name) {
        Some(l) => r.busy_ms > 1.5 * l.busy_ms,
        None => true,
    }
}

/// Predicts the knee under `knob` from the baseline knee's utilization
/// ledger plus a low-load probe trial. Returns the predicted user
/// count and the resource the model expects to bind afterwards.
pub fn predict_knee(knee: &Knee, low: &TrialOutcome, knob: &WhatIfKnob) -> (u32, String) {
    let k0 = knee.knee_users;
    // Saturation shows on the first failing point past the knee; the
    // passing knee trial is the fallback when the search never failed.
    let sat = knee.failing_trial().or_else(|| knee.knee_trial());
    let (Some(sat), Some(low_u)) = (
        sat.and_then(|t| t.report.utilization.as_ref()),
        low.report.utilization.as_ref(),
    ) else {
        return (k0, knee.binding.clone().unwrap_or_default());
    };
    let binding = knee.binding.as_deref().unwrap_or("");
    let mut best: Option<(f64, &str)> = None;
    for r in &sat.resources {
        let is_binding = r.name == binding;
        // Only the binding resource and queue-holding proportional
        // resources constrain the prediction: a bursty queue-less row
        // (a disk flushing in spikes) shows high loaded-window
        // intensity without any evidence of a capacity ceiling, and
        // letting it cap the min makes every positive prediction
        // pessimistic. Queue-holding: while the resource was in use,
        // more than the one item in service was present on average.
        if !is_binding && (r.active_queue() <= 1.0 || !load_proportional(r, &low_u.resources)) {
            continue;
        }
        // Loaded-window intensity is what saturates; busy time only
        // feeds the proportionality test above.
        let u = r.active_util.max(1e-6);
        let u_sat = if is_binding { u } else { 1.0 };
        let k_r = f64::from(k0) * u_sat / (u * knob.service_multiplier(r.kind));
        if best.is_none_or(|(b, _)| k_r < b) {
            best = Some((k_r, r.name.as_str()));
        }
    }
    match best {
        Some((k, name)) => (k.floor() as u32, name.to_string()),
        None => (k0, knee.binding.clone().unwrap_or_default()),
    }
}

/// Runs the what-if matrix over a finished baseline search: one
/// low-load probe trial (fault-free, `k0/4` users), a prediction per
/// knob, and — when `confirm` is set — a full deterministic knee
/// re-search per knob so every row carries its exact error.
pub fn run_whatif(
    shape: &str,
    topology: Topology,
    spec: &WorkloadSpec,
    slo: &SloSpec,
    params: &SearchParams,
    knee: &Knee,
    confirm: bool,
) -> WhatIfReport {
    let k0 = knee.knee_users;
    let mut report = WhatIfReport {
        baseline_knee: k0,
        rows: Vec::new(),
    };
    if k0 == 0 {
        return report;
    }
    // Floor at GENERATORS users so the probe spawns the same driver
    // set as the knee trial: a resource absent from the probe counts as
    // load-proportional, and a missing generator's CPU row would slip
    // through the self-paced filter and cap every prediction.
    let low_users = (k0 / 4).max(crate::spec::GENERATORS).min(k0);
    let low_spec = spec.clone().with_users(low_users);
    let low = run_trial(
        topology,
        &low_spec,
        slo,
        params.medium,
        None,
        &params.tuning,
    );
    for knob in standard_knobs() {
        let (predicted, binding_after) = predict_knee(knee, &low, &knob);
        let confirmed = confirm.then(|| {
            let tuned = SearchParams {
                // Leave the re-search headroom past the prediction so a
                // capped bracket cannot masquerade as a confirmation.
                max_users: params.max_users.max(predicted.saturating_mul(2)),
                tuning: knob.apply(&params.tuning),
                ..params.clone()
            };
            find_knee(shape, topology, spec, slo, &tuned)
        });
        report.rows.push(WhatIfRow {
            knob: knob.name.to_string(),
            multiplier: knob.multiplier,
            predicted_knee: predicted,
            confirmed_knee: confirmed.as_ref().map(|k| k.knee_users),
            binding_after: confirmed
                .as_ref()
                .and_then(|k| k.binding.clone())
                .unwrap_or(binding_after),
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use publishing_chaos::Medium;

    #[test]
    fn knob_matrix_matches_the_issue() {
        let names: Vec<_> = standard_knobs().iter().map(|k| k.name).collect();
        assert_eq!(names, ["wire", "sink_recv", "proto_cpu"]);
        let base = Tuning::default();
        let wire = standard_knobs()[0].apply(&base);
        assert_eq!(wire.lan.bandwidth_bps, base.lan.bandwidth_bps * 2);
        let recv = standard_knobs()[1].apply(&base);
        assert_eq!(recv.transport.window, base.transport.window * 2);
        let cpu = standard_knobs()[2].apply(&base);
        assert_eq!(cpu.costs.net_receive, base.costs.net_receive.mul_f64(0.5));
    }

    #[test]
    fn knob_for_kind_maps_the_protocol_cpu_and_wire() {
        assert_eq!(knob_for_kind(ResourceKind::NodeCpuProto), Some("proto_cpu"));
        assert_eq!(knob_for_kind(ResourceKind::NodeCpuProg), Some("proto_cpu"));
        // The wire knob claims the medium first (matrix order).
        assert_eq!(knob_for_kind(ResourceKind::Medium), Some("wire"));
        assert_eq!(knob_for_kind(ResourceKind::Transport), Some("wire"));
        assert_eq!(knob_for_kind(ResourceKind::Disk), None);
    }

    /// A ledger row busy for the first `busy_ms` of a `window_ms` run,
    /// with `queue_ms` item·ms of work having waited behind it.
    fn row(
        kind: ResourceKind,
        name: &str,
        busy_ms: u64,
        queue_ms: f64,
        window_ms: u64,
    ) -> ResourceUsage {
        use publishing_sim::ledger::Timeline;
        use publishing_sim::time::{SimDuration, SimTime};
        let mut busy = Timeline::new();
        busy.add_busy(SimTime::ZERO, SimTime::from_millis(busy_ms));
        ResourceUsage::from_timeline(
            kind,
            name.into(),
            0,
            0,
            &busy,
            SimDuration::from_millis(window_ms),
            queue_ms / window_ms as f64,
            4,
            100,
            0,
        )
    }

    /// A trial that stopped at `window_ms` with `resources` on its ledger.
    fn trial(
        users: u32,
        pass: bool,
        window_ms: u64,
        resources: Vec<ResourceUsage>,
    ) -> TrialOutcome {
        use publishing_obs::report::ObsReport;
        use publishing_obs::util::UtilizationReport;
        TrialOutcome {
            users,
            offered: 0,
            delivered: 0,
            violations: Vec::new(),
            chaos_failures: Vec::new(),
            pass,
            settled_ms: None,
            binding: None,
            report: Box::new(ObsReport {
                utilization: Some(UtilizationReport {
                    window_ms: window_ms as f64,
                    resources,
                    ..UtilizationReport::default()
                }),
                ..ObsReport::default()
            }),
        }
    }

    #[test]
    fn proportionality_is_judged_on_busy_time_not_on_the_window() {
        let xport = |busy_ms, window_ms| {
            row(
                ResourceKind::Transport,
                "xport 0->2",
                busy_ms,
                0.0,
                window_ms,
            )
        };
        // Twice the busy time at the knee — whose world idled 35 s after
        // its load where the probe's settled at once.
        assert!(load_proportional(&xport(200, 35_400), &[xport(100, 450)]));
        // A self-paced generator is busy as long at any load, however
        // short the knee trial's window.
        assert!(!load_proportional(&xport(100, 450), &[xport(100, 35_400)]));
    }

    #[test]
    fn a_prediction_does_not_change_with_how_long_a_trial_idled() {
        // Past a 6-user knee the sink's receive budget binds; the
        // recorder's CPU is busy over nearly all of its active span,
        // holds a queue and grows with load, so it caps what a faster
        // sink can buy: 6 users still, not 12.
        let sink_recv = &standard_knobs()[1];
        let predicted = |window_ms: u64| {
            let past_knee = vec![
                row(ResourceKind::Transport, "recv 2", 400, 8_000.0, window_ms),
                row(
                    ResourceKind::RecorderCpu,
                    "rec0:cpu",
                    320,
                    2_000.0,
                    window_ms,
                ),
            ];
            let probe = vec![
                row(ResourceKind::Transport, "recv 2", 100, 100.0, window_ms),
                row(ResourceKind::RecorderCpu, "rec0:cpu", 80, 80.0, window_ms),
            ];
            let knee = Knee {
                shape: "t".into(),
                topology: Topology::Single,
                knee_users: 6,
                binding: Some("recv 2".into()),
                trials: vec![
                    trial(6, true, window_ms, Vec::new()),
                    trial(7, false, window_ms, past_knee),
                ],
            };
            predict_knee(&knee, &trial(2, true, window_ms, probe), sink_recv)
        };
        assert_eq!(predicted(800), (6, "rec0:cpu".to_string()));
        assert_eq!(predicted(35_400), predicted(800));
    }

    #[test]
    fn null_knob_predicts_unchanged_knee() {
        // A knob whose kinds miss the binding resource must predict k0:
        // the binding row contributes k0 · u/u = k0 to the min.
        let spec = WorkloadSpec {
            subjects: 2,
            rate_per_sec: 40,
            horizon_ms: 400,
            ..WorkloadSpec::default()
        };
        let params = SearchParams {
            max_users: 8,
            chaos: false,
            medium: Medium::Perfect,
            ..SearchParams::default()
        };
        let knee = find_knee("t", Topology::Single, &spec, &SloSpec::default(), &params);
        if knee.knee_users == 0 || knee.binding.is_none() {
            return; // nothing saturated at this tiny scale — no claim
        }
        let w = run_whatif(
            "t",
            Topology::Single,
            &spec,
            &SloSpec::default(),
            &params,
            &knee,
            false,
        );
        let cpu = w.rows.iter().find(|r| r.knob == "proto_cpu").unwrap();
        // Zero cost model: cpu rows never saturate, prediction is k0.
        assert_eq!(cpu.predicted_knee, knee.knee_users);
    }
}
