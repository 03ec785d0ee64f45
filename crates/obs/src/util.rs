//! Capacity-lens report sections: the resource-utilization ledger and
//! the what-if (virtual-speedup) profiler results.
//!
//! A world driver assembles a [`UtilizationReport`] from the typed
//! [`ResourceUsage`] rows every subsystem meter exports (per-node CPU
//! split into protocol vs. program time, the shared medium, per-channel
//! transport occupancy, recorder publishing CPU, stable-store disk).
//! The ranking and binding-resource call live in
//! `publishing_sim::ledger` so the sim layer, the worlds, and this
//! report all agree on what "saturated" means; this module only holds
//! the report-shaped containers and their text renderings (the JSON
//! shape of every section is `report.rs`'s).
//!
//! The cross-validation rows ([`XvalRow`]) compare a measured quantity
//! against an analytic queueing-model prediction (utilization law
//! ρ = λ·S, Little's law L = λ·W) so drift between the simulator and
//! the models in `crates/queueing` is caught by the report itself.

use publishing_sim::ledger::{binding, rank, ResourceUsage};

/// One measured-vs-predicted comparison against an analytic queueing
/// law. Assembled by the workload layer, which knows both the offered
/// load and the service-time constants the prediction needs.
#[derive(Debug, Clone)]
pub struct XvalRow {
    /// Resource label the row validates (e.g. `medium`, `xport 0->2`).
    pub resource: String,
    /// Which law produced the prediction (`utilization` for ρ = λ·S,
    /// `little` for L = λ·W).
    pub law: String,
    /// The analytic prediction.
    pub predicted: f64,
    /// The value measured from the run's meters.
    pub measured: f64,
    /// Accepted relative error (fraction of the larger magnitude).
    pub tolerance: f64,
    /// Whether |predicted − measured| fell within tolerance.
    pub ok: bool,
}

impl XvalRow {
    /// Builds a row, computing `ok` from the relative error against the
    /// larger of the two magnitudes (absolute error when both are tiny,
    /// so near-zero pairs compare cleanly).
    pub fn check(
        resource: impl Into<String>,
        law: impl Into<String>,
        predicted: f64,
        measured: f64,
        tolerance: f64,
    ) -> XvalRow {
        let scale = predicted.abs().max(measured.abs());
        let err = (predicted - measured).abs();
        let ok = if scale < 1e-9 {
            true
        } else if scale < 0.05 {
            err <= tolerance * 0.05
        } else {
            err <= tolerance * scale
        };
        XvalRow {
            resource: resource.into(),
            law: law.into(),
            predicted,
            measured,
            tolerance,
            ok,
        }
    }

    /// One-line terminal rendering.
    pub fn render(&self) -> String {
        format!(
            "{} {}: predicted={:.4} measured={:.4} tol={:.0}% {}",
            self.resource,
            self.law,
            self.predicted,
            self.measured,
            self.tolerance * 100.0,
            if self.ok { "ok" } else { "DIVERGED" }
        )
    }
}

/// The resource-utilization section of the report.
#[derive(Debug, Clone, Default)]
pub struct UtilizationReport {
    /// The report window (run start → snapshot) the scalar utilizations
    /// are computed against, ms.
    pub window_ms: f64,
    /// Width of one timeline bin, ms (peak utilization is measured over
    /// a sliding window of such bins).
    pub bin_ms: f64,
    /// Every metered resource, in assembly order.
    pub resources: Vec<ResourceUsage>,
    /// Queueing-model cross-validation rows (empty when the run was not
    /// driven through the workload engine).
    pub xval: Vec<XvalRow>,
}

impl UtilizationReport {
    /// Indices of `resources` ranked most-loaded first (saturated rows
    /// first, then by queue depth, then by peak utilization).
    pub fn ranked(&self) -> Vec<usize> {
        rank(&self.resources)
    }

    /// The binding resource — the top-ranked *saturated* row — or
    /// `None` when nothing is saturated (the system is under-driven).
    pub fn binding(&self) -> Option<&ResourceUsage> {
        binding(&self.resources).map(|i| &self.resources[i])
    }

    /// True when any cross-validation row diverged from its model.
    pub fn xval_diverged(&self) -> bool {
        self.xval.iter().any(|r| !r.ok)
    }

    /// Terminal rendering: the ranked resource table plus any
    /// cross-validation rows.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "  window={:.1}ms bin={:.2}ms binding={}\n",
            self.window_ms,
            self.bin_ms,
            self.binding()
                .map(|r| r.name.as_str())
                .unwrap_or("none (under-driven)")
        ));
        for &i in &self.ranked() {
            let r = &self.resources[i];
            s.push_str(&format!(
                "  {:<24} util={:>5.1}% active={:>5.1}% peak={:>5.1}% queue={:.2} events={}{}{}\n",
                r.name,
                r.util * 100.0,
                r.active_util * 100.0,
                r.peak_util * 100.0,
                r.mean_queue,
                r.events,
                if r.contention > 0 {
                    format!(" contention={}", r.contention)
                } else {
                    String::new()
                },
                if r.saturated() { "  <-- saturated" } else { "" },
            ));
        }
        if !self.xval.is_empty() {
            s.push_str("  queueing cross-validation:\n");
            for row in &self.xval {
                s.push_str("    ");
                s.push_str(&row.render());
                s.push('\n');
            }
        }
        s
    }
}

/// One what-if row: a single virtual-speedup knob applied to the
/// scenario, with the profiler's predicted knee and (optionally) the
/// knee an actual re-search confirmed.
#[derive(Debug, Clone)]
pub struct WhatIfRow {
    /// The knob ("wire", "window", "cpu", "publish").
    pub knob: String,
    /// Multiplier applied to the knob (2.0 = twice as fast / as wide;
    /// 0.5 = half the CPU cost).
    pub multiplier: f64,
    /// Knee (max passing users) the profiler predicts from the
    /// baseline's utilization slopes.
    pub predicted_knee: u32,
    /// Knee an actual capacity re-search measured under the tuned
    /// scenario; `None` when confirmation was not requested.
    pub confirmed_knee: Option<u32>,
    /// Binding resource after the speedup (from the confirming search,
    /// or the profiler's expectation when unconfirmed).
    pub binding_after: String,
}

impl WhatIfRow {
    /// Relative error of the prediction against the confirmed knee,
    /// when both are available.
    pub fn error(&self) -> Option<f64> {
        let confirmed = self.confirmed_knee? as f64;
        if confirmed == 0.0 {
            return None;
        }
        Some((self.predicted_knee as f64 - confirmed).abs() / confirmed)
    }

    /// One-line terminal rendering.
    pub fn render(&self) -> String {
        let confirm = match (self.confirmed_knee, self.error()) {
            (Some(k), Some(e)) => format!(" confirmed={} err={:.1}%", k, e * 100.0),
            (Some(k), None) => format!(" confirmed={}", k),
            (None, _) => String::new(),
        };
        format!(
            "{} x{:.2}: predicted_knee={}{} binding_after={}",
            self.knob, self.multiplier, self.predicted_knee, confirm, self.binding_after
        )
    }
}

/// The what-if profiler section of the report: the
/// baseline knee plus one row per virtual-speedup knob.
#[derive(Debug, Clone, Default)]
pub struct WhatIfReport {
    /// Knee (max passing users) of the untuned baseline scenario.
    pub baseline_knee: u32,
    /// One row per knob × multiplier tried.
    pub rows: Vec<WhatIfRow>,
}

impl WhatIfReport {
    /// Terminal rendering.
    pub fn render(&self) -> String {
        let mut s = format!("  baseline_knee={}\n", self.baseline_knee);
        for row in &self.rows {
            s.push_str("  ");
            s.push_str(&row.render());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use publishing_sim::ledger::ResourceKind;

    fn usage(kind: ResourceKind, index: u32, peak: f64, queue: f64) -> ResourceUsage {
        ResourceUsage {
            kind,
            name: format!("{}{}", kind.label(), index),
            index,
            peer: 0,
            busy_ms: 10.0,
            window_ms: 100.0,
            util: peak / 2.0,
            active_util: peak,
            peak_util: peak,
            mean_queue: queue,
            peak_queue: queue as u64 + 1,
            events: 100,
            contention: 0,
        }
    }

    #[test]
    fn binding_picks_top_saturated_row() {
        let report = UtilizationReport {
            window_ms: 100.0,
            bin_ms: 16.78,
            resources: vec![
                usage(ResourceKind::NodeCpuProto, 0, 0.4, 0.1),
                usage(ResourceKind::Transport, 1, 0.97, 8.0),
                usage(ResourceKind::Medium, 0, 0.5, 0.0),
            ],
            xval: Vec::new(),
        };
        let b = report.binding().expect("one saturated row");
        assert_eq!(b.kind, ResourceKind::Transport);
        assert_eq!(report.ranked()[0], 1);
        let text = report.render();
        assert!(text.contains("<-- saturated"));
        assert!(text.contains("binding="));
    }

    #[test]
    fn underdriven_report_has_no_binding() {
        let report = UtilizationReport {
            window_ms: 100.0,
            bin_ms: 16.78,
            resources: vec![usage(ResourceKind::NodeCpuProto, 0, 0.3, 0.0)],
            xval: Vec::new(),
        };
        assert!(report.binding().is_none());
        assert!(report.render().contains("none (under-driven)"));
    }

    #[test]
    fn xval_check_applies_relative_tolerance() {
        assert!(XvalRow::check("medium", "utilization", 0.50, 0.55, 0.20).ok);
        assert!(!XvalRow::check("medium", "utilization", 0.50, 0.70, 0.20).ok);
        // Near-zero pairs compare on absolute error.
        assert!(XvalRow::check("medium", "utilization", 0.0, 0.004, 0.20).ok);
        assert!(XvalRow::check("medium", "little", 1e-12, 0.0, 0.10).ok);
        let report = UtilizationReport {
            xval: vec![XvalRow::check("medium", "utilization", 0.5, 0.9, 0.1)],
            ..Default::default()
        };
        assert!(report.xval_diverged());
        assert!(report.render().contains("DIVERGED"));
    }

    #[test]
    fn whatif_rows_report_prediction_error() {
        let row = WhatIfRow {
            knob: "wire".into(),
            multiplier: 2.0,
            predicted_knee: 55,
            confirmed_knee: Some(50),
            binding_after: "medium".into(),
        };
        assert!((row.error().unwrap() - 0.10).abs() < 1e-9);
        let report = WhatIfReport {
            baseline_knee: 28,
            rows: vec![row],
        };
        let text = report.render();
        assert!(text.contains("baseline_knee=28"));
        assert!(text.contains("wire x2.00: predicted_knee=55 confirmed=50 err=10.0%"));
    }
}
