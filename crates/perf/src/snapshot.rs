//! The versioned `BENCH_<n>.json` snapshot artifact.
//!
//! One snapshot is one run of the canonical bench scenario matrix. Each
//! scenario carries two sections:
//!
//! - `virtual` — metrics derived purely from virtual time and
//!   deterministic counters (events/sec of *virtual* time, stage-latency
//!   percentiles, peak queue depths, bytes published);
//! - `fingerprints` — the run's output/span fingerprints, as hex
//!   strings (u64 does not survive an f64 JSON number).
//!
//! Both are exactly replayable, so two runs of the same build write
//! byte-identical artifacts: `cmp` against the committed baseline is the
//! identity gate for a behaviour-preserving change. Host cost (wall
//! clock, allocations) is not recorded here — it is `hostbench`'s alone.
//!
//! The artifact is self-describing: `schema` names the layout version
//! and `mode` the scenario matrix variant (`smoke` or `full`), and the
//! comparator refuses to diff snapshots that disagree on either.

use publishing_obs::json::{parse, Json, ObjBuilder, ParseError};
use publishing_obs::registry::MetricValue;
use publishing_obs::report::ObsReport;
use std::collections::BTreeMap;

/// Layout version written into every snapshot.
pub const SCHEMA_VERSION: u32 = 1;

/// One scenario's measurements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioSnapshot {
    /// Scenario name (`steady_state`, `crash_replay`, ...).
    pub name: String,
    /// Deterministic virtual-time metrics, by name.
    pub virt: BTreeMap<String, f64>,
    /// Determinism fingerprints, by name, as `0x`-prefixed hex.
    pub fingerprints: BTreeMap<String, String>,
}

impl ScenarioSnapshot {
    /// Creates an empty scenario entry.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioSnapshot {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Files a virtual metric.
    pub fn virt(&mut self, name: impl Into<String>, value: f64) {
        self.virt.insert(name.into(), value);
    }

    /// Files a fingerprint.
    pub fn fingerprint(&mut self, name: impl Into<String>, value: u64) {
        self.fingerprints
            .insert(name.into(), format!("{value:#018x}"));
    }

    fn to_json(&self) -> Json {
        ObjBuilder::new()
            .field("virtual", Json::obj(self.virt.iter().map(|(k, v)| (k, *v))))
            .field("fingerprints", Json::obj(&self.fingerprints))
            .build()
    }
}

/// One bench run's artifact: schema, mode, and the scenario matrix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Layout version ([`SCHEMA_VERSION`] for snapshots this code writes).
    pub schema: u32,
    /// Scenario-matrix variant: `smoke` or `full`.
    pub mode: String,
    /// The scenarios, in matrix order.
    pub scenarios: Vec<ScenarioSnapshot>,
}

impl Snapshot {
    /// Creates an empty snapshot for `mode`.
    pub fn new(mode: impl Into<String>) -> Self {
        Snapshot {
            schema: SCHEMA_VERSION,
            mode: mode.into(),
            scenarios: Vec::new(),
        }
    }

    /// Looks up a scenario by name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioSnapshot> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Serializes the artifact. Two runs at the same seed produce
    /// byte-identical output.
    pub fn to_json(&self) -> String {
        ObjBuilder::new()
            .field("schema", self.schema as f64)
            .field("mode", &self.mode)
            .field(
                "scenarios",
                Json::obj(self.scenarios.iter().map(|s| (&s.name, s.to_json()))),
            )
            .build()
            .write()
    }

    /// Parses an artifact previously produced by [`Snapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Snapshot, ParseError> {
        let doc = parse(text)?;
        let bad = |what: &str| ParseError {
            expected: what.to_string(),
            at: 0,
        };
        let schema = doc
            .get("schema")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("a schema number"))? as u32;
        let mode = doc
            .get("mode")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("a mode string"))?
            .to_string();
        let mut scenarios = Vec::new();
        for (name, body) in doc
            .get("scenarios")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("a scenarios object"))?
        {
            let mut s = ScenarioSnapshot::new(name.clone());
            if let Some(pairs) = body.get("virtual").and_then(Json::as_obj) {
                for (k, v) in pairs {
                    s.virt(
                        k.clone(),
                        v.as_f64().ok_or_else(|| bad("a numeric metric"))?,
                    );
                }
            }
            if let Some(pairs) = body.get("fingerprints").and_then(Json::as_obj) {
                for (k, v) in pairs {
                    s.fingerprints.insert(
                        k.clone(),
                        v.as_str()
                            .ok_or_else(|| bad("a hex fingerprint"))?
                            .to_string(),
                    );
                }
            }
            scenarios.push(s);
        }
        Ok(Snapshot {
            schema,
            mode,
            scenarios,
        })
    }
}

/// Projects an [`ObsReport`] into one scenario's deterministic virtual
/// metrics: scheduler throughput over virtual time, stage-latency
/// percentiles, queue-depth distribution, bytes published, and the span
/// fingerprint. The caller adds its own extra fingerprints (e.g. the
/// output fingerprint).
pub fn scenario_from_report(name: &str, report: &ObsReport) -> ScenarioSnapshot {
    let mut s = ScenarioSnapshot::new(name);
    s.virt("at_ms", report.at_ms);
    s.virt("events_delivered", report.sched.delivered as f64);
    s.virt("events_scheduled", report.sched.scheduled as f64);
    let secs = report.at_ms / 1e3;
    s.virt(
        "events_per_virtual_sec",
        if secs > 0.0 {
            report.sched.delivered as f64 / secs
        } else {
            0.0
        },
    );
    s.virt("peak_sched_pending", report.sched.peak_pending as f64);
    if let Some(h) = &report.queue_depths {
        s.virt("queue_depth_p50", h.quantile(0.5));
        s.virt("queue_depth_p95", h.quantile(0.95));
        s.virt("queue_depth_p99", h.quantile(0.99));
        s.virt("peak_queue_depth", h.summary().max().unwrap_or(0.0));
    }
    s.virt("spans_total", report.spans_total as f64);
    s.virt("spans_replayed", report.latencies.replayed as f64);
    s.virt("spans_suppressed", report.latencies.suppressed as f64);
    s.virt("spans_partial", report.latencies.partial as f64);
    if let Some(cp) = &report.critical_path {
        s.virt("critical_path_total_ms", cp.total().as_millis_f64());
        s.virt("critical_path_segments", cp.segments.len() as f64);
        for (cat, d) in cp.by_stage() {
            s.virt(format!("critical_path_{cat}_ms"), d.as_millis_f64());
        }
    }
    for (stage, h) in [
        (
            "publish_to_capture_us",
            &report.latencies.publish_to_capture_us,
        ),
        (
            "capture_to_sequence_us",
            &report.latencies.capture_to_sequence_us,
        ),
        (
            "publish_to_deliver_us",
            &report.latencies.publish_to_deliver_us,
        ),
    ] {
        s.virt(format!("{stage}_n"), h.summary().count() as f64);
        s.virt(format!("{stage}_p50"), h.quantile(0.5) as f64);
        s.virt(format!("{stage}_p95"), h.quantile(0.95) as f64);
        s.virt(format!("{stage}_p99"), h.quantile(0.99) as f64);
    }
    let mut bytes = 0.0;
    for (path, v) in report.metrics.iter() {
        if let (true, MetricValue::Counter(c)) = (path.ends_with("/bytes_published"), v) {
            bytes += c as f64;
        }
    }
    s.virt("bytes_published", bytes);
    // Attribution families for regression forensics: virtual-time cost
    // per profile category, ledger busy time aggregated per resource
    // kind, and the binding resource's identity (a fingerprint, so a
    // flip shows up in the comparator as an informational change and in
    // forensics as a first-ranked suspect).
    for (category, d) in report.profile.iter() {
        s.virt(format!("profile_{category}_ms"), d.as_millis_f64());
    }
    if let Some(u) = &report.utilization {
        let mut busy_by_kind: BTreeMap<&'static str, f64> = BTreeMap::new();
        for r in &u.resources {
            *busy_by_kind.entry(r.kind.label()).or_insert(0.0) += r.busy_ms;
        }
        for (kind, busy) in busy_by_kind {
            s.virt(format!("util_{kind}_busy_ms"), busy);
        }
        if let Some(b) = u.binding() {
            s.fingerprints.insert("binding".into(), b.name.clone());
        }
    }
    s.fingerprint("spans", report.span_fingerprint);
    s
}

/// Picks the next free `BENCH_<n>.json` number in `dir` (1-based): one
/// more than the highest existing snapshot number, so history never gets
/// overwritten.
pub fn next_snapshot_number(dir: &std::path::Path) -> u32 {
    let mut max = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(n) = name
                .strip_prefix("BENCH_")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|num| num.parse::<u32>().ok())
            {
                max = max.max(n);
            }
        }
    }
    max + 1
}

/// The canonical artifact filename for snapshot number `n`.
pub fn snapshot_filename(n: u32) -> String {
    format!("BENCH_{n}.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut snap = Snapshot::new("smoke");
        let mut s = ScenarioSnapshot::new("steady_state");
        s.virt("events_per_virtual_sec", 1234.5);
        s.virt("publish_to_deliver_us_p99", 2048.0);
        s.virt("peak_queue_depth", 3.0);
        s.fingerprint("output", 0xdead_beef);
        snap.scenarios.push(s);
        snap
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = sample();
        let text = snap.to_json();
        let back = Snapshot::from_json(&text).expect("parses");
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn a_host_section_from_an_older_artifact_is_ignored() {
        let text = sample().to_json();
        assert!(text.contains("\"schema\":1.0"));
        assert!(text.contains("0x00000000deadbeef"));
        let older = text.replacen(
            "\"fingerprints\":",
            "\"host\":{\"allocations\":7.0},\"fingerprints\":",
            1,
        );
        assert_ne!(older, text);
        assert_eq!(Snapshot::from_json(&older).expect("parses"), sample());
    }

    #[test]
    fn scenario_from_report_projects_core_metrics() {
        use publishing_sim::stats::LinearHistogram;
        let mut report = ObsReport {
            at_ms: 2000.0,
            spans_total: 99,
            span_fingerprint: 0xfeed,
            ..Default::default()
        };
        report.sched.delivered = 500;
        report.sched.peak_pending = 12;
        report.metrics.counter("shard/0/bytes_published", 100);
        report.metrics.counter("shard/1/bytes_published", 50);
        let mut depths = LinearHistogram::new(0.0, 16.0, 16);
        for d in [1.0, 2.0, 5.0] {
            depths.record(d);
        }
        report.queue_depths = Some(depths);
        let s = scenario_from_report("steady_state", &report);
        assert_eq!(s.virt["events_per_virtual_sec"], 250.0);
        assert_eq!(s.virt["bytes_published"], 150.0);
        assert_eq!(s.virt["peak_sched_pending"], 12.0);
        assert_eq!(s.virt["peak_queue_depth"], 5.0);
        assert!(s.virt.contains_key("publish_to_deliver_us_p99"));
        assert_eq!(s.fingerprints["spans"], "0x000000000000feed");
    }

    #[test]
    fn snapshot_numbering_scans_existing_files() {
        let dir = std::env::temp_dir().join(format!("perf-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_snapshot_number(&dir), 1);
        std::fs::write(dir.join("BENCH_1.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_7.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_x.json"), "{}").unwrap();
        assert_eq!(next_snapshot_number(&dir), 8);
        assert_eq!(snapshot_filename(8), "BENCH_8.json");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
