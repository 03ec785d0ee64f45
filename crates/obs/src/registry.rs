//! The hierarchical metrics registry.
//!
//! Components keep their existing instruments (`Counter`, `Summary`,
//! `LogHistogram`, `Utilization`); a collector walks them at report time
//! and files each reading under a slash-separated path such as
//! `node/2/kernel/msgs_sent` or `shard/0/recorder/published`. The
//! registry is therefore a *snapshot*: two snapshots taken at different
//! virtual times can be subtracted ([`MetricsRegistry::delta`]) to get
//! interval rates, and any snapshot exports as JSON lines for offline
//! tooling.

use crate::json::{Json, ObjBuilder};
use publishing_sim::stats::{LinearHistogram, LogHistogram, Summary};
use std::collections::BTreeMap;

/// One metric reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotone count.
    Counter(u64),
    /// A point-in-time level (utilization, lag, age...).
    Gauge(f64),
}

/// A counter is a JSON integer, a gauge a JSON float.
impl From<MetricValue> for Json {
    fn from(v: MetricValue) -> Json {
        match v {
            MetricValue::Counter(c) => Json::Int(c),
            MetricValue::Gauge(g) => Json::Num(g),
        }
    }
}

/// A path-keyed snapshot of metric readings.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    map: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Files a counter reading under `path` (replacing any prior value).
    pub fn counter(&mut self, path: impl Into<String>, value: u64) {
        self.map.insert(path.into(), MetricValue::Counter(value));
    }

    /// Files a gauge reading under `path`. Non-finite values are clamped
    /// to zero so the JSON export stays valid.
    pub fn gauge(&mut self, path: impl Into<String>, value: f64) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.map.insert(path.into(), MetricValue::Gauge(v));
    }

    /// Looks up a reading.
    pub fn get(&self, path: &str) -> Option<MetricValue> {
        self.map.get(path).copied()
    }

    /// Looks up a counter reading, `None` if absent or not a counter.
    pub fn counter_value(&self, path: &str) -> Option<u64> {
        match self.map.get(path) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a gauge reading, `None` if absent or not a gauge.
    pub fn gauge_value(&self, path: &str) -> Option<f64> {
        match self.map.get(path) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Iterates readings in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricValue)> {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Returns the number of readings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if no readings have been filed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Expands a [`Summary`] into `count`/`mean`/`min`/`max`/`stddev`
    /// readings under `prefix`.
    pub fn summary(&mut self, prefix: &str, s: &Summary) {
        self.counter(format!("{prefix}/count"), s.count());
        self.gauge(format!("{prefix}/mean"), s.mean());
        self.gauge(format!("{prefix}/min"), s.min().unwrap_or(0.0));
        self.gauge(format!("{prefix}/max"), s.max().unwrap_or(0.0));
        self.gauge(format!("{prefix}/stddev"), s.stddev());
    }

    /// Expands a [`LogHistogram`] into summary plus p50/p90/p95/p99
    /// readings under `prefix`.
    pub fn histogram(&mut self, prefix: &str, h: &LogHistogram) {
        self.summary(prefix, h.summary());
        self.counter(format!("{prefix}/p50"), h.quantile(0.5));
        self.counter(format!("{prefix}/p90"), h.quantile(0.9));
        self.counter(format!("{prefix}/p95"), h.quantile(0.95));
        self.counter(format!("{prefix}/p99"), h.quantile(0.99));
    }

    /// Expands a [`LinearHistogram`] into summary plus p50/p95/p99
    /// gauges under `prefix`.
    pub fn linear_histogram(&mut self, prefix: &str, h: &LinearHistogram) {
        self.summary(prefix, h.summary());
        self.gauge(format!("{prefix}/p50"), h.quantile(0.5));
        self.gauge(format!("{prefix}/p95"), h.quantile(0.95));
        self.gauge(format!("{prefix}/p99"), h.quantile(0.99));
    }

    /// Subtracts an earlier snapshot: counters become interval deltas
    /// (saturating at zero if a counter reset), gauges keep this
    /// snapshot's level. Paths absent from `earlier` keep their value;
    /// paths only in `earlier` are dropped.
    pub fn delta(&self, earlier: &MetricsRegistry) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        for (path, v) in &self.map {
            let dv = match (v, earlier.map.get(path)) {
                (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                    MetricValue::Counter(now.saturating_sub(*then))
                }
                _ => *v,
            };
            out.map.insert(path.clone(), dv);
        }
        out
    }

    /// Renders every reading as one JSON object per line:
    /// `{"path":"node/0/kernel/msgs_sent","kind":"counter","value":12}`.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (path, v) in self.iter() {
            let kind = match v {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
            };
            let line = ObjBuilder::new()
                .field("path", path)
                .field("kind", kind)
                .field("value", v);
            s.push_str(&line.build().write());
            s.push('\n');
        }
        s
    }

    /// Renders readings as aligned text lines for the terminal report.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for (path, v) in &self.map {
            match v {
                MetricValue::Counter(c) => s.push_str(&format!("  {path} = {c}\n")),
                MetricValue::Gauge(g) => s.push_str(&format!("  {path} = {g:.6}\n")),
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_and_lookup() {
        let mut r = MetricsRegistry::new();
        r.counter("node/0/kernel/msgs_sent", 12);
        r.gauge("medium/utilization", 0.25);
        assert_eq!(r.counter_value("node/0/kernel/msgs_sent"), Some(12));
        assert_eq!(r.gauge_value("medium/utilization"), Some(0.25));
        assert_eq!(r.counter_value("medium/utilization"), None);
        assert_eq!(r.get("missing"), None);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn delta_subtracts_counters_keeps_gauges() {
        let mut a = MetricsRegistry::new();
        a.counter("c", 10);
        a.gauge("g", 0.5);
        let mut b = MetricsRegistry::new();
        b.counter("c", 25);
        b.gauge("g", 0.9);
        b.counter("new", 3);
        let d = b.delta(&a);
        assert_eq!(d.counter_value("c"), Some(15));
        assert_eq!(d.gauge_value("g"), Some(0.9));
        assert_eq!(d.counter_value("new"), Some(3));
    }

    #[test]
    fn delta_saturates_on_reset() {
        let mut a = MetricsRegistry::new();
        a.counter("c", 10);
        let mut b = MetricsRegistry::new();
        b.counter("c", 4); // counter reset between snapshots
        assert_eq!(b.delta(&a).counter_value("c"), Some(0));
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let mut r = MetricsRegistry::new();
        r.counter("a/b", 1);
        r.gauge("a/c", 0.5);
        r.gauge("a/d", 2.0);
        let jsonl = r.to_jsonl();
        let lines: Vec<_> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"path\":\"a/b\",\"kind\":\"counter\",\"value\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"path\":\"a/c\",\"kind\":\"gauge\",\"value\":0.5}"
        );
        // Whole gauges render with a decimal point so readers see a float.
        assert_eq!(
            lines[2],
            "{\"path\":\"a/d\",\"kind\":\"gauge\",\"value\":2.0}"
        );
    }

    #[test]
    fn non_finite_gauges_are_clamped() {
        let mut r = MetricsRegistry::new();
        r.gauge("bad", f64::NAN);
        r.gauge("inf", f64::INFINITY);
        assert_eq!(r.gauge_value("bad"), Some(0.0));
        assert_eq!(r.gauge_value("inf"), Some(0.0));
    }

    #[test]
    fn summary_and_histogram_expansion() {
        use publishing_sim::stats::{LogHistogram, Summary};
        let mut s = Summary::new();
        s.record(2.0);
        s.record(4.0);
        let mut h = LogHistogram::new();
        h.record(8);
        let mut r = MetricsRegistry::new();
        r.summary("lat", &s);
        r.histogram("sz", &h);
        assert_eq!(r.counter_value("lat/count"), Some(2));
        assert_eq!(r.gauge_value("lat/mean"), Some(3.0));
        assert_eq!(r.counter_value("sz/p50"), Some(16)); // bucket upper bound
        assert_eq!(r.counter_value("sz/p95"), Some(16));
    }

    #[test]
    fn linear_histogram_expansion_has_percentiles() {
        use publishing_sim::stats::LinearHistogram;
        let mut h = LinearHistogram::new(0.0, 100.0, 10);
        for i in 0..100 {
            h.record(i as f64);
        }
        let mut r = MetricsRegistry::new();
        r.linear_histogram("depth", &h);
        assert_eq!(r.counter_value("depth/count"), Some(100));
        let p50 = r.gauge_value("depth/p50").unwrap();
        let p95 = r.gauge_value("depth/p95").unwrap();
        let p99 = r.gauge_value("depth/p99").unwrap();
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    }
}
