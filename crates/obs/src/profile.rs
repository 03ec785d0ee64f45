//! Virtual-time profiling.
//!
//! Two complementary views of "where does the time go":
//!
//! - [`TimeProfile`] attributes accumulated *busy* virtual time to named
//!   categories (kernel CPU, recorder publish CPU, disk, medium), so a
//!   run artifact can answer "what fraction of the horizon was the
//!   recorder's disk busy".
//! - [`StageLatencies`] measures per-message *elapsed* virtual time
//!   between lifecycle stages (publish → capture → sequence → deliver),
//!   folded straight from the component span logs, so recorder service
//!   time decomposes into its stages.

use crate::registry::MetricsRegistry;
use crate::span::{misses_prerequisite, SpanLog, Stage};
use publishing_sim::stats::LogHistogram;
use publishing_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Accumulated busy virtual time per named category.
#[derive(Debug, Clone, Default)]
pub struct TimeProfile {
    entries: BTreeMap<String, SimDuration>,
}

impl TimeProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        TimeProfile::default()
    }

    /// Adds `d` to `category`'s accumulated time.
    pub fn charge(&mut self, category: impl Into<String>, d: SimDuration) {
        *self
            .entries
            .entry(category.into())
            .or_insert(SimDuration::ZERO) += d;
    }

    /// Returns a category's accumulated time (zero if never charged).
    pub fn get(&self, category: &str) -> SimDuration {
        self.entries
            .get(category)
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Iterates categories in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, SimDuration)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Files each category as `profile/<category>_ms` gauges, plus its
    /// fraction of `horizon` as `profile/<category>_frac`.
    pub fn into_registry(&self, reg: &mut MetricsRegistry, horizon: SimDuration) {
        for (name, d) in &self.entries {
            reg.gauge(format!("profile/{name}_ms"), d.as_millis_f64());
            let frac = if horizon == SimDuration::ZERO {
                0.0
            } else {
                *d / horizon
            };
            reg.gauge(format!("profile/{name}_frac"), frac);
        }
    }

    /// Renders `category  12.345ms  (4.5%)` lines against `horizon`.
    pub fn render(&self, horizon: SimDuration) -> String {
        let mut s = String::new();
        for (name, d) in &self.entries {
            let frac = if horizon == SimDuration::ZERO {
                0.0
            } else {
                *d / horizon
            };
            s.push_str(&format!(
                "  {name:<24} {:>12.3}ms ({:>5.1}%)\n",
                d.as_millis_f64(),
                frac * 100.0
            ));
        }
        s
    }
}

/// Per-message latency histograms between lifecycle stages, in
/// microseconds of virtual time.
#[derive(Debug, Clone, Default)]
pub struct StageLatencies {
    /// Publish at the sender → capture at the recorder.
    pub publish_to_capture_us: LogHistogram,
    /// Capture → sequence (recorder-ack): the recorder's own service gap.
    pub capture_to_sequence_us: LogHistogram,
    /// Publish → first delivery (read) at the destination.
    pub publish_to_deliver_us: LogHistogram,
    /// Messages whose span contains a replay event.
    pub replayed: u64,
    /// Messages whose span contains a suppress event.
    pub suppressed: u64,
    /// Spans excluded from the histograms because ring eviction dropped
    /// their early events ([`crate::span::MessageSpan::partial`]).
    pub partial: u64,
}

fn gap_us(from: SimTime, to: SimTime) -> u64 {
    to.saturating_since(from).as_nanos() / 1_000
}

/// What the stage latencies read of one message: the first instant of
/// each timed stage (publish, capture, sequence, deliver) and which of
/// the six message stages occurred, one bit per `Stage as u8`.
#[derive(Clone, Copy)]
struct Firsts {
    at: [SimTime; 4],
    seen: u8,
}

impl Firsts {
    const NONE: Firsts = Firsts {
        at: [SimTime::MAX; 4],
        seen: 0,
    };

    fn has(&self, stage: Stage) -> bool {
        self.seen & (1 << stage as u8) != 0
    }

    fn first(&self, stage: Stage) -> Option<SimTime> {
        self.has(stage).then(|| self.at[stage as usize])
    }
}

/// One sender's messages in `key.seq` order. A sender numbers its
/// messages densely, so they are normally a vector indexed by
/// `key.seq - base`: as long as the range of the sender's retained
/// sequence numbers, not as long as its highest one. A lane whose range
/// would outgrow the fold's slot budget becomes a map instead.
enum Lane {
    Dense { base: u64, slots: Vec<Firsts> },
    Sparse(BTreeMap<u64, Firsts>),
}

impl Lane {
    /// The entry for `seq`, drawing new dense slots from `room`.
    fn slot(&mut self, seq: u64, room: &mut u64) -> &mut Firsts {
        let held = matches!(self, Lane::Dense { base, slots }
            if seq.wrapping_sub(*base) < slots.len() as u64);
        if !held {
            self.widen(seq, room);
        }
        match self {
            Lane::Dense { base, slots } => &mut slots[(seq - *base) as usize],
            Lane::Sparse(map) => map.entry(seq).or_insert(Firsts::NONE),
        }
    }

    /// Grows a dense lane to cover `seq`, or turns it sparse if that
    /// would take more than `room` new slots.
    fn widen(&mut self, seq: u64, room: &mut u64) {
        let Lane::Dense { base, slots } = self else {
            return;
        };
        // One past the highest sequence number can be 2^64.
        let (lo, hi) = match slots.len() as u128 {
            0 => (seq, u128::from(seq) + 1),
            len => (
                (*base).min(seq),
                (u128::from(*base) + len).max(u128::from(seq) + 1),
            ),
        };
        let grow = hi - u128::from(lo) - slots.len() as u128;
        if grow > u128::from(*room) {
            *room += slots.len() as u64;
            let held = slots.iter().enumerate().filter(|(_, m)| m.seen != 0);
            *self = Lane::Sparse(held.map(|(i, m)| (*base + i as u64, *m)).collect());
            return;
        }
        *room -= grow as u64;
        if !slots.is_empty() && seq < *base {
            slots.splice(0..0, (seq..*base).map(|_| Firsts::NONE));
        }
        *base = lo;
        slots.resize((hi - u128::from(lo)) as usize, Firsts::NONE);
    }

    fn msgs(&self) -> impl Iterator<Item = &Firsts> {
        let (dense, sparse) = match self {
            Lane::Dense { slots, .. } => (&slots[..], None),
            Lane::Sparse(map) => (&[][..], Some(map)),
        };
        dense
            .iter()
            .chain(sparse.into_iter().flat_map(|m| m.values()))
    }
}

/// Computes stage latencies straight from the component logs, in one
/// pass over their retained events.
///
/// Equal to reading each message's [`crate::span::MessageSpan`] of
/// [`crate::span::assemble`] — `first` is the earliest event of a stage,
/// `partial` is marked exactly as `assemble` marks it, and the
/// histograms are fed in [`crate::span::MsgKey`] order (their `Summary`
/// is Welford, so the order decides the last bits) — without building
/// the spans. Checkpoint and election rows carry no message stage and
/// are skipped. Dense lanes never hold more than two slots per event
/// read (plus 64).
pub fn stage_latencies<'a>(logs: impl IntoIterator<Item = &'a SpanLog>) -> StageLatencies {
    let mut room = 64;
    let mut evicted = false;
    // Sorted by sender; `last` caches the lane of the previous event.
    let mut lanes: Vec<(u64, Lane)> = Vec::new();
    let mut last = 0;
    for l in logs {
        evicted |= l.dropped() > 0;
        for e in l.events() {
            room += 2;
            if e.stage > Stage::Suppress {
                continue;
            }
            if !matches!(lanes.get(last), Some((sender, _)) if *sender == e.key.sender) {
                last = lanes
                    .binary_search_by_key(&e.key.sender, |(sender, _)| *sender)
                    .unwrap_or_else(|i| {
                        let lane = Lane::Dense {
                            base: 0,
                            slots: Vec::new(),
                        };
                        lanes.insert(i, (e.key.sender, lane));
                        i
                    });
            }
            let m = lanes[last].1.slot(e.key.seq, &mut room);
            m.seen |= 1 << e.stage as u8;
            if let Some(at) = m.at.get_mut(e.stage as usize) {
                *at = (*at).min(e.at);
            }
        }
    }
    let mut out = StageLatencies::default();
    for m in lanes
        .iter()
        .flat_map(|(_, l)| l.msgs())
        .filter(|m| m.seen != 0)
    {
        if m.has(Stage::Replay) {
            out.replayed += 1;
        }
        if m.has(Stage::Suppress) {
            out.suppressed += 1;
        }
        if evicted && misses_prerequisite(|st| m.has(st)) {
            // An evicted prefix makes every stage gap fiction (a missing
            // publish would read as a near-zero or negative latency), so
            // partial spans are counted but never sampled.
            out.partial += 1;
            continue;
        }
        let publish = m.first(Stage::Publish);
        let capture = m.first(Stage::Capture);
        let sequence = m.first(Stage::Sequence);
        let deliver = m.first(Stage::Deliver);
        if let (Some(p), Some(c)) = (publish, capture) {
            out.publish_to_capture_us.record(gap_us(p, c));
        }
        if let (Some(c), Some(s)) = (capture, sequence) {
            out.capture_to_sequence_us.record(gap_us(c, s));
        }
        if let (Some(p), Some(d)) = (publish, deliver) {
            out.publish_to_deliver_us.record(gap_us(p, d));
        }
    }
    out
}

impl StageLatencies {
    /// Files the histograms under `latency/...`.
    pub fn into_registry(&self, reg: &mut MetricsRegistry) {
        reg.histogram("latency/publish_to_capture_us", &self.publish_to_capture_us);
        reg.histogram(
            "latency/capture_to_sequence_us",
            &self.capture_to_sequence_us,
        );
        reg.histogram("latency/publish_to_deliver_us", &self.publish_to_deliver_us);
        reg.counter("latency/spans_replayed", self.replayed);
        reg.counter("latency/spans_suppressed", self.suppressed);
        reg.counter("spans/partial", self.partial);
    }

    /// Renders one line per histogram for the run report.
    pub fn render(&self) -> String {
        let line = |name: &str, h: &LogHistogram| {
            format!(
                "  {name:<24} n={:<6} mean={:>9.1}us p50={:<8} p95={:<8} p99={:<8}\n",
                h.summary().count(),
                h.summary().mean(),
                h.quantile(0.5),
                h.quantile(0.95),
                h.quantile(0.99),
            )
        };
        let mut s = String::new();
        s.push_str(&line("publish→capture", &self.publish_to_capture_us));
        s.push_str(&line("capture→sequence", &self.capture_to_sequence_us));
        s.push_str(&line("publish→deliver", &self.publish_to_deliver_us));
        s.push_str(&format!(
            "  spans replayed={} suppressed={} partial={}\n",
            self.replayed, self.suppressed, self.partial
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{assemble, MsgKey};

    #[test]
    fn time_profile_accumulates_and_projects() {
        let mut p = TimeProfile::new();
        p.charge("kernel_cpu", SimDuration::from_millis(2));
        p.charge("kernel_cpu", SimDuration::from_millis(3));
        p.charge("disk", SimDuration::from_millis(1));
        assert_eq!(p.get("kernel_cpu"), SimDuration::from_millis(5));
        assert_eq!(p.get("never"), SimDuration::ZERO);
        let mut reg = MetricsRegistry::new();
        p.into_registry(&mut reg, SimDuration::from_millis(10));
        assert_eq!(reg.gauge_value("profile/kernel_cpu_ms"), Some(5.0));
        assert_eq!(reg.gauge_value("profile/kernel_cpu_frac"), Some(0.5));
        assert!(p
            .render(SimDuration::from_millis(10))
            .contains("kernel_cpu"));
    }

    #[test]
    fn time_profile_zero_horizon_is_safe() {
        let mut p = TimeProfile::new();
        p.charge("x", SimDuration::from_millis(1));
        let mut reg = MetricsRegistry::new();
        p.into_registry(&mut reg, SimDuration::ZERO);
        assert_eq!(reg.gauge_value("profile/x_frac"), Some(0.0));
    }

    #[test]
    fn stage_latencies_from_logs() {
        let mut kernel = SpanLog::new(64);
        let mut recorder = SpanLog::new(64);
        let k = MsgKey { sender: 1, seq: 0 };
        kernel.record(SimTime::from_micros(100), k, Stage::Publish, 2, 0);
        recorder.record(SimTime::from_micros(150), k, Stage::Capture, 2, 0);
        recorder.record(SimTime::from_micros(250), k, Stage::Sequence, 2, 0);
        kernel.record(SimTime::from_micros(400), k, Stage::Deliver, 2, 0);
        kernel.record(SimTime::from_micros(500), k, Stage::Replay, 2, 0);
        let lat = stage_latencies([&kernel, &recorder]);
        assert_eq!(lat.publish_to_capture_us.summary().count(), 1);
        assert!((lat.publish_to_capture_us.summary().mean() - 50.0).abs() < 1e-9);
        assert!((lat.capture_to_sequence_us.summary().mean() - 100.0).abs() < 1e-9);
        assert!((lat.publish_to_deliver_us.summary().mean() - 300.0).abs() < 1e-9);
        assert_eq!(lat.replayed, 1);
        assert_eq!(lat.suppressed, 0);
        let mut reg = MetricsRegistry::new();
        lat.into_registry(&mut reg);
        assert_eq!(reg.counter_value("latency/spans_replayed"), Some(1));
        assert!(lat.render().contains("publish→deliver"));
    }

    #[test]
    fn partial_spans_are_counted_not_sampled() {
        // Capacity 3: only the last three events survive, so `old` keeps
        // deliver+replay but loses publish+capture and turns partial.
        let mut log = SpanLog::new(3);
        let old = MsgKey { sender: 1, seq: 0 };
        let fresh = MsgKey { sender: 1, seq: 1 };
        log.record(SimTime::from_micros(100), old, Stage::Publish, 7, 0);
        log.record(SimTime::from_micros(150), old, Stage::Capture, 7, 0);
        log.record(SimTime::from_micros(400), old, Stage::Deliver, 7, 0);
        log.record(SimTime::from_micros(500), old, Stage::Replay, 7, 0);
        log.record(SimTime::from_micros(600), fresh, Stage::Publish, 7, 0);
        assert!(assemble([&log])[&old].partial);
        let lat = stage_latencies([&log]);
        assert_eq!(lat.partial, 1);
        // The partial span's replay is still counted, but no histogram
        // sampled its (fictitious) gaps.
        assert_eq!(lat.replayed, 1);
        assert_eq!(lat.publish_to_deliver_us.summary().count(), 0);
        assert_eq!(lat.publish_to_capture_us.summary().count(), 0);
        let mut reg = MetricsRegistry::new();
        lat.into_registry(&mut reg);
        assert_eq!(reg.counter_value("spans/partial"), Some(1));
        assert!(lat.render().contains("partial=1"));
    }
}
