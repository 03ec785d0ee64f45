//! Virtual-time utilization ledger: typed resources, busy/idle
//! timelines, and automatic binding-resource ranking.
//!
//! Every serially reusable resource in the simulation — a node's CPU, the
//! broadcast medium, a recorder disk, a transport channel — charges its
//! busy spans into a [`Timeline`]: fixed-width virtual-time bins of busy
//! nanoseconds. Because a capacity run's report window is dominated by
//! the post-horizon drain/grace period, a scalar busy ÷ window ratio
//! dilutes a saturated resource to a few percent; the timeline preserves
//! *when* the resource was busy, so [`ResourceUsage::peak_util`] can
//! report utilization over the loaded window and the ranking in [`rank`]
//! can name the binding resource without hand analysis.
//!
//! The companion [`LevelGauge`] integrates a queue-depth level over
//! virtual time (the `L` of Little's law), which is what separates a
//! *bottleneck* (busy with work waiting) from a *self-paced source*
//! (busy by construction, nothing queued behind it).

use crate::time::{SimDuration, SimTime};

/// Timeline bin width as a power-of-two nanosecond shift: 2^24 ns
/// ≈ 16.78 ms per bin, so bin indexing is a shift, not a division.
pub const BIN_NS_SHIFT: u32 = 24;

/// Nanoseconds per timeline bin.
pub const BIN_NS: u64 = 1 << BIN_NS_SHIFT;

/// Sliding-window width (in bins) for [`Timeline::peak_util`]:
/// 8 bins ≈ 134 ms, the scale of the delivery-latency SLO.
pub const PEAK_WINDOW_BINS: usize = 8;

/// Busy nanoseconds accumulated per fixed-width virtual-time bin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    bins: Vec<u32>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Timeline { bins: Vec::new() }
    }

    /// Charges the half-open busy span `[from, to)` into the bins it
    /// overlaps. Spans with `to <= from` are ignored.
    pub fn add_busy(&mut self, from: SimTime, to: SimTime) {
        let (a, b) = (from.as_nanos(), to.as_nanos());
        if b <= a {
            return;
        }
        let last_bin = ((b - 1) >> BIN_NS_SHIFT) as usize;
        if self.bins.len() <= last_bin {
            self.bins.resize(last_bin + 1, 0);
        }
        let mut cur = a;
        while cur < b {
            let bin = (cur >> BIN_NS_SHIFT) as usize;
            let bin_end = ((bin as u64) + 1) << BIN_NS_SHIFT;
            let end = b.min(bin_end);
            self.bins[bin] = self.bins[bin].saturating_add((end - cur) as u32);
            cur = end;
        }
    }

    /// Returns the per-bin busy nanoseconds.
    pub fn bins(&self) -> &[u32] {
        &self.bins
    }

    /// Returns `true` if no busy time was ever charged.
    pub fn is_empty(&self) -> bool {
        self.bins.iter().all(|&b| b == 0)
    }

    /// Total busy time across all bins.
    pub fn busy_total(&self) -> SimDuration {
        SimDuration::from_nanos(self.bins.iter().map(|&b| u64::from(b)).sum())
    }

    /// The first and last bin with any busy time, if any.
    pub fn active_range(&self) -> Option<(usize, usize)> {
        let first = self.bins.iter().position(|&b| b > 0)?;
        let last = self.bins.iter().rposition(|&b| b > 0)?;
        Some((first, last))
    }

    /// Busy time divided by the active span (first busy bin through last
    /// busy bin); 0 for an empty timeline. This is the utilization of
    /// the resource *while it was in use at all*, immune to dilution by
    /// an idle drain period.
    pub fn active_util(&self) -> f64 {
        let Some((first, last)) = self.active_range() else {
            return 0.0;
        };
        let span_ns = ((last - first + 1) as u64 * BIN_NS) as f64;
        self.busy_total().as_nanos() as f64 / span_ns
    }

    /// Maximum utilization over any [`PEAK_WINDOW_BINS`]-bin sliding
    /// window (shorter timelines use their full length).
    pub fn peak_util(&self) -> f64 {
        if self.bins.is_empty() {
            return 0.0;
        }
        let win = PEAK_WINDOW_BINS.min(self.bins.len());
        let mut sum: u64 = self.bins[..win].iter().map(|&b| u64::from(b)).sum();
        let mut best = sum;
        for i in win..self.bins.len() {
            sum += u64::from(self.bins[i]);
            sum -= u64::from(self.bins[i - win]);
            best = best.max(sum);
        }
        (best as f64 / (win as u64 * BIN_NS) as f64).min(1.0)
    }

    /// Mean utilization inside a window of absolute virtual time.
    pub fn util_between(&self, from: SimTime, to: SimTime) -> f64 {
        let (a, b) = (from.as_nanos(), to.as_nanos());
        if b <= a {
            return 0.0;
        }
        let lo = (a >> BIN_NS_SHIFT) as usize;
        let hi = ((b - 1) >> BIN_NS_SHIFT) as usize;
        let busy: u64 = self
            .bins
            .iter()
            .enumerate()
            .skip(lo)
            .take(hi + 1 - lo)
            .map(|(_, &v)| u64::from(v))
            .sum();
        (busy as f64 / (b - a) as f64).min(1.0)
    }

    /// Folds another timeline into this one bin-by-bin.
    pub fn merge(&mut self, other: &Timeline) {
        if self.bins.len() < other.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a = a.saturating_add(*b);
        }
    }
}

/// Integrates a nonnegative level (queue depth, in-flight count) over
/// virtual time: `area = ∫ level dt`, so `area / window` is the
/// time-average occupancy — Little's `L`.
#[derive(Debug, Clone, Default)]
pub struct LevelGauge {
    level: u64,
    last: Option<SimTime>,
    area_ns: u128,
    peak: u64,
}

impl LevelGauge {
    /// Creates a gauge at level 0.
    pub fn new() -> Self {
        LevelGauge::default()
    }

    /// Sets the level as of `now`, integrating the previous level over
    /// the elapsed span. Time is assumed monotone; out-of-order calls
    /// contribute nothing.
    pub fn set(&mut self, now: SimTime, level: u64) {
        if let Some(last) = self.last {
            let dt = now.saturating_since(last);
            self.area_ns += u128::from(self.level) * u128::from(dt.as_nanos());
        }
        self.last = Some(now);
        self.level = level;
        self.peak = self.peak.max(level);
    }

    /// The current level.
    pub fn level(&self) -> u64 {
        self.level
    }

    /// The highest level ever set.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Time-average level over `window` (integrates the open interval up
    /// to `now` first if the gauge is mid-span).
    pub fn mean_over(&self, now: SimTime, window: SimDuration) -> f64 {
        if window == SimDuration::ZERO {
            return 0.0;
        }
        let mut area = self.area_ns;
        if let Some(last) = self.last {
            area += u128::from(self.level) * u128::from(now.saturating_since(last).as_nanos());
        }
        area as f64 / window.as_nanos() as f64
    }
}

/// The type of a ledger resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ResourceKind {
    /// The shared broadcast medium (contended media meter real busy
    /// time; the perfect bus charges serial frame times so the
    /// utilization law has a contention-free baseline).
    Medium,
    /// A recorder's stable-storage disk.
    Disk,
    /// The recorder's per-message publishing CPU.
    RecorderCpu,
    /// A node's network-protocol CPU (send/receive/delivery costs).
    NodeCpuProto,
    /// A node's program CPU (process activations and modeled compute).
    NodeCpuProg,
    /// A node-pair guaranteed-transport channel (stop-and-wait or
    /// windowed). The dst node's inbound channels are its receive
    /// budget.
    Transport,
    /// Consensus availability: busy while the replica group is
    /// leaderless (elections in progress).
    Consensus,
}

impl ResourceKind {
    /// Stable lowercase label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            ResourceKind::Medium => "medium",
            ResourceKind::Disk => "disk",
            ResourceKind::RecorderCpu => "recorder_cpu",
            ResourceKind::NodeCpuProto => "cpu_proto",
            ResourceKind::NodeCpuProg => "cpu_prog",
            ResourceKind::Transport => "transport",
            ResourceKind::Consensus => "consensus",
        }
    }

    /// Parses a label produced by [`ResourceKind::label`].
    pub fn parse(s: &str) -> Option<ResourceKind> {
        Some(match s {
            "medium" => ResourceKind::Medium,
            "disk" => ResourceKind::Disk,
            "recorder_cpu" => ResourceKind::RecorderCpu,
            "cpu_proto" => ResourceKind::NodeCpuProto,
            "cpu_prog" => ResourceKind::NodeCpuProg,
            "transport" => ResourceKind::Transport,
            "consensus" => ResourceKind::Consensus,
            _ => return None,
        })
    }
}

/// One resource's assembled usage over a run: the summary a world
/// attaches to its observability report.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceUsage {
    /// Resource type.
    pub kind: ResourceKind,
    /// Display name, e.g. `cpu0:prog`, `xport 0->2`, `medium`.
    pub name: String,
    /// Primary index (node, disk, or transport source node).
    pub index: u32,
    /// Secondary index (transport destination node; 0 otherwise).
    pub peer: u32,
    /// Total busy virtual time, ms.
    pub busy_ms: f64,
    /// Report window, ms.
    pub window_ms: f64,
    /// Busy ÷ full window.
    pub util: f64,
    /// Busy ÷ active span (first busy bin through last).
    pub active_util: f64,
    /// Max utilization over a [`PEAK_WINDOW_BINS`]-bin sliding window.
    pub peak_util: f64,
    /// Time-average queued/in-flight work behind the resource.
    pub mean_queue: f64,
    /// Peak queued/in-flight work.
    pub peak_queue: u64,
    /// Completions (messages, frames, activations) the busy time covers.
    pub events: u64,
    /// Contention events (medium collisions; 0 elsewhere).
    pub contention: u64,
}

impl ResourceUsage {
    /// Builds a usage row from a timeline plus queue-gauge readings.
    #[allow(clippy::too_many_arguments)]
    pub fn from_timeline(
        kind: ResourceKind,
        name: String,
        index: u32,
        peer: u32,
        timeline: &Timeline,
        window: SimDuration,
        mean_queue: f64,
        peak_queue: u64,
        events: u64,
        contention: u64,
    ) -> Self {
        let busy = timeline.busy_total();
        let window_ms = window.as_millis_f64();
        ResourceUsage {
            kind,
            name,
            index,
            peer,
            busy_ms: busy.as_millis_f64(),
            window_ms,
            util: if window_ms > 0.0 {
                (busy.as_millis_f64() / window_ms).min(1.0)
            } else {
                0.0
            },
            active_util: timeline.active_util().min(1.0),
            peak_util: timeline.peak_util(),
            mean_queue,
            peak_queue,
            events,
            contention,
        }
    }

    /// Whether the resource ran at (or near) capacity during its loaded
    /// window: peak utilization ≥ 0.9, or — for a contended medium —
    /// a collision-to-event ratio that marks MAC-layer contention.
    pub fn saturated(&self) -> bool {
        if self.peak_util >= 0.90 {
            return true;
        }
        self.kind == ResourceKind::Medium
            && self.events > 0
            && self.contention as f64 / self.events as f64 >= 0.10
    }

    /// Time-average queue over the active span (first busy bin through
    /// last) instead of the report window: the same integral as
    /// `mean_queue`, so it does not shrink however long the run idled
    /// after its load. The span is read back from `busy_ms` and
    /// `active_util`; 0 for a resource that was never busy.
    pub fn active_queue(&self) -> f64 {
        if self.busy_ms <= 0.0 || self.active_util <= 0.0 {
            return 0.0;
        }
        let active_ms = self.busy_ms / self.active_util;
        self.mean_queue * self.window_ms / active_ms
    }

    /// The collision-to-submission ratio (0 for anything but a medium).
    pub fn contention_ratio(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.contention as f64 / self.events as f64
        }
    }

    /// Whether this is a broadcast medium binding by contention: a
    /// material collision ratio *and* substantial active-window load.
    /// CSMA/CD capacity collapses well below 100% wire utilization, and
    /// the queues the contention creates live in per-station backoff
    /// state no gauge observes — so a contended medium must be
    /// recognized from its own counters, not from queue depth. The
    /// active-utilization floor keeps a lightly loaded medium (whose
    /// ack convoys still collide at a high *ratio*) from claiming a
    /// knee that a backlogged resource explains better; [`rank`] drops
    /// the floor when nothing on the board holds a real queue.
    pub fn contended_medium(&self) -> bool {
        self.kind == ResourceKind::Medium
            && self.contention_ratio() >= 0.10
            && self.active_util >= 0.30
    }
}

/// Queue depth below which a resource's backlog is noise rather than
/// evidence of a throughput wall.
const QUEUE_EVIDENCE_FLOOR: f64 = 0.5;

/// Ranks resources most-binding-first: saturated resources ahead of
/// unsaturated ones; among the saturated, a contention-bound medium
/// first (it sits causally upstream of every channel crossing it, and
/// its queues hide in per-station backoff state — downstream channel
/// queues are its symptoms), then the resource with the most work
/// queued behind it (a busy resource with an empty queue is a
/// self-paced source, not a constraint); ties and the unsaturated tail
/// fall back to peak utilization, then name for determinism.
///
/// The medium's active-utilization floor is waived when no saturated
/// resource holds a material queue: a knee with empty queues everywhere
/// is latency-bound, not throughput-bound, and the only resource that
/// inflates per-message latency without building backlog is a colliding
/// medium — every stop-and-wait round trip absorbs its deference and
/// backoff, so the wall never shows as queue depth.
pub fn rank(resources: &[ResourceUsage]) -> Vec<usize> {
    let queue_evidence = resources
        .iter()
        .any(|r| r.saturated() && r.mean_queue >= QUEUE_EVIDENCE_FLOOR);
    let contended = |r: &ResourceUsage| {
        r.contended_medium()
            || (!queue_evidence && r.kind == ResourceKind::Medium && r.contention_ratio() >= 0.10)
    };
    let mut idx: Vec<usize> = (0..resources.len()).collect();
    idx.sort_by(|&a, &b| {
        let (ra, rb) = (&resources[a], &resources[b]);
        rb.saturated()
            .cmp(&ra.saturated())
            .then(contended(rb).cmp(&contended(ra)))
            .then(
                rb.mean_queue
                    .partial_cmp(&ra.mean_queue)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(
                rb.peak_util
                    .partial_cmp(&ra.peak_util)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(ra.name.cmp(&rb.name))
    });
    idx
}

/// The binding resource: the top-ranked *saturated* resource, or `None`
/// when nothing saturated (the run was below every resource's capacity,
/// or the knee came from an SLO unrelated to throughput).
pub fn binding(resources: &[ResourceUsage]) -> Option<usize> {
    rank(resources)
        .into_iter()
        .find(|&i| resources[i].saturated())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn timeline_bins_busy_spans() {
        let mut t = Timeline::new();
        t.add_busy(ms(0), ms(10));
        assert_eq!(t.busy_total(), SimDuration::from_millis(10));
        // A span crossing a bin boundary splits across bins.
        t.add_busy(ms(16), ms(18));
        assert!(t.bins().len() >= 2);
        assert_eq!(t.busy_total(), SimDuration::from_millis(12));
    }

    #[test]
    fn timeline_ignores_empty_and_inverted_spans() {
        let mut t = Timeline::new();
        t.add_busy(ms(5), ms(5));
        t.add_busy(ms(9), ms(4));
        assert!(t.is_empty());
        assert_eq!(t.busy_total(), SimDuration::ZERO);
        assert_eq!(t.active_range(), None);
        assert_eq!(t.active_util(), 0.0);
        assert_eq!(t.peak_util(), 0.0);
    }

    #[test]
    fn active_util_ignores_idle_drain() {
        let mut t = Timeline::new();
        // Fully busy for ~6 bins, then idle for a long drain.
        t.add_busy(SimTime::ZERO, SimTime::from_nanos(6 * BIN_NS));
        t.add_busy(
            SimTime::from_nanos(100 * BIN_NS),
            SimTime::from_nanos(100 * BIN_NS),
        );
        let window = SimDuration::from_nanos(200 * BIN_NS);
        let u = ResourceUsage::from_timeline(
            ResourceKind::Transport,
            "x".into(),
            0,
            2,
            &t,
            window,
            0.0,
            0,
            0,
            0,
        );
        assert!(u.util < 0.05, "full-window util diluted: {}", u.util);
        assert!(u.active_util > 0.99, "active util: {}", u.active_util);
        assert!(u.peak_util > 0.74, "peak util: {}", u.peak_util);
    }

    #[test]
    fn peak_util_finds_the_loaded_window() {
        let mut t = Timeline::new();
        // Busy only bins 10..14, completely.
        t.add_busy(
            SimTime::from_nanos(10 * BIN_NS),
            SimTime::from_nanos(14 * BIN_NS),
        );
        // Peak window is 8 bins; 4 fully busy bins => 0.5.
        assert!((t.peak_util() - 0.5).abs() < 1e-9, "{}", t.peak_util());
        // Fill the full 8-bin window.
        t.add_busy(
            SimTime::from_nanos(14 * BIN_NS),
            SimTime::from_nanos(18 * BIN_NS),
        );
        assert!((t.peak_util() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn util_between_windows() {
        let mut t = Timeline::new();
        t.add_busy(SimTime::ZERO, SimTime::from_nanos(BIN_NS));
        let full = t.util_between(SimTime::ZERO, SimTime::from_nanos(BIN_NS));
        assert!((full - 1.0).abs() < 1e-9);
        let half = t.util_between(SimTime::ZERO, SimTime::from_nanos(2 * BIN_NS));
        assert!((half - 0.5).abs() < 1e-9);
    }

    #[test]
    fn timeline_merge_adds_bins() {
        let mut a = Timeline::new();
        a.add_busy(ms(0), ms(5));
        let mut b = Timeline::new();
        b.add_busy(ms(0), ms(3));
        b.add_busy(ms(40), ms(41));
        a.merge(&b);
        assert_eq!(a.busy_total(), SimDuration::from_millis(9));
    }

    #[test]
    fn level_gauge_integrates_area() {
        let mut g = LevelGauge::new();
        g.set(ms(0), 2);
        g.set(ms(10), 0); // 2 * 10ms = 20 ms·msg
        g.set(ms(20), 4);
        g.set(ms(25), 0); // 4 * 5ms = 20 ms·msg
        let mean = g.mean_over(ms(40), SimDuration::from_millis(40));
        assert!((mean - 1.0).abs() < 1e-9, "{mean}");
        assert_eq!(g.peak(), 4);
    }

    #[test]
    fn level_gauge_counts_open_interval() {
        let mut g = LevelGauge::new();
        g.set(ms(0), 1);
        let mean = g.mean_over(ms(10), SimDuration::from_millis(10));
        assert!((mean - 1.0).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn binding_prefers_saturated_with_queue() {
        let mk = |kind, name: &str, peak: f64, q: f64| ResourceUsage {
            kind,
            name: name.into(),
            index: 0,
            peer: 0,
            busy_ms: 0.0,
            window_ms: 100.0,
            util: 0.0,
            active_util: peak,
            peak_util: peak,
            mean_queue: q,
            peak_queue: q as u64,
            events: 100,
            contention: 0,
        };
        // A self-paced source at 100% with no queue loses to a saturated
        // resource with real work waiting behind it.
        let rs = vec![
            mk(ResourceKind::NodeCpuProg, "cpu0:prog", 1.0, 0.01),
            mk(ResourceKind::Transport, "xport 0->2", 0.98, 12.0),
            mk(ResourceKind::Medium, "medium", 0.3, 0.0),
        ];
        assert_eq!(binding(&rs), Some(1));
        let order = rank(&rs);
        assert_eq!(order[0], 1);
    }

    #[test]
    fn contended_medium_outranks_queued_channels() {
        let mk = |kind, name: &str, active: f64, q: f64, contention| ResourceUsage {
            kind,
            name: name.into(),
            index: 0,
            peer: 0,
            busy_ms: 0.0,
            window_ms: 100.0,
            util: 0.0,
            active_util: active,
            peak_util: 1.0,
            mean_queue: q,
            peak_queue: q as u64,
            events: 100,
            contention,
        };
        // The sink channel holds the visible queue, but the medium's
        // collision ratio + load say the wire itself is the wall: the
        // channel queue is head-of-line blocking behind deference.
        let rs = vec![
            mk(ResourceKind::Transport, "xport 0->2", 0.7, 13.0, 0),
            mk(ResourceKind::Medium, "medium", 0.48, 0.0, 44),
        ];
        assert_eq!(binding(&rs), Some(1));
        // Below the active-load floor the same collision ratio does not
        // claim the knee — the queued channel binds again.
        let rs = vec![
            mk(ResourceKind::Transport, "xport 0->2", 0.7, 13.0, 0),
            mk(ResourceKind::Medium, "medium", 0.08, 0.0, 39),
        ];
        assert_eq!(binding(&rs), Some(0));
    }

    #[test]
    fn latency_bound_knee_blames_colliding_medium() {
        let mk = |kind, name: &str, active: f64, q: f64, contention| ResourceUsage {
            kind,
            name: name.into(),
            index: 0,
            peer: 0,
            busy_ms: 0.0,
            window_ms: 100.0,
            util: 0.0,
            active_util: active,
            peak_util: 1.0,
            mean_queue: q,
            peak_queue: q as u64,
            events: 100,
            contention,
        };
        // No saturated resource holds a real queue: the knee is
        // latency-bound, and the colliding medium takes the binding
        // even at low wire utilization — deference and backoff inflate
        // every round trip without ever building a backlog.
        let rs = vec![
            mk(ResourceKind::Transport, "recv 2", 1.0, 0.08, 0),
            mk(ResourceKind::Medium, "medium", 0.04, 0.0, 16),
        ];
        assert_eq!(binding(&rs), Some(1));
        // The same board with a backlogged channel is throughput-bound:
        // the queue explains the knee, the idle medium does not.
        let rs = vec![
            mk(ResourceKind::Transport, "recv 2", 1.0, 596.0, 0),
            mk(ResourceKind::Medium, "medium", 0.04, 0.0, 16),
        ];
        assert_eq!(binding(&rs), Some(0));
    }

    #[test]
    fn binding_none_when_unsaturated() {
        let rs = vec![ResourceUsage {
            kind: ResourceKind::Medium,
            name: "medium".into(),
            index: 0,
            peer: 0,
            busy_ms: 10.0,
            window_ms: 100.0,
            util: 0.1,
            active_util: 0.2,
            peak_util: 0.3,
            mean_queue: 0.0,
            peak_queue: 0,
            events: 50,
            contention: 1,
        }];
        assert_eq!(binding(&rs), None);
    }

    #[test]
    fn contended_medium_saturates_by_collision_ratio() {
        let r = ResourceUsage {
            kind: ResourceKind::Medium,
            name: "medium".into(),
            index: 0,
            peer: 0,
            busy_ms: 10.0,
            window_ms: 100.0,
            util: 0.1,
            active_util: 0.5,
            peak_util: 0.6,
            mean_queue: 2.0,
            peak_queue: 4,
            events: 100,
            contention: 20,
        };
        assert!(r.saturated());
    }

    #[test]
    fn kind_labels_round_trip() {
        for k in [
            ResourceKind::Medium,
            ResourceKind::Disk,
            ResourceKind::RecorderCpu,
            ResourceKind::NodeCpuProto,
            ResourceKind::NodeCpuProg,
            ResourceKind::Transport,
            ResourceKind::Consensus,
        ] {
            assert_eq!(ResourceKind::parse(k.label()), Some(k));
        }
        assert_eq!(ResourceKind::parse("nope"), None);
    }
}
