//! Measurement instruments for the evaluation: counters, histograms, and
//! the time-weighted utilization integrator behind Figure 5.5.

use crate::ledger::Timeline;
use crate::time::{SimDuration, SimTime};

/// A monotone event counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one. Saturates at `u64::MAX` instead of wrapping, so a pegged
    /// counter reads as "full", never as a small number again.
    pub fn inc(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n`, saturating at `u64::MAX`.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Returns the current count.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// An online summary of a stream of samples: count, mean, min, max, and
/// variance via Welford's algorithm.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. The count saturates at `u64::MAX`.
    pub fn record(&mut self, x: f64) {
        self.n = self.n.saturating_add(1);
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Returns the sample count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Returns the sample mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Returns the population variance, or 0 if fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Returns the population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Returns the smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Returns the largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Returns the sum of all samples.
    pub fn total(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Folds another summary into this one (Chan et al.'s parallel
    /// Welford combination), so per-shard summaries aggregate into a
    /// tier-wide one without re-streaming the samples.
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        // Compute in f64 so pegged counts cannot overflow the sum.
        let n = self.n as f64 + other.n as f64;
        let delta = other.mean - self.mean;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n;
        self.mean += delta * other.n as f64 / n;
        self.n = self.n.saturating_add(other.n);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A base-2 logarithmic histogram for latency-like quantities.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` (bucket 0 also catches 0).
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: [u64; 64],
    summary: Summary,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; 64],
            summary: Summary::new(),
        }
    }

    /// Records one non-negative integer sample. Bucket counts saturate
    /// at `u64::MAX` instead of wrapping, matching [`Counter`].
    pub fn record(&mut self, x: u64) {
        let idx = if x == 0 {
            0
        } else {
            63 - x.leading_zeros() as usize
        };
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
        self.summary.record(x as f64);
    }

    /// Returns the count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Returns the overall summary statistics.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Folds another histogram into this one bucket-by-bucket (the
    /// summaries combine via [`Summary::merge`]), so per-replica
    /// latency histograms aggregate into a group-wide one. Bucket
    /// counts saturate at `u64::MAX` instead of wrapping, so merging
    /// pegged histograms reads as "full" rather than a small number.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.summary.merge(&other.summary);
    }

    /// Estimates the `q`-quantile (0 ≤ q ≤ 1) from bucket boundaries.
    ///
    /// The estimate is the upper bound of the bucket containing the
    /// quantile — coarse but monotone, enough for reporting tail shapes.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.summary.count();
        if total == 0 {
            return 0;
        }
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }
}

/// An equal-width histogram over a fixed range `[lo, hi)`.
///
/// Samples below `lo` land in the first bucket and samples at or above
/// `hi` land in the last, so the bucket counts always sum to the sample
/// count. This is the shared instrument behind distribution tables that
/// previously hand-rolled their own binning (e.g. the checkpoint
/// state-size distribution in the queueing crate).
#[derive(Debug, Clone)]
pub struct LinearHistogram {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
    summary: Summary,
}

impl LinearHistogram {
    /// Creates an empty histogram with `buckets` equal-width bins covering
    /// `[lo, hi)`. Panics if `buckets == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(buckets > 0, "LinearHistogram needs at least one bucket");
        assert!(hi > lo, "LinearHistogram range must be non-empty");
        LinearHistogram {
            lo,
            width: (hi - lo) / buckets as f64,
            counts: vec![0; buckets],
            summary: Summary::new(),
        }
    }

    /// Records one sample, clamping out-of-range values into the end bins.
    /// Bucket counts saturate at `u64::MAX` instead of wrapping.
    pub fn record(&mut self, x: f64) {
        let idx = ((x - self.lo) / self.width).floor();
        let idx = (idx.max(0.0) as usize).min(self.counts.len() - 1);
        self.counts[idx] = self.counts[idx].saturating_add(1);
        self.summary.record(x);
    }

    /// Returns the per-bucket counts, lowest bin first.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Returns each bucket's share of the total sample count (all zeros if
    /// the histogram is empty).
    pub fn fractions(&self) -> Vec<f64> {
        let total = self.summary.count();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Returns the overall summary statistics.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Returns the inclusive lower edge of bucket `i`.
    pub fn bucket_lo(&self, i: usize) -> f64 {
        self.lo + self.width * i as f64
    }

    /// Estimates the `q`-quantile (0 ≤ q ≤ 1) from the bucket boundaries.
    ///
    /// The estimate is the upper edge of the bucket containing the
    /// quantile, clamped to the largest observed sample so a spike in the
    /// clamped top bin cannot report beyond the data. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.summary.count();
        if total == 0 {
            return 0.0;
        }
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let edge = self.bucket_lo(i) + self.width;
                return edge.min(self.summary.max().unwrap_or(edge));
            }
        }
        self.summary.max().unwrap_or(0.0)
    }

    /// Returns `true` if `other` was built with the same range and
    /// bucket count, i.e. the two histograms can be merged exactly.
    pub fn same_binning(&self, other: &LinearHistogram) -> bool {
        self.lo == other.lo && self.width == other.width && self.counts.len() == other.counts.len()
    }

    /// Folds another histogram with identical binning into this one.
    /// Bucket counts saturate at `u64::MAX` instead of wrapping.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms were built with different ranges or
    /// bucket counts — merging incompatible bins would silently corrupt
    /// the distribution. Use [`LinearHistogram::try_merge`] when the
    /// layouts may differ.
    pub fn merge(&mut self, other: &LinearHistogram) {
        assert!(
            self.try_merge(other),
            "cannot merge LinearHistograms with different binning"
        );
    }

    /// Folds another histogram into this one if — and only if — the two
    /// share a bucket layout. Returns `false` (leaving `self`
    /// untouched) on mismatched layouts, so aggregation loops over
    /// heterogeneous sources can skip incompatible inputs instead of
    /// panicking.
    #[must_use]
    pub fn try_merge(&mut self, other: &LinearHistogram) -> bool {
        if !self.same_binning(other) {
            return false;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.summary.merge(&other.summary);
        true
    }
}

/// Integrates the busy time of a serially reusable resource (CPU, disk,
/// network interface) so its utilization over a window can be reported —
/// the quantity plotted in Figure 5.5.
#[derive(Debug, Clone)]
pub struct Utilization {
    busy_since: Option<SimTime>,
    busy_total: SimDuration,
    busy_periods: u64,
    timeline: Timeline,
}

impl Default for Utilization {
    fn default() -> Self {
        Self::new()
    }
}

impl Utilization {
    /// Creates an idle tracker with the window starting at t = 0.
    pub fn new() -> Self {
        Utilization {
            busy_since: None,
            busy_total: SimDuration::ZERO,
            busy_periods: 0,
            timeline: Timeline::new(),
        }
    }

    /// Marks the resource busy starting at `now`. Idempotent while busy.
    pub fn set_busy(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
            self.busy_periods += 1;
        }
    }

    /// Marks the resource idle at `now`, accumulating the elapsed busy span
    /// into both the scalar total and the binned [`Timeline`].
    pub fn set_idle(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            self.busy_total += now.saturating_since(since);
            self.timeline.add_busy(since, now);
        }
    }

    /// Credits a busy span whose duration is known at submission time
    /// (a frame's serialization on an uncontended wire, a disk write of
    /// known length) without driving the busy/idle state machine —
    /// usable by resources that never observe an idle edge. Overlap
    /// with the live busy state is the caller's problem; chain spans
    /// with a free-at cursor when serial accounting is wanted.
    pub fn add_span(&mut self, from: SimTime, to: SimTime) {
        let d = to.saturating_since(from);
        if d == SimDuration::ZERO {
            return;
        }
        self.busy_total += d;
        self.busy_periods += 1;
        self.timeline.add_busy(from, to);
    }

    /// Returns `true` while the resource is marked busy.
    pub fn is_busy(&self) -> bool {
        self.busy_since.is_some()
    }

    /// Returns the total accumulated busy time as of `now`.
    pub fn busy_time(&self, now: SimTime) -> SimDuration {
        match self.busy_since {
            Some(since) => self.busy_total + now.saturating_since(since),
            None => self.busy_total,
        }
    }

    /// Returns the number of distinct busy periods so far.
    pub fn busy_periods(&self) -> u64 {
        self.busy_periods
    }

    /// Returns busy time divided by the time elapsed since zero, in
    /// `[0, 1]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let window = now.saturating_since(SimTime::ZERO);
        if window == SimDuration::ZERO {
            return 0.0;
        }
        self.busy_time(now) / window
    }

    /// Returns the busy timeline as of the last `set_idle` call (an open
    /// busy interval is not yet binned; see
    /// [`Utilization::timeline_as_of`]).
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Returns the busy timeline including any still-open busy interval
    /// up to `now` — the form to use when assembling an end-of-run
    /// report while the resource may be mid-span.
    pub fn timeline_as_of(&self, now: SimTime) -> Timeline {
        let mut t = self.timeline.clone();
        if let Some(since) = self.busy_since {
            t.add_busy(since, now);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.total() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.bucket(0), 2); // 0 and 1
        assert_eq!(h.bucket(1), 2); // 2 and 3
        assert_eq!(h.bucket(10), 1); // 1024
        assert_eq!(h.summary().count(), 5);
    }

    #[test]
    fn histogram_quantile_monotone() {
        let mut h = LogHistogram::new();
        for i in 0..1000u64 {
            h.record(i);
        }
        assert!(h.quantile(0.5) <= h.quantile(0.9));
        assert!(h.quantile(0.9) <= h.quantile(1.0));
    }

    #[test]
    fn utilization_half_busy() {
        let mut u = Utilization::new();
        u.set_busy(SimTime::from_millis(0));
        u.set_idle(SimTime::from_millis(5));
        assert!((u.utilization(SimTime::from_millis(10)) - 0.5).abs() < 1e-12);
        assert_eq!(u.busy_periods(), 1);
    }

    #[test]
    fn utilization_counts_open_busy_interval() {
        let mut u = Utilization::new();
        u.set_busy(SimTime::from_millis(2));
        // Still busy at t = 4: busy time is 2 of 4 ms.
        assert!((u.utilization(SimTime::from_millis(4)) - 0.5).abs() < 1e-12);
        assert!(u.is_busy());
    }

    #[test]
    fn utilization_busy_idempotent() {
        let mut u = Utilization::new();
        u.set_busy(SimTime::from_millis(0));
        u.set_busy(SimTime::from_millis(3));
        u.set_idle(SimTime::from_millis(4));
        assert_eq!(
            u.busy_time(SimTime::from_millis(4)),
            SimDuration::from_millis(4)
        );
        assert_eq!(u.busy_periods(), 1);
    }

    #[test]
    fn zero_window_reports_zero() {
        let u = Utilization::new();
        assert_eq!(u.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let mut c = Counter::new();
        c.add(u64::MAX - 1);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.add(12345);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = LogHistogram::new();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
        assert_eq!(h.summary().count(), 0);
        assert_eq!(h.summary().mean(), 0.0);
    }

    #[test]
    fn zero_duration_window_while_busy_reports_zero() {
        let mut u = Utilization::new();
        u.set_busy(SimTime::ZERO);
        assert_eq!(u.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn linear_histogram_bins_and_clamps() {
        let mut h = LinearHistogram::new(0.0, 10.0, 5);
        h.record(-3.0); // clamps into bucket 0
        h.record(1.0); // bucket 0
        h.record(5.0); // bucket 2
        h.record(9.99); // bucket 4
        h.record(42.0); // clamps into bucket 4
        assert_eq!(h.counts(), &[2, 0, 1, 0, 2]);
        assert_eq!(h.summary().count(), 5);
        let f = h.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((h.bucket_lo(2) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_linear_histogram_fractions_are_zero() {
        let h = LinearHistogram::new(0.0, 1.0, 3);
        assert_eq!(h.fractions(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn summary_merge_matches_single_stream() {
        let samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut whole = Summary::new();
        for x in samples {
            whole.record(x);
        }
        let mut left = Summary::new();
        let mut right = Summary::new();
        for x in &samples[..3] {
            left.record(*x);
        }
        for x in &samples[3..] {
            right.record(*x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn summary_merge_with_empty_sides() {
        let mut s = Summary::new();
        s.record(3.0);
        let empty = Summary::new();
        s.merge(&empty);
        assert_eq!(s.count(), 1);
        let mut e = Summary::new();
        e.merge(&s);
        assert_eq!(e.count(), 1);
        assert_eq!(e.max(), Some(3.0));
    }

    #[test]
    fn linear_histogram_quantiles_monotone_and_clamped() {
        let mut h = LinearHistogram::new(0.0, 100.0, 10);
        for i in 0..100 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!((40.0..=60.0).contains(&p50), "{p50}");
        // Clamped to the observed max, not the bin's upper edge.
        assert!(p99 <= 99.0, "{p99}");
        assert_eq!(LinearHistogram::new(0.0, 1.0, 2).quantile(0.5), 0.0);
    }

    #[test]
    fn linear_histogram_merge_matches_single_stream() {
        let mut whole = LinearHistogram::new(0.0, 10.0, 5);
        let mut a = LinearHistogram::new(0.0, 10.0, 5);
        let mut b = LinearHistogram::new(0.0, 10.0, 5);
        for i in 0..20 {
            let x = (i * 7 % 13) as f64;
            whole.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.counts(), whole.counts());
        assert_eq!(a.summary().count(), whole.summary().count());
        assert!((a.quantile(0.95) - whole.quantile(0.95)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different binning")]
    fn linear_histogram_merge_rejects_different_bins() {
        let mut a = LinearHistogram::new(0.0, 10.0, 5);
        let b = LinearHistogram::new(0.0, 20.0, 5);
        a.merge(&b);
    }

    #[test]
    fn linear_histogram_try_merge_skips_mismatched_layouts() {
        let mut a = LinearHistogram::new(0.0, 10.0, 5);
        a.record(1.0);
        let mut wrong_range = LinearHistogram::new(0.0, 20.0, 5);
        wrong_range.record(15.0);
        let mut wrong_buckets = LinearHistogram::new(0.0, 10.0, 4);
        wrong_buckets.record(3.0);
        assert!(!a.try_merge(&wrong_range));
        assert!(!a.try_merge(&wrong_buckets));
        // Self untouched by rejected merges.
        assert_eq!(a.summary().count(), 1);
        assert_eq!(a.counts(), &[1, 0, 0, 0, 0]);
        let mut same = LinearHistogram::new(0.0, 10.0, 5);
        same.record(9.0);
        assert!(a.try_merge(&same));
        assert_eq!(a.summary().count(), 2);
    }

    #[test]
    fn empty_histogram_merges_into_empty() {
        let mut log = LogHistogram::new();
        log.merge(&LogHistogram::new());
        assert_eq!(log.summary().count(), 0);
        assert_eq!(log.quantile(0.99), 0);
        let mut lin = LinearHistogram::new(0.0, 1.0, 2);
        assert!(lin.try_merge(&LinearHistogram::new(0.0, 1.0, 2)));
        assert_eq!(lin.summary().count(), 0);
        assert_eq!(lin.quantile(0.5), 0.0);
    }

    #[test]
    fn log_histogram_buckets_saturate() {
        let mut a = LogHistogram::new();
        for _ in 0..3 {
            a.record(1024);
        }
        let mut pegged = LogHistogram::new();
        pegged.record(1024);
        // Simulate a pegged bucket by merging a histogram into itself
        // many times is impractical; instead saturate via merge of two
        // near-full histograms built by direct recording.
        for _ in 0..3 {
            pegged.merge(&a);
        }
        assert_eq!(pegged.bucket(10), 10);
        // Merging must never wrap even at extreme counts.
        let mut x = LogHistogram::new();
        x.record(u64::MAX);
        let mut y = x.clone();
        for _ in 0..70 {
            let snapshot = y.clone();
            y.merge(&snapshot);
        }
        assert!(y.bucket(63) >= x.bucket(63));
    }

    #[test]
    fn utilization_builds_timeline_on_idle() {
        let mut u = Utilization::new();
        u.set_busy(SimTime::from_millis(0));
        u.set_idle(SimTime::from_millis(5));
        assert_eq!(u.timeline().busy_total(), SimDuration::from_millis(5));
        // An open interval is visible via timeline_as_of only.
        u.set_busy(SimTime::from_millis(10));
        assert_eq!(u.timeline().busy_total(), SimDuration::from_millis(5));
        let t = u.timeline_as_of(SimTime::from_millis(12));
        assert_eq!(t.busy_total(), SimDuration::from_millis(7));
    }
}
