//! The always-on invariant watchdog.
//!
//! The chaos engine checks the quorum safety/liveness oracles *after* a
//! run; this module evaluates an online subset of them *during* any run,
//! so a violation is visible in `obs_report` (and fails CI) even when no
//! chaos harness is driving. The worlds feed it periodic scans:
//!
//! - **arrival-seq gap freedom**: per destination process, the union of
//!   quorum-applied arrival sequences must stay contiguous from 0. A gap
//!   is tolerated while commits are in flight; one that persists past a
//!   virtual-time deadline is a safety violation (sequencing lost or
//!   reordered an arrival across a failover).
//! - **commit-index monotonicity**: a replica's commit index never moves
//!   backwards within one incarnation (restarts legitimately reset it —
//!   the world resets the floor via [`Watchdog::reset_replica`]).
//! - **ack-gating stall**: when a majority of replicas is live, the
//!   group must elect a leader within a deadline; a longer leaderless
//!   window means client acks are gated forever — a liveness violation.
//!
//! **Cost.** A scan pays for what changed since the last one, not for
//! history. The gap check keeps one cursor per process (the first
//! sequence not yet seen applied) and never looks below it, so the world
//! feeds [`Watchdog::scan_arrival_seqs`] only the sequences at or after
//! [`Watchdog::arrival_cursor`], lazily, and the scan stops pulling at
//! the first gap: one scan costs O(processes × replicas × log n) lookups
//! plus the sequences applied since the previous scan (plus one per open
//! gap). [`Watchdog::seqs_visited`] meters it. The commit-index and
//! leadership checks are O(replicas).
//!
//! Everything is deterministic: deadlines are virtual time, state is
//! plain maps, and violations are appended in scan order, so two runs of
//! the same seed report identical verdicts. The watchdog never panics
//! the run — verdicts surface through [`Watchdog::violations`], the
//! metrics registry, and the report's watchdog section, and the chaos
//! oracle folds them into its failure list.

use crate::registry::MetricsRegistry;
use publishing_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// How long an arrival-seq gap may persist before it is a violation
/// (covers commits legitimately in flight). Elections need 80–160 ms of
/// timeouts; a gap outliving several election rounds is not in-flight
/// work any more.
const GAP_DEADLINE: SimDuration = SimDuration::from_millis(500);
/// How long a majority-live group may run leaderless before ack gating
/// counts as stalled.
const LEADERLESS_DEADLINE: SimDuration = SimDuration::from_millis(1_000);

#[derive(Debug, Clone, Copy, Default)]
struct ArrivalCursor {
    /// First arrival seq not yet seen applied.
    next: u64,
    /// When the cursor first observed a later seq while `next` was
    /// still missing.
    gap_since: Option<SimTime>,
    /// The cursor position already reported, to keep one stuck gap from
    /// re-firing every scan.
    reported_at: Option<u64>,
}

/// Online evaluator for the invariants above. One instance per world;
/// a scan costs what was applied since the previous one (module docs),
/// so it runs on a fixed virtual-time cadence.
#[derive(Debug, Default)]
pub struct Watchdog {
    checks: u64,
    seqs_visited: u64,
    violations: Vec<String>,
    arrivals: BTreeMap<u64, ArrivalCursor>,
    commit_floor: BTreeMap<u32, u64>,
    leaderless_since: Option<SimTime>,
    leaderless_reported: bool,
}

impl Watchdog {
    /// Creates a watchdog that has checked nothing yet.
    pub fn new() -> Self {
        Watchdog::default()
    }

    /// The first arrival sequence of `pid` not yet seen applied (0 for a
    /// process never scanned). Sequences below it are settled: a caller
    /// need not offer them to [`Watchdog::scan_arrival_seqs`] again.
    pub fn arrival_cursor(&self, pid: u64) -> u64 {
        self.arrivals.get(&pid).map_or(0, |cur| cur.next)
    }

    /// Scans one destination process's applied arrival sequences (the
    /// union across live replicas), ascending. Sequences below
    /// [`Watchdog::arrival_cursor`] are skipped, and `seqs` is not pulled
    /// past the first sequence beyond a gap, so a lazy iterator starting
    /// at the cursor does only the work the scan needs.
    pub fn scan_arrival_seqs(&mut self, now: SimTime, pid: u64, seqs: impl Iterator<Item = u64>) {
        self.checks += 1;
        let cur = self.arrivals.entry(pid).or_default();
        let mut behind_gap = None;
        for s in seqs {
            self.seqs_visited += 1;
            if s < cur.next {
                continue;
            }
            if s == cur.next {
                cur.next += 1;
                continue;
            }
            // `cur.next` is missing but `s` exists beyond it.
            behind_gap = Some(s);
            break;
        }
        match behind_gap {
            None => cur.gap_since = None,
            Some(beyond) => {
                let since = *cur.gap_since.get_or_insert(now);
                if now.saturating_since(since) > GAP_DEADLINE && cur.reported_at != Some(cur.next) {
                    cur.reported_at = Some(cur.next);
                    self.violations.push(format!(
                        "watchdog: arrival gap for pid {pid}: seq {} missing while {} applied \
                         (open since {:.3}ms, now {:.3}ms)",
                        cur.next,
                        beyond,
                        since.as_millis_f64(),
                        now.as_millis_f64()
                    ));
                }
            }
        }
    }

    /// Observes one replica's current commit index.
    pub fn observe_commit_index(&mut self, now: SimTime, replica: u32, commit: u64) {
        self.checks += 1;
        let floor = self.commit_floor.entry(replica).or_insert(commit);
        if commit < *floor {
            self.violations.push(format!(
                "watchdog: replica {replica} commit index went backwards {} -> {} at {:.3}ms",
                *floor,
                commit,
                now.as_millis_f64()
            ));
        }
        *floor = (*floor).max(commit);
    }

    /// Forgets a replica's commit floor (call on crash/restart — commit
    /// indices are volatile and legitimately reset with an incarnation).
    pub fn reset_replica(&mut self, replica: u32) {
        self.commit_floor.remove(&replica);
    }

    /// Observes the group's leadership state.
    pub fn observe_leadership(&mut self, now: SimTime, majority_live: bool, has_leader: bool) {
        self.checks += 1;
        if !majority_live || has_leader {
            self.leaderless_since = None;
            self.leaderless_reported = false;
            return;
        }
        let since = *self.leaderless_since.get_or_insert(now);
        if now.saturating_since(since) > LEADERLESS_DEADLINE && !self.leaderless_reported {
            self.leaderless_reported = true;
            self.violations.push(format!(
                "watchdog: ack gating stalled: majority live but leaderless since {:.3}ms \
                 (now {:.3}ms)",
                since.as_millis_f64(),
                now.as_millis_f64()
            ));
        }
    }

    /// Number of individual checks evaluated so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Arrival sequences pulled from the iterators given to
    /// [`Watchdog::scan_arrival_seqs`] so far: the gap check's work
    /// meter.
    pub fn seqs_visited(&self) -> u64 {
        self.seqs_visited
    }

    /// The violations observed, in scan order.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// True when no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Files `watchdog/checks` and `watchdog/violations` counters.
    pub fn into_registry(&self, reg: &mut MetricsRegistry) {
        reg.counter("watchdog/checks", self.checks);
        reg.counter("watchdog/violations", self.violations.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_arrivals_stay_clean() {
        let mut w = Watchdog::new();
        for t in 0..5u64 {
            w.scan_arrival_seqs(SimTime::from_millis(t * 1_500), 7, 0..=t);
        }
        assert!(w.is_clean());
        assert_eq!(w.checks(), 5);
    }

    #[test]
    fn transient_gap_is_tolerated_persistent_gap_fires_once() {
        let mut w = Watchdog::new();
        // seq 1 missing while 2 applied — within the 500 ms deadline, clean.
        w.scan_arrival_seqs(SimTime::from_millis(50), 7, [0u64, 2].into_iter());
        assert!(w.is_clean());
        // Gap heals: cursor advances, timer disarms.
        w.scan_arrival_seqs(SimTime::from_millis(100), 7, [0u64, 1, 2].into_iter());
        assert!(w.is_clean());
        // New gap opens and persists past the deadline.
        w.scan_arrival_seqs(SimTime::from_millis(150), 7, [0u64, 1, 2, 4].into_iter());
        w.scan_arrival_seqs(SimTime::from_millis(600), 7, [0u64, 1, 2, 4].into_iter());
        assert!(w.is_clean(), "450 ms open is inside the deadline");
        w.scan_arrival_seqs(SimTime::from_millis(1_250), 7, [0u64, 1, 2, 4].into_iter());
        assert_eq!(w.violations().len(), 1);
        assert!(w.violations()[0].contains("seq 3 missing"));
        // Same stuck gap does not re-fire every scan.
        w.scan_arrival_seqs(SimTime::from_millis(2_000), 7, [0u64, 1, 2, 4].into_iter());
        assert_eq!(w.violations().len(), 1);
    }

    #[test]
    fn cursor_lets_a_caller_offer_only_what_is_new() {
        let mut w = Watchdog::new();
        assert_eq!(w.arrival_cursor(7), 0, "never scanned");
        w.scan_arrival_seqs(SimTime::from_millis(10), 7, 0..4);
        assert_eq!((w.arrival_cursor(7), w.seqs_visited()), (4, 4));
        // Offering history again is correct but visits it all; starting
        // at the cursor is the same scan for less.
        w.scan_arrival_seqs(SimTime::from_millis(20), 7, 0..6);
        assert_eq!((w.arrival_cursor(7), w.seqs_visited()), (6, 10));
        w.scan_arrival_seqs(SimTime::from_millis(30), 7, 6..8);
        assert_eq!((w.arrival_cursor(7), w.seqs_visited()), (8, 12));
        // Nothing is pulled past the first sequence beyond a gap.
        w.scan_arrival_seqs(SimTime::from_millis(40), 7, [9u64, 10, 11].into_iter());
        assert_eq!((w.arrival_cursor(7), w.seqs_visited()), (8, 13));
        assert!(w.is_clean());
    }

    #[test]
    fn commit_index_regression_is_flagged_and_restart_resets() {
        let mut w = Watchdog::new();
        w.observe_commit_index(SimTime::from_millis(1), 0, 5);
        w.observe_commit_index(SimTime::from_millis(2), 0, 9);
        assert!(w.is_clean());
        w.observe_commit_index(SimTime::from_millis(3), 0, 4);
        assert_eq!(w.violations().len(), 1);
        assert!(w.violations()[0].contains("backwards 9 -> 4"));
        // A restart legitimately resets the floor.
        w.reset_replica(1);
        w.observe_commit_index(SimTime::from_millis(4), 1, 100);
        w.reset_replica(1);
        w.observe_commit_index(SimTime::from_millis(5), 1, 0);
        assert_eq!(w.violations().len(), 1);
    }

    #[test]
    fn leaderless_majority_past_deadline_is_a_stall() {
        let mut w = Watchdog::new();
        w.observe_leadership(SimTime::from_millis(0), true, true);
        w.observe_leadership(SimTime::from_millis(50), true, false);
        w.observe_leadership(SimTime::from_millis(1_000), true, false);
        assert!(w.is_clean(), "inside the 1 000 ms deadline");
        w.observe_leadership(SimTime::from_millis(1_500), true, false);
        assert_eq!(w.violations().len(), 1);
        assert!(w.violations()[0].contains("leaderless"));
        // Re-arms only after leadership returns.
        w.observe_leadership(SimTime::from_millis(2_000), true, false);
        assert_eq!(w.violations().len(), 1);
        w.observe_leadership(SimTime::from_millis(2_500), true, true);
        w.observe_leadership(SimTime::from_millis(2_550), true, false);
        w.observe_leadership(SimTime::from_millis(4_500), true, false);
        assert_eq!(w.violations().len(), 2);
    }

    #[test]
    fn minority_live_groups_are_allowed_to_be_leaderless() {
        let mut w = Watchdog::new();
        w.observe_leadership(SimTime::from_millis(0), false, false);
        w.observe_leadership(SimTime::from_secs(10), false, false);
        assert!(w.is_clean());
    }

    #[test]
    fn registry_projection_counts_checks_and_violations() {
        let mut w = Watchdog::new();
        w.observe_commit_index(SimTime::ZERO, 0, 3);
        w.observe_commit_index(SimTime::ZERO, 0, 1);
        let mut reg = MetricsRegistry::new();
        w.into_registry(&mut reg);
        assert_eq!(reg.counter_value("watchdog/checks"), Some(2));
        assert_eq!(reg.counter_value("watchdog/violations"), Some(1));
    }
}
