//! Deterministic event queue and scheduler.
//!
//! Every dynamic behaviour in the reproduction — frame delivery, protocol
//! timers, disk completions, watchdog timeouts — is an event in one
//! totally ordered queue. Determinism demands a *total* order: events at
//! the same instant are delivered in the order they were scheduled (FIFO
//! by a monotone sequence number), never in heap order. What happens *to*
//! a world from outside (an injected crash, a fault regime) is not an
//! event: its driver runs the world up to an instant and acts between
//! events.

use crate::time::{SimDuration, SimTime};
use std::collections::BinaryHeap;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

// The standard-library heap is a max-heap; invert the ordering so the
// earliest (time, seq) pair pops first.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A discrete-event scheduler: a virtual clock plus a deterministically
/// ordered pending-event queue.
///
/// `E` is the world-specific event payload type. The scheduler never
/// inspects payloads; it only orders and delivers them. A scheduled
/// event always fires: there is no cancellation, so the queue keeps no
/// per-event bookkeeping beside the heap entry itself (a component that
/// outlives a timer ignores the stale token when it arrives).
///
/// # Examples
///
/// ```
/// use publishing_sim::event::Scheduler;
/// use publishing_sim::time::SimDuration;
///
/// let mut sched: Scheduler<&str> = Scheduler::new();
/// sched.schedule_after(SimDuration::from_millis(2), "second");
/// sched.schedule_after(SimDuration::from_millis(1), "first");
/// let (t1, e1) = sched.pop().unwrap();
/// assert_eq!(e1, "first");
/// assert_eq!(t1.as_millis_f64(), 1.0);
/// assert_eq!(sched.pop().unwrap().1, "second");
/// assert!(sched.pop().is_none());
/// ```
pub struct Scheduler<E> {
    now: SimTime,
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    delivered: u64,
    peak_pending: usize,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            next_seq: 0,
            delivered: 0,
            peak_pending: 0,
        }
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Returns the number of events scheduled but not yet fired.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Returns the total number of events ever scheduled (fired or
    /// still pending).
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Returns the largest number of simultaneously pending events seen
    /// over the whole run — the event queue's high-water mark.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// `at` may equal the current time (the event fires on the next pop)
    /// but must not precede it.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current virtual time; scheduling
    /// into the past would silently reorder causality.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
        self.peak_pending = self.peak_pending.max(self.heap.len());
    }

    /// Schedules `payload` to fire `after` from now.
    pub fn schedule_after(&mut self, after: SimDuration, payload: E) {
        let at = self.now + after;
        self.schedule_at(at, payload)
    }

    /// Removes and returns the next event as `(fire_time, payload)`,
    /// advancing the clock to the fire time. Returns `None` when the queue
    /// is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.delivered += 1;
        Some((entry.at, entry.payload))
    }

    /// Returns the fire time of the next event without delivering it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|entry| entry.at)
    }

    /// Advances the clock to `at` without delivering events.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current time or if an undelivered event
    /// is pending before `at` (skipping it would violate causality).
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "cannot rewind the clock");
        if let Some(next) = self.peek_time() {
            assert!(next >= at, "cannot skip pending event at {next}");
        }
        self.now = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            s.schedule_at(t, i);
        }
        for i in 0..100 {
            assert_eq!(s.pop().unwrap().1, i);
        }
    }

    #[test]
    fn time_ordering_dominates_insertion_order() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_millis(10), "late");
        s.schedule_at(SimTime::from_millis(5), "early");
        assert_eq!(s.pop().unwrap().1, "early");
        assert_eq!(s.pop().unwrap().1, "late");
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_after(SimDuration::from_micros(7), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_micros(7));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_past_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_after(SimDuration::from_millis(5), ());
        s.pop();
        s.schedule_at(SimTime::from_millis(1), ());
    }

    #[test]
    fn advance_to_moves_idle_clock() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.advance_to(SimTime::from_secs(1));
        assert_eq!(s.now(), SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "cannot skip pending event")]
    fn advance_past_pending_event_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_after(SimDuration::from_millis(1), ());
        s.advance_to(SimTime::from_secs(1));
    }

    #[test]
    fn peak_pending_is_a_high_water_mark() {
        let mut s: Scheduler<u8> = Scheduler::new();
        assert_eq!(s.peak_pending(), 0);
        s.schedule_after(SimDuration::from_millis(1), 1);
        s.schedule_after(SimDuration::from_millis(2), 2);
        s.schedule_after(SimDuration::from_millis(3), 3);
        s.pop();
        s.pop();
        s.schedule_after(SimDuration::from_millis(4), 4);
        assert_eq!(s.peak_pending(), 3, "peak holds after the queue drains");
        assert_eq!(s.scheduled(), 4);
    }
}
