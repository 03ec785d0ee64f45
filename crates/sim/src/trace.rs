//! Simulation event tracing.
//!
//! Traces serve two purposes here. First, debugging: a bounded ring of the
//! most recent events with category filters. Second, *verification*: the
//! determinism tests fingerprint a run by hashing its trace, so two runs of
//! the same seed must produce bit-identical traces, and a recovered
//! process's trace must replay its pre-crash prefix exactly.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Coarse event categories, used for filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Medium-level frame transmission/delivery/collision.
    Net,
    /// Kernel calls and message queue activity.
    Kernel,
    /// Transport protocol: acks, retransmits, duplicate suppression.
    Transport,
    /// Recorder activity: publishing, database updates, disk writes.
    Recorder,
    /// Crash detection and recovery progress.
    Recovery,
    /// Checkpoint generation and policy decisions.
    Checkpoint,
    /// Application-level sends/receives (the externally visible behaviour).
    App,
    /// Injected faults.
    Fault,
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time the event occurred.
    pub at: SimTime,
    /// Category for filtering.
    pub category: Category,
    /// Free-form description (stable across runs of the same seed).
    pub text: String,
}

/// A bounded in-memory trace ring.
#[derive(Debug)]
pub struct Trace {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    enabled: bool,
    total: u64,
    fnv: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

impl Trace {
    /// Creates a trace ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Trace {
            ring: VecDeque::new(),
            capacity,
            enabled: true,
            total: 0,
            fnv: FNV_OFFSET,
        }
    }

    /// Creates a disabled trace (events are counted and hashed but not stored).
    pub fn disabled() -> Self {
        let mut t = Trace::new(0);
        t.enabled = false;
        t
    }

    /// Records an event.
    pub fn emit(&mut self, at: SimTime, category: Category, text: impl Into<String>) {
        let text = text.into();
        // The monotone event sequence number is folded into the hash so the
        // fingerprint covers every event ever emitted — ring eviction cannot
        // silently drop an event from the oracle — and each event's byte
        // encoding is framed (seq + explicit text length) so two different
        // event streams can never concatenate to the same byte sequence.
        let seq = self.total;
        self.total += 1;
        let mut h = self.fnv;
        for b in seq
            .to_le_bytes()
            .iter()
            .chain(at.as_nanos().to_le_bytes().iter())
            .chain([category as u8].iter())
            .chain((text.len() as u64).to_le_bytes().iter())
            .chain(text.as_bytes())
        {
            h ^= *b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.fnv = h;
        if self.enabled && self.capacity > 0 {
            if self.ring.len() == self.capacity {
                self.ring.pop_front();
            }
            self.ring.push_back(TraceEvent { at, category, text });
        }
    }

    /// Returns the total number of events emitted (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Returns the running fingerprint of all events ever emitted.
    ///
    /// Two runs with identical event streams have identical fingerprints;
    /// this is the primary determinism oracle in the test suite.
    pub fn fingerprint(&self) -> u64 {
        self.fnv
    }

    /// Returns the retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Returns retained events of one category, oldest first.
    pub fn events_in(&self, category: Category) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter().filter(move |e| e.category == category)
    }

    /// Renders the retained events as lines, for debugging output.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        for e in &self.ring {
            s.push_str(&format!("{} [{:?}] {}\n", e.at, e.category, e.text));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Trace::new(2);
        t.emit(SimTime::from_millis(1), Category::Net, "a");
        t.emit(SimTime::from_millis(2), Category::Net, "b");
        t.emit(SimTime::from_millis(3), Category::Net, "c");
        let texts: Vec<_> = t.events().map(|e| e.text.as_str()).collect();
        assert_eq!(texts, ["b", "c"]);
        assert_eq!(t.total(), 3);
    }

    #[test]
    fn fingerprint_stable_across_identical_streams() {
        let mut a = Trace::new(1);
        let mut b = Trace::disabled();
        for i in 0..100u64 {
            a.emit(SimTime::from_nanos(i), Category::Kernel, format!("ev{i}"));
            b.emit(SimTime::from_nanos(i), Category::Kernel, format!("ev{i}"));
        }
        // Storage policy must not affect the fingerprint.
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_sensitive_to_content_and_order() {
        let mut a = Trace::disabled();
        let mut b = Trace::disabled();
        a.emit(SimTime::ZERO, Category::Net, "x");
        a.emit(SimTime::ZERO, Category::Net, "y");
        b.emit(SimTime::ZERO, Category::Net, "y");
        b.emit(SimTime::ZERO, Category::Net, "x");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_sensitive_to_category() {
        let mut a = Trace::disabled();
        let mut b = Trace::disabled();
        a.emit(SimTime::ZERO, Category::Net, "x");
        b.emit(SimTime::ZERO, Category::App, "x");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_unambiguous_at_event_boundaries() {
        // Regression: the old fingerprint concatenated raw event bytes with
        // no framing, so the two-event stream
        //   (t=0, Net, "x"), (t2, c2, "y")
        // hashed identically to the single event
        //   (t=0, Net, "x" ++ t2_le_bytes ++ [c2] ++ "y").
        // Framing each event with its sequence number and text length makes
        // these distinct.
        let t2 = SimTime::from_nanos(u64::from_le_bytes(*b"AAAAAAAA"));
        let c2 = Category::Net;
        let mut two = Trace::disabled();
        two.emit(SimTime::ZERO, Category::Net, "x");
        two.emit(t2, c2, "y");

        let mut glued = String::from("x");
        glued.push_str("AAAAAAAA"); // t2.as_nanos().to_le_bytes()
        glued.push(c2 as u8 as char);
        glued.push('y');
        let mut one = Trace::disabled();
        one.emit(SimTime::ZERO, Category::Net, glued);

        assert_ne!(two.fingerprint(), one.fingerprint());
    }

    #[test]
    fn fingerprint_independent_of_ring_capacity_under_eviction() {
        // A tiny ring that evicts aggressively and an unbounded one must
        // agree: the fingerprint hashes the emission stream, not the
        // surviving ring contents.
        let mut small = Trace::new(1);
        let mut large = Trace::new(1024);
        for i in 0..300u64 {
            small.emit(SimTime::from_nanos(i), Category::Recorder, format!("m{i}"));
            large.emit(SimTime::from_nanos(i), Category::Recorder, format!("m{i}"));
        }
        assert_eq!(small.events().count(), 1);
        assert_eq!(small.fingerprint(), large.fingerprint());
        assert_eq!(small.total(), large.total());
    }

    #[test]
    fn category_filter() {
        let mut t = Trace::new(10);
        t.emit(SimTime::ZERO, Category::Net, "n");
        t.emit(SimTime::ZERO, Category::Recovery, "r");
        assert_eq!(t.events_in(Category::Recovery).count(), 1);
        assert_eq!(t.events_in(Category::Net).count(), 1);
        assert_eq!(t.events_in(Category::Kernel).count(), 0);
    }

    #[test]
    fn dump_contains_events() {
        let mut t = Trace::new(4);
        t.emit(SimTime::from_millis(5), Category::Fault, "crash node 2");
        assert!(t.dump().contains("crash node 2"));
        assert!(t.dump().contains("Fault"));
    }
}
