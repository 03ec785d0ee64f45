//! Property tests pinning the columnar span store against the
//! row-oriented ring it replaced ([`RowSpanLog`], kept here as the
//! reference, with a byte-at-a-time fingerprint).
//!
//! Identical record streams must yield identical fingerprints, totals,
//! retained event sequences, and happens-before DAGs — across packed
//! rows, escaped rows (overflowing deltas and fields), eviction under
//! a tiny capacity, and mid-run capacity shrinks. Sampling must thin
//! retention without touching the fingerprint.

use proptest::prelude::*;
use publishing_obs::causal::CausalGraph;
use publishing_obs::span::{MsgKey, SpanEvent, SpanLog, Stage};
use publishing_sim::time::SimTime;
use std::collections::VecDeque;

/// The pre-columnar span log: a ring of whole events, and the running
/// FNV-1a fingerprint (the workspace's offset basis and prime) over each
/// event framed by its emission number, folded one byte at a time.
#[derive(Debug)]
struct RowSpanLog {
    ring: VecDeque<SpanEvent>,
    capacity: usize,
    total: u64,
    fnv: u64,
}

impl RowSpanLog {
    fn new(capacity: usize) -> Self {
        RowSpanLog {
            ring: VecDeque::new(),
            capacity,
            total: 0,
            fnv: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn record(&mut self, at: SimTime, key: MsgKey, stage: Stage, subject: u64, aux: u64) {
        let seq = self.total;
        self.total += 1;
        let mut frame = Vec::new();
        for w in [seq, at.as_nanos(), key.sender, key.seq] {
            frame.extend(w.to_le_bytes());
        }
        frame.push(stage as u8);
        for w in [subject, aux] {
            frame.extend(w.to_le_bytes());
        }
        for b in frame {
            self.fnv = (self.fnv ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        if self.capacity > 0 {
            if self.ring.len() == self.capacity {
                self.ring.pop_front();
            }
            self.ring.push_back(SpanEvent {
                seq,
                at,
                key,
                stage,
                subject,
                aux,
            });
        }
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn fingerprint(&self) -> u64 {
        self.fnv
    }

    fn events(&self) -> impl Iterator<Item = SpanEvent> + '_ {
        self.ring.iter().copied()
    }
}

const STAGES: [Stage; 8] = [
    Stage::Publish,
    Stage::Capture,
    Stage::Sequence,
    Stage::Deliver,
    Stage::Replay,
    Stage::Suppress,
    Stage::Checkpoint,
    Stage::Elect,
];

/// One record call: a time delta (occasionally enormous, to force a
/// timestamp escape) plus identity/payload fields (occasionally wide,
/// to force field escapes).
#[derive(Debug, Clone)]
struct Rec {
    dt: u64,
    sender: u64,
    kseq: u64,
    stage: Stage,
    subject: u64,
    aux: u64,
}

fn arb_rec() -> impl Strategy<Value = Rec> {
    let dt = prop_oneof![
        4 => 0u64..5_000_000,
        1 => (u32::MAX as u64)..(u32::MAX as u64 + 10_000),
    ];
    let kseq = prop_oneof![4 => 0u64..500, 1 => (1u64 << 40)..(1u64 << 40) + 8];
    let aux = prop_oneof![4 => 0u64..1000, 1 => (1u64 << 20)..(1u64 << 20) + 8];
    (dt, 0u64..6, kseq, 0usize..STAGES.len(), 0u64..6, aux).prop_map(
        |(dt, sender, kseq, stage, subject, aux)| Rec {
            dt,
            sender: (sender + 1) << 32,
            kseq,
            stage: STAGES[stage],
            subject: (subject + 1) << 32,
            aux,
        },
    )
}

/// Replays `recs` into both implementations at the same capacity.
fn record_both(recs: &[Rec], capacity: usize) -> (RowSpanLog, SpanLog) {
    let mut row = RowSpanLog::new(capacity);
    let mut col = SpanLog::new(capacity);
    let mut at = 0u64;
    for r in recs {
        at += r.dt;
        let t = SimTime::from_nanos(at);
        let key = MsgKey {
            sender: r.sender,
            seq: r.kseq,
        };
        row.record(t, key, r.stage, r.subject, r.aux);
        col.record(t, key, r.stage, r.subject, r.aux);
    }
    (row, col)
}

fn events_of_row(row: &RowSpanLog) -> Vec<SpanEvent> {
    row.events().collect()
}

fn events_of_col(col: &SpanLog) -> Vec<SpanEvent> {
    col.events().collect()
}

proptest! {
    /// Full-capacity equivalence: every event is retained, so the two
    /// stores must agree on everything, including the causal DAG built
    /// from their streams.
    #[test]
    fn columnar_matches_row_reference(recs in proptest::collection::vec(arb_rec(), 1..300)) {
        let (row, col) = record_both(&recs, recs.len());
        prop_assert_eq!(row.total(), col.total());
        prop_assert_eq!(row.fingerprint(), col.fingerprint());
        prop_assert_eq!(col.dropped(), 0);
        let re = events_of_row(&row);
        let ce = events_of_col(&col);
        prop_assert_eq!(&re, &ce);
        let rg = CausalGraph::from_event_lists(&[re]);
        let cg = CausalGraph::from_event_lists(&[ce]);
        prop_assert_eq!(rg.to_dot(), cg.to_dot());
    }

    /// Eviction under pressure: a tiny ring forces most rows (packed
    /// and escaped alike) out the front; the retained tails must still
    /// be identical and fingerprints still cover the evicted prefix.
    #[test]
    fn eviction_keeps_the_stores_in_lockstep(
        recs in proptest::collection::vec(arb_rec(), 1..300),
        capacity in 1usize..24,
    ) {
        let (row, col) = record_both(&recs, capacity);
        prop_assert_eq!(row.fingerprint(), col.fingerprint());
        prop_assert_eq!(col.retained(), recs.len().min(capacity));
        prop_assert_eq!(col.dropped(), recs.len().saturating_sub(capacity) as u64);
        prop_assert_eq!(events_of_row(&row), events_of_col(&col));
    }

    /// A mid-run capacity shrink drops the oldest rows only, and the
    /// fingerprint (hashed at record time) never notices.
    #[test]
    fn capacity_shrink_drops_oldest_rows_only(
        recs in proptest::collection::vec(arb_rec(), 2..200),
        keep in 1usize..16,
    ) {
        let (row, mut col) = record_both(&recs, recs.len());
        let before = col.fingerprint();
        col.set_capacity(keep);
        prop_assert_eq!(col.fingerprint(), before);
        let tail: Vec<SpanEvent> = events_of_row(&row)
            .into_iter()
            .skip(recs.len().saturating_sub(keep))
            .collect();
        prop_assert_eq!(events_of_col(&col), tail);
    }
}
