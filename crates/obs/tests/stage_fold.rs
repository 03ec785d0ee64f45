//! Pins [`stage_latencies`], which folds the component logs in one
//! pass, to the definition it replaced: assemble every message's span,
//! then read each span's first stage instants and flags.
//!
//! The histograms must match bucket for bucket and their Welford
//! summaries bit for bit (mean, m2, min, max), so the fold has to feed
//! them in the same `MsgKey` order; `replayed`, `suppressed` and
//! `partial` must match exactly. Covered: several logs sharing keys,
//! eviction (`partial`), replay and suppress events, escaped wide rows,
//! checkpoint and election rows, sparse sequence numbers, empty logs.

use proptest::prelude::*;
use publishing_obs::profile::{stage_latencies, StageLatencies};
use publishing_obs::span::{assemble, MsgKey, SpanLog, Stage};
use publishing_sim::time::SimTime;

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

/// The stage latencies as defined before the fold: from the spans of
/// [`assemble`], fed in key order.
fn reference(logs: &[&SpanLog]) -> StageLatencies {
    let gap_us = |from: SimTime, to: SimTime| to.saturating_since(from).as_nanos() / 1_000;
    let mut out = StageLatencies::default();
    for span in assemble(logs.iter().copied()).values() {
        if span.has(Stage::Replay) {
            out.replayed += 1;
        }
        if span.has(Stage::Suppress) {
            out.suppressed += 1;
        }
        if span.partial {
            out.partial += 1;
            continue;
        }
        let publish = span.first(Stage::Publish);
        let capture = span.first(Stage::Capture);
        let sequence = span.first(Stage::Sequence);
        let deliver = span.first(Stage::Deliver);
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

/// Asserts the fold equals the reference. `Debug` prints every bucket
/// and every summary field, and an `f64`'s `Debug` form round-trips, so
/// equal strings mean equal bits.
fn assert_fold_matches(logs: &[&SpanLog]) -> StageLatencies {
    let got = stage_latencies(logs.iter().copied());
    let want = reference(logs);
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    for (g, w) in [
        (&got.publish_to_capture_us, &want.publish_to_capture_us),
        (&got.capture_to_sequence_us, &want.capture_to_sequence_us),
        (&got.publish_to_deliver_us, &want.publish_to_deliver_us),
    ] {
        let (g, w) = (g.summary(), w.summary());
        assert_eq!(g.count(), w.count());
        assert_eq!(g.mean().to_bits(), w.mean().to_bits());
        assert_eq!(g.variance().to_bits(), w.variance().to_bits());
        assert_eq!(g.min().map(f64::to_bits), w.min().map(f64::to_bits));
        assert_eq!(g.max().map(f64::to_bits), w.max().map(f64::to_bits));
    }
    got
}

fn key(sender: u64, seq: u64) -> MsgKey {
    MsgKey { sender, seq }
}

fn us(t: u64) -> SimTime {
    SimTime::from_micros(t)
}

/// One record call into one of several logs.
#[derive(Debug, Clone)]
struct Rec {
    log: usize,
    dt: u64,
    sender: u64,
    seq: u64,
    stage: Stage,
}

fn arb_rec() -> impl Strategy<Value = Rec> {
    // An enormous delta or a sequence number past 2^16 escapes the row
    // from the packed columns; 2^40 also makes the sender's keys sparse.
    let dt = prop_oneof![
        8 => 0u64..3_000_000,
        1 => (u32::MAX as u64)..(u32::MAX as u64 + 10_000),
    ];
    let seq = prop_oneof![
        8 => 0u64..40,
        2 => (1u64 << 16)..(1u64 << 16) + 40,
        1 => (1u64 << 40)..(1u64 << 40) + 4,
    ];
    (0usize..3, dt, 0u64..4, seq, 0usize..STAGES.len()).prop_map(|(log, dt, sender, seq, stage)| {
        Rec {
            log,
            dt,
            sender: (sender + 1) << 32,
            seq,
            stage: STAGES[stage],
        }
    })
}

proptest! {
    /// Random streams over three logs that share keys, each at its own
    /// capacity: small ones evict, so `partial` marking is exercised.
    #[test]
    fn fold_matches_assembled_spans(
        recs in proptest::collection::vec(arb_rec(), 0..400),
        caps in (1usize..500, 1usize..500, 1usize..500),
    ) {
        let mut logs = [SpanLog::new(caps.0), SpanLog::new(caps.1), SpanLog::new(caps.2)];
        let mut at = 0;
        for r in &recs {
            at += r.dt;
            logs[r.log].record(SimTime::from_nanos(at), key(r.sender, r.seq), r.stage, 0, 0);
        }
        let [a, b, c] = &logs;
        assert_fold_matches(&[a, b, c]);
    }
}

#[test]
fn keys_shared_across_logs_take_each_stages_first_instant() {
    let (mut kernel, mut recorder, mut dest) =
        (SpanLog::new(64), SpanLog::new(64), SpanLog::new(64));
    for seq in 0..5 {
        let k = key(1 << 32, seq);
        kernel.record(us(100 + seq), k, Stage::Publish, 2, 0);
        recorder.record(us(150 + 3 * seq), k, Stage::Capture, 2, 0);
        recorder.record(us(250 + 7 * seq), k, Stage::Sequence, 2, 0);
        // A later duplicate delivery in another log, recorded first.
        kernel.record(us(900 + seq), k, Stage::Deliver, 2, 0);
        dest.record(us(400 + 11 * seq), k, Stage::Deliver, 2, 0);
    }
    let lat = assert_fold_matches(&[&kernel, &recorder, &dest]);
    assert_eq!(lat.publish_to_deliver_us.summary().count(), 5);
    assert_eq!(lat.publish_to_deliver_us.summary().min(), Some(300.0));
}

#[test]
fn histograms_are_fed_in_key_order() {
    // Irregular gaps recorded out of key order, senders interleaved: a
    // Welford mean over these samples depends on the feed order.
    let mut log = SpanLog::new(4096);
    for i in 0..300u64 {
        let seq = (i * 37) % 300;
        let k = key((1 + i % 3) << 32, seq);
        let p = 1_000 * i;
        log.record(us(p), k, Stage::Publish, 2, 0);
        log.record(us(p + 1 + (i * i * 7919) % 997), k, Stage::Capture, 2, 0);
    }
    let lat = assert_fold_matches(&[&log]);
    assert_eq!(lat.publish_to_capture_us.summary().count(), 300);
}

#[test]
fn an_evicted_log_marks_partial() {
    let mut log = SpanLog::new(3);
    let old = key(1 << 32, 0);
    log.record(us(100), old, Stage::Publish, 7, 0);
    log.record(us(150), old, Stage::Capture, 7, 0);
    log.record(us(400), old, Stage::Deliver, 7, 0);
    log.record(us(500), old, Stage::Replay, 7, 0);
    log.record(us(600), key(1 << 32, 1), Stage::Publish, 7, 0);
    let mut intact = SpanLog::new(8);
    intact.record(us(700), key(2 << 32, 0), Stage::Publish, 7, 0);
    intact.record(us(800), key(2 << 32, 0), Stage::Sequence, 7, 0);
    let lat = assert_fold_matches(&[&log, &intact]);
    // `old` lost its publish; the other sender's key sequenced without a
    // capture, which an evicted world also reads as partial.
    assert_eq!(lat.partial, 2);
    assert_eq!(lat.replayed, 1);
}

#[test]
fn replay_and_suppress_are_counted_once_per_message() {
    let mut log = SpanLog::new(64);
    let k = key(1 << 32, 3);
    log.record(us(100), k, Stage::Publish, 2, 0);
    log.record(us(200), k, Stage::Deliver, 2, 0);
    log.record(us(300), k, Stage::Replay, 2, 0);
    log.record(us(310), k, Stage::Replay, 2, 1);
    log.record(us(320), k, Stage::Suppress, 2, 0);
    log.record(us(330), key(1 << 32, 4), Stage::Suppress, 2, 0);
    let lat = assert_fold_matches(&[&log]);
    assert_eq!((lat.replayed, lat.suppressed, lat.partial), (1, 2, 0));
}

#[test]
fn escaped_wide_rows_fold_like_packed_ones() {
    let mut log = SpanLog::new(64);
    let mut at = 0;
    for seq in (1 << 16)..(1 << 16) + 6 {
        let k = key(3 << 32, seq);
        at += u32::MAX as u64 + seq;
        log.record(SimTime::from_nanos(at), k, Stage::Publish, 2, 0);
        log.record(SimTime::from_nanos(at + 5_000), k, Stage::Capture, 2, 0);
        log.record(SimTime::from_nanos(at + 9_000), k, Stage::Deliver, 2, 0);
    }
    // Far-off keys of the same sender make its lane sparse; the last
    // possible sequence number of another sender makes a dense lane.
    log.record(us(1), key(3 << 32, 1 << 40), Stage::Publish, 2, 0);
    log.record(us(2), key(3 << 32, 1 << 40), Stage::Capture, 2, 0);
    log.record(us(3), key(4 << 32, u64::MAX), Stage::Publish, 2, 0);
    log.record(us(4), key(4 << 32, u64::MAX), Stage::Capture, 2, 0);
    let lat = assert_fold_matches(&[&log]);
    assert_eq!(lat.publish_to_capture_us.summary().count(), 8);
    assert_eq!(lat.publish_to_deliver_us.summary().count(), 6);
}

#[test]
fn checkpoint_and_elect_rows_are_not_messages() {
    let mut log = SpanLog::new(2);
    log.record(us(10), key(1 << 32, 0), Stage::Publish, 2, 0);
    log.record(us(20), key(1 << 32, 9), Stage::Checkpoint, 2, 4);
    log.record(us(30), key(5, 2), Stage::Elect, 5, 2);
    // Evicted, yet neither row alone makes a partial span.
    let lat = assert_fold_matches(&[&log]);
    assert_eq!((lat.partial, lat.replayed, lat.suppressed), (0, 0, 0));
}

#[test]
fn empty_logs_give_empty_latencies() {
    assert_fold_matches(&[]);
    let empty = SpanLog::new(16);
    let mut discarding = SpanLog::new(0);
    discarding.record(us(1), key(1 << 32, 0), Stage::Deliver, 2, 0);
    let lat = assert_fold_matches(&[&empty, &discarding]);
    assert_eq!(lat.partial, 0);
    assert_eq!(lat.publish_to_deliver_us.summary().count(), 0);
}
