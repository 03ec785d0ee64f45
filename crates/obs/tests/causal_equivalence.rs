//! The flat causal graph against the builder it replaced.
//!
//! Generated multi-log event lists — same-instant ties across logs,
//! every stage including elections, replays, checkpoints and
//! suppressions, and in every case one node pair joined by two edge
//! families — must build the same graph and answer every query the same
//! way as the reference ([`causal_ref::RefGraph`]). Mutants this kills:
//! the lifecycle groups walked out of key order (edge insertion order),
//! and a binding-predecessor tie broken by the first edge instead of the
//! last (`critical_path` from the planted pair). A duplicate kept last
//! instead of first cannot show here — no edge family proposes an edge
//! twice — so `causal.rs`'s unit test feeds the dedup pass duplicates.

#[allow(dead_code)]
#[path = "support/causal_ref.rs"]
mod causal_ref;

use causal_ref::assert_matches_reference;
use proptest::prelude::*;
use publishing_obs::causal::{CausalGraph, EdgeKind};
use publishing_obs::span::{MsgKey, SpanEvent, SpanLog, Stage};
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

/// A process id drawn from a set small enough that senders, subjects
/// and replay readers keep meeting (a suppression links to a replay
/// *into* its sender).
fn pid(p: u64) -> u64 {
    (p + 1) << 32
}

/// One event, its `seq` set later from its position. Instants come
/// from a 40 µs range, so logs tie at the same instant all the time;
/// read indices from three values, so replays find their deliveries.
fn arb_event() -> impl Strategy<Value = SpanEvent> {
    (
        0u64..40,
        0u64..4,
        0u64..5,
        0usize..STAGES.len(),
        0u64..4,
        0u64..3,
    )
        .prop_map(|(at, sender, kseq, stage, subject, aux)| SpanEvent {
            seq: 0,
            at: SimTime::from_micros(at),
            key: MsgKey {
                sender: pid(sender),
                seq: kseq,
            },
            stage: STAGES[stage],
            subject: pid(subject),
            aux,
        })
}

/// One to four logs of up to 60 events each, numbered in list order the
/// way a [`SpanLog`] numbers them. Log 0 ends with a delivery and its
/// replay to a fresh subject, after every other event: program order and
/// deliver→replay both join that pair, and the replay is the last node,
/// so every critical path ending there walks the tie.
fn arb_lists() -> impl Strategy<Value = Vec<Vec<SpanEvent>>> {
    proptest::collection::vec(proptest::collection::vec(arb_event(), 0..60), 1..5).prop_map(
        |mut lists| {
            let key = MsgKey {
                sender: pid(9),
                seq: 0,
            };
            for (stage, at) in [(Stage::Deliver, 50), (Stage::Replay, 51)] {
                lists[0].push(SpanEvent {
                    seq: 0,
                    at: SimTime::from_micros(at),
                    key,
                    stage,
                    subject: pid(8),
                    aux: 0,
                });
            }
            for list in &mut lists {
                for (i, e) in list.iter_mut().enumerate() {
                    e.seq = i as u64;
                }
            }
            lists
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Every answer matches the reference's.
    #[test]
    fn flat_graph_matches_reference(lists in arb_lists()) {
        assert_matches_reference(&lists);
    }

    /// Building from span logs is building from their event lists.
    #[test]
    fn build_from_logs_matches_event_lists(lists in arb_lists()) {
        let logs: Vec<SpanLog> = lists
            .iter()
            .map(|list| {
                let mut log = SpanLog::new(list.len());
                for e in list {
                    log.record(e.at, e.key, e.stage, e.subject, e.aux);
                }
                log
            })
            .collect();
        let from_logs = CausalGraph::build(&logs);
        let from_lists = CausalGraph::from_event_lists(&lists);
        prop_assert_eq!(from_logs.events(), from_lists.events());
        prop_assert_eq!(from_logs.edges(), from_lists.edges());
        prop_assert_eq!(from_logs.to_dot(), from_lists.to_dot());
    }
}

/// The planted pair really is two families' edge, the later one binding.
#[test]
fn the_planted_pair_carries_two_edges_and_the_last_binds() {
    let mut rng = proptest::test_runner::TestRng::new(1);
    let lists = arb_lists().generate(&mut rng);
    let g = CausalGraph::from_event_lists(&lists);
    let replay = g.len() as u32 - 1;
    let into: Vec<_> = g
        .edges()
        .iter()
        .filter(|e| e.to == replay && e.from == replay - 1)
        .map(|e| e.kind)
        .collect();
    assert_eq!(into, [EdgeKind::ProgramOrder, EdgeKind::DeliverReplay]);
    let (from, to) = (
        g.events()[replay as usize - 1].at,
        g.events()[replay as usize].at,
    );
    let path = g
        .critical_path(from, to, None)
        .expect("a window over the pair");
    assert_eq!(path.segments[1].kind, Some(EdgeKind::DeliverReplay));
}
