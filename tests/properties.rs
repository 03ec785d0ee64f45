//! Property-based tests of the system's core invariants.
//!
//! The headline properties are the paper's theorem, split into its two
//! sound halves:
//!
//! 1. *strict transparency* — for FIFO-pair workloads (where every
//!    process's input order is fully committed), any crash schedule
//!    leaves outputs bit-identical to the crash-free run;
//! 2. *exactly-once and liveness* — for arbitrary multi-sender
//!    workloads, where undelivered cross-sender messages have no
//!    committed order and recovery may legally interleave them
//!    differently, outputs are still gap-free exactly-once and every
//!    recovery completes.
//!
//! The rest pin down the substrate invariants recovery rests on.

use proptest::prelude::*;
use publishing::core::baseline::{recovery_line_rule1, recovery_line_rule2, History};
use publishing::core::node_recovery::{run_workload, NodeUnit};
use publishing::core::world::WorldBuilder;
use publishing::demos::ids::{Channel, ChannelSet, MessageId, ProcessId};
use publishing::demos::link::{Link, LinkTable};
use publishing::demos::message::{Message, MessageHeader};
use publishing::demos::process::ProcessImage;
use publishing::demos::programs::{self, Chatter};
use publishing::demos::queue::MessageQueue;
use publishing::demos::registry::ProgramRegistry;
use publishing::sim::codec::{Decode, Encode};
use publishing::sim::rng::DetRng;
use publishing::sim::time::{SimDuration, SimTime};

// ---------------------------------------------------------------------
// The recovery equivalence theorem
// ---------------------------------------------------------------------

fn chatter_world(seed: u64) -> publishing::core::world::World {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("chat-a", move || Box::new(Chatter::new(seed, 2, true)));
    reg.register("chat-b", move || {
        Box::new(Chatter::new(seed ^ 0x1111, 2, true))
    });
    reg.register("chat-c", move || {
        Box::new(Chatter::new(seed ^ 0x2222, 2, true))
    });
    let mut w = WorldBuilder::new(3).registry(reg).build();
    let a = ProcessId::new(0, 1);
    let b = ProcessId::new(1, 1);
    let c = ProcessId::new(2, 1);
    w.spawn(
        0,
        "chat-a",
        vec![
            Link::to(b, Channel::DEFAULT, 0),
            Link::to(c, Channel::DEFAULT, 0),
        ],
    )
    .unwrap();
    w.spawn(
        1,
        "chat-b",
        vec![
            Link::to(c, Channel::DEFAULT, 0),
            Link::to(a, Channel::DEFAULT, 0),
        ],
    )
    .unwrap();
    w.spawn(
        2,
        "chat-c",
        vec![
            Link::to(a, Channel::DEFAULT, 0),
            Link::to(b, Channel::DEFAULT, 0),
        ],
    )
    .unwrap();
    w
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The strict form of the theorem, sound for FIFO-pair workloads (a
    /// single sender→receiver pair has a committed total order): any
    /// schedule of crashes of either endpoint leaves the client's outputs
    /// bit-identical to the crash-free run.
    ///
    /// For multi-sender topologies, messages *not yet delivered* at crash
    /// time have no committed order, so recovery may legally interleave
    /// them differently; the checked guarantees there are exactly-once
    /// and recovery liveness (next property).
    #[test]
    fn recovery_is_transparent_under_random_crashes(
        seed in 1u64..1_000,
        crashes in proptest::collection::vec((any::<bool>(), 20u64..400), 1..=3),
    ) {
        let run = |crash: bool| {
            let mut reg = ProgramRegistry::new();
            programs::register_standard(&mut reg);
            reg.register("ping", move || {
                let mut p = programs::PingClient::new(40);
                p.think_ns = 500_000 + (seed % 7) * 300_000;
                Box::new(p)
            });
            let mut w = WorldBuilder::new(2).registry(reg).build();
            let server = w.spawn(1, "echo", vec![]).unwrap();
            let client = w
                .spawn(0, "ping", vec![Link::to(server, Channel::DEFAULT, 7)])
                .unwrap();
            if crash {
                let mut schedule = crashes.clone();
                schedule.sort_by_key(|&(_, at)| at);
                for (hit_server, at_ms) in schedule {
                    w.run_until(SimTime::from_millis(at_ms));
                    let victim = if hit_server { server } else { client };
                    w.crash_process(victim, "prop");
                }
            }
            w.run_until(SimTime::from_secs(20));
            w.outputs_of(client)
        };
        let clean = run(false);
        let crashed = run(true);
        prop_assert_eq!(&clean, &crashed);
        prop_assert_eq!(clean.len(), 41);
    }

    /// Node crashes against a FIFO-pair workload: still bit-identical.
    #[test]
    fn node_crash_is_transparent_to_fifo_pairs(
        seed in 1u64..500,
        at_ms in 30u64..300,
    ) {
        let run = |crash: bool| {
            let mut reg = ProgramRegistry::new();
            programs::register_standard(&mut reg);
            reg.register("ping", move || {
                let mut p = programs::PingClient::new(30);
                p.think_ns = 1_000_000 + seed; // vary timing a little
                Box::new(p)
            });
            let mut w = WorldBuilder::new(2).registry(reg).build();
            let server = w.spawn(1, "echo", vec![]).unwrap();
            let client = w
                .spawn(0, "ping", vec![Link::to(server, Channel::DEFAULT, 7)])
                .unwrap();
            if crash {
                w.run_until(SimTime::from_millis(at_ms));
                w.crash_node(1);
            }
            w.run_until(SimTime::from_secs(20));
            w.outputs_of(client)
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// Multi-sender workload under arbitrary crashes: every process ends
    /// healthy, every recovery completes, and outputs are exactly-once
    /// and gap-free — the paper's guarantees that survive legal
    /// reordering of undelivered cross-sender traffic.
    #[test]
    fn crashes_preserve_exactly_once_and_liveness(
        seed in 1u64..500,
        node in 0u32..3,
        at_ms in 30u64..400,
        whole_node in any::<bool>(),
    ) {
        let mut w = chatter_world(seed);
        w.run_until(SimTime::from_millis(at_ms));
        if whole_node {
            w.crash_node(node);
        } else {
            w.crash_process(ProcessId::new(node, 1), "prop");
        }
        w.run_until(SimTime::from_secs(30));
        for p in [ProcessId::new(0, 1), ProcessId::new(1, 1), ProcessId::new(2, 1)] {
            let max_seq = w
                .outputs
                .iter()
                .filter(|o| o.pid == p)
                .map(|o| o.seq)
                .max()
                .unwrap_or(0);
            let deduped = w.outputs_of(p);
            // Dense: sequences 1..=max all present exactly once.
            prop_assert_eq!(deduped.len() as u64, max_seq, "gaps for {}", p);
            // Healthy: nobody is left crashed or mid-recovery.
            let proc = w.kernels[p.node.0 as usize].process(p.local).expect("alive");
            prop_assert!(
                matches!(
                    proc.run,
                    publishing::demos::process::RunState::Waiting
                        | publishing::demos::process::RunState::Ready
                ),
                "{} ended in {:?}",
                p,
                proc.run
            );
        }
        prop_assert!(!w.tier.manager().busy(), "recovery jobs left open");
    }
}

// ---------------------------------------------------------------------
// Substrate invariants
// ---------------------------------------------------------------------

fn arb_pid() -> impl Strategy<Value = ProcessId> {
    (0u32..8, 0u32..16).prop_map(|(n, l)| ProcessId::new(n, l))
}

fn arb_link() -> impl Strategy<Value = Link> {
    (arb_pid(), 0u8..64, any::<u32>(), any::<bool>()).prop_map(|(dest, ch, code, ctl)| Link {
        dest,
        code,
        channel: Channel(ch),
        deliver_to_kernel: ctl,
    })
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        arb_pid(),
        any::<u64>(),
        arb_pid(),
        any::<u32>(),
        0u8..64,
        any::<bool>(),
        proptest::option::of(arb_link()),
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(
            |(sender, seq, to, code, ch, ctl, passed_link, body)| Message {
                header: MessageHeader {
                    id: MessageId { sender, seq },
                    to,
                    code,
                    channel: Channel(ch),
                    deliver_to_kernel: ctl,
                },
                passed_link,
                body: body.into(),
            },
        )
}

proptest! {
    /// Messages survive the wire codec bit-exactly.
    #[test]
    fn message_codec_roundtrip(msg in arb_message()) {
        let buf = msg.encode_to_vec();
        prop_assert_eq!(Message::decode_all(&buf).unwrap(), msg);
    }

    /// Process images survive the checkpoint codec bit-exactly.
    #[test]
    fn process_image_roundtrip(
        name in "[a-z]{1,12}",
        state in proptest::collection::vec(any::<u8>(), 0..512),
        links in proptest::collection::vec(arb_link(), 0..8),
        mask in any::<u64>(),
        sent in any::<u64>(),
        read in any::<u64>(),
        outputs in any::<u64>(),
        seen in proptest::collection::btree_map(arb_pid(), any::<u64>(), 0..6),
    ) {
        let mut table = LinkTable::new();
        for l in links {
            table.insert(l);
        }
        let img = ProcessImage {
            program_name: name,
            program_state: state,
            links: table,
            recv_mask_bits: mask,
            sent_seq: sent,
            read_count: read,
            seen,
            outputs_emitted: outputs,
            cpu_since_checkpoint_ns: 7,
        };
        let buf = img.encode_to_vec();
        prop_assert_eq!(ProcessImage::decode_all(&buf).unwrap(), img);
    }

    /// Selective receive matches a reference model: it always returns the
    /// first queued message whose channel is in the mask (control
    /// messages match any mask), and reports a skip iff that message was
    /// not the head.
    #[test]
    fn selective_receive_matches_reference(
        channels in proptest::collection::vec((0u8..8, any::<bool>()), 1..20),
        mask_bits in any::<u64>(),
    ) {
        let mask = ChannelSet::from_bits(mask_bits | 1); // keep it nonempty-ish
        let mut q = MessageQueue::new();
        let mut model: Vec<(u64, u8, bool)> = Vec::new();
        for (i, (ch, ctl)) in channels.iter().enumerate() {
            let msg = Message {
                header: MessageHeader {
                    id: MessageId { sender: ProcessId::new(1, 1), seq: i as u64 + 1 },
                    to: ProcessId::new(2, 1),
                    code: 0,
                    channel: Channel(*ch),
                    deliver_to_kernel: *ctl,
                },
                passed_link: None,
                body: vec![].into(),
            };
            q.enqueue(msg);
            model.push((i as u64 + 1, *ch, *ctl));
        }
        // Drain both until the queue yields nothing.
        loop {
            let expected_pos =
                model.iter().position(|(_, ch, ctl)| *ctl || mask.contains(Channel(*ch)));
            let got = q.receive_for_process(mask);
            match (expected_pos, got) {
                (None, None) => break,
                (Some(pos), Some(read)) => {
                    let (seq, _, _) = model.remove(pos);
                    prop_assert_eq!(read.message.header.id.seq, seq);
                    prop_assert_eq!(read.skipped_head.is_some(), pos != 0);
                }
                (e, g) => prop_assert!(false, "model {e:?} vs queue {:?}", g.is_some()),
            }
        }
    }

    /// Russell's directional rule never loses more work than undirected
    /// recovery lines, on any history.
    #[test]
    fn rule2_never_worse_than_rule1(seed in any::<u64>(), crashed in 0usize..4) {
        let mut rng = DetRng::new(seed);
        let h = History::random(
            &mut rng,
            4,
            SimTime::from_secs(8),
            SimDuration::from_millis(120),
            SimDuration::from_millis(900),
        );
        let at = SimTime::from_secs(8);
        let l1 = recovery_line_rule1(&h, crashed, at);
        let l2 = recovery_line_rule2(&h, crashed, at);
        prop_assert!(l2.work_lost(at) <= l1.work_lost(at));
        // And every restart point is at or before the crash.
        for (r1, r2) in l1.restart_at.iter().zip(&l2.restart_at) {
            prop_assert!(*r1 <= at);
            prop_assert!(r2 >= r1);
        }
    }

    /// §6.6.2 node-as-unit recovery reproduces any node exactly from its
    /// extranode log alone.
    #[test]
    fn node_unit_replay_always_exact(seed in any::<u64>(), n in 2usize..6, events in 10usize..80) {
        let mut rng = DetRng::new(seed);
        let (live, log) = run_workload(n, seed, events, &mut rng);
        let recovered = NodeUnit::replay(n, seed, &log);
        prop_assert_eq!(recovered.state_digest(), live.state_digest());
        prop_assert_eq!(recovered.outputs, live.outputs);
    }
}
