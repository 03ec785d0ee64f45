//! Property tests for the sharded tier: HRW shard-map stability under
//! membership changes, the ownership snapshot against the shared map it
//! replaced (kept as `support/map_ref.rs`), and crash/recovery
//! output-equivalence for random crash schedules under random shard
//! counts.

#[allow(dead_code)]
#[path = "support/map_ref.rs"]
mod map_ref;

use map_ref::RefMap;
use proptest::prelude::*;
use publishing_core::WorldBuilder;
use publishing_demos::ids::{Channel, MessageId, NodeId, ProcessId};
use publishing_demos::link::Link;
use publishing_demos::message::{Message, MessageHeader};
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_demos::transport::Wire;
use publishing_net::frame::{Destination, Frame, StationId};
use publishing_net::lan::{Lan, LanAction, LanStats, RecorderRouter};
use publishing_net::PerfectBus;
use publishing_shard::{ShardId, ShardMap, ShardRouter, ShardTier};
use publishing_sim::codec::Encode;
use publishing_sim::fault::FaultPlan;
use publishing_sim::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

fn pid_set(raw: Vec<(u32, u32)>) -> Vec<ProcessId> {
    let set: BTreeSet<ProcessId> = raw
        .into_iter()
        .map(|(n, l)| ProcessId::new(n % 16, l % 4096 + 1))
        .collect();
    set.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Adding one shard moves only the pids the new shard claims — every
    /// moved pid's new owner is the added shard — and the number moved
    /// stays within the rendezvous bound of at most ⌈|P|/N⌉ pids (the
    /// expected share is |P|/(N+1); the assertion allows the usual
    /// concentration slack on top of the ceiling).
    #[test]
    fn adding_a_shard_is_minimally_disruptive(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 150..400),
        n in 2u32..8,
    ) {
        let pids = pid_set(raw);
        let before = ShardMap::new(n);
        let mut after = before.clone();
        after.add_shard(ShardId(n));
        let mut moved = 0usize;
        for &p in &pids {
            let old = before.owner(p).unwrap();
            let new = after.owner(p).unwrap();
            if new != old {
                prop_assert_eq!(new, ShardId(n), "a moved pid must move to the new shard");
                moved += 1;
            }
        }
        // moved ~ Binomial(|P|, 1/(N+1)): mean |P|/(N+1), plus three
        // standard deviations of slack so the bound is a real invariant
        // rather than a coin-flip on the drawn pid set.
        let expected = pids.len() as f64 / (n as f64 + 1.0);
        let bound = pids.len().div_ceil(n as usize) + (3.0 * expected.sqrt()).ceil() as usize;
        prop_assert!(
            moved <= bound,
            "moved {} of {} pids with {} shards (bound {})",
            moved, pids.len(), n, bound
        );
    }

    /// Removing one shard moves exactly the pids that shard owned —
    /// nothing else is disturbed — and their new owners are their
    /// next-ranked shards.
    #[test]
    fn removing_a_shard_moves_exactly_its_pids(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 150..400),
        n in 3u32..9,
        victim in any::<u32>(),
    ) {
        let pids = pid_set(raw);
        let victim = ShardId(victim % n);
        let before = ShardMap::new(n);
        let mut after = before.clone();
        after.remove_shard(victim);
        for &p in &pids {
            let old = before.owner(p).unwrap();
            let new = after.owner(p).unwrap();
            if old == victim {
                prop_assert_eq!(new, before.ranked(p)[1], "falls to the next-ranked shard");
            } else {
                prop_assert_eq!(new, old, "an unaffected pid must not move");
            }
        }
    }

    /// Liveness changes never alter log placement: `owner` is a pure
    /// function of membership, so a failover (dead shard) followed by a
    /// readmission restores exactly the original placement.
    #[test]
    fn failover_and_readmission_restore_placement(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 50..150),
        n in 2u32..8,
        victim in any::<u32>(),
    ) {
        let pids = pid_set(raw);
        let victim = ShardId(victim % n);
        let mut m = ShardMap::new(n);
        let placement: Vec<ShardId> = pids.iter().map(|&p| m.owner(p).unwrap()).collect();
        m.set_live(victim, false);
        for (&p, &was) in pids.iter().zip(&placement) {
            prop_assert_eq!(m.owner(p).unwrap(), was, "owner ignores liveness");
            let resp = m.responsible(p).unwrap();
            prop_assert!(resp != victim, "a dead shard is never responsible");
            if was != victim {
                prop_assert_eq!(resp, was, "live owners keep responsibility");
            }
        }
        m.set_live(victim, true);
        for (&p, &was) in pids.iter().zip(&placement) {
            prop_assert_eq!(m.responsible(p).unwrap(), was);
        }
    }

    /// The allocation-free ownership predicate answers exactly what the
    /// sorted capture set does, for every shard asking — live members,
    /// dead-but-member shards (which count themselves) and non-members —
    /// over random memberships, liveness, replication and pids.
    #[test]
    fn captures_equals_membership_in_own_capture_set(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 20..60),
        n in 1u32..9,
        removed in proptest::collection::vec(any::<u32>(), 0..3),
        dead in proptest::collection::vec(any::<u32>(), 0..4),
        r in 0usize..5,
    ) {
        let mut m = ShardMap::new(n);
        for s in removed {
            m.remove_shard(ShardId(s % n));
        }
        for s in dead {
            m.set_live(ShardId(s % n), false);
        }
        for p in pid_set(raw) {
            // 0..=n: every former and current member, plus one id that
            // never was one.
            for shard in (0..=n).map(ShardId) {
                prop_assert_eq!(
                    m.captures(shard, p, r),
                    m.capture_set_for(shard, p, r).contains(&shard),
                    "{:?} for {:?}, r {}, map {:?}",
                    shard, p, r, m
                );
            }
        }
    }
}

/// Every answer `map` and its snapshot give for `pids` equals the
/// reference's: the seven queries, and for every member (a dead one
/// counting itself) and one id that never was one, the recorder's
/// filter and the stations the medium requires.
fn assert_matches_reference(map: &ShardMap, reference: &RefMap, r: usize, pids: &[ProcessId]) {
    let station = |s: ShardId| StationId(100 + s.0);
    let snapshot = Arc::new(ShardRouter::new(map, r, station));
    let router = snapshot.recorder_router();
    let shards: Vec<ShardId> = (0..12).map(ShardId).collect();
    let filters: Vec<_> = shards.iter().map(|&s| snapshot.owner_filter(s)).collect();
    assert_eq!(map.members(), reference.members());
    assert_eq!(
        map.live().collect::<Vec<_>>(),
        reference.live().collect::<Vec<_>>()
    );
    for &p in pids {
        let at = format!("{p:?}, r {r}, {reference:?}");
        assert_eq!(map.ranked(p), reference.ranked(p), "{at}");
        assert_eq!(map.owner(p), reference.owner(p), "{at}");
        assert_eq!(map.responsible(p), reference.responsible(p), "{at}");
        assert_eq!(map.capture_set(p, r), reference.capture_set(p, r), "{at}");
        let order: Vec<ShardId> = reference.capture_order(p, r).collect();
        assert_eq!(map.capture_order(p, r).collect::<Vec<_>>(), order, "{at}");
        let mut want: Vec<StationId> = order.into_iter().map(station).collect();
        if want.is_empty() {
            want = reference.members().into_iter().map(station).collect();
        }
        let mut required = Vec::new();
        assert!(router(&data_frame(p, 1), &mut required));
        assert_eq!(required, want, "{at}");
        for (&s, filter) in shards.iter().zip(&filters) {
            let captures = reference.captures(s, p, r);
            assert_eq!(filter(p), captures, "{s} {at}");
            assert_eq!(map.captures(s, p, r), captures, "{s} {at}");
            let set_for = reference.capture_set_for(s, p, r);
            assert_eq!(map.capture_set_for(s, p, r), set_for, "{s} {at}");
        }
    }
}

/// A data frame from node 0 to `to`, addressed to no station: every
/// recorder overhears it, no kernel takes it.
fn data_frame(to: ProcessId, seq: u64) -> Frame {
    let sender = ProcessId::new(0, 9_999);
    let msg = Message {
        header: MessageHeader {
            id: MessageId { sender, seq },
            to,
            code: 0,
            channel: Channel::DEFAULT,
            deliver_to_kernel: false,
        },
        passed_link: None,
        body: vec![7; 16].into(),
    };
    let wire = Wire::Data {
        src_node: NodeId(0),
        incarnation: 0,
        peer_epoch: 0,
        tseq: seq,
        msg,
    };
    let nobody = Destination::Station(StationId(999));
    Frame::new(StationId(0), nobody, wire.encode_to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The snapshot a cutover installs answers every question exactly as
    /// the shared map it replaced did, and so do the map's own queries,
    /// after every step of a random history of adds, removes (of members
    /// and of ids that never were) and liveness flips, for R in 1..=3.
    #[test]
    fn snapshot_answers_as_the_map_it_replaces(
        n in 1u32..7,
        ops in proptest::collection::vec((0u8..3, any::<u32>()), 0..12),
        r in 1usize..=3,
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 8..24),
    ) {
        let pids = pid_set(raw);
        let (mut map, mut reference) = (ShardMap::new(n), RefMap::new(n));
        assert_matches_reference(&map, &reference, r, &pids);
        for (op, s) in ops {
            let s = ShardId(s % (n + 3));
            match op {
                0 => prop_assert_eq!(map.add_shard(s), reference.add_shard(s)),
                1 => prop_assert_eq!(map.remove_shard(s), reference.remove_shard(s)),
                _ => {
                    let live = !reference.is_live(s);
                    map.set_live(s, live);
                    reference.set_live(s, live);
                }
            }
            prop_assert_eq!(map.epoch(), reference.epoch());
            assert_matches_reference(&map, &reference, r, &pids);
        }
    }
}

/// Each frame submitted, with the stations its router required then.
type RequiredLog = Rc<RefCell<Vec<(Frame, Vec<StationId>)>>>;

/// A perfect bus that also tells what its installed router required of
/// each frame when the frame was submitted.
struct RequiredTap {
    bus: PerfectBus,
    router: Option<RecorderRouter>,
    required: RequiredLog,
}

impl Lan for RequiredTap {
    fn attach(&mut self, station: StationId) {
        self.bus.attach(station);
    }

    fn set_station_up(&mut self, station: StationId, up: bool) {
        self.bus.set_station_up(station, up);
    }

    fn set_required_recorders(&mut self, recorders: Vec<StationId>) {
        self.bus.set_required_recorders(recorders);
    }

    fn set_recorder_router(&mut self, router: Option<RecorderRouter>) {
        self.router.clone_from(&router);
        self.bus.set_recorder_router(router);
    }

    fn set_faults(&mut self, faults: FaultPlan) {
        self.bus.set_faults(faults);
    }

    fn submit_into(&mut self, now: SimTime, frame: Frame, out: &mut Vec<LanAction>) {
        let mut required = Vec::new();
        if let Some(route) = &self.router {
            route(&frame, &mut required);
        }
        self.required.borrow_mut().push((frame.clone(), required));
        self.bus.submit_into(now, frame, out);
    }

    fn timer_into(&mut self, now: SimTime, token: u64, out: &mut Vec<LanAction>) {
        self.bus.timer_into(now, token, out);
    }

    fn stats(&self) -> &LanStats {
        self.bus.stats()
    }
}

/// A shard of a pid's capture set crashes while a data frame for the
/// pid is on the bus. The frame keeps the required set the medium fixed
/// at its submission — the crashed shard's station among them — and
/// each recorder judges it by ownership as of its delivery: the shard
/// that took the crashed one's place records it, though no one waited
/// for its acknowledgement.
#[test]
fn a_frame_in_flight_keeps_its_required_set_and_lands_by_current_ownership() {
    let required = RequiredLog::default();
    let tap = RequiredTap {
        bus: PerfectBus::new(Default::default()),
        router: None,
        required: required.clone(),
    };
    let mut w = ShardTier::world(WorldBuilder::new(2).medium(Box::new(tap)), 3);
    w.run_until(SimTime::from_millis(10));
    // A pid whose capture set leaves out shard 2, so that crashing a
    // member of it brings shard 2 in.
    let pid = (1..)
        .map(|l| ProcessId::new(1, l))
        .find(|&p| !w.tier.map().capture_set(p, 2).contains(&ShardId(2)))
        .unwrap();
    let before = w.tier.map().capture_set(pid, 2);
    let crashed = before[0];
    let station = |s: ShardId| w.tier.shards[s.0 as usize].station();
    let before_stations: Vec<StationId> = before.iter().map(|&s| station(s)).collect();

    let frame = data_frame(pid, 1);
    let id = MessageId {
        sender: ProcessId::new(0, 9_999),
        seq: 1,
    };
    w.submit(w.now(), frame.clone());
    w.crash_member(crashed.0 as usize);
    let after = w.tier.map().capture_set(pid, 2);
    assert_eq!(after, vec![before[1], ShardId(2)], "shard 2 stands in");
    w.run_until(w.now() + SimDuration::from_millis(5));

    let log = required.borrow();
    let at_submit = log.iter().find(|(f, _)| *f == frame).map(|(_, r)| r);
    assert_eq!(at_submit, Some(&before_stations), "fixed at submission");
    for s in 0..3u32 {
        let captured = w.tier.shards[s as usize]
            .recorder()
            .pending_message(id)
            .is_some();
        let owns = ShardId(s) != crashed;
        assert_eq!(captured, owns, "shard{s}: capture set now {after:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The paper's equivalence theorem holds under sharding: for a
    /// FIFO-pair workload with a random crash schedule — a process crash
    /// at a random time, optionally followed by killing the shard that
    /// is driving the recovery — the recovered run's external output is
    /// bit-identical to the crash-free run's, for any shard count.
    #[test]
    fn crash_recovery_is_output_equivalent_under_sharding(
        n_shards in 1usize..5,
        crash_at_ms in 5u64..120,
        crash_client in any::<bool>(),
        kill_responsible_shard in any::<bool>(),
    ) {
        let run = |crash: bool| -> u64 {
            let mut reg = ProgramRegistry::new();
            programs::register_standard(&mut reg);
            reg.register("slowping", || {
                let mut p = PingClient::new(20);
                p.think_ns = 3_000_000;
                Box::new(p)
            });
            let mut w = ShardTier::world(WorldBuilder::new(2).registry(reg), n_shards);
            let server = w.spawn(1, "echo", vec![]).unwrap();
            let client = w
                .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
                .unwrap();
            if crash {
                w.run_until(SimTime::from_millis(crash_at_ms));
                let victim = if crash_client { client } else { server };
                w.crash_process(victim, "injected");
                // Killing the responsible shard needs a surviving backup.
                if kill_responsible_shard && n_shards >= 2 {
                    let resp = w.tier.map().responsible(victim).unwrap();
                    w.run_until(SimTime::from_millis(crash_at_ms + 2));
                    w.crash_member(resp.0 as usize);
                }
            }
            w.run_until(SimTime::from_secs(60));
            let out = w.outputs_of(client);
            assert_eq!(out.len(), 21, "{out:?}");
            assert_eq!(out.last().unwrap(), "done");
            w.output_fingerprint()
        };
        prop_assert_eq!(run(false), run(true));
    }
}
