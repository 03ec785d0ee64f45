//! Frame-level shard routing.
//!
//! The medium gates every process-destined frame on its recorder ack
//! slot (§6.1). Under sharding, the slot is owned not by one global
//! recorder set but by the destination pid's *capture set* — the top-R
//! live shards in HRW order. A [`ShardRouter`] is who captures each pid
//! as of one cutover — the [`ShardMap`] then, its shards' stations and
//! R — and never changes: the tier installs a new one at world build and
//! at every cutover (every membership or liveness change), as
//!
//! - a [`RecorderRouter`] on the LAN, which reads each frame's
//!   destination pid in place ([`Wire::peek_dst`]) and returns the
//!   stations whose acknowledgement the frame must collect;
//! - per-shard ownership filters for [`publishing_core::recorder::Recorder`]
//!   ("do I record this pid?"). Who drives a pid's recovery is not a
//!   filter: it is the tier's `authority`, [`ShardMap::responsible`].
//!
//! So a question takes no lock and builds nothing, and is answered as of
//! the instant it is asked: the medium fixes a frame's required set at
//! submission (bus) or transmission start (Ethernet), a recorder judges
//! ownership at delivery.
//!
//! Kernel-to-kernel control traffic and datagrams are deliberately
//! ungated: recovery traffic must flow even while a shard is down, and
//! the publish-before-use rule (§4.4.1) protects *process* messages.

use crate::map::{ShardId, ShardMap, MAX_REPLICATION};
use publishing_core::recorder::PidFilter;
use publishing_demos::ids::ProcessId;
use publishing_demos::transport::Wire;
use publishing_net::frame::{Frame, StationId};
use publishing_net::lan::RecorderRouter;
use std::sync::Arc;

/// The routing state of a sharded recorder tier as of one cutover.
#[derive(Debug)]
pub struct ShardRouter {
    map: ShardMap,
    /// Each member's station, in the map's (id) order.
    stations: Vec<StationId>,
    replication: usize,
}

impl ShardRouter {
    /// A snapshot of `map`, shard `s` listening on `station(s)`, with
    /// replication factor `replication` (the R of the capture set;
    /// clamped to at least 1, and at most [`MAX_REPLICATION`]).
    pub fn new(map: &ShardMap, replication: usize, station: impl Fn(ShardId) -> StationId) -> Self {
        let replication = replication.max(1);
        assert!(
            replication <= MAX_REPLICATION,
            "R = {replication} > {MAX_REPLICATION}"
        );
        let stations = map.members().into_iter().map(station).collect();
        ShardRouter {
            map: map.clone(),
            stations,
            replication,
        }
    }

    /// The replication factor R.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Appends the stations that must acknowledge a frame destined to
    /// `pid` to `out`: those of its capture set, best first.
    ///
    /// With no live shard at all, every *member* station is required:
    /// none can answer, so process traffic suspends until a shard
    /// returns — §3.3.4's recorder-down behaviour. Returning the empty
    /// set instead would let messages flow unrecorded, breaking the
    /// publish-before-use rule.
    pub fn required_into(&self, pid: ProcessId, out: &mut Vec<StationId>) {
        let start = out.len();
        let stations = &self.stations;
        self.map
            .top_live(pid, self.replication, |i| out.push(stations[i]));
        if out.len() == start {
            out.extend(&self.stations);
        }
    }

    /// Builds the per-frame required-recorder closure for the medium.
    pub fn recorder_router(self: &Arc<Self>) -> RecorderRouter {
        let this = self.clone();
        Arc::new(move |frame: &Frame, out: &mut Vec<StationId>| {
            // Read in place: the destination, nothing decoded.
            match Wire::peek_dst(frame.payload()) {
                // Control traffic (including recovery) is never gated on
                // a shard: it must flow while shards are down.
                Ok(Some(dst)) if !dst.is_kernel() => this.required_into(dst, out),
                // Kernel control, datagrams, epoch notices, and quorum
                // consensus traffic are ungated.
                Ok(_) => {}
                // Not transport traffic: fall back to the global set.
                Err(_) => return false,
            }
            true
        })
    }

    /// The ownership filter for `shard`'s recorder: record a pid iff the
    /// shard sits in the pid's capture set — evaluated with the shard
    /// itself counted even while marked dead, so a restarted shard keeps
    /// recording its pids during catch-up. A shard that is not a member
    /// records nothing.
    pub fn owner_filter(self: &Arc<Self>, shard: ShardId) -> PidFilter {
        let (this, at) = (self.clone(), self.map.position(shard));
        Arc::new(move |pid| at.is_some_and(|at| this.map.captures_at(at, pid, this.replication)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use publishing_demos::ids::{Channel, MessageId, NodeId};
    use publishing_demos::message::{Message, MessageHeader};
    use publishing_net::frame::Destination;
    use publishing_sim::codec::Encode;

    /// What the installed closure answers for `frame`: `None` = the
    /// global set.
    fn route(r: &Arc<ShardRouter>, frame: &Frame) -> Option<Vec<StationId>> {
        let mut out = Vec::new();
        r.recorder_router()(frame, &mut out).then_some(out)
    }

    /// The snapshot of `map` with R = 2, shard `i` on station `100 + i`.
    fn router(map: &ShardMap) -> Arc<ShardRouter> {
        Arc::new(ShardRouter::new(map, 2, |s| StationId(100 + s.0)))
    }

    fn stations(shards: Vec<ShardId>) -> Vec<StationId> {
        shards.iter().map(|s| StationId(100 + s.0)).collect()
    }

    fn data_frame(to: ProcessId) -> Frame {
        let msg = Message {
            header: MessageHeader {
                id: MessageId {
                    sender: ProcessId::new(1, 1),
                    seq: 1,
                },
                to,
                code: 0,
                channel: Channel(0),
                deliver_to_kernel: false,
            },
            passed_link: None,
            body: vec![1, 2, 3].into(),
        };
        let wire = Wire::Data {
            src_node: NodeId(1),
            incarnation: 0,
            peer_epoch: 0,
            tseq: 1,
            msg,
        };
        Frame::new(StationId(1), Destination::Broadcast, wire.encode_to_vec())
    }

    #[test]
    fn process_frames_gate_on_capture_set_stations() {
        let map = ShardMap::new(4);
        let pid = ProcessId::new(2, 7);
        let req = route(&router(&map), &data_frame(pid)).expect("routed");
        assert_eq!(req.len(), 2);
        assert_eq!(req, stations(map.capture_set(pid, 2)));
    }

    #[test]
    fn kernel_frames_and_garbage_are_not_shard_gated() {
        let r = router(&ShardMap::new(3));
        let kernel = data_frame(ProcessId::kernel_of(NodeId(2)));
        assert_eq!(route(&r, &kernel), Some(Vec::new()));
        let garbage = Frame::new(StationId(1), Destination::Broadcast, vec![0xFF, 0xFF]);
        assert_eq!(route(&r, &garbage), None, "falls back to the global set");
    }

    #[test]
    fn a_snapshot_keeps_answering_for_the_map_it_was_taken_of() {
        let mut map = ShardMap::new(2);
        let pid = ProcessId::new(3, 5);
        let (before, was) = (router(&map), stations(map.capture_set(pid, 2)));
        map.add_shard(ShardId(2));
        let after = router(&map);
        // With only two shards before, both were required; the third
        // shard can displace one of them — in the new snapshot only.
        let old = route(&before, &data_frame(pid)).expect("routed");
        assert_eq!((old.len(), old), (2, was));
        let new = route(&after, &data_frame(pid)).expect("routed");
        assert_eq!(new, stations(map.capture_set(pid, 2)));
        assert!(!before.owner_filter(ShardId(2))(pid), "not a member then");
    }

    #[test]
    fn ownership_covers_responsibility() {
        let map = ShardMap::new(3);
        let r = router(&map);
        let owners: Vec<PidFilter> = (0..3).map(|i| r.owner_filter(ShardId(i))).collect();
        let mut owned0 = 0;
        for l in 1..=60u32 {
            let pid = ProcessId::new(l % 5, l);
            // The responsible shard records the pid.
            let resp = map.responsible(pid).expect("a live shard");
            assert!(owners[resp.0 as usize](pid));
            if owners[0](pid) {
                owned0 += 1;
            }
        }
        // R=2 of 3 shards: shard 0 captures roughly 2/3 of pids.
        assert!(owned0 > 20 && owned0 < 60, "owned {owned0}/60");
    }

    #[test]
    fn no_live_shard_suspends_traffic_instead_of_ungating() {
        // §3.3.4: recorder down ⇒ traffic stops. With every shard dead,
        // process frames must be gated on (unanswerable) stations, not
        // waved through unrecorded.
        let mut map = ShardMap::new(2);
        map.set_live(ShardId(0), false);
        map.set_live(ShardId(1), false);
        let pid = ProcessId::new(2, 7);
        let req = route(&router(&map), &data_frame(pid)).expect("routed");
        assert_eq!(req, vec![StationId(100), StationId(101)]);
    }
}
