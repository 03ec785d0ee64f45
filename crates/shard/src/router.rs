//! Frame-level shard routing.
//!
//! The medium gates every process-destined frame on its recorder ack
//! slot (§6.1). Under sharding, the slot is owned not by one global
//! recorder set but by the destination pid's *capture set* — the top-R
//! live shards in HRW order. [`ShardRouter`] packages the shared
//! [`ShardMap`] plus the shard↔station directory into the closures the
//! rest of the system needs:
//!
//! - a [`RecorderRouter`] installed on the LAN, which reads each
//!   frame's destination pid in place ([`Wire::peek_dst`]) and returns
//!   the stations whose acknowledgement the frame must collect;
//! - per-shard ownership filters for [`publishing_core::recorder::Recorder`]
//!   ("do I record this pid?"). Who drives a pid's recovery is not a
//!   filter: it is the tier's `authority`, [`ShardMap::responsible`].
//!
//! Kernel-to-kernel control traffic and datagrams are deliberately
//! ungated: recovery traffic must flow even while a shard is down, and
//! the publish-before-use rule (§4.4.1) protects *process* messages.

use crate::map::{ShardId, ShardMap};
use publishing_core::recorder::PidFilter;
use publishing_demos::ids::ProcessId;
use publishing_demos::transport::Wire;
use publishing_net::frame::{Frame, StationId};
use publishing_net::lan::RecorderRouter;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// The shared routing state of a sharded recorder tier. Cheap to clone;
/// all clones observe the same map (cutovers are a single epoch-bumping
/// write that every installed closure sees immediately).
#[derive(Clone)]
pub struct ShardRouter {
    map: Arc<RwLock<ShardMap>>,
    stations: Arc<RwLock<BTreeMap<ShardId, StationId>>>,
    replication: usize,
}

impl ShardRouter {
    /// Wraps `map` with replication factor `replication` (the R of the
    /// capture set; clamped to at least 1).
    pub fn new(map: ShardMap, replication: usize) -> Self {
        ShardRouter {
            map: Arc::new(RwLock::new(map)),
            stations: Arc::new(RwLock::new(BTreeMap::new())),
            replication: replication.max(1),
        }
    }

    /// The replication factor R.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Registers the station a shard's recorder listens on.
    pub fn register(&self, shard: ShardId, station: StationId) {
        self.stations
            .write()
            .expect("station directory lock")
            .insert(shard, station);
    }

    /// Reads the map under the lock.
    pub fn with_map<R>(&self, f: impl FnOnce(&ShardMap) -> R) -> R {
        f(&self.map.read().expect("shard map lock"))
    }

    /// Mutates the map under the lock (membership changes, liveness).
    /// Every installed router/filter closure sees the change on its next
    /// evaluation — this *is* the cutover swap.
    pub fn with_map_mut<R>(&self, f: impl FnOnce(&mut ShardMap) -> R) -> R {
        f(&mut self.map.write().expect("shard map lock"))
    }

    /// Appends the stations that must acknowledge a frame destined to
    /// `pid` to `out`.
    ///
    /// With no live shard at all, every *member* station is required:
    /// none can answer, so process traffic suspends until a shard
    /// returns — §3.3.4's recorder-down behaviour. Returning the empty
    /// set instead would let messages flow unrecorded, breaking the
    /// publish-before-use rule.
    ///
    /// Answered from the map in place, into a buffer the medium owns:
    /// nothing is built.
    pub fn required_into(&self, pid: ProcessId, out: &mut Vec<StationId>) {
        let dir = self.stations.read().expect("station directory lock");
        self.with_map(|m| {
            let mut any_live = false;
            for s in m.capture_order(pid, self.replication) {
                any_live = true;
                out.extend(dir.get(&s));
            }
            if !any_live {
                out.extend(m.members().iter().filter_map(|s| dir.get(s)));
            }
        })
    }

    /// Builds the per-frame required-recorder closure for the medium.
    pub fn recorder_router(&self) -> RecorderRouter {
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
    /// recording its pids during catch-up.
    pub fn owner_filter(&self, shard: ShardId) -> PidFilter {
        let this = self.clone();
        Arc::new(move |pid: ProcessId| this.with_map(|m| m.captures(shard, pid, this.replication)))
    }
}

impl core::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.with_map(|m| {
            f.debug_struct("ShardRouter")
                .field("epoch", &m.epoch())
                .field("members", &m.len())
                .field("live", &m.live().count())
                .field("replication", &self.replication)
                .finish()
        })
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
    fn route(r: &ShardRouter, frame: &Frame) -> Option<Vec<StationId>> {
        let mut out = Vec::new();
        r.recorder_router()(frame, &mut out).then_some(out)
    }

    fn router(n: u32) -> ShardRouter {
        let r = ShardRouter::new(ShardMap::new(n), 2);
        for i in 0..n {
            r.register(ShardId(i), StationId(100 + i));
        }
        r
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
        let r = router(4);
        let pid = ProcessId::new(2, 7);
        let req = route(&r, &data_frame(pid)).expect("routed");
        let want: Vec<StationId> = r.with_map(|m| {
            m.capture_set(pid, 2)
                .iter()
                .map(|s| StationId(100 + s.0))
                .collect()
        });
        assert_eq!(req.len(), 2);
        assert_eq!(req, want);
    }

    #[test]
    fn kernel_frames_and_garbage_are_not_shard_gated() {
        let r = router(3);
        let kernel = data_frame(ProcessId::kernel_of(NodeId(2)));
        assert_eq!(route(&r, &kernel), Some(Vec::new()));
        let garbage = Frame::new(StationId(1), Destination::Broadcast, vec![0xFF, 0xFF]);
        assert_eq!(route(&r, &garbage), None, "falls back to the global set");
    }

    #[test]
    fn cutover_changes_routing_through_installed_closures() {
        let r = router(2);
        let pid = ProcessId::new(3, 5);
        let installed = r.recorder_router();
        let routed = |frame: &Frame| {
            let mut out = Vec::new();
            assert!(installed(frame, &mut out));
            out
        };
        let before = routed(&data_frame(pid));
        r.register(ShardId(2), StationId(102));
        r.with_map_mut(|m| m.add_shard(ShardId(2)));
        let after = routed(&data_frame(pid));
        let want: Vec<StationId> = r.with_map(|m| {
            m.capture_set(pid, 2)
                .iter()
                .map(|s| StationId(100 + s.0))
                .collect()
        });
        assert_eq!(after, want);
        // With only two shards before, both were required; the third
        // shard can displace one of them.
        assert_eq!(before.len(), 2);
    }

    #[test]
    fn ownership_covers_responsibility() {
        let r = router(3);
        let owners: Vec<PidFilter> = (0..3).map(|i| r.owner_filter(ShardId(i))).collect();
        let mut owned0 = 0;
        for l in 1..=60u32 {
            let pid = ProcessId::new(l % 5, l);
            // The responsible shard records the pid.
            let resp = r.with_map(|m| m.responsible(pid)).expect("a live shard");
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
        let r = router(2);
        let pid = ProcessId::new(2, 7);
        r.with_map_mut(|m| {
            m.set_live(ShardId(0), false);
            m.set_live(ShardId(1), false);
        });
        let req = route(&r, &data_frame(pid)).expect("routed");
        assert_eq!(req, vec![StationId(100), StationId(101)]);
    }

    #[test]
    fn responsibility_follows_liveness() {
        let r = router(3);
        let kernel = ProcessId::kernel_of(NodeId(4));
        let first = r.with_map(|m| m.responsible(kernel)).unwrap();
        r.with_map_mut(|m| m.set_live(first, false));
        let backup = r.with_map(|m| m.responsible(kernel)).unwrap();
        assert_ne!(first, backup);
    }
}
