//! A token ring with the §6.1.2 recorder acknowledge field.
//!
//! One token circulates; a station with traffic seizes it and inserts its
//! frame, which travels hop by hop around the ring and is stripped by the
//! sender. Publishing adds an *acknowledge field*: stations ignore frames
//! whose ack field is empty; the recorder fills the field as the frame
//! passes it (reading the frame at the same moment), and if the recorder
//! received the frame incorrectly it complements the checksum, so no
//! station downstream can use it either. A frame whose destination sits
//! upstream of the recorder is allowed one extra revolution so the
//! destination sees it with the field filled.

use crate::frame::{Frame, StationId};
use crate::lan::{Lan, LanAction, LanConfig, LanStats, RecorderRouter};
use publishing_sim::fault::FaultPlan;
use publishing_sim::rng::DetRng;
use publishing_sim::table::TokenTable;
use publishing_sim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// A slotted token ring medium.
pub struct TokenRing {
    cfg: LanConfig,
    /// Per-hop latency (link propagation plus station repeat delay).
    hop_latency: SimDuration,
    /// Stations in ring order.
    order: Vec<StationId>,
    up: BTreeMap<StationId, bool>,
    backlog: BTreeMap<StationId, VecDeque<Frame>>,
    recorders: Vec<StationId>,
    router: Option<RecorderRouter>,
    /// Ring-order index of the station currently holding the token.
    token_at: usize,
    /// `true` while a frame is circulating.
    circulating: bool,
    /// The strip timer of the frame on the ring, by its token.
    timers: TokenTable<()>,
    faults: FaultPlan,
    rng: DetRng,
    stats: LanStats,
}

impl TokenRing {
    /// Creates a ring with the given per-hop latency; stations join in
    /// [`Lan::attach`] order.
    pub fn new(cfg: LanConfig, hop_latency: SimDuration) -> Self {
        let rng = DetRng::new(cfg.seed ^ 0x7013);
        TokenRing {
            cfg,
            hop_latency,
            order: Vec::new(),
            up: BTreeMap::new(),
            backlog: BTreeMap::new(),
            recorders: Vec::new(),
            router: None,
            token_at: 0,
            circulating: false,
            timers: TokenTable::new(),
            faults: FaultPlan::new(),
            rng,
            stats: LanStats::default(),
        }
    }

    fn is_up(&self, st: StationId) -> bool {
        self.up.get(&st).copied().unwrap_or(false)
    }

    fn ring_index(&self, st: StationId) -> Option<usize> {
        self.order.iter().position(|&s| s == st)
    }

    /// Walks a frame around the ring from its source, producing deliveries
    /// and the strip time. Returns `(actions, strip_time)`.
    fn circulate(&mut self, start: SimTime, frame: Frame) -> (Vec<LanAction>, SimTime) {
        let n = self.order.len();
        let src_idx = self.ring_index(frame.src).expect("sender attached");
        let serialization = self.cfg.frame_time(frame.wire_bytes());
        // The recorders this frame must pass: routed per frame in a
        // sharded tier, otherwise the global set. The ack field starts
        // empty; publishing mode is on iff any recorder is required, and
        // the field fills once every required recorder has read the
        // frame (a recorder that *sent* it trivially has it).
        let mut routed = Vec::new();
        let required = match &self.router {
            Some(route) if route(&frame, &mut routed) => &routed,
            _ => &self.recorders,
        };
        let publishing = !required.is_empty();
        let mut captured: Vec<StationId> = required
            .iter()
            .copied()
            .filter(|&r| r == frame.src)
            .collect();
        let mut ack_filled = !publishing || captured.len() == required.len();
        let mut on_wire = frame.clone();
        let mut actions = Vec::new();
        let mut delivered: Vec<StationId> = Vec::new();
        let mut hops_taken = 0u64;
        let max_revs = if publishing { 2 } else { 1 };

        'revs: for _rev in 0..max_revs {
            for k in 1..=n {
                let idx = (src_idx + k) % n;
                let st = self.order[idx];
                hops_taken += 1;
                let t = start + serialization + self.hop_latency.saturating_mul(hops_taken);
                if idx == src_idx {
                    // Back at the sender. A self-addressed frame (published
                    // intranode message, §4.4.1) is copied here once the
                    // ack field is filled.
                    if frame.dst == crate::frame::Destination::Station(frame.src)
                        && ack_filled
                        && on_wire.is_intact()
                        && !delivered.contains(&frame.src)
                        && self.is_up(frame.src)
                    {
                        delivered.push(frame.src);
                        self.stats.delivered.inc();
                        actions.push(LanAction::Deliver {
                            at: t,
                            to: frame.src,
                            frame: on_wire.clone(),
                            recorder_ok: true,
                        });
                    }
                    // Strip unless another revolution is warranted (ack
                    // filled but a destination not yet served).
                    let dst_pending = on_wire.is_intact()
                        && ack_filled
                        && self.order.iter().any(|&s| {
                            s != frame.src
                                && self.is_up(s)
                                && frame.dst.accepts(s)
                                && !delivered.contains(&s)
                        });
                    if dst_pending {
                        continue;
                    }
                    break 'revs;
                }
                if !self.is_up(st) {
                    // A down station merely repeats the signal.
                    continue;
                }
                if publishing && !ack_filled && required.contains(&st) && !captured.contains(&st) {
                    // A required recorder reads the frame as it passes;
                    // once the last of them has it, the ack field fills.
                    // A receive error complements the checksum (§6.1.2)
                    // so no station downstream can use the frame.
                    let bad = self.faults.roll_loss(&mut self.rng)
                        || self.faults.roll_corruption(&mut self.rng);
                    if bad {
                        on_wire.invalidate_fcs();
                        self.stats.recorder_blocked.inc();
                    } else {
                        captured.push(st);
                        ack_filled = captured.len() == required.len();
                        self.stats.delivered.inc();
                        delivered.push(st);
                        actions.push(LanAction::Deliver {
                            at: t,
                            to: st,
                            frame: on_wire.clone(),
                            recorder_ok: true,
                        });
                    }
                    continue;
                }
                let wants = frame.dst.accepts(st) && st != frame.src;
                if wants && ack_filled && on_wire.is_intact() && !delivered.contains(&st) {
                    // Per-receiver copy fault: a station may still fail to
                    // copy the frame as it passes.
                    if self.faults.roll_loss(&mut self.rng) {
                        self.stats.lost.inc();
                        continue;
                    }
                    delivered.push(st);
                    self.stats.delivered.inc();
                    actions.push(LanAction::Deliver {
                        at: t,
                        to: st,
                        frame: on_wire.clone(),
                        recorder_ok: true,
                    });
                    if self.faults.roll_duplication(&mut self.rng) {
                        // The copy sticks: the station reads the frame again
                        // on a spurious second revolution, one ring pass
                        // later (never at the same instant).
                        let gap = serialization.max(SimDuration::from_nanos(1));
                        self.stats.duplicated.inc();
                        self.stats.delivered.inc();
                        actions.push(LanAction::Deliver {
                            at: t + gap,
                            to: st,
                            frame: on_wire.clone(),
                            recorder_ok: true,
                        });
                    }
                }
            }
        }
        let strip = start + serialization + self.hop_latency.saturating_mul(hops_taken);
        (actions, strip)
    }

    /// Starts the next pending frame, if any, rotating the token fairly.
    fn start_next(&mut self, now: SimTime, out: &mut Vec<LanAction>) {
        if self.circulating || self.order.is_empty() {
            return;
        }
        let n = self.order.len();
        // Find the next station, in ring order after the token, with traffic.
        let mut chosen: Option<(usize, StationId)> = None;
        for k in 0..n {
            let idx = (self.token_at + k) % n;
            let st = self.order[idx];
            if self.is_up(st)
                && self
                    .backlog
                    .get(&st)
                    .map(|b| !b.is_empty())
                    .unwrap_or(false)
            {
                chosen = Some((idx, st));
                break;
            }
        }
        let Some((idx, st)) = chosen else { return };
        // Token travel time to reach the chosen station.
        let dist = (idx + n - self.token_at) % n;
        let start = now + self.hop_latency.saturating_mul(dist as u64);
        let frame = self
            .backlog
            .get_mut(&st)
            .expect("backlog exists")
            .pop_front()
            .expect("nonempty");
        self.token_at = idx;
        self.circulating = true;
        self.stats.busy.set_busy(now);
        let (mut deliveries, strip) = self.circulate(start, frame.clone());
        out.append(&mut deliveries);
        out.push(LanAction::TxOutcome {
            at: strip,
            station: st,
            ok: true,
            collisions: 0,
        });
        // After stripping, the token moves to the next station.
        let token = self.timers.insert(());
        out.push(LanAction::SetTimer { at: strip, token });
    }
}

impl Lan for TokenRing {
    fn attach(&mut self, station: StationId) {
        if self.ring_index(station).is_none() {
            self.order.push(station);
        }
        self.up.insert(station, true);
        self.backlog.entry(station).or_default();
    }

    fn set_station_up(&mut self, station: StationId, up: bool) {
        self.up.insert(station, up);
        if !up {
            if let Some(b) = self.backlog.get_mut(&station) {
                b.clear();
            }
        }
    }

    fn set_required_recorders(&mut self, recorders: Vec<StationId>) {
        self.recorders = recorders;
    }

    fn set_recorder_router(&mut self, router: Option<RecorderRouter>) {
        self.router = router;
    }

    fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    fn submit_into(&mut self, now: SimTime, frame: Frame, out: &mut Vec<LanAction>) {
        if !self.is_up(frame.src) || self.ring_index(frame.src).is_none() {
            return;
        }
        self.stats.submitted.inc();
        self.stats.wire_bytes.add(frame.wire_bytes() as u64);
        self.backlog
            .get_mut(&frame.src)
            .expect("attached")
            .push_back(frame);
        self.start_next(now, out);
    }

    fn timer_into(&mut self, now: SimTime, token: u64, out: &mut Vec<LanAction>) {
        if self.timers.take(token).is_some() {
            // A frame was stripped; the ring frees.
            self.circulating = false;
            self.token_at = (self.token_at + 1) % self.order.len().max(1);
            self.stats.busy.set_idle(now);
            self.start_next(now, out);
        }
    }

    fn stats(&self) -> &LanStats {
        &self.stats
    }

    fn config(&self) -> Option<&LanConfig> {
        Some(&self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Destination;

    fn ring(n: u32, recorder: Option<u32>) -> TokenRing {
        let cfg = LanConfig {
            seed: 11,
            ..LanConfig::default()
        };
        let mut r = TokenRing::new(cfg, SimDuration::from_micros(10));
        for i in 0..n {
            r.attach(StationId(i));
        }
        if let Some(rec) = recorder {
            r.set_required_recorders(vec![StationId(rec)]);
        }
        r
    }

    fn deliveries(actions: &[LanAction]) -> Vec<(SimTime, StationId)> {
        actions
            .iter()
            .filter_map(|a| match a {
                LanAction::Deliver { at, to, .. } => Some((*at, *to)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn frame_reaches_destination_after_recorder() {
        // Ring order 0 → 1 → 2 → 3; recorder at 1, destination 3: the
        // frame passes the recorder first, so one revolution suffices.
        let mut r = ring(4, Some(1));
        let f = Frame::new(StationId(0), Destination::Station(StationId(3)), vec![1, 2]);
        let actions = r.submit(SimTime::ZERO, f);
        let d = deliveries(&actions);
        assert_eq!(d.len(), 2); // recorder + destination
        assert_eq!(d[0].1, StationId(1));
        assert_eq!(d[1].1, StationId(3));
        assert!(d[0].0 < d[1].0);
    }

    #[test]
    fn destination_before_recorder_needs_second_revolution() {
        // Recorder at 3, destination 1: the first pass finds the ack field
        // empty at station 1, which must wait for revolution two.
        let mut r = ring(4, Some(3));
        let f = Frame::new(StationId(0), Destination::Station(StationId(1)), vec![9]);
        let actions = r.submit(SimTime::ZERO, f);
        let d = deliveries(&actions);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].1, StationId(3)); // recorder, revolution 1
        assert_eq!(d[1].1, StationId(1)); // destination, revolution 2
                                          // The destination's delivery is more than one full revolution in.
        let one_rev = SimDuration::from_micros(10).saturating_mul(4);
        assert!(d[1].0.saturating_since(d[0].0) > SimDuration::ZERO);
        assert!(d[1].0 > SimTime::ZERO + one_rev);
    }

    #[test]
    fn recorder_failure_invalidates_checksum_for_all() {
        let mut r = ring(4, Some(1));
        r.set_faults(FaultPlan::new().with_frame_corruption(1.0));
        let f = Frame::new(StationId(0), Destination::Station(StationId(3)), vec![7]);
        let actions = r.submit(SimTime::ZERO, f);
        // The recorder read fails; nobody receives the frame.
        assert!(deliveries(&actions).is_empty());
        assert_eq!(r.stats().recorder_blocked.get(), 1);
        // The sender still learns the transmission completed (transport
        // will retransmit for lack of an end-to-end ack).
        assert!(actions
            .iter()
            .any(|a| matches!(a, LanAction::TxOutcome { ok: true, .. })));
    }

    #[test]
    fn without_publishing_one_revolution_delivers() {
        let mut r = ring(4, None);
        let f = Frame::new(StationId(0), Destination::Station(StationId(2)), vec![3]);
        let actions = r.submit(SimTime::ZERO, f);
        let d = deliveries(&actions);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1, StationId(2));
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let mut r = ring(5, Some(2));
        let f = Frame::new(StationId(0), Destination::Broadcast, vec![1]);
        let actions = r.submit(SimTime::ZERO, f);
        let mut ds: Vec<StationId> = deliveries(&actions).into_iter().map(|(_, s)| s).collect();
        ds.sort();
        // Stations 1..=4 all get it (station 1 on the second revolution).
        assert_eq!(
            ds,
            vec![StationId(1), StationId(2), StationId(3), StationId(4)]
        );
    }

    #[test]
    fn queued_frames_serialize_on_the_ring() {
        let mut r = ring(3, Some(2));
        let f1 = Frame::new(StationId(0), Destination::Station(StationId(1)), vec![1]);
        let f2 = Frame::new(StationId(1), Destination::Station(StationId(0)), vec![2]);
        let a1 = r.submit(SimTime::ZERO, f1);
        let a2 = r.submit(SimTime::ZERO, f2);
        // The second frame waits for the ring: no deliveries from it yet.
        assert!(deliveries(&a2).is_empty());
        // Free the ring via the strip timer.
        let strip_token = a1
            .iter()
            .find_map(|a| match a {
                LanAction::SetTimer { at, token } => Some((*at, *token)),
                _ => None,
            })
            .expect("strip timer");
        let a3 = r.timer(strip_token.0, strip_token.1);
        assert!(!deliveries(&a3).is_empty());
    }

    #[test]
    fn down_station_neither_sends_nor_receives() {
        let mut r = ring(4, Some(1));
        r.set_station_up(StationId(3), false);
        let f = Frame::new(StationId(0), Destination::Broadcast, vec![1]);
        let actions = r.submit(SimTime::ZERO, f);
        assert!(deliveries(&actions).iter().all(|(_, s)| *s != StationId(3)));
        let none = r.submit(
            SimTime::ZERO,
            Frame::new(StationId(3), Destination::Broadcast, vec![2]),
        );
        assert!(none.is_empty());
    }

    #[test]
    fn recorder_down_blocks_all_delivery() {
        // With the only recorder down the ack field is never filled, so no
        // station may use any frame — the §3.3.4 "suspend all traffic"
        // property, emergent from the ack-field rule.
        let mut r = ring(4, Some(1));
        r.set_station_up(StationId(1), false);
        let f = Frame::new(StationId(0), Destination::Station(StationId(2)), vec![5]);
        let actions = r.submit(SimTime::ZERO, f);
        assert!(deliveries(&actions).is_empty());
    }
}
