//! The star configuration of §4.1: the recording node is the hub.
//!
//! Every spoke has a dedicated point-to-point link to the hub. A frame
//! travels up its sender's link; the hub records it and forwards it down
//! the destination link (all links, for broadcasts). "Any messages
//! received incorrectly by the recorder are not passed on" — the hub *is*
//! the publish-before-use gate, so forwarded frames always carry
//! `recorder_ok = true`.

use crate::frame::{Destination, Frame, StationId};
use crate::lan::{Lan, LanAction, LanConfig, LanStats};
use publishing_sim::fault::FaultPlan;
use publishing_sim::rng::DetRng;
use publishing_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A star topology whose hub is the recorder.
pub struct StarHub {
    cfg: LanConfig,
    hub: StationId,
    /// Processing delay inside the hub between receipt and forwarding.
    hub_delay: SimDuration,
    up: BTreeMap<StationId, bool>,
    faults: FaultPlan,
    rng: DetRng,
    stats: LanStats,
}

impl StarHub {
    /// Creates a star with the given hub station (attach it like any other
    /// station) and internal forwarding delay.
    pub fn new(cfg: LanConfig, hub: StationId, hub_delay: SimDuration) -> Self {
        let rng = DetRng::new(cfg.seed ^ 0x57A2);
        StarHub {
            cfg,
            hub,
            hub_delay,
            up: BTreeMap::new(),
            faults: FaultPlan::new(),
            rng,
            stats: LanStats::default(),
        }
    }

    /// Returns the hub station id.
    pub fn hub(&self) -> StationId {
        self.hub
    }

    fn is_up(&self, st: StationId) -> bool {
        self.up.get(&st).copied().unwrap_or(false)
    }
}

impl Lan for StarHub {
    fn attach(&mut self, station: StationId) {
        self.up.insert(station, true);
    }

    fn set_station_up(&mut self, station: StationId, up: bool) {
        self.up.insert(station, up);
    }

    fn set_required_recorders(&mut self, _recorders: Vec<StationId>) {
        // The hub is structurally the recorder; nothing to configure.
    }

    fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    fn submit_into(&mut self, now: SimTime, frame: Frame, out: &mut Vec<LanAction>) {
        let src = frame.src;
        if !self.is_up(src) {
            return;
        }
        self.stats.submitted.inc();
        self.stats.wire_bytes.add(frame.wire_bytes() as u64);
        let link_time = self.cfg.frame_time(frame.wire_bytes());
        let at_hub = now + link_time;
        out.push(LanAction::TxOutcome {
            at: at_hub,
            station: src,
            ok: true,
            collisions: 0,
        });
        if !self.is_up(self.hub) {
            // Hub (recorder) down: the frame vanishes; transport retries.
            self.stats.recorder_blocked.inc();
            return;
        }
        // Uplink fault?
        if self.faults.roll_loss(&mut self.rng) {
            self.stats.lost.inc();
            return;
        }
        if self.faults.roll_corruption(&mut self.rng) {
            // "Received incorrectly by the recorder": not passed on.
            self.stats.corrupted.inc();
            self.stats.recorder_blocked.inc();
            return;
        }
        // The hub records the frame (delivery to the hub station itself,
        // unless the hub sent it).
        if src != self.hub {
            self.stats.delivered.inc();
            out.push(LanAction::Deliver {
                at: at_hub,
                to: self.hub,
                frame: frame.clone(),
                recorder_ok: true,
            });
        }
        // Forward down the destination link(s). A self-addressed frame
        // (published intranode message, §4.4.1) goes back down the
        // sender's own link.
        let targets: Vec<StationId> = match frame.dst {
            Destination::Station(st) => vec![st],
            Destination::Broadcast => self
                .up
                .keys()
                .copied()
                .filter(|&st| st != self.hub && st != src)
                .collect(),
        };
        for to in targets {
            if to == self.hub
                || (to == src && frame.dst == Destination::Broadcast)
                || !self.is_up(to)
            {
                continue;
            }
            let at = at_hub + self.hub_delay + link_time;
            if self.faults.roll_loss(&mut self.rng) {
                self.stats.lost.inc();
                continue;
            }
            let mut f = frame.clone();
            if self.faults.roll_corruption(&mut self.rng) {
                self.stats.corrupted.inc();
                f.corrupt_in_flight();
            }
            self.stats.delivered.inc();
            out.push(LanAction::Deliver {
                at,
                to,
                frame: f.clone(),
                recorder_ok: true,
            });
            if self.faults.roll_duplication(&mut self.rng) {
                // The hub forwards the frame down the link a second time
                // (spurious retransmission), one link traversal later.
                self.stats.duplicated.inc();
                self.stats.delivered.inc();
                out.push(LanAction::Deliver {
                    at: at + link_time.max(SimDuration::from_nanos(1)),
                    to,
                    frame: f,
                    recorder_ok: true,
                });
            }
        }
    }

    fn timer_into(&mut self, _now: SimTime, _token: u64, _out: &mut Vec<LanAction>) {}

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

    fn star(n: u32) -> StarHub {
        let cfg = LanConfig {
            seed: 5,
            ..LanConfig::default()
        };
        let mut s = StarHub::new(cfg, StationId(0), SimDuration::from_micros(100));
        for i in 0..n {
            s.attach(StationId(i));
        }
        s
    }

    fn deliveries(actions: &[LanAction]) -> Vec<(SimTime, StationId, bool)> {
        actions
            .iter()
            .filter_map(|a| match a {
                LanAction::Deliver {
                    at,
                    to,
                    recorder_ok,
                    ..
                } => Some((*at, *to, *recorder_ok)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn unicast_goes_via_hub() {
        let mut s = star(3);
        let f = Frame::new(StationId(1), Destination::Station(StationId(2)), vec![1]);
        let actions = s.submit(SimTime::ZERO, f);
        let d = deliveries(&actions);
        // Hub records first, destination second, strictly later.
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].1, StationId(0));
        assert_eq!(d[1].1, StationId(2));
        assert!(d[1].0 > d[0].0);
        assert!(d.iter().all(|(_, _, ok)| *ok));
    }

    #[test]
    fn broadcast_forwarded_to_all_spokes() {
        let mut s = star(4);
        let f = Frame::new(StationId(1), Destination::Broadcast, vec![2]);
        let actions = s.submit(SimTime::ZERO, f);
        let mut ds: Vec<StationId> = deliveries(&actions)
            .into_iter()
            .map(|(_, s, _)| s)
            .collect();
        ds.sort();
        assert_eq!(ds, vec![StationId(0), StationId(2), StationId(3)]);
    }

    #[test]
    fn hub_down_blocks_everything() {
        let mut s = star(3);
        s.set_station_up(StationId(0), false);
        let f = Frame::new(StationId(1), Destination::Station(StationId(2)), vec![3]);
        let actions = s.submit(SimTime::ZERO, f);
        assert!(deliveries(&actions).is_empty());
        assert_eq!(s.stats().recorder_blocked.get(), 1);
    }

    #[test]
    fn corrupted_uplink_is_not_forwarded() {
        let mut s = star(3);
        s.set_faults(FaultPlan::new().with_frame_corruption(1.0));
        let f = Frame::new(StationId(1), Destination::Station(StationId(2)), vec![4]);
        let actions = s.submit(SimTime::ZERO, f);
        assert!(deliveries(&actions).is_empty());
        assert_eq!(s.stats().recorder_blocked.get(), 1);
    }

    #[test]
    fn hub_can_originate_frames() {
        let mut s = star(3);
        let f = Frame::new(StationId(0), Destination::Station(StationId(2)), vec![5]);
        let actions = s.submit(SimTime::ZERO, f);
        let d = deliveries(&actions);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1, StationId(2));
    }
}
