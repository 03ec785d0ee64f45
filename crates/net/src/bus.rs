//! An idealized broadcast bus.
//!
//! `PerfectBus` is the "reliable broadcast network" the thesis assumes and
//! simulates on its Z8000 star and VAX UNIX testbeds (§4.1): every frame
//! reaches every attached, live station after a fixed serialization +
//! propagation delay, with no contention. Loss/corruption injection and
//! recorder gating still apply, so transport and recovery logic above it
//! is exercised fully; the contention-accurate media live in
//! [`crate::ethernet`] and [`crate::token_ring`].

use crate::frame::{Destination, Frame, StationId};
use crate::lan::{
    DeliveryFanout, FanoutScratch, Lan, LanAction, LanConfig, LanStats, RecorderRouter,
};
use publishing_sim::fault::FaultPlan;
use publishing_sim::rng::DetRng;
use publishing_sim::table::slot_mut;
use publishing_sim::time::SimTime;

/// An idealized contention-free broadcast medium.
pub struct PerfectBus {
    cfg: LanConfig,
    /// Whether each station is up, indexed by station id; `None` = never
    /// attached.
    stations: Vec<Option<bool>>,
    recorders: Vec<StationId>,
    router: Option<RecorderRouter>,
    /// The router's answer for the frame being fanned out, reused.
    routed: Vec<StationId>,
    faults: FaultPlan,
    rng: DetRng,
    stats: LanStats,
    scratch: FanoutScratch,
    /// Accounting cursor: the virtual time at which a serial wire would
    /// finish every frame submitted so far. Delivery timing ignores it
    /// (the bus is contention-free); it exists so the busy ledger
    /// charges each frame its serialization time back-to-back, making
    /// measured wire utilization equal the λ·S utilization law exactly
    /// and giving the queueing cross-validation its contention-free
    /// baseline.
    wire_free_at: SimTime,
}

impl PerfectBus {
    /// Creates a bus with the given configuration and no fault injection.
    pub fn new(cfg: LanConfig) -> Self {
        let rng = DetRng::new(cfg.seed ^ 0xB05);
        PerfectBus {
            cfg,
            stations: Vec::new(),
            recorders: Vec::new(),
            router: None,
            routed: Vec::new(),
            faults: FaultPlan::new(),
            rng,
            stats: LanStats::default(),
            scratch: FanoutScratch::default(),
            wire_free_at: SimTime::ZERO,
        }
    }
}

impl Lan for PerfectBus {
    fn attach(&mut self, station: StationId) {
        *slot_mut(&mut self.stations, station.0 as usize) = Some(true);
    }

    fn set_station_up(&mut self, station: StationId, up: bool) {
        if let Some(Some(s)) = self.stations.get_mut(station.0 as usize) {
            *s = up;
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
        self.stats.submitted.inc();
        self.stats.wire_bytes.add(frame.wire_bytes() as u64);
        let sender = frame.src;
        let tx_done = now + self.cfg.frame_time(frame.wire_bytes());
        let ser_start = if self.wire_free_at > now {
            self.wire_free_at
        } else {
            now
        };
        let ser_end = ser_start + self.cfg.frame_time(frame.wire_bytes());
        self.stats.busy.add_span(ser_start, ser_end);
        self.wire_free_at = ser_end;
        // Every live station but the sender hears the frame; the sender
        // also receives its own frame when it addressed itself — the
        // published-intranode-message path of §4.4.1, where a node's
        // messages to itself go out on the wire so the recorder sees them.
        let to_self = frame.dst == Destination::Station(sender);
        let receivers = self
            .stations
            .iter()
            .enumerate()
            .filter(|&(_, &up)| up == Some(true))
            .map(|(st, _)| StationId(st as u32))
            .filter(|&st| st != sender || to_self);
        // A required recorder gates traffic even while down — §3.3.4: "all
        // message traffic to processes must be suspended whenever the
        // recorder goes down." With multiple recorders, the survivors
        // cover for a dead one by *removing* it from the required set
        // (§6.3), an explicit act of the recovery layer.
        self.routed.clear();
        let required = match &self.router {
            Some(route) if route(&frame, &mut self.routed) => &self.routed,
            _ => &self.recorders,
        };
        DeliveryFanout {
            faults: &self.faults,
            rng: &mut self.rng,
            stats: &mut self.stats,
            scratch: &mut self.scratch,
            dup_gap: self.cfg.interpacket,
        }
        .run(tx_done, &frame, receivers, required, out);
        out.push(LanAction::TxOutcome {
            at: tx_done,
            station: sender,
            ok: true,
            collisions: 0,
        });
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

    fn bus_with(n: u32) -> PerfectBus {
        let mut bus = PerfectBus::new(LanConfig::default());
        for i in 0..n {
            bus.attach(StationId(i));
        }
        bus
    }

    #[test]
    fn broadcast_reaches_all_but_sender() {
        let mut bus = bus_with(4);
        let f = Frame::new(StationId(0), Destination::Broadcast, vec![1]);
        let actions = bus.submit(SimTime::ZERO, f);
        let deliveries: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                LanAction::Deliver { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(deliveries, vec![StationId(1), StationId(2), StationId(3)]);
    }

    #[test]
    fn down_station_receives_nothing() {
        let mut bus = bus_with(3);
        bus.set_station_up(StationId(2), false);
        let f = Frame::new(StationId(0), Destination::Broadcast, vec![]);
        let actions = bus.submit(SimTime::ZERO, f);
        assert!(actions.iter().all(|a| !matches!(
            a,
            LanAction::Deliver { to, .. } if *to == StationId(2)
        )));
    }

    #[test]
    fn delivery_time_reflects_frame_size() {
        let mut bus = bus_with(2);
        let f = Frame::new(StationId(0), Destination::Broadcast, vec![0u8; 1000]);
        let wire = f.wire_bytes();
        let actions = bus.submit(SimTime::ZERO, f);
        let expect = SimTime::ZERO + LanConfig::default().frame_time(wire);
        for a in actions {
            match a {
                LanAction::Deliver { at, .. } | LanAction::TxOutcome { at, .. } => {
                    assert_eq!(at, expect)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn dead_required_recorder_suspends_traffic() {
        // §3.3.4: while the (only) recorder is down, no message may be
        // used. Survivor-cover (§6.3) works by explicitly shrinking the
        // required set, not by the medium forgetting a dead recorder.
        let mut bus = bus_with(3);
        bus.set_required_recorders(vec![StationId(2)]);
        bus.set_station_up(StationId(2), false);
        let f = Frame::new(StationId(0), Destination::Broadcast, vec![5]);
        let actions = bus.submit(SimTime::ZERO, f);
        for a in &actions {
            if let LanAction::Deliver { recorder_ok, .. } = a {
                assert!(!recorder_ok);
            }
        }
        assert_eq!(bus.stats().recorder_blocked.get(), 1);
    }

    #[test]
    fn recorder_router_overrides_global_set_per_frame() {
        // Router: frames whose first payload byte is odd are gated on
        // station 2 (down, so they block); even frames are ungated.
        let mut bus = bus_with(3);
        bus.set_required_recorders(vec![StationId(1)]);
        bus.set_recorder_router(Some(std::sync::Arc::new(
            |f: &Frame, out: &mut Vec<StationId>| {
                if f.payload().first().is_some_and(|b| b % 2 == 1) {
                    out.push(StationId(2));
                }
                true
            },
        )));
        bus.set_station_up(StationId(2), false);
        let flags = |bus: &mut PerfectBus, byte: u8| {
            let f = Frame::new(StationId(0), Destination::Broadcast, vec![byte]);
            bus.submit(SimTime::ZERO, f)
                .into_iter()
                .filter_map(|a| match a {
                    LanAction::Deliver { recorder_ok, .. } => Some(recorder_ok),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert!(flags(&mut bus, 1).iter().all(|&ok| !ok));
        assert!(flags(&mut bus, 2).iter().all(|&ok| ok));
    }

    #[test]
    fn stats_count_submissions_and_deliveries() {
        let mut bus = bus_with(3);
        for _ in 0..5 {
            let f = Frame::new(StationId(0), Destination::Broadcast, vec![1]);
            bus.submit(SimTime::ZERO, f);
        }
        assert_eq!(bus.stats().submitted.get(), 5);
        assert_eq!(bus.stats().delivered.get(), 10);
    }
}
