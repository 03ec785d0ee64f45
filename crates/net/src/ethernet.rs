//! CSMA/CD Ethernet and the Acknowledging Ethernet of §6.1.1.
//!
//! The model captures what Figure 6.1/6.2 are about: carrier sense,
//! collisions inside the collision window, binary exponential backoff,
//! and — in acknowledging mode — time slots reserved after every data
//! frame during which only the receiver (and, for publishing, the
//! recorder) may answer, so acknowledgements never contend.
//!
//! Granularity: one in-flight transmission at a time; a second submission
//! arriving within one slot time of transmission start collides with it
//! (both abort and back off), while later submissions sense carrier and
//! defer to the end of the busy period. Deferred stations retry
//! simultaneously when the medium frees, so convoys re-collide exactly as
//! on a real Ethernet under load.

use crate::frame::{Destination, Frame, StationId};
use crate::lan::{
    DeliveryFanout, FanoutScratch, Lan, LanAction, LanConfig, LanStats, RecorderRouter,
};
use publishing_sim::fault::FaultPlan;
use publishing_sim::rng::DetRng;
use publishing_sim::table::slot_mut;
use publishing_sim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    /// End of the data portion of the current transmission.
    EndData,
    /// End of the reserved acknowledge slots (acknowledging mode).
    EndAckSlots,
    /// A station's backoff/deferral retry.
    Retry(StationId),
}

/// Low bits of a timer token: two of tag, the rest the retrying station.
const KIND_BITS: u32 = 18;

/// Stations a medium can attach: what fits a token beside the tag.
const MAX_STATIONS: u32 = 1 << (KIND_BITS - 2);

impl TimerKind {
    /// The token for the `seq`-th timer the medium sets. Every timer set
    /// fires exactly once and none is ever revoked, so the token carries
    /// its own meaning and no table remembers it; the count on top keeps
    /// tokens distinct and in the order they were issued.
    fn token(self, seq: u64) -> u64 {
        let kind = match self {
            TimerKind::EndData => 0,
            TimerKind::EndAckSlots => 1,
            TimerKind::Retry(st) => 2 | u64::from(st.0) << 2,
        };
        seq << KIND_BITS | kind
    }

    fn of(token: u64) -> Option<TimerKind> {
        let kind = token & ((1 << KIND_BITS) - 1);
        match kind & 3 {
            0 => Some(TimerKind::EndData),
            1 => Some(TimerKind::EndAckSlots),
            2 => Some(TimerKind::Retry(StationId((kind >> 2) as u32))),
            _ => None,
        }
    }
}

#[derive(Debug)]
enum MediumState {
    Idle,
    /// A data frame is on the wire.
    Data {
        from: StationId,
        started: SimTime,
        end: SimTime,
        collided: bool,
        /// The transmitter went down before the frame ended.
        cut: bool,
        /// Length of the reserved ack slots after this frame.
        ack_len: SimDuration,
    },
    /// Reserved acknowledge slots after a successful data frame.
    AckSlots {
        until: SimTime,
    },
}

#[derive(Debug, Default)]
struct Station {
    up: bool,
    backlog: VecDeque<Frame>,
    attempts: u32,
    waiting_retry: bool,
}

/// A CSMA/CD broadcast medium, in standard or acknowledging mode.
pub struct Ethernet {
    cfg: LanConfig,
    ack_mode: bool,
    /// Indexed by station id; `None` = never attached.
    stations: Vec<Option<Station>>,
    recorders: Vec<StationId>,
    router: Option<RecorderRouter>,
    state: MediumState,
    /// Recorders gating the frame on the wire (routed per frame, or the
    /// global set), fixed when its transmission started; meaningful while
    /// `state` is `Data`. Kept here, not in the state, so the buffer is
    /// reused from frame to frame.
    tx_required: Vec<StationId>,
    /// Timers set so far (see [`TimerKind::token`]).
    timers_set: u64,
    faults: FaultPlan,
    rng: DetRng,
    stats: LanStats,
    scratch: FanoutScratch,
}

impl Ethernet {
    /// Creates a standard (non-acknowledging) CSMA/CD Ethernet.
    pub fn standard(cfg: LanConfig) -> Self {
        Self::new(cfg, false)
    }

    /// Creates an Acknowledging Ethernet (§6.1.1): a slot is reserved after
    /// each frame for the receiver's ack, plus one per required recorder.
    pub fn acknowledging(cfg: LanConfig) -> Self {
        Self::new(cfg, true)
    }

    fn new(cfg: LanConfig, ack_mode: bool) -> Self {
        let rng = DetRng::new(cfg.seed ^ 0xE7E7);
        Ethernet {
            cfg,
            ack_mode,
            stations: Vec::new(),
            recorders: Vec::new(),
            router: None,
            state: MediumState::Idle,
            tx_required: Vec::new(),
            timers_set: 0,
            faults: FaultPlan::new(),
            rng,
            stats: LanStats::default(),
            scratch: FanoutScratch::default(),
        }
    }

    fn set_timer(&mut self, at: SimTime, kind: TimerKind, out: &mut Vec<LanAction>) {
        let token = kind.token(self.timers_set);
        self.timers_set += 1;
        out.push(LanAction::SetTimer { at, token });
    }

    fn station(&self, id: StationId) -> Option<&Station> {
        self.stations.get(id.0 as usize)?.as_ref()
    }

    fn station_mut(&mut self, id: StationId) -> Option<&mut Station> {
        self.stations.get_mut(id.0 as usize)?.as_mut()
    }

    fn busy_until(&self) -> Option<SimTime> {
        match self.state {
            MediumState::Idle => None,
            MediumState::Data { end, ack_len, .. } => Some(match self.ack_mode {
                true => end + ack_len,
                false => end,
            }),
            MediumState::AckSlots { until } => Some(until),
        }
    }

    fn ack_slots_len(&self) -> SimDuration {
        // One slot for the receiver plus one per required recorder.
        let live_recorders = self
            .recorders
            .iter()
            .filter(|&&r| self.station(r).is_some_and(|s| s.up))
            .count() as u64;
        self.cfg.ack_slot.saturating_mul(1 + live_recorders)
    }

    fn backoff(&mut self, attempts: u32) -> SimDuration {
        let exp = attempts.min(self.cfg.max_backoff_exp);
        let slots = self.rng.below(1u64 << exp);
        self.cfg.slot_time.saturating_mul(slots)
    }

    fn try_start(&mut self, now: SimTime, st_id: StationId, out: &mut Vec<LanAction>) {
        let Some(st) = self.station(st_id) else {
            return;
        };
        if !st.up || st.backlog.is_empty() || st.waiting_retry {
            return;
        }
        enum Decision {
            Start,
            Collide,
            Defer,
        }
        let decision = match &mut self.state {
            MediumState::Idle => Decision::Start,
            MediumState::Data {
                started, collided, ..
            } => {
                if now.saturating_since(*started) < self.cfg.slot_time && !*collided {
                    // Inside the collision window: both transmissions die.
                    *collided = true;
                    Decision::Collide
                } else {
                    Decision::Defer
                }
            }
            // The reserved slots read as carrier; defer.
            MediumState::AckSlots { .. } => Decision::Defer,
        };
        match decision {
            Decision::Start => {
                // Resolve this frame's recorder set now: in a sharded
                // tier only the owning shard(s) get reserved ack slots.
                let mut required = std::mem::take(&mut self.tx_required);
                required.clear();
                let st = self.station(st_id).expect("checked");
                let frame = st.backlog.front().expect("checked");
                let end = now + self.cfg.frame_time(frame.wire_bytes());
                let ack_len = match &self.router {
                    Some(route) if route(frame, &mut required) => {
                        let slots = 1 + required.len() as u64;
                        self.cfg.ack_slot.saturating_mul(slots)
                    }
                    _ => {
                        required.extend_from_slice(&self.recorders);
                        self.ack_slots_len()
                    }
                };
                self.tx_required = required;
                self.state = MediumState::Data {
                    from: st_id,
                    started: now,
                    end,
                    collided: false,
                    cut: false,
                    ack_len,
                };
                self.stats.busy.set_busy(now);
                // The frame stays at the backlog head; delivery happens on
                // EndData.
                self.set_timer(end, TimerKind::EndData, out);
            }
            Decision::Collide => {
                self.stats.collisions.inc();
                // The newcomer backs off now; the current transmitter backs
                // off when its EndData timer fires.
                let st = self.station_mut(st_id).expect("checked");
                st.attempts += 1;
                st.waiting_retry = true;
                let attempts = st.attempts;
                if attempts > self.cfg.max_attempts {
                    self.give_up(now, st_id, out);
                } else {
                    let delay = self.backoff(attempts);
                    self.set_timer(now + delay, TimerKind::Retry(st_id), out);
                }
            }
            Decision::Defer => self.defer(st_id, out),
        }
    }

    fn defer(&mut self, st_id: StationId, out: &mut Vec<LanAction>) {
        let until = self.busy_until().expect("medium busy");
        let st = self.station_mut(st_id).expect("attached");
        st.waiting_retry = true;
        self.set_timer(until, TimerKind::Retry(st_id), out);
    }

    fn give_up(&mut self, now: SimTime, st_id: StationId, out: &mut Vec<LanAction>) {
        let st = self.station_mut(st_id).expect("attached");
        let collisions = st.attempts;
        st.backlog.pop_front();
        st.attempts = 0;
        st.waiting_retry = false;
        self.stats.aborted.inc();
        out.push(LanAction::TxOutcome {
            at: now,
            station: st_id,
            ok: false,
            collisions,
        });
        // The station may have further backlog; contend for it normally.
        self.try_start(now, st_id, out);
    }

    fn end_data(&mut self, now: SimTime, out: &mut Vec<LanAction>) {
        let MediumState::Data {
            from,
            end,
            collided,
            cut,
            ack_len,
            ..
        } = std::mem::replace(&mut self.state, MediumState::Idle)
        else {
            return;
        };
        debug_assert_eq!(end, now);
        if collided {
            self.stats.busy.set_idle(now);
            // The transmitter's frame died; back off and retry.
            let st = self.station_mut(from).expect("attached");
            st.attempts += 1;
            st.waiting_retry = true;
            let attempts = st.attempts;
            if attempts > self.cfg.max_attempts {
                self.give_up(now, from, out);
            } else {
                let delay = self.backoff(attempts);
                self.set_timer(now + delay, TimerKind::Retry(from), out);
            }
            return;
        }
        if cut {
            // The transmitter went down mid-frame and took its backlog
            // with it: the frame is truncated. Nobody receives it, no ack
            // slots follow, the medium is free from now; stations that
            // deferred behind it keep their retry timers.
            self.stats.busy.set_idle(now);
            return;
        }
        // Successful transmission: deliver to every live station but the
        // sender; recorder gating per §6.1.
        let st = self.station_mut(from).expect("attached");
        let frame = st.backlog.pop_front().expect("frame in flight");
        let collisions = st.attempts;
        st.attempts = 0;
        // A self-addressed frame loops back to its sender (published
        // intranode messages, §4.4.1).
        let to_self = frame.dst == Destination::Station(from);
        let receivers = self
            .stations
            .iter()
            .enumerate()
            .filter_map(|(id, s)| Some((StationId(id as u32), s.as_ref()?)))
            .filter(|&(id, s)| s.up && (id != from || to_self))
            .map(|(id, _)| id);
        // A required recorder gates even while down (§3.3.4); survivors
        // cover for a dead peer by shrinking the set explicitly (§6.3),
        // and a sharded tier routes it per frame (`tx_required` was fixed
        // when this transmission started).
        DeliveryFanout {
            faults: &self.faults,
            rng: &mut self.rng,
            stats: &mut self.stats,
            scratch: &mut self.scratch,
            dup_gap: self.cfg.interpacket,
        }
        .run(now, &frame, receivers, &self.tx_required, out);
        out.push(LanAction::TxOutcome {
            at: now,
            station: from,
            ok: true,
            collisions,
        });
        if self.ack_mode {
            let until = now + ack_len;
            self.state = MediumState::AckSlots { until };
            self.set_timer(until, TimerKind::EndAckSlots, out);
        } else {
            self.stats.busy.set_idle(now);
            self.try_start(now, from, out);
        }
    }

    fn end_ack_slots(&mut self, now: SimTime, out: &mut Vec<LanAction>) {
        if matches!(self.state, MediumState::AckSlots { .. }) {
            self.state = MediumState::Idle;
            self.stats.busy.set_idle(now);
            // Any station with a backlog and no pending retry may start,
            // lowest id first.
            for id in 0..self.stations.len() as u32 {
                if matches!(self.state, MediumState::Idle) {
                    self.try_start(now, StationId(id), out);
                }
            }
        }
    }
}

impl Lan for Ethernet {
    fn attach(&mut self, station: StationId) {
        assert!(
            station.0 < MAX_STATIONS,
            "station id {} too large",
            station.0
        );
        *slot_mut(&mut self.stations, station.0 as usize) = Some(Station {
            up: true,
            ..Station::default()
        });
    }

    fn set_station_up(&mut self, station: StationId, up: bool) {
        let Some(s) = self.station_mut(station) else {
            return;
        };
        s.up = up;
        if !up {
            s.backlog.clear();
            s.attempts = 0;
            // Its frame on the wire, if any, ends here.
            if let MediumState::Data { from, cut, .. } = &mut self.state {
                *cut |= *from == station;
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
        let src = frame.src;
        let Some(st) = self
            .stations
            .get_mut(src.0 as usize)
            .and_then(Option::as_mut)
        else {
            return;
        };
        if !st.up {
            return;
        }
        self.stats.submitted.inc();
        self.stats.wire_bytes.add(frame.wire_bytes() as u64);
        st.backlog.push_back(frame);
        self.try_start(now, src, out);
    }

    fn timer_into(&mut self, now: SimTime, token: u64, out: &mut Vec<LanAction>) {
        let Some(kind) = TimerKind::of(token) else {
            return;
        };
        match kind {
            TimerKind::EndData => self.end_data(now, out),
            TimerKind::EndAckSlots => self.end_ack_slots(now, out),
            TimerKind::Retry(st_id) => {
                if let Some(st) = self.station_mut(st_id) {
                    st.waiting_retry = false;
                }
                self.try_start(now, st_id, out);
            }
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
    use publishing_sim::event::Scheduler;

    /// Drives an Ethernet until quiescent, collecting deliveries/outcomes.
    struct Driver {
        lan: Ethernet,
        sched: Scheduler<u64>,
        deliveries: Vec<(SimTime, StationId, Frame, bool)>,
        outcomes: Vec<(SimTime, StationId, bool, u32)>,
    }

    impl Driver {
        fn new(lan: Ethernet) -> Self {
            Driver {
                lan,
                sched: Scheduler::new(),
                deliveries: Vec::new(),
                outcomes: Vec::new(),
            }
        }

        fn apply(&mut self, actions: Vec<LanAction>) {
            for a in actions {
                match a {
                    LanAction::SetTimer { at, token } => {
                        self.sched.schedule_at(at, token);
                    }
                    LanAction::Deliver {
                        at,
                        to,
                        frame,
                        recorder_ok,
                    } => {
                        self.deliveries.push((at, to, frame, recorder_ok));
                    }
                    LanAction::TxOutcome {
                        at,
                        station,
                        ok,
                        collisions,
                    } => {
                        self.outcomes.push((at, station, ok, collisions));
                    }
                }
            }
        }

        fn submit_at(&mut self, at: SimTime, frame: Frame) {
            // Run the queue up to `at`, then submit.
            while let Some(t) = self.sched.peek_time() {
                if t > at {
                    break;
                }
                let (now, token) = self.sched.pop().expect("peeked");
                let actions = self.lan.timer(now, token);
                self.apply(actions);
            }
            self.sched.advance_to(at);
            let actions = self.lan.submit(at, frame);
            self.apply(actions);
        }

        fn run_to_quiescence(&mut self) {
            while let Some((now, token)) = self.sched.pop() {
                let actions = self.lan.timer(now, token);
                self.apply(actions);
            }
        }
    }

    fn net(n: u32, ack: bool) -> Ethernet {
        let cfg = LanConfig {
            seed: 7,
            ..LanConfig::default()
        };
        let mut lan = if ack {
            Ethernet::acknowledging(cfg)
        } else {
            Ethernet::standard(cfg)
        };
        for i in 0..n {
            lan.attach(StationId(i));
        }
        lan
    }

    fn bcast(from: u32, len: usize) -> Frame {
        Frame::new(StationId(from), Destination::Broadcast, vec![0xAB; len])
    }

    #[test]
    fn lone_transmission_delivers_to_all() {
        let mut d = Driver::new(net(3, false));
        d.submit_at(SimTime::ZERO, bcast(0, 100));
        d.run_to_quiescence();
        let to: Vec<_> = d.deliveries.iter().map(|(_, to, _, _)| *to).collect();
        assert_eq!(to, vec![StationId(1), StationId(2)]);
        assert_eq!(d.outcomes.len(), 1);
        assert!(d.outcomes[0].2);
        assert_eq!(d.lan.stats().collisions.get(), 0);
    }

    #[test]
    fn simultaneous_transmissions_collide_then_recover() {
        let mut d = Driver::new(net(3, false));
        d.submit_at(SimTime::ZERO, bcast(0, 100));
        // Within the 51.2 µs collision window.
        d.submit_at(SimTime::from_nanos(10_000), bcast(1, 100));
        d.run_to_quiescence();
        assert!(d.lan.stats().collisions.get() >= 1);
        // Both frames eventually deliver (2 receivers each).
        assert_eq!(d.deliveries.len(), 4);
        assert_eq!(d.outcomes.iter().filter(|o| o.2).count(), 2);
    }

    #[test]
    fn late_submission_defers_without_collision() {
        let mut d = Driver::new(net(3, false));
        d.submit_at(SimTime::ZERO, bcast(0, 1000));
        // Well past the collision window, still during the frame.
        d.submit_at(SimTime::from_micros(200), bcast(1, 100));
        d.run_to_quiescence();
        assert_eq!(d.lan.stats().collisions.get(), 0);
        assert_eq!(d.deliveries.len(), 4);
        // The deferred frame delivers after the first finishes.
        let t0 = d.deliveries[0].0;
        let t1 = d.deliveries[3].0;
        assert!(t1 > t0);
    }

    #[test]
    fn ack_mode_reserves_slots() {
        let mut lan = net(3, true);
        lan.set_required_recorders(vec![StationId(2)]);
        let mut d = Driver::new(lan);
        d.submit_at(SimTime::ZERO, bcast(0, 100));
        d.run_to_quiescence();
        // Busy time must include data + 2 ack slots (receiver + recorder).
        let cfg = LanConfig::default();
        let expected = cfg.frame_time(bcast(0, 100).wire_bytes()) + cfg.ack_slot.saturating_mul(2);
        let busy = d.lan.stats().busy.busy_time(SimTime::from_secs(1));
        assert_eq!(busy, expected);
    }

    #[test]
    fn deferred_convoy_recollides_at_medium_free() {
        // Two stations defer behind a long frame; both retry at the same
        // instant and collide — the emergent convoy effect.
        let mut d = Driver::new(net(4, false));
        d.submit_at(SimTime::ZERO, bcast(0, 1000));
        d.submit_at(SimTime::from_micros(300), bcast(1, 100));
        d.submit_at(SimTime::from_micros(400), bcast(2, 100));
        d.run_to_quiescence();
        assert!(d.lan.stats().collisions.get() >= 1);
        // All three frames deliver eventually (3 receivers each).
        assert_eq!(d.deliveries.len(), 9);
    }

    #[test]
    fn down_station_cannot_submit() {
        let mut lan = net(2, false);
        lan.set_station_up(StationId(0), false);
        let actions = lan.submit(SimTime::ZERO, bcast(0, 10));
        assert!(actions.is_empty());
        assert_eq!(lan.stats().submitted.get(), 0);
    }

    #[test]
    fn recorder_gating_flags_deliveries() {
        let mut lan = net(3, true);
        lan.set_required_recorders(vec![StationId(2)]);
        lan.set_faults(FaultPlan::new().with_frame_corruption(1.0));
        let mut d = Driver::new(lan);
        d.submit_at(SimTime::ZERO, bcast(0, 64));
        d.run_to_quiescence();
        assert!(!d.deliveries.is_empty());
        for (_, _, _, recorder_ok) in &d.deliveries {
            assert!(!recorder_ok);
        }
    }

    #[test]
    fn utilization_grows_with_load() {
        let mut light = Driver::new(net(2, false));
        light.submit_at(SimTime::ZERO, bcast(0, 100));
        light.run_to_quiescence();
        let mut heavy = Driver::new(net(2, false));
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            heavy.submit_at(t, bcast(0, 1000));
            t += SimDuration::from_micros(100);
        }
        heavy.run_to_quiescence();
        let window = SimTime::from_millis(30);
        assert!(
            heavy.lan.stats().busy.utilization(window) > light.lan.stats().busy.utilization(window)
        );
    }
}
