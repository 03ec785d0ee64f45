//! The LAN abstraction: a sans-IO medium state machine.
//!
//! Every medium model (CSMA/CD Ethernet, Acknowledging Ethernet, token
//! ring, star hub, and the idealized bus) implements [`Lan`]. A driver —
//! the simulation world, or a unit test — feeds it transmissions and timer
//! callbacks and executes the [`LanAction`]s it appends to the driver's
//! buffer. The medium owns all
//! physical-layer concerns: serialization delay, contention, loss and
//! corruption draws, and the *recorder acknowledgement* semantics of §6.1
//! ("if the recorder cannot receive a message, the processor for which the
//! message is destined cannot be allowed to receive it").

use crate::frame::{Frame, StationId};
use publishing_sim::fault::FaultPlan;
use publishing_sim::rng::DetRng;
use publishing_sim::stats::{Counter, Utilization};
use publishing_sim::time::{SimDuration, SimTime};

/// Physical and MAC parameters of a LAN.
#[derive(Debug, Clone)]
pub struct LanConfig {
    /// Raw bandwidth in bits per second (Fig 5.2: 10 Mb/s).
    pub bandwidth_bps: u64,
    /// Fixed per-frame interface delay (Fig 5.2: 1.6 ms interpacket delay).
    pub interpacket: SimDuration,
    /// Collision window / backoff quantum (classic Ethernet: 51.2 µs).
    pub slot_time: SimDuration,
    /// Length of a reserved acknowledge slot (Acknowledging Ethernet §6.1.1).
    pub ack_slot: SimDuration,
    /// Cap on the binary-exponential-backoff exponent.
    pub max_backoff_exp: u32,
    /// Transmission attempts before the MAC reports failure.
    pub max_attempts: u32,
    /// Seed for the medium's private randomness (backoff, fault draws).
    pub seed: u64,
}

impl Default for LanConfig {
    fn default() -> Self {
        LanConfig {
            bandwidth_bps: 10_000_000,
            interpacket: SimDuration::from_micros(1_600),
            slot_time: SimDuration::from_nanos(51_200),
            ack_slot: SimDuration::from_nanos(51_200),
            max_backoff_exp: 10,
            max_attempts: 16,
            seed: 0,
        }
    }
}

impl LanConfig {
    /// Returns the time to serialize `bytes` onto the wire, including the
    /// fixed interpacket delay.
    pub fn frame_time(&self, bytes: usize) -> SimDuration {
        let bits = bytes as u64 * 8;
        let ns = bits.saturating_mul(1_000_000_000) / self.bandwidth_bps;
        self.interpacket + SimDuration::from_nanos(ns)
    }

    /// Returns this configuration with the wire sped up by `factor`
    /// (> 1 = faster): bandwidth multiplied, the fixed per-frame
    /// interface delay divided. Contention constants (slot and ack
    /// slots, backoff) are physical-layer round-trip properties and are
    /// left untouched. This is the what-if profiler's "wire speed ×k"
    /// knob.
    pub fn scaled(&self, factor: f64) -> LanConfig {
        assert!(factor > 0.0, "wire-speed factor must be positive");
        let mut cfg = self.clone();
        cfg.bandwidth_bps = ((self.bandwidth_bps as f64) * factor).max(1.0) as u64;
        cfg.interpacket = self.interpacket.mul_f64(1.0 / factor);
        cfg
    }
}

/// An action a medium asks its driver to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LanAction {
    /// Deliver `frame` to station `to` at time `at`.
    ///
    /// `recorder_ok` reports whether every *required* recorder received the
    /// frame intact; publishing-enforcing link layers discard the frame
    /// when it is `false` (§4.4.1), forcing a transport-level resend.
    Deliver {
        /// Delivery time.
        at: SimTime,
        /// Receiving station (every attached, up station other than the
        /// sender gets one — broadcast medium).
        to: StationId,
        /// The frame as received (possibly corrupted in flight).
        frame: Frame,
        /// Whether all required recorders captured the frame intact.
        recorder_ok: bool,
    },
    /// Report the fate of a transmission to its submitting station.
    TxOutcome {
        /// Completion time.
        at: SimTime,
        /// The station that submitted the frame.
        station: StationId,
        /// `true` if the frame made it onto the wire; `false` if the MAC
        /// gave up (excessive collisions).
        ok: bool,
        /// Collisions suffered before the outcome.
        collisions: u32,
    },
    /// Ask the driver to call [`Lan::timer`] with `token` at time `at`.
    SetTimer {
        /// Callback time.
        at: SimTime,
        /// Opaque token to hand back.
        token: u64,
    },
}

/// Counters every medium keeps.
#[derive(Debug, Default, Clone)]
pub struct LanStats {
    /// Frames submitted by stations.
    pub submitted: Counter,
    /// Frame deliveries to stations (per receiving station).
    pub delivered: Counter,
    /// Collisions observed (CSMA/CD media only).
    pub collisions: Counter,
    /// Frames dropped by fault injection (loss draws).
    pub lost: Counter,
    /// Frames corrupted by fault injection.
    pub corrupted: Counter,
    /// Extra deliveries produced by fault injection (duplication draws).
    pub duplicated: Counter,
    /// Frames blocked because a required recorder missed them.
    pub recorder_blocked: Counter,
    /// Transmissions abandoned after too many collisions.
    pub aborted: Counter,
    /// Wire bytes submitted (headers included) — with `submitted`, the
    /// mean frame size the queueing cross-validation's utilization-law
    /// prediction needs.
    pub wire_bytes: Counter,
    /// Busy-time integrator for the shared medium.
    pub busy: Utilization,
    /// Per-station counts of gating stalls attributed to the required
    /// recorder that missed the frame: when delivery is blocked because a
    /// required recorder failed to capture a frame intact, each recorder
    /// that missed it is charged here. The sharded tier reads this to
    /// report per-shard capture-set stalls.
    pub blocked_at_recorder: std::collections::BTreeMap<StationId, u64>,
}

impl LanStats {
    /// Returns the gating stalls charged to one required-recorder station.
    pub fn blocked_at(&self, station: StationId) -> u64 {
        self.blocked_at_recorder.get(&station).copied().unwrap_or(0)
    }
}

/// Per-frame recorder routing for sharded recorder tiers.
///
/// Given a frame and an empty buffer the medium owns, either appends the
/// stations whose intact receipt gates the frame's delivery and returns
/// `true` — the set overrides the global required-recorder set for this
/// frame, and an empty one means the frame is ungated — or returns
/// `false`: fall back to the global set. The medium reuses the buffer
/// from frame to frame, so routing allocates nothing. The closure is
/// installed by the tier above the medium (it reads the destination
/// process from the opaque payload and asks the shard map which shards
/// own its recorder-ack slot); the medium itself stays payload-agnostic.
pub type RecorderRouter = std::sync::Arc<dyn Fn(&Frame, &mut Vec<StationId>) -> bool + Send + Sync>;

/// A broadcast medium with publishing (recorder-acknowledgement) support.
pub trait Lan {
    /// Attaches a station; it starts up.
    fn attach(&mut self, station: StationId);

    /// Marks a station up or down; down stations neither receive nor count
    /// as recorders.
    fn set_station_up(&mut self, station: StationId, up: bool);

    /// Sets the stations whose intact receipt gates delivery (§6.1, §6.3).
    /// An empty set disables recorder gating (baseline, non-published mode).
    fn set_required_recorders(&mut self, recorders: Vec<StationId>);

    /// Installs (or clears) a per-frame recorder router, giving each
    /// frame's recorder-ack slot to the shard(s) owning its destination.
    /// Default: ignored — media without router support keep gating on
    /// the global [`Lan::set_required_recorders`] set, and the star hub
    /// is structurally its own single recorder.
    fn set_recorder_router(&mut self, _router: Option<RecorderRouter>) {}

    /// Installs a fault plan (loss/corruption/duplication probabilities).
    /// Replacing the plan mid-run is how the chaos engine opens and closes
    /// fault bursts; the medium's RNG stream is unaffected by the swap.
    fn set_faults(&mut self, faults: FaultPlan);

    /// Submits a frame for transmission from `frame.src`, appending
    /// what the driver must do about it to `out` (a buffer the driver
    /// owns and reuses; the order of the actions is part of the medium's
    /// behaviour).
    fn submit_into(&mut self, now: SimTime, frame: Frame, out: &mut Vec<LanAction>);

    /// Delivers a previously requested timer callback, appending the
    /// resulting actions to `out`.
    fn timer_into(&mut self, now: SimTime, token: u64, out: &mut Vec<LanAction>);

    /// [`Lan::submit_into`] with a vector made for the call. `hostbench/`
    /// binds this form (its README, *Measured surface*) and a change that
    /// claims a gain may not edit it; unit tests use it too. An event
    /// loop calls `submit_into` with its own buffer.
    fn submit(&mut self, now: SimTime, frame: Frame) -> Vec<LanAction> {
        let mut out = Vec::new();
        self.submit_into(now, frame, &mut out);
        out
    }

    /// [`Lan::timer_into`] with a vector made for the call — kept for
    /// `hostbench/`, as [`Lan::submit`] is.
    fn timer(&mut self, now: SimTime, token: u64) -> Vec<LanAction> {
        let mut out = Vec::new();
        self.timer_into(now, token, &mut out);
        out
    }

    /// Returns the medium's counters.
    fn stats(&self) -> &LanStats;

    /// Returns the medium's timing configuration, when it has one (all
    /// built-in media do). The capacity lens reads the bandwidth and
    /// interpacket constants here to compute the analytic service time
    /// its queueing cross-validation predicts utilization from.
    fn config(&self) -> Option<&LanConfig> {
        None
    }
}

/// A receiver's physical outcome for one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Ok,
    Lost,
    Corrupt,
}

/// Per-receiver fates of the frame being fanned out. A medium keeps one
/// and lends it to every [`DeliveryFanout`], so a fan-out allocates
/// nothing but room for the deliveries it emits.
#[derive(Debug, Default)]
pub(crate) struct FanoutScratch {
    fates: Vec<(StationId, Fate)>,
}

/// Shared per-delivery fault and recorder-gating logic used by all media.
///
/// Given the set of receiving stations, rolls loss/corruption per receiver,
/// determines `recorder_ok` from the required recorders' outcomes, and
/// produces the corresponding [`LanAction::Deliver`]s.
pub(crate) struct DeliveryFanout<'a> {
    pub faults: &'a FaultPlan,
    pub rng: &'a mut DetRng,
    pub stats: &'a mut LanStats,
    pub scratch: &'a mut FanoutScratch,
    /// How much later a duplicated frame's second copy arrives. Media pass
    /// their natural re-arrival delay (a frame time, a hop latency); the
    /// fanout floors it at 1 ns so the two arrivals are always distinct.
    pub dup_gap: SimDuration,
}

impl DeliveryFanout<'_> {
    /// Fans `frame` out to `receivers` at time `at`, appending the
    /// deliveries to `out`. Every delivery shares the frame's bytes; only
    /// a corrupted one gets a (damaged) copy of its own.
    ///
    /// `required_recorders` must be a subset of `receivers` (down stations
    /// already filtered out by the caller). Stations that lose the frame
    /// get no delivery; corrupted deliveries arrive with a broken FCS; a
    /// duplication draw makes an intact delivery arrive a second time,
    /// `dup_gap` later.
    ///
    /// The draw order is part of the medium's behaviour (fault-plan runs
    /// must repeat bit for bit): loss, then corruption, for every receiver
    /// in order; then one duplication roll per intact delivery.
    pub fn run(
        self,
        at: SimTime,
        frame: &Frame,
        receivers: impl IntoIterator<Item = StationId>,
        required_recorders: &[StationId],
        out: &mut Vec<LanAction>,
    ) {
        let DeliveryFanout {
            faults,
            rng,
            stats,
            scratch,
            dup_gap,
        } = self;
        // Decide each receiver's physical outcome first.
        let fates = &mut scratch.fates;
        fates.clear();
        for st in receivers {
            let fate = if faults.roll_loss(rng) {
                Fate::Lost
            } else if faults.roll_corruption(rng) {
                Fate::Corrupt
            } else {
                Fate::Ok
            };
            fates.push((st, fate));
        }

        // §6.1: the frame is usable only if every required recorder
        // captured it intact. A recorder that *sent* the frame trivially
        // has it.
        let captured = |r: StationId| {
            r == frame.src || fates.iter().any(|&(st, fate)| st == r && fate == Fate::Ok)
        };
        let recorder_ok = required_recorders.iter().all(|&r| captured(r));
        if !recorder_ok {
            stats.recorder_blocked.inc();
            // Attribute the stall to every required recorder that missed
            // the frame, so a sharded tier can see which shard is lossy.
            for &r in required_recorders {
                if !captured(r) {
                    *stats.blocked_at_recorder.entry(r).or_insert(0) += 1;
                }
            }
        }

        out.reserve(fates.len());
        for &(st, fate) in fates.iter() {
            match fate {
                Fate::Lost => {
                    stats.lost.inc();
                }
                Fate::Corrupt => {
                    stats.corrupted.inc();
                    let mut f = frame.clone();
                    f.corrupt_in_flight();
                    stats.delivered.inc();
                    out.push(LanAction::Deliver {
                        at,
                        to: st,
                        frame: f,
                        recorder_ok,
                    });
                }
                Fate::Ok => {
                    stats.delivered.inc();
                    out.push(LanAction::Deliver {
                        at,
                        to: st,
                        frame: frame.clone(),
                        recorder_ok,
                    });
                    if faults.roll_duplication(rng) {
                        stats.duplicated.inc();
                        stats.delivered.inc();
                        out.push(LanAction::Deliver {
                            at: at + dup_gap.max(SimDuration::from_nanos(1)),
                            to: st,
                            frame: frame.clone(),
                            recorder_ok,
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Destination;

    #[test]
    fn frame_time_scales_with_size() {
        let cfg = LanConfig::default();
        let t_small = cfg.frame_time(128);
        let t_large = cfg.frame_time(1024);
        assert!(t_large > t_small);
        // 1024 bytes at 10 Mb/s is 819.2 µs on the wire plus 1.6 ms fixed.
        assert_eq!(
            t_large,
            SimDuration::from_micros(1_600) + SimDuration::from_nanos(819_200)
        );
    }

    #[test]
    fn scaled_config_speeds_up_the_wire() {
        let base = LanConfig::default();
        let fast = base.scaled(2.0);
        assert_eq!(fast.bandwidth_bps, 20_000_000);
        assert_eq!(fast.interpacket, SimDuration::from_micros(800));
        // Contention constants are untouched.
        assert_eq!(fast.slot_time, base.slot_time);
        assert_eq!(fast.ack_slot, base.ack_slot);
        // Frame time halves exactly for a doubling.
        assert_eq!(
            fast.frame_time(1024).as_nanos() * 2,
            base.frame_time(1024).as_nanos()
        );
    }

    /// Runs one fan-out (10 µs duplicate gap, fresh RNG and scratch).
    fn fan_out(
        faults: &FaultPlan,
        seed: u64,
        stats: &mut LanStats,
        at: SimTime,
        frame: &Frame,
        receivers: &[StationId],
        required: &[StationId],
    ) -> Vec<LanAction> {
        let mut out = Vec::new();
        DeliveryFanout {
            faults,
            rng: &mut DetRng::new(seed),
            stats,
            scratch: &mut FanoutScratch::default(),
            dup_gap: SimDuration::from_micros(10),
        }
        .run(at, frame, receivers.iter().copied(), required, &mut out);
        out
    }

    #[test]
    fn fanout_delivers_to_all_when_fault_free() {
        let faults = FaultPlan::new();
        let mut stats = LanStats::default();
        let frame = Frame::new(StationId(0), Destination::Broadcast, vec![1, 2, 3]);
        let receivers = [StationId(1), StationId(2), StationId(3)];
        let actions = fan_out(
            &faults,
            1,
            &mut stats,
            SimTime::from_millis(1),
            &frame,
            &receivers,
            &[StationId(3)],
        );
        assert_eq!(actions.len(), 3);
        for a in &actions {
            match a {
                LanAction::Deliver {
                    frame: f,
                    recorder_ok,
                    ..
                } => {
                    assert!(f.is_intact());
                    assert!(recorder_ok);
                }
                _ => panic!("unexpected action"),
            }
        }
    }

    #[test]
    fn recorder_loss_blocks_usability() {
        // Force every frame to be lost: the recorder misses it, so even
        // though nobody receives anything, the blocked counter reflects the
        // recorder gate.
        let faults = FaultPlan::new().with_frame_loss(1.0);
        let mut stats = LanStats::default();
        let frame = Frame::new(StationId(0), Destination::Broadcast, vec![9]);
        let actions = fan_out(
            &faults,
            2,
            &mut stats,
            SimTime::ZERO,
            &frame,
            &[StationId(1), StationId(2)],
            &[StationId(2)],
        );
        assert!(actions.is_empty());
        assert_eq!(stats.recorder_blocked.get(), 1);
        assert_eq!(stats.lost.get(), 2);
        // The stall is attributed to the required recorder that missed the
        // frame, not to bystander receivers.
        assert_eq!(stats.blocked_at(StationId(2)), 1);
        assert_eq!(stats.blocked_at(StationId(1)), 0);
    }

    #[test]
    fn corruption_at_recorder_marks_unusable_for_receiver() {
        let faults = FaultPlan::new().with_frame_corruption(1.0);
        let mut stats = LanStats::default();
        let frame = Frame::new(StationId(0), Destination::Broadcast, vec![7, 7]);
        let actions = fan_out(
            &faults,
            3,
            &mut stats,
            SimTime::ZERO,
            &frame,
            &[StationId(1), StationId(9)],
            &[StationId(9)],
        );
        assert_eq!(actions.len(), 2);
        for a in &actions {
            if let LanAction::Deliver {
                frame: f,
                recorder_ok,
                ..
            } = a
            {
                assert!(!f.is_intact());
                assert!(!recorder_ok);
            }
        }
    }

    #[test]
    fn duplication_yields_second_delivery_later() {
        let faults = FaultPlan::new().with_frame_duplication(1.0);
        let mut stats = LanStats::default();
        let frame = Frame::new(StationId(0), Destination::Broadcast, vec![1]);
        let actions = fan_out(
            &faults,
            5,
            &mut stats,
            SimTime::from_millis(1),
            &frame,
            &[StationId(1)],
            &[],
        );
        let times: Vec<SimTime> = actions
            .iter()
            .filter_map(|a| match a {
                LanAction::Deliver { at, to, .. } if *to == StationId(1) => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(times.len(), 2);
        assert!(times[1] > times[0]);
        assert_eq!(stats.duplicated.get(), 1);
        assert_eq!(stats.delivered.get(), 2);
    }

    #[test]
    fn no_required_recorders_means_no_gating() {
        let faults = FaultPlan::new();
        let mut stats = LanStats::default();
        let frame = Frame::new(StationId(0), Destination::Broadcast, vec![]);
        let actions = fan_out(
            &faults,
            4,
            &mut stats,
            SimTime::ZERO,
            &frame,
            &[StationId(1)],
            &[],
        );
        match &actions[0] {
            LanAction::Deliver { recorder_ok, .. } => assert!(recorder_ok),
            _ => panic!(),
        }
        assert_eq!(stats.recorder_blocked.get(), 0);
    }
}
