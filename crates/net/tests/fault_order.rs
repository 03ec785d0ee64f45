//! The medium's RNG draw order under a fault plan is part of its
//! behaviour: loss/corruption rolls for every receiver first, then one
//! duplication roll per intact delivery. A reordering would leave every
//! fault-free run identical and silently change every faulty one, so the
//! delivery lists below are pinned to constants captured before frames
//! shared their bytes (parent of the shared-`Frame` change).

use publishing_net::bus::PerfectBus;
use publishing_net::ethernet::Ethernet;
use publishing_net::frame::{Destination, Frame, StationId};
use publishing_net::lan::{Lan, LanAction, LanConfig};
use publishing_sim::event::Scheduler;
use publishing_sim::fault::FaultPlan;
use publishing_sim::time::{SimDuration, SimTime};

/// `(station, delivery time in ns, intact?, recorder_ok)`.
type Delivery = (u32, u64, bool, bool);

/// Five stations, recorders at 3 and 4, a lossy/corrupting/duplicating
/// plan; six frames from rotating senders 300 µs apart, driven to
/// quiescence.
fn deliveries(mut lan: impl Lan) -> Vec<Delivery> {
    for s in 0..5 {
        lan.attach(StationId(s));
    }
    lan.set_required_recorders(vec![StationId(3), StationId(4)]);
    lan.set_faults(
        FaultPlan::new()
            .with_frame_loss(0.2)
            .with_frame_corruption(0.25)
            .with_frame_duplication(0.3),
    );
    let mut sched: Scheduler<u64> = Scheduler::new();
    let mut out = Vec::new();
    let mut apply = |sched: &mut Scheduler<u64>, actions: Vec<LanAction>| {
        for a in actions {
            match a {
                LanAction::SetTimer { at, token } => {
                    sched.schedule_at(at, token);
                }
                LanAction::Deliver {
                    at,
                    to,
                    frame,
                    recorder_ok,
                } => out.push((to.0, at.as_nanos(), frame.is_intact(), recorder_ok)),
                LanAction::TxOutcome { .. } => {}
            }
        }
    };
    for i in 0..6u32 {
        let at = SimTime::ZERO + SimDuration::from_micros(300 * u64::from(i));
        while sched.peek_time().is_some_and(|t| t <= at) {
            let (now, token) = sched.pop().expect("peeked");
            let actions = lan.timer(now, token);
            apply(&mut sched, actions);
        }
        sched.advance_to(at);
        let payload = vec![i as u8; 40 + 10 * i as usize];
        let frame = Frame::new(StationId(i % 3), Destination::Broadcast, payload);
        let actions = lan.submit(at, frame);
        apply(&mut sched, actions);
    }
    while let Some((now, token)) = sched.pop() {
        let actions = lan.timer(now, token);
        apply(&mut sched, actions);
    }
    out
}

fn cfg() -> LanConfig {
    LanConfig {
        seed: 0x0DDE,
        ..LanConfig::default()
    }
}

#[test]
fn perfect_bus_fault_draws_keep_their_order() {
    const EXPECTED: &[Delivery] = &[
        (2, 1646400, true, true),
        (3, 1646400, true, true),
        (3, 3246400, true, true),
        (4, 1646400, true, true),
        (0, 1954400, false, false),
        (2, 1954400, false, false),
        (3, 1954400, false, false),
        (4, 1954400, true, false),
        (0, 2262400, false, false),
        (1, 2262400, true, false),
        (3, 2262400, false, false),
        (4, 2262400, true, false),
        (4, 3862400, true, false),
        (1, 2570400, true, true),
        (2, 2570400, false, true),
        (3, 2570400, true, true),
        (3, 4170400, true, true),
        (4, 2570400, true, true),
        (2, 2878400, true, false),
        (3, 2878400, false, false),
        (4, 2878400, true, false),
        (1, 3186400, true, true),
        (3, 3186400, true, true),
        (4, 3186400, true, true),
    ];
    assert_eq!(deliveries(PerfectBus::new(cfg())), EXPECTED);
}

#[test]
fn acknowledging_ethernet_fault_draws_keep_their_order() {
    const EXPECTED: &[Delivery] = &[
        (1, 1646400, false, false),
        (2, 1646400, true, false),
        (3, 1646400, true, false),
        (4, 1646400, false, false),
        (0, 5108800, true, false),
        (2, 5108800, true, false),
        (3, 5108800, false, false),
        (0, 8619200, true, true),
        (0, 10219200, true, true),
        (2, 8619200, false, true),
        (3, 8619200, true, true),
        (4, 8619200, true, true),
        (0, 14075200, true, false),
        (1, 14075200, true, false),
        (3, 14075200, false, false),
        (4, 14075200, false, false),
        (0, 17601600, true, false),
        (1, 17601600, false, false),
        (4, 17601600, false, false),
        (1, 19425600, true, true),
        (2, 19425600, false, true),
        (3, 19425600, true, true),
        (4, 19425600, true, true),
    ];
    assert_eq!(deliveries(Ethernet::acknowledging(cfg())), EXPECTED);
}
