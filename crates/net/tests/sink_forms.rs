//! The two forms of a medium's entry points agree, and a transmission
//! stays one buffer however it is read.
//!
//! `Lan::submit_into` / `Lan::timer_into` append to a buffer the driver
//! owns; `Lan::submit` / `Lan::timer` return a vector made for the call
//! (what `hostbench/` binds). Under the fault plan of `fault_order.rs` —
//! where the order of the actions is the order of the RNG draws — two
//! media built alike and driven in lockstep, one through each form, must
//! ask for exactly the same things, and the appending form must leave
//! what the buffer already held alone.

use publishing_net::bus::PerfectBus;
use publishing_net::ethernet::Ethernet;
use publishing_net::frame::{Destination, Frame, StationId};
use publishing_net::lan::{Lan, LanAction, LanConfig};
use publishing_sim::event::Scheduler;
use publishing_sim::fault::FaultPlan;
use publishing_sim::time::{SimDuration, SimTime};

/// The set-up of `fault_order.rs`: five stations, recorders at 3 and 4,
/// a lossy/corrupting/duplicating plan.
fn prepared(mut lan: impl Lan) -> impl Lan {
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
    lan
}

/// Drives `returning` through `submit` / `timer` and `appending` through
/// `submit_into` / `timer_into` over one reused buffer that always holds
/// a sentinel, on the schedule of `fault_order.rs` (six frames from
/// rotating senders 300 µs apart, then to quiescence), comparing every
/// call. Returns how many actions were compared.
fn lockstep(returning: impl Lan, appending: impl Lan) -> usize {
    let (mut returning, mut appending) = (prepared(returning), prepared(appending));
    let sentinel = LanAction::SetTimer {
        at: SimTime::from_nanos(7),
        token: u64::MAX,
    };
    let mut buffer = vec![sentinel.clone()];
    let mut sched: Scheduler<u64> = Scheduler::new();
    let mut compared = 0;
    let mut check = |sched: &mut Scheduler<u64>, returned: Vec<LanAction>, buffer: &mut Vec<_>| {
        assert_eq!(buffer[0], sentinel, "what the buffer held is untouched");
        assert_eq!(buffer[1..], returned[..], "appended == returned, in order");
        compared += returned.len();
        buffer.truncate(1);
        for a in returned {
            if let LanAction::SetTimer { at, token } = a {
                sched.schedule_at(at, token);
            }
        }
    };
    for i in 0..6u32 {
        let at = SimTime::ZERO + SimDuration::from_micros(300 * u64::from(i));
        while sched.peek_time().is_some_and(|t| t <= at) {
            let (now, token) = sched.pop().expect("peeked");
            appending.timer_into(now, token, &mut buffer);
            check(&mut sched, returning.timer(now, token), &mut buffer);
        }
        sched.advance_to(at);
        let payload = vec![i as u8; 40 + 10 * i as usize];
        let frame = Frame::new(StationId(i % 3), Destination::Broadcast, payload);
        appending.submit_into(at, frame.clone(), &mut buffer);
        check(&mut sched, returning.submit(at, frame), &mut buffer);
    }
    while let Some((now, token)) = sched.pop() {
        appending.timer_into(now, token, &mut buffer);
        check(&mut sched, returning.timer(now, token), &mut buffer);
    }
    compared
}

fn cfg() -> LanConfig {
    LanConfig {
        seed: 0x0DDE,
        ..LanConfig::default()
    }
}

#[test]
fn perfect_bus_appends_what_it_returns() {
    // 24 deliveries (the list pinned in `fault_order.rs`) + 6 outcomes.
    assert_eq!(lockstep(PerfectBus::new(cfg()), PerfectBus::new(cfg())), 30);
}

#[test]
fn acknowledging_ethernet_appends_what_it_returns() {
    let compared = lockstep(
        Ethernet::acknowledging(cfg()),
        Ethernet::acknowledging(cfg()),
    );
    // 23 deliveries pinned in `fault_order.rs`, six outcomes, and the
    // timers of every transmission, ack slot, deferral and backoff.
    assert!(compared > 23 + 6, "{compared}");
}

/// What the stations of a broadcast hold — the frame, its clones, views
/// decoded out of them — is one allocation, and damage in flight is
/// copy-on-write: a view taken before it keeps the undamaged bytes.
#[test]
fn views_of_a_transmission_share_its_buffer_and_survive_damage() {
    let bytes: Vec<u8> = (0..200u8).collect();
    let sent = Frame::new(StationId(1), Destination::Broadcast, bytes.clone());
    let mut heard: Vec<Frame> = (0..4).map(|_| sent.clone()).collect();
    let whole = sent.payload_bytes();
    let views = [whole.slice(21..), heard[0].payload_bytes().slice(60..)];
    // The frame, four clones, the whole view and two slices of it.
    assert_eq!(whole.ref_count(), 1 + 4 + 1 + 2);
    assert!(views.iter().all(|v| v.shares_buffer_with(&whole)));

    // Damage the sender's copy and two of the receivers', both ways.
    let mut sent = sent;
    sent.corrupt_in_flight();
    heard[0].corrupt_in_flight();
    heard[1].invalidate_fcs();
    heard[1].corrupt_in_flight();
    assert!(!sent.is_intact() && !heard[0].is_intact() && !heard[1].is_intact());
    assert_ne!(sent.payload(), &bytes[..]);
    // The damaged frames moved to buffers of their own …
    assert_eq!(whole.ref_count(), 2 + 1 + 2);
    assert!(!sent.payload_bytes().shares_buffer_with(&whole));
    // … and every view, and every undamaged clone, reads as it did.
    assert_eq!(whole, bytes);
    assert_eq!(views[0], &bytes[21..]);
    assert_eq!(views[1], &bytes[60..]);
    for f in &heard[2..] {
        assert!(f.is_intact());
        assert_eq!(f.payload(), &bytes[..]);
        assert!(f.payload_bytes().shares_buffer_with(&whole));
    }
    // An FCS complemented in place touches no bytes at all.
    heard[2].invalidate_fcs();
    assert!(heard[2].payload_bytes().shares_buffer_with(&whole));
    assert_eq!(views[1], &bytes[60..]);
}

/// A frame built from shared bytes that are a whole buffer adopts the
/// buffer; built from a part of one, or from a vector, it copies.
#[test]
fn a_frame_adopts_a_whole_shared_buffer() {
    use publishing_sim::codec::Bytes;
    let whole = Bytes::filled(64, |b| b.fill(9));
    let adopted = Frame::new(StationId(0), Destination::Broadcast, whole.clone());
    assert!(adopted.payload_bytes().shares_buffer_with(&whole));
    let part = Frame::new(StationId(0), Destination::Broadcast, whole.slice(8..));
    assert!(!part.payload_bytes().shares_buffer_with(&whole));
    assert_eq!(part.payload(), &whole[8..]);
    assert!(adopted.is_intact() && part.is_intact());
}
