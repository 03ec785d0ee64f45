//! Layer kernels: small closed loops over one layer's public functions,
//! sized from the counts the run just produced, so every layer has a
//! cost per operation to set beside its operation count.
//!
//! A kernel is a *model* of the layer's cost inside a run, not a
//! measurement of it: the layer runs alone, cache-warm, with synthetic
//! arguments. `world.model_coverage` (the modelled shares summed) is the
//! number the later in-program tracer will agree or disagree with.

use publishing_chaos::{Medium, Topology};
use publishing_net::bus::PerfectBus;
use publishing_net::crc::crc32;
use publishing_net::ethernet::Ethernet;
use publishing_net::frame::{Destination, Frame, StationId, HEADER_BYTES};
use publishing_net::lan::{Lan, LanAction, LanConfig};
use publishing_obs::{MsgKey, SpanLog, Stage, DEFAULT_SPAN_CAPACITY};
use publishing_sim::event::Scheduler;
use publishing_sim::time::{SimDuration, SimTime};
use publishing_stable::disk::DiskParams;
use publishing_stable::store::{RecordKey, StableStore, StoreEvent, StoreIo};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Each kernel repeats its batch this many times and reports the
/// fastest: the least-disturbed pass is the best estimate of the cost.
const PASSES: usize = 5;

/// Fastest of [`PASSES`] timings of `batch`, in ns per operation.
fn best_ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let t = Instant::now();
        batch();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best / ops.max(1) as f64
}

/// One step of Marsaglia's 64-bit xorshift: cheap event-time jitter.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `sim`: the classic hold model on `Scheduler` — keep `depth` events
/// pending; each operation pops the earliest and schedules a successor.
/// Returns ns per hold (one `pop` + one `schedule_at`).
pub fn sched_hold_ns(depth: usize, holds: u64) -> f64 {
    let depth = depth.max(1);
    let holds = holds.clamp(10_000, 400_000);
    best_ns_per_op(holds, || {
        let mut sched: Scheduler<u64> = Scheduler::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..depth as u64 {
            sched.schedule_at(SimTime::from_nanos(xorshift(&mut x) >> 40), i);
        }
        for _ in 0..holds {
            let (at, id) = sched.pop().expect("depth events pending");
            let gap = SimDuration::from_nanos(1 + (xorshift(&mut x) >> 44));
            sched.schedule_at(at + gap, black_box(id));
        }
        black_box(sched.delivered());
    })
}

/// Stations on the medium for a tier: the processing nodes plus one
/// station per recorder (single), shard or replica.
pub fn stations(topology: Topology) -> (u32, u32) {
    use publishing_chaos::scenario::{REPLICAS, SHARDS};
    let recorders = match topology {
        Topology::Single => 1,
        Topology::Sharded => SHARDS,
        Topology::Quorum => REPLICAS,
    };
    (publishing_chaos::NODES, recorders)
}

/// `net`: the workload's medium driven alone. Frames of the run's mean
/// size go out in a fixed pattern — two stations at the same instant (a
/// collision on the ethernet), then two singles — and every timer the
/// medium asks for is fed back in time order. Returns ns per submitted
/// frame.
pub fn lan_ns_per_frame(medium: Medium, topology: Topology, frame_bytes: f64, frames: u64) -> f64 {
    let frames = frames.clamp(2_000, 100_000) / 4 * 4;
    let (nodes, recorders) = stations(topology);
    let payload = vec![0xa5u8; (frame_bytes as usize).saturating_sub(HEADER_BYTES).max(1)];
    let protos: Vec<Frame> = (0..nodes)
        .map(|n| Frame::new(StationId(n), Destination::Broadcast, payload.clone()))
        .collect();
    best_ns_per_op(frames, || {
        let mut lan: Box<dyn Lan> = match medium {
            Medium::Perfect => Box::new(PerfectBus::new(LanConfig::default())),
            Medium::Ethernet => Box::new(Ethernet::acknowledging(LanConfig::default())),
        };
        for s in 0..nodes + recorders {
            lan.attach(StationId(s));
        }
        lan.set_required_recorders((nodes..nodes + recorders).map(StationId).collect());
        let mut timers: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut now = SimTime::ZERO;
        let absorb = |actions: Vec<LanAction>, timers: &mut BinaryHeap<Reverse<(SimTime, u64)>>| {
            for a in actions {
                match a {
                    LanAction::SetTimer { at, token } => timers.push(Reverse((at, token))),
                    other => {
                        black_box(other);
                    }
                }
            }
        };
        let mut sent = 0u64;
        while sent < frames {
            // Step 0 of every four: a simultaneous pair. Steps 1, 2: singles.
            let burst = match sent % 4 {
                0 => 2,
                _ => 1,
            };
            for b in 0..burst {
                let from = ((sent + b) % u64::from(nodes)) as usize;
                let actions = lan.submit(now, protos[from].clone());
                absorb(actions, &mut timers);
            }
            sent += burst;
            while let Some(Reverse((at, token))) = timers.pop() {
                now = now.max(at);
                let actions = lan.timer(now, token);
                absorb(actions, &mut timers);
            }
            now += SimDuration::from_micros(200);
        }
        black_box(lan.stats().delivered.get());
    })
}

/// `net`: one frame's life outside the medium — `Frame::new` (FCS over
/// the payload), `is_intact` at a receiver, and one `clone` (the copy a
/// delivery makes today). Returns ns per frame.
pub fn frame_ns(frame_bytes: f64) -> f64 {
    let payload = vec![0x5au8; (frame_bytes as usize).saturating_sub(HEADER_BYTES).max(1)];
    let ops = 50_000;
    best_ns_per_op(ops, || {
        for i in 0..ops {
            let f = Frame::new(
                StationId((i % 3) as u32),
                Destination::Broadcast,
                black_box(payload.clone()),
            );
            let copy = black_box(f.clone());
            assert!(black_box(&f).is_intact());
            black_box(copy.wire_bytes());
        }
    })
}

/// `net`: `crc32` over a 1 KiB buffer. Returns MB/s (10^6 bytes).
pub fn crc_mb_per_s() -> f64 {
    let buf: Vec<u8> = (0..1024u32).map(|i| (i * 31) as u8).collect();
    let ops = 20_000;
    let ns = best_ns_per_op(ops, || {
        let mut acc = 0u32;
        for _ in 0..ops {
            acc ^= crc32(black_box(&buf));
        }
        black_box(acc);
    });
    buf.len() as f64 * 1e3 / ns
}

/// `stable`: `append_message` at the run's mean payload, a `flush` every
/// eighth append (appends also flush by themselves when a page fills),
/// and `on_disk_complete` for every IO the store starts. A fresh store
/// per batch of `appends`, as a world has. Returns ns per append.
pub fn store_append_ns(payload_bytes: f64, appends: u64) -> f64 {
    let appends = appends.clamp(500, 20_000);
    let payload = vec![0x3cu8; (payload_bytes as usize).max(1)];
    best_ns_per_op(appends, || {
        let mut store = StableStore::new(DiskParams::default(), 1);
        let mut now = SimTime::ZERO;
        let complete = |store: &mut StableStore, now: &mut SimTime, ios: Vec<StoreIo>| {
            let mut queue = ios;
            while let Some(io) = queue.pop() {
                *now = (*now).max(io.at);
                for ev in store.on_disk_complete(*now, io) {
                    if let StoreEvent::FollowUpIo(next) = ev {
                        queue.push(next);
                    }
                }
            }
        };
        for i in 0..appends {
            now += SimDuration::from_micros(500);
            let key = RecordKey {
                pid: i % 6,
                seq: i / 6,
            };
            let ios = store.append_message(now, key, payload.clone());
            complete(&mut store, &mut now, ios);
            if i % 8 == 7 {
                let ios = store.flush(now);
                complete(&mut store, &mut now, ios);
            }
        }
        black_box(store.stats().pages_written.get());
    })
}

/// `obs`: `SpanLog::record` into a log of the default capacity, one log
/// per batch of `spans`, as a component has. Returns ns per record.
pub fn span_record_ns(spans: u64) -> f64 {
    let spans = spans.clamp(2_000, 200_000);
    const STAGES: [Stage; 4] = [
        Stage::Publish,
        Stage::Capture,
        Stage::Sequence,
        Stage::Deliver,
    ];
    best_ns_per_op(spans, || {
        let mut log = SpanLog::new(DEFAULT_SPAN_CAPACITY);
        for i in 0..spans {
            let key = MsgKey {
                sender: (i % 3) << 32 | 1,
                seq: i / 4,
            };
            log.record(
                SimTime::from_micros(i * 37),
                key,
                STAGES[(i % 4) as usize],
                2 << 32 | (1 + i % 4),
                i / 4,
            );
        }
        black_box(log.fingerprint());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sane(x: f64) -> bool {
        x.is_finite() && x > 0.0
    }

    #[test]
    fn every_kernel_returns_a_positive_finite_cost() {
        assert!(sane(sched_hold_ns(64, 10_000)));
        for medium in [Medium::Perfect, Medium::Ethernet] {
            for topo in [Topology::Single, Topology::Sharded, Topology::Quorum] {
                assert!(sane(lan_ns_per_frame(medium, topo, 150.0, 2_000)));
            }
        }
        assert!(sane(frame_ns(150.0)));
        assert!(sane(crc_mb_per_s()));
        assert!(sane(store_append_ns(225.0, 500)));
        assert!(sane(span_record_ns(2_000)));
    }

    #[test]
    fn station_counts_follow_the_tier() {
        assert_eq!(stations(Topology::Single), (3, 1));
        assert_eq!(stations(Topology::Sharded), (3, 3));
        assert_eq!(stations(Topology::Quorum), (3, 3));
    }
}
