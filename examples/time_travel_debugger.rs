//! Debugging using published messages (§6.5).
//!
//! "One of the great problems of distributed debugging is finding out
//! what happened after the fact." A buggy accumulator service corrupts
//! its total when it processes a particular poisoned value. We run the
//! system live, notice the wrong answer, then attach the replay debugger
//! to the recorder's history, set a breakpoint on the corruption, and
//! single-step to the exact offending message — then rewind and watch it
//! again.
//!
//! Run with: `cargo run --example time_travel_debugger`

use publishing::core::debugger::ReplayDebugger;
use publishing::core::world::WorldBuilder;
use publishing::demos::ids::{Channel, LinkId};
use publishing::demos::link::Link;
use publishing::demos::program::{Ctx, Program, Received};
use publishing::demos::registry::ProgramRegistry;
use publishing::sim::codec::{CodecError, Decoder, Encoder};
use publishing::sim::time::SimTime;

/// A counting service with a planted bug: value 13 doubles the total
/// instead of adding.
#[derive(Debug, Default, Clone)]
struct BuggyAccumulator {
    total: u64,
}

impl Program for BuggyAccumulator {
    fn on_start(&mut self, _: &mut Ctx<'_>) {}

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Received) {
        if let Ok(arr) = <[u8; 8]>::try_from(&msg.body[..]) {
            let v = u64::from_le_bytes(arr);
            if v == 13 {
                // The bug.
                self.total *= 2;
            } else {
                self.total += v;
            }
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.total);
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.total = d.u64()?;
        d.finish()
    }
}

/// Feeds a fixed stream of values to the accumulator.
struct Feeder;

impl Program for Feeder {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for v in [5u64, 9, 2, 13, 7, 1] {
            let _ = ctx.send(LinkId(0), v.to_le_bytes().to_vec());
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_>, _: Received) {}
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }
    fn restore(&mut self, _: &[u8]) -> Result<(), CodecError> {
        Ok(())
    }
}

fn total_of(state: &[u8]) -> u64 {
    let mut acc = BuggyAccumulator::default();
    acc.restore(state).expect("state decodes");
    acc.total
}

fn main() {
    let mut registry = ProgramRegistry::new();
    registry.register("buggy-acc", || Box::<BuggyAccumulator>::default());
    registry.register("feeder", || Box::new(Feeder));

    let mut world = WorldBuilder::new(2).registry(registry.clone()).build();
    let acc = world.spawn(1, "buggy-acc", vec![]).unwrap();
    let _feeder = world
        .spawn(0, "feeder", vec![Link::to(acc, Channel::DEFAULT, 0)])
        .unwrap();
    world.run_until(SimTime::from_secs(2));

    let live_total = total_of(
        &world.kernels[1]
            .process(acc.local)
            .unwrap()
            .program
            .snapshot(),
    );
    println!("live system: accumulator total = {live_total}");
    println!("expected 5+9+2+13+7+1 = 37 — something is wrong.\n");

    // Attach the §6.5 debugger to the published history.
    let mut dbg =
        ReplayDebugger::attach(world.tier.recorder(), &registry, acc).expect("history available");
    println!("replaying {} published messages…", dbg.stream_len());

    // Breakpoint: the first step where the total stops matching the sum.
    let mut expected = 0u64;
    let hit = dbg
        .run_until(|report| {
            let v = u64::from_le_bytes(report.message.body[..8].try_into().unwrap());
            let would_be = expected + v;
            let actual = total_of(&report.state_after);
            if actual == would_be {
                expected = actual;
                false
            } else {
                true
            }
        })
        .expect("divergence found");
    let v = u64::from_le_bytes(hit.message.body[..8].try_into().unwrap());
    println!(
        "breakpoint: read index {} — input {} from {} produced total {} (expected {})",
        hit.read_index,
        v,
        hit.message.header.from(),
        total_of(&hit.state_after),
        expected + v
    );

    // Time travel: rewind and single-step the whole history.
    println!("\nrewinding and single-stepping:");
    dbg.rewind_to(0);
    while let Some(report) = dbg.step() {
        let v = u64::from_le_bytes(report.message.body[..8].try_into().unwrap());
        println!(
            "  step {}: input {:>2} → total {:>3}",
            report.read_index,
            v,
            total_of(&report.state_after)
        );
    }
    println!("\nthe poisoned input is 13: the service doubles instead of adding.");
    assert_eq!(v, 13);
}
