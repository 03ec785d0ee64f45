//! The Chapter 1 motivating workload: a distributed exhaustive key
//! search ("Diffie and Hellman have shown how to break the NBS/DES …
//! using a network of one million computers. A controlling computer
//! partitions the search space…").
//!
//! A controller farms chunks of a key space out to workers on several
//! nodes. With a mean time between failure of minutes, the day-long
//! search would never finish (§1's reliability motivation) — here a
//! worker's node crashes mid-search and publishing recovers it; the key
//! is still found exactly once and no chunk is searched twice from the
//! controller's point of view.
//!
//! Run with: `cargo run --example keysearch`

use publishing::core::world::WorldBuilder;
use publishing::demos::ids::{Channel, LinkId};
use publishing::demos::link::Link;
use publishing::demos::program::{Ctx, Program, Received};
use publishing::demos::registry::ProgramRegistry;
use publishing::sim::codec::{CodecError, Decoder, Encoder};
use publishing::sim::time::{SimDuration, SimTime};

/// The "cipher": a toy keyed permutation. The search looks for the key
/// that maps to the known target.
fn crypt(key: u64) -> u64 {
    key.wrapping_mul(6364136223846793005).rotate_left(17) ^ 0xDEAD_BEEF_CAFE_F00D
}

const SECRET_KEY: u64 = 48_611;
const CHUNK: u64 = 1_000;
const SPACE: u64 = 64_000;

/// The controller: assigns chunks to workers, collects reports, announces
/// the key.
struct Controller {
    workers: u32,
    next_chunk: u64,
    found: Option<u64>,
    reports: u64,
    announced_done: bool,
}

impl Controller {
    fn assign(&mut self, ctx: &mut Ctx<'_>, worker: LinkId) {
        if self.found.is_some() || self.next_chunk * CHUNK >= SPACE {
            return;
        }
        let lo = self.next_chunk * CHUNK;
        self.next_chunk += 1;
        let mut e = Encoder::new();
        e.u64(lo).u64(lo + CHUNK);
        let reply = ctx.create_link(Channel::DEFAULT, 0);
        let _ = ctx.send_passing(worker, e.finish(), reply);
    }
}

impl Program for Controller {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Initial links 0..workers-1 are the workers: two chunks each to
        // keep the pipeline full.
        for w in 0..self.workers {
            self.assign(ctx, LinkId(w));
            self.assign(ctx, LinkId(w));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        // Worker report: lo, found flag, key.
        let mut d = Decoder::new(&msg.body);
        let (Ok(lo), Ok(found), Ok(key)) = (d.u64(), d.bool(), d.u64()) else {
            return;
        };
        self.reports += 1;
        if found && self.found.is_none() {
            self.found = Some(key);
            ctx.output(format!("FOUND key {key} in chunk starting {lo}").into_bytes());
        }
        if self.found.is_none() {
            if let Some(worker) = msg.link {
                self.assign(ctx, worker);
            }
        }
        if !self.announced_done && (self.reports * CHUNK >= SPACE || self.found.is_some()) {
            self.announced_done = true;
            ctx.output(format!("search over after {} reports", self.reports).into_bytes());
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u32(self.workers).u64(self.next_chunk).u64(self.reports);
        e.option(self.found.as_ref(), |e, k| {
            e.u64(*k);
        });
        e.bool(self.announced_done);
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.workers = d.u32()?;
        self.next_chunk = d.u64()?;
        self.reports = d.u64()?;
        self.found = d.option(|d| d.u64())?;
        self.announced_done = d.bool()?;
        d.finish()
    }
}

/// A worker: exhaustively searches assigned chunks.
#[derive(Default)]
struct Worker {
    searched: u64,
    /// A link back to the controller for re-assignments; workers pass
    /// their own identity back with each report.
    controller_code: u32,
}

impl Program for Worker {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        let mut d = Decoder::new(&msg.body);
        let (Ok(lo), Ok(hi)) = (d.u64(), d.u64()) else {
            return;
        };
        let target = crypt(SECRET_KEY);
        let mut found = false;
        let mut key = 0u64;
        for k in lo..hi {
            if crypt(k) == target {
                found = true;
                key = k;
                break;
            }
        }
        self.searched += hi - lo;
        // Searching a chunk costs real CPU time.
        ctx.compute(SimDuration::from_millis(2));
        let Some(reply) = msg.link else { return };
        // Report and pass a fresh link to ourselves for the next chunk.
        let me = ctx.create_link(Channel::DEFAULT, self.controller_code);
        let mut e = Encoder::new();
        e.u64(lo).bool(found).u64(key);
        let _ = ctx.send_passing(reply, e.finish(), me);
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.searched).u32(self.controller_code);
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.searched = d.u64()?;
        self.controller_code = d.u32()?;
        d.finish()
    }
}

fn main() {
    const WORKERS: u32 = 3;
    let mut registry = ProgramRegistry::new();
    registry.register("controller", || {
        Box::new(Controller {
            workers: WORKERS,
            next_chunk: 0,
            found: None,
            reports: 0,
            announced_done: false,
        })
    });
    registry.register("worker", || Box::<Worker>::default());

    // Workers on nodes 1..=3, controller on node 0, recorder on node 4.
    let mut world = WorldBuilder::new(WORKERS + 1).registry(registry).build();
    let mut worker_links = Vec::new();
    for w in 0..WORKERS {
        let pid = world.spawn(w + 1, "worker", vec![]).unwrap();
        worker_links.push(Link::to(pid, Channel::DEFAULT, 0));
        println!("worker {} on node {}", pid, w + 1);
    }
    let controller = world.spawn(0, "controller", worker_links).unwrap();
    println!("controller {controller} searching {SPACE} keys in {CHUNK}-key chunks\n");

    // Crash worker node 2 mid-search.
    world.run_until(SimTime::from_millis(60));
    println!(
        "t={}  node 2 crashes (its worker is mid-chunk)…",
        world.now()
    );
    world.crash_node(2);

    world.run_until(SimTime::from_secs(60));
    println!("\ncontroller outputs:");
    let out = world.outputs_of(controller);
    for line in &out {
        println!("  {line}");
    }
    let found: Vec<_> = out.iter().filter(|l| l.starts_with("FOUND")).collect();
    assert_eq!(found.len(), 1, "the key is announced exactly once");
    assert!(found[0].contains(&SECRET_KEY.to_string()));
    println!(
        "\nnode crash detected by watchdog, worker recovered, key found exactly once ({} node \
         restarts)",
        world.tier.manager().stats().node_crashes.get()
    );
}
