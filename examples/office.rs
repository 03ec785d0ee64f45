//! The automated office of Chapter 1 (the XEROX STAR configuration):
//! personal workstations sharing an expensive printer over the LAN,
//! with rendezvous through the named-link server (§4.2.2.1).
//!
//! Two secretaries' word processors stream print jobs to the shared
//! printer. The printer crashes mid-job; publishing restores it and every
//! page comes out exactly once, in order — neither secretary resubmits
//! anything.
//!
//! Run with: `cargo run --example office`

use publishing::core::checkpoint::CheckpointPolicy;
use publishing::core::node::RecorderConfig;
use publishing::core::world::WorldBuilder;
use publishing::demos::ids::{Channel, LinkId};
use publishing::demos::link::Link;
use publishing::demos::program::{Ctx, Program, Received};
use publishing::demos::registry::ProgramRegistry;
use publishing::demos::sysproc::{sys_codes, NameServer};
use publishing::sim::codec::{CodecError, Decoder, Encoder};
use publishing::sim::time::{SimDuration, SimTime};

/// The shared printer: prints each page it receives, in arrival order.
#[derive(Default)]
struct Printer {
    pages: u64,
}

impl Program for Printer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Register ourselves with the name server (initial link 0).
        let me = ctx.create_link(Channel::DEFAULT, 0);
        let mut e = Encoder::new();
        e.u32(sys_codes::NS_REGISTER);
        e.str("laser-printer");
        let _ = ctx.send_passing(LinkId(0), e.finish(), me);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        self.pages += 1;
        // Printing a page takes a while.
        ctx.compute(SimDuration::from_millis(3));
        ctx.output(
            format!(
                "page {:>3}: {}",
                self.pages,
                String::from_utf8_lossy(&msg.body)
            )
            .into_bytes(),
        );
    }

    fn snapshot(&self) -> Vec<u8> {
        self.pages.to_le_bytes().to_vec()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        self.pages =
            u64::from_le_bytes(bytes.try_into().map_err(|_| CodecError::UnexpectedEnd {
                needed: 8,
                remaining: bytes.len(),
            })?);
        Ok(())
    }
}

/// A word processor: looks the printer up by name, then streams pages.
struct WordProcessor {
    who: &'static str,
    pages: u64,
    sent: u64,
    printer: Option<u32>,
}

impl Program for WordProcessor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Look up the printer at the name server (initial link 0).
        let reply = ctx.create_link(Channel::DEFAULT, 0);
        let mut e = Encoder::new();
        e.u32(sys_codes::NS_LOOKUP);
        e.str("laser-printer");
        let _ = ctx.send_passing(LinkId(0), e.finish(), reply);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        if self.printer.is_none() {
            // The lookup reply carries the printer link.
            let Some(printer) = msg.link else { return };
            // Check the found flag; retry on a miss (the printer may not
            // have registered yet — our printer registers first, so a miss
            // means a malformed reply).
            self.printer = Some(printer.0);
        }
        let printer = LinkId(self.printer.expect("just set"));
        // Stream the document, one page per activation, driven by a
        // self-message "typing loop".
        if self.sent < self.pages {
            self.sent += 1;
            let text = format!("{} — draft page {}", self.who, self.sent);
            let _ = ctx.send(printer, text.into_bytes());
            // Keep typing: a self-message drives the next page.
            let me = ctx.create_link(Channel::DEFAULT, 1);
            ctx.compute(SimDuration::from_millis(2));
            let _ = ctx.send(me, vec![]);
        } else if self.sent == self.pages {
            self.sent += 1; // say it once
            ctx.output(format!("{} finished typing", self.who).into_bytes());
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(self.who).u64(self.pages).u64(self.sent);
        e.option(self.printer.as_ref(), |e, p| {
            e.u32(*p);
        });
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        let who = d.str()?;
        self.who = match who.as_str() {
            "amelia" => "amelia",
            _ => "bruno",
        };
        self.pages = d.u64()?;
        self.sent = d.u64()?;
        self.printer = d.option(|d| d.u32())?;
        d.finish()
    }
}

fn main() {
    let mut registry = ProgramRegistry::new();
    registry.register("namesrv", || Box::new(NameServer::new()));
    registry.register("printer", || Box::<Printer>::default());
    registry.register("amelia", || {
        Box::new(WordProcessor {
            who: "amelia",
            pages: 6,
            sent: 0,
            printer: None,
        })
    });
    registry.register("bruno", || {
        Box::new(WordProcessor {
            who: "bruno",
            pages: 6,
            sent: 0,
            printer: None,
        })
    });

    // Checkpoint eagerly so the printer recovers from near its crash
    // point rather than from page one.
    let rc = RecorderConfig {
        policy: CheckpointPolicy::Periodic(SimDuration::from_millis(40)),
        policy_tick: SimDuration::from_millis(10),
    };
    let mut world = WorldBuilder::new(3).registry(registry).recorder(rc).build();

    let namesrv = world.spawn(0, "namesrv", vec![]).unwrap();
    let printer = world
        .spawn(0, "printer", vec![Link::to(namesrv, Channel::DEFAULT, 0)])
        .unwrap();
    // Give the printer a beat to register before the lookups.
    world.run_until(SimTime::from_millis(10));
    let _amelia = world
        .spawn(1, "amelia", vec![Link::to(namesrv, Channel::DEFAULT, 0)])
        .unwrap();
    let _bruno = world
        .spawn(2, "bruno", vec![Link::to(namesrv, Channel::DEFAULT, 0)])
        .unwrap();

    world.run_until(SimTime::from_millis(40));
    println!("t={}  the printer jams (process crash)…\n", world.now());
    world.crash_process(printer, "paper jam");

    world.run_until(SimTime::from_secs(30));
    println!("printer output (deduplicated):");
    let pages = world.outputs_of(printer);
    for line in &pages {
        println!("  {line}");
    }
    assert_eq!(pages.len(), 12, "12 pages exactly once: {}", pages.len());
    // Page numbers are strictly sequential — no page lost or duplicated.
    for (i, line) in pages.iter().enumerate() {
        assert!(line.starts_with(&format!("page {:>3}:", i + 1)), "{line}");
    }
    println!("\nall 12 pages printed exactly once across the crash.");
    println!(
        "recorder stored {} checkpoints; replay covered {} messages.",
        world.tier.recorder().stats().checkpoints.get(),
        world.tier.manager().stats().replayed.get()
    );
}
