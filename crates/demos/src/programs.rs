//! Reusable deterministic programs for tests, benches, and examples.
//!
//! These are the "user level processes" of the reproduction: small,
//! strictly deterministic state machines with full snapshot/restore
//! support, exercising the messaging patterns the thesis cares about —
//! request/reply with passed links, pipelines, fan-out, and synthetic
//! chatter for the recovery equivalence property tests.

use crate::ids::{Channel, ChannelSet, LinkId};
use crate::program::{Ctx, Program, Received};
use publishing_sim::codec::{Bytes, CodecError, Decoder, Encoder};
use publishing_sim::time::SimDuration;

/// Echoes every message body back over the link passed with the request,
/// counting echoes.
///
/// Request convention: the client passes a reply link in the message.
#[derive(Debug, Default, Clone)]
pub struct EchoServer {
    /// Messages echoed so far.
    pub echoed: u64,
}

impl Program for EchoServer {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        self.echoed += 1;
        if let Some(reply) = msg.link {
            let count = self.echoed.to_le_bytes();
            let body = Bytes::filled(msg.body.len() + count.len(), |buf| {
                let (echo, tail) = buf.split_at_mut(msg.body.len());
                echo.copy_from_slice(&msg.body);
                tail.copy_from_slice(&count);
            });
            let _ = ctx.send(reply, body);
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.echoed);
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.echoed = d.u64()?;
        d.finish()
    }
}

/// Sends `total` pings to the target on its initial link 0, waiting for
/// each echo before the next, and outputs one line per pong.
#[derive(Debug, Clone)]
pub struct PingClient {
    /// Pings to send in total.
    pub total: u64,
    /// Pings sent so far.
    pub sent: u64,
    /// Pongs received so far.
    pub received: u64,
    /// CPU charged per pong handled (models per-iteration user work).
    pub think_ns: u64,
}

impl PingClient {
    /// Creates a client that will send `total` pings.
    pub fn new(total: u64) -> Self {
        PingClient {
            total,
            sent: 0,
            received: 0,
            think_ns: 0,
        }
    }

    fn ping(&mut self, ctx: &mut Ctx<'_>) {
        self.sent += 1;
        let reply = ctx.create_link(Channel::DEFAULT, 0);
        let mut body = Vec::new();
        body.extend_from_slice(&self.sent.to_le_bytes());
        let _ = ctx.send_passing(LinkId(0), body, reply);
    }
}

impl Program for PingClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.total > 0 {
            self.ping(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        self.received += 1;
        ctx.compute(SimDuration::from_nanos(self.think_ns));
        let _ = &msg.body;
        ctx.output(format!("pong {}", self.received).into_bytes());
        if self.sent < self.total {
            self.ping(ctx);
        } else {
            ctx.output(b"done".to_vec());
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.total)
            .u64(self.sent)
            .u64(self.received)
            .u64(self.think_ns);
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.total = d.u64()?;
        self.sent = d.u64()?;
        self.received = d.u64()?;
        self.think_ns = d.u64()?;
        d.finish()
    }
}

/// Accumulates little-endian u64 message bodies; on an empty body, reports
/// the running total over the passed reply link and as output.
#[derive(Debug, Default, Clone)]
pub struct Accumulator {
    /// Running total.
    pub total: u64,
    /// Values folded in.
    pub count: u64,
}

impl Program for Accumulator {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        if msg.body.is_empty() {
            ctx.output(format!("total={} count={}", self.total, self.count).into_bytes());
            if let Some(reply) = msg.link {
                let _ = ctx.send(reply, self.total.to_le_bytes().to_vec());
            }
            return;
        }
        if let Ok(arr) = <[u8; 8]>::try_from(&msg.body[..]) {
            self.total = self.total.wrapping_add(u64::from_le_bytes(arr));
            self.count += 1;
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.total).u64(self.count);
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.total = d.u64()?;
        self.count = d.u64()?;
        d.finish()
    }
}

/// Forwards each message body to its initial link 0 after folding it into
/// a running digest — a pipeline stage (the §2.2 "data pipelined from one
/// process to another" workload where transactions are unnatural).
#[derive(Debug, Default, Clone)]
pub struct Forwarder {
    /// FNV-1a digest of everything forwarded.
    pub digest: u64,
    /// Messages forwarded.
    pub forwarded: u64,
}

impl Forwarder {
    fn fold(&mut self, bytes: &[u8]) {
        let mut h = if self.digest == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.digest
        };
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.digest = h;
    }
}

impl Program for Forwarder {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        self.fold(&msg.body);
        self.forwarded += 1;
        let _ = ctx.send(LinkId(0), msg.body);
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.digest).u64(self.forwarded);
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.digest = d.u64()?;
        self.forwarded = d.u64()?;
        d.finish()
    }
}

/// A sink that digests everything it receives and emits the digest as
/// output every message — the observable end of a pipeline.
#[derive(Debug, Default, Clone)]
pub struct DigestSink {
    /// FNV-1a digest of everything received.
    pub digest: u64,
    /// Messages received.
    pub received: u64,
}

impl Program for DigestSink {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        let mut h = if self.digest == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.digest
        };
        for &b in &msg.body[..] {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.digest = h;
        self.received += 1;
        ctx.output(format!("digest {} after {}", self.digest, self.received).into_bytes());
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.digest).u64(self.received);
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.digest = d.u64()?;
        self.received = d.u64()?;
        d.finish()
    }
}

/// A deterministic chatterbox for the recovery-equivalence property tests:
/// every message it receives advances an internal LCG which decides how
/// many messages to send (0–2), to which of its initial links, with what
/// body, and how much CPU to charge. All decisions are pure functions of
/// (seed, messages seen), never of time.
#[derive(Debug, Clone)]
pub struct Chatter {
    /// LCG state (seeded at construction).
    pub state: u64,
    /// Number of initial links it may send to.
    pub fanout: u32,
    /// Messages received.
    pub received: u64,
    /// Messages sent.
    pub sent: u64,
    /// Whether to emit an output line per message.
    pub noisy: bool,
}

impl Chatter {
    /// Creates a chatterbox with `fanout` initial links and an LCG seed.
    pub fn new(seed: u64, fanout: u32, noisy: bool) -> Self {
        Chatter {
            state: seed.wrapping_mul(2).wrapping_add(1),
            fanout,
            received: 0,
            sent: 0,
            noisy,
        }
    }

    fn next(&mut self) -> u64 {
        // Knuth's MMIX LCG constants: deterministic, portable.
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state
    }
}

impl Program for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.fanout > 0 {
            let r = self.next();
            let target = LinkId((r % self.fanout as u64) as u32);
            self.sent += 1;
            let _ = ctx.send(target, r.to_le_bytes().to_vec());
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        self.received += 1;
        // Fold the body into the state so behaviour depends on content.
        for &b in &msg.body[..] {
            self.state = self.state.wrapping_add(b as u64).rotate_left(7);
        }
        let r = self.next();
        let n_sends = (r >> 8) % 3;
        for i in 0..n_sends {
            if self.fanout == 0 {
                break;
            }
            let r2 = self.next();
            let target = LinkId((r2 % self.fanout as u64) as u32);
            self.sent += 1;
            let mut body = r2.to_le_bytes().to_vec();
            body.push(i as u8);
            let _ = ctx.send(target, body);
        }
        ctx.compute(SimDuration::from_micros(self.next() % 500));
        if self.noisy {
            ctx.output(format!("chat {} {}", self.received, self.state).into_bytes());
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.state)
            .u32(self.fanout)
            .u64(self.received)
            .u64(self.sent)
            .bool(self.noisy);
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.state = d.u64()?;
        self.fanout = d.u32()?;
        self.received = d.u64()?;
        self.sent = d.u64()?;
        self.noisy = d.bool()?;
        d.finish()
    }
}

/// A program that reads selectively by channel: it alternates between
/// accepting only the urgent channel and accepting everything, exercising
/// the §4.4.2 out-of-order read machinery.
#[derive(Debug, Clone)]
pub struct ChannelReader {
    /// The urgent channel.
    pub urgent: Channel,
    /// Messages read.
    pub reads: u64,
}

impl ChannelReader {
    /// Creates a reader treating `urgent` as the priority channel.
    pub fn new(urgent: Channel) -> Self {
        ChannelReader { urgent, reads: 0 }
    }
}

impl Program for ChannelReader {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_receive(ChannelSet::of(&[self.urgent]));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        self.reads += 1;
        ctx.output(
            format!(
                "read {} ch{} [{}]",
                self.reads,
                msg.channel.0,
                msg.body.len()
            )
            .into_bytes(),
        );
        // Alternate: urgent-only on even reads, everything on odd.
        if self.reads.is_multiple_of(2) {
            ctx.set_receive(ChannelSet::of(&[self.urgent]));
        } else {
            ctx.set_receive(ChannelSet::ALL);
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u8(self.urgent.0).u64(self.reads);
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.urgent = Channel(d.u8()?);
        self.reads = d.u64()?;
        d.finish()
    }
}

/// Registers the standard programs under their conventional names.
pub fn register_standard(reg: &mut crate::registry::ProgramRegistry) {
    reg.register("echo", || Box::new(EchoServer::default()));
    reg.register("accumulator", || Box::new(Accumulator::default()));
    reg.register("forwarder", || Box::new(Forwarder::default()));
    reg.register("digest-sink", || Box::new(DigestSink::default()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;
    use crate::link::LinkTable;

    /// Runs `f` with a throwaway Ctx, returning (effects, mask, compute).
    fn drive<P: Program>(
        prog: &mut P,
        links: &mut LinkTable,
        f: impl FnOnce(&mut P, &mut Ctx<'_>),
    ) -> Vec<crate::program::Effect> {
        let mut effects = Vec::new();
        let mut mask = ChannelSet::ALL;
        let mut stop = false;
        let mut compute = SimDuration::ZERO;
        let mut ctx = Ctx::new(
            ProcessId::new(1, 1),
            links,
            &mut effects,
            &mut mask,
            &mut stop,
            &mut compute,
        );
        f(prog, &mut ctx);
        effects
    }

    fn snapshot_restore_roundtrip<P: Program + Clone>(p: &P, mut fresh: P) {
        let snap = p.snapshot();
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.snapshot(), snap);
    }

    #[test]
    fn all_programs_snapshot_roundtrip() {
        let mut chatter = Chatter::new(42, 3, true);
        chatter.received = 7;
        snapshot_restore_roundtrip(&chatter, Chatter::new(0, 0, false));
        let mut ping = PingClient::new(10);
        ping.sent = 4;
        snapshot_restore_roundtrip(&ping, PingClient::new(0));
        let echo = EchoServer { echoed: 3 };
        snapshot_restore_roundtrip(&echo, EchoServer::default());
        let acc = Accumulator { total: 9, count: 2 };
        snapshot_restore_roundtrip(&acc, Accumulator::default());
        let fwd = Forwarder {
            digest: 1,
            forwarded: 2,
        };
        snapshot_restore_roundtrip(&fwd, Forwarder::default());
        let sink = DigestSink {
            digest: 5,
            received: 6,
        };
        snapshot_restore_roundtrip(&sink, DigestSink::default());
        let rdr = ChannelReader {
            urgent: Channel(5),
            reads: 9,
        };
        snapshot_restore_roundtrip(&rdr, ChannelReader::new(Channel(0)));
    }

    #[test]
    fn chatter_is_deterministic() {
        let run = |seed| {
            let mut c = Chatter::new(seed, 2, false);
            let mut links = LinkTable::new();
            links.insert(crate::link::Link::to(ProcessId::new(2, 1), Channel(0), 0));
            links.insert(crate::link::Link::to(ProcessId::new(2, 2), Channel(0), 0));
            let mut all = Vec::new();
            for i in 0..20u64 {
                let effects = drive(&mut c, &mut links, |c, ctx| {
                    c.on_message(
                        ctx,
                        Received {
                            code: 0,
                            channel: Channel(0),
                            body: i.to_le_bytes().to_vec().into(),
                            link: None,
                        },
                    )
                });
                all.push(effects);
            }
            (c.snapshot(), all)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn accumulator_totals_and_reports() {
        let mut acc = Accumulator::default();
        let mut links = LinkTable::new();
        for v in [3u64, 4] {
            drive(&mut acc, &mut links, |a, ctx| {
                a.on_message(
                    ctx,
                    Received {
                        code: 0,
                        channel: Channel(0),
                        body: v.to_le_bytes().to_vec().into(),
                        link: None,
                    },
                )
            });
        }
        let effects = drive(&mut acc, &mut links, |a, ctx| {
            a.on_message(
                ctx,
                Received {
                    code: 0,
                    channel: Channel(0),
                    body: vec![].into(),
                    link: None,
                },
            )
        });
        assert_eq!(acc.total, 7);
        match &effects[0] {
            crate::program::Effect::Output(o) => {
                assert_eq!(String::from_utf8_lossy(o), "total=7 count=2")
            }
            _ => panic!(),
        }
    }

    #[test]
    fn forwarder_digest_changes_with_content() {
        let mut f1 = Forwarder::default();
        let mut f2 = Forwarder::default();
        let mut links = LinkTable::new();
        links.insert(crate::link::Link::to(ProcessId::new(2, 1), Channel(0), 0));
        drive(&mut f1, &mut links, |f, ctx| {
            f.on_message(
                ctx,
                Received {
                    code: 0,
                    channel: Channel(0),
                    body: vec![1].into(),
                    link: None,
                },
            )
        });
        drive(&mut f2, &mut links, |f, ctx| {
            f.on_message(
                ctx,
                Received {
                    code: 0,
                    channel: Channel(0),
                    body: vec![2].into(),
                    link: None,
                },
            )
        });
        assert_ne!(f1.digest, f2.digest);
    }

    #[test]
    fn channel_reader_alternates_masks() {
        let mut r = ChannelReader::new(Channel(5));
        let mut links = LinkTable::new();
        let mut effects = Vec::new();
        let mut mask = ChannelSet::ALL;
        let mut stop = false;
        let mut compute = SimDuration::ZERO;
        {
            let mut ctx = Ctx::new(
                ProcessId::new(1, 1),
                &mut links,
                &mut effects,
                &mut mask,
                &mut stop,
                &mut compute,
            );
            r.on_start(&mut ctx);
        }
        assert!(mask.contains(Channel(5)));
        assert!(!mask.contains(Channel(0)));
        {
            let mut ctx = Ctx::new(
                ProcessId::new(1, 1),
                &mut links,
                &mut effects,
                &mut mask,
                &mut stop,
                &mut compute,
            );
            r.on_message(
                &mut ctx,
                Received {
                    code: 0,
                    channel: Channel(5),
                    body: vec![].into(),
                    link: None,
                },
            );
        }
        // After one (odd) read the mask opens up.
        assert!(mask.contains(Channel(0)));
    }
}
