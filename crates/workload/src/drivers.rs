//! The compiled publish drivers: per-user load generators and
//! per-subject sinks.
//!
//! A [`LoadGen`] is a deterministic [`Program`] modeling a *cohort* of
//! simulated users — the same structure as the paper's §5.3 user
//! simulators, where a few processes generated the load of many users.
//! It self-paces with tick messages: each tick it charges one tick of
//! virtual CPU, accrues fractional publish credit at `cohort ×` the
//! spec's phase-modulated per-user rate, and publishes that many
//! messages to subject sinks (Zipf-skewed when a hotspot phase is
//! active, uniform otherwise). At the horizon it sends a flush to every
//! sink, reports `sent N` / `done`, and stops. One generator per node
//! keeps the pacing honest: processing nodes have one CPU, so a second
//! co-located generator would queue behind the first's compute and
//! distort every latency the SLOs measure. A [`SubjectSink`] counts
//! arrivals — burning a tick of CPU per message while a stall phase
//! covers it — and reports `got N` / `done` once every generator's
//! flush has arrived, which per-sender FIFO links guarantee happens
//! after all of that generator's data.
//!
//! Programs see no clock, so logical time is *derived*: the generator
//! advances `logical_ms` by one tick per self-message and stamps it into
//! every body; the sink reads the stamp back to decide whether a stall
//! window covers the message it is draining. Self-sent ticks traverse
//! the broadcast medium like any published message — the closest the
//! model gets to the per-iteration OS overhead of the paper's §5.3 user
//! simulators.

use crate::spec::WorkloadSpec;
use publishing_demos::driver::{lcg_next, CHECKPOINT_BYTES};
use publishing_demos::ids::{Channel, LinkId};
use publishing_demos::program::{Ctx, Program, Received};
use publishing_sim::codec::{Bytes, CodecError, Decoder, Encoder};
use publishing_sim::time::SimDuration;

/// Link code for user→sink data links.
pub const DATA_CODE: u32 = 11;
/// Link code for a generator's self-tick link.
pub const TICK_CODE: u32 = 12;
/// Channel ticks arrive on (data uses [`Channel::DEFAULT`]).
pub const TICK_CHANNEL: Channel = Channel(1);

/// Body kind tags (first byte of every workload message).
pub const KIND_DATA: u8 = 1;
/// Flush marker: the sender has published its last data message.
pub const KIND_FLUSH: u8 = 2;
/// Checkpoint-storm burst message.
pub const KIND_STORM: u8 = 3;

/// Minimum body size: kind byte + u32 logical-time stamp + padding.
pub const MIN_BODY: usize = 8;

/// A message body, built as the shared bytes it is sent as: one
/// allocation, where a vector would be copied into them.
fn body(kind: u8, logical_ms: u64, size: usize) -> Bytes {
    Bytes::filled(size.max(MIN_BODY), |b| {
        b[0] = kind;
        b[1..5].copy_from_slice(&(logical_ms as u32).to_le_bytes());
    })
}

fn stamp_of(b: &[u8]) -> u64 {
    if b.len() >= 5 {
        u32::from_le_bytes([b[1], b[2], b[3], b[4]]) as u64
    } else {
        0
    }
}

/// Cumulative Zipf tables for every hotspot skew the spec can activate,
/// precomputed once per program instance (pure config, not snapshotted).
#[derive(Debug, Clone)]
struct ZipfTables {
    /// `(theta_centi, cumulative fixed-point weights over subjects)`,
    /// sorted by theta.
    tables: Vec<(u32, Vec<u64>)>,
}

impl ZipfTables {
    fn new(spec: &WorkloadSpec) -> Self {
        let mut thetas: Vec<u32> = spec
            .phases
            .iter()
            .filter_map(|p| match *p {
                crate::spec::Phase::Zipf { theta_centi, .. } => Some(theta_centi),
                _ => None,
            })
            .collect();
        thetas.sort_unstable();
        thetas.dedup();
        let tables = thetas
            .into_iter()
            .map(|t| {
                let theta = t as f64 / 100.0;
                let mut cum = Vec::with_capacity(spec.subjects as usize);
                let mut total = 0u64;
                for rank in 1..=spec.subjects as u64 {
                    // Fixed-point weight 1e9 / rank^theta; the table is
                    // per-process config so float rounding never enters
                    // snapshots.
                    let w = (1e9 / (rank as f64).powf(theta)) as u64;
                    total += w.max(1);
                    cum.push(total);
                }
                (t, cum)
            })
            .collect();
        ZipfTables { tables }
    }

    /// Draws a subject for skew `theta_centi` using `draw`, or `None` if
    /// the skew has no table (falls back to uniform).
    fn sample(&self, theta_centi: u32, draw: u64) -> Option<u32> {
        let (_, cum) = self.tables.iter().find(|(t, _)| *t == theta_centi)?;
        let total = *cum.last()?;
        let r = draw % total;
        Some(cum.partition_point(|&c| c <= r) as u32)
    }
}

/// The cohort publish driver: generator `gen` simulates
/// [`WorkloadSpec::cohort`]`(gen)` users.
#[derive(Debug)]
pub struct LoadGen {
    // Config (rebuilt by the registry factory, never snapshotted).
    spec: WorkloadSpec,
    gen: u32,
    cohort: u64,
    zipf: ZipfTables,
    // Writable state.
    logical_ms: u64,
    lcg: u64,
    carry: u64,
    sent: u64,
    done: bool,
}

impl LoadGen {
    /// The driver for generator `gen` of `spec`.
    pub fn new(spec: WorkloadSpec, gen: u32) -> Self {
        let zipf = ZipfTables::new(&spec);
        let cohort = spec.cohort(gen) as u64;
        let lcg = spec
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(gen as u64 + 1);
        LoadGen {
            spec,
            gen,
            cohort,
            zipf,
            logical_ms: 0,
            lcg,
            carry: 0,
            sent: 0,
            done: false,
        }
    }

    /// The tick link id: initial spawn links are the `subjects` sink
    /// links (ids `0..subjects`), so the link `on_start` creates is next.
    fn tick_link(&self) -> LinkId {
        LinkId(self.spec.subjects)
    }

    fn pick_sink(&mut self) -> u32 {
        let draw = lcg_next(&mut self.lcg);
        match self.spec.zipf_at(self.logical_ms) {
            Some(theta) => self
                .zipf
                .sample(theta, draw)
                .unwrap_or(draw as u32 % self.spec.subjects),
            None => draw as u32 % self.spec.subjects,
        }
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.done {
            return;
        }
        // One tick of modeled user/OS overhead paces the loop.
        ctx.compute(SimDuration::from_millis(self.spec.tick_ms));

        // Accrue publish credit in fractional units: cohort users ×
        // rate (msgs/s) × tick (ms) × multiplier (pct) over a 100_000
        // denominator.
        self.carry += self.cohort
            * self.spec.rate_per_sec as u64
            * self.spec.tick_ms
            * self.spec.multiplier_pct(self.logical_ms);
        let due = self.carry / 100_000;
        self.carry %= 100_000;

        for _ in 0..due {
            let sink = self.pick_sink();
            let size = self.spec.mix.sample(&mut self.lcg);
            let b = body(KIND_DATA, self.logical_ms, size);
            ctx.send(LinkId(sink), b).expect("sink link");
            self.sent += 1;
        }
        for _ in 0..self.spec.storm_burst(self.logical_ms) {
            let sink = self.pick_sink();
            let b = body(KIND_STORM, self.logical_ms, CHECKPOINT_BYTES);
            ctx.send(LinkId(sink), b).expect("sink link");
            self.sent += 1;
        }

        self.logical_ms += self.spec.tick_ms;
        if self.logical_ms >= self.spec.horizon_ms {
            for sink in 0..self.spec.subjects {
                ctx.send(LinkId(sink), body(KIND_FLUSH, self.logical_ms, MIN_BODY))
                    .expect("sink link");
            }
            ctx.output(format!("sent {}", self.sent).into_bytes());
            ctx.output(b"done".to_vec());
            self.done = true;
            ctx.stop();
        } else {
            ctx.send(self.tick_link(), body(0, self.logical_ms, MIN_BODY))
                .expect("tick link");
        }
    }
}

impl Program for LoadGen {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let tick = ctx.create_link(TICK_CHANNEL, TICK_CODE);
        debug_assert_eq!(tick, self.tick_link(), "generator {}", self.gen);
        // Stagger generator phases across the tick: generators that
        // start in lockstep submit to the medium at identical instants
        // every tick, and on a CSMA/CD medium identical-instant
        // submissions are guaranteed collisions (carrier sense never
        // gets a chance to defer them).
        let stagger = self.gen as u64 * self.spec.tick_ms / crate::spec::GENERATORS as u64;
        ctx.compute(SimDuration::from_millis(stagger));
        ctx.send(tick, body(0, 0, MIN_BODY)).expect("tick link");
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        if msg.code == TICK_CODE {
            self.tick(ctx);
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.logical_ms)
            .u64(self.lcg)
            .u64(self.carry)
            .u64(self.sent)
            .bool(self.done);
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.logical_ms = d.u64()?;
        self.lcg = d.u64()?;
        self.carry = d.u64()?;
        self.sent = d.u64()?;
        self.done = d.bool()?;
        d.finish()
    }
}

/// The per-subject receive driver.
#[derive(Debug)]
pub struct SubjectSink {
    // Config.
    spec: WorkloadSpec,
    sink: u32,
    // Writable state.
    received: u64,
    flushes: u32,
    done: bool,
}

impl SubjectSink {
    /// The sink for subject `sink` of `spec`.
    pub fn new(spec: WorkloadSpec, sink: u32) -> Self {
        SubjectSink {
            spec,
            sink,
            received: 0,
            flushes: 0,
            done: false,
        }
    }
}

impl Program for SubjectSink {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        if self.done || msg.code != DATA_CODE {
            return;
        }
        match msg.body.first().copied() {
            Some(KIND_FLUSH) => {
                self.flushes += 1;
                if self.flushes >= self.spec.generators() {
                    ctx.output(format!("got {}", self.received).into_bytes());
                    ctx.output(b"done".to_vec());
                    self.done = true;
                    ctx.stop();
                }
            }
            Some(KIND_DATA) | Some(KIND_STORM) => {
                self.received += 1;
                // A stalled receiver drains slower than one message per
                // generator tick, so queues grow for the window.
                if self.spec.stalled(self.sink, stamp_of(&msg.body)) {
                    ctx.compute(SimDuration::from_millis(self.spec.tick_ms));
                }
            }
            _ => {}
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.received).u32(self.flushes).bool(self.done);
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.received = d.u64()?;
        self.flushes = d.u32()?;
        self.done = d.bool()?;
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Phase;
    use publishing_demos::ids::{ChannelSet, ProcessId};
    use publishing_demos::link::{Link, LinkTable};
    use publishing_demos::program::Effect;

    struct Bench {
        links: LinkTable,
        effects: Vec<Effect>,
        mask: ChannelSet,
        stop: bool,
        compute: SimDuration,
    }

    impl Bench {
        fn new(sinks: u32) -> Self {
            let mut links = LinkTable::new();
            for s in 0..sinks {
                links.insert(Link::to(
                    ProcessId::new(0, s + 1),
                    Channel::DEFAULT,
                    DATA_CODE,
                ));
            }
            Bench {
                links,
                effects: Vec::new(),
                mask: ChannelSet::ALL,
                stop: false,
                compute: SimDuration::ZERO,
            }
        }

        fn run(&mut self, p: &mut dyn Program) -> Vec<Effect> {
            p.on_start(&mut self.ctx());
            let mut out = std::mem::take(&mut self.effects);
            while !self.stop {
                // Deliver the pending self-tick, if any.
                let tick = out.iter().rev().find_map(|e| match e {
                    Effect::Send { link, body, .. } if link.code == TICK_CODE => Some(body.clone()),
                    _ => None,
                });
                let Some(body) = tick else { break };
                p.on_message(
                    &mut self.ctx(),
                    Received {
                        code: TICK_CODE,
                        channel: TICK_CHANNEL,
                        body,
                        link: None,
                    },
                );
                out.extend(std::mem::take(&mut self.effects));
            }
            out
        }

        fn ctx(&mut self) -> Ctx<'_> {
            Ctx::new(
                ProcessId::new(0, 9),
                &mut self.links,
                &mut self.effects,
                &mut self.mask,
                &mut self.stop,
                &mut self.compute,
            )
        }
    }

    fn sends_to_sinks(effects: &[Effect]) -> Vec<(u32, usize)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { link, body, .. } if link.code == DATA_CODE => {
                    Some((link.dest.local - 1, body.len()))
                }
                _ => None,
            })
            .collect()
    }

    fn outputs(effects: &[Effect]) -> Vec<String> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Output(b) => Some(String::from_utf8(b.clone()).unwrap()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn loadgen_publishes_expected_volume_and_finishes() {
        // Generator 0 of the default spec simulates 2 of the 4 users:
        // 2 × 5/s × 0.4 s = 4 messages.
        let spec = WorkloadSpec::default();
        let mut p = LoadGen::new(spec.clone(), 0);
        let mut bench = Bench::new(spec.subjects);
        let effects = bench.run(&mut p);
        let data: Vec<_> = sends_to_sinks(&effects)
            .into_iter()
            .filter(|(_, len)| *len > MIN_BODY || *len == spec.mix.short_bytes as usize)
            .collect();
        assert_eq!(data.len(), 4, "{data:?}");
        let out = outputs(&effects);
        assert_eq!(out, vec!["sent 4".to_string(), "done".to_string()]);
        // One flush per sink.
        let flushes = effects
            .iter()
            .filter(|e| {
                matches!(e, Effect::Send { link, body, .. }
                if link.code == DATA_CODE && body[0] == KIND_FLUSH)
            })
            .count();
        assert_eq!(flushes, spec.subjects as usize);
        assert!(bench.stop);
    }

    #[test]
    fn flash_phase_multiplies_volume() {
        let mut spec = WorkloadSpec::default();
        spec.phases = vec![Phase::Flash {
            at_ms: 0,
            dur_ms: spec.horizon_ms,
            pct: 300,
        }];
        let mut p = LoadGen::new(spec.clone(), 0);
        let effects = Bench::new(spec.subjects).run(&mut p);
        assert_eq!(outputs(&effects)[0], "sent 12", "3× the base 4");
    }

    #[test]
    fn storm_phase_adds_checkpoint_bursts() {
        let mut spec = WorkloadSpec::default();
        spec.phases = vec![Phase::Storm {
            at_ms: 0,
            dur_ms: spec.tick_ms, // one tick's worth
            burst: 3,
        }];
        let mut p = LoadGen::new(spec.clone(), 0);
        let effects = Bench::new(spec.subjects).run(&mut p);
        let storms = sends_to_sinks(&effects)
            .iter()
            .filter(|(_, len)| *len == CHECKPOINT_BYTES)
            .count();
        assert!(storms >= 3, "storm bodies: {storms}");
        assert_eq!(outputs(&effects)[0], "sent 7", "4 data + 3 burst");
    }

    #[test]
    fn zipf_skew_concentrates_on_low_ranks() {
        let mut spec = WorkloadSpec::default();
        spec.subjects = 4;
        spec.rate_per_sec = 500;
        spec.phases = vec![Phase::Zipf {
            at_ms: 0,
            dur_ms: spec.horizon_ms,
            theta_centi: 200,
        }];
        let mut p = LoadGen::new(spec.clone(), 0);
        let effects = Bench::new(spec.subjects).run(&mut p);
        let mut per_sink = [0u32; 4];
        for (sink, len) in sends_to_sinks(&effects) {
            if len > MIN_BODY || len == spec.mix.short_bytes as usize {
                per_sink[sink as usize] += 1;
            }
        }
        assert!(
            per_sink[0] > per_sink[3] * 2,
            "θ=2.0 should pile onto subject 0: {per_sink:?}"
        );
    }

    #[test]
    fn loadgen_snapshot_round_trips_mid_run() {
        let spec = WorkloadSpec::default();
        let mut p = LoadGen::new(spec.clone(), 1);
        let mut bench = Bench::new(spec.subjects);
        p.on_start(&mut bench.ctx());
        // Drive a few ticks by hand.
        for _ in 0..5 {
            p.on_message(
                &mut bench.ctx(),
                Received {
                    code: TICK_CODE,
                    channel: TICK_CHANNEL,
                    body: body(0, 0, MIN_BODY),
                    link: None,
                },
            );
        }
        let snap = p.snapshot();
        let mut q = LoadGen::new(spec, 1);
        q.restore(&snap).unwrap();
        assert_eq!(q.snapshot(), snap);
        assert_eq!(q.logical_ms, p.logical_ms);
        assert_eq!(q.sent, p.sent);
    }

    #[test]
    fn sink_counts_and_finishes_on_last_flush() {
        let spec = WorkloadSpec {
            users: 2,
            ..WorkloadSpec::default()
        };
        let mut sink = SubjectSink::new(spec.clone(), 0);
        let mut bench = Bench::new(0);
        let data = |ms| Received {
            code: DATA_CODE,
            channel: Channel::DEFAULT,
            body: body(KIND_DATA, ms, 128),
            link: None,
        };
        let flush = Received {
            code: DATA_CODE,
            channel: Channel::DEFAULT,
            body: body(KIND_FLUSH, 400, MIN_BODY),
            link: None,
        };
        sink.on_start(&mut bench.ctx());
        sink.on_message(&mut bench.ctx(), data(0));
        sink.on_message(&mut bench.ctx(), data(20));
        sink.on_message(&mut bench.ctx(), flush.clone());
        assert!(!bench.stop, "one flush of two");
        sink.on_message(&mut bench.ctx(), data(40));
        sink.on_message(&mut bench.ctx(), flush);
        assert!(bench.stop);
        assert_eq!(
            outputs(&bench.effects),
            vec!["got 3".to_string(), "done".to_string()]
        );
    }

    #[test]
    fn stalled_sink_charges_cpu_inside_window() {
        let spec = WorkloadSpec {
            phases: vec![Phase::Stall {
                at_ms: 100,
                dur_ms: 100,
                sink: 0,
            }],
            ..WorkloadSpec::default()
        };
        let mut sink = SubjectSink::new(spec.clone(), 0);
        let mut bench = Bench::new(0);
        let data = |ms| Received {
            code: DATA_CODE,
            channel: Channel::DEFAULT,
            body: body(KIND_DATA, ms, 128),
            link: None,
        };
        sink.on_message(&mut bench.ctx(), data(50));
        assert_eq!(bench.compute, SimDuration::ZERO, "outside the window");
        sink.on_message(&mut bench.ctx(), data(150));
        assert_eq!(
            bench.compute,
            SimDuration::from_millis(spec.tick_ms),
            "inside the window"
        );
    }

    #[test]
    fn sink_snapshot_round_trips() {
        let spec = WorkloadSpec::default();
        let mut s = SubjectSink::new(spec.clone(), 1);
        s.received = 42;
        s.flushes = 3;
        let snap = s.snapshot();
        let mut t = SubjectSink::new(spec, 1);
        t.restore(&snap).unwrap();
        assert_eq!(t.snapshot(), snap);
    }
}
