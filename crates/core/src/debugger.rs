//! Time-travel debugging from published history (§6.5).
//!
//! "A programmer would like some way of backing up a process, or
//! processes, to the point where the problem originally occurred.
//! Published communications offers this as a side effect." The debugger
//! reconstructs a process offline from its checkpoint and published
//! message stream, letting the programmer single-step its activations,
//! inspect state between messages, rewind, and run to a predicate.
//!
//! Determinism makes rewind trivial: re-execute from the checkpoint.

use crate::recorder::Recorder;
use publishing_demos::ids::{ChannelSet, LinkId, ProcessId};
use publishing_demos::kernel::decode_ctl;
use publishing_demos::link::LinkTable;
use publishing_demos::message::Message;
use publishing_demos::process::ProcessImage;
use publishing_demos::program::{Ctx, Effect, Program, Received};
use publishing_demos::protocol::codes;
use publishing_demos::registry::ProgramRegistry;
use publishing_sim::codec::Decode;
use publishing_sim::time::SimDuration;

/// What one step of the debugger observed.
#[derive(Debug)]
pub struct StepReport {
    /// The read index in the process's stream.
    pub read_index: u64,
    /// The message delivered at this step.
    pub message: Message,
    /// Whether it was a process-control message handled by the kernel.
    pub control: bool,
    /// Effects the program requested (empty for control messages).
    pub effects: Vec<Effect>,
    /// The program's state snapshot *after* the step.
    pub state_after: Vec<u8>,
    /// CPU the program charged.
    pub compute: SimDuration,
}

/// Errors constructing a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DebugError {
    /// The recorder has no entry for the process.
    UnknownProcess(ProcessId),
    /// The program image is not registered.
    UnknownProgram(String),
    /// The checkpoint failed to decode.
    BadCheckpoint,
}

impl core::fmt::Display for DebugError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DebugError::UnknownProcess(p) => write!(f, "no published history for {p}"),
            DebugError::UnknownProgram(n) => write!(f, "program image {n:?} not registered"),
            DebugError::BadCheckpoint => write!(f, "checkpoint failed to decode"),
        }
    }
}

impl std::error::Error for DebugError {}

/// An offline replay debugger for one process.
pub struct ReplayDebugger {
    pid: ProcessId,
    registry: ProgramRegistry,
    program_name: String,
    checkpoint: Option<ProcessImage>,
    initial_links: Vec<publishing_demos::link::Link>,
    stream: Vec<(u64, Message)>,
    // Live replay state.
    program: Box<dyn Program>,
    links: LinkTable,
    recv_mask: ChannelSet,
    position: usize,
}

impl ReplayDebugger {
    /// Builds a debugger for `pid` from the recorder's database.
    ///
    /// # Errors
    ///
    /// Returns a [`DebugError`] if the process, program, or checkpoint is
    /// unavailable.
    pub fn attach(
        recorder: &Recorder,
        registry: &ProgramRegistry,
        pid: ProcessId,
    ) -> Result<Self, DebugError> {
        let entry = recorder.entry(pid).ok_or(DebugError::UnknownProcess(pid))?;
        let program_name = entry.program_name.clone();
        if !registry.contains(&program_name) {
            return Err(DebugError::UnknownProgram(program_name));
        }
        let checkpoint = match recorder.checkpoint_image(pid) {
            Some(bytes) => {
                Some(ProcessImage::decode_all(bytes).map_err(|_| DebugError::BadCheckpoint)?)
            }
            None => None,
        };
        let stream = recorder.replay_stream(pid);
        let program = registry
            .instantiate(&program_name)
            .map_err(|e| DebugError::UnknownProgram(e.0))?;
        let mut dbg = ReplayDebugger {
            pid,
            registry: registry.clone(),
            program_name,
            checkpoint,
            initial_links: entry.initial_links.clone(),
            stream,
            program,
            links: LinkTable::new(),
            recv_mask: ChannelSet::ALL,
            position: 0,
        };
        dbg.reset().map_err(|_| DebugError::BadCheckpoint)?;
        Ok(dbg)
    }

    /// Rewinds to the checkpoint (position 0 of the stream).
    ///
    /// # Errors
    ///
    /// Returns `Err(())` if the checkpoint no longer decodes.
    #[allow(clippy::result_unit_err)]
    pub fn reset(&mut self) -> Result<(), ()> {
        let mut program = self
            .registry
            .instantiate(&self.program_name)
            .map_err(|_| ())?;
        self.links = LinkTable::new();
        self.recv_mask = ChannelSet::ALL;
        match &self.checkpoint {
            Some(image) => {
                program.restore(&image.program_state).map_err(|_| ())?;
                self.links = image.links.clone();
                self.recv_mask = ChannelSet::from_bits(image.recv_mask_bits);
            }
            None => {
                for l in &self.initial_links {
                    self.links.insert(*l);
                }
                // Re-run on_start exactly as recovery would.
                let mut effects = Vec::new();
                let mut stop = false;
                let mut compute = SimDuration::ZERO;
                let mut ctx = Ctx::new(
                    self.pid,
                    &mut self.links,
                    &mut effects,
                    &mut self.recv_mask,
                    &mut stop,
                    &mut compute,
                );
                program.on_start(&mut ctx);
            }
        }
        self.program = program;
        self.position = 0;
        Ok(())
    }

    /// Returns the replay position (steps executed since the checkpoint).
    pub fn position(&self) -> usize {
        self.position
    }

    /// Returns the number of published messages available to step through.
    pub fn stream_len(&self) -> usize {
        self.stream.len()
    }

    /// Returns the program's current state snapshot.
    pub fn state(&self) -> Vec<u8> {
        self.program.snapshot()
    }

    /// Peeks at the next message without executing it.
    pub fn peek(&self) -> Option<&Message> {
        self.stream.get(self.position).map(|(_, m)| m)
    }

    /// Executes one step; `None` when the history is exhausted.
    pub fn step(&mut self) -> Option<StepReport> {
        let (idx, msg) = self.stream.get(self.position)?.clone();
        self.position += 1;
        if msg.header.deliver_to_kernel {
            // Mirror the kernel's §4.4.3 control handling so link-table
            // evolution matches the live run.
            if let Some((code, payload)) = decode_ctl(&msg.body) {
                match code {
                    codes::MOVELINK_FETCH => {
                        if let Ok(fetch) =
                            publishing_demos::protocol::MoveLinkFetch::decode_all(payload)
                        {
                            self.links.remove(LinkId(fetch.link_id));
                        }
                    }
                    codes::MOVELINK_PUT => {
                        if let Some(link) = msg.passed_link {
                            self.links.insert(link);
                        }
                    }
                    _ => {}
                }
            }
            return Some(StepReport {
                read_index: idx,
                message: msg,
                control: true,
                effects: Vec::new(),
                state_after: self.program.snapshot(),
                compute: SimDuration::ZERO,
            });
        }
        let mut m = msg.clone();
        let link = m.passed_link.take().map(|l| self.links.insert(l));
        let received = Received {
            code: m.header.code,
            channel: m.header.channel,
            body: m.body.clone(),
            link,
        };
        let mut effects = Vec::new();
        let mut stop = false;
        let mut compute = SimDuration::ZERO;
        {
            let mut ctx = Ctx::new(
                self.pid,
                &mut self.links,
                &mut effects,
                &mut self.recv_mask,
                &mut stop,
                &mut compute,
            );
            self.program.on_message(&mut ctx, received);
        }
        Some(StepReport {
            read_index: idx,
            message: msg,
            control: false,
            effects,
            state_after: self.program.snapshot(),
            compute,
        })
    }

    /// Steps until `pred` returns `true` for a report, returning that
    /// report (a breakpoint), or `None` if the history ends first.
    pub fn run_until(&mut self, mut pred: impl FnMut(&StepReport) -> bool) -> Option<StepReport> {
        while let Some(report) = self.step() {
            if pred(&report) {
                return Some(report);
            }
        }
        None
    }

    /// Rewinds to an absolute position by re-executing from the
    /// checkpoint — "watch what happens" (§6.5).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint became undecodable (it decoded at attach).
    pub fn rewind_to(&mut self, position: usize) {
        self.reset().expect("checkpoint decoded at attach time");
        while self.position < position && self.step().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::tests::drain;
    use crate::recorder::PublishCost;
    use publishing_demos::ids::{Channel, MessageId, NodeId};
    use publishing_demos::message::MessageHeader;
    use publishing_demos::programs::Accumulator;
    use publishing_sim::time::SimTime;
    use publishing_stable::disk::DiskParams;

    fn setup() -> (Recorder, ProgramRegistry, ProcessId) {
        let mut recorder =
            Recorder::new(NodeId(9), DiskParams::default(), 1, PublishCost::MediaLayer);
        let mut registry = ProgramRegistry::new();
        registry.register("accumulator", || Box::new(Accumulator::default()));
        let pid = ProcessId::new(1, 1);
        drain(&mut recorder, |r, ios| {
            r.on_created(SimTime::ZERO, pid, "accumulator", vec![], true, ios)
        });
        // Publish five additions.
        for i in 1..=5u64 {
            let msg = Message {
                header: MessageHeader {
                    id: MessageId {
                        sender: ProcessId::new(2, 1),
                        seq: i,
                    },
                    to: pid,
                    code: 0,
                    channel: Channel(0),
                    deliver_to_kernel: false,
                },
                passed_link: None,
                body: (i * 10).to_le_bytes().to_vec().into(),
            };
            recorder.on_data(
                SimTime::ZERO,
                msg.clone(),
                publishing_sim::codec::Encode::encode_to_bytes(&msg),
            );
            drain(&mut recorder, |r, ios| {
                r.on_ack(SimTime::ZERO, msg.header.id, pid, ios)
            });
        }
        (recorder, registry, pid)
    }

    #[test]
    fn stepping_reconstructs_state_incrementally() {
        let (recorder, registry, pid) = setup();
        let mut dbg = ReplayDebugger::attach(&recorder, &registry, pid).unwrap();
        assert_eq!(dbg.stream_len(), 5);
        // After two steps the accumulator holds 10 + 20.
        dbg.step().unwrap();
        let r2 = dbg.step().unwrap();
        let mut acc = Accumulator::default();
        acc.restore(&r2.state_after).unwrap();
        assert_eq!(acc.total, 30);
        assert_eq!(acc.count, 2);
        assert_eq!(dbg.position(), 2);
    }

    #[test]
    fn full_run_matches_direct_execution() {
        let (recorder, registry, pid) = setup();
        let mut dbg = ReplayDebugger::attach(&recorder, &registry, pid).unwrap();
        let mut last = None;
        while let Some(r) = dbg.step() {
            last = Some(r);
        }
        let mut acc = Accumulator::default();
        acc.restore(&last.unwrap().state_after).unwrap();
        assert_eq!(acc.total, 10 + 20 + 30 + 40 + 50);
    }

    #[test]
    fn rewind_reproduces_exactly() {
        let (recorder, registry, pid) = setup();
        let mut dbg = ReplayDebugger::attach(&recorder, &registry, pid).unwrap();
        dbg.step();
        dbg.step();
        dbg.step();
        let state_at_3 = dbg.state();
        dbg.rewind_to(3);
        assert_eq!(dbg.state(), state_at_3, "time travel is deterministic");
        dbg.rewind_to(0);
        let mut acc = Accumulator::default();
        acc.restore(&dbg.state()).unwrap();
        assert_eq!(acc.total, 0);
    }

    #[test]
    fn breakpoint_predicate_stops_midway() {
        let (recorder, registry, pid) = setup();
        let mut dbg = ReplayDebugger::attach(&recorder, &registry, pid).unwrap();
        // Break when the running total first exceeds 50.
        let hit = dbg
            .run_until(|r| {
                let mut acc = Accumulator::default();
                acc.restore(&r.state_after).unwrap();
                acc.total > 50
            })
            .expect("breakpoint hit");
        assert_eq!(hit.read_index, 2, "10+20+30 = 60 > 50 at the third message");
    }

    #[test]
    fn unknown_process_rejected() {
        let (recorder, registry, _) = setup();
        let err = match ReplayDebugger::attach(&recorder, &registry, ProcessId::new(7, 7)) {
            Err(e) => e,
            Ok(_) => panic!("expected error"),
        };
        assert_eq!(err, DebugError::UnknownProcess(ProcessId::new(7, 7)));
    }
}
