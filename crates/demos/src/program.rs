//! Deterministic programs: the process model of §1.1.1.
//!
//! A process is "deterministic upon its input interactions": started from
//! the same state and fed the same messages, it produces the same outputs.
//! Publishing's whole correctness argument rests on this, so the [`Program`]
//! interface is designed to make non-determinism impossible to express:
//! a program sees only its own state and the message being delivered —
//! no clock, no randomness, no shared memory — and interacts with the
//! world only through the recorded effects in [`Ctx`].
//!
//! Programs must also be *checkpointable*: [`Program::snapshot`] and
//! [`Program::restore`] capture and rebuild the program's writable state
//! (the "process address space" component of §4.4.3's state inventory).

use crate::ids::{Channel, ChannelSet, LinkId, ProcessId};
use crate::link::{Link, LinkTable};
use publishing_sim::codec::{Bytes, CodecError};
use publishing_sim::time::SimDuration;

/// A message as seen by the receiving program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Received {
    /// The code of the link the sender used (§4.2.2.1: "the kernel returns
    /// not only the message contents, but also the code").
    pub code: u32,
    /// The channel the message arrived on.
    pub channel: Channel,
    /// Message body (the bytes of the frame it arrived in, not a copy).
    pub body: Bytes,
    /// If the message carried a link, the id it was installed under in
    /// this process's link table.
    pub link: Option<LinkId>,
}

/// One side effect requested during an activation, applied by the kernel
/// when the activation's CPU time has elapsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Send a message over a link (the link was resolved at call time).
    Send {
        /// The resolved link.
        link: Link,
        /// Message body.
        body: Bytes,
        /// A link to ride in the message (already removed from the table).
        passed: Option<Link>,
    },
    /// Emit externally visible output (a terminal write; the test suite's
    /// oracle for "the process behaved identically").
    Output(Vec<u8>),
}

/// The syscall interface available during one activation.
///
/// Everything a program can do goes through here and is either pure state
/// (link table updates) or an [`Effect`] the kernel applies afterwards.
pub struct Ctx<'a> {
    pid: ProcessId,
    links: &'a mut LinkTable,
    effects: &'a mut Vec<Effect>,
    recv_mask: &'a mut ChannelSet,
    stop: &'a mut bool,
    compute: &'a mut SimDuration,
}

/// Errors a syscall can return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallError {
    /// The link id is not in this process's table.
    BadLink(LinkId),
}

impl core::fmt::Display for SyscallError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SyscallError::BadLink(id) => write!(f, "no such link: {id:?}"),
        }
    }
}

impl std::error::Error for SyscallError {}

impl<'a> Ctx<'a> {
    /// Assembles a context for one activation.
    ///
    /// Normally only the kernel builds contexts; it is public so offline
    /// harnesses (unit tests, the §6.5 replay debugger) can drive a
    /// [`Program`] outside a kernel.
    pub fn new(
        pid: ProcessId,
        links: &'a mut LinkTable,
        effects: &'a mut Vec<Effect>,
        recv_mask: &'a mut ChannelSet,
        stop: &'a mut bool,
        compute: &'a mut SimDuration,
    ) -> Self {
        Ctx {
            pid,
            links,
            effects,
            recv_mask,
            stop,
            compute,
        }
    }

    /// Creates a link to this process on `channel` with `code`, for
    /// passing to other processes so they can send to us.
    pub fn create_link(&mut self, channel: Channel, code: u32) -> LinkId {
        self.links.insert(Link::to(self.pid, channel, code))
    }

    /// Removes a link from the table so it can be passed in a message.
    ///
    /// Returns the removed link, or an error if `id` is unknown.
    pub fn take_link(&mut self, id: LinkId) -> Result<Link, SyscallError> {
        self.links.remove(id).ok_or(SyscallError::BadLink(id))
    }

    /// Looks up a link without removing it.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id)
    }

    /// Installs a link received or constructed elsewhere, returning its id.
    pub fn install_link(&mut self, link: Link) -> LinkId {
        self.links.insert(link)
    }

    /// Sends `body` over the link `id`. Shared bytes (a received body
    /// passed on, a body built with [`Bytes::filled`]) go out as they
    /// are; a `Vec<u8>` is copied.
    pub fn send(&mut self, id: LinkId, body: impl Into<Bytes>) -> Result<(), SyscallError> {
        let link = *self.links.get(id).ok_or(SyscallError::BadLink(id))?;
        self.effects.push(Effect::Send {
            link,
            body: body.into(),
            passed: None,
        });
        Ok(())
    }

    /// Sends `body` over link `id`, passing link `pass` inside the message
    /// (which removes `pass` from this process's table, §4.2.2.3).
    pub fn send_passing(
        &mut self,
        id: LinkId,
        body: impl Into<Bytes>,
        pass: LinkId,
    ) -> Result<(), SyscallError> {
        let link = *self.links.get(id).ok_or(SyscallError::BadLink(id))?;
        let passed = self.links.remove(pass).ok_or(SyscallError::BadLink(pass))?;
        self.effects.push(Effect::Send {
            link,
            body: body.into(),
            passed: Some(passed),
        });
        Ok(())
    }

    /// Declares which channels the next receive accepts (§4.2.2.2).
    /// Defaults to all channels and persists across activations.
    pub fn set_receive(&mut self, mask: ChannelSet) {
        *self.recv_mask = mask;
    }

    /// Charges `d` of CPU time to this activation — the knob workloads use
    /// to model computation between messages.
    pub fn compute(&mut self, d: SimDuration) {
        *self.compute += d;
    }

    /// Emits externally visible output.
    pub fn output(&mut self, bytes: Vec<u8>) {
        self.effects.push(Effect::Output(bytes));
    }

    /// Terminates this process at the end of the activation.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// A deterministic, checkpointable program.
///
/// # Determinism contract
///
/// Implementations must compute outputs purely from `self` plus the
/// delivered messages. In particular they must not consult wall-clock
/// time, OS randomness, thread ids, or iteration order of unordered maps.
/// The property tests in this workspace re-execute programs from
/// checkpoints and fail loudly on any divergence.
pub trait Program: Send {
    /// Runs once when the process starts (also re-run during recovery from
    /// the initial state, with output suppression handling duplicates).
    fn on_start(&mut self, ctx: &mut Ctx<'_>);

    /// Handles one delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received);

    /// Serializes the program's writable state.
    fn snapshot(&self) -> Vec<u8>;

    /// Rebuilds the program's state from [`Program::snapshot`] bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the bytes do not decode; recovery
    /// treats this as a recursive crash.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn pid() -> ProcessId {
        ProcessId {
            node: NodeId(1),
            local: 7,
        }
    }

    struct Fixture {
        links: LinkTable,
        effects: Vec<Effect>,
        mask: ChannelSet,
        stop: bool,
        compute: SimDuration,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                links: LinkTable::new(),
                effects: Vec::new(),
                mask: ChannelSet::ALL,
                stop: false,
                compute: SimDuration::ZERO,
            }
        }

        fn ctx(&mut self) -> Ctx<'_> {
            Ctx::new(
                pid(),
                &mut self.links,
                &mut self.effects,
                &mut self.mask,
                &mut self.stop,
                &mut self.compute,
            )
        }
    }

    #[test]
    fn create_link_points_to_self() {
        let mut f = Fixture::new();
        let id = f.ctx().create_link(Channel(2), 9);
        let link = f.links.get(id).unwrap();
        assert_eq!(link.dest, pid());
        assert_eq!(link.channel, Channel(2));
        assert_eq!(link.code, 9);
    }

    #[test]
    fn send_resolves_link_at_call_time() {
        let mut f = Fixture::new();
        {
            let mut ctx = f.ctx();
            let id = ctx.create_link(Channel(0), 1);
            ctx.send(id, b"hi".to_vec()).unwrap();
            // Removing the link afterwards must not affect the queued send.
            ctx.take_link(id).unwrap();
        }
        match &f.effects[0] {
            Effect::Send { link, body, passed } => {
                assert_eq!(link.dest, pid());
                assert_eq!(body, b"hi");
                assert!(passed.is_none());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn send_passing_removes_passed_link() {
        let mut f = Fixture::new();
        {
            let mut ctx = f.ctx();
            let target = ctx.create_link(Channel(0), 1);
            let passed = ctx.create_link(Channel(1), 2);
            ctx.send_passing(target, vec![], passed).unwrap();
            assert!(ctx.link(passed).is_none());
        }
        match &f.effects[0] {
            Effect::Send {
                passed: Some(l), ..
            } => assert_eq!(l.code, 2),
            _ => panic!(),
        }
    }

    #[test]
    fn bad_link_errors() {
        let mut f = Fixture::new();
        let mut ctx = f.ctx();
        assert_eq!(
            ctx.send(LinkId(99), vec![]),
            Err(SyscallError::BadLink(LinkId(99)))
        );
        assert!(ctx.take_link(LinkId(99)).is_err());
    }

    #[test]
    fn stop_and_compute_and_mask_recorded() {
        let mut f = Fixture::new();
        {
            let mut ctx = f.ctx();
            ctx.compute(SimDuration::from_millis(5));
            ctx.compute(SimDuration::from_millis(2));
            ctx.set_receive(ChannelSet::of(&[Channel(3)]));
            ctx.stop();
        }
        assert_eq!(f.compute, SimDuration::from_millis(7));
        assert!(f.stop);
        assert!(f.mask.contains(Channel(3)));
        assert!(!f.mask.contains(Channel(0)));
    }

    #[test]
    fn output_is_an_effect() {
        let mut f = Fixture::new();
        f.ctx().output(b"result".to_vec());
        assert_eq!(f.effects, vec![Effect::Output(b"result".to_vec())]);
    }
}
