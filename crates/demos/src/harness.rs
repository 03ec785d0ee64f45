//! A minimal driver wiring kernels to a LAN — the test scaffold for
//! DEMOS/MP behaviour *without* a recorder (the full published-
//! communications world, with recorder and recovery manager, lives in
//! `publishing-core`).

use crate::ids::ProcessId;
use crate::kernel::{Kernel, KernelAction};
use crate::link::Link;
use crate::registry::UnknownProgram;
use publishing_net::frame::Frame;
use publishing_net::lan::{Lan, LanAction};
use publishing_sim::event::Scheduler;
use publishing_sim::time::SimTime;
use std::collections::BTreeMap;

/// Events the harness schedules.
#[derive(Debug)]
pub enum Ev {
    /// A LAN-internal timer.
    LanTimer(u64),
    /// A kernel timer on node `.0`.
    KernelTimer(u32, u64),
    /// A frame delivery to station `.to`.
    Deliver {
        /// Receiving station (== node id).
        to: u32,
        /// The frame as received.
        frame: Frame,
        /// Recorder-gating flag from the medium.
        recorder_ok: bool,
    },
}

/// One externally visible output line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputLine {
    /// When it was emitted.
    pub at: SimTime,
    /// By which process.
    pub pid: ProcessId,
    /// Per-process output sequence (for deduplicating replayed output).
    pub seq: u64,
    /// The bytes.
    pub bytes: Vec<u8>,
}

/// A kernels-plus-LAN driver.
pub struct Harness {
    /// The event queue / clock.
    pub sched: Scheduler<Ev>,
    /// The shared medium.
    pub lan: Box<dyn Lan>,
    /// Kernels by node id.
    pub kernels: BTreeMap<u32, Kernel>,
    /// Collected process outputs, in emission order.
    pub outputs: Vec<OutputLine>,
    /// Reused from event to event: what a kernel, then the medium, asked
    /// for during the call in progress.
    kernel_actions: Vec<KernelAction>,
    lan_actions: Vec<LanAction>,
}

impl Harness {
    /// Builds a harness over `lan`; kernels attach their stations.
    pub fn new(lan: Box<dyn Lan>) -> Self {
        Harness {
            sched: Scheduler::new(),
            lan,
            kernels: BTreeMap::new(),
            outputs: Vec::new(),
            kernel_actions: Vec::new(),
            lan_actions: Vec::new(),
        }
    }

    /// Adds a kernel, attaching its station to the LAN.
    pub fn add_kernel(&mut self, kernel: Kernel) {
        self.lan.attach(kernel.station());
        self.kernels.insert(kernel.node().0, kernel);
    }

    /// Spawns `program` on `node` now, with `links` installed.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownProgram`] if the image is not registered.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn spawn(
        &mut self,
        node: u32,
        program: &str,
        links: Vec<Link>,
    ) -> Result<ProcessId, UnknownProgram> {
        let now = self.now();
        self.with_kernel(now, node, |k, out| k.spawn(now, program, links, out))
            .expect("node exists")
    }

    /// Runs `call` on `node`'s kernel with the harness's action buffer,
    /// then performs at time `now` what the kernel appended. `None` if
    /// there is no such node.
    pub fn with_kernel<R>(
        &mut self,
        now: SimTime,
        node: u32,
        call: impl FnOnce(&mut Kernel, &mut Vec<KernelAction>) -> R,
    ) -> Option<R> {
        let k = self.kernels.get_mut(&node)?;
        let mut actions = std::mem::take(&mut self.kernel_actions);
        let result = call(k, &mut actions);
        for a in actions.drain(..) {
            match a {
                KernelAction::Transmit(frame) => {
                    self.with_lan(|lan, out| lan.submit_into(now, frame, out));
                }
                KernelAction::SetTimer { at, token } => {
                    self.sched.schedule_at(at, Ev::KernelTimer(node, token));
                }
                KernelAction::Output { pid, seq, bytes } => {
                    self.outputs.push(OutputLine {
                        at: now,
                        pid,
                        seq,
                        bytes,
                    });
                }
            }
        }
        self.kernel_actions = actions;
        Some(result)
    }

    /// Runs `call` on the medium with the harness's action buffer, then
    /// schedules what the medium appended.
    fn with_lan(&mut self, call: impl FnOnce(&mut dyn Lan, &mut Vec<LanAction>)) {
        call(self.lan.as_mut(), &mut self.lan_actions);
        for a in self.lan_actions.drain(..) {
            match a {
                LanAction::Deliver {
                    at,
                    to,
                    frame,
                    recorder_ok,
                } => {
                    self.sched.schedule_at(
                        at,
                        Ev::Deliver {
                            to: to.0,
                            frame,
                            recorder_ok,
                        },
                    );
                }
                LanAction::SetTimer { at, token } => {
                    self.sched.schedule_at(at, Ev::LanTimer(token));
                }
                LanAction::TxOutcome { .. } => {}
            }
        }
    }

    /// Processes one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((now, ev)) = self.sched.pop() else {
            return false;
        };
        match ev {
            Ev::LanTimer(token) => {
                self.with_lan(|lan, out| lan.timer_into(now, token, out));
            }
            Ev::KernelTimer(node, token) => {
                self.with_kernel(now, node, |k, out| k.on_timer(now, token, out));
            }
            Ev::Deliver {
                to,
                frame,
                recorder_ok,
            } => {
                self.with_kernel(now, to, |k, out| k.on_frame(now, &frame, recorder_ok, out));
            }
        }
        true
    }

    /// Runs until the event queue drains or `deadline` passes.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.sched.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
    }

    /// Runs until fully quiescent (no pending events). Retransmission
    /// loops against a dead node never drain; use [`Harness::run_until`]
    /// for those scenarios.
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }

    /// Returns the output lines of one process, as strings.
    pub fn outputs_of(&self, pid: ProcessId) -> Vec<String> {
        self.outputs
            .iter()
            .filter(|o| o.pid == pid)
            .map(|o| String::from_utf8_lossy(&o.bytes).into_owned())
            .collect()
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }
}
