//! DEMOS/MP: the message-based operating system substrate (Chapter 4).
//!
//! DEMOS is "made up of cooperating processes and a message kernel"; this
//! crate reproduces the pieces publishing needs:
//!
//! - [`ids`], [`link`], [`message`], [`queue`]: links (capabilities),
//!   channels, messages, and per-process queues with selective receive;
//! - [`program`], [`process`]: the deterministic, checkpointable process
//!   model of §1.1.1;
//! - [`transport`]: guaranteed/unguaranteed messages, end-to-end acks,
//!   duplicate suppression, stop-and-wait and windowed ordering (§4.3.3);
//! - [`kernel`]: the per-node message kernel with all §4.4 publishing
//!   hooks (broadcast intranode messages, read-order notices,
//!   DELIVERTOKERNEL process control, recovery commands);
//! - [`sysproc`]: process manager, memory scheduler, named-link server;
//! - [`programs`]: deterministic application programs for tests/examples;
//! - [`protocol`]: the control-message vocabulary shared with the
//!   recorder and recovery manager in `publishing-core`;
//! - [`costs`]: the VAX-calibrated CPU cost model behind Figures 5.7/5.8;
//! - [`harness`]: a kernels-plus-LAN driver for recorder-less tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costs;
pub mod driver;
pub mod harness;
pub mod ids;
pub mod kernel;
pub mod link;
pub mod message;
pub mod process;
pub mod program;
pub mod programs;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod sysproc;
pub mod transport;

pub use costs::CostModel;
pub use driver::{MessageMix, CHECKPOINT_BYTES, LONG_BYTES, SHORT_BYTES};
pub use ids::{Channel, ChannelSet, LinkId, MessageId, NodeId, ProcessId, KERNEL_LOCAL};
pub use kernel::{decode_ctl, encode_ctl, Kernel, KernelAction, KernelStats};
pub use link::{Link, LinkTable};
pub use message::{Message, MessageHeader};
pub use process::{Process, ProcessImage, RunState};
pub use program::{Ctx, Effect, Program, Received, SyscallError};
pub use queue::{MessageQueue, ReadInfo};
pub use registry::{ProgramRegistry, UnknownProgram};
pub use transport::{ChannelMeter, TAction, Transport, TransportConfig, TransportStats, Wire};
