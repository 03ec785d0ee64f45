//! The Chapter 5 queuing model: Figures 5.1–5.5 and the 115-user
//! capacity claim.
//!
//! The model is the open network of Figure 5.1: processing nodes are
//! message sources emitting three classes (128-byte short messages,
//! 1024-byte long messages, 1024-byte checkpoint fragments); the
//! recording node's three serially reusable resources — network
//! interface, processor, disk system — are the stations whose
//! utilizations Figure 5.5 plots. Checkpoint traffic follows §5.1's
//! policy, "a process is checkpointed whenever its published message
//! storage exceeds its checkpoint size," which makes a process's
//! checkpoint byte rate equal its message byte rate.
//!
//! The UCB VAX measurements behind Figure 5.4 are not recoverable; the
//! operating-point values here are synthesized to the constraints the
//! thesis states (see DESIGN.md's substitution table), and the capacity
//! question is answered from the model exactly as §5.1 does.

use crate::solver::{OpenNetwork, Station};
use crate::workload::{ProcessTraffic, CHECKPOINT_BYTES, LONG_BYTES, SHORT_BYTES};

/// Hardware parameters — Figure 5.2, verbatim.
#[derive(Debug, Clone, Copy)]
pub struct HwParams {
    /// Ethernet interface interpacket delay, seconds (1.6 ms).
    pub interpacket: f64,
    /// Network bandwidth, bits per second (10 Mb/s).
    pub bandwidth_bps: f64,
    /// Disk latency, seconds (3 ms).
    pub disk_latency: f64,
    /// Disk transfer rate, bytes per second (2 MB/s).
    pub disk_rate: f64,
    /// Time to process a packet, seconds (0.8 ms).
    pub packet_cpu: f64,
}

impl Default for HwParams {
    fn default() -> Self {
        HwParams {
            interpacket: 0.0016,
            bandwidth_bps: 10_000_000.0,
            disk_latency: 0.003,
            disk_rate: 2_000_000.0,
            packet_cpu: 0.0008,
        }
    }
}

/// One Figure 5.4 operating point.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// Label.
    pub name: &'static str,
    /// Load average: processes per processing node.
    pub procs_per_node: f64,
    /// Mean changeable state size per process, bytes.
    pub state_bytes: f64,
    /// Per-process message traffic.
    pub traffic: ProcessTraffic,
}

impl OperatingPoint {
    /// Checkpoint fragments per second per process. Under the
    /// storage-balancing policy the checkpoint byte rate equals the
    /// message byte rate, fragmented into 1024-byte messages.
    pub fn checkpoint_msgs_per_proc(&self) -> f64 {
        self.traffic.bytes_per_sec() / CHECKPOINT_BYTES as f64
    }

    /// All published bytes per second per process (messages +
    /// checkpoints).
    pub fn data_bytes_per_proc(&self) -> f64 {
        2.0 * self.traffic.bytes_per_sec()
    }
}

/// The four operating points of Figure 5.4 (mean plus each parameter
/// maximized; message traffic peaks in two flavours, short-dominated
/// system calls and long-dominated disk transfers, both of which §5.1
/// discusses).
pub fn operating_points() -> Vec<OperatingPoint> {
    vec![
        OperatingPoint {
            name: "mean",
            procs_per_node: 4.0,
            state_bytes: 16.0 * 1024.0,
            traffic: ProcessTraffic {
                short_per_sec: 4.2,
                long_per_sec: 0.35,
            },
        },
        OperatingPoint {
            name: "max-load-avg",
            procs_per_node: 12.0,
            state_bytes: 16.0 * 1024.0,
            traffic: ProcessTraffic {
                short_per_sec: 4.2,
                long_per_sec: 0.35,
            },
        },
        OperatingPoint {
            name: "max-state-size",
            procs_per_node: 4.0,
            state_bytes: 56.0 * 1024.0,
            traffic: ProcessTraffic {
                short_per_sec: 4.2,
                long_per_sec: 0.35,
            },
        },
        OperatingPoint {
            name: "max-syscall-rate",
            procs_per_node: 4.0,
            state_bytes: 16.0 * 1024.0,
            traffic: ProcessTraffic {
                short_per_sec: 40.0,
                long_per_sec: 0.5,
            },
        },
        OperatingPoint {
            name: "max-disk-rate",
            procs_per_node: 4.0,
            state_bytes: 16.0 * 1024.0,
            traffic: ProcessTraffic {
                short_per_sec: 5.0,
                long_per_sec: 8.0,
            },
        },
    ]
}

/// A model configuration: an operating point scaled to a system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Hardware constants.
    pub hw: HwParams,
    /// Processing nodes (Figure 5.5 sweeps 1–5).
    pub nodes: u32,
    /// Disks at the recorder (Figure 5.5 sweeps 1–3).
    pub disks: u32,
    /// 4 KB write buffering (§5.1's saturation fix) on or off.
    pub buffered: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            hw: HwParams::default(),
            nodes: 5,
            disks: 1,
            buffered: true,
        }
    }
}

/// Builds the Figure 5.1 network for an operating point and system size.
pub fn build_network(op: &OperatingPoint, cfg: &SystemConfig) -> OpenNetwork {
    let hw = &cfg.hw;
    let procs = op.procs_per_node * cfg.nodes as f64;
    let short_rate = op.traffic.short_per_sec * procs;
    let long_rate = op.traffic.long_per_sec * procs;
    let ckpt_rate = op.checkpoint_msgs_per_proc() * procs;
    let data_rate = short_rate + long_rate + ckpt_rate;

    // Shared medium: occupied for each data packet's bits plus a small
    // recorder acknowledgement per message.
    let wire = |bytes: f64| bytes * 8.0 / hw.bandwidth_bps;
    let network = Station::new("network")
        .flow("short", short_rate, wire(SHORT_BYTES as f64))
        .flow("long", long_rate, wire(LONG_BYTES as f64))
        .flow("checkpoint", ckpt_rate, wire(CHECKPOINT_BYTES as f64))
        .flow("recorder-acks", data_rate, wire(32.0));

    // Recorder network interface: the 1.6 ms interpacket delay per data
    // packet received.
    let nic = Station::new("recorder-nic").flow("data", data_rate, hw.interpacket);

    // Recorder processor: 0.8 ms per packet handled — each published
    // message is received and its acknowledgement sent.
    let cpu = Station::new("recorder-cpu").flow("data+ack", 2.0 * data_rate, hw.packet_cpu);

    // Disk system: striped across `disks`; either one write per message
    // (the original model that saturated) or 4 KB buffered pages.
    let byte_rate = op.data_bytes_per_proc() * procs;
    let disk = if cfg.buffered {
        let page_rate = byte_rate / 4096.0 / cfg.disks as f64;
        Station::new("disk").flow("pages", page_rate, hw.disk_latency + 4096.0 / hw.disk_rate)
    } else {
        let per_disk = 1.0 / cfg.disks as f64;
        Station::new("disk")
            .flow(
                "short",
                short_rate * per_disk,
                hw.disk_latency + SHORT_BYTES as f64 / hw.disk_rate,
            )
            .flow(
                "long",
                long_rate * per_disk,
                hw.disk_latency + LONG_BYTES as f64 / hw.disk_rate,
            )
            .flow(
                "checkpoint",
                ckpt_rate * per_disk,
                hw.disk_latency + CHECKPOINT_BYTES as f64 / hw.disk_rate,
            )
    };

    OpenNetwork::new()
        .station(network)
        .station(nic)
        .station(cpu)
        .station(disk)
}

/// One row of the Figure 5.5 data: utilizations for a configuration.
#[derive(Debug, Clone)]
pub struct UtilizationRow {
    /// Operating point name.
    pub point: &'static str,
    /// Processing nodes.
    pub nodes: u32,
    /// Disks.
    pub disks: u32,
    /// Recorder CPU utilization (Fig 5.5b).
    pub cpu: f64,
    /// Disk utilization (Fig 5.5a).
    pub disk: f64,
    /// Recorder network-interface utilization (Fig 5.5c).
    pub nic: f64,
    /// Shared-medium utilization.
    pub network: f64,
}

/// Computes the full Figure 5.5 sweep: every operating point × 1–5 nodes
/// × 1–3 disks.
pub fn figure_5_5(buffered: bool) -> Vec<UtilizationRow> {
    let mut rows = Vec::new();
    for op in operating_points() {
        for nodes in 1..=5 {
            for disks in 1..=3 {
                let cfg = SystemConfig {
                    nodes,
                    disks,
                    buffered,
                    ..SystemConfig::default()
                };
                let net = build_network(&op, &cfg);
                let u = net.utilizations();
                rows.push(UtilizationRow {
                    point: op.name,
                    nodes,
                    disks,
                    cpu: u["recorder-cpu"],
                    disk: u["disk"],
                    nic: u["recorder-nic"],
                    network: u["network"],
                });
            }
        }
    }
    rows
}

/// The §5.1 capacity question: how many users (each one mean-operating-
/// point process) can one recorder support before any component
/// saturates? The abstract's answer: 115.
pub fn max_users(cfg: &SystemConfig) -> u32 {
    let mean = &operating_points()[0];
    let mut users = 0u32;
    loop {
        let candidate = users + 1;
        // `candidate` users spread over one logical source.
        let op = OperatingPoint {
            name: "capacity",
            procs_per_node: candidate as f64,
            state_bytes: mean.state_bytes,
            traffic: mean.traffic,
        };
        let probe = SystemConfig {
            nodes: 1,
            ..cfg.clone()
        };
        if build_network(&op, &probe).saturated() {
            return users;
        }
        users = candidate;
        if users > 100_000 {
            return users;
        }
    }
}

/// §6.6.1: capacity when a fraction of traffic belongs to processes that
/// opted out of recovery and is therefore not published. "If these
/// processes were not considered recoverable, the recorder would be able
/// to support one more VAX on the network."
pub fn max_users_with_unrecoverable(cfg: &SystemConfig, unrecoverable_fraction: f64) -> u32 {
    assert!((0.0..1.0).contains(&unrecoverable_fraction));
    let base = max_users(cfg) as f64;
    (base / (1.0 - unrecoverable_fraction)) as u32
}

/// Worst-case checkpoint plus message storage (§5.1 reports 2.76 MB):
/// under the storage-balancing policy each process holds at most its
/// state in checkpoint plus the same again in messages.
pub fn worst_case_storage_bytes(op: &OperatingPoint, nodes: u32) -> f64 {
    2.0 * op.state_bytes * op.procs_per_node * nodes as f64
}

/// Peak buffer requirement at the recorder (§5.1 reports at most 28 KB):
/// the open 4 KB page plus the M/M/1 mean queue of pages awaiting the
/// disk, at the worst buffered operating point.
pub fn buffer_requirement_bytes(cfg: &SystemConfig) -> f64 {
    let mut worst: f64 = 4096.0;
    for op in operating_points() {
        let net = build_network(&op, cfg);
        let disk = net
            .stations
            .iter()
            .find(|s| s.name == "disk")
            .expect("disk station");
        if let Some(jobs) = disk.mean_jobs() {
            worst = worst.max(4096.0 * (1.0 + jobs.ceil()));
        } else {
            // Saturated: bounded only by the run length; report the page
            // plus a large queue marker.
            worst = worst.max(4096.0 * 8.0);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_about_115_users() {
        let users = max_users(&SystemConfig::default());
        assert!(
            (110..=120).contains(&users),
            "recorder should support ≈115 users, got {users}"
        );
    }

    #[test]
    fn skipping_unrecoverable_processes_raises_capacity() {
        // §6.6.1's disk-to-tape example: 15% of messages unpublished.
        let base = max_users(&SystemConfig::default());
        let more = max_users_with_unrecoverable(&SystemConfig::default(), 0.15);
        assert!(more > base, "{more} vs {base}");
        assert!((130..=140).contains(&more), "{more}");
    }

    #[test]
    fn viable_for_five_nodes_at_mean_point() {
        // §5.1: "the simple system was viable for at least 5 nodes."
        let op = &operating_points()[0];
        let cfg = SystemConfig {
            nodes: 5,
            disks: 1,
            ..SystemConfig::default()
        };
        assert!(!build_network(op, &cfg).saturated());
    }

    #[test]
    fn unbuffered_disk_saturates_at_max_long_message_rate() {
        // §5.1's first problem: "saturation of the disk system used with
        // the maximum long message rate … removed by allowing messages to
        // be written out in 4k byte buffers."
        let op = operating_points()
            .into_iter()
            .find(|o| o.name == "max-disk-rate")
            .unwrap();
        let unbuffered = SystemConfig {
            nodes: 5,
            disks: 1,
            buffered: false,
            ..Default::default()
        };
        let buffered = SystemConfig {
            nodes: 5,
            disks: 1,
            buffered: true,
            ..Default::default()
        };
        let u_un = build_network(&op, &unbuffered).utilizations()["disk"];
        let u_buf = build_network(&op, &buffered).utilizations()["disk"];
        assert!(u_un >= 1.0, "unbuffered disk must saturate: {u_un}");
        assert!(u_buf < 1.0, "4 KB buffering must fix it: {u_buf}");
    }

    #[test]
    fn syscall_point_saturates_recorder_beyond_three_nodes() {
        // §5.1's second problem: the high system-call point saturates the
        // recorder when more than 3 nodes are attached.
        let op = operating_points()
            .into_iter()
            .find(|o| o.name == "max-syscall-rate")
            .unwrap();
        let three = SystemConfig {
            nodes: 3,
            disks: 1,
            ..SystemConfig::default()
        };
        let four = SystemConfig {
            nodes: 4,
            disks: 1,
            ..SystemConfig::default()
        };
        assert!(
            !build_network(&op, &three).saturated(),
            "3 nodes should just fit"
        );
        assert!(
            build_network(&op, &four).saturated(),
            "4 nodes must saturate"
        );
    }

    #[test]
    fn utilization_grows_monotonically_with_nodes() {
        let rows = figure_5_5(true);
        for point in ["mean", "max-load-avg"] {
            let series: Vec<f64> = rows
                .iter()
                .filter(|r| r.point == point && r.disks == 1)
                .map(|r| r.cpu)
                .collect();
            assert_eq!(series.len(), 5);
            for w in series.windows(2) {
                assert!(w[1] > w[0]);
            }
        }
    }

    #[test]
    fn more_disks_reduce_disk_utilization_only() {
        let rows = figure_5_5(true);
        let one = rows
            .iter()
            .find(|r| r.point == "max-disk-rate" && r.nodes == 5 && r.disks == 1);
        let three = rows
            .iter()
            .find(|r| r.point == "max-disk-rate" && r.nodes == 5 && r.disks == 3);
        let (one, three) = (one.unwrap(), three.unwrap());
        assert!(three.disk < one.disk);
        assert!((three.cpu - one.cpu).abs() < 1e-12);
        assert!((three.nic - one.nic).abs() < 1e-12);
    }

    #[test]
    fn checkpoint_byte_rate_equals_message_byte_rate() {
        // The §5.1 policy's fixed point.
        let op = &operating_points()[0];
        let ckpt_bytes = op.checkpoint_msgs_per_proc() * CHECKPOINT_BYTES as f64;
        assert!((ckpt_bytes - op.traffic.bytes_per_sec()).abs() < 1e-9);
    }

    #[test]
    fn worst_case_storage_is_megabytes() {
        // §5.1 reports 2.76 MB worst case; ours lands in the same band.
        let op = operating_points()
            .into_iter()
            .find(|o| o.name == "max-state-size")
            .unwrap();
        let bytes = worst_case_storage_bytes(&op, 5);
        assert!(
            (1.5e6..4.0e6).contains(&bytes),
            "worst-case storage {bytes} should be a few megabytes"
        );
    }

    #[test]
    fn buffer_requirement_is_tens_of_kilobytes() {
        // §5.1: "at most 28k bytes."
        let cfg = SystemConfig {
            nodes: 5,
            disks: 1,
            ..SystemConfig::default()
        };
        let bytes = buffer_requirement_bytes(&cfg);
        assert!(
            (4096.0..65536.0).contains(&bytes),
            "buffer requirement {bytes} should be tens of KB"
        );
    }

    #[test]
    fn checkpoint_intervals_span_the_stated_range() {
        // §5.1: intervals "between 1 second for 4k byte processes during
        // high message rates and 2 minutes for 64k byte processes during
        // low message rates."
        let fast = OperatingPoint {
            name: "fast",
            procs_per_node: 1.0,
            state_bytes: 4096.0,
            traffic: ProcessTraffic {
                short_per_sec: 40.0,
                long_per_sec: 0.5,
            },
        };
        let slow = OperatingPoint {
            name: "slow",
            procs_per_node: 1.0,
            state_bytes: 65536.0,
            traffic: ProcessTraffic {
                short_per_sec: 4.2,
                long_per_sec: 0.0,
            },
        };
        let interval = |op: &OperatingPoint| op.state_bytes / op.traffic.bytes_per_sec();
        let f = interval(&fast);
        let s = interval(&slow);
        assert!(f < 2.0, "fast interval {f}s should be about a second");
        assert!(
            s > 60.0 && s < 240.0,
            "slow interval {s}s should be minutes"
        );
    }
}
