//! `lab tables` — regenerates every table and figure of the paper's
//! evaluation.
//!
//! With no arguments, prints all of them (`paper_tables_output.txt` is
//! that output, committed, and CI `cmp`s against it). Section names:
//! fig2_1, fig3_1, young, fig5_1, fig5_2, fig5_3, fig5_4, fig5_5,
//! capacity, shard_capacity, fig5_7, fig5_8, publish_cost, fig6_2,
//! fig6_4, baselines, recovery_time, windowing, node_unit.

use super::Flags;
use crate::scenarios;
use publishing_core::baseline::{recovery_line_rule1, History};
use publishing_core::checkpoint::{young_interval, young_overhead};
use publishing_core::recorder::PublishCost;
use publishing_core::recovery_time::{LoadParams, RecoveryEstimator};
use publishing_queueing::{
    figure_5_5, max_users, operating_points, shard_capacity_curve, StateSizes, SystemConfig,
};
use publishing_sim::rng::DetRng;
use publishing_sim::time::{SimDuration, SimTime};

fn section(name: &str, title: &str, wanted: &[String]) -> bool {
    if !wanted.is_empty() && !wanted.iter().any(|w| w == name) {
        return false;
    }
    println!("\n================================================================");
    println!("{name}: {title}");
    println!("================================================================");
    true
}

pub(super) const USAGE: &str = "[section ...]";

pub(super) fn run(flags: &Flags) {
    let wanted = &flags.positional;

    if section(
        "fig2_1",
        "Recovery lines and the domino effect (baseline)",
        wanted,
    ) {
        // The staircase history: every checkpoint bracketed by messages.
        let ms = SimTime::from_millis;
        let mut h = History::new(2);
        for k in 1..=5u64 {
            h.interact(1, 0, ms(k * 10 - 2));
            h.checkpoint(0, ms(k * 10));
            h.interact(0, 1, ms(k * 10 + 2));
            h.checkpoint(1, ms(k * 10 + 4));
        }
        let line = recovery_line_rule1(&h, 0, ms(55));
        println!("staircase history, crash of P0 at t=55ms:");
        for (i, t) in line.restart_at.iter().enumerate() {
            println!("  process {i} rolls back to {t}");
        }
        println!("  work lost: {}", line.work_lost(ms(55)));
        println!("  (publishing would lose only P0's 5 ms since its last checkpoint)");
    }

    if section("fig3_1", "Recovery-time bound walkthrough (§3.2.3)", wanted) {
        let p = LoadParams::figure_3_1();
        let mut est = RecoveryEstimator::new(SimTime::from_millis(100), 4);
        println!("t_cfix=100ms t_page=10ms/page t_mfix=2ms t_byte=0.01ms/B f_cpu=0.5");
        println!(
            "after 4-page checkpoint:        t_max = {}  (paper: 140ms)",
            est.t_max(&p)
        );
        est.on_compute(SimDuration::from_millis(100));
        println!(
            "after 100ms of execution:       t_max = {}  (paper: 340ms)",
            est.t_max(&p)
        );
        est.on_message(128);
        println!(
            "after one 128-byte message:     t_max = {}  (paper: ~343.3ms)",
            est.t_max(&p)
        );
    }

    if section(
        "young",
        "Young's optimum checkpoint interval (§3.2.4)",
        wanted,
    ) {
        let t_s = SimDuration::from_secs(1);
        let t_f = SimDuration::from_secs(200);
        let opt = young_interval(t_s, t_f);
        println!("Ts=1s Tf=200s  →  optimum Tc = √(2·Ts·Tf) = {opt}");
        println!("{:>10} {:>12}", "Tc", "overhead");
        for factor in [0.25, 0.5, 1.0, 2.0, 4.0] {
            let tc = opt.mul_f64(factor);
            println!(
                "{:>10} {:>12.5}",
                format!("{tc}"),
                young_overhead(tc, t_s, t_f)
            );
        }
    }

    if section("fig5_1", "The open queuing model (topology)", wanted) {
        println!("sources (processing nodes) → network → recorder NIC → recorder CPU → disk(s)");
        println!("message classes: short 128 B (syscalls), long 1024 B (I/O),");
        println!("checkpoint 1024 B fragments; recorder acks return on the network.");
    }

    if section(
        "fig5_2",
        "Hardware parameters for the queuing model",
        wanted,
    ) {
        println!("Ethernet interface interpacket delay   1.6 ms");
        println!("Network bandwidth                      10 megabits per second");
        println!("Disk latency                           3 ms");
        println!("Disk transfer rate                     2 megabytes per second");
        println!("Time to process a packet               0.8 ms");
    }

    if section(
        "fig5_3",
        "State sizes for UNIX processes (synthesized)",
        wanted,
    ) {
        let mut rng = DetRng::new(53);
        let d = StateSizes::default();
        let hist = d.histogram(&mut rng, 200_000, 12);
        let mut rng2 = DetRng::new(53);
        println!(
            "mean state size: {:.1} KB",
            d.mean_bytes(&mut rng2, 100_000) / 1024.0
        );
        println!("{:>12} {:>8}  histogram", "size (KB)", "frac");
        for (i, f) in hist.iter().enumerate() {
            let lo = 4.0 + i as f64 * 5.0;
            let bar = "#".repeat((f * 200.0) as usize);
            println!(
                "{:>12} {:>8.3}  {}",
                format!("{lo:.0}-{:.0}", lo + 5.0),
                f,
                bar
            );
        }
    }

    if section("fig5_4", "Operating points for the queuing model", wanted) {
        println!(
            "{:<18} {:>10} {:>12} {:>10} {:>10} {:>12}",
            "point", "procs/node", "state (KB)", "short/s", "long/s", "ckpt msgs/s"
        );
        for op in operating_points() {
            println!(
                "{:<18} {:>10.1} {:>12.0} {:>10.1} {:>10.2} {:>12.2}",
                op.name,
                op.procs_per_node,
                op.state_bytes / 1024.0,
                op.traffic.short_per_sec,
                op.traffic.long_per_sec,
                op.checkpoint_msgs_per_proc(),
            );
        }
    }

    if section(
        "fig5_5",
        "Utilization of system components (1–5 nodes, 1–3 disks)",
        wanted,
    ) {
        for buffered in [true, false] {
            println!(
                "\n--- {} ---",
                if buffered {
                    "with 4 KB write buffering"
                } else {
                    "one disk write per message"
                }
            );
            println!(
                "{:<18} {:>5} {:>5} {:>8} {:>8} {:>8} {:>8}",
                "point", "nodes", "disks", "cpu", "disk", "nic", "net"
            );
            for row in figure_5_5(buffered) {
                if row.disks != 1 && row.point != "max-disk-rate" {
                    continue; // extra disks only matter where the disk works
                }
                println!(
                    "{:<18} {:>5} {:>5} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                    row.point, row.nodes, row.disks, row.cpu, row.disk, row.nic, row.network
                );
            }
        }
        println!("\nshape checks: unbuffered disk saturates at max-disk-rate (≥1.0);");
        println!("max-syscall-rate saturates the recorder beyond 3 nodes; the mean");
        println!("point stays viable through 5 nodes.");
    }

    if section(
        "capacity",
        "Recorder capacity (abstract: 115 users)",
        wanted,
    ) {
        let users = max_users(&SystemConfig::default());
        println!("max users at the mean operating point before any component saturates: {users}");
        let more =
            publishing_queueing::max_users_with_unrecoverable(&SystemConfig::default(), 0.15);
        println!("with 15% of traffic unrecoverable (§6.6.1):                          {more}");
    }

    if section(
        "shard_capacity",
        "User capacity vs recorder shard count (sharded tier)",
        wanted,
    ) {
        let r1 = shard_capacity_curve(8, 1);
        let r2 = shard_capacity_curve(8, 2);
        println!("(mean operating point; tier = max users before any shard NIC/CPU/disk");
        println!(" saturates; medium = the shared wire's own limit; effective = min)");
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>12}",
            "shards", "tier (R=1)", "tier (R=2)", "medium", "effective"
        );
        for (a, b) in r1.iter().zip(&r2) {
            println!(
                "{:>6} {:>12} {:>12} {:>12} {:>12}",
                a.shards, a.tier_users, b.tier_users, b.medium_users, b.effective_users
            );
        }
        println!("\ntier capacity grows with every shard added; the unsharded broadcast");
        println!("medium becomes the binding resource once the tier outgrows the wire.");
    }

    if section(
        "fig5_7",
        "Per-message overheads, with/without publishing",
        wanted,
    ) {
        let with = scenarios::per_message_costs(true, 512);
        let without = scenarios::per_message_costs(false, 512);
        println!("(512 send-to-self rounds, Figure 5.6 program)");
        println!("{:<12} {:>12} {:>12}", "", "realTime", "cpuTime");
        println!(
            "{:<12} {:>10.1}ms {:>10.1}ms",
            "with", with.real_ms, with.cpu_ms
        );
        println!(
            "{:<12} {:>10.1}ms {:>10.1}ms",
            "without", without.real_ms, without.cpu_ms
        );
        println!(
            "publishing adds {:.1} ms CPU per message (paper: ~26 ms on a VAX 11/750)",
            with.cpu_ms - without.cpu_ms
        );
    }

    if section("fig5_8", "Per-process create/destroy overheads", wanted) {
        let with = scenarios::per_process_costs(true, 25);
        let without = scenarios::per_process_costs(false, 25);
        println!("(25 create/destroy cycles of a null process via the control chain)");
        println!("with publishing:    {with:>8.0} ms CPU   (paper: 5135 ms)");
        println!("without publishing: {without:>8.0} ms CPU   (paper: 608 ms)");
        println!("ratio: {:.1}x (paper: 8.4x)", with / without);
    }

    if section(
        "publish_cost",
        "Recorder per-message publish CPU (§5.2.2)",
        wanted,
    ) {
        for (mode, label) in [
            (PublishCost::FullStack, "full protocol stack (measured)"),
            (PublishCost::Inlined, "after inlining (measured)"),
            (PublishCost::MediaLayer, "media-layer intercept (goal)"),
        ] {
            println!("{:<32} {}", label, {
                let d = mode.per_message();
                format!("{d}")
            });
        }
    }

    if section(
        "fig6_2",
        "Standard vs Acknowledging Ethernet under load",
        wanted,
    ) {
        let horizon = SimTime::from_secs(5);
        println!(
            "{:>8} {:>12} {:>12} {:>12} {:>12}",
            "load/st", "plain del/s", "ack del/s", "plain coll", "ack coll"
        );
        for load in [2.0, 10.0, 30.0, 60.0, 100.0] {
            let plain = scenarios::ethernet_run(false, 8, load, horizon, 4);
            let ack = scenarios::ethernet_run(true, 8, load, horizon, 4);
            println!(
                "{:>8.0} {:>12.1} {:>12.1} {:>12} {:>12}",
                load, plain.delivered_fps, ack.delivered_fps, plain.collisions, ack.collisions
            );
        }
        println!("(light load: both behave alike; heavy load: the acknowledging");
        println!("Ethernet suffers fewer collisions — §6.1.1's claim)");
    }

    if section(
        "fig6_4",
        "Token ring with the recorder acknowledge field",
        wanted,
    ) {
        println!("{:>20} {:>16}", "recorder position", "mean latency");
        for recorder in [1, 3, 5, 7] {
            let run = scenarios::token_ring_run(8, recorder, 64);
            println!(
                "{:>20} {:>13.1} us",
                run.recorder_distance, run.mean_latency_us
            );
        }
        println!("(destinations upstream of the recorder wait a second revolution)");
    }

    if section(
        "baselines",
        "Work lost after a crash: Chapter 2 methods vs publishing",
        wanted,
    ) {
        let c = scenarios::baseline_comparison(100, 7);
        println!("mean work discarded per crash (4 processes, 10 s histories):");
        println!(
            "  recovery lines (Rule 1):   {:>10.1} ms",
            c.recovery_lines_ms
        );
        println!("  Russell replay (Rule 2):   {:>10.1} ms", c.russell_ms);
        println!("  published communications:  {:>10.1} ms", c.publishing_ms);
        // Steady-state comparison against shadow processes (§2.3).
        use publishing_core::baseline::ShadowCosts;
        use publishing_sim::time::SimDuration as D;
        let shadow = ShadowCosts {
            update_send: D::from_millis(13),
            update_apply: D::from_millis(13),
            update_bytes: 256,
        };
        println!("\nsteady-state cost of 1000 state updates:");
        println!(
            "  shadow processes: {} of *application node* CPU (per §2.3, every\n  update crosses to the shadow)",
            shadow.cpu_overhead(1000)
        );
        println!(
            "  publishing:       {} at the dedicated recorder (media-layer mode);\n  application nodes pay only the broadcast send",
            publishing_core::recorder::PublishCost::MediaLayer
                .per_message()
                .saturating_mul(1000)
        );
    }

    if section(
        "recovery_time",
        "Measured recovery latency vs checkpoint interval",
        wanted,
    ) {
        println!("{:>20} {:>16}", "checkpoint every", "recovery takes");
        for interval in [0u64, 200, 100, 50] {
            let ms = scenarios::measured_recovery_ms(interval, 400);
            let label = if interval == 0 {
                "never".to_string()
            } else {
                format!("{interval} ms")
            };
            println!("{:>20} {:>13.1} ms", label, ms);
        }
        println!("(more frequent checkpoints bound recovery — §3.2.3)");
    }

    if section(
        "windowing",
        "Stop-and-wait vs windowed transport (§4.3.3)",
        wanted,
    ) {
        println!("{:>10} {:>18}", "window", "40-msg flood time");
        for window in [1usize, 2, 4, 8] {
            let ms = scenarios::flood_completion_ms(window, 40);
            println!("{:>10} {:>15.1} ms", window, ms);
        }
        println!("(the thesis ships window 1 — \"only one unacknowledged message in");
        println!("transit from each processor\" — and plans the windowing scheme)");
    }

    if section(
        "node_unit",
        "Recovering nodes rather than processes (§6.6.2)",
        wanted,
    ) {
        use publishing_core::node_recovery::{run_workload, NodeUnit};
        let mut rng = DetRng::new(21);
        let (live, log) = run_workload(6, 3, 300, &mut rng);
        let recovered = NodeUnit::replay(6, 3, &log);
        println!("6-process node, 300 extranode events:");
        println!(
            "  intranode messages (unpublished): {}",
            live.intranode_messages
        );
        println!("  extranode messages (published):   {}", log.len());
        println!(
            "  published fraction: {:.1}%",
            100.0 * log.len() as f64 / (log.len() as f64 + live.intranode_messages as f64)
        );
        println!(
            "  replay reproduces the node exactly: {}",
            recovered.state_digest() == live.state_digest()
        );
    }

    println!();
}
