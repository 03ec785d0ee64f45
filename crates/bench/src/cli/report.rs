//! `lab report` — renders the unified observability report for a
//! crash/recovery run of the sharded recorder tier.
//!
//! Drives a deterministic scenario — echo servers on one node, ping
//! clients elsewhere, the server node crashed mid-run and recovered by
//! the responsible shards in parallel — then prints the [`ObsReport`]
//! artifact: shard health (replay lag drained to zero), per-process
//! recovery lag, message-lifecycle stage latencies, the virtual-time
//! profile, and the full metrics registry.
//!
//! - `--json` emits the report as a single JSON object instead of text,
//!   and nothing else on stdout;
//! - `--smoke` runs a smaller scenario (CI-friendly, < 1 s) and, as
//!   text, also replays it once over each broadcast medium of the paper
//!   — ethernet, token ring, star — printing each run's output and span
//!   fingerprints (two `lab smoke` runs diff them);
//! - `--trace PATH` additionally exports the run's lifecycle spans as a
//!   Chrome-trace (Perfetto-loadable) JSON timeline: one process row
//!   per kernel and per shard recorder, plus per-message lifecycle
//!   lanes with publish→capture→sequence→deliver slices;
//! - `--topology quorum` drives the replicated-recorder world instead:
//!   a leader-crash failover plus a node crash, reported with the
//!   consensus sections (per-replica health, commit-latency
//!   percentiles, the invariant watchdog). The process exits non-zero
//!   if the watchdog surfaced any violation.
//!
//! [`ObsReport`]: publishing_obs::report::ObsReport

use super::{fail, write_file, Flags};
use crate::canonical::{self, Sizing};
use publishing_chaos::Topology;
use publishing_core::world::{RecorderTier, World};
use publishing_demos::ids::ProcessId;
use publishing_net::{Ethernet, Lan, LanConfig, StarHub, StationId, TokenRing};
use publishing_obs::report::ObsReport;
use publishing_obs::span::check_replay_prefix;
use publishing_sim::time::{SimDuration, SimTime};

pub(super) const USAGE: &str = "[--json] [--smoke] [--trace PATH] [--topology sharded|quorum]";

/// The three broadcast media of the paper's §4/§6, sized for a 3-node +
/// 4-shard world. Station ids mirror node ids, so the star hub is shard
/// 0's station (the paper's "recorder at the hub" topology).
fn media() -> [(&'static str, Box<dyn Lan>); 3] {
    let (hop_latency, hub_delay) = (SimDuration::from_micros(20), SimDuration::from_micros(100));
    let ethernet = Ethernet::acknowledging(LanConfig::default());
    let ring = TokenRing::new(LanConfig::default(), hop_latency);
    let star = StarHub::new(LanConfig::default(), StationId(3), hub_delay);
    [
        ("ethernet", Box::new(ethernet)),
        ("token_ring", Box::new(ring)),
        ("star", Box::new(star)),
    ]
}

/// Prints the world's report — as JSON, or as text followed by the
/// output fingerprint and the replay-prefix check of every server on the
/// crashed node — writes the `--trace` export (tier members named
/// `member`), and returns the report.
fn emit<T: RecorderTier>(
    flags: &Flags,
    w: &World<T>,
    crashed: u32,
    servers: &[ProcessId],
    member: &str,
) -> ObsReport {
    let report = w.obs_report();
    if flags.has("--json") {
        println!("{}", report.render_json());
    } else {
        println!("{}", report.render_text());
        println!("output fingerprint {:#018x}", w.output_fingerprint());
        println!("replay-prefix check (crashed node {crashed}):");
        for server in servers {
            match check_replay_prefix(w.kernels[crashed as usize].spans(), server.as_u64()) {
                Ok(n) => println!("  pid {server}: {n} replayed reads match the pre-crash prefix"),
                Err(e) => println!("  pid {server}: DIVERGED: {e}"),
            }
        }
    }
    if let Some(path) = flags.value("--trace") {
        let trace = canonical::chrome_trace(w, member);
        write_file(path, trace.to_json());
        eprintln!(
            "trace: {} events ({} slices) -> {path}",
            trace.events.len(),
            trace.count_phase('X')
        );
    }
    report
}

fn run_quorum(flags: &Flags, smoke: bool) {
    let (pings, horizon) = if smoke {
        (10u64, SimTime::from_secs(12))
    } else {
        (25u64, SimTime::from_secs(30))
    };
    let (w, server) = canonical::quorum_failover_world(pings, horizon);
    let report = emit(flags, &w, 1, &[server], "replica");

    // The watchdog gates the exit code: any online invariant violation
    // fails the run, not just the render.
    let wd = report
        .watchdog
        .as_ref()
        .expect("quorum reports carry a watchdog section");
    eprintln!(
        "watchdog: {} checks, {} violations",
        wd.checks,
        wd.violations.len()
    );
    if !wd.violations.is_empty() {
        for v in &wd.violations {
            eprintln!("  ! {v}");
        }
        std::process::exit(1);
    }

    if smoke {
        if w.recoveries_completed() == 0 {
            fail(1, "quorum smoke run completed no recoveries");
        }
        let c = report
            .consensus
            .as_ref()
            .expect("quorum reports carry a consensus section");
        if c.commits == 0 {
            fail(1, "quorum smoke run measured no commit latencies");
        }
        if c.elections < 2 {
            fail(
                1,
                "quorum smoke run should have re-elected after the leader crash",
            );
        }
    }
}

pub(super) fn run(flags: &Flags) {
    let smoke = flags.has("--smoke");
    match flags.parsed("--topology") {
        None | Some(Topology::Sharded) => {}
        Some(Topology::Quorum) => return run_quorum(flags, smoke),
        Some(Topology::Single) => flags.reject("--topology needs sharded|quorum"),
    }

    let sizing = Sizing::new(smoke);
    let (mut w, servers) = canonical::ping_world(&sizing, None);
    canonical::crash_server_node(&mut w, sizing.horizon);
    emit(flags, &w, 2, &servers, "shard");

    // A smoke run must actually have exercised recovery, and so must the
    // same scenario over every medium of the paper.
    if smoke {
        if w.recoveries_completed() == 0 {
            fail(1, "smoke run completed no recoveries");
        }
        if flags.has("--json") {
            return;
        }
        for (name, medium) in media() {
            let (mut w, _) = canonical::ping_world(&sizing, Some(medium));
            canonical::crash_server_node(&mut w, sizing.horizon);
            if w.recoveries_completed() == 0 {
                fail(1, format!("smoke run over {name} completed no recoveries"));
            }
            if w.outputs.is_empty() {
                fail(1, format!("smoke run over {name} produced no outputs"));
            }
            println!(
                "media smoke: {name:<10} output {:#018x} spans {:#018x}",
                w.output_fingerprint(),
                w.obs_fingerprint()
            );
        }
    }
}
