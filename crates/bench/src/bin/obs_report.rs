//! Renders the unified observability report for a crash/recovery run of
//! the sharded recorder tier.
//!
//! Drives a deterministic scenario — echo servers on one node, ping
//! clients elsewhere, the server node crashed mid-run and recovered by
//! the responsible shards in parallel — then prints the [`ObsReport`]
//! artifact: shard health (replay lag drained to zero), per-process
//! recovery lag, message-lifecycle stage latencies, the virtual-time
//! profile, and the full metrics registry.
//!
//! Usage: `obs_report [--json] [--smoke] [--trace PATH] [--topology sharded|quorum]`
//!
//! - `--json` emits the report as a single JSON object instead of text;
//! - `--smoke` runs a smaller scenario (CI-friendly, < 1 s) and
//!   additionally replays it over each broadcast medium of the paper —
//!   ethernet, token ring, star — twice each, asserting the output
//!   fingerprint is identical across the double run (per-medium
//!   determinism);
//! - `--trace PATH` additionally exports the run's lifecycle spans as a
//!   Chrome-trace (Perfetto-loadable) JSON timeline: one process row
//!   per kernel and per shard recorder, plus per-message lifecycle
//!   lanes with publish→capture→sequence→deliver slices;
//! - `--topology quorum` drives the replicated-recorder world instead:
//!   a leader-crash failover plus a node crash, reported with the
//!   schema-v3 consensus sections (per-replica health, commit-latency
//!   percentiles, the invariant watchdog). The process exits non-zero
//!   if the watchdog surfaced any violation.
//!
//! [`ObsReport`]: publishing_obs::report::ObsReport

use publishing_core::WorldBuilder;
use publishing_demos::ids::{Channel, ProcessId};
use publishing_demos::link::Link;
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_net::{Ethernet, Lan, LanConfig, StarHub, StationId, TokenRing};
use publishing_obs::span::check_replay_prefix;
use publishing_perf::trace;
use publishing_quorum::{QuorumTier, QuorumWorld};
use publishing_shard::{ShardTier, ShardedWorld};
use publishing_sim::time::{SimDuration, SimTime};

fn registry(pings: u64) -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("pinger", move || {
        let mut p = PingClient::new(pings);
        p.think_ns = 2_000_000;
        Box::new(p)
    });
    reg
}

/// Runs the canonical crash/recovery scenario, optionally on a
/// caller-supplied medium (default: the perfect bus).
fn run_scenario(
    pings: u64,
    pairs: u32,
    horizon: SimTime,
    medium: Option<Box<dyn Lan>>,
) -> (ShardedWorld, Vec<ProcessId>) {
    let reg = registry(pings);
    let mut builder = WorldBuilder::new(3).registry(reg);
    if let Some(m) = medium {
        builder = builder.medium(m);
    }
    let mut w = ShardTier::world(builder, 4);
    let mut servers = Vec::new();
    for i in 0..pairs {
        let server = w.spawn(2, "echo", vec![]).expect("echo registered");
        w.spawn(i % 2, "pinger", vec![Link::to(server, Channel::DEFAULT, 7)])
            .expect("pinger registered");
        servers.push(server);
    }
    w.run_until(SimTime::from_millis(50));
    w.crash_node(2);
    w.run_until(horizon);
    (w, servers)
}

/// The three broadcast media of the paper's §4/§6, freshly built for a
/// 3-node + 4-shard world. Station ids mirror node ids, so the star hub
/// is shard 0's station (the paper's "recorder at the hub" topology).
fn media() -> Vec<(&'static str, Box<dyn Lan>)> {
    let cfg = LanConfig::default();
    vec![
        (
            "ethernet",
            Box::new(Ethernet::acknowledging(cfg.clone())) as Box<dyn Lan>,
        ),
        (
            "token_ring",
            Box::new(TokenRing::new(cfg.clone(), SimDuration::from_micros(20))),
        ),
        (
            "star",
            Box::new(StarHub::new(
                cfg,
                StationId(3),
                SimDuration::from_micros(100),
            )),
        ),
    ]
}

/// The quorum leader-failover scenario: echo traffic over a 3-way
/// recorder quorum, the leader replica crashed mid-run (forcing an
/// election), then the server node crashed (forcing a replay from the
/// replicated arrival log under the new leader).
fn run_quorum_scenario(pings: u64, horizon: SimTime) -> (QuorumWorld, ProcessId) {
    let reg = registry(pings);
    let mut w = QuorumTier::world(WorldBuilder::new(2).registry(reg), 3, 0);
    let server = w.spawn(1, "echo", vec![]).expect("echo registered");
    w.spawn(0, "pinger", vec![Link::to(server, Channel::DEFAULT, 7)])
        .expect("pinger registered");
    w.run_until(SimTime::from_millis(250));
    if let Some(leader) = w.tier.leader() {
        w.crash_member(leader);
    }
    w.run_until(SimTime::from_millis(400));
    w.crash_node(1);
    w.run_until(horizon);
    (w, server)
}

fn run_quorum(json: bool, smoke: bool, trace_path: Option<String>) {
    let (pings, horizon) = if smoke {
        (10u64, SimTime::from_secs(12))
    } else {
        (25u64, SimTime::from_secs(30))
    };
    let (w, server) = run_quorum_scenario(pings, horizon);
    let report = w.obs_report();
    if json {
        println!("{}", report.render_json());
    } else {
        println!("{}", report.render_text());
        println!("replay-prefix check (crashed node 1):");
        match check_replay_prefix(w.kernels[&1].spans(), server.as_u64()) {
            Ok(n) => println!("  pid {server}: {n} replayed reads match the pre-crash prefix"),
            Err(e) => println!("  pid {server}: DIVERGED: {e}"),
        }
    }

    if let Some(path) = trace_path {
        // Component order matches QuorumWorld::span_logs(): kernels by
        // node id, then replicas by index.
        let mut components = Vec::new();
        for (n, k) in &w.kernels {
            components.push((format!("node {n} kernel"), k.spans()));
        }
        for (i, r) in w.tier.replicas.iter().enumerate() {
            components.push((
                format!("replica {i} recorder"),
                r.recorder_node().recorder().spans(),
            ));
        }
        let trace = trace::from_spans(&components);
        if let Err(e) = std::fs::write(&path, trace.to_json()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "trace: {} events ({} slices) -> {path}",
            trace.events.len(),
            trace.count_phase('X')
        );
    }

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
            eprintln!("quorum smoke run completed no recoveries");
            std::process::exit(1);
        }
        let c = report
            .consensus
            .as_ref()
            .expect("quorum reports carry a consensus section");
        if c.commits == 0 {
            eprintln!("quorum smoke run measured no commit latencies");
            std::process::exit(1);
        }
        if c.elections < 2 {
            eprintln!("quorum smoke run should have re-elected after the leader crash");
            std::process::exit(1);
        }
        let fps: Vec<(u64, u64)> = (0..2)
            .map(|_| {
                let (w, _) = run_quorum_scenario(pings, horizon);
                (w.output_fingerprint(), w.obs_fingerprint())
            })
            .collect();
        if fps[0] != fps[1] {
            eprintln!(
                "quorum smoke run is not deterministic: {:?} vs {:?}",
                fps[0], fps[1]
            );
            std::process::exit(1);
        }
        eprintln!(
            "quorum smoke: output {:#018x} spans {:#018x} (stable over 2 runs)",
            fps[0].0, fps[0].1
        );
    }
}

const USAGE: &str =
    "usage: obs_report [--json] [--smoke] [--trace PATH] [--topology sharded|quorum]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut smoke = false;
    let mut trace_path: Option<String> = None;
    let mut quorum = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--smoke" => smoke = true,
            "--trace" => {
                i += 1;
                let Some(p) = args.get(i) else {
                    eprintln!("--trace needs a path; {USAGE}");
                    std::process::exit(2);
                };
                trace_path = Some(p.clone());
            }
            "--topology" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("sharded") => quorum = false,
                    Some("quorum") => quorum = true,
                    _ => {
                        eprintln!("--topology needs sharded|quorum; {USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            bad => {
                eprintln!("unknown argument {bad:?}; {USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if quorum {
        run_quorum(json, smoke, trace_path);
        return;
    }

    let (pings, pairs, horizon) = if smoke {
        (10u64, 2u32, SimTime::from_secs(20))
    } else {
        (25u64, 4u32, SimTime::from_secs(40))
    };

    let (w, servers) = run_scenario(pings, pairs, horizon, None);

    let report = w.obs_report();
    if json {
        println!("{}", report.render_json());
    } else {
        println!("{}", report.render_text());
        let kernel = &w.kernels[&2];
        println!("replay-prefix check (crashed node 2):");
        for server in &servers {
            match check_replay_prefix(kernel.spans(), server.as_u64()) {
                Ok(n) => println!("  pid {server}: {n} replayed reads match the pre-crash prefix"),
                Err(e) => println!("  pid {server}: DIVERGED: {e}"),
            }
        }
    }

    if let Some(path) = trace_path {
        // Component order matches ShardedWorld::span_logs(): kernels by
        // node id, then shards by index.
        let mut components = Vec::new();
        for (n, k) in &w.kernels {
            components.push((format!("node {n} kernel"), k.spans()));
        }
        for (i, rn) in w.tier.shards.iter().enumerate() {
            components.push((format!("shard {i} recorder"), rn.recorder().spans()));
        }
        let trace = trace::from_spans(&components);
        if let Err(e) = std::fs::write(&path, trace.to_json()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "trace: {} events ({} slices) -> {path}",
            trace.events.len(),
            trace.count_phase('X')
        );
    }

    // A smoke run must actually have exercised recovery, and the same
    // must hold — deterministically — over every medium of the paper.
    if smoke {
        if w.recoveries_completed() == 0 {
            eprintln!("smoke run completed no recoveries");
            std::process::exit(1);
        }
        for (name, _) in media() {
            let runs: Vec<u64> = (0..2)
                .map(|_| {
                    let medium = media()
                        .into_iter()
                        .find(|(n, _)| *n == name)
                        .map(|(_, m)| m);
                    let (w, _) = run_scenario(pings, pairs, horizon, medium);
                    if w.recoveries_completed() == 0 {
                        eprintln!("smoke run over {name} completed no recoveries");
                        std::process::exit(1);
                    }
                    if w.outputs.is_empty() {
                        eprintln!("smoke run over {name} produced no outputs");
                        std::process::exit(1);
                    }
                    w.output_fingerprint()
                })
                .collect();
            if runs[0] != runs[1] {
                eprintln!(
                    "smoke run over {name} is not deterministic: {:#018x} vs {:#018x}",
                    runs[0], runs[1]
                );
                std::process::exit(1);
            }
            eprintln!(
                "media smoke: {name:<10} fingerprint {:#018x} (stable over 2 runs)",
                runs[0]
            );
        }
    }
}
