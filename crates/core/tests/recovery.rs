//! End-to-end recovery tests: the paper's central claims, exercised
//! through the full world (nodes + recorder + medium).

use publishing_core::checkpoint::CheckpointPolicy;
use publishing_core::node::RecorderConfig;
use publishing_core::world::{World, WorldBuilder};
use publishing_demos::ids::{Channel, ProcessId};
use publishing_demos::link::Link;
use publishing_demos::programs::{self, Chatter, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_sim::time::{SimDuration, SimTime};

fn registry() -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("ping10", || Box::new(PingClient::new(10)));
    reg.register("ping50", || Box::new(PingClient::new(50)));
    reg
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// A paced ping client: like PingClient but with per-iteration think
/// time, so crashes land mid-workload.
fn slow_ping_registry(n: u64, think_us: u64) -> ProgramRegistry {
    let mut reg = registry();
    reg.register("slowping", move || {
        let mut p = PingClient::new(n);
        p.think_ns = think_us * 1_000;
        Box::new(p)
    });
    reg
}

#[test]
fn server_crash_recovers_transparently() {
    let mut w = WorldBuilder::new(2).registry(registry()).build();
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "ping10", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    // Let a few pings through, then crash the server process.
    w.run_until(SimTime::from_millis(40));
    w.crash_process(server, "injected parity error");
    w.run_until(secs(10));
    // The client saw every pong exactly once; it never learned anything
    // happened.
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 11, "10 pongs + done: {out:?}");
    assert_eq!(out[10], "done");
    for (i, line) in out.iter().take(10).enumerate() {
        assert!(
            line.starts_with(&format!("pong {}", i + 1)),
            "line {i}: {line}"
        );
    }
    // Recovery actually happened (this wasn't a lucky no-op).
    assert_eq!(w.tier.manager().stats().completed.get(), 1);
    assert!(w.tier.manager().stats().replayed.get() > 0);
}

#[test]
fn client_crash_recovers_and_finishes() {
    let mut w = WorldBuilder::new(2)
        .registry(slow_ping_registry(20, 2000))
        .build();
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(60));
    w.crash_process(client, "injected");
    w.run_until(secs(10));
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 21, "{out:?}");
    assert_eq!(out.last().unwrap(), "done");
    // The server never executed a duplicate request: 20 echoes exactly.
    let sp = w.kernels[1].process(server.local).unwrap();
    assert_eq!(sp.read_count, 20);
}

#[test]
fn node_crash_detected_and_all_processes_recovered() {
    let mut w = WorldBuilder::new(2)
        .registry(slow_ping_registry(30, 1000))
        .build();
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(50));
    // The whole server node dies; the watchdog must notice.
    w.crash_node(1);
    w.run_until(secs(20));
    assert!(w.tier.manager().stats().node_crashes.get() >= 1);
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 31, "{out:?}");
    assert_eq!(out.last().unwrap(), "done");
}

#[test]
fn recovery_uses_checkpoint_not_initial_state() {
    // Aggressive checkpointing: by crash time the server has a durable
    // checkpoint, so replay starts there instead of from the binary image.
    let cfg = RecorderConfig {
        policy: CheckpointPolicy::Periodic(SimDuration::from_millis(50)),
        policy_tick: SimDuration::from_millis(10),
    };
    let mut w = WorldBuilder::new(2)
        .registry(slow_ping_registry(40, 2000))
        .recorder(cfg)
        .build();
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(300));
    let checkpoints_before = w.tier.recorder().stats().checkpoints.get();
    assert!(checkpoints_before > 2, "checkpoints should have been taken");
    let floor = w.tier.recorder().entry(server).unwrap().read_floor;
    assert!(floor > 0, "server checkpoint covers some reads");
    w.crash_process(server, "injected");
    w.run_until(secs(20));
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 41, "{out:?}");
    // Replay was bounded by the checkpoint: fewer messages than the
    // server's total read count.
    let replayed = w.tier.manager().stats().replayed.get();
    let total_reads = w.kernels[1].process(server.local).unwrap().read_count;
    assert!(
        replayed < total_reads,
        "replayed {replayed} should be less than total reads {total_reads}"
    );
}

#[test]
fn crashed_and_crash_free_runs_are_equivalent() {
    // The core theorem, in its strict form: for this workload and crash
    // schedule, the run with crashes and recovery produces exactly the
    // outputs of the crash-free run. (Bit-exact equality is guaranteed
    // for FIFO-pair workloads; for multi-sender topologies like this one
    // it additionally requires that no undelivered cross-sender messages
    // were in flight at crash time — true for these fixed schedules, and
    // the property suite checks the order-independent guarantees for
    // arbitrary schedules.)
    let run = |crash: bool| -> (u64, World) {
        let mut reg = registry();
        reg.register("chat-a", || Box::new(Chatter::new(7, 2, true)));
        reg.register("chat-b", || Box::new(Chatter::new(9, 2, true)));
        reg.register("chat-c", || Box::new(Chatter::new(11, 2, true)));
        let mut w = WorldBuilder::new(3).registry(reg).build();
        let a = ProcessId::new(0, 1);
        let b = ProcessId::new(1, 1);
        let c = ProcessId::new(2, 1);
        // Ring of chatterboxes: each talks to the other two.
        w.spawn(
            0,
            "chat-a",
            vec![
                Link::to(b, Channel::DEFAULT, 0),
                Link::to(c, Channel::DEFAULT, 0),
            ],
        )
        .unwrap();
        w.spawn(
            1,
            "chat-b",
            vec![
                Link::to(c, Channel::DEFAULT, 0),
                Link::to(a, Channel::DEFAULT, 0),
            ],
        )
        .unwrap();
        w.spawn(
            2,
            "chat-c",
            vec![
                Link::to(a, Channel::DEFAULT, 0),
                Link::to(b, Channel::DEFAULT, 0),
            ],
        )
        .unwrap();
        if crash {
            w.run_until(SimTime::from_millis(100));
            w.crash_process(b, "injected");
            w.run_until(SimTime::from_millis(400));
            w.crash_process(c, "injected again");
        }
        w.run_until(secs(30));
        (w.output_fingerprint(), w)
    };
    let (clean, _wclean) = run(false);
    let (crashed, wcrashed) = run(true);
    assert!(wcrashed.tier.manager().stats().completed.get() >= 2);
    assert_eq!(clean, crashed, "recovered run must be externally identical");
}

#[test]
fn recorder_crash_suspends_then_system_resumes() {
    let mut w = WorldBuilder::new(2)
        .registry(slow_ping_registry(30, 1000))
        .build();
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(50));
    w.crash_recorder();
    // While the recorder is down no progress happens…
    let before = w.outputs_of(client).len();
    w.run_until(SimTime::from_millis(550));
    let during = w.outputs_of(client).len();
    assert!(
        during <= before + 1,
        "traffic suspended while recorder down"
    );
    // …and once it restarts, everything completes.
    w.restart_recorder();
    w.run_until(secs(30));
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 31, "{out:?}");
}

#[test]
fn recorder_restart_recovers_processes_that_died_while_it_was_down() {
    let mut w = WorldBuilder::new(2)
        .registry(slow_ping_registry(20, 1000))
        .build();
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(50));
    w.crash_recorder();
    w.run_until(SimTime::from_millis(100));
    // The server dies while the recorder is down: nobody records a crash
    // notice. The §3.3.4 state-query protocol must find it.
    w.crash_process(server, "silent while recorder down");
    w.run_until(SimTime::from_millis(200));
    w.restart_recorder();
    w.run_until(secs(30));
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 21, "{out:?}");
    assert!(w.tier.manager().stats().completed.get() >= 1);
}

#[test]
fn recursive_crash_during_recovery_still_recovers() {
    let mut w = WorldBuilder::new(2)
        .registry(slow_ping_registry(20, 2000))
        .build();
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(60));
    w.crash_process(server, "first");
    // Crash it again shortly after recovery begins (§3.5).
    w.run_until(SimTime::from_millis(75));
    w.crash_process(server, "recursive");
    w.run_until(secs(20));
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 21, "{out:?}");
}

#[test]
fn without_publishing_a_crash_loses_work() {
    // The baseline: same workload, no recorder — the crash is fatal to
    // the remaining pings.
    let mut w = WorldBuilder::new(2)
        .registry(slow_ping_registry(20, 1000))
        .without_publishing()
        .build();
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(50));
    w.crash_process(server, "fatal without publishing");
    w.run_until(secs(5));
    let out = w.outputs_of(client);
    assert!(out.len() < 21, "the run cannot complete: {}", out.len());
    assert_ne!(out.last().map(|s| s.as_str()), Some("done"));
}
