//! Integration tests for the Chapter 6 extensions: transactions over
//! publishing and publishing over the contention media (Acknowledging
//! Ethernet, token ring). §6.3's multiple recorders are the sharded
//! tier's, tested in `publishing-shard`'s `tests/replicated.rs`.

use publishing_core::transactions::{tx_codes, TxCoordinator, TxOp, TxParticipant, TxRequest};
use publishing_core::world::WorldBuilder;
use publishing_demos::ids::{Channel, LinkId, ProcessId};
use publishing_demos::kernel::{decode_ctl, encode_ctl};
use publishing_demos::link::Link;
use publishing_demos::program::{Ctx, Program, Received};
use publishing_demos::programs::{self, PingClient};
use publishing_demos::registry::ProgramRegistry;
use publishing_net::ethernet::Ethernet;
use publishing_net::lan::LanConfig;
use publishing_net::token_ring::TokenRing;
use publishing_sim::codec::{CodecError, Decoder, Encoder};
use publishing_sim::time::{SimDuration, SimTime};

/// Fires `total` sequential transfers of 10 from alice (participant 0) to
/// bob (participant 1) through the coordinator on initial link 0, and
/// outputs each outcome.
struct BankClient {
    total: u64,
    started: u64,
    done: u64,
}

impl BankClient {
    fn new(total: u64) -> Self {
        BankClient {
            total,
            started: 0,
            done: 0,
        }
    }

    fn begin(&mut self, ctx: &mut Ctx<'_>) {
        self.started += 1;
        let reply = ctx.create_link(Channel::DEFAULT, 0);
        let req = TxRequest {
            ops: vec![
                TxOp {
                    participant: 0,
                    account: "alice".into(),
                    delta: -10,
                },
                TxOp {
                    participant: 1,
                    account: "bob".into(),
                    delta: 10,
                },
            ],
        };
        let _ = ctx.send_passing(LinkId(0), encode_ctl(tx_codes::TX_BEGIN, &req), reply);
    }
}

impl Program for BankClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.total > 0 {
            self.begin(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        if let Some((tx_codes::TX_DONE, payload)) = decode_ctl(&msg.body) {
            let mut d = Decoder::new(payload);
            let tx = d.u64().unwrap_or(u64::MAX);
            let committed = d.bool().unwrap_or(false);
            self.done += 1;
            ctx.output(format!("tx {tx} committed={committed}").into_bytes());
            ctx.compute(SimDuration::from_millis(1));
            if self.started < self.total {
                self.begin(ctx);
            } else {
                ctx.output(b"bank done".to_vec());
            }
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.total).u64(self.started).u64(self.done);
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.total = d.u64()?;
        self.started = d.u64()?;
        self.done = d.u64()?;
        d.finish()
    }
}

fn tx_registry(transfers: u64) -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    reg.register("coordinator", || Box::new(TxCoordinator::new()));
    reg.register("bank-a", || {
        Box::new(TxParticipant::with_accounts(&[("alice", 1000)]))
    });
    reg.register("bank-b", || {
        Box::new(TxParticipant::with_accounts(&[("bob", 0)]))
    });
    reg.register("client", move || Box::new(BankClient::new(transfers)));
    reg
}

/// Reads a participant's balances out of a world via its snapshot.
fn balance(w: &publishing_core::world::World, pid: ProcessId, account: &str) -> i64 {
    let proc = w.kernels[pid.node.0 as usize].process(pid.local).unwrap();
    let mut p = TxParticipant::default();
    p.restore(&proc.program.snapshot()).unwrap();
    p.accounts.get(account).copied().unwrap_or(i64::MIN)
}

fn run_bank(transfers: u64, crash: Option<(&str, u64)>) -> (i64, i64, Vec<String>) {
    let mut w = WorldBuilder::new(3)
        .registry(tx_registry(transfers))
        .build();
    let bank_a = w.spawn(1, "bank-a", vec![]).unwrap();
    let bank_b = w.spawn(2, "bank-b", vec![]).unwrap();
    let coord = w
        .spawn(
            0,
            "coordinator",
            vec![
                Link::to(bank_a, Channel::DEFAULT, 0),
                Link::to(bank_b, Channel::DEFAULT, 0),
            ],
        )
        .unwrap();
    let client = w
        .spawn(0, "client", vec![Link::to(coord, Channel::DEFAULT, 0)])
        .unwrap();
    if let Some((who, at_ms)) = crash {
        w.run_until(SimTime::from_millis(at_ms));
        let victim = match who {
            "coordinator" => coord,
            "bank-a" => bank_a,
            "bank-b" => bank_b,
            _ => client,
        };
        w.crash_process(victim, "injected");
    }
    w.run_until(SimTime::from_secs(30));
    let a = balance(&w, bank_a, "alice");
    let b = balance(&w, bank_b, "bob");
    (a, b, w.outputs_of(client))
}

#[test]
fn transactions_commit_without_crashes() {
    let (alice, bob, out) = run_bank(10, None);
    assert_eq!(alice, 900);
    assert_eq!(bob, 100);
    assert_eq!(alice + bob, 1000, "conservation");
    assert_eq!(out.len(), 11);
    assert_eq!(out.last().unwrap(), "bank done");
    assert!(out[..10].iter().all(|l| l.ends_with("committed=true")));
}

#[test]
fn coordinator_crash_preserves_atomicity() {
    // §6.4: intentions and transaction state are rebuilt by replay; no
    // transfer is lost or applied twice.
    let (alice, bob, out) = run_bank(10, Some(("coordinator", 8)));
    assert_eq!(alice + bob, 1000, "conservation across coordinator crash");
    assert_eq!(alice, 900);
    assert_eq!(bob, 100);
    assert_eq!(out.last().unwrap(), "bank done");
}

#[test]
fn participant_crash_preserves_atomicity() {
    let (alice, bob, out) = run_bank(10, Some(("bank-b", 10)));
    assert_eq!(alice + bob, 1000, "conservation across participant crash");
    assert_eq!(alice, 900);
    assert_eq!(bob, 100);
    assert_eq!(out.last().unwrap(), "bank done");
}

#[test]
fn overdraft_transactions_abort_cleanly() {
    // 110 transfers of 10 against 1000: the last 10 must abort.
    let (alice, bob, out) = run_bank(110, None);
    assert_eq!(alice, 0);
    assert_eq!(bob, 1000);
    assert_eq!(
        out.iter().filter(|l| l.ends_with("committed=true")).count(),
        100
    );
    assert_eq!(
        out.iter()
            .filter(|l| l.ends_with("committed=false"))
            .count(),
        10
    );
}

fn multi_registry() -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("slowping", || {
        let mut p = PingClient::new(25);
        p.think_ns = 1_500_000;
        Box::new(p)
    });
    reg
}

fn ping_registry(n: u64) -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    reg.register("ping", move || Box::new(PingClient::new(n)));
    reg
}

#[test]
fn recovery_works_over_acknowledging_ethernet() {
    // §6.1.1: the Acknowledging Ethernet with a reserved recorder ack slot.
    let cfg = LanConfig {
        seed: 3,
        ..LanConfig::default()
    };
    let lan = Ethernet::acknowledging(cfg);
    // The builder attaches stations 0, 1 (nodes) and 2 (recorder) and
    // marks station 2 as the required recorder.
    let mut w = WorldBuilder::new(2)
        .registry(ping_registry(8))
        .medium(Box::new(lan))
        .build();
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "ping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(200));
    w.crash_process(server, "injected");
    w.run_until(SimTime::from_secs(30));
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 9, "{out:?}");
    assert!(w.lan.stats().submitted.get() > 0);
}

#[test]
fn recovery_works_over_token_ring() {
    // §6.1.2: the token ring with the recorder acknowledge field.
    let cfg = LanConfig {
        seed: 5,
        ..LanConfig::default()
    };
    let lan = TokenRing::new(cfg, SimDuration::from_micros(20));
    let mut w = WorldBuilder::new(2)
        .registry(ping_registry(8))
        .medium(Box::new(lan))
        .build();
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "ping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(200));
    w.crash_process(server, "injected");
    w.run_until(SimTime::from_secs(30));
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 9, "{out:?}");
}

#[test]
fn recovery_works_over_star_hub() {
    // §4.1's Z8000 testbed shape: the recording node is the hub of a
    // star; "any messages received incorrectly by the recorder are not
    // passed on." The hub station must be the recorder's (node 2 here).
    use publishing_net::star::StarHub;
    let cfg = LanConfig {
        seed: 8,
        ..LanConfig::default()
    };
    let lan = StarHub::new(
        cfg,
        publishing_net::frame::StationId(2),
        SimDuration::from_micros(100),
    );
    let mut w = WorldBuilder::new(2)
        .registry(ping_registry(8))
        .medium(Box::new(lan))
        .build();
    let server = w.spawn(1, "echo", vec![]).unwrap();
    let client = w
        .spawn(0, "ping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(100));
    w.crash_process(server, "injected");
    w.run_until(SimTime::from_secs(30));
    let out = w.outputs_of(client);
    assert_eq!(out.len(), 9, "{out:?}");
}

#[test]
fn windowed_transport_recovers_identically() {
    // The §4.3.3 windowing upgrade must not change recovery semantics.
    use publishing_demos::transport::TransportConfig;
    let run = |window: usize| {
        let transport = TransportConfig { window };
        let mut w = WorldBuilder::new(2)
            .registry(multi_registry())
            .transport(transport)
            .build();
        let server = w.spawn(1, "echo", vec![]).unwrap();
        let client = w
            .spawn(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
            .unwrap();
        w.run_until(SimTime::from_millis(40));
        w.crash_process(server, "injected");
        w.run_until(SimTime::from_secs(20));
        w.outputs_of(client)
    };
    let saw = run(1);
    let win = run(8);
    assert_eq!(saw, win);
    assert_eq!(saw.len(), 26);
}

#[test]
fn unrecoverable_processes_are_not_published_and_stay_dead() {
    // §6.6.1: "there are a large number of processes which do not need to
    // be recoverable. If we do not publish messages for these processes,
    // we may greatly increase the capability of the recorder."
    let mut w = WorldBuilder::new(2).registry(multi_registry()).build();
    let server = w.spawn(1, "echo", vec![]).unwrap();
    // A status command (ps/vmstat-style): nobody wants it restarted.
    let status = w
        .spawn_unrecoverable(0, "slowping", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    w.run_until(SimTime::from_millis(40));
    let entry = w.tier.recorder().entry(status).expect("registered");
    assert!(!entry.recoverable);
    // Its inbound messages were never published.
    assert!(w.tier.recorder().replay_stream(status).is_empty());
    w.crash_process(status, "fatal by choice");
    w.run_until(SimTime::from_secs(5));
    // Not recovered: still crashed.
    let p = w.kernels[0].process(status.local).unwrap();
    assert_eq!(p.run, publishing_demos::process::RunState::Crashed);
}
