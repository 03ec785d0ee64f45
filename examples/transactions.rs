//! Transactions using published communications (§6.4).
//!
//! A two-phase-commit bank: coordinator and two branch participants, with
//! intentions and transaction state held in plain (recoverable) process
//! state — "there is no need to store intentions and transaction state in
//! stable store … only one reliable store is needed, the publishing
//! storage." We crash the coordinator mid-transfer and show every
//! transfer still executes exactly once; money is conserved.
//!
//! Run with: `cargo run --example transactions`

use publishing::core::transactions::{tx_codes, TxCoordinator, TxOp, TxParticipant, TxRequest};
use publishing::core::world::WorldBuilder;
use publishing::demos::ids::{Channel, LinkId};
use publishing::demos::kernel::{decode_ctl, encode_ctl};
use publishing::demos::link::Link;
use publishing::demos::program::{Ctx, Program, Received};
use publishing::demos::registry::ProgramRegistry;
use publishing::sim::codec::{CodecError, Decoder, Encoder};
use publishing::sim::time::{SimDuration, SimTime};

/// Issues `total` transfers of 25 from checking (participant 0) to
/// savings (participant 1), one at a time.
struct Teller {
    total: u64,
    started: u64,
}

impl Teller {
    fn begin(&mut self, ctx: &mut Ctx<'_>) {
        self.started += 1;
        let reply = ctx.create_link(Channel::DEFAULT, 0);
        let req = TxRequest {
            ops: vec![
                TxOp {
                    participant: 0,
                    account: "checking".into(),
                    delta: -25,
                },
                TxOp {
                    participant: 1,
                    account: "savings".into(),
                    delta: 25,
                },
            ],
        };
        let _ = ctx.send_passing(LinkId(0), encode_ctl(tx_codes::TX_BEGIN, &req), reply);
    }
}

impl Program for Teller {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.begin(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        if let Some((tx_codes::TX_DONE, payload)) = decode_ctl(&msg.body) {
            let mut d = Decoder::new(payload);
            let tx = d.u64().unwrap_or(0);
            let ok = d.bool().unwrap_or(false);
            ctx.output(
                format!(
                    "transfer {tx}: {}",
                    if ok { "committed" } else { "aborted" }
                )
                .into_bytes(),
            );
            ctx.compute(SimDuration::from_millis(1));
            if self.started < self.total {
                self.begin(ctx);
            } else {
                ctx.output(b"teller done".to_vec());
            }
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.total).u64(self.started);
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.total = d.u64()?;
        self.started = d.u64()?;
        d.finish()
    }
}

fn main() {
    let mut registry = ProgramRegistry::new();
    registry.register("coordinator", || Box::new(TxCoordinator::new()));
    registry.register("checking", || {
        Box::new(TxParticipant::with_accounts(&[("checking", 500)]))
    });
    registry.register("savings", || {
        Box::new(TxParticipant::with_accounts(&[("savings", 0)]))
    });
    registry.register("teller", || {
        Box::new(Teller {
            total: 8,
            started: 0,
        })
    });

    let mut world = WorldBuilder::new(3).registry(registry).build();
    let checking = world.spawn(1, "checking", vec![]).unwrap();
    let savings = world.spawn(2, "savings", vec![]).unwrap();
    let coordinator = world
        .spawn(
            0,
            "coordinator",
            vec![
                Link::to(checking, Channel::DEFAULT, 0),
                Link::to(savings, Channel::DEFAULT, 0),
            ],
        )
        .unwrap();
    let teller = world
        .spawn(
            0,
            "teller",
            vec![Link::to(coordinator, Channel::DEFAULT, 0)],
        )
        .unwrap();

    println!("8 transfers of 25 from checking(500) to savings(0)\n");
    world.run_until(SimTime::from_millis(12));
    println!(
        "t={}  coordinator crashes mid two-phase commit…",
        world.now()
    );
    world.crash_process(coordinator, "injected");
    world.run_until(SimTime::from_secs(30));

    for line in world.outputs_of(teller) {
        println!("  {line}");
    }

    let read_balance = |pid: publishing::demos::ids::ProcessId, name: &str| -> i64 {
        let snap = world.kernels[pid.node.0 as usize]
            .process(pid.local)
            .unwrap()
            .program
            .snapshot();
        let mut p = TxParticipant::default();
        p.restore(&snap).unwrap();
        p.accounts[name]
    };
    let c = read_balance(checking, "checking");
    let s = read_balance(savings, "savings");
    println!("\nfinal balances: checking={c} savings={s} (sum {})", c + s);
    assert_eq!(c, 500 - 8 * 25);
    assert_eq!(s, 8 * 25);
    println!("atomicity and exactly-once held across the coordinator crash —");
    println!("with no per-node stable storage anywhere except the recorder.");
}
