//! Integration tests: kernels exchanging messages over a simulated LAN,
//! without a recorder (recovery-free DEMOS/MP behaviour, Chapter 4).

use publishing_demos::harness::Harness;
use publishing_demos::ids::{Channel, NodeId, ProcessId};
use publishing_demos::kernel::{decode_ctl, encode_ctl, Kernel};
use publishing_demos::link::Link;
use publishing_demos::programs::{self, PingClient};
use publishing_demos::protocol::codes;
use publishing_demos::registry::ProgramRegistry;
use publishing_demos::sysproc::{self, sys_codes, CreateDone, CreateReq};
use publishing_demos::transport::TransportConfig;
use publishing_demos::CostModel;
use publishing_net::bus::PerfectBus;
use publishing_net::lan::{Lan, LanConfig};
use publishing_sim::codec::{Decode, Decoder, Encode, Encoder};
use publishing_sim::fault::FaultPlan;
use publishing_sim::time::{SimDuration, SimTime};

fn registry() -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    programs::register_standard(&mut reg);
    sysproc::register_system(&mut reg);
    reg.register("ping3", || Box::new(PingClient::new(3)));
    reg
}

fn harness(nodes: u32, publishing: bool) -> Harness {
    let bus = PerfectBus::new(LanConfig::default());
    let mut h = Harness::new(Box::new(bus));
    for n in 0..nodes {
        let k = Kernel::new(
            NodeId(n),
            registry(),
            CostModel::default(),
            TransportConfig::default(),
            publishing,
        );
        h.add_kernel(k);
    }
    h
}

#[test]
fn internode_ping_pong_completes() {
    let mut h = harness(2, false);
    // Echo server on node 1.
    let server = h.spawn(1, "echo", vec![]).unwrap();
    // Ping client on node 0 with a link to the server.
    let client = h
        .spawn(0, "ping3", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    h.run_to_quiescence();
    let out = h.outputs_of(client);
    assert_eq!(out.len(), 4, "3 pongs + done: {out:?}");
    assert!(out[0].starts_with("pong 1"));
    assert!(out[2].starts_with("pong 3"));
    assert_eq!(out[3], "done");
    // The server counted three echoes.
    let server_proc = h.kernels[&1].process(server.local).unwrap();
    assert_eq!(server_proc.read_count, 3);
}

#[test]
fn published_intranode_messages_cross_the_wire() {
    let mut h = harness(1, true);
    h.kernels.get_mut(&0).unwrap().set_recorder(NodeId(0));
    let server = h.spawn(0, "echo", vec![]).unwrap();
    let client = h
        .spawn(0, "ping3", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    h.run_to_quiescence();
    assert_eq!(h.outputs_of(client).len(), 4);
    // Everything went over the medium: pings, pongs, acks.
    assert!(
        h.lan.stats().submitted.get() >= 12,
        "submitted {}",
        h.lan.stats().submitted.get()
    );
    // Publishing also made real time much longer than the local path.
    let mut local = harness(1, false);
    let server2 = local.spawn(0, "echo", vec![]).unwrap();
    let _c2 = local
        .spawn(0, "ping3", vec![Link::to(server2, Channel::DEFAULT, 7)])
        .unwrap();
    local.run_to_quiescence();
    assert_eq!(
        local.lan.stats().submitted.get(),
        0,
        "no frames without publishing"
    );
    assert!(
        h.now() > local.now(),
        "publishing path is slower in real time"
    );
    // And used more CPU (the Figure 5.7 effect).
    assert!(h.kernels[&0].stats().cpu_used > local.kernels[&0].stats().cpu_used);
}

#[test]
fn transport_masks_frame_loss() {
    let mut h = harness(2, false);
    // 20% frame loss: retransmission must still deliver everything.
    let mut bus = PerfectBus::new(LanConfig {
        seed: 77,
        ..LanConfig::default()
    });
    bus.set_faults(FaultPlan::new().with_frame_loss(0.2));
    for n in 0..2 {
        bus.attach(publishing_net::frame::StationId(n));
    }
    h.lan = Box::new(bus);
    let server = h.spawn(1, "echo", vec![]).unwrap();
    let mut reg = registry();
    reg.register("ping20", || Box::new(PingClient::new(20)));
    let mut k0 = Kernel::new(
        NodeId(0),
        reg,
        CostModel::zero(),
        TransportConfig::default(),
        false,
    );
    k0.set_recorder(NodeId(0));
    // Replace node 0's kernel with one knowing ping20.
    h.kernels.insert(0, k0);
    let client = h
        .spawn(0, "ping20", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    h.run_to_quiescence();
    let out = h.outputs_of(client);
    assert_eq!(out.len(), 21, "all 20 pongs arrive despite loss");
    // Retransmissions actually happened.
    let retr = h.kernels[&0].transport_stats().retransmits.get()
        + h.kernels[&1].transport_stats().retransmits.get();
    assert!(retr > 0, "loss should force retransmissions");
}

#[test]
fn movelink_dance_transfers_a_link() {
    // Process A (an accumulator-feeder) moves its link to the echo server
    // over to process B via the Figure 4.5 three-message dance, then B
    // uses it. We script A and B with Chatter-free custom programs via
    // the registry.
    use publishing_demos::program::{Ctx, Program, Received};
    use publishing_sim::codec::CodecError;

    /// A: owns a link to the sink (initial link 1) and a control link to B
    /// (initial link 0); kicks off MOVELINK at start.
    struct Giver;
    impl Program for Giver {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let give = publishing_demos::protocol::MoveLinkGive { link_id: 1 };
            let _ = ctx.send(
                publishing_demos::LinkId(0),
                encode_ctl(codes::MOVELINK_GIVE, &give),
            );
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: Received) {}
        fn snapshot(&self) -> Vec<u8> {
            vec![]
        }
        fn restore(&mut self, _: &[u8]) -> Result<(), CodecError> {
            Ok(())
        }
    }

    /// B: when told a link was installed (MOVELINK_DONE), sends 42 over it.
    struct Taker;
    impl Program for Taker {
        fn on_start(&mut self, _: &mut Ctx<'_>) {}
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
            if let Some((codes::MOVELINK_DONE, payload)) = decode_ctl(&msg.body) {
                let mut d = Decoder::new(payload);
                let id = d.u32().unwrap();
                let _ = ctx.send(publishing_demos::LinkId(id), 42u64.to_le_bytes().to_vec());
                ctx.output(b"sent via moved link".to_vec());
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            vec![]
        }
        fn restore(&mut self, _: &[u8]) -> Result<(), CodecError> {
            Ok(())
        }
    }

    let mut reg = registry();
    reg.register("giver", || Box::new(Giver));
    reg.register("taker", || Box::new(Taker));
    let bus = PerfectBus::new(LanConfig::default());
    let mut h = Harness::new(Box::new(bus));
    for n in 0..2 {
        h.add_kernel(Kernel::new(
            NodeId(n),
            reg.clone(),
            CostModel::zero(),
            TransportConfig::default(),
            false,
        ));
    }
    let sink = h.spawn(1, "accumulator", vec![]).unwrap();
    let taker = h.spawn(1, "taker", vec![]).unwrap();
    let giver = h
        .spawn(
            0,
            "giver",
            vec![Link::control(taker, 0), Link::to(sink, Channel::DEFAULT, 0)],
        )
        .unwrap();
    h.run_to_quiescence();
    // B sent 42 to the accumulator via the moved link.
    let sink_proc = h.kernels[&1].process(sink.local).unwrap();
    assert_eq!(h.outputs_of(taker), vec!["sent via moved link"]);
    assert_eq!(sink_proc.read_count, 1);
    // A no longer holds the moved link.
    let giver_proc = h.kernels[&0].process(giver.local).unwrap();
    assert!(giver_proc.links.get(publishing_demos::LinkId(1)).is_none());
}

#[test]
fn create_chain_spawns_process_on_remote_node() {
    // user (node 0) → procmgr (node 0) → memsched (node 0) → kernel of
    // node 1 → replies back up with a control link.
    use publishing_demos::program::{Ctx, Program, Received};
    use publishing_sim::codec::CodecError;

    /// Asks the process manager (initial link 0) for an "echo" on node 1,
    /// then stops the new process via the returned control link.
    #[derive(Default)]
    struct User {
        created: Option<ProcessId>,
    }
    impl Program for User {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let reply = ctx.create_link(Channel::DEFAULT, 0);
            let req = CreateReq {
                program_name: "echo".into(),
                node: NodeId(1),
                req_id: 0,
            };
            let _ = ctx.send_passing(
                publishing_demos::LinkId(0),
                encode_ctl(sys_codes::PM_CREATE, &req),
                reply,
            );
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
            if let Some((sys_codes::PM_REPLY, payload)) = decode_ctl(&msg.body) {
                let done = CreateDone::decode_all(payload).unwrap();
                self.created = done.pid;
                ctx.output(format!("created {:?}", done.pid).into_bytes());
                if let Some(control) = msg.link {
                    // Stop the new process through its control link.
                    let mut e = Encoder::new();
                    e.u32(codes::STOP_PROCESS);
                    let _ = ctx.send(control, e.finish());
                }
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut e = Encoder::new();
            e.option(self.created.as_ref(), |e, p| p.encode(e));
            e.finish()
        }
        fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
            let mut d = Decoder::new(bytes);
            self.created = d.option(ProcessId::decode)?;
            d.finish()
        }
    }

    let mut reg = registry();
    reg.register("user", || Box::<User>::default());
    let bus = PerfectBus::new(LanConfig::default());
    let mut h = Harness::new(Box::new(bus));
    for n in 0..2 {
        h.add_kernel(Kernel::new(
            NodeId(n),
            reg.clone(),
            CostModel::zero(),
            TransportConfig::default(),
            false,
        ));
    }
    // Boot the control chain: memsched with links to both kernels, then
    // procmgr with a link to memsched.
    let memsched = h
        .spawn(
            0,
            "memsched",
            vec![
                Link::to(ProcessId::kernel_of(NodeId(0)), Channel::DEFAULT, 0),
                Link::to(ProcessId::kernel_of(NodeId(1)), Channel::DEFAULT, 0),
            ],
        )
        .unwrap();
    let procmgr = h
        .spawn(0, "procmgr", vec![Link::to(memsched, Channel::DEFAULT, 0)])
        .unwrap();
    let user = h
        .spawn(0, "user", vec![Link::to(procmgr, Channel::DEFAULT, 0)])
        .unwrap();
    h.run_to_quiescence();
    let out = h.outputs_of(user);
    assert_eq!(out.len(), 1);
    assert!(out[0].starts_with("created Some"), "{out:?}");
    // The created process lived on node 1 and was subsequently stopped.
    assert_eq!(h.kernels[&1].stats().creates.get(), 1);
    assert_eq!(h.kernels[&1].stats().destroys.get(), 1);
}

#[test]
fn selective_receive_emits_read_order_notices() {
    // A channel reader on a publishing node: urgent traffic read ahead of
    // the queue head must produce READ_ORDER notices toward the recorder.
    use publishing_demos::program::{Ctx, Program, Received};
    use publishing_sim::codec::CodecError;

    /// Sends two low-priority then one urgent message to the reader.
    struct Feeder;
    impl Program for Feeder {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            // Initial links: 0 = reader ch0, 1 = reader ch5 (urgent).
            let _ = ctx.send(publishing_demos::LinkId(0), b"low1".to_vec());
            let _ = ctx.send(publishing_demos::LinkId(0), b"low2".to_vec());
            let _ = ctx.send(publishing_demos::LinkId(1), b"urgent".to_vec());
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: Received) {}
        fn snapshot(&self) -> Vec<u8> {
            vec![]
        }
        fn restore(&mut self, _: &[u8]) -> Result<(), CodecError> {
            Ok(())
        }
    }

    let mut reg = registry();
    reg.register("feeder", || Box::new(Feeder));
    reg.register("reader", || {
        Box::new(publishing_demos::programs::ChannelReader::new(Channel(5)))
    });
    let bus = PerfectBus::new(LanConfig::default());
    let mut h = Harness::new(Box::new(bus));
    for n in 0..3 {
        let mut k = Kernel::new(
            NodeId(n),
            reg.clone(),
            CostModel::zero(),
            TransportConfig::default(),
            true,
        );
        // Node 2 plays recorder (its kernel endpoint absorbs notices).
        k.set_recorder(NodeId(2));
        h.add_kernel(k);
    }
    let reader = h.spawn(1, "reader", vec![]).unwrap();
    let _feeder = h
        .spawn(
            0,
            "feeder",
            vec![
                Link::to(reader, Channel(0), 0),
                Link::to(reader, Channel(5), 0),
            ],
        )
        .unwrap();
    h.run_to_quiescence();
    // The reader starts urgent-only, so it reads "urgent" (skipping two
    // queued low messages) → at least one notice.
    assert!(
        h.kernels[&1].stats().read_order_notices.get() >= 1,
        "expected a read-order notice"
    );
    // The reader consumed "urgent" (out of order) and then "low1"; its
    // mask then closed back to the urgent channel, so "low2" stays queued
    // — exactly the §4.2.2.2 selective-receive semantics.
    let p = h.kernels[&1].process(reader.local).unwrap();
    assert_eq!(p.read_count, 2);
    assert_eq!(p.queue.len(), 1);
}

#[test]
fn crashed_process_discards_messages() {
    let mut h = harness(2, false);
    let t0 = SimTime::ZERO;
    let server = h.spawn(1, "echo", vec![]).unwrap();
    h.with_kernel(t0, 1, |k, out| {
        k.crash_process(t0, server.local, "injected", out)
    });
    let client = h
        .spawn(0, "ping3", vec![Link::to(server, Channel::DEFAULT, 7)])
        .unwrap();
    h.run_until(SimTime::ZERO + SimDuration::from_secs(2));
    // No pongs: the crashed server consumed nothing.
    assert!(h.outputs_of(client).is_empty());
    let p = h.kernels[&1].process(server.local).unwrap();
    assert_eq!(p.read_count, 0);
}
