//! Transactions over published communications (§6.4).
//!
//! "With publishing, the transaction semantics remain the same. However,
//! there is no need to store intentions and transaction state in stable
//! store. When a crashed process recovers, its intentions and transaction
//! state will be rebuilt along with the rest of the process state."
//!
//! This module provides a two-phase-commit coordinator and a
//! participant (a key/value "account" store) as ordinary deterministic
//! programs. Their intention lists and commit state live in plain program
//! state — the single publishing store is the only reliable storage in
//! the system, exactly the §6.4 claim. The integration tests crash
//! coordinators and participants mid-transaction and verify atomicity.

use publishing_demos::ids::{Channel, LinkId};
use publishing_demos::kernel::{decode_ctl, encode_ctl};
use publishing_demos::program::{Ctx, Program, Received};
use publishing_sim::codec::{CodecError, Decode, Decoder, Encode, Encoder};
use std::collections::BTreeMap;

/// Body codes for the transaction protocol.
pub mod tx_codes {
    /// Client → coordinator: run a transaction (body: [`super::TxRequest`];
    /// passed link: client reply link).
    pub const TX_BEGIN: u32 = 0x4001;
    /// Coordinator → participant: prepare (body: [`super::Prepare`];
    /// passed link: reply link to coordinator).
    pub const TX_PREPARE: u32 = 0x4002;
    /// Participant → coordinator: vote (body: tx id + bool).
    pub const TX_VOTE: u32 = 0x4003;
    /// Coordinator → participant: commit (body: tx id).
    pub const TX_COMMIT: u32 = 0x4004;
    /// Coordinator → participant: abort (body: tx id).
    pub const TX_ABORT: u32 = 0x4005;
    /// Coordinator → client: outcome (body: tx id + bool committed).
    pub const TX_DONE: u32 = 0x4006;
}

/// One operation on one participant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxOp {
    /// Participant index (the coordinator's initial link of that index).
    pub participant: u32,
    /// Account within the participant.
    pub account: String,
    /// Signed delta to apply.
    pub delta: i64,
}

impl Encode for TxOp {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.participant).str(&self.account).i64(self.delta);
    }
}

impl Decode for TxOp {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(TxOp {
            participant: d.u32()?,
            account: d.str()?,
            delta: d.i64()?,
        })
    }
}

/// A client's transaction request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxRequest {
    /// Operations, possibly spanning several participants.
    pub ops: Vec<TxOp>,
}

impl Encode for TxRequest {
    fn encode(&self, e: &mut Encoder) {
        e.seq(&self.ops, |e, op| op.encode(e));
    }
}

impl Decode for TxRequest {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(TxRequest {
            ops: d.seq(TxOp::decode)?,
        })
    }
}

/// A prepare message to one participant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prepare {
    /// Coordinator-assigned transaction id.
    pub tx: u64,
    /// The ops this participant must stage.
    pub ops: Vec<TxOp>,
}

impl Encode for Prepare {
    fn encode(&self, e: &mut Encoder) {
        e.u64(self.tx);
        e.seq(&self.ops, |e, op| op.encode(e));
    }
}

impl Decode for Prepare {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Prepare {
            tx: d.u64()?,
            ops: d.seq(TxOp::decode)?,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxPhase {
    Preparing,
    Committing,
    Aborting,
}

#[derive(Debug, Clone)]
struct TxState {
    ops: Vec<TxOp>,
    participants: Vec<u32>,
    votes_needed: u64,
    votes_yes: u64,
    acks_needed: u64,
    phase: TxPhase,
    client_link: u32,
}

/// The 2PC coordinator program.
///
/// Initial links 0..n-1 point to the n participants. Transaction state
/// lives entirely in program state; recovery rebuilds it by replay.
#[derive(Debug, Default)]
pub struct TxCoordinator {
    next_tx: u64,
    active: BTreeMap<u64, TxState>,
    /// Committed/aborted outcomes (for idempotent client replies).
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
}

impl TxCoordinator {
    /// Creates a coordinator.
    pub fn new() -> Self {
        TxCoordinator::default()
    }

    fn decide(&mut self, ctx: &mut Ctx<'_>, tx: u64, commit: bool) {
        let Some(st) = self.active.get_mut(&tx) else {
            return;
        };
        st.phase = if commit {
            TxPhase::Committing
        } else {
            TxPhase::Aborting
        };
        st.acks_needed = st.participants.len() as u64;
        let code = if commit {
            tx_codes::TX_COMMIT
        } else {
            tx_codes::TX_ABORT
        };
        let body = encode_ctl(code, &tx);
        let participants = st.participants.clone();
        let client_link = st.client_link;
        for p in participants {
            let _ = ctx.send(LinkId(p), body.clone());
        }
        // Reply to the client; the outcome is decided (2PC's commit point
        // is the coordinator's state change, which publishing preserves).
        let mut done = Encoder::new();
        done.u32(tx_codes::TX_DONE).u64(tx).bool(commit);
        let _ = ctx.send(LinkId(client_link), done.finish());
        if commit {
            self.committed += 1;
        } else {
            self.aborted += 1;
        }
        self.active.remove(&tx);
    }
}

impl Program for TxCoordinator {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        let Some((code, payload)) = decode_ctl(&msg.body) else {
            return;
        };
        match code {
            tx_codes::TX_BEGIN => {
                let Ok(req) = TxRequest::decode_all(payload) else {
                    return;
                };
                let Some(client) = msg.link else { return };
                let tx = self.next_tx;
                self.next_tx += 1;
                let mut participants: Vec<u32> = req.ops.iter().map(|o| o.participant).collect();
                participants.sort_unstable();
                participants.dedup();
                let st = TxState {
                    ops: req.ops.clone(),
                    participants: participants.clone(),
                    votes_needed: participants.len() as u64,
                    votes_yes: 0,
                    acks_needed: 0,
                    phase: TxPhase::Preparing,
                    client_link: client.0,
                };
                self.active.insert(tx, st);
                for p in participants {
                    let ops: Vec<TxOp> = req
                        .ops
                        .iter()
                        .filter(|o| o.participant == p)
                        .cloned()
                        .collect();
                    let reply = ctx.create_link(Channel::DEFAULT, tx as u32);
                    let body = encode_ctl(tx_codes::TX_PREPARE, &Prepare { tx, ops });
                    let _ = ctx.send_passing(LinkId(p), body, reply);
                }
            }
            tx_codes::TX_VOTE => {
                let mut d = Decoder::new(payload);
                let (Ok(tx), Ok(yes)) = (d.u64(), d.bool()) else {
                    return;
                };
                let Some(st) = self.active.get_mut(&tx) else {
                    return;
                };
                if st.phase != TxPhase::Preparing {
                    return;
                }
                st.votes_needed -= 1;
                if yes {
                    st.votes_yes += 1;
                }
                if !yes {
                    self.decide(ctx, tx, false);
                } else if st.votes_needed == 0 {
                    self.decide(ctx, tx, true);
                }
            }
            _ => {}
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.next_tx).u64(self.committed).u64(self.aborted);
        e.u64(self.active.len() as u64);
        for (tx, st) in &self.active {
            e.u64(*tx);
            e.seq(&st.ops, |e, op| op.encode(e));
            e.seq(&st.participants, |e, p| {
                e.u32(*p);
            });
            e.u64(st.votes_needed).u64(st.votes_yes).u64(st.acks_needed);
            e.u8(match st.phase {
                TxPhase::Preparing => 0,
                TxPhase::Committing => 1,
                TxPhase::Aborting => 2,
            });
            e.u32(st.client_link);
        }
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.next_tx = d.u64()?;
        self.committed = d.u64()?;
        self.aborted = d.u64()?;
        self.active.clear();
        for _ in 0..d.u64()? {
            let tx = d.u64()?;
            let ops = d.seq(TxOp::decode)?;
            let participants = d.seq(|d| d.u32())?;
            let votes_needed = d.u64()?;
            let votes_yes = d.u64()?;
            let acks_needed = d.u64()?;
            let phase = match d.u8()? {
                0 => TxPhase::Preparing,
                1 => TxPhase::Committing,
                2 => TxPhase::Aborting,
                tag => {
                    return Err(CodecError::InvalidTag {
                        what: "tx phase",
                        tag,
                    })
                }
            };
            let client_link = d.u32()?;
            self.active.insert(
                tx,
                TxState {
                    ops,
                    participants,
                    votes_needed,
                    votes_yes,
                    acks_needed,
                    phase,
                    client_link,
                },
            );
        }
        d.finish()
    }
}

/// A participant: named accounts plus staged intentions. Accounts refuse
/// to go negative (the business rule that can force an abort), and an
/// account with a staged intention is locked against concurrent
/// transactions (the §6.4 concurrency-control role).
#[derive(Debug, Default)]
pub struct TxParticipant {
    /// Account balances.
    pub accounts: BTreeMap<String, i64>,
    /// Staged intentions by transaction: (ops, reply link id).
    staged: BTreeMap<u64, Vec<TxOp>>,
}

impl TxParticipant {
    /// Creates a participant with the given opening balances.
    pub fn with_accounts(accounts: &[(&str, i64)]) -> Self {
        TxParticipant {
            accounts: accounts.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            staged: BTreeMap::new(),
        }
    }

    /// Sum of all balances (the conservation oracle in tests).
    pub fn total(&self) -> i64 {
        self.accounts.values().sum()
    }

    fn locked(&self, account: &str) -> bool {
        self.staged
            .values()
            .flatten()
            .any(|op| op.account == account)
    }
}

impl Program for TxParticipant {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        let Some((code, payload)) = decode_ctl(&msg.body) else {
            return;
        };
        match code {
            tx_codes::TX_PREPARE => {
                let Ok(p) = Prepare::decode_all(payload) else {
                    return;
                };
                let Some(reply) = msg.link else { return };
                // Vote yes iff all accounts exist, are unlocked, and the
                // deltas keep them non-negative.
                let ok = p.ops.iter().all(|op| {
                    !self.locked(&op.account)
                        && self
                            .accounts
                            .get(&op.account)
                            .map(|b| b + op.delta >= 0)
                            .unwrap_or(false)
                });
                if ok {
                    self.staged.insert(p.tx, p.ops);
                }
                let mut e = Encoder::new();
                e.u32(tx_codes::TX_VOTE).u64(p.tx).bool(ok);
                let _ = ctx.send(reply, e.finish());
            }
            tx_codes::TX_COMMIT => {
                let mut d = Decoder::new(payload);
                let Ok(tx) = d.u64() else { return };
                if let Some(ops) = self.staged.remove(&tx) {
                    for op in ops {
                        *self.accounts.entry(op.account).or_insert(0) += op.delta;
                    }
                }
            }
            tx_codes::TX_ABORT => {
                let mut d = Decoder::new(payload);
                let Ok(tx) = d.u64() else { return };
                self.staged.remove(&tx);
            }
            _ => {}
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.accounts.len() as u64);
        for (name, bal) in &self.accounts {
            e.str(name).i64(*bal);
        }
        e.u64(self.staged.len() as u64);
        for (tx, ops) in &self.staged {
            e.u64(*tx);
            e.seq(ops, |e, op| op.encode(e));
        }
        e.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
        self.accounts.clear();
        for _ in 0..d.u64()? {
            let name = d.str()?;
            let bal = d.i64()?;
            self.accounts.insert(name, bal);
        }
        self.staged.clear();
        for _ in 0..d.u64()? {
            let tx = d.u64()?;
            let ops = d.seq(TxOp::decode)?;
            self.staged.insert(tx, ops);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_roundtrips() {
        let op = TxOp {
            participant: 1,
            account: "alice".into(),
            delta: -50,
        };
        assert_eq!(TxOp::decode_all(&op.encode_to_vec()).unwrap(), op);
        let req = TxRequest {
            ops: vec![op.clone()],
        };
        assert_eq!(TxRequest::decode_all(&req.encode_to_vec()).unwrap(), req);
        let p = Prepare {
            tx: 9,
            ops: vec![op],
        };
        assert_eq!(Prepare::decode_all(&p.encode_to_vec()).unwrap(), p);
    }

    #[test]
    fn coordinator_snapshot_roundtrip_with_active_tx() {
        let mut c = TxCoordinator::new();
        c.next_tx = 3;
        c.committed = 1;
        c.active.insert(
            2,
            TxState {
                ops: vec![TxOp {
                    participant: 0,
                    account: "a".into(),
                    delta: 5,
                }],
                participants: vec![0],
                votes_needed: 1,
                votes_yes: 0,
                acks_needed: 0,
                phase: TxPhase::Preparing,
                client_link: 7,
            },
        );
        let snap = c.snapshot();
        let mut c2 = TxCoordinator::new();
        c2.restore(&snap).unwrap();
        assert_eq!(c2.snapshot(), snap);
    }

    #[test]
    fn participant_votes_and_applies() {
        let mut p = TxParticipant::with_accounts(&[("alice", 100), ("bob", 0)]);
        assert_eq!(p.total(), 100);
        // Stage a valid transfer leg.
        p.staged.insert(
            1,
            vec![TxOp {
                participant: 0,
                account: "alice".into(),
                delta: -40,
            }],
        );
        assert!(p.locked("alice"));
        assert!(!p.locked("bob"));
        // Commit applies and unlocks.
        let ops = p.staged.remove(&1).unwrap();
        for op in ops {
            *p.accounts.get_mut(&op.account).unwrap() += op.delta;
        }
        assert_eq!(p.accounts["alice"], 60);
    }

    #[test]
    fn participant_snapshot_roundtrip() {
        let mut p = TxParticipant::with_accounts(&[("x", 10)]);
        p.staged.insert(
            4,
            vec![TxOp {
                participant: 1,
                account: "x".into(),
                delta: -1,
            }],
        );
        let snap = p.snapshot();
        let mut p2 = TxParticipant::default();
        p2.restore(&snap).unwrap();
        assert_eq!(p2.snapshot(), snap);
        assert_eq!(p2.accounts["x"], 10);
    }
}
