//! Rendezvous (highest-random-weight) shard map.
//!
//! Each destination `ProcessId` is owned by the shard with the highest
//! deterministic hash score for that pid. HRW hashing gives the minimal-
//! disruption property the rebalance protocol depends on: adding or
//! removing one shard only moves the pids whose top-ranked shard was the
//! one that changed — on average `|P|/N` of them — while every other
//! pid keeps its owner. The same ranking, restricted to live shards,
//! yields failover (the dead shard's pids fall to their next-ranked
//! shard) and the capture/replication set (the top-R live shards record
//! a pid's traffic so a backup is always complete).
//!
//! Every query is a view of that one ranking over a dense vector of
//! members that carry their ids pre-mixed: a score is one SplitMix round.

use publishing_demos::ids::ProcessId;
use std::cmp::Reverse;

/// Identifies one recorder shard in the tier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ShardId(pub u32);

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// SplitMix64 finalizer — a strong deterministic mix for HRW scores.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The largest R a snapshot answers for: it picks a capture set on the stack.
pub const MAX_REPLICATION: usize = 4;

/// A member shard: its id, its HRW seed (the id, mixed once), liveness.
#[derive(Clone, Copy, Debug)]
struct Member {
    id: ShardId,
    seed: u64,
    live: bool,
}

impl Member {
    fn new(id: ShardId) -> Self {
        Member {
            id,
            seed: mix(id.0 as u64),
            live: true,
        }
    }

    /// This shard's standing in `pid`'s ranking, higher first: the HRW score
    /// `mix(pid ^ mix(shard))` above the complemented id, so ties (impossible
    /// in practice with 64-bit scores) go to the lower id: no two are level.
    fn standing(&self, pid: ProcessId) -> u128 {
        u128::from(mix(pid.as_u64() ^ self.seed)) << 32 | u128::from(!self.id.0)
    }
}

/// The shard membership + liveness view, versioned by an epoch that the
/// rebalance protocol publishes at cutover.
#[derive(Clone, Debug, Default)]
pub struct ShardMap {
    /// The member shards, in id order.
    members: Vec<Member>,
    epoch: u64,
}

impl ShardMap {
    /// A map of shards `0..n`, all live.
    pub fn new(n: u32) -> Self {
        let members = (0..n).map(|i| Member::new(ShardId(i))).collect();
        ShardMap { members, epoch: 0 }
    }

    /// The membership epoch; bumped by every add/remove/liveness change.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of member shards (live or not).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// All member shards, in id order.
    pub fn members(&self) -> Vec<ShardId> {
        self.members.iter().map(|m| m.id).collect()
    }

    /// All live shards, in id order.
    pub fn live(&self) -> impl Iterator<Item = ShardId> + '_ {
        self.members.iter().filter(|m| m.live).map(|m| m.id)
    }

    /// Where `shard` sits among the members (id order), if it is one.
    pub(crate) fn position(&self, shard: ShardId) -> Option<usize> {
        self.members.binary_search_by_key(&shard, |m| m.id).ok()
    }

    pub fn contains(&self, shard: ShardId) -> bool {
        self.position(shard).is_some()
    }

    pub fn is_live(&self, shard: ShardId) -> bool {
        self.position(shard).is_some_and(|i| self.members[i].live)
    }

    /// Adds a (live) shard. Returns `false` if it was already a member,
    /// which is then marked live with no epoch bump.
    pub fn add_shard(&mut self, shard: ShardId) -> bool {
        let found = self.members.binary_search_by_key(&shard, |m| m.id);
        match found {
            Ok(at) => self.members[at].live = true,
            Err(at) => {
                self.members.insert(at, Member::new(shard));
                self.epoch += 1;
            }
        }
        found.is_err()
    }

    /// Removes a shard from membership entirely.
    pub fn remove_shard(&mut self, shard: ShardId) -> bool {
        let removed = self.position(shard).map(|at| self.members.remove(at));
        if removed.is_some() {
            self.epoch += 1;
        }
        removed.is_some()
    }

    /// Marks a shard dead (still a member; its pids fail over) or live.
    pub fn set_live(&mut self, shard: ShardId, live: bool) {
        let changes = |&at: &usize| self.members[at].live != live;
        if let Some(at) = self.position(shard).filter(changes) {
            self.members[at].live = live;
            self.epoch += 1;
        }
    }

    /// The best `top` of the members `keep` admits for `pid`, best first.
    fn ranking(&self, pid: ProcessId, top: usize, keep: impl Fn(&Member) -> bool) -> Vec<ShardId> {
        let mut v: Vec<&Member> = self.members.iter().filter(|m| keep(m)).collect();
        v.sort_unstable_by_key(|m| Reverse(m.standing(pid)));
        v.into_iter().take(top).map(|m| m.id).collect()
    }

    /// Member shards ranked by HRW score for `pid`, best first.
    /// Deterministic for a given membership regardless of liveness.
    pub fn ranked(&self, pid: ProcessId) -> Vec<ShardId> {
        self.ranking(pid, usize::MAX, |_| true)
    }

    /// The owning shard of `pid` — top-ranked member, alive or not.
    /// This is the *log placement* function; liveness-aware questions
    /// go through [`ShardMap::responsible`] / [`ShardMap::capture_set`].
    pub fn owner(&self, pid: ProcessId) -> Option<ShardId> {
        let all = self.members.iter();
        all.max_by_key(|m| m.standing(pid)).map(|m| m.id)
    }

    /// The shard answering for `pid` right now: the top-ranked *live*
    /// shard (the owner, unless it is dead and a backup stands in).
    pub fn responsible(&self, pid: ProcessId) -> Option<ShardId> {
        let live = self.members.iter().filter(|m| m.live);
        live.max_by_key(|m| m.standing(pid)).map(|m| m.id)
    }

    /// The top-`r` live shards for `pid`: every shard that must capture
    /// (record + ack) the pid's traffic so that `r`-way replication
    /// holds. With fewer than `r` live shards, all of them.
    pub fn capture_set(&self, pid: ProcessId, r: usize) -> Vec<ShardId> {
        self.ranking(pid, r.max(1), |m| m.live)
    }

    /// [`ShardMap::capture_set`], best first, one shard at a time.
    pub fn capture_order(&self, pid: ProcessId, r: usize) -> impl Iterator<Item = ShardId> {
        self.capture_set(pid, r).into_iter()
    }

    /// The capture set as `shard` itself evaluates it: the top-`r` of
    /// the ranking over live shards *plus `shard`*. For a live shard
    /// this equals [`ShardMap::capture_set`]; for a shard marked dead it
    /// answers "would I capture this pid if I were counted?", which is
    /// what a restarted-but-not-yet-readmitted shard needs so it keeps
    /// recording its pids (and receiving their checkpoints) while it
    /// catches up.
    pub fn capture_set_for(&self, shard: ShardId, pid: ProcessId, r: usize) -> Vec<ShardId> {
        self.ranking(pid, r.max(1), |m| m.live || m.id == shard)
    }

    /// Whether `shard` sits in the capture set it evaluates for itself,
    /// `capture_set_for(shard, pid, r).contains(&shard)`, building nothing.
    pub fn captures(&self, shard: ShardId, pid: ProcessId, r: usize) -> bool {
        self.position(shard)
            .is_some_and(|at| self.captures_at(at, pid, r.max(1)))
    }

    /// [`ShardMap::captures`] for the member at `at`, `top` ≥ 1: fewer than
    /// `top` *live* others outrank it. One pass, one score a member.
    pub(crate) fn captures_at(&self, at: usize, pid: ProcessId, top: usize) -> bool {
        let own = self.members[at].standing(pid);
        let outranks = |&(i, m): &(usize, &Member)| i != at && m.live && m.standing(pid) > own;
        self.members.iter().enumerate().filter(outranks).count() < top
    }

    /// Hands `emit` the positions of [`ShardMap::capture_order`]'s shards,
    /// for `1 ≤ top ≤ MAX_REPLICATION`: one pass, the best kept on the stack.
    pub(crate) fn top_live(&self, pid: ProcessId, top: usize, mut emit: impl FnMut(usize)) {
        let mut best = [(0, 0); MAX_REPLICATION];
        let mut n = 0;
        for (i, m) in self.members.iter().enumerate().filter(|(_, m)| m.live) {
            let entry = (m.standing(pid), i);
            if n == top && entry.0 < best[top - 1].0 {
                continue;
            }
            n = top.min(n + 1);
            let mut at = n - 1;
            while at > 0 && best[at - 1].0 < entry.0 {
                best[at] = best[at - 1];
                at -= 1;
            }
            best[at] = entry;
        }
        best[..n].iter().for_each(|&(_, i)| emit(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The HRW score as the map defined it before members carried seeds.
    fn score(shard: ShardId, pid: ProcessId) -> u64 {
        mix(pid.as_u64() ^ mix(shard.0 as u64))
    }

    fn pids(n: u64) -> Vec<ProcessId> {
        (0..n)
            .map(|i| ProcessId::new((i % 7) as u32, (i / 7) as u32 + 1))
            .collect()
    }

    #[test]
    fn owner_is_deterministic_and_total() {
        let m = ShardMap::new(4);
        for p in pids(200) {
            let a = m.owner(p).unwrap();
            let b = m.owner(p).unwrap();
            assert_eq!(a, b);
            assert!(m.contains(a));
            assert_eq!(m.ranked(p)[0], a);
        }
    }

    #[test]
    fn adding_a_shard_moves_only_pids_claimed_by_it() {
        let before = ShardMap::new(4);
        let mut after = before.clone();
        after.add_shard(ShardId(4));
        for p in pids(500) {
            let old = before.owner(p).unwrap();
            let new = after.owner(p).unwrap();
            assert!(
                new == old || new == ShardId(4),
                "{p:?} moved {old:?}→{new:?}"
            );
        }
    }

    #[test]
    fn removing_a_shard_moves_only_its_pids() {
        let before = ShardMap::new(5);
        let mut after = before.clone();
        after.remove_shard(ShardId(2));
        for p in pids(500) {
            let old = before.owner(p).unwrap();
            let new = after.owner(p).unwrap();
            if old == ShardId(2) {
                assert_ne!(new, ShardId(2));
            } else {
                assert_eq!(new, old);
            }
        }
    }

    #[test]
    fn dead_shard_fails_over_to_next_ranked() {
        let mut m = ShardMap::new(3);
        for p in pids(100) {
            let ranked = m.ranked(p);
            m.set_live(ranked[0], false);
            assert_eq!(m.responsible(p), Some(ranked[1]));
            m.set_live(ranked[0], true);
        }
    }

    #[test]
    fn capture_set_is_prefix_of_live_ranking() {
        let mut m = ShardMap::new(4);
        m.set_live(ShardId(1), false);
        for p in pids(100) {
            let caps = m.capture_set(p, 2);
            assert_eq!(caps.len(), 2);
            assert!(!caps.contains(&ShardId(1)));
            assert_eq!(caps[0], m.responsible(p).unwrap());
        }
    }

    #[test]
    fn capture_order_is_the_sorted_live_set_cut_to_r() {
        // The reference: collect the live shards, sort by rank, truncate.
        let sorted = |m: &ShardMap, p: ProcessId, r: usize| {
            let mut live: Vec<ShardId> = m.live().collect();
            live.sort_by_key(|&s| (std::cmp::Reverse(score(s, p)), s));
            live.truncate(r.max(1));
            live
        };
        let mut m = ShardMap::new(6);
        // Every liveness pattern of six shards, every r from 0 past 6.
        for alive in 0u32..64 {
            for s in 0..6 {
                m.set_live(ShardId(s), alive >> s & 1 == 1);
            }
            for p in pids(24) {
                for r in 0..8 {
                    assert_eq!(
                        m.capture_set(p, r),
                        sorted(&m, p, r),
                        "{alive:b} {p:?} r={r}"
                    );
                }
                // The per-frame selection, at every R it allows.
                for r in 1..=MAX_REPLICATION {
                    let mut top = Vec::new();
                    m.top_live(p, r, |i| top.push(m.members[i].id));
                    assert_eq!(top, sorted(&m, p, r), "{alive:b} {p:?} r={r}");
                }
            }
        }
    }

    #[test]
    fn epoch_tracks_membership_changes() {
        let mut m = ShardMap::new(2);
        let e0 = m.epoch();
        assert!(m.add_shard(ShardId(9)));
        assert!(!m.add_shard(ShardId(9)));
        m.set_live(ShardId(9), false);
        m.set_live(ShardId(9), false); // no-op
        assert!(m.remove_shard(ShardId(9)));
        assert_eq!(m.epoch(), e0 + 3);
    }
}
