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

use publishing_demos::ids::ProcessId;
use std::collections::BTreeMap;

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

/// HRW score of `shard` for `pid`; higher wins.
fn score(shard: ShardId, pid: ProcessId) -> u64 {
    mix(pid.as_u64() ^ mix(shard.0 as u64))
}

/// The shard membership + liveness view, versioned by an epoch that the
/// rebalance protocol publishes at cutover.
#[derive(Clone, Debug, Default)]
pub struct ShardMap {
    shards: BTreeMap<ShardId, bool>, // id → live
    epoch: u64,
}

impl ShardMap {
    /// A map of shards `0..n`, all live.
    pub fn new(n: u32) -> Self {
        let mut m = ShardMap::default();
        for i in 0..n {
            m.shards.insert(ShardId(i), true);
        }
        m
    }

    /// The membership epoch; bumped by every add/remove/liveness change.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of member shards (live or not).
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// All member shards, in id order.
    pub fn members(&self) -> Vec<ShardId> {
        self.shards.keys().copied().collect()
    }

    /// All live shards, in id order.
    pub fn live(&self) -> impl Iterator<Item = ShardId> + '_ {
        self.shards.iter().filter(|(_, &l)| l).map(|(&s, _)| s)
    }

    pub fn contains(&self, shard: ShardId) -> bool {
        self.shards.contains_key(&shard)
    }

    pub fn is_live(&self, shard: ShardId) -> bool {
        self.shards.get(&shard).copied().unwrap_or(false)
    }

    /// Adds a (live) shard. Returns `false` if it was already a member.
    pub fn add_shard(&mut self, shard: ShardId) -> bool {
        let added = self.shards.insert(shard, true).is_none();
        if added {
            self.epoch += 1;
        }
        added
    }

    /// Removes a shard from membership entirely.
    pub fn remove_shard(&mut self, shard: ShardId) -> bool {
        let removed = self.shards.remove(&shard).is_some();
        if removed {
            self.epoch += 1;
        }
        removed
    }

    /// Marks a shard dead (still a member; its pids fail over) or live.
    pub fn set_live(&mut self, shard: ShardId, live: bool) {
        if let Some(l) = self.shards.get_mut(&shard) {
            if *l != live {
                *l = live;
                self.epoch += 1;
            }
        }
    }

    /// Member shards ranked by HRW score for `pid`, best first.
    /// Deterministic for a given membership regardless of liveness.
    pub fn ranked(&self, pid: ProcessId) -> Vec<ShardId> {
        let mut v: Vec<ShardId> = self.shards.keys().copied().collect();
        // Ties are impossible in practice (64-bit scores), but break
        // them by id so the order is total either way.
        v.sort_by_key(|&s| (std::cmp::Reverse(score(s, pid)), s));
        v
    }

    /// The owning shard of `pid` — top-ranked member, alive or not.
    /// This is the *log placement* function; liveness-aware questions
    /// go through [`ShardMap::responsible`] / [`ShardMap::capture_set`].
    pub fn owner(&self, pid: ProcessId) -> Option<ShardId> {
        self.shards
            .keys()
            .copied()
            .max_by_key(|&s| (score(s, pid), std::cmp::Reverse(s)))
    }

    /// The shard answering for `pid` right now: the top-ranked *live*
    /// shard (the owner, unless it is dead and a backup stands in).
    pub fn responsible(&self, pid: ProcessId) -> Option<ShardId> {
        self.live()
            .max_by_key(|&s| (score(s, pid), std::cmp::Reverse(s)))
    }

    /// The top-`r` live shards for `pid`: every shard that must capture
    /// (record + ack) the pid's traffic so that `r`-way replication
    /// holds. With fewer than `r` live shards, all of them.
    pub fn capture_set(&self, pid: ProcessId, r: usize) -> Vec<ShardId> {
        self.capture_order(pid, r).collect()
    }

    /// [`ShardMap::capture_set`], best first, one shard at a time and
    /// without building or sorting anything: each step takes the best
    /// live shard ranked after the previous pick. The medium asks this
    /// for every frame, of a map that changes per failover; `r` and the
    /// shard count are small.
    pub fn capture_order(&self, pid: ProcessId, r: usize) -> impl Iterator<Item = ShardId> + '_ {
        let rank = move |s: ShardId| (std::cmp::Reverse(score(s, pid)), s);
        let mut last = None;
        std::iter::from_fn(move || {
            let next = self
                .live()
                .map(rank)
                .filter(|&k| last.is_none_or(|picked| k > picked))
                .min()?;
            last = Some(next);
            Some(next.1)
        })
        .take(r.max(1))
    }

    /// The capture set as `shard` itself evaluates it: the top-`r` of
    /// the ranking over live shards *plus `shard`*. For a live shard
    /// this equals [`ShardMap::capture_set`]; for a shard marked dead it
    /// answers "would I capture this pid if I were counted?", which is
    /// what a restarted-but-not-yet-readmitted shard needs so it keeps
    /// recording its pids (and receiving their checkpoints) while it
    /// catches up.
    pub fn capture_set_for(&self, shard: ShardId, pid: ProcessId, r: usize) -> Vec<ShardId> {
        let mut v: Vec<ShardId> = self.live().collect();
        if self.contains(shard) && !v.contains(&shard) {
            v.push(shard);
        }
        v.sort_by_key(|&s| (std::cmp::Reverse(score(s, pid)), s));
        v.truncate(r.max(1));
        v
    }

    /// Whether `shard` sits in the capture set it evaluates for itself:
    /// `capture_set_for(shard, pid, r).contains(&shard)`, answered
    /// without building, sorting or allocating the set. The candidates
    /// are the live shards plus `shard` if it is a member; `shard` is in
    /// the top `max(r, 1)` iff fewer than that many other candidates
    /// outrank it under the same `(Reverse(score), id)` order.
    pub fn captures(&self, shard: ShardId, pid: ProcessId, r: usize) -> bool {
        if !self.contains(shard) {
            return false;
        }
        let top = r.max(1);
        let own = (std::cmp::Reverse(score(shard, pid)), shard);
        let outranking = self
            .shards
            .iter()
            .filter(|&(&s, &live)| live && s != shard)
            .filter(|&(&s, _)| (std::cmp::Reverse(score(s, pid)), s) < own);
        outranking.take(top).count() < top
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
