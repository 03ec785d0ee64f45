//! `ShardMap` as it was before its queries became views of one
//! ranking over a dense vector: a `BTreeMap` of id → live, each query
//! its own walk, scores mixed from the shard id on every call. Kept only
//! as the reference the ownership snapshot and the map are held to
//! (`shard_props.rs`).

use publishing_demos::ids::ProcessId;
use publishing_shard::ShardId;
use std::collections::BTreeMap;

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
pub struct RefMap {
    shards: BTreeMap<ShardId, bool>, // id → live
    epoch: u64,
}

impl RefMap {
    /// A map of shards `0..n`, all live.
    pub fn new(n: u32) -> Self {
        let mut m = RefMap::default();
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
    /// go through [`RefMap::responsible`] / [`RefMap::capture_set`].
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

    /// [`RefMap::capture_set`], best first, one shard at a time and
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
    /// this equals [`RefMap::capture_set`]; for a shard marked dead it
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
