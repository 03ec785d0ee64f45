//! Causal message-lifecycle tracing.
//!
//! Every published message gets a *span*: the ordered set of structured
//! events it generated as it moved through the system — published by its
//! sender, captured and sequenced (recorder-acked) by the recorder,
//! delivered (read) by its destination, and, across a crash, replayed to
//! the recovering process or suppressed at the sender's §4.7 watermark.
//!
//! Events are recorded into per-component [`SpanLog`]s (one per kernel,
//! one per recorder shard) rather than one shared log, so components stay
//! `Send` and the live-thread runtime needs no locks. A world driver
//! merges the logs into per-message [`MessageSpan`]s at report time.
//!
//! Determinism: each log keeps a running FNV-1a fingerprint over
//! *every* event ever recorded — framed by a monotone sequence number so
//! ring eviction cannot change it and adjacent events cannot alias. Two runs of the same seed must produce
//! identical fingerprints; the test suites assert exactly that.

use crate::store::ColumnarStore;
use publishing_sim::time::SimTime;
use std::collections::BTreeMap;

/// Default per-component span-log capacity (events retained; all events
/// are fingerprinted regardless).
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// `FNV_PRIME^k` (wrapping) for every run length an event can hold.
const FNV_PRIME_POW: [u64; 50] = {
    let mut pow = [1u64; 50];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Folds one event into the running FNV-1a fingerprint. Every field is
/// fixed-width and the monotone `seq` frames the event, so the hash is
/// injective over event streams and independent of what storage later
/// retains — the row-oriented log `columnar_props` keeps as the store's
/// reference folds this exact framing a byte at a time.
fn fnv_fold_event(
    mut h: u64,
    seq: u64,
    at: SimTime,
    key: MsgKey,
    stage: Stage,
    subject: u64,
    aux: u64,
) -> u64 {
    // One buffer, one straight loop: the seven-way iterator chain this
    // replaces spent more time choosing its next link than hashing. Most
    // bytes are zero (the high bytes of counters, instants and ids), and
    // FNV-1a's step on a zero byte is `(h ^ 0) * P = h * P`: a run of k
    // of them is one multiply by `P^k`, the same value.
    let mut bytes = [0u8; 49];
    bytes[0..8].copy_from_slice(&seq.to_le_bytes());
    bytes[8..16].copy_from_slice(&at.as_nanos().to_le_bytes());
    bytes[16..24].copy_from_slice(&key.sender.to_le_bytes());
    bytes[24..32].copy_from_slice(&key.seq.to_le_bytes());
    bytes[32] = stage as u8;
    bytes[33..41].copy_from_slice(&subject.to_le_bytes());
    bytes[41..49].copy_from_slice(&aux.to_le_bytes());
    let mut zeros = 0;
    for b in bytes {
        if b == 0 {
            zeros += 1;
        } else {
            h = (h.wrapping_mul(FNV_PRIME_POW[zeros]) ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            zeros = 0;
        }
    }
    h.wrapping_mul(FNV_PRIME_POW[zeros])
}

/// Identifies one message across the whole system: the packed sender
/// process id (`ProcessId::as_u64()` in the demos crate) and the sender's
/// per-process sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgKey {
    /// Packed sender process id (`(node << 32) | local`).
    pub sender: u64,
    /// Sender-assigned sequence number.
    pub seq: u64,
}

impl std::fmt::Display for MsgKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let node = self.sender >> 32;
        let local = self.sender & 0xffff_ffff;
        write!(f, "{}.{}#{}", node, local, self.seq)
    }
}

impl std::str::FromStr for MsgKey {
    type Err = String;

    /// Parses the [`std::fmt::Display`] form `node.local#seq` (e.g.
    /// `0.1#3`), so command-line tools can take keys verbatim from
    /// rendered reports.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || format!("bad message key {s:?}: want node.local#seq");
        let (pid, seq) = s.split_once('#').ok_or_else(err)?;
        let (node, local) = pid.split_once('.').ok_or_else(err)?;
        let node: u64 = node.parse().map_err(|_| err())?;
        let local: u64 = local.parse().map_err(|_| err())?;
        if node > u32::MAX as u64 || local > u32::MAX as u64 {
            return Err(err());
        }
        Ok(MsgKey {
            sender: (node << 32) | local,
            seq: seq.parse().map_err(|_| err())?,
        })
    }
}

/// One lifecycle transition of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Sender kernel handed the message to the transport (or the local
    /// fast path). `aux` = destination queue-independent payload length.
    Publish = 0,
    /// Recorder captured the frame into its battery-backed pending
    /// buffer. `aux` = capture sequence.
    Capture = 1,
    /// Recorder observed the destination's ack and assigned the arrival
    /// sequence — the message is now *published* (recorder-acked).
    /// `aux` = arrival sequence.
    Sequence = 2,
    /// Destination process read the message. `aux` = the process's
    /// 0-based read index.
    Deliver = 3,
    /// The message was re-fed to a recovering process from the published
    /// log. `aux` = the read index being replayed.
    Replay = 4,
    /// A recovering sender regenerated the message but suppressed the
    /// resend at the §4.7 delivered watermark. `aux` = the watermark.
    Suppress = 5,
    /// A durable checkpoint advanced the subject process's replay floor.
    /// `aux` = the new read floor.
    Checkpoint = 6,
    /// A quorum replica won a recorder-group election and became the
    /// sequencing leader. `key.sender` = the replica's station id,
    /// `key.seq` and `aux` = the term won, `subject` = the station id.
    Elect = 7,
}

impl Stage {
    /// Number of stage variants.
    pub const COUNT: usize = 8;

    /// Stable short name, used in rendered reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Publish => "publish",
            Stage::Capture => "capture",
            Stage::Sequence => "sequence",
            Stage::Deliver => "deliver",
            Stage::Replay => "replay",
            Stage::Suppress => "suppress",
            Stage::Checkpoint => "checkpoint",
            Stage::Elect => "elect",
        }
    }

    /// Inverse of `stage as u8`, for the columnar store's packed rows.
    ///
    /// # Panics
    ///
    /// Panics on a bit pattern no variant uses (packed rows only ever
    /// hold discriminants written by [`SpanLog::record`]).
    pub(crate) fn from_bits(bits: u8) -> Stage {
        match bits {
            0 => Stage::Publish,
            1 => Stage::Capture,
            2 => Stage::Sequence,
            3 => Stage::Deliver,
            4 => Stage::Replay,
            5 => Stage::Suppress,
            6 => Stage::Checkpoint,
            7 => Stage::Elect,
            other => unreachable!("no stage has discriminant {other}"),
        }
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Monotone per-log emission number (0-based).
    pub seq: u64,
    /// Virtual time of the transition.
    pub at: SimTime,
    /// The message this event belongs to.
    pub key: MsgKey,
    /// Which lifecycle transition occurred.
    pub stage: Stage,
    /// The packed process id the event concerns (the destination for
    /// capture/sequence/deliver/replay, the peer for suppress, the
    /// checkpointed process for checkpoint).
    pub subject: u64,
    /// Stage-specific detail; see [`Stage`] variants.
    pub aux: u64,
}

/// A bounded, fingerprinting log of lifecycle events for one component.
///
/// Storage is columnar ([`crate::store::ColumnarStore`]): retained rows
/// are delta-encoded struct-of-arrays columns at ~18 bytes each instead
/// of 56-byte structs, so the default capacity costs ~1.2 MB per
/// component instead of ~3.7 MB. Reconstruction is exact, and the
/// fingerprint is taken at record time over the caller's values, so it
/// is independent of capacity and the storage layout.
#[derive(Debug)]
pub struct SpanLog {
    store: ColumnarStore,
    capacity: usize,
    total: u64,
    fnv: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanLog {
    /// Creates a log retaining at most `capacity` events (every event is
    /// still counted and fingerprinted after eviction).
    pub fn new(capacity: usize) -> Self {
        SpanLog {
            store: ColumnarStore::default(),
            capacity,
            total: 0,
            fnv: FNV_OFFSET,
        }
    }

    /// Records one lifecycle event.
    pub fn record(&mut self, at: SimTime, key: MsgKey, stage: Stage, subject: u64, aux: u64) {
        let seq = self.total;
        self.total += 1;
        self.fnv = fnv_fold_event(self.fnv, seq, at, key, stage, subject, aux);
        if self.capacity == 0 {
            return;
        }
        if self.store.len() == self.capacity {
            self.store.pop_front();
        }
        self.store.push(SpanEvent {
            seq,
            at,
            key,
            stage,
            subject,
            aux,
        });
    }

    /// Returns the number of events ever recorded (including evicted).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Returns the running fingerprint over all events ever recorded.
    pub fn fingerprint(&self) -> u64 {
        self.fnv
    }

    /// Events recorded but not retained — evicted by the ring or
    /// discarded by a zero capacity. All of them are still counted and
    /// fingerprinted.
    pub fn dropped(&self) -> u64 {
        self.total - self.store.len() as u64
    }

    /// Retained event count.
    pub fn retained(&self) -> usize {
        self.store.len()
    }

    /// Deterministic estimate of the bytes the retained events occupy
    /// (columns + escapes + symbol table).
    pub fn retained_bytes(&self) -> usize {
        self.store.retained_bytes()
    }

    /// Re-bounds the ring. Shrinking (including to 0, the
    /// fingerprint-only mode) evicts oldest-first immediately; counting
    /// and fingerprinting are unaffected.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.store.len() > capacity {
            self.store.pop_front();
        }
    }

    /// Returns the retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = SpanEvent> + '_ {
        self.store.iter()
    }

    /// Returns retained events concerning one subject process, oldest
    /// first.
    pub fn events_for(&self, subject: u64) -> impl Iterator<Item = SpanEvent> + '_ {
        self.store.iter().filter(move |e| e.subject == subject)
    }

    /// Returns retained events of one stage, oldest first.
    pub fn events_in(&self, stage: Stage) -> impl Iterator<Item = SpanEvent> + '_ {
        self.store.iter().filter(move |e| e.stage == stage)
    }
}

/// All lifecycle events observed for one message, merged across logs and
/// ordered by virtual time (then stage, then recording order).
#[derive(Debug, Clone)]
pub struct MessageSpan {
    /// The message.
    pub key: MsgKey,
    /// Its events, time-ordered.
    pub events: Vec<SpanEvent>,
    /// Ring eviction dropped this span's early events: a later stage is
    /// present whose prerequisite stage is missing. Latency consumers
    /// must skip partial spans — their stage gaps are fiction.
    pub partial: bool,
}

impl MessageSpan {
    /// Returns the time of the first event of `stage`, if any occurred.
    pub fn first(&self, stage: Stage) -> Option<SimTime> {
        self.events.iter().find(|e| e.stage == stage).map(|e| e.at)
    }

    /// Returns `true` if the span contains an event of `stage`.
    pub fn has(&self, stage: Stage) -> bool {
        self.events.iter().any(|e| e.stage == stage)
    }
}

/// Merges several component logs into per-message spans.
///
/// When any input log has dropped events ([`SpanLog::dropped`]: ring
/// eviction or sampling), spans whose retained stages are missing a
/// prerequisite — capture, sequence, deliver, or suppress without the
/// publish; sequence without the capture — are marked
/// [`MessageSpan::partial`]: their early events fell off the ring, so
/// stage gaps computed from them would be misleading. Without drops no
/// span is ever marked (a missing stage then means the transition
/// genuinely has not happened yet).
pub fn assemble<'a>(logs: impl IntoIterator<Item = &'a SpanLog>) -> BTreeMap<MsgKey, MessageSpan> {
    let mut spans: BTreeMap<MsgKey, MessageSpan> = BTreeMap::new();
    let mut evicted = false;
    for log in logs {
        evicted |= log.dropped() > 0;
        for e in log.events() {
            spans
                .entry(e.key)
                .or_insert_with(|| MessageSpan {
                    key: e.key,
                    events: Vec::new(),
                    partial: false,
                })
                .events
                .push(e);
        }
    }
    for span in spans.values_mut() {
        span.events
            .sort_by_key(|e| (e.at, e.stage, e.subject, e.seq));
        if evicted {
            span.partial = misses_prerequisite(|st| span.has(st));
        }
    }
    spans
}

/// Whether a message whose span holds the stages `has` answers for is
/// missing a prerequisite stage — capture, sequence, deliver, or
/// suppress without the publish; sequence without the capture. Only
/// eviction can make that so; see [`MessageSpan::partial`].
pub(crate) fn misses_prerequisite(has: impl Fn(Stage) -> bool) -> bool {
    let needs_publish = [
        Stage::Capture,
        Stage::Sequence,
        Stage::Deliver,
        Stage::Suppress,
    ]
    .iter()
    .any(|&st| has(st));
    (needs_publish && !has(Stage::Publish)) || (has(Stage::Sequence) && !has(Stage::Capture))
}

/// Folds several logs' fingerprints (and totals) into one run-level
/// fingerprint. Order-sensitive: callers must pass logs in a stable
/// order (node id, then shard index).
pub fn combined_fingerprint<'a>(logs: impl IntoIterator<Item = &'a SpanLog>) -> u64 {
    let mut h = FNV_OFFSET;
    for log in logs {
        for b in log
            .total()
            .to_le_bytes()
            .iter()
            .chain(log.fingerprint().to_le_bytes().iter())
        {
            h ^= *b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Checks the paper's replay invariant against one destination kernel's
/// log: every replayed read of `subject` must carry exactly the message
/// that occupied the same read-order position before the crash, and any
/// read index delivered more than once (pre-crash read, post-recovery
/// re-read) must be occupied by the same message every time.
///
/// Returns `Err` with a description of the first violation, `Ok(n)` with
/// the number of replayed reads checked otherwise.
pub fn check_replay_prefix(log: &SpanLog, subject: u64) -> Result<u64, String> {
    // First occupant of each read index, in recording order: for an index
    // read both before the crash and again during recovery, the first
    // occurrence is the pre-crash read.
    let mut first_read: BTreeMap<u64, MsgKey> = BTreeMap::new();
    for e in log.events_for(subject) {
        if e.stage != Stage::Deliver {
            continue;
        }
        match first_read.get(&e.aux) {
            None => {
                first_read.insert(e.aux, e.key);
            }
            Some(k) if *k != e.key => {
                return Err(format!(
                    "read index {} re-delivered {} but originally read {}",
                    e.aux, e.key, k
                ));
            }
            Some(_) => {}
        }
    }
    let mut checked = 0;
    for e in log.events_for(subject) {
        if e.stage != Stage::Replay {
            continue;
        }
        match first_read.get(&e.aux) {
            Some(k) if *k == e.key => checked += 1,
            Some(k) => {
                return Err(format!(
                    "replay of read index {} fed {} but pre-crash read was {}",
                    e.aux, e.key, k
                ));
            }
            None => {
                return Err(format!(
                    "replay of read index {} fed {} never seen delivered",
                    e.aux, e.key
                ));
            }
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sender: u64, seq: u64) -> MsgKey {
        MsgKey { sender, seq }
    }

    /// The fold as it was written before the one-buffer loop: the same 49
    /// bytes through a seven-way iterator chain, one multiply a byte.
    /// Kept as the reference.
    fn chained_fold(mut h: u64, e: &SpanEvent) -> u64 {
        for b in e
            .seq
            .to_le_bytes()
            .iter()
            .chain(e.at.as_nanos().to_le_bytes().iter())
            .chain(e.key.sender.to_le_bytes().iter())
            .chain(e.key.seq.to_le_bytes().iter())
            .chain([e.stage as u8].iter())
            .chain(e.subject.to_le_bytes().iter())
            .chain(e.aux.to_le_bytes().iter())
        {
            h ^= *b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// `word` with byte `i` zeroed unless bit `i` of `keep` is set: runs
    /// of zero bytes of every length and position, as real events have.
    fn sparse(word: u64, keep: u8) -> u64 {
        let mask = (0..8)
            .filter(|i| keep >> i & 1 == 1)
            .fold(0u64, |m, i| m | 0xff << (8 * i));
        word & mask
    }

    proptest::proptest! {
        #[test]
        fn one_buffer_fold_equals_the_chained_fold(
            h in 0u64..=u64::MAX,
            words in proptest::collection::vec((0u64..=u64::MAX, 0u8..=255), 6),
            stage in 0usize..Stage::COUNT,
        ) {
            const STAGES: [Stage; Stage::COUNT] = [
                Stage::Publish,
                Stage::Capture,
                Stage::Sequence,
                Stage::Deliver,
                Stage::Replay,
                Stage::Suppress,
                Stage::Checkpoint,
                Stage::Elect,
            ];
            // Dense words, the same words with bytes zeroed, all zero.
            for keep in [|_| 0xff, |k| k, |_| 0] as [fn(u8) -> u8; 3] {
                let w: Vec<u64> = words.iter().map(|&(w, k)| sparse(w, keep(k))).collect();
                let e = SpanEvent {
                    seq: w[0],
                    at: SimTime::from_nanos(w[1]),
                    key: key(w[2], w[3]),
                    stage: STAGES[stage],
                    subject: w[4],
                    aux: w[5],
                };
                let folded = fnv_fold_event(h, e.seq, e.at, e.key, e.stage, e.subject, e.aux);
                proptest::prop_assert_eq!(folded, chained_fold(h, &e));
            }
        }
    }

    #[test]
    fn fingerprint_independent_of_capacity() {
        let mut small = SpanLog::new(2);
        let mut big = SpanLog::new(1000);
        for i in 0..50 {
            small.record(SimTime::from_nanos(i), key(1, i), Stage::Publish, 2, i);
            big.record(SimTime::from_nanos(i), key(1, i), Stage::Publish, 2, i);
        }
        assert_eq!(small.fingerprint(), big.fingerprint());
        assert_eq!(small.total(), 50);
        assert_eq!(small.events().count(), 2);
    }

    #[test]
    fn fingerprint_sensitive_to_order_and_fields() {
        let mut a = SpanLog::new(8);
        let mut b = SpanLog::new(8);
        a.record(SimTime::ZERO, key(1, 0), Stage::Publish, 2, 0);
        a.record(SimTime::ZERO, key(1, 1), Stage::Publish, 2, 0);
        b.record(SimTime::ZERO, key(1, 1), Stage::Publish, 2, 0);
        b.record(SimTime::ZERO, key(1, 0), Stage::Publish, 2, 0);
        assert_ne!(a.fingerprint(), b.fingerprint());

        let mut c = SpanLog::new(8);
        c.record(SimTime::ZERO, key(1, 0), Stage::Capture, 2, 0);
        let mut d = SpanLog::new(8);
        d.record(SimTime::ZERO, key(1, 0), Stage::Publish, 2, 0);
        assert_ne!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn assemble_merges_and_orders() {
        let mut kernel = SpanLog::new(16);
        let mut recorder = SpanLog::new(16);
        let k = key(0x0000_0001_0000_0001, 1);
        kernel.record(SimTime::from_millis(1), k, Stage::Publish, 7, 0);
        recorder.record(SimTime::from_millis(2), k, Stage::Capture, 7, 0);
        recorder.record(SimTime::from_millis(3), k, Stage::Sequence, 7, 0);
        kernel.record(SimTime::from_millis(4), k, Stage::Deliver, 7, 0);
        let spans = assemble([&kernel, &recorder]);
        let span = &spans[&k];
        let stages: Vec<_> = span.events.iter().map(|e| e.stage).collect();
        assert_eq!(
            stages,
            [
                Stage::Publish,
                Stage::Capture,
                Stage::Sequence,
                Stage::Deliver
            ]
        );
        assert_eq!(span.first(Stage::Publish), Some(SimTime::from_millis(1)));
        assert!(span.has(Stage::Sequence));
        assert!(!span.has(Stage::Replay));
    }

    #[test]
    fn replay_prefix_check_accepts_faithful_replay() {
        let mut log = SpanLog::new(64);
        let pid = 42;
        // Pre-crash reads at indices 0..3.
        for i in 0..3u64 {
            log.record(SimTime::from_nanos(i), key(1, i), Stage::Deliver, pid, i);
        }
        // Replay of indices 1 and 2 (floor 1), then re-reads.
        for i in 1..3u64 {
            log.record(
                SimTime::from_nanos(10 + i),
                key(1, i),
                Stage::Replay,
                pid,
                i,
            );
        }
        for i in 1..3u64 {
            log.record(
                SimTime::from_nanos(20 + i),
                key(1, i),
                Stage::Deliver,
                pid,
                i,
            );
        }
        assert_eq!(check_replay_prefix(&log, pid), Ok(2));
    }

    #[test]
    fn replay_prefix_check_rejects_divergence() {
        let mut log = SpanLog::new(64);
        let pid = 42;
        log.record(SimTime::ZERO, key(1, 0), Stage::Deliver, pid, 0);
        // Replay feeds a different message at index 0.
        log.record(SimTime::from_nanos(5), key(1, 9), Stage::Replay, pid, 0);
        assert!(check_replay_prefix(&log, pid).is_err());

        let mut log2 = SpanLog::new(64);
        log2.record(SimTime::ZERO, key(1, 0), Stage::Deliver, pid, 0);
        // Post-recovery re-read disagrees with the pre-crash occupant.
        log2.record(SimTime::from_nanos(5), key(1, 3), Stage::Deliver, pid, 0);
        assert!(check_replay_prefix(&log2, pid).is_err());
    }

    #[test]
    fn combined_fingerprint_is_order_sensitive() {
        let mut a = SpanLog::new(4);
        let mut b = SpanLog::new(4);
        a.record(SimTime::ZERO, key(1, 0), Stage::Publish, 1, 0);
        b.record(SimTime::ZERO, key(2, 0), Stage::Publish, 2, 0);
        assert_ne!(
            combined_fingerprint([&a, &b]),
            combined_fingerprint([&b, &a])
        );
    }

    #[test]
    fn assemble_without_eviction_never_marks_partial() {
        let mut log = SpanLog::new(16);
        let k = key(1, 0);
        // In-flight message: captured but publish not recorded anywhere —
        // still not partial, because nothing was evicted.
        log.record(SimTime::ZERO, k, Stage::Capture, 7, 0);
        let spans = assemble([&log]);
        assert!(!spans[&k].partial);
    }

    #[test]
    fn assemble_marks_evicted_prefix_partial() {
        let mut log = SpanLog::new(2);
        let old = key(1, 0);
        let fresh = key(1, 1);
        log.record(SimTime::from_nanos(1), old, Stage::Publish, 7, 0);
        log.record(SimTime::from_nanos(2), old, Stage::Deliver, 7, 0);
        // These two evict `old`'s publish, then its deliver.
        log.record(SimTime::from_nanos(3), fresh, Stage::Publish, 7, 0);
        log.record(SimTime::from_nanos(4), old, Stage::Suppress, 7, 0);
        let spans = assemble([&log]);
        assert!(spans[&old].partial, "suppress survived, publish evicted");
        assert!(!spans[&fresh].partial, "complete span stays clean");
    }

    #[test]
    fn msgkey_parses_its_display_form() {
        let k = MsgKey {
            sender: (3u64 << 32) | 7,
            seq: 11,
        };
        assert_eq!(k.to_string().parse::<MsgKey>(), Ok(k));
        assert!("garbage".parse::<MsgKey>().is_err());
        assert!("1.2".parse::<MsgKey>().is_err());
        assert!("1#2".parse::<MsgKey>().is_err());
        assert!("9999999999.0#1".parse::<MsgKey>().is_err());
    }

    #[test]
    fn msgkey_display_unpacks_node_and_local() {
        let k = MsgKey {
            sender: (3u64 << 32) | 7,
            seq: 11,
        };
        assert_eq!(k.to_string(), "3.7#11");
    }
}
