//! Columnar storage engine behind [`SpanLog`](crate::span::SpanLog).
//!
//! The row-oriented ring kept every retained [`SpanEvent`] as a full
//! 56-byte struct; at the default 65 536-event capacity that is ~3.7 MB
//! *per component*, and span volume already dominates the memory of
//! large runs. This module stores the same events as
//! struct-of-arrays columns with three compressions that exploit the
//! shape of real lifecycle streams:
//!
//! - **delta timestamps and emission numbers** — events are recorded in
//!   virtual-time order per component, so `at` and `seq` are stored as
//!   u32/u8 deltas from the previous retained row;
//! - **interned identities** — sender and subject process ids come from
//!   a tiny pid space, so both columns hold u32 symbols into one
//!   [`Interner`];
//! - **packed stage bits** — the subject symbol and the 4-bit stage
//!   share one u32.
//!
//! A packed row is 17 bytes (vs 56), a 3.3× cut. Rows whose fields
//! overflow the narrow widths (a >4.29 s time gap, a >255 seq delta, an
//! out-of-range aux) *escape*: the columns carry a sentinel and the full
//! event lives in a side map keyed by the row's monotone id, removed
//! again when the row is evicted. Reconstruction is exact — iteration
//! replays the deltas through running accumulators and yields
//! byte-identical [`SpanEvent`]s, which the `columnar_props` proptest
//! suite pins against the row-oriented ring it replaced, kept there as
//! the reference.
//!
//! The fingerprint lives in the [`SpanLog`](crate::span::SpanLog)
//! wrapper: the store only ever sees events the log decided to retain,
//! so fingerprints stay independent of storage policy.

use crate::span::{MsgKey, SpanEvent, Stage};
use publishing_sim::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Bytes one packed columnar row occupies across the six columns.
pub const PACKED_ROW_BYTES: usize = 4 + 1 + 4 + 2 + 4 + 2;

/// Escape sentinel in the sender-symbol column: the row's full event is
/// in the side map.
const ESCAPED: u32 = u32::MAX;

/// Maximum subject symbol that fits next to the 4 stage bits.
const MAX_SUBJECT_SYM: u32 = (1 << 28) - 1;

/// Interns u64 identities (packed process ids, station ids) to dense
/// u32 symbols. Symbols are never evicted — the pid space is tiny and
/// stable, so the table stays a few dozen entries for the life of a
/// run.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    values: Vec<u64>,
    symbols: BTreeMap<u64, u32>,
}

impl Interner {
    /// Returns the symbol for `value`, allocating one on first sight.
    pub fn intern(&mut self, value: u64) -> u32 {
        if let Some(&s) = self.symbols.get(&value) {
            return s;
        }
        let s = self.values.len() as u32;
        self.values.push(value);
        self.symbols.insert(value, s);
        s
    }

    /// Returns the value a symbol stands for.
    ///
    /// # Panics
    ///
    /// Panics when the symbol was never allocated by this interner.
    pub fn resolve(&self, symbol: u32) -> u64 {
        self.values[symbol as usize]
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// The struct-of-arrays event ring. Rows are appended at the back and
/// evicted from the front; each row is either packed across the six
/// columns or escaped to the side map.
#[derive(Debug, Clone, Default)]
pub struct ColumnarStore {
    dt: VecDeque<u32>,
    dseq: VecDeque<u8>,
    sender_sym: VecDeque<u32>,
    key_seq: VecDeque<u16>,
    subject_stage: VecDeque<u32>,
    aux: VecDeque<u16>,
    escapes: BTreeMap<u64, SpanEvent>,
    symbols: Interner,
    /// Monotone id of the next row to evict (rows ever popped).
    front_row: u64,
    /// `at`/`seq` of the row just before the front (iteration base).
    base_at: u64,
    base_seq: u64,
    /// `at`/`seq` of the last appended row (delta base for the next).
    tail_at: u64,
    tail_seq: u64,
}

impl ColumnarStore {
    /// Retained row count.
    pub fn len(&self) -> usize {
        self.dt.len()
    }

    /// True when no rows are retained.
    pub fn is_empty(&self) -> bool {
        self.dt.is_empty()
    }

    /// Rows that had to escape to the side map.
    pub fn escaped(&self) -> usize {
        self.escapes.len()
    }

    /// Distinct identities interned so far.
    pub fn symbols(&self) -> usize {
        self.symbols.len()
    }

    /// Deterministic estimate of the bytes the retained rows occupy:
    /// packed columns plus full-width escapes plus the symbol table.
    /// (An allocator sees power-of-two growth on top of this; the
    /// `obs_overhead` bench measures that side.)
    pub fn retained_bytes(&self) -> usize {
        self.len() * PACKED_ROW_BYTES
            + self.escapes.len() * std::mem::size_of::<SpanEvent>()
            + self.symbols.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
    }

    /// Appends one event.
    pub fn push(&mut self, e: SpanEvent) {
        let at = e.at.as_nanos();
        let dt = at.checked_sub(self.tail_at);
        let dseq = e.seq.checked_sub(self.tail_seq);
        let sender = self.symbols.intern(e.key.sender);
        let subject = self.symbols.intern(e.subject);
        let packed = match (dt, dseq) {
            (Some(dt), Some(dseq))
                if dt <= u32::MAX as u64
                    && dseq <= u8::MAX as u64
                    && sender < ESCAPED
                    && subject <= MAX_SUBJECT_SYM
                    && e.key.seq <= u16::MAX as u64
                    && e.aux <= u16::MAX as u64 =>
            {
                Some((dt as u32, dseq as u8))
            }
            _ => None,
        };
        match packed {
            Some((dt, dseq)) => {
                self.dt.push_back(dt);
                self.dseq.push_back(dseq);
                self.sender_sym.push_back(sender);
                self.key_seq.push_back(e.key.seq as u16);
                self.subject_stage
                    .push_back((subject << 4) | e.stage as u32);
                self.aux.push_back(e.aux as u16);
            }
            None => {
                self.dt.push_back(0);
                self.dseq.push_back(0);
                self.sender_sym.push_back(ESCAPED);
                self.key_seq.push_back(0);
                self.subject_stage.push_back(0);
                self.aux.push_back(0);
                let row = self.front_row + self.len() as u64 - 1;
                self.escapes.insert(row, e);
            }
        }
        self.tail_at = at;
        self.tail_seq = e.seq;
    }

    /// Evicts the oldest row, advancing the iteration base past it.
    pub fn pop_front(&mut self) {
        if self.dt.is_empty() {
            return;
        }
        if self.sender_sym[0] == ESCAPED {
            let e = self
                .escapes
                .remove(&self.front_row)
                .expect("escaped row has a side-map entry");
            self.base_at = e.at.as_nanos();
            self.base_seq = e.seq;
        } else {
            self.base_at += self.dt[0] as u64;
            self.base_seq += self.dseq[0] as u64;
        }
        self.dt.pop_front();
        self.dseq.pop_front();
        self.sender_sym.pop_front();
        self.key_seq.pop_front();
        self.subject_stage.pop_front();
        self.aux.pop_front();
        self.front_row += 1;
    }

    /// Drops every retained row (fingerprint state lives in the caller
    /// and is unaffected).
    pub fn clear(&mut self) {
        while !self.is_empty() {
            self.pop_front();
        }
    }

    /// Reconstructs the retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = SpanEvent> + '_ {
        let mut at = self.base_at;
        let mut seq = self.base_seq;
        let mut row = self.front_row;
        self.dt
            .iter()
            .zip(&self.dseq)
            .zip(&self.sender_sym)
            .zip(&self.key_seq)
            .zip(&self.subject_stage)
            .zip(&self.aux)
            .map(
                move |(((((dt, dseq), sender), key_seq), subject_stage), aux)| {
                    let id = row;
                    row += 1;
                    if *sender == ESCAPED {
                        let e = self.escapes[&id];
                        at = e.at.as_nanos();
                        seq = e.seq;
                        return e;
                    }
                    at += *dt as u64;
                    seq += *dseq as u64;
                    SpanEvent {
                        seq,
                        at: SimTime::from_nanos(at),
                        key: MsgKey {
                            sender: self.symbols.resolve(*sender),
                            seq: *key_seq as u64,
                        },
                        stage: Stage::from_bits((subject_stage & 0xf) as u8),
                        subject: self.symbols.resolve(subject_stage >> 4),
                        aux: *aux as u64,
                    }
                },
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        seq: u64,
        at_ns: u64,
        sender: u64,
        kseq: u64,
        stage: Stage,
        subj: u64,
        aux: u64,
    ) -> SpanEvent {
        SpanEvent {
            seq,
            at: SimTime::from_nanos(at_ns),
            key: MsgKey { sender, seq: kseq },
            stage,
            subject: subj,
            aux,
        }
    }

    #[test]
    fn packed_rows_round_trip_exactly() {
        let mut s = ColumnarStore::default();
        let events = [
            ev(0, 100, 1, 0, Stage::Publish, 7, 16),
            ev(1, 150, 1, 1, Stage::Capture, 7, 0),
            ev(2, 400, 2, 0, Stage::Deliver, 7, 3),
        ];
        for e in events {
            s.push(e);
        }
        assert_eq!(s.escaped(), 0);
        let back: Vec<SpanEvent> = s.iter().collect();
        assert_eq!(back, events);
    }

    #[test]
    fn overflowing_fields_escape_and_still_round_trip() {
        let mut s = ColumnarStore::default();
        let wide = [
            // First event: at exceeds u32 nanos from the zero base.
            ev(0, u64::from(u32::MAX) + 5, 1, 0, Stage::Publish, 7, 0),
            // Normal deltas after the escape re-anchor.
            ev(1, u64::from(u32::MAX) + 50, 1, 1, Stage::Capture, 7, 0),
            // aux too wide for u16.
            ev(
                2,
                u64::from(u32::MAX) + 60,
                1,
                2,
                Stage::Sequence,
                7,
                1 << 20,
            ),
            // key seq too wide for u16.
            ev(
                3,
                u64::from(u32::MAX) + 70,
                1,
                1 << 40,
                Stage::Deliver,
                7,
                0,
            ),
            // seq delta too wide for u8 (heavy sampling gap).
            ev(
                200_000,
                u64::from(u32::MAX) + 80,
                1,
                3,
                Stage::Deliver,
                7,
                1,
            ),
        ];
        for e in wide {
            s.push(e);
        }
        assert_eq!(s.escaped(), 4);
        let back: Vec<SpanEvent> = s.iter().collect();
        assert_eq!(back, wide);
    }

    #[test]
    fn eviction_advances_the_base_through_escapes() {
        let mut s = ColumnarStore::default();
        let events = [
            ev(0, 10, 1, 0, Stage::Publish, 7, 0),
            ev(1, 20, 1, 1, Stage::Publish, 7, 1 << 30), // escaped (aux)
            ev(2, 30, 1, 2, Stage::Publish, 7, 2),
            ev(3, 40, 1, 3, Stage::Publish, 7, 3),
        ];
        for e in events {
            s.push(e);
        }
        s.pop_front(); // packed row out
        assert_eq!(s.iter().collect::<Vec<_>>(), events[1..]);
        s.pop_front(); // escaped row out: side map entry must go too
        assert_eq!(s.escaped(), 0);
        assert_eq!(s.iter().collect::<Vec<_>>(), events[2..]);
        s.clear();
        assert!(s.is_empty());
        // Appends after a full drain delta against the last event.
        let next = ev(4, 50, 1, 4, Stage::Publish, 7, 4);
        s.push(next);
        assert_eq!(s.iter().collect::<Vec<_>>(), [next]);
        assert_eq!(s.escaped(), 0, "post-drain append packs");
    }

    #[test]
    fn packed_row_is_at_least_three_times_smaller() {
        assert!(std::mem::size_of::<SpanEvent>() >= 3 * PACKED_ROW_BYTES);
        let mut col = ColumnarStore::default();
        for i in 0..1000u64 {
            col.push(ev(i, 100 * i, 1 + i % 4, i, Stage::Publish, 7, i % 100));
        }
        assert_eq!(col.escaped(), 0);
        // A row-oriented ring holds every event as a whole struct.
        let row_bytes = 1000 * std::mem::size_of::<SpanEvent>();
        assert!(row_bytes >= 3 * col.retained_bytes());
    }

    #[test]
    fn interner_is_stable_and_dense() {
        let mut i = Interner::default();
        assert!(i.is_empty());
        let a = i.intern(99);
        let b = i.intern(7);
        assert_eq!(i.intern(99), a);
        assert_eq!(i.resolve(a), 99);
        assert_eq!(i.resolve(b), 7);
        assert_eq!(i.len(), 2);
    }
}
