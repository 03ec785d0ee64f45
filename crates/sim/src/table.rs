//! Tables keyed by ids the simulation numbers itself.
//!
//! Timer tokens, IO tokens and capture numbers are counters: whoever
//! files an entry also issues its key, one higher than the last. A
//! [`TokenTable`] is therefore indexed by the key — no tree walk, no
//! hash — and hands the key out itself. Process and message ids are
//! numbered by the simulation too but are not dense; [`IdMap`] hashes
//! them without a key or a cryptographic mix, which only ids from outside
//! the program would need.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// A window shorter than this is never worth thinning.
const SPARSE_MIN: usize = 64;

/// Outstanding entries by the token [`TokenTable::insert`] issued.
///
/// Tokens count up from 0 and are never reused: a token taken, or issued
/// before a [`TokenTable::clear`], resolves to nothing forever — which is
/// what lets a crashed component clear its table and let late timers
/// find nothing. Entries live in a window from the oldest outstanding
/// token, so tokens taken in roughly the order they were issued (timers
/// that fire, IO that completes) keep it short. An entry nobody takes —
/// a completion that died with its host — would keep every later slot
/// reserved; once three quarters of the window is empty such entries
/// move to a short ordered side list instead.
#[derive(Debug, Clone)]
pub struct TokenTable<K> {
    /// Token of `slots[0]`; the next one issued is `base + slots.len()`.
    base: u64,
    /// Front is occupied (or the window is empty).
    slots: VecDeque<Option<K>>,
    /// Occupied slots.
    live: usize,
    /// Entries moved out of a window they alone kept open, ascending.
    stragglers: Vec<(u64, K)>,
}

impl<K> Default for TokenTable<K> {
    fn default() -> Self {
        TokenTable {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
            stragglers: Vec::new(),
        }
    }
}

impl<K> TokenTable<K> {
    /// Creates an empty table whose first token is 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Files `value` under the next token and returns it.
    pub fn insert(&mut self, value: K) -> u64 {
        let token = self.base + self.slots.len() as u64;
        self.slots.push_back(Some(value));
        self.live += 1;
        while self.slots.len() >= SPARSE_MIN && self.live * 4 < self.slots.len() {
            if let Some(Some(old)) = self.slots.pop_front() {
                self.stragglers.push((self.base, old));
                self.live -= 1;
            }
            self.base += 1;
            self.trim();
        }
        token
    }

    /// Drops the empty slots at the front of the window.
    fn trim(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Removes and returns the entry filed under `token`, if it is still
    /// outstanding.
    pub fn take(&mut self, token: u64) -> Option<K> {
        let Some(idx) = token.checked_sub(self.base) else {
            let at = self.stragglers.binary_search_by_key(&token, |s| s.0).ok()?;
            return Some(self.stragglers.remove(at).1);
        };
        let value = self.slots.get_mut(usize::try_from(idx).ok()?)?.take()?;
        self.live -= 1;
        if idx == 0 {
            self.trim();
        }
        Some(value)
    }

    /// The entry filed under `token`, if it is still outstanding.
    pub fn get(&self, token: u64) -> Option<&K> {
        match token.checked_sub(self.base) {
            Some(idx) => self.slots.get(usize::try_from(idx).ok()?)?.as_ref(),
            None => {
                let at = self.stragglers.binary_search_by_key(&token, |s| s.0).ok()?;
                Some(&self.stragglers[at].1)
            }
        }
    }

    /// Forgets every entry; their tokens stay spent.
    pub fn clear(&mut self) {
        self.drain().for_each(drop);
    }

    /// Removes every entry, yielding them in token order; their tokens
    /// stay spent.
    pub fn drain(&mut self) -> impl Iterator<Item = K> + '_ {
        self.base += self.slots.len() as u64;
        self.live = 0;
        let old = self.stragglers.drain(..).map(|s| s.1);
        old.chain(self.slots.drain(..).flatten())
    }

    /// Outstanding entries with their tokens, in token order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &K)> {
        let old = self.stragglers.iter().map(|s| (s.0, &s.1));
        let window = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((self.base + i as u64, s.as_ref()?)));
        old.chain(window)
    }

    /// Number of outstanding entries.
    pub fn len(&self) -> usize {
        self.live + self.stragglers.len()
    }

    /// Whether nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Slot `at` of a table indexed by a small dense id (a page number, a
/// node, station or local process id), grown with empty slots to reach
/// it.
pub fn slot_mut<T: Default>(table: &mut Vec<T>, at: usize) -> &mut T {
    if at >= table.len() {
        table.resize_with(at + 1, T::default);
    }
    &mut table[at]
}

/// The hasher of an [`IdMap`]: one rotate, xor and multiply per word
/// written (the Fx mix), keyless and deterministic.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upwards: hand the table its well-mixed high
        // bits where it looks for the bucket index.
        self.0.rotate_left(26)
    }
}

/// A hash map for keys the simulation itself numbers — packed process
/// ids, message ids — which nobody outside the program can craft to
/// collide. Never iterate one where the order could reach behaviour.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_count_up_and_resolve_once() {
        let mut t = TokenTable::new();
        assert_eq!((t.insert('a'), t.insert('b'), t.insert('c')), (0, 1, 2));
        assert_eq!(t.get(1), Some(&'b'));
        assert_eq!(t.take(1), Some('b'));
        assert_eq!(t.take(1), None);
        assert_eq!(t.take(7), None);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0, &'a'), (2, &'c')]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn a_cleared_table_keeps_counting() {
        let mut t = TokenTable::new();
        let stale = t.insert(1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.insert(2), stale + 1);
        assert_eq!(t.take(stale), None);
    }

    #[test]
    fn an_entry_nobody_takes_does_not_pin_the_window() {
        let mut t = TokenTable::new();
        let stuck = t.insert(u64::MAX);
        for i in 0..10_000u64 {
            let token = t.insert(i);
            assert_eq!(token, i + 1);
            assert_eq!(t.take(token), Some(i));
        }
        assert!(t.slots.len() <= SPARSE_MIN, "window {}", t.slots.len());
        assert_eq!(t.get(stuck), Some(&u64::MAX));
        assert_eq!(t.drain().collect::<Vec<_>>(), vec![u64::MAX]);
        assert_eq!(t.take(stuck), None);
    }

    #[test]
    fn id_hasher_separates_packed_pids_and_short_writes() {
        use std::hash::{BuildHasher, Hash};
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut seen = std::collections::BTreeSet::new();
        for node in 0..8u64 {
            for local in 0..64u64 {
                seen.insert(build.hash_one(node << 32 | local) >> 57);
            }
        }
        assert!(seen.len() > 100, "top bits vary: {}", seen.len());
        let mut h = IdHasher::default();
        [1u8, 2, 3].hash(&mut h);
        assert_ne!(h.finish(), IdHasher::default().finish());
    }
}
