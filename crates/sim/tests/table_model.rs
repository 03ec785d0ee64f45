//! Model-based property test: [`TokenTable`] against the `HashMap<u64, K>`
//! plus `next_token` counter it replaces in every timer and IO table.

use proptest::prelude::*;
use publishing_sim::table::TokenTable;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Insert,
    /// Take the outstanding token at this rank (oldest first), if any.
    TakeLive(usize),
    /// Take a token that was taken, cleared or never issued.
    TakeStale(u64),
    Clear,
    Drain,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        12 => Just(Op::Insert),
        // Rank 0 most often: timers fire, and IO completes, in roughly
        // the order issued. Higher ranks leave old entries behind, which
        // is what thins the window into its side list.
        6 => Just(Op::TakeLive(0)),
        3 => (1usize..40).prop_map(Op::TakeLive),
        // The newest: what a retried IO or a re-armed timer looks like.
        6 => Just(Op::TakeLive(usize::MAX)),
        2 => (0u64..600).prop_map(Op::TakeStale),
        1 => Just(Op::Clear),
        1 => Just(Op::Drain),
    ]
}

proptest! {
    #[test]
    fn token_table_matches_hashmap_and_counter(
        ops in proptest::collection::vec(arb_op(), 1..600),
    ) {
        let mut table: TokenTable<u64> = TokenTable::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut next_token = 0u64;
        // Every token issued before the most recent clear or drain.
        let mut cleared_below = 0u64;
        for (i, op) in ops.into_iter().enumerate() {
            let value = i as u64 * 31;
            match op {
                Op::Insert => {
                    prop_assert_eq!(table.insert(value), next_token);
                    model.insert(next_token, value);
                    next_token += 1;
                }
                Op::TakeLive(rank) => {
                    let mut live: Vec<u64> = model.keys().copied().collect();
                    live.sort_unstable();
                    if let Some(&token) = live.get(rank.min(live.len().saturating_sub(1))) {
                        prop_assert_eq!(table.get(token), model.get(&token));
                        prop_assert_eq!(table.take(token), model.remove(&token));
                        prop_assert_eq!(table.take(token), None);
                    }
                }
                Op::TakeStale(token) => {
                    prop_assert_eq!(table.get(token), model.get(&token));
                    prop_assert_eq!(table.take(token), model.remove(&token));
                }
                Op::Clear => {
                    table.clear();
                    model.clear();
                    cleared_below = next_token;
                }
                Op::Drain => {
                    let mut expect: Vec<(u64, u64)> = model.drain().collect();
                    expect.sort_unstable();
                    let got: Vec<u64> = table.drain().collect();
                    prop_assert_eq!(got, expect.into_iter().map(|e| e.1).collect::<Vec<_>>());
                    cleared_below = next_token;
                }
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
            // A token issued before a clear never resolves after it.
            if cleared_below > 0 {
                let stale = (i as u64 * 7) % cleared_below;
                prop_assert_eq!(table.get(stale), None);
            }
            let mut expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            expect.sort_unstable();
            let got: Vec<(u64, u64)> = table.iter().map(|(k, v)| (k, *v)).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
