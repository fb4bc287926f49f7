//! Property-based tests for the ISIS ordering machinery.
//!
//! §3.3 requires that "updates arrive in identical order at all servers
//! regardless of token movement"; these properties check the ordered
//! receiver delivers that guarantee under arbitrary arrival permutations.

use deceit_isis::{OrderedReceiver, SequencedMsg};
use proptest::prelude::*;

/// Applies an arrival permutation (as a shuffle key) to a message vector.
fn permute<T: Clone>(items: &[T], key: &[usize]) -> Vec<T> {
    let mut indexed: Vec<(usize, T)> = items.iter().cloned().enumerate().collect();
    indexed.sort_by_key(|(i, _)| key.get(*i).copied().unwrap_or(*i));
    indexed.into_iter().map(|(_, t)| t).collect()
}

proptest! {
    /// ABCAST: any arrival order delivers payloads in sequence order, and
    /// every message is eventually delivered exactly once.
    #[test]
    fn abcast_total_order(n in 1usize..40, key in proptest::collection::vec(0usize..1000, 0..40)) {
        let msgs: Vec<SequencedMsg<usize>> =
            (0..n).map(|i| SequencedMsg { seq: i as u64, payload: i }).collect();
        let arrived = permute(&msgs, &key);
        let mut rx = OrderedReceiver::new();
        let mut delivered = Vec::new();
        for m in arrived {
            for (s, p) in rx.receive(m) {
                delivered.push((s, p));
            }
        }
        let expected: Vec<(u64, usize)> = (0..n).map(|i| (i as u64, i)).collect();
        prop_assert_eq!(delivered, expected);
        prop_assert_eq!(rx.held_count(), 0);
    }

    /// ABCAST with duplicates: retransmissions never cause double delivery.
    #[test]
    fn abcast_duplicates_ignored(n in 1usize..20, dups in proptest::collection::vec(0usize..20, 0..40)) {
        let msgs: Vec<SequencedMsg<usize>> =
            (0..n).map(|i| SequencedMsg { seq: i as u64, payload: i }).collect();
        let mut rx = OrderedReceiver::new();
        let mut count = 0usize;
        for m in &msgs {
            count += rx.receive(m.clone()).len();
        }
        for d in dups {
            if d < n {
                count += rx.receive(msgs[d].clone()).len();
            }
        }
        prop_assert_eq!(count, n);
    }
}
