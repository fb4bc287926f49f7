//! ABCAST: totally ordered delivery of token-site-stamped updates.
//!
//! §3.3: "It is necessary for correctness that the updates arrive in
//! identical order at all servers regardless of token movement." Deceit
//! achieves this the way ISIS's token-site ABCAST does: whoever holds the
//! token stamps each update with the group's next sequence number (the
//! cluster stamps [`SequencedMsg::seq`] from the new version's sub-number),
//! and every member delivers strictly in sequence-number order, holding
//! back gaps. Because the counter travels with the token, the order is
//! preserved across token passes.

use std::collections::BTreeMap;

/// A payload stamped with its total-order position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencedMsg<T> {
    /// Position in the group's total order.
    pub seq: u64,
    /// Application payload.
    pub payload: T,
}

/// Receiver-side reordering buffer: delivers strictly in sequence order.
#[derive(Debug, Clone, Default)]
pub struct OrderedReceiver<T> {
    next_expected: u64,
    held: BTreeMap<u64, T>,
    delivered: u64,
}

impl<T> OrderedReceiver<T> {
    /// A receiver expecting sequence number 0 first.
    pub fn new() -> Self {
        OrderedReceiver { next_expected: 0, held: BTreeMap::new(), delivered: 0 }
    }

    /// A receiver that has already (logically) delivered everything below
    /// `next` — used after state transfer, where the joiner's initial state
    /// embeds all earlier updates.
    pub fn starting_at(next: u64) -> Self {
        OrderedReceiver { next_expected: next, held: BTreeMap::new(), delivered: 0 }
    }

    /// Ingests one stamped message; returns newly deliverable payloads in
    /// sequence order. Duplicate or already-delivered sequence numbers are
    /// ignored (ISIS deduplicates retransmissions).
    pub fn receive(&mut self, msg: SequencedMsg<T>) -> Vec<(u64, T)> {
        if msg.seq >= self.next_expected {
            self.held.entry(msg.seq).or_insert(msg.payload);
        }
        let mut out = Vec::new();
        while let Some(payload) = self.held.remove(&self.next_expected) {
            out.push((self.next_expected, payload));
            self.next_expected += 1;
            self.delivered += 1;
        }
        out
    }

    /// Records that the receiver's owner took the next `count` messages
    /// of the sequence itself, in order, without passing them through
    /// [`OrderedReceiver::receive`] — which it may do only while nothing
    /// is held back ([`OrderedReceiver::held_count`] is 0), when
    /// receiving them one by one would have delivered each at once.
    pub fn delivered_directly(&mut self, count: u64) {
        debug_assert!(self.held.is_empty(), "direct delivery past held-back messages");
        self.next_expected += count;
        self.delivered += count;
    }

    /// The sequence number this receiver will deliver next.
    pub fn next_expected(&self) -> u64 {
        self.next_expected
    }

    /// Messages held back waiting for a gap to fill.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Total payloads delivered.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_delivery() {
        let mut r = OrderedReceiver::new();
        for i in 0..5 {
            let out = r.receive(SequencedMsg { seq: i as u64, payload: i });
            assert_eq!(out, vec![(i as u64, i)]);
        }
        assert_eq!(r.delivered_count(), 5);
    }

    #[test]
    fn direct_delivery_is_in_order_receipt() {
        let (mut a, mut b) = (OrderedReceiver::starting_at(4), OrderedReceiver::starting_at(4));
        for seq in 4..7 {
            assert_eq!(a.receive(SequencedMsg { seq, payload: seq }), vec![(seq, seq)]);
        }
        b.delivered_directly(3);
        assert_eq!((a.next_expected(), a.delivered_count()), (7, 3));
        assert_eq!((b.next_expected(), b.delivered_count()), (7, 3));
        // Both now drop the same redelivery and hold the same gap.
        for r in [&mut a, &mut b] {
            assert!(r.receive(SequencedMsg { seq: 5, payload: 5 }).is_empty());
            assert!(r.receive(SequencedMsg { seq: 8, payload: 8 }).is_empty());
            assert_eq!(r.held_count(), 1);
        }
    }

    #[test]
    fn gaps_are_held_back() {
        let mut r = OrderedReceiver::new();
        assert!(r.receive(SequencedMsg { seq: 2, payload: "c" }).is_empty());
        assert!(r.receive(SequencedMsg { seq: 1, payload: "b" }).is_empty());
        assert_eq!(r.held_count(), 2);
        let out = r.receive(SequencedMsg { seq: 0, payload: "a" });
        assert_eq!(
            out,
            vec![(0, "a"), (1, "b"), (2, "c")],
            "filling the gap releases everything in order"
        );
    }

    #[test]
    fn duplicates_ignored() {
        let mut r = OrderedReceiver::new();
        assert_eq!(r.receive(SequencedMsg { seq: 0, payload: 1 }).len(), 1);
        assert!(r.receive(SequencedMsg { seq: 0, payload: 1 }).is_empty());
        assert_eq!(r.delivered_count(), 1);
    }

    #[test]
    fn state_transfer_skips_history() {
        let mut r: OrderedReceiver<&str> = OrderedReceiver::starting_at(10);
        // An old retransmission is ignored outright.
        assert!(r.receive(SequencedMsg { seq: 3, payload: "old" }).is_empty());
        assert_eq!(r.held_count(), 0);
        let out = r.receive(SequencedMsg { seq: 10, payload: "new" });
        assert_eq!(out, vec![(10, "new")]);
    }
}
