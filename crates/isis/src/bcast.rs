//! Group broadcast as a communication round.
//!
//! §3.3 (footnote 6): "A communication round is the distribution of a
//! message to a set of processes. The collection of synchronous replies is
//! included in the round." Deceit's write path is built entirely from such
//! rounds: update distribution, token request/pass, stability notification,
//! replica inquiries.
//!
//! [`broadcast_round`] performs one round against the simulated network and
//! returns who answered and when. The caller decides how many replies it
//! needs — the *write safety level* `s` of §4 maps to
//! [`BcastOutcome::latency_first_k`]`(s)`.

use deceit_net::{Network, NodeId};
use deceit_sim::{InlineVec, SimDuration};

/// The result of one communication round.
#[derive(Debug, Clone)]
pub struct BcastOutcome {
    /// Members that received the message and replied, with the round-trip
    /// time of each reply, sorted by arrival (ascending round-trip, then node).
    pub replies: InlineVec<(NodeId, SimDuration), 4>,
    /// Members that could not be reached (crashed or partitioned away).
    /// Per §2.4, this *is* the failure detection signal.
    pub unreachable: Vec<NodeId>,
}

impl BcastOutcome {
    /// Number of correct replies collected.
    pub fn reply_count(&self) -> usize {
        self.replies.len()
    }

    /// The members that answered, in arrival order.
    pub fn responders(&self) -> Vec<NodeId> {
        self.replies.iter().map(|(n, _)| *n).collect()
    }

    /// Whether a specific member answered.
    pub fn heard_from(&self, node: NodeId) -> bool {
        self.replies.iter().any(|(n, _)| *n == node)
    }

    /// Time until the first `k` replies are in hand.
    ///
    /// `k == 0` models a fully asynchronous send (the caller does not
    /// wait); if fewer than `k` members answered, the round completes when
    /// the last available reply arrives — "a value greater than or equal to
    /// the number of available replicas produces slow and fully synchronous
    /// writes" (§4).
    pub fn latency_first_k(&self, k: usize) -> SimDuration {
        if k == 0 || self.replies.is_empty() {
            return SimDuration::ZERO;
        }
        let idx = k.min(self.replies.len()) - 1;
        self.replies[idx].1
    }

    /// Time until every available reply arrived.
    pub fn full_latency(&self) -> SimDuration {
        self.replies.last().map_or(SimDuration::ZERO, |(_, d)| *d)
    }
}

/// Executes one broadcast round from `from` to `targets`.
///
/// Each reachable target is charged one request message of `bytes` and one
/// reply of `reply_bytes` on the network. Delivery to `from` itself (ISIS
/// self-delivery) is free and reported with a negligible round-trip, so a
/// token holder broadcasting an update to its own file group observes its
/// local replica answer first — which is what makes write safety level 1
/// fast in the common case.
pub fn broadcast_round(
    net: &Network,
    from: NodeId,
    targets: impl IntoIterator<Item = NodeId>,
    bytes: usize,
    reply_bytes: usize,
    tag: &'static str,
) -> BcastOutcome {
    let mut replies = InlineVec::default();
    let mut unreachable = Vec::new();
    for to in targets {
        if to == from {
            // Local delivery: a procedure call, not a network message.
            replies.push((to, SimDuration::from_micros(10)));
            continue;
        }
        match net.exchange(from, to, bytes, reply_bytes, tag) {
            deceit_net::Delivery::Delivered(rtt) => replies.push((to, rtt)),
            deceit_net::Delivery::Unreachable => unreachable.push(to),
        }
    }
    replies.sort_by_key(|&(n, d)| (d, n));
    BcastOutcome { replies, unreachable }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deceit_sim::SimDuration;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    fn net() -> Network {
        Network::fixed(SimDuration::from_millis(1), 7)
    }

    #[test]
    fn all_reachable_members_reply() {
        let net = net();
        let out = broadcast_round(&net, n(0), [n(1), n(2), n(3)], 100, 16, "upd");
        assert_eq!(out.reply_count(), 3);
        assert!(out.unreachable.is_empty());
        // Fixed latency: every round trip is exactly 2 ms.
        assert_eq!(out.full_latency(), SimDuration::from_millis(2));
        // 3 requests + 3 replies.
        assert_eq!(net.stats().tag_count("upd"), 6);
    }

    #[test]
    fn self_delivery_is_free_and_first() {
        let net = net();
        let out = broadcast_round(&net, n(0), [n(0), n(1)], 100, 16, "upd");
        assert_eq!(out.reply_count(), 2);
        assert_eq!(out.replies[0].0, n(0));
        assert!(out.replies[0].1 < SimDuration::from_micros(100));
        // Only the remote member used the network.
        assert_eq!(net.stats().messages, 2);
    }

    #[test]
    fn crashed_member_is_unreachable() {
        let mut net = net();
        net.crash(n(2));
        let out = broadcast_round(&net, n(0), [n(1), n(2)], 10, 10, "t");
        assert_eq!(out.reply_count(), 1);
        assert_eq!(out.unreachable, vec![n(2)]);
        assert!(out.heard_from(n(1)));
        assert!(!out.heard_from(n(2)));
    }

    #[test]
    fn first_k_latency_semantics() {
        let net = net();
        let out = broadcast_round(&net, n(0), [n(0), n(1), n(2)], 10, 10, "t");
        // k=0: asynchronous.
        assert_eq!(out.latency_first_k(0), SimDuration::ZERO);
        // k=1: the free self-reply satisfies it.
        assert!(out.latency_first_k(1) < SimDuration::from_micros(100));
        // k=2: one real round trip.
        assert_eq!(out.latency_first_k(2), SimDuration::from_millis(2));
        // k beyond available replies degrades to full latency.
        assert_eq!(out.latency_first_k(99), out.full_latency());
    }

    #[test]
    fn empty_target_set() {
        let net = net();
        let out = broadcast_round(&net, n(0), [], 10, 10, "t");
        assert_eq!(out.reply_count(), 0);
        assert_eq!(out.latency_first_k(1), SimDuration::ZERO);
        assert_eq!(out.full_latency(), SimDuration::ZERO);
    }

    #[test]
    fn a_large_round_spills_in_the_same_order() {
        // Past the inline capacity, a round holds what a collected `Vec`
        // of the same exchanges, sorted by (rtt, node), holds.
        let lan = || Network::new(deceit_net::LatencyModel::lan(), 11);
        let members: Vec<NodeId> = (0..6).map(n).collect();
        let out = broadcast_round(&lan(), n(0), members.clone(), 10, 10, "t");
        let twin = lan();
        let mut want: Vec<(NodeId, SimDuration)> = vec![(n(0), SimDuration::from_micros(10))];
        for &m in &members[1..] {
            let deceit_net::Delivery::Delivered(rtt) = twin.exchange(n(0), m, 10, 10, "t") else {
                panic!("{m:?} unreachable on a healthy LAN");
            };
            want.push((m, rtt));
        }
        want.sort_by_key(|&(n, d)| (d, n));
        assert_eq!(&out.replies[..], &want[..]);
        assert_eq!(out.reply_count(), 6);
        assert!(members.iter().all(|&m| out.heard_from(m)));
        assert_eq!(out.full_latency(), want[5].1);
        assert_eq!(out.latency_first_k(5), want[4].1);
    }

    #[test]
    fn partitioned_members_fail() {
        let mut net = net();
        net.split(&[&[n(0), n(1)], &[n(2), n(3)]]);
        let out = broadcast_round(&net, n(0), [n(1), n(2), n(3)], 10, 10, "t");
        assert_eq!(out.responders(), vec![n(1)]);
        assert_eq!(out.unreachable, vec![n(2), n(3)]);
    }
}
