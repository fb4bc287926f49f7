//! Failure detection coordinated with communication.
//!
//! §3 (footnote 7): "A replica at server b is available to a if a can
//! communicate with b. ISIS provides a clean notion of availability since
//! failure detection is coordinated with communication." There is no
//! separate heartbeat subsystem: a peer becomes *suspected* exactly when a
//! message to it goes unanswered, and *trusted* again exactly when
//! communication succeeds. [`FailureDetector`] keeps that per-observer
//! suspicion state and feeds the availability decisions in the token and
//! replica protocols.

use std::collections::BTreeSet;

use deceit_net::NodeId;

use crate::bcast::BcastOutcome;

/// One server's view of which peers are currently suspected.
#[derive(Debug, Clone, Default)]
pub struct FailureDetector {
    suspected: BTreeSet<NodeId>,
    /// Cumulative suspicion events, for diagnostics.
    pub suspicion_events: u64,
}

impl FailureDetector {
    /// A detector that trusts everyone.
    pub fn new() -> Self {
        FailureDetector::default()
    }

    /// Records the outcome of a communication attempt with one peer.
    pub fn observe(&mut self, peer: NodeId, reachable: bool) {
        if reachable {
            self.suspected.remove(&peer);
        } else if self.suspected.insert(peer) {
            self.suspicion_events += 1;
        }
    }

    /// Folds a whole broadcast round into the suspicion state.
    pub fn observe_round(&mut self, outcome: &BcastOutcome) {
        for (n, _) in outcome.replies.iter() {
            self.observe(*n, true);
        }
        for n in &outcome.unreachable {
            self.observe(*n, false);
        }
    }

    /// Whether `peer` is currently suspected of having failed.
    pub fn is_suspected(&self, peer: NodeId) -> bool {
        self.suspected.contains(&peer)
    }

    /// Currently suspected peers.
    pub fn suspected(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.suspected.iter().copied()
    }

    /// Filters `peers` down to the ones currently trusted.
    pub fn trusted_subset(&self, peers: impl IntoIterator<Item = NodeId>) -> Vec<NodeId> {
        peers.into_iter().filter(|p| !self.is_suspected(*p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deceit_sim::{InlineVec, SimDuration};

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    #[test]
    fn suspicion_follows_communication() {
        let mut fd = FailureDetector::new();
        assert!(!fd.is_suspected(n(1)));
        fd.observe(n(1), false);
        assert!(fd.is_suspected(n(1)));
        fd.observe(n(1), true);
        assert!(!fd.is_suspected(n(1)));
        assert_eq!(fd.suspicion_events, 1);
    }

    #[test]
    fn repeat_suspicion_counts_once() {
        let mut fd = FailureDetector::new();
        fd.observe(n(1), false);
        fd.observe(n(1), false);
        assert_eq!(fd.suspicion_events, 1);
    }

    #[test]
    fn observe_round_folds_outcome() {
        let mut fd = FailureDetector::new();
        let mut replies = InlineVec::default();
        replies.push((n(1), SimDuration::from_micros(5)));
        let outcome = BcastOutcome { replies, unreachable: vec![n(2), n(3)] };
        fd.observe_round(&outcome);
        assert!(!fd.is_suspected(n(1)));
        assert!(fd.is_suspected(n(2)));
        assert!(fd.is_suspected(n(3)));
        assert_eq!(fd.suspected().collect::<Vec<_>>(), vec![n(2), n(3)]);
        assert_eq!(fd.trusted_subset([n(1), n(2), n(3)]), vec![n(1)]);
    }
}
