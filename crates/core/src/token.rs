//! Write tokens.
//!
//! §3.3: "A write-token is associated with each file group. Only a server
//! that holds the token is allowed to distribute updates to the
//! corresponding file group." §3.5 adds: "A version pair is stored with
//! each write token" and the token holder "always has an upper bound on
//! the total number of replicas".

use std::collections::BTreeSet;

use deceit_net::NodeId;
use deceit_storage::StoredSize;

use crate::version::VersionPair;

/// The write token for one version (major) of one segment.
///
/// Stored in non-volatile memory at the holding server (§3.5: "each server
/// stores all state information relating to each token that is held").
#[derive(Debug, PartialEq, Eq)]
pub struct WriteToken {
    /// "The token version pair can be compared to a replica version pair
    /// to quickly decide if a replica has received every update through
    /// that token."
    pub version: VersionPair,
    /// Whether the token is currently enabled. Under write availability
    /// "medium", "a token becomes disabled if the majority of the replicas
    /// becomes unavailable" (§4).
    pub enabled: bool,
    /// The replica holders known to the token holder. Its size is the
    /// holder's upper bound on the replica count, used in the majority
    /// computation of §3.5.
    pub holders: BTreeSet<NodeId>,
}

impl Clone for WriteToken {
    fn clone(&self) -> Self {
        WriteToken { version: self.version, enabled: self.enabled, holders: self.holders.clone() }
    }

    /// Mirroring a token whose holder set did not change — every update's
    /// version advance into the durable side of its store — copies two
    /// words and leaves the set's allocation alone.
    fn clone_from(&mut self, source: &Self) {
        self.version = source.version;
        self.enabled = source.enabled;
        if self.holders != source.holders {
            self.holders.clone_from(&source.holders);
        }
    }
}

impl WriteToken {
    /// A fresh token for a new file version with one initial replica.
    pub fn new(version: VersionPair, first_holder: NodeId) -> Self {
        let mut holders = BTreeSet::new();
        holders.insert(first_holder);
        WriteToken { version, enabled: true, holders }
    }

    /// The holder's upper bound on the number of replicas (§3.5: "the
    /// total number of replicas is taken to be the maximum of the minimum
    /// replica level and the upper bound").
    pub fn replica_upper_bound(&self) -> usize {
        self.holders.len()
    }

    /// Total replicas assumed for majority computations.
    pub fn assumed_total(&self, min_replicas: usize) -> usize {
        self.replica_upper_bound().max(min_replicas)
    }

    /// Number of available replicas that constitutes a majority.
    pub fn majority(&self, min_replicas: usize) -> usize {
        crate::params::FileParams::majority_of(self.assumed_total(min_replicas))
    }
}

impl StoredSize for WriteToken {
    fn stored_size(&self) -> usize {
        32 + 8 * self.holders.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    #[test]
    fn new_token_starts_enabled_with_one_holder() {
        let t = WriteToken::new(VersionPair::initial(3), n(0));
        assert!(t.enabled);
        assert_eq!(t.replica_upper_bound(), 1);
        assert_eq!(t.version, VersionPair { major: 3, sub: 0 });
    }

    #[test]
    fn majority_uses_max_of_bound_and_level() {
        let mut t = WriteToken::new(VersionPair::initial(0), n(0));
        t.holders.insert(n(1));
        t.holders.insert(n(2));
        // Upper bound 3, min level 1 → total 3 → majority 2.
        assert_eq!(t.majority(1), 2);
        // Min level 5 dominates the bound → total 5 → majority 3.
        assert_eq!(t.majority(5), 3);
        assert_eq!(t.assumed_total(5), 5);
    }

    #[test]
    fn clone_from_copies_every_field() {
        let mut src = WriteToken::new(VersionPair { major: 2, sub: 9 }, n(0));
        src.holders.insert(n(4));
        src.enabled = false;
        let mut dst = WriteToken::new(VersionPair::initial(0), n(1));
        dst.clone_from(&src);
        assert_eq!(dst, src);
        src.version = src.version.bump();
        dst.clone_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn stored_size_grows_with_holders() {
        let mut t = WriteToken::new(VersionPair::initial(0), n(0));
        let s1 = t.stored_size();
        t.holders.insert(n(1));
        assert!(t.stored_size() > s1);
    }
}
