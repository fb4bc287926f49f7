//! Replica state and metadata.

use deceit_sim::SimTime;
use deceit_storage::{SegmentData, StoredSize};

use crate::params::FileParams;
use crate::version::VersionPair;

/// The stability marker of one replica (§3.4).
///
/// "Before a file can be modified, all members of the file group are
/// notified that the file is unstable. … After a short period of no write
/// activity, the token holder notifies all other members of the group that
/// the file is stable again."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicaState {
    /// The replica is up to date and may serve reads locally.
    #[default]
    Stable,
    /// An update stream is (or may be) in progress; reads must be forwarded
    /// to the token holder (§3.4), and after a failure this marker is the
    /// signal that the replica may be inconsistent (§3.6).
    Unstable,
}

/// One non-volatile replica of one version of a segment (§3.5 lists its
/// required contents: "the actual data of the file, the replica state, and
/// the version pair").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replica {
    /// Version pair of the history this replica has applied.
    pub version: VersionPair,
    /// Stability marker.
    pub state: ReplicaState,
    /// Segment contents.
    pub data: SegmentData,
    /// Semantic parameters (replicated with the file so any server can
    /// answer `getparam` locally).
    pub params: FileParams,
    /// Last client access through this server — drives least-recently-used
    /// deletion of extra replicas (§3.1).
    pub last_access: SimTime,
}

impl Replica {
    /// A brand-new, empty, stable replica at the given initial version.
    pub fn new(major: u64, params: FileParams, now: SimTime) -> Self {
        Replica {
            version: VersionPair::initial(major),
            state: ReplicaState::Stable,
            data: SegmentData::new(),
            params,
            last_access: now,
        }
    }

    /// A copy of an existing replica (replica generation, §3.1: "File data
    /// is drawn from the existing available replica"). The two share the
    /// segment buffer until either is next written.
    pub fn cloned_from(other: &Replica, now: SimTime) -> Self {
        Replica { last_access: now, ..other.clone() }
    }

    /// Whether this replica may serve a read locally.
    pub fn is_stable(&self) -> bool {
        self.state == ReplicaState::Stable
    }
}

impl StoredSize for Replica {
    fn stored_size(&self) -> usize {
        // Data plus a small metadata record (version pair, state, params).
        self.data.stored_size() + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_replica_is_stable_and_empty() {
        let r = Replica::new(5, FileParams::default(), SimTime::ZERO);
        assert!(r.is_stable());
        assert_eq!(r.version, VersionPair { major: 5, sub: 0 });
        assert!(r.data.is_empty());
    }

    #[test]
    fn clone_preserves_contents_and_version() {
        let mut r = Replica::new(1, FileParams::important(2), SimTime::ZERO);
        r.data.append(b"body");
        r.version = r.version.bump();
        let t = SimTime::from_micros(99);
        let c = Replica::cloned_from(&r, t);
        assert_eq!(c.version, r.version);
        assert_eq!(c.data, r.data);
        assert_eq!(c.params, r.params);
        assert_eq!(c.last_access, t);
    }

    #[test]
    fn stored_size_includes_metadata() {
        let mut r = Replica::new(1, FileParams::default(), SimTime::ZERO);
        assert_eq!(r.stored_size(), 64);
        r.data.append(&[0u8; 100]);
        assert_eq!(r.stored_size(), 164);
    }
}
