//! Error types for the segment server.

use std::fmt;

use deceit_net::NodeId;

use crate::server::SegmentId;
use crate::version::VersionPair;

/// Everything that can go wrong in a segment-server operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeceitError {
    /// The segment does not exist (never created, deleted, or no replica
    /// reachable from the serving server).
    NoSuchSegment(SegmentId),
    /// The requested major version of the segment does not exist or is not
    /// reachable.
    NoSuchVersion(SegmentId, u64),
    /// The server handling the request is crashed (client should fail
    /// over).
    ServerDown(NodeId),
    /// No replica of the segment is reachable from the serving server.
    Unavailable(SegmentId),
    /// A write token could not be acquired or generated, e.g. availability
    /// "medium" without a reachable majority, or "low" with the token lost
    /// (§3.5, §4).
    WriteUnavailable(SegmentId),
    /// A conditional write found a different version pair than expected —
    /// the optimistic-concurrency conflict of §5.1 ("similar to a
    /// transaction which has been aborted").
    VersionConflict {
        /// Segment being written.
        segment: SegmentId,
        /// What the writer expected.
        expected: VersionPair,
        /// What the segment actually carried.
        actual: VersionPair,
    },
    /// The write would grow the segment past `storage::MAX_SEGMENT`;
    /// refused before any token, version or replica changed.
    SegmentTooBig(SegmentId),
    /// The operation addressed a server outside the cluster.
    NoSuchServer(NodeId),
    /// A point-to-point exchange with a peer failed mid-operation (crash
    /// or partition between rounds).
    PeerUnreachable(NodeId),
    /// An administrative command was invalid (e.g. deleting the last
    /// replica, or targeting a server without one).
    InvalidCommand(String),
}

impl fmt::Display for DeceitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeceitError::NoSuchSegment(s) => write!(f, "no such segment {s}"),
            DeceitError::NoSuchVersion(s, v) => write!(f, "segment {s} has no version {v}"),
            DeceitError::ServerDown(n) => write!(f, "server {n} is down"),
            DeceitError::Unavailable(s) => write!(f, "no replica of {s} is reachable"),
            DeceitError::WriteUnavailable(s) => {
                write!(f, "segment {s} is not writable (token unavailable)")
            }
            DeceitError::VersionConflict { segment, expected, actual } => write!(
                f,
                "conditional write conflict on {segment}: expected {expected}, found {actual}"
            ),
            DeceitError::SegmentTooBig(s) => {
                write!(f, "write would grow segment {s} past the segment size limit")
            }
            DeceitError::NoSuchServer(n) => write!(f, "no such server {n}"),
            DeceitError::PeerUnreachable(n) => write!(f, "peer {n} became unreachable"),
            DeceitError::InvalidCommand(m) => write!(f, "invalid command: {m}"),
        }
    }
}

impl std::error::Error for DeceitError {}

/// Convenience alias used across the crate.
pub type DeceitResult<T> = Result<T, DeceitError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let seg = SegmentId(4);
        assert!(DeceitError::NoSuchSegment(seg).to_string().contains("seg4"));
        assert!(DeceitError::ServerDown(NodeId(2)).to_string().contains("n2"));
        let conflict = DeceitError::VersionConflict {
            segment: seg,
            expected: VersionPair { major: 0, sub: 1 },
            actual: VersionPair { major: 0, sub: 2 },
        };
        let s = conflict.to_string();
        assert!(s.contains("(0,1)") && s.contains("(0,2)"), "{s}");
    }

    #[test]
    fn error_trait_object_usable() {
        let e: Box<dyn std::error::Error> = Box::new(DeceitError::Unavailable(SegmentId(1)));
        assert!(e.to_string().contains("seg1"));
    }
}
