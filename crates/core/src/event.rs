//! Deferred actions driven by the cluster's event queue.

use deceit_net::NodeId;

use crate::ops::UpdateRecord;
use crate::server::ReplicaKey;

/// One pending deferred action.
#[derive(Debug, Clone, PartialEq)]
pub enum Pending {
    /// Apply a received update at a replica (write-behind propagation: the
    /// replica acknowledged receipt at broadcast time and applies here).
    ApplyUpdate {
        /// Server applying the update.
        server: NodeId,
        /// Replica (segment, major) the update belongs to.
        key: ReplicaKey,
        /// The update itself.
        update: UpdateRecord,
    },
    /// Flush a server's asynchronously written local state to disk —
    /// the shard slice of the segment that dirtied it.
    FlushServer {
        /// Server to flush.
        server: NodeId,
        /// The segment whose mutation scheduled the flush; attributes
        /// the work to that file's shard, so it drains under the same
        /// locks the mutation held.
        seg: crate::server::SegmentId,
    },
    /// Check whether the write stream on a file has gone quiet and, if so,
    /// mark the group stable (§3.4).
    StabilizeCheck {
        /// Token holder performing the check.
        server: NodeId,
        /// Replica (segment, major) under consideration.
        key: ReplicaKey,
        /// Write-stream epoch at scheduling time; a newer write bumps the
        /// epoch and invalidates this check.
        epoch: u64,
    },
    /// Ship the file's buffered outbound updates to the rest of its file
    /// group in one batched broadcast — the drain half of the
    /// asynchronous write pipeline (`ClusterConfig::opt_write_pipeline`).
    /// Consecutive updates buffered between drains ride one message.
    PropagateStream {
        /// The server whose outbound buffer holds the updates (the token
        /// holder at buffering time; still a valid source if the token
        /// has since moved, because buffered updates are committed).
        holder: NodeId,
        /// Replica (segment, major) the stream belongs to.
        key: ReplicaKey,
    },
    /// Targeted per-file read-repair (`ClusterConfig::opt_read_repair`):
    /// catch one lagging, unstable replica up from the durable primary —
    /// scheduled by a read that had to forward around it, so the next
    /// reads can be served locally instead of forwarding until the next
    /// stabilize round happens to cover the laggard.
    ReadRepair {
        /// The lagging server to catch up (the repair dies with it).
        server: NodeId,
        /// Replica (segment, major) to repair.
        key: ReplicaKey,
    },
    /// Background replica generation via blast transfer (§3.1).
    GenerateReplica {
        /// Token holder driving the generation.
        holder: NodeId,
        /// Replica (segment, major) to copy.
        key: ReplicaKey,
        /// Destination server.
        target: NodeId,
        /// Set when a forwarded read of a `migration`-marked file
        /// scheduled it (§3.1 method 4): an install that lands counts as
        /// a migration executed.
        migration: bool,
    },
}

impl Pending {
    /// The server whose crash would cancel this action.
    pub fn owner(&self) -> NodeId {
        match self {
            Pending::ApplyUpdate { server, .. }
            | Pending::FlushServer { server, .. }
            | Pending::StabilizeCheck { server, .. }
            | Pending::ReadRepair { server, .. } => *server,
            Pending::PropagateStream { holder, .. } | Pending::GenerateReplica { holder, .. } => {
                *holder
            }
        }
    }

    /// Whether the live pump must wait for this action's due time.
    /// Ordinary deferred work (write-back, replica generation — a §3.1
    /// migration toward a reader included — and eager lazy applies) is
    /// valid at any later point, so a live pump may fire it the moment
    /// it has capacity. Three kinds wait:
    ///
    /// * a stability check asserts a *time condition* — "a short period
    ///   of no write activity" (§3.4) — and fired early it would declare
    ///   a busy stream quiet, thrashing stable/unstable round pairs;
    /// * a pipeline drain's due time *is the batching window* — fired
    ///   the instant it is queued, every batch degenerates to one
    ///   update and the pipeline ships one broadcast per write again;
    /// * a read-repair's due time is its damping window: fired the
    ///   instant a forwarded read queues it, a still-active stream makes
    ///   it a no-op and the next read re-queues it — a schedule/fire spin
    ///   in place of the single deferred catch-up it is meant to be.
    ///
    /// The match is exhaustive on purpose, and clippy denies a `_ =>`
    /// arm here, whether it covers several variants or one: adding a
    /// `Pending` variant must not compile until its gating is decided
    /// here explicitly.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub fn due_gated(&self) -> bool {
        match self {
            Pending::StabilizeCheck { .. }
            | Pending::PropagateStream { .. }
            | Pending::ReadRepair { .. } => true,
            Pending::ApplyUpdate { .. }
            | Pending::FlushServer { .. }
            | Pending::GenerateReplica { .. } => false,
        }
    }

    /// The shard key this action belongs to, for per-shard pumping and
    /// queue routing: the segment it operates on. Every deferred action
    /// is per-file (flushes carry the segment that dirtied them), so a
    /// host holding one file's shard locks can fire exactly the deferred
    /// work those locks cover.
    pub fn shard_hint(&self) -> u64 {
        match self {
            Pending::ApplyUpdate { key, .. }
            | Pending::StabilizeCheck { key, .. }
            | Pending::PropagateStream { key, .. }
            | Pending::ReadRepair { key, .. }
            | Pending::GenerateReplica { key, .. } => key.0 .0,
            Pending::FlushServer { seg, .. } => seg.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::WriteOp;
    use crate::server::SegmentId;
    use crate::version::VersionPair;

    #[test]
    fn owner_identifies_cancellation_target() {
        let key = (SegmentId(1), 0u64);
        let apply = Pending::ApplyUpdate {
            server: NodeId(3),
            key,
            update: UpdateRecord {
                new_version: VersionPair { major: 0, sub: 1 },
                op: WriteOp::Truncate(0),
            },
        };
        assert_eq!(apply.owner(), NodeId(3));
        let flush = Pending::FlushServer { server: NodeId(1), seg: SegmentId(4) };
        assert_eq!(flush.owner(), NodeId(1));
        assert_eq!(flush.shard_hint(), 4, "flushes shard by the segment that dirtied them");
        let migrate =
            Pending::GenerateReplica { holder: NodeId(2), key, target: NodeId(4), migration: true };
        assert_eq!(migrate.owner(), NodeId(2), "a generation dies with its source");
        assert!(!migrate.due_gated(), "a migration is ordinary deferred work");
        assert_eq!(migrate.shard_hint(), 1);
    }
}
