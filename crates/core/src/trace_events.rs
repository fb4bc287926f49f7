//! Structured protocol events, used to regenerate Table 1.
//!
//! Table 1 of the paper ("Typical Sequence of Events in an Update"):
//!
//! | Precondition                         | Action                  |
//! |--------------------------------------|-------------------------|
//! | token is not held                    | acquire token           |
//! | replicas are not marked as unstable  | mark replicas as unstable |
//! | true                                 | distributed update      |
//! | failure detected                     | count update replies    |
//! | insufficient replicas                | generate new replicas   |
//! | period of no write activity          | mark replicas as stable |
//!
//! Every protocol path emits these events into the acting server's ring
//! of the cluster's [`crate::obs::FlightRecorder`]; the `table1` test and
//! harness read one update's events back, merged across servers in
//! protocol time ([`crate::obs::FlightRecorder::since`]), and assert the
//! sequence.

use deceit_net::NodeId;

use crate::server::SegmentId;

/// One protocol-level event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// A server acquired the write token (via request/pass round).
    TokenAcquired {
        /// Segment involved.
        seg: SegmentId,
        /// New holder.
        server: NodeId,
        /// Previous holder it was passed from.
        from: NodeId,
    },
    /// A brand-new token (new major version) was generated (§3.5).
    TokenGenerated {
        /// Segment involved.
        seg: SegmentId,
        /// Generating server.
        server: NodeId,
        /// The new major version number.
        major: u64,
    },
    /// The holder marked the file group unstable (§3.4).
    MarkedUnstable {
        /// Segment involved.
        seg: SegmentId,
        /// How many replicas acknowledged the notification.
        acks: usize,
    },
    /// An update was distributed to the file group (§3.2).
    UpdateDistributed {
        /// Segment involved.
        seg: SegmentId,
        /// The subversion (total-order sequence) of the update.
        sub: u64,
        /// Group members the update was sent to (excluding the holder).
        group_size: usize,
    },
    /// The holder counted correct replies to an update broadcast (§3.1
    /// method 1 trigger).
    RepliesCounted {
        /// Segment involved.
        seg: SegmentId,
        /// Correct replies observed.
        replies: usize,
        /// The minimum replica level in force.
        needed: usize,
    },
    /// A new replica was generated (§3.1, any of the four methods).
    ReplicaGenerated {
        /// Segment involved.
        seg: SegmentId,
        /// Server the replica now lives on.
        on: NodeId,
    },
    /// An extra or obsolete replica was deleted.
    ReplicaDeleted {
        /// Segment involved.
        seg: SegmentId,
        /// Server the replica was removed from.
        on: NodeId,
    },
    /// The holder marked the file group stable after write inactivity.
    MarkedStable {
        /// Segment involved.
        seg: SegmentId,
    },
    /// A read was forwarded to another server (no local replica, or local
    /// replica unstable).
    ReadForwarded {
        /// Segment involved.
        seg: SegmentId,
        /// Server that received the client request.
        from: NodeId,
        /// Server that satisfied it.
        to: NodeId,
    },
    /// A small update was passed to the token holder instead of moving
    /// the token (§3.3 optimization 2, `ClusterConfig::opt_forward_small`).
    UpdateForwarded {
        /// Segment involved.
        seg: SegmentId,
        /// Server that received the client request.
        from: NodeId,
        /// The token holder that distributed it.
        to: NodeId,
    },
    /// Two incomparable versions were detected (§3.6 "The hard case"); the
    /// conflict is logged for the user to resolve.
    ConflictLogged {
        /// Segment involved.
        seg: SegmentId,
        /// The incomparable major version numbers.
        majors: (u64, u64),
    },
    /// A lagging replica was caught up from the durable primary by a
    /// read-scheduled repair (`ClusterConfig::opt_read_repair`).
    ReadRepaired {
        /// Segment involved.
        seg: SegmentId,
        /// The repaired (formerly lagging) server.
        on: NodeId,
    },
    /// An obsolete version/replica was destroyed during recovery (§3.6).
    ObsoleteDestroyed {
        /// Segment involved.
        seg: SegmentId,
        /// Server that destroyed its replica.
        on: NodeId,
        /// The major version destroyed.
        major: u64,
    },
    /// The pump drained an outbound pipeline stream: a buffered batch of
    /// updates was propagated to the file group in one firing
    /// (`ClusterConfig::opt_write_pipeline`).
    StreamDrained {
        /// Segment involved.
        seg: SegmentId,
        /// Updates shipped in this batch.
        updates: usize,
        /// Reachable group members the batch was applied to.
        group_size: usize,
    },
    /// The holder granted itself a read lease on an unstable primary
    /// (`ClusterConfig::opt_read_leases`): lock-free reads may now serve
    /// the acked durable prefix.
    LeaseGranted {
        /// Segment involved.
        seg: SegmentId,
        /// The server holding the lease (the token holder).
        on: NodeId,
    },
    /// A read lease was revoked — the token moved, the round stabilized,
    /// or the replica was destroyed — closing the lock-free window.
    LeaseRevoked {
        /// Segment involved.
        seg: SegmentId,
        /// The server whose lease ended.
        on: NodeId,
    },
    /// A crashed server began §3.6 recovery.
    RecoveryStarted {
        /// The recovering server.
        server: NodeId,
    },
    /// A server completed §3.6 recovery and rejoined the cell.
    RecoveryCompleted {
        /// The recovered server.
        server: NodeId,
    },
}

impl ProtocolEvent {
    /// The segment this event concerns, if it is segment-scoped
    /// (recovery start/completion are server-scoped).
    pub fn segment(&self) -> Option<SegmentId> {
        match self {
            ProtocolEvent::TokenAcquired { seg, .. }
            | ProtocolEvent::TokenGenerated { seg, .. }
            | ProtocolEvent::MarkedUnstable { seg, .. }
            | ProtocolEvent::UpdateDistributed { seg, .. }
            | ProtocolEvent::RepliesCounted { seg, .. }
            | ProtocolEvent::ReplicaGenerated { seg, .. }
            | ProtocolEvent::ReplicaDeleted { seg, .. }
            | ProtocolEvent::MarkedStable { seg }
            | ProtocolEvent::ReadForwarded { seg, .. }
            | ProtocolEvent::UpdateForwarded { seg, .. }
            | ProtocolEvent::ConflictLogged { seg, .. }
            | ProtocolEvent::ReadRepaired { seg, .. }
            | ProtocolEvent::ObsoleteDestroyed { seg, .. }
            | ProtocolEvent::StreamDrained { seg, .. }
            | ProtocolEvent::LeaseGranted { seg, .. }
            | ProtocolEvent::LeaseRevoked { seg, .. } => Some(*seg),
            ProtocolEvent::RecoveryStarted { .. } | ProtocolEvent::RecoveryCompleted { .. } => None,
        }
    }

    /// A short label matching the "Action" column of Table 1, when the
    /// event corresponds to one of its rows.
    pub fn table1_action(&self) -> Option<&'static str> {
        match self {
            ProtocolEvent::TokenAcquired { .. } | ProtocolEvent::TokenGenerated { .. } => {
                Some("acquire token")
            }
            ProtocolEvent::MarkedUnstable { .. } => Some("mark replicas as unstable"),
            ProtocolEvent::UpdateDistributed { .. } => Some("distributed update"),
            ProtocolEvent::RepliesCounted { .. } => Some("count update replies"),
            ProtocolEvent::ReplicaGenerated { .. } => Some("generate new replicas"),
            ProtocolEvent::MarkedStable { .. } => Some("mark replicas as stable"),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_labels() {
        let seg = SegmentId(1);
        let ev = ProtocolEvent::MarkedUnstable { seg, acks: 2 };
        assert_eq!(ev.table1_action(), Some("mark replicas as unstable"));
        assert_eq!(ev.segment(), Some(seg));
        let fwd = ProtocolEvent::ReadForwarded { seg, from: NodeId(0), to: NodeId(1) };
        assert_eq!(fwd.table1_action(), None);
        let upd = ProtocolEvent::UpdateForwarded { seg, from: NodeId(1), to: NodeId(0) };
        assert_eq!(upd.segment(), Some(seg));
        assert_eq!(upd.table1_action(), None, "a forward is not a Table 1 row");
        let rec = ProtocolEvent::RecoveryStarted { server: NodeId(0) };
        assert_eq!(rec.segment(), None, "recovery events are server-scoped");
        assert_eq!(rec.table1_action(), None);
    }
}
