//! Stability notification (§3.4).
//!
//! "Deceit provides global one-copy serializability with a stability
//! notification mechanism. Before a file can be modified, all members of
//! the file group are notified that the file is unstable. All available
//! replicas must be so notified before any updates can occur. … After
//! stability notification, all file reads and inquiries are forwarded to
//! the token holder. … After a short period of no write activity, the
//! token holder notifies all other members of the group that the file is
//! stable again."

use deceit_isis::broadcast_round;
use deceit_net::NodeId;
use deceit_sim::SimDuration;
use deceit_storage::Durability;

use crate::cluster::Cluster;
use crate::event::Pending;
use crate::obs::Stat;
use crate::replica::ReplicaState;
use crate::server::{ReplicaKey, ServerSlot};
use crate::trace_events::ProtocolEvent;
use crate::version::VersionPair;

impl Cluster {
    /// Marks the file group unstable before a write stream begins.
    ///
    /// This is the overhead "incurred at the beginning … of a stream of
    /// updates" (§3.4): one full synchronous round — every available
    /// replica must acknowledge before any update may be distributed.
    pub(crate) fn mark_unstable_round(&self, holder: NodeId, key: ReplicaKey) -> SimDuration {
        let members: Vec<NodeId> =
            self.group_members(key.0).map(|(_, m)| m).unwrap_or_else(|| vec![holder]);
        let remote: Vec<NodeId> = members.into_iter().filter(|&m| m != holder).collect();
        let outcome = broadcast_round(&self.net, holder, remote, 40, 16, "mark-unstable");
        let mut acks = 1; // the holder itself
        for (m, _) in outcome.replies.iter() {
            if self.set_replica_state(*m, key, ReplicaState::Unstable) {
                acks += 1;
            }
        }
        let changed = self.server(holder).visit(key.0, move |s| {
            s.streams.entry(key).or_default().group_unstable = true;
            set_state(s, &key, ReplicaState::Unstable)
        });
        if changed == Some(true) {
            self.schedule_flush(holder, key.0);
        }
        self.obs.bump(Stat::UnstableRounds);
        self.emit_from(holder, ProtocolEvent::MarkedUnstable { seg: key.0, acks });
        outcome.full_latency()
    }

    /// The deferred stabilize check: if the write stream has been quiet
    /// for the stability timeout, mark the group stable again. A stream
    /// keeps exactly one check in flight: a firing that finds newer
    /// writes re-arms itself at the newest quiet horizon instead of
    /// relying on a trail of per-write checks.
    pub(crate) fn stabilize_check(&self, holder: NodeId, key: ReplicaKey, epoch: u64) {
        if !self.net.is_up(holder) {
            return; // stream state died with the crash; nothing to clear
        }
        // One visit reads the stream and the token: `Err` re-arms a
        // check, `Ok` says whether the stream is over with the token here.
        let step = self.server(holder).visit(key.0, move |s| {
            let stream = s.streams.get_mut(&key)?;
            // Newer writes landed since this check was scheduled: keep
            // the one pending check, moved out to the stream's new quiet
            // horizon.
            if stream.group_unstable && stream.epoch != epoch {
                return Some(Err((stream.last_write, stream.epoch)));
            }
            stream.check_scheduled = false;
            Some(Ok(stream.group_unstable && s.tokens.disk().contains(&key)))
        });
        match step {
            Some(Err((last_write, epoch))) => self.events.push(
                last_write + self.cfg.stability_timeout,
                Pending::StabilizeCheck { server: holder, key, epoch },
            ),
            Some(Ok(true)) => self.mark_stable_round(holder, key),
            Some(Ok(false)) | None => {}
        }
    }

    /// The §3.4 stabilize round: every member that replies is brought to
    /// the token's version and marked stable by [`Self::stabilize_member`]
    /// (a laggard is caught up from the holder's replica), then the holder
    /// closes its stream.
    pub(crate) fn mark_stable_round(&self, holder: NodeId, key: ReplicaKey) {
        let Some(token_version) = self.token_version(holder, key) else {
            return;
        };
        let members: Vec<NodeId> =
            self.group_members(key.0).map(|(_, m)| m).unwrap_or_else(|| vec![holder]);
        let remote: Vec<NodeId> = members.into_iter().filter(|&m| m != holder).collect();
        let outcome = broadcast_round(&self.net, holder, remote, 40, 16, "mark-stable");
        for &(m, _) in outcome.replies.iter() {
            self.stabilize_member(holder, m, key, token_version);
        }
        // The holder's end, in one visit: the stream is over, so its read
        // lease is retired — before the stable marker, which routes the
        // holder's reads through the ordinary fast path and leaves the
        // lease nothing to assert — and the stream marked stable.
        let (revoked, changed) = self.server(holder).visit(key.0, move |s| {
            let revoked = s.unlease(key).revoked();
            let changed = set_state(s, &key, ReplicaState::Stable);
            if let Some(stream) = s.streams.get_mut(&key) {
                stream.group_unstable = false;
            }
            (revoked, changed)
        });
        if changed == Some(true) {
            self.schedule_flush(holder, key.0);
        }
        self.lease_revoked(holder, key.0, revoked);
        self.obs.bump(Stat::StableRounds);
        self.emit_from(holder, ProtocolEvent::MarkedStable { seg: key.0 });
    }

    /// One member's share of the §3.4 stabilize step: brings `m`'s replica
    /// of `key` to `version` and marks it stable. A member already at
    /// `version` is marked where it lies (`Some(moved)`, flushed only if
    /// the marker moved); a laggard is caught up by a state transfer of
    /// `source`'s copy, which must itself be at `version`, and installed
    /// stable (`Some(true)`). `None`: `m` holds no replica, or the
    /// catch-up could not be made — nothing changed.
    pub(crate) fn stabilize_member(
        &self,
        source: NodeId,
        m: NodeId,
        key: ReplicaKey,
        version: VersionPair,
    ) -> Option<bool> {
        let marked = self.server(m).visit(key.0, move |s| {
            let current = s.replicas.disk().get(&key)?.version == version;
            Some(current.then(|| set_state(s, &key, ReplicaState::Stable) == Some(true)))
        })?;
        if let Some(moved) = marked {
            if moved {
                self.schedule_flush(m, key.0);
            }
            return Some(moved);
        }
        let src = self.server(source).visit(key.0, move |s| {
            s.replicas.disk().get(&key).filter(|r| r.version == version).cloned()
        })?;
        let (mut fresh, _) = self.ship_replica(source, m, src)?;
        fresh.state = ReplicaState::Stable;
        self.install_replica(m, key, fresh);
        Some(true)
    }

    /// Sets a replica's stability marker (asynchronously durable — the
    /// marker is metadata written behind, §3.5, and only when it moves).
    /// Returns whether the server held a replica. One read-modify-write
    /// in place under the slot lock.
    pub(crate) fn set_replica_state(
        &self,
        server: NodeId,
        key: ReplicaKey,
        state: ReplicaState,
    ) -> bool {
        let changed = self.server(server).visit(key.0, move |s| set_state(s, &key, state));
        if changed == Some(true) {
            self.schedule_flush(server, key.0);
        }
        changed.is_some()
    }

    /// Whether `holder` has an active write stream on `key`: the group is
    /// marked unstable for it.
    pub(crate) fn streaming(&self, holder: NodeId, key: ReplicaKey) -> bool {
        self.server(holder)
            .visit(key.0, move |s| s.streams.get(&key).is_some_and(|s| s.group_unstable))
    }
}

/// Sets the stability marker of `key`'s replica in `s`, in place: written
/// behind, and only when it moves. `Some(moved)`, or `None` without a
/// replica.
fn set_state(s: &mut ServerSlot, key: &ReplicaKey, state: ReplicaState) -> Option<bool> {
    let out = s.replicas.update_with(key, |replica| {
        let changed = replica.state != state;
        replica.state = state;
        (changed, changed.then_some(Durability::Async))
    });
    out.map(|(changed, _)| changed)
}
