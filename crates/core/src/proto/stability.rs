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
        let changed = self.server(holder).visit(key.0, |s| {
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
        let step = self.server(holder).visit(key.0, |s| {
            let stream = s.streams.get_mut(&key)?;
            // Newer writes landed since this check was scheduled: keep
            // the one pending check, moved out to the stream's new quiet
            // horizon.
            if stream.group_unstable && stream.epoch != epoch {
                return Some(Err((stream.last_write, stream.epoch)));
            }
            stream.check_scheduled = false;
            Some(Ok(stream.group_unstable && s.tokens.disk.contains(&key)))
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

    /// Marks every reachable, caught-up replica stable; laggards are
    /// caught up with a state transfer first.
    pub(crate) fn mark_stable_round(&self, holder: NodeId, key: ReplicaKey) {
        let Some(token_version) = self.token_version(holder, key) else {
            return;
        };
        let members: Vec<NodeId> =
            self.group_members(key.0).map(|(_, m)| m).unwrap_or_else(|| vec![holder]);
        let remote: Vec<NodeId> = members.into_iter().filter(|&m| m != holder).collect();
        let outcome = broadcast_round(&self.net, holder, remote, 40, 16, "mark-stable");
        for &(m, _) in outcome.replies.iter() {
            // One visit marks a caught-up member stable where it lies:
            // `Some(moved)`; `None` for a laggard, caught up below.
            let marked = self.server(m).visit(key.0, |s| {
                let current = s.replicas.disk.get(&key)?.version == token_version;
                Some(current.then(|| set_state(s, &key, ReplicaState::Stable) == Some(true)))
            });
            let Some(marked) = marked else { continue }; // no replica
            if let Some(moved) = marked {
                if moved {
                    self.schedule_flush(m, key.0);
                }
                continue;
            }
            // Missed updates (e.g. unreachable during part of the stream):
            // catch up from the primary, then stabilize.
            let src = self.server(holder).visit(key.0, |s| s.replicas.disk.get(&key).cloned());
            if let Some(src) = src {
                let blast = self.cfg.blast;
                let _ = deceit_isis::xfer::transfer_state(
                    &self.net,
                    &blast,
                    holder,
                    m,
                    src.data.len() as u64,
                    "replica-xfer",
                );
                let now = self.now();
                let mut fresh = crate::replica::Replica::cloned_from(&src, now);
                fresh.state = ReplicaState::Stable;
                self.server(m).visit(key.0, |s| {
                    // lint: allow(lease-discipline): this writes a *peer's* (`m`'s) replica to catch it up; the holder's lease — the only one this round can invalidate — guards the holder's replica, which stays untouched until the holder's visit below
                    s.replicas.disk.put_sync(key, fresh);
                    s.receivers.remove(&key);
                });
            }
        }
        // The holder's end, in one visit: the stream is over, so its read
        // lease is retired — before the stable marker, which routes the
        // holder's reads through the ordinary fast path and leaves the
        // lease nothing to assert — and the stream marked stable.
        let (revoked, changed) = self.server(holder).visit(key.0, |s| {
            let revoked = s.leases.remove(&key).is_some();
            let changed = set_state(s, &key, ReplicaState::Stable);
            if let Some(stream) = s.streams.get_mut(&key) {
                stream.group_unstable = false;
            }
            (revoked, changed)
        });
        if changed == Some(true) {
            self.schedule_flush(holder, key.0);
        }
        if revoked {
            self.emit_from(holder, ProtocolEvent::LeaseRevoked { seg: key.0, on: holder });
        }
        self.obs.bump(Stat::StableRounds);
        self.emit_from(holder, ProtocolEvent::MarkedStable { seg: key.0 });
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
        let changed = self.server(server).visit(key.0, |s| set_state(s, &key, state));
        if changed == Some(true) {
            self.schedule_flush(server, key.0);
        }
        changed.is_some()
    }

    /// Whether `holder` has an active write stream on `key`: the group is
    /// marked unstable for it.
    pub(crate) fn streaming(&self, holder: NodeId, key: ReplicaKey) -> bool {
        self.server(holder).visit(key.0, |s| s.streams.get(&key).is_some_and(|s| s.group_unstable))
    }
}

/// Sets the stability marker of `key`'s replica in `s`, in place: written
/// behind, and only when it moves. `Some(moved)`, or `None` without a
/// replica.
fn set_state(s: &mut ServerSlot, key: &ReplicaKey, state: ReplicaState) -> Option<bool> {
    let out = s.replicas.disk.update_with(key, |replica| {
        let changed = replica.state != state;
        replica.state = state;
        (changed, changed.then_some(Durability::Async))
    });
    out.map(|(changed, _)| changed)
}
