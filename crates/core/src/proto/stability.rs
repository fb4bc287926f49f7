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
use crate::server::ReplicaKey;
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
        self.set_replica_state(holder, key, ReplicaState::Unstable);
        self.server(holder).streams.with_or_insert(key, Default::default, |stream| {
            stream.group_unstable = true;
        });
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
        let clear_scheduled = || {
            self.server(holder).streams.with(&key, |s| {
                if let Some(s) = s {
                    s.check_scheduled = false;
                }
            });
        };
        if !self.net.is_up(holder) {
            return; // stream state died with the crash; nothing to clear
        }
        let Some(stream) = self.server(holder).streams.get(&key) else {
            return;
        };
        if !stream.group_unstable {
            clear_scheduled();
            return;
        }
        // Newer writes landed since this check was scheduled: keep the
        // one pending check, moved out to the stream's new quiet horizon.
        if stream.epoch != epoch {
            self.events.push(
                stream.last_write + self.cfg.stability_timeout,
                Pending::StabilizeCheck { server: holder, key, epoch: stream.epoch },
            );
            return;
        }
        clear_scheduled();
        if !self.server(holder).holds_token(key) {
            return;
        }
        self.mark_stable_round(holder, key);
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
            let Some(replica_version) =
                self.server(m).replicas.with_ref(&key, |r| r.map(|r| r.version))
            else {
                continue;
            };
            if replica_version == token_version {
                self.set_replica_state(m, key, ReplicaState::Stable);
            } else {
                // Missed updates (e.g. unreachable during part of the
                // stream): catch up from the primary, then stabilize.
                let src = self.server(holder).replicas.get(&key);
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
                    // lint: allow(lease-discipline): this writes a *peer's* (`m`'s) replica to catch it up; the holder's lease — the only one this round can invalidate — guards the holder's replica, which stays untouched until the stable marker below
                    self.server(m).replicas.put_sync(key, fresh);
                    self.server(m).drop_receiver(&key);
                }
            }
        }
        self.set_replica_state(holder, key, ReplicaState::Stable);
        // The stream is over: retire its read lease. The stable marker
        // set above already routes the holder's reads through the
        // ordinary fast path, so the lease has nothing left to assert.
        if self.server(holder).leases.remove(&key).is_some() {
            self.emit_from(holder, ProtocolEvent::LeaseRevoked { seg: key.0, on: holder });
        }
        self.server(holder).streams.with(&key, |stream| {
            if let Some(stream) = stream {
                stream.group_unstable = false;
            }
        });
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
        let changed = self.server(server).replicas.update_with(&key, |replica| {
            let changed = replica.state != state;
            replica.state = state;
            (changed, changed.then_some(Durability::Async))
        });
        if changed == Some(true) {
            self.schedule_flush(server, key.0);
        }
        changed.is_some()
    }
}
