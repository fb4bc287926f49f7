//! Replica generation and deletion (§3.1).
//!
//! "There are four ways that a replica can be generated:
//! 1. The token holder t may lose contact with a replica … If the number
//!    of replies drops below r, then t will create new replicas.
//! 2. If the minimum replica level is increased, t will create new
//!    replicas.
//! 3. A user may request the token holder t to create or delete a replica
//!    on a specific server with a special command.
//! 4. A server may request that a replica be generated in order to improve
//!    read performance \[migration\].
//!
//! "Eventually, there may exist several unneeded replicas of a file. The
//! token holder t will delete these extra replicas when an update occurs
//! instead of updating them. They are deleted in least-recently-used
//! order."

use deceit_net::NodeId;
use deceit_sim::SimDuration;
use std::sync::atomic::Ordering;

use crate::cluster::Cluster;
use crate::event::Pending;
use crate::obs::Stat;
use crate::replica::Replica;
use crate::server::ReplicaKey;
use crate::trace_events::ProtocolEvent;

impl Cluster {
    /// Schedules background replica generation until `key` meets its
    /// minimum replica level (methods 1 and 2; "as a background activity").
    pub(crate) fn schedule_min_replica_fill(&self, holder: NodeId, key: ReplicaKey) {
        let params = self.params_of(holder, key);
        let current = self.reachable_replica_holders(holder, key);
        if current.len() >= params.min_replicas {
            return;
        }
        let deficit = params.min_replicas - current.len();
        // Candidate servers: reachable, not yet holding a replica, lowest
        // load first (ops served is the only load signal we keep).
        let mut candidates: Vec<NodeId> = self
            .server_ids()
            .into_iter()
            .filter(|&s| {
                s != holder
                    && self.net.reachable(holder, s)
                    && self.replica_version(s, key).is_none()
            })
            .collect();
        candidates.sort_by_key(|&s| (self.server(s).ops_served.load(Ordering::Relaxed), s));
        let at = self.now() + SimDuration::from_millis(1);
        for target in candidates.into_iter().take(deficit) {
            self.events.push(at, Pending::GenerateReplica { holder, key, target });
        }
    }

    /// Synchronously fills the minimum replica level (used when the token
    /// holder itself notices the deficit with no failure in sight — e.g.
    /// right after the user raises the level, §3.1 method 2). Returns the
    /// number of replicas generated.
    pub(crate) fn fill_min_replicas_now(&self, holder: NodeId, key: ReplicaKey) -> usize {
        let params = self.params_of(holder, key);
        let mut generated = 0;
        loop {
            let current = self.reachable_replica_holders(holder, key);
            if current.len() >= params.min_replicas {
                return generated;
            }
            let candidate = self
                .server_ids()
                .into_iter()
                .filter(|&s| {
                    s != holder
                        && self.net.reachable(holder, s)
                        && self.replica_version(s, key).is_none()
                })
                .min_by_key(|&s| (self.server(s).ops_served.load(Ordering::Relaxed), s));
            let Some(target) = candidate else {
                return generated; // not enough servers available
            };
            self.generate_replica_now(holder, key, target);
            if self.replica_version(target, key).is_none() {
                return generated; // generation failed; stop trying
            }
            generated += 1;
        }
    }

    /// The deferred replica-generation handler: blast-transfers the file
    /// from `holder` to `target` (§3.1: "Replicas are generated with a
    /// file transfer protocol from an existing replica").
    ///
    /// "The token holder delays updates during replica generation to
    /// prevent inconsistency" — generation executes under the file's
    /// shard locks (the pump holds them when firing this handler), which
    /// realizes the same exclusion against that file's updates.
    pub(crate) fn generate_replica_now(&self, holder: NodeId, key: ReplicaKey, target: NodeId) {
        if !self.net.reachable(holder, target) {
            return;
        }
        let Some(src) = self.server(holder).visit(key.0, |s| s.replicas.disk.get(&key).cloned())
        else {
            return; // replica vanished (deleted or superseded)
        };
        if self.replica_version(target, key).is_some() {
            return; // raced with another fill
        }
        let blast = self.cfg.blast;
        let Some(_xfer) = deceit_isis::xfer::transfer_state(
            &self.net,
            &blast,
            holder,
            target,
            src.data.len() as u64,
            "replica-xfer",
        )
        .duration() else {
            return;
        };
        let replica = Replica::cloned_from(&src, self.now());
        self.server(target).visit(key.0, |s| {
            s.replicas.disk.put_sync(key, replica);
            s.receivers.remove(&key);
        });

        // Register the new holder with the token holder's upper bound
        // (§3.1: "All replica generation must be accomplished through the
        // token holder, so that the token holder always has an upper bound
        // on the total number of replicas").
        if let Some(th) = self.find_reachable_token_holder(holder, key) {
            self.update_holder_set(th, key, |holders| holders.insert(target));
        }
        if let Some((gid, _)) = self.group_members(key.0) {
            self.ensure_member(gid, target);
            self.server(target).visit(key.0, |s| s.group_cache.insert(key.0, gid));
        }
        self.obs.bump(Stat::ReplicasGenerated);
        self.emit_from(target, ProtocolEvent::ReplicaGenerated { seg: key.0, on: target });
    }

    /// Rewrites the holder set of the token `holder` stores for `key` —
    /// the §3.1 upper bound on the replica count — in place and
    /// write-behind (it is an upper bound: a crash that loses the rewrite
    /// leaves it an upper bound still, or a holder recovery re-adds).
    pub(crate) fn update_holder_set(
        &self,
        holder: NodeId,
        key: ReplicaKey,
        change: impl FnOnce(&mut std::collections::BTreeSet<NodeId>) -> bool,
    ) {
        let stored = self
            .server(holder)
            .visit(key.0, |s| s.tokens.disk.update_async(&key, |token| change(&mut token.holders)));
        if stored.is_some() {
            self.schedule_flush(holder, key.0);
        }
    }

    /// Deletes extra replicas in least-recently-used order at update time
    /// (§3.1). A replica is "extra" when the count exceeds the minimum
    /// replica level and it has not been accessed within the LRU window.
    pub(crate) fn delete_extra_replicas(&self, holder: NodeId, key: ReplicaKey) {
        let params = self.params_of(holder, key);
        let holders = self.reachable_replica_holders(holder, key);
        let now = self.now();
        let cutoff = self.cfg.lru_keep;
        // Candidates: not the token holder, idle beyond the window.
        let mut idle: Vec<(deceit_sim::SimTime, NodeId)> = holders
            .iter()
            .copied()
            .filter(|&h| h != holder)
            .filter_map(|h| {
                let last = self
                    .server(h)
                    .visit(key.0, |s| s.replicas.disk.get(&key).map(|r| r.last_access))?;
                let idle_for = now.since(last);
                (idle_for >= cutoff).then_some((last, h))
            })
            .collect();
        if idle.is_empty() {
            return;
        }
        idle.sort(); // oldest access first = LRU order
        let deletable = holders.len().saturating_sub(params.min_replicas);
        if deletable == 0 {
            // Idle candidates exist but retiring any would drop the file
            // below its replication floor — the floor wins, always.
            self.obs.bump(Stat::MigrationsVetoedFloor);
            return;
        }
        for (_, victim) in idle.into_iter().take(deletable) {
            self.server(victim).visit(key.0, |s| {
                s.replicas.disk.delete_sync(&key);
                s.receivers.remove(&key);
            });
            self.update_holder_set(holder, key, |holders| holders.remove(&victim));
            self.obs.bump(Stat::ReplicasRetired);
            self.emit_from(victim, ProtocolEvent::ReplicaDeleted { seg: key.0, on: victim });
        }
    }
}
