//! Crash recovery and partition reconciliation (§3.6).

use deceit_net::NodeId;

use crate::cluster::{Cluster, ConflictRecord};
use crate::obs::Stat;
use crate::server::{ReplicaKey, SegmentId};
use crate::trace_events::ProtocolEvent;
use crate::version::{VersionPair, VersionRelation};

impl Cluster {
    /// Brings a crashed server back and runs its recovery protocol.
    ///
    /// §3.6 "Non-token Replica Crash": "When a server s recovers from a
    /// crash, it contacts the token holder for each file f such that s has
    /// a replica but no token for f. … If s finds that it has an obsolete
    /// replica of f, s destroys it."
    ///
    /// §3.6 "Token Crash": "When s' recovers, it will be notified about
    /// the creation of the new version during its recovery protocol. s'
    /// will note that the new version is a direct descendent of the old
    /// version and destroy the old version and all of its replicas."
    pub fn recover_server(&mut self, id: NodeId) {
        self.net.recover(id);
        self.emit_from(id, ProtocolEvent::RecoveryStarted { server: id });

        // Garbage-collect replicas of segments deleted while down (the
        // handle map records deletions; §2.1 file handles stay valid only
        // "as long as a replica of the file exists").
        let keys = self.replica_keys(id).into_iter();
        let stale: Vec<SegmentId> = keys.map(|(s, _)| s).filter(|&s| self.is_deleted(s)).collect();
        for seg in stale {
            self.destroy_segment_at(id, seg);
        }

        for key in self.replica_keys(id) {
            if self.server(id).holds_token(key) {
                self.recover_held_token(id, key);
            } else {
                self.recover_plain_replica(id, key);
            }
        }
        self.emit_from(id, ProtocolEvent::RecoveryCompleted { server: id });
    }

    /// Recovery for a replica without a local token.
    fn recover_plain_replica(&mut self, id: NodeId, key: ReplicaKey) {
        let Some(my_version) = self.replica_version(id, key) else {
            return;
        };
        let (seg, _) = key;

        // Contact the token holder for this version. The second lookup is
        // deliberately fallible: a crash that landed between a sharded
        // replica install and its (write-behind) token update can leave a
        // server that answers the holder scan with no stored token — that
        // is a token-loss case, not a protocol invariant, so it falls
        // through to the no-holder path below instead of panicking.
        if let Some(holder) = self.find_reachable_token_holder(id, key) {
            if let Some(token_version) = self.token_version(holder, key) {
                let table = self.branch_table_snapshot(seg);
                match table.relation(my_version, token_version) {
                    VersionRelation::Equal => {
                        // Up to date: rejoin the group.
                        if let Some((gid, _)) = self.group_members(seg) {
                            self.ensure_member(gid, id);
                        }
                    }
                    VersionRelation::Ancestor => {
                        // Obsolete: destroy; "no update will be lost" since
                        // our history is a prefix of the token's.
                        self.destroy_replica(id, key);
                        self.update_holder_set(holder, key, |holders| holders.remove(&id));
                        // The holder may now be under-replicated.
                        self.schedule_min_replica_fill(holder, key);
                    }
                    VersionRelation::Descendant | VersionRelation::Incomparable => {
                        // The token holder is *behind* us or divergent —
                        // can only happen after pathological failures
                        // ("Disastrous Failure"); surface as a conflict.
                        self.log_conflict(id, seg, my_version.major, token_version.major);
                    }
                }
                return;
            }
        }

        // No token holder for our major: a new version may have been
        // created while we were down.
        let others = self.newer_version_tokens(id, key.0, key.1);
        for (other_major, relation) in others {
            match relation {
                VersionRelation::Ancestor => {
                    // Our version is an ancestor of a live newer version:
                    // destroy the old version (Token Crash scenario).
                    self.destroy_replica(id, key);
                    self.emit_from(
                        id,
                        ProtocolEvent::ObsoleteDestroyed { seg: key.0, on: id, major: key.1 },
                    );
                    return;
                }
                VersionRelation::Incomparable => {
                    self.log_conflict(id, key.0, key.1, other_major);
                }
                _ => {}
            }
        }
    }

    /// Recovery for a version whose token this server holds.
    fn recover_held_token(&mut self, id: NodeId, key: ReplicaKey) {
        let Some(my_version) = self.token_version(id, key) else {
            return;
        };
        let others = self.newer_version_tokens(id, key.0, key.1);
        for (other_major, relation) in others {
            match relation {
                VersionRelation::Ancestor => {
                    // A descendant version was created while we were down:
                    // destroy the old version and all of its replicas.
                    let holders = self.all_replica_holders(key);
                    for h in holders {
                        if self.net.reachable(id, h) {
                            self.destroy_replica(h, key);
                        }
                    }
                    self.server(id).visit(key.0, |s| s.tokens.disk.delete_sync(&key));
                    self.emit_from(
                        id,
                        ProtocolEvent::ObsoleteDestroyed { seg: key.0, on: id, major: key.1 },
                    );
                    return;
                }
                VersionRelation::Incomparable => {
                    // Concurrent updates on both sides of a partition
                    // (§3.6 "the hard case"): both versions are kept and
                    // the conflict is logged for the user.
                    self.log_conflict(id, key.0, key.1, other_major);
                }
                _ => {}
            }
        }
        let _ = my_version;

        // The token survived the crash, so this server is still the
        // primary — but the crash cancelled its in-flight propagation
        // (deferred applies, and any buffered outbound stream of the
        // write pipeline), so group members may lag the token's version.
        // Run a stabilize round now: caught-up replicas are marked stable,
        // laggards are regenerated from the primary by state transfer
        // (§3.1, §3.4) — the recovery path a mid-stream holder crash must
        // take instead of leaving replicas waiting on updates that no
        // longer exist.
        if self.server(id).holds_token(key) {
            self.mark_stable_round(id, key);
        }
    }

    /// Heals-time reconciliation across the whole cell: every pair of
    /// live tokens for the same segment is compared; obsolete ancestors
    /// are destroyed ("It will appear to the clients as if the token had
    /// actually been moved, and the updates were propagated very slowly"),
    /// incomparable pairs are logged as conflicts.
    pub(crate) fn reconcile_all(&mut self) {
        let mut token_index: Vec<(SegmentId, u64, NodeId)> = Vec::new();
        for s in self.server_ids() {
            self.server(s).visit_all(|slot| {
                token_index.extend(slot.tokens.disk.keys().map(|&(seg, major)| (seg, major, s)));
            });
        }
        token_index.sort();
        for i in 0..token_index.len() {
            for j in (i + 1)..token_index.len() {
                let (seg_a, major_a, server_a) = token_index[i];
                let (seg_b, major_b, server_b) = token_index[j];
                if seg_a != seg_b || major_a == major_b {
                    continue;
                }
                // (`None`: destroyed earlier in this pass.)
                let Some(va) = self.token_version(server_a, (seg_a, major_a)) else { continue };
                let Some(vb) = self.token_version(server_b, (seg_b, major_b)) else { continue };
                let table = self.branch_table_snapshot(seg_a);
                match table.relation(va, vb) {
                    VersionRelation::Ancestor => {
                        self.destroy_version_everywhere(server_a, (seg_a, major_a));
                    }
                    VersionRelation::Descendant => {
                        self.destroy_version_everywhere(server_b, (seg_b, major_b));
                    }
                    VersionRelation::Incomparable => {
                        self.log_conflict(server_a, seg_a, major_a, major_b);
                    }
                    VersionRelation::Equal => {}
                }
            }
        }
        // Second pass: replica currency. A partition acts like a crash for
        // the servers cut off (§2.3); on heal each replica re-establishes
        // contact with its token holder, the same way crash recovery does.
        // A replica that lags the token — or cannot reach any holder to
        // prove currency — is conservatively marked unstable, which routes
        // reads through the stable-replica machinery (§3.4, §3.6). In ISIS
        // terms this models the view change that excluded the partitioned
        // member and the state transfer its rejoin requires.
        let mut catchups: Vec<(NodeId, ReplicaKey)> = Vec::new();
        for s in self.server_ids() {
            if !self.net.is_up(s) {
                continue;
            }
            for key in self.replica_keys(s) {
                // The token holder's own replica is the primary: skipped.
                let my_version = self.server(s).visit(key.0, |slot| {
                    let held = slot.tokens.disk.contains(&key);
                    slot.replicas.disk.get(&key).filter(|_| !held).map(|r| r.version)
                });
                let Some(my_version) = my_version else {
                    continue; // token held here, or destroyed earlier in this reconciliation
                };
                // Both lookups are fallible: the holder scan and the token
                // read are separated by destruction earlier in this pass,
                // and a crash can leave a scan hit with no stored token.
                let holder_and_version = self
                    .find_reachable_token_holder(s, key)
                    .and_then(|h| self.token_version(h, key).map(|v| (h, v)));
                match holder_and_version {
                    Some((h, tv)) => {
                        let table = self.branch_table_snapshot(key.0);
                        if table.is_ancestor(my_version, tv) {
                            self.set_replica_state(s, key, crate::replica::ReplicaState::Unstable);
                            if !catchups.contains(&(h, key)) {
                                catchups.push((h, key));
                            }
                        }
                    }
                    None => {
                        // Cannot prove currency: may be inconsistent.
                        self.set_replica_state(s, key, crate::replica::ReplicaState::Unstable);
                    }
                }
            }
        }
        // Holders with lagging replicas and no active write stream run a
        // stabilize round now, catching the laggards up by state transfer.
        for (holder, key) in catchups {
            if !self.streaming(holder, key) {
                self.mark_stable_round(holder, key);
            }
        }
    }

    /// Destroys one version (token + all reachable replicas).
    pub(crate) fn destroy_version_everywhere(&mut self, token_holder: NodeId, key: ReplicaKey) {
        for h in self.all_replica_holders(key) {
            if self.net.reachable(token_holder, h) {
                self.destroy_replica(h, key);
            }
        }
        self.server(token_holder).visit(key.0, |s| s.tokens.disk.delete_sync(&key));
        self.emit_from(
            token_holder,
            ProtocolEvent::ObsoleteDestroyed { seg: key.0, on: token_holder, major: key.1 },
        );
    }

    /// Removes one replica locally, in one visit, along with any read
    /// lease published on it (first), its delivery buffer, any outbound
    /// update buffer still queued against it (nothing left to propagate
    /// to), and any pending repair flag (the queued repair finds the
    /// replica gone and stands down).
    pub(crate) fn destroy_replica(&self, server: NodeId, key: ReplicaKey) {
        let revoked = self.server(server).visit(key.0, |s| {
            let revoked = s.leases.remove(&key).is_some();
            s.replicas.disk.delete_sync(&key);
            s.receivers.remove(&key);
            s.outbound.remove(&key);
            s.repairs.remove(&key);
            revoked
        });
        if revoked {
            self.emit_from(server, ProtocolEvent::LeaseRevoked { seg: key.0, on: server });
        }
        self.obs.bump(Stat::RecoveryReplicasDestroyed);
    }

    /// The version pair of the token `server` stores for `key`, if any.
    pub(crate) fn token_version(&self, server: NodeId, key: ReplicaKey) -> Option<VersionPair> {
        self.server(server).visit(key.0, |s| s.tokens.disk.get(&key).map(|t| t.version))
    }

    /// The version pair of the replica `server` stores for `key`, if any.
    pub(crate) fn replica_version(&self, server: NodeId, key: ReplicaKey) -> Option<VersionPair> {
        self.server(server).visit(key.0, |s| s.replicas.disk.get(&key).map(|r| r.version))
    }

    /// Every replica key `server` stores, ascending.
    fn replica_keys(&self, server: NodeId) -> Vec<ReplicaKey> {
        let mut keys = Vec::new();
        self.server(server).visit_all(|s| keys.extend(s.replicas.disk.keys()));
        keys.sort();
        keys
    }

    /// Finds a reachable server holding the token for exactly `key`: the
    /// first in server order, the one choice every forward to the token
    /// holder makes, on the full read path and the lease fast path alike.
    pub(crate) fn find_reachable_token_holder(
        &self,
        from: NodeId,
        key: ReplicaKey,
    ) -> Option<NodeId> {
        self.servers
            .iter()
            .find(|s| s.holds_token(key) && self.net.reachable(from, s.id))
            .map(|s| s.id)
    }

    /// Live tokens for other majors of `seg`, with each one's relation to
    /// our version `(seg, my_major)`'s *token-or-replica* version.
    fn newer_version_tokens(
        &self,
        from: NodeId,
        seg: SegmentId,
        my_major: u64,
    ) -> Vec<(u64, VersionRelation)> {
        let mine = (seg, my_major);
        let my_version =
            self.token_version(from, mine).or_else(|| self.replica_version(from, mine));
        let Some(my_version) = my_version else {
            return Vec::new();
        };
        let table = self.branch_table_snapshot(seg);
        let mut out = Vec::new();
        for s in self.server_ids() {
            if !self.net.reachable(from, s) {
                continue;
            }
            self.server(s).visit(seg, |slot| {
                let others = slot.tokens.segment(seg).filter(|&(major, _)| major != my_major);
                out.extend(others.map(|(major, t)| (major, table.relation(my_version, t.version))));
            });
        }
        out
    }

    /// Records an incomparable-version conflict once per (segment, pair),
    /// found by `server` (the recovering server, or the first token
    /// holder of the pair at heal time).
    pub(crate) fn log_conflict(&mut self, server: NodeId, seg: SegmentId, a: u64, b: u64) {
        let majors = (a.min(b), a.max(b));
        if self.conflicts.iter().any(|c| c.seg == seg && c.majors == majors) {
            return;
        }
        let at = self.now();
        self.conflicts.push(ConflictRecord { seg, majors, at });
        self.emit_from(server, ProtocolEvent::ConflictLogged { seg, majors });
    }
}
