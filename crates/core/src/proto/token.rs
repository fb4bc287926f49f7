//! Write-token acquisition and generation.
//!
//! §3.3: "A server that lacks a token must acquire it before distributing
//! an update for that file. Token acquisition requires one round. … To
//! acquire a token, a server broadcasts a token request to that file
//! group. The server that holds the token broadcasts a token pass in
//! response."
//!
//! §3.5 ("Token Generation"): when no token is available, a new one may be
//! generated subject to the file's write-availability policy; the new
//! token carries a fresh globally unique major version number and
//! "represents a distinct new file with a distinct set of replicas."
//!
//! Everything here is keyed by one replica key, so however far a token
//! travels between servers it never leaves its file's shard: the whole
//! module runs through `&self` under the file's shard ring lock.

use deceit_isis::{broadcast_round, GroupId};
use deceit_net::NodeId;
use deceit_sim::SimDuration;
use deceit_storage::Durability;

use crate::cluster::Cluster;
use crate::error::{DeceitError, DeceitResult};
use crate::hot::Reach;
use crate::obs::Stat;
use crate::params::{FileParams, WriteAvailability};
use crate::proto::write::WriteCtx;
use crate::replica::Replica;
use crate::server::{ReplicaKey, SegmentId};
use crate::token::WriteToken;
use crate::trace_events::ProtocolEvent;
use crate::version::VersionPair;

impl Cluster {
    /// What a write via `via` finds of the file `key` in the located
    /// `group` ([`WriteCtx::read`]), in one visit to `via`'s slot: `None`
    /// if `via` holds no token for it.
    pub(crate) fn write_context(
        &self,
        via: NodeId,
        key: ReplicaKey,
        group: Option<GroupId>,
    ) -> Option<WriteCtx> {
        let reach = Reach::of(&self.net);
        self.server(via)
            .visit_with(key.0, reach, move |s, net| WriteCtx::read(s, net, via, key, group))
    }

    /// The held-token visit: what a write via `via` finds of `seg` when
    /// `via` already holds its token — the stream-of-updates case the
    /// protocol is optimized for — read in one visit to `via`'s slot, for
    /// [`Cluster::check_token_enabled`] and the write that follows alike.
    ///
    /// For a file that has only ever had one major, with its group in
    /// `via`'s location cache, what `resolve_key` would find — the newest
    /// local major, the cached group — and what `write_context` reads are
    /// that one visit, and the cached group's existence is one
    /// group-table read. `None` on anything else: the caller resolves the
    /// key and takes [`Cluster::acquire_token_for_write`], which reads it
    /// all again — the visit changed nothing.
    pub(crate) fn held_token(&self, via: NodeId, seg: SegmentId) -> Option<WriteCtx> {
        if !self.single_major(seg) {
            return None;
        }
        let held = self.server(via).visit_with(seg, Reach::of(&self.net), move |s, net| {
            let key = s.replicas.latest(seg)?;
            let group = s.group_cache.get(&seg).copied()?;
            WriteCtx::read(s, net, via, key, Some(group))
        });
        held.filter(|ctx| ctx.group.is_some_and(|g| self.groups.exists(g)))
    }

    /// The acquisition path, for a write the held-token visit missed:
    /// `resolved` is what `resolve_key` found of `seg` from `via` — the
    /// key, the group and the search time, which is charged here. A
    /// token `via` holds after all (a branched file, a cold location
    /// cache) is used as it is; otherwise it is acquired, with the §3.3
    /// piggyback option: when `piggyback` is set the token request rides
    /// in the same message as the update broadcast, so the request round
    /// costs nothing extra here.
    ///
    /// Returns what the write then finds of the file (see [`WriteCtx`]).
    pub(crate) fn acquire_token_for_write(
        &self,
        via: NodeId,
        seg: SegmentId,
        (key, group, mut latency): (ReplicaKey, Option<GroupId>, SimDuration),
        piggyback: bool,
    ) -> DeceitResult<(WriteCtx, SimDuration)> {
        if let Some(ctx) = self.write_context(via, key, group) {
            let (ctx, checked) = self.check_token_enabled(via, ctx)?;
            return Ok((ctx, latency + checked));
        }

        // One token-request round to the file group (free when the request
        // piggybacks on the update broadcast).
        let (gid, search) = self.locate_group(via, seg);
        latency += search;
        let members: Vec<NodeId> = gid.and_then(|g| self.groups.members_vec(g)).unwrap_or_default();
        let holder = if piggyback {
            // Reachability still decides who can answer; no round charged.
            members
                .iter()
                .copied()
                .find(|&m| self.net.reachable(via, m) && self.server(m).holds_token(key))
        } else {
            let outcome = broadcast_round(&self.net, via, members.clone(), 40, 48, "token-request");
            latency += outcome.full_latency();
            self.server(via).observe_round(&outcome);
            members
                .iter()
                .copied()
                .find(|&m| outcome.heard_from(m) && self.server(m).holds_token(key))
        };

        // "Just acquired" is not "held" if the acquisition failed to
        // leave a token here: the write is refused, the server lives.
        let acquired = |key: ReplicaKey| {
            self.write_context(via, key, gid).ok_or(DeceitError::WriteUnavailable(seg))
        };
        match holder {
            Some(h) => {
                latency += self.pass_token(h, via, key)?;
                let (ctx, checked) = self.check_token_enabled(via, acquired(key)?)?;
                Ok((ctx, latency + checked))
            }
            None => {
                // Token loss (§3.6 "Token Crash" / "Partition"): generate a
                // new token, policy permitting.
                let (new_key, gen_latency) = self.generate_token(via, key)?;
                Ok((acquired(new_key)?, latency + gen_latency))
            }
        }
    }

    /// Moves the token from `holder` to `to` (the "token pass" broadcast).
    /// `to` becomes a replica holder, receiving the data if it lacks it.
    pub(crate) fn pass_token(
        &self,
        holder: NodeId,
        to: NodeId,
        key: ReplicaKey,
    ) -> DeceitResult<SimDuration> {
        let mut latency = SimDuration::ZERO;
        // The new holder needs a *current* replica: the primary copy must
        // be local so unstable-period reads can be served (§3.4), and it
        // must embed every update through the token's version pair before
        // new updates are stamped on top. A lagging local copy (updates
        // still in flight) is replaced by state transfer from the old
        // primary.
        let to_version = self.replica_version(to, key);
        // A pass the new holder cannot receive is refused before the
        // token leaves: the token and its lease stay where they were.
        let unavailable = DeceitError::Unavailable(key.0);
        if !self.net.reachable(holder, to) {
            return Err(unavailable);
        }
        // The holder's end, in one visit: the token state leaves, with
        // the replica to transfer if `to` needs one. The holder-local
        // read lease goes with it: it asserts "my replica is the
        // stream's acked prefix", which stops being maintainable the
        // moment the token starts moving. The lock-free read path reads
        // the lease and the replica in one visit, so removing it in the
        // visit that deletes the token guarantees no reader serves across
        // the movement (see `Cluster::try_read_leased`).
        let (revoked, taken) = self.server(holder).visit(key.0, move |s| {
            let taken =
                s.tokens.disk().get(&key).cloned().ok_or(DeceitError::WriteUnavailable(key.0));
            let taken = taken.and_then(|token| {
                let src = match to_version == Some(token.version) {
                    true => None,
                    false => Some(s.replicas.disk().get(&key).ok_or(unavailable)?.clone()),
                };
                Ok((token, src))
            });
            let mut unleased = s.unlease(key);
            let revoked = unleased.revoked();
            if taken.is_ok() {
                unleased.delete_token();
                s.streams.remove(&key);
            }
            (revoked, taken)
        });
        self.lease_revoked(holder, key.0, revoked);
        let (mut token, src) = taken?;
        // `to` was reachable above, and the network cannot change under
        // `&self`: the transfer arrives.
        let shipped = src.and_then(|src| self.ship_replica(holder, to, src));
        let replica = shipped.map(|(replica, took)| {
            latency += took + self.cfg.disk.write_cost(replica.data.len() + 64);
            token.holders.insert(to);
            self.emit_from(to, ProtocolEvent::ReplicaGenerated { seg: key.0, on: to });
            replica
        });

        // The new holder's end, in one visit: the current replica if it
        // lacked one, and the token state — durable at both ends (§3.5).
        // The new holder applies its own writes directly; any stale
        // reordering buffer must not hold back future received updates.
        let revoked = self.server(to).visit(key.0, move |s| {
            let mut unleased = s.unlease(key);
            let revoked = unleased.revoked();
            if let Some(replica) = replica {
                if to_version.is_some() {
                    unleased.delete_replica();
                }
                unleased.put_replica(replica);
            }
            s.tokens.put(key, token);
            s.receivers.remove(&key);
            revoked
        });
        self.lease_revoked(to, key.0, revoked);
        latency += self.cfg.disk.write_cost(64);
        if let Some((gid, _)) = self.group_members(key.0) {
            latency += self.ensure_member(gid, to);
        }
        self.obs.bump(Stat::TokenPasses);
        self.emit_from(to, ProtocolEvent::TokenAcquired { seg: key.0, server: to, from: holder });
        Ok(latency)
    }

    /// Verifies (and if possible restores) the enabled state of a held
    /// token under the file's availability policy (§4: at "medium" a token
    /// is disabled whenever fewer than a majority of replicas are
    /// available), from the reading `ctx` of it. Returns the reading the
    /// write goes on with — `ctx` itself unless the token had to be
    /// rewritten.
    pub(crate) fn check_token_enabled(
        &self,
        via: NodeId,
        ctx: WriteCtx,
    ) -> DeceitResult<(WriteCtx, SimDuration)> {
        let (key, params, group) = (ctx.key, ctx.params, ctx.group);
        if params.availability != WriteAvailability::Medium {
            return Ok((ctx, SimDuration::ZERO));
        }
        // Steady state: every known holder reachable, the level
        // satisfied, the token enabled — nothing to rewrite, nothing to
        // verify further (the holder set is the §3.1 upper bound; when
        // all of it answers, the majority condition cannot fail).
        if ctx.enabled && ctx.holders >= params.min_replicas && ctx.all_reachable {
            return Ok((ctx, SimDuration::ZERO));
        }
        let unavailable = || DeceitError::WriteUnavailable(key.0);
        // If every known holder is reachable (no failure in sight) but the
        // minimum replica level outruns the holder set — the raised-level
        // case of §3.1 method 2 — the holder generates replicas now rather
        // than refusing writes. The fill updates the holder set on the
        // stored token, so the majority is taken from the token as it is
        // afterwards; a token gone by then (a crash wiped the holder's
        // volatile state) means writes are unavailable here, not a panic.
        if ctx.all_reachable && ctx.holders < params.min_replicas {
            self.fill_min_replicas_now(via, key);
        }
        let reachable = self.reachable_replica_holders(via, key).len();
        // The majority and the enabled flag, rewritten in place (behind)
        // only if it moves.
        let (ok, moved) = self
            .server(via)
            .visit(key.0, move |s| {
                s.tokens.update_with(&key, |t| {
                    let ok = reachable >= t.majority(params.min_replicas);
                    let moved = ok != t.enabled;
                    t.enabled = ok;
                    ((ok, moved), moved.then_some(Durability::Async))
                })
            })
            .ok_or_else(unavailable)?
            .0;
        if moved {
            self.schedule_flush(via, key.0);
        }
        if !ok {
            return Err(unavailable());
        }
        Ok((self.write_context(via, key, group).ok_or_else(unavailable)?, SimDuration::ZERO))
    }

    /// Generates a brand-new token for a new major version branched off
    /// the newest replica reachable from `via` (§3.5 "Token Generation").
    pub(crate) fn generate_token(
        &self,
        via: NodeId,
        base_key: ReplicaKey,
    ) -> DeceitResult<(ReplicaKey, SimDuration)> {
        let seg = base_key.0;
        let mut latency = SimDuration::ZERO;

        // Make sure the generating server has a base replica to branch
        // from ("File data is drawn from the existing available replica").
        let local = self.server(via).visit(seg, move |s| s.replicas.disk().get(&base_key).cloned());
        let base = match local {
            Some(base) => base,
            None => {
                let holders = self.reachable_replica_holders(via, base_key);
                let src_server =
                    holders.into_iter().find(|&h| h != via).ok_or(DeceitError::Unavailable(seg))?;
                // The holder list said src_server has the replica, but a
                // racing crash may have taken it since: treat as unavailable.
                let src = self
                    .server(src_server)
                    .visit(seg, move |s| s.replicas.disk().get(&base_key).cloned())
                    .ok_or(DeceitError::Unavailable(seg))?;
                let (base, took) =
                    self.ship_replica(src_server, via, src).ok_or(DeceitError::Unavailable(seg))?;
                latency += took;
                let stored = base.clone();
                self.server(via).visit(seg, move |s| s.unlease(base_key).put_replica(stored));
                base
            }
        };
        let params = base.params;

        // Policy gate (§3.5, §4).
        match params.availability {
            WriteAvailability::Low => {
                return Err(DeceitError::WriteUnavailable(seg));
            }
            WriteAvailability::Medium => {
                // "the total number of replicas is assumed to be the
                // minimum replica level" for a server without the token;
                // availability is counted by broadcasting an inquiry.
                let available = self.count_available_replicas(via, base_key, &mut latency);
                let majority = FileParams::majority_of(params.min_replicas.max(1));
                if available < majority {
                    return Err(DeceitError::WriteUnavailable(seg));
                }
            }
            WriteAvailability::High => {}
        }

        // Build the new version: unique major, same subversion (§3.5:
        // "picking a globally unique major version number v1' and building
        // a token with version pair (v1', v2)").
        let new_major = self.alloc_major();
        let new_key = (seg, new_major);
        let branch_parent = base.version;
        self.with_branch_table(seg, move |t| t.record_branch(new_major, branch_parent));
        let version = VersionPair { major: new_major, sub: base.version.sub };

        let now = self.now();
        let mut replica = Replica::cloned_from(&base, now);
        replica.version = version;
        latency += self.cfg.disk.write_cost(replica.data.len() + 64);
        self.server(via).visit(seg, move |s| {
            s.unlease(new_key).put_replica(replica);
            s.tokens.put(new_key, WriteToken::new(version, via));
        });

        // Group membership for the new version lives in the same file
        // group; make sure the generator is in it.
        if let Some((gid, _)) = self.group_members(seg) {
            latency += self.ensure_member(gid, via);
        } else {
            // Creation only fails when a racing generator created the
            // group first; fall back to lookup, and if that misses too
            // the group service is refusing us — fail the generation.
            let gid = match self.groups.create(&crate::cluster::group_name(seg), via) {
                Ok(gid) => gid,
                Err(_) => {
                    self.group_members(seg).map(|(g, _)| g).ok_or(DeceitError::Unavailable(seg))?
                }
            };
            self.server(via).visit(seg, move |s| s.group_cache.insert(seg, gid));
        }

        self.obs.bump(Stat::TokenGenerated);
        self.emit_from(via, ProtocolEvent::TokenGenerated { seg, server: via, major: new_major });

        // Satisfy the minimum replica level for the new version.
        self.schedule_min_replica_fill(via, new_key);
        Ok((new_key, latency))
    }

    /// Counts replicas of `key` reachable from `via` via an inquiry round
    /// (§3.5: "the number of available replicas is determined by
    /// broadcasting an inquiry to the file group").
    pub(crate) fn count_available_replicas(
        &self,
        via: NodeId,
        key: ReplicaKey,
        latency: &mut SimDuration,
    ) -> usize {
        let members: Vec<NodeId> = self
            .group_members(key.0)
            .map(|(_, m)| m)
            .unwrap_or_else(|| self.all_replica_holders(key));
        let outcome = broadcast_round(&self.net, via, members, 32, 24, "replica-inquiry");
        *latency += outcome.full_latency();
        let holds = |m: NodeId| self.replica_version(m, key).is_some();
        let count = outcome.replies.iter().filter(|&&(m, _)| holds(m)).count();
        // Self-delivery may not be in members if via never joined.
        count + usize::from(holds(via) && !outcome.heard_from(via))
    }

    /// The parameters in force for a replica as seen by `server` (falling
    /// back to defaults if it holds no copy — callers only use this when a
    /// local replica exists).
    pub(crate) fn params_of(&self, server: NodeId, key: ReplicaKey) -> FileParams {
        self.server(server)
            .visit(key.0, move |s| s.replicas.disk().get(&key).map(|r| r.params))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cluster, ClusterConfig, DeceitError, FileParams, WriteOp};
    use deceit_net::NodeId;

    /// A pass to a server the holder cannot reach is refused before the
    /// token leaves: token and read lease stay at the holder, and the
    /// unreachable server gains neither token nor replica.
    #[test]
    fn a_pass_the_target_cannot_receive_leaves_the_token_in_place() {
        let (a, b, far) = (NodeId(0), NodeId(1), NodeId(2));
        let mut c = Cluster::new(3, ClusterConfig::deterministic().with_read_leases());
        let seg = c.create(a).unwrap().value;
        c.set_params(a, seg, FileParams { min_replicas: 2, ..FileParams::default() }).unwrap();
        c.run_until_quiet();
        // A stream in progress: the holder publishes its read lease.
        c.write(a, seg, WriteOp::replace(b"streaming"), None).unwrap();
        let key = (seg, 0);
        let lease = c.read_lease_version(a, key);
        assert!(lease.is_some(), "the stream holds a lease");
        c.split(&[&[a, b], &[far]]);

        assert_eq!(c.pass_token(a, far, key), Err(DeceitError::Unavailable(seg)));
        assert!(c.server(a).holds_token(key), "the token stays at the holder");
        assert_eq!(c.read_lease_version(a, key), lease, "and so does its lease");
        assert!(!c.server(far).holds_token(key));
        assert!(c.replica_version(far, key).is_none(), "no copy installed at the target");
    }
}
