//! File-group location and membership.
//!
//! §3.2: "a server needs to join a file group before it is allowed to
//! broadcast an update to, or have a replica of, that file. Joining a file
//! group is an expensive operation and may require a global search to find
//! a member of the group. This operation is one of the main obstacles to
//! scaling Deceit to an arbitrary size. Deceit limits global search to
//! within a Deceit cell."

use deceit_isis::{broadcast_round, GroupId};
use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::cluster::{group_name, Cluster};
use crate::error::{DeceitError, DeceitResult};
use crate::server::{ReplicaKey, SegmentId};

impl Cluster {
    /// Finds the file group of `seg` from `via`'s vantage point.
    ///
    /// Consults the volatile location cache first; on a miss performs the
    /// global search — a broadcast to every server in the cell — and
    /// caches the answer. Returns the group (if any member is reachable)
    /// and the time spent searching.
    pub(crate) fn locate_group(
        &self,
        via: NodeId,
        seg: SegmentId,
    ) -> (Option<GroupId>, SimDuration) {
        // Cache hit: verify the group still exists.
        let srv = self.server(via);
        if let Some(gid) = srv.visit(seg, move |s| s.group_cache.get(&seg).copied()) {
            if self.groups.exists(gid) {
                return (Some(gid), SimDuration::ZERO);
            }
            srv.visit(seg, move |s| s.group_cache.remove(&seg));
        }
        // Local membership counts as knowledge.
        let gid = self.groups.lookup(&group_name(seg));
        if let Some(gid) = gid {
            if self.groups.is_member(gid, via) {
                srv.visit(seg, move |s| s.group_cache.insert(seg, gid));
                return (Some(gid), SimDuration::ZERO);
            }
        }
        // Global search: one round to every other server in the cell.
        let others: Vec<NodeId> = self.server_ids().into_iter().filter(|&s| s != via).collect();
        let outcome = broadcast_round(&self.net, via, others, 32, 16, "locate");
        let latency = outcome.full_latency();
        let found = gid.filter(|&g| {
            // Only learnable if some member actually answered the search.
            self.groups
                .members_vec(g)
                .map(|ms| ms.iter().any(|m| *m == via || outcome.heard_from(*m)))
                .unwrap_or(false)
        });
        if let Some(g) = found {
            srv.visit(seg, move |s| s.group_cache.insert(seg, g));
        }
        (found, latency)
    }

    /// The file group of `seg` as known at `via` — the cache-first probe
    /// the pipelined write path uses per update. A hit costs one slot
    /// lock; a miss repairs the cache from the cell-local group
    /// directory. No latency is charged: the token holder has already
    /// located (or created) the group, so this never stands in for the
    /// §3.2 global search — `locate_group` remains the charged path.
    pub(crate) fn cached_group(&self, via: NodeId, seg: SegmentId) -> Option<GroupId> {
        let srv = self.server(via);
        if let Some(gid) = srv.visit(seg, move |s| s.group_cache.get(&seg).copied()) {
            if self.groups.exists(gid) {
                return Some(gid);
            }
            srv.visit(seg, move |s| s.group_cache.remove(&seg));
        }
        let gid = self.groups.lookup(&group_name(seg));
        if let Some(g) = gid {
            srv.visit(seg, move |s| s.group_cache.insert(seg, g));
        }
        gid
    }

    /// Ensures `node` is a member of `gid`, charging the view-change round
    /// if it has to join. Returns the time spent.
    pub(crate) fn ensure_member(&self, gid: GroupId, node: NodeId) -> SimDuration {
        if self.groups.is_member(gid, node) {
            return SimDuration::ZERO;
        }
        // Atomic membership change: one GBCAST round to the current view.
        let Some(members) = self.groups.members_vec(gid) else {
            return SimDuration::ZERO;
        };
        let outcome = broadcast_round(&self.net, node, members, 48, 16, "view-change");
        let _ = self.groups.join(gid, node);
        outcome.full_latency()
    }

    /// Resolves which replica key (segment, major) an operation on `seg`
    /// addresses: an explicit major, or the most recent version visible
    /// from `via` (§3.5: "By using an unqualified filename, the user
    /// automatically requests the most recent available version"), and
    /// the file group found on the way (`None` if a major skips the search).
    pub(crate) fn resolve_key(
        &self,
        via: NodeId,
        seg: SegmentId,
        major: Option<u64>,
    ) -> DeceitResult<(ReplicaKey, Option<GroupId>, SimDuration)> {
        let mut latency = SimDuration::ZERO;
        if let Some(m) = major {
            let key = (seg, m);
            if self.replica_version(via, key).is_some()
                || !self.reachable_replica_holders(via, key).is_empty()
            {
                return Ok(((seg, m), None, latency));
            }
            return Err(DeceitError::NoSuchVersion(seg, m));
        }
        // Prefer local knowledge; otherwise search the group.
        let latest =
            |m: NodeId| self.server(m).visit(seg, move |s| s.replicas.latest(seg)).map(|k| k.1);
        let local = latest(via);
        let (gid, search_latency) = self.locate_group(via, seg);
        latency += search_latency;
        // With a local copy of the file's only major (see
        // `Cluster::single_major`) the member scan below can find nothing
        // newer: it reads, sends nothing and charges nothing, so skipping
        // it changes no message and no latency.
        if let Some(m) = local.filter(|_| self.single_major(seg)) {
            return Ok(((seg, m), gid, latency));
        }
        let mut best = local;
        if let Some(members) = gid.and_then(|g| self.groups.members_vec(g)) {
            for m in members {
                if !self.net.reachable(via, m) {
                    continue;
                }
                if let Some(remote) = latest(m) {
                    best = Some(best.map_or(remote, |b| b.max(remote)));
                }
            }
        }
        match best {
            Some(m) => Ok(((seg, m), gid, latency)),
            None => Err(DeceitError::NoSuchSegment(seg)),
        }
    }
}
