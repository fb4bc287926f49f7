//! Segment lifecycle: create and delete (§5.1).

use deceit_isis::broadcast_round;
use deceit_net::NodeId;
use deceit_sim::SimDuration;

use crate::cluster::{group_name, Cluster, OpResult, OpScope};
use crate::error::{DeceitError, DeceitResult};
use crate::obs::Stat;
use crate::params::FileParams;
use crate::replica::Replica;
use crate::server::SegmentId;
use crate::token::WriteToken;
use crate::version::VersionPair;

impl Cluster {
    /// Creates a new zero-length segment via server `via` ("Create has no
    /// arguments and simply returns a handle for a new segment of zero
    /// length", §5.1).
    ///
    /// The creating server becomes the first replica holder and the write
    /// token holder; the file group is created with it as sole member.
    pub fn create(&mut self, via: NodeId) -> DeceitResult<OpResult<SegmentId>> {
        self.create_with_params(via, FileParams::default())
    }

    /// Creates a segment with explicit initial parameters.
    pub fn create_with_params(
        &mut self,
        via: NodeId,
        params: FileParams,
    ) -> DeceitResult<OpResult<SegmentId>> {
        self.client_op_scoped(via, OpScope::Global, |c| c.do_create(via, params))
    }

    fn do_create(&self, via: NodeId, params: FileParams) -> DeceitResult<(SegmentId, SimDuration)> {
        let seg = self.alloc_segment();
        let major = self.alloc_major();
        let now = self.now();
        let key = (seg, major);
        let replica = Replica::new(major, params, now);
        let token = WriteToken::new(VersionPair::initial(major), via);
        // Replica metadata and token state are non-volatile (§3.5);
        // the handle map entry is implicit in the disk key.
        let mut latency = SimDuration::ZERO;
        latency += self.cfg.disk.write_cost(replica.data.len() + 64);
        self.server(via).replicas.put_sync(key, replica);
        self.server(via).tokens.put_sync(key, token);
        // A fresh segment id should make collision impossible, but the
        // group service is another process in spirit — if it refuses,
        // surface unavailability instead of tearing the server down.
        let gid = match self.groups.create(&group_name(seg), via) {
            Ok(gid) => gid,
            Err(_) => self.groups.lookup(&group_name(seg)).ok_or(DeceitError::Unavailable(seg))?,
        };
        self.server(via).group_cache.insert(seg, gid);
        self.with_branch_table(seg, |_| ()); // materialize an empty history tree
        self.obs.bump(Stat::Creates);
        // Replication beyond one replica happens when the user raises
        // min_replicas (method 2) — default params need nothing more.
        if params.min_replicas > 1 {
            self.schedule_min_replica_fill(via, key);
        }
        Ok((seg, latency))
    }

    /// Deletes a segment: every reachable replica and token is destroyed
    /// and the file group dissolved ("Delete takes a segment handle and
    /// deletes all storage allocated for it", §5.1).
    ///
    /// Unreachable replica holders garbage-collect their stale replicas
    /// when they next recover (the cluster remembers deleted segments the
    /// way real servers keep deletion records in their handle maps).
    pub fn delete(&mut self, via: NodeId, seg: SegmentId) -> DeceitResult<OpResult<()>> {
        self.client_op_scoped(via, OpScope::Global, |c| c.do_delete(via, seg))
    }

    fn do_delete(&self, via: NodeId, seg: SegmentId) -> DeceitResult<((), SimDuration)> {
        let (gid, mut latency) = self.locate_group(via, seg);
        let has_any = self.server(via).has_segment(seg) || gid.is_some();
        if !has_any {
            return Err(DeceitError::NoSuchSegment(seg));
        }
        // One round to the file group: destroy replicas and tokens.
        if let Some(gid) = gid {
            let members: Vec<NodeId> = self.groups.members_vec(gid).unwrap_or_default();
            let outcome = broadcast_round(&self.net, via, members.clone(), 40, 16, "delete");
            latency += outcome.full_latency();
            for m in members {
                if m != via && !outcome.heard_from(m) {
                    continue; // unreachable: cleaned up at recovery
                }
                self.destroy_segment_at(m, seg);
                let _ = self.groups.leave(gid, m);
            }
        } else {
            self.destroy_segment_at(via, seg);
        }
        self.mark_deleted(seg);
        Ok(((), latency))
    }

    /// Removes every local replica and token of `seg` at `server`, along
    /// with all of the file's volatile per-key state (stream state,
    /// delivery buffers, outbound pipeline buffers, read leases, repair
    /// flags — segment ids are never reused, so anything left behind
    /// would leak forever). The lease is removed *first*, before the
    /// replica it covers disappears, matching the remove-before-the-fact
    /// discipline every lease invalidation site follows.
    pub(crate) fn destroy_segment_at(&self, server: NodeId, seg: SegmentId) {
        let srv = self.server(server);
        for major in srv.replicas.majors_of(seg) {
            let k = (seg, major);
            if srv.leases.remove(&k).is_some() {
                self.emit_from(
                    server,
                    crate::trace_events::ProtocolEvent::LeaseRevoked { seg, on: server },
                );
            }
            srv.replicas.delete_sync(&k);
            srv.tokens.delete_sync(&k);
            srv.drop_receiver(&k);
            srv.streams.remove(&k);
            srv.outbound.remove(&k);
            srv.repairs.remove(&k);
        }
        // Tokens can exist for majors whose local replica is already
        // gone; sweep those too.
        for major in srv.tokens.majors_of(seg) {
            let k = (seg, major);
            srv.leases.remove(&k);
            srv.tokens.delete_sync(&k);
            srv.streams.remove(&k);
            srv.outbound.remove(&k);
            srv.repairs.remove(&k);
        }
        srv.group_cache.remove(&seg);
    }
}
