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
use crate::trace_events::ProtocolEvent;
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
        self.server(via).visit(seg, move |s| {
            s.unlease(key).put_replica(replica);
            s.tokens.put(key, token);
        });
        // A fresh segment id should make collision impossible, but the
        // group service is another process in spirit — if it refuses,
        // surface unavailability instead of tearing the server down.
        let gid = match self.groups.create(&group_name(seg), via) {
            Ok(gid) => gid,
            Err(_) => self.groups.lookup(&group_name(seg)).ok_or(DeceitError::Unavailable(seg))?,
        };
        self.server(via).visit(seg, move |s| s.group_cache.insert(seg, gid));
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
    /// would leak forever), in one visit. Each key is deleted through
    /// [`crate::hot::Unleased`], which removes its read lease first.
    pub(crate) fn destroy_segment_at(&self, server: NodeId, seg: SegmentId) {
        let revoked = self.server(server).visit(seg, move |s| {
            let mut revoked = 0;
            while let Some(k) = s.replicas.latest(seg) {
                let mut unleased = s.unlease(k);
                unleased.delete_replica();
                unleased.delete_token();
                revoked += usize::from(unleased.revoked());
                s.receivers.remove(&k);
                s.streams.remove(&k);
                s.outbound.remove(&k);
                s.repairs.remove(&k);
            }
            // Tokens can exist for majors whose local replica is already
            // gone; sweep those too.
            while let Some(k) = s.tokens.latest(seg) {
                s.unlease(k).delete_token();
                s.streams.remove(&k);
                s.outbound.remove(&k);
                s.repairs.remove(&k);
            }
            s.group_cache.remove(&seg);
            revoked
        });
        for _ in 0..revoked {
            self.emit_from(server, ProtocolEvent::LeaseRevoked { seg, on: server });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, WriteOp};
    use deceit_sim::leaf;

    /// The slot rounds `f` takes on this thread.
    fn rounds(c: &Cluster, f: impl FnOnce(&Cluster)) -> u64 {
        let before = leaf::rounds_here();
        f(c);
        leaf::rounds_here() - before
    }

    /// Teardown at one server is one visit — one slot round, however many
    /// records of the file it removes (no lease is open, so no revoke is
    /// recorded).
    #[test]
    fn teardown_is_one_slot_round() {
        let mut c = Cluster::new(2, ClusterConfig::deterministic());
        let (a, b) = (NodeId(0), NodeId(1));
        let mut file = || {
            let seg = c.create(a).unwrap().value;
            c.set_params(a, seg, FileParams { min_replicas: 2, ..FileParams::default() }).unwrap();
            c.write(a, seg, WriteOp::replace(b"bytes"), None).unwrap();
            c.run_until_quiet();
            seg
        };
        let (one, two) = (file(), file());
        c.create_version(a, two).unwrap();
        let key = (one, c.server(b).majors_of(one)[0]);

        assert_eq!(rounds(&c, |c| c.destroy_replica(b, key)), 1);
        assert!(c.replica_version(b, key).is_none());
        assert_eq!(rounds(&c, |c| c.destroy_segment_at(a, one)), 1, "one major");
        assert!(!c.server(a).has_segment(one) && !c.server(a).holds_token(key));
        assert_eq!(c.server(a).majors_of(two).len(), 2);
        assert_eq!(rounds(&c, |c| c.destroy_segment_at(a, two)), 1, "two majors");
        assert!(c.server(a).majors_of(two).is_empty());
    }
}
