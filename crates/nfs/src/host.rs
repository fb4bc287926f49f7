//! The hosting seam of the envelope.
//!
//! §5.2: "Although the NFS envelope implementation is a large piece of
//! software, it is totally independent of the underlying implementation
//! of the segment service." The same independence holds upward: the
//! envelope does not care *who* delivers requests to it, only what the
//! deliverer holds while it runs. [`NfsService`] is the request-serving
//! surface a transport needs — one entry per level a host can hold (see
//! [`Scope`]), each a one-line choice of scope over the single request
//! table [`NfsServer::dispatch`] — and the [`deceit_core::ProtocolHost`]
//! implementation forwards failure injection and deferred-work pumping to
//! the segment-server cluster underneath, so the whole stack can be
//! hosted by the deterministic simulator and the live threaded runtime
//! alike.

use deceit_core::{OpClass, ProtocolHost};
use deceit_net::NodeId;
use deceit_sim::{SimDuration, SimTime};

use crate::handle::FileHandle;
use crate::rpc::{NfsReply, NfsRequest, NfsServer};
use crate::scope::Scope;

/// A transport-agnostic NFS request service.
///
/// The `&self` entries each serve a request holding less than the whole
/// cell. `None` means the request's footprint escapes what that entry's
/// caller holds: nothing was changed, and the host retries with a wider
/// entry, ending at [`NfsService::serve`]. When a narrower entry does
/// answer, it answers what `serve` would have. The defaults decline
/// everything, which is always correct.
pub trait NfsService {
    /// The root handle returned by the mount protocol.
    fn mount_root(&self) -> FileHandle;

    /// Handles one request arriving at server `via` holding the whole
    /// cell, returning the reply and the server-side latency charged to
    /// the protocol clock.
    fn serve(&mut self, via: NodeId, req: NfsRequest) -> (NfsReply, SimDuration);

    /// Serves a request holding the shared cell lock only, in parallel
    /// with every other request: answers from what `via` holds locally.
    fn serve_shared(&self, via: NodeId, req: &NfsRequest) -> Option<(NfsReply, SimDuration)> {
        let _ = (via, req);
        None
    }

    /// Serves a read-only request holding the shared cell lock plus the
    /// ring lock of its shard key — for reads [`NfsService::serve_shared`]
    /// declined because they must forward. Declines everything else.
    fn serve_read_sharded(&self, via: NodeId, req: &NfsRequest) -> Option<(NfsReply, SimDuration)> {
        let _ = (via, req);
        None
    }

    /// Serves a mutating request holding the shared cell lock plus the
    /// ring locks of every slot of `req.class().slots(shard_count)`.
    /// Declines read-only requests. Under the asynchronous write pipeline
    /// this is also where a write acknowledges: the engine returns once
    /// the mutation is durable at the token holder (plus its safety-level
    /// replicas), leaving group propagation to
    /// [`ProtocolHost::try_pump_shard`] as slot-attributed deferred work.
    fn serve_sharded(&self, via: NodeId, req: &NfsRequest) -> Option<(NfsReply, SimDuration)> {
        let _ = (via, req);
        None
    }
}

impl NfsService for NfsServer {
    fn mount_root(&self) -> FileHandle {
        self.mount()
    }

    fn serve(&mut self, via: NodeId, req: NfsRequest) -> (NfsReply, SimDuration) {
        self.handle(via, req)
    }

    fn serve_shared(&self, via: NodeId, req: &NfsRequest) -> Option<(NfsReply, SimDuration)> {
        NfsServer::dispatch(&mut Scope::Snapshot(&self.fs), via, req)
    }

    fn serve_read_sharded(&self, via: NodeId, req: &NfsRequest) -> Option<(NfsReply, SimDuration)> {
        match req.class() {
            OpClass::ReadOnly => self.serve_under(OpClass::Mutate(req.shard_key()?), via, req),
            _ => None,
        }
    }

    fn serve_sharded(&self, via: NodeId, req: &NfsRequest) -> Option<(NfsReply, SimDuration)> {
        match req.class() {
            OpClass::ReadOnly => None,
            class => self.serve_under(class, via, req),
        }
    }
}

impl NfsServer {
    /// Serves `req` holding the ring locks `class` declares.
    fn serve_under(
        &self,
        class: OpClass,
        via: NodeId,
        req: &NfsRequest,
    ) -> Option<(NfsReply, SimDuration)> {
        let mut slots = [0usize; 2];
        let n = class.slots_into(self.fs.cluster.shard_count(), &mut slots);
        NfsServer::dispatch(&mut Scope::Ring(&self.fs, &slots[..n]), via, req)
    }
}

impl ProtocolHost for NfsServer {
    fn pump(&mut self, max_events: usize) -> usize {
        self.fs.cluster.pump(max_events)
    }

    fn shard_count(&self) -> usize {
        self.fs.cluster.shard_count()
    }

    fn try_pump_shard(&self, slot: usize, max_events: usize) -> Option<usize> {
        self.fs.cluster.try_pump_shard(slot, max_events)
    }

    fn pending_shard_mask(&self) -> u64 {
        self.fs.cluster.pending_shard_mask()
    }

    fn advance_idle_clock(&self, d: SimDuration) {
        self.fs.cluster.advance_idle_clock(d);
    }

    fn settle(&mut self) {
        self.fs.cluster.settle();
    }

    fn pending_work(&self) -> usize {
        self.fs.cluster.pending_work()
    }

    fn crash_node(&mut self, node: NodeId) {
        self.fs.cluster.crash_node(node);
    }

    fn restart_node(&mut self, node: NodeId) {
        self.fs.cluster.restart_node(node);
    }

    fn split_nodes(&mut self, groups: &[&[NodeId]]) {
        self.fs.cluster.split_nodes(groups);
    }

    fn heal_nodes(&mut self) {
        self.fs.cluster.heal_nodes();
    }

    fn node_is_up(&self, node: NodeId) -> bool {
        self.fs.cluster.node_is_up(node)
    }

    fn protocol_now(&self) -> SimTime {
        self.fs.cluster.protocol_now()
    }

    fn obs_core(&self) -> Option<&deceit_core::ObsCore> {
        self.fs.cluster.obs_core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::DeceitFs;

    #[test]
    fn nfs_server_hosts_the_stack() {
        let mut srv = NfsServer::new(DeceitFs::with_defaults(3));
        let root = srv.mount_root();
        let (rep, _lat) =
            srv.serve(NodeId(0), NfsRequest::Create { dir: root, name: "f".into(), mode: 0o644 });
        let NfsReply::Attr(attr) = rep else { panic!("create failed: {rep:?}") };
        let (rep, _lat) = srv.serve(
            NodeId(1),
            NfsRequest::Write { fh: attr.handle, offset: 0, data: b"via the seam".into() },
        );
        assert!(rep.as_error().is_none(), "{rep:?}");
        srv.settle();
        assert_eq!(srv.pending_work(), 0);
        let (rep, _lat) =
            srv.serve(NodeId(2), NfsRequest::Read { fh: attr.handle, offset: 0, count: 64 });
        let NfsReply::Data(data) = rep else { panic!("read failed: {rep:?}") };
        assert_eq!(&data[..], b"via the seam");
    }

    #[test]
    fn shared_serve_agrees_with_exclusive_serve() {
        let mut srv = NfsServer::new(DeceitFs::with_defaults(3));
        let root = srv.mount_root();
        let (rep, _) =
            srv.serve(NodeId(0), NfsRequest::Create { dir: root, name: "f".into(), mode: 0o644 });
        let NfsReply::Attr(attr) = rep else { panic!("create failed: {rep:?}") };
        let (rep, _) = srv.serve(
            NodeId(0),
            NfsRequest::Write { fh: attr.handle, offset: 0, data: b"fast path".into() },
        );
        assert!(rep.as_error().is_none(), "{rep:?}");
        srv.settle();

        let read = NfsRequest::Read { fh: attr.handle, offset: 0, count: 64 };
        let (shared, _) = srv.serve_shared(NodeId(0), &read).expect("local stable replica");
        let (exclusive, _) = srv.serve(NodeId(0), read);
        assert_eq!(shared, exclusive);

        // Mutating requests are never served on the read fast path.
        let write = NfsRequest::Write { fh: attr.handle, offset: 0, data: b"x".into() };
        assert!(srv.serve_shared(NodeId(0), &write).is_none());
        // Cell-wide inquiries defer to the exclusive path.
        let locate = NfsRequest::DeceitLocateReplicas { fh: attr.handle };
        assert!(srv.serve_shared(NodeId(0), &locate).is_none());
    }

    #[test]
    fn sharded_serve_covers_single_file_mutations() {
        let mut srv = NfsServer::new(DeceitFs::with_defaults(3));
        let root = srv.mount_root();
        let (rep, _) =
            srv.serve(NodeId(0), NfsRequest::Create { dir: root, name: "f".into(), mode: 0o644 });
        let NfsReply::Attr(attr) = rep else { panic!("create failed: {rep:?}") };
        srv.settle();

        // A write executes on the sharded path and matches the exclusive
        // outcome shape.
        let write = NfsRequest::Write { fh: attr.handle, offset: 0, data: b"sharded".into() };
        let (rep, _) = srv.serve_sharded(NodeId(0), &write).expect("write is single-shard");
        assert!(rep.as_error().is_none(), "{rep:?}");
        srv.settle();
        let (rep, _) =
            srv.serve(NodeId(1), NfsRequest::Read { fh: attr.handle, offset: 0, count: 64 });
        let NfsReply::Data(data) = rep else { panic!("read failed: {rep:?}") };
        assert_eq!(&data[..], b"sharded");

        // Requests whose footprint escapes their declared shards decline.
        let remove = NfsRequest::Remove { dir: root, name: "f".into() };
        assert!(srv.serve_sharded(NodeId(0), &remove).is_none(), "remove resolves by name");
        let reconcile = NfsRequest::DeceitReconcile { dir: root };
        assert!(srv.serve_sharded(NodeId(0), &reconcile).is_none(), "cell-wide");
        // Read-only requests belong to the read fast path, not here.
        let read = NfsRequest::Read { fh: attr.handle, offset: 0, count: 4 };
        assert!(srv.serve_sharded(NodeId(0), &read).is_none());
    }

    #[test]
    fn failure_injection_forwards_to_the_cluster() {
        let mut srv = NfsServer::new(DeceitFs::with_defaults(2));
        assert!(srv.node_is_up(NodeId(1)));
        srv.crash_node(NodeId(1));
        assert!(!srv.node_is_up(NodeId(1)));
        srv.restart_node(NodeId(1));
        srv.settle();
        assert!(srv.node_is_up(NodeId(1)));
        assert!(srv.protocol_now() >= SimTime::ZERO);
    }
}
