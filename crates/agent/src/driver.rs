//! The agent driver: RPC transport, caching, failover, shortcuts.

use bytes::Bytes;

use deceit_core::DeceitError;
use deceit_net::NodeId;
use deceit_nfs::{DirEntry, FileAttr, FileHandle, NfsError, NfsReply, NfsRequest, NfsServer};
use deceit_sim::SimDuration;

use crate::cache::{AttrCache, DataCache};
use crate::config::AgentConfig;

/// One client machine's agent.
///
/// The agent owns the client side of the NFS conversation: it serializes
/// requests over the (simulated) client link, tracks which server it is
/// connected to, maintains the §5.3 caches, and hides server failures from
/// the user process when failover is enabled.
#[derive(Debug)]
pub struct Agent {
    /// This client machine's network identity.
    pub id: NodeId,
    /// The server currently mounted.
    pub server: NodeId,
    cfg: AgentConfig,
    attrs: AttrCache,
    data: DataCache,
    lookups: std::collections::HashMap<(FileHandle, String), FileHandle>,
    locations: std::collections::HashMap<FileHandle, NodeId>,
    /// Failovers performed.
    pub failovers: u64,
    /// RPCs actually sent to a server.
    pub rpcs_sent: u64,
}

impl Agent {
    /// An agent on client machine `id`, initially connected to `server`.
    pub fn new(id: NodeId, server: NodeId, cfg: AgentConfig) -> Self {
        Agent {
            id,
            server,
            cfg,
            attrs: AttrCache::new(),
            data: DataCache::new(),
            lookups: std::collections::HashMap::new(),
            locations: std::collections::HashMap::new(),
            failovers: 0,
            rpcs_sent: 0,
        }
    }

    /// The agent configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.cfg
    }

    /// Attribute-cache statistics `(hits, misses)`.
    pub fn attr_cache_stats(&self) -> (u64, u64) {
        (self.attrs.hits, self.attrs.misses)
    }

    /// Data-cache statistics `(hits, misses)`.
    pub fn data_cache_stats(&self) -> (u64, u64) {
        (self.data.hits, self.data.misses)
    }

    /// The mount protocol: returns the root handle.
    pub fn mount(&mut self, srv: &NfsServer) -> FileHandle {
        srv.mount()
    }

    /// Sends one raw request, applying routing, failover, and link costs.
    /// Returns the reply and the full client-observed latency.
    pub fn rpc(&mut self, srv: &mut NfsServer, req: NfsRequest) -> (NfsReply, SimDuration) {
        let crossing = self.cfg.placement.crossing_cost() * 2;
        let mut target = self.route_for(&req);

        // Failover on a dead server (§2.1: "When one machine fails, Deceit
        // clients can connect to another machine and continue operation").
        if !srv.fs.cluster.net.is_up(target) {
            match self.fail_over(srv, target) {
                Some(next) => target = next,
                None => {
                    return (
                        NfsReply::Error(NfsError::Io(DeceitError::ServerDown(target))),
                        crossing,
                    )
                }
            }
        }

        let out = srv.fs.cluster.net.send(self.id, target, req.wire_size(), "nfs-rpc").latency();
        let Some(out) = out else {
            // Partitioned from the server: try any reachable one.
            match self.fail_over(srv, target) {
                Some(next) => {
                    let out2 = srv
                        .fs
                        .cluster
                        .net
                        .send(self.id, next, req.wire_size(), "nfs-rpc")
                        .latency()
                        .unwrap_or(SimDuration::ZERO);
                    return self.finish_rpc(srv, next, req, crossing + out2);
                }
                None => {
                    return (
                        NfsReply::Error(NfsError::Io(DeceitError::PeerUnreachable(target))),
                        crossing,
                    )
                }
            }
        };
        self.finish_rpc(srv, target, req, crossing + out)
    }

    fn finish_rpc(
        &mut self,
        srv: &mut NfsServer,
        target: NodeId,
        req: NfsRequest,
        cost_so_far: SimDuration,
    ) -> (NfsReply, SimDuration) {
        self.rpcs_sent += 1;
        let read_only = req.is_read_only();
        let (reply, server_lat) = srv.handle(target, req.clone());
        // A server that died mid-conversation surfaces as ServerDown;
        // reads are idempotent and retried once on another server.
        if let NfsReply::Error(NfsError::Io(DeceitError::ServerDown(_))) = reply {
            if read_only && self.cfg.failover {
                if let Some(next) = self.fail_over(srv, target) {
                    let (r2, l2) = srv.handle(next, req);
                    let back = srv
                        .fs
                        .cluster
                        .net
                        .send(next, self.id, r2.wire_size(), "nfs-rpc")
                        .latency()
                        .unwrap_or(SimDuration::ZERO);
                    return (r2, cost_so_far + l2 + back);
                }
            }
        }
        let back = srv
            .fs
            .cluster
            .net
            .send(target, self.id, reply.wire_size(), "nfs-rpc")
            .latency()
            .unwrap_or(SimDuration::ZERO);
        (reply, cost_so_far + server_lat + back)
    }

    fn route_for(&self, req: &NfsRequest) -> NodeId {
        if !self.cfg.shortcut {
            return self.server;
        }
        let fh = match req {
            NfsRequest::Getattr { fh }
            | NfsRequest::Read { fh, .. }
            | NfsRequest::Write { fh, .. }
            | NfsRequest::Readlink { fh } => Some(*fh),
            NfsRequest::Lookup { dir, .. } | NfsRequest::Readdir { dir } => Some(*dir),
            _ => None,
        };
        fh.and_then(|fh| self.locations.get(&fh.unpinned()).copied()).unwrap_or(self.server)
    }

    /// Connects to the lowest-numbered live server (clearing caches, whose
    /// coherence was tied to the old conversation).
    fn fail_over(&mut self, srv: &NfsServer, dead: NodeId) -> Option<NodeId> {
        if !self.cfg.failover {
            return None;
        }
        let next = srv
            .fs
            .cluster
            .server_ids()
            .into_iter()
            .find(|&s| s != dead && srv.fs.cluster.net.reachable(self.id, s))?;
        self.server = next;
        self.failovers += 1;
        self.attrs.clear();
        self.data.clear();
        self.lookups.clear();
        self.locations.clear();
        Some(next)
    }

    /// Primes the access shortcut for a file by asking where its replicas
    /// live (§5.3: "It is more efficient for the agent to cache file
    /// locations and directly communicate with the correct servers").
    pub fn prime_shortcut(&mut self, srv: &mut NfsServer, fh: FileHandle) -> SimDuration {
        let (reply, lat) = self.rpc(srv, NfsRequest::DeceitLocateReplicas { fh });
        if let NfsReply::Replicas(holders) = reply {
            if let Some(&first) = holders.first() {
                self.locations.insert(fh.unpinned(), first);
            }
        }
        lat
    }

    // ------------------------------------------------------------------
    // Cached high-level operations
    // ------------------------------------------------------------------

    /// `getattr` through the attribute cache.
    pub fn getattr(
        &mut self,
        srv: &mut NfsServer,
        fh: FileHandle,
    ) -> Result<(FileAttr, SimDuration), NfsError> {
        let now = srv.fs.cluster.now();
        if let Some(attr) = self.attrs.get(fh, now) {
            return Ok((attr, self.cfg.placement.crossing_cost()));
        }
        let (reply, lat) = self.rpc(srv, NfsRequest::Getattr { fh });
        match reply {
            NfsReply::Attr(attr) => {
                self.attrs.put(attr.clone(), now, self.cfg.attr_ttl);
                Ok((attr, lat))
            }
            other => Err(unexpected(other)),
        }
    }

    /// `lookup` through the handle cache.
    pub fn lookup(
        &mut self,
        srv: &mut NfsServer,
        dir: FileHandle,
        name: &str,
    ) -> Result<(FileAttr, SimDuration), NfsError> {
        if let Some(&fh) = self.lookups.get(&(dir, name.to_string())) {
            return self.getattr(srv, fh);
        }
        let (reply, lat) = self.rpc(srv, NfsRequest::Lookup { dir, name: name.to_string() });
        match reply {
            NfsReply::Attr(attr) => {
                let now = srv.fs.cluster.now();
                self.lookups.insert((dir, name.to_string()), attr.handle);
                self.attrs.put(attr.clone(), now, self.cfg.attr_ttl);
                Ok((attr, lat))
            }
            other => Err(unexpected(other)),
        }
    }

    /// Whole-file `read` through the data cache (validated by version).
    pub fn read_file(
        &mut self,
        srv: &mut NfsServer,
        fh: FileHandle,
    ) -> Result<(Bytes, SimDuration), NfsError> {
        let mut total = SimDuration::ZERO;
        if self.cfg.data_cache {
            let (attr, lat) = self.getattr(srv, fh)?;
            total += lat;
            if let Some(hit) = self.data.get(fh, attr.version) {
                return Ok((hit, total + self.cfg.placement.crossing_cost()));
            }
        }
        let (reply, lat) = self.rpc(srv, NfsRequest::Read { fh, offset: 0, count: usize::MAX / 2 });
        total += lat;
        match reply {
            NfsReply::Data(data) => {
                if self.cfg.data_cache {
                    if let Ok((attr, _)) = self.getattr(srv, fh) {
                        self.data.put(fh, attr.version, data.clone());
                    }
                }
                Ok((data, total))
            }
            other => Err(unexpected(other)),
        }
    }

    /// `write` (write-through; caches updated from the reply attributes).
    pub fn write(
        &mut self,
        srv: &mut NfsServer,
        fh: FileHandle,
        offset: usize,
        data: &[u8],
    ) -> Result<(FileAttr, SimDuration), NfsError> {
        let (reply, lat) =
            self.rpc(srv, NfsRequest::Write { fh, offset, data: Bytes::copy_from_slice(data) });
        match reply {
            NfsReply::Attr(attr) => {
                let now = srv.fs.cluster.now();
                self.attrs.put(attr.clone(), now, self.cfg.attr_ttl);
                self.data.invalidate(fh);
                Ok((attr, lat))
            }
            other => Err(unexpected(other)),
        }
    }

    /// `create` (invalidates the parent's cached state).
    pub fn create(
        &mut self,
        srv: &mut NfsServer,
        dir: FileHandle,
        name: &str,
        mode: u32,
    ) -> Result<(FileAttr, SimDuration), NfsError> {
        let (reply, lat) = self.rpc(srv, NfsRequest::Create { dir, name: name.to_string(), mode });
        match reply {
            NfsReply::Attr(attr) => {
                self.attrs.invalidate(dir);
                let now = srv.fs.cluster.now();
                self.attrs.put(attr.clone(), now, self.cfg.attr_ttl);
                self.lookups.insert((dir, name.to_string()), attr.handle);
                Ok((attr, lat))
            }
            other => Err(unexpected(other)),
        }
    }

    /// `readdir` (uncached; directories change under other clients).
    pub fn readdir(
        &mut self,
        srv: &mut NfsServer,
        dir: FileHandle,
    ) -> Result<(Vec<DirEntry>, SimDuration), NfsError> {
        let (reply, lat) = self.rpc(srv, NfsRequest::Readdir { dir });
        match reply {
            NfsReply::Entries(es) => Ok((es, lat)),
            other => Err(unexpected(other)),
        }
    }

    /// `mkdir` (invalidates the parent's cached attributes).
    pub fn mkdir(
        &mut self,
        srv: &mut NfsServer,
        dir: FileHandle,
        name: &str,
        mode: u32,
    ) -> Result<(FileAttr, SimDuration), NfsError> {
        let (reply, lat) = self.rpc(srv, NfsRequest::Mkdir { dir, name: name.to_string(), mode });
        match reply {
            NfsReply::Attr(attr) => {
                self.attrs.invalidate(dir);
                self.lookups.insert((dir, name.to_string()), attr.handle);
                Ok((attr, lat))
            }
            other => Err(unexpected(other)),
        }
    }

    /// `remove` (drops every cache entry touching the victim).
    pub fn remove(
        &mut self,
        srv: &mut NfsServer,
        dir: FileHandle,
        name: &str,
    ) -> Result<SimDuration, NfsError> {
        let victim = self.lookups.remove(&(dir, name.to_string()));
        let (reply, lat) = self.rpc(srv, NfsRequest::Remove { dir, name: name.to_string() });
        match reply {
            NfsReply::Void => {
                self.attrs.invalidate(dir);
                if let Some(fh) = victim {
                    self.attrs.invalidate(fh);
                    self.data.invalidate(fh);
                    self.locations.remove(&fh.unpinned());
                }
                Ok(lat)
            }
            other => Err(unexpected(other)),
        }
    }

    /// `setattr` (refreshes the attribute cache from the reply).
    pub fn setattr(
        &mut self,
        srv: &mut NfsServer,
        fh: FileHandle,
        mode: Option<u32>,
        size: Option<usize>,
    ) -> Result<(FileAttr, SimDuration), NfsError> {
        let (reply, lat) =
            self.rpc(srv, NfsRequest::Setattr { fh, mode, uid: None, gid: None, size });
        match reply {
            NfsReply::Attr(attr) => {
                let now = srv.fs.cluster.now();
                self.attrs.put(attr.clone(), now, self.cfg.attr_ttl);
                if size.is_some() {
                    self.data.invalidate(fh);
                }
                Ok((attr, lat))
            }
            other => Err(unexpected(other)),
        }
    }
}

/// What a reply that does not answer its request fails with: the
/// server's error as sent, or — for a reply of the wrong kind, a
/// protocol violation — an error naming it, reported rather than
/// panicked on.
fn unexpected(reply: NfsReply) -> NfsError {
    match reply {
        NfsReply::Error(e) => e,
        other => {
            NfsError::Io(DeceitError::InvalidCommand(format!("protocol violation: {other:?}")))
        }
    }
}
