//! The agent driver: routing, caching, failover, shortcuts — over any
//! [`AgentLink`].

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;

use deceit_core::{DeceitError, FileParams, VersionPair};
use deceit_net::NodeId;
use deceit_nfs::{DirEntry, FileAttr, FileHandle, NfsError, NfsReply, NfsRequest};
use deceit_sim::{SimDuration, SimTime};

use crate::cache::Cache;
use crate::config::AgentConfig;
use crate::link::{AgentLink, Failover, Leg, Timed, Undelivered};

/// How long a failover waits between its two sweeps over the other
/// servers (jittered to within `[d/2, d]`).
const FAILOVER_BACKOFF: Duration = Duration::from_micros(500);

/// One client machine's agent.
///
/// The agent owns the client side of the NFS conversation: it routes
/// requests over an [`AgentLink`], tracks which server it is connected
/// to, maintains the §5.3 caches, and hides server failures from the
/// user process when failover is enabled.
#[derive(Debug)]
pub struct Agent {
    /// This client machine's network identity.
    pub id: NodeId,
    /// The server currently mounted.
    pub server: NodeId,
    cfg: AgentConfig,
    /// Attributes, each valid until its expiry.
    attrs: Cache<FileHandle, FileAttr, SimTime>,
    /// Whole-file contents, each valid while its version is current.
    data: Cache<FileHandle, Bytes, VersionPair>,
    /// Name bindings, expiring like the attributes they point at.
    lookups: Cache<(FileHandle, String), FileHandle, SimTime>,
    locations: HashMap<FileHandle, NodeId>,
    /// xorshift64 state for the failover backoff's jitter.
    jitter: u64,
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
            attrs: Cache::default(),
            data: Cache::default(),
            lookups: Cache::default(),
            locations: HashMap::new(),
            jitter: 0x9E37_79B9_7F4A_7C15 ^ (u64::from(id.0) << 17) | 1,
            failovers: 0,
            rpcs_sent: 0,
        }
    }

    /// Attribute-cache statistics `(hits, misses)`.
    pub fn attr_cache_stats(&self) -> (u64, u64) {
        (self.attrs.hits, self.attrs.misses)
    }

    /// Data-cache statistics `(hits, misses)`.
    pub fn data_cache_stats(&self) -> (u64, u64) {
        (self.data.hits, self.data.misses)
    }

    /// Sends one raw request, applying routing, failover, and link costs:
    /// the reply (a server-side error is an `NfsReply::Error`) and the
    /// client-observed latency, or `Err` if no server answered.
    ///
    /// Failover (§2.1: "When one machine fails, Deceit clients can
    /// connect to another machine and continue operation"): a refused
    /// send moves to the next server in ascending order (nothing was
    /// delivered, so mutations too), a read-only request also when its
    /// reply was lost or said the server was down. Two sweeps, a jittered
    /// backoff between them; the first server to answer is kept.
    pub fn rpc<L: AgentLink>(&mut self, link: &mut L, req: NfsRequest) -> Timed<NfsReply, L> {
        let target = self.route_for(&req);
        let read_only = req.is_read_only();
        let spare = self.cfg.failover.then(|| req.clone());
        let mut spent = self.cfg.placement.crossing_cost() * 2;
        let err = match self.leg(link, target, req, &mut spent) {
            Ok(done) => return Ok(done),
            Err(Undelivered::Lost(err)) if !read_only => return Err(err),
            Err(Undelivered::Refused(err) | Undelivered::Lost(err)) => err,
        };
        // Nowhere to move: failover is off, or the cell has no other server.
        let others: Vec<NodeId> = link.servers().into_iter().filter(|&s| s != target).collect();
        let Some(req) = spare.filter(|_| !others.is_empty()) else { return Err(err) };
        for sweep in 0..2 {
            if sweep == 1 {
                let pause = self.jittered(FAILOVER_BACKOFF);
                link.failover(Failover::Backoff(pause));
            }
            for &next in &others {
                link.failover(Failover::Retry);
                match self.leg(link, next, req.clone(), &mut spent) {
                    Ok(done) => {
                        self.fail_over(link, next)?;
                        return Ok(done);
                    }
                    Err(Undelivered::Lost(err)) if !read_only => return Err(err),
                    Err(_) => {}
                }
            }
        }
        link.failover(Failover::Exhausted);
        Err(err)
    }

    /// One leg of `req` to `to`, its cost added to `spent`. A server that
    /// died mid-conversation loses a read-only request, which may move on.
    fn leg<L: AgentLink>(
        &mut self,
        link: &mut L,
        to: NodeId,
        req: NfsRequest,
        spent: &mut SimDuration,
    ) -> Leg<L::Error> {
        let read_only = req.is_read_only();
        let (reply, cost) = link.send(self.id, to, req)?;
        self.rpcs_sent += 1;
        *spent += cost;
        match reply {
            NfsReply::Error(NfsError::Io(DeceitError::ServerDown(s))) if read_only => {
                Err(Undelivered::Lost(NfsError::Io(DeceitError::ServerDown(s)).into()))
            }
            reply => Ok((reply, *spent)),
        }
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

    /// Connects to `next`, which just answered (clearing caches, whose
    /// coherence was tied to the old conversation).
    fn fail_over<L: AgentLink>(&mut self, link: &mut L, next: NodeId) -> Result<(), L::Error> {
        link.rehome(next)?;
        self.server = next;
        self.failovers += 1;
        self.attrs.clear();
        self.data.clear();
        self.lookups.clear();
        self.locations.clear();
        Ok(())
    }

    /// Uniform jitter in `[d/2, d]`, from the agent's xorshift64, so
    /// agents that failed over together spread out.
    fn jittered(&mut self, d: Duration) -> Duration {
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let micros = d.as_micros().max(2) as u64;
        Duration::from_micros(micros / 2 + self.jitter % (micros / 2 + 1))
    }

    /// Primes the access shortcut for a file by asking where its replicas
    /// live (§5.3: "It is more efficient for the agent to cache file
    /// locations and directly communicate with the correct servers").
    pub fn prime_shortcut<L: AgentLink>(
        &mut self,
        link: &mut L,
        fh: FileHandle,
    ) -> Result<SimDuration, L::Error> {
        let (holders, lat) = self.locate_replicas(link, fh)?;
        if let Some(&first) = holders.first() {
            self.locations.insert(fh.unpinned(), first);
        }
        Ok(lat)
    }

    // ------------------------------------------------------------------
    // Cached high-level operations
    // ------------------------------------------------------------------

    /// Caches `attr`, learned at `now`, until `attr_ttl` has passed.
    fn remember(&mut self, attr: &FileAttr, now: SimTime) {
        self.attrs.put(attr.handle, attr.clone(), now + self.cfg.attr_ttl);
    }

    /// `getattr` through the attribute cache.
    pub fn getattr<L: AgentLink>(&mut self, link: &mut L, fh: FileHandle) -> Timed<FileAttr, L> {
        let now = link.now();
        if let Some(attr) = self.attrs.get(&fh, |&expiry| expiry > now) {
            return Ok((attr, self.cfg.placement.crossing_cost()));
        }
        match self.rpc(link, NfsRequest::Getattr { fh })? {
            (NfsReply::Attr(attr), lat) => {
                self.remember(&attr, now);
                Ok((attr, lat))
            }
            (other, _) => Err(unexpected(other)),
        }
    }

    /// `lookup` through the handle cache.
    pub fn lookup<L: AgentLink>(
        &mut self,
        link: &mut L,
        dir: FileHandle,
        name: &str,
    ) -> Timed<FileAttr, L> {
        let key = (dir, name.to_string());
        if let Some(fh) = self.lookups.get(&key, |&expiry| expiry > link.now()) {
            return self.getattr(link, fh);
        }
        match self.rpc(link, NfsRequest::Lookup { dir, name: name.to_string() })? {
            (NfsReply::Attr(attr), lat) => {
                let now = link.now();
                self.lookups.put(key, attr.handle, now + self.cfg.attr_ttl);
                self.remember(&attr, now);
                Ok((attr, lat))
            }
            (other, _) => Err(unexpected(other)),
        }
    }

    /// Whole-file `read` through the data cache (validated by version).
    pub fn read_file<L: AgentLink>(&mut self, link: &mut L, fh: FileHandle) -> Timed<Bytes, L> {
        let mut total = SimDuration::ZERO;
        if self.cfg.data_cache {
            let (attr, lat) = self.getattr(link, fh)?;
            total += lat;
            if let Some(hit) = self.data.get(&fh, |&version| version == attr.version) {
                return Ok((hit, total + self.cfg.placement.crossing_cost()));
            }
        }
        match self.rpc(link, NfsRequest::Read { fh, offset: 0, count: usize::MAX / 2 })? {
            (NfsReply::Data(data), lat) => {
                if self.cfg.data_cache {
                    if let Ok((attr, _)) = self.getattr(link, fh) {
                        self.data.put(fh, data.clone(), attr.version);
                    }
                }
                Ok((data, total + lat))
            }
            (other, _) => Err(unexpected(other)),
        }
    }

    /// `write` (write-through; caches updated from the reply attributes).
    pub fn write<L: AgentLink>(
        &mut self,
        link: &mut L,
        fh: FileHandle,
        offset: usize,
        data: &[u8],
    ) -> Timed<FileAttr, L> {
        let data = Bytes::copy_from_slice(data);
        match self.rpc(link, NfsRequest::Write { fh, offset, data })? {
            (NfsReply::Attr(attr), lat) => {
                self.remember(&attr, link.now());
                self.data.invalidate(&fh);
                Ok((attr, lat))
            }
            (other, _) => Err(unexpected(other)),
        }
    }

    /// `create` (invalidates the parent's cached state).
    pub fn create<L: AgentLink>(
        &mut self,
        link: &mut L,
        dir: FileHandle,
        name: &str,
        mode: u32,
    ) -> Timed<FileAttr, L> {
        match self.rpc(link, NfsRequest::Create { dir, name: name.to_string(), mode })? {
            (NfsReply::Attr(attr), lat) => {
                self.attrs.invalidate(&dir);
                let now = link.now();
                self.remember(&attr, now);
                self.lookups.put((dir, name.to_string()), attr.handle, now + self.cfg.attr_ttl);
                Ok((attr, lat))
            }
            (other, _) => Err(unexpected(other)),
        }
    }

    /// `readdir` (uncached; directories change under other clients).
    pub fn readdir<L: AgentLink>(
        &mut self,
        link: &mut L,
        dir: FileHandle,
    ) -> Timed<Vec<DirEntry>, L> {
        match self.rpc(link, NfsRequest::Readdir { dir })? {
            (NfsReply::Entries(es), lat) => Ok((es, lat)),
            (other, _) => Err(unexpected(other)),
        }
    }

    /// `mkdir` (invalidates the parent's cached attributes).
    pub fn mkdir<L: AgentLink>(
        &mut self,
        link: &mut L,
        dir: FileHandle,
        name: &str,
        mode: u32,
    ) -> Timed<FileAttr, L> {
        match self.rpc(link, NfsRequest::Mkdir { dir, name: name.to_string(), mode })? {
            (NfsReply::Attr(attr), lat) => {
                self.attrs.invalidate(&dir);
                let expiry = link.now() + self.cfg.attr_ttl;
                self.lookups.put((dir, name.to_string()), attr.handle, expiry);
                Ok((attr, lat))
            }
            (other, _) => Err(unexpected(other)),
        }
    }

    /// `remove` (drops every cache entry touching the victim).
    pub fn remove<L: AgentLink>(
        &mut self,
        link: &mut L,
        dir: FileHandle,
        name: &str,
    ) -> Result<SimDuration, L::Error> {
        let victim = self.lookups.invalidate(&(dir, name.to_string()));
        match self.rpc(link, NfsRequest::Remove { dir, name: name.to_string() })? {
            (NfsReply::Void, lat) => {
                self.attrs.invalidate(&dir);
                if let Some(fh) = victim {
                    self.attrs.invalidate(&fh);
                    self.data.invalidate(&fh);
                    self.locations.remove(&fh.unpinned());
                }
                Ok(lat)
            }
            (other, _) => Err(unexpected(other)),
        }
    }

    /// `setattr` (refreshes the attribute cache from the reply).
    pub fn setattr<L: AgentLink>(
        &mut self,
        link: &mut L,
        fh: FileHandle,
        mode: Option<u32>,
        size: Option<usize>,
    ) -> Timed<FileAttr, L> {
        match self.rpc(link, NfsRequest::Setattr { fh, mode, uid: None, gid: None, size })? {
            (NfsReply::Attr(attr), lat) => {
                self.remember(&attr, link.now());
                if size.is_some() {
                    self.data.invalidate(&fh);
                }
                Ok((attr, lat))
            }
            (other, _) => Err(unexpected(other)),
        }
    }

    /// Deceit extension: sets per-file semantic parameters (§4).
    pub fn set_file_params<L: AgentLink>(
        &mut self,
        link: &mut L,
        fh: FileHandle,
        params: FileParams,
    ) -> Result<SimDuration, L::Error> {
        match self.rpc(link, NfsRequest::DeceitSetParams { fh, params })? {
            (NfsReply::Void, lat) => Ok(lat),
            (other, _) => Err(unexpected(other)),
        }
    }

    /// Deceit extension: where the replicas of `fh` live.
    pub fn locate_replicas<L: AgentLink>(
        &mut self,
        link: &mut L,
        fh: FileHandle,
    ) -> Timed<Vec<NodeId>, L> {
        match self.rpc(link, NfsRequest::DeceitLocateReplicas { fh })? {
            (NfsReply::Replicas(holders), lat) => Ok((holders, lat)),
            (other, _) => Err(unexpected(other)),
        }
    }
}

/// What a reply that does not answer its request fails with: the
/// server's error as sent, or — for a reply of the wrong kind, a
/// protocol violation — an error naming it, reported rather than
/// panicked on.
fn unexpected<E: From<NfsError>>(reply: NfsReply) -> E {
    match reply {
        NfsReply::Error(e) => e.into(),
        other => {
            NfsError::Io(DeceitError::InvalidCommand(format!("protocol violation: {other:?}")))
                .into()
        }
    }
}
