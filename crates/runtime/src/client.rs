//! Client sessions: the NFS envelope over correlated RPC.
//!
//! A [`RuntimeClient`] is the live analogue of the simulator-side agent:
//! it speaks [`NfsRequest`]/[`NfsReply`] to server threads over the bus,
//! with three client-side mechanisms the paper's NFS clients had:
//!
//! * **retransmission-style failover** — a read-only request that times
//!   out or finds its server unreachable is retried against the other
//!   servers in the cell ("any server can serve any file", §2.2);
//! * **request pipelining** — [`RuntimeClient::submit`] sends without
//!   waiting and [`RuntimeClient::wait`] collects replies in any order,
//!   so a burst of independent operations overlaps server work with
//!   client think time;
//! * **write batching** — [`WriteBatch`] coalesces contiguous writes into
//!   single envelope requests and flushes the batch pipelined.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use deceit_core::FileParams;
use deceit_net::live::LiveBus;
use deceit_net::rpc::{CallId, RpcEndpoint};
use deceit_net::NodeId;
use deceit_nfs::{DirEntry, FileAttr, FileHandle, NfsReply, NfsRequest};
use deceit_sim::wall;

use crate::config::RetryPolicy;
use crate::error::{RuntimeError, RuntimeResult};
use crate::history::JournalHandle;
use crate::obs::RuntimeObs;
use crate::runtime::{ClientDirectory, NfsFrame};

/// One live client session.
pub struct RuntimeClient {
    rpc: RpcEndpoint<NfsRequest, NfsReply>,
    home: NodeId,
    servers: Vec<NodeId>,
    dir: Arc<ClientDirectory>,
    bus: LiveBus<NfsFrame>,
    timeout: Duration,
    root: FileHandle,
    /// Shared runtime observability: completed calls record their
    /// end-to-end latency here, bucketed by op class.
    obs: Arc<RuntimeObs>,
    /// Failover shaping: budget + jittered exponential backoff.
    retry: RetryPolicy,
    /// xorshift64 state for backoff jitter, seeded per session.
    jitter: u64,
    /// Consistency-audit journal: when attached, every `call`/`call_via`
    /// records its invoke/ack pair into the storm history.
    journal: Option<JournalHandle>,
    /// How many times a read-only request failed over to another server.
    pub failovers: u64,
}

impl RuntimeClient {
    #[expect(
        clippy::too_many_arguments,
        reason = "a session is built once, by `ClusterRuntime`, from its parts"
    )]
    pub(crate) fn new(
        rpc: RpcEndpoint<NfsRequest, NfsReply>,
        home: NodeId,
        servers: Vec<NodeId>,
        dir: Arc<ClientDirectory>,
        bus: LiveBus<NfsFrame>,
        timeout: Duration,
        root: FileHandle,
        obs: Arc<RuntimeObs>,
        retry: RetryPolicy,
    ) -> Self {
        let jitter = 0x9E37_79B9_7F4A_7C15 ^ (u64::from(rpc.node().0) << 17) | 1;
        RuntimeClient {
            rpc,
            home,
            servers,
            dir,
            bus,
            timeout,
            root,
            obs,
            retry,
            jitter,
            journal: None,
            failovers: 0,
        }
    }

    /// Attaches a consistency-audit journal: from here on every request
    /// this session sends is recorded as an invoke/ack pair.
    pub fn record_into(&mut self, journal: JournalHandle) {
        self.journal = Some(journal);
    }

    /// This session's node id on the bus.
    pub fn node(&self) -> NodeId {
        self.rpc.node()
    }

    /// The server this session currently sends to.
    pub fn home(&self) -> NodeId {
        self.home
    }

    /// Re-homes the session onto another server. Under an active
    /// partition this also moves the session to its new home's side of
    /// the split.
    pub fn set_home(&mut self, server: NodeId) {
        assert!(self.servers.contains(&server), "no such server {server}");
        self.home = server;
        self.dir.set_home(self.node(), server, &self.bus);
    }

    /// The root directory handle (what the mount protocol returned).
    pub fn root(&self) -> FileHandle {
        self.root
    }

    // ------------------------------------------------------------------
    // Raw request plumbing
    // ------------------------------------------------------------------

    /// Sends a request to the home server without waiting — the
    /// pipelining primitive. Pair with [`RuntimeClient::wait`].
    pub fn submit(&mut self, req: NfsRequest) -> RuntimeResult<CallId> {
        let home = self.home;
        Ok(self.rpc.submit(home, req)?)
    }

    /// Collects the reply to one pipelined call; other replies arriving
    /// meanwhile are buffered for their own `wait`.
    pub fn wait(&mut self, call: CallId) -> RuntimeResult<NfsReply> {
        Ok(self.rpc.wait(call, self.timeout)?)
    }

    /// Abandons a pipelined call: its reply, if one ever arrives, is
    /// dropped instead of buffered against this session.
    pub fn forget(&mut self, call: CallId) {
        self.rpc.forget(call);
    }

    /// Sends a request to a specific server and waits — no failover.
    /// The deterministic primitive the scenario runner uses.
    pub fn call_via(&mut self, server: NodeId, req: NfsRequest) -> RuntimeResult<NfsReply> {
        let class = req.class();
        let start = wall::now();
        let op = self.journal.as_ref().map(|j| j.invoke(&req));
        let deadline = start.checked_add(self.timeout);
        let result = self.rpc.call_until(server, req, deadline).map_err(RuntimeError::from);
        if let (Some(j), Some(op)) = (self.journal.as_ref(), op) {
            j.ack(op, &result);
        }
        let rep = result?;
        self.obs.record_op(class, wall::since(start));
        Ok(rep)
    }

    /// Sends a request to the home server and waits for the reply.
    ///
    /// If the transport fails (home crashed, partitioned away, or
    /// silent) and the request is read-only — always safe to retry —
    /// the call fails over, sweeping the other servers under jittered
    /// exponential backoff until the session's retry budget runs out,
    /// and re-homing on the first server that answers. Mutating requests
    /// surface the transport error: blind retransmission could
    /// double-apply them.
    pub fn call(&mut self, req: NfsRequest) -> RuntimeResult<NfsReply> {
        let op = self.journal.as_ref().map(|j| j.invoke(&req));
        let result = self.call_failover(req);
        if let (Some(j), Some(op)) = (self.journal.as_ref(), op) {
            j.ack(op, &result);
        }
        result
    }

    fn call_failover(&mut self, req: NfsRequest) -> RuntimeResult<NfsReply> {
        // Latency is recorded per op class on success, failover legs
        // included — the client-visible request/reply boundary. The
        // first of its two stamps also fixes the home server's deadline
        // (`None` if the sum overflows: no deadline); between them only
        // a park reads the clock.
        let class = req.class();
        let start = wall::now();
        let deadline = start.checked_add(self.timeout);
        if !req.is_read_only() {
            // Never retried, so never cloned: write payloads move
            // straight to the wire.
            let rep = self.rpc.call_until(self.home, req, deadline)?;
            self.obs.record_op(class, wall::since(start));
            return Ok(rep);
        }
        match self.rpc.call_until(self.home, req.clone(), deadline) {
            Ok(rep) => {
                self.obs.record_op(class, wall::since(start));
                Ok(rep)
            }
            // UnknownCall cannot come out of a fresh call(); treat any
            // transport failure as grounds for read-only failover.
            Err(err) => {
                let others: Vec<NodeId> =
                    self.servers.iter().copied().filter(|&s| s != self.home).collect();
                if others.is_empty() {
                    return Err(err.into());
                }
                let mut backoff = self.retry.base;
                let mut spent: u32 = 0;
                loop {
                    for &server in &others {
                        if spent >= self.retry.budget {
                            self.obs.failover_exhausted.fetch_add(1);
                            return Err(err.into());
                        }
                        spent += 1;
                        self.obs.failover_retries.fetch_add(1);
                        if let Ok(rep) = self.rpc.call(server, req.clone(), self.timeout) {
                            self.failovers += 1;
                            self.set_home(server);
                            self.obs.record_op(class, wall::since(start));
                            return Ok(rep);
                        }
                    }
                    // A whole sweep found nobody: sleep a jittered slice
                    // of the current backoff so failed-over sessions
                    // spread out, then double it toward the ceiling.
                    std::thread::sleep(self.jittered(backoff));
                    backoff = (backoff * 2).min(self.retry.max);
                }
            }
        }
    }

    /// Uniform jitter in `[d/2, d]`, from the session-local xorshift64.
    fn jittered(&mut self, d: Duration) -> Duration {
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let micros = d.as_micros().max(2) as u64;
        Duration::from_micros(micros / 2 + self.jitter % (micros / 2 + 1))
    }

    // ------------------------------------------------------------------
    // The NFS envelope, typed
    // ------------------------------------------------------------------

    /// NFSPROC_NULL — ping the home server.
    pub fn null(&mut self) -> RuntimeResult<()> {
        match self.call(NfsRequest::Null)? {
            NfsReply::Void => Ok(()),
            rep => Err(unexpected(rep, "Void")),
        }
    }

    /// Creates a file in `dir`.
    pub fn create(&mut self, dir: FileHandle, name: &str, mode: u32) -> RuntimeResult<FileAttr> {
        expect_attr(self.call(NfsRequest::Create { dir, name: name.into(), mode })?)
    }

    /// Creates a directory in `dir`.
    pub fn mkdir(&mut self, dir: FileHandle, name: &str, mode: u32) -> RuntimeResult<FileAttr> {
        expect_attr(self.call(NfsRequest::Mkdir { dir, name: name.into(), mode })?)
    }

    /// Looks `name` up in `dir`.
    pub fn lookup(&mut self, dir: FileHandle, name: &str) -> RuntimeResult<FileAttr> {
        expect_attr(self.call(NfsRequest::Lookup { dir, name: name.into() })?)
    }

    /// Attributes of `fh`.
    pub fn getattr(&mut self, fh: FileHandle) -> RuntimeResult<FileAttr> {
        expect_attr(self.call(NfsRequest::Getattr { fh })?)
    }

    /// Reads up to `count` bytes at `offset`.
    pub fn read(&mut self, fh: FileHandle, offset: usize, count: usize) -> RuntimeResult<Bytes> {
        match self.call(NfsRequest::Read { fh, offset, count })? {
            NfsReply::Data(data) => Ok(data),
            rep => Err(unexpected(rep, "Data")),
        }
    }

    /// Writes `data` at `offset`. Copies the slice once, into the
    /// refcounted request payload; the serving thread copies it once
    /// more, into the new segment image every replica then shares.
    pub fn write(&mut self, fh: FileHandle, offset: usize, data: &[u8]) -> RuntimeResult<FileAttr> {
        self.write_bytes(fh, offset, Bytes::copy_from_slice(data))
    }

    /// Writes an already-refcounted payload at `offset`: retries and
    /// queueing hand the same buffer to the serving thread, whose build
    /// of the new segment image is then the only copy made of it.
    pub fn write_bytes(
        &mut self,
        fh: FileHandle,
        offset: usize,
        data: Bytes,
    ) -> RuntimeResult<FileAttr> {
        expect_attr(self.call(NfsRequest::Write { fh, offset, data })?)
    }

    /// Removes `name` from `dir`.
    pub fn remove(&mut self, dir: FileHandle, name: &str) -> RuntimeResult<()> {
        match self.call(NfsRequest::Remove { dir, name: name.into() })? {
            NfsReply::Void => Ok(()),
            rep => Err(unexpected(rep, "Void")),
        }
    }

    /// Lists `dir`.
    pub fn readdir(&mut self, dir: FileHandle) -> RuntimeResult<Vec<DirEntry>> {
        match self.call(NfsRequest::Readdir { dir })? {
            NfsReply::Entries(es) => Ok(es),
            rep => Err(unexpected(rep, "Entries")),
        }
    }

    /// Deceit extension: sets per-file semantic parameters (§4).
    pub fn set_file_params(&mut self, fh: FileHandle, params: FileParams) -> RuntimeResult<()> {
        match self.call(NfsRequest::DeceitSetParams { fh, params })? {
            NfsReply::Void => Ok(()),
            rep => Err(unexpected(rep, "Void")),
        }
    }

    /// Deceit extension: reads per-file semantic parameters.
    pub fn file_params(&mut self, fh: FileHandle) -> RuntimeResult<FileParams> {
        match self.call(NfsRequest::DeceitGetParams { fh })? {
            NfsReply::Params(p) => Ok(p),
            rep => Err(unexpected(rep, "Params")),
        }
    }

    /// Deceit extension: where the replicas of `fh` live.
    pub fn locate_replicas(&mut self, fh: FileHandle) -> RuntimeResult<Vec<NodeId>> {
        match self.call(NfsRequest::DeceitLocateReplicas { fh })? {
            NfsReply::Replicas(rs) => Ok(rs),
            rep => Err(unexpected(rep, "Replicas")),
        }
    }

    /// Starts a coalescing write batch against `fh`.
    pub fn batch(&self, fh: FileHandle) -> WriteBatch {
        WriteBatch::new(fh)
    }
}

impl Drop for RuntimeClient {
    fn drop(&mut self) {
        self.dir.forget(self.node());
    }
}

/// A client-side write buffer that coalesces contiguous writes and
/// flushes them as one pipelined burst.
///
/// The paper's traces show files "written in their entirety in one
/// sequential burst of writes" (§2.3); batching turns that burst into a
/// handful of envelope requests instead of one per client `write(2)`.
#[derive(Debug, Clone)]
pub struct WriteBatch {
    fh: FileHandle,
    runs: Vec<(usize, Vec<u8>)>,
}

impl WriteBatch {
    /// An empty batch against `fh`.
    pub fn new(fh: FileHandle) -> Self {
        WriteBatch { fh, runs: Vec::new() }
    }

    /// Adds one write; contiguous with the previous one, it extends the
    /// same run instead of becoming a new request.
    pub fn push(&mut self, offset: usize, data: &[u8]) {
        if let Some((start, buf)) = self.runs.last_mut() {
            if *start + buf.len() == offset {
                buf.extend_from_slice(data);
                return;
            }
        }
        self.runs.push((offset, data.to_vec()));
    }

    /// Requests this batch will issue when flushed.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the batch holds no writes.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total buffered bytes.
    pub fn bytes(&self) -> usize {
        self.runs.iter().map(|(_, d)| d.len()).sum()
    }

    /// Sends every run pipelined through `client`, then waits for all
    /// replies. Returns the attributes from the last write, or the first
    /// error (remaining replies are still collected so the session stays
    /// clean).
    pub fn flush(self, client: &mut RuntimeClient) -> RuntimeResult<Option<FileAttr>> {
        let mut calls = Vec::with_capacity(self.runs.len());
        for (offset, data) in self.runs {
            // The coalesced run moves into the refcounted payload; no
            // per-hop copies from here to the serving thread.
            match client.submit(NfsRequest::Write { fh: self.fh, offset, data: data.into() }) {
                Ok(call) => calls.push(call),
                Err(e) => {
                    // Abandon what was already pipelined so the session
                    // doesn't account (or buffer replies) for calls no
                    // one will ever wait on.
                    for call in calls {
                        client.forget(call);
                    }
                    return Err(e);
                }
            }
        }
        let mut last = None;
        let mut first_err = None;
        let mut calls = calls.into_iter();
        for call in calls.by_ref() {
            match client.wait(call).and_then(expect_attr) {
                Ok(attr) => last = Some(attr),
                Err(e @ RuntimeError::Rpc(_)) => {
                    // Transport death: the remaining replies cannot
                    // arrive either, so abandon them instead of burning
                    // a full timeout per call. An NFS error seen before
                    // the transport died is still the first error.
                    for rest in calls {
                        client.forget(rest);
                    }
                    return Err(first_err.unwrap_or(e));
                }
                Err(e) if first_err.is_none() => first_err = Some(e),
                Err(_) => {}
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(last),
        }
    }
}

/// Extracts attributes or surfaces the server-side error.
pub(crate) fn expect_attr(rep: NfsReply) -> RuntimeResult<FileAttr> {
    match rep {
        NfsReply::Attr(attr) => Ok(attr),
        rep => Err(unexpected(rep, "Attr")),
    }
}

/// Maps an error reply to [`RuntimeError::Nfs`], anything else to a
/// protocol error naming the wanted variant.
pub(crate) fn unexpected(rep: NfsReply, wanted: &'static str) -> RuntimeError {
    match rep {
        NfsReply::Error(e) => RuntimeError::Nfs(e),
        _ => RuntimeError::UnexpectedReply(wanted),
    }
}
