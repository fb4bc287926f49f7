//! One harness for both worlds: the deterministic simulator and the
//! live runtime behind the same three calls.
//!
//! A [`World`] takes an [`NfsRequest`] from a numbered client session to
//! a named server, applies a [`FaultEvent`] (crash, restart, split,
//! heal, settle) to the whole cell, and dumps its protocol flight
//! recorder. [`crate::Scenario`] scripts, the nemesis storms and the
//! differential tests are written once against it:
//!
//! * [`SimWorld`] serves every request through [`NfsServer::handle`],
//!   the request table the live servers dispatch to, on one thread and
//!   in call order — same calls, same bytes, every run;
//! * [`LiveWorld`] is a [`ClusterRuntime`] plus its client sessions;
//!   a call is [`RuntimeClient::call_via`] over the threaded bus.
//!
//! Both journal a recording session's calls the same way (invoke before
//! the request is served, ack after), and both answer a call to a
//! crashed server with [`RpcError::Unreachable`]: the bus refuses the
//! send live, and the simulator refuses it without touching the cell.
//! An agent drives a session's [`World::link`], so agent tests too are
//! written once.

use std::collections::BTreeSet;

use bytes::Bytes;
use deceit_agent::AgentLink;
use deceit_core::FaultEvent;
use deceit_net::rpc::RpcError;
use deceit_net::NodeId;
use deceit_nfs::{DeceitFs, FileAttr, FileHandle, NfsReply, NfsRequest, NfsServer};

use crate::client::RuntimeClient;
use crate::config::RuntimeConfig;
use crate::error::{expect_attr, unexpected, RuntimeResult};
use crate::history::JournalHandle;
use crate::runtime::ClusterRuntime;

/// A cell that scripts and storms drive without knowing which world it
/// is. Sessions are numbered from 0 up to the count the world was
/// built with.
pub trait World {
    /// Sends `req` from `session` to server `via` and waits for the
    /// reply: no failover, so a script names exactly where each request
    /// lands. A server-side error is an `Ok(NfsReply::Error(_))`.
    fn call(&mut self, session: usize, via: NodeId, req: NfsRequest) -> RuntimeResult<NfsReply>;

    /// Applies one fault to the whole cell.
    fn fault(&mut self, fault: &FaultEvent);

    /// The protocol flight recorder: the last events each server acted in.
    fn flight(&self) -> String;

    /// The servers crashed and not yet restarted.
    fn down(&self) -> BTreeSet<u32>;

    /// The root directory handle.
    fn root(&self) -> FileHandle;

    /// From here on, journals every call `session` makes into `journal`.
    fn record_into(&mut self, session: usize, journal: JournalHandle);

    /// The transport an agent on `session` sends over: the live session,
    /// or the simulated cell's `NfsServer` (shared; charges the network).
    type Link: AgentLink<Error: std::fmt::Debug>;
    fn link(&mut self, session: usize) -> &mut Self::Link;
}

/// The simulated cell: one [`NfsServer`] serving each call in order.
pub struct SimWorld {
    /// The cell, behind the request table.
    pub(crate) server: NfsServer,
    journals: Vec<Option<JournalHandle>>,
}

impl SimWorld {
    /// The cell [`ClusterRuntime::start`] builds from `cfg` (its
    /// servers, cluster and envelope settings, and shard count), with
    /// `sessions` client sessions.
    pub fn new(cfg: &RuntimeConfig, sessions: usize) -> Self {
        let cluster = cfg.cluster.clone().with_shards(cfg.shards);
        let fs = DeceitFs::new(cfg.servers, cluster, cfg.fs.clone());
        SimWorld { server: NfsServer::new(fs), journals: (0..sessions).map(|_| None).collect() }
    }
}

impl World for SimWorld {
    fn call(&mut self, session: usize, via: NodeId, req: NfsRequest) -> RuntimeResult<NfsReply> {
        let journal = self.journals[session].as_ref();
        let op = journal.map(|j| j.invoke(&req));
        let result = if !self.server.fs.cluster.net.is_up(via) {
            Err(RpcError::Unreachable(via).into())
        } else {
            Ok(self.server.handle(via, req).0)
        };
        if let (Some(j), Some(op)) = (journal, op) {
            j.ack(op, &result);
        }
        result
    }

    fn fault(&mut self, fault: &FaultEvent) {
        let cluster = &mut self.server.fs.cluster;
        match fault {
            FaultEvent::Crash { server } => cluster.crash_server(NodeId(*server)),
            FaultEvent::Restart { server } => cluster.recover_server(NodeId(*server)),
            FaultEvent::Split { groups } => {
                let groups = node_groups(groups);
                cluster.split(&groups.iter().map(Vec::as_slice).collect::<Vec<_>>());
            }
            FaultEvent::Heal => cluster.heal(),
            FaultEvent::Settle => cluster.run_until_quiet(),
        }
    }

    fn flight(&self) -> String {
        self.server.fs.cluster.obs.flight.dump()
    }

    fn down(&self) -> BTreeSet<u32> {
        let cluster = &self.server.fs.cluster;
        cluster.server_ids().into_iter().filter(|&s| !cluster.net.is_up(s)).map(|s| s.0).collect()
    }

    fn root(&self) -> FileHandle {
        self.server.mount()
    }

    fn record_into(&mut self, session: usize, journal: JournalHandle) {
        self.journals[session] = Some(journal);
    }

    type Link = NfsServer;
    fn link(&mut self, _session: usize) -> &mut NfsServer {
        &mut self.server
    }
}

/// The live cell: server threads over the bus, and the sessions that
/// call them. Sessions are dropped before the runtime shuts down.
pub struct LiveWorld {
    /// Client sessions, homed round-robin over the servers.
    pub(crate) sessions: Vec<RuntimeClient>,
    /// The running cell.
    pub rt: ClusterRuntime,
}

impl LiveWorld {
    /// Starts a cell under `cfg` and opens `sessions` client sessions.
    pub fn start(cfg: RuntimeConfig, sessions: usize) -> Self {
        let rt = ClusterRuntime::start(cfg);
        LiveWorld { sessions: (0..sessions).map(|_| rt.client()).collect(), rt }
    }
}

impl World for LiveWorld {
    fn call(&mut self, session: usize, via: NodeId, req: NfsRequest) -> RuntimeResult<NfsReply> {
        self.sessions[session].call_via(via, req)
    }

    fn fault(&mut self, fault: &FaultEvent) {
        self.rt.fault(fault);
    }

    fn flight(&self) -> String {
        self.rt.dump_flight_recorder()
    }

    fn down(&self) -> BTreeSet<u32> {
        self.rt.server_ids().iter().filter(|&&s| self.rt.is_crashed(s)).map(|s| s.0).collect()
    }

    fn root(&self) -> FileHandle {
        self.sessions[0].root()
    }

    fn record_into(&mut self, session: usize, journal: JournalHandle) {
        self.sessions[session].record_into(journal);
    }

    type Link = RuntimeClient;
    fn link(&mut self, session: usize) -> &mut RuntimeClient {
        &mut self.sessions[session]
    }
}

pub(crate) fn node_groups(groups: &[Vec<u32>]) -> Vec<Vec<NodeId>> {
    groups.iter().map(|g| g.iter().map(|&s| NodeId(s)).collect()).collect()
}

/// A file's end state as one world reads it back.
#[derive(Debug, Clone, PartialEq)]
pub struct FileState {
    /// The whole contents.
    pub data: Bytes,
    /// Attributes; `attr.version.sub` counts the applied updates.
    pub attr: FileAttr,
    /// How many replicas the cell reports.
    pub replicas: usize,
}

/// Reads `fh` back through `via`: contents, attributes, replica count.
/// The first failure, transport or server-side, is the result.
pub fn read_back(
    world: &mut impl World,
    session: usize,
    via: NodeId,
    fh: FileHandle,
) -> RuntimeResult<FileState> {
    let data = read_data(world, session, via, fh)?;
    let attr = expect_attr(world.call(session, via, NfsRequest::Getattr { fh })?)?;
    let replicas = replica_count(world, session, via, fh)?;
    Ok(FileState { data, attr, replicas })
}

/// Reads the whole of `fh` through `via`.
pub(crate) fn read_data(
    world: &mut impl World,
    session: usize,
    via: NodeId,
    fh: FileHandle,
) -> RuntimeResult<Bytes> {
    match world.call(session, via, NfsRequest::Read { fh, offset: 0, count: 1 << 20 })? {
        NfsReply::Data(data) => Ok(data),
        rep => Err(unexpected(rep, "Data")),
    }
}

/// How many replicas of `fh` the cell reports through `via`.
pub(crate) fn replica_count(
    world: &mut impl World,
    session: usize,
    via: NodeId,
    fh: FileHandle,
) -> RuntimeResult<usize> {
    match world.call(session, via, NfsRequest::DeceitLocateReplicas { fh })? {
        NfsReply::Replicas(rs) => Ok(rs.len()),
        rep => Err(unexpected(rep, "Replicas")),
    }
}

#[cfg(test)]
mod tests {
    use deceit_core::{EventBody, OpOutcome, ProtocolHost};

    use super::*;
    use crate::error::RuntimeError;
    use crate::history::HistoryRecorder;

    /// Calls through server 1, which the caller crashed: the call is
    /// refused with `Unreachable` and journaled as a lost op.
    fn call_the_crashed_server(
        world: &mut impl World,
        root: FileHandle,
    ) -> RuntimeResult<NfsReply> {
        assert_eq!(world.down(), BTreeSet::from([1]));
        let recorder = HistoryRecorder::new();
        world.record_into(0, recorder.journal(1));
        let req = NfsRequest::Create { dir: root, name: "f".into(), mode: 0o644 };
        let rep = world.call(0, NodeId(1), req);
        assert_eq!(rep, Err(RuntimeError::Rpc(RpcError::Unreachable(NodeId(1)))));
        let history = recorder.merge();
        assert_eq!(history.len(), 2, "one invoke, one ack: {history:?}");
        assert!(
            matches!(history.events[1].body, EventBody::Ack { outcome: OpOutcome::Lost, .. }),
            "{history:?}"
        );
        rep
    }

    #[test]
    fn a_call_via_a_crashed_server_is_lost_without_touching_the_cell() {
        let mut live = LiveWorld::start(RuntimeConfig::new(3), 1);
        live.fault(&FaultEvent::Crash { server: 1 });
        let root = live.root();
        let live_rep = call_the_crashed_server(&mut live, root);

        let mut sim = SimWorld::new(&RuntimeConfig::new(3), 1);
        sim.fault(&FaultEvent::Crash { server: 1 });
        let root = sim.root();
        // What serving the call would move: deferred work, protocol
        // events, the simulated clock, and this thread's slot-lock rounds.
        let cell = |sim: &SimWorld| {
            let cluster = &sim.server.fs.cluster;
            (sim.server.pending_work(), cluster.obs.flight.mark(), cluster.now())
        };
        let before = cell(&sim);
        let rounds = deceit_sim::leaf::rounds_here();
        assert_eq!(call_the_crashed_server(&mut sim, root), live_rep);
        assert_eq!(deceit_sim::leaf::rounds_here(), rounds, "the refused call took a slot lock");
        assert_eq!(cell(&sim), before, "the refused call reached the cell");
        let lookup = NfsRequest::Lookup { dir: root, name: "f".into() };
        assert!(matches!(sim.call(0, NodeId(0), lookup), Ok(NfsReply::Error(_))));
    }
}
