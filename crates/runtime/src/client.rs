//! Client sessions: the live transport under the §5.3 agent.
//!
//! A [`RuntimeClient`] carries [`NfsRequest`]/[`NfsReply`] between one
//! client machine and the server threads over correlated RPC on the bus:
//! one call at a time ([`RuntimeClient::call_via`], or
//! [`RuntimeClient::call`] to the home server), or pipelined
//! ([`RuntimeClient::submit`], then [`RuntimeClient::wait`] in any
//! order). Caching, failover and the access shortcut are the agent's
//! ([`deceit_agent::Agent`]): it drives a session through [`AgentLink`]
//! as it drives the simulator's `NfsServer`, `agent.op(&mut session, …)`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use deceit_agent::{Agent, AgentConfig, AgentLink, Failover, Leg, Undelivered};
use deceit_core::DeceitError;
use deceit_net::rpc::{CallId, RpcEndpoint, RpcError};
use deceit_net::NodeId;
use deceit_nfs::{FileHandle, NfsError, NfsReply, NfsRequest};
use deceit_sim::{wall, SimDuration, SimTime};

use crate::error::{unexpected, RuntimeError, RuntimeResult};
use crate::history::JournalHandle;
use crate::obs::RuntimeObs;

/// One live client session.
pub struct RuntimeClient {
    rpc: RpcEndpoint<NfsRequest, NfsReply>,
    home: NodeId,
    servers: Vec<NodeId>,
    timeout: Duration,
    root: FileHandle,
    /// Shared runtime observability: completed calls record their
    /// end-to-end latency here, bucketed by op class.
    obs: Arc<RuntimeObs>,
    /// When the session opened: the origin of the clock an agent's
    /// caches age on.
    opened: Instant,
    /// How long the last call that was answered took.
    took: Duration,
    /// Consistency-audit journal: when attached, every call records its
    /// invoke/ack pair into the storm history.
    journal: Option<JournalHandle>,
}

impl RuntimeClient {
    /// A session on `rpc`, attached to `home`'s side of any partition.
    pub(crate) fn new(
        rpc: RpcEndpoint<NfsRequest, NfsReply>,
        home: NodeId,
        servers: Vec<NodeId>,
        timeout: Duration,
        root: FileHandle,
        obs: Arc<RuntimeObs>,
    ) -> Self {
        rpc.attach(home);
        RuntimeClient {
            rpc,
            home,
            servers,
            timeout,
            root,
            obs,
            opened: wall::now(),
            took: Duration::ZERO,
            journal: None,
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

    /// Re-homes the session onto another server of the cell. Under a
    /// partition this also moves the session to its new home's side. A
    /// server outside the cell is refused, and the session stays put.
    pub fn set_home(&mut self, server: NodeId) -> RuntimeResult<()> {
        if !self.servers.contains(&server) {
            return Err(RuntimeError::Nfs(NfsError::Io(DeceitError::NoSuchServer(server))));
        }
        self.home = server;
        self.rpc.attach(server);
        Ok(())
    }

    /// The root directory handle (what the mount protocol returned).
    pub fn root(&self) -> FileHandle {
        self.root
    }

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
    ///
    /// An answered call records its latency per op class: the first of
    /// its two clock stamps also fixes the deadline (`None` if the sum
    /// overflows: no deadline); between them only a park reads the clock.
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
        self.took = wall::since(start);
        self.obs.record_op(class, self.took);
        Ok(rep)
    }

    /// Sends a request to the home server and waits for the reply — no
    /// retry: a transport failure is the result. Failover is the agent's.
    pub fn call(&mut self, req: NfsRequest) -> RuntimeResult<NfsReply> {
        self.call_via(self.home, req)
    }

    /// NFSPROC_NULL — ping the home server.
    pub fn null(&mut self) -> RuntimeResult<()> {
        match self.call(NfsRequest::Null)? {
            NfsReply::Void => Ok(()),
            rep => Err(unexpected(rep, "Void")),
        }
    }
}

/// An agent for `session`: on the session's machine, mounted on its home,
/// failing over but caching nothing ([`AgentConfig::uncached`]).
pub fn live_agent(session: &RuntimeClient) -> Agent {
    Agent::new(session.node(), session.home(), AgentConfig::uncached())
}

/// The live leg: one [`RuntimeClient::call_via`]. A send the bus refused
/// delivered nothing; any other transport failure may have. The agent's
/// failover legs feed the cell's `failover_*` counters, its backoff
/// sleeps, and its re-home moves the session.
impl AgentLink for RuntimeClient {
    type Error = RuntimeError;

    fn servers(&self) -> Vec<NodeId> {
        self.servers.clone()
    }

    fn send(&mut self, _from: NodeId, to: NodeId, req: NfsRequest) -> Leg<RuntimeError> {
        match self.call_via(to, req) {
            Ok(rep) => Ok((rep, SimDuration::from_micros(self.took.as_micros() as u64))),
            Err(e @ RuntimeError::Rpc(RpcError::Unreachable(_))) => Err(Undelivered::Refused(e)),
            Err(e) => Err(Undelivered::Lost(e)),
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(wall::since(self.opened).as_micros() as u64)
    }

    fn rehome(&mut self, server: NodeId) -> RuntimeResult<()> {
        self.set_home(server)
    }

    fn failover(&mut self, step: Failover) {
        let counter = match step {
            Failover::Retry => &self.obs.failover_retries,
            Failover::Exhausted => &self.obs.failover_exhausted,
            Failover::Backoff(pause) => return std::thread::sleep(pause),
        };
        counter.fetch_add(1);
    }
}

#[cfg(test)]
mod tests {
    use crate::{ClusterRuntime, RuntimeConfig};

    use super::*;

    /// Re-homing onto a server outside the cell is an error, and leaves
    /// the session where it was: same home, same side of a partition.
    #[test]
    fn set_home_outside_the_cell_is_refused() {
        let rt = ClusterRuntime::start(RuntimeConfig::new(3));
        let mut session = rt.client_homed(NodeId(1));
        rt.fault(&deceit_core::FaultEvent::Split { groups: vec![vec![0], vec![1, 2]] });
        assert!(session.set_home(NodeId(99)).is_err());
        assert_eq!(session.home(), NodeId(1));
        session.null().expect("the session still reaches its home");
        assert!(session.call_via(NodeId(0), NfsRequest::Null).is_err(), "it left 1's side");
        rt.shutdown();
    }
}
