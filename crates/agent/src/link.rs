//! The agent's transport, [`AgentLink`]: how a request gets from the
//! agent's machine to a server and back — over the simulated network
//! ([`NfsServer`]) or the live runtime's threaded bus (its client session).

use std::time::Duration;

use deceit_core::DeceitError;
use deceit_net::NodeId;
use deceit_nfs::{NfsError, NfsReply, NfsRequest, NfsServer};
use deceit_sim::{SimDuration, SimTime};

/// Why a leg brought no reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Undelivered<E> {
    /// The send was refused: nothing reached the server, so any request,
    /// a mutation too, may safely go elsewhere.
    Refused(E),
    /// The request may have reached the server, but no reply came back.
    Lost(E),
}

/// One leg: the reply and what the leg cost, or why no reply came.
pub type Leg<E> = Result<(NfsReply, SimDuration), Undelivered<E>>;

/// What an agent operation over `L` returns: its result and the
/// client-observed latency, or what stopped it.
pub type Timed<T, L> = Result<(T, SimDuration), <L as AgentLink>::Error>;

/// A step of the agent's failover, for the transport to count or carry
/// out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failover {
    /// The request is about to be sent to a server other than the one it
    /// was meant for.
    Retry,
    /// The first sweep over the other servers found none; wait this long
    /// before the second.
    Backoff(Duration),
    /// Both sweeps found no server; the request fails.
    Exhausted,
}

/// A transport the agent sends its requests over.
pub trait AgentLink {
    /// What a failed request reports; server-side errors convert into it.
    type Error: From<NfsError>;

    /// The cell's servers, in ascending order.
    fn servers(&self) -> Vec<NodeId>;

    /// Sends `req` from the agent's machine `from` to server `to` and
    /// waits for the reply.
    fn send(&mut self, from: NodeId, to: NodeId, req: NfsRequest) -> Leg<Self::Error>;

    /// The clock the agent's caches age on.
    fn now(&self) -> SimTime;

    /// The agent moved its conversation to `server`.
    fn rehome(&mut self, _server: NodeId) -> Result<(), Self::Error> {
        Ok(())
    }

    /// One failover step. The simulator neither counts nor waits.
    fn failover(&mut self, _step: Failover) {}
}

/// The simulated cell: a leg is one message out over the simulated
/// network, the server's work, and one message back. A crashed server is
/// refused without a message; a partitioned one costs the refused send.
impl AgentLink for NfsServer {
    type Error = NfsError;

    fn servers(&self) -> Vec<NodeId> {
        self.fs.cluster.server_ids()
    }

    fn send(&mut self, from: NodeId, to: NodeId, req: NfsRequest) -> Leg<NfsError> {
        let net = &self.fs.cluster.net;
        if !net.is_up(to) {
            return Err(Undelivered::Refused(NfsError::Io(DeceitError::ServerDown(to))));
        }
        let Some(out) = net.send(from, to, req.wire_size(), "nfs-rpc").latency() else {
            return Err(Undelivered::Refused(NfsError::Io(DeceitError::PeerUnreachable(to))));
        };
        let (reply, served) = self.handle(to, req);
        let back = self.fs.cluster.net.send(to, from, reply.wire_size(), "nfs-rpc").latency();
        Ok((reply, out + served + back.unwrap_or(SimDuration::ZERO)))
    }

    fn now(&self) -> SimTime {
        self.fs.cluster.now()
    }
}
