//! Request/reply correlation and timeouts over the live bus.
//!
//! [`crate::live::LiveBus`] moves raw messages between threads; a file
//! service needs *calls*: a request matched to its reply even when
//! replies return out of order (pipelining) or never return at all
//! (crashes, partitions). [`RpcEndpoint`] layers exactly that on top of a
//! [`LiveEndpoint`]:
//!
//! * every outgoing request carries a fresh [`CallId`];
//! * replies are correlated by id, with out-of-order arrivals buffered
//!   until their caller asks;
//! * waiting is deadline-based, so an unreachable or crashed peer turns
//!   into [`RpcError::Timeout`] instead of a hung thread. The caller's
//!   stamp owns the deadline: [`RpcEndpoint::wait_until`] takes it as an
//!   instant (a caller that stamps its start passes start + timeout),
//!   [`RpcEndpoint::wait`] reads the clock once to make one
//!   ([`deadline_after`]; `Duration::MAX` means "no deadline", not a
//!   panic), and the mailbox reads it again only to park;
//! * a send the bus rejects outright (crash or partition already known)
//!   fails fast with [`RpcError::Unreachable`].
//!
//! The same endpoint also serves the callee role: incoming requests queue
//! separately and are drained with [`RpcEndpoint::next_request`] /
//! answered with [`RpcEndpoint::reply`], so symmetric peers need only one
//! endpoint each.

use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

use deceit_sim::atomic::RelaxedU64;

use crate::live::{deadline_after, LiveBus, LiveEndpoint};
use crate::node::NodeId;

/// Correlates one request with its reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallId(pub u64);

impl fmt::Display for CallId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "call#{}", self.0)
    }
}

/// The wire frame: a correlated request or reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Rpc<Q, P> {
    /// A request awaiting a reply with the same id.
    Request {
        /// Correlation id, unique per calling endpoint.
        call: CallId,
        /// The request payload.
        req: Q,
    },
    /// The reply to an earlier request.
    Reply {
        /// Correlation id copied from the request.
        call: CallId,
        /// The reply payload.
        rep: P,
    },
}

/// Why a call failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// The bus rejected the send: the peer is crashed, partitioned away,
    /// or not registered.
    Unreachable(NodeId),
    /// No reply arrived before the deadline.
    Timeout(NodeId),
    /// The awaited call is not in flight on this endpoint: it was never
    /// submitted here, already claimed, or forgotten. Waiting could
    /// never succeed, so this fails fast instead of burning the timeout.
    UnknownCall(CallId),
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Unreachable(n) => write!(f, "peer {n} unreachable"),
            RpcError::Timeout(n) => write!(f, "timed out waiting for reply from {n}"),
            RpcError::UnknownCall(c) => write!(f, "{c} is not in flight on this endpoint"),
        }
    }
}

impl std::error::Error for RpcError {}

/// An incoming request awaiting an answer.
#[derive(Debug, Clone, PartialEq)]
pub struct IncomingRequest<Q> {
    /// Who asked.
    pub from: NodeId,
    /// Correlation id to echo in [`RpcEndpoint::reply`].
    pub call: CallId,
    /// The request payload.
    pub req: Q,
}

/// One machine's correlated-call connection to the bus.
#[derive(Debug)]
pub struct RpcEndpoint<Q, P> {
    ep: LiveEndpoint<Rpc<Q, P>>,
    next_call: u64,
    /// Every call submitted and not yet claimed, timed out or forgotten:
    /// its destination (for error attribution) and its reply, once that
    /// has arrived while waiting for a different call. Scanned linearly —
    /// it holds one entry under `call`, a batch under pipelining.
    in_flight: Vec<(CallId, NodeId, Option<P>)>,
    /// Requests received while acting as a caller.
    inbox: VecDeque<IncomingRequest<Q>>,
}

/// Process-wide endpoint incarnation counter, seeding each endpoint's
/// call-id space. Without it, an endpoint re-registered under a node id
/// it used before would mint the same call ids again, and a straggler
/// reply addressed to the *previous* incarnation could correlate against
/// a fresh call. An id allocator: uniqueness needs only read-modify-write
/// atomicity.
static NEXT_INCARNATION: RelaxedU64 = RelaxedU64::new(0);

impl<Q: Send + 'static, P: Send + 'static> RpcEndpoint<Q, P> {
    /// Registers `node` on the bus and wraps its endpoint. Call ids are
    /// seeded per incarnation, so ids never repeat across endpoints —
    /// even re-registrations of the same node id.
    pub fn register(bus: &LiveBus<Rpc<Q, P>>, node: NodeId) -> Self {
        RpcEndpoint {
            ep: bus.register(node),
            next_call: NEXT_INCARNATION.fetch_add(1) << 32,
            in_flight: Vec::new(),
            inbox: VecDeque::new(),
        }
    }

    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.ep.node()
    }

    /// Attaches this endpoint to `home`'s side of any partition
    /// ([`LiveEndpoint::attach`]).
    pub fn attach(&self, home: NodeId) {
        self.ep.attach(home);
    }

    /// Calls in flight: submitted and not yet claimed by a `wait`, timed
    /// out or forgotten. A reply that has arrived but was not waited for
    /// yet still counts.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    fn position(&self, call: CallId) -> Option<usize> {
        self.in_flight.iter().position(|(c, _, _)| *c == call)
    }

    /// Whether this machine is currently marked crashed on the bus —
    /// endpoint-local and lock-free, for a server's per-request check.
    pub fn is_crashed(&self) -> bool {
        self.ep.is_crashed()
    }

    /// Sends a request without waiting — the pipelining primitive.
    ///
    /// Fails fast with [`RpcError::Unreachable`] if the bus refuses the
    /// send (peer crashed, partitioned away, or unregistered).
    pub fn submit(&mut self, to: NodeId, req: Q) -> Result<CallId, RpcError> {
        let call = CallId(self.next_call);
        self.next_call += 1;
        // Ids are (incarnation << 32 | seq). A caller that exhausts its
        // 2^32-call sub-space moves to a freshly allocated incarnation
        // block instead of bleeding into the next incarnation's ids.
        if self.next_call & 0xFFFF_FFFF == 0 {
            self.next_call = NEXT_INCARNATION.fetch_add(1) << 32;
        }
        if !self.ep.send(to, Rpc::Request { call, req }) {
            return Err(RpcError::Unreachable(to));
        }
        self.in_flight.push((call, to, None));
        Ok(call)
    }

    /// Waits up to `timeout` for the reply to one submitted call.
    pub fn wait(&mut self, call: CallId, timeout: Duration) -> Result<P, RpcError> {
        self.wait_until(call, deadline_after(timeout))
    }

    /// Waits for the reply to one submitted call until `deadline`
    /// (`None`: until it arrives or the bus closes). A deadline already
    /// past times out without parking.
    ///
    /// Replies to *other* calls arriving in the meantime are buffered, so
    /// pipelined calls may be awaited in any order. Incoming requests are
    /// queued for [`RpcEndpoint::next_request`].
    pub fn wait_until(&mut self, call: CallId, deadline: Option<Instant>) -> Result<P, RpcError> {
        loop {
            let at = self.position(call).ok_or(RpcError::UnknownCall(call))?;
            if let Some(rep) = self.in_flight[at].2.take() {
                self.in_flight.swap_remove(at);
                return Ok(rep);
            }
            match self.ep.recv_deadline(deadline) {
                Some(env) => self.sort_incoming(env.from, env.msg),
                None => return Err(RpcError::Timeout(self.in_flight.swap_remove(at).1)),
            }
        }
    }

    /// Submits a request and waits up to `timeout` for its reply.
    pub fn call(&mut self, to: NodeId, req: Q, timeout: Duration) -> Result<P, RpcError> {
        self.call_until(to, req, deadline_after(timeout))
    }

    /// Submits a request and waits for its reply until `deadline`.
    pub fn call_until(
        &mut self,
        to: NodeId,
        req: Q,
        deadline: Option<Instant>,
    ) -> Result<P, RpcError> {
        let call = self.submit(to, req)?;
        self.wait_until(call, deadline)
    }

    /// Abandons an in-flight call; a late reply will be dropped on the
    /// next drain rather than buffered forever.
    pub fn forget(&mut self, call: CallId) {
        if let Some(at) = self.position(call) {
            self.in_flight.swap_remove(at);
        }
    }

    /// Returns the next incoming request, waiting up to `timeout`
    /// (`Duration::MAX`: until one arrives or the bus closes).
    pub fn next_request(&mut self, timeout: Duration) -> Option<IncomingRequest<Q>> {
        let deadline = deadline_after(timeout);
        loop {
            if let Some(r) = self.inbox.pop_front() {
                return Some(r);
            }
            match self.ep.recv_deadline(deadline) {
                Some(env) => self.sort_incoming(env.from, env.msg),
                None => return None,
            }
        }
    }

    /// Answers an incoming request; returns false if the asker became
    /// unreachable.
    pub fn reply(&mut self, to: NodeId, call: CallId, rep: P) -> bool {
        self.ep.send(to, Rpc::Reply { call, rep })
    }

    fn sort_incoming(&mut self, from: NodeId, msg: Rpc<Q, P>) {
        match msg {
            Rpc::Request { call, req } => {
                self.inbox.push_back(IncomingRequest { from, call, req });
            }
            Rpc::Reply { call, rep } => {
                // Replies to forgotten (timed-out) calls are dropped.
                if let Some(at) = self.position(call) {
                    self.in_flight[at].2 = Some(rep);
                }
            }
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the timeout tests time themselves")]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Instant;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    /// An echo server answering `x` with `x * 10`, until told to stop by
    /// receiving 0.
    fn spawn_echo(bus: &LiveBus<Rpc<u64, u64>>, id: NodeId) -> thread::JoinHandle<()> {
        let mut ep: RpcEndpoint<u64, u64> = RpcEndpoint::register(bus, id);
        thread::spawn(move || loop {
            if let Some(r) = ep.next_request(Duration::from_secs(5)) {
                let stop = r.req == 0;
                ep.reply(r.from, r.call, r.req * 10);
                if stop {
                    return;
                }
            } else {
                return;
            }
        })
    }

    #[test]
    fn call_round_trip() {
        let bus = LiveBus::new();
        let server = spawn_echo(&bus, n(1));
        let mut client: RpcEndpoint<u64, u64> = RpcEndpoint::register(&bus, n(0));
        assert_eq!(client.call(n(1), 7, Duration::from_secs(2)), Ok(70));
        assert_eq!(client.call(n(1), 0, Duration::from_secs(2)), Ok(0));
        server.join().unwrap();
    }

    #[test]
    fn pipelined_calls_awaited_out_of_order() {
        let bus = LiveBus::new();
        let server = spawn_echo(&bus, n(1));
        let mut client: RpcEndpoint<u64, u64> = RpcEndpoint::register(&bus, n(0));
        let a = client.submit(n(1), 1).unwrap();
        let b = client.submit(n(1), 2).unwrap();
        let c = client.submit(n(1), 3).unwrap();
        assert_eq!(client.in_flight(), 3);
        // Await newest-first: earlier replies must buffer — and count as
        // in flight until they are claimed.
        assert_eq!(client.wait(c, Duration::from_secs(2)), Ok(30));
        assert_eq!(client.in_flight(), 2);
        assert_eq!(client.wait(a, Duration::from_secs(2)), Ok(10));
        assert_eq!(client.wait(b, Duration::from_secs(2)), Ok(20));
        assert_eq!(client.in_flight(), 0);
        client.call(n(1), 0, Duration::from_secs(2)).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn unreachable_peer_fails_fast() {
        let bus: LiveBus<Rpc<u64, u64>> = LiveBus::new();
        let mut client: RpcEndpoint<u64, u64> = RpcEndpoint::register(&bus, n(0));
        assert_eq!(client.submit(n(9), 1), Err(RpcError::Unreachable(n(9))));
        let _silent = bus.register(n(2));
        bus.crash(n(2));
        assert_eq!(
            client.call(n(2), 1, Duration::from_millis(50)),
            Err(RpcError::Unreachable(n(2)))
        );
    }

    #[test]
    fn past_deadline_times_out_without_parking() {
        let bus: LiveBus<Rpc<u64, u64>> = LiveBus::new();
        let mut client: RpcEndpoint<u64, u64> = RpcEndpoint::register(&bus, n(0));
        let _silent = bus.register(n(1));
        let call = client.submit(n(1), 5).unwrap();
        let t0 = Instant::now();
        assert_eq!(client.wait_until(call, Some(t0)), Err(RpcError::Timeout(n(1))));
        assert!(t0.elapsed() < Duration::from_secs(1), "a past deadline must not wait");
        // The timed-out call is forgotten, as after any timeout.
        assert_eq!(client.in_flight(), 0);
    }

    #[test]
    fn silent_peer_times_out() {
        let bus: LiveBus<Rpc<u64, u64>> = LiveBus::new();
        let mut client: RpcEndpoint<u64, u64> = RpcEndpoint::register(&bus, n(0));
        let _silent = bus.register(n(1));
        let t0 = Instant::now();
        assert_eq!(client.call(n(1), 5, Duration::from_millis(60)), Err(RpcError::Timeout(n(1))));
        assert!(t0.elapsed() >= Duration::from_millis(60));
        // The call is forgotten: a later stray reply must not resurrect it.
        assert_eq!(client.in_flight(), 0);
    }
}
