//! The live cluster: server threads, the pump thread, failure injection.
//!
//! Each server thread serves its mailbox one request at a time, in
//! arrival order: it hands the request to `ShardedEngine::serve`, which
//! picks the locks (see [`crate::shard`]) and returns the reply with the
//! rung that answered; the thread counts that rung and replies. Nothing
//! here names a lock level or an [`NfsService`] entry. The pump thread
//! drains the engine's per-shard deferred work one slot at a time through
//! `ShardedEngine::pump_slot`, and failure injection and the inspection
//! hatches take the whole engine through `ShardedEngine::exclusive`.
//!
//! The cell's topology has one owner per layer: the engine's network for
//! the protocol, the bus for the threads. [`ClusterRuntime::fault`] is
//! the one way to change it and changes both. A partition holds servers
//! only; a client session has no network identity of its own, so its
//! endpoint is attached to its home server and follows it — across a
//! split, and to a new home when the session re-homes.

use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use deceit_core::{FaultEvent, ProtocolHost, Stat};
use deceit_net::live::LiveBus;
use deceit_net::rpc::{Rpc, RpcEndpoint};
use deceit_net::NodeId;
use deceit_nfs::{DeceitFs, NfsReply, NfsRequest, NfsServer, NfsService};
use deceit_sim::atomic::{PublishedBool, RelaxedU64};

use crate::client::RuntimeClient;
use crate::config::RuntimeConfig;
use crate::obs::{CoreReport, EngineReport, ObsReport, RuntimeObs, OP_CLASS_NAMES};
use crate::shard::{Rung, ShardedEngine};
use crate::world::node_groups;

/// The wire frame between clients and servers: the NFS envelope carried
/// over correlated RPC.
pub(crate) type NfsFrame = Rpc<NfsRequest, NfsReply>;

/// First node id handed to client sessions; servers occupy `0..n`.
pub(crate) const CLIENT_BASE: u32 = 1_000;

/// How long the pump thread sleeps when no deferred work is ready.
const PUMP_INTERVAL: Duration = Duration::from_millis(1);

/// Deferred-work events the pump fires per slot per pass.
const PUMP_BATCH: usize = 128;

/// One server's traffic counters, updated lock-free by its message loop
/// so [`ClusterRuntime::stats`] and the final report never contend with
/// request execution.
#[derive(Debug, Default)]
struct Tally {
    /// Requests served, indexed by the `Rung` that answered them.
    served: [RelaxedU64; Rung::ALL.len()],
    dropped_while_crashed: RelaxedU64,
}

impl Tally {
    fn served(&self, rung: Rung) -> u64 {
        self.served[rung as usize].load()
    }

    fn served_total(&self) -> u64 {
        Rung::ALL.iter().map(|&rung| self.served(rung)).sum()
    }
}

/// Aggregate traffic counters of a running cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Messages the bus delivered so far (both directions).
    pub bus_delivered: u64,
    /// Sends the bus rejected due to crash/partition state.
    pub bus_rejected: u64,
    /// Frames that evaporated because they were queued at a machine
    /// when it crashed.
    pub bus_dropped_stale: u64,
    /// Wake-ups the bus issued: sends that found their receiver parked.
    pub bus_wakes: u64,
    /// Turns the bus gave: receives that yielded once before parking.
    pub bus_yields: u64,
    /// Wall-clock reads so far ([`deceit_sim::wall::reads`]) —
    /// process-wide: every thread of the process counts, this cell's or
    /// not.
    pub clock_reads: u64,
    /// Requests served across all server threads: the sum of the three
    /// rungs' counts. A request is counted before its reply is sent.
    pub requests_served: u64,
    /// Of those, read-only requests answered under the shared cell lock
    /// alone.
    pub requests_served_shared: u64,
    /// Of those, requests answered under the shared cell lock plus ring
    /// locks: mutations within their declared files, and reads that
    /// forward from a server with no replica. The rest took the
    /// exclusive cell lock.
    pub requests_served_sharded: u64,
    /// Deferred protocol work pending: the engine's own count, read
    /// under the shared cell lock.
    pub pending_work: usize,
}

/// Final accounting returned by [`ClusterRuntime::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeReport {
    /// Requests served, per server, over all three rungs.
    pub served: Vec<(NodeId, u64)>,
    /// Frames that evaporated in the transport because they were queued
    /// at a machine when it crashed (dead kernel buffers).
    pub bus_dropped_stale: u64,
    /// Requests a server loop discarded because the crash landed after
    /// the frame was already unsealed — the narrow window the transport
    /// epoch cannot see.
    pub dropped_while_crashed: u64,
    /// Total bus deliveries.
    pub bus_delivered: u64,
    /// Total bus rejections.
    pub bus_rejected: u64,
}

/// State shared by the runtime handle and every hosting thread.
struct Shared<S> {
    bus: LiveBus<NfsFrame>,
    engine: ShardedEngine<S>,
    stop: PublishedBool,
    /// Per-server traffic counters, indexed by server id.
    tallies: Box<[Tally]>,
    /// Always-on runtime observability, shared with client sessions.
    obs: Arc<RuntimeObs>,
}

impl<S> Shared<S> {
    /// Requests served by every server on `rung`.
    fn served(&self, rung: Rung) -> u64 {
        self.tallies.iter().map(|t| t.served(rung)).sum()
    }
}

/// One live Deceit cell: `n` server threads and a pump thread over a
/// shared [`LiveBus`], hosting any engine that implements the
/// [`NfsService`] + [`ProtocolHost`] seam.
///
/// The engine must be `Sync`: read-only requests execute against `&S`
/// from several server threads at once.
pub struct ClusterRuntime<S: NfsService + ProtocolHost + Send + Sync + 'static = NfsServer> {
    shared: Arc<Shared<S>>,
    cfg: RuntimeConfig,
    server_ids: Vec<NodeId>,
    server_threads: Vec<JoinHandle<()>>,
    pump_thread: Option<JoinHandle<()>>,
    /// Client-id allocator: uniqueness needs only read-modify-write
    /// atomicity.
    next_client: RelaxedU64,
}

impl ClusterRuntime<NfsServer> {
    /// Builds the standard stack — segment servers under the NFS envelope
    /// — and starts it on real threads.
    pub fn start(cfg: RuntimeConfig) -> Self {
        // One source of truth for the shard count: the engine's hot
        // state, its event queues, and this host's ring locks must all
        // partition by the same slot function.
        let cluster_cfg = cfg.cluster.clone().with_shards(cfg.shards);
        let fs = DeceitFs::new(cfg.servers, cluster_cfg, cfg.fs.clone());
        Self::host(NfsServer::new(fs), cfg)
    }
}

impl<S: NfsService + ProtocolHost + Send + Sync + 'static> ClusterRuntime<S> {
    /// Hosts an arbitrary protocol engine on live threads: one message
    /// loop per server plus the deferred-work pump.
    pub fn host(engine: S, cfg: RuntimeConfig) -> Self {
        assert!(cfg.servers > 0, "a live cell needs at least one server");
        assert!(
            cfg.servers <= CLIENT_BASE as usize,
            "server ids 0..{} would collide with client ids starting at {CLIENT_BASE}",
            cfg.servers
        );
        let bus: LiveBus<NfsFrame> = LiveBus::new();
        let shared = Arc::new(Shared {
            bus: bus.clone(),
            engine: ShardedEngine::new(engine),
            stop: PublishedBool::new(false),
            tallies: (0..cfg.servers).map(|_| Tally::default()).collect(),
            obs: Arc::new(RuntimeObs::new()),
        });

        let server_ids: Vec<NodeId> = (0..cfg.servers).map(NodeId::from).collect();
        let mut server_threads = Vec::with_capacity(cfg.servers);
        for &id in &server_ids {
            let ep: RpcEndpoint<NfsRequest, NfsReply> = RpcEndpoint::register(&bus, id);
            let shared = Arc::clone(&shared);
            #[expect(
                clippy::expect_used,
                reason = "`spawn` fails only when the OS refuses a thread, at start-up before any request exists; `start` has no error channel, and a runtime short of a server thread could serve nothing sent to that server"
            )]
            let handle = thread::Builder::new()
                .name(format!("deceit-server-{}", id.0))
                .spawn(move || serve_loop(&shared, ep))
                .expect("spawn server thread");
            server_threads.push(handle);
        }

        #[expect(
            clippy::expect_used,
            reason = "as for the server threads above — the OS refusing a thread at start-up, before any request exists, and `start` has no error channel"
        )]
        let pump_thread = {
            let shared = Arc::clone(&shared);
            Some(
                thread::Builder::new()
                    .name("deceit-pump".into())
                    .spawn(move || pump_loop(&shared))
                    .expect("spawn pump thread"),
            )
        };

        ClusterRuntime {
            shared,
            cfg,
            server_ids,
            server_threads,
            pump_thread,
            next_client: RelaxedU64::new(0),
        }
    }

    /// Ids of the server threads, in index order.
    pub fn server_ids(&self) -> &[NodeId] {
        &self.server_ids
    }

    /// Opens a client session homed on a server chosen round-robin.
    pub fn client(&self) -> RuntimeClient {
        let seq = self.next_client.fetch_add(1) as u32;
        let home = self.server_ids[seq as usize % self.server_ids.len()];
        self.client_at(seq, home)
    }

    /// Opens a client session homed on a specific server.
    pub fn client_homed(&self, home: NodeId) -> RuntimeClient {
        assert!(self.server_ids.contains(&home), "no such server {home}");
        let seq = self.next_client.fetch_add(1) as u32;
        self.client_at(seq, home)
    }

    fn client_at(&self, seq: u32, home: NodeId) -> RuntimeClient {
        let ep = RpcEndpoint::register(&self.shared.bus, NodeId(CLIENT_BASE + seq));
        // mount_root is `&self`: the shared lock suffices, so opening a
        // session never stalls concurrent readers.
        let root = self.shared.engine.read_guard().mount_root();
        RuntimeClient::new(
            ep,
            home,
            self.server_ids.clone(),
            self.cfg.request_timeout,
            root,
            Arc::clone(&self.shared.obs),
        )
    }

    /// Runs `f` with exclusive access to the protocol engine — the
    /// inspection hatch used by tests and the scenario runner. `f` runs
    /// under the cell lock, so it must not call back into a method of
    /// this runtime that takes it (`observe`, `settle`, …): that would
    /// deadlock, and debug builds panic instead.
    pub fn with_engine<T>(&self, f: impl FnOnce(&mut S) -> T) -> T {
        self.shared.engine.exclusive(f)
    }

    /// Drives deferred protocol work to quiescence.
    ///
    /// Concurrent clients can keep scheduling new work, so this is a
    /// point-in-time statement, exactly like the simulator's
    /// `run_until_quiet` between operations.
    pub fn settle(&self) {
        self.shared.engine.exclusive(|e| e.settle());
    }

    /// Applies one fault to the cell, in both of its topologies: the
    /// bus's and the engine's.
    ///
    /// * `Crash` — "without notification": the bus rejects the server's
    ///   traffic and the engine loses its volatile state. The server
    ///   *thread* keeps running; a crashed machine and its message loop
    ///   are indistinguishable to the rest of the cell.
    /// * `Restart` — the engine runs the server's recovery protocol,
    ///   then the bus carries its traffic again.
    /// * `Split` / `Heal` — a partition between groups of *servers*
    ///   (mirroring [`deceit_core::Cluster::split`]), or its end with the
    ///   protocol's reconciliation. Each client session sits on its
    ///   home's side. The engine and the bus change inside one exclusive
    ///   engine section, so racing splits and heals always leave the two
    ///   topologies agreeing.
    /// * `Settle` — [`ClusterRuntime::settle`].
    pub fn fault(&self, fault: &FaultEvent) {
        let (bus, engine) = (&self.shared.bus, &self.shared.engine);
        match fault {
            FaultEvent::Crash { server } => {
                bus.crash(NodeId(*server));
                engine.exclusive(|e| e.crash_node(NodeId(*server)));
            }
            FaultEvent::Restart { server } => {
                engine.exclusive(|e| e.restart_node(NodeId(*server)));
                bus.recover(NodeId(*server));
            }
            FaultEvent::Split { groups } => {
                let groups = node_groups(groups);
                let groups: Vec<&[NodeId]> = groups.iter().map(Vec::as_slice).collect();
                engine.exclusive(|e| {
                    e.split_nodes(&groups);
                    bus.split(&groups);
                });
            }
            FaultEvent::Heal => engine.exclusive(|e| {
                bus.heal();
                e.heal_nodes();
            }),
            FaultEvent::Settle => self.settle(),
        }
    }

    /// Whether `id` is crashed and not yet restarted.
    pub(crate) fn is_crashed(&self, id: NodeId) -> bool {
        self.shared.bus.is_crashed(id)
    }

    /// Point-in-time traffic counters, read from atomics (the clock
    /// count behind a registry lock that only a thread's first clock
    /// read also takes) and, for the pending work, under the shared cell
    /// lock, so observing a busy cluster never slows it down.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            bus_delivered: self.shared.bus.delivered(),
            bus_rejected: self.shared.bus.rejected(),
            bus_dropped_stale: self.shared.bus.dropped_stale(),
            bus_wakes: self.shared.bus.wakes(),
            bus_yields: self.shared.bus.yields(),
            clock_reads: deceit_sim::wall::reads(),
            requests_served: self.shared.tallies.iter().map(Tally::served_total).sum(),
            requests_served_shared: self.shared.served(Rung::Shared),
            requests_served_sharded: self.shared.served(Rung::Ring),
            pending_work: self.shared.engine.read_guard().pending_work(),
        }
    }

    /// One structured snapshot of every observability layer: op-class
    /// latency, engine lock telemetry, protocol-core histograms and
    /// flight-recorder totals, the protocol's event counters, and the
    /// traffic counters. Takes the shared cell lock briefly (for the
    /// core reads); everything else is read from atomics.
    pub fn observe(&self) -> ObsReport {
        let eobs = &self.shared.engine.obs;
        let engine = EngineReport {
            shared_acquisitions: eobs.shared_acquisitions.load(),
            exclusive_acquisitions: eobs.exclusive_acquisitions.load(),
            cell_wait: eobs.cell_wait.summary(),
            ring_hold: eobs.ring_hold.summary(),
        };
        let (core, stats) = {
            let guard = self.shared.engine.read_guard();
            let core = guard.obs_core().map(|o| CoreReport {
                drain_batch: o.drain_batch.summary(),
                lease_validation_failures: o.count(Stat::LeaseValidationFailures),
                flight_events: (0..o.flight.servers())
                    .map(|i| o.flight.total(NodeId(i as u32)))
                    .collect(),
                placement: o.placement_snapshot(),
            });
            (core, guard.stats_snapshot())
        };
        let obs = &self.shared.obs;
        ObsReport {
            op_latency: OP_CLASS_NAMES
                .iter()
                .zip(&obs.op_latency)
                .map(|(&name, h)| (name, h.summary()))
                .collect(),
            pump_to_idle: obs.pump_to_idle.load(),
            pump_to_busy: obs.pump_to_busy.load(),
            failover_retries: obs.failover_retries.load(),
            failover_exhausted: obs.failover_exhausted.load(),
            engine,
            core,
            stats,
            runtime: self.stats(),
        }
    }

    /// A human-readable dump of the protocol flight recorder — the last
    /// N protocol events each server acted in. What differential tests
    /// print when live and sim disagree.
    pub fn dump_flight_recorder(&self) -> String {
        match self.shared.engine.read_guard().obs_core() {
            Some(o) => o.flight.dump(),
            None => "flight recorder unavailable: engine exposes no ObsCore".into(),
        }
    }

    /// Graceful shutdown: stops every thread, joins them, settles
    /// remaining deferred work, and returns the engine with the final
    /// accounting.
    pub fn shutdown(mut self) -> (S, RuntimeReport) {
        self.stop_and_join();
        let report = self.report();
        let shared = Arc::clone(&self.shared);
        drop(self); // Drop sees joined threads and does nothing further.
        #[expect(
            clippy::unreachable,
            reason = "the server and pump threads hold the only other clones of `shared`, `stop_and_join` has joined them all, and `self` was dropped above, so this is the last reference"
        )]
        let shared = match Arc::try_unwrap(shared) {
            Ok(s) => s,
            Err(_) => unreachable!("all thread handles joined, no engine refs can remain"),
        };
        let mut engine = shared.engine.into_inner();
        engine.settle();
        (engine, report)
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true);
        // Server threads block on their mailboxes; closing the bus is
        // what wakes the idle ones to see `stop`.
        self.shared.bus.close();
        for h in self.server_threads.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.pump_thread.take() {
            let _ = h.join();
        }
    }

    fn report(&self) -> RuntimeReport {
        RuntimeReport {
            served: self
                .server_ids
                .iter()
                .map(|&id| (id, self.shared.tallies[id.index()].served_total()))
                .collect(),
            bus_dropped_stale: self.shared.bus.dropped_stale(),
            dropped_while_crashed: self
                .shared
                .tallies
                .iter()
                .map(|t| t.dropped_while_crashed.load())
                .sum(),
            bus_delivered: self.shared.bus.delivered(),
            bus_rejected: self.shared.bus.rejected(),
        }
    }
}

impl<S: NfsService + ProtocolHost + Send + Sync + 'static> Drop for ClusterRuntime<S> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One server's message loop: receive, serve on the engine's ladder,
/// count the rung that answered, reply — one request at a time, in
/// arrival order.
fn serve_loop<S: NfsService + ProtocolHost>(
    shared: &Shared<S>,
    mut ep: RpcEndpoint<NfsRequest, NfsReply>,
) {
    let id = ep.node();
    let tally = &shared.tallies[id.index()];
    while !shared.stop.load() {
        // No deadline: an idle server sleeps until a request arrives,
        // and only a closed bus (shutdown) hands back `None`.
        let Some(incoming) = ep.next_request(Duration::MAX) else { break };
        // A machine crashed by failure injection loses whatever was
        // queued in its buffers; the thread itself cannot know — it just
        // finds the traffic gone.
        if ep.is_crashed() {
            tally.dropped_while_crashed.fetch_add(1);
            continue;
        }
        let (rep, rung) = shared.engine.serve(id, incoming.req);
        // Counted before the reply leaves, so a session that reads the
        // stats after its reply finds its request there. A reply the bus
        // refuses is counted in `bus_rejected` as well.
        tally.served[rung as usize].fetch_add(1);
        ep.reply(incoming.from, incoming.call, rep);
    }
}

/// The deferred-work pump: what the simulator's event loop does between
/// client operations, done here from a real thread — per shard, in
/// bounded slices, so server threads interleave fairly on the cell lock
/// and no single file's backlog monopolizes a pump pass.
fn pump_loop<S: ProtocolHost>(shared: &Shared<S>) {
    let shards = shared.engine.shard_count();
    // Idle/busy transition accounting: a pump that flaps between the
    // two under load is a sign the batching window is mistuned.
    let mut idle = true;
    while !shared.stop.load() {
        // One allocation-free probe under the shared cell lock asks the
        // engine whether any deferred work is pending and, if so, which
        // slots have work ready; each such slot then drains under the
        // shared cell lock plus its own ring lock — concurrent with
        // request service everywhere else. A shared acquisition blocks
        // no reader, so an idle pump's probe costs a read-only workload
        // nothing but the acquisition itself.
        let mask = {
            let engine = shared.engine.read_guard();
            (engine.pending_work() > 0).then(|| engine.pending_shard_mask())
        };
        let Some(mask) = mask else {
            if !idle {
                idle = true;
                shared.obs.pump_to_idle.fetch_add(1);
            }
            thread::sleep(PUMP_INTERVAL);
            continue;
        };
        if idle {
            idle = false;
            shared.obs.pump_to_busy.fetch_add(1);
        }
        let mut fired = 0;
        for slot in 0..shards {
            if mask & (1 << slot) == 0 {
                continue;
            }
            fired += shared.engine.pump_slot(slot, PUMP_BATCH);
        }
        if fired == 0 {
            // Work is pending but none of it is ready: it is parked
            // behind a protocol-clock horizon (a stability quiet period,
            // a drain's batching window) and a quiet cell advances that
            // clock through nothing else. Map the idle wall interval
            // onto the protocol clock so the horizons elapse in real
            // time; once they do, the next pass fires them and the
            // queue drains to a true zero.
            let tick = deceit_sim::SimDuration::from_micros(
                PUMP_INTERVAL.as_micros().min(u64::MAX as u128) as u64,
            );
            shared.engine.read_guard().advance_idle_clock(tick);
            thread::sleep(PUMP_INTERVAL);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    fn split(groups: &[&[u32]]) -> FaultEvent {
        FaultEvent::Split { groups: groups.iter().map(|g| g.to_vec()).collect() }
    }

    /// A session opened *while* a server partition is in force lands on
    /// its home server's side of the split, not in the implicit rest
    /// group.
    #[test]
    fn session_opened_during_split_joins_its_homes_side() {
        let rt = ClusterRuntime::start(crate::RuntimeConfig::new(3));
        let bus = &rt.shared.bus;
        // An existing session homed on 0, then servers 0,1 vs 2.
        let existing = rt.client_homed(n(0));
        rt.fault(&split(&[&[0, 1], &[2]]));
        assert!(bus.can_exchange(existing.node(), n(0)));
        assert!(!bus.can_exchange(existing.node(), n(2)));

        // Mid-split arrivals: one homed on each side.
        let sessions = [rt.client_homed(n(1)), rt.client_homed(n(2))];
        let [a, b] = sessions.each_ref().map(RuntimeClient::node);
        assert!(bus.can_exchange(a, n(0)), "new session must sit with its home's group");
        assert!(bus.can_exchange(a, n(1)));
        assert!(!bus.can_exchange(a, n(2)));
        assert!(bus.can_exchange(b, n(2)));
        assert!(!bus.can_exchange(b, n(0)));
        // The two arrivals are on opposite sides of the split.
        assert!(!bus.can_exchange(a, b));
        rt.shutdown();
    }

    /// Re-homing a session during a split moves it to its new home's
    /// side, and the move outlives the heal.
    #[test]
    fn set_home_mid_split_moves_the_sessions_side() {
        let rt = ClusterRuntime::start(crate::RuntimeConfig::new(3));
        let bus = &rt.shared.bus;
        let mut session = rt.client_homed(n(0));
        rt.fault(&split(&[&[0], &[1, 2]]));
        assert!(bus.can_exchange(session.node(), n(0)));
        assert!(!bus.can_exchange(session.node(), n(1)));

        session.set_home(n(2));
        assert!(!bus.can_exchange(session.node(), n(0)), "the session left 0's side");
        assert!(bus.can_exchange(session.node(), n(1)));
        assert!(bus.can_exchange(session.node(), n(2)));
        session.null().expect("the new home answers");

        rt.fault(&FaultEvent::Heal);
        assert!(bus.can_exchange(session.node(), n(0)));
        drop(session);
        rt.shutdown();
    }

    /// A session dropped during a split takes its attachment with it: its
    /// node id, registered again, starts unattached — in the implicit
    /// rest group, on no server's side.
    #[test]
    fn a_session_dropped_mid_split_leaves_no_attachment_behind() {
        let rt = ClusterRuntime::start(crate::RuntimeConfig::new(3));
        let bus = &rt.shared.bus;
        rt.fault(&split(&[&[0], &[1, 2]]));
        let session = rt.client_homed(n(0));
        let id = session.node();
        assert!(bus.can_exchange(id, n(0)));
        drop(session);
        assert!(!bus.nodes().contains(&id), "the dropped session is still on the bus");

        let again: RpcEndpoint<NfsRequest, NfsReply> = RpcEndpoint::register(bus, id);
        assert!(!bus.can_exchange(id, n(0)), "the dropped session's home outlived it");
        assert!(!bus.can_exchange(id, n(1)));
        drop(again);
        rt.shutdown();
    }

    /// A storm of session opens and re-homes racing split/heal flaps
    /// never leaves servers 0 and 1 cut after a heal, on the bus or in
    /// the engine.
    #[test]
    fn session_open_cannot_revive_a_healed_split() {
        let rt = Arc::new(ClusterRuntime::start(crate::RuntimeConfig::new(3)));
        let stop = Arc::new(PublishedBool::new(false));
        let openers: Vec<_> = (0..3u32)
            .map(|t| {
                let rt = Arc::clone(&rt);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut i = t;
                    while !stop.load() {
                        // A churn of sessions homed on both sides.
                        let mut session = rt.client_homed(n(i % 2));
                        session.set_home(n((i + 1) % 2));
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            rt.fault(&split(&[&[0], &[1]]));
            rt.fault(&FaultEvent::Heal);
            assert!(rt.shared.bus.can_exchange(n(0), n(1)), "a session open revived a split");
            assert!(rt.with_engine(|e| e.fs.cluster.net.reachable(n(0), n(1))));
        }
        stop.store(true);
        for t in openers {
            t.join().unwrap();
        }
        let rt = Arc::try_unwrap(rt).unwrap_or_else(|_| panic!("all openers joined"));
        rt.shutdown();
    }

    /// Concurrent split/heal faults on a live cluster: the engine
    /// topology and the bus topology change inside one exclusive engine
    /// section, so whichever fault wins, the two always agree afterwards
    /// — a healed engine never sits behind a split bus or vice versa.
    #[test]
    fn engine_and_bus_topology_never_diverge_under_split_heal_races() {
        let rt = Arc::new(ClusterRuntime::start(crate::RuntimeConfig::new(3)));
        let threads: Vec<_> = (0..4usize)
            .map(|t| {
                let rt = Arc::clone(&rt);
                thread::spawn(move || {
                    for _ in 0..25 {
                        if t % 2 == 0 {
                            rt.fault(&split(&[&[0], &[1, 2]]));
                        } else {
                            rt.fault(&FaultEvent::Heal);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Engine reachability must match the bus exchange rules for
        // every server pair, whatever state the storm settled in.
        let rt = Arc::try_unwrap(rt).unwrap_or_else(|_| panic!("all storm threads joined"));
        let pairs = [(n(0), n(1)), (n(0), n(2)), (n(1), n(2))];
        let engine_view: Vec<bool> = rt.with_engine(|e| {
            pairs.iter().map(|&(a, b)| e.fs.cluster.net.reachable(a, b)).collect()
        });
        for (&(a, b), &engine_ok) in pairs.iter().zip(&engine_view) {
            assert_eq!(
                rt.shared.bus.can_exchange(a, b),
                engine_ok,
                "bus and engine disagree about {a}<->{b} after the storm"
            );
        }
        // And a final heal restores full service in both worlds.
        rt.fault(&FaultEvent::Heal);
        assert!(rt.with_engine(|e| e.fs.cluster.net.reachable(n(0), n(1))));
        assert!(rt.shared.bus.can_exchange(n(0), n(1)));
        rt.shutdown();
    }

    /// A `with_engine` closure that calls back into a cell-locking method
    /// of the runtime would wait forever on the exclusive lock it runs
    /// under; debug builds refuse it instead.
    #[cfg(debug_assertions)]
    #[test]
    fn with_engine_calling_back_into_the_runtime_panics() {
        let rt = ClusterRuntime::start(crate::RuntimeConfig::new(3));
        let reentrant = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.with_engine(|_| rt.observe());
        }));
        let err = reentrant.expect_err("a reentrant cell lock must panic, not deadlock");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("lock order"), "{msg}");
        // The refusal released the exclusive lock: the cell still serves.
        let mut client = rt.client();
        let root = client.root();
        assert!(client.create(root, "after", 0o644).is_ok());
        rt.shutdown();
    }
}
