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

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use parking_lot::Mutex;

use deceit_core::ProtocolHost;
use deceit_net::live::LiveBus;
use deceit_net::rpc::{Rpc, RpcEndpoint};
use deceit_net::NodeId;
use deceit_nfs::{DeceitFs, NfsReply, NfsRequest, NfsServer, NfsService};

use crate::client::RuntimeClient;
use crate::config::RuntimeConfig;
use crate::obs::{CoreReport, EngineReport, ObsReport, RuntimeObs, OP_CLASS_NAMES};
use crate::shard::{Rung, ShardedEngine};

/// The wire frame between clients and servers: the NFS envelope carried
/// over correlated RPC.
pub(crate) type NfsFrame = Rpc<NfsRequest, NfsReply>;

/// First node id handed to client sessions; servers occupy `0..n`.
pub(crate) const CLIENT_BASE: u32 = 1_000;

/// One server's traffic counters, updated lock-free by its message loop
/// so [`ClusterRuntime::stats`] and the final report never contend with
/// request execution.
#[derive(Debug, Default)]
struct Tally {
    /// Requests served, indexed by the `Rung` that answered them.
    served: [AtomicU64; Rung::ALL.len()],
    dropped_while_crashed: AtomicU64,
}

impl Tally {
    fn served(&self, rung: Rung) -> u64 {
        self.served[rung as usize].load(Ordering::Relaxed)
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
    /// Deferred protocol work pending, as of the last time a thread
    /// holding the engine refreshed the cached count. Reading it takes
    /// no lock.
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

/// The recorded partition plus its epoch. The epoch advances on every
/// split/heal transition, so any code path that captured partition state
/// before blocking can detect that the topology moved underneath it.
#[derive(Debug, Default)]
struct SplitState {
    groups: Option<Vec<Vec<NodeId>>>,
    epoch: u64,
}

/// Client-home registry: which server each client session currently
/// treats as its home, plus the currently imposed server partition.
/// Partition injection consults the homes so a split of the *server*
/// set also places every client on its home's side — mirroring the
/// simulator, where clients have no network identity at all. The
/// remembered split lets sessions opened *during* a partition join
/// their home's side instead of landing in the implicit rest group.
///
/// Every transition is epoch-stamped and every compound operation
/// (record a home *and* re-impose the split; change the split *and*
/// mutate the engine) runs under the one `active_split` lock, so a heal
/// that lands concurrently with a session open can never leave the bus
/// with a stale split imposed — and a session opened mid-heal can never
/// re-impose the partition it raced with.
#[derive(Debug, Default)]
pub(crate) struct ClientDirectory {
    homes: Mutex<HashMap<NodeId, NodeId>>,
    active_split: Mutex<SplitState>,
}

impl ClientDirectory {
    /// Records (or moves) a session's home and, if a partition is in
    /// force, re-imposes it so the session sits on its home's side.
    /// One critical section: the home insert and the re-imposition
    /// happen under the split lock, so a concurrent heal either sees
    /// the new home (and imposes nothing) or completes first (and this
    /// call finds no split to re-impose) — there is no window where a
    /// healed bus gets the old split back.
    pub(crate) fn set_home(&self, client: NodeId, home: NodeId, bus: &LiveBus<NfsFrame>) {
        let split = self.active_split.lock();
        self.homes.lock().insert(client, home);
        if let Some(groups) = split.groups.as_ref() {
            self.impose(groups, bus);
        }
    }

    pub(crate) fn forget(&self, client: NodeId) {
        self.homes.lock().remove(&client);
    }

    /// Replaces the recorded partition (`None` = healed), bumps the
    /// partition epoch, and mirrors the change onto the bus — with
    /// `mutate_engine` run inside the same critical section, so the
    /// engine's topology and the bus's can never be observed moving in
    /// opposite directions by a concurrent split/heal.
    pub(crate) fn set_split_with(
        &self,
        groups: Option<Vec<Vec<NodeId>>>,
        bus: &LiveBus<NfsFrame>,
        mutate_engine: impl FnOnce(),
    ) {
        let mut split = self.active_split.lock();
        split.groups = groups;
        split.epoch += 1;
        match split.groups.as_ref() {
            Some(groups) => {
                mutate_engine();
                self.impose(groups, bus);
            }
            None => {
                bus.heal();
                mutate_engine();
            }
        }
    }

    /// [`ClientDirectory::set_split_with`] without an engine mutation.
    #[cfg(test)]
    pub(crate) fn set_split(&self, groups: Option<Vec<Vec<NodeId>>>, bus: &LiveBus<NfsFrame>) {
        self.set_split_with(groups, bus, || {});
    }

    /// The current partition epoch (advances on every split or heal).
    #[cfg(test)]
    pub(crate) fn split_epoch(&self) -> u64 {
        self.active_split.lock().epoch
    }

    /// Re-imposes the active server partition (if any) on the bus, with
    /// every client attached to its current home's group. Production
    /// paths now run re-imposition inside [`ClientDirectory::set_home`]'s
    /// critical section; this standalone form remains for the race tests
    /// that hammer re-imposition against heal.
    #[cfg(test)]
    pub(crate) fn reapply(&self, bus: &LiveBus<NfsFrame>) {
        let split = self.active_split.lock();
        if let Some(groups) = split.groups.as_ref() {
            self.impose(groups, bus);
        }
    }

    /// Applies `groups` + homed clients to the bus. Callers hold the
    /// `active_split` lock, making directory state and bus state change
    /// together; `homes` is taken inside it (lock order: split → homes).
    fn impose(&self, groups: &[Vec<NodeId>], bus: &LiveBus<NfsFrame>) {
        let homes = self.homes.lock();
        let with_clients: Vec<Vec<NodeId>> = groups
            .iter()
            .map(|g| {
                let mut out = g.clone();
                out.extend(
                    homes.iter().filter(|(_, home)| g.contains(home)).map(|(client, _)| *client),
                );
                out
            })
            .collect();
        let refs: Vec<&[NodeId]> = with_clients.iter().map(Vec::as_slice).collect();
        bus.split(&refs);
    }
}

/// State shared by the runtime handle and every hosting thread.
struct Shared<S> {
    bus: LiveBus<NfsFrame>,
    engine: ShardedEngine<S>,
    stop: AtomicBool,
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
    dir: Arc<ClientDirectory>,
    cfg: RuntimeConfig,
    server_ids: Vec<NodeId>,
    server_threads: Vec<JoinHandle<()>>,
    pump_thread: Option<JoinHandle<()>>,
    next_client: AtomicU32,
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
            stop: AtomicBool::new(false),
            tallies: (0..cfg.servers).map(|_| Tally::default()).collect(),
            obs: Arc::new(RuntimeObs::new()),
        });

        let server_ids: Vec<NodeId> = (0..cfg.servers).map(NodeId::from).collect();
        let mut server_threads = Vec::with_capacity(cfg.servers);
        for &id in &server_ids {
            let ep: RpcEndpoint<NfsRequest, NfsReply> = RpcEndpoint::register(&bus, id);
            let shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name(format!("deceit-server-{}", id.0))
                .spawn(move || serve_loop(&shared, ep))
                // lint: allow(no-bare-panic): `spawn` fails only when the OS refuses a thread, at start-up before any request exists; `start` has no error channel, and a runtime short of a server thread could serve nothing sent to that server
                .expect("spawn server thread");
            server_threads.push(handle);
        }

        let pump_thread = {
            let shared = Arc::clone(&shared);
            let interval = cfg.pump_interval;
            let batch = cfg.pump_batch;
            Some(
                thread::Builder::new()
                    .name("deceit-pump".into())
                    .spawn(move || pump_loop(&shared, interval, batch))
                    // lint: allow(no-bare-panic): as for the server threads above — the OS refusing a thread at start-up, before any request exists, and `start` has no error channel
                    .expect("spawn pump thread"),
            )
        };

        ClusterRuntime {
            shared,
            dir: Arc::new(ClientDirectory::default()),
            cfg,
            server_ids,
            server_threads,
            pump_thread,
            next_client: AtomicU32::new(0),
        }
    }

    /// Ids of the server threads, in index order.
    pub fn server_ids(&self) -> &[NodeId] {
        &self.server_ids
    }

    /// Opens a client session homed on a server chosen round-robin.
    pub fn client(&self) -> RuntimeClient {
        let seq = self.next_client.fetch_add(1, Ordering::Relaxed);
        let home = self.server_ids[seq as usize % self.server_ids.len()];
        self.client_at(seq, home)
    }

    /// Opens a client session homed on a specific server.
    pub fn client_homed(&self, home: NodeId) -> RuntimeClient {
        assert!(self.server_ids.contains(&home), "no such server {home}");
        let seq = self.next_client.fetch_add(1, Ordering::Relaxed);
        self.client_at(seq, home)
    }

    fn client_at(&self, seq: u32, home: NodeId) -> RuntimeClient {
        let id = NodeId(CLIENT_BASE + seq);
        let ep = RpcEndpoint::register(&self.shared.bus, id);
        // mount_root is `&self`: the shared lock suffices, so opening a
        // session never stalls concurrent readers.
        let root = self.shared.engine.read_guard().mount_root();
        // set_home re-imposes any active partition, so a session opened
        // mid-split joins its home server's side rather than the
        // implicit rest group.
        self.dir.set_home(id, home, &self.shared.bus);
        RuntimeClient::new(
            ep,
            home,
            self.server_ids.clone(),
            Arc::clone(&self.dir),
            self.shared.bus.clone(),
            self.cfg.request_timeout,
            root,
            Arc::clone(&self.shared.obs),
            self.cfg.retry,
        )
    }

    /// Runs `f` with exclusive access to the protocol engine — the
    /// inspection hatch used by tests and the scenario runner.
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

    /// Crashes a server "without notification": the bus rejects its
    /// traffic and the protocol engine loses its volatile state. The
    /// server *thread* keeps running — a crashed machine and its message
    /// loop are indistinguishable to the rest of the cell.
    pub fn crash_server(&self, id: NodeId) {
        self.shared.bus.crash(id);
        self.shared.engine.exclusive(|e| e.crash_node(id));
    }

    /// Restarts a crashed server and runs its recovery protocol.
    pub fn restart_server(&self, id: NodeId) {
        self.shared.engine.exclusive(|e| e.restart_node(id));
        self.shared.bus.recover(id);
    }

    /// Imposes a partition between the given groups of *servers*,
    /// mirroring [`deceit_core::Cluster::split`]. Each client session is
    /// placed on its home server's side of the split. The engine, the
    /// bus, and the directory change inside one epoch-stamped critical
    /// section, so a concurrent [`ClusterRuntime::heal`] can never leave
    /// the two topologies pointing in opposite directions.
    pub fn split(&self, groups: &[&[NodeId]]) {
        let owned: Vec<Vec<NodeId>> = groups.iter().map(|g| g.to_vec()).collect();
        self.dir.set_split_with(Some(owned), &self.shared.bus, || {
            self.shared.engine.exclusive(|e| e.split_nodes(groups));
        });
    }

    /// Heals any partition (protocol reconciliation included), atomically
    /// with the directory/bus state — see [`ClusterRuntime::split`].
    pub fn heal(&self) {
        self.dir.set_split_with(None, &self.shared.bus, || {
            self.shared.engine.exclusive(|e| e.heal_nodes());
        });
    }

    /// Point-in-time traffic counters, read from atomics (the clock
    /// count behind a registry lock that only a thread's first clock
    /// read also takes), so observing a busy cluster never slows it down.
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
            pending_work: self.shared.engine.pending_work(),
        }
    }

    /// The runtime's always-on observability bundle (per-op-class
    /// latency histograms, pump transitions). Cheap to clone; client
    /// sessions already share it.
    pub fn obs(&self) -> Arc<RuntimeObs> {
        Arc::clone(&self.shared.obs)
    }

    /// One structured snapshot of every observability layer: op-class
    /// latency, engine lock telemetry, protocol-core histograms and
    /// flight-recorder totals, the sim-side stats snapshot, and the
    /// traffic counters. Takes the shared cell lock briefly (for the
    /// core/stats reads); everything else is read from atomics.
    pub fn observe(&self) -> ObsReport {
        let eobs = &self.shared.engine.obs;
        let engine = EngineReport {
            shared_acquisitions: eobs.shared_acquisitions.load(Ordering::Relaxed),
            exclusive_acquisitions: eobs.exclusive_acquisitions.load(Ordering::Relaxed),
            cell_wait: eobs.cell_wait.summary(),
            ring_hold: eobs.ring_hold.summary(),
        };
        let (core, stats) = {
            let guard = self.shared.engine.read_guard();
            let core = guard.obs_core().map(|o| CoreReport {
                drain_batch: o.drain_batch.summary(),
                lease_validation_failures: o.lease_validation_failures.load(Ordering::Relaxed),
                flight_events: (0..o.flight.servers())
                    .map(|i| o.flight.total(NodeId(i as u32)))
                    .collect(),
                placement: o.placement.snapshot(),
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
            pump_to_idle: obs.pump_to_idle.load(Ordering::Relaxed),
            pump_to_busy: obs.pump_to_busy.load(Ordering::Relaxed),
            failover_retries: obs.failover_retries.load(Ordering::Relaxed),
            failover_exhausted: obs.failover_exhausted.load(Ordering::Relaxed),
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
        let shared = match Arc::try_unwrap(shared) {
            Ok(s) => s,
            // lint: allow(no-bare-panic): the server and pump threads hold the only other clones of `shared`, `stop_and_join` has joined them all, and `self` was dropped above, so this is the last reference
            Err(_) => unreachable!("all thread handles joined, no engine refs can remain"),
        };
        let mut engine = shared.engine.into_inner();
        engine.settle();
        (engine, report)
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
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
                .map(|t| t.dropped_while_crashed.load(Ordering::Relaxed))
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
    while !shared.stop.load(Ordering::Acquire) {
        // No deadline: an idle server sleeps until a request arrives,
        // and only a closed bus (shutdown) hands back `None`.
        let Some(incoming) = ep.next_request(Duration::MAX) else { break };
        // A machine crashed by failure injection loses whatever was
        // queued in its buffers; the thread itself cannot know — it just
        // finds the traffic gone.
        if ep.is_crashed() {
            tally.dropped_while_crashed.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let (rep, rung) = shared.engine.serve(id, incoming.req);
        // Counted before the reply leaves, so a session that reads the
        // stats after its reply finds its request there. A reply the bus
        // refuses is counted in `bus_rejected` as well.
        tally.served[rung as usize].fetch_add(1, Ordering::Relaxed);
        ep.reply(incoming.from, incoming.call, rep);
    }
}

/// The deferred-work pump: what the simulator's event loop does between
/// client operations, done here from a real thread — per shard, in
/// bounded slices, so server threads interleave fairly on the cell lock
/// and no single file's backlog monopolizes a pump pass.
fn pump_loop<S: ProtocolHost>(shared: &Shared<S>, interval: Duration, batch: usize) {
    let shards = shared.engine.shard_count();
    // Idle/busy transition accounting: a pump that flaps between the
    // two under load is a sign the batching window is mistuned.
    let mut idle = true;
    while !shared.stop.load(Ordering::Acquire) {
        // The cached count keeps an idle pump off the cell lock
        // entirely — a read-only workload never sees the pump contend.
        if shared.engine.pending_work() == 0 {
            if !idle {
                idle = true;
                shared.obs.pump_to_idle.fetch_add(1, Ordering::Relaxed);
            }
            thread::sleep(interval);
            continue;
        }
        if idle {
            idle = false;
            shared.obs.pump_to_busy.fetch_add(1, Ordering::Relaxed);
        }
        // One allocation-free mask probe under the shared lock tells us
        // which slots have work; each hot slot then drains under the
        // shared cell lock plus its own ring lock — concurrent with
        // request service everywhere else.
        let mask = shared.engine.read_guard().pending_shard_mask();
        let mut fired = 0;
        for slot in 0..shards {
            if mask & (1 << slot) == 0 {
                continue;
            }
            fired += shared.engine.pump_slot(slot, batch);
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
                interval.as_micros().min(u64::MAX as u128) as u64,
            );
            shared.engine.read_guard().advance_idle_clock(tick);
            thread::sleep(interval);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    /// A session opened *while* a server partition is in force must land
    /// on its home server's side of the split, not in the implicit rest
    /// group.
    #[test]
    fn session_opened_during_split_joins_its_homes_side() {
        let bus: LiveBus<NfsFrame> = LiveBus::new();
        let dir = ClientDirectory::default();
        // Servers 0,1 vs 2; an existing client homed on 0.
        dir.set_home(n(1000), n(0), &bus);
        dir.set_split(Some(vec![vec![n(0), n(1)], vec![n(2)]]), &bus);
        assert!(bus.can_exchange(n(1000), n(0)));
        assert!(!bus.can_exchange(n(1000), n(2)));

        // Mid-split arrivals: one homed on each side.
        dir.set_home(n(1001), n(1), &bus);
        dir.set_home(n(1002), n(2), &bus);
        assert!(bus.can_exchange(n(1001), n(0)), "new session must sit with its home's group");
        assert!(bus.can_exchange(n(1001), n(1)));
        assert!(!bus.can_exchange(n(1001), n(2)));
        assert!(bus.can_exchange(n(1002), n(2)));
        assert!(!bus.can_exchange(n(1002), n(0)));
        // The two arrivals are on opposite sides of the split.
        assert!(!bus.can_exchange(n(1001), n(1002)));
    }

    /// `set_split(None)` must not be overwritten by a concurrent
    /// `reapply`: once a heal lands, no stale re-imposition of the old
    /// split may follow. The directory guarantees this by holding the
    /// split lock across the bus mutation; this test hammers the pair
    /// from racing threads and checks the invariant after every heal.
    #[test]
    fn heal_cannot_be_overwritten_by_concurrent_reapply() {
        let bus: LiveBus<NfsFrame> = LiveBus::new();
        let dir = Arc::new(ClientDirectory::default());
        dir.set_home(n(1000), n(0), &bus);

        let stop = Arc::new(AtomicBool::new(false));
        let stormers: Vec<_> = (0..3)
            .map(|_| {
                let dir = Arc::clone(&dir);
                let bus = bus.clone();
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        dir.reapply(&bus);
                    }
                })
            })
            .collect();

        for _ in 0..200 {
            dir.set_split(Some(vec![vec![n(0)], vec![n(1)]]), &bus);
            dir.set_split(None, &bus);
            // Healed means healed, no matter how the reapply storm
            // interleaved: reapply sees the cleared split and must not
            // touch the bus.
            assert!(
                bus.can_exchange(n(0), n(1)),
                "a concurrent reapply re-imposed a cleared split"
            );
        }
        stop.store(true, Ordering::Release);
        for t in stormers {
            t.join().unwrap();
        }
    }

    /// A session opened concurrently with a heal must not re-impose the
    /// split it raced with: `set_home`'s home-insert and re-imposition
    /// are one critical section against `set_split`.
    #[test]
    fn session_open_cannot_revive_a_healed_split() {
        let bus: LiveBus<NfsFrame> = LiveBus::new();
        let dir = Arc::new(ClientDirectory::default());
        let stop = Arc::new(AtomicBool::new(false));
        let openers: Vec<_> = (0..3u32)
            .map(|t| {
                let dir = Arc::clone(&dir);
                let bus = bus.clone();
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut i = 0u32;
                    while !stop.load(Ordering::Acquire) {
                        // A churn of session opens homed on both sides.
                        dir.set_home(n(1000 + t * 100 + (i % 50)), n(i % 2), &bus);
                        i += 1;
                    }
                })
            })
            .collect();
        let epoch_start = dir.split_epoch();
        for _ in 0..200 {
            dir.set_split(Some(vec![vec![n(0)], vec![n(1)]]), &bus);
            dir.set_split(None, &bus);
            assert!(bus.can_exchange(n(0), n(1)), "a racing session open revived a healed split");
        }
        stop.store(true, Ordering::Release);
        for t in openers {
            t.join().unwrap();
        }
        assert_eq!(dir.split_epoch(), epoch_start + 400, "every transition bumps the epoch");
    }

    /// Concurrent split/heal on a live cluster: the engine topology and
    /// the bus topology change inside one critical section, so whichever
    /// call wins, the two always agree afterwards — a healed engine never
    /// sits behind a split bus or vice versa.
    #[test]
    fn engine_and_bus_topology_never_diverge_under_split_heal_races() {
        let rt = Arc::new(ClusterRuntime::start(crate::RuntimeConfig::new(3)));
        let threads: Vec<_> = (0..4usize)
            .map(|t| {
                let rt = Arc::clone(&rt);
                thread::spawn(move || {
                    for _ in 0..25 {
                        if t % 2 == 0 {
                            rt.split(&[&[n(0)], &[n(1), n(2)]]);
                        } else {
                            rt.heal();
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
        rt.heal();
        assert!(rt.with_engine(|e| e.fs.cluster.net.reachable(n(0), n(1))));
        assert!(rt.shared.bus.can_exchange(n(0), n(1)));
        rt.shutdown();
    }
}
