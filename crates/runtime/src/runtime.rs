//! The live cluster: server threads, the pump thread, failure injection.
//!
//! Each server thread serves its mailbox one request at a time, in
//! arrival order: it hands the request to `ShardedEngine::serve`, which
//! picks the locks (see [`crate::shard`]) and returns the reply with the
//! rung that answered; the thread counts that rung and replies. Nothing
//! here names a lock level or an [`NfsService`] entry. Deferred protocol
//! work has two firers: a request fires what is due in the slots it
//! holds, inline, and the pump thread drains one ready slot per wake,
//! round-robin, through `ShardedEngine::pump_slot`. The pump naps
//! `PUMP_INTERVAL` (1 ms) in a quiet cell and `shard_count()` times as
//! long while requests flow, so under load its timer does not preempt
//! them every millisecond. Failure injection and the inspection hatches
//! take the whole engine through `ShardedEngine::exclusive`.
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

/// The pump's tick: in a quiet cell it naps this long after each
/// [`pump_step`] — after draining one ready slot as much as after finding
/// none — so a ready slot waits at most `shard_count()` ticks (16 ms).
/// While requests flow it naps `shard_count()` ticks instead
/// ([`pump_nap`]), and a slot no request reaches then waits at most
/// `shard_count()²` ticks (256 ms). A step that finds work pending but
/// none ready advances the protocol clock by the nap it follows.
const PUMP_INTERVAL: Duration = Duration::from_millis(1);

/// Deferred-work events the pump fires from the one slot it drains in a
/// wake.
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

    /// Requests served by every server on every rung.
    fn served_total(&self) -> u64 {
        self.tallies.iter().map(Tally::served_total).sum()
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
            requests_served: self.shared.served_total(),
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
            pump_steps: obs.pump_steps.load(),
            pump_long_naps: obs.pump_long_naps.load(),
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
            // Cut the pump's nap short rather than wait it out.
            h.thread().unpark();
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
/// client operations, done here from a real thread. Requests fire the
/// work that is due in the slots they hold inline
/// (`Cluster::client_op_scoped`); the pump takes the rest at a steady
/// trickle — one [`pump_step`] per wake, so background work never
/// arrives as a burst in front of the requests in flight. Each nap is
/// picked by [`pump_nap`] from what the previous one saw: requests served
/// meanwhile mean they are firing due work and moving the protocol clock
/// themselves, and the pump stays out of their way for `shard_count()`
/// ticks; otherwise it naps one [`PUMP_INTERVAL`]. The nap is a
/// `park_timeout`, which shutdown cuts short with an unpark.
fn pump_loop<S: ProtocolHost>(shared: &Shared<S>) {
    let obs = &shared.obs;
    // Idle/busy transition accounting: a pump that flaps between the
    // two under load is a sign the batching window is mistuned.
    let mut idle = true;
    let mut cursor = 0;
    let mut nap = PUMP_INTERVAL;
    let mut served = shared.served_total();
    while !shared.stop.load() {
        let now_idle = pump_step(&shared.engine, &mut cursor, nap) == Tick::Idle;
        obs.pump_steps.fetch_add(1);
        if now_idle != idle {
            idle = now_idle;
            let edge = if idle { &obs.pump_to_idle } else { &obs.pump_to_busy };
            edge.fetch_add(1);
        }
        let now_served = shared.served_total();
        nap = pump_nap(now_served != served, shared.engine.shard_count());
        served = now_served;
        if nap > PUMP_INTERVAL {
            obs.pump_long_naps.fetch_add(1);
        }
        thread::park_timeout(nap);
    }
}

/// The pump's nap after a step: one [`PUMP_INTERVAL`] in a quiet cell,
/// `shards` of them when requests were served since the step before.
fn pump_nap(requests_served: bool, shards: usize) -> Duration {
    if requests_served {
        PUMP_INTERVAL.saturating_mul(u32::try_from(shards).unwrap_or(u32::MAX))
    } else {
        PUMP_INTERVAL
    }
}

/// What one [`pump_step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tick {
    /// No deferred work was pending.
    Idle,
    /// Work was pending but none of it ready: the protocol clock
    /// advanced by the nap the step followed.
    Waited,
    /// `slot`, the next ready slot after the cursor, drained `fired`
    /// units of its work.
    Pumped { slot: usize, fired: usize },
}

/// One pump wake, without the nap: drains the first slot at or after
/// `*cursor` (round-robin over the engine's slots) that has deferred
/// work ready, up to [`PUMP_BATCH`] units, and moves the cursor past it.
/// With work pending but none ready, it advances the protocol clock by
/// `napped`, the nap this step follows, so idle wall time maps 1:1 onto
/// protocol time whatever the nap's length.
fn pump_step<S: ProtocolHost>(
    engine: &ShardedEngine<S>,
    cursor: &mut usize,
    napped: Duration,
) -> Tick {
    // One allocation-free probe under the shared cell lock asks the
    // engine whether any deferred work is pending and, if so, which
    // slots have work ready. A shared acquisition blocks no reader, so
    // an idle pump's probe costs a read-only workload nothing but the
    // acquisition itself.
    let mask = {
        let engine = engine.read_guard();
        if engine.pending_work() == 0 {
            return Tick::Idle;
        }
        let mask = engine.pending_shard_mask();
        if mask == 0 {
            // Work is pending but none of it is ready: it is parked
            // behind a protocol-clock horizon (a stability quiet period,
            // a drain's batching window) and a quiet cell advances that
            // clock through nothing else. Map the idle wall interval
            // onto the protocol clock so the horizons elapse in real
            // time; once they do, a later tick fires them and the queue
            // drains to a true zero.
            engine.advance_idle_clock(deceit_sim::SimDuration::from_micros(
                napped.as_micros().min(u64::MAX as u128) as u64,
            ));
            return Tick::Waited;
        }
        mask
    };
    // The mask has no bits at or above the slot count, so rotating the
    // cursor's bit down to bit 0 puts the next ready slot, wrapping
    // round, at the lowest set bit.
    let slot = (*cursor + mask.rotate_right(*cursor as u32).trailing_zeros() as usize) % 64;
    *cursor = (slot + 1) % engine.shard_count();
    // The slot drains under the shared cell lock plus its own ring lock
    // — concurrent with request service on every other slot.
    Tick::Pumped { slot, fired: engine.pump_slot(slot, PUMP_BATCH) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    fn split(groups: &[&[u32]]) -> FaultEvent {
        FaultEvent::Split { groups: groups.iter().map(|g| g.to_vec()).collect() }
    }

    /// A real engine, as `ClusterRuntime::start` builds it, whose files
    /// write back asynchronously (`write_safety` 0): each write leaves
    /// its `FlushServer` ready in the file's slot, and its §3.4 stability
    /// check parked 30 s out on the protocol clock.
    fn write_behind_engine() -> ShardedEngine<NfsServer> {
        let cfg = crate::RuntimeConfig::new(3);
        let mut fs = cfg.fs.clone();
        fs.file_params.write_safety = 0;
        let cluster = cfg.cluster.clone().with_shards(cfg.shards);
        ShardedEngine::new(NfsServer::new(DeceitFs::new(cfg.servers, cluster, fs)))
    }

    /// Pending work, ready-slot mask and protocol clock, read together.
    fn probe(engine: &ShardedEngine<NfsServer>) -> (usize, u64, deceit_sim::SimTime) {
        let e = engine.read_guard();
        (e.pending_work(), e.pending_shard_mask(), e.fs.cluster.now())
    }

    /// The pump's tick, stepped by hand: each step drains one ready slot
    /// and leaves every other slot's work in place; `shard_count()` steps
    /// visit every slot that was ready, in round-robin order from the
    /// cursor — a slot refilled after its turn waits for the rest of the
    /// round; and with work pending but none ready, a step fires nothing
    /// and advances the protocol clock by exactly the nap it follows. The
    /// nap is one tick in a quiet cell and `shard_count()` ticks after a
    /// step with requests served.
    #[test]
    fn pump_step_drains_one_ready_slot_per_tick_round_robin() {
        let engine = write_behind_engine();
        let shards = engine.shard_count();
        let root = engine.read_guard().fs.root();
        // Create every file first: a creation holds the whole cell and
        // fires whatever is due anywhere, an earlier write-back included.
        let writes: Vec<NfsRequest> = (0..4)
            .map(|i| {
                let create = NfsRequest::Create { dir: root, name: format!("f{i}"), mode: 0o644 };
                let (NfsReply::Attr(attr), _) = engine.serve(n(0), create) else {
                    panic!("create f{i} failed");
                };
                NfsRequest::Write { fh: attr.handle, offset: 0, data: Bytes::from_static(b"x") }
            })
            .collect();
        let write = |req: &NfsRequest| {
            let (reply, _) = engine.serve(n(0), req.clone());
            assert!(reply.as_error().is_none(), "{req:?}: {reply:?}");
        };
        writes.iter().for_each(write);
        let (_, ready, _) = probe(&engine);
        let ready_slots: Vec<usize> = (0..shards).filter(|s| ready & (1 << s) != 0).collect();
        assert!(ready_slots.len() >= 3, "write-backs ready in too few slots: {ready:#b}");

        // Start the cursor just past the first ready slot, so the round
        // wraps and comes back to that slot last; refill the first slot
        // drained, so it comes round once more after that.
        let mut cursor = ready_slots[0] + 1;
        let mut visited = Vec::new();
        for _ in 0..shards {
            let (_, before, _) = probe(&engine);
            if let Tick::Pumped { slot, fired } = pump_step(&engine, &mut cursor, PUMP_INTERVAL) {
                let (_, after, _) = probe(&engine);
                assert!(fired > 0, "slot {slot} was ready but fired nothing");
                assert_eq!(after, before & !(1 << slot), "a step touched a second slot");
                if visited.is_empty() {
                    let slot_of = |req: &&NfsRequest| {
                        req.shard_key().map(|key| deceit_core::shard_slot(key, shards))
                    };
                    writes.iter().filter(|req| slot_of(req) == Some(slot)).for_each(write);
                }
                visited.push(slot);
            }
        }
        let mut round = ready_slots[1..].to_vec();
        round.extend([ready_slots[0], ready_slots[1]]);
        assert_eq!(visited, round, "ready slots out of round-robin order");

        let (pending, ready, clock) = probe(&engine);
        assert!(pending > 0, "the stability checks should still be parked");
        assert_eq!(ready, 0);
        let quiet = pump_nap(false, shards);
        let busy = pump_nap(true, shards);
        assert_eq!(quiet, PUMP_INTERVAL);
        assert_eq!(busy, PUMP_INTERVAL * shards as u32);
        let mut expected = clock;
        for nap in [quiet, busy, quiet] {
            assert_eq!(pump_step(&engine, &mut cursor, nap), Tick::Waited);
            expected += deceit_sim::SimDuration::from_micros(nap.as_micros() as u64);
            assert_eq!(probe(&engine), (pending, 0, expected), "a waiting step after {nap:?}");
        }
    }

    /// Under sustained load the pump naps long, yet still reaches a slot
    /// that no request holds: a session streams reads of files in other
    /// slots for 1 s, and a write-behind write's ready work in slot `a`
    /// must be fired within twice the `shard_count()²`-tick bound. A cell
    /// with no requests never naps long.
    #[test]
    fn pump_reaches_a_slot_no_request_holds_while_requests_flow() {
        let mut cfg = crate::RuntimeConfig::new(3);
        cfg.fs.file_params.write_safety = 0;
        let rt = ClusterRuntime::start(cfg);
        let engine = &rt.shared.engine;
        let shards = engine.shard_count();
        let woke = deceit_sim::wall::now();
        while rt.observe().pump_steps < 3 {
            assert!(deceit_sim::wall::since(woke) < Duration::from_secs(10), "the pump never woke");
            thread::sleep(PUMP_INTERVAL);
        }
        assert_eq!(rt.observe().pump_long_naps, 0, "a cell with no requests napped long");
        let slot_of = |fh| {
            let read = NfsRequest::Read { fh, offset: 0, count: 64 };
            read.shard_key().map(|key| deceit_core::shard_slot(key, shards))
        };
        let mut writer = rt.client_homed(n(0));
        let mut agent = crate::live_agent(&writer);
        let root = writer.root();
        let files: Vec<_> = (0..8)
            .map(|i| agent.create(&mut writer, root, &format!("f{i}"), 0o644).expect("create"))
            .map(|(attr, _)| attr.handle)
            .collect();
        for &fh in &files {
            agent.write(&mut writer, fh, 0, b"streamed").expect("write");
        }
        rt.settle();
        let target = files[0];
        let a = slot_of(target).expect("a file has a slot");
        let others: Vec<_> = files.iter().copied().filter(|&fh| slot_of(fh) != Some(a)).collect();
        assert!(!others.is_empty(), "every file landed in slot {a}");

        let stream = Duration::from_secs(1);
        let bound = PUMP_INTERVAL * (2 * shards * shards) as u32;
        let long_naps_before = rt.observe().pump_long_naps;
        thread::scope(|scope| {
            let mut reader = rt.client_homed(n(1));
            let mut reading = crate::live_agent(&reader);
            let others = &others;
            let (under_way, wait_under_way) = std::sync::mpsc::channel();
            let streamer = scope.spawn(move || {
                let start = deceit_sim::wall::now();
                let mut reads = 0u64;
                while deceit_sim::wall::since(start) < stream {
                    let fh = others[reads as usize % others.len()];
                    reading.read_file(&mut reader, fh).expect("streamed read");
                    reads += 1;
                    if reads == 1_000 {
                        let _ = under_way.send(());
                    }
                }
                reads
            });
            // The write lands once the stream is under way.
            wait_under_way.recv().expect("the stream got under way");
            agent.write(&mut writer, target, 0, b"behind").expect("write-behind write");
            let written = deceit_sim::wall::now();
            while engine.read_guard().pending_shard_mask() & (1 << a) != 0 {
                assert!(
                    deceit_sim::wall::since(written) <= bound,
                    "slot {a}'s ready work waited past {bound:?} while requests flowed"
                );
                thread::sleep(PUMP_INTERVAL);
            }
            assert!(streamer.join().expect("streamer") > 0);
        });
        assert!(rt.observe().pump_long_naps > long_naps_before, "the pump never saw the load");
        rt.shutdown();
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

        session.set_home(n(2)).expect("server 2 is in the cell");
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
                        session.set_home(n((i + 1) % 2)).expect("in the cell");
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
        assert!(crate::live_agent(&client).create(&mut client, root, "after", 0o644).is_ok());
        rt.shutdown();
    }
}
