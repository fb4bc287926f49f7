//! The §5.3 agent's failover, written once and run in both worlds: over
//! the simulator's `NfsServer` and over a live session, each reached
//! through `World::link`. Live failover races crash timing, so CI runs
//! this target in its stress loop.

use deceit_agent::{Agent, AgentConfig, AgentLink, Failover, Leg};
use deceit_core::{FaultEvent, FileParams};
use deceit_net::NodeId;
use deceit_nfs::{FileHandle, NfsRequest};
use deceit_runtime::{LiveWorld, RuntimeConfig, SimWorld, World};
use deceit_sim::SimTime;

/// Counts the `(retries, exhaustions)` an agent's failover takes through
/// `link`.
struct Counted<'a, L>(&'a mut L, u64, u64);

impl<L: AgentLink> AgentLink for Counted<'_, L> {
    type Error = L::Error;
    fn servers(&self) -> Vec<NodeId> {
        self.0.servers()
    }
    fn send(&mut self, from: NodeId, to: NodeId, req: NfsRequest) -> Leg<L::Error> {
        self.0.send(from, to, req)
    }
    fn now(&self) -> SimTime {
        self.0.now()
    }
    fn failover(&mut self, step: Failover) {
        match step {
            Failover::Retry => self.1 += 1,
            Failover::Exhausted => self.2 += 1,
            Failover::Backoff(_) => {}
        }
        self.0.failover(step);
    }
}

/// An agent mounted on server `home`: in a 3-server world, session
/// `home` is homed there.
fn agent(home: u32) -> Agent {
    Agent::new(NodeId(100), NodeId(home), AgentConfig::uncached())
}

/// Crashes every server, then a getattr through session 0: the
/// `(retries, exhaustions)` its failover took.
fn exhaust(world: &mut impl World, servers: u32) -> (u64, u64) {
    let root = world.root();
    (0..servers).for_each(|server| world.fault(&FaultEvent::Crash { server }));
    let mut link = Counted(world.link(0), 0, 0);
    assert!(agent(0).getattr(&mut link, root).is_err(), "no server is up");
    (link.1, link.2)
}

/// A request whose every server is down sweeps the rest of the cell
/// twice, then gives up — also in a cell sized by struct update from a
/// config built for another size. Live, the cell counts the same steps.
#[test]
fn retry_budget_scales_with_cell_size() {
    let resized = RuntimeConfig { servers: 5, ..RuntimeConfig::new(3) };
    for cfg in [RuntimeConfig::new(1), RuntimeConfig::new(3), resized] {
        let n = cfg.servers as u32;
        let want = (u64::from(2 * (n - 1)), u64::from(n > 1));
        assert_eq!(exhaust(&mut SimWorld::new(&cfg, 1), n), want, "sim, {n} servers");
        let mut live = LiveWorld::start(cfg, 1);
        assert_eq!(exhaust(&mut live, n), want, "live, {n} servers");
        let obs = live.rt.observe();
        assert_eq!((obs.failover_retries, obs.failover_exhausted), want, "live counters, {n}");
    }
}

/// A settled file replicated on every server of the 3-server `world`,
/// written once through an agent on session `home`.
fn replicated_file(world: &mut impl World, home: u32) -> (Agent, FileHandle) {
    let (mut agent, root) = (agent(home), world.root());
    let link = world.link(home as usize);
    let (f, _) = agent.create(link, root, "f", 0o644).expect("create");
    agent.set_file_params(link, f.handle, FileParams::important(3)).expect("params");
    agent.write(link, f.handle, 0, b"old").expect("write");
    world.fault(&FaultEvent::Settle);
    (agent, f.handle)
}

/// A write whose home is crashed was never delivered, so it moves to the
/// lowest-numbered live server and is applied there exactly once.
fn write_fails_over_once(world: &mut impl World) {
    let (mut agent, fh) = replicated_file(world, 0);
    let (before, _) = agent.getattr(world.link(0), fh).expect("getattr");
    world.fault(&FaultEvent::Crash { server: 0 });
    let (after, _) = agent.write(world.link(0), fh, 0, b"new").expect("write fails over");
    assert_eq!(after.version.sub, before.version.sub + 1, "applied once");
    assert_eq!((agent.server, agent.failovers), (NodeId(1), 1));
    let (data, _) = agent.read_file(world.link(0), fh).expect("read back");
    assert_eq!(&data[..], b"new");
}

#[test]
fn a_write_to_a_crashed_home_fails_over_and_applies_once() {
    write_fails_over_once(&mut SimWorld::new(&RuntimeConfig::new(3), 1));
    let mut live = LiveWorld::start(RuntimeConfig::new(3), 1);
    write_fails_over_once(&mut live);
    assert_eq!(live.link(0).home(), NodeId(1), "the session moved with its agent");
}

/// A read whose home is crashed is answered by the lowest-numbered live
/// server, past another crashed one.
fn read_fails_over_to_lowest_live(world: &mut impl World) {
    let (mut agent, fh) = replicated_file(world, 2);
    world.fault(&FaultEvent::Crash { server: 2 });
    world.fault(&FaultEvent::Crash { server: 0 });
    let (data, _) = agent.read_file(world.link(2), fh).expect("read fails over");
    assert_eq!(&data[..], b"old");
    assert_eq!((agent.server, agent.failovers), (NodeId(1), 1));
}

#[test]
fn a_read_from_a_crashed_home_is_answered_by_the_lowest_live_server() {
    read_fails_over_to_lowest_live(&mut SimWorld::new(&RuntimeConfig::new(3), 3));
    let mut live = LiveWorld::start(RuntimeConfig::new(3), 3);
    read_fails_over_to_lowest_live(&mut live);
    assert_eq!(live.link(2).home(), NodeId(1), "the session moved with its agent");
}
