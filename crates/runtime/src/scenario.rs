//! Scripted scenarios that run identically in either [`World`].
//!
//! The deterministic simulator is this reproduction's ground truth: every
//! §3 protocol property is verified there. The live runtime must not be a
//! second, subtly different implementation — so a [`Scenario`] describes
//! client work and faults abstractly, runs once against any [`World`],
//! and returns a comparable [`ScenarioOutcome`] (final file contents and
//! replica counts). Differential tests assert the two outcomes are
//! identical, pinning the live transport, addressing, and fault mirroring
//! to the simulator's semantics.

use std::collections::{BTreeMap, BTreeSet};

use deceit_core::{FaultEvent, FileParams};
use deceit_net::rpc::RpcError;
use deceit_net::NodeId;
use deceit_nfs::{NfsReply, NfsRequest};

use crate::config::RuntimeConfig;
use crate::error::{expect_attr, RuntimeError, RuntimeResult};
use crate::world::{read_back, LiveWorld, SimWorld, World};

/// One step of a scripted scenario.
///
/// `client` indexes the scenario's client sessions; files live in the
/// root directory under their scripted names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioStep {
    /// Client creates a file.
    Create { client: usize, name: String },
    /// Client raises a file's replication level.
    SetReplicas { client: usize, name: String, replicas: usize },
    /// Client writes `data` at `offset`.
    Write { client: usize, name: String, offset: usize, data: Vec<u8> },
    /// Client reads the file (result discarded; exercises the read path).
    Read { client: usize, name: String },
    /// A fault applied to the whole cell: crash, restart, split, heal,
    /// or settle (let all deferred protocol work finish).
    Fault(FaultEvent),
}

/// A scripted run: cell size, client count, steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Servers in the cell.
    pub servers: usize,
    /// Concurrent client sessions.
    pub clients: usize,
    /// The script.
    pub steps: Vec<ScenarioStep>,
}

/// What a world produced: per-file final contents and replica counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScenarioOutcome {
    /// Final byte contents per file name.
    pub contents: BTreeMap<String, Vec<u8>>,
    /// Final replica count per file name.
    pub replicas: BTreeMap<String, usize>,
}

impl Scenario {
    /// Routes an operation of client `k` to server `k % servers`, or the
    /// next one up (see [`first_up`]); unreachable when the script has
    /// crashed every server.
    fn route(&self, client: usize, down: &BTreeSet<u32>) -> RuntimeResult<NodeId> {
        let servers = self.servers as u32;
        let home = NodeId(client as u32 % servers.max(1));
        first_up(client as u32, servers, down).ok_or(RuntimeError::Rpc(RpcError::Unreachable(home)))
    }

    /// Runs the script against `world`, settles, and reads every
    /// scripted file back through client 0. A server-side error fails
    /// the run (for example, two creates of one name).
    pub fn run(&self, world: &mut impl World) -> RuntimeResult<ScenarioOutcome> {
        let root = world.root();
        for step in &self.steps {
            let (client, name) = match step {
                ScenarioStep::Fault(fault) => {
                    world.fault(fault);
                    continue;
                }
                ScenarioStep::Create { client, name }
                | ScenarioStep::SetReplicas { client, name, .. }
                | ScenarioStep::Write { client, name, .. }
                | ScenarioStep::Read { client, name } => (*client, name.clone()),
            };
            let via = self.route(client, &world.down())?;
            let req = if let ScenarioStep::Create { .. } = step {
                NfsRequest::Create { dir: root, name, mode: 0o644 }
            } else {
                let lookup = NfsRequest::Lookup { dir: root, name };
                let fh = expect_attr(world.call(client, via, lookup)?)?.handle;
                match step {
                    ScenarioStep::SetReplicas { replicas, .. } => {
                        NfsRequest::DeceitSetParams { fh, params: FileParams::important(*replicas) }
                    }
                    ScenarioStep::Write { offset, data, .. } => {
                        NfsRequest::Write { fh, offset: *offset, data: data.clone().into() }
                    }
                    _ => NfsRequest::Read { fh, offset: 0, count: 1 << 20 },
                }
            };
            if let NfsReply::Error(e) = world.call(client, via, req)? {
                return Err(RuntimeError::Nfs(e));
            }
        }
        world.fault(&FaultEvent::Settle);

        let mut outcome = ScenarioOutcome::default();
        let via = self.route(0, &world.down())?;
        // Each name was created once: a second create fails the run.
        for step in &self.steps {
            let ScenarioStep::Create { name, .. } = step else { continue };
            let lookup = NfsRequest::Lookup { dir: root, name: name.clone() };
            let NfsReply::Attr(attr) = world.call(0, via, lookup)? else { continue };
            let state = read_back(world, 0, via, attr.handle)?;
            outcome.contents.insert(name.clone(), state.data.to_vec());
            outcome.replicas.insert(name.clone(), state.replicas);
        }
        Ok(outcome)
    }

    /// Runs the script under the deterministic simulator.
    pub fn run_sim(&self, cfg: &RuntimeConfig) -> RuntimeResult<ScenarioOutcome> {
        let cfg = RuntimeConfig { servers: self.servers, ..cfg.clone() };
        self.run(&mut SimWorld::new(&cfg, self.clients.max(1)))
    }

    /// Runs the script against a live cluster on real threads, and
    /// returns the outcome with the cluster's flight-recorder dump —
    /// what a differential test prints when the live outcome disagrees
    /// with the simulator's, so the mismatch arrives with the last
    /// protocol events each server acted in instead of a bare assert.
    pub fn run_live(&self, cfg: &RuntimeConfig) -> RuntimeResult<(ScenarioOutcome, String)> {
        let cfg = RuntimeConfig { servers: self.servers, ..cfg.clone() };
        let mut world = LiveWorld::start(cfg, self.clients.max(1));
        let outcome = self.run(&mut world)?;
        Ok((outcome, world.flight()))
    }
}

/// Server `preferred % servers` or, if that one is down, the next id up
/// that is not: the same deterministic rule in both worlds. `None` when
/// every server is down.
pub(crate) fn first_up(preferred: u32, servers: u32, down: &BTreeSet<u32>) -> Option<NodeId> {
    (0..servers).map(|step| (preferred + step) % servers).find(|s| !down.contains(s)).map(NodeId)
}

/// Formats a failure uniformly for every checker that owns a live
/// cluster: what went wrong, then the protocol flight-recorder ring
/// captured before shutdown. Differential mismatches, auditor
/// violations, and nemesis storms all route through this, so any failure
/// mode arrives with the last protocol events each server acted on — not
/// just sim-vs-live mismatches.
pub fn failure_report(kind: &str, detail: &str, flight: &str) -> String {
    format!(
        "== {kind} ==\n{detail}\n-- protocol flight recorder (most recent events per server) --\n{flight}"
    )
}

impl Scenario {
    /// Runs the script under both worlds and panics with a
    /// [`failure_report`] — flight-recorder ring included — if the live
    /// outcome diverges from the simulator's. The one-call form of a
    /// differential test.
    #[expect(
        clippy::expect_used,
        clippy::panic,
        reason = "an assertion for tests: a failed run or a mismatch fails the test"
    )]
    pub fn assert_worlds_match(&self, cfg: &RuntimeConfig) {
        let sim = self.run_sim(cfg).expect("sim run failed");
        let (live, flight) = self.run_live(cfg).expect("live run failed");
        if live != sim {
            panic!(
                "{}",
                failure_report(
                    "differential mismatch",
                    &format!("sim outcome:\n{sim:#?}\nlive outcome:\n{live:#?}"),
                    &flight,
                )
            );
        }
    }
}

impl Scenario {
    /// The canonical differential script: replicated writes from several
    /// clients, a crash, traffic through the survivors, recovery, and a
    /// final write round that restores the scripted replica level
    /// (§3.1 regenerates missing replicas on update). Used by the unit
    /// and integration differential tests so there is exactly one copy
    /// of the script to keep in sync.
    pub fn crash_and_recover(servers: usize, clients: usize) -> Scenario {
        let mut steps = Vec::new();
        for c in 0..clients {
            let name = format!("f{c}");
            steps.push(ScenarioStep::Create { client: c, name: name.clone() });
            steps.push(ScenarioStep::SetReplicas { client: c, name: name.clone(), replicas: 3 });
            steps.push(ScenarioStep::Write {
                client: c,
                name: name.clone(),
                offset: 0,
                data: format!("v1 payload of client {c}").into_bytes(),
            });
        }
        steps.push(ScenarioStep::Fault(FaultEvent::Settle));
        steps.push(ScenarioStep::Fault(FaultEvent::Crash { server: 0 }));
        for c in 0..clients {
            let name = format!("f{c}");
            steps.push(ScenarioStep::Read { client: c, name: name.clone() });
            steps.push(ScenarioStep::Write {
                client: c,
                name,
                offset: 0,
                data: format!("v2 payload of client {c}").into_bytes(),
            });
        }
        steps.push(ScenarioStep::Fault(FaultEvent::Settle));
        steps.push(ScenarioStep::Fault(FaultEvent::Restart { server: 0 }));
        steps.push(ScenarioStep::Fault(FaultEvent::Settle));
        for c in 0..clients {
            let name = format!("f{c}");
            steps.push(ScenarioStep::Write {
                client: c,
                name,
                offset: 0,
                data: format!("v3 payload of client {c}").into_bytes(),
            });
        }
        steps.push(ScenarioStep::Fault(FaultEvent::Settle));
        Scenario { servers, clients, steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_outcome_is_deterministic() {
        let scenario = Scenario::crash_and_recover(3, 4);
        let cfg = RuntimeConfig::new(3);
        let a = scenario.run_sim(&cfg).unwrap();
        let b = scenario.run_sim(&cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.contents.len(), 4);
        for (name, contents) in &a.contents {
            let c: usize = name[1..].parse().unwrap();
            assert_eq!(contents, format!("v3 payload of client {c}").as_bytes());
        }
        for count in a.replicas.values() {
            assert_eq!(*count, 3, "replication level must be restored");
        }
    }
}
