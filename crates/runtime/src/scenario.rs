//! Scripted scenarios that run identically under the simulator and the
//! live runtime.
//!
//! The deterministic simulator is this reproduction's ground truth: every
//! §3 protocol property is verified there. The live runtime must not be a
//! second, subtly different implementation — so a [`Scenario`] describes
//! client work and failure injection abstractly, executes under either
//! world, and returns a comparable [`ScenarioOutcome`] (final file
//! contents and replica counts). Differential tests assert the two
//! outcomes are identical, pinning the live transport, addressing, and
//! crash mirroring to the simulator's semantics.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "a fault-injection driver, not a serving path: a broken precondition should stop the run"
)]

use std::collections::{BTreeMap, BTreeSet};

use deceit_core::FileParams;
use deceit_net::NodeId;
use deceit_nfs::{DeceitFs, NfsReply, NfsRequest};

use crate::config::RuntimeConfig;
use crate::error::RuntimeResult;
use crate::runtime::ClusterRuntime;

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
    /// Crash a server without notification.
    Crash { server: u32 },
    /// Restart a crashed server.
    Restart { server: u32 },
    /// Let all deferred protocol work finish.
    Settle,
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
    /// Every file name the script creates, in first-appearance order.
    fn names(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for step in &self.steps {
            if let ScenarioStep::Create { name, .. } = step {
                if seen.insert(name.clone()) {
                    out.push(name.clone());
                }
            }
        }
        out
    }

    /// Routes an operation of client `k` to a live server: its preferred
    /// server (`k % servers`) or, if that one is down, the next id up —
    /// the same deterministic rule in both worlds.
    fn route(&self, client: usize, down: &BTreeSet<u32>) -> NodeId {
        let n = self.servers as u32;
        let preferred = (client as u32) % n;
        (0..n)
            .map(|step| NodeId((preferred + step) % n))
            .find(|id| !down.contains(&id.0))
            .expect("scenario crashed every server")
    }

    /// Runs the script under the deterministic simulator.
    pub fn run_sim(&self, cfg: &RuntimeConfig) -> ScenarioOutcome {
        let mut fs = DeceitFs::new(self.servers, cfg.cluster.clone(), cfg.fs.clone());
        let root = fs.root();
        let mut down: BTreeSet<u32> = BTreeSet::new();

        for step in &self.steps {
            match step {
                ScenarioStep::Create { client, name } => {
                    let via = self.route(*client, &down);
                    fs.create(via, root, name, 0o644).expect("sim create");
                }
                ScenarioStep::SetReplicas { client, name, replicas } => {
                    let via = self.route(*client, &down);
                    let fh = fs.lookup(via, root, name).expect("sim lookup").value.handle;
                    fs.set_file_params(via, fh, FileParams::important(*replicas))
                        .expect("sim set_params");
                }
                ScenarioStep::Write { client, name, offset, data } => {
                    let via = self.route(*client, &down);
                    let fh = fs.lookup(via, root, name).expect("sim lookup").value.handle;
                    fs.write(via, fh, *offset, data).expect("sim write");
                }
                ScenarioStep::Read { client, name } => {
                    let via = self.route(*client, &down);
                    let fh = fs.lookup(via, root, name).expect("sim lookup").value.handle;
                    let _ = fs.read(via, fh, 0, 1 << 20).expect("sim read");
                }
                ScenarioStep::Crash { server } => {
                    down.insert(*server);
                    fs.cluster.crash_server(NodeId(*server));
                }
                ScenarioStep::Restart { server } => {
                    down.remove(server);
                    fs.cluster.recover_server(NodeId(*server));
                }
                ScenarioStep::Settle => fs.cluster.run_until_quiet(),
            }
        }
        fs.cluster.run_until_quiet();

        let mut outcome = ScenarioOutcome::default();
        let via = self.route(0, &down);
        for name in self.names() {
            let Ok(attr) = fs.lookup(via, root, &name) else { continue };
            let fh = attr.value.handle;
            let data = fs.read(via, fh, 0, 1 << 20).expect("sim readback").value;
            let holders = fs.file_replicas(via, fh).expect("sim locate").value;
            outcome.contents.insert(name.clone(), data.to_vec());
            outcome.replicas.insert(name, holders.len());
        }
        outcome
    }

    /// Runs the script against a live cluster on real threads.
    pub fn run_live(&self, cfg: &RuntimeConfig) -> RuntimeResult<ScenarioOutcome> {
        self.run_live_observed(cfg).map(|(outcome, _)| outcome)
    }

    /// [`Scenario::run_live`] plus the cluster's flight-recorder dump,
    /// captured just before shutdown — what a differential test prints
    /// when the live outcome disagrees with the simulator's, so the
    /// mismatch arrives with the last protocol events each server acted
    /// in instead of a bare assert.
    pub fn run_live_observed(
        &self,
        cfg: &RuntimeConfig,
    ) -> RuntimeResult<(ScenarioOutcome, String)> {
        let mut cfg = cfg.clone();
        cfg.servers = self.servers;
        let rt = ClusterRuntime::start(cfg);
        let mut sessions: Vec<_> = (0..self.clients.max(1)).map(|_| rt.client()).collect();
        let root = sessions[0].root();
        let mut down: BTreeSet<u32> = BTreeSet::new();

        for step in &self.steps {
            match step {
                ScenarioStep::Create { client, name } => {
                    let via = self.route(*client, &down);
                    let rep = sessions[*client].call_via(
                        via,
                        NfsRequest::Create { dir: root, name: name.clone(), mode: 0o644 },
                    )?;
                    ensure_ok(rep)?;
                }
                ScenarioStep::SetReplicas { client, name, replicas } => {
                    let via = self.route(*client, &down);
                    let session = &mut sessions[*client];
                    let fh = live_lookup(session, via, root, name)?;
                    let rep = session.call_via(
                        via,
                        NfsRequest::DeceitSetParams {
                            fh,
                            params: FileParams::important(*replicas),
                        },
                    )?;
                    ensure_ok(rep)?;
                }
                ScenarioStep::Write { client, name, offset, data } => {
                    let via = self.route(*client, &down);
                    let session = &mut sessions[*client];
                    let fh = live_lookup(session, via, root, name)?;
                    let rep = session.call_via(
                        via,
                        NfsRequest::Write { fh, offset: *offset, data: data.clone().into() },
                    )?;
                    ensure_ok(rep)?;
                }
                ScenarioStep::Read { client, name } => {
                    let via = self.route(*client, &down);
                    let session = &mut sessions[*client];
                    let fh = live_lookup(session, via, root, name)?;
                    let rep = session
                        .call_via(via, NfsRequest::Read { fh, offset: 0, count: 1 << 20 })?;
                    ensure_ok(rep)?;
                }
                ScenarioStep::Crash { server } => {
                    down.insert(*server);
                    rt.crash_server(NodeId(*server));
                }
                ScenarioStep::Restart { server } => {
                    down.remove(server);
                    rt.restart_server(NodeId(*server));
                }
                ScenarioStep::Settle => rt.settle(),
            }
        }
        rt.settle();

        let mut outcome = ScenarioOutcome::default();
        let via = self.route(0, &down);
        let session = &mut sessions[0];
        for name in self.names() {
            let rep =
                session.call_via(via, NfsRequest::Lookup { dir: root, name: name.clone() })?;
            let NfsReply::Attr(attr) = rep else { continue };
            let data = match session
                .call_via(via, NfsRequest::Read { fh: attr.handle, offset: 0, count: 1 << 20 })?
            {
                NfsReply::Data(d) => d.to_vec(),
                rep => return Err(reply_error(rep, "Data")),
            };
            let holders = match session
                .call_via(via, NfsRequest::DeceitLocateReplicas { fh: attr.handle })?
            {
                NfsReply::Replicas(rs) => rs.len(),
                rep => return Err(reply_error(rep, "Replicas")),
            };
            outcome.contents.insert(name.clone(), data);
            outcome.replicas.insert(name, holders);
        }
        drop(sessions);
        let flight = rt.dump_flight_recorder();
        rt.shutdown();
        Ok((outcome, flight))
    }
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
    pub fn assert_worlds_match(&self, cfg: &RuntimeConfig) {
        let sim = self.run_sim(cfg);
        let (live, flight) = self.run_live_observed(cfg).expect("live run failed");
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

/// Lookup helper for the live path.
fn live_lookup(
    session: &mut crate::client::RuntimeClient,
    via: NodeId,
    root: deceit_nfs::FileHandle,
    name: &str,
) -> RuntimeResult<deceit_nfs::FileHandle> {
    match session.call_via(via, NfsRequest::Lookup { dir: root, name: name.to_string() })? {
        NfsReply::Attr(attr) => Ok(attr.handle),
        rep => Err(reply_error(rep, "Attr")),
    }
}

/// Surfaces a server-side error reply as `Err`, so a faulty script (for
/// example, two creates of one name) fails the run instead of panicking.
fn ensure_ok(rep: NfsReply) -> RuntimeResult<NfsReply> {
    match rep {
        NfsReply::Error(e) => Err(crate::error::RuntimeError::Nfs(e)),
        rep => Ok(rep),
    }
}

/// Maps an unwanted reply variant to the matching [`RuntimeError`].
fn reply_error(rep: NfsReply, wanted: &'static str) -> crate::error::RuntimeError {
    match rep {
        NfsReply::Error(e) => crate::error::RuntimeError::Nfs(e),
        _ => crate::error::RuntimeError::UnexpectedReply(wanted),
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
        steps.push(ScenarioStep::Settle);
        steps.push(ScenarioStep::Crash { server: 0 });
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
        steps.push(ScenarioStep::Settle);
        steps.push(ScenarioStep::Restart { server: 0 });
        steps.push(ScenarioStep::Settle);
        for c in 0..clients {
            let name = format!("f{c}");
            steps.push(ScenarioStep::Write {
                client: c,
                name,
                offset: 0,
                data: format!("v3 payload of client {c}").into_bytes(),
            });
        }
        steps.push(ScenarioStep::Settle);
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
        let a = scenario.run_sim(&cfg);
        let b = scenario.run_sim(&cfg);
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
