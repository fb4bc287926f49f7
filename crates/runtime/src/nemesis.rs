//! The nemesis: seeded randomized fault storms over recorded histories.
//!
//! A storm runs a concurrent append workload (one writer per file,
//! several readers cycling over every file) while a fault schedule drawn
//! from a seeded [`SimRng`] crashes, restarts, partitions, and heals the
//! cell — capped at `write_safety − 1` servers down at once, so the
//! paper's durability contract stays applicable and every surviving
//! violation is a real bug. Every operation and every fault lands in one
//! [`History`], and [`deceit_core::audit`] judges it offline.
//!
//! Two drivers share the schedule generator:
//!
//! * [`run_sim_storm`] interleaves the same workload single-threaded
//!   through the deterministic simulator — bit-identical per seed, so a
//!   failing seed is a *minimizable* repro;
//! * [`run_live_storm`] runs real client threads against
//!   [`ClusterRuntime`] with the nemesis injecting faults from the main
//!   thread — schedules here are wall-clock racy, which is the point.
//!
//! On a violation the driver shrinks the failing configuration (fewer
//! writes, fewer faults, fewer files/readers — re-running each candidate
//! and keeping it only if it still fails; the vendored `proptest` stub
//! cannot shrink, so the nemesis carries its own minimizer) and renders a
//! [`StormFailure`]: the auditor's verdict, the minimal config, a
//! one-line replay command, and the protocol flight-recorder ring.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "a fault-injection driver, not a serving path: a broken precondition should stop the run"
)]

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use deceit_core::{
    audit, AuditReport, Contract, FaultEvent, FileParams, History, WriteAvailability,
};
use deceit_net::NodeId;
use deceit_nfs::{DeceitFs, FileHandle, NfsReply, NfsRequest};
use deceit_sim::atomic::PublishedBool;
use deceit_sim::SimRng;

use crate::config::RuntimeConfig;
use crate::error::RuntimeResult;
use crate::history::{HistoryRecorder, JournalHandle, NEMESIS_CLIENT};
use crate::runtime::ClusterRuntime;
use crate::scenario::failure_report;

/// Shape of one storm. Everything that matters for replay is in here —
/// a `(StormConfig, mode)` pair reproduces a sim run exactly and a live
/// run statistically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormConfig {
    /// Seed for the fault schedule (and the sim workload interleaving).
    pub seed: u64,
    /// Servers in the cell.
    pub servers: usize,
    /// Files, one dedicated writer each.
    pub files: usize,
    /// Reader sessions cycling over every file.
    pub readers: usize,
    /// Append chunks each writer must get acknowledged.
    pub writes_per_file: usize,
    /// Fault actions the nemesis injects.
    pub faults: usize,
    /// `FileParams::write_safety` for every storm file. The nemesis
    /// keeps at most `write_safety − 1` servers down at once, so the
    /// durability contract applies to the whole history.
    pub write_safety: usize,
    /// `FileParams::min_replicas` — the audited replica floor.
    pub min_replicas: usize,
}

impl StormConfig {
    /// The CI smoke shape: small enough for seconds, big enough to cross
    /// crash/heal epochs mid-stream.
    pub fn quick(seed: u64) -> Self {
        StormConfig {
            seed,
            servers: 3,
            files: 2,
            readers: 2,
            writes_per_file: 20,
            faults: 6,
            write_safety: 2,
            min_replicas: 2,
        }
    }

    /// The contract the auditor checks this storm against.
    pub fn contract(&self) -> Contract {
        Contract {
            write_safety: self.write_safety,
            min_replicas: self.min_replicas,
            servers: self.servers,
        }
    }

    /// The one-command repro line printed by failure reports. `mutated`
    /// adds `--mutate`: a failure found with the safety-currency check
    /// disabled only replays with it disabled.
    pub fn replay_command(&self, live: bool, mutated: bool) -> String {
        format!(
            "cargo run --release -p deceit_bench --bin audit_storm -- \
             --seed {} --servers {} --files {} --readers {} --writes {} \
             --faults {} --safety {} --floor {} --mode {}{}",
            self.seed,
            self.servers,
            self.files,
            self.readers,
            self.writes_per_file,
            self.faults,
            self.write_safety,
            self.min_replicas,
            if live { "live" } else { "sim" },
            if mutated { " --mutate" } else { "" },
        )
    }

    fn params(&self) -> FileParams {
        FileParams {
            min_replicas: self.min_replicas,
            write_safety: self.write_safety,
            availability: WriteAvailability::Medium,
            ..FileParams::default()
        }
    }

    fn max_down(&self) -> usize {
        self.write_safety.saturating_sub(1).min(self.servers.saturating_sub(1))
    }

    fn file_name(f: usize) -> String {
        format!("storm-f{f}")
    }

    fn chunk(f: usize, i: usize) -> Vec<u8> {
        format!("[f{f}w{i:03}]").into_bytes()
    }
}

/// What one storm produced: the merged history plus the flight ring
/// captured at its end.
pub struct StormOutcome {
    pub history: History,
    pub flight: String,
}

/// A storm whose history failed the audit, minimized.
#[derive(Debug)]
pub struct StormFailure {
    /// The smallest configuration that still fails.
    pub config: StormConfig,
    /// The auditor's verdict on the minimal run.
    pub report: AuditReport,
    /// The minimal run's history (what CI uploads as JSON).
    pub history: History,
    /// Flight-recorder ring of the minimal run.
    pub flight: String,
    /// Whether the failing run was live or simulated.
    pub live: bool,
    /// Whether the run had `danger_skip_safety_currency` on (the
    /// planted bug `audit_storm --mutate` enables).
    pub mutated: bool,
}

impl StormFailure {
    /// The full failure report: verdict, shrunk seed/config, replay
    /// command, flight ring.
    pub fn render(&self) -> String {
        let detail = format!(
            "{}shrunk config: {:?}\nreplay: {}",
            self.report.render(),
            self.config,
            self.config.replay_command(self.live, self.mutated),
        );
        failure_report("consistency audit failure", &detail, &self.flight)
    }
}

/// Picks the next fault action. Only actions legal in the current
/// topology are returned: the down set never exceeds `max_down`, splits
/// never stack, and crash/restart pauses while a partition is open (the
/// split/heal epochs race the *traffic*, not the crash recovery).
fn next_fault(
    rng: &mut SimRng,
    down: &BTreeSet<u32>,
    split_active: bool,
    servers: usize,
    max_down: usize,
) -> FaultEvent {
    for _ in 0..16 {
        let roll = rng.unit();
        if split_active {
            if roll < 0.7 {
                return FaultEvent::Heal;
            }
            return FaultEvent::Settle;
        }
        if roll < 0.35 {
            if down.len() < max_down {
                let up: Vec<u32> = (0..servers as u32).filter(|s| !down.contains(s)).collect();
                return FaultEvent::Crash { server: up[rng.index(up.len())] };
            }
        } else if roll < 0.65 {
            if let Some(&victim) = down.iter().nth(rng.index(down.len().max(1)) % down.len().max(1))
            {
                return FaultEvent::Restart { server: victim };
            }
        } else if roll < 0.82 {
            if servers >= 2 && down.is_empty() {
                let mut a = Vec::new();
                let mut b = Vec::new();
                for s in 0..servers as u32 {
                    if rng.chance(0.5) {
                        a.push(s);
                    } else {
                        b.push(s);
                    }
                }
                if !a.is_empty() && !b.is_empty() {
                    return FaultEvent::Split { groups: vec![a, b] };
                }
            }
        } else {
            return FaultEvent::Settle;
        }
    }
    FaultEvent::Settle
}

// ---------------------------------------------------------------------
// Deterministic sim storm
// ---------------------------------------------------------------------

struct SimWriter {
    file: usize,
    fh: FileHandle,
    journal: JournalHandle,
    home: u32,
    offset: usize,
    next: usize,
}

/// Runs one storm single-threaded through the deterministic simulator.
/// Same config ⇒ same history and flight ring, bit for bit: a failing
/// seed here replays forever.
pub fn run_sim_storm(cfg: &StormConfig, rcfg: &RuntimeConfig) -> StormOutcome {
    let mut cluster_cfg = rcfg.cluster.clone();
    cluster_cfg.seed = cfg.seed;
    let mut fs = DeceitFs::new(cfg.servers, cluster_cfg, rcfg.fs.clone());
    let root = fs.root();
    let recorder = HistoryRecorder::new();
    let nem = recorder.journal(NEMESIS_CLIENT);
    let mut rng = SimRng::new(cfg.seed);

    // Setup: each file created (and parameterized) via its writer's home
    // server, which becomes the token holder.
    let mut writers: Vec<SimWriter> = Vec::with_capacity(cfg.files);
    for f in 0..cfg.files {
        let home = (f % cfg.servers) as u32;
        let via = NodeId(home);
        let journal = recorder.journal(100 + f as u32);
        let name = StormConfig::file_name(f);
        let op = journal.invoke(&NfsRequest::Create { dir: root, name: name.clone(), mode: 0o644 });
        let attr = fs.create(via, root, &name, 0o644).expect("sim storm create").value;
        let fh = attr.handle;
        journal.ack(op, &Ok(NfsReply::Attr(attr)));
        let op = journal.invoke(&NfsRequest::DeceitSetParams { fh, params: cfg.params() });
        fs.set_file_params(via, fh, cfg.params()).expect("sim storm set_params");
        journal.ack(op, &Ok(NfsReply::Void));
        writers.push(SimWriter { file: f, fh, journal, home, offset: 0, next: 0 });
    }
    let readers: Vec<JournalHandle> =
        (0..cfg.readers).map(|r| recorder.journal(200 + r as u32)).collect();

    let mut down: BTreeSet<u32> = BTreeSet::new();
    let mut split_active = false;
    let mut faults_left = cfg.faults;
    let mut reader_cursor = 0usize;

    loop {
        let unfinished: Vec<usize> = writers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.next < cfg.writes_per_file)
            .map(|(i, _)| i)
            .collect();
        if unfinished.is_empty() && faults_left == 0 {
            break;
        }

        let roll = rng.unit();
        if faults_left > 0 && (roll < 0.22 || unfinished.is_empty()) {
            faults_left -= 1;
            let fault = next_fault(&mut rng, &down, split_active, cfg.servers, cfg.max_down());
            match &fault {
                FaultEvent::Crash { server } => {
                    down.insert(*server);
                    fs.cluster.crash_server(NodeId(*server));
                }
                FaultEvent::Restart { server } => {
                    down.remove(server);
                    fs.cluster.recover_server(NodeId(*server));
                }
                FaultEvent::Split { groups } => {
                    split_active = true;
                    let owned: Vec<Vec<NodeId>> =
                        groups.iter().map(|g| g.iter().map(|&s| NodeId(s)).collect()).collect();
                    let borrowed: Vec<&[NodeId]> = owned.iter().map(|g| g.as_slice()).collect();
                    fs.cluster.split(&borrowed);
                }
                FaultEvent::Heal => {
                    split_active = false;
                    fs.cluster.heal();
                }
                FaultEvent::Settle => fs.cluster.run_until_quiet(),
            }
            nem.fault(fault);
        } else if !unfinished.is_empty() {
            let w = &mut writers[unfinished[rng.index(unfinished.len())]];
            let data = StormConfig::chunk(w.file, w.next);
            let req = NfsRequest::Write {
                fh: w.fh,
                offset: w.offset,
                data: bytes::Bytes::from(data.clone()),
            };
            let op = w.journal.invoke(&req);
            if down.contains(&w.home) {
                // The transport would reject the send: record the
                // ambiguity and fail the writer over to the next server,
                // exactly like the live writer's rotation — this is what
                // forces token regeneration from the survivors.
                w.journal.ack(
                    op,
                    &Err(crate::error::RuntimeError::Rpc(deceit_net::rpc::RpcError::Unreachable(
                        NodeId(w.home),
                    ))),
                );
                w.home = (w.home + 1) % cfg.servers as u32;
            } else {
                match fs.write(NodeId(w.home), w.fh, w.offset, &data) {
                    Ok(out) => {
                        w.journal.ack(op, &Ok(NfsReply::Attr(out.value)));
                        w.offset += data.len();
                        w.next += 1;
                    }
                    Err(e) => {
                        w.journal.ack(op, &Ok(NfsReply::Error(e)));
                        // Refused (no majority, partitioned holder, …):
                        // sometimes try another server next round.
                        if rng.chance(0.5) {
                            w.home = (w.home + 1) % cfg.servers as u32;
                        }
                    }
                }
            }
        }

        // Sprinkle reads between steps, round-robin over the readers.
        if !readers.is_empty() && rng.chance(0.6) {
            let r = reader_cursor % readers.len();
            reader_cursor += 1;
            let w = &writers[rng.index(writers.len())];
            let preferred = (r % cfg.servers) as u32;
            let via = (0..cfg.servers as u32)
                .map(|step| (preferred + step) % cfg.servers as u32)
                .find(|s| !down.contains(s));
            if let Some(via) = via {
                let req = NfsRequest::Read { fh: w.fh, offset: 0, count: 1 << 20 };
                let op = readers[r].invoke(&req);
                match fs.read(NodeId(via), w.fh, 0, 1 << 20) {
                    Ok(out) => readers[r].ack(op, &Ok(NfsReply::Data(out.value))),
                    Err(e) => readers[r].ack(op, &Ok(NfsReply::Error(e))),
                }
            }
        }
    }

    // Recovery: everyone back, partitions healed, deferred work drained.
    for server in std::mem::take(&mut down) {
        fs.cluster.recover_server(NodeId(server));
        nem.fault(FaultEvent::Restart { server });
    }
    if split_active {
        fs.cluster.heal();
        nem.fault(FaultEvent::Heal);
    }
    fs.cluster.run_until_quiet();
    nem.fault(FaultEvent::Settle);

    // Ground truth per file.
    let via = NodeId(0);
    for w in &writers {
        let data = fs.read(via, w.fh, 0, 1 << 20).expect("post-storm sim read").value;
        let attr = fs.getattr(via, w.fh).expect("post-storm sim getattr").value;
        let replicas = fs.file_replicas(via, w.fh).expect("post-storm sim locate").value.len();
        nem.final_state(w.fh.seg.0, &data, (attr.version.major, attr.version.sub), replicas);
    }
    StormOutcome { history: recorder.merge(), flight: fs.cluster.obs.flight.dump() }
}

// ---------------------------------------------------------------------
// Live storm
// ---------------------------------------------------------------------

/// Runs one storm against a real threaded cluster: one writer thread per
/// file, reader threads cycling over every file, the nemesis injecting
/// the seeded fault schedule from the orchestrating thread. Operations
/// race faults on the wall clock; the recorder's global stamps keep the
/// merged history honestly ordered.
pub fn run_live_storm(cfg: &StormConfig, rcfg: &RuntimeConfig) -> StormOutcome {
    let mut rcfg = rcfg.clone();
    rcfg.servers = cfg.servers;
    let rt = ClusterRuntime::start(rcfg);
    let ids: Vec<NodeId> = rt.server_ids().to_vec();
    let recorder = HistoryRecorder::new();
    let nem = recorder.journal(NEMESIS_CLIENT);

    // Setup through a recorded session: create + parameterize each file
    // via its writer's home server (the token holder to be).
    let mut files: Vec<(usize, FileHandle)> = Vec::with_capacity(cfg.files);
    {
        let mut setup = rt.client();
        setup.record_into(recorder.journal(99));
        let root = setup.root();
        for f in 0..cfg.files {
            let via = ids[f % ids.len()];
            let rep = setup
                .call_via(
                    via,
                    NfsRequest::Create { dir: root, name: StormConfig::file_name(f), mode: 0o644 },
                )
                .expect("storm create");
            let NfsReply::Attr(attr) = rep else { panic!("storm create reply: {rep:?}") };
            setup
                .call_via(
                    via,
                    NfsRequest::DeceitSetParams { fh: attr.handle, params: cfg.params() },
                )
                .expect("storm set_params");
            files.push((f, attr.handle));
        }
    }

    let stop_readers = Arc::new(PublishedBool::new(false));

    std::thread::scope(|s| {
        // Writers: append chunks until all acked, retrying through
        // faults and rotating home when the current server stays dark —
        // the rotation is what hands the surviving majority a chance to
        // regenerate the write token (§3.5) while the holder is down.
        let mut writer_handles = Vec::with_capacity(cfg.files);
        for &(f, fh) in &files {
            let mut client = rt.client_homed(ids[f % ids.len()]);
            client.record_into(recorder.journal(100 + f as u32));
            let ids = ids.clone();
            let writes = cfg.writes_per_file;
            writer_handles.push(s.spawn(move || {
                let mut offset = 0usize;
                for i in 0..writes {
                    let chunk = StormConfig::chunk(f, i);
                    let mut attempts = 0u32;
                    loop {
                        match client.write(fh, offset, &chunk) {
                            Ok(_) => {
                                offset += chunk.len();
                                break;
                            }
                            Err(_) => {
                                attempts += 1;
                                if attempts > 1500 {
                                    // Wedged long past the storm: give
                                    // up; the audit still judges every
                                    // acked prefix.
                                    return;
                                }
                                if attempts.is_multiple_of(3) {
                                    let cur = client.home();
                                    let at = ids.iter().position(|&n| n == cur).unwrap_or(0);
                                    client.set_home(ids[(at + 1) % ids.len()]);
                                }
                                std::thread::sleep(Duration::from_millis(2));
                            }
                        }
                    }
                }
            }));
        }

        // Readers: cycle over every file until the writers are done.
        for r in 0..cfg.readers {
            let mut client = rt.client_homed(ids[r % ids.len()]);
            client.record_into(recorder.journal(200 + r as u32));
            let files = files.clone();
            let stop = Arc::clone(&stop_readers);
            s.spawn(move || {
                let mut k = r;
                while !stop.load() {
                    let (_, fh) = files[k % files.len()];
                    k += 1;
                    let _ = client.read(fh, 0, 1 << 20);
                    std::thread::sleep(Duration::from_micros(400));
                }
            });
        }

        // The nemesis proper: the seeded schedule, paced in wall time.
        let mut rng = SimRng::new(cfg.seed);
        let mut down: BTreeSet<u32> = BTreeSet::new();
        let mut split_active = false;
        for _ in 0..cfg.faults {
            std::thread::sleep(Duration::from_millis(rng.uniform(3, 14)));
            let fault = next_fault(&mut rng, &down, split_active, cfg.servers, cfg.max_down());
            match &fault {
                FaultEvent::Crash { server } => {
                    down.insert(*server);
                    rt.crash_server(NodeId(*server));
                }
                FaultEvent::Restart { server } => {
                    down.remove(server);
                    rt.restart_server(NodeId(*server));
                }
                FaultEvent::Split { groups } => {
                    split_active = true;
                    let owned: Vec<Vec<NodeId>> =
                        groups.iter().map(|g| g.iter().map(|&n| NodeId(n)).collect()).collect();
                    let borrowed: Vec<&[NodeId]> = owned.iter().map(|g| g.as_slice()).collect();
                    rt.split(&borrowed);
                }
                FaultEvent::Heal => {
                    split_active = false;
                    rt.heal();
                }
                FaultEvent::Settle => rt.settle(),
            }
            nem.fault(fault);
        }

        // Recovery, then let the writers drain before stopping readers.
        for server in std::mem::take(&mut down) {
            rt.restart_server(NodeId(server));
            nem.fault(FaultEvent::Restart { server });
        }
        if split_active {
            rt.heal();
            nem.fault(FaultEvent::Heal);
        }
        for h in writer_handles {
            let _ = h.join();
        }
        stop_readers.store(true);
    });

    rt.settle();
    nem.fault(FaultEvent::Settle);

    // Ground truth per file, through an unrecorded session.
    let mut obs = rt.client_homed(ids[0]);
    for &(_, fh) in &files {
        let data = read_eventually(&mut obs, fh).expect("post-storm read");
        let attr = obs.getattr(fh).expect("post-storm getattr");
        let replicas = obs.locate_replicas(fh).map(|r| r.len()).unwrap_or(0);
        nem.final_state(fh.seg.0, &data, (attr.version.major, attr.version.sub), replicas);
    }
    let flight = rt.dump_flight_recorder();
    rt.shutdown();
    StormOutcome { history: recorder.merge(), flight }
}

/// Post-storm reads happen with every server back up, but the first ones
/// can still land mid-recovery; retry briefly before declaring the
/// cluster unreadable.
fn read_eventually(
    client: &mut crate::client::RuntimeClient,
    fh: FileHandle,
) -> RuntimeResult<bytes::Bytes> {
    let mut last = client.read(fh, 0, 1 << 20);
    for _ in 0..50 {
        if last.is_ok() {
            return last;
        }
        std::thread::sleep(Duration::from_millis(10));
        last = client.read(fh, 0, 1 << 20);
    }
    last
}

// ---------------------------------------------------------------------
// Audit + shrink
// ---------------------------------------------------------------------

/// Runs a sim storm and audits it; on violation, shrinks the config to
/// the smallest still-failing shape (deterministic: one run per
/// candidate suffices) and returns the rendered failure.
pub fn audit_sim_storm(
    cfg: &StormConfig,
    rcfg: &RuntimeConfig,
) -> Result<AuditReport, Box<StormFailure>> {
    let outcome = run_sim_storm(cfg, rcfg);
    let report = audit(&outcome.history, &cfg.contract());
    if report.is_green() {
        return Ok(report);
    }
    let mut runner = |c: &StormConfig| {
        let outcome = run_sim_storm(c, rcfg);
        let report = audit(&outcome.history, &c.contract());
        (!report.is_green()).then_some((outcome.history, report, outcome.flight))
    };
    let (config, (history, report, flight)) =
        shrink(*cfg, (outcome.history, report, outcome.flight), &mut runner);
    let mutated = rcfg.cluster.danger_skip_safety_currency;
    Err(Box::new(StormFailure { config, report, history, flight, live: false, mutated }))
}

/// Runs a live storm and audits it; on violation, shrinks with up to two
/// attempts per candidate (live schedules are racy — a candidate only
/// counts as smaller if it *reproduces* the failure).
pub fn audit_live_storm(
    cfg: &StormConfig,
    rcfg: &RuntimeConfig,
) -> Result<AuditReport, Box<StormFailure>> {
    let outcome = run_live_storm(cfg, rcfg);
    let report = audit(&outcome.history, &cfg.contract());
    if report.is_green() {
        return Ok(report);
    }
    let mut runner = |c: &StormConfig| {
        for _ in 0..2 {
            let outcome = run_live_storm(c, rcfg);
            let report = audit(&outcome.history, &c.contract());
            if !report.is_green() {
                return Some((outcome.history, report, outcome.flight));
            }
        }
        None
    };
    let (config, (history, report, flight)) =
        shrink(*cfg, (outcome.history, report, outcome.flight), &mut runner);
    let mutated = rcfg.cluster.danger_skip_safety_currency;
    Err(Box::new(StormFailure { config, report, history, flight, live: true, mutated }))
}

/// Greedy minimizer: repeatedly tries the candidate reductions and keeps
/// the first that still fails, until none do. Bounded: every accepted
/// candidate strictly shrinks the config, and the candidate list is
/// finite, so this terminates in a handful of runs.
fn shrink<A>(
    start: StormConfig,
    start_artifacts: A,
    still_fails: &mut impl FnMut(&StormConfig) -> Option<A>,
) -> (StormConfig, A) {
    let mut best = start;
    let mut artifacts = start_artifacts;
    loop {
        let mut advanced = false;
        for cand in shrink_candidates(&best) {
            if let Some(a) = still_fails(&cand) {
                best = cand;
                artifacts = a;
                advanced = true;
                break;
            }
        }
        if !advanced {
            return (best, artifacts);
        }
    }
}

fn shrink_candidates(c: &StormConfig) -> Vec<StormConfig> {
    let mut out = Vec::new();
    if c.writes_per_file > 4 {
        out.push(StormConfig { writes_per_file: c.writes_per_file / 2, ..*c });
    }
    if c.faults > 1 {
        out.push(StormConfig { faults: c.faults / 2, ..*c });
    }
    if c.files > 1 {
        out.push(StormConfig { files: 1, ..*c });
    }
    if c.readers > 1 {
        out.push(StormConfig { readers: 1, ..*c });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_schedule_is_deterministic_and_respects_the_down_cap() {
        let cfg = StormConfig::quick(42);
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut rng = SimRng::new(cfg.seed);
            let mut down = BTreeSet::new();
            let mut split = false;
            let mut picked = Vec::new();
            for _ in 0..40 {
                let fault = next_fault(&mut rng, &down, split, cfg.servers, cfg.max_down());
                match &fault {
                    FaultEvent::Crash { server } => {
                        down.insert(*server);
                        assert!(down.len() <= cfg.max_down(), "crash cap breached: {down:?}");
                    }
                    FaultEvent::Restart { server } => {
                        assert!(down.remove(server), "restarted an up server");
                    }
                    FaultEvent::Split { groups } => {
                        assert!(!split, "stacked splits");
                        assert!(groups.iter().all(|g| !g.is_empty()));
                        split = true;
                    }
                    FaultEvent::Heal => {
                        assert!(split, "healed without a split");
                        split = false;
                    }
                    FaultEvent::Settle => {}
                }
                picked.push(fault);
            }
            runs.push(picked);
        }
        assert_eq!(runs[0], runs[1], "same seed must give the same schedule");
    }

    #[test]
    fn shrinker_minimizes_while_the_predicate_holds() {
        let start = StormConfig::quick(7);
        // "Fails" whenever there are at least 2 faults; everything else
        // is free to shrink to its floor.
        let mut runner = |c: &StormConfig| (c.faults >= 2).then_some(c.faults);
        let (minimal, faults) = shrink(start, start.faults, &mut runner);
        assert_eq!(minimal.faults, 3, "6 → 3 accepted, 3 → 1 rejected");
        assert_eq!(faults, 3);
        assert_eq!(minimal.files, 1);
        assert_eq!(minimal.readers, 1);
        assert_eq!(minimal.writes_per_file, 2, "20 → 10 → 5 → 2, then 2 ≤ 4 stops");
    }

    #[test]
    fn replay_command_names_every_knob() {
        let cmd = StormConfig::quick(99).replay_command(true, false);
        for needle in
            ["--seed 99", "--servers 3", "--writes 20", "--faults 6", "--safety 2", "--mode live"]
        {
            assert!(cmd.contains(needle), "missing {needle} in {cmd}");
        }
        assert!(!cmd.contains("--mutate"), "unmutated run replays unmutated: {cmd}");
        let mutated = StormConfig::quick(99).replay_command(false, true);
        assert!(mutated.ends_with("--mode sim --mutate"), "mutated run replays mutated: {mutated}");
    }
}
