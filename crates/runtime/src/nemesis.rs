//! The nemesis: seeded randomized fault storms over recorded histories.
//!
//! A storm runs a concurrent append workload (one writer per file,
//! several readers cycling over every file) while a fault schedule drawn
//! from a seeded [`SimRng`] crashes, restarts, partitions, and heals the
//! cell — capped at `write_safety − 1` servers down at once, so the
//! paper's durability contract stays applicable and every surviving
//! violation is a real bug. Every operation and every fault lands in one
//! [`History`], and [`deceit_core::audit()`] judges it offline.
//!
//! A storm runs once against either [`World`]: setup, fault
//! application, recovery and the final-state readback are shared, and
//! only the workload loop is per world:
//!
//! * [`run_sim_storm`] interleaves writers, readers and faults
//!   single-threaded through the deterministic simulator, all drawn from
//!   one seeded RNG — bit-identical per seed, so a failing seed is a
//!   *minimizable* repro;
//! * [`run_live_storm`] runs real client threads against the live
//!   runtime with the nemesis injecting the same seeded schedule from
//!   the main thread — schedules here are wall-clock racy, which is the
//!   point.
//!
//! On a violation [`audit_storm`] shrinks the failing configuration
//! (fewer writes, fewer faults, fewer files/readers — re-running each
//! candidate and keeping it only if it still fails; the vendored
//! `proptest` stub cannot shrink, so the nemesis carries its own
//! minimizer) and renders a [`StormFailure`]: the auditor's verdict, the
//! minimal config, a one-line replay command, and the protocol
//! flight-recorder ring.

use std::collections::BTreeSet;
use std::time::Duration;

use bytes::Bytes;
use deceit_core::{
    audit, AuditReport, Contract, FaultEvent, FileParams, History, WriteAvailability,
};
use deceit_net::NodeId;
use deceit_nfs::{FileHandle, NfsReply, NfsRequest};
use deceit_sim::atomic::PublishedBool;
use deceit_sim::SimRng;

use crate::client::live_agent;
use crate::config::RuntimeConfig;
use crate::error::{expect_attr, unexpected, RuntimeResult};
use crate::history::{HistoryRecorder, JournalHandle, NEMESIS_CLIENT};
use crate::scenario::{failure_report, first_up};
use crate::world::{read_data, replica_count, FileState, LiveWorld, SimWorld, World};

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
// Storms
// ---------------------------------------------------------------------

/// The nemesis's side of a storm: whether its faults left a partition
/// open, and the journal each fault lands in once applied. The down set
/// is the world's own ([`World::down`]).
struct Nemesis {
    split: bool,
    journal: JournalHandle,
}

impl Nemesis {
    /// Applies `fault` to `world`, then journals it.
    fn inject(&mut self, world: &mut impl World, fault: FaultEvent) {
        match &fault {
            FaultEvent::Split { .. } => self.split = true,
            FaultEvent::Heal => self.split = false,
            _ => {}
        }
        world.fault(&fault);
        self.journal.fault(fault);
    }

    /// Draws the schedule's next fault and applies it.
    fn strike(&mut self, world: &mut impl World, rng: &mut SimRng, cfg: &StormConfig) {
        let fault = next_fault(rng, &world.down(), self.split, cfg.servers, cfg.max_down());
        self.inject(world, fault);
    }

    /// Recovery: every server back up, any partition healed.
    fn recover(&mut self, world: &mut impl World) {
        for server in world.down() {
            self.inject(world, FaultEvent::Restart { server });
        }
        if self.split {
            self.inject(world, FaultEvent::Heal);
        }
    }
}

/// Runs one storm in `world`, whose sessions are laid out as: writer `f`
/// is session `f`, reader `r` is session `files + r`, and the last
/// session reads the final state back unrecorded. Setup, recovery's
/// settle and the readback are shared; `workload` runs the writers, the
/// readers and the fault schedule, and ends with the nemesis's recovery.
/// `live` makes the readback patient (see [`final_state`]). A failed
/// setup or readback ends the storm with its error.
fn run_storm<W: World>(
    cfg: &StormConfig,
    mut world: W,
    live: bool,
    workload: impl FnOnce(&mut W, &[FileHandle], &mut Nemesis),
) -> RuntimeResult<StormOutcome> {
    let recorder = HistoryRecorder::new();
    let mut nemesis = Nemesis { split: false, journal: recorder.journal(NEMESIS_CLIENT) };
    let root = world.root();

    // Setup: each file created (and parameterized) via its writer's home
    // server, which becomes the token holder.
    let mut files = Vec::with_capacity(cfg.files);
    for f in 0..cfg.files {
        world.record_into(f, recorder.journal(100 + f as u32));
        let via = NodeId((f % cfg.servers) as u32);
        let create = NfsRequest::Create { dir: root, name: StormConfig::file_name(f), mode: 0o644 };
        let fh = expect_attr(world.call(f, via, create)?)?.handle;
        let params = NfsRequest::DeceitSetParams { fh, params: cfg.params() };
        match world.call(f, via, params)? {
            NfsReply::Void => files.push(fh),
            rep => return Err(unexpected(rep, "Void")),
        }
    }
    for r in 0..cfg.readers {
        world.record_into(cfg.files + r, recorder.journal(200 + r as u32));
    }

    workload(&mut world, &files, &mut nemesis);
    nemesis.inject(&mut world, FaultEvent::Settle);

    // Ground truth per file.
    let observer = cfg.files + cfg.readers;
    for &fh in &files {
        let state = final_state(&mut world, observer, fh, live)?;
        let version = (state.attr.version.major, state.attr.version.sub);
        nemesis.journal.final_state(fh.seg.0, &state.data, version, state.replicas);
    }
    Ok(StormOutcome { history: recorder.merge(), flight: world.flight() })
}

/// Reads `fh`'s end state through server 0 for the auditor. The
/// simulator has settled deterministically, so any failure ends the
/// run. Live, the first reads after recovery can still land
/// mid-recovery, so a failed read is retried briefly; and a failed
/// replica lookup counts as no replicas, so the auditor reports the
/// floor breach and the storm still renders its report.
fn final_state(
    world: &mut impl World,
    session: usize,
    fh: FileHandle,
    live: bool,
) -> RuntimeResult<FileState> {
    let via = NodeId(0);
    let mut data = read_data(world, session, via, fh);
    for _ in 0..if live { 50 } else { 0 } {
        if data.is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        data = read_data(world, session, via, fh);
    }
    let data = data?;
    let attr = expect_attr(world.call(session, via, NfsRequest::Getattr { fh })?)?;
    let replicas = replica_count(world, session, via, fh);
    let replicas = if live { replicas.unwrap_or(0) } else { replicas? };
    Ok(FileState { data, attr, replicas })
}

/// Runs one storm single-threaded through the deterministic simulator,
/// writers, readers and faults interleaved by one seeded RNG. Same
/// config ⇒ same history and flight ring, bit for bit: a failing seed
/// here replays forever.
pub fn run_sim_storm(cfg: &StormConfig, rcfg: &RuntimeConfig) -> RuntimeResult<StormOutcome> {
    let mut rcfg = RuntimeConfig { servers: cfg.servers, ..rcfg.clone() };
    rcfg.cluster.seed = cfg.seed;
    let world = SimWorld::new(&rcfg, cfg.files + cfg.readers + 1);
    run_storm(cfg, world, false, |world, files, nemesis| {
        let servers = cfg.servers as u32;
        let mut rng = SimRng::new(cfg.seed);
        // Per writer: its current home, the next offset and chunk.
        let mut writers: Vec<(u32, usize, usize)> =
            (0..files.len()).map(|f| (f as u32 % servers, 0, 0)).collect();
        let mut faults_left = cfg.faults;
        let mut reader_cursor = 0usize;
        loop {
            let unfinished: Vec<usize> =
                (0..writers.len()).filter(|&f| writers[f].2 < cfg.writes_per_file).collect();
            if unfinished.is_empty() && faults_left == 0 {
                break;
            }

            let roll = rng.unit();
            if faults_left > 0 && (roll < 0.22 || unfinished.is_empty()) {
                faults_left -= 1;
                nemesis.strike(world, &mut rng, cfg);
            } else if !unfinished.is_empty() {
                let f = unfinished[rng.index(unfinished.len())];
                let (home, offset, next) = &mut writers[f];
                let data = StormConfig::chunk(f, *next);
                let len = data.len();
                let req = NfsRequest::Write { fh: files[f], offset: *offset, data: data.into() };
                match world.call(f, NodeId(*home), req) {
                    Ok(NfsReply::Error(_)) => {
                        // Refused (no majority, partitioned holder, …):
                        // sometimes try another server next round.
                        if rng.chance(0.5) {
                            *home = (*home + 1) % servers;
                        }
                    }
                    Ok(_) => {
                        *offset += len;
                        *next += 1;
                    }
                    // The home is down: fail over to the next server,
                    // exactly like the live writer's rotation — this is
                    // what forces token regeneration from the survivors.
                    Err(_) => *home = (*home + 1) % servers,
                }
            }

            // Sprinkle reads between steps, round-robin over the readers.
            if cfg.readers > 0 && rng.chance(0.6) {
                let r = reader_cursor % cfg.readers;
                reader_cursor += 1;
                let fh = files[rng.index(files.len())];
                if let Some(via) = first_up(r as u32, servers, &world.down()) {
                    let req = NfsRequest::Read { fh, offset: 0, count: 1 << 20 };
                    let _ = world.call(cfg.files + r, via, req);
                }
            }
        }
        nemesis.recover(world);
    })
}

/// Runs one storm against a real threaded cluster: one writer thread per
/// file, reader threads cycling over every file, the nemesis injecting
/// the seeded fault schedule from the orchestrating thread. Operations
/// race faults on the wall clock; the recorder's global stamps keep the
/// merged history honestly ordered.
pub fn run_live_storm(cfg: &StormConfig, rcfg: &RuntimeConfig) -> RuntimeResult<StormOutcome> {
    let rcfg = RuntimeConfig { servers: cfg.servers, ..rcfg.clone() };
    let world = LiveWorld::start(rcfg, cfg.files + cfg.readers + 1);
    run_storm(cfg, world, true, |world, files, nemesis| {
        let ids = &world.rt.server_ids().to_vec();
        let mut sessions = std::mem::take(&mut world.sessions);
        let (writers, readers) = sessions.split_at_mut(cfg.files);
        let stop_readers = PublishedBool::new(false);
        std::thread::scope(|s| {
            // Writers: append chunks until all acked, retrying through
            // faults and rotating home when the current server stays
            // dark — the rotation is what hands the surviving majority a
            // chance to regenerate the write token (§3.5) while the
            // holder is down.
            let mut writer_handles = Vec::with_capacity(cfg.files);
            for (f, (client, &fh)) in writers.iter_mut().zip(files).enumerate() {
                writer_handles.push(s.spawn(move || {
                    let mut offset = 0usize;
                    for i in 0..cfg.writes_per_file {
                        let data = Bytes::from(StormConfig::chunk(f, i));
                        let write = || NfsRequest::Write { fh, offset, data: data.clone() };
                        let mut attempts = 0u32;
                        while client.call(write()).and_then(expect_attr).is_err() {
                            attempts += 1;
                            if attempts > 1500 {
                                // Wedged long past the storm: give up;
                                // the audit still judges every acked
                                // prefix.
                                return;
                            }
                            if attempts.is_multiple_of(3) {
                                let at = ids.iter().position(|&n| n == client.home()).unwrap_or(0);
                                let _ = client.set_home(ids[(at + 1) % ids.len()]);
                            }
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        offset += data.len();
                    }
                }));
            }

            // Readers: cycle over every file until the writers are done,
            // each through an agent that fails over when its home is dark.
            for (r, client) in readers[..cfg.readers].iter_mut().enumerate() {
                let _ = client.set_home(ids[r % ids.len()]);
                let mut agent = live_agent(client);
                let stop = &stop_readers;
                s.spawn(move || {
                    let mut k = r;
                    while !stop.load() {
                        let _ = agent.read_file(client, files[k % files.len()]);
                        k += 1;
                        std::thread::sleep(Duration::from_micros(400));
                    }
                });
            }

            // The nemesis proper: the seeded schedule, paced in wall time.
            let mut rng = SimRng::new(cfg.seed);
            for _ in 0..cfg.faults {
                std::thread::sleep(Duration::from_millis(rng.uniform(3, 14)));
                nemesis.strike(world, &mut rng, cfg);
            }

            // Recovery, then let the writers drain before stopping readers.
            nemesis.recover(world);
            for h in writer_handles {
                let _ = h.join();
            }
            stop_readers.store(true);
        });
        world.sessions = sessions;
    })
}

// ---------------------------------------------------------------------
// Audit + shrink
// ---------------------------------------------------------------------

/// Runs a storm — live if `live`, else in the simulator — and audits it;
/// on violation, shrinks the config to the smallest still-failing shape
/// and returns the rendered failure. A candidate counts as smaller only
/// if it reproduces the failure: in one run in the simulator, where a
/// seed replays exactly, and in up to two live, where schedules race.
/// The outer error is a storm that could not run (its setup or readback
/// failed); a shrink candidate that cannot run does not reproduce.
pub fn audit_storm(
    cfg: &StormConfig,
    rcfg: &RuntimeConfig,
    live: bool,
) -> RuntimeResult<Result<AuditReport, Box<StormFailure>>> {
    let audited = |c: &StormConfig| {
        let outcome = if live { run_live_storm(c, rcfg) } else { run_sim_storm(c, rcfg) }?;
        let report = audit(&outcome.history, &c.contract());
        RuntimeResult::Ok((outcome, report))
    };
    let (outcome, report) = audited(cfg)?;
    if report.is_green() {
        return Ok(Ok(report));
    }
    let tries = if live { 2 } else { 1 };
    let mut runner = |c: &StormConfig| {
        (0..tries).find_map(|_| {
            let (outcome, report) = audited(c).ok()?;
            (!report.is_green()).then_some((outcome.history, report, outcome.flight))
        })
    };
    let (config, (history, report, flight)) =
        shrink(*cfg, (outcome.history, report, outcome.flight), &mut runner);
    let mutated = rcfg.cluster.danger_skip_safety_currency;
    Ok(Err(Box::new(StormFailure { config, report, history, flight, live, mutated })))
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
