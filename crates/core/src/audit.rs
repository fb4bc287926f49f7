//! Offline consistency auditor: an executable statement of the paper's
//! per-file contract, checked against recorded operation histories.
//!
//! The differential scenarios pin *scripted* runs to the simulator;
//! nothing there searches for bad interleavings. This module is the other
//! half of a Jepsen-style setup: concurrent clients journal every
//! invoke/ack pair (plus every injected fault) into a [`History`], and
//! [`audit`] replays that history against the guarantees the paper makes
//! for a file written as a single-writer append stream:
//!
//! * **Valid prefixes** — a read returns some prefix of the bytes the
//!   writer produced, never a torn or garbled state (§3.2: updates are
//!   atomic and ordered per file).
//! * **Monotone sessions** — the lengths/versions one client observes for
//!   one file never regress (§3.4 stability + §3.3 single write token).
//! * **Causality** — a read never returns bytes whose write had not even
//!   been *invoked* when the read was acknowledged.
//! * **Acked durability** — with `write_safety = N`, an acknowledged
//!   write survives any run in which at most N−1 servers are ever down
//!   at once (§4: "file safety … number of machines which must fail
//!   simultaneously in order to lose the file").
//! * **Version monotonicity** — acknowledged write versions advance
//!   strictly; the final stabilized version dominates everything any
//!   client observed (§3.5).
//! * **Replica floor** — after every server is back and partitions heal,
//!   the file keeps at least `min_replicas` copies (§3.1).
//!
//! The history format is deliberately transport-agnostic (plain ids and
//! byte lengths) so the deterministic simulator and the live threaded
//! runtime journal into the same artifact and are audited by the same
//! code.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// FNV-1a 64-bit — the payload fingerprint recorded in acks and checked
/// against the expected prefix model. Stable across platforms, no deps.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One recorded event. `seq` is a globally unique total-order stamp
/// (invokes are stamped before the request is sent, acks after the reply
/// is in hand, so overlap is conservatively wide).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub seq: u64,
    /// Journal owner: client id for op events, `u32::MAX` for the
    /// nemesis journal that records faults and final states.
    pub client: u32,
    pub body: EventBody,
}

/// What happened at this point in the history.
#[derive(Debug, Clone, PartialEq)]
pub enum EventBody {
    /// A client is about to send an operation. `op` is the invoke's own
    /// `seq`, echoed by the matching ack.
    Invoke { op: u64, call: OpCall },
    /// The reply (or transport failure) for a previous invoke.
    Ack { op: u64, outcome: OpOutcome },
    /// The nemesis injected a fault (or a settle barrier).
    Fault(FaultEvent),
    /// Post-storm ground truth for one file, read after every server is
    /// restarted, partitions are healed, and the cell has settled.
    FinalState { file: u64, len: usize, hash: u64, version: (u64, u64), replicas: usize },
}

/// The operation side of an invoke, reduced to what the auditor needs.
#[derive(Debug, Clone, PartialEq)]
pub enum OpCall {
    Write { file: u64, offset: usize, data: Vec<u8> },
    Read { file: u64, offset: usize },
    Getattr { file: u64 },
    Create { name: String },
    SetParams { file: u64, write_safety: usize, min_replicas: usize },
    Other { what: &'static str },
}

/// The reply side of an ack.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutcome {
    /// Read data: length and FNV-1a hash of the returned bytes.
    Data { len: usize, hash: u64 },
    /// Attributes: observed size, observed version pair, and the file
    /// the attributes describe (creates learn their file id here).
    Attr { file: u64, size: usize, version: (u64, u64) },
    /// A void success (set-params, remove, …).
    Ok,
    /// The server answered with an NFS error: the op definitely did not
    /// take effect in a new way (reads) or was refused (writes).
    Denied { error: String },
    /// Transport failure: the op is *ambiguous* — a write may or may not
    /// have applied. The auditor treats it as unacked.
    Lost,
}

/// A nemesis action, recorded in the same total order as the ops it
/// interferes with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    Crash { server: u32 },
    Restart { server: u32 },
    Split { groups: Vec<Vec<u32>> },
    Heal,
    Settle,
}

/// A merged, seq-ordered operation history.
#[derive(Debug, Clone, Default)]
pub struct History {
    pub events: Vec<Event>,
}

impl History {
    /// Builds a history from journal fragments, sorting by stamp.
    pub fn from_events(mut events: Vec<Event>) -> Self {
        events.sort_by_key(|e| e.seq);
        History { events }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the history as a JSON array — the artifact CI uploads
    /// when a storm fails. Hand-rolled (the workspace has no JSON
    /// dependency), mirroring `ObsReport::to_json`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 64);
        out.push_str("{\n  \"events\": [\n");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("    ");
            out.push_str(&event_json(ev));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn event_json(ev: &Event) -> String {
    let body = match &ev.body {
        EventBody::Invoke { op, call } => {
            let call = match call {
                OpCall::Write { file, offset, data } => format!(
                    "\"kind\":\"write\",\"file\":{file},\"offset\":{offset},\"data\":{}",
                    json_str(&String::from_utf8_lossy(data))
                ),
                OpCall::Read { file, offset } => {
                    format!("\"kind\":\"read\",\"file\":{file},\"offset\":{offset}")
                }
                OpCall::Getattr { file } => format!("\"kind\":\"getattr\",\"file\":{file}"),
                OpCall::Create { name } => format!("\"kind\":\"create\",\"name\":{}", json_str(name)),
                OpCall::SetParams { file, write_safety, min_replicas } => format!(
                    "\"kind\":\"set_params\",\"file\":{file},\"write_safety\":{write_safety},\"min_replicas\":{min_replicas}"
                ),
                OpCall::Other { what } => format!("\"kind\":{}", json_str(what)),
            };
            format!("\"invoke\":{{\"op\":{op},{call}}}")
        }
        EventBody::Ack { op, outcome } => {
            let oc = match outcome {
                OpOutcome::Data { len, hash } => format!("\"data\":{{\"len\":{len},\"hash\":{hash}}}"),
                OpOutcome::Attr { file, size, version } => format!(
                    "\"attr\":{{\"file\":{file},\"size\":{size},\"version\":[{},{}]}}",
                    version.0, version.1
                ),
                OpOutcome::Ok => "\"ok\":true".into(),
                OpOutcome::Denied { error } => format!("\"denied\":{}", json_str(error)),
                OpOutcome::Lost => "\"lost\":true".into(),
            };
            format!("\"ack\":{{\"op\":{op},{oc}}}")
        }
        EventBody::Fault(fault) => {
            let f = match fault {
                FaultEvent::Crash { server } => format!("\"crash\":{server}"),
                FaultEvent::Restart { server } => format!("\"restart\":{server}"),
                FaultEvent::Split { groups } => {
                    let gs: Vec<String> = groups
                        .iter()
                        .map(|g| {
                            let ids: Vec<String> = g.iter().map(|n| n.to_string()).collect();
                            format!("[{}]", ids.join(","))
                        })
                        .collect();
                    format!("\"split\":[{}]", gs.join(","))
                }
                FaultEvent::Heal => "\"heal\":true".into(),
                FaultEvent::Settle => "\"settle\":true".into(),
            };
            format!("\"fault\":{{{f}}}")
        }
        EventBody::FinalState { file, len, hash, version, replicas } => format!(
            "\"final\":{{\"file\":{file},\"len\":{len},\"hash\":{hash},\"version\":[{},{}],\"replicas\":{replicas}}}",
            version.0, version.1
        ),
    };
    format!("{{\"seq\":{},\"client\":{},{body}}}", ev.seq, ev.client)
}

/// The per-file guarantees the audited workload was configured with.
#[derive(Debug, Clone, Copy)]
pub struct Contract {
    /// `FileParams::write_safety` for the audited files: acked writes
    /// survive any interval with at most `write_safety − 1` servers down.
    pub write_safety: usize,
    /// `FileParams::min_replicas` — the replica floor after heal.
    pub min_replicas: usize,
    /// Cell size (the floor can never exceed it).
    pub servers: usize,
}

/// One contract violation, anchored at the ack (or final-state) event
/// that exposed it.
#[derive(Debug, Clone)]
pub struct Violation {
    pub check: &'static str,
    pub file: u64,
    pub seq: u64,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] file {} at seq {}: {}", self.check, self.file, self.seq, self.detail)
    }
}

/// What the auditor concluded about one history.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    pub violations: Vec<Violation>,
    pub reads_checked: usize,
    pub writes_acked: usize,
    pub faults_seen: usize,
    /// Largest number of servers ever down at once.
    pub max_concurrent_crashes: usize,
    /// Whether the crash load stayed within `write_safety − 1`, i.e.
    /// whether durability / monotonicity checks were applicable at all.
    pub durability_checked: bool,
}

impl AuditReport {
    pub fn is_green(&self) -> bool {
        self.violations.is_empty()
    }

    /// Compact multi-line rendering for failure reports.
    pub fn render(&self) -> String {
        let mut out = format!(
            "audit: {} violation(s) over {} read(s), {} acked write(s), {} fault(s); \
             max concurrent crashes {}; durability checks {}\n",
            self.violations.len(),
            self.reads_checked,
            self.writes_acked,
            self.faults_seen,
            self.max_concurrent_crashes,
            if self.durability_checked { "applied" } else { "SKIPPED (crash budget exceeded)" },
        );
        for v in self.violations.iter().take(16) {
            out.push_str(&format!("  {v}\n"));
        }
        if self.violations.len() > 16 {
            out.push_str(&format!("  … and {} more\n", self.violations.len() - 16));
        }
        out
    }
}

/// Per-file expected-content model: the append stream the (single)
/// writer produced, replayed attempt by attempt at invoke time.
#[derive(Default)]
struct FileModel {
    /// Bytes after applying every write invoked so far.
    content: Vec<u8>,
    /// Every length the file has legitimately had, with the hash of that
    /// prefix. Reads must land exactly on one of these states.
    states: BTreeMap<usize, u64>,
    /// Largest end offset any *acknowledged* write reached.
    acked_end: usize,
    /// Version of the most recent acknowledged write.
    last_acked_version: Option<(u64, u64)>,
    /// Largest version any client observed (writes + getattrs).
    max_observed_version: Option<(u64, u64)>,
}

/// What the auditor remembers about an invoke while waiting for its ack.
enum PendingOp {
    Write { file: u64, end: usize },
    Read { file: u64, offset: usize },
    Getattr { file: u64 },
    Other,
}

/// Replays `history` and checks the executable contract. The history is
/// expected to follow the nemesis discipline: at most one writer per
/// file, append-only chunks (retries of a failed/ambiguous chunk repeat
/// the same offset and bytes, which the model absorbs idempotently).
pub fn audit(history: &History, contract: &Contract) -> AuditReport {
    let mut report = AuditReport::default();
    let mut files: HashMap<u64, FileModel> = HashMap::new();
    let mut pending: HashMap<u64, PendingOp> = HashMap::new();
    // Per (client, file): largest length this session has observed — via
    // reads, write acks, or getattr sizes. Must never regress.
    let mut session_len: HashMap<(u32, u64), usize> = HashMap::new();
    // Per (client, file): largest version pair this session has observed.
    let mut session_version: HashMap<(u32, u64), (u64, u64)> = HashMap::new();
    let mut down: HashSet<u32> = HashSet::new();

    // First sweep: find the crash high-water mark, so monotonicity and
    // durability checks can be gated before we judge any ack.
    for ev in &history.events {
        match &ev.body {
            EventBody::Fault(FaultEvent::Crash { server }) => {
                down.insert(*server);
                report.max_concurrent_crashes = report.max_concurrent_crashes.max(down.len());
            }
            EventBody::Fault(FaultEvent::Restart { server }) => {
                down.remove(server);
            }
            _ => {}
        }
    }
    down.clear();
    report.durability_checked = report.max_concurrent_crashes < contract.write_safety;
    let strict = report.durability_checked;

    for ev in &history.events {
        match &ev.body {
            EventBody::Invoke { op, call } => {
                let slot = match call {
                    OpCall::Write { file, offset, data } => {
                        let model = files.entry(*file).or_default();
                        if model.states.is_empty() {
                            model.states.insert(0, fnv1a(&[]));
                        }
                        let end = offset + data.len();
                        if end > model.content.len() {
                            model.content.resize(end, 0);
                        }
                        model.content[*offset..end].copy_from_slice(data);
                        let len = model.content.len();
                        model.states.insert(len, fnv1a(&model.content));
                        PendingOp::Write { file: *file, end }
                    }
                    OpCall::Read { file, offset } => {
                        PendingOp::Read { file: *file, offset: *offset }
                    }
                    OpCall::Getattr { file } => PendingOp::Getattr { file: *file },
                    _ => PendingOp::Other,
                };
                pending.insert(*op, slot);
            }
            EventBody::Ack { op, outcome } => {
                let Some(slot) = pending.remove(op) else { continue };
                match (slot, outcome) {
                    (PendingOp::Read { file, offset }, OpOutcome::Data { len, hash }) => {
                        // Only whole-file reads (offset 0) are checked
                        // against the prefix model.
                        if offset != 0 {
                            continue;
                        }
                        report.reads_checked += 1;
                        let model = files.entry(file).or_default();
                        if model.states.is_empty() {
                            model.states.insert(0, fnv1a(&[]));
                        }
                        match model.states.get(len) {
                            None => report.violations.push(Violation {
                                check: "torn-read",
                                file,
                                seq: ev.seq,
                                detail: format!(
                                    "read length {len} is not a write boundary (valid: {:?})",
                                    model.states.keys().collect::<Vec<_>>()
                                ),
                            }),
                            Some(expect) if expect != hash => report.violations.push(Violation {
                                check: "torn-read",
                                file,
                                seq: ev.seq,
                                detail: format!(
                                    "read of {len} bytes hashed {hash:#x}, expected prefix hash {expect:#x}"
                                ),
                            }),
                            Some(_) => {}
                        }
                        if *len > model.content.len() {
                            report.violations.push(Violation {
                                check: "future-read",
                                file,
                                seq: ev.seq,
                                detail: format!(
                                    "read returned {len} bytes but only {} had been invoked",
                                    model.content.len()
                                ),
                            });
                        }
                        if strict {
                            let seen = session_len.entry((ev.client, file)).or_insert(0);
                            if *len < *seen {
                                report.violations.push(Violation {
                                    check: "non-monotone-read",
                                    file,
                                    seq: ev.seq,
                                    detail: format!(
                                        "client {} saw {} bytes after having seen {}",
                                        ev.client, len, *seen
                                    ),
                                });
                            }
                            *seen = (*seen).max(*len);
                        }
                    }
                    (PendingOp::Write { file, end }, OpOutcome::Attr { size, version, .. }) => {
                        report.writes_acked += 1;
                        let model = files.entry(file).or_default();
                        model.acked_end = model.acked_end.max(end).max(*size);
                        if let Some(last) = model.last_acked_version {
                            if strict && *version <= last {
                                report.violations.push(Violation {
                                    check: "write-version-regression",
                                    file,
                                    seq: ev.seq,
                                    detail: format!(
                                        "acked write version {version:?} does not advance past {last:?}"
                                    ),
                                });
                            }
                        }
                        model.last_acked_version = Some(*version);
                        bump_observed(&mut model.max_observed_version, *version);
                        if strict {
                            observe_session(
                                &mut session_len,
                                &mut session_version,
                                &mut report,
                                ev,
                                file,
                                *size,
                                *version,
                            );
                        }
                    }
                    (PendingOp::Getattr { file }, OpOutcome::Attr { size, version, .. }) => {
                        let model = files.entry(file).or_default();
                        bump_observed(&mut model.max_observed_version, *version);
                        if strict {
                            observe_session(
                                &mut session_len,
                                &mut session_version,
                                &mut report,
                                ev,
                                file,
                                *size,
                                *version,
                            );
                        }
                    }
                    // Denied / Lost acks and void successes carry no
                    // observation to check.
                    _ => {}
                }
            }
            EventBody::Fault(fault) => {
                report.faults_seen += 1;
                match fault {
                    FaultEvent::Crash { server } => {
                        down.insert(*server);
                    }
                    FaultEvent::Restart { server } => {
                        down.remove(server);
                    }
                    _ => {}
                }
            }
            EventBody::FinalState { file, len, hash, version, replicas } => {
                let model = files.entry(*file).or_default();
                if model.states.is_empty() {
                    model.states.insert(0, fnv1a(&[]));
                }
                match model.states.get(len) {
                    None => report.violations.push(Violation {
                        check: "final-state-unknown",
                        file: *file,
                        seq: ev.seq,
                        detail: format!(
                            "final length {len} is not a write boundary (valid: {:?})",
                            model.states.keys().collect::<Vec<_>>()
                        ),
                    }),
                    Some(expect) if expect != hash => report.violations.push(Violation {
                        check: "final-state-unknown",
                        file: *file,
                        seq: ev.seq,
                        detail: format!(
                            "final content of {len} bytes hashed {hash:#x}, expected {expect:#x}"
                        ),
                    }),
                    Some(_) => {}
                }
                if strict {
                    if *len < model.acked_end {
                        report.violations.push(Violation {
                            check: "acked-write-loss",
                            file: *file,
                            seq: ev.seq,
                            detail: format!(
                                "final length {len} lost acknowledged bytes through {} \
                                 (max concurrent crashes {} < write_safety {})",
                                model.acked_end,
                                report.max_concurrent_crashes,
                                contract.write_safety
                            ),
                        });
                    }
                    if let Some(max) = model.max_observed_version {
                        if *version < max {
                            report.violations.push(Violation {
                                check: "stabilized-version-regression",
                                file: *file,
                                seq: ev.seq,
                                detail: format!(
                                    "final version {version:?} is behind observed {max:?}"
                                ),
                            });
                        }
                    }
                }
                let floor = contract.min_replicas.min(contract.servers);
                if *replicas < floor {
                    report.violations.push(Violation {
                        check: "replica-floor",
                        file: *file,
                        seq: ev.seq,
                        detail: format!("{replicas} replica(s) after heal, floor is {floor}"),
                    });
                }
            }
        }
    }
    report
}

/// Records a (size, version) observation for one client session and
/// flags version regressions within the session.
fn observe_session(
    session_len: &mut HashMap<(u32, u64), usize>,
    session_version: &mut HashMap<(u32, u64), (u64, u64)>,
    report: &mut AuditReport,
    ev: &Event,
    file: u64,
    size: usize,
    version: (u64, u64),
) {
    let seen = session_len.entry((ev.client, file)).or_insert(0);
    if size < *seen {
        report.violations.push(Violation {
            check: "non-monotone-attr",
            file,
            seq: ev.seq,
            detail: format!("client {} saw size {} after having seen {}", ev.client, size, *seen),
        });
    }
    *seen = (*seen).max(size);
    let ver = session_version.entry((ev.client, file)).or_insert((0, 0));
    if version < *ver {
        report.violations.push(Violation {
            check: "version-regression",
            file,
            seq: ev.seq,
            detail: format!(
                "client {} saw version {version:?} after having seen {:?}",
                ev.client, *ver
            ),
        });
    }
    *ver = (*ver).max(version);
}

fn bump_observed(slot: &mut Option<(u64, u64)>, version: (u64, u64)) {
    match slot {
        Some(max) => *max = (*max).max(version),
        None => *slot = Some(version),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTRACT: Contract = Contract { write_safety: 2, min_replicas: 2, servers: 3 };

    struct Builder {
        seq: u64,
        events: Vec<Event>,
    }

    impl Builder {
        fn new() -> Self {
            Builder { seq: 0, events: Vec::new() }
        }

        fn next(&mut self) -> u64 {
            self.seq += 1;
            self.seq
        }

        fn push(&mut self, client: u32, body: EventBody) -> u64 {
            let seq = self.next();
            self.events.push(Event { seq, client, body });
            seq
        }

        /// A write invoked and immediately acked at `version`.
        fn write(
            &mut self,
            client: u32,
            file: u64,
            offset: usize,
            data: &[u8],
            version: (u64, u64),
        ) {
            let op = self.next();
            self.events.push(Event {
                seq: op,
                client,
                body: EventBody::Invoke {
                    op,
                    call: OpCall::Write { file, offset, data: data.to_vec() },
                },
            });
            self.push(
                client,
                EventBody::Ack {
                    op,
                    outcome: OpOutcome::Attr { file, size: offset + data.len(), version },
                },
            );
        }

        /// A read invoked and acked with the given observation.
        fn read(&mut self, client: u32, file: u64, bytes: &[u8]) {
            let op = self.next();
            self.events.push(Event {
                seq: op,
                client,
                body: EventBody::Invoke { op, call: OpCall::Read { file, offset: 0 } },
            });
            self.push(
                client,
                EventBody::Ack {
                    op,
                    outcome: OpOutcome::Data { len: bytes.len(), hash: fnv1a(bytes) },
                },
            );
        }

        fn history(self) -> History {
            History::from_events(self.events)
        }
    }

    #[test]
    fn clean_append_history_is_green() {
        let mut b = Builder::new();
        b.write(1, 7, 0, b"aaaa", (1, 1));
        b.read(2, 7, b"aaaa");
        b.write(1, 7, 4, b"bb", (1, 2));
        b.read(2, 7, b"aaaabb");
        b.read(2, 7, b"aaaabb");
        b.push(
            u32::MAX,
            EventBody::FinalState {
                file: 7,
                len: 6,
                hash: fnv1a(b"aaaabb"),
                version: (1, 2),
                replicas: 2,
            },
        );
        let report = audit(&b.history(), &CONTRACT);
        assert!(report.is_green(), "{}", report.render());
        assert_eq!(report.reads_checked, 3);
        assert_eq!(report.writes_acked, 2);
    }

    #[test]
    fn torn_read_is_flagged() {
        let mut b = Builder::new();
        b.write(1, 7, 0, b"aaaa", (1, 1));
        b.read(2, 7, b"aaXa");
        let report = audit(&b.history(), &CONTRACT);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].check, "torn-read");
    }

    #[test]
    fn mid_chunk_read_length_is_flagged() {
        let mut b = Builder::new();
        b.write(1, 7, 0, b"aaaa", (1, 1));
        b.read(2, 7, b"aa");
        let report = audit(&b.history(), &CONTRACT);
        assert_eq!(report.violations[0].check, "torn-read");
    }

    #[test]
    fn non_monotone_read_is_flagged() {
        let mut b = Builder::new();
        b.write(1, 7, 0, b"aaaa", (1, 1));
        b.write(1, 7, 4, b"bb", (1, 2));
        b.read(2, 7, b"aaaabb");
        b.read(2, 7, b"aaaa");
        let report = audit(&b.history(), &CONTRACT);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].check, "non-monotone-read");
    }

    #[test]
    fn future_read_is_flagged() {
        let mut b = Builder::new();
        b.write(1, 7, 0, b"aaaa", (1, 1));
        // Hand-build a read that returns bytes never written: a state
        // recorded by a later write, observed before its invoke.
        let op = b.next();
        b.events.push(Event {
            seq: op,
            client: 2,
            body: EventBody::Invoke { op, call: OpCall::Read { file: 7, offset: 0 } },
        });
        b.push(
            2,
            EventBody::Ack { op, outcome: OpOutcome::Data { len: 6, hash: fnv1a(b"aaaabb") } },
        );
        b.write(1, 7, 4, b"bb", (1, 2));
        let report = audit(&b.history(), &CONTRACT);
        assert!(report.violations.iter().any(|v| v.check == "future-read"), "{}", report.render());
    }

    #[test]
    fn acked_write_loss_is_flagged_within_crash_budget() {
        let mut b = Builder::new();
        b.write(1, 7, 0, b"aaaa", (1, 1));
        b.write(1, 7, 4, b"bb", (1, 2));
        b.push(u32::MAX, EventBody::Fault(FaultEvent::Crash { server: 0 }));
        b.push(u32::MAX, EventBody::Fault(FaultEvent::Restart { server: 0 }));
        b.push(
            u32::MAX,
            EventBody::FinalState {
                file: 7,
                len: 4,
                hash: fnv1a(b"aaaa"),
                version: (1, 1),
                replicas: 2,
            },
        );
        let report = audit(&b.history(), &CONTRACT);
        assert!(report.durability_checked);
        assert!(report.violations.iter().any(|v| v.check == "acked-write-loss"));
        assert!(report.violations.iter().any(|v| v.check == "stabilized-version-regression"));
    }

    #[test]
    fn crash_budget_exceeded_skips_durability_checks() {
        let mut b = Builder::new();
        b.write(1, 7, 0, b"aaaa", (1, 1));
        b.push(u32::MAX, EventBody::Fault(FaultEvent::Crash { server: 0 }));
        b.push(u32::MAX, EventBody::Fault(FaultEvent::Crash { server: 1 }));
        b.push(u32::MAX, EventBody::Fault(FaultEvent::Restart { server: 0 }));
        b.push(u32::MAX, EventBody::Fault(FaultEvent::Restart { server: 1 }));
        b.push(
            u32::MAX,
            EventBody::FinalState {
                file: 7,
                len: 0,
                hash: fnv1a(b""),
                version: (1, 0),
                replicas: 2,
            },
        );
        let report = audit(&b.history(), &CONTRACT);
        assert!(!report.durability_checked);
        assert!(report.is_green(), "{}", report.render());
    }

    #[test]
    fn write_version_regression_is_flagged() {
        let mut b = Builder::new();
        b.write(1, 7, 0, b"aaaa", (1, 2));
        b.write(1, 7, 4, b"bb", (1, 1));
        let report = audit(&b.history(), &CONTRACT);
        assert!(report.violations.iter().any(|v| v.check == "write-version-regression"));
    }

    #[test]
    fn replica_floor_violation_is_flagged() {
        let mut b = Builder::new();
        b.write(1, 7, 0, b"aaaa", (1, 1));
        b.push(
            u32::MAX,
            EventBody::FinalState {
                file: 7,
                len: 4,
                hash: fnv1a(b"aaaa"),
                version: (1, 1),
                replicas: 1,
            },
        );
        let report = audit(&b.history(), &CONTRACT);
        assert!(report.violations.iter().any(|v| v.check == "replica-floor"));
    }

    #[test]
    fn retried_identical_write_is_idempotent() {
        let mut b = Builder::new();
        b.write(1, 7, 0, b"aaaa", (1, 1));
        // Ambiguous first attempt: invoked, transport lost.
        let op = b.next();
        b.events.push(Event {
            seq: op,
            client: 1,
            body: EventBody::Invoke {
                op,
                call: OpCall::Write { file: 7, offset: 4, data: b"bb".to_vec() },
            },
        });
        b.push(1, EventBody::Ack { op, outcome: OpOutcome::Lost });
        // Retry of the same chunk succeeds.
        b.write(1, 7, 4, b"bb", (1, 2));
        b.read(2, 7, b"aaaabb");
        let report = audit(&b.history(), &CONTRACT);
        assert!(report.is_green(), "{}", report.render());
    }

    #[test]
    fn history_json_shape() {
        let mut b = Builder::new();
        b.write(1, 7, 0, b"aa\"a", (1, 1));
        b.push(u32::MAX, EventBody::Fault(FaultEvent::Split { groups: vec![vec![0, 1], vec![2]] }));
        let json = b.history().to_json();
        for needle in ["\"events\"", "\"invoke\"", "\"ack\"", "\"split\":[[0,1],[2]]", "\\\""] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
