//! The five workloads: their parameters, their request streams, and the
//! oracle that checks every reply.
//!
//! A [`Session`] is a state machine with two entry points. [`Session::next`]
//! produces the next request (submit time: it records what has been
//! *issued*); [`Session::complete`] consumes the reply (it records what
//! has been *acknowledged* and checks the reply against both). The same
//! machine drives the closed loop, the pipelined open loop and the
//! single-threaded simulator replay, so all three see one request stream.

use std::collections::VecDeque;

use bytes::Bytes;
use deceit_core::FileParams;
use deceit_net::NodeId;
use deceit_nfs::{FileHandle, FileType, NfsReply, NfsRequest, NfsServer};
use deceit_runtime::{RuntimeClient, RuntimeError};

use crate::gen::{check_payload, make_payload, Rng, Tag, Zipf, INIT_WRITER};

/// Servers in the cell under test.
pub const SERVERS: usize = 3;
/// Client sessions driving it — one per core of the box the baseline was
/// taken on. Session `i` is homed on server `i`.
pub const SESSIONS: usize = 2;
/// Live directory entries each `meta-churn` session holds.
const META_LIVE: u64 = 32;
/// A pipelined `meta-churn` session only touches entries this many
/// cycles away from their removal, so a lookup can never race the
/// remove of its own target whatever order the cell serves them in.
const META_MARGIN: u64 = 8;
/// Share of writes in `shared-mix`.
const SHARED_WRITE_SHARE: f64 = 0.2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReadLocal,
    WriteRepl,
    MetaChurn,
    BulkIo,
    SharedMix,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Files per session (own-file workloads) or in total (`shared-mix`).
    pub files: usize,
    /// Blocks per file; one op reads or writes one whole block.
    pub blocks: usize,
    /// Bytes per block.
    pub io: usize,
    pub params: FileParams,
    /// Offered load of the open-loop phase, ops/s over both sessions:
    /// about a quarter of the closed-loop `ops_per_s` at the commit that
    /// added the benchmark — a lightly loaded server, where the tail is
    /// service time plus the occasional queue. (Nearer saturation the
    /// tail amplifies the host's ±25 % clock-speed shifts twofold and
    /// stops repeating.) A constant — never re-derived at run time, or a
    /// slower build would be offered less and look no worse.
    pub open_rate: f64,
    /// Closed-loop ops each session runs before anything is timed.
    pub warmup_ops: usize,
}

const fn params(min_replicas: usize, write_safety: usize) -> FileParams {
    FileParams {
        min_replicas,
        write_safety,
        stability: true,
        migration: false,
        availability: deceit_core::WriteAvailability::Medium,
        read_optimized: false,
    }
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "read-local",
        kind: Kind::ReadLocal,
        files: 64,
        blocks: 2,
        io: 512,
        params: params(3, 1),
        open_rate: 50_000.0,
        warmup_ops: 20_000,
    },
    Spec {
        name: "write-repl",
        kind: Kind::WriteRepl,
        files: 64,
        blocks: 2,
        io: 512,
        params: params(3, 2),
        open_rate: 24_000.0,
        warmup_ops: 10_000,
    },
    Spec {
        name: "meta-churn",
        kind: Kind::MetaChurn,
        files: META_LIVE as usize,
        blocks: 0,
        io: 0,
        params: params(1, 1),
        open_rate: 14_000.0,
        warmup_ops: 4_000,
    },
    Spec {
        name: "bulk-io",
        kind: Kind::BulkIo,
        files: 16,
        blocks: 4,
        io: 64 * 1024,
        params: params(2, 1),
        open_rate: 1_800.0,
        warmup_ops: 2_000,
    },
    Spec {
        name: "shared-mix",
        kind: Kind::SharedMix,
        files: 64,
        blocks: 2,
        io: 512,
        params: params(2, 1),
        open_rate: 33_000.0,
        warmup_ops: 10_000,
    },
];

pub fn spec_named(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Bytes of user data alive in the file set: the denominator of
    /// `storage.bytes_per_user_byte`. For `meta-churn`, whose files are
    /// empty, the live names.
    pub fn live_user_bytes(&self) -> usize {
        match self.kind {
            Kind::MetaChurn => SESSIONS * META_LIVE as usize * "f00000".len(),
            Kind::SharedMix => self.files * self.blocks * self.io,
            _ => SESSIONS * self.files * self.blocks * self.io,
        }
    }
}

/// What a reply has to satisfy, fixed when its request was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// The block must carry a whole payload no older than write `lo`.
    Read {
        file: u16,
        block: u8,
        lo: u32,
    },
    Write {
        file: u16,
        block: u8,
        seq: u32,
    },
    Create {
        idx: u64,
    },
    Lookup {
        idx: u64,
    },
    Getattr {
        idx: u64,
    },
    /// `ca`/`ra`: creates/removes acknowledged when the listing was asked.
    Readdir {
        ca: u64,
        ra: u64,
    },
    Remove,
}

#[derive(Debug)]
pub struct Op {
    pub req: NfsRequest,
    pub check: Check,
}

#[derive(Debug)]
pub enum Session {
    Files(FileSession),
    Meta(MetaSession),
}

impl Session {
    pub fn home(&self) -> NodeId {
        match self {
            Session::Files(s) => NodeId(s.id as u32),
            Session::Meta(s) => NodeId(s.id as u32),
        }
    }

    pub fn next(&mut self) -> Op {
        match self {
            Session::Files(s) => s.next(),
            Session::Meta(s) => s.next(),
        }
    }

    /// Checks one reply. `Err` carries what was wrong; the caller counts
    /// it as a failed operation.
    pub fn complete(
        &mut self,
        check: Check,
        reply: Result<NfsReply, RuntimeError>,
    ) -> Result<(), String> {
        let reply = match reply {
            Ok(NfsReply::Error(e)) => Err(format!("{check:?}: server error: {e}")),
            Ok(rep) => Ok(rep),
            Err(e) => Err(format!("{check:?}: {e}")),
        };
        match self {
            Session::Files(s) => s.complete(check, reply),
            Session::Meta(s) => s.complete(check, reply),
        }
    }
}

/// One session of a read/write workload over a fixed file set.
#[derive(Debug)]
pub struct FileSession {
    id: u8,
    seed: u64,
    kind: Kind,
    io: usize,
    blocks: usize,
    files: Vec<FileHandle>,
    rng: Rng,
    zipf: Option<Zipf>,
    tick: u64,
    /// Per block: sequence number of this session's last issued write.
    submitted: Vec<u32>,
    /// Per block: sequence number of this session's last acknowledged write.
    acked: Vec<u32>,
    /// Per block and writer: the newest write this session has observed
    /// (its own acknowledgements count). A later read may not show an
    /// older one.
    seen: Vec<[u32; SESSIONS]>,
    /// Per block: some write has been observed, so the creation-time
    /// content may not reappear.
    seen_write: Vec<bool>,
    /// Per block: a write failed, so the content is unknown from here on.
    unknown: Vec<bool>,
}

impl FileSession {
    fn new(id: u8, seed: u64, spec: &Spec, files: Vec<FileHandle>) -> Self {
        let n = files.len() * spec.blocks;
        FileSession {
            id,
            seed,
            kind: spec.kind,
            io: spec.io,
            blocks: spec.blocks,
            zipf: (spec.kind == Kind::SharedMix).then(|| Zipf::new(files.len())),
            files,
            rng: Rng::new(seed, 0x10 + id as u64),
            tick: 0,
            submitted: vec![0; n],
            acked: vec![0; n],
            seen: vec![[0; SESSIONS]; n],
            seen_write: vec![false; n],
            unknown: vec![false; n],
        }
    }

    fn shared(&self) -> bool {
        self.kind == Kind::SharedMix
    }

    fn next(&mut self) -> Op {
        let file = match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.below(self.files.len()),
        };
        let block = self.rng.below(self.blocks);
        let write = match self.kind {
            Kind::ReadLocal => false,
            Kind::WriteRepl => true,
            Kind::BulkIo => self.tick.is_multiple_of(2),
            Kind::SharedMix => self.rng.unit() < SHARED_WRITE_SHARE,
            Kind::MetaChurn => unreachable!("meta-churn has its own session type"),
        };
        self.tick += 1;
        let slot = file * self.blocks + block;
        let (fh, offset) = (self.files[file], block * self.io);
        let (file, block) = (file as u16, block as u8);
        if write {
            self.submitted[slot] += 1;
            let seq = self.submitted[slot];
            let tag = Tag { writer: self.id, file, block, seq };
            let data = Bytes::from(make_payload(self.io, tag, self.seed));
            Op {
                req: NfsRequest::Write { fh, offset, data },
                check: Check::Write { file, block, seq },
            }
        } else {
            Op {
                req: NfsRequest::Read { fh, offset, count: self.io },
                check: Check::Read { file, block, lo: self.acked[slot] },
            }
        }
    }

    fn complete(&mut self, check: Check, reply: Result<NfsReply, String>) -> Result<(), String> {
        match check {
            Check::Write { file, block, seq } => {
                let slot = file as usize * self.blocks + block as usize;
                match reply {
                    Ok(NfsReply::Attr(attr)) if attr.size == self.blocks * self.io => {
                        self.acked[slot] = seq;
                        self.seen[slot][self.id as usize] = seq;
                        self.seen_write[slot] = true;
                        Ok(())
                    }
                    other => {
                        self.unknown[slot] = true;
                        Err(match other {
                            Ok(rep) => format!("{check:?}: unexpected reply {rep:?}"),
                            Err(e) => e,
                        })
                    }
                }
            }
            Check::Read { file, block, lo } => {
                let slot = file as usize * self.blocks + block as usize;
                let data = match reply? {
                    NfsReply::Data(d) => d,
                    rep => return Err(format!("{check:?}: unexpected reply {rep:?}")),
                };
                if self.unknown[slot] {
                    return Ok(());
                }
                let tag = check_payload(&data, self.io, self.seed).ok_or_else(|| {
                    format!("{check:?}: {} bytes, not a whole payload", data.len())
                })?;
                self.observe(slot, tag, file, block, lo)
                    .map_err(|why| format!("{check:?}: {why} ({tag:?})"))
            }
            other => Err(format!("{other:?} is not a file-session check")),
        }
    }

    /// The oracle for one observed block.
    fn observe(
        &mut self,
        slot: usize,
        tag: Tag,
        file: u16,
        block: u8,
        lo: u32,
    ) -> Result<(), &'static str> {
        if (tag.file, tag.block) != (file, block) {
            return Err("payload of another block");
        }
        let me = self.id;
        if tag.writer == INIT_WRITER && self.shared() {
            // Creation-time content of a shared file: legal until this
            // session has seen any write to the block.
            return if tag.seq != 0 {
                Err("malformed creation-time payload")
            } else if self.seen_write[slot] {
                Err("creation-time content after a write was observed")
            } else {
                Ok(())
            };
        }
        if tag.writer as usize >= SESSIONS || (!self.shared() && tag.writer != me) {
            return Err("payload of a writer that does not write this file");
        }
        if tag.writer == me && !(lo..=self.submitted[slot]).contains(&tag.seq) {
            // Own writes: at least the last one acknowledged before the
            // read was issued, at most the last one issued. In a closed
            // loop the two coincide and the check is byte-for-byte.
            return Err("own write outside the acknowledged..issued window");
        }
        let seen = &mut self.seen[slot][tag.writer as usize];
        if tag.seq < *seen {
            return Err("older write than one this session already observed");
        }
        *seen = tag.seq;
        self.seen_write[slot] |= tag.seq > 0;
        Ok(())
    }
}

/// One `meta-churn` session: `create → lookup → getattr → (readdir) →
/// remove` over a sliding window of names `f<n>` in its own directory.
///
/// Creates and removes are issued in name order, so four counters
/// describe the directory exactly: names below `removes_*` are gone,
/// names below `creates_*` exist, and a listing must fall between the
/// acknowledged state when it was asked and the issued state when it
/// was answered.
#[derive(Debug)]
pub struct MetaSession {
    id: u8,
    dir: FileHandle,
    rng: Rng,
    step: u64,
    creates_issued: u64,
    creates_acked: u64,
    removes_issued: u64,
    removes_acked: u64,
    /// Handles of acknowledged creates, oldest first; front is name
    /// `handles_base`.
    handles: VecDeque<FileHandle>,
    handles_base: u64,
}

fn meta_name(idx: u64) -> String {
    format!("f{idx:05}")
}

impl MetaSession {
    fn new(id: u8, seed: u64, dir: FileHandle) -> Self {
        MetaSession {
            id,
            dir,
            rng: Rng::new(seed, 0x20 + id as u64),
            step: 0,
            creates_issued: 0,
            creates_acked: 0,
            removes_issued: 0,
            removes_acked: 0,
            handles: VecDeque::new(),
            handles_base: 0,
        }
    }

    /// An existing name that will not be removed for a while.
    fn pick_live(&mut self) -> u64 {
        let lo = (self.removes_issued + META_MARGIN).min(self.creates_acked - 1);
        lo + self.rng.below((self.creates_acked - lo) as usize) as u64
    }

    fn handle_of(&self, idx: u64) -> FileHandle {
        self.handles[(idx - self.handles_base) as usize]
    }

    fn next(&mut self) -> Op {
        let dir = self.dir;
        // A cycle has five slots; the listing slot is skipped except on
        // every sixteenth cycle (a listing costs as much as several
        // lookups, and real clients list far less often than they stat).
        loop {
            let (cycle, phase) = (self.step / 5, self.step % 5);
            self.step += 1;
            return match phase {
                0 => {
                    let idx = self.creates_issued;
                    self.creates_issued += 1;
                    Op {
                        req: NfsRequest::Create { dir, name: meta_name(idx), mode: 0o644 },
                        check: Check::Create { idx },
                    }
                }
                1 => {
                    let idx = self.pick_live();
                    Op {
                        req: NfsRequest::Lookup { dir, name: meta_name(idx) },
                        check: Check::Lookup { idx },
                    }
                }
                2 => {
                    let idx = self.pick_live();
                    Op {
                        req: NfsRequest::Getattr { fh: self.handle_of(idx) },
                        check: Check::Getattr { idx },
                    }
                }
                3 if cycle % 16 != 15 => continue,
                3 => Op {
                    req: NfsRequest::Readdir { dir },
                    check: Check::Readdir { ca: self.creates_acked, ra: self.removes_acked },
                },
                _ => {
                    let idx = self.removes_issued;
                    self.removes_issued += 1;
                    Op {
                        req: NfsRequest::Remove { dir, name: meta_name(idx) },
                        check: Check::Remove,
                    }
                }
            };
        }
    }

    fn complete(&mut self, check: Check, reply: Result<NfsReply, String>) -> Result<(), String> {
        let reply = reply?;
        let bad = |rep: &NfsReply| Err(format!("{check:?}: unexpected reply {rep:?}"));
        match (check, &reply) {
            (Check::Create { idx }, NfsReply::Attr(attr)) => {
                if idx != self.creates_acked || attr.ftype != FileType::Regular || attr.size != 0 {
                    return bad(&reply);
                }
                self.handles.push_back(attr.handle);
                self.creates_acked += 1;
                Ok(())
            }
            (Check::Lookup { idx } | Check::Getattr { idx }, NfsReply::Attr(attr)) => {
                let same = attr.handle == self.handle_of(idx);
                if same && attr.ftype == FileType::Regular && attr.size == 0 {
                    Ok(())
                } else {
                    bad(&reply)
                }
            }
            (Check::Readdir { ca, ra }, NfsReply::Entries(entries)) => {
                // Must hold: created-and-acked when asked, minus removes
                // issued by now. May hold: anything issued, minus
                // removes acked when asked.
                let must = self.removes_issued..ca;
                let may = ra..self.creates_issued;
                let mut listed = vec![false; (may.end - may.start) as usize];
                for e in entries {
                    let idx = e.name.strip_prefix('f').and_then(|n| n.parse::<u64>().ok());
                    match idx {
                        Some(i) if may.contains(&i) && !listed[(i - may.start) as usize] => {
                            listed[(i - may.start) as usize] = true;
                        }
                        _ => return Err(format!("{check:?}: listing holds `{}`", e.name)),
                    }
                }
                if must.clone().all(|i| listed[(i - may.start) as usize]) {
                    Ok(())
                } else {
                    Err(format!("{check:?}: listing lacks some of {must:?}"))
                }
            }
            (Check::Remove, NfsReply::Void) => {
                self.removes_acked += 1;
                self.handles.pop_front();
                self.handles_base += 1;
                Ok(())
            }
            _ => bad(&reply),
        }
    }
}

/// How set-up and verification reach the cell: a live session, or the
/// envelope called directly (the simulator replay).
pub trait Transport {
    fn call(&mut self, via: NodeId, req: NfsRequest) -> Result<NfsReply, String>;
}

impl Transport for RuntimeClient {
    fn call(&mut self, via: NodeId, req: NfsRequest) -> Result<NfsReply, String> {
        self.call_via(via, req).map_err(|e| e.to_string())
    }
}

impl Transport for NfsServer {
    fn call(&mut self, via: NodeId, req: NfsRequest) -> Result<NfsReply, String> {
        Ok(self.handle(via, req).0)
    }
}

fn expect_attr(rep: NfsReply, what: &str) -> Result<deceit_nfs::FileAttr, String> {
    match rep {
        NfsReply::Attr(a) => Ok(a),
        other => Err(format!("set-up {what}: {other:?}")),
    }
}

/// Creates one file via `home` with the workload's parameters and fills
/// every block with the payload `writer` would have written at seq 0.
/// Costs `2 + spec.blocks` requests.
fn create_file(
    t: &mut dyn Transport,
    home: NodeId,
    dir: FileHandle,
    writer: u8,
    file: u16,
    spec: &Spec,
    seed: u64,
) -> Result<FileHandle, String> {
    let name = format!("w{writer}_f{file}");
    let fh =
        expect_attr(t.call(home, NfsRequest::Create { dir, name, mode: 0o644 })?, "create")?.handle;
    match t.call(home, NfsRequest::DeceitSetParams { fh, params: spec.params })? {
        NfsReply::Void => {}
        other => return Err(format!("set-up set-params: {other:?}")),
    }
    for block in 0..spec.blocks {
        let tag = Tag { writer, file, block: block as u8, seq: 0 };
        let data = Bytes::from(make_payload(spec.io, tag, seed));
        expect_attr(
            t.call(home, NfsRequest::Write { fh, offset: block * spec.io, data })?,
            "write",
        )?;
    }
    Ok(fh)
}

/// Builds the workload's file set through `t` and returns one session
/// per client, plus how many requests that took.
pub fn build_sessions(
    t: &mut dyn Transport,
    root: FileHandle,
    spec: &Spec,
    seed: u64,
) -> Result<(Vec<Session>, u64), String> {
    let mut ops = 0;
    let mut sessions = Vec::with_capacity(SESSIONS);
    match spec.kind {
        Kind::MetaChurn => {
            for s in 0..SESSIONS as u8 {
                let home = NodeId(s as u32);
                let made = t.call(
                    home,
                    NfsRequest::Mkdir { dir: root, name: format!("d{s}"), mode: 0o755 },
                )?;
                let dir = expect_attr(made, "mkdir")?.handle;
                ops += 1;
                let mut session = Session::Meta(MetaSession::new(s, seed, dir));
                // Fill the window: the first META_LIVE ops of a fresh
                // session would all be creates anyway.
                for idx in 0..META_LIVE {
                    let req = NfsRequest::Create { dir, name: meta_name(idx), mode: 0o644 };
                    let rep = t.call(home, req)?;
                    let Session::Meta(m) = &mut session else { unreachable!() };
                    m.creates_issued += 1;
                    m.complete(Check::Create { idx }, Ok(rep))?;
                    ops += 1;
                }
                sessions.push(session);
            }
        }
        Kind::SharedMix => {
            let files = (0..spec.files)
                .map(|f| {
                    create_file(
                        t,
                        NodeId((f % SERVERS) as u32),
                        root,
                        INIT_WRITER,
                        f as u16,
                        spec,
                        seed,
                    )
                })
                .collect::<Result<Vec<_>, _>>()?;
            ops += (spec.files * (2 + spec.blocks)) as u64;
            for s in 0..SESSIONS as u8 {
                sessions.push(Session::Files(FileSession::new(s, seed, spec, files.clone())));
            }
        }
        _ => {
            for s in 0..SESSIONS as u8 {
                let files = (0..spec.files)
                    .map(|f| create_file(t, NodeId(s as u32), root, s, f as u16, spec, seed))
                    .collect::<Result<Vec<_>, _>>()?;
                ops += (spec.files * (2 + spec.blocks)) as u64;
                sessions.push(Session::Files(FileSession::new(s, seed, spec, files)));
            }
        }
    }
    Ok((sessions, ops))
}

/// After the last phase and a `settle`: reads every block of every file
/// (and lists every directory) through *every* server and checks it
/// against the last acknowledged write. Returns `(attempted, failures)`.
pub fn verify_final(t: &mut dyn Transport, sessions: &[&Session], seed: u64) -> (u64, Vec<String>) {
    let mut attempted = 0;
    let mut failures = Vec::new();
    let servers = (0..SERVERS as u32).map(NodeId);
    let mut done: Vec<FileHandle> = Vec::new();
    for session in sessions {
        match session {
            Session::Meta(m) => {
                let live = m.removes_acked..m.creates_acked;
                for via in servers.clone() {
                    attempted += 1;
                    let mut names: Vec<String> =
                        match t.call(via, NfsRequest::Readdir { dir: m.dir }) {
                            Ok(NfsReply::Entries(es)) => es.into_iter().map(|e| e.name).collect(),
                            other => {
                                failures.push(format!("final readdir via {via}: {other:?}"));
                                continue;
                            }
                        };
                    names.sort();
                    if names != live.clone().map(meta_name).collect::<Vec<_>>() {
                        failures.push(format!(
                            "final listing of session {} via {via} is not {live:?}",
                            m.id
                        ));
                    }
                }
            }
            Session::Files(s) => {
                for (file, &fh) in s.files.iter().enumerate() {
                    if done.contains(&fh) {
                        continue;
                    }
                    done.push(fh);
                    for block in 0..s.blocks {
                        let slot = file * s.blocks + block;
                        // Every session that writes this file; for a
                        // shared file the last write overall is the last
                        // write of one of them.
                        let writers: Vec<&FileSession> = sessions
                            .iter()
                            .filter_map(|o| match o {
                                Session::Files(o) if o.files.get(file) == Some(&fh) => Some(o),
                                _ => None,
                            })
                            .collect();
                        if writers.iter().any(|w| w.unknown[slot]) {
                            continue;
                        }
                        let mut allowed: Vec<Tag> = writers
                            .iter()
                            .filter(|w| w.acked[slot] > 0 || !s.shared())
                            .map(|w| Tag {
                                writer: w.id,
                                file: file as u16,
                                block: block as u8,
                                seq: w.acked[slot],
                            })
                            .collect();
                        if allowed.is_empty() {
                            allowed.push(Tag {
                                writer: INIT_WRITER,
                                file: file as u16,
                                block: block as u8,
                                seq: 0,
                            });
                        }
                        let mut first: Option<Tag> = None;
                        for via in servers.clone() {
                            attempted += 1;
                            let req = NfsRequest::Read { fh, offset: block * s.io, count: s.io };
                            let got = match t.call(via, req) {
                                Ok(NfsReply::Data(d)) => check_payload(&d, s.io, seed),
                                _ => None,
                            };
                            match got {
                                Some(tag) if allowed.contains(&tag) && *first.get_or_insert(tag) == tag => {}
                                other => failures.push(format!(
                                    "final read of file {file} block {block} via {via}: {other:?}, want one of {allowed:?}"
                                )),
                            }
                        }
                    }
                }
            }
        }
    }
    // A sighting of another session's write must be of one it issued.
    for reader in sessions {
        let Session::Files(r) = reader else { continue };
        for writer in sessions {
            let Session::Files(w) = writer else { continue };
            if !r.shared() || r.id == w.id {
                continue;
            }
            attempted += 1;
            if (0..r.seen.len()).any(|slot| r.seen[slot][w.id as usize] > w.submitted[slot]) {
                failures.push(format!(
                    "session {} observed a write session {} never issued",
                    r.id, w.id
                ));
            }
        }
    }
    (attempted, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deceit_nfs::DeceitFs;

    fn server() -> NfsServer {
        NfsServer::new(DeceitFs::with_defaults(SERVERS))
    }

    /// Every workload's stream, replayed against the envelope directly,
    /// satisfies its own oracle — and the oracle is not vacuous.
    #[test]
    fn every_workload_passes_its_own_oracle_in_the_simulator() {
        for spec in &SPECS {
            let mut srv = server();
            let root = srv.mount();
            let (mut sessions, ops) = build_sessions(&mut srv, root, spec, 3).expect(spec.name);
            assert!(ops > 0);
            for i in 0..600 {
                let s = &mut sessions[i % SESSIONS];
                let home = s.home();
                let op = s.next();
                let rep = srv.call(home, op.req).unwrap();
                s.complete(op.check, Ok(rep))
                    .unwrap_or_else(|e| panic!("{}: op {i}: {e}", spec.name));
            }
            let (attempted, failures) =
                verify_final(&mut srv, &sessions.iter().collect::<Vec<_>>(), 3);
            assert!(attempted > 0 && failures.is_empty(), "{}: {failures:?}", spec.name);
        }
    }

    #[test]
    fn oracle_rejects_stale_torn_and_foreign_blocks() {
        let spec = spec_named("write-repl").unwrap();
        let mut srv = server();
        let root = srv.mount();
        let (mut sessions, _) = build_sessions(&mut srv, root, spec, 1).unwrap();
        let Session::Files(s) = &mut sessions[0] else { unreachable!() };
        let (file, block) = (5u16, 1u8);
        let slot = file as usize * s.blocks + block as usize;
        s.submitted[slot] = 4;
        s.acked[slot] = 4;
        let read = Check::Read { file, block, lo: 4 };
        let payload = |writer, file, block, seq| {
            Ok(NfsReply::Data(make_payload(512, Tag { writer, file, block, seq }, 1).into()))
        };
        assert!(s.complete(read, payload(0, file, block, 4)).is_ok());
        assert!(
            s.complete(read, payload(0, file, block, 3)).is_err(),
            "stale: before the last ack"
        );
        assert!(
            s.complete(read, payload(0, file, block, 5)).is_err(),
            "from the future: never issued"
        );
        assert!(s.complete(read, payload(0, file, 0, 4)).is_err(), "another block's bytes");
        assert!(s.complete(read, payload(1, file, block, 4)).is_err(), "another session's bytes");
        assert!(s.complete(read, Ok(NfsReply::Data(vec![0u8; 512].into()))).is_err(), "zeros");
        assert!(s.complete(read, Ok(NfsReply::Data(Bytes::new()))).is_err(), "short");
        assert!(s.complete(read, Ok(NfsReply::Error(deceit_nfs::NfsError::Stale))).is_err());
    }

    #[test]
    fn shared_oracle_enforces_per_writer_monotone_reads() {
        let spec = spec_named("shared-mix").unwrap();
        let mut srv = server();
        let root = srv.mount();
        let (mut sessions, _) = build_sessions(&mut srv, root, spec, 1).unwrap();
        let Session::Files(s) = &mut sessions[0] else { unreachable!() };
        let read = Check::Read { file: 0, block: 0, lo: 0 };
        let payload = |writer, seq| {
            Ok(NfsReply::Data(make_payload(512, Tag { writer, file: 0, block: 0, seq }, 1).into()))
        };
        assert!(
            s.complete(read, payload(INIT_WRITER, 0)).is_ok(),
            "untouched file shows creation content"
        );
        assert!(s.complete(read, payload(1, 7)).is_ok(), "the other session's write");
        assert!(s.complete(read, payload(1, 7)).is_ok(), "same write again");
        assert!(s.complete(read, payload(1, 9)).is_ok(), "a newer one");
        assert!(s.complete(read, payload(1, 8)).is_err(), "went back in time");
        assert!(s.complete(read, payload(INIT_WRITER, 0)).is_err(), "creation content resurfaced");
        assert!(s.complete(read, payload(0, 1)).is_err(), "own write that was never issued");
    }

    #[test]
    fn meta_listing_check_follows_issue_and_ack_windows() {
        let mut m = MetaSession::new(0, 1, FileHandle::new(deceit_core::SegmentId(9)));
        let fh = |i: u64| FileHandle::new(deceit_core::SegmentId(100 + i));
        let attr = |i: u64| deceit_nfs::FileAttr {
            handle: fh(i),
            ftype: FileType::Regular,
            mode: 0o644,
            nlink: 1,
            uid: 0,
            gid: 0,
            size: 0,
            version: deceit_core::VersionPair::initial(1),
            mtime: 0,
            ctime: 0,
        };
        for i in 0..4 {
            m.creates_issued += 1;
            m.complete(Check::Create { idx: i }, Ok(NfsReply::Attr(attr(i)))).unwrap();
        }
        let entries = |range: std::ops::Range<u64>| {
            NfsReply::Entries(
                range
                    .map(|i| deceit_nfs::DirEntry { name: meta_name(i), handle: fh(i), ftype: 1 })
                    .collect(),
            )
        };
        let asked = Check::Readdir { ca: 4, ra: 0 };
        assert!(m.complete(asked, Ok(entries(0..4))).is_ok());
        assert!(m.complete(asked, Ok(entries(0..3))).is_err(), "an acknowledged create is missing");
        assert!(m.complete(asked, Ok(entries(0..5))).is_err(), "a name nobody created");
        let NfsReply::Entries(mut twice) = entries(0..4) else { unreachable!() };
        twice[3] = twice[0].clone();
        assert!(
            m.complete(asked, Ok(NfsReply::Entries(twice))).is_err(),
            "one name twice, one missing"
        );
        // A create in flight may or may not be listed; so may a remove.
        m.creates_issued += 1;
        m.removes_issued += 1;
        assert!(m.complete(asked, Ok(entries(0..5))).is_ok());
        assert!(m.complete(asked, Ok(entries(1..4))).is_ok());
        assert!(m.complete(asked, Ok(entries(2..4))).is_err(), "name 1 was never removed");
        assert!(
            m.complete(Check::Lookup { idx: 2 }, Ok(NfsReply::Attr(attr(3)))).is_err(),
            "wrong handle"
        );
    }
}
