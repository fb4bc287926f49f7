//! The rule registry, rebuilt around the facts layer. Rules now see
//! the whole workspace (`Facts`: items, call graph, lock sets, atomic
//! declarations) and are invoked once per file; scoping stays by
//! repo-relative path so fixture tests can exercise a rule by lexing
//! synthetic content under the real path.

use crate::lexer::{Tok, TokKind};
use crate::report::Finding;
use crate::Facts;

/// One file, pre-lexed. `code` is the token stream with comments
/// stripped (rules match on it); `toks` keeps comments for waivers.
pub struct SourceFile {
    pub path: String,
    pub toks: Vec<Tok>,
    pub code: Vec<Tok>,
}

impl SourceFile {
    pub fn new(path: &str, src: &str) -> Self {
        let toks = crate::lexer::lex(src);
        let code = toks.iter().filter(|t| t.kind != TokKind::Comment).cloned().collect();
        SourceFile { path: path.to_string(), toks, code }
    }
}

pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
    /// Which PR's bug class motivated the rule (for `--list-rules`).
    pub motivation: &'static str,
    pub check: fn(usize, &Facts, &mut Vec<Finding>),
}

pub const RULES: &[Rule] = &[
    Rule {
        id: "lock-order",
        summary: "cell lock before ring locks, anywhere in the transitive call tree; ring batches only via lock_slots; leaf locks stay behind the hot.rs/shard.rs seams, and closures run under one are leaves",
        motivation: "PRs 2-3 sharded the engine; the module-doc lock order is the only thing between us and deadlock",
        check: rule_lock_order,
    },
    Rule {
        id: "no-bare-panic",
        summary: "no .unwrap()/.expect()/panic!/unreachable! in the engine, group communication, transport, NFS, storage, or the runtime's serving files (tests and fault-injection drivers exempt)",
        motivation: "PR 4 converted recovery.rs panics to skip/fallthrough after storms kept finding new ones",
        check: rule_no_bare_panic,
    },
    Rule {
        id: "due-gating",
        summary: "every Pending variant must appear in the due_gated decision table",
        motivation: "PR 4 fixed the same silently-ungated-variant bug twice; a new variant must not bypass the pump",
        check: rule_due_gating,
    },
    Rule {
        id: "lease-discipline",
        summary: "in registered invalidation functions the lease revoke must lexically precede the state mutation",
        motivation: "PR 5's read leases are only safe because every invalidation revokes before it mutates",
        check: rule_lease_discipline,
    },
    Rule {
        id: "one-clock",
        summary: "no Instant::now / SystemTime::now / .elapsed() in core, isis, net, nfs, runtime or storage outside tests: the wall clock is read through deceit_sim::wall, which counts",
        motivation: "clock reads per request are pinned by test; a read outside the one clock is one the count cannot see",
        check: rule_one_clock,
    },
    Rule {
        id: "ordering-audit",
        summary: "Ordering::Relaxed only on allowlisted atomic declarations; published flags need Acquire/Release or a waiver",
        motivation: "PR 5/PR 6 spread atomics through the hot path; Relaxed is correct for tallies, silent corruption for flags",
        check: rule_ordering_audit,
    },
];

pub fn rule_ids() -> Vec<&'static str> {
    RULES.iter().map(|r| r.id).collect()
}

// ---------------------------------------------------------------------------
// Token-stream helpers.

fn seq(code: &[Tok], i: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, p)| code.get(i + k).is_some_and(|t| t.text == *p))
}

struct FnSpan {
    name: String,
    line: u32,
    /// Code-index range of the body, exclusive of its braces.
    body: (usize, usize),
}

/// Find `fn <name> … { … }` spans. Signature parens/brackets are
/// skipped so the body `{` is found even with where-clauses and
/// generics; trait method declarations (`fn f();`) yield no span.
fn functions(code: &[Tok]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if code[i].is("fn") && code.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let name = code[i + 1].text.clone();
            let line = code[i].line;
            let (mut paren, mut brack) = (0i32, 0i32);
            let mut j = i + 2;
            let mut open = None;
            while j < code.len() {
                match code[j].text.as_str() {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "[" => brack += 1,
                    "]" => brack -= 1,
                    "{" if paren == 0 && brack == 0 => {
                        open = Some(j);
                        break;
                    }
                    ";" if paren == 0 && brack == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(open) = open {
                let mut depth = 0i32;
                let mut k = open;
                while k < code.len() {
                    if code[k].is("{") {
                        depth += 1;
                    } else if code[k].is("}") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                out.push(FnSpan { name, line, body: (open + 1, k.min(code.len())) });
                i = open + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 1: lock-order.

/// The discipline (module doc of `runtime::shard`): the cell RwLock is
/// acquired first, then shard ring mutexes in strictly ascending slot
/// order via `lock_slots`, then per-slot leaf locks inside `hot.rs`.
///
/// The ordering itself is checked interprocedurally by the lock-set
/// dataflow (`lockset.rs`): any cell acquisition while something is
/// held, or ring acquisition while a ring is held, anywhere in the
/// transitive call tree, is a finding anchored at the acquisition site.
/// Two lexical checks remain:
///   (a) in `shard.rs`, no raw `shards[…].lock()` indexing outside
///       `lock_slots` (ascending order is only proven there);
///   (b) in `crates/core` outside `hot.rs`, no raw `.lock()` calls —
///       leaf locks belong behind the hot.rs/shard.rs seams;
///   (c) in `crates/core` outside `hot.rs`, a closure handed to a
///       server's `visit` or a container's `update` / `update_with` runs
///       under that slot's leaf lock and must be a leaf itself: it may
///       not mention `self`, through which every other lock of the
///       engine is reached.
fn rule_lock_order(fi: usize, facts: &Facts, out: &mut Vec<Finding>) {
    let f = &facts.files[fi];
    // Interprocedural cell/ring order violations anchored in this file.
    for v in &facts.lock_violations {
        if v.file == fi {
            out.push(Finding::new("lock-order", &f.path, v.line, v.message.clone()));
        }
    }
    let code = &f.code;
    if f.path == "crates/runtime/src/shard.rs" {
        for i in 0..code.len() {
            if code[i].test {
                continue;
            }
            if code[i].is("shards") && seq(code, i + 1, &["["]) {
                let fn_name = facts
                    .items
                    .fn_of_token(fi, i)
                    .map(|id| facts.items.fns[id].name.clone())
                    .unwrap_or_default();
                if fn_name != "lock_slots" {
                    out.push(Finding::new(
                        "lock-order",
                        &f.path,
                        code[i].line,
                        format!(
                            "raw ring-lock indexing in `{fn_name}` — only `lock_slots` proves ascending acquisition order"
                        ),
                    ));
                }
            }
        }
    }
    if f.path.starts_with("crates/core/src/") && !f.path.ends_with("/hot.rs") {
        for i in 0..code.len() {
            if code[i].test {
                continue;
            }
            if seq(code, i, &[".", "lock", "("]) {
                out.push(Finding::new(
                    "lock-order",
                    &f.path,
                    code[i].line,
                    "raw leaf-lock acquisition outside the hot.rs/shard.rs seams",
                ));
            }
            if ["visit", "update", "update_with"].iter().any(|m| seq(code, i, &[".", m, "("])) {
                if let Some(line) = self_in_closure_arg(code, i + 2) {
                    out.push(Finding::new(
                        "lock-order",
                        &f.path,
                        line,
                        format!(
                            "`self` inside the closure handed to `{}` — it runs under a slot's leaf lock and must take no other: compute before the call, act on the result after it",
                            code[i + 1].text
                        ),
                    ));
                }
            }
        }
    }
}

/// The line of the first `self` inside a closure literal among the
/// arguments of the call whose `(` is at `open`.
fn self_in_closure_arg(code: &[Tok], open: usize) -> Option<u32> {
    let mut depth = 0i32;
    let mut in_closure = false;
    for t in &code[open..] {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            }
            "|" | "||" if depth == 1 => in_closure = true,
            "self" if in_closure => return Some(t.line),
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Rule 2: no-bare-panic.

/// Where a client request or a storm can reach. The runtime's
/// fault-injection drivers (`nemesis.rs`, `scenario.rs`) stay out: they
/// are harnesses, and a broken precondition there should stop the run.
const PANIC_SCOPES: &[&str] = &[
    "crates/core/src/",
    "crates/isis/src/",
    "crates/net/src/",
    "crates/nfs/src/",
    "crates/runtime/src/client.rs",
    "crates/runtime/src/config.rs",
    "crates/runtime/src/error.rs",
    "crates/runtime/src/history.rs",
    "crates/runtime/src/obs.rs",
    "crates/runtime/src/runtime.rs",
    "crates/runtime/src/shard.rs",
    "crates/sim/src/",
    "crates/storage/src/",
];

fn rule_no_bare_panic(fi: usize, facts: &Facts, out: &mut Vec<Finding>) {
    let f = &facts.files[fi];
    if !PANIC_SCOPES.iter().any(|p| f.path.starts_with(p)) {
        return;
    }
    let code = &f.code;
    for i in 0..code.len() {
        if code[i].test {
            continue;
        }
        let msg = if seq(code, i, &[".", "unwrap", "(", ")"]) {
            Some("bare `.unwrap()` on a protocol path — return an error or skip, or waive with a proof of infallibility")
        } else if seq(code, i, &[".", "expect", "("]) {
            Some("bare `.expect(…)` on a protocol path — return an error or skip, or waive with a proof of infallibility")
        } else if code[i].kind == TokKind::Ident
            && seq(code, i + 1, &["!"])
            && matches!(code[i].text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
        {
            Some("panicking macro on a protocol path — a storm can reach this; fail soft instead")
        } else {
            None
        };
        if let Some(msg) = msg {
            // Anchor on the method/macro name, not the leading dot.
            let line = if code[i].is(".") { code[i + 1].line } else { code[i].line };
            out.push(Finding::new("no-bare-panic", &f.path, line, msg));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: due-gating.

/// In `core/src/event.rs`, every `Pending` variant must be named in the
/// body of `due_gated` — the pump's decision table. A variant that is
/// not mentioned there was almost certainly added without deciding
/// whether the pump may fire it early (the bug PR 4 fixed twice).
fn rule_due_gating(fi: usize, facts: &Facts, out: &mut Vec<Finding>) {
    let f = &facts.files[fi];
    if f.path != "crates/core/src/event.rs" {
        return;
    }
    let code = &f.code;
    // Collect variants of `enum Pending { … }`.
    let mut variants: Vec<(String, u32)> = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if code[i].is("enum") && seq(code, i + 1, &["Pending"]) {
            let mut j = i + 2;
            while j < code.len() && !code[j].is("{") {
                j += 1;
            }
            let mut depth = 0i32;
            while j < code.len() {
                let t = &code[j];
                if t.is("{") || t.is("(") {
                    depth += 1;
                } else if t.is("}") || t.is(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth == 1 && t.kind == TokKind::Ident {
                    // At variant level an ident starts a variant; skip
                    // its field group, which the depth counter handles.
                    variants.push((t.text.clone(), t.line));
                    let mut d = 0i32;
                    let mut k = j + 1;
                    while k < code.len() {
                        if code[k].is("{") || code[k].is("(") {
                            d += 1;
                        } else if code[k].is("}") || code[k].is(")") {
                            d -= 1;
                            if d < 0 {
                                break; // enum's own closing brace
                            }
                        } else if d == 0 && code[k].is(",") {
                            break;
                        }
                        k += 1;
                    }
                    j = k;
                    if d < 0 {
                        break;
                    }
                }
                j += 1;
            }
            break;
        }
        i += 1;
    }
    if variants.is_empty() {
        return;
    }
    let Some(gate) = functions(code).into_iter().find(|fun| fun.name == "due_gated") else {
        out.push(Finding::new(
            "due-gating",
            &f.path,
            1,
            "`Pending` is defined but no `due_gated` decision table exists in this file",
        ));
        return;
    };
    let body: std::collections::BTreeSet<&str> = code[gate.body.0..gate.body.1]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    for (name, line) in &variants {
        if !body.contains(name.as_str()) {
            out.push(Finding::new(
                "due-gating",
                &f.path,
                *line,
                format!("`Pending::{name}` is missing from the `due_gated` decision table — decide whether the pump may fire it before its due time"),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: lease-discipline.

/// Registered invalidation functions (file, fn). In each, the first
/// lease revoke (`leases.remove`/`leases.clear`) must lexically precede
/// the first replica/token/stream state mutation, so a racing leased
/// read can never validate against already-mutated state.
const INVALIDATORS: &[(&str, &str)] = &[
    ("crates/core/src/proto/token.rs", "pass_token"),
    ("crates/core/src/proto/stability.rs", "mark_stable_round"),
    ("crates/core/src/server.rs", "crash"),
    ("crates/core/src/proto/recovery.rs", "destroy_replica"),
];

const MUTATION_RECEIVERS: &[&str] = &["replicas", "tokens", "streams", "outbound", "receivers"];
const MUTATION_METHODS: &[&str] = &[
    "put_sync",
    "put_async",
    "delete_sync",
    "update",
    "update_with",
    "crash",
    "clear",
    "remove",
    "insert",
];

fn rule_lease_discipline(fi: usize, facts: &Facts, out: &mut Vec<Finding>) {
    let f = &facts.files[fi];
    let targets: Vec<&str> =
        INVALIDATORS.iter().filter(|(p, _)| *p == f.path).map(|(_, name)| *name).collect();
    if targets.is_empty() {
        return;
    }
    let code = &f.code;
    for fun in functions(code) {
        if !targets.contains(&fun.name.as_str()) {
            continue;
        }
        let mut revoke_at: Option<usize> = None;
        let mut mutation: Option<(usize, String)> = None;
        for i in fun.body.0..fun.body.1 {
            if code[i].test {
                continue;
            }
            if code[i].is("leases")
                && seq(code, i + 1, &["."])
                && code.get(i + 2).is_some_and(|t| t.is("remove") || t.is("clear"))
            {
                revoke_at.get_or_insert(i);
            }
            if MUTATION_RECEIVERS.contains(&code[i].text.as_str())
                && seq(code, i + 1, &["."])
                && code.get(i + 2).is_some_and(|t| MUTATION_METHODS.contains(&t.text.as_str()))
                && mutation.is_none()
            {
                mutation = Some((i, format!("{}.{}", code[i].text, code[i + 2].text)));
            }
        }
        match (revoke_at, &mutation) {
            (None, _) => out.push(Finding::new(
                "lease-discipline",
                &f.path,
                fun.line,
                format!(
                    "`{}` is a registered lease invalidator but never revokes (`leases.remove`/`leases.clear`)",
                    fun.name
                ),
            )),
            (Some(r), Some((m, what))) if *m < r => out.push(Finding::new(
                "lease-discipline",
                &f.path,
                code[*m].line,
                format!(
                    "`{}` mutates state (`{}`) before revoking the lease — a racing leased read can validate against the mutated state",
                    fun.name, what
                ),
            )),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: one-clock.

const CLOCK_SCOPES: &[&str] = &[
    "crates/core/src/",
    "crates/isis/src/",
    "crates/net/src/",
    "crates/nfs/src/",
    "crates/runtime/src/",
    "crates/storage/src/",
];

const CLOCK_READS: &[(&[&str], &str)] = &[
    (&["Instant", ":", ":", "now"], "Instant::now"),
    (&["SystemTime", ":", ":", "now"], "SystemTime::now"),
    (&[".", "elapsed", "("], ".elapsed()"),
];

/// Product code reads the wall clock through `deceit_sim::wall`, which
/// counts every read; a direct read is invisible to the count.
fn rule_one_clock(fi: usize, facts: &Facts, out: &mut Vec<Finding>) {
    let f = &facts.files[fi];
    if !CLOCK_SCOPES.iter().any(|p| f.path.starts_with(p)) {
        return;
    }
    for (i, t) in f.code.iter().enumerate().filter(|(_, t)| !t.test) {
        if let Some((_, read)) = CLOCK_READS.iter().find(|(pat, _)| seq(&f.code, i, pat)) {
            let msg = format!("`{read}` reads the wall clock uncounted — use `deceit_sim::wall`");
            out.push(Finding::new("one-clock", &f.path, t.line, msg));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 6: ordering-audit (declaration-tracked).

/// Files that are counter/histogram modules wholesale: every atomic
/// *declared* in them is a monotone tally or epoch-decayed gauge, and
/// every *use* in them is reporting. Both directions are exempt.
const COUNTER_FILES: &[&str] = &["obs.rs", "placement.rs", "stats.rs"];

/// Atomic declarations outside the counter files whose Relaxed use is
/// correct by design: tallies, size gauges, and unique-id allocators.
/// Readers tolerate staleness and never use the value to justify
/// touching other shared state. Keyed by declaration (`Type::field` or
/// static name) — renaming a receiver cannot dodge this list, and
/// moving a declaration here requires editing the linter in review.
const DECL_ALLOWLIST: &[&str] = &[
    // Protocol-time machinery on `Cluster`: the advisory protocol
    // clock (monotone via `fetch_max`/`fetch_add`; protocol ordering
    // comes from message delivery, not from reads of this value) and
    // two ID allocators (uniqueness needs only RMW atomicity).
    "Cluster::clock",
    "Cluster::next_segment",
    "Cluster::next_major",
    // Load-accounting tally bumped on every served op.
    "ServerState::ops_served",
    // Deferred-work queue internals: a sequence allocator and an
    // advisory length gauge (the authoritative queue state is behind
    // the slot mutexes; a stale `len` costs one wasted probe).
    "ShardedEvents::seq",
    "ShardedEvents::len",
    // Consistency-auditor sequence allocator.
    "HistoryRecorder::seq",
    // Lock-level telemetry on the sharded engine: pure counters, read
    // only by observability snapshots that tolerate staleness.
    "EngineObs::shared_acquisitions",
    "EngineObs::exclusive_acquisitions",
    // Runtime tallies (per server, per serve rung) and the client-ID
    // allocator.
    "Tally::served",
    "Tally::dropped_while_crashed",
    "ClusterRuntime::next_client",
    // Net bus delivery tallies and the RPC incarnation allocator.
    "BusInner::delivered",
    "BusInner::rejected",
    "BusInner::dropped_stale",
    "BusInner::wakes",
    "BusInner::yields",
    "NEXT_INCARNATION",
];

const ORDERING_SCOPES: &[&str] = &[
    "crates/core/src/",
    "crates/runtime/src/",
    "crates/nfs/src/",
    "crates/net/src/",
    "crates/isis/src/",
];

/// The file `DECL_ALLOWLIST` is written in.
const ALLOWLIST_FILE: &str = "crates/lint/src/rules.rs";

fn rule_ordering_audit(fi: usize, facts: &Facts, out: &mut Vec<Finding>) {
    let f = &facts.files[fi];
    if f.path == ALLOWLIST_FILE {
        stale_allowlist_entries(f, facts, out);
        return;
    }
    if !ORDERING_SCOPES.iter().any(|p| f.path.starts_with(p)) {
        return;
    }
    let file_name = f.path.rsplit('/').next().unwrap_or(&f.path);
    if COUNTER_FILES.contains(&file_name) {
        return; // reporting module: reads everything, publishes nothing
    }
    for site in crate::decl::relaxed_sites(&facts.items, &facts.files, &facts.decls, fi) {
        let (allowed, what) = match site.decl {
            Some(d) => {
                let decl = &facts.decls.decls[d];
                let decl_file = decl.file.rsplit('/').next().unwrap_or(&decl.file);
                let allowed = COUNTER_FILES.contains(&decl_file)
                    || DECL_ALLOWLIST.contains(&decl.key.as_str());
                (allowed, format!("`{}` (declared {}:{})", decl.key, decl.file, decl.line))
            }
            None => (
                false,
                format!("`{}`, which no declaration could be resolved for", site.receiver_desc),
            ),
        };
        if allowed {
            continue;
        }
        let method = site.method.as_deref().unwrap_or("?");
        out.push(Finding::new(
            "ordering-audit",
            &f.path,
            site.line,
            format!(
                "`Ordering::Relaxed` on `{}.{}` of {} — not an allowlisted counter declaration; use Acquire/Release for published flags or waive with the staleness argument",
                site.receiver_desc, method, what
            ),
        ));
    }
}

/// An allowlist entry that names no declaration excuses nothing today,
/// and would silently excuse whatever later takes its name. The entries
/// are read from the linted source of the allowlist's own file, so each
/// finding lands on the stale line.
fn stale_allowlist_entries(f: &SourceFile, facts: &Facts, out: &mut Vec<Finding>) {
    let code = &f.code;
    let Some(start) = (0..code.len()).find(|&i| seq(code, i, &["const", "DECL_ALLOWLIST"])) else {
        return;
    };
    let entries = code[start..].iter().take_while(|t| !t.is(";"));
    for t in entries.filter(|t| t.kind == TokKind::Str) {
        let entry = t.text.trim_matches('"');
        if !facts.decls.by_key.contains_key(entry) {
            let msg = format!(
                "`DECL_ALLOWLIST` entry `{entry}` names no atomic declaration in the tree — delete it"
            );
            out.push(Finding::new("ordering-audit", &f.path, t.line, msg));
        }
    }
}
