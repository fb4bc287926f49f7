//! Declaration-tracked atomics: map each `Ordering::Relaxed` use site
//! back to the *declared* atomic field or static it operates on.
//!
//! PR 9's ordering-audit keyed its allowlist on receiver spellings
//! (`ops_served.fetch_add` passed because the ident said `ops_served`),
//! which meant a rename — `let ops_served = &self.stop_flag;` — could
//! smuggle a published flag past the audit. This pass resolves the
//! receiver chain through struct field types instead, so the allowlist
//! names declarations (`ServerState::ops_served`) and the policy
//! follows the field wherever and however it is reached. A site whose
//! declaration cannot be pinned down is reported as such — unresolved
//! is a finding, not a pass.

use crate::items::Items;
use crate::lexer::TokKind;
use crate::resolve::{chain_segments, local_types, resolve_chain, Seg};
use crate::rules::SourceFile;
use std::collections::BTreeMap;

/// One atomic declaration: a struct field (`Type::field`) or a static.
#[derive(Debug, Clone)]
pub struct AtomicDecl {
    pub key: String,
    /// Repo-relative path of the declaring file.
    pub file: String,
    pub line: u32,
    /// The atomic primitive (`AtomicU64`, …).
    pub ty: String,
}

#[derive(Debug, Default)]
pub struct Decls {
    pub decls: Vec<AtomicDecl>,
    pub by_key: BTreeMap<String, usize>,
    /// Field name → decl indices, for the unique-name fallback when the
    /// receiver prefix cannot be typed (closure params, iterators).
    pub by_field: BTreeMap<String, Vec<usize>>,
}

impl Decls {
    pub fn build(items: &Items, files: &[SourceFile]) -> Decls {
        let mut d = Decls::default();
        for (sname, s) in &items.structs {
            for (fname, field) in &s.fields {
                let Some(aty) = &field.atomic else { continue };
                let key = format!("{sname}::{fname}");
                d.by_key.insert(key.clone(), d.decls.len());
                d.by_field.entry(fname.clone()).or_default().push(d.decls.len());
                d.decls.push(AtomicDecl {
                    key,
                    file: files[s.file].path.clone(),
                    line: field.line,
                    ty: aty.clone(),
                });
            }
        }
        for (name, st) in &items.statics {
            let Some(aty) = &st.atomic else { continue };
            d.by_key.insert(name.clone(), d.decls.len());
            d.decls.push(AtomicDecl {
                key: name.clone(),
                file: files[st.file].path.clone(),
                line: st.line,
                ty: aty.clone(),
            });
        }
        d
    }
}

/// One `Ordering::Relaxed` use site, resolved as far as the facts go.
#[derive(Debug)]
pub struct RelaxedSite {
    pub line: u32,
    /// The atomic method the ordering is an argument of, when the
    /// enclosing call could be identified.
    pub method: Option<String>,
    /// Resolved declaration (index into `Decls::decls`).
    pub decl: Option<usize>,
    /// Human description of the receiver for unresolved messages.
    pub receiver_desc: String,
}

const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "fetch_min",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// All Relaxed-ordering sites in `file_idx`, with declarations
/// resolved. Both `Ordering::Relaxed` and a bare imported `Relaxed`
/// argument are recognized; a bare `Relaxed` that is not an argument of
/// an atomic method call is ignored (imports, patterns).
pub fn relaxed_sites(
    items: &Items,
    files: &[SourceFile],
    decls: &Decls,
    file_idx: usize,
) -> Vec<RelaxedSite> {
    let sf = &files[file_idx];
    let code = &sf.code;
    let mut out = Vec::new();
    // Per-function environments, built lazily.
    let mut envs: BTreeMap<usize, Env> = BTreeMap::new();
    let mut seen_lines = std::collections::BTreeSet::new();
    for i in 0..code.len() {
        if code[i].test || !code[i].is("Relaxed") || code[i].kind != TokKind::Ident {
            continue;
        }
        let qualified =
            i >= 3 && code[i - 1].is(":") && code[i - 2].is(":") && code[i - 3].is("Ordering");
        let arg_pos = i >= 1 && (code[i - 1].is("(") || code[i - 1].is(","));
        if !qualified && !arg_pos {
            continue;
        }
        // Walk back to the opening paren of the enclosing call and name
        // the method: `recv.method(…, Relaxed, …)`.
        let mut depth = 0i32;
        let mut k = i;
        let mut method: Option<(usize, String)> = None;
        while k > 0 {
            k -= 1;
            if code[k].is(")") {
                depth += 1;
            } else if code[k].is("(") {
                depth -= 1;
                if depth < 0 {
                    if k >= 2
                        && code[k - 1].kind == TokKind::Ident
                        && ATOMIC_METHODS.contains(&code[k - 1].text.as_str())
                        && code[k - 2].is(".")
                    {
                        method = Some((k - 1, code[k - 1].text.clone()));
                    }
                    break;
                }
            }
        }
        if method.is_none() {
            if !qualified {
                continue; // bare `Relaxed` outside an atomic call: import, pattern
            }
            // Qualified but outside any recognizable call: skip `use`
            // declarations, keep genuine unrecognized-receiver sites.
            let mut s = i;
            while s > 0 && !matches!(code[s - 1].text.as_str(), ";" | "{" | "}") {
                s -= 1;
            }
            if code[s].is("use") {
                continue;
            }
        }
        if !seen_lines.insert(code[i].line) {
            continue; // one finding per line, as before
        }
        let (decl, receiver_desc) = match &method {
            Some((midx, _)) => {
                let chain_end = midx.checked_sub(2);
                let fn_id = items.fn_of_token(file_idx, *midx);
                let env = match fn_id {
                    Some(id) => envs
                        .entry(id)
                        .or_insert_with(|| Env::build(items, files, decls, file_idx, id)),
                    None => envs.entry(usize::MAX).or_default(),
                };
                let decl =
                    chain_end.and_then(|end| resolve_decl(items, sf, fn_id, env, decls, end));
                let desc = chain_end
                    .and_then(|end| chain_desc(code, end))
                    .unwrap_or_else(|| "<expr>".to_string());
                (decl, desc)
            }
            None => (None, "an unrecognized receiver".to_string()),
        };
        out.push(RelaxedSite {
            line: code[i].line,
            method: method.map(|(_, m)| m),
            decl,
            receiver_desc,
        });
    }
    out
}

/// Per-function resolution environment: local value types plus local
/// aliases that bind a name directly to an atomic declaration
/// (`let hits = &self.obs.delivered;`).
#[derive(Default)]
struct Env {
    types: BTreeMap<String, Vec<String>>,
    decl_bindings: BTreeMap<String, usize>,
}

impl Env {
    fn build(
        items: &Items,
        files: &[SourceFile],
        decls: &Decls,
        file_idx: usize,
        fn_id: usize,
    ) -> Env {
        let sf = &files[file_idx];
        let mut env = Env { types: local_types(items, sf, fn_id), decl_bindings: BTreeMap::new() };
        let f = &items.fns[fn_id];
        let code = &sf.code;
        let mut i = f.body.0;
        while i < f.body.1 {
            if code[i].is("let") {
                let mut j = i + 1;
                if j < f.body.1 && code[j].is("mut") {
                    j += 1;
                }
                if j + 1 < f.body.1 && code[j].kind == TokKind::Ident && code[j + 1].is("=") {
                    let name = code[j].text.clone();
                    let mut depth = 0i32;
                    let mut k = j + 2;
                    while k < f.body.1 {
                        match code[k].text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            ";" if depth == 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    if k > j + 2 {
                        if let Some(decl) = resolve_decl(items, sf, Some(fn_id), &env, decls, k - 1)
                        {
                            env.decl_bindings.insert(name, decl);
                        }
                    }
                    i = k;
                    continue;
                }
            }
            i += 1;
        }
        env
    }
}

/// Resolve the receiver chain ending at `end` to an atomic declaration.
fn resolve_decl(
    items: &Items,
    sf: &SourceFile,
    fn_id: Option<usize>,
    env: &Env,
    decls: &Decls,
    end: usize,
) -> Option<usize> {
    let mut segs = chain_segments(&sf.code, end)?;
    // `counters[i].fetch_add(…)`: the indexed element carries the same
    // declaration as the field.
    while segs.last() == Some(&Seg::Index) {
        segs.pop();
    }
    match segs.as_slice() {
        [prefix @ .., Seg::Field(name)] => {
            if let Some(id) = fn_id {
                if let Some(ty) = resolve_chain(items, id, &env.types, prefix) {
                    if let Some(field) = items.field(&ty, name) {
                        if field.atomic.is_some() {
                            return decls.by_key.get(&format!("{ty}::{name}")).copied();
                        }
                    }
                }
            }
            // Untypeable prefix (closure param, iterator item): a field
            // name that names exactly one atomic declaration in the
            // whole workspace is still unambiguous.
            match decls.by_field.get(name.as_str()).map(Vec::as_slice) {
                Some([one]) => Some(*one),
                _ => None,
            }
        }
        [Seg::Start(name)] => {
            if let Some(&d) = env.decl_bindings.get(name) {
                return Some(d);
            }
            decls.by_key.get(name).copied().filter(|_| items.statics.contains_key(name))
        }
        _ => None,
    }
}

/// Render the chain for messages: `self.obs.delivered` → that text.
fn chain_desc(code: &[crate::lexer::Tok], end: usize) -> Option<String> {
    let segs = chain_segments(code, end)?;
    let mut s = String::new();
    for seg in &segs {
        match seg {
            Seg::SelfStart => s.push_str("self"),
            Seg::Start(n) => s.push_str(n),
            Seg::StartCall(n) => {
                s.push_str(n);
                s.push_str("(…)");
            }
            Seg::PathCall(a, b) => {
                s.push_str(&format!("{a}::{b}(…)"));
            }
            Seg::Field(n) => {
                s.push('.');
                s.push_str(n);
            }
            Seg::MethodCall(n) => {
                s.push('.');
                s.push_str(n);
                s.push_str("(…)");
            }
            Seg::Index => s.push_str("[…]"),
        }
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(src: &str) -> (Items, Vec<SourceFile>, Decls) {
        let files = vec![SourceFile::new("crates/core/src/cluster.rs", src)];
        let items = Items::build(&files);
        let decls = Decls::build(&items, &files);
        (items, files, decls)
    }

    #[test]
    fn field_site_resolves_to_declaration() {
        let src = "pub struct Obs { hits: AtomicU64 }\n\
                   impl Obs {\n    fn bump(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n}\n";
        let (items, files, decls) = setup(src);
        let sites = relaxed_sites(&items, &files, &decls, 0);
        assert_eq!(sites.len(), 1);
        let d = sites[0].decl.expect("resolved");
        assert_eq!(decls.decls[d].key, "Obs::hits");
        assert_eq!(sites[0].method.as_deref(), Some("fetch_add"));
    }

    #[test]
    fn renamed_local_binding_still_resolves_to_declaration() {
        let src = "pub struct S { stop_flag: AtomicBool, ops_served: AtomicU64 }\n\
                   impl S {\n    fn sneak(&self) {\n        let ops_served = &self.stop_flag;\n        ops_served.store(true, Ordering::Relaxed);\n    }\n}\n";
        let (items, files, decls) = setup(src);
        let sites = relaxed_sites(&items, &files, &decls, 0);
        assert_eq!(sites.len(), 1);
        let d = sites[0].decl.expect("binding resolved through the rename");
        assert_eq!(decls.decls[d].key, "S::stop_flag");
    }

    #[test]
    fn unique_field_fallback_covers_untyped_prefixes() {
        let src = "pub struct Obs { lease_failures: AtomicU64 }\n\
                   fn sum(list: Vec<Wrapper>) -> u64 {\n    list.iter().map(|o| o.lease_failures.load(Ordering::Relaxed)).sum()\n}\n";
        let (items, files, decls) = setup(src);
        let sites = relaxed_sites(&items, &files, &decls, 0);
        assert_eq!(sites.len(), 1);
        let d = sites[0].decl.expect("unique field name resolved");
        assert_eq!(decls.decls[d].key, "Obs::lease_failures");
    }

    #[test]
    fn bare_parameter_atomics_stay_unresolved() {
        let src = "fn f(flag: &AtomicBool) { flag.store(true, Ordering::Relaxed); }\n";
        let (items, files, decls) = setup(src);
        let sites = relaxed_sites(&items, &files, &decls, 0);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].decl.is_none());
        assert_eq!(sites[0].receiver_desc, "flag");
    }

    #[test]
    fn statics_resolve_by_name() {
        let src = "static NEXT: AtomicU64 = AtomicU64::new(1);\n\
                   fn alloc() -> u64 { NEXT.fetch_add(1, Ordering::Relaxed) }\n";
        let (items, files, decls) = setup(src);
        let sites = relaxed_sites(&items, &files, &decls, 0);
        assert_eq!(sites.len(), 1);
        assert_eq!(decls.decls[sites[0].decl.unwrap()].key, "NEXT");
    }

    #[test]
    fn bare_imported_relaxed_is_recognized_in_calls_only() {
        let src = "use std::sync::atomic::Ordering::Relaxed;\n\
                   pub struct Obs { hits: AtomicU64 }\n\
                   impl Obs {\n    fn bump(&self) { self.hits.fetch_add(1, Relaxed); }\n}\n";
        let (items, files, decls) = setup(src);
        let sites = relaxed_sites(&items, &files, &decls, 0);
        // The `use` line is ignored; the call argument is found.
        assert_eq!(sites.len(), 1);
        assert_eq!(decls.decls[sites[0].decl.unwrap()].key, "Obs::hits");
    }
}
