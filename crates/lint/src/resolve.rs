//! Receiver-type resolution for the atomic-declaration pass: a receiver
//! chain (`self.obs.delivered`, `let e = &self.engine; e.hits`) is
//! resolved link by link through parameter and `let` types, struct
//! fields and method return types, to the workspace type it ends on.
//!
//! Resolution is deliberately conservative: a link resolves only when
//! it can be pinned to one workspace declaration — a field of a
//! resolved type, a method of a resolved type, a `Type::method` path, a
//! same-file bare call, or a workspace-unique name that no std type also
//! uses. Anything else resolves to nothing rather than to a guess.

use crate::items::{base_type, Items};
use crate::lexer::{Tok, TokKind};
use crate::rules::SourceFile;
use std::collections::BTreeMap;

/// Names std types and functions also use. A bare call with one of these
/// names is never matched by the workspace-unique-name fallback — a
/// `take(…)` or `replace(…)` from std must not take the return type of
/// the one workspace function so named — it must resolve in its own file.
const STD_METHODS: &[&str] = &[
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
    "lock",
    "read",
    "write",
    "try_lock",
    "try_read",
    "try_write",
    "clone",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "and_then",
    "then",
    "filter",
    "collect",
    "extend",
    "contains",
    "contains_key",
    "entry",
    "or_default",
    "or_insert",
    "or_insert_with",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "unwrap_err",
    "expect",
    "take",
    "replace",
    "min",
    "max",
    "abs",
    "drain",
    "clear",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "retain",
    "split",
    "join",
    "send",
    "recv",
    "try_recv",
    "spawn",
    "new",
    "default",
    "from",
    "into",
    "to_string",
    "to_vec",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "as_bytes",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "drop",
    "deref",
    "index",
    "first",
    "last",
    "position",
    "find",
    "any",
    "all",
    "fold",
    "sum",
    "count",
    "rev",
    "enumerate",
    "zip",
    "flat_map",
    "flatten",
    "copied",
    "cloned",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "starts_with",
    "ends_with",
    "trim",
    "parse",
    "chars",
    "bytes",
    "to_owned",
    "borrow",
    "borrow_mut",
    "try_into",
    "try_from",
    "with_capacity",
    "reserve",
    "resize",
    "truncate",
    "swap_remove",
    "dedup",
    "fill",
    "windows",
    "chunks",
    "binary_search",
    "binary_search_by",
    "wrapping_add",
    "saturating_sub",
    "saturating_add",
    "checked_sub",
    "checked_add",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "skip",
    "step_by",
    "elapsed",
    "push_str",
    "repeat",
];

/// A receiver chain decomposed into forward-order segments:
/// `self.obs.slots[i].sharded` → `[SelfStart, Field(obs), Field(slots),
/// Index, Field(sharded)]`.
#[derive(Debug, Clone, PartialEq)]
pub enum Seg {
    SelfStart,
    Start(String),
    /// `name(...)` at the head of the chain: a bare function call.
    StartCall(String),
    /// `A::name(...)` at the head of the chain.
    PathCall(String, String),
    Field(String),
    MethodCall(String),
    Index,
}

/// Walk a receiver chain backward from `end` (the last token of the
/// receiver expression) and return its segments in forward order.
/// Returns `None` for expressions this shallow parse cannot follow
/// (parenthesized subexpressions, literals, operator results).
pub fn chain_segments(code: &[Tok], end: usize) -> Option<Vec<Seg>> {
    let mut rev: Vec<Seg> = Vec::new();
    let mut i = end as isize;
    loop {
        if i < 0 {
            return None;
        }
        let t = &code[i as usize];
        if t.is("]") {
            // Index back to its `[`.
            let mut depth = 0i32;
            while i >= 0 {
                if code[i as usize].is("]") {
                    depth += 1;
                } else if code[i as usize].is("[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                i -= 1;
            }
            if i < 0 {
                return None;
            }
            rev.push(Seg::Index);
            i -= 1; // token before `[` continues the chain directly
            continue;
        } else if t.is(")") {
            let mut depth = 0i32;
            while i >= 0 {
                if code[i as usize].is(")") {
                    depth += 1;
                } else if code[i as usize].is("(") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                i -= 1;
            }
            if i <= 0 {
                return None;
            }
            let name = &code[(i - 1) as usize];
            if name.kind != TokKind::Ident {
                return None; // parenthesized expression, tuple, etc.
            }
            let before = if i >= 2 { Some(&code[(i - 2) as usize]) } else { None };
            match before.map(|t| t.text.as_str()) {
                Some(".") => {
                    rev.push(Seg::MethodCall(name.text.clone()));
                    i -= 3;
                    continue;
                }
                Some(":") if i >= 4 && code[(i - 3) as usize].is(":") => {
                    let ty = &code[(i - 4) as usize];
                    if ty.kind != TokKind::Ident {
                        return None;
                    }
                    rev.push(Seg::PathCall(ty.text.clone(), name.text.clone()));
                    break;
                }
                _ => {
                    rev.push(Seg::StartCall(name.text.clone()));
                    break;
                }
            }
        } else if t.kind == TokKind::Ident {
            let before = if i >= 1 { Some(&code[(i - 1) as usize]) } else { None };
            match before.map(|t| t.text.as_str()) {
                Some(".") => {
                    rev.push(Seg::Field(t.text.clone()));
                    i -= 2;
                    continue;
                }
                _ => {
                    if t.is("self") {
                        rev.push(Seg::SelfStart);
                    } else {
                        rev.push(Seg::Start(t.text.clone()));
                    }
                    break;
                }
            }
        } else {
            return None;
        }
    }
    rev.reverse();
    Some(rev)
}

/// Per-function name environment: parameter and `let`-binding types.
pub fn local_types(items: &Items, sf: &SourceFile, fn_id: usize) -> BTreeMap<String, Vec<String>> {
    let f = &items.fns[fn_id];
    let mut env: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for p in &f.params {
        env.insert(p.name.clone(), p.ty.clone());
    }
    let code = &sf.code;
    let mut i = f.body.0;
    while i < f.body.1 {
        if code[i].is("let") {
            let mut j = i + 1;
            if j < f.body.1 && code[j].is("mut") {
                j += 1;
            }
            if j < f.body.1 && code[j].kind == TokKind::Ident {
                let name = code[j].text.clone();
                let after = code.get(j + 1).map(|t| t.text.as_str());
                if after == Some(":") && !code.get(j + 2).is_some_and(|t| t.is(":")) {
                    // Annotated: `let x: Type = …`.
                    let mut ty = Vec::new();
                    let mut k = j + 2;
                    while k < f.body.1 && !code[k].is("=") && !code[k].is(";") {
                        if code[k].kind == TokKind::Ident {
                            ty.push(code[k].text.clone());
                        }
                        k += 1;
                    }
                    env.insert(name, ty);
                    i = k;
                    continue;
                } else if after == Some("=") && !code.get(j + 2).is_some_and(|t| t.is("=")) {
                    // `let x = <chain>;` — resolve the RHS chain type.
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
                    if k > j + 2 && k < f.body.1 {
                        if let Some(segs) = chain_segments(code, k - 1) {
                            if let Some(ty) = resolve_chain(items, fn_id, &env, &segs) {
                                env.insert(name, vec![ty]);
                            }
                        }
                    }
                    i = k;
                    continue;
                }
            }
        }
        i += 1;
    }
    env
}

/// Resolve a chain's value type to a base type name using the item
/// facts. Returns `None` whenever any link is uncertain.
pub fn resolve_chain(
    items: &Items,
    fn_id: usize,
    env: &BTreeMap<String, Vec<String>>,
    segs: &[Seg],
) -> Option<String> {
    let file = items.fns[fn_id].file;
    let mut ty: Option<String> = None;
    for seg in segs {
        ty = match seg {
            Seg::SelfStart => items.fns[fn_id].impl_type.clone(),
            Seg::Start(name) => {
                if let Some(t) = env.get(name) {
                    base_type(t).map(str::to_string)
                } else if items.statics.contains_key(name) {
                    Some(name.clone())
                } else {
                    None
                }
            }
            Seg::StartCall(name) => fn_ret_type(items, file, name),
            Seg::PathCall(owner, name) => {
                let owner = resolve_type_name(items, file, owner, fn_id)?;
                method_ret_type(items, &owner, name)
            }
            Seg::Field(name) => {
                let cur = ty?;
                base_type(&items.field(&cur, name)?.ty).map(str::to_string)
            }
            Seg::MethodCall(name) => {
                let cur = ty?;
                method_ret_type(items, &cur, name)
            }
            Seg::Index => ty, // element type: wrappers were already stripped
        };
        if ty.is_none() && !matches!(seg, Seg::Index) {
            return None;
        }
    }
    ty
}

/// `Self`, a `use` alias, or a plain struct name.
fn resolve_type_name(items: &Items, file: usize, name: &str, fn_id: usize) -> Option<String> {
    if name == "Self" {
        return items.fns[fn_id].impl_type.clone();
    }
    if items.structs.contains_key(name) {
        return Some(name.to_string());
    }
    if let Some(path) = items.aliases.get(file).and_then(|a| a.get(name)) {
        if let Some(last) = path.last() {
            if items.structs.contains_key(last) {
                return Some(last.clone());
            }
        }
    }
    Some(name.to_string())
}

fn method_ret_type(items: &Items, ty: &str, name: &str) -> Option<String> {
    let ids = items.by_type_method.get(&(ty.to_string(), name.to_string()))?;
    if ids.len() != 1 {
        return None;
    }
    base_type(&items.fns[ids[0]].ret).map(str::to_string)
}

fn fn_ret_type(items: &Items, file: usize, name: &str) -> Option<String> {
    let ids = items.by_name.get(name)?;
    let same_file: Vec<&usize> = ids.iter().filter(|&&id| items.fns[id].file == file).collect();
    let id = match same_file.as_slice() {
        [one] => **one,
        [] if ids.len() == 1 && !STD_METHODS.contains(&name) => ids[0],
        _ => return None,
    };
    base_type(&items.fns[id].ret).map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The type `resolve_chain` gives the receiver of the last call to
    /// `method` in `src`.
    fn receiver_type(src: &str, method: &str) -> Option<String> {
        let files = vec![SourceFile::new("crates/x/src/a.rs", src)];
        let items = Items::build(&files);
        let sf = &files[0];
        let at = sf.code.iter().rposition(|t| t.is(method))?;
        let fn_id = items.fn_of_token(0, at)?;
        let env = local_types(&items, sf, fn_id);
        let segs = chain_segments(&sf.code, at - 2)?;
        resolve_chain(&items, fn_id, &env, &segs)
    }

    #[test]
    fn method_call_resolves_via_receiver_type() {
        let src = "pub struct Engine { n: u32 }\n\
                   pub struct Holder { engine: Arc<Engine> }\n\
                   impl Engine {\n    fn tick(&self) {}\n}\n\
                   impl Holder {\n    fn go(&self) { self.engine.tick(); }\n}\n";
        assert_eq!(receiver_type(src, "tick").as_deref(), Some("Engine"));
    }

    #[test]
    fn let_binding_types_flow_into_resolution() {
        let src = "pub struct Engine { n: u32 }\n\
                   pub struct Holder { engine: Box<Engine> }\n\
                   impl Engine {\n    fn tick(&self) {}\n}\n\
                   impl Holder {\n    fn go(&self) {\n        let e = &self.engine;\n        e.tick();\n    }\n}\n";
        assert_eq!(receiver_type(src, "tick").as_deref(), Some("Engine"));
    }
}
