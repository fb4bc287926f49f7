//! The item-level parse layer: per-file function / impl / struct /
//! static / `use` extraction over the lexer's token stream.
//!
//! This is the facts layer's foundation. The token-stream rules of PR 9
//! saw one flat stream per file; declaration-tracked atomics need to
//! know *which function* a token lives in, *which type* that function
//! is implemented on, and *what fields* the workspace's structs
//! declare. The parse here is deliberately shallow (no expressions, no
//! trait solving): item heads, body token ranges, field types as ident
//! sequences, and `use` aliases good enough for intra-workspace paths.

use crate::lexer::TokKind;
use crate::rules::SourceFile;
use std::collections::BTreeMap;

/// Atomic primitive type names a field/static declaration can carry.
pub const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// Container/smart-pointer idents stripped when reducing a type's ident
/// sequence to the workspace type it wraps (`Arc<BusInner>` → `BusInner`,
/// `Box<[Tally]>` → `Tally`).
const TYPE_WRAPPERS: &[&str] = &[
    "Arc",
    "Rc",
    "Box",
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "Option",
    "Result",
    "Vec",
    "VecDeque",
    "std",
    "sync",
    "collections",
    "parking_lot",
    "alloc",
    "dyn",
];

/// Reduce a type's ident sequence to its interesting base ident.
pub fn base_type(idents: &[String]) -> Option<&str> {
    idents.iter().map(String::as_str).find(|s| !TYPE_WRAPPERS.contains(s))
}

/// One function parameter: a single-ident pattern and its type idents.
#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    pub ty: Vec<String>,
}

/// One function with a body.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub file: usize,
    pub name: String,
    /// Base type name of the enclosing `impl` (or `trait`) block.
    pub impl_type: Option<String>,
    pub line: u32,
    /// Code-token index range of the body, exclusive of its braces.
    pub body: (usize, usize),
    pub params: Vec<Param>,
    /// Idents of the return type, in source order (empty: no `->`).
    pub ret: Vec<String>,
}

/// One named struct field.
#[derive(Debug, Clone)]
pub struct FieldItem {
    pub ty: Vec<String>,
    pub line: u32,
    /// `Some(atomic type)` when the field declares an atomic (possibly
    /// behind `Box<[…]>`-style containers).
    pub atomic: Option<String>,
}

#[derive(Debug, Clone)]
pub struct StructItem {
    pub file: usize,
    pub line: u32,
    pub fields: BTreeMap<String, FieldItem>,
}

#[derive(Debug, Clone)]
pub struct StaticItem {
    pub file: usize,
    pub line: u32,
    pub atomic: Option<String>,
}

/// Everything the item pass learned about the workspace.
#[derive(Debug, Default)]
pub struct Items {
    pub fns: Vec<FnItem>,
    /// Struct name → declaration. On a workspace-wide name collision the
    /// first declaration wins; field lookups stay deterministic because
    /// files are scanned in sorted order.
    pub structs: BTreeMap<String, StructItem>,
    pub statics: BTreeMap<String, StaticItem>,
    /// Per-file `use` aliases: local name → full path segments.
    pub aliases: Vec<BTreeMap<String, Vec<String>>>,
    /// Function name → fn ids (bodied functions only).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// (impl type, method name) → fn ids.
    pub by_type_method: BTreeMap<(String, String), Vec<usize>>,
    /// Per-file fn ids sorted by body start, for innermost-fn lookup.
    per_file_fns: Vec<Vec<usize>>,
}

impl Items {
    pub fn build(files: &[SourceFile]) -> Items {
        let mut items = Items { aliases: vec![BTreeMap::new(); files.len()], ..Items::default() };
        items.per_file_fns = vec![Vec::new(); files.len()];
        for (fi, sf) in files.iter().enumerate() {
            scan_file(fi, sf, &mut items);
        }
        for (id, f) in items.fns.iter().enumerate() {
            items.by_name.entry(f.name.clone()).or_default().push(id);
            if let Some(t) = &f.impl_type {
                items.by_type_method.entry((t.clone(), f.name.clone())).or_default().push(id);
            }
            items.per_file_fns[f.file].push(id);
        }
        for ids in &mut items.per_file_fns {
            ids.sort_by_key(|&id| items.fns[id].body.0);
        }
        items
    }

    /// The innermost function whose body contains code-token `idx`.
    pub fn fn_of_token(&self, file: usize, idx: usize) -> Option<usize> {
        self.per_file_fns
            .get(file)?
            .iter()
            .copied()
            .filter(|&id| {
                let (a, b) = self.fns[id].body;
                a <= idx && idx < b
            })
            .min_by_key(|&id| {
                let (a, b) = self.fns[id].body;
                b - a
            })
    }

    /// Field lookup on a struct by base type name.
    pub fn field(&self, ty: &str, field: &str) -> Option<&FieldItem> {
        self.structs.get(ty)?.fields.get(field)
    }
}

/// Skip a balanced `<…>` group starting at `i` (which must be `<`);
/// returns the index just past the matching `>`.
fn skip_angles(code: &[crate::lexer::Tok], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < code.len() {
        match code[i].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            // `(`, `;`, `{` in an angle scan mean we misparsed (e.g. a
            // less-than in an expression); bail without consuming.
            ";" | "{" => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Find the index of the brace matching `open` (which must be `{`).
fn match_brace(code: &[crate::lexer::Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < code.len() {
        if code[i].is("{") {
            depth += 1;
        } else if code[i].is("}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    code.len() - 1
}

fn scan_file(fi: usize, sf: &SourceFile, items: &mut Items) {
    let code = &sf.code;
    // Pre-pass: impl/trait regions, so functions pick up their type.
    let mut regions: Vec<(usize, usize, String)> = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let t = &code[i];
        if (t.is("impl") || t.is("trait")) && t.kind == TokKind::Ident {
            // Item-position only: `impl Trait` in a type position
            // (params, returns, bounds) follows `:`/`(`/`,`/`+`/`=`/`>`
            // — an impl/trait *item* follows a statement boundary, an
            // attribute's `]`, or `unsafe`/`pub`.
            let item_pos = matches!(
                i.checked_sub(1).map(|k| code[k].text.as_str()),
                None | Some("{" | "}" | ";" | "]" | "unsafe" | "pub")
            );
            if !item_pos {
                i += 1;
                continue;
            }
            let is_trait = t.is("trait");
            let mut j = i + 1;
            if j < code.len() && code[j].is("<") {
                j = skip_angles(code, j);
            }
            let mut name: Option<String> = None;
            let mut angle = 0i32;
            while j < code.len() {
                let u = &code[j];
                match u.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "{" if angle <= 0 => break,
                    ";" => break, // `trait X: Y;`-style or misparse
                    "for" if angle <= 0 && !is_trait => name = None,
                    "where" if angle <= 0 => {
                        // Skip the where-clause; the body `{` follows.
                        while j < code.len() && !code[j].is("{") {
                            j += 1;
                        }
                        break;
                    }
                    _ => {
                        if u.kind == TokKind::Ident && angle <= 0 && name.is_none() {
                            name = Some(u.text.clone());
                        }
                    }
                }
                j += 1;
            }
            if j < code.len() && code[j].is("{") {
                let close = match_brace(code, j);
                if let Some(name) = name {
                    regions.push((j, close, name));
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    let impl_of = |idx: usize| -> Option<String> {
        regions
            .iter()
            .filter(|&&(a, b, _)| a < idx && idx < b)
            .min_by_key(|&&(a, b, _)| b - a)
            .map(|(_, _, n)| n.clone())
    };

    let mut i = 0usize;
    while i < code.len() {
        match code[i].text.as_str() {
            "fn" => {
                if let Some((item, next)) = parse_fn(fi, code, i, &impl_of) {
                    i = next;
                    items.fns.push(item);
                    continue;
                }
            }
            "struct" => {
                if let Some(next) = parse_struct(fi, code, i, items) {
                    i = next;
                    continue;
                }
            }
            "static" => {
                if let Some(next) = parse_static(fi, code, i, items) {
                    i = next;
                    continue;
                }
            }
            "use" => {
                if let Some(next) = parse_use(fi, code, i, items) {
                    i = next;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
}

fn parse_fn(
    fi: usize,
    code: &[crate::lexer::Tok],
    at: usize,
    impl_of: &dyn Fn(usize) -> Option<String>,
) -> Option<(FnItem, usize)> {
    let name_tok = code.get(at + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None; // `fn(` pointer type
    }
    let name = name_tok.text.clone();
    let line = code[at].line;
    let mut j = at + 2;
    if j < code.len() && code[j].is("<") {
        j = skip_angles(code, j);
    }
    if j >= code.len() || !code[j].is("(") {
        return None;
    }
    // Parameter list: split on top-level commas.
    let open_paren = j;
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut params: Vec<Param> = Vec::new();
    let mut seg: Vec<usize> = Vec::new();
    let close_paren;
    loop {
        if j >= code.len() {
            return None;
        }
        match code[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    if !seg.is_empty() {
                        params.extend(parse_param(code, &seg));
                    }
                    close_paren = j;
                    break;
                }
            }
            "<" => angle += 1,
            ">" => angle -= 1,
            "," if depth == 1 && angle == 0 => {
                params.extend(parse_param(code, &seg));
                seg.clear();
                j += 1;
                continue;
            }
            _ => {}
        }
        if !(depth == 1 && code[j].is("(") && j == open_paren) && depth >= 1 {
            seg.push(j);
        }
        j += 1;
    }
    // Return type.
    let mut ret: Vec<String> = Vec::new();
    let mut k = close_paren + 1;
    if k + 1 < code.len() && code[k].is("-") && code[k + 1].is(">") {
        k += 2;
        let mut angle = 0i32;
        let mut depth = 0i32;
        while k < code.len() {
            match code[k].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if angle <= 0 && depth == 0 => break,
                ";" if depth == 0 => break,
                "where" if angle <= 0 && depth == 0 => break,
                _ => {
                    if code[k].kind == TokKind::Ident {
                        ret.push(code[k].text.clone());
                    }
                }
            }
            k += 1;
        }
    }
    // Where clause / trailing tokens up to the body or `;`.
    while k < code.len() && !code[k].is("{") && !code[k].is(";") {
        k += 1;
    }
    if k >= code.len() || code[k].is(";") {
        return None; // trait method declaration: no body to analyze
    }
    let close = match_brace(code, k);
    let item = FnItem {
        file: fi,
        name,
        impl_type: impl_of(k + 1),
        line,
        body: (k + 1, close),
        params,
        ret,
    };
    Some((item, k + 1))
}

/// Parse one parameter segment (token indices between commas). Only
/// single-ident patterns produce a named param; `self` produces none.
fn parse_param(code: &[crate::lexer::Tok], seg: &[usize]) -> Option<Param> {
    // Find the top-level `:` separating pattern from type.
    let mut depth = 0i32;
    let mut colon = None;
    for (k, &idx) in seg.iter().enumerate() {
        match code[idx].text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            ":" if depth == 0 => {
                // Skip `::` path separators.
                let prev_colon = k > 0 && code[seg[k - 1]].is(":");
                let next_colon = k + 1 < seg.len() && code[seg[k + 1]].is(":");
                if !prev_colon && !next_colon {
                    colon = Some(k);
                    break;
                }
            }
            _ => {}
        }
    }
    let colon = colon?;
    // Pattern: the last ident before the colon (skips `mut`).
    let name = seg[..colon]
        .iter()
        .rev()
        .map(|&idx| &code[idx])
        .find(|t| t.kind == TokKind::Ident && !t.is("mut"))?
        .text
        .clone();
    if name == "self" {
        return None;
    }
    let ty: Vec<String> = seg[colon + 1..]
        .iter()
        .map(|&idx| &code[idx])
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .collect();
    Some(Param { name, ty })
}

fn parse_struct(
    fi: usize,
    code: &[crate::lexer::Tok],
    at: usize,
    items: &mut Items,
) -> Option<usize> {
    let name_tok = code.get(at + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    let line = code[at].line;
    let mut j = at + 2;
    if j < code.len() && code[j].is("<") {
        j = skip_angles(code, j);
    }
    // Skip a where clause.
    while j < code.len() && !code[j].is("{") && !code[j].is("(") && !code[j].is(";") {
        j += 1;
    }
    let mut fields = BTreeMap::new();
    let mut end = j + 1;
    if j < code.len() && code[j].is("{") {
        let close = match_brace(code, j);
        let mut k = j + 1;
        let mut depth = 1i32; // brace depth relative to the struct body
        while k < close {
            match code[k].text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                ":" if depth == 1 => {
                    let prev_ident = k > j + 1
                        && code[k - 1].kind == TokKind::Ident
                        && !code[k - 1].is(":")
                        && !(k >= 2 && code[k - 2].is(":"));
                    let next_colon = k + 1 < close && code[k + 1].is(":");
                    if prev_ident && !next_colon {
                        let fname = code[k - 1].text.clone();
                        let fline = code[k - 1].line;
                        // Type: tokens until the next comma at depth 1.
                        let mut ty = Vec::new();
                        let mut m = k + 1;
                        let mut d = 0i32;
                        let mut angle = 0i32;
                        while m < close {
                            match code[m].text.as_str() {
                                "(" | "[" | "{" => d += 1,
                                ")" | "]" | "}" => d -= 1,
                                "<" => angle += 1,
                                ">" => angle -= 1,
                                "," if d == 0 && angle <= 0 => break,
                                _ => {
                                    if code[m].kind == TokKind::Ident {
                                        ty.push(code[m].text.clone());
                                    }
                                }
                            }
                            m += 1;
                        }
                        let atomic =
                            ty.iter().find(|s| ATOMIC_TYPES.contains(&s.as_str())).cloned();
                        fields.insert(fname, FieldItem { ty, line: fline, atomic });
                        k = m;
                        continue;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        end = close + 1;
    } else if j < code.len() && code[j].is("(") {
        // Tuple struct: skip to the terminating `;`.
        let mut k = j;
        let mut depth = 0i32;
        while k < code.len() {
            match code[k].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        end = k + 1;
    }
    items.structs.entry(name).or_insert(StructItem { file: fi, line, fields });
    Some(end)
}

fn parse_static(
    fi: usize,
    code: &[crate::lexer::Tok],
    at: usize,
    items: &mut Items,
) -> Option<usize> {
    let mut j = at + 1;
    if j < code.len() && code[j].is("mut") {
        j += 1;
    }
    let name_tok = code.get(j)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    let line = name_tok.line;
    let mut ty = Vec::new();
    let mut k = j + 1;
    if k < code.len() && code[k].is(":") {
        k += 1;
        while k < code.len() && !code[k].is("=") && !code[k].is(";") {
            if code[k].kind == TokKind::Ident {
                ty.push(code[k].text.clone());
            }
            k += 1;
        }
    }
    let atomic = ty.iter().find(|s| ATOMIC_TYPES.contains(&s.as_str())).cloned();
    items.statics.entry(name).or_insert(StaticItem { file: fi, line, atomic });
    Some(k)
}

fn parse_use(fi: usize, code: &[crate::lexer::Tok], at: usize, items: &mut Items) -> Option<usize> {
    // Collect the whole `use …;` token range.
    let mut end = at + 1;
    while end < code.len() && !code[end].is(";") {
        end += 1;
    }
    let toks = &code[at + 1..end];
    // Split base path from a `{…}` group.
    let mut base: Vec<String> = Vec::new();
    let mut k = 0usize;
    while k < toks.len() {
        let t = &toks[k];
        if t.is("as") {
            // `use a::b as c;`
            let alias = toks.get(k + 1).map(|t| t.text.clone());
            if let (Some(alias), false) = (alias, base.is_empty()) {
                items.aliases[fi].insert(alias, base.clone());
            }
            return Some(end);
        } else if t.kind == TokKind::Ident {
            base.push(t.text.clone());
            k += 1;
        } else if t.is(":") {
            k += 1;
        } else if t.is("{") {
            // Group: entries separated by top-level commas.
            let mut entry: Vec<String> = Vec::new();
            let mut alias: Option<String> = None;
            let mut in_as = false;
            let mut depth = 1i32;
            k += 1;
            while k < toks.len() && depth > 0 {
                let u = &toks[k];
                if u.is("{") {
                    depth += 1;
                } else if u.is("}") {
                    depth -= 1;
                    if depth == 0 {
                        flush_use_entry(fi, &base, &entry, &alias, items);
                        break;
                    }
                } else if u.is(",") && depth == 1 {
                    flush_use_entry(fi, &base, &entry, &alias, items);
                    entry.clear();
                    alias = None;
                    in_as = false;
                } else if u.is("as") {
                    in_as = true;
                } else if u.kind == TokKind::Ident {
                    if in_as {
                        alias = Some(u.text.clone());
                    } else {
                        entry.push(u.text.clone());
                    }
                }
                k += 1;
            }
            return Some(end);
        } else if t.is("*") {
            return Some(end); // glob: nothing to record
        } else {
            k += 1;
        }
    }
    if let Some(last) = base.last().cloned() {
        items.aliases[fi].insert(last, base);
    }
    Some(end)
}

fn flush_use_entry(
    fi: usize,
    base: &[String],
    entry: &[String],
    alias: &Option<String>,
    items: &mut Items,
) {
    if entry.is_empty() {
        return;
    }
    let mut path = base.to_vec();
    if entry == ["self"] {
        // `use a::b::{self}`: the base's last segment becomes usable.
        if let Some(name) = alias.clone().or_else(|| base.last().cloned()) {
            items.aliases[fi].insert(name, base.to_vec());
        }
        return;
    }
    path.extend(entry.iter().cloned());
    let name = alias.clone().unwrap_or_else(|| entry.last().cloned().unwrap_or_default());
    if !name.is_empty() {
        items.aliases[fi].insert(name, path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(src: &str) -> Items {
        Items::build(&[SourceFile::new("crates/x/src/a.rs", src)])
    }

    #[test]
    fn functions_get_impl_context_and_bodies() {
        let items = build(
            "impl<S: Clone> Engine<S> {\n    fn go(&self, n: u32) -> Option<u32> { helper(n) }\n}\nfn helper(n: u32) -> u32 { n }\n",
        );
        assert_eq!(items.fns.len(), 2);
        let go = &items.fns[0];
        assert_eq!(go.name, "go");
        assert_eq!(go.impl_type.as_deref(), Some("Engine"));
        assert_eq!(go.params.len(), 1);
        assert_eq!(go.params[0].name, "n");
        assert_eq!(go.ret, vec!["Option", "u32"]);
        let helper = &items.fns[1];
        assert_eq!(helper.impl_type, None);
    }

    #[test]
    fn impl_trait_for_type_uses_the_type() {
        let items =
            build("impl Drop for Runtime<S> {\n    fn drop(&mut self) { self.stop(); }\n}\n");
        assert_eq!(items.fns[0].impl_type.as_deref(), Some("Runtime"));
    }

    #[test]
    fn struct_fields_and_atomics() {
        let items = build(
            "pub struct BusInner {\n    pub delivered: AtomicU64,\n    tallies: Box<[Tally]>,\n    name: String,\n}\n",
        );
        let s = items.structs.get("BusInner").unwrap();
        assert_eq!(s.fields["delivered"].atomic.as_deref(), Some("AtomicU64"));
        assert!(s.fields["tallies"].atomic.is_none());
        assert_eq!(base_type(&s.fields["tallies"].ty), Some("Tally"));
    }

    #[test]
    fn statics_and_uses() {
        let items = build(
            "use crate::hot::{HotSet, TouchBuffer as Touches};\nuse deceit_core::obs as core_obs;\nstatic NEXT: AtomicU64 = AtomicU64::new(0);\n",
        );
        assert_eq!(items.statics.get("NEXT").unwrap().atomic.as_deref(), Some("AtomicU64"));
        assert_eq!(items.aliases[0]["HotSet"], vec!["crate", "hot", "HotSet"]);
        assert_eq!(items.aliases[0]["Touches"], vec!["crate", "hot", "TouchBuffer"]);
        assert_eq!(items.aliases[0]["core_obs"], vec!["deceit_core", "obs"]);
    }

    #[test]
    fn innermost_fn_wins_token_lookup() {
        let items = build("fn outer() {\n    fn inner() { x(); }\n    y();\n}\n");
        let inner_id = items.fns.iter().position(|f| f.name == "inner").unwrap();
        let sf = SourceFile::new("f.rs", "fn outer() {\n    fn inner() { x(); }\n    y();\n}\n");
        let x_idx = sf.code.iter().position(|t| t.is("x")).unwrap();
        assert_eq!(items.fn_of_token(0, x_idx), Some(inner_id));
    }
}
