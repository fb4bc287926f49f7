//! A hand-rolled Rust lexer, just deep enough for token-stream lint
//! rules.
//!
//! The vendored external crates are offline API slices, so there is no
//! real `syn` to parse with. The rules in this crate only need a
//! faithful token stream with line numbers, which a few hundred lines
//! of lexer can deliver — provided it gets the hard cases right:
//!
//! * strings must not leak tokens (`"call .unwrap() here"` is one
//!   `Str` token, not an `unwrap` identifier);
//! * raw strings (`r"…"`, `r#"…"#`, any hash depth) and byte strings;
//! * raw identifiers (`r#match`) are identifiers, not raw strings;
//! * block comments nest (`/* outer /* inner */ still comment */`);
//! * `'a` is a lifetime, `'a'` (and `'\n'`) are char literals;
//! * comments are kept as `Comment` tokens, so a check can read them
//!   and a rule can drop them.
//!
//! A second pass marks tokens that live under test-only items so rules
//! can exclude test code. Recognized gates: `#[test]`, `#[cfg(test)]`
//! (and `any(test, …)`), `#[cfg(feature = "…")]` where the feature name
//! names a test surface (contains `test`), and `#[cfg_attr(<pred>,
//! test)]` / `#[cfg_attr(<pred>, cfg(test))]` where the *applied*
//! attribute is the test gate. Anything mentioning `not` is
//! conservatively treated as *non*-test (that code compiles into
//! production builds), and a `cfg_attr` whose applied part is not a
//! test gate (`#[cfg_attr(test, allow(dead_code))]`) exempts nothing —
//! production code cannot hide behind a bogus gate.

/// Token classes. Rules match mostly on `Ident` and `Punct` text, with
/// `Comment` tokens dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Lifetime,
    Number,
    Str,
    Char,
    Punct,
    Comment,
}

#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// Byte offset of the token's first character in the source —
    /// `text.len()` bytes from here is the token's exact span.
    pub off: usize,
    /// True when the token is inside a test-gated item.
    pub test: bool,
}

impl Tok {
    pub fn is(&self, s: &str) -> bool {
        self.text == s
    }
}

/// Lex `src` into tokens (comments included) and mark test scopes.
pub fn lex(src: &str) -> Vec<Tok> {
    let mut toks = raw_lex(src);
    mark_test_scopes(&mut toks);
    toks
}

fn raw_lex(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    // Byte offset of each char index (plus the end), so token spans can
    // be reported in byte terms.
    let mut byte_at = Vec::with_capacity(n + 1);
    let mut bpos = 0usize;
    for &c in &b {
        byte_at.push(bpos);
        bpos += c.len_utf8();
    }
    byte_at.push(bpos);
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let push = |out: &mut Vec<Tok>, kind: TokKind, text: String, line: u32, off: usize| {
        out.push(Tok { kind, text, line, off, test: false });
    };
    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        let start_line = line;
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            push(
                &mut out,
                TokKind::Comment,
                b[start..i].iter().collect(),
                start_line,
                byte_at[start],
            );
            continue;
        }
        // Block comment, possibly nested, possibly multi-line.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start = i;
            let mut depth = 1u32;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            push(
                &mut out,
                TokKind::Comment,
                b[start..i].iter().collect(),
                start_line,
                byte_at[start],
            );
            continue;
        }
        // Ordinary (escaped) string literal.
        if c == '"' {
            let start = i;
            i += 1;
            while i < n {
                match b[i] {
                    '\\' => i += 2,
                    '"' => {
                        i += 1;
                        break;
                    }
                    ch => {
                        if ch == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            push(
                &mut out,
                TokKind::Str,
                b[start..i.min(n)].iter().collect(),
                start_line,
                byte_at[start],
            );
            continue;
        }
        // Identifier — or a string prefix (`r`, `b`, `br`) or raw ident.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            let word: String = b[start..i].iter().collect();
            let raw_capable = word == "r" || word == "br";
            let byte_str = (word == "b" || word == "br") && i < n && b[i] == '"';
            if raw_capable && i < n && (b[i] == '"' || b[i] == '#') {
                // Count hashes; a raw string needs `#*"`. `r#ident` is
                // a raw identifier instead.
                let mut hashes = 0usize;
                let mut j = i;
                while j < n && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && b[j] == '"' {
                    // Raw string: no escapes; ends at `"` + hashes `#`s.
                    i = j + 1;
                    'raw: while i < n {
                        if b[i] == '"' {
                            let mut k = 0usize;
                            while k < hashes && i + 1 + k < n && b[i + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    push(
                        &mut out,
                        TokKind::Str,
                        b[start..i.min(n)].iter().collect(),
                        start_line,
                        byte_at[start],
                    );
                    continue;
                }
                if word == "r" && hashes == 1 {
                    // Raw identifier: r#match, r#fn, …
                    i = j;
                    while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    push(
                        &mut out,
                        TokKind::Ident,
                        b[start..i].iter().collect(),
                        start_line,
                        byte_at[start],
                    );
                    continue;
                }
            }
            if byte_str {
                // b"…": escaped like an ordinary string.
                i += 1;
                while i < n {
                    match b[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        ch => {
                            if ch == '\n' {
                                line += 1;
                            }
                            i += 1;
                        }
                    }
                }
                push(
                    &mut out,
                    TokKind::Str,
                    b[start..i.min(n)].iter().collect(),
                    start_line,
                    byte_at[start],
                );
                continue;
            }
            push(&mut out, TokKind::Ident, word, start_line, byte_at[start]);
            continue;
        }
        // Lifetime vs char literal.
        if c == '\'' {
            let next_ident = i + 1 < n && (b[i + 1].is_alphabetic() || b[i + 1] == '_');
            let closes = i + 2 < n && b[i + 2] == '\'';
            if next_ident && !closes {
                let start = i;
                i += 1;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                push(
                    &mut out,
                    TokKind::Lifetime,
                    b[start..i].iter().collect(),
                    start_line,
                    byte_at[start],
                );
                continue;
            }
            // Char literal: '<char>' or '\<escape>'.
            let start = i;
            i += 1;
            if i < n && b[i] == '\\' {
                i += 2;
            } else if i < n {
                i += 1;
            }
            while i < n && b[i] != '\'' {
                i += 1;
            }
            i = (i + 1).min(n);
            push(&mut out, TokKind::Char, b[start..i].iter().collect(), start_line, byte_at[start]);
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            // Float part — but never swallow `..` (range syntax).
            if i + 1 < n && b[i] == '.' && b[i + 1].is_ascii_digit() {
                i += 1;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
            }
            push(
                &mut out,
                TokKind::Number,
                b[start..i].iter().collect(),
                start_line,
                byte_at[start],
            );
            continue;
        }
        push(&mut out, TokKind::Punct, c.to_string(), start_line, byte_at[i]);
        i += 1;
    }
    out
}

/// Mark every token under a `#[cfg(test)]` or `#[test]` item as test
/// code. An attribute covers the item that follows it: everything up
/// to the matching `}` of the item's body, or up to `;` for brace-less
/// items (`mod tests;`).
fn mark_test_scopes(toks: &mut [Tok]) {
    // Work over non-comment token indices; comments inside a marked
    // span are marked too (harmless).
    let code: Vec<usize> = (0..toks.len()).filter(|&i| toks[i].kind != TokKind::Comment).collect();
    let mut ci = 0usize;
    while ci + 1 < code.len() {
        if !(toks[code[ci]].is("#") && toks[code[ci + 1]].is("[")) {
            ci += 1;
            continue;
        }
        // Collect the attribute's tokens (balanced brackets).
        let attr_start = ci;
        let mut depth = 0i32;
        let mut j = ci + 1;
        let mut inner: Vec<(TokKind, String)> = Vec::new();
        while j < code.len() {
            let t = &toks[code[j]];
            if t.is("[") {
                depth += 1;
                if depth > 1 {
                    inner.push((t.kind, t.text.clone()));
                }
            } else if t.is("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                inner.push((t.kind, t.text.clone()));
            } else {
                inner.push((t.kind, t.text.clone()));
            }
            j += 1;
        }
        if j >= code.len() {
            break;
        }
        let attr_end = j; // index of `]`
        let is_test = attr_is_test(&inner);
        if !is_test {
            ci = attr_end + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut k = attr_end + 1;
        while k + 1 < code.len() && toks[code[k]].is("#") && toks[code[k + 1]].is("[") {
            let mut d = 0i32;
            let mut m = k + 1;
            while m < code.len() {
                if toks[code[m]].is("[") {
                    d += 1;
                } else if toks[code[m]].is("]") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                m += 1;
            }
            k = m + 1;
        }
        // Find the item body: first `{` at zero paren/bracket nesting
        // opens it; a `;` at zero nesting ends a brace-less item.
        let (mut paren, mut brack) = (0i32, 0i32);
        let mut span_end = None;
        let mut m = k;
        while m < code.len() {
            let t = &toks[code[m]];
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => brack += 1,
                "]" => brack -= 1,
                ";" if paren == 0 && brack == 0 => {
                    span_end = Some(m);
                    break;
                }
                "{" if paren == 0 && brack == 0 => {
                    let mut braces = 0i32;
                    while m < code.len() {
                        if toks[code[m]].is("{") {
                            braces += 1;
                        } else if toks[code[m]].is("}") {
                            braces -= 1;
                            if braces == 0 {
                                break;
                            }
                        }
                        m += 1;
                    }
                    span_end = Some(m.min(code.len() - 1));
                    break;
                }
                _ => {}
            }
            m += 1;
        }
        if let Some(end) = span_end {
            // Mark the raw token range (comments included).
            for t in toks[code[attr_start]..=code[end]].iter_mut() {
                t.test = true;
            }
            ci = end + 1;
        } else {
            ci = attr_end + 1;
        }
    }
}

/// Classify one attribute's inner tokens (everything between `#[` and
/// the matching `]`) as a test gate. See the module doc for the
/// recognized shapes.
fn attr_is_test(inner: &[(TokKind, String)]) -> bool {
    let name = match inner.first() {
        Some((TokKind::Ident, s)) => s.as_str(),
        _ => return false,
    };
    match name {
        "test" => inner.len() == 1,
        // The whole predicate decides: `cfg(test)`, `cfg(any(test, …))`,
        // `cfg(feature = "test-…")`.
        "cfg" => pred_is_test(&inner[1..]),
        // Only the *applied* attributes — after the first top-level
        // comma — decide; the predicate is irrelevant. This keeps
        // `#[cfg_attr(test, allow(dead_code))]` production code while
        // `#[cfg_attr(feature = "sim", test)]` is a gated test fn.
        "cfg_attr" => {
            let mut depth = 0i32;
            for (k, (_, text)) in inner.iter().enumerate().skip(1) {
                match text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 1 => return pred_is_test(&inner[k + 1..]),
                    _ => {}
                }
            }
            false
        }
        _ => false,
    }
}

/// A `cfg` predicate (or `cfg_attr` applied-attribute list) gates test
/// code when it names `test` — as a bare ident or as a test-ish feature
/// string — and never under a `not(…)` (that code compiles into
/// production builds).
fn pred_is_test(toks: &[(TokKind, String)]) -> bool {
    if toks.iter().any(|(k, s)| *k == TokKind::Ident && s == "not") {
        return false;
    }
    if toks.iter().any(|(k, s)| *k == TokKind::Ident && s == "test") {
        return true;
    }
    // `feature = "…test…"`: the string literal still carries its quotes;
    // a feature whose name does not say "test" is a production surface
    // and exempts nothing.
    toks.windows(3).any(|w| {
        w[0].1 == "feature"
            && w[1].1 == "="
            && w[2].0 == TokKind::Str
            && w[2].1.to_ascii_lowercase().contains("test")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(toks: &[Tok]) -> Vec<&str> {
        toks.iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.as_str()).collect()
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        let toks = lex("let s = \"call .unwrap() here\"; s.len();");
        assert!(!idents(&toks).contains(&"unwrap"));
        assert!(idents(&toks).contains(&"len"));
    }

    #[test]
    fn raw_strings_with_hashes_and_quotes() {
        let src = "let r = r#\"inner \"quote\" and .unwrap() text\"#; r.unwrap();";
        let toks = lex(src);
        // The only `unwrap` ident is the real call after the string.
        let unwraps: Vec<_> = toks.iter().filter(|t| t.is("unwrap")).collect();
        assert_eq!(unwraps.len(), 1);
        assert_eq!(unwraps[0].kind, TokKind::Ident);
        // Multi-hash raw strings terminate at the matching hash count.
        let toks = lex("let x = r##\"has \"# inside\"##; x.expect(\"t\");");
        assert!(idents(&toks).contains(&"expect"));
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        let toks = lex("let r#match = 1; foo.unwrap();");
        assert!(idents(&toks).contains(&"r#match"));
        assert!(idents(&toks).contains(&"unwrap"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner .unwrap() */ still comment */ real.unwrap()";
        let toks = lex(src);
        let unwraps: Vec<_> =
            toks.iter().filter(|t| t.is("unwrap") && t.kind == TokKind::Ident).collect();
        assert_eq!(unwraps.len(), 1);
        assert_eq!(toks[0].kind, TokKind::Comment);
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime && t.is("'a")));
        assert!(toks.iter().any(|t| t.kind == TokKind::Char && t.is("'x'")));
        assert!(toks.iter().any(|t| t.kind == TokKind::Char && t.text.starts_with("'\\n")));
    }

    #[test]
    fn line_numbers_survive_multiline_tokens() {
        let src = "let a = \"two\nlines\";\nlet b = 1; /* c\nc */ let d = 2;";
        let toks = lex(src);
        let b = toks.iter().find(|t| t.is("b")).unwrap();
        assert_eq!(b.line, 3);
        let d = toks.iter().find(|t| t.is("d")).unwrap();
        assert_eq!(d.line, 4);
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { y.unwrap(); }\n}\nfn prod2() { z.unwrap(); }";
        let toks = lex(src);
        let marks: Vec<bool> = toks.iter().filter(|t| t.is("unwrap")).map(|t| t.test).collect();
        assert_eq!(marks, vec![false, true, false]);
    }

    #[test]
    fn test_attr_on_fn_is_marked() {
        let src = "#[test]\nfn t() { a.unwrap(); }\nfn prod() { b.unwrap(); }";
        let toks = lex(src);
        let marks: Vec<bool> = toks.iter().filter(|t| t.is("unwrap")).map(|t| t.test).collect();
        assert_eq!(marks, vec![true, false]);
    }

    #[test]
    fn cfg_not_test_stays_production() {
        let src = "#[cfg(not(test))]\nfn prod() { a.unwrap(); }";
        let toks = lex(src);
        let u = toks.iter().find(|t| t.is("unwrap")).unwrap();
        assert!(!u.test);
    }

    #[test]
    fn feature_gated_test_module_is_marked() {
        // A feature whose name says "test" gates a test surface…
        let src = "#[cfg(feature = \"test-utils\")]\nmod harness { fn h() { a.unwrap(); } }\nfn prod() { b.unwrap(); }";
        let toks = lex(src);
        let marks: Vec<bool> = toks.iter().filter(|t| t.is("unwrap")).map(|t| t.test).collect();
        assert_eq!(marks, vec![true, false]);
    }

    #[test]
    fn bogus_feature_gate_stays_production() {
        // …but production code cannot hide behind an arbitrary feature.
        for gate in ["#[cfg(feature = \"fast-path\")]", "#[cfg(not(feature = \"test-utils\"))]"] {
            let src = format!("{gate}\nfn prod() {{ a.unwrap(); }}");
            let toks = lex(&src);
            let u = toks.iter().find(|t| t.is("unwrap")).unwrap();
            assert!(!u.test, "{gate} must not exempt");
        }
    }

    #[test]
    fn cfg_attr_applied_test_is_marked() {
        let src = "#[cfg_attr(feature = \"sim\", test)]\nfn gated() { a.unwrap(); }\nfn prod() { b.unwrap(); }";
        let toks = lex(src);
        let marks: Vec<bool> = toks.iter().filter(|t| t.is("unwrap")).map(|t| t.test).collect();
        assert_eq!(marks, vec![true, false]);
        // cfg(test) as the applied attribute works too.
        let src = "#[cfg_attr(feature = \"sim\", cfg(test))]\nmod m { fn f() { a.unwrap(); } }";
        let u = lex(src).into_iter().find(|t| t.is("unwrap")).unwrap();
        assert!(u.test);
    }

    #[test]
    fn cfg_attr_with_non_test_applied_attr_stays_production() {
        // The predicate saying `test` is irrelevant: the applied
        // attribute is `allow(dead_code)`, so this fn is production.
        let src = "#[cfg_attr(test, allow(dead_code))]\nfn prod() { a.unwrap(); }";
        let toks = lex(src);
        let u = toks.iter().find(|t| t.is("unwrap")).unwrap();
        assert!(!u.test);
    }

    #[test]
    fn token_offsets_are_byte_exact() {
        let src = "let é = x.load(Ordering::Relaxed);";
        let toks = lex(src);
        let relaxed = toks.iter().find(|t| t.is("Relaxed")).unwrap();
        assert_eq!(&src[relaxed.off..relaxed.off + relaxed.text.len()], "Relaxed");
        let load = toks.iter().find(|t| t.is("load")).unwrap();
        assert_eq!(&src[load.off..load.off + load.text.len()], "load");
    }

    #[test]
    fn braceless_test_item_marks_to_semicolon() {
        let src = "#[cfg(test)]\nmod tests;\nfn prod() { a.unwrap(); }";
        let toks = lex(src);
        let u = toks.iter().find(|t| t.is("unwrap")).unwrap();
        assert!(!u.test);
        let m = toks.iter().find(|t| t.is("tests")).unwrap();
        assert!(m.test);
    }

    #[test]
    fn attr_with_fn_signature_parens_finds_body() {
        // The `(…)` of the signature must not be mistaken for the body.
        let src = "#[cfg(test)]\nfn helper(map: &HashMap<u32, Vec<u8>>) -> usize { map.len() }\nfn prod() { b.expect(\"x\"); }";
        let toks = lex(src);
        let l = toks.iter().find(|t| t.is("len")).unwrap();
        assert!(l.test);
        let e = toks.iter().find(|t| t.is("expect")).unwrap();
        assert!(!e.test);
    }
}
