//! In-source waivers: `// lint: allow(<rule>): <reason>`.
//!
//! A waiver on its own line covers the next line that carries code; a
//! trailing waiver covers its own line. The reason is mandatory — a
//! waiver without one is itself a finding (`bad-waiver`), and a waiver
//! that suppresses nothing is a finding too (`unused-waiver`), so
//! waivers cannot rot silently when the code they excused is deleted.

use crate::lexer::{Tok, TokKind};
use crate::report::Finding;
use crate::rules::MOVED;

#[derive(Debug, Clone)]
pub struct Waiver {
    pub rule: String,
    pub reason: String,
    /// Line of the waiver comment itself.
    pub line: u32,
    /// Line of code the waiver applies to.
    pub target_line: Option<u32>,
}

/// Extract waivers from a token stream. Malformed directives are
/// reported as `bad-waiver` findings against `path`.
pub fn parse_waivers(
    path: &str,
    toks: &[Tok],
    known_rules: &[&str],
) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut bad = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Comment || !t.text.starts_with("//") {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("lint:") else { continue };
        let rest = rest.trim();
        let mut err = |msg: String| {
            bad.push(Finding::new("bad-waiver", path, t.line, msg));
        };
        let Some(rest) = rest.strip_prefix("allow(") else {
            err(format!(
                "unrecognized lint directive `{body}` (expected `lint: allow(<rule>): <reason>`)"
            ));
            continue;
        };
        let Some(close) = rest.find(')') else {
            err("unterminated `allow(` in lint waiver".to_string());
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let Some(reason) = after.strip_prefix(':') else {
            err(format!("waiver for `{rule}` is missing the `: <reason>` clause"));
            continue;
        };
        let reason = reason.trim().to_string();
        if reason.is_empty() {
            err(format!(
                "waiver for `{rule}` has an empty reason — say why the rule is safe to break here"
            ));
            continue;
        }
        if !known_rules.contains(&rule.as_str()) {
            match MOVED.iter().find(|(moved, _)| *moved == rule) {
                Some((_, now)) => err(format!("`{rule}` {now}")),
                None => err(format!("waiver names unknown rule `{rule}`")),
            }
            continue;
        }
        let target_line = waiver_target(toks, i);
        waivers.push(Waiver { rule, reason, line: t.line, target_line });
    }
    (waivers, bad)
}

/// A trailing waiver (code earlier on the same line) covers its own
/// line; an own-line waiver covers the line of the next code token.
fn waiver_target(toks: &[Tok], wi: usize) -> Option<u32> {
    let line = toks[wi].line;
    let trailing =
        toks[..wi].iter().rev().take_while(|t| t.line == line).any(|t| t.kind != TokKind::Comment);
    if trailing {
        return Some(line);
    }
    toks[wi + 1..].iter().find(|t| t.kind != TokKind::Comment).map(|t| t.line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const RULES: &[&str] = &["lease-discipline", "lock-order"];

    #[test]
    fn own_line_waiver_covers_next_code_line() {
        let toks =
            lex("// lint: allow(lock-order): startup path, nothing else is locked yet\nx.lock();");
        let (ws, bad) = parse_waivers("f.rs", &toks, RULES);
        assert!(bad.is_empty());
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].rule, "lock-order");
        assert_eq!(ws[0].target_line, Some(2));
        assert!(ws[0].reason.contains("startup"));
    }

    #[test]
    fn trailing_waiver_covers_its_own_line() {
        let toks = lex("x.lock(); // lint: allow(lock-order): nothing else is held here");
        let (ws, _) = parse_waivers("f.rs", &toks, RULES);
        assert_eq!(ws[0].target_line, Some(1));
    }

    #[test]
    fn own_line_waiver_skips_blank_and_comment_lines() {
        let toks = lex("// lint: allow(lock-order): leaf lock\n\n// explanation\nx.lock();");
        let (ws, _) = parse_waivers("f.rs", &toks, RULES);
        assert_eq!(ws[0].target_line, Some(4));
    }

    #[test]
    fn missing_reason_is_bad_waiver() {
        for src in [
            "// lint: allow(lease-discipline)",
            "// lint: allow(lease-discipline):",
            "// lint: allow(lease-discipline):   ",
        ] {
            let (ws, bad) = parse_waivers("f.rs", &lex(src), RULES);
            assert!(ws.is_empty(), "{src}");
            assert_eq!(bad.len(), 1, "{src}");
            assert_eq!(bad[0].rule, "bad-waiver");
        }
    }

    #[test]
    fn unknown_rule_is_bad_waiver() {
        let (ws, bad) = parse_waivers("f.rs", &lex("// lint: allow(no-such-rule): because"), RULES);
        assert!(ws.is_empty());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("unknown rule"));
    }

    #[test]
    fn unrecognized_directive_is_bad_waiver() {
        let (_, bad) = parse_waivers("f.rs", &lex("// lint: deny(lease-discipline): nope"), RULES);
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn ordinary_comments_are_ignored() {
        let (ws, bad) =
            parse_waivers("f.rs", &lex("// just a comment about lint rules\nx();"), RULES);
        assert!(ws.is_empty() && bad.is_empty());
    }
}
