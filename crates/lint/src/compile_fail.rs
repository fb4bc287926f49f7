//! The error codes of `compile_fail` doc-tests, checked.
//!
//! Stable rustdoc runs a ```` ```compile_fail,E0521 ```` block and passes
//! it on *any* compile error: the code after the comma is only compared
//! on nightly. So a block that shows a rule the compiler carries (a
//! closure under a slot lock borrowing `self`, a ring lock taken without
//! the cell lock) can rot into failing for an unrelated reason — a
//! renamed import, a moved type — and still pass. This module finds
//! every `compile_fail` block in the doc comments of `crates/*/src`, and
//! the `compile-fail-codes` binary compiles each as a standalone crate
//! against the workspace and demands that the errors it reports carry
//! exactly the tagged code. A block without a code fails the check.

/// One `compile_fail` doc-test block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// Repo-relative path of the file the block is in.
    pub path: String,
    /// 1-based line of the block's opening fence.
    pub line: u32,
    /// The error code the fence names (`E0521`), if any.
    pub code: Option<String>,
    /// The block's code, as rustdoc compiles it: hidden `# ` lines shown.
    pub body: String,
}

impl Case {
    /// The block as a crate root, wrapped in `fn main` as rustdoc wraps
    /// a doc-test that has none.
    pub fn crate_root(&self) -> String {
        if self.body.contains("fn main") {
            format!("#![allow(unused)]\n{}", self.body)
        } else {
            format!("#![allow(unused)]\nfn main() {{\n{}}}\n", self.body)
        }
    }

    /// The workspace crates the block names (`deceit_core`, …), sorted
    /// and deduplicated.
    pub fn crates_named(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .body
            .match_indices("deceit_")
            .filter(|&(i, _)| !self.body[..i].ends_with(|c: char| c.is_alphanumeric() || c == '_'))
            .map(|(i, _)| {
                let rest = &self.body[i..];
                rest[..rest.find(|c: char| !c.is_alphanumeric() && c != '_').unwrap_or(rest.len())]
                    .to_string()
            })
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Whether the errors `codes` of compiling the block are exactly the
    /// tagged code: `Err` says what is wrong.
    pub fn verdict(&self, codes: &[String]) -> Result<(), String> {
        let Some(code) = &self.code else {
            return Err("the block names no error code".to_string());
        };
        if codes.is_empty() {
            return Err(format!("expected {code}; it compiled, or failed without a code"));
        }
        if codes.iter().any(|c| c != code) {
            return Err(format!(
                "expected only {code}; the compiler reported {}",
                codes.join(", ")
            ));
        }
        Ok(())
    }
}

/// Every `compile_fail` block in the doc comments (`///`, `//!`) of
/// `files`, `(repo-relative path, content)` pairs.
pub fn cases(files: &[(String, String)]) -> Vec<Case> {
    let mut out = Vec::new();
    for (path, content) in files {
        let mut open: Option<Case> = None;
        for (i, line) in content.lines().enumerate() {
            let Some(doc) = doc_text(line) else {
                // A doc comment ended: an unterminated block is dropped,
                // as rustdoc would reject it anyway.
                open = None;
                continue;
            };
            match (&mut open, doc.trim_start().strip_prefix("```")) {
                (None, Some(info)) if info.split(',').any(|t| t.trim() == "compile_fail") => {
                    let code = info.split(',').map(str::trim).find(|t| is_code(t));
                    open = Some(Case {
                        path: path.clone(),
                        line: i as u32 + 1,
                        code: code.map(str::to_string),
                        body: String::new(),
                    });
                }
                (Some(_), Some(_)) => out.extend(open.take()),
                (Some(case), None) => {
                    case.body.push_str(unhide(doc));
                    case.body.push('\n');
                }
                (None, _) => {}
            }
        }
    }
    out
}

/// The error codes in a compiler's human-readable output: every
/// `error[E….]`, in order.
pub fn codes(stderr: &str) -> Vec<String> {
    stderr
        .match_indices("error[")
        .filter_map(|(i, m)| {
            let rest = &stderr[i + m.len()..];
            let code = &rest[..rest.find(']')?];
            is_code(code).then(|| code.to_string())
        })
        .collect()
}

/// The text of a doc-comment line, after `///` or `//!` and one space.
fn doc_text(line: &str) -> Option<&str> {
    let t = line.trim_start();
    let rest = t.strip_prefix("///").or_else(|| t.strip_prefix("//!"))?;
    // `////` is an ordinary comment, not a doc comment.
    if t.starts_with("////") {
        return None;
    }
    Some(rest.strip_prefix(' ').unwrap_or(rest))
}

/// A doc-test line as compiled: rustdoc's hidden `# ` lines are code.
fn unhide(line: &str) -> &str {
    let t = line.trim_start();
    if t == "#" {
        ""
    } else {
        t.strip_prefix("# ").unwrap_or(line)
    }
}

/// Whether `s` is a rustc error code: `E` and four digits.
fn is_code(s: &str) -> bool {
    s.len() == 5 && s.starts_with('E') && s[1..].bytes().all(|b| b.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(content: &str) -> Vec<(String, String)> {
        vec![("crates/x/src/lib.rs".to_string(), content.to_string())]
    }

    #[test]
    fn finds_tagged_untagged_and_hidden_lines() {
        // Written with `DOC` for the comment markers, so this file's own
        // scan finds no block here.
        let src = "\
DOC ```
DOC fine();
DOC ```
DOC
DOC ```compile_fail,E0521
DOC use deceit_core::hot;
DOC # let hidden = deceit_net::NodeId(0);
DOC ```
INNER ```compile_fail
INNER nope();
INNER ```
fn item() {}
"
        .replace("DOC", "///")
        .replace("INNER", "//!");
        let found = cases(&file(&src));
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!(found[0].line, 5);
        assert_eq!(found[0].code.as_deref(), Some("E0521"));
        assert_eq!(found[0].body, "use deceit_core::hot;\nlet hidden = deceit_net::NodeId(0);\n");
        assert_eq!(found[0].crates_named(), ["deceit_core", "deceit_net"]);
        assert_eq!(found[1].code, None);
        assert_eq!(found[1].body, "nope();\n");
    }

    #[test]
    fn a_block_cut_off_by_code_is_dropped() {
        let src = "DOC ```compile_fail,E0599\nDOC x();\nfn f() {}\nDOC ```\n".replace("DOC", "///");
        let found = cases(&file(&src));
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn wraps_in_main_unless_it_has_one() {
        let case =
            |body: &str| Case { path: String::new(), line: 1, code: None, body: body.to_string() };
        assert!(case("x();\n").crate_root().contains("fn main() {\nx();\n}"));
        assert_eq!(case("fn main() {}\n").crate_root().matches("fn main").count(), 1);
    }

    #[test]
    fn reads_codes_and_judges_them() {
        let out = "error[E0521]: borrowed data escapes\n --> a.rs:1\nerror: aborting due to 1 previous error\nerror[E0597]: x\nwarning[unused]: y\n";
        assert_eq!(codes(out), ["E0521", "E0597"]);
        let case = Case {
            path: String::new(),
            line: 1,
            code: Some("E0521".to_string()),
            body: String::new(),
        };
        assert!(case.verdict(&["E0521".to_string()]).is_ok());
        assert!(case.verdict(&["E0521".to_string(), "E0597".to_string()]).is_err());
        assert!(case.verdict(&[]).is_err(), "a block that compiles fails the check");
        assert!(Case { code: None, ..case }.verdict(&["E0521".to_string()]).is_err());
    }
}
