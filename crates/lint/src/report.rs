//! Findings and the hand-rolled JSON report (same idiom as
//! `ObsReport::to_json`).

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub rule: String,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl Finding {
    pub fn new(rule: &str, file: &str, line: u32, message: impl Into<String>) -> Self {
        Finding { rule: rule.to_string(), file: file.to_string(), line, message: message.into() }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Result of a full lint run, JSON-exportable for the CI artifact.
#[derive(Debug)]
pub struct LintReport {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
}

impl LintReport {
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.findings.len() * 128);
        s.push_str("{\"schema\":\"deceit-lint/2\"");
        s.push_str(&format!(",\"files_scanned\":{}", self.files_scanned));
        s.push_str(&format!(",\"findings_total\":{}", self.findings.len()));
        s.push_str(",\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
                esc(&f.rule),
                esc(&f.file),
                f.line,
                esc(&f.message)
            ));
        }
        s.push_str("]}");
        s
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        let r = LintReport {
            files_scanned: 1,
            findings: vec![Finding::new("x", "a\\b.rs", 3, "bad \"call\"\nhere")],
        };
        let j = r.to_json();
        assert!(j.contains("a\\\\b.rs"));
        assert!(j.contains("bad \\\"call\\\"\\nhere"));
        assert!(j.contains("\"findings_total\":1"));
    }
}
