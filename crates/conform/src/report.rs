//! Deterministic report rendering — text and JSON.
//!
//! Findings arrive sorted by `(rule, path, line, message)` and render one
//! per line, so two runs over the same tree produce byte-identical output
//! and CI diffs stay reviewable. Waived findings are printed (the waiver is
//! an audited fact, not an invisibility cloak) but do not affect the exit
//! status. Graph findings additionally render their witness path — the
//! `root → … → sink` chain that makes the finding a checkable claim.
//!
//! The JSON form ([`Report::render_json`]) is hand-built (the linter is
//! dependency-free by policy) with a fixed key order, so it is as
//! byte-stable as the text form and CI can archive it next to the perf
//! probe lines that `BENCH.json` gates.

use crate::rules::Finding;

/// A finished conformance report.
#[derive(Clone, Debug)]
pub struct Report {
    /// All findings, sorted by `(rule, path, line, message)`.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Number of findings not covered by a waiver.
    pub fn unwaived(&self) -> usize {
        self.findings.iter().filter(|f| f.waived.is_none()).count()
    }

    /// Renders the report as stable, line-oriented text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(f.rule);
            out.push(' ');
            out.push_str(&f.path);
            if f.line > 0 {
                out.push_str(&format!(":{}", f.line));
            }
            out.push(' ');
            out.push_str(&f.message);
            if let Some(j) = &f.waived {
                out.push_str(&format!(" [waived: {j}]"));
            }
            out.push('\n');
            if !f.witness.is_empty() {
                out.push_str("    via: ");
                out.push_str(&f.witness.join(" -> "));
                out.push('\n');
            }
        }
        let waived = self.findings.len() - self.unwaived();
        out.push_str(&format!(
            "cloudburst-conform: {} finding(s), {} waived, {} unwaived\n",
            self.findings.len(),
            waived,
            self.unwaived()
        ));
        out
    }

    /// Renders the report as deterministic JSON: fixed key order, findings
    /// in the same sort as the text form, `\n`-terminated.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"rule\": {}, ", json_str(f.rule)));
            out.push_str(&format!("\"path\": {}, ", json_str(&f.path)));
            out.push_str(&format!("\"line\": {}, ", f.line));
            out.push_str(&format!("\"message\": {}, ", json_str(&f.message)));
            out.push_str("\"witness\": [");
            for (k, hop) in f.witness.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_str(hop));
            }
            out.push_str("], ");
            match &f.waived {
                Some(j) => out.push_str(&format!("\"waived\": {}", json_str(j))),
                None => out.push_str("\"waived\": null"),
            }
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        let waived = self.findings.len() - self.unwaived();
        out.push_str(&format!("  \"total\": {},\n", self.findings.len()));
        out.push_str(&format!("  \"waived\": {waived},\n"));
        out.push_str(&format!("  \"unwaived\": {}\n", self.unwaived()));
        out.push_str("}\n");
        out
    }
}

/// Escapes a string per JSON: quotes, backslashes, and control characters.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            findings: vec![
                Finding {
                    rule: "determinism/wall-clock",
                    path: "crates/x/src/lib.rs".to_owned(),
                    line: 3,
                    message: "wall-clock type: `Instant::now()`".to_owned(),
                    witness: Vec::new(),
                    waived: None,
                },
                Finding {
                    rule: "hotpath/alloc-reachable",
                    path: "crates/x/src/lib.rs".to_owned(),
                    line: 9,
                    message: "allocating call `.push(..)` in `deep`".to_owned(),
                    witness: vec![
                        "sweep (crates/x/src/lib.rs:2)".to_owned(),
                        "deep (crates/x/src/lib.rs:8)".to_owned(),
                    ],
                    waived: None,
                },
                Finding {
                    rule: "hotpath/unsafe",
                    path: "crates/y/tests/t.rs".to_owned(),
                    line: 7,
                    message: "`unsafe`: `unsafe impl X {}`".to_owned(),
                    witness: Vec::new(),
                    waived: Some("audited".to_owned()),
                },
            ],
        }
    }

    #[test]
    fn render_is_stable_and_counts_waivers() {
        let r = sample();
        let text = r.render();
        assert!(text.contains("crates/x/src/lib.rs:3"));
        assert!(text.contains("[waived: audited]"));
        assert!(text.contains("    via: sweep (crates/x/src/lib.rs:2) -> deep (crates/x/src/lib.rs:8)\n"));
        assert!(text.ends_with("3 finding(s), 1 waived, 2 unwaived\n"));
        assert_eq!(r.unwaived(), 2);
        assert_eq!(text, r.render(), "rendering must be deterministic");
    }

    #[test]
    fn json_is_stable_and_carries_witness() {
        let r = sample();
        let json = r.render_json();
        assert_eq!(json, r.render_json(), "JSON must be byte-stable");
        assert!(json.contains("\"rule\": \"hotpath/alloc-reachable\""));
        assert!(json.contains("\"witness\": [\"sweep (crates/x/src/lib.rs:2)\", \"deep (crates/x/src/lib.rs:8)\"]"));
        assert!(json.contains("\"waived\": \"audited\""));
        assert!(json.contains("\"total\": 3"));
        assert!(json.contains("\"unwaived\": 2"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn json_escapes_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn empty_report_renders_valid_json() {
        let r = Report { findings: Vec::new() };
        assert_eq!(
            r.render_json(),
            "{\n  \"findings\": [],\n  \"total\": 0,\n  \"waived\": 0,\n  \"unwaived\": 0\n}\n"
        );
    }
}
