//! Finding renderers: a human summary for terminals and a stable JSON
//! document for CI artifacts. JSON is emitted by hand (this crate is
//! dependency-free); the schema is
//! `{schema, files_scanned, counts{active, suppressed}, findings[],
//!   suppressed[], timings_ms{}, total_ms}` with each finding as
//! `{lint, file, line, message}`.

use crate::{AnalysisResult, Finding};

/// Renders the human-readable report.
pub fn human(res: &AnalysisResult) -> String {
    let mut out = String::new();
    for f in &res.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.lint, f.message
        ));
    }
    if !res.findings.is_empty() {
        out.push('\n');
    }
    out.push_str(&format!(
        "fxrz-lint: {} finding{} ({} suppressed) across {} files in {:.1}ms\n",
        res.findings.len(),
        if res.findings.len() == 1 { "" } else { "s" },
        res.suppressed.len(),
        res.files_scanned,
        res.total_ms,
    ));
    out
}

/// Renders the JSON report.
pub fn json(res: &AnalysisResult) -> String {
    let mut out = String::from("{\n  \"schema\": \"fxrz-lint/3\",\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", res.files_scanned));
    out.push_str(&format!(
        "  \"counts\": {{\"active\": {}, \"suppressed\": {}}},\n",
        res.findings.len(),
        res.suppressed.len(),
    ));
    for (key, list) in [("findings", &res.findings), ("suppressed", &res.suppressed)] {
        out.push_str(&format!("  \"{key}\": ["));
        for (i, f) in list.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&finding_json(f));
        }
        if !list.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
    }
    out.push_str("  \"timings_ms\": {");
    for (i, (name, ms)) in res.timings_ms.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {ms:.3}", esc(name)));
    }
    out.push_str("},\n");
    out.push_str(&format!("  \"total_ms\": {:.3}\n", res.total_ms));
    out.push_str("}\n");
    out
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
        esc(f.lint),
        esc(&f.file),
        f.line,
        esc(&f.message)
    )
}

/// Minimal JSON string escaping.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res() -> AnalysisResult {
        AnalysisResult {
            findings: vec![Finding {
                lint: "lock_discipline",
                file: "crates/serve/src/protocol.rs".into(),
                line: 7,
                message: "`len` on \"hot\" path".into(),
            }],
            suppressed: vec![],
            files_scanned: 3,
            timings_ms: vec![
                ("telemetry_names".into(), 1.25),
                ("lock_discipline".into(), 0.5),
            ],
            total_ms: 1.75,
        }
    }

    #[test]
    fn human_report_lists_findings_and_totals() {
        let text = human(&res());
        assert!(text.contains("crates/serve/src/protocol.rs:7: [lock_discipline]"));
        assert!(text.contains("1 finding (0 suppressed) across 3 files"));
    }

    #[test]
    fn json_escapes_quotes_and_counts() {
        let text = json(&res());
        assert!(text.contains("\"schema\": \"fxrz-lint/3\""));
        assert!(text.contains("\\\"hot\\\""));
        assert!(text.contains("\"counts\": {\"active\": 1, \"suppressed\": 0}"));
        assert!(text
            .contains("\"timings_ms\": {\"telemetry_names\": 1.250, \"lock_discipline\": 0.500}"));
        assert!(text.contains("\"total_ms\": 1.750"));
    }
}
