//! **telemetry_names** — metric/span names must be well-formed and come
//! from each crate's `names` inventory module.
//!
//! A typo'd metric name doesn't fail anything at runtime — it silently
//! creates a new series and the dashboard reads zero forever. This lint
//! makes the per-crate `pub mod names` const modules the single source
//! of truth: every string literal passed to a telemetry API
//! (`incr`, `observe`, `counter`, `span!`, …) must match
//! `[a-z0-9_.]+` and resolve against some inventory template. Templates
//! may contain `{placeholder}` segments (used at `format!` call sites,
//! which require literal format strings and therefore can't name the
//! const directly); a placeholder matches one run of `[a-z0-9_]+`.
//! Positional `{}` placeholders are rejected — the placeholder name is
//! the only documentation a series' dynamic segment gets.
//!
//! `.span(…)`/`.record_span(…)` registry *lookups* are exempt: they
//! address `/`-joined span paths, a different namespace.

use crate::lexer::{TokKind, Token};
use crate::source::SourceFile;
use crate::{Finding, Lint, Workspace};

/// Telemetry entry points whose first string-literal argument is a
/// metric or span name.
const API: &[&str] = &[
    "incr",
    "add",
    "observe",
    "observe_duration",
    "hdr",
    "set_gauge",
    "counter",
    "gauge",
    "histogram",
    "spanned",
    "enter",
];

/// See module docs.
pub struct TelemetryNames;

impl Lint for TelemetryNames {
    fn name(&self) -> &'static str {
        "telemetry_names"
    }

    fn description(&self) -> &'static str {
        "telemetry name literals must match [a-z0-9_.]+ and resolve against the names inventory"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let mut inventory: Vec<String> = Vec::new();
        for f in &ws.files {
            collect_inventory(f, &mut inventory);
        }
        for f in &ws.files {
            // The telemetry crate itself registers arbitrary names in its
            // own tests; the analysis crate only talks about names.
            if f.rel.starts_with("crates/telemetry/") || f.rel.starts_with("crates/analysis/") {
                continue;
            }
            let t = &f.tokens;
            for i in 0..t.len() {
                let Some(arg) = name_argument(t, i) else {
                    continue;
                };
                match arg {
                    NameArg::Literal(tok) => {
                        check_literal(self.name(), f, tok, &inventory, out);
                    }
                    NameArg::FormatTemplate(tok) => {
                        check_template(self.name(), f, tok, &inventory, out);
                    }
                }
            }
        }
    }
}

enum NameArg<'a> {
    /// `incr("codec.rle.runs", …)`
    Literal(&'a Token),
    /// `incr(&format!("serve.op.{op}.count"), …)`
    FormatTemplate(&'a Token),
}

/// Detects a telemetry call at token `i` and returns its name argument.
fn name_argument<'a>(t: &'a [Token], i: usize) -> Option<NameArg<'a>> {
    let is_span_macro = t[i].is_ident("span")
        && t.get(i + 1).map(|x| x.is_punct('!')).unwrap_or(false)
        && t.get(i + 2).map(|x| x.is_punct('(')).unwrap_or(false);
    let is_api_call = t[i].kind == TokKind::Ident
        && API.contains(&t[i].text.as_str())
        && t.get(i + 1).map(|x| x.is_punct('(')).unwrap_or(false);
    let mut j = if is_span_macro {
        i + 3
    } else if is_api_call {
        i + 2
    } else {
        return None;
    };
    while t.get(j).map(|x| x.is_punct('&')).unwrap_or(false) {
        j += 1;
    }
    let first = t.get(j)?;
    if first.kind == TokKind::Str {
        return Some(NameArg::Literal(first));
    }
    if first.is_ident("format")
        && t.get(j + 1).map(|x| x.is_punct('!')).unwrap_or(false)
        && t.get(j + 2).map(|x| x.is_punct('(')).unwrap_or(false)
        && t.get(j + 3)
            .map(|x| x.kind == TokKind::Str)
            .unwrap_or(false)
    {
        return Some(NameArg::FormatTemplate(&t[j + 3]));
    }
    None
}

fn check_literal(
    lint: &'static str,
    f: &SourceFile,
    tok: &Token,
    inventory: &[String],
    out: &mut Vec<Finding>,
) {
    let name = &tok.text;
    if !name
        .bytes()
        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'.')
    {
        out.push(Finding {
            lint,
            file: f.rel.clone(),
            line: tok.line,
            message: format!("telemetry name \"{name}\" must match [a-z0-9_.]+"),
        });
        return;
    }
    if !inventory.is_empty() && !inventory.iter().any(|tmpl| template_match(tmpl, name)) {
        out.push(Finding {
            lint,
            file: f.rel.clone(),
            line: tok.line,
            message: format!(
                "telemetry name \"{name}\" is not in any `names` inventory module \
                 (typo, or add the const)"
            ),
        });
    }
}

fn check_template(
    lint: &'static str,
    f: &SourceFile,
    tok: &Token,
    inventory: &[String],
    out: &mut Vec<Finding>,
) {
    let tmpl = &tok.text;
    if tmpl.contains("{}") {
        out.push(Finding {
            lint,
            file: f.rel.clone(),
            line: tok.line,
            message: format!(
                "telemetry template \"{tmpl}\" uses a positional {{}} placeholder; \
                 name it (e.g. {{op}}) so the dynamic segment is self-describing"
            ),
        });
        return;
    }
    if !tmpl.bytes().all(|b| {
        b.is_ascii_lowercase() || b.is_ascii_digit() || matches!(b, b'_' | b'.' | b'{' | b'}')
    }) {
        out.push(Finding {
            lint,
            file: f.rel.clone(),
            line: tok.line,
            message: format!("telemetry template \"{tmpl}\" must match [a-z0-9_.]+ per segment"),
        });
        return;
    }
    if !inventory.is_empty() && !inventory.iter().any(|t| t == tmpl) {
        out.push(Finding {
            lint,
            file: f.rel.clone(),
            line: tok.line,
            message: format!(
                "telemetry template \"{tmpl}\" has no identical const in a `names` \
                 inventory module"
            ),
        });
    }
}

/// Collects `const NAME: &str = "…";` literals from `mod names { … }`
/// blocks (and whole `names.rs` files) into the inventory.
fn collect_inventory(f: &SourceFile, inventory: &mut Vec<String>) {
    let t = &f.tokens;
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    if f.rel.ends_with("/names.rs") {
        ranges.push((0, t.len()));
    }
    for i in 0..t.len() {
        if t[i].is_ident("mod")
            && t.get(i + 1).map(|x| x.is_ident("names")).unwrap_or(false)
            && t.get(i + 2).map(|x| x.is_punct('{')).unwrap_or(false)
        {
            ranges.push((i + 3, f.matching(i + 2)));
        }
    }
    for (start, end) in ranges {
        let mut i = start;
        while i < end.min(t.len()) {
            if t[i].is_ident("const") {
                let mut j = i + 1;
                while j < end && !t[j].is_punct(';') {
                    if t[j].kind == TokKind::Str {
                        inventory.push(t[j].text.clone());
                        break;
                    }
                    j += 1;
                }
                i = j;
            }
            i += 1;
        }
    }
}

/// Matches `name` against `template`, where each `{placeholder}` stands
/// for one nonempty run of `[a-z0-9_]`.
pub fn template_match(template: &str, name: &str) -> bool {
    fn m(t: &[u8], s: &[u8]) -> bool {
        let Some(&first) = t.first() else {
            return s.is_empty();
        };
        if first == b'{' {
            let Some(close) = t.iter().position(|&c| c == b'}') else {
                return false;
            };
            let rest = &t[close + 1..];
            for k in 1..=s.len() {
                let c = s[k - 1];
                if !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_') {
                    break;
                }
                if m(rest, &s[k..]) {
                    return true;
                }
            }
            false
        } else {
            !s.is_empty() && first == s[0] && m(&t[1..], &s[1..])
        }
    }
    m(template.as_bytes(), name.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_lint, workspace_of};

    const NAMES: &str = "pub mod names {\n    pub const RLE_RUNS: &str = \"codec.rle.runs\";\n    pub const PER_OP: &str = \"serve.op.{op}.count\";\n}\n";

    #[test]
    fn template_matching() {
        assert!(template_match("codec.rle.runs", "codec.rle.runs"));
        assert!(template_match(
            "serve.op.{op}.count",
            "serve.op.compress.count"
        ));
        assert!(template_match(
            "compressor.{n}.{d}.ns",
            "compressor.sz.decompress.ns"
        ));
        assert!(!template_match("serve.op.{op}.count", "serve.op..count"));
        assert!(!template_match(
            "serve.op.{op}.count",
            "serve.op.compress.ns"
        ));
        assert!(!template_match("codec.rle.runs", "codec.rle.run"));
    }

    #[test]
    fn fires_on_unknown_and_malformed_names() {
        let ws = workspace_of(&[
            ("crates/codec/src/names.rs", NAMES),
            (
                "crates/codec/src/lib.rs",
                "fn f() {\n    incr(\"codec.rle.rums\", 1);\n    incr(\"Codec.RLE\", 1);\n}\n",
            ),
        ]);
        let (active, _) = run_lint(&TelemetryNames, &ws);
        assert_eq!(active.len(), 2);
        assert!(active[0].message.contains("rums"));
        assert!(active[1].message.contains("[a-z0-9_.]+"));
    }

    #[test]
    fn fires_on_positional_placeholder_and_unknown_template() {
        let ws = workspace_of(&[
            ("crates/serve/src/names.rs", NAMES),
            (
                "crates/serve/src/server.rs",
                "fn f(op: &str) {\n    incr(&format!(\"serve.op.{}.count\", op), 1);\n    incr(&format!(\"serve.op.{op}.ns\"), 1);\n}\n",
            ),
        ]);
        let (active, _) = run_lint(&TelemetryNames, &ws);
        assert_eq!(active.len(), 2);
        assert!(active[0].message.contains("positional"));
        assert!(active[1].message.contains("no identical const"));
    }

    #[test]
    fn clean_on_inventory_names_and_exempt_lookups() {
        let ws = workspace_of(&[
            ("crates/codec/src/names.rs", NAMES),
            (
                "crates/codec/src/lib.rs",
                "fn f(reg: &Registry, op: &str) {\n    incr(\"codec.rle.runs\", 1);\n    incr(&format!(\"serve.op.{op}.count\"), 1);\n    reg.span(\"compress/codec\");\n}\n",
            ),
        ]);
        assert!(run_lint(&TelemetryNames, &ws).0.is_empty());
    }

    #[test]
    fn allow_comment_suppresses() {
        let ws = workspace_of(&[
            ("crates/codec/src/names.rs", NAMES),
            (
                "crates/codec/src/lib.rs",
                "fn f() {\n    // fxrz-lint: allow(telemetry_names): experimental series\n    incr(\"codec.experimental\", 1);\n}\n",
            ),
        ]);
        let (active, suppressed) = run_lint(&TelemetryNames, &ws);
        assert!(active.is_empty());
        assert_eq!(suppressed.len(), 1);
    }
}
