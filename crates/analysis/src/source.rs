//! Per-file lint context: tokens, suppression comments, and
//! `#[cfg(test)]` / `#[test]` spans.

use crate::lexer::{lex, Token};
use std::collections::HashMap;
use std::path::PathBuf;

/// One source file prepared for linting.
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Workspace-relative path with `/` separators (stable across OSes;
    /// used in findings and lint scoping).
    pub rel: String,
    /// True for integration tests / benches (`tests/`, `benches/` dirs).
    pub is_test_file: bool,
    /// Lexed tokens.
    pub tokens: Vec<Token>,
    /// Lints suppressed per line by `// fxrz-lint: allow(<lint>)`.
    line_allows: HashMap<u32, Vec<String>>,
    /// Inclusive line ranges of `#[cfg(test)] mod` bodies and `#[test]`
    /// functions.
    test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lexes and annotates one file.
    pub fn parse(path: PathBuf, rel: String, src: &str) -> Self {
        let (tokens, comments) = lex(src);
        let is_test_file = rel.split('/').any(|seg| seg == "tests" || seg == "benches");
        let mut line_allows: HashMap<u32, Vec<String>> = HashMap::new();
        for c in &comments {
            if let Some(lints) = c.text.split("fxrz-lint:").nth(1).and_then(extract_allow) {
                line_allows.entry(c.line).or_default().extend(lints);
            }
        }
        let test_ranges = find_test_ranges(&tokens);
        Self {
            path,
            rel,
            is_test_file,
            tokens,
            line_allows,
            test_ranges,
        }
    }

    /// True when `line` falls inside test-only code: an integration-test
    /// file, a `#[cfg(test)]` module, or a `#[test]` function.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.is_test_file
            || self
                .test_ranges
                .iter()
                .any(|&(a, b)| line >= a && line <= b)
    }

    /// True when findings of `lint` are suppressed at `line` by an allow
    /// comment on the same line or the line directly above.
    pub fn allowed(&self, lint: &str, line: u32) -> bool {
        for l in [line, line.saturating_sub(1)] {
            if let Some(lints) = self.line_allows.get(&l) {
                if lints.iter().any(|x| x == lint || x == "all") {
                    return true;
                }
            }
        }
        false
    }

    /// Index of the matching closer for the opener at `open` (`(`→`)`,
    /// `[`→`]`, `{`→`}`), or `tokens.len()` when unbalanced.
    pub fn matching(&self, open: usize) -> usize {
        matching(&self.tokens, open)
    }
}

/// See [`SourceFile::matching`]; standalone so lints can use sub-slices.
pub fn matching(tokens: &[Token], open: usize) -> usize {
    let (o, c) = match tokens[open].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return tokens.len(),
    };
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len()
}

/// Parses `allow(a, b)` after the `fxrz-lint:` marker.
fn extract_allow(rest: &str) -> Option<Vec<String>> {
    let after = rest.trim_start().strip_prefix("allow")?;
    let after = after.trim_start().strip_prefix('(')?;
    let inner = after.split(')').next()?;
    Some(
        inner
            .split(',')
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .collect(),
    )
}

/// Finds inclusive line ranges of `#[cfg(test)] mod … { … }` bodies and
/// `#[test] fn … { … }` bodies.
fn find_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            let close = matching(tokens, i + 1);
            let attr = &tokens[i + 2..close.min(tokens.len())];
            let is_cfg_test = attr.first().map(|t| t.is_ident("cfg")).unwrap_or(false)
                && attr.iter().any(|t| t.is_ident("test"));
            let is_test_attr = attr.len() == 1 && attr[0].is_ident("test");
            if is_cfg_test || is_test_attr {
                // Skip any further attributes, then expect `mod`/`fn`
                // followed eventually by a brace-delimited body.
                let mut j = close + 1;
                while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[')
                {
                    j = matching(tokens, j + 1) + 1;
                }
                let is_item = tokens
                    .get(j)
                    .map(|t| t.is_ident("mod") || t.is_ident("fn") || t.is_ident("pub"))
                    .unwrap_or(false);
                if is_item {
                    // First `{` at paren depth 0 opens the body.
                    let mut depth = 0i32;
                    let mut body_open = None;
                    for (k, t) in tokens.iter().enumerate().skip(j) {
                        if t.is_punct('(') {
                            depth += 1;
                        } else if t.is_punct(')') {
                            depth -= 1;
                        } else if t.is_punct('{') && depth == 0 {
                            body_open = Some(k);
                            break;
                        } else if t.is_punct(';') && depth == 0 {
                            break; // `mod tests;` — body is another file
                        }
                    }
                    if let Some(open) = body_open {
                        let end = matching(tokens, open);
                        let end_line = tokens
                            .get(end)
                            .or_else(|| tokens.last())
                            .map(|t| t.line)
                            .unwrap_or(u32::MAX);
                        ranges.push((tokens[i].line, end_line));
                        i = end + 1;
                        continue;
                    }
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse(
            PathBuf::from("/x/lib.rs"),
            "crates/x/src/lib.rs".into(),
            src,
        )
    }

    #[test]
    fn cfg_test_mod_is_test_code() {
        let f = file("fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n");
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn test_fn_is_test_code() {
        let f = file("#[test]\nfn t() {\n    x.unwrap();\n}\nfn real() {}\n");
        assert!(f.in_test_code(3));
        assert!(!f.in_test_code(5));
    }

    #[test]
    fn line_allow_covers_same_and_next_line() {
        let f = file("// fxrz-lint: allow(lock_discipline): serializes the sink\nout.flush();\n");
        assert!(f.allowed("lock_discipline", 2));
        assert!(!f.allowed("lock_discipline", 3));
        assert!(!f.allowed("telemetry_names", 2));
    }

    #[test]
    fn tests_dir_files_are_test_code() {
        let f = SourceFile::parse(
            PathBuf::from("/x/t.rs"),
            "crates/x/tests/t.rs".into(),
            "fn a() {}",
        );
        assert!(f.in_test_code(1));
    }
}
