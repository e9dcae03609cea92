//! # fxrz-analysis (`fxrz-lint`) — workspace-aware static analysis
//!
//! A from-scratch, zero-dependency lint pass over the workspace's own
//! Rust source. It machine-checks the three contracts the rest of the
//! codebase only promises in prose:
//!
//! * **determinism** — output-affecting crates must be a reproducible
//!   function of their inputs (no `HashMap` iteration order, no clocks,
//!   no ambient randomness);
//! * **untrusted input** — the serve wire protocol and archive decoders
//!   must return typed errors (never panic) and must cap every
//!   wire-derived length before allocating from it;
//! * **unsafe audit** — every `unsafe` site carries a `// SAFETY:`
//!   justification, and the per-crate `forbid(unsafe_code)` /
//!   `deny(unsafe_op_in_unsafe_fn)` inventory stays intact;
//! * **concurrency & wire contracts** — no blocking work or second
//!   locks under a held guard, no lock-order cycles, and the wire
//!   protocol's op/error constants stay single-sourced and handled
//!   on both ends of the socket.
//!
//! Architecture: [`lexer`] tokenizes (comment- and string-aware),
//! [`source`] adds per-file context (suppressions, test spans), an
//! **index pass** ([`graph`]) builds the workspace symbol graph
//! (functions, consts, enums, call edges) in one walk, each lint in
//! [`lints`] checks the token stream and/or the graph, and [`report`]
//! renders human or JSON output. Suppression is by comment —
//! `// fxrz-lint: allow(<lint>): <justification>` on or directly above
//! the offending line, or `allow-file(<lint>)` anywhere in the file —
//! plus a checked-in baseline file for grandfathered findings.
//!
//! Run as `cargo run -p fxrz-analysis` or `fxrz lint`. Exit status is
//! nonzero iff any non-suppressed, non-baselined finding remains. See
//! DESIGN.md § "Static analysis" for the lint catalog and how to add a
//! lint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod graph;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod source;

use graph::SymbolGraph;
use source::SourceFile;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Lint name (`determinism`, `unsafe_audit`, …).
    pub lint: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What went wrong and what the contract demands instead.
    pub message: String,
}

/// A lint rule over the prepared workspace.
pub trait Lint {
    /// Stable snake_case name used in reports, `allow(...)` comments and
    /// the baseline file.
    fn name(&self) -> &'static str;
    /// One-line description for `--list` and the docs.
    fn description(&self) -> &'static str;
    /// Emits raw findings (suppression/baseline filtering happens in the
    /// runner). `graph` is the shared index-pass output — per-file lints
    /// may ignore it; workspace lints walk its symbols and call edges.
    fn check(&self, ws: &Workspace, graph: &SymbolGraph, out: &mut Vec<Finding>);
}

/// All registered lints, in reporting order.
pub fn all_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(lints::determinism::Determinism),
        Box::new(lints::unsafe_audit::UnsafeAudit),
        Box::new(lints::panic_path::PanicPath),
        Box::new(lints::alloc_bounds::AllocBounds),
        Box::new(lints::telemetry_names::TelemetryNames),
        Box::new(lints::lock_discipline::LockDiscipline),
        Box::new(lints::wire_protocol::WireProtocol),
    ]
}

/// The prepared workspace: every first-party `.rs` file, lexed.
pub struct Workspace {
    /// Workspace root (the directory holding the `[workspace]` manifest).
    pub root: PathBuf,
    /// Files in deterministic (path-sorted) order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads the workspace rooted at `root`: all `.rs` files under
    /// `crates/`, `src/`, `tests/` and `examples/`, skipping `target/`,
    /// `vendor/` (API stand-ins, not first-party code) and VCS metadata.
    ///
    /// # Errors
    /// Returns a description of the first unreadable file or directory.
    pub fn load(root: &Path) -> Result<Self, String> {
        let mut paths = Vec::new();
        for top in ["crates", "src", "tests", "examples"] {
            let dir = root.join(top);
            if dir.is_dir() {
                collect_rs(&dir, &mut paths)?;
            }
        }
        paths.sort();
        let mut crate_names: HashMap<String, String> = HashMap::new();
        let mut files = Vec::new();
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| "path outside root".to_owned())?
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            let crate_name = crate_of(root, &rel, &mut crate_names)?;
            let src =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            files.push(SourceFile::parse(path, rel, crate_name, &src));
        }
        Ok(Self {
            root: root.to_owned(),
            files,
        })
    }

    /// Files belonging to a package.
    pub fn files_of<'a>(&'a self, crate_name: &'a str) -> impl Iterator<Item = &'a SourceFile> {
        self.files
            .iter()
            .filter(move |f| f.crate_name == crate_name)
    }

    /// Looks a file up by its workspace-relative path.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if matches!(name.as_str(), "target" | "vendor" | ".git") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Resolves the owning package of a workspace-relative path: the
/// `name = "…"` of `crates/<dir>/Cargo.toml`, or `fxrz` (the facade) for
/// everything else.
fn crate_of(root: &Path, rel: &str, cache: &mut HashMap<String, String>) -> Result<String, String> {
    let Some(dir) = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
    else {
        return Ok("fxrz".to_owned());
    };
    if let Some(name) = cache.get(dir) {
        return Ok(name.clone());
    }
    let manifest = root.join("crates").join(dir).join("Cargo.toml");
    let text =
        std::fs::read_to_string(&manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let name = text
        .lines()
        .find_map(|l| {
            let l = l.trim();
            let rest = l.strip_prefix("name")?.trim_start().strip_prefix('=')?;
            Some(rest.trim().trim_matches('"').to_owned())
        })
        .unwrap_or_else(|| dir.to_owned());
    cache.insert(dir.to_owned(), name.clone());
    Ok(name)
}

/// Grandfathered findings loaded from the baseline file. Format: one
/// finding per line, `lint-name path.rs:line`, `#` comments allowed.
#[derive(Default)]
pub struct Baseline {
    entries: Vec<(String, String, u32)>,
}

impl Baseline {
    /// Parses baseline text (see type docs for the format).
    pub fn parse(text: &str) -> Self {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(lint), Some(loc)) = (parts.next(), parts.next()) else {
                continue;
            };
            let Some((file, ln)) = loc.rsplit_once(':') else {
                continue;
            };
            let Ok(ln) = ln.parse() else { continue };
            entries.push((lint.to_owned(), file.to_owned(), ln));
        }
        Self { entries }
    }

    /// Loads the baseline file if present; an absent file is an empty
    /// baseline.
    pub fn load(path: &Path) -> Self {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::parse(&text),
            Err(_) => Self::default(),
        }
    }

    /// True when a finding is grandfathered.
    pub fn contains(&self, f: &Finding) -> bool {
        self.entries
            .iter()
            .any(|(l, p, n)| l == f.lint && p == &f.file && *n == f.line)
    }

    /// Serializes findings in baseline format.
    pub fn render(findings: &[Finding]) -> String {
        let mut out = String::from(
            "# fxrz-lint baseline: grandfathered findings (lint path:line per line).\n\
             # Regenerate with `fxrz lint --update-baseline`; shrink it, never grow it.\n",
        );
        for f in findings {
            out.push_str(&format!("{} {}:{}\n", f.lint, f.file, f.line));
        }
        out
    }

    /// Number of grandfathered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the baseline holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Baseline entries that match none of `raw` (the unfiltered finding
    /// list) — stale grandfathering that should be deleted. Rendered as
    /// `lint file:line`, the baseline's own format.
    pub fn stale(&self, raw: &[Finding]) -> Vec<String> {
        self.entries
            .iter()
            .filter(|(l, p, n)| {
                !raw.iter()
                    .any(|f| l == f.lint && p == &f.file && *n == f.line)
            })
            .map(|(l, p, n)| format!("{l} {p}:{n}"))
            .collect()
    }
}

/// Outcome of one analysis run.
pub struct AnalysisResult {
    /// Active findings: not suppressed, not baselined. Non-empty fails CI.
    pub findings: Vec<Finding>,
    /// Findings silenced by `// fxrz-lint: allow(...)` comments.
    pub suppressed: Vec<Finding>,
    /// Findings silenced by the baseline file.
    pub baselined: Vec<Finding>,
    /// Baseline entries that no longer fire (`lint file:line`). Treated
    /// like findings by the CLI exit code: suppressions may only shrink,
    /// so a fixed finding must also drop its grandfather entry.
    pub stale_baseline: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Wall time per pass, in milliseconds: the `index` (symbol graph)
    /// entry first, then one entry per lint in registration order.
    pub timings_ms: Vec<(String, f64)>,
    /// Total analysis wall time (index + all lints), in milliseconds.
    pub total_ms: f64,
}

/// Runs every registered lint over the workspace at `root`, filtering
/// suppressed and baselined findings.
///
/// # Errors
/// Fails when the workspace cannot be read.
pub fn analyze(root: &Path, baseline: &Baseline) -> Result<AnalysisResult, String> {
    let ws = Workspace::load(root)?;
    Ok(analyze_workspace(&ws, baseline))
}

/// [`analyze`] over an already-loaded workspace (tests use this to lint
/// synthetic in-memory trees).
pub fn analyze_workspace(ws: &Workspace, baseline: &Baseline) -> AnalysisResult {
    let t0 = std::time::Instant::now();
    let mut timings_ms = Vec::new();
    let graph = SymbolGraph::build(ws);
    timings_ms.push(("index".to_owned(), ms_since(t0)));
    let mut raw = Vec::new();
    for lint in all_lints() {
        let t = std::time::Instant::now();
        lint.check(ws, &graph, &mut raw);
        timings_ms.push((lint.name().to_owned(), ms_since(t)));
    }
    raw.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    let stale_baseline = baseline.stale(&raw);
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    let mut baselined = Vec::new();
    for f in raw {
        let allowed = ws
            .file(&f.file)
            .map(|sf| sf.allowed(f.lint, f.line))
            .unwrap_or(false);
        if allowed {
            suppressed.push(f);
        } else if baseline.contains(&f) {
            baselined.push(f);
        } else {
            findings.push(f);
        }
    }
    AnalysisResult {
        findings,
        suppressed,
        baselined,
        stale_baseline,
        files_scanned: ws.files.len(),
        timings_ms,
        total_ms: ms_since(t0),
    }
}

fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Walks upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_owned();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Builds a one-file workspace for lint unit tests. `rel` controls
    /// crate attribution and scoping (e.g. `crates/codec/src/lib.rs`
    /// maps to the package named in CRATE_DIRS below).
    pub fn workspace(rel: &str, src: &str) -> Workspace {
        workspace_of(&[(rel, src)])
    }

    /// Multi-file variant of [`workspace`].
    pub fn workspace_of(files: &[(&str, &str)]) -> Workspace {
        // Mirror of the real `crates/<dir>` → package-name mapping so
        // fixtures don't need Cargo.tomls on disk.
        const CRATE_DIRS: &[(&str, &str)] = &[
            ("archive", "fxrz-archive"),
            ("bench", "fxrz-bench"),
            ("codec", "fxrz-codec"),
            ("compressors", "fxrz-compressors"),
            ("datagen", "fxrz-datagen"),
            ("fraz", "fxrz-fraz"),
            ("fxrz-core", "fxrz-core"),
            ("ml", "fxrz-ml"),
            ("parallel", "fxrz-parallel"),
            ("parallel-io", "fxrz-parallel-io"),
            ("serve", "fxrz-serve"),
            ("stream", "fxrz-stream"),
            ("telemetry", "fxrz-telemetry"),
            ("analysis", "fxrz-analysis"),
        ];
        let sources = files
            .iter()
            .map(|(rel, src)| {
                let dir = rel
                    .strip_prefix("crates/")
                    .and_then(|r| r.split('/').next());
                let crate_name = dir
                    .and_then(|d| CRATE_DIRS.iter().find(|(k, _)| *k == d))
                    .map(|(_, v)| (*v).to_owned())
                    .unwrap_or_else(|| "fxrz".to_owned());
                SourceFile::parse(
                    PathBuf::from(format!("/ws/{rel}")),
                    (*rel).to_owned(),
                    crate_name,
                    src,
                )
            })
            .collect();
        Workspace {
            root: PathBuf::from("/ws"),
            files: sources,
        }
    }

    /// Runs one lint over a synthetic workspace, applying suppressions
    /// the way the real runner does.
    pub fn run_lint(lint: &dyn Lint, ws: &Workspace) -> (Vec<Finding>, Vec<Finding>) {
        let graph = SymbolGraph::build(ws);
        let mut raw = Vec::new();
        lint.check(ws, &graph, &mut raw);
        let mut active = Vec::new();
        let mut suppressed = Vec::new();
        for f in raw {
            if ws
                .file(&f.file)
                .map(|sf| sf.allowed(f.lint, f.line))
                .unwrap_or(false)
            {
                suppressed.push(f);
            } else {
                active.push(f);
            }
        }
        (active, suppressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_roundtrip_and_matching() {
        let f = Finding {
            lint: "determinism",
            file: "crates/fraz/src/lib.rs".into(),
            line: 17,
            message: "x".into(),
        };
        let text = Baseline::render(std::slice::from_ref(&f));
        let b = Baseline::parse(&text);
        assert_eq!(b.len(), 1);
        assert!(b.contains(&f));
        let other = Finding { line: 18, ..f };
        assert!(!b.contains(&other));
    }

    #[test]
    fn baseline_ignores_comments_and_junk() {
        let b = Baseline::parse("# header\n\nnot-a-valid-line\npanic_path a.rs:q\n");
        assert!(b.is_empty());
    }

    #[test]
    fn stale_entries_are_the_ones_no_raw_finding_matches() {
        let live = Finding {
            lint: "determinism",
            file: "crates/fraz/src/lib.rs".into(),
            line: 17,
            message: "x".into(),
        };
        let b = Baseline::parse(
            "determinism crates/fraz/src/lib.rs:17\npanic_path crates/serve/src/server.rs:3\n",
        );
        let stale = b.stale(std::slice::from_ref(&live));
        assert_eq!(
            stale,
            vec!["panic_path crates/serve/src/server.rs:3".to_owned()]
        );
        assert!(b.stale(&[]).len() == 2);
    }
}
