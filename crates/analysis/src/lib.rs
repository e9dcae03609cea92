//! # fxrz-analysis (`fxrz-lint`) — workspace-aware static analysis
//!
//! A from-scratch, zero-dependency lint pass over the workspace's own
//! Rust source. It machine-checks the two contracts that depend on
//! facts only this repository knows, which clippy cannot express:
//!
//! * **telemetry_names** — every metric and span name comes from its
//!   crate's `names` module;
//! * **lock_discipline** — no blocking work or second lock under a held
//!   guard, and no lock-order cycles.
//!
//! Determinism (`disallowed-types` in the output-affecting crates'
//! `clippy.toml`), panic-free decoding (clippy's panic lints denied in
//! the untrusted-input modules), the `unsafe` audit (workspace
//! `[lints]`) and the serve protocol's op table (one `macro_rules!`
//! row per op, `#[repr]` enums, clippy's wildcard-arm lints) are
//! enforced by rustc and clippy instead. That no decoder of untrusted
//! bytes panics or over-allocates is measured, not guessed:
//! `tests/hostile_input.rs` runs every decoder through one mutation
//! schedule under a counting allocator.
//!
//! Architecture: [`lexer`] tokenizes (comment- and string-aware),
//! [`source`] adds per-file context (suppressions, test spans), each
//! lint in [`lints`] walks the token streams, and [`report`] renders
//! human or JSON output. Suppression is by comment —
//! `// fxrz-lint: allow(<lint>): <justification>` on or directly above
//! the offending line.
//!
//! Run as `cargo run -p fxrz-analysis` or `fxrz lint`. Exit status is
//! nonzero iff any non-suppressed finding remains. See DESIGN.md
//! § "Static analysis" for the lint catalog and how to add a lint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod source;

use source::SourceFile;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Lint name (`telemetry_names` or `lock_discipline`).
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
    /// Stable snake_case name used in reports and `allow(...)` comments.
    fn name(&self) -> &'static str;
    /// One-line description for `--list` and the docs.
    fn description(&self) -> &'static str;
    /// Emits raw findings (suppression filtering happens in the runner).
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// All registered lints, in reporting order.
pub fn all_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(lints::telemetry_names::TelemetryNames),
        Box::new(lints::lock_discipline::LockDiscipline),
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
        let mut files = Vec::new();
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| "path outside root".to_owned())?
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            let src =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            files.push(SourceFile::parse(path, rel, &src));
        }
        Ok(Self {
            root: root.to_owned(),
            files,
        })
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

/// Outcome of one analysis run.
pub struct AnalysisResult {
    /// Active (non-suppressed) findings. Non-empty fails CI.
    pub findings: Vec<Finding>,
    /// Findings silenced by `// fxrz-lint: allow(...)` comments.
    pub suppressed: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Wall time per lint, in milliseconds, in registration order.
    pub timings_ms: Vec<(String, f64)>,
    /// Total analysis wall time, in milliseconds.
    pub total_ms: f64,
}

/// Runs every registered lint over the workspace at `root`, filtering
/// suppressed findings.
///
/// # Errors
/// Fails when the workspace cannot be read.
pub fn analyze(root: &Path) -> Result<AnalysisResult, String> {
    let ws = Workspace::load(root)?;
    Ok(analyze_workspace(&ws))
}

/// [`analyze`] over an already-loaded workspace (tests use this to lint
/// synthetic in-memory trees).
pub fn analyze_workspace(ws: &Workspace) -> AnalysisResult {
    let t0 = std::time::Instant::now();
    let mut timings_ms = Vec::new();
    let mut raw = Vec::new();
    for lint in all_lints() {
        let t = std::time::Instant::now();
        lint.check(ws, &mut raw);
        timings_ms.push((lint.name().to_owned(), ms_since(t)));
    }
    raw.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    let (suppressed, findings) = split_suppressed(ws, raw);
    AnalysisResult {
        findings,
        suppressed,
        files_scanned: ws.files.len(),
        timings_ms,
        total_ms: ms_since(t0),
    }
}

/// Partitions raw findings into `(suppressed, active)` by the files'
/// `// fxrz-lint: allow(...)` comments.
fn split_suppressed(ws: &Workspace, raw: Vec<Finding>) -> (Vec<Finding>, Vec<Finding>) {
    raw.into_iter().partition(|f| {
        ws.file(&f.file)
            .is_some_and(|sf| sf.allowed(f.lint, f.line))
    })
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
    /// lint scoping (e.g. `crates/serve/src/protocol.rs`).
    pub fn workspace(rel: &str, src: &str) -> Workspace {
        workspace_of(&[(rel, src)])
    }

    /// Multi-file variant of [`workspace`].
    pub fn workspace_of(files: &[(&str, &str)]) -> Workspace {
        let files = files
            .iter()
            .map(|(rel, src)| {
                SourceFile::parse(PathBuf::from(format!("/ws/{rel}")), (*rel).to_owned(), src)
            })
            .collect();
        Workspace {
            root: PathBuf::from("/ws"),
            files,
        }
    }

    /// Runs one lint over a synthetic workspace, applying suppressions
    /// the way the real runner does.
    pub fn run_lint(lint: &dyn Lint, ws: &Workspace) -> (Vec<Finding>, Vec<Finding>) {
        let mut raw = Vec::new();
        lint.check(ws, &mut raw);
        let (suppressed, active) = split_suppressed(ws, raw);
        (active, suppressed)
    }
}
