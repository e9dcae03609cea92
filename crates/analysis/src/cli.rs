//! Shared command-line driver for the lint pass.
//!
//! Both entry points — the standalone `fxrz-lint` binary and the
//! `fxrz lint` subcommand of the main CLI — parse the same flags and
//! run this driver, so their behaviour (flags, output, exit codes)
//! cannot drift apart.
//!
//! ```text
//! [--root DIR] [--format human|json] [--list]
//! ```
//!
//! Exit status is 0 when no active (non-suppressed) finding remains, 1
//! when findings exist, 2 on usage or I/O errors.

use std::path::PathBuf;

use crate::{all_lints, analyze, find_workspace_root, report};

/// Parsed command-line options for the lint driver.
pub struct Opts {
    /// Workspace root to scan; discovered from the cwd when absent.
    pub root: Option<PathBuf>,
    /// Emit machine-readable JSON instead of the human report.
    pub json: bool,
    /// List registered lints and exit.
    pub list: bool,
}

/// Flag summary shown on usage errors (`PROG` is substituted by the
/// caller's program name).
pub const USAGE: &str = "usage: PROG [--root DIR] [--format human|json] [--list]";

/// Parses driver flags. `prog` names the binary in error messages.
///
/// # Errors
/// Returns the message to print on stderr (usage or bad flag).
pub fn parse(prog: &str, args: &[String]) -> Result<Opts, String> {
    let usage = USAGE.replace("PROG", prog);
    let mut opts = Opts {
        root: None,
        json: false,
        list: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--format" => match it.next().map(String::as_str) {
                Some("human") => opts.json = false,
                Some("json") => opts.json = true,
                _ => return Err("--format takes `human` or `json`".into()),
            },
            "--list" => opts.list = true,
            "--help" | "-h" => return Err(usage),
            other => return Err(format!("unknown flag `{other}`\n{usage}")),
        }
    }
    Ok(opts)
}

/// Runs the lint pass as a CLI would: parses `args`, scans, reports on
/// stdout/stderr, and returns the process exit code (0 clean, 1
/// findings, 2 usage or I/O errors).
pub fn run(prog: &str, args: &[String]) -> u8 {
    let opts = match parse(prog, args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    if opts.list {
        for lint in all_lints() {
            println!("{:<16} {}", lint.name(), lint.description());
        }
        return 0;
    }
    let root = opts.root.or_else(|| {
        let cwd = std::env::current_dir().ok()?;
        find_workspace_root(&cwd)
    });
    let Some(root) = root else {
        eprintln!("{prog}: no workspace root found (run inside the repo or pass --root)");
        return 2;
    };
    let res = match analyze(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{prog}: {e}");
            return 2;
        }
    };
    if opts.json {
        print!("{}", report::json(&res));
    } else {
        print!("{}", report::human(&res));
    }
    u8::from(!res.findings.is_empty())
}
