//! The repository must lint clean: zero active findings. This is the
//! same gate CI runs; a failure here means a contract regression (or a
//! new finding that needs a justified `// fxrz-lint: allow(...)`).

use std::path::Path;

use fxrz_analysis::analyze;

fn repo_root() -> &'static Path {
    // crates/analysis -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

#[test]
fn repository_lints_clean() {
    let res = analyze(repo_root()).expect("workspace scan");
    assert!(
        res.files_scanned > 50,
        "scan looks truncated: only {} files",
        res.files_scanned
    );
    assert!(
        res.findings.is_empty(),
        "active lint findings:\n{}",
        res.findings
            .iter()
            .map(|f| format!("  {}:{}: [{}] {}", f.file, f.line, f.lint, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_lints_include_the_graph_pass() {
    // The two-pass analysis really ran: the index pass and every
    // registered lint (including the workspace-graph ones) report a
    // timing entry, and the whole run stays fast enough to gate CI.
    let res = analyze(repo_root()).expect("workspace scan");
    for pass in ["index", "lock_discipline", "alloc_bounds"] {
        assert!(
            res.timings_ms.iter().any(|(name, _)| name == pass),
            "missing timing entry for `{pass}`: {:?}",
            res.timings_ms
        );
    }
    assert!(
        res.total_ms < 30_000.0,
        "lint pass took {:.0}ms — the index pass must not make the gate slow",
        res.total_ms
    );
}

#[test]
fn suppressions_stay_justified() {
    // Every in-tree suppression carries a `:` justification tail; the
    // count is pinned so new allows are a conscious, reviewed choice.
    let res = analyze(repo_root()).expect("workspace scan");
    assert!(
        res.suppressed.len() <= 6,
        "suppression budget exceeded ({} allows) — fix findings instead of \
         accumulating allows, or raise the budget in a reviewed change",
        res.suppressed.len()
    );
}

#[test]
fn every_first_party_manifest_inherits_workspace_lints() {
    // The unsafe audit and clippy's SAFETY-comment rule live in
    // `[workspace.lints]`; they only bind a package that opts in, so a
    // new crate without `[lints] workspace = true` would escape them.
    let root = repo_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let manifest = entry.expect("crates entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "manifest scan looks truncated");
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).expect("read manifest");
        let inherits = text
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[lints]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .any(|l| l.replace(' ', "") == "workspace=true");
        assert!(
            inherits,
            "{} must set `[lints] workspace = true`",
            manifest.display()
        );
    }
}
