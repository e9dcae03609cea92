//! Every first-party manifest opts into the workspace lint table.

use std::path::Path;

#[test]
fn every_first_party_manifest_inherits_workspace_lints() {
    // The unsafe audit and clippy's SAFETY-comment rule live in
    // `[workspace.lints]`; they only bind a package that opts in, so a
    // new crate without `[lints] workspace = true` would escape them.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
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
