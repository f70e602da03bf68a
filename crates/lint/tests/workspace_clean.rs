//! The shipped tree itself must be clean — the analyzer's findings
//! are fixed or annotated, never outstanding. Kept apart from the
//! fixture corpus so CI can run the corpus and the clean-tree gate as
//! separate steps with separate failure messages.

use autobal_lint::model::{crate_of, LAYERS};
use autobal_lint::{scan_workspace, SCAN_ROOTS};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn real_workspace_is_clean() {
    let root = workspace_root();
    for sub in SCAN_ROOTS {
        assert!(
            root.join(sub).is_dir(),
            "scan root {sub} missing below {}",
            root.display()
        );
    }
    let findings = scan_workspace(&root).expect("workspace scan succeeds");
    let listing: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert!(
        findings.is_empty(),
        "the workspace must lint clean:\n{}",
        listing.join("\n")
    );
}

/// Every member crate under `crates/` is scanned and pinned in the
/// layer table, and neither list names a crate that does not exist.
/// Rule L skips crates missing from `LAYERS`, so a drift here would
/// leave a crate's imports unchecked without any finding.
#[test]
fn scan_roots_and_layer_table_match_the_crates_on_disk() {
    let root = workspace_root();
    let on_disk: BTreeSet<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .map(|dir| {
            let name = dir.file_name().expect("crate dir name");
            crate_of(&format!("crates/{}/src", name.to_string_lossy())).expect("crate path")
        })
        .collect();
    let scanned: BTreeSet<String> = SCAN_ROOTS
        .iter()
        .filter(|sub| sub.starts_with("crates/"))
        .map(|sub| crate_of(sub).expect("crate path"))
        .collect();
    let pinned: BTreeSet<String> = LAYERS
        .iter()
        .map(|(name, _)| name.to_string())
        .filter(|name| name != "autobal")
        .collect();
    assert_eq!(scanned, on_disk, "SCAN_ROOTS vs crates/*/Cargo.toml");
    assert_eq!(pinned, on_disk, "LAYERS vs crates/*/Cargo.toml");
}
