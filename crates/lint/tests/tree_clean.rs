//! Meta-test: the live tree is lint-clean, and the hot-path markers the
//! kernel tier relies on are actually present. This is the in-repo twin
//! of the CI gate (`cargo run --release -p palc_lint -- --check`): a PR
//! that introduces an unannotated violation fails here first.

use std::path::{Path, PathBuf};

use palc_lint::lint_tree;

fn workspace_root() -> PathBuf {
    // crates/lint → crates → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

#[test]
fn live_tree_is_lint_clean() {
    let report = lint_tree(&workspace_root()).expect("tree walk");
    assert!(report.files > 50, "walker should see the whole workspace, saw {}", report.files);
    let rendered: Vec<String> = report.violations.iter().map(ToString::to_string).collect();
    assert!(
        report.violations.is_empty(),
        "the tree must be lint-clean; fix or annotate:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn kernel_hot_paths_are_marked() {
    // The transcendental rule is region-gated; losing the markers would
    // silently disarm it on the code it was written for.
    let root = workspace_root();
    for (file, expect_regions) in
        [("crates/core/src/channel.rs", 3), ("crates/scene/src/object.rs", 2)]
    {
        let source = std::fs::read_to_string(root.join(file)).expect(file);
        let opens = source.matches("// palc_lint: hot-path").count();
        let closes = source.matches("// palc_lint: end hot-path").count();
        assert_eq!(opens, expect_regions, "{file}: hot-path markers");
        assert_eq!(closes, expect_regions, "{file}: end markers");
    }
}
