//! The self-hosting test: the real workspace must lint clean. This is the
//! same walk the `ham-lint` binary performs, run in-process so `cargo test`
//! catches a regression even where CI's `static-analysis` job is skipped.

use std::path::Path;

use ham_analysis::lint_workspace_files;
use ham_analysis::scan::workspace_sources;

#[test]
fn the_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root");
    let sources = workspace_sources(&root).expect("readable workspace");
    assert!(sources.linted.len() >= 100, "the walk found only {} files — wrong root?", sources.linted.len());
    assert!(sources.readers.len() >= 20, "the walk found only {} reader files", sources.readers.len());

    let findings = lint_workspace_files(&sources.linted, &sources.readers);
    let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert!(findings.is_empty(), "the workspace must lint clean:\n{}", rendered.join("\n"));
}
