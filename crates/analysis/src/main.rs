//! `ham-lint`: walk the workspace, run every rule, exit nonzero on
//! findings.
//!
//! Usage: `ham-lint [workspace-root]` (default `.`). CI runs it as the
//! `static-analysis` job; locally, `cargo run -p ham-analysis --bin
//! ham-lint` from the workspace root does the same thing.

#![forbid(unsafe_code)]

use std::path::PathBuf;

fn main() {
    let root = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".to_string()));
    if !root.join("crates").is_dir() {
        eprintln!("ham-lint: no crates/ directory under {} — run from the workspace root", root.display());
        std::process::exit(2);
    }
    let sources = match ham_analysis::scan::workspace_sources(&root) {
        Ok(sources) => sources,
        Err(err) => {
            eprintln!("ham-lint: cannot read the workspace under {}: {err}", root.display());
            std::process::exit(2);
        }
    };

    let findings = ham_analysis::lint_workspace_files(&sources.linted, &sources.readers);
    for finding in &findings {
        println!("{finding}");
    }
    let files = sources.linted.len();
    if findings.is_empty() {
        println!("ham-lint: {files} files clean");
    } else {
        println!("ham-lint: {} finding(s) across {files} files", findings.len());
        std::process::exit(1);
    }
}
