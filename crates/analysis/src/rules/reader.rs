//! Workspace-level check: every public function has a reader.
//!
//! rustc's `dead_code` lint cannot see an unused `pub fn` of a library:
//! public items always count as used. This rule can. A `pub fn` in a
//! library source file (`crates/*/src/**`, minus `src/bin/**` and
//! `main.rs`) outside `#[cfg(test)]` must have its name as a code token in
//! some *other* workspace file — a library or bin source, a crate's
//! `tests/` or `benches/`, the root `src/`, `tests/` or `examples/`.
//! Comments and strings never count (the lexer blanks them), and neither
//! does a `pub use` re-export: re-exporting a function does not call it.
//!
//! The rule is conservative by construction. Any mention counts, so a
//! common name (`new`, `len`) is never flagged: it can miss a dead
//! function, but it never asks for a live one to go. A function called only
//! inside its own file is flagged; the fix is `pub(crate)` or private.
//!
//! The escape is an `api("<who reads it>")` annotation (the exact comment
//! starts `ham-lint:`) in the comment block above the function, for API
//! kept on purpose. The reason must name its reader — a README section, an
//! example, a ROADMAP item — and an empty one is itself a finding.

use std::collections::HashMap;

use super::{push, Finding};
use crate::scan::{justification, word_positions, SourceFile};

pub const RULE: &str = "reader";

pub const API: &str = "ham-lint: api(";

/// Words that may sit between `pub` and `fn`.
const QUALIFIERS: &[&str] = &["const", "async", "unsafe"];

/// Flags each readerless `pub fn` of `linted` (the `crates/*/src` files).
/// Readers are searched in `linted` and `readers` (the files only read).
pub fn check(linted: &[SourceFile], readers: &[SourceFile], findings: &mut Vec<Finding>) {
    let index = token_index(linted.iter().chain(readers));
    for (file_idx, file) in linted.iter().enumerate() {
        if !is_library_source(&file.path) {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if file.test_mask[idx] {
                continue;
            }
            let Some(name) = pub_fn_name(&line.code) else { continue };
            let just = justification(&file.lines, idx);
            match api_reason(&just) {
                Some("") => {
                    push(findings, file, idx, RULE, format!("`pub fn {name}` carries an empty api() annotation"));
                }
                Some(_) => {}
                None if index.get(name).is_some_and(|files| files.iter().any(|&f| f != file_idx)) => {}
                None => push(
                    findings,
                    file,
                    idx,
                    RULE,
                    format!(
                        "`pub fn {name}` has no reader outside its own file: delete it, narrow it to `pub(crate)` or \
                         private, or name its reader in an api(\"…\") annotation"
                    ),
                ),
            }
        }
    }
}

/// A library source: under `crates/<name>/src/`, not a bin.
fn is_library_source(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/") && !path.contains("/src/bin/") && !path.ends_with("main.rs")
}

/// Every identifier token of the code channel → the indices of the files
/// that hold it (ascending, deduplicated). `pub use` statements are skipped.
fn token_index<'a>(files: impl Iterator<Item = &'a SourceFile>) -> HashMap<&'a str, Vec<usize>> {
    let mut index: HashMap<&str, Vec<usize>> = HashMap::new();
    for (file_idx, file) in files.enumerate() {
        let mut in_pub_use = false;
        for line in &file.lines {
            let code = line.code.trim();
            in_pub_use |= is_pub_use(code);
            if in_pub_use {
                in_pub_use = !code.contains(';');
                continue;
            }
            for token in code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
                if token.is_empty() {
                    continue;
                }
                let files = index.entry(token).or_default();
                if files.last() != Some(&file_idx) {
                    files.push(file_idx);
                }
            }
        }
    }
    index
}

/// `pub use …` or `pub(…) use …`.
fn is_pub_use(code: &str) -> bool {
    let Some(rest) = code.strip_prefix("pub") else { return false };
    let rest = match rest.strip_prefix('(') {
        Some(scoped) => scoped.split_once(')').map_or("", |(_, after)| after),
        None => rest,
    };
    rest.trim_start().starts_with("use ")
}

/// The name declared by a `pub [const] [async] [unsafe] fn`
/// on this code line; `pub(crate)` and narrower do not count.
fn pub_fn_name(code: &str) -> Option<&str> {
    word_positions(code, "fn").into_iter().find_map(|at| {
        let mut before = code[..at].split_whitespace().rev().skip_while(|w| QUALIFIERS.contains(w));
        if before.next() != Some("pub") {
            return None;
        }
        let rest = code[at + 2..].trim_start();
        let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(rest.len());
        Some(&rest[..end]).filter(|name| !name.is_empty())
    })
}

/// The trimmed, unquoted reason of an `api(…)` annotation, if one is there.
fn api_reason(just: &[String]) -> Option<&str> {
    just.iter().find_map(|c| {
        let rest = c.trim_start_matches(['/', '!', '*', ' ', '\t']).strip_prefix(API)?;
        let inner = rest.rsplit_once(')').map_or(rest, |(inner, _)| inner);
        Some(inner.trim().trim_matches('"').trim())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pub_fn_names_skip_qualifiers_and_scoped_visibility() {
        assert_eq!(pub_fn_name("pub fn run() {"), Some("run"));
        assert_eq!(pub_fn_name("    pub const unsafe fn at<T>(x: T) {"), Some("at"));
        assert_eq!(pub_fn_name("pub(crate) fn run() {"), None);
        assert_eq!(pub_fn_name("fn run() {"), None);
        assert_eq!(pub_fn_name("pub f: fn(usize) -> usize,"), None);
    }

    #[test]
    fn pub_use_statements_in_every_visibility() {
        assert!(is_pub_use("pub use ranking::top_k;"));
        assert!(is_pub_use("pub(crate) use ranking::{"));
        assert!(!is_pub_use("use ranking::top_k;"));
        assert!(!is_pub_use("pub fn user() {}"));
    }
}
