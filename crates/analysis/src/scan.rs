//! Brace/attribute-aware scanning on top of the [`lexer`](crate::lexer).
//!
//! Rules need three structural facts the lexer alone does not give them:
//! which lines are inside a `#[cfg(test)]` item (unit tests are exempt from
//! the runtime-surface rules), where a function body ends (for the hot-path
//! allocation lint), and which comment block *justifies* a given line (for
//! `// SAFETY:`, `// ordering:` and `// ham-lint: allow(...)` lookups —
//! trailing comment plus the contiguous comment block above, skipping the
//! attribute lines that legally sit between a comment and its item).

use std::path::{Path, PathBuf};

use crate::lexer::{lex, Line};

/// A lexed source file plus the structural masks the rules share.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (rules match on it).
    pub path: String,
    pub lines: Vec<Line>,
    /// `test_mask[i]` is true when line `i` belongs to a `#[cfg(test)]`
    /// item (the attribute line through the item's closing brace or `;`).
    pub test_mask: Vec<bool>,
}

impl SourceFile {
    pub fn parse(path: &str, source: &str) -> Self {
        let lines = lex(source);
        let test_mask = test_mask(&lines);
        Self { path: path.replace('\\', "/"), lines, test_mask }
    }
}

/// The workspace's Rust sources as `ham-lint` reads them.
#[derive(Debug)]
pub struct WorkspaceSources {
    /// `crates/*/src/**`: every rule runs over these.
    pub linted: Vec<SourceFile>,
    /// Crate `tests/` and `benches/` (minus the never-compiled lint
    /// fixtures), root `src/`, `tests/` and `examples/`: searched only for
    /// readers of public functions.
    pub readers: Vec<SourceFile>,
}

/// Walks the workspace at `root`, sorted by path; every [`SourceFile`]
/// carries its root-relative path.
pub fn workspace_sources(root: &Path) -> std::io::Result<WorkspaceSources> {
    let mut crates: Vec<PathBuf> =
        std::fs::read_dir(root.join("crates"))?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    crates.sort();
    let (mut linted, mut readers) = (Vec::new(), Vec::new());
    for krate in &crates {
        collect_rs(&krate.join("src"), &mut linted)?;
        collect_rs(&krate.join("tests"), &mut readers)?;
        collect_rs(&krate.join("benches"), &mut readers)?;
    }
    for dir in ["src", "tests", "examples"] {
        collect_rs(&root.join(dir), &mut readers)?;
    }
    let parse = |paths: Vec<PathBuf>| -> std::io::Result<Vec<SourceFile>> {
        paths
            .iter()
            .map(|p| {
                let rel = p.strip_prefix(root).unwrap_or(p);
                Ok(SourceFile::parse(&rel.to_string_lossy(), &std::fs::read_to_string(p)?))
            })
            .collect()
    };
    Ok(WorkspaceSources { linted: parse(linted)?, readers: parse(readers)? })
}

/// Appends every `.rs` file under `dir` (recursively, sorted) to `out`; a
/// missing `dir` adds nothing, and `fixtures` directories are skipped.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if !path.ends_with("fixtures") {
                collect_rs(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") || lines[i].code.contains("#[test]") {
            match item_end(lines, i) {
                Some(close) => {
                    for m in &mut mask[i..=close] {
                        *m = true;
                    }
                    i = close + 1;
                }
                None => {
                    for m in &mut mask[i..] {
                        *m = true;
                    }
                    break;
                }
            }
        } else {
            i += 1;
        }
    }
    mask
}

/// Line index where the item whose attribute sits on line `start` ends: its
/// first `;` outside parentheses and brackets when that comes before any
/// `{` (`mod helpers;`, `use …;`), else the `}` matching its first `{`.
fn item_end(lines: &[Line], start: usize) -> Option<usize> {
    let mut nesting = 0i32;
    for (idx, line) in lines.iter().enumerate().skip(start) {
        for c in line.code.chars() {
            match c {
                '(' | '[' => nesting += 1,
                ')' | ']' => nesting -= 1,
                ';' if nesting == 0 => return Some(idx),
                '{' => return brace_close(lines, idx),
                _ => {}
            }
        }
    }
    None
}

/// Line index of the `}` matching the first `{` at or after line `start`.
/// Closing braces seen before the first opener are ignored, so this can be
/// called from an item's first line regardless of surrounding nesting.
pub fn brace_close(lines: &[Line], start: usize) -> Option<usize> {
    let mut depth = 0u32;
    let mut seen_open = false;
    for (idx, line) in lines.iter().enumerate().skip(start) {
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    seen_open = true;
                }
                '}' if seen_open => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return Some(idx);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// The comment lines that justify line `idx`: its own trailing comment plus
/// the contiguous comment block directly above. Attribute lines (`#[...]`)
/// between the comment and the item are skipped; a blank line or a line of
/// real code ends the block.
pub fn justification(lines: &[Line], idx: usize) -> Vec<String> {
    let mut just = Vec::new();
    if !lines[idx].comment.trim().is_empty() {
        just.push(lines[idx].comment.clone());
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let line = &lines[j];
        let code = line.code.trim();
        if code.is_empty() && !line.comment.trim().is_empty() {
            just.push(line.comment.clone());
        } else if code.starts_with("#[") || code.starts_with("#!") {
            continue;
        } else {
            break;
        }
    }
    just
}

/// True when any justification line, stripped of doc-comment leaders
/// (`/`, `!`, `*`) and whitespace, starts with `prefix`. Start-anchoring is
/// deliberate: prose that merely *mentions* a marker (like this crate's own
/// documentation) must not count as carrying it.
pub fn has_marker(just: &[String], prefix: &str) -> bool {
    just.iter().any(|c| c.trim_start_matches(['/', '!', '*', ' ', '\t']).starts_with(prefix))
}

/// Byte offsets of whole-word occurrences of `word` in `code`.
pub fn word_positions(code: &str, word: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        let end = at + word.len();
        let left_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let right_ok = end == code.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            hits.push(at);
        }
        from = at + word.len();
    }
    hits
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "\
fn runtime() {
    x.unwrap();
}

#[cfg(test)]
mod tests {
    fn helper() {
        y.unwrap();
    }
}
";

    #[test]
    fn cfg_test_items_are_masked_to_their_closing_brace() {
        let file = SourceFile::parse("crates/x/src/lib.rs", SRC);
        assert!(!file.test_mask[1], "runtime body is not test code");
        assert!(file.test_mask[4], "the attribute line is masked");
        assert!(file.test_mask[7], "the test body is masked");
        assert!(file.test_mask[9], "the closing brace is masked");
    }

    #[test]
    fn a_braceless_cfg_test_item_ends_at_its_semicolon() {
        let src = "#[cfg(test)]\nmod helpers;\npub fn runtime(x: [u8; 2]) {\n    x.unwrap();\n}\n";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(file.test_mask, [true, true, false, false, false]);
    }

    #[test]
    fn justification_collects_trailing_and_block_above_through_attributes() {
        let src = "\
// SAFETY: the block above
// continues here
#[inline]
unsafe fn f() {} // trailing too
";
        let lines = lex(src);
        let just = justification(&lines, 3);
        assert!(has_marker(&just, "SAFETY:"));
        assert!(just.iter().any(|l| l.contains("trailing too")));
        assert!(just.iter().any(|l| l.contains("continues here")));
    }

    #[test]
    fn justification_stops_at_real_code_and_blank_lines() {
        let src = "\
// SAFETY: belongs to the line below
let a = 1;

unsafe { demo() }
";
        let lines = lex(src);
        assert!(!has_marker(&justification(&lines, 3), "SAFETY:"));
    }

    #[test]
    fn markers_are_start_anchored() {
        let just = vec![" this prose mentions ham-lint: hot-path mid-sentence".to_string()];
        assert!(!has_marker(&just, "ham-lint: hot-path"));
        assert!(has_marker(&["ham-lint: hot-path".to_string()], "ham-lint: hot-path"));
        assert!(has_marker(&["/ # Safety".to_string()], "# Safety"));
    }

    #[test]
    fn word_positions_respect_identifier_boundaries() {
        assert_eq!(word_positions("unsafe fn f()", "unsafe").len(), 1);
        assert!(word_positions("not_unsafe_at_all()", "unsafe").is_empty());
        assert!(word_positions("unsafely()", "unsafe").is_empty());
    }
}
