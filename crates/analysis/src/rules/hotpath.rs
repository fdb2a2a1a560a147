//! Rule family 3: the hot-path allocation lint.
//!
//! "Allocation-free per request" has been a prose claim since the batch-of-1
//! GEMV path landed; this rule makes it a checked property. A function — or
//! a loop (`for` / `while` / `loop`) — whose preceding comment carries the
//! hot-path marker (the exact comment is shown in the fixtures; it starts
//! `ham-lint:` and names this rule) is scanned body-wide for allocating
//! calls. Marking a loop is for drivers that set up per-task buffers once
//! and then iterate allocation-free (the serving layer's per-tile
//! score→select loop): the set-up may allocate, the loop body may not. The
//! escape hatch is a per-line `allow(alloc, reason)` annotation for
//! allocations that are deliberate (e.g. the returned ranking `Vec` of a
//! scoring entry point).
//!
//! The marker is per-item and not transitive: callees a hot function or
//! loop relies on must be marked themselves to be checked.

use super::{push, Finding};
use crate::scan::{brace_close, has_marker, justification, word_positions, SourceFile};

pub const RULE: &str = "hot-path-alloc";

/// The marker and escape-hatch comment prefixes (start-anchored by
/// [`has_marker`], so prose mentioning them — like this crate's docs —
/// does not trigger the rule).
pub const MARKER: &str = "ham-lint: hot-path";
pub const ALLOW: &str = "ham-lint: allow(alloc";

/// Keywords that open an item the marker can sit on: a function, or a loop
/// inside one.
const ITEM_KEYWORDS: &[&str] = &["fn", "for", "while", "loop"];

/// Substrings of the code channel that allocate. Literal contents are
/// blanked before matching, so strings never false-positive.
const ALLOC_PATTERNS: &[&str] = &[
    "Vec::new",
    "vec!",
    ".to_vec",
    ".clone()",
    "format!",
    "Box::new",
    ".collect",
    ".to_string",
    ".to_owned",
    "String::new",
    "String::from",
    "::with_capacity",
    "Arc::new",
    "Rc::new",
];

pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    for idx in 0..file.lines.len() {
        if !has_marker(&[file.lines[idx].comment.clone()], MARKER) {
            continue;
        }
        // The marked item: the first `fn` or loop at or just below the
        // marker (attributes and doc lines may sit in between).
        let Some(fn_idx) = (idx..file.lines.len().min(idx + 8))
            .find(|&k| ITEM_KEYWORDS.iter().any(|word| !word_positions(&file.lines[k].code, word).is_empty()))
        else {
            push(findings, file, idx, RULE, "hot-path marker is not followed by a function or loop".to_string());
            continue;
        };
        let Some(close) = brace_close(&file.lines, fn_idx) else {
            push(findings, file, fn_idx, RULE, "hot-path item has no body to scan".to_string());
            continue;
        };
        for body_idx in fn_idx..=close {
            let code = file.lines[body_idx].code.as_str();
            let hits: Vec<&str> = ALLOC_PATTERNS.iter().copied().filter(|p| code.contains(p)).collect();
            if hits.is_empty() {
                continue;
            }
            if has_marker(&justification(&file.lines, body_idx), ALLOW) {
                continue;
            }
            push(
                findings,
                file,
                body_idx,
                RULE,
                format!("allocation in a hot-path item ({}) without an allow(alloc) annotation", hits.join(", ")),
            );
        }
    }
}
