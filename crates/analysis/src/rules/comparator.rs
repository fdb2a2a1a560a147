//! Rule family 6: the comparator lint.
//!
//! `a.partial_cmp(&b).unwrap_or(Equal)` calls NaN equal to everything, so
//! the order it defines is not transitive once a NaN is in the input — and
//! the standard sorts, `select_nth_unstable_by` and the binary heap may
//! panic or misorder on a comparator that is not a total order. Runtime
//! code must compare floats with `total_cmp`, or rank by the workspace's
//! NaN-free key (`ham_tensor::ops::Ranked`). There is no escape: an order
//! whose inputs "provably hold no NaN" is the key's job, not a comment's.
//!
//! The pattern is matched on the code channel across line breaks:
//! `partial_cmp(` with its balanced argument list, then `.unwrap_or`
//! (`_else` and `_default` included). `#[cfg(test)]` items are exempt — a
//! test may compare floats it built itself.

use super::{push, Finding};
use crate::scan::{word_positions, SourceFile};

pub const RULE: &str = "comparator";

pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    // The code channel as one text, so a call split across lines matches.
    let mut text = String::new();
    let mut line_of = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        text.push_str(&line.code);
        text.push('\n');
        line_of.resize(text.len(), idx);
    }
    let bytes = text.as_bytes();
    for at in word_positions(&text, "partial_cmp") {
        let idx = line_of[at];
        let open = at + "partial_cmp".len();
        if file.test_mask[idx] || bytes.get(open) != Some(&b'(') {
            continue;
        }
        let Some(close) = matching_paren(bytes, open) else { continue };
        if !text[close + 1..].trim_start().starts_with(".unwrap_or") {
            continue;
        }
        push(
            findings,
            file,
            idx,
            RULE,
            "`partial_cmp(…).unwrap_or(…)` is not a total order on NaN — use `total_cmp`, or rank by \
             `ham_tensor::ops::Ranked`"
                .to_string(),
        );
    }
}

/// Byte offset of the `)` closing the `(` at `open`.
fn matching_paren(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (at, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(at);
                }
            }
            _ => {}
        }
    }
    None
}
