//! Rule family 1: the unsafe audit.
//!
//! Three checks keep the workspace's `unsafe` surface auditable:
//!
//! 1. every line containing the `unsafe` keyword must be justified by a
//!    `// SAFETY:` comment (trailing, or in the comment block directly
//!    above — doc sections headed `# Safety` count for `unsafe fn` items);
//! 2. every `#[target_feature(enable = ...)]` function must live in the
//!    tier module matching the feature it enables (`avx2.rs` / `avx512.rs`)
//!    and must not be crate-public — the only path to a tier function is the
//!    `kernels/mod.rs` dispatcher, whose entry points are detection-guarded.
//!    The SIMD tiers share one kernel template, so the rule also knows its
//!    three moving parts: `enable = $metavar` is legal only in the template
//!    file (`kernels/simd.rs`), where the stamped fn is held to the same
//!    not-crate-public rule; `simd_tier_kernels!("…")` may be invoked only
//!    from a tier module, with exactly that module's feature literal
//!    (`"avx2,fma"` / `"avx512f,avx512bw"`); and the template macro must stay
//!    private to `kernels` (no `pub` re-export, no `#[macro_export]`);
//! 3. tier modules must stay private: `pub mod avx2`/`avx512` or a
//!    `pub use` re-export of their items would open a detection-bypassing
//!    path and is rejected outright.

use super::{push, Finding};
use crate::scan::{has_marker, justification, word_positions, SourceFile};

pub const RULE: &str = "unsafe-audit";

/// The macro every SIMD tier kernel is stamped from, and the file it lives in.
const TEMPLATE_MACRO: &str = "simd_tier_kernels";
const TEMPLATE_FILE: &str = "kernels/simd.rs";

/// The tier modules that may stamp the template, each with the one feature
/// literal it must pass (the int8 kernels need `avx512bw`, the rest `fma`).
const TIER_LITERALS: [(&str, &str); 2] = [("avx2.rs", "avx2,fma"), ("avx512.rs", "avx512f,avx512bw")];

pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    for idx in 0..file.lines.len() {
        let code = file.lines[idx].code.as_str();

        if !word_positions(code, "unsafe").is_empty() {
            let just = justification(&file.lines, idx);
            if !has_marker(&just, "SAFETY:") && !has_marker(&just, "# Safety") {
                push(
                    findings,
                    file,
                    idx,
                    RULE,
                    "`unsafe` without a `// SAFETY:` comment on the line or in the comment block above".to_string(),
                );
            }
        }

        if code.contains("#[target_feature") {
            check_target_feature(file, idx, findings);
        }

        if !word_positions(code, TEMPLATE_MACRO).is_empty() {
            check_template_macro(file, idx, findings);
        }

        for tier in ["avx2", "avx512"] {
            if code.contains(&format!("pub mod {tier}")) {
                push(
                    findings,
                    file,
                    idx,
                    RULE,
                    format!("tier module `{tier}` must stay private — it is only reachable through the dispatcher"),
                );
            }
            if code.trim_start().starts_with("pub use") && code.contains(&format!("{tier}::")) {
                push(
                    findings,
                    file,
                    idx,
                    RULE,
                    format!("re-exporting from `{tier}` bypasses the dispatcher's detection guard"),
                );
            }
        }
    }
}

/// The tier module that owns a feature string (`avx512*` wins: every
/// AVX-512 feature list would also match `avx2` by prefix otherwise).
fn owning_module(features: &str) -> Option<&'static str> {
    if features.contains("avx512") {
        Some("avx512.rs")
    } else if features.contains("avx2") {
        Some("avx2.rs")
    } else {
        None
    }
}

/// A line naming the template macro: its definition (must stay private),
/// a `use` of it (must not be `pub`), or an invocation (tier modules only,
/// with that module's own feature literal).
fn check_template_macro(file: &SourceFile, idx: usize, findings: &mut Vec<Finding>) {
    let line = &file.lines[idx];
    let code = line.code.trim_start();
    let file_name = file.path.rsplit('/').next().unwrap_or_default();
    let message = if code.starts_with("macro_rules!") {
        let mut attrs_above = file.lines[..idx].iter().rev().map(|l| l.code.trim()).take_while(|c| c.starts_with("#["));
        attrs_above.any(|c| c.contains("macro_export")).then(|| {
            format!("`{TEMPLATE_MACRO}!` must not be #[macro_export]ed — only the tier modules may stamp kernels")
        })
    } else if code.starts_with("pub") && !word_positions(code, "use").is_empty() {
        Some(format!("`{TEMPLATE_MACRO}!` must not be re-exported — only the tier modules may stamp kernels"))
    } else if !code.contains(&format!("{TEMPLATE_MACRO}!")) {
        None
    } else {
        match TIER_LITERALS.iter().find(|(module, _)| *module == file_name) {
            None => Some(format!(
                "`{TEMPLATE_MACRO}!` may be invoked only from a tier module (`avx2.rs` / `avx512.rs`), not `{}`",
                file.path
            )),
            // The literal is blanked in the code channel — read the raw line.
            Some((_, literal)) if !line.raw.contains(&format!("{TEMPLATE_MACRO}!(\"{literal}\")")) => Some(format!(
                "`{TEMPLATE_MACRO}!` in `{file_name}` must enable that module's own tier (\"{literal}\"), got `{}`",
                line.raw.trim()
            )),
            Some(_) => None,
        }
    };
    if let Some(message) = message {
        push(findings, file, idx, RULE, message);
    }
}

fn check_target_feature(file: &SourceFile, idx: usize, findings: &mut Vec<Finding>) {
    // The enabled features live in a string literal, blanked in the code
    // channel — read them from the raw line.
    let raw = file.lines[idx].raw.as_str();
    // The template's attribute: which tier it enables is decided (and
    // checked) at each `simd_tier_kernels!` invocation, so only the file is
    // checked here — the stamped fn still must not be crate-public.
    let templated = raw.contains("enable = $");
    match owning_module(raw) {
        _ if templated && file.path.ends_with(TEMPLATE_FILE) => {}
        _ if templated => push(
            findings,
            file,
            idx,
            RULE,
            format!("#[target_feature(enable = $metavar)] is legal only in the kernel template `{TEMPLATE_FILE}`"),
        ),
        Some(module) if !file.path.ends_with(module) => push(
            findings,
            file,
            idx,
            RULE,
            format!("#[target_feature] enabling this tier belongs in `{module}`, not `{}`", file.path),
        ),
        None => push(
            findings,
            file,
            idx,
            RULE,
            "#[target_feature] enables no known tier (avx2/avx512) — no tier module owns it".to_string(),
        ),
        _ => {}
    }

    // The annotated fn itself must not be crate-public; `pub(super)` or
    // private keeps the dispatcher the only way in.
    for fn_idx in idx..file.lines.len().min(idx + 8) {
        let code = file.lines[fn_idx].code.as_str();
        if word_positions(code, "fn").is_empty() {
            continue;
        }
        if code.trim_start().starts_with("pub fn") || code.trim_start().starts_with("pub unsafe fn") {
            push(
                findings,
                file,
                fn_idx,
                RULE,
                "#[target_feature] fn must not be crate-public — callers must go through the dispatcher".to_string(),
            );
        }
        break;
    }
}
