//! `ham-analysis`: the workspace's invariant checker.
//!
//! PRs 1–9 built a serving stack whose correctness rests on three kinds of
//! discipline that silently rot without tooling: `unsafe` SIMD kernels with
//! prose preconditions, lock-free atomics scattered across four crates, and
//! a request hot path whose "allocation-free" and "panic-isolated" claims
//! lived only in PR descriptions. This crate turns those claims into
//! machine-checked rules, enforced by the `ham-lint` binary on every commit
//! (the `static-analysis` CI job) and by this crate's own test suite.
//!
//! There is no `syn` here by design — crates.io is unreachable, consistent
//! with the workspace's vendored-stub policy — so the analysis is a
//! hand-rolled [`lexer`] (comment/string/char-literal aware) plus a
//! [`scan`] layer that understands braces, attributes, `#[cfg(test)]`
//! regions, and justification comments. That is enough for every rule,
//! because each rule keys off lexically unambiguous tokens.
//!
//! The rule families (see [`rules`]):
//!
//! - **unsafe-audit** — `unsafe` requires `// SAFETY:`; `#[target_feature]`
//!   functions must live in their tier module and stay dispatcher-private;
//! - **atomic-ordering** — `Ordering::*` in audited concurrency modules
//!   requires `// ordering:` or a [`policy`] table entry;
//! - **hot-path-alloc** — marker-tagged functions must not allocate
//!   (escape hatch: `allow(alloc, reason)`);
//! - **panic-surface** — no `unwrap`/`expect` in serve/online runtime code
//!   without `allow(panic, reason)`;
//! - **crate-attrs** — unsafe-free crates must `#![forbid(unsafe_code)]`,
//!   ham-tensor must `#![deny(unsafe_op_in_unsafe_fn)]`;
//! - **comparator** — no `partial_cmp(…).unwrap_or(…)` float order in
//!   runtime code, and no escape hatch (NaN makes it non-total; use
//!   `total_cmp` or the `Ranked` key);
//! - **reader** — a library `pub fn` must be named in some other file
//!   (tests, benches and examples count) or carry
//!   `api("<who reads it>")`.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod policy;
pub mod rules;
pub mod scan;

pub use rules::Finding;
use scan::SourceFile;

/// Runs the per-file rule families over one parsed file.
fn lint_file(file: &SourceFile, findings: &mut Vec<Finding>) {
    rules::unsafe_audit::check(file, findings);
    rules::atomics::check(file, findings);
    rules::hotpath::check(file, findings);
    rules::panics::check(file, findings);
    rules::comparator::check(file, findings);
}

/// Lints a single source text under a logical workspace-relative path.
/// The path matters: several rules scope themselves by it (audited modules,
/// tier-module placement, serve/online panic surface).
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let file = SourceFile::parse(path, source);
    let mut findings = Vec::new();
    lint_file(&file, &mut findings);
    findings
}

/// Lints the workspace: the per-file families over `linted` (the
/// `crates/*/src` files), then the workspace-level crate-attribute and
/// reader checks, sorted by path and line. `readers` are searched only for
/// readers of public functions.
pub fn lint_workspace_files(linted: &[SourceFile], readers: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in linted {
        lint_file(file, &mut findings);
    }
    rules::crate_attrs::check(linted, &mut findings);
    rules::reader::check(linted, readers, &mut findings);
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}
